#include "apps/micro.hh"

#include "base/rng.hh"

namespace swex
{

MicroApp::MicroApp(MicroKind k, const MicroConfig &config, int nodes)
    : kind(k), cfg(config), cfgNodes(nodes)
{
}

const char *
MicroApp::name() const
{
    switch (kind) {
      case MicroKind::FalseSharing: return "FALSESHARE";
      case MicroKind::Padded: return "PADDED";
      case MicroKind::HotLine: return "HOTLINE";
    }
    return "?";
}

Addr
MicroApp::slotAddr(int tid) const
{
    // FALSESHARE packs counters back to back (wordsPerBlock threads
    // per block); PADDED strides by a whole block so each counter is
    // alone in its (locally homed, Layout::Blocked) block.
    std::size_t i = static_cast<std::size_t>(tid);
    if (kind == MicroKind::Padded)
        i *= wordsPerBlock;
    return slots.at(i);
}

Cycles
MicroApp::stepWork(int tid, int it) const
{
    if (cfg.jitter == 0)
        return cfg.workCycles;
    // splitmix64 over (jitter, tid, iteration): deterministic for a
    // given parameter set, so the op stream stays trace-portable
    // while every jitter value is a distinct interleaving.
    std::uint64_t h = mix64(cfg.jitter +
                            (static_cast<std::uint64_t>(tid) << 32) +
                            static_cast<std::uint64_t>(it) + goldenGamma);
    return cfg.workCycles + static_cast<Cycles>(
        h % (cfg.workCycles + 1));
}

void
MicroApp::setup(Machine &m)
{
    numNodes = cfgNodes > 0 ? cfgNodes : m.numNodes();
    auto n = static_cast<std::size_t>(numNodes);
    switch (kind) {
      case MicroKind::FalseSharing:
        // All counters homed on node 0, packed: co-resident writers.
        slots = SharedArray(m, n, Layout::OnNode);
        break;
      case MicroKind::Padded:
        // One block per counter, block i homed on node i.
        slots = SharedArray(m, n * wordsPerBlock, Layout::Blocked);
        break;
      case MicroKind::HotLine:
        hotAddr = m.allocOn(0, blockBytes, blockBytes);
        m.debugWrite(hotAddr, 0);
        break;
    }
    if (kind != MicroKind::HotLine)
        slots.fill(m, 0);
}

Task<void>
MicroApp::thread(Mem &m, int tid)
{
    for (int it = 0; it < cfg.iterations; ++it) {
        if (kind == MicroKind::HotLine) {
            // Read phase: every thread touches the hot word (after
            // the previous write phase's invalidation or update).
            co_await m.read(hotAddr);
            co_await m.work(stepWork(tid, it));
            co_await m.hwBarrier();
            // Write phase: a single writer bumps it.
            if (tid == 0)
                co_await m.write(hotAddr, static_cast<Word>(it + 1));
            co_await m.hwBarrier();
        } else {
            Word v = co_await m.read(slotAddr(tid));
            co_await m.write(slotAddr(tid), v + 1);
            co_await m.work(stepWork(tid, it));
            // Keep the iterations phase-aligned so every round
            // re-contends the shared blocks (fast barrier: no
            // coherence traffic of its own).
            co_await m.hwBarrier();
        }
    }
}

Task<void>
MicroApp::sequential(Mem &m)
{
    // One node plays every role in turn, leaving the same final
    // counters the parallel kernel does.
    for (int it = 0; it < cfg.iterations; ++it) {
        if (kind == MicroKind::HotLine) {
            co_await m.read(hotAddr);
            co_await m.work(stepWork(0, it));
            co_await m.write(hotAddr, static_cast<Word>(it + 1));
        } else {
            for (int t = 0; t < numNodes; ++t) {
                Word v = co_await m.read(slotAddr(t));
                co_await m.write(slotAddr(t), v + 1);
                co_await m.work(stepWork(t, it));
            }
        }
    }
}

bool
MicroApp::verify(Machine &m)
{
    if (kind == MicroKind::HotLine)
        return m.debugRead(hotAddr) ==
               static_cast<Word>(cfg.iterations);
    for (int t = 0; t < numNodes; ++t) {
        if (m.debugRead(slotAddr(t)) !=
                static_cast<Word>(cfg.iterations))
            return false;
    }
    return true;
}

} // namespace swex
