#include "machine/machine.hh"

#include <algorithm>
#include <ostream>
#include <vector>

#include "audit/auditor.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "core/home_controller.hh"
#include "machine/mem_api.hh"
#include "trace/recorder.hh"

namespace swex
{

static_assert(isPowerOf2(segBytes), "segBytes must be 2^k");

Machine::Machine(const MachineConfig &config)
    : network(eventq, config.numNodes, config.net, &root), cfg(config),
      heapPtr(static_cast<std::size_t>(config.numNodes))
{
    SWEX_ASSERT(cfg.numNodes >= 1 && cfg.numNodes <= maxNodes,
                "numNodes out of range: %d", cfg.numNodes);

    backend = makeCoherenceBackend(*this, cfg);

    nodes.reserve(static_cast<std::size_t>(cfg.numNodes));
    for (int i = 0; i < cfg.numNodes; ++i) {
        nodes.push_back(std::make_unique<Node>(*this, i));
        network.setReceiver(i, nodes.back().get());
        heapPtr[static_cast<std::size_t>(i)] = heapBase;
    }
    if (cfg.executionMode == ExecutionMode::Record)
        _recorder = std::make_unique<TraceRecorder>(cfg.numNodes);
}

Machine::~Machine() = default;

unsigned
Machine::cacheIndexOf(Addr a) const
{
    return nodes[0]->cache().indexOf(blockAlign(a));
}

Addr
Machine::allocOn(NodeId n, std::uint64_t bytes, std::uint64_t align)
{
    SWEX_ASSERT(n >= 0 && n < cfg.numNodes, "allocOn: bad node %d",
                static_cast<int>(n));
    auto &ptr = heapPtr[static_cast<std::size_t>(n)];
    ptr = roundUp(ptr, align);
    Addr a = nodeBase(n) + ptr;
    ptr += bytes;
    SWEX_ASSERT(ptr <= segBytes, "node %d out of shared memory",
                static_cast<int>(n));
    return a;
}

Addr
Machine::allocAtIndex(NodeId n, std::uint64_t bytes,
                      unsigned cache_index)
{
    // Advance the bump pointer until the block's set index matches.
    auto &ptr = heapPtr[static_cast<std::size_t>(n)];
    ptr = roundUp(ptr, blockBytes);
    unsigned sets = nodes[0]->cache().numSets();
    unsigned cur = static_cast<unsigned>(
        ((nodeBase(n) + ptr) / blockBytes) % sets);
    unsigned skip = (cache_index + sets - cur) % sets;
    ptr += static_cast<std::uint64_t>(skip) * blockBytes;
    return allocOn(n, bytes, blockBytes);
}

Addr
Machine::instrBase(NodeId n) const
{
    return nodeBase(n);   // low 64 KB of each segment is reserved
}

Tick
Machine::run(const ThreadFn &fn, int num_threads)
{
    if (num_threads < 0)
        num_threads = cfg.numNodes;
    SWEX_ASSERT(num_threads >= 1 && num_threads <= cfg.numNodes,
                "bad thread count %d", num_threads);

    Tick start = eventq.curTick();
    running = num_threads;
    _runStatus = RunStatus::Completed;
    _lastProgress = start;

    // Handles persist on the machine (not this frame): an abandoned
    // run leaves suspended coroutines referencing them.
    _memHandles.clear();
    _memHandles.reserve(static_cast<std::size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
        _memHandles.push_back(std::make_unique<Mem>(*this, i));
        nodes[static_cast<std::size_t>(i)]->proc.runThread(
            fn(*_memHandles.back(), i));
    }

    return runMainLoop(start);
}

Tick
Machine::runReplay(const std::vector<ReplaySource *> &threads)
{
    int num_threads = static_cast<int>(threads.size());
    SWEX_ASSERT(num_threads >= 1 && num_threads <= cfg.numNodes,
                "bad replay thread count %d", num_threads);

    Tick start = eventq.curTick();
    running = num_threads;
    _runStatus = RunStatus::Completed;
    _lastProgress = start;

    for (int i = 0; i < num_threads; ++i) {
        nodes[static_cast<std::size_t>(i)]->proc.runReplay(
            threads[static_cast<std::size_t>(i)]);
    }

    return runMainLoop(start);
}

Tick
Machine::runMainLoop(Tick start)
{
    // A run without a deadline of its own is bounded by maxTicks, so
    // a runaway or deadlocked program ends as a record, never the
    // process.
    const Tick deadlineTick =
        start + (cfg.deadline ? cfg.deadline : maxTicks);

    while (running > 0) {
        if (!eventq.runOne()) {
            _runStatus = RunStatus::Deadlocked;
            return eventq.curTick() - start;
        }
        if (eventq.curTick() > deadlineTick) {
            _runStatus = RunStatus::DeadlineExceeded;
            return eventq.curTick() - start;
        }
    }
    // Drain residual protocol activity (writebacks, late acks) so the
    // machine is quiescent before the caller inspects state. The
    // drain is bounded too: a retransmit loop that never empties the
    // queue must not hang the sweep.
    eventq.run(deadlineTick);
    if (!eventq.empty()) {
        _runStatus = RunStatus::DeadlineExceeded;
        return eventq.curTick() - start;
    }
    // Every completed run ends with the quiescent sweep.
    checkInvariants();
    return eventq.curTick() - start;
}

void
Machine::attachAuditor(CoherenceAuditor *a)
{
    _auditor = a;
    for (auto &node : nodes) {
        if (HomeController *h = node->coh->home())
            h->setAuditHook(a);
    }
    backend->attachAuditor(a);
    if (a)
        registerNodes(*a);
}

void
Machine::registerNodes(CoherenceAuditor &a) const
{
    a.setHomeOf([this](Addr addr) { return homeOf(addr); });
    for (const auto &node : nodes)
        a.addNode({node->id(), node->coh->home(), &node->cache()});
}

std::uint64_t
Machine::imageHash() const
{
    // The image is what debugRead returns for every block any memory
    // or cache has touched: the first dirty cached copy in node
    // order, else home memory (zero when absent there). So only dirty
    // lines and home-memory blocks are collected, dirty lines first;
    // after a stable sort by address each block's first entry is its
    // value. Address order keeps the hash interleaving-independent.
    struct Copy
    {
        Addr block;
        const DataBlock *data;
    };
    std::vector<Copy> copies;
    for (const auto &node : nodes) {
        node->cache().forEachLine([&](const CacheLine &line) {
            if (line.dirty())
                copies.push_back({line.blockAddr, &line.data});
        });
    }
    for (const auto &node : nodes) {
        node->mem.forEachBlock([&](Addr a, const DataBlock &data) {
            if (homeOf(a) == node->id())
                copies.push_back({a, &data});
        });
    }
    std::stable_sort(copies.begin(), copies.end(),
                     [](const Copy &x, const Copy &y) {
                         return x.block < y.block;
                     });
    copies.erase(std::unique(copies.begin(), copies.end(),
                             [](const Copy &x, const Copy &y) {
                                 return x.block == y.block;
                             }),
                 copies.end());

    std::uint64_t h = 0x243f6a8885a308d3ULL;
    auto mix = [&h](std::uint64_t v) { h = mix64(h ^ v); };
    for (const Copy &c : copies) {
        // All-zero blocks hash to nothing: which zero blocks were ever
        // materialized depends on the protocol and interleaving, not
        // on the program's result.
        if (*c.data == DataBlock{})
            continue;
        mix(c.block);
        for (Word w : c.data->words)
            mix(w);
    }
    return h;
}

void
Machine::barrierArrive(int node, std::coroutine_handle<> h)
{
    barrierWaiters.emplace_back(node, h);
    if (static_cast<int>(barrierWaiters.size()) < running)
        return;
    auto waiters = std::move(barrierWaiters);
    barrierWaiters.clear();
    for (auto &[n, handle] : waiters) {
        nodes[static_cast<std::size_t>(n)]->proc.resumeAfter(
            handle, barrierLatency);
    }
}

Word
Machine::debugRead(Addr a) const
{
    Addr baddr = blockAlign(a);
    for (const auto &node : nodes) {
        const CacheLine *line = node->cache().peek(baddr);
        if (line && line->dirty())
            return line->data.read(a);
    }
    return nodes[static_cast<std::size_t>(homeOf(a))]
        ->mem.readWord(a);
}

void
Machine::debugWrite(Addr a, Word v)
{
    Addr baddr = blockAlign(a);
    for (auto &node : nodes) {
        // Keep any cached copies consistent with the backdoor write.
        Cache &c = node->cache();
        bool victim_hit = false;
        if (CacheLine *line = c.access(baddr, victim_hit))
            line->data.write(a, v);
    }
    nodes[static_cast<std::size_t>(homeOf(a))]->mem.writeWord(a, v);
}

void
Machine::checkInvariants() const
{
    // Without an attached auditor, a fresh Panic-mode one that sees
    // every node but hooks nothing aborts on the first violation.
    CoherenceAuditor local(CoherenceAuditor::Mode::Panic);
    if (!_auditor)
        registerNodes(local);
    CoherenceAuditor &a = _auditor ? *_auditor : local;
    a.checkQuiescent();
    backend->auditQuiescent(a);
    network.checkDeliveryQuiescent(
        [&a](NodeId src, NodeId dst, const std::string &what) {
            a.deliveryViolation(src, dst, what);
        });
}

void
Machine::dumpStats(std::ostream &os) const
{
    root.dumpJson(os);
}

double
Machine::sumStat(const std::string &path) const
{
    double sum = 0;
    for (const auto &node : nodes) {
        const stats::Stat *s = node->statsGroup.find(path);
        if (const auto *sc = dynamic_cast<const stats::Scalar *>(s))
            sum += sc->value();
    }
    return sum;
}

} // namespace swex
