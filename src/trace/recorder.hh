/**
 * @file
 * The recording half of the record/replay subsystem: per-thread
 * append-only op-stream buffers the Mem API writes into while the
 * machine runs in ExecutionMode::Record (the only mode that builds
 * one).
 *
 * The recorder is strictly passive. It observes the app-visible
 * operation stream at the Mem layer and never schedules events,
 * touches caches, charges cycles, or reads the clock, so a
 * Record-mode run produces bit-identical simulated results to a
 * Direct run of the same config.
 *
 * Placement matters: hooks live in the Mem methods only, so
 * machine-internal resumptions (the fast barrier's resumeAfter work
 * segment, handler preemptions) are never recorded — replay
 * regenerates them from the same machinery.
 *
 * Header-only so swex_machine can call it without linking the trace
 * library; serialization to the swex-trace-v1 container lives in
 * trace_format.{hh,cc}.
 */

#ifndef SWEX_TRACE_RECORDER_HH
#define SWEX_TRACE_RECORDER_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "trace/encoding.hh"

namespace swex
{

class TraceRecorder
{
  public:
    /** One thread's accumulated op stream. */
    struct Stream
    {
        std::vector<std::uint8_t> bytes;
        std::uint64_t ops = 0;
    };

    explicit TraceRecorder(int num_threads)
        : _streams(static_cast<std::size_t>(num_threads))
    {}

    /** work(n); callers skip n == 0 (it never suspends or charges). */
    void
    work(int tid, Cycles n)
    {
        auto &s = at(tid);
        s.bytes.push_back(static_cast<std::uint8_t>(trace::Op::Work));
        trace::putVarint(s.bytes, n);
        ++s.ops;
    }

    /** One memory operation; @p op is Load/Store/FetchAdd/Swap. */
    void
    memOp(int tid, trace::Op op, Addr a, Word operand)
    {
        auto &s = at(tid);
        s.bytes.push_back(static_cast<std::uint8_t>(op));
        trace::putVarint(s.bytes, a);
        if (op != trace::Op::Load)
            trace::putVarint(s.bytes, operand);
        ++s.ops;
    }

    void
    setFootprint(int tid, const std::vector<Addr> &blocks)
    {
        auto &s = at(tid);
        s.bytes.push_back(
            static_cast<std::uint8_t>(trace::Op::SetFootprint));
        trace::putVarint(s.bytes, blocks.size());
        for (Addr a : blocks)
            trace::putVarint(s.bytes, a);
        ++s.ops;
    }

    void
    hwBarrier(int tid)
    {
        auto &s = at(tid);
        s.bytes.push_back(
            static_cast<std::uint8_t>(trace::Op::HwBarrier));
        ++s.ops;
    }

    int
    numThreads() const
    {
        return static_cast<int>(_streams.size());
    }

    const Stream &
    stream(int tid) const
    {
        return _streams[static_cast<std::size_t>(tid)];
    }

  private:
    Stream &at(int tid) { return _streams[static_cast<std::size_t>(tid)]; }

    std::vector<Stream> _streams;
};

} // namespace swex

#endif // SWEX_TRACE_RECORDER_HH
