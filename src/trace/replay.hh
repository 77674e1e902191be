/**
 * @file
 * The replay half of the record/replay subsystem: flat cursors that
 * walk a recorded swex-trace-v1 op stream and drive the existing
 * Processor state machine through its replay issue surface. No
 * coroutine frames, no per-access suspension — the cursor advances,
 * issues one suspending op, and the processor's own trap / watchdog /
 * cycle-charging machinery does the rest, so replay timing is
 * identical to direct execution by construction. Replay-mode machines
 * build no recorder, so a replay leaves no trace of its own behind.
 */

#ifndef SWEX_TRACE_REPLAY_HH
#define SWEX_TRACE_REPLAY_HH

#include <string>
#include <vector>

#include "machine/processor.hh"
#include "trace/trace_format.hh"

namespace swex
{
namespace trace
{

/** One thread's cursor over its recorded op stream. */
class TraceCursor final : public ReplaySource
{
  public:
    explicit TraceCursor(const TraceRecorder::Stream &stream)
        : _cur(stream.bytes.data()),
          _end(stream.bytes.data() + stream.bytes.size())
    {}

    /**
     * Decode ops until one suspends (work, memory op, barrier) or the
     * stream ends. Zero-cost ops (SetFootprint) apply inline.
     * @return false once exhausted. Panics on a malformed stream —
     * load() checksums make that unreachable for on-disk traces.
     */
    bool advance(Processor &p) override;

  private:
    const std::uint8_t *_cur;
    const std::uint8_t *_end;
};

/**
 * A loaded trace bound to per-thread cursors, ready to hand to
 * Machine::runReplay(). Owns the trace (cursors point into it).
 */
class ReplayProgram
{
  public:
    explicit ReplayProgram(Trace trace);

    ReplayProgram(const ReplayProgram &) = delete;
    ReplayProgram &operator=(const ReplayProgram &) = delete;

    const Trace &trace() const { return _trace; }

    /** One ReplaySource per recorded thread, in thread order. */
    std::vector<ReplaySource *> sources();

  private:
    Trace _trace;
    std::vector<TraceCursor> _cursors;
};

} // namespace trace
} // namespace swex

#endif // SWEX_TRACE_REPLAY_HH
