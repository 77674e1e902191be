#include "trace/replay.hh"

#include "base/logging.hh"
#include "trace/encoding.hh"

namespace swex
{
namespace trace
{

bool
TraceCursor::advance(Processor &p)
{
    while (_cur != _end) {
        Op op = static_cast<Op>(*_cur++);
        if (op == Op::End) {
            _cur = _end;
            return false;
        }
        std::uint64_t a = 0;
        std::uint64_t v = 0;
        switch (op) {
          case Op::Work:
            if (!getVarint(_cur, _end, v))
                break;
            p.replayWork(v);
            return true;

          case Op::Load:
            if (!getVarint(_cur, _end, a))
                break;
            p.replayMemOp(MemOpType::Load, a, 0);
            return true;

          case Op::Store:
            if (!getVarint(_cur, _end, a) ||
                !getVarint(_cur, _end, v))
                break;
            p.replayMemOp(MemOpType::Store, a, v);
            return true;

          case Op::FetchAdd:
            if (!getVarint(_cur, _end, a) ||
                !getVarint(_cur, _end, v))
                break;
            p.replayMemOp(MemOpType::FetchAdd, a, v);
            return true;

          case Op::Swap:
            if (!getVarint(_cur, _end, a) ||
                !getVarint(_cur, _end, v))
                break;
            p.replayMemOp(MemOpType::Swap, a, v);
            return true;

          case Op::SetFootprint: {
            std::uint64_t count = 0;
            if (!getVarint(_cur, _end, count))
                break;
            std::vector<Addr> blocks;
            blocks.reserve(count);
            bool ok = true;
            for (std::uint64_t i = 0; i < count; ++i) {
                if (!getVarint(_cur, _end, a)) {
                    ok = false;
                    break;
                }
                blocks.push_back(a);
            }
            if (!ok)
                break;
            p.setFootprint(std::move(blocks));
            continue;   // zero-cost: decode the next op
          }

          case Op::HwBarrier:
            p.replayBarrier();
            return true;

          default:
            panic("trace replay: bad opcode %u",
                  static_cast<unsigned>(op));
        }
        // A break out of the switch means a varint truncated mid-op.
        panic("trace replay: truncated operand");
    }
    return false;
}

ReplayProgram::ReplayProgram(Trace trace)
    : _trace(std::move(trace))
{
    _cursors.reserve(_trace.streams.size());
    for (const auto &s : _trace.streams)
        _cursors.emplace_back(s);
}

std::vector<ReplaySource *>
ReplayProgram::sources()
{
    std::vector<ReplaySource *> out;
    out.reserve(_cursors.size());
    for (auto &c : _cursors)
        out.push_back(&c);
    return out;
}

} // namespace trace
} // namespace swex
