/**
 * @file
 * The shared-memory API that simulated programs are written against:
 * word reads and writes, atomic fetch-and-add and swap, and explicit
 * compute (work). All operations are awaitable; the thread suspends
 * until the coherence protocol completes them.
 */

#ifndef SWEX_MACHINE_MEM_API_HH
#define SWEX_MACHINE_MEM_API_HH

#include <bit>

#include "machine/machine.hh"
#include "machine/node.hh"
#include "machine/processor.hh"
#include "trace/recorder.hh"

namespace swex
{

/** Bit-cast helpers for floating-point data in shared memory. */
inline Word d2w(double d) { return std::bit_cast<Word>(d); }
inline double w2d(Word w) { return std::bit_cast<double>(w); }

/** Per-thread handle onto the simulated memory system. */
class Mem
{
  public:
    Mem(Machine &machine, int node)
        : _machine(machine), _node(node)
    {}

    int id() const { return _node; }
    Machine &machine() { return _machine; }

    Processor &
    proc()
    {
        return _machine.nodes[static_cast<size_t>(_node)]->proc;
    }

    /** Load a 64-bit word. */
    Processor::MemAwaitable
    read(Addr a)
    {
        if (auto *rec = _machine.recorder())
            rec->memOp(_node, trace::Op::Load, a, 0);
        return proc().memOp(MemOpType::Load, a, 0);
    }

    /** Store a 64-bit word. */
    Processor::MemAwaitable
    write(Addr a, Word v)
    {
        if (auto *rec = _machine.recorder())
            rec->memOp(_node, trace::Op::Store, a, v);
        return proc().memOp(MemOpType::Store, a, v);
    }

    /** Atomic fetch-and-add; returns the old value. */
    Processor::MemAwaitable
    fetchAdd(Addr a, Word v)
    {
        if (auto *rec = _machine.recorder())
            rec->memOp(_node, trace::Op::FetchAdd, a, v);
        return proc().memOp(MemOpType::FetchAdd, a, v);
    }

    /** Atomic swap; returns the old value. */
    Processor::MemAwaitable
    swap(Addr a, Word v)
    {
        if (auto *rec = _machine.recorder())
            rec->memOp(_node, trace::Op::Swap, a, v);
        return proc().memOp(MemOpType::Swap, a, v);
    }

    /** Execute @p n cycles of compute. */
    Processor::WorkAwaitable
    work(Cycles n)
    {
        // work(0) never suspends or charges cycles (await_ready), so
        // it is invisible to timing and is not recorded.
        if (n != 0) {
            if (auto *rec = _machine.recorder())
                rec->work(_node, n);
        }
        return proc().work(n);
    }

    /** Set the instruction footprint for subsequent work segments. */
    void
    setFootprint(std::vector<Addr> blocks)
    {
        if (auto *rec = _machine.recorder())
            rec->setFootprint(_node, blocks);
        proc().setFootprint(std::move(blocks));
    }

    /** Fast (hardware-assisted) barrier across all live threads. */
    Machine::BarrierAwaitable
    hwBarrier()
    {
        if (auto *rec = _machine.recorder())
            rec->hwBarrier(_node);
        return _machine.hwBarrier(_node);
    }

  private:
    Machine &_machine;
    int _node;
};

} // namespace swex

#endif // SWEX_MACHINE_MEM_API_HH
