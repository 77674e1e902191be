#include "machine/coherence.hh"

#include "base/logging.hh"
#include "machine/directory_backend.hh"
#include "machine/machine.hh"
#include "machine/node.hh"
#include "machine/snoop.hh"
#include "net/message.hh"

namespace swex
{

const char *
machineModelName(MachineModel m)
{
    switch (m) {
      case MachineModel::Directory: return "directory";
      case MachineModel::Snoop: return "snoop";
    }
    return "?";
}

const char *
snoopProtocolName(SnoopProtocol p)
{
    switch (p) {
      case SnoopProtocol::Mesi: return "MESI";
      case SnoopProtocol::Moesi: return "MOESI";
      case SnoopProtocol::Mesif: return "MESIF";
      case SnoopProtocol::Dragon: return "Dragon";
    }
    return "?";
}

bool
parseSnoopProtocol(const std::string &s, SnoopProtocol &out)
{
    if (s == "mesi") { out = SnoopProtocol::Mesi; return true; }
    if (s == "moesi") { out = SnoopProtocol::Moesi; return true; }
    if (s == "mesif") { out = SnoopProtocol::Mesif; return true; }
    if (s == "dragon") { out = SnoopProtocol::Dragon; return true; }
    return false;
}

const char *
busArbitrationName(BusArbitration a)
{
    switch (a) {
      case BusArbitration::Fifo: return "fifo";
      case BusArbitration::RoundRobin: return "rr";
    }
    return "?";
}

bool
parseBusArbitration(const std::string &s, BusArbitration &out)
{
    if (s == "fifo") { out = BusArbitration::Fifo; return true; }
    if (s == "rr") { out = BusArbitration::RoundRobin; return true; }
    return false;
}

NodeCoherence::NodeCoherence(Node &node, unsigned victim_entries)
    : statsGroup(&node.statsGroup, "cachectrl"),
      loads(&statsGroup, "loads"),
      stores(&statsGroup, "stores"),
      atomics(&statsGroup, "atomics"),
      missLatency(nullptr, "missLatency"),
      _node(node), _cache(cacheBytes, victim_entries, &statsGroup)
{
}

void
NodeCoherence::issue(MemOpType type, Addr addr, Word operand)
{
    SWEX_ASSERT(!mshr.valid, "second outstanding memory op");
    Addr baddr = blockAlign(addr);
    bool victim_hit = false;
    CacheLine *line = _cache.access(baddr, victim_hit);
    if (victim_hit)
        ++_cache.victimHits;
    Cycles lat = hitLatency + (victim_hit ? victimSwapLatency : 0);

    if (type == MemOpType::Load) {
        ++loads;
        if (line && line->state != LineState::Instr) {
            ++_cache.dataHits;
            complete(line->data.read(addr), lat);
            return;
        }
    } else {
        if (type == MemOpType::Store)
            ++stores;
        else
            ++atomics;
        if (line && (line->state == LineState::Modified ||
                     line->state == LineState::Exclusive)) {
            // E admits a silent upgrade: the copy is known sole. (The
            // directory fills only Shared or Modified.)
            ++_cache.dataHits;
            line->state = LineState::Modified;
            complete(applyOp(*line, type, addr, operand), lat);
            return;
        }
    }

    // Miss (or upgrade): the model serves it.
    ++_cache.dataMisses;
    mshr.valid = true;
    mshr.type = type;
    mshr.addr = addr;
    mshr.operand = operand;
    mshr.issued = _node.eventq().curTick();
    startMiss();
}

Cycles
NodeCoherence::instrTouch(Addr block_addr)
{
    bool victim_hit = false;
    CacheLine *line = _cache.access(block_addr, victim_hit);
    if (line) {
        if (line->state == LineState::Instr) {
            ++_cache.instrHits;
            if (victim_hit) {
                ++_cache.victimHits;
                return victimSwapLatency;
            }
            return 0;
        }
        // A data line at this address would be a program bug (apps
        // never place data in the instruction region).
        panic("instruction fetch hit a data line");
    }
    ++_cache.instrMisses;
    fill(block_addr, LineState::Instr, DataBlock{});
    return instrMissLatency;
}

Word
NodeCoherence::applyOp(CacheLine &line, MemOpType type, Addr addr,
                       Word operand)
{
    Word old = line.data.read(addr);
    switch (type) {
      case MemOpType::Store:
        line.data.write(addr, operand);
        return 0;
      case MemOpType::FetchAdd:
        line.data.write(addr, old + operand);
        return old;
      case MemOpType::Swap:
        line.data.write(addr, operand);
        return old;
      default:
        panic("applyOp on a load");
    }
}

void
NodeCoherence::finishMiss(Word value, Cycles delay)
{
    missLatency.sample(static_cast<double>(
        _node.eventq().curTick() - mshr.issued));
    mshr.valid = false;
    complete(value, delay);
}

void
NodeCoherence::complete(Word value, Cycles delay)
{
    resumeValue = value;
    if (_node.proc.replayBatchWindow(delay)) {
        // Replay fast path: no pending event precedes the completion
        // tick, so run the completion there directly -- same handler,
        // same tick, same state, minus the queue round-trip.
        resume();
        return;
    }
    _node.eventq().scheduleIn(completeEvent, delay);
}

void
NodeCoherence::resume()
{
    _node.proc.completeMemOp(resumeValue);
}

void
NodeCoherence::dispatchRx(const Message &msg)
{
    panic("machine model without a network received %s",
          msg.describe().c_str());
}

bool
NodeCoherence::interceptSend(const Message &msg, Cycles)
{
    panic("machine model without a network sent %s",
          msg.describe().c_str());
}

std::unique_ptr<CoherenceBackend>
makeCoherenceBackend(Machine &m, const MachineConfig &cfg)
{
    switch (cfg.machineModel) {
      case MachineModel::Directory:
        return std::make_unique<DirectoryBackend>(m);
      case MachineModel::Snoop:
        return std::make_unique<SnoopBackend>(m);
    }
    panic("unknown machine model");
}

} // namespace swex
