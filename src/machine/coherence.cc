#include "machine/coherence.hh"

#include "base/logging.hh"
#include "machine/directory_backend.hh"
#include "machine/machine.hh"
#include "machine/snoop.hh"

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
