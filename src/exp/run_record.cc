#include "exp/run_record.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "base/json.hh"

namespace swex
{

namespace
{

void
jsonNumber(std::ostream &os, double v)
{
    std::string s;
    json::appendNumber(s, v);
    os << s;
}

void
jsonString(std::ostream &os, const std::string &str)
{
    std::string s;
    json::appendString(s, str);
    os << s;
}

} // anonymous namespace

void
RunRecord::writeJson(std::ostream &os, bool canonical) const
{
    os << "{\"id\":";
    jsonString(os, id);
    os << ",\"app\":";
    jsonString(os, app);
    os << ",\"protocol\":";
    jsonString(os, protocol);
    // Emitted only for non-directory models, mirroring exec_mode:
    // directory documents stay byte-identical to pre-seam outputs.
    if (machineModel != "directory") {
        os << ",\"machine_model\":";
        jsonString(os, machineModel);
    }
    os << ",\"nodes\":" << nodes
       << ",\"sequential\":" << (sequential ? "true" : "false");
    if (execMode != "direct") {
        os << ",\"exec_mode\":";
        jsonString(os, execMode);
    }
    os << ",\"sim_cycles\":" << simCycles
       << ",\"verified\":" << (verified ? "true" : "false")
       << ",\"status\":";
    jsonString(os, status);
    if (failed()) {
        os << ",\"last_progress\":" << lastProgress;
        os << ",\"stall\":";
        jsonString(os, stallSummary);
    }
    if (faultDrop != 0 || faultDup != 0 || faultBlackout != 0) {
        os << ",\"faults\":{\"drop\":" << faultDrop
           << ",\"dup\":" << faultDup
           << ",\"blackout\":" << faultBlackout
           << ",\"seed\":" << faultSeed << '}';
    }
    if (deadline != 0)
        os << ",\"deadline\":" << deadline;

    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(imageHash));
        os << ",\"image_hash\":\"" << buf << '"';
    }

    os << ",\"metrics\":{\"traps\":";
    jsonNumber(os, trapsRaised);
    os << ",\"handler_cycles\":";
    jsonNumber(os, handlerCycles);
    os << ",\"messages\":";
    jsonNumber(os, messages);
    os << ",\"read_handler_mean\":";
    jsonNumber(os, readHandlerMean);
    os << ",\"read_handler_count\":" << readHandlerCount;
    os << ",\"write_handler_mean\":";
    jsonNumber(os, writeHandlerMean);
    os << ",\"write_handler_count\":" << writeHandlerCount;
    os << '}';

    // Host wall time (and the rates derived from it) is the only
    // nondeterministic field in a record; canonical documents zero it
    // so byte-comparison across runs and --jobs levels is exact.
    os << ",\"host\":{\"wall_s\":";
    jsonNumber(os, canonical ? 0 : hostWallSeconds);
    os << ",\"events\":";
    jsonNumber(os, hostEvents);
    os << ",\"events_per_sec\":";
    jsonNumber(os, canonical ? 0 : eventsPerSec());
    os << ",\"sim_cycles_per_sec\":";
    jsonNumber(os, canonical ? 0 : simCyclesPerSec());
    os << '}';

    if (audited) {
        os << ",\"audit\":{\"transitions\":" << auditTransitions
           << ",\"violations\":" << auditViolations << '}';
    }

    if (seqCycles > 0) {
        os << ",\"seq_cycles\":";
        jsonNumber(os, seqCycles);
        os << ",\"speedup\":";
        jsonNumber(os, speedup);
    }

    if (!workerSets.empty()) {
        os << ",\"worker_sets\":[";
        for (std::size_t i = 0; i < workerSets.size(); ++i)
            os << (i ? "," : "") << workerSets[i];
        os << ']';
    }

    os << ",\"stats\":"
       << (statsJson.empty() ? "{}" : statsJson.c_str());
    os << '}';
}

RunRecord &
RunLog::add(RunRecord record)
{
    _records.push_back(std::move(record));
    return _records.back();
}

void
RunLog::writeJson(std::ostream &os, bool canonical) const
{
    os << "{\"schema\":\"" << schema << "\",\"records\":[\n";
    bool first = true;
    for (const RunRecord &r : _records) {
        if (!first)
            os << ",\n";
        first = false;
        os << ' ';
        r.writeJson(os, canonical);
    }
    os << "\n]}\n";
}

bool
RunLog::writeFile(const std::string &path, bool canonical) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    writeJson(f, canonical);
    f.flush();
    return static_cast<bool>(f);
}

bool
RunLog::canonicalRequested()
{
    const char *canon = std::getenv(canonicalEnvVar);
    return canon != nullptr && *canon != '\0';
}

bool
RunLog::writeEnv() const
{
    const char *path = std::getenv(envVar);
    if (path == nullptr || *path == '\0')
        return true;
    return writeFile(path, canonicalRequested());
}

} // namespace swex
