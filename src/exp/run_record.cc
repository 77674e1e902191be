#include "exp/run_record.hh"

#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "base/json.hh"

namespace swex
{

namespace
{

// One record member each: its pre-rendered ,"key": then the value.

void
member(std::string &out, const char *key, std::string_view v)
{
    out += key;
    json::appendString(out, v);
}

void
member(std::string &out, const char *key, double v)
{
    out += key;
    json::appendNumber(out, v);
}

void
member(std::string &out, const char *key, std::integral auto v)
{
    char buf[24];
    out += key;
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void
member(std::string &out, const char *key, bool v)
{
    out += key;
    out += v ? "true" : "false";
}

} // anonymous namespace

void
RunRecord::writeJson(std::ostream &os, bool canonical) const
{
    std::string out;
    appendJson(out, canonical);
    os << out;
}

void
RunRecord::appendJson(std::string &out, bool canonical) const
{
    member(out, "{\"id\":", id);
    member(out, ",\"app\":", app);
    member(out, ",\"protocol\":", protocol);
    // Emitted only for non-directory models, mirroring exec_mode:
    // directory documents stay byte-identical to pre-seam outputs.
    if (machineModel != "directory")
        member(out, ",\"machine_model\":", machineModel);
    member(out, ",\"nodes\":", nodes);
    member(out, ",\"sequential\":", sequential);
    if (execMode != "direct")
        member(out, ",\"exec_mode\":", execMode);
    member(out, ",\"sim_cycles\":", simCycles);
    member(out, ",\"verified\":", verified);
    member(out, ",\"status\":", status);
    if (failed()) {
        member(out, ",\"last_progress\":", lastProgress);
        member(out, ",\"stall\":", stallSummary);
    }
    if (faultDrop != 0 || faultDup != 0 || faultBlackout != 0) {
        member(out, ",\"faults\":{\"drop\":", faultDrop);
        member(out, ",\"dup\":", faultDup);
        member(out, ",\"blackout\":", faultBlackout);
        member(out, ",\"seed\":", faultSeed);
        out += '}';
    }
    if (deadline != 0)
        member(out, ",\"deadline\":", deadline);

    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(imageHash));
    member(out, ",\"image_hash\":", std::string_view(hash));

    member(out, ",\"metrics\":{\"traps\":", trapsRaised);
    member(out, ",\"handler_cycles\":", handlerCycles);
    member(out, ",\"messages\":", messages);
    member(out, ",\"read_handler_mean\":", readHandlerMean);
    member(out, ",\"read_handler_count\":", readHandlerCount);
    member(out, ",\"write_handler_mean\":", writeHandlerMean);
    member(out, ",\"write_handler_count\":", writeHandlerCount);
    out += '}';

    // Host wall time (and the rates derived from it) is the only
    // nondeterministic field in a record; canonical documents zero it
    // so byte-comparison across runs and --jobs levels is exact.
    member(out, ",\"host\":{\"wall_s\":", canonical ? 0 : hostWallSeconds);
    member(out, ",\"events\":", hostEvents);
    member(out, ",\"events_per_sec\":", canonical ? 0 : eventsPerSec());
    member(out, ",\"sim_cycles_per_sec\":",
           canonical ? 0 : simCyclesPerSec());
    out += '}';

    if (audited) {
        member(out, ",\"audit\":{\"transitions\":", auditTransitions);
        member(out, ",\"violations\":", auditViolations);
        out += '}';
    }

    if (seqCycles > 0) {
        member(out, ",\"seq_cycles\":", seqCycles);
        member(out, ",\"speedup\":", speedup);
    }

    if (!workerSets.empty()) {
        for (std::size_t i = 0; i < workerSets.size(); ++i)
            member(out, i == 0 ? ",\"worker_sets\":[" : ",",
                   workerSets[i]);
        out += ']';
    }

    out += ",\"stats\":";
    out += statsJson.empty() ? std::string_view("{}") : statsJson;
    out += '}';
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
