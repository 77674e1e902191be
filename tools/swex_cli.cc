/**
 * @file
 * swex_cli: command-line experiment driver. Runs any registered
 * workload on any protocol/machine configuration through the
 * experiment layer and reports run time, speedup, and memory-system
 * statistics -- the repository's equivalent of driving NWO by hand.
 *
 * Usage examples:
 *   swex_cli --app worker --nodes 16 --protocol h5 --wss 8
 *   swex_cli --app water --nodes 64 --protocol h1lack --victim 6
 *   swex_cli --app tsp --nodes 64 --protocol h0 --stats
 *   swex_cli --app smgrid --param fine=65 --seq
 *   swex_cli --app mp3d --json out.json
 *   swex_cli --app worker --sweep --seeds 20 --jitter 37 --jobs 8
 *   swex_cli --list
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "core/spectrum.hh"
#include "exp/cache/result_cache.hh"
#include "exp/client.hh"
#include "exp/runner.hh"
#include "exp/serve.hh"
#include "exp/wire_json.hh"

using namespace swex;

namespace
{

/**
 * Malformed numeric option values ("16x", "", "99999999999999999999",
 * "-3" where a count is expected) must produce a usage error and exit
 * code 2, not an uncaught std::invalid_argument from bare std::stoi.
 */
[[noreturn]] void
badValue(const std::string &opt, const std::string &value,
         const char *why)
{
    std::fprintf(stderr, "swex_cli: bad value '%s' for %s: %s\n",
                 value.c_str(), opt.c_str(), why);
    std::fprintf(stderr, "run 'swex_cli --help' for usage\n");
    std::exit(2);
}

/** Parse a whole string as a bounded non-negative integer. */
int
parseCount(const std::string &opt, const std::string &value, int lo,
           int hi)
{
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        badValue(opt, value, "not an integer");
    if (errno == ERANGE || v < lo || v > hi) {
        badValue(opt, value,
                 strfmt("must be in [%d, %d]", lo, hi).c_str());
    }
    return static_cast<int>(v);
}

/** Parse a whole string as an unsigned 64-bit integer. */
std::uint64_t
parseU64(const std::string &opt, const std::string &value)
{
    if (!value.empty() && value[0] == '-')
        badValue(opt, value, "must be non-negative");
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        badValue(opt, value, "not an integer");
    if (errno == ERANGE)
        badValue(opt, value, "out of range");
    return static_cast<std::uint64_t>(v);
}

void
usage()
{
    std::printf(
        "swex_cli -- software-extended shared memory experiment "
        "driver\n\n"
        "  --app <name>       worker|tsp|aq|smgrid|evolve|mp3d|water\n"
        "  --nodes <n>        machine size (default 16, max 256)\n"
        "  --protocol <p>     h0|h1ack|h1lack|h1|h2|h3|h4|h5|dir1sw|"
        "full (default h5);\n"
        "                     mesi|moesi|mesif|dragon select the\n"
        "                     snooping-bus machine model instead of\n"
        "                     the directory spectrum\n"
        "  --bus <a>          fifo|rr bus arbitration (snooping "
        "machine\n"
        "                     model only; default fifo)\n"
        "  --profile <p>      c|asm handler cost profile (default c)\n"
        "  --victim <n>       victim cache entries (default 6)\n"
        "  --param <k=v>      app parameter (repeatable; see --list)\n"
        "  --wss <n>          WORKER worker-set size (= --param wss=n)\n"
        "  --iters <n>        WORKER iterations (= --param "
        "iterations=n)\n"
        "  --seed <n>         machine RNG seed (default 12345)\n"
        "  --audit            attach the coherence invariant auditor\n"
        "  --jitter <c>       network jitter stressor: up to c extra\n"
        "                     cycles of delivery delay per message\n"
        "  --jitter-seed <n>  seed the jitter stream separately from\n"
        "                     the machine seed (stress replay lines\n"
        "                     use this; 0 = reuse --seed)\n"
        "  --faults <d[,u[,b]]>  adversarial fault injection: drop,\n"
        "                     duplicate, blackout rates in per mille\n"
        "                     per wire transmission; the recoverable\n"
        "                     delivery layer hides the faults from the\n"
        "                     protocol (0,0,0 = off, clean path exact)\n"
        "  --fault-seed <n>   seed the fault stream separately from\n"
        "                     --seed (0 = reuse --seed)\n"
        "  --deadline <c>     per-run simulated-cycle budget; a run\n"
        "                     that exceeds it is recorded as a\n"
        "                     structured failure instead of aborting\n"
        "                     (default 50000000 when --faults is on)\n"
        "  --sweep            run the whole protocol spectrum instead\n"
        "                     of one --protocol (grid: spectrum x\n"
        "                     --seeds jitter seeds)\n"
        "  --seeds <n>        jitter seeds per spectrum point in\n"
        "                     --sweep (default 1, first = "
        "--jitter-seed)\n"
        "  --jobs <n>         concurrent --sweep runs on host threads\n"
        "                     (default 1; records are identical at\n"
        "                     any value)\n"
        "  --perfect-ifetch   one-cycle instruction fetch\n"
        "  --no-local-bit     disable the one-bit local pointer\n"
        "  --parallel-inv     Section 7 parallel invalidation\n"
        "  --record           capture the run's op streams into the\n"
        "                     trace cache (--trace-dir or\n"
        "                     $SWEX_TRACE_CACHE) for later --replay\n"
        "  --replay           drive the machine from a recorded trace\n"
        "                     instead of executing the app: identical\n"
        "                     cycle counts, still fully simulated\n"
        "                     (0.9-1.1x direct speed on WORKER\n"
        "                     sweeps); with --sweep, records each\n"
        "                     portable trace once and replays every\n"
        "                     cell from it. A repeated sweep is fast\n"
        "                     with --cache-dir, not --replay\n"
        "  --trace-dir <path> trace cache directory (default\n"
        "                     $SWEX_TRACE_CACHE)\n"
        "  --cache-dir <path> content-addressed result cache: warm\n"
        "                     cells are served from disk instead of\n"
        "                     simulated, and finished direct runs are\n"
        "                     stored back (default $SWEX_RESULT_CACHE;\n"
        "                     records are byte-identical either way)\n"
        "  --cache-max-bytes <n>   bound the result cache (0 =\n"
        "                     unbounded): stores evict least-recently-\n"
        "                     used entries by mtime until it fits\n"
        "  --cache-max-entries <n> same bound, counted in entries\n"
        "  --serve <socket>   serve experiments over a Unix socket\n"
        "                     speaking line-delimited JSON: cache hits\n"
        "                     answer immediately, misses run on --jobs\n"
        "                     workers and stream back as they land;\n"
        "                     concurrent clients share the pool\n"
        "                     (ops: run, sweep, stats, shutdown)\n"
        "  --serve-tcp <h:p>  also (or only) listen on TCP host:port\n"
        "                     (port 0 = ephemeral); combinable with\n"
        "                     --serve, same protocol on both\n"
        "  --serve-backlog <n> listen(2) backlog (default 64)\n"
        "  --serve-max-queue <n> admission bound in work units (runs +\n"
        "                     sweep cells); excess is shed with a\n"
        "                     structured busy error and retry_after_ms\n"
        "                     hint (default 4096, 0 = unbounded)\n"
        "  --serve-idle-ms <n> close connections idle this long with\n"
        "                     no outstanding work (default 0 = never)\n"
        "  --connect <addr>   run remotely against a server instead of\n"
        "                     simulating locally: a path is a Unix\n"
        "                     socket, host:port is TCP. Retries with\n"
        "                     seeded exponential backoff, honors busy\n"
        "                     hints, and resumes interrupted --sweep\n"
        "                     chunks from the first missing cell\n"
        "  --rpc-deadline <ms> per-response deadline for --connect\n"
        "                     (default 30000)\n"
        "  --rpc-attempts <n> retry budget for --connect (default 5;\n"
        "                     any received line resets it)\n"
        "  --chunk <n>        cells per --connect sweep chunk request\n"
        "                     (default 4096 = the server max)\n"
        "  --seq              also run the sequential reference and\n"
        "                     report speedup\n"
        "  --stats            dump the full statistics tree\n"
        "  --json <path>      write the run record(s) as a "
        "swex-run-v1 document\n"
        "  --list             list apps and protocols and exit\n");
}

/** Parse "--faults d[,u[,b]]" (per-mille rates) into @p spec. */
void
parseFaults(const std::string &value, ExperimentSpec &spec)
{
    unsigned rates[3] = {0, 0, 0};
    std::size_t pos = 0;
    for (int k = 0;; ++k) {
        if (k == 3)
            badValue("--faults", value, "at most three rates");
        std::size_t comma = value.find(',', pos);
        rates[k] = static_cast<unsigned>(parseCount(
            "--faults", value.substr(pos, comma - pos), 0, 1000));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    spec.faultDropPerMille = rates[0];
    spec.faultDupPerMille = rates[1];
    spec.faultBlackoutPerMille = rates[2];
}

/**
 * One self-contained command line that reproduces @p sp exactly:
 * every determinism-relevant knob is spelled out, so a failure line
 * pasted from a sweep replays the same simulation at any --jobs.
 */
std::string
replayLine(const ExperimentSpec &sp, const std::string &proto_key,
           bool local_bit_off)
{
    std::string s = strfmt("swex_cli --app %s --nodes %d --protocol "
                           "%s --victim %u --seed %llu",
                           sp.app.c_str(), sp.nodes, proto_key.c_str(),
                           sp.victimEntries,
                           static_cast<unsigned long long>(sp.seed));
    if (sp.profile == HandlerProfile::TunedAsm)
        s += " --profile asm";
    for (const auto &[k, v] : sp.params)
        s += strfmt(" --param %s=%s", k.c_str(), v.c_str());
    if (sp.jitterMax != 0) {
        s += strfmt(" --jitter %llu --jitter-seed %llu",
                    static_cast<unsigned long long>(sp.jitterMax),
                    static_cast<unsigned long long>(
                        sp.jitterSeed != 0 ? sp.jitterSeed : sp.seed));
    }
    if (sp.faultDropPerMille != 0 || sp.faultDupPerMille != 0 ||
        sp.faultBlackoutPerMille != 0) {
        s += strfmt(" --faults %u,%u,%u --fault-seed %llu",
                    sp.faultDropPerMille, sp.faultDupPerMille,
                    sp.faultBlackoutPerMille,
                    static_cast<unsigned long long>(
                        sp.faultSeed != 0 ? sp.faultSeed : sp.seed));
    }
    if (sp.deadline != 0)
        s += strfmt(" --deadline %llu",
                    static_cast<unsigned long long>(sp.deadline));
    if (sp.perfectIfetch)
        s += " --perfect-ifetch";
    if (local_bit_off)
        s += " --no-local-bit";
    if (sp.parallelInv)
        s += " --parallel-inv";
    if (sp.audit)
        s += " --audit";
    return s;
}

void
listEverything()
{
    std::printf("applications:\n");
    std::printf("  %-10s %-9s %-16s %s\n", "name", "portable",
                "machine models", "summary");
    for (const std::string &name : AppRegistry::instance().names()) {
        const auto &e = AppRegistry::instance().entry(name);
        std::printf("  %-10s %-9s %-16s %s\n", name.c_str(),
                    e.tracePortable ? "yes" : "no",
                    e.machineModels.c_str(), e.summary.c_str());
    }
    std::printf("\ndirectory protocols (--protocol):\n");
    for (const auto &pt : protocolSpectrum())
        std::printf("  %-10s %-10s %s\n", spectrumKey(pt.label).c_str(),
                    pt.label.c_str(), pt.protocol.name().c_str());
    std::printf("\nsnooping protocols (--protocol, shared-bus "
                "machine model):\n");
    std::printf("  %-10s invalidate-based; E for private clean "
                "lines\n", "mesi");
    std::printf("  %-10s invalidate-based; O supplies dirty-shared "
                "data\n", "moesi");
    std::printf("  %-10s invalidate-based; F designates the clean "
                "forwarder\n", "mesif");
    std::printf("  %-10s update-based; shared writes broadcast the "
                "word\n", "dragon");
}

/** The handful of record fields the remote front end reports. */
struct RemoteRec
{
    std::uint64_t cycles = 0;
    bool verified = false;
    std::string status = "?";
};

bool
parseRemoteRecord(const std::string &record_json, RemoteRec &out)
{
    wire::JsonParser p(record_json);
    wire::JsonValue v;
    if (!p.parseWhole(v) || v.kind != wire::JsonValue::Kind::Object)
        return false;
    if (const wire::JsonValue *c = v.find("sim_cycles"))
        wire::numberAsU64(*c, out.cycles);
    if (const wire::JsonValue *ve = v.find("verified"))
        out.verified =
            ve->kind == wire::JsonValue::Kind::Bool && ve->boolean;
    if (const wire::JsonValue *s = v.find("status"))
        if (s->kind == wire::JsonValue::Kind::String)
            out.status = s->raw;
    return true;
}

/** The raw record-object bytes out of a response line (substring,
 *  not re-render, so --json writes exactly what the server sent). */
bool
extractRecord(const std::string &line, std::string &out)
{
    const std::string key = "\"record\":";
    std::size_t at = line.find(key);
    if (at == std::string::npos || line.empty() || line.back() != '}')
        return false;
    out = line.substr(at + key.size(),
                      line.size() - 1 - (at + key.size()));
    return true;
}

/** Wrap remotely-fetched records in the swex-run-v1 envelope. */
bool
writeRemoteJson(const std::string &path,
                const std::vector<std::string> &records)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"schema\":\"swex-run-v1\",\"records\":[\n");
    for (std::size_t i = 0; i < records.size(); ++i)
        std::fprintf(f, "%s%s\n", records[i].c_str(),
                     i + 1 < records.size() ? "," : "");
    std::fprintf(f, "]}\n");
    bool ok = std::fclose(f) == 0;
    return ok;
}

/** A swex-run-v1 record for a remote request that never produced
 *  one: status "error" plus the structured error_kind (the server's
 *  taxonomy, or the client-local "transport"/"deadline"), so
 *  tools/triage_failures.py can cluster serve-side failures next to
 *  simulator stalls. */
std::string
remoteFailureRecord(const ExperimentSpec &spec,
                    const std::string &proto, const std::string &error,
                    const std::string &kind)
{
    std::string r = "{\"id\":\"" + wire::jsonEscape(spec.id) + "\"";
    r += ",\"app\":\"" + wire::jsonEscape(spec.app) + "\"";
    r += ",\"protocol\":\"" + wire::jsonEscape(proto) + "\"";
    r += ",\"nodes\":" + std::to_string(spec.nodes);
    r += ",\"status\":\"error\"";
    r += ",\"error\":\"" + wire::jsonEscape(error) + "\"";
    r += ",\"error_kind\":\"" +
         wire::jsonEscape(kind.empty() ? "transport" : kind) + "\"}";
    return r;
}

/**
 * Build the shared part of a remote request from the CLI options.
 * Returns the object *without* its closing brace so the caller can
 * splice op-specific fields (grid, jitter_seed). canonical:true keeps
 * the returned records deterministic (host wall time zeroed), so
 * remote output is byte-comparable across runs and servers.
 */
std::string
remoteRequest(const char *op, const ExperimentSpec &spec,
              const std::string &proto, const std::string &bus,
              bool include_protocol)
{
    std::string r = std::string("{\"op\":\"") + op + "\"";
    r += ",\"app\":\"" + wire::jsonEscape(spec.app) + "\"";
    r += ",\"nodes\":" + std::to_string(spec.nodes);
    if (include_protocol)
        r += ",\"protocol\":\"" + wire::jsonEscape(proto) + "\"";
    if (!bus.empty())
        r += ",\"bus\":\"" + wire::jsonEscape(bus) + "\"";
    if (spec.profile == HandlerProfile::TunedAsm)
        r += ",\"profile\":\"asm\"";
    r += ",\"victim\":" + std::to_string(spec.victimEntries);
    r += ",\"seed\":" + std::to_string(spec.seed);
    if (!spec.params.empty()) {
        r += ",\"params\":{";
        bool first = true;
        for (const auto &[k, v] : spec.params) {
            if (!first)
                r += ",";
            first = false;
            r += "\"" + wire::jsonEscape(k) + "\":\"" +
                 wire::jsonEscape(v) + "\"";
        }
        r += "}";
    }
    if (spec.audit)
        r += ",\"audit\":true";
    if (spec.jitterMax != 0)
        r += ",\"jitter\":" +
             std::to_string(static_cast<unsigned long long>(
                 spec.jitterMax));
    if (spec.faultDropPerMille != 0)
        r += ",\"fault_drop\":" +
             std::to_string(spec.faultDropPerMille);
    if (spec.faultDupPerMille != 0)
        r += ",\"fault_dup\":" + std::to_string(spec.faultDupPerMille);
    if (spec.faultBlackoutPerMille != 0)
        r += ",\"fault_blackout\":" +
             std::to_string(spec.faultBlackoutPerMille);
    if (spec.faultSeed != 0)
        r += ",\"fault_seed\":" + std::to_string(spec.faultSeed);
    if (spec.deadline != 0)
        r += ",\"deadline\":" +
             std::to_string(static_cast<unsigned long long>(
                 spec.deadline));
    r += ",\"canonical\":true";
    return r;
}

/**
 * The --connect front end: the same option surface, executed by a
 * server instead of the local simulator. Knobs that only the local
 * machine honors (trace record/replay, --seq, --stats, structural
 * protocol edits) are usage errors, not silent no-ops.
 */
int
remoteMain(const std::string &addr, const ExperimentSpec &spec,
           const std::string &proto, const std::string &bus,
           bool want_sweep, int sweep_seeds, bool record_replay,
           bool seq_stats, bool local_bit_off,
           const std::string &json_path, int deadline_ms,
           int attempts, int chunk_cells)
{
    auto usageError = [](const std::string &msg) {
        std::fprintf(stderr, "swex_cli: %s\n", msg.c_str());
        std::fprintf(stderr, "run 'swex_cli --help' for usage\n");
        std::exit(2);
    };
    if (record_replay)
        usageError("--record/--replay drive the local trace cache; "
                   "drop them for --connect");
    if (seq_stats)
        usageError("--seq and --stats need the local simulator; drop "
                   "them for --connect");
    if (local_bit_off || spec.perfectIfetch || spec.parallelInv)
        usageError("--no-local-bit/--perfect-ifetch/--parallel-inv "
                   "are not in the serve protocol; run locally");

    client::ClientConfig ccfg;
    ccfg.address = addr;
    ccfg.requestDeadlineMs = deadline_ms;
    ccfg.maxAttempts = static_cast<unsigned>(attempts);
    ccfg.backoffSeed = spec.seed;
    ccfg.chunk = static_cast<std::size_t>(chunk_cells);
    client::ServeClient cli(ccfg);

    if (!want_sweep) {
        std::string req = remoteRequest("run", spec, proto, bus,
                                        /*include_protocol=*/true);
        if (spec.jitterSeed != 0)
            req += ",\"jitter_seed\":" +
                   std::to_string(spec.jitterSeed);
        req += "}";
        client::Response resp = cli.rpcRetry(req);
        if (!resp.ok) {
            std::fprintf(stderr,
                         "swex_cli: remote run failed (%s): %s\n",
                         resp.errorKind.c_str(), resp.error.c_str());
            if (!json_path.empty())
                writeRemoteJson(json_path,
                                {remoteFailureRecord(spec, proto,
                                                     resp.error,
                                                     resp.errorKind)});
            return 1;
        }
        std::string record;
        RemoteRec rec;
        if (!extractRecord(resp.line, record) ||
            !parseRemoteRecord(record, rec)) {
            std::fprintf(stderr,
                         "swex_cli: malformed remote response\n");
            return 1;
        }
        std::string source = "?";
        if (const wire::JsonValue *s = resp.doc.find("source"))
            if (s->kind == wire::JsonValue::Kind::String)
                source = s->raw;
        std::printf("remote run via %s: source=%s\n", addr.c_str(),
                    source.c_str());
        std::printf("run time: %llu cycles (%.3f s at 33 MHz)\n",
                    static_cast<unsigned long long>(rec.cycles),
                    static_cast<double>(rec.cycles) / 33.0e6);
        if (rec.status != "ok")
            std::printf("status: %s\n", rec.status.c_str());
        else
            std::printf("verification: %s\n",
                        rec.verified ? "PASSED" : "FAILED");
        bool json_ok = true;
        if (!json_path.empty()) {
            json_ok = writeRemoteJson(json_path, {record});
            if (!json_ok)
                std::fprintf(stderr, "error: could not write %s\n",
                             json_path.c_str());
        }
        return rec.status == "ok" && rec.verified && json_ok ? 0 : 1;
    }

    SnoopProtocol sp{};
    if (parseSnoopProtocol(proto, sp))
        usageError("--sweep walks the directory protocol spectrum; "
                   "snooping protocols have no remote sweep grid");
    // Same grid the local sweep runs: spectrum x jitter seeds,
    // expressed as a server-side sweep so warm cells never leave the
    // server's cache and resumes survive connection loss.
    std::uint64_t seed0 =
        spec.jitterSeed != 0 ? spec.jitterSeed : spec.seed;
    std::string base = remoteRequest("sweep", spec, proto, bus,
                                     /*include_protocol=*/false);
    base += ",\"grid\":{\"protocol\":[";
    {
        bool first = true;
        for (const auto &pt : protocolSpectrum()) {
            if (!first)
                base += ",";
            first = false;
            base += "\"" + spectrumKey(pt.label) + "\"";
        }
    }
    base += "],\"jitter_seed\":[";
    for (int s = 0; s < sweep_seeds; ++s) {
        if (s != 0)
            base += ",";
        base += std::to_string(seed0 + static_cast<std::uint64_t>(s));
    }
    base += "]}}";

    std::printf("remote sweep via %s: app=%s nodes=%d victim=%u "
                "(%zu points x %d seeds, chunk %d)\n",
                addr.c_str(), spec.app.c_str(), spec.nodes,
                spec.victimEntries, protocolSpectrum().size(),
                sweep_seeds, chunk_cells);

    client::SweepResult res = cli.runSweep(base);
    if (!res.ok) {
        std::fprintf(stderr,
                     "swex_cli: remote sweep failed (%s): %s\n",
                     res.errorKind.c_str(), res.error.c_str());
        if (!json_path.empty())
            writeRemoteJson(json_path,
                            {remoteFailureRecord(spec, proto,
                                                 res.error,
                                                 res.errorKind)});
        return 1;
    }

    bool all_ok = true;
    std::size_t i = 0;
    for (const auto &pt : protocolSpectrum()) {
        int ok = 0;
        RemoteRec first;
        for (int s = 0; s < sweep_seeds && i < res.records.size();
             ++s, ++i) {
            RemoteRec rec;
            if (parseRemoteRecord(res.records[i], rec) &&
                rec.status == "ok" && rec.verified) {
                ++ok;
            } else {
                all_ok = false;
            }
            if (s == 0)
                parseRemoteRecord(res.records[i], first);
        }
        std::printf("  %-10s %3d/%d ok  s0: %llu cycles\n",
                    pt.label.c_str(), ok, sweep_seeds,
                    static_cast<unsigned long long>(first.cycles));
    }
    if (res.reconnects != 0 || res.duplicates != 0)
        std::printf("  (resumed: %u reconnects, %u duplicate "
                    "cells)\n", res.reconnects, res.duplicates);

    bool json_ok = true;
    if (!json_path.empty()) {
        json_ok = writeRemoteJson(json_path, res.records);
        if (!json_ok)
            std::fprintf(stderr, "error: could not write %s\n",
                         json_path.c_str());
    }
    return all_ok && json_ok ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    ExperimentSpec spec;
    spec.id = "cli";
    spec.nodes = 16;
    spec.victimEntries = 6;
    std::string proto = "h5";
    std::string bus;
    bool local_bit_off = false;
    bool want_record = false;
    bool want_replay = false;
    bool want_seq = false;
    bool want_stats = false;
    bool want_sweep = false;
    int sweep_seeds = 1;
    unsigned jobs = 1;
    std::string json_path;
    std::string cache_dir;
    std::uint64_t cache_max_bytes = 0;
    std::uint64_t cache_max_entries = 0;
    std::string serve_socket;
    std::string serve_tcp;
    int serve_backlog = 64;
    std::uint64_t serve_max_queue = 4096;
    int serve_idle_ms = 0;
    std::string connect_addr;
    int rpc_deadline_ms = 30'000;
    int rpc_attempts = 5;
    int chunk_cells = 4096;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", a.c_str());
            return argv[++i];
        };
        if (a == "--app") spec.app = next();
        else if (a == "--nodes")
            spec.nodes = parseCount(a, next(), 1, maxNodes);
        else if (a == "--protocol") proto = next();
        else if (a == "--bus") bus = next();
        else if (a == "--profile") {
            std::string p = next();
            if (p != "c" && p != "asm")
                badValue(a, p, "expected c or asm");
            spec.profile = p == "asm" ? HandlerProfile::TunedAsm
                                      : HandlerProfile::FlexibleC;
        }
        else if (a == "--victim")
            spec.victimEntries = static_cast<unsigned>(
                parseCount(a, next(), 0, 4096));
        else if (a == "--param") {
            std::string kv = next();
            std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                fatal("--param wants key=value, got '%s'", kv.c_str());
            spec.params[kv.substr(0, eq)] = kv.substr(eq + 1);
        }
        else if (a == "--wss") spec.params["wss"] = next();
        else if (a == "--iters") spec.params["iterations"] = next();
        else if (a == "--seed")
            spec.seed = parseU64(a, next());
        else if (a == "--audit") spec.audit = true;
        else if (a == "--jitter")
            spec.jitterMax = static_cast<Cycles>(
                parseCount(a, next(), 0, 1 << 20));
        else if (a == "--jitter-seed")
            spec.jitterSeed = parseU64(a, next());
        else if (a == "--faults") parseFaults(next(), spec);
        else if (a == "--fault-seed")
            spec.faultSeed = parseU64(a, next());
        else if (a == "--deadline")
            spec.deadline = static_cast<Tick>(parseU64(a, next()));
        else if (a == "--record") want_record = true;
        else if (a == "--replay") want_replay = true;
        else if (a == "--trace-dir") spec.traceDir = next();
        else if (a == "--cache-dir") cache_dir = next();
        else if (a == "--cache-max-bytes")
            cache_max_bytes = parseU64(a, next());
        else if (a == "--cache-max-entries")
            cache_max_entries = parseU64(a, next());
        else if (a == "--serve") serve_socket = next();
        else if (a == "--serve-tcp") serve_tcp = next();
        else if (a == "--serve-backlog")
            serve_backlog = parseCount(a, next(), 1, 65535);
        else if (a == "--serve-max-queue")
            serve_max_queue = parseU64(a, next());
        else if (a == "--serve-idle-ms")
            serve_idle_ms = parseCount(a, next(), 0, 86'400'000);
        else if (a == "--connect") connect_addr = next();
        else if (a == "--rpc-deadline")
            rpc_deadline_ms = parseCount(a, next(), 1, 86'400'000);
        else if (a == "--rpc-attempts")
            rpc_attempts = parseCount(a, next(), 1, 1000);
        else if (a == "--chunk")
            chunk_cells = parseCount(a, next(), 1, 4096);
        else if (a == "--sweep") want_sweep = true;
        else if (a == "--seeds")
            sweep_seeds = parseCount(a, next(), 1, 1'000'000);
        else if (a == "--jobs")
            jobs = static_cast<unsigned>(parseCount(a, next(), 1, 256));
        else if (a == "--perfect-ifetch") spec.perfectIfetch = true;
        else if (a == "--no-local-bit") local_bit_off = true;
        else if (a == "--parallel-inv") spec.parallelInv = true;
        else if (a == "--seq") want_seq = true;
        else if (a == "--stats") want_stats = true;
        else if (a == "--json") json_path = next();
        else if (a == "--list") {
            listEverything();
            return 0;
        } else {
            usage();
            return a == "--help" || a == "-h" ? 0 : 1;
        }
    }

    // --serve is its own front end: the spec comes per request over
    // the socket, so every other positional knob is ignored. Only
    // --jobs (worker pool size), the cache knobs, and the serve
    // robustness knobs travel with it.
    if (!serve_socket.empty() || !serve_tcp.empty()) {
        setQuiet(true);
        serve::ServeConfig scfg;
        scfg.socketPath = serve_socket;
        scfg.tcpHostPort = serve_tcp;
        scfg.cacheDir = cache::resolveCacheDir(cache_dir);
        scfg.jobs = jobs;
        scfg.cacheMaxBytes = cache_max_bytes;
        scfg.cacheMaxEntries = cache_max_entries;
        scfg.backlog = serve_backlog;
        scfg.maxQueuedUnits = serve_max_queue;
        scfg.idleTimeoutMs = serve_idle_ms;
        // The CLI owns the process, so SIGTERM means "drain and
        // exit 0" (embedders of serveLoop opt in explicitly).
        scfg.handleSignals = true;
        return serve::serveLoop(scfg);
    }

    if (!connect_addr.empty())
        return remoteMain(connect_addr, spec, proto, bus, want_sweep,
                          sweep_seeds, want_record || want_replay,
                          want_seq || want_stats, local_bit_off,
                          json_path, rpc_deadline_ms, rpc_attempts,
                          chunk_cells);

    SnoopProtocol snoop_proto{};
    const bool snoop = parseSnoopProtocol(proto, snoop_proto);
    if (snoop) {
        // Directory knobs (spec.protocol, victim cache, local bit)
        // stay at their defaults and are inert on the bus machine.
        spec.machineModel = MachineModel::Snoop;
        spec.snoopProtocol = snoop_proto;
    } else if (parseSpectrumKey(proto, spec.protocol)) {
        if (local_bit_off)
            spec.protocol.localBit = false;
    } else {
        badValue("--protocol", proto, "unknown protocol (try --list)");
    }
    if (!bus.empty() && !parseBusArbitration(bus, spec.busArbitration))
        badValue("--bus", bus, "expected fifo or rr");
    if (!AppRegistry::instance().contains(spec.app))
        fatal("unknown app '%s' (try --list)", spec.app.c_str());

    // Record/replay plumbing. Misuse is a usage error (exit 2), per
    // the CLI convention for malformed invocations: the run never
    // starts, and the message says exactly how to fix the call.
    auto usageError = [](const std::string &msg) {
        std::fprintf(stderr, "swex_cli: %s\n", msg.c_str());
        std::fprintf(stderr, "run 'swex_cli --help' for usage\n");
        std::exit(2);
    };
    if (want_record && want_replay)
        usageError("--record and --replay are mutually exclusive");
    if (want_record)
        spec.execMode = ExecutionMode::Record;
    if (want_replay)
        spec.execMode = ExecutionMode::Replay;
    if (spec.execMode != ExecutionMode::Direct &&
        trace::resolveTraceDir(spec.traceDir).empty()) {
        usageError(std::string(want_record ? "--record" : "--replay") +
                   " needs a trace cache: pass --trace-dir or set "
                   "$SWEX_TRACE_CACHE");
    }
    if (want_replay && want_seq)
        usageError("--replay runs one recorded kernel; drop --seq "
                   "(record and replay the sequential reference via "
                   "--seq --record / a sequential spec instead)");
    const bool faults_on = spec.faultDropPerMille != 0 ||
                           spec.faultDupPerMille != 0 ||
                           spec.faultBlackoutPerMille != 0;
    // The snooping machine model carries coherence on a lossless
    // shared bus: there is no network to jitter or fault, and the
    // --sweep grid is the directory spectrum by definition.
    if (snoop && want_sweep) {
        usageError("--sweep walks the directory protocol spectrum; "
                   "sweep the snooping grid with 'stress_protocols "
                   "--family snoop' instead");
    }
    if (snoop && (spec.jitterMax != 0 || faults_on)) {
        usageError("the snooping bus models no interconnection "
                   "network; drop --jitter/--faults (directory "
                   "machine model only)");
    }
    if (!snoop && !bus.empty()) {
        usageError("--bus applies to the snooping machine model "
                   "only (pick --protocol mesi|moesi|mesif|dragon)");
    }
    // Fault injection can legitimately livelock a run (every
    // retransmission re-dropped); never run it without a deadline.
    if (faults_on && spec.deadline == 0)
        spec.deadline = 50'000'000;

    // After every config default is in force (the deadline is part of
    // the machine fingerprint): a --replay with no usable trace must
    // fail before the run starts, with the reason and the fix.
    if (want_replay && !want_sweep) {
        trace::Trace probe;
        std::string err = Runner::findReplayTrace(spec, probe);
        if (!err.empty()) {
            usageError("--replay: no usable recorded trace: " + err +
                       " (record one first with the same --app/--param/"
                       "--nodes and --record)");
        }
    }

    setQuiet(true);

    // The content-addressed result cache (tentpole of the sweep
    // tier): warm cells skip simulation, finished direct cells are
    // stored back. The emitted records are byte-identical with the
    // cache on, off, cold, or warm — it only changes how fast they
    // arrive.
    std::unique_ptr<cache::ResultCache> result_cache;
    {
        std::string cdir = cache::resolveCacheDir(cache_dir);
        if (!cdir.empty()) {
            cache::ResultCache::Budget budget;
            budget.maxBytes = cache_max_bytes;
            budget.maxEntries = cache_max_entries;
            result_cache = std::make_unique<cache::ResultCache>(
                cdir, cache::CodeVersions::current(), budget);
        }
    }

    if (want_sweep) {
        // Grid: every spectrum point x sweep_seeds jitter seeds, run
        // through Runner::runAll. Records land in the log in spec
        // order regardless of --jobs, so the summary, the emitted
        // swex-run-v1 document, and the exit code are identical at
        // any concurrency.
        std::uint64_t seed0 = spec.jitterSeed != 0 ? spec.jitterSeed
                                                   : spec.seed;
        std::uint64_t fseed0 = spec.faultSeed != 0 ? spec.faultSeed
                                                   : spec.seed;
        std::vector<ExperimentSpec> specs;
        for (const auto &pt : protocolSpectrum()) {
            for (int s = 0; s < sweep_seeds; ++s) {
                ExperimentSpec sp = spec;
                sp.protocol = pt.protocol;
                if (local_bit_off)
                    sp.protocol.localBit = false;
                sp.jitterSeed = seed0 + static_cast<std::uint64_t>(s);
                if (faults_on) {
                    sp.faultSeed =
                        fseed0 + static_cast<std::uint64_t>(s);
                }
                sp.id = strfmt("sweep/%s/s%llu", pt.label.c_str(),
                               static_cast<unsigned long long>(
                                   sp.jitterSeed));
                specs.push_back(std::move(sp));
            }
        }

        std::printf("sweep: app=%s nodes=%d victim=%u jitter=%llu "
                    "(%zu points x %d seeds, --jobs %u)\n",
                    spec.app.c_str(), spec.nodes, spec.victimEntries,
                    static_cast<unsigned long long>(spec.jitterMax),
                    specs.size() / static_cast<std::size_t>(sweep_seeds),
                    sweep_seeds, jobs);

        // --replay/--record engage record-once sweeps: each portable
        // trace key records one cell, every other cell replays it;
        // non-portable apps fall back to direct cells.
        Runner runner(/*fail_fast=*/false);
        runner.attachCache(result_cache.get());
        std::vector<RunRecord *> recs =
            want_replay || want_record
                ? runner.runAllReplay(specs, jobs, spec.traceDir)
                : runner.runAll(specs, jobs);

        bool all_ok = true;
        std::size_t i = 0;
        for (const auto &pt : protocolSpectrum()) {
            int ok = 0;
            const RunRecord *first = recs[i];
            const std::size_t base = i;
            for (int s = 0; s < sweep_seeds; ++s, ++i) {
                const RunRecord *r = recs[i];
                if (!r->failed() && r->verified &&
                    r->auditViolations == 0) {
                    ++ok;
                } else {
                    all_ok = false;
                }
            }
            std::printf("  %-10s %3d/%d ok  s0: %llu cycles, image "
                        "%016llx\n",
                        pt.label.c_str(), ok, sweep_seeds,
                        static_cast<unsigned long long>(
                            first->simCycles),
                        static_cast<unsigned long long>(
                            first->imageHash));
            // One replay line per failing cell: every determinism
            // knob spelled out, so the cell reruns exactly, alone,
            // at any --jobs level.
            for (int s = 0; s < sweep_seeds; ++s) {
                const RunRecord *r = recs[base + s];
                if (!r->failed() && r->verified &&
                    r->auditViolations == 0) {
                    continue;
                }
                std::printf("    FAIL %s: status=%s verified=%s "
                            "violations=%llu last_progress=%llu\n",
                            r->id.c_str(), r->status.c_str(),
                            r->verified ? "yes" : "no",
                            static_cast<unsigned long long>(
                                r->auditViolations),
                            static_cast<unsigned long long>(
                                r->lastProgress));
                std::printf("      replay: %s\n",
                            replayLine(specs[base + s],
                                       spectrumKey(pt.label),
                                       local_bit_off).c_str());
            }
        }

        bool json_ok = true;
        if (!json_path.empty()) {
            json_ok = runner.log().writeFile(json_path);
            if (!json_ok)
                std::fprintf(stderr, "error: could not write %s\n",
                             json_path.c_str());
        }
        bool emit_ok = runner.emitRecords();
        return all_ok && json_ok && emit_ok ? 0 : 1;
    }

    if (snoop) {
        std::printf("app=%s nodes=%d machine=snoop protocol=%s "
                    "bus=%s\n",
                    spec.app.c_str(), spec.nodes,
                    snoopProtocolName(spec.snoopProtocol),
                    busArbitrationName(spec.busArbitration));
    } else {
        std::printf("app=%s nodes=%d protocol=%s profile=%s "
                    "victim=%u\n",
                    spec.app.c_str(), spec.nodes,
                    spec.protocol.name().c_str(),
                    spec.profile == HandlerProfile::TunedAsm ? "asm"
                                                             : "C",
                    spec.victimEntries);
    }

    Runner runner(/*fail_fast=*/false);
    runner.attachCache(result_cache.get());
    RunRecord &r = runner.run(spec);
    if (want_stats)
        std::cout << r.statsText;

    if (want_seq) {
        ExperimentSpec seq_spec = spec;
        seq_spec.id = "cli/seq";
        RunRecord &s = runner.runSequential(seq_spec);
        r.seqCycles = static_cast<double>(s.simCycles);
        r.speedup = static_cast<double>(s.simCycles) /
                    static_cast<double>(r.simCycles);
        std::printf("sequential: %llu cycles; speedup %.2f\n",
                    static_cast<unsigned long long>(s.simCycles),
                    r.speedup);
    }

    std::printf("run time: %llu cycles (%.3f s at 33 MHz)\n",
                static_cast<unsigned long long>(r.simCycles),
                static_cast<double>(r.simCycles) / 33.0e6);
    std::printf("traps: %.0f; handler cycles: %.0f; messages: %.0f\n",
                r.trapsRaised, r.handlerCycles, r.messages);
    if (r.failed()) {
        std::printf("status: %s (last progress at tick %llu)\n",
                    r.status.c_str(),
                    static_cast<unsigned long long>(r.lastProgress));
        if (!r.stallSummary.empty())
            std::printf("%s", r.stallSummary.c_str());
    } else {
        std::printf("verification: %s\n",
                    r.verified ? "PASSED" : "FAILED");
    }
    if (r.audited) {
        std::printf("audit: %llu transitions checked, %llu "
                    "violations\n",
                    static_cast<unsigned long long>(r.auditTransitions),
                    static_cast<unsigned long long>(r.auditViolations));
    }

    bool json_ok = true;
    if (!json_path.empty()) {
        json_ok = runner.log().writeFile(json_path);
        if (!json_ok)
            std::fprintf(stderr, "error: could not write %s\n",
                         json_path.c_str());
    }
    bool emit_ok = runner.emitRecords();
    return !r.failed() && r.verified && json_ok && emit_ok &&
                   r.auditViolations == 0
               ? 0 : 1;
}
