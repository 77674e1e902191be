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

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"
#include "core/spectrum.hh"
#include "exp/cache/result_cache.hh"
#include "exp/client.hh"
#include "exp/runner.hh"
#include "exp/serve.hh"
#include "exp/spec_codec.hh"
#include "exp/wire_json.hh"

using namespace swex;

namespace
{

/** A malformed invocation: say why and exit 2 before anything runs. */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "swex_cli: %s\n", msg.c_str());
    std::fprintf(stderr, "run 'swex_cli --help' for usage\n");
    std::exit(2);
}

/** Parse @p value as an integer in [@p lo, @p hi], in the wire's
 *  number grammar (digits only), or exit 2. */
std::uint64_t
parseCount(const std::string &opt, const std::string &value,
           std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t n = 0;
    if (!json::parseU64(value, n) || n < lo || n > hi)
        usageError("bad value '" + value + "' for " + opt +
                   ": want an integer in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
    return n;
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
        "  --serve <socket>   serve experiments over a Unix socket\n"
        "                     speaking line-delimited JSON: cache hits\n"
        "                     answer immediately, misses run on --jobs\n"
        "                     workers and stream back as they land;\n"
        "                     concurrent clients share the pool\n"
        "                     (ops: run, sweep, stats, shutdown); to\n"
        "                     reach it from another host, forward the\n"
        "                     socket (ssh -L <local.sock>:<socket>)\n"
        "  --connect <socket> run the same cells on a --serve server\n"
        "                     (every spec flag, hardware toggles too).\n"
        "                     Retries with seeded exponential backoff,\n"
        "                     honors busy hints, and resumes\n"
        "                     interrupted --sweep chunks from the\n"
        "                     first missing cell; refuses --sweep with\n"
        "                     --faults and --seeds > 1\n"
        "  --seq              also run the sequential reference and\n"
        "                     report speedup\n"
        "  --stats            print the run's statistics tree (its\n"
        "                     record's stats object)\n"
        "  --json <path>      write the run record(s) as a "
        "swex-run-v1 document\n"
        "  --list             list apps and protocols and exit\n");
}

void
listEverything()
{
    std::printf("applications:\n");
    std::printf("  %-10s %-9s %s\n", "name", "portable", "summary");
    for (const std::string &name : AppRegistry::instance().names()) {
        const auto &e = AppRegistry::instance().entry(name);
        std::printf("  %-10s %-9s %s\n", name.c_str(),
                    e.tracePortable ? "yes" : "no", e.summary.c_str());
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
    bool ok = false;   ///< status "ok" and verified
    std::string status = "?";
    std::string image;
    std::string stats;   ///< the record's stats object, if wanted
};

bool
parseRemoteRecord(const std::string &record_json, bool want_stats,
                  RemoteRec &out)
{
    wire::JsonParser p(record_json);
    wire::JsonValue v;
    if (!p.parseWhole(v) || v.kind != wire::JsonValue::Kind::Object)
        return false;
    if (const wire::JsonValue *c = v.find("sim_cycles"))
        wire::numberAsU64(*c, out.cycles);
    if (const wire::JsonValue *s = v.find("status"))
        if (s->kind == wire::JsonValue::Kind::String)
            out.status = s->raw;
    if (const wire::JsonValue *h = v.find("image_hash"))
        out.image = h->raw;
    const wire::JsonValue *ve = v.find("verified");
    out.ok = out.status == "ok" && ve != nullptr &&
             ve->kind == wire::JsonValue::Kind::Bool && ve->boolean;
    // Numbers keep their raw tokens, so the stats object re-renders
    // to the bytes the server's record carries.
    if (const wire::JsonValue *st = v.find("stats"); want_stats && st)
        wire::renderJson(*st, out.stats);
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
    return std::fclose(f) == 0;
}

/** A swex-run-v1 record for a remote request that never produced
 *  one: status "error" plus the structured error_kind (the server's
 *  taxonomy, or the client-local "transport"/"deadline"), so
 *  tools/triage_failures.py can cluster serve-side failures next to
 *  simulator stalls. */
std::string
remoteFailureRecord(const ExperimentSpec &spec, const std::string &proto,
                    const std::string &error, const std::string &kind)
{
    std::string r = "{\"id\":";
    json::appendString(r, spec.id);
    r += ",\"app\":";
    json::appendString(r, spec.app);
    r += ",\"protocol\":";
    json::appendString(r, proto);
    r += ",\"nodes\":" + std::to_string(spec.nodes);
    r += ",\"status\":\"error\",\"error\":";
    json::appendString(r, error);
    r += ",\"error_kind\":";
    json::appendString(r, kind.empty() ? "transport" : kind);
    return r + "}";
}

/**
 * A request line for @p op: the request fields @p fields, then the
 * pre-rendered @p extra members. canonical:true keeps the returned
 * records deterministic (host wall time zeroed), so remote output is
 * byte-comparable across runs and servers.
 */
std::string
requestLine(const char *op, const codec::Request &fields,
            const std::string &extra = "")
{
    return std::string("{\"op\":\"") + op + "\",\"canonical\":true" +
           fields.members() + extra + "}";
}

/** One spectrum point's line of a sweep summary. */
void
printPoint(const std::string &label, int ok, int seeds,
           std::uint64_t cycles, const std::string &image)
{
    std::printf("  %-10s %3d/%d ok  s0: %llu cycles, image %s\n",
                label.c_str(), ok, seeds,
                static_cast<unsigned long long>(cycles), image.c_str());
}

/**
 * The --connect front end: the same cells, executed by a server
 * instead of the local simulator. A run sends the spec itself, id
 * included, so its record and cache entry equal the local run's. A
 * sweep sends the spec flags @p req plus the grid the local sweep
 * walks; the server cannot give its cells per-cell ids.
 */
int
remoteMain(client::ClientConfig ccfg, const codec::Request &req,
           const ExperimentSpec &spec, bool want_sweep, int sweep_seeds,
           bool want_stats, const std::string &json_path)
{
    const std::string &addr = ccfg.address;
    ccfg.backoffSeed = spec.seed;
    client::ServeClient cli(ccfg);
    const codec::Request fields = codec::toRequest(spec);

    bool ok = false;
    std::string error, kind;
    std::vector<std::string> records;
    if (!want_sweep) {
        client::Response resp = cli.rpcRetry(requestLine("run", fields));
        records.emplace_back();
        ok = resp.ok && client::recordBytes(resp.line, records[0]);
        error = resp.ok ? "response carried no record" : resp.error;
        kind = resp.ok ? "parse" : resp.errorKind;
        if (const wire::JsonValue *s = resp.doc.find("source"); ok && s)
            std::printf("remote run via %s: source=%s\n", addr.c_str(),
                        s->raw.c_str());
    } else {
        // Same grid the local sweep runs: spectrum x jitter seeds,
        // expressed as a server-side sweep so warm cells never leave
        // the server's cache and resumes survive connection loss.
        codec::Request base = req;
        base.set("id", spec.id);
        const std::uint64_t seed0 =
            spec.jitterSeed != 0 ? spec.jitterSeed : spec.seed;
        std::string grid = ",\"grid\":{\"protocol\":[";
        for (const char *key : spectrumKeys) {
            if (key != spectrumKeys[0])
                grid += ',';
            json::appendString(grid, key);
        }
        grid += "],\"jitter_seed\":[";
        for (int s = 0; s < sweep_seeds; ++s) {
            if (s != 0)
                grid += ',';
            grid += std::to_string(seed0 + static_cast<std::uint64_t>(s));
        }
        std::printf("remote sweep via %s: app=%s nodes=%d victim=%u "
                    "(%zu points x %d seeds, chunk %zu)\n",
                    addr.c_str(), spec.app.c_str(), spec.nodes,
                    spec.victimEntries, protocolSpectrum().size(),
                    sweep_seeds, ccfg.chunk);
        client::SweepResult res =
            cli.runSweep(requestLine("sweep", base, grid + "]}"));
        ok = res.ok;
        error = res.error;
        kind = res.errorKind;
        records = std::move(res.records);
        if (res.reconnects != 0 || res.duplicates != 0)
            std::printf("  (resumed: %u reconnects, %u duplicate "
                        "cells)\n", res.reconnects, res.duplicates);
        // The server sizes the grid; the summary below reads exactly
        // the grid this side asked for.
        const std::size_t want = protocolSpectrum().size() *
                                 static_cast<std::size_t>(sweep_seeds);
        if (ok && res.cells != want) {
            ok = false;
            error = "server answered a " + std::to_string(res.cells) +
                    "-cell grid for a " + std::to_string(want) +
                    "-cell sweep";
            kind = "parse";
        }
    }
    if (!ok) {
        std::fprintf(stderr, "swex_cli: remote %s failed (%s): %s\n",
                     want_sweep ? "sweep" : "run", kind.c_str(),
                     error.c_str());
        if (!json_path.empty()) {
            // A sweep spans the whole spectrum, so its record names no
            // one protocol; a run's names its own, as the request
            // spelled it.
            std::string proto = "spectrum";
            if (!want_sweep) {
                const std::string sent = fields.line();
                wire::JsonValue doc;
                wire::JsonParser(sent).parseWhole(doc);
                proto = doc.find("protocol")->raw;
            }
            writeRemoteJson(json_path, {remoteFailureRecord(
                                           spec, proto, error, kind)});
        }
        return 1;
    }

    std::vector<RemoteRec> recs(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (!parseRemoteRecord(records[i], want_stats && !want_sweep,
                               recs[i])) {
            std::fprintf(stderr,
                         "swex_cli: malformed remote record\n");
            return 1;
        }
    }
    bool all_ok = true;
    for (const RemoteRec &r : recs)
        all_ok = all_ok && r.ok;
    if (!want_sweep) {
        if (want_stats)
            std::printf("%s\n", recs[0].stats.c_str());
        std::printf("run time: %llu cycles (%.3f s at 33 MHz)\n",
                    static_cast<unsigned long long>(recs[0].cycles),
                    static_cast<double>(recs[0].cycles) / 33.0e6);
        if (recs[0].status != "ok")
            std::printf("status: %s\n", recs[0].status.c_str());
        else
            std::printf("verification: %s\n",
                        recs[0].ok ? "PASSED" : "FAILED");
    }
    const auto points = protocolSpectrum();
    for (std::size_t p = 0; want_sweep && p < points.size(); ++p) {
        const std::size_t first = p * static_cast<std::size_t>(sweep_seeds);
        int ok_cells = 0;
        for (int s = 0; s < sweep_seeds; ++s)
            ok_cells += recs[first + static_cast<std::size_t>(s)].ok;
        printPoint(points[p].label, ok_cells, sweep_seeds,
                   recs[first].cycles, recs[first].image);
    }

    bool json_ok = json_path.empty() || writeRemoteJson(json_path, records);
    if (!json_ok)
        std::fprintf(stderr, "error: could not write %s\n",
                     json_path.c_str());
    return all_ok && json_ok ? 0 : 1;
}

/**
 * The --sweep grid: every spectrum point x @p seeds jitter seeds.
 * Each cell is the spec flags @p req with its protocol, seeds and id
 * set, decoded like any other request. Fault injection steps the
 * fault seed with the jitter seed.
 */
std::vector<ExperimentSpec>
sweepCells(const codec::Request &req, const ExperimentSpec &spec,
           int seeds)
{
    const std::uint64_t seed0 =
        spec.jitterSeed != 0 ? spec.jitterSeed : spec.seed;
    const std::uint64_t fseed0 =
        spec.faultSeed != 0 ? spec.faultSeed : spec.seed;
    const auto points = protocolSpectrum();
    std::vector<ExperimentSpec> specs;
    for (std::size_t p = 0; p < points.size(); ++p) {
        for (int s = 0; s < seeds; ++s) {
            const std::uint64_t step = static_cast<std::uint64_t>(s);
            codec::Request cell = req;
            cell.set("protocol", spectrumKeys[p]);
            cell.set("jitter_seed", std::to_string(seed0 + step));
            if (spec.faultsOn())
                cell.set("fault_seed", std::to_string(fseed0 + step));
            cell.set("id", "sweep/" + points[p].label + "/s" +
                               std::to_string(seed0 + step));
            specs.emplace_back();
            std::string err = codec::decode(cell, "cli", specs.back());
            if (!err.empty())
                usageError(err);
        }
    }
    return specs;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    codec::Request req;   // the spec flags, as a request
    std::string trace_dir;
    bool want_record = false;
    bool want_replay = false;
    bool want_seq = false;
    bool want_stats = false;
    bool want_sweep = false;
    int sweep_seeds = 1;
    unsigned jobs = 1;
    std::string json_path;
    std::string cache_dir;
    serve::ServeConfig scfg;     // --serve
    client::ClientConfig ccfg;   // --connect

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(a + " needs a value");
            return argv[++i];
        };
        auto count = [&](std::uint64_t lo, std::uint64_t hi) {
            return parseCount(a, next(), lo, hi);
        };
        // An empty socket path would fall through to a local run.
        auto path = [&] {
            std::string p = next();
            if (p.empty())
                usageError(a + " needs a socket path");
            return p;
        };
        if (int n = codec::flagValues(a); n >= 0) {
            std::string err = codec::setFlag(req, a, n > 0 ? next() : "");
            if (!err.empty())
                usageError(err);
        }
        else if (a == "--record") want_record = true;
        else if (a == "--replay") want_replay = true;
        else if (a == "--trace-dir") trace_dir = next();
        else if (a == "--cache-dir") cache_dir = next();
        else if (a == "--serve") scfg.socketPath = path();
        else if (a == "--connect") ccfg.address = path();
        else if (a == "--sweep") want_sweep = true;
        else if (a == "--seeds")
            sweep_seeds = static_cast<int>(count(1, 1'000'000));
        else if (a == "--jobs")
            jobs = static_cast<unsigned>(count(1, 256));
        else if (a == "--seq") want_seq = true;
        else if (a == "--stats") want_stats = true;
        else if (a == "--json") json_path = next();
        else if (a == "--list") {
            listEverything();
            return 0;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            usageError("unknown option '" + a + "'");
        }
    }

    ExperimentSpec spec;
    if (std::string err = codec::decode(req, "cli", spec); !err.empty())
        usageError(err);
    if (want_seq) {
        // The sequential reference is a cell of its own, on one node.
        codec::Request seq_req = req;
        seq_req.set("seq", "true");
        ExperimentSpec seq_spec;
        if (std::string err = codec::decode(seq_req, "cli", seq_spec);
            !err.empty())
            usageError(err);
    }

    // --serve is its own front end: the spec comes per request over
    // the socket, so the spec flags are checked above and otherwise
    // ignored. Only --jobs (worker pool size) and the cache directory
    // travel with it.
    if (!scfg.socketPath.empty()) {
        setQuiet(true);
        scfg.cacheDir = cache::resolveCacheDir(cache_dir);
        scfg.jobs = jobs;
        // The CLI owns the process, so SIGTERM means "drain and
        // exit 0" (embedders of serveLoop opt in explicitly).
        scfg.handleSignals = true;
        return serve::serveLoop(scfg);
    }

    if (want_sweep && spec.machineModel == MachineModel::Snoop) {
        usageError("--sweep walks the directory protocol spectrum; "
                   "sweep the snooping grid with 'stress_protocols "
                   "--family snoop' instead");
    }

    if (!ccfg.address.empty()) {
        // Knobs that only the local machine honors are usage errors,
        // not silent no-ops.
        if (want_record || want_replay)
            usageError("--record/--replay drive the local trace cache; "
                       "drop them for --connect");
        if (want_seq)
            usageError("--seq needs the local simulator; drop it for "
                       "--connect");
        if (want_sweep && spec.faultsOn() && sweep_seeds > 1)
            usageError("a remote --sweep is a cartesian grid and cannot "
                       "step the fault seed with the jitter seed; run "
                       "a faulted multi-seed sweep locally, or one "
                       "--seeds at a time");
        return remoteMain(ccfg, req, spec, want_sweep, sweep_seeds,
                          want_stats, json_path);
    }

    // Record/replay plumbing. Misuse is a usage error (exit 2), per
    // the CLI convention for malformed invocations: the run never
    // starts, and the message says exactly how to fix the call.
    if (want_record && want_replay)
        usageError("--record and --replay are mutually exclusive");
    spec.traceDir = trace_dir;
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
    if (std::string cdir = cache::resolveCacheDir(cache_dir); !cdir.empty())
        result_cache = std::make_unique<cache::ResultCache>(cdir);

    Runner runner(/*fail_fast=*/false);
    runner.attachCache(result_cache.get());
    auto passed = [](const RunRecord &r) {
        return !r.failed() && r.verified && r.auditViolations == 0;
    };
    bool all_ok = true;
    if (want_sweep) {
        // Grid: every spectrum point x sweep_seeds jitter seeds, run
        // through Runner::runAll. Records land in the log in spec
        // order regardless of --jobs, so the summary, the emitted
        // swex-run-v1 document, and the exit code are identical at
        // any concurrency.
        std::vector<ExperimentSpec> specs =
            sweepCells(req, spec, sweep_seeds);
        const auto points = protocolSpectrum();
        std::printf("sweep: app=%s nodes=%d victim=%u jitter=%llu "
                    "(%zu points x %d seeds, --jobs %u)\n",
                    spec.app.c_str(), spec.nodes, spec.victimEntries,
                    static_cast<unsigned long long>(spec.jitterMax),
                    points.size(), sweep_seeds, jobs);

        // --replay/--record engage record-once sweeps: each portable
        // trace key records one cell, every other cell replays it;
        // non-portable apps fall back to direct cells.
        std::vector<RunRecord *> recs =
            want_replay || want_record
                ? runner.runAllReplay(specs, jobs, spec.traceDir)
                : runner.runAll(specs, jobs);

        for (std::size_t p = 0; p < points.size(); ++p) {
            const std::size_t base =
                p * static_cast<std::size_t>(sweep_seeds);
            int ok = 0;
            for (int s = 0; s < sweep_seeds; ++s)
                ok += passed(*recs[base + s]);
            all_ok = all_ok && ok == sweep_seeds;
            printPoint(points[p].label, ok, sweep_seeds,
                       recs[base]->simCycles,
                       strfmt("%016llx", static_cast<unsigned long long>(
                                             recs[base]->imageHash)));
            // One replay line per failing cell: every determinism
            // knob spelled out, so the cell reruns exactly, alone,
            // at any --jobs level.
            for (int s = 0; s < sweep_seeds; ++s) {
                const RunRecord *r = recs[base + s];
                if (passed(*r))
                    continue;
                std::printf("    FAIL %s: status=%s verified=%s "
                            "violations=%llu last_progress=%llu\n",
                            r->id.c_str(), r->status.c_str(),
                            r->verified ? "yes" : "no",
                            static_cast<unsigned long long>(
                                r->auditViolations),
                            static_cast<unsigned long long>(
                                r->lastProgress));
                std::printf("      replay: %s\n",
                            codec::toCommandLine(specs[base + s])
                                .c_str());
            }
        }
    } else {
        if (spec.machineModel == MachineModel::Snoop) {
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

        RunRecord &r = runner.run(spec);
        if (want_stats)
            std::printf("%s\n", r.statsJson.c_str());
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
        std::printf("traps: %.0f; handler cycles: %.0f; messages: "
                    "%.0f\n",
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
                        static_cast<unsigned long long>(
                            r.auditTransitions),
                        static_cast<unsigned long long>(
                            r.auditViolations));
        }
        all_ok = passed(r);
    }

    bool json_ok = json_path.empty() ||
                   runner.log().writeFile(json_path,
                                          RunLog::canonicalRequested());
    if (!json_ok)
        std::fprintf(stderr, "error: could not write %s\n",
                     json_path.c_str());
    bool emit_ok = runner.emitRecords();
    return all_ok && json_ok && emit_ok ? 0 : 1;
}
