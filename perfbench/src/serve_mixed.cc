/**
 * @file
 * serve_mixed: closed-loop clients against an in-process sweep server
 * (serve::serveLoop on a Unix socket under the run directory) whose
 * result cache was pre-warmed during set-up. Each client works through
 * rounds of a fixed mix: per round of 32 requests, 28 warm-hit runs, 3
 * warm four-cell sweeps and 1 cold run (a fresh seeded cell, so it
 * simulates and stores), at seeded positions. The mix is a count per
 * round, not per second, so every commit is measured on the same
 * traffic whatever its speed. Sweeps use the client's default chunk, as
 * `swex_cli --connect` does. Client connections plus server jobs never
 * exceed min(nproc, 4).
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "exp/cache/result_cache.hh"
#include "exp/client.hh"
#include "exp/runner.hh"
#include "exp/serve.hh"
#include "exp/wire_json.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace swex;

namespace
{

constexpr int serveNodes = 16;
const char *const warmProtocols[] = {"h1", "h2", "h3", "h4", "h5", "full"};
const char *const warmWss[] = {"2", "4", "8"};
constexpr std::uint64_t warmSeeds[] = {1, 2};
constexpr std::size_t warmCells = std::size(warmProtocols) *
                                  std::size(warmWss) * std::size(warmSeeds);

// One round of a client's requests; the rest of the round is warm hits.
constexpr std::size_t roundSize = 32;
constexpr std::size_t coldPerRound = 1;
constexpr std::size_t sweepsPerRound = 3;

ProtocolConfig
protocolNamed(const std::string &p)
{
    if (p == "full")
        return ProtocolConfig::fullMap();
    return ProtocolConfig::hw(p == "h1" ? 1 : p[1] - '0');
}

/** The cell a "run" request names, as the server builds it. */
struct Cell
{
    std::string protocol;
    std::string wss;
    std::uint64_t seed = 1;

    ExperimentSpec
    spec() const
    {
        ExperimentSpec s;
        s.id = "serve";
        s.app = "worker";
        s.params = {{"wss", wss}};
        s.nodes = serveNodes;
        s.victimEntries = 6;
        s.protocol = protocolNamed(protocol);
        s.seed = seed;
        return s;
    }

    std::string
    request(const std::string &tag) const
    {
        return "{\"op\":\"run\",\"app\":\"worker\",\"nodes\":" +
               std::to_string(serveNodes) + ",\"protocol\":\"" + protocol +
               "\",\"params\":{\"wss\":\"" + wss + "\"},\"seed\":" +
               std::to_string(seed) + ",\"canonical\":true,\"tag\":\"" +
               tag + "\"}";
    }
};

Cell
warmCell(std::size_t i)
{
    const std::size_t nw = std::size(warmWss), ns = std::size(warmSeeds);
    return {warmProtocols[i / (nw * ns)], warmWss[(i / ns) % nw],
            warmSeeds[i % ns]};
}

std::string
warmGridSweep()
{
    std::ostringstream os;
    os << "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":" << serveNodes
       << ",\"canonical\":true,\"grid\":{\"protocol\":[";
    for (std::size_t i = 0; i < std::size(warmProtocols); ++i)
        os << (i ? "," : "") << '"' << warmProtocols[i] << '"';
    os << "],\"params.wss\":[";
    for (std::size_t i = 0; i < std::size(warmWss); ++i)
        os << (i ? "," : "") << '"' << warmWss[i] << '"';
    os << "],\"seed\":[";
    for (std::size_t i = 0; i < std::size(warmSeeds); ++i)
        os << (i ? "," : "") << warmSeeds[i];
    os << "]}}";
    return os.str();
}

/** A warm four-cell sweep: two protocols x two wss at one of the warm
 *  seeds. */
std::string
warmSweep(std::uint64_t r)
{
    std::size_t p0 = r % std::size(warmProtocols);
    std::size_t p1 = (p0 + 1 + (r >> 8) % (std::size(warmProtocols) - 1)) %
                     std::size(warmProtocols);
    std::uint64_t seed = warmSeeds[(r >> 16) % std::size(warmSeeds)];
    return std::string("{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":") +
           std::to_string(serveNodes) + ",\"seed\":" +
           std::to_string(seed) +
           ",\"canonical\":true,\"grid\":{\"protocol\":[\"" +
           warmProtocols[p0] + "\",\"" + warmProtocols[p1] +
           "\"],\"params.wss\":[\"2\",\"8\"]}}";
}

/** The record object of a run response, byte for byte. */
std::string
recordText(const std::string &line)
{
    static const std::string key = ",\"record\":";
    std::size_t at = line.find(key);
    if (at == std::string::npos || line.empty() || line.back() != '}')
        return "";
    at += key.size();
    return line.substr(at, line.size() - 1 - at);
}

std::uint64_t
u64Member(const wire::JsonValue *obj, const char *key)
{
    std::uint64_t v = 0;
    if (obj != nullptr)
        if (const wire::JsonValue *m = obj->find(key))
            wire::numberAsU64(*m, v);
    return v;
}

/** One in-process server with its own cache directory and socket. */
class Server
{
  public:
    Server(const std::string &dir, unsigned jobs) : _dir(dir)
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        std::filesystem::create_directories(dir + "/cache");
        serve::ServeConfig cfg;
        cfg.socketPath = socketPath();
        cfg.cacheDir = cacheDir();
        cfg.jobs = jobs;
        _thread = std::thread([this, cfg] { _rc = serve::serveLoop(cfg); });
    }

    ~Server() { stop(); }

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    std::string socketPath() const { return _dir + "/s.sock"; }
    std::string cacheDir() const { return _dir + "/cache"; }

    client::ClientConfig
    clientConfig() const
    {
        client::ClientConfig c;
        c.address = socketPath();
        c.maxAttempts = 1;   // a refused request is a failure, not a retry
        return c;
    }

    /** Connect once the listener is up (bounded wait). */
    bool
    waitReady()
    {
        for (int i = 0; i < 500; ++i) {
            client::ServeClient c(clientConfig());
            if (c.connect())
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return false;
    }

    /** Send the shutdown op, wait for the drain, remove the directory.
     *  @return true when the server acknowledged and exited cleanly. */
    bool
    stop()
    {
        if (!_thread.joinable())
            return true;
        bool acked = false;
        {
            client::ServeClient c(clientConfig());
            if (c.connect())
                acked = c.rpc("{\"op\":\"shutdown\"}").ok;
        }
        _thread.join();
        std::error_code ec;
        std::filesystem::remove_all(_dir, ec);
        return acked && _rc == 0;
    }

  private:
    std::string _dir;
    int _rc = -1;
    std::thread _thread;   // declared last: joins before members go
};

/** What one client saw. */
struct ClientLog
{
    std::vector<double> hitMs, missMs, sweepMs;
    double cells = 0;
    double simCycles = 0;
    unsigned reconnects = 0;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::map<std::size_t, std::string> warmRecords;   ///< first served
    std::vector<std::pair<Cell, std::string>> coldRecords;
};

/** One closed-loop client: rounds of the fixed mix until @p stop (one
 *  round in smoke mode). */
void
clientLoop(const Server &srv, std::uint64_t seed, unsigned client_id,
           const Options &opt, const std::atomic<bool> &stop, ClientLog &log)
{
    client::ServeClient c(srv.clientConfig());
    if (!c.connect()) {
        ++log.attempted;
        log.failures.push_back("client could not connect");
        return;
    }
    std::uint64_t cold_sent = 0;
    for (std::uint64_t round = 0; !stop.load(); ++round) {
        if (opt.smoke && round == 1)
            return;
        const std::uint64_t rs = mix64(seed ^ mix64(client_id * 7919 + round));
        std::vector<char> kind(roundSize, 'h');
        for (std::size_t k = 0, placed = 0;
             placed < coldPerRound + sweepsPerRound; ++k) {
            std::size_t pos = mix64(rs + k) % roundSize;
            if (kind[pos] != 'h')
                continue;
            kind[pos] = placed < coldPerRound ? 'c' : 's';
            ++placed;
        }
        for (std::size_t i = 0; i < roundSize && !stop.load(); ++i) {
            const bool cold = kind[i] == 'c';
            const std::uint64_t r =
                cold ? mix64(seed ^ mix64(client_id * 104729 + cold_sent++))
                     : mix64(rs ^ (i + 1) * 0x51ed27ull);
            ++log.attempted;
            if (kind[i] == 's') {
                std::string line = warmSweep(r);
                auto t0 = Clock::now();
                client::SweepResult sw = c.runSweep(line);
                double ms = secondsSince(t0) * 1e3;
                log.reconnects += sw.reconnects;
                if (!sw.ok) {
                    log.failures.push_back("sweep: " + sw.errorKind + ": " +
                                           sw.error);
                    c.disconnect();
                    if (!c.connect())
                        return;
                    continue;
                }
                bool warm = std::all_of(
                    sw.sources.begin(), sw.sources.end(),
                    [](const std::string &s) { return s == "cache"; });
                if (!warm) {
                    log.failures.push_back("warm sweep cell simulated");
                    continue;
                }
                log.sweepMs.push_back(ms);
                log.cells += static_cast<double>(sw.cells);
                continue;
            }

            Cell cell = cold ? Cell{"h5", "4", 1000 + r % 1'000'000'000'000}
                             : warmCell(r % warmCells);
            std::string line = cell.request(cold ? "miss" : "hit");
            client::Response resp;
            auto t0 = Clock::now();
            {
                Span s("exp.client.rpc");
                resp = c.rpc(line);
            }
            double ms = secondsSince(t0) * 1e3;
            if (!resp.ok) {
                log.failures.push_back("run: " + resp.errorKind + ": " +
                                       resp.error);
                if (!c.connected() && !c.connect())
                    return;
                continue;
            }
            if (tracing()) {
                Span s("exp.wire.parse");
                wire::JsonValue doc;
                wire::JsonParser p(resp.line);
                p.parseWhole(doc);
            }
            const wire::JsonValue *src = resp.doc.find("source");
            const std::string source = src ? src->raw : "";
            if (source != (cold ? "sim" : "cache")) {
                log.failures.push_back(std::string(cold ? "cold" : "warm") +
                                       " run served from '" + source + "'");
                continue;
            }
            std::string rec = recordText(resp.line);
            if (cold) {
                log.missMs.push_back(ms);
                log.simCycles += static_cast<double>(
                    u64Member(resp.doc.find("record"), "sim_cycles"));
                if (log.coldRecords.size() < 4)
                    log.coldRecords.emplace_back(cell, rec);
            } else {
                log.hitMs.push_back(ms);
                auto [it, fresh] =
                    log.warmRecords.emplace(r % warmCells, rec);
                if (!fresh && it->second != rec) {
                    log.failures.push_back("warm cell served two different "
                                           "records");
                    continue;
                }
            }
            log.cells += 1;
        }
    }
}

struct StatsSnapshot
{
    std::uint64_t requests = 0, hits = 0, misses = 0, shed = 0;
};

bool
readStats(const Server &srv, StatsSnapshot &out)
{
    client::ServeClient c(srv.clientConfig());
    if (!c.connect())
        return false;
    client::Response r = c.rpc("{\"op\":\"stats\"}");
    if (!r.ok)
        return false;
    const wire::JsonValue *st = r.doc.find("stats");
    out.requests = u64Member(st, "requests");
    out.hits = u64Member(st, "hits");
    out.misses = u64Member(st, "misses");
    out.shed = u64Member(st, "shed");
    return true;
}

/** Run the clients for @p seconds; count their requests and failures
 *  into @p o. @return the window's wall time. */
double
measureWindow(const Server &srv, const Options &opt, unsigned clients,
              double seconds, std::uint64_t seed, Outcome &o,
              std::vector<ClientLog> &logs)
{
    std::atomic<bool> stop{false};
    logs.assign(clients, ClientLog{});
    auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(clientLoop, std::cref(srv), seed, c,
                             std::cref(opt), std::cref(stop),
                             std::ref(logs[c]));
    // Smoke clients stop by themselves after one round.
    if (!opt.smoke) {
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
        stop.store(true);
    }
    for (std::thread &t : threads)
        t.join();
    for (ClientLog &l : logs) {
        o.attempted += l.attempted;
        for (const std::string &f : l.failures)
            o.fail(f);
    }
    return secondsSince(t0);
}

} // anonymous namespace

Outcome
runServeMixed(const Options &opt)
{
    Outcome o;
    o.opName = "warm-hit run RPC (ms)";
    const unsigned server_jobs = std::max(1u, opt.jobs / 2);
    const unsigned clients = std::max(1u, opt.jobs - server_jobs);

    // Set-up: a fresh server, socket and cache, pre-warmed with one
    // sweep over the warm grid. Every set-up but the last is torn down.
    std::unique_ptr<Server> srv;
    const unsigned setups = opt.smoke ? 1 : std::max(1u, opt.setups);
    for (unsigned i = 0; i < setups; ++i) {
        if (srv && !srv->stop())
            o.fail("set-up server did not shut down cleanly");
        auto t0 = Clock::now();
        srv = std::make_unique<Server>(
            opt.runDir + "/serve" + std::to_string(i), server_jobs);
        ++o.attempted;
        if (!srv->waitReady()) {
            o.fail("server never accepted a connection");
            return o;
        }
        client::ServeClient c(srv->clientConfig());
        client::SweepResult warm;
        if (c.connect())
            warm = c.runSweep(warmGridSweep());
        o.setupS.add(secondsSince(t0));
        if (!warm.ok || warm.cells != warmCells) {
            o.fail("cache pre-warm failed: " + warm.error);
            return o;
        }
    }

    StatsSnapshot before, after;
    if (!readStats(*srv, before))
        o.fail("stats op failed");

    // Traced runs split the window: first half untraced (the baseline
    // for the tracing overhead), second half traced.
    std::vector<ClientLog> logs, traced_logs;
    const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
    o.wallS = measureWindow(*srv, opt, clients, window, opt.seed, o, logs);
    if (opt.trace) {
        setTracing(true);
        measureWindow(*srv, opt, clients, window, mix64(opt.seed), o,
                      traced_logs);
        setTracing(false);
    }
    if (!readStats(*srv, after))
        o.fail("stats op failed");

    Series hit, miss, sweep, traced_hit;
    std::uint64_t reconnects = 0;
    std::map<std::size_t, std::string> warm_records;
    std::vector<std::pair<Cell, std::string>> cold_records;
    for (const auto *list : {&logs, &traced_logs}) {
        for (const ClientLog &l : *list) {
            for (double v : l.hitMs)
                (list == &logs ? hit : traced_hit).add(v);
            if (list == &logs) {
                for (double v : l.missMs)
                    miss.add(v);
                for (double v : l.sweepMs)
                    sweep.add(v);
                o.cells += l.cells;
                o.simCycles += l.simCycles;
            }
            reconnects += l.reconnects;
            warm_records.insert(l.warmRecords.begin(), l.warmRecords.end());
            cold_records.insert(cold_records.end(), l.coldRecords.begin(),
                                l.coldRecords.end());
        }
    }
    o.opMs = hit;
    o.runs = hit.size() + miss.size() + sweep.size();
    o.classMs = {{"hit", hit}, {"miss", miss}, {"sweep", sweep}};

    // Correctness, outside the window: a seeded sample of the served
    // records must equal Runner::execute's canonical record.
    std::vector<std::pair<Cell, std::string>> sample;
    for (const auto &[idx, rec] : warm_records)
        if (sample.size() < 8 && mix64(opt.seed ^ idx) % 3 == 0)
            sample.emplace_back(warmCell(idx), rec);
    sample.insert(sample.end(), cold_records.begin(), cold_records.end());
    Runner direct(false);
    std::vector<RunRecord> direct_records;
    for (const auto &[cell, served] : sample) {
        ++o.attempted;
        direct_records.push_back(direct.execute(cell.spec()));
        std::ostringstream os;
        direct_records.back().writeJson(os, /*canonical=*/true);
        if (os.str() != served)
            o.fail("served record for worker/" + cell.protocol + "/wss" +
                   cell.wss + "/seed" + std::to_string(cell.seed) +
                   " differs from Runner::execute");
    }

    if (opt.trace) {
        if (hit.median() > 0)
            o.layers["bench.trace_overhead_share"] =
                (traced_hit.median() - hit.median()) / hit.median();
        o.layers["exp.serve.requests"] =
            static_cast<double>(after.requests - before.requests);
        o.layers["exp.serve.shed"] =
            static_cast<double>(after.shed - before.shed);
        const double lookups = static_cast<double>(
            after.hits - before.hits + after.misses - before.misses);
        o.layers["exp.cache.lookups"] = lookups;
        if (lookups > 0)
            o.layers["exp.cache.hit_ratio"] =
                static_cast<double>(after.hits - before.hits) / lookups;
        o.layers["exp.client.reconnects"] = static_cast<double>(reconnects);

        // The server's cache and record layers, timed from here on the
        // same entries it serves, and the cold cells decomposed.
        setTracing(true);
        cache::ResultCache rc(srv->cacheDir());
        double record_bytes = 0, entry_bytes = 0;
        const std::size_t reps = opt.smoke ? 1 : 8;
        for (std::size_t k = 0; k < reps * warmCells; ++k) {
            ExperimentSpec spec = warmCell(k % warmCells).spec();
            RunRecord rec;
            bool found = false;
            {
                Span s("exp.cache.lookup");
                found = rc.lookup(spec, rec);
            }
            ++o.attempted;
            if (!found) {
                o.fail("warm cell missing from the server's cache");
                continue;
            }
            std::ostringstream os;
            {
                Span s("exp.record.write");
                rec.writeJson(os, /*canonical=*/true);
            }
            record_bytes += static_cast<double>(os.str().size());
            entry_bytes += static_cast<double>(
                std::filesystem::file_size(rc.entryPath(spec)));
        }
        const double n = static_cast<double>(reps * warmCells);
        o.layers["exp.record.bytes"] = record_bytes / n;
        o.layers["exp.cache.entry_bytes"] = entry_bytes / n;

        cache::ResultCache scratch(opt.runDir + "/serve-store");
        CellSums sums;
        for (std::size_t i = 0; i < sample.size(); ++i) {
            ExperimentSpec spec = sample[i].first.spec();
            std::string err;
            {
                Span s("exp.cache.store");
                if (!scratch.store(spec, direct_records[i], err))
                    o.fail("cache store: " + err);
            }
            sums.add(runCellSteps(spec));
        }
        setTracing(false);
        addCellLayers(sums, o.layers);
        std::error_code ec;
        std::filesystem::remove_all(opt.runDir + "/serve-store", ec);
    }

    ++o.attempted;
    if (!srv->stop())
        o.fail("server did not acknowledge shutdown and drain cleanly");
    return o;
}

} // namespace perfbench
