/**
 * @file
 * Socket-level chaos harness for the sweep server (exp/serve.*) and
 * its client library (exp/client.*): the serving tier's analogue of
 * stress_protocols. One in-process server (Unix socket, shared pool,
 * small admission bound, short send timeout) is attacked by N seeded
 * connections cycling through misbehaviors:
 *
 *   well-behaved RPC     torn write (half a request, pause, rest)
 *   abandoned half-line  garbage line then a valid request
 *   RST mid-sweep        stalled peer that never reads
 *   guaranteed shedding  kill-and-reconnect resumable sweeps
 *
 * The gates, in order of importance: (1) no hangs — every read in
 * the harness is deadline-bounded, so a wedged server fails loudly;
 * (2) no torn responses — every line that does arrive parses as a
 * whole JSON object; (3) equivalence — chaos-interrupted chunked
 * sweeps converge to canonical record bytes identical to a direct
 * (in-process, no server) run of the same grid, and the final clean
 * sweep digest matches the direct digest printed by --direct. The
 * digest line ("grid digest <hex> (...)") is pinned by two ctests:
 * `stress_serve` for the served grid and `determinism_serve_direct`
 * for --direct, so both modes must print the same digest.
 *
 * Usage: stress_serve [--conns N] [--jobs N] [--seed N] [--direct]
 *   --direct computes the grid digest without any server (the
 *   reference side of the equivalence check). SWEX_SERVE_CONNS
 *   overrides the default connection count (sanitizer legs shrink
 *   it); either way it must be a plain number of at least 8, one
 *   connection per behavior, or the harness exits 2.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/binary_io.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "exp/client.hh"
#include "exp/line_io.hh"
#include "exp/runner.hh"
#include "exp/serve.hh"
#include "exp/wire_json.hh"

using namespace swex;

namespace
{

// ---------------------------------------------------------------
// The equivalence grid: small enough to re-run hundreds of times
// warm, varied enough that a resume bug (lost cell, swapped cell)
// cannot produce the right digest. Order: protocol-major,
// seed-minor — the same row-major order the server enumerates.
constexpr int gridNodes = 4;
const char *const gridProtocols[] = {"h2", "h5"};
constexpr std::uint64_t gridSeeds[] = {1, 2, 3, 4, 5, 6};
constexpr std::size_t gridCells =
    sizeof(gridProtocols) / sizeof(gridProtocols[0]) *
    sizeof(gridSeeds) / sizeof(gridSeeds[0]);

ExperimentSpec
gridSpec(std::size_t cell)
{
    constexpr std::size_t nseeds =
        sizeof(gridSeeds) / sizeof(gridSeeds[0]);
    ExperimentSpec spec;
    spec.id = "serve";   // the server's default id: byte parity
    spec.app = "worker";
    spec.nodes = gridNodes;
    spec.victimEntries = 6;
    spec.protocol = gridProtocols[cell / nseeds] == std::string("h2")
                        ? ProtocolConfig::hw(2)
                        : ProtocolConfig::hw(5);
    spec.seed = gridSeeds[cell % nseeds];
    return spec;
}

/** The server-side sweep request for the grid (no cursor/chunk; the
 *  client library splices those per chunk). */
std::string
gridSweepRequest()
{
    std::ostringstream os;
    os << "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":"
       << gridNodes << ",\"victim\":6,\"canonical\":true,"
       << "\"grid\":{\"protocol\":[";
    for (std::size_t p = 0; p < 2; ++p)
        os << (p ? "," : "") << '"' << gridProtocols[p] << '"';
    os << "],\"seed\":[";
    for (std::size_t s = 0; s < 6; ++s)
        os << (s ? "," : "") << gridSeeds[s];
    os << "]}}";
    return os.str();
}

/** Canonical record bytes for @p cell, straight from the runner —
 *  what the server must hand back for that cell, byte for byte. */
std::string
directRecord(const Runner &runner, std::size_t cell)
{
    std::string out;
    runner.execute(gridSpec(cell)).appendJson(out, /*canonical=*/true);
    return out;
}

/** FNV-1a over the records, each followed by a newline, from the
 *  standard 64-bit offset basis (not bin::fnvOffset). */
std::uint64_t
digestRecords(const std::vector<std::string> &records)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const std::string &r : records) {
        h = bin::fnv1a(h, r.data(), r.size());
        h = bin::fnv1a(h, "\n", 1);
    }
    return h;
}

// ---------------------------------------------------------------
// Raw-socket helpers for the misbehaving clients (the well-behaved
// ones use the client library; the attackers need byte-level
// control the library rightly does not offer).

struct Failures
{
    std::atomic<unsigned> count{0};
    std::mutex m;
    std::vector<std::string> messages;

    void
    add(const std::string &msg)
    {
        count.fetch_add(1);
        std::lock_guard<std::mutex> hold(m);
        if (messages.size() < 20)
            messages.push_back(msg);
    }
};

int
rawConnectUnix(const std::string &path)
{
    std::string err;
    return wire::openStream(
        path,
        [](int fd, const sockaddr *sa, socklen_t len) {
            return std::string(::connect(fd, sa, len) == 0
                                   ? ""
                                   : std::strerror(errno));
        },
        err);
}

bool
rawSend(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

/** Whole-line JSON parse — the no-torn-responses gate. */
bool
parseWhole(const std::string &line, wire::JsonValue &doc)
{
    wire::JsonParser p(line);
    return p.parseWhole(doc) &&
           doc.kind == wire::JsonValue::Kind::Object;
}

/** Every read in the harness, raw or through the client library,
 *  gives up after client::requestDeadlineMs with no byte received —
 *  the no-hangs gate: a wedged server fails the run instead of
 *  hanging it. */
constexpr int rawDeadlineMs = client::requestDeadlineMs;

// ---------------------------------------------------------------
// The chaos behaviors. Each returns through Failures; absence of a
// recorded failure IS the assertion.

/** Well-behaved single run through the client library; response must
 *  be ok and carry the reference record for its cell. */
void
doCleanRun(const std::string &path, std::size_t cell,
           const std::vector<std::string> &expected,
           std::uint64_t seed, Failures &fails)
{
    client::ClientConfig cfg;
    cfg.address = path;
    cfg.maxAttempts = 10;
    cfg.backoffSeed = seed;
    client::ServeClient cli(cfg);
    ExperimentSpec spec = gridSpec(cell);
    std::ostringstream os;
    os << "{\"op\":\"run\",\"app\":\"worker\",\"nodes\":" << gridNodes
       << ",\"victim\":6,\"protocol\":\""
       << gridProtocols[cell / 6] << "\",\"seed\":" << spec.seed
       << ",\"canonical\":true}";
    client::Response r = cli.rpcRetry(os.str());
    if (!r.ok) {
        fails.add("clean run failed (" + r.errorKind + "): " +
                  r.error);
        return;
    }
    std::string rec;
    if (!client::recordBytes(r.line, rec)) {
        fails.add("clean run: malformed response");
        return;
    }
    if (rec != expected[cell])
        fails.add("clean run: record bytes differ from direct run");
}

/** Torn write: half the request, a pause mid-token, then the rest.
 *  A correct server sees one whole line; the response must be ok. */
void
doTornWrite(const std::string &path, std::size_t cell,
            Failures &fails)
{
    int fd = rawConnectUnix(path);
    if (fd < 0) {
        fails.add("torn write: connect failed");
        return;
    }
    std::ostringstream os;
    os << "{\"op\":\"run\",\"app\":\"worker\",\"nodes\":" << gridNodes
       << ",\"victim\":6,\"protocol\":\"" << gridProtocols[cell / 6]
       << "\",\"seed\":" << gridSeeds[cell % 6]
       << ",\"canonical\":true}\n";
    std::string req = os.str();
    std::size_t half = req.size() / 2;
    bool sent = rawSend(fd, req.substr(0, half));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sent = sent && rawSend(fd, req.substr(half));
    wire::LineReader in;
    std::string line;
    wire::JsonValue doc;
    if (!sent || in.read(fd, line, client::maxResponseLine,
                         rawDeadlineMs) != wire::ReadStatus::Line) {
        fails.add("torn write: no response");
    } else if (!parseWhole(line, doc)) {
        fails.add("torn write: torn response: " + line.substr(0, 80));
    } else if (doc.find("record") == nullptr) {
        // Shedding is a legal answer under the storm; anything else
        // non-record means the torn frame confused the server.
        const wire::JsonValue *ek = doc.find("error_kind");
        if (ek == nullptr || ek->raw != "busy")
            fails.add("torn write: response is not a record: " +
                      line.substr(0, 80));
    }
    ::close(fd);
}

/** Half a line, then a disappearing client. The server must just
 *  drop the connection — verified globally by the server staying
 *  responsive for every later behavior. */
void
doAbandonedHalfLine(const std::string &path, Failures &fails)
{
    int fd = rawConnectUnix(path);
    if (fd < 0) {
        fails.add("abandoned half-line: connect failed");
        return;
    }
    rawSend(fd, "{\"op\":\"run\",\"app\":\"wor");
    ::close(fd);
}

/** Garbage then a valid request on the same connection: the garbage
 *  earns a structured parse error, the valid request still runs. */
void
doGarbageThenValid(const std::string &path, Failures &fails)
{
    int fd = rawConnectUnix(path);
    if (fd < 0) {
        fails.add("garbage: connect failed");
        return;
    }
    rawSend(fd, "this is not json\n");
    wire::LineReader in;
    std::string line;
    wire::JsonValue doc;
    if (in.read(fd, line, client::maxResponseLine, rawDeadlineMs) !=
            wire::ReadStatus::Line ||
        !parseWhole(line, doc)) {
        fails.add("garbage: no structured error response");
        ::close(fd);
        return;
    }
    const wire::JsonValue *k = doc.find("error_kind");
    if (k == nullptr || k->raw != "parse")
        fails.add("garbage: expected error_kind parse, got: " +
                  line.substr(0, 80));
    std::ostringstream os;
    os << "{\"op\":\"run\",\"app\":\"worker\",\"nodes\":" << gridNodes
       << ",\"victim\":6,\"protocol\":\"h2\",\"seed\":1,"
          "\"canonical\":true}\n";
    // The valid request can legitimately be shed while the storm has
    // the admission queue full; honoring the busy hint (bounded) is
    // exactly what the protocol prescribes.
    for (int attempt = 0; attempt < 20; ++attempt) {
        if (!rawSend(fd, os.str()) ||
            in.read(fd, line, client::maxResponseLine, rawDeadlineMs) !=
                wire::ReadStatus::Line ||
            !parseWhole(line, doc)) {
            fails.add("garbage: valid request after garbage failed: " +
                      line.substr(0, 120));
            break;
        }
        if (doc.find("record") != nullptr)
            break;   // served
        const wire::JsonValue *ek = doc.find("error_kind");
        if (ek == nullptr || ek->raw != "busy") {
            fails.add("garbage: valid request after garbage failed: " +
                      line.substr(0, 120));
            break;
        }
        std::uint64_t hint = 100;
        if (const wire::JsonValue *ra = doc.find("retry_after_ms"))
            wire::numberAsU64(*ra, hint);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min<std::uint64_t>(hint,
                                                              1000)));
    }
    ::close(fd);
}

/** Start a sweep, read a couple of cells, then slam the connection
 *  shut with an RST (SO_LINGER 0). The server must survive and keep
 *  serving everyone else; the orphaned cells just warm the cache. A
 *  sweep shed under the storm is answered by its one busy line. */
void
doResetMidSweep(const std::string &path, Failures &fails)
{
    int fd = rawConnectUnix(path);
    if (fd < 0) {
        fails.add("reset mid-sweep: connect failed");
        return;
    }
    rawSend(fd, gridSweepRequest() + "\n");
    wire::LineReader in;
    std::string line;
    wire::JsonValue doc;
    for (int i = 0; i < 2; ++i) {
        if (in.read(fd, line, client::maxResponseLine, rawDeadlineMs) !=
            wire::ReadStatus::Line) {
            fails.add("reset mid-sweep: no cell before reset");
            break;
        }
        if (!parseWhole(line, doc)) {
            fails.add("reset mid-sweep: torn response: " +
                      line.substr(0, 120));
            break;
        }
        if (doc.find("record") == nullptr) {
            const wire::JsonValue *ek = doc.find("error_kind");
            if (ek == nullptr || ek->raw != "busy")
                fails.add("reset mid-sweep: response is not a cell: " +
                          line.substr(0, 80));
            break;
        }
    }
    linger lg{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
}

/** A peer that requests work and never reads. The send timeout must
 *  declare it dead; the pool must keep flowing for everyone else. */
void
doStalledPeer(const std::string &path, Failures &fails)
{
    int fd = rawConnectUnix(path);
    if (fd < 0) {
        fails.add("stalled peer: connect failed");
        return;
    }
    // Shrink our receive buffer so the server's sends actually stall
    // instead of parking politely in a roomy kernel buffer.
    int tiny = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    for (int i = 0; i < 4; ++i)
        rawSend(fd, gridSweepRequest() + "\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    ::close(fd);
}

/** Overload shedding, deterministically: one request whose chunk
 *  alone exceeds the server's admission bound must come back as a
 *  structured busy with a retry hint, whatever else is in flight. */
void
doBusyProbe(const std::string &path, std::uint64_t max_queue,
            Failures &fails)
{
    int fd = rawConnectUnix(path);
    if (fd < 0) {
        fails.add("busy probe: connect failed");
        return;
    }
    std::size_t cells = static_cast<std::size_t>(max_queue) + 8;
    std::ostringstream os;
    os << "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":"
       << gridNodes << ",\"victim\":6,\"grid\":{\"seed\":[";
    for (std::size_t s = 0; s < cells; ++s)
        os << (s ? "," : "") << s + 1;
    os << "]},\"chunk\":" << cells << "}\n";
    wire::LineReader in;
    std::string line;
    wire::JsonValue doc;
    if (!rawSend(fd, os.str()) ||
        in.read(fd, line, client::maxResponseLine, rawDeadlineMs) !=
            wire::ReadStatus::Line ||
        !parseWhole(line, doc)) {
        fails.add("busy probe: no response");
        ::close(fd);
        return;
    }
    const wire::JsonValue *k = doc.find("error_kind");
    if (k == nullptr || k->raw != "busy")
        fails.add("busy probe: expected error_kind busy, got: " +
                  line.substr(0, 80));
    else if (doc.find("retry_after_ms") == nullptr)
        fails.add("busy probe: busy without retry_after_ms");
    ::close(fd);
}

/** The tentpole gate: a chunked sweep whose client keeps seeded-
 *  randomly killing its own connection must still converge to the
 *  reference records, byte for byte, by resuming from the first
 *  missing cell. */
void
doChaosSweep(const std::string &path, std::uint64_t seed,
             const std::vector<std::string> &expected,
             Failures &fails)
{
    client::ClientConfig cfg;
    cfg.address = path;
    cfg.maxAttempts = 50;
    cfg.backoffSeed = seed;
    cfg.chunk = 3;
    cfg.chaosKillPerMille = 300;
    cfg.chaosSeed = seed;
    client::ServeClient cli(cfg);
    client::SweepResult res = cli.runSweep(gridSweepRequest());
    if (!res.ok) {
        fails.add("chaos sweep failed (" + res.errorKind + "): " +
                  res.error);
        return;
    }
    if (res.cells != gridCells) {
        fails.add("chaos sweep: wrong cell count");
        return;
    }
    for (std::size_t c = 0; c < gridCells; ++c) {
        if (res.records[c] != expected[c]) {
            fails.add("chaos sweep: cell " + std::to_string(c) +
                      " record bytes differ from direct run");
            return;
        }
    }
}

/** @p value of @p what as an integer in [@p lo, @p hi], digits
 *  only, or exit 2: a malformed count must never run a smaller
 *  harness that passes. */
std::uint64_t
parseCount(const std::string &what, const std::string &value,
           std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t n = 0;
    if (!json::parseU64(value, n) || n < lo || n > hi) {
        std::fprintf(stderr,
                     "stress_serve: bad value '%s' for %s (want an "
                     "integer in [%llu, %llu])\n",
                     value.c_str(), what.c_str(),
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi));
        std::exit(2);
    }
    return n;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::size_t conns = 200;
    unsigned jobs = 4;
    std::uint64_t seed = 1;
    bool direct_only = false;
    // Connection i runs behavior i % behaviors, so fewer connections
    // would leave a behavior unchecked behind an "all clean" verdict.
    constexpr std::uint64_t behaviors = 8, maxConns = 1'000'000;
    if (const char *env = std::getenv("SWEX_SERVE_CONNS"))
        conns = parseCount("$SWEX_SERVE_CONNS", env, behaviors, maxConns);
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--conns")
            conns = parseCount(a, next(), behaviors, maxConns);
        else if (a == "--jobs")
            jobs = static_cast<unsigned>(parseCount(a, next(), 1, 256));
        else if (a == "--seed")
            seed = parseCount(a, next(), 0, ~std::uint64_t{0});
        else if (a == "--direct")
            direct_only = true;
        else {
            std::fprintf(stderr,
                         "usage: stress_serve [--conns N] [--jobs N] "
                         "[--seed N] [--direct]\n");
            return a == "--help" ? 0 : 2;
        }
    }
    setQuiet(true);

    // The reference: every grid cell simulated in-process, canonical
    // bytes kept for per-cell comparison, digested for the
    // cross-mode determinism check.
    Runner direct(/*fail_fast=*/false);
    std::vector<std::string> expected;
    for (std::size_t c = 0; c < gridCells; ++c)
        expected.push_back(directRecord(direct, c));
    std::uint64_t direct_digest = digestRecords(expected);

    if (direct_only) {
        std::printf("grid digest %016llx (direct, %zu cells)\n",
                    static_cast<unsigned long long>(direct_digest),
                    gridCells);
        return 0;
    }

    // One server under attack: a cache (the resume-idempotency
    // mechanism), a small admission bound (so shedding is
    // reachable), a short send timeout (so the stalled peers resolve
    // within the run).
    char scratch[] = "/tmp/swex_stress_serve_XXXXXX";
    if (::mkdtemp(scratch) == nullptr) {
        std::perror("mkdtemp");
        return 1;
    }
    const std::string dir = scratch;
    const std::string sock = dir + "/serve.sock";
    serve::ServeConfig scfg;
    scfg.socketPath = sock;
    scfg.cacheDir = dir + "/cache";
    scfg.jobs = jobs;
    scfg.maxQueuedUnits = 64;
    scfg.sendTimeoutMs = 1000;
    std::thread server([&scfg] {
        int rc = serve::serveLoop(scfg);
        if (rc != 0)
            std::fprintf(stderr, "serveLoop exited %d\n", rc);
    });
    // Ready when the Unix socket accepts.
    for (int i = 0; i < 500; ++i) {
        int fd = rawConnectUnix(sock);
        if (fd >= 0) {
            ::close(fd);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    Failures fails;
    const unsigned lanes = 12;
    std::vector<std::thread> pool;
    std::atomic<std::size_t> nextConn{0};
    for (unsigned t = 0; t < lanes; ++t) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i = nextConn.fetch_add(1);
                if (i >= conns)
                    return;
                std::uint64_t s =
                    mix64((seed ^ (i * 2654435761ull)) + goldenGamma);
                switch (i % behaviors) {
                  case 0:
                    doCleanRun(sock, s % gridCells, expected, s, fails);
                    break;
                  case 1: doTornWrite(sock, s % gridCells, fails);
                    break;
                  case 2: doAbandonedHalfLine(sock, fails); break;
                  case 3: doGarbageThenValid(sock, fails); break;
                  case 4: doResetMidSweep(sock, fails); break;
                  case 5: doStalledPeer(sock, fails); break;
                  case 6: doBusyProbe(sock, scfg.maxQueuedUnits,
                                      fails);
                    break;
                  case 7: doChaosSweep(sock, s, expected, fails);
                    break;
                }
            }
        });
    }
    for (std::thread &t : pool)
        t.join();

    // The server survived the storm; the clean sweep that follows
    // must produce the reference bytes (and the digest the direct
    // mode prints).
    client::ClientConfig cfg;
    cfg.address = sock;
    cfg.maxAttempts = 10;
    cfg.backoffSeed = seed;
    cfg.chunk = 3;
    client::ServeClient cli(cfg);
    client::SweepResult fin = cli.runSweep(gridSweepRequest());
    std::uint64_t served_digest = 0;
    if (!fin.ok)
        fails.add("final clean sweep failed (" + fin.errorKind +
                  "): " + fin.error);
    else
        served_digest = digestRecords(fin.records);
    if (fin.ok && served_digest != direct_digest)
        fails.add("served digest differs from direct digest");

    // Shut the server down cleanly and reclaim the scratch dir.
    {
        client::ClientConfig scli;
        scli.address = sock;
        client::ServeClient shut(scli);
        std::string err;
        if (shut.connect(&err))
            shut.rpc("{\"op\":\"shutdown\"}");
    }
    server.join();
    std::string cleanup = "rm -rf '" + dir + "'";
    if (std::system(cleanup.c_str()) != 0)
        std::fprintf(stderr, "warning: could not remove %s\n",
                     dir.c_str());

    std::printf("stress_serve: %zu connections, seed %llu\n", conns,
                static_cast<unsigned long long>(seed));
    std::printf("grid digest %016llx (served, %zu cells)\n",
                static_cast<unsigned long long>(served_digest),
                gridCells);
    unsigned nfail = fails.count.load();
    if (nfail != 0) {
        std::printf("FAILURES: %u\n", nfail);
        for (const std::string &m : fails.messages)
            std::printf("  %s\n", m.c_str());
        return 1;
    }
    std::printf("all behaviors clean: no hangs, no torn responses, "
                "resumed sweeps byte-identical\n");
    return 0;
}
