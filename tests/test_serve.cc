/**
 * @file
 * End-to-end tests for the serving front end (exp/serve.hh): a real
 * server on a Unix socket, driven by raw socket clients. Covers the
 * response-path regressions (non-string tags echoed on the error
 * path, authoritative source reporting), the strict request parse
 * (duplicate keys, garbage, oversized lines), server-side sweeps
 * (expansion order, per-cell byte-identity with direct execution),
 * the multi-client model (concurrent clients, hang-up mid-sweep),
 * and the robustness surface: stale-socket takeover vs live-socket
 * refusal, overload shedding with retry hints, cursor-chunked sweeps
 * resumed across connections (raw protocol and ServeClient under
 * chaos kills), idle timeouts, and SIGTERM drain. The raw clients
 * frame lines through the serve wire's transport (exp/line_io.hh),
 * whose reader timers, line cap and stalled-send bound are tested
 * on socket pairs; the client library's response cap, reconnect
 * count and idle-close retry are tested against live listeners.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "exp/cache/result_cache.hh"
#include "exp/client.hh"
#include "exp/line_io.hh"
#include "exp/runner.hh"
#include "exp/serve.hh"
#include "json_helpers.hh"

using namespace swex;

namespace
{

std::string
scratchDir(const std::string &tag)
{
    std::string tmpl = ::testing::TempDir() + "swexserve-" + tag +
                       "-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *d = mkdtemp(buf.data());
    EXPECT_NE(d, nullptr);
    return d != nullptr ? d : ".";
}

/** Readiness callback for wire::openStream: bind only, leaving a
 *  socket file that nothing accepts on. */
std::string
bindOnly(int s, const sockaddr *sa, socklen_t len)
{
    return ::bind(s, sa, len) == 0 ? "" : std::strerror(errno);
}

/** Readiness callback for wire::openStream: a listener with
 *  @p backlog that the test accepts on (or never does). */
auto
listenOn(int backlog)
{
    return [backlog](int s, const sockaddr *sa, socklen_t len) {
        return std::string(::bind(s, sa, len) == 0 &&
                                   ::listen(s, backlog) == 0
                               ? ""
                               : std::strerror(errno));
    };
}

/** A raw line-oriented client on the server's Unix socket, framing
 *  lines through the serve wire's transport. Reads and sends are
 *  bounded, so a wedged server fails a test instead of hanging it. */
struct Client
{
    static constexpr int ioMs = 60'000;

    int fd = -1;
    wire::LineReader in;

    ~Client() { disconnect(); }

    /** Connect to the socket at @p path. */
    bool
    connectTo(const std::string &path)
    {
        disconnect();
        std::string err;
        fd = wire::openStream(
            path,
            [](int s, const sockaddr *sa, socklen_t len) {
                return std::string(::connect(s, sa, len) == 0
                                       ? ""
                                       : std::strerror(errno));
            },
            err);
        return fd >= 0;
    }

    void
    disconnect()
    {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
        in.clear();
    }

    /** Best-effort send: a server-closed socket fails it quietly. */
    void sendLine(const std::string &line) { wire::sendLine(fd, line, ioMs); }

    /** The next response line, or how the read ended. */
    wire::ReadStatus
    read(std::string &line)
    {
        return in.read(fd, line, client::maxResponseLine, ioMs);
    }

    bool readLine(std::string &line) { return read(line) == wire::ReadStatus::Line; }

    /** Send one request and parse its (single) response line. */
    wire::JsonValue
    rpc(const std::string &request)
    {
        sendLine(request);
        std::string line;
        EXPECT_TRUE(readLine(line)) << "no response to: " << request;
        return parseJson(line.empty() ? "null" : line);
    }
};

/** serveLoop() on its own thread, joined (via a shutdown op) in the
 *  destructor if the test did not already stop it. */
struct TestServer
{
    serve::ServeConfig cfg;
    std::thread thread;
    int exitCode = -1;
    bool stopped = false;

    explicit TestServer(
        const std::string &tag, unsigned jobs = 4,
        const std::function<void(serve::ServeConfig &)> &tweak = {})
    {
        const std::string dir = scratchDir(tag);
        cfg.socketPath = dir + "/sock";
        cfg.cacheDir = dir + "/cache";
        cfg.jobs = jobs;
        if (tweak)
            tweak(cfg);
        thread = std::thread([this] { exitCode = serve::serveLoop(cfg); });
        waitReady();
    }

    ~TestServer()
    {
        if (!stopped)
            stop();
    }

    void
    waitReady()
    {
        Client probe;
        for (int i = 0; i < 500; ++i) {
            if (probe.connectTo(cfg.socketPath))
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        FAIL() << "server never came up on " << cfg.socketPath;
    }

    /** Clean shutdown through the protocol; asserts exit code 0. */
    void
    stop()
    {
        stopped = true;
        Client c;
        if (c.connectTo(cfg.socketPath)) {
            wire::JsonValue r = c.rpc("{\"op\":\"shutdown\"}");
            EXPECT_TRUE(at(r, "ok").boolean);
            EXPECT_TRUE(at(r, "shutdown").boolean);
        }
        thread.join();
        EXPECT_EQ(exitCode, 0);
    }
};

/** The spec a served {"app":"worker","nodes":4,...} request builds,
 *  mirrored locally so tests can compare against direct execution. */
ExperimentSpec
workerCell(const std::string &proto, std::uint64_t seed)
{
    ExperimentSpec s;
    s.id = "serve";
    s.app = "worker";
    s.nodes = 4;
    s.victimEntries = 6;
    s.protocol = proto == "h2" ? ProtocolConfig::hw(2)
                               : ProtocolConfig::hw(5);
    s.seed = seed;
    return s;
}

std::string
canonicalJson(const RunRecord &r)
{
    std::ostringstream os;
    r.writeJson(os, /*canonical=*/true);
    return os.str();
}

/** The raw "record" value of a response line, cut by
 *  client::recordBytes. Byte-level on purpose: the gate is
 *  byte-identity with direct execution, not structural equality. */
std::string
recordOf(const std::string &line)
{
    std::string rec;
    EXPECT_TRUE(client::recordBytes(line, rec)) << line;
    return rec;
}

} // anonymous namespace

TEST(Serve, RunReportsAuthoritativeSourceAndByteIdenticalRecords)
{
    setQuiet(true);
    TestServer server("basic");
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));

    const std::string req =
        "{\"op\":\"run\",\"app\":\"worker\",\"nodes\":4,"
        "\"protocol\":\"h2\",\"seed\":7,\"tag\":\"t\","
        "\"canonical\":true}";

    c.sendLine(req);
    std::string cold_line;
    ASSERT_TRUE(c.readLine(cold_line));
    wire::JsonValue cold = parseJson(cold_line);
    EXPECT_TRUE(at(cold, "ok").boolean);
    EXPECT_EQ(at(cold, "tag").raw, "t");
    EXPECT_EQ(at(cold, "source").raw, "sim");

    // Same cell again: now the cache is authoritative, and the
    // response says so because execute() reported it — not because
    // the serve path guessed with a pre-execution probe.
    c.sendLine(req);
    std::string warm_line;
    ASSERT_TRUE(c.readLine(warm_line));
    wire::JsonValue warm = parseJson(warm_line);
    EXPECT_EQ(at(warm, "source").raw, "cache");

    // The stats op accounts both runs, and both connections: the
    // readiness probe's and this one.
    const wire::JsonValue stats = c.rpc("{\"op\":\"stats\"}");
    EXPECT_EQ(numberOf(at(at(stats, "stats"), "stores")), 1);
    EXPECT_EQ(numberOf(at(at(stats, "stats"), "hits")), 1);
    EXPECT_EQ(numberOf(at(at(stats, "stats"), "accepted")), 2);

    // Hot or cold, the record bytes match a direct execution.
    Runner direct(/*fail_fast=*/false);
    const std::string want = canonicalJson(direct.execute(
        workerCell("h2", 7)));
    EXPECT_EQ(recordOf(cold_line), want);
    EXPECT_EQ(recordOf(warm_line), want);

    server.stop();
}

TEST(Serve, NonStringTagIsRejectedButEchoed)
{
    setQuiet(true);
    TestServer server("badtag", 1);
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));

    wire::JsonValue num = c.rpc("{\"op\":\"run\",\"tag\":7}");
    EXPECT_FALSE(at(num, "ok").boolean);
    ASSERT_EQ(at(num, "tag").kind, wire::JsonValue::Kind::Number);
    EXPECT_EQ(numberOf(at(num, "tag")), 7);
    EXPECT_NE(at(num, "error").raw.find("tag"), std::string::npos);

    // Structured tags echo back as the JSON they were.
    wire::JsonValue arr = c.rpc("{\"op\":\"run\",\"tag\":[1,\"x\"]}");
    EXPECT_FALSE(at(arr, "ok").boolean);
    ASSERT_EQ(at(arr, "tag").kind, wire::JsonValue::Kind::Array);
    ASSERT_EQ(at(arr, "tag").items.size(), 2u);
    EXPECT_EQ(at(arr, "tag").items[1].raw, "x");

    server.stop();
}

TEST(Serve, DuplicateRequestKeysAreRejected)
{
    setQuiet(true);
    TestServer server("dup", 1);
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));

    wire::JsonValue top = c.rpc(
        "{\"op\":\"run\",\"app\":\"worker\",\"nodes\":4,\"nodes\":8}");
    EXPECT_FALSE(at(top, "ok").boolean);
    EXPECT_NE(at(top, "error").raw.find("duplicate key 'nodes'"),
              std::string::npos);

    // Nested objects are held to the same standard.
    wire::JsonValue nested = c.rpc(
        "{\"op\":\"run\",\"app\":\"worker\",\"nodes\":4,"
        "\"params\":{\"wss\":\"3\",\"wss\":\"4\"}}");
    EXPECT_FALSE(at(nested, "ok").boolean);
    EXPECT_NE(at(nested, "error").raw.find("duplicate key 'wss'"),
              std::string::npos);

    server.stop();
}

TEST(Serve, GarbageAndOversizedLinesNeverTakeTheServerDown)
{
    setQuiet(true);
    TestServer server("garbage", 1);

    {
        Client c;
        ASSERT_TRUE(c.connectTo(server.cfg.socketPath));
        EXPECT_FALSE(at(c.rpc("this is not json"), "ok").boolean);
        EXPECT_FALSE(at(c.rpc("[1,2,3]"), "ok").boolean);
        EXPECT_FALSE(at(c.rpc("{\"op\":\"run\",\"app\":"), "ok").boolean);
        // The connection survived all of it.
        EXPECT_TRUE(at(c.rpc("{\"op\":\"stats\"}"), "ok").boolean);
    }

    {
        // A >1MiB line without a newline: the server answers a
        // structured error and drops the connection rather than
        // buffering without bound.
        Client c;
        ASSERT_TRUE(c.connectTo(server.cfg.socketPath));
        std::string huge(2u << 20, 'a');
        c.sendLine(huge);
        std::string line;
        ASSERT_TRUE(c.readLine(line));
        wire::JsonValue resp = parseJson(line);
        EXPECT_FALSE(at(resp, "ok").boolean);
        EXPECT_NE(at(resp, "error").raw.find("too long"),
                  std::string::npos);
        EXPECT_EQ(c.read(line), wire::ReadStatus::Closed)
            << "connection not closed";
    }

    // And a fresh client still gets service.
    Client after;
    ASSERT_TRUE(after.connectTo(server.cfg.socketPath));
    EXPECT_TRUE(at(after.rpc("{\"op\":\"stats\"}"), "ok").boolean);

    server.stop();
}

TEST(Serve, BadAppParametersAreBadRequestsNotAnExit)
{
    setQuiet(true);
    TestServer server("badparam", 1);
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));

    // Each request names its parameter in the error; none reaches an
    // app's constructor, so none can stop the server.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"{\"op\":\"run\",\"app\":\"worker\",\"nodes\":4,"
         "\"params\":{\"bogus\":\"1\"}}",
         "worker: unknown parameter 'bogus' (=1)"},
        {"{\"op\":\"run\",\"app\":\"tsp\",\"params\":{\"cities\":\"abc\"}}",
         "tsp: parameter cities=abc is not an integer"},
        {"{\"op\":\"run\",\"app\":\"tsp\",\"params\":{\"cities\":\"2\"}}",
         "tsp: parameter cities=2 must be in [3, 16]"},
        {"{\"op\":\"sweep\",\"app\":\"aq\",\"params\":"
         "{\"tolerance\":\"tiny\"},\"grid\":{\"seed\":[1,2]}}",
         "sweep cell 0 (seed=1): aq: parameter tolerance=tiny is not a "
         "number"},
    };
    for (const auto &[req, error] : cases) {
        wire::JsonValue r = c.rpc(req);
        EXPECT_FALSE(at(r, "ok").boolean) << req;
        EXPECT_EQ(at(r, "error_kind").raw, "bad_request") << req;
        EXPECT_EQ(at(r, "error").raw, error) << req;
    }

    // Still serving, on the same connection.
    wire::JsonValue run = c.rpc(
        "{\"op\":\"run\",\"app\":\"worker\",\"nodes\":4,"
        "\"params\":{\"wss\":\"2\"}}");
    EXPECT_TRUE(at(run, "ok").boolean);

    server.stop();
}

TEST(Serve, AppParametersTheMachineCannotHoldAreBadRequests)
{
    setQuiet(true);
    TestServer server("heapparam", 1);
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));

    // In EVOLVE's own range, but the fitness table overruns the
    // segments of the machine each cell runs on (a sequential cell
    // runs on one node).
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"{\"op\":\"run\",\"app\":\"evolve\",\"nodes\":2,"
         "\"params\":{\"dims\":\"20\"}}",
         "evolve: parameter dims=20 does not fit the shared memory of a "
         "2-node machine (4 MiB per node)"},
        {"{\"op\":\"run\",\"app\":\"evolve\",\"nodes\":8,\"seq\":true,"
         "\"params\":{\"dims\":\"19\",\"walks\":\"1\"}}",
         "evolve: parameter dims=19 does not fit the shared memory of a "
         "1-node machine (4 MiB per node)"},
    };
    for (const auto &[req, error] : cases) {
        wire::JsonValue r = c.rpc(req);
        EXPECT_FALSE(at(r, "ok").boolean) << req;
        EXPECT_EQ(at(r, "error_kind").raw, "bad_request") << req;
        EXPECT_EQ(at(r, "error").raw, error) << req;
    }

    // Still serving, on the same connection.
    wire::JsonValue run = c.rpc(
        "{\"op\":\"run\",\"app\":\"worker\",\"nodes\":4,"
        "\"params\":{\"wss\":\"2\"}}");
    EXPECT_TRUE(at(run, "ok").boolean);

    server.stop();
}

TEST(Serve, SweepStreamsEveryCellByteIdenticalToDirectExecution)
{
    setQuiet(true);
    TestServer server("sweep");
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));

    c.sendLine("{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":4,"
               "\"tag\":\"grid\",\"canonical\":true,"
               "\"grid\":{\"protocol\":[\"h2\",\"h5\"],"
               "\"seed\":[1,2]}}");

    // 4 cell lines in completion order, then the completion line.
    std::vector<std::string> cell_lines(4);
    bool done = false;
    for (int i = 0; i < 5; ++i) {
        std::string line;
        ASSERT_TRUE(c.readLine(line));
        wire::JsonValue v = parseJson(line);
        ASSERT_TRUE(at(v, "ok").boolean) << line;
        EXPECT_EQ(at(v, "tag").raw, "grid");
        if (has(v, "sweep_done")) {
            EXPECT_FALSE(done) << "two completion lines";
            EXPECT_EQ(numberOf(at(v, "cells")), 4);
            done = true;
            EXPECT_EQ(i, 4) << "completion line before the last cell";
            continue;
        }
        EXPECT_EQ(numberOf(at(v, "of")), 4);
        int cell = static_cast<int>(numberOf(at(v, "cell")));
        ASSERT_GE(cell, 0);
        ASSERT_LT(cell, 4);
        EXPECT_TRUE(cell_lines[cell].empty()) << "cell repeated";
        cell_lines[cell] = line;
    }
    ASSERT_TRUE(done);

    // Row-major, last grid key fastest: cell k is (protocol[k/2],
    // seed[k%2]) — and every record is the bytes direct execution of
    // that cell produces.
    Runner direct(/*fail_fast=*/false);
    const char *protos[2] = {"h2", "h5"};
    const std::uint64_t seeds[2] = {1, 2};
    for (int k = 0; k < 4; ++k) {
        wire::JsonValue v = parseJson(cell_lines[k]);
        std::ostringstream want_key;
        want_key << "protocol=" << protos[k / 2] << " seed="
                 << seeds[k % 2];
        EXPECT_EQ(at(v, "cell_key").raw, want_key.str());
        EXPECT_EQ(recordOf(cell_lines[k]),
                  canonicalJson(direct.execute(
                      workerCell(protos[k / 2], seeds[k % 2]))));
    }

    // All-or-nothing validation: one bad cell fails the whole sweep
    // with the offending cell named, and nothing runs.
    wire::JsonValue before = c.rpc("{\"op\":\"stats\"}");
    const double misses = numberOf(at(at(before, "stats"), "misses"));
    wire::JsonValue bad = c.rpc(
        "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":4,"
        "\"grid\":{\"protocol\":[\"h2\",\"bogus\"]}}");
    EXPECT_FALSE(at(bad, "ok").boolean);
    EXPECT_NE(at(bad, "error").raw.find("sweep cell 1"),
              std::string::npos);
    wire::JsonValue after = c.rpc("{\"op\":\"stats\"}");
    EXPECT_EQ(numberOf(at(at(after, "stats"), "misses")), misses)
        << "a rejected sweep must not execute any cell";

    // Grid keys cannot silently override base fields.
    wire::JsonValue clash = c.rpc(
        "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":4,"
        "\"grid\":{\"nodes\":[4,8]}}");
    EXPECT_FALSE(at(clash, "ok").boolean);
    EXPECT_NE(at(clash, "error").raw.find("duplicates"),
              std::string::npos);

    server.stop();
}

TEST(Serve, ConcurrentClientsGetByteIdenticalResponses)
{
    setQuiet(true);
    TestServer server("concurrent");

    const std::string sweep_req =
        "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":4,"
        "\"canonical\":true,"
        "\"grid\":{\"protocol\":[\"h2\",\"h5\"],\"seed\":[1,2]}}";

    // Each client interleaves stats, a full sweep, a single run, and
    // stats again — all concurrently against one server. Gate:
    // per-cell records collected by every client are byte-identical.
    constexpr int clients = 3;
    std::vector<std::vector<std::string>> records(
        clients, std::vector<std::string>(4));
    std::vector<std::string> run_records(clients);
    std::vector<char> passed(clients, 0);

    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
            Client c;
            if (!c.connectTo(server.cfg.socketPath))
                return;
            if (!at(c.rpc("{\"op\":\"stats\"}"), "ok").boolean)
                return;
            c.sendLine(sweep_req);
            int seen = 0;
            for (;;) {
                std::string line;
                if (!c.readLine(line))
                    return;
                wire::JsonValue v = parseJson(line);
                if (!at(v, "ok").boolean)
                    return;
                if (has(v, "sweep_done"))
                    break;
                int cell = static_cast<int>(numberOf(at(v, "cell")));
                records[t][static_cast<std::size_t>(cell)] =
                    recordOf(line);
                ++seen;
            }
            if (seen != 4)
                return;
            std::string run_line;
            c.sendLine("{\"op\":\"run\",\"app\":\"worker\","
                       "\"nodes\":4,\"protocol\":\"h2\",\"seed\":1,"
                       "\"canonical\":true}");
            if (!c.readLine(run_line))
                return;
            run_records[t] = recordOf(run_line);
            if (!at(c.rpc("{\"op\":\"stats\"}"), "ok").boolean)
                return;
            passed[t] = true;
        });
    }
    for (auto &th : threads)
        th.join();

    Runner direct(/*fail_fast=*/false);
    const char *protos[2] = {"h2", "h5"};
    for (int t = 0; t < clients; ++t) {
        ASSERT_TRUE(passed[t]) << "client " << t << " failed";
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(records[t][k],
                      canonicalJson(direct.execute(workerCell(
                          protos[k / 2],
                          static_cast<std::uint64_t>(k % 2 + 1)))))
                << "client " << t << " cell " << k;
        EXPECT_EQ(run_records[t],
                  canonicalJson(direct.execute(workerCell("h2", 1))));
    }

    server.stop();
}

TEST(Serve, ClientHangUpMidSweepLeavesServerAndCacheIntact)
{
    setQuiet(true);
    TestServer server("hangup");

    // Kick off a 8-cell sweep, read exactly one cell, and vanish.
    {
        Client doomed;
        ASSERT_TRUE(doomed.connectTo(server.cfg.socketPath));
        doomed.sendLine(
            "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":4,"
            "\"canonical\":true,\"grid\":{\"protocol\":[\"h2\","
            "\"h5\"],\"seed\":[1,2,3,4]}}");
        std::string line;
        ASSERT_TRUE(doomed.readLine(line));
        doomed.disconnect();
    }

    // The server keeps serving other clients immediately — no global
    // drain on a hang-up.
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));
    wire::JsonValue run = c.rpc(
        "{\"op\":\"run\",\"app\":\"worker\",\"nodes\":8,"
        "\"canonical\":true}");
    EXPECT_TRUE(at(run, "ok").boolean);

    // Shutdown drains the orphaned cells; they must all have landed
    // in the cache (a hang-up wastes sends, not simulations).
    server.stop();
    cache::ResultCache rcache(server.cfg.cacheDir);
    const char *protos[2] = {"h2", "h5"};
    for (int k = 0; k < 8; ++k)
        EXPECT_TRUE(rcache.contains(workerCell(
            protos[k / 4], static_cast<std::uint64_t>(k % 4 + 1))))
            << "orphaned sweep cell " << k << " missing from cache";
}

TEST(Serve, LiveSocketIsRefusedButStaleSocketIsTakenOver)
{
    setQuiet(true);

    // The tweak runs before the server thread starts: plant a stale
    // socket file (bound once, listener long gone) at the exact path
    // the server is about to claim. Coming up at all proves the
    // connect() probe classified it as dead and unlinked it.
    TestServer server("stale", 1, [](serve::ServeConfig &c) {
        std::string err;
        const int fd = wire::openStream(c.socketPath, bindOnly, err);
        ASSERT_GE(fd, 0) << err;
        ::close(fd);
    });
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));
    EXPECT_TRUE(at(c.rpc("{\"op\":\"stats\"}"), "ok").boolean);

    // A second server pointed at the live socket must refuse to
    // start (exit 1) instead of unlinking it out from under the
    // running one — and the running one must be unharmed.
    serve::ServeConfig usurper;
    usurper.socketPath = server.cfg.socketPath;
    usurper.cacheDir = scratchDir("stale-usurper") + "/cache";
    EXPECT_EQ(serve::serveLoop(usurper), 1);
    EXPECT_TRUE(at(c.rpc("{\"op\":\"stats\"}"), "ok").boolean);

    server.stop();
}

TEST(Serve, OverloadIsShedWithARetryHintNotAHang)
{
    setQuiet(true);
    TestServer server("shed", 1, [](serve::ServeConfig &c) {
        c.maxQueuedUnits = 4;
    });
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));

    // An 8-cell chunk against a 4-unit admission queue is refused
    // deterministically — even on an idle server — with the
    // structured busy error and a retry hint, and nothing executes.
    wire::JsonValue before = c.rpc("{\"op\":\"stats\"}");
    const double misses = numberOf(at(at(before, "stats"), "misses"));
    wire::JsonValue busy = c.rpc(
        "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":4,"
        "\"canonical\":true,\"grid\":{\"protocol\":[\"h2\",\"h5\"],"
        "\"seed\":[1,2,3,4]}}");
    EXPECT_FALSE(at(busy, "ok").boolean);
    EXPECT_EQ(at(busy, "error_kind").raw, "busy");
    ASSERT_TRUE(has(busy, "retry_after_ms"));
    EXPECT_GE(numberOf(at(busy, "retry_after_ms")), 25);

    wire::JsonValue after = c.rpc("{\"op\":\"stats\"}");
    EXPECT_EQ(numberOf(at(at(after, "stats"), "misses")), misses)
        << "a shed sweep must not execute any cell";
    EXPECT_GE(numberOf(at(at(after, "stats"), "shed")), 1);
    EXPECT_EQ(numberOf(at(at(after, "stats"), "queued")), 0);

    // The same grid fits chunk by chunk: a 2-cell chunk is admitted,
    // so the busy answer was load shedding, not a broken request.
    c.sendLine("{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":4,"
               "\"canonical\":true,\"cursor\":0,\"chunk\":2,"
               "\"grid\":{\"protocol\":[\"h2\",\"h5\"],"
               "\"seed\":[1,2,3,4]}}");
    int cells = 0;
    for (;;) {
        std::string line;
        ASSERT_TRUE(c.readLine(line));
        wire::JsonValue v = parseJson(line);
        ASSERT_TRUE(at(v, "ok").boolean) << line;
        if (has(v, "sweep_chunk_done")) {
            EXPECT_EQ(numberOf(at(v, "next_cursor")), 2);
            EXPECT_EQ(numberOf(at(v, "cells")), 8);
            break;
        }
        ++cells;
    }
    EXPECT_EQ(cells, 2);

    server.stop();
}

TEST(Serve, ChunkedSweepResumesAcrossConnectionsByteIdentical)
{
    setQuiet(true);
    TestServer server("chunk");

    // 2x3 grid fetched as a 4-cell chunk on one connection and the
    // 2-cell remainder on a *fresh* connection: the cursor is client
    // state, so resume needs nothing from the server but the cache.
    const std::string base =
        "\"app\":\"worker\",\"nodes\":4,\"canonical\":true,"
        "\"grid\":{\"protocol\":[\"h2\",\"h5\"],\"seed\":[1,2,3]}";
    std::vector<std::string> cell_lines(6);

    {
        Client first;
        ASSERT_TRUE(first.connectTo(server.cfg.socketPath));
        first.sendLine("{\"op\":\"sweep\"," + base +
                       ",\"cursor\":0,\"chunk\":4}");
        for (int i = 0; i < 5; ++i) {
            std::string line;
            ASSERT_TRUE(first.readLine(line));
            wire::JsonValue v = parseJson(line);
            ASSERT_TRUE(at(v, "ok").boolean) << line;
            if (has(v, "sweep_chunk_done")) {
                EXPECT_EQ(numberOf(at(v, "cells")), 6);
                EXPECT_EQ(numberOf(at(v, "next_cursor")), 4);
                EXPECT_EQ(i, 4);
                continue;
            }
            EXPECT_EQ(numberOf(at(v, "of")), 6);
            int cell = static_cast<int>(numberOf(at(v, "cell")));
            ASSERT_GE(cell, 0);
            ASSERT_LT(cell, 4) << "chunk leaked cells past cursor+chunk";
            cell_lines[static_cast<std::size_t>(cell)] = line;
        }
    }

    Client second;
    ASSERT_TRUE(second.connectTo(server.cfg.socketPath));
    second.sendLine("{\"op\":\"sweep\"," + base +
                    ",\"cursor\":4,\"chunk\":4}");
    for (int i = 0; i < 3; ++i) {
        std::string line;
        ASSERT_TRUE(second.readLine(line));
        wire::JsonValue v = parseJson(line);
        ASSERT_TRUE(at(v, "ok").boolean) << line;
        if (has(v, "sweep_done")) {
            EXPECT_EQ(numberOf(at(v, "cells")), 6);
            EXPECT_EQ(i, 2);
            continue;
        }
        int cell = static_cast<int>(numberOf(at(v, "cell")));
        ASSERT_GE(cell, 4) << "resumed chunk re-sent an earlier cell";
        ASSERT_LT(cell, 6);
        cell_lines[static_cast<std::size_t>(cell)] = line;
    }

    // Assembled across two connections, every record matches direct
    // execution byte for byte (row-major, seed fastest).
    Runner direct(/*fail_fast=*/false);
    const char *protos[2] = {"h2", "h5"};
    for (int k = 0; k < 6; ++k) {
        ASSERT_FALSE(cell_lines[k].empty()) << "cell " << k;
        EXPECT_EQ(recordOf(cell_lines[k]),
                  canonicalJson(direct.execute(workerCell(
                      protos[k / 3],
                      static_cast<std::uint64_t>(k % 3 + 1)))))
            << "cell " << k;
    }

    // A cursor past the grid is a structural error, not a hang.
    wire::JsonValue bad = second.rpc(
        "{\"op\":\"sweep\"," + base + ",\"cursor\":6,\"chunk\":4}");
    EXPECT_FALSE(at(bad, "ok").boolean);
    EXPECT_EQ(at(bad, "error_kind").raw, "bad_request");

    server.stop();
}

TEST(Serve, ClientLibraryResumesAChaosKilledSweepByteIdentical)
{
    setQuiet(true);
    TestServer server("chaosresume");

    client::ClientConfig ccfg;
    ccfg.address = server.cfg.socketPath;
    ccfg.chunk = 2;
    ccfg.maxAttempts = 50;
    ccfg.backoffBaseMs = 1;
    ccfg.backoffMaxMs = 5;
    ccfg.chaosKillPerMille = 350;
    ccfg.chaosSeed = 11;
    client::ServeClient cli(ccfg);

    client::SweepResult res = cli.runSweep(
        "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":4,"
        "\"canonical\":true,\"grid\":{\"protocol\":[\"h2\",\"h5\"],"
        "\"seed\":[1,2,3]}}");
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.cells, 6u);
    EXPECT_GE(res.reconnects, 1u)
        << "chaos seed produced no kills; the test lost its point";

    Runner direct(/*fail_fast=*/false);
    const char *protos[2] = {"h2", "h5"};
    for (std::size_t k = 0; k < 6; ++k)
        EXPECT_EQ(res.records[k],
                  canonicalJson(direct.execute(workerCell(
                      protos[k / 3],
                      static_cast<std::uint64_t>(k % 3 + 1)))))
            << "cell " << k;

    server.stop();
}

TEST(Serve, IdleTimeoutClosesQuietClientsButNeverWaitingOnes)
{
    setQuiet(true);
    TestServer server("idle", 1, [](serve::ServeConfig &c) {
        c.idleTimeoutMs = 200;
    });

    // A client mid-sweep is never idle — waiting on results counts as
    // activity even if some cell simulates longer than the timeout.
    Client busy;
    ASSERT_TRUE(busy.connectTo(server.cfg.socketPath));
    busy.sendLine("{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":8,"
                  "\"canonical\":true,"
                  "\"grid\":{\"protocol\":[\"h2\",\"h5\"],"
                  "\"seed\":[1,2,3,4]}}");
    int cells = 0;
    bool done = false;
    while (!done) {
        std::string line;
        ASSERT_TRUE(busy.readLine(line))
            << "server idle-closed a client awaiting sweep results";
        wire::JsonValue v = parseJson(line);
        ASSERT_TRUE(at(v, "ok").boolean) << line;
        if (has(v, "sweep_done"))
            done = true;
        else
            ++cells;
    }
    EXPECT_EQ(cells, 8);

    // The same connection gone quiet gets the structured idle error
    // and then EOF — and the close is accounted for in the stats.
    std::string line;
    ASSERT_TRUE(busy.readLine(line));
    wire::JsonValue idle = parseJson(line);
    EXPECT_FALSE(at(idle, "ok").boolean);
    EXPECT_EQ(at(idle, "error_kind").raw, "idle_timeout");
    EXPECT_EQ(busy.read(line), wire::ReadStatus::Closed)
        << "connection not closed";

    Client fresh;
    ASSERT_TRUE(fresh.connectTo(server.cfg.socketPath));
    wire::JsonValue stats = fresh.rpc("{\"op\":\"stats\"}");
    EXPECT_GE(numberOf(at(at(stats, "stats"), "idle_closed")), 1);

    server.stop();
}

TEST(Serve, SigtermDrainsInFlightWorkAndExitsZero)
{
    setQuiet(true);
    TestServer server("sigterm", 2, [](serve::ServeConfig &c) {
        c.handleSignals = true;
    });
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));
    EXPECT_TRUE(at(c.rpc("{\"op\":\"run\",\"app\":\"worker\","
                         "\"nodes\":4,\"canonical\":true}"),
                   "ok").boolean);

    // The loop's own handler (installed because handleSignals is on,
    // restored before serveLoop returns) turns SIGTERM into a drain:
    // the thread exits 0 instead of the signal killing this test.
    ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
    server.stopped = true;
    server.thread.join();
    EXPECT_EQ(server.exitCode, 0);
    EXPECT_FALSE(::access(server.cfg.socketPath.c_str(), F_OK) == 0)
        << "drained server left its socket behind";
}

TEST(WireJson, NestingDepthIsBoundedNotAStackOverflow)
{
    // Depth exactly at the bound parses...
    {
        std::string ok_doc(wire::JsonParser::maxDepth, '[');
        ok_doc += "1";
        ok_doc.append(wire::JsonParser::maxDepth, ']');
        wire::JsonParser p(ok_doc);
        wire::JsonValue v;
        EXPECT_TRUE(p.parseWhole(v)) << p.err;
    }
    // ...one level past it is refused with a structured error...
    {
        std::string deep(wire::JsonParser::maxDepth + 1, '[');
        deep += "1";
        deep.append(wire::JsonParser::maxDepth + 1, ']');
        wire::JsonParser p(deep);
        wire::JsonValue v;
        EXPECT_FALSE(p.parseWhole(v));
        EXPECT_NE(p.err.find("nesting"), std::string::npos) << p.err;
    }
    // ...and a line-cap-sized run of '[' (the stack-overflow attack:
    // recursion happens per bracket before any close is needed) fails
    // the same way instead of crashing the process.
    {
        std::string attack(512u << 10, '[');
        wire::JsonParser p(attack);
        wire::JsonValue v;
        EXPECT_FALSE(p.parseWhole(v));
        EXPECT_NE(p.err.find("nesting"), std::string::npos) << p.err;
    }
    // renderJson shares the bound: a hand-built value nested past it
    // renders the excess as null instead of recursing without limit.
    {
        wire::JsonValue deep;
        deep.kind = wire::JsonValue::Kind::Number;
        deep.raw = "7";
        for (int i = 0; i < wire::JsonParser::maxDepth + 6; ++i) {
            wire::JsonValue wrap;
            wrap.kind = wire::JsonValue::Kind::Array;
            wrap.items.push_back(std::move(deep));
            deep = std::move(wrap);
        }
        std::string out;
        wire::renderJson(deep, out);
        EXPECT_NE(out.find("null"), std::string::npos);
        EXPECT_EQ(out.find("7"), std::string::npos)
            << "value past the bound should have been cut";
    }
}

TEST(Serve, DeeplyNestedRequestGetsAStructuredErrorNotACrash)
{
    setQuiet(true);
    TestServer server("deepnest", 1);
    Client c;
    ASSERT_TRUE(c.connectTo(server.cfg.socketPath));

    // 400 KiB of '[' fits under the 1 MiB line cap, so it reaches the
    // parser — which must answer a structured error, not overflow the
    // reader thread's stack.
    wire::JsonValue deep = c.rpc(std::string(400u << 10, '['));
    EXPECT_FALSE(at(deep, "ok").boolean);
    EXPECT_NE(at(deep, "error").raw.find("nesting"),
              std::string::npos);

    // Same for an object chain, and the connection survives both.
    std::string obj;
    for (int i = 0; i < 40'000; ++i)
        obj += "{\"a\":";
    wire::JsonValue nested = c.rpc(obj);
    EXPECT_FALSE(at(nested, "ok").boolean);
    EXPECT_TRUE(at(c.rpc("{\"op\":\"stats\"}"), "ok").boolean);

    server.stop();
}

TEST(Serve, OversizedClientChunkIsClampedNotRejected)
{
    setQuiet(true);
    TestServer server("bigchunk");

    // Far past the server's 4096-per-request maximum: runSweep clamps
    // client-side instead of drawing a terminal bad_request.
    client::ClientConfig ccfg;
    ccfg.address = server.cfg.socketPath;
    ccfg.chunk = 1u << 20;
    client::ServeClient cli(ccfg);

    client::SweepResult res = cli.runSweep(
        "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":4,"
        "\"canonical\":true,\"grid\":{\"protocol\":[\"h2\"],"
        "\"seed\":[1,2]}}");
    ASSERT_TRUE(res.ok) << res.errorKind << ": " << res.error;
    ASSERT_EQ(res.cells, 2u);

    Runner direct(/*fail_fast=*/false);
    for (std::size_t k = 0; k < 2; ++k)
        EXPECT_EQ(res.records[k],
                  canonicalJson(direct.execute(workerCell(
                      "h2", static_cast<std::uint64_t>(k + 1)))));

    server.stop();
}

TEST(Serve, DisconnectedClientsReaderThreadsAreReaped)
{
    setQuiet(true);
    TestServer server("reap", 1);

    // Churn a few clients; each disconnect retires a reader thread
    // that the accept loop must join promptly (not hold until
    // shutdown), which it accounts for in the stats.
    for (int i = 0; i < 3; ++i) {
        Client c;
        ASSERT_TRUE(c.connectTo(server.cfg.socketPath));
        EXPECT_TRUE(at(c.rpc("{\"op\":\"stats\"}"), "ok").boolean);
    }

    Client watcher;
    ASSERT_TRUE(watcher.connectTo(server.cfg.socketPath));
    double reaped = 0;
    for (int i = 0; i < 500; ++i) {
        wire::JsonValue stats = watcher.rpc("{\"op\":\"stats\"}");
        reaped = numberOf(at(at(stats, "stats"), "readers_reaped"));
        if (reaped >= 3)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(reaped, 3)
        << "disconnected clients' reader threads were never joined";

    server.stop();
}

TEST(Serve, UnixConnectHonorsTheDeadlineAgainstAFullBacklog)
{
    // A listener that never accepts, with a saturated backlog: a
    // blocking AF_UNIX connect() would hang indefinitely, so the
    // client must use its bounded path and fail with a timeout.
    const std::string path = scratchDir("backlog") + "/sock";
    std::string err;
    const int lfd = wire::openStream(path, listenOn(0), err);
    ASSERT_GE(lfd, 0) << err;

    std::vector<int> fillers;
    for (int i = 0; i < 16; ++i) {
        const int f = wire::openStream(
            path,
            [](int s, const sockaddr *sa, socklen_t len) {
                wire::setNonBlocking(s);
                ::connect(s, sa, len);   // queued, or refused: full
                return std::string();
            },
            err);
        ASSERT_GE(f, 0) << err;
        fillers.push_back(f);
    }

    client::ClientConfig ccfg;
    ccfg.address = path;
    ccfg.connectTimeoutMs = 200;
    client::ServeClient cli(ccfg);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(cli.connect(&err));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed, 5000) << "connect ignored its deadline";
    EXPECT_NE(err.find("connect"), std::string::npos) << err;

    for (int f : fillers)
        ::close(f);
    ::close(lfd);
    ::unlink(path.c_str());
}

namespace
{

/** A connected socket pair, closed on scope exit. */
struct SocketPair
{
    int fd[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0);
    }
    ~SocketPair()
    {
        for (int f : fd)
            if (f >= 0)
                ::close(f);
    }
};

} // anonymous namespace

TEST(LineIo, QuietTimerIsHeldOffByThePredicateAndRestartedByBytes)
{
    SocketPair sp;
    wire::LineReader in;
    std::string line;

    // Without a predicate, silence ends the read Quiet.
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(in.read(sp.fd[0], line, 64, 100), wire::ReadStatus::Quiet);
    EXPECT_GE(wire::msSince(t0), 100);

    // While the predicate says bytes are owed, the timer is held off:
    // the read cannot end Quiet before the predicate turns false.
    t0 = std::chrono::steady_clock::now();
    const auto owed_until = t0 + std::chrono::milliseconds(400);
    EXPECT_EQ(in.read(sp.fd[0], line, 64, 100,
                      [&] {
                          return std::chrono::steady_clock::now() <
                                 owed_until;
                      }),
              wire::ReadStatus::Quiet);
    EXPECT_GE(wire::msSince(t0), 400);

    // The timer counts from the last received byte, not from the
    // start of the read: two gaps shorter than the bound add up to
    // more than it, and the line still arrives.
    t0 = std::chrono::steady_clock::now();
    std::thread writer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
        ASSERT_EQ(::send(sp.fd[1], "ab", 2, MSG_NOSIGNAL), 2);
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
        ASSERT_EQ(::send(sp.fd[1], "c\n", 2, MSG_NOSIGNAL), 2);
    });
    EXPECT_EQ(in.read(sp.fd[0], line, 64, 1000), wire::ReadStatus::Line);
    EXPECT_GE(wire::msSince(t0), 1000);
    EXPECT_EQ(line, "abc");
    writer.join();
}

TEST(LineIo, ReaderSplitsPipelinedLinesCapsLengthAndReportsClose)
{
    SocketPair sp;
    wire::LineReader in;
    std::string line;
    const std::string bytes = "0123456789\nab\n";
    ASSERT_EQ(::send(sp.fd[1], bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    // A line exactly at the cap is a line, and the one pipelined
    // behind it is kept for the next read.
    EXPECT_EQ(in.read(sp.fd[0], line, 10, 1000), wire::ReadStatus::Line);
    EXPECT_EQ(line, "0123456789");
    EXPECT_EQ(in.read(sp.fd[0], line, 10, 1000), wire::ReadStatus::Line);
    EXPECT_EQ(line, "ab");

    // One byte past the cap is Overflow, with or without its newline.
    ASSERT_EQ(::send(sp.fd[1], "0123456789A\n", 12, MSG_NOSIGNAL), 12);
    EXPECT_EQ(in.read(sp.fd[0], line, 10, 1000),
              wire::ReadStatus::Overflow);
    wire::LineReader fresh;
    ASSERT_EQ(::send(sp.fd[1], "0123456789A", 11, MSG_NOSIGNAL), 11);
    EXPECT_EQ(fresh.read(sp.fd[0], line, 10, 1000),
              wire::ReadStatus::Overflow);

    // A hang-up is Closed, not Quiet and not a line.
    SocketPair gone;
    ::close(gone.fd[1]);
    gone.fd[1] = -1;
    EXPECT_EQ(in.read(gone.fd[0], line, 10, 1000),
              wire::ReadStatus::Closed);
}

TEST(LineIo, SendLineGivesUpOnANeverReadingPeerAfterItsStallBound)
{
    SocketPair sp;
    int small = 4096;
    ::setsockopt(sp.fd[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    const std::string big(8u << 20, 'x');
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(wire::sendLine(sp.fd[0], big, 200));
    const int took = wire::msSince(t0);
    EXPECT_GE(took, 200);
    EXPECT_LT(took, 10'000);

    // A peer that is gone fails the send at once.
    SocketPair gone;
    ::close(gone.fd[1]);
    gone.fd[1] = -1;
    EXPECT_FALSE(wire::sendLine(gone.fd[0], "{}", 0));
}

TEST(ServeClient, AnEndlessResponseLineIsAnOverflowAndIsNotRetried)
{
    // A listener that answers any connection with bytes and no
    // newline, past the client's cap.
    const std::string path = scratchDir("overflow") + "/sock";
    std::string err;
    const int lfd = wire::openStream(path, listenOn(4), err);
    ASSERT_GE(lfd, 0) << err;
    std::thread streamer([lfd] {
        const int c = ::accept(lfd, nullptr, nullptr);
        if (c < 0)
            return;
        const std::string chunk(1u << 20, 'x');
        std::size_t sent = 0;
        while (sent <= client::maxResponseLine + chunk.size()) {
            const ssize_t n =
                ::send(c, chunk.data(), chunk.size(), MSG_NOSIGNAL);
            if (n <= 0)
                break;   // the client hung up at its cap
            sent += static_cast<std::size_t>(n);
        }
        ::close(c);
    });

    client::ClientConfig ccfg;
    ccfg.address = path;
    ccfg.maxAttempts = 3;
    ccfg.backoffBaseMs = 1;
    client::ServeClient cli(ccfg);
    const client::Response r = cli.rpcRetry("{\"op\":\"stats\"}");
    streamer.join();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, "overflow") << r.error;
    EXPECT_FALSE(cli.connected());

    // No second connection is waiting: overflow is not retried.
    wire::setNonBlocking(lfd);
    EXPECT_LT(::accept(lfd, nullptr, nullptr), 0);
    ::close(lfd);
    ::unlink(path.c_str());
}

TEST(ServeClient, ASweepCellClaimingAHugeGridIsAParseError)
{
    // A peer that answers a sweep with one cell line whose "of" (2^62)
    // no allocation could hold: the client must refuse the size, not
    // size its bookkeeping from it.
    const std::string path = scratchDir("hugeof") + "/sock";
    std::string err;
    const int lfd = wire::openStream(path, listenOn(4), err);
    ASSERT_GE(lfd, 0) << err;
    std::thread peer([lfd] {
        const int c = ::accept(lfd, nullptr, nullptr);
        if (c < 0)
            return;
        char ch = 0;
        while (::recv(c, &ch, 1, 0) == 1 && ch != '\n') {
        }
        const std::string line =
            "{\"ok\":true,\"cell\":0,\"of\":4611686018427387904,"
            "\"cell_key\":\"k\",\"record\":{}}\n";
        ::send(c, line.data(), line.size(), MSG_NOSIGNAL);
        ::close(c);
    });

    client::ClientConfig ccfg;
    ccfg.address = path;
    ccfg.maxAttempts = 1;
    client::ServeClient cli(ccfg);
    const client::SweepResult res =
        cli.runSweep("{\"op\":\"sweep\",\"grid\":{\"seed\":[1,2]}}");
    peer.join();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.errorKind, "parse") << res.error;
    EXPECT_TRUE(res.records.empty());
    ::close(lfd);
    ::unlink(path.c_str());
}

TEST(ServeClient, SweepCountsEveryReconnectFromAnOpenConnection)
{
    setQuiet(true);
    TestServer server("reconnects");
    client::ClientConfig ccfg;
    ccfg.address = server.cfg.socketPath;
    ccfg.chunk = 1;
    ccfg.maxAttempts = 10;
    ccfg.backoffBaseMs = 1;
    ccfg.backoffMaxMs = 2;
    ccfg.chaosKillPerMille = 1000;   // kill after every cell
    client::ServeClient cli(ccfg);
    ASSERT_TRUE(cli.connect());

    // Six cells, each on its own connection: the sweep began on an
    // open one, so every one after it is a reconnect.
    client::SweepResult res = cli.runSweep(
        "{\"op\":\"sweep\",\"app\":\"worker\",\"nodes\":4,"
        "\"canonical\":true,\"grid\":{\"protocol\":[\"h2\",\"h5\"],"
        "\"seed\":[1,2,3]}}");
    ASSERT_TRUE(res.ok) << res.errorKind << ": " << res.error;
    EXPECT_EQ(res.cells, 6u);
    EXPECT_EQ(res.reconnects, 5u);

    server.stop();
}

TEST(ServeClient, RpcRetryReconnectsAfterAnIdleClose)
{
    setQuiet(true);
    TestServer server("idleretry", 1, [](serve::ServeConfig &c) {
        c.idleTimeoutMs = 100;
    });

    client::ClientConfig ccfg;
    ccfg.address = server.cfg.socketPath;
    ccfg.backoffBaseMs = 1;
    client::ServeClient cli(ccfg);
    ASSERT_TRUE(cli.connect());
    // The server idle-closes the quiet connection, so the request's
    // send fails on the socket the server left: the retry loop must
    // reconnect, and the answer comes over the new connection, from a
    // server that counts the close.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const client::Response r = cli.rpcRetry("{\"op\":\"stats\"}");
    ASSERT_TRUE(r.ok) << r.errorKind << ": " << r.error;
    EXPECT_EQ(numberOf(at(at(r.doc, "stats"), "idle_closed")), 1);

    server.stop();
}
