#include "exp/serve.hh"

#include <algorithm>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/json.hh"
#include "exp/cache/result_cache.hh"
#include "exp/line_io.hh"
#include "exp/pool.hh"
#include "exp/runner.hh"
#include "exp/spec_codec.hh"
#include "exp/wire_json.hh"

namespace swex
{
namespace serve
{

namespace
{

using wire::JsonValue;
using wire::JsonParser;
using wire::numberAsU64;
using wire::renderJson;

/** Reject request lines past this size — a runaway (or adversarial)
 *  client must not grow the server's buffer without bound. Generous:
 *  a maximal run request is a few hundred bytes. */
constexpr std::size_t maxRequestLine = 1u << 20;

/** listen(2) backlog: connections the kernel queues for accept().
 *  A client that finds it full retries until its connect timeout. */
constexpr int listenBacklog = 64;

/**
 * One connected client: line reader + locked line writer over the
 * accepted socket. Owned by shared_ptr — the reader thread holds one
 * reference and every pool task responding to this client holds
 * another, so the fd outlives the last in-flight response no matter
 * when the client hangs up. The destructor (last reference dropped)
 * closes the fd.
 */
struct Connection
{
    int fd;
    const std::uint64_t id;   ///< fair-scheduling key
    const int sendTimeoutMs;  ///< ServeConfig::sendTimeoutMs
    std::mutex writeMutex;
    wire::LineReader in;      ///< used by the reader thread only

    /** Admitted work units whose responses have not been sent yet; a
     *  connection waiting on them is never idle. */
    std::atomic<std::uint64_t> pending{0};

    /** Set when a send failed (the peer reset, or stalled past the
     *  timeout): every later send for this connection is dropped
     *  immediately, so a stalled peer costs at most one timeout, not
     *  one per response. */
    std::atomic<bool> dead{false};

    Connection(int fd_, std::uint64_t id_, int send_timeout_ms)
        : fd(fd_), id(id_), sendTimeoutMs(send_timeout_ms)
    {}
    ~Connection() { ::close(fd); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send one response line. A dead client is not an error — the
     *  remaining scheduled runs still complete (and fill the cache).
     *  A failed send, including a peer that stops draining its socket
     *  for sendTimeoutMs, marks the connection dead and shuts the
     *  socket down, so it can never wedge a pool worker and its
     *  reader sees the end at once. */
    void
    sendLine(const std::string &line)
    {
        std::lock_guard<std::mutex> hold(writeMutex);
        if (dead.load(std::memory_order_acquire))
            return;
        if (!wire::sendLine(fd, line, sendTimeoutMs)) {
            dead.store(true, std::memory_order_release);
            ::shutdown(fd, SHUT_RDWR);
        }
    }
};

/** Every response line: {"ok":<ok>[,"tag":<tag>]<members>}.
 *  @p tag_json is a pre-rendered JSON value ("" = no tag), so an
 *  error can echo a tag of any type verbatim; @p members is a
 *  pre-rendered run of ,"key":value pairs. */
std::string
envelope(bool ok, const std::string &tag_json, const std::string &members)
{
    std::string out = ok ? "{\"ok\":true" : "{\"ok\":false";
    if (!tag_json.empty())
        out += ",\"tag\":" + tag_json;
    out += members;
    out += '}';
    return out;
}

/** An error envelope. @p kind is the machine-readable error class;
 *  @p extra is a pre-rendered fragment spliced after it (e.g.
 *  retry_after_ms). */
std::string
errorLine(const std::string &tag_json, const std::string &msg,
          const std::string &kind, const std::string &extra = "")
{
    std::string members = ",\"error\":";
    json::appendString(members, msg);
    members += ",\"error_kind\":\"" + kind + "\"" + extra;
    return envelope(false, tag_json, members);
}

/**
 * Per-client fair scheduling on the shared pool. Tasks are queued
 * per connection and drained round-robin: each pool "ticket" runs
 * exactly one task, taken from the next connection (in rotation)
 * that has work pending — so a client that enqueued a 4096-cell
 * chunk and a client that asked for one run interleave 1:1 instead
 * of FIFO luck deciding the single run waits out the whole chunk.
 */
class FairQueue
{
  public:
    explicit FairQueue(ThreadPool &pool_) : pool(pool_) {}

    void
    enqueue(std::uint64_t conn_id, std::function<void()> task)
    {
        {
            std::lock_guard<std::mutex> hold(m);
            auto &dq = queues[conn_id];
            if (dq.empty())
                rr.push_back(conn_id);
            dq.push_back(std::move(task));
        }
        pool.submit([this] { runNext(); });
    }

  private:
    void
    runNext()
    {
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> hold(m);
            // One ticket per enqueued task: rr cannot be empty here.
            std::uint64_t id = rr.front();
            rr.pop_front();
            auto it = queues.find(id);
            task = std::move(it->second.front());
            it->second.pop_front();
            if (it->second.empty())
                queues.erase(it);
            else
                rr.push_back(id);   // rotate to the back
        }
        task();
    }

    std::mutex m;
    std::map<std::uint64_t, std::deque<std::function<void()>>> queues;
    std::deque<std::uint64_t> rr;   ///< conn ids with pending work
    ThreadPool &pool;
};

/**
 * Everything the per-connection reader threads share. The pool is the
 * single execution queue — every run or sweep cell from every client
 * lands on it (through the fair queue), so cfg.jobs bounds concurrent
 * simulations globally, not per client.
 */
struct ServerState
{
    const ServeConfig &cfg;
    std::unique_ptr<cache::ResultCache> cache;
    Runner runner{/*fail_fast=*/false};
    ThreadPool pool;
    FairQueue fair;
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> fdExhausted{0};
    std::atomic<std::uint64_t> idleClosed{0};
    std::atomic<std::uint64_t> readersReaped{0};
    std::atomic<std::uint64_t> queuedUnits{0};
    std::atomic<std::uint64_t> nextConnId{0};
    std::atomic<bool> stopping{false};
    bool canonicalDefault = false;
    int wakeWrite = -1;   ///< pipe end that unblocks the accept loop

    std::mutex connMutex;
    std::vector<std::weak_ptr<Connection>> conns;

    explicit ServerState(const ServeConfig &cfg_)
        : cfg(cfg_), pool(cfg_.jobs == 0 ? 1 : cfg_.jobs), fair(pool)
    {}

    /**
     * Bounded admission: reserve @p units work units, or refuse.
     * Refusal fills @p depth with the queue depth that caused it, for
     * the retry_after_ms hint. The add-then-undo dance keeps the
     * check race-free without a lock: two readers admitting
     * concurrently can only over-count transiently, never admit past
     * the bound.
     */
    bool
    admit(std::uint64_t units, std::uint64_t &depth)
    {
        std::uint64_t cur =
            queuedUnits.fetch_add(units, std::memory_order_acq_rel);
        if (cfg.maxQueuedUnits != 0 &&
            cur + units > cfg.maxQueuedUnits) {
            queuedUnits.fetch_sub(units, std::memory_order_acq_rel);
            depth = cur;
            shed.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        return true;
    }

    /** Deterministic backpressure hint: how long until @p depth units
     *  have plausibly drained on this pool. Clamped so a deep queue
     *  never tells a client to go away for minutes. */
    std::uint64_t
    retryAfterMs(std::uint64_t depth) const
    {
        unsigned jobs = pool.size() == 0 ? 1 : pool.size();
        std::uint64_t est = 25 * (depth / jobs + 1);
        return est > 10'000 ? 10'000 : est;
    }

    /** Track @p c for the shutdown broadcast. If shutdown already
     *  started, the new connection is wound down immediately — this
     *  check under the same mutex closes the accept-vs-shutdown race
     *  (a reader the broadcast missed would hang the final join). */
    void
    registerConn(const std::shared_ptr<Connection> &c)
    {
        std::lock_guard<std::mutex> hold(connMutex);
        conns.erase(std::remove_if(conns.begin(), conns.end(),
                                   [](const std::weak_ptr<Connection> &w) {
                                       return w.expired();
                                   }),
                    conns.end());
        conns.push_back(c);
        if (stopping.load(std::memory_order_acquire))
            ::shutdown(c->fd, SHUT_RD);
    }

    /** Begin global shutdown: every connected client's read side is
     *  closed, so every reader thread drains its buffered requests
     *  and exits. Write sides stay open — in-flight responses still
     *  deliver. */
    void
    beginShutdown()
    {
        std::lock_guard<std::mutex> hold(connMutex);
        stopping.store(true, std::memory_order_release);
        for (const auto &w : conns)
            if (std::shared_ptr<Connection> c = w.lock())
                ::shutdown(c->fd, SHUT_RD);
    }

    /** Unblock the accept loop's poll() so it can observe stopping. */
    void
    wakeAccept()
    {
        char b = 0;
        ssize_t r = ::write(wakeWrite, &b, 1);
        (void)r;   // pipe full means a wake-up is already pending
    }

    std::mutex doneMutex;
    std::vector<std::uint64_t> doneReaders;

    /** A reader thread's last act: queue its connection id for the
     *  accept loop to join, and wake the loop so a long-lived server
     *  reaps disconnected clients' threads instead of accumulating
     *  unjoined handles until shutdown. */
    void
    readerDone(std::uint64_t conn_id)
    {
        {
            std::lock_guard<std::mutex> hold(doneMutex);
            doneReaders.push_back(conn_id);
        }
        wakeAccept();
    }

    std::vector<std::uint64_t>
    takeDoneReaders()
    {
        std::lock_guard<std::mutex> hold(doneMutex);
        std::vector<std::uint64_t> out;
        out.swap(doneReaders);
        return out;
    }
};

/** The work one request admits, every cell validated before any
 *  runs: a "run" is a one-cell batch, a "sweep" one chunk of its
 *  grid. */
struct Batch
{
    std::vector<ExperimentSpec> specs;
    std::vector<std::string> cellFields;   ///< ,"cell":K,"of":N,...
    std::string trailer;   ///< sent after the last cell; "" = none
};

/**
 * Expand one chunk of a "sweep" request: the base fields describe one
 * run, each "grid" entry (a request field name, or "params.<key>",
 * mapped to a non-empty array of scalar values) becomes an axis, and
 * cells enumerate row-major in grid key order with the last axis
 * fastest. "cursor"/"chunk" select the cells this request serves;
 * the grid shape and every cell of the chunk must validate or the
 * whole request is rejected with the offending cell named. Chunking
 * is what makes sweeps resumable: cell identity is absolute (cell K
 * of N), so a client that lost its connection re-requests from the
 * first cell it is missing and the result cache makes re-executed
 * cells byte-identical. @return "" on success.
 */
std::string
planSweep(const JsonValue &req, Batch &batch)
{
    const JsonValue *gv = req.find("grid");
    if (gv == nullptr || gv->kind != JsonValue::Kind::Object)
        return "sweep needs a 'grid' object";
    if (gv->members.empty())
        return "'grid' must name at least one field";

    std::size_t chunk = maxSweepChunk;
    std::size_t cursor = 0;
    if (const JsonValue *cv = req.find("chunk")) {
        std::uint64_t n = 0;
        if (!numberAsU64(*cv, n) || n == 0 || n > maxSweepChunk)
            return "bad value for 'chunk' (want 1.." +
                   std::to_string(maxSweepChunk) + ")";
        chunk = static_cast<std::size_t>(n);
    }
    if (const JsonValue *cv = req.find("cursor")) {
        std::uint64_t n = 0;
        if (!numberAsU64(*cv, n) || n > maxSweepCellsTotal)
            return "bad value for 'cursor' (want a cell index)";
        cursor = static_cast<std::size_t>(n);
    }

    // The decoder skips the envelope keys, so the base is the request
    // less its grid.
    JsonValue base = req;
    std::erase_if(base.members,
                  [](const auto &m) { return m.first == "grid"; });

    std::size_t cells = 1;
    for (const auto &[k, axis] : gv->members) {
        if (axis.kind != JsonValue::Kind::Array || axis.items.empty())
            return "grid." + k + " must be a non-empty array";
        for (const JsonValue &e : axis.items)
            if (e.kind == JsonValue::Kind::Object ||
                e.kind == JsonValue::Kind::Array)
                return "grid." + k + " values must be scalars";
        if (k.rfind("params.", 0) == 0) {
            const std::string sub = k.substr(7);
            if (sub.empty())
                return "bad grid key '" + k + "'";
            const JsonValue *p = base.find("params");
            if (p != nullptr && p->find(sub) != nullptr)
                return "grid key '" + k + "' duplicates a base field";
        } else {
            if (codec::isEnvelopeKey(k) || k == "grid" || k == "params")
                return "grid key '" + k + "' is not sweepable";
            if (base.find(k) != nullptr)
                return "grid key '" + k + "' duplicates a base field";
        }
        cells *= axis.items.size();
        if (cells > maxSweepCellsTotal)
            return "sweep too large (more than " +
                   std::to_string(maxSweepCellsTotal) + " cells)";
    }
    if (cursor >= cells)
        return "cursor " + std::to_string(cursor) +
               " past the end of the grid (" + std::to_string(cells) +
               " cells)";

    const std::size_t chunk_end = std::min(cells, cursor + chunk);
    const auto &axes = gv->members;
    for (std::size_t c = cursor; c < chunk_end; ++c) {
        std::vector<std::size_t> idx(axes.size());
        std::size_t rem = c;
        for (std::size_t a = axes.size(); a-- > 0;) {
            idx[a] = rem % axes[a].second.items.size();
            rem /= axes[a].second.items.size();
        }

        JsonValue cell_req = base;
        std::string cell_key;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const std::string &k = axes[a].first;
            const JsonValue &val = axes[a].second.items[idx[a]];
            if (!cell_key.empty())
                cell_key += " ";
            cell_key += k + "=";
            if (val.kind == JsonValue::Kind::String)
                cell_key += val.raw;
            else
                renderJson(val, cell_key);
            codec::put(cell_req, k, val);
        }

        ExperimentSpec spec;
        std::string err = codec::decode(cell_req, "serve", spec);
        if (!err.empty())
            return "sweep cell " + std::to_string(c) + " (" +
                   cell_key + "): " + err;

        std::string fields = ",\"cell\":" + std::to_string(c) +
                             ",\"of\":" + std::to_string(cells) +
                             ",\"cell_key\":";
        json::appendString(fields, cell_key);
        batch.specs.push_back(std::move(spec));
        batch.cellFields.push_back(std::move(fields));
    }
    batch.trailer =
        chunk_end == cells
            ? ",\"sweep_done\":true,\"cells\":" + std::to_string(cells)
            : ",\"sweep_chunk_done\":true,\"cells\":" +
                  std::to_string(cells) +
                  ",\"next_cursor\":" + std::to_string(chunk_end);
    return "";
}

/**
 * Admit @p batch (one work unit per cell) and queue its cells on the
 * fair queue. Hot or cold, a cell runs on the pool: a hit is just a
 * task that returns in microseconds, and its response streams back
 * whenever it lands. execute() itself does the cache probe (and the
 * store on a miss) and reports which side served, so the serve path
 * and the CLI path share one cache discipline. A cell's envelope
 * fields come before "record", so a sweep cell's record bytes equal
 * the same cell requested as a run. Cells land in completion order,
 * so the task that lands last sends the trailer.
 */
void
submit(ServerState &srv, const std::shared_ptr<Connection> &conn,
       Batch batch, const std::string &tag_json, bool canonical)
{
    const std::size_t n = batch.specs.size();
    std::uint64_t depth = 0;
    if (!srv.admit(n, depth)) {
        conn->sendLine(errorLine(
            tag_json, "server busy (admission queue full)", "busy",
            ",\"retry_after_ms\":" +
                std::to_string(srv.retryAfterMs(depth))));
        return;
    }
    conn->pending.fetch_add(n, std::memory_order_acq_rel);
    struct Progress
    {
        std::atomic<std::size_t> done{0};
        std::string trailer;
    };
    auto progress = std::make_shared<Progress>();
    progress->trailer = std::move(batch.trailer);
    for (std::size_t i = 0; i < n; ++i) {
        srv.fair.enqueue(conn->id,
                         [&srv, conn, spec = std::move(batch.specs[i]),
                          fields = std::move(batch.cellFields[i]),
                          tag_json, canonical, progress, n] {
            Runner::ExecSource src = Runner::ExecSource::Sim;
            RunRecord rec = srv.runner.execute(spec, &src);
            std::ostringstream os;
            os << fields << ",\"source\":\""
               << (src == Runner::ExecSource::Cache ? "cache" : "sim")
               << "\",\"record\":";
            rec.writeJson(os, canonical);
            conn->sendLine(envelope(true, tag_json, os.str()));
            const std::size_t landed =
                progress->done.fetch_add(1, std::memory_order_acq_rel) + 1;
            if (landed == n && !progress->trailer.empty())
                conn->sendLine(
                    envelope(true, tag_json, progress->trailer));
            conn->pending.fetch_sub(1, std::memory_order_acq_rel);
            srv.queuedUnits.fetch_sub(1, std::memory_order_acq_rel);
        });
    }
}

/**
 * One client's request loop, run on its own reader thread. Every
 * response-producing task captures the Connection shared_ptr, so a
 * client that hangs up mid-sweep costs nothing but wasted sends: its
 * remaining cells still execute (and fill the cache), their sends
 * fail quietly on the closed-by-peer fd, and the fd itself lives
 * until the last task drops its reference. No global drain on
 * hang-up — other clients' requests keep flowing.
 */
void
handleClient(ServerState &srv, std::shared_ptr<Connection> conn)
{
    // A connection owing responses is never idle, however long its
    // cells simulate.
    const std::function<bool()> owed = [&conn] {
        return conn->pending.load(std::memory_order_acquire) > 0;
    };
    std::string line;
    for (;;) {
        const wire::ReadStatus rs = conn->in.read(
            conn->fd, line, maxRequestLine, srv.cfg.idleTimeoutMs, owed);
        if (rs == wire::ReadStatus::Closed)
            break;
        if (rs == wire::ReadStatus::Overflow) {
            conn->sendLine(
                errorLine("", "request line too long", "overflow"));
            break;
        }
        if (rs == wire::ReadStatus::Quiet) {
            srv.idleClosed.fetch_add(1, std::memory_order_relaxed);
            conn->sendLine(errorLine("", "idle timeout", "idle_timeout"));
            break;
        }
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        srv.requests.fetch_add(1, std::memory_order_relaxed);

        JsonValue req;
        JsonParser p(line);
        if (!p.parseWhole(req) || req.kind != JsonValue::Kind::Object) {
            conn->sendLine(errorLine(
                "", p.err.empty() ? "request is not a JSON object"
                                  : p.err, "parse"));
            continue;
        }

        // The tag is echo currency: it must be a string (records and
        // errors quote it), but a rejected tag is still echoed —
        // rendered as whatever JSON it was — so the client can match
        // the error to the request that earned it.
        std::string tag_json;
        if (const JsonValue *t = req.find("tag")) {
            if (t->kind != JsonValue::Kind::String) {
                std::string echo;
                renderJson(*t, echo);
                conn->sendLine(errorLine(
                    echo, "bad value for 'tag' (want a string)",
                    "bad_request"));
                continue;
            }
            json::appendString(tag_json, t->raw);
        }

        const JsonValue *opv = req.find("op");
        std::string op =
            opv != nullptr && opv->kind == JsonValue::Kind::String
                ? opv->raw : "";

        if (op == "shutdown") {
            // Global drain: close every client's read side, then wait
            // out the pool, so every request accepted before this
            // point has its response on the wire (or at least its
            // send attempted) before the acknowledgment below.
            srv.beginShutdown();
            srv.pool.wait();
            conn->sendLine(envelope(true, tag_json, ",\"shutdown\":true"));
            srv.wakeAccept();
            break;
        }
        if (op == "stats") {
            cache::ResultCache::Counters c;
            if (srv.cache)
                c = srv.cache->counters();
            auto now = [](const std::atomic<std::uint64_t> &n) {
                return n.load(std::memory_order_relaxed);
            };
            const std::pair<const char *, std::uint64_t> counters[] = {
                {"hits", c.hits}, {"misses", c.misses},
                {"stores", c.stores}, {"corrupt", c.corrupt},
                {"stale", c.stale},
                {"accepted", now(srv.accepted)}, {"shed", now(srv.shed)},
                {"fd_exhausted", now(srv.fdExhausted)},
                {"idle_closed", now(srv.idleClosed)},
                {"readers_reaped", now(srv.readersReaped)},
                {"queued", now(srv.queuedUnits)}};
            std::string stats = ",\"stats\":{\"requests\":" +
                                std::to_string(now(srv.requests)) +
                                ",\"cache\":" +
                                (srv.cache ? "true" : "false");
            for (const auto &[name, n] : counters)
                stats.append(",\"").append(name).append("\":")
                    .append(std::to_string(n));
            conn->sendLine(envelope(true, tag_json, stats + "}"));
            continue;
        }
        if (op != "run" && op != "sweep") {
            conn->sendLine(errorLine(
                tag_json,
                op.empty()
                    ? "missing 'op' (want run|sweep|stats|shutdown)"
                    : "unknown op '" + op + "'", "bad_request"));
            continue;
        }

        bool canonical = srv.canonicalDefault;
        if (const JsonValue *cv = req.find("canonical"))
            canonical = cv->kind == JsonValue::Kind::Bool &&
                        cv->boolean;

        // A run is decoded directly (no grid expansion) into a
        // one-cell batch; it carries no cell fields and no trailer.
        Batch batch;
        std::string err;
        if (op == "run") {
            batch.specs.emplace_back();
            batch.cellFields.emplace_back();
            err = codec::decode(req, "serve", batch.specs.back());
        } else {
            err = planSweep(req, batch);
        }
        if (!err.empty()) {
            conn->sendLine(errorLine(tag_json, err, "bad_request"));
            continue;
        }
        submit(srv, conn, std::move(batch), tag_json, canonical);
    }
}

/** The bound listening socket. The destructor is the one
 *  close-and-unlink path, so every exit from serveLoop (a bind or
 *  pipe error, or the end of a drain) releases the socket the same
 *  way. */
struct Listener
{
    int fd = -1;
    std::string path;

    Listener() = default;
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;
    ~Listener()
    {
        if (fd >= 0) {
            ::close(fd);
            ::unlink(path.c_str());
        }
    }
};

/**
 * Bind + listen on the Unix path. A *stale* socket file (nothing
 * accepting) is replaced; a *live* one — the probe connect()
 * succeeds — is a structured refusal, closing the takeover race
 * where starting a second server silently unlinked the first one's
 * socket out from under it. @return "" on success.
 */
std::string
bindListener(const std::string &path, Listener &out)
{
    auto bindAndListen = [&](int fd, const sockaddr *sa,
                             socklen_t len) -> std::string {
        struct stat st;
        if (::lstat(path.c_str(), &st) == 0) {
            if (!S_ISSOCK(st.st_mode))
                return "path exists and is not a socket: " + path;
            int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (probe < 0)
                return std::string("probe socket: ") +
                       std::strerror(errno);
            int rc = ::connect(probe, sa, len);
            int probe_errno = errno;
            ::close(probe);
            if (rc == 0)
                return "address in use: a live server is accepting "
                       "on " + path;
            if (probe_errno != ECONNREFUSED && probe_errno != ENOENT)
                return "cannot probe " + path + ": " +
                       std::strerror(probe_errno);
            // Connect refused: the socket file is a corpse. Replace it.
            ::unlink(path.c_str());
        }
        if (::bind(fd, sa, len) != 0)
            return "bind " + path + ": " + std::strerror(errno);
        if (::listen(fd, listenBacklog) != 0) {
            std::string e = std::string("listen: ") + std::strerror(errno);
            ::unlink(path.c_str());
            return e;
        }
        return "";
    };
    std::string err;
    const int fd = wire::openStream(path, bindAndListen, err);
    if (fd < 0)
        return err;
    out.fd = fd;
    out.path = path;
    return "";
}

// Graceful-drain signal plumbing: the handler only sets a flag and
// pokes a wake pipe (both async-signal-safe); the drain itself runs
// on the accept thread. One serveLoop owns the disposition at a
// time; it is saved and restored around the loop. The handler's
// pipe is process-wide and deliberately never closed: a handler can
// run on any thread at any point during teardown, so closing the fd
// it writes to would race the write (and, after fd reuse, misdirect
// the byte into an unrelated descriptor). Both ends are
// non-blocking — a signal storm must not wedge the handler, and the
// owning loop drains stale bytes without blocking.
std::atomic<bool> g_termRequested{false};
std::atomic<int> g_signalWakeFd{-1};

struct SignalPipe {
    int read = -1;
    int write = -1;
};

/** The persistent signal self-pipe (write end is handed to
    g_signalWakeFd while a serveLoop owns the disposition). Created
    on first use — always before the handler can be installed — and
    kept for the life of the process. */
SignalPipe
signalWakePipe()
{
    static SignalPipe p = [] {
        SignalPipe sp;
        int fds[2];
        if (::pipe(fds) == 0) {
            wire::setNonBlocking(fds[0]);
            wire::setNonBlocking(fds[1]);
            sp.read = fds[0];
            sp.write = fds[1];
        }
        return sp;
    }();
    return p;
}

extern "C" void
serveTermHandler(int)
{
    g_termRequested.store(true, std::memory_order_relaxed);
    int fd = g_signalWakeFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char b = 1;
        ssize_t r = ::write(fd, &b, 1);
        (void)r;
    }
}

} // anonymous namespace

int
serveLoop(const ServeConfig &cfg)
{
    if (cfg.socketPath.empty()) {
        std::fprintf(stderr, "serve: no socket path\n");
        return 1;
    }
    Listener listener;
    if (std::string err = bindListener(cfg.socketPath, listener);
        !err.empty()) {
        std::fprintf(stderr, "serve: %s\n", err.c_str());
        return 1;
    }

    int wake[2];
    if (::pipe(wake) != 0) {
        std::perror("serve: pipe");
        return 1;
    }
    // Both ends non-blocking: readers poking a full pipe must not
    // stall, and the accept loop drains it without ever blocking.
    wire::setNonBlocking(wake[0]);
    wire::setNonBlocking(wake[1]);

    ServerState srv(cfg);
    srv.wakeWrite = wake[1];
    if (!cfg.cacheDir.empty())
        srv.cache = std::make_unique<cache::ResultCache>(cfg.cacheDir);
    srv.runner.attachCache(srv.cache.get());
    // Responses carry canonical record JSON when the environment asks
    // for canonical documents, or per request via "canonical":true.
    srv.canonicalDefault = RunLog::canonicalRequested();

    struct sigaction old_term{}, old_int{};
    bool signals_hooked = false;
    int sig_fd = -1;
    if (cfg.handleSignals) {
        SignalPipe sp = signalWakePipe();
        sig_fd = sp.read;
        if (sig_fd >= 0) {
            // Drain bytes left over from a previous owner's signal
            // so a stale poke cannot spin this loop's poll().
            char buf[64];
            while (::read(sig_fd, buf, sizeof buf) > 0) {
            }
        }
        g_termRequested.store(false, std::memory_order_relaxed);
        g_signalWakeFd.store(sp.write, std::memory_order_relaxed);
        struct sigaction sa{};
        sa.sa_handler = serveTermHandler;
        ::sigemptyset(&sa.sa_mask);
        ::sigaction(SIGTERM, &sa, &old_term);
        ::sigaction(SIGINT, &sa, &old_int);
        signals_hooked = true;
    }

    // One reader thread per connection; the wake pipe unblocks
    // poll() when a reader initiates shutdown, and the persistent
    // signal pipe does the same when a termination signal arrives,
    // since no further connection may ever arrive to do it.
    bool signal_drain = false;
    std::map<std::uint64_t, std::thread> readers;
    // Join the reader threads whose connections have finished; their
    // ids arrive through srv.readerDone(), which wakes the poll below
    // so reaping is prompt even on an otherwise idle server.
    auto reap = [&readers, &srv]() {
        for (std::uint64_t id : srv.takeDoneReaders()) {
            auto it = readers.find(id);
            if (it != readers.end()) {
                it->second.join();
                readers.erase(it);
                srv.readersReaped.fetch_add(
                    1, std::memory_order_relaxed);
            }
        }
    };
    while (!srv.stopping.load(std::memory_order_acquire)) {
        // The listener, the wake pipe, and the signal pipe (-1 when
        // signals are not handled, which poll() skips).
        pollfd fds[3] = {{listener.fd, POLLIN, 0},
                         {wake[0], POLLIN, 0},
                         {sig_fd, POLLIN, 0}};
        int pr = ::poll(fds, 3, -1);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            // A fatal poll error means no more connections can ever
            // be accepted; without beginShutdown() the reader join
            // below would wait on live clients forever.
            std::perror("serve: poll");
            srv.beginShutdown();
            break;
        }
        if ((fds[1].revents & POLLIN) != 0) {
            char buf[64];
            while (::read(wake[0], buf, sizeof buf) > 0) {
            }
        }
        reap();
        if ((fds[2].revents & POLLIN) != 0) {
            char buf[64];
            while (::read(sig_fd, buf, sizeof buf) > 0) {
            }
        }
        if (cfg.handleSignals &&
            g_termRequested.load(std::memory_order_relaxed)) {
            // Graceful drain: stop accepting, close every read side,
            // let the join below wait out in-flight responses.
            signal_drain = true;
            srv.beginShutdown();
            break;
        }
        if (srv.stopping.load(std::memory_order_acquire))
            break;

        if ((fds[0].revents & POLLIN) == 0)
            continue;
        int cfd = ::accept(listener.fd, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR || errno == ECONNABORTED ||
                errno == EAGAIN || errno == EWOULDBLOCK)
                continue;
            if (errno == EMFILE || errno == ENFILE ||
                errno == ENOBUFS || errno == ENOMEM) {
                // Out of descriptors is a load condition, not a
                // reason to die: count it, back off briefly (pending
                // connections keep their backlog slot), try again.
                srv.fdExhausted.fetch_add(1,
                                          std::memory_order_relaxed);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            // Any other accept failure is fatal for the listener:
            // drain and exit rather than wedging on the final join
            // while clients stay connected.
            std::perror("serve: accept");
            srv.beginShutdown();
            break;
        }
        srv.accepted.fetch_add(1, std::memory_order_relaxed);
        auto conn = std::make_shared<Connection>(
            cfd, srv.nextConnId.fetch_add(1, std::memory_order_relaxed),
            cfg.sendTimeoutMs);
        const std::uint64_t conn_id = conn->id;
        srv.registerConn(conn);
        readers.emplace(
            conn_id,
            std::thread([&srv, conn = std::move(conn),
                         conn_id]() mutable {
                handleClient(srv, std::move(conn));
                srv.readerDone(conn_id);
            }));
    }
    // beginShutdown() closed every read side, so each reader drains
    // its buffered requests and exits; requests they submitted after
    // the shutdown drain still finish here, their responses going to
    // whichever clients are still connected.
    for (auto &entry : readers)
        entry.second.join();
    srv.pool.wait();

    if (signals_hooked) {
        ::sigaction(SIGTERM, &old_term, nullptr);
        ::sigaction(SIGINT, &old_int, nullptr);
        g_signalWakeFd.store(-1, std::memory_order_relaxed);
        g_termRequested.store(false, std::memory_order_relaxed);
    }
    if (signal_drain)
        std::fprintf(stderr,
                     "serve: termination signal, drained %llu "
                     "requests and exiting\n",
                     static_cast<unsigned long long>(
                         srv.requests.load(std::memory_order_relaxed)));

    ::close(wake[0]);
    ::close(wake[1]);
    return 0;
}

} // namespace serve
} // namespace swex
