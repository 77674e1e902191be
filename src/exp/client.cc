#include "exp/client.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "base/rng.hh"

namespace swex
{
namespace client
{

namespace
{

using wire::JsonValue;
using wire::JsonParser;
using wire::numberAsU64;

/** How often a connect() that found the backlog full tries again. */
constexpr int connectRetryMs = 50;

void
sleepMs(std::uint64_t ms)
{
    if (ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/**
 * connect() on an already non-blocking @p fd, bounded by
 * @p timeout_ms. AF_UNIX reports EAGAIN when the listener's backlog
 * is full, and poll() cannot observe backlog space, so that case
 * retries on a short cadence until the deadline. The caller gets 0,
 * or -1 with errno describing the failure (ETIMEDOUT once the
 * deadline passes), never an unbounded block.
 */
int
connectBounded(int fd, const sockaddr *sa, socklen_t len,
               int timeout_ms)
{
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        if (::connect(fd, sa, len) == 0)
            return 0;
        if (errno != EAGAIN && errno != EINTR)
            return -1;
        const int left = timeout_ms - wire::msSince(start);
        if (left <= 0) {
            errno = ETIMEDOUT;
            return -1;
        }
        sleepMs(static_cast<std::uint64_t>(
            std::min(left, connectRetryMs)));
    }
}

/** Decode response line @p r.line into @p r: the parsed doc, and ok
 *  or the server's error, error_kind and busy hint. @return false,
 *  with a "parse" error, if the line is not a JSON object. */
bool
decodeResponse(Response &r)
{
    JsonParser p(r.line);
    if (!p.parseWhole(r.doc) ||
        r.doc.kind != JsonValue::Kind::Object) {
        r.error = "unparseable response" +
                  (p.err.empty() ? std::string() : ": " + p.err);
        r.errorKind = "parse";
        return false;
    }
    const JsonValue *okv = r.doc.find("ok");
    r.ok = okv != nullptr && okv->kind == JsonValue::Kind::Bool &&
           okv->boolean;
    if (r.ok)
        return true;
    if (const JsonValue *e = r.doc.find("error"))
        if (e->kind == JsonValue::Kind::String)
            r.error = e->raw;
    r.errorKind = "error";
    if (const JsonValue *k = r.doc.find("error_kind"))
        if (k->kind == JsonValue::Kind::String)
            r.errorKind = k->raw;
    if (const JsonValue *ra = r.doc.find("retry_after_ms"))
        numberAsU64(*ra, r.retryAfterMs);
    return true;
}

/** Whether a failure of @p kind is worth another try: the request or
 *  its answer was lost, or refused for load — not understood and
 *  refused. */
bool
retryable(const std::string &kind)
{
    return kind == "transport" || kind == "deadline" || kind == "parse" ||
           kind == "busy";
}

} // anonymous namespace

bool
recordBytes(const std::string &line, std::string &out)
{
    const std::string key = "\"record\":";
    std::size_t at = line.find(key);
    if (at == std::string::npos || line.empty() ||
        line.back() != '}')
        return false;
    out = line.substr(at + key.size(),
                      line.size() - 1 - (at + key.size()));
    return true;
}

ServeClient::ServeClient(const ClientConfig &cfg_) : cfg(cfg_) {}

ServeClient::~ServeClient()
{
    disconnect();
}

void
ServeClient::disconnect()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    in.clear();
}

std::uint64_t
ServeClient::backoffDelayMs(unsigned attempt)
{
    const std::uint64_t base =
        std::min(backoffMaxMs, backoffBaseMs << std::min(attempt, 20u));
    // Jitter the top half so a fleet of clients sharing a backoff
    // schedule does not re-stampede in lockstep; the draw counter
    // keeps successive delays decorrelated under one seed.
    std::uint64_t half = base / 2;
    std::uint64_t j =
        mix64((cfg.backoffSeed ^ (0x9e37u + backoffDraws)) + goldenGamma);
    ++backoffDraws;
    return half + j % (base - half + 1);
}

bool
ServeClient::chaosRoll()
{
    if (cfg.chaosKillPerMille == 0)
        return false;
    std::uint64_t r =
        mix64((cfg.chaosSeed ^ (0xc4a05u + chaosDraws)) + goldenGamma);
    ++chaosDraws;
    return r % 1000 < cfg.chaosKillPerMille;
}

bool
ServeClient::connect(std::string *err)
{
    disconnect();
    auto connectTo = [&](int s, const sockaddr *sa,
                         socklen_t len) -> std::string {
        // Non-blocking from the start: connectTimeoutMs then bounds a
        // live server whose backlog is full.
        wire::setNonBlocking(s);
        if (connectBounded(s, sa, len, connectTimeoutMs) != 0)
            return "connect " + cfg.address + ": " + std::strerror(errno);
        return "";
    };
    std::string why;
    fd = wire::openStream(cfg.address, connectTo, why);
    if (fd < 0 && err != nullptr)
        *err = why;
    return fd >= 0;
}

bool
ServeClient::send(const std::string &line, Response &r)
{
    if (fd >= 0 && wire::sendLine(fd, line, requestDeadlineMs))
        return true;
    r.ok = false;
    r.error = fd < 0 ? "not connected" : "send failed";
    r.errorKind = "transport";
    disconnect();
    return false;
}

bool
ServeClient::receive(Response &r)
{
    const wire::ReadStatus rs =
        in.read(fd, r.line, maxResponseLine, requestDeadlineMs);
    // A half-line means the stream is torn; resync by reconnecting
    // rather than guessing at framing.
    if (rs == wire::ReadStatus::Line && decodeResponse(r))
        return true;
    if (rs == wire::ReadStatus::Closed) {
        r.error = "connection closed before response";
        r.errorKind = "transport";
    } else if (rs == wire::ReadStatus::Quiet) {
        r.error = "response deadline (" +
                  std::to_string(requestDeadlineMs) + " ms) expired";
        r.errorKind = "deadline";
    } else if (rs == wire::ReadStatus::Overflow) {
        r.error = "response line longer than " +
                  std::to_string(maxResponseLine) + " bytes";
        r.errorKind = "overflow";
    }
    disconnect();
    return false;
}

Response
ServeClient::rpc(const std::string &request_line)
{
    Response r;
    if (send(request_line, r))
        receive(r);
    return r;
}

Response
ServeClient::retry(const std::function<Response(bool &)> &attempt,
                   unsigned *reconnects)
{
    Response last;
    last.error = "request never sent";
    last.errorKind = "transport";
    bool had_connection = connected();
    for (unsigned tries = 0; tries < cfg.maxAttempts;) {
        if (tries > 0) {
            // The server's own estimate beats the local schedule when
            // the refusal was load, not loss.
            if (last.errorKind == "busy" && last.retryAfterMs > 0)
                sleepMs(last.retryAfterMs);
            else
                sleepMs(backoffDelayMs(tries - 1));
        }
        if (fd < 0) {
            last = Response{};
            if (!connect(&last.error)) {
                last.errorKind = "transport";
                ++tries;
                continue;
            }
            if (had_connection && reconnects != nullptr)
                ++*reconnects;
            had_connection = true;
        }
        bool progress = false;
        last = attempt(progress);
        if (last.ok || !retryable(last.errorKind))
            return last;
        // A busy server keeps the connection; after any other failure
        // the stream is closed or can no longer be trusted.
        if (last.errorKind != "busy")
            disconnect();
        tries = progress ? 1 : tries + 1;
    }
    return last;
}

Response
ServeClient::rpcRetry(const std::string &request_line)
{
    return retry([&](bool &) { return rpc(request_line); });
}

SweepResult
ServeClient::runSweep(const std::string &base_request)
{
    SweepResult res;
    const std::size_t close = base_request.find_last_not_of("\r\n ");
    if (close == std::string::npos || base_request[close] != '}') {
        res.error = "sweep base request must be a JSON object line";
        res.errorKind = "bad_request";
        return res;
    }
    const std::string prefix = base_request.substr(0, close);
    // Clamp to the server's per-request maximum rather than letting an
    // over-large config draw a terminal bad_request.
    const std::size_t chunk =
        cfg.chunk == 0 ? serve::maxSweepChunk
                       : std::min(cfg.chunk, serve::maxSweepChunk);

    // Cells in hand by absolute index; empty until the first cell
    // line's "of" gives the grid size (every chunk has a cell before
    // its trailer).
    std::vector<char> got;
    // The lowest missing cell: everything below is in hand, whatever
    // order chunks and retries landed in. A resumed cursor can point
    // past earlier-received cells of an interrupted chunk; the
    // re-served duplicates are idempotent (counted, byte-checked by
    // the harness).
    auto firstMissing = [&] {
        return static_cast<std::size_t>(
            std::find(got.begin(), got.end(), 0) - got.begin());
    };

    // One attempt requests chunks from the first missing cell until
    // the sweep completes or something interrupts it.
    auto attempt = [&](bool &progress) {
        Response r;
        while (got.empty() || firstMissing() < got.size()) {
            if (!send(prefix + ",\"cursor\":" +
                          std::to_string(firstMissing()) +
                          ",\"chunk\":" + std::to_string(chunk) + "}",
                      r))
                return r;
            // Drain this chunk: cells in completion order, then a
            // trailer.
            for (;;) {
                r = Response{};
                if (!receive(r) || !r.ok)
                    return r;
                const JsonValue &doc = r.doc;
                if (doc.find("sweep_done") != nullptr ||
                    doc.find("sweep_chunk_done") != nullptr)
                    break;
                const JsonValue *cellv = doc.find("cell");
                std::uint64_t idx = 0, of = 0;
                if (cellv == nullptr || !numberAsU64(*cellv, idx))
                    continue;   // unrelated ok line (e.g. a stats echo)
                // "of" sizes the per-cell bookkeeping below, so a size
                // no server sends must not reach an allocation.
                const JsonValue *ofv = doc.find("of");
                if (ofv == nullptr || !numberAsU64(*ofv, of) || of == 0 ||
                    of > serve::maxSweepCellsTotal) {
                    r.ok = false;
                    r.error = "cell line's \"of\" is not a grid size";
                    r.errorKind = "parse";
                    return r;
                }
                if (got.empty()) {
                    got.assign(of, 0);
                    res.records.assign(of, "");
                    res.sources.assign(of, "");
                }
                if (idx >= got.size())
                    continue;
                std::string rec;
                if (!recordBytes(r.line, rec)) {
                    r.ok = false;
                    r.error = "cell response carried no record";
                    r.errorKind = "parse";
                    return r;
                }
                if (got[idx]) {
                    ++res.duplicates;
                } else {
                    got[idx] = 1;
                    progress = true;   // the server is alive and serving
                }
                res.records[idx] = std::move(rec);
                if (const JsonValue *s = doc.find("source"))
                    if (s->kind == JsonValue::Kind::String)
                        res.sources[idx] = s->raw;
                if (chaosRoll()) {
                    // Unless that was the last cell, the next send
                    // finds no connection: a "transport" failure.
                    disconnect();
                    break;
                }
            }
        }
        r.ok = true;
        return r;
    };

    const Response end = retry(attempt, &res.reconnects);
    if (!end.ok) {
        res.error = end.error.empty() ? "server error" : end.error;
        res.errorKind = end.errorKind;
        return res;
    }
    res.ok = true;
    res.cells = got.size();
    return res;
}

} // namespace client
} // namespace swex
