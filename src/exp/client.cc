#include "exp/client.hh"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "base/rng.hh"
#include "exp/line_io.hh"

namespace swex
{
namespace client
{

namespace
{

using wire::JsonValue;
using wire::JsonParser;
using wire::numberAsU64;

void
sleepMs(std::uint64_t ms)
{
    if (ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

int
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

constexpr int pollSliceMs = 50;

/**
 * connect() on an already non-blocking @p fd, bounded by
 * @p timeout_ms. TCP reports EINPROGRESS and completes via poll();
 * AF_UNIX reports EAGAIN when the listener's backlog is full — poll()
 * cannot observe backlog space there, so that case retries on a short
 * cadence until the deadline. Either way the caller gets 0, or -1
 * with errno describing the failure (ETIMEDOUT once the deadline
 * passes), never an unbounded block.
 */
int
connectBounded(int fd, const sockaddr *sa, socklen_t len,
               int timeout_ms)
{
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        int rc = ::connect(fd, sa, len);
        if (rc == 0 || errno == EISCONN)
            return 0;
        int left = timeout_ms - elapsedMs(start);
        if (errno == EINPROGRESS || errno == EALREADY ||
            errno == EINTR) {
            pollfd p{fd, POLLOUT, 0};
            int pr = ::poll(&p, 1, left < 0 ? 0 : left);
            if (pr > 0) {
                int soerr = 0;
                socklen_t slen = sizeof(soerr);
                ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr,
                             &slen);
                if (soerr == 0)
                    return 0;
                errno = soerr;
                return -1;
            }
            errno = ETIMEDOUT;
            return -1;
        }
        if (errno != EAGAIN)
            return -1;
        if (left <= 0) {
            errno = ETIMEDOUT;
            return -1;
        }
        sleepMs(static_cast<std::uint64_t>(
            std::min(left, pollSliceMs)));
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
    inbuf.clear();
}

std::uint64_t
ServeClient::backoffDelayMs(unsigned attempt)
{
    std::uint64_t base = cfg.backoffBaseMs;
    if (attempt > 20)
        attempt = 20;
    base <<= attempt;
    if (base > cfg.backoffMaxMs)
        base = cfg.backoffMaxMs;
    if (base == 0)
        return 0;
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
    auto failWith = [&](const std::string &why) {
        if (err != nullptr)
            *err = why;
        disconnect();
        return false;
    };

    const bool is_unix =
        cfg.address.find('/') != std::string::npos;
    if (is_unix) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (cfg.address.size() >= sizeof(addr.sun_path))
            return failWith("socket path too long");
        std::memcpy(addr.sun_path, cfg.address.c_str(),
                    cfg.address.size() + 1);
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return failWith(std::string("socket: ") +
                            std::strerror(errno));
        // Non-blocking from the start: a live server whose backlog is
        // full would otherwise block this connect() indefinitely,
        // breaking the deadline-bounded contract on the Unix path.
        int fl = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
        if (connectBounded(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr), cfg.connectTimeoutMs) != 0)
            return failWith("connect " + cfg.address + ": " +
                            std::strerror(errno));
    } else {
        std::size_t colon = cfg.address.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= cfg.address.size())
            return failWith("bad address '" + cfg.address +
                            "' (want host:port or a socket path)");
        const std::string host = cfg.address.substr(0, colon);
        const std::string port = cfg.address.substr(colon + 1);
        addrinfo hints{};
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        hints.ai_flags = AI_NUMERICSERV;
        addrinfo *res = nullptr;
        int gai =
            ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
        if (gai != 0)
            return failWith("resolve " + cfg.address + ": " +
                            ::gai_strerror(gai));
        std::string why = "no usable address for " + cfg.address;
        for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
            fd = ::socket(ai->ai_family, ai->ai_socktype,
                          ai->ai_protocol);
            if (fd < 0) {
                why = std::string("socket: ") + std::strerror(errno);
                continue;
            }
            // Non-blocking connect so connectTimeoutMs is honored
            // even against a blackholed address.
            int fl = ::fcntl(fd, F_GETFL, 0);
            ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
            int rc = connectBounded(fd, ai->ai_addr, ai->ai_addrlen,
                                    cfg.connectTimeoutMs);
            if (rc != 0) {
                why = "connect " + cfg.address + ": " +
                      std::strerror(errno);
                ::close(fd);
                fd = -1;
                continue;
            }
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            break;
        }
        ::freeaddrinfo(res);
        if (fd < 0)
            return failWith(why);
    }
    // Poll-driven I/O from here on.
    int fl = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
    return true;
}

bool
ServeClient::sendAll(const std::string &line, int deadline_ms)
{
    std::size_t off = 0;
    auto start = std::chrono::steady_clock::now();
    while (off < line.size() + 1) {
        ssize_t n = wire::sendLineFrom(fd, line, off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (deadline_ms > 0 && elapsedMs(start) >= deadline_ms)
                return false;
            pollfd p{fd, POLLOUT, 0};
            ::poll(&p, 1, pollSliceMs);
            continue;
        }
        return false;
    }
    return true;
}

ServeClient::ReadStatus
ServeClient::readLine(std::string &line, int deadline_ms)
{
    auto last_progress = std::chrono::steady_clock::now();
    std::size_t scanned = 0;
    for (;;) {
        if (wire::takeLine(inbuf, scanned, line))
            return ReadStatus::Line;
        ssize_t n = wire::recvAppend(fd, inbuf);
        if (n > 0) {
            last_progress = std::chrono::steady_clock::now();
            continue;
        }
        if (n == 0)
            return ReadStatus::Closed;
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            return ReadStatus::Closed;
        if (deadline_ms > 0 &&
            elapsedMs(last_progress) >= deadline_ms)
            return ReadStatus::Deadline;
        pollfd p{fd, POLLIN, 0};
        ::poll(&p, 1, pollSliceMs);
    }
}

Response
ServeClient::rpc(const std::string &request_line)
{
    Response r;
    if (fd < 0) {
        r.error = "not connected";
        r.errorKind = "transport";
        return r;
    }
    if (!sendAll(request_line, cfg.requestDeadlineMs)) {
        disconnect();
        r.error = "send failed";
        r.errorKind = "transport";
        return r;
    }
    ReadStatus rs = readLine(r.line, cfg.requestDeadlineMs);
    if (rs == ReadStatus::Closed) {
        disconnect();
        r.error = "connection closed before response";
        r.errorKind = "transport";
        return r;
    }
    if (rs == ReadStatus::Deadline) {
        disconnect();
        r.error = "response deadline (" +
                  std::to_string(cfg.requestDeadlineMs) +
                  " ms) expired";
        r.errorKind = "deadline";
        return r;
    }
    // A half-line means the stream is torn; resync by reconnecting
    // rather than guessing at framing.
    if (!decodeResponse(r))
        disconnect();
    return r;
}

Response
ServeClient::rpcRetry(const std::string &request_line)
{
    Response last;
    for (unsigned attempt = 0; attempt < cfg.maxAttempts; ++attempt) {
        if (attempt > 0) {
            // The server's own estimate beats the local schedule when
            // the refusal was load, not loss.
            if (last.errorKind == "busy" && last.retryAfterMs > 0)
                sleepMs(last.retryAfterMs);
            else
                sleepMs(backoffDelayMs(attempt - 1));
        }
        if (fd < 0) {
            std::string err;
            if (!connect(&err)) {
                last.ok = false;
                last.error = err;
                last.errorKind = "transport";
                continue;
            }
        }
        last = rpc(request_line);
        if (last.ok)
            return last;
        if (last.errorKind != "transport" &&
            last.errorKind != "deadline" &&
            last.errorKind != "parse" && last.errorKind != "busy")
            return last;   // the server understood and refused
    }
    return last;
}

SweepResult
ServeClient::runSweep(const std::string &base_request)
{
    SweepResult res;
    std::string base = base_request;
    while (!base.empty() &&
           (base.back() == '\n' || base.back() == '\r' ||
            base.back() == ' '))
        base.pop_back();
    if (base.empty() || base.back() != '}') {
        res.error = "sweep base request must be a JSON object line";
        res.errorKind = "bad_request";
        return res;
    }
    const std::string prefix = base.substr(0, base.size() - 1);
    // Clamp to the server's per-request maximum (serve.cc's
    // maxSweepChunk) rather than letting an over-large config draw a
    // terminal bad_request.
    std::size_t chunk = cfg.chunk == 0 ? 4096
                        : std::min<std::size_t>(cfg.chunk, 4096);

    std::size_t total = 0;
    bool know_total = false;
    std::vector<char> got;
    bool ever_connected = false;
    unsigned attempt = 0;
    std::string last_err = "sweep never started";
    std::string last_kind = "transport";
    std::uint64_t busy_hint = 0;

    for (;;) {
        std::size_t cursor = 0;
        if (know_total) {
            while (cursor < total && got[cursor])
                ++cursor;
            // Lowest missing cell; everything below is already in
            // hand, whatever order chunks and retries landed in.
            if (cursor == total)
                break;
            // A resumed cursor can point past earlier-received cells
            // of an interrupted chunk; the re-served duplicates are
            // idempotent (counted, byte-checked by the harness).
        }
        if (attempt >= cfg.maxAttempts) {
            res.error = last_err;
            res.errorKind = last_kind;
            return res;
        }
        if (attempt > 0) {
            if (last_kind == "busy" && busy_hint > 0)
                sleepMs(busy_hint);
            else
                sleepMs(backoffDelayMs(attempt - 1));
        }
        if (fd < 0) {
            std::string err;
            if (!connect(&err)) {
                ++attempt;
                last_err = err;
                last_kind = "transport";
                continue;
            }
            if (ever_connected)
                ++res.reconnects;
            ever_connected = true;
        }

        std::string req = prefix + ",\"cursor\":" +
                          std::to_string(cursor) + ",\"chunk\":" +
                          std::to_string(chunk) + "}";
        if (!sendAll(req, cfg.requestDeadlineMs)) {
            disconnect();
            ++attempt;
            last_err = "send failed";
            last_kind = "transport";
            continue;
        }

        // Drain this chunk: cells in completion order, then a
        // trailer. Any received line is progress and resets the
        // retry budget.
        bool chunk_over = false;
        bool interrupted = false;
        while (!chunk_over && !interrupted) {
            Response resp;
            ReadStatus rs = readLine(resp.line, cfg.requestDeadlineMs);
            if (rs != ReadStatus::Line) {
                disconnect();
                ++attempt;
                last_err = rs == ReadStatus::Deadline
                               ? "response deadline expired mid-sweep"
                               : "connection lost mid-sweep";
                last_kind = rs == ReadStatus::Deadline ? "deadline"
                                                       : "transport";
                interrupted = true;
                continue;
            }
            if (!decodeResponse(resp)) {
                // Torn frame on a live stream: resync via reconnect.
                disconnect();
                ++attempt;
                last_err = resp.error;
                last_kind = "parse";
                interrupted = true;
                continue;
            }
            const JsonValue &doc = resp.doc;
            if (!resp.ok) {
                const std::string &kind = resp.errorKind;
                const std::string msg =
                    resp.error.empty() ? "server error" : resp.error;
                if (kind == "busy") {
                    busy_hint = resp.retryAfterMs;
                    ++attempt;
                    last_err = msg;
                    last_kind = "busy";
                    interrupted = true;   // connection stays up;
                    continue;             // re-request after the hint
                }
                if (kind == "idle_timeout") {
                    disconnect();
                    ++attempt;
                    last_err = msg;
                    last_kind = "transport";
                    interrupted = true;
                    continue;
                }
                res.error = msg;
                res.errorKind = kind;
                return res;
            }

            if (doc.find("sweep_done") != nullptr ||
                doc.find("sweep_chunk_done") != nullptr) {
                std::uint64_t n = 0;
                if (const JsonValue *cv = doc.find("cells"))
                    numberAsU64(*cv, n);
                if (!know_total && n > 0) {
                    total = static_cast<std::size_t>(n);
                    know_total = true;
                    got.assign(total, 0);
                    res.records.assign(total, "");
                    res.cellKeys.assign(total, "");
                    res.sources.assign(total, "");
                }
                chunk_over = true;
                continue;
            }

            const JsonValue *cellv = doc.find("cell");
            if (cellv == nullptr)
                continue;   // unrelated ok line (e.g. a stats echo)
            std::uint64_t idx = 0, of = 0;
            if (!numberAsU64(*cellv, idx))
                continue;
            if (const JsonValue *ofv = doc.find("of"))
                numberAsU64(*ofv, of);
            if (!know_total && of > 0) {
                total = static_cast<std::size_t>(of);
                know_total = true;
                got.assign(total, 0);
                res.records.assign(total, "");
                res.cellKeys.assign(total, "");
                res.sources.assign(total, "");
            }
            if (!know_total || idx >= total)
                continue;
            std::string rec;
            if (!recordBytes(resp.line, rec)) {
                res.error = "cell response carried no record";
                res.errorKind = "parse";
                return res;
            }
            if (got[idx]) {
                ++res.duplicates;
            } else {
                got[idx] = 1;
            }
            res.records[idx] = rec;
            if (const JsonValue *k = doc.find("cell_key"))
                if (k->kind == JsonValue::Kind::String)
                    res.cellKeys[idx] = k->raw;
            if (const JsonValue *s = doc.find("source"))
                if (s->kind == JsonValue::Kind::String)
                    res.sources[idx] = s->raw;
            attempt = 0;   // progress: the server is alive and serving

            if (chaosRoll()) {
                disconnect();
                ++attempt;
                last_err = "chaos kill";
                last_kind = "transport";
                interrupted = true;
            }
        }
    }

    res.ok = true;
    res.cells = total;
    return res;
}

} // namespace client
} // namespace swex
