/**
 * @file
 * Client library for the sweep server (exp/serve.*), used by
 * `swex_cli --connect` and the chaos harness (tools/stress_serve).
 * The server's failure answers are structured (error_kind); this side
 * supplies the discipline a remote caller needs on top of them, over
 * the server's own transport (exp/line_io.hh):
 *
 *   - bounds: a response read gives up after requestDeadlineMs with
 *     no byte received (local error_kind "deadline", never a hang),
 *     a send after requestDeadlineMs in which no byte could leave,
 *     and a response line past maxResponseLine is "overflow".
 *   - one retry loop behind rpcRetry() and runSweep(): it connects on
 *     demand and retries "transport", "deadline", "parse", "busy" and
 *     "idle_timeout" up to maxAttempts, sleeping
 *     min(backoffMaxMs, backoffBaseMs << attempt) plus a
 *     deterministic jitter drawn from backoffSeed — the schedule is
 *     reproducible, so a chaos run's replay line replays its timing
 *     decisions too. "busy" honors the server's retry_after_ms hint
 *     and keeps the connection; any other retried failure reconnects.
 *     Every other refusal comes straight back: the server understood
 *     the request and would refuse it again.
 *   - reconnect-and-resume: runSweep() drives the server's chunked
 *     sweep protocol (cursor/chunk, see serve.hh) and places cells by
 *     absolute index, so after any disconnect it resumes from the
 *     first cell it is missing; each new cell resets the retry
 *     budget. Re-executed cells are idempotent — the server's result
 *     cache makes the canonical record bytes identical — so duplicate
 *     receipt is harmless by construction.
 *
 * chaosKillPerMille is test instrumentation: a seeded probability of
 * the client killing its own connection after a received sweep line,
 * exercising the resume path deterministically from the outside.
 */

#ifndef SWEX_EXP_CLIENT_HH
#define SWEX_EXP_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/line_io.hh"
#include "exp/serve.hh"
#include "exp/wire_json.hh"

namespace swex
{
namespace client
{

struct ClientConfig
{
    /** Path of the server's Unix-domain socket. */
    std::string address;

    /** Bound on a connect() that finds the server's backlog full. */
    int connectTimeoutMs = 2000;

    /** Bound on a read with no byte received ("deadline") and on a
     *  send with no byte sent ("transport"). */
    int requestDeadlineMs = 30'000;

    /** Total tries per request (first attempt included). Progress
     *  (a newly received sweep cell) resets the count. */
    unsigned maxAttempts = 5;

    unsigned backoffBaseMs = 50;
    unsigned backoffMaxMs = 2000;

    /** Seeds the backoff jitter; equal seeds replay equal delays. */
    std::uint64_t backoffSeed = 0;

    /** Cells per sweep chunk request. runSweep clamps values above
     *  the server's per-request maximum, serve::maxSweepChunk (0 also
     *  means that maximum), so an over-large setting degrades to
     *  full-size chunks instead of a bad_request rejection. */
    std::size_t chunk = serve::maxSweepChunk;

    /** Chaos instrumentation: per-mille chance, rolled after every
     *  received sweep line, that the client kills its connection
     *  (0 = never). Deterministic in chaosSeed. */
    unsigned chaosKillPerMille = 0;
    std::uint64_t chaosSeed = 0;
};

/** The longest response line the client accepts: 16 MiB, over 60
 *  times the largest line a server sends (a 256-node WORKER record
 *  is ~259 KB). A peer that streams more without a newline is answered
 *  with a local "overflow" instead of an unbounded buffer. */
constexpr std::size_t maxResponseLine = std::size_t{16} << 20;

/** One request's outcome. ok means the server answered {"ok":true};
 *  otherwise errorKind holds the server's error_kind, or a local
 *  "deadline" / "transport" / "parse" / "overflow" when the failure
 *  never reached (or never came back from) the server. */
struct Response
{
    bool ok = false;
    std::string line;        ///< raw response line (when one arrived)
    wire::JsonValue doc;     ///< parsed response (when parseable)
    std::string error;
    std::string errorKind;
    std::uint64_t retryAfterMs = 0;   ///< busy hint, 0 otherwise
};

/** A resumable sweep's outcome: per-cell canonical results in cell
 *  order (absolute grid index), regardless of arrival order or how
 *  many reconnects it took. */
struct SweepResult
{
    bool ok = false;
    std::string error;
    std::string errorKind;
    std::size_t cells = 0;
    std::vector<std::string> records;    ///< record JSON, by cell
    std::vector<std::string> cellKeys;   ///< "protocol=h5 seed=2"
    std::vector<std::string> sources;    ///< "cache" | "sim", by cell
    unsigned reconnects = 0;   ///< connections re-established
    unsigned duplicates = 0;   ///< cells received more than once
};

/** Pull the raw "record" object bytes out of a response line: the
 *  value runs from after the key to the line's closing brace.
 *  Substring, not re-render — byte identity with the server's
 *  canonical record is the whole point. @return false if @p line
 *  carries no record. */
bool recordBytes(const std::string &line, std::string &out);

class ServeClient
{
  public:
    explicit ServeClient(const ClientConfig &cfg);
    ~ServeClient();
    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    bool connected() const { return fd >= 0; }

    /** Establish the connection (deadline-bounded). @return false
     *  with @p err filled on failure. */
    bool connect(std::string *err = nullptr);
    void disconnect();

    /**
     * One request line -> one response line, over the current
     * connection. No retries: a transport failure, deadline, overflow
     * or unparseable line comes back as a local errorKind with the
     * connection closed.
     */
    Response rpc(const std::string &request_line);

    /** rpc() through the retry loop (see the file comment). */
    Response rpcRetry(const std::string &request_line);

    /**
     * Drive a server-side sweep to completion with chunked resume.
     * @p base_request is a complete {"op":"sweep",...} line *without*
     * cursor/chunk — this method splices them per chunk, tracks
     * received cells by absolute index, and after any disconnect
     * resumes from the first missing cell on a fresh connection.
     */
    SweepResult runSweep(const std::string &base_request);

    /** The deterministic backoff delay for @p attempt (0-based):
     *  min(backoffMaxMs, backoffBaseMs << attempt), the top half
     *  jittered by a hash of (backoffSeed, draw counter). Public so
     *  tests can assert the schedule. */
    std::uint64_t backoffDelayMs(unsigned attempt);

  private:
    /** One line each way; a failure fills @p r with the local error
     *  and closes the connection. */
    bool send(const std::string &line, Response &r);
    bool receive(Response &r);

    /** The retry loop around @p attempt, which sets its argument on
     *  progress. @p reconnects counts connections made after an
     *  earlier one was lost. */
    Response retry(const std::function<Response(bool &)> &attempt,
                   unsigned *reconnects = nullptr);

    bool chaosRoll();

    ClientConfig cfg;
    int fd = -1;
    wire::LineReader in;
    std::uint64_t backoffDraws = 0;
    std::uint64_t chaosDraws = 0;
};

} // namespace client
} // namespace swex

#endif // SWEX_EXP_CLIENT_HH
