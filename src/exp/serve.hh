/**
 * @file
 * The experiment-serving front end behind `swex_cli --serve`: a
 * Unix-domain stream socket speaking line-delimited JSON (a remote
 * user forwards it, e.g. `ssh -L <local.sock>:<remote.sock>`). Each
 * request line is one op; each response is one line. Hot cells are
 * served straight from the result cache (exp/cache/) by the
 * connection's reader thread; cold cells are scheduled on the
 * experiment thread pool and their responses stream back as the
 * simulations land — a client that submits a sweep's worth of "run"
 * lines (or one "sweep" line) gets cache hits immediately and misses
 * in completion order, tagged so it can reassemble the grid.
 *
 * Concurrency model: connections are accepted concurrently, each
 * with its own reader thread, which probes the cache for each cell it
 * admits and answers a hit itself, so a hit never waits behind a
 * simulation. Only misses go to the one experiment pool, where a
 * worker simulates and stores them — jobs bounds simultaneous
 * simulations globally, not per client. Work is admitted through a
 * bounded queue and misses are scheduled fairly per client
 * (round-robin across connections with pending work), so one
 * client's 4096-cell cold chunk cannot starve another's single run.
 * A client that hangs up mid-request loses nothing but its
 * responses: its scheduled cells still execute and fill the cache,
 * and the connection's fd stays alive (shared ownership) until the
 * last in-flight response has attempted its send. Only "shutdown"
 * (or SIGTERM, when signal handling is enabled) drains globally,
 * after every admitted cell, answered by its reader or by the pool,
 * has attempted its send.
 *
 * Robustness model (DESIGN §4.5):
 *   - admission: a "run" costs 1 unit, a "sweep" chunk costs its cell
 *     count; when admitted-but-unfinished units would exceed
 *     maxQueuedUnits the request is rejected with a structured
 *     {"ok":false,"error_kind":"busy","retry_after_ms":N} instead of
 *     queueing unboundedly.
 *   - no idle close: a connection stays open until its client hangs
 *     up, a send to it fails, or the server drains; a reader thread
 *     blocked on a quiet socket costs no pool worker.
 *   - stalled peers: a response send that cannot make progress for
 *     sendTimeoutMs marks the connection dead and drops its remaining
 *     sends — a client that stops draining can never wedge a pool
 *     worker, nor its own reader past one timeout. Any failed send, a
 *     reset peer's too, also shuts the socket down, so the
 *     connection's reader ends at once.
 *   - one transport: requests are read and responses sent through
 *     the serve wire's transport (exp/line_io.hh), shared with the
 *     client library. The send timer is elapsed time since the last
 *     byte moved, not a count of poll slices, and a request line is
 *     capped at 1 MiB (error_kind "overflow", then a close).
 *   - resume: sweeps are chunked by cursor; re-execution of an
 *     already-served cell is idempotent (the result cache makes the
 *     canonical record bytes identical), so a client that lost its
 *     connection re-requests from the first cell it is missing.
 *
 * Protocol (one JSON object per line, both directions):
 *
 *   {"op":"run","app":"worker","protocol":"h5","nodes":16,
 *    "tag":"fig4/W16/H5"}
 *     -> {"ok":true,"tag":"fig4/W16/H5","source":"cache"|"sim",
 *         "record":{...swex-run-v1 record...}}
 *   {"op":"sweep","app":"worker","nodes":16,"tag":"fig4",
 *    "grid":{"protocol":["h2","h5"],"seed":[1,2]},
 *    "cursor":0,"chunk":256}
 *     -> one line per cell of the requested chunk, completion order:
 *        {"ok":true,"tag":"fig4","cell":K,"of":N,
 *         "cell_key":"protocol=h5 seed=2","source":...,"record":...}
 *        then, when cells remain past the chunk:
 *        {"ok":true,"tag":"fig4","sweep_chunk_done":true,"cells":N,
 *         "next_cursor":C}
 *        or, when the chunk reached the end of the grid:
 *        {"ok":true,"tag":"fig4","sweep_done":true,"cells":N}
 *   {"op":"stats"}
 *     -> {"ok":true,"stats":{"requests":N,"hits":...,"misses":...,
 *         "stores":...,"corrupt":...,"stale":...,"accepted":...,
 *         "shed":...,"fd_exhausted":...,"readers_reaped":...,
 *         "queued":...}}
 *   {"op":"shutdown"}
 *     -> {"ok":true,"shutdown":true}   (server exits afterwards)
 *
 * A malformed line, duplicate request key, or unknown field answers
 * {"ok":false,"tag":...,"error":"...","error_kind":"..."} and never
 * takes the server down (a non-string tag is rejected but still
 * echoed, as the JSON it was). error_kind is machine-readable
 * ("parse", "bad_request", "busy", "overflow") so clients and triage
 * tooling can cluster without string-matching prose. Every response
 * echoes the request's tag. "canonical", when present, must be a bool.
 * "run" is a one-cell batch: besides op, tag and canonical it takes
 * the spec fields of the codec's table (exp/spec_codec.cc), among them
 * the hardware toggles local_bit, perfect_ifetch and parallel_inv; a
 * missing id is "serve". "sweep" takes the same base fields plus "grid": each
 * entry maps a field name (or "params.<key>") to a non-empty array of
 * values; cells are the cartesian product (row-major, last key
 * fastest, at most 2^20 total), "cursor" (default 0) names the first
 * cell of this chunk and "chunk" (default and max 4096) bounds the
 * cells served by this request; the whole grid shape and every cell
 * of the chunk are validated before any cell runs.
 */

#ifndef SWEX_EXP_SERVE_HH
#define SWEX_EXP_SERVE_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace swex
{
namespace serve
{

/** One request's chunk stops here: a client that wants more issues
 *  the next cursor — bounded responses per request line, resumable
 *  after any disconnect. */
constexpr std::size_t maxSweepChunk = 4096;

/** Total grid-size bound. The server validates the grid shape per
 *  request and expands cells per chunk, so there it protects the cell
 *  arithmetic; a client sizes its per-cell bookkeeping from a cell
 *  line's "of" and refuses one outside 1..maxSweepCellsTotal. */
constexpr std::size_t maxSweepCellsTotal = std::size_t{1} << 20;

struct ServeConfig
{
    /** Path of the Unix-domain socket to listen on (required). A
     *  stale socket file at the path is replaced, but a path another
     *  live server is accepting on is refused with a structured error
     *  (probed with a connect(), so starting two servers on one path
     *  can no longer silently unlink the first one's socket). */
    std::string socketPath;

    /** Result-cache directory; "" serves without a cache (every run
     *  simulates). */
    std::string cacheDir;

    /** Concurrent cold-cell simulations across all connected clients.
     *  Cache hits take no job: each connection's reader answers its
     *  own. */
    unsigned jobs = 1;

    /** Admission bound: total work units (runs + sweep-chunk cells)
     *  admitted but not yet completed, across all clients. A request
     *  that would exceed it is shed with error_kind "busy" and a
     *  retry_after_ms hint. */
    std::uint64_t maxQueuedUnits = 4096;

    /** A response send that cannot progress for this long marks the
     *  peer dead, shuts its socket down and drops the connection's
     *  remaining sends. 0 = wait while the peer keeps the socket
     *  open. */
    int sendTimeoutMs = 10'000;

    /** Install SIGTERM/SIGINT handlers for a graceful drain: stop
     *  accepting, close every read side, wait out the readers and the
     *  pool, exit 0.
     *  Off by default so embedding a server in a test process never
     *  hijacks the host's signal disposition unasked. */
    bool handleSignals = false;
};

/**
 * Bind, listen, and serve until a client sends {"op":"shutdown"} (or
 * SIGTERM arrives, with handleSignals). Connections are accepted
 * concurrently, each on its own reader thread, which answers cache
 * hits itself; every miss runs on one cfg.jobs-wide pool, and
 * responses arrive in completion order. @return a
 * process exit code (0 = clean shutdown op or signal drain; 1 =
 * socket setup failure — including a live server already on
 * socketPath — with the reason on stderr).
 */
int serveLoop(const ServeConfig &cfg);

} // namespace serve
} // namespace swex

#endif // SWEX_EXP_SERVE_HH
