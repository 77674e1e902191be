#!/usr/bin/env python3
"""Smoke-check the machine-readable output machinery.

Default mode runs micro_substrates with a tiny measurement budget,
pointing SWEX_BENCH_JSON at a scratch file, then validates the emitted
swex-bench-v1 trajectory: it must parse, carry the expected schema
tag, provide the required entries, and every metric must be a finite
number. It then checks the merge: a run into a reformatted trajectory
keeps its entries, and a run into one that does not parse leaves it
byte-identical.

With --cli the positional binary is swex_cli; the script runs a tiny
experiment with --json and validates the emitted swex-run-v1 document
(schema tag, per-record required fields, finite metrics), checks
that $SWEX_RUN_JSON produces the same document shape, runs one
snooping-bus experiment to validate the optional machine_model field
(directory records omit it; bus records must carry "snoop"), requires
every malformed invocation in CLI_USAGE_ERRORS, every oversized app
parameter in CLI_OUT_OF_MEMORY and every unrunnable one in
CLI_REFUSED_PARAMS to exit 2 within CLI_REFUSAL_TIMEOUT_S, and --help
to name none of CLI_REMOVED_OPTIONS, requires two --json documents of
one spec under $SWEX_RUN_CANONICAL to be byte-identical and --stats to
print that spec's record's stats member, and requires a small-machine
TSP run that fills its work queues to pass. It runs the local --sweep
of CLI_SWEEP: every spectrum point's line must read all seeds ok, the
records must come in spectrum-major order with their per-cell ids, and
the canonical documents at --jobs 1 and --jobs 2 must be
byte-identical. Two fake servers then answer a --connect --sweep with
one cell too few and five too many; each must be a structured failure
(exit 1, an error record in --json), not a crash or a short grid.

With --replay-equiv the positional binary is swex_cli; the script
records a run into a scratch trace directory, validates every emitted
swex-trace-v1 file (magic, version, schema, header and payload FNV-1a
checksums, stream table consistency), then replays — under the
recording config and under a different protocol via the portable
trace — and requires bit-identical sim_cycles and image_hash against
direct execution.

With --cache-equiv the positional binary is swex_cli; the script runs
the same experiment direct, cold-cache, and warm-cache and requires
the canonical swex-run-v1 documents to be byte-identical, checks that
a truncated entry is recomputed (to the identical document) and
replaced in place, then starts `swex_cli --serve` on a scratch Unix socket
and requires the served record to equal the direct run's, with the
stats op accounting the hit; the record `swex_cli --connect` writes
for the same spec must equal it too, and `--connect --stats` must
print its stats member. The serve
session is also exercised as a real server: a server-side sweep must
stream every cell byte-identical to direct runs of the same cells,
`swex_cli --connect --sweep` must print the local sweep's point lines
and write each cell's direct record, and three simultaneous client
connections must each get the direct run's bytes back. Last, the
cache contract:
a cache that `stress_protocols --cache` (built next to swex_cli)
filled must serve one of its cells the same record bytes an empty
cache's server computes.

All validators reject unknown schema versions outright. Exits
non-zero on any malformed or missing output, so CI catches a broken
reporting layer before anyone trusts a checked-in artifact.
"""

import argparse
import contextlib
import json
import math
import os
import re
import shlex
import socket
import struct
import subprocess
import sys
import tempfile
import time

REQUIRED_ENTRIES = [
    "BM_EventQueueScheduleRun",
    "BM_EventQueueWarm",
    "BM_EventQueueIntrusive",
    "BM_EventQueueFarFuture",
    "BM_EventQueueMixedDelays",
    "BM_MessagePoolSendRecv",
    "micro_substrates",
]

RECORD_REQUIRED = ["id", "app", "protocol", "nodes", "sequential",
                   "sim_cycles", "verified", "metrics", "host"]

# swex_cli options that no longer exist, each with a value it took:
# each must be refused as an unknown option (exit 2), and --help must
# name none of them, so a usage line cannot outlive its parser.
CLI_REMOVED_OPTIONS = [
    ["--serve-tcp", "127.0.0.1:0"],
    ["--serve-backlog", "64"],
    ["--cache-max-bytes", "1"],
    ["--cache-max-entries", "1"],
    ["--serve-idle-ms", "1000"],
    ["--serve-max-queue", "4096"],
    ["--rpc-deadline", "30000"],
    ["--rpc-attempts", "5"],
    ["--chunk", "64"],
]

# Malformed swex_cli invocations: each must be refused as a usage
# error (exit 2) before any simulation starts.
CLI_USAGE_ERRORS = [
    ["--bus", "bogus"],
    ["--nodes", "16x"],
    ["--nodes", "+16"],
    ["--protocol", "bogus"],
    ["--profile", "ASM"],
    ["--faults", "1,2,3,4"],
    ["--param", "novalue"],
    ["--param", "bogus=1"],
    ["--param", "wss=0x2"],
    ["--param", "wss= 2"],
    ["--param", "wss=+2"],
    ["--app", "bogus"],
    ["--bogus-flag"],
    ["--connect", "/nonexistent.sock", "--sweep", "--seeds", "2",
     "--faults", "1"],
    ["--nodes"],
    # An empty socket path must not fall through to a local run.
    ["--serve", ""],
    ["--connect", ""],
    # Options that no longer exist.
    *CLI_REMOVED_OPTIONS,
]

# App parameters inside each app's own range whose shared allocations
# overrun the per-node segments of the machine the cell runs on (one
# node for --seq's sequential reference): each must be refused as a
# usage error (exit 2), not abort the process. They run without the
# base --wss/--iters flags, which EVOLVE would refuse for another
# reason.
CLI_OUT_OF_MEMORY = [
    ["--app", "evolve", "--nodes", "2", "--param", "dims=20"],
    ["--app", "evolve", "--nodes", "8", "--param", "dims=19",
     "--param", "walks=1", "--seq"],
    ["--app", "mp3d", "--nodes", "4", "--param", "particles=10000000"],
    ["--app", "smgrid", "--nodes", "4", "--param", "fine=1001"],
]

# App parameters a run cannot survive: a TSP pre-split larger than the
# work queues of the cell's machine, an AQ tolerance no refinement
# reaches, and an AQ refinement tree too large for the host to walk
# before the run. Each must be refused as a usage error (exit 2).
CLI_REFUSED_PARAMS = [
    ["--app", "tsp", "--nodes", "2", "--param", "cities=12",
     "--param", "frontier=100000"],
    ["--app", "aq", "--nodes", "4", "--param", "tolerance=0"],
    ["--app", "aq", "--nodes", "4", "--param", "tolerance=1e-300",
     "--param", "max_depth=20"],
]

# Seconds a refused invocation may run: each is refused before any
# simulation starts, so one still running is a refusal that is missing.
CLI_REFUSAL_TIMEOUT_S = 60

# A run whose donations fill its work queues: with one thief, a
# 12-city TSP on 2 nodes offers more than a 2048-entry queue holds.
CLI_TSP_SMALL_MACHINE = ["--app", "tsp", "--nodes", "2",
                         "--param", "cities=12"]

# A small --sweep: every directory spectrum point x 2 jitter seeds,
# which start at the machine seed (12345) when --jitter-seed is unset.
CLI_SWEEP_CELL = ["--app", "worker", "--nodes", "4", "--wss", "2",
                  "--iters", "1", "--jitter", "7"]
CLI_SWEEP = CLI_SWEEP_CELL + ["--sweep", "--seeds", "2"]
CLI_SWEEP_SEEDS = [12345, 12346]


def expect_usage_error(binary, args):
    """swex_cli with args must exit 2 within CLI_REFUSAL_TIMEOUT_S."""
    try:
        proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=CLI_REFUSAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"FAIL: swex_cli {shlex.join(args)} still running after "
                 f"{CLI_REFUSAL_TIMEOUT_S} s, expected usage error 2")
    if proc.returncode != 2:
        sys.exit(f"FAIL: swex_cli {shlex.join(args)} exited with "
                 f"{proc.returncode}, expected usage error 2:\n"
                 f"{proc.stdout}")
    return proc.stdout


def spectrum(binary):
    """The directory spectrum as --list prints it: (key, label) pairs
    in sweep order."""
    proc = subprocess.run([binary, "--list"], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.split("directory protocols (--protocol):\n", 1)
    points = []
    for line in lines[-1].splitlines():
        if not line.strip():
            break
        key, label = line.split()[:2]
        points.append((key, label))
    if proc.returncode != 0 or len(points) != 10:
        sys.exit(f"FAIL: --list printed {len(points)} directory "
                 f"protocols:\n{proc.stdout}")
    return points


def check_sweep_points(what, stdout, points):
    """A --sweep's per-point summary lines: every spectrum point's, in
    order, with every seed ok."""
    lines = [ln for ln in stdout.splitlines() if " ok  s0: " in ln]
    want = [label for _, label in points]
    got = [ln.split()[0] for ln in lines]
    seeds = f"{len(CLI_SWEEP_SEEDS)}/{len(CLI_SWEEP_SEEDS)}"
    if got != want or any(ln.split()[1] != seeds for ln in lines):
        sys.exit(f"FAIL: {what} printed points {got}, expected {want} "
                 f"each {seeds} ok:\n{stdout}")
    return lines


def load_doc(json_path, expect_schema):
    if not os.path.exists(json_path):
        sys.exit(f"FAIL: run produced no {json_path}")
    with open(json_path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            sys.exit(f"FAIL: {json_path} is not valid JSON: {e}")
    schema = doc.get("schema")
    if schema != expect_schema:
        sys.exit(f"FAIL: unknown schema tag {schema!r} "
                 f"(expected {expect_schema!r})")
    return doc


def check_finite_numbers(path, obj):
    """Every numeric leaf under obj must be finite."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            check_finite_numbers(f"{path}.{k}", v)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            check_finite_numbers(f"{path}[{i}]", v)
    elif isinstance(obj, float) and not math.isfinite(obj):
        sys.exit(f"FAIL: {path} is not finite: {obj!r}")


def run_bench(binary, json_path, extra=()):
    """Run the bench binary; old google-benchmark releases only accept
    a bare double for --benchmark_min_time, newer ones want a suffixed
    form, so try the suffixed spelling first and fall back."""
    env = dict(os.environ, SWEX_BENCH_JSON=json_path)
    for min_time in ("0.05x", "0.05"):
        try:
            proc = subprocess.run(
                [binary, f"--benchmark_min_time={min_time}", *extra],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        except OSError as e:
            sys.exit(f"FAIL: cannot run {binary}: {e}")
        if proc.returncode == 0:
            return proc.stdout
    sys.exit(f"FAIL: {binary} exited with {proc.returncode}:\n"
             f"{proc.stdout}")


def check_bench_json(json_path):
    doc = load_doc(json_path, "swex-bench-v1")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        sys.exit("FAIL: 'entries' missing or empty")

    by_name = {}
    for e in entries:
        if not isinstance(e.get("name"), str) or \
                not isinstance(e.get("metrics"), dict):
            sys.exit(f"FAIL: malformed entry {e!r}")
        for k, v in e["metrics"].items():
            if not isinstance(v, (int, float)) or \
                    not math.isfinite(v):
                sys.exit(f"FAIL: {e['name']}: metric {k!r} is not a "
                         f"finite number: {v!r}")
        by_name[e["name"]] = e["metrics"]

    missing = [n for n in REQUIRED_ENTRIES if n not in by_name]
    if missing:
        sys.exit(f"FAIL: required entries missing: {missing}")

    for name, metrics in by_name.items():
        if name.startswith("BM_") and \
                metrics.get("ns_per_op", 0) <= 0:
            sys.exit(f"FAIL: {name}: ns_per_op not positive")
    return len(entries)


def check_merge_keeps_entries(binary, tmp):
    """Merging into an existing trajectory must never lose an entry.
    A valid file in another layout (here: indented, one key per line)
    keeps every entry, [seed-*] baselines included; a file that does
    not parse (here: one entry torn across two lines) is left byte for
    byte as it was, rather than rewritten without what could not be
    read."""
    only = ["--benchmark_filter=BM_CacheFillAccess"]
    kept = "BM_Kept [seed-0000000]"
    path = os.path.join(tmp, "reformatted.json")
    with open(path, "w") as f:
        json.dump({"schema": "swex-bench-v1",
                   "entries": [{"name": kept,
                                "metrics": {"ns_per_op": 12.5}}]},
                  f, indent=2)
    run_bench(binary, path, only)
    names = [e["name"] for e in load_doc(path, "swex-bench-v1")["entries"]]
    if kept not in names or "BM_CacheFillAccess" not in names:
        sys.exit(f"FAIL: merging into a reformatted file gave {names}")

    mangled = ('{"schema":"swex-bench-v1","entries":[\n'
               ' {"name":"' + kept + '","metrics":{"ns_per_op":12.5}},\n'
               ' {"name":"BM_Torn [seed-0000000]",\n'
               '  "metrics":{"ns_per_op":9.5}\n'
               ']}\n')
    path = os.path.join(tmp, "mangled.json")
    with open(path, "w") as f:
        f.write(mangled)
    run_bench(binary, path, only)
    with open(path) as f:
        if f.read() != mangled:
            sys.exit("FAIL: a run rewrote a trajectory file it could "
                     "not parse")
    print("OK: merges keep every entry; an unparseable file is left "
          "untouched")


def check_run_json(json_path, expect_records):
    doc = load_doc(json_path, "swex-run-v1")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        sys.exit("FAIL: 'records' missing or empty")
    if len(records) != expect_records:
        sys.exit(f"FAIL: expected {expect_records} records, "
                 f"got {len(records)}")
    for r in records:
        missing = [k for k in RECORD_REQUIRED if k not in r]
        if missing:
            sys.exit(f"FAIL: record {r.get('id')!r} missing "
                     f"fields: {missing}")
        if not r["verified"]:
            sys.exit(f"FAIL: record {r.get('id')!r} not verified")
        if r["sim_cycles"] <= 0:
            sys.exit(f"FAIL: record {r.get('id')!r} has "
                     f"non-positive sim_cycles")
        if not isinstance(r.get("stats"), dict) or not r["stats"]:
            sys.exit(f"FAIL: record {r.get('id')!r} has no stats "
                     f"tree")
        # machine_model is optional: directory records omit it, and
        # the only other backend is the snooping bus.
        if "machine_model" in r and r["machine_model"] != "snoop":
            sys.exit(f"FAIL: record {r.get('id')!r} has unknown "
                     f"machine_model {r['machine_model']!r}")
        check_finite_numbers(r.get("id", "?"), r)
    seq = [r for r in records if r["sequential"]]
    if len(seq) != 1:
        sys.exit(f"FAIL: expected exactly 1 sequential record, "
                 f"got {len(seq)}")
    par = [r for r in records if not r["sequential"]]
    if not all(r.get("speedup", 0) > 0 for r in par):
        sys.exit("FAIL: parallel record missing positive speedup")
    return len(records)


# swex-trace-v1 container constants (src/trace/trace_format.cc).
TRACE_MAGIC = b"SWEXTRC1"
TRACE_VERSION = 1
TRACE_SCHEMA = 2
FNV_OFFSET = 1469598103934665603
FNV_PRIME = 1099511628211
MASK64 = (1 << 64) - 1


def fnv1a(h, data):
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def check_trace_file(path):
    """Validate one swex-trace-v1 file independently of the C++
    loader: header layout, stream table, and both checksums. Returns
    (app, nstreams, recorded_cycles)."""
    with open(path, "rb") as f:
        blob = f.read()

    def fail(why):
        sys.exit(f"FAIL: {path}: {why}")

    if blob[:8] != TRACE_MAGIC:
        fail(f"bad magic {blob[:8]!r}")
    if len(blob) < 68:
        fail("truncated header")
    version, schema, flags, nodes, nstreams = \
        struct.unpack_from("<5I", blob, 8)
    if version != TRACE_VERSION:
        fail(f"unknown trace version {version}")
    if schema != TRACE_SCHEMA:
        fail(f"unknown op schema {schema}")
    if not 1 <= nstreams <= 4096:
        fail(f"implausible stream count {nstreams}")
    off = 28
    _fp, cycles, _image, _seed = struct.unpack_from("<4Q", blob, off)
    off += 32
    strs = []
    for what in ("app", "params", "protocol"):
        if off + 4 > len(blob):
            fail(f"truncated {what} string")
        (n,) = struct.unpack_from("<I", blob, off)
        off += 4
        if off + n > len(blob):
            fail(f"truncated {what} string")
        strs.append(blob[off:off + n].decode("utf-8", "replace"))
        off += n
    stream_bytes = 0
    for i in range(nstreams):
        if off + 16 > len(blob):
            fail(f"truncated stream table at entry {i}")
        blen, ops = struct.unpack_from("<2Q", blob, off)
        off += 16
        if blen == 0 or ops == 0:
            fail(f"stream {i} is empty ({blen} bytes, {ops} ops)")
        stream_bytes += blen
    if off + 8 > len(blob):
        fail("missing header checksum")
    (header_fnv,) = struct.unpack_from("<Q", blob, off)
    if fnv1a(FNV_OFFSET, blob[:off]) != header_fnv:
        fail("header checksum mismatch")
    off += 8
    if len(blob) != off + stream_bytes + 8:
        fail(f"file size {len(blob)} does not match header + "
             f"{stream_bytes} payload bytes + checksum")
    (payload_fnv,) = struct.unpack_from("<Q", blob, off + stream_bytes)
    if fnv1a(FNV_OFFSET, blob[off:off + stream_bytes]) != payload_fnv:
        fail("payload checksum mismatch")
    if cycles == 0:
        fail("recorded cycle count is zero")
    return strs[0], nstreams, cycles


def cli_run(binary, args, json_path):
    proc = subprocess.run(
        [binary, *args, "--json", json_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {binary} {' '.join(args)} exited with "
                 f"{proc.returncode}:\n{proc.stdout}")
    doc = load_doc(json_path, "swex-run-v1")
    records = doc.get("records")
    if not isinstance(records, list) or len(records) != 1:
        sys.exit(f"FAIL: expected 1 record from {' '.join(args)}")
    return records[0]


def check_replay_equiv(binary, tmp):
    """Record, validate the trace container, replay, and require
    bit-identical results — both under the recording config and under
    a different protocol via the portable trace."""
    trace_dir = os.path.join(tmp, "traces")
    os.mkdir(trace_dir)
    spec = ["--app", "worker", "--nodes", "8", "--protocol", "h5",
            "--wss", "4", "--iters", "2"]
    recorded = cli_run(binary, spec + ["--record",
                                       "--trace-dir", trace_dir],
                       os.path.join(tmp, "record.json"))

    traces = sorted(f for f in os.listdir(trace_dir)
                    if f.endswith(".swextrace"))
    if not traces:
        sys.exit("FAIL: --record left no .swextrace file")
    for t in traces:
        app, nstreams, cycles = check_trace_file(
            os.path.join(trace_dir, t))
        print(f"OK: {t}: app={app} streams={nstreams} "
              f"cycles={cycles}")

    checks = 0
    # Exact-config replay vs the recording run itself.
    replayed = cli_run(binary, spec + ["--replay",
                                       "--trace-dir", trace_dir],
                       os.path.join(tmp, "replay.json"))
    pairs = [("recording config", recorded, replayed)]
    # Portable cross-protocol replay vs a direct run of that config.
    other = ["--app", "worker", "--nodes", "8", "--protocol",
             "h1ack", "--wss", "4", "--iters", "2"]
    pairs.append(("h1ack via portable trace",
                  cli_run(binary, other,
                          os.path.join(tmp, "direct2.json")),
                  cli_run(binary, other + ["--replay",
                                           "--trace-dir", trace_dir],
                          os.path.join(tmp, "replay2.json"))))
    for what, direct, replay in pairs:
        if replay.get("exec_mode") != "replay":
            sys.exit(f"FAIL: {what}: replay record not marked "
                     f"exec_mode=replay")
        for key in ("sim_cycles", "image_hash"):
            if direct.get(key) != replay.get(key):
                sys.exit(f"FAIL: {what}: {key} diverged: direct "
                         f"{direct.get(key)!r} vs replay "
                         f"{replay.get(key)!r}")
        if not replay.get("verified"):
            sys.exit(f"FAIL: {what}: replay record not verified")
        print(f"OK: {what}: sim_cycles={direct['sim_cycles']} "
              f"image_hash={direct['image_hash']} bit-identical")
        checks += 1
    return checks


def canonical_doc(binary, args, json_path):
    """Run swex_cli with canonical $SWEX_RUN_JSON output and return
    the document bytes (the byte-identity currency of --cache-equiv)."""
    env = dict(os.environ, SWEX_RUN_JSON=json_path,
               SWEX_RUN_CANONICAL="1")
    proc = subprocess.run(
        [binary, *args], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {binary} {' '.join(args)} exited with "
                 f"{proc.returncode}:\n{proc.stdout}")
    with open(json_path, "rb") as f:
        return f.read()


@contextlib.contextmanager
def serving(binary, sock_path, cache_dir):
    """Run `swex_cli --serve` on sock_path over cache_dir; yield the
    server process and a connected socket. The server is killed on
    the way out unless the caller already shut it down."""
    srv = subprocess.Popen(
        [binary, "--serve", sock_path, "--cache-dir", cache_dir,
         "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        # Ready when it accepts: the file appears at bind(), not listen().
        for _ in range(200):
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                conn.connect(sock_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                conn.close()
                time.sleep(0.05)
        else:
            sys.exit("FAIL: --serve never accepted on its socket")
        with conn:
            yield srv, conn
    finally:
        if srv.poll() is None:
            srv.kill()
            srv.wait()


def stats_bytes(record_line):
    """The raw "stats" member of one record's JSON: its last member,
    so the bytes between "stats": and the record's final brace."""
    key = ',"stats":'
    at = record_line.find(key)
    if at < 0:
        sys.exit(f"FAIL: record carries no stats: {record_line[:200]}")
    return record_line[at + len(key):record_line.rstrip().rfind("}")]


def printed_stats(stdout):
    """The one line of --stats output: the stats object."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
    if len(lines) != 1:
        sys.exit(f"FAIL: --stats printed {len(lines)} JSON lines:\n"
                 f"{stdout[:2000]}")
    return lines[0]


def record_bytes(line):
    """The raw "record" member of a response line: the envelope's last
    member, so the bytes between "record": and the final brace."""
    key = '"record":'
    at = line.find(key)
    if at < 0:
        sys.exit(f"FAIL: response carries no record: {line[:200]}")
    return line[at + len(key):line.rstrip().rfind("}")]


def check_stress_cache_contract(binary, tmp):
    """A cache stress_protocols (built next to swex_cli) filled must
    serve each cell the bytes an uncached run of it emits: the cache
    has one writer, so a hit is always the record a direct run
    produces."""
    stress = os.path.join(os.path.dirname(binary), "stress_protocols")
    filled = os.path.join(tmp, "stress_cache")
    proc = subprocess.run(
        [stress, "--app", "worker", "--protocol", "H5", "--seeds", "1",
         "--cache", filled],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {stress} exited with {proc.returncode}:\n"
                 f"{proc.stdout}")
    # The stress grid's cell stress/worker/H5/s1, field for field.
    cell = {"op": "run", "id": "stress/worker/H5/s1", "app": "worker",
            "params": {"wss": "4", "iterations": "2"}, "nodes": 16,
            "victim": 6, "audit": True, "protocol": "h5", "jitter": 37,
            "jitter_seed": 1, "fault_seed": 1, "canonical": True}
    got = {}
    for name, cache_dir in (("filled", filled),
                            ("empty", os.path.join(tmp, "empty_cache"))):
        sock_path = os.path.join(tmp, f"contract_{name}.sock")
        with serving(binary, sock_path, cache_dir) as (_, conn):
            f = conn.makefile("rw")
            f.write(json.dumps(cell) + "\n")
            f.flush()
            line = f.readline()
            resp = json.loads(line) if line else {}
            if not resp.get("ok"):
                sys.exit(f"FAIL: serve over the {name} cache failed: "
                         f"{resp!r}")
            got[name] = (resp.get("source"), record_bytes(line))
    if got["filled"][0] != "cache" or got["empty"][0] != "sim":
        sys.exit(f"FAIL: sources {got['filled'][0]!r} (filled cache), "
                 f"{got['empty'][0]!r} (empty cache); expected 'cache' "
                 f"and 'sim'")
    if got["filled"][1] != got["empty"][1]:
        sys.exit(f"FAIL: the cell stress_protocols cached serves "
                 f"{len(got['filled'][1])} record bytes, an uncached "
                 f"run {len(got['empty'][1])}; a hit must be the bytes "
                 f"a direct run emits")
    print(f"OK: a stress_protocols-filled cache serves the direct "
          f"record ({len(got['empty'][1])} bytes)")
    return 1


def record_lines(doc):
    """The record bytes of a swex-run-v1 document, one per line."""
    return [ln.strip().rstrip(b",") for ln in doc.splitlines()[1:-1]]


def check_remote_sweep(binary, tmp, sock_path):
    """swex_cli --connect --sweep prints the local sweep's point lines,
    and writes for each cell the canonical record of a direct run of
    it (id cli: a server-side grid cannot give cells per-cell ids)."""
    points = spectrum(binary)
    local = subprocess.run([binary, *CLI_SWEEP], stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
    if local.returncode != 0:
        sys.exit(f"FAIL: swex_cli {shlex.join(CLI_SWEEP)} exited with "
                 f"{local.returncode}:\n{local.stdout}")
    want = check_sweep_points("--sweep", local.stdout, points)
    remote_json = os.path.join(tmp, "remote_sweep.json")
    proc = subprocess.run(
        [binary, "--connect", sock_path, *CLI_SWEEP, "--json",
         remote_json],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: swex_cli --connect --sweep exited with "
                 f"{proc.returncode}:\n{proc.stdout}")
    if check_sweep_points("--connect --sweep", proc.stdout,
                          points) != want:
        sys.exit(f"FAIL: --connect --sweep point lines differ from the "
                 f"local sweep's:\n{proc.stdout}\nlocal:\n{local.stdout}")
    load_doc(remote_json, "swex-run-v1")
    with open(remote_json, "rb") as f:
        records = record_lines(f.read())
    cells = [(key, seed) for key, _ in points for seed in CLI_SWEEP_SEEDS]
    if len(records) != len(cells):
        sys.exit(f"FAIL: --connect --sweep wrote {len(records)} records "
                 f"for {len(cells)} cells")
    for (key, seed), rec in zip(cells, records):
        direct = canonical_doc(
            binary, CLI_SWEEP_CELL + ["--protocol", key, "--jitter-seed",
                                      str(seed)],
            os.path.join(tmp, "sweep_cell.json"))
        if record_lines(direct) != [rec]:
            sys.exit(f"FAIL: --connect --sweep cell {key} s{seed} differs "
                     f"from a direct run of it")
    print(f"OK: --connect --sweep prints the local sweep's "
          f"{len(points)} point lines and writes each cell's direct "
          f"record")
    return 1


def check_cache_equiv(binary, tmp):
    """Direct, cold-cache, and warm-cache runs must emit byte-identical
    canonical documents; the serve front end must hand back the same
    record over the socket."""
    cache_dir = os.path.join(tmp, "cache")
    spec = ["--app", "worker", "--nodes", "8", "--protocol", "h5",
            "--wss", "4", "--iters", "2"]
    checks = 0

    direct = canonical_doc(binary, spec,
                           os.path.join(tmp, "direct.json"))
    cold = canonical_doc(binary, spec + ["--cache-dir", cache_dir],
                         os.path.join(tmp, "cold.json"))
    warm = canonical_doc(binary, spec + ["--cache-dir", cache_dir],
                         os.path.join(tmp, "warm.json"))
    if cold != direct:
        sys.exit("FAIL: cold-cache document differs from direct")
    if warm != direct:
        sys.exit("FAIL: warm-cache document differs from direct")
    entries = [f for f in os.listdir(cache_dir)
               if f.endswith(".swexrec")]
    if len(entries) != 1:
        sys.exit(f"FAIL: expected 1 cache entry, found {entries}")
    entry_path = os.path.join(cache_dir, entries[0])
    print(f"OK: direct/cold/warm canonical documents byte-identical "
          f"({len(direct)} bytes, entry {entries[0]})")
    checks += 3

    # Serve round-trip: the record streamed over the socket must equal
    # the record in the direct document, served from the cache.
    sock_path = os.path.join(tmp, "serve.sock")
    with serving(binary, sock_path, cache_dir) as (srv, conn):
        f = conn.makefile("rw")

        def rpc(obj):
            f.write(json.dumps(obj) + "\n")
            f.flush()
            line = f.readline()
            if not line:
                sys.exit("FAIL: serve connection closed mid-request")
            return json.loads(line)

        # The direct run's spec, by name (id included: it is part of
        # the record and therefore of the cache key).
        resp = rpc({"op": "run", "id": "cli", "app": "worker",
                    "nodes": 8, "protocol": "h5",
                    "params": {"wss": "4", "iterations": "2"},
                    "tag": "equiv", "canonical": True})
        if not resp.get("ok"):
            sys.exit(f"FAIL: serve run failed: {resp.get('error')!r}")
        if resp.get("source") != "cache":
            sys.exit(f"FAIL: serve source {resp.get('source')!r}, "
                     f"expected 'cache'")
        direct_rec = json.loads(direct)["records"][0]
        if resp.get("record") != direct_rec:
            sys.exit("FAIL: served record differs from the direct "
                     "run's record")

        # swex_cli --connect sends the same spec, id included, so the
        # record it writes is the direct run's record.
        remote_json = os.path.join(tmp, "remote.json")
        proc = subprocess.run(
            [binary, "--connect", sock_path, *spec, "--json",
             remote_json],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.exit(f"FAIL: swex_cli --connect exited with "
                     f"{proc.returncode}:\n{proc.stdout}")
        remote = load_doc(remote_json, "swex-run-v1")["records"]
        if remote != [direct_rec]:
            sys.exit("FAIL: swex_cli --connect record differs from the "
                     "direct run's record")
        print("OK: swex_cli --connect record identical to the direct "
              "run's")
        checks += 1

        # --connect --stats prints the served record's stats object:
        # the bytes the direct document carries.
        proc = subprocess.run(
            [binary, "--connect", sock_path, *spec, "--stats"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.exit(f"FAIL: swex_cli --connect --stats exited with "
                     f"{proc.returncode}:\n{proc.stdout}")
        direct_line = direct.decode().splitlines()[1]
        if printed_stats(proc.stdout) != stats_bytes(direct_line):
            sys.exit("FAIL: swex_cli --connect --stats differs from the "
                     "direct record's stats member")
        print("OK: swex_cli --connect --stats prints the direct "
              "record's stats")
        checks += 1
        stats = rpc({"op": "stats"})
        if not stats.get("ok") or \
                stats.get("stats", {}).get("hits", 0) < 1:
            sys.exit(f"FAIL: serve stats did not account the hit: "
                     f"{stats!r}")

        # A server-side sweep must stream every cell byte-identical to
        # the same cell requested directly: the h5 cell is the direct
        # run above, the h2 cell a fresh direct document.
        direct_h2 = canonical_doc(
            binary, ["--app", "worker", "--nodes", "8", "--protocol",
                     "h2", "--wss", "4", "--iters", "2"],
            os.path.join(tmp, "direct_h2.json"))
        f.write(json.dumps(
            {"op": "sweep", "id": "cli", "app": "worker", "nodes": 8,
             "params": {"wss": "4", "iterations": "2"}, "tag": "sw",
             "canonical": True,
             "grid": {"protocol": ["h5", "h2"]}}) + "\n")
        f.flush()
        cells = {}
        while True:
            line = f.readline()
            if not line:
                sys.exit("FAIL: serve connection closed mid-sweep")
            resp = json.loads(line)
            if not resp.get("ok"):
                sys.exit(f"FAIL: sweep cell failed: {resp!r}")
            if resp.get("sweep_done"):
                break
            cells[resp["cell"]] = resp["record"]
        if sorted(cells) != [0, 1]:
            sys.exit(f"FAIL: sweep streamed cells {sorted(cells)}, "
                     f"expected [0, 1]")
        if cells[0] != direct_rec:
            sys.exit("FAIL: sweep cell 0 (h5) differs from the "
                     "direct run's record")
        if cells[1] != json.loads(direct_h2)["records"][0]:
            sys.exit("FAIL: sweep cell 1 (h2) differs from a direct "
                     "h2 run's record")
        print("OK: server-side sweep cells byte-identical to direct "
              "runs")
        checks += 3
        checks += check_remote_sweep(binary, tmp, sock_path)

        # Simultaneous clients each get the direct run's bytes back —
        # the multi-client server must not interleave responses.
        import threading
        results = [None] * 3

        def client_run(i):
            c2 = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            c2.connect(sock_path)
            f2 = c2.makefile("rw")
            f2.write(json.dumps(
                {"op": "run", "id": "cli", "app": "worker",
                 "nodes": 8, "protocol": "h5",
                 "params": {"wss": "4", "iterations": "2"},
                 "tag": f"c{i}", "canonical": True}) + "\n")
            f2.flush()
            line = f2.readline()
            results[i] = json.loads(line) if line else None
            f2.close()
            c2.close()

        threads = [threading.Thread(target=client_run, args=(i,))
                   for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, r in enumerate(results):
            if r is None or not r.get("ok"):
                sys.exit(f"FAIL: concurrent client {i} failed: {r!r}")
            if r.get("tag") != f"c{i}":
                sys.exit(f"FAIL: concurrent client {i} got tag "
                         f"{r.get('tag')!r}")
            if r.get("record") != direct_rec:
                sys.exit(f"FAIL: concurrent client {i}'s record "
                         f"differs from the direct run's")
        print(f"OK: {len(results)} concurrent clients served "
              f"byte-identical records")
        checks += 1

        down = rpc({"op": "shutdown"})
        if not down.get("ok"):
            sys.exit(f"FAIL: shutdown op failed: {down!r}")
        f.close()
        if srv.wait(timeout=30) != 0:
            sys.exit(f"FAIL: serve exited with {srv.returncode}")
        print("OK: serve round-trip record identical, hit accounted, "
              "clean shutdown")
        checks += 3
    # An invalid entry must go cold and still produce the identical
    # document: invalidation changes cost, never results. Truncate the
    # run's entry; the rerun must read it as a miss, recompute, and
    # replace it in place, so the entry count does not grow (the
    # sweep's other cell stays untouched).
    n_before = len([f for f in os.listdir(cache_dir)
                    if f.endswith(".swexrec")])
    entry_bytes = os.path.getsize(entry_path)
    os.truncate(entry_path, entry_bytes // 2)
    redone = canonical_doc(binary, spec + ["--cache-dir", cache_dir],
                           os.path.join(tmp, "redone.json"))
    if redone != direct:
        sys.exit("FAIL: post-invalidation document differs from "
                 "direct")
    entries = [f for f in os.listdir(cache_dir)
               if f.endswith(".swexrec")]
    if len(entries) != n_before:
        sys.exit(f"FAIL: the rerun left {len(entries)} entries "
                 f"(expected {n_before}: invalid entry replaced, not "
                 f"added)")
    if os.path.getsize(entry_path) != entry_bytes:
        sys.exit(f"FAIL: the truncated entry was not replaced: "
                 f"{os.path.getsize(entry_path)} bytes, expected "
                 f"{entry_bytes}")
    print("OK: a truncated entry recomputes to the identical "
          "document and is replaced in place")
    checks += 1

    return checks


def run_cli(binary, tmp):
    """One tiny WORKER experiment; --json and $SWEX_RUN_JSON must
    both carry the same schema-valid document."""
    json_path = os.path.join(tmp, "run.json")
    env_path = os.path.join(tmp, "run_env.json")
    cmd = [binary, "--app", "worker", "--nodes", "4",
           "--protocol", "h5", "--wss", "2", "--iters", "2",
           "--seq", "--json", json_path]
    try:
        proc = subprocess.run(
            cmd,
            env=dict(os.environ, SWEX_RUN_JSON=env_path),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    except OSError as e:
        sys.exit(f"FAIL: cannot run {binary}: {e}")
    if proc.returncode != 0:
        sys.exit(f"FAIL: {binary} exited with {proc.returncode}:\n"
                 f"{proc.stdout}")
    if "verification: PASSED" not in proc.stdout:
        sys.exit(f"FAIL: cli did not report verification:\n"
                 f"{proc.stdout}")
    n = check_run_json(json_path, expect_records=2)
    check_run_json(env_path, expect_records=2)

    # Directory records must omit machine_model; a snooping-bus run
    # must stamp it so downstream tooling can tell the two apart.
    records = [r for r in
               json.load(open(json_path, encoding="utf-8"))["records"]]
    if any("machine_model" in r for r in records):
        sys.exit("FAIL: directory record carries machine_model")
    snoop = cli_run(binary,
                    ["--app", "falseshare", "--nodes", "4",
                     "--protocol", "mesi"],
                    os.path.join(tmp, "run_snoop.json"))
    if snoop.get("machine_model") != "snoop":
        sys.exit(f"FAIL: snooping record machine_model is "
                 f"{snoop.get('machine_model')!r}, expected 'snoop'")
    if not snoop.get("verified"):
        sys.exit("FAIL: snooping record not verified")

    for bad in CLI_USAGE_ERRORS:
        expect_usage_error(binary, ["--app", "worker", "--nodes", "4",
                                    "--wss", "2", "--iters", "2", *bad])
    print(f"OK: {len(CLI_USAGE_ERRORS)} malformed invocations exit 2")

    for args in CLI_OUT_OF_MEMORY + CLI_REFUSED_PARAMS:
        expect_usage_error(binary, args)
    print(f"OK: {len(CLI_OUT_OF_MEMORY)} oversized and "
          f"{len(CLI_REFUSED_PARAMS)} unrunnable app parameters exit 2")

    proc = subprocess.run([binary, *CLI_TSP_SMALL_MACHINE],
                          stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or "verification: PASSED" not in proc.stdout:
        sys.exit(f"FAIL: swex_cli {' '.join(CLI_TSP_SMALL_MACHINE)} "
                 f"exited with {proc.returncode}:\n{proc.stdout[-2000:]}")
    print("OK: a 2-node 12-city TSP run fills its work queues and "
          "passes")

    # $SWEX_RUN_CANONICAL makes --json canonical too: two documents of
    # one spec are byte-identical, with the host wall time zeroed.
    docs = []
    for i in range(2):
        path = os.path.join(tmp, f"canonical{i}.json")
        proc = subprocess.run(
            [binary, "--app", "worker", "--nodes", "4", "--wss", "2",
             "--iters", "2", "--json", path],
            env=dict(os.environ, SWEX_RUN_CANONICAL="1"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.exit(f"FAIL: canonical --json run exited with "
                     f"{proc.returncode}:\n{proc.stdout}")
        with open(path, "rb") as f:
            docs.append(f.read())
    if docs[0] != docs[1]:
        sys.exit("FAIL: two canonical --json documents of one spec "
                 "differ")
    if b'"wall_s":0,' not in docs[0]:
        sys.exit('FAIL: canonical --json document lacks "wall_s":0')
    print("OK: canonical --json documents are byte-identical")

    # --stats prints the record's stats member, byte for byte.
    proc = subprocess.run(
        [binary, "--app", "worker", "--nodes", "4", "--wss", "2",
         "--iters", "2", "--stats"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: --stats run exited with {proc.returncode}:\n"
                 f"{proc.stdout}")
    if printed_stats(proc.stdout) != stats_bytes(
            docs[0].decode().splitlines()[1]):
        sys.exit("FAIL: --stats output differs from the --json record's "
                 "stats member")
    print("OK: --stats prints the --json record's stats member")

    proc = subprocess.run([binary, "--help"], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    named = [flag for flag, _ in CLI_REMOVED_OPTIONS
             if re.search(rf"(?<![\w-]){flag}(?![\w-])", proc.stdout)]
    if proc.returncode != 0 or named:
        sys.exit(f"FAIL: swex_cli --help (exit {proc.returncode}) names "
                 f"removed options {named}")
    for args in CLI_REMOVED_OPTIONS:
        out = expect_usage_error(binary, args)
        if f"unknown option '{args[0]}'" not in out:
            sys.exit(f"FAIL: swex_cli {shlex.join(args)} is not refused "
                     f"as an unknown option:\n{out}")
    print(f"OK: {len(CLI_REMOVED_OPTIONS)} removed options are unknown "
          f"and --help names none")

    check_local_sweep(binary, tmp)
    check_remote_sweep_counts(binary, tmp)
    return n + 1


def check_local_sweep(binary, tmp):
    """The local --sweep: every point ok, records in spectrum-major
    order with per-cell ids, and one canonical document at any
    --jobs."""
    points = spectrum(binary)
    docs = []
    for jobs in ("1", "2"):
        path = os.path.join(tmp, f"sweep_jobs{jobs}.json")
        proc = subprocess.run(
            [binary, *CLI_SWEEP, "--jobs", jobs, "--json", path],
            env=dict(os.environ, SWEX_RUN_CANONICAL="1"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.exit(f"FAIL: swex_cli {shlex.join(CLI_SWEEP)} --jobs "
                     f"{jobs} exited with {proc.returncode}:\n"
                     f"{proc.stdout}")
        check_sweep_points(f"--sweep --jobs {jobs}", proc.stdout, points)
        with open(path, "rb") as f:
            docs.append(f.read())
    ids = [r.get("id") for r in json.loads(docs[0])["records"]]
    want = [f"sweep/{label}/s{seed}" for _, label in points
            for seed in CLI_SWEEP_SEEDS]
    if ids != want:
        sys.exit(f"FAIL: --sweep records carry ids {ids}, expected "
                 f"{want}")
    if docs[0] != docs[1]:
        sys.exit("FAIL: canonical --sweep documents at --jobs 1 and "
                 "--jobs 2 differ")
    print(f"OK: --sweep prints {len(points)} all-ok points and emits "
          f"{len(ids)} records in spectrum-major order, identical at "
          f"--jobs 1 and 2")


@contextlib.contextmanager
def fake_sweep_server(sock_path, of, cells):
    """A peer that answers one request line with `cells` cell lines
    claiming an `of`-cell grid, then sweep_done (with no cells, a run
    gets an ok line that carries no record)."""
    import threading
    srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    srv.bind(sock_path)
    srv.listen(4)
    srv.settimeout(CLI_REFUSAL_TIMEOUT_S)
    record = {"id": "fake", "status": "ok", "verified": True,
              "sim_cycles": 1, "image_hash": "0000000000000000"}

    def line(obj):
        return json.dumps(obj, separators=(",", ":")) + "\n"

    def serve():
        try:
            conn, _ = srv.accept()
        except OSError:
            return
        with conn, conn.makefile("rw") as f:
            if not f.readline():
                return
            for c in range(cells):
                f.write(line({"ok": True, "cell": c, "of": of,
                              "cell_key": f"k{c}", "source": "sim",
                              "record": record}))
            f.write(line({"ok": True, "sweep_done": True, "cells": of}))
            f.flush()

    peer = threading.Thread(target=serve)
    peer.start()
    try:
        yield
    finally:
        srv.close()
        peer.join()


def check_remote_sweep_counts(binary, tmp):
    """--connect --sweep must refuse a grid of another size than the
    points x seeds it asked for: exit 1 with an error record that
    names the sweep's protocol as "spectrum", never a crash or a
    document of the wrong length."""
    grid = len(spectrum(binary)) * len(CLI_SWEEP_SEEDS)
    for of in (1, grid + 5):
        sock_path = os.path.join(tmp, f"fake_of{of}.sock")
        json_path = os.path.join(tmp, f"fake_of{of}.json")
        with fake_sweep_server(sock_path, of, of):
            try:
                proc = subprocess.run(
                    [binary, "--connect", sock_path, *CLI_SWEEP, "--json",
                     json_path], stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT, text=True,
                    timeout=CLI_REFUSAL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.exit(f"FAIL: --connect --sweep against a {of}-cell "
                         f"answer still running after "
                         f"{CLI_REFUSAL_TIMEOUT_S} s")
        if proc.returncode != 1:
            sys.exit(f"FAIL: --connect --sweep against a {of}-cell answer "
                     f"for a {grid}-cell grid exited with "
                     f"{proc.returncode}, expected 1:\n{proc.stdout}")
        records = load_doc(json_path, "swex-run-v1").get("records")
        if not isinstance(records, list) or len(records) != 1 or \
                records[0].get("status") != "error" or \
                records[0].get("error_kind") != "parse" or \
                records[0].get("protocol") != "spectrum":
            sys.exit(f"FAIL: --connect --sweep against a {of}-cell answer "
                     f"wrote {records!r}, expected one parse error "
                     f"record for protocol \"spectrum\"")
    print(f"OK: --connect --sweep refuses 1- and {grid + 5}-cell answers "
          f"for a {grid}-cell grid (exit 1, error record)")

    # A failed run's record keeps the protocol the run asked for.
    sock_path = os.path.join(tmp, "fake_run.sock")
    json_path = os.path.join(tmp, "fake_run.json")
    with fake_sweep_server(sock_path, 1, 0):
        try:
            proc = subprocess.run(
                [binary, "--connect", sock_path, *CLI_SWEEP_CELL,
                 "--protocol", "h2", "--json", json_path],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                timeout=CLI_REFUSAL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit(f"FAIL: --connect against a record-less answer still "
                     f"running after {CLI_REFUSAL_TIMEOUT_S} s")
    records = load_doc(json_path, "swex-run-v1").get("records")
    if proc.returncode != 1 or not isinstance(records, list) or \
            len(records) != 1 or records[0].get("status") != "error" or \
            records[0].get("protocol") != "h2":
        sys.exit(f"FAIL: --connect --protocol h2 against a record-less "
                 f"answer exited with {proc.returncode} and wrote "
                 f"{records!r}, expected exit 1 and one error record for "
                 f"protocol \"h2\":\n{proc.stdout}")
    print("OK: a failed --connect run records the protocol it asked for")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("binary",
                    help="path to the micro_substrates binary "
                         "(or swex_cli with --cli)")
    ap.add_argument("--cli", action="store_true",
                    help="validate swex-run-v1 records from swex_cli")
    ap.add_argument("--replay-equiv", action="store_true",
                    help="validate swex-trace-v1 files and "
                         "direct-vs-replay bit-identity via swex_cli")
    ap.add_argument("--cache-equiv", action="store_true",
                    help="validate result-cache and serve byte-"
                         "identity via swex_cli")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        if args.cache_equiv:
            n = check_cache_equiv(args.binary, tmp)
            n += check_stress_cache_contract(args.binary, tmp)
            print(f"OK: {n} cache equivalence checks passed")
        elif args.replay_equiv:
            n = check_replay_equiv(args.binary, tmp)
            print(f"OK: {n} replay equivalence checks passed")
        elif args.cli:
            n = run_cli(args.binary, tmp)
            print(f"OK: {n} run records validated")
        else:
            json_path = os.path.join(tmp, "bench.json")
            run_bench(args.binary, json_path)
            # A second run must merge, not mangle, the existing file.
            run_bench(args.binary, json_path)
            n = check_bench_json(json_path)
            print(f"OK: {n} entries validated")
            check_merge_keeps_entries(args.binary, tmp)


if __name__ == "__main__":
    main()
