#!/bin/sh
# Build the tier-1 test suite under ASan, UBSan, and TSan and run it
# under each, in separate build trees so sanitized and plain objects
# never mix. TSan matters since the sweep tier went parallel: the
# stress label runs the (app x protocol x seed) grid with --jobs 4,
# so any cross-run shared state in the simulator shows up as a race.
# The stress label also carries the fault-injection sweep, the
# record/replay stress leg (stress_replay: every grid cell records
# its op streams and replays them on a fresh machine, digests must
# match), the snooping machine-model grid (stress_snoop: 4 bus
# protocols x 2 arbitration disciplines over the sharing
# microbenchmarks, auditor attached), the content-addressed result
# cache leg (stress_cache: cold store then warm re-sweep against one
# scratch cache, so concurrent entry stores and the lock-free counters
# race under TSan), and the determinism legs (determinism_*: the
# 200-seed WORKER grid at --jobs 1, --jobs 4, replayed and through a
# cold then warm cache, the 200-seed snooping grid at --jobs 1 and
# --jobs 4, and stress_serve --direct), each pinned to its grid's one
# digest, so the sanitized binaries must reproduce the same digests.
# The tier-1 pass also carries test_serve, which runs a real
# multi-client server in-process — per-connection reader threads that
# read cache entries and render records for hits while the shared run
# pool simulates and stores misses, server-side sweeps, chunked
# resume, overload shedding, and SIGTERM drain — and the serve
# wire's transport on socket pairs, so the serve path's
# connection-lifetime discipline is TSan-checked on every matrix run.
# The stress label adds stress_serve, the socket-level chaos harness
# (torn writes, garbage, resets, stalled peers, kill-and-reconnect
# resumable sweeps, all on the server's Unix socket); SWEX_SERVE_CONNS
# scales its connection count down for the sanitized binaries.
# Usage:
#
#   tools/ci_sanitize.sh [builddir-prefix]
#
# The prefix defaults to build-san; the script creates
# <prefix>-address/, <prefix>-undefined/, and <prefix>-thread/ next
# to the source tree. Exits non-zero on the first configure, build,
# or test failure.
set -eu

src_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
prefix=${1:-build-san}

for san in address undefined thread; do
    build_dir="${prefix}-${san}"
    echo "== ${san}: configuring ${build_dir}"
    cmake -S "${src_dir}" -B "${build_dir}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSWEX_SANITIZE="${san}"
    echo "== ${san}: building"
    cmake --build "${build_dir}" -j "$(nproc 2>/dev/null || echo 4)"
    echo "== ${san}: running tier-1 tests"
    ctest --test-dir "${build_dir}" --output-on-failure
    echo "== ${san}: running the audited protocol stress sweep"
    SWEX_SERVE_CONNS=48 \
        ctest --test-dir "${build_dir}" --output-on-failure -L stress
done
echo "== sanitizer matrix passed"
