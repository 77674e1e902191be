#!/bin/sh
# Determinism gate for the parallel sweep tier: the stress grid must
# produce a byte-identical digest at full host parallelism and at
# --jobs 1. Any cross-run state leakage (a shared PRNG, a stray
# global, a schedule-dependent merge) shows up here as a digest
# mismatch before it can corrupt a published figure.
#
# Usage:
#
#   tools/sweep_determinism.sh <path-to-stress_protocols> [args...]
#
# Extra args are forwarded to both runs (e.g. --drop 20 --dup 10 to
# gate the fault tier too). SWEX_DET_SEEDS overrides the seed count
# (default 200; the sanitizer legs use a smaller count because TSan
# slows the grid by an order of magnitude).
#
# A third leg re-runs the grid with --replay (every cell records its
# op streams, replays them on a fresh machine, and digests the replay
# run): the replayed digest must equal the direct one bit for bit,
# gating record/replay with the same precision as the
# --jobs gate. SWEX_DET_REPLAY=0 skips it.
#
# A fourth leg gates the snooping machine-model grid (--family snoop:
# 4 protocols x 2 bus disciplines over the sharing microbenchmarks)
# the same way: the digest must not depend on --jobs.
# SWEX_DET_SNOOP=0 skips it.
#
# A fifth leg gates the content-addressed result cache: the grid runs
# twice against one scratch cache directory — cold (every cell
# simulates and stores) and warm (every cell served from disk) — and
# both digests must equal the direct digest bit for bit, with the
# warm pass reporting 0 cache misses. A cache that changes a
# published number is worse than no cache.
# SWEX_DET_CACHE=0 skips it.
#
# A sixth leg gates the sweep server: tools/stress_serve runs its
# fixed 12-cell grid once in-process (--direct) and once through the
# full chaos harness (torn writes, resets, shedding, kill-and-resume
# sweeps over Unix and TCP sockets), and the two digests must match
# bit for bit — serving, chunked resume, and the result cache must
# never change a record byte. SWEX_DET_SERVE=0 skips it; the leg also
# skips itself if stress_serve is not built next to stress_protocols.
set -eu

if [ "$#" -lt 1 ]; then
    echo "usage: $0 <stress_protocols binary> [extra args...]" >&2
    exit 2
fi
stress=$1
shift

seeds=${SWEX_DET_SEEDS:-200}
jobs=$(nproc 2>/dev/null || echo 4)

extract_digest() {
    # "grid digest 43ab1be3aa392289 (360 runs, --jobs 8, 1.23s)"
    # -> the digest alone: runs/jobs/wall-clock legitimately differ.
    sed -n 's/^grid digest \([0-9a-f]*\) .*/\1/p'
}

echo "== sweep determinism: ${seeds} seeds, --jobs ${jobs} vs --jobs 1"

par=$("${stress}" --app worker --seeds "${seeds}" --jobs "${jobs}" \
      "$@" | extract_digest)
ser=$("${stress}" --app worker --seeds "${seeds}" --jobs 1 \
      "$@" | extract_digest)

if [ -z "${par}" ] || [ -z "${ser}" ]; then
    echo "error: no grid digest line in stress_protocols output" >&2
    exit 1
fi

echo "   --jobs ${jobs}: ${par}"
echo "   --jobs 1: ${ser}"

if [ "${par}" != "${ser}" ]; then
    echo "FAIL: grid digest depends on --jobs (${par} != ${ser})" >&2
    exit 1
fi
echo "OK: digests identical"

if [ "${SWEX_DET_REPLAY:-1}" != "0" ]; then
    echo "== replay equivalence: --replay vs direct"
    rep=$("${stress}" --app worker --seeds "${seeds}" \
          --jobs "${jobs}" --replay "$@" | extract_digest)
    if [ -z "${rep}" ]; then
        echo "error: no grid digest line in --replay output" >&2
        exit 1
    fi
    echo "   --replay: ${rep}"
    if [ "${rep}" != "${par}" ]; then
        echo "FAIL: replayed grid digest differs from direct" \
             "(${rep} != ${par})" >&2
        exit 1
    fi
    echo "OK: replayed digest identical"
fi

if [ "${SWEX_DET_SNOOP:-1}" != "0" ]; then
    echo "== snoop grid determinism: --jobs ${jobs} vs --jobs 1"
    spar=$("${stress}" --family snoop --seeds "${seeds}" \
           --jobs "${jobs}" | extract_digest)
    sser=$("${stress}" --family snoop --seeds "${seeds}" --jobs 1 \
           | extract_digest)
    if [ -z "${spar}" ] || [ -z "${sser}" ]; then
        echo "error: no grid digest line in --family snoop output" >&2
        exit 1
    fi
    echo "   --jobs ${jobs}: ${spar}"
    echo "   --jobs 1: ${sser}"
    if [ "${spar}" != "${sser}" ]; then
        echo "FAIL: snoop grid digest depends on --jobs" \
             "(${spar} != ${sser})" >&2
        exit 1
    fi
    echo "OK: snoop digests identical"
fi

if [ "${SWEX_DET_CACHE:-1}" != "0" ]; then
    echo "== cache equivalence: cold store, then warm re-sweep"
    cache_dir=$(mktemp -d)
    trap 'rm -rf "${cache_dir}"' EXIT
    cold=$("${stress}" --app worker --seeds "${seeds}" \
           --jobs "${jobs}" --cache "${cache_dir}" "$@" \
           | extract_digest)
    warm_out=$("${stress}" --app worker --seeds "${seeds}" \
               --jobs "${jobs}" --cache "${cache_dir}" "$@")
    warm=$(echo "${warm_out}" | extract_digest)
    if [ -z "${cold}" ] || [ -z "${warm}" ]; then
        echo "error: no grid digest line in --cache output" >&2
        exit 1
    fi
    echo "   cold: ${cold}"
    echo "   warm: ${warm}"
    if [ "${cold}" != "${par}" ] || [ "${warm}" != "${par}" ]; then
        echo "FAIL: cached grid digest differs from direct" \
             "(cold ${cold}, warm ${warm}, direct ${par})" >&2
        exit 1
    fi
    if ! echo "${warm_out}" | grep -q '^cache: [0-9]* hits, 0 misses,'
    then
        echo "FAIL: the warm pass missed the cache:" \
             "$(echo "${warm_out}" | grep '^cache:')" >&2
        exit 1
    fi
    echo "OK: cold and warm cached digests identical to direct," \
         "warm pass all hits"
fi

serve_bin=$(dirname "${stress}")/stress_serve
if [ "${SWEX_DET_SERVE:-1}" != "0" ] && [ -x "${serve_bin}" ]; then
    echo "== serve equivalence: chaos-served grid vs direct"
    sdir=$("${serve_bin}" --direct | extract_digest)
    ssrv=$("${serve_bin}" --conns 24 | extract_digest)
    if [ -z "${sdir}" ] || [ -z "${ssrv}" ]; then
        echo "error: no grid digest line in stress_serve output" >&2
        exit 1
    fi
    echo "   direct: ${sdir}"
    echo "   served: ${ssrv}"
    if [ "${ssrv}" != "${sdir}" ]; then
        echo "FAIL: chaos-served grid digest differs from direct" \
             "(${ssrv} != ${sdir})" >&2
        exit 1
    fi
    echo "OK: served digest identical to direct"
fi
