#!/usr/bin/env python3
"""Cluster failed sweep cells from swex-run-v1 documents.

A big seeded sweep that fails rarely produces dozens of failure
records whose stall summaries differ only in block addresses and seed
values. This tool parses the `stall` text the runner attaches to
failed records and clusters the failures by *where* coherence got
stuck — directory state @ home node, deferred-queue backlog @ home
node, or bus-queue depth on the snooping machine — so one glance
shows whether 40 failures are one bug or four.

Usage:

  tools/triage_failures.py run1.json [run2.json ...]
  tools/triage_failures.py --self-test

Stall summaries come from the machine model's stallSummary
(DirectoryBackend on directory machines, SnoopBackend on bus
machines):

  home 3 block 0x1a40 stuck in PendWrite (pending node 2, 5 acks
  outstanding)
  home 2 holds 17 deferred requests
  bus holds 4 queued transactions
    node 1 BusRdX block 0x80

Records carrying an `error_kind` never reached (or never came back
from) a simulator at all: they are the structured failures swex_cli
--connect writes when the sweep server refused or lost a request
(busy, deadline, parse, transport, ...). They cluster by that kind as
`serve:{kind}` — one glance separates "the server was overloaded"
from "the protocol deadlocked".

Records whose stall text matches none of these patterns cluster by
their status string alone. Exits non-zero if any input is malformed
or (with --self-test) the synthetic fixture misclusters.
"""

import argparse
import json
import re
import sys
from collections import defaultdict

# One regex per known stall line; each match yields one cluster
# signature. Block addresses and counts are deliberately NOT part of
# the signature — they vary per seed while the underlying bug does
# not.
STALL_PATTERNS = [
    # "home 3 block 0x1a40 stuck in PendWrite (pending node 2, ...)"
    (re.compile(r"home (\d+) block \S+ stuck in (\w+)"),
     lambda m: f"{m.group(2)}@home{m.group(1)}"),
    # "home 2 holds 17 deferred requests"
    (re.compile(r"home (\d+) holds \d+ deferred requests"),
     lambda m: f"deferred@home{m.group(1)}"),
    # "bus holds 4 queued transactions"
    (re.compile(r"bus holds \d+ queued transactions"),
     lambda m: "bus-queue"),
]


def signatures(record):
    """Cluster keys for one failed record (deduplicated, in stall
    order). Serve-side structured errors cluster by their kind;
    otherwise falls back to the status string when nothing matches."""
    kind = record.get("error_kind")
    if kind:
        return [f"serve:{kind}"]
    seen = []
    for line in record.get("stall", "").splitlines():
        for pattern, key in STALL_PATTERNS:
            m = pattern.search(line)
            if m:
                sig = key(m)
                if sig not in seen:
                    seen.append(sig)
                break
    if not seen:
        seen.append(f"status:{record.get('status', 'unknown')}")
    return seen


def load_records(paths):
    records = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"error: {path}: {e}")
        if doc.get("schema") != "swex-run-v1":
            sys.exit(f"error: {path}: unknown schema "
                     f"{doc.get('schema')!r}")
        recs = doc.get("records")
        if not isinstance(recs, list):
            sys.exit(f"error: {path}: no records array")
        records.extend(recs)
    return records


def cluster(records):
    """Map signature -> list of failed records carrying it."""
    clusters = defaultdict(list)
    for r in records:
        if r.get("status", "ok") == "ok":
            continue
        for sig in signatures(r):
            clusters[sig].append(r)
    return clusters


def describe(record):
    parts = [record.get("id", "?"),
             f"app={record.get('app', '?')}",
             f"protocol={record.get('protocol', '?')}",
             f"nodes={record.get('nodes', '?')}",
             f"status={record.get('status', '?')}"]
    if "machine_model" in record:
        parts.insert(3, f"machine={record['machine_model']}")
    return " ".join(parts)


def report(records, max_examples=5, out=sys.stdout):
    failed = [r for r in records if r.get("status", "ok") != "ok"]
    clusters = cluster(records)
    print(f"{len(records)} records, {len(failed)} failed, "
          f"{len(clusters)} failure clusters", file=out)
    order = sorted(clusters.items(),
                   key=lambda kv: (-len(kv[1]), kv[0]))
    for sig, members in order:
        print(f"\n[{len(members)}x] {sig}", file=out)
        for r in members[:max_examples]:
            print(f"    {describe(r)}", file=out)
        if len(members) > max_examples:
            print(f"    ... and {len(members) - max_examples} more",
                  file=out)
    return clusters


def synthetic_fixture():
    """A hand-built swex-run-v1 document exercising every pattern:
    two PendWrite@home3 cells (different blocks/seeds — must merge),
    one deferred backlog, one bus-machine stall, one failure with an
    empty stall text, two serve-side structured errors (a shed
    request and a dead peer — must cluster by error_kind, not
    status), and one passing record (must be ignored)."""
    def rec(rid, status, stall, **extra):
        r = {"id": rid, "app": "worker", "protocol": "h5",
             "nodes": 16, "status": status}
        if status != "ok":
            r["stall"] = stall
        r.update(extra)
        return r

    return {"schema": "swex-run-v1", "records": [
        rec("worker/h5/seed4", "deadlock",
            "home 3 block 0x1a40 stuck in PendWrite "
            "(pending node 2, 5 acks outstanding)\n"),
        rec("worker/h5/seed9", "deadlock",
            "home 3 block 0x2b80 stuck in PendWrite "
            "(pending node 7, 1 acks outstanding)\n"
            "home 2 holds 17 deferred requests\n"),
        rec("tsp/h1ack/seed2", "deadline",
            "home 2 holds 4 deferred requests\n"),
        rec("falseshare/mesi/seed5", "deadline",
            "bus holds 4 queued transactions\n"
            "  node 1 BusRdX block 0x80\n",
            machine_model="snoop", app="falseshare",
            protocol="MESI", nodes=4),
        rec("worker/h5/seed0", "deadline", ""),
        rec("worker/h5/remote1", "error", "",
            error="server busy (admission queue full)",
            error_kind="busy"),
        rec("worker/h5/remote2", "error", "",
            error="request deadline expired",
            error_kind="deadline"),
        rec("worker/h5/seed1", "ok", ""),
    ]}


def self_test():
    doc = synthetic_fixture()
    clusters = report(doc["records"])
    expect = {
        "PendWrite@home3": 2,
        "deferred@home2": 2,
        "bus-queue": 1,
        "status:deadline": 1,
        "serve:busy": 1,
        "serve:deadline": 1,
    }
    got = {sig: len(members) for sig, members in clusters.items()}
    if got != expect:
        sys.exit(f"FAIL: self-test clusters {got} != {expect}")
    if any(r.get("status") == "ok"
           for members in clusters.values() for r in members):
        sys.exit("FAIL: self-test clustered a passing record")
    print("\nOK: self-test clusters match")


def main():
    ap = argparse.ArgumentParser(
        description="cluster failed swex-run-v1 cells by stall "
                    "signature")
    ap.add_argument("runs", nargs="*",
                    help="swex-run-v1 JSON documents")
    ap.add_argument("--examples", type=int, default=5,
                    help="example records shown per cluster")
    ap.add_argument("--self-test", action="store_true",
                    help="run the synthetic-fixture self test")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.runs:
        ap.error("no input documents (or --self-test)")
    report(load_records(args.runs), max_examples=args.examples)


if __name__ == "__main__":
    main()
