#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig4_direct --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10   # every workload
    python3 perfbench/run.py --smoke     # every workload once, small, all gates

The first call configures and builds the simulator libraries and the
benchmark (Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls rebuild only what changed. The benchmark prints its
stamp and a table of every metric, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. A copy of the
result, with the stamp, goes to .bench_results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig4_direct", "stress_audit", "replay_portable", "serve_mixed"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def commit_id(root):
    """The git commit, or a digest of the sources when the checkout is
    not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "perfbench"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return "src-" + h.hexdigest()[:16]


def build(root):
    """Configure (once) and build the benchmark; return its path."""
    for need in ["CMakeLists.txt", os.path.join("src", "CMakeLists.txt")]:
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"no simulator sources here ({need} is missing)")
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(os.cpu_count() or 1, 4))
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", root, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_INCLUDE=" +
               os.path.join(HERE, "perfbench.cmake")]
        if subprocess.run(cfg, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed", 1)
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed", 1)
    return os.path.join(build_dir, "perfbench")


def run_once(binary, root, workload, seed, seconds, trace, smoke, commit,
             echo=True):
    """Run one workload; return (exit code, parsed last line or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def smoke(binary, root, commit):
    """Every workload once at smoke size, untraced and traced: every
    gate must pass and every metric BENCHMARK.json names must print."""
    spec_path = os.path.join(root, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, res = run_once(binary, root, workload, 1, 1, trace, True,
                                 commit, echo=False)
            problems = []
            if code != 0 or res is None:
                problems.append(f"exit {code}, no result line")
            else:
                if not res.get("correct"):
                    problems.append(f"{res.get('failed')} of "
                                    f"{res.get('attempted')} ops failed")
                missing = [m for m in want[trace]
                           if m not in res.get("metrics", {})]
                if missing:
                    problems.append("missing " + ", ".join(missing))
            bad += bool(problems)
            print(f"{workload:16} trace {trace}: "
                  f"{'; '.join(problems) if problems else 'ok'}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="quick self-check of every workload and gate")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")

    root = os.getcwd()
    binary = build(root)
    commit = commit_id(root)
    if args.smoke:
        sys.exit(smoke(binary, root, commit))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        code, result = run_once(binary, root, workload, args.seed,
                                args.seconds, args.trace, False, commit)
        if code != 0 or result is None:
            fail(f"{workload} produced no result (exit {code})", 1)


if __name__ == "__main__":
    main()
