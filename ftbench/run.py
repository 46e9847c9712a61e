#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 ftbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are declared in BENCHMARK.json at the repository root.
The benchmark builds libftfft and the ftbench binary from source into
.bench_build/ (CMake, Release), runs the binary, and prints one JSON object
as the last line of stdout: {"correct", "attempted", "failed", "metrics"} —
every end-to-end metric with --trace 0, every per-layer metric with
--trace 1.
setup_s is the median of three cold set-ups (two --setup-only processes and
the measured run itself). A copy of each result, with the host fingerprint,
is kept under .bench_results/ for compare.py.

Exit codes: 0 ok; 1 an output check failed; 2 refused (FTFFT_* set, not a
checkout, build failed); 3 the binary did not print what BENCHMARK.json
declares.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"ftbench: {msg}", file=sys.stderr, flush=True)


def refuse_tuned_environment():
    """The library reads FTFFT_* knobs; the benchmark measures its defaults."""
    tuned = sorted(k for k in os.environ if k.startswith("FTFFT_"))
    if tuned:
        log("refusing to run with " + ", ".join(tuned) + " set")
        sys.exit(2)


def serve_rate(spec):
    """The open-loop rate lives in serve_mixed's `why` as '<number> jobs/s'."""
    for w in spec["workloads"]:
        if w["name"] == "serve_mixed":
            m = re.search(r"(\d+(?:\.\d+)?) jobs/s", w["why"])
            if m:
                return m.group(1)
    log("BENCHMARK.json: serve_mixed names no '<rate> jobs/s'")
    sys.exit(3)


def build():
    cmake = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(cmake)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ftbench", "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            log("build timed out")
            sys.exit(2)
        if r.returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(BUILD_DIR, "ftbench")


def run_binary(cmd):
    """Runs the ftbench binary; returns (exit code, stdout lines). Kills it on timeout."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("ftbench timed out: " + " ".join(cmd))
        sys.exit(2)
    return r.returncode, r.stdout.strip().splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    refuse_tuned_environment()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "core", "ftfft.hpp"))
            and os.path.isfile(spec_path)):
        log(f"{ROOT} is not a checkout of the library (no CMakeLists.txt, "
            "src/ or BENCHMARK.json)")
        sys.exit(2)
    with open(spec_path) as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        log(f"unknown workload {args.workload}; BENCHMARK.json has {sorted(names)}")
        sys.exit(2)

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.workload == "serve_mixed":
        cmd += ["--rate", serve_rate(spec)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, lines = run_binary(cmd + ["--setup-only"])
            if code != 0 or not lines:
                log("set-up run failed")
                sys.exit(1 if code == 1 else 2)
            setup.append(json.loads(lines[-1])["setup_s"])

    code, lines = run_binary(cmd)
    if not lines:
        log(f"ftbench printed nothing (exit {code})")
        sys.exit(code or 3)
    fingerprint = None
    for line in lines:
        if line.startswith('{"fingerprint"'):
            fingerprint = json.loads(line)["fingerprint"]
    result = json.loads(lines[-1])
    if code not in (0, 1) or "metrics" not in result:
        log(f"ftbench failed (exit {code})")
        sys.exit(code or 3)

    metrics = result["metrics"]
    if not args.trace:
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in declared})
    wrong_unit = [m["name"] for m in declared
                  if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]]
    if missing or extra or wrong_unit:
        log(f"metrics disagree with BENCHMARK.json: missing={missing} "
            f"extra={extra} wrong_unit={wrong_unit}")
        sys.exit(3)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR,
                       f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "fingerprint": fingerprint, "setup_samples_s": setup,
                   "result": result}, f, indent=1)
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
