#!/usr/bin/env python3
"""Compares two sets of benchmark results written by run.py.

    python3 ftbench/compare.py --base .bench_results/a*.json --head b*.json

Each side is a list of result files of one workload (one file per seed).
The comparison is per metric, on the medians of each side, against the
regression bounds in BENCHMARK.json; the base side's spread (IQR over
median) is shown, and a base spread wider than the bound marks the metric
unresolved. Results whose host fingerprints differ (CPU, core count,
caches, compiler, flags, build type, SIMD backend) are never compared: the
script refuses with exit code 2. Exit code 1 means a metric regressed past
its bound.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FingerprintMismatch(Exception):
    pass


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def check_fingerprints(runs):
    """Raises FingerprintMismatch unless every run has the same fingerprint."""
    prints = [r.get("fingerprint") for r in runs]
    if any(p is None for p in prints):
        raise FingerprintMismatch("a result has no host fingerprint")
    first = prints[0]
    for p in prints[1:]:
        diff = sorted(k for k in set(first) | set(p) if first.get(k) != p.get(k))
        if diff:
            raise FingerprintMismatch("fingerprints differ in: " + ", ".join(diff))


def values(runs):
    out = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def spread(samples):
    """Interquartile range as a share of the median, with the quartiles
    statistics.quantiles(n=4) gives; None below two samples or at median 0."""
    if len(samples) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2 if q2 else None


def compare(base, head, spec):
    """Returns (rows, regressed): one row per metric present on both sides.

    A row is (name, base median, head median, relative change, bound, base
    spread, flag). The flag is REGRESSED when the head median is worse than
    the base median by more than the bound, and UNRESOLVED when the base's
    own spread is wider than the bound, so a change within it means nothing.
    """
    check_fingerprints(base + head)
    workloads = {r["workload"] for r in base + head}
    if len(workloads) != 1:
        raise ValueError("results mix workloads: " + ", ".join(sorted(workloads)))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bv, hv = values(base), values(head)
    rows, regressed = [], []
    for name in sorted(set(bv) & set(hv)):
        m = declared.get(name, {})
        b, h = statistics.median(bv[name]), statistics.median(hv[name])
        change = (h - b) / b if b else 0.0
        worse = -change if m.get("better") == "higher" else change
        bound = m.get("bound")
        base_spread = spread(bv[name])
        flag = ""
        if bound is not None and worse > bound:
            flag = "REGRESSED"
            regressed.append(name)
        elif bound is not None and base_spread is not None and base_spread > bound:
            flag = "UNRESOLVED"
        rows.append((name, b, h, change, bound, base_spread, flag))
    return rows, regressed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    try:
        rows, regressed = compare(load(args.base), load(args.head), spec)
    except FingerprintMismatch as e:
        print(f"compare: refusing to compare results from different hosts or "
              f"builds: {e}", file=sys.stderr)
        return 2
    for name, b, h, change, bound, base_spread, flag in rows:
        bnd = "" if bound is None else f"bound {bound:+.0%}"
        spr = "" if base_spread is None else f"spread {base_spread:.1%}"
        print(f"{name:40s} {b:14.6g} -> {h:14.6g} {change:+8.2%} {bnd:12s} "
              f"{spr:14s} {flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
