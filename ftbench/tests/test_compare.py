"""Tests of compare.py. Run: python3 -m unittest discover -s ftbench/tests"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "protected_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "throughput_tps", "unit": "transforms/s", "better": "higher",
         "bound": 0.1},
    ],
    "per_layer": [],
}
FINGERPRINT = {"cpu_model": "X", "nproc": 4, "l2_bytes": 2097152,
               "l3_bytes": 110100480, "compiler": "GNU 12.2.0",
               "cxx_flags": "-O3", "build_type": "Release",
               "simd_backend": "avx2", "copy_probe_array_bytes": 448790528}


def result(ms, tps, **fingerprint_changes):
    fp = dict(FINGERPRINT, **fingerprint_changes)
    return {"workload": "seq_2p22", "fingerprint": fp,
            "result": {"metrics": {
                "protected_ms_p50": {"value": ms, "unit": "ms"},
                "throughput_tps": {"value": tps, "unit": "transforms/s"}}}}


class CompareTest(unittest.TestCase):
    def test_refuses_mismatched_fingerprint(self):
        with self.assertRaises(compare.FingerprintMismatch) as ctx:
            compare.compare([result(300, 3)], [result(300, 3, simd_backend="scalar")],
                            SPEC)
        self.assertIn("simd_backend", str(ctx.exception))

    def test_refuses_missing_fingerprint(self):
        bare = result(300, 3)
        bare["fingerprint"] = None
        with self.assertRaises(compare.FingerprintMismatch):
            compare.compare([result(300, 3)], [bare], SPEC)

    def test_cli_exit_code_on_mismatch(self):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for i, r in enumerate([result(300, 3), result(300, 3, nproc=8)]):
                p = os.path.join(d, f"r{i}.json")
                with open(p, "w") as f:
                    json.dump(r, f)
                paths.append(p)
            spec = os.path.join(d, "spec.json")
            with open(spec, "w") as f:
                json.dump(SPEC, f)
            code = compare.main(["--base", paths[0], "--head", paths[1],
                                 "--spec", spec])
            self.assertEqual(code, 2)

    def test_flags_regression_past_bound_in_both_directions(self):
        base = [result(300, 3.0), result(310, 3.1), result(305, 3.05)]
        head = [result(350, 2.5), result(360, 2.6), result(355, 2.55)]
        _, regressed = compare.compare(base, head, SPEC)
        self.assertEqual(sorted(regressed), ["protected_ms_p50", "throughput_tps"])

    def test_spread_uses_python_quartiles(self):
        # statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(compare.spread(list(range(10, 0, -1))), 1.0)
        # statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        self.assertAlmostEqual(compare.spread([2, 1]), 1.0)
        self.assertIsNone(compare.spread([3.0]))

    def test_wide_base_spread_is_unresolved(self):
        base = [result(200, 3.0), result(300, 3.0), result(400, 3.0)]
        head = [result(305, 3.0)]
        rows, regressed = compare.compare(base, head, SPEC)
        flags = {r[0]: r[-1] for r in rows}
        self.assertEqual(regressed, [])
        self.assertEqual(flags["protected_ms_p50"], "UNRESOLVED")
        self.assertEqual(flags["throughput_tps"], "")

    def test_within_bound_is_not_a_regression(self):
        base = [result(300, 3.0)]
        head = [result(320, 2.9)]
        _, regressed = compare.compare(base, head, SPEC)
        self.assertEqual(regressed, [])


if __name__ == "__main__":
    unittest.main()
