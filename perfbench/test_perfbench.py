"""Tests of the benchmark itself: seeded op lists, the output checker and
the traced run.  From the root of a source checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The tracing test starts the CLI a few times and takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LayerStats  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Op,
    check_output,
    e_parabolic_order,
    op_list,
    setup_ops,
    sweep_assertions,
)


def _verify_output(n: int, summary_n: int | None = None, fail: bool = False) -> str:
    lines = [f"PASS ext-methods I={{{i}}} J={{}}" for i in range(n)]
    if fail:
        lines[0] = "FAIL" + lines[0][4:]
    m = n if summary_n is None else summary_n
    failed = int(fail)
    lines.append(f"checked {m} assertions for A5 over Q: {m - failed} passed, {failed} failed")
    return "\n".join(lines) + "\n"


class OpListTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in WORKLOADS:
            self.assertEqual(op_list(name, 11, "cache"), op_list(name, 11, "cache"))

    def test_seed_draws_the_queries(self):
        self.assertNotEqual(op_list("exceptional-queries", 1, "cache"),
                            op_list("exceptional-queries", 2, "cache"))

    def test_every_pass_holds_the_heavy_queries(self):
        for seed in range(5):
            argvs = [op.argv[:5] for op in op_list("exceptional-queries", seed, "cache")]
            self.assertIn(("ext", "--type", "E7", "--I", "0,1,2,3,4,5,6"), argvs)
            self.assertIn(("cohomology", "--type", "E7", "--I", ""), argvs)

    def test_sweep_assertion_counts(self):
        self.assertEqual(sweep_assertions(5, strata=False), 2080)
        self.assertEqual(sweep_assertions(4, strata=True), 1040)

    def test_e6_parabolic_orders(self):
        self.assertEqual(e_parabolic_order(6, 0b111111), 51840)
        self.assertEqual(e_parabolic_order(6, 0b111110), 1920)   # D5
        self.assertEqual(e_parabolic_order(6, 0b011110), 192)    # D4
        self.assertEqual(e_parabolic_order(6, 0b000101), 6)      # A2
        self.assertEqual(e_parabolic_order(6, 0b100011), 8)      # A1^3
        self.assertEqual(e_parabolic_order(7, 0b1111111), 2903040)


class TailTest(unittest.TestCase):
    def test_percentile_with_ten_samples_beyond(self):
        ops = op_list("exceptional-queries", 1, "cache")
        value, what = run.tail([float(x) for x in range(56)], ops)
        self.assertEqual(value, 45.0)
        self.assertEqual(what, f"p{100 * 46 / 56:.1f} of 56 samples")

    def test_few_samples_report_the_slowest_op_median(self):
        ops = op_list("strata-zd", 1, "cache") * 3
        slow = {"B4": [5.0, 9.0, 4.0], "D4": [2.0, 1.0, 3.0, 2.5, 1.5, 2.0]}
        latencies = [slow[op.argv[2]].pop() for op in ops]
        value, what = run.tail(latencies, ops)
        self.assertEqual(value, 5.0)
        self.assertTrue(what.startswith("the median of 3 runs of verify --type B4"))


class SpeedTest(unittest.TestCase):
    def test_wall_times_scale_by_the_samples_either_side(self):
        class Reference:
            times = [2 * run.REFERENCE_S, 2 * run.REFERENCE_S, run.REFERENCE_S]

            def reference(self):
                return self.times.pop(0)

        speed = run.Speed(Reference())
        speed.sample()
        first = speed.record(3.0)
        speed.sample()
        second = speed.record(3.0)
        speed.sample()
        self.assertAlmostEqual(speed.scaled(first), 1.5)   # twice as slow on both sides
        self.assertAlmostEqual(speed.scaled(second), 2.0)  # 1.5 times as slow on average

    def test_samples_are_spaced_in_time(self):
        class Reference:
            calls = 0

            def reference(self):
                self.calls += 1
                return run.REFERENCE_S

        ref = Reference()
        speed = run.Speed(ref)
        speed.sample(run.SAMPLE_EVERY_S)
        speed.sample(run.SAMPLE_EVERY_S)
        speed.sample()
        self.assertEqual(ref.calls, 2)


class CheckerTest(unittest.TestCase):
    verify = Op(("verify",), 1, {"assertions": 3, "summary_ring": "Q"})
    query = Op(("ext",), 1, {"table": {"2": {"rank": 1, "torsion": []}}})

    def _query_out(self, table: dict, **extra) -> str:
        return json.dumps({"method": "both", "query": {}, "table": table, **extra}) + "\n"

    def test_good_outputs_pass(self):
        self.assertIsNone(check_output(self.verify, 0, _verify_output(3)))
        self.assertIsNone(check_output(self.query, 0, self._query_out(self.query.expect["table"])))

    def test_wrong_assertion_count(self):
        self.assertIsNotNone(check_output(self.verify, 0, _verify_output(2)))
        self.assertIsNotNone(check_output(self.verify, 0, _verify_output(3, summary_n=4)))

    def test_fail_line(self):
        self.assertIsNotNone(check_output(self.verify, 0, _verify_output(3, fail=True)))

    def test_nonzero_exit(self):
        self.assertIsNotNone(check_output(self.verify, 1, _verify_output(3)))
        self.assertIsNotNone(check_output(self.query, 3, self._query_out({})))

    def test_corrupted_table(self):
        bad = {"2": {"rank": 2, "torsion": []}}
        self.assertIsNotNone(check_output(self.query, 0, self._query_out(bad)))
        self.assertIsNotNone(check_output(self.query, 0, self._query_out({})))

    def test_outside_hypotheses(self):
        out = self._query_out(self.query.expect["table"], outside_hypotheses=True)
        self.assertIsNotNone(check_output(self.query, 0, out))


class TracedRunTest(unittest.TestCase):
    """One op of each workload, plus a Weyl-cache query: the traced run must
    print the same bytes, pass the checker and record spans."""

    def setUp(self):
        build = ROOT / ".bench_build"
        build.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="perfbench-test-", dir=build))
        self.runner = run.Runner(ROOT, self.workdir, time.monotonic() + 170)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _same_bytes(self, op: Op) -> LayerStats:
        stats = LayerStats()
        _, plain = self.runner.plain(op)
        _, traced = self.runner.traced(op, stats)
        self.assertEqual(plain, traced, op.label())
        self.assertEqual(self.runner.failed, 0, op.label())
        return stats

    def test_stdout_identical(self):
        cache = self.workdir / "weyl"
        sweep = min(op_list("sweep-q", 1, ""), key=lambda op: op.argv[2])          # A5
        strata = max(op_list("strata-zd", 1, ""), key=lambda op: op.argv[2])       # D4
        queries = op_list("exceptional-queries", 1, str(cache))
        light = next(op for op in queries if op.argv[0] == "cohomology")
        weyl = next(op for op in queries if op.argv[0] == "dcosets")

        report = self._same_bytes(sweep).report(0, 0.0)
        self.assertGreater(report["homology.snf_calls"], 0)
        self.assertEqual(report["weyl.kostant_calls"], 0)
        report = self._same_bytes(strata).report(0, 0.0)
        self.assertGreater(report["weyl.kostant_calls"], 0)
        self._same_bytes(light)
        self.runner.plain(setup_ops("exceptional-queries", str(cache))[0])
        report = self._same_bytes(weyl).report(0, 0.0)
        self.assertEqual(report["weyl.cache_hits"], 1)


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as empty:
            shutil.copytree(HERE, Path(empty) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-q",
                                   "--seed", "1", "--seconds", "1"],
                                  cwd=empty, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
