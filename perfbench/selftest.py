"""Self-tests of the benchmark harness. Run from the root of the checkout:

    python3 perfbench/selftest.py

They cover wrapper restoration, per-thread span nesting under jobs=2, the
self-time arithmetic and its check, the tail-percentile rule, the choice of
traces by seed, a smoke run of run.py, the timeout that abandons a fit, the
refusal to run without the package, and a reference for every pool trace of
the workloads BENCHMARK.json lists.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import threading
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run

run.import_package()

from lpplfit import synth  # noqa: E402
from tracer import TARGETS, Span, Tracer, covered, overlap_seconds, self_times  # noqa: E402
from workloads import FROZEN_SEED, WORKLOADS, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent


def _run_bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


class WrapperTests(unittest.TestCase):
    def originals(self):
        return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}

    def test_wrappers_replace_then_restore(self):
        before = self.originals()
        with Tracer().installed():
            during = self.originals()
            for key, fn in before.items():
                self.assertIsNot(during[key], fn, key)
        self.assertEqual(self.originals(), before)

    def test_restored_after_exception(self):
        before = self.originals()
        with self.assertRaises(KeyError):
            with Tracer().installed():
                raise KeyError("boom")
        self.assertEqual(self.originals(), before)


class SpanTests(unittest.TestCase):
    def test_thread_stacks_nest_under_pool(self):
        tracer = Tracer()
        barrier = threading.Barrier(2, timeout=10)

        def task(_):
            with tracer.span("task") as t:
                barrier.wait()  # both tasks are open at once
                with tracer.span("leaf") as leaf:
                    pass
            return t, leaf

        with tracer.trace("root") as root:
            with tracer.span("outer") as outer:
                with ThreadPoolExecutor(max_workers=2) as pool:
                    pairs = list(pool.map(task, range(2)))
        self.assertEqual(root.parent, None)
        self.assertEqual(outer.parent, root.id)
        for t, leaf in pairs:
            self.assertEqual(t.parent, outer.id)
            self.assertEqual(leaf.parent, t.id)
            self.assertEqual(leaf.thread, t.thread)
        self.assertNotEqual(pairs[0][0].thread, pairs[1][0].thread)
        self.assertEqual({s.trace for s in tracer.spans}, {root.trace})
        self.assertGreater(overlap_seconds(tracer.spans), 0.0)

    def test_smoke_fit_jobs2_parents(self):
        workload = WORKLOADS["smoke"]
        inputs = workload.inputs(7, 1, run.OUT_DIR)
        tracer = Tracer()
        with tracer.installed():
            with tracer.trace("bench.trace"):
                outcome = workload.run(inputs[0], tracer.span)
        self.assertEqual(outcome.failed, 0, outcome.failed_checks)
        by_id = {s.id: s for s in tracer.spans}
        fits = [s for s in tracer.spans if s.name == "linear.interleave_fit"]
        self.assertEqual(len(fits), outcome.tasks)
        self.assertGreater(len({s.thread for s in fits}), 1)
        for s in fits:
            self.assertEqual(by_id[s.parent].name, "driver.fit_command")
        for s in tracer.spans:
            if s.name == "solver.lm_fit":
                parent = by_id[s.parent]
                self.assertEqual(parent.name, "linear.interleave_fit")
                self.assertEqual(parent.thread, s.thread)
        self.assertEqual(sum(s.info["iterations"] for s in tracer.spans
                             if s.name == "solver.lm_fit"), outcome.iterations)


class SelfTimeTests(unittest.TestCase):
    def test_covered_union_and_clip(self):
        self.assertEqual(covered(0, 10, [(1, 3), (2, 5), (7, 12)]), 7)
        self.assertEqual(covered(0, 10, []), 0)
        self.assertEqual(covered(2, 4, [(0, 1), (5, 6)]), 0)

    def test_self_times_add_up(self):
        spans = [Span(1, "root", None, 1, 0, 0.0, 10.0),
                 Span(2, "a", 1, 1, 0, 1.0, 4.0),
                 Span(3, "b", 1, 1, 9, 3.0, 6.0),  # other thread, overlaps a
                 Span(4, "a.child", 2, 1, 0, 2.0, 3.0)]
        selfs = self_times(spans)
        self.assertEqual(selfs, {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0})
        self.assertEqual(overlap_seconds(spans), 1.0)
        self.assertEqual(sum(selfs.values()), 10.0 + overlap_seconds(spans))

    def test_check_trace_counts_a_mismatch(self):
        layers = {"trace.self_sum_s": 10.0, "trace.root_s": 9.0, "trace.overlap_s": 1.0}
        twin = run.Fit(0, Outcome("t", "base", 1.0, sha256="a"), 9.0)
        good = run.Fit(0, Outcome("t", "base", 1.0, sha256="a"), 9.01, dict(layers))
        run.check_trace(good, twin)
        self.assertEqual((good.outcome.checks, good.outcome.failed), (3, 0))
        for key, value in (("trace.self_sum_s", 10.5), ("trace.root_s", 8.0)):
            bad = run.Fit(0, Outcome("t", "base", 1.0, sha256="a"), 9.01, {**layers, key: value})
            run.check_trace(bad, twin)
            self.assertEqual(bad.outcome.failed, 1 + (key == "trace.root_s"), key)


class SeedTests(unittest.TestCase):
    def labels(self, name, seed, units):
        return [i.label for i in WORKLOADS[name].inputs(seed, units, run.OUT_DIR)]

    def test_default_seed_is_the_frozen_suite_round_robin(self):
        frozen = synth.standard_suite(FROZEN_SEED)
        want = [f"{frozen[g * 5 + rep][0]}#{rep}@{FROZEN_SEED}" for rep in range(5) for g in range(3)]
        self.assertEqual(self.labels("suite-1k", FROZEN_SEED, 15), want)

    def test_same_seed_same_inputs_other_seed_other(self):
        self.assertEqual(self.labels("long-10k", 3, 6), self.labels("long-10k", 3, 6))
        self.assertNotEqual(self.labels("long-10k", 3, 6), self.labels("long-10k", 4, 6))


class TailTests(unittest.TestCase):
    def test_needs_eleven_samples(self):
        self.assertIsNone(run.tail_percentile([1.0] * 10))
        pct, value, beyond = run.tail_percentile([float(v) for v in range(11, 0, -1)])
        self.assertEqual((value, beyond), (1.0, 10))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_ten_beyond(self):
        values = [float(v) for v in range(1, 101)]
        pct, value, beyond = run.tail_percentile(values)
        self.assertEqual((pct, value, beyond), (90.0, 90.0, 10))
        self.assertEqual(sum(v > value for v in values), 10)


class EndToEndTests(unittest.TestCase):
    def last_json(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_smoke_runs_traced_and_untraced(self):
        for trace, table in zip(("0", "1"), run.metric_tables()):
            result = self.last_json(_run_bench("--workload", "smoke", "--seed", "5",
                                               "--seconds", "2", "--trace", trace))
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]), set(table))

    def test_fit_abandoned_at_timeout(self):
        args = run.parse_args(["--workload", "suite-1k", "--seed", "20260823"])
        workdir = run.OUT_DIR / "timeout"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            # The first frozen-suite trace takes several seconds; the worker's
            # start-up keeps its own, longer timeout.
            result = run.run_pass(args, "plain", 1, float("inf"), workdir, timeout=2.0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual(result.outcomes, [])
        [(label, seconds, calibration)] = result.abandoned
        self.assertEqual(label, f"base#0@{FROZEN_SEED}")
        self.assertTrue(2.0 <= seconds < 3.0, seconds)
        self.assertGreater(calibration, 0.0)

    def test_refuses_without_package(self):
        bare = run.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for f in HERE.glob("*.py"):
                shutil.copy(f, bare / "perfbench")
            proc = _run_bench("--workload", "suite-1k", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_reference_covers_every_pool_trace(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for w in doc["workloads"]:
            reference = run.load_reference(w["name"])
            self.assertEqual(set(reference), {i.label for i in WORKLOADS[w["name"]].pool()})


if __name__ == "__main__":
    run.OUT_DIR.mkdir(exist_ok=True)
    unittest.main()
