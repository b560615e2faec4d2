"""Self-test of the benchmark: percentile rule, fail counting, determinism.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hyperdeg  # noqa: E402
from run import END_TO_END, PER_LAYER, decision_counts, tail_ms  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CliPipeline, Op, PlantedDegseq, ReducedPartition  # noqa: E402


class _Stub:
    """hyperdeg with decide_degseq replaced; everything else passes through."""

    def __init__(self, decide):
        self.decide_degseq = decide

    def __getattr__(self, name):
        return getattr(hyperdeg, name)


def _outcome(answer):
    stats = hyperdeg.SearchStats(nodes=7, millis=0, budget_used=0.0)
    return hyperdeg.DecisionOutcome(answer, None, stats)


def _small(cls, **overrides):
    wl = cls(hyperdeg, None)
    for key, value in overrides.items():
        setattr(wl, key, value)
    return wl


def _run_pass(wl, seed):
    off = Tracer(False)
    return [op for task in wl.prepare(seed, 0, off) for op in wl.run(task, off)]


class PercentileRule(unittest.TestCase):
    def test_p90_has_ten_samples_beyond(self):
        samples = [float(x) for x in range(100, 0, -1)]
        self.assertEqual(tail_ms(samples, 0.9), 90.0)
        self.assertEqual(sum(x > 90.0 for x in samples), 10)

    def test_too_few_samples_refused(self):
        with self.assertRaises(ValueError):
            tail_ms([float(x) for x in range(99)], 0.9)


class FailCounting(unittest.TestCase):
    def test_planted_no_is_a_failure_and_the_run_goes_on(self):
        wl = _small(PlantedDegseq, sizes=(6,), sweeps=1)
        wl.hd = _Stub(lambda d, budget: _outcome("NO"))
        ops = _run_pass(wl, seed=3)
        self.assertEqual(len(ops), 21)
        self.assertTrue(all(not op.ok for op in ops))

    def test_exception_is_a_failure_not_an_abort(self):
        def crash(d, budget):
            raise RecursionError("maximum recursion depth exceeded")

        wl = _small(PlantedDegseq, sizes=(6,), sweeps=1)
        wl.hd = _Stub(crash)
        ops = _run_pass(wl, seed=3)
        self.assertEqual(len(ops), 21)
        self.assertTrue(all(op.error.startswith("RecursionError") for op in ops))

    def test_wrong_yes_on_a_reduced_no_instance(self):
        wl = _small(ReducedPartition, quotas={(9, 8, False, False): 3})
        wl.hd = _Stub(lambda d, budget: _outcome("YES"))
        ops = _run_pass(wl, seed=5)
        self.assertEqual([op.truth for op in ops], ["no"] * 3)
        self.assertTrue(all(not op.ok for op in ops))

    def test_unknown_is_undecided_not_failed(self):
        wl = _small(PlantedDegseq, sizes=(6,), sweeps=1)
        wl.hd = _Stub(lambda d, budget: _outcome("UNKNOWN"))
        ops = _run_pass(wl, seed=3)
        self.assertTrue(all(op.ok for op in ops))
        self.assertEqual(decision_counts(ops)["decided_frac"], 0.0)

    def test_cli_traceback_is_a_failure_not_no(self):
        wl = CliPipeline(hyperdeg, HERE)
        proc = subprocess.CompletedProcess([], 1, stdout="", stderr="Traceback ...\n")
        op = Op()
        self.assertIsNone(wl._decision(op, proc, truth=False))
        self.assertFalse(op.ok)
        self.assertIsNone(op.answer)


class Determinism(unittest.TestCase):
    def test_counts_repeat_across_seeded_runs(self):
        for wl in (
            _small(PlantedDegseq, sizes=(9,), sweeps=1),
            _small(ReducedPartition, quotas={(9, 8, True, True): 5, (9, 8, False, False): 3}),
        ):
            first, second = _run_pass(wl, seed=11), _run_pass(wl, seed=11)
            self.assertEqual(
                [(op.answer, op.nodes, op.ok) for op in first],
                [(op.answer, op.nodes, op.ok) for op in second],
            )
            self.assertEqual(decision_counts(first), decision_counts(second))

    def test_other_seed_other_inputs(self):
        wl = _small(PlantedDegseq, sizes=(9,), sweeps=1)
        off = Tracer(False)
        self.assertNotEqual(wl.prepare(1, 0, off), wl.prepare(2, 0, off))


class Checkout(unittest.TestCase):
    def test_no_result_outside_a_checkout(self):
        scratch = HERE.parent / ".perfbench"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli_pipeline",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


    def test_benchmark_json_lists_the_reported_metrics(self):
        manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]}, END_TO_END
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}, PER_LAYER
        )


if __name__ == "__main__":
    unittest.main()
