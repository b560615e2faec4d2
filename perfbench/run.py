"""hyperdeg benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout (the hyperdeg sources are read from src/):

    python3 perfbench/run.py --workload planted_degseq --seed 1 --seconds 30 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment (engine,
Python version, nproc, node budget). With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, taken from
spans the benchmark records around its own calls into each hyperdeg
module, and the spans are written to .perfbench/trace-<workload>-<seed>.json.

Untraced, the run executes passes of seeded tasks for --seconds, always
completing the first. Wall metrics pool every op measured; the counts
(decided_frac, nodes_per_op) come from the first pass, which is the same
corpus for a given seed however fast the program is. setup_s is
the median of several fresh processes, each timed from its spawn to the
point where its first op could start. Traced, the first pass runs once,
each task twice, traced and untraced in alternating order, so that the
tracing overhead is measured on the same ops.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import BUDGET, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "decided_frac": ("frac", "higher"),
    "nodes_per_op": ("nodes", "lower"),
    "ok_frac": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# spans whose mean duration per call is reported as <name>_ms
SPAN_LAYERS = (
    "cli.gen", "cli.reduce", "cli.decide", "cli.verify",
    "workbench.gen", "workbench.parse", "workbench.serialize",
    "reduction.reduce", "core.sign_partition", "reduction.project",
    "reduction.lift", "core.verify", "solver.prefilter", "graph.eg", "graph.hh",
)
PER_LAYER = {
    "cli.import_ms": ("ms", "lower"),
    "cli.import_numpy_ms": ("ms", "lower"),
    **{f"{name}_ms": ("ms", "lower") for name in SPAN_LAYERS},
    "solver.prefilter_no_frac": ("frac", "higher"),
    **{
        f"{metric}.{side}": spec
        for metric, spec in (
            ("solver.decide_ms", ("ms", "lower")),
            ("solver.nodes", ("nodes", "lower")),
            ("solver.nodes_per_s", ("nodes/s", "higher")),
            ("solver.unknown", ("count", "lower")),
            ("solver.wasted_node_frac", ("frac", "lower")),
        )
        for side in ("yes", "no")
    },
    "bench.untraced_ops_per_s": ("1/s", "higher"),
    "bench.traced_ops_per_s": ("1/s", "higher"),
    "bench.trace_overhead_frac": ("frac", "lower"),
}


def tail_ms(samples: list[float], q: float) -> float:
    """Nearest-rank q-quantile; refused unless ten samples lie beyond it."""
    xs = sorted(samples)
    rank = math.ceil(q * len(xs))
    if len(xs) - rank < 10:
        raise ValueError(f"{len(xs)} samples leave fewer than ten beyond the {q:.0%} point")
    return xs[rank - 1]


def environment() -> dict:
    return {
        "engine": "numba" if importlib.util.find_spec("numba") else "python",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "budget": BUDGET,
    }


def failed(op) -> bool:
    if not op.ok:
        print(f"failed op: {op.error}", file=sys.stderr)
    return not op.ok


def run_passes(wl, tasks, seed: int, seconds: float, tracer) -> tuple[list, list, int, int]:
    """Closed loop for `seconds`, in passes over seeded tasks.

    The first pass always completes, and the counts come from it: the same
    corpus for a seed however fast the program is. Later passes draw new
    tasks and stop at the first task boundary after `seconds`; the corpus is
    shuffled, so a partial pass is a fair sample. Returns the first pass's
    ops, every op's ms, the failures, and the peak RSS in KB as it stood
    after the first pass, so that memory does not depend on the speed.
    """
    first, samples, failures = [], [], 0
    begin = time.monotonic()
    pass_index = 0
    while True:
        for i, task in enumerate(tasks):
            if pass_index and time.monotonic() - begin >= seconds:
                return first, samples, failures, peak_kb
            tracer.op_id = f"{pass_index}:{i}"
            for op in wl.run(task, tracer):
                samples.append(op.ms)
                failures += failed(op)
                if pass_index == 0:
                    first.append(op)
        if pass_index == 0:
            peak_kb = resource.getrusage(wl.rusage).ru_maxrss
        pass_index += 1
        if time.monotonic() - begin >= seconds:
            return first, samples, failures, peak_kb
        tasks = wl.prepare(seed, pass_index, tracer)


def decision_counts(ops: list) -> dict:
    decisions = [op for op in ops if op.truth is not None]
    return {
        "decided_frac": sum(op.answer in ("YES", "NO") for op in decisions) / len(decisions),
        "nodes_per_op": sum(op.nodes for op in decisions) / len(decisions),
    }


def setup_seconds(args) -> float:
    """Median set-up time of fresh processes, spawn to first op."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only", repr(spawned)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def import_times() -> tuple[float, float]:
    """Median ms to import hyperdeg.cli, and numpy within it, by -X importtime."""
    cli, numpy = [], []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hyperdeg.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
        cli.append(found["hyperdeg.cli"])
        numpy.append(found.get("numpy", 0.0))
    return statistics.median(cli), statistics.median(numpy)


def layer_metrics(tracer, ops: list, untraced_ms: float, traced_ms: float) -> dict:
    m = {}
    m["cli.import_ms"], m["cli.import_numpy_ms"] = import_times()
    for name in SPAN_LAYERS:
        m[f"{name}_ms"] = tracer.mean_ms(name)
    pre = [op.prefilter_no for op in ops if op.prefilter_no is not None]
    m["solver.prefilter_no_frac"] = sum(pre) / len(pre) if pre else 0.0
    for side in ("yes", "no"):
        solved = [op for op in ops if op.solver_ms is not None and op.truth == side]
        nodes = sum(op.nodes for op in solved)
        secs = sum(op.solver_ms for op in solved) / 1000.0
        unknown = [op for op in solved if op.answer == "UNKNOWN"]
        m[f"solver.decide_ms.{side}"] = 1000.0 * secs / len(solved) if solved else 0.0
        m[f"solver.nodes.{side}"] = nodes
        m[f"solver.nodes_per_s.{side}"] = nodes / secs if secs else 0.0
        m[f"solver.unknown.{side}"] = len(unknown)
        m[f"solver.wasted_node_frac.{side}"] = (
            sum(op.nodes for op in unknown) / nodes if nodes else 0.0
        )
    m["bench.untraced_ops_per_s"] = 1000.0 * len(ops) / untraced_ms
    m["bench.traced_ops_per_s"] = 1000.0 * len(ops) / traced_ms
    m["bench.trace_overhead_frac"] = traced_ms / untraced_ms - 1.0
    return m


def measure(args, hd, workdir: Path) -> tuple[int, int, dict]:
    """Run the workload; returns (ops attempted, ops failed, metrics)."""
    wl = WORKLOADS[args.workload](hd, workdir)
    env = environment()
    print(json.dumps({"env": env}))
    print(f"env: {env}", file=sys.stderr)
    tracer = Tracer(bool(args.trace))
    tasks = wl.prepare(args.seed, 0, tracer)
    if not args.trace:
        first, samples, failures, peak_kb = run_passes(wl, tasks, args.seed, args.seconds, tracer)
        metrics = {
            "setup_s": setup_seconds(args),
            "ops_per_s": 1000.0 * len(samples) / sum(samples),
            "op_ms_p50": statistics.median(samples),
            "op_ms_p90": tail_ms(samples, 0.9),
            **decision_counts(first),
            "ok_frac": 1.0 - failures / len(samples),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        return len(samples), failures, metrics
    plain = Tracer(False)
    traced_ops, attempted, failures = [], 0, 0
    spent = {plain: 0.0, tracer: 0.0}
    for i, task in enumerate(tasks):
        tracer.op_id = f"0:{i}"
        for t in (plain, tracer) if i % 2 == 0 else (tracer, plain):
            done = wl.run(task, t)
            spent[t] += sum(op.ms for op in done)
            attempted += len(done)
            failures += sum(failed(op) for op in done)
            if t is tracer:
                traced_ops += done
    tracer.write(
        OUT / f"trace-{args.workload}-{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "env": env},
    )
    return attempted, failures, layer_metrics(tracer, traced_ops, spent[plain], spent[tracer])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperdeg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "hyperdeg" / "__init__.py").is_file():
        print(f"error: no hyperdeg sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hyperdeg

    if args.setup_only is not None:
        WORKLOADS[args.workload](hyperdeg, None).prepare(args.seed, 0, Tracer(False))
        print(time.monotonic() - args.setup_only)
        return 0
    workdir = OUT / f"work-{os.getpid()}"
    try:
        attempted, failures, metrics = measure(args, hyperdeg, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failures == 0,
        "attempted": attempted,
        "failed": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
