"""The benchmark's three workloads: seeded corpora, one op at a time.

All three are closed loops with one client: the next op is sent only when
the previous one has returned, from one process and one thread. Every op
is checked against a reference the benchmark holds itself, and a wrong
verdict, an invalid certificate, an exception or a CLI mismatch marks the
op failed without stopping the run.

A workload builds one pass of tasks with `prepare(seed, pass_index,
tracer)` (generation and reference answers: the set-up cost) and runs one
task with `run(task, tracer)`, which returns the timed ops it made: one per
instance in process, one per call in the CLI pipeline. The hyperdeg
package is passed in as `hd`, so a test can substitute a stub decider.

Corpora are stratified so that two seeds give the same mix of hard and
easy ops: planted_degseq sweeps every edge count m, and the partition
workloads keep a fixed quota of YES and NO reference answers per class.
Only the instances themselves vary with the seed.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Optional

_EXIT_BY_ANSWER = {"YES": 0, "NO": 1, "UNKNOWN": 3}
# Node budget of every decide. Small enough that an UNKNOWN costs a few ms,
# so a pass holds thousands of ops and its percentiles repeat across seeds.
BUDGET = 2_000


@dataclass
class Op:
    """One timed op and what checking it found."""

    ms: float = 0.0
    error: Optional[str] = None  # why the op failed; None when it passed
    truth: Optional[str] = None  # reference answer "yes"/"no"; set on decision ops
    answer: Optional[str] = None  # YES / NO / UNKNOWN as the program gave it
    nodes: int = 0  # search nodes, UNKNOWN counted at the budget
    solver_ms: Optional[float] = None  # time inside decide_degseq; None off the solver
    prefilter_no: Optional[bool] = None  # traced runs: prefilter_degseq said NO

    @property
    def ok(self) -> bool:
        return self.error is None


def _stream(hd, seed: int, pass_index: int):
    return hd.SplitMix64(seed + (pass_index << 32))


def _crash(op: Op, start: float, exc: Exception) -> None:
    op.ms = 1000.0 * (perf_counter() - start)
    op.error = f"{type(exc).__name__}: {exc}"
    traceback.print_exc(file=sys.stderr)


def _realizes(edges, degrees, width: int) -> bool:
    """Independent check: distinct sorted index tuples of `width` with these degrees."""
    n = len(degrees)
    counts = [0] * n
    seen = set()
    for edge in edges:
        if not isinstance(edge, (list, tuple)):
            return False
        e = tuple(edge)
        if len(e) != width or e in seen or any(
            not isinstance(v, int) or not 0 <= v < n for v in e
        ):
            return False
        if any(e[i] >= e[i + 1] for i in range(width - 1)):
            return False
        seen.add(e)
        for v in e:
            counts[v] += 1
    return counts == list(degrees)


def _graphical(d) -> bool:
    """Erdos-Gallai, written out here as a reference that is not the program's."""
    d = sorted(d, reverse=True)
    if sum(d) % 2:
        return False
    for k in range(1, len(d) + 1):
        if sum(d[:k]) > k * (k - 1) + sum(min(x, k) for x in d[k:]):
            return False
    return True


def _json(text: str) -> dict:
    """The JSON object printed on stdout, or {} when stdout is not one."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return doc if isinstance(doc, dict) else {}


def _check_verdict(op: Op) -> None:
    if op.answer == "YES" and op.truth == "no":
        op.error = "answered YES, reference says NO"
    elif op.answer == "NO" and op.truth == "yes":
        op.error = "answered NO, reference says YES"


class PlantedDegseq:
    """decide_degseq on planted degree sequences at n = 9, 10, 11."""

    name = "planted_degseq"
    rusage = resource.RUSAGE_SELF  # the process whose peak memory is the program's
    sizes = (9, 10, 11)
    sweeps = 12  # every m in [0, C(n, 3)] appears this often per pass

    def __init__(self, hd, workdir: Path):
        self.hd = hd

    def prepare(self, seed: int, pass_index: int, tracer) -> list:
        rng = _stream(self.hd, seed, pass_index)
        plan = [
            (n, m)
            for _ in range(self.sweeps)
            for n in self.sizes
            for m in range(comb(n, 3) + 1)
        ]
        rng.shuffle(plan)
        tracer.op_id = f"{pass_index}:setup"
        tasks = []
        for n, m in plan:
            with tracer.span("workbench.gen"):
                inst, _ = self.hd.gen_planted_degseq(n, m, rng.next_u64())
            tasks.append(inst.d)
        return tasks

    def run(self, d, tracer) -> list[Op]:
        hd = self.hd
        op = Op(truth="yes")
        start = perf_counter()
        try:
            with tracer.span("solver.decide"):
                out = hd.decide_degseq(d, budget=BUDGET)
        except Exception as exc:  # a crash fails this op, not the run
            _crash(op, start, exc)
            return [op]
        op.ms = op.solver_ms = 1000.0 * (perf_counter() - start)
        op.answer, op.nodes = out.answer, out.stats.nodes
        _check_verdict(op)
        if out.answer == "YES" and not _realizes(out.certificate.edges, d.values, 3):
            op.error = "YES certificate does not realize d"
        if tracer.enabled:
            with tracer.span("solver.prefilter"):
                op.prefilter_no = hd.prefilter_degseq(d) is not None
        return [op]


class ReducedPartition:
    """3-partition reduced to degseq, decided, certificates carried both ways."""

    name = "reduced_partition"
    rusage = resource.RUSAGE_SELF
    # (n, max_value, planted, reference answer) -> instances per pass
    quotas = {
        (9, 8, True, True): 800,
        (9, 8, False, True): 400,
        (9, 8, False, False): 400,
        (12, 20, True, True): 800,
        (12, 20, False, True): 400,
        (12, 20, False, False): 400,
    }

    def __init__(self, hd, workdir: Path):
        self.hd = hd

    def prepare(self, seed: int, pass_index: int, tracer) -> list:
        hd = self.hd
        rng = _stream(hd, seed, pass_index)
        tracer.op_id = f"{pass_index}:setup"
        tasks = []
        for (n, max_value, planted, want), quota in self.quotas.items():
            found = 0
            while found < quota:
                with tracer.span("workbench.gen"):
                    inst = hd.gen_partition(n, max_value, rng.next_u64(), planted=planted)
                truth = hd.bruteforce_partition(inst)
                if truth == want:
                    tasks.append((inst, truth))
                    found += 1
        rng.shuffle(tasks)
        return tasks

    def run(self, task, tracer) -> list[Op]:
        hd = self.hd
        inst, truth = task
        op = Op(truth="yes" if truth else "no")
        start = perf_counter()
        lifted = None
        try:
            with tracer.span("reduction.reduce"):
                red = hd.reduce_partition_to_degseq(inst)
            d, sp = red.degseq.d, red.sign_partition
            solver_start = perf_counter()
            with tracer.span("solver.decide"):
                out = hd.decide_degseq(d, budget=BUDGET)
            op.solver_ms = 1000.0 * (perf_counter() - solver_start)
            if out.answer == "YES":
                with tracer.span("core.verify"):
                    check = hd.verify_certificate(out.certificate, d)
                # raises CertificateError when the forcing conditions fail
                with tracer.span("reduction.project"):
                    projected = hd.project_certificate(out.certificate, sp)
                with tracer.span("solver.decide_partition"):
                    part = hd.decide_partition(inst, budget=BUDGET)
                if part.answer == "YES":
                    with tracer.span("reduction.map"):
                        mapped = hd.map_partition_certificate(part.certificate, inst)
                    with tracer.span("reduction.lift"):
                        lifted = hd.lift_certificate(mapped, sp)
                    with tracer.span("core.verify"):
                        lifted_check = hd.verify_certificate(lifted, d)
        except Exception as exc:  # a crash fails this op, not the run
            _crash(op, start, exc)
            return [op]
        op.ms = 1000.0 * (perf_counter() - start)
        op.answer, op.nodes = out.answer, out.stats.nodes
        _check_verdict(op)
        if out.answer == "YES" and op.ok:
            if not check or not _realizes(out.certificate.edges, d.values, 3):
                op.error = "YES certificate does not realize the reduced d"
            elif not _realizes(projected.edges, (1,) * inst.n, 3):
                op.error = "projected certificate is not a 3-partition"
            elif part.answer == "NO":
                op.error = "decide_partition answered NO, reference says YES"
            elif lifted is not None and (
                not lifted_check or not _realizes(lifted.edges, d.values, 3)
            ):
                op.error = "lifted certificate does not realize the reduced d"
        if tracer.enabled:
            with tracer.span("core.sign_partition"):
                hd.sign_partition(red.zero_weight.w)
            with tracer.span("solver.prefilter"):
                op.prefilter_no = hd.prefilter_degseq(d) is not None
        return [op]


@dataclass
class _Chain:
    seed: int
    planted: bool
    truth: bool
    gen_text: str  # what `gen` must print, from serialize_instance in process
    d: tuple  # the reduced degree sequence `reduce` must print
    k2_text: str  # the k = 2 instance: the partition values read as graph degrees
    k2_truth: bool


class CliPipeline:
    """`gen -> reduce -> decide -> verify` and `decide --k 2` as subprocesses."""

    name = "cli_pipeline"
    rusage = resource.RUSAGE_CHILDREN
    n, max_value = 9, 8
    # (planted, reference answer) -> chains per pass: 110 CLI calls. Unplanted
    # NO instances are left to reduced_partition: at n = 9 most end UNKNOWN at
    # the budget and a few NO at the prefilter with 0 nodes, which on a pass of
    # a few dozen decisions moved nodes_per_op by a sixth between seeds.
    quotas = {(True, True): 11, (False, True): 11}

    def __init__(self, hd, workdir: Path):
        self.hd = hd
        self.workdir = workdir
        src = Path(hd.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def prepare(self, seed: int, pass_index: int, tracer) -> list:
        hd = self.hd
        rng = _stream(hd, seed, pass_index)
        tracer.op_id = f"{pass_index}:setup"
        chains = []
        for (planted, want), quota in self.quotas.items():
            found = 0
            while found < quota:
                gen_seed = rng.next_u64() >> 1
                with tracer.span("workbench.gen"):
                    inst = hd.gen_partition(self.n, self.max_value, gen_seed, planted=planted)
                truth = hd.bruteforce_partition(inst)
                if truth != want:
                    continue
                found += 1
                k2 = hd.DegSeqInstance(d=hd.DegreeSequence(inst.a), k=2)
                chains.append(
                    _Chain(
                        seed=gen_seed,
                        planted=planted,
                        truth=truth,
                        gen_text=hd.serialize_instance(inst),
                        d=hd.reduce_partition_to_degseq(inst).degseq.d.values,
                        k2_text=hd.serialize_instance(k2),
                        k2_truth=_graphical(inst.a),
                    )
                )
        rng.shuffle(chains)
        return chains

    def _call(self, args: list[str], tracer) -> tuple[Op, Optional[subprocess.CompletedProcess]]:
        argv = [sys.executable, "-m", "hyperdeg.cli", *args]
        op = Op()
        start = perf_counter()
        try:
            with tracer.span("cli." + args[0]):
                proc = subprocess.run(
                    argv, cwd=self.workdir, env=self.env, capture_output=True,
                    text=True, timeout=120,
                )
        except (OSError, subprocess.SubprocessError) as exc:
            _crash(op, start, exc)
            return op, None
        op.ms = 1000.0 * (perf_counter() - start)
        return op, proc

    def _decision(self, op: Op, proc, truth: bool) -> Optional[dict]:
        """Read a decide result from stdout; a non-JSON stdout is a failure, not NO."""
        op.truth = "yes" if truth else "no"
        doc = _json(proc.stdout)
        if doc.get("answer") not in _EXIT_BY_ANSWER:
            op.error = f"decide printed no result document (exit {proc.returncode})"
            return None
        op.answer = doc["answer"]
        stats = doc.get("stats")
        if not isinstance(stats, dict) or not all(
            isinstance(stats.get(key), int) for key in ("nodes", "millis")
        ):
            op.error = "decide result has no node count or time"
            return None
        op.nodes = stats["nodes"]
        if proc.returncode != _EXIT_BY_ANSWER[op.answer]:
            op.error = f"exit {proc.returncode} does not match {op.answer}"
        _check_verdict(op)
        return doc

    def _probe_formats(self, text: str, tracer) -> None:
        """Traced runs: time the workbench's parse and serialize on a CLI document."""
        if tracer.enabled:
            with tracer.span("workbench.parse"):
                inst = self.hd.parse_instance(text)
            with tracer.span("workbench.serialize"):
                self.hd.serialize_instance(inst)

    def run(self, chain: _Chain, tracer) -> list[Op]:
        hd = self.hd
        self.workdir.mkdir(parents=True, exist_ok=True)
        ops = []

        gen = ["gen", "--problem", "three_partition", "--n", str(self.n),
               "--max-value", str(self.max_value), "--seed", str(chain.seed)]
        op, proc = self._call(gen + (["--planted"] if chain.planted else []), tracer)
        ops.append(op)
        if proc is not None and (proc.returncode != 0 or proc.stdout != chain.gen_text):
            op.error = "gen output differs from serialize_instance"
        if not op.ok:
            return ops
        (self.workdir / "p.json").write_text(proc.stdout, encoding="utf-8")
        self._probe_formats(proc.stdout, tracer)

        op, proc = self._call(
            ["reduce", "--from", "three_partition", "--to", "degseq", "--input", "p.json"], tracer
        )
        ops.append(op)
        if proc is not None:
            if proc.returncode != 0 or _json(proc.stdout).get("d") != list(chain.d):
                op.error = "reduce output differs from reduce_partition_to_degseq"
        if not op.ok:
            return ops
        (self.workdir / "d.json").write_text(proc.stdout, encoding="utf-8")
        self._probe_formats(proc.stdout, tracer)

        cert_path = self.workdir / "cert.json"
        cert_path.unlink(missing_ok=True)
        op, proc = self._call(
            ["decide", "--input", "d.json", "--budget", str(BUDGET),
             "--certificate-out", "cert.json"], tracer
        )
        ops.append(op)
        doc = self._decision(op, proc, chain.truth) if proc is not None else None
        if doc is not None:
            op.solver_ms = float(doc["stats"]["millis"])
            if op.ok and op.answer == "YES":
                cert = _json(cert_path.read_text(encoding="utf-8")) if cert_path.exists() else {}
                if cert != doc.get("certificate") or not _realizes(cert.get("edges", ()), chain.d, 3):
                    op.error = "YES certificate does not realize the reduced d"
        if op.ok and op.answer == "YES":
            op, proc = self._call(["verify", "--instance", "d.json", "--certificate", "cert.json"], tracer)
            ops.append(op)
            if proc is not None and (proc.returncode != 0 or _json(proc.stdout).get("valid") is not True):
                op.error = "verify rejected a certificate the benchmark accepts"

        (self.workdir / "k2.json").write_text(chain.k2_text, encoding="utf-8")
        op, proc = self._call(["decide", "--input", "k2.json", "--k", "2"], tracer)
        ops.append(op)
        doc = self._decision(op, proc, chain.k2_truth) if proc is not None else None
        if doc is not None and op.ok and op.answer == "YES":
            cert = doc.get("certificate")
            if not isinstance(cert, dict) or cert.get("certificate") != "graph" or not _realizes(
                cert.get("edges", ()), hd.parse_instance(chain.k2_text).d.values, 2
            ):
                op.error = "k = 2 certificate does not realize d"
        if tracer.enabled:
            d2 = hd.parse_instance(chain.k2_text).d
            with tracer.span("graph.eg"):
                hd.eg_check(d2)
            with tracer.span("graph.hh"):
                hd.hh_realize(d2)
        return ops


WORKLOADS = {w.name: w for w in (PlantedDegseq, ReducedPartition, CliPipeline)}
