import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("equivalence_experiment.py", ["--count", "6", "--n", "6"], "disagreements 0"),
        ("bench_engine.py", ["--sizes", "6", "--per-size", "5"], "instances"),
        # planted n = 13: 7 of 40 were UNKNOWN at 200k nodes before the polytope layer
        ("bench_engine.py", ["--sizes", "13", "--per-size", "10", "--budget", "20000"],
         "unknown 0"),
    ],
)
def test_script_runs(script, args, expect):
    # the scripts call the library directly, so a renamed function or field
    # shows up here rather than at the next manual run
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("bench_engine.py", ["--per-size", "0"], "--per-size must be at least 1"),
        ("bench_engine.py", ["--sizes", "-1"], "--sizes must be at least 0"),
        ("bench_engine.py", ["--sizes", "6", "-1"], "--sizes must be at least 0"),
        ("bench_engine.py", ["--sizes", "6", "99999"], "--sizes must be at most 120"),
        ("bench_engine.py", ["--budget", "-1"], "--budget must be at least 0"),
        ("equivalence_experiment.py", ["--count", "-3"], "--count must be at least 1"),
        ("equivalence_experiment.py", ["--count", "0"], "--count must be at least 1"),
        ("equivalence_experiment.py", ["--budget", "-1"], "--budget must be at least 0"),
        ("equivalence_experiment.py", ["--n", "0"], "--n must be a multiple of 3 from 3 to 12"),
        ("equivalence_experiment.py", ["--planted-fraction", "2"],
         "--planted-fraction must be from 0 to 1"),
        ("equivalence_experiment.py", ["--planted-fraction", "-0.5"],
         "--planted-fraction must be from 0 to 1"),
        ("equivalence_experiment.py", ["--max-value", "-1", "--count", "1"],
         "--max-value must be from 0 to 512409557603043099 at --n 6"),
        ("equivalence_experiment.py", ["--max-value", "1024819115206086200", "--n", "3"],
         "--max-value must be from 0 to 1024819115206086199 at --n 3"),
        ("equivalence_experiment.py", ["--budget", str(1 << 63), "--count", "1"],
         "--budget must be at least 0 and at most 2^63 - 1"),
        ("bench_engine.py", ["--sizes", "2", "--per-size", "1", "--budget", str(10**20)],
         "--budget must be at least 0 and at most 2^63 - 1"),
    ],
    ids=[
        "bench_engine-per-size-0",
        "bench_engine-sizes-negative",
        "bench_engine-sizes-one-negative",
        "bench_engine-sizes-past-cap",
        "bench_engine-budget-negative",
        "equivalence_experiment-count-negative",
        "equivalence_experiment-count-0",
        "equivalence_experiment-budget-negative",
        "equivalence_experiment-n-0",
        "equivalence_experiment-planted-fraction-2",
        "equivalence_experiment-planted-fraction-negative",
        "equivalence_experiment-max-value-negative",
        "equivalence_experiment-max-value-past-i64",
        "equivalence_experiment-budget-past-i64",
        "bench_engine-budget-past-i64",
    ],
)
def test_script_rejects_empty_runs(script, args, expect):
    # an argument that leaves nothing to run, or a fraction that is no
    # fraction, is a usage error (exit 2), not a traceback from deep
    # inside the run or a report of counts the run never had
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: ") and expect in proc.stderr
    assert "Traceback" not in proc.stderr


def test_engine_golden_imports(engine_golden):
    # the golden writer imports the engine's private _search and
    # _ordered_candidates; its __main__ guard keeps this from rewriting
    # tests/goldens/engine.json
    assert callable(engine_golden.record) and callable(engine_golden.dump)


def test_engine_golden_diff_is_clean():
    # the committed golden is what the engine records today: every count 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "engine_golden.py"), "--diff"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "search", "sparse", "degseq", "partition", "zero", "polytope"
    ]
    for line in lines:
        counts = [int(part.split()[-1]) for part in line.split(", ")[1:]]
        assert len(counts) == 4 and not any(counts), line


def test_engine_golden_diff_refuses_a_changed_answer(capsys, engine_golden):
    module = engine_golden
    old = json.loads((ROOT / "tests" / "goldens" / "engine.json").read_text(encoding="utf-8"))
    assert module.diff(old, old)
    # nodes and separators may move; an answer may not
    new = {key: [list(row) for row in rows] for key, rows in old.items()}
    new["degseq"][0][2] += 5
    new["degseq"][1][2] -= 1
    new["polytope"][0][-1] = [0]
    capsys.readouterr()
    assert module.diff(old, new)
    # a section whose nodes moved gives its node total and the rows up and down
    total = sum(row[2] for row in old["degseq"])
    out = capsys.readouterr().out.splitlines()
    assert out[2] == (f"degseq: 3105 rows, answer 0, nodes 2, certificate 0, separator 0; "
                      f"node total {total} -> {total + 4}, 1 up, 1 down")
    assert out[5] == "polytope: 270 rows, answer 0, nodes 0, certificate 0, separator 1"
    new["zero"][0][3] = "NO"
    assert not module.diff(old, new)
    assert "zero: 600 rows, answer 1, nodes 0" in capsys.readouterr().out
