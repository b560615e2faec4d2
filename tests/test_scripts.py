import importlib.util
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


def test_engine_golden_imports():
    # the golden writer imports the engine's private _search and
    # _ordered_candidates; its __main__ guard keeps this from rewriting
    # tests/goldens/engine.json
    path = ROOT / "scripts" / "engine_golden.py"
    spec = importlib.util.spec_from_file_location("engine_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.record) and callable(module.dump)
