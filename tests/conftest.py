import importlib.util
import itertools
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from hyperdeg import Hypergraph, WeightVector

settings.register_profile(
    "workbench",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("workbench")


@pytest.fixture(scope="session")
def engine_golden():
    """scripts/engine_golden.py as a module; its __main__ guard keeps it from writing."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "engine_golden.py"
    spec = importlib.util.spec_from_file_location("engine_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def all_triples(n):
    return list(itertools.combinations(range(n), 3))


@st.composite
def hypergraphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    universe = all_triples(n)
    if not universe:
        return Hypergraph(n, ())
    edges = draw(st.sets(st.sampled_from(universe)))
    return Hypergraph(n, tuple(sorted(edges)))


@st.composite
def weight_vectors(draw, min_n=0, max_n=8, lo=-30, hi=30):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    vals = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    return WeightVector(tuple(vals))
