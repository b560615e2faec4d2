"""Realizability workbench for degree sequences of 3-uniform hypergraphs.

Every name below is loaded from its module on first use (PEP 562), so
`import hyperdeg`, which `python -m hyperdeg.cli` runs first, loads no
submodule; each CLI command then loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "core": (
            "CertificateCheck",
            "CertificateError",
            "DEFAULT_BUDGET",
            "DecisionOutcome",
            "DegreeSequence",
            "GroundSetMismatchError",
            "Hypergraph",
            "InstanceTooLargeError",
            "Int64OverflowError",
            "SearchStats",
            "SignPartition",
            "Triple",
            "WeightVector",
            "degree_sum",
            "enumerate_triples",
            "sign_partition",
            "verify_certificate",
            "verify_separator",
            "weighted_value",
        ),
        "graph": ("Graph", "eg_check", "hh_realize"),
        "oracle": (
            "bruteforce_degseq",
            "bruteforce_partition",
            "bruteforce_zero",
            "graph_bruteforce",
        ),
        "reduction": (
            "DegSeqInstance",
            "PromiseViolationError",
            "Reduction",
            "ThreePartitionInstance",
            "ZeroWeightInstance",
            "lift_certificate",
            "map_partition_certificate",
            "project_certificate",
            "reduce_partition_to_degseq",
            "reduce_partition_to_zero",
            "reduce_zero_to_degseq",
            "verify_partition_certificate",
            "verify_zero_certificate",
        ),
        "solver": (
            "decide_degseq",
            "decide_partition",
            "decide_zero",
            "prefilter_degseq",
        ),
        "workbench": (
            "ParseError",
            "SplitMix64",
            "gen_partition",
            "gen_planted_degseq",
            "parse_certificate",
            "parse_instance",
            "serialize_certificate",
            "serialize_instance",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
