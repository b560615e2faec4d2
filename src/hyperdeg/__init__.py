"""Realizability workbench for degree sequences of 3-uniform hypergraphs."""

from .core import (
    CertificateCheck,
    CertificateError,
    DegreeSequence,
    GroundSetMismatchError,
    Hypergraph,
    InstanceTooLargeError,
    Int64OverflowError,
    SignPartition,
    Triple,
    WeightVector,
    degree_sum,
    enumerate_triples,
    sign_partition,
    verify_certificate,
    verify_separator,
    weighted_value,
)
from .graph import Graph, eg_check, graph_bruteforce, hh_realize
from .reduction import (
    DegSeqInstance,
    PromiseViolationError,
    Reduction,
    ThreePartitionInstance,
    ZeroWeightInstance,
    lift_certificate,
    map_partition_certificate,
    project_certificate,
    reduce_partition_to_degseq,
    reduce_partition_to_zero,
    reduce_zero_to_degseq,
)
from .solver import (
    DEFAULT_BUDGET,
    DecisionOutcome,
    SearchStats,
    bruteforce_degseq,
    bruteforce_partition,
    bruteforce_zero,
    decide_degseq,
    decide_partition,
    decide_zero,
    prefilter_degseq,
    verify_partition_certificate,
    verify_zero_certificate,
)
from .workbench import (
    ParseError,
    SplitMix64,
    gen_partition,
    gen_planted_degseq,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
)

__version__ = "0.1.0"
