"""Neighborhood-preserving graph sparsification toolkit.

Compresses simple undirected graphs by deleting edges while guaranteeing
that, at every hop level i up to a horizon t, each vertex keeps at least
a chosen proportion p(i) of its original neighbors within i hops. Ships
the incremental compressor, three smarter edge orderings (relaxed LP,
local edge connectivity, simulated annealing), an independent verifier,
evaluation metrics, the exact minimum by HiGHS, and synthetic generators.
"""

from .compress import (
    CompressionResult,
    ProportionFunction,
    VerificationReport,
    Violation,
    compress_basic,
    verify,
)
from .datagen import BUILTIN_NAMES, FamilySpec, builtin, gen_gnm
from .errors import (
    EdgeListFormatError,
    HopCompressError,
    InvalidOrderingError,
    NotASubgraphError,
    SizeLimitError,
    UnsoundOutputError,
)
from .evaluate import (
    BenchReport,
    SpHistogram,
    StretchReport,
    bench_orderings,
    compression_ratio,
    sp_histogram,
    stretch_check,
)
from .graph import Graph, canonical_edge, load_edge_list, write_edge_list
from .lp import LpModel, LpSolution, build_lp, dump_lp, exact_minimum, solve_lp
from .orderings import (
    SaParams,
    ec_order,
    ec_scores,
    lp_order,
    random_order,
    run_strategy,
    sa_compress,
    sa_order,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "BenchReport",
    "CompressionResult",
    "EdgeListFormatError",
    "FamilySpec",
    "Graph",
    "HopCompressError",
    "InvalidOrderingError",
    "LpModel",
    "LpSolution",
    "NotASubgraphError",
    "ProportionFunction",
    "SaParams",
    "SizeLimitError",
    "SpHistogram",
    "StretchReport",
    "UnsoundOutputError",
    "VerificationReport",
    "Violation",
    "bench_orderings",
    "build_lp",
    "builtin",
    "canonical_edge",
    "compress_basic",
    "compression_ratio",
    "dump_lp",
    "ec_order",
    "ec_scores",
    "exact_minimum",
    "gen_gnm",
    "load_edge_list",
    "lp_order",
    "random_order",
    "run_strategy",
    "sa_compress",
    "sa_order",
    "solve_lp",
    "sp_histogram",
    "stretch_check",
    "verify",
    "write_edge_list",
]
