"""Stochastic multicriteria acceptability analysis over outranking flows.

The package covers the classical ranking pipeline (per-criterion ramp
preferences, positive/negative/net flows, partial and complete orders),
its bipolar extension built on a two-additive bicapacity, elicitation of
linear constraints from preference statements, margin-maximising
feasibility checks, uniform polytope sampling and the Monte-Carlo
acceptability statistics computed from the samples.
"""

from .bipolar import (
    BicapacityParams,
    ChoquetTriple,
    GeneralBicapacity,
    ParameterLayout,
    bipolar_choquet_2additive,
    bipolar_choquet_general,
    bipolar_flows,
    bipolar_preference_tensor,
    bipolar_preference_vector,
    choquet_coefficients,
    flow_coefficients,
)
from .elicitation import (
    ConstraintRow,
    ConstraintSystem,
    compile_statements,
    parse_statement,
    parse_statements,
    restrict_classical,
)
from .lp import EPS_CAP, FEASIBILITY_TOL, ROR_EPS_MIN, LpOutcome, RorPair, exact_ror_pair, max_epsilon
from .model import Criterion, PerformanceTable, load_evaluations_csv, load_problem
from .promethee import (
    FLOW_TIE_TOL,
    Flows,
    Relation,
    aggregated_preference,
    classical_flows,
    flows_from_preference,
    preference_degree,
    preference_tensor,
    promethee1_relation,
    promethee2_ranking,
)
from .sampler import (
    InfeasibleSystemError,
    Polytope,
    SampleBatch,
    SamplerConfig,
    build_polytope,
    hit_and_run,
)
from .smaa import SmaaResults, aggregate, flow_matrices, validate_against_exact_ror

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Criterion",
    "PerformanceTable",
    "load_problem",
    "load_evaluations_csv",
    "FLOW_TIE_TOL",
    "Flows",
    "Relation",
    "preference_degree",
    "preference_tensor",
    "aggregated_preference",
    "flows_from_preference",
    "classical_flows",
    "promethee1_relation",
    "promethee2_ranking",
    "BicapacityParams",
    "ChoquetTriple",
    "GeneralBicapacity",
    "ParameterLayout",
    "bipolar_preference_vector",
    "bipolar_preference_tensor",
    "bipolar_choquet_2additive",
    "bipolar_choquet_general",
    "choquet_coefficients",
    "flow_coefficients",
    "bipolar_flows",
    "ConstraintRow",
    "ConstraintSystem",
    "parse_statement",
    "parse_statements",
    "compile_statements",
    "restrict_classical",
    "EPS_CAP",
    "FEASIBILITY_TOL",
    "ROR_EPS_MIN",
    "LpOutcome",
    "RorPair",
    "max_epsilon",
    "exact_ror_pair",
    "SamplerConfig",
    "Polytope",
    "SampleBatch",
    "InfeasibleSystemError",
    "build_polytope",
    "hit_and_run",
    "SmaaResults",
    "aggregate",
    "flow_matrices",
    "validate_against_exact_ror",
]
