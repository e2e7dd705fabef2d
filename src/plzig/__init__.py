"""Exact analysis of piecewise-linear interval maps: zigzag detection,
branch dynamics, leo and post-critical verification, s/t factorizations,
and machine-checkable accessibility certificates for points of the
associated inverse limits."""

from .plmap import (
    BudgetExceededError,
    Lap,
    PLMap,
    compose,
    is_onto,
    iterate,
    laps,
    level_crossings,
    load_map,
    make_plmap,
    parse_rational,
)
from .zigzag import ZigzagVerdict, is_in_zigzag, zigzag_set
from .dynamics import (
    BackwardOrbit,
    BranchResult,
    MapFacts,
    OrbitValidationError,
    StabilizationData,
    branch,
    branch_stabilization,
    is_leo,
    leo_uniform_N,
    map_facts,
    markov_partition,
    post_critical_orbits,
    uniformly_onto,
    validate_orbit,
)
from .factorize import (
    CASE1,
    CASE2,
    Certificate,
    CertifyError,
    FactorPair,
    certificate_from_dict,
    certificate_to_json,
    certify_general,
    certify_minc,
    find_beta,
    minc_map,
    minc_stage_choice,
    split_case1,
    split_case2,
    verify_certificate,
)

__version__ = "0.1.0"
