"""The public API: the names ``plzig`` exports and each module's
``__all__``.  The paper's lemma-level checks live in ``tests/conftest.py``
as oracles, so none of them can be imported from the package."""

import importlib
import types

import pytest

import plzig

EXPORTS = {
    "plzig": [
        "BackwardOrbit", "BranchResult", "BudgetExceededError", "CASE1", "CASE2", "Certificate",
        "CertifyError", "FactorPair", "Lap", "MapFacts", "OrbitValidationError", "PLMap",
        "StabilizationData", "ZigzagVerdict", "branch", "branch_stabilization",
        "certificate_from_dict", "certificate_to_json", "certify_general", "certify_minc",
        "compose", "find_beta", "is_in_zigzag", "is_leo", "is_onto", "iterate",
        "laps", "leo_uniform_N", "level_crossings", "load_map", "make_plmap", "map_facts",
        "markov_partition", "minc_map", "minc_stage_choice", "parse_rational",
        "post_critical_orbits", "split_case1", "split_case2", "uniformly_onto",
        "validate_orbit", "verify_certificate", "zigzag_set",
    ],
    "plzig.plmap": [
        "ZERO", "ONE", "DEFAULT_BREAKPOINT_BUDGET", "BudgetExceededError", "Lap", "PLMap",
        "parse_rational", "make_plmap", "compose", "IterateCache", "iterate",
        "laps", "level_crossings", "is_onto", "loads_map", "dumps_map", "load_map",
    ],
    "plzig.zigzag": ["ZigzagVerdict", "is_in_zigzag", "composite_verdict", "zigzag_set"],
    "plzig.dynamics": [
        "BranchResult", "OrbitEntry", "MapFacts", "BackwardOrbit", "OrbitValidationError",
        "StabilizationData", "branch", "post_critical_orbits", "map_facts", "markov_partition",
        "is_primitive", "is_leo", "uniformly_onto", "leo_uniform_N", "branch_stabilization",
        "validate_orbit", "parse_orbit", "load_orbit",
    ],
    "plzig.factorize": [
        "CASE1", "CASE2", "CertifyError", "FactorPair", "StageRecord", "Certificate", "minc_map",
        "MINC_BETA_LOW", "MINC_BETA_HIGH", "split_case1", "split_case2", "find_beta",
        "minc_stage_choice", "certify_minc", "certify_general", "certificate_to_dict",
        "certificate_from_dict", "certificate_to_json",
        "verify_certificate",
    ],
}

MOVED = [
    "lemma_witness", "_level_clear", "remark_no_zigzag", "composition_property_check",
    "witness_is_valid", "image_interval", "critical_set", "format_orbit",
]


def _public(module) -> list[str]:
    """The names a module exports: its ``__all__``, or for the package
    every public name that is not a submodule."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return sorted(
        n for n, v in vars(module).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )


@pytest.mark.parametrize("modname", sorted(EXPORTS))
def test_exports_are_pinned_and_resolve(modname):
    module = importlib.import_module(modname)
    assert _public(module) == EXPORTS[modname]
    for name in EXPORTS[modname]:
        getattr(module, name)


@pytest.mark.parametrize("modname", ["plzig", "plzig.zigzag", "plzig.plmap", "plzig.dynamics"])
def test_lemma_checks_are_not_in_the_library(modname):
    module = importlib.import_module(modname)
    for name in MOVED:
        with pytest.raises(ImportError):
            exec(f"from {modname} import {name}", {})
    assert not hasattr(module, "_KeyXs")
    assert "_extremes" not in vars(plzig.PLMap)
