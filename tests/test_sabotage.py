"""Faults planted in the producer, and whether the test-side checks see them.

Each fault is applied with ``monkeypatch``: through a module-level name
where one allows it, and otherwise as a mutant, the function rebuilt from
its own source with one snippet replaced.  Either is bound where its
caller looks it up: the stabilization's mutants replace
``factorize.branch_stabilization``, which ``certify_general`` reads, and
``dynamics.uniformly_onto``, ``dynamics._primitive`` and
``dynamics.branch`` are read by the stabilization and the leo verdict in
``dynamics``.  A fault counts as caught when
:class:`test_zigzag.TestWitnessIdentity`'s comparison with
``conftest.two_pointer_lap_witness`` fails on its maps, when building one
of four certificates raises, or when ``conftest.check_certificate_text``
rejects the text of one of them.  The certificates are minc at the
constant orbit 1/2 and the tent map at the constant orbit 2/3, both
certified, and two that fail on minc^2 with another fold than the
pipeline's (:func:`test_factorize.minc_block_certificate`): case 1 at beta
2/9 at the constant orbit 1/2, whose stage 2 lies in a zigzag, and case 2
at beta 11/18 at the constant orbit 1, whose s moves x_2.  They are built
under the fault with the verifier's own code, so ``verify_certificate``
would accept the first two: only checks that share no code with the
producer count.

Faults that no check catches yet are listed in ``UNCAUGHT`` with the
reason, and each test asserts that its fault is caught exactly when it is
not listed, so a new detection shows up as a change to this file.
"""

import dataclasses
import inspect
import textwrap
from fractions import Fraction as F
from operator import le

import pytest

import plzig.dynamics as dynamics
import plzig.factorize as factorize
import plzig.zigzag as zigzag
from plzig.dynamics import BackwardOrbit
from plzig.factorize import CASE1, CASE2

import test_zigzag
from conftest import check_certificate_text
from test_factorize import minc_block_certificate

# The stage loop, bound when this module is imported, before conftest's
# autouse fixture wraps it for a test.  That wrapper checks every
# certificate a test builds, and these are built under planted faults.
ASSEMBLE = factorize._assemble


def mutant(func, old: str, new: str):
    """``func`` rebuilt from its source, with the one occurrence of ``old``
    replaced by ``new``, in the globals of its module."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{old!r} is not one snippet of {func.__qualname__}"
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec")
    namespace: dict = {}
    exec(code, vars(inspect.getmodule(func)), namespace)
    return namespace[func.__name__]


def index_mutant(method: str, old: str, new: str):
    """The fault that replaces a method of the witness index by its mutant."""

    def plant(monkeypatch):
        func = getattr(zigzag._WitnessIndex, method)
        monkeypatch.setattr(zigzag._WitnessIndex, method, mutant(func, old, new))

    return plant


def module_mutant(module, name: str, func, old: str, new: str):
    """The fault that binds ``module.name`` to the mutant of ``func``."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, mutant(func, old, new))


def never_in_zigzag(monkeypatch):
    verdict = factorize.composite_verdict
    monkeypatch.setattr(
        factorize,
        "composite_verdict",
        lambda outer, inner, y: dataclasses.replace(verdict(outer, inner, y), in_zigzag=False),
    )


def other_fold(monkeypatch):
    find_beta = factorize.find_beta
    monkeypatch.setattr(factorize, "find_beta", lambda *args: find_beta(*args)[::-1])


FAULTS = {
    "rising laps use the falling relations": index_mutant("_walk", "else (gt, lt, ge)", "else (lt, gt, le)"),
    "the rising dip test uses le in place of ge": lambda monkeypatch: monkeypatch.setattr(zigzag, "ge", le),
    "the dip test j < next_low[a] is dropped": index_mutant("witness", "if j < next_low[a]:", "if True:"),
    "composite_verdict never reports a zigzag": never_in_zigzag,
    "uniformly_onto always returns True": lambda monkeypatch: monkeypatch.setattr(
        dynamics, "uniformly_onto", lambda f, eps: True
    ),
    "find_beta returns the other fold": other_fold,
    "is_primitive always returns True": lambda monkeypatch: monkeypatch.setattr(
        dynamics, "_primitive", lambda images: True
    ),
    "the pcf check is skipped": module_mutant(
        factorize, "branch_stabilization", dynamics.branch_stabilization,
        "if facts.post_critically_finite is not True:", "if False:",
    ),
    "the leo check is skipped": module_mutant(
        factorize, "branch_stabilization", dynamics.branch_stabilization, "if facts.leo is not True:", "if False:"
    ),
    # branch takes the hull of the two laps' images; at a turning point the
    # images are nested, so the hull is the other lap's image
    "branch keeps the other lap at a turning point": module_mutant(
        dynamics, "branch", dynamics.branch,
        "max(lows), den), Fraction(min(highs)", "min(lows), den), Fraction(max(highs)",
    ),
    "the stage rule is skipped": module_mutant(factorize, "_assemble", ASSEMBLE, "if coordinate != x:", "if False:"),
}

# check_certificate_text decides leo and pcf from their definitions, but the
# first three faults only let through a map that is not leo or not pcf, and
# all four certificates are on maps that are both, so their claims stay
# true.  They wait for an input that is not leo, which needs certify to
# refuse it without a fault first: is_leo's known defect lets the 1/10 map
# of test_factorize.KNOWN_UNSOUND_CERTIFICATES through today.
UNCAUGHT = {
    "is_primitive always returns True": "minc and the tent map are leo, so the verdict is right anyway",
    "the pcf check is skipped": "minc and the tent map are post-critically finite, so the check passes anyway",
    "the leo check is skipped": "minc and the tent map are leo, so the check passes anyway",
    "branch keeps the other lap at a turning point": (
        "no value of either certified orbit is a turning point of a power, so branch always "
        "meets one lap, whose image is both the hull and the intersection"
    ),
}


def caught(minc, tent) -> bool:
    """Whether a check catches the fault in force."""
    try:
        certified = [
            factorize.certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4),
            factorize.certify_general(tent, BackwardOrbit.constant(F(2, 3)), stages=3),
        ]
        in_zigzag = minc_block_certificate(CASE1, "2/9", "1/2")
        moved = minc_block_certificate(CASE2, "11/18", 1)
    except Exception:  # certifying raised: the fault is caught, whatever it broke
        return True
    try:
        for cert in certified + [in_zigzag, moved]:
            check_certificate_text(factorize.certificate_to_json(cert))
        test_zigzag.TestWitnessIdentity().test_pairs_match_two_pointer_oracle(minc)
    except AssertionError:
        return True
    return False


def test_uncaught_faults_are_planted():
    assert UNCAUGHT.keys() <= FAULTS.keys()


def test_checks_pass_without_a_fault(monkeypatch, minc, tent):
    monkeypatch.setattr(factorize, "_assemble", ASSEMBLE)
    assert not caught(minc, tent)


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_is_caught_unless_listed(fault, monkeypatch, minc, tent):
    monkeypatch.setattr(factorize, "_assemble", ASSEMBLE)
    FAULTS[fault](monkeypatch)
    assert caught(minc, tent) == (fault not in UNCAUGHT), UNCAUGHT.get(fault, "not caught")
