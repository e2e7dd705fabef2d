"""Faults planted in the producer, and whether the test-side checks see them.

Each fault is applied with ``monkeypatch``: through a module-level name
where one allows it, and otherwise as a mutant, the function rebuilt from
its own source with one snippet replaced.  A fault counts as caught when
:class:`test_zigzag.TestWitnessIdentity`'s comparison with
``conftest.two_pointer_lap_witness`` fails on its maps, or when certifying
minc at the constant orbit 1/2 or the tent map at the constant orbit 2/3
raises, or when ``conftest.check_certificate_text`` rejects one of the two
texts.  The certificates are built under the fault with the verifier's
own code, so ``verify_certificate`` would accept them: only checks that
share no code with the producer count.

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

import plzig.factorize as factorize
import plzig.zigzag as zigzag
from plzig.dynamics import BackwardOrbit

import test_zigzag
from conftest import check_certificate_text

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


def never_in_zigzag(monkeypatch):
    verdict = factorize.composite_verdict
    monkeypatch.setattr(
        factorize,
        "composite_verdict",
        lambda outer, inner, y: dataclasses.replace(verdict(outer, inner, y), in_zigzag=False),
    )


FAULTS = {
    "rising laps use the falling relations": index_mutant("_walk", "else (gt, lt, ge)", "else (lt, gt, le)"),
    "the rising dip test uses le in place of ge": lambda monkeypatch: monkeypatch.setattr(zigzag, "ge", le),
    "the dip test j < next_low[a] is dropped": index_mutant("witness", "if j < next_low[a]:", "if True:"),
    "composite_verdict never reports a zigzag": never_in_zigzag,
}

UNCAUGHT = {
    "composite_verdict never reports a zigzag": (
        "no stage of either certificate lies in a zigzag, so the fault changes neither text, "
        "and check_certificate_text does not check zigzag verdicts"
    ),
}


def caught(minc, tent) -> bool:
    """Whether a check catches the fault in force."""
    try:
        certificates = [
            factorize.certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4),
            factorize.certify_general(tent, BackwardOrbit.constant(F(2, 3)), stages=3),
        ]
    except Exception:  # certifying raised: the fault is caught, whatever it broke
        return True
    try:
        for cert in certificates:
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
