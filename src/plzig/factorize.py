"""Factorization pipelines and accessibility certificates.

A factor pair (s, t) splits an iterate block F into t∘s = F so that the
inverse limit can be rebonded through g = s∘t; when the tracked coordinate
of a backward orbit escapes every zigzag of the rebonded maps, the point is
certified accessible in some thin planar embedding.  This module builds the
two explicit fold constructions, the stage pipelines (the hard-coded Minc
double-step pipeline and the general stabilization-driven one), and the
machine-checkable certificate records they emit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .plmap import (
    ONE,
    ZERO,
    PLMap,
    _as_rational,
    compose,
    is_onto,
    iterate,
    level_crossings,
    make_plmap,
)
from .zigzag import ZigzagVerdict, is_in_zigzag
from .dynamics import (
    BackwardOrbit,
    IterateCache,
    NSequence,
    OrbitValidationError,
    StabilizationData,
    branch,
    branch_stabilization,
    uniformly_onto,
    validate_orbit,
)

__all__ = [
    "CASE1",
    "CASE2",
    "CertifyError",
    "FactorPair",
    "StageRecord",
    "Certificate",
    "minc_map",
    "MINC_BETA_LOW",
    "MINC_BETA_HIGH",
    "split_case1",
    "split_case2",
    "find_beta",
    "minc_stage_choice",
    "certify_minc",
    "certify_general",
    "certificate_to_dict",
    "certificate_from_dict",
    "certificate_to_json",
    "certificate_from_json",
    "verify_certificate",
]

# Case 1 folds the region below beta (the map sends beta to 0 and something
# below it to 1); case 2 is the mirror image at the top end.
CASE1 = "case1"
CASE2 = "case2"

MINC_BETA_LOW = Fraction(7, 18)
MINC_BETA_HIGH = Fraction(11, 18)


class CertifyError(RuntimeError):
    """A certificate pipeline could not run or an emitted check failed."""


@dataclass(frozen=True)
class FactorPair:
    """Onto maps s, t with t∘s equal to the factored block map exactly.

    Case 1: s is the identity on [beta, 1] and t(beta) = 0.
    Case 2: s is the identity on [0, beta] and t(beta) = 1.
    The identity ``compose(t, s) == base_map`` is verified at construction.
    """

    s: PLMap
    t: PLMap
    case: str
    beta: Fraction
    base_map: PLMap


def _check_pair(pair: FactorPair) -> FactorPair:
    if compose(pair.t, pair.s) != pair.base_map:
        raise CertifyError("factor pair identity t∘s = F failed to hold exactly")
    return pair


def split_case1(f: PLMap, beta) -> FactorPair:
    """Split f at a fold to 0: s(y) = beta*(1-f(y)) below beta, identity
    above; t unwinds the fold linearly and continues as f."""
    beta = _as_rational(beta)
    if not (ZERO < beta <= ONE):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if f(beta) != ZERO:
        raise ValueError(f"case 1 split needs f(beta) = 0, but f({beta}) = {f(beta)}")
    if not any(w < beta for w in level_crossings(f, ONE)):
        raise ValueError(f"case 1 split needs a point below {beta} mapping to 1")
    s_pts = [(x, beta * (1 - y)) for x, y in f.points if x < beta]
    s_pts.append((beta, beta))
    if beta < ONE:
        s_pts.append((ONE, ONE))
    t_pts = [(ZERO, ONE), (beta, ZERO)] + [(x, y) for x, y in f.points if x > beta]
    pair = FactorPair(make_plmap(s_pts), make_plmap(t_pts), CASE1, beta, f)
    return _check_pair(pair)


def split_case2(f: PLMap, beta) -> FactorPair:
    """Mirror split at a fold to 1: s is the identity below beta and folds
    the top part; t continues as f and unwinds the fold linearly."""
    beta = _as_rational(beta)
    if not (ZERO <= beta < ONE):
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if f(beta) != ONE:
        raise ValueError(f"case 2 split needs f(beta) = 1, but f({beta}) = {f(beta)}")
    if not any(w > beta for w in level_crossings(f, ZERO)):
        raise ValueError(f"case 2 split needs a point above {beta} mapping to 0")
    s_pts = [(ZERO, ZERO)] if beta > ZERO else []
    s_pts.append((beta, beta))
    s_pts += [(x, 1 - (1 - beta) * y) for x, y in f.points if x > beta]
    t_pts = [(x, y) for x, y in f.points if x < beta] + [(beta, ONE), (ONE, ZERO)]
    pair = FactorPair(make_plmap(s_pts), make_plmap(t_pts), CASE2, beta, f)
    return _check_pair(pair)


def find_beta(f: PLMap, window: tuple, case: str) -> tuple[Fraction, Fraction]:
    """Locate a full fold of f inside the stage window.

    Case 1 searches [lo, hi) for a level-1 crossing followed by a level-0
    crossing and returns (alpha, beta) with beta the least such level-0
    crossing and alpha the greatest level-1 crossing before it.  Case 2
    searches (lo, hi] for the mirrored pattern and returns (gamma, beta)
    with gamma the greatest level-0 crossing preceded by a level-1 crossing
    and beta the greatest such level-1 crossing.  Raises when the window
    holds no full fold (a covering-condition violation).
    """
    lo, hi = (_as_rational(window[0]), _as_rational(window[1]))
    if case == CASE1:
        ones = [x for x in level_crossings(f, ONE) if lo <= x < hi]
        zeros = [x for x in level_crossings(f, ZERO) if lo <= x < hi]
        cands = [z for z in zeros if any(w < z for w in ones)]
        if not cands:
            raise ValueError(
                f"window [{lo}, {hi}) holds no 1-then-0 fold of the block map"
            )
        beta = min(cands)
        alpha = max(w for w in ones if w < beta)
        return alpha, beta
    if case == CASE2:
        ones = [x for x in level_crossings(f, ONE) if lo < x <= hi]
        zeros = [x for x in level_crossings(f, ZERO) if lo < x <= hi]
        cands = [z for z in zeros if any(w < z for w in ones)]
        if not cands:
            raise ValueError(
                f"window ({lo}, {hi}] holds no 1-then-0 fold of the block map"
            )
        gamma = max(cands)
        beta = max(w for w in ones if w < gamma)
        return gamma, beta
    raise ValueError(f"unknown case {case!r}")


def minc_map() -> PLMap:
    """The five-lap Minc map."""
    return make_plmap(
        [
            (ZERO, ZERO),
            (Fraction(1, 3), ONE),
            (Fraction(4, 9), Fraction(1, 3)),
            (Fraction(5, 9), Fraction(2, 3)),
            (Fraction(2, 3), ZERO),
            (ONE, ONE),
        ]
    )


def minc_stage_choice(x) -> str:
    """Stage rule for the Minc pipeline: fold the top end while the tracked
    coordinate sits in [0, 7/18], the bottom end when it sits above."""
    x = _as_rational(x)
    if not (ZERO <= x <= ONE):
        raise ValueError(f"coordinate {x} outside [0, 1]")
    return CASE2 if x <= MINC_BETA_LOW else CASE1


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageRecord:
    """One verified stage: the factor pair for block ending at orbit index
    ``n``, the inbound rebonded map g = s_prev ∘ t (None at the first
    stage), the tracked coordinate s(x_n), and its zigzag verdict under g."""

    index: int
    n: int
    pair: FactorPair
    g: Optional[PLMap]
    coordinate: Fraction
    verdict: Optional[ZigzagVerdict]


@dataclass(frozen=True)
class Certificate:
    base_map: PLMap
    orbit: BackwardOrbit
    stabilization: Optional[StabilizationData]
    stages: tuple[StageRecord, ...]
    result: str  # "pass" | "fail"
    failing_stage: Optional[int]
    repeat_index: Optional[int]

    @property
    def passed(self) -> bool:
        return self.result == "pass"


def _assemble(
    base_map: PLMap,
    orbit: BackwardOrbit,
    stabilization: Optional[StabilizationData],
    n_of,
    pair_of,
    stage_count: int,
    stage_period: int,
    extra_stage_checks=None,
) -> Certificate:
    """Run the stage loop shared by both pipelines.

    ``n_of(i)`` gives the orbit index for stage i, ``pair_of(i)`` its factor
    pair; ``extra_stage_checks(i, x)`` may return a failure message.  The
    repeat index is the first stage whose state (previous and current orbit
    values plus both cases) duplicates an earlier full stage; enough stages
    are verified to exhibit it.
    """
    if stage_count < 2:
        raise ValueError("need at least two stages to run any zigzag check")
    verify_count = max(stage_count, stage_period + 2)
    g_cache: dict[tuple[str, str], PLMap] = {}
    verdict_cache: dict[tuple[str, str, Fraction], ZigzagVerdict] = {}
    stages: list[StageRecord] = []
    failing: Optional[int] = None
    seen_states: dict[tuple, int] = {}
    repeat_index: Optional[int] = None

    prev_pair: Optional[FactorPair] = None
    prev_coord: Optional[Fraction] = None
    for i in range(1, verify_count + 1):
        n_i = n_of(i)
        x = orbit.value_at(n_i)
        pair = pair_of(i)
        coordinate = pair.s(x)
        stage_ok = coordinate == x  # the stage rule pins x inside s's identity part
        if stage_ok and extra_stage_checks is not None:
            msg = extra_stage_checks(i, x)
            stage_ok = msg is None
        g: Optional[PLMap] = None
        verdict: Optional[ZigzagVerdict] = None
        if i >= 2:
            key = (prev_pair.case, pair.case)
            g = g_cache.get(key)
            if g is None:
                g = g_cache[key] = compose(prev_pair.s, pair.t)
            if g(coordinate) != prev_coord:
                stage_ok = False
            vkey = (prev_pair.case, pair.case, coordinate)
            verdict = verdict_cache.get(vkey)
            if verdict is None:
                verdict = verdict_cache[vkey] = is_in_zigzag(g, coordinate)
            if verdict.in_zigzag:
                stage_ok = False
            state = (prev_pair.case, pair.case, orbit.value_at(n_of(i - 1)), x)
            if repeat_index is None:
                if state in seen_states:
                    repeat_index = i
                else:
                    seen_states[state] = i
        if not stage_ok and failing is None:
            failing = i
        stages.append(
            StageRecord(
                index=i,
                n=n_i,
                pair=pair,
                g=g,
                coordinate=coordinate,
                verdict=verdict,
            )
        )
        prev_pair, prev_coord = pair, coordinate

    return Certificate(
        base_map=base_map,
        orbit=orbit,
        stabilization=stabilization,
        stages=tuple(stages),
        result="pass" if failing is None else "fail",
        failing_stage=failing,
        repeat_index=repeat_index,
    )


def certify_minc(orbit: BackwardOrbit, stages: int) -> Certificate:
    """Certificate for the Minc pipeline: double-step blocks of the Minc
    map, stage pairs chosen by :func:`minc_stage_choice` with the two
    hard-coded folds, and a zigzag check at every rebonded stage."""
    f = minc_map()
    validate_orbit(f, orbit)
    block = iterate(f, 2)
    pairs = {
        CASE1: split_case1(block, MINC_BETA_LOW),
        CASE2: split_case2(block, MINC_BETA_HIGH),
    }
    p = orbit.minimal_period()
    stage_period = p // gcd(2, p)
    return _assemble(
        base_map=f,
        orbit=orbit,
        stabilization=None,
        n_of=lambda i: 2 * i,
        pair_of=lambda i: pairs[minc_stage_choice(orbit.value_at(2 * i))],
        stage_count=stages,
        stage_period=stage_period,
    )


def certify_general(
    f: PLMap,
    orbit: BackwardOrbit,
    stages: int = 4,
    budget: Optional[int] = None,
) -> Certificate:
    """Full certificate pipeline for a post-critically finite leo map.

    :func:`branch_stabilization` checks the orbit and the dynamical
    hypotheses (a failed hypothesis raises :class:`CertifyError`, an
    inconsistent orbit :class:`OrbitValidationError`) and extracts the
    stabilized branch window.  Then the fold inside the gap window is
    picked and every stage is checked: the branch of the block map at the
    tracked coordinate equals [a, b], the coordinate avoids the gap window,
    the fold identities hold exactly, and the coordinate is outside every
    zigzag of the rebonded map.
    """
    if not is_onto(f):
        raise CertifyError("base map must be onto")
    try:
        stab = branch_stabilization(f, orbit, budget=budget)
    except OrbitValidationError:
        raise
    except ValueError as exc:
        raise CertifyError(str(exc)) from exc
    gap = stab.n_sequence.step
    n0 = stab.n_sequence.head[0]
    block = iterate(f, gap, budget=budget)
    if stab.side == "left-gap":
        case = CASE1
        window = (stab.a, stab.a + stab.epsilon)
        _, beta = find_beta(block, window, case)
        pair = split_case1(block, beta)
    else:
        case = CASE2
        window = (stab.b - stab.epsilon, stab.b)
        _, beta = find_beta(block, window, case)
        pair = split_case2(block, beta)

    branch_cache: dict[Fraction, tuple[Fraction, Fraction]] = {}

    def extra_checks(i: int, x: Fraction) -> Optional[str]:
        B = branch_cache.get(x)
        if B is None:
            B = branch_cache[x] = branch(block, x).B
        if B != (stab.a, stab.b):
            return f"stage {i}: branch {B} differs from ({stab.a}, {stab.b})"
        if stab.side == "left-gap" and stab.a <= x < stab.a + stab.epsilon:
            return f"stage {i}: coordinate {x} entered the left gap window"
        if stab.side == "right-gap" and stab.b - stab.epsilon < x <= stab.b:
            return f"stage {i}: coordinate {x} entered the right gap window"
        return None

    p = orbit.minimal_period()
    stage_period = p // gcd(gap, p)
    return _assemble(
        base_map=f,
        orbit=orbit,
        stabilization=stab,
        n_of=lambda i: n0 + i * gap,
        pair_of=lambda i: pair,
        stage_count=stages,
        stage_period=stage_period,
        extra_stage_checks=extra_checks,
    )


# ---------------------------------------------------------------------------
# Serialization: JSON with all rationals as p/q strings.  Round trips are
# bit exact, and a serialized certificate re-verifies from its own data.
# ---------------------------------------------------------------------------

def _enc_map(f: PLMap) -> list[list[str]]:
    return [[str(x), str(y)] for x, y in f.points]


def _dec_map(data) -> PLMap:
    return PLMap(tuple((Fraction(x), Fraction(y)) for x, y in data))


def certificate_to_dict(cert: Certificate) -> dict:
    stab = None
    if cert.stabilization is not None:
        s = cert.stabilization
        stab = {
            "a": str(s.a),
            "b": str(s.b),
            "epsilon": str(s.epsilon),
            "side": s.side,
            "n-sequence": {"head": list(s.n_sequence.head), "step": s.n_sequence.step},
        }
    return {
        "map": _enc_map(cert.base_map),
        "orbit": {
            "prefix": [str(v) for v in cert.orbit.prefix],
            "period": [str(v) for v in cert.orbit.period_block],
        },
        "stabilization": stab,
        "stages": [
            {
                "n_i": st.n,
                "case": st.pair.case,
                "beta": str(st.pair.beta),
                "s": _enc_map(st.pair.s),
                "t": _enc_map(st.pair.t),
                "g": _enc_map(st.g) if st.g is not None else None,
                "coordinate": str(st.coordinate),
                "zigzag_verdict": st.verdict.to_dict() if st.verdict is not None else None,
            }
            for st in cert.stages
        ],
        "result": cert.result,
        "failing_stage": cert.failing_stage,
        "repeat_index": cert.repeat_index,
    }


def certificate_from_dict(data: dict) -> Certificate:
    stab = None
    if data["stabilization"] is not None:
        s = data["stabilization"]
        stab = StabilizationData(
            a=Fraction(s["a"]),
            b=Fraction(s["b"]),
            epsilon=Fraction(s["epsilon"]),
            side=s["side"],
            n_sequence=NSequence(tuple(s["n-sequence"]["head"]), s["n-sequence"]["step"]),
        )
    base = _dec_map(data["map"])
    orbit = BackwardOrbit(
        tuple(Fraction(v) for v in data["orbit"]["prefix"]),
        tuple(Fraction(v) for v in data["orbit"]["period"]),
    )
    stages = []
    for idx, st in enumerate(data["stages"], start=1):
        s_map = _dec_map(st["s"])
        t_map = _dec_map(st["t"])
        pair = FactorPair(
            s=s_map,
            t=t_map,
            case=st["case"],
            beta=Fraction(st["beta"]),
            base_map=compose(t_map, s_map),
        )
        stages.append(
            StageRecord(
                index=idx,
                n=st["n_i"],
                pair=pair,
                g=_dec_map(st["g"]) if st["g"] is not None else None,
                coordinate=Fraction(st["coordinate"]),
                verdict=ZigzagVerdict.from_dict(st["zigzag_verdict"])
                if st["zigzag_verdict"] is not None
                else None,
            )
        )
    return Certificate(
        base_map=base,
        orbit=orbit,
        stabilization=stab,
        stages=tuple(stages),
        result=data["result"],
        failing_stage=data["failing_stage"],
        repeat_index=data["repeat_index"],
    )


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True) + "\n"


def certificate_from_json(text: str) -> Certificate:
    return certificate_from_dict(json.loads(text))


def verify_certificate(data: dict) -> tuple[bool, str]:
    """Re-run every stage identity from serialized data alone.

    Checks the orbit against the base map, t∘s against the recomputed block
    map of each stage, g against s_prev∘t, the coordinate chain, the branch
    and gap-window conditions when stabilization data is present, and that
    every recomputed zigzag verdict matches the stored one.  Returns
    (ok, message); malformed input is a failure with its reason, never an
    exception.
    """
    try:
        cert = certificate_from_dict(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return False, f"malformed certificate: {type(exc).__name__}: {exc}"
    if len(cert.stages) < 2:
        return False, "need at least two stages to run any zigzag check"
    f = cert.base_map
    try:
        validate_orbit(f, cert.orbit)
    except Exception as exc:
        return False, f"orbit: {exc}"
    cache = IterateCache(f)
    stab = cert.stabilization
    prev_n = 0 if stab is None else stab.n_sequence.head[0]
    prev_stage: Optional[StageRecord] = None
    for st in cert.stages:
        block_len = st.n - prev_n
        if block_len <= 0:
            return False, f"stage {st.index}: non-increasing orbit index"
        block = cache.power(block_len)
        if st.pair.base_map != block:
            return False, f"stage {st.index}: t∘s differs from the block map"
        x = cert.orbit.value_at(st.n)
        if st.pair.s(x) != st.coordinate:
            return False, f"stage {st.index}: stored coordinate is not s(x_n)"
        if stab is not None:
            if branch(block, x).B != (stab.a, stab.b):
                return False, f"stage {st.index}: branch window mismatch"
            if stab.side == "left-gap" and stab.a <= x < stab.a + stab.epsilon:
                return False, f"stage {st.index}: coordinate inside left gap"
            if stab.side == "right-gap" and stab.b - stab.epsilon < x <= stab.b:
                return False, f"stage {st.index}: coordinate inside right gap"
        if st.index >= 2:
            if st.g is None or st.verdict is None:
                return False, f"stage {st.index}: missing rebonded map or verdict"
            if compose(prev_stage.pair.s, st.pair.t) != st.g:
                return False, f"stage {st.index}: g differs from s_prev∘t"
            if st.g(st.coordinate) != prev_stage.coordinate:
                return False, f"stage {st.index}: coordinate chain broken"
            if is_in_zigzag(st.g, st.coordinate) != st.verdict:
                return False, f"stage {st.index}: zigzag verdict does not re-verify"
            if cert.result == "pass" and st.verdict.in_zigzag:
                return False, f"stage {st.index}: passing certificate with zigzag hit"
        prev_n = st.n
        prev_stage = st
    if stab is not None:
        gap_map = cache.power(stab.n_sequence.step)
        if not uniformly_onto(gap_map, stab.epsilon / 2):
            return False, "block map fails the covering condition at scale eps/2"
    return True, "ok"
