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
    BudgetExceededError,
    PLMap,
    _as_rational,
    compose,
    iterate,
    level_crossings,
    make_plmap,
)
from .zigzag import ZigzagVerdict, is_in_zigzag
from .dynamics import (
    BackwardOrbit,
    NSequence,
    OrbitValidationError,
    StabilizationData,
    _stabilize,
    branch,
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
MINC_STEP = 2  # the Minc pipeline's blocks are second iterates


class CertifyError(RuntimeError):
    """A certificate pipeline could not run or an emitted check failed."""


@dataclass(frozen=True)
class FactorPair:
    """Onto maps s, t whose composite t∘s is exactly the factored block map.

    Case 1: s is the identity on [beta, 1] and t(beta) = 0.
    Case 2: s is the identity on [0, beta] and t(beta) = 1.
    :func:`split_case1` and :func:`split_case2` check t∘s = F when they
    build the pair; the pair does not keep F.
    """

    s: PLMap
    t: PLMap
    case: str
    beta: Fraction


def _checked_pair(f: PLMap, s_pts, t_pts, case: str, beta: Fraction) -> FactorPair:
    pair = FactorPair(make_plmap(s_pts), make_plmap(t_pts), case, beta)
    if compose(pair.t, pair.s) != f:
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
    return _checked_pair(f, s_pts, t_pts, CASE1, beta)


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
    return _checked_pair(f, s_pts, t_pts, CASE2, beta)


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
    # why the failing stage failed; kept in memory, never serialized
    failure_reason: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.result == "pass"


def _stage_count(orbit: BackwardOrbit, step: int, requested: int) -> int:
    """Stages to run: the requested count, and at least enough to exhibit
    the repeat of the stage state, which recurs after the orbit's period
    counted in blocks of ``step`` (the first stage has no state)."""
    if requested < 2:
        raise ValueError("need at least two stages to run any zigzag check")
    p = orbit.minimal_period()
    return max(requested, p // gcd(step, p) + 2)


def _assemble(
    base_map: PLMap,
    orbit: BackwardOrbit,
    stabilization: Optional[StabilizationData],
    block: PLMap,
    n0: int,
    step: int,
    pair_of,
    stage_count: int,
) -> Certificate:
    """Run the stage loop shared by both pipelines and the verifier.

    Stage i sits at orbit index n0 + i·step and uses the factor pair
    ``pair_of(i)`` of ``block`` = f^step.  It fails when s moves x_n, when
    (with stabilization data) the branch of the block map at x_n is not
    [a, b] or x_n enters the gap window, when g = s_prev∘t does not carry
    the coordinate to the previous one, or when the coordinate lies in a
    zigzag of g; the first failing stage's reason is kept on the
    certificate.  The repeat index is the first stage whose state (both
    pairs and both orbit values) duplicates an earlier full stage; enough
    stages are run to exhibit it.
    """
    stab = stabilization
    g_cache: dict[tuple, PLMap] = {}
    verdict_cache: dict[tuple, ZigzagVerdict] = {}
    branch_cache: dict[Fraction, tuple[Fraction, Fraction]] = {}
    seen_states: dict[tuple, int] = {}
    stages: list[StageRecord] = []
    failing = failure_reason = repeat_index = None
    prev = None  # (pair key, pair, x, coordinate) of the previous stage
    for i in range(1, _stage_count(orbit, step, stage_count) + 1):
        n_i = n0 + i * step
        x = orbit.value_at(n_i)
        pair = pair_of(i)
        key = (pair.case, pair.beta)
        coordinate = pair.s(x)
        reason: Optional[str] = None
        if coordinate != x:  # the stage rule pins x inside s's identity part
            reason = f"s moves x_{n_i} = {x} to {coordinate}"
        elif stab is not None:
            B = branch_cache.get(x)
            if B is None:
                B = branch_cache[x] = branch(block, x).B
            if B != (stab.a, stab.b):
                reason = f"branch {B} differs from ({stab.a}, {stab.b})"
            elif stab.side == "left-gap" and stab.a <= x < stab.a + stab.epsilon:
                reason = f"coordinate {x} entered the left gap window"
            elif stab.side == "right-gap" and stab.b - stab.epsilon < x <= stab.b:
                reason = f"coordinate {x} entered the right gap window"
        g: Optional[PLMap] = None
        verdict: Optional[ZigzagVerdict] = None
        if prev is not None:
            prev_key, prev_pair, prev_x, prev_coord = prev
            g = g_cache.get((prev_key, key))
            if g is None:
                g = g_cache[(prev_key, key)] = compose(prev_pair.s, pair.t)
            vkey = (prev_key, key, coordinate)
            verdict = verdict_cache.get(vkey)
            if verdict is None:
                verdict = verdict_cache[vkey] = is_in_zigzag(g, coordinate)
            if reason is None and g(coordinate) != prev_coord:
                reason = f"g sends {coordinate} to {g(coordinate)}, not to {prev_coord}"
            if reason is None and verdict.in_zigzag:
                reason = f"coordinate {coordinate} lies in a zigzag of g"
            state = (prev_key, key, prev_x, x)
            if repeat_index is None and seen_states.setdefault(state, i) != i:
                repeat_index = i
        if reason is not None and failing is None:
            failing, failure_reason = i, reason
        stages.append(StageRecord(i, n_i, pair, g, coordinate, verdict))
        prev = (key, pair, x, coordinate)

    return Certificate(
        base_map=base_map,
        orbit=orbit,
        stabilization=stab,
        stages=tuple(stages),
        result="pass" if failing is None else "fail",
        failing_stage=failing,
        repeat_index=repeat_index,
        failure_reason=failure_reason,
    )


def certify_minc(orbit: BackwardOrbit, stages: int) -> Certificate:
    """Certificate for the Minc pipeline: double-step blocks of the Minc
    map, stage pairs chosen by :func:`minc_stage_choice` with the two
    hard-coded folds, and a zigzag check at every rebonded stage."""
    f = minc_map()
    validate_orbit(f, orbit)
    block = iterate(f, MINC_STEP)
    pairs = {
        CASE1: split_case1(block, MINC_BETA_LOW),
        CASE2: split_case2(block, MINC_BETA_HIGH),
    }
    return _assemble(
        f, orbit, None, block, n0=0, step=MINC_STEP,
        pair_of=lambda i: pairs[minc_stage_choice(orbit.value_at(MINC_STEP * i))],
        stage_count=stages,
    )


def certify_general(
    f: PLMap,
    orbit: BackwardOrbit,
    stages: int = 4,
    budget: Optional[int] = None,
) -> Certificate:
    """Full certificate pipeline for a post-critically finite leo map.

    :func:`branch_stabilization` checks the orbit and every hypothesis on
    the map (a failed hypothesis raises :class:`CertifyError`, an
    inconsistent orbit :class:`OrbitValidationError`), extracts the
    stabilized branch window and hands over the block map f^step it chose.
    Then the fold inside the gap window is picked and every stage is
    checked: the branch of the block map at the tracked coordinate equals
    [a, b], the coordinate avoids the gap window, the fold identities hold
    exactly, and the coordinate is outside every zigzag of the rebonded map.
    """
    try:
        stab, block = _stabilize(f, orbit, budget)
    except OrbitValidationError:
        raise
    except ValueError as exc:
        raise CertifyError(str(exc)) from exc
    if stab.side == "left-gap":
        _, beta = find_beta(block, (stab.a, stab.a + stab.epsilon), CASE1)
        pair = split_case1(block, beta)
    else:
        _, beta = find_beta(block, (stab.b - stab.epsilon, stab.b), CASE2)
        pair = split_case2(block, beta)
    n0, step = stab.n_sequence.head[0], stab.n_sequence.step
    return _assemble(f, orbit, stab, block, n0, step, pair_of=lambda i: pair, stage_count=stages)


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
        seq = stab.n_sequence
        ints = all(isinstance(v, int) for v in (*seq.head, seq.step))
        bad = stab.side not in ("left-gap", "right-gap") or stab.epsilon <= 0 or not ints
        if bad or len(seq.head) != 1 or seq.head[0] < 0:
            raise ValueError("stabilization side, epsilon or n-sequence out of range")
    base = _dec_map(data["map"])
    orbit = BackwardOrbit(
        tuple(Fraction(v) for v in data["orbit"]["prefix"]),
        tuple(Fraction(v) for v in data["orbit"]["period"]),
    )
    stages = [
        StageRecord(
            index=idx,
            n=st["n_i"],
            pair=FactorPair(
                _dec_map(st["s"]), _dec_map(st["t"]), st["case"], Fraction(st["beta"])
            ),
            g=_dec_map(st["g"]) if st["g"] is not None else None,
            coordinate=Fraction(st["coordinate"]),
            verdict=ZigzagVerdict.from_dict(st["zigzag_verdict"])
            if st["zigzag_verdict"] is not None
            else None,
        )
        for idx, st in enumerate(data["stages"], start=1)
    ]
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
    """Decode, re-derive with the pipelines' own steps, and compare.

    The orbit must be a backward orbit of the base map.  Without
    stabilization data the certificate comes from the Minc pipeline: the
    map must be :func:`minc_map`, stage i sits at orbit index 2·i and the
    block map is f^2.  Otherwise stage i sits at n0 + i·step, and
    :func:`branch_stabilization` runs again on the stored map and orbit:
    it checks every hypothesis, its (a, b, epsilon, side, n-sequence) must
    equal the stored one, and its block map f^step is used, so no step
    read from the certificate is ever iterated.  Each stored (case, beta)
    is split again on the block map, :func:`_assemble` runs on those pairs,
    and the stage count, every stored s, t, g (in normal form), coordinate,
    verdict, ``result``, ``failing_stage`` and ``repeat_index`` must equal
    the re-derived ones.  Returns (ok, message); malformed input, failed
    hypotheses and budget overruns are failures, never exceptions.
    """
    try:
        cert = certificate_from_dict(data)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return False, f"malformed certificate: {type(exc).__name__}: {exc}"
    stored, f, stab = cert.stages, cert.base_map, cert.stabilization
    if len(stored) < 2:
        return False, "need at least two stages to run any zigzag check"
    try:
        validate_orbit(f, cert.orbit)
    except OrbitValidationError as exc:
        return False, f"orbit: {exc}"
    if stab is None:
        if f != minc_map():
            return False, "map: a certificate without stabilization data must be on the Minc map"
        n0, step = 0, MINC_STEP
    else:
        n0, step = stab.n_sequence.head[0], stab.n_sequence.step
    for st in stored:
        if st.n != n0 + st.index * step:
            return False, f"stage {st.index}: orbit index {st.n} is not {n0} + {st.index}·{step}"
    need = _stage_count(cert.orbit, step, len(stored))
    if len(stored) != need:
        return False, f"stages: {len(stored)} stored, the orbit's period needs {need}"

    try:
        if stab is None:
            block = iterate(f, MINC_STEP)
        else:
            try:
                derived_stab, block = _stabilize(f, cert.orbit)
            except ValueError as exc:
                return False, f"map: {exc}"
            for name in ("a", "b", "epsilon", "side", "n_sequence"):
                want, got = getattr(stab, name), getattr(derived_stab, name)
                if want != got:
                    field = name.replace("_", "-")
                    return False, f"stabilization {field}: stored {want}, re-derived {got}"
        pairs: dict[tuple[str, Fraction], FactorPair] = {}
        for st in stored:
            case, beta = st.pair.case, st.pair.beta
            if case not in (CASE1, CASE2):
                return False, f"stage {st.index}: unknown case {case!r}"
            if (case, beta) not in pairs:
                try:
                    split = split_case1 if case == CASE1 else split_case2
                    pairs[case, beta] = split(block, beta)
                except (ValueError, CertifyError) as exc:
                    return False, f"stage {st.index}: {exc}"
        stage_pairs = [pairs[st.pair.case, st.pair.beta] for st in stored]
        derived = _assemble(
            f, cert.orbit, stab, block, n0, step, lambda i: stage_pairs[i - 1], len(stored)
        )
    except BudgetExceededError as exc:
        return False, f"re-deriving the certificate exceeds the budget: {exc}"

    for st, rd in zip(stored, derived.stages):
        if (st.pair.s, st.pair.t) != (rd.pair.s, rd.pair.t):
            return False, f"stage {st.index}: s, t differ from the split of the block map at beta"
        if st.coordinate != rd.coordinate:
            return False, f"stage {st.index}: stored coordinate is not s(x_n)"
        if st.g != rd.g:
            return False, f"stage {st.index}: g differs from s_prev∘t"
        if st.verdict != rd.verdict:
            return False, f"stage {st.index}: zigzag verdict does not re-verify"
    if (cert.result, cert.failing_stage) != (derived.result, derived.failing_stage):
        got = "pass" if derived.passed else (
            f"fail at stage {derived.failing_stage}: {derived.failure_reason}"
        )
        return False, (
            f"result: stored {cert.result!r} with failing_stage {cert.failing_stage}, "
            f"re-derived {got}"
        )
    if cert.repeat_index != derived.repeat_index:
        return False, (
            f"repeat_index: stored {cert.repeat_index}, re-derived {derived.repeat_index}"
        )
    return True, "ok"
