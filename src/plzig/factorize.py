"""Factorization pipelines and accessibility certificates.

A factor pair (s, t) splits an iterate block F into t∘s = F so that the
inverse limit can be rebonded through g = s∘t; when the tracked coordinate
of a backward orbit escapes every zigzag of the rebonded maps, the point is
certified accessible in some thin planar embedding.  This module builds the
two explicit fold constructions, whose t∘s = F holds by their algebra (see
:class:`FactorPair`), the stage pipelines (the hard-coded Minc double-step
pipeline and the general stabilization-driven one), and the
machine-checkable certificate records they emit; the verifier accepts a
certificate only as the pipeline's own output on the certificate's inputs.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
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
    _joined,
    _key_text,
    dumps_map,
    iterate,
    loads_map,
    make_plmap,
    parse_rational,
)
from .zigzag import ZigzagVerdict, composite_verdict
from .dynamics import (
    BackwardOrbit,
    OrbitValidationError,
    StabilizationData,
    branch_stabilization,
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
    """Onto maps s, t whose composite t∘s is exactly the factored block map F.

    The identity holds by construction, so nothing here checks it again;
    the pair does not keep F.  A certificate stores only ``case`` and
    ``beta``: the tests rebuild s and t from them and f^step by the formulas
    below, and check the fold and t∘s = f^step by composition and
    evaluation that share no code with this module.

    Case 1 (:func:`split_case1`, F(beta) = 0): s = beta(1 - F) on [0, beta]
    and the identity on [beta, 1]; t = 1 - u/beta on [0, beta] and F on
    [beta, 1].  For y < beta, t(s(y)) = 1 - beta(1 - F(y))/beta = F(y); for
    y >= beta, s(y) = y and t(y) = F(y).
    Case 2 (:func:`split_case2`, F(beta) = 1): s is the identity on
    [0, beta] and 1 - (1 - beta)F on [beta, 1]; t is F on [0, beta] and
    (1 - u)/(1 - beta) on [beta, 1].  For y <= beta, s(y) = y and t(y) =
    F(y); for y > beta, t(s(y)) = (1 - beta)F(y)/(1 - beta) = F(y).
    F has no flat piece and its values lie in [0, 1], so F(beta) is 0 or 1
    only at a breakpoint b/den of F's keys ``(den, xk, yk)``.  s and t are
    normalized slices of those keys: s has (x·den, b·(den - y)) (case 1) or
    (x·den, den² - (den - b)·y) (case 2) over den², and t has F's own.
    """

    s: PLMap
    t: PLMap
    case: str
    beta: Fraction


def split_case1(f: PLMap, beta) -> FactorPair:
    """Split f at a fold to 0: s(y) = beta*(1-f(y)) below beta, identity
    above; t unwinds the fold linearly and continues as f."""
    beta = _as_rational(beta)
    if not (ZERO < beta <= ONE):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if f(beta) != ZERO:
        raise ValueError(f"case 1 split needs f(beta) = 0, but f({beta}) = {f(beta)}")
    den, xk, yk = f._keys
    i = bisect_left(xk, beta.numerator * den // beta.denominator)
    if den not in yk[:i]:
        raise ValueError(f"case 1 split needs a point below {beta} mapping to 1")
    b, dd = xk[i], den * den
    tail = [dd] if beta < ONE else []
    s = _joined(dd, [x * den for x in xk[:i + 1]] + tail, [b * (den - y) for y in yk[:i + 1]] + tail, i)
    t = _joined(den, [0, *xk[i:]], [den, *yk[i:]], 1)
    return FactorPair(s, t, CASE1, beta)


def split_case2(f: PLMap, beta) -> FactorPair:
    """Mirror split at a fold to 1: s is the identity below beta and folds
    the top part; t continues as f and unwinds the fold linearly."""
    beta = _as_rational(beta)
    if not (ZERO <= beta < ONE):
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if f(beta) != ONE:
        raise ValueError(f"case 2 split needs f(beta) = 1, but f({beta}) = {f(beta)}")
    den, xk, yk = f._keys
    i = bisect_left(xk, beta.numerator * den // beta.denominator)
    if 0 not in yk[i + 1:]:
        raise ValueError(f"case 2 split needs a point above {beta} mapping to 0")
    dd, c = den * den, den - xk[i]
    head = [0] if beta > ZERO else []
    s = _joined(dd, head + [x * den for x in xk[i:]], head + [dd - c * y for y in yk[i:]], len(head))
    t = _joined(den, [*xk[:i + 1], den], [*yk[:i + 1], 0], i)
    return FactorPair(s, t, CASE2, beta)


def find_beta(f: PLMap, window: tuple, case: str) -> tuple[Fraction, Fraction]:
    """Locate a full fold of f inside the stage window.

    Case 1 searches [lo, hi) for a level-1 crossing followed by a level-0
    crossing and returns (alpha, beta) with beta the least such level-0
    crossing and alpha the greatest level-1 crossing before it.  Case 2
    searches (lo, hi] for the mirrored pattern and returns (gamma, beta)
    with gamma the greatest level-0 crossing preceded by a level-1 crossing
    and beta the greatest such level-1 crossing.  Raises when the window
    holds no full fold (a covering-condition violation).

    f has no flat piece and its values lie in [0, 1], so the crossings are
    the breakpoints whose value key is 0 or the common denominator.  The
    window's breakpoints are found by bisecting the x keys, as
    :meth:`PLMap.__call__` does, and only the two returned values become
    ``Fraction``s.
    """
    lo, hi = (_as_rational(window[0]), _as_rational(window[1]))
    if case not in (CASE1, CASE2):
        raise ValueError(f"unknown case {case!r}")
    low = case == CASE1
    den, xk, yk = f._keys
    # cut(v) is the first breakpoint index inside a window that starts at
    # v: at or past v in case 1, past v in case 2.  An int key is below
    # n/d exactly when it is below its ceiling, and at most n/d exactly
    # when it is at most its floor
    if low:
        cut = lambda v: bisect_left(xk, -(-v.numerator * den // v.denominator))
    else:
        cut = lambda v: bisect_right(xk, v.numerator * den // v.denominator)
    inside = range(cut(lo), cut(hi))
    ones = [i for i in inside if yk[i] == den]
    # indices are in x order, so a 1 comes before z exactly when the first does
    zeros = [i for i in inside if yk[i] == 0 and ones and ones[0] < i]
    if not zeros:
        span = f"[{lo}, {hi})" if low else f"({lo}, {hi}]"
        raise ValueError(f"window {span} holds no 1-then-0 fold of the block map")
    zero = zeros[0] if low else zeros[-1]
    one = ones[bisect_left(ones, zero) - 1]
    pair = (Fraction(xk[one], den), Fraction(xk[zero], den))
    return pair if low else pair[::-1]


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
    ``n``, the tracked coordinate s(x_n), and its zigzag verdict under the
    inbound rebonded map g = s_prev ∘ t (None at the first stage).  g is
    never built: the verdict is decided on a window of it around the
    coordinate (:func:`composite_verdict`), and its laps and witnesses are
    in g's coordinates.  The pair keeps s and t for the stage loop; a
    certificate stores only its case and beta, which fix both."""

    index: int
    n: int
    pair: FactorPair
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
    # why the failing stage failed; never serialized, and re-derived when a
    # certificate is decoded
    failure_reason: Optional[str]

    @property
    def passed(self) -> bool:
        return self.result == "pass"


def _assemble(
    base_map: PLMap,
    orbit: BackwardOrbit,
    stabilization: Optional[StabilizationData],
    n0: int,
    step: int,
    pair_of,
    stage_count: int,
) -> Certificate:
    """Run the stage loop shared by both pipelines.

    Stage i sits at orbit index n_i = n0 + i·step and uses the factor pair
    ``pair_of(i)`` of the block map f^step.  It relies on facts settled
    before: each pair's t∘s is f^step exactly by its construction
    (:class:`FactorPair`), the orbit is validated (:func:`validate_orbit`),
    and with stabilization data every tracked value is x_{n0}, whose branch
    and gap window :func:`branch_stabilization` checked on the same block.
    A stage fails when s moves x_n (the stage rule) or when its coordinate
    lies in a zigzag of g = s_prev∘t; the first failing stage's reason is
    kept.  g carries c_i to c_{i-1}: once s(c_i) = c_i = x_{n_i}, t(c_i) =
    f^step(x_{n_i}) = x_{n_{i-1}}, so g(c_i) = s_prev(x_{n_{i-1}}) = c_{i-1}.
    g is never composed: :func:`composite_verdict` decides the verdict on
    the window of g between the nearest points around c_i where g is 0 or 1.
    The repeat index is the first stage whose state (both pairs and both
    orbit values) duplicates an earlier full stage.  At least
    ``stage_count`` stages run, and enough to exhibit the repeat: the state
    recurs after the orbit's period counted in blocks of ``step``.
    """
    if stage_count < 2:
        raise ValueError("need at least two stages to run any zigzag check")
    p = orbit.minimal_period()
    verdict_cache: dict[tuple, ZigzagVerdict] = {}
    seen_states: dict[tuple, int] = {}
    stages: list[StageRecord] = []
    failing = failure_reason = repeat_index = None
    prev = None  # (pair key, pair, x) of the previous stage
    for i in range(1, max(stage_count, p // gcd(step, p) + 2) + 1):
        n_i = n0 + i * step
        x = orbit.value_at(n_i)
        pair = pair_of(i)
        key = (pair.case, pair.beta)
        coordinate = pair.s(x)
        reason: Optional[str] = None
        if coordinate != x:  # the stage rule pins x inside s's identity part
            reason = f"s moves x_{n_i} = {x} to {coordinate}"
        verdict: Optional[ZigzagVerdict] = None
        if prev is not None:
            prev_key, prev_pair, prev_x = prev
            vkey = (prev_key, key, coordinate)
            verdict = verdict_cache.get(vkey)
            if verdict is None:
                verdict = verdict_cache[vkey] = composite_verdict(prev_pair.s, pair.t, coordinate)
            if reason is None and verdict.in_zigzag:
                reason = f"coordinate {coordinate} lies in a zigzag of g"
            state = (prev_key, key, prev_x, x)
            if repeat_index is None and seen_states.setdefault(state, i) != i:
                repeat_index = i
        if reason is not None and failing is None:
            failing, failure_reason = i, reason
        stages.append(StageRecord(i, n_i, pair, coordinate, verdict))
        prev = (key, pair, x)

    return Certificate(
        base_map=base_map,
        orbit=orbit,
        stabilization=stabilization,
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
        f, orbit, None, n0=0, step=MINC_STEP,
        pair_of=lambda i: pairs[minc_stage_choice(orbit.value_at(MINC_STEP * i))],
        stage_count=stages,
    )


def certify_general(
    f: PLMap,
    orbit: BackwardOrbit,
    stages: int,
    budget: Optional[int] = None,
) -> Certificate:
    """Full certificate pipeline for a post-critically finite leo map.

    Each fact is checked once.  :func:`branch_stabilization` checks the
    orbit (:func:`validate_orbit`; a failure raises
    :class:`OrbitValidationError`), the map hypotheses (:func:`map_facts`;
    a failure raises :class:`CertifyError`) and the stabilized branch
    [a, b] with its gap, and hands over the block map f^step it chose.
    :func:`split_case1` or :func:`split_case2` splits the fold inside the
    gap window, checking that the fold is there; t∘s = f^step then holds by
    the construction (:class:`FactorPair`).  The stage loop checks that
    s fixes each tracked x_n and that its coordinate is outside every
    zigzag of the rebonded map.
    """
    try:
        stab, block = branch_stabilization(f, orbit, budget)
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
    return _assemble(f, orbit, stab, stab.n0, stab.step, lambda i: pair, stages)


# ---------------------------------------------------------------------------
# Serialization: schema version 4, compact JSON with sorted keys.  Every
# rational is a p/q string, and ``map`` is the base map's map-file text
# (:func:`dumps_map`), the only map text stored.  A stage stores its factor
# pair as ``case`` and ``beta``, which fix s and t given f^step
# (:class:`FactorPair`), and no rebonded map: g = s_prev∘t follows from the
# pairs, and its zigzag verdict keeps laps and witnesses in g's coordinates.
# Version 2, which stored g, and version 3, which stored the texts of s and
# t in a ``maps`` table, are refused.  One certificate has one encoding, so
# the verifier compares encodings instead of parsing them.
# ---------------------------------------------------------------------------

VERSION = 4

# the keys of a stage, in the order in which the verifier reports a first difference
_STAGE_KEYS = ("n_i", "case", "beta", "coordinate", "zigzag_verdict")


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def certificate_to_dict(cert: Certificate) -> dict:
    """The certificate's JSON object.  Each rational is written by
    :func:`plzig.plmap._key_text`, so a number past the interpreter's limit
    on int-string digits raises ValueError with its digit count."""
    text = lambda v: _key_text(v.numerator, v.denominator)
    s = cert.stabilization
    stab = None if s is None else {
        "a": text(s.a),
        "b": text(s.b),
        "epsilon": text(s.epsilon),
        "side": s.side,
        "n-sequence": {"head": [s.n0], "step": s.step},
    }
    # keys in the order in which the verifier reports a first difference
    return {
        "stabilization": stab,
        "stages": [
            dict(zip(_STAGE_KEYS, (
                st.n, st.pair.case, text(st.pair.beta), text(st.coordinate),
                st.verdict.to_dict() if st.verdict is not None else None,
            )))
            for st in cert.stages
        ],
        "result": cert.result,
        "failing_stage": cert.failing_stage,
        "repeat_index": cert.repeat_index,
        "map": dumps_map(cert.base_map),
        "orbit": {
            "prefix": [text(v) for v in cert.orbit.prefix],
            "period": [text(v) for v in cert.orbit.period_block],
        },
        "version": VERSION,
    }


def certificate_to_json(cert: Certificate) -> str:
    return _canonical(certificate_to_dict(cert)) + "\n"


def certificate_from_dict(data: dict) -> Certificate:
    """Decode a certificate by re-deriving it: the certificate the pipeline
    builds on the stored inputs, if ``data`` is its encoding.  Else raises
    ValueError with :func:`verify_certificate`'s reason."""
    cert, reason = _rederive(data)
    if cert is None:
        raise ValueError(reason)
    return cert


def verify_certificate(data: dict) -> tuple[bool, str]:
    """Certify the certificate's inputs again and compare encodings.

    The inputs are those of ``plzig certify``: the version, the base map,
    the orbit, the pipeline (stabilization data or none) and the stage
    count.  Without stabilization data the map must be :func:`minc_map` and
    :func:`certify_minc` runs, else :func:`certify_general`, which checks
    every hypothesis again.  A certificate passes only when its canonical
    encoding is the re-derived one, so exactly the pipelines' outputs pass;
    else the reason names the first field that differs.  Returns (ok,
    message) and never raises; :func:`certificate_from_dict` decodes by the
    same re-derivation.
    """
    cert, reason = _rederive(data)
    return cert is not None, reason


def _rederive(data: dict) -> tuple[Optional[Certificate], str]:
    """The re-derived certificate and "ok" when ``data`` is its encoding,
    else None and the reason (see :func:`verify_certificate`)."""
    try:
        if data.get("version") != VERSION:
            return None, f"version: stored {data.get('version')!r}, this verifier reads {VERSION}"
        f = loads_map(data["map"])
        orbit = BackwardOrbit(
            *(tuple(map(parse_rational, data["orbit"][k])) for k in ("prefix", "period"))
        )
        general = data["stabilization"] is not None
        if type(data["stages"]) is not list:
            raise TypeError(f"stages must be a list, got {type(data['stages']).__name__}")
        count = len(data["stages"])
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        return None, f"malformed certificate: {type(exc).__name__}: {exc}"
    if not general and f != minc_map():
        return None, "map: a certificate without stabilization data must be on the Minc map"
    # re-deriving runs one stage per stored entry, so a malformed one is named first
    for i, st in enumerate(data["stages"], start=1):
        if not isinstance(st, dict):
            return None, f"stage {i}: stored {type(st).__name__}, not an object"
        missing = [k for k in _STAGE_KEYS if k not in st]
        if missing:
            return None, f"stage {i} {missing[0]}: missing"
        extra = [k for k in st if k not in _STAGE_KEYS]
        if extra:
            return None, f"stage {i}: unknown key {extra[0]!r}"
    try:
        derived = certify_general(f, orbit, count) if general else certify_minc(orbit, count)
        want = certificate_to_dict(derived)
    except OrbitValidationError as exc:
        return None, f"orbit: {exc}"
    except CertifyError as exc:
        return None, f"map: {exc}"
    except BudgetExceededError as exc:
        return None, f"re-deriving the certificate exceeds the budget: {exc}"
    except ValueError as exc:  # too few stages, or a number too long to print
        return None, f"re-deriving the certificate: {exc}"
    try:
        if _canonical(data) == _canonical(want):
            return derived, "ok"
    except (TypeError, ValueError, RecursionError) as exc:
        return None, f"malformed certificate: {type(exc).__name__}: {exc}"
    found = _first_difference("stabilization", data["stabilization"], want["stabilization"])
    for i, (st, rd) in enumerate(zip(data["stages"], want["stages"]), start=1):
        found = found or _first_difference(f"stage {i}", st, rd)
    verdict = [data.get("result"), data.get("failing_stage")]
    if not found and _canonical(verdict) != _canonical([derived.result, derived.failing_stage]):
        stage, why = derived.failing_stage, derived.failure_reason
        got = "pass" if derived.passed else f"fail at stage {stage}: {why}"
        found = f"result: stored {verdict[0]!r} with failing_stage {verdict[1]}, re-derived {got}"
    return None, found or _first_difference("", data, want) or "the encoding differs"


def _first_difference(path: str, stored, derived) -> Optional[str]:
    """Name the first place, in ``derived``'s key order, where two JSON
    values differ in canonical encoding, with both values; None if equal.
    Two texts are shown from their first differing line.  The re-derived
    ``map`` is written from the stored text, so a difference there is one
    of normal form."""
    if _canonical(stored) == _canonical(derived):
        return None
    if isinstance(stored, list) and isinstance(derived, list):
        if len(stored) != len(derived):
            return f"{path}: {len(stored)} entries stored, {len(derived)} re-derived"
        stored, derived = dict(enumerate(stored)), dict(enumerate(derived))
    if isinstance(stored, dict) and isinstance(derived, dict):
        for key in derived:
            sub = f"{path} {key}".lstrip()
            if key not in stored:
                return f"{sub}: missing"
            found = _first_difference(sub, stored[key], derived[key])
            if found:
                return found
        extra = next(k for k in stored if k not in derived)
        return f"{path or 'certificate'}: unknown key {extra!r}"
    label = "re-derived"
    if path == "map":
        path, label = "map: not in normal form", "normal form"
    where = ""
    if isinstance(stored, str) and isinstance(derived, str):
        a, b = stored.splitlines(keepends=True), derived.splitlines(keepends=True)
        line = next((i for i, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))
        stored, derived = "".join(a[line:]), "".join(b[line:])
        where = f" from line {line + 1}" if line else ""
    show = lambda v: (repr(v)[:59] + "…") if len(repr(v)) > 60 else repr(v)
    return f"{path}: stored{where} {show(stored)}, {label} {show(derived)}"
