"""Exact piecewise-linear self-maps of [0, 1] with rational breakpoints.

Scalars are arbitrary-precision rationals and every operation (evaluation,
composition, iteration, the solutions at 0 and 1) works directly on
breakpoint lists, held as integer keys over their least common denominator.
There is no floating-point path anywhere in this module, so map equality is
decidable and composition identities can be checked exactly.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, log10
from itertools import compress, islice, repeat
from operator import lt, mod, ne
from typing import Collection, Iterable, NamedTuple, Sequence

__all__ = [
    "ZERO",
    "ONE",
    "DEFAULT_BREAKPOINT_BUDGET",
    "BudgetExceededError",
    "Lap",
    "PLMap",
    "parse_rational",
    "make_plmap",
    "compose",
    "IterateCache",
    "iterate",
    "laps",
    "level_crossings",
    "is_onto",
    "loads_map",
    "dumps_map",
    "load_map",
]

ZERO = Fraction(0)
ONE = Fraction(1)

# Iteration makes breakpoint counts grow geometrically (the five-lap Minc map
# gains a factor of ~5 per composition), so operations that build new maps
# refuse to cross this bound instead of silently grinding away.
DEFAULT_BREAKPOINT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """An operation would exceed its breakpoint or step budget."""


# what str(Fraction) writes, with any nonzero denominator
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational literal, ``p/q`` or an integer, either with
    an optional ``-``.  Fraction's own grammar also reads exponents, so a
    short text such as ``1e-10000000`` would take seconds to build.  A
    numerator or denominator past the interpreter's limit on int-string
    digits is refused with its digit count."""
    literal = text.strip()
    if not _RATIONAL.fullmatch(literal):
        raise ValueError(f"malformed rational literal {text!r}")
    try:
        return Fraction(literal)
    except ValueError:
        digits = max(map(len, literal.lstrip("-").split("/")))
        raise ValueError(
            f"rational literal too long: a numerator or denominator of {digits} digits, "
            f"past the limit of {sys.get_int_max_str_digits()} digits"
        ) from None


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


class Lap(NamedTuple):
    """A maximal interval of strict monotonicity."""

    left: Fraction
    right: Fraction


@dataclass(frozen=True, init=False, repr=False)
class PLMap:
    """A piecewise-linear map of [0, 1] to itself.

    A map is its integer keys (:attr:`_keys`): ``(den, xk, yk)``, the least
    common denominator of all breakpoint coordinates and the coordinates
    times it, as int tuples, with x strictly increasing from 0 to 1, all y
    in [0, 1], no zero-slope segment and a slope change at every interior
    breakpoint.  Keys are checked once, where they enter, by
    :func:`_normalized`; every map is built by :meth:`_of_keys`, which
    checks nothing.  So a function has one representation.  The class is a
    frozen dataclass over its one field ``_keys``.  Its ``__init__``
    refuses every call, so ``PLMap(...)`` and ``PLMap()`` raise
    ``TypeError`` and no map lacks its keys; assigning or deleting an
    attribute raises ``FrozenInstanceError``; and two maps are equal, and
    hash alike, exactly when their keys are, that is when they are the same
    function.
    ``xs``, ``ys`` and ``points`` are ``Fraction``s made from the keys on
    first read, once per map, and equal values of ``ys`` are one object;
    ``cached_property`` writes them to the instance ``__dict__``, past the
    frozen ``__setattr__``.

    Normalization, evaluation, composition, the lap table and the
    :func:`laps` made from it, the lookup of the laps around a point
    (:func:`_laps_around`, a walk on the keys that builds no table), the
    solutions at 0 and 1, :func:`is_onto`, :func:`dumps_map` and, in the
    other modules, the zigzag verdicts and locus, the fold search, the
    covering test, the critical orbits, the leo semi-decision and
    primitivity read the keys, and none has a second implementation on the
    ``Fraction`` coordinates.  So certifying reads the block map, s and t
    without making their points, and the branch of a power builds no lap
    table.
    """

    _keys: tuple[int, tuple[int, ...], tuple[int, ...]]

    @classmethod
    def _of_keys(cls, den: int, xk: Sequence[int], yk: Sequence[int]) -> PLMap:
        """The map with keys ``(den, xk, yk)``, unchecked, and the only
        constructor: it makes the instance with ``object.__new__``, past
        the refusing ``__init__``, and writes the field to the instance
        ``__dict__``.  The caller holds the invariants: x strictly
        increasing from 0 to den, y in [0, den], no flat segment, a slope
        change at every interior breakpoint, and no factor common to den
        and every key.  :func:`_normalized` has just
        checked its keys; :func:`_joined` takes slices of a checked map at a
        fold that ``split_case1``/``split_case2`` checked; :func:`compose`
        builds from two checked maps, as :func:`plzig.zigzag.composite_verdict`
        trusts the window keys of :func:`_compose_segments`."""
        f = object.__new__(cls)
        f.__dict__["_keys"] = (den, tuple(xk), tuple(yk))
        return f

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("PLMap has no public constructor; use make_plmap or loads_map")

    @cached_property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.xs, self.ys))

    @cached_property
    def xs(self) -> tuple[Fraction, ...]:
        den, xk, _ = self._keys
        return tuple(Fraction(k, den) for k in xk)

    @cached_property
    def ys(self) -> tuple[Fraction, ...]:
        den, _, yk = self._keys
        return tuple(map({k: Fraction(k, den) for k in set(yk)}.__getitem__, yk))

    @cached_property
    def _ends(self) -> tuple[int, ...]:
        """The lap table: breakpoint indices of the lap ends."""
        return _lap_ends(self._keys[2])

    def __call__(self, x) -> Fraction:
        """Exact evaluation by linear interpolation on the containing
        segment, found by bisecting the x keys: x = n/d has key n·den/d,
        and an int key is at most that exactly when it is at most its
        floor."""
        x = _as_rational(x)
        if not (ZERO <= x <= ONE):
            raise ValueError(f"argument {x} outside [0, 1]")
        den = self._keys[0]
        n, d = _key_image(self._keys, x.numerator * den, x.denominator)
        return Fraction(n, d * den)

    def __repr__(self) -> str:  # keeps pytest diffs readable
        pts = ", ".join(f"({x},{y})" for x, y in self.points)
        return f"PLMap[{pts}]"


def make_plmap(points: Iterable[tuple]) -> PLMap:
    """The map through a breakpoint list of int, ``Fraction`` or rational
    literal coordinates.  The list is checked against the map invariants as
    given, so one that backtracks along a line is refused, and then
    normalized (both by :func:`_normalized`)."""
    den, keys = _int_keys([_as_rational(v) for x, y in points for v in (x, y)])
    return _normalized(den, keys[0::2], keys[1::2])


def _normalized(den: int, xk: Sequence[int], yk: Sequence[int]) -> PLMap:
    """The map through the breakpoints with keys ``(den, xk, yk)``, which it
    checks against the map invariants as given, the one check of keys: a
    list that backtracks along a line or repeats an x key is refused.  Then
    the interior points where the slope does not change are dropped, since
    each maximal run of them lies on one line with the two points around
    it, and the keys are divided by their gcd with ``den``."""
    _check_keys(den, xk, yk)
    keep = [0, *(i for i in range(1, len(xk) - 1) if (yk[i] - yk[i - 1]) * (xk[i + 1] - xk[i])
                 != (yk[i + 1] - yk[i]) * (xk[i] - xk[i - 1])), len(xk) - 1]
    g = gcd(den, *(xk[i] for i in keep), *(yk[i] for i in keep))
    return PLMap._of_keys(den // g, [xk[i] // g for i in keep], [yk[i] // g for i in keep])


def _joined(den: int, xk: list[int], yk: list[int], seam: int) -> PLMap:
    """The map through the breakpoints with keys ``(den, xk, yk)`` made of
    normalized pieces that meet at index ``seam``, as :func:`_normalized`
    gives it.  Every other interior point keeps the two neighbours it had
    in its piece, so its slope changes there; only the seam point can be
    collinear, and dropping it leaves the slope test of its neighbours as
    it was.  So one slope test and the keys' gcd with ``den`` replace the
    rescan, and the pieces' checked invariants carry over unchecked."""
    if 0 < seam < len(xk) - 1 and (yk[seam] - yk[seam - 1]) * (xk[seam + 1] - xk[seam]) == (
        yk[seam + 1] - yk[seam]
    ) * (xk[seam] - xk[seam - 1]):
        del xk[seam], yk[seam]
    g = gcd(den, *xk, *yk)
    if g != 1:
        xk, yk = [x // g for x in xk], [y // g for y in yk]
    return PLMap._of_keys(den // g, xk, yk)


def _check_keys(den: int, xk: Sequence[int], yk: Sequence[int]) -> None:
    """The map invariants, except normalization, on a breakpoint list's
    keys.  One loop over the neighbouring breakpoints names the first pair
    out of order or on one level."""
    at = lambda k: Fraction(k, den)
    if len(xk) < 2:
        raise ValueError("a piecewise-linear map needs at least two breakpoints")
    if xk[0] != 0:
        raise ValueError(f"first breakpoint must have x=0, got x={at(xk[0])}")
    if xk[-1] != den:
        raise ValueError(f"last breakpoint must have x=1, got x={at(xk[-1])}")
    for i in range(len(xk) - 1):
        if xk[i + 1] <= xk[i]:
            raise ValueError(f"breakpoint x-coordinates must increase: {at(xk[i])} then {at(xk[i + 1])}")
        if yk[i + 1] == yk[i]:
            raise ValueError(f"constant segment at level {at(yk[i])}: maps must be piecewise strictly monotone")
    if min(yk) < 0 or max(yk) > den:
        i = next(i for i, y in enumerate(yk) if not 0 <= y <= den)
        raise ValueError(f"value {at(yk[i])} at x={at(xk[i])} lies outside [0, 1]")


def _int_keys(values: Collection[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(den, keys)``: the least common denominator of ``values`` and each
    value times it, as ints.  The keys compare exactly as the values do.
    The one conversion of ``Fraction`` values to keys, for the points that
    :func:`make_plmap` is given."""
    den = lcm(*{v.denominator for v in values})
    return den, tuple([v.numerator * (den // v.denominator) for v in values])


def _interpolate(xk: Sequence[int], yk: Sequence[int], i: int, n: int, d: int, den: int) -> tuple[int, int]:
    """The value at the x key n/d on segment i of the keys ``xk``, ``yk``
    of one map, whose common denominator is ``den``, as a numerator and a
    positive denominator."""
    dx = xk[i + 1] - xk[i]
    return yk[i] * dx * d + (n - xk[i] * d) * (yk[i + 1] - yk[i]), den * dx * d


def _key_image(keys: tuple[int, Sequence[int], Sequence[int]], n: int, d: int) -> tuple[int, int]:
    """The value at the x key n/d of the map with keys ``(den, xk, yk)``,
    as its key: a reduced pair (m, e) meaning m/e over den, with e == 1 at
    a breakpoint."""
    _, xk, yk = keys
    i = bisect_right(xk, n // d) - 1
    if xk[i] * d == n:
        return yk[i], 1
    m, e = _interpolate(xk, yk, i, n, d, 1)  # the value times den
    g = gcd(m, e)
    return m // g, e // g


def _lap_ends(ys: Sequence[int]) -> tuple[int, ...]:
    """Breakpoint indices of the lap ends of the piecewise-linear function
    with breakpoint value keys ``ys`` and no flat segment: index 0, each
    turning point (a value above or below both neighbours) and the last
    index.  Lap k runs from the k-th of these to the next.  A turning point
    is where the segments on its two sides differ in direction, which one
    scan in C finds."""
    rises = list(map(lt, ys, islice(ys, 1, None)))  # segment i rises
    return (0, *compress(range(1, len(ys) - 1), map(ne, rises, islice(rises, 1, None))), len(ys) - 1)


def laps(f: PLMap) -> list[Lap]:
    """Maximal monotone intervals, alternating direction, covering [0, 1]:
    the lap table's ends made ``Fraction``s from their keys, without
    building ``xs``."""
    den, xk, _ = f._keys
    ends = [Fraction(xk[i], den) for i in f._ends]
    return list(map(Lap, ends, ends[1:]))


def _laps_around(xk: Sequence[int], yk: Sequence[int], n: int, d: int) -> list[tuple[int, int]]:
    """The laps of the piecewise-linear function with breakpoint keys
    ``xk``, ``yk`` and no flat segment whose closed interval holds the
    point with x key n/d (d > 0, inside [xk[0], xk[-1]]), as the breakpoint
    indices (p, q) of their ends, in increasing order: two at a turning
    point, one elsewhere.  The lap ends are those of :func:`_lap_ends`.
    One bisection finds the segment that holds the point (an int key is at
    most n/d exactly when it is at most its floor), and a walk on each side
    to the nearest turning point or end finds the lap, so the cost is
    O(log n + the lap's segments) and no lap table is built."""
    last = len(xk) - 1

    def end(j: int, step: int) -> int:
        while 0 < j < last and (yk[j - 1] < yk[j]) != (yk[j + 1] < yk[j]):
            j += step
        return j

    i = bisect_right(xk, n // d) - 1
    p, q = end(i, -1), end(i if xk[i] * d == n else i + 1, 1)
    if p < q:
        return [(p, q)]
    # the point is the turning point or end p
    return [(end(p - 1, -1), p)] * (p > 0) + [(p, end(p + 1, 1))] * (p < last)


def compose(outer: PLMap, inner: PLMap, budget: int | None = None) -> PLMap:
    """Exact breakpoint list of ``outer ∘ inner`` (inner applied first).

    Breakpoints of the result live at inner's breakpoints plus every
    preimage under inner of an outer breakpoint x-value; between two such
    consecutive points the composition is a single linear piece, so this
    candidate set is exhaustive.  One walk over inner's segments finds the
    outer breakpoints strictly inside each segment's y-range by bisection on
    outer's x keys and emits their preimages in x order.  The walk runs on
    both maps' integer keys (see :attr:`PLMap._keys`), rescaled to the lcm
    of the two common denominators, and describes the result's keys as
    runs: per inner segment, an affine image of a slice of outer's x keys
    and that slice of its y keys.  :func:`_least_keys` finds their least
    common denominator from the runs without building them and then writes
    each key in one pass, mostly as one product and one sum.  So a power
    f^(k+1) = f^k∘f costs one Python-level step per output key, and
    O(|inner|·log|outer| + |output|) integer operations on numbers as long
    as that lcm, and no ``Fraction``.  A map whose breakpoints have many
    unrelated denominators has a huge common denominator, and then every
    one of these operations is slow.  The result is normalized: each
    preimage is kept, since outer is normalized and inner is linear with
    nonzero slope around it, and inner's breakpoints are kept exactly
    where the composite's slope changes.  Its keys are least, and valid
    since both maps' are, so :meth:`PLMap._of_keys` builds it unchecked.

    The budget bounds the distinct candidate breakpoints before merging:
    inner's breakpoints plus the strictly interior preimages.  It is
    counted from the bisection indices before any key is built, so
    exceeding it raises :class:`BudgetExceededError` at once.
    """
    return PLMap._of_keys(*_compose_segments(outer, inner, 0, len(inner._keys[1]) - 1, budget))


def _compose_segments(
    outer: PLMap, inner: PLMap, lo: int, hi: int, budget: int | None = None
) -> tuple[int, list[int], list[int]]:
    """Keys ``(den, xk, yk)`` of the normalized breakpoint list of ``outer ∘
    inner`` restricted to [inner.xs[lo], inner.xs[hi]], that is, over
    inner's segments lo to hi - 1, at the least common denominator of its
    coordinates.  :func:`compose` is the whole range; the budget counts the
    candidates of the range in the same way."""
    limit = DEFAULT_BREAKPOINT_BUDGET if budget is None else budget
    oden, oxk, oyk = outer._keys
    iden, ixk, iyk = inner._keys
    den = lcm(oden, iden)
    oxk, oyk = _rescaled(oxk, den // oden), _rescaled(oyk, den // oden)
    ixk, iyk = _rescaled(ixk[lo:hi + 1], den // iden), _rescaled(iyk[lo:hi + 1], den // iden)
    # the outer breakpoints equal to iyk[k] are oxk[left[k]:right[k]]
    left = [bisect_left(oxk, y) for y in iyk]
    right = [j + (oxk[j] == y) for j, y in zip(left, iyk)]
    # a rising segment k meets the outer breakpoints right[k] to left[k+1] - 1
    # strictly inside its range, a falling one left[k] - 1 down to right[k+1]
    last = len(iyk) - 1
    count = last + 1 + sum(
        left[k + 1] - right[k] if iyk[k] < iyk[k + 1] else left[k] - right[k + 1] for k in range(last)
    )
    if count > limit:
        raise BudgetExceededError(f"composition needs more than {limit} breakpoints")

    # the composite's x and y coordinates in order, as runs (a, b, ws, d) of
    # the values (a + b·w)/d for w in ws
    xruns: list[tuple[int, int, Sequence[int], int]] = []
    yruns: list[tuple[int, int, Sequence[int], int]] = []

    def keep(k: int) -> None:
        """Emit inner's k-th breakpoint of the range and outer's value there."""
        xruns.append((0, 1, ixk[k:k + 1], den))
        j = left[k]
        if right[k] > j:
            yruns.append((0, 1, oyk[j:j + 1], den))
        else:
            n, d = _interpolate(oxk, oyk, j - 1, iyk[k], 1, den)
            yruns.append((0, 1, (n,), d))

    def slope(rise: int, run: int, s: int) -> tuple[int, int]:
        """The composite's slope as (rise, run) where inner rises ``rise``
        over ``run`` and outer runs on its segment s."""
        return rise * (oyk[s + 1] - oyk[s]), run * (oxk[s + 1] - oxk[s])

    keep(0)
    for k in range(last):
        x0, y0 = ixk[k], iyk[k]
        run, rise = ixk[k + 1] - x0, iyk[k + 1] - y0
        # the outer breakpoints a to b - 1 lie inside the segment, met in
        # increasing order when it rises; the composite runs on the outer
        # segments start and end at the segment's start and end
        if rise > 0:
            a, b, start, end = right[k], left[k + 1], right[k] - 1, left[k + 1] - 1
        else:
            a, b, start, end = right[k + 1], left[k], left[k] - 1, right[k + 1] - 1
        # inner's breakpoint k is kept when the composite's slope changes there
        u, v = slope(rise, run, start)
        if k and u * before[1] != before[0] * v:
            keep(k)
        if a < b:
            xs, ys = (oxk[a:b], oyk[a:b]) if rise > 0 else (oxk[a:b][::-1], oyk[a:b][::-1])
            # the preimage of the outer key w is (x0·rise + (w - y0)·run) / (den·rise),
            # taken with rise and run divided by their gcd to keep the numbers short
            h = gcd(run, rise) if rise > 0 else -gcd(run, rise)
            xruns.append(((x0 * rise - y0 * run) // h, run // h, xs, den * rise // h))
            yruns.append((0, 1, ys, den))
        before = slope(rise, run, end)
    keep(last)
    return _least_keys(xruns, yruns)


def _least_keys(*columns: list[tuple[int, int, Sequence[int], int]]) -> tuple:
    """``(den, keys, ...)`` for columns of rationals, each given as runs
    ``(a, b, ws, d)`` of the values (a + b·w)/d for w in ws, with d > 0:
    the least common denominator of every value, and each column's values
    times it, as ints, as :func:`_int_keys` gives them.

    Each run is reduced before it enters the lcm, which keeps the numbers
    short when the runs' denominators are unrelated.  With den the lcm of
    the runs so far, only t = d // gcd(d, den) is new, and the run raises
    den by t // gcd(t, its numerators) (:func:`_common_factor`, which does
    not build them); once d divides den, later runs over d skip the gcd.
    Then each key is made in one pass, in one of three ways.  When d
    divides the final den, a value's key is its numerator times m = den //
    d: one product and one sum a·m + b·m·w per key, or one product w·m for
    a run of plain numerators (a = 0, b = 1).  Otherwise q = d // gcd(d,
    den) divides every numerator of the run, and its keys take the two
    steps (a + b·w) // q · (den // gcd(d, den)).
    """
    den, covered = 1, set()  # the d that divide den, which only grows
    for column in columns:
        for a, b, ws, d in column:
            if d not in covered:
                t = d // gcd(d, den)
                if t == 1:
                    covered.add(d)
                else:
                    den *= t // _common_factor(t, a, b, ws)
    scale = {}
    for d in {d for column in columns for *_, d in column}:
        e = gcd(d, den)
        scale[d] = d // e, den // e
    out = []
    for column in columns:
        keys: list[int] = []
        for a, b, ws, d in column:
            q, m = scale[d]
            if q != 1:
                keys.extend([(a + b * w) // q * m for w in ws])
            elif a or b != 1:
                a, b = a * m, b * m
                keys.extend([a + b * w for w in ws])
            else:
                keys.extend([w * m for w in ws])
        out.append(keys)
    return (den, *out)


def _common_factor(t: int, a: int, b: int, ws: Sequence[int]) -> int:
    """gcd(t, a + b·w for w in ws), without building the values.

    With w0 = ws[0], g = gcd(t, a + b·w0) and u = gcd(g, b), it is
    gcd(g, b·(w - w0) for w in ws) = u·gcd(g/u, w - w0 for w in ws), since
    each prime divides one of g/u and b/u at most.  That last gcd q starts
    at g/u and only falls: one C scan finds the next w with w mod q != w0
    mod q, q becomes gcd(q, w - w0), and the scan goes on from there, so
    the run is read at most once and no more once q is 1."""
    w0 = ws[0]
    g = gcd(t, a + b * w0)
    u = gcd(g, b)
    q, i = g // u, 1
    while q != 1:
        r = w0 % q
        i = next(compress(range(i, len(ws)), map(ne, map(mod, islice(ws, i, None), repeat(q)), repeat(r))), 0)
        if not i:
            break
        q = gcd(q, ws[i] - w0)
        i += 1
    return u * q


def _rescaled(keys: Sequence[int], factor: int) -> Sequence[int]:
    return keys if factor == 1 else [v * factor for v in keys]


class IterateCache:
    """The iterates f, f^2, ... of one map, each composed once, on first
    use, under one breakpoint budget.  This is the only place where f is
    composed with one of its own powers: f^(k+1) = f^k∘f, so the large map
    is the outer one, and each of f's few segments takes a slice of its
    keys."""

    def __init__(self, f: PLMap, budget: int | None = None):
        self.base = f
        self.budget = budget
        self._powers = [f]  # f^(k+1) at index k

    def power(self, n: int) -> PLMap:
        if n < 1:
            raise ValueError("iteration count must be at least 1")
        while len(self._powers) < n:
            self._powers.append(compose(self._powers[-1], self.base, self.budget))
        return self._powers[n - 1]


def iterate(f: PLMap, n: int) -> PLMap:
    """Exact n-fold composition of f with itself, n >= 1."""
    return IterateCache(f).power(n)


def level_crossings(f: PLMap, c) -> list[Fraction]:
    """All solutions of f(x) = c for c = 0 or c = 1, sorted.  No segment is
    flat and every value lies in [0, 1], so these are the breakpoints whose
    value key is 0 or the common denominator.  Any other level is refused
    with :class:`ValueError`."""
    c = _as_rational(c)
    if c != ZERO and c != ONE:
        raise ValueError(f"level_crossings solves only at the levels 0 and 1, got {c}")
    den, xk, yk = f._keys
    level = den if c else 0
    return [Fraction(x, den) for x, y in zip(xk, yk) if y == level]


def is_onto(f: PLMap) -> bool:
    """True iff the range is all of [0, 1]: the least value key is 0 and
    the greatest is the common denominator."""
    den, _, yk = f._keys
    return min(yk) == 0 and max(yk) == den


# ---------------------------------------------------------------------------
# Map file format: one breakpoint per line, "x y" with canonical rational
# literals; blank lines and lines starting with '#' are ignored.
# ---------------------------------------------------------------------------

def loads_map(text: str) -> PLMap:
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x y', got {raw!r}")
        try:
            points.append((parse_rational(parts[0]), parse_rational(parts[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not points:
        raise ValueError("map file contains no breakpoints")
    return make_plmap(points)


def _key_text(n: int, m: int) -> str:
    """n/m, for m > 0, written as ``str(Fraction(n, m))`` writes it ("0",
    "1", "p/q") with one int gcd and no ``Fraction``.  A numerator or
    denominator past the interpreter's limit on int-string digits is
    refused with a :class:`ValueError` that gives its digit count."""
    g = gcd(n, m)
    n, m = n // g, m // g
    try:
        return str(n) if m == 1 else f"{n}/{m}"
    except ValueError:
        big = max(abs(n), m)
        digits = int((big.bit_length() - 1) * log10(2)) + 1  # the digits of the power of 2 below
        digits += big >= 10**digits
        raise ValueError(
            f"output number too long: a numerator or denominator of {digits} digits, "
            f"past the limit of {sys.get_int_max_str_digits()} digits"
        ) from None


def dumps_map(f: PLMap) -> str:
    """The map-file text of f: one breakpoint per line, each coordinate
    written from its key by :func:`_key_text`, once per x key and once per
    distinct value key."""
    den, xk, yk = f._keys
    ytext = {k: _key_text(k, den) for k in set(yk)}
    return "".join(f"{_key_text(x, den)} {ytext[y]}\n" for x, y in zip(xk, yk))


def load_map(path) -> PLMap:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_map(fh.read())
