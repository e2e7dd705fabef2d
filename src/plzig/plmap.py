"""Exact piecewise-linear self-maps of [0, 1] with rational breakpoints.

Scalars are arbitrary-precision rationals and every operation (evaluation,
composition, iteration, level solving) works directly on breakpoint lists.
There is no floating-point path anywhere in this module, so map equality is
decidable and composition identities can be checked exactly.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from itertools import chain, islice
from operator import attrgetter, lt, mul, ne
from typing import Iterable, NamedTuple, Sequence

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
    "critical_set",
    "laps",
    "level_crossings",
    "is_onto",
    "image_interval",
    "loads_map",
    "dumps_map",
    "load_map",
]

log = logging.getLogger(__name__)

ZERO = Fraction(0)
ONE = Fraction(1)

# Iteration makes breakpoint counts grow geometrically (the five-lap Minc map
# gains a factor of ~5 per composition), so operations that build new maps
# refuse to cross this bound instead of silently grinding away.
DEFAULT_BREAKPOINT_BUDGET = 10**6


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


class BudgetExceededError(RuntimeError):
    """An operation would exceed its breakpoint or step budget."""


# what str(Fraction) writes, with any nonzero denominator
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational literal, ``p/q`` or an integer, either with
    an optional ``-``.  Fraction's own grammar also reads exponents, so a
    short text such as ``1e-10000000`` would take seconds to build."""
    if not _RATIONAL.fullmatch(text.strip()):
        raise ValueError(f"malformed rational literal {text!r}")
    return Fraction(text.strip())


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


@dataclass(frozen=True)
class PLMap:
    """A piecewise-linear map of [0, 1] to itself.

    ``points`` is the breakpoint list: int or ``Fraction`` coordinates, x
    strictly increasing from 0 to 1, all y in [0, 1] and no zero-slope
    segment.  Three consecutive points may be collinear; :func:`make_plmap`
    merges such points, and :func:`compose` never emits them, so the maps
    both build are normalized (every interior breakpoint is a genuine slope
    change).  Instances are immutable and safe to share between threads.

    Validation, the collinearity test (:attr:`_straight`, which
    :func:`make_plmap` drops), evaluation, composition, the lap table, the
    witness search, the solutions of f = 0 and f = 1 (:attr:`_extremes`),
    the covering test :func:`plzig.dynamics.uniformly_onto` and
    :func:`is_onto` all read the integer keys (:attr:`_keys`), and each
    has no second implementation on the ``Fraction`` coordinates.
    :func:`level_crossings` at a level other than 0 or 1 solves on the
    ``Fraction`` coordinates.
    """

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) < 2:
            raise ValueError("a piecewise-linear map needs at least two breakpoints")
        den, xk, yk = self._keys
        if xk[0] != 0:
            raise ValueError(f"first breakpoint must have x=0, got x={pts[0][0]}")
        if xk[-1] != den:
            raise ValueError(f"last breakpoint must have x=1, got x={pts[-1][0]}")
        if not (all(map(lt, xk, islice(xk, 1, None))) and all(map(ne, yk, islice(yk, 1, None)))):
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                if x1 <= x0:
                    raise ValueError(f"breakpoint x-coordinates must increase: {x0} then {x1}")
                if y1 == y0:
                    raise ValueError(f"constant segment at level {y0}: maps must be piecewise strictly monotone")
        if min(yk) < 0 or max(yk) > den:
            x, y = next(p for p in pts if not (ZERO <= p[1] <= ONE))
            raise ValueError(f"value {y} at x={x} lies outside [0, 1]")

    @cached_property
    def _keys(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """``(den, xs, ys)``: the least common denominator of all
        coordinates and the coordinates times it, as ints.  Keys of one map
        compare and interpolate exactly as its coordinates do."""
        coords = tuple(chain.from_iterable(self.points))
        for kind in dict.fromkeys(map(type, coords)):
            if not issubclass(kind, (int, Fraction)):
                raise TypeError(f"expected a rational value, got {kind.__name__}")
        den, keys = _int_keys(coords)
        return den, keys[0::2], keys[1::2]

    @cached_property
    def _straight(self) -> frozenset[int]:
        """Indices of the interior breakpoints where the slope does not
        change; empty on a normalized map."""
        _, xk, yk = self._keys
        return frozenset(
            i for i in range(1, len(xk) - 1)
            if (yk[i] - yk[i - 1]) * (xk[i + 1] - xk[i]) == (yk[i + 1] - yk[i]) * (xk[i] - xk[i - 1])
        )

    @cached_property
    def xs(self) -> tuple[Fraction, ...]:
        return tuple(p[0] for p in self.points)

    @cached_property
    def ys(self) -> tuple[Fraction, ...]:
        return tuple(p[1] for p in self.points)

    @cached_property
    def _ends(self) -> tuple[int, ...]:
        """The lap table: breakpoint indices of the lap ends."""
        return _lap_ends(self._keys[2])

    @cached_property
    def _laps(self) -> tuple[Lap, ...]:
        xs, ends = self.xs, self._ends
        return tuple(Lap(xs[p], xs[q]) for p, q in zip(ends, ends[1:]))

    @cached_property
    def _extremes(self) -> dict[Fraction, tuple[Fraction, ...]]:
        """The solutions of f(x) = 0 and of f(x) = 1.  No segment is flat
        and every value lies in [0, 1], so these are the breakpoints whose
        value key is 0 or the common denominator."""
        den, _, yk = self._keys
        return {v: tuple(p[0] for p, y in zip(self.points, yk) if y == k) for v, k in ((ZERO, 0), (ONE, den))}

    @cached_property
    def _lap_lefts(self) -> tuple[Fraction, ...]:
        return tuple(self.xs[p] for p in self._ends[:-1])

    def __call__(self, x) -> Fraction:
        """Exact evaluation by linear interpolation on the containing
        segment, found by bisecting the x keys: x = n/d has key n·den/d,
        and an int key is at most that exactly when it is at most its
        floor."""
        x = _as_rational(x)
        if not (ZERO <= x <= ONE):
            raise ValueError(f"argument {x} outside [0, 1]")
        den, xk, yk = self._keys
        n, d = x.numerator * den, x.denominator
        i = bisect_right(xk, n // d) - 1
        if xk[i] * d == n:
            return self.points[i][1]
        return _interpolate(xk, yk, i, n, d, den)

    def __repr__(self) -> str:  # keeps pytest diffs readable
        pts = ", ".join(f"({x},{y})" for x, y in self.points)
        return f"PLMap[{pts}]"


def make_plmap(points: Iterable[tuple]) -> PLMap:
    """Build a normalized map from a breakpoint list.

    The input must satisfy the map invariants.  Its interior points where
    the slope does not change are then dropped (with a debug log note): each
    maximal run of them lies on one line with the two points around it.
    """
    f = PLMap(tuple((_as_rational(x), _as_rational(y)) for x, y in points))
    if f._straight:
        log.debug("merged %d collinear interior breakpoint(s)", len(f._straight))
        f = PLMap(tuple(p for i, p in enumerate(f.points) if i not in f._straight))
    return f


def _int_keys(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(den, keys)``: the least common denominator of ``values`` and each
    value times it, as ints.  The keys compare exactly as the values do."""
    dens = set(map(_denominator, values))
    den = lcm(*dens)
    scale = {d: den // d for d in dens}.__getitem__
    return den, tuple(map(mul, map(_numerator, values), map(scale, map(_denominator, values))))


def _interpolate(xk: Sequence[int], yk: Sequence[int], i: int, n: int, d: int, den: int) -> Fraction:
    """The value at the x key n/d on segment i of the keys ``xk``, ``yk``
    of one map, whose common denominator is ``den``."""
    dx = xk[i + 1] - xk[i]
    return Fraction(yk[i] * dx * d + (n - xk[i] * d) * (yk[i + 1] - yk[i]), den * dx * d)


def _lap_ends(ys: Sequence[int]) -> tuple[int, ...]:
    """Breakpoint indices of the lap ends of the piecewise-linear function
    with breakpoint value keys ``ys`` and no flat segment: index 0, each
    turning point (a value above or below both neighbours) and the last
    index.  Lap k runs from the k-th of these to the next."""
    turns = [i for i in range(1, len(ys) - 1) if (ys[i - 1] < ys[i]) == (ys[i + 1] < ys[i])]
    return (0, *turns, len(ys) - 1)


def laps(f: PLMap) -> list[Lap]:
    """Maximal monotone intervals, alternating direction, covering [0, 1]."""
    return list(f._laps)


def _laps_at(f: PLMap, y: Fraction) -> list[int]:
    """Indices, in increasing order, of the laps of f whose closed interval
    holds y: two at a critical point, one elsewhere in [0, 1], none outside.
    One bisection of the lap boundaries."""
    if not (ZERO <= y <= ONE):
        return []
    return _laps_holding(f._lap_lefts, y)


def _laps_holding(lefts: Sequence[Fraction], y: Fraction) -> list[int]:
    """Indices of the laps, given by their left ends, whose closed interval
    holds y, for y inside the span of the laps."""
    k = bisect_right(lefts, y) - 1
    return [k - 1, k] if k > 0 and lefts[k] == y else [k]


def critical_set(f: PLMap) -> list[Fraction]:
    """Turning points: the interior points where monotonicity flips."""
    return list(f._lap_lefts[1:])


def compose(outer: PLMap, inner: PLMap, budget: int | None = None) -> PLMap:
    """Exact breakpoint list of ``outer ∘ inner`` (inner applied first).

    Breakpoints of the result live at inner's breakpoints plus every
    preimage under inner of an outer breakpoint x-value; between two such
    consecutive points the composition is a single linear piece, so this
    candidate set is exhaustive.  One walk over inner's segments finds the
    outer breakpoints strictly inside each segment's y-range by bisection on
    outer's x keys and emits their preimages in x order.  The walk runs on
    both maps' integer keys (see :attr:`PLMap._keys`), rescaled to the lcm
    of the two common denominators: O(|inner|·log|outer| + |output|)
    integer operations on numbers as long as that lcm, plus one
    ``Fraction`` per new coordinate.  A map whose breakpoints have many
    unrelated denominators has a huge common denominator, and then every
    one of these operations is slow.  The result is normalized: a candidate
    is kept exactly when the composite's slope changes there.

    The budget bounds the distinct candidate breakpoints before merging:
    inner's breakpoints plus the strictly interior preimages.  It is
    counted from the bisection indices before any point is built, so
    exceeding it raises :class:`BudgetExceededError` at once.
    """
    return PLMap(tuple(_compose_segments(outer, inner, 0, len(inner.xs) - 1, budget)))


def _compose_segments(
    outer: PLMap, inner: PLMap, lo: int, hi: int, budget: int | None = None
) -> list[tuple[Fraction, Fraction]]:
    """Normalized breakpoint list of ``outer ∘ inner`` restricted to
    [inner.xs[lo], inner.xs[hi]], that is, over inner's segments lo to
    hi - 1.  :func:`compose` is the whole range; the budget counts the
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

    oys, straight = outer.ys, outer._straight
    ixs = inner.xs[lo:hi + 1]

    def value(k: int) -> Fraction:
        """outer at inner's k-th breakpoint of the range."""
        j = left[k]
        if right[k] > j:
            return oys[j]
        return _interpolate(oxk, oyk, j - 1, iyk[k], 1, den)

    def slope(rise: int, run: int, s: int) -> tuple[int, int]:
        """The composite's slope as (rise, run) where inner rises ``rise``
        over ``run`` and outer runs on its segment s."""
        return rise * (oyk[s + 1] - oyk[s]), run * (oxk[s + 1] - oxk[s])

    out = [(ixs[0], value(0))]
    for k in range(last):
        x0, y0 = ixk[k], iyk[k]
        run, rise = ixk[k + 1] - x0, iyk[k + 1] - y0
        # the outer breakpoints met inside the segment, and the outer
        # segments the composite runs on at the segment's start and end
        if rise > 0:
            js, start, end = range(right[k], left[k + 1]), right[k] - 1, left[k + 1] - 1
        else:
            js, start, end = range(left[k] - 1, right[k + 1] - 1, -1), left[k] - 1, right[k + 1] - 1
        # inner's breakpoint k is kept when the composite's slope changes there
        a, b = slope(rise, run, start)
        if k and a * before[1] != before[0] * b:
            out.append((ixs[k], value(k)))
        out.extend((Fraction(x0 * rise + (oxk[j] - y0) * run, den * rise), oys[j])
                   for j in js if j not in straight)
        before = slope(rise, run, end)
    out.append((ixs[-1], value(last)))
    return out


def _rescaled(keys: Sequence[int], factor: int) -> Sequence[int]:
    return keys if factor == 1 else [v * factor for v in keys]


class IterateCache:
    """The iterates f, f^2, ... of one map, each composed once, on first
    use, under one breakpoint budget.  This is the only place where f is
    composed with one of its own powers: f^(k+1) = f∘f^k."""

    def __init__(self, f: PLMap, budget: int | None = None):
        self.base = f
        self.budget = budget
        self._powers = [f]  # f^(k+1) at index k

    def power(self, n: int) -> PLMap:
        if n < 1:
            raise ValueError("iteration count must be at least 1")
        while len(self._powers) < n:
            self._powers.append(compose(self.base, self._powers[-1], self.budget))
        return self._powers[n - 1]


def iterate(f: PLMap, n: int) -> PLMap:
    """Exact n-fold composition of f with itself, n >= 1."""
    return IterateCache(f).power(n)


def level_crossings(f: PLMap, c) -> list[Fraction]:
    """All solutions of f(x) = c, sorted.

    Constant segments cannot occur (the map invariants exclude zero slopes),
    so every solution is an isolated point.  The solutions at the levels 0
    and 1 are kept on the map.
    """
    c = _as_rational(c)
    if c == ZERO or c == ONE:
        return list(f._extremes[c])
    out: list[Fraction] = []
    for (x0, y0), (x1, y1) in zip(f.points, f.points[1:]):
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        if lo <= c <= hi:
            x = x0 + (c - y0) * (x1 - x0) / (y1 - y0)
            if not out or out[-1] != x:
                out.append(x)
    return out


def is_onto(f: PLMap) -> bool:
    """True iff the range is all of [0, 1]: the least value key is 0 and
    the greatest is the common denominator."""
    den, _, yk = f._keys
    return min(yk) == 0 and max(yk) == den


def image_interval(f: PLMap, lo, hi) -> tuple[Fraction, Fraction]:
    """Exact image f([lo, hi]) as a closed interval (min, max)."""
    lo = _as_rational(lo)
    hi = _as_rational(hi)
    if not (ZERO <= lo <= hi <= ONE):
        raise ValueError(f"[{lo}, {hi}] is not a subinterval of [0, 1]")
    vals = [f(lo), f(hi)]
    i = bisect_right(f.xs, lo)
    while i < len(f.xs) and f.xs[i] < hi:
        vals.append(f.ys[i])
        i += 1
    return min(vals), max(vals)


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
        points.append((parse_rational(parts[0]), parse_rational(parts[1])))
    if not points:
        raise ValueError("map file contains no breakpoints")
    return make_plmap(points)


def dumps_map(f: PLMap) -> str:
    lines = [f"{x} {y}" for x, y in f.points]
    return "\n".join(lines) + "\n"


def load_map(path) -> PLMap:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_map(fh.read())
