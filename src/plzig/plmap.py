"""Exact piecewise-linear self-maps of [0, 1] with rational breakpoints.

Scalars are arbitrary-precision rationals and every operation (evaluation,
composition, iteration, the solutions at 0 and 1) works directly on
breakpoint lists, held as integer keys over their least common denominator.
There is no floating-point path anywhere in this module, so map equality is
decidable and composition identities can be checked exactly.
"""

from __future__ import annotations

import logging
import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from itertools import islice
from operator import lt, ne
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
    "critical_set",
    "laps",
    "level_crossings",
    "is_onto",
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


class PLMap:
    """A piecewise-linear map of [0, 1] to itself.

    A map is its integer keys (:attr:`_keys`): ``(den, xk, yk)``, the least
    common denominator of all breakpoint coordinates and the coordinates
    times it, as int tuples, with x strictly increasing from 0 to 1, all y
    in [0, 1], no zero-slope segment and a slope change at every interior
    breakpoint.  Every map is built by :meth:`_of_keys`, which validates
    the keys: :func:`make_plmap` and the fold splits of
    :mod:`plzig.factorize` through the one normalizer, and
    :func:`compose` directly, because its keys are already normalized.  So
    a function has one representation, and two maps are equal, and hash
    alike, exactly when they are the same function.  ``xs``, ``ys`` and
    ``points`` are ``Fraction``s made from the keys on first read, once per
    map, and equal values of ``ys`` are one object.  Instances are
    immutable and safe to share between threads.

    Validation, normalization, evaluation, composition, the lap table, the
    lap lookup (:func:`_laps_at`, on the lap-left x keys), the branch
    :func:`plzig.dynamics.branch`, the witness search and the zigzag
    verdict and locus of :mod:`plzig.zigzag`, the solutions of f = 0 and
    f = 1 (:func:`level_crossings`), the fold search
    :func:`plzig.factorize.find_beta`, the window of
    :func:`plzig.zigzag.composite_verdict`, the covering test
    :func:`plzig.dynamics.uniformly_onto`, :func:`is_onto`, the critical
    orbits (:func:`plzig.dynamics.post_critical_orbits`), the primitivity
    test :func:`plzig.dynamics.is_primitive` and the map-file writer
    :func:`dumps_map` all read the keys, and each has no second
    implementation on the ``Fraction`` coordinates.  So certifying reads
    the block map, s and t without making their ``Fraction`` points.
    """

    _keys: tuple[int, tuple[int, ...], tuple[int, ...]]

    @classmethod
    def _of_keys(cls, den: int, xk: Sequence[int], yk: Sequence[int]) -> PLMap:
        """The map with keys ``(den, xk, yk)``, which must be normalized and
        at their least common denominator."""
        _check_keys(den, xk, yk)
        f = object.__new__(cls)
        f.__dict__["_keys"] = (den, tuple(xk), tuple(yk))
        return f

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, PLMap):
            return NotImplemented
        return self._keys == other._keys

    def __hash__(self) -> int:
        return hash(self._keys)

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

    @cached_property
    def _laps(self) -> tuple[Lap, ...]:
        xs, ends = self.xs, self._ends
        return tuple(Lap(xs[p], xs[q]) for p, q in zip(ends, ends[1:]))

    @cached_property
    def _lap_lefts(self) -> tuple[int, ...]:
        """The x keys of the laps' left ends."""
        xk = self._keys[1]
        return tuple(xk[p] for p in self._ends[:-1])

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
    """The map through the breakpoints with keys ``(den, xk, yk)``.  The
    keys are checked against the map invariants as given, so a list that
    backtracks along a line or repeats an x key (a zero-length segment) is
    refused.  Then the interior points where the slope does not change are
    dropped (with a debug log note), since each maximal run of them lies on
    one line with the two points around it, and the keys are divided by
    their gcd with ``den``."""
    _check_keys(den, xk, yk)
    keep = [0, *(i for i in range(1, len(xk) - 1) if (yk[i] - yk[i - 1]) * (xk[i + 1] - xk[i])
                 != (yk[i + 1] - yk[i]) * (xk[i] - xk[i - 1])), len(xk) - 1]
    if len(keep) < len(xk):
        log.debug("merged %d collinear interior breakpoint(s)", len(xk) - len(keep))
    g = gcd(den, *(xk[i] for i in keep), *(yk[i] for i in keep))
    return PLMap._of_keys(den // g, [xk[i] // g for i in keep], [yk[i] // g for i in keep])


def _check_keys(den: int, xk: Sequence[int], yk: Sequence[int]) -> None:
    """The map invariants, except normalization, on a breakpoint list's keys."""
    at = lambda k: Fraction(k, den)
    if len(xk) < 2:
        raise ValueError("a piecewise-linear map needs at least two breakpoints")
    if xk[0] != 0:
        raise ValueError(f"first breakpoint must have x=0, got x={at(xk[0])}")
    if xk[-1] != den:
        raise ValueError(f"last breakpoint must have x=1, got x={at(xk[-1])}")
    if not (all(map(lt, xk, islice(xk, 1, None))) and all(map(ne, yk, islice(yk, 1, None)))):
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
    The one conversion to keys, for maps, Markov partitions and primitivity."""
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
    index.  Lap k runs from the k-th of these to the next."""
    turns = [i for i in range(1, len(ys) - 1) if (ys[i - 1] < ys[i]) == (ys[i + 1] < ys[i])]
    return (0, *turns, len(ys) - 1)


def laps(f: PLMap) -> list[Lap]:
    """Maximal monotone intervals, alternating direction, covering [0, 1]."""
    return list(f._laps)


def _laps_at(f: PLMap, y: Fraction) -> list[int]:
    """Indices, in increasing order, of the laps of f whose closed interval
    holds y: two at a critical point, one elsewhere in [0, 1], none outside.
    One bisection of the lap-left x keys."""
    if not (ZERO <= y <= ONE):
        return []
    return _laps_holding(f._lap_lefts, y.numerator * f._keys[0], y.denominator)


def _laps_holding(lefts: Sequence[int], n: int, d: int) -> list[int]:
    """Indices of the laps, given by the int keys of their left ends, whose
    closed interval holds the point with key n/d (d > 0), for a point inside
    the span of the laps.  An int key is at most n/d exactly when it is at
    most its floor."""
    k = bisect_right(lefts, n // d) - 1
    return [k - 1, k] if k > 0 and lefts[k] * d == n else [k]


def critical_set(f: PLMap) -> list[Fraction]:
    """Turning points: the interior points where monotonicity flips."""
    xs = f.xs
    return [xs[p] for p in f._ends[1:-1]]


def compose(outer: PLMap, inner: PLMap, budget: int | None = None) -> PLMap:
    """Exact breakpoint list of ``outer ∘ inner`` (inner applied first).

    Breakpoints of the result live at inner's breakpoints plus every
    preimage under inner of an outer breakpoint x-value; between two such
    consecutive points the composition is a single linear piece, so this
    candidate set is exhaustive.  One walk over inner's segments finds the
    outer breakpoints strictly inside each segment's y-range by bisection on
    outer's x keys and emits their preimages in x order.  The walk runs on
    both maps' integer keys (see :attr:`PLMap._keys`), rescaled to the lcm
    of the two common denominators, and emits the result's keys: an
    affine image of a slice of outer's x keys and that slice of its y keys
    per inner segment, so O(|inner|·log|outer| + |output|) integer
    operations on numbers as long as that lcm, and no ``Fraction``.  A map
    whose breakpoints have many unrelated denominators has a huge common
    denominator, and then every one of these operations is slow.  The
    result is normalized: each preimage is kept, since outer is normalized
    and inner is linear with nonzero slope around it, and inner's
    breakpoints are kept exactly where the composite's slope changes.  Its
    keys are least, so it is built by :meth:`PLMap._of_keys` directly.

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

    # the composite's x and y coordinates in order, as runs of numerators
    # over one denominator each
    xruns: list[tuple[list[int], int]] = []
    yruns: list[tuple[list[int], int]] = []

    def keep(k: int) -> None:
        """Emit inner's k-th breakpoint of the range and outer's value there."""
        xruns.append(([ixk[k]], den))
        j = left[k]
        if right[k] > j:
            yruns.append(([oyk[j]], den))
        else:
            n, d = _interpolate(oxk, oyk, j - 1, iyk[k], 1, den)
            yruns.append(([n], d))

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
            c0, c1 = (x0 * rise - y0 * run) // h, run // h
            xruns.append(([c0 + c1 * w for w in xs], den * rise // h))
            yruns.append((ys, den))
        before = slope(rise, run, end)
    keep(last)
    return _least_keys(xruns, yruns)


def _least_keys(*columns: list[tuple[Sequence[int], int]]) -> tuple:
    """``(den, keys, ...)`` for columns of rationals, each given as runs of
    numerators over one positive denominator: the least common denominator
    of every value, and each column's values times it, as ints, as
    :func:`_int_keys` gives them.  The runs over one denominator d are
    reduced first, to d // gcd(d, their numerators), and the lcm is taken
    over those: reducing each run before the lcm keeps the numbers short
    when the runs' denominators are unrelated."""
    common: dict[int, int] = {}
    for column in columns:
        for nums, d in column:
            common[d] = gcd(common.get(d, d), *nums)
    den = lcm(*(d // g for d, g in common.items()))
    scale = {d: (g, den // (d // g)) for d, g in common.items()}
    out = []
    for column in columns:
        keys: list[int] = []
        for nums, d in column:
            g, c = scale[d]
            keys.extend(nums if g == c == 1 else [n // g * c for n in nums])
        out.append(keys)
    return (den, *out)


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
        points.append((parse_rational(parts[0]), parse_rational(parts[1])))
    if not points:
        raise ValueError("map file contains no breakpoints")
    return make_plmap(points)


def dumps_map(f: PLMap) -> str:
    """The map-file text of f: one breakpoint per line, each coordinate
    written from its key as ``str(Fraction)`` writes it ("0", "1", "p/q"),
    with one int gcd, once per x key and once per distinct value key."""
    den, xk, yk = f._keys

    def text(k: int) -> str:
        g = gcd(k, den)
        return str(k // g) if g == den else f"{k // g}/{den // g}"

    ytext = {k: text(k) for k in set(yk)}
    return "".join(f"{text(x)} {ytext[y]}\n" for x, y in zip(xk, yk))


def load_map(path) -> PLMap:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_map(fh.read())
