"""The zigzag predicate for piecewise-linear interval maps.

A point y is inside a zigzag of f when every interior lap [c_k, c_{k+1}]
containing y admits a bracketing pair a < c_k < c_{k+1} < b over which f
attains its minimum exclusively at one end and its maximum exclusively at
the other, oriented against the lap's direction.  Points meeting the first
or last lap are never inside a zigzag.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import ge, gt, le, lt
from typing import Callable, Optional, Sequence

from .plmap import (
    ONE,
    ZERO,
    PLMap,
    _as_rational,
    _compose_segments,
    _key_image,
    _laps_around,
)

__all__ = [
    "ZigzagVerdict",
    "is_in_zigzag",
    "composite_verdict",
    "zigzag_set",
]

Interval = tuple[Fraction, Fraction]
Pair = tuple[int, int]  # breakpoint indices


@dataclass(frozen=True)
class ZigzagVerdict:
    """Decision plus per-lap witness data for one query point.

    ``applicable_laps`` are the interior laps containing the point, each
    paired positionally with an entry of ``witnesses``.  ``in_zigzag`` is
    true exactly when there is at least one applicable lap and every one of
    them carries a witness; when the point touches the first or last lap no
    witness search runs (such laps can never be bracketed) and that lap is
    reported as ``failing_lap``.
    """

    in_zigzag: bool
    applicable_laps: tuple[Interval, ...]
    witnesses: tuple[Optional[Interval], ...]
    failing_lap: Optional[Interval]

    def to_dict(self) -> dict:
        enc = lambda iv: [str(iv[0]), str(iv[1])]
        return {
            "in_zigzag": self.in_zigzag,
            "applicable_laps": [enc(l) for l in self.applicable_laps],
            "witnesses": [enc(w) if w is not None else None for w in self.witnesses],
            "failing_lap": enc(self.failing_lap) if self.failing_lap is not None else None,
        }


def _nearest(keys: Sequence[int], forward: bool, hit: Callable[[int, int], bool]) -> list[int]:
    """For each i, the nearest index j on one side of i (before it when
    ``forward``, after it otherwise) with ``hit(keys[j], keys[i])``; -1 or
    ``len(keys)`` when there is none.  One monotone-stack pass: an index
    popped by i can never answer a later query that i does not answer from
    nearer, since ``hit`` is one of the four order relations.
    :class:`_WitnessIndex` builds each list it reads once per map."""
    n = len(keys)
    out = [-1 if forward else n] * n
    stack: list[int] = []
    for i in range(n) if forward else range(n - 1, -1, -1):
        k = keys[i]
        while stack and not hit(keys[stack[-1]], k):
            stack.pop()
        if stack:
            out[i] = stack[-1]
        stack.append(i)
    return out


class _WitnessIndex:
    """Witness search for any number of laps of one map, each named by the
    breakpoint indices of its ends, on the integer keys of the breakpoint
    values (see :attr:`PLMap._keys`): the search only compares values, and
    it answers with breakpoint indices.

    A lap walks four nearest-value lists (:func:`_nearest`) over the keys,
    each built in O(n) on first use and kept for every later lap.  Its two
    backward lists are the other direction's two, swapped, so both
    directions together build six, and never a negated copy of the keys.
    """

    def __init__(self, keys: Sequence[int]) -> None:
        self.keys = keys
        self._lists: dict = {}  # (forward, hit) -> its _nearest list
        self._walks: dict = {}  # falling -> the four lists its laps walk

    def _walk(self, falling: bool) -> list[list[int]]:
        """``prev_low``, ``prev_high``, ``next_high`` and ``next_low`` of
        the falling laps, or of the rising ones, built on first use."""
        below, above, dip = (lt, gt, le) if falling else (gt, lt, ge)
        walk = self._walks[falling] = []
        for key in ((True, below), (True, above), (False, above), (False, dip)):
            if key not in self._lists:
                self._lists[key] = _nearest(self.keys, *key)
            walk.append(self._lists[key])
        return walk

    def witness(self, p: int, q: int) -> Optional[Pair]:
        """Witness for the interior lap from breakpoint p to breakpoint q,
        as the breakpoint indices of its ends.

        Say the lap falls.  A rising lap is the falling search on the
        negated keys, on which ``lt`` reads as ``gt``, ``le`` as ``ge`` and
        ``gt`` as ``lt``, so :meth:`_walk` picks its lists with the three
        relations read in the lap's direction.  A pair of breakpoints
        (a, j) with a < p and j > q works when f is strictly lower at a
        than at every later breakpoint up to j and strictly higher at j
        than at every earlier one from a on.  Restricting candidates to
        breakpoints is lossless: an interior a can always be slid to its
        segment's left end without breaking either attainment condition.

        * ``prev_low[i]``: previous index with key < key[i].  Followed from
          q it visits exactly the usable a's, the breakpoints left of the
          lap whose value is below every later value up to q, nearest first.
        * ``prev_high[i]``: previous index with key > key[i]; its chain from
          p passes through the rightmost argmax m of every window [a, p].
        * ``next_high[i]``: next index with key > key[i].  The lap falls
          from p, so f(m) is the highest value up to the lap's end and
          j = ``next_high[m]`` is the first index past the lap that clears
          it: the nearest usable b for this a.
        * ``next_low[i]``: next index with key <= key[i].  The pair fails
          only if f dips to f(a) or below before j, that is when
          ``next_low[a] <= j``.

        No j means no b clears the peak of this a or of any farther one,
        whose peaks are no lower.  The first a that succeeds gives the pair
        nearest the lap, the same pair the two-pointer sweep over both
        record lists finds.  a and m only move left, so a query costs
        O(length of the two chains it walks).
        """
        keys = self.keys
        falling = keys[p] > keys[q]
        prev_low, prev_high, next_high, next_low = self._walks.get(falling) or self._walk(falling)
        n = len(keys)
        a = prev_low[q]
        m = p
        while a >= 0:
            while prev_high[m] >= a:
                m = prev_high[m]
            j = next_high[m]
            if j == n:
                return None
            if j < next_low[a]:
                return (a, j)
            a = prev_low[a]
        return None


def _witness_table(f: PLMap) -> list[Optional[Pair]]:
    """The witness of every lap of f, as breakpoint indices, or None;
    boundary laps never have one."""
    index = _WitnessIndex(f._keys[2])
    ends = f._ends
    last = len(ends) - 2
    return [
        None if k == 0 or k == last else index.witness(p, q)
        for k, (p, q) in enumerate(zip(ends, ends[1:]))
    ]


def is_in_zigzag(f: PLMap, y) -> ZigzagVerdict:
    """Decide whether y lies inside a zigzag of f, with witnesses."""
    y = _as_rational(y)
    if not (ZERO <= y <= ONE):
        raise ValueError(f"query point {y} outside [0, 1]")
    den, xk, yk = f._keys
    return _verdict(den, xk, yk, y.numerator * den, y.denominator)


def composite_verdict(outer: PLMap, inner: PLMap, y) -> ZigzagVerdict:
    """``is_in_zigzag(compose(outer, inner), y)``, without composing all of it.

    Write g for the composite.  Inside a witness (a, b) g stays strictly
    between its end values, so no point of (a, b) has g in {0, 1}; those
    points are turning points of g or ends of [0, 1].  The laps holding y
    and every usable a and b therefore lie in the window from the nearest
    such point left of y (or 0) to the nearest one right of y (or 1), and
    the witness search on the window's breakpoints finds what it finds on
    all of g: its chains agree wherever they stay inside the window, and a
    chain that leaves it ends the search with no witness on both.

    g(x) is 0 or 1 exactly where inner(x) solves outer = 0 or outer = 1.
    So the window is found on inner alone, walking its segments outward
    from y with one bisection each, and only the segments it spans are
    composed, under the default breakpoint budget.  The verdict is
    decided in g's own coordinates by the same :func:`_verdict` as
    :func:`is_in_zigzag`, on the window's keys: it finds the laps around y
    there with no lap table, and the window's first or last lap is a
    boundary lap only when it reaches x = 0 or x = 1.

    Everything runs on integer keys: the stops are outer's x keys where its
    value key is 0 or its denominator, and the walk bisects inner's x keys
    and compares its value keys, both scaled to the lcm of the two
    denominators.  Only the verdict's laps and witnesses become
    ``Fraction``s.
    """
    y = _as_rational(y)
    if not (ZERO <= y <= ONE):
        raise ValueError(f"query point {y} outside [0, 1]")
    oden, oxk, oyk = outer._keys
    iden, ixk, iyk = inner._keys
    common = lcm(oden, iden)
    ko, ki = common // oden, common // iden
    # the values of inner at which g is 0 or 1, as keys over common
    stops = [x * ko for x, v in zip(oxk, oyk) if v == 0 or v == oden]

    def reaches(n: int, d: int, far: int) -> bool:
        """Some stop lies past the key n/d (excluded, d > 0) up to the key
        far (included).  An int stop is above n/d exactly when it is above
        its floor, and below it exactly when it is below its ceiling."""
        if n < far * d:
            k = bisect_right(stops, n // d)
            return k < len(stops) and stops[k] <= far
        k = bisect_left(stops, -(-n // d)) - 1
        return k >= 0 and stops[k] >= far

    yn, yd = y.numerator * iden, y.denominator
    last = len(ixk) - 1
    m, e = _key_image(inner._keys, yn, yd)  # inner(y) is m/e over iden
    hi = min(bisect_right(ixk, yn // yd), last)  # first breakpoint right of y
    near = (m * ki, e)
    while hi < last and not reaches(*near, iyk[hi] * ki):
        near, hi = (iyk[hi] * ki, 1), hi + 1
    lo = max(bisect_left(ixk, -(-yn // yd)) - 1, 0)  # last breakpoint left of y
    near = (m * ki, e)
    while lo > 0 and not reaches(*near, iyk[lo] * ki):
        near, lo = (iyk[lo] * ki, 1), lo - 1

    den, xk, yk = _compose_segments(outer, inner, lo, hi)
    # the window runs between the nearest breakpoints other than y where
    # g is 0 or 1; its value keys compare as g's values do, at any common
    # denominator, and _verdict makes x values only for what it reports
    yn, yd = y.numerator * den, y.denominator
    cuts = [i for i, v in enumerate(yk) if (v == 0 or v == den) and xk[i] * yd != yn]
    k = bisect_left(cuts, bisect_left(xk, -(-yn // yd)))
    a, b = cuts[k - 1] if k else 0, cuts[k] + 1 if k < len(cuts) else len(xk)
    return _verdict(den, xk[a:b], yk[a:b], yn, yd)


def _verdict(den: int, xk: Sequence[int], keys: Sequence[int], n: int, d: int) -> ZigzagVerdict:
    """The verdict at the point with x key n/d from the breakpoints of the
    map around it: their x keys over ``den`` and the integer keys of their
    values.  The laps holding the point are the ones :func:`_laps_around`
    finds in those keys, as the breakpoint indices of their ends.  A lap is
    a boundary lap, which never has a witness, exactly when it reaches
    x = 0 or x = 1: on a whole map, when it starts at the first breakpoint
    or ends at the last; on a window, only when the window reaches 0 or 1
    there.  Only the laps and witnesses it reports become ``Fraction``s."""
    holding = _laps_around(xk, keys, n, d)
    boundary = lambda p, q: xk[p] == 0 or xk[q] == den
    pair = lambda i, j: (Fraction(xk[i], den), Fraction(xk[j], den))
    applicable = tuple(pair(*lap) for lap in holding if not boundary(*lap))
    edge = next((lap for lap in holding if boundary(*lap)), None)
    if edge is not None:
        return ZigzagVerdict(
            in_zigzag=False,
            applicable_laps=applicable,
            witnesses=(None,) * len(applicable),
            failing_lap=pair(*edge),
        )
    index = _WitnessIndex(keys)
    witnesses: list[Optional[Interval]] = []
    failing: Optional[Interval] = None
    for p, q in holding:
        w = index.witness(p, q)
        witnesses.append(None if w is None else pair(*w))
        if w is None and failing is None:
            failing = pair(p, q)
    return ZigzagVerdict(
        in_zigzag=failing is None and bool(witnesses),
        applicable_laps=applicable,
        witnesses=tuple(witnesses),
        failing_lap=failing,
    )


def zigzag_set(f: PLMap) -> tuple[Interval, ...]:
    """The exact zigzag locus as a union of disjoint open intervals, the
    runs of :func:`_zigzag_runs`.  Only the ends of the runs become
    ``Fraction``s."""
    den = f._keys[0]
    return tuple([(Fraction(a, den), Fraction(b, den)) for a, b in _zigzag_runs(f)])


def _zigzag_runs(f: PLMap) -> list[tuple[int, int]]:
    """The x keys of the ends of the zigzag locus's intervals, in order.

    The verdict is constant on open lap interiors and false at any endpoint
    shared with a witness-less lap (the outermost laps never have a
    witness), so the locus is the union over maximal runs of witnessed laps
    of the open interval they span."""
    xk = f._keys[1]
    ends = f._ends
    out: list[tuple[int, int]] = []
    start: Optional[int] = None
    for k, w in enumerate(_witness_table(f)):
        if w is not None:
            if start is None:
                start = xk[ends[k]]
        elif start is not None:
            out.append((start, xk[ends[k]]))
            start = None
    return out
