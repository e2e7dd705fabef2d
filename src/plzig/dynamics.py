"""Branch images, post-critical orbits, Markov/leo verification, and
branch stabilization along backward orbits.

Everything here is exact: orbits are rational sequences, branch images
have rational endpoints, and the leo decisions work on the runs of cells
that a Markov partition's cells cover, or on exact preimage spacing, rather
than on numerical iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from math import lcm
from operator import eq, lt, sub
from typing import NamedTuple, Optional, Sequence

from .plmap import (
    ONE,
    ZERO,
    BudgetExceededError,
    IterateCache,
    PLMap,
    _as_rational,
    _key_image,
    _laps_around,
    is_onto,
    parse_rational,
)

__all__ = [
    "OrbitEntry",
    "MapFacts",
    "BackwardOrbit",
    "OrbitValidationError",
    "StabilizationData",
    "branch",
    "post_critical_orbits",
    "map_facts",
    "markov_partition",
    "is_primitive",
    "is_leo",
    "uniformly_onto",
    "leo_uniform_N",
    "branch_stabilization",
    "validate_orbit",
    "parse_orbit",
    "load_orbit",
]

Interval = tuple[Fraction, Fraction]

DEFAULT_ORBIT_BUDGET = 10**4

# Slack bits of the orbit size bound, see _size_bound.
ORBIT_SIZE_SLACK = 64

# Powers f, f^2, ... tried by the leo semi-decision before it gives up.
LEO_FALLBACK_DEPTH = 32


class OrbitValidationError(ValueError):
    """A backward orbit is inconsistent with the map it claims to follow."""


# ---------------------------------------------------------------------------
# Branches
# ---------------------------------------------------------------------------

def branch(f: PLMap, y) -> Interval:
    """The branch image B(f, y) = f(J), where J is a maximal interval
    around y on which f is one-to-one.  Away from the turning points J is
    the one lap holding y.  At a turning point both laps' images have the
    turning value as one end, so one image holds the other, and B is the
    smaller one: their intersection, the largest lower end and the
    smallest upper end of the laps' end-value keys."""
    y = _as_rational(y)
    if not (ZERO <= y <= ONE):
        raise ValueError(f"point {y} outside [0, 1]")
    den, xk, yk = f._keys
    around = _laps_around(xk, yk, y.numerator * den, y.denominator)
    lows, highs = zip(*(sorted((yk[p], yk[q])) for p, q in around))
    return Fraction(max(lows), den), Fraction(min(highs), den)


# ---------------------------------------------------------------------------
# Post-critical orbits
# ---------------------------------------------------------------------------

class OrbitEntry(NamedTuple):
    point: Fraction
    orbit: tuple[Fraction, ...]
    preperiod: Optional[int]
    period: Optional[int]
    closed: bool


# An orbit value carried as its key, in the format :class:`MapFacts` states
Key = tuple[int, int]


def _size_bound(den: int) -> int:
    """Bit length past which an orbit value's key denominator ends its
    orbit as open.  Every post-critically finite map checked so far keeps
    its orbit keys on the grid (d == 1) or close to it, while a wandering
    orbit's denominators grow at every step, so the bound refuses such a
    map long before the step budget does."""
    return 2 * den.bit_length() + ORBIT_SIZE_SLACK


# A value on a closed orbit, by key: (that orbit's keys, the value's index, its repeat index)
Record = dict[Key, tuple[tuple[Key, ...], int, int]]

# A critical orbit as the walk leaves it: its keys and its repeat index, None when open
Walk = tuple[tuple[Key, ...], Optional[int]]


def post_critical_orbits(f: PLMap, budget: int = DEFAULT_ORBIT_BUDGET) -> tuple[OrbitEntry, ...]:
    """Forward orbit of 0, of every turning point and of 1, in that order,
    with the detected minimal preperiod/period, or an open flag past the
    budget: the walk of :func:`_orbit_table`, with one ``Fraction`` made for
    each distinct key and shared by every entry that holds it."""
    den = f._keys[0]
    walks = _orbit_table(f, budget)[0]
    values = {key: Fraction(key[0], key[1] * den) for key in {key for orbit, _ in walks for key in orbit}}
    entries = []
    for keys, k in walks:
        orbit = tuple(map(values.__getitem__, keys))
        closed = k is not None
        entries.append(OrbitEntry(orbit[0], orbit, k, len(orbit) - k if closed else None, closed))
    return tuple(entries)


def _orbit_table(f: PLMap, budget: int) -> tuple[tuple[Walk, ...], Record, dict[Key, Key]]:
    """The critical orbits of f as keys: for each start, its orbit as a
    tuple of keys and its repeat index (None when open), then the record of
    the values on closed orbits and the successor table, which holds the
    image key of every recorded value.

    The orbits run on f's integer keys, and they merge: on minc^5 the
    1,366 orbits hold 3,412 entries but 1,366 distinct values.  So each
    value on a closed orbit is recorded with that orbit and its index in
    it, and a walk stops at the first recorded value: the orbit is the
    walked head, then the recorded suffix from that value, rotated when it
    lies on the cycle, with the repeat index shifted by the head's length.
    Each value is stepped once.  The successor table starts with every
    breakpoint's image, read off the keys; only other values go through
    :func:`plzig.plmap._key_image`, once each.  An orbit longer than
    ``budget`` is open and keeps its first ``budget + 1`` values, as a walk
    of ``budget`` steps would; so is one whose next value's key denominator
    is longer than :func:`_size_bound` bits, cut before that value.  Open
    orbits are not recorded.  No ``Fraction`` is made here."""
    keys = f._keys
    den, xk, yk = keys
    limit = _size_bound(den)
    table: dict[Key, Key] = dict(zip(zip(xk, repeat(1)), zip(yk, repeat(1))))
    record: Record = {}
    walks: list[Walk] = []
    for start in zip(map(xk.__getitem__, f._ends), repeat(1)):
        head, k = [], None  # the walked keys
        rec = record.get(start)
        if rec is None:
            head, nxt = [start], table[start]
            rec = record.get(nxt)
            if rec is None:
                seen = {start: 0}
                while len(head) <= budget:
                    k = seen.get(nxt)
                    if k is not None or nxt[1].bit_length() > limit:
                        break
                    seen[nxt] = len(head)
                    head.append(nxt)
                    nxt = table.get(nxt)
                    if nxt is None:
                        nxt = table[head[-1]] = _key_image(keys, *head[-1])
                    rec = record.get(nxt)
                    if rec is not None:
                        break
        orbit = tuple(head)
        if rec is not None:  # the recorded suffix from the value, rotated on the cycle
            tail, i, j = rec
            if i <= j:
                orbit, k = orbit + tail[i:], j - i + len(orbit)
            else:
                orbit, k = orbit + tail[i:] + tail[j:i], len(orbit)
        if k is not None and len(orbit) > budget:
            orbit, k = orbit[:budget + 1], None
        if k is not None:
            for i, key in enumerate(head):
                record[key] = (orbit, i, k)
        walks.append((orbit, k))
    return tuple(walks), record, table


@dataclass(frozen=True)
class MapFacts:
    """The hypotheses of the embedding theorem for one map, all read from
    one :func:`map_facts` pass and kept as keys.  A key is a reduced pair
    (n, d) meaning n/(d·den) for the map's common denominator ``den``, so
    d == 1 on the key grid.  ``walks`` holds the critical orbits (of 0,
    each turning point and 1) as the walk of :func:`_orbit_table` leaves
    them: each orbit's tuple of keys and its repeat index, None when open.
    ``partition`` is the Markov partition's keys in increasing order (None
    when some orbit stays open) and ``leo`` the leo verdict.  The record
    makes no ``Fraction``: :func:`post_critical_orbits` and
    :func:`markov_partition` make the values."""

    den: int
    walks: tuple[Walk, ...]
    partition: Optional[tuple[Key, ...]]
    leo: Optional[bool]

    @property
    def post_critically_finite(self) -> Optional[bool]:
        return True if self.partition is not None else None


def map_facts(f: PLMap, orbit_budget: int = DEFAULT_ORBIT_BUDGET) -> MapFacts:
    """The one pass over the hypotheses: the critical orbits of f from a
    single walk, their Markov partition and the leo verdict read from it,
    as the keys of a :class:`MapFacts`.  :func:`is_leo`,
    :func:`markov_partition`, the stabilization and ``plzig analyze`` all
    take their answers from here.

    The Markov partition is the sorted union of the orbits of the
    endpoints and the turning points, or None when some orbit stayed open.
    Each closed orbit holds the image of each of its points, so the union
    is forward invariant.  When every orbit closed, the walk's record holds
    exactly the partition's keys, which sort on n·(L // d) for the least
    common multiple L of the d's, 1 on the key grid.  The successor table
    holds each point's image key, so primitivity reads each cell's image
    index from it and f is evaluated nowhere again."""
    walks, record, table = _orbit_table(f, orbit_budget)
    partition = images = None
    if all(k is not None for _, k in walks):
        L = lcm(*{d for _, d in record})
        partition = tuple(sorted(record, key=lambda k: k[0] * (L // k[1])))
        index = {k: i for i, k in enumerate(partition)}
        images = list(map(index.get, map(table.__getitem__, partition)))
    return MapFacts(f._keys[0], walks, partition, _leo(f, images))


def markov_partition(f: PLMap, budget: int = DEFAULT_ORBIT_BUDGET) -> list[Fraction]:
    """Smallest forward-invariant finite set containing the critical set and
    the endpoints: the orbit closure of those points, sorted, made from the
    partition keys of :func:`map_facts`; raises BudgetExceededError when
    some critical orbit stays open."""
    facts = map_facts(f, budget)
    if facts.partition is None:
        raise BudgetExceededError(
            "critical orbits did not close within the budget; "
            "no finite Markov partition is available"
        )
    return [Fraction(n, d * facts.den) for n, d in facts.partition]


def is_primitive(f: PLMap, partition: Sequence[Fraction]) -> bool:
    """Primitivity of the cell-covering matrix of a Markov partition: some
    iterate of f maps every cell onto [0, 1].

    The partition must contain all critical points (so f is monotone on each
    cell) and be forward invariant (so each image is a union of cells).  The
    decision is :func:`_primitive` on the partition index of each point's
    image; :func:`map_facts` reads those indexes off its orbit walk instead.

    Each point's image is ``f(p)``, looked up in a dict of the partition's
    points.  No pipeline or command calls this, so it keeps that plain
    evaluation and no keying of its own.
    """
    den, xk, _ = f._keys
    pts = [_as_rational(p) for p in partition]
    increasing = all(map(lt, pts, islice(pts, 1, None)))
    if not pts or not increasing or pts[0] != ZERO or pts[-1] != ONE:
        raise ValueError("partition must be a sorted point set spanning [0, 1]")
    index = {p: i for i, p in enumerate(pts)}
    if any(Fraction(xk[i], den) not in index for i in f._ends[1:-1]):
        raise ValueError("partition must contain every critical point")
    return _primitive([index.get(f(p)) for p in pts])


def _primitive(images: Sequence[Optional[int]]) -> bool:
    """Primitivity of the cell-covering matrix of a partition whose point u
    maps to point ``images[u]`` (None when the image is not a partition
    point), for a map that is monotone on each cell.

    Row u of every power A^k is then one run of cells, the cells of
    f^k(cell u), and row u of A^2k is the hull of the rows of A^k over
    that run: a range minimum of the run starts and a range maximum of the
    run ends, read from sparse tables.  No row is empty (f has no constant
    piece), so positivity persists once reached; it is checked at powers
    of two until one reaches the Wielandt bound n^2 - 2n + 2.  Before each
    squaring an O(n) test reads whether A^2k is positive at once: row u of
    A^2k is full exactly when rows lo[u]..hi[u] of A^k hold one that
    starts at cell 0 and one that ends at cell n - 1, which two prefix
    counts over the rows answer for every u.  The Markov partitions of
    minc^k need no squaring."""
    n = len(images) - 1
    lo, hi = [], []  # row u of A^k is the run of cells lo[u]..hi[u]
    for a, b in zip(images, images[1:]):
        if a is None or b is None:
            raise ValueError("partition is not forward invariant")
        lo.append(min(a, b))
        hi.append(max(a, b) - 1)

    exponent = 1
    while max(lo) > 0 or min(hi) < n - 1:
        if exponent >= n * n - 2 * n + 2:
            return False
        # prefix counts of the rows that start at cell 0 and that end at n - 1
        starts = list(accumulate((a == 0 for a in lo), initial=0))
        ends = list(accumulate((b == n - 1 for b in hi), initial=0))
        if all(starts[b + 1] > starts[a] and ends[b + 1] > ends[a] for a, b in zip(lo, hi)):
            return True
        lo, hi = _square_runs(lo, hi)
        exponent *= 2
    return True


def _square_runs(lo: list[int], hi: list[int]) -> tuple[list[int], list[int]]:
    """Runs of A^2k from the runs lo[u]..hi[u] of A^k: row u is the hull of
    rows lo[u]..hi[u], two range queries on sparse tables of the extrema,
    built up to the level that the longest run reads, O(n log n).
    :func:`_primitive` calls it only after its O(n) prefix-count test
    finds that A^2k is not positive."""
    top = max(b - a + 1 for a, b in zip(lo, hi)).bit_length() - 1
    mins, maxs = [lo], [hi]  # level j: extrema over 2^j consecutive rows
    span = 1
    while len(mins) <= top:
        m, x = mins[-1], maxs[-1]
        mins.append([min(m[i], m[i + span]) for i in range(len(m) - span)])
        maxs.append([max(x[i], x[i + span]) for i in range(len(x) - span)])
        span *= 2
    out_lo, out_hi = [], []
    for a, b in zip(lo, hi):
        j = (b - a + 1).bit_length() - 1
        c = b + 1 - (1 << j)
        out_lo.append(min(mins[j][a], mins[j][c]))
        out_hi.append(max(maxs[j][a], maxs[j][c]))
    return out_lo, out_hi


def _growth(f: PLMap) -> Fraction:
    """Worst-case one-step growth factor of an interval: the least slope
    magnitude, or u*v/(u+v) for the slope magnitudes u, v on either side of
    a turning point (an interval straddling it) when that is smaller.  A
    slope is its keys' rise over their run, since the common denominator
    cancels."""
    _, xk, yk = f._keys
    slopes = [Fraction(abs(y1 - y0), x1 - x0) for x0, x1, y0, y1 in zip(xk, xk[1:], yk, yk[1:])]
    folds = [slopes[i - 1] * slopes[i] / (slopes[i - 1] + slopes[i]) for i in f._ends[1:-1]]
    return min(slopes + folds)


def is_leo(f: PLMap, orbit_budget: int = DEFAULT_ORBIT_BUDGET) -> Optional[bool]:
    """Locally eventually onto: every subinterval eventually covers [0, 1].

    The ``leo`` field of the :class:`MapFacts` record that :func:`map_facts`
    returns.  A map that is not onto, or is monotone, is not leo.  When the
    map is verifiably post-critically finite this is decided through
    primitivity of the cell-covering matrix of its Markov partition.
    Otherwise a semi-decision runs: when every interval provably grows under
    iteration, covering is checked for one scale via exact preimage spacing;
    the result is None when neither route concludes.
    """
    return map_facts(f, orbit_budget).leo


def _leo(f: PLMap, images: Optional[Sequence[int]]) -> Optional[bool]:
    """:func:`map_facts`'s leo verdict from the image index of each point
    of the Markov partition it found, or from the semi-decision when there
    is none (None)."""
    if not is_onto(f):
        return False
    if len(f._ends) == 2:
        # a monotone onto map is a bijection; proper subintervals never cover
        return False
    if images is not None:
        return _primitive(images)

    if _growth(f) <= 1:
        return None
    den, _, yk = f._keys
    ends = f._ends
    if len(ends) < 4:  # no interior lap
        return True
    scale = Fraction(min(abs(yk[q] - yk[p]) for p, q in zip(ends[1:-2], ends[2:-1])), den)
    try:
        leo_uniform_N(f, scale, LEO_FALLBACK_DEPTH)
    except BudgetExceededError:
        return None
    return True


def uniformly_onto(f: PLMap, eps) -> bool:
    """The covering test at scale eps > 0: True iff f takes both values 0
    and 1, and neither the solutions of f = 0 nor those of f = 1 leave a
    gap wider than eps in [0, 1], the gaps from 0 to the first solution and
    from the last solution to 1 included.

    For eps <= 1 this is f(J) = [0, 1] for every subinterval J with
    diam(J) >= eps: J covers [0, 1] exactly when it meets a solution of
    each level, and every J of diameter eps meets each solution set exactly
    when that set has no wider gap.  Above 1 no such J exists, yet the test
    still returns False for a map that is not onto.

    The solutions are the breakpoints whose value key is 0 or den, the
    map's common denominator, and the gaps are measured on their x keys: a
    key gap g is wider than eps = n/d exactly when g * d > n * den, that
    is, when g > (n * den) // d.  Each level is one scan in C: ``compress``
    picks its solutions' x keys, and ``any`` over ``map(sub, ...)`` looks
    for a wider gap and stops at the first, so the test makes no
    Python-level step per breakpoint.  It caches nothing on f: it runs once
    on each block power the stabilization builds, where a cached table of
    solutions would only hold memory.
    """
    eps = _as_rational(eps)
    if eps <= 0:
        raise ValueError("scale must be positive")
    den, xk, yk = f._keys
    widest = eps.numerator * den // eps.denominator  # the widest key gap allowed
    for level in (0, den):
        pts = list(compress(xk, map(eq, yk, repeat(level))))
        if not pts or any(map(lt, repeat(widest), map(sub, chain(pts, (den,)), chain((0,), pts)))):
            return False
    return True


def leo_uniform_N(f: PLMap, eps, max_power: int = 64) -> int:
    """Least N with f^N(J) = [0, 1] for every J of diameter >= eps.

    Because f is onto, the property persists for every n >= N, so this is
    the uniform covering time at scale eps.  Found by iterating the exact
    composition and testing :func:`uniformly_onto` at each power (which
    rejects a scale that is not positive).
    """
    eps = _as_rational(eps)
    powers = IterateCache(f)
    for n in range(1, max_power + 1):
        if uniformly_onto(powers.power(n), eps):
            return n
    raise BudgetExceededError(
        f"no uniform covering time at scale {eps} within {max_power} powers"
    )


# ---------------------------------------------------------------------------
# Backward orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackwardOrbit:
    """Eventually periodic backward orbit: f(x_{i+1}) = x_i for all i.

    Stored as an explicit prefix plus a repeating block.  Determinism of
    forward application makes every valid backward orbit purely periodic,
    so the prefix is redundancy that validation simply has to confirm.
    """

    prefix: tuple[Fraction, ...]
    period_block: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.period_block:
            raise ValueError("period block must be nonempty")

    @staticmethod
    def constant(value) -> "BackwardOrbit":
        return BackwardOrbit((), (_as_rational(value),))

    @staticmethod
    def of(prefix, block) -> "BackwardOrbit":
        return BackwardOrbit(
            tuple(_as_rational(v) for v in prefix),
            tuple(_as_rational(v) for v in block),
        )

    def value_at(self, i: int) -> Fraction:
        if i < 0:
            raise IndexError("orbit indices start at 0")
        q = len(self.prefix)
        if i < q:
            return self.prefix[i]
        return self.period_block[(i - q) % len(self.period_block)]

    def minimal_period(self) -> int:
        block = self.period_block
        p = len(block)
        for d in range(1, p):
            if p % d == 0 and all(block[k] == block[k % d] for k in range(p)):
                return d
        return p


# values whose numerator or denominator is longer than this are named by
# their size in messages; str() refuses ints past 4,300 digits
_PRINT_BITS = 1000


def _show(v: Fraction) -> str:
    bits = max(abs(v.numerator), v.denominator).bit_length()
    return str(v) if bits <= _PRINT_BITS else f"a rational of {bits} bits"


def validate_orbit(f: PLMap, orbit: BackwardOrbit) -> None:
    """Check f(x_{i+1}) = x_i across the prefix, the seam, and the block
    wrap-around; raises OrbitValidationError on the first mismatch."""
    span = len(orbit.prefix) + len(orbit.period_block)
    for i in range(span):
        x = orbit.value_at(i + 1)
        if not (ZERO <= x <= ONE):
            raise OrbitValidationError(f"orbit entry {i + 1} = {_show(x)} lies outside [0, 1]")
        got, want = f(x), orbit.value_at(i)
        if got != want:
            raise OrbitValidationError(
                f"orbit entry {i + 1} maps to {_show(got)}, expected x_{i} = {_show(want)}"
            )


def parse_orbit(text: str) -> BackwardOrbit:
    """Parse ``prefix: q_0 q_1 ... ; period: r_0 r_1 ...``.  Whole lines
    that start with ``#`` are skipped; a ``#`` after a value is refused."""
    body = " ".join(line for line in text.splitlines() if not line.strip().startswith("#"))
    if ";" not in body:
        raise ValueError("orbit text must contain ';' between prefix and period parts")
    left, right = (part.strip() for part in body.split(";", 1))
    if not left.startswith("prefix:") or not right.startswith("period:"):
        raise ValueError("orbit text must look like 'prefix: ... ; period: ...'")
    prefix = [parse_rational(tok) for tok in left[len("prefix:"):].split()]
    block = [parse_rational(tok) for tok in right[len("period:"):].split()]
    return BackwardOrbit.of(prefix, block)


def load_orbit(path) -> BackwardOrbit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_orbit(fh.read())


# ---------------------------------------------------------------------------
# Branch stabilization
# ---------------------------------------------------------------------------

# Fixed search limits, so that a verifier re-deriving the stabilization finds
# what the producer found: for an orbit of period p, branch limits are probed
# to depth 4p + 12 and block lengths up to 64 periods are tried.
PROBE_PER_PERIOD = 4
PROBE_SLACK = 12
MAX_BLOCK_MULTIPLE = 64


@dataclass(frozen=True)
class StabilizationData:
    """The stabilized branch window [a, b] of one backward orbit and the
    orbit indices n_i = n0 + i·step that the stages track.

    ``side`` records which end of [a, b] carries the epsilon gap that the
    tracked values x_{n_i} avoid: ``left-gap`` keeps them out of
    [a, a + eps), ``right-gap`` out of (b - eps, b].  ``step`` is the
    block length, a multiple of the orbit's period, so every x_{n_i} is
    x_{n0}.
    """

    a: Fraction
    b: Fraction
    epsilon: Fraction
    side: str  # "left-gap" | "right-gap"
    n0: int
    step: int


def _stable_branch_limit(
    cache: IterateCache,
    orbit: BackwardOrbit,
    start: int,
    window: int,
    probe: int,
) -> Optional[Interval]:
    """Detect the nested-branch limit from index ``start``: the value of
    B(f^j, x_{start+j}) once it stays constant across ``window`` extra steps."""
    values: list[Interval] = []
    for j in range(1, probe + 1):
        fj = cache.power(j)
        values.append(branch(fj, orbit.value_at(start + j)))
        if len(values) >= window + 1:
            tail = values[-(window + 1):]
            if all(t == tail[0] for t in tail):
                return tail[0]
    return None


def branch_stabilization(
    f: PLMap,
    orbit: BackwardOrbit,
    budget: Optional[int] = None,
) -> tuple[StabilizationData, PLMap]:
    """Extract the window (a, b), epsilon, the gap side, n0 and step for
    the certificate pipeline, together with the block map f^step it chose.

    Checks every hypothesis of the theorem first: the orbit is a backward
    orbit of f, f is onto, and f is post-critically finite and leo (both
    read from one :func:`map_facts` table); a failed hypothesis raises
    ValueError.  The limit [a, b] of the branch images B(f^j, x_{n0+j})
    (:func:`branch`) is detected along one orbit residue n0, the gap side
    and epsilon come from the residue's tracked value x_{n0}, and the step
    is the least period multiple whose block map f^step has the branch
    image B(f^step, x_{n0}) = [a, b] and covers [0, 1] from every interval
    of diameter epsilon/2 (both facts checked exactly on f^step).  The
    block map is taken from the one :class:`IterateCache` that built every
    iterate on the way.
    """
    if not is_onto(f):
        raise ValueError("base map must be onto")
    validate_orbit(f, orbit)
    facts = map_facts(f)
    if facts.post_critically_finite is not True:
        raise ValueError("map is not verifiably post-critically finite at this budget")
    if facts.leo is not True:
        raise ValueError("map is not locally eventually onto (or undecided)")

    p = orbit.minimal_period()
    q = len(orbit.prefix)
    cache = IterateCache(f, budget=budget)
    probe_depth = PROBE_PER_PERIOD * p + PROBE_SLACK

    # block lengths are period multiples, so the tracked subsequence sits on
    # one orbit residue and takes a single value
    for n0 in range(q, q + p):
        found = _stable_branch_limit(cache, orbit, n0, window=p, probe=probe_depth)
        if found is not None:
            break
    else:
        raise BudgetExceededError(
            f"no orbit residue produced a stabilized branch within probe depth {probe_depth}"
        )
    # x_{n0} = f^j(x_{n0+j}) lies in the branch image [a, b]; a < b, as no lap is flat
    a, b = found
    tracked = orbit.value_at(n0)
    if tracked > a:
        side, eps = "left-gap", min(tracked - a, b - a) / 2
    else:
        side, eps = "right-gap", min(b - tracked, b - a) / 2

    for m in range(1, MAX_BLOCK_MULTIPLE + 1):
        step = m * p
        block = cache.power(step)
        if uniformly_onto(block, eps / 2) and branch(block, tracked) == (a, b):
            return StabilizationData(a, b, eps, side, n0, step), block
    raise BudgetExceededError(
        f"no block length up to {MAX_BLOCK_MULTIPLE} periods satisfies the "
        "branch and covering conditions"
    )
