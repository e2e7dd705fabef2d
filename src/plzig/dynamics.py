"""Branch intervals, post-critical orbits, Markov/leo verification, and
branch stabilization along backward orbits.

Everything here is exact: orbits are rational sequences, branch intervals
have rational endpoints, and the leo decisions work on the runs of cells
that a Markov partition's cells cover, or on exact preimage spacing, rather
than on numerical iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import lt
from typing import Optional, Sequence

from .plmap import (
    ONE,
    ZERO,
    BudgetExceededError,
    IterateCache,
    PLMap,
    _as_rational,
    _int_keys,
    _key_image,
    _laps_at,
    is_onto,
    parse_rational,
)

__all__ = [
    "BranchResult",
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
    "format_orbit",
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

@dataclass(frozen=True)
class BranchResult:
    """Maximal one-to-one interval J around a point and its image B = f(J).

    At a critical point the two adjacent laps compete; the selection keeps
    the lap whose image is contained in the other's, preferring the left lap
    when the images coincide (``tie_rule_applied`` marks that exact tie).
    """

    J: Interval
    B: Interval
    at_critical: bool
    tie_rule_applied: bool


def _lap_branch(f: PLMap, k: int) -> tuple[Interval, Interval]:
    """Lap k of f and its image, read from the keys of the breakpoints at
    its ends."""
    den, xk, yk = f._keys
    p, q = f._ends[k], f._ends[k + 1]
    u, v = sorted((yk[p], yk[q]))
    return (Fraction(xk[p], den), Fraction(xk[q], den)), (Fraction(u, den), Fraction(v, den))


def branch(f: PLMap, y) -> BranchResult:
    y = _as_rational(y)
    if not (ZERO <= y <= ONE):
        raise ValueError(f"point {y} outside [0, 1]")
    containing = [_lap_branch(f, k) for k in _laps_at(f, y)]
    if len(containing) == 1:
        J, B = containing[0]
        return BranchResult(J, B, at_critical=False, tie_rule_applied=False)
    (J1, B1), (J2, B2) = containing
    contained = B2[0] <= B1[0] and B1[1] <= B2[1]
    if contained:
        J, B = J1, B1
    else:
        J, B = J2, B2
    return BranchResult(J, B, at_critical=True, tie_rule_applied=B1 == B2)


# ---------------------------------------------------------------------------
# Post-critical orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitEntry:
    point: Fraction
    orbit: tuple[Fraction, ...]
    preperiod: Optional[int]
    period: Optional[int]
    closed: bool


# An orbit value is carried as its key: a reduced pair (n, d) meaning n/d
# over the map's common denominator, so d == 1 on the key grid.
Key = tuple[int, int]


def _size_bound(den: int) -> int:
    """Bit length past which an orbit value's key denominator ends its
    orbit as open.  Every post-critically finite map checked so far keeps
    its orbit keys on the grid (d == 1) or close to it, while a wandering
    orbit's denominators grow at every step, so the bound refuses such a
    map long before the step budget does."""
    return 2 * den.bit_length() + ORBIT_SIZE_SLACK


def _orbit_of(start: Key, budget: int, successor, limit: int) -> tuple[list[Key], Optional[int]]:
    """The keys of the forward orbit of ``start`` up to its first repeat,
    and the index where the repeated value first appeared; None for an
    orbit still open after ``budget`` steps or at a key denominator longer
    than ``limit`` bits, whose keys stop before that value."""
    seen = {start: 0}
    seq = [start]
    for _ in range(budget):
        nxt = successor(seq[-1])
        k = seen.get(nxt)
        if k is not None:
            return seq, k
        if nxt[1].bit_length() > limit:
            break
        seen[nxt] = len(seq)
        seq.append(nxt)
    return seq, None


def post_critical_orbits(f: PLMap, budget: int = DEFAULT_ORBIT_BUDGET) -> tuple[OrbitEntry, ...]:
    """Forward orbit of 0, of every turning point and of 1, in that order,
    with the detected minimal preperiod/period, or an open flag past the
    budget.

    The orbits run on f's integer keys.  Orbits merge quickly, so each
    distinct value is evaluated once, through one table of successors, and
    becomes one ``Fraction`` object for the entries: a breakpoint's own x,
    or a new one.  An orbit is also reported open when a value's key
    denominator grows longer than :func:`_size_bound` bits."""
    keys = f._keys
    den, xk, _ = keys
    limit = _size_bound(den)
    table: dict[Key, Key] = {}

    def successor(key: Key) -> Key:
        nxt = table.get(key)
        if nxt is None:
            nxt = table[key] = _key_image(keys, *key)
        return nxt

    ends, xs = f._ends, f.xs
    orbits = [_orbit_of((xk[i], 1), budget, successor, limit) for i in ends]
    made = {(xk[i], 1): xs[i] for i in ends}
    for seq, _ in orbits:
        for key in seq:
            if key not in made:
                made[key] = Fraction(key[0], key[1] * den)
    value = made.__getitem__
    entries = []
    for seq, k in orbits:
        orbit = tuple(map(value, seq))
        closed = k is not None
        entries.append(OrbitEntry(orbit[0], orbit, k, len(seq) - k if closed else None, closed))
    return tuple(entries)


def _orbit_closure(orbits: Sequence[OrbitEntry]) -> Optional[tuple[Fraction, ...]]:
    """The sorted union of the orbits of the endpoints and the turning
    points, or None when some orbit stayed open.  Each closed orbit holds the
    image of each of its points, so the union is forward invariant.  The
    values are sorted on their keys from :func:`plzig.plmap._int_keys`, each
    object once: :func:`post_critical_orbits` makes one object per distinct
    value."""
    if not all(e.closed for e in orbits):
        return None
    values = {id(v): v for e in orbits for v in e.orbit}.values()
    _, keys = _int_keys(values)
    by_key = dict(zip(keys, values))
    return tuple(by_key[k] for k in sorted(by_key))


@dataclass(frozen=True)
class MapFacts:
    """The hypotheses of the embedding theorem for one map, all read from
    one pass over the critical orbits: ``markov`` is the Markov partition (None when
    some orbit stays open) and ``leo`` the verdict of :func:`is_leo`."""

    orbits: tuple[OrbitEntry, ...]
    markov: Optional[tuple[Fraction, ...]]
    leo: Optional[bool]

    @property
    def post_critically_finite(self) -> Optional[bool]:
        return True if self.markov is not None else None


def map_facts(f: PLMap, orbit_budget: int = DEFAULT_ORBIT_BUDGET) -> MapFacts:
    """Critical orbits, Markov partition and leo verdict of f from a single
    :func:`post_critical_orbits` call."""
    orbits = post_critical_orbits(f, orbit_budget)
    markov = _orbit_closure(orbits)
    return MapFacts(orbits, markov, _leo(f, markov))


def markov_partition(f: PLMap, budget: int = DEFAULT_ORBIT_BUDGET) -> list[Fraction]:
    """Smallest forward-invariant finite set containing the critical set and
    the endpoints: the orbit closure of those points, sorted."""
    pts = _orbit_closure(post_critical_orbits(f, budget))
    if pts is None:
        raise BudgetExceededError(
            "critical orbits did not close within the budget; "
            "no finite Markov partition is available"
        )
    return list(pts)


def is_primitive(f: PLMap, partition: Sequence[Fraction]) -> bool:
    """Primitivity of the cell-covering matrix of a Markov partition: some
    iterate of f maps every cell onto [0, 1].

    The partition must contain all critical points (so f is monotone on each
    cell) and be forward invariant (so each image is a union of cells).  Row u
    of every power A^k is then one run of cells, the cells of f^k(cell u), and
    row u of A^2k is the hull of the rows of A^k over that run: a range
    minimum of the run starts and a range maximum of the run ends, read from
    sparse tables.  No row is empty (f has no constant piece), so positivity
    persists once reached; it is checked at powers of two until one reaches
    the Wielandt bound n^2 - 2n + 2.

    The partition is keyed by :func:`plzig.plmap._int_keys` over its own
    least common denominator L, so the cells are found in a dict of ints,
    and f's keys are reached by cross-multiplying with f's common
    denominator den: the critical point with x key k is the partition key
    k·L/den when that is an int, and the point p/L has the x key p·den/L.
    """
    den, xk, _ = f._keys
    L, pts = _int_keys([_as_rational(p) for p in partition])
    increasing = all(map(lt, pts, islice(pts, 1, None)))
    if not pts or not increasing or pts[0] != 0 or pts[-1] != L:
        raise ValueError("partition must be a sorted point set spanning [0, 1]")
    index = {p: i for i, p in enumerate(pts)}
    if any(xk[i] * L % den or xk[i] * L // den not in index for i in f._ends[1:-1]):
        raise ValueError("partition must contain every critical point")
    n = len(pts) - 1
    images = []  # the partition index of each point's image, or None
    for p in pts:
        m, d = _key_image(f._keys, p * den, L)  # the image m/(d·den), read over L
        q, r = divmod(m * L, d * den)
        images.append(None if r else index.get(q))
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
        lo, hi = _square_runs(lo, hi)
        exponent *= 2
    return True


def _square_runs(lo: list[int], hi: list[int]) -> tuple[list[int], list[int]]:
    """Runs of A^2k from the runs lo[u]..hi[u] of A^k: row u is the hull of
    rows lo[u]..hi[u], two range queries on sparse tables of the extrema,
    built up to the level that the longest run reads."""
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
    a turning point (an interval straddling it) when that is smaller."""
    slopes = [abs((y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(f.points, f.points[1:])]
    folds = [slopes[i - 1] * slopes[i] / (slopes[i - 1] + slopes[i]) for i in f._ends[1:-1]]
    return min(slopes + folds)


def is_leo(f: PLMap, orbit_budget: int = DEFAULT_ORBIT_BUDGET) -> Optional[bool]:
    """Locally eventually onto: every subinterval eventually covers [0, 1].

    When the map is verifiably post-critically finite this is decided
    through primitivity of the cell-covering matrix of its Markov partition.
    Otherwise a semi-decision runs: when every interval provably grows
    under iteration, covering is checked for one scale via exact preimage
    spacing; the result is None when neither route concludes.
    """
    markov = None
    if is_onto(f) and len(f._ends) > 2:
        markov = _orbit_closure(post_critical_orbits(f, orbit_budget))
    return _leo(f, markov)


def _leo(f: PLMap, markov: Optional[Sequence[Fraction]]) -> Optional[bool]:
    """:func:`is_leo` once the Markov partition is known, or known to be
    unavailable (None)."""
    if not is_onto(f):
        return False
    if len(f._ends) == 2:
        # a monotone onto map is a bijection; proper subintervals never cover
        return False
    if markov is not None:
        return is_primitive(f, markov)

    if _growth(f) <= 1:
        return None
    ends, ys = f._ends, f.ys
    if len(ends) < 4:  # no interior lap
        return True
    scale = min(abs(ys[q] - ys[p]) for p, q in zip(ends[1:-2], ends[2:-1]))
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
    key gap g is wider than eps = n/d exactly when g * d > n * den.  It
    caches nothing on f: it runs once on each block power the
    stabilization builds, where a cached table of solutions would only
    hold memory.
    """
    eps = _as_rational(eps)
    if eps <= 0:
        raise ValueError("scale must be positive")
    den, xk, yk = f._keys
    d, limit = eps.denominator, eps.numerator * den
    for level in (0, den):
        pts = [x for x, y in zip(xk, yk) if y == level]
        if not pts:
            return False
        if any((b - a) * d > limit for a, b in zip([0, *pts], [*pts, den])):
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
    """Parse ``prefix: q_0 q_1 ... ; period: r_0 r_1 ...`` (comments with #)."""
    body = " ".join(
        line for line in text.splitlines() if not line.strip().startswith("#")
    )
    if ";" not in body:
        raise ValueError("orbit text must contain ';' between prefix and period parts")
    left, right = body.split(";", 1)
    left = left.strip()
    right = right.strip()
    if not left.startswith("prefix:") or not right.startswith("period:"):
        raise ValueError("orbit text must look like 'prefix: ... ; period: ...'")
    prefix = [parse_rational(tok) for tok in left[len("prefix:"):].split()]
    block = [parse_rational(tok) for tok in right[len("period:"):].split()]
    return BackwardOrbit.of(prefix, block)


def format_orbit(orbit: BackwardOrbit) -> str:
    pre = " ".join(str(v) for v in orbit.prefix)
    blk = " ".join(str(v) for v in orbit.period_block)
    return f"prefix: {pre} ; period: {blk}".replace("prefix:  ;", "prefix: ;")


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
        values.append(branch(fj, orbit.value_at(start + j)).B)
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
    ValueError.  The branch limit [a, b] is detected along one orbit
    residue n0, the gap side and epsilon come from the residue's tracked
    value x_{n0}, and the step is the least period multiple that restores
    the branch [a, b] and covers [0, 1] from every interval of diameter
    epsilon/2 (both facts checked exactly on the block map f^step).  The
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
        if uniformly_onto(block, eps / 2) and branch(block, tracked).B == (a, b):
            return StabilizationData(a, b, eps, side, n0, step), block
    raise BudgetExceededError(
        f"no block length up to {MAX_BLOCK_MULTIPLE} periods satisfies the "
        "branch and covering conditions"
    )
