import json
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from math import gcd, inf

import pytest

import plzig.factorize
from plzig.plmap import (
    DEFAULT_BREAKPOINT_BUDGET,
    BudgetExceededError,
    PLMap,
    iterate,
    laps,
    loads_map,
    make_plmap,
    parse_rational,
)
from plzig.zigzag import is_in_zigzag
from plzig.factorize import minc_map


@pytest.fixture(scope="session")
def minc() -> PLMap:
    return minc_map()


@pytest.fixture(scope="session")
def tent() -> PLMap:
    return make_plmap([(0, 0), (Fraction(1, 2), 1), (1, 0)])


@pytest.fixture(scope="session")
def identity() -> PLMap:
    return make_plmap([(0, 0), (1, 1)])


def random_map(
    rng: random.Random,
    max_breakpoints: int = 8,
    denominator: int = 64,
    min_breakpoints: int = 2,
) -> PLMap:
    """Random normalized map with rational vertices of denominator <= 64."""
    n = rng.randint(min_breakpoints, max_breakpoints)
    xs = sorted({Fraction(rng.randint(1, denominator - 1), denominator) for _ in range(n - 2)})
    xs = [Fraction(0)] + xs + [Fraction(1)]
    ys: list[Fraction] = []
    for _ in xs:
        while True:
            y = Fraction(rng.randint(0, denominator), denominator)
            if not ys or y != ys[-1]:
                ys.append(y)
                break
    return make_plmap(list(zip(xs, ys)))


def random_markov_map(rng: random.Random, cells: int) -> PLMap:
    """Random map monotone on each 1/cells cell with vertex values in the
    cell grid: post-critically finite by construction."""
    pts = [Fraction(i, cells) for i in range(cells + 1)]
    while True:
        vals = [rng.choice(pts)]
        for _ in range(cells):
            vals.append(rng.choice([p for p in pts if p != vals[-1]]))
        try:
            return make_plmap(list(zip(pts, vals)))
        except ValueError:
            continue


def exact_fixed_points(f: PLMap) -> list[Fraction]:
    out = set()
    for (x0, y0), (x1, y1) in zip(f.points, f.points[1:]):
        slope = (y1 - y0) / (x1 - x0)
        if slope != 1:
            x = (y0 - slope * x0) / (1 - slope)
            if x0 <= x <= x1:
                out.add(x)
    return sorted(out)


def periodic_cycles(f: PLMap, max_period: int) -> list[tuple[Fraction, ...]]:
    """The cycles of f of period at most ``max_period``, each as its forward
    orbit from its least point, sorted."""
    cycles = set()
    for p in range(1, max_period + 1):
        for x in exact_fixed_points(iterate(f, p)):
            forward = [x]
            for _ in range(p - 1):
                forward.append(f(forward[-1]))
            if len(set(forward)) == p:
                i = forward.index(min(forward))
                cycles.add(tuple(forward[i:] + forward[:i]))
    return sorted(cycles)


def naive_lap_witness(f: PLMap, ck: Fraction, ck1: Fraction):
    """All-pairs reference search, straight from the definition: the first
    pair of breakpoints a < ck, b > ck1, in (a, b) order, that
    :func:`witness_is_valid` accepts.

    Independent of the production two-pointer scan: it tries every pair,
    evaluating the lap ends and each breakpoint once.  For each a it walks b
    upward, keeping the least and greatest value at the breakpoints strictly
    inside (a, b), and the pair it returns is checked again by
    :func:`witness_is_valid`.
    """
    decreasing = naive_eval(f, ck) > naive_eval(f, ck1)
    xs = f.xs
    ys = [naive_eval(f, x) for x in xs]
    for i in range(bisect_left(xs, ck)):
        low, high = inf, -inf
        for j in range(i + 1, len(xs)):
            if xs[j] > ck1:
                lo, hi = (ys[i], ys[j]) if decreasing else (ys[j], ys[i])
                if lo < hi and lo < low and high < hi:
                    assert witness_is_valid(f, ck, ck1, xs[i], xs[j]), (f, ck, ck1)
                    return (xs[i], xs[j])
            low, high = min(low, ys[j]), max(high, ys[j])
    return None


def two_pointer_witness(xs, ys, p: int, q: int):
    """Reference witness search for one lap in the decreasing sense
    (ys[p] > ys[q]), by a linear two-pointer sweep over both record lists.

    Independent of the production pointer chains: the a-side records are the
    strict running minima leftward from the lap, the b-side records the
    running maxima rightward, each with its running peak or trough, compared
    as ``Fraction``s.  Returns the pair nearest the lap, as production must.
    """
    n = len(ys)
    lap_min = min(ys[p : q + 1])
    lap_max = max(ys[p : q + 1])

    # left records: (index of a, value at a, running max over [a, c_k))
    a_recs = []
    runmin = lap_min
    runpeak = None
    for i in range(p - 1, -1, -1):
        runpeak = ys[i] if runpeak is None else max(runpeak, ys[i])
        if ys[i] < runmin:
            a_recs.append((i, ys[i], runpeak))
            runmin = ys[i]
    if not a_recs:
        return None

    # right records: (index of b, value at b, running min over (c_{k+1}, b])
    b_recs = []
    runmax = lap_max
    runtrough = None
    for j in range(q + 1, n):
        runtrough = ys[j] if runtrough is None else min(runtrough, ys[j])
        if runmax < ys[j]:
            b_recs.append((j, ys[j], runtrough))
            runmax = ys[j]
    if not b_recs:
        return None

    j_trough = 0  # prefix of b records whose trough stays above the current a value
    j_peak = 0  # first b record rising above the current a-side peak
    nb = len(b_recs)
    for i_a, ya, peak in a_recs:
        while j_trough < nb and ya < b_recs[j_trough][2]:
            j_trough += 1
        while j_peak < nb and peak >= b_recs[j_peak][1]:
            j_peak += 1
        if j_peak < j_trough:
            return (xs[i_a], xs[b_recs[j_peak][0]])
    return None


def two_pointer_lap_witness(f: PLMap, lap):
    """:func:`two_pointer_witness` for a lap of f in either orientation."""
    p = f.xs.index(lap.left)
    q = f.xs.index(lap.right)
    ys = f.ys if f.ys[p] > f.ys[q] else tuple(-y for y in f.ys)
    return two_pointer_witness(f.xs, ys, p, q)


def critical_set(f: PLMap) -> list[Fraction]:
    """Turning points: the interior breakpoints where monotonicity flips,
    read by a scan of ``f.points``, which has no flat segment.  Independent
    of the lap table that the library reads them from."""
    pts = f.points
    return [x for (_, y0), (x, y), (_, y1) in zip(pts, pts[1:], pts[2:]) if (y0 < y) == (y1 < y)]


def scan_laps_at(f: PLMap, y: Fraction) -> list[int]:
    """Reference lap lookup by a linear scan: the indices of every lap whose
    closed interval holds y, in order."""
    return [k for k, lap in enumerate(laps(f)) if lap.left <= y <= lap.right]


def transition_matrix(f: PLMap, partition) -> list[list[int]]:
    """Reference cell-covering matrix, dense: row u flags every cell covered
    by f(cell u).  The partition must be a valid Markov partition of f."""
    pts = list(partition)
    index = {p: i for i, p in enumerate(pts)}
    n = len(pts) - 1
    matrix = [[0] * n for _ in range(n)]
    for u in range(n):
        lo, hi = sorted((f(pts[u]), f(pts[u + 1])))
        for v in range(index[lo], index[hi]):
            matrix[u][v] = 1
    return matrix


def dense_is_primitive(matrix: list[list[int]]) -> bool:
    """Reference primitivity test of a 0/1 matrix by bitmask squaring.

    Independent of the production run hulls: checked at a single power of
    two past the Wielandt bound n^2 - 2n + 2; positivity is monotone once
    every row is nonzero, and a zero row or column rules primitivity out.
    """
    n = len(matrix)
    if n == 0:
        return False
    full = (1 << n) - 1
    rows = [sum(1 << j for j in range(n) if matrix[i][j]) for i in range(n)]
    if any(r == 0 for r in rows):
        return False
    colmask = 0
    for r in rows:
        colmask |= r
    if colmask != full:
        return False

    def boolean_square(rs: list[int]) -> list[int]:
        out = []
        for r in rs:
            acc = 0
            v = r
            while v:
                low = v & -v
                acc |= rs[low.bit_length() - 1]
                v ^= low
            out.append(acc)
        return out

    wielandt = n * n - 2 * n + 2
    power = rows
    exponent = 1
    while exponent < max(wielandt, 1):
        if all(r == full for r in power):
            return True
        power = boolean_square(power)
        exponent *= 2
    return all(r == full for r in power)


NAIVE_ORBIT_STEPS = 1000


def naive_is_leo(f: PLMap) -> bool:
    """Reference leo verdict: False unless f is onto with at least two
    laps; otherwise primitivity of the dense cell-covering matrix on the
    orbit closure of *every* breakpoint, walked with :func:`naive_eval`.
    f is linear on each cell of that partition, so the matrix is primitive
    exactly when f is leo.  Raises AssertionError when an orbit does not
    close within ``NAIVE_ORBIT_STEPS`` steps."""
    ys = [y for _, y in f.points]
    if min(ys) != 0 or max(ys) != 1 or not critical_set(f):
        return False
    closure = set()
    for x in f.xs:
        for _ in range(NAIVE_ORBIT_STEPS):
            if x in closure:
                break
            closure.add(x)
            x = naive_eval(f, x)
        else:
            raise AssertionError(f"the orbit of a breakpoint of {f} stays open")
    return dense_is_primitive(transition_matrix(f, sorted(closure)))


def compose_candidates(outer: PLMap, inner: PLMap) -> set[Fraction]:
    """Every candidate breakpoint of ``outer ∘ inner``: inner's breakpoints
    and every solution of inner(x) = v for an outer breakpoint v."""
    out = set(inner.xs)
    for v in outer.xs:
        out.update(naive_solutions(inner, v))
    return out


def naive_eval(f: PLMap, x) -> Fraction:
    """Reference evaluation in ``Fraction``s: bisect the breakpoints and
    interpolate on the segment holding x.  Independent of the integer keys
    that ``PLMap.__call__`` reads."""
    x = Fraction(x)
    xs = f.xs
    i = min(bisect_right(xs, x) - 1, len(xs) - 2)
    (x0, y0), (x1, y1) = f.points[i], f.points[i + 1]
    if x == x0:
        return y0
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def naive_dumps(f: PLMap) -> str:
    """Reference map-file text: ``str`` of each ``Fraction`` coordinate of
    ``f.points``.  Independent of the integer keys that ``dumps_map``
    writes from."""
    return "".join(f"{x} {y}\n" for x, y in f.points)


def format_orbit(orbit) -> str:
    """A :class:`plzig.dynamics.BackwardOrbit` as the text that
    ``parse_orbit`` reads."""
    pre = " ".join(str(v) for v in orbit.prefix)
    blk = " ".join(str(v) for v in orbit.period_block)
    return f"prefix: {pre} ; period: {blk}".replace("prefix:  ;", "prefix: ;")


def naive_solutions(f: PLMap, v) -> list[Fraction]:
    """Reference solutions of f(x) = v, sorted: a ``Fraction`` scan of
    ``f.points`` that solves every segment whose closed value range holds v.
    Independent of the integer keys that ``level_crossings`` reads at the
    levels 0 and 1."""
    v = Fraction(v)
    return sorted({
        x0 + (v - y0) * (x1 - x0) / (y1 - y0)
        for (x0, y0), (x1, y1) in zip(f.points, f.points[1:])
        if min(y0, y1) <= v <= max(y0, y1)
    })


def naive_uniformly_onto(f: PLMap, eps) -> bool:
    """Reference covering test from the definition, in ``Fraction``s:
    f(J) = [0, 1] for every subinterval J of [0, 1] with diam(J) >= eps.

    J covers [0, 1] exactly when it meets a solution of f = 0 and one of
    f = 1.  The solutions of one level cut [0, 1] into pieces, and a J
    missing them lies in one piece, so some J of diameter >= eps misses
    them exactly when a piece is longer than eps, or when there are none
    and eps <= 1.  Above 1 no J exists; the library's test still asks that
    f take both values there, and so does this oracle."""
    eps = Fraction(eps)
    for v in (0, 1):
        cuts = naive_solutions(f, v)
        if not cuts:
            return False
        ends = [Fraction(0), *cuts, Fraction(1)]
        if any(b - a > eps for a, b in zip(ends, ends[1:])):
            return False
    return True


def naive_normalize(points) -> list[tuple[Fraction, Fraction]]:
    """Reference normalization: one stack pass over the points in order,
    dropping each interior point collinear with its kept neighbours.
    Independent of the integer-key slope test that ``make_plmap`` reads."""
    merged: list[tuple[Fraction, Fraction]] = []
    for p in points:
        while len(merged) >= 2:
            (ax, ay), (bx, by) = merged[-2], merged[-1]
            if (by - ay) * (p[0] - bx) == (p[1] - by) * (bx - ax):
                merged.pop()
            else:
                break
        merged.append(p)
    return merged


def naive_map(points) -> PLMap:
    """The map through :func:`naive_normalize` of ``points``.  make_plmap
    must keep every point, so an oracle built with it never relies on the
    library's normalization."""
    merged = naive_normalize(points)
    f = make_plmap(merged)
    assert len(f._keys[1]) == len(merged), "make_plmap dropped a point naive_normalize kept"
    return f


def naive_compose(outer: PLMap, inner: PLMap, budget=None) -> PLMap:
    """Reference composition by the candidate-set algorithm.

    Independent of the production segment walk: solves inner(x) = v over
    all of inner for each outer breakpoint v, refuses when the distinct
    candidates exceed the budget, evaluates outer(inner(x)) at every
    candidate with :func:`naive_eval` and builds the map with
    :func:`naive_map`.
    """
    limit = DEFAULT_BREAKPOINT_BUDGET if budget is None else budget
    candidates = compose_candidates(outer, inner)
    if len(candidates) > limit:
        raise BudgetExceededError(f"composition needs more than {limit} breakpoints")
    points = [(x, naive_eval(outer, naive_eval(inner, x))) for x in sorted(candidates)]
    return naive_map(points)


def candidate_count(outer: PLMap, inner: PLMap) -> int:
    """The number of candidate breakpoints of ``outer ∘ inner`` before
    merging, counted without composing: inner's breakpoints and the outer
    breakpoints strictly inside each of inner's segment ranges."""
    oxs = outer.xs
    count = len(inner.xs)
    for y0, y1 in zip(inner.ys, inner.ys[1:]):
        count += bisect_left(oxs, max(y0, y1)) - bisect_right(oxs, min(y0, y1))
    return count


# The paper's lemma-level checks.  No command or certificate runs them; each
# is an oracle for the zigzag verdict, built on the oracles above.

def image_interval(f: PLMap, lo, hi) -> tuple[Fraction, Fraction]:
    """Exact image f([lo, hi]) as a closed interval (min, max): the values
    at both ends, by :func:`naive_eval`, and at every breakpoint between."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not (0 <= lo <= hi <= 1):
        raise ValueError(f"[{lo}, {hi}] is not a subinterval of [0, 1]")
    vals = [naive_eval(f, lo), naive_eval(f, hi), *(v for x, v in f.points if lo < x < hi)]
    return min(vals), max(vals)


def witness_is_valid(f: PLMap, lap_left: Fraction, lap_right: Fraction, a: Fraction, b: Fraction) -> bool:
    """Re-check a zigzag witness (a, b) of the lap [lap_left, lap_right] by
    direct evaluation: gathers every breakpoint value strictly inside
    (a, b) and tests the attainment conditions for the lap's orientation."""
    if not (a < lap_left < lap_right < b):
        return False
    inner = [v for x, v in f.points if a < x < b]
    fa, fb = naive_eval(f, a), naive_eval(f, b)
    if naive_eval(f, lap_left) > naive_eval(f, lap_right):
        lo, hi = fa, fb
    else:
        lo, hi = fb, fa
    return lo < hi and all(lo < v < hi for v in inner)


def remark_no_zigzag(f: PLMap, k: int) -> bool:
    """Boundary-value shortcut: a lap endpoint mapping to 0 or 1 rules the
    whole lap out of any zigzag.

    ``k`` indexes an interior lap of f (1 <= k <= lap count - 2).  A true
    return guarantees ``is_in_zigzag`` is false everywhere on that lap.
    """
    lap_list = laps(f)
    if not (1 <= k <= len(lap_list) - 2):
        raise ValueError(f"lap index {k} does not name an interior lap")
    return any(naive_eval(f, x) in (0, 1) for x in lap_list[k])


def _level_clear(crossings: list[Fraction], a: Fraction, b: Fraction) -> bool:
    """True when no point of the sorted ``crossings`` lies strictly inside
    (a, b)."""
    k = bisect_right(crossings, a)
    return k == len(crossings) or crossings[k] >= b


def lemma_witness(f: PLMap, y):
    """A not-in-zigzag certificate of the one-sided kind, if the search finds one.

    Returns (a, b, case) with y in [a, b], f avoiding both boundary values
    on (a, b), and either case 1: f(a) in {0, 1} with f one-to-one on
    [y, b], or case 2: f(b) in {0, 1} with f one-to-one on [a, y].  Any
    returned triple implies ``is_in_zigzag(f, y)`` is false; absence of a
    triple decides nothing.  Candidates are breakpoints plus the monotone
    limits around y, scanned nearest-first for a deterministic result.
    Levels are solved by :func:`naive_solutions`, values read by
    :func:`naive_eval` and the laps holding y found by :func:`scan_laps_at`.
    """
    y = Fraction(y)
    if not (0 <= y <= 1):
        raise ValueError(f"query point {y} outside [0, 1]")
    crossings = cache(lambda value: naive_solutions(f, value))
    # (x, f(x)) at every solution of f(x) = 0 or f(x) = 1
    anchors = sorted((x, v) for v in (Fraction(0), Fraction(1)) for x in crossings(v))
    # f is one-to-one on [y, rlim] and on [llim, y]: the laps holding y end there
    lap_list, holding = laps(f), scan_laps_at(f, y)
    rlim, llim = lap_list[holding[-1]].right, lap_list[holding[0]].left

    b_cands = sorted({x for x in f.xs if y < x < rlim} | {y, rlim}, reverse=True)
    for a, fa in reversed([(x, v) for x, v in anchors if x <= y]):
        for b in b_cands:
            if a >= b:
                continue
            if _level_clear(crossings(fa), a, b) and _level_clear(crossings(naive_eval(f, b)), a, b):
                return (a, b, 1)

    a_cands = sorted({x for x in f.xs if llim < x < y} | {y, llim})
    for b, fb in ((x, v) for x, v in anchors if x >= y):
        for a in a_cands:
            if a >= b:
                continue
            if _level_clear(crossings(naive_eval(f, a)), a, b) and _level_clear(crossings(fb), a, b):
                return (a, b, 2)
    return None


def composition_property_check(f: PLMap, g: PLMap, samples) -> list[Fraction]:
    """Check zigzag behaviour under composition on a sample set.

    For every sample y inside a zigzag of g∘f (built by
    :func:`naive_compose`), either y must be inside a zigzag of f or f(y)
    inside a zigzag of g.  Returns the offending samples; a nonempty result
    indicates an implementation bug rather than a property of the maps.
    """
    gf = naive_compose(g, f)
    violations: list[Fraction] = []
    for raw in samples:
        y = Fraction(raw)
        if not is_in_zigzag(gf, y).in_zigzag:
            continue
        if is_in_zigzag(f, y).in_zigzag:
            continue
        if is_in_zigzag(g, naive_eval(f, y)).in_zigzag:
            continue
        violations.append(y)
    return violations


# Stage checks compose a rebonded map g = s_prev ∘ t by naive_compose only up
# to this many candidate breakpoints (the general minc const 1/2 stage has
# 11,393 and takes about a second); the all-pairs witness oracle runs only
# on maps of at most SMALL_MAP breakpoints.
NAIVE_CANDIDATE_CAP = 12_000
SMALL_MAP = 100


def naive_composable(outer: PLMap, inner: PLMap) -> bool:
    """Whether ``outer ∘ inner`` has at most NAIVE_CANDIDATE_CAP candidate
    breakpoints.  The product of the two breakpoint counts bounds the
    candidates, so far larger pairs are refused without counting."""
    if len(outer.xs) * len(inner.xs) > 4 * NAIVE_CANDIDATE_CAP:
        return False
    return candidate_count(outer, inner) <= NAIVE_CANDIDATE_CAP


def check_rebonded_verdict(s: PLMap, t: PLMap, g: PLMap, c: Fraction, verdict, previous=None) -> None:
    """Check a stage's zigzag verdict at c under g = s ∘ t, given as
    ``naive_compose(s, t)``.  The verdict must equal ``is_in_zigzag(g, c)``.
    When g has at most SMALL_MAP breakpoints, the conftest oracles alone
    check it too: every stored witness is valid, every failing interior lap
    has no witness in the all-pairs search, and, given the previous stage's
    coordinate, g(c) equals it by nested evaluation."""
    assert verdict == is_in_zigzag(g, c), (s, t, c)
    if len(g.xs) > SMALL_MAP:
        return
    for (left, right), w in zip(verdict.applicable_laps, verdict.witnesses):
        assert w is None or witness_is_valid(g, left, right, *w), (g, c, w)
    lap_list = laps(g)
    boundary = {(lap.left, lap.right) for lap in (lap_list[0], lap_list[-1])}
    if verdict.failing_lap is not None and verdict.failing_lap not in boundary:
        assert naive_lap_witness(g, *verdict.failing_lap) is None, (g, c)
    if previous is not None:
        assert naive_eval(s, naive_eval(t, c)) == previous, (g, c, previous)


# stage claims already checked in this test run; the same claim recurs in
# many tests, and checking it again could only repeat the same result
_checked_stages: set = set()


def rotation_period(block) -> int:
    """The least d > 0 such that rotating ``block`` by d gives it back."""
    return next(d for d in range(1, len(block) + 1) if block[d:] + block[:d] == block)


def check_certificate_stages(cert) -> None:
    """:func:`check_rebonded_verdict` on every rebonded stage of a
    certificate whose composite is :func:`naive_composable`, once per
    distinct claim.  Stages before the failing one must carry the previous
    coordinate.  The stage state recurs once the orbit has turned by a
    multiple of its period p: stage 2's state is repeated at stage
    2 + p / gcd(step, p)."""
    p = rotation_period(cert.orbit.period_block)
    step = cert.stages[1].n - cert.stages[0].n
    assert cert.repeat_index == 2 + p // gcd(step, p), (cert.orbit, step, cert.repeat_index)
    end = cert.failing_stage or len(cert.stages) + 1
    for prev, st in zip(cert.stages, cert.stages[1:]):
        s, t = prev.pair.s, st.pair.t
        previous = prev.coordinate if st.index < end else None
        claim = (s, t, st.coordinate, st.verdict, previous)
        if claim in _checked_stages:
            continue
        _checked_stages.add(claim)
        if naive_composable(s, t):
            check_rebonded_verdict(s, t, naive_compose(s, t), st.coordinate, st.verdict, previous)


# Independent checks of factor pairs and of whole certificates.  They read
# maps through plzig.plmap's parser and decide every fact with the oracles
# above; nothing below calls plzig.factorize, plzig.dynamics or plzig.zigzag.

# (n0, step) of a certificate without stabilization data: the Minc
# pipeline's blocks are second iterates, counted from x_0
MINC_PIPELINE = (0, 2)

_powers: dict = {}  # (f, k) -> f^k by naive_compose, or None past the cap
_parsed: dict = {}  # map text -> PLMap
# (map text, step, case, beta) -> s, of pairs already rebuilt and checked
_checked_pairs: dict = {}
_checked_texts: set = set()  # certificate texts already checked


def naive_power(f: PLMap, k: int):
    """f^k as f∘f^(k-1) by :func:`naive_compose`, normalized by
    :func:`naive_normalize`; None once a composition along the way is not
    :func:`naive_composable`."""
    if (f, k) not in _powers:
        if k == 1:
            power = naive_map(f.points)
        else:
            inner = naive_power(f, k - 1)
            fits = inner is not None and naive_composable(f, inner)
            power = naive_compose(f, inner) if fits else None
        _powers[(f, k)] = power
    return _powers[(f, k)]


def check_factor_pair(f: PLMap, step: int, s: PLMap, t: PLMap) -> None:
    """Check t∘s = f^step exactly, against f^step built by
    :func:`naive_power`: by ``naive_compose(t, s)`` when t∘s is
    :func:`naive_composable`, else by :func:`check_factor_pair_pointwise`."""
    block = naive_power(f, step)
    assert block is not None, f"f^{step} has more than NAIVE_CANDIDATE_CAP candidate breakpoints"
    if naive_composable(t, s):
        assert naive_compose(t, s) == block, ("t∘s is not f^step", f, step, s, t)
    else:
        check_factor_pair_pointwise(block, s, t)


def check_factor_pair_pointwise(block: PLMap, s: PLMap, t: PLMap) -> None:
    """Check t∘s = block by nested :func:`naive_eval` at every breakpoint of
    s, every point that s sends to a breakpoint of t, and every breakpoint
    of the block map.  t∘s is linear between neighbouring points of the
    first two sets and the block map between those of the third, so
    agreeing at every point is equality."""
    points = set(s.xs) | set(block.xs)
    for (x0, y0), (x1, y1) in zip(s.points, s.points[1:]):
        for v in t.xs[bisect_right(t.xs, min(y0, y1)):bisect_left(t.xs, max(y0, y1))]:
            points.add(x0 + (v - y0) * (x1 - x0) / (y1 - y0))
    for x in points:
        assert naive_eval(t, naive_eval(s, x)) == naive_eval(block, x), (
            f"t∘s is not f^step at {x}", block, s, t,
        )


def fold_pair(block: PLMap, case: str, beta: Fraction) -> tuple[PLMap, PLMap]:
    """The factor pair (s, t) of ``block`` = F that a certificate stores as
    (case, beta), rebuilt in ``Fraction`` points by the formulas of
    ``plzig.factorize.FactorPair``, after checking that F folds there:

    - case 1: 0 < beta <= 1, F(beta) = 0 and some breakpoint below beta maps
      to 1; s = beta(1 - F) on [0, beta] and the identity on [beta, 1], t =
      1 - u/beta on [0, beta] and F on [beta, 1];
    - case 2, the mirror: 0 <= beta < 1, F(beta) = 1 and some breakpoint
      above beta maps to 0; s is the identity on [0, beta] and 1 - (1 -
      beta)F on [beta, 1], t is F on [0, beta] and (1 - u)/(1 - beta) on
      [beta, 1].

    Raises AssertionError when the case is unknown or F does not fold at beta."""
    below = [(x, y) for x, y in block.points if x < beta]
    above = [(x, y) for x, y in block.points if x > beta]
    if case == "case1":
        assert 0 < beta <= 1 and naive_eval(block, beta) == 0, f"F(beta) is not 0 at beta = {beta}"
        assert any(y == 1 for _, y in below), f"no breakpoint below beta = {beta} maps to 1"
        s = [(x, beta * (1 - y)) for x, y in below] + [(beta, beta)] + ([(1, 1)] if beta < 1 else [])
        t = [(0, 1), (beta, 0)] + above
    else:
        assert case == "case2", f"unknown case {case!r}"
        assert 0 <= beta < 1 and naive_eval(block, beta) == 1, f"F(beta) is not 1 at beta = {beta}"
        assert any(y == 0 for _, y in above), f"no breakpoint above beta = {beta} maps to 0"
        s = ([(0, 0)] if beta > 0 else []) + [(beta, beta)] + [(x, 1 - (1 - beta) * y) for x, y in above]
        t = below + [(beta, 1), (1, 0)]
    return naive_map(s), naive_map(t)


def check_certificate_text(text: str) -> None:
    """Check a certificate's claims from its JSON text alone.

    - The orbit relation f(x_(n+1)) = x_n, by :func:`naive_eval`, across
      the prefix, the seam and the wrap-around of the period block.
    - Stage i sits at n_i = n0 + i·step, with (n0, step) from the
      stabilization's n-sequence or MINC_PIPELINE.
    - Every stage's (case, beta) is a fold of f^step, and the pair
      :func:`fold_pair` rebuilds from it has t∘s = f^step
      (:func:`check_factor_pair`; both once per distinct pair in a test
      run).  Its coordinate is s(x_(n_i)); before the failing stage, s
      fixes x_(n_i).
    - The repeat index is the first stage whose state (both pairs, as
      (case, beta), and both orbit values) recurs from an earlier stage.

    Raises AssertionError naming the first claim that fails.  Leo, pcf, the
    stabilized branch and the zigzag verdicts are not checked here.
    """
    data = json.loads(text)
    if data["map"] not in _parsed:
        _parsed[data["map"]] = loads_map(data["map"])
    f = _parsed[data["map"]]
    prefix, period = ([parse_rational(v) for v in data["orbit"][k]] for k in ("prefix", "period"))

    def x(n):
        return prefix[n] if n < len(prefix) else period[(n - len(prefix)) % len(period)]

    for n in range(len(prefix) + len(period)):
        y = x(n + 1)
        assert 0 <= y <= 1 and naive_eval(f, y) == x(n), f"orbit: f(x_{n + 1}) != x_{n}"
    stab = data["stabilization"]
    if stab is None:
        n0, step = MINC_PIPELINE
    else:
        (n0,), step = stab["n-sequence"]["head"], stab["n-sequence"]["step"]
    failing = data["failing_stage"]
    assert data["result"] == ("pass" if failing is None else "fail"), "result"
    seen: dict = {}
    repeat = prev = None
    for i, st in enumerate(data["stages"], start=1):
        n = n0 + i * step
        assert st["n_i"] == n, f"stage {i} n_i: {st['n_i']}, not {n}"
        pair = (st["case"], parse_rational(st["beta"]))
        key = (data["map"], step, *pair)
        if key not in _checked_pairs:
            block = naive_power(f, step)
            assert block is not None, f"f^{step} has more than NAIVE_CANDIDATE_CAP candidate breakpoints"
            try:
                s, t = fold_pair(block, *pair)
            except AssertionError as exc:
                raise AssertionError(f"stage {i}: {exc}") from None
            check_factor_pair(f, step, s, t)
            _checked_pairs[key] = s
        c = parse_rational(st["coordinate"])
        assert c == naive_eval(_checked_pairs[key], x(n)), f"stage {i} coordinate: {c} is not s(x_{n})"
        assert failing is not None and i >= failing or c == x(n), f"stage {i}: s moves x_{n}"
        if prev is not None and repeat is None:
            if seen.setdefault((prev, pair, x(n - step), x(n)), i) != i:
                repeat = i
        prev = pair
    assert data["repeat_index"] == repeat, f"repeat_index: {data['repeat_index']}, not {repeat}"


@pytest.fixture(autouse=True)
def _check_certified_stages(monkeypatch):
    """After each test, check every stage of every certificate the test had
    the stage loop build, through the pipelines or the verifier, and check
    each certificate's encoding with :func:`check_certificate_text`, once
    per distinct text."""
    built = []
    assemble = plzig.factorize._assemble

    def recording(*args, **kwargs):
        built.append(assemble(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(plzig.factorize, "_assemble", recording)
    yield
    for cert in built:
        check_certificate_stages(cert)
        text = plzig.factorize.certificate_to_json(cert)
        if text not in _checked_texts:
            check_certificate_text(text)
            _checked_texts.add(text)

