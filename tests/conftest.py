import random
from fractions import Fraction

import pytest

from plzig.plmap import (
    DEFAULT_BREAKPOINT_BUDGET,
    BudgetExceededError,
    PLMap,
    laps,
    level_crossings,
    make_plmap,
)
from plzig.zigzag import witness_is_valid
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


def naive_lap_witness(f: PLMap, ck: Fraction, ck1: Fraction, candidates=None):
    """All-pairs reference search, straight from the definition.

    Independent of the production two-pointer scan: tries every candidate
    pair and validates it by direct evaluation.
    """
    xs = candidates if candidates is not None else f.xs
    left = [x for x in xs if x < ck]
    right = [x for x in xs if x > ck1]
    for a in left:
        for b in right:
            if witness_is_valid(f, ck, ck1, a, b):
                return (a, b)
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


def compose_candidates(outer: PLMap, inner: PLMap) -> set[Fraction]:
    """Every candidate breakpoint of ``outer ∘ inner``: inner's breakpoints
    and every solution of inner(x) = v for an outer breakpoint v."""
    out = set(inner.xs)
    for v in outer.xs:
        out.update(level_crossings(inner, v))
    return out


def naive_compose(outer: PLMap, inner: PLMap, budget=None) -> PLMap:
    """Reference composition by the candidate-set algorithm.

    Independent of the production segment walk: solves inner(x) = v over
    all of inner for each outer breakpoint v, refuses when the distinct
    candidates exceed the budget, evaluates outer(inner(x)) at every
    candidate and normalizes with make_plmap.
    """
    limit = DEFAULT_BREAKPOINT_BUDGET if budget is None else budget
    candidates = compose_candidates(outer, inner)
    if len(candidates) > limit:
        raise BudgetExceededError(f"composition needs more than {limit} breakpoints")
    return make_plmap([(x, outer(inner(x))) for x in sorted(candidates)])
