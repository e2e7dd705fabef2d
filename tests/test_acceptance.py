"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value here is either a frozen published constant, a
hand-derivable exact value, or is checked against an independent oracle
implemented inside the test.
"""

import random
import time
from fractions import Fraction as F

from plzig.plmap import (
    compose,
    iterate,
    laps,
    _int_keys,
)
from plzig.zigzag import _WitnessIndex, is_in_zigzag
from plzig.dynamics import (
    BackwardOrbit,
    branch,
    is_primitive,
    leo_uniform_N,
    markov_partition,
    uniformly_onto,
)
from plzig.factorize import (
    MINC_BETA_HIGH,
    MINC_BETA_LOW,
    certify_general,
    certify_minc,
    minc_map,
    split_case1,
    split_case2,
)

from conftest import (
    composition_property_check,
    image_interval,
    lemma_witness,
    naive_solutions,
    random_map,
    remark_no_zigzag,
)
from reference_curves import G_CURVE_POINTS

MINC = minc_map()
MINC2 = iterate(MINC, 2)


def report(n: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {n:2d}: PASS ({elapsed:6.2f}s) {detail}")


def test_acceptance_01_exact_factorization_identities():
    start = time.monotonic()
    low = split_case1(MINC2, MINC_BETA_LOW)
    high = split_case2(MINC2, MINC_BETA_HIGH)
    assert compose(low.t, low.s) == MINC2
    assert compose(high.t, high.s) == MINC2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, elapsed, "t∘s and t'∘s' equal the double iterate exactly")


def test_acceptance_02_rebonded_curve_anchor():
    start = time.monotonic()
    low = split_case1(MINC2, MINC_BETA_LOW)
    g = compose(low.s, low.t)
    assert len(G_CURVE_POINTS) >= 70
    worst = 0.0
    for xf, yf in G_CURVE_POINTS:
        x = min(max(F(float(xf)), F(0)), F(1))
        worst = max(worst, abs(float(g(x)) - float(yf)))
    assert worst <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, elapsed, f"g matches the reference curve, max deviation {worst:.2e}")


def test_acceptance_03_zigzag_verdicts():
    start = time.monotonic()
    for n in range(1, 5):
        assert is_in_zigzag(iterate(MINC, n), F(1, 2)).in_zigzag, n
    low = split_case1(MINC2, MINC_BETA_LOW)
    g = compose(low.s, low.t)
    assert not is_in_zigzag(g, F(1, 2)).in_zigzag
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(3, elapsed, "1/2 zigzags in every iterate but not in the rebonded map")


def test_acceptance_04_minc_certificate():
    start = time.monotonic()
    orbit = BackwardOrbit.constant(F(1, 2))
    cert = certify_minc(orbit, stages=10)
    assert cert.passed
    rebonded = {compose(prev.pair.s, st.pair.t) for prev, st in zip(cert.stages, cert.stages[1:])}
    assert len(rebonded) == 1
    assert [st.coordinate for st in cert.stages] == [F(1, 2)] * 10
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(4, elapsed, "10-stage pipeline passes with a single rebonded map")


def test_acceptance_05_general_pipeline():
    start = time.monotonic()
    cert = certify_general(MINC, BackwardOrbit.constant(F(1, 2)), stages=4)
    assert cert.passed
    assert cert.stabilization.a == F(1, 3)
    assert cert.stabilization.b == F(2, 3)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, elapsed, "stabilized branch window is [1/3, 2/3]")


def _corpus(count: int, seed: int, max_breakpoints: int = 8):
    rng = random.Random(seed)
    return [
        (random_map(rng, max_breakpoints), random_map(rng, max_breakpoints))
        for _ in range(count)
    ]


CORPUS = _corpus(1000, seed=20260808)


def test_acceptance_06_composition_property_suite():
    start = time.monotonic()
    violations = []
    for f, g in CORPUS:
        mids = [(l.left + l.right) / 2 for l in laps(compose(g, f))]
        violations.extend(composition_property_check(f, g, mids))
    assert violations == []
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(6, elapsed, "zero violations over 1000 random map pairs")


def test_acceptance_07_witness_and_shortcut_suite():
    start = time.monotonic()
    lemma_hits = 0
    remark_hits = 0
    for f, g in CORPUS:
        for h in (f, g):
            lap_list = laps(h)
            for k in range(1, len(lap_list) - 1):
                mid = (lap_list[k].left + lap_list[k].right) / 2
                if remark_no_zigzag(h, k):
                    remark_hits += 1
                    assert not is_in_zigzag(h, mid).in_zigzag
                if lemma_witness(h, mid) is not None:
                    lemma_hits += 1
                    assert not is_in_zigzag(h, mid).in_zigzag
    assert lemma_hits > 0 and remark_hits > 0
    elapsed = time.monotonic() - start
    report(7, elapsed, f"{lemma_hits} witnesses and {remark_hits} shortcuts, zero violations")


def test_acceptance_08_branch_nesting_suite():
    start = time.monotonic()
    rng = random.Random(97)
    iterates = {j: iterate(MINC, j) for j in range(1, 7)}
    checked = 0
    for _ in range(100):
        chain = [F(rng.randint(0, 64), 64)]
        for _ in range(6):
            chain.append(rng.choice(naive_solutions(MINC, chain[-1])))
        for i in range(6):
            for j in range(1, 6 - i):
                outer = branch(iterates[j], chain[i + j]).B
                inner = branch(iterates[j + 1], chain[i + j + 1]).B
                assert outer[0] <= inner[0] and inner[1] <= outer[1]
                checked += 1
    elapsed = time.monotonic() - start
    report(8, elapsed, f"{checked} nested branch containments hold exactly")


def _grid_witness_exists(f, lap) -> bool:
    """Brute-force witness existence over the 1/1024 grid of candidates."""
    xs = tuple(sorted(set(f.xs) | {F(i, 1024) for i in range(1025)}))
    _, keys = _int_keys([f(x) for x in xs])
    return _WitnessIndex(keys).witness(xs.index(lap.left), xs.index(lap.right)) is not None


def test_acceptance_09_grid_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(31415)
    laps_checked = 0
    for _ in range(200):
        f = random_map(rng, max_breakpoints=6, min_breakpoints=4)
        for lap in laps(f)[1:-1]:
            p, q = f.xs.index(lap.left), f.xs.index(lap.right)
            found = _WitnessIndex(f._keys[2]).witness(p, q)
            assert (found is not None) == _grid_witness_exists(f, lap)
            laps_checked += 1
    elapsed = time.monotonic() - start
    report(9, elapsed, f"breakpoint and grid searches agree on {laps_checked} laps")


def test_acceptance_10_leo_machinery():
    start = time.monotonic()
    partition = markov_partition(MINC)
    assert partition == [F(0), F(1, 3), F(4, 9), F(5, 9), F(2, 3), F(1)]
    assert is_primitive(MINC, partition)

    eps = F(1, 6)
    n = leo_uniform_N(MINC, eps)
    assert n == 3
    power = iterate(MINC, n)
    # exhaustive check over every endpoint-grid interval of length >= eps
    grid = sorted(set(power.xs) | {F(k, 24) for k in range(25)})
    intervals = 0
    for i, u in enumerate(grid):
        for v in grid[i + 1 :]:
            if v - u >= eps:
                assert image_interval(power, u, v) == (F(0), F(1))
                intervals += 1
    # and the scale-wise covering criterion, which covers arbitrary endpoints
    assert uniformly_onto(power, eps)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(10, elapsed, f"primitive on 5 cells; N={n} verified on {intervals} intervals")
