import random
from fractions import Fraction as F

import pytest

import plzig.zigzag as zigzag
from plzig.plmap import compose, iterate, laps, make_plmap
from plzig.zigzag import _WitnessIndex, _witness_table, is_in_zigzag, zigzag_set
from plzig.factorize import MINC_BETA_LOW, MINC_BETA_HIGH, minc_map, split_case1, split_case2

from conftest import (
    composition_property_check,
    critical_set,
    lemma_witness,
    naive_lap_witness,
    naive_solutions,
    random_map,
    remark_no_zigzag,
    two_pointer_lap_witness,
    witness_is_valid,
)


@pytest.fixture(scope="module")
def w_map():
    # five laps, one bracketable fold: zigzag locus is exactly (3/5, 4/5)
    return make_plmap(
        [(0, 0), (F(1, 5), 1), (F(2, 5), F(1, 4)), (F(3, 5), F(3, 4)), (F(4, 5), F(1, 2)), (1, 1)]
    )


@pytest.fixture(scope="module")
def ww_map():
    # five laps, two bracketable folds: zigzag locus (1/5, 2/5) u (3/5, 4/5)
    return make_plmap(
        [(0, 0), (F(1, 5), F(17, 20)), (F(2, 5), F(1, 2)), (F(3, 5), F(17, 20)), (F(4, 5), F(1, 4)), (1, 1)]
    )


@pytest.fixture(scope="module")
def minc_g(minc):
    # the rebonded map for the double-step pipeline at the fixed point
    f2 = iterate(minc, 2)
    pair = split_case1(f2, MINC_BETA_LOW)
    return compose(pair.s, pair.t)


def in_zz(f, y):
    return is_in_zigzag(f, y).in_zigzag


def at_xs(f, w):
    """A witness given as breakpoint indices of f, as their x coordinates."""
    return None if w is None else (f.xs[w[0]], f.xs[w[1]])


class TestIsInZigzag:
    def test_minc_fixed_point_is_inside(self, minc):
        v = is_in_zigzag(minc, F(1, 2))
        assert v.in_zigzag
        assert v.applicable_laps == ((F(4, 9), F(5, 9)),)
        assert v.witnesses == ((F(1, 3), F(2, 3)),)

    def test_rebonded_map_frees_the_fixed_point(self, minc_g):
        assert not in_zz(minc_g, F(1, 2))

    def test_identity_never(self, identity):
        for q in [F(0), F(1, 7), F(1, 2), F(1)]:
            assert not in_zz(identity, q)

    def test_w_map_locus_iff(self, w_map):
        c = critical_set(w_map)
        samples = (
            [F(0), F(1), F(1, 10)]
            + c
            + [(a + b) / 2 for a, b in zip([F(0)] + c, c + [F(1)])]
        )
        for y in samples:
            assert in_zz(w_map, y) == (F(3, 5) < y < F(4, 5)), y

    def test_ww_map_locus_iff(self, ww_map):
        for y in [F(i, 40) for i in range(41)]:
            expected = F(1, 5) < y < F(2, 5) or F(3, 5) < y < F(4, 5)
            assert in_zz(ww_map, y) == expected, y

    def test_outside_domain_rejected(self, minc):
        with pytest.raises(ValueError):
            is_in_zigzag(minc, F(9, 8))

    def test_witnesses_revalidate(self):
        rng = random.Random(21)
        for _ in range(100):
            f = random_map(rng)
            lp = laps(f)
            for lap in lp[1:-1]:
                y = (lap.left + lap.right) / 2
                v = is_in_zigzag(f, y)
                for (ck, ck1), w in zip(v.applicable_laps, v.witnesses):
                    if w is not None:
                        assert witness_is_valid(f, ck, ck1, *w)

    def test_witness_must_bracket_the_lap(self, minc):
        # a pair that does not hold the lap strictly inside is no witness
        assert not witness_is_valid(minc, F(4, 9), F(5, 9), F(1, 2), F(2, 3))
        assert not witness_is_valid(minc, F(4, 9), F(5, 9), F(1, 3), F(5, 9))
        assert witness_is_valid(minc, F(4, 9), F(5, 9), F(1, 3), F(2, 3))

    def test_search_matches_naive_reference(self):
        rng = random.Random(22)
        for _ in range(200):
            f = random_map(rng)
            for lap in laps(f)[1:-1]:
                p, q = f.xs.index(lap.left), f.xs.index(lap.right)
                got = at_xs(f, _WitnessIndex(f._keys[2]).witness(p, q))
                ref = naive_lap_witness(f, lap.left, lap.right)
                definition = next(
                    (
                        (a, b)
                        for a in f.xs if a < lap.left
                        for b in f.xs if b > lap.right
                        if witness_is_valid(f, lap.left, lap.right, a, b)
                    ),
                    None,
                )
                assert ref == definition
                assert (got is None) == (ref is None)
                if got is not None:
                    assert witness_is_valid(f, lap.left, lap.right, *got)


class TestWitnessIdentity:
    """Certificates and reports serialize the exact witness pair, so the
    pointer-chain search must return the two-pointer sweep's pair, not just
    some valid one."""

    def test_pairs_match_two_pointer_oracle(self, minc):
        rng = random.Random(27)
        # small value denominators make equal values, where only exclusive
        # attainment counts
        maps = [
            random_map(rng, max_breakpoints=40, denominator=rng.choice([12, 16, 64]))
            for _ in range(300)
        ]
        maps += [iterate(minc, k) for k in range(1, 5)]
        for f in maps:
            lap_list, table = laps(f), _witness_table(f)
            assert table[0] is None and table[-1] is None
            for lap, w in zip(lap_list[1:-1], table[1:-1]):
                ref = two_pointer_lap_witness(f, lap)
                assert at_xs(f, w) == ref, (f.points, lap)
                p, q = f.xs.index(lap.left), f.xs.index(lap.right)
                assert at_xs(f, _WitnessIndex(f._keys[2]).witness(p, q)) == ref, (f.points, lap)

    def test_minc4_table_revalidates(self, minc):
        f = iterate(minc, 4)
        lap_list, table = laps(f), _witness_table(f)
        found = 0
        for lap, w in zip(lap_list, table):
            if w is not None:
                assert witness_is_valid(f, lap.left, lap.right, *at_xs(f, w))
                found += 1
        assert found > 0


class TestNearestLists:
    """A rising lap's two backward lists are a falling lap's two, swapped,
    so one map builds six nearest-value lists for both directions, and a
    lap of one direction four."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        nearest = zigzag._nearest

        def counting(keys, forward, hit):
            calls.append((forward, hit))
            return nearest(keys, forward, hit)

        monkeypatch.setattr(zigzag, "_nearest", counting)
        return calls

    def test_locus_builds_six(self, minc, calls):
        zigzag_set(iterate(minc, 4))
        assert len(calls) == len(set(calls)) == 6

    def test_turning_point_builds_six(self, minc, calls):
        f = iterate(minc, 4)
        y = laps(f)[2].left  # the turn between two interior laps, one of each direction
        assert len(is_in_zigzag(f, y).applicable_laps) == 2
        assert len(calls) == 6

    def test_one_lap_builds_four(self, minc, calls):
        f = iterate(minc, 4)
        lap = laps(f)[2]
        assert len(is_in_zigzag(f, (lap.left + lap.right) / 2).applicable_laps) == 1
        assert len(calls) == 4


class TestZigzagSet:
    def test_minc(self, minc):
        assert zigzag_set(minc) == ((F(4, 9), F(5, 9)),)

    def test_identity_empty(self, identity):
        assert zigzag_set(identity) == ()

    def test_two_component_locus(self, ww_map):
        assert zigzag_set(ww_map) == ((F(1, 5), F(2, 5)), (F(3, 5), F(4, 5)))

    def test_set_agrees_with_pointwise_verdicts(self):
        rng = random.Random(23)
        for _ in range(50):
            f = random_map(rng)
            zz = zigzag_set(f)
            for lap in laps(f):
                y = (lap.left + lap.right) / 2
                inside = any(a < y < b for a, b in zz)
                assert in_zz(f, y) == inside


class TestKeysOnly:
    def test_verdict_and_locus_make_no_fraction_points(self):
        # the verdict and the locus read the map's integer keys and make
        # Fractions only for the laps, witnesses and run ends they report
        for query in (lambda g: is_in_zigzag(g, F(1, 2)), zigzag_set):
            g = iterate(minc_map(), 4)
            got = query(g)
            assert not {"points", "xs", "ys"} & g.__dict__.keys()
            assert got == query(make_plmap(g.points))


class TestRemark:
    def test_minc_laps(self, minc):
        assert remark_no_zigzag(minc, 1) is True  # endpoint maps to 1
        assert remark_no_zigzag(minc, 2) is False  # values 1/3 and 2/3
        assert remark_no_zigzag(minc, 3) is True  # endpoint maps to 0

    def test_interior_values_only(self):
        f = make_plmap(
            [(0, F(1, 8)), (F(1, 4), F(7, 8)), (F(1, 2), F(1, 4)), (F(3, 4), F(3, 4)), (1, F(1, 8))]
        )
        for k in range(1, len(laps(f)) - 1):
            assert remark_no_zigzag(f, k) is False

    def test_bad_index_rejected(self, minc):
        for k in (0, 4, -1):
            with pytest.raises(ValueError):
                remark_no_zigzag(minc, k)

    def test_remark_implies_no_zigzag(self):
        rng = random.Random(24)
        for _ in range(150):
            f = random_map(rng)
            lp = laps(f)
            for k in range(1, len(lp) - 1):
                if remark_no_zigzag(f, k):
                    y = (lp[k].left + lp[k].right) / 2
                    assert not in_zz(f, y)


class TestLemmaWitness:
    def test_monotone_map(self):
        f = make_plmap([(0, 0), (F(1, 4), F(1, 2)), (1, 1)])
        got = lemma_witness(f, F(1, 3))
        assert got is not None
        a, b, case = got
        assert (a, b) == (F(0), F(1))
        assert not in_zz(f, F(1, 3))

    def test_minc_high_point(self, minc):
        got = lemma_witness(minc, F(9, 10))
        assert got == (F(2, 3), F(1), 1)
        assert not in_zz(minc, F(9, 10))

    def test_one_to_one_limits_at_turning_points(self, minc):
        # at a turning point y the candidates reach the far ends of both laps
        # holding y: b up to the right lap's right end (case 1), a down to the
        # left lap's left end (case 2)
        assert lemma_witness(minc, F(1, 3)) == (F(1, 3), F(4, 9), 1)
        assert lemma_witness(minc, F(2, 3)) == (F(2, 3), F(1), 1)
        f = make_plmap(
            [(0, F(5, 16)), (F(3, 16), F(51, 64)), (F(25, 64), F(17, 64)), (F(17, 32), F(37, 64)), (1, 0)]
        )
        assert lemma_witness(f, F(25, 64)) == (F(3, 16), F(1), 2)

    def test_rebonded_fixed_point_has_witness(self, minc_g):
        got = lemma_witness(minc_g, F(1, 2))
        assert got is not None
        a, b, case = got
        assert a <= F(1, 2) <= b
        # re-check all three conditions by direct evaluation
        for level in (minc_g(a), minc_g(b)):
            assert all(not (a < c < b) for c in naive_solutions(minc_g, level))
        if case == 1:
            assert minc_g(a) in (F(0), F(1))
        else:
            assert minc_g(b) in (F(0), F(1))

    def test_witness_implies_not_in_zigzag(self):
        rng = random.Random(25)
        for _ in range(150):
            f = random_map(rng)
            points = [(l.left + l.right) / 2 for l in laps(f)] + critical_set(f)
            for y in points:
                if lemma_witness(f, y) is not None:
                    assert not in_zz(f, y)


class TestCompositionProperty:
    def test_stage_maps(self, minc):
        f2 = iterate(minc, 2)
        p1 = split_case1(f2, MINC_BETA_LOW)
        g_map = compose(p1.s, p1.t)
        mids = [(l.left + l.right) / 2 for l in laps(g_map)]
        assert composition_property_check(p1.t, p1.s, mids) == []
        p2 = split_case2(f2, MINC_BETA_HIGH)
        g2_map = compose(p2.s, p2.t)
        mids2 = [(l.left + l.right) / 2 for l in laps(g2_map)]
        assert composition_property_check(p2.t, p2.s, mids2) == []

    def test_identity_pair_vacuous(self, identity):
        assert composition_property_check(identity, identity, [F(1, 2)]) == []

    def test_random_pairs(self):
        rng = random.Random(26)
        for _ in range(100):
            f = random_map(rng)
            g = random_map(rng)
            mids = [(l.left + l.right) / 2 for l in laps(compose(g, f))]
            assert composition_property_check(f, g, mids) == []
