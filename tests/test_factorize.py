import copy
import hashlib
import json
import random
import re
import time
from fractions import Fraction as F
from types import ModuleType

import pytest

import plzig.factorize
from plzig.plmap import (
    DEFAULT_BREAKPOINT_BUDGET,
    compose,
    dumps_map,
    is_onto,
    iterate,
    laps,
    level_crossings,
    loads_map,
    make_plmap,
)
from plzig.zigzag import composite_verdict, is_in_zigzag
from plzig.dynamics import BackwardOrbit, OrbitValidationError, branch
from plzig.factorize import (
    CASE1,
    CASE2,
    CertifyError,
    MINC_BETA_HIGH,
    MINC_BETA_LOW,
    certificate_from_dict,
    certificate_to_dict,
    certificate_to_json,
    certify_general,
    certify_minc,
    _assemble,
    find_beta,
    minc_map,
    minc_stage_choice,
    split_case1,
    split_case2,
    verify_certificate,
)

from conftest import (
    candidate_count,
    check_certificate_stages,
    check_certificate_text,
    check_factor_pair,
    check_factor_pair_pointwise,
    check_rebonded_verdict,
    image_interval,
    lemma_witness,
    naive_compose,
    naive_solutions,
    periodic_cycles,
    random_map,
    witness_is_valid,
)


@pytest.fixture(scope="module")
def f2(minc):
    return iterate(minc, 2)


@pytest.fixture(scope="module")
def low_pair(f2):
    return split_case1(f2, MINC_BETA_LOW)


@pytest.fixture(scope="module")
def high_pair(f2):
    return split_case2(f2, MINC_BETA_HIGH)


class TestMincMap:
    def test_vertex_values(self, minc):
        assert minc(F(1, 3)) == 1
        assert minc(F(5, 9)) == F(2, 3)

    def test_onto_with_interior_fixed_point(self, minc):
        assert is_onto(minc)
        assert minc(F(1, 2)) == F(1, 2)


class TestSplitCase1:
    def test_known_shape(self, low_pair):
        assert low_pair.s.points == (
            (F(0), F(7, 18)),
            (F(1, 9), F(0)),
            (F(4, 27), F(7, 27)),
            (F(5, 27), F(7, 54)),
            (F(2, 9), F(7, 18)),
            (F(1, 3), F(0)),
            (F(7, 18), F(7, 18)),
            (F(1), F(1)),
        )

    def test_identity_above_beta(self, low_pair):
        s = low_pair.s
        assert (F(7, 18), F(7, 18)) in s.points and s.points[-1] == (F(1), F(1))
        for y in (F(7, 18), F(1, 2), F(3, 4), F(1)):
            assert s(y) == y

    def test_exact_factorization(self, low_pair, f2):
        assert compose(low_pair.t, low_pair.s) == f2

    def test_fixed_point_is_preserved(self, low_pair):
        assert low_pair.s(F(1, 2)) == F(1, 2)

    def test_both_factors_onto(self, low_pair):
        assert is_onto(low_pair.s) and is_onto(low_pair.t)

    def test_wrong_beta_rejected(self, f2):
        with pytest.raises(ValueError):
            split_case1(f2, F(1, 2))

    def test_needs_top_crossing_below_beta(self):
        f = make_plmap([(0, F(1, 2)), (F(1, 2), 0), (1, 1)])
        with pytest.raises(ValueError):
            split_case1(f, F(1, 2))

    def test_fold_at_the_right_end(self, tent):
        # beta = 1: s is 1 - f on all of [0, 1], with no identity part
        pair = split_case1(tent, 1)
        assert pair.s.points == ((0, 1), (F(1, 2), 0), (1, 1))
        assert pair.t.points == ((0, 1), (1, 0))
        check_factor_pair(tent, 1, pair.s, pair.t)

    def test_map_with_a_collinear_point_splits(self):
        # (1/6, 1/2) lies on the first segment, and make_plmap drops it; the
        # pair still composes to f
        f = make_plmap(tuple(
            (F(x), F(y)) for x, y in ((0, 0), ("1/6", "1/2"), ("1/3", 1), ("2/3", 0), (1, 1))
        ))
        pair = split_case1(f, F(2, 3))
        check_factor_pair(make_plmap(f.points), 1, pair.s, pair.t)


class TestSplitCase2:
    def test_known_shape(self, high_pair):
        assert high_pair.s.points == (
            (F(0), F(0)),
            (F(11, 18), F(11, 18)),
            (F(2, 3), F(1)),
            (F(7, 9), F(11, 18)),
            (F(22, 27), F(47, 54)),
            (F(23, 27), F(20, 27)),
            (F(8, 9), F(1)),
            (F(1), F(11, 18)),
        )

    def test_identity_below_beta(self, high_pair):
        for y in (F(0), F(1, 4), F(7, 18), F(11, 18)):
            assert high_pair.s(y) == y

    def test_exact_factorization(self, high_pair, f2):
        assert compose(high_pair.t, high_pair.s) == f2

    def test_pointwise_factorization_sample(self, high_pair, f2):
        rng = random.Random(41)
        for _ in range(500):
            y = F(rng.randint(0, 4099), 4099)
            assert high_pair.t(high_pair.s(y)) == f2(y)

    def test_wrong_beta_rejected(self, f2):
        with pytest.raises(ValueError):
            split_case2(f2, F(1, 2))

    def test_map_with_a_collinear_point_splits(self):
        # the mirror image of case 1's map: (5/6, 1/2) lies on the last segment
        f = make_plmap(tuple(
            (F(x), F(y)) for x, y in ((0, 0), ("1/3", 1), ("2/3", 0), ("5/6", "1/2"), (1, 1))
        ))
        pair = split_case2(f, F(1, 3))
        check_factor_pair(make_plmap(f.points), 1, pair.s, pair.t)

    def test_fold_at_the_left_end(self):
        # beta = 0: s is 1 - f on all of [0, 1], with no identity part
        f = make_plmap([(0, 1), (F(1, 2), 0), (1, 1)])
        pair = split_case2(f, 0)
        assert pair.s.points == ((0, 0), (F(1, 2), 1), (1, 0))
        assert pair.t.points == ((0, 1), (1, 0))
        check_factor_pair(f, 1, pair.s, pair.t)


class TestFoldCurveAnchors:
    def test_all_four_fold_maps_match_reference_vertices(self, low_pair, high_pair):
        from reference_curves import (
            FOLD_HIGH_S_VERTICES,
            FOLD_HIGH_T_VERTICES,
            FOLD_LOW_S_VERTICES,
            FOLD_LOW_T_VERTICES,
        )

        for fmap, ref in (
            (low_pair.s, FOLD_LOW_S_VERTICES),
            (low_pair.t, FOLD_LOW_T_VERTICES),
            (high_pair.s, FOLD_HIGH_S_VERTICES),
            (high_pair.t, FOLD_HIGH_T_VERTICES),
        ):
            assert len(fmap.points) == len(ref)
            for (x, y), (rx, ry) in zip(fmap.points, ref):
                assert abs(float(x) - rx) < 1e-9 and abs(float(y) - ry) < 1e-9


class TestFindBeta:
    def test_low_window(self, f2):
        alpha, beta = find_beta(f2, (F(1, 3), F(1, 3) + F(1, 9)), CASE1)
        assert (alpha, beta) == (F(1, 3), F(7, 18))

    def test_high_window(self, f2):
        gamma, beta = find_beta(f2, (F(5, 9), F(2, 3)), CASE2)
        assert (gamma, beta) == (F(2, 3), F(11, 18))

    def test_window_without_fold(self, minc):
        # the map is monotone on [0, 1/3]; no full fold lives there
        with pytest.raises(ValueError):
            find_beta(minc, (F(0), F(1, 4)), CASE1)

    def test_matches_a_scan_of_the_crossings(self, minc, f2):
        # every window between twelfths, on minc^1..3 and random maps:
        # the fold is the one the definition picks from all crossings
        rng = random.Random(43)
        maps = [minc, f2, iterate(minc, 3)] + [random_map(rng, max_breakpoints=10, denominator=8) for _ in range(30)]
        grid = [F(k, 12) for k in range(13)]
        for f in maps:
            ones, zeros = naive_solutions(f, 1), naive_solutions(f, 0)
            for lo, hi in ((lo, hi) for lo in grid for hi in grid if lo < hi):
                for case in (CASE1, CASE2):
                    inside = (lambda x: lo <= x < hi) if case == CASE1 else (lambda x: lo < x <= hi)
                    folds = [(max(w for w in ones if inside(w) and w < z), z)
                             for z in zeros if inside(z) and any(inside(w) and w < z for w in ones)]
                    if not folds:
                        with pytest.raises(ValueError):
                            find_beta(f, (lo, hi), case)
                    elif case == CASE1:
                        assert find_beta(f, (lo, hi), case) == folds[0], (f, lo, hi)
                    else:
                        assert find_beta(f, (lo, hi), case) == folds[-1][::-1], (f, lo, hi)


class TestStageChoice:
    def test_rule(self):
        assert minc_stage_choice(F(1, 2)) == CASE1
        assert minc_stage_choice(F(0)) == CASE2
        assert minc_stage_choice(F(7, 18)) == CASE2  # closed endpoint
        assert minc_stage_choice(F(7, 18) + F(1, 1000)) == CASE1

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            minc_stage_choice(F(19, 18))


def _rebonded(cert):
    """The rebonded map g = s_prev ∘ t of every stage after the first,
    composed here: the stage records do not hold it."""
    return [compose(prev.pair.s, st.pair.t) for prev, st in zip(cert.stages, cert.stages[1:])]


class TestBuildGSequence:
    """The stage loop rebonds consecutive pairs through g = s_prev ∘ t."""

    def test_constant_pairs(self, low_pair):
        cert = certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4)
        gs = _rebonded(cert)
        assert len(gs) == 3
        assert gs[0] == gs[1] == gs[2] == compose(low_pair.s, low_pair.t)

    def test_alternating_pairs(self, low_pair, high_pair, f2):
        block = [F(14, 323), F(213, 323), F(126, 323), F(42, 323)]
        cert = certify_minc(BackwardOrbit.of([], block), stages=4)
        assert [st.pair for st in cert.stages] == [low_pair, high_pair] * 2
        gs = _rebonded(cert)
        assert gs[0] == compose(low_pair.s, high_pair.t)
        assert gs[1] == compose(high_pair.s, low_pair.t)
        for st, g in zip(cert.stages[1:], gs):
            assert st.verdict == is_in_zigzag(g, st.coordinate)
        for pair in (low_pair, high_pair):
            assert compose(pair.t, pair.s) == f2

    def test_pair_that_does_not_split_the_block_rejected(self, minc, identity):
        # g(c_i) = c_{i-1} follows from t∘s = f^step, which the library
        # takes from the split's construction; the tests' checker of
        # certificate texts is its one check, on either of its paths
        with pytest.raises(AssertionError, match="t∘s is not f\\^step"):
            check_factor_pair(minc, 1, identity, identity)
        with pytest.raises(AssertionError, match="t∘s is not f\\^step"):
            check_factor_pair_pointwise(minc, identity, identity)

    def test_mismatched_blocks_rejected(self, minc):
        # a stage whose pair splits another block map does not verify
        data = certificate_to_dict(certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4))
        other = split_case1(iterate(minc, 4), F(55, 162))
        data["stages"][1].update(beta=str(other.beta))
        ok, msg = verify_certificate(data)
        assert (ok, msg) == (False, "stage 2 beta: stored '55/162', re-derived '7/18'")


def _foldable_map(rng):
    """A random map with a split of either case, and the pairs it has."""
    while True:
        f = random_map(rng, 9, denominator=8, min_breakpoints=5)
        ones, zeros = level_crossings(f, 1), level_crossings(f, 0)
        pairs = [split_case1(f, z) for z in zeros if ones and 0 < z and ones[0] < z]
        pairs += [split_case2(f, w) for w in ones if zeros and w < 1 and w < zeros[-1]]
        for pair in pairs:
            check_factor_pair(f, 1, pair.s, pair.t)
        if pairs:
            return pairs


class TestWindowedVerdict:
    """composite_verdict(s, t, c) is is_in_zigzag(s ∘ t, c), decided on a
    window of the composite; every stage the suite certifies is checked the
    same way by conftest's _check_certified_stages."""

    def test_random_pairs(self):
        # half the pairs are two random maps, half an s and a t from splits
        # of one random block map, as in the stage loop; the points are
        # every breakpoint of g and every midpoint between two of them
        rng = random.Random(20261018)
        queries = 0
        for k in range(300):
            if k % 2:
                s, t = random_map(rng, 7), random_map(rng, 7)
            else:
                pairs = _foldable_map(rng)
                s, t = rng.choice(pairs).s, rng.choice(pairs).t
            g = naive_compose(s, t)
            xs = g.xs
            for c in xs + tuple((a + b) / 2 for a, b in zip(xs, xs[1:])):
                check_rebonded_verdict(s, t, g, c, composite_verdict(s, t, c))
                queries += 1
        assert queries > 4000

    def test_window_is_a_few_segments_of_t(self, monkeypatch, minc):
        # the general const-1/2 stage composes 2 of t's 256 segments, and
        # the 8/19 cycle 2 of 4,096, where all of g has 11,393 and
        # 2,803,713 candidate breakpoints
        import plzig.zigzag

        compose_segments = plzig.zigzag._compose_segments
        spans = []

        def recording(outer, inner, lo, hi):
            spans.append((hi - lo, len(inner.xs) - 1))
            return compose_segments(outer, inner, lo, hi)

        monkeypatch.setattr(plzig.zigzag, "_compose_segments", recording)
        for period, want in (([F(1, 2)], (2, 256)), ([F(8, 19), F(9, 19)], (2, 4096))):
            spans.clear()
            cert = certify_general(minc, BackwardOrbit.of([], period), stages=6)
            assert cert.passed and spans == [want]


class TestRebondedZigzagTransfer:
    def test_zigzags_of_g_pull_back_into_s(self, low_pair, high_pair):
        # wherever the rebonded map has a zigzag, the fold map already had
        # one at the transferred point
        for s_pair in (low_pair, high_pair):
            for t_pair in (low_pair, high_pair):
                g = compose(s_pair.s, t_pair.t)
                for lap in laps(g)[1:-1]:
                    y = (lap.left + lap.right) / 2
                    if is_in_zigzag(g, y).in_zigzag:
                        assert is_in_zigzag(s_pair.s, t_pair.t(y)).in_zigzag


class TestCertifyMinc:
    def test_fixed_point_certificate(self, minc):
        orbit = BackwardOrbit.constant(F(1, 2))
        cert = certify_minc(orbit, stages=10)
        assert cert.passed
        assert len(cert.stages) == 10
        assert cert.repeat_index == 3
        assert len(set(_rebonded(cert))) == 1
        assert all(st.pair.case == CASE1 for st in cert.stages)
        assert all(st.n == 2 * st.index for st in cert.stages)

    def test_transform_point_fixed(self, minc):
        orbit = BackwardOrbit.constant(F(1, 2))
        cert = certify_minc(orbit, stages=10)
        assert cert.passed
        assert [st.coordinate for st in cert.stages] == [F(1, 2)] * 10

    def test_zero_orbit(self):
        orbit = BackwardOrbit.constant(0)
        cert = certify_minc(orbit, stages=5)
        assert cert.passed
        assert all(st.pair.case == CASE2 for st in cert.stages)
        assert [st.coordinate for st in cert.stages] == [F(0)] * 5

    def test_invalid_orbit_rejected(self):
        with pytest.raises(OrbitValidationError):
            certify_minc(BackwardOrbit.constant(F(1, 3)), stages=4)

    def test_redundant_prefix_is_accepted(self, minc):
        # backward orbits are necessarily purely periodic, so an explicit
        # prefix only restates block values; the pipelines must not care
        orbit = BackwardOrbit.of([F(1, 2), F(1, 2)], [F(1, 2)])
        cert = certify_minc(orbit, stages=4)
        assert cert.passed
        gcert = certify_general(minc, orbit, stages=3)
        assert gcert.passed
        assert (gcert.stabilization.a, gcert.stabilization.b) == (F(1, 3), F(2, 3))

    def test_two_cycle_orbit(self, minc):
        # 4/19 -> 12/19 -> 4/19 under the map, so the backward orbit
        # alternates; only even coordinates drive the stage choice
        a = F(4, 19)
        b = minc(a)
        assert minc(b) == a and a != b
        orbit = BackwardOrbit.of([], [a, b])
        cert = certify_minc(orbit, stages=8)
        assert cert.passed
        assert [st.coordinate for st in cert.stages] == [a] * 8

    def test_alternating_case_orbit(self, minc):
        # a genuine 4-cycle whose even coordinates straddle the threshold:
        # stage cases alternate and two distinct rebonded maps appear
        block = [F(14, 323), F(213, 323), F(126, 323), F(42, 323)]
        for cur, prev in zip(block[1:] + block[:1], block):
            assert minc(cur) == prev
        orbit = BackwardOrbit.of([], block)
        cert = certify_minc(orbit, stages=8)
        assert cert.passed
        assert [st.pair.case for st in cert.stages] == [CASE1, CASE2] * 4
        assert len(set(_rebonded(cert))) == 2
        assert [st.coordinate for st in cert.stages] == [F(126, 323), F(14, 323)] * 4
        ok, msg = verify_certificate(certificate_to_dict(cert))
        assert ok, msg

    def test_periodic_stage_data_is_sound(self, minc):
        cert = certify_minc(BackwardOrbit.constant(F(1, 2)), stages=6)
        r = cert.repeat_index
        earlier = cert.stages[r - 2]
        repeated = cert.stages[r - 1]
        assert (earlier.pair.case, earlier.pair.beta, earlier.coordinate) == (
            repeated.pair.case,
            repeated.pair.beta,
            repeated.coordinate,
        )
        assert earlier.verdict == repeated.verdict
        gs = _rebonded(cert)
        assert gs[r - 3] == gs[r - 2]

    def test_minimum_two_stages(self):
        with pytest.raises(ValueError):
            certify_minc(BackwardOrbit.constant(F(1, 2)), stages=1)


def minc_block_certificate(case: str, beta, x, stages: int = 4):
    """The stage loop on minc^2 with one fold pair at every stage (the Minc
    pipeline's n0 = 0 and step 2), at the constant orbit x.  It looks up
    ``plzig.factorize._assemble`` when called, so the stage loop in force,
    recorded or planted with a fault, is the one that runs."""
    pair = (split_case1 if case == CASE1 else split_case2)(MINC_BLOCK, F(beta))
    orbit = BackwardOrbit.constant(F(x))
    return plzig.factorize._assemble(minc_map(), orbit, None, 0, 2, lambda i: pair, stages)


class TestStagesThatFail:
    """One certificate for each way a stage fails, both true records of the
    stage loop on another fold of minc^2 than the pipeline's, which the
    tests' checkers accept; ``test_other_folds_are_not_the_pipeline_output``
    pins the verifier's reasons for rejecting them."""

    def test_coordinate_in_a_zigzag(self):
        cert = minc_block_certificate(CASE1, "2/9", "1/2")
        assert (cert.result, cert.failing_stage, cert.repeat_index) == ("fail", 2, 3)
        assert cert.failure_reason == "coordinate 1/2 lies in a zigzag of g"
        assert [st.coordinate for st in cert.stages] == [F(1, 2)] * 4
        lap, witness = (F(13, 27), F(14, 27)), (F(4, 9), F(44, 81))
        for st in cert.stages[1:]:
            assert st.verdict.in_zigzag and st.verdict.failing_lap is None
            assert (st.verdict.applicable_laps, st.verdict.witnesses) == ((lap,), (witness,))
        g = naive_compose(cert.stages[0].pair.s, cert.stages[1].pair.t)
        assert witness_is_valid(g, *lap, *witness)
        check_certificate_text(certificate_to_json(cert))
        check_certificate_stages(cert)

    def test_s_moves_the_tracked_point(self):
        cert = minc_block_certificate(CASE2, "11/18", 1)
        assert (cert.result, cert.failing_stage, cert.repeat_index) == ("fail", 1, 3)
        assert cert.failure_reason == "s moves x_2 = 1 to 11/18"
        assert [st.coordinate for st in cert.stages] == [F(11, 18)] * 4
        assert not any(st.verdict.in_zigzag for st in cert.stages[1:])
        check_certificate_text(certificate_to_json(cert))
        check_certificate_stages(cert)


class TestCertifyGeneral:
    def test_minc_fixed_point(self, minc):
        orbit = BackwardOrbit.constant(F(1, 2))
        cert = certify_general(minc, orbit, stages=4)
        assert cert.passed
        assert (cert.stabilization.a, cert.stabilization.b) == (F(1, 3), F(2, 3))
        assert cert.stabilization.side == "left-gap"
        block = iterate(minc, cert.stabilization.step)
        for st in cert.stages:
            assert compose(st.pair.t, st.pair.s) == block
        assert [st.coordinate for st in cert.stages] == [F(1, 2)] * len(cert.stages)

    def test_tent_fixed_point(self, tent):
        orbit = BackwardOrbit.constant(F(2, 3))
        cert = certify_general(tent, orbit, stages=3)
        assert cert.passed
        block = iterate(tent, cert.stabilization.step)
        for st in cert.stages:
            assert compose(st.pair.t, st.pair.s) == block
        for st, g in zip(cert.stages[1:], _rebonded(cert)):
            assert g(st.coordinate) == cert.stages[st.index - 2].coordinate

    def test_two_cycle_orbits(self, minc, tent):
        # period-2 backward orbits force block lengths that are period
        # multiples; the tracked coordinate sits on one residue
        for f, block in ((tent, [F(2, 5), F(4, 5)]), (minc, [F(4, 19), F(12, 19)])):
            orbit = BackwardOrbit.of([], block)
            cert = certify_general(f, orbit, stages=3)
            assert cert.passed
            assert cert.stabilization.step % 2 == 0
            assert [st.coordinate for st in cert.stages] == [block[0]] * len(cert.stages)
            ok, msg = verify_certificate(certificate_to_dict(cert))
            assert ok, msg

    def test_fixed_endpoint_uses_right_gap(self, minc, tent):
        # the constant-0 orbit pins the tracked value to the left end of the
        # branch window, so the fold must move to the right end
        for f in (minc, tent):
            cert = certify_general(f, BackwardOrbit.constant(0), stages=3)
            assert cert.passed
            assert cert.stabilization.side == "right-gap"
            assert all(st.pair.case == CASE2 for st in cert.stages)
            assert [st.coordinate for st in cert.stages] == [F(0)] * len(cert.stages)

    def test_all_minc_cycles_of_period_at_most_3(self, minc):
        # every cycle certifies at 6 stages from its least point, and its
        # certificate verifies; at 7 of them the rebonded map has more
        # candidate breakpoints than the default budget allows, so composing
        # it in full was refused
        cycles = periodic_cycles(minc, 3)
        assert len(cycles) == 31
        too_big = set()
        minc_repeats = []
        texts = []
        for forward in cycles:
            orbit = BackwardOrbit.of([], forward[:1] + forward[:0:-1])
            cert = certify_general(minc, orbit, stages=6)
            assert cert.passed, forward
            texts.append(certificate_to_json(cert))
            assert verify_certificate(certificate_to_dict(cert)) == (True, "ok"), forward
            # the Minc pipeline's step 2 is prime to period 3, so its state
            # recurs only after three stages
            minc_cert = certify_minc(orbit, stages=6)
            assert minc_cert.passed, forward
            assert verify_certificate(certificate_to_dict(minc_cert)) == (True, "ok"), forward
            minc_repeats.append((len(forward), minc_cert.repeat_index))
            rebonds = {(a.pair.s, b.pair.t) for a, b in zip(cert.stages, cert.stages[1:])}
            if max(candidate_count(s, t) for s, t in rebonds) > DEFAULT_BREAKPOINT_BUDGET:
                too_big.add(frozenset(forward))
        assert len(too_big) == 7
        assert minc_repeats.count((3, 5)) == 20
        # digest of the 31 texts, in this order; their schema version 3
        # encodings, written while the certify path still read the block map
        # through Fraction points, give these texts when each stage's s and t
        # and the maps table are dropped and map is inlined
        digest = "261538d2840b0b0cb6a7fe1513e34945c99c492e00e9b0ec6c357b7c22b632c5"
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest
        assert {frozenset({F(8, 19), F(9, 19)}), frozenset({F(4, 11), F(5, 11), F(9, 11)})} <= too_big

    def test_all_minc_cycles_of_exact_period_4(self, minc, monkeypatch):
        # the largest powers the lap lookup meets: every cycle of exact
        # period 4 certifies at 6 stages from its least point, with block
        # map minc^4 or minc^8 (87,382 breakpoints).  The stage loop runs
        # unrecorded, so the tests' checker, which rebuilds each block map
        # by reference composition, does not run on these texts
        import plzig.factorize

        monkeypatch.setattr(plzig.factorize, "_assemble", _assemble)
        cycles = [c for c in periodic_cycles(minc, 4) if len(c) == 4]
        assert len(cycles) == 60
        steps, texts = [], []
        for forward in cycles:
            orbit = BackwardOrbit.of([], forward[:1] + forward[:0:-1])
            cert = certify_general(minc, orbit, stages=6)
            assert cert.passed, forward
            steps.append(cert.stabilization.step)
            texts.append(certificate_to_json(cert))
        assert (steps.count(4), steps.count(8)) == (34, 26)
        # digest of the 60 texts, in this order, recorded while the branch
        # still built each power's whole lap table
        digest = "94361e5b93705623c1790b661a2681238420c2e793fc81e75965ee4881bde4ff"
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest

    def test_identity_rejected(self, identity):
        with pytest.raises(CertifyError):
            certify_general(identity, BackwardOrbit.constant(F(1, 4)), stages=3)

    def test_non_onto_rejected(self):
        f = make_plmap([(0, F(1, 4)), (F(1, 2), F(3, 4)), (1, F(1, 4))])
        with pytest.raises(CertifyError):
            certify_general(f, BackwardOrbit.constant(F(1, 2)), stages=3)

    def test_map_without_finite_critical_orbits_rejected(self, passing_certificates):
        # the orbit of the turning point 1/2 under this onto map is not
        # seen to close within the budget
        f = make_plmap([(0, 0), (F(1, 2), 1), (1, F(1, 3))])
        refusal = "map is not verifiably post-critically finite at this budget"
        with pytest.raises(CertifyError) as info:
            certify_general(f, BackwardOrbit.constant(0), stages=3)
        assert str(info.value) == refusal
        data = copy.deepcopy(passing_certificates["general"])
        data["map"] = dumps_map(f)
        data["orbit"] = {"prefix": [], "period": ["0"]}
        assert verify_certificate(data) == (False, f"map: {refusal}")

    def test_block_comes_from_the_stabilization(self, monkeypatch, minc, tent):
        # f^step is composed once, by the stabilization; neither the pipeline
        # nor the verifier of its certificates iterates f again
        import plzig.factorize

        def refuse(*args, **kwargs):
            raise AssertionError("f^step was composed a second time")

        monkeypatch.setattr(plzig.factorize, "iterate", refuse)
        for f, x, stages in ((minc, F(1, 2), 4), (tent, F(2, 3), 3)):
            cert = certify_general(f, BackwardOrbit.constant(x), stages=stages)
            assert cert.passed
            assert verify_certificate(certificate_to_dict(cert)) == (True, "ok")

    def test_stabilization_runs_once_through_its_public_name(self, monkeypatch, minc):
        # the pipeline and the verifier both reach the stabilization through
        # factorize's binding of dynamics.branch_stabilization, once each
        import plzig.factorize

        stabilize = plzig.factorize.branch_stabilization
        calls = []
        monkeypatch.setattr(
            plzig.factorize,
            "branch_stabilization",
            lambda *args, **kwargs: calls.append(args) or stabilize(*args, **kwargs),
        )
        cert = certify_general(minc, BackwardOrbit.constant(F(1, 2)), stages=4)
        assert len(calls) == 1
        calls.clear()
        assert verify_certificate(certificate_to_dict(cert)) == (True, "ok")
        assert len(calls) == 1

    def test_block_map_and_pairs_stay_in_keys(self, monkeypatch, minc):
        # the branch, the fold search, the splits, the windowed verdicts and
        # the map texts all read the block map, s and t through their
        # integer keys, so none of them makes its Fraction points
        import plzig.factorize

        stabilize = plzig.factorize.branch_stabilization
        blocks = []

        def recording(*args, **kwargs):
            stab, block = stabilize(*args, **kwargs)
            blocks.append(block)
            return stab, block

        monkeypatch.setattr(plzig.factorize, "branch_stabilization", recording)
        orbits = [
            BackwardOrbit.constant(F(1, 2)),
            BackwardOrbit.of([], (F(4, 19), F(12, 19))),
            BackwardOrbit.of([], (F(8, 19), F(9, 19))),
        ]
        for orbit in orbits:
            cert = certify_general(minc, orbit, stages=6)
            assert cert.passed
            certificate_to_json(cert)
            maps = [blocks[-1], *(f for st in cert.stages for f in (st.pair.s, st.pair.t))]
            assert blocks[-1] is not minc
            assert [sorted({"points", "xs", "ys"} & set(f.__dict__)) for f in maps] == [[]] * len(maps)
            # nor its lap table: the branch walks the keys around the point
            assert "_ends" not in blocks[-1].__dict__

    def test_orbit_is_validated_once_per_verify(self, monkeypatch, passing_certificates):
        # the verifier leaves the orbit check to the pipeline it re-runs
        import plzig.dynamics
        import plzig.factorize

        validate = plzig.dynamics.validate_orbit
        calls = []
        counted = lambda *args: calls.append(args) or validate(*args)
        monkeypatch.setattr(plzig.dynamics, "validate_orbit", counted)
        monkeypatch.setattr(plzig.factorize, "validate_orbit", counted)
        for kind in ("minc", "general"):
            calls.clear()
            assert verify_certificate(passing_certificates[kind]) == (True, "ok")
            assert len(calls) == 1, kind

    def test_random_markov_family(self):
        # grid-valued cell maps are post-critically finite by construction;
        # whenever the dynamical preconditions hold the pipeline must pass
        # (a fail would mean the zigzag decision drifted from the theory)
        from plzig.plmap import BudgetExceededError
        from plzig.dynamics import is_leo

        from conftest import exact_fixed_points, random_markov_map

        rng = random.Random(424242)
        passes = 0
        maps_seen = 0
        while passes < 10 and maps_seen < 120:
            f = random_markov_map(rng, 3)
            maps_seen += 1
            if is_leo(f) is not True:
                continue
            x = exact_fixed_points(f)[0]
            try:
                cert = certify_general(f, BackwardOrbit.constant(x), stages=2, budget=40_000)
            except BudgetExceededError:
                continue
            assert cert.passed, (f, x, cert.failing_stage)
            passes += 1
        assert passes == 10


class TestCertificateSerialization:
    def test_json_round_trip_is_bit_exact(self, minc):
        orbit = BackwardOrbit.constant(F(1, 2))
        certs = [certify_minc(orbit, stages=4), certify_general(minc, orbit, stages=3)]
        # a prefix moves n0 to 1; the constant-0 orbit takes the right gap and step 2
        certs += [
            certify_general(minc, BackwardOrbit.of([F(1, 2)], [F(1, 2)]), stages=3),
            certify_general(minc, BackwardOrbit.constant(0), stages=3),
        ]
        sequences = []
        for cert in certs:
            text = certificate_to_json(cert)
            decoded = certificate_from_dict(json.loads(text))
            assert decoded.stabilization == cert.stabilization
            assert certificate_to_json(decoded) == text
            sequences.append((json.loads(text)["stabilization"] or {}).get("n-sequence"))
        assert sequences == [
            None, {"head": [0], "step": 4}, {"head": [1], "step": 4}, {"head": [0], "step": 2},
        ]

    @pytest.mark.parametrize("kind", ["minc", "general"])
    def test_encoding_is_canonical(self, passing_certificates, kind, tent):
        # compact single-line JSON with sorted keys; the base map is the one
        # map text, and a stage stores its pair as (case, beta)
        data = passing_certificates[kind]
        text = certificate_to_json(certificate_from_dict(json.loads(json.dumps(data, indent=2))))
        assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        assert "\n" not in text[:-1] and data["version"] == 4
        assert sorted(data) == [
            "failing_stage", "map", "orbit", "repeat_index", "result", "stabilization", "stages",
            "version",
        ]
        assert loads_map(data["map"]) == (minc_map() if kind == "minc" else tent)
        assert all(
            sorted(st) == ["beta", "case", "coordinate", "n_i", "zigzag_verdict"]
            for st in data["stages"]
        )

    def test_version_3_is_refused(self):
        data = json.loads(VERSION_3_TEXT)
        reason = "version: stored 3, this verifier reads 4"
        assert verify_certificate(data) == (False, reason)
        with pytest.raises(ValueError, match=re.escape(reason)):
            certificate_from_dict(json.loads(VERSION_3_TEXT))

    def test_verifier_decodes_only_the_base_map(self, monkeypatch, passing_certificates):
        import plzig.factorize

        decode = plzig.factorize.loads_map
        decoded = []
        monkeypatch.setattr(
            plzig.factorize, "loads_map", lambda text: decoded.append(text) or decode(text)
        )
        for data in passing_certificates.values():
            decoded.clear()
            assert verify_certificate(data) == (True, "ok")
            assert decoded == [data["map"]]
            decoded.clear()
            certificate_from_dict(data)
            assert decoded == [data["map"]]

    def test_verify_minc(self, minc):
        cert = certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4)
        ok, msg = verify_certificate(certificate_to_dict(cert))
        assert ok, msg

    def test_verify_general(self, minc):
        cert = certify_general(minc, BackwardOrbit.constant(F(1, 2)), stages=3)
        ok, msg = verify_certificate(certificate_to_dict(cert))
        assert ok, msg

    def test_verify_catches_tampering(self, minc):
        cert = certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4)
        data = certificate_to_dict(cert)
        data["stages"][1]["coordinate"] = "1/3"
        ok, msg = verify_certificate(data)
        assert not ok and "stage 2" in msg

    def test_verify_catches_wrong_map(self, minc):
        cert = certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4)
        data = certificate_to_dict(cert)
        data["map"] = "0 0\n1/2 1\n1 0\n"
        ok, _ = verify_certificate(data)
        assert not ok

    @pytest.mark.parametrize(
        "tamper, reason",
        [
            (lambda d: d.pop("map"), "KeyError"),
            (lambda d: d["orbit"].update(period=["1/0"]), "malformed rational literal '1/0'"),
            (lambda d: d.update(stages=[]), "at least two stages"),
            (lambda d: d.update(stages=d["stages"][:1]), "at least two stages"),
        ],
        ids=["missing-map", "zero-denominator", "no-stages", "single-stage"],
    )
    def test_verify_reports_malformed_input(self, tamper, reason):
        data = certificate_to_dict(certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4))
        tamper(data)
        ok, msg = verify_certificate(data)
        assert not ok and reason in msg

    def test_verify_rejects_mismatched_orbit(self, minc):
        data = certificate_to_dict(certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4))
        data["orbit"]["period"] = ["0"]
        ok, msg = verify_certificate(data)
        assert not ok and msg == "stage 1 case: stored 'case1', re-derived 'case2'"


def _refold(data, period, pair):
    """Point ``data`` at the orbit with this period block and give every
    stage ``pair``, recomputing coordinates and the verdicts under
    g = s∘t so that only the stage rule s(x_n) = x_n is broken."""
    orbit = BackwardOrbit.of([], period)
    data["orbit"] = {"prefix": [], "period": [str(v) for v in period]}
    g = compose(pair.s, pair.t)
    for st in data["stages"]:
        c = pair.s(orbit.value_at(st["n_i"]))
        st.update(case=pair.case, beta=str(pair.beta))
        st["coordinate"] = str(c)
        if st["zigzag_verdict"] is not None:
            st.update(zigzag_verdict=is_in_zigzag(g, c).to_dict())


def _reuse_case(data, block, beta):
    """Stage 2 folds at another valid beta of the same case, and every later
    stage stores the verdict under the g that a cache keyed by case alone
    would hand it."""
    first = split_case1(block, F(data["stages"][0]["beta"]))
    other = split_case1(block, beta)
    data["stages"][1].update(beta=str(beta))
    g = compose(first.s, other.t)
    for st in data["stages"][1:]:
        st.update(zigzag_verdict=is_in_zigzag(g, F(st["coordinate"])).to_dict())


def _add_midpoint(data, segment=0):
    """Insert the midpoint of a segment into the base map's text: the same
    function, no longer in normal form."""
    lines = data["map"].splitlines()
    (x0, y0), (x1, y1) = ([F(v) for v in line.split()] for line in lines[segment:segment + 2])
    lines.insert(segment + 1, f"{(x0 + x1) / 2} {(y0 + y1) / 2}")
    data["map"] = "\n".join(lines) + "\n"


def _rewrite_beta(data, old, new):
    for st in data["stages"]:
        if st["beta"] == old:
            st["beta"] = new


def _restep(data, step):
    """Give the n-sequence another step and move every stage onto it."""
    seq = data["stabilization"]["n-sequence"]
    seq["step"] = step
    for i, st in enumerate(data["stages"], start=1):
        st["n_i"] = seq["head"][0] + i * step


def _spread_minc_indices(data, factor):
    for i, st in enumerate(data["stages"], start=1):
        st["n_i"] = factor * i


# `plzig certify --pipeline minc --orbit const:1/2 --stages 4` in schema
# version 3, which named the texts of each stage's s and t in a maps table
VERSION_3_TEXT = (
    r'{"failing_stage":null,"map":0,'
    r'"maps":["0 0\n1/3 1\n4/9 1/3\n5/9 2/3\n2/3 0\n1 1\n",'
    r'"0 7/18\n1/9 0\n4/27 7/27\n5/27 7/54\n2/9 7/18\n1/3 0\n7/18 7/18\n1 1\n",'
    r'"0 1\n7/18 0\n11/27 2/3\n23/54 1/3\n4/9 1\n13/27 1/3\n14/27 2/3\n5/9 0\n31/54 2/3\n16/27 1/3\n11/18 1\n2/3 0\n7/9 1\n22/27 1/3\n23/27 2/3\n8/9 0\n1 1\n"],'
    r'"orbit":{"period":["1/2"],"prefix":[]},"repeat_index":3,"result":"pass",'
    r'"stabilization":null,"stages":[{"beta":"7/18","case":"case1","coordinate":"1/2",'
    r'"n_i":2,"s":1,"t":2,"zigzag_verdict":null},{"beta":"7/18","case":"case1",'
    r'"coordinate":"1/2","n_i":4,"s":1,"t":2,'
    r'"zigzag_verdict":{"applicable_laps":[["13/27","14/27"]],"failing_lap":["13/27",'
    r'"14/27"],"in_zigzag":false,"witnesses":[null]}},{"beta":"7/18","case":"case1",'
    r'"coordinate":"1/2","n_i":6,"s":1,"t":2,'
    r'"zigzag_verdict":{"applicable_laps":[["13/27","14/27"]],"failing_lap":["13/27",'
    r'"14/27"],"in_zigzag":false,"witnesses":[null]}},{"beta":"7/18","case":"case1",'
    r'"coordinate":"1/2","n_i":8,"s":1,"t":2,'
    r'"zigzag_verdict":{"applicable_laps":[["13/27","14/27"]],"failing_lap":["13/27",'
    r'"14/27"],"in_zigzag":false,"witnesses":[null]}}],"version":3}'
    '\n'
)

# onto and post-critically finite, but [1/3, 1] is invariant: not leo
NOT_LEO = make_plmap([(0, 0), (F(1, 3), 1), (F(2, 3), F(1, 3)), (1, F(2, 3))])

MINC_BLOCK = iterate(minc_map(), 2)
TENT_BLOCK = iterate(make_plmap([(0, 0), (F(1, 2), 1), (1, 0)]), 4)  # the const-2/3 block

# (name, certificates it applies to, edit, text the rejection must contain)
TAMPERS = [
    ("repeat-null", ("minc", "general"), lambda d: d.update(repeat_index=None), "repeat_index"),
    ("repeat-99", ("minc", "general"), lambda d: d.update(repeat_index=99), "repeat_index"),
    (
        "result-flip",
        ("minc", "general"),
        lambda d: d.update(result="fail", failing_stage=2),
        "result: stored 'fail' with failing_stage 2, re-derived pass",
    ),
    (
        "case2-at-const-1",
        ("minc",),
        lambda d: _refold(d, [F(1)], split_case2(MINC_BLOCK, MINC_BETA_HIGH)),
        "stage 1 case: stored 'case2', re-derived 'case1'",
    ),
    (
        "case1-at-2-cycle",
        ("minc",),
        lambda d: _refold(d, [F(4, 19), F(12, 19)], split_case1(MINC_BLOCK, MINC_BETA_LOW)),
        "stage 1 case: stored 'case1', re-derived 'case2'",
    ),
    (
        "reuse-case",
        ("minc",),
        lambda d: _reuse_case(d, MINC_BLOCK, F(2, 9)),
        "stage 2 beta: stored '2/9', re-derived '7/18'",
    ),
    (
        "reuse-case",
        ("general",),
        lambda d: _reuse_case(d, TENT_BLOCK, F(3, 8)),
        "stage 2 beta: stored '3/8', re-derived '1/8'",
    ),
    (
        "n-off-sequence",
        ("minc", "general"),
        lambda d: d["stages"][2].update(n_i=d["stages"][2]["n_i"] + 1),
        "stage 3 n_i: stored",
    ),
    (
        "step-not-block",
        ("general",),
        lambda d: d["stabilization"]["n-sequence"].update(step=8),
        "stabilization n-sequence step: stored 8, re-derived 4",
    ),
    (
        "too-few-stages",
        ("minc", "general"),
        lambda d: d.update(stages=d["stages"][:2]),
        "stages: 2 entries stored, 3 re-derived",
    ),
    (
        "collinear-map",
        ("minc", "general"),
        _add_midpoint,
        "map: not in normal form: stored from line 2 '",
    ),
    (
        "shifted-epsilon",
        ("general",),
        lambda d: d["stabilization"].update(epsilon="1/4"),
        "stabilization epsilon: stored '1/4', re-derived '1/3'",
    ),
    (
        "other-step",
        ("general",),
        lambda d: _restep(d, 8),
        "stabilization n-sequence step: stored 8, re-derived 4",
    ),
    (
        "index-1e9",
        ("minc",),
        lambda d: _spread_minc_indices(d, 10**9),
        "stage 1 n_i: stored 1000000000, re-derived 2",
    ),
    (
        "index-1e9",
        ("general",),
        lambda d: _restep(d, 10**9),
        "stabilization n-sequence step: stored 1000000000, re-derived 4",
    ),
    (
        "no-stabilization",
        ("general",),
        lambda d: d.update(stabilization=None),
        "map: a certificate without stabilization data must be on the Minc map",
    ),
    (
        "float-head",
        ("general",),
        lambda d: d["stabilization"]["n-sequence"].update(head=[0.0]),
        "stabilization n-sequence head 0: stored 0.0, re-derived 0",
    ),
    (
        "not-leo",
        ("general",),
        lambda d: (
            d.update(map=dumps_map(NOT_LEO)),
            d.update(orbit={"prefix": [], "period": ["5/9"]}),
        ),
        "map: map is not locally eventually onto",
    ),
    # Encodings of a true claim other than the canonical one
    (
        "float-n_i",
        ("minc", "general"),
        lambda d: d["stages"][0].update(n_i=float(d["stages"][0]["n_i"])),
        "stage 1 n_i: stored ",
    ),
    (
        "false-head",
        ("general",),
        lambda d: d["stabilization"]["n-sequence"].update(head=[False]),
        "stabilization n-sequence head 0: stored False, re-derived 0",
    ),
    (
        "float-repeat",
        ("minc", "general"),
        lambda d: d.update(repeat_index=float(d["repeat_index"])),
        "repeat_index: stored ",
    ),
    (
        "extra-key",
        ("minc", "general"),
        lambda d: d.update(note="x"),
        "certificate: unknown key 'note'",
    ),
    (
        "extra-stage-key",
        ("minc", "general"),
        lambda d: d["stages"][1].update(note="x"),
        "stage 2: unknown key 'note'",
    ),
    (
        "stage-not-object",
        ("minc", "general"),
        lambda d: d["stages"].__setitem__(1, ["n_i"]),
        "stage 2: stored list, not an object",
    ),
    (
        "two-entry-head",
        ("general",),
        lambda d: d["stabilization"]["n-sequence"].update(head=[0, 4]),
        "stabilization n-sequence head: 2 entries stored, 1 re-derived",
    ),
    (
        "extra-verdict-key",
        ("minc", "general"),
        lambda d: d["stages"][1]["zigzag_verdict"].update(note="x"),
        "stage 2 zigzag_verdict: unknown key 'note'",
    ),
    (
        "unreduced-beta",
        ("minc",),
        lambda d: _rewrite_beta(d, "7/18", "14/36"),
        "stage 1 beta: stored '14/36', re-derived '7/18'",
    ),
    (
        "unreduced-coordinate",
        ("minc",),
        lambda d: d["stages"][1].update(coordinate="2/4"),
        "stage 2 coordinate: stored '2/4', re-derived '1/2'",
    ),
    (
        "unreduced-orbit",
        ("minc",),
        lambda d: d["orbit"].update(period=["2/4"]),
        "orbit period 0: stored '2/4', re-derived '1/2'",
    ),
    # a map text that nothing refers to, such as a maps table left over
    # from version 3
    (
        "unreferenced-map",
        ("minc", "general"),
        lambda d: d.update(maps=["0 0\n1 1\n"]),
        "certificate: unknown key 'maps'",
    ),
    # Literals that Fraction reads but str(Fraction) never writes; the orbit
    # value stands for 10^(-10^7), which takes seconds to build
    (
        "exponent-orbit",
        ("minc", "general"),
        lambda d: d["orbit"].update(period=["1e-10000000"]),
        "malformed rational literal '1e-10000000'",
    ),
    (
        "exponent-map",
        ("general",),
        lambda d: d.update(map="0 0\n1e-1000000 1\n1 0\n"),
        "malformed rational literal '1e-1000000'",
    ),
    # a literal past the interpreter's 4,300-digit int-string limit is
    # refused with its digit count, not with the interpreter's advice
    (
        "long-orbit",
        ("minc", "general"),
        lambda d: d["orbit"].update(period=["1/" + "9" * 4400]),
        "malformed certificate: ValueError: rational literal too long: a numerator or denominator of 4400 digits",
    ),
    (
        "long-map",
        ("general",),
        lambda d: d.update(map="0 0\n1/" + "3" * 4400 + " 1\n1 0\n"),
        "malformed certificate: ValueError: line 2: rational literal too long: a numerator or denominator of 4400 digits",
    ),
    (
        "no-version",
        ("minc", "general"),
        lambda d: d.pop("version"),
        "version: stored None, this verifier reads 4",
    ),
    (
        "version-1",
        ("minc", "general"),
        lambda d: d.update(version=1),
        "version: stored 1, this verifier reads 4",
    ),
    (
        "version-2",
        ("minc", "general"),
        lambda d: d.update(version=2),
        "version: stored 2, this verifier reads 4",
    ),
    (
        "version-3",
        ("minc", "general"),
        lambda d: d.update(version=3),
        "version: stored 3, this verifier reads 4",
    ),
    # map texts that versions 2 and 3 stored in a stage
    (
        "stored-g",
        ("minc", "general"),
        lambda d: d["stages"][1].update(g=d["map"]),
        "stage 2: unknown key 'g'",
    ),
    (
        "stored-s",
        ("minc", "general"),
        lambda d: d["stages"][0].update(s=d["map"]),
        "stage 1: unknown key 's'",
    ),
]
TAMPER_CASES = [
    pytest.param(kind, tamper, reason, id=f"{name}-{kind}")
    for name, kinds, tamper, reason in TAMPERS
    for kind in kinds
]


@pytest.fixture(scope="module")
def passing_certificates(tent):
    general = certify_general(tent, BackwardOrbit.constant(F(2, 3)), stages=3)
    assert general.stabilization.step == 4
    return {
        "minc": certificate_to_dict(certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4)),
        "general": certificate_to_dict(general),
    }


class TestTamperSuite:
    """Every edit of a passing certificate is rejected with the stage or
    field named, quickly whatever indices it claims, and none raises."""

    @pytest.mark.parametrize("kind, tamper, reason", TAMPER_CASES)
    def test_edit_is_rejected(self, passing_certificates, kind, tamper, reason):
        data = copy.deepcopy(passing_certificates[kind])
        assert verify_certificate(data) == (True, "ok")
        tamper(data)
        start = time.perf_counter()
        ok, msg = verify_certificate(data)
        elapsed = time.perf_counter() - start
        assert not ok and reason in msg, msg
        assert elapsed < 0.1, f"rejection took {elapsed:.3f} s"
        with pytest.raises(ValueError) as info:
            certificate_from_dict(data)
        assert str(info.value) == msg

    @pytest.mark.parametrize("kind", ["minc", "general"])
    def test_long_empty_stage_list_is_rejected_quickly(self, passing_certificates, kind):
        # re-deriving runs one stage per stored entry, so the stage shapes
        # are checked first
        data = copy.deepcopy(passing_certificates[kind])
        data["stages"] = [{}] * 100_000
        text = json.dumps(data)
        start = time.perf_counter()
        ok, msg = verify_certificate(json.loads(text))
        elapsed = time.perf_counter() - start
        assert (ok, msg) == (False, "stage 1 n_i: missing")
        assert elapsed < 0.5, f"rejection took {elapsed:.3f} s"

    def test_reason_shows_the_first_differing_line(self, passing_certificates):
        # the Minc map has 6 breakpoints; a midpoint of its fourth segment
        # becomes line 5 of the text, ahead of the breakpoint 2/3 0
        data = copy.deepcopy(passing_certificates["minc"])
        lines = data["map"].splitlines()
        assert len(lines) == 6 and lines[4] == "2/3 0"
        _add_midpoint(data, 3)
        ok, msg = verify_certificate(data)
        assert not ok and msg.startswith("map: not in normal form: stored from line 5 '11/18 1/3"), msg
        assert lines[4] in msg.split("normal form")[2], msg

    def test_budget_overrun_is_a_rejection(self, monkeypatch, passing_certificates):
        import plzig.plmap

        # re-deriving the stabilization composes tent^1..tent^4; tent^4 has
        # 17 breakpoints
        data = copy.deepcopy(passing_certificates["general"])
        monkeypatch.setattr(plzig.plmap, "DEFAULT_BREAKPOINT_BUDGET", 10)
        ok, msg = verify_certificate(data)
        assert not ok and "budget" in msg

    @pytest.mark.parametrize(
        "case, beta",
        [(CASE1, b) for b in ("2/9", "5/9", "2/3", "8/9")]
        + [(CASE2, b) for b in ("1/9", "1/3", "4/9", "11/18", "7/9")],
    )
    def test_other_folds_are_not_the_pipeline_output(self, minc, case, beta):
        # a true record built by the stage loop on another split of minc^2
        # is still not what the Minc pipeline emits for these inputs
        pair = (split_case1 if case == CASE1 else split_case2)(MINC_BLOCK, F(beta))
        orbit = BackwardOrbit.constant(F(1, 2))
        cert = _assemble(minc, orbit, None, 0, 2, lambda i: pair, 4)
        ok, msg = verify_certificate(certificate_to_dict(cert))
        if case == CASE1:
            assert (ok, msg) == (False, f"stage 1 beta: stored '{beta}', re-derived '7/18'")
        else:
            assert (ok, msg) == (False, "stage 1 case: stored 'case2', re-derived 'case1'")

    def test_failing_stage_keeps_its_reason(self, monkeypatch):
        import plzig.factorize

        # folding the top end at x = 1 moves the tracked point off itself
        monkeypatch.setattr(plzig.factorize, "minc_stage_choice", lambda x: CASE2)
        cert = certify_minc(BackwardOrbit.constant(1), stages=4)
        assert (cert.result, cert.failing_stage) == ("fail", 1)
        assert cert.failure_reason == "s moves x_2 = 1 to 11/18"
        data = certificate_to_dict(cert)
        assert "failure_reason" not in json.dumps(data)
        assert verify_certificate(data) == (True, "ok")
        assert certificate_from_dict(data).failure_reason == "s moves x_2 = 1 to 11/18"
        data.update(result="pass", failing_stage=None)
        ok, msg = verify_certificate(data)
        assert not ok
        assert msg == (
            "result: stored 'pass' with failing_stage None, "
            "re-derived fail at stage 1: s moves x_2 = 1 to 11/18"
        )


# (name, certificates it applies to, edit, text the checker's rejection must contain)
TEXT_EDITS = [
    ("repeat-99", ("minc", "general"), lambda d: d.update(repeat_index=99), "repeat_index"),
    ("result-flip", ("minc", "general"), lambda d: d.update(result="fail"), "result"),
    ("orbit", ("minc", "general"), lambda d: d["orbit"].update(period=["1/3"]), "orbit"),
    (
        "n_i",
        ("minc", "general"),
        lambda d: d["stages"][1].update(n_i=d["stages"][1]["n_i"] + 1),
        "stage 2 n_i",
    ),
    (
        "coordinate",
        ("minc", "general"),
        lambda d: d["stages"][0].update(coordinate="0"),
        "stage 1 coordinate",
    ),
    # both pipelines fold their block maps at 0 (case 1), and neither block
    # map is 0 at 1/3
    (
        "beta-off-fold",
        ("minc", "general"),
        lambda d: d["stages"][1].update(beta="1/3"),
        "stage 2: F(beta) is not 0 at beta = 1/3",
    ),
    (
        "unknown-case",
        ("minc", "general"),
        lambda d: d["stages"][0].update(case="case3"),
        "stage 1: unknown case 'case3'",
    ),
    (
        "case2-at-const-1",
        ("minc",),
        lambda d: _refold(d, [F(1)], split_case2(MINC_BLOCK, MINC_BETA_HIGH)),
        "stage 1: s moves x_2",
    ),
]


PRODUCER_MODULES = {"plzig", "plzig.factorize", "plzig.dynamics", "plzig.zigzag", "plzig.cli"}


class TestCertificateTextChecker:
    """conftest's check_certificate_text decides a certificate's claims from
    its text, with oracles that share no code with the pipelines."""

    @pytest.mark.parametrize("kind", ["minc", "general"])
    def test_accepts_the_pipeline_output(self, passing_certificates, kind):
        check_certificate_text(json.dumps(passing_certificates[kind]))

    @pytest.mark.parametrize(
        "kind, edit, reason",
        [
            pytest.param(kind, edit, reason, id=f"{name}-{kind}")
            for name, kinds, edit, reason in TEXT_EDITS
            for kind in kinds
        ],
    )
    def test_rejects_an_edit(self, passing_certificates, kind, edit, reason):
        data = copy.deepcopy(passing_certificates[kind])
        edit(data)
        with pytest.raises(AssertionError, match=re.escape(reason)):
            check_certificate_text(json.dumps(data))

    def test_reads_no_producer_code(self):
        # no global that the checker or a conftest function it calls names
        # is, or comes from, a module of the pipelines
        import conftest

        todo, seen = [conftest.check_certificate_text], set()
        while todo:
            fn = todo.pop()
            if fn in seen:
                continue
            seen.add(fn)
            codes = [fn.__code__]
            while codes:
                code = codes.pop()
                codes += [c for c in code.co_consts if hasattr(c, "co_names")]
                # '@'-names are pytest's assertion rewriter
                for name in (n for n in code.co_names if not n.startswith("@")):
                    obj = conftest.__dict__.get(name)
                    if isinstance(obj, ModuleType):
                        where = obj.__name__
                    elif callable(obj):
                        where = obj.__module__
                    else:
                        continue
                    assert where not in PRODUCER_MODULES, (fn.__name__, name, where)
                    if where == "conftest":
                        todo.append(obj)
        assert {"check_factor_pair", "fold_pair", "naive_compose", "naive_eval"} <= {
            fn.__name__ for fn in seen
        }


# values an edit puts in; the long denominator has 4,300 digits, the most
# that Python 3.11 converts between int and str
FUZZ_POOL = [
    None, True, False, 2**70, 1.5, "", "1/0", "2/4", "0.5", "1e-100000",
    "1/" + "9" * 4300, [], {}, dumps_map(minc_map()), "case3",
]


def _paths(value, path=()):
    """The path of every dict key and list entry inside a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, sub in items:
        yield path + (key,)
        if isinstance(sub, (dict, list)):
            yield from _paths(sub, path + (key,))


class TestVerifierNeverRaises:
    def test_random_edits(self, passing_certificates):
        # each edit drops a dict key or puts in a value from the pool; a
        # certificate whose encoding is unchanged verifies, all others fail
        rng = random.Random(20201019)
        canonical = lambda d: json.dumps(d, sort_keys=True, separators=(",", ":"))
        for _ in range(300):
            kind = rng.choice(["minc", "general"])
            data = copy.deepcopy(passing_certificates[kind])
            *head, key = rng.choice(list(_paths(data)))
            parent = data
            for k in head:
                parent = parent[k]
            if isinstance(parent, dict) and rng.random() < 0.2:
                del parent[key]
            else:
                parent[key] = copy.deepcopy(rng.choice(FUZZ_POOL))
            result = verify_certificate(data)
            assert type(result) is tuple and type(result[0]) is bool and type(result[1]) is str
            assert result[0] == (canonical(data) == canonical(passing_certificates[kind])), (
                head, key, result,
            )

    def test_value_json_cannot_encode_is_a_rejection(self, passing_certificates):
        # the inputs certify again; encoding the stored dict meets the set
        data = copy.deepcopy(passing_certificates["minc"])
        data["extra"] = {1, 2}
        assert verify_certificate(data) == (
            False,
            "malformed certificate: TypeError: Object of type set is not JSON serializable",
        )

    def test_unprintable_orbit_value_is_a_rejection(self, passing_certificates):
        # under a slope of 5/4 the orbit value 1/(10^4300 - 1) maps to a
        # number with a 4,301-digit denominator, which Python 3.11 refuses to
        # print; the orbit check names the entry and the size instead
        data = copy.deepcopy(passing_certificates["general"])
        data["map"] = "0 0\n4/5 1\n1 0\n"
        data["orbit"]["period"] = ["1/" + "9" * 4300]
        ok, msg = verify_certificate(data)
        assert ok is False and msg.startswith("orbit: orbit entry 1 maps to a rational of "), msg


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: branch(minc_map(), F(3, 2)), ValueError, "point 3/2 outside [0, 1]"),
        (lambda: BackwardOrbit.constant(1).value_at(-1), IndexError, "orbit indices start at 0"),
        (lambda: split_case1(iterate(minc_map(), 2), 0), ValueError, "beta must lie in (0, 1], got 0"),
        (lambda: split_case2(iterate(minc_map(), 2), 1), ValueError, "beta must lie in [0, 1), got 1"),
        (
            lambda: split_case2(make_plmap([(0, 0), (F(1, 2), 1), (1, F(1, 2))]), F(1, 2)),
            ValueError,
            "case 2 split needs a point above 1/2 mapping to 0",
        ),
        (lambda: find_beta(minc_map(), (0, 1), "case3"), ValueError, "unknown case 'case3'"),
        (
            lambda: composite_verdict(minc_map(), minc_map(), F(3, 2)),
            ValueError,
            "query point 3/2 outside [0, 1]",
        ),
        (
            lambda: make_plmap(((F(0), F(0)),)),
            ValueError,
            "a piecewise-linear map needs at least two breakpoints",
        ),
        (lambda: make_plmap([(0, 0), (1, 0.5)]), TypeError, "expected a rational value, got float"),
        (
            lambda: image_interval(minc_map(), F(1, 2), F(1, 3)),
            ValueError,
            "[1/2, 1/3] is not a subinterval of [0, 1]",
        ),
        (lambda: lemma_witness(minc_map(), F(3, 2)), ValueError, "query point 3/2 outside [0, 1]"),
        (lambda: branch(minc_map(), "0.5"), ValueError, "malformed rational literal '0.5'"),
    ],
    ids=[
        "branch", "value_at", "split_case1", "split_case2-beta", "split_case2-no-zero",
        "find_beta", "composite_verdict", "PLMap", "make_plmap", "image_interval",
        "lemma_witness", "branch-string",
    ],
)
def test_library_error_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
