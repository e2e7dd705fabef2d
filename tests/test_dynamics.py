import random
import sys
from fractions import Fraction as F
from math import lcm

import pytest

import plzig.dynamics as dynamics
from plzig.cli import analysis_report
from plzig.factorize import certificate_to_dict, certify_general, minc_map, verify_certificate
from plzig.plmap import BudgetExceededError, IterateCache, compose, is_onto, iterate, laps, make_plmap
from conftest import (
    dense_is_primitive,
    format_orbit,
    image_interval,
    naive_eval,
    naive_is_leo,
    naive_solutions,
    naive_uniformly_onto,
    periodic_cycles,
    random_map,
    random_markov_map,
    transition_matrix,
)
from plzig.dynamics import (
    BackwardOrbit,
    OrbitEntry,
    OrbitValidationError,
    branch,
    branch_stabilization,
    is_leo,
    is_primitive,
    leo_uniform_N,
    map_facts,
    markov_partition,
    parse_orbit,
    post_critical_orbits,
    uniformly_onto,
    validate_orbit,
)


class TestBranch:
    def test_minc_fixed_point(self, minc):
        r = branch(minc, F(1, 2))
        assert r.J == (F(4, 9), F(5, 9))
        assert r.B == (F(1, 3), F(2, 3))
        assert not r.at_critical
        assert branch(minc, "1/2") == r

    def test_identity_whole_interval(self, identity):
        r = branch(identity, F(3, 7))
        assert r.J == (F(0), F(1)) and r.B == (F(0), F(1))

    def test_minc_critical_selection(self, minc):
        # left lap image [1/3, 1] is not inside right lap image [1/3, 2/3],
        # so the right lap wins
        r = branch(minc, F(4, 9))
        assert r.at_critical
        assert r.J == (F(4, 9), F(5, 9))
        assert r.B == (F(1, 3), F(2, 3))
        assert not r.tie_rule_applied

    def test_equal_images_prefer_left(self, tent):
        r = branch(tent, F(1, 2))
        assert r.at_critical and r.tie_rule_applied
        assert r.J == (F(0), F(1, 2))
        assert r.B == (F(0), F(1))

    def test_endpoints_use_single_lap(self, minc):
        assert branch(minc, 0).J == (F(0), F(1, 3))
        assert branch(minc, 1).J == (F(2, 3), F(1))


class TestPostCriticalOrbits:
    def test_minc_table(self, minc):
        table = {e.point: e for e in post_critical_orbits(minc)}
        assert (table[F(0)].preperiod, table[F(0)].period) == (0, 1)
        assert (table[F(1)].preperiod, table[F(1)].period) == (0, 1)
        assert (table[F(1, 3)].preperiod, table[F(1, 3)].period) == (1, 1)
        assert (table[F(2, 3)].preperiod, table[F(2, 3)].period) == (1, 1)
        assert (table[F(4, 9)].preperiod, table[F(4, 9)].period) == (2, 1)
        assert (table[F(5, 9)].preperiod, table[F(5, 9)].period) == (2, 1)
        assert table[F(4, 9)].orbit == (F(4, 9), F(1, 3), F(1))

    def test_identity_everything_fixed(self, identity):
        for e in post_critical_orbits(identity):
            assert (e.preperiod, e.period) == (0, 1)

    def test_tent_peak(self, tent):
        table = {e.point: e for e in post_critical_orbits(tent)}
        assert (table[F(1, 2)].preperiod, table[F(1, 2)].period) == (2, 1)
        assert table[F(1, 2)].orbit == (F(1, 2), F(1), F(0))

    def test_open_orbit_is_flagged(self):
        # interior fixed point attracts the endpoint orbits, which therefore
        # never close; the table must say so instead of guessing
        f = make_plmap([(0, F(1, 7)), (1, F(6, 7))])
        orbits = post_critical_orbits(f, budget=100)
        assert not all(e.closed for e in orbits)


class TestOrbitEntry:
    """An orbit entry is an immutable value with five fields."""

    def test_fields_cannot_be_assigned(self, minc):
        entry = post_critical_orbits(minc)[0]
        for field in OrbitEntry._fields:
            with pytest.raises(AttributeError):
                setattr(entry, field, None)

    def test_field_names_and_order(self):
        assert OrbitEntry._fields == ("point", "orbit", "preperiod", "period", "closed")

    def test_two_walks_give_equal_entries(self, minc):
        f = iterate(minc, 3)
        first, second = post_critical_orbits(f), post_critical_orbits(f)
        assert first == second and first is not second
        assert all(a == b and a is not b for a, b in zip(first, second))


def naive_orbits(f, budget):
    """Reference critical orbits: a ``Fraction`` walk with :func:`naive_eval`
    from 0, from each turning point read off ``f.points`` and from 1, as
    (point, orbit, preperiod, period) rows; open rows have no preperiod."""
    pts = f.points
    turns = [x for (_, y0), (x, y), (_, y1) in zip(pts, pts[1:], pts[2:]) if (y0 < y) == (y1 < y)]
    rows = []
    for start in [F(0), *turns, F(1)]:
        seq, seen = [start], {start: 0}
        for _ in range(budget):
            nxt = naive_eval(f, seq[-1])
            if nxt in seen:
                rows.append((start, tuple(seq), seen[nxt], len(seq) - seen[nxt]))
                break
            seen[nxt] = len(seq)
            seq.append(nxt)
        else:
            rows.append((start, tuple(seq), None, None))
    return rows


def naive_matrix(f, partition):
    """Reference cell-covering matrix from :func:`naive_eval` images."""
    index = {p: i for i, p in enumerate(partition)}
    n = len(partition) - 1
    matrix = [[0] * n for _ in range(n)]
    for u in range(n):
        lo, hi = sorted((naive_eval(f, partition[u]), naive_eval(f, partition[u + 1])))
        for v in range(index[lo], index[hi]):
            matrix[u][v] = 1
    return matrix


# onto and leo, and its critical orbits leave the grid of its common
# denominator 6 (1/8, 3/8, 1/32, ...) before they close
OFF_GRID = [(0, F(1, 3)), (F(1, 6), 1), (F(1, 3), 0), (1, F(1, 2))]


class TestKeyOrbitPass:
    """The orbit pass runs on integer keys; a ``Fraction`` walk with the
    reference evaluation must find the same orbits, partition and verdict."""

    @staticmethod
    def check(f):
        rows = naive_orbits(f, 1000)
        entries = post_critical_orbits(f)
        assert [(e.point, e.orbit, e.preperiod, e.period) for e in entries] == rows
        assert all(e.closed for e in entries)
        partition = sorted({v for _, orbit, _, _ in rows for v in orbit})
        assert markov_partition(f) == partition
        verdict = is_primitive(f, partition)
        assert verdict == dense_is_primitive(naive_matrix(f, partition))
        if is_onto(f) and len(laps(f)) >= 2:
            # map_facts decides primitivity from its own walk's table
            assert map_facts(f).leo == verdict
        return verdict

    def test_iterates_of_minc(self, minc):
        for k in range(1, 6):
            assert self.check(iterate(minc, k)) is True

    def test_tent_and_identity(self, tent, identity):
        assert self.check(tent) is True
        # one cell, covered by its own image; is_leo still refuses a monotone map
        assert self.check(identity) is True

    def test_random_markov_maps(self):
        rng = random.Random(21)
        verdicts = [self.check(random_markov_map(rng, rng.randint(2, 5))) for _ in range(120)]
        assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20

    def test_orbits_off_the_key_grid(self):
        f = make_plmap(OFF_GRID)
        den = f._keys[0]
        values = {v for e in post_critical_orbits(f) for v in e.orbit}
        assert any((v * den).denominator > 1 for v in values)
        assert self.check(f) is True
        assert map_facts(f).leo is True

    def test_open_orbits_are_prefixes_of_the_walk(self):
        # the endpoint orbits converge to the fixed point 1/2 and never close
        f = make_plmap([(0, F(1, 7)), (1, F(6, 7))])
        for e, (point, orbit, preperiod, _) in zip(post_critical_orbits(f), naive_orbits(f, 100)):
            assert not e.closed and e.preperiod is None and preperiod is None
            assert e.point == point and e.orbit == orbit[:len(e.orbit)]

    def test_size_bound_stops_a_wandering_orbit(self):
        # the orbit of 1/2 never repeats and its denominators grow at every
        # step: the size bound ends it long before the step budget
        f = make_plmap([(0, 0), (F(1, 2), 1), (1, F(1, 3))])
        den = f._keys[0]
        entry = post_critical_orbits(f)[1]
        assert entry.point == F(1, 2) and not entry.closed
        assert len(entry.orbit) < 100 < dynamics.DEFAULT_ORBIT_BUDGET
        assert all((v * den).denominator.bit_length() <= dynamics._size_bound(den) for v in entry.orbit)
        assert (f(entry.orbit[-1]) * den).denominator.bit_length() > dynamics._size_bound(den)
        assert entry.orbit == naive_orbits(f, len(entry.orbit) - 1)[1][1]
        assert len(entry.orbit) == 58  # where the step-by-step walk stopped

    def test_budget_edge_matches_the_walk(self):
        # at every budget an orbit closes within it or is open with its
        # first budget + 1 values, unless the size bound stopped it sooner:
        # then it is a prefix of the walk, cut before the first value past
        # the bound.  Merged orbits are read from the record of closed ones.
        rng = random.Random(35)
        maps = [make_plmap(OFF_GRID), make_plmap([(0, F(1, 7)), (1, F(6, 7))])]
        maps += [random_map(rng, rng.choice([3, 5, 8]), rng.choice([4, 6, 12, 64])) for _ in range(350)]
        maps += [random_markov_map(rng, rng.randint(2, 6)) for _ in range(650)]
        seen = set()
        for f in maps:
            den = f._keys[0]
            for budget in [*range(9), 50]:
                for e, row in zip(post_critical_orbits(f, budget), naive_orbits(f, budget)):
                    assert e.closed == (e.preperiod is not None), (f, budget)
                    if e.closed or len(e.orbit) == budget + 1:
                        assert (e.point, e.orbit, e.preperiod, e.period) == row, (f, budget)
                    else:
                        assert e.orbit == row[1][:len(e.orbit)], (f, budget)
                        nxt = naive_eval(f, e.orbit[-1]) * den
                        assert nxt.denominator.bit_length() > dynamics._size_bound(den), (f, budget)
                    seen.add((e.closed, len(e.orbit) == budget + 1))
        assert seen == {(True, False), (False, True), (False, False)}

    def test_breakpoint_images_are_read_off_the_keys(self, minc, monkeypatch):
        # every critical orbit value and Markov point of minc^5 is a
        # breakpoint, so neither the orbits nor primitivity evaluate f; the
        # partition and the images are read off the walk's own keys, which
        # are never converted again
        calls, keyings = [], []
        image, int_keys = dynamics._key_image, dynamics._int_keys
        monkeypatch.setattr(dynamics, "_key_image", lambda *args: calls.append(args) or image(*args))
        monkeypatch.setattr(dynamics, "_int_keys", lambda *args: keyings.append(args) or int_keys(*args))
        facts = map_facts(iterate(minc, 5))
        assert facts.leo is True and len(facts.markov) == 1366
        assert calls == [] and keyings == []
        assert map_facts(make_plmap(OFF_GRID)).leo is True and calls and keyings == []

    def test_no_points_are_built(self, minc):
        # a map composed from keys keeps them: the orbit pass, the partition
        # and primitivity read no Fraction breakpoint values
        f = iterate(minc, 5)
        facts = map_facts(f)
        assert facts.leo is True and len(facts.markov) == 1366
        assert "xs" not in vars(f)
        # nor does evaluation at a breakpoint
        den, _, yk = f._keys
        assert f(f.xs[7]) == F(yk[7], den)
        assert "points" not in vars(f) and "ys" not in vars(f)


def bounded_orbits(f, budget):
    """Reference :class:`OrbitEntry` rows for the whole contract of the
    orbit pass: a ``Fraction`` walk with :func:`naive_eval` of at most
    ``budget`` steps, which ends an orbit as open before the first value
    whose denominator over the map's common denominator is longer than the
    size bound."""
    den = f._keys[0]
    limit = dynamics._size_bound(den)
    rows = []
    for start, orbit, k, period in naive_orbits(f, budget):
        if k is None:
            cut = next((i for i, v in enumerate(orbit) if (v * den).denominator.bit_length() > limit), None)
            orbit = orbit[:cut]
        rows.append(OrbitEntry(start, orbit, k, period, k is not None))
    return tuple(rows)


def oracle_maps():
    """(map, orbit budget) pairs: the 120 random Markov maps, OFF_GRID and
    minc^1..5 at the default budget, and maps with open orbits at 200."""
    rng = random.Random(21)
    maps = [random_markov_map(rng, rng.randint(2, 5)) for _ in range(120)]
    maps += [make_plmap(OFF_GRID), *(iterate(minc_map(), k) for k in range(1, 6))]
    pairs = [(f, dynamics.DEFAULT_ORBIT_BUDGET) for f in maps]
    rng = random.Random(5)
    wandering = [make_plmap([(0, F(1, 7)), (1, F(6, 7))]), make_plmap([(0, 0), (F(1, 2), 1), (1, F(1, 3))])]
    wandering += [random_map(rng, rng.choice([3, 5, 8]), rng.choice([4, 6, 12, 64])) for _ in range(60)]
    return pairs + [(f, 200) for f in wandering]


class TestLazyOrbitView:
    """The walk is keys only; the OrbitEntry and Fraction view is made by
    one converter for post_critical_orbits, and for the map's facts on the
    first read of their orbits or Markov partition."""

    def test_view_matches_the_reference_walk(self):
        opened = 0
        for f, budget in oracle_maps():
            rows = bounded_orbits(f, budget)
            facts = map_facts(f, budget)
            assert post_critical_orbits(f, budget) == rows == facts.orbits, (f, budget)
            closed = all(e.closed for e in rows)
            partition = tuple(sorted({v for e in rows for v in e.orbit})) if closed else None
            assert facts.markov == partition, (f, budget)
            assert facts.post_critically_finite == (True if closed else None)
            opened += not closed
        assert opened >= 30

    def test_equal_values_are_one_object(self):
        for f, budget in oracle_maps():
            facts = map_facts(f, budget)
            values = [v for e in facts.orbits for v in e.orbit] + list(facts.markov or ())
            assert len({id(v) for v in values}) == len(set(values)), (f, budget)
            assert all(e.point is e.orbit[0] for e in facts.orbits)
            values = [v for e in post_critical_orbits(f, budget) for v in e.orbit]
            assert len({id(v) for v in values}) == len(set(values)), (f, budget)

    def test_view_is_made_once_on_first_read(self, minc, monkeypatch):
        made = []
        convert = dynamics._orbit_entries
        monkeypatch.setattr(dynamics, "_orbit_entries", lambda *args: made.append(args) or convert(*args))
        facts = map_facts(iterate(minc, 3))
        assert facts.leo is True and facts.post_critically_finite is True and made == []
        markov = facts.markov
        assert len(made) == 1 and facts.markov is markov
        orbits = facts.orbits
        assert len(made) == 1 and facts.orbits is orbits
        by_value = {v: v for e in orbits for v in e.orbit}
        assert all(by_value[p] is p for p in markov)
        assert map_facts(minc, orbit_budget=1).markov is None and len(made) == 1

    def test_certify_and_verify_build_no_entries(self, minc, monkeypatch):
        made = []
        convert = dynamics._orbit_entries
        monkeypatch.setattr(dynamics, "_orbit_entries", lambda *args: made.append(args) or convert(*args))
        cert = certify_general(minc, BackwardOrbit.constant(F(1, 2)), 4)
        assert cert.passed and verify_certificate(certificate_to_dict(cert)) == (True, "ok")
        assert made == []


class TestPostCriticallyFinite:
    def test_minc(self, minc):
        assert map_facts(minc).post_critically_finite is True

    def test_identity(self, identity):
        assert map_facts(identity).post_critically_finite is True

    def test_budget_exhaustion_is_indeterminate(self):
        f = make_plmap([(0, F(1, 7)), (1, F(6, 7))])
        assert map_facts(f, orbit_budget=100).post_critically_finite is None


class TestMarkov:
    def test_minc_partition(self, minc):
        assert markov_partition(minc) == [F(0), F(1, 3), F(4, 9), F(5, 9), F(2, 3), F(1)]

    def test_identity_partition(self, identity):
        assert markov_partition(identity) == [F(0), F(1)]

    def test_tent_partition(self, tent):
        assert markov_partition(tent) == [F(0), F(1, 2), F(1)]

    def test_unclosed_orbits_raise(self):
        f = make_plmap([(0, F(1, 7)), (1, F(6, 7))])
        with pytest.raises(BudgetExceededError):
            markov_partition(f, budget=100)

    def test_minc_matrix(self, minc):
        M = transition_matrix(minc, markov_partition(minc))
        assert M == [
            [1, 1, 1, 1, 1],
            [0, 1, 1, 1, 1],
            [0, 1, 1, 1, 0],
            [1, 1, 1, 1, 0],
            [1, 1, 1, 1, 1],
        ]

    def test_tent_matrix(self, tent):
        assert transition_matrix(tent, markov_partition(tent)) == [[1, 1], [1, 1]]

    def test_partition_must_contain_criticals(self, minc):
        with pytest.raises(ValueError):
            is_primitive(minc, [F(0), F(1, 2), F(1)])

    @pytest.mark.parametrize(
        "partition, why",
        [
            ([F(0), F(1, 3), F(1, 3), F(4, 9), F(5, 9), F(2, 3), F(1)], "sorted point set"),
            ([F(1, 3), F(4, 9), F(5, 9), F(2, 3), F(1)], "spanning"),
            ([F(0), F(1, 4), F(1, 3), F(4, 9), F(5, 9), F(2, 3), F(1)], "forward invariant"),
            # two adjacent points swapped
            ([F(0), F(4, 9), F(1, 3), F(5, 9), F(2, 3), F(1)], "sorted point set"),
        ],
    )
    def test_partition_is_checked(self, minc, partition, why):
        with pytest.raises(ValueError, match=why):
            is_primitive(minc, partition)


HALVES = [F(0), F(1, 2), F(1)]


class TestPrimitivity:
    """Each map on the partition {0, 1/2, 1} has the given covering matrix;
    the run decision and the dense oracle must both read it."""

    @staticmethod
    def decide(points, matrix) -> bool:
        f = make_plmap(points)
        assert transition_matrix(f, HALVES) == matrix
        assert is_primitive(f, HALVES) == dense_is_primitive(matrix)
        return is_primitive(f, HALVES)

    def test_all_ones(self, tent):
        assert self.decide(tent.points, [[1, 1], [1, 1]])

    def test_permutation_is_not_primitive(self):
        assert not self.decide([(0, 1), (1, 0)], [[0, 1], [1, 0]])

    def test_zero_column(self):
        assert not self.decide([(0, 0), (F(1, 2), F(1, 2)), (1, 0)], [[1, 0], [1, 0]])

    def test_primitive_but_not_positive(self):
        # irreducible with a loop: primitive although M itself has zeros
        assert self.decide([(0, 1), (F(1, 2), 0), (1, F(1, 2))], [[1, 1], [1, 0]])

    def test_runs_agree_with_dense_oracle(self, minc, monkeypatch):
        squarings = []
        square = dynamics._square_runs
        monkeypatch.setattr(
            dynamics, "_square_runs", lambda lo, hi: squarings.append((lo, hi)) or square(lo, hi)
        )
        cases = [(iterate(minc, k), None) for k in range(1, 6)]
        rng = random.Random(41)
        for _ in range(240):
            cells = rng.randint(2, 6)
            grid = [F(i, cells) for i in range(cells + 1)]
            cases.append((random_markov_map(rng, cells), grid))
        verdicts, outcomes = [], set()
        for f, grid in cases:
            for partition in (markov_partition(f), grid):
                if partition is not None:
                    matrix = transition_matrix(f, partition)
                    want = dense_is_primitive(matrix)
                    squarings.clear()
                    assert is_primitive(f, partition) == want, (f, partition)
                    verdicts.append(want)
                    outcomes.add((want, all(map(all, matrix)), len(squarings)))
        assert verdicts[:5] == [True] * 5  # the iterates of minc
        assert verdicts.count(False) >= 100
        # the prefix counts end the test on a matrix that is not positive,
        # before any squaring and after some, and squaring runs whenever
        # the next square is not positive
        assert {(True, False, 0), (True, False, 1), (True, False, 2)} <= outcomes
        assert {(False, False, 1), (False, False, 3)} <= outcomes

    def test_points_off_the_breakpoint_grid(self, minc, tent):
        # partitions whose common denominator is not a multiple of f's, and
        # Markov partitions with periodic cycles added, whose points are
        # not breakpoints of f: their images are evaluated, the others read
        # off the keys
        rng = random.Random(43)
        maps = [iterate(minc, k) for k in range(1, 3)]
        maps += [tent, make_plmap([(0, 0), (F(1, 4), F(3, 4)), (F(1, 2), 1), (1, 0)])]
        maps += [random_markov_map(rng, rng.randint(2, 6)) for _ in range(60)]
        kinds, verdicts = set(), set()
        for f in maps:
            markov = markov_partition(f)
            cycles = {v for cycle in periodic_cycles(f, 2) for v in cycle}
            for partition in (markov, sorted(set(markov) | cycles)):
                on_grid = lcm(*(p.denominator for p in partition)) % f._keys[0] == 0
                kinds.add((on_grid, all(p in f.xs for p in partition)))
                verdict = is_primitive(f, partition)
                assert verdict == dense_is_primitive(naive_matrix(f, partition)), (f, partition)
                verdicts.add(verdict)
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}
        assert verdicts == {True, False}

    def test_minc_partitions_need_no_squaring(self, minc, monkeypatch):
        # A^2 is positive on the Markov partition of every minc^k, and the
        # prefix counts read that without building it
        def refuse(lo, hi):
            raise AssertionError(f"squared the runs of {len(lo)} cells")

        monkeypatch.setattr(dynamics, "_square_runs", refuse)
        for k in range(1, 7):
            f = iterate(minc, k)
            assert is_primitive(f, markov_partition(f)) is True, k


class TestLeo:
    def test_minc(self, minc):
        assert is_leo(minc) is True

    def test_identity(self, identity):
        assert is_leo(identity) is False

    def test_tent(self, tent):
        assert is_leo(tent) is True

    def test_not_onto(self):
        # the contraction's orbits stay open and the low tent's close; the
        # orbit pass runs on each, and neither is onto
        contraction = make_plmap([(0, F(1, 7)), (1, F(6, 7))])
        low_tent = make_plmap([(0, 0), (F(1, 2), F(1, 2)), (1, 0)])
        assert map_facts(contraction).markov is None and map_facts(low_tent).markov is not None
        for f in (make_plmap([(0, F(1, 4)), (F(1, 2), F(3, 4)), (1, F(1, 4))]), contraction, low_tent):
            assert is_leo(f) is False

    def test_monotone_onto_is_never_leo(self):
        assert is_leo(make_plmap([(0, 0), (F(1, 3), F(3, 4)), (1, 1)])) is False

    def test_semidecision_expanding_map(self):
        # onto, not post-critically finite at a tiny budget, all slopes > 1:
        # the growth argument plus one covering check settles it
        f = make_plmap([(0, F(1, 5)), (F(2, 5), 1), (F(3, 5), 0), (1, F(7, 8))])
        assert is_leo(f, orbit_budget=40) is True

    def test_semidecision_needs_growth_across_a_fold(self, tent):
        # both slopes are 2, but an interval straddling the fold grows by
        # 2*2/(2+2) = 1 only: the growth argument fails
        assert is_leo(tent, orbit_budget=0) is None

    def test_semidecision_gives_up_without_expansion(self):
        # one shallow slope defeats the growth argument and the orbit of the
        # critical point keeps wandering: indeterminate
        f = make_plmap([(0, 0), (F(2, 7), 1), (1, F(1, 3))])
        assert is_leo(f, orbit_budget=60) is None


# Maps on which is_leo says True while naive_is_leo, on the orbit closure of
# every breakpoint, says False.  Each has an identity piece, which the orbit
# closure of the turning points alone hides.  A sound leo verdict empties
# this list.
KNOWN_LEO_DEFECTS = [
    "0 0, 1/10 1/10, 1/2 1, 1 0",
    "0 0, 1/3 1/3, 2/3 1, 1 0",  # map 19 of the bench's Markov family
    "0 0, 1/5 1, 2/5 1/5, 3/5 0, 4/5 4/5, 1 1",
    "0 1, 1/4 0, 1/2 1/2, 1 1",
    "0 0, 1/5 1/5, 2/5 1, 3/5 2/5, 4/5 0, 1 2/5",
    "0 1, 1/5 1/5, 2/5 2/5, 3/5 1, 4/5 0, 1 3/5",
    "0 0, 1/4 1/4, 1/2 3/4, 3/4 1, 1 0",
]


def _points_text(f) -> str:
    return ", ".join(f"{x} {y}" for x, y in f.points)


class TestLeoOracle:
    """``is_leo`` against :func:`conftest.naive_is_leo`, which shares no
    partition with it.  Today they disagree on exactly the maps of
    ``KNOWN_LEO_DEFECTS``."""

    def test_disagreements_are_the_known_defects(self, minc):
        maps = [iterate(minc, k) for k in range(1, 5)]
        maps += [make_plmap(pair.split() for pair in text.split(", ")) for text in KNOWN_LEO_DEFECTS[:2]]
        rng = random.Random(20261020)
        maps += [random_markov_map(rng, rng.randint(2, 5)) for _ in range(300)]
        verdicts = [(f, is_leo(f), naive_is_leo(f)) for f in maps]
        assert [want for _, _, want in verdicts[:4]] == [True] * 4  # minc^1..4
        wants = [want for _, _, want in verdicts]
        assert wants.count(True) >= 50 and wants.count(False) >= 50
        defects = [(_points_text(f), got, want) for f, got, want in verdicts if got != want]
        assert defects == [(text, True, False) for text in KNOWN_LEO_DEFECTS]


class TestUniformCovering:
    def test_tent_scales(self, tent):
        assert not uniformly_onto(tent, F(1, 2))
        assert uniformly_onto(iterate(tent, 2), F(1, 2))

    def test_tent_uniform_time(self, tent):
        assert leo_uniform_N(tent, F(1, 2)) == 2

    def test_whole_interval_scale(self, minc, tent):
        for f in (minc, tent):
            assert leo_uniform_N(f, 2) == 1

    def test_minc_at_one_sixth(self, minc):
        assert leo_uniform_N(minc, F(1, 6)) == 3

    def test_identity_never_covers(self, identity):
        with pytest.raises(BudgetExceededError):
            leo_uniform_N(identity, F(1, 2), max_power=16)

    def test_positive_scale_required(self, minc):
        with pytest.raises(ValueError):
            leo_uniform_N(minc, 0)

    def test_map_that_is_not_onto(self):
        assert not uniformly_onto(make_plmap([(0, 0), (F(1, 2), F(1, 2)), (1, 0)]), F(1, 2))

    def test_map_19_refusal_stays_at_the_budget(self, monkeypatch):
        # map 19 of the bench's Markov family is the identity on [0, 1/3], so
        # it is not leo, though is_leo says it is.  The stabilization's
        # covering test at its ε/2 = 1/4 must fail on every power it builds,
        # f^1 to f^14, until composing f^15 trips the budget.
        f = make_plmap([(0, 0), (F(1, 3), F(1, 3)), (F(2, 3), 1), (1, 0)])
        calls = []

        def recording(g, eps):
            calls.append((g, eps, uniformly_onto(g, eps)))
            return calls[-1][2]

        monkeypatch.setattr(dynamics, "uniformly_onto", recording)
        with pytest.raises(BudgetExceededError) as info:
            certify_general(f, BackwardOrbit.constant(F(0)), stages=2, budget=40_000)
        assert str(info.value) == "composition needs more than 40000 breakpoints"
        # every power was only composed, covering-tested and asked for its
        # branch, all on its integer keys, so none of them made its Fraction
        # points, f^1 included, whose critical orbits also run on its keys
        assert [k for k, (g, _, _) in enumerate(calls, 1) if "points" in g.__dict__] == []
        assert all("xs" not in g.__dict__ and "ys" not in g.__dict__ for g, _, _ in calls)
        powers = IterateCache(f)
        assert [(g, eps) for g, eps, _ in calls] == [(powers.power(k), F(1, 4)) for k in range(1, 15)]
        assert len(calls[-1][0].points) == 24_577
        for g, eps, covers in calls:
            assert covers is False
            assert naive_uniformly_onto(g, eps) is False


class TestBackwardOrbit:
    def test_indexing(self):
        orbit = BackwardOrbit.of([F(1, 2)], [F(1, 3), F(2, 3)])
        assert [orbit.value_at(i) for i in range(5)] == [F(1, 2), F(1, 3), F(2, 3), F(1, 3), F(2, 3)]

    def test_minimal_period(self):
        assert BackwardOrbit.of([], [F(1, 2)] * 3).minimal_period() == 1
        assert BackwardOrbit.of([], [F(1, 3), F(2, 3), F(1, 3), F(2, 3)]).minimal_period() == 2

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            BackwardOrbit.of([], [])

    def test_validate_fixed_point(self, minc):
        validate_orbit(minc, BackwardOrbit.constant(F(1, 2)))

    def test_validate_rejects_non_orbit(self, minc):
        with pytest.raises(OrbitValidationError):
            validate_orbit(minc, BackwardOrbit.constant(F(1, 3)))

    def test_validate_checks_seam_and_wrap(self, minc):
        # 0 is fixed, so a prefix entry 0 before a constant block of 0 works
        validate_orbit(minc, BackwardOrbit.of([0], [0]))
        with pytest.raises(OrbitValidationError):
            validate_orbit(minc, BackwardOrbit.of([F(1, 2)], [0]))

    def test_file_format_round_trip(self):
        orbit = BackwardOrbit.of([F(1, 2)], [F(1, 3), F(2, 3)])
        assert parse_orbit(format_orbit(orbit)) == orbit
        assert parse_orbit("# comment\nprefix: ; period: 1/2") == BackwardOrbit.constant(F(1, 2))

    def test_malformed_orbit_text(self):
        with pytest.raises(ValueError):
            parse_orbit("period: 1/2")
        with pytest.raises(ValueError):
            parse_orbit("prefix: 1/2 ; period:")


class TestBranchStabilization:
    def test_minc_fixed_point(self, minc):
        stab, _ = branch_stabilization(minc, BackwardOrbit.constant(F(1, 2)))
        assert (stab.a, stab.b) == (F(1, 3), F(2, 3))
        assert stab.side == "left-gap"
        assert stab.epsilon == F(1, 12)
        assert stab.n0 == 0
        assert stab.step == 4

    def test_prefix_moves_the_first_index(self, minc):
        # the tracked indices n0 + i·step start after the orbit's prefix
        stab, _ = branch_stabilization(minc, BackwardOrbit.of([F(1, 2)], [F(1, 2)]))
        assert (stab.n0, stab.step) == (1, 4)

    def test_window_avoids_orbit_values(self, minc):
        stab, _ = branch_stabilization(minc, BackwardOrbit.constant(F(1, 2)))
        assert not (stab.a <= F(1, 2) < stab.a + stab.epsilon)

    def test_tent_fixed_point(self, tent):
        stab, _ = branch_stabilization(tent, BackwardOrbit.constant(F(2, 3)))
        assert (stab.a, stab.b) == (F(0), F(1))

    def test_requires_leo(self):
        mono = make_plmap([(0, 0), (F(1, 3), F(3, 4)), (1, 1)])
        with pytest.raises(ValueError):
            branch_stabilization(mono, BackwardOrbit.constant(F(0)))

    def test_branch_window_reproduced_by_block_map(self, minc):
        stab, block = branch_stabilization(minc, BackwardOrbit.constant(F(1, 2)))
        assert block == iterate(minc, stab.step)
        assert branch(block, F(1, 2)).B == (stab.a, stab.b)

    @pytest.mark.parametrize(
        "name, orbit, side",
        [
            ("minc", BackwardOrbit.constant(F(1, 2)), "left-gap"),
            ("minc", BackwardOrbit.constant(F(0)), "right-gap"),
            ("minc", BackwardOrbit.of([], [F(4, 19), F(12, 19)]), "left-gap"),
            ("tent", BackwardOrbit.constant(F(2, 3)), "left-gap"),
        ],
        ids=["minc-half", "minc-zero", "minc-2-cycle", "tent-two-thirds"],
    )
    def test_every_tracked_value_keeps_the_branch_and_clears_the_gap(
        self, request, name, orbit, side
    ):
        # the stage loop does not check these again: every tracked index
        # n0 + i·step sits on the residue whose value was checked here
        stab, block = branch_stabilization(request.getfixturevalue(name), orbit)
        assert stab.side == side
        for i in (1, 2, 3):
            x = orbit.value_at(stab.n0 + i * stab.step)
            assert branch(block, x).B == (stab.a, stab.b)
            if side == "left-gap":
                assert not stab.a <= x < stab.a + stab.epsilon
            else:
                assert not stab.b - stab.epsilon < x <= stab.b

    @pytest.mark.parametrize(
        "limits, reason",
        [
            (
                {"PROBE_PER_PERIOD": 0, "PROBE_SLACK": 0},
                "no orbit residue produced a stabilized branch within probe depth 0",
            ),
            (
                {"MAX_BLOCK_MULTIPLE": 0},
                "no block length up to 0 periods satisfies the branch and covering conditions",
            ),
        ],
        ids=["no-residue", "no-block-length"],
    )
    def test_search_limits_refuse_with_a_budget_error(self, monkeypatch, minc, limits, reason):
        orbit = BackwardOrbit.constant(F(1, 2))
        data = certificate_to_dict(certify_general(minc, orbit, 4))
        for name, value in limits.items():
            monkeypatch.setattr(dynamics, name, value)
        with pytest.raises(BudgetExceededError) as excinfo:
            certify_general(minc, orbit, 4)
        assert str(excinfo.value) == reason
        assert verify_certificate(data) == (
            False, f"re-deriving the certificate exceeds the budget: {reason}"
        )


class TestBranchStructure:
    def test_branch_endpoints_live_in_the_orbit_closure(self, minc):
        # branch images of any iterate have endpoints among the finitely
        # many forward images of the critical set
        closure = set(markov_partition(minc))
        rng = random.Random(33)
        for n in range(1, 5):
            fn = iterate(minc, n)
            for _ in range(25):
                lo, hi = branch(fn, F(rng.randint(0, 97), 97)).B
                assert lo in closure and hi in closure

    def test_markov_rows_are_exact_images(self, minc):
        pts = markov_partition(minc)
        M = transition_matrix(minc, pts)
        for u in range(len(pts) - 1):
            flagged = [v for v in range(len(pts) - 1) if M[u][v]]
            lo, hi = image_interval(minc, pts[u], pts[u + 1])
            assert (lo, hi) == (pts[flagged[0]], pts[flagged[-1] + 1])
            assert flagged == list(range(flagged[0], flagged[-1] + 1))

    def test_semidecision_agrees_with_primitivity(self, minc):
        # forcing the orbit probe to fail routes the decision through the
        # growth-and-covering fallback, which must agree
        assert is_leo(minc, orbit_budget=0) is True
        assert is_leo(minc) is True

    def test_growth_fallback_on_a_two_lap_map(self):
        # no interior lap: growth above 1 alone decides, with no orbit closed
        f = make_plmap([(0, 0), (F(6, 25), F(9, 10)), (F(1, 4), 1), (F(13, 50), F(9, 10)), (1, 0)])
        assert len(laps(f)) == 2 and dynamics._growth(f) == F(45, 37)
        assert is_leo(f, orbit_budget=0) is True

    def test_semidecision_reads_keys(self):
        # the growth bound and the covering scale come from the integer
        # keys, so the semi-decision makes no Fraction breakpoints
        minc = minc_map()
        assert is_leo(minc, orbit_budget=0) is True
        wandering = make_plmap([(0, 0), (F(1, 2), 1), (1, F(1, 3))])
        assert is_leo(wandering) is None and dynamics._growth(wandering) == F(4, 5)
        for f in (minc, wandering):
            assert not {"points", "xs", "ys"} & f.__dict__.keys()

    def test_growth_fallback_undecided_past_its_depth(self, monkeypatch, minc):
        monkeypatch.setattr(dynamics, "LEO_FALLBACK_DEPTH", 1)
        assert is_leo(minc, orbit_budget=0) is None


class TestBranchNesting:
    def test_nesting_along_backward_orbits(self, minc):
        rng = random.Random(31)
        iterates = {j: iterate(minc, j) for j in range(1, 7)}
        for _ in range(20):
            chain = [F(rng.randint(0, 64), 64)]
            for _ in range(6):
                chain.append(rng.choice(naive_solutions(minc, chain[-1])))
            for i in range(6):
                for j in range(1, 6 - i):
                    outer = branch(iterates[j], chain[i + j]).B
                    inner = branch(iterates[j + 1], chain[i + j + 1]).B
                    assert outer[0] <= inner[0] and inner[1] <= outer[1]


class TestOneOrbitTable:
    """A command computes the critical orbits once and reads post-critical
    finiteness, the Markov partition and the leo verdict from that table."""

    @pytest.fixture
    def tables(self, monkeypatch):
        """Maps whose orbit table was built, counted at every plzig module
        binding of ``_orbit_table``, the walk that ``post_critical_orbits``
        and ``map_facts`` both call."""
        built = []
        original = dynamics._orbit_table

        def counting(f, *args, **kwargs):
            built.append(f)
            return original(f, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("plzig") and vars(module).get("_orbit_table") is original:
                monkeypatch.setattr(module, "_orbit_table", counting)
        return built

    def test_analysis_report(self, minc, tables):
        report = analysis_report(minc)
        assert report["post_critically_finite"] is True and report["leo"] is True
        assert len(tables) == 1

    def test_analysis_report_with_open_orbits(self, minc, tables):
        report = analysis_report(minc, orbit_budget=1)
        assert report["post_critically_finite"] is None and report["leo"] is True
        assert len(tables) == 1

    def test_certify_general(self, minc, tables):
        assert certify_general(minc, BackwardOrbit.constant(F(1, 2)), 4).passed
        assert len(tables) == 1

    def test_verify_general_certificate(self, minc, tables):
        data = certificate_to_dict(certify_general(minc, BackwardOrbit.constant(F(1, 2)), 4))
        tables.clear()
        assert verify_certificate(data) == (True, "ok")
        assert len(tables) == 1

    def test_is_leo(self, minc, tables):
        assert is_leo(minc) is True
        assert len(tables) == 1

    def test_markov_partition(self, minc, tables):
        assert len(markov_partition(minc)) == 6
        assert len(tables) == 1
