import hashlib
import random
from fractions import Fraction as F

import pytest

from plzig.plmap import (
    BudgetExceededError,
    PLMap,
    compose,
    critical_set,
    dumps_map,
    is_onto,
    iterate,
    laps,
    level_crossings,
    loads_map,
    make_plmap,
    parse_rational,
    _laps_at,
)
import plzig.dynamics as dynamics
from plzig.dynamics import BackwardOrbit
from plzig.factorize import CASE1, CASE2, certify_general, split_case1, split_case2
import plzig.plmap as plmap
import plzig.zigzag as zigzag

from conftest import (
    compose_candidates,
    image_interval,
    naive_compose,
    naive_dumps,
    naive_eval,
    naive_normalize,
    naive_solutions,
    naive_uniformly_onto,
    periodic_cycles,
    random_map,
    random_markov_map,
    scan_laps_at,
)


def _random_pair(rng):
    """Two random maps; coarse grids make inner values hit outer breakpoints,
    and now and then outer is rebuilt from its points with a collinear
    interior point added, which make_plmap drops again."""
    den = rng.choice([4, 8, 64])
    outer = random_map(rng, max_breakpoints=10, denominator=den)
    inner = random_map(rng, max_breakpoints=10, denominator=den)
    if rng.random() < 0.25:
        i = rng.randrange(len(outer.points) - 1)
        (x0, y0), (x1, y1) = outer.points[i], outer.points[i + 1]
        mid = ((x0 + x1) / 2, (y0 + y1) / 2)
        outer = make_plmap(outer.points[: i + 1] + (mid,) + outer.points[i + 1 :])
    return outer, inner


def _mixed_points(rng, runs: int = 0) -> list:
    """A random valid breakpoint list whose coordinates have unrelated
    denominators, with ``runs`` runs of collinear points inserted into
    random segments."""
    n = rng.randint(2, 9)
    xs = sorted({F(rng.randint(1, q - 1), q) for q in (rng.randint(2, 90) for _ in range(n - 2))})
    ys = []
    for _ in range(len(xs) + 2):
        while True:
            q = rng.choice([1, 2, 3, 5, 7, 16, 27, 81, 97, 1000])
            y = F(rng.randint(0, q), q)
            if not ys or y != ys[-1]:
                ys.append(y)
                break
    pts = list(zip([F(0), *xs, F(1)], ys))
    for _ in range(runs):
        i = rng.randrange(len(pts) - 1)
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        ts = sorted({F(rng.randint(1, q - 1), q) for q in (rng.randint(2, 30) for _ in range(rng.randint(1, 3)))})
        pts[i + 1:i + 1] = [(x0 + t * (x1 - x0), y0 + t * (y1 - y0)) for t in ts]
    return pts


def _least_keys(points) -> tuple:
    """The keys of the map through ``points``, from :func:`naive_normalize`
    and :func:`plzig.plmap._int_keys`."""
    den, keys = plmap._int_keys([F(c) for p in naive_normalize(points) for c in p])
    return den, keys[0::2], keys[1::2]


def _fold_points(block: PLMap, pair) -> tuple[list, list]:
    """The breakpoint lists of s and t of a fold split of ``block``, by the
    formulas of :class:`plzig.factorize.FactorPair` on its ``Fraction``
    points."""
    beta = pair.beta
    below = [p for p in block.points if p[0] < beta]
    above = [p for p in block.points if p[0] > beta]
    if pair.case == CASE1:
        s = [(x, beta * (1 - y)) for x, y in below] + [(beta, beta)] + [(F(1), F(1))] * (beta < 1)
        return s, [(F(0), F(1)), (beta, F(0)), *above]
    s = [(F(0), F(0))] * (beta > 0) + [(beta, beta)] + [(x, 1 - (1 - beta) * y) for x, y in above]
    return s, [*below, (beta, F(1)), (F(1), F(0))]


def _unrelated_family() -> list:
    """Markov maps and maps on grids 2^a·5^b, whose denominators are
    unrelated to the powers of 3 of minc's iterates."""
    rng = random.Random(15)
    family = [random_markov_map(rng, rng.choice([3, 4, 5])) for _ in range(6)]
    family += [random_map(rng, max_breakpoints=8, denominator=2**a * 5**b) for a, b in [(3, 1), (1, 2), (4, 0), (0, 3)]]
    return family


def _refuses(compose_fn, outer, inner, budget) -> bool:
    try:
        compose_fn(outer, inner, budget=budget)
    except BudgetExceededError:
        return True
    return False


class TestRational:
    def test_parse_and_format(self):
        assert parse_rational("7/18") == F(7, 18)
        assert parse_rational("0") == 0
        assert parse_rational(" 1 ") == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("a/b")

    @pytest.mark.parametrize("text", ["0.5", "1e-3", "1_0", "+1/2"])
    def test_parse_reads_only_what_str_writes(self, text):
        # Fraction's own grammar takes these; str(Fraction) never writes them
        with pytest.raises(ValueError, match="malformed rational literal"):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text",
        ["1/" + "9" * 4400, "-" + "7" * 4400 + "/3", "7" * 4400],
        ids=["denominator", "negative-numerator", "integer"],
    )
    def test_parse_refuses_a_part_past_the_digit_limit(self, text):
        # Fraction would raise the interpreter's own advice on raising
        # the limit; the refusal gives the digit count, not the literal
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        message = str(info.value)
        assert message.startswith("rational literal too long: a numerator or denominator of 4400 digits")
        assert "set_int_max_str_digits" not in message and len(message) < 100
        with pytest.raises(ValueError, match="too long: a numerator or denominator of 4400 digits"):
            loads_map(f"0 0\n1/2 {text.lstrip('-')}\n1 0\n")


class TestConstruction:
    def test_minc_map(self, minc):
        assert len(minc.points) == 6
        assert minc.points[1] == (F(1, 3), F(1))

    def test_collinear_interior_point_merged(self):
        f = make_plmap([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])
        assert f.points == ((F(0), F(0)), (F(1), F(1)))

    def test_already_normalized_untouched(self):
        pts = [(0, 0), (F(1, 4), F(3, 4)), (F(1, 2), 1), (1, 0)]
        f = make_plmap(pts)
        assert len(f.points) == 4

    def test_normalization_idempotent(self):
        rng = random.Random(4)
        for _ in range(50):
            f = random_map(rng)
            assert make_plmap(f.points) == f

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            make_plmap([(F(1, 8), 0), (1, 1)])
        with pytest.raises(ValueError):
            make_plmap([(0, 0), (F(1, 2), 1)])

    def test_rejects_non_increasing_x(self):
        with pytest.raises(ValueError):
            make_plmap([(0, 0), (F(1, 2), 1), (F(1, 2), 0), (1, 1)])

    def test_backtracking_points_rejected_before_merging(self):
        # every point lies on the diagonal, so a merge would leave the
        # identity; the input is validated first
        message = "breakpoint x-coordinates must increase: 1/2 then 1/4"
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_plmap([(0, 0), (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)), (1, 1)])
        with pytest.raises(ValueError, match=f"^{message}$"):
            loads_map("0 0\n1/2 1/2\n1/4 1/4\n1 1\n")

    @pytest.mark.parametrize(
        "den, xk, yk, repeated",
        [(1, [0, 1, 1], [0, 1, 1], "1"), (2, [0, 1, 1, 2], [0, 1, 1, 2], "1/2")],
        ids=["last", "interior"],
    )
    def test_repeated_x_key_refused_by_the_normalizer(self, den, xk, yk, repeated):
        # a zero-length segment on a line passes the collinear test, so the
        # one normalizer that make_plmap and the fold splits share checks
        # the keys as given before it drops anything
        message = f"breakpoint x-coordinates must increase: {repeated} then {repeated}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            plmap._normalized(den, xk, yk)
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_plmap([(F(x, den), F(y, den)) for x, y in zip(xk, yk)])

    def test_normalization_matches_stack_oracle(self):
        rng = random.Random(5)
        merged = 0
        for _ in range(300):
            pts = _mixed_points(rng, runs=rng.randint(0, 3))
            f = make_plmap(pts)
            assert list(f.points) == naive_normalize(pts), pts
            assert make_plmap([(str(x), str(y)) for x, y in pts]) == f
            merged += len(pts) - len(f.points)
        assert merged > 300

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            make_plmap([(0, 0), (F(1, 2), F(3, 2)), (1, 0)])

    def test_rejects_constant_segment(self):
        with pytest.raises(ValueError):
            make_plmap([(0, F(1, 2)), (F(1, 2), F(1, 2)), (1, 1)])

    @pytest.mark.parametrize(
        "points, message",
        [
            (((0, 0),), "a piecewise-linear map needs at least two breakpoints"),
            (((F(1, 8), 0), (1, 1)), "first breakpoint must have x=0, got x=1/8"),
            (((0, 0), (F(1, 2), 1)), "last breakpoint must have x=1, got x=1/2"),
            (((0, 0), (F(1, 2), 1), (F(1, 2), 0), (1, 1)), "breakpoint x-coordinates must increase: 1/2 then 1/2"),
            (
                ((0, 1), (F(1, 3), F(1, 2)), (F(2, 3), F(1, 2)), (1, 0)),
                "constant segment at level 1/2: maps must be piecewise strictly monotone",
            ),
            (((0, 0), (F(1, 2), F(3, 2)), (1, 0)), "value 3/2 at x=1/2 lies outside [0, 1]"),
            (((0, 0), (F(1, 2), F(-1, 4)), (1, 0)), "value -1/4 at x=1/2 lies outside [0, 1]"),
        ],
        ids=["two-points", "first-x", "last-x", "increasing-x", "flat", "above-1", "below-0"],
    )
    def test_validation_messages(self, points, message):
        with pytest.raises(ValueError) as exc:
            make_plmap(points)
        assert str(exc.value) == message

    def test_rejects_float_coordinates(self):
        # a float breakpoint would make evaluation return floats
        for points in [((0, 0), (0.5, 1.0), (1, 0)), ((0, 0), (F(1, 2), 1), (1.0, 0))]:
            with pytest.raises(TypeError, match="^expected a rational value, got float$"):
                make_plmap(points)


class TestEvaluate:
    def test_minc_values(self, minc):
        assert minc(F(1, 3)) == 1
        assert minc(F(1, 2)) == F(1, 2)  # fixed point
        assert minc(F(5, 9)) == F(2, 3)
        assert minc(0) == 0

    def test_identity(self, identity):
        for q in [F(0), F(3, 7), F(1, 2), F(1)]:
            assert identity(q) == q

    def test_outside_domain_rejected(self, minc):
        with pytest.raises(ValueError):
            minc(F(3, 2))
        with pytest.raises(ValueError):
            minc(F(-1, 2))

    def test_matches_fraction_oracle(self, minc):
        rng = random.Random(6)
        maps = [iterate(minc, 3)]
        for _ in range(150):
            pts = _mixed_points(rng, runs=rng.choice([0, 0, 1, 2]))
            maps.append(make_plmap(pts))
        for f in maps:
            queries = [F(0), F(1)]
            for x in f.xs:
                # each breakpoint, and points just either side of it
                queries += [x, max(x - F(1, 10**9 + 7), F(0)), min(x + F(1, 10**9 + 9), F(1))]
            for q in (9973, 10007, rng.randint(2, 10**6)):
                queries += [F(rng.randint(0, q), q) for _ in range(4)]
            for x in queries:
                assert f(x) == naive_eval(f, x), (f, x)
            for x in rng.sample(queries, 5):
                assert f(str(x)) == naive_eval(f, x), (f, x)
            for x, y in f.points:
                assert f(x) == y


class TestCompose:
    def test_identity_is_neutral(self, minc, identity):
        assert compose(identity, minc) == minc
        assert compose(minc, identity) == minc

    def test_pointwise_oracle(self):
        rng = random.Random(11)
        f = random_map(rng)
        g = random_map(rng)
        gf = compose(g, f)
        for _ in range(10_000):
            x = F(rng.randint(0, 9973), 9973)
            assert gf(x) == g(f(x))

    def test_associativity(self):
        rng = random.Random(12)
        for _ in range(20):
            f, g, h = (random_map(rng, max_breakpoints=5) for _ in range(3))
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)

    def test_budget_guard(self, minc):
        with pytest.raises(BudgetExceededError):
            compose(minc, iterate(minc, 3), budget=50)

    def test_matches_candidate_set_oracle(self, minc):
        rng = random.Random(13)
        pairs = [_random_pair(rng) for _ in range(200)]
        pairs += [(minc, iterate(minc, 3)), (iterate(minc, 3), minc)]
        for outer, inner in pairs:
            assert compose(outer, inner) == naive_compose(outer, inner), (outer, inner)

    def test_budget_refusal_matches_oracle(self):
        rng = random.Random(14)
        for _ in range(40):
            outer, inner = _random_pair(rng)
            for budget in range(1, len(compose_candidates(outer, inner)) + 2):
                expected = _refuses(naive_compose, outer, inner, budget)
                assert _refuses(compose, outer, inner, budget) == expected, (outer, inner, budget)

    def test_budget_boundary_is_candidate_count(self, minc):
        inner = iterate(minc, 3)
        count = len(compose_candidates(minc, inner))
        assert compose(minc, inner, budget=count) == naive_compose(minc, inner)
        with pytest.raises(BudgetExceededError, match=f"more than {count - 1} breakpoints"):
            compose(minc, inner, budget=count - 1)


    def test_matches_oracle_across_denominators(self, minc):
        # minc's powers have denominators 3^k; the other maps' are unrelated
        family = _unrelated_family()
        for k in (1, 2, 3):
            power = iterate(minc, k)
            for f in family:
                assert compose(power, f) == naive_compose(power, f), (k, f)
                assert compose(f, power) == naive_compose(f, power), (k, f)

    def test_range_matches_restricted_oracle(self, minc):
        """_compose_segments over inner's segments lo to hi - 1 gives the
        keys of the composite on [inner.xs[lo], inner.xs[hi]]: its two ends
        and the breakpoints strictly between them, at their least common
        denominator."""
        rng = random.Random(16)
        pairs = [_random_pair(rng) for _ in range(150)] + [(minc, iterate(minc, 2)), (iterate(minc, 2), minc)]
        for outer, inner in pairs:
            whole = naive_compose(outer, inner)
            for _ in range(4):
                lo, hi = sorted(rng.sample(range(len(inner.xs)), 2))
                a, b = inner.xs[lo], inner.xs[hi]
                expected = [(a, whole(a)), *(p for p in whole.points if a < p[0] < b), (b, whole(b))]
                den, xk, yk = plmap._compose_segments(outer, inner, lo, hi)
                keys = tuple(k for pair in zip(xk, yk) for k in pair)
                assert (den, keys) == plmap._int_keys([c for p in expected for c in p]), (outer, inner, lo, hi)

    def test_outputs_are_byte_identical(self, minc):
        # digests of the maps the Fraction kernel built before integer keys
        f19 = make_plmap([(0, 0), (F(1, 3), F(1, 3)), (F(2, 3), 1), (1, 0)])
        for f, n, size, digest in [
            (minc, 6, 5_462, "66daa9893c1b2fe78579fda81749f50cbfb85f9442946121e2bd2834cabe7738"),
            (f19, 14, 24_577, "91812307d1c2344c86f7d2b084683abac75a5ed8a7aea6a5ef5499488835ef20"),
        ]:
            power = iterate(f, n)
            assert len(power.points) == size
            assert hashlib.sha256(dumps_map(power).encode()).hexdigest() == digest


class TestKeyBornMaps:
    """Every map is built from its normalized integer keys; its points are
    made from them on first read."""

    def test_keys_are_the_least_common_denominator_keys(self, minc):
        rng = random.Random(17)
        pairs = [_random_pair(rng) for _ in range(300)]
        powers = [iterate(minc, k) for k in (1, 2, 3, 4)]
        pairs += [(p, minc) for p in powers] + [(minc, p) for p in powers]
        pairs += [(p, f) for p in powers[:3] for f in _unrelated_family()]
        pairs += [(f, p) for p in powers[:3] for f in _unrelated_family()]
        for outer, inner in pairs:
            g = compose(outer, inner)
            den, xk, yk = g._keys
            keys = tuple(k for pair in zip(xk, yk) for k in pair)
            assert (den, keys) == plmap._int_keys([c for p in g.points for c in p]), (outer, inner)
        # make_plmap normalizes its input, and a merge can lower the denominator
        lists = [[(0, 0), (F(1, 6), F(1, 2)), (F(1, 3), 1), (1, 0)]]
        lists += [_mixed_points(rng, runs=rng.randint(1, 3)) for _ in range(200)]
        for points in lists:
            assert make_plmap(points)._keys == _least_keys(points), points
        assert make_plmap(lists[0])._keys == (3, (0, 1, 3), (0, 3, 0))
        # the fold splits build s and t from slices of the block map's keys
        f2 = powers[1]
        blocks = [(f2, split_case1(f2, F(7, 18))), (f2, split_case2(f2, F(11, 18)))]
        for forward in periodic_cycles(minc, 2):
            cert = certify_general(minc, BackwardOrbit.of([], forward[:1] + forward[:0:-1]), stages=2)
            blocks.append((iterate(minc, cert.stabilization.step), cert.stages[0].pair))
        assert {pair.case for _, pair in blocks} == {CASE1, CASE2}
        for block, pair in blocks:
            s_points, t_points = _fold_points(block, pair)
            assert pair.s._keys == _least_keys(s_points), (pair.case, pair.beta)
            assert pair.t._keys == _least_keys(t_points), (pair.case, pair.beta)

    def test_equality_and_hash_follow_the_breakpoints(self, minc):
        rng = random.Random(18)
        maps = [compose(*_random_pair(rng)) for _ in range(50)] + [iterate(minc, k) for k in (2, 3)]
        for g in maps:
            twin = make_plmap(g.points)
            assert g == twin and hash(g) == hash(twin)
            assert twin.points == g.points and twin.points is not g.points
        # a collinear list builds the same map as its normalized twin
        twin = make_plmap([(0, 0), (F(1, 2), 1), (1, 0)])
        collinear = make_plmap(((0, 0), (F(1, 4), F(1, 2)), (F(1, 2), 1), (1, 0)))
        assert collinear == twin and hash(collinear) == hash(twin)
        assert make_plmap(collinear.points) == twin

    def test_points_are_made_once_from_the_keys(self, minc):
        g = compose(minc, iterate(minc, 2))
        assert not {"points", "xs", "ys"} & set(g.__dict__)
        assert g.points is g.points and g.xs is g.xs and g.ys is g.ys
        assert g.points == tuple(zip(g.xs, g.ys))
        assert all(type(v) is F for p in g.points for v in p)
        # equal values are one object
        assert len({id(y) for y in g.ys}) == len(set(g.ys))

    def test_maps_are_frozen(self, minc):
        g = iterate(minc, 2)
        for f in (minc, g):
            with pytest.raises(AttributeError):
                f.points = ()
            with pytest.raises(AttributeError):
                f.anything = 1
            with pytest.raises(AttributeError):
                del f._keys

    def test_power_is_the_previous_power_then_the_map(self, minc):
        f19 = make_plmap([(0, 0), (F(1, 3), F(1, 3)), (F(2, 3), 1), (1, 0)])
        for f, top in ((minc, 4), (f19, 8)):
            cache = plmap.IterateCache(f)
            for k in range(1, top):
                assert cache.power(k + 1) == naive_compose(cache.power(k), f), (f, k)


class TestIterate:
    def test_second_iterate_fold_values(self, minc):
        f2 = iterate(minc, 2)
        assert f2(F(7, 18)) == 0
        assert f2(F(11, 18)) == 1

    def test_first_iterate_is_the_map(self, minc):
        assert iterate(minc, 1) == minc

    def test_zero_rejected(self, minc):
        with pytest.raises(ValueError):
            iterate(minc, 0)

    def test_additive_law(self, minc):
        assert iterate(minc, 5) == compose(iterate(minc, 2), iterate(minc, 3))

    @pytest.mark.parametrize(
        "build",
        [
            lambda f: iterate(f, 3),
            lambda f: dynamics.leo_uniform_N(f, F(1, 6)),
            lambda f: dynamics.branch_stabilization(f, dynamics.BackwardOrbit.constant(F(1, 2))),
        ],
        ids=["iterate", "leo_uniform_N", "branch_stabilization"],
    )
    def test_powers_are_built_by_the_iterate_cache(self, monkeypatch, minc, build):
        # every power f^k∘f is composed inside IterateCache.power, nowhere else
        power, compose_ = plmap.IterateCache.power, plmap.compose
        calls, depth, stray = [], [0], []

        def counted_power(self, n):
            calls.append(n)
            depth[0] += 1
            try:
                return power(self, n)
            finally:
                depth[0] -= 1

        def watched_compose(outer, inner, budget=None):
            if minc in (outer, inner) and depth[0] == 0:
                stray.append(len(inner.points))
            return compose_(outer, inner, budget)

        monkeypatch.setattr(plmap.IterateCache, "power", counted_power)
        for module in (plmap, dynamics, zigzag):
            if getattr(module, "compose", None) is compose_:
                monkeypatch.setattr(module, "compose", watched_compose)
        build(minc)
        assert calls and not stray

    def test_iterate_cache_composes_each_power_once(self, monkeypatch, minc):
        want = [minc, iterate(minc, 2), iterate(minc, 3)]
        composed = []
        compose_ = plmap.compose
        monkeypatch.setattr(plmap, "compose", lambda *a: composed.append(a) or compose_(*a))
        cache = plmap.IterateCache(minc)
        assert [cache.power(n) for n in (3, 1, 2, 3)] == [want[2], want[0], want[1], want[2]]
        assert len(composed) == 2
        # f^(k+1) is f^k∘f: the power is the outer map
        assert [(outer, inner) for outer, inner, _ in composed] == [(minc, minc), (want[1], minc)]
        with pytest.raises(ValueError, match="iteration count must be at least 1"):
            cache.power(0)


class TestCriticalSetAndLaps:
    def test_minc_critical_set(self, minc):
        assert critical_set(minc) == [F(1, 3), F(4, 9), F(5, 9), F(2, 3)]

    def test_identity_has_no_critical_points(self, identity):
        assert critical_set(identity) == []

    def test_second_iterate_counts(self, minc):
        f2 = iterate(minc, 2)
        assert len(f2.points) == 22
        assert len(critical_set(f2)) == 20
        assert len(laps(f2)) == 21

    def test_minc_laps(self, minc):
        lp = laps(minc)
        assert lp == [
            (F(0), F(1, 3)),
            (F(1, 3), F(4, 9)),
            (F(4, 9), F(5, 9)),
            (F(5, 9), F(2, 3)),
            (F(2, 3), F(1)),
        ]

    def test_identity_single_lap(self, identity):
        lp = laps(identity)
        assert lp == [(F(0), F(1))]

    def test_laps_alternate_and_cover(self):
        rng = random.Random(13)
        for _ in range(50):
            f = random_map(rng)
            lp = laps(f)
            assert lp[0].left == 0 and lp[-1].right == 1
            # the breakpoint values inside each lap strictly rise or strictly
            # fall (no segment is flat), so a missed turning point fails here
            rising = []
            for lap in lp:
                vals = [y for x, y in f.points if lap.left <= x <= lap.right]
                steps = {v > u for u, v in zip(vals, vals[1:])}
                assert len(steps) == 1, (f, lap)
                rising.append(steps.pop())
            for a, b, ra, rb in zip(lp, lp[1:], rising, rising[1:]):
                assert a.right == b.left
                assert ra != rb


class TestLevelCrossings:
    def test_boundary_levels(self, minc):
        assert level_crossings(minc, 0) == [F(0), F(2, 3)]
        assert level_crossings(minc, 1) == [F(1, 3), F(1)]

    def test_half_level(self, minc):
        # every one of the five laps spans the level 1/2, so five crossings;
        # the library solves only at 0 and 1, the oracle at any level
        xs = naive_solutions(minc, F(1, 2))
        assert xs == [F(1, 6), F(5, 12), F(1, 2), F(7, 12), F(5, 6)]
        for x in xs:
            assert minc(x) == F(1, 2)
        for c in (F(1, 2), "1/3", 2, -1):
            with pytest.raises(ValueError, match="solves only at the levels 0 and 1"):
                level_crossings(minc, c)

    def test_every_crossing_evaluates_back(self):
        rng = random.Random(14)
        for _ in range(30):
            f = random_map(rng)
            c = F(rng.randint(0, 64), 64)
            for x in naive_solutions(f, c):
                assert f(x) == c

    def test_boundary_levels_are_the_solutions(self):
        # levels 0 and 1 are kept on the map; each answer is every solution
        # on every segment, and a caller's edit to it reaches no later call
        rng = random.Random(15)
        for _ in range(200):
            f = random_map(rng, denominator=8)
            for c in (F(0), F(1)):
                want = naive_solutions(f, c)
                got = level_crossings(f, c)
                assert got == want
                got.append(F(2))
                assert level_crossings(f, c) == want


def _level_key_maps(minc: PLMap) -> list[PLMap]:
    """Maps for the 0/1-level readers: random maps on one grid, Markov maps,
    minc^1..4, maps whose breakpoints have unrelated denominators (some with
    collinear points, which make_plmap merges) and maps that miss 0, 1 or
    both."""
    rng = random.Random(19)
    maps = [random_map(rng, max_breakpoints=rng.randint(2, 12), denominator=rng.choice([4, 8, 60, 64, 250]))
            for _ in range(120)]
    maps += [random_markov_map(rng, rng.randint(2, 6)) for _ in range(80)]
    maps += [iterate(minc, k) for k in (1, 2, 3, 4)]
    maps += [make_plmap(_mixed_points(rng)) for _ in range(40)]
    maps += [make_plmap(_mixed_points(rng, runs=rng.randint(1, 3))) for _ in range(40)]
    # squeeze the values of random maps into [0, 2/3], [1/3, 1] and [1/5, 4/5]
    for lo, width in ((F(0), F(2, 3)), (F(1, 3), F(2, 3)), (F(1, 5), F(3, 5))):
        for _ in range(10):
            f = random_map(rng, max_breakpoints=8, denominator=rng.choice([8, 64]))
            maps.append(make_plmap([(x, lo + width * y) for x, y in f.points]))
    return maps


def _scales(f: PLMap) -> set:
    """Every gap the solutions of f = 0 or f = 1 leave in [0, 1], each as
    a Fraction, as a str and 10^-6 to either side, plus the ints 1 and 2."""
    out = {1, 2}
    for v in (0, 1):
        ends = [F(0), *naive_solutions(f, v), F(1)]
        for g in {b - a for a, b in zip(ends, ends[1:])} - {0}:
            out |= {g, str(g), g + F(1, 10**6)}
            if g > F(1, 10**6):
                out.add(g - F(1, 10**6))
    return out


class TestLevelsOnKeys:
    """The readers of the levels 0 and 1 read the integer keys; each
    agrees with a ``Fraction`` scan of the breakpoints."""

    def test_against_point_scans(self, minc):
        maps = _level_key_maps(minc)
        assert len(maps) >= 300
        kinds = {(is_onto(f), bool(naive_solutions(f, 0)), bool(naive_solutions(f, 1))) for f in maps}
        assert kinds == {(True, True, True), (False, True, False), (False, False, True), (False, False, False)}
        for f in maps:
            assert level_crossings(f, 0) == naive_solutions(f, 0), f
            assert level_crossings(f, 1) == naive_solutions(f, 1), f
            ys = [y for _, y in f.points]
            assert is_onto(f) == (min(ys) == 0 and max(ys) == 1), f
            for eps in _scales(f):
                assert dynamics.uniformly_onto(f, eps) == naive_uniformly_onto(f, eps), (f, eps)

    def test_scale_must_be_positive(self, minc):
        for eps in (0, "0", F(-1, 2), "-1/3"):
            with pytest.raises(ValueError, match="scale must be positive"):
                dynamics.uniformly_onto(minc, eps)


class TestLapLookup:
    """``is_in_zigzag`` and ``branch`` find the laps holding a point by one
    bisection; with the linear scan in its place they must answer the same."""

    def test_bisection_matches_linear_scan(self, minc, monkeypatch):
        rng = random.Random(28)
        maps = [iterate(minc, k) for k in range(1, 5)] + [random_map(rng) for _ in range(100)]
        queries = [
            (f, y)
            for f in maps
            for y in f.xs + tuple((a + b) / 2 for a, b in zip(f.xs, f.xs[1:]))
        ]
        outside = [(f, F(3, 2)) for f in maps] + [(minc, F(-1, 2))]
        for f, y in queries + outside:
            assert _laps_at(f, y) == scan_laps_at(f, y), (f, y)

        def answers():
            return [(zigzag.is_in_zigzag(f, y), dynamics.branch(f, y)) for f, y in queries]

        bisected = answers()
        monkeypatch.setattr(zigzag, "_laps_at", scan_laps_at)
        monkeypatch.setattr(dynamics, "_laps_at", scan_laps_at)
        assert answers() == bisected


class TestOntoAndImages:
    def test_minc_is_onto(self, minc):
        assert is_onto(minc)

    def test_strictly_interior_range_is_not_onto(self):
        assert not is_onto(make_plmap([(0, F(1, 4)), (1, F(3, 4))]))

    def test_image_interval(self, minc):
        assert image_interval(minc, F(1, 3), F(2, 3)) == (F(0), F(1))
        assert image_interval(minc, F(4, 9), F(5, 9)) == (F(1, 3), F(2, 3))


class TestMapFiles:
    def test_round_trip(self, minc):
        assert loads_map(dumps_map(minc)) == minc

    def test_text_is_str_of_each_coordinate(self, minc):
        # dumps_map writes from the keys; the oracle writes str(Fraction)
        # of the points
        rng = random.Random(29)
        maps = [iterate(minc, k) for k in range(1, 6)] + _unrelated_family()
        for _ in range(300):
            outer, inner = _random_pair(rng)
            maps += [outer, inner, compose(outer, inner)]
        f2 = maps[1]
        for pair in (split_case1(f2, F(7, 18)), split_case2(f2, F(11, 18))):
            maps += [pair.s, pair.t]
        for f in maps:
            assert dumps_map(f) == naive_dumps(f), f

    def test_comments_and_blanks(self):
        text = "# tent map\n\n0 0\n1/2 1\n1 0\n"
        f = loads_map(text)
        assert len(f.points) == 3

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            loads_map("0 0\nnonsense\n1 1\n")
        with pytest.raises(ValueError):
            loads_map("0 0 0\n1 1\n")
        with pytest.raises(ValueError):
            loads_map("# only comments\n")
