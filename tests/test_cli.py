import hashlib
import json
import random
import re
from fractions import Fraction as F

import pytest

import plzig.cli as cli
from plzig.cli import _json_text, _report_text, analysis_report, build_parser, main, render_svg
from plzig.plmap import dumps_map, iterate, load_map, loads_map, make_plmap
import plzig.factorize
from plzig.factorize import _assemble, minc_map, verify_certificate

from conftest import critical_set, random_map, random_markov_map
from reference_curves import MINC_SQUARED_VERTICES


# maps written with these have literals under the interpreter's limit on
# int-string digits and outputs past it
BIG = 10**3999 + 7
LONG = 10**600 + 7


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def polyline_vertices(svg: str, size=600, pad=20.0):
    m = re.search(r'<polyline[^>]*points="([^"]+)"', svg)
    assert m
    span = size - 2 * pad
    pts = []
    for tok in m.group(1).split():
        sx, sy = tok.split(",")
        pts.append(((float(sx) - pad) / span, (size - pad - float(sy)) / span))
    return pts


class TestParser:
    def test_one_parser_per_process_answers_as_fresh_ones(self, capsys):
        # marks are appended to a list and the stage count has a default,
        # so state left on a shared parser would show in the second call
        commands = [
            ("plot", "--builtin", "minc", "--mark", "1/2,1/2"),
            ("plot", "--builtin", "minc", "--mark", "1/3,2/3"),
            ("certify", "--pipeline", "general", "--builtin", "minc", "--orbit", "const:1/2", "--stages", "3"),
            ("certify", "--pipeline", "general", "--builtin", "minc", "--orbit", "const:1/2"),
        ]
        shared = [run(capsys, *argv) for argv in commands * 2]
        assert build_parser() is build_parser()
        fresh = []
        for argv in commands:
            args = build_parser.__wrapped__().parse_args(argv)
            code = args.func(args)
            out = capsys.readouterr()
            fresh.append((code, out.out, out.err))
        assert shared == fresh * 2
        assert [out.count("<circle") for _, out, _ in fresh[:2]] == [1, 1]
        assert [len(json.loads(out)["stages"]) for _, out, _ in fresh[2:]] == [3, 6]


class TestPlot:
    def test_builtin_minc_vertices(self, capsys):
        code, out, _ = run(capsys, "plot", "--builtin", "minc")
        assert code == 0
        assert len(polyline_vertices(out)) == 6

    def test_second_iterate_matches_reference(self, capsys):
        code, out, _ = run(capsys, "plot", "--builtin", "minc", "--iterate", "2")
        assert code == 0
        verts = polyline_vertices(out)
        assert len(verts) == len(MINC_SQUARED_VERTICES)
        for (gx, gy), (rx, ry) in zip(verts, MINC_SQUARED_VERTICES):
            assert abs(gx - rx) < 1e-9 and abs(gy - ry) < 1e-9

    def test_identity_file_two_vertex_diagonal(self, capsys, tmp_path):
        path = tmp_path / "id.map"
        path.write_text("0 0\n1 1\n")
        code, out, _ = run(capsys, "plot", "--map", str(path))
        assert code == 0
        assert polyline_vertices(out) == [(0.0, 0.0), (1.0, 1.0)]

    def test_guides_and_marks(self, capsys):
        code, out, _ = run(
            capsys, "plot", "--builtin", "minc", "--guides", "1/3,2/3", "--mark", "1/2,1/2"
        )
        assert code == 0
        assert out.count("<line") == 4
        assert out.count("<circle") == 1

    def test_deterministic_output(self):
        f = minc_map()
        assert render_svg(f, guides=[F(1, 3)]) == render_svg(f, guides=[F(1, 3)])

    @pytest.mark.parametrize("size", ["0", "40", "-5"])
    def test_size_without_drawing_area_rejected(self, capsys, size):
        # the plot sits inside a 20-unit padding on each side
        code, out, err = run(capsys, "plot", "--builtin", "minc", "--size", size)
        assert code == 2 and out == ""
        assert f"error: --size must exceed 40, the padding around the plot, got {size}" in err
        code, out, _ = run(capsys, "plot", "--builtin", "minc", "--size", "41")
        assert code == 0 and 'width="1" height="1"' in out

    @pytest.mark.parametrize("mark", ["1/2", "1/2,1/2,1/2"])
    def test_mark_needs_two_coordinates(self, capsys, mark):
        code, out, err = run(capsys, "plot", "--builtin", "minc", "--mark", mark)
        assert code == 2 and out == ""
        assert f"error: --mark takes X,Y, got '{mark}'" in err

    @pytest.mark.parametrize(
        "option, value, bad",
        [("--guides", "1/3,5", "5"), ("--mark", "1/2,-2", "-2")],
        ids=["guides", "mark"],
    )
    def test_coordinate_outside_unit_interval_rejected(self, capsys, option, value, bad):
        code, out, err = run(capsys, "plot", "--builtin", "minc", option, value)
        assert code == 2 and out == ""
        assert f"error: {option} coordinate {bad} lies outside [0, 1]" in err


class TestAnalyze:
    def test_minc_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "minc")
        assert code == 0
        report = json.loads(out)
        assert report["zigzag_set"] == [["4/9", "5/9"]]
        assert report["leo"] is True
        assert report["post_critically_finite"] is True
        assert report["markov_partition"] == ["0", "1/3", "4/9", "5/9", "2/3", "1"]

    def test_identity_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "identity")
        assert code == 0
        report = json.loads(out)
        assert report["zigzag_set"] == []
        assert report["leo"] is False

    def test_second_iterate_contains_fixed_point(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "minc", "--iterate", "2")
        assert code == 0
        report = json.loads(out)
        spans = [(F(a), F(b)) for a, b in report["zigzag_set"]]
        assert any(a < F(1, 2) < b for a, b in spans)

    @pytest.mark.parametrize(
        "k, size, digest",
        [
            (5, 285_435, "408dbf1f20ed7ca310d08c3d06109331f130ea6aba380e574a11bf8e680f68ed"),
            (6, 1_171_121, "e36f6b5838972cf7c297e6c1a9a55a45b0464b31dc0fe7a7e7b2811a4dd0e0b7"),
        ],
        ids=["minc5", "minc6"],
    )
    def test_iterated_report_is_byte_identical(self, capsys, k, size, digest):
        # the report on minc^k evaluates the map at every point of its
        # Markov partition (1,366 points for k = 5, 5,462 for k = 6); the
        # minc^5 digest was recorded before maps were evaluated on integer
        # keys, the minc^6 one before primitivity read the next square's
        # positivity from prefix counts
        code, out, _ = run(capsys, "analyze", "--builtin", "minc", "--iterate", str(k))
        assert code == 0 and len(out.encode()) == size
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_report_with_breakpoints_that_are_not_turning_points(self, capsys, tmp_path):
        # f^5 for f = (0,0), (1/4,3/4), (1/2,1), (1,0): f is leo whether its
        # Markov partition comes from its turning points or from all of its
        # breakpoints, so the digest holds under either partition
        path = tmp_path / "nt.map"
        path.write_text("0 0\n1/4 3/4\n1/2 1\n1 0\n")
        code, out, _ = run(capsys, "analyze", "--map", str(path), "--iterate", "5")
        assert code == 0 and len(out.encode()) == 6_208
        report = json.loads(out)
        assert (report["breakpoints"], len(report["critical_set"]), report["leo"]) == (57, 31, True)
        digest = "8def05ef12e688d8d044632b7806e5bf60d5fda41b74f5dd17a8eb558fdd6706"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_report_with_orbits_off_the_key_grid(self, capsys, tmp_path):
        # f = (0,1/3), (1/6,1), (1/3,0), (1,1/2) has common denominator 6,
        # and 8 of its 14 Markov points lie off that grid (1/8, 1/32, ...),
        # so the partition's keys sort over a multiple of their denominators
        path = tmp_path / "offgrid.map"
        path.write_text("0 1/3\n1/6 1\n1/3 0\n1 1/2\n")
        code, out, _ = run(capsys, "analyze", "--map", str(path))
        assert code == 0 and len(out.encode()) == 1_282
        report = json.loads(out)
        assert len(report["markov_partition"]) == 14 and report["leo"] is True
        assert sum((F(p) * 6).denominator > 1 for p in report["markov_partition"]) == 8
        digest = "0212e283bbf7b38bd9437343eec9a5d048736b28c03d39b9e52e14a37e236a3f"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_critical_set_is_the_turning_points(self):
        # the report reads the turning points off its orbit pass; a scan of
        # the breakpoints must find the same ones, also where some
        # breakpoints are not turning points
        rng = random.Random(63)
        skipped = 0
        for _ in range(200):
            f = random_map(rng)
            report = analysis_report(f)
            assert report["critical_set"] == [str(c) for c in critical_set(f)]
            skipped += len(f.points) - 2 - len(report["critical_set"])
        assert skipped >= 50

    def test_each_value_is_written_once(self, monkeypatch, minc):
        # the orbits, the critical set and the Markov partition are written
        # from the map's facts, once per distinct value from its key; only
        # the zigzag ends are written apart
        written = []
        to_text = cli._key_text
        monkeypatch.setattr(cli, "_key_text", lambda n, m: written.append((n, m)) or to_text(n, m))
        report = analysis_report(iterate(minc, 5))
        distinct = {v for row in report["post_critical_orbits"] for v in row["orbit"]}
        assert len(distinct) == len(report["markov_partition"]) == 1_366
        assert len(written) == len(distinct) + 2 * len(report["zigzag_set"])

    def test_uniform_covering_option(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "minc", "--eps", "1/6")
        assert code == 0
        assert json.loads(out)["uniform_covering"] == {"eps": "1/6", "N": 3}

    def test_negative_orbit_budget_rejected(self, capsys):
        # a negative budget would leave every orbit open and the map undecided
        code, out, err = run(capsys, "analyze", "--builtin", "tent", "--orbit-budget", "-3")
        assert code == 2 and out == ""
        assert "error: --orbit-budget must be at least 0, got -3" in err
        code, out, _ = run(capsys, "analyze", "--builtin", "tent", "--orbit-budget", "0")
        assert code == 0 and json.loads(out)["leo"] is None

    def test_open_orbits_reported_indeterminate(self, capsys, tmp_path):
        # endpoint orbits of this map converge to the interior fixed point
        # and never close; the report must stay small and honest
        path = tmp_path / "contract.map"
        path.write_text("0 1/7\n1 6/7\n")
        code, out, _ = run(
            capsys, "analyze", "--map", str(path), "--orbit-budget", "64"
        )
        assert code == 0
        report = json.loads(out)
        assert report["post_critically_finite"] is None
        assert report["markov_partition"] is None
        rows = report["post_critical_orbits"]
        assert any(row.get("orbit_truncated") for row in rows)
        assert all(len(row["orbit"]) <= 16 for row in rows)


def dumps_report(report: dict) -> str:
    """The oracle for the analyze writer: the stdlib's encoder."""
    return json.dumps(report, indent=2, sort_keys=True)


class TestReportWriter:
    """``plzig analyze`` writes ``json.dumps(report, indent=2,
    sort_keys=True)`` and a newline, byte for byte, through its own writer;
    each case is a report shape the writer has a branch for."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_minc_iterates(self, capsys, minc, k):
        code, out, _ = run(capsys, "analyze", "--builtin", "minc", "--iterate", str(k))
        assert code == 0
        assert out == dumps_report(analysis_report(iterate(minc, k))) + "\n"

    def test_uniform_covering(self, capsys, minc):
        # "N" sorts before "eps"
        code, out, _ = run(capsys, "analyze", "--builtin", "minc", "--eps", "1/6")
        assert code == 0
        assert out == dumps_report(analysis_report(minc, F(1, 6))) + "\n"
        assert '"uniform_covering": {\n    "N": 3,\n    "eps": "1/6"\n  },' in out

    @pytest.mark.parametrize(
        "points, budget, shape",
        [
            ([(0, 0), (1, 1)], 10_000, {"zigzag_set": [], "leo": False}),
            ([(0, 0), (F(1, 2), 1), (1, 0)], 0, {"leo": None, "post_critically_finite": None}),
            ([(0, 0), (F(1, 2), 1), (1, 0)], 1, {"leo": None, "post_critically_finite": None}),
            ([(0, F(1, 7)), (1, F(6, 7))], 64, {"markov_partition": None}),
            ([(0, 0), (F(1, 2), 1), (1, F(1, 3))], 10_000, {"post_critically_finite": None}),
        ],
        ids=["identity", "tent-budget-0", "tent-budget-1", "contraction", "non-pcf"],
    )
    def test_report_shapes(self, capsys, tmp_path, points, budget, shape):
        f = make_plmap(points)
        path = tmp_path / "shape.map"
        path.write_text(dumps_map(f))
        code, out, _ = run(capsys, "analyze", "--map", str(path), "--orbit-budget", str(budget))
        assert code == 0
        report = analysis_report(f, orbit_budget=budget)
        assert out == dumps_report(report) + "\n"
        assert {key: report[key] for key in shape} == shape
        if budget < 10_000:
            # open rows: no period or preperiod, and past 16 values a truncated orbit
            assert any(row["period"] is None for row in report["post_critical_orbits"])
        if budget == 64:
            assert any(row.get("orbit_truncated") for row in report["post_critical_orbits"])

    @pytest.mark.parametrize(
        "value",
        [
            {}, [], 0, -12, None, False, "\u00e9\n\"",
            [["x", "y"], [], [1, None]], {"b": [True], "a": {"c": {}}},
        ],
    )
    def test_other_values(self, value):
        assert _json_text(value, "") == json.dumps(value, indent=2, sort_keys=True)

    def test_random_maps(self):
        rng = random.Random(28)
        for i in range(200):
            f = random_map(rng) if i % 2 else random_markov_map(rng, rng.randint(2, 5))
            for budget in (0, 1, 64, 10_000):
                report = analysis_report(f, orbit_budget=budget)
                assert _report_text(report) == dumps_report(report), (f, budget)


class TestCertifyCommand:
    def test_minc_pipeline_passes(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, err = run(
            capsys, "certify", "--pipeline", "minc", "--orbit", "const:1/2",
            "--stages", "10", "--out", str(out_path),
        )
        assert code == 0 and err == ""
        data = json.loads(out_path.read_text())
        assert data["result"] == "pass"
        ok, msg = verify_certificate(data)
        assert ok, msg

    def test_general_pipeline_records_window(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "certify", "--pipeline", "general", "--builtin", "minc",
            "--orbit", "const:1/2", "--stages", "3", "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["stabilization"]["a"] == "1/3"
        assert data["stabilization"]["b"] == "2/3"

    def test_invalid_orbit_is_an_error(self, capsys):
        code, _, err = run(capsys, "certify", "--pipeline", "minc", "--orbit", "const:1/3")
        assert code == 2
        assert "error" in err

    def test_orbit_file_source(self, capsys, tmp_path):
        orbit_path = tmp_path / "p.orbit"
        orbit_path.write_text("# fixed point\nprefix: ; period: 1/2\n")
        code, out, _ = run(
            capsys, "certify", "--pipeline", "minc", "--orbit", str(orbit_path),
            "--stages", "4",
        )
        assert code == 0
        assert json.loads(out)["result"] == "pass"

    @pytest.mark.parametrize(
        "pipeline, text, message",
        [
            (
                ["--pipeline", "minc"],
                "prefix 1/2 ; period: 1/2\n",
                "orbit text must look like 'prefix: ... ; period: ...'",
            ),
            (
                ["--pipeline", "general", "--builtin", "minc"],
                "prefix: ; period: 3/2\n",
                "orbit entry 1 = 3/2 lies outside [0, 1]",
            ),
        ],
        ids=["format", "out-of-range"],
    )
    def test_orbit_file_errors(self, capsys, tmp_path, pipeline, text, message):
        orbit_path = tmp_path / "bad.orbit"
        orbit_path.write_text(text)
        code, out, err = run(capsys, "certify", *pipeline, "--orbit", str(orbit_path))
        assert code == 2 and out == ""
        assert f"error: {message}" in err

    def test_certificates_are_deterministic(self, capsys):
        _, out1, _ = run(capsys, "certify", "--pipeline", "minc", "--orbit", "const:1/2")
        _, out2, _ = run(capsys, "certify", "--pipeline", "minc", "--orbit", "const:1/2")
        assert out1 == out2

    def test_failing_certificate_exits_nonzero(self, capsys, monkeypatch):
        import dataclasses

        import plzig.cli as cli
        from plzig.dynamics import BackwardOrbit
        from plzig.factorize import certify_minc

        good = certify_minc(BackwardOrbit.constant(F(1, 2)), stages=4)
        bad = dataclasses.replace(good, result="fail", failing_stage=2)
        monkeypatch.setattr(cli, "certify_minc", lambda orbit, stages: bad)
        code, _, err = run(capsys, "certify", "--pipeline", "minc", "--orbit", "const:1/2")
        assert code == 1
        assert "stage 2" in err

    def test_failing_stage_reason_on_stderr(self, capsys, monkeypatch):
        import plzig.factorize

        # folding the top end at x = 1 moves the tracked point off itself
        monkeypatch.setattr(plzig.factorize, "minc_stage_choice", lambda x: "case2")
        code, _, err = run(
            capsys, "certify", "--pipeline", "minc", "--orbit", "const:1", "--stages", "4"
        )
        assert code == 1
        assert err == (
            "certificate FAILED at stage 1 (orbit index 2): s moves x_2 = 1 to 11/18\n"
        )


class TestVerifyCommand:
    @pytest.fixture
    def cert_path(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "certify", "--pipeline", "minc", "--orbit", "const:1/2",
            "--stages", "4", "--out", str(path),
        )
        assert code == 0
        return path

    def test_passing_certificate_exits_zero(self, capsys, cert_path):
        assert run(capsys, "verify", str(cert_path)) == (0, "", "")

    def test_rejected_certificate_exits_one(self, capsys, cert_path):
        data = json.loads(cert_path.read_text())
        data["repeat_index"] = None
        cert_path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(cert_path))
        assert (code, out) == (1, "")
        assert err == "certificate REJECTED: repeat_index: stored None, re-derived 3\n"

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", "\xff", "[" * 200_000 + "]" * 200_000],
        ids=["missing", "not-json", "not-utf8", "deep"],
    )
    def test_unreadable_file_exits_two(self, capsys, tmp_path, content):
        path = tmp_path / "cert.json"
        if content is not None:
            path.write_bytes(content.encode("latin-1"))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_integer_past_the_digit_limit_exits_two(self, capsys, tmp_path, sign):
        # the stdlib's own refusal advises raising the interpreter's limit
        path = tmp_path / "long.json"
        path.write_text('{"version": 4, "x": ' + sign + "1" + "0" * 5000 + "}")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: a JSON integer of 5001 digits, past the limit of 4300 digits\n"
        assert "set_int_max_str_digits" not in err


class TestMapAlgebraCommands:
    def test_compose_command(self, capsys, tmp_path):
        tent = make_plmap([(0, 0), (F(1, 2), 1), (1, 0)])
        a = tmp_path / "a.map"
        a.write_text(dumps_map(tent))
        code, out, _ = run(capsys, "compose", "--outer", str(a), "--inner", str(a))
        assert code == 0
        from plzig.plmap import compose as compose_maps

        assert loads_map(out) == compose_maps(tent, tent)

    def test_iterate_command_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "m2.map"
        code, _, _ = run(
            capsys, "iterate", "--builtin", "minc", "-n", "2", "--out", str(out_path)
        )
        assert code == 0
        from plzig.plmap import iterate as iterate_map

        assert load_map(out_path) == iterate_map(minc_map(), 2)

    def test_malformed_map_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("0 zero\n1 1\n")
        code, _, err = run(capsys, "plot", "--map", str(bad))
        assert code == 2 and "error" in err

    def test_backtracking_map_file(self, capsys, tmp_path):
        # collinear points in the wrong order are not the identity
        bad = tmp_path / "back.map"
        bad.write_text("0 0\n1/2 1/2\n1/4 1/4\n1 1\n")
        code, out, err = run(capsys, "analyze", "--map", str(bad))
        assert code == 2 and out == ""
        assert "error: breakpoint x-coordinates must increase: 1/2 then 1/4" in err

    @pytest.mark.parametrize("command", ["analyze", "plot"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_iterate_below_one_rejected(self, capsys, command, count):
        code, out, err = run(capsys, command, "--builtin", "minc", "--iterate", count)
        assert code == 2 and out == ""
        assert "error: iteration count must be at least 1" in err

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2 and "provide --builtin or --map" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("plot",),
            ("analyze",),
            ("iterate", "-n", "1"),
            ("certify", "--pipeline", "general", "--orbit", "const:1/2"),
        ],
        ids=["plot", "analyze", "iterate", "certify-general"],
    )
    @pytest.mark.parametrize("map_file", ["tent", "missing"])
    def test_builtin_and_map_exclude_each_other(self, capsys, tmp_path, argv, map_file):
        # the map file is neither read nor ignored: a tent map file would
        # otherwise be certified as minc, and a missing one pass unnoticed
        path = tmp_path / f"{map_file}.map"
        if map_file == "tent":
            path.write_text("0 0\n1/2 1\n1 0\n")
        out_path = tmp_path / "out"
        code, out, err = run(
            capsys, *argv, "--builtin", "minc", "--map", str(path), "--out", str(out_path)
        )
        assert (code, out) == (2, "")
        assert err == "error: --builtin and --map exclude each other; provide one\n"
        assert not out_path.exists()

    def test_literal_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.map"
        path.write_text("0 0\n1/" + "9" * 4400 + " 1\n1 0\n")
        code, out, err = run(capsys, "analyze", "--map", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: line 2: rational literal too long: a numerator or denominator of 4400 digits, "
            "past the limit of 4300 digits\n"
        )

    @pytest.mark.parametrize(
        "argv, text, digits",
        [
            (("analyze",), f"0 0\n1/2 1\n{BIG - 1}/{BIG} 1/2\n1 1/3\n", 7999),
            (("iterate", "-n", "2"), f"0 0\n1/2 1\n{BIG - 1}/{BIG} 1/2\n1 1/3\n", 7999),
            (
                ("certify", "--pipeline", "general", "--orbit", f"const:{2 * LONG}/{3 * LONG - 1}", "--stages", "2"),
                f"0 0\n{LONG + 1}/{2 * LONG} 1\n1 0\n",
                4801,
            ),
        ],
        ids=["analyze", "iterate", "certify"],
    )
    def test_output_number_past_the_digit_limit(self, capsys, tmp_path, argv, text, digits):
        # every literal of these maps is under the limit, but the open orbit
        # of 1/2 and the coordinates of f^2 reach a denominator of 7,999
        # digits, and the witnesses of stage 2's zigzag verdict, in g's
        # coordinates, 4,801: the refusal gives the size, and no file is
        # written
        path = tmp_path / "big.map"
        path.write_text(text)
        out_path = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--map", str(path), "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: output number too long: a numerator or denominator of {digits} digits, "
            "past the limit of 4300 digits\n"
        )
        assert not out_path.exists()

    def test_minc_pipeline_rejects_other_maps(self, capsys):
        code, _, err = run(
            capsys, "certify", "--pipeline", "minc", "--builtin", "tent",
            "--orbit", "const:1/2",
        )
        assert code == 2 and "built-in map" in err


# The outputs that the installed-cli CI job pins with sha256sum, each
# written by the job's command, run here through cli.main in a directory
# that holds the job's map and orbit files.  A certificate is hashed from
# the file its --out names, any other output from stdout.
PIN_INPUTS = {
    "cycle.orbit": "prefix: ; period: 8/19 9/19\n",
    "cycle3.orbit": "prefix: ; period: 4/11 5/11 9/11\n",
    "cycle4.orbit": "prefix: ; period: 4/163 108/163 36/163 12/163\n",
    "m19.map": "0 0\n1/3 1/3\n2/3 1\n1 0\n",
    "outer.map": "0 0\n1/7 1\n2/5 1/3\n5/9 5/6\n3/4 0\n1 2/3\n",
    "inner.map": "0 1/2\n1/6 1\n3/8 0\n11/20 1\n4/5 1/9\n1 1\n",
}

OUTPUT_PINS = [
    (
        "minc.json",
        "certify --pipeline minc --orbit const:1/2 --stages 4 --out minc.json",
        "f0bf0250c2b7cc797e7ca539f1e78865361588fdc698149d9f10df1ad9de472a",
    ),
    (
        "general.json",
        "certify --pipeline general --builtin minc --orbit const:1/2 --stages 4 --out general.json",
        "34d36581b08c6080326eecbd1f14ab956adf4ff88c203803858372a7b6613a32",
    ),
    (
        "cycle.json",
        "certify --pipeline general --builtin minc --orbit cycle.orbit --out cycle.json",
        "c3778a535b4e60b660e8b8c6415b1fdb6c4f54436135411166757566af74f978",
    ),
    (
        "cycle3.json",
        "certify --pipeline general --builtin minc --orbit cycle3.orbit --out cycle3.json",
        "291ce43f40a393e51b3df2750d9024607bfa940acda6fb8dc73b84e17582def6",
    ),
    (
        "cycle4.json",
        "certify --pipeline general --builtin minc --orbit cycle4.orbit --out cycle4.json",
        "3243e076a39dca58a4c0034727361bbdbcc26324e2618a46fecf7d0171fe3565",
    ),
    (
        "m19-12.txt",
        "iterate --map m19.map -n 12",
        "f8b6d112260e28adfeb2c99276413ea28c3236efba5f9b91ae826b24c1fc91af",
    ),
    (
        "outer-inner.txt",
        "compose --outer outer.map --inner inner.map",
        "c785606864a82c0b1bbee7d4e55510fa31f6100a70f6de25ff65e21da74b76d7",
    ),
    (
        "inner-outer.txt",
        "compose --outer inner.map --inner outer.map",
        "7529fab7088c27a8f43abe40b743c1802c14a6bb295422935f1d9fe59d2a8fe4",
    ),
    (
        "analyze4-budget2.json",
        "analyze --builtin minc --iterate 4 --orbit-budget 2",
        "f4c72e47fffd5e2a18e7888499dfd3bc958ae28e8b775ad7121d55a7fbd228c8",
    ),
]


class TestOutputPins:
    @pytest.mark.parametrize("name, command, digest", OUTPUT_PINS, ids=[pin[0] for pin in OUTPUT_PINS])
    def test_output_is_byte_identical(self, capsys, tmp_path, monkeypatch, name, command, digest):
        if name == "cycle4.json":
            # its block map is minc^8, past the reference composition that
            # the tests' certificate checker rebuilds block maps with, so
            # the stage loop runs unrecorded
            monkeypatch.setattr(plzig.factorize, "_assemble", _assemble)
        for file, text in PIN_INPUTS.items():
            (tmp_path / file).write_text(text)
        monkeypatch.chdir(tmp_path)
        argv = command.split()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        data = (tmp_path / name).read_bytes() if "--out" in argv else out.encode()
        assert hashlib.sha256(data).hexdigest() == digest
