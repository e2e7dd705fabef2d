"""Command-line front end: plotting, analysis reports, certificate runs,
and exact map algebra on map files.

Commands
  plot      render a map (or an iterate) as a deterministic SVG polyline
  analyze   structured JSON report: critical set, zigzag set, orbits,
            Markov partition, leo verdict
  certify   run a certificate pipeline on a map and a backward orbit
  verify    re-derive a certificate file and compare its encoding
  compose   exact composition of two map files (outer after inner)
  iterate   exact n-fold iterate of a map file

Exit codes: 0 success / certificate pass, 1 certificate fail or rejected,
2 errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .plmap import (
    BudgetExceededError,
    PLMap,
    _key_text,
    compose,
    dumps_map,
    is_onto,
    iterate,
    load_map,
    make_plmap,
    parse_rational,
)
from .zigzag import _zigzag_runs
from .dynamics import (
    DEFAULT_ORBIT_BUDGET,
    BackwardOrbit,
    leo_uniform_N,
    load_orbit,
    map_facts,
)
from .factorize import (
    CertifyError,
    certificate_to_json,
    certify_general,
    certify_minc,
    minc_map,
    verify_certificate,
)

BUILTINS = {
    "minc": minc_map,
    "tent": lambda: make_plmap([(0, 0), (Fraction(1, 2), 1), (1, 0)]),
    "identity": lambda: make_plmap([(0, 0), (1, 1)]),
}


def _load_source(args) -> PLMap:
    if args.builtin and args.map:
        raise ValueError("--builtin and --map exclude each other; provide one")
    if args.builtin:
        return BUILTINS[args.builtin]()
    if args.map:
        return load_map(args.map)
    raise ValueError("provide --builtin or --map")


def _load_orbit_arg(text: str) -> BackwardOrbit:
    if text.startswith("const:"):
        return BackwardOrbit.constant(parse_rational(text[len("const:"):]))
    return load_orbit(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _dec(value: float) -> str:
    return f"{value:.12g}"


def render_svg(
    f: PLMap,
    size: int = 600,
    guides: list[Fraction] | None = None,
    marks: list[tuple[Fraction, Fraction]] | None = None,
) -> str:
    """SVG 1.1 document whose polyline vertices are exactly the breakpoints
    scaled to the canvas; no resampling happens anywhere."""
    pad = 20.0
    span = size - 2 * pad
    if span <= 0:
        raise ValueError(f"--size must exceed {2 * pad:g}, the padding around the plot, got {size}")

    def px(x: Fraction) -> str:
        return _dec(pad + float(x) * span)

    def py(y: Fraction) -> str:
        return _dec(size - pad - float(y) * span)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{_dec(pad)}" y="{_dec(pad)}" width="{_dec(span)}" height="{_dec(span)}" '
        'fill="white" stroke="black" stroke-width="1"/>',
    ]
    for level in guides or []:
        gx, gy = px(level), py(level)
        lines.append(
            f'<line x1="{gx}" y1="{_dec(pad)}" x2="{gx}" y2="{_dec(size - pad)}" '
            'stroke="gray" stroke-width="0.5" stroke-dasharray="4 3"/>'
        )
        lines.append(
            f'<line x1="{_dec(pad)}" y1="{gy}" x2="{_dec(size - pad)}" y2="{gy}" '
            'stroke="gray" stroke-width="0.5" stroke-dasharray="4 3"/>'
        )
    pts = " ".join(f"{px(x)},{py(y)}" for x, y in f.points)
    lines.append(f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{pts}"/>')
    for mx, my in marks or []:
        lines.append(f'<circle cx="{px(mx)}" cy="{py(my)}" r="4" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_plot(args) -> int:
    f = _load_source(args)
    if args.iterate != 1:
        f = iterate(f, args.iterate)
    guides = [parse_rational(tok) for tok in args.guides.split(",")] if args.guides else []
    marks = []
    for raw in args.mark or []:
        if raw.count(",") != 1:
            raise ValueError(f"--mark takes X,Y, got {raw!r}")
        marks.append(tuple(parse_rational(v) for v in raw.split(",")))
    values = [("--guides", g) for g in guides] + [("--mark", v) for mark in marks for v in mark]
    for option, value in values:
        if not 0 <= value <= 1:
            raise ValueError(f"{option} coordinate {value} lies outside [0, 1]")
    _emit(render_svg(f, size=args.size, guides=guides, marks=marks), args.out)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def analysis_report(
    f: PLMap, eps: Fraction | None = None, orbit_budget: int = DEFAULT_ORBIT_BUDGET
) -> dict:
    facts = map_facts(f, orbit_budget)
    den = f._keys[0]
    # the report reads the walk's keys, not the facts' OrbitEntry view:
    # each distinct shown value is written once from its key, and the
    # critical set (the turning points' orbit starts) and the Markov
    # partition, when there is one, are among the shown values
    shown = [orbit if k is not None else orbit[:16] for orbit, k in facts._walks]
    text = {key: _key_text(key[0], key[1] * den) for key in {key for orbit in shown for key in orbit}}
    orbit_rows = []
    for (orbit, k), keys in zip(facts._walks, shown):
        closed = k is not None
        row = {
            "point": text[orbit[0]],
            "orbit": list(map(text.__getitem__, keys)),
            "preperiod": k,
            "period": len(orbit) - k if closed else None,
            "closed": closed,
        }
        if len(keys) < len(orbit):
            row["orbit_truncated"] = True
        orbit_rows.append(row)
    partition = facts._partition
    report = {
        "breakpoints": len(f._keys[1]),
        "laps": len(f._ends) - 1,
        "onto": is_onto(f),
        "critical_set": [text[orbit[0]] for orbit, _ in facts._walks[1:-1]],
        "zigzag_set": [[_key_text(a, den), _key_text(b, den)] for a, b in _zigzag_runs(f)],
        "post_critical_orbits": orbit_rows,
        "post_critically_finite": facts.post_critically_finite,
        "markov_partition": list(map(text.__getitem__, partition)) if partition is not None else None,
        "leo": facts.leo,
    }
    if eps is not None:
        report["uniform_covering"] = {"eps": str(eps), "N": leo_uniform_N(f, eps)}
    return report


def _json_text(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it at a depth whose lines start with ``pad``, for str-keyed dicts,
    lists, str, int, bool and None.  A list of strings is one join."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        body = sep.join(f"{_quote(k)}: {_json_text(value[k], inner)}" for k in sorted(value))
        return f"{{\n{inner}{body}\n{pad}}}"
    try:
        body = sep.join(map(_quote, value))
    except TypeError:  # the quoter refuses an item that is not a str
        body = sep.join(_json_text(v, inner) for v in value)
    return f"[\n{inner}{body}\n{pad}]"


def _report_text(report: dict) -> str:
    """An :func:`analysis_report` dict as text: byte for byte what
    ``json.dumps(report, indent=2, sort_keys=True)`` writes, without the
    stdlib's pure-Python encoder, which an indent turns on.  Strings go
    through the C quoter that ``json.dumps`` uses under its default
    ``ensure_ascii``, and each list of strings is one join.  Each
    post-critical orbit row is one format string with its keys in sorted
    order, so it relies on the rows that :func:`analysis_report` builds:
    at least the rows of 0 and 1, each with a non-empty orbit of strings,
    a bool ``closed``, an int or None ``period`` and ``preperiod``, and
    ``orbit_truncated`` only when true.  Every other value goes through
    :func:`_json_text`."""
    rows = []
    for row in report["post_critical_orbits"]:
        truncated = '      "orbit_truncated": true,\n' if "orbit_truncated" in row else ""
        period, preperiod = row["period"], row["preperiod"]
        orbit = ",\n        ".join(map(_quote, row["orbit"]))
        rows.append(
            f'{{\n      "closed": {"true" if row["closed"] else "false"},\n'
            f'      "orbit": [\n        {orbit}\n      ],\n'
            f'{truncated}      "period": {"null" if period is None else period},\n'
            f'      "point": {_quote(row["point"])},\n'
            f'      "preperiod": {"null" if preperiod is None else preperiod}\n    }}'
        )
    items = []
    for key in sorted(report):
        if key == "post_critical_orbits":
            text = "[\n    " + ",\n    ".join(rows) + "\n  ]"
        else:
            text = _json_text(report[key], "  ")
        items.append(f"{_quote(key)}: {text}")
    return "{\n  " + ",\n  ".join(items) + "\n}"


def cmd_analyze(args) -> int:
    if args.orbit_budget < 0:
        raise ValueError(f"--orbit-budget must be at least 0, got {args.orbit_budget}")
    f = _load_source(args)
    if args.iterate != 1:
        f = iterate(f, args.iterate)
    eps = parse_rational(args.eps) if args.eps else None
    report = analysis_report(f, eps, orbit_budget=args.orbit_budget)
    _emit(_report_text(report) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def cmd_certify(args) -> int:
    orbit = _load_orbit_arg(args.orbit)
    if args.pipeline == "minc":
        if args.map or (args.builtin and args.builtin != "minc"):
            raise ValueError("the minc pipeline runs on its built-in map; drop --map/--builtin")
        cert = certify_minc(orbit, stages=args.stages)
    else:
        f = _load_source(args)
        cert = certify_general(f, orbit, stages=args.stages)
    _emit(certificate_to_json(cert), args.out)
    if cert.passed:
        return 0
    reason = f": {cert.failure_reason}" if cert.failure_reason else ""
    print(
        f"certificate FAILED at stage {cert.failing_stage} "
        f"(orbit index {cert.stages[cert.failing_stage - 1].n}){reason}",
        file=sys.stderr,
    )
    return 1


def cmd_verify(args) -> int:
    def parse_int(text: str) -> int:
        try:
            return int(text)
        except ValueError:  # past the interpreter's limit on int-string digits
            digits = len(text.lstrip("-"))
            raise ValueError(f"{args.certificate}: a JSON integer of {digits} digits, "
                             f"past the limit of {sys.get_int_max_str_digits()} digits") from None

    with open(args.certificate, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=parse_int)
        except RecursionError:
            raise ValueError(f"{args.certificate}: JSON nested too deeply") from None
    ok, reason = verify_certificate(data)
    if ok:
        return 0
    print(f"certificate REJECTED: {reason}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# compose / iterate
# ---------------------------------------------------------------------------

def cmd_compose(args) -> int:
    outer = load_map(args.outer)
    inner = load_map(args.inner)
    _emit(dumps_map(compose(outer, inner)), args.out)
    return 0


def cmd_iterate(args) -> int:
    f = _load_source(args)
    _emit(dumps_map(iterate(f, args.n)), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", choices=sorted(BUILTINS), help="built-in map")
    p.add_argument("--map", help="map file (lines of 'x y' rationals)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``plzig`` argument parser, built once per process: argparse keeps
    no state between ``parse_args`` calls, and each call returns a new
    namespace."""
    top = argparse.ArgumentParser(prog="plzig", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plot", help="render a map as SVG")
    _add_source(p)
    p.add_argument("--iterate", type=int, default=1, metavar="N")
    p.add_argument("--size", type=int, default=600)
    p.add_argument("--guides", help="comma-separated rational levels")
    p.add_argument("--mark", action="append", metavar="X,Y", help="marked point (repeatable)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("analyze", help="structured dynamics report (JSON)")
    _add_source(p)
    p.add_argument("--iterate", type=int, default=1, metavar="N")
    p.add_argument("--eps", help="also report the uniform covering time at this scale")
    p.add_argument("--orbit-budget", type=int, default=DEFAULT_ORBIT_BUDGET, metavar="STEPS")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="run a certificate pipeline")
    _add_source(p)
    p.add_argument("--pipeline", choices=["minc", "general"], required=True)
    p.add_argument("--orbit", required=True, help="'const:Q' or an orbit file")
    p.add_argument("--stages", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="re-derive a certificate and compare")
    p.add_argument("certificate", help="certificate JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compose", help="compose two map files (outer after inner)")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("iterate", help="n-fold iterate of a map")
    _add_source(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_iterate)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CertifyError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
