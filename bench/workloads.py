"""Workloads of the plzig benchmark: inputs, operations and output checks.

Each workload builds its inputs fresh on every pass, because a command-line
user pays for that on every run, and then runs its operations through the
public plzig API.  Only the input building and the operations are timed.
Every operation's output is checked after its timed region: a faster wrong
answer must count as a failure, never as a gain.

Workloads
  minc-certify   certificates on the five-lap map through ``plzig certify``,
                 each re-verified from its JSON text alone
  minc-analyze   ``plzig analyze`` on iterates of the five-lap map
  markov-family  a seeded family of 3-cell Markov maps: leo screen, general
                 certificate at the least fixed point, re-verification
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import plzig.cli as cli
import plzig.dynamics as dynamics
import plzig.factorize as factorize
import plzig.plmap as plmap

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDENS = BENCH_DIR / "goldens"
WORK = ROOT / ".bench_work"

DEFAULT_FAMILY_SEED = 424242
HELD_OUT_FAMILY_SEED = 7
FAMILY_CELLS = 3
FAMILY_WANTED = 10
FAMILY_MAX_MAPS = 120
FAMILY_STAGES = 2
FAMILY_BUDGET = 40_000

# Constants of the paper's five-lap map.
MINC_ZIGZAG_SET = [["4/9", "5/9"]]
MINC_MARKOV_PARTITION = ["0", "1/3", "4/9", "5/9", "2/3", "1"]
MINC_STABILIZATION_WINDOW = ("1/3", "2/3")

REFUSED = object()


def _reference_work() -> Fraction:
    """A fixed stdlib workload with the instruction mix of plzig's hot paths:
    Fraction arithmetic, comparisons and allocation (about 3 ms)."""
    acc = Fraction(0)
    x = Fraction(1, 3)
    for i in range(1, 300):
        acc += Fraction(i, i + 7) * x - Fraction(1, i)
        if acc > 10:
            acc -= 10
    return acc


class SpeedProbe:
    """The machine's speed while an operation runs, from a fixed reference.

    On a shared machine the CPU alternates between a fast and a slow state
    that each last seconds to minutes and differ by up to about 2x, in CPU
    time as much as in wall time; a single operation of several seconds
    can span both.  While started, a timer signal runs the reference
    workload every ``PERIOD_S`` seconds in the measured process, between
    the bytecodes of whatever plzig code is running.  An operation's time
    at reference speed is its raw time, less the probes inside it, times
    the mean of ``REFERENCE_S / probe time`` over the probes taken during
    it and the last one before it.  The reference runs no plzig code, so a
    change to plzig cannot move it.
    """

    PERIOD_S = 0.2
    REFERENCE_S = 0.0021  # the reference workload on a Sapphire Rapids Xeon vCPU in its fast state

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def sample(self, *_) -> None:
        t0 = perf_counter()
        _reference_work()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, lo: int, hi: int) -> float:
        window = self.durations[lo:hi]
        return sum(self.REFERENCE_S / d for d in window) / len(window)

    def scaled(self, t0: float, t1: float) -> float:
        """Time of the interval [t0, t1] at reference speed."""
        a = bisect_right(self.starts, t0)
        b = bisect_right(self.starts, t1)
        inside = sum(self.durations[a:b])
        return (t1 - t0 - inside) * self.factor(max(a - 1, 0), b)


class Pass:
    """Timings, counts and check failures of one pass over a workload.

    ``times`` holds raw seconds and ``scaled`` the same times at the
    reference speed of :class:`SpeedProbe`, keyed by (kind, operation).
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.times: Counter = Counter()
        self.scaled: Counter = Counter()
        self.attempted = 0
        self.refused = 0
        self.failures: list[str] = []
        self.json_bytes = 0  # JSON emitted by the program
        self.cert_bytes = 0
        self.cli_out_bytes = 0
        self.stages = 0
        self.certified = 0
        self.certify_attempts = 0

    def _timed(self, key: tuple[str, str], fn, args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.times[key] += t1 - t0
            self.scaled[key] += self.probe.scaled(t0, t1)

    def timed(self, kind: str, fn, *args):
        """Time a step that is not an operation, such as input building."""
        return self._timed((kind, ""), fn, args)

    def op(self, kind: str, name: str, fn, *args, refusable: bool = False):
        """Time one operation.

        Returns its output, ``REFUSED`` for a documented budget refusal, or
        None after recording an undocumented exception as a failure.
        """
        self.attempted += 1
        try:
            return self._timed((kind, name), fn, args)
        except plmap.BudgetExceededError as exc:
            if refusable:
                self.refused += 1
                return REFUSED
            err = exc
        except Exception as exc:  # any other exception is a wrong answer
            err = exc
        self.fail(name, f"raised {type(err).__name__}: {err}")
        return None

    def fail(self, name: str, message: str) -> None:
        self.failures.append(f"{name}: {message}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``plzig <argv>`` in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def verify_text(text: str):
    """From certificate JSON text to a verdict, as a reader would do it."""
    data = json.loads(text)
    return data, factorize.verify_certificate(data)


def cert_summary(data: dict) -> dict:
    """The semantic fields of a serialized certificate.

    Raw bytes are not compared, so a new certificate schema stays legal as
    long as these facts survive.
    """
    stab = data["stabilization"]
    return {
        "result": data["result"],
        "stages": len(data["stages"]),
        "stabilization": None
        if stab is None
        else {
            "a": stab["a"],
            "b": stab["b"],
            "epsilon": stab["epsilon"],
            "side": stab["side"],
            "step": stab["n-sequence"]["step"],
        },
        "per_stage": [[st["case"], st["beta"], st["coordinate"]] for st in data["stages"]],
    }


def denominator_bits(values) -> int:
    return max((Fraction(v).denominator.bit_length() for v in values), default=0)


def nested_iterate_check(f, k: int, g) -> str | None:
    """Check ``g == f^k`` pointwise by nested evaluation, without compose.

    Points are every breakpoint of g and every midpoint between two
    consecutive breakpoints; g is linear between its breakpoints, so a
    wrong breakpoint or a missing one shows at one of those points.
    """
    xs = [x for x, _ in g.points]
    pts = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    for x in pts:
        y = x
        for _ in range(k):
            y = f(y)
        if g(x) != y:
            return f"iterate {k} differs from nested evaluation at x={x}"
    return None


def load_golden(name: str):
    path = GOLDENS / name
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.expected = None  # recorded outputs, set by load_expected()
        self.observed: dict = {}  # semantic outputs of the last pass, for recording goldens

    def load_expected(self) -> None:
        raise NotImplementedError

    def build(self):
        """The workload's inputs; a fresh process pays for this on every run."""
        raise NotImplementedError

    def run_pass(self, p: Pass) -> None:
        raise NotImplementedError

    def oracle_failures(self) -> list[str]:
        """Independent checks that need to run only once per process."""
        return []

    def meta(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# minc-certify
# ---------------------------------------------------------------------------

# (name, pipeline, orbit, stages); a tuple orbit is a periodic block that is
# written to an orbit file, and stages=None keeps the CLI default (6).
MINC_CERTIFY_OPS = (
    ("general-half-6", "general", "const:1/2", None),
    ("general-2cycle-3", "general", ("4/19", "12/19"), 3),
    ("general-zero-3", "general", "const:0", 3),
    ("minc-half-10", "minc", "const:1/2", 10),
    ("minc-4cycle-8", "minc", ("14/323", "213/323", "126/323", "42/323"), 8),
)


class MincCertify(Workload):
    name = "minc-certify"

    def load_expected(self) -> None:
        self.expected = load_golden("minc-certify.json") or {}

    def build(self) -> list[tuple[str, list[str]]]:
        WORK.mkdir(exist_ok=True)
        commands = []
        for name, pipeline, orbit, stages in MINC_CERTIFY_OPS:
            if isinstance(orbit, tuple):
                path = WORK / f"{name}.orbit"
                path.write_text(f"prefix: ; period: {' '.join(orbit)}\n", encoding="utf-8")
                orbit = str(path)
            argv = ["certify", "--pipeline", pipeline, "--orbit", orbit]
            if pipeline == "general":
                argv += ["--builtin", "minc"]
            if stages is not None:
                argv += ["--stages", str(stages)]
            commands.append((name, argv))
        random.Random(self.seed).shuffle(commands)
        return commands

    def run_pass(self, p: Pass) -> None:
        commands = p.timed("build", self.build)
        texts = {}
        for name, argv in commands:
            p.certify_attempts += 1
            res = p.op("certify", name, run_cli, argv)
            if res is None:
                continue
            rc, out, err = res
            p.cli_out_bytes += len(out)
            if rc != 0:
                p.fail(name, f"plzig certify exited {rc}: {err.strip()}")
                continue
            p.certified += 1
            p.cert_bytes += len(out)
            p.json_bytes += len(out)
            texts[name] = out
        order = sorted(texts)
        random.Random(self.seed + 1).shuffle(order)
        for name in order:
            res = p.op("verify", name, verify_text, texts[name])
            if res is not None:
                self.check(p, name, *res)

    def check(self, p: Pass, name: str, data: dict, verdict) -> None:
        if verdict != (True, "ok"):
            p.fail(name, f"re-verification gave {verdict}")
        summary = cert_summary(data)
        p.stages += summary["stages"]
        self.observed[name] = summary
        if summary["result"] != "pass":
            p.fail(name, f"certificate result {summary['result']}")
        want = self.expected.get(name)
        if want is None:
            p.fail(name, "no recorded certificate summary")
        elif summary != want:
            p.fail(name, "certificate fields differ from the recorded ones")
        if name == "general-half-6":
            stab = summary["stabilization"] or {}
            if (stab.get("a"), stab.get("b")) != MINC_STABILIZATION_WINDOW:
                p.fail(name, f"stabilization window {stab.get('a')}, {stab.get('b')} is not (1/3, 2/3)")

    def meta(self) -> dict:
        orbit_values = []
        for _, _, orbit, _ in MINC_CERTIFY_OPS:
            orbit_values += list(orbit) if isinstance(orbit, tuple) else [orbit.split(":")[1]]
        return {
            "map_breakpoints": [len(factorize.minc_map().points)],
            "max_denominator_bits": denominator_bits(
                orbit_values + [v for pt in factorize.minc_map().points for v in pt]
            ),
            "operations": [name for name, *_ in MINC_CERTIFY_OPS],
        }


# ---------------------------------------------------------------------------
# minc-analyze
# ---------------------------------------------------------------------------

MINC_ANALYZE_OPS = (
    ("analyze-k4", ["analyze", "--builtin", "minc", "--iterate", "4"], 4),
    ("analyze-k5", ["analyze", "--builtin", "minc", "--iterate", "5"], 5),
    ("analyze-eps", ["analyze", "--builtin", "minc", "--eps", "1/6"], 1),
)


class MincAnalyze(Workload):
    name = "minc-analyze"

    def load_expected(self) -> None:
        self.expected = {}
        for name, _, _ in MINC_ANALYZE_OPS:
            path = GOLDENS / f"{name}.json"
            if path.exists():
                self.expected[name] = path.read_text(encoding="utf-8")

    def build(self) -> list[tuple[str, list[str], int]]:
        commands = list(MINC_ANALYZE_OPS)
        random.Random(self.seed).shuffle(commands)
        return commands

    def run_pass(self, p: Pass) -> None:
        commands = p.timed("build", self.build)
        for name, argv, k in commands:
            res = p.op("analyze", name, run_cli, argv)
            if res is None:
                continue
            rc, out, err = res
            p.cli_out_bytes += len(out)
            p.json_bytes += len(out)
            self.check(p, name, k, rc, out, err)

    def oracle_failures(self) -> list[str]:
        f = factorize.minc_map()
        out = []
        for _, _, k in MINC_ANALYZE_OPS:
            msg = nested_iterate_check(f, k, plmap.iterate(f, k))
            if msg is not None:
                out.append(f"iterate-{k}: {msg}")
        return out

    def check(self, p: Pass, name: str, k: int, rc: int, out: str, err: str) -> None:
        self.observed[name] = out
        if rc != 0:
            p.fail(name, f"plzig analyze exited {rc}: {err.strip()}")
            return
        want = self.expected.get(name)
        if want is None:
            p.fail(name, "no recorded report")
        elif out != want:
            p.fail(name, "report differs from the recorded bytes")
        if k == 1:
            report = json.loads(out)
            if report["zigzag_set"] != MINC_ZIGZAG_SET:
                p.fail(name, f"zigzag set {report['zigzag_set']} is not (4/9, 5/9)")
            if report["markov_partition"] != MINC_MARKOV_PARTITION:
                p.fail(name, f"Markov partition {report['markov_partition']}")

    def meta(self) -> dict:
        f = factorize.minc_map()
        return {
            "map_breakpoints": [len(f.points)],
            "max_denominator_bits": denominator_bits([v for pt in f.points for v in pt]),
            "iterates": [k for _, _, k in MINC_ANALYZE_OPS],
        }


# ---------------------------------------------------------------------------
# markov-family
# ---------------------------------------------------------------------------

def random_markov_map(rng: random.Random, cells: int):
    """Map monotone on each 1/cells cell with vertex values on the cell grid;
    post-critically finite by construction (tier-1's test family)."""
    pts = [Fraction(i, cells) for i in range(cells + 1)]
    while True:
        vals = [rng.choice(pts)]
        for _ in range(cells):
            vals.append(rng.choice([q for q in pts if q != vals[-1]]))
        try:
            return plmap.make_plmap(list(zip(pts, vals)))
        except ValueError:
            continue


def least_fixed_point(f) -> Fraction:
    """Least exact solution of f(x) = x, by solving each segment."""
    best = None
    for (x0, y0), (x1, y1) in zip(f.points, f.points[1:]):
        slope = (y1 - y0) / (x1 - x0)
        if slope != 1:
            x = (y0 - slope * x0) / (1 - slope)
            if x0 <= x <= x1 and (best is None or x < best):
                best = x
    return best


def _certify_family_map(f, x: Fraction) -> str:
    cert = factorize.certify_general(
        f, dynamics.BackwardOrbit.constant(x), stages=FAMILY_STAGES, budget=FAMILY_BUDGET
    )
    return factorize.certificate_to_json(cert)


class MarkovFamily(Workload):
    name = "markov-family"

    def __init__(self, seed: int, family_seed: int = DEFAULT_FAMILY_SEED) -> None:
        super().__init__(seed)
        self.family_seed = family_seed

    def load_expected(self) -> None:
        self.expected = load_golden(f"markov-family-{self.family_seed}.json")

    def build(self) -> list[tuple]:
        rng = random.Random(self.family_seed)
        maps = [random_markov_map(rng, FAMILY_CELLS) for _ in range(FAMILY_MAX_MAPS)]
        return [(f, least_fixed_point(f)) for f in maps]

    def run_pass(self, p: Pass) -> None:
        family = p.timed("build", self.build)
        outcomes = []
        texts = {}
        for i, (f, x) in enumerate(family):
            if len(texts) >= FAMILY_WANTED:
                break
            name = f"map-{i}"
            leo = p.op("screen", name, dynamics.is_leo, f)
            row = {"leo": leo, "outcome": "not-leo"}
            outcomes.append(row)
            if leo is not True:
                continue
            p.certify_attempts += 1
            text = p.op("certify", name, _certify_family_map, f, x, refusable=True)
            if text is REFUSED:
                row["outcome"] = "refused"
            elif text is None:
                row["outcome"] = "error"
            else:
                row["outcome"] = "certified"
                p.certified += 1
                p.cert_bytes += len(text)
                p.json_bytes += len(text)
                texts[i] = text
        order = sorted(texts)
        random.Random(self.seed).shuffle(order)
        for i in order:
            res = p.op("verify", f"map-{i}", verify_text, texts[i])
            if res is not None:
                data, verdict = res
                if verdict != (True, "ok"):
                    p.fail(f"map-{i}", f"re-verification gave {verdict}")
                outcomes[i]["summary"] = cert_summary(data)
                p.stages += outcomes[i]["summary"]["stages"]
        self.observed = {"family_seed": self.family_seed, "maps": outcomes}
        self.check(p, outcomes)

    def check(self, p: Pass, outcomes: list[dict]) -> None:
        want_rows = self.expected["maps"] if self.expected else []
        for i, row in enumerate(outcomes):
            name = f"map-{i}"
            summary = row.get("summary")
            if summary is not None and summary["result"] != "pass":
                p.fail(name, f"certificate result {summary['result']}")
            if i >= len(want_rows):
                continue
            want = want_rows[i]
            if row["leo"] != want["leo"]:
                p.fail(name, f"leo verdict {row['leo']}, recorded {want['leo']}")
            elif row["outcome"] == "certified" and want["outcome"] == "certified":
                if summary != want["summary"]:
                    p.fail(name, "certificate fields differ from the recorded ones")
            # a map that certified before and is refused now counts as refused;
            # a map refused before that certifies now is checked like any other

    def meta(self) -> dict:
        family = self.build()
        used = len(self.expected["maps"]) if self.expected else len(family)
        return {
            "family_seed": self.family_seed,
            "goldens": self.expected is not None,
            "map_breakpoints": [len(f.points) for f, _ in family[:used]],
            "max_denominator_bits": denominator_bits(
                [v for f, x in family[:used] for pt in f.points for v in pt] + [x for _, x in family[:used]]
            ),
        }


WORKLOADS = {w.name: w for w in (MincCertify, MincAnalyze, MarkovFamily)}
