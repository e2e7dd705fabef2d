"""Layered benchmark of plzig's exact certificates.

Run from the root of a source checkout:

    python3 bench/run.py --workload minc-certify --seed 1 --seconds 25 --trace 0

The benchmark imports plzig from ``src/`` of the checkout it sits in,
measures passes over one workload for about ``--seconds`` seconds, checks
every operation's output, and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics, taken from spans recorded
around the public functions of each plzig layer (see spans.py).  The line
before the result holds the run's metadata and the figures that carry no
bound.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # medians need at least three samples
MIN_TRACED_PASSES = 2  # the exact counters must repeat across two traced passes
SETUP_REPEATS = 9
PRODUCE_KINDS = ("certify", "analyze", "screen")
SETUP_TIMEOUT_S = 60

# Counters that must repeat exactly between traced passes of one seed.
EXACT_SUFFIXES = (".calls", "_bp", ".laps", ".refused", ".stages", "cert_bytes", "out_bytes")


def fail_early(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_plzig():
    """Import plzig from this checkout's src/, never from elsewhere."""
    if not (SRC / "plzig" / "__init__.py").is_file():
        fail_early(f"no plzig sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import plzig

    if Path(plzig.__file__).resolve().parent != (SRC / "plzig").resolve():
        fail_early(f"imported plzig from {plzig.__file__}, not from {SRC}")
    return plzig


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail_early("BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text(encoding="utf-8"))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["minc-certify", "minc-analyze", "markov-family"])
    ap.add_argument("--seed", type=int, required=True, help="orders the operations of a pass")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--family-seed",
        type=int,
        default=None,
        help="seed of the markov-family maps (default 424242; held out: 7)",
    )
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def make_workload(args):
    from workloads import DEFAULT_FAMILY_SEED, WORKLOADS, MarkovFamily

    if args.workload == MarkovFamily.name:
        family_seed = DEFAULT_FAMILY_SEED if args.family_seed is None else args.family_seed
        return MarkovFamily(args.seed, family_seed)
    return WORKLOADS[args.workload](args.seed)


def measure_setup(args, probe) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled wall times of fresh processes that start the
    interpreter, import plzig and build the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.family_seed is not None:
        cmd += ["--family-seed", str(args.family_seed)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            probe.sample()
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=SETUP_TIMEOUT_S)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            fail_early(f"set-up process failed: {proc.stderr.decode(errors='replace').strip()}")
        for _ in range(3):
            probe.sample()
        n = len(probe.durations)
        raw.append(dt)
        scaled.append(dt * probe.factor(n - 6, n))
    return raw, scaled


def run_metadata(args, workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "plzig").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "family_seed": getattr(workload, "family_seed", None),
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "inputs": workload.meta(),
    }


def run_pass(workload, probe, recorder=None):
    from workloads import Pass

    gc.collect()
    p = Pass(probe)
    if recorder is not None:
        recorder.reset()
        recorder.install()
    try:
        workload.run_pass(p)
    finally:
        if recorder is not None:
            recorder.uninstall()
    return p


def total(times, *kinds: str) -> float:
    return sum(t for (kind, _), t in times.items() if not kinds or kind in kinds)


def e2e_metrics(passes, setup_scaled) -> dict:
    attempted = sum(p.attempted for p in passes)
    refused = sum(p.refused for p in passes)
    return {
        "setup_s": median(setup_scaled),
        "wall_s": median(total(p.scaled) for p in passes),
        "produce_s": median(total(p.scaled, *PRODUCE_KINDS) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "json_bytes": median(p.json_bytes for p in passes),
        "completed_frac": (attempted - refused) / attempted,
    }


def detail_figures(passes, setup_raw, probe) -> dict:
    """Figures beside the result: the times per kind of operation, which
    are zero on some workloads and so cannot carry a relative bound, the raw
    wall times behind the speed-scaled metrics, and the probe samples that
    show how busy the machine was."""
    attempted = sum(p.attempted for p in passes)
    out = {
        f"{kind}_s": median(total(p.scaled, kind) for p in passes)
        for kind in ("build", "certify", "verify", "analyze", "screen")
    }
    out.update({
        "passes": len(passes),
        "cert_bytes": median(p.cert_bytes for p in passes),
        "wrong_frac": count_failed(passes) / attempted,
        "refused_frac": sum(p.refused for p in passes) / attempted,
        "raw_setup_s": median(setup_raw) if setup_raw else None,
        "raw_wall_s": [total(p.times) for p in passes],
        "probe_s": {"n": len(probe.durations), "min": min(probe.durations),
                    "median": median(probe.durations), "max": max(probe.durations)},
    })
    return out


def layer_metrics(p, summary: dict) -> dict:
    # span times are raw; the pass's own speed factor brings them to
    # reference speed like the end-to-end times
    factor = total(p.scaled) / total(p.times)
    out = {k: v * factor if k.endswith((".s", ".self_s")) else v for k, v in summary.items()}
    out["factorize.stages"] = p.stages
    out["factorize.cert_bytes"] = p.cert_bytes
    out["factorize.certified_per_attempt"] = p.certified / p.certify_attempts if p.certify_attempts else 0.0
    out["cli.out_bytes"] = p.cli_out_bytes
    return out


def count_failed(passes) -> int:
    return sum(len({msg.split(":", 1)[0] for msg in p.failures}) for p in passes)


def measure(args, workload, spec: dict) -> dict:
    from workloads import WORK, SpeedProbe

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    probe = SpeedProbe()
    setup_raw, setup_scaled = ([], []) if args.trace else measure_setup(args, probe)
    workload.load_expected()

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
    plain, traced, layers = [], [], []
    probe.start()
    t_start = perf_counter()
    while True:
        # a traced run interleaves untraced passes, starting with one, so
        # that the tracing overhead is measured under the same conditions
        use_trace = bool(args.trace and plain) and (len(traced) < MIN_TRACED_PASSES or len(traced) <= len(plain))
        t0 = perf_counter()
        p = run_pass(workload, probe, recorder if use_trace else None)
        if use_trace:
            traced.append(p)
            layers.append(layer_metrics(p, recorder.summary()))
        else:
            plain.append(p)
        pass_s = perf_counter() - t0
        enough = len(plain) + len(traced) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_TRACED_PASSES)
        if enough and perf_counter() - t_start + pass_s > args.seconds:
            break
    probe.stop()

    oracle = workload.oracle_failures()
    failures = [msg for p in plain + traced for msg in p.failures] + oracle
    mismatched = []
    if args.trace:
        exact = [k for k in layers[0] if k.endswith(EXACT_SUFFIXES)]
        mismatched = [k for k in exact if any(lay.get(k) != layers[0].get(k) for lay in layers[1:])]
        failures += [f"counter {k} differs between traced passes" for k in mismatched]
        WORK.mkdir(exist_ok=True)
        recorder.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        values = {}
        for name in units:
            if name == "trace.overhead_s":
                values[name] = median(total(p.scaled) for p in traced) - median(total(p.scaled) for p in plain)
            elif name.endswith(EXACT_SUFFIXES):
                values[name] = layers[0].get(name, 0)
            else:
                values[name] = median(lay.get(name, 0) for lay in layers)
    else:
        values = e2e_metrics(plain, setup_scaled)
    for msg in failures:
        print(f"bench: check failed: {msg}", file=sys.stderr)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = count_failed(passes) + len(oracle) + len(mismatched)
    return {
        "detail": detail_figures(plain, setup_raw, probe),
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": min(failed, attempted),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_plzig()
    if args.setup_only:
        make_workload(args).build()
        return 0
    spec = load_spec()
    # one CPU for the run and its set-up processes, so the speed probe
    # samples the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = make_workload(args)
    meta = run_metadata(args, workload)
    meta["loadavg_start"] = os.getloadavg()
    out = measure(args, workload, spec)
    meta["loadavg_end"] = os.getloadavg()
    print(json.dumps({"meta": meta, "detail": out["detail"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
