"""Run bench/run.py repeatedly and summarize the spread of its metrics.

Run from the root of a source checkout:

    python3 bench/collect.py --runs 10 --out bench/baseline.json
    python3 bench/collect.py --runs 5 --workloads minc-certify --trace-runs 0

For each workload it makes ``--runs`` untraced runs with seeds 1..runs and
``--trace-runs`` traced runs of the first seed, checks that the traced runs'
exact counters agree, and reports, per end-to-end metric, the
median of the runs and the distance between the first and third quartile
as a share of that median (``statistics.quantiles(values, n=4)``), next to
the metric's bound from BENCHMARK.json.  ``--out`` writes every run's
result line and metadata together with the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int, family_seed=None) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if family_seed is not None:
        cmd += ["--family-seed", str(family_seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    info = json.loads(lines[-2])
    out = {"seed": seed, "trace": trace, "result": json.loads(lines[-1]), **info}
    if proc.stderr:
        out["stderr"] = proc.stderr
    return out


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--family-seed", type=int, default=None)
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, spec["run_seconds"], 0, args.family_seed)
            runs.append(r)
            res = r["result"]
            figures = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"{workload} seed={seed} correct={res['correct']} failed={res['failed']} {figures}",
                  file=sys.stderr, flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, rel = spread(values) if len(values) >= 2 else (values[0], float("nan"))
            summary[m["name"]] = {"median": med, "iqr_share": rel, "bound": m["bound"], "values": values}
            print(f"  {workload} {m['name']}: median {med:.6g} spread {rel:.4f} bound {m['bound']}",
                  file=sys.stderr, flush=True)
        traced = []
        for _ in range(args.trace_runs):
            traced.append(run_once(workload, args.first_seed, spec["run_seconds"], 1, args.family_seed))
            print(f"{workload} traced seed={args.first_seed} correct={traced[-1]['result']['correct']}",
                  file=sys.stderr, flush=True)
        # the exact counters of traced runs of one seed must be identical
        counts = [{k: v["value"] for k, v in r["result"]["metrics"].items() if v["unit"] != "s"} for r in traced]
        differing = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts[1:])) if counts else []
        if differing:
            print(f"  {workload} counters differ between traced runs: {differing}", file=sys.stderr)
        report["workloads"][workload] = {"end_to_end": summary, "runs": runs, "traced": traced}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
