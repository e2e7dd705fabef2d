"""Record the expected outputs that bench/run.py checks against.

Run from the root of a source checkout, on the commit whose outputs are
taken as correct:

    python3 bench/record_goldens.py

It runs one pass of each workload (markov-family for the default and the
held-out family seed) and writes bench/goldens/.  The analyze reports are
stored byte for byte; certificates are stored as their semantic fields
(see workloads.cert_summary).
"""

from __future__ import annotations

import json
import sys

from run import import_plzig


def main() -> int:
    import_plzig()
    from workloads import (
        DEFAULT_FAMILY_SEED,
        GOLDENS,
        HELD_OUT_FAMILY_SEED,
        MarkovFamily,
        MincAnalyze,
        MincCertify,
        Pass,
        SpeedProbe,
    )

    GOLDENS.mkdir(exist_ok=True)
    runs = [
        (MincCertify(0), "minc-certify.json"),
        (MincAnalyze(0), None),
        (MarkovFamily(0, DEFAULT_FAMILY_SEED), f"markov-family-{DEFAULT_FAMILY_SEED}.json"),
        (MarkovFamily(0, HELD_OUT_FAMILY_SEED), f"markov-family-{HELD_OUT_FAMILY_SEED}.json"),
    ]
    for workload, filename in runs:
        workload.expected = {}
        probe = SpeedProbe()
        probe.sample()
        p = Pass(probe)
        workload.run_pass(p)
        # the only failures allowed here are the missing recordings themselves
        other = [m for m in p.failures if "no recorded" not in m]
        if other:
            print("\n".join(other), file=sys.stderr)
            return 1
        if filename is None:
            for name, text in workload.observed.items():
                (GOLDENS / f"{name}.json").write_text(text, encoding="utf-8")
        else:
            text = json.dumps(workload.observed, indent=1, sort_keys=True) + "\n"
            (GOLDENS / filename).write_text(text, encoding="utf-8")
        print(f"{workload.name}: recorded {len(workload.observed)} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
