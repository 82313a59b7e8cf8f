#!/usr/bin/env python3
"""Self-test of the benchmark's traced pass.

Runs the traced pass of every workload twice at one seed, each run in a
fresh process with exactly one untraced and one traced step, and checks
that

- every ``calls_per_trial`` count repeats exactly between the two runs;
- the counts match the cost model of the workload's detectors;
- every step passed its output checks.

Run from the root of a checkout:

    python3 bench/selftest.py

Exits with 1 and names each mismatch if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 11

# Cost model per trial.  A sampler detection runs S sampling iterations of
# N_g NAG iterations; each NAG iteration asks m units (C for the centralized
# sampler) for a local gradient, and each sampling iteration makes one
# proposal and one MH test.  fig4-desk: U=8, C=8, S=16, mini m=4 plus nag.
# oracle: U=4, C=4, S=16, mini m=2.  fig3-desk: B_c=4, U=8, C=8, S=12,
# m in {1, 4, 8}, N_g=4 everywhere, 16-QAM.
NG = 4


def fig3_du_mults(s=12, c=8, bc=4, u=8, ms=(1, 4, 8)):
    gd = 8 * bc * u * s * NG * sum(ms)                 # one per local gradient
    sampling = (4 * bc * u + 2 * bc + 1) * c * (s + 1) * len(ms)  # one per local objective
    preprocessing = 2 * bc * u * c * len(ms)           # Gram-diagonal upload
    return gd + sampling + preprocessing


def fig3_cu_mults(s=12, u=8, sqrt_m=4, ms=(1, 4, 8)):
    per_detection = 4 * u * s * NG + (4 * u + 2 * sqrt_m * u + 2) * s + (u + 2)
    return per_detection * len(ms)


EXPECTED = {
    "fig4-ber": {
        "detectors.nag_stage.calls_per_trial": 2 * 16,
        "fabric.Fabric.local_gradient.calls_per_trial": 16 * NG * 4 + 16 * NG * 8,
        "detectors.mh_accept.calls_per_trial": 2 * 16,
        "detectors.ml_brute_force.calls_per_trial": 0,
    },
    "oracle-ml": {
        "detectors.nag_stage.calls_per_trial": 16,
        "fabric.Fabric.local_gradient.calls_per_trial": 16 * NG * 2,
        "detectors.mh_accept.calls_per_trial": 16,
        "detectors.ml_brute_force.calls_per_trial": 1,
    },
    "fig3-chain": {
        "detectors.nag_stage.calls_per_trial": 3 * 12,
        "fabric.Fabric.local_gradient.calls_per_trial": 12 * NG * (1 + 4 + 8),
        "detectors.mh_accept.calls_per_trial": 3 * 12,
        "detectors.ml_brute_force.calls_per_trial": 0,
        "fabric.counters.du_mults_per_trial": fig3_du_mults(),
        "fabric.counters.cu_mults_per_trial": fig3_cu_mults(),
    },
}


def traced_run(workload):
    # a tiny --seconds makes each phase exactly one step, so both runs see the same trials
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
                           "--seconds", "0.001", "--trace", "1"],
                          stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    problems = []
    for workload, expected in EXPECTED.items():
        first, second = traced_run(workload), traced_run(workload)
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {result['failed']} failed steps")
        counts = {k: v["value"] for k, v in first["metrics"].items()
                  if k.endswith(".calls_per_trial")}
        repeat = {k: v["value"] for k, v in second["metrics"].items()
                  if k.endswith(".calls_per_trial")}
        problems += [f"{workload}: {k} {counts[k]!r} then {repeat.get(k)!r}"
                     for k in counts if repeat.get(k) != counts[k]]
        for name, value in expected.items():
            got = first["metrics"][name]["value"]
            status = "ok" if got == value else "MISMATCH"
            print(f"{workload:<11} {name:<46} {got:>12g} expected {value:<12g} {status}")
            if got != value:
                problems.append(f"{workload}: {name} is {got!r}, cost model says {value!r}")
        print(f"{workload:<11} {len(counts)} calls_per_trial counts, "
              f"{sum(repeat.get(k) == v for k, v in counts.items())} repeat exactly")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
