#!/usr/bin/env python3
"""Measures the reference numbers in baseline.json.

    python3 benchmark/baseline.py --label COMMIT > benchmark/baseline.json

Through run.py, for every workload: two sets of five untraced runs at
seed 1 (per-metric median, quartiles and n per set; the simulated
metrics must repeat exactly), ten untraced runs at seeds 1..10 (the
spread across seeds, as IQR over median), and one traced run at seed 1
(the per-layer table). Quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["tcp_bulk", "tls_rx_lossy", "storage_rw", "flows_many"]
SECONDS = 10
SIMULATED = ["sim_goodput_gbps", "sim_cycles_per_byte", "sim_lat_p50_us",
             "sim_lat_p99_us"]


def run(workload, seed, trace=0):
    p = subprocess.run(["python3", str(ROOT / "benchmark" / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(SECONDS), "--trace", str(trace)],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit("%s seed %d failed" % (workload, seed))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: incorrect result" % (workload, seed))
    print("%s seed %d trace %d done" % (workload, seed, trace),
          file=sys.stderr)
    return {n: m["value"] for n, m in result["metrics"].items()}


def summary(runs):
    out = {}
    for name in runs[0]:
        v = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(v, n=4)
        out[name] = {"median": statistics.median(v), "q1": q1, "q3": q3,
                     "n": len(v)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="what was measured, e.g. the commit")
    opt = ap.parse_args()

    out = {"label": opt.label, "seconds": SECONDS, "default_seed": {},
           "seed_spread": {}, "traced": {}}
    for w in WORKLOADS:
        sets = [[run(w, 1) for _ in range(5)] for _ in range(2)]
        flat = sets[0] + sets[1]
        identical = all(r[n] == flat[0][n] for r in flat for n in SIMULATED)
        out["default_seed"][w] = {"sets": [summary(s) for s in sets],
                                  "simulated_identical": identical}
        seeds = summary([run(w, s) for s in range(1, 11)])
        out["seed_spread"][w] = {
            n: {"median": s["median"],
                "iqr_over_median": (s["q3"] - s["q1"]) / s["median"]}
            for n, s in seeds.items()}
        out["traced"][w] = run(w, 1, trace=1)
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
