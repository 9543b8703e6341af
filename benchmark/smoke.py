#!/usr/bin/env python3
"""anicbench_smoke: every workload for 0.2 host-seconds of measurement.

    python3 benchmark/smoke.py path/to/anicbench

Per workload, a run must exit 0 (its conservation audit passed) with no
failed operation, and a second run with the same seed must print
byte-identical simulated metrics. On tls_rx_lossy a second seed must
give a different link drop fraction: the seed reaches the workload.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["tcp_bulk", "tls_rx_lossy", "storage_rw", "flows_many"]
SECONDS = "0.2"


def run(exe, workload, seed):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ANIC_")}
    p = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                        "--seconds", SECONDS], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, env=env)
    if p.returncode != 0:
        sys.exit("%s seed %d: exit %d\n%s" % (workload, seed, p.returncode,
                                              p.stderr))
    return json.loads(p.stdout.strip().splitlines()[-1])


def sim_text(result):
    return json.dumps([m for m in result["metrics"] if m["sim"]])


def main():
    exe = sys.argv[1]
    for w in WORKLOADS:
        a = run(exe, w, 1)
        if not a["correct"] or a["failed"] != 0 or a["attempted"] == 0:
            sys.exit("%s: correct=%s attempted=%d failed=%d"
                     % (w, a["correct"], a["attempted"], a["failed"]))
        if sim_text(run(exe, w, 1)) != sim_text(a):
            sys.exit("%s: simulated metrics differ between same-seed runs" % w)
        if w == "tls_rx_lossy":
            drop = {m["name"]: m["value"] for m in a["metrics"]}
            other = {m["name"]: m["value"] for m in run(exe, w, 2)["metrics"]}
            if drop["net.link_drop_frac"] == other["net.link_drop_frac"]:
                sys.exit("tls_rx_lossy: seeds 1 and 2 dropped the same share "
                         "of packets; the seed does not reach the link")
        print("%s: ok (%d operations)" % (w, a["attempted"]))


if __name__ == "__main__":
    main()
