#!/usr/bin/env python3
"""Builds anicbench from the checkout's sources and runs one workload.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

--trace 0 runs the optimized binary and reports the end-to-end metrics
BENCHMARK.json lists. --trace 1 also runs a copy linked with -pg -static,
checks that it reproduces every simulated metric of the untraced run,
folds gprof's flat profile into per-layer host time, and reports the
per-layer metrics. Both binaries are built under .bench_build/ on the
first call. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the binary's own line,
with every metric's sample count and quartiles, precedes it. Artifacts
of traced runs (layer table, chrome-trace spans) go to
.bench_build/trace/.

The traced copy is linked, not compiled, with -pg: that arms gprof's
PC sampling over the whole static image (libc included) without mcount
calls in every function. Compiled with -pg, the simulator's tens of
millions of calls spent more CPU in mcount than gprof attributes, and
the flat profile covered about half the process CPU time.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
VARIANTS = {
    "release": [],
    "prof": ["-DCMAKE_EXE_LINKER_FLAGS=-pg -static"],
}

# Layers a profiled function is charged to (src/ modules, plus libc);
# see layer_of().
LAYERS = ["sim", "net", "nic", "tcp", "crypto", "tls", "nvmetcp", "iscsi",
          "core", "host", "app", "util", "libc"]
# Every anicbench process of one call must end this many seconds after
# the build, so a hung simulation fails instead of hanging its caller.
RUN_BUDGET_S = 170
NAME_RE = re.compile(r"\b(anicbench::|anic::(?:(\w+)::)?)")
FLAT_RE = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                     r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def clean_env():
    """The simulator reads ANIC_* knobs; none may leak into a run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ANIC_")}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources at %s" % (ROOT / "src"), 2)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    for name, flags in VARIANTS.items():
        bdir = BUILD / name
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"] + gen + flags)
        steps.append(["cmake", "--build", str(bdir), "--target", "anicbench",
                      "-j", jobs])
        for cmd in steps:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               env=clean_env())
            if p.returncode != 0:
                sys.stderr.write(p.stdout[-20000:])
                fail("build of the %s variant failed" % name, 2)


def run_binary(variant, args, cwd, deadline):
    """Runs one anicbench process; returns (result dict, wall seconds)."""
    exe = BUILD / variant / "anicbench"
    t0 = time.monotonic()
    try:
        p = subprocess.run([str(exe)] + args, cwd=cwd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, env=clean_env(),
                           timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        fail("%s anicbench did not finish in time" % variant)
    wall = time.monotonic() - t0
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        fail("%s anicbench exited with %d" % (variant, p.returncode),
             p.returncode)
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("%s anicbench printed no result" % variant)
    print(lines[-1])
    return json.loads(lines[-1]), wall


def layer_of(name):
    """Charges a profiled function to the src/ module it belongs to.

    The first anic namespace named decides, so std:: wrappers and
    InlineFunction thunks go to the layer in their template arguments
    (thunks themselves are anic::sim). The benchmark's own workload code
    is application code. Top-level anic functions (the payload generator,
    Rng) live in src/util. Everything else is libc/libstdc++.
    """
    m = NAME_RE.search(name)
    if m is None:
        return "libc"
    if m.group(1) == "anicbench::":
        return "app"
    return m.group(2) if m.group(2) in LAYERS else "util"


def fold_profile(exe, gmon):
    p = subprocess.run(["gprof", "-b", "-p", str(exe), str(gmon)],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, env=clean_env())
    if p.returncode != 0:
        fail("gprof failed: " + p.stderr[-2000:])
    self_s = {layer: 0.0 for layer in LAYERS}
    for line in p.stdout.splitlines():
        m = FLAT_RE.match(line)
        if m is not None:
            self_s[layer_of(m.group(2))] += float(m.group(1))
    return self_s


def metric_map(result):
    return {m["name"]: m for m in result["metrics"]}


def traced(opt, args, wanted, deadline):
    """Untraced and traced runs of the same seed; per-layer metrics."""
    untraced, untraced_wall = run_binary("release", args, ROOT, deadline)
    tag = "%s-%d" % (opt.workload, opt.seed)
    tdir = BUILD / "trace" / tag
    tdir.mkdir(parents=True, exist_ok=True)
    gmon = tdir / "gmon.out"
    if gmon.exists():
        gmon.unlink()
    spans = tdir / "spans.json"
    tr, traced_wall = run_binary("prof", args + ["--spans", str(spans)], tdir,
                                 deadline)

    # The traced build must reproduce every simulated number exactly.
    u, t = metric_map(untraced), metric_map(tr)
    diff = [n for n, m in u.items() if m["sim"] and m["value"] != t[n]["value"]]
    for key in ("attempted", "failed", "total_pkts"):
        if untraced[key] != tr[key]:
            diff.append(key)
    if diff:
        fail("traced run differs from the untraced one in: " + ", ".join(diff),
             4)

    self_s = fold_profile(BUILD / "prof" / "anicbench", gmon)
    pkts = tr["total_pkts"]
    out = {}
    for layer, s in self_s.items():
        out[layer + ".host_ns_per_pkt"] = (s * 1e9 / pkts, "ns/pkt")
    profiled = sum(self_s.values())
    cpu_s = t["trace.cpu_ns_per_pkt"]["value"] * pkts / 1e9
    out["trace.profile_frac"] = (profiled / cpu_s, "ratio")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    out["trace.cpu_ns_per_pkt"] = (t["trace.cpu_ns_per_pkt"]["value"], "ns/pkt")
    # Counts and set-up spans come from the untraced run.
    for name, m in u.items():
        out.setdefault(name, (m["value"], m["unit"]))

    artifact = {
        "workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds,
        "total_pkts": pkts, "gprof_self_s": self_s,
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
        "spans": str(spans.relative_to(ROOT)),
        "per_layer": {n: v for n, (v, _) in out.items() if n in wanted},
    }
    (BUILD / "trace" / (tag + ".json")).write_text(
        json.dumps(artifact, indent=1) + "\n")
    correct = untraced["correct"] and tr["correct"]
    return untraced, correct, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail("no BENCHMARK.json at %s" % ROOT, 2)
    spec = json.loads(spec_file.read_text())
    build()
    deadline = time.monotonic() + RUN_BUDGET_S

    args = ["--workload", opt.workload, "--seed", str(opt.seed),
            "--seconds", repr(opt.seconds)]
    if opt.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result, correct, values = traced(opt, args, wanted, deadline)
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        result, _ = run_binary("release", args, ROOT, deadline)
        correct = result["correct"]
        values = {n: (m["value"], m["unit"])
                  for n, m in metric_map(result).items()}

    metrics = {}
    for name, unit in wanted.items():
        if name not in values:
            fail("the run produced no metric %s" % name)
        value, got_unit = values[name]
        if got_unit != unit:
            fail("metric %s is in %s, BENCHMARK.json says %s"
                 % (name, got_unit, unit))
        if not math.isfinite(value):
            fail("metric %s is not finite" % name)
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
