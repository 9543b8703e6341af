#!/usr/bin/env python3
"""Per-module count of the src/ lines that no run reaches.

Build with --coverage (CMAKE_CXX_FLAGS and CMAKE_EXE_LINKER_FLAGS), run
every non-test program (figure benches, fuzz sweeps, examples), then:

  coverage_report.py snapshot SNAP.json BUILD_DIR...
      records which src/ lines have run so far;
  (run ctest)
  coverage_report.py report SNAP.json BUILD_DIR...
      prints a markdown table: per src/ module (src/testing excluded),
      the instrumented lines, the lines that never ran, and the lines
      that only ctest ran (run now, not in the snapshot).

Counters accumulate in the .gcda files, so the report sees the snapshot's
runs plus ctest's. Needs only gcov (-j, JSON output) and python3.
"""

import collections
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def in_scope(path):
    p = pathlib.Path(path).resolve()
    return SRC in p.parents and (SRC / "testing") not in p.parents


def line_counts(build_dirs):
    """{source file: {line: ran}} over every .gcda in @p build_dirs."""
    lines = collections.defaultdict(dict)
    for build in build_dirs:
        by_dir = collections.defaultdict(list)
        for gcda in pathlib.Path(build).resolve().rglob("*.gcda"):
            by_dir[gcda.parent].append(gcda.name)
        for objdir, names in sorted(by_dir.items()):
            out = subprocess.run(
                ["gcov", "-j", "-t", "-o", str(objdir)] + sorted(names),
                cwd=objdir, check=True, capture_output=True, text=True).stdout
            dec = json.JSONDecoder()
            pos = 0
            while True:
                while pos < len(out) and out[pos].isspace():
                    pos += 1
                if pos >= len(out):
                    break
                doc, pos = dec.raw_decode(out, pos)
                cwd = pathlib.Path(doc.get("current_working_directory", "."))
                for f in doc["files"]:
                    path = str((cwd / f["file"]).resolve())
                    if not in_scope(path):
                        continue
                    seen = lines[path]
                    for ln in f["lines"]:
                        n = ln["line_number"]
                        seen[n] = seen.get(n, False) or ln["count"] > 0
    return lines


def snapshot(out_path, build_dirs):
    ran = {path: sorted(n for n, r in seen.items() if r)
           for path, seen in line_counts(build_dirs).items()}
    with open(out_path, "w") as f:
        json.dump(ran, f)


def report(snap_path, build_dirs):
    with open(snap_path) as f:
        before = {path: set(ns) for path, ns in json.load(f).items()}
    rows = collections.defaultdict(lambda: [0, 0, 0])
    for path, seen in line_counts(build_dirs).items():
        module = pathlib.Path(path).relative_to(SRC).parts[0]
        row = rows[module]
        ran_before = before.get(path, set())
        for n, ran in seen.items():
            row[0] += 1
            if not ran:
                row[1] += 1
            elif n not in ran_before:
                row[2] += 1
    total = [sum(r[i] for r in rows.values()) for i in range(3)]
    print("| src/ module | instrumented lines | never ran | ran only under ctest |")
    print("|---|---:|---:|---:|")
    for module in sorted(rows):
        print("| %s | %d | %d | %d |" % ((module,) + tuple(rows[module])))
    print("| **total** | %d | %d | %d |" % tuple(total))


def main(argv):
    if len(argv) < 4 or argv[1] not in ("snapshot", "report"):
        sys.exit(__doc__)
    (snapshot if argv[1] == "snapshot" else report)(argv[2], argv[3:])


if __name__ == "__main__":
    main(sys.argv)
