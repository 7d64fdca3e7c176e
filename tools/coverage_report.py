#!/usr/bin/env python3
"""Line coverage of src/ per subsystem, and the src/ functions no run called.

Reads the gcov data of a build configured with --coverage after its tests
ran, e.g.

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="-O0 --coverage" -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j && (cd build-cov && ctest -j)
    python3 tools/coverage_report.py --build build-cov --out coverage

and writes <out>/subsystems.txt (one row per src/ subdirectory, then the
total) and <out>/uncalled_functions.txt (file:line and demangled name of
every src/ function with zero calls). A header's inline code is compiled
into many objects; its lines and functions are merged across them, so a
line counts as covered when any object executed it, and a function (every
template instantiation of it) as called when any object called it.
"""
import argparse
import collections
import json
import os
import subprocess
import sys


def gcov_records(build_dir):
    """Yields one gcov JSON document per .gcda file under build_dir."""
    gcdas = []
    for dirpath, _, files in os.walk(build_dir):
        gcdas += [os.path.join(dirpath, f) for f in files if f.endswith(".gcda")]
    for gcda in sorted(gcdas):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--demangled-names", gcda],
            cwd=os.path.dirname(gcda), capture_output=True, text=True)
        if out.returncode != 0:
            print(f"coverage_report: gcov failed on {gcda}: {out.stderr.strip()}",
                  file=sys.stderr)
            continue
        for line in out.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build", required=True, help="coverage build directory")
    ap.add_argument("--root", default=".", help="repository root (default .)")
    ap.add_argument("--out", required=True, help="directory for the reports")
    args = ap.parse_args()

    src = os.path.join(os.path.realpath(args.root), "src") + os.sep
    lines = collections.defaultdict(int)  # (file, line) -> count
    funcs = collections.defaultdict(int)  # (file, start line) -> calls
    names = {}  # (file, start line) -> demangled name of one instantiation
    for doc in gcov_records(args.build):
        cwd = doc.get("current_working_directory", "")
        for f in doc.get("files", []):
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, os.path.realpath(args.root))
            for ln in f.get("lines", []):
                lines[(rel, ln["line_number"])] += ln["count"]
            for fn in f.get("functions", []):
                key = (rel, fn["start_line"])
                funcs[key] += fn["execution_count"]
                names.setdefault(key, fn.get("demangled_name") or fn["name"])
    if not lines:
        print("coverage_report: no gcov data for src/ under " + args.build,
              file=sys.stderr)
        return 1

    per = collections.defaultdict(lambda: [0, 0])  # subsystem -> [hit, total]
    for (rel, _), count in lines.items():
        parts = rel.split(os.sep)
        sub = parts[1] if len(parts) > 2 else "(top)"
        per[sub][1] += 1
        per[sub][0] += 1 if count > 0 else 0
    hit = sum(h for h, _ in per.values())
    total = sum(t for _, t in per.values())
    rows = [f"{'subsystem':<12} {'lines':>6} {'covered':>8} {'pct':>7}"]
    for sub in sorted(per):
        h, t = per[sub]
        rows.append(f"{sub:<12} {t:>6} {h:>8} {100.0 * h / t:>6.1f}%")
    rows.append(f"{'total':<12} {total:>6} {hit:>8} {100.0 * hit / total:>6.1f}%")

    uncalled = sorted(k for k, calls in funcs.items() if calls == 0)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "subsystems.txt"), "w") as f:
        f.write("\n".join(rows) + "\n")
    with open(os.path.join(args.out, "uncalled_functions.txt"), "w") as f:
        for rel, line in uncalled:
            f.write(f"{rel}:{line} {names[(rel, line)]}\n")
    print("\n".join(rows))
    print(f"{len(uncalled)} src/ functions with zero calls "
          f"(see {os.path.join(args.out, 'uncalled_functions.txt')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
