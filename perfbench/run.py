#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig11_full --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --regen-reference

The simulator is compiled from this checkout's sources into
$CARGO_TARGET_DIR (default .bench_build) on first use. The last line of
stdout is the JSON result, holding the metrics BENCHMARK.json declares for
the mode; the line before it is the host and provenance block, which is
also written with the full report to <build dir>/perfbench-out/.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "experiment.hpp")):
        log(f"simulator sources not found under {ROOT}/src")
        return None
    bdir = os.path.join(target_dir(), "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return bdir


def cmake_cache(bdir):
    out = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and not line.startswith(("#", "//")):
                    key, value = line.rstrip("\n").split("=", 1)
                    out[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources, so a result names
    the code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def provenance(bdir, args):
    cache = cmake_cache(bdir)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = "unknown"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
                     if x)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "compiler": cxx,
        "compiler_version": version,
        "build_type": build_type,
        "build_flags": flags + " -Wall -Wextra -std=c++20",
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["fig11_full", "sampled_long", "service_open"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the self-tests of the benchmark's helpers")
    ap.add_argument("--regen-reference", action="store_true",
                    help="rewrite perfbench/reference_ipc.txt from full-detail runs")
    args = ap.parse_args()
    if not (args.selftest or args.regen_reference or args.workload):
        ap.error("one of --workload, --selftest, --regen-reference is required")

    bdir = build()
    if bdir is None:
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode
    reference = os.path.join(HERE, "reference_ipc.txt")
    if args.regen_reference:
        return subprocess.run([os.path.join(bdir, "perfbench"),
                               "--regen-reference", reference]).returncode

    out_dir = os.path.join(target_dir(), "perfbench-out")
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", reference,
           "--work-dir", os.path.join(target_dir(), "perfbench-work"),
           "--out-dir", out_dir]
    start = time.time()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4
    lines = r.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        log(f"run ended with code {r.returncode} and no result")
        return r.returncode or 5
    measured = json.loads(lines[-1])
    # The result carries exactly the metrics BENCHMARK.json declares for the
    # mode; the report and the result file keep every measured metric.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured["metrics"]]
    if missing:
        sys.stdout.write(r.stdout)
        log("run did not measure " + ", ".join(missing))
        return 6
    result = dict(measured, metrics={m["name"]: measured["metrics"][m["name"]]
                                     for m in declared})
    prov = provenance(bdir, args)
    prov["wall_s"] = round(time.time() - start, 3)
    report = {"provenance": prov, "measured": measured, "report": lines[:-1]}
    os.makedirs(out_dir, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(report, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(prov))
    print(json.dumps(result), flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
