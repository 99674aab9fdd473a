#!/usr/bin/env python3
"""Build and run one workload of the EdgeTune benchmark.

    python3 perfbench/run.py --workload ic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the benchmark programs under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) with CMake in Release mode; later runs rebuild only
what changed. It prints a host-context block, the program's notes and
metrics, and last one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (0 where a layer is not used by the workload).
The exit status is 0 only if every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("ic", "nlp_service", "sr_durable")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def cmake_cache(build):
    values = {}
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def build(build):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no EdgeTune sources under {ROOT}/src; nothing to benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build, "-j", jobs, "--target",
            "perfbench_untraced", "perfbench_traced"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    # Timings from a Debug or sanitizer build are noise; refuse them the
    # way tools/run_kernel_bench does.
    build_type = cmake_cache(build).get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        fail(f"{build} is CMAKE_BUILD_TYPE='{build_type}', not Release")


def fs_type(path):
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def host_context(build, work_dir):
    cache = cmake_cache(build)
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return [
        f"host.nproc        {os.cpu_count()}",
        f"host.build_type   {cache.get('CMAKE_BUILD_TYPE', 'unknown')}",
        f"host.compiler     {version[0] if version else compiler}",
        f"host.git_sha      {sha}",
        f"host.journal_dir  {os.path.relpath(work_dir, ROOT)} "
        f"({fs_type(work_dir)})",
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = build_dir()
    build(build_root)
    work_dir = os.path.join(build_root, "work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    program = "perfbench_traced" if args.trace else "perfbench_untraced"
    command = [os.path.join(build_root, program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{program} exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{program} printed no result (exit {run.returncode})")

    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in wanted})
    if unknown:
        fail(f"{program} printed metrics BENCHMARK.json does not list: {unknown}")
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and not args.trace:
            fail(f"{program} did not measure end-to-end metric {m['name']}")
        if got is not None and got["unit"] != m["unit"]:
            fail(f"{m['name']} in {got['unit']}, BENCHMARK.json says {m['unit']}")
        # Per-layer metrics of a layer this workload never calls read 0.
        metrics[m["name"]] = {"value": got["value"] if got else 0.0,
                              "unit": m["unit"]}

    for line in host_context(build_root, work_dir) + lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]) and run.returncode == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if run.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
