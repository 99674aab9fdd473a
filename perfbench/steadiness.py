#!/usr/bin/env python3
"""Steadiness self-check: run each workload k times and summarize spreads.

    python3 perfbench/steadiness.py run LABEL [--workloads ic,nlp_service]
        [--seeds 1-10] [--trace 0]
    python3 perfbench/steadiness.py summary LABEL [LABEL2]

`run` calls perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds, stores every result line in perfbench/runs/LABEL.json and prints
the summary. `summary` prints, per workload and end-to-end metric, the median,
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
beside the metric's bound. Given a second label it also prints how far the
second set's median moved in the metric's worse direction, as a share of the
first set's median. The runs that set the bounds are kept in perfbench/runs/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS_DIR = os.path.join(BENCH_DIR, "runs")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    path = os.path.join(RUNS_DIR, f"{args.label}.json")
    record = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "results": {}}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - start
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}  # counted as failed by summary()
            result["notes"] = lines[:-1]
            result["exit_code"] = done.returncode
            result["wall_s"] = wall
            record["results"].setdefault(workload, {})[str(seed)] = result
            print(f"{workload} seed {seed}: exit {done.returncode}, "
                  f"{wall:.1f} s", file=sys.stderr)
            os.makedirs(RUNS_DIR, exist_ok=True)
            with open(path, "w") as f:
                json.dump(record, f, indent=1, sort_keys=True)
                f.write("\n")
    summary([args.label], spec)


def load(label):
    with open(os.path.join(RUNS_DIR, f"{label}.json")) as f:
        return json.load(f)


def column(record, workload, name):
    return [r["metrics"][name]["value"]
            for r in record["results"].get(workload, {}).values()
            if name in r.get("metrics", {})]


def summary(labels, spec):
    records = [load(label) for label in labels]
    metrics = spec["end_to_end"] if not records[0]["trace"] else [
        dict(m, bound=None) for m in spec["per_layer"]]
    worst = 0.0
    header = f"{'workload':12} {'metric':22} {'n':>3} {'median':>12} " \
             f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
    if len(records) == 2:
        header += f" {'moved':>7}"
    print(header)
    for workload in records[0]["results"]:
        runs = records[0]["results"][workload].values()
        bad = [r for r in runs
               if r.get("exit_code") != 0 or not r.get("correct")]
        if bad:
            print(f"{workload}: {len(bad)} run(s) failed or were incorrect")
        for m in metrics:
            values = column(records[0], workload, m["name"])
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            line = (f"{workload:12} {m['name']:22} {len(values):3} "
                    f"{med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                    f"{bound if bound is not None else '-':>6}")
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
            if len(records) == 2:
                other = column(records[1], workload, m["name"])
                if other:
                    med2 = statistics.median(other)
                    moved = (med2 - statistics.median(values)) / \
                        statistics.median(values)
                    if m["better"] == "higher":
                        moved = -moved
                    line += f" {moved:7.3f}"
            print(line)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("label")
    p_run.add_argument("--workloads", default="")
    p_run.add_argument("--seeds", default="1-10")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_sum = sub.add_parser("summary")
    p_sum.add_argument("labels", nargs="+")
    args = parser.parse_args()
    spec = load_spec()
    if args.command == "run":
        run(args, spec)
    else:
        summary(args.labels[:2], spec)


if __name__ == "__main__":
    main()
