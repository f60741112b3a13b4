#!/usr/bin/env python3
"""Build and run the memlint layer ledger.

Run from the root of a memlint checkout:

    python3 ledger/run.py --workload sec7_batch --seed 42 --seconds 10 --trace 0
    python3 ledger/run.py --workload all --seed 1729      # every workload
    python3 ledger/run.py --smoke                         # the ledger's own test

The first call configures and builds ledger/CMakeLists.txt (memlint's
libraries from src/ plus the benchmark program) in Release mode under
$CARGO_TARGET_DIR/ledger, or .bench_build/ledger when that is unset. Build
output goes to stderr. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, holding the end-to-end
(--trace 0) or per-layer (--trace 1) metrics BENCHMARK.json lists, or every
metric the program measured when there is no BENCHMARK.json; see
ledger/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "ledger")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "memlint_ledger",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("ledger: build step failed: " + " ".join(step))
    return os.path.join(out, "memlint_ledger")


def program_args(binary, workload, seed, seconds, trace, smoke=False):
    out = build_dir()
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", os.path.join(out, "work-%d" % os.getpid()),
            "--trace-dir", os.path.join(out, "traces")]
    return args + (["--smoke"] if smoke else [])


def contract_metrics(trace):
    """The metric names BENCHMARK.json lists for this kind of run, or None."""
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    return [m["name"] for m in contract["per_layer" if trace else
                                        "end_to_end"]]


def narrow(result, names, workloads):
    """Keeps the listed metrics of a result; a missing one makes it
    incorrect."""
    metrics = {}
    for workload in workloads:
        for name in names:
            key = name if len(workloads) == 1 else workload + "." + name
            if key in result["metrics"]:
                metrics[key] = result["metrics"][key]
            else:
                result["correct"] = False
    result["metrics"] = metrics
    return result


def ledger_lines(stdout):
    """The per-workload LEDGER records and the final result object."""
    lines = stdout.strip().splitlines()
    records = [json.loads(line[len("LEDGER "):]) for line in lines
               if line.startswith("LEDGER ")]
    return records, json.loads(lines[-1])


def smoke(binary):
    """Toy-size runs of all four workloads: every metric present and finite
    with its unit, no failed operation, and the same fingerprints from two
    runs with the same seed."""
    problems = []
    fingerprints = []
    for trace, repeat in ((0, 2), (1, 1)):
        for _ in range(repeat):
            done = subprocess.run(
                program_args(binary, "all", 42, 1, trace, smoke=True),
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
            if done.returncode != 0:
                problems.append("trace %d run exited %d" % (trace,
                                                            done.returncode))
                continue
            records, result = ledger_lines(done.stdout)
            if not result["correct"] or result["failed"] != 0:
                problems.append("trace %d run not correct: %s" %
                                (trace, done.stdout[-2000:]))
            if len(records) != 4:
                problems.append("trace %d run reported %d workloads" %
                                (trace, len(records)))
            for rec in records:
                for m in rec["metrics"]:
                    if (m["value"] is None or not math.isfinite(m["value"])
                            or not m["unit"] or m["samples"] < 1):
                        problems.append("%s: bad metric %s" %
                                        (rec["workload"], m))
                    if m["name"] == "fail_ratio" and m["value"] != 0:
                        problems.append("%s: fail_ratio %s" %
                                        (rec["workload"], m["value"]))
            if trace == 0:
                fingerprints.append([(r["workload"], r["notes"][0])
                                     for r in records])
            names = contract_metrics(trace)
            if names:
                narrowed = narrow(dict(result), names,
                                  [r["workload"] for r in records])
                if not narrowed["correct"]:
                    problems.append("trace %d run lacks metrics that "
                                    "BENCHMARK.json lists" % trace)
    if len(fingerprints) == 2 and fingerprints[0] != fingerprints[1]:
        problems.append("same seed, different fingerprints: %s" %
                        fingerprints)
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the ledger's own toy-size test")
    args = parser.parse_args()
    binary = build()
    if args.smoke:
        return smoke(binary)
    try:
        done = subprocess.run(
            program_args(binary, args.workload, args.seed, args.seconds,
                         args.trace),
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("ledger: run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        return done.returncode
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    names = contract_metrics(args.trace)
    if names is not None:
        workloads = [r["workload"] for r in ledger_lines(done.stdout)[0]]
        result = narrow(result, names, workloads)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
