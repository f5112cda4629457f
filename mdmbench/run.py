#!/usr/bin/env python3
"""Step-time benchmark of the MDM reproduction (see README.md).

Run from the repository root:

    python3 mdmbench/run.py --workload melt-serial --seed 1 --seconds 10 --trace 0

Builds mdmbench/ (and the repository libraries under ../src) in Release
into $CARGO_TARGET_DIR or .bench_build, runs the one workload in its own
process, and prints as the last stdout line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones (a layer that does
no work in the workload reads 0) and writes a Chrome trace into the build
directory. Exits non-zero without a result line if the build or the run
fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("melt-serial", "melt-machine", "melt-pme", "served-mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "mdmbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "mdmbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "mdmbench")


def declared_metrics(trace):
    """(name, unit) pairs this run must report, from BENCHMARK.json when it
    sits at the repository root (the benchmark's own test checks it)."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; figures are meaningless")
    ap.add_argument("--fault", choices=("force", "truncate"),
                    help="negative test: corrupt an output the gates check")
    args = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 ".bench_build")
    # Keep compiler and program temporaries inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(build_root, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    try:
        binary = build(build_root)
        declared = declared_metrics(args.trace)
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = os.path.join(build_root, "runs",
                           f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [binary, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--specs", os.path.join(HERE, "specs")]
    if args.tiny:
        cmd.append("--tiny")
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])

    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        for name in os.listdir(out_dir):
            if name.startswith("trace-"):
                dest = os.path.join(traces,
                                    name.replace(".json", f"-seed{args.seed}.json"))
                shutil.move(os.path.join(out_dir, name), dest)
                log(f"chrome trace: {dest}")
    shutil.rmtree(out_dir, ignore_errors=True)

    metrics = result["metrics"]
    for name, unit in declared:
        if name in metrics:
            if metrics[name]["unit"] != unit:
                log(f"{name}: unit {metrics[name]['unit']} != declared {unit}")
                return 1
        elif args.trace:
            metrics[name] = {"value": 0.0, "unit": unit}  # layer not exercised
        else:
            log(f"missing end-to-end metric {name}")
            return 1
    result["metrics"] = {name: metrics[name] for name, _ in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
