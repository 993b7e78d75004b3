#!/usr/bin/env python3
"""Builds nvbench from source and runs one workload.

    python3 nvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the library and the nvbench binary under .bench_build/ (a minute or
so); later calls only re-check the build. Build output goes to stderr.

The binary's own report goes to stdout unchanged; the last line is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end metrics BENCHMARK.json lists; with --trace 1
they are its per-layer metrics, and the chrome://tracing file is left at
.bench_build/trace_<workload>_<seed>.json.

Exits non-zero, without a result line, when the build fails (for instance
outside a source checkout) or the binary reports an unusable run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "nvbench"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds nvbench; output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: %s is not a source checkout (no CMakeLists.txt "
                 "and src/ beside nvbench/)" % ROOT)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "nvbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return BUILD / "nvbench"


def declared_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def parse_report(lines):
    """Reads the binary's `metric` and `result` lines."""
    metrics, result = {}, None
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            metrics[fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
        elif len(fields) == 7 and fields[0] == "result":
            result = {"attempted": int(fields[2]), "failed": int(fields[4]),
                      "correct": fields[6] == "1"}
    return metrics, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(BUILD_ROOT)]
    if args.trace:
        cmd += ["--trace", str(BUILD_ROOT / ("trace_%s_%d.json" %
                                             (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        sys.exit("run.py: nvbench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()

    metrics, result = parse_report(proc.stdout.splitlines())
    if result is None or proc.returncode not in (0, 1):
        sys.exit("run.py: nvbench exited %d without a result" % proc.returncode)
    wanted = declared_metrics(args.trace == 1)
    missing = [name for name in wanted if name not in metrics]
    if missing and result["correct"]:
        sys.exit("run.py: nvbench did not report " + ", ".join(missing))
    result["metrics"] = {name: metrics[name] for name in wanted
                         if name in metrics}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
