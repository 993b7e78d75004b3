#!/usr/bin/env python3
"""Paired comparison of nvbench runs: parent commit against a change.

Two steps, which can be run separately:

    # >= 10 pairs per workload, alternating which side runs first; every
    # run's JSON result is appended to OUT as one line.
    python3 nvbench/compare.py run --parent ../parent --change . \\
        --pairs 10 --out pairs.jsonl [--workloads serve_hot,train]

    # One row per (workload, end-to-end metric).
    python3 nvbench/compare.py report pairs.jsonl [--benchmark BENCHMARK.json]

The verdict of a row, from the parent's values P and the change's C (pair i
is one seed, run on both sides):

  gain          the change wins >= 90% of all pairs (ties count for
                neither side), and the medians differ by more than the
                parent's interquartile range.
  regression    the change's median is worse than the parent's by more
                than the metric's bound from BENCHMARK.json.
  unresolved    either side's spread (IQR / median) exceeds the bound, so
                the bound cannot be checked; unless every change run reads
                better than every parent run, which is reported as better.
  within bound  none of the above.

A gain does not count when the change failed more operations than the
parent, or when any run reported incorrect output. `report` exits 1 when
any row is a regression or any run was incorrect.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(parent, change, better, bound, more_failures=False):
    """Classifies one (workload, metric) row; see the module docstring.

    parent and change are per-pair values, parent[i] and change[i] from the
    same seed. Returns (verdict, details dict).
    """
    if len(parent) != len(change):
        raise ValueError("unpaired values")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if (c - p) * sign > 0)
    losses = sum(1 for p, c in zip(parent, change) if (c - p) * sign < 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = (cmed - pmed) * sign  # > 0: the change is better.
    worse_share = -gap / pmed if pmed else 0.0
    widest = max(spread(parent), spread(change))
    details = {
        "pairs": len(parent), "wins": wins, "losses": losses,
        "parent": [pq1, pmed, pq3], "change": [cq1, cmed, cq3],
        "worse_share": worse_share, "spread": widest, "bound": bound,
    }
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and gap > pq3 - pq1):
        return ("gain (void: more failures)" if more_failures else "gain",
                details)
    if widest > bound:
        if all((c - p) * sign > 0 for c in change for p in parent):
            return "better (every run)", details
        return "unresolved", details
    if worse_share > bound:
        return "regression", details
    return "within bound", details


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def report(runs, spec):
    """Rows of (workload, metric, verdict, details), plus problems found."""
    rows, problems = [], []
    for run in runs:
        if not run["result"].get("correct", False):
            problems.append("%s side, %s seed %d: incorrect output" %
                            (run["side"], run["workload"], run["seed"]))
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        by_seed = {}
        for run in runs:
            if run["workload"] == workload:
                by_seed.setdefault(run["seed"], {})[run["side"]] = run
        seeds = sorted(s for s, sides in by_seed.items()
                       if "parent" in sides and "change" in sides)
        if not seeds:
            continue
        if len(seeds) < MIN_PAIRS:
            problems.append("%s: only %d pairs (a gain needs %d)" %
                            (workload, len(seeds), MIN_PAIRS))
        failed = {side: sum(by_seed[s][side]["result"]["failed"]
                            for s in seeds) for side in ("parent", "change")}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                parent = [by_seed[s]["parent"]["result"]["metrics"][name]
                          ["value"] for s in seeds]
                change = [by_seed[s]["change"]["result"]["metrics"][name]
                          ["value"] for s in seeds]
            except KeyError:
                problems.append("%s: %s missing from some run" %
                                (workload, name))
                continue
            v, d = verdict(parent, change, metric["better"], metric["bound"],
                           failed["change"] > failed["parent"])
            rows.append((workload, name, v, d))
    return rows, problems


def print_report(rows, problems, out=sys.stdout):
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "wins", "worse", "spread", "bound",
              "verdict")
    lines = [header]
    for workload, name, v, d in rows:
        fmt = lambda q: "%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])
        lines.append((workload, name, fmt(d["parent"]), fmt(d["change"]),
                      "%d/%d" % (d["wins"], d["pairs"]),
                      "%+.1f%%" % (100 * d["worse_share"]),
                      "%.1f%%" % (100 * d["spread"]),
                      "%.0f%%" % (100 * d["bound"]), v))
    widths = [max(len(str(line[i])) for line in lines)
              for i in range(len(header))]
    for line in lines:
        out.write("  ".join(str(c).ljust(w) for c, w in zip(line, widths))
                  .rstrip() + "\n")
    for p in problems:
        out.write("problem: %s\n" % p)


def tree_hash(directory):
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def plan_pairs(workloads, pairs, first_seed):
    """(workload, seed, side order) for every pair; sides alternate first."""
    plan = []
    for workload in workloads:
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            plan.append((workload, first_seed + i, order))
    return plan


def run_one(checkout, workload, seed, seconds):
    cmd = ["python3", "nvbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("compare.py: %s in %s gave no result (exit %d)" %
                 (workload, checkout, proc.returncode))


def main():
    parser = argparse.ArgumentParser(
        description="Paired comparison of nvbench runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run parent/change pairs")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--workloads", help="comma-separated (default: all)")
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="tabulate a pairs file")
    rep.add_argument("pairs")
    rep.add_argument("--benchmark", help="BENCHMARK.json (default: the one "
                     "beside this script's directory)")
    args = parser.parse_args()

    default_spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if args.command == "run":
        spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
        if tree_hash(Path(args.parent) / "nvbench") != tree_hash(
                Path(args.change) / "nvbench"):
            sys.stderr.write("warning: nvbench/ differs between the two "
                             "checkouts; a claim needs identical benchmark "
                             "code on both sides\n")
        workloads = (args.workloads.split(",") if args.workloads else
                     [w["name"] for w in spec["workloads"]])
        with open(args.out, "a") as out:
            for workload, seed, order in plan_pairs(workloads, args.pairs,
                                                    args.first_seed):
                for side in order:
                    checkout = args.parent if side == "parent" else args.change
                    result = run_one(checkout, workload, seed,
                                     spec["run_seconds"])
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "side": side, "first": order[0],
                                          "result": result}) + "\n")
                    out.flush()
                    print("%s seed %d %s done" % (workload, seed, side),
                          flush=True)
        return 0

    spec = json.loads(Path(args.benchmark or default_spec).read_text())
    rows, problems = report(load_runs(args.pairs), spec)
    print_report(rows, problems)
    bad = any(v == "regression" for _, _, v, _ in rows) or any(
        "incorrect" in p for p in problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
