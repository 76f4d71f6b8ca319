"""Alternating parent/change pairs of the benchmark's workloads.

    python3 tools/pairs.py --parent REV --out BENCH_<pr>_pairs.json \\
        [--workload {train,serve,sweep} ...] [--seed N] [--pairs N] [--seconds S] [--shapes isolet|tiny]

``--workload`` takes one or more workloads and defaults to all three;
``--seed`` defaults to 1.  So a change's no-regression run is
``python3 tools/pairs.py --parent HEAD~1 --out BENCH_<pr>_pairs.json``.

Makes two fresh sibling trees, ``parent`` and ``change``, under one
temporary directory: the parent is ``git archive`` of revision REV, or a
copy of REV when it is a directory, and the change is a copy of the
working tree this file sits in.  A copy leaves out ``.git``,
``__pycache__`` and ``.perfbench-*``, so the two sides differ only in
their files.  For each workload in turn it then runs the unchanged
``perfbench/run.py`` of each tree from that tree's root, untraced,
alternating which side goes first, over 10 pairs unless ``--pairs``
says otherwise.
Each end-to-end metric of ``BENCHMARK.json`` gets both
sides' per-run values, medians and quartiles, the number of pairs the
change won (ties count for neither side), ``paired_ratio``, the median
over pairs of change divided by parent (pairs whose parent reads 0 left
out; ``null`` when none is left), which a drift shared by both sides of
a pair leaves alone, and a verdict against the metric's bound:

* ``better``: the change won at least nine pairs in ten, its median
  beats the parent's by more than the parent's interquartile range, and
  it failed no more operations than the parent;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: the parent's own runs spread wider than the bound,
  unless every change run beats every parent run;
* ``within bound`` otherwise.

The workload's ``ops_failed`` holds each side's failed operations per
run and a verdict, ``worse`` when the change's total exceeds the
parent's and ``within bound`` otherwise.  Each side's distinct output
digests are kept beside its BLAS thread counts (``env.blas_threads``),
since the digests differ by thread count.  Results are
merged into ``--out`` under ``"<workload> seed <N>"``, so one file holds
every workload and seed of a change.  Its top-level ``src_loc`` holds
``tools/loc.py``'s per-part totals of each tree's ``src/decohd``, as
``{"parent": {...}, "change": {...}}``, so the line delta is measured on
the trees benchmarked; the last line printed is that delta, change
minus parent, of each part and of the total.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # loc.py beside this file, when loaded by path
from loc import ROOT, export, totals

WORKLOADS = ("train", "serve", "sweep")


def make_trees(parent: str, into: str) -> dict[str, str]:
    """The parent's and this working tree's fresh trees, side by side under *into*."""
    return {side: export(source, os.path.join(into, side)) for side, source in (("parent", parent), ("change", ROOT))}


def run(tree: str, workload: str, args) -> dict:
    """One untraced run of the tree's own benchmark: its metrics and digest."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--shapes", args.shapes]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
    result = json.loads(lines[-1])
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "digest": detail["digest"], "blas_threads": detail["env"]["blas_threads"], "failed": result["failed"]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(spec: dict, parent: list[float], change: list[float], fails_more: bool) -> dict:
    """Per-run values, quartiles, wins and the verdict of one metric;
    a change that *fails_more* operations than the parent is never better."""
    sign = 1.0 if spec["better"] == "lower" else -1.0  # sign * (parent - change) > 0: change better
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    ratios = [b / a for a, b in zip(parent, change) if a]
    gain = sign * (p[1] - c[1])
    base = abs(p[1]) or 1.0
    if not fails_more and wins >= math.ceil(0.9 * len(parent)) and gain > p[2] - p[0]:
        verdict = "better"
    elif -gain > spec["bound"] * base:
        verdict = "worse"
    elif (max(parent) - min(parent)) > spec["bound"] * base and not all(
            sign * (a - b) > 0 for a in parent for b in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": {"runs": parent, "median": p[1], "q1": p[0], "q3": p[2]},
            "change": {"runs": change, "median": c[1], "q1": c[0], "q3": c[2]},
            "wins": wins, "pairs": len(parent),
            "paired_ratio": statistics.median(ratios) if ratios else None, "verdict": verdict}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision, or a directory holding a tree")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10, help="at least 1; 10, the default, for a claim")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--shapes", choices=("isolet", "tiny"), default="isolet")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def workload_entry(trees: dict[str, str], workload: str, args, specs: dict) -> dict:
    """The report entry of *args.pairs* alternating pairs of one workload."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(trees[side], workload, args))
            print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                  f"op_p50_ms={runs[side][-1]['metrics']['op_p50_ms']:.4g}", file=sys.stderr)
    failed = {side: [r["failed"] for r in rs] for side, rs in runs.items()}
    fails_more = sum(failed["change"]) > sum(failed["parent"])
    return {
        "parent": args.parent, "workload": workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": args.seconds, "shapes": args.shapes,
        "digests": {side: sorted({r["digest"] for r in rs}) for side, rs in runs.items()},
        "blas_threads": {side: sorted({r["blas_threads"] for r in rs}) for side, rs in runs.items()},
        "ops_failed": {**failed, "verdict": "worse" if fails_more else "within bound"},
        "metrics": {name: summarize(spec, [r["metrics"][name] for r in runs["parent"]],
                                    [r["metrics"][name] for r in runs["change"]], fails_more)
                    for name, spec in specs.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    report = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = make_trees(args.parent, tmp)
        report["src_loc"] = {side: totals(os.path.join(tree, "src", "decohd")) for side, tree in trees.items()}
        for workload in args.workload:
            entry = report[f"{workload} seed {args.seed}"] = workload_entry(trees, workload, args, specs)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            for name, m in entry["metrics"].items():
                ratio = "-" if m["paired_ratio"] is None else f"{m['paired_ratio']:.4f}"
                print(f"{workload:<6} {name:<12} {m['parent']['median']:>12.6g} -> "
                      f"{m['change']['median']:>12.6g} wins {m['wins']}/{m['pairs']}  "
                      f"ratio {ratio}  {m['verdict']}")
            failed = entry["ops_failed"]
            print(f"{workload:<6} {'ops_failed':<12} {sum(failed['parent']):>12d} -> "
                  f"{sum(failed['change']):>12d}  {failed['verdict']}")
    print(src_loc_delta(report["src_loc"]))
    return 0


def src_loc_delta(src_loc: dict) -> str:
    """The change-minus-parent line delta of each part of *src_loc* and of their total."""
    delta = {part: src_loc["change"][part] - src_loc["parent"][part] for part in src_loc["change"]}
    return "src_loc change - parent: " + " ".join(f"{part} {n:+d}" for part, n in
                                                   [*delta.items(), ("total", sum(delta.values()))])


if __name__ == "__main__":
    sys.exit(main())
