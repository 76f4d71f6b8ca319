"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload {train,serve,sweep} --seed N \\
        --seconds S --trace {0,1} [--shapes {isolet,tiny}]

Run from the repository root: the ``decohd`` package is imported from
``src/`` next to this directory, and temporary files go to the current
directory.  BLAS threads are pinned to the CPUs this process may use
before numpy loads.  The last line of standard output is one JSON
object, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The line before it, ``detail {...}``, holds the
workload's own metric names, notes, output digest and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "serve", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shapes", choices=("isolet", "tiny"), default="isolet")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pin_threads() -> int:
    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "decohd", "__init__.py")):
        print(f"perfbench: no decohd package under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path[:0] = [SRC, ROOT]

    import decohd
    from perfbench import tracer as tracing
    from perfbench import workloads

    if not os.path.abspath(decohd.__file__).startswith(SRC + os.sep):
        print(f"perfbench: decohd imported from {decohd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    shapes = workloads.SHAPES[args.shapes]
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, shapes, tracer)
    finally:
        if args.trace:
            tracer.uninstall()

    if args.trace:
        values = tracer.metrics()
        units = tracing.per_layer_units()
    else:
        values = outcome.metrics
        units = workloads.E2E_UNITS
    checks = outcome.checks
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} shapes={args.shapes}")
    for name, (value, unit) in outcome.own.items():
        print(f"  {name:<18} {value:>14.6g} {unit}")
    print(f"  {'ops_attempted':<18} {checks.attempted:>14d}")
    print(f"  {'ops_failed':<18} {checks.failed:>14d}")
    for note in checks.notes:
        print(f"  note: {note}")
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "own": {k: {"value": v, "unit": u} for k, (v, u) in outcome.own.items()},
        "e2e": outcome.metrics,
        "ops_attempted": checks.attempted,
        "ops_failed": checks.failed,
        "correct": checks.correct,
        "notes": checks.notes,
        "digest": outcome.digest,
        "wall_s": outcome.wall_s,
        "info": outcome.info,
        "absent_layers": getattr(tracer, "absent", []),
        "uncounted_layers": sorted(getattr(tracer, "uncounted", ())),
        "env": workloads.environment(ROOT, args.seed, args.shapes, threads),
    }
    print("detail " + json.dumps(detail))
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
