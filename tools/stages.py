"""Resident memory at the entry and exit of decohd's stage functions.

    python3 tools/stages.py --workload {train,serve,sweep} [--seed N] [--seconds S] [--shapes isolet|tiny]

Runs one perfbench workload in this process, untraced, with BLAS threads
pinned as ``perfbench/run.py`` pins them and each function of ``STAGES``
wrapped wherever a ``decohd`` or ``perfbench`` module holds it.  Each
entry (``>``) and exit (``<``) prints, indented by depth, ``ru_maxrss``
and the current resident set in MB; the last line gives ``peak_rss_mb``
and the first event that saw it (the peak was set after the event before
it).  Run from the repository root, where the workloads write temporary
files.  Linux only; stdlib and numpy.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("experiment.run_experiment", "experiment.prepare_data", "encoding.fit_standardizer",
          "experiment.encode_splits", "encoding.RandomProjectionEncoder.encode_batch", "ops.generate_matrix",
          "experiment.fit_model", "training.train", "training.evaluate", "serialize.save_classifier",
          "serialize.load_classifier", "precision.quantize_model", "precision.quantize_array",
          "faults.robustness_sweep")


def memory_mb() -> tuple[float, float]:
    """(ru_maxrss, current resident set) of this process, in MB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident_pages = int(fh.read().split()[1])
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20)


class Probe:
    """Prints each stage entry and exit; remembers where the high-water mark last rose."""

    def __init__(self):
        self.depth, self.high, self.peak_seen = 0, 0.0, "(no stage)"

    def event(self, name: str, arrow: str) -> None:
        high, current = memory_mb()
        if high > self.high:
            self.high, self.peak_seen = high, f"{name} {arrow}"
        print(f"{'  ' * self.depth}{name} {arrow} maxrss {high:.1f} MB, rss {current:.1f} MB", flush=True)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            self.event(name, ">")
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                self.event(name, "<")
        return probed

    def install(self) -> None:
        for stage in STAGES:
            module, *path = stage.split(".")
            owner = importlib.import_module(f"decohd.{module}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            name, original = path[-1], vars(owner)[path[-1]]
            probed = self.wrap(name, original)
            for target in [owner] if len(path) > 1 else [  # a module function: every module holding it
                    m for n, m in list(sys.modules.items())
                    if n.split(".")[0] in ("decohd", "perfbench") and vars(m).get(name) is original]:
                setattr(target, name, probed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "serve", "sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--shapes", choices=("isolet", "tiny"), default="isolet")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import run  # loads no numpy, so the pin below holds
    run.pin_threads()
    from perfbench import tracer, workloads
    probe = Probe()
    probe.install()
    outcome = workloads.run(args.workload, args.seed, args.seconds, workloads.SHAPES[args.shapes],
                            tracer.NullTracer())
    seen = probe.peak_seen if memory_mb()[0] <= probe.high else "(after the last stage)"
    print(f"peak_rss_mb {outcome.metrics['peak_rss_mb']:.1f}, first seen at {seen}; "
          f"ops_failed {outcome.checks.failed}")
    return 0 if outcome.checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
