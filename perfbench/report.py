"""Run every workload untraced, then traced, and print the full report.

    python3 perfbench/report.py [--seed N] [--seconds S] [--shapes isolet|tiny]
                                [--out perfbench/results/NAME.json]

For each workload this prints the workload's own end-to-end metrics with
their units, ``ops_attempted`` and ``ops_failed``, the per-layer table of
the traced run (calls, self time, median call time, work counters), the
check that those self times account for the traced wall time, and the
tracing overhead (traced minus untraced workload wall time).  It exits
with 1 if a run fails or a traced run's outputs (loss trajectory,
predictions, sweep rows) differ from the untraced run's.  ``--out``
also writes everything, with the environment record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("train", "serve", "sweep")


def run_once(workload: str, seed: int, seconds: int, shapes: str, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--shapes", shapes]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    detail = next(line for line in lines if line.startswith("detail "))
    return {"detail": json.loads(detail[len("detail "):]), "result": json.loads(lines[-1])}


def layer_rows(metrics: dict) -> list[tuple]:
    """(layer, calls, self_s, p50_ms, counters) for every layer that ran."""
    layers = sorted({name.rsplit(".", 1)[0] for name in metrics if name.endswith(".calls")})
    rows = []
    for layer in layers:
        calls = metrics[f"{layer}.calls"]["value"]
        if not calls:
            continue
        counters = {name[len(layer) + 1:]: m["value"] for name, m in metrics.items()
                    if name.startswith(layer + ".")
                    and name[len(layer) + 1:] not in ("calls", "self_s", "p50_ms")}
        rows.append((layer, calls, metrics[f"{layer}.self_s"]["value"],
                     metrics[f"{layer}.p50_ms"]["value"], counters))
    return sorted(rows, key=lambda r: -r[2])


def report(workload: str, untraced: dict, traced: dict) -> dict:
    u, t = untraced["detail"], traced["detail"]
    layers = traced["result"]["metrics"]
    overhead = t["wall_s"] - u["wall_s"]
    identical = u["digest"] == t["digest"]
    print(f"\n== {workload}  (seed {u['env']['seed']}, shapes {u['env']['shapes_name']})")
    for name, m in u["own"].items():
        print(f"  {name:<18} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'ops_attempted':<18} {u['ops_attempted']:>14d}")
    print(f"  {'ops_failed':<18} {u['ops_failed']:>14d}")
    for note in u["notes"]:
        print(f"  note: {note}")
    print("  end-to-end (benchmark names): "
          + ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                      for k, v in untraced["result"]["metrics"].items()))
    spans = sum(m["value"] for name, m in layers.items() if name.endswith(".calls"))
    print(f"  tracing overhead: {t['wall_s']:.3f} s traced - {u['wall_s']:.3f} s untraced "
          f"= {overhead:+.3f} s ({100 * overhead / u['wall_s']:+.1f}%) over {spans:.0f} layer spans")
    print(f"  traced outputs identical to untraced: {'yes' if identical else 'NO'}")
    if t["absent_layers"]:
        print(f"  absent layers: {', '.join(t['absent_layers'])}")
    print(f"  {'layer (traced run)':<34} {'calls':>7} {'self_s':>10} {'p50_ms':>10}  counters")
    spanned = 0.0
    for layer, calls, self_s, p50, counters in layer_rows(layers):
        spanned += self_s
        extra = ", ".join(f"{k}={v:.6g}" for k, v in counters.items())
        print(f"  {layer:<34} {calls:>7.0f} {self_s:>10.4f} {p50:>10.3f}  {extra}")
    check = layers["bench.check.self_s"]["value"]
    other = layers["trace.other_s"]["value"]
    wall = layers["trace.wall_s"]["value"]
    print(f"  layer self times {spanned:.3f} s + bench.check {check:.3f} s + untraced {other:.3f} s "
          f"= {spanned + check + other:.3f} s; traced wall {wall:.3f} s")
    return {"untraced": untraced, "traced": traced, "tracing_overhead_s": overhead,
            "traced_outputs_identical": identical}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--shapes", choices=("isolet", "tiny"), default="isolet")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    record = {"seed": args.seed, "seconds": args.seconds, "shapes": args.shapes, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        try:
            untraced = run_once(workload, args.seed, args.seconds, args.shapes, 0)
            traced = run_once(workload, args.seed, args.seconds, args.shapes, 1)
        except RuntimeError as exc:
            print(f"\n== {workload}: run failed\n{exc}")
            ok = False
            continue
        record["env"] = untraced["detail"]["env"]
        entry = report(workload, untraced, traced)
        ok = ok and entry["traced_outputs_identical"]
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
