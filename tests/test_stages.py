"""tools/stages.py on a tiny sweep."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINE = re.compile(r"^( *)(\w+) ([<>]) maxrss (\d+\.\d) MB, rss (\d+\.\d) MB$")


def test_a_tiny_sweep_prints_each_stage_of_run_experiment_in_order():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "stages.py"), "--workload", "sweep",
                           "--seed", "3", "--seconds", "1", "--shapes", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    events = [LINE.match(line) for line in lines]
    assert all(events), [line for line, m in zip(lines, events) if not m]
    assert re.fullmatch(r"peak_rss_mb \d+\.\d, first seen at \w+ [<>]; ops_failed 0", last), last
    highs = [float(m[4]) for m in events]
    assert highs == sorted(highs)  # a high-water mark
    start = next(i for i, m in enumerate(events) if m[2] == "run_experiment")
    depth = len(events[start][1])
    # run_experiment's direct calls, entered in this order (repeats of one stage counted once)
    entered = [m[2] for m in events[start + 1:] if len(m[1]) == depth + 2 and m[3] == ">"]
    stages = [name for i, name in enumerate(entered) if i == 0 or entered[i - 1] != name]
    assert stages == ["prepare_data", "fit_standardizer", "encode_splits", *["fit_model", "save_classifier"] * 4,
                      "quantize_model", *["quantize_array", "quantize_model"] * 2, "robustness_sweep"]
    assert entered.count("fit_model") == 4 and entered.count("quantize_array") == 2  # bf16 and fp8 copies
    end = next(i for i in range(start + 1, len(events)) if events[i][2] == "run_experiment")
    assert events[end][3] == "<" and len(events[end][1]) == depth
    inside = [m[2] for m in events[start:end] if len(m[1]) > depth]
    assert {"encode_batch", "generate_matrix", "train", "evaluate"} <= set(inside)
