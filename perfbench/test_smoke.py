"""Smoke test of the benchmark at tiny shapes (C=4, F=16, D=256).

Runs each workload through ``run.py`` untraced and traced, and checks
the output contract: every metric ``BENCHMARK.json`` names is emitted
with its unit, every workload's own metrics are emitted with theirs,
and tracing leaves the outputs unchanged.  Also checks that a wrong
prediction is counted as a failed op and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

OWN_UNITS = {
    "train": {"setup_s": "s", "epoch_s": "s", "final_loss": "nats", "peak_rss_mb": "MB"},
    "serve": {"setup_s": "s", "predict_p50_ms": "ms", "predict_p99_ms": "ms",
              "lowmem_p50_ms": "ms", "batch_rows_per_s": "rows/s", "peak_rss_mb": "MB"},
    "sweep": {"setup_s": "s", "sweep_s": "s", "sweep_accuracy": "fraction", "peak_rss_mb": "MB"},
}


def run_bench(run_py: str, workload: str, trace: int, cwd) -> subprocess.CompletedProcess:
    cmd = [sys.executable, run_py, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--shapes", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("workload", sorted(OWN_UNITS))
def test_every_metric_emitted_with_unit(workload, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    details = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(os.path.join(HERE, "run.py"), workload, trace, tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert lines[-2].startswith("detail ")
        details.append(json.loads(lines[-2][len("detail "):]))

    untraced, traced = details
    assert {name: m["unit"] for name, m in untraced["own"].items()} == OWN_UNITS[workload]
    for name in list(OWN_UNITS[workload]) + ["ops_attempted", "ops_failed"]:
        assert any(line.split()[:1] == [name] for line in proc.stdout.splitlines())
    assert untraced["digest"] == traced["digest"]
    assert untraced["ops_failed"] == traced["ops_failed"]
    # The only op allowed to fail is the container round trip.
    round_trips = sum("container round trip" in note for note in untraced["notes"])
    assert untraced["ops_failed"] == round_trips
    assert not os.listdir(tmp_path)  # temporary outputs are removed


def test_wrong_prediction_counts_as_failed_op():
    from decohd.encoding import EncoderConfig, RandomProjectionEncoder, fit_standardizer
    from decohd.data import make_synthetic
    from decohd.model import DecoHDClassifier, ModelConfig, ModelParams
    from perfbench.oracle import ServeOracle
    from perfbench.workloads import Checks, check_requests

    train_ds, test_ds = make_synthetic(4, 16, 30, 3.0, seed=5)
    fitted = fit_standardizer(train_ds.features)
    rng = np.random.default_rng(0)
    latents = [rng.standard_normal((2, 64)).astype(np.float32) for _ in range(3)]
    head = rng.standard_normal((4, 8)).astype(np.float32)
    enc_cfg = EncoderConfig(16, 256, seed=1)
    model_cfg = ModelConfig((2, 2, 2), 64, 256, 4, seed=2)
    clf = DecoHDClassifier(RandomProjectionEncoder(enc_cfg), fitted, model_cfg,
                           ModelParams(latents=latents, head=head))
    rows = test_ds.features
    predicted = clf.predict_batch(rows)
    scores, tol = ServeOracle(enc_cfg, model_cfg, fitted.mean, fitted.std, latents, head).scores(rows)

    checks = Checks()
    check_requests(checks, "predict", predicted, scores, tol)
    assert (checks.attempted, checks.failed, checks.correct) == (len(rows), 0, True)

    tampered = predicted.copy()
    tampered[7] = int(np.argmin(scores[7]))  # the oracle's worst class
    checks = Checks()
    check_requests(checks, "predict", tampered, scores, tol)
    assert (checks.attempted, checks.failed, checks.correct) == (len(rows), 1, False)


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path / "perfbench" / "run.py"), "serve", 0, tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
