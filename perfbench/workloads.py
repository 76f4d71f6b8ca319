"""The benchmark's three workloads and their output checks.

Each workload runs in its own process from a workload seed and returns
an ``Outcome``: the end-to-end metrics every workload reports under the
same names (``E2E_UNITS``), the workload's own metrics under their
descriptive names (``Outcome.own``), the op counts and a digest of the
outputs, which a traced and an untraced run must share.

* ``train``: ``training.train`` on an ISOLET-shaped synthetic set; the
  training-step layers do the work, encoding runs once in set-up.
* ``serve``: one closed-loop client against a ``DecoHDClassifier`` whose
  latents and head come from the seed: cold starts, single-row
  ``predict``, low-memory ``score_only`` requests, 1024-row
  ``predict_batch`` and a container round trip.
* ``sweep``: ``experiment.run_experiment`` over four models, three
  precisions and a bit-flip grid; precision, faults, baselines and
  orchestration do the work.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

# Layer functions are called through their modules, so that a traced
# run's wrappers see the calls.
from decohd import serialize, training
from decohd.data import make_synthetic
from decohd.encoding import EncoderConfig, RandomProjectionEncoder, Standardizer, fit_standardizer
from decohd.experiment import ExperimentConfig, build_encoder, prepare_data, run_experiment
from decohd.inference import DecomposedScorer, choose_mode
from decohd.model import DecoHDClassifier, ModelConfig, ModelParams
from decohd.training import TrainConfig

from .oracle import ServeOracle, derive_seed, mismatches
from .tracer import CHECK_SPAN

WORKLOADS = ("train", "serve", "sweep")

# Metrics every workload reports; see README.md for each workload's op.
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "rows_per_s": "rows/s",
    "error_rate": "fraction",
    "peak_rss_mb": "MB",
}

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Shapes:
    num_classes: int = 26
    num_features: int = 617
    dim: int = 10000
    latent_dim: int = 4096
    channels: tuple[int, ...] = (4, 4, 4)
    separation: float = 3.0
    train_per_class: int = 240
    serve_per_class: int = 240
    sweep_per_class: int = 40
    batch_rows: int = 1024
    microbatch_rows: int = 128
    learning_rate: float = 0.05

    @property
    def num_paths(self) -> int:
        return math.prod(self.channels)


SHAPES = {
    "isolet": Shapes(),
    # Smoke-test scale; same code paths, about a second per workload.
    "tiny": Shapes(num_classes=4, num_features=16, dim=256, latent_dim=64, channels=(2, 2, 2),
                   train_per_class=60, serve_per_class=60, sweep_per_class=20),
}


@dataclass
class Checks:
    """Op accounting.  An op fails when it raises or its output is wrong;
    ``wrong`` counts only the latter, so ``correct`` means every output
    the program produced passed its check."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, note: str = "", wrong: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            if note and len(self.notes) < 20:
                self.notes.append(note)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


@dataclass
class Outcome:
    metrics: dict[str, float]
    own: dict[str, tuple[float, str]]
    checks: Checks
    digest: str
    wall_s: float = 0.0
    info: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def safe_argmax(scores: np.ndarray) -> int:
    """NaN ranks below every score; ties go to the lowest class."""
    return int(np.argmax(np.where(np.isnan(scores), -np.inf, scores)))


# ---------------------------------------------------------------------------
# train


def run_train(seed: int, seconds: int, shapes: Shapes, tracer) -> Outcome:
    epochs = max(5, seconds // 2)
    model_cfg = ModelConfig(shapes.channels, shapes.latent_dim, shapes.dim, shapes.num_classes,
                            seed=derive_seed(seed, "model"))
    train_cfg = TrainConfig(learning_rate=shapes.learning_rate, epochs=epochs,
                            batch_size=shapes.batch_rows, microbatch_size=shapes.microbatch_rows,
                            eval_every=1)
    setups = []
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        start = time.perf_counter()
        train_ds, test_ds = make_synthetic(shapes.num_classes, shapes.num_features,
                                           shapes.train_per_class, shapes.separation,
                                           seed=derive_seed(seed, "data"))
        standardizer = fit_standardizer(train_ds.features)
        encoder = RandomProjectionEncoder(
            EncoderConfig(shapes.num_features, shapes.dim, seed=derive_seed(seed, "encoder")))
        h_train = encoder.encode_batch(train_ds.features, standardizer)
        h_test = encoder.encode_batch(test_ds.features, standardizer)
        # epochs=0 returns right where epoch 0 would start.
        result = training.train(model_cfg, train_cfg if last else replace(train_cfg, epochs=0),
                                h_train, train_ds.labels, h_test, test_ds.labels)
        returned = time.perf_counter()
        loop_start = returned - (result.history[-1].wall_seconds if result.history else 0.0)
        setups.append(loop_start - start)
        if not last:
            del h_train, h_test, result

    history = result.history
    checks = Checks()
    with tracer.span(CHECK_SPAN):
        for h in history:
            ok, note = math.isfinite(h.mean_loss), f"epoch {h.epoch}: loss {h.mean_loss}"
            if ok and h is history[-1] and not h.mean_loss < history[0].mean_loss:
                ok, note = False, f"final loss {h.mean_loss} not below epoch 0 loss {history[0].mean_loss}"
            checks.op(ok, note)
        params = hashlib.sha256(b"".join(a.tobytes() for a in result.params.latents)
                                + result.params.head.tobytes()).hexdigest()

    walls = [h.wall_seconds for h in history]
    durations = np.diff([0.0] + walls)
    epoch_s = float(np.median(durations))
    final_loss = history[-1].mean_loss
    rows = len(train_ds.labels)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": epoch_s * 1e3,
        "rows_per_s": rows * len(history) / walls[-1],
        "error_rate": 1.0 - history[-1].train_accuracy,
        "peak_rss_mb": peak_rss_mb(),
    }
    own = {
        "setup_s": (metrics["setup_s"], "s"),
        "epoch_s": (epoch_s, "s"),
        "final_loss": (final_loss, "nats"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
    }
    trajectory = [[h.mean_loss, h.train_accuracy, h.test_accuracy] for h in history]
    return Outcome(metrics, own, checks, digest([trajectory, params]),
                   info={"epochs": epochs, "setup_samples_s": setups, "epoch_samples_s": list(durations),
                         "train_rows": rows, "test_rows": len(test_ds.labels), "loss": trajectory})


# ---------------------------------------------------------------------------
# serve


def check_requests(checks: Checks, kind: str, predicted, scores, tol, per_request: int = 1) -> int:
    """Record one op per request of *per_request* rows against the
    oracle; returns the rows that differ from the oracle within tolerance."""
    wrong, tolerated = mismatches(predicted, scores, tol)
    for i, bad in enumerate(wrong.reshape(-1, per_request).any(axis=1)):
        checks.op(not bad, f"{kind} request {i}: prediction disagrees with the float64 oracle")
    return tolerated


def run_serve(seed: int, seconds: int, shapes: Shapes, tracer) -> Outcome:
    n_predict = max(1000, 100 * seconds)
    n_lowmem = max(100, 10 * seconds)
    n_batches = max(10, seconds)
    c, d, b = shapes.num_classes, shapes.dim, shapes.batch_rows

    train_ds, test_ds = make_synthetic(c, shapes.num_features, shapes.serve_per_class,
                                       shapes.separation, seed=derive_seed(seed, "data"))
    fitted = fit_standardizer(train_ds.features)
    rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "params")))
    latents = [rng.standard_normal((n, shapes.latent_dim)).astype(np.float32) for n in shapes.channels]
    head = rng.standard_normal((c, shapes.num_paths)).astype(np.float32)
    enc_cfg = EncoderConfig(shapes.num_features, d, seed=derive_seed(seed, "encoder"))
    model_cfg = ModelConfig(shapes.channels, shapes.latent_dim, d, c, seed=derive_seed(seed, "model"))
    rows = test_ds.features
    n = len(rows)

    # Cold start: stored arrays and configs to the first prediction.
    setups, firsts = [], []
    for _ in range(SETUP_REPEATS):
        clf = None  # release the previous classifier's channel bank first
        start = time.perf_counter()
        clf = DecoHDClassifier(encoder=RandomProjectionEncoder(enc_cfg),
                               standardizer=Standardizer(fitted.mean, fitted.std),
                               config=model_cfg, params=ModelParams(latents=latents, head=head))
        firsts.append(clf.predict(rows[0]))
        setups.append(time.perf_counter() - start)

    single_rows = np.arange(n_predict) % n
    single = np.empty(n_predict, dtype=np.int64)
    single_ns = np.empty(n_predict)
    for i, r in enumerate(single_rows):
        t = time.perf_counter_ns()
        single[i] = clf.predict(rows[r])
        single_ns[i] = time.perf_counter_ns() - t

    cap = (d + c) * 4  # fits C scores and one working hypervector, not a C x D table
    low_rows = (n_predict + np.arange(n_lowmem)) % n
    low = np.empty(n_lowmem, dtype=np.int64)
    low_ns = np.empty(n_lowmem)
    modes = set()
    for i, r in enumerate(low_rows):
        t = time.perf_counter_ns()
        h = clf.encoder.encode(rows[r], clf.standardizer)
        mode = choose_mode(c, d, cap)
        scores = DecomposedScorer(clf.channel_bank(), clf.head()).scores(h, mode=mode)
        low[i] = safe_argmax(scores)
        low_ns[i] = time.perf_counter_ns() - t
        modes.add(mode)

    batch_rows = (np.arange(n_batches * b) % n).reshape(n_batches, b)
    batch = np.empty((n_batches, b), dtype=np.int64)
    batch_s = np.empty(n_batches)
    for i, idx in enumerate(batch_rows):
        t = time.perf_counter()
        batch[i] = clf.predict_batch(rows[idx])
        batch_s[i] = time.perf_counter() - t

    checks = Checks()
    round_trip = _round_trip(clf, rows, batch_rows[0][:64], batch[0][:64], checks)

    with tracer.span(CHECK_SPAN):
        oracle = ServeOracle(enc_cfg, model_cfg, fitted.mean, fitted.std, latents, head)
        scores, tol = oracle.scores(rows)
        del oracle
        tolerated = check_requests(checks, "cold-start", firsts, scores[[0] * len(firsts)],
                                   tol[[0] * len(firsts)])
        tolerated += check_requests(checks, "predict", single, scores[single_rows], tol[single_rows])
        tolerated += check_requests(checks, "low-memory", low, scores[low_rows], tol[low_rows])
        flat = batch_rows.reshape(-1)
        tolerated += check_requests(checks, "batch", batch.reshape(-1), scores[flat], tol[flat],
                                    per_request=b)
        accuracy = float((single == test_ds.labels[single_rows]).mean())

    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": float(np.median(single_ns)) / 1e6,
        "rows_per_s": b / float(np.median(batch_s)),
        "error_rate": 1.0 - accuracy,
        "peak_rss_mb": peak_rss_mb(),
    }
    own = {
        "setup_s": (metrics["setup_s"], "s"),
        "predict_p50_ms": (metrics["op_p50_ms"], "ms"),
        "predict_p99_ms": (float(np.percentile(single_ns, 99)) / 1e6, "ms"),
        "lowmem_p50_ms": (float(np.median(low_ns)) / 1e6, "ms"),
        "batch_rows_per_s": (metrics["rows_per_s"], "rows/s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
    }
    outputs = [firsts, single.tolist(), low.tolist(), batch.tolist(), round_trip]
    return Outcome(metrics, own, checks, digest(outputs),
                   info={"predict_requests": n_predict, "lowmem_requests": n_lowmem,
                         "batches": n_batches, "lowmem_modes": sorted(modes),
                         "setup_samples_s": setups, "tolerated_mismatches": tolerated,
                         "round_trip": round_trip})


def _round_trip(clf, rows, idx, expected, checks: Checks) -> str:
    """save_classifier, load_classifier, then the loaded model must
    predict exactly what the served one did."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as tmp:
        path = os.path.join(tmp, "served.npz")
        try:
            serialize.save_classifier(path, clf)
            again = serialize.load_classifier(path).predict_batch(rows[idx])
        except Exception as exc:  # a failing container is a measured outcome, not a crash
            outcome = f"raised {type(exc).__name__}: {exc}"
            checks.op(False, f"container round trip {outcome}", wrong=False)
            return outcome
    same = np.array_equal(again, expected)
    checks.op(same, "container round trip: loaded model predicts differently")
    return "equal" if same else "differs"


# ---------------------------------------------------------------------------
# sweep

SWEEP_PRECISIONS = ("fp32", "bf16", "fp8_e4m3fn")
SWEEP_P_GRID = (0.0, 1e-5, 1e-4, 1e-3)
SWEEP_TRIALS = 3


def sweep_config(seed: int, shapes: Shapes) -> ExperimentConfig:
    return ExperimentConfig(
        name="perfbench-sweep",
        root_seed=seed,
        data={"synthetic": {"num_classes": shapes.num_classes, "num_features": shapes.num_features,
                            "samples_per_class": shapes.sweep_per_class,
                            "separation": shapes.separation}},
        models=(
            {"kind": "decohd", "channels": list(shapes.channels), "latent_dim": shapes.latent_dim},
            {"kind": "prototype"},
            {"kind": "onlinehd", "epochs": 1},
            # A prototype-based sparsehd still runs (and discards) spec.epochs
            # refinement passes; one pass keeps that waste visible but small.
            {"kind": "sparsehd", "base": "prototype", "budget": 0.5, "epochs": 1},
        ),
        train={"epochs": 1, "learning_rate": shapes.learning_rate,
               "batch_size": shapes.batch_rows, "microbatch_size": shapes.microbatch_rows},
        dims=(shapes.dim,),
        precisions=SWEEP_PRECISIONS,
        noise={"p_grid": list(SWEEP_P_GRID), "trials": SWEEP_TRIALS},
    )


def _read_csv(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _accuracy_ok(text) -> bool:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return False
    return 0.0 <= value <= 1.0


def check_sweep(out: str, labels: list[str], dim: int, epochs: int, checks: Checks) -> dict:
    """One op per expected output row.  Returns the parsed files."""
    files = {name: _read_csv(os.path.join(out, f"{name}.csv"))
             for name in ("results", "precision", "robustness", "history")}
    manifest_failed = os.path.exists(os.path.join(out, "failure_manifest.json"))
    if manifest_failed:
        with open(os.path.join(out, "failure_manifest.json"), encoding="utf-8") as fh:
            checks.notes.append(f"failure_manifest.json: {fh.read().strip()}")

    results = {(r["model"], r["precision"], r["D"]): r["accuracy"] for r in files["results"]}
    precision = {(r["model_kind"], r["format_name"], r["D"]): r["test_accuracy"]
                 for r in files["precision"]}
    robustness = {(r["model_kind"], float(r["p_flip"]), int(r["trial"])): r["test_accuracy"]
                  for r in files["robustness"]}
    history = {(r["model"], int(r["epoch"])): r["mean_loss"] for r in files["history"]}

    def row(ok, what):
        checks.op(ok and not manifest_failed, f"sweep row {what}: missing or invalid")

    for label in labels:
        for p in SWEEP_PRECISIONS:
            key = (label, p, str(dim))
            row(_accuracy_ok(results.get(key)), f"results {key}")
            row(_accuracy_ok(precision.get(key)) and precision.get(key) == results.get(key),
                f"precision {key}")
        fp32 = results.get((label, "fp32", str(dim)))
        for p in SWEEP_P_GRID:
            for trial in range(SWEEP_TRIALS):
                key = (label, p, trial)
                acc = robustness.get(key)
                # p=0 flips no bit, so it must reproduce the fp32 accuracy exactly.
                row(_accuracy_ok(acc) and (p != 0.0 or float(acc) == float(fp32)),
                    f"robustness {key}")
    decohd = labels[0]  # the only model with a training history
    for epoch in range(epochs):
        loss = history.get((decohd, epoch))
        row(loss is not None and math.isfinite(float(loss)), f"history {(decohd, epoch)}")
    return files


def run_sweep(seed: int, seconds: int, shapes: Shapes, tracer) -> Outcome:
    config = sweep_config(seed, shapes)
    labels = config.model_labels()
    # Set-up: the data and encoding stage run_experiment starts with.
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        train_ds, test_ds = prepare_data(config.data, config.root_seed)
        standardizer = fit_standardizer(train_ds.features)
        encoder = build_encoder(config, train_ds.num_features, shapes.dim)
        encoder.encode_batch(train_ds.features, standardizer)
        encoder.encode_batch(test_ds.features, standardizer)
        setups.append(time.perf_counter() - start)

    checks = Checks()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as out:
        start = time.perf_counter()
        try:
            run_experiment(config, out)
        except Exception as exc:  # recorded; the row checks below then fail
            checks.notes.append(f"run_experiment raised {type(exc).__name__}: {exc}")
        sweep_s = time.perf_counter() - start
        with tracer.span(CHECK_SPAN):
            files = check_sweep(out, labels, shapes.dim, config.train.epochs, checks)

    accuracies = [float(r["accuracy"]) for r in files["results"]]
    accuracies += [float(r["test_accuracy"]) for r in files["robustness"]]
    sweep_accuracy = statistics.fmean(accuracies) if accuracies else 0.0
    evaluations = len(labels) * (len(SWEEP_PRECISIONS) + len(SWEEP_P_GRID) * SWEEP_TRIALS)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": sweep_s * 1e3,
        "rows_per_s": evaluations * len(test_ds.labels) / sweep_s,
        "error_rate": 1.0 - sweep_accuracy,
        "peak_rss_mb": peak_rss_mb(),
    }
    own = {
        "setup_s": (metrics["setup_s"], "s"),
        "sweep_s": (sweep_s, "s"),
        "sweep_accuracy": (sweep_accuracy, "fraction"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
    }
    outputs = {name: [{k: v for k, v in r.items() if k != "wall_seconds"} for r in rows]
               for name, rows in files.items()}
    return Outcome(metrics, own, checks, digest(outputs),
                   info={"setup_samples_s": setups, "evaluations": evaluations,
                         "test_rows": len(test_ds.labels), "train_rows": len(train_ds.labels)})


RUNNERS = {"train": run_train, "serve": run_serve, "sweep": run_sweep}


def run(workload: str, seed: int, seconds: int, shapes: Shapes, tracer) -> Outcome:
    start = time.perf_counter()
    outcome = RUNNERS[workload](seed, seconds, shapes, tracer)
    outcome.wall_s = time.perf_counter() - start
    return outcome


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("+dirty-src" if dirty.strip() else "")


def environment(root: str, seed: int, shapes_name: str, threads: int) -> dict:
    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "commit": _commit(root),
        "seed": seed,
        "shapes_name": shapes_name,
        "shapes": asdict(SHAPES[shapes_name]),
        "argv": sys.argv[1:],
    }
