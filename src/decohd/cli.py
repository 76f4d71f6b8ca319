"""Command-line surface.

Subcommands: train, eval, sweep, robustness, budget, synth.  ``eval``
scores every model kind with its deployed scorer's batched forward, the
one ``train`` and ``sweep`` report, so all three print the same accuracy
for one model and test set; a test label the model has no class for is
a data error.  ``robustness`` compares only models that encode alike,
equal encoder config and standardizer, that have one class count and
that its rows can tell apart by file stem.  Relative dataset paths
resolve against $DECOHD_DATA_DIR.  Exit codes: 0 success, 1 config
error, 2 data error: a malformed CSV or an unusable model container
(argparse also exits 2 on a malformed command line), 3 training
divergence.  Any other exception is a bug and propagates with its
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from .budget import BudgetQuery, budget_of, enumerate_configs, trainable_param_savings
from .data import ParseError, load_csv, make_synthetic, save_csv
from .encoding import fit_standardizer
from .experiment import (
    ConfigError,
    DataSpec,
    ExperimentConfig,
    ModelSpec,
    check_width,
    encode_splits,
    fit_model,
    load_config,
    prepare_data,
    run_experiment,
    write_csv,
)
from .faults import ROBUSTNESS_COLUMNS, robustness_sweep
from .model import accuracy
from .precision import PRESETS, get_format, quantize_array, quantize_model
from .serialize import load_classifier, save_classifier
from .training import EpochStats, TrainingDiverged


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _probability_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x]
    except ValueError:
        values = None
    if values is None or not all(0.0 <= p <= 1.0 for p in values):
        raise argparse.ArgumentTypeError(f"expected comma-separated probabilities in [0, 1], got {text!r}")
    return values


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


@contextlib.contextmanager
def _rejected_as_config_error(what: str):
    """The ValueError with which a constructor rejects command-line
    values is a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _encode_test_set(clf, path: str):
    """The test CSV at *path*, read against *clf*'s width and classes, and its encodings."""
    test_ds = load_csv(path, split="test", num_classes=clf.scorer.num_classes)
    check_width(test_ds, clf.encoder.config.num_features, path)
    return test_ds, clf.encoder.encode_batch(test_ds.features, clf.standardizer)


def cmd_train(args) -> int:
    config = ExperimentConfig(
        name=args.name,
        root_seed=args.seed,
        data=DataSpec(name=os.path.splitext(os.path.basename(args.train_csv))[0],
                      train_csv=args.train_csv, test_csv=args.test_csv),
        models=(
            ModelSpec(
                kind=args.model,
                channels=tuple(args.channels),
                latent_dim=args.latent_dim,
                epochs=args.refine_epochs,
                budget=args.sparse_budget,
            ),
        ),
        train=dict(  # validated by ExperimentConfig, which raises ConfigError
            learning_rate=args.learning_rate,
            weight_decay=args.weight_decay,
            epochs=args.epochs,
            batch_size=args.batch_size,
            microbatch_size=args.microbatch_size,
        ),
        dims=(args.dim,),
        encoder_kind=args.encoder,
    )
    train_ds, test_ds = prepare_data(config.data, config.root_seed)
    standardizer = fit_standardizer(train_ds.features)
    encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, args.dim)
    clf, history = fit_model(
        config.models[0], args.model, config, encoder, standardizer,
        h_train, train_ds.labels, h_test, test_ds.labels, train_ds.num_classes,
    )
    save_classifier(args.output, clf)
    if history:
        hist_path = os.path.splitext(args.output)[0] + "_history.csv"
        write_csv(hist_path, [f.name for f in fields(EpochStats)], [astuple(h) for h in history])
        print(f"history written to {hist_path}")
    scorer = clf.scorer
    acc = accuracy(scorer, h_test, test_ds.labels)
    print(f"model={args.model} D={args.dim} m_budget={budget_of(scorer):.4f} test_accuracy={acc:.4f}")
    print(f"saved {args.output}")
    return 0


def cmd_eval(args) -> int:
    clf = load_classifier(args.model)
    test_ds, h = _encode_test_set(clf, args.test_csv)
    scorer = clf.scorer
    if args.precision != "fp32":
        fmt = get_format(args.precision)
        scorer = quantize_model(scorer, fmt)
        h = quantize_array(h, fmt)
    acc = accuracy(scorer, h, test_ds.labels)
    print(f"model={clf.kind} n={test_ds.num_samples} precision={args.precision} accuracy={acc:.4f}")
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, output_dir=args.output_dir)
    print(f"results written to {result.results_csv}")
    print(f"manifest written to {result.manifest_path}")
    return 0


def _comparable(a, b) -> bool:
    """Whether classifiers *a* and *b* encode every input alike into one class count."""
    return (
        a.encoder.config == b.encoder.config
        and np.array_equal(a.standardizer.mean, b.standardizer.mean)
        and np.array_equal(a.standardizer.std, b.standardizer.std)
        and a.scorer.num_classes == b.scorer.num_classes
    )


def cmd_robustness(args) -> int:
    scorers, paths, first = {}, {}, None
    for path in args.models:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in paths:  # rows name a model by its file stem
            raise ConfigError(f"{paths[stem]} and {path}: robustness models need distinct file stems")
        paths[stem] = path
        clf = load_classifier(path)
        if first is None:
            first = clf
        elif not _comparable(clf, first):
            raise ConfigError(
                f"{path}: robustness comparisons require models sharing one encoder, "
                "standardizer and class count"
            )
        scorers[stem] = clf.scorer
    test_ds, h = _encode_test_set(first, args.test_csv)
    rows = robustness_sweep(scorers, h, test_ds.labels, args.p_grid, args.trials, args.seed)
    write_csv(args.output, ROBUSTNESS_COLUMNS, rows)
    print(f"robustness curves written to {args.output}")
    return 0


def cmd_budget(args) -> int:
    with _rejected_as_config_error("budget"):
        query = BudgetQuery(
            m_target=args.m,
            num_classes=args.classes,
            dim=args.dim,
            max_channels=args.max_channels,
            layer_counts=tuple(args.layers),
            latent_dims=tuple(args.d),
        )
    reports = enumerate_configs(query)
    header = ["layers", "channels", "latent_dim", "num_paths", "footprint", "trainable_params", "savings"]
    rows = []
    for r in reports:
        rows.append([
            r.num_layers,
            "x".join(str(c) for c in r.channels_per_layer),
            r.latent_dim,
            r.num_paths,
            r.footprint,
            r.trainable_params,
            trainable_param_savings(r.channels_per_layer, r.latent_dim, args.classes, args.dim),
        ])
    print(f"{len(rows)} configurations with footprint <= {args.m} (C={args.classes}, D={args.dim})")
    print(" ".join(f"{h:>16}" for h in header))
    for row in rows[: args.top]:
        print(" ".join(f"{v:>16.6g}" if isinstance(v, float) else f"{v!s:>16}" for v in row))
    if args.output:
        write_csv(args.output, header, rows)
        print(f"full table written to {args.output}")
    return 0


def cmd_synth(args) -> int:
    with _rejected_as_config_error("synth"):
        train_ds, test_ds = make_synthetic(
            args.classes, args.features, args.per_class, args.separation, seed=args.seed
        )
    save_csv(args.train_out, train_ds)
    save_csv(args.test_out, test_ds)
    print(f"wrote {train_ds.num_samples} train rows to {args.train_out}")
    print(f"wrote {test_ds.num_samples} test rows to {args.test_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="decohd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model and save its container")
    p.add_argument("--train-csv", required=True)
    p.add_argument("--test-csv", required=True)
    p.add_argument("--model", default="decohd", choices=["decohd", "prototype", "onlinehd", "sparsehd"])
    p.add_argument("--output", required=True, help="model container path (.npz)")
    p.add_argument("--name", default="run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=10000)
    p.add_argument("--encoder", default="gaussian", choices=["gaussian", "ternary"])
    p.add_argument("--channels", type=_int_list, default="10", help="per-layer channel counts, e.g. 3,3")
    p.add_argument("--latent-dim", type=int, default=4096)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=1024)
    p.add_argument("--microbatch-size", type=int, default=128)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=5e-5)
    p.add_argument("--refine-epochs", type=int, default=200)
    p.add_argument("--sparse-budget", type=float, default=0.5)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "eval", help="evaluate a saved model on a test CSV",
        description="Score every test row with the model's batched forward, the one train and "
                    "sweep report, and print the accuracy.  Under --precision other than fp32 "
                    "the stored arrays and the encodings are rounded to that format first.",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--test-csv", required=True)
    p.add_argument("--precision", default="fp32", choices=sorted(PRESETS))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a full experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("robustness", help="bit-flip robustness curves for saved models")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--test-csv", required=True)
    p.add_argument("--p-grid", type=_probability_list, default="0,1e-7,1e-6,1e-5,1e-4,1e-3")
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="robustness.csv")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("budget", help="enumerate configurations under a memory budget")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--d", type=_int_list, default="4096", help="latent-dim options, e.g. 256,1024,4096")
    p.add_argument("--layers", type=_int_list, default="1,2,3")
    p.add_argument("--max-channels", type=int, default=5)
    p.add_argument("--top", type=int, default=20, help="rows printed to stdout")
    p.add_argument("--output", default=None, help="optional CSV path")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("synth", help="generate a synthetic blob dataset")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--features", type=int, default=16)
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--separation", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", default="synthetic_train.csv")
    p.add_argument("--test-out", default="synthetic_test.csv")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
