"""Command-line surface.

Subcommands: train, eval, sweep, robustness, budget, synth.  ``eval``
scores every model kind with its deployed scorer's batched forward, the
one ``train`` and ``sweep`` report, rounded to ``--precision`` as the
sweep rounds, so all three print the same accuracy for one model and
test set; a test label the model has no class for is a data error.
``BudgetQuery``, ``SyntheticSpec`` and ``ExperimentConfig`` refuse
option values through :func:`~decohd.experiment.build_spec`, as config
errors; ``NoiseConfig`` refuses a ``--p-grid`` or ``--trials`` as the
command line is parsed.  ``robustness`` scores each model against its
own encodings of the test CSV, read as ``eval`` reads it, so models of
other encoders, standardizers or D compare in one table; rows name a
model by its distinct file stem and carry its D, and it loads, encodes
and sweeps one model at a time, in stem order.  ``budget`` prints one row per
``ModelConfig`` that ``enumerate_configs`` plans, with that config's
footprint and trainable parameters, for C >= 2 classes as any model
has.  ``synth`` refuses one path for both splits.  An output path that is
empty, a directory, or in a directory that does not exist, is refused as
the command line is parsed, and so is ``train``'s ``<stem>_history.csv``
beside its ``--output``.  A ``sweep`` config is UTF-8 JSON, a BOM first
allowed; one that is not UTF-8 or repeats a key within an object, and an
output directory that is empty, cannot be created or holds a directory at
an output file's name, exit 1 as config errors.
Exit codes: 0 success, 1 config error, 2 data error: a malformed CSV or
an unusable model container (argparse also exits 2 on a malformed
command line), 3 training divergence.  Any other exception is a bug and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, astuple, fields

from .baselines import MODEL_KINDS
from .budget import BudgetQuery, budget_of, enumerate_configs
from .data import ParseError, SyntheticSpec, load_csv, make_synthetic, save_csv
from .encoding import fit_standardizer
from .experiment import (
    ConfigError,
    DataSpec,
    ExperimentConfig,
    ModelSpec,
    build_spec,
    encode_splits,
    fit_model,
    load_config,
    prepare_data,
    run_experiment,
    write_csv,
)
from .faults import ROBUSTNESS_COLUMNS, NoiseConfig, robustness_sweep
from .model import accuracy
from .precision import PRESETS, get_format, quantize_array, quantize_model
from .serialize import load_classifier, save_classifier
from .training import EpochStats, TrainConfig, TrainingDiverged


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _probability_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x]
        NoiseConfig(p_grid=tuple(values))
    except ValueError:
        values = None
    if not values:
        raise argparse.ArgumentTypeError(f"expected distinct comma-separated probabilities in [0, 1], got {text!r}")
    return values


def _output_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file to write")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory, not a file to write")
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"no directory to write {text!r} into")
    return text


def _history_path(output: str) -> str:
    """The ``<stem>_history.csv`` that ``train`` writes beside its container."""
    return os.path.splitext(output)[0] + "_history.csv"


def _container_path(text: str) -> str:
    """An output path for a container, whose history path is one too."""
    _output_path(_history_path(_output_path(text)))
    return text


def _trial_count(text: str) -> int:
    try:
        if text.isdecimal():
            return NoiseConfig(trials=int(text)).trials
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _encode_test_set(clf, path: str):
    """The test CSV at *path*, read against *clf*'s width and classes, and
    its encodings; the encoder's matrix is released, as scoring never reads it."""
    test_ds = load_csv(path, num_classes=clf.scorer.num_classes, num_features=clf.encoder.config.num_features)
    h = clf.encoder.encode_batch(test_ds.features, clf.standardizer)
    del clf.encoder.matrix
    return test_ds, h


def cmd_train(args) -> int:
    config = ExperimentConfig(
        root_seed=args.seed,
        data=DataSpec(train_csv=args.train_csv, test_csv=args.test_csv),
        models=(  # dicts, built and checked by ExperimentConfig, which raises ConfigError
            dict(
                kind=args.model,
                channels=args.channels,
                latent_dim=args.latent_dim,
                epochs=args.refine_epochs,
                budget=args.sparse_budget,
            ),
        ),
        train=dict(
            learning_rate=args.learning_rate,
            weight_decay=args.weight_decay,
            epochs=args.epochs,
            batch_size=args.batch_size,
            microbatch_size=args.microbatch_size,
        ),
        dims=(args.dim,),
    )
    train_ds, test_ds = prepare_data(config.data, config.root_seed)
    standardizer = fit_standardizer(train_ds.features)
    encoder, h_train, h_test = encode_splits(config, standardizer, train_ds, test_ds, args.dim)
    clf, history = fit_model(
        config.models[0], args.model, config, encoder, standardizer,
        h_train, train_ds.labels, h_test, test_ds.labels, train_ds.num_classes,
    )
    save_classifier(args.output, clf)
    hist_path = _history_path(args.output)
    if history:
        write_csv(hist_path, [f.name for f in fields(EpochStats)], [astuple(h) for h in history])
        print(f"history written to {hist_path}")
    elif os.path.exists(hist_path):  # an earlier model's, trained to this path
        os.remove(hist_path)
    scorer = clf.scorer
    acc = accuracy(scorer, h_test, test_ds.labels)
    print(f"model={args.model} D={args.dim} m_budget={budget_of(scorer):.4f} test_accuracy={acc:.4f}")
    print(f"saved {args.output}")
    return 0


def cmd_eval(args) -> int:
    clf = load_classifier(args.model)
    test_ds, h = _encode_test_set(clf, args.test_csv)
    fmt = get_format(args.precision)
    q_h = quantize_array(h, fmt) if fmt.name != "fp32" else h  # as run_experiment rounds
    acc = accuracy(quantize_model(clf.scorer, fmt), q_h, test_ds.labels)
    print(f"model={clf.kind} n={test_ds.num_samples} precision={args.precision} accuracy={acc:.4f}")
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, output_dir=args.output_dir)
    print(f"results written to {result.results_csv}")
    print(f"manifest written to {result.manifest_path}")
    return 0


def cmd_robustness(args) -> int:
    paths = {}
    for path in args.models:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in paths:  # rows name a model by its file stem
            raise ConfigError(f"{paths[stem]} and {path}: robustness models need distinct file stems")
        paths[stem] = path
    rows = []
    for stem, path in sorted(paths.items()):  # one sorted sweep per model, in stem order
        clf = load_classifier(path)
        test_ds, h = _encode_test_set(clf, args.test_csv)
        rows += robustness_sweep({stem: clf.scorer}, h, test_ds.labels, args.p_grid, args.trials, args.seed)
        del clf, test_ds, h  # one model and its encodings alive at a time
    write_csv(args.output, ROBUSTNESS_COLUMNS, rows)
    print(f"robustness curves written to {args.output}")
    return 0


def cmd_budget(args) -> int:
    if args.top < 0:
        raise ConfigError("budget: top must be >= 0")
    query = build_spec(BudgetQuery, dict(m_target=args.m, num_classes=args.classes, dim=args.dim,
                                         max_channels=args.max_channels, layer_counts=args.layers,
                                         latent_dims=args.d), "budget")
    header = ["layers", "channels", "latent_dim", "num_paths", "footprint", "trainable_params", "savings"]
    rows = []
    for config in enumerate_configs(query):
        rows.append([
            config.num_layers,
            "x".join(str(c) for c in config.channels_per_layer),
            config.latent_dim,
            config.num_paths,
            config.footprint,
            config.trainable_params,
            1.0 - config.trainable_params / (config.num_classes * config.dim),
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
    if os.path.realpath(args.train_out) == os.path.realpath(args.test_out):  # the test split would overwrite
        raise ConfigError(f"{args.train_out} and {args.test_out}: synth needs distinct train and test paths")
    spec = build_spec(SyntheticSpec, dict(num_classes=args.classes, num_features=args.features,
                                          samples_per_class=args.per_class, separation=args.separation), "synth")
    train_ds, test_ds = make_synthetic(**asdict(spec), seed=args.seed)
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
    p.add_argument("--model", default="decohd", choices=MODEL_KINDS)
    p.add_argument("--output", type=_container_path, required=True, help="model container path (.npz)")
    p.add_argument("--seed", type=int, default=ExperimentConfig.root_seed)
    p.add_argument("--dim", type=int, default=ExperimentConfig.dims[0])
    # Not ModelSpec.channels: the two differ until ROADMAP Direction 21 settles decohd's default shape.
    p.add_argument("--channels", type=_int_list, default="10", help="per-layer channel counts, e.g. 3,3")
    p.add_argument("--latent-dim", type=int, default=ModelSpec.latent_dim)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--microbatch-size", type=int, default=TrainConfig.microbatch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--refine-epochs", type=int, default=ModelSpec.epochs)
    p.add_argument("--sparse-budget", type=float, default=ModelSpec.budget)
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

    p = sub.add_parser("sweep", help="run a full experiment config",
                       description="A rerun from the manifest is bit-exact in one environment, the same numpy/BLAS "
                                   "build and BLAS thread count; across thread counts, accuracies agree within a "
                                   "few test rows.")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("robustness", help="bit-flip robustness curves for saved models",
                       description="Flip the stored bits of each model and score it on its own encodings of the "
                                   "test CSV.  Rows name a model by its distinct file stem and carry its D.")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--test-csv", required=True)
    p.add_argument("--p-grid", type=_probability_list, default="0,1e-7,1e-6,1e-5,1e-4,1e-3")
    p.add_argument("--trials", type=_trial_count, default=NoiseConfig.trials)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=_output_path, default="robustness.csv")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("budget", help="enumerate configurations under a memory budget")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--d", type=_int_list, default=BudgetQuery.latent_dims,
                   help="latent-dim options, e.g. 256,1024,4096")
    p.add_argument("--layers", type=_int_list, default=BudgetQuery.layer_counts)
    p.add_argument("--max-channels", type=int, default=BudgetQuery.max_channels)
    p.add_argument("--top", type=int, default=20, help="rows printed to stdout")
    p.add_argument("--output", type=_output_path, default=None, help="optional CSV path")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("synth", help="generate a synthetic blob dataset")
    p.add_argument("--classes", type=int, default=SyntheticSpec.num_classes)
    p.add_argument("--features", type=int, default=SyntheticSpec.num_features)
    p.add_argument("--per-class", type=int, default=SyntheticSpec.samples_per_class)
    p.add_argument("--separation", type=float, default=SyntheticSpec.separation)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", type=_output_path, default="synthetic_train.csv")
    p.add_argument("--test-out", type=_output_path, default="synthetic_test.csv")
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
