"""Command-line entry points tying the pipeline together.

Every subcommand exits nonzero on error and, with --json, prints a
machine-parseable JSON object to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, extractor, forecasters, fusion, zoo as zoo_mod
from .core import BLOCK_HORIZON, LOOK_BACK, MultivariateSeries, canonical_json, load_csv, write_csv, write_file


def _emit(args, payload: dict):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _load_query(path, n: int) -> tuple:
    """The query CSV at `path` and its last `n` rows; a shortfall names the file."""
    data = load_csv(path)
    if data.series.length < n:
        raise ValueError(f"{Path(path).name}: insufficient history: have {data.series.length}, need {n}")
    return data, data.series.values[-n:]


def _config(cls, values: dict, **given):
    """A `cls` dataclass from the entries of `values` (`vars(args)`) named
    like its fields and from `given`; every field with no entry keeps its default."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{**{key: value for key, value in values.items() if key in names}, **given})


def _model_configs(args) -> tuple:
    """(ForecasterSpec, TrainConfig) from train-ptm's and transfer-matrix's flags."""
    return _config(forecasters.ForecasterSpec, vars(args)), _config(forecasters.TrainConfig, vars(args))


def cmd_train_ptm(args):
    data = load_csv(args.data)
    spec, train_cfg = _model_configs(args)
    model = forecasters.train(spec, data, train_cfg)
    write_file(args.out, forecasters.save(model))
    _emit(args, {"out": args.out, "final_loss": model.epoch_losses[-1], "source_dataset": model.source_dataset})


def cmd_transfer_matrix(args):
    datasets = [load_csv(p) for p in args.datasets]
    tm, _ = zoo_mod.compute_transfer_matrix(datasets, *_model_configs(args))
    write_file(args.out, tm.to_bytes())
    _emit(args, {"out": args.out, "datasets": list(tm.dataset_names)})


def cmd_train_extractor(args):
    datasets = [load_csv(p) for p in args.datasets]
    path = Path(args.transfer_matrix)
    tm = zoo_mod._parse(zoo_mod.TransferMatrix.from_bytes, path.read_bytes(), path.name)
    cfg = _config(extractor.ExtractorTrainConfig, vars(args))
    mask_spec = _config(extractor.MaskSpec, vars(args))
    params, log = extractor.train_extractor(datasets, tm, cfg, mask_spec, input_len=args.input_len)
    write_file(args.out, extractor.save(params, log))
    _emit(args, {"out": args.out, "final_loss": log[-1]["total"]})


def cmd_build_zoo(args):
    sources = [load_csv(p) for p in args.data]
    out = zoo_mod.build_zoo(
        args.models, sources, args.extractor, args.out, per_model_source_samples=args.samples, seed=args.seed
    )
    _emit(args, {"out": str(out), "models": len(args.models)})


def cmd_embed(args):
    z = zoo_mod.load_zoo(args.zoo)
    labels, kinds, reprs = [], [], []
    for entry in z.entries:
        labels.append(entry.model_id)
        kinds.append("ptm")
        reprs.append(entry.representation)
    if args.input:
        data, last = _load_query(args.input, z.input_len)
        windows = last.T
        reprs.extend(fusion.encode_rows(z, windows)[3])  # forecast's encodings, with its overflow checks
        labels.extend(data.series.channel_names or [f"{data.name}:{c}" for c in range(len(windows))])
        kinds.extend(["variate"] * len(windows))
    if args.pca:
        points = extractor.pca_project(reprs, args.pca)
        columns = [f"pc{i + 1}" for i in range(args.pca)]
    else:
        points = np.stack(reprs)
        columns = [f"r{i + 1}" for i in range(points.shape[1])]
    write_csv(args.out, ["label", "kind"] + columns, ([label, kind, *row] for label, kind, row in zip(labels, kinds, points)))
    _emit(args, {"out": args.out, "points": len(labels)})


def cmd_forecast(args):
    z = zoo_mod.load_zoo(args.zoo)
    data, last = _load_query(args.input, z.input_len)
    window = MultivariateSeries(last, data.series.channel_names)
    cfg = fusion.FusionConfig(horizon=args.horizon, top_k=args.top_k)
    pred, selections, stats = fusion.forecast_multivariate(z, window, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "forecast.csv"
    rows = ([c, step, v] for c, column in enumerate(pred.values.T) for step, v in enumerate(column))
    write_csv(csv_path, ["channel", "step", "value"], rows)
    provenance = {
        "channels": [
            {
                "channel": c,
                "ranking": [[mid, score] for mid, score in selections[c].ranking],
                "chosen": list(selections[c].chosen),
                "norm_stats": {"mean": stats[c].mean, "std": stats[c].std},
            }
            for c in range(pred.num_channels)
        ]
    }
    write_file(out_dir / "provenance.json", canonical_json(provenance))
    _emit(args, {"out": str(csv_path), "horizon": args.horizon, "channels": pred.num_channels})


def cmd_evaluate(args):
    truth = load_csv(args.truth)
    pred = load_csv(args.pred)
    bench.check_metrics(args.metrics)
    _emit(args, {name: bench.score(name, truth.series, pred.series) for name in args.metrics})


def cmd_synth(args):
    data = bench.generate_synthetic(_config(bench.SyntheticFamilySpec, vars(args)))
    header = ["t"] + [f"c{i}" for i in range(data.series.num_channels)]
    write_csv(args.out, header, ([t, *values] for t, values in enumerate(data.series.values)))
    _emit(args, {"out": args.out, "length": data.series.length, "channels": data.series.num_channels})


def cmd_benchmark(args):
    cfg = _config(bench.BenchConfig, vars(args))
    datasets = [load_csv(p) for p in args.datasets]
    z = zoo_mod.load_zoo(args.zoo)  # the look-back is the zoo's input_len, as for forecast and embed
    report = bench.run_benchmark(dataclasses.replace(cfg, look_back=z.input_len), z, datasets)
    write_file(args.out, canonical_json(report))
    _emit(args, {"out": args.out, "rows": len(report["rows"]), "warnings": report["warnings"]})


def _comma_list(kind):
    """An argparse `type` reading a comma-separated value as a tuple of `kind`, with no empty item."""
    def parse(text: str) -> tuple:
        items = text.split(",")
        if "" in items:  # as a path it would read the current directory
            raise ValueError(text)
        return tuple(map(kind, items))
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's "invalid ... value" names it
    return parse


def _add_common(p, seed=True):
    if seed:  # only where the handler reads args.seed
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")


def _add_model_flags(p):
    spec, train = forecasters.ForecasterSpec, forecasters.TrainConfig
    p.add_argument("--arch", dest="architecture", choices=forecasters.TRAINABLE, default="linear")
    p.add_argument("--input-len", type=int, default=LOOK_BACK)
    p.add_argument("--horizon", type=int, default=BLOCK_HORIZON)
    p.add_argument("--patch-len", type=int, default=spec.patch_len)
    p.add_argument("--hidden-dim", type=int, default=spec.hidden_dim)
    p.add_argument("--epochs", type=int, default=train.epochs)
    p.add_argument("--lr", dest="learning_rate", type=float, default=train.learning_rate)
    p.add_argument("--batch-size", type=int, default=train.batch_size)
    p.add_argument("--stride", type=int, default=train.stride)


def _train_ptm_args(p):
    p.add_argument("--data", required=True)
    _add_model_flags(p)
    _add_common(p)


def _transfer_matrix_args(p):
    p.add_argument("--datasets", type=_comma_list(str), required=True, help="comma-separated CSV paths")
    _add_model_flags(p)
    _add_common(p)


def _train_extractor_args(p):
    ext, mask = extractor.ExtractorTrainConfig, extractor.MaskSpec
    p.add_argument("--datasets", type=_comma_list(str), required=True)
    p.add_argument("--transfer-matrix", required=True)
    p.add_argument("--lambda", dest="constraint_weight", type=float, default=ext.constraint_weight)
    p.add_argument("--mask-ratio", type=float, default=mask.mask_ratio)
    p.add_argument("--views", dest="num_views", type=int, default=mask.num_views)
    p.add_argument("--dim", dest="repr_dim", type=int, default=ext.repr_dim)
    p.add_argument("--hidden-dim", type=int, default=ext.hidden_dim)
    p.add_argument("--input-len", type=int, default=LOOK_BACK)
    p.add_argument("--epochs", type=int, default=ext.epochs)
    p.add_argument("--lr", dest="learning_rate", type=float, default=ext.learning_rate,
                   help=f"default: {extractor.LEARNING_RATE_PER_DATASET:g} per dataset a batch draws from, "
                   f"counting at most {extractor.RATE_DATASETS}")
    p.add_argument("--batch-size", type=int, default=ext.batch_size, help="default: one window per dataset")
    p.add_argument("--windows-per-dataset", type=int, default=ext.windows_per_dataset)
    _add_common(p)


def _build_zoo_args(p):
    p.add_argument("--models", type=_comma_list(str), required=True, help="comma-separated model files")
    p.add_argument("--data", type=_comma_list(str), required=True, help="comma-separated source CSVs, one per model")
    p.add_argument("--extractor", required=True)
    p.add_argument("--samples", type=int, default=zoo_mod.REPRESENTATION_SAMPLES)
    _add_common(p)


def _embed_args(p):
    p.add_argument("--zoo", required=True)
    p.add_argument("--input", default=None, help="optional CSV whose channels are embedded too")
    p.add_argument("--pca", type=int, default=None, choices=(1, 2, 3))
    _add_common(p, seed=False)


def _forecast_args(p):
    p.add_argument("--zoo", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--top-k", type=int, default=fusion.FusionConfig.top_k)
    _add_common(p, seed=False)


def _evaluate_args(p):
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    _add_metrics(p)
    p.add_argument("--json", action="store_true")


def _synth_args(p):
    synth = bench.SyntheticFamilySpec
    p.add_argument("--kind", choices=bench.SYNTH_KINDS, required=True)
    p.add_argument("--period", type=int, default=synth.period)
    p.add_argument("--amplitude", type=float, default=synth.amplitude)
    p.add_argument("--noise", dest="noise_std", type=float, default=synth.noise_std)
    p.add_argument("--length", type=int, default=synth.length)
    p.add_argument("--channels", type=int, default=synth.channels)
    _add_common(p)


def _add_metrics(p):
    p.add_argument("--metrics", type=_comma_list(str), default=bench.BenchConfig.metrics)


def _benchmark_args(p):
    cfg = bench.BenchConfig
    p.add_argument("--zoo", required=True)
    p.add_argument("--datasets", type=_comma_list(str), required=True, help="comma-separated CSV paths")
    p.add_argument("--horizons", type=_comma_list(int), default=cfg.horizons)
    _add_metrics(p)
    p.add_argument("--top-k", type=int, default=cfg.top_k)
    p.add_argument("--season-period", type=int, default=cfg.season_period)
    _add_common(p, seed=False)


# (name, help, handler, argument-adding function), in `zoocast -h` order
COMMANDS = (
    ("train-ptm", "train a one-variate forecaster on a CSV dataset", cmd_train_ptm, _train_ptm_args),
    ("transfer-matrix", "cross-dataset 1-MSE transfer scores", cmd_transfer_matrix, _transfer_matrix_args),
    ("train-extractor", "train the representation extractor", cmd_train_extractor, _train_extractor_args),
    ("build-zoo", "assemble a zoo directory from trained models", cmd_build_zoo, _build_zoo_args),
    ("embed", "dump PTM / variate representations, optionally PCA-projected", cmd_embed, _embed_args),
    ("forecast", "zero-shot forecast from a zoo", cmd_forecast, _forecast_args),
    ("evaluate", "metrics between truth and prediction CSVs", cmd_evaluate, _evaluate_args),
    ("synth", "generate a synthetic dataset CSV", cmd_synth, _synth_args),
    ("benchmark", "run the evaluation harness", cmd_benchmark, _benchmark_args),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The zoocast parser with every subcommand, or with only `command`'s
    sub-parser, which parses that command's arguments the same way."""
    description = "Zero-shot forecasting with a zoo of lightweight pre-trained models"
    parser = argparse.ArgumentParser(prog="zoocast", description=description, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, add_arguments in COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text, allow_abbrev=False)  # a flag has one spelling, not its prefixes
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command needs only its own sub-parser; anything else (no
    # arguments, -h, an unknown command) gets the full one
    command = argv[0] if argv and argv[0] in {c[0] for c in COMMANDS} else None
    args, extras = build_parser(command).parse_known_args(argv)
    if extras:  # the full parser reports them, with its own usage line
        args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")  # one line, whatever file name it quotes
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
