"""Command-line entry points tying the pipeline together.

Every subcommand exits nonzero on error and, with --json, prints a
machine-parseable JSON object to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, extractor, forecasters, fusion, zoo as zoo_mod
from .core import MultivariateSeries, canonical_json, load_csv, normalize, trim_to_last

ARCH_FLAGS = {"linear": "linear", "patch-mlp": "patch_mlp"}


def _emit(args, payload: dict):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _load_datasets(paths: str) -> list:
    return [load_csv(p) for p in paths.split(",")]


def _spec_from_args(args) -> forecasters.ForecasterSpec:
    return forecasters.ForecasterSpec(
        architecture=ARCH_FLAGS[args.arch],
        input_len=args.input_len,
        horizon=args.horizon,
        patch_len=args.patch_len,
        hidden_dim=args.hidden_dim,
    )


def _train_cfg_from_args(args) -> forecasters.TrainConfig:
    return forecasters.TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        stride=args.stride,
    )


def cmd_train_ptm(args):
    data = load_csv(args.data)
    model = forecasters.train(_spec_from_args(args), data, _train_cfg_from_args(args))
    Path(args.out).write_bytes(forecasters.save(model))
    _emit(args, {"out": args.out, "final_loss": model.epoch_losses[-1], "source_dataset": model.source_dataset})


def cmd_transfer_matrix(args):
    datasets = _load_datasets(args.datasets)
    tm, _ = zoo_mod.compute_transfer_matrix(datasets, _spec_from_args(args), _train_cfg_from_args(args))
    Path(args.out).write_bytes(tm.to_bytes())
    _emit(args, {"out": args.out, "datasets": list(tm.dataset_names)})


def cmd_train_extractor(args):
    datasets = _load_datasets(args.datasets)
    tm = zoo_mod.TransferMatrix.from_bytes(Path(args.transfer_matrix).read_bytes())
    cfg = extractor.ExtractorTrainConfig(
        constraint_weight=args.constraint_weight,
        epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        windows_per_dataset=args.windows_per_dataset,
        hidden_dim=args.hidden_dim,
        repr_dim=args.dim,
    )
    mask_spec = extractor.MaskSpec(mask_ratio=args.mask_ratio, num_views=args.views)
    params, log = extractor.train_extractor(datasets, tm, cfg, mask_spec, input_len=args.input_len)
    Path(args.out).write_bytes(extractor.save(params, log))
    _emit(args, {"out": args.out, "final_loss": log[-1]["total"] if log else None})


def cmd_build_zoo(args):
    model_files = args.models.split(",")
    sources = _load_datasets(args.data)
    out = zoo_mod.build_zoo(
        model_files, sources, args.extractor, args.out, per_model_source_samples=args.samples, seed=args.seed
    )
    _emit(args, {"out": str(out), "models": len(model_files)})


def cmd_embed(args):
    z = zoo_mod.load_zoo(args.zoo)
    labels, kinds, reprs = [], [], []
    for entry in z.entries:
        labels.append(entry.model_id)
        kinds.append("ptm")
        reprs.append(entry.representation)
    if args.input:
        data = load_csv(args.input)
        for c in range(data.series.num_channels):
            window = trim_to_last(data.series.channel(c), z.extractor_params.input_len)
            norm_win, _ = normalize(window)
            labels.append(data.series.channel_names[c] if data.series.channel_names else f"{data.name}:{c}")
            kinds.append("variate")
            reprs.append(extractor.encode(z.extractor_params, norm_win))
    if args.pca:
        points = extractor.pca_project(reprs, args.pca)
        columns = [f"pc{i + 1}" for i in range(args.pca)]
    else:
        points = np.stack(reprs)
        columns = [f"r{i + 1}" for i in range(points.shape[1])]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "kind"] + columns)
        for label, kind, row in zip(labels, kinds, points):
            writer.writerow([label, kind] + [repr(float(v)) for v in row])
    _emit(args, {"out": args.out, "points": len(labels)})


def cmd_forecast(args):
    z = zoo_mod.load_zoo(args.zoo)
    data = load_csv(args.input)
    values = data.series.values
    if values.shape[0] < z.input_len:
        raise ValueError(f"history length {values.shape[0]} shorter than zoo input_len {z.input_len}")
    window = MultivariateSeries(values[-z.input_len :], data.series.channel_names)
    cfg = fusion.FusionConfig(horizon=args.horizon, top_k=args.top_k)
    pred, selections, stats = fusion.forecast_multivariate(z, window, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "forecast.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "step", "value"])
        for c in range(pred.num_channels):
            for step in range(pred.length):
                writer.writerow([c, step, repr(float(pred.values[step, c]))])
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
    (out_dir / "provenance.json").write_bytes(canonical_json(provenance))
    _emit(args, {"out": str(csv_path), "horizon": args.horizon, "channels": pred.num_channels})


def cmd_evaluate(args):
    truth = load_csv(args.truth)
    pred = load_csv(args.pred)
    metrics = {}
    for name in args.metrics.split(","):
        metrics[name] = bench.METRIC_FNS[name](truth.series, pred.series)
    _emit(args, metrics)


def cmd_synth(args):
    spec = bench.SyntheticFamilySpec(
        kind=args.kind,
        period=args.period,
        amplitude=args.amplitude,
        noise_std=args.noise,
        length=args.length,
        channels=args.channels,
        seed=args.seed,
    )
    data = bench.generate_synthetic(spec)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"c{i}" for i in range(data.series.num_channels)])
        for t in range(data.series.length):
            writer.writerow([t] + [repr(float(v)) for v in data.series.values[t]])
    _emit(args, {"out": args.out, "length": data.series.length, "channels": data.series.num_channels})


def parse_flat_config(text: str) -> dict:
    """Flat key = value config; values are JSON-ish scalars or lists."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value.strip("\"'")
    return out


def cmd_benchmark(args):
    raw = parse_flat_config(Path(args.config).read_text(encoding="utf-8"))
    datasets = [load_csv(p) for p in raw.get("datasets", [])]
    default = bench.BenchConfig
    cfg = bench.BenchConfig(
        look_back=int(raw.get("look_back", default.look_back)),
        horizons=tuple(raw.get("horizons", default.horizons)),
        metrics=tuple(raw.get("metrics", default.metrics)),
        top_k=int(raw.get("top_k", default.top_k)),
    )
    z = zoo_mod.load_zoo(args.zoo)
    report = bench.run_benchmark(cfg, z, datasets)
    Path(args.out).write_bytes(bench.report_to_bytes(report))
    _emit(args, {"out": args.out, "rows": len(report["rows"]), "warnings": report["warnings"]})


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")


def _add_model_flags(p):
    spec, train = forecasters.ForecasterSpec, forecasters.TrainConfig
    p.add_argument("--arch", choices=sorted(ARCH_FLAGS), default="linear")
    p.add_argument("--input-len", type=int, default=36)
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--patch-len", type=int, default=spec.patch_len)
    p.add_argument("--hidden-dim", type=int, default=spec.hidden_dim)
    p.add_argument("--epochs", type=int, default=train.epochs)
    p.add_argument("--lr", type=float, default=train.learning_rate)
    p.add_argument("--batch-size", type=int, default=train.batch_size)
    p.add_argument("--stride", type=int, default=train.stride)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zoocast", description="Zero-shot forecasting with a zoo of lightweight pre-trained models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-ptm", help="train a one-variate forecaster on a CSV dataset")
    p.add_argument("--data", required=True)
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train_ptm)

    p = sub.add_parser("transfer-matrix", help="cross-dataset 1-MSE transfer scores")
    p.add_argument("--datasets", required=True, help="comma-separated CSV paths")
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_transfer_matrix)

    ext, mask = extractor.ExtractorTrainConfig, extractor.MaskSpec
    p = sub.add_parser("train-extractor", help="train the representation extractor")
    p.add_argument("--datasets", required=True)
    p.add_argument("--transfer-matrix", required=True)
    p.add_argument("--lambda", dest="constraint_weight", type=float, default=ext.constraint_weight)
    p.add_argument("--mask-ratio", type=float, default=mask.mask_ratio)
    p.add_argument("--views", type=int, default=mask.num_views)
    p.add_argument("--dim", type=int, default=ext.repr_dim)
    p.add_argument("--hidden-dim", type=int, default=ext.hidden_dim)
    p.add_argument("--input-len", type=int, default=36)
    p.add_argument("--epochs", type=int, default=ext.epochs)
    p.add_argument("--lr", type=float, default=ext.learning_rate)
    p.add_argument("--batch-size", type=int, default=ext.batch_size, help="default: one window per dataset")
    p.add_argument("--windows-per-dataset", type=int, default=ext.windows_per_dataset)
    _add_common(p)
    p.set_defaults(func=cmd_train_extractor)

    p = sub.add_parser("build-zoo", help="assemble a zoo directory from trained models")
    p.add_argument("--models", required=True, help="comma-separated model files")
    p.add_argument("--data", required=True, help="comma-separated source CSVs, one per model")
    p.add_argument("--extractor", required=True)
    p.add_argument("--samples", type=int, default=256)
    _add_common(p)
    p.set_defaults(func=cmd_build_zoo)

    p = sub.add_parser("embed", help="dump PTM / variate representations, optionally PCA-projected")
    p.add_argument("--zoo", required=True)
    p.add_argument("--input", default=None, help="optional CSV whose channels are embedded too")
    p.add_argument("--pca", type=int, default=None, choices=(1, 2, 3))
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("forecast", help="zero-shot forecast from a zoo")
    p.add_argument("--zoo", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--top-k", type=int, default=fusion.FusionConfig.top_k)
    _add_common(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="metrics between truth and prediction CSVs")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--metrics", default="mse")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    synth = bench.SyntheticFamilySpec
    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", choices=bench.SYNTH_KINDS, required=True)
    p.add_argument("--period", type=int, default=synth.period)
    p.add_argument("--amplitude", type=float, default=synth.amplitude)
    p.add_argument("--noise", type=float, default=synth.noise_std)
    p.add_argument("--length", type=int, default=synth.length)
    p.add_argument("--channels", type=int, default=synth.channels)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("benchmark", help="run the evaluation harness from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--zoo", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
