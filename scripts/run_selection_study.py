#!/usr/bin/env python3
"""Train the full pipeline on the synthetic family suite and measure how
often window matching picks the same-family model, plus how the pick's
forecast error compares to the rest of the zoo."""

import argparse
import json
import time

import numpy as np

from zoocast.bench import SUITE_NOISE, default_family_suite
from zoocast.core import BLOCK_HORIZON, LOOK_BACK, mse
from zoocast.extractor import cosine_matrix
from zoocast.forecasters import ForecasterSpec
from zoocast.fusion import encode_rows, sequential_forecast
from zoocast.zoo import zoo_from_suite


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--eval-seed", type=int, default=100)
    ap.add_argument("--noise", type=float, default=SUITE_NOISE)
    ap.add_argument("--windows-per-family", type=int, default=100)
    ap.add_argument("--look-back", type=int, default=LOOK_BACK)
    ap.add_argument("--horizon", type=int, default=BLOCK_HORIZON)
    ap.add_argument("--out", default=None, help="optional JSON report path")
    args = ap.parse_args()

    start = time.monotonic()
    suite = default_family_suite(seed=args.seed, noise_std=args.noise)
    names = [d.name for d in suite]
    zoo, log = zoo_from_suite(suite, ForecasterSpec("linear", args.look_back, args.horizon), seed=args.seed)
    print(f"pipeline trained in {time.monotonic() - start:.0f}s (final recon {log[-1]['recon']:.3f})")

    eval_suite = default_family_suite(seed=args.eval_seed, noise_std=args.noise)
    rng = np.random.default_rng(args.seed)
    total = args.look_back + args.horizon
    # each family's windows, drawn in family order: (families * windows, look_back + horizon) tiles
    starts = [rng.integers(0, data.series.length - total + 1, args.windows_per_family) for data in eval_suite]
    tiles = np.concatenate([data.series.channel(0)[s[:, None] + np.arange(total)] for data, s in zip(eval_suite, starts)])
    windows, truth = tiles[:, : args.look_back], tiles[:, args.look_back :]
    family = np.repeat(np.arange(len(eval_suite)), args.windows_per_family)

    # one encode and one cosine matrix for every window; argmax keeps the first of tied models, as `match` ranks them
    norm, mu, sigma, encodings = encode_rows(zoo, windows)
    picked = np.argmax(cosine_matrix(encodings, np.stack([entry.representation for entry in zoo.entries])), axis=1)
    columns = np.array([names.index(entry.model_id) for entry in zoo.entries])
    confusion = np.zeros((len(names), len(names)), dtype=int)
    np.add.at(confusion, (family, columns[picked]), 1)
    errors = np.empty((len(windows), len(zoo.entries)))
    for i, entry in enumerate(zoo.entries):  # one stacked forecast per model, de-normalized with each window's stats
        pred = sigma[:, None] * sequential_forecast([zoo.forecaster(entry.model_id)], norm, args.horizon) + mu[:, None]
        errors[:, i] = mse(truth[..., None], pred[..., None])
    beats = int(np.sum(errors[np.arange(len(picked)), picked] <= np.median(errors, axis=1)))
    count = len(picked)

    accuracy = np.trace(confusion) / confusion.sum()
    print(f"top-1 same-family accuracy: {accuracy:.3f}")
    print(f"pick beats zoo-median MSE: {beats / count:.3f}")
    print("confusion matrix (rows = true family, cols = picked model):")
    width = max(len(n) for n in names)
    for n, row in zip(names, confusion):
        print(f"  {n:<{width}} {row.tolist()}")

    if args.out:
        report = {
            "accuracy": float(accuracy),
            "beats_median": beats / count,
            "confusion": confusion.tolist(),
            "families": names,
            "seed": args.seed,
            "eval_seed": args.eval_seed,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")


if __name__ == "__main__":
    main()
