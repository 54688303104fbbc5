#!/usr/bin/env python3
"""Train the full pipeline on the synthetic family suite and measure how
often window matching picks the same-family model, plus how the pick's
forecast error compares to the rest of the zoo."""

import argparse
import json
import time

import numpy as np

from zoocast import forecasters
from zoocast.bench import default_family_suite
from zoocast.core import denormalize, mse, normalize
from zoocast.forecasters import ForecasterSpec
from zoocast.fusion import match
from zoocast.zoo import zoo_from_suite


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--eval-seed", type=int, default=100)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--windows-per-family", type=int, default=100)
    ap.add_argument("--look-back", type=int, default=36)
    ap.add_argument("--horizon", type=int, default=12)
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
    confusion = np.zeros((len(names), len(names)), dtype=int)
    beats = 0
    count = 0
    for family, data in enumerate(eval_suite):
        chan = data.series.channel(0)
        for s in rng.integers(0, len(chan) - total + 1, args.windows_per_family):
            window = chan[s : s + args.look_back]
            truth = chan[s + args.look_back : s + total]
            picked = match(zoo, window).ranking[0][0]
            confusion[family, names.index(picked)] += 1
            norm_win, stats = normalize(window)
            errors = {
                n: mse(truth, denormalize(forecasters.forecast(zoo.forecaster(n), norm_win), stats)) for n in names
            }
            beats += errors[picked] <= np.median(list(errors.values()))
            count += 1

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
