#!/usr/bin/env python3
"""Train the full pipeline on the synthetic family suite and measure how
often window matching picks the same-family model, plus how the pick's
forecast error compares to the rest of the zoo.

`--seed` and `--families` each take one value or an inclusive range
(`0-9`, `2-5`), `--noise` one value or a comma list (`0.05,0.3`); the
study runs every combination. Seed s trains on
`default_family_suite(seed=s)` and draws its held-out windows from the
suite seeded `--eval-seed` + s. With more than one run it ends with one
row per (families, noise): the mean and minimum top-1 accuracy over the
seeds that trained, and the seeds whose extractor diverged. Then it asks
how well the match scores foretell a pick's quality: per run, the share
of windows whose pick beats the zoo's median error, and the AUROC of the
pick's cosine (max cosine) and of its lead over the runner-up (top-1
minus top-2 cosine) for "the pick beats the zoo median" and for "the pick
is the best model", each with its mean and range over the seeds."""

import argparse
import json
import re
import time

import numpy as np

from zoocast.bench import SUITE_NOISE, default_family_suite
from zoocast.core import BLOCK_HORIZON, LOOK_BACK, mse
from zoocast.extractor import cosine_matrix
from zoocast.forecasters import ForecasterSpec
from zoocast.fusion import encode_rows, sequential_forecast
from zoocast.zoo import zoo_from_suite


def int_range(text: str) -> list:
    """`3` or `0-9` (inclusive) as a list of ints."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if match is None:
        raise argparse.ArgumentTypeError(f"expected N or A-B, got {text!r}")
    first, last = match.groups()
    return list(range(int(first), int(last or first) + 1))


def float_list(text: str) -> list:
    return [float(part) for part in text.split(",")]


# the calibration values of a run, as they are keyed in `--out`
CALIBRATION = ("beats_median", "max_cosine_auroc_beats_median", "max_cosine_auroc_best",
               "margin_auroc_beats_median", "margin_auroc_best")
CALIBRATION_LABELS = ("beats median", "cos: median", "cos: best", "margin: median", "margin: best")


def auroc(scores, labels):
    """The chance that a random positive scores above a random negative,
    a tie counting half; None unless `labels` holds both classes."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=bool)
    positives, negatives = scores[labels], np.sort(scores[~labels])
    if not len(positives) or not len(negatives):
        return None
    # each positive counts the negatives below it, and half of those it ties
    below = np.searchsorted(negatives, positives, side="left") + np.searchsorted(negatives, positives, side="right")
    return float(below.sum() / (2 * len(positives) * len(negatives)))


def study(seed: int, eval_seed: int, noise: float, families: int, windows_per_family: int, look_back: int, horizon: int):
    """One run, printed as it goes: its report (a single run's `--out`
    keys) and its CALIBRATION values, or None if the extractor diverged."""
    start = time.monotonic()
    suite = default_family_suite(seed=seed, noise_std=noise)[:families]
    names = [d.name for d in suite]
    try:
        zoo, log = zoo_from_suite(suite, ForecasterSpec("linear", look_back, horizon), seed=seed)
    except ValueError as exc:
        if not str(exc).startswith("training diverged"):  # the extractor's; a forecaster's names its dataset
            raise
        print(f"extractor {exc}")
        return None
    print(f"pipeline trained in {time.monotonic() - start:.0f}s (final recon {log[-1]['recon']:.3f})")

    eval_suite = default_family_suite(seed=eval_seed, noise_std=noise)[:families]
    rng = np.random.default_rng(seed)
    total = look_back + horizon
    # each family's windows, drawn in family order: (families * windows, look_back + horizon) tiles
    starts = [rng.integers(0, data.series.length - total + 1, windows_per_family) for data in eval_suite]
    tiles = np.concatenate([data.series.channel(0)[s[:, None] + np.arange(total)] for data, s in zip(eval_suite, starts)])
    windows, truth = tiles[:, :look_back], tiles[:, look_back:]
    family = np.repeat(np.arange(len(eval_suite)), windows_per_family)

    # one encode and one cosine matrix for every window; argmax keeps the first of tied models, as `match` ranks them
    norm, mu, sigma, encodings = encode_rows(zoo, windows)
    scores = cosine_matrix(encodings, np.stack([entry.representation for entry in zoo.entries]))
    picked = np.argmax(scores, axis=1)
    columns = np.array([names.index(entry.model_id) for entry in zoo.entries])
    confusion = np.zeros((len(names), len(names)), dtype=int)
    np.add.at(confusion, (family, columns[picked]), 1)
    errors = np.empty((len(windows), len(zoo.entries)))
    for i, entry in enumerate(zoo.entries):  # one stacked forecast per model, de-normalized with each window's stats
        pred = sigma[:, None] * sequential_forecast([zoo.forecaster(entry.model_id)], norm, horizon) + mu[:, None]
        errors[:, i] = mse(truth[..., None], pred[..., None])
    pick_errors = errors[np.arange(len(picked)), picked]
    beats_median, best = pick_errors <= np.median(errors, axis=1), pick_errors == errors.min(axis=1)
    beats = int(np.sum(beats_median))
    count = len(picked)
    top2 = -np.sort(-scores, axis=1)[:, :2]
    signals = {"max_cosine": top2[:, 0], "margin": top2[:, 0] - top2[:, 1]}
    calibration = {"beats_median": beats / count}
    calibration.update({f"{name}_auroc_{event}": auroc(signal, outcome) for name, signal in signals.items()
                        for event, outcome in (("beats_median", beats_median), ("best", best))})

    accuracy = np.trace(confusion) / confusion.sum()
    print(f"top-1 same-family accuracy: {accuracy:.3f}")
    print(f"pick beats zoo-median MSE: {beats / count:.3f}")
    print("confusion matrix (rows = true family, cols = picked model):")
    width = max(len(n) for n in names)
    for n, row in zip(names, confusion):
        print(f"  {n:<{width}} {row.tolist()}")
    report = {
        "accuracy": float(accuracy),
        "beats_median": beats / count,
        "confusion": confusion.tolist(),
        "families": names,
        "seed": seed,
        "eval_seed": eval_seed,
    }
    return report, calibration


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int_range, default=[0], help="training seeds, e.g. 0 or 0-9")
    ap.add_argument("--eval-seed", type=int, default=100,
                    help="seed s draws its held-out windows from the suite seeded eval-seed + s, also when it runs alone")
    ap.add_argument("--noise", type=float_list, default=[SUITE_NOISE], help="suite noise levels, e.g. 0.05,0.3")
    ap.add_argument("--families", type=int_range, default=[5], help="study the first N families of the suite, e.g. 5 or 2-5")
    ap.add_argument("--windows-per-family", type=int, default=100)
    ap.add_argument("--look-back", type=int, default=LOOK_BACK)
    ap.add_argument("--horizon", type=int, default=BLOCK_HORIZON)
    ap.add_argument("--out", default=None, help="optional JSON report path")
    args = ap.parse_args()

    grid = [(n, noise, seed) for n in args.families for noise in args.noise for seed in args.seed]
    runs = []
    for families, noise, seed in grid:
        if len(grid) > 1:
            print(f"== {families} families, noise {noise:g}, seed {seed}")
        report, calibration = study(
            seed, args.eval_seed + seed, noise, families, args.windows_per_family, args.look_back, args.horizon
        ) or (None, None)
        runs.append({"families_count": families, "noise": noise, "seed": seed, "report": report, "calibration": calibration})

    if len(grid) == 1:
        if runs[0]["report"] is None:
            raise SystemExit(1)
        payload = runs[0]["report"]
    else:
        summary = []
        print("families  noise  mean top-1  min top-1  diverged seeds")
        for families in args.families:
            for noise in args.noise:
                cell = [run for run in runs if (run["families_count"], run["noise"]) == (families, noise)]
                scores = [run["report"]["accuracy"] for run in cell if run["report"] is not None]
                diverged = [run["seed"] for run in cell if run["report"] is None]
                row = {
                    "families_count": families, "noise": noise, "seeds": args.seed, "diverged_seeds": diverged,
                    "mean_accuracy": float(np.mean(scores)) if scores else None,
                    "min_accuracy": min(scores) if scores else None,
                }
                for key in CALIBRATION:  # an AUROC is None for a run whose windows all fall in one class
                    values = [run["calibration"][key] for run in cell if run["report"] is not None]
                    values = [value for value in values if value is not None]
                    row[f"mean_{key}"] = float(np.mean(values)) if values else None
                    row[f"{key}_range"] = [min(values), max(values)] if values else None
                summary.append(row)
                mean, low = (f"{row['mean_accuracy']:.3f}", f"{row['min_accuracy']:.3f}") if scores else ("-", "-")
                print(f"{families:>8}  {noise:>5g}  {mean:>10}  {low:>9}  {diverged or '-'}")
        print("calibration, mean [min, max] over the seeds that trained; AUROC of max cosine (cos) and margin for")
        print("the pick beating the zoo median (median) and being the best model (best):")
        print(("families  noise  " + "  ".join(f"{label:<20}" for label in CALIBRATION_LABELS)).rstrip())
        for row in summary:
            cells = [f"{row[f'mean_{key}']:.3f} [{row[f'{key}_range'][0]:.3f}, {row[f'{key}_range'][1]:.3f}]"
                     if row[f"mean_{key}"] is not None else "-" for key in CALIBRATION]
            print((f"{row['families_count']:>8}  {row['noise']:>5g}  " + "  ".join(f"{cell:<20}" for cell in cells)).rstrip())
        payload = {"runs": runs, "summary": summary}

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")


if __name__ == "__main__":
    main()
