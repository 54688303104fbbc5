#!/usr/bin/env python3
"""Build a model zoo from the synthetic family suite and benchmark the
zero-shot pipeline against the naive baselines across horizons."""

import argparse
import time

import numpy as np

from zoocast.bench import SUITE_NOISE, BenchConfig, default_family_suite, report_to_bytes, run_benchmark
from zoocast.core import BLOCK_HORIZON, LOOK_BACK
from zoocast.forecasters import ForecasterSpec
from zoocast.zoo import zoo_from_suite


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--noise", type=float, default=SUITE_NOISE)
    ap.add_argument("--look-back", type=int, default=LOOK_BACK)
    ap.add_argument("--horizon", type=int, default=BLOCK_HORIZON, help="per-model forecast block length")
    ap.add_argument("--horizons", default=",".join(map(str, BenchConfig.horizons)))
    ap.add_argument("--top-k", type=int, default=BenchConfig.top_k)
    ap.add_argument("--out", default=None, help="optional JSON report path")
    args = ap.parse_args()

    start = time.monotonic()
    suite = default_family_suite(seed=args.seed, noise_std=args.noise)
    zoo, _ = zoo_from_suite(suite, ForecasterSpec("linear", args.look_back, args.horizon), seed=args.seed)
    print(f"zoo of {len(zoo.entries)} models built in {time.monotonic() - start:.0f}s")

    cfg = BenchConfig(
        look_back=args.look_back,
        horizons=tuple(int(h) for h in args.horizons.split(",")),
        top_k=args.top_k,
    )
    report = run_benchmark(cfg, zoo, suite)
    for warning in report["warnings"]:
        print(f"warning: {warning}")

    methods = sorted({row["method"] for row in report["summary"]})
    datasets = sorted({row["dataset"] for row in report["summary"]})
    by_key = {(r["dataset"], r["method"]): r["mse"] for r in report["summary"]}
    width = max(len(d) for d in datasets)
    print(f"{'':<{width}} " + " ".join(f"{m:>14}" for m in methods))
    for dataset in datasets:
        cells = " ".join(f"{by_key[(dataset, m)]:>14.4f}" for m in methods)
        print(f"{dataset:<{width}} {cells}")
    means = {m: np.mean([by_key[(d, m)] for d in datasets]) for m in methods}
    print(f"{'mean':<{width}} " + " ".join(f"{means[m]:>14.4f}" for m in methods))

    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(report_to_bytes(report))
        print(f"report written to {args.out}")


if __name__ == "__main__":
    main()
