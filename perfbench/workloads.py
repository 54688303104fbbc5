"""The four benchmark workloads.

Each workload drives zoocast only through its public functions. `setup()`
is everything before the timed phase (data, zoo build and load, inputs,
warm-up). `op(i)` is one timed operation; `check(i, result)` compares its
output with the oracle outside the timed region and returns False on a
mismatch. `quality()` gives the deterministic output metrics
(`forecast_mse`, `selection_top1_share`), computed untimed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
from pathlib import Path

import numpy as np

import oracle

from zoocast import bench, cli, extractor, forecasters, fusion, zoo
from zoocast.core import MultivariateSeries

# The README's API defaults: linear 36 -> 12 forecasters, default training
# and extractor configs, 256 source samples per model representation.
SPEC = forecasters.ForecasterSpec("linear", 36, 12)
LOOK_BACK = SPEC.input_len
# Held-out series come from the same five families as the zoo, with
# generator seeds the zoo never saw (the zoo's suite uses seeds 0..4).
HELD_OUT_BASE = 1000


def build_zoo_dir(suite: list, out_dir: Path, train_cfg=None, extractor_cfg=None) -> tuple:
    """The offline half: transfer matrix, extractor, representations,
    artifacts on disk, zoo build and load. Returns (zoo dir, loaded zoo,
    representations by dataset name)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tm, models = zoo.compute_transfer_matrix(suite, SPEC, train_cfg or forecasters.TrainConfig())
    params, log = extractor.train_extractor(
        suite, tm, extractor_cfg or extractor.ExtractorTrainConfig(), extractor.MaskSpec()
    )
    reps = {d.name: zoo.compute_model_representation(params, d) for d in suite}
    model_files = []
    for d in suite:
        path = out_dir / f"{d.name}.json"
        path.write_bytes(forecasters.save(models[d.name]))
        model_files.append(path)
    ext_file = out_dir / "extractor.json"
    ext_file.write_bytes(extractor.save(params, log))
    zoo_dir = zoo.build_zoo(model_files, suite, ext_file, out_dir / "zoo")
    return zoo_dir, zoo.load_zoo(zoo_dir), reps


def held_out_suite(seed: int, length: int) -> list:
    return bench.default_family_suite(seed=HELD_OUT_BASE + 5 * seed, length=length)


def draw_windows(rng, suite: list, count: int, length: int) -> tuple:
    """`count` windows of `length` values at random offsets, with the index
    of the family each came from. Families take equal turns in a random
    order, so every seed gets the same family mix."""
    family = rng.permutation(np.arange(count) % len(suite))
    out = np.empty((count, length))
    for i, f in enumerate(family):
        values = suite[f].series.values[:, 0]
        start = rng.integers(values.shape[0] - length + 1)
        out[i] = values[start : start + length]
    return out, family


def families(built) -> dict:
    """Model id -> family index. Zoos are built from a family suite in
    suite order, one model per family."""
    return {e.model_id: i for i, e in enumerate(built.entries)}


class ChannelPool:
    """Requests of C channels each: histories, truth and family, plus the
    per-request quality recorded when a request is checked."""

    def __init__(self, rng, suite, requests: int, channels: int, horizon: int, history: int = LOOK_BACK):
        windows, family = draw_windows(rng, suite, requests * channels, history + horizon)
        windows = windows.reshape(requests, channels, -1).transpose(0, 2, 1)  # (P, history + H, C)
        self.x = np.ascontiguousarray(windows[:, :history])
        self.truth = np.ascontiguousarray(windows[:, history:])
        self.family = family.reshape(requests, channels)
        self.mse = [None] * requests
        self.top1 = [None] * requests

    def record(self, k: int, pred: np.ndarray, top1_family) -> None:
        self.mse[k] = float(np.mean((self.truth[k] - pred) ** 2))
        self.top1[k] = float(np.mean(np.asarray(top1_family) == self.family[k]))

    def missing(self) -> list:
        return [k for k, v in enumerate(self.mse) if v is None]

    def adopt(self, earlier: "ChannelPool") -> None:
        """Take over the quality already recorded by an earlier set-up of
        the same seed, whose inputs are identical."""
        if not (np.array_equal(self.x, earlier.x) and np.array_equal(self.truth, earlier.truth)):
            raise ValueError("set-ups of one seed generated different inputs")
        self.mse = [a if a is not None else b for a, b in zip(self.mse, earlier.mse)]
        self.top1 = [a if a is not None else b for a, b in zip(self.top1, earlier.top1)]

    def quality(self) -> dict:
        return {"forecast_mse": float(np.mean(self.mse)), "selection_top1_share": float(np.mean(self.top1))}


def score_pool(built, zoo_dir, pool: ChannelPool, horizon: int, top_k: int, runner) -> dict:
    """Forecast every pool request not yet scored with zoocast, outside the
    timed phase, check it against the oracle and record its quality."""
    ref = oracle.OracleZoo(zoo_dir)
    family = families(built)
    cfg = fusion.FusionConfig(horizon=horizon, top_k=top_k)
    for k in pool.missing():
        pred, selections, _ = fusion.forecast_multivariate(built, MultivariateSeries(pool.x[k]), cfg)
        expected, chosen = ref.forecast(pool.x[k], horizon, top_k)
        got = [s.chosen for s in selections]
        runner.record(oracle.agrees(pred.values, expected) and got == chosen, f"quality request {k}")
        pool.record(k, pred.values, [family[c[0]] for c in got])
    return pool.quality()


class Workload:
    min_ops = 1
    warmup_ops = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def extras(self) -> dict:
        return {}

    def inherit(self, earlier) -> None:
        """Carry untimed bookkeeping over from an earlier set-up."""

    def close(self) -> None:
        """Release what set-up opened."""


class _ZooWorkload(Workload):
    """Online workloads: the zoo is built from the default family suite
    and loaded from disk during set-up."""

    def build_zoo(self):
        self.zoo_dir, self.zoo, _ = build_zoo_dir(bench.default_family_suite(seed=0), self.workdir / "build")
        self.family = families(self.zoo)
        self._oracle = None

    @property
    def oracle(self) -> oracle.OracleZoo:
        if self._oracle is None:
            self._oracle = oracle.OracleZoo(self.zoo_dir)
        return self._oracle

    def warm_up(self):
        for i in range(self.warmup_ops):
            self.op(i)


class ForecastWide(_ZooWorkload):
    """fusion.forecast_multivariate on a (36, 64) window, H=48, top_k=3."""

    name = "forecast-wide"
    channels, horizon, top_k = 64, 48, 3
    pool_size = 64
    warmup_ops = 50
    min_ops = 100

    def setup(self):
        self.build_zoo()
        self.pool = ChannelPool(
            self.rng, held_out_suite(self.seed, 2000), self.pool_size, self.channels, self.horizon
        )
        self.series = [MultivariateSeries(x) for x in self.pool.x]
        self.cfg = fusion.FusionConfig(horizon=self.horizon, top_k=self.top_k)
        self.warm_up()

    def op(self, i):
        return fusion.forecast_multivariate(self.zoo, self.series[i % self.pool_size], self.cfg)

    def check(self, i, result) -> bool:
        k = i % self.pool_size
        pred, selections, _ = result
        expected, chosen = self.oracle.forecast(self.pool.x[k], self.horizon, self.top_k)
        got = [s.chosen for s in selections]
        if self.pool.mse[k] is None:
            self.pool.record(k, pred.values, [self.family[c[0]] for c in got])
        return oracle.agrees(pred.values, expected) and got == chosen

    def inherit(self, earlier) -> None:
        self.pool.adopt(earlier.pool)

    def quality(self, runner) -> dict:
        return score_pool(self.zoo, self.zoo_dir, self.pool, self.horizon, self.top_k, runner)


class ForecastCli(_ZooWorkload):
    """The whole `zoocast forecast` command, in process, on a 100-row
    1-channel CSV with H=12 and top_k=1."""

    name = "forecast-cli"
    rows, horizon, top_k = 100, 12, 1
    pool_size = 256
    warmup_ops = 50
    min_ops = 100
    # Scored windows for forecast_mse: with one channel per query, 256
    # queries leave a 19% seed-to-seed spread (the random-walk family's
    # errors dominate), so the zoo the CLI reads is scored through the
    # library on 64 x 64 windows drawn the same way.
    quality_requests, quality_channels = 64, 64

    def setup(self):
        self.build_zoo()
        held = held_out_suite(self.seed, 2000)
        self.pool = ChannelPool(self.rng, held, self.pool_size, 1, self.horizon, history=self.rows)
        self.scored = ChannelPool(self.rng, held, self.quality_requests, self.quality_channels, self.horizon)
        self.out_bytes = []
        query_dir = self.workdir / "queries"
        query_dir.mkdir(parents=True, exist_ok=True)
        self.queries = []
        for k, values in enumerate(self.pool.x[:, :, 0]):
            path = query_dir / f"q{k}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "c0"])
                writer.writerows([t, repr(float(v))] for t, v in enumerate(values))
            self.queries.append(str(path))
        self.out_dir = self.workdir / "forecast"
        self.sink = open(os.devnull, "w", encoding="utf-8")
        self.warm_up()

    def argv(self, k: int) -> list:
        return [
            "forecast", "--zoo", str(self.zoo_dir), "--input", self.queries[k],
            "--horizon", str(self.horizon), "--top-k", str(self.top_k), "--out", str(self.out_dir),
        ]  # fmt: skip

    def op(self, i):
        with contextlib.redirect_stdout(self.sink):
            return cli.main(self.argv(i % self.pool_size))

    def check(self, i, result) -> bool:
        k = i % self.pool_size
        if result != 0:
            return False
        csv_path, prov_path = self.out_dir / "forecast.csv", self.out_dir / "provenance.json"
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        pred = np.array([[float(r[2])] for r in rows])
        chosen = tuple(json.loads(prov_path.read_bytes())["channels"][0]["chosen"])
        self.out_bytes.append(csv_path.stat().st_size + prov_path.stat().st_size)
        expected, expected_chosen = self.oracle.forecast(self.pool.x[k][-LOOK_BACK:], self.horizon, self.top_k)
        return oracle.agrees(pred, expected) and [chosen] == expected_chosen

    def inherit(self, earlier) -> None:
        self.out_bytes = earlier.out_bytes

    def quality(self, runner) -> dict:
        return score_pool(self.zoo, self.zoo_dir, self.scored, self.horizon, self.top_k, runner)

    def extras(self) -> dict:
        return {"cli.out_bytes": float(np.mean(self.out_bytes)) if self.out_bytes else 0.0}

    def close(self):
        self.sink.close()


class EvalHarness(_ZooWorkload):
    """bench.run_benchmark(BenchConfig(), zoo, suite) on a held-out suite:
    the config `zoocast benchmark` builds from a file naming only datasets.
    Only the report's `summary` is read."""

    name = "eval-harness"
    # 1200 points per series: 151 evaluation windows per dataset, enough
    # that the summary MSE varies by only a few percent across seeds.
    length = 1200
    warmup_ops = 1
    min_ops = 5

    def setup(self):
        self.build_zoo()
        self.suite = held_out_suite(self.seed, self.length)
        self.cfg = bench.BenchConfig()
        self.summary = None
        self.zoo_mse = None
        self.warm_up()

    def op(self, i):
        return bench.run_benchmark(self.cfg, self.zoo, self.suite)["summary"]

    def expected(self) -> dict:
        if self.summary is None:
            datasets = [(d.name, d.series.values) for d in self.suite]
            self.summary = oracle.benchmark_summary(
                self.oracle, datasets, self.cfg.look_back, self.cfg.horizons, self.cfg.top_k, self.cfg.season_period
            )
        return self.summary

    def check(self, i, result) -> bool:
        expected = self.expected()
        got = {(row["dataset"], row["method"]): row["mse"] for row in result}
        if set(got) != set(expected):
            return False
        self.zoo_mse = float(np.mean([v for (_, method), v in got.items() if method == "zoocast"]))
        return all(oracle.agrees(got[key], expected[key]) for key in expected)

    def inherit(self, earlier) -> None:
        self.summary, self.zoo_mse = earlier.summary, earlier.zoo_mse

    def quality(self, runner) -> dict:
        """forecast_mse is the summary's zoocast MSE averaged over datasets;
        the top-1 share is taken over every evaluation window of every
        horizon, matched with the harness's top_k."""
        hits = []
        for horizon in self.cfg.horizons:
            cfg = fusion.FusionConfig(horizon=horizon, top_k=self.cfg.top_k)
            for family, d in enumerate(self.suite):
                for window, _ in oracle.tiled_windows(d.series.values, self.cfg.look_back, horizon):
                    _, selections, _ = fusion.forecast_multivariate(self.zoo, MultivariateSeries(window), cfg)
                    hits.append(self.family[selections[0].chosen[0]] == family)
        if self.zoo_mse is None:
            raise ValueError("no run_benchmark summary passed its check; there is no forecast_mse to report")
        return {"forecast_mse": self.zoo_mse, "selection_top1_share": float(np.mean(hits))}


class Build(Workload):
    """The offline half with the README's API defaults: transfer matrix
    (batch-1 SGD), extractor training, model representations, artifacts to
    disk, build_zoo and load_zoo.

    It trains on the same default family suite as the online workloads'
    zoo, so every seed builds the same bytes; the seed picks the held-out
    requests the built zoo is scored on. (Training suites drawn per seed
    make the scored MSE vary 13% from seed to seed.)"""

    name = "build"
    min_ops = 3
    # The built zoo is scored on held-out requests shaped like forecast-wide.
    quality_requests, channels, horizon, top_k = 32, 64, 48, 3

    def setup(self):
        self.suite = bench.default_family_suite(seed=0)
        self.pool = ChannelPool(
            self.rng, held_out_suite(self.seed, 2000), self.quality_requests, self.channels, self.horizon
        )
        self.manifest = None
        self.last = None
        # Warm-up: one short build through the same code path.
        build_zoo_dir(
            self.suite,
            self.workdir / "warmup",
            forecasters.TrainConfig(epochs=1),
            extractor.ExtractorTrainConfig(epochs=5),
        )

    def op(self, i):
        return build_zoo_dir(self.suite, self.workdir / f"build{i}")

    def check(self, i, result) -> bool:
        zoo_dir, built, reps = result
        manifest = (zoo_dir / "zoo.json").read_bytes()
        if self.manifest is None:
            self.manifest = manifest
        ok = manifest == self.manifest and [e.model_id for e in built.entries] == [d.name for d in self.suite]
        ok = ok and all(np.array_equal(e.representation, reps[e.model_id]) for e in built.entries)
        # One held-out request forecast by the built zoo, against the oracle.
        pred, selections, _ = fusion.forecast_multivariate(
            built, MultivariateSeries(self.pool.x[0]), fusion.FusionConfig(horizon=self.horizon, top_k=self.top_k)
        )
        expected, chosen = oracle.OracleZoo(zoo_dir).forecast(self.pool.x[0], self.horizon, self.top_k)
        ok = ok and oracle.agrees(pred.values, expected) and [s.chosen for s in selections] == chosen
        if self.last is not None and self.last != zoo_dir:
            shutil.rmtree(self.last.parent)
        self.last = zoo_dir
        return ok

    def inherit(self, earlier) -> None:
        self.manifest = earlier.manifest

    def quality(self, runner) -> dict:
        return score_pool(zoo.load_zoo(self.last), self.last, self.pool, self.horizon, self.top_k, runner)


WORKLOADS = {w.name: w for w in (ForecastWide, ForecastCli, Build, EvalHarness)}
