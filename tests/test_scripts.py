"""Smoke tests for the experiment scripts under scripts/: each runs end to
end in a fresh interpreter and writes a well-formed report. Values are
checked for shape and finiteness only, as their bits depend on the BLAS
build, except against a reference computed here on the same build."""

import hashlib
import importlib.util
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zoocast import forecasters
from zoocast.bench import BenchConfig, default_family_suite
from zoocast.core import denormalize, mse, normalize
from zoocast.forecasters import ForecasterSpec
from zoocast.fusion import match
from zoocast.zoo import zoo_from_suite

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run_script(name, out, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out", str(out), *args],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"report written to {out}" in proc.stdout
    return json.loads(out.read_text(encoding="utf-8"))


def test_run_selection_study_writes_a_finite_report(tmp_path):
    report = _run_script("run_selection_study.py", tmp_path / "study.json")
    assert set(report) == {"accuracy", "beats_median", "confusion", "families", "seed", "eval_seed"}
    assert (report["seed"], report["eval_seed"]) == (0, 100)
    assert len(report["families"]) == 5
    assert [len(row) for row in report["confusion"]] == [5] * 5
    assert [sum(row) for row in report["confusion"]] == [100] * 5  # --windows-per-family default
    for key in ("accuracy", "beats_median"):
        assert math.isfinite(report[key]) and 0.0 <= report[key] <= 1.0
    diagonal = sum(report["confusion"][i][i] for i in range(5))
    assert report["accuracy"] == diagonal / 500


def test_run_selection_study_summarizes_each_family_count_and_noise_over_seeds(tmp_path):
    report = _run_script(
        "run_selection_study.py", tmp_path / "study.json", "--seed", "0-1", "--families", "2", "--windows-per-family", "12"
    )
    assert set(report) == {"runs", "summary"}
    runs = report["runs"]
    assert [(run["families_count"], run["noise"], run["seed"]) for run in runs] == [(2, 0.05, 0), (2, 0.05, 1)]
    for run in runs:  # each trained run is a one-seed report over the first two families
        assert run["report"] is not None, f"seed {run['seed']} diverged"  # a flat rate of 0.02 diverged on both
        assert (run["report"]["seed"], run["report"]["eval_seed"]) == (run["seed"], 100 + run["seed"])
        assert run["report"]["families"] == [d.name for d in default_family_suite(seed=run["seed"])[:2]]
        assert [sum(row) for row in run["report"]["confusion"]] == [12, 12]
    scores = [run["report"]["accuracy"] for run in runs]
    calibration = {}
    for key in STUDY.CALIBRATION:  # with two models a pick beats the median when it is the best, so an AUROC may be None
        values = [run["calibration"][key] for run in runs if run["calibration"][key] is not None]
        assert all(0.0 <= value <= 1.0 for value in values)
        calibration[f"mean_{key}"] = float(np.mean(values)) if values else None
        calibration[f"{key}_range"] = [min(values), max(values)] if values else None
    assert [run["calibration"]["beats_median"] for run in runs] == [run["report"]["beats_median"] for run in runs]
    assert report["summary"] == [{
        "families_count": 2, "noise": 0.05, "seeds": [0, 1], "diverged_seeds": [],
        "mean_accuracy": float(np.mean(scores)), "min_accuracy": min(scores), **calibration,
    }]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STUDY = _load_script("run_selection_study")


def _pair_count_auroc(scores, labels):
    """The AUROC counted over every (positive, negative) pair, a tie as half."""
    positives = [s for s, label in zip(scores, labels) if label]
    negatives = [s for s, label in zip(scores, labels) if not label]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in itertools.product(positives, negatives))
    return wins / (len(positives) * len(negatives))


@pytest.mark.parametrize("seed", range(20))
def test_auroc_counts_every_pair_and_a_tie_as_half(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 40))
    scores = rng.integers(0, 5, size) / 4.0 if seed % 2 else rng.normal(size=size)  # even seeds: ties are rare
    labels = rng.random(size) < 0.5
    labels[:2] = [True, False]
    assert STUDY.auroc(scores, labels) == pytest.approx(_pair_count_auroc(scores, labels), abs=1e-12)


@pytest.mark.parametrize(
    "scores, labels, expected",
    [
        ([3.0, 1.0], [True, False], 1.0),
        ([1.0, 3.0], [True, False], 0.0),
        ([2.0, 2.0, 2.0], [True, False, False], 0.5),
        ([1.0, 2.0, 2.0, 3.0], [False, True, False, True], 0.875),
        ([1.0, 2.0], [True, True], None),
        ([1.0, 2.0], [False, False], None),
    ],
)
def test_auroc_of_small_cases(scores, labels, expected):
    assert STUDY.auroc(scores, labels) == expected


def _per_window_study(windows_per_family):
    """The selection study one window at a time, through `match` and the
    1-D `forecast`, on the script's default suite, zoo and draws."""
    suite = default_family_suite(seed=0, noise_std=0.05)
    names = [d.name for d in suite]
    zoo, _ = zoo_from_suite(suite, ForecasterSpec("linear", 36, 12), seed=0)
    rng = np.random.default_rng(0)
    confusion = np.zeros((5, 5), dtype=int)
    max_cosine, margin, beats_median, best = [], [], [], []
    for family, data in enumerate(default_family_suite(seed=100, noise_std=0.05)):
        chan = data.series.channel(0)
        for s in rng.integers(0, len(chan) - 48 + 1, windows_per_family):
            window, truth = chan[s : s + 36], chan[s + 36 : s + 48]
            ranking = match(zoo, window).ranking
            picked = ranking[0][0]
            confusion[family, names.index(picked)] += 1
            norm_win, stats = normalize(window)
            errors = {n: mse(truth, denormalize(forecasters.forecast(zoo.forecaster(n), norm_win), stats)) for n in names}
            beats_median.append(errors[picked] <= np.median(list(errors.values())))
            best.append(errors[picked] == min(errors.values()))
            max_cosine.append(ranking[0][1])
            margin.append(ranking[0][1] - ranking[1][1])
    calibration = {"beats_median": sum(beats_median) / confusion.sum()}
    for name, signal in (("max_cosine", max_cosine), ("margin", margin)):
        for event, outcome in (("beats_median", beats_median), ("best", best)):
            calibration[f"{name}_auroc_{event}"] = _pair_count_auroc(signal, outcome)
    return {"accuracy": float(np.trace(confusion) / confusion.sum()), "beats_median": sum(beats_median) / confusion.sum(),
            "confusion": confusion.tolist(), "families": names, "calibration": calibration}


def test_run_selection_study_matches_the_per_window_study(tmp_path):
    # the script scores every window in one batched pass; each window must get the pick and errors it gets alone
    reference = _per_window_study(12)
    calibration = reference.pop("calibration")
    report = _run_script("run_selection_study.py", tmp_path / "study.json", "--windows-per-family", "12")
    assert {key: report[key] for key in ("accuracy", "beats_median", "confusion", "families")} == reference
    # seed 0 of a multi-seed run draws the same windows, and its AUROCs count every (positive, negative) pair
    runs = _run_script("run_selection_study.py", tmp_path / "runs.json", "--seed", "0-1", "--windows-per-family", "12")["runs"]
    assert runs[0]["report"] == report
    assert set(runs[0]["calibration"]) == set(calibration) == set(STUDY.CALIBRATION)
    for key, value in calibration.items():
        assert runs[0]["calibration"][key] == pytest.approx(value, abs=1e-12), key


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_full_pipeline_prints_a_digest_of_every_file_it_writes(tmp_path):
    # a decoy installed `zoocast` first on PATH: the script must run this checkout
    decoy = tmp_path / "bin" / "zoocast"
    decoy.parent.mkdir()
    decoy.write_text("#!/bin/sh\nexit 3\n", encoding="utf-8")
    decoy.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join([str(decoy.parent), env.get("PATH", "")])
    work = tmp_path / "work"
    proc = subprocess.run(
        ["bash", str(ROOT / "scripts" / "full_pipeline.sh"), str(work)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("artifact digests:\n", 1)[1].splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    digests = dict(reversed(line.split("  ", 1)) for line in lines)  # file -> its printed sha256
    assert len(lines) == len(digests) == 20  # the artifacts, outputs and synthesized CSVs, once each
    for name, digest in digests.items():
        assert hashlib.sha256((work / name).read_bytes()).hexdigest() == digest, name
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    assert set(report) == {"config", "format_version", "rows", "summary", "warnings", "zoo_distribution"}
    assert report["format_version"] == 2
    assert report["warnings"] == []
    cfg = BenchConfig()  # `zoocast benchmark`'s flags default to the harness's own config
    assert report["config"] == {
        "look_back": cfg.look_back, "horizons": list(cfg.horizons), "metrics": list(cfg.metrics), "top_k": cfg.top_k,
    }
    methods = {"zoocast", "last", "mean", "seasonal_naive"}
    datasets = {row["dataset"] for row in report["summary"]}
    assert len(datasets) == 5
    assert {(row["dataset"], row["method"]) for row in report["summary"]} == {(d, m) for d in datasets for m in methods}
    values = [row["mse"] for key in ("rows", "summary", "zoo_distribution") for row in report[key]]
    assert all(set(row["windows"]) == set(report["config"]["metrics"]) for row in report["rows"])
    values += [value for row in report["rows"] for window_values in row["windows"].values() for value in window_values]
    assert values and all(math.isfinite(v) and v >= 0 for v in values)
