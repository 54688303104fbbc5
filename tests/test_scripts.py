"""Smoke tests for the experiment scripts under scripts/: each runs end to
end in a fresh interpreter and writes a well-formed report. Values are
checked for shape and finiteness only; their bits depend on the BLAS build."""

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run_script(name, out):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out", str(out)],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"report written to {out}" in proc.stdout
    return json.loads(out.read_text(encoding="utf-8"))


def test_run_zoo_benchmark_writes_a_finite_report(tmp_path):
    report = _run_script("run_zoo_benchmark.py", tmp_path / "report.json")
    assert set(report) == {"config", "format_version", "rows", "summary", "warnings", "zoo_distribution"}
    assert report["format_version"] == 2
    assert report["warnings"] == []
    methods = {"zoocast", "last", "mean", "seasonal_naive"}
    datasets = {row["dataset"] for row in report["summary"]}
    assert len(datasets) == 5
    assert {(row["dataset"], row["method"]) for row in report["summary"]} == {(d, m) for d in datasets for m in methods}
    values = [row["mse"] for key in ("rows", "summary", "zoo_distribution") for row in report[key]]
    assert all(set(row["windows"]) == set(report["config"]["metrics"]) for row in report["rows"])
    values += [value for row in report["rows"] for window_values in row["windows"].values() for value in window_values]
    assert values and all(math.isfinite(v) and v >= 0 for v in values)


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
    assert json.loads((work / "report.json").read_text(encoding="utf-8"))["format_version"] == 2
