import json
from pathlib import Path

import numpy as np
import pytest

from zoocast import forecasters
from zoocast.cli import main, parse_flat_config
from zoocast.core import load_csv


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full pipeline from an empty directory: synth -> train-ptm x2 ->
    transfer-matrix -> train-extractor -> build-zoo."""
    root = tmp_path_factory.mktemp("pipeline")
    datasets = []
    for kind, period, seed in (("sine", 12, 0), ("sawtooth", 9, 1)):
        csv = root / f"{kind}.csv"
        assert run_cli(
            "synth", "--kind", kind, "--period", str(period), "--noise", "0.05",
            "--length", "300", "--seed", str(seed), "--out", str(csv),
        ) == 0
        datasets.append(csv)
    models = []
    for csv in datasets:
        model = root / f"{csv.stem}.model.json"
        assert run_cli(
            "train-ptm", "--data", str(csv), "--arch", "linear",
            "--input-len", "36", "--horizon", "12", "--epochs", "3", "--out", str(model),
        ) == 0
        models.append(model)
    tm = root / "tm.json"
    assert run_cli(
        "transfer-matrix", "--datasets", ",".join(map(str, datasets)),
        "--input-len", "36", "--horizon", "12", "--epochs", "3", "--out", str(tm),
    ) == 0
    ext = root / "extractor.json"
    assert run_cli(
        "train-extractor", "--datasets", ",".join(map(str, datasets)),
        "--transfer-matrix", str(tm), "--epochs", "10", "--windows-per-dataset", "8",
        "--dim", "8", "--hidden-dim", "16", "--out", str(ext),
    ) == 0
    zoo_dir = root / "zoo"
    assert run_cli(
        "build-zoo", "--models", ",".join(map(str, models)),
        "--data", ",".join(map(str, datasets)), "--extractor", str(ext),
        "--samples", "16", "--out", str(zoo_dir),
    ) == 0
    return root, datasets, zoo_dir


def test_pipeline_artifacts_exist(pipeline):
    root, datasets, zoo_dir = pipeline
    assert (zoo_dir / "zoo.json").exists()
    assert (zoo_dir / "extractor.json").exists()


def test_forecast_end_to_end(pipeline, tmp_path):
    root, datasets, zoo_dir = pipeline
    out = tmp_path / "fc"
    assert run_cli(
        "forecast", "--zoo", str(zoo_dir), "--input", str(datasets[0]),
        "--horizon", "24", "--top-k", "2", "--out", str(out),
    ) == 0
    lines = (out / "forecast.csv").read_text().strip().splitlines()
    assert lines[0] == "channel,step,value"
    assert len(lines) == 1 + 24  # one channel
    provenance = json.loads((out / "provenance.json").read_text())
    chan = provenance["channels"][0]
    assert len(chan["ranking"]) == 2
    assert len(chan["chosen"]) == 2
    assert chan["norm_stats"]["std"] > 0


def test_forecast_short_history_fails(pipeline, tmp_path, capsys):
    root, datasets, zoo_dir = pipeline
    short = tmp_path / "short.csv"
    short.write_text("t,a\n" + "\n".join(f"{i},{i}" for i in range(10)) + "\n")
    rc = run_cli("forecast", "--zoo", str(zoo_dir), "--input", str(short), "--horizon", "6", "--out", str(tmp_path / "x"))
    assert rc != 0
    assert "36" in capsys.readouterr().err


def test_embed_with_pca(pipeline, tmp_path):
    root, datasets, zoo_dir = pipeline
    out = tmp_path / "embed.csv"
    assert run_cli(
        "embed", "--zoo", str(zoo_dir), "--input", str(datasets[0]), "--pca", "2", "--out", str(out)
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "label,kind,pc1,pc2"
    kinds = [line.split(",")[1] for line in lines[1:]]
    assert "ptm" in kinds and "variate" in kinds


def test_evaluate_identical_files(pipeline, capsys):
    root, datasets, _ = pipeline
    rc = run_cli(
        "evaluate", "--truth", str(datasets[0]), "--pred", str(datasets[0]),
        "--metrics", "mse,smape", "--json",
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mse"] == 0.0
    assert payload["smape"] == 0.0


def test_benchmark_command(pipeline, tmp_path, capsys):
    root, datasets, zoo_dir = pipeline
    config = tmp_path / "bench.toml"
    config.write_text(
        "datasets = [\"%s\"]\n" % datasets[0]
        + "look_back = 36\nhorizons = [6, 8]\ntrials = 1\nmetrics = [\"mse\"]\n"
    )
    report = tmp_path / "report.json"
    assert run_cli("benchmark", "--config", str(config), "--zoo", str(zoo_dir), "--out", str(report), "--json") == 0
    payload = json.loads(report.read_bytes())
    methods = {r["method"] for r in payload["rows"]}
    assert methods == {"zoocast", "last", "mean", "seasonal_naive"}


def test_benchmark_determinism_bytes(pipeline, tmp_path):
    root, datasets, zoo_dir = pipeline
    config = tmp_path / "bench.toml"
    config.write_text("datasets = [\"%s\"]\nlook_back = 36\nhorizons = [6]\ntrials = 1\n" % datasets[0])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("benchmark", "--config", str(config), "--zoo", str(zoo_dir), "--out", str(r1)) == 0
    assert run_cli("benchmark", "--config", str(config), "--zoo", str(zoo_dir), "--out", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_train_ptm_determinism(pipeline, tmp_path):
    root, datasets, _ = pipeline
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(
            "train-ptm", "--data", str(datasets[0]), "--epochs", "2", "--seed", "7", "--out", str(out)
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_ptm_defaults_match_the_api(pipeline, tmp_path):
    root, datasets, _ = pipeline
    out = tmp_path / "cli.json"
    assert run_cli("train-ptm", "--data", str(datasets[0]), "--out", str(out)) == 0
    spec = forecasters.ForecasterSpec("linear", 36, 12)
    model = forecasters.train(spec, load_csv(datasets[0]), forecasters.TrainConfig())
    assert out.read_bytes() == forecasters.save(model)


def test_malformed_model_spec_exits_with_error_line(pipeline, tmp_path, capsys):
    root, datasets, _ = pipeline
    payload = json.loads((root / "sine.model.json").read_bytes())
    payload["spec"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = run_cli(
        "build-zoo", "--models", str(bad), "--data", str(datasets[0]),
        "--extractor", str(root / "extractor.json"), "--out", str(tmp_path / "zoo"),
    )
    assert rc == 1
    assert "error: model file field 'spec'" in capsys.readouterr().err


def test_missing_file_exits_nonzero(tmp_path, capsys):
    rc = run_cli("train-ptm", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json"))
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_parse_flat_config():
    cfg = parse_flat_config("a = 1\nb = [1, 2]\nname = \"x\"  # comment\n\n# full comment\n")
    assert cfg == {"a": 1, "b": [1, 2], "name": "x"}
    with pytest.raises(ValueError, match="line 1"):
        parse_flat_config("not an assignment")
