import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from zoocast import cli, forecasters
from zoocast.bench import BenchConfig, run_benchmark
from zoocast.cli import COMMANDS, build_parser, main, parse_flat_config
from zoocast.core import load_csv
from zoocast.zoo import load_zoo


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


def test_benchmark_reads_season_period(pipeline, tmp_path):
    root, datasets, zoo_dir = pipeline
    config = tmp_path / "bench.toml"
    config.write_text("datasets = [\"%s\"]\nhorizons = [6, 24]\nseason_period = 12\n" % datasets[0])
    report = tmp_path / "report.json"
    assert run_cli("benchmark", "--config", str(config), "--zoo", str(zoo_dir), "--out", str(report)) == 0
    got = [r for r in json.loads(report.read_bytes())["rows"] if r["method"] == "seasonal_naive"]
    cfg = BenchConfig(horizons=(6, 24), season_period=12)
    expected = run_benchmark(cfg, load_zoo(zoo_dir), [load_csv(datasets[0])])
    assert got == [r for r in expected["rows"] if r["method"] == "seasonal_naive"]
    default = run_benchmark(BenchConfig(horizons=(6, 24)), load_zoo(zoo_dir), [load_csv(datasets[0])])
    assert got != [r for r in default["rows"] if r["method"] == "seasonal_naive"]


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


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_build_zoo_without_samples_exits_with_error_line(pipeline, tmp_path, capsys, recwarn, samples):
    root, datasets, _ = pipeline
    rc = run_cli(
        "build-zoo", "--models", str(root / "sine.model.json"), "--data", str(datasets[0]),
        "--extractor", str(root / "extractor.json"), "--samples", samples, "--out", str(tmp_path / "zoo"),
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: sample_count must be >= 1, got {samples}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "zoo").exists()


def test_forecast_with_a_manifest_that_disagrees_with_its_models_exits_with_error_line(pipeline, tmp_path, capsys):
    root, datasets, zoo_dir = pipeline
    bad_zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, bad_zoo)
    manifest = json.loads((bad_zoo / "zoo.json").read_bytes())
    for entry in manifest["entries"]:
        entry["horizon"] = 5
    (bad_zoo / "zoo.json").write_bytes(json.dumps(manifest).encode())
    rc = run_cli("forecast", "--zoo", str(bad_zoo), "--input", str(datasets[0]), "--horizon", "6", "--out", str(tmp_path / "fc"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: entry '") and "horizon 5 != horizon 12 of its model file" in err
    assert not (tmp_path / "fc").exists()


@pytest.mark.parametrize("values", [[1e308] * 36, [1e308] * 18 + [-1e308] * 18], ids=["all-huge", "huge-then-minus-huge"])
def test_forecast_of_an_overflowing_channel_exits_with_error_line(pipeline, tmp_path, capsys, recwarn, values):
    _, _, zoo_dir = pipeline
    huge = tmp_path / "huge.csv"
    huge.write_text("t,a\n" + "".join(f"{t},{v!r}\n" for t, v in enumerate(values)))
    rc = run_cli("forecast", "--zoo", str(zoo_dir), "--input", str(huge), "--horizon", "6", "--out", str(tmp_path / "fc"))
    assert rc == 1
    assert capsys.readouterr().err == "error: channel 0: values overflow instance normalization\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "fc").exists()


@pytest.mark.parametrize("command", ["forecast", "train-ptm"])
def test_non_utf8_csv_exits_with_error_line(pipeline, tmp_path, capsys, command):
    root, _, zoo_dir = pipeline
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,a\n0,\xff\n")
    if command == "forecast":
        argv = ["forecast", "--zoo", str(zoo_dir), "--input", str(bad), "--horizon", "6", "--out", str(tmp_path / "fc")]
    else:
        argv = ["train-ptm", "--data", str(bad), "--out", str(tmp_path / "m.json")]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: bad.csv: line 2: not UTF-8 text (byte 0xff)\n"


def test_missing_file_exits_nonzero(tmp_path, capsys):
    rc = run_cli("train-ptm", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json"))
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_parse_flat_config():
    cfg = parse_flat_config("a = 1\nb = [1, 2]\nname = \"x\"  # comment\n\n# full comment\n")
    assert cfg == {"a": 1, "b": [1, 2], "name": "x"}
    with pytest.raises(ValueError, match="line 1"):
        parse_flat_config("not an assignment")


COMMAND_NAMES = [name for name, *_ in COMMANDS]


def _outcome(run, argv, capsys):
    """(exit code, stdout, stderr) of `run(argv)`, argparse exits included."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _full_parser(argv):
    build_parser().parse_args(argv)
    return 0


@pytest.mark.parametrize(
    "argv",
    [[name, "-h"] for name in COMMAND_NAMES]
    + [["-h"], [], ["bogus"], ["forecast", "--input", "x.csv", "--horizon", "3", "--out", "o"],
       ["evaluate", "--truth", "a.csv", "--pred", "b.csv", "--out", "c"]],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_main_parses_like_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    expected = _outcome(_full_parser, argv, capsys)
    assert _outcome(main, argv, capsys) == expected
    assert expected[0] == (0 if "-h" in argv else 2)


def test_top_level_help_lists_every_command(capsys):
    code, out, _ = _outcome(main, ["-h"], capsys)
    assert code == 0
    listed = out.split("{", 1)[1].split("}", 1)[0].split(",")
    assert listed == COMMAND_NAMES == [
        "train-ptm", "transfer-matrix", "train-extractor", "build-zoo", "embed",
        "forecast", "evaluate", "synth", "benchmark",
    ]
    help_rows = {line.split()[0] for line in out.splitlines() if line.startswith("    ") and line.strip()}
    assert set(COMMAND_NAMES) <= help_rows


def test_known_command_builds_only_its_own_sub_parser(monkeypatch):
    built = []
    real = build_parser

    def spy(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    with pytest.raises(SystemExit):
        main(["forecast", "--zoo", "z"])
    assert built == ["forecast"]
    assert real("forecast").format_usage() == "usage: zoocast [-h] {forecast} ...\n"


@pytest.mark.parametrize(
    "line, key",
    [
        ("horizons = 12", "horizons"),
        ("horizons = [\"6\"]", "horizons"),
        ("top_k = [1]", "top_k"),
        ("top_k = 2.7", "top_k"),
        ("datasets = [1]", "datasets"),
        ("datasets = \"a.csv\"", "datasets"),
        ("metrics = \"foo\"", "metrics"),
        ("look_back = true", "look_back"),
        ("season_period = \"7\"", "season_period"),
    ],
)
def test_benchmark_config_key_of_the_wrong_type_exits_with_error_line(pipeline, tmp_path, capsys, line, key):
    root, datasets, zoo_dir = pipeline
    config = tmp_path / "bench.cfg"
    config.write_text("datasets = [\"%s\"]\nhorizons = [6]\n%s\n" % (datasets[0], line))
    rc = run_cli("benchmark", "--config", str(config), "--zoo", str(zoo_dir), "--out", str(tmp_path / "r.json"))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: config key {key!r} must be ")
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_evaluate_names_an_unknown_metric(pipeline, capsys):
    root, datasets, _ = pipeline
    rc = run_cli("evaluate", "--truth", str(datasets[0]), "--pred", str(datasets[0]), "--metrics", "mse,foo")
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown metrics ['foo']; known metrics: ['mape', 'mse', 'smape']\n"
