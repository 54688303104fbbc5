import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from zoocast import cli, forecasters
from zoocast.bench import BenchConfig, run_benchmark
from zoocast.cli import COMMANDS, build_parser, main, parse_flat_config
from zoocast.core import load_csv, normalize
from zoocast.extractor import encode
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


def test_embed_of_every_channel_equals_each_channels_encoding(pipeline, tmp_path):
    root, datasets, zoo_dir = pipeline
    values = np.random.default_rng(4).normal(size=(50, 3)) * [1.0, 1e-3, 1e3]
    values[:, 1] = 7.0  # a constant channel takes the std fallback
    multi = tmp_path / "multi.csv"
    multi.write_text("t,a,b,c\n" + "".join(f"{t},{','.join(map(repr, row.tolist()))}\n" for t, row in enumerate(values)))
    out = tmp_path / "embed.csv"
    assert run_cli("embed", "--zoo", str(zoo_dir), "--input", str(multi), "--out", str(out)) == 0
    params = load_zoo(zoo_dir).extractor_params
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[-3:]]
    assert [row[:2] for row in rows] == [["a", "variate"], ["b", "variate"], ["c", "variate"]]
    for row, column in zip(rows, values[-params.input_len :].T):
        assert [float(v) for v in row[2:]] == encode(params, normalize(column)[0]).tolist()


def test_embed_names_the_first_overflowing_channel(pipeline, tmp_path, capsys, recwarn):
    root, datasets, zoo_dir = pipeline
    multi = tmp_path / "multi.csv"
    multi.write_text("t,a,b,c\n" + "".join(f"{t},{t},{(-1) ** t * 1e200!r},1e308\n" for t in range(60)))
    assert run_cli("embed", "--zoo", str(zoo_dir), "--input", str(multi), "--out", str(tmp_path / "e.csv")) == 1
    assert capsys.readouterr().err == "error: channel 1: values overflow instance normalization\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda payload: payload["spec"].update(input_len=36.0),
         "model file field 'spec' is invalid: field 'input_len' must be an integer, got 36.0"),
        (lambda payload: payload.update(source_dataset=5), "model file field 'source_dataset' must be a string, got 5"),
    ],
    ids=["float-input-len", "numeric-source-dataset"],
)
def test_build_zoo_rejects_a_model_field_of_the_wrong_type(pipeline, tmp_path, capsys, edit, message):
    # each used to build a zoo that load_zoo then rejected
    root, datasets, _ = pipeline
    payload = json.loads((root / "sine.model.json").read_bytes())
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = run_cli(
        "build-zoo", "--models", str(bad), "--data", str(datasets[0]),
        "--extractor", str(root / "extractor.json"), "--out", str(tmp_path / "zoo"),
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "zoo").exists()


def test_forecast_rejects_a_zoo_model_with_a_float_horizon(pipeline, tmp_path, capsys):
    # used to end in a TypeError traceback from fusion.sequential_forecast
    root, datasets, zoo_dir = pipeline
    zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, zoo)
    manifest = json.loads((zoo / "zoo.json").read_bytes())
    for entry in manifest["entries"]:
        payload = json.loads((zoo / entry["file"]).read_bytes())
        payload["spec"]["horizon"] = 12.0
        blob = json.dumps(payload).encode()
        (zoo / entry["file"]).write_bytes(blob)
        entry["digest"] = hashlib.sha256(blob).hexdigest()
    (zoo / "zoo.json").write_bytes(json.dumps(manifest).encode())
    rc = run_cli("forecast", "--zoo", str(zoo), "--input", str(datasets[0]), "--horizon", "24", "--out", str(tmp_path / "fc"))
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: model file field 'spec' is invalid: field 'horizon' must be an integer, got 12.0\n"
    )


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


@pytest.mark.parametrize(
    "values",
    [[1e308] * 36, [1e308] * 18 + [-1e308] * 18, [1.7e308, -1.7e308] * 18],
    ids=["all-huge", "huge-then-minus-huge", "alternating-huge"],  # the last sums to inf - inf = nan
)
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


def test_non_utf8_benchmark_config_exits_with_error_line(pipeline, tmp_path, capsys):
    _, _, zoo_dir = pipeline
    config = tmp_path / "bench.cfg"
    config.write_bytes("horizons = [6]\ndatasets = [\"café.csv\"]\n".encode("latin-1"))
    rc = run_cli("benchmark", "--config", str(config), "--zoo", str(zoo_dir), "--out", str(tmp_path / "r.json"))
    assert rc == 1
    assert capsys.readouterr().err == "error: bench.cfg: line 2: not UTF-8 text (byte 0xe9)\n"
    assert not (tmp_path / "r.json").exists()


def test_missing_file_exits_nonzero(tmp_path, capsys):
    rc = run_cli("train-ptm", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json"))
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_parse_flat_config():
    cfg = parse_flat_config("a = 1\nb = [1, 2]\nname = \"x\"  # comment\n\n# full comment\n")
    assert cfg == {"a": 1, "b": [1, 2], "name": "x"}
    with pytest.raises(ValueError, match="line 1"):
        parse_flat_config("not an assignment")


@pytest.mark.parametrize(
    "line, value",
    [
        ('datasets = ["a#1.csv"]  # c', ["a#1.csv"]),
        ('name = "x#y"', "x#y"),
        ("name = x#y", "x"),
        ("name = 'x' # c", "x"),
        ("pair = 1 2 # c", "1 2"),
        ("n = 12#c", 12),
        ('open = "x#y', "x"),
    ],
)
def test_parse_flat_config_reads_a_hash_inside_a_json_value(line, value):
    # a dataset path holding "#" was once cut at it
    assert parse_flat_config(line) == {line.split("=")[0].strip(): value}


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


def test_evaluate_rejects_a_repeated_metric(pipeline, capsys):
    # was exit 0, printing mse once
    root, datasets, _ = pipeline
    rc = run_cli("evaluate", "--truth", str(datasets[0]), "--pred", str(datasets[0]), "--metrics", "mse,mse")
    assert rc == 1
    assert capsys.readouterr().err == "error: metrics name 'mse' more than once\n"


@pytest.mark.parametrize("kind", ["sine", "random_walk"])
def test_synth_rejects_a_nan_noise(tmp_path, capsys, kind):
    # was exit 0: `nan > 0` is false, so sine wrote noise-free data and random_walk used scale 1.0
    rc = run_cli("synth", "--kind", kind, "--noise", "nan", "--out", str(tmp_path / "s.csv"))
    assert rc == 1
    assert capsys.readouterr().err == "error: field 'noise_std' must be a finite number, got nan\n"
    assert not (tmp_path / "s.csv").exists()


def test_synth_names_an_infinite_amplitude(tmp_path, capsys):
    # was "error: non-finite input", naming no field
    rc = run_cli("synth", "--kind", "sine", "--amplitude", "inf", "--out", str(tmp_path / "s.csv"))
    assert rc == 1
    assert capsys.readouterr().err == "error: field 'amplitude' must be a finite number, got inf\n"


@pytest.mark.parametrize("kind", ["sine", "random_walk", "ar1"])
@pytest.mark.parametrize("amplitude", ["1", "1e308"])
def test_synth_names_a_noise_that_overflows(tmp_path, capsys, kind, amplitude):
    # was "error: non-finite input", naming no field, after a RuntimeWarning for a huge amplitude
    out = tmp_path / "s.csv"
    rc = run_cli("synth", "--kind", kind, "--amplitude", amplitude, "--noise", "1e308", "--length", "50", "--out", str(out))
    assert rc == 1
    expected = f"amplitude {float(amplitude)!r} and noise_std 1e+308 overflow float64 in a series of kind '{kind}'"
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--dim", "0"], "epochs, windows_per_dataset, hidden_dim and repr_dim must be >= 1"),
        (["--hidden-dim", "0"], "epochs, windows_per_dataset, hidden_dim and repr_dim must be >= 1"),
        (["--windows-per-dataset", "0"], "epochs, windows_per_dataset, hidden_dim and repr_dim must be >= 1"),
        (["--epochs", "0"], "epochs, windows_per_dataset, hidden_dim and repr_dim must be >= 1"),
        (["--input-len", "0"], "input_len must be >= 1, got 0"),
    ],
)
def test_train_extractor_zero_size_exits_with_error_line(pipeline, tmp_path, capsys, recwarn, flags, message):
    root, datasets, _ = pipeline
    out = tmp_path / "ext.json"
    rc = run_cli(
        "train-extractor", "--datasets", ",".join(map(str, datasets)), "--transfer-matrix", str(root / "tm.json"),
        "--epochs", "1", "--windows-per-dataset", "2", *flags, "--out", str(out),
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_train_extractor_on_one_window_per_epoch_exits_with_error_line(pipeline, tmp_path, capsys, recwarn):
    root, datasets, _ = pipeline
    tm = tmp_path / "tm.json"
    tm.write_bytes(cli.zoo_mod.TransferMatrix(("sine",), np.eye(1)).to_bytes())
    out = tmp_path / "ext.json"
    rc = run_cli(
        "train-extractor", "--datasets", str(datasets[0]), "--transfer-matrix", str(tm),
        "--windows-per-dataset", "1", "--out", str(out),
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: an epoch needs at least 2 windows (constraint needs negatives)\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_train_extractor_on_a_dataset_the_transfer_matrix_lacks_exits_with_error_line(pipeline, tmp_path, capsys):
    # a KeyError once printed this message in quotes
    root, datasets, _ = pipeline
    missing = tmp_path / "c.csv"
    shutil.copy(datasets[0], missing)
    out = tmp_path / "ext.json"
    rc = run_cli(
        "train-extractor", "--datasets", f"{datasets[0]},{missing}", "--transfer-matrix", str(root / "tm.json"),
        "--epochs", "1", "--windows-per-dataset", "2", "--out", str(out),
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: transfer matrix has no entry for dataset 'c'\n"
    assert not out.exists()


@pytest.mark.parametrize("metric", ["mse", "smape", "mape"])
def test_evaluate_of_overflowing_values_exits_with_error_line(tmp_path, capsys, recwarn, metric):
    truth, pred = tmp_path / "truth.csv", tmp_path / "pred.csv"
    truth.write_text("t,a\n0,1e308\n1,-1e308\n")
    pred.write_text("t,a\n0,-1e308\n1,1e308\n")
    rc = run_cli("evaluate", "--truth", str(truth), "--pred", str(pred), "--metrics", metric)
    assert rc == 1
    assert capsys.readouterr().err == f"error: metric '{metric}' overflows float64 on these values\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["train-ptm", "transfer-matrix", "build-zoo", "embed"])
def test_overflowing_values_exit_with_error_line(pipeline, tmp_path, capsys, recwarn, command):
    # squares of +-1e200 overflow the windows' population std
    root, datasets, zoo_dir = pipeline
    huge = tmp_path / "huge.csv"
    huge.write_text("t,a\n" + "".join(f"{t},{(-1) ** t * 1e200!r}\n" for t in range(300)))
    argv = {
        "train-ptm": ["--data", str(huge)],
        "transfer-matrix": ["--datasets", f"{datasets[0]},{huge}", "--epochs", "1"],
        "build-zoo": ["--models", str(root / "sine.model.json"), "--data", str(huge), "--extractor", str(root / "extractor.json")],
        "embed": ["--zoo", str(zoo_dir), "--input", str(huge)],
    }[command]
    out = tmp_path / "out"
    assert run_cli(command, *argv, "--out", str(out)) == 1
    where = "channel 0" if command == "embed" else "dataset 'huge'"
    assert capsys.readouterr().err == f"error: {where}: values overflow instance normalization\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_embed_pca_of_huge_representations_exits_with_error_line(pipeline, tmp_path, capsys, recwarn):
    # two opposite representations whose squared norms stay finite, so they load,
    # but whose squares sum to more than float64 holds in the PCA's covariance
    root, datasets, zoo_dir = pipeline
    huge_zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, huge_zoo)
    manifest = json.loads((huge_zoo / "zoo.json").read_bytes())
    for entry, sign in zip(manifest["entries"], (1.0, -1.0)):
        entry["representation"] = [sign * 1.3e154] + [0.0] * (len(entry["representation"]) - 1)
    (huge_zoo / "zoo.json").write_bytes(json.dumps(manifest).encode())
    out = tmp_path / "embed.csv"
    assert run_cli("embed", "--zoo", str(huge_zoo), "--input", str(datasets[0]), "--pca", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: PCA of 3 representations overflows float64\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def _benchmark_with_model_files(pipeline, tmp_path, horizons, edits, update_digest=True):
    """Run `zoocast benchmark` on the first dataset with a copy of the zoo in
    which `edits[model_id]` maps that model file's bytes to new ones. The
    second entry takes the first one's representation, so every window
    matches the first entry (ties keep manifest order) and never the second."""
    root, datasets, zoo_dir = pipeline
    zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, zoo)
    manifest = json.loads((zoo / "zoo.json").read_bytes())
    manifest["entries"][1]["representation"] = manifest["entries"][0]["representation"]
    for entry in manifest["entries"]:
        if entry["model_id"] in edits:
            blob = edits[entry["model_id"]]((zoo / entry["file"]).read_bytes())
            (zoo / entry["file"]).write_bytes(blob)
            if update_digest:
                entry["digest"] = hashlib.sha256(blob).hexdigest()
    (zoo / "zoo.json").write_bytes(json.dumps(manifest).encode())
    config = tmp_path / "bench.cfg"
    config.write_text(f"datasets = {json.dumps([str(datasets[0])])}\nhorizons = {json.dumps(list(horizons))}\n")
    out = tmp_path / "report.json"
    return run_cli("benchmark", "--config", str(config), "--zoo", str(zoo), "--out", str(out)), out


def _scaled_weights(blob, scale=1e300):
    payload = json.loads(blob)
    payload["weights"]["W"] = (scale * np.asarray(payload["weights"]["W"])).tolist()
    return json.dumps(payload).encode()


@pytest.mark.parametrize(
    "edit, update_digest, message",
    [
        (lambda blob: blob + b" ", False, "digest mismatch for entry 'sine.model' (sine.model.model.json)"),
        (lambda blob: b"[1]", True, "malformed model file: holds a list, not an object"),
    ],
    ids=["digest", "parse"],
)
def test_benchmark_zoo_fault_comes_out_in_the_zoo_own_words(pipeline, tmp_path, capsys, edit, update_digest, message):
    # the matched model's file is first read inside the stacked request, which prefixes only channel faults
    rc, out = _benchmark_with_model_files(pipeline, tmp_path, [6], {"sine.model": edit}, update_digest)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "model_id, horizons, message",
    [
        # one block: every forecast of the matched model is finite, but its squared error is not
        ("sine.model", [6], "metric 'mse' overflows float64 on these values"),
        # two blocks: the model matching never picks turns infinite in its own run
        ("sawtooth.model", [24], "dataset 'sine', horizon 24: model 'sawtooth.model' forecast diverged"),
    ],
    ids=["metric-overflow", "unmatched-model-diverges"],
)
def test_benchmark_numeric_fault_exits_with_error_line(pipeline, tmp_path, capsys, recwarn, model_id, horizons, message):
    rc, out = _benchmark_with_model_files(pipeline, tmp_path, horizons, {model_id: _scaled_weights})
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_an_error_quoting_a_line_break_stays_on_one_line(pipeline, tmp_path, capsys):
    root, datasets, _ = pipeline
    payload = json.loads((root / "sine.model.json").read_bytes())
    payload["spec"]["\n"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc = run_cli(
        "build-zoo", "--models", str(bad), "--data", str(datasets[0]),
        "--extractor", str(root / "extractor.json"), "--out", str(tmp_path / "zoo"),
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: model file field 'spec' is invalid: ") and err.endswith("argument '\\n'\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("look_back = 0", "look_back must be >= 1, got 0"),
        ("horizons = [-36]", "horizons must be >= 1, got [-36]"),  # was a ZeroDivisionError traceback
        ("top_k = 0", "top_k must be >= 1"),
        ("season_period = 0", "season_period must be >= 1"),
        ("metrics = [\"mse\", \"mse\"]", "metrics name 'mse' more than once"),  # was exit 0, every record twice
    ],
)
def test_benchmark_config_value_out_of_range_exits_with_error_line(pipeline, tmp_path, capsys, line, message):
    root, datasets, zoo_dir = pipeline
    config = tmp_path / "bench.cfg"
    config.write_text("datasets = [\"%s\"]\nhorizons = [6]\n%s\n" % (datasets[0], line))
    rc = run_cli("benchmark", "--config", str(config), "--zoo", str(zoo_dir), "--out", str(tmp_path / "r.json"))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_benchmark_names_every_config_key_it_does_not_read(pipeline, tmp_path, capsys):
    root, datasets, zoo_dir = pipeline
    config = tmp_path / "bench.cfg"
    config.write_text("datasets = [\"%s\"]\nhorizon = [12]\nhorizons = [6]\ntrials = 1\n" % datasets[0])
    report = tmp_path / "report.json"
    assert run_cli("benchmark", "--config", str(config), "--zoo", str(zoo_dir), "--out", str(report), "--json") == 0
    known = "['datasets', 'horizons', 'look_back', 'metrics', 'season_period', 'top_k']"
    warnings = json.loads(capsys.readouterr().out)["warnings"]
    assert warnings == [
        f"config key 'horizon' is not read; known keys: {known}",
        f"config key 'trials' is not read; known keys: {known}",
    ]
    expected = run_benchmark(BenchConfig(horizons=(6,)), load_zoo(zoo_dir), [load_csv(datasets[0])])
    assert report.read_bytes() == cli.bench.report_to_bytes(expected)


# -- every optional flag (or config key) reaches its config field --------------


class _Called(Exception):
    """Stops a command at the API call whose arguments a test captured."""


def _handed_to(monkeypatch, module, name, argv) -> tuple:
    """The (args, kwargs) that `zoocast argv` hands to `module.name`,
    which is not run."""
    seen = []

    def spy(*args, **kwargs):
        seen.append((args, kwargs))
        raise _Called

    monkeypatch.setattr(module, name, spy)
    with pytest.raises(_Called):
        main(argv)
    return seen[0]


MODEL_FLAGS = [
    "--arch", "patch-mlp", "--input-len", "24", "--horizon", "6", "--patch-len", "8", "--hidden-dim", "16",
    "--epochs", "3", "--lr", "0.01", "--batch-size", "4", "--stride", "2", "--seed", "5",
]
MODEL_CONFIGS = (
    forecasters.ForecasterSpec("patch_mlp", 24, 6, patch_len=8, hidden_dim=16),
    forecasters.TrainConfig(epochs=3, learning_rate=0.01, batch_size=4, seed=5, stride=2),
)
DEFAULT_MODEL_CONFIGS = (forecasters.ForecasterSpec("linear", 36, 12), forecasters.TrainConfig())
FULL_BENCH_CONFIG = (
    'datasets = ["a.csv"]\nlook_back = 24\nhorizons = [6, 12]\nmetrics = ["mse", "smape"]\ntop_k = 2\nseason_period = 12\n'
)

# command: (required argv, optional argv, API module, API function, picks
# the configs from its (args, kwargs), configs for the optional argv, defaults)
FLAG_CASES = {
    "train-ptm": (
        ["--data", "a.csv"], MODEL_FLAGS, forecasters, "train",
        lambda a, k: (a[0], a[2]), MODEL_CONFIGS, DEFAULT_MODEL_CONFIGS,
    ),
    "transfer-matrix": (
        ["--datasets", "a.csv,b.csv"], MODEL_FLAGS, cli.zoo_mod, "compute_transfer_matrix",
        lambda a, k: a[1:], MODEL_CONFIGS, DEFAULT_MODEL_CONFIGS,
    ),
    "train-extractor": (
        ["--datasets", "a.csv,b.csv", "--transfer-matrix", "tm.json"],
        ["--lambda", "0.25", "--mask-ratio", "0.5", "--views", "2", "--dim", "8", "--hidden-dim", "16",
         "--input-len", "24", "--epochs", "7", "--lr", "0.05", "--batch-size", "4",
         "--windows-per-dataset", "6", "--seed", "3"],
        cli.extractor, "train_extractor", lambda a, k: (a[2], a[3], k["input_len"]),
        (
            cli.extractor.ExtractorTrainConfig(
                constraint_weight=0.25, epochs=7, learning_rate=0.05, batch_size=4, seed=3,
                windows_per_dataset=6, hidden_dim=16, repr_dim=8,
            ),
            cli.extractor.MaskSpec(mask_ratio=0.5, num_views=2),
            24,
        ),
        (cli.extractor.ExtractorTrainConfig(), cli.extractor.MaskSpec(), 36),
    ),
    "synth": (
        ["--kind", "ar1"],
        ["--period", "9", "--amplitude", "2.5", "--noise", "0.1", "--length", "50", "--channels", "2", "--seed", "4"],
        cli.bench, "generate_synthetic", lambda a, k: a[0],
        cli.bench.SyntheticFamilySpec("ar1", period=9, amplitude=2.5, noise_std=0.1, length=50, channels=2, seed=4),
        cli.bench.SyntheticFamilySpec("ar1"),
    ),
    "benchmark": (
        ["--zoo", "zoo"], ["--config", "full.cfg"], cli.bench, "run_benchmark", lambda a, k: a[0],
        BenchConfig(look_back=24, horizons=(6, 12), metrics=("mse", "smape"), top_k=2, season_period=12),
        BenchConfig(),
    ),
}


@pytest.fixture
def flag_inputs(tmp_path, monkeypatch):
    """A directory holding the files every FLAG_CASES command reads."""
    monkeypatch.chdir(tmp_path)
    for name in ("a", "b"):
        Path(f"{name}.csv").write_text("t,x\n" + "".join(f"{t},{float(np.sin(t))!r}\n" for t in range(60)))
    Path("tm.json").write_bytes(cli.zoo_mod.TransferMatrix(("a", "b"), np.eye(2)).to_bytes())
    Path("full.cfg").write_text(FULL_BENCH_CONFIG)
    Path("empty.cfg").write_text("")
    monkeypatch.setattr(cli.zoo_mod, "load_zoo", lambda path: None)


@pytest.mark.parametrize("command", FLAG_CASES)
def test_every_optional_flag_reaches_its_config_field(flag_inputs, monkeypatch, command):
    required, optional, module, name, pick, expected, default = FLAG_CASES[command]
    if command == "benchmark":
        plain = [*required, "--config", "empty.cfg"]
    else:
        plain = required
    full = [command, *required, *optional, "--out", "out"]
    assert pick(*_handed_to(monkeypatch, module, name, full)) == expected
    assert pick(*_handed_to(monkeypatch, module, name, [command, *plain, "--out", "out"])) == default


@pytest.mark.parametrize("command", [c for c in FLAG_CASES if c != "benchmark"])
def test_flag_cases_set_every_optional_flag(command):
    # each optional flag of the command is set, to a value other than its default
    required, optional, *_ = FLAG_CASES[command]
    full = vars(build_parser().parse_args([command, *required, *optional, "--out", "out"]))
    plain = vars(build_parser().parse_args([command, *required, "--out", "out"]))
    unchanged = {key for key in full if full[key] == plain[key]}
    assert unchanged == {"command", "func", "out", "json"} | {flag.lstrip("-").replace("-", "_") for flag in required[::2]}


def test_full_bench_config_sets_every_key():
    raw = parse_flat_config(FULL_BENCH_CONFIG)
    assert set(raw) == set(cli.BENCH_CONFIG_TYPES)
    raw.pop("datasets")
    assert all((tuple(v) if isinstance(v, list) else v) != getattr(BenchConfig(), k) for k, v in raw.items())


@pytest.mark.parametrize(
    "horizon, error",
    [
        # used to end in a MemoryError traceback; numpy refuses this size at once
        (10**12, "error: Unable to allocate "),
        # once numpy's "array is too big; ..." text
        (2**62, f"error: horizon {2**62} is too large: numpy cannot address its forecasts\n"),
    ],
    ids=["unallocatable", "unaddressable"],
)
def test_forecast_of_a_horizon_too_large_exits_with_error_line(pipeline, tmp_path, capsys, horizon, error):
    _, datasets, zoo_dir = pipeline
    out = tmp_path / "fc"
    rc = run_cli("forecast", "--zoo", str(zoo_dir), "--input", str(datasets[0]), "--horizon", str(horizon), "--out", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["transfer-matrix", "benchmark"])
def test_two_datasets_of_one_name_exit_with_error_line(pipeline, tmp_path, capsys, recwarn, command):
    # a/x.csv and b/x.csv are both dataset 'x'; transfer-matrix once wrote four equal scores for them
    root, datasets, zoo_dir = pipeline
    paths = [tmp_path / part / "x.csv" for part in "ab"]
    for path, source in zip(paths, datasets):
        path.parent.mkdir()
        shutil.copy(source, path)
    out = tmp_path / "out.json"
    if command == "transfer-matrix":
        argv = ["--datasets", ",".join(map(str, paths)), "--epochs", "1"]
    else:
        config = tmp_path / "bench.cfg"
        config.write_text(f"datasets = {json.dumps(list(map(str, paths)))}\nhorizons = [6]\n")
        argv = ["--config", str(config), "--zoo", str(zoo_dir)]
    assert run_cli(command, *argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: duplicate dataset name 'x'\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("pca", [[], ["--pca", "2"]], ids=["raw", "pca"])
@pytest.mark.parametrize("scale", [1.7e308, 1e307], ids=["encoding-overflows", "squared-norm-overflows"])
def test_embed_of_an_overflowing_encoding_exits_with_forecast_error_line(pipeline, tmp_path, capsys, recwarn, scale, pca):
    # embed once wrote inf cells (or, for 1e307, finite ones) where forecast names the channel
    _, datasets, zoo_dir = pipeline
    zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, zoo)
    payload = json.loads((zoo / "extractor.json").read_bytes())
    w2 = np.asarray(payload["weights"]["W2"])
    payload["weights"]["W2"] = (w2 / np.abs(w2).max() * scale).tolist()
    blob = json.dumps(payload).encode()
    (zoo / "extractor.json").write_bytes(blob)
    manifest = json.loads((zoo / "zoo.json").read_bytes())
    manifest["extractor_digest"] = hashlib.sha256(blob).hexdigest()
    (zoo / "zoo.json").write_bytes(json.dumps(manifest).encode())
    for command, argv in (("forecast", ["--horizon", "6"]), ("embed", pca)):
        out = tmp_path / command
        assert run_cli(command, "--zoo", str(zoo), "--input", str(datasets[0]), *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: channel 0: encoding overflows float64\n"
        assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
