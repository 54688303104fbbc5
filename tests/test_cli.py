import argparse
import dataclasses
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from zoocast import cli, forecasters
from zoocast.bench import BenchConfig, run_benchmark
from zoocast.cli import COMMANDS, build_parser, main
from zoocast.core import LOOK_BACK, MAX_NESTING, canonical_json, load_csv, normalize, read_artifact
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


def _quick_start_commands() -> list:
    """The argv of each `zoocast` command in README's Quick start block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (CLI)", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    # every training step at its defaults, on two 600-point datasets: a flat extractor
    # learning rate of 0.02 diverged here in epoch 11, and --top-k 3 exceeded the zoo
    monkeypatch.chdir(tmp_path)
    commands = _quick_start_commands()
    assert [argv[0] for argv in commands] == [
        "synth", "synth", "train-ptm", "train-ptm", "transfer-matrix", "train-extractor", "build-zoo", "synth", "forecast",
    ]
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert load_csv("forecast/forecast.csv").series.length == 24


def test_every_pipeline_artifact_decodes_as_the_stdlib_reader_decodes_it(pipeline):
    root, _, _ = pipeline
    artifacts = sorted(root.rglob("*.json"))
    assert len(artifacts) >= 8  # tm.json, two models, extractor.json and the zoo's four files
    for path in artifacts:
        blob = path.read_bytes()
        # repr tells -0.0 from 0.0 and 1 from 1.0, and writes each float's shortest exact digits
        assert repr(read_artifact(blob, path.name, None, {})) == repr(json.loads(blob)), path


@pytest.mark.parametrize("ahead", [b"", b'"s": "' + b"}" * 100_000 + b'", '], ids=["bare", "closing brackets in a string ahead"])
def test_forecast_on_a_zoo_json_nested_100000_deep_exits_with_error_line(pipeline, tmp_path, ahead):
    # orjson has no depth limit of its own: this document overflows its stack and kills the process
    root, datasets, zoo_dir = pipeline
    zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, zoo)
    nest = b'{"a": ' * 100_000 + b"1" + b"}" * 100_000
    (zoo / "zoo.json").write_bytes(b"{" + ahead + b'"x": ' + nest + b"}")
    out = tmp_path / "fc"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "zoocast.cli", "forecast", "--zoo", str(zoo), "--input", str(datasets[0]), "--horizon", "6", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: malformed zoo manifest file: nested deeper than {MAX_NESTING}\n")
    assert not out.exists()


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


def test_forecast_into_a_used_out_writes_what_a_fresh_out_holds(pipeline, tmp_path):
    # the second run's files are shorter: each is overwritten in place, then cut
    _, datasets, zoo_dir = pipeline
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    for horizon, out in (("24", used), ("6", used), ("6", fresh)):
        assert run_cli("forecast", "--zoo", str(zoo_dir), "--input", str(datasets[0]), "--horizon", horizon, "--out", str(out)) == 0
    for name in ("forecast.csv", "provenance.json"):
        assert (used / name).read_bytes() == (fresh / name).read_bytes(), name
    assert load_csv(used / "forecast.csv").series.length == 6


def test_train_ptm_writes_to_a_character_device(pipeline, capsys):
    # /dev/null cannot be cut, so an output that is not a regular file is written as it is
    _, datasets, _ = pipeline
    assert run_cli("train-ptm", "--data", str(datasets[0]), "--epochs", "1", "--out", os.devnull) == 0
    assert capsys.readouterr().err == ""


def test_an_out_that_is_a_directory_exits_with_error_line(tmp_path, capsys):
    rc = run_cli("synth", "--kind", "sine", "--out", str(tmp_path))
    assert (rc, capsys.readouterr()) == (1, ("", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"))


def test_an_out_that_is_a_symlink_is_written_through(tmp_path):
    target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "fresh.csv"
    target.write_bytes(b"x" * 100_000)
    link.symlink_to(target)
    for out in (link, fresh):
        assert run_cli("synth", "--kind", "sine", "--length", "50", "--out", str(out)) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


def test_forecast_short_history_fails(pipeline, tmp_path, capsys):
    root, datasets, zoo_dir = pipeline
    short = tmp_path / "short.csv"
    short.write_text("t,a\n" + "\n".join(f"{i},{i}" for i in range(10)) + "\n")
    rc = run_cli("forecast", "--zoo", str(zoo_dir), "--input", str(short), "--horizon", "6", "--out", str(tmp_path / "x"))
    assert rc != 0
    assert "36" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["forecast", "embed"])
def test_a_too_short_query_is_named_and_writes_nothing(pipeline, tmp_path, capsys, command):
    _, _, zoo_dir = pipeline
    short = tmp_path / "short.csv"
    short.write_text("t,a\n0,1\n1,2\n2,3\n")
    out = tmp_path / "out"
    extra = ["--horizon", "6"] if command == "forecast" else []
    assert run_cli(command, "--zoo", str(zoo_dir), "--input", str(short), *extra, "--out", str(out)) == 1
    assert capsys.readouterr() == ("", "error: short.csv: insufficient history: have 3, need 36\n")
    assert not out.exists()


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
    flags = ["--datasets", str(datasets[0]), "--horizons", "6,8", "--metrics", "mse"]
    report = tmp_path / "report.json"
    assert run_cli("benchmark", *flags, "--zoo", str(zoo_dir), "--out", str(report), "--json") == 0
    payload = json.loads(report.read_bytes())
    methods = {r["method"] for r in payload["rows"]}
    assert methods == {"zoocast", "last", "mean", "seasonal_naive"}


def test_benchmark_determinism_bytes(pipeline, tmp_path):
    root, datasets, zoo_dir = pipeline
    flags = ["--datasets", str(datasets[0]), "--horizons", "6"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("benchmark", *flags, "--zoo", str(zoo_dir), "--out", str(r1)) == 0
    assert run_cli("benchmark", *flags, "--zoo", str(zoo_dir), "--out", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_benchmark_reads_season_period(pipeline, tmp_path):
    root, datasets, zoo_dir = pipeline
    flags = ["--datasets", str(datasets[0]), "--horizons", "6,24", "--season-period", "12"]
    report = tmp_path / "report.json"
    assert run_cli("benchmark", *flags, "--zoo", str(zoo_dir), "--out", str(report)) == 0
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
    assert capsys.readouterr().err == "error: bad.json: model file field 'spec' must be an object, got None\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda payload: payload["spec"].update(input_len=36.0),
         "bad.json: model file field 'spec' is invalid: field 'input_len' must be an integer, got 36.0"),
        (lambda payload: payload.update(source_dataset=5),
         "bad.json: model file field 'source_dataset' must be a string, got 5"),
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
        "error: entry 'sine.model' (sine.model.model.json): "
        "model file field 'spec' is invalid: field 'horizon' must be an integer, got 12.0\n"
    )


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_build_zoo_without_samples_exits_with_error_line(pipeline, tmp_path, capsys, recwarn, samples):
    root, datasets, _ = pipeline
    rc = run_cli(
        "build-zoo", "--models", str(root / "sine.model.json"), "--data", str(datasets[0]),
        "--extractor", str(root / "extractor.json"), "--samples", samples, "--out", str(tmp_path / "zoo"),
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: argument 'sample_count' must be >= 1, got {samples}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "zoo").exists()


def test_build_zoo_bounds_the_sampled_values(pipeline, tmp_path, capsys):
    root, datasets, _ = pipeline
    rc = run_cli(
        "build-zoo", "--models", str(root / "sine.model.json"), "--data", str(datasets[0]),
        "--extractor", str(root / "extractor.json"), "--samples", "29128", "--out", str(tmp_path / "zoo"),
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: sample_count 29128 and input_len 36 would draw more than 1048576 values\n"
    assert not (tmp_path / "zoo").exists()


def test_forecast_names_a_zoo_json_that_is_not_a_file(pipeline, tmp_path, capsys):
    # was "error: [Errno 21] Is a directory: ..."
    root, datasets, zoo_dir = pipeline
    zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, zoo)
    (zoo / "zoo.json").unlink()
    (zoo / "zoo.json").mkdir()
    out = tmp_path / "fc"
    rc = run_cli("forecast", "--zoo", str(zoo), "--input", str(datasets[0]), "--horizon", "6", "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == f"error: no zoo.json in {zoo}\n"
    assert not out.exists()


def test_forecast_names_a_corrupted_model_file_that_matching_would_not_pick(pipeline, tmp_path, capsys):
    # the sine channel picks sine.model, so this file was never read and the forecast exited 0
    root, datasets, zoo_dir = pipeline
    zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, zoo)
    victim = zoo / "sawtooth.model.model.json"
    victim.write_bytes(victim.read_bytes() + b" ")
    out = tmp_path / "fc"
    rc = run_cli("forecast", "--zoo", str(zoo), "--input", str(datasets[0]), "--horizon", "6", "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == "error: digest mismatch for entry 'sawtooth.model' (sawtooth.model.model.json)\n"
    assert not out.exists()


def test_forecast_refuses_a_model_file_outside_the_zoo_directory(pipeline, tmp_path, capsys):
    # a byte-identical copy, so its digest holds: this forecast used to exit 0 from the outside file
    root, datasets, zoo_dir = pipeline
    zoo = tmp_path / "zoo"
    shutil.copytree(zoo_dir, zoo)
    manifest = json.loads((zoo / "zoo.json").read_bytes())
    entry = manifest["entries"][0]
    outside = tmp_path / entry["file"]
    shutil.copyfile(zoo / entry["file"], outside)
    entry["file"] = str(outside)
    (zoo / "zoo.json").write_bytes(json.dumps(manifest).encode())
    out = tmp_path / "fc"
    rc = run_cli("forecast", "--zoo", str(zoo), "--input", str(datasets[0]), "--horizon", "6", "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == f"error: entry {entry['model_id']!r}: no file {str(outside)!r} in the zoo directory\n"
    assert not out.exists()


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


CSV_COMMANDS = ["forecast", "train-ptm", "evaluate", "benchmark"]


def _csv_reading_argv(command, path, pipeline, tmp_path):
    """(argv of `command` reading the CSV at `path`, the output it must not write)."""
    _, datasets, zoo_dir = pipeline
    out = tmp_path / "out"
    argv = {
        "forecast": ["--zoo", str(zoo_dir), "--input", str(path), "--horizon", "6", "--out", str(out)],
        "train-ptm": ["--data", str(path), "--out", str(out)],
        "evaluate": ["--truth", str(datasets[0]), "--pred", str(path)],
        "benchmark": ["--zoo", str(zoo_dir), "--datasets", f"{datasets[0]},{path}", "--horizons", "6", "--out", str(out)],
    }[command]
    return [command, *argv], out


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_non_utf8_csv_exits_with_error_line(pipeline, tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,a\n0,\xff\n")
    argv, out = _csv_reading_argv(command, bad, pipeline, tmp_path)
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: bad.csv: line 2: not UTF-8 text (byte 0xff)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_a_csv_cell_over_the_field_limit_exits_with_error_line(pipeline, tmp_path, capsys, command):
    # csv.Error is no ValueError: each of these commands once printed its traceback
    long = tmp_path / "long.csv"
    long.write_text("t,a\n0,1.0\n1," + "1" * 131_073 + "\n")
    argv, out = _csv_reading_argv(command, long, pipeline, tmp_path)
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: long.csv: line 3: field larger than field limit (131072)\n"
    assert not out.exists()


def test_missing_file_exits_nonzero(tmp_path, capsys):
    rc = run_cli("train-ptm", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json"))
    assert rc != 0
    assert "error:" in capsys.readouterr().err


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
    "flag, value, kind",
    [
        ("--horizons", "12.0", "comma-separated int"),
        ("--horizons", '["6"]', "comma-separated int"),
        ("--horizons", "6,,8", "comma-separated int"),
        ("--horizons", "", "comma-separated int"),
        ("--top-k", "[1]", "int"),
        ("--top-k", "2.7", "int"),
        # an empty item, which as a path read the current directory: `[Errno 21] Is a directory: '.'`
        ("--datasets", "a.csv,", "comma-separated str"),
        ("--datasets", "", "comma-separated str"),
        ("--metrics", "mse,", "comma-separated str"),  # was `unknown metrics ['']`
        ("--season-period", '"7"', "int"),
        # a config file's value nested this deep was once a RecursionError traceback
        pytest.param("--horizons", "[" * 100_000 + "6" + "]" * 100_000, "comma-separated int", id="--horizons-deeply-nested"),
    ],
)
def test_benchmark_flag_of_the_wrong_type_exits_with_usage_error(pipeline, tmp_path, capsys, flag, value, kind):
    root, datasets, zoo_dir = pipeline
    argv = ["benchmark", "--datasets", str(datasets[0]), f"{flag}={value}", "--zoo", str(zoo_dir), "--out", str(tmp_path / "r.json")]
    code, out, err = _outcome(main, argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: zoocast benchmark ")
    assert err.endswith(f"zoocast benchmark: error: argument {flag}: invalid {kind} value: {value!r}\n")
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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "field 'seed' must be >= 0, got -1"),  # was numpy's "expected non-negative integer"
        (["--length", str(2**62)], f"field 'length' must be at most {2**20}, got {2**62}"),  # was "array is too big; ..."
        (["--channels", "0"], "field 'channels' must be >= 1, got 0"),
        # was accepted, so --length 1048576 --channels 1048576 would then build 2**40 values
        (["--length", str(2**19), "--channels", "3"], f"length {2**19} and channels 3 would hold more than {2**20} values"),
    ],
)
def test_synth_names_a_seed_or_size_out_of_range(tmp_path, capsys, flags, message):
    out = tmp_path / "s.csv"
    rc = run_cli("synth", "--kind", "sine", *flags, "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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
        (["--dim", "0"], "field 'repr_dim' must be >= 1, got 0"),
        (["--hidden-dim", "0"], "field 'hidden_dim' must be >= 1, got 0"),
        (["--windows-per-dataset", "0"], "field 'windows_per_dataset' must be >= 1, got 0"),
        (["--epochs", "0"], "field 'epochs' must be >= 1, got 0"),
        (["--input-len", "0"], "argument 'input_len' must be >= 1, got 0"),
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
    flags = ["--datasets", str(datasets[0]), "--horizons", ",".join(map(str, horizons))]
    out = tmp_path / "report.json"
    return run_cli("benchmark", *flags, "--zoo", str(zoo), "--out", str(out)), out


def _scaled_weights(blob, scale=1e300):
    payload = json.loads(blob)
    payload["weights"]["W"] = (scale * np.asarray(payload["weights"]["W"])).tolist()
    return json.dumps(payload).encode()


@pytest.mark.parametrize(
    "edit, update_digest, message",
    [
        (lambda blob: blob + b" ", False, "digest mismatch for entry 'sine.model' (sine.model.model.json)"),
        (lambda blob: b"[1]", True, "entry 'sine.model' (sine.model.model.json): malformed model file: holds a list, not an object"),
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
        (
            "sawtooth.model", [24],
            "forecast diverged: dataset 'sine', horizon 24, window 0, channel 0, model 'sawtooth.model' "
            "turns non-finite at step 12 (block 1)",
        ),
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
    assert err.startswith("error: bad.json: model file field 'spec' is invalid: ") and err.endswith("argument '\\n'\n")


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--horizons=-36", "field 'horizons' must be >= 1, got -36"),  # was a ZeroDivisionError traceback
        ("--metrics=foo", "unknown metrics ['foo']; known metrics: ['mape', 'mse', 'smape']"),
        ("--top-k=0", "field 'top_k' must be >= 1, got 0"),
        # was raised only after the zoo had forecast the first horizon
        ("--season-period=0", "field 'season_period' must be >= 1, got 0"),
        # both were numpy's "array is too big; ..." from the window tiler
        (f"--horizons=6,{2**62}", f"field 'horizons' must be at most {2**20}, got {2**62}"),
        ("--metrics=mse,mse", "metrics name 'mse' more than once"),  # was exit 0, every record twice
    ],
)
def test_benchmark_config_value_out_of_range_exits_with_error_line(pipeline, tmp_path, capsys, flag, message):
    root, datasets, zoo_dir = pipeline
    rc = run_cli("benchmark", "--datasets", str(datasets[0]), "--horizons", "6", flag, "--zoo", str(zoo_dir),
                 "--out", str(tmp_path / "r.json"))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "argv, dest, value",
    [
        (["benchmark", "--horizons", "6"], "horizons", (6,)),
        (["benchmark", "--horizons", "6,24"], "horizons", (6, 24)),
        (["benchmark", "--metrics", "mse,smape"], "metrics", ("mse", "smape")),
        (["evaluate", "--metrics", "smape"], "metrics", ("smape",)),
    ],
)
def test_a_comma_list_flag_reads_a_tuple_of_its_kind(argv, dest, value):
    required = {"benchmark": ["--zoo", "z", "--datasets", "a.csv", "--out", "o"], "evaluate": ["--truth", "t", "--pred", "p"]}
    assert getattr(build_parser().parse_args([*argv, *required[argv[0]]]), dest) == value


def _every_parser():
    """Each parser that `build_parser()` and each `build_parser(command)` builds."""
    for command in (None, *COMMAND_NAMES):
        parser = build_parser(command)
        (sub,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
        yield parser
        yield from sub.choices.values()


def test_every_parser_refuses_a_prefix_of_a_flag():
    parsers = list(_every_parser())
    assert {p.prog for p in parsers} == {"zoocast", *(f"zoocast {name}" for name in COMMAND_NAMES)}  # 10 parsers
    assert not any(p.allow_abbrev for p in parsers)


def test_every_list_flag_is_a_comma_list():
    typed = {
        (parser.prog.split()[-1], action.dest): getattr(action.type, "__qualname__", None) == "_comma_list.<locals>.parse"
        for parser in _every_parser()
        for action in parser._actions
        if action.dest in {"datasets", "models", "data", "horizons", "metrics"}
    }
    assert {key for key, comma in typed.items() if comma} == {
        ("transfer-matrix", "datasets"), ("train-extractor", "datasets"), ("build-zoo", "models"), ("build-zoo", "data"),
        ("evaluate", "metrics"), ("benchmark", "datasets"), ("benchmark", "horizons"), ("benchmark", "metrics"),
    }
    assert {key for key, comma in typed.items() if not comma} == {("train-ptm", "data")}  # one CSV


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["transfer-matrix", "--datasets", "a.csv,"], "--datasets", "a.csv,"),
        (["train-extractor", "--datasets", ",a.csv", "--transfer-matrix", "tm.json"], "--datasets", ",a.csv"),
        (["build-zoo", "--models", "m.json,,n.json", "--data", "a.csv,b.csv", "--extractor", "e.json"], "--models", "m.json,,n.json"),
        (["build-zoo", "--models", "m.json", "--data", "", "--extractor", "e.json"], "--data", ""),
    ],
    ids=["transfer-matrix", "train-extractor", "build-zoo-models", "build-zoo-data"],
)
def test_an_empty_item_of_a_path_list_exits_with_usage_error(tmp_path, capsys, argv, flag, value):
    # each was `error: [Errno 21] Is a directory: '.'`, once the command's other inputs were read
    code, out, err = _outcome(main, [*argv, "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"zoocast {argv[0]}: error: argument {flag}: invalid comma-separated str value: {value!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-ptm", "transfer-matrix"])
def test_arch_is_spelt_as_the_api_spells_it(tmp_path, capsys, command):
    data = ["--data", "a.csv"] if command == "train-ptm" else ["--datasets", "a.csv,b.csv"]
    code, out, err = _outcome(main, [command, *data, "--arch", "patch-mlp", "--out", str(tmp_path / "m.json")], capsys)
    assert (code, out) == (2, "")
    assert err.endswith("argument --arch: invalid choice: 'patch-mlp' (choose from 'linear', 'patch_mlp')\n")
    assert build_parser().parse_args([command, *data, "--arch", "patch_mlp", "--out", "o"]).architecture == "patch_mlp"


def test_benchmark_reads_its_look_back_from_the_zoo(pipeline, tmp_path):
    root, datasets, _ = pipeline
    sources = ",".join(map(str, datasets))
    models = [tmp_path / f"{csv.stem}.model.json" for csv in datasets]
    for csv, model in zip(datasets, models):
        assert run_cli("train-ptm", "--data", str(csv), "--input-len", "24", "--epochs", "2", "--out", str(model)) == 0
    ext, zoo_dir, report = tmp_path / "extractor.json", tmp_path / "zoo", tmp_path / "report.json"
    assert run_cli(
        "train-extractor", "--datasets", sources, "--transfer-matrix", str(root / "tm.json"), "--input-len", "24",
        "--epochs", "2", "--windows-per-dataset", "4", "--dim", "4", "--hidden-dim", "8", "--out", str(ext),
    ) == 0
    assert run_cli(
        "build-zoo", "--models", ",".join(map(str, models)), "--data", sources, "--extractor", str(ext),
        "--samples", "8", "--out", str(zoo_dir),
    ) == 0
    assert run_cli("benchmark", "--zoo", str(zoo_dir), "--datasets", str(datasets[0]), "--horizons", "6", "--out", str(report)) == 0
    assert json.loads(report.read_bytes())["config"]["look_back"] == 24
    expected = run_benchmark(BenchConfig(look_back=24, horizons=(6,)), load_zoo(zoo_dir), [load_csv(datasets[0])])
    assert report.read_bytes() == canonical_json(expected)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            lambda root, sources, bad: ["train-extractor", "--datasets", sources, "--transfer-matrix", bad],
            "transfer matrix file field 'datasets' is missing",
        ),
        (
            lambda root, sources, bad: ["build-zoo", "--models", f"{root}/sine.model.json,{root}/sawtooth.model.json",
                                        "--data", sources, "--extractor", bad],
            "unsupported extractor format_version None",
        ),
        (
            lambda root, sources, bad: ["build-zoo", "--models", f"{bad},{root}/sawtooth.model.json",
                                        "--data", sources, "--extractor", f"{root}/extractor.json"],
            "unsupported model format_version None",
        ),
    ],
    ids=["transfer-matrix", "extractor", "model"],
)
def test_a_malformed_file_a_command_is_handed_is_named(pipeline, tmp_path, capsys, argv, message):
    # the transfer matrix and the extractor were not named
    root, datasets, _ = pipeline
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = run_cli(*argv(root, ",".join(map(str, datasets)), str(bad)), "--out", str(tmp_path / "out"))
    assert rc == 1
    assert capsys.readouterr().err == f"error: bad.json: {message}\n"
    assert not (tmp_path / "out").exists()


def test_benchmark_refuses_a_misspelt_flag(pipeline, tmp_path, capsys):
    # a config file's unknown keys were once only warned about; the report holds no warning of them
    root, datasets, zoo_dir = pipeline
    report = tmp_path / "report.json"
    flags = ["--datasets", str(datasets[0]), "--horizons", "6", "--zoo", str(zoo_dir), "--out", str(report)]
    # the look-back is the zoo's input_len, and a prefix of a flag is not that flag (was `--horizons 12`)
    for misspelt in (["--trials", "1"], ["--look_back", "36"], ["--look-back", "36"], ["--horizon", "12"]):
        code, out, err = _outcome(main, ["benchmark", *flags, *misspelt], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"zoocast: error: unrecognized arguments: {' '.join(misspelt)}\n")
        assert not report.exists()
    assert run_cli("benchmark", *flags, "--json") == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == []
    expected = run_benchmark(BenchConfig(horizons=(6,)), load_zoo(zoo_dir), [load_csv(datasets[0])])
    assert report.read_bytes() == canonical_json(expected)


def test_benchmark_help_lists_the_bench_config_flags_and_no_other(capsys):
    code, out, _ = _outcome(main, ["benchmark", "-h"], capsys)
    assert code == 0
    options = set(re.findall(r"(?<![\w-])--[a-z-]+", out))
    assert options == {"--help", "--zoo", "--datasets", "--out", "--json",
                       "--horizons", "--metrics", "--top-k", "--season-period"}
    # each config flag feeds the BenchConfig field of its dest name; the look-back is the zoo's input_len
    args = vars(build_parser().parse_args(["benchmark", "--zoo", "z", "--datasets", "a.csv", "--out", "o"]))
    config_fields = {f.name for f in dataclasses.fields(BenchConfig)} - {"look_back"}
    assert set(args) - {"command", "func", "zoo", "datasets", "out", "json"} == config_fields


# -- every optional flag reaches its config field ------------------------------


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
    "--arch", "patch_mlp", "--input-len", "24", "--horizon", "6", "--patch-len", "8", "--hidden-dim", "16",
    "--epochs", "3", "--lr", "0.01", "--batch-size", "4", "--stride", "2", "--seed", "5",
]
MODEL_CONFIGS = (
    forecasters.ForecasterSpec("patch_mlp", 24, 6, patch_len=8, hidden_dim=16),
    forecasters.TrainConfig(epochs=3, learning_rate=0.01, batch_size=4, seed=5, stride=2),
)
DEFAULT_MODEL_CONFIGS = (forecasters.ForecasterSpec("linear", 36, 12), forecasters.TrainConfig())

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
        ["--zoo", "zoo", "--datasets", "a.csv"],
        ["--horizons", "6,12", "--metrics", "mse,smape", "--top-k", "2", "--season-period", "12"],
        cli.bench, "run_benchmark", lambda a, k: a[0],
        BenchConfig(horizons=(6, 12), metrics=("mse", "smape"), top_k=2, season_period=12),
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
    monkeypatch.setattr(cli.zoo_mod, "load_zoo", lambda path: SimpleNamespace(input_len=LOOK_BACK))


@pytest.mark.parametrize("command", FLAG_CASES)
def test_every_optional_flag_reaches_its_config_field(flag_inputs, monkeypatch, command):
    required, optional, module, name, pick, expected, default = FLAG_CASES[command]
    full = [command, *required, *optional, "--out", "out"]
    assert pick(*_handed_to(monkeypatch, module, name, full)) == expected
    assert pick(*_handed_to(monkeypatch, module, name, [command, *required, "--out", "out"])) == default


@pytest.mark.parametrize("command", FLAG_CASES)
def test_flag_cases_set_every_optional_flag(command):
    # each optional flag of the command is set, to a value other than its default
    required, optional, *_ = FLAG_CASES[command]
    full = vars(build_parser().parse_args([command, *required, *optional, "--out", "out"]))
    plain = vars(build_parser().parse_args([command, *required, "--out", "out"]))
    unchanged = {key for key in full if full[key] == plain[key]}
    assert unchanged == {"command", "func", "out", "json"} | {flag.lstrip("-").replace("-", "_") for flag in required[::2]}


@pytest.mark.parametrize(
    "horizon",
    [
        10**12,  # used to end in a MemoryError traceback, then in numpy's "Unable to allocate ..."
        2**62,  # once numpy's "array is too big; ..." text
    ],
    ids=["unallocatable", "unaddressable"],
)
def test_forecast_of_a_horizon_too_large_exits_with_error_line(pipeline, tmp_path, capsys, horizon):
    _, datasets, zoo_dir = pipeline
    out = tmp_path / "fc"
    rc = run_cli("forecast", "--zoo", str(zoo_dir), "--input", str(datasets[0]), "--horizon", str(horizon), "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == f"error: field 'horizon' must be at most {2**20}, got {horizon}\n"
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
        argv = ["--datasets", ",".join(map(str, paths)), "--horizons", "6", "--zoo", str(zoo_dir)]
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
