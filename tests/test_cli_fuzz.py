"""`zoocast` on mutated inputs exits 0, or exits 1 with one `error:` line.

Runs `cli.main` for every command that reads a file: train-ptm,
transfer-matrix, train-extractor, build-zoo, forecast, embed, evaluate and
benchmark. Inputs are truncated, non-UTF-8, non-finite and huge-finite
CSVs; field, scale and digest mutations of a zoo's `zoo.json`, its
`extractor.json`, a model file and a transfer matrix; a transfer matrix
that lacks a dataset; and benchmark flag values, where a value that its
flag's type refuses exits 2 with argparse's usage error. No run may raise
(a traceback) or emit a numpy `RuntimeWarning`.
"""

import hashlib
import io
import json
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zoocast import cli, extractor, forecasters
from zoocast.core import Dataset, MultivariateSeries
from zoocast.zoo import TransferMatrix, build_zoo, load_zoo

INPUT_LEN, HORIZON, LENGTH = 8, 4, 40
MODELS = ("a", "b")


def _csv_text(values: np.ndarray) -> str:
    rows = [",".join(["t"] + [f"c{c}" for c in range(values.shape[1])])]
    rows += [",".join([str(t)] + [repr(float(v)) for v in row]) for t, row in enumerate(values)]
    return "\n".join(rows) + "\n"


def _series(seed: int, channels: int = 1) -> np.ndarray:
    t = np.arange(LENGTH)[:, None]
    return np.sin(2 * np.pi * t / (5 + seed) + np.arange(channels)) + 0.01 * seed * t


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    """Two source CSVs, a query CSV of two channels, one model file per
    source, a transfer matrix over the sources, a full extractor file and
    the zoo built from them."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    spec = forecasters.ForecasterSpec("linear", INPUT_LEN, HORIZON)
    sources = []
    for seed, name in enumerate(MODELS):
        values = _series(seed)
        (root / f"{name}.csv").write_text(_csv_text(values))
        model = forecasters.Forecaster(spec, forecasters.init_weights(spec, seed), name)
        (root / f"{name}.model.json").write_bytes(forecasters.save(model))
        sources.append(Dataset(MultivariateSeries(values), name))
    (root / "query.csv").write_text(_csv_text(_series(2, channels=2)))
    (root / "tm.json").write_bytes(TransferMatrix(MODELS, np.array([[0.9, 0.2], [0.3, 0.8]])).to_bytes())
    (root / "extractor.json").write_bytes(extractor.save(extractor.init_params(INPUT_LEN, 6, 3, seed=0)))
    model_files = [root / f"{name}.model.json" for name in MODELS]
    build_zoo(model_files, sources, root / "extractor.json", root / "zoo", per_model_source_samples=4)
    return root


# -- input mutations ----------------------------------------------------------

TEXT = st.text(alphabet="a0 .'\"\\\n\x00\u00e9\u2028", max_size=6)  # a fixed alphabet needs no charmap
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
HUGE = st.floats(1e150, 1.7976931348623157e308) | st.floats(-1.7976931348623157e308, -1e150)


@st.composite
def csv_mutation(draw, text: str) -> bytes:
    """A CSV file: the given one, truncated, with a byte that is not UTF-8,
    with a non-finite cell, or with huge finite values."""
    kind = draw(st.sampled_from(["same", "truncated", "non-utf8", "non-finite", "huge", "huge-scale"]))
    blob = text.encode()
    if kind == "truncated":
        return blob[: draw(st.integers(0, len(blob)))]
    if kind == "non-utf8":
        at = draw(st.integers(0, len(blob)))
        return blob[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + blob[at:]
    lines = text.splitlines()
    cells = [line.split(",") for line in lines[1:]]
    if kind == "non-finite":
        row = draw(st.integers(0, len(cells) - 1))
        cells[row][draw(st.integers(1, len(cells[row]) - 1))] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
    elif kind == "huge":  # every value one huge number, or a huge draw per row
        value = draw(HUGE)
        per_row = draw(st.booleans())
        for row in cells:
            row[1:] = [repr(draw(HUGE) if per_row else value)] * (len(row) - 1)
    elif kind == "huge-scale":  # the series' shape at a huge scale
        scale = draw(HUGE)
        for row in cells:
            row[1:] = [repr(float(v) * scale) for v in row[1:]]
    return "\n".join([lines[0]] + [",".join(row) for row in cells]).encode() + b"\n"


def _paths(payload: dict) -> list:
    """Field paths one and two levels down, through the first list item."""
    paths = []
    for key, value in payload.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, sub) for sub in value)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            paths.extend((key, 0, sub) for sub in value[0])
    return paths


def _scaled(value, factor: float):
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value * factor
    return value


@st.composite
def json_mutation(draw, blob: bytes) -> bytes:
    """A JSON artifact: truncated, or with one to three fields replaced by
    arbitrary JSON, scaled by a huge factor or by 1.0 (an integer becomes
    its float), or dropped."""
    if draw(st.integers(0, 5)) == 0:
        return blob[: draw(st.integers(0, len(blob)))]
    payload = json.loads(blob)
    for path in draw(st.lists(st.sampled_from(_paths(payload)), min_size=1, max_size=3)):
        parent = payload
        for key in path[:-1]:
            try:
                parent = parent[key]
            except (KeyError, IndexError, TypeError):
                parent = None
        if not isinstance(parent, dict) or path[-1] not in parent:
            continue  # an earlier mutation replaced or dropped it
        how = draw(st.sampled_from(["replace", "scale", "drop"]))
        if how == "replace":
            parent[path[-1]] = draw(JSON)
        elif how == "scale":
            parent[path[-1]] = _scaled(parent[path[-1]], draw(st.sampled_from([1.0, 1e10, 1e100, 1e200, -1e300])))
        else:
            del parent[path[-1]]
    return json.dumps(payload).encode()


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@st.composite
def zoo_mutation(draw, zoo: Path) -> dict:
    """{file name: bytes} to write over `zoo`'s files: the manifest, the
    extractor or a model file mutated, with the manifest's digest of a
    mutated file updated or not, or a digest in the manifest changed."""
    manifest = json.loads((zoo / "zoo.json").read_bytes())
    model_file = manifest["entries"][0]["file"]
    target = draw(st.sampled_from(["none", "zoo.json", "extractor.json", model_file, "digest"]))
    if target == "none":
        return {}
    if target == "zoo.json":
        return {"zoo.json": draw(json_mutation((zoo / "zoo.json").read_bytes()))}
    if target == "digest":
        entry = draw(st.sampled_from(manifest["entries"] + [manifest]))
        key = "digest" if "digest" in entry else "extractor_digest"
        entry[key] = draw(st.sampled_from([entry[key][::-1], "", entry[key].upper()]))
        return {"zoo.json": json.dumps(manifest).encode()}
    blob = draw(json_mutation((zoo / target).read_bytes()))
    if draw(st.booleans()):  # let the mutated file reach its loader
        if target == "extractor.json":
            manifest["extractor_digest"] = _digest(blob)
        else:
            next(e for e in manifest["entries"] if e["file"] == target)["digest"] = _digest(blob)
    return {target: blob, "zoo.json": json.dumps(manifest).encode()}


def _bench_value():
    """A flag value: an integer, a comma list of integers or of metric
    names, or any JSON value's text."""
    return (
        st.integers(-50, 60).map(str)
        | st.lists(st.integers(-10, 60), max_size=3).map(lambda values: ",".join(map(str, values)))
        | st.lists(st.sampled_from(["mse", "smape", "mape", "rmse"]), max_size=3).map(",".join)
        | JSON.map(json.dumps)
    )


BENCH_FLAGS = st.sampled_from(["--horizons", "--metrics", "--top-k", "--season-period"])


# -- the property ---------------------------------------------------------------


def _run(argv: list) -> tuple:
    """(exit code, stderr, RuntimeWarnings) of `zoocast argv` in-process,
    argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue(), [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def _check(argv: list, refused_value: bool = False) -> int:
    """Exit 0 with nothing on stderr, or 1 with one `error:` line; with
    `refused_value`, also exit 2 with argparse's usage and its one line
    naming the flag whose value the flag's type refuses."""
    code, err, runtime_warnings = _run(argv)
    assert not runtime_warnings
    if code == 0:
        assert err == ""
    elif code == 2 and refused_value:
        usage, _, message = err.partition(f"{argv[0]}: error: ")
        assert usage.startswith(f"usage: zoocast {argv[0]} ")
        assert message.startswith("argument --") and " invalid " in message and message.count("\n") == 1, err
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


def _scratch(workspace: Path, files: dict) -> tempfile.TemporaryDirectory:
    """A copy of the workspace with `files` ({relative path: bytes}) written over it."""
    tmp = tempfile.TemporaryDirectory()
    shutil.copytree(workspace, tmp.name, dirs_exist_ok=True)
    for name, blob in files.items():
        (Path(tmp.name) / name).write_bytes(blob)
    return tmp


FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(data=st.data())
@FUZZ
def test_forecast_and_embed_on_mutated_inputs(workspace, data):
    files = {f"zoo/{name}": blob for name, blob in data.draw(zoo_mutation(workspace / "zoo")).items()}
    files["query.csv"] = data.draw(csv_mutation((workspace / "query.csv").read_text()))
    with _scratch(workspace, files) as root:
        if data.draw(st.booleans()):
            horizon, top_k = data.draw(st.integers(1, 13)), data.draw(st.integers(1, 3))
            _check(["forecast", "--zoo", f"{root}/zoo", "--input", f"{root}/query.csv", "--horizon", str(horizon),
                    "--top-k", str(top_k), "--out", f"{root}/fc"])
        else:
            pca = data.draw(st.sampled_from([[], ["--pca", "1"], ["--pca", "2"]]))
            _check(["embed", "--zoo", f"{root}/zoo", "--input", f"{root}/query.csv", *pca, "--out", f"{root}/e.csv"])


@given(data=st.data())
@FUZZ
def test_evaluate_on_mutated_inputs(workspace, data):
    text = (workspace / "query.csv").read_text()
    files = {"truth.csv": data.draw(csv_mutation(text)), "pred.csv": data.draw(csv_mutation(text))}
    metrics = data.draw(st.sampled_from(["mse", "smape", "mape", "mse,smape,mape"]))
    with _scratch(workspace, files) as root:
        _check(["evaluate", "--truth", f"{root}/truth.csv", "--pred", f"{root}/pred.csv", "--metrics", metrics])


@given(data=st.data())
@FUZZ
def test_benchmark_on_mutated_inputs(workspace, data):
    files = {f"zoo/{name}": blob for name, blob in data.draw(zoo_mutation(workspace / "zoo")).items()}
    files["a.csv"] = data.draw(csv_mutation((workspace / "a.csv").read_text()))
    extra = data.draw(st.lists(st.tuples(BENCH_FLAGS, _bench_value()), max_size=2))
    with _scratch(workspace, files) as root:
        _check(_benchmark_argv(root, extra), refused_value=True)


def _benchmark_argv(root: str, extra: list) -> list:
    """The benchmark's argv: valid flags, followed (and maybe overridden)
    by the `extra` (flag, value) pairs, each as `--flag=value` so that a
    value such as `-5,3` is not read as an option."""
    flags = ["--datasets", f"{root}/a.csv,{root}/query.csv", "--horizons", "4,9"]
    flags += [f"{flag}={value}" for flag, value in extra]
    return ["benchmark", *flags, "--zoo", f"{root}/zoo", "--out", f"{root}/report.json"]


@given(data=st.data())
@FUZZ
def test_build_zoo_on_mutated_inputs(workspace, data):
    files = {"a.csv": data.draw(csv_mutation((workspace / "a.csv").read_text()))}
    target = data.draw(st.sampled_from(["a.model.json", "extractor.json"]))
    files[target] = data.draw(json_mutation((workspace / target).read_bytes()))
    samples = data.draw(st.sampled_from(["4", "1", "0"]))
    with _scratch(workspace, files) as root:
        code = _check(["build-zoo", "--models", f"{root}/a.model.json,{root}/b.model.json", "--data",
                       f"{root}/a.csv,{root}/b.csv", "--extractor", f"{root}/extractor.json", "--samples", samples,
                       "--out", f"{root}/zoo2"])
        if code == 0:  # a zoo that builds also loads
            load_zoo(f"{root}/zoo2")


def _offline_argv(root: str, command: str) -> list:
    """The argv of one offline command on `root`'s sources, sized to train
    in a few milliseconds."""
    sources = f"{root}/a.csv,{root}/b.csv"
    if command == "train-extractor":
        return ["train-extractor", "--datasets", sources, "--transfer-matrix", f"{root}/tm.json", "--epochs", "2",
                "--windows-per-dataset", "4", "--dim", "3", "--hidden-dim", "4", "--input-len", str(INPUT_LEN),
                "--out", f"{root}/ext.json"]
    data = ["--data", f"{root}/a.csv"] if command == "train-ptm" else ["--datasets", sources]
    # transfer-matrix holds out a tail of 8 rows, so its windows are short
    return [command, *data, "--input-len", "4", "--horizon", "2", "--epochs", "2", "--out", f"{root}/out.json"]


@given(data=st.data())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_offline_commands_on_mutated_inputs(workspace, data):
    command = data.draw(st.sampled_from(["train-ptm", "transfer-matrix", "train-extractor"]))
    files = {"a.csv": data.draw(csv_mutation((workspace / "a.csv").read_text()))}
    flags = ["--lr", data.draw(st.sampled_from(["0.01", "1e3", "1e300"]))]
    if command == "train-extractor":
        tm = data.draw(st.sampled_from(["same", "mutated", "lacks b"]))
        if tm == "mutated":
            files["tm.json"] = data.draw(json_mutation((workspace / "tm.json").read_bytes()))
        elif tm == "lacks b":
            files["tm.json"] = TransferMatrix(("a", "c"), np.eye(2)).to_bytes()
    else:
        flags += ["--arch", data.draw(st.sampled_from(["linear", "patch_mlp"]))]
    with _scratch(workspace, files) as root:
        _check(_offline_argv(root, command) + flags)


def test_the_unmutated_workspace_runs_every_command(workspace):
    with _scratch(workspace, {}) as root:
        for argv in (
            ["forecast", "--zoo", f"{root}/zoo", "--input", f"{root}/query.csv", "--horizon", "9", "--top-k", "2",
             "--out", f"{root}/fc"],
            ["embed", "--zoo", f"{root}/zoo", "--input", f"{root}/query.csv", "--pca", "2", "--out", f"{root}/e.csv"],
            ["evaluate", "--truth", f"{root}/query.csv", "--pred", f"{root}/query.csv", "--metrics", "mse,smape"],
            ["build-zoo", "--models", f"{root}/a.model.json,{root}/b.model.json", "--data", f"{root}/a.csv,{root}/b.csv",
             "--extractor", f"{root}/extractor.json", "--samples", "4", "--out", f"{root}/zoo2"],
            _benchmark_argv(root, []),
            *(_offline_argv(root, command) for command in ("train-ptm", "transfer-matrix", "train-extractor")),
        ):
            assert _run(argv) == (0, "", [])
