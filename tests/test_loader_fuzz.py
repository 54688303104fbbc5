"""Every artifact loader either loads its input or raises ValueError.

Inputs are arbitrary bytes, arbitrary JSON, truncations of a valid file,
and valid files with fields (one or two levels down) replaced by
arbitrary JSON or dropped.
"""

import hashlib
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zoocast import extractor, forecasters
from zoocast.core import Dataset, MultivariateSeries
from zoocast.zoo import TransferMatrix, build_zoo, load_zoo

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)


def _field_paths(payload: dict) -> list:
    paths = []
    for key, value in payload.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, sub) for sub in value)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            paths.extend((key, 0, sub) for sub in value[0])
    return paths


def _blobs(valid: bytes):
    """Strategy over byte strings derived from one valid file."""
    payload = json.loads(valid)
    paths = _field_paths(payload)

    @st.composite
    def mutated(draw):
        out = json.loads(valid)
        for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
            parent = out
            for key in path[:-1]:
                try:
                    parent = parent[key]
                except (KeyError, IndexError, TypeError):  # an earlier mutation replaced it
                    parent = None
            if isinstance(parent, dict):
                if draw(st.booleans()):
                    parent[path[-1]] = draw(JSON)
                else:
                    parent.pop(path[-1], None)
        return json.dumps(out).encode()

    return st.one_of(
        st.binary(max_size=64),
        JSON.map(lambda value: json.dumps(value).encode()),
        st.integers(0, len(valid)).map(lambda n: valid[:n]),
        mutated(),
    )


def _loads_or_value_error(load, blob: bytes) -> None:
    try:
        load(blob)
    except ValueError:
        pass


SPEC = forecasters.ForecasterSpec("linear", input_len=4, horizon=2)
MODEL = forecasters.save(forecasters.Forecaster(SPEC, forecasters.init_weights(SPEC, 0), "a"))
PARAMS = extractor.init_params(4, 3, 2, seed=0)
EXTRACTOR = extractor.save(PARAMS, [{"epoch": 1, "total": 1.0}])
ENCODER_ONLY = extractor.save(replace(PARAMS, weights={name: PARAMS.weights[name] for name in extractor.ENCODER_TENSORS}))
MATRIX = TransferMatrix(("a", "b"), np.array([[0.9, 0.1], [0.2, 0.8]])).to_bytes()
FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(blob=_blobs(MODEL))
@FUZZ
def test_model_loader_fuzz(blob):
    _loads_or_value_error(forecasters.load, blob)


@given(blob=_blobs(EXTRACTOR))
@FUZZ
def test_extractor_loader_fuzz(blob):
    _loads_or_value_error(extractor.load, blob)


@given(blob=_blobs(ENCODER_ONLY))
@FUZZ
def test_encoder_only_extractor_loader_fuzz(blob):
    _loads_or_value_error(extractor.load, blob)


@given(blob=_blobs(MATRIX))
@FUZZ
def test_transfer_matrix_loader_fuzz(blob):
    _loads_or_value_error(TransferMatrix.from_bytes, blob)


@pytest.fixture(scope="module")
def zoo_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "a.json").write_bytes(MODEL)
    (root / "extractor.json").write_bytes(EXTRACTOR)
    data = Dataset(series=MultivariateSeries(np.sin(np.arange(40.0))), name="a")
    return build_zoo([root / "a.json"], [data], root / "extractor.json", root / "zoo", per_model_source_samples=4)


def test_zoo_fixture_loads(zoo_dir):
    assert [e.model_id for e in load_zoo(zoo_dir).entries] == ["a"]


@given(data=st.data())
@FUZZ
def test_zoo_manifest_loader_fuzz(zoo_dir, data):
    valid = (zoo_dir / "zoo.json").read_bytes()
    blob = data.draw(_blobs(valid))
    manifest = zoo_dir / "zoo.json"
    try:
        manifest.write_bytes(blob)
        _loads_or_value_error(load_zoo, zoo_dir)
    finally:
        manifest.write_bytes(valid)


def test_zoo_fixture_holds_the_encoder_only_extractor(zoo_dir):
    assert (zoo_dir / "extractor.json").read_bytes() == ENCODER_ONLY


@given(data=st.data())
@FUZZ
def test_zoo_extractor_loader_fuzz(zoo_dir, data):
    """Mutations of the zoo's encoder-only extractor file, with the
    manifest digest updated so that each reaches the extractor loader."""
    valid_manifest = (zoo_dir / "zoo.json").read_bytes()
    blob = data.draw(_blobs(ENCODER_ONLY))
    manifest = json.loads(valid_manifest)
    manifest["extractor_digest"] = hashlib.sha256(blob).hexdigest()
    try:
        (zoo_dir / "extractor.json").write_bytes(blob)
        (zoo_dir / "zoo.json").write_bytes(json.dumps(manifest).encode())
        _loads_or_value_error(load_zoo, zoo_dir)
    finally:
        (zoo_dir / "extractor.json").write_bytes(ENCODER_ONLY)
        (zoo_dir / "zoo.json").write_bytes(valid_manifest)


def _load_manifest_entry(blob: bytes):
    """load_zoo on a zoo.json, next to the encoder-only extractor file,
    whose one entry is a well-formed entry updated with `blob`'s fields."""
    entry = {"model_id": "a", "file": "a.json", "digest": "", "source_dataset": "a", "input_len": 4, "horizon": 2,
             "representation": [0.0, 0.0], **json.loads(blob)}
    manifest = {"format_version": 1, "extractor": "extractor.json",
                "extractor_digest": hashlib.sha256(ENCODER_ONLY).hexdigest(), "entries": [entry]}
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "zoo.json").write_text(json.dumps(manifest))
        (Path(root) / "extractor.json").write_bytes(ENCODER_ONLY)
        return load_zoo(root)


FIELD_FAULTS = [
    (extractor.load, b'{"format_version":1}', "extractor file field 'dims' is missing"),
    (extractor.load, b'{"format_version":1,"dims":[]}', "extractor file field 'dims' must be an object"),
    (extractor.load, b'{"format_version":1,"dims":{"L":4,"hidden":3,"d":2},"weights":[]}',
     "extractor file field 'weights' must be an object"),
    (extractor.load, b'{"format_version":1,"dims":{"L":true,"hidden":3,"d":2},"weights":{},"training_log":[]}',
     "extractor file field 'dims' key 'L' must be an integer, got True"),
    (TransferMatrix.from_bytes, b"[]", "malformed transfer matrix file: holds a list, not an object"),
    (TransferMatrix.from_bytes, b"{}", "transfer matrix file field 'datasets' is missing"),
    (forecasters.load, b'{"format_version":1,"spec":{"architecture":"linear","input_len":4,"horizon":2},'
                       b'"weights":{"W":{},"b":[0,0]}}', "model file field 'source_dataset' is missing"),
    (forecasters.load, b'{"format_version":1,"spec":{"architecture":"linear","input_len":4,"horizon":2},'
                       b'"source_dataset":"a","weights":{"W":{},"b":[0,0]}}', "model file (linear) tensor W is not numeric"),
    (forecasters.load, b'{"format_version":1,"spec":{"architecture":"last","input_len":4,"horizon":2.0},'
                       b'"source_dataset":"a","weights":{}}',
     "model file field 'spec' is invalid: field 'horizon' must be an integer, got 2.0"),
    (forecasters.load, b'{"format_version":1,"spec":{"architecture":"last","input_len":4,"horizon":2},'
                       b'"source_dataset":5,"weights":{}}', "model file field 'source_dataset' must be a string, got 5"),
    # input_len and horizon stay required: a model file never loads with a default window or horizon
    (forecasters.load, b'{"format_version":1,"spec":{"architecture":"last","horizon":2},"source_dataset":"a","weights":{}}',
     "model file field 'spec' is invalid: ForecasterSpec.__init__() missing 1 required positional argument: 'input_len'"),
    (forecasters.load, b'{"format_version":1,"spec":{"architecture":"last","input_len":4},"source_dataset":"a","weights":{}}',
     "model file field 'spec' is invalid: ForecasterSpec.__init__() missing 1 required positional argument: 'horizon'"),
    (_load_manifest_entry, b'{"input_len":true}', "zoo manifest entry 0 field 'input_len' must be an integer, got True"),
]


@pytest.mark.parametrize(
    "load, blob, message", FIELD_FAULTS, ids=[f"{load.__name__}-{blob.decode()}" for load, blob, _ in FIELD_FAULTS]
)
def test_malformed_fields_raise_value_error_naming_the_file_kind(load, blob, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load(blob)


def test_manifest_holding_a_list_raises_value_error(zoo_dir):
    valid = (zoo_dir / "zoo.json").read_bytes()
    try:
        (zoo_dir / "zoo.json").write_bytes(b"[]")
        with pytest.raises(ValueError, match="zoo manifest"):
            load_zoo(zoo_dir)
    finally:
        (zoo_dir / "zoo.json").write_bytes(valid)


def _refusal(zoo_dir, blob):
    """The ValueError message of `load_zoo` with `blob` as its zoo.json."""
    valid = (zoo_dir / "zoo.json").read_bytes()
    try:
        (zoo_dir / "zoo.json").write_bytes(blob)
        with pytest.raises(ValueError) as refused:
            load_zoo(zoo_dir)
    finally:
        (zoo_dir / "zoo.json").write_bytes(valid)
    return str(refused.value)


def _with_representation(zoo_dir, literal):
    """zoo.json with every value of the first entry's representation
    written as `literal`, and the offset of the first one."""
    manifest = json.loads((zoo_dir / "zoo.json").read_bytes())
    manifest["entries"][0]["representation"] = [1234.5] * len(manifest["entries"][0]["representation"])
    blob = json.dumps(manifest).encode().replace(b"1234.5", literal)
    return blob, blob.index(literal)


def test_manifest_with_a_non_finite_representation_raises_value_error(zoo_dir):
    # a NaN literal is not JSON: the reader refuses it where it stands
    blob, at = _with_representation(zoo_dir, b"NaN")
    assert _refusal(zoo_dir, blob) == f"malformed zoo manifest file: unexpected character: line 1 column {at + 1} (char {at})"


@pytest.mark.parametrize(
    "literal, fault",
    [(b"Infinity", "unexpected character"), (b"-Infinity", "no digit after minus sign"), (b"1e400", "number is infinity when parsed as double")],
    ids=["Infinity", "-Infinity", "1e400"],
)
def test_manifest_with_a_representation_beyond_float64_raises_value_error(zoo_dir, literal, fault):
    blob, at = _with_representation(zoo_dir, literal)
    assert _refusal(zoo_dir, blob) == f"malformed zoo manifest file: {fault}: line 1 column {at + 1} (char {at})"


def test_manifest_with_a_byte_order_mark_raises_value_error(zoo_dir):
    blob = b"\xef\xbb\xbf" + (zoo_dir / "zoo.json").read_bytes()
    assert _refusal(zoo_dir, blob) == "malformed zoo manifest file: byte order mark (BOM) is not supported: line 1 column 1 (char 0)"