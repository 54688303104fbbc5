"""Model zoo: per-model representations, the cross-dataset transfer
matrix that supervises the extractor, and manifest persistence.

A zoo directory is self-contained: `zoo.json`, the referenced model files
and an encoder-only `extractor.json`, each named by a plain file name in
the directory and guarded by a content digest; `_read_regular` is the one
read of every zoo file, and `_read_checked` adds the name and digest
checks of the extractor and model files. Forecasting only encodes, so the
zoo keeps the encoder tensors and drops the decoder and the training log;
those stay in the trained extractor file that `build_zoo` reads.

Matching compares representations in one space, so `Zoo` checks on
construction that it has at least one entry, unique model ids, and for
each entry a finite representation of the extractor's dimension, the
extractor's input_len and the first entry's horizon. The check runs for
loaded and in-memory zoos, and a built zoo is an in-memory zoo written
to disk: `build_zoo` refuses repeated ids before any file is parsed and
writes nothing for a zoo that fails the check. `load_zoo` reads and
checks every file, and model files are parsed lazily: on first use
`Zoo.forecaster` reads and checks the file again, so one changed or gone
since load is named too, and checks the model's input_len and horizon
against its entry. Each of these faults names the entry and its file.
"""

from __future__ import annotations

import hashlib
import os
import stat
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import extractor as extractor_mod
from . import forecasters
from .core import MAX_SIZE, SEED, SIZE, Dataset, MultivariateSeries, as_float_array, canonical_json, check_fields, check_unique
from .core import mse, read_artifact, sample_windows, write_file

ZOO_FORMAT_VERSION = 1
MANIFEST_FIELDS = {"extractor": str, "extractor_digest": str, "entries": list[dict]}
ENTRY_FIELDS = {
    "model_id": str, "file": str, "digest": str, "source_dataset": str,
    "input_len": SIZE, "horizon": SIZE, "representation": list,
}
TRANSFER_MATRIX_FIELDS = {"datasets": list[str], "g": list}
REPRESENTATION_SAMPLES = 256  # source windows averaged into each model's representation


@dataclass(frozen=True)
class TransferMatrix:
    """Transfer scores between datasets of unique names, in suite order:
    g[i, j] is the score of dataset i's model on dataset j's tail."""

    dataset_names: tuple
    g: np.ndarray

    def __post_init__(self):
        check_unique(self.dataset_names, "dataset name")
        arr = np.asarray(self.g, dtype=np.float64)
        n = len(self.dataset_names)
        if arr.shape != (n, n):
            raise ValueError(f"g has shape {arr.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite transfer scores")
        object.__setattr__(self, "dataset_names", tuple(self.dataset_names))
        object.__setattr__(self, "g", arr)

    def submatrix(self, names) -> np.ndarray:
        """The (n, n) block of g between `names`, in that order."""
        missing = [name for name in names if name not in self.dataset_names]
        if missing:
            raise ValueError(f"transfer matrix has no entry for dataset {missing[0]!r}")
        rows = [self.dataset_names.index(name) for name in names]
        return self.g[np.ix_(rows, rows)]

    def to_bytes(self) -> bytes:
        return canonical_json({"datasets": self.dataset_names, "g": self.g})

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TransferMatrix":
        payload = read_artifact(blob, "transfer matrix", None, TRANSFER_MATRIX_FIELDS)
        g = as_float_array(payload["g"], "transfer matrix file field 'g'")
        try:
            return cls(dataset_names=payload["datasets"], g=g)
        except ValueError as exc:  # __post_init__ checks the names, then g
            field = "datasets" if len(set(payload["datasets"])) < len(payload["datasets"]) else "g"
            raise ValueError(f"transfer matrix file field {field!r}: {exc}") from None


@dataclass
class ModelEntry:
    model_id: str
    file: str
    digest: str
    source_dataset: str
    input_len: int
    horizon: int
    representation: np.ndarray


@dataclass
class Zoo:
    """Model entries matched in the extractor's representation space.

    Construction raises a `ValueError` naming the entry at fault unless
    the zoo is non-empty, its model ids are unique (checked before any
    entry's own fields), and every entry has a finite representation of
    shape (repr_dim,) whose squared norm does not overflow float64, reads
    windows of the extractor's input_len and forecasts the first entry's
    horizon.
    """

    entries: list
    extractor_params: extractor_mod.ExtractorParams
    root: Path | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("need at least one model")
        check_unique([e.model_id for e in self.entries], "model_id")
        first, params = self.entries[0], self.extractor_params
        for e in self.entries:
            shape = np.shape(e.representation)
            if shape != (params.repr_dim,):
                raise ValueError(
                    f"entry {e.model_id!r}: representation shape {shape} != extractor dim ({params.repr_dim},)"
                )
            if not np.all(np.isfinite(e.representation)):
                raise ValueError(f"entry {e.model_id!r}: non-finite representation")
            with np.errstate(over="ignore"):  # every cosine against it would read 0.0
                if not np.isfinite(np.dot(e.representation, e.representation)):
                    raise ValueError(f"entry {e.model_id!r}: representation norm overflows float64")
            if e.input_len != params.input_len:
                raise ValueError(
                    f"entry {e.model_id!r}: input_len {e.input_len} != extractor input_len {params.input_len}"
                )
            if e.horizon != first.horizon:
                raise ValueError(
                    f"entry {e.model_id!r}: horizon {e.horizon} != horizon {first.horizon} "
                    f"of entry {first.model_id!r}"
                )

    @property
    def repr_dim(self) -> int:
        return self.extractor_params.repr_dim

    @property
    def input_len(self) -> int:
        return self.entries[0].input_len

    @property
    def horizon(self) -> int:
        return self.entries[0].horizon

    def forecaster(self, model_id: str) -> forecasters.Forecaster:
        if model_id not in self._cache:
            entry = next((e for e in self.entries if e.model_id == model_id), None)
            if entry is None:
                raise ValueError(f"no model {model_id!r} in zoo")
            blob = _read_checked(self.root or Path("."), entry.file, entry.digest, f"entry {model_id!r}")
            model = _load_model(blob, f"entry {model_id!r} ({entry.file})")
            for name, value in (("input_len", model.spec.input_len), ("horizon", model.spec.horizon)):
                if value != getattr(entry, name):
                    raise ValueError(
                        f"entry {model_id!r}: {name} {getattr(entry, name)} != {name} {value} "
                        f"of its model file {entry.file}"
                    )
            self._cache[model_id] = model
        return self._cache[model_id]


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _read_regular(path: Path) -> bytes:
    """The bytes of the regular file at `path`, from one open. The open
    does not block, so a FIFO is refused as a directory is, by the type of
    the opened file; anything but a regular file raises an OSError, and a
    path holding a NUL a ValueError."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    with open(fd, "rb", buffering=0) as fh:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise OSError(f"{path} is not a regular file")
        return fh.readall()


def _read_checked(root: Path, name: str, digest: str, what: str) -> bytes:
    """The bytes of the zoo file `name`, which must be a plain file name,
    a regular file in `root`, and hash to `digest`."""
    try:
        if Path(name).name != name:
            raise OSError
        blob = _read_regular(root / name)
    except (OSError, ValueError):  # also a name too long for the file system or holding a NUL, or an unreadable file
        raise ValueError(f"{what}: no file {name!r} in the zoo directory") from None
    if _digest(blob) != digest:
        raise ValueError(f"digest mismatch for {what} ({name})")
    return blob


def _load_model(blob: bytes, where: str) -> forecasters.Forecaster:
    """The model file `blob`, parsed; its faults are prefixed with `where`."""
    try:
        return forecasters.load(blob)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def compute_model_representation(
    params: extractor_mod.ExtractorParams, source_data: Dataset, sample_count: int = REPRESENTATION_SAMPLES, seed: int = 0
) -> np.ndarray:
    """Mean encoding of sampled, instance-normalized source windows; more
    than MAX_SIZE sampled values raise before any is drawn."""
    check_fields({"sample_count": sample_count, "seed": seed}, {"sample_count": SIZE, "seed": SEED}, "argument")
    if sample_count * params.input_len > MAX_SIZE:
        raise ValueError(f"sample_count {sample_count} and input_len {params.input_len} would draw more than {MAX_SIZE} values")
    windows = sample_windows(np.random.default_rng(seed), source_data, params.input_len, sample_count)
    return extractor_mod.encode_batch(params, windows).mean(axis=0)


def _split(data: Dataset, tail_len: int) -> tuple:
    """(first 80%, last 20%) of every channel, as two datasets; the tail
    must have at least `tail_len` rows."""
    cut = int(data.series.length * 0.8)
    if data.series.length - cut < tail_len:
        raise ValueError(f"dataset {data.name!r} tail too short for evaluation windows of length {tail_len}")
    values, names = data.series.values, data.series.channel_names
    return tuple(
        Dataset(series=MultivariateSeries(part, names), name=data.name)
        for part in (values[:cut], values[cut:])
    )


def compute_transfer_matrix(
    datasets: list, spec: forecasters.ForecasterSpec, cfg: forecasters.TrainConfig
) -> tuple:
    """Train one forecaster per dataset (on the first 80%), evaluate each
    on every dataset's held-out tail at normalized scale, g = 1 - MSE.

    Inputs are checked before any training: the names must be unique,
    then, in suite order, each tail's evaluation windows are cut, then
    `train_many` runs its checks. So a later dataset's bad input wins over
    an earlier dataset's divergence. The train parts, tails and models are
    lists in suite order; g[i, j] scores model i on tail j.

    Returns (TransferMatrix, trained models by dataset name).
    """
    if len(datasets) < 2:
        raise ValueError("need at least 2 datasets")
    names = [d.name for d in datasets]
    check_unique(names, "dataset name")
    train_parts, tails = [], []
    for data in datasets:
        train_part, tail = _split(data, spec.input_len + spec.horizon)
        train_parts.append(train_part)
        tails.append(forecasters.extract_windows(tail, spec.input_len, spec.horizon))
    models = forecasters.train_many(spec, train_parts, cfg)
    g = [[1.0 - mse(targets.T, forecasters.forecast_batch(model, windows).T) for windows, targets in tails] for model in models]
    return TransferMatrix(dataset_names=tuple(names), g=np.array(g)), dict(zip(names, models))


def build_zoo(
    model_files: list,
    source_datasets: list,
    extractor_file,
    out_dir,
    per_model_source_samples: int = REPRESENTATION_SAMPLES,
    seed: int = 0,
) -> Path:
    """Write `zoo_from_models`' zoo of the trained model files, keyed by
    file stem, and the encoder of `extractor_file` as a self-contained zoo
    directory; idempotent for identical inputs."""
    if len(model_files) != len(source_datasets):
        raise ValueError("one source dataset required per model file")
    model_ids = [Path(p).stem for p in model_files]
    check_unique(model_ids, "model_id")
    params, _ = extractor_mod.load(Path(extractor_file).read_bytes())
    params = replace(params, weights={name: params.weights[name] for name in extractor_mod.ENCODER_TENSORS})
    blobs, models, reprs = [], {}, {}
    for model_id, model_path, source in zip(model_ids, model_files, source_datasets):
        blobs.append(Path(model_path).read_bytes())
        model = _load_model(blobs[-1], Path(model_path).name)  # named like `load_csv` names its file
        models[model_id] = replace(model, source_dataset=model.source_dataset or source.name)
        reprs[model_id] = compute_model_representation(params, source, per_model_source_samples, seed)
    zoo = zoo_from_models(models, params, reprs)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for entry, blob in zip(zoo.entries, blobs):
        entry.file, entry.digest = f"{entry.model_id}.model.json", _digest(blob)
        write_file(out / entry.file, blob)
    extractor_blob = extractor_mod.save(params)
    write_file(out / "extractor.json", extractor_blob)
    manifest = {
        "format_version": ZOO_FORMAT_VERSION,
        "extractor": "extractor.json",
        "extractor_digest": _digest(extractor_blob),
        "entries": [asdict(e) for e in zoo.entries],
    }
    write_file(out / "zoo.json", canonical_json(manifest))
    return out


def load_zoo(zoo_dir) -> Zoo:
    root = Path(zoo_dir)
    try:
        blob = _read_regular(root / "zoo.json")
    except (OSError, ValueError):  # ValueError: a path holding a NUL
        raise ValueError(f"no zoo.json in {root}") from None
    manifest = read_artifact(blob, "zoo manifest", ZOO_FORMAT_VERSION, MANIFEST_FIELDS)
    params, _ = extractor_mod.load(_read_checked(root, manifest["extractor"], manifest["extractor_digest"], "extractor"))
    entries = []
    for i, raw in enumerate(manifest["entries"]):
        check_fields(raw, ENTRY_FIELDS, f"zoo manifest entry {i} field")
        record = {name: raw[name] for name in ENTRY_FIELDS}
        record["representation"] = as_float_array(raw["representation"], f"entry {raw['model_id']!r}: representation")
        _read_checked(root, raw["file"], raw["digest"], f"entry {raw['model_id']!r}")
        entries.append(ModelEntry(**record))
    return Zoo(entries=entries, extractor_params=params, root=root)


def zoo_from_models(models: dict, params: extractor_mod.ExtractorParams, representations: dict) -> Zoo:
    """In-memory zoo (no files) from trained forecasters keyed by id."""
    entries = [
        ModelEntry(
            model_id=model_id,
            file="",
            digest="",
            source_dataset=model.source_dataset,
            input_len=model.spec.input_len,
            horizon=model.spec.horizon,
            representation=np.asarray(representations[model_id], dtype=np.float64),
        )
        for model_id, model in models.items()
    ]
    return Zoo(entries, params, _cache=dict(models))


def zoo_from_suite(suite: list, spec: forecasters.ForecasterSpec, seed: int = 0) -> tuple:
    """The default in-memory zoo of a suite, every step seeded with `seed`
    and otherwise at its config defaults: one `spec` forecaster per
    dataset and the transfer matrix between them, the extractor trained on
    it, and each model's representation from its own dataset. Returns
    (Zoo, the extractor's training log)."""
    tm, models = compute_transfer_matrix(suite, spec, forecasters.TrainConfig(seed=seed))
    params, log = extractor_mod.train_extractor(
        suite, tm, extractor_mod.ExtractorTrainConfig(seed=seed), extractor_mod.MaskSpec(), input_len=spec.input_len
    )
    reprs = {d.name: compute_model_representation(params, d, seed=seed) for d in suite}
    return zoo_from_models(models, params, reprs), log
