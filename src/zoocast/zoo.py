"""Model zoo: per-model representations, the cross-dataset transfer
matrix that supervises the extractor, and manifest persistence.

A zoo directory is self-contained: `zoo.json` plus the referenced model
and extractor files, each guarded by a content digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import extractor as extractor_mod
from . import forecasters
from .core import Dataset, MultivariateSeries, canonical_json, mse, sample_windows

ZOO_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TransferMatrix:
    dataset_names: tuple
    g: np.ndarray  # g[i, j] = transfer score from dataset i's model to dataset j

    def __post_init__(self):
        arr = np.asarray(self.g, dtype=np.float64)
        n = len(self.dataset_names)
        if arr.shape != (n, n):
            raise ValueError(f"g has shape {arr.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite transfer scores")
        object.__setattr__(self, "dataset_names", tuple(self.dataset_names))
        object.__setattr__(self, "g", arr)

    def score(self, src: str, dst: str) -> float:
        try:
            i = self.dataset_names.index(src)
            j = self.dataset_names.index(dst)
        except ValueError:
            missing = src if src not in self.dataset_names else dst
            raise KeyError(f"transfer matrix has no entry for dataset {missing!r}") from None
        return float(self.g[i, j])

    def to_bytes(self) -> bytes:
        return canonical_json({"datasets": list(self.dataset_names), "g": self.g.tolist()})

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TransferMatrix":
        payload = json.loads(blob)
        return cls(dataset_names=tuple(payload["datasets"]), g=np.asarray(payload["g"]))


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
    entries: list
    extractor_params: extractor_mod.ExtractorParams
    root: Path | None = None
    _cache: dict = field(default_factory=dict, repr=False)

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
                raise KeyError(f"no model {model_id!r} in zoo")
            path = (self.root or Path(".")) / entry.file
            blob = path.read_bytes()
            if _digest(blob) != entry.digest:
                raise ValueError(f"digest mismatch for entry {model_id!r} ({entry.file})")
            self._cache[model_id] = forecasters.load(blob)
        return self._cache[model_id]


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def compute_model_representation(
    params: extractor_mod.ExtractorParams, source_data: Dataset, sample_count: int = 256, seed: int = 0
) -> np.ndarray:
    """Mean encoding of sampled, instance-normalized source windows."""
    windows = sample_windows(np.random.default_rng(seed), source_data, params.input_len, sample_count)
    return extractor_mod.encode_batch(params, windows).mean(axis=0)


def _split(data: Dataset) -> tuple:
    """(first 80%, last 20%) of every channel, as two datasets."""
    cut = int(data.series.length * 0.8)
    values, names = data.series.values, data.series.channel_names
    return tuple(
        Dataset(series=MultivariateSeries(part, names), name=data.name, granularity=data.granularity)
        for part in (values[:cut], values[cut:])
    )


def compute_transfer_matrix(
    datasets: list, spec: forecasters.ForecasterSpec, cfg: forecasters.TrainConfig
) -> tuple:
    """Train one forecaster per dataset (on the first 80%), evaluate each
    on every dataset's held-out tail at normalized scale, g = 1 - MSE.

    Returns (TransferMatrix, trained models by dataset name).
    """
    if len(datasets) < 2:
        raise ValueError("need at least 2 datasets")
    models, eval_sets = {}, {}
    for data in datasets:
        try:
            train_part, tail = _split(data)
            models[data.name] = forecasters.train(spec, train_part, cfg)
        except ValueError as exc:
            raise ValueError(f"training failed on dataset {data.name!r}: {exc}") from exc
        try:
            eval_sets[data.name] = forecasters.extract_windows(tail, spec.input_len, spec.horizon)
        except ValueError:
            raise ValueError(f"dataset {data.name!r} tail too short for evaluation windows") from None
    names = [d.name for d in datasets]
    g = np.empty((len(names), len(names)))
    for i, src in enumerate(names):
        for j, dst in enumerate(names):
            windows, targets = eval_sets[dst]
            preds = forecasters.forecast_batch(models[src], windows)
            g[i, j] = 1.0 - mse(targets.T, preds.T)
    return TransferMatrix(dataset_names=tuple(names), g=g), models


def build_zoo(
    model_files: list,
    source_datasets: list,
    extractor_file,
    out_dir,
    per_model_source_samples: int = 256,
    seed: int = 0,
) -> Path:
    """Assemble a self-contained zoo directory from trained model files
    and their source datasets; idempotent for identical inputs."""
    if not model_files:
        raise ValueError("need at least one model")
    if len(model_files) != len(source_datasets):
        raise ValueError("one source dataset required per model file")
    extractor_blob = Path(extractor_file).read_bytes()
    params, _ = extractor_mod.load(extractor_blob)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    entries = []
    seen_ids = set()
    for model_path, source in zip(model_files, source_datasets):
        blob = Path(model_path).read_bytes()
        model = forecasters.load(blob)
        model_id = Path(model_path).stem
        if model_id in seen_ids:
            raise ValueError(f"duplicate model_id {model_id!r}")
        seen_ids.add(model_id)
        rep = compute_model_representation(params, source, per_model_source_samples, seed)
        file_name = f"{model_id}.model.json"
        (out / file_name).write_bytes(blob)
        entries.append(
            {
                "model_id": model_id,
                "file": file_name,
                "digest": _digest(blob),
                "source_dataset": model.source_dataset or source.name,
                "input_len": model.spec.input_len,
                "horizon": model.spec.horizon,
                "representation": rep.tolist(),
            }
        )
    dims = {len(e["representation"]) for e in entries}
    if dims != {params.repr_dim}:
        raise ValueError(f"mixed representation dimensions {sorted(dims)}")
    _check_entry_shapes(entries, params.input_len)
    (out / "extractor.json").write_bytes(extractor_blob)
    manifest = {
        "format_version": ZOO_FORMAT_VERSION,
        "extractor": "extractor.json",
        "extractor_digest": _digest(extractor_blob),
        "entries": entries,
    }
    (out / "zoo.json").write_bytes(canonical_json(manifest))
    return out


def _check_entry_shapes(entries: list, extractor_input_len: int) -> None:
    """Every manifest entry reads windows of the extractor's length and
    forecasts the same horizon as the first entry."""
    first = entries[0]
    for e in entries:
        if e["input_len"] != extractor_input_len:
            raise ValueError(
                f"entry {e['model_id']!r}: input_len {e['input_len']} != extractor input_len {extractor_input_len}"
            )
        if e["horizon"] != first["horizon"]:
            raise ValueError(
                f"entry {e['model_id']!r}: horizon {e['horizon']} != horizon {first['horizon']} "
                f"of entry {first['model_id']!r}"
            )


def load_zoo(zoo_dir) -> Zoo:
    root = Path(zoo_dir)
    manifest_path = root / "zoo.json"
    if not manifest_path.exists():
        raise ValueError(f"no zoo.json in {root}")
    manifest = json.loads(manifest_path.read_bytes())
    if manifest.get("format_version") != ZOO_FORMAT_VERSION:
        raise ValueError("unsupported zoo format_version")
    extractor_blob = (root / manifest["extractor"]).read_bytes()
    if _digest(extractor_blob) != manifest["extractor_digest"]:
        raise ValueError("extractor digest mismatch")
    params, _ = extractor_mod.load(extractor_blob)
    entries = []
    ids = set()
    for raw in manifest["entries"]:
        rep = np.asarray(raw["representation"], dtype=np.float64)
        if rep.shape != (params.repr_dim,):
            raise ValueError(
                f"entry {raw['model_id']!r}: representation dim {rep.shape[0]} != extractor d {params.repr_dim}"
            )
        if raw["model_id"] in ids:
            raise ValueError(f"duplicate model_id {raw['model_id']!r}")
        ids.add(raw["model_id"])
        if not (root / raw["file"]).exists():
            raise ValueError(f"entry {raw['model_id']!r}: missing weights file {raw['file']}")
        entries.append(
            ModelEntry(
                model_id=raw["model_id"],
                file=raw["file"],
                digest=raw["digest"],
                source_dataset=raw["source_dataset"],
                input_len=raw["input_len"],
                horizon=raw["horizon"],
                representation=rep,
            )
        )
    if not entries:
        raise ValueError("zoo manifest has no entries")
    _check_entry_shapes(manifest["entries"], params.input_len)
    return Zoo(entries=entries, extractor_params=params, root=root)


def zoo_from_models(models: dict, params: extractor_mod.ExtractorParams, representations: dict) -> Zoo:
    """In-memory zoo (no files) from trained forecasters keyed by id."""
    entries = []
    zoo = Zoo(entries=entries, extractor_params=params)
    for model_id, model in models.items():
        rep = np.asarray(representations[model_id], dtype=np.float64)
        entries.append(
            ModelEntry(
                model_id=model_id,
                file="",
                digest="",
                source_dataset=model.source_dataset,
                input_len=model.spec.input_len,
                horizon=model.spec.horizon,
                representation=rep,
            )
        )
        zoo._cache[model_id] = model
    return zoo
