"""Representation extractor: a small encoder-decoder MLP trained with
masked reconstruction, a contrastive series-wise constraint, and a
transferability-regression term, all with hand-derived gradients.

Encoder: e = W2 @ relu(W1 @ x + b1) + b2, and the mirrored decoder
reconstructs the window from e. The encoder output is the representation
used for model matching; cosine similarity is the metric throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import canonical_json, check_fields, check_sizes, check_unique, checked_tensors, init_uniform, read_artifact, sample_windows

EXTRACTOR_FORMAT_VERSION = 1
EXTRACTOR_FIELDS = {"dims": dict, "weights": dict, "training_log": list}
DIMS_FIELDS = {"L": int, "hidden": int, "d": int}

# OpenBLAS runs a product on one thread up to m*n*k = 65,536 * 4
BLAS_SINGLE_THREAD_MNK = 262_144

ENCODER_TENSORS = ("W1", "b1", "W2", "b2")
DECODER_TENSORS = ("V1", "c1", "V2", "c2")


@dataclass(frozen=True)
class ExtractorParams:
    """Extractor weights: the encoder W1,b1,W2,b2 alone (what a zoo keeps,
    enough to encode) or with the decoder V1,c1,V2,c2 (what training needs)."""

    weights: dict
    input_len: int
    hidden_dim: int
    repr_dim: int

    def __post_init__(self):
        check_fields(vars(self), dict.fromkeys(("input_len", "hidden_dim", "repr_dim"), int), "field")
        shapes = param_shapes(self.input_len, self.hidden_dim, self.repr_dim)
        if isinstance(self.weights, dict) and not set(self.weights) & set(DECODER_TENSORS):
            shapes = {name: shapes[name] for name in ENCODER_TENSORS}
        object.__setattr__(self, "weights", checked_tensors(self.weights, shapes, "extractor"))


@dataclass(frozen=True)
class MaskSpec:
    mask_ratio: float = 0.25
    num_views: int = 3

    def __post_init__(self):
        check_fields(vars(self), {"mask_ratio": float, "num_views": int}, "field")
        check_sizes(vars(self), ("num_views",), "field")
        if not (0.0 < self.mask_ratio < 1.0):
            raise ValueError("mask_ratio must be in (0, 1)")
        if self.num_views < 1:
            raise ValueError("num_views must be >= 1")


@dataclass(frozen=True)
class ExtractorTrainConfig:
    constraint_weight: float = 0.5  # weight on the contrastive term
    epochs: int = 100
    learning_rate: float = 0.02
    batch_size: int | None = None  # None: one window per dataset per batch
    seed: int = 0
    windows_per_dataset: int = 32
    hidden_dim: int = 64
    repr_dim: int = 32

    def __post_init__(self):
        ints = ("epochs", "seed", "windows_per_dataset", "hidden_dim", "repr_dim")
        if self.batch_size is not None:
            ints += ("batch_size",)
        check_fields(vars(self), {**dict.fromkeys(ints, int), "constraint_weight": float, "learning_rate": float}, "field")
        check_sizes(vars(self), ("epochs", "windows_per_dataset", "hidden_dim", "repr_dim"), "field")
        if min(self.epochs, self.windows_per_dataset, self.hidden_dim, self.repr_dim) < 1:
            raise ValueError("epochs, windows_per_dataset, hidden_dim and repr_dim must be >= 1")
        if self.constraint_weight < 0:
            raise ValueError("constraint_weight must be >= 0")
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        if self.batch_size is not None and self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (constraint needs negatives)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def param_shapes(input_len: int, hidden_dim: int, repr_dim: int) -> dict:
    return {
        "W1": (hidden_dim, input_len),
        "b1": (hidden_dim,),
        "W2": (repr_dim, hidden_dim),
        "b2": (repr_dim,),
        "V1": (hidden_dim, repr_dim),
        "c1": (hidden_dim,),
        "V2": (input_len, hidden_dim),
        "c2": (input_len,),
    }


def init_params(input_len: int, hidden_dim: int, repr_dim: int, seed: int) -> ExtractorParams:
    weights = init_uniform(param_shapes(input_len, hidden_dim, repr_dim), seed)
    return ExtractorParams(weights=weights, input_len=input_len, hidden_dim=hidden_dim, repr_dim=repr_dim)


# ---------------------------------------------------------------------------
# forward passes


def encode(params: ExtractorParams, window) -> np.ndarray:
    x = np.asarray(window, dtype=np.float64)
    if x.shape != (params.input_len,):
        raise ValueError(f"window length {x.shape} != input_len {params.input_len}")
    return encode_batch(params, x[None, :])[0]


def encode_batch(params: ExtractorParams, windows: np.ndarray) -> np.ndarray:
    """(M, L) windows -> (M, repr_dim) encodings, in near-equal row chunks
    whose products each stay at or under OpenBLAS's single-thread bound.

    Above m*n*k = 262,144 OpenBLAS splits a product across threads, and
    waking them can cost milliseconds for a product that takes
    microseconds alone. Near-equal chunks, each over half the row limit,
    keep every output bit of the whole product (OpenBLAS 0.3.31, 2
    threads); 40-row chunks of a 256-row encode change last bits.
    """
    rows = max(1, BLAS_SINGLE_THREAD_MNK // (params.hidden_dim * max(params.input_len, params.repr_dim)))
    if len(windows) <= rows:
        return _mlp_forward(params.weights, ENCODER_TENSORS, windows)[0]
    chunks = np.array_split(windows, -(-len(windows) // rows))
    return np.concatenate([_mlp_forward(params.weights, ENCODER_TENSORS, chunk)[0] for chunk in chunks])


def _mlp_forward(w: dict, names: tuple, x: np.ndarray):
    """(relu(x @ A.T + a) @ B.T + b, cache) for `names` = (A, a, B, b):
    ENCODER_TENSORS or DECODER_TENSORS."""
    a, a_bias, b, b_bias = names
    h_pre = x @ w[a].T + w[a_bias]
    h = np.maximum(0.0, h_pre)
    return h @ w[b].T + w[b_bias], (x, h_pre, h)


def _mlp_backward(w: dict, names: tuple, cache, d_out: np.ndarray):
    """(gradients of the tensors `names`, gradient w.r.t. the hidden
    pre-activation); the input's gradient is the latter @ w[names[0]]."""
    x, h_pre, h = cache
    dh = (d_out @ w[names[2]]) * (h_pre > 0)
    return dict(zip(names, (dh.T @ x, dh.sum(axis=0), d_out.T @ h, d_out.sum(axis=0)))), dh


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; 0 if either vector has (near-)zero norm."""
    # np.linalg.norm's sum for a 1-D real vector, without its wrapper
    ru, rv = u.ravel(order="K"), v.ravel(order="K")
    nu, nv = math.sqrt(ru.dot(ru)), math.sqrt(rv.dot(rv))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(M, N) cosines between the rows of a (M, d) and b (N, d); entry
    (i, j) equals `cosine(a[i], b[j])` bit for bit, 0 where either row has
    (near-)zero norm.

    Every dot and norm is a stacked (1, d) @ (d, 1) product, which numpy
    runs as the same vector dot that `cosine` calls; a plain a @ b.T, or
    einsum norms, sum in another order and change last bits.
    """
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    norm_a = np.sqrt(a[:, None, :] @ a[:, :, None])[:, 0, 0]
    norm_b = np.sqrt(b[:, None, :] @ b[:, :, None])[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-norm entries are set below
        scores = (a[:, None, None, :] @ b[:, :, None])[..., 0, 0] / (norm_a[:, None] * norm_b)
    scores[(norm_a < 1e-12)[:, None] | (norm_b < 1e-12)] = 0.0
    return scores


def mask_series(windows, spec: MaskSpec, rng: np.random.Generator) -> np.ndarray:
    """(..., num_views, L): copies of each length-L window, each with
    m = floor(ratio*L) positions zeroed (the mask token is 0 on normalized
    input). One draw of uniform keys, shape (..., num_views, L), covers the
    batch; a view's masked positions are its m smallest keys, so every view
    gets a uniformly random m-subset of its own."""
    x = np.asarray(windows, dtype=np.float64)
    count = int(spec.mask_ratio * x.shape[-1])
    views = np.repeat(x[..., None, :], spec.num_views, axis=-2)
    picks = np.argsort(rng.random(views.shape), axis=-1)[..., :count]
    np.put_along_axis(views, picks, 0.0, axis=-1)
    return views


# ---------------------------------------------------------------------------
# losses


def _unit_rows(r: np.ndarray):
    """(unit rows, norms). A row whose norm is below 1e-12 gets a zero unit
    row and an infinite norm, so any gradient divided by its norm is 0."""
    norms = np.sqrt((r * r).sum(axis=-1))
    norms[norms < 1e-12] = np.inf
    return r / norms[..., None], norms


def _similarity_loss_grad(reprs, b, dataset_index, g_matrix, constraint_weight):
    """Transferability and constraint losses of one batch, and the gradient
    of trans + constraint_weight * constraint w.r.t. `reprs`: b anchors,
    then V views per anchor, grouped by anchor.

    Both terms are functions of cosines. The anchor-anchor ones share one
    matrix S = U U^T of unit rows, and sum(D * S) has the row gradient
    ((D + D^T) U - rowsum((D + D^T) * S) U) / |e|.
    """
    if b < 2:
        raise ValueError("no negatives: need at least 2 anchor series")
    unit, norms = _unit_rows(reprs)
    unit_a, unit_v = unit[:b], unit[b:]
    num_views = unit_v.shape[0] // b
    sims = unit_a @ unit_a.T

    # transferability: mean squared error over cross-dataset pairs i < j
    rows = np.arange(b)
    cross = (rows[:, None] < rows) & (dataset_index[:, None] != dataset_index)
    num_pairs = np.count_nonzero(cross)
    resid = np.where(cross, g_matrix[dataset_index[:, None], dataset_index] - sims, 0.0)
    trans_loss = float((resid * resid).sum() / num_pairs) if num_pairs else 0.0
    d_sims = resid * (-2.0 / max(num_pairs, 1))

    # constraint: each anchor's views are its positives; the log-softmax
    # denominator runs over the anchors, self pair included
    num = unit_v.shape[0]
    unit_a_rep = np.repeat(unit_a, num_views, axis=0)
    pos = (unit_v * unit_a_rep).sum(axis=1)
    exp_sims = np.exp(sims)
    denom = exp_sims.sum(axis=1)
    con_loss = float((num_views * np.log(denom).sum() - pos.sum()) / num)
    d_denom = exp_sims / (b * denom[:, None])
    np.fill_diagonal(d_denom, 0.0)  # d cos(x, x)/dx = 0 for the self pair
    d_sims += constraint_weight * d_denom
    d_pos = -constraint_weight / num

    sym = d_sims + d_sims.T
    view_sum = unit_v.reshape(b, num_views, -1).sum(axis=1)
    pos_sum = pos.reshape(b, num_views).sum(axis=1)
    d_anchors = sym @ unit_a - ((sym * sims).sum(axis=1) + d_pos * pos_sum)[:, None] * unit_a + d_pos * view_sum
    d_views = d_pos * (unit_a_rep - pos[:, None] * unit_v)
    return trans_loss, con_loss, np.concatenate([d_anchors, d_views]) / norms[:, None]


# ---------------------------------------------------------------------------
# combined objective


def combined_loss_and_grad(
    params: ExtractorParams,
    windows: np.ndarray,
    masked_views: np.ndarray,
    dataset_index: np.ndarray,
    g_matrix: np.ndarray,
    constraint_weight: float,
):
    """Masked reconstruction + transferability + weighted constraint, with
    exact gradients for every parameter tensor.

    windows: (B, L) normalized anchors; masked_views: (B, V, L);
    dataset_index: (B,) index into g_matrix; g_matrix: (D, D).
    One encoder pass covers the stacked [anchors; views] rows.
    """
    w = params.weights
    b, v, length = masked_views.shape
    reprs, cache_e = _mlp_forward(w, ENCODER_TENSORS, np.concatenate([windows, masked_views.reshape(b * v, length)]))

    # reconstruction: decode each masked view back to its original window
    recon, cache_d = _mlp_forward(w, DECODER_TENSORS, reprs[b:])
    resid = recon - np.repeat(windows, v, axis=0)
    # squared reconstruction norm per masked view, averaged over views
    recon_loss = float((resid * resid).sum() / (b * v))
    grads, dh = _mlp_backward(w, DECODER_TENSORS, cache_d, 2.0 * resid / (b * v))

    trans_loss, con_loss, d_reprs = _similarity_loss_grad(reprs, b, dataset_index, g_matrix, constraint_weight)
    d_reprs[b:] += dh @ w["V1"]
    grads.update(_mlp_backward(w, ENCODER_TENSORS, cache_e, d_reprs)[0])

    total = recon_loss + trans_loss + constraint_weight * con_loss
    components = {"recon": recon_loss, "trans": trans_loss, "constraint": con_loss, "total": total}
    return total, grads, components


# ---------------------------------------------------------------------------
# training


def train_extractor(
    datasets: list,
    transfer_matrix,
    cfg: ExtractorTrainConfig,
    mask_spec: MaskSpec,
    input_len: int = 36,
):
    """SGD on the combined objective; returns (params, training_log).

    The datasets' names must be unique, and transfer_matrix must hold
    each of them; its block between them, in suite order
    (`TransferMatrix.submatrix`), is clipped to [-1, 1] so the cosine
    regression target is attainable.

    Batches are stratified round-robin across datasets. With the default
    batch_size (one window per dataset) every contrastive negative comes
    from a different dataset, so the constraint separates datasets instead
    of scattering windows of the same series.

    Each epoch samples every dataset's windows (`sample_windows`), then
    masks all of them in one `mask_series` call; batches are slices.

    Every step checks that the loss is finite, and every epoch that its
    mean losses are, and updates the one weights dict in place; the
    weights are validated once, when training ends, so a non-finite tensor
    still raises there.
    """
    if len(datasets) < 1:
        raise ValueError("need at least one dataset")
    check_fields({"input_len": input_len}, {"input_len": int}, "argument")
    check_sizes({"input_len": input_len}, ("input_len",), "argument")
    if input_len < 1:
        raise ValueError(f"input_len must be >= 1, got {input_len}")
    if len(datasets) * cfg.windows_per_dataset < 2:
        raise ValueError("an epoch needs at least 2 windows (constraint needs negatives)")
    names = [d.name for d in datasets]
    check_unique(names, "dataset name")
    g = np.clip(transfer_matrix.submatrix(names), -1.0, 1.0)

    params = init_params(input_len, cfg.hidden_dim, cfg.repr_dim, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    batch_size = max(2, len(datasets)) if cfg.batch_size is None else cfg.batch_size
    # interleave datasets so each batch draws evenly across them
    order = np.arange(len(datasets) * cfg.windows_per_dataset).reshape(len(datasets), -1).T.ravel()
    dataset_index = np.tile(np.arange(len(datasets)), cfg.windows_per_dataset)
    log = []
    for epoch in range(cfg.epochs):
        windows = np.concatenate([sample_windows(rng, data, input_len, cfg.windows_per_dataset) for data in datasets])
        windows = windows[order]
        views = mask_series(windows, mask_spec, rng)

        epoch_components = []
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, windows.shape[0], batch_size):
                batch = slice(start, start + batch_size)
                if dataset_index[batch].size < 2:
                    continue  # constraint needs negatives
                loss, grads, components = combined_loss_and_grad(
                    params, windows[batch], views[batch], dataset_index[batch], g, cfg.constraint_weight
                )
                if not math.isfinite(loss):
                    raise ValueError(f"training diverged in epoch {epoch + 1}")
                for name, grad in grads.items():
                    params.weights[name] -= cfg.learning_rate * grad
                epoch_components.append(components)
            means = {key: float(np.mean([c[key] for c in epoch_components])) for key in ("recon", "trans", "constraint", "total")}
        if not all(map(math.isfinite, means.values())):  # finite batch losses whose mean overflows
            raise ValueError(f"training diverged in epoch {epoch + 1}")
        log.append({"epoch": epoch + 1, **means})
    return replace(params), log  # the one check of the trained tensors


# ---------------------------------------------------------------------------
# PCA projection


def pca_project(reprs: list, k: int) -> np.ndarray:
    """Project centered representations onto the covariance's top-k eigenvectors (numpy's
    symmetric eigensolver, by descending eigenvalue), each flipped so that its largest-magnitude
    loading (the first on ties) is positive. A direction the points do not span projects to 0."""
    points = np.stack([np.asarray(r, dtype=np.float64) for r in reprs])
    n, d = points.shape
    if k < 1 or k > 3:
        raise ValueError("k must be in {1, 2, 3}")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} points for k={k}, got {n}")
    if k > d:
        raise ValueError(f"k={k} exceeds the representation dimension {d}")
    try:
        with np.errstate(over="raise", invalid="raise"):  # an overflow raises rather than warns
            centered = points - points.mean(axis=0)
            cov = centered.T @ centered / n
    except FloatingPointError:
        raise ValueError(f"PCA of {n} representations overflows float64") from None
    axes = np.linalg.eigh(cov)[1][:, ::-1][:, :k]  # eigh's eigenvalues ascend
    return centered @ (axes * np.sign(axes[np.argmax(np.abs(axes), axis=0), np.arange(k)]))


# ---------------------------------------------------------------------------
# persistence


def save(params: ExtractorParams, training_log: list | None = None) -> bytes:
    payload = {
        "format_version": EXTRACTOR_FORMAT_VERSION,
        "dims": {"L": params.input_len, "hidden": params.hidden_dim, "d": params.repr_dim},
        "weights": params.weights,
        "training_log": training_log or [],
    }
    return canonical_json(payload)


def load(blob: bytes):
    payload = read_artifact(blob, "extractor", EXTRACTOR_FORMAT_VERSION, EXTRACTOR_FIELDS)
    dims = payload["dims"]
    check_fields(dims, DIMS_FIELDS, "extractor file field 'dims' key")
    return ExtractorParams(payload["weights"], dims["L"], dims["hidden"], dims["d"]), payload["training_log"]
