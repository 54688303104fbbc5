"""Representation extractor: a small encoder-decoder MLP trained with
masked reconstruction, a contrastive series-wise constraint, and a
transferability-regression term, all with hand-derived gradients.

Encoder: e = W2 @ relu(W1 @ x + b1) + b2, and the mirrored decoder
reconstructs the window from e. The encoder output is the representation
used for model matching; cosine similarity is the metric throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .core import canonical_json, init_uniform, sample_windows

EXTRACTOR_FORMAT_VERSION = 1

ENCODER_TENSORS = ("W1", "b1", "W2", "b2")
DECODER_TENSORS = ("V1", "c1", "V2", "c2")


@dataclass(frozen=True)
class ExtractorParams:
    weights: dict  # W1,b1,W2,b2 (encoder); V1,c1,V2,c2 (decoder)
    input_len: int
    hidden_dim: int
    repr_dim: int

    def __post_init__(self):
        shapes = param_shapes(self.input_len, self.hidden_dim, self.repr_dim)
        if set(self.weights) != set(shapes):
            raise ValueError(f"expected tensors {sorted(shapes)}, got {sorted(self.weights)}")
        for name, shape in shapes.items():
            arr = np.asarray(self.weights[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"tensor {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"tensor {name} contains non-finite values")


@dataclass(frozen=True)
class MaskSpec:
    mask_ratio: float = 0.25
    num_views: int = 3

    def __post_init__(self):
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
        if self.constraint_weight < 0:
            raise ValueError("constraint_weight must be >= 0")
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        if self.batch_size is not None and self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (constraint needs negatives)")


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
    w = params.weights
    h = np.maximum(0.0, windows @ w["W1"].T + w["b1"])
    return h @ w["W2"].T + w["b2"]


def decode_batch(params: ExtractorParams, reprs: np.ndarray) -> np.ndarray:
    w = params.weights
    h = np.maximum(0.0, reprs @ w["V1"].T + w["c1"])
    return h @ w["V2"].T + w["c2"]


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; 0 if either vector has (near-)zero norm."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def mask_series(window, spec: MaskSpec, rng: np.random.Generator) -> np.ndarray:
    """(num_views, L): copies of the window, each with floor(ratio*L)
    positions drawn from `rng` and zeroed (the mask token is 0 on
    normalized input)."""
    x = np.asarray(window, dtype=np.float64)
    length = x.shape[0]
    count = int(spec.mask_ratio * length)
    views = np.repeat(x[None, :], spec.num_views, axis=0)
    for view in views:
        view[rng.choice(length, size=count, replace=False)] = 0.0
    return views


# ---------------------------------------------------------------------------
# losses (reference-readable forms; training uses the vectorized versions)


def constraint_loss(anchors: list, views_by_anchor: list) -> float:
    """Contrastive loss: each anchor pulls its own masked views close and
    pushes every other representation in the batch away.

    Returns the total over (anchor, view) pairs divided by the pair count.
    """
    stacked_anchors = np.stack([np.asarray(a, dtype=np.float64) for a in anchors])
    d = stacked_anchors.shape[1]
    stacked_views = [
        np.asarray(v, dtype=np.float64).reshape(-1, d) for v in views_by_anchor
    ]
    loss, _, _ = _constraint_loss_grad(stacked_anchors, stacked_views)
    return loss


def transferability_loss(pairs: list) -> float:
    """Mean over (repr_i, repr_j, g_ij) of (g_ij - cos(repr_i, repr_j))^2."""
    if not pairs:
        return 0.0
    total = 0.0
    for ei, ej, g in pairs:
        total += (g - cosine(np.asarray(ei), np.asarray(ej))) ** 2
    return total / len(pairs)


def _norms_and_unit(r: np.ndarray):
    norms = np.linalg.norm(r, axis=1)
    safe = np.where(norms < 1e-12, 1.0, norms)
    unit = r / safe[:, None]
    unit[norms < 1e-12] = 0.0
    return norms, safe, unit


def _cosine_pair_grads(unit_u, unit_v, safe_u, safe_v, sims, dsims):
    """Gradients of sum(dsims * cos) w.r.t. the unnormalized u and v rows,
    where sims[p] = unit_u[p] . unit_v[p]."""
    du = dsims[:, None] * (unit_v - sims[:, None] * unit_u) / safe_u[:, None]
    dv = dsims[:, None] * (unit_u - sims[:, None] * unit_v) / safe_v[:, None]
    return du, dv


def _constraint_loss_grad(anchors: np.ndarray, views_by_anchor: list):
    """Loss plus gradients w.r.t. anchors (B, d) and each view stack.

    Per anchor s, positives are its masked views; the log-softmax
    denominator runs over the anchor set itself (self pair included, at
    similarity 1 for a nonzero anchor).
    """
    b = anchors.shape[0]
    if b < 2:
        raise ValueError("no negatives: need at least 2 anchor series")
    view_counts = [v.shape[0] for v in views_by_anchor]
    norms_a, safe_a, unit_a = _norms_and_unit(anchors)
    anchor_sims = unit_a @ unit_a.T  # (B, B), diagonal is the self pair

    exp_sims = np.exp(anchor_sims)
    denom = exp_sims.sum(axis=1)  # (B,)
    num_pairs = sum(view_counts)

    loss = 0.0
    d_anchor = np.zeros_like(anchors)
    d_views = []
    log_denom = np.log(denom)
    for s, views in enumerate(views_by_anchor):
        norms_v, safe_v, unit_v = _norms_and_unit(views)
        pos_sims = unit_v @ unit_a[s]
        loss += float(np.sum(-pos_sims + log_denom[s]))
        dpos = np.full(views.shape[0], -1.0 / num_pairs)
        dv, da = _cosine_pair_grads(
            unit_v, np.broadcast_to(unit_a[s], unit_v.shape), safe_v,
            np.broadcast_to(safe_a[s], (views.shape[0],)), pos_sims, dpos,
        )
        dv[norms_v < 1e-12] = 0.0
        d_views.append(dv)
        if norms_a[s] >= 1e-12:
            d_anchor[s] += da.sum(axis=0)
    loss /= num_pairs

    # denominator term: each anchor s contributes P_s * log(denom[s])
    weights = np.asarray(view_counts, dtype=float) / num_pairs
    dsims = weights[:, None] * exp_sims / denom[:, None]  # (B, B)
    np.fill_diagonal(dsims, 0.0)  # d cos(x, x)/dx = 0 for the self pair
    row_dot = np.sum(dsims * anchor_sims, axis=1)
    col_dot = np.sum(dsims * anchor_sims, axis=0)
    denom_grad = (dsims @ unit_a - row_dot[:, None] * unit_a) / safe_a[:, None]
    denom_grad += (dsims.T @ unit_a - col_dot[:, None] * unit_a) / safe_a[:, None]
    denom_grad[norms_a < 1e-12] = 0.0
    d_anchor += denom_grad
    return loss, d_anchor, d_views


def _transfer_loss_grad(anchors: np.ndarray, pair_idx: np.ndarray, g: np.ndarray):
    """Loss and anchor gradients for mean (g - cos(e_i, e_j))^2 over the
    index pairs (pair_idx[:, 0], pair_idx[:, 1])."""
    if pair_idx.shape[0] == 0:
        return 0.0, np.zeros_like(anchors)
    norms, safe, unit = _norms_and_unit(anchors)
    i, j = pair_idx[:, 0], pair_idx[:, 1]
    sims = np.sum(unit[i] * unit[j], axis=1)
    resid = g - sims
    loss = float(np.mean(resid**2))
    dsims = -2.0 * resid / pair_idx.shape[0]
    grad = np.zeros_like(anchors)
    contrib_i = dsims[:, None] * (unit[j] - sims[:, None] * unit[i]) / safe[i][:, None]
    contrib_j = dsims[:, None] * (unit[i] - sims[:, None] * unit[j]) / safe[j][:, None]
    np.add.at(grad, i, contrib_i)
    np.add.at(grad, j, contrib_j)
    grad[norms < 1e-12] = 0.0
    return loss, grad


# ---------------------------------------------------------------------------
# combined objective


def _encoder_forward(params: ExtractorParams, x: np.ndarray):
    w = params.weights
    h_pre = x @ w["W1"].T + w["b1"]
    h = np.maximum(0.0, h_pre)
    return h @ w["W2"].T + w["b2"], (x, h_pre, h)

def _encoder_backward(params: ExtractorParams, cache, d_out: np.ndarray, grads: dict):
    w = params.weights
    x, h_pre, h = cache
    grads["W2"] += d_out.T @ h
    grads["b2"] += d_out.sum(axis=0)
    dh = (d_out @ w["W2"]) * (h_pre > 0)
    grads["W1"] += dh.T @ x
    grads["b1"] += dh.sum(axis=0)

def _decoder_forward(params: ExtractorParams, e: np.ndarray):
    w = params.weights
    h_pre = e @ w["V1"].T + w["c1"]
    h = np.maximum(0.0, h_pre)
    return h @ w["V2"].T + w["c2"], (e, h_pre, h)

def _decoder_backward(params: ExtractorParams, cache, d_out: np.ndarray, grads: dict):
    w = params.weights
    e, h_pre, h = cache
    grads["V2"] += d_out.T @ h
    grads["c2"] += d_out.sum(axis=0)
    dh = (d_out @ w["V2"]) * (h_pre > 0)
    grads["V1"] += dh.T @ e
    grads["c1"] += dh.sum(axis=0)
    return dh @ w["V1"]


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
    """
    b, v, length = masked_views.shape
    anchors, cache_a = _encoder_forward(params, windows)
    views_flat = masked_views.reshape(b * v, length)
    view_reprs, cache_v = _encoder_forward(params, views_flat)

    grads = {name: np.zeros_like(w) for name, w in params.weights.items()}

    # reconstruction: decode each masked view back to its original window
    recon, cache_d = _decoder_forward(params, view_reprs)
    target = np.repeat(windows, v, axis=0)
    resid = recon - target
    # squared reconstruction norm per masked view, averaged over views
    recon_loss = float(np.sum(resid**2) / (b * v))
    d_recon = 2.0 * resid / (b * v)
    d_view_reprs = _decoder_backward(params, cache_d, d_recon, grads)

    # transferability over all cross-dataset anchor pairs
    ii, jj = np.triu_indices(b, k=1)
    cross = dataset_index[ii] != dataset_index[jj]
    pair_idx = np.stack([ii[cross], jj[cross]], axis=1)
    g = g_matrix[dataset_index[pair_idx[:, 0]], dataset_index[pair_idx[:, 1]]]
    trans_loss, d_anchor_trans = _transfer_loss_grad(anchors, pair_idx, g)

    # series-wise contrastive constraint
    views_list = [view_reprs[s * v : (s + 1) * v] for s in range(b)]
    con_loss, d_anchor_con, d_views_con = _constraint_loss_grad(anchors, views_list)

    d_anchors = d_anchor_trans + constraint_weight * d_anchor_con
    d_view_reprs = d_view_reprs + constraint_weight * np.concatenate(d_views_con, axis=0)

    _encoder_backward(params, cache_a, d_anchors, grads)
    _encoder_backward(params, cache_v, d_view_reprs, grads)

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

    transfer_matrix must cover every pair of dataset names; its scores are
    clipped to [-1, 1] so the cosine regression target is attainable.

    Batches are stratified round-robin across datasets. With the default
    batch_size (one window per dataset) every contrastive negative comes
    from a different dataset, so the constraint separates datasets instead
    of scattering windows of the same series.
    """
    if len(datasets) < 1:
        raise ValueError("need at least one dataset")
    names = [d.name for d in datasets]
    g = np.empty((len(names), len(names)))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            g[i, j] = transfer_matrix.score(a, b)
    g = np.clip(g, -1.0, 1.0)

    params = init_params(input_len, cfg.hidden_dim, cfg.repr_dim, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    batch_size = max(2, len(datasets)) if cfg.batch_size is None else cfg.batch_size
    log = []
    for epoch in range(cfg.epochs):
        windows = np.concatenate([sample_windows(rng, data, input_len, cfg.windows_per_dataset) for data in datasets])
        dataset_index = np.repeat(np.arange(len(datasets)), cfg.windows_per_dataset)
        # interleave datasets so each batch draws evenly across them
        order = (
            np.arange(windows.shape[0]).reshape(len(datasets), cfg.windows_per_dataset).T.ravel()
        )

        epoch_components = []
        for start in range(0, windows.shape[0], batch_size):
            idx = order[start : start + batch_size]
            if idx.size < 2:
                continue  # constraint needs negatives
            batch = windows[idx]
            views = np.stack([mask_series(window, mask_spec, rng) for window in batch])
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads, components = combined_loss_and_grad(
                    params, batch, views, dataset_index[idx], g, cfg.constraint_weight
                )
            if not np.isfinite(loss):
                raise ValueError("training diverged")
            new_weights = {
                name: params.weights[name] - cfg.learning_rate * grads[name] for name in params.weights
            }
            params = replace(params, weights=new_weights)
            epoch_components.append(components)
        log.append(
            {
                "epoch": epoch + 1,
                **{
                    key: float(np.mean([c[key] for c in epoch_components]))
                    for key in ("recon", "trans", "constraint", "total")
                },
            }
        )
    return params, log


# ---------------------------------------------------------------------------
# PCA projection (deterministic power iteration with deflation)


def pca_project(reprs: list, k: int) -> np.ndarray:
    """Project centered representations onto the top-k principal axes.

    Power iteration (200 iterations, seeded start) with deflation; each
    component's largest-magnitude loading is flipped positive so plots are
    stable across runs.
    """
    points = np.stack([np.asarray(r, dtype=np.float64) for r in reprs])
    n, d = points.shape
    if k < 1 or k > 3:
        raise ValueError("k must be in {1, 2, 3}")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} points for k={k}, got {n}")
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / n
    rng = np.random.default_rng(0)
    components = []
    for _ in range(k):
        vec = rng.standard_normal(d)
        vec /= np.linalg.norm(vec)
        for _ in range(200):
            nxt = cov @ vec
            norm = np.linalg.norm(nxt)
            if norm < 1e-15:
                break  # remaining variance is zero
            vec = nxt / norm
        pivot = np.argmax(np.abs(vec))
        if vec[pivot] < 0:
            vec = -vec
        components.append(vec)
        eigval = float(vec @ cov @ vec)
        cov = cov - eigval * np.outer(vec, vec)
    basis = np.stack(components, axis=1)  # (d, k)
    return centered @ basis


# ---------------------------------------------------------------------------
# persistence


def save(params: ExtractorParams, training_log: list | None = None) -> bytes:
    payload = {
        "format_version": EXTRACTOR_FORMAT_VERSION,
        "dims": {"L": params.input_len, "hidden": params.hidden_dim, "d": params.repr_dim},
        "weights": {name: w.tolist() for name, w in sorted(params.weights.items())},
        "training_log": training_log or [],
    }
    return canonical_json(payload)


def load(blob: bytes):
    try:
        payload = json.loads(blob)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed extractor file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format_version") != EXTRACTOR_FORMAT_VERSION:
        raise ValueError("unsupported extractor format_version")
    dims = payload["dims"]
    weights = {name: np.asarray(w, dtype=np.float64) for name, w in payload["weights"].items()}
    params = ExtractorParams(
        weights=weights, input_len=dims["L"], hidden_dim=dims["hidden"], repr_dim=dims["d"]
    )
    return params, payload.get("training_log", [])
