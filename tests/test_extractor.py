import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zoocast.bench import SyntheticFamilySpec, generate_synthetic
from zoocast.core import Dataset, MultivariateSeries, sample_windows
from zoocast.extractor import (
    DECODER_TENSORS,
    ENCODER_TENSORS,
    ExtractorParams,
    ExtractorTrainConfig,
    MaskSpec,
    combined_loss_and_grad,
    cosine,
    encode,
    encode_batch,
    init_params,
    load,
    mask_series,
    param_shapes,
    pca_project,
    save,
    train_extractor,
)
from zoocast.extractor import (
    BLAS_SINGLE_THREAD_MNK,
    DECODER_TENSORS,
    ENCODER_TENSORS,
    _mlp_backward,
    _mlp_forward,
    _similarity_loss_grad,
    _unit_rows,
)
from zoocast.zoo import TransferMatrix


def _random_params(rng, length=8, hidden=6, d=4):
    return init_params(length, hidden, d, seed=int(rng.integers(1 << 30)))


# -- encode ------------------------------------------------------------------


def test_encode_zero_weights_gives_zero_vector():
    params = init_params(6, 4, 3, seed=0)
    zeroed = ExtractorParams(
        weights={k: np.zeros_like(v) for k, v in params.weights.items()},
        input_len=6,
        hidden_dim=4,
        repr_dim=3,
    )
    np.testing.assert_array_equal(encode(zeroed, np.ones(6)), np.zeros(3))


def test_encode_is_pure_and_matches_direct_arithmetic():
    rng = np.random.default_rng(1)
    params = _random_params(rng)
    window = rng.standard_normal(8)
    e1 = encode(params, window)
    e2 = encode(params, window)
    np.testing.assert_array_equal(e1, e2)
    w = params.weights
    hidden = np.maximum(0.0, w["W1"] @ window + w["b1"])
    expected = w["W2"] @ hidden + w["b2"]
    np.testing.assert_allclose(e1, expected, atol=1e-9)


def test_encode_length_mismatch():
    params = init_params(8, 4, 3, seed=0)
    with pytest.raises(ValueError, match="input_len"):
        encode(params, np.ones(5))


@pytest.mark.parametrize("dims", [(36, 64, 32), (48, 64, 64), (20, 128, 40)], ids=str)
def test_encode_batch_keeps_every_product_single_threaded_and_every_bit(dims, monkeypatch):
    from zoocast import extractor as extractor_mod

    input_len, hidden, d = dims
    params = init_params(input_len, hidden, d, seed=3)
    windows = np.random.default_rng(3).normal(size=(1000, input_len))
    whole = _mlp_forward(params.weights, ENCODER_TENSORS, windows)[0]
    rows = []

    def recording(w, names, x):
        rows.append(len(x))
        return _mlp_forward(w, names, x)

    monkeypatch.setattr(extractor_mod, "_mlp_forward", recording)
    assert encode_batch(params, windows).tobytes() == whole.tobytes()
    assert sum(rows) == 1000 and len(rows) > 1
    assert max(rows) * hidden * max(input_len, d) <= BLAS_SINGLE_THREAD_MNK
    assert max(rows) - min(rows) <= 1  # near-equal chunks: short ones would round differently


# -- masking -----------------------------------------------------------------


def test_mask_counts():
    window = np.ones(36)
    views = mask_series(window, MaskSpec(mask_ratio=0.25, num_views=3), np.random.default_rng(0))
    assert len(views) == 3
    for v in views:
        assert np.sum(v == 0.0) == 9
    np.testing.assert_array_equal(window, np.ones(36))  # original untouched


def test_mask_determinism_and_independence():
    window = np.arange(1.0, 21.0)
    spec = MaskSpec(mask_ratio=0.3, num_views=3)
    a = mask_series(window, spec, np.random.default_rng(7))
    b = mask_series(window, spec, np.random.default_rng(7))
    for va, vb in zip(a, b):
        np.testing.assert_array_equal(va, vb)
    masks = [tuple(np.flatnonzero(v == 0.0)) for v in a]
    assert len(set(masks)) > 1  # views draw independent masks


@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(2, 40),
    ratio=st.floats(0.01, 0.99),
    num_views=st.integers(1, 4),
)
@settings(max_examples=50, deadline=None)
def test_mask_series_draws_like_the_training_loop(seed, length, ratio, num_views):
    spec = MaskSpec(mask_ratio=ratio, num_views=num_views)
    window = np.random.default_rng(seed).normal(size=length)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    views = mask_series(window, spec, rng)
    # replay: one (num_views, length) draw of uniform keys; each view zeroes
    # the positions of its int(ratio * length) smallest keys
    keys = ref_rng.random((num_views, length))
    expected = np.empty((num_views, length))
    for view in range(num_views):
        masked = window.copy()
        masked[sorted(range(length), key=keys[view].__getitem__)[: int(ratio * length)]] = 0.0
        expected[view] = masked
    assert np.array_equal(views, expected)
    assert rng.random() == ref_rng.random()  # generator left in the same state


@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 4),
    length=st.integers(1, 40),
    ratio=st.floats(0.01, 0.99),
    num_views=st.integers(1, 4),
)
@example(seed=0, batch=2, length=36, ratio=0.01, num_views=3)  # m = 0
@example(seed=1, batch=3, length=36, ratio=0.25, num_views=1)
@settings(max_examples=100, deadline=None)
def test_every_view_zeroes_exactly_m_distinct_positions(seed, batch, length, ratio, num_views):
    windows = np.random.default_rng(seed).uniform(1.0, 2.0, size=(batch, length))  # no zeros of their own
    views = mask_series(windows, MaskSpec(mask_ratio=ratio, num_views=num_views), np.random.default_rng(seed))
    assert views.shape == (batch, num_views, length)
    zeroed = views == 0.0
    assert np.all(zeroed.sum(axis=-1) == int(ratio * length))
    kept = np.broadcast_to(windows[:, None, :], views.shape)
    assert np.array_equal(views[~zeroed], kept[~zeroed])


@pytest.mark.parametrize("length, ratio", [(12, 0.25), (7, 0.5)])
def test_mask_positions_are_uniform_and_views_independent(length, ratio):
    # each position is masked at rate m/L, and in both of two views of the
    # same window at rate (m/L)^2; bounds are 5 binomial standard deviations
    draws = 4000
    m = int(ratio * length)
    views = mask_series(np.ones((draws, length)), MaskSpec(mask_ratio=ratio, num_views=2), np.random.default_rng(0))
    zeroed = views == 0.0

    def assert_rate(hits, n, p):
        assert np.all(np.abs(hits - n * p) <= 5.0 * np.sqrt(n * p * (1.0 - p)))

    assert_rate(zeroed.sum(axis=(0, 1)), 2 * draws, m / length)
    assert_rate((zeroed[:, 0] & zeroed[:, 1]).sum(axis=0), draws, (m / length) ** 2)


@pytest.mark.parametrize("seed, batch, num_views", [(0, 5, 3), (1, 1, 2), (2, 4, 1)])
def test_mask_series_on_a_batch_draws_window_then_view(seed, batch, num_views):
    spec = MaskSpec(mask_ratio=0.25, num_views=num_views)
    windows = np.random.default_rng(seed).normal(size=(batch, 16))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    views = mask_series(windows, spec, rng)
    expected = np.stack([mask_series(w, spec, ref_rng) for w in windows])
    assert np.array_equal(views, expected)
    assert rng.random() == ref_rng.random()


# -- constraint loss ---------------------------------------------------------
# Loss-only reference forms of the two similarity terms; training uses the
# fused `_similarity_loss_grad`.


def constraint_loss(anchors: list, views_by_anchor: list) -> float:
    """Contrastive loss: each anchor pulls its own masked views close and
    pushes every other representation in the batch away. The log-softmax
    denominator runs over the anchor set itself (self pair included).

    Returns the total over (anchor, view) pairs divided by the pair count.
    """
    unit_a, _ = _unit_rows(np.stack([np.asarray(a, dtype=np.float64) for a in anchors]))
    if unit_a.shape[0] < 2:
        raise ValueError("no negatives: need at least 2 anchor series")
    log_denom = np.log(np.exp(unit_a @ unit_a.T).sum(axis=1))
    total, pairs = 0.0, 0
    for s, views in enumerate(views_by_anchor):
        unit_v, _ = _unit_rows(np.asarray(views, dtype=np.float64).reshape(-1, unit_a.shape[1]))
        total += float(np.sum(log_denom[s] - unit_v @ unit_a[s]))
        pairs += unit_v.shape[0]
    return total / pairs


def transferability_loss(pairs: list) -> float:
    """Mean over (repr_i, repr_j, g_ij) of (g_ij - cos(repr_i, repr_j))^2."""
    if not pairs:
        return 0.0
    total = 0.0
    for ei, ej, g in pairs:
        total += (g - cosine(np.asarray(ei), np.asarray(ej))) ** 2
    return total / len(pairs)



def test_constraint_loss_all_identical_is_log_b():
    v = np.array([0.3, -0.2, 0.9])
    assert constraint_loss([v, v], [[v], [v]]) == pytest.approx(np.log(2.0))


def test_constraint_loss_orthogonal_negatives():
    a, n1, n2 = np.eye(3)
    value = constraint_loss([a, n1, n2], [[a], np.empty((0, 3)), np.empty((0, 3))])
    assert value == pytest.approx(-np.log(np.e / (np.e + 2.0)))


def _constraint_reference(anchors, views_by_anchor):
    # explicit double loop: denominator over the anchor set, self included
    b = len(anchors)
    total, pairs = 0.0, 0
    for s in range(b):
        denom = sum(np.exp(cosine(anchors[s], anchors[k])) for k in range(b))
        for view in views_by_anchor[s]:
            total += -cosine(anchors[s], view) + np.log(denom)
            pairs += 1
    return total / pairs


def test_constraint_loss_matches_reference_loop():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b, v, d = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
        anchors = [rng.standard_normal(d) for _ in range(b)]
        views = [[rng.standard_normal(d) for _ in range(v)] for _ in range(b)]
        assert constraint_loss(anchors, views) == pytest.approx(
            _constraint_reference(anchors, views), abs=1e-9
        )


def test_constraint_loss_rotation_invariance():
    rng = np.random.default_rng(9)
    d = 5
    anchors = [rng.standard_normal(d) for _ in range(4)]
    views = [[rng.standard_normal(d) for _ in range(2)] for _ in range(4)]
    base = constraint_loss(anchors, views)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rotated = constraint_loss([q @ a for a in anchors], [[q @ v for v in vs] for vs in views])
    assert rotated == pytest.approx(base, abs=1e-9)


def test_constraint_loss_needs_negatives():
    with pytest.raises(ValueError, match="no negatives"):
        constraint_loss([np.ones(3)], [[np.ones(3)]])


# -- transferability loss ----------------------------------------------------


def test_transferability_loss_exact_fit_is_zero():
    rng = np.random.default_rng(4)
    pairs = []
    for _ in range(5):
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        pairs.append((u, v, cosine(u, v)))
    assert transferability_loss(pairs) == pytest.approx(0.0, abs=1e-12)


def test_transferability_loss_orthogonal_pair():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert transferability_loss([(u, v, 1.0)]) == pytest.approx(1.0)


def test_transferability_loss_matches_reference_loop():
    rng = np.random.default_rng(6)
    pairs = [
        (rng.standard_normal(5), rng.standard_normal(5), float(rng.uniform(-1, 1))) for _ in range(12)
    ]
    expected = np.mean([(g - cosine(u, v)) ** 2 for u, v, g in pairs])
    assert transferability_loss(pairs) == pytest.approx(expected, abs=1e-9)


def test_transferability_loss_zero_norm_pair_counts_as_sim_zero():
    u = np.zeros(3)
    v = np.ones(3)
    assert transferability_loss([(u, v, 0.5)]) == pytest.approx(0.25)


def test_cosine_properties():
    rng = np.random.default_rng(8)
    for _ in range(50):
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)
        assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
        assert abs(cosine(u, v)) <= 1.0 + 1e-12


def _cosine_with_linalg_norm(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from(["contiguous", "strided", "zero"]))
def test_cosine_matches_linalg_norm_form_bit_for_bit(n, seed, layout):
    rng = np.random.default_rng(seed)
    # scales from 1e-15 to 1e3 put some norms on either side of the 1e-12 guard
    pair = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-15, 3, size=4)
    u, v = (pair[:, 0], pair[:, 2]) if layout == "strided" else pair[:, :2].T.copy()
    if layout == "zero":
        u = np.zeros(n)
    assert cosine(u, v) == _cosine_with_linalg_norm(u, v)
    assert cosine(v, u) == _cosine_with_linalg_norm(v, u)


# -- combined objective gradient ---------------------------------------------


def _combined_fd(params, windows, views, didx, g, lam, eps=1e-6):
    fd = {}
    for name, w in params.weights.items():
        grad = np.zeros_like(w)
        for i in range(w.size):
            wp = {k: v.copy() for k, v in params.weights.items()}
            wp[name].flat[i] += eps
            lp, _, _ = combined_loss_and_grad(
                ExtractorParams(wp, params.input_len, params.hidden_dim, params.repr_dim),
                windows, views, didx, g, lam,
            )
            wm = {k: v.copy() for k, v in params.weights.items()}
            wm[name].flat[i] -= eps
            lm, _, _ = combined_loss_and_grad(
                ExtractorParams(wm, params.input_len, params.hidden_dim, params.repr_dim),
                windows, views, didx, g, lam,
            )
            grad.flat[i] = (lp - lm) / (2 * eps)
        fd[name] = grad
    return fd


def test_combined_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        length, hidden, d, b, v = 8, 5, 4, 4, 2
        params = _random_params(rng, length, hidden, d)
        windows = rng.standard_normal((b, length))
        views = rng.standard_normal((b, v, length))
        didx = np.array([0, 0, 1, 1])
        g = np.clip(rng.standard_normal((2, 2)), -1.0, 1.0)
        lam = float(rng.uniform(0.0, 1.0))
        _, grads, _ = combined_loss_and_grad(params, windows, views, didx, g, lam)
        fd = _combined_fd(params, windows, views, didx, g, lam)
        for name in grads:
            a, f = grads[name], fd[name]
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
            assert np.max(np.abs(a - f) / denom) < 1e-4, name


# -- fused step against the per-anchor and pair-list reference forms ---------
# Reference forms of the training step: one encoder pass per stack, a
# per-anchor constraint loop, and a pair list scattered with np.add.at for
# the transferability term.


def _norms_and_unit(r):
    norms = np.linalg.norm(r, axis=1)
    safe = np.where(norms < 1e-12, 1.0, norms)
    unit = r / safe[:, None]
    unit[norms < 1e-12] = 0.0
    return norms, safe, unit


def _cosine_pair_grads(unit_u, unit_v, safe_u, safe_v, sims, dsims):
    du = dsims[:, None] * (unit_v - sims[:, None] * unit_u) / safe_u[:, None]
    dv = dsims[:, None] * (unit_u - sims[:, None] * unit_v) / safe_v[:, None]
    return du, dv


def _constraint_loss_grad(anchors, views_by_anchor):
    b = anchors.shape[0]
    view_counts = [v.shape[0] for v in views_by_anchor]
    norms_a, safe_a, unit_a = _norms_and_unit(anchors)
    anchor_sims = unit_a @ unit_a.T
    exp_sims = np.exp(anchor_sims)
    denom = exp_sims.sum(axis=1)
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
    weights = np.asarray(view_counts, dtype=float) / num_pairs
    dsims = weights[:, None] * exp_sims / denom[:, None]
    np.fill_diagonal(dsims, 0.0)
    row_dot = np.sum(dsims * anchor_sims, axis=1)
    col_dot = np.sum(dsims * anchor_sims, axis=0)
    denom_grad = (dsims @ unit_a - row_dot[:, None] * unit_a) / safe_a[:, None]
    denom_grad += (dsims.T @ unit_a - col_dot[:, None] * unit_a) / safe_a[:, None]
    denom_grad[norms_a < 1e-12] = 0.0
    return loss, d_anchor + denom_grad, d_views


def _transfer_loss_grad(anchors, pair_idx, g):
    if pair_idx.shape[0] == 0:
        return 0.0, np.zeros_like(anchors)
    norms, safe, unit = _norms_and_unit(anchors)
    i, j = pair_idx[:, 0], pair_idx[:, 1]
    sims = np.sum(unit[i] * unit[j], axis=1)
    resid = g - sims
    dsims = -2.0 * resid / pair_idx.shape[0]
    grad = np.zeros_like(anchors)
    np.add.at(grad, i, dsims[:, None] * (unit[j] - sims[:, None] * unit[i]) / safe[i][:, None])
    np.add.at(grad, j, dsims[:, None] * (unit[i] - sims[:, None] * unit[j]) / safe[j][:, None])
    grad[norms < 1e-12] = 0.0
    return float(np.mean(resid**2)), grad


def _cross_pairs(didx):
    ii, jj = np.triu_indices(len(didx), k=1)
    cross = didx[ii] != didx[jj]
    return np.stack([ii[cross], jj[cross]], axis=1)


def _similarity_reference(anchors, views, didx, g, lam):
    b, v = anchors.shape[0], views.shape[0] // anchors.shape[0]
    pair_idx = _cross_pairs(didx)
    trans, d_trans = _transfer_loss_grad(anchors, pair_idx, g[didx[pair_idx[:, 0]], didx[pair_idx[:, 1]]])
    con, d_con, d_views = _constraint_loss_grad(anchors, [views[s * v : (s + 1) * v] for s in range(b)])
    return trans, con, np.concatenate([d_trans + lam * d_con, lam * np.concatenate(d_views)])


def _combined_reference(params, windows, masked_views, didx, g, lam):
    b, v, length = masked_views.shape
    w = params.weights
    anchors, cache_a = _mlp_forward(w, ENCODER_TENSORS, windows)
    view_reprs, cache_v = _mlp_forward(w, ENCODER_TENSORS, masked_views.reshape(b * v, length))
    recon, cache_d = _mlp_forward(w, DECODER_TENSORS, view_reprs)
    resid = recon - np.repeat(windows, v, axis=0)
    recon_loss = float(np.sum(resid**2) / (b * v))
    grads, dh = _mlp_backward(w, DECODER_TENSORS, cache_d, 2.0 * resid / (b * v))
    trans, con, d_reprs = _similarity_reference(anchors, view_reprs, didx, g, lam)
    enc_a, _ = _mlp_backward(w, ENCODER_TENSORS, cache_a, d_reprs[:b])
    enc_v, _ = _mlp_backward(w, ENCODER_TENSORS, cache_v, dh @ w["V1"] + d_reprs[b:])
    grads.update({name: enc_a[name] + enc_v[name] for name in enc_a})
    return recon_loss + trans + lam * con, grads


def _assert_close_rel(actual, expected, rel=1e-12):
    assert np.max(np.abs(actual - expected)) <= rel * max(np.max(np.abs(expected)), 1e-300)


SIMILARITY_CASES = {
    "mixed": np.array([0, 1, 2, 0, 1]),
    "same-dataset-pairs": np.array([0, 0, 1, 1]),
    "no-cross-pair": np.array([2, 2, 2]),
}


@pytest.mark.parametrize("didx", SIMILARITY_CASES.values(), ids=SIMILARITY_CASES.keys())
def test_fused_similarity_grad_matches_reference_forms(didx):
    rng = np.random.default_rng(21)
    b = len(didx)
    for _ in range(10):
        v, d = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        reprs = rng.standard_normal((b + b * v, d))
        g = rng.uniform(-1.0, 1.0, (3, 3))
        lam = float(rng.uniform(0.0, 1.0))
        trans, con, grad = _similarity_loss_grad(reprs, b, didx, g, lam)
        ref_trans, ref_con, ref_grad = _similarity_reference(reprs[:b], reprs[b:], didx, g, lam)
        assert trans == pytest.approx(ref_trans, rel=1e-12, abs=1e-15)
        assert con == pytest.approx(ref_con, rel=1e-12)
        _assert_close_rel(grad, ref_grad)


def test_fused_similarity_grad_is_zero_on_zero_norm_rows():
    rng = np.random.default_rng(22)
    didx = np.array([0, 1, 0, 2])
    b, v, d = 4, 2, 5
    reprs = rng.standard_normal((b + b * v, d))
    reprs[1] = 0.0  # an anchor
    reprs[b + 3] = 0.0  # a view of anchor 1
    g = rng.uniform(-1.0, 1.0, (3, 3))
    trans, con, grad = _similarity_loss_grad(reprs, b, didx, g, 0.5)
    assert np.all(grad[1] == 0.0) and np.all(grad[b + 3] == 0.0)
    ref_trans, ref_con, ref_grad = _similarity_reference(reprs[:b], reprs[b:], didx, g, 0.5)
    assert (trans, con) == (pytest.approx(ref_trans, rel=1e-12), pytest.approx(ref_con, rel=1e-12))
    _assert_close_rel(grad, ref_grad)


def _zero_row_params(rng, length, hidden, d):
    # b1 <= 0 and b2 = 0: an all-zero window encodes to the zero vector
    params = _random_params(rng, length, hidden, d)
    w = dict(params.weights, b1=-np.abs(params.weights["b1"]), b2=np.zeros(d))
    return ExtractorParams(w, length, hidden, d)


@pytest.mark.parametrize("case", [*SIMILARITY_CASES, "zero-norm-rows"])
def test_combined_step_matches_two_pass_reference(case):
    rng = np.random.default_rng(23)
    length, hidden, d, v = 8, 6, 4, 3
    didx = SIMILARITY_CASES.get(case, np.array([0, 1, 2, 1]))
    b = len(didx)
    for _ in range(10):
        params = _random_params(rng, length, hidden, d)
        windows = rng.standard_normal((b, length))
        views = rng.standard_normal((b, v, length))
        if case == "zero-norm-rows":
            params = _zero_row_params(rng, length, hidden, d)
            windows[2] = 0.0
            views[0, 1] = 0.0
        g = rng.uniform(-1.0, 1.0, (3, 3))
        lam = float(rng.uniform(0.0, 1.0))
        total, grads, _ = combined_loss_and_grad(params, windows, views, didx, g, lam)
        ref_total, ref_grads = _combined_reference(params, windows, views, didx, g, lam)
        assert total == pytest.approx(ref_total, rel=1e-12)
        assert set(grads) == set(ref_grads)
        for name in grads:
            _assert_close_rel(grads[name], ref_grads[name])


def test_combined_components_equal_the_loss_forms():
    rng = np.random.default_rng(24)
    length, hidden, d, v = 8, 6, 4, 2
    didx = np.array([0, 1, 1, 2, 0])
    b = len(didx)
    for _ in range(10):
        params = _random_params(rng, length, hidden, d)
        windows = rng.standard_normal((b, length))
        views = rng.standard_normal((b, v, length))
        g = rng.uniform(-1.0, 1.0, (3, 3))
        _, _, components = combined_loss_and_grad(params, windows, views, didx, g, 0.5)
        anchors = encode_batch(params, windows)
        view_reprs = encode_batch(params, views)
        pairs = [(anchors[i], anchors[j], g[didx[i], didx[j]]) for i, j in _cross_pairs(didx)]
        assert components["constraint"] == pytest.approx(constraint_loss(list(anchors), list(view_reprs)), rel=1e-12)
        assert components["trans"] == pytest.approx(transferability_loss(pairs), rel=1e-12)


# -- training ----------------------------------------------------------------


def _tiny_suite():
    return [
        generate_synthetic(SyntheticFamilySpec(kind="sine", period=12, length=200, seed=0)),
        generate_synthetic(SyntheticFamilySpec(kind="sawtooth", period=9, length=200, seed=1)),
    ]


def _uniform_tm(names, value=0.5):
    n = len(names)
    g = np.full((n, n), value)
    np.fill_diagonal(g, 0.9)
    return TransferMatrix(dataset_names=tuple(names), g=g)


def test_train_extractor_loss_decreases():
    datasets = _tiny_suite()
    tm = _uniform_tm([d.name for d in datasets])
    cfg = ExtractorTrainConfig(epochs=30, learning_rate=0.01, seed=0, windows_per_dataset=16, hidden_dim=16, repr_dim=8)
    params, log = train_extractor(datasets, tm, cfg, MaskSpec(), input_len=36)
    assert log[-1]["total"] < log[0]["total"]
    assert log[-1]["recon"] < log[0]["recon"]


def test_train_extractor_determinism():
    datasets = _tiny_suite()
    tm = _uniform_tm([d.name for d in datasets])
    cfg = ExtractorTrainConfig(epochs=3, seed=5, windows_per_dataset=8, hidden_dim=8, repr_dim=4)
    p1, log1 = train_extractor(datasets, tm, cfg, MaskSpec(), input_len=36)
    p2, log2 = train_extractor(datasets, tm, cfg, MaskSpec(), input_len=36)
    assert save(p1, log1) == save(p2, log2)


def test_train_extractor_missing_pair():
    datasets = _tiny_suite()
    tm = _uniform_tm([datasets[0].name, "other"])
    cfg = ExtractorTrainConfig(epochs=1, windows_per_dataset=4, hidden_dim=8, repr_dim=4)
    with pytest.raises(ValueError, match="no entry"):
        train_extractor(datasets, tm, cfg, MaskSpec(), input_len=36)


@pytest.mark.parametrize("field", ["epochs", "windows_per_dataset", "hidden_dim", "repr_dim"])
@pytest.mark.parametrize("value", [0, -1])
def test_extractor_train_config_rejects_sizes_below_one(field, value):
    with pytest.raises(ValueError, match=rf"^field '{field}' must be >= 1, got {value}$"):
        ExtractorTrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("epochs", 2.0), ("batch_size", True)])
def test_extractor_train_config_rejects_a_non_integer_size(field, value):
    with pytest.raises(ValueError, match=rf"^field '{field}' must be an integer, got {value}$"):
        ExtractorTrainConfig(**{field: value})


def test_mask_spec_rejects_a_float_view_count():
    with pytest.raises(ValueError, match=r"^field 'num_views' must be an integer, got 2\.0$"):
        MaskSpec(num_views=2.0)


def test_mask_spec_names_a_string_mask_ratio():
    # was a TypeError from the range check
    with pytest.raises(ValueError, match=r"^field 'mask_ratio' must be a finite number, got '0\.3'$"):
        MaskSpec(mask_ratio="0.3")


def test_extractor_train_config_rejects_an_infinite_learning_rate():
    # was accepted, and training then diverged in epoch 1
    with pytest.raises(ValueError, match=r"^field 'learning_rate' must be a finite number, got inf$"):
        ExtractorTrainConfig(learning_rate=float("inf"))


def test_extractor_train_config_rejects_a_nan_constraint_weight():
    # was accepted: `nan < 0` is false
    with pytest.raises(ValueError, match=r"^field 'constraint_weight' must be a finite number, got nan$"):
        ExtractorTrainConfig(constraint_weight=float("nan"))


@pytest.mark.parametrize("input_len", [0, -3])
def test_train_extractor_rejects_an_input_len_below_one(input_len):
    datasets = _tiny_suite()
    cfg = ExtractorTrainConfig(epochs=1, windows_per_dataset=4, hidden_dim=8, repr_dim=4)
    with pytest.raises(ValueError, match=rf"^argument 'input_len' must be >= 1, got {input_len}$"):
        train_extractor(datasets, _uniform_tm([d.name for d in datasets]), cfg, MaskSpec(), input_len=input_len)


def test_train_extractor_rejects_an_epoch_of_one_window():
    # one dataset, one window: every batch would be skipped for want of negatives
    datasets = _tiny_suite()[:1]
    cfg = ExtractorTrainConfig(epochs=1, windows_per_dataset=1, hidden_dim=8, repr_dim=4)
    with pytest.raises(ValueError, match=r"^an epoch needs at least 2 windows"):
        train_extractor(datasets, _uniform_tm([datasets[0].name]), cfg, MaskSpec(), input_len=36)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: combined_loss_and_grad(init_params(4, 3, 2, 0), np.zeros((1, 4)), np.zeros((1, 2, 4)), np.zeros(1, int), np.ones((1, 1)), 1.0),
            "no negatives: need at least 2 anchor series",
        ),
        (lambda: train_extractor([], _uniform_tm([]), ExtractorTrainConfig(), MaskSpec()), "need at least one dataset"),
    ],
    ids=["one-anchor", "no-datasets"],
)
def test_entry_points_name_a_malformed_call(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "learning_rate, batch_size, windows_per_dataset",
    [(0.02, 2, 1), (None, 2, 1), (None, 4, 3)],
    ids=["explicit-rate", "default-rate", "batch-over-datasets"],
)
def test_train_extractor_skips_a_trailing_batch_of_one_window(learning_rate, batch_size, windows_per_dataset):
    # 3 or 9 windows in batches of 2 or 4: the one-window batch has no negatives, so the
    # epoch is the full batches' steps alone, replayed here from the same generator; the
    # default rate is 0.007 per dataset a batch draws from, min(batch size, datasets, 5)
    datasets = _tiny_suite() + [generate_synthetic(SyntheticFamilySpec(kind="trend_sine", length=200, seed=2))]
    tm = TransferMatrix(tuple(d.name for d in datasets), np.array([[0.9, 0.2, -3.0], [0.4, 0.8, 0.1], [0.3, 2.0, 0.7]]))
    cfg = ExtractorTrainConfig(
        epochs=1, learning_rate=learning_rate, windows_per_dataset=windows_per_dataset, batch_size=batch_size,
        hidden_dim=8, repr_dim=4, seed=5,
    )
    params, log = train_extractor(datasets, tm, cfg, MaskSpec(), input_len=12)

    rate = 0.007 * min(batch_size, len(datasets), 5) if learning_rate is None else learning_rate
    rng = np.random.default_rng(cfg.seed + 1)
    windows = np.stack([sample_windows(rng, data, 12, windows_per_dataset) for data in datasets], 1).reshape(-1, 12)
    views = mask_series(windows, MaskSpec(), rng)
    dataset_index = np.tile(np.arange(len(datasets)), windows_per_dataset)
    expected = init_params(12, 8, 4, seed=cfg.seed)
    steps = []
    for start in range(0, len(windows) - 1, batch_size):
        batch = slice(start, start + batch_size)
        _, grads, components = combined_loss_and_grad(
            expected, windows[batch], views[batch], dataset_index[batch], np.clip(tm.g, -1.0, 1.0), cfg.constraint_weight
        )
        for name, grad in grads.items():
            expected.weights[name] -= rate * grad
        steps.append(components)
    assert len(steps) == len(windows) // batch_size
    assert log == [{"epoch": 1, **{key: float(np.mean([c[key] for c in steps])) for key in steps[0]}}]
    assert save(params) == save(expected)


def test_train_extractor_rejects_a_repeated_dataset_name():
    sine, saw = _tiny_suite()
    cfg = ExtractorTrainConfig(epochs=1, windows_per_dataset=2, hidden_dim=8, repr_dim=4)
    with pytest.raises(ValueError, match="^duplicate dataset name 'x'$"):
        train_extractor([Dataset(sine.series, "x"), Dataset(saw.series, "x")], _uniform_tm(["x", "y"]), cfg, MaskSpec(), input_len=12)


def test_train_extractor_names_an_epoch_whose_mean_loss_overflows(recwarn):
    # each batch's loss is finite, near 0.7 * 1e308, so two of them overflow the epoch's mean;
    # the terms before it stay finite, so the total is the term named
    datasets = [Dataset(MultivariateSeries([[1.0]]), name) for name in "ab"]
    cfg = ExtractorTrainConfig(epochs=1, windows_per_dataset=3, constraint_weight=1e308, hidden_dim=1, repr_dim=1)
    with pytest.raises(ValueError, match=r"^training diverged in epoch 1 \(total\) at learning rate 0\.014$"):
        train_extractor(datasets, _uniform_tm(["a", "b"]), cfg, MaskSpec(num_views=1), input_len=1)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "names, batch_size, rate_text",
    [("a", None, r"0\.007"), ("abc", 2, r"0\.014"), ("abcdefg", 3, r"0\.021"), ("abcdefg", None, r"0\.035")],
)
def test_train_extractor_default_rate_counts_the_datasets_a_batch_draws_from_up_to_five(names, batch_size, rate_text):
    # 0.007 per dataset, min(batch size, datasets, 5): a rate of 0.007 times eight or more
    # datasets diverged where 0.035 trained; the overflowing mean names the rate it stepped at
    datasets = [Dataset(MultivariateSeries([[1.0]]), name) for name in names]
    cfg = ExtractorTrainConfig(epochs=1, windows_per_dataset=6, constraint_weight=1e308, batch_size=batch_size, hidden_dim=1, repr_dim=1)
    with pytest.raises(ValueError, match=rf"^training diverged in epoch 1 \(total\) at learning rate {rate_text}$"):
        train_extractor(datasets, _uniform_tm(list(names)), cfg, MaskSpec(num_views=1), input_len=1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ExtractorTrainConfig(seed=-1), "^field 'seed' must be >= 0, got -1$"),
        (lambda: ExtractorTrainConfig(windows_per_dataset=2**62), rf"^field 'windows_per_dataset' must be at most {2**20}, got {2**62}$"),
        (lambda: ExtractorTrainConfig(epochs=2**62), rf"^field 'epochs' must be at most {2**20}, got {2**62}$"),
        (lambda: MaskSpec(num_views=10**30), rf"^field 'num_views' must be at most {2**20}, got {10**30}$"),
        (lambda: train_extractor(_tiny_suite(), _uniform_tm(["sine-p12-s0", "sawtooth-p9-s1"]), ExtractorTrainConfig(), MaskSpec(), "4"),
         "^argument 'input_len' must be an integer, got '4'$"),
    ],
    ids=["negative-seed", "huge-windows", "huge-epochs", "huge-views", "string-input-len"],
)
def test_extractor_configs_name_a_seed_below_zero_or_a_size_numpy_cannot_take(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_extractor_params_reject_a_hidden_dim_below_one():
    # was accepted, with (0, L) and (R, 0) tensors
    shapes = param_shapes(6, 0, 2)
    with pytest.raises(ValueError, match="^field 'hidden_dim' must be >= 1, got 0$"):
        ExtractorParams({name: np.zeros(shapes[name]) for name in ENCODER_TENSORS}, 6, 0, 2)


@pytest.mark.parametrize("key", ["L", "hidden", "d"])
def test_load_names_an_extractor_file_size_below_one(key):
    # an encoder-only file with "L": 0 and (hidden, 0) tensors once loaded
    payload = json.loads(save(init_params(6, 4, 2, seed=0)))
    payload["dims"][key] = 0
    shapes = param_shapes(payload["dims"]["L"], payload["dims"]["hidden"], payload["dims"]["d"])
    payload["weights"] = {name: np.zeros(shapes[name]).tolist() for name in ENCODER_TENSORS}
    with pytest.raises(ValueError, match=rf"^extractor file field 'dims' key '{key}' must be >= 1, got 0$"):
        load(json.dumps(payload).encode())


def test_train_extractor_names_a_weight_tensor_too_large_before_drawing_it():
    # a 4 TiB W1, once a MemoryError; one view of one window per dataset
    # keeps the masked views, 2 * 2**19 values, within their bound
    datasets = _tiny_suite()
    cfg = ExtractorTrainConfig(epochs=1, windows_per_dataset=1, hidden_dim=2**20, repr_dim=4)
    message = rf"^weight tensor 'W1' of shape \(1048576, 524288\) would hold more than {2**20} values$"
    with pytest.raises(ValueError, match=message):
        train_extractor(datasets, _uniform_tm([d.name for d in datasets]), cfg, MaskSpec(num_views=1), input_len=2**19)


def test_train_extractor_bounds_the_masked_views_before_drawing_a_weight(monkeypatch):
    # was trained: 2 * 64 * 256 * 36 = 1,179,648 masked values per epoch
    import zoocast.extractor as extractor_mod

    monkeypatch.setattr(extractor_mod, "init_params", lambda *args: pytest.fail("init_params ran"))
    datasets = _tiny_suite()
    cfg = ExtractorTrainConfig(epochs=1, windows_per_dataset=64, hidden_dim=8, repr_dim=4)
    message = (
        rf"^windows_per_dataset 64, num_views 256 and input_len 36 over 2 datasets "
        rf"would mask more than {2**20} values per epoch$"
    )
    with pytest.raises(ValueError, match=message):
        train_extractor(datasets, _uniform_tm([d.name for d in datasets]), cfg, MaskSpec(num_views=256), input_len=36)


def _three_families():
    from zoocast.bench import default_family_suite

    datasets = default_family_suite(seed=0)[:3]
    return datasets, TransferMatrix(tuple(d.name for d in datasets), np.eye(3))


@pytest.mark.parametrize("learning_rate, epoch, rate_text", [(1e4, 1, "10000"), (0.1, 2, r"0\.1"), (0.05, 7, r"0\.05")])
def test_train_extractor_divergence_names_the_epoch(monkeypatch, learning_rate, epoch, rate_text):
    import zoocast.extractor as extractor_mod

    calls = []

    def counted(*args):
        calls.append(None)
        return combined_loss_and_grad(*args)

    monkeypatch.setattr(extractor_mod, "combined_loss_and_grad", counted)
    datasets, tm = _three_families()
    cfg = ExtractorTrainConfig(epochs=40, learning_rate=learning_rate, windows_per_dataset=8)
    with pytest.raises(ValueError, match=rf"^training diverged in epoch {epoch} \(recon\) at learning rate {rate_text}$"):  # the first term logged
        train_extractor(datasets, tm, cfg, MaskSpec())
    assert 0 < len(calls) <= epoch * 8  # 24 windows in batches of 3: training stops after the diverged epoch


def test_train_extractor_validates_the_final_weights(monkeypatch):
    # a finite loss with a non-finite gradient on the last step passes the
    # epoch-mean loss check; the one check of the trained tensors catches it
    import zoocast.extractor as extractor_mod

    datasets, tm = _three_families()
    cfg = ExtractorTrainConfig(epochs=2, windows_per_dataset=4, hidden_dim=8, repr_dim=4)
    steps = cfg.epochs * cfg.windows_per_dataset  # one window per dataset per batch
    calls = []

    def last_step_blows_up(*args):
        loss, grads, components = combined_loss_and_grad(*args)
        calls.append(loss)
        if len(calls) == steps:
            grads["W2"][0, 0] = np.inf
        return loss, grads, components

    monkeypatch.setattr(extractor_mod, "combined_loss_and_grad", last_step_blows_up)
    with pytest.raises(ValueError, match="^extractor tensor W2 contains non-finite values$"):
        train_extractor(datasets, tm, cfg, MaskSpec(), input_len=36)
    assert len(calls) == steps and all(np.isfinite(calls))


def test_within_family_similarity_exceeds_cross_family():
    # after training on distinct families, same-family windows embed closer
    from zoocast.bench import default_family_suite
    from zoocast.core import normalize

    datasets = default_family_suite(seed=0, noise_std=0.05, length=300)[:3]
    tm = _uniform_tm([d.name for d in datasets], value=0.2)
    cfg = ExtractorTrainConfig(epochs=40, learning_rate=0.01, seed=0, windows_per_dataset=24)
    params, _ = train_extractor(datasets, tm, cfg, MaskSpec(), input_len=36)
    rng = np.random.default_rng(0)
    reprs = []
    for data in datasets:
        chan = data.series.channel(0)
        windows = []
        for _ in range(20):
            start = int(rng.integers(len(chan) - 36 + 1))
            norm, _ = normalize(chan[start : start + 36])
            windows.append(norm)
        reprs.append(encode_batch(params, np.stack(windows)))
    within, cross = [], []
    for i in range(3):
        for j in range(3):
            sims = [
                cosine(a, b)
                for ai, a in enumerate(reprs[i])
                for bi, b in enumerate(reprs[j])
                if i != j or ai < bi
            ]
            (within if i == j else cross).extend(sims)
    assert np.mean(within) > np.mean(cross)


# -- PCA ---------------------------------------------------------------------


def test_pca_rank_one_data():
    rng = np.random.default_rng(2)
    direction = rng.standard_normal(6)
    direction /= np.linalg.norm(direction)
    coords = rng.standard_normal(12)
    points = [c * direction for c in coords]
    proj = pca_project(points, 1)
    centered = coords - coords.mean()
    # recovered up to a global sign
    match_pos = np.allclose(proj[:, 0], centered, atol=1e-8)
    match_neg = np.allclose(proj[:, 0], -centered, atol=1e-8)
    assert match_pos or match_neg


def test_pca_duplicate_points_project_to_zero():
    point = np.array([1.0, 2.0, 3.0])
    proj = pca_project([point] * 5, 2)
    np.testing.assert_allclose(proj, 0.0, atol=1e-12)


@pytest.mark.parametrize(
    "k, message",
    [(0, "must be >= 1, got 0"), (4, "must be at most 3, got 4"), (2.0, "must be an integer, got 2.0")],  # 2.0 was a TypeError
)
def test_pca_names_a_component_count_out_of_kind_or_range(k, message):
    points = [np.arange(5.0) * i for i in range(6)]
    with pytest.raises(ValueError, match=rf"^argument 'k' {message}$"):
        pca_project(points, k)


def test_pca_matches_dense_eigensolver():
    rng = np.random.default_rng(10)
    points = [rng.standard_normal(5) for _ in range(40)]
    proj = pca_project(points, 3)
    centered = np.stack(points) - np.mean(points, axis=0)
    cov = centered.T @ centered / len(points)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    explained = np.var(proj, axis=0)
    np.testing.assert_allclose(explained, eigvals[:3], atol=1e-6)


def test_pca_determinism_and_sign_convention():
    rng = np.random.default_rng(11)
    points = [rng.standard_normal(4) for _ in range(15)]
    p1 = pca_project(points, 2)
    p2 = pca_project(points, 2)
    np.testing.assert_array_equal(p1, p2)
    # the 15 points span all 4 dimensions, so the projection determines the axes
    axes = np.linalg.lstsq(np.stack(points) - np.mean(points, axis=0), p1, rcond=None)[0]
    np.testing.assert_allclose(axes.T @ axes, np.eye(2), atol=1e-12)
    assert (axes[np.argmax(np.abs(axes), axis=0), [0, 1]] > 0).all()


def test_pca_too_few_points():
    with pytest.raises(ValueError, match="at least"):
        pca_project([np.ones(3), np.zeros(3)], 2)


def test_pca_rank_one_points_project_to_zero_on_the_second_axis():
    rng = np.random.default_rng(2)
    direction = rng.standard_normal(6)
    points = [c * direction for c in rng.standard_normal(12)]
    proj = pca_project(points, 2)
    np.testing.assert_allclose(proj[:, 1], 0.0, atol=1e-12)
    assert np.abs(proj[:, 0]).max() > 0.1


def test_pca_of_more_axes_than_dimensions_raises():
    points = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.array([2.0, 0.5])]
    with pytest.raises(ValueError, match=r"^k=3 exceeds the representation dimension 2$"):
        pca_project(points, 3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pca_of_representations_at_1e99_is_the_scaled_projection(k, recwarn):
    # the covariance (1e198) and the projection stay finite; only a norm of the covariance would not
    rng = np.random.default_rng(12)
    points = [rng.standard_normal(5) for _ in range(8)]
    np.testing.assert_allclose(pca_project([p * 1e99 for p in points], k), 1e99 * pca_project(points, k), rtol=1e-12)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("scale", [1e200])
def test_pca_of_representations_too_large_for_float64_raises(scale, recwarn):
    # 1e200 passes the centering but overflows the covariance's products
    points = [np.array([-2.78, 2.63, -0.05]) * scale, np.array([-0.18, 0.37, -0.16]), np.array([0.1, 0.2, 0.3])]
    with pytest.raises(ValueError, match=r"^PCA of 3 representations overflows float64$"):
        pca_project(points, 1)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# -- persistence -------------------------------------------------------------


def test_extractor_save_load_round_trip():
    params = init_params(12, 6, 4, seed=3)
    log = [{"epoch": 1, "total": 1.5, "recon": 1.0, "trans": 0.3, "constraint": 0.4}]
    restored, restored_log = load(save(params, log))
    for name in params.weights:
        assert np.array_equal(params.weights[name], restored.weights[name])
    assert restored_log == log
    assert (restored.input_len, restored.hidden_dim, restored.repr_dim) == (12, 6, 4)


def test_extractor_load_rejects_garbage():
    with pytest.raises(ValueError, match="malformed"):
        load(b"{not json")


def test_encoder_only_params_save_load_and_encode_like_the_full_ones():
    params = init_params(12, 6, 4, seed=3)
    encoder = ExtractorParams(
        {name: params.weights[name] for name in ENCODER_TENSORS}, params.input_len, params.hidden_dim, params.repr_dim
    )
    restored, log = load(save(encoder))
    assert sorted(restored.weights) == sorted(ENCODER_TENSORS)
    assert log == []
    x = np.random.default_rng(0).standard_normal((5, 12))
    assert encode_batch(restored, x).tobytes() == encode_batch(params, x).tobytes()


@pytest.mark.parametrize(
    "drop, add, message",
    [
        (("V2",), {}, r"missing \['V2'\], unexpected \[\]"),
        (("V1", "c1", "c2"), {}, r"missing \['V1', 'c1', 'c2'\]"),
        (("W1",), {}, r"missing \['W1'\]"),
        (DECODER_TENSORS, {"X": [0.0]}, r"missing \[\], unexpected \['X'\]"),
        (DECODER_TENSORS + ("b2",), {}, r"missing \['b2'\]"),
    ],
    ids=["one-decoder-tensor-missing", "three-missing", "encoder-tensor-missing", "extra", "encoder-only-short"],
)
def test_extractor_params_name_the_missing_or_extra_tensor(drop, add, message):
    weights = {name: w for name, w in init_params(4, 3, 2, seed=0).weights.items() if name not in drop}
    with pytest.raises(ValueError, match=r"extractor tensors do not match .*" + message):
        ExtractorParams({**weights, **add}, input_len=4, hidden_dim=3, repr_dim=2)


def test_extractor_params_reject_a_float_dim():
    # once accepted, and saved as "L":4.0, a file that `load` rejects
    weights = init_params(4, 3, 2, seed=0).weights
    with pytest.raises(ValueError, match=r"^field 'input_len' must be an integer, got 4\.0$"):
        ExtractorParams(weights, 4.0, 3, 2)
