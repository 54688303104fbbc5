import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoocast.bench import SyntheticFamilySpec, generate_synthetic
from zoocast.extractor import (
    ExtractorParams,
    ExtractorTrainConfig,
    MaskSpec,
    combined_loss_and_grad,
    constraint_loss,
    cosine,
    encode,
    encode_batch,
    init_params,
    load,
    mask_series,
    pca_project,
    save,
    train_extractor,
    transferability_loss,
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
    # the per-(sample, view) loop train_extractor used to inline
    expected = np.empty((num_views, length))
    for view in range(num_views):
        masked = window.copy()
        masked[ref_rng.choice(length, size=int(ratio * length), replace=False)] = 0.0
        expected[view] = masked
    assert np.array_equal(views, expected)
    assert rng.random() == ref_rng.random()  # generator left in the same state


# -- constraint loss ---------------------------------------------------------


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
    with pytest.raises(KeyError, match="no entry"):
        train_extractor(datasets, tm, cfg, MaskSpec(), input_len=36)


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


def test_pca_too_few_points():
    with pytest.raises(ValueError, match="at least"):
        pca_project([np.ones(3), np.zeros(3)], 2)


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
