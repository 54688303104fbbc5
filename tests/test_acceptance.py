"""End-to-end acceptance checks for the zero-shot forecasting pipeline.

Each test covers one gating criterion and prints a single PASS/FAIL line
with the measured numbers, so a log scrape gives the full scorecard.
"""

import time

import numpy as np
import pytest

from zoocast import forecasters
from zoocast.bench import default_family_suite
from zoocast.core import Dataset, MultivariateSeries, denormalize, mape, mse, normalize, smape
from zoocast.extractor import (
    ExtractorTrainConfig,
    MaskSpec,
    combined_loss_and_grad,
    init_params,
    train_extractor,
)
from zoocast.forecasters import ForecasterSpec, TrainConfig, loss_and_grad, make_baseline, train
from zoocast.fusion import FusionConfig, forecast_multivariate, match, sequential_forecast
from zoocast.zoo import compute_model_representation, compute_transfer_matrix, zoo_from_models

LOOK_BACK = 36
HORIZON = 12


def _check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _build_pipeline(noise_std):
    """Train one linear model per family plus the matching extractor."""
    suite = default_family_suite(seed=0, noise_std=noise_std)
    spec = ForecasterSpec("linear", LOOK_BACK, HORIZON)
    tm, models = compute_transfer_matrix(suite, spec, TrainConfig(seed=0))
    params, _ = train_extractor(suite, tm, ExtractorTrainConfig(seed=0), MaskSpec(), input_len=LOOK_BACK)
    reprs = {d.name: compute_model_representation(params, d, 256, seed=0) for d in suite}
    zoo = zoo_from_models(models, params, reprs)
    return suite, spec, models, params, reprs, zoo


@pytest.fixture(scope="module")
def clean_pipeline():
    start = time.monotonic()
    built = _build_pipeline(noise_std=0.05)
    return built + (time.monotonic() - start,)


@pytest.fixture(scope="module")
def noisy_pipeline():
    return _build_pipeline(noise_std=0.1)


# -- 1: recursive forecasting golden trace -----------------------------------


def test_recursive_forecast_golden_trace():
    model = make_baseline("last", 3, 2)
    out = sequential_forecast([model], [1.0, 2.0, 3.0], 5)
    ok = np.array_equal(out, np.full(5, 3.0))
    _check("golden-trace", ok, f"last model, T=3 h=2 H=5 -> {out.tolist()}")


# -- 2: metric and normalization oracles -------------------------------------


def _ref_mse(t, p):
    total = 0.0
    for i in range(t.shape[0]):
        for c in range(t.shape[1]):
            total += (t[i, c] - p[i, c]) ** 2
    return total / (t.shape[0] * t.shape[1])


def _ref_smape(t, p):
    h, chans = t.shape
    per_channel = []
    for c in range(chans):
        acc = 0.0
        for i in range(h):
            denom = abs(t[i, c]) + abs(p[i, c])
            if denom >= 1e-8:
                acc += abs(t[i, c] - p[i, c]) / denom
        per_channel.append(200.0 / h * acc)
    return sum(per_channel) / chans


def _ref_mape(t, p):
    h, chans = t.shape
    per_channel = []
    for c in range(chans):
        acc, kept = 0.0, 0
        for i in range(h):
            if abs(t[i, c]) >= 1e-8:
                acc += abs(t[i, c] - p[i, c]) / abs(t[i, c])
                kept += 1
        per_channel.append(100.0 * acc / kept)
    return sum(per_channel) / chans


def test_metric_and_normalization_oracles():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        h = int(rng.integers(1, 20))
        chans = int(rng.integers(1, 4))
        truth = rng.uniform(0.5, 2.0, size=(h, chans)) * rng.choice([-1.0, 1.0], size=(h, chans))
        pred = truth + rng.normal(0, 1, size=(h, chans))
        worst = max(worst, abs(mse(truth, pred) - _ref_mse(truth, pred)))
        worst = max(worst, abs(smape(truth, pred) - _ref_smape(truth, pred)))
        worst = max(worst, abs(mape(truth, pred) - _ref_mape(truth, pred)))
        x = rng.normal(0, rng.uniform(0.1, 50), size=int(rng.integers(2, 40)))
        norm, stats = normalize(x)
        worst = max(worst, float(np.max(np.abs(denormalize(norm, stats) - x))))
        ref_mu, ref_sigma = x.mean(), x.std()
        worst = max(worst, float(np.max(np.abs(norm - (x - ref_mu) / (ref_sigma if ref_sigma >= 1e-8 else 1.0)))))
    _check("metric-oracles", worst < 1e-9, f"100 instances, worst abs deviation {worst:.3e} (< 1e-9)")


# -- 3: analytic gradients vs central finite differences ---------------------


def _fd_worst(loss_fn, weights, grads, eps=1e-6):
    worst = 0.0
    for name, w in weights.items():
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            hi = loss_fn()
            w[idx] = orig - eps
            lo = loss_fn()
            w[idx] = orig
            fd = (hi - lo) / (2 * eps)
            a = grads[name][idx]
            worst = max(worst, abs(a - fd) / max(1.0, abs(a), abs(fd)))
    return worst


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    worst = {"linear": 0.0, "patch_mlp": 0.0, "extractor": 0.0}
    for arch in ("linear", "patch_mlp"):
        spec = ForecasterSpec(arch, input_len=7, horizon=2, patch_len=3, hidden_dim=4)
        for i in range(50):
            weights = {
                name: rng.normal(0, 0.5, size=shape)
                for name, shape in forecasters._weight_shapes(spec).items()
            }
            windows = rng.normal(0, 1, size=(3, 7))
            targets = rng.normal(0, 1, size=(3, 2))
            _, grads = loss_and_grad(spec, weights, windows, targets)
            worst[arch] = max(
                worst[arch],
                _fd_worst(lambda: loss_and_grad(spec, weights, windows, targets)[0], weights, grads),
            )
    for i in range(50):
        params = init_params(8, 5, 4, seed=100 + i)
        windows = rng.normal(0, 1, size=(3, 8))
        views = rng.normal(0, 1, size=(3, 2, 8))
        didx = np.array([0, 1, 1])
        g = rng.uniform(-1, 1, size=(2, 2))
        lam = 0.5

        def loss_fn():
            return combined_loss_and_grad(params, windows, views, didx, g, lam)[0]

        _, grads, _ = combined_loss_and_grad(params, windows, views, didx, g, lam)
        worst["extractor"] = max(worst["extractor"], _fd_worst(loss_fn, params.weights, grads))
    ok = all(v < 1e-4 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _check("gradient-check", ok, f"50 instances each, worst relative error: {detail} (< 1e-4)")


# -- 4: byte-deterministic artifacts -----------------------------------------


def test_artifacts_are_byte_deterministic(tmp_path):
    from zoocast.cli import main

    data = tmp_path / "data.csv"
    assert main(["synth", "--kind", "sine", "--period", "12", "--noise", "0.05",
                 "--length", "300", "--seed", "0", "--out", str(data)]) == 0
    data2 = tmp_path / "data2.csv"
    assert main(["synth", "--kind", "sawtooth", "--period", "9", "--noise", "0.05",
                 "--length", "300", "--seed", "1", "--out", str(data2)]) == 0
    both = f"{data},{data2}"
    mismatches = []

    def run_twice(label, make_argv, out_is_dir=False, artifact="OUT"):
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{label}-{attempt}"
            assert main(make_argv(str(out))) == 0
            blob = (out / artifact).read_bytes() if out_is_dir else out.read_bytes()
            blobs.append(blob)
        if blobs[0] != blobs[1]:
            mismatches.append(label)
        return tmp_path / f"{label}-a"

    model = run_twice("model.json", lambda o: [
        "train-ptm", "--data", str(data), "--epochs", "2", "--seed", "3", "--out", o])
    tm = run_twice("tm.json", lambda o: [
        "transfer-matrix", "--datasets", both, "--epochs", "2", "--seed", "3", "--out", o])
    ext = run_twice("ext.json", lambda o: [
        "train-extractor", "--datasets", both, "--transfer-matrix", str(tm),
        "--epochs", "2", "--dim", "8", "--hidden-dim", "16", "--seed", "3", "--out", o])
    zoo_dir = run_twice("zoo", lambda o: [
        "build-zoo", "--models", str(model), "--data", str(data), "--extractor", str(ext),
        "--samples", "8", "--seed", "3", "--out", o], out_is_dir=True, artifact="zoo.json")
    config = tmp_path / "bench.cfg"
    config.write_text(f'datasets = ["{data}"]\nlook_back = 36\nhorizons = [6]\ntrials = 1\n')
    run_twice("report.json", lambda o: [
        "benchmark", "--config", str(config), "--zoo", str(zoo_dir), "--seed", "3", "--out", o])
    _check("determinism", not mismatches,
           f"rerun with same seed: {'all artifacts byte-identical' if not mismatches else 'mismatch in ' + ', '.join(mismatches)}")


# -- 5: window matching picks the right specialist ---------------------------


def test_window_matching_selects_same_family_model(clean_pipeline):
    suite, spec, models, params, reprs, zoo, build_seconds = clean_pipeline
    start = time.monotonic()
    names = [d.name for d in suite]
    eval_suite = default_family_suite(seed=100, noise_std=0.05)
    rng = np.random.default_rng(0)
    hits, beats, total = 0, 0, 0
    for family, data in enumerate(eval_suite):
        chan = data.series.channel(0)
        for s in rng.integers(0, len(chan) - (LOOK_BACK + HORIZON) + 1, 100):
            window = chan[s : s + LOOK_BACK]
            truth = chan[s + LOOK_BACK : s + LOOK_BACK + HORIZON]
            picked = match(zoo, window).ranking[0][0]
            hits += picked == names[family]
            norm_win, stats = normalize(window)
            errors = {
                name: mse(truth, denormalize(forecasters.forecast(models[name], norm_win), stats))
                for name in names
            }
            beats += errors[picked] <= np.median(list(errors.values())) + 1e-12
            total += 1
    elapsed = build_seconds + (time.monotonic() - start)
    acc, beat = hits / total, beats / total
    ok = acc >= 0.80 and beat >= 0.90 and elapsed < 300
    _check("selection-quality", ok,
           f"top-1 same-family {acc:.1%} (>= 80%), beats zoo median {beat:.1%} (>= 90%), {elapsed:.0f}s (< 300s)")


# -- 6: averaging the top-3 matches does not hurt ----------------------------


def test_top3_aggregation_does_not_hurt_mse(noisy_pipeline):
    suite, spec, _, params, _, _ = noisy_pipeline[:6]
    start = time.monotonic()
    # zoo with three independently seeded models per family, so the top-3
    # neighbours of a window are same-family specialists
    models, reprs = {}, {}
    for data in suite:
        rep = compute_model_representation(params, data, 256, seed=0)
        for i in range(3):
            model_id = f"{data.name}-m{i}"
            models[model_id] = train(spec, data, TrainConfig(seed=i))
            reprs[model_id] = rep.copy()
    zoo = zoo_from_models(models, params, reprs)
    scores = {1: [], 3: []}
    for eval_seed in range(10):
        eval_suite = default_family_suite(seed=1000 + eval_seed, noise_std=0.1)
        rng = np.random.default_rng(eval_seed)
        for data in eval_suite:
            chan = data.series.channel(0)
            for s in rng.integers(0, len(chan) - (LOOK_BACK + HORIZON) + 1, 10):
                window = MultivariateSeries(chan[s : s + LOOK_BACK][:, None])
                truth = chan[s + LOOK_BACK : s + LOOK_BACK + HORIZON]
                for k in (1, 3):
                    pred, _, _ = forecast_multivariate(zoo, window, FusionConfig(horizon=HORIZON, top_k=k))
                    scores[k].append(mse(truth[:, None], pred))
    m1, m3 = np.mean(scores[1]), np.mean(scores[3])
    elapsed = time.monotonic() - start
    ok = m3 <= 1.05 * m1 and elapsed < 300
    _check("aggregation-trend", ok,
           f"noise 0.1, 10 seeds: mean MSE k=3 {m3:.4f} vs k=1 {m1:.4f}, ratio {m3 / m1:.3f} (<= 1.05)")


# -- 7: selected specialists beat one pooled generalist ----------------------


def test_selected_specialists_beat_pooled_generalist(noisy_pipeline):
    suite, spec, models, params, reprs, zoo = noisy_pipeline[:6]
    start = time.monotonic()
    pooled_values = np.stack([d.series.channel(0) for d in suite], axis=1)
    pooled = Dataset(series=MultivariateSeries(pooled_values), name="pooled")
    generalist = train(spec, pooled, TrainConfig(seed=0))
    selected_scores, pooled_scores = [], []
    for eval_seed in range(30):
        eval_suite = default_family_suite(seed=2000 + eval_seed, noise_std=0.1)
        rng = np.random.default_rng(eval_seed)
        for data in eval_suite:
            chan = data.series.channel(0)
            for s in rng.integers(0, len(chan) - (LOOK_BACK + HORIZON) + 1, 5):
                window = chan[s : s + LOOK_BACK]
                truth = chan[s + LOOK_BACK : s + LOOK_BACK + HORIZON][:, None]
                pred, _, _ = forecast_multivariate(
                    zoo, MultivariateSeries(window[:, None]), FusionConfig(horizon=HORIZON, top_k=1)
                )
                selected_scores.append(mse(truth, pred))
                norm_win, stats = normalize(window)
                pooled_scores.append(
                    mse(truth, denormalize(forecasters.forecast(generalist, norm_win), stats)[:, None])
                )
    sel, gen = np.mean(selected_scores), np.mean(pooled_scores)
    elapsed = time.monotonic() - start
    ok = sel < gen and elapsed < 600
    _check("specialists-vs-generalist", ok,
           f"30 seeds: selected mean MSE {sel:.4f} < pooled model {gen:.4f}")


# -- 8: affine equivariance of the full pipeline -----------------------------


def test_pipeline_affine_equivariance_and_ranking_invariance(clean_pipeline):
    suite, _, _, _, _, zoo, _ = clean_pipeline
    base = np.stack([suite[0].series.channel(0)[:LOOK_BACK], suite[3].series.channel(0)[:LOOK_BACK]], axis=1)
    cfg = FusionConfig(horizon=10, top_k=2)
    pred_base, sel_base, _ = forecast_multivariate(zoo, MultivariateSeries(base), cfg)
    rng = np.random.default_rng(2)
    worst = 0.0
    rankings_ok = True
    for _ in range(20):
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-100.0, 100.0))
        pred, sel, _ = forecast_multivariate(zoo, MultivariateSeries(a * base + b), cfg)
        expected = a * pred_base.values + b
        worst = max(worst, float(np.max(np.abs(pred.values - expected) / np.maximum(1.0, np.abs(expected)))))
        for c in range(base.shape[1]):
            rankings_ok &= [m for m, _ in sel[c].ranking] == [m for m, _ in sel_base[c].ranking]
    ok = worst < 1e-6 and rankings_ok
    _check("affine-equivariance", ok,
           f"20 random (a, b): worst relative error {worst:.2e} (< 1e-6), rankings identical: {rankings_ok}")


# -- 9: block count of the recursive strategy --------------------------------


def test_block_count_is_ceiling_of_horizon_ratio(monkeypatch):
    from zoocast import fusion as fusion_mod

    model = make_baseline("last", LOOK_BACK, HORIZON)
    real = forecasters.forecast
    results = {}
    for horizon in (6, 8, 14, 18, 24, 36, 48):
        calls = {"n": 0}

        def counting(m, window):
            calls["n"] += 1
            return real(m, window)

        monkeypatch.setattr(fusion_mod.forecasters, "forecast", counting)
        sequential_forecast([model], np.arange(float(LOOK_BACK)), horizon)
        monkeypatch.setattr(fusion_mod.forecasters, "forecast", real)
        results[horizon] = (calls["n"], -(-horizon // HORIZON))
    ok = all(got == want for got, want in results.values())
    _check("block-count", ok,
           "h=12, H->calls: " + ", ".join(f"{h}:{got}(want {want})" for h, (got, want) in results.items()))
