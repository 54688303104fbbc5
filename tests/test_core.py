import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoocast.core import (
    Dataset,
    MultivariateSeries,
    NormStats,
    denormalize,
    load_csv,
    mape,
    mse,
    normalize,
    normalize_rows,
    sample_windows,
    smape,
    trim_to_last,
    write_csv,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
series_strategy = st.lists(finite_floats, min_size=1, max_size=50).map(np.array)


def test_normalize_constant_series_uses_fallback():
    norm, stats = normalize([5.0, 5.0, 5.0])
    np.testing.assert_array_equal(norm, [0.0, 0.0, 0.0])
    assert stats.mean == 5.0
    assert stats.std == 1.0


def test_normalize_reference_values():
    norm, stats = normalize([1.0, 2.0, 3.0])
    # population std of [1,2,3] is sqrt(2/3)
    expected_std = np.sqrt(2.0 / 3.0)
    assert stats.mean == pytest.approx(2.0)
    assert stats.std == pytest.approx(expected_std)
    np.testing.assert_allclose(norm, [-1.0 / expected_std, 0.0, 1.0 / expected_std], atol=1e-12)


def test_normalize_long_zero_series():
    norm, stats = normalize(np.zeros(36))
    assert np.all(norm == 0.0)
    assert stats.std == 1.0


@pytest.mark.parametrize("x", [np.full(16, 1e308), np.tile([1.7e308, -1.7e308], 8)], ids=["inf-std", "nan-std"])
def test_normalize_and_sample_windows_name_values_that_overflow(x):
    # the nan-std case once failed inside NormStats: "std must be positive"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^values overflow instance normalization$"):
            normalize(x)
    data = Dataset(MultivariateSeries(x), "huge")
    with pytest.raises(ValueError, match="^dataset 'huge': values overflow instance normalization$"):
        sample_windows(np.random.default_rng(0), data, 16, 4)


def test_normalize_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="empty series"):
        normalize([])
    with pytest.raises(ValueError, match="non-finite"):
        normalize([1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        normalize([1.0, np.inf])


def test_denormalize_examples():
    np.testing.assert_array_equal(denormalize([0.0, 0.0, 0.0], NormStats(5.0, 1.0)), [5.0, 5.0, 5.0])
    np.testing.assert_array_equal(denormalize([1.0], NormStats(0.0, 2.0)), [2.0])
    norm, stats = normalize([1.0, 2.0, 3.0])
    np.testing.assert_allclose(denormalize(norm, stats), [1.0, 2.0, 3.0], atol=1e-9)


def test_normstats_requires_positive_std():
    with pytest.raises(ValueError):
        NormStats(mean=0.0, std=0.0)


@given(series_strategy)
def test_normalize_round_trip(x):
    norm, stats = normalize(x)
    np.testing.assert_allclose(denormalize(norm, stats), x, atol=1e-9)


@given(series_strategy)
def test_normalize_output_statistics(x):
    norm, stats = normalize(x)
    assert abs(norm.mean()) < 1e-9
    if np.asarray(x).std() >= 1e-8:
        assert abs(norm.std() - 1.0) < 1e-9


row_matrix_strategy = st.tuples(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32 - 1))


def _random_rows(shape_and_seed):
    """Random rows at mixed scales, a third of them flat."""
    rows, length, seed = shape_and_seed
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, length)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
    flat = rng.random(rows) < 1 / 3
    x[flat] = rng.normal(size=(int(flat.sum()), 1))
    return x


@given(row_matrix_strategy)
def test_normalize_rows_matches_normalize_bit_for_bit(shape_and_seed):
    x = _random_rows(shape_and_seed)
    # a transposed view must give the same bits as its contiguous rows
    for rows in (x, np.asfortranarray(x)):
        norm, mu, sigma = normalize_rows(rows)
        for i, row in enumerate(x):
            expected, stats = normalize(row)
            assert np.array_equal(norm[i], expected)
            assert (mu[i], sigma[i]) == (stats.mean, stats.std)


@given(row_matrix_strategy, st.integers(1, 12), st.integers(0, 20))
def test_sample_windows_matches_per_window_loop(shape_and_seed, length, count):
    values = _random_rows(shape_and_seed).T  # (T, C)
    data = Dataset(series=MultivariateSeries(values), name="d")
    if values.shape[0] < length:
        with pytest.raises(ValueError, match="no window"):
            sample_windows(np.random.default_rng(0), data, length, count)
        return
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    got = sample_windows(rng, data, length, count)
    assert got.shape == (count, length)
    # every window's channel, then every window's start
    channels = ref_rng.integers(values.shape[1], size=count)
    starts = ref_rng.integers(values.shape[0] - length + 1, size=count)
    for row, c, start in zip(got, channels, starts):
        assert np.array_equal(row, normalize(values[start : start + length, c])[0])
    assert rng.random() == ref_rng.random()  # same number of draws


def test_trim_to_last():
    np.testing.assert_array_equal(trim_to_last([1, 2, 3, 4, 5], 3), [3, 4, 5])
    np.testing.assert_array_equal(trim_to_last([1, 2], 2), [1, 2])
    with pytest.raises(ValueError, match="insufficient history"):
        trim_to_last([1, 2, 3], 4)


@given(series_strategy, st.integers(min_value=0, max_value=50))
def test_trim_suffix_reconstruction(x, n):
    n = min(n, len(x))
    if n == 0:
        return
    rebuilt = np.concatenate([x[: len(x) - n], trim_to_last(x, n)])
    np.testing.assert_array_equal(rebuilt, x)


# -- metric oracles ----------------------------------------------------------


def _mse_loop(t, p):
    total = 0.0
    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            total += (t[i, j] - p[i, j]) ** 2
    return total / (t.shape[0] * t.shape[1])


def _smape_loop(t, p):
    per_channel = []
    for j in range(t.shape[1]):
        acc = 0.0
        for i in range(t.shape[0]):
            denom = abs(t[i, j]) + abs(p[i, j])
            if denom >= 1e-8:
                acc += abs(t[i, j] - p[i, j]) / denom
        per_channel.append(200.0 * acc / t.shape[0])
    return sum(per_channel) / len(per_channel)


def _mape_loop(t, p):
    per_channel = []
    for j in range(t.shape[1]):
        acc, count = 0.0, 0
        for i in range(t.shape[0]):
            if abs(t[i, j]) >= 1e-8:
                acc += abs(t[i, j] - p[i, j]) / abs(t[i, j])
                count += 1
        if count:
            per_channel.append(100.0 * acc / count)
    return sum(per_channel) / len(per_channel)


def test_metric_hand_values():
    assert mse(np.array([[1.0], [2.0]]), np.array([[2.0], [4.0]])) == pytest.approx(2.5)
    assert smape(np.array([[1.0]]), np.array([[3.0]])) == pytest.approx(100.0)
    assert mape(np.array([[2.0]]), np.array([[1.0]])) == pytest.approx(50.0)
    same = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert mse(same, same) == 0.0
    assert smape(same, same) == 0.0
    assert mape(same, same) == 0.0


def test_metrics_match_double_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h = int(rng.integers(1, 11))
        c = int(rng.integers(1, 11))
        t = rng.uniform(-10, 10, size=(h, c))
        p = rng.uniform(-10, 10, size=(h, c))
        assert mse(t, p) == pytest.approx(_mse_loop(t, p), abs=1e-9)
        assert smape(t, p) == pytest.approx(_smape_loop(t, p), abs=1e-9)
        assert mape(t, p) == pytest.approx(_mape_loop(t, p), abs=1e-9)


def test_metric_scale_behavior():
    rng = np.random.default_rng(11)
    t = rng.uniform(0.5, 5.0, size=(8, 3))
    p = rng.uniform(0.5, 5.0, size=(8, 3))
    for c in (0.1, 2.0, 17.5):
        assert smape(c * t, c * p) == pytest.approx(smape(t, p), abs=1e-9)
        assert mape(c * t, c * p) == pytest.approx(mape(t, p), abs=1e-9)
        assert mse(c * t, c * p) == pytest.approx(c**2 * mse(t, p), rel=1e-9)


def test_metric_shape_mismatch_and_zero_truth():
    with pytest.raises(ValueError, match="shape mismatch"):
        mse(np.zeros((2, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="undefined MAPE"):
        mape(np.zeros((2, 1)), np.ones((2, 1)))


def test_mse_random8x3_equals_oracle():
    rng = np.random.default_rng(3)
    t, p = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    assert mse(t, p) == pytest.approx(_mse_loop(t, p), abs=1e-12)


@given(row_matrix_strategy, st.sampled_from(["vector", "matrix", "transposed", "mixed"]))
def test_mse_matches_np_mean_form_bit_for_bit(shape_and_seed, layout):
    t = _random_rows(shape_and_seed)
    p = t + np.random.default_rng(shape_and_seed[2]).normal(size=t.shape)
    if layout == "vector":
        t, p = t[0], p[0]
    elif layout == "transposed":  # (H, C) views whose H axis is strided
        t, p = t.T, p.T
    elif layout == "mixed":  # a C-ordered truth against a transposed forecast
        t, p = np.ascontiguousarray(t.T), p.T
    assert mse(t, p) == float(np.mean((t - p) ** 2))


@given(
    st.sampled_from([mse, smape, mape]),
    st.integers(1, 5),
    st.integers(1, 48) | st.just(3000),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["window-major", "channel-rows", "contiguous"]),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 0.9]),
)
def test_stacked_metrics_equal_each_windows_call_bit_for_bit(
    metric, windows, horizon, channels, seed, layout, f_ordered_truth, zero_share
):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    if f_ordered_truth:  # (H, C) windows whose H axis is contiguous
        truth = rng.normal(size=(windows, channels, horizon)).transpose(0, 2, 1) * scale
    else:  # truths tiled out of one (length, C) series, as the harness does
        series = rng.normal(size=(windows * (horizon + 3), channels)) * scale
        truth = series.reshape(windows, horizon + 3, channels)[:, 3:]
    truth[rng.random(truth.shape) < zero_share] = 0.0  # in place, so the truth keeps its layout
    noise = rng.normal(size=windows * horizon * channels) * scale
    if layout == "window-major":  # a stacked (H, W*C) forecast, unstacked
        pred = noise.reshape(horizon, windows, channels).transpose(1, 0, 2)
    elif layout == "channel-rows":  # a (W*C, H) batch of per-channel rows
        pred = noise.reshape(windows, channels, horizon).transpose(0, 2, 1)
    else:
        pred = noise.reshape(windows, horizon, channels)
    pred += truth  # in place, so the forecast keeps its layout
    if metric is mape and not (np.abs(truth) >= 1e-8).any(axis=(1, 2)).all():
        with pytest.raises(ValueError, match="^undefined MAPE: all truth entries are zero$"):
            metric(truth, pred)
        return
    stacked = metric(truth, pred)
    assert stacked.shape == (windows,)
    for i in range(windows):
        assert stacked[i] == metric(truth[i], pred[i])
        if metric is mse:
            assert stacked[i] == float(np.mean((truth[i] - pred[i]) ** 2))


# -- containers and CSV ------------------------------------------------------


def test_multivariate_series_invariants():
    with pytest.raises(ValueError):
        MultivariateSeries(np.empty((0, 2)))
    with pytest.raises(ValueError):
        MultivariateSeries(np.array([[1.0, np.nan]]))
    s = MultivariateSeries(np.ones((4, 2)), channel_names=("a", "b"))
    assert s.length == 4 and s.num_channels == 2


@pytest.mark.parametrize(
    "values",
    [np.asfortranarray(np.arange(12.0).reshape(4, 3)), np.arange(24.0).reshape(4, 6)[:, ::2], np.arange(4.0)[::-1]],
    ids=["fortran", "column-strided", "reversed"],
)
def test_multivariate_series_stores_c_contiguous_values(values):
    # a Fortran-ordered series once kept its layout, and its windows were summed in another order
    s = MultivariateSeries(values)
    assert s.values.flags.c_contiguous
    assert np.array_equal(s.values, values.reshape(len(values), -1))


@pytest.mark.parametrize("values", [5.0, np.ones((2, 2, 2))])
def test_multivariate_series_names_a_shape_that_is_not_t_by_c(values):
    with pytest.raises(ValueError, match=r"^expected \(T, C\) with T, C >= 1, got shape \("):
        MultivariateSeries(values)


def test_load_csv_basic(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("date,a,b\n2020-01-01,1.0,4\n2020-01-02,2.5,5\n2020-01-03,3e0,6\n")
    data = load_csv(path)
    assert data.name == "tiny"
    assert data.series.num_channels == 2
    assert data.series.length == 3
    np.testing.assert_array_equal(data.series.channel(0), [1.0, 2.5, 3.0])
    assert data.series.channel_names == ("a", "b")


def test_load_csv_errors(tmp_path):
    nan_file = tmp_path / "bad.csv"
    nan_file.write_text("date,a\n1,1.0\n2,NaN\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(nan_file)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("date,a,b\n1,1.0,2.0\n2,1.0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(ragged)

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("date\n1\n")
    with pytest.raises(ValueError, match="2 columns"):
        load_csv(narrow)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_csv(empty)

    text = tmp_path / "text.csv"
    text.write_text("date,a\n1,hello\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(text)


@pytest.mark.parametrize("text", ["date,a\n1,1.0,2.0\n2,1.0,2.0\n", "date,a,b\n1,1.0\n2,1.0\n"])
def test_load_csv_names_the_first_row_whose_width_differs_from_the_header(tmp_path, text):
    # rows that agree with each other but not with the header once failed unnamed
    path = tmp_path / "wide.csv"
    path.write_text(text)
    width, got = len(text.split("\n")[0].split(",")), len(text.split("\n")[1].split(","))
    with pytest.raises(ValueError, match=rf"^wide\.csv: row 2: expected {width} columns, got {got}$"):
        load_csv(path)


def test_load_csv_names_the_file_and_line_of_non_utf8_text(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"date,a\n1,1.0\n2,caf\xe9\n")
    with pytest.raises(ValueError, match=r"^latin\.csv: line 3: not UTF-8 text \(byte 0xe9\)$"):
        load_csv(path)
    path.write_bytes(b"\xffdate,a\n1,1.0\n")
    with pytest.raises(ValueError, match=r"^latin\.csv: line 1: not UTF-8 text \(byte 0xff\)$"):
        load_csv(path)


def test_load_csv_etth_format(tmp_path):
    # benchmark layout: date column plus 7 numeric channels
    path = tmp_path / "etth_like.csv"
    header = "date," + ",".join(f"f{i}" for i in range(7))
    rows = [f"2016-07-0{r + 1}," + ",".join(str(r + i * 0.1) for i in range(7)) for r in range(5)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    data = load_csv(path)
    assert data.series.num_channels == 7


@settings(max_examples=50)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12), st.integers(1, 3))
def test_write_csv_round_trips_every_float_through_load_csv(tmp_path_factory, values, channels):
    rows = np.resize(np.array(values), (len(values), channels))
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    write_csv(path, ["t"] + [f"c{c}" for c in range(channels)], ([t, *row] for t, row in enumerate(rows)))
    assert np.array_equal(load_csv(path).series.values, rows)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"t," + b",".join(f"c{c}".encode() for c in range(channels))
    assert lines[1] == ("0," + ",".join(repr(float(v)) for v in rows[0])).encode()
