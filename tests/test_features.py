import logging

import numpy as np
import pytest

from xood.errors import ContractError, FormatError
from xood.features import (
    ALL_FEATURE_KINDS,
    LAMBDA_HI,
    LAMBDA_LO,
    LAMBDA_TOL,
    FeatureKind,
    PowerTransform,
    _lockstep_loglik,
    _yeo_johnson_base,
    apply_power_transform,
    extract_features,
    feature_names,
    feature_width,
    fit_power_transform,
    reduce_tap,
    yeo_johnson,
)
from xood.keyvalue import write_table
from xood.pipeline import load_power_transform, save_power_transform
from xood.rng import Stream

from helpers import golden_max, read_feature_csv, yeo_johnson_loglik


def reduce_one(values, kind):
    """Per-image reduction written as plain scalar code."""
    v = values.astype(np.float64).ravel()
    if kind is FeatureKind.MINMAX:
        return [v.min(), v.max()]
    if kind is FeatureKind.MIN:
        return [v.min()]
    if kind is FeatureKind.MAX:
        return [v.max()]
    if kind is FeatureKind.POSITIVITY:
        return [(v > 0).sum() / v.size]
    if kind is FeatureKind.SUM:
        return [v.sum()]
    p = {"l1": 1, "l2": 2, "l3": 3}.get(kind.value)
    if p is not None:
        return [(np.abs(v) ** p).sum() ** (1 / p)]
    p = int(kind.value[-1])
    pos = np.maximum(v, 0.0)
    neg = np.maximum(-v, 0.0)
    return [(pos**p).sum() ** (1 / p), (neg**p).sum() ** (1 / p)]


def test_extract_matches_scalar_oracle():
    s = Stream(42)
    taps = [
        s.normal(4 * 2 * 5 * 5).astype(np.float32).reshape(4, 2, 5, 5),
        s.normal(4 * 7).astype(np.float32).reshape(4, 7),
    ]
    for kind in ALL_FEATURE_KINDS:
        got = extract_features(taps, kind)
        assert got.dtype == np.float32
        assert got.shape == (4, feature_width(kind, 2))
        want = np.array(
            [reduce_one(taps[0][i], kind) + reduce_one(taps[1][i], kind)
             for i in range(4)]
        )
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_split_l2_hand_value():
    taps = [np.array([[-3.0, 4.0]], np.float32)]
    got = extract_features(taps, FeatureKind.SPLIT_L2)
    np.testing.assert_allclose(got, [[4.0, 3.0]], atol=0)
    # split norms recombine to the plain norm: (4^2 + 3^2)^0.5 = 5
    plain = extract_features(taps, FeatureKind.L2)
    np.testing.assert_allclose(plain, [[5.0]], atol=1e-6)


def test_minmax_ordering_and_names():
    taps = [np.array([[1.0, -2.0, 3.0]], np.float32)] * 2
    got = extract_features(taps, FeatureKind.MINMAX)
    np.testing.assert_array_equal(got, [[-2.0, 3.0, -2.0, 3.0]])
    assert feature_names(FeatureKind.MINMAX, 2) == [
        "layer1_min", "layer1_max", "layer2_min", "layer2_max",
    ]
    assert feature_names(FeatureKind.SPLIT_L1, 1) == [
        "layer1_l1_pos", "layer1_l1_neg",
    ]
    assert feature_names(FeatureKind.SUM, 2) == ["layer1_sum", "layer2_sum"]


def test_min_max_columns_are_bitwise_row_reductions():
    """reduce_tap's min and max columns equal .min/.max(axis=1) bit for
    bit, also where zeros of both signs tie for the extreme or a NaN sits
    in the row, when ``out`` is a strided column block of a wider feature
    matrix; the columns around the block are left alone."""
    s = Stream(44)
    for n, shape in [(1, (8, 28, 28)), (5, (16, 14, 14)), (7, (64,)), (3, (1,))]:
        k = int(np.prod(shape))
        tap = s.integers(n * k, 2).astype(np.float32).reshape(n, *shape)
        flat = tap.reshape(n, k)
        flat[1::2] *= -1  # even rows' min and odd rows' max are zero ties
        marks = s.integers(n * k, 50).reshape(n, k)
        flat[(marks < 20) & (flat == 0)] = -0.0
        flat[(marks >= 30) & (flat == 0)] = 0.0
        flat[0, marks[0] == 20] = np.nan
        flat.view(np.uint32)[-1, marks[-1] == 21] = 0xFFC00001
        matrix = np.full((n, 6), 7.0, np.float32)
        block = matrix[:, 2:4]
        reduce_tap(tap, FeatureKind.MINMAX, block)
        for got, want in ((block[:, 0], flat.min(axis=1)),
                          (block[:, 1], flat.max(axis=1))):
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        assert (matrix[:, [0, 1, 4, 5]] == 7.0).all()
    # an empty batch reduces to empty columns, for every kind
    for kind in ALL_FEATURE_KINDS:
        out = np.empty((0, feature_width(kind, 1)), np.float32)
        reduce_tap(np.zeros((0, 2, 3, 3), np.float32), kind, out)


def test_extract_contract_checks():
    with pytest.raises(ContractError, match="at least one"):
        extract_features([], FeatureKind.MINMAX)
    with pytest.raises(ContractError, match="batch size"):
        extract_features(
            [np.zeros((2, 3), np.float32), np.zeros((3, 3), np.float32)]
        )


def yj_reference(x, lam):
    """Textbook piecewise form, no expm1 tricks."""
    x = float(x)
    if x >= 0:
        if lam == 0:
            return np.log(x + 1.0)
        return ((x + 1.0) ** lam - 1.0) / lam
    if lam == 2:
        return -np.log(-x + 1.0)
    return -((-x + 1.0) ** (2.0 - lam) - 1.0) / (2.0 - lam)


def test_yeo_johnson_matches_reference_form():
    xs = np.array([-5.0, -1.0, -0.2, 0.0, 0.3, 1.0, np.e - 1.0, 10.0])
    for lam in (-2.0, -0.5, 0.0, 0.7, 1.0, 2.0, 3.5):
        got = yeo_johnson(xs, lam)
        want = [yj_reference(x, lam) for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_yeo_johnson_identities():
    x = np.linspace(-4.0, 4.0, 101)
    # lambda = 1 is the identity
    np.testing.assert_allclose(yeo_johnson(x, 1.0), x, rtol=0, atol=1e-9)
    # lambda = 0 at x = e - 1 gives exactly 1
    assert abs(yeo_johnson(np.array([np.e - 1.0]), 0.0)[0] - 1.0) < 1e-12
    # lambda = 2 at x = 1 - e gives exactly -1
    assert abs(yeo_johnson(np.array([1.0 - np.e]), 2.0)[0] + 1.0) < 1e-12


def test_yeo_johnson_monotone_and_continuous():
    x = np.linspace(-6.0, 6.0, 401)
    for lam in (-3.0, 0.0, 0.5, 2.0, 4.0):
        y = yeo_johnson(x, lam)
        assert (np.diff(y) > 0).all(), lam
    # continuity across the piecewise boundaries in lambda
    for lam0 in (0.0, 2.0):
        near = yeo_johnson(x, lam0 + 1e-9)
        at = yeo_johnson(x, lam0)
        np.testing.assert_allclose(near, at, rtol=1e-6, atol=1e-7)


def grid_argmax(col, step=0.01):
    grid = np.arange(-5.0, 5.0 + step / 2, step)
    vals = [yeo_johnson_loglik(col, lam) for lam in grid]
    return float(grid[int(np.argmax(vals))])


def test_fit_lambda_agrees_with_grid_scan():
    s = Stream(77)
    for i in range(6):
        raw = s.normal(400)
        col = np.exp(raw * 0.5) - 0.5 if i % 2 else raw**3  # skewed shapes
        pt = fit_power_transform(col.reshape(-1, 1))
        assert abs(pt.lambdas[0] - grid_argmax(col)) < 0.05


def test_fit_standardizes():
    s = Stream(5)
    x = np.stack(
        [np.exp(s.normal(500) * 0.7), s.normal(500) * 3.0 + 1.0], axis=1
    )
    pt = fit_power_transform(x)
    y = apply_power_transform(pt, x)
    assert y.dtype == np.float64
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-4)
    assert not pt.flags.any()
    # right-skewed data pulls lambda below the identity
    assert pt.lambdas[0] < 1.0


def test_fit_reduces_skewness():
    s = Stream(6)
    x = np.exp(s.normal(1000))[:, None]  # strongly right-skewed

    def skew(v):
        v = v - v.mean()
        return float((v**3).mean() / (v**2).mean() ** 1.5)

    y = apply_power_transform(fit_power_transform(x), x)
    assert abs(skew(y[:, 0])) < abs(skew(x[:, 0])) / 5


def test_constant_column_flagged(caplog):
    x = np.stack([np.full(50, 2.5), Stream(1).normal(50)], axis=1)
    with caplog.at_level(logging.WARNING, logger="xood.features"):
        pt = fit_power_transform(x)
    assert pt.flags[0] and not pt.flags[1]
    assert pt.lambdas[0] == 1.0 and pt.stds[0] == 1.0
    assert any("pinned" in r.message for r in caplog.records)
    y = apply_power_transform(pt, x)
    assert np.isfinite(y).all()
    np.testing.assert_allclose(y[:, 0], 0.0, atol=1e-12)


def edge_column(rows: int = 300) -> np.ndarray:
    """Values near 0 and one outlier at 50: the likelihood still rises at
    the bracket's lower edge."""
    col = Stream(3).uniform(rows) * 1e-3
    col[-1] = 50.0
    return col


def scalar_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambdas, means, stds) of a column-by-column fit: one golden-section
    search per varying column on its own likelihood, lambda 1 for a
    constant column."""
    lambdas, means, stds = (np.empty(x.shape[1]) for _ in range(3))
    for j in range(x.shape[1]):
        col = x[:, j]
        lambdas[j] = 1.0 if float(col.max()) - float(col.min()) == 0.0 else golden_max(
            lambda lam: yeo_johnson_loglik(col, lam), LAMBDA_LO, LAMBDA_HI, LAMBDA_TOL)
        y = yeo_johnson(col, lambdas[j])
        means[j], stds[j] = y.mean(), y.std()
    return lambdas, means, stds


def test_lockstep_fit_is_bitwise_the_column_by_column_fit(caplog):
    # every column keeps its own bracket, so the lambdas, and the means and
    # stds they give, are the bits of a search on that column alone
    for seed in (1, 2, 3, 4):
        s = Stream(seed)
        skewed = np.exp(s.normal(1400 * 5).reshape(1400, 5))
        skewed[:, 1] = s.normal(1400) ** 3
        skewed[:, 3] = 0.7  # constant
        small = s.uniform(300 * 3).reshape(300, 3) * 1e-3
        small[:, 1] = edge_column()
        features = s.normal(700 * 6).reshape(700, 6).astype(np.float32)
        for x in (skewed, small, features):
            x = x.astype(np.float64)
            pt = fit_power_transform(x)
            lambdas, means, stds = scalar_fit(x)
            stds[pt.flags] = 1.0  # pinned
            for got, want in ((pt.lambdas, lambdas), (pt.means, means), (pt.stds, stds)):
                assert got.tobytes() == want.tobytes(), seed


def test_lockstep_loglik_is_bitwise_each_columns_own():
    # one likelihood per row of the transposed matrix, each at its own
    # lambda, the limits 0 and 2 and the bracket's edges included
    s = Stream(8)
    x = np.stack([s.normal(500) ** 3, np.exp(s.normal(500)), edge_column(500),
                  -np.exp(s.normal(500))], axis=1)
    rows = np.ascontiguousarray(x.T)
    skew = np.sum(np.sign(rows) * np.log1p(np.abs(rows)), axis=1)
    parts = _yeo_johnson_base(rows)
    for lam in ([0.0, 2.0, -5.0, 5.0], *s.uniform(40 * 4, -5.0, 5.0).reshape(40, 4)):
        got = _lockstep_loglik(parts, skew, np.array(lam))
        want = [yeo_johnson_loglik(x[:, j], float(lam[j])) for j in range(4)]
        assert got.tolist() == want, lam


def test_edge_lambdas_are_listed():
    x = np.stack([edge_column(), Stream(4).normal(300), np.full(300, 2.0)], axis=1)
    pt = fit_power_transform(x)
    assert pt.lambdas[0] == pytest.approx(-4.99995, abs=1e-5)
    assert pt.lambdas_at_edge == (0,)
    assert PowerTransform(np.array([-5.0, 4.99991, 4.9998, 0.0]), np.zeros(4),
                          np.ones(4), np.zeros(4, bool)).lambdas_at_edge == (0, 1)


def test_fit_contract_checks():
    with pytest.raises(ContractError, match="2-D"):
        fit_power_transform(np.zeros(10))
    with pytest.raises(ContractError, match="at least 10 rows"):
        fit_power_transform(np.zeros((5, 2)))
    bad = np.zeros((20, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        fit_power_transform(bad)


def test_apply_rejects_non_finite():
    pt = fit_power_transform(Stream(2).normal(40).reshape(20, 2))
    bad = np.ones((4, 2))
    bad[2, 1] = np.inf
    with pytest.raises(ContractError, match="row 2, column 1"):
        apply_power_transform(pt, bad)
    with pytest.raises(ContractError, match="does not match"):
        apply_power_transform(pt, np.ones((4, 3)))


def yeo_johnson_one_lambda(x, lam):
    """The transform at one scalar lambda via boolean masks, as applied
    column by column before the broadcast form; kept as a bitwise oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    if abs(lam) < np.spacing(1.0):
        out[pos] = np.log1p(x[pos])
    else:
        out[pos] = np.expm1(lam * np.log1p(x[pos])) / lam
    neg = ~pos
    if abs(lam - 2.0) < np.spacing(1.0):
        out[neg] = -np.log1p(-x[neg])
    else:
        out[neg] = -np.expm1((2.0 - lam) * np.log1p(-x[neg])) / (2.0 - lam)
    return out


def test_apply_is_bitwise_the_per_column_transform():
    s = Stream(9)
    x = s.normal(300 * 8).reshape(300, 8) * 3.0
    x[::7] = 0.0
    x[3, :] = -0.0
    # exact 0 and 2 take the log1p limit branches; the rest cover both signs
    lambdas = np.array([0.0, 2.0, 1.0, -5.0, 5.0, 0.3, 1.7, 2.0 + 1e-9])
    pt = PowerTransform(
        lambdas, s.normal(8), s.uniform(8, 0.5, 2.0), np.zeros(8, bool)
    )
    want = np.empty_like(x)
    for j in range(8):
        col = yeo_johnson_one_lambda(x[:, j], lambdas[j])
        got = yeo_johnson(x[:, j], lambdas[j])
        assert np.array_equal(got.view(np.uint64), col.view(np.uint64)), j
        want[:, j] = (col - pt.means[j]) / pt.stds[j]
    got = apply_power_transform(pt, x)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def yeo_johnson_where_form(x, lam):
    """The transform with its limit passes always run: every element goes
    through where(limit, ...) with a safe divisor; kept as a bitwise oracle
    for the form that skips them when no power lies at the limit."""
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    sign = np.where(pos, 1.0, -1.0)
    power = np.where(pos, lam, 2.0 - lam)
    base = np.log1p(sign * x)
    limit = np.abs(power) < np.spacing(1.0)
    safe = np.where(limit, 1.0, power)
    return sign * np.where(limit, base, np.expm1(power * base) / safe)


def test_yeo_johnson_is_bitwise_the_where_form():
    s = Stream(10)
    edge = np.array([0.0, -0.0, 1e-300, -1e-300, 1e3, -1e3])
    x = np.concatenate([edge, s.normal(42) * 3.0]).reshape(-1, 1) * np.ones(7)
    x[:, 1::2] *= -1  # each edge value also with its sign flipped
    mixed = np.array([0.0, 2.0, 0.7, -1.3, 1.0, 3.5, 2.0 + 1e-9])
    ordinary = np.array([0.3, 1.7, 0.7, -1.3, 1.0, 3.5, -5.0])

    def same(got, want):
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    for lambdas in (mixed, ordinary):
        same(yeo_johnson(x, lambdas), yeo_johnson_where_form(x, lambdas))
    # one scalar lambda per column, as the fit uses it; a sign-restricted
    # column puts exactly 0 or 2 where no element's power reaches the limit
    for j, lam in enumerate(mixed):
        for col in (x[:, j], x[x[:, j] >= 0, j], x[x[:, j] < 0, j]):
            same(yeo_johnson(col, lam), yeo_johnson_where_form(col, lam))
    pt = PowerTransform(mixed, s.normal(7), s.uniform(7, 0.5, 2.0), np.zeros(7, bool))
    same(apply_power_transform(pt, x),
         (yeo_johnson_where_form(x, mixed) - pt.means) / pt.stds)
    bad = x.copy()
    bad[5, 3] = np.nan
    with pytest.raises(ContractError, match="row 5, column 3"):
        apply_power_transform(pt, bad)


def test_power_transform_round_trip(tmp_path):
    x = Stream(3).normal(60).reshape(30, 2) * np.array([1.0, 5.0]) + 0.3
    pt = fit_power_transform(x)
    path = tmp_path / "pt.txt"
    save_power_transform(pt, path)
    back = load_power_transform(path)
    # str() of a float64 scalar reads back exactly
    np.testing.assert_array_equal(back.lambdas, pt.lambdas)
    np.testing.assert_array_equal(back.means, pt.means)
    np.testing.assert_array_equal(back.stds, pt.stds)
    np.testing.assert_array_equal(back.flags, pt.flags)
    np.testing.assert_array_equal(
        apply_power_transform(back, x), apply_power_transform(pt, x)
    )


def test_power_transform_load_errors(tmp_path):
    p = tmp_path / "pt.txt"
    p.write_text("wrong,header\n")
    with pytest.raises(FormatError, match="header"):
        load_power_transform(p)
    p.write_text("dim,lambda,mean,std,flagged\n0,1.0,0.0\n")
    with pytest.raises(FormatError, match="row 0"):
        load_power_transform(p)
    p.write_text("dim,lambda,mean,std,flagged\n1,1.0,0.0,1.0,0\n")
    with pytest.raises(FormatError, match="row 0"):
        load_power_transform(p)
    p.write_bytes(b"dim,lambda,mean,std,flagged\n0,1.0,0.0,1.0,\xff\n")
    with pytest.raises(FormatError, match="not UTF-8.*offset 42"):
        load_power_transform(p)
    # non-finite cells, std <= 0, flagged outside {0, 1}, dims out of order
    for rows, match in [
        ("0,1.0,0.0,0.0,0", "row 0: std must be > 0"),
        ("0,1.0,0.0,inf,0", "row 0: .* finite"),
        ("0,1.0,0.0,nan,0", "row 0: .* finite"),
        ("0,nan,0.0,1.0,0", "row 0: .* finite"),
        ("0,1.0,0.0,1.0,7", "row 0: flagged must be 0 or 1"),
        ("1,1.0,0.0,1.0,0\n0,1.0,0.0,1.0,0", "row 0"),
    ]:
        p.write_text(f"dim,lambda,mean,std,flagged\n{rows}\n")
        with pytest.raises(FormatError, match=match):
            load_power_transform(p)


def test_feature_csv_round_trip(tmp_path):
    feats = Stream(8).normal(12).astype(np.float32).reshape(4, 3)
    names = ["layer1_min", "layer1_max", "layer2_min"]
    path = tmp_path / "f.csv"
    write_table(path, "image_id", dict(zip(names, feats.T)))
    got_names, got = read_feature_csv(path)
    assert got_names == names
    np.testing.assert_array_equal(got, feats)


@pytest.mark.parametrize(
    "row",
    ["x,1.0,2.0", "0,1.0,abc", "1,1.0,2.0", "0,1.0", b"0,1.0,\xff",
     "0,1.0,-1.2490e304"],
)
def test_feature_csv_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "f.csv"
    if isinstance(row, str):
        path.write_text(f"image_id,layer1_min,layer1_max\n{row}\n")
        match = "row 0"
    else:
        path.write_bytes(b"image_id,layer1_min,layer1_max\n" + row + b"\n")
        match = "not UTF-8"
    with pytest.raises(FormatError, match=match):
        read_feature_csv(path)
