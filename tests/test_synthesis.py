import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockstab import synthesis
from shockstab.errors import (
    ConfigError,
    DegenerateMarginalsError,
    DomainError,
    InsufficientDataError,
    InsufficientSyntheticError,
    SchemaMismatchError,
)
from shockstab.synthesis import (
    FAMILIES,
    OutlierSpec,
    fit,
    generate,
    mix,
    postprocess,
    upsample,
)

from conftest import make_frame


def _train_frame(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(10.0, 2.0, n)
    y = 0.5 * x + rng.normal(0.0, 1.0, n)
    s = [str(v) for v in rng.choice(["a", "b", "c"], n, p=[0.5, 0.3, 0.2])]
    return make_frame(x=list(x), y=list(y), s=s)


def _tail_certified(batch, gen, tail_sigma=3.0):
    """Fraction of tail rows exceeding tail_sigma on >= 1 coordinate."""
    marg = batch.marginals
    ok = 0
    tails = 0
    for i in range(batch.frame.row_count):
        if not batch.outlier_mask[i]:
            continue
        tails += 1
        for name, (mean, std) in marg.items():
            if std > 0:
                v = batch.frame.column(name).values[i]
                if abs(v - mean) > tail_sigma * std:
                    ok += 1
                    break
    return ok, tails


def test_fit_identical_rows_degenerate():
    frame = make_frame(x=[3.0, 3.0], y=[1.0, 1.0])
    gen = fit(frame)
    assert np.allclose(gen.stds, 0.0)
    assert set(gen.degenerate_columns) == {"x", "y"}
    # regularization keeps the matrix usable even if the data has no spread
    assert np.all(np.linalg.eigvalsh(gen.covariance) >= 0.0)


def test_fit_linear_dependence_rank_then_regularized():
    x = [1.0, 2.0, 3.0, 4.0]
    frame = make_frame(x=x, y=[2.0 * v for v in x])
    raw = np.cov(np.column_stack([x, [2 * v for v in x]]), rowvar=False)
    assert np.linalg.matrix_rank(raw) == 1
    gen = fit(frame)
    eigvals = np.linalg.eigvalsh(gen.covariance)
    assert np.all(eigvals > 0.0)  # full rank after the diagonal shift


def test_fit_frequencies():
    gen = fit(make_frame(s=["A", "A", "B"], x=[0.0, 1.0, 2.0]))
    labels, probs = gen.frequencies["s"]
    assert list(labels) == ["A", "B"]
    assert probs == pytest.approx([2 / 3, 1 / 3])


def test_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit(make_frame(x=[1.0]))
    with pytest.raises(InsufficientDataError):
        fit(make_frame(x=[1.0, None, None], y=[1.0, 2.0, 3.0]))
    with pytest.raises(InsufficientDataError):
        fit(make_frame(s=[None, None], x=[1.0, 2.0]))


def test_fit_pairwise_fallback_when_no_complete_rows(monkeypatch):
    # each row lacks one of the three columns, and each pair shares two rows
    frame = make_frame(
        x=[1.0, 2.0, 3.0, 5.0, None, None],
        y=[2.0, 5.0, None, None, 1.0, 4.0],
        z=[None, None, 1.0, 7.0, 2.0, 3.0],
    )
    calls = []
    pairwise = synthesis._pairwise_covariance
    monkeypatch.setattr(
        synthesis, "_pairwise_covariance", lambda m: calls.append(m) or pairwise(m)
    )
    gen = fit(frame)
    assert len(calls) == 1
    assert np.all(np.isfinite(gen.covariance))
    assert np.all(np.linalg.eigvalsh(gen.covariance) >= 0.0)


def test_fit_pairwise_covariance_matches_a_numpy_oracle(monkeypatch):
    # one complete row, so fit falls back to pairwise-complete estimates;
    # w shares fewer than two rows with every other column
    columns = {
        "x": [1.0, 2.0, 4.0, None, 7.0, None],
        "y": [2.0, None, 3.0, 5.0, 1.0, None],
        "z": [None, 1.0, None, 2.0, 8.0, 3.0],
        "w": [5.0, None, None, None, None, 6.0],
    }
    calls = []
    pairwise = synthesis._pairwise_covariance
    monkeypatch.setattr(
        synthesis, "_pairwise_covariance", lambda m: calls.append(m) or pairwise(m)
    )
    gen = fit(make_frame(**columns))
    assert len(calls) == 1

    matrix = np.array([[np.nan if v is None else v for v in c] for c in columns.values()]).T
    d = matrix.shape[1]
    cov = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            both = ~np.isnan(matrix[:, i]) & ~np.isnan(matrix[:, j])
            if both.sum() >= 2:
                cov[i, j] = np.cov(matrix[both, i], matrix[both, j])[0, 1]
    assert cov[3, :3].tolist() == [0.0, 0.0, 0.0]
    shift = 1e-8 * np.trace(cov) / d + max(0.0, -np.linalg.eigvalsh(cov).min())
    np.testing.assert_allclose(gen.covariance, cov + shift * np.eye(d), rtol=1e-12, atol=1e-12)


def test_upsample_to_target():
    frame = _train_frame(100)
    up = upsample(frame, 10000, seed=4)
    assert up.row_count == 10000
    originals = {(v,) for v in frame.column("x").values}
    assert all((v,) in originals for v in up.column("x").values)


def test_upsample_noop_and_determinism():
    frame = _train_frame(200)
    assert upsample(frame, 100) is frame
    a = upsample(frame, 500, seed=9)
    b = upsample(frame, 500, seed=9)
    assert np.array_equal(a.column("x").values, b.column("x").values)


def test_generate_body_only():
    gen = fit(_train_frame())
    batch = generate(gen, OutlierSpec("normal", 0.0, total_rows=500, seed=1))
    assert batch.frame.row_count == 500
    assert int(batch.outlier_mask.sum()) == 0
    assert batch.outlier_mask.shape == (500,)
    assert batch.outlier_mask.dtype == bool


def test_generate_exact_outlier_count_and_certification():
    gen = fit(_train_frame())
    spec = OutlierSpec("normal", 0.10, total_rows=1000, seed=2)
    batch = generate(gen, spec)
    assert int(batch.outlier_mask.sum()) == 100
    ok, tails = _tail_certified(batch, gen)
    assert tails == 100
    assert ok == 100


@pytest.mark.parametrize("tail_sigma", [1e160, 1e200, 1e300])
def test_generate_refuses_tails_whose_column_spread_overflows(tail_sigma):
    # finite tail values whose squares overflow: a model could not scale the
    # column by its standard deviation
    gen = fit(_train_frame())
    spec = OutlierSpec("normal", 0.5, total_rows=200, seed=2, tail_sigma=tail_sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            generate(gen, spec)
    assert re.fullmatch(
        re.escape(f"tail_sigma {tail_sigma!r}")
        + " pushes column '[xy]' beyond the spread a model can scale",
        str(err.value),
    )
    # the largest tail_sigma whose squares stay finite is kept
    spec = OutlierSpec("normal", 0.5, total_rows=200, seed=2, tail_sigma=1e140)
    assert np.isfinite(np.std(generate(gen, spec).frame.column("x").values))


@pytest.mark.parametrize("pct", [1, 3, 5, 7, 10, 50, 100])
def test_generate_supports_reference_levels(pct):
    gen = fit(_train_frame())
    spec = OutlierSpec("normal", pct / 100.0, total_rows=1000, seed=3)
    batch = generate(gen, spec)
    assert int(batch.outlier_mask.sum()) == round(pct / 100.0 * 1000)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generate_families(family):
    gen = fit(_train_frame())
    spec = OutlierSpec(family, 0.2, total_rows=300, seed=11)
    batch = generate(gen, spec)
    values = np.column_stack(
        [batch.frame.column(n).values for n in gen.numerical_names]
    )
    assert np.all(np.isfinite(values))
    ok, tails = _tail_certified(batch, gen)
    assert tails == 60
    assert ok == tails


def _scipy_stats_distribution(family):
    """The scipy.stats distribution the tail family's draws once came from."""
    from scipy import stats

    return {
        "normal": stats.norm,
        "laplace": stats.laplace,
        "gumbel": stats.gumbel_r,
        "weibull": stats.weibull_min(1.0),
        "levy": stats.levy,
    }[family]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=200, deadline=None)
@given(u=st.lists(st.floats(1e-12, 1.0, exclude_max=True), min_size=1, max_size=64))
@example(u=[1e-12, 0.5, float(np.nextafter(1.0, 0.0))])
def test_tail_draws_equal_scipy_stats_bit_for_bit(family, u):
    # the draw is isf(u * sf(1.0)) for u in [1e-12, 1); scipy.stats is the
    # oracle, loaded by this test only
    dist = _scipy_stats_distribution(family)
    mass, isf = synthesis._TAILS[family]
    u = np.asarray(u)
    ours = np.asarray(isf(u * mass), dtype=np.float64)
    theirs = np.asarray(dist.isf(u * dist.sf(1.0)), dtype=np.float64)
    assert ours.shape == theirs.shape
    assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))
    assert np.all(ours >= 1.0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tail_mass_is_scipy_stats_sf_at_1_bit_for_bit(family):
    mass = np.float64(synthesis._TAILS[family][0])
    theirs = np.float64(_scipy_stats_distribution(family).sf(1.0))
    assert mass.view(np.uint64) == theirs.view(np.uint64)


_NORMAL_MASS = 0.15865525393145707  # scipy.stats.norm.sf(1.0)


def _ndtri_bits_differ(q):
    """Values of `q` where the normal draws' ndtri and scipy.special's differ
    in any bit; scipy.special is loaded by these tests only."""
    from scipy.special import ndtri

    q = np.asarray(q, dtype=np.float64)
    ours = synthesis._ndtri(q)
    assert ours.dtype == np.float64 and ours.shape == q.shape
    return q[ours.view(np.uint64) != ndtri(q).view(np.uint64)]


def test_ndtri_equals_scipy_special_on_a_dense_grid_of_the_draw_domain():
    # the normal draws' q = u * sf(1) for u in [1e-12, 1)
    q = np.geomspace(1e-12 * _NORMAL_MASS, _NORMAL_MASS, 2**20)
    assert _ndtri_bits_differ(q[q < _NORMAL_MASS]).size == 0


def test_ndtri_equals_scipy_special_next_to_its_branch_point_and_domain_ends():
    lowest = 1e-12 * _NORMAL_MASS
    edges = [math.exp(-2.0), lowest, _NORMAL_MASS]
    q = [float(np.nextafter(e, to)) for e in edges for to in (0.0, 1.0)] + edges
    assert _ndtri_bits_differ(q).size == 0


@settings(max_examples=300, deadline=None)
@given(q=st.lists(st.floats(1e-12 * _NORMAL_MASS, _NORMAL_MASS, exclude_max=True),
                  min_size=1, max_size=64))
def test_ndtri_equals_scipy_special_bit_for_bit(q):
    assert _ndtri_bits_differ(q).size == 0


def test_generate_deterministic():
    gen = fit(_train_frame())
    spec = OutlierSpec("gumbel", 0.05, total_rows=400, seed=21)
    a = generate(gen, spec)
    b = generate(gen, spec)
    for name in a.frame.column_names:
        assert np.array_equal(
            a.frame.column(name).values, b.frame.column(name).values
        )
    assert np.array_equal(a.outlier_mask, b.outlier_mask)
    assert int(a.outlier_mask.sum()) == spec.outlier_count


def test_generate_degenerate_marginals():
    gen = fit(make_frame(x=[5.0, 5.0, 5.0], y=[2.0, 2.0, 2.0]))
    with pytest.raises(DegenerateMarginalsError):
        generate(gen, OutlierSpec("normal", 0.1, total_rows=100, seed=0))
    # body-only generation is still fine
    batch = generate(gen, OutlierSpec("normal", 0.0, total_rows=100, seed=0))
    assert batch.frame.row_count == 100


def test_fit_and_generate_without_numerical_columns():
    frame = make_frame(s=["a", "b", "a", "c"], t=["u", "u", "v", "u"])
    gen = fit(frame)
    assert gen.numerical_names == ()
    assert gen.covariance.shape == (0, 0)
    batch = generate(gen, OutlierSpec("normal", 0.0, total_rows=60, seed=3))
    assert batch.frame.column_names == ["s", "t"]
    assert batch.frame.row_count == 60
    assert set(batch.frame.column("s").values) == {"a", "b", "c"}
    assert set(batch.frame.column("t").values) == {"u", "v"}
    assert not batch.outlier_mask.any()
    assert batch.marginals == {}
    # no numerical column can carry a tail, whatever the share
    with pytest.raises(DegenerateMarginalsError):
        generate(gen, OutlierSpec("normal", 0.001, total_rows=60, seed=3))


def test_generate_moment_recovery_smoke():
    gen = fit(_train_frame(2000, seed=5))
    batch = generate(gen, OutlierSpec("normal", 0.0, total_rows=20000, seed=6))
    xs = np.column_stack([batch.frame.column(n).values for n in gen.numerical_names])
    assert np.allclose(xs.mean(axis=0), gen.means, atol=4 * gen.stds.max() / np.sqrt(20000) + 1e-9)
    sample_cov = np.cov(xs, rowvar=False)
    rel = np.linalg.norm(sample_cov - gen.covariance) / np.linalg.norm(gen.covariance)
    assert rel < 0.05


def test_spec_validation():
    with pytest.raises(ConfigError):
        OutlierSpec("cauchy", 0.1, total_rows=10)
    with pytest.raises(ConfigError):
        OutlierSpec("normal", 1.5, total_rows=10)
    with pytest.raises(ConfigError):
        OutlierSpec("normal", 0.1, total_rows=0)
    with pytest.raises(ConfigError):
        OutlierSpec("normal", 0.1, total_rows=10, tail_sigma=0.0)


def test_postprocess_reflects_tail_and_clamps_body():
    gen = fit(make_frame(x=[4.0, 5.0, 6.0], y=[0.0, 1.0, 2.0]))
    spec = OutlierSpec("normal", 0.5, total_rows=40, seed=7, nonneg_columns=("x",))
    batch = generate(gen, spec)

    # force negatives on both a tail row and a body row
    x = batch.frame.column("x").values.copy()
    tail_i = int(np.nonzero(batch.outlier_mask)[0][0])
    body_i = int(np.nonzero(~batch.outlier_mask)[0][0])
    x[tail_i] = -2.0
    x[body_i] = -0.5
    from shockstab.frame import Column, ColumnKind, TabularFrame
    from shockstab.synthesis import SyntheticBatch

    frame = TabularFrame(
        [
            Column("x", ColumnKind.NUMERICAL, x),
            batch.frame.column("y"),
        ]
    )
    tampered = SyntheticBatch(
        frame=frame,
        outlier_mask=batch.outlier_mask,
        marginals=batch.marginals,
    )
    mean_x = batch.marginals["x"][0]
    cleaned = postprocess(tampered, spec)
    assert cleaned.frame.column("x").values[tail_i] == pytest.approx(
        mean_x + abs(-2.0 - mean_x)
    )
    assert cleaned.frame.column("x").values[tail_i] >= mean_x
    assert cleaned.frame.column("x").values[body_i] == 0.0
    assert np.all(cleaned.frame.column("x").values >= 0.0)
    assert np.array_equal(cleaned.outlier_mask, batch.outlier_mask)


def test_postprocess_identity_without_negatives():
    gen = fit(_train_frame())
    spec = OutlierSpec("normal", 0.0, total_rows=50, seed=8, nonneg_columns=("x",))
    batch = generate(gen, spec)
    if np.all(batch.frame.column("x").values >= 0):
        cleaned = postprocess(batch, spec)
        assert np.array_equal(
            cleaned.frame.column("x").values, batch.frame.column("x").values
        )


def test_postprocess_unknown_column():
    gen = fit(_train_frame())
    batch = generate(gen, OutlierSpec("normal", 0.0, total_rows=10, seed=9))
    with pytest.raises(ConfigError):
        postprocess(batch, OutlierSpec("normal", 0.0, total_rows=10, seed=9,
                                       nonneg_columns=("missing",)))


def test_mix_counts_and_schema():
    real = make_frame(x=[float(i) for i in range(100)], s=["r"] * 100)
    gen = fit(make_frame(x=[1000.0, 1001.0, 1002.0], s=["s", "s", "t"]))
    batch = generate(gen, OutlierSpec("normal", 0.0, total_rows=150, seed=10))
    mixed = mix(real, batch, real_fraction=0.5, seed=3)
    assert mixed.row_count == 200
    reals = sum(1 for v in mixed.column("x").values if v < 500)
    assert reals == 100
    assert mixed.column_names == real.column_names


def test_mix_insufficient_synthetic():
    real = make_frame(x=[float(i) for i in range(100)])
    gen = fit(make_frame(x=[0.0, 1.0, 2.0]))
    batch = generate(gen, OutlierSpec("normal", 0.0, total_rows=40, seed=1))
    with pytest.raises(InsufficientSyntheticError):
        mix(real, batch, real_fraction=0.5)


def test_mix_keeps_the_real_frames_column_order():
    real = make_frame(x=[0.0, 1.0, 2.0, 3.0], s=["a", "b", "a", "b"])
    gen = fit(make_frame(s=["c", "d", "c", "d", "c"], x=[10.0, 11.0, 12.0, 13.0, 14.0]))
    batch = generate(gen, OutlierSpec("normal", 0.0, total_rows=10, seed=1))
    assert batch.frame.column_names == ["s", "x"]
    mixed = mix(real, batch, real_fraction=0.5, seed=3)
    assert mixed.column_names == ["x", "s"]
    chosen = batch.frame.take(np.arange(4))

    def rows(frame):
        return sorted(zip(*(frame.column(n).values.tolist() for n in ("x", "s"))))

    assert rows(mixed) == sorted(rows(real) + rows(chosen))
    assert {v for _, v in rows(chosen)} <= {"c", "d"}


def test_mix_schema_mismatch():
    real = make_frame(x=[0.0, 1.0], s=["a", "b"])
    gen = fit(make_frame(x=[0.0, 1.0, 2.0]))
    batch = generate(gen, OutlierSpec("normal", 0.0, total_rows=10, seed=1))
    with pytest.raises(SchemaMismatchError):
        mix(real, batch)
