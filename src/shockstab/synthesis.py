"""Covariance-matched synthetic data with EVT-family tail injection.

The generator fits per-column marginals, a regularized covariance matrix
over the numerical columns and empirical frequency tables for categorical
ones. Body rows come from the fitted multivariate normal (categoricals
drawn independently); tail rows start from the same correlated base and
then have their most extreme coordinate pushed beyond `tail_sigma` standard
deviations using one of five tail families. Symmetric families (normal,
Laplace) keep the sign of the underlying draw, the one-sided Gumbel and
Weibull forms are reflected with probability 1/2 so both tails are
reachable, and Levy places outliers on its heavy side only. The tail
draws give the bits scipy.stats' distributions give without loading
scipy.stats; only Levy's, which need `erfinv`, load scipy.special.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import Config, check, setting
from .errors import (
    ConfigError,
    DegenerateMarginalsError,
    DomainError,
    EmptyInputError,
    InsufficientDataError,
    InsufficientSyntheticError,
)
from .frame import Column, ColumnKind, TabularFrame, concat_frames
from .splitting import child_rng

FAMILIES = ("normal", "laplace", "gumbel", "weibull", "levy")

#: Families whose tail side follows the sign of the correlated base draw.
_SYMMETRIC = frozenset({"normal", "laplace"})
#: Families reflected with probability 1/2 (one-sided standard forms).
_REFLECTED = frozenset({"gumbel", "weibull"})


@dataclass(frozen=True)
class OutlierSpec(Config):
    """Sampling request: family, outlier share, tail rule and row budget."""

    family: str = setting(kind="a string", bound=FAMILIES)
    outlier_fraction: float = setting(kind="a number", bound="in [0, 1]")
    total_rows: int = setting(kind="an integer", bound=">= 1")
    seed: int = setting(0, "an integer")
    tail_sigma: float = setting(3.0, "a number", "> 0")
    nonneg_columns: tuple = setting((), "a list of strings")

    @property
    def outlier_count(self) -> int:
        return int(round(self.outlier_fraction * self.total_rows))


@dataclass
class FittedGenerator:
    """Marginals, covariance and categorical frequencies learned from data."""

    schema: tuple  # ordered (name, ColumnKind) pairs of the fitted frame
    numerical_names: tuple
    means: np.ndarray
    stds: np.ndarray
    covariance: np.ndarray  # regularized, PSD
    categorical_names: tuple
    frequencies: dict  # name -> (labels array, probabilities array)
    degenerate_columns: tuple = ()

    def cholesky_factor(self) -> np.ndarray:
        """Lower-triangular-ish factor L with L @ L.T == covariance."""
        try:
            return np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError:
            # PSD but singular: eigendecomposition with clipped spectrum
            eigval, eigvec = np.linalg.eigh(self.covariance)
            return eigvec * np.sqrt(np.clip(eigval, 0.0, None))

    def marginals(self) -> dict:
        return {
            name: (float(m), float(s))
            for name, m, s in zip(self.numerical_names, self.means, self.stds)
        }


@dataclass
class SyntheticBatch:
    """Generated rows, which of them are tail rows, and the fitted marginals."""

    frame: TabularFrame
    outlier_mask: np.ndarray  # True for tail rows
    marginals: dict  # numerical column -> (mean, std) used for the 3-sigma rule


def _pairwise_covariance(matrix: np.ndarray) -> np.ndarray:
    """Pairwise-complete covariance for data with missing cells."""
    d = matrix.shape[1]
    cov = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            both = ~np.isnan(matrix[:, i]) & ~np.isnan(matrix[:, j])
            if both.sum() >= 2:
                xi = matrix[both, i]
                xj = matrix[both, j]
                cov[i, j] = cov[j, i] = float(
                    np.sum((xi - xi.mean()) * (xj - xj.mean())) / (both.sum() - 1)
                )
    return cov


def fit(train: TabularFrame) -> FittedGenerator:
    """Fit marginals, covariance and categorical frequencies on `train`.

    The covariance is estimated on complete numerical rows, falling back to
    pairwise-complete estimates when fewer than two complete rows exist, and
    is then shifted along the diagonal to be positive semidefinite: by
    1e-8 * trace / dim plus the magnitude of any negative eigenvalue. A
    numerical column whose mean, standard deviation or covariance lies
    beyond float's range is refused by name with a DomainError.
    """
    if train.row_count < 2:
        raise InsufficientDataError(
            f"need at least 2 rows to fit, got {train.row_count}"
        )

    num_cols = [c for c in train.columns if c.kind is ColumnKind.NUMERICAL]
    cat_cols = [c for c in train.columns if c.kind is ColumnKind.CATEGORICAL]

    means, stds = [], []
    degenerate = []
    d = len(num_cols)
    cov = np.zeros((0, 0))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for col in num_cols:
            present = col.non_missing()
            if present.size < 2:
                raise InsufficientDataError(
                    f"column {col.name!r} has {present.size} non-missing values; need >= 2"
                )
            means.append(float(np.mean(present)))
            stds.append(float(np.std(present, ddof=1)))
            if stds[-1] == 0.0:
                degenerate.append(col.name)
        means = np.asarray(means)
        stds = np.asarray(stds)
        if d > 0:
            matrix = np.column_stack([c.values for c in num_cols])
            complete = ~np.isnan(matrix).any(axis=1)
            if complete.sum() >= 2:
                cov = np.atleast_2d(np.cov(matrix[complete], rowvar=False))
            else:
                cov = _pairwise_covariance(matrix)
            cov = 0.5 * (cov + cov.T)
    # a covariance entry is bounded by the variances of its two columns
    finite = np.isfinite(means) & np.isfinite(stds) & np.isfinite(np.diagonal(cov))
    if not finite.all():
        raise DomainError(
            f"column {num_cols[int(np.argmin(finite))].name!r} spreads beyond "
            "float's range: its standard deviation cannot be computed"
        )
    if d > 0:
        min_eig = float(np.linalg.eigvalsh(cov).min())
        shift = 1e-8 * float(np.trace(cov)) / d + max(0.0, -min_eig)
        cov = cov + shift * np.eye(d)

    frequencies = {}
    for col in cat_cols:
        labels, counts = col.label_counts()
        if labels.size == 0:
            raise InsufficientDataError(
                f"categorical column {col.name!r} is entirely missing"
            )
        frequencies[col.name] = (labels, counts / counts.sum())

    return FittedGenerator(
        schema=tuple((c.name, c.kind) for c in train.columns),
        numerical_names=tuple(c.name for c in num_cols),
        means=means,
        stds=stds,
        covariance=cov,
        categorical_names=tuple(c.name for c in cat_cols),
        frequencies=frequencies,
        degenerate_columns=tuple(degenerate),
    )


def upsample(train: TabularFrame, target_rows: int, seed: int = 0) -> TabularFrame:
    """Resample rows with replacement until `target_rows`; no-op if already there."""
    if train.row_count == 0:
        raise EmptyInputError("cannot upsample an empty frame")
    target_rows = check(target_rows, "an integer", ">= 1", what="target_rows")
    n = train.row_count
    if n >= target_rows:
        return train
    rng = child_rng(seed, n, target_rows)
    extras = rng.integers(0, n, size=target_rows - n)
    return train.take(np.concatenate([np.arange(n), extras]))


# Cephes' ndtri coefficients, as scipy.special.ndtri uses them: P0/Q0 for
# exp(-2) < q <= 1 - exp(-2), P1/Q1 on z = 1/sqrt(-2 log q) for
# exp(-32) < q <= exp(-2). Q0 and Q1 start with the leading 1 that Cephes'
# p1evl leaves out; 1.0 * x is x, so polevl gives p1evl's bits.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242e0
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def _polevl(x, coeffs):
    """Cephes' polevl: the polynomial with `coeffs`, highest power first."""
    total = coeffs[0]
    for c in coeffs[1:]:
        total = total * x + c
    return total


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's log of each element, as scipy.special's C code takes
    it; np.log's own vectorized log rounds some values differently."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _ndtri(q: np.ndarray) -> np.ndarray:
    """scipy.special.ndtri(q), bit for bit, for 1-d `q` in
    (exp(-32), 1 - exp(-2)]. The normal tail draws only reach
    [1e-12 * sf(1), sf(1)), about [1.6e-13, 0.159), so Cephes' branches for
    q beyond 1 - exp(-2) and q <= exp(-32) are left out."""
    out = np.empty_like(q)
    mid = q > _EXP_M2
    y = q[mid] - 0.5
    y2 = y * y
    out[mid] = (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = np.sqrt(-2.0 * _log(q[~mid]))
    z = 1.0 / x
    out[~mid] = -(x - _log(x) / x - z * _polevl(z, _P1) / _polevl(z, _Q1))
    return out


def _levy_isf(q):
    from scipy.special import erfinv  # loaded by Levy draws only

    return 1 / (2 * erfinv(q) ** 2)


#: Each family's standard-form tail mass beyond 1 and inverse survival
#: function, so that a tail draw has the bits a draw from scipy.stats' norm,
#: laplace, gumbel_r, weibull_min or levy has: each mass is that
#: distribution's sf(1.0) (a test pins it), and each isf its `_isf`
#: expression, norm's with `_ndtri` for scipy.special's ndtri. Laplace's keeps
#: only its branch for q <= 1/2, as q stays below its mass. At weibull_min's
#: c = 1 its powers `** 1` are exact, and the frozen wrapper only adds
#: `* 1 + 0`, which changes no finite nonzero value.
_TAILS = {
    "normal": (0.15865525393145707, lambda q: -_ndtri(q)),
    "laplace": (0.18393972058572117, lambda q: -np.log(2 * q)),
    "gumbel": (0.30779937244465366, lambda q: -np.log(-np.log1p(-q))),
    "weibull": (0.36787944117144233, lambda q: -np.log(q)),
    "levy": (0.6826894921370859, _levy_isf),
}


def _tail_magnitudes(family: str, rng, size: int) -> np.ndarray:
    """Standardized draws s >= 1 from the family conditioned on its tail."""
    mass, isf = _TAILS[family]
    # u bounded away from 0 so heavy-tailed inverse survival stays finite
    u = rng.uniform(1e-12, 1.0, size=size)
    return isf(u * mass)


def generate(gen: FittedGenerator, spec: OutlierSpec) -> SyntheticBatch:
    """Draw `spec.total_rows` synthetic rows with an exact outlier share.

    Body rows follow the fitted multivariate normal; each tail row exceeds
    `tail_sigma` fitted standard deviations on at least one numerical
    coordinate before any post-processing. Rows are shuffled; everything is
    deterministic under `spec.seed`. Raises DomainError when `tail_sigma`
    pushes a tail value beyond float's range, or a column's standard
    deviation over the batch, by which a model scales it, beyond it.
    """
    n_tail = spec.outlier_count
    n_body = spec.total_rows - n_tail
    d = len(gen.numerical_names)
    usable = [
        i for i, name in enumerate(gen.numerical_names)
        if name not in gen.degenerate_columns
    ]
    if spec.outlier_fraction > 0 and not usable:
        raise DegenerateMarginalsError(
            "tail injection needs at least one numerical column with spread"
        )

    # a row count no array can address raises MemoryError here, as a merely
    # too large one does in numpy, rather than numpy's ValueError
    if spec.total_rows > np.iinfo(np.intp).max // (8 * max(d, 1)):
        raise MemoryError(f"cannot hold {spec.total_rows} synthetic rows")

    rng = child_rng(spec.seed)
    factor = gen.cholesky_factor() if d else np.zeros((0, 0))

    def correlated(n):
        if d == 0:
            return np.zeros((n, 0))
        z = rng.standard_normal((n, d))
        return gen.means + z @ factor.T

    body = correlated(n_body)
    tails = correlated(n_tail)

    if n_tail:
        safe_stds = np.where(gen.stds > 0, gen.stds, np.inf)
        zscores = (tails - gen.means) / safe_stds
        pick = np.argmax(np.abs(zscores), axis=1)
        magnitudes = _tail_magnitudes(spec.family, rng, n_tail)
        if spec.family in _SYMMETRIC:
            signs = np.where(zscores[np.arange(n_tail), pick] < 0, -1.0, 1.0)
        elif spec.family in _REFLECTED:
            signs = np.where(rng.random(n_tail) < 0.5, -1.0, 1.0)
        else:  # levy: heavy-tail side only
            signs = np.ones(n_tail)
        with np.errstate(over="ignore"):  # an overflow is refused below
            pushed = gen.means[pick] + signs * spec.tail_sigma * gen.stds[pick] * magnitudes
        if not np.isfinite(pushed).all():
            raise DomainError(
                f"tail_sigma {spec.tail_sigma!r} pushes tail values beyond float's range"
            )
        tails[np.arange(n_tail), pick] = pushed

    numeric = np.vstack([body, tails]) if d else np.zeros((spec.total_rows, 0))
    if n_tail:
        # a model scales each column by its standard deviation, whose
        # squares overflow once values pass about 1e154
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.std(numeric, axis=0))
        if not finite.all():
            name = gen.numerical_names[int(np.argmin(finite))]
            raise DomainError(
                f"tail_sigma {spec.tail_sigma!r} pushes column {name!r} beyond "
                "the spread a model can scale"
            )
    # the label positions rng.choice(labels, ...) would draw, as codes
    categorical = {
        name: rng.choice(len(labels), size=spec.total_rows, p=probs)
        for name, (labels, probs) in (
            (n, gen.frequencies[n]) for n in gen.categorical_names
        )
    }
    mask = np.arange(spec.total_rows) >= n_body

    perm = rng.permutation(spec.total_rows)
    numeric = numeric[perm]
    mask = mask[perm]
    for name in categorical:
        categorical[name] = categorical[name][perm]

    num_index = {name: j for j, name in enumerate(gen.numerical_names)}
    columns = []
    for name, kind in gen.schema:
        if kind is ColumnKind.NUMERICAL:
            columns.append(Column(name, kind, numeric[:, num_index[name]].copy()))
        else:
            # the labels are sorted and distinct; .tolist() makes them Python str
            labels = tuple(gen.frequencies[name][0].tolist())
            columns.append(Column.from_codes(name, categorical[name], labels))
    return SyntheticBatch(
        frame=TabularFrame(columns),
        outlier_mask=mask,
        marginals=gen.marginals(),
    )


def postprocess(batch: SyntheticBatch, spec: OutlierSpec) -> SyntheticBatch:
    """Enforce nonnegativity constraints on the listed columns.

    Negative tail values are reflected about the fitted marginal mean (the
    distance from the mean is preserved, the side flips); negative body
    values are clamped to zero. Masks and counts are untouched.
    """
    for name in spec.nonneg_columns:
        if name not in batch.frame:
            raise ConfigError(f"nonneg column {name!r} not in the synthetic frame")
        if batch.frame.kind_of(name) is not ColumnKind.NUMERICAL:
            raise ConfigError(f"nonneg column {name!r} is not numerical")

    tail_rows = batch.outlier_mask
    columns = []
    for col in batch.frame.columns:
        if col.name not in spec.nonneg_columns:
            columns.append(col)
            continue
        mean = batch.marginals[col.name][0]
        values = col.values.copy()
        negative = values < 0
        reflect = negative & tail_rows
        clamp = negative & ~tail_rows
        values[reflect] = np.maximum(mean + np.abs(values[reflect] - mean), 0.0)
        values[clamp] = 0.0
        columns.append(Column(col.name, col.kind, values))
    return replace(batch, frame=TabularFrame(columns))


def synthetic_rows(n_real: int, real_fraction: float) -> int:
    """round(n_real * (1 - f) / f): the synthetic rows that make `n_real`
    real rows a share f of a mix. A count that is not finite (a subnormal
    f, say) raises MemoryError, as `generate` does for one no array holds."""
    count = n_real * (1.0 - real_fraction) / real_fraction
    if not math.isfinite(count):
        raise MemoryError(f"cannot hold {count} synthetic rows")
    return round(count)


def mix(
    real: TabularFrame,
    synthetic: SyntheticBatch,
    real_fraction: float = 0.5,
    seed: int = 0,
) -> TabularFrame:
    """Blend all real rows with synthetic ones at the requested real share.

    The synthetic rows are the first `synthetic_rows(n_real, f)` rows of the
    (already seeded-shuffled) batch, a count that raises MemoryError when it
    is not finite; the combined frame is then shuffled under `seed`.
    """
    real_fraction = check(real_fraction, "a number", "in (0, 1)", what="real_fraction")
    synth_frame = synthetic.frame
    n_real = real.row_count
    needed = synthetic_rows(n_real, real_fraction)
    if synth_frame.row_count < needed:
        raise InsufficientSyntheticError(needed, synth_frame.row_count)

    # concat_frames checks the columns and keeps the real frame's order
    combined = concat_frames(real, synth_frame.take(np.arange(needed)))
    rng = child_rng(seed, n_real, needed)
    return combined.take(rng.permutation(combined.row_count))
