"""Falsification battery: balance/placebo tests, shift dependence measures,
and share concentration metrics.

Unit-level balance tests regress a predetermined unit variable on the
shift-share variable; shift-level tests regress residualized shifts on a
shift-level placebo, weighted by aggregate shares. Dependence among shifts
is summarized by pooled autocorrelations and one-way ANOVA intra-class
correlations with a group bootstrap. Concentration metrics report how far
the largest (cluster) share is from negligibility and the inverse
Herfindahl index as the effective number of independent shifts.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .construct import ShiftResiduals
from .data import Dataset, ShareMatrix, ShiftTable, _label_codes, _unit_weights
from .errors import ShiftShareWarning, ValidationError
from .estimate import (
    _cluster_codes,
    _partialled_iv,
    _robust_se,
    residualized_se,
    shiftshare_2sls,
)

DEFAULT_BOOTSTRAP_DRAWS = 1000


@dataclass(frozen=True)
class BalanceResult:
    """Placebo regression coefficient with its standard error."""

    coefficient: float
    se: float
    n: int
    p_value: float
    se_mode: str
    degenerate: bool = False


def _normal_p(coefficient: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if coefficient != 0.0 else 1.0
    return math.erfc(abs(coefficient / se) / math.sqrt(2.0))


def balance_test_unit(
    placebo: np.ndarray,
    variable: np.ndarray,
    controls: np.ndarray | None = None,
    unit_weights: np.ndarray | None = None,
    cluster=None,
    shares: ShareMatrix | None = None,
    eta_hat: np.ndarray | None = None,
    se_mode: str = "exposure",
) -> BalanceResult:
    """Regress a predetermined unit variable on the shift-share variable.

    Whether the placebo genuinely predates the shocks is the caller's
    responsibility. The regression is a plain weighted one. With
    ``se_mode="exposure"`` (default) the standard error is the
    residualized-shift exposure-robust estimator, which needs ``shares`` and
    ``eta_hat`` (clustered over shifts when ``cluster`` labels for shifts
    are supplied; fewer than two clusters raise ``EstimationError``).
    ``se_mode="conventional"`` uses the unit-level robust or
    cluster-robust sandwich instead, with ``cluster`` then interpreted as
    unit labels.
    """
    t = np.asarray(placebo, dtype=float)
    v = np.asarray(variable, dtype=float)
    n = t.shape[0]
    if v.shape != (n,):
        raise ValidationError("placebo and variable must be aligned")
    _unit_weights(unit_weights, n)  # the check alone: reports keep the division below
    e = np.full(n, 1.0 / n) if unit_weights is None else np.asarray(unit_weights, dtype=float)
    e = e / e.sum()
    if np.ptp(t) == 0.0:
        return BalanceResult(0.0, 0.0, n, 1.0, se_mode, degenerate=True)

    ds = Dataset(outcome=t, unit_ids=tuple(str(i) for i in range(n)),
                 regressor=v, controls=controls, unit_weights=e)
    unit_cluster = cluster if se_mode == "conventional" else None
    rep = shiftshare_2sls(ds, v, cluster=unit_cluster)
    coefficient = rep.beta_hat

    if se_mode == "exposure":
        if shares is None or eta_hat is None:
            raise ValidationError("exposure-robust balance test needs shares and eta_hat")
        se = residualized_se(e, shares, eta_hat, rep.residuals, rep.x_perp, clusters=cluster)
    elif se_mode == "conventional":
        key = "conventional_cluster" if unit_cluster is not None else "conventional_hc"
        se = rep.se_variants[key]
    else:
        raise ValidationError(f"unknown se_mode {se_mode!r}")
    return BalanceResult(float(coefficient), se, n, _normal_p(float(coefficient), se), se_mode)


def aggregate_placebo(
    placebo: np.ndarray, shares: ShareMatrix, unit_weights: np.ndarray | None = None
) -> np.ndarray:
    """Aggregate a unit-level placebo to shift level with weights ``e_i w_ij / w_j``."""
    t = np.asarray(placebo, dtype=float)
    n = shares.n_units
    if t.shape != (n,):
        raise ValidationError("placebo must have one value per unit")
    e = _unit_weights(unit_weights, n)
    w_j = shares.aggregate(e)
    safe = np.where(w_j > 0, w_j, 1.0)
    return np.where(w_j > 0, shares.aggregate(e * t) / safe, 0.0)


def balance_test_shift(
    placebo: np.ndarray,
    eta_hat: np.ndarray,
    shift_weights: np.ndarray,
    cluster=None,
) -> BalanceResult:
    """Weighted regression of residualized shifts on a shift-level placebo.

    The regression is weighted by aggregate shares; the standard error is
    the shift-level sandwich, clustered by the given labels when present;
    fewer than two clusters raise ``EstimationError``.
    """
    t = np.asarray(placebo, dtype=float)
    eta = np.asarray(eta_hat, dtype=float)
    w = np.asarray(shift_weights, dtype=float)
    m = eta.shape[0]
    if t.shape != (m,) or w.shape != (m,):
        raise ValidationError("placebo, eta and weights must be aligned")
    if np.ptp(t) == 0.0:
        return BalanceResult(0.0, 0.0, m, 1.0, "exposure", degenerate=True)
    # the placebo instruments itself, with an intercept as the only control
    beta, _, resid, t_perp, _, denom = _partialled_iv(np.ones((m, 1)), ("intercept",), t, t, eta, w)
    codes = np.arange(m) if cluster is None else _cluster_codes(cluster, m, "shift")
    se = _robust_se(w * t_perp * resid, codes, denom)
    return BalanceResult(beta, se, m, _normal_p(beta, se), "exposure")


# ---------------------------------------------------------------------------
# dependence among shifts


@dataclass(frozen=True)
class AutocorrelationResult:
    lag: int
    correlation: float
    p_value: float
    n_pairs: int


_TRAILING_NUMBER = re.compile(r"-?\d+(\.\d+)?$")


def _numeric_period(label: str) -> float:
    try:
        value = float(label)
    except ValueError:
        match = _TRAILING_NUMBER.search(str(label))
        value = float(match.group()) if match else math.nan
    if not math.isfinite(value):  # a NaN period pairs with nothing, not even itself
        raise ValidationError(f"period label {label!r} is not a finite number")
    return value


def autocorrelation(
    values: np.ndarray,
    series: np.ndarray,
    periods: np.ndarray,
    lag: int = 1,
) -> AutocorrelationResult:
    """Pooled correlation between shifts ``lag`` periods apart within each series.

    Pairs ``(D_{j,t}, D_{j,t-lag})`` are pooled over series ``j``; the
    p-value is the two-sided t test of the Pearson correlation. Each period
    label is read as a finite number, or by its trailing number (``t3``, ``2019q3``);
    two shifts of one series at one numeric period raise ``ValidationError``.
    """
    if lag < 1:
        raise ValidationError("lag must be a positive integer")
    values = np.asarray(values, dtype=float)
    series = np.asarray(series, dtype=object).astype(str)
    labels = np.asarray(periods, dtype=object)
    numeric = np.array([_numeric_period(p) for p in labels])
    if not (values.shape == series.shape == numeric.shape):
        raise ValidationError("values, series, and periods must be aligned")
    lookup: dict[tuple, tuple[float, object]] = {}
    for key, label, v in zip(zip(series, numeric), labels, values):
        if key in lookup:  # a later shift would silently replace the earlier one
            raise ValidationError(f"series {str(key[0])!r} has two shifts at one period: "
                                  f"{str(lookup[key][1])!r} and {str(label)!r}")
        lookup[key] = v, label
    current, lagged = [], []
    for (s, t), (v, _) in lookup.items():
        prior = lookup.get((s, t - lag))
        if prior is not None:
            current.append(v)
            lagged.append(prior[0])
    n_pairs = len(current)
    if n_pairs < 3:
        raise ValidationError(f"only {n_pairs} overlapping pairs at lag {lag}; need at least 3")
    cur = np.array(current)
    lag_v = np.array(lagged)
    if np.ptp(cur) == 0.0 or np.ptp(lag_v) == 0.0:
        raise ValidationError("no variation in paired shifts; correlation undefined")
    r = float(np.corrcoef(cur, lag_v)[0, 1])
    if abs(r) >= 1.0:
        p = 0.0
    else:
        # the only scipy import in the package, here so that no other command pays for it
        import scipy.special

        stat = r * np.sqrt((n_pairs - 2) / (1.0 - r * r))
        p = float(2.0 * scipy.special.stdtr(n_pairs - 2, -abs(stat)))
    return AutocorrelationResult(lag=lag, correlation=r, p_value=p, n_pairs=n_pairs)


@dataclass(frozen=True)
class IccResult:
    icc: float
    se: float
    n_groups: int
    n_obs: int
    ci_lower: float
    ci_upper: float
    clamped: bool = False


def _anova_icc(values: np.ndarray, codes: np.ndarray, n_groups: int) -> float:
    n = values.shape[0]
    grand = values.mean()
    counts = np.bincount(codes, minlength=n_groups).astype(float)
    sums = np.bincount(codes, weights=values, minlength=n_groups)
    means = np.where(counts > 0, sums / np.where(counts > 0, counts, 1.0), 0.0)
    ssb = float(np.sum(counts * (means - grand) ** 2))
    ssw = float(np.sum((values - means[codes]) ** 2))
    g = int(np.count_nonzero(counts))
    if g < 2 or n <= g:
        return float("nan")
    msb = ssb / (g - 1)
    msw = ssw / (n - g)
    kbar = n / g
    denom = msb + (kbar - 1.0) * msw
    if denom == 0.0:
        return 0.0
    return (msb - msw) / denom


def icc(
    values: np.ndarray,
    groups: np.ndarray,
    bootstrap_draws: int = DEFAULT_BOOTSTRAP_DRAWS,
    seed: int = 0,
) -> IccResult:
    """One-way ANOVA intra-class correlation with a nonparametric group bootstrap.

    The bootstrap resamples whole groups with replacement; the reported
    standard error is the 95% percentile interval length divided by
    ``2 * 1.96``. Estimates below the ANOVA lower bound ``-1/(kbar - 1)``
    are clamped and flagged.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != np.shape(groups):
        raise ValidationError("values and group labels must be aligned")
    levels, codes = _label_codes(groups)
    n_groups = levels.shape[0]
    sizes = np.bincount(codes)
    if n_groups < 2 or np.count_nonzero(sizes >= 2) < 2:
        raise ValidationError("ICC needs at least 2 groups with at least 2 members")
    point = _anova_icc(values, codes, n_groups)
    kbar = values.shape[0] / n_groups
    lower_bound = -1.0 / (kbar - 1.0) if kbar > 1 else -1.0
    clamped = False
    if point < lower_bound:
        point = lower_bound
        clamped = True
        warnings.warn(
            f"ICC estimate below its ANOVA lower bound {lower_bound:.3f}; clamped",
            ShiftShareWarning,
            stacklevel=2,
        )

    by_group = [values[codes == g] for g in range(n_groups)]
    rng = np.random.Generator(np.random.Philox(key=seed))
    picks = rng.integers(0, n_groups, size=(bootstrap_draws, n_groups))
    stats = np.empty(bootstrap_draws)
    for b in range(bootstrap_draws):
        chunks = [by_group[g] for g in picks[b]]
        vals = np.concatenate(chunks)
        new_codes = np.repeat(np.arange(n_groups), [c.shape[0] for c in chunks])
        stats[b] = _anova_icc(vals, new_codes, n_groups)
    stats = stats[np.isfinite(stats)]
    if stats.size == 0:
        raise ValidationError("all bootstrap resamples were degenerate")
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return IccResult(
        icc=float(point),
        se=float((hi - lo) / (2.0 * 1.96)),
        n_groups=n_groups,
        n_obs=values.shape[0],
        ci_lower=float(lo),
        ci_upper=float(hi),
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# concentration


@dataclass(frozen=True)
class ConcentrationReport:
    """Negligibility metrics of (cluster-aggregated) shift shares."""

    max_share_ratio: float
    max_share_sq_ratio: float
    inverse_hhi: float
    cluster_level: bool
    n: int


def concentration(shift_weights: np.ndarray, clusters=None) -> ConcentrationReport:
    """Largest-share ratios and the inverse Herfindahl index of shift weights.

    With cluster labels, weights are summed within clusters first; the
    inverse HHI is then bounded by the number of clusters, with equality
    under equal weights, and measures the effective sample size of the
    inverted regression.
    """
    w = np.asarray(shift_weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("shift weights must be a nonempty vector")
    if np.any(w < 0):
        raise ValidationError("shift weights must be nonnegative")
    cluster_level = clusters is not None
    if cluster_level:
        if np.shape(clusters) != w.shape:
            raise ValidationError("cluster labels misaligned with weights")
        w = np.bincount(_label_codes(clusters)[1], weights=w)
    total = w.sum()
    total_sq = float(np.sum(w**2))
    if total <= 0.0:
        raise ValidationError("all shift weights are zero")
    return ConcentrationReport(
        max_share_ratio=float(w.max() / total),
        max_share_sq_ratio=float((w**2).max() / total_sq),
        inverse_hhi=float(total**2 / total_sq),
        cluster_level=cluster_level,
        n=int(w.size),
    )


# ---------------------------------------------------------------------------
# composite summary


@dataclass(frozen=True)
class ShiftSummary:
    """Weighted moments plus dependence diagnostics for one shift series."""

    weighted_mean: float
    weighted_sd: float
    sse_ratio: float
    autocorrelations: dict[int, AutocorrelationResult] = field(default_factory=dict)

    def to_dict(self) -> dict:
        # "icc" stays in schema v1, always empty: ``diagnose --icc`` reports its own block
        return {
            "weighted_mean": self.weighted_mean,
            "weighted_sd": self.weighted_sd,
            "sse_ratio": self.sse_ratio,
            "autocorrelations": {
                str(lag): {"correlation": a.correlation, "p_value": a.p_value, "n_pairs": a.n_pairs}
                for lag, a in self.autocorrelations.items()
            },
            "icc": {},
        }


def _series_labels(shifts: ShiftTable) -> np.ndarray:
    # long-form shift ids carry the base identity before the "@period" suffix
    return np.array([sid.rsplit("@", 1)[0] for sid in shifts.shift_ids], dtype=object)


def shift_summary(
    shifts: ShiftTable,
    shift_weights: np.ndarray,
    residuals: ShiftResiduals | None = None,
    lags: tuple[int, ...] = (1, 2),
) -> ShiftSummary:
    """Summary statistics of (optionally residualized) shifts.

    Mean and standard deviation are weighted by aggregate shares. With
    ``residuals`` the summarized values are the residualized shifts and
    ``sse_ratio`` is taken from the residualization; otherwise raw values
    are summarized and the ratio is 1. Autocorrelations need period labels
    on the shift table; a shift's series is the part of its id before the
    ``@period`` suffix, and shifts where no series holds two raise
    ``ValidationError``.
    """
    w = np.asarray(shift_weights, dtype=float)
    values = residuals.eta_hat if residuals is not None else shifts.values
    if w.shape != values.shape:
        raise ValidationError("weights misaligned with shifts")
    total = w.sum()
    if total <= 0:
        raise ValidationError("shift weights must not all be zero")
    mean = float(np.sum(w * values) / total)
    sd = float(np.sqrt(np.sum(w * (values - mean) ** 2) / total))
    autocorr: dict[int, AutocorrelationResult] = {}
    if lags and shifts.period is not None:
        series = _series_labels(shifts)
        if np.unique(series).size == series.size:
            raise ValidationError("no series holds two shifts; shift ids name their series "
                                  "as <series>@<period>")
        for lag in lags:
            autocorr[lag] = autocorrelation(values, series, shifts.period, lag)
    return ShiftSummary(
        weighted_mean=mean,
        weighted_sd=sd,
        sse_ratio=residuals.sse_ratio if residuals is not None else 1.0,
        autocorrelations=autocorr,
    )
