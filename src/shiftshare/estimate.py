"""Shift-share estimation and the standard-error menu.

Every coefficient is one just-identified weighted IV with controls, so point
estimates come from one partialled solve (``_partialled_iv``): a single
weighted regression of instrument, regressor and outcome on the controls,
then the ratio of two cross-moments (Frisch-Waugh-Lovell). Every standard
error is one score-sum formula (``_robust_se``): the root of the summed
squared per-cluster score sums over the absolute cross-moment. OLS runs the
same code path with the regressor as its own instrument, so the
self-instrumenting identity (instrumenting the regressor with itself
reproduces weighted OLS) holds exactly. On top of that sit:

* conventional cluster-robust covariance at a user-supplied unit clustering,
  with the standard small-cluster factor;
* the shift-level inverted regression -- unit-level variables are first
  residualized on the unit controls, then aggregated to shift level with
  weights ``e_i w_ij / w_j`` -- whose heteroskedasticity- or cluster-robust
  sandwich gives exposure-robust standard errors;
* the residualized-shift standard errors evaluated directly from the unit
  data, plus the effective first-stage F of the inverted regression;
* the decomposition of the estimate into per-share just-identified
  estimates with their Rotemberg weights, and the share-moment GMM
  equivalence with shift-proportional weights.

Exposure-robust and residualized standard errors are uncorrected asymptotic
forms; only the conventional cluster estimator carries a degrees-of-freedom
correction.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._wls import wls_coefficients, wls_residualize
from .construct import (
    COMPLEMENT_ID,
    REAL_SHIFT_COVARIATE,
    ShiftResiduals,
    _label_terms,
    build_exposure,
    complete_shares,
    residualize_shifts,
    shift_weights_from,
)
from .data import Dataset, ShareMatrix, ShiftTable, _columns, _label_codes
from .errors import EstimationError, ShiftShareWarning, ValidationError

WEAK_FIRST_STAGE_TOL = 1e-12
ROTEMBERG_TOP = 10  # shifts listed in the Rotemberg report, by largest |alpha|
DOMINANT_SHARE_RATIO = 0.10
DOMINANT_SHARE_SQ_RATIO = 0.25


@dataclass
class EstimateReport:
    """Point estimate with whichever standard-error variants were computed.

    ``se_variants`` keys follow the fixed vocabulary ``conventional_hc``,
    ``conventional_cluster``, ``hc_exposure_robust``,
    ``cluster_exposure_robust``, ``residualized``, ``residualized_cluster``.
    """

    beta_hat: float
    gamma_hat: np.ndarray
    gamma_names: tuple[str, ...]
    se_variants: dict[str, float]
    first_stage_f: dict[str, float]
    residuals: np.ndarray
    x_perp: np.ndarray
    n_units: int | None = None
    m_shifts: int | None = None
    n_clusters: int | None = None

    def to_dict(self) -> dict:
        return {
            "beta_hat": self.beta_hat,
            "gamma_hat": {n: float(g) for n, g in zip(self.gamma_names, self.gamma_hat)},
            "se": dict(self.se_variants),
            "first_stage_f": dict(self.first_stage_f),
            "n_units": self.n_units,
            "m_shifts": self.m_shifts,
            "n_clusters": self.n_clusters,
        }


def _outside() -> int:
    """The ``stacklevel`` of a warning raised here that points at the first frame outside
    this module: at the code that called the estimator, whichever path led to the warning."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def _cluster_codes(labels, size: int, what: str) -> np.ndarray:
    """Each observation's index into its sorted cluster labels: the only codes a clustered
    ``_robust_se`` takes. ``labels`` need one entry per ``what`` ("unit" or "shift") and
    at least two clusters: one cluster's score sum is the estimating equation itself, zero
    up to round-off."""
    if np.shape(labels) != (size,):
        raise ValidationError(f"cluster labels must have one entry per {what}")
    return _two_clusters(_label_codes(labels)[1], what)


def _two_clusters(codes: np.ndarray, what: str) -> np.ndarray:
    """Cluster ``codes`` of ``_cluster_codes``, which must number at least two clusters."""
    if codes.max(initial=0) < 1:
        clusters = "clusters" if what == "unit" else f"{what} clusters"
        raise EstimationError(f"clustered standard errors need at least 2 {clusters}")
    return codes


def _robust_se(scores: np.ndarray, codes: np.ndarray, denom: float,
               correction: float = 1.0) -> float:
    """Cluster-robust SE ``sqrt(correction * sum_g (sum_{i in g} s_i)^2) / |denom|``.

    The cluster sums are divided by a power of two before squaring, which is
    exact and keeps scores of any finite scale from overflowing. The sorted
    reduction makes singleton clusters reproduce the unclustered value bit
    for bit, whatever the label order.
    """
    sums = np.bincount(codes, weights=scores)
    scale = 2.0 ** math.frexp(float(np.max(np.abs(sums), initial=0.0)))[1]
    total = float(np.sum(np.sort((sums / scale) ** 2)))
    return math.sqrt(correction * total) * scale / abs(denom)


def _cancels(denom: float, terms: np.ndarray) -> bool:
    """Whether ``denom`` is at most ``WEAK_FIRST_STAGE_TOL`` times the absolute sum
    of ``terms``, a sum like it without cancellation, so the first-stage test
    holds at any scale; all-zero ``terms``, as of an all-zero instrument, cancel."""
    return abs(denom) <= WEAK_FIRST_STAGE_TOL * float(np.sum(np.abs(terms)))


def _partialled_iv(controls: np.ndarray, names: tuple[str, ...], z: np.ndarray,
                   x: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """Just-identified weighted IV of ``y`` on ``x`` and the controls, instrumented
    by ``z`` and the controls, by partialling out (Frisch-Waugh-Lovell).

    One weighted regression of ``[z, x, y]`` on the controls gives the
    residualized columns and the controls' coefficients ``B``; then
    ``beta = sum w z_perp y_perp / sum w z_perp x_perp`` and
    ``gamma = B_y - beta B_x``. Returns ``(beta, gamma, residuals, z_perp,
    x_perp, denom)`` with ``denom = sum w z_perp x_perp``; the scores of
    ``beta`` are ``w z_perp residuals / denom``. The first stage counts as weak
    when ``|denom|`` is below ``WEAK_FIRST_STAGE_TOL`` times ``sum w |z x|``.
    """
    stacked = np.column_stack([z, x, y])
    coef = wls_coefficients(controls, stacked, weights, names)
    z_perp, x_perp, y_perp = (stacked - controls @ coef).T
    denom = float(np.sum(weights * z_perp * x_perp))
    if _cancels(denom, weights * z * x):
        raise EstimationError(f"weak or zero first stage: |cov(Z, X-perp)| = {abs(denom):.3e}")
    beta = float(np.sum(weights * z_perp * y_perp)) / denom
    return beta, coef[:, 2] - beta * coef[:, 1], y_perp - beta * x_perp, z_perp, x_perp, denom


def _conventional_f(z_perp: np.ndarray, x_perp: np.ndarray, weights: np.ndarray,
                    codes: np.ndarray, correction: float) -> float:
    """Conventional first-stage F: the squared robust t of the instrument in the
    weighted regression of ``x`` on the instrument and the controls."""
    denom = float(np.sum(weights * z_perp**2))
    pi = float(np.sum(weights * z_perp * x_perp)) / denom
    se = _robust_se(weights * z_perp * (x_perp - pi * z_perp), codes, denom, correction)
    return (pi / se) ** 2 if se > 0 else float("inf")


def _unit_design(dataset: Dataset) -> tuple[np.ndarray, tuple[str, ...]]:
    """The unit controls with an intercept column prepended, and their names."""
    ones = np.ones((dataset.n_units, 1))
    if dataset.controls is None:
        return ones, ("intercept",)
    return np.hstack([ones, dataset.controls]), ("intercept",) + dataset.control_names


def _unit_iv(dataset: Dataset, instrument: np.ndarray, regressor: np.ndarray | None):
    """The checks and the partialled solve of ``shiftshare_2sls``: the ``_partialled_iv``
    tuple on the unit controls with intercept, and the controls' names."""
    z = np.asarray(instrument, dtype=float)
    n = dataset.n_units
    if z.shape != (n,):
        raise ValidationError("instrument must have one value per unit")
    if regressor is None:
        regressor = dataset.regressor
    if regressor is None:
        raise ValidationError("dataset has no endogenous regressor; pass one explicitly")
    x = np.asarray(regressor, dtype=float)
    if x.shape != (n,):
        raise ValidationError("regressor must have one value per unit")
    controls, control_names = _unit_design(dataset)
    fit = _partialled_iv(controls, control_names, z, x, dataset.outcome, dataset.unit_weights)
    return fit, control_names


def _conventional_se(fit, weights: np.ndarray, codes: np.ndarray,
                     k: int) -> tuple[float, float]:
    """The conventional SE of a ``_unit_iv`` fit with ``k`` coefficients at the unit
    cluster ``codes``, and its small-cluster factor ``G/(G-1) * (n-1)/(n-k)``."""
    _, _, resid, z_perp, _, denom = fit
    n, g = codes.size, int(codes.max()) + 1
    correction = (g / (g - 1)) * ((n - 1) / (n - k)) if g > 1 and n > k else 1.0
    return _robust_se(weights * z_perp * resid, codes, denom, correction), correction


def shiftshare_2sls(
    dataset: Dataset,
    instrument: np.ndarray,
    cluster=None,
    regressor: np.ndarray | None = None,
) -> EstimateReport:
    """Just-identified weighted 2SLS of the outcome on the endogenous regressor.

    ``instrument`` is the shift-share instrument per unit. The regressor
    defaults to ``dataset.regressor``. Conventional (cluster-)robust standard
    errors use the small-cluster factor ``G/(G-1) * (n-1)/(n-k)``; without
    cluster labels each unit is its own cluster, which reduces the factor to
    ``n/(n-k)``.
    """
    fit, control_names = _unit_iv(dataset, instrument, regressor)
    beta, gamma, resid, z_perp, x_perp, _ = fit
    n, e = dataset.n_units, dataset.unit_weights
    labels = dataset.extra_column(cluster) if isinstance(cluster, str) else cluster
    codes = np.arange(n) if labels is None else _cluster_codes(labels, n, "unit")
    se, correction = _conventional_se(fit, e, codes, 1 + len(control_names))
    fs_f = _conventional_f(z_perp, x_perp, e, codes, correction)

    return EstimateReport(
        beta_hat=beta,
        gamma_hat=gamma,
        gamma_names=control_names,
        se_variants={"conventional_hc" if labels is None else "conventional_cluster": se},
        first_stage_f={"conventional": fs_f},
        residuals=resid,
        x_perp=x_perp,
        n_units=n,
        n_clusters=None if labels is None else int(codes.max()) + 1,
    )


def shiftshare_ols(dataset: Dataset, exposure: np.ndarray, cluster=None) -> EstimateReport:
    """Weighted OLS of the outcome on the shift-share exposure and controls.

    Runs as 2SLS with the exposure instrumenting itself, which takes the same
    partialled solve with the same inputs.
    """
    exposure = np.asarray(exposure, dtype=float)
    report = shiftshare_2sls(dataset, exposure, cluster=cluster, regressor=exposure)
    report.first_stage_f = {}
    return report


# ---------------------------------------------------------------------------
# Rotemberg decomposition and share-moment GMM


@dataclass
class RotembergTable:
    """Per-share weights and just-identified estimates whose weighted average
    reproduces the shift-share estimate."""

    shift_ids: tuple[str, ...]
    alpha_hat: np.ndarray
    beta_j: np.ndarray
    beta_hat: float
    negative_weight_share: float
    top: list[dict] = field(default_factory=list)

    def recombined(self) -> float:
        """Sum of ``alpha_j * beta_j`` over shifts where ``beta_j`` is defined."""
        ok = np.isfinite(self.beta_j)
        return float(np.sum(self.alpha_hat[ok] * self.beta_j[ok]))

    def to_dict(self) -> dict:
        return {
            "beta_hat": self.beta_hat,
            "negative_weight_share": self.negative_weight_share,
            "alpha_sum": float(self.alpha_hat.sum()),
            "top": self.top,
        }


def _endogenous(dataset: Dataset, shares: ShareMatrix, shifts: ShiftTable) -> np.ndarray:
    if dataset.regressor is not None:
        return dataset.regressor
    return build_exposure(shares, shifts)


def _moment_vectors(
    dataset: Dataset,
    shares: ShareMatrix,
    shifts: ShiftTable,
) -> tuple[np.ndarray, np.ndarray]:
    """Shift-level aggregates ``(e * y) @ W`` and ``(e * x) @ W``, with ``y`` and ``x``
    first residualized on the unit controls (with intercept).

    ``x`` is the dataset's regressor, or the exposure when it has none.
    """
    if shares.n_units != dataset.n_units or shares.n_shifts != shifts.n_shifts:
        raise ValidationError("dataset, shares and shifts are misaligned")
    e = dataset.unit_weights
    y = dataset.outcome
    x = _endogenous(dataset, shares, shifts)
    controls, control_names = _unit_design(dataset)
    y = wls_residualize(controls, y, e, control_names)
    x = wls_residualize(controls, x, e, control_names)
    return shares.aggregate(e * y), shares.aggregate(e * x)


def rotemberg(
    dataset: Dataset,
    shares: ShareMatrix,
    shifts: ShiftTable,
) -> RotembergTable:
    """Decompose the shift-share estimate over the per-share instruments.

    Weights depend only on shifts and the covariance of each share column
    with the residualized regressor; they sum to one. Shares whose column
    has (numerically) zero covariance with the residualized regressor get an
    undefined per-share estimate (NaN) but still receive a weight.
    """
    a, c = _moment_vectors(dataset, shares, shifts)
    d = shifts.values
    denom = float(np.dot(d, c))
    if _cancels(denom, d * c):
        raise EstimationError("shift-share instrument has zero covariance with the regressor")
    alpha = d * c / denom
    tol = WEAK_FIRST_STAGE_TOL * float(np.max(np.abs(c)))
    defined = np.abs(c) > tol
    if not defined.any():
        raise EstimationError("no share column has a usable first stage; all beta_j undefined")
    beta_j = np.full(d.shape, np.nan)
    beta_j[defined] = a[defined] / c[defined]
    abs_alpha = np.abs(alpha)
    total = abs_alpha.sum()
    negative = float(abs_alpha[alpha < 0].sum() / total) if total > 0 else 0.0
    order = np.argsort(-abs_alpha)[:ROTEMBERG_TOP]
    top = [
        {
            "shift_id": shifts.shift_ids[j],
            "alpha": float(alpha[j]),
            "beta_j": (float(beta_j[j]) if np.isfinite(beta_j[j]) else None),
            "shift": float(d[j]),
        }
        for j in order
    ]
    return RotembergTable(
        shift_ids=shifts.shift_ids,
        alpha_hat=alpha,
        beta_j=beta_j,
        beta_hat=float(np.dot(d, a) / denom),
        negative_weight_share=negative,
        top=top,
    )


def gmm_share_instruments(dataset: Dataset, shares: ShareMatrix, shifts: ShiftTable) -> float:
    """GMM over the per-share moment conditions with shift-proportional weights.

    Fixing the moment weights at the shift values collapses the ``m`` share
    moments into the single shift-share moment, so this recovers the
    shift-share estimate (generally with suboptimal efficiency): the ratio
    ``rotemberg`` reports as ``beta_hat``.
    """
    return rotemberg(dataset, shares, shifts).beta_hat


# ---------------------------------------------------------------------------
# inverted (shift-level) regression


@dataclass
class InvertedDataset:
    """Shift-level aggregates of the unit data, one observation per shift.

    Aggregation weights are ``e_i w_ij / w_j``; each observation carries the
    aggregate share ``w_j = sum_i e_i w_ij`` as its regression weight.
    """

    ybar: np.ndarray
    xbar: np.ndarray
    weight: np.ndarray
    instrument: np.ndarray
    shift_values: np.ndarray
    shift_ids: tuple[str, ...]
    cluster: np.ndarray | None
    kept: np.ndarray
    n_units: int

    @property
    def n_shifts(self) -> int:
        return self.ybar.shape[0]


def invert(
    dataset: Dataset,
    shares: ShareMatrix,
    shifts: ShiftTable,
    residuals: ShiftResiduals | None = None,
    incomplete_ok: bool = False,
) -> InvertedDataset:
    """Aggregate the regression to shift level ("turn shifts into observations").

    The instrument is the raw shift value, or the residualized shift when
    ``residuals`` is given. Shares should be completed first (or the
    sum-of-shares control included in the dataset controls and
    ``incomplete_ok`` set). Shifts with zero aggregate weight are dropped
    with a warning. The outcome and regressor are residualized on the unit
    controls (with intercept) first, so the shift-level point estimate
    reproduces the unit-level one; ``diagnose.aggregate_placebo`` aggregates a
    unit variable as it is.
    """
    if not incomplete_ok and not shares.is_complete():
        raise ValidationError(
            "shares are incomplete; run complete_shares first or include the "
            "sum-of-shares control and pass incomplete_ok=True"
        )
    instrument = shifts.values if residuals is None else residuals.eta_hat
    if instrument.shape != (shares.n_shifts,):
        raise ValidationError("instrument values misaligned with share columns")
    return _invert(dataset, shares, shifts, instrument, shift_weights_from(dataset, shares))


def _weighted_shifts(shares: ShareMatrix | None, shifts: ShiftTable, w_j: np.ndarray):
    """``(shares, shifts, w_j, kept)`` of the shifts of positive aggregate weight ``w_j``,
    ``kept`` their mask, with a warning that drops the others. ``_invert`` passes no
    ``shares``: it keeps the shifts after aggregating, as a column subset copies the shares."""
    kept = w_j > 0
    if kept.all():
        return shares, shifts, w_j, kept
    warnings.warn(f"dropping {int((~kept).sum())} shift(s) with zero aggregate weight",
                  ShiftShareWarning, stacklevel=_outside())
    return None if shares is None else shares._kept(kept), shifts._kept(kept), w_j[kept], kept


def _invert(dataset: Dataset, shares: ShareMatrix, shifts: ShiftTable, instrument: np.ndarray,
            w_j: np.ndarray) -> InvertedDataset:
    """``invert`` at the ``instrument`` and the shift weights ``w_j`` that its caller computed
    with ``shift_weights_from``, without the completeness and alignment checks."""
    y_sum, x_sum = _moment_vectors(dataset, shares, shifts)
    _, shifts, w, kept = _weighted_shifts(None, shifts, w_j)
    return InvertedDataset(
        ybar=y_sum[kept] / w,
        xbar=x_sum[kept] / w,
        weight=w,
        instrument=instrument[kept],
        shift_values=shifts.values,
        shift_ids=shifts.shift_ids,
        cluster=shifts.cluster,
        kept=kept,
        n_units=dataset.n_units,
    )


def _negligibility_check(weight: np.ndarray, shift_ids: tuple[str, ...]) -> None:
    # the fictitious complement share is excluded from the negligibility
    # conditions, so it must not trigger the dominance warning
    if COMPLEMENT_ID in shift_ids:
        weight = weight[np.array([sid != COMPLEMENT_ID for sid in shift_ids])]
    if weight.size == 0:
        return
    total = weight.sum()
    total_sq = float((weight**2).sum())
    if total <= 0 or total_sq <= 0:
        return
    ratio = float(weight.max() / total)
    ratio_sq = float((weight**2).max() / total_sq)
    if ratio > DOMINANT_SHARE_RATIO or ratio_sq > DOMINANT_SHARE_SQ_RATIO:
        warnings.warn(
            f"a single shift carries {ratio:.0%} of aggregate shares "
            f"({ratio_sq:.0%} of squared shares); exposure-robust asymptotics "
            "assume no shift dominates",
            ShiftShareWarning,
            stacklevel=_outside(),
        )


def _inverted_iv(inverted: InvertedDataset, shift_controls: np.ndarray | None,
                 codes: np.ndarray | None) -> tuple[EstimateReport, np.ndarray]:
    """The fit of ``estimate_inverted`` without the dominance warning and the first-stage
    F statistics, clustered at the kept shifts' cluster ``codes`` (``_label_codes``) where
    given: its report, whose ``first_stage_f`` is empty, and the residualized instrument."""
    w = inverted.weight
    m = inverted.n_shifts
    if m < 2:
        raise EstimationError("inverted regression needs at least 2 shifts with positive weight")

    q_cols = np.ones((m, 1))
    q_names: tuple[str, ...] = ("intercept",)
    if shift_controls is not None:
        q = _columns(shift_controls, inverted.kept.shape[0],
                     "shift controls must have one row per shift of the shift table")[inverted.kept]
        q_cols = np.hstack([q_cols, q])
        q_names = q_names + tuple(f"q_{k + 1}" for k in range(q.shape[1]))

    beta, gamma, resid, inst_perp, x_perp, denom = _partialled_iv(
        q_cols, q_names, inverted.instrument, inverted.xbar, inverted.ybar, w
    )
    scores = w * inst_perp * resid
    se_variants = {"hc_exposure_robust": _robust_se(scores, np.arange(m), denom)}
    n_clusters = None
    if codes is not None:
        n_clusters = int(_two_clusters(codes, "shift").max()) + 1
        se_variants["cluster_exposure_robust"] = _robust_se(scores, codes, denom)

    report = EstimateReport(
        beta_hat=beta,
        gamma_hat=gamma,
        gamma_names=q_names,
        se_variants=se_variants,
        first_stage_f={},
        residuals=resid,
        x_perp=x_perp,
        n_units=inverted.n_units,
        m_shifts=m,
        n_clusters=n_clusters,
    )
    return report, inst_perp


def estimate_inverted(
    inverted: InvertedDataset,
    shift_controls: np.ndarray | None = None,
    cluster=None,
) -> EstimateReport:
    """Weighted IV in the inverted regression with exposure-robust standard errors.

    Observations are shifts, weighted by their aggregate share, instrumented
    by the (possibly residualized) shift value. ``shift_controls`` (shift-level
    covariate columns; a 1-D array is one column) and explicit ``cluster``
    labels have one row per shift of the original shift table and are subset
    to the kept shifts; an intercept is always included. Reports the
    heteroskedasticity-robust sandwich and, when shift cluster labels are
    available (``cluster``, else the table's cluster column), the
    cluster-robust one, both without degrees-of-freedom corrections, plus
    conventional and effective first-stage F statistics.
    """
    labels = inverted.cluster
    if cluster is not None:
        labels = np.asarray(cluster, dtype=object)
        if labels.shape != inverted.kept.shape:
            raise ValidationError("cluster labels must have one entry per shift of the shift table")
        labels = labels[inverted.kept]
    codes = None if labels is None else _label_codes(labels)[1]
    w = inverted.weight
    if inverted.n_shifts >= 2:  # a fit of fewer shifts fails, and warns of nothing first
        _negligibility_check(w, inverted.shift_ids)
    report, inst_perp = _inverted_iv(inverted, shift_controls, codes)
    x_perp = report.x_perp
    conventional_f = _conventional_f(inst_perp, x_perp, w, np.arange(report.m_shifts), 1.0)
    try:
        eff_f = effective_f(x_perp, inst_perp, w, shift_values=inverted.shift_values)
    except EstimationError:
        eff_f = float("nan")
    report.first_stage_f = {"conventional": conventional_f, "effective": eff_f}
    return report


# ---------------------------------------------------------------------------
# residualized-shift standard errors and effective F


def residualized_se(
    unit_weights: np.ndarray,
    shares: ShareMatrix,
    eta_hat: np.ndarray,
    residuals: np.ndarray,
    x_perp: np.ndarray,
    clusters=None,
) -> float:
    """Exposure-robust SE built directly from residualized shifts.

    Evaluates ``sqrt(sum_g (sum_{j in g} t_j eta_j)^2)``, ``t_j = sum_i e_i w_ij
    eps_i``, over ``|sum_i e_i x_perp_i z_i|`` with ``z = W eta``; the groups are
    the shift ``clusters``, by default the single shifts. ``clusters`` need one
    label per shift (``ValidationError``) and at least two distinct labels
    (``EstimationError``), as one cluster's score sum is zero up to round-off.
    With ``eta`` from the aggregate-share-weighted regression of shifts on
    shift-level controls, the unclustered form is the heteroskedasticity-robust
    sandwich of the inverted regression, which singleton clusters reproduce exactly.
    """
    e = np.asarray(unit_weights, dtype=float)
    eta = np.asarray(eta_hat, dtype=float)
    eps = np.asarray(residuals, dtype=float)
    xp = np.asarray(x_perp, dtype=float)
    if eta.shape != (shares.n_shifts,):
        raise ValidationError("eta misaligned with share columns")
    if eps.shape != (shares.n_units,) or xp.shape != (shares.n_units,):
        raise ValidationError("residuals and x_perp must have one value per unit")
    m = shares.n_shifts
    codes = np.arange(m) if clusters is None else _cluster_codes(clusters, m, "shift")
    return _residualized_se(e, shares, eta, eps, xp, codes)


def _residualized_se(e: np.ndarray, shares: ShareMatrix, eta: np.ndarray, eps: np.ndarray,
                     xp: np.ndarray, codes: np.ndarray) -> float:
    """``residualized_se`` of checked float vectors over the shift cluster ``codes``."""
    denom = abs(float(np.sum(e * xp * shares.exposure(eta))))
    if denom == 0.0:
        raise EstimationError("degenerate first stage: sum e * x_perp * z is zero")
    return _robust_se(shares.aggregate(e * eps) * eta, codes, denom)


def residualized_se_clustered(unit_weights, shares, eta_hat, residuals, x_perp, clusters):
    """``residualized_se`` over shift ``clusters``, kept for ``perfbench/checks.py``. Not an
    alias: a tracer keyed by function identity would give both names one span name."""
    return residualized_se(unit_weights, shares, eta_hat, residuals, x_perp, clusters)


def effective_f(
    xbar_perp: np.ndarray,
    eta_hat: np.ndarray,
    shift_weights: np.ndarray,
    shift_values: np.ndarray | None = None,
) -> float:
    """Effective first-stage F statistic of the inverted regression.

    Fits the weighted first stage of the aggregated residualized regressor
    on the residualized shift (with intercept), takes the
    heteroskedasticity-robust covariance of the two coefficients, and forms
    the ratio of the weighted mean squared fitted value to the trace term
    built from the shift second moments. ``shift_values`` defaults to
    ``eta_hat``. The covariance sums the outer products of the coefficients'
    closed-form influences: ``w eta_c r / sum w eta_c^2`` for the slope, with
    ``eta_c`` the weighted-demeaned shift and ``r`` the residual, and
    ``w r / sum w`` minus the weighted mean shift times that for the intercept.
    """
    xb = np.asarray(xbar_perp, dtype=float)
    eta = np.asarray(eta_hat, dtype=float)
    w = np.asarray(shift_weights, dtype=float)
    d = eta if shift_values is None else np.asarray(shift_values, dtype=float)
    if not (xb.shape == eta.shape == w.shape == d.shape):
        raise ValidationError("effective F inputs must be aligned vectors")
    design = np.column_stack([np.ones_like(eta), eta])
    coef = wls_coefficients(design, xb, w, ("intercept", "eta"))
    fitted = design @ coef
    resid = xb - fitted
    total = float(np.sum(w))
    eta_mean = float(np.sum(w * eta)) / total
    eta_c = eta - eta_mean
    slope = w * eta_c * resid / float(np.sum(w * eta_c**2))
    psi = np.stack([w * resid / total - eta_mean * slope, slope])
    cov = psi @ psi.T
    numerator = float(np.sum(w * fitted**2))
    denominator = float(
        cov[1, 1] * np.sum(w * d**2) + 2.0 * cov[0, 1] * np.sum(w * d) + cov[0, 0] * np.sum(w)
    )
    if denominator <= 0.0:
        return float("inf") if numerator > 0 else 0.0
    return numerator / denominator


# ---------------------------------------------------------------------------
# the shift-exogeneity framework, end to end

SE_MENUS = ("all", "conventional", "exposure", "residualized")


@dataclass
class ShiftFrameworkResult:
    """Unit-level 2SLS on the residualized-shift instrument, with the SE menu
    of the shift-level regression ``inverted`` merged into ``estimate``."""

    estimate: EstimateReport
    inverted: EstimateReport
    residuals: ShiftResiduals
    rotemberg: RotembergTable | None = None

    def to_dict(self) -> dict:
        payload = {
            "estimate": self.estimate.to_dict(),
            "residualization": {
                "spec": list(self.residuals.spec),
                "sse_ratio": self.residuals.sse_ratio,
            },
        }
        if self.rotemberg is not None:
            payload["rotemberg"] = self.rotemberg.to_dict()
        return payload


def _spec_controls(shares: ShareMatrix, shifts: ShiftTable, spec: Sequence[str]) -> list:
    """Unit-level aggregates ``W p`` of the residualization terms, one column each.

    A fixed effect gives one column per real level except the first sorted
    one; the complement's own level never gets a column, so the real-level
    columns together sum to the sum-of-shares control. ``p_real`` gets none:
    its aggregate is the sum-of-shares control itself.
    """
    columns = []
    for term in spec:
        if term in _label_terms(shifts):
            levels, codes = shifts._coded(term)
            for k in np.flatnonzero(levels != COMPLEMENT_ID)[1:]:
                columns.append(shares.exposure((codes == k).astype(float)))
        elif term != REAL_SHIFT_COVARIATE and term in shifts.covariate_names:
            k = shifts.covariate_names.index(term)
            columns.append(shares.exposure(shifts.covariates[:, k]))
    return columns


def estimate_shift_framework(
    shares: ShareMatrix,
    shifts: ShiftTable,
    dataset: Dataset,
    residualize: Sequence[str] = (),
    cluster_unit=None,
    cluster_shift: str | None = None,
    se: str = "all",
    with_rotemberg: bool = False,
) -> ShiftFrameworkResult:
    """Shift-share IV under shift exogeneity: construction, 2SLS and the SE menu.

    Incomplete shares (a row sum off 1 by more than 1e-8) are completed, the
    sum of shares joins the unit controls, and ``p_real`` is prepended to the
    spec unless a label fixed effect in ``residualize`` already absorbs the
    complement's own level. Shifts with zero aggregate weight are then dropped
    with a warning, so that the estimates are those of the table without them.
    Shifts are residualized on the spec, the unit
    controls gain the aggregated spec terms, and the unit-level 2SLS uses the
    residualized shifts as instrument. The inverted regression gives the
    exposure-robust SEs, clustered on the shift label column
    ``cluster_shift`` when given. ``cluster_unit`` clusters the conventional
    SE. ``se`` keeps ``all`` families, or the conventional SE alone or with
    the ``exposure`` or ``residualized`` ones.
    """
    if se not in SE_MENUS:
        raise ValidationError(f"unknown SE menu {se!r}; choose one of {SE_MENUS}")
    spec = tuple(t for t in residualize if t != REAL_SHIFT_COVARIATE)
    blocks = [] if dataset.controls is None else [dataset.controls]
    if not shares.is_complete():
        completed = complete_shares(shares, shifts)
        shares, shifts = completed.shares, completed.shifts
        blocks.append(completed.sum_of_shares[:, None])
        if not any(t in _label_terms(shifts) for t in spec):
            spec = (REAL_SHIFT_COVARIATE,) + spec
    shares, shifts, w_j, _ = _weighted_shifts(shares, shifts,
                                              shift_weights_from(dataset, shares))
    blocks += [column[:, None] for column in _spec_controls(shares, shifts, spec)]
    augmented = Dataset(
        outcome=dataset.outcome,
        unit_ids=dataset.unit_ids,
        regressor=dataset.regressor,
        controls=np.column_stack(blocks) if blocks else None,
        unit_weights=dataset.unit_weights,
        extras=dict(dataset.extras),
    )
    res = residualize_shifts(shifts, spec, w_j)
    report = shiftshare_2sls(
        augmented,
        build_exposure(shares, res.eta_hat),
        cluster=cluster_unit,
        regressor=_endogenous(augmented, shares, shifts),
    )
    # the inverted regression clusters on the table's own cluster column by default
    labels = None if cluster_shift is None else shifts.label_column(cluster_shift)
    inverted = estimate_inverted(_invert(augmented, shares, shifts, res.eta_hat, w_j), None,
                                 labels)
    if se in ("all", "exposure"):
        report.se_variants.update(
            {k: v for k, v in inverted.se_variants.items() if "exposure" in k}
        )
        report.first_stage_f.update(inverted.first_stage_f)
    if se in ("all", "residualized"):
        args = (augmented.unit_weights, shares, res.eta_hat, report.residuals, report.x_perp)
        report.se_variants["residualized"] = residualized_se(*args)
        if cluster_shift is not None:
            report.se_variants["residualized_cluster"] = _residualized_se(
                *args, shifts._coded(cluster_shift)[1])
    report.m_shifts = inverted.m_shifts
    table = rotemberg(augmented, shares, shifts) if with_rotemberg else None
    return ShiftFrameworkResult(estimate=report, inverted=inverted, residuals=res, rotemberg=table)
