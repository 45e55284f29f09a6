"""Randomization inference under finite exchangeable shifts.

Shift values are reshuffled within exchangeability groups while shares,
controls, and errors stay fixed; the test statistic is the weighted
cross-moment between the recomputed instrument and the null-imposed
residual. The statistic is affine in the hypothesized coefficient, which
gives a closed-form point estimate and cheap p-value evaluation along any
grid of coefficients. When the group structure admits fewer distinct
permutations than requested draws, the full set is enumerated and the test
is exact by construction; otherwise permutations are sampled and the
observed assignment joins the reference set, keeping the test valid at
finite draw counts.

Because the statistic shifts by the same constant under every within-group
permutation when a constant is added to a group's shifts, demeaning the
shifts changes neither p-values nor confidence intervals.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, ShareMatrix, ShiftTable, _label_codes
from .errors import EstimationError, ShiftShareWarning, ValidationError
from .estimate import _moment_vectors

MIN_DRAWS_WARN = 100
ENUMERATION_CAP = 100_000


@dataclass(frozen=True)
class RiTest:
    """Sharp-null randomization test at a single coefficient value."""

    beta0: float
    p_value: float
    stat_observed: float
    stat_mean: float
    stat_distribution: np.ndarray
    method: str
    draws: int
    seed: int


@dataclass(frozen=True)
class RiResult:
    """Randomization point estimate, confidence interval, and p-value profile.

    Each draw's statistic is affine in the hypothesized coefficient, so the
    per-draw ``(intercept, slope)`` pairs encode the whole randomization
    distribution; :meth:`stat_distribution` materializes it at any
    coefficient value.
    """

    point_estimate: float
    ci_lower: float
    ci_upper: float
    level: float
    beta_grid: np.ndarray
    p_values: np.ndarray
    stat_observed: np.ndarray
    draw_intercepts: np.ndarray
    draw_slopes: np.ndarray
    draws: int
    seed: int
    method: str

    def stat_distribution(self, beta: float) -> np.ndarray:
        """Randomization draws of the test statistic at ``beta``."""
        return self.draw_intercepts - beta * self.draw_slopes

    def to_dict(self) -> dict:
        def _finite(value):
            return value if math.isfinite(value) else None

        return {
            "point_estimate": self.point_estimate,
            "ci": {"lower": _finite(self.ci_lower), "upper": _finite(self.ci_upper)},
            "level": self.level,
            "beta_grid": [float(b) for b in self.beta_grid],
            "p_values": [float(p) for p in self.p_values],
            "stat_observed": [float(t) for t in self.stat_observed],
            "draws": self.draws,
            "seed": self.seed,
            "method": self.method,
        }


def _group_indices(shifts: ShiftTable, groups) -> list[np.ndarray]:
    if groups is None:
        labels = shifts.exchange_group
    elif isinstance(groups, str):
        labels = shifts.label_column(groups)
    else:
        labels = groups
        if np.shape(labels) != (shifts.n_shifts,):
            raise ValidationError("exchange group labels must cover all shifts")
    if labels is None:
        return [np.arange(shifts.n_shifts)]
    levels, codes = _label_codes(labels)
    out = [np.flatnonzero(codes == g) for g in range(levels.shape[0])]
    small = [idx for idx in out if idx.size < 2]
    if small:
        raise ValidationError(
            f"{len(small)} exchange group(s) have fewer than 2 shifts; "
            "permutation within them is degenerate"
        )
    return out


def _n_permutations(group_indices: list[np.ndarray]) -> int:
    total = 1
    for idx in group_indices:
        total *= math.factorial(idx.size)
        if total > ENUMERATION_CAP:
            return total
    return total


def _enumerate_permutations(group_indices: list[np.ndarray], m: int) -> np.ndarray:
    per_group = [list(itertools.permutations(idx.tolist())) for idx in group_indices]
    total = 1
    for perms in per_group:
        total *= len(perms)
    out = np.empty((total, m), dtype=np.int64)
    base = np.arange(m, dtype=np.int64)
    for row, combo in enumerate(itertools.product(*per_group)):
        perm = base.copy()
        for idx, assigned in zip(group_indices, combo):
            perm[idx] = assigned
        out[row] = perm
    return out


def _sample_permutations(
    group_indices: list[np.ndarray], m: int, draws: int, rng: np.random.Generator
) -> np.ndarray:
    perm = np.tile(np.arange(m, dtype=np.int64), (draws, 1))
    for idx in group_indices:
        order = np.argsort(rng.random((draws, idx.size)), axis=1)
        perm[:, idx] = idx[order]
    return perm


def _randomization_moments(
    dataset: Dataset,
    shares: ShareMatrix,
    shifts: ShiftTable,
    draws: int,
    seed: int,
    groups,
):
    """Observed and permuted (A, C) pairs defining T(beta) = A - beta * C."""
    if draws < MIN_DRAWS_WARN:
        warnings.warn(
            f"only {draws} randomization draws; p-values will be coarse",
            ShiftShareWarning,
            stacklevel=3,
        )
    s_y, s_x = _moment_vectors(dataset, shares, shifts)
    group_indices = _group_indices(shifts, groups)
    d = shifts.values
    m = d.shape[0]
    total = _n_permutations(group_indices)
    if total <= max(draws, 1):
        # itertools yields the identity permutation first, so row 0 is the
        # observed assignment, computed by the same kernel as every draw
        perms = _enumerate_permutations(group_indices, m)
        permuted = d[perms]
        a = permuted @ s_y
        c = permuted @ s_x
        return float(a[0]), float(c[0]), a, c, "enumeration"
    rng = np.random.Generator(np.random.Philox(key=seed))
    perms = _sample_permutations(group_indices, m, draws, rng)
    # prepend the identity so the observed statistic shares the exact
    # floating-point path of the permuted ones (ties must be exact)
    stacked = np.vstack([np.arange(m, dtype=np.int64)[None, :], perms])
    permuted = d[stacked]
    a = permuted @ s_y
    c = permuted @ s_x
    return float(a[0]), float(c[0]), a[1:], c[1:], "sampling"


def _p_value(beta: float, a_obs, c_obs, a_ref, c_ref) -> float:
    """Share of the reference set at least as far from its mean as the observed draw."""
    center = float(np.mean(a_ref)) - beta * float(np.mean(c_ref))
    dev = np.abs(a_ref - beta * c_ref - center)
    dev_obs = abs(a_obs - beta * c_obs - center)
    return float(np.count_nonzero(dev >= dev_obs)) / dev.shape[0]


def ri_test(
    dataset: Dataset,
    shares: ShareMatrix,
    shifts: ShiftTable,
    beta0: float,
    draws: int = 2000,
    seed: int = 0,
    groups=None,
) -> RiTest:
    """Two-sided randomization p-value for the sharp null ``beta = beta0``.

    Outcome and regressor are residualized on the unit controls first.
    Extremity is the absolute deviation of the cross-moment from the mean of
    the reference set; under enumeration the reference set is every distinct
    within-group permutation, otherwise the sampled draws plus the observed
    assignment.
    """
    a_obs, c_obs, a, c, method = _randomization_moments(
        dataset, shares, shifts, draws, seed, groups
    )
    if method == "sampling":
        a_ref = np.concatenate([[a_obs], a])
        c_ref = np.concatenate([[c_obs], c])
    else:
        a_ref, c_ref = a, c
    p = _p_value(beta0, a_obs, c_obs, a_ref, c_ref)
    t_ref = a_ref - beta0 * c_ref
    return RiTest(
        beta0=float(beta0),
        p_value=p,
        stat_observed=a_obs - beta0 * c_obs,
        stat_mean=float(np.mean(t_ref)),
        stat_distribution=a - beta0 * c,
        method=method,
        draws=int(a.shape[0]),
        seed=seed,
    )


def _bisect_endpoint(p_at, point: float, alpha: float, step: float, direction: int, tol: float):
    """Walk outward from the point estimate until p <= alpha, then bisect."""
    inner = point
    outer = point + direction * step
    expansions = 0
    while p_at(outer) > alpha:
        inner = outer
        outer = point + (outer - point) * 2.0
        expansions += 1
        if expansions > 200:
            raise EstimationError(
                "confidence-interval endpoint not bracketed; widen the search bounds"
            )
    while abs(outer - inner) > tol:
        mid = 0.5 * (inner + outer)
        if p_at(mid) > alpha:
            inner = mid
        else:
            outer = mid
    return 0.5 * (inner + outer)


def ri_estimate(
    dataset: Dataset,
    shares: ShareMatrix,
    shifts: ShiftTable,
    draws: int = 2000,
    level: float = 0.95,
    seed: int = 0,
    groups=None,
    grid: np.ndarray | None = None,
    bounds: tuple[float, float] | None = None,
    tol: float = 1e-6,
) -> RiResult:
    """Randomization point estimate and confidence interval by test inversion.

    The cross-moment is affine in the coefficient, so the point estimate
    (where the observed statistic equals the reference-set mean) has a
    closed form; interval endpoints come from bisection on the p-value
    profile to ``tol`` in coefficient units. The interval collects every
    coefficient whose p-value exceeds ``1 - level``.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError("confidence level must be in (0, 1)")
    a_obs, c_obs, a, c, method = _randomization_moments(
        dataset, shares, shifts, draws, seed, groups
    )
    if method == "sampling":
        a_ref = np.concatenate([[a_obs], a])
        c_ref = np.concatenate([[c_obs], c])
    else:
        a_ref, c_ref = a, c
    alpha = 1.0 - level
    c_gap = c_obs - float(np.mean(c_ref))
    if c_gap == 0.0:
        raise EstimationError(
            "observed cross-moment slope equals its permutation mean; "
            "the point estimate is not identified"
        )
    point = (a_obs - float(np.mean(a_ref))) / c_gap

    def p_at(beta: float) -> float:
        return _p_value(beta, a_obs, c_obs, a_ref, c_ref)

    # limiting p-value as |beta| grows: only the slope deviations survive.
    # above the test level the confidence set is unbounded (weak
    # identification), so report infinite endpoints instead of failing.
    c_dev = np.abs(c_ref - float(np.mean(c_ref)))
    p_limit = float(np.count_nonzero(c_dev >= abs(c_gap))) / c_dev.shape[0]
    if bounds is None and p_limit > alpha:
        warnings.warn(
            f"randomization confidence set is unbounded at level {level:g} "
            f"(limiting p-value {p_limit:.3f}); reporting infinite endpoints",
            ShiftShareWarning,
            stacklevel=2,
        )
        lower, upper = float("-inf"), float("inf")
    elif bounds is not None:
        lo_bound, hi_bound = bounds
        if not (lo_bound < point < hi_bound):
            raise EstimationError("bounds do not bracket the point estimate; widen them")
        if p_at(lo_bound) > alpha or p_at(hi_bound) > alpha:
            raise EstimationError(
                "p-value above the test level at the given bounds; widen them"
            )
        lower = _bisect_endpoint(p_at, point, alpha, point - lo_bound, -1, tol)
        upper = _bisect_endpoint(p_at, point, alpha, hi_bound - point, +1, tol)
    else:
        spread = float(np.std(a_ref - point * c_ref))
        scale = max(abs(point), spread / max(abs(c_gap), 1e-300), 1e-6)
        lower = _bisect_endpoint(p_at, point, alpha, 0.5 * scale, -1, tol)
        upper = _bisect_endpoint(p_at, point, alpha, 0.5 * scale, +1, tol)

    if grid is None:
        if np.isfinite(lower) and np.isfinite(upper):
            width = max(upper - lower, tol)
            grid = np.linspace(lower - 0.25 * width, upper + 0.25 * width, 41)
        else:
            spread = float(np.std(a_ref - point * c_ref))
            scale = max(abs(point), spread / max(abs(c_gap), 1e-300), 1.0)
            grid = np.linspace(point - 2 * scale, point + 2 * scale, 41)
    else:
        grid = np.asarray(grid, dtype=float)
    p_values = np.array([p_at(b) for b in grid])
    return RiResult(
        point_estimate=float(point),
        ci_lower=float(lower),
        ci_upper=float(upper),
        level=level,
        beta_grid=grid,
        p_values=p_values,
        stat_observed=a_obs - grid * c_obs,
        draw_intercepts=a,
        draw_slopes=c,
        draws=int(a.shape[0]),
        seed=seed,
        method=method,
    )
