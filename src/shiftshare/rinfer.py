"""Randomization inference under finite exchangeable shifts.

Shift values are reshuffled within exchangeability groups while shares,
controls, and errors stay fixed; the test statistic is the weighted
cross-moment between the recomputed instrument and the null-imposed
residual. The statistic is affine in the hypothesized coefficient, which
gives a closed-form point estimate. When the group structure admits fewer
distinct permutations than requested draws, the full set is enumerated and
the test is exact by construction; otherwise permutations are sampled and
the observed assignment joins the reference set, keeping the test valid at
finite draw counts. A permutation moves shifts only inside their group, so
each draw's statistic is a sum of per-group terms. Sampled draws stream
through blocks of about ``BLOCK_ELEMENTS`` permuted shifts, so memory is
bounded by one block plus a few arrays of length draws, whatever the group
sizes.

Affinity also makes every p-value exact: a draw's extremity changes only at
the roots of a quadratic in the coefficient, so one sort of all roots gives
the p-value everywhere as a step function. The point test, the p-value
profile and the confidence set all read from it; the set need not be an
interval.

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
TIE_TOL = 1e-12  # relative rounding noise of the confidence-set sweep
BLOCK_ELEMENTS = 1 << 16  # permuted shifts per sampled block: 512 KiB of float64


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
    """Randomization point estimate, confidence set, and p-value profile.

    ``intervals`` is the exact confidence set as increasing disjoint closed
    pieces, infinite where it is unbounded; ``ci_lower``/``ci_upper`` are
    its hull. Each draw's statistic is affine in the hypothesized
    coefficient, so the per-draw ``(intercept, slope)`` pairs encode the
    whole randomization distribution; :meth:`stat_distribution`
    materializes it at any coefficient value.
    """

    point_estimate: float
    ci_lower: float
    ci_upper: float
    intervals: tuple[tuple[float, float], ...]
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
            "ci": {"lower": _finite(self.ci_lower), "upper": _finite(self.ci_upper),
                   "intervals": [[_finite(lo), _finite(hi)] for lo, hi in self.intervals]},
            "level": self.level,
            "beta_grid": [float(b) for b in self.beta_grid],
            "p_values": [float(p) for p in self.p_values],
            "stat_observed": [float(t) for t in self.stat_observed],
            "draws": self.draws,
            "seed": self.seed,
            "method": self.method,
        }


def _group_indices(shifts: ShiftTable, groups: str | None) -> list[np.ndarray]:
    """The shift indices of each exchange group: the levels of the label column named
    ``groups``, or of ``exchange_group`` where ``groups`` is None; one group of every shift
    where that column is absent."""
    if groups is not None and not isinstance(groups, str):
        raise ValidationError("groups must name a label column of the shift table, "
                              f"not {type(groups).__name__}")
    labels = shifts.exchange_group if groups is None else shifts.label_column(groups)
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


def _n_permutations(group_indices: list[np.ndarray], limit: int) -> int:
    """Distinct within-group permutations, counted until the count passes ``limit``."""
    total = 1
    for idx in group_indices:
        total *= math.factorial(idx.size)
        if total > limit:
            break
    return total


def _group_moments(d: np.ndarray, s_y: np.ndarray, s_x: np.ndarray, enumerated: bool,
                   draws: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One exchange group's terms ``d[order] @ s_y`` and ``d[order] @ s_x``, observed
    order first. Sampled orders are drawn in blocks of rows holding about
    ``BLOCK_ELEMENTS`` permuted shifts; the stream fills row-major, so the
    blocks consume the same uniforms, and give the same orders, as one
    draws x group-size call would."""
    if enumerated:
        # itertools yields the identity first, so row 0 is the observed
        # assignment, computed by the same kernel as every draw
        permuted = d[np.array(list(itertools.permutations(range(d.size))))]
        return permuted @ s_y, permuted @ s_x
    a, c = np.empty(draws + 1), np.empty(draws + 1)
    rows = max(2, BLOCK_ELEMENTS // d.size)
    for start in range(0, draws + 1, rows):
        stop = min(start + rows, draws + 1)
        orders = np.argsort(rng.random((stop - max(start, 1), d.size)), axis=1)
        if start == 0:
            # prepend the identity so the observed statistic shares the exact
            # floating-point path of the permuted ones (ties must be exact)
            orders = np.vstack([np.arange(d.size), orders])
        permuted = d[orders]
        a[start:stop], c[start:stop] = permuted @ s_y, permuted @ s_x
    return a, c


def _randomization_moments(
    dataset: Dataset,
    shares: ShareMatrix,
    shifts: ShiftTable,
    draws: int,
    seed: int,
    groups: str | None,
):
    """Reference-set (A, C) pairs defining T(beta) = A - beta * C, observed
    assignment first; also the draws within it (all but row 0 under
    sampling) and the method. A is the sum over groups of
    ``d[idx][order] @ s_y[idx]``, C likewise with ``s_x``."""
    if draws < 1:
        raise ValidationError(f"need at least 1 randomization draw, got {draws}")
    if draws < MIN_DRAWS_WARN:
        warnings.warn(
            f"only {draws} randomization draws; p-values will be coarse",
            ShiftShareWarning,
            stacklevel=3,
        )
    s_y, s_x = _moment_vectors(dataset, shares, shifts)
    group_indices = _group_indices(shifts, groups)
    d = shifts.values
    enumerated = _n_permutations(group_indices, draws) <= draws
    rng = np.random.Generator(np.random.Philox(key=seed))
    a_ref = c_ref = np.zeros(1)
    for idx in group_indices:
        a, c = _group_moments(d[idx], s_y[idx], s_x[idx], enumerated, draws, rng)
        if enumerated:
            # outer sums, last group fastest: the itertools.product order
            a_ref, c_ref = np.add.outer(a_ref, a).ravel(), np.add.outer(c_ref, c).ravel()
        else:
            a_ref, c_ref = a_ref + a, c_ref + c
    first, method = (0, "enumeration") if enumerated else (1, "sampling")
    return a_ref, c_ref, a_ref[first:], c_ref[first:], method


def _p_value_steps(a_ref: np.ndarray, c_ref: np.ndarray):
    """The exact p-value as a step function of beta, by one sweep over its steps.

    Draw k is at least as extreme as the observed draw (row 0) when
    ``(a_k - a_0 - beta (c_k - c_0)) * (a_k' + a_0' - beta (c_k' + c_0')) >= 0``,
    primes marking deviations from the reference-set mean. Each factor's
    root flips the draw's status and the draw counts at its roots. Returns
    the sorted breakpoints and the p-values on the open segments and at the
    breakpoints, alternating: segment, breakpoint, ..., segment.
    """
    a_dev, c_dev = a_ref - np.mean(a_ref), c_ref - np.mean(c_ref)
    p = np.stack([a_ref - a_ref[0], a_dev + a_dev[0]])
    q = np.stack([c_ref - c_ref[0], c_dev + c_dev[0]])
    # rounding residue is zero: the ratio of two residues (left by a draw
    # mirroring the observed one, as when all groups have two shifts) would
    # be a spurious root anywhere on the line
    p[np.abs(p) <= TIE_TOL * np.max(np.abs(a_ref))] = 0.0
    q[np.abs(q) <= TIE_TOL * np.max(np.abs(c_ref))] = 0.0
    # a factor that is identically zero (row 0 itself, a draw equal to it,
    # or its mirror image) makes the draw count everywhere
    always = ((p == 0.0) & (q == 0.0)).any(axis=0)
    # counting as beta -> -inf: each factor has the sign of q there (of p
    # when constant), and a factor's root flips its sign
    left = np.prod(np.where(q != 0.0, np.sign(q), np.sign(p)), axis=0) > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.sort(np.where(q != 0.0, p / q, np.nan), axis=0)
    # a double root between two counting sides leaves the draw counting
    always |= (roots[0] == roots[1]) & left
    left &= ~always
    roots[:, always] = np.nan
    found = ~np.isnan(roots)
    deltas = (np.where(left, -1.0, 1.0) * np.array([[1.0], [-1.0]]))[found]
    breaks, at = np.unique(roots[found], return_inverse=True)
    change = np.bincount(at, weights=deltas, minlength=breaks.size)
    segments = np.count_nonzero(always | left) + np.r_[0.0, np.cumsum(change)]
    # a draw counts at its root, so a point adds the draws entering there
    entering = np.bincount(at, weights=deltas > 0, minlength=breaks.size)
    counts = np.empty(2 * breaks.size + 1)
    counts[0::2] = segments
    counts[1::2] = segments[:-1] + entering
    return breaks, counts / a_ref.size


def _p_value_at(steps, beta):
    """The step function of :func:`_p_value_steps` at ``beta`` (scalar or array)."""
    breaks, p = steps
    # off a breakpoint both searches give its segment k (entry 2k); on
    # breakpoint k they give k and k + 1 (entry 2k + 1)
    return p[np.searchsorted(breaks, beta, "left") + np.searchsorted(breaks, beta, "right")]


def _accepted_pieces(steps, alpha: float) -> np.ndarray:
    """Exact ``{beta : p(beta) > alpha}`` as a ``(k, 2)`` array of closed ends."""
    breaks, p = steps
    edges = np.diff(np.r_[0, p > alpha, 0])
    # entry e of ``p`` spans ends[e] to ends[e + 1]
    ends = np.r_[-np.inf, np.repeat(breaks, 2), np.inf]
    return np.column_stack([ends[edges == 1], ends[edges == -1]])


def ri_test(
    dataset: Dataset,
    shares: ShareMatrix,
    shifts: ShiftTable,
    beta0: float,
    draws: int = 2000,
    seed: int = 0,
    groups: str | None = None,
) -> RiTest:
    """Two-sided randomization p-value for the sharp null ``beta = beta0``.

    Outcome and regressor are residualized on the unit controls first.
    Extremity is the absolute deviation of the cross-moment from the mean of
    the reference set; under enumeration the reference set is every distinct
    within-group permutation, otherwise the sampled draws plus the observed
    assignment. ``groups`` names the shift table's label column of exchange
    groups, ``exchange_group`` when None; without that column every shift is in
    one group.
    """
    if not math.isfinite(beta0):
        raise ValidationError(f"the null coefficient must be finite, got {beta0!r}")
    a_ref, c_ref, a, c, method = _randomization_moments(
        dataset, shares, shifts, draws, seed, groups
    )
    a_obs, c_obs = float(a_ref[0]), float(c_ref[0])
    return RiTest(
        beta0=float(beta0),
        p_value=float(_p_value_at(_p_value_steps(a_ref, c_ref), beta0)),
        stat_observed=a_obs - beta0 * c_obs,
        stat_mean=float(np.mean(a_ref - beta0 * c_ref)),
        stat_distribution=a - beta0 * c,
        method=method,
        draws=int(a.shape[0]),
        seed=seed,
    )


def ri_estimate(
    dataset: Dataset,
    shares: ShareMatrix,
    shifts: ShiftTable,
    draws: int = 2000,
    level: float = 0.95,
    seed: int = 0,
    groups: str | None = None,
    grid: np.ndarray | None = None,
) -> RiResult:
    """Randomization point estimate and exact confidence set by test inversion.

    The cross-moment is affine in the coefficient, so the point estimate
    (where the observed statistic equals the reference-set mean) has a
    closed form, and so does the set of every coefficient whose p-value
    exceeds ``1 - level``: ``intervals`` holds its disjoint closed pieces,
    ``ci_lower``/``ci_upper`` their hull, infinite (with a warning) where the
    set is unbounded. The p-value profile is evaluated on ``grid``, by
    default 41 points around the hull. ``groups`` is as in :func:`ri_test`.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError("confidence level must be in (0, 1)")
    a_ref, c_ref, a, c, method = _randomization_moments(
        dataset, shares, shifts, draws, seed, groups
    )
    a_obs, c_obs = float(a_ref[0]), float(c_ref[0])
    c_gap = c_obs - float(np.mean(c_ref))
    if c_gap == 0.0:
        raise EstimationError(
            "observed cross-moment slope equals its permutation mean; "
            "the point estimate is not identified"
        )
    point = (a_obs - float(np.mean(a_ref))) / c_gap

    steps = _p_value_steps(a_ref, c_ref)
    pieces = _accepted_pieces(steps, 1.0 - level)
    lower, upper = float(pieces[0, 0]), float(pieces[-1, 1])
    bounded = math.isfinite(lower) and math.isfinite(upper)
    if not bounded:
        p_tail = max(steps[1][0], steps[1][-1])  # the p-values of the two unbounded segments
        warnings.warn(
            f"randomization confidence set is unbounded at level {level:g} "
            f"(limiting p-value {p_tail:.3f}); reporting infinite endpoints",
            ShiftShareWarning,
            stacklevel=2,
        )
    if grid is None and bounded:
        # a one-point set (noiseless data) still gets distinct grid points
        width = max(upper - lower, 1e-6)
        grid = np.linspace(lower - 0.25 * width, upper + 0.25 * width, 41)
    elif grid is None:
        spread = float(np.std(a_ref - point * c_ref))
        scale = max(abs(point), spread / max(abs(c_gap), 1e-300), 1.0)
        grid = np.linspace(point - 2 * scale, point + 2 * scale, 41)
    grid = np.asarray(grid, dtype=float)
    p_values = _p_value_at(steps, grid)
    return RiResult(
        point_estimate=float(point),
        ci_lower=lower,
        ci_upper=upper,
        intervals=tuple((float(lo), float(hi)) for lo, hi in pieces),
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
