"""Construction and preprocessing of shift-share variables.

Covers the exposure inner product, the three-way decomposition of a
share-weighted aggregate, share completion with the fictitious zero shift,
small-denominator shift replacement, weighted residualization of shifts on
fixed effects and covariates, and leave-one-out shift estimation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._wls import wls_coefficients
from .data import Dataset, ShareMatrix, ShiftTable, Triplets, _checked_unit_shifts
from .errors import EstimationError, NumericalError, ShiftShareWarning, ValidationError

COMPLEMENT_ID = "__complement__"
REAL_SHIFT_COVARIATE = "p_real"
DEFAULT_REPLACE_THRESHOLD = 0.03
DEMEAN_TOL = 1e-10  # largest group mean at convergence, relative to its column's largest entry
DEMEAN_MAX_ITER = 10000  # alternating-demeaning sweeps before giving up


def build_exposure(shares: ShareMatrix, shifts: ShiftTable | np.ndarray) -> np.ndarray:
    """Exposure of each unit: the share-weighted sum of shift values."""
    return shares.exposure(shifts.values if isinstance(shifts, ShiftTable) else shifts)


@dataclass(frozen=True)
class DecompositionResult:
    """Additive split of a share-weighted aggregate.

    ``expected`` holds initial shares times reference shifts, ``shock`` the
    initial-share-weighted deviations from the reference, ``share_change``
    the share drift times reference shifts, and ``interaction`` the
    share-drift-times-deviation cross term needed for the four pieces to sum
    to the observed aggregate exactly.
    """

    expected: np.ndarray
    shock: np.ndarray
    share_change: np.ndarray
    interaction: np.ndarray
    observed: np.ndarray
    reference_shifts: np.ndarray

    def total(self) -> np.ndarray:
        return self.expected + self.shock + self.share_change + self.interaction


def decompose(
    initial_shares: ShareMatrix,
    current_shares: ShareMatrix,
    unit_shifts: Triplets,
) -> DecompositionResult:
    """Decompose the observed aggregate ``sum_j w_ijt D_ijt`` per unit.

    ``unit_shifts`` are the ``(rows, cols, values)`` triplets of ``D_ijt``, absent pairs
    zero. The reference shift of each column is its current-share-weighted mean, zero for
    a column without current shares.
    """
    # matched by position, the two list the same ids, and one check of the unit shifts serves both
    ids = initial_shares.row_ids, initial_shares.col_ids
    if ids != (current_shares.row_ids, current_shares.col_ids):
        raise ValidationError("id mismatch: the initial and current shares must list the "
                              "same units and shifts in the same order")
    _, _, d, keys = _checked_unit_shifts(unit_shifts, *ids)
    _, c0, w0 = initial_shares.nonzero()
    _, ct, wt = current_shares.nonzero()
    d0, dt = initial_shares._at_keys(keys, d), current_shares._at_keys(keys, d)
    wd = wt * dt
    mass = current_shares.column_totals(wt)
    with np.errstate(invalid="ignore", divide="ignore"):
        ref = np.where(mass > 0, current_shares.column_totals(wd)
                       / np.where(mass > 0, mass, 1.0), 0.0)
    expected = initial_shares.exposure(ref)
    shock = initial_shares.row_totals(w0 * (d0 - ref[c0]))
    return DecompositionResult(
        expected=expected,
        shock=shock,
        share_change=current_shares.exposure(ref) - expected,
        interaction=current_shares.row_totals(wt * (dt - ref[ct])) - shock,
        observed=current_shares.row_totals(wd),
        reference_shifts=ref,
    )


@dataclass(frozen=True)
class CompletedShares:
    """Shares with the complementary column appended, and shifts with the zero-valued
    fictitious shift and its indicator covariate."""

    shares: ShareMatrix
    shifts: ShiftTable
    sum_of_shares: np.ndarray


def complete_shares(shares: ShareMatrix, shifts: ShiftTable) -> CompletedShares:
    """Append the complementary share column so every row sums to one.

    The appended shift value is fixed at zero, and the shift table gains a
    ``p_real`` indicator covariate (1 for real shifts, 0 for the complement)
    so the complement can be distinguished in shift-level regressions.
    Existing covariate columns are zero-filled for the complement. The
    returned ``sum_of_shares`` control is the original row sum per unit.
    """
    if shifts.n_shifts != shares.n_shifts:
        raise ValidationError("shift table does not match the share matrix")
    if REAL_SHIFT_COVARIATE in shifts.covariate_names:
        raise ValidationError(f"shift covariate name {REAL_SHIFT_COVARIATE!r} is reserved "
                              "for the indicator that share completion adds")
    if COMPLEMENT_ID in shares.col_ids + shifts.shift_ids:
        raise ValidationError(f"shift id {COMPLEMENT_ID!r} is reserved for the share that "
                              "completion adds")
    sums = shares.row_sums()
    new_shares = shares.with_column(np.clip(1.0 - sums, 0.0, None), COMPLEMENT_ID)
    m = shifts.n_shifts
    indicator = np.concatenate([np.ones(m), [0.0]])
    if shifts.covariates is not None:
        cov = np.vstack([shifts.covariates, np.zeros((1, shifts.covariates.shape[1]))])
        cov = np.hstack([cov, indicator[:, None]])
        names = shifts.covariate_names + (REAL_SHIFT_COVARIATE,)
    else:
        cov = indicator[:, None]
        names = (REAL_SHIFT_COVARIATE,)

    def _extend(labels):
        if labels is None:
            return None
        return np.concatenate([labels, [COMPLEMENT_ID]])

    new_shifts = ShiftTable(
        values=np.concatenate([shifts.values, [0.0]]),
        shift_ids=shifts.shift_ids + (COMPLEMENT_ID,),
        cluster=_extend(shifts.cluster),
        period=_extend(shifts.period),
        exchange_group=_extend(shifts.exchange_group),
        covariates=cov,
        covariate_names=names,
        extras={k: _extend(v) for k, v in shifts.extras.items()},
    )
    return CompletedShares(shares=new_shares, shifts=new_shifts, sum_of_shares=sums)


@dataclass(frozen=True)
class ShiftReplacement:
    """Shifts after zeroing those with small aggregate shares."""

    shifts: ShiftTable
    replaced: np.ndarray
    threshold: float

    @property
    def n_replaced(self) -> int:
        return int(self.replaced.sum())

    @property
    def replaced_fraction(self) -> float:
        return float(self.replaced.mean()) if self.replaced.size else 0.0


def replace_shifts(
    shifts: ShiftTable,
    aggregate_shares: np.ndarray,
    threshold: float = DEFAULT_REPLACE_THRESHOLD,
) -> ShiftReplacement:
    """Set shift values to zero wherever the aggregate share falls below ``threshold``."""
    if not 0.0 <= threshold < 1.0:
        raise ValidationError(f"replacement threshold must be in [0, 1), got {threshold!r}")
    agg = np.asarray(aggregate_shares, dtype=float)
    if agg.shape != (shifts.n_shifts,):
        raise ValidationError(
            f"aggregate shares ({agg.shape[0]}) misaligned with shifts ({shifts.n_shifts})"
        )
    mask = agg < threshold
    values = np.where(mask, 0.0, shifts.values)
    return ShiftReplacement(shifts=shifts.with_values(values), replaced=mask, threshold=threshold)


@dataclass(frozen=True)
class ShiftResiduals:
    """Residualized shifts together with the specification that produced them."""

    eta_hat: np.ndarray
    fitted: np.ndarray
    spec: tuple[str, ...]
    sse_ratio: float


def _label_terms(shifts: ShiftTable) -> set[str]:
    """Names of the shift table's label columns, the terms that enter as fixed effects."""
    return {"cluster", "period", "exchange_group", *shifts.extras}


def _weighted_group_demean(
    columns: np.ndarray, weights: np.ndarray, codes_list: list[np.ndarray]
) -> np.ndarray:
    """Alternating weighted demeaning over each fixed-effect dimension.

    Each sweep subtracts every dimension's weighted group means in turn. This
    converges to the projection of a dense weighted dummy regression without
    materializing the dummies. A sweep leaves the columns centred in its last
    dimension, and each earlier dimension has since moved by at most the later
    dimensions' group means. So the loop stops after the first sweep in which
    no group mean past the first dimension exceeds ``DEMEAN_TOL`` times its
    column's largest entry; one dimension stops after one sweep. Groups with
    zero total weight get mean zero.
    """
    out = columns.copy()
    tol = DEMEAN_TOL * np.max(np.abs(out), axis=0, initial=0.0)
    group_weights = []
    for codes in codes_list:
        gw = np.bincount(codes, weights=weights)
        group_weights.append(np.where(gw > 0, gw, 1.0))
    for _ in range(DEMEAN_MAX_ITER):
        converged = True
        for k, (codes, gw) in enumerate(zip(codes_list, group_weights)):
            means = np.vstack(
                [np.bincount(codes, weights=weights * col) for col in out.T]
            ).T / gw[:, None]
            out -= means[codes]
            if k and np.any(np.abs(means) > tol):
                converged = False
        if converged:
            return out
    raise NumericalError(
        f"alternating demeaning did not converge within {DEMEAN_MAX_ITER} iterations"
    )


def residualize_shifts(
    shifts: ShiftTable,
    spec: Sequence[str],
    shift_weights: np.ndarray,
) -> ShiftResiduals:
    """Residualize shift values on fixed effects and covariates by weighted least squares.

    ``spec`` lists terms by name: label columns of the shift table
    (``cluster``, ``period``, ``exchange_group``, or any extra column) enter
    as fixed effects, covariate names enter linearly. The intercept is the
    fixed effect with one level, added when the spec has no label term. The
    fixed effects are absorbed from the shifts and covariates by alternating
    weighted demeaning; the demeaned covariates are then partialled out
    (Frisch-Waugh-Lovell). A covariate the demeaning absorbs is named in the
    error. Every tolerance is relative to the data, so scaling the shifts and
    covariates by a power of two scales ``eta_hat`` exactly. The residuals
    have weighted mean zero.

    The universe of shifts residualized here may be larger than the set that
    later enters a regression; pass the wider table with its own weights.
    """
    w = np.asarray(shift_weights, dtype=float)
    if w.shape != (shifts.n_shifts,):
        raise ValidationError("shift weights must have one value per shift")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValidationError("shift weights must be finite and nonnegative")
    if w.sum() <= 0:
        raise ValidationError("shift weights must not all be zero")

    fe_codes: list[np.ndarray] = []
    cov_cols: list[np.ndarray] = []
    cov_names: list[str] = []
    for term in spec:
        if term in _label_terms(shifts):
            fe_codes.append(shifts._coded(term)[1])
        elif shifts.covariates is not None and term in shifts.covariate_names:
            k = shifts.covariate_names.index(term)
            cov_cols.append(shifts.covariates[:, k])
            cov_names.append(term)
        else:
            raise ValidationError(f"unknown residualization term {term!r}")

    d = shifts.values.astype(float)
    if not fe_codes:
        fe_codes.append(np.zeros(d.shape[0], dtype=np.intp))
    stacked = np.column_stack([d] + cov_cols)
    demeaned = _weighted_group_demean(stacked, w, fe_codes)
    eta = demeaned[:, 0]
    if cov_cols:
        x_dm = demeaned[:, 1:]
        norms = np.sqrt((w[:, None] * x_dm**2).sum(axis=0))
        base = np.sqrt((w[:, None] * stacked[:, 1:] ** 2).sum(axis=0))
        dead = norms <= 1e-10 * base
        if np.any(dead):
            bad = ", ".join(n for n, flag in zip(cov_names, dead) if flag)
            raise EstimationError(
                f"rank-deficient design; collinear terms: {bad} (absorbed by fixed effects)"
            )
        eta = eta - x_dm @ wls_coefficients(x_dm, eta, w, tuple(cov_names))

    fitted = d - eta
    wsum = w.sum()
    # the fixed effects absorb the constant: eta is weighted-centred, and the
    # variation it is compared with is centred too
    centre = float((w * d).sum() / wsum)
    denom = float((w * (d - centre) ** 2).sum())
    num = float((w * eta**2).sum())
    sse_ratio = 1.0 if denom == 0.0 else min(max(num / denom, 0.0), 1.0)
    mean_eta = abs(float((w * eta).sum() / wsum))
    if mean_eta > 1e-8 * float(np.max(np.abs(d))):
        raise NumericalError(f"residualized shifts have weighted mean {mean_eta!r}, not 0")
    return ShiftResiduals(
        eta_hat=eta,
        fitted=fitted,
        spec=tuple(spec),
        sse_ratio=sse_ratio,
    )


def shift_weights_from(dataset: Dataset, shares: ShareMatrix) -> np.ndarray:
    """Importance-weighted aggregate share of each shift: ``w_j = sum_i e_i w_ij``."""
    return shares.aggregate(dataset.unit_weights)


@dataclass(frozen=True)
class LeaveOneOutInstrument:
    """Per-unit leave-one-out instrument; ``undefined`` flags shares in ``nonzero()`` order."""

    z: np.ndarray
    undefined: np.ndarray

    @property
    def n_undefined(self) -> int:
        return int(self.undefined.sum())


def leave_one_out_shifts(unit_shifts: Triplets, shares: ShareMatrix) -> LeaveOneOutInstrument:
    """Instrument each unit with shifts re-aggregated over all *other* units.

    ``unit_shifts`` are the ``(rows, cols, values)`` triplets of the unit-level shifts,
    absent pairs zero. For unit ``k`` and shift ``j`` the leave-one-out shift is the
    share-weighted mean of the other units' values: their share-weighted sum divided by
    their share mass. A shift whose entire weight comes from one unit has no leave-one-out
    value for that unit: the pair is flagged in ``undefined``, excluded from the instrument
    with a warning.
    """
    _, _, values, keys = _checked_unit_shifts(unit_shifts, shares.row_ids, shares.col_ids)
    return _leave_one_out(keys, values, shares)


def _leave_one_out(keys: np.ndarray, values: np.ndarray,
                   shares: ShareMatrix) -> LeaveOneOutInstrument:
    """``leave_one_out_shifts`` of checked unit shifts, by their sorted keys
    ``row * shares.n_shifts + col``, as ``ShareMatrix._at_keys`` takes them."""
    _, cols, w = shares.nonzero()  # every stored share is positive
    wd = w * shares._at_keys(keys, values)
    loo = shares.column_totals(wd)[cols] - wd
    denom = shares.column_totals(w)[cols] - w
    undefined = denom <= 0
    loo = np.where(undefined, 0.0, loo / np.where(undefined, 1.0, denom))
    if undefined.any():
        warnings.warn(
            f"{int(undefined.sum())} unit-shift pair(s) have no leave-one-out value "
            "(entire shift weight from one unit); excluded from the instrument",
            ShiftShareWarning,
            stacklevel=3,
        )
    return LeaveOneOutInstrument(z=shares.row_totals(w * loo), undefined=undefined)
