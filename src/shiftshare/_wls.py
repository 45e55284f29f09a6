"""Weighted least-squares primitives shared by the estimators.

All solves go through one rank-checked QR with column pivoting, written on
numpy alone: a thin ``np.linalg.qr`` of the matrix beside its right-hand side,
then Businger–Golub pivoting on the small triangle it leaves. A design is
treated as rank deficient when a pivoted diagonal entry falls below
``RANK_TOL`` times the largest one. There is one wording per failure:
"rank-deficient design; collinear terms: ..." naming the offending columns,
and "design matrix is identically zero".
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EstimationError

RANK_TOL = 1e-10


def _pivoted_solve(
    matrix: np.ndarray,
    rhs: np.ndarray,
    names: tuple[str, ...],
) -> np.ndarray:
    """Least-squares solve of ``matrix @ coef = rhs`` by pivoted QR, rank-checked.

    ``np.linalg.qr`` of ``[matrix | rhs]`` leaves the k×k triangle R of the
    matrix beside ``Q'rhs``; Householder steps with column pivoting then
    factor that triangle again. Each step takes the column with the largest
    remaining norm, the first one on a tie (LAPACK's ``idamax`` rule). As Q
    is orthonormal, a pivoted QR of R is one of the matrix.

    Raises "design matrix is identically zero", or "rank-deficient design;
    collinear terms: ..." naming the columns past the rank.
    """
    n, k = matrix.shape
    p = min(n, k)
    r = np.linalg.qr(np.column_stack([matrix, rhs]), mode="r")[:p]
    top = np.abs(r[:, :k]).max(initial=0.0)
    if top == 0.0:
        raise EstimationError("design matrix is identically zero")
    # an exact power-of-two rescale keeps the squared column norms from over- or underflowing
    r *= 2.0 ** -math.frexp(top)[1]
    piv = np.arange(k)
    for j in range(min(p, k - 1)):  # the last column has nothing left to pivot with
        tail = r[j:, j:k]
        norms = np.einsum("ij,ij->j", tail, tail)
        best = j + int(np.argmax(norms))
        if best != j:
            r[:, [j, best]] = r[:, [best, j]]
            piv[[j, best]] = piv[[best, j]]
        alpha = math.sqrt(norms[best - j])
        if j + 1 == p or alpha == 0.0:
            break
        x = r[j:, j]
        x0 = float(x[0])
        beta = -math.copysign(alpha, x0)
        v = x / (x0 - beta)
        v[0] = 1.0
        trailing = r[j:, j + 1:]
        trailing -= np.multiply.outer(v * ((beta - x0) / beta), v @ trailing)
        r[j, j] = beta
        x[1:] = 0.0
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > RANK_TOL * diag[0]))
    if rank < k:
        labels = ", ".join(names[j] for j in piv[rank:])
        raise EstimationError(f"rank-deficient design; collinear terms: {labels}")
    coef = np.empty((k, r.shape[1] - k))
    coef[piv] = np.linalg.solve(r[:, :k], r[:, k:])
    return coef[:, 0] if np.ndim(rhs) == 1 else coef


def wls_coefficients(
    design: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    names: tuple[str, ...],
) -> np.ndarray:
    """Coefficients of the ``weights``-weighted regression of ``response`` on ``design``.

    ``response`` may be a vector or a matrix of columns. Raises
    :class:`EstimationError` naming the collinear columns by their ``names`` on
    rank deficiency.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    sw = np.sqrt(np.asarray(weights, dtype=float))
    a = design * sw[:, None]
    b = response * (sw[:, None] if response.ndim > 1 else sw)
    return _pivoted_solve(a, b, names)


def wls_residualize(
    design: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    names: tuple[str, ...],
) -> np.ndarray:
    """Residuals of ``response`` columns after weighted projection on ``design``."""
    coef = wls_coefficients(design, response, weights, names)
    return np.asarray(response, dtype=float) - np.asarray(design, dtype=float) @ coef
