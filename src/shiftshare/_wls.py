"""Weighted least-squares primitives shared by the estimators.

All solves go through QR with column pivoting; a design is treated as rank
deficient when a pivoted diagonal entry falls below ``RANK_TOL`` times the
largest one, and the offending columns are named in the error.
"""

from __future__ import annotations

import numpy as np

from .errors import EstimationError

RANK_TOL = 1e-10


def _pivoted_solve(
    matrix: np.ndarray,
    rhs: np.ndarray,
    names: tuple[str, ...] | None,
    subject: str,
    deficiency: str,
) -> np.ndarray:
    """Least-squares solve of ``matrix @ coef = rhs`` by pivoted QR, rank-checked.

    ``subject`` and ``deficiency`` word the two errors: "<subject> matrix is
    identically zero" and "<deficiency>; collinear terms: ...".
    """
    import scipy.linalg  # here, not at module level: commands that never solve skip its import

    q, r, piv = scipy.linalg.qr(matrix, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        raise EstimationError(f"{subject} matrix is identically zero")
    rank = int(np.sum(diag > RANK_TOL * diag[0]))
    if rank < matrix.shape[1]:
        dropped = piv[rank:]
        labels = (
            ", ".join(names[j] for j in dropped)
            if names is not None
            else ", ".join(f"column {j}" for j in dropped)
        )
        raise EstimationError(f"{deficiency}; collinear terms: {labels}")
    coef_pivoted = scipy.linalg.solve_triangular(r, q.T @ rhs)
    coef = np.empty_like(coef_pivoted)
    coef[piv] = coef_pivoted
    return coef


def wls_coefficients(
    design: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    names: tuple[str, ...] | None = None,
) -> np.ndarray:
    """Coefficients of the ``weights``-weighted regression of ``response`` on ``design``.

    ``response`` may be a vector or a matrix of columns. Raises
    :class:`EstimationError` naming the collinear columns on rank deficiency.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    sw = np.sqrt(np.asarray(weights, dtype=float))
    a = design * sw[:, None]
    b = response * (sw[:, None] if response.ndim > 1 else sw)
    return _pivoted_solve(a, b, names, "design", "rank-deficient design")


def wls_residualize(
    design: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    names: tuple[str, ...] | None = None,
) -> np.ndarray:
    """Residuals of ``response`` columns after weighted projection on ``design``."""
    coef = wls_coefficients(design, response, weights, names)
    return np.asarray(response, dtype=float) - np.asarray(design, dtype=float) @ coef


def solve_square(
    matrix: np.ndarray,
    rhs: np.ndarray,
    names: tuple[str, ...] | None = None,
) -> np.ndarray:
    """Solve a square (possibly nonsymmetric) moment system with a rank check."""
    matrix = np.asarray(matrix, dtype=float)
    return _pivoted_solve(matrix, rhs, names, "moment", "singular moment system")

