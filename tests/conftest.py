"""Shared instance builders for the test suite."""

import numpy as np
import pytest

from shiftshare import (
    Dataset,
    ShareMatrix,
    ShiftTable,
    build_exposure,
    complete_shares,
)


def unit_ids(n):
    return tuple(f"u{i}" for i in range(n))


def shift_ids(m):
    return tuple(f"s{j}" for j in range(m))


def every_cell(array):
    """The ``(rows, cols, values)`` triplets of every cell of a 2-D array, zeros included."""
    array = np.asarray(array, dtype=float)
    rows, cols = np.indices(array.shape).reshape(2, -1)
    return rows, cols, array.ravel()


def random_share_matrix(rng, n, m, complete=False, min_scale=0.3):
    raw = rng.gamma(1.0, 1.0, size=(n, m))
    w = raw / raw.sum(axis=1, keepdims=True)
    if not complete:
        w = w * rng.uniform(min_scale, 1.0, size=(n, 1))
    return ShareMatrix(w, unit_ids(n), shift_ids(m))


def matched_instance(rng, n, m, n_covariates=2, beta=1.7, extra_unit_control=True,
                     endog_noise=0.4, n_clusters=4):
    """Random instance with completed shares and matched (aggregated) controls.

    This is the geometry under which the point-estimate and standard-error
    equivalences are exact: unit controls contain the aggregated shift-level
    covariates (including the completion indicator aggregate).
    """
    shares0 = random_share_matrix(rng, n, m)
    covs = rng.normal(size=(m, n_covariates))
    shifts0 = ShiftTable(
        rng.normal(0.5, 1.5, size=m),
        shift_ids(m),
        cluster=[f"c{j % n_clusters}" for j in range(m)],
        covariates=covs,
    )
    completed = complete_shares(shares0, shifts0)
    shares, shifts = completed.shares, completed.shifts

    e = rng.uniform(0.5, 2.0, size=n)
    z = build_exposure(shares, shifts)
    x = z + endog_noise * rng.normal(size=n)
    aggregated = np.column_stack([shares.exposure(p) for p in shifts.covariates.T])
    blocks = [aggregated]
    if extra_unit_control:
        blocks.insert(0, rng.normal(size=(n, 1)))
    controls = np.hstack(blocks)
    y = beta * x + controls @ rng.normal(size=controls.shape[1]) + rng.normal(size=n)
    dataset = Dataset(
        outcome=y,
        unit_ids=unit_ids(n),
        regressor=x,
        controls=controls,
        unit_weights=e,
    )
    return {
        "shares": shares,
        "shifts": shifts,
        "dataset": dataset,
        "instrument": z,
        "beta": beta,
        "incomplete_shares": shares0,
        "sum_of_shares": completed.sum_of_shares,
    }


@pytest.fixture(autouse=True)
def _own_cache_dir(tmp_path_factory, monkeypatch):
    """Each test gets an empty input cache of its own, never the user's."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)
