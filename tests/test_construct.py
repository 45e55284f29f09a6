"""Exposure construction, decomposition, completion, replacement,
residualization, and leave-one-out instruments."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftshare import (
    EstimationError,
    ShareMatrix,
    ShiftShareWarning,
    ShiftTable,
    ValidationError,
    build_exposure,
    complete_shares,
    decompose,
    leave_one_out_shifts,
    replace_shifts,
    residualize_shifts,
)
from shiftshare._wls import wls_coefficients

from conftest import every_cell, random_share_matrix, shift_ids, unit_ids


def table(values, **kw):
    values = np.asarray(values, dtype=float)
    return ShiftTable(values, shift_ids(values.shape[0]), **kw)


class TestBuildExposure:
    def test_zero_shares(self):
        with pytest.warns(ShiftShareWarning):
            shares = ShareMatrix(np.zeros((3, 2)), unit_ids(3), shift_ids(2))
        assert build_exposure(shares, table([1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]

    def test_single_full_share(self):
        shares = ShareMatrix(np.ones((4, 1)), unit_ids(4), shift_ids(1))
        assert build_exposure(shares, table([3.5])).tolist() == [3.5] * 4

    def test_hand_dot_product(self):
        shares = ShareMatrix(np.array([[0.5, 0.5], [0.2, 0.3]]), unit_ids(2), shift_ids(2))
        x = build_exposure(shares, table([1.0, 2.0]))
        assert np.allclose(x, [1.5, 0.8], rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        shares = ShareMatrix(np.array([[0.5, 0.5]]), unit_ids(1), shift_ids(2))
        with pytest.raises(ValidationError, match="mismatch"):
            build_exposure(shares, table([1.0, 2.0, 3.0]))


class TestDecompose:
    def random_pair(self, rng, n=3, m=2):
        initial = random_share_matrix(rng, n, m)
        current = random_share_matrix(rng, n, m)
        d = rng.normal(size=(n, m))
        return initial, current, d

    def test_constant_shares_kill_share_change(self, rng):
        initial = random_share_matrix(rng, 4, 3)
        d = rng.normal(size=(4, 3))
        result = decompose(initial, initial, every_cell(d))
        assert np.allclose(result.share_change, 0.0, atol=1e-15)
        assert np.allclose(result.interaction, 0.0, atol=1e-15)
        assert np.allclose(result.total(), result.observed, rtol=1e-12)

    def test_reference_shifts_kill_shock(self, rng):
        initial, current, _ = self.random_pair(rng, 4, 3)
        ref = rng.normal(size=3)
        d = np.tile(ref, (4, 1))
        result = decompose(initial, current, every_cell(d), reference_shifts=ref)
        assert np.allclose(result.shock, 0.0, atol=1e-12)
        assert np.allclose(result.interaction, 0.0, atol=1e-12)
        assert np.allclose(result.total(), result.observed, rtol=1e-12)

    def test_components_sum_to_observed(self, rng):
        # direct evaluation oracle on random instances
        for _ in range(25):
            initial, current, d = self.random_pair(rng)
            result = decompose(initial, current, every_cell(d))
            observed = (current.weights * d).sum(axis=1)
            assert np.allclose(result.observed, observed, rtol=0, atol=1e-15)
            scale = np.maximum(np.abs(observed), 1e-12)
            assert np.max(np.abs(result.total() - observed) / scale) < 1e-12

    def test_default_reference_is_share_weighted_mean(self, rng):
        initial, current, d = self.random_pair(rng, 5, 3)
        result = decompose(initial, current, every_cell(d))
        mass = current.weights.sum(axis=0)
        expected_ref = (current.weights * d).sum(axis=0) / mass
        assert np.allclose(result.reference_shifts, expected_ref, rtol=1e-14)

    def test_nan_rejected(self, rng):
        initial, current, d = self.random_pair(rng)
        d[0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            decompose(initial, current, every_cell(d))

    def test_dimension_mismatch(self, rng):
        initial = random_share_matrix(rng, 3, 2)
        current = random_share_matrix(rng, 3, 3)
        with pytest.raises(ValidationError, match="mismatch"):
            decompose(initial, current, every_cell(np.zeros((3, 3))))

    def test_shares_listing_their_ids_in_another_order_are_rejected(self):
        """Both matrices are read by position, so the same shares under reordered ids
        would be matched to the wrong units and shifts."""
        initial = ShareMatrix([[0.5, 0.0], [0.25, 0.5]], ("a", "b"), ("s", "t"))
        current = ShareMatrix([[0.5, 0.25], [0.0, 0.5]], ("b", "a"), ("t", "s"))
        unit_shifts = every_cell([[1.0, 2.0], [3.0, 4.0]])
        for other in (current, ShareMatrix(current.weights, ("b", "a"), ("s", "t")),
                      ShareMatrix(current.weights, ("a", "b"), ("t", "s"))):
            with pytest.raises(ValidationError, match="id mismatch"):
                decompose(initial, other, unit_shifts)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [float, int])
    def test_dense_unit_shifts_rejected(self, rng, n, dtype):
        """A dense array is not read as triplets, even one with three integer rows."""
        shares = random_share_matrix(rng, n, 3)
        dense = np.eye(n, 3, dtype=dtype)
        with pytest.raises(ValidationError, match="triplet"):
            decompose(shares, shares, dense)
        with pytest.raises(ValidationError, match="triplet"):
            leave_one_out_shifts(dense, shares)


class TestCompleteShares:
    def test_already_complete(self, rng):
        shares = random_share_matrix(rng, 4, 3, complete=True)
        completed = complete_shares(shares)
        assert np.allclose(completed.shares.weights[:, -1], 0.0, atol=1e-12)
        assert np.allclose(completed.sum_of_shares, 1.0, atol=1e-12)

    def test_arithmetic_complement(self):
        shares = ShareMatrix(np.array([[0.4, 0.3]]), unit_ids(1), shift_ids(2))
        completed = complete_shares(shares)
        assert completed.shares.weights[0, 2] == pytest.approx(0.3, abs=1e-15)
        assert completed.sum_of_shares[0] == pytest.approx(0.7, abs=1e-15)

    def test_row_sum_scan(self, rng):
        shares = random_share_matrix(rng, 40, 7)
        completed = complete_shares(shares)
        assert np.max(np.abs(completed.shares.row_sums() - 1.0)) < 1e-12

    def test_appended_shift_and_indicator(self, rng):
        shares = random_share_matrix(rng, 5, 3)
        shifts = table(rng.normal(size=3), covariates=rng.normal(size=(3, 1)))
        completed = complete_shares(shares, shifts)
        st = completed.shifts
        assert st.values[-1] == 0.0
        assert st.covariate_names[-1] == "p_real"
        assert st.covariates[:, -1].tolist() == [1.0, 1.0, 1.0, 0.0]
        assert st.covariates[-1, 0] == 0.0
        # a second p_real column would be saved over the first
        with pytest.raises(ValidationError, match="'p_real' is reserved"):
            complete_shares(shares, table(np.zeros(3), covariates=np.ones(3),
                                          covariate_names=("p_real",)))

    def test_extra_label_columns_kept(self, rng):
        shares = random_share_matrix(rng, 5, 3)
        shifts = table(rng.normal(size=3), extras={"region": ["r0", "r1", "r0"]})
        completed = complete_shares(shares, shifts)
        assert completed.shifts.label_column("region").tolist() == [
            "r0", "r1", "r0", "__complement__"
        ]

    def test_exposure_unchanged(self, rng):
        shares = random_share_matrix(rng, 6, 4)
        shifts = table(rng.normal(size=4))
        completed = complete_shares(shares, shifts)
        x_before = build_exposure(shares, shifts)
        x_after = build_exposure(completed.shares, completed.shifts)
        assert np.array_equal(x_before, x_after)


class TestReplaceShifts:
    def test_zero_threshold_no_replacement(self, rng):
        shifts = table(rng.normal(size=5))
        result = replace_shifts(shifts, rng.uniform(0, 0.1, size=5), threshold=0.0)
        assert result.n_replaced == 0
        assert np.array_equal(result.shifts.values, shifts.values)

    def test_direct_rule(self):
        shifts = table([3.0, -1.0])
        result = replace_shifts(shifts, np.array([0.01, 0.05]), threshold=0.03)
        assert result.shifts.values.tolist() == [0.0, -1.0]
        assert result.replaced_fraction == 0.5

    def test_matches_filter_oracle(self, rng):
        for _ in range(20):
            m = int(rng.integers(3, 40))
            shifts = table(rng.normal(size=m))
            agg = rng.uniform(0, 0.08, size=m)
            result = replace_shifts(shifts, agg, threshold=0.03)
            oracle = np.array([a < 0.03 for a in agg])
            assert np.array_equal(result.replaced, oracle)
            assert np.array_equal(result.shifts.values == 0.0, oracle | (shifts.values == 0.0))

    def test_never_touches_large_shares(self, rng):
        shifts = table(rng.normal(size=10) + 5.0)
        agg = rng.uniform(0.03, 1.0, size=10)
        result = replace_shifts(shifts, agg, threshold=0.03)
        assert np.array_equal(result.shifts.values, shifts.values)

    def test_misaligned_lengths(self):
        with pytest.raises(ValidationError, match="misaligned"):
            replace_shifts(table([1.0, 2.0]), np.array([0.1]), threshold=0.03)

    def test_bad_threshold(self):
        with pytest.raises(ValidationError, match="threshold"):
            replace_shifts(table([1.0]), np.array([0.5]), threshold=1.0)

    def test_share_column_mirror(self, rng):
        shares = random_share_matrix(rng, 4, 3)
        mask = np.array([True, False, False])
        zeroed = shares.zero_columns(mask)
        assert np.all(zeroed.weights[:, 0] == 0.0)
        assert np.array_equal(zeroed.weights[:, 1:], shares.weights[:, 1:])


class TestResidualizeShifts:
    def test_intercept_only_is_weighted_centering(self, rng):
        m = 9
        shifts = table(rng.normal(2.0, 1.0, size=m))
        w = rng.uniform(0.1, 1.0, size=m)
        res = residualize_shifts(shifts, (), w)
        mean = np.sum(w * shifts.values) / w.sum()
        assert np.allclose(res.eta_hat, shifts.values - mean, rtol=1e-14)
        assert abs(np.sum(w * res.eta_hat)) < 1e-10

    def test_perfect_fit(self, rng):
        m = 12
        covs = rng.normal(size=(m, 2))
        values = 1.0 + covs @ np.array([2.0, -0.5])
        shifts = table(values, covariates=covs)
        w = rng.uniform(0.5, 1.5, size=m)
        res = residualize_shifts(shifts, ("p_1", "p_2"), w)
        assert np.max(np.abs(res.eta_hat)) < 1e-10
        assert res.sse_ratio == pytest.approx(0.0, abs=1e-12)

    def test_two_way_matches_dense_dummy_oracle(self, rng):
        # 3 groups x 4 periods, fully crossed
        groups = np.repeat([f"g{k}" for k in range(3)], 4)
        periods = np.tile([f"{2000 + t}" for t in range(4)], 3)
        m = 12
        values = rng.normal(size=m) * 3.0
        w = rng.uniform(0.2, 2.0, size=m)
        shifts = table(values, cluster=groups, period=periods)
        res = residualize_shifts(shifts, ("cluster", "period"), w)
        # dense weighted dummy regression oracle
        dummies = [np.ones(m)]
        for g in np.unique(groups)[1:]:
            dummies.append((groups == g).astype(float))
        for t in np.unique(periods)[1:]:
            dummies.append((periods == t).astype(float))
        design = np.column_stack(dummies)
        sw = np.sqrt(w)
        coef, *_ = np.linalg.lstsq(design * sw[:, None], values * sw, rcond=None)
        oracle = values - design @ coef
        assert np.max(np.abs(res.eta_hat - oracle)) < 1e-10
        assert abs(np.sum(w * res.eta_hat)) < 1e-10

    def test_unbalanced_two_way_matches_oracle(self, rng):
        m = 30
        groups = rng.choice([f"g{k}" for k in range(4)], size=m)
        periods = rng.choice([f"{2000 + t}" for t in range(5)], size=m)
        values = rng.normal(size=m)
        w = rng.uniform(0.1, 1.0, size=m)
        shifts = table(values, cluster=groups, period=periods)
        res = residualize_shifts(shifts, ("cluster", "period"), w)
        dummies = [np.ones(m)]
        for g in np.unique(groups)[1:]:
            dummies.append((groups == g).astype(float))
        for t in np.unique(periods)[1:]:
            dummies.append((periods == t).astype(float))
        design = np.column_stack(dummies)
        sw = np.sqrt(w)
        coef, *_ = np.linalg.lstsq(design * sw[:, None], values * sw, rcond=None)
        oracle = values - design @ coef
        assert np.max(np.abs(res.eta_hat - oracle)) < 1e-9

    def test_idempotent(self, rng):
        m = 16
        covs = rng.normal(size=(m, 1))
        shifts = table(rng.normal(size=m), cluster=[f"g{j % 3}" for j in range(m)],
                       covariates=covs)
        w = rng.uniform(0.5, 1.5, size=m)
        res = residualize_shifts(shifts, ("cluster", "p_1"), w)
        again = residualize_shifts(shifts.with_values(res.eta_hat), ("cluster", "p_1"), w)
        assert np.max(np.abs(again.eta_hat - res.eta_hat)) < 1e-10

    def test_collinear_covariates_named(self, rng):
        m = 8
        base = rng.normal(size=m)
        covs = np.column_stack([base, 2.0 * base])
        shifts = table(rng.normal(size=m), covariates=covs)
        with pytest.raises(EstimationError, match="p_2|p_1"):
            residualize_shifts(shifts, ("p_1", "p_2"), np.ones(m))

    def test_covariate_absorbed_by_fe_named(self):
        groups = np.array(["a", "a", "b", "b"])
        covs = np.array([[1.0], [1.0], [3.0], [3.0]])  # constant within group
        shifts = table(np.array([1.0, 2.0, 3.0, 4.0]), cluster=groups, covariates=covs)
        with pytest.raises(EstimationError, match="p_1"):
            residualize_shifts(shifts, ("cluster", "p_1"), np.ones(4))

    def test_fitted_plus_residual(self, rng):
        m = 10
        shifts = table(rng.normal(size=m), cluster=[f"g{j % 2}" for j in range(m)])
        res = residualize_shifts(shifts, ("cluster",), rng.uniform(0.5, 1, size=m))
        assert np.allclose(res.fitted + res.eta_hat, shifts.values, rtol=1e-14)

    def test_unknown_term(self):
        with pytest.raises(ValidationError, match="nope"):
            residualize_shifts(table([1.0, 2.0]), ("nope",), np.ones(2))

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(12, 40),
        spec=st.sampled_from([(), ("p_1",), ("p_1", "p_2"), ("cluster",), ("cluster", "p_1"),
                              ("cluster", "period"), ("cluster", "period", "p_1")]),
        k=st.sampled_from([-40, -20, 20, 40]),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_scale_scales_residuals_exactly(self, seed, m, spec, k):
        # unbalanced labels and random weights; every tolerance is relative to the
        # data, so a power-of-two rescale of shifts and covariates changes no decision
        rng = np.random.default_rng(seed)
        labels = {
            "cluster": rng.choice([f"g{g}" for g in range(rng.integers(2, 6))], size=m),
            "period": rng.choice([f"{2000 + t}" for t in range(rng.integers(2, 5))], size=m),
        }
        values = rng.normal(0.5, 2.0, size=m)
        covs = rng.normal(size=(m, 2)) * [1.0, 7.0]
        w = rng.uniform(0.05, 2.0, size=m)
        base = residualize_shifts(table(values, covariates=covs, **labels), spec, w)
        scaled = residualize_shifts(
            table(values * 2.0**k, covariates=covs * 2.0**k, **labels), spec, w
        )
        assert np.array_equal(scaled.eta_hat, base.eta_hat * 2.0**k)
        assert scaled.sse_ratio == base.sse_ratio


class TestLeaveOneOut:
    def test_two_units_swap(self):
        w = np.array([[0.6, 0.4], [0.5, 0.5]])
        shares = ShareMatrix(w, unit_ids(2), shift_ids(2))
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        loo = leave_one_out_shifts(every_cell(d), shares)
        # each unit's estimated shift is exactly the other unit's value
        assert np.allclose(loo.z[0], w[0] @ d[1], rtol=1e-14)
        assert np.allclose(loo.z[1], w[1] @ d[0], rtol=1e-14)

    def test_identical_values_match_full_sample(self, rng):
        n, m = 6, 3
        shares = random_share_matrix(rng, n, m)
        d_common = rng.normal(size=m)
        d = np.tile(d_common, (n, 1))
        loo = leave_one_out_shifts(every_cell(d), shares)
        full = shares.weights @ d_common
        assert np.allclose(loo.z, full, rtol=1e-12)

    def test_matches_per_unit_recompute_oracle(self, rng):
        n, m = 5, 3
        shares = random_share_matrix(rng, n, m)
        d = rng.normal(size=(n, m))
        loo = leave_one_out_shifts(every_cell(d), shares)
        w = shares.weights
        for k in range(n):
            z_k = 0.0
            for j in range(m):
                others = [i for i in range(n) if i != k]
                denom = sum(w[i, j] for i in others)
                if denom > 0:
                    z_k += w[k, j] * sum(w[i, j] * d[i, j] for i in others) / denom
            assert loo.z[k] == pytest.approx(z_k, rel=1e-12)

    def test_unnormalized_matches_plain_sum(self, rng):
        n, m = 5, 3
        shares = random_share_matrix(rng, n, m)
        d = rng.normal(size=(n, m))
        loo = leave_one_out_shifts(every_cell(d), shares, normalize=False)
        w = shares.weights
        for k in range(n):
            z_k = sum(
                w[k, j] * sum(w[i, j] * d[i, j] for i in range(n) if i != k)
                for j in range(m)
            )
            assert loo.z[k] == pytest.approx(z_k, rel=1e-12)

    def test_single_owner_shift_flagged(self):
        w = np.array([[0.5, 0.5], [0.8, 0.0]])
        shares = ShareMatrix(w, unit_ids(2), shift_ids(2))
        d = np.array([[1.0, 2.0], [3.0, 0.0]])
        with pytest.warns(ShiftShareWarning, match="leave-one-out"):
            loo = leave_one_out_shifts(every_cell(d), shares)
        assert loo.undefined.tolist() == [False, True, False]  # the shares (0, 0), (0, 1), (1, 0)
        assert loo.n_undefined == 1
        # flagged pair excluded; remaining shift still contributes
        assert loo.z[0] == pytest.approx(0.5 * 3.0, rel=1e-14)


def test_unit_shifts_of_a_large_sparse_share_matrix_are_never_made_dense():
    """200,000 units over 5,000 shifts, one share each, with unit shifts at every share
    and at as many pairs without one, given in no order: a dense array of the unit shifts
    would take 8 GB. ``decompose`` and ``leave_one_out_shifts`` take less than 64 MB."""
    n, m = 200_000, 5_000
    gen = np.random.default_rng(0)
    row_ids, col_ids = tuple(f"u{i}" for i in range(n)), tuple(f"s{j}" for j in range(m))
    col = gen.integers(0, m, size=n)
    w = gen.uniform(size=n)
    shares = ShareMatrix.from_triplets(np.arange(n), col, w, row_ids, col_ids)
    d = gen.normal(size=n)
    order = gen.permutation(2 * n)
    unit_shifts = (np.tile(np.arange(n), 2)[order],
                   np.concatenate([col, (col + 1) % m])[order],
                   np.concatenate([d, gen.normal(size=n)])[order])
    tracemalloc.start()
    try:
        result = decompose(shares, shares, unit_shifts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShiftShareWarning)  # a shift held by one unit
            loo = leave_one_out_shifts(unit_shifts, shares)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.array_equal(result.observed, w * d)
    # each unit's leave-one-out shift, summed in another order: within 1e-12 of its shift's
    # absolute mass, since the sum less the unit's own term can cancel
    wd = w * d
    others = np.bincount(col, w, m)[col] - w
    undefined = others <= 0
    mass = np.where(undefined, 1.0, others)
    expected = np.where(undefined, 0.0, (np.bincount(col, wd, m)[col] - wd) / mass)
    assert loo.undefined.shape == (n,) and np.array_equal(loo.undefined, undefined)
    bound = 1e-12 * w * np.bincount(col, abs(wd), m)[col] / mass
    assert np.all(np.abs(loo.z - w * expected) <= bound)
