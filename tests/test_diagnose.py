"""Balance tests, dependence measures, concentration, and the composite summary."""

import numpy as np
import pytest

from shiftshare import (
    Dataset,
    EstimationError,
    ShareMatrix,
    ShiftTable,
    ValidationError,
    aggregate_placebo,
    autocorrelation,
    balance_test_shift,
    balance_test_unit,
    concentration,
    icc,
    residualize_shifts,
    shift_summary,
    shift_weights_from,
    to_long_form,
)

from conftest import random_share_matrix, shift_ids, unit_ids


class TestConcentration:
    def test_equal_clusters(self):
        k = 8
        report = concentration(np.full(k, 0.125))
        assert report.max_share_ratio == pytest.approx(1.0 / k, abs=1e-15)
        assert report.max_share_sq_ratio == pytest.approx(1.0 / k, abs=1e-15)
        assert report.inverse_hhi == pytest.approx(k, abs=1e-12)

    def test_hand_arithmetic(self):
        report = concentration(np.array([3.0, 1.0]))
        assert report.max_share_ratio == pytest.approx(0.75, abs=1e-15)
        assert report.max_share_sq_ratio == pytest.approx(0.9, abs=1e-15)
        assert report.inverse_hhi == pytest.approx(1.6, abs=1e-15)

    def test_single_cluster_degenerate(self):
        report = concentration(np.array([0.4]))
        assert report.max_share_ratio == 1.0
        assert report.max_share_sq_ratio == 1.0
        assert report.inverse_hhi == 1.0

    def test_cluster_aggregation(self):
        report = concentration(np.array([0.2, 0.1, 0.4, 0.3]),
                               clusters=["a", "a", "b", "b"])
        assert report.cluster_level
        assert report.n == 2
        assert report.max_share_ratio == pytest.approx(0.7, abs=1e-15)

    def test_bound_and_equality_condition(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 12))
            w = rng.uniform(0.01, 1.0, size=k)
            report = concentration(w)
            assert report.inverse_hhi <= k + 1e-12
            assert 0.0 < report.max_share_ratio <= 1.0
        equal = concentration(np.full(5, 0.3))
        assert equal.inverse_hhi == pytest.approx(5.0, abs=1e-12)

    def test_relabeling_invariance(self, rng):
        w = rng.uniform(0.1, 1.0, size=6)
        perm = rng.permutation(6)
        a = concentration(w)
        b = concentration(w[perm])
        assert a.inverse_hhi == pytest.approx(b.inverse_hhi, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError, match="zero"):
            concentration(np.zeros(3))


class TestIcc:
    def test_within_group_constant(self):
        values = np.array([1.0, 1.0, 1.0, 5.0, 5.0, 5.0, -2.0, -2.0, -2.0])
        groups = np.repeat(["a", "b", "c"], 3)
        result = icc(values, groups, bootstrap_draws=200, seed=0)
        assert result.icc == pytest.approx(1.0, abs=1e-12)

    def test_balanced_two_group_hand_anova(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        groups = np.array(["a", "a", "b", "b"])
        result = icc(values, groups, bootstrap_draws=100, seed=0)
        # hand ANOVA: means 1.5 and 3.5, grand 2.5
        ssb = 2 * (1.5 - 2.5) ** 2 + 2 * (3.5 - 2.5) ** 2  # 4.0
        ssw = 0.5 + 0.5  # 1.0
        msb = ssb / 1
        msw = ssw / 2
        kbar = 2.0
        oracle = (msb - msw) / (msb + (kbar - 1) * msw)
        assert result.icc == pytest.approx(oracle, abs=1e-12)

    def test_iid_values_near_zero(self):
        gen = np.random.default_rng(42)
        values = gen.normal(size=400)
        groups = np.repeat([f"g{k}" for k in range(40)], 10)
        result = icc(values, groups, bootstrap_draws=300, seed=1)
        assert abs(result.icc) < 3 * max(result.se, 0.02)

    def test_degenerate_grouping_rejected(self):
        with pytest.raises(ValidationError, match="groups"):
            icc(np.array([1.0, 2.0, 3.0]), np.array(["a", "b", "c"]))

    def test_bootstrap_se_reproducible(self, rng):
        values = rng.normal(size=60)
        groups = np.repeat([f"g{k}" for k in range(6)], 10)
        a = icc(values, groups, bootstrap_draws=150, seed=7)
        b = icc(values, groups, bootstrap_draws=150, seed=7)
        assert a.se == b.se


class TestAutocorrelation:
    def test_identity_series(self):
        # D_{j,t} identical to D_{j,t-1}
        values = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        series = np.array(["a", "b", "c", "a", "b", "c"])
        periods = np.array(["2000", "2000", "2000", "2001", "2001", "2001"])
        result = autocorrelation(values, series, periods, lag=1)
        assert result.correlation == pytest.approx(1.0, abs=1e-12)
        assert result.p_value == 0.0

    def test_alternating_series(self):
        T = 8
        values = np.array([(-1.0) ** t for t in range(T)] * 2)
        series = np.repeat(["a", "b"], T)
        periods = np.array([str(2000 + t) for t in range(T)] * 2)
        values = np.concatenate([[(-1.0) ** t for t in range(T)],
                                 [(-1.0) ** t for t in range(T)]])
        result = autocorrelation(values, series, periods, lag=1)
        assert result.correlation == pytest.approx(-1.0, abs=1e-12)

    def test_iid_near_zero(self):
        gen = np.random.default_rng(3)
        m, T = 100, 6
        series = np.repeat([f"s{j}" for j in range(m)], T)
        periods = np.tile([str(2000 + t) for t in range(T)], m)
        values = gen.normal(size=m * T)
        result = autocorrelation(values, series, periods, lag=1)
        assert result.n_pairs == m * (T - 1)
        assert abs(result.correlation) < 0.1

    def test_lag_two_period_two_series(self):
        # D_t = D_{t-2} exactly: lag-2 pairs line up identical values
        values = np.array([1.0, 5.0, 1.0, 5.0, 1.0, 5.0])
        series = np.array(["a"] * 6)
        periods = np.array(["2000", "2001", "2002", "2003", "2004", "2005"])
        result = autocorrelation(values, series, periods, lag=2)
        assert result.n_pairs == 4
        assert result.correlation == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_pairs(self):
        with pytest.raises(ValidationError, match="pairs"):
            autocorrelation(np.array([1.0, 2.0]), np.array(["a", "a"]),
                            np.array(["2000", "2001"]), lag=1)

    @pytest.mark.parametrize("periods, first, second", [
        (["2019q1", "2019q2", "2020q1"], "2019q1", "2020q1"),  # both read as period 1
        (["2000", "2001", "2000"], "2000", "2000"),
    ])
    def test_two_shifts_of_one_series_at_one_period_rejected(self, periods, first, second):
        series = np.repeat(["a", "b", "c"], 3)
        with pytest.raises(ValidationError, match=f"^series 'a' has two shifts at one period: "
                                                  f"'{first}' and '{second}'$"):
            autocorrelation(np.arange(1.0, 10.0), series, np.array(periods * 3), lag=1)

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1e400", "spring"])
    def test_period_without_a_finite_reading_rejected(self, label):
        # a NaN period pairs with nothing and never equals another, so it went unnoticed;
        # a label without a trailing number has no reading at all
        series = np.repeat(["a", "b", "c"], 4)
        with pytest.raises(ValidationError,
                           match=f"^period label '{label}' is not a finite number$"):
            autocorrelation(np.arange(1.0, 13.0), series,
                            np.array([label, label, "1", "2"] * 3), lag=1)


class TestBalanceUnit:
    def test_self_regression_coefficient_one(self, rng):
        n = 50
        shares = random_share_matrix(rng, n, 20, complete=True)
        d = rng.normal(size=20)
        w_j = np.full(n, 1.0 / n) @ shares.weights
        eta = d - np.sum(w_j * d) / w_j.sum()
        variable = shares.weights @ eta
        result = balance_test_unit(variable, variable, shares=shares, eta_hat=eta)
        assert result.coefficient == pytest.approx(1.0, rel=1e-10)

    def test_constant_placebo_degenerate(self, rng):
        n = 30
        variable = rng.normal(size=n)
        result = balance_test_unit(np.full(n, 2.0), variable, se_mode="conventional")
        assert result.degenerate
        assert result.coefficient == 0.0
        assert result.se == 0.0

    def test_conventional_cluster_labels(self, rng):
        n = 40
        variable = rng.normal(size=n)
        placebo = rng.normal(size=n)
        result = balance_test_unit(placebo, variable, se_mode="conventional",
                                   cluster=[f"c{i % 5}" for i in range(n)])
        assert result.se > 0

    def test_wrong_length_conventional_cluster_labels_rejected(self, rng):
        n = 40
        with pytest.raises(ValidationError, match="one entry per unit"):
            balance_test_unit(rng.normal(size=n), rng.normal(size=n), se_mode="conventional",
                              cluster=[f"c{i % 5}" for i in range(n + 1)])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_zero_unit_weights_rejected(self, rng):
        # checked before the division by their sum, which would warn and give nan
        with pytest.raises(ValidationError, match="must not all be zero"):
            balance_test_unit(rng.normal(size=5), rng.normal(size=5), se_mode="conventional",
                              unit_weights=np.zeros(5))

    def test_exposure_size_monte_carlo(self):
        # placebo independent of the instrument by construction; the
        # exposure-robust test is asymptotic in the number of shifts, so the
        # geometry needs both n and m large for nominal size
        reps, rejections = 1000, 0
        for rep in range(reps):
            gen = np.random.default_rng(50_000 + rep)
            n, m = 400, 2000
            w = gen.dirichlet(np.ones(m), size=n)
            shares = ShareMatrix(w, unit_ids(n), shift_ids(m))
            d = gen.normal(size=m)
            w_j = np.full(n, 1.0 / n) @ w
            eta = d - np.sum(w_j * d) / w_j.sum()
            variable = w @ eta
            placebo = gen.normal(size=n)
            result = balance_test_unit(placebo, variable, shares=shares, eta_hat=eta)
            rejections += result.p_value <= 0.05
        rate = rejections / reps
        assert 0.03 <= rate <= 0.07, rate


class TestBalanceShift:
    def setup_case(self, rng, m=40):
        w_j = rng.uniform(0.2, 1.0, size=m)
        w_j = w_j / w_j.sum()
        covs = rng.normal(size=(m, 1))
        shifts = ShiftTable(1.0 + covs[:, 0] * 0.5 + rng.normal(size=m),
                            shift_ids(m), covariates=covs)
        res = residualize_shifts(shifts, ("p_1",), w_j)
        return shifts, res, w_j

    def test_partialled_covariate_coefficient_zero(self, rng):
        shifts, res, w_j = self.setup_case(rng)
        result = balance_test_shift(shifts.covariates[:, 0], res.eta_hat, w_j)
        assert abs(result.coefficient) < 1e-10

    def test_self_regression_coefficient_one(self, rng):
        shifts, res, w_j = self.setup_case(rng)
        result = balance_test_shift(res.eta_hat, res.eta_hat, w_j)
        assert result.coefficient == pytest.approx(1.0, rel=1e-10)

    def test_size_monte_carlo(self):
        reps, rejections = 1000, 0
        for rep in range(reps):
            gen = np.random.default_rng(90_000 + rep)
            m = 300
            w_j = np.full(m, 1.0 / m)
            d = gen.normal(size=m)
            eta = d - d.mean()
            placebo = gen.normal(size=m)
            result = balance_test_shift(placebo, eta, w_j)
            rejections += result.p_value <= 0.05
        rate = rejections / reps
        assert 0.03 <= rate <= 0.07, rate

    def test_clustered_se(self, rng):
        shifts, res, w_j = self.setup_case(rng, m=30)
        labels = [f"c{j % 5}" for j in range(30)]
        clustered = balance_test_shift(rng.normal(size=30), res.eta_hat, w_j,
                                       cluster=labels)
        assert clustered.se > 0


def test_balance_tests_over_one_cluster_fail(rng):
    # one cluster's score sum is zero by construction, which gave se ~1e-17 and p = 0
    n, m = 60, 12
    shares = ShareMatrix(rng.dirichlet(np.ones(m), size=n), unit_ids(n), shift_ids(m))
    w_j = shares.aggregate(np.full(n, 1.0 / n))
    eta = rng.normal(size=m)
    eta -= np.sum(w_j * eta) / w_j.sum()
    one = ["c0"] * m
    with pytest.raises(EstimationError, match="at least 2 shift clusters"):
        balance_test_unit(rng.normal(size=n), shares.exposure(eta), shares=shares,
                          eta_hat=eta, cluster=one)
    with pytest.raises(EstimationError, match="at least 2 shift clusters"):
        balance_test_shift(rng.normal(size=m), eta, w_j, cluster=one)


class TestAggregatePlacebo:
    @pytest.mark.parametrize("weights", [[1.0, -1.0, 1.0], [np.nan, 1.0, 1.0], [0.0, 0.0, 0.0],
                                         [1.0, 1.0]])
    def test_bad_unit_weights_rejected(self, rng, weights):
        shares = random_share_matrix(rng, 3, 2, complete=True)
        with pytest.raises(ValidationError, match="unit weights"):
            aggregate_placebo(rng.normal(size=3), shares, np.array(weights))

    def test_matches_manual_sum(self, rng):
        # a unit variable is aggregated as it is, not partialled as ``invert`` does
        n, m = 12, 5
        for shares in (random_share_matrix(rng, n, m, complete=True),
                       ShareMatrix(np.full((n, m), 1.0 / m), unit_ids(n), shift_ids(m)),
                       ShareMatrix(np.array([[0.5, 0.5]]), unit_ids(1), shift_ids(2))):
            t = rng.normal(size=shares.n_units)
            e = rng.uniform(0.5, 1.5, size=shares.n_units)
            e = e / e.sum()
            out = aggregate_placebo(t, shares, e)
            for j in range(shares.n_shifts):
                w_j = np.sum(e * shares.weights[:, j])
                assert out[j] == pytest.approx(
                    np.sum(e * shares.weights[:, j] * t) / w_j, rel=1e-12
                )


class TestShiftSummary:
    def build_panel(self, rng, m=4, T=5):
        shares, shifts = [], []
        ids = shift_ids(m)
        for _ in range(T):
            w = rng.dirichlet(np.ones(m), size=6)
            shares.append(ShareMatrix(w, unit_ids(6), ids))
            shifts.append(ShiftTable(rng.normal(1.0, 2.0, size=m), ids,
                                     cluster=[f"g{j % 2}" for j in range(m)]))
        periods = [str(2000 + t) for t in range(T)]
        return to_long_form(shares, shifts, periods=periods)

    def test_residualized_mean_zero(self, rng):
        long_shares, long_shifts = self.build_panel(rng)
        ds = Dataset(outcome=rng.normal(size=long_shares.n_units),
                     unit_ids=long_shares.row_ids)
        w_j = shift_weights_from(ds, long_shares)
        res = residualize_shifts(long_shifts, ("cluster", "period"), w_j)
        summary = shift_summary(long_shifts, w_j, residuals=res, lags=(1,))
        assert abs(summary.weighted_mean) < 1e-8
        assert summary.sse_ratio == res.sse_ratio

    def test_raw_equals_residualized_when_unfit(self, rng):
        m = 10
        values = rng.normal(size=m)
        values = values - values.mean()
        shifts = ShiftTable(values, shift_ids(m))
        w = np.ones(m)
        res = residualize_shifts(shifts, (), w)  # the intercept fits no variation
        summary = shift_summary(shifts, w, residuals=res, lags=())
        assert summary.sse_ratio == 1.0
        assert summary.weighted_mean == pytest.approx(0.0, abs=1e-12)

    def test_composite_matches_component_oracles(self, rng):
        long_shares, long_shifts = self.build_panel(rng)
        w_j = np.full(long_shifts.n_shifts, 1.0)
        summary = shift_summary(long_shifts, w_j, lags=(1, 2))
        mean = np.average(long_shifts.values, weights=w_j)
        sd = np.sqrt(np.average((long_shifts.values - mean) ** 2, weights=w_j))
        assert summary.weighted_mean == pytest.approx(mean, rel=1e-12)
        assert summary.weighted_sd == pytest.approx(sd, rel=1e-12)
        series = np.array([sid.rsplit("@", 1)[0] for sid in long_shifts.shift_ids])
        oracle = autocorrelation(long_shifts.values, series, long_shifts.period, 1)
        assert summary.autocorrelations[1].correlation == oracle.correlation
        assert summary.to_dict()["icc"] == {}
