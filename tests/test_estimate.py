"""Estimators, standard errors, and the algebraic equivalence properties."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftshare.estimate
from shiftshare import (
    Dataset,
    EstimationError,
    InvertedDataset,
    ShareMatrix,
    ShiftShareWarning,
    ShiftTable,
    ValidationError,
    balance_test_shift,
    build_exposure,
    complete_shares,
    effective_f,
    estimate_inverted,
    estimate_shift_framework,
    gmm_share_instruments,
    invert,
    residualize_shifts,
    residualized_se,
    residualized_se_clustered,
    rotemberg,
    shift_weights_from,
    shiftshare_2sls,
    shiftshare_ols,
)
from shiftshare._wls import RANK_TOL, _pivoted_solve, wls_coefficients
from shiftshare.estimate import _partialled_iv
from shiftshare.simulate import DgpConfig, generate

from conftest import matched_instance, random_share_matrix, shift_ids, unit_ids


def simple_dataset(rng, n, controls=None, weights=None, y=None, x=None):
    return Dataset(
        outcome=rng.normal(size=n) if y is None else y,
        unit_ids=unit_ids(n),
        regressor=x,
        controls=controls,
        unit_weights=weights,
    )


def textbook_iv(regressors, instruments, response, weights, codes, correction):
    """Reference just-identified weighted IV: the explicit moment solve and the
    cluster sandwich ``(Q'E R)^-1 meat (Q'E R)^-T``. Returns the coefficients
    and the corrected SE of the first one."""
    qe = instruments * weights[:, None]
    bread = np.linalg.inv(qe.T @ regressors)
    theta = bread @ (qe.T @ response)
    scores = qe * (response - regressors @ theta)[:, None]
    sums = np.zeros((codes.max() + 1, scores.shape[1]))
    np.add.at(sums, codes, scores)
    cov = bread @ (sums.T @ sums) @ bread.T * correction
    return theta, np.sqrt(cov[0, 0])


@st.composite
def iv_inputs(draw):
    """A generator, 8-80 observations, 0-3 control columns, random weights and,
    half the time, labels of 3 to n/2 clusters. Two clusters are left out: their
    score sums are exact negatives of each other, so one near-cancelled sum can make
    the first-stage F ill-conditioned (``test_two_cluster_first_stage_f``)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 80))
    controls = rng.normal(size=(n, draw(st.integers(0, 3))))
    weights = rng.uniform(0.2, 2.0, size=n)
    labels = None
    if draw(st.booleans()):
        g = draw(st.integers(3, n // 2))
        labels = np.array([f"c{i % g}" for i in rng.permutation(n)])
    return rng, n, controls, weights, labels


class TestOls:
    def test_exact_fit(self, rng):
        n = 20
        x = rng.normal(size=n)
        ds = simple_dataset(rng, n, y=2.0 * x)
        rep = shiftshare_ols(ds, x)
        assert rep.beta_hat == pytest.approx(2.0, abs=1e-12)
        assert rep.se_variants["conventional_hc"] == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_regressor(self, rng):
        n = 40
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        # make y exactly orthogonal to [1, x] under uniform weights
        design = np.column_stack([np.ones(n), x])
        y = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        rep = shiftshare_ols(simple_dataset(rng, n, y=y), x)
        assert abs(rep.beta_hat) < 1e-10

    def test_matches_normal_equations_oracle(self, rng):
        n = 50
        x = rng.normal(size=n)
        controls = rng.normal(size=(n, 2))
        e = rng.uniform(0.5, 2.0, size=n)
        y = 1.3 * x + controls @ [0.5, -1.0] + rng.normal(size=n)
        ds = simple_dataset(rng, n, controls=controls, weights=e, y=y)
        rep = shiftshare_ols(ds, x)
        design = np.column_stack([x, np.ones(n), controls])
        ew = ds.unit_weights
        oracle = np.linalg.solve(design.T @ (design * ew[:, None]), design.T @ (ew * y))
        assert rep.beta_hat == pytest.approx(oracle[0], abs=1e-10)
        assert np.allclose(rep.gamma_hat, oracle[1:], atol=1e-10)

    def test_cluster_counts_and_few_cluster_error(self, rng):
        n = 30
        x = rng.normal(size=n)
        y = x + rng.normal(size=n)
        ds = simple_dataset(rng, n, y=y)
        rep = shiftshare_ols(ds, x, cluster=[f"c{i % 5}" for i in range(n)])
        assert rep.n_clusters == 5
        assert "conventional_cluster" in rep.se_variants
        with pytest.raises(EstimationError, match="2 clusters"):
            shiftshare_ols(ds, x, cluster=["all"] * n)

    def test_wrong_length_cluster_labels_rejected(self, rng):
        n = 30
        x = rng.normal(size=n)
        ds = simple_dataset(rng, n, y=x + rng.normal(size=n), x=x)
        labels = [f"c{i % 5}" for i in range(n - 1)]
        with pytest.raises(ValidationError, match="one entry per unit"):
            shiftshare_2sls(ds, x + rng.normal(size=n), cluster=labels)
        with pytest.raises(ValidationError, match="one entry per unit"):
            shiftshare_ols(ds, x, cluster=labels)

    def test_hc1_matches_textbook(self, rng):
        n = 60
        x = rng.normal(size=n)
        y = 0.5 * x + rng.normal(size=n)
        ds = simple_dataset(rng, n, y=y)
        rep = shiftshare_ols(ds, x)
        design = np.column_stack([x, np.ones(n)])
        beta = np.linalg.lstsq(design, y, rcond=None)[0]
        resid = y - design @ beta
        bread = np.linalg.inv(design.T @ design)
        meat = design.T @ (design * (resid**2)[:, None])
        cov = bread @ meat @ bread * n / (n - 2)
        assert rep.se_variants["conventional_hc"] == pytest.approx(
            np.sqrt(cov[0, 0]), rel=1e-10
        )


class TestTwoStage:
    def test_self_instrumenting_identity(self, rng):
        for _ in range(10):
            n = int(rng.integers(15, 60))
            x = rng.normal(size=n)
            controls = rng.normal(size=(n, 2))
            y = x + controls @ [1.0, -0.5] + rng.normal(size=n)
            e = rng.uniform(0.5, 1.5, size=n)
            ds = simple_dataset(rng, n, controls=controls, weights=e, y=y)
            ols = shiftshare_ols(ds, x)
            iv = shiftshare_2sls(ds, x, regressor=x)
            assert iv.beta_hat == ols.beta_hat  # exact: same linear system
            assert np.array_equal(iv.residuals, ols.residuals)

    def test_perfect_first_stage(self, rng):
        n = 35
        z = rng.normal(size=n)
        x = z.copy()
        y = 2.0 * x + rng.normal(size=n)
        ds = simple_dataset(rng, n, y=y, x=x)
        rep = shiftshare_2sls(ds, z)
        ols_on_z = shiftshare_ols(simple_dataset(rng, n, y=y), z)
        assert rep.beta_hat == pytest.approx(ols_on_z.beta_hat, rel=1e-12)
        assert rep.first_stage_f["conventional"] > 1e10

    @settings(max_examples=150, deadline=None)
    @given(case=iv_inputs())
    def test_matches_explicit_2sls_oracle(self, case):
        rng, n, controls, e, labels = case
        z = rng.normal(size=n)
        x = 0.8 * z + rng.normal(size=n)
        y = 1.1 * x + controls @ rng.normal(size=controls.shape[1]) + rng.normal(size=n)
        ds = simple_dataset(rng, n, controls=controls if controls.shape[1] else None,
                            weights=e, y=y, x=x)
        rep = shiftshare_2sls(ds, z, cluster=labels)
        ew = ds.unit_weights
        unit_design = np.column_stack([np.ones(n), controls])
        codes = np.arange(n) if labels is None else np.unique(labels, return_inverse=True)[1]
        g, k = codes.max() + 1, 1 + unit_design.shape[1]
        correction = g / (g - 1) * (n - 1) / (n - k)
        instruments = np.column_stack([z, unit_design])
        theta, se = textbook_iv(np.column_stack([x, unit_design]), instruments, y, ew, codes,
                                correction)
        assert rep.beta_hat == pytest.approx(theta[0], rel=1e-8)
        assert np.max(np.abs(rep.gamma_hat - theta[1:])) <= 1e-8 * np.max(np.abs(theta))
        key = "conventional_hc" if labels is None else "conventional_cluster"
        assert rep.se_variants[key] == pytest.approx(se, rel=1e-8)
        pi, pi_se = textbook_iv(instruments, instruments, x, ew, codes, correction)
        assert rep.first_stage_f["conventional"] == pytest.approx((pi[0] / pi_se) ** 2, rel=1e-8)

    def test_two_cluster_first_stage_f(self):
        # The case iv_inputs drew from seed 27 with n=8, one control and two
        # clusters, where the oracle test above once failed. With two clusters the
        # first stage's cluster score sums are exact negatives of each other (their
        # total is its normal equation), so its meat is one sum squared twice. Here
        # that sum is 3e-5 of its terms' absolute sum and F is 2.2e10, and moving x
        # by 1e-13 of its scale moves F by more than 1e-8: F is not defined to 1e-8
        # on this draw. (The oracle's sandwich squares the score sums before they
        # cancel and missed F by 1.55e-8.) The coefficient and its SE are well
        # conditioned and still match the oracle to 1e-8.
        rng = np.random.default_rng(27)
        n = 8
        controls = rng.normal(size=(n, 1))
        e = rng.uniform(0.2, 2.0, size=n)
        labels = np.array([f"c{i % 2}" for i in rng.permutation(n)])
        z = rng.normal(size=n)
        x = 0.8 * z + rng.normal(size=n)
        y = 1.1 * x + controls @ rng.normal(size=1) + rng.normal(size=n)

        def fit(regressor):
            ds = simple_dataset(rng, n, controls=controls, weights=e, y=y, x=regressor)
            return shiftshare_2sls(ds, z, cluster=labels), ds.unit_weights

        rep, ew = fit(x)
        f = rep.first_stage_f["conventional"]
        assert 2.2e10 < f < 2.3e10
        unit_design = np.column_stack([np.ones(n), controls])
        _, _, resid, z_perp, _, _ = _partialled_iv(unit_design, ("intercept", "pi_1"),
                                                   z, z, x, ew)
        scores = ew * z_perp * resid
        in_c0 = labels == "c0"
        s0, s1 = scores[in_c0].sum(), scores[~in_c0].sum()
        assert abs(s0 + s1) <= 1e-9 * abs(s0)
        assert abs(s0) < 1e-4 * np.abs(scores[in_c0]).sum()
        nudged, _ = fit(x + 1e-13 * np.abs(x).max() * np.where(in_c0, np.sign(z_perp), 0.0))
        assert abs(nudged.first_stage_f["conventional"] / f - 1) > 1e-8
        assert nudged.beta_hat == pytest.approx(rep.beta_hat, rel=1e-11)
        codes = np.unique(labels, return_inverse=True)[1]
        theta, se = textbook_iv(np.column_stack([x, unit_design]),
                                np.column_stack([z, unit_design]), y, ew, codes,
                                2 * (n - 1) / (n - 3))
        assert rep.beta_hat == pytest.approx(theta[0], rel=1e-8)
        assert rep.se_variants["conventional_cluster"] == pytest.approx(se, rel=1e-8)

    @pytest.mark.filterwarnings("ignore::shiftshare.errors.ShiftShareWarning")
    @settings(max_examples=100, deadline=None)
    @given(case=iv_inputs())
    def test_inverted_and_balance_match_explicit_oracle(self, case):
        rng, m, q, w, labels = case
        inst = rng.normal(size=m)
        xbar = 0.8 * inst + rng.normal(size=m)
        ybar = 1.1 * xbar + rng.normal(size=m)
        inverted = InvertedDataset(
            ybar=ybar, xbar=xbar, weight=w, instrument=inst, shift_values=inst,
            shift_ids=shift_ids(m), cluster=labels, kept=np.ones(m, dtype=bool), n_units=m,
        )
        rep = estimate_inverted(inverted, shift_controls=q if q.shape[1] else None)
        shift_design = np.column_stack([np.ones(m), q])
        regressors = np.column_stack([xbar, shift_design])
        instruments = np.column_stack([inst, shift_design])
        theta, se = textbook_iv(regressors, instruments, ybar, w, np.arange(m), 1.0)
        assert rep.beta_hat == pytest.approx(theta[0], rel=1e-8)
        assert np.max(np.abs(rep.gamma_hat - theta[1:])) <= 1e-8 * np.max(np.abs(theta))
        assert rep.se_variants["hc_exposure_robust"] == pytest.approx(se, rel=1e-8)
        pi, pi_se = textbook_iv(instruments, instruments, xbar, w, np.arange(m), 1.0)
        assert rep.first_stage_f["conventional"] == pytest.approx((pi[0] / pi_se) ** 2, rel=1e-8)
        codes = np.arange(m)
        if labels is not None:
            codes = np.unique(labels, return_inverse=True)[1]
            _, se_cluster = textbook_iv(regressors, instruments, ybar, w, codes, 1.0)
            assert rep.se_variants["cluster_exposure_robust"] == pytest.approx(se_cluster, rel=1e-8)
        balance = balance_test_shift(xbar, ybar, w, cluster=labels)
        design = np.column_stack([xbar, np.ones(m)])
        coef, balance_se = textbook_iv(design, design, ybar, w, codes, 1.0)
        assert balance.coefficient == pytest.approx(coef[0], rel=1e-8)
        assert balance.se == pytest.approx(balance_se, rel=1e-8)

    def test_regressor_at_extreme_scale(self, rng):
        # no moment matrix is formed, so a regressor at 1e200 scale neither
        # overflows nor reads as collinear with the controls
        n = 60
        z = rng.normal(size=n)
        x = 0.8 * z + rng.normal(size=n)
        controls = rng.normal(size=(n, 2))
        y = 1.1 * x + controls @ [0.7, -0.3] + rng.normal(size=n)
        e = rng.uniform(0.2, 2.0, size=n)
        rep = shiftshare_2sls(simple_dataset(rng, n, controls=controls, weights=e, y=y, x=x), z)
        big = shiftshare_2sls(
            simple_dataset(rng, n, controls=controls, weights=e, y=y, x=x * 1e200), z
        )
        assert big.beta_hat * 1e200 == pytest.approx(rep.beta_hat, rel=1e-12)
        assert big.se_variants["conventional_hc"] * 1e200 == pytest.approx(
            rep.se_variants["conventional_hc"], rel=1e-12
        )
        assert big.first_stage_f["conventional"] == pytest.approx(
            rep.first_stage_f["conventional"], rel=1e-12
        )

    def test_instrument_at_small_scale(self, rng):
        # rescaling the instrument or the placebo by 1e-7 changes nothing: the
        # weak-first-stage check is relative, and no moment matrix mixes scales
        n = 50
        z = rng.normal(size=n)
        x = 0.8 * z + rng.normal(size=n)
        ds = simple_dataset(rng, n, y=1.1 * x + rng.normal(size=n), x=x)
        rep = shiftshare_2sls(ds, z)
        small = shiftshare_2sls(ds, z * 1e-7)
        assert small.beta_hat == pytest.approx(rep.beta_hat, rel=1e-12)
        assert small.se_variants["conventional_hc"] == pytest.approx(
            rep.se_variants["conventional_hc"], rel=1e-12
        )
        w = rng.uniform(0.5, 1.0, size=n)
        balance = balance_test_shift(z, x, w)
        balance_small = balance_test_shift(z * 1e-7, x, w)
        assert balance_small.coefficient * 1e-7 == pytest.approx(balance.coefficient, rel=1e-12)
        assert balance_small.se * 1e-7 == pytest.approx(balance.se, rel=1e-12)

    def test_weak_instrument_error(self, rng):
        n = 40
        x = rng.normal(size=n)
        # instrument exactly orthogonal to the residualized regressor
        z = np.ones(n)
        ds = simple_dataset(rng, n, y=rng.normal(size=n), x=x)
        with pytest.raises(EstimationError, match="first stage"):
            shiftshare_2sls(ds, z)

    def test_all_zero_instrument_error(self, rng):
        # every term of the first-stage sum is zero; this used to divide by zero
        n = 40
        ds = simple_dataset(rng, n, y=rng.normal(size=n), x=rng.normal(size=n))
        with pytest.raises(EstimationError, match="first stage"):
            shiftshare_2sls(ds, np.zeros(n))

    def test_scaling_invariance(self, rng):
        # scaling every shift by k rescales the exposure data, divides the
        # coefficient by k, and leaves exposure-robust t statistics alone
        inst = matched_instance(rng, 60, 12, endog_noise=0.0)
        ds, shares, shifts = inst["dataset"], inst["shares"], inst["shifts"]
        w_j = shift_weights_from(ds, shares)
        spec = ("p_1", "p_2", "p_real")
        k = 3.7
        scaled = shifts.with_values(shifts.values * k)
        ds_k = Dataset(
            outcome=ds.outcome,
            unit_ids=ds.unit_ids,
            regressor=k * ds.regressor,
            controls=ds.controls,
            unit_weights=ds.unit_weights,
        )
        res = residualize_shifts(shifts, spec, w_j)
        res_k = residualize_shifts(scaled, spec, w_j)
        rep = estimate_inverted(invert(ds, shares, shifts, residuals=res))
        rep_k = estimate_inverted(invert(ds_k, shares, scaled, residuals=res_k))
        assert rep_k.beta_hat == pytest.approx(rep.beta_hat / k, rel=1e-10)
        t = rep.beta_hat / rep.se_variants["hc_exposure_robust"]
        t_k = rep_k.beta_hat / rep_k.se_variants["hc_exposure_robust"]
        assert t_k == pytest.approx(t, rel=1e-8)


class TestRotemberg:
    def test_single_shift_degenerate(self, rng):
        n = 25
        shares = random_share_matrix(rng, n, 1)
        shifts = ShiftTable(np.array([2.0]), shift_ids(1))
        x = build_exposure(shares, shifts)
        y = 1.5 * x + rng.normal(size=n)
        ds = simple_dataset(rng, n, y=y)
        tab = rotemberg(ds, shares, shifts)
        assert tab.alpha_hat.tolist() == [1.0]
        assert tab.beta_j[0] == pytest.approx(tab.beta_hat, rel=1e-12)

    def test_symmetric_duplicate_columns(self, rng):
        n = 30
        col = rng.uniform(0.05, 0.4, size=n)
        shares = ShareMatrix(np.column_stack([col, col]), unit_ids(n), shift_ids(2))
        shifts = ShiftTable(np.array([1.3, 1.3]), shift_ids(2))
        x = build_exposure(shares, shifts)
        y = 0.8 * x + rng.normal(size=n)
        ds = simple_dataset(rng, n, y=y)
        tab = rotemberg(ds, shares, shifts)
        assert np.allclose(tab.alpha_hat, [0.5, 0.5], atol=1e-12)

    def test_identities_on_random_instances(self, rng):
        for _ in range(15):
            inst = matched_instance(rng, int(rng.integers(30, 90)), 5)
            ds, shares, shifts = inst["dataset"], inst["shares"], inst["shifts"]
            rep = shiftshare_2sls(ds, inst["instrument"])
            tab = rotemberg(ds, shares, shifts)
            assert tab.alpha_hat.sum() == pytest.approx(1.0, abs=1e-10)
            assert tab.recombined() == pytest.approx(
                rep.beta_hat, rel=1e-8 * max(1.0, abs(rep.beta_hat))
            )
            assert 0.0 <= tab.negative_weight_share <= 1.0

    def test_undefined_beta_j_reported(self, rng):
        n = 40
        w = np.zeros((n, 2))
        w[:, 0] = rng.uniform(0.1, 0.9, size=n)
        shares = ShareMatrix(w, unit_ids(n), shift_ids(2))
        shifts = ShiftTable(np.array([1.0, 2.0]), shift_ids(2))
        x = build_exposure(shares, shifts)
        ds = simple_dataset(rng, n, y=x + rng.normal(size=n))
        tab = rotemberg(ds, shares, shifts)
        assert np.isnan(tab.beta_j[1])
        assert np.isfinite(tab.alpha_hat).all()
        assert tab.recombined() == pytest.approx(tab.beta_hat, rel=1e-8)

    def test_gmm_equivalence(self, rng):
        for _ in range(10):
            inst = matched_instance(rng, 70, 9)
            ds = inst["dataset"]
            rep = shiftshare_2sls(ds, inst["instrument"])
            beta_gmm = gmm_share_instruments(ds, inst["shares"], inst["shifts"])
            assert beta_gmm == pytest.approx(rep.beta_hat, rel=1e-10)

    def test_identified_at_small_scale(self):
        # shifts and regressor at 1e-7 scale shrink the first-stage sum far
        # below any absolute tolerance, yet the instrument is as strong as
        # before: both checks are relative, as in shiftshare_2sls
        data = generate(DgpConfig(n=60, m=8, seed=3))
        shifts = data.shifts.with_values(data.shifts.values * 1e-7)
        ds = replace(data.dataset, regressor=data.dataset.regressor * 1e-7)
        beta = shiftshare_2sls(ds, build_exposure(data.shares, shifts)).beta_hat
        tab = rotemberg(ds, data.shares, shifts)
        assert tab.beta_hat == pytest.approx(beta, rel=1e-10)
        assert tab.recombined() == pytest.approx(beta, rel=1e-10)
        assert gmm_share_instruments(ds, data.shares, shifts) == pytest.approx(beta, rel=1e-10)


class TestInvert:
    def test_single_unit_aggregation(self, rng):
        # the intercept absorbs the one unit's outcome and regressor
        shares = ShareMatrix(np.array([[0.5, 0.5]]), unit_ids(1), shift_ids(2))
        shifts = ShiftTable(np.array([1.0, -1.0]), shift_ids(2))
        ds = Dataset(outcome=np.array([3.0]), unit_ids=unit_ids(1),
                     regressor=np.array([2.0]))
        inv = invert(ds, shares, shifts)
        assert np.array_equal(inv.weight, [0.5, 0.5])
        assert np.array_equal(inv.ybar, [0.0, 0.0])
        assert np.array_equal(inv.xbar, [0.0, 0.0])

    def test_uniform_shares_give_weighted_mean(self, rng):
        n, m = 12, 4
        shares = ShareMatrix(np.full((n, m), 1.0 / m), unit_ids(n), shift_ids(m))
        shifts = ShiftTable(rng.normal(size=m), shift_ids(m))
        e = rng.uniform(0.5, 1.5, size=n)
        y = rng.normal(size=n)
        ds = Dataset(outcome=y, unit_ids=unit_ids(n), regressor=rng.normal(size=n),
                     unit_weights=e)
        inv = invert(ds, shares, shifts)
        # every shift aggregates the units alike, so each sees the partialled
        # outcome's weighted mean, zero
        assert np.allclose(inv.ybar, 0.0, rtol=0, atol=1e-12)
        assert np.allclose(inv.xbar, 0.0, rtol=0, atol=1e-12)

    def test_matches_summation_oracle(self, rng):
        n, m = 20, 6
        shares = random_share_matrix(rng, n, m, complete=True)
        shifts = ShiftTable(rng.normal(size=m), shift_ids(m))
        e = rng.uniform(0.2, 1.0, size=n)
        y = rng.normal(size=n)
        x = rng.normal(size=n)
        ds = Dataset(outcome=y, unit_ids=unit_ids(n), regressor=x, unit_weights=e)
        inv = invert(ds, shares, shifts)
        ew = ds.unit_weights
        y, x = y - np.sum(ew * y), x - np.sum(ew * x)  # partialled on the intercept
        for j in range(m):
            w_j = np.sum(ew * shares.weights[:, j])
            assert inv.weight[j] == pytest.approx(w_j, abs=1e-15)
            assert inv.ybar[j] == pytest.approx(
                np.sum(ew * shares.weights[:, j] * y) / w_j, abs=1e-12
            )
            assert inv.xbar[j] == pytest.approx(
                np.sum(ew * shares.weights[:, j] * x) / w_j, abs=1e-12
            )
        assert np.sum(inv.weight) == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_without_flag_rejected(self, rng):
        shares = random_share_matrix(rng, 10, 3)
        shifts = ShiftTable(rng.normal(size=3), shift_ids(3))
        ds = simple_dataset(rng, 10, y=rng.normal(size=10), x=rng.normal(size=10))
        with pytest.raises(Exception, match="incomplete"):
            invert(ds, shares, shifts)

    def test_zero_weight_shift_dropped(self, rng):
        n = 8
        w = np.column_stack([rng.uniform(0.2, 0.5, size=n),
                             rng.uniform(0.2, 0.5, size=n),
                             np.zeros(n)])
        w = w / w.sum(axis=1, keepdims=True)
        with pytest.warns(ShiftShareWarning, match="zero aggregate weight"):
            shares = ShareMatrix(w, unit_ids(n), shift_ids(3))
            shifts = ShiftTable(rng.normal(size=3), shift_ids(3))
            ds = simple_dataset(rng, n, y=rng.normal(size=n), x=rng.normal(size=n))
            inv = invert(ds, shares, shifts)
        assert inv.n_shifts == 2
        assert inv.kept.tolist() == [True, True, False]

    @pytest.mark.parametrize("dropped", [0, 3])
    @pytest.mark.filterwarnings("ignore::shiftshare.errors.ShiftShareWarning")
    def test_shares_are_not_copied(self, rng, dropped):
        n, m = 2000, 500
        w = random_share_matrix(rng, n, m, complete=True).weights.copy()
        w[:, :dropped] = 0.0
        shares = ShareMatrix(w, unit_ids(n), shift_ids(m))
        shifts = ShiftTable(rng.normal(size=m), shift_ids(m))
        ds = simple_dataset(rng, n, y=rng.normal(size=n), x=rng.normal(size=n))
        tracemalloc.start()
        try:
            inv = invert(ds, shares, shifts, incomplete_ok=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inv.n_shifts == m - dropped
        assert peak < 0.25 * shares.weights.nbytes


class TestEstimateInverted:
    def test_point_estimate_equivalence(self, rng):
        # cross-estimator oracle: inverted IV equals unit-level 2SLS
        for _ in range(10):
            inst = matched_instance(rng, int(rng.integers(40, 120)), int(rng.integers(6, 20)))
            ds, shares, shifts = inst["dataset"], inst["shares"], inst["shifts"]
            rep_unit = shiftshare_2sls(ds, inst["instrument"])
            inv = invert(ds, shares, shifts)
            rep_inv = estimate_inverted(inv, shift_controls=shifts.covariates)
            assert abs(rep_inv.beta_hat - rep_unit.beta_hat) <= 1e-8 * max(
                1.0, abs(rep_unit.beta_hat)
            )

    def test_hc_se_close_to_analytic_homoskedastic(self, rng):
        # shift-level regression with known error variance: the HC sandwich
        # should land within 15% of the closed-form value
        m = 4000
        sigma = 0.7
        w = np.full(m, 1.0 / m)
        d = rng.normal(size=m)
        xbar = d.copy()
        ybar = 1.0 * xbar + sigma * rng.normal(size=m)
        from shiftshare.estimate import InvertedDataset

        inv = InvertedDataset(
            ybar=ybar, xbar=xbar, weight=w,
            instrument=d, shift_values=d, shift_ids=shift_ids(m), cluster=None,
            kept=np.ones(m, dtype=bool), n_units=m,
        )
        rep = estimate_inverted(inv)
        d_c = d - np.sum(w * d)
        analytic = sigma * np.sqrt(np.sum((w * d_c) ** 2)) / np.sum(w * d_c * xbar)
        assert rep.se_variants["hc_exposure_robust"] == pytest.approx(abs(analytic), rel=0.15)

    def test_dominant_shift_warns(self, rng):
        n = 30
        lead = rng.uniform(0.8, 0.95, size=n)
        rest = (1.0 - lead) * rng.dirichlet(np.ones(3), size=n).T
        w = np.column_stack([lead, rest.T])
        shares = ShareMatrix(w, unit_ids(n), shift_ids(4))
        shifts = ShiftTable(rng.normal(size=4), shift_ids(4))
        x = build_exposure(shares, shifts) + 0.1 * rng.normal(size=n)
        ds = simple_dataset(rng, n, y=x + rng.normal(size=n), x=x)
        inv = invert(ds, shares, shifts)
        with pytest.warns(ShiftShareWarning, match="dominates"):
            estimate_inverted(inv)

    def test_cluster_se_needs_two_clusters(self, rng):
        inst = matched_instance(rng, 50, 8, n_clusters=1)
        inv = invert(inst["dataset"], inst["shares"], inst["shifts"])
        # all real shifts share one cluster; the complement adds a second
        labels = ["c0"] * inv.n_shifts
        with pytest.raises(EstimationError, match="clusters"):
            estimate_inverted(inv, cluster=labels)

    @pytest.mark.filterwarnings("ignore:a single shift carries")
    def test_shift_inputs_align_with_the_original_shift_table(self, rng):
        inst = matched_instance(rng, 50, 8)
        ds, shares, shifts = inst["dataset"], inst["shares"], inst["shifts"]
        weights = shares.weights.copy()
        weights[:, 0] = 0.0  # shift 0 gets zero aggregate weight and is dropped
        shares = ShareMatrix(weights, shares.row_ids, shares.col_ids)
        with pytest.warns(ShiftShareWarning, match="dropping 1"):
            inv = invert(ds, shares, shifts, incomplete_ok=True)
        assert inv.kept.shape == (shifts.n_shifts,) and inv.n_shifts == shifts.n_shifts - 1
        covariates = shifts.covariates
        full = estimate_inverted(inv, shift_controls=covariates, cluster=shifts.cluster)
        column = estimate_inverted(inv, shift_controls=covariates[:, 0])
        assert len(full.gamma_names) == 1 + covariates.shape[1]
        assert "cluster_exposure_robust" in full.se_variants
        assert column.gamma_names == ("intercept", "q_1")
        for bad in (covariates.T, covariates[inv.kept]):
            with pytest.raises(ValidationError, match="one row per shift"):
                estimate_inverted(inv, shift_controls=bad)
        with pytest.raises(ValidationError, match="one entry per shift"):
            estimate_inverted(inv, cluster=np.asarray(shifts.cluster)[inv.kept])

    def test_needs_two_shifts(self, rng):
        from shiftshare.estimate import InvertedDataset

        inv = InvertedDataset(
            ybar=np.array([1.0]), xbar=np.array([1.0]),
            weight=np.array([1.0]), instrument=np.array([1.0]),
            shift_values=np.array([1.0]), shift_ids=shift_ids(1), cluster=None,
            kept=np.ones(1, dtype=bool), n_units=1,
        )
        with pytest.raises(EstimationError, match="at least 2 shifts"):
            estimate_inverted(inv)


class TestResidualizedSe:
    def build(self, rng, n=60, m=10):
        inst = matched_instance(rng, n, m)
        ds, shares, shifts = inst["dataset"], inst["shares"], inst["shifts"]
        w_j = shift_weights_from(ds, shares)
        spec = tuple(shifts.covariate_names)
        res = residualize_shifts(shifts, spec, w_j)
        z = shares.weights @ res.eta_hat
        rep = shiftshare_2sls(ds, z)
        return inst, res, rep

    def test_zero_residuals_zero_se(self, rng):
        inst, res, rep = self.build(rng)
        ds, shares = inst["dataset"], inst["shares"]
        se = residualized_se(ds.unit_weights, shares, res.eta_hat,
                             np.zeros(ds.n_units), rep.x_perp)
        assert se == 0.0

    def test_reduces_to_inverted_hc(self, rng):
        for _ in range(8):
            inst, res, rep = self.build(rng, n=int(rng.integers(40, 100)),
                                        m=int(rng.integers(8, 16)))
            ds, shares, shifts = inst["dataset"], inst["shares"], inst["shifts"]
            se = residualized_se(ds.unit_weights, shares, res.eta_hat,
                                 rep.residuals, rep.x_perp)
            inv = invert(ds, shares, shifts, residuals=res)
            rep_inv = estimate_inverted(inv)
            assert se == pytest.approx(rep_inv.se_variants["hc_exposure_robust"], rel=1e-8)
            # the same number also comes out of the raw-instrument route with
            # shift-level controls
            inv_d = invert(ds, shares, shifts)
            rep_d = estimate_inverted(inv_d, shift_controls=shifts.covariates)
            assert se == pytest.approx(rep_d.se_variants["hc_exposure_robust"], rel=1e-8)

    def test_term_by_term_oracle(self, rng):
        n, m = 15, 6
        shares = random_share_matrix(rng, n, m, complete=True)
        eta = rng.normal(size=m)
        eps = rng.normal(size=n)
        x_perp = rng.normal(size=n)
        e = np.full(n, 1.0 / n)
        z = shares.weights @ eta
        num = 0.0
        for j in range(m):
            t_j = sum(e[i] * shares.weights[i, j] * eps[i] for i in range(n))
            num += (t_j * eta[j]) ** 2
        den = abs(sum(e[i] * x_perp[i] * z[i] for i in range(n)))
        oracle = np.sqrt(num) / den
        se = residualized_se(e, shares, eta, eps, x_perp)
        assert se == pytest.approx(oracle, rel=1e-12)

    def test_zero_denominator_error(self, rng):
        n, m = 10, 4
        shares = random_share_matrix(rng, n, m, complete=True)
        eta = np.zeros(m)
        with pytest.raises(EstimationError, match="degenerate"):
            residualized_se(np.full(n, 1 / n), shares, eta,
                            rng.normal(size=n), rng.normal(size=n))

    def test_misaligned_inputs_rejected_with_and_without_clusters(self, rng):
        n, m = 10, 4
        shares = random_share_matrix(rng, n, m, complete=True)
        e, eps, x_perp = np.full(n, 1 / n), rng.normal(size=n), rng.normal(size=n)
        for se in (
            lambda eta, eps: residualized_se(e, shares, eta, eps, x_perp),
            lambda eta, eps: residualized_se(e, shares, eta, eps, x_perp,
                                             clusters=["a", "a", "b", "b"]),
        ):
            with pytest.raises(ValidationError, match="eta misaligned"):
                se(rng.normal(size=m + 1), eps)
            with pytest.raises(ValidationError, match="one value per unit"):
                se(rng.normal(size=m), eps[:-1])

    def test_singleton_clusters_reduce_exactly(self, rng):
        inst, res, rep = self.build(rng)
        ds, shares = inst["dataset"], inst["shares"]
        se = residualized_se(ds.unit_weights, shares, res.eta_hat,
                             rep.residuals, rep.x_perp)
        se_singleton = residualized_se(
            ds.unit_weights, shares, res.eta_hat, rep.residuals, rep.x_perp,
            clusters=[f"only{j}" for j in range(shares.n_shifts)],
        )
        assert se_singleton == se

    def test_clustered_name_is_the_clustered_se(self, rng):
        inst, res, rep = self.build(rng)
        args = (inst["dataset"].unit_weights, inst["shares"], res.eta_hat, rep.residuals,
                rep.x_perp)
        clusters = [f"c{j % 3}" for j in range(inst["shares"].n_shifts)]
        assert residualized_se_clustered(*args, clusters) == residualized_se(
            *args, clusters=clusters
        )

    def test_single_cluster_is_refused(self, rng):
        # its one score sum is the moment condition, so the SE would be round-off
        inst, res, rep = self.build(rng)
        ds, shares = inst["dataset"], inst["shares"]
        with pytest.raises(EstimationError, match="at least 2 shift clusters"):
            residualized_se(ds.unit_weights, shares, res.eta_hat, rep.residuals, rep.x_perp,
                            clusters=["c"] * shares.n_shifts)

    def test_three_cluster_summation_oracle(self, rng):
        n, m = 12, 6
        shares = random_share_matrix(rng, n, m, complete=True)
        eta = rng.normal(size=m)
        eps = rng.normal(size=n)
        x_perp = rng.normal(size=n)
        e = rng.uniform(0.5, 1.5, size=n)
        e = e / e.sum()
        clusters = ["a", "a", "b", "b", "c", "c"]
        z = shares.weights @ eta
        den = abs(sum(e[i] * x_perp[i] * z[i] for i in range(n)))
        num = 0.0
        for c in ("a", "b", "c"):
            cols = [j for j in range(m) if clusters[j] == c]
            s_c = sum(
                e[i] * sum(shares.weights[i, j] * eta[j] for j in cols) * eps[i]
                for i in range(n)
            )
            num += s_c**2
        oracle = np.sqrt(num) / den
        se = residualized_se(e, shares, eta, eps, x_perp, clusters=clusters)
        assert se == pytest.approx(oracle, rel=1e-12)


class TestEffectiveF:
    def test_noiseless_strong_first_stage(self, rng):
        m = 40
        eta = rng.normal(size=m)
        w = rng.uniform(0.5, 1.5, size=m)
        xbar = 2.0 + 3.0 * eta  # exact fit
        assert effective_f(xbar, eta, w) > 1e4

    def test_pure_noise_small(self):
        # Monte Carlo sanity: with no true first stage and raw (uncentered)
        # shift values in the trace term, the effective F sits below 1 on
        # average
        values = []
        for seed in range(300):
            gen = np.random.default_rng(seed)
            m = 40
            w = np.full(m, 1.0 / m)
            d = gen.normal(1.0, 1.0, size=m)
            eta = d - np.sum(w * d)
            xbar = gen.normal(size=m)
            values.append(effective_f(xbar, eta, w, shift_values=d))
        assert np.mean(values) < 1.0

    def test_matches_formula_oracle(self, rng):
        m = 8
        eta = rng.normal(size=m)
        d = rng.normal(size=m) + 1.0
        w = rng.uniform(0.2, 1.0, size=m)
        xbar = 0.5 + 1.5 * eta + 0.3 * rng.normal(size=m)
        f = effective_f(xbar, eta, w, shift_values=d)
        design = np.column_stack([np.ones(m), eta])
        sw = np.sqrt(w)
        coef, *_ = np.linalg.lstsq(design * sw[:, None], xbar * sw, rcond=None)
        fitted = design @ coef
        v = xbar - fitted
        bread = np.linalg.inv(design.T @ (design * w[:, None]))
        meat = (design * (w * v)[:, None]).T @ (design * (w * v)[:, None])
        cov = bread @ meat @ bread
        num = np.sum(w * fitted**2)
        den = cov[1, 1] * np.sum(w * d**2) + 2 * cov[0, 1] * np.sum(w * d) + cov[0, 0] * np.sum(w)
        assert f == pytest.approx(num / den, rel=1e-10)

    def test_constant_instrument_rejected(self):
        with pytest.raises(EstimationError):
            effective_f(np.array([1.0, 2.0, 3.0]), np.ones(3), np.ones(3))


class TestDemeanViaControls:
    """Aggregated shift covariates ``W p`` as unit controls, the counterpart of
    demeaning the shifts on ``p``."""

    def test_unit_covariate_gives_share_sum(self, rng):
        shares = random_share_matrix(rng, 10, 4)
        control = shares.exposure(np.ones(4))
        assert np.allclose(control, shares.row_sums(), rtol=1e-14)

    def test_one_hot_gives_group_sums(self, rng):
        shares = random_share_matrix(rng, 8, 4)
        first = np.array([1.0, 1.0, 0.0, 0.0])
        control = [shares.exposure(first), shares.exposure(1.0 - first)]
        assert np.allclose(control[0], shares.weights[:, :2].sum(axis=1), rtol=1e-14)
        assert np.allclose(control[1], shares.weights[:, 2:].sum(axis=1), rtol=1e-14)

    def test_fwl_equivalence(self, rng):
        # raw shifts + aggregated controls vs residualized shifts, both routes
        for _ in range(10):
            inst = matched_instance(rng, int(rng.integers(40, 100)), int(rng.integers(6, 16)))
            ds, shares, shifts = inst["dataset"], inst["shares"], inst["shifts"]
            rep_controls = shiftshare_2sls(ds, inst["instrument"])
            w_j = shift_weights_from(ds, shares)
            res = residualize_shifts(shifts, tuple(shifts.covariate_names), w_j)
            inv = invert(ds, shares, shifts, residuals=res)
            rep_resid = estimate_inverted(inv)
            assert abs(rep_controls.beta_hat - rep_resid.beta_hat) <= 1e-8 * max(
                1.0, abs(rep_controls.beta_hat)
            )
            # unit-level route: same controls, residualized-shift instrument
            z_eta = shares.weights @ res.eta_hat
            rep_unit = shiftshare_2sls(ds, z_eta)
            assert rep_unit.beta_hat == pytest.approx(rep_controls.beta_hat, rel=1e-9)


class TestRankCheckedSolves:
    def test_error_messages_name_the_collinear_terms(self):
        design = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(EstimationError, match="^rank-deficient design; collinear terms: a$"):
            wls_coefficients(design, np.ones(3), np.ones(3), ("a", "b"))
        with pytest.raises(EstimationError, match="^design matrix is identically zero$"):
            wls_coefficients(np.zeros((3, 2)), np.ones(3), np.ones(3), ("a", "b"))


def lapack_pivoted_solve(matrix, rhs, names):
    """Reference solve: the same rank rule and error texts on LAPACK's pivoted QR."""
    import scipy.linalg

    q, r, piv = scipy.linalg.qr(matrix, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        raise EstimationError("design matrix is identically zero")
    rank = int(np.sum(diag > RANK_TOL * diag[0]))
    if rank < matrix.shape[1]:
        labels = ", ".join(names[j] for j in piv[rank:])
        raise EstimationError(f"rank-deficient design; collinear terms: {labels}")
    coef = np.empty((matrix.shape[1], *rhs.shape[1:]))
    coef[piv] = scipy.linalg.solve_triangular(r, q.T @ rhs)
    return coef


def first_copy(matrix, k):
    """The first column equal to column ``k`` up to sign."""
    column = matrix[:, k]
    return next(i for i in range(k + 1)
                if np.array_equal(matrix[:, i], column) or np.array_equal(matrix[:, i], -column))


def solve_outcome(solve, matrix, rhs, names):
    """The coefficients, or the error text with its named terms replaced by the
    sorted first copies of their columns.

    Which of two copies a pivoted QR keeps is a tie that its round-off breaks
    (LAPACK's as much as ours), and so is the order of the terms past the rank.
    """
    try:
        return solve(matrix, rhs, names)
    except EstimationError as exc:
        head, _, terms = str(exc).partition("; collinear terms: ")
        named = terms.split(", ") if terms else []
        return head, sorted(first_copy(matrix, names.index(term)) for term in named)


@st.composite
def solver_inputs(draw):
    """Tall or square matrices with zero columns, exact and scaled copies of other
    columns and constant columns (beside an intercept when column 0 is one),
    at a power-of-ten scale, and a right-hand side of 0 (a vector), 1 or 3 columns."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.standard_normal((n, k))
    if draw(st.booleans()):
        matrix[:, 0] = 1.0
    defect = st.tuples(st.sampled_from(["zero", "copy", "scaled", "constant"]),
                       st.integers(0, k - 1), st.integers(0, k - 1),
                       st.sampled_from([-1.0, 0.5, 2.0, 3.0, -0.1, 1e3]))
    for kind, j, source, factor in draw(st.lists(defect, max_size=3)):
        matrix[:, j] = {"zero": 0.0, "copy": matrix[:, source],
                        "scaled": factor * matrix[:, source], "constant": factor}[kind]
    matrix *= 10.0 ** draw(st.integers(-200, 200))
    columns = draw(st.sampled_from([0, 1, 3]))
    rhs = rng.standard_normal((n, columns) if columns else n)
    return matrix, rhs


class TestPivotedSolveAgainstLapack:
    @settings(max_examples=300, deadline=None)
    @given(case=solver_inputs())
    def test_same_outcome_as_lapack(self, case):
        matrix, rhs = case
        names = tuple(f"c{j}" for j in range(matrix.shape[1]))

        ours = solve_outcome(_pivoted_solve, matrix, rhs, names)
        reference = solve_outcome(lapack_pivoted_solve, matrix, rhs, names)
        assert isinstance(ours, tuple) == isinstance(reference, tuple), (ours, reference)
        if isinstance(reference, tuple):
            assert ours == reference
        else:
            assert ours.shape == reference.shape
            if np.linalg.cond(matrix) <= 1e3:
                scale = np.max(np.abs(reference))
                assert np.max(np.abs(ours - reference)) <= 1e-10 * scale


SHIFT_SPECS = ((), ("p_1",), ("cluster",), ("cluster", "p_1"))


def shift_framework_instance(seed, n, m, complete):
    rng = np.random.default_rng(seed)
    shares = random_share_matrix(rng, n, m, complete=complete)
    d = rng.normal(0.5, 1.5, size=m)
    shifts = ShiftTable(d, shift_ids(m), cluster=[f"c{j % 3}" for j in range(m)],
                        covariates=rng.normal(size=(m, 1)))
    x = shares.weights @ d + 0.4 * rng.normal(size=n)
    controls = rng.normal(size=(n, 1))
    y = 1.3 * x + 0.5 * controls[:, 0] + rng.normal(size=n)
    dataset = Dataset(outcome=y, unit_ids=unit_ids(n), regressor=x, controls=controls,
                      unit_weights=rng.uniform(0.5, 2.0, size=n))
    return shares, shifts, dataset


@pytest.mark.filterwarnings("ignore::shiftshare.errors.ShiftShareWarning")
class TestEstimateShiftFramework:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 120),
        m=st.integers(6, 25),
        complete=st.booleans(),
        spec=st.sampled_from(SHIFT_SPECS),
    )
    def test_unit_and_shift_level_routes_agree(self, seed, n, m, complete, spec):
        shares, shifts, dataset = shift_framework_instance(seed, n, m, complete)
        result = estimate_shift_framework(shares, shifts, dataset, residualize=spec,
                                          cluster_shift="cluster")
        est, inv = result.estimate, result.inverted
        assert est.beta_hat == pytest.approx(inv.beta_hat, rel=1e-8)
        assert est.se_variants["residualized"] == pytest.approx(
            est.se_variants["hc_exposure_robust"], rel=1e-8
        )
        assert est.se_variants["residualized_cluster"] == pytest.approx(
            est.se_variants["cluster_exposure_robust"], rel=1e-8
        )
        assert ("p_real" in result.residuals.spec) == (not complete and "cluster" not in spec)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 120),
        m=st.integers(6, 25),
        complete=st.booleans(),
        spec=st.sampled_from(SHIFT_SPECS),
        at=st.floats(0.0, 1.0),
    )
    def test_a_shift_of_zero_weight_changes_nothing(self, seed, n, m, complete, spec, at):
        """A shift that no unit holds is dropped once, with one warning, before anything
        is computed from the shifts, so every number is that of the table without it."""
        shares, shifts, dataset = shift_framework_instance(seed, n, m, complete)
        k = round(at * m)  # where the shift goes; it copies a neighbour's values

        def insert(values, value):
            return np.insert(np.asarray(values, dtype=object if values.dtype == object
                                        else float), k, value, axis=0)

        ids = shifts.shift_ids[:k] + ("s_zero",) + shifts.shift_ids[k:]
        wider_shares = ShareMatrix(np.insert(shares.weights, k, 0.0, axis=1),
                                   shares.row_ids, ids)
        wider_shifts = ShiftTable(insert(shifts.values, shifts.values[k % m]), ids,
                                  cluster=insert(shifts.cluster, shifts.cluster[k % m]),
                                  covariates=insert(shifts.covariates,
                                                    shifts.covariates[k % m]))
        options = {"residualize": spec, "cluster_shift": "cluster", "with_rotemberg": True}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wider = estimate_shift_framework(wider_shares, wider_shifts, dataset, **options)
        dropping = [str(w.message) for w in caught if "aggregate weight" in str(w.message)]
        assert dropping == ["dropping 1 shift(s) with zero aggregate weight"]
        narrow = estimate_shift_framework(shares, shifts, dataset, **options)
        assert wider.to_dict() == narrow.to_dict()
        assert wider.inverted.to_dict() == narrow.inverted.to_dict()

    def test_the_table_cluster_column_clusters_the_inverted_fit(self):
        """Without ``cluster_shift`` the shift-level fit clusters on the table's own
        ``cluster`` column, as ``estimate_inverted`` does; only the residualized SE needs
        ``cluster_shift``."""
        shares, shifts, dataset = shift_framework_instance(11, 60, 9, complete=True)
        default = estimate_shift_framework(shares, shifts, dataset).estimate.se_variants
        named = estimate_shift_framework(shares, shifts, dataset,
                                         cluster_shift="cluster").estimate.se_variants
        assert default["cluster_exposure_robust"] == named["cluster_exposure_robust"]
        assert "residualized_cluster" not in default and "residualized_cluster" in named

    def test_cluster_shift_is_encoded_once(self, monkeypatch):
        """The estimator encodes the ``cluster_shift`` labels once, for the shift-level fit;
        the clustered residualized SE reads the codes that the shift table encoded."""
        encoded = []
        encode = shiftshare.estimate._label_codes

        def counted(labels):
            encoded.append(list(labels))
            return encode(labels)

        monkeypatch.setattr(shiftshare.estimate, "_label_codes", counted)
        shares, shifts, dataset = shift_framework_instance(13, 60, 9, complete=True)
        result = estimate_shift_framework(shares, shifts, dataset, residualize=("p_1",),
                                          cluster_shift="cluster")
        assert "residualized_cluster" in result.estimate.se_variants
        assert encoded == [list(shifts.cluster)]

    def test_incomplete_p1_spec_is_the_completed_composition(self, rng):
        shares, shifts, dataset = shift_framework_instance(3, 60, 8, complete=False)
        result = estimate_shift_framework(shares, shifts, dataset, residualize=("p_1",))
        completed = complete_shares(shares, shifts)
        shares_c, shifts_c = completed.shares, completed.shifts
        controls = np.column_stack([dataset.controls, completed.sum_of_shares,
                                    shares_c.exposure(shifts_c.covariates[:, 0])])
        augmented = Dataset(outcome=dataset.outcome, unit_ids=dataset.unit_ids,
                            regressor=dataset.regressor, controls=controls,
                            unit_weights=dataset.unit_weights)
        res = residualize_shifts(shifts_c, ("p_real", "p_1"),
                                 shift_weights_from(augmented, shares_c))
        report = shiftshare_2sls(augmented, shares_c.exposure(res.eta_hat))
        assert result.residuals.spec == ("p_real", "p_1")
        assert result.estimate.beta_hat == report.beta_hat
        assert result.estimate.se_variants["conventional_hc"] == (
            report.se_variants["conventional_hc"]
        )

    def test_fixed_effect_aggregates_skip_the_complement_and_first_level(self, rng):
        shares, shifts, dataset = shift_framework_instance(5, 50, 9, complete=False)
        result = estimate_shift_framework(shares, shifts, dataset, residualize=("cluster",))
        # pi_1 (own control), sum of shares, then levels c1 and c2 of three
        assert result.estimate.gamma_names == ("intercept", "pi_1", "pi_2", "pi_3", "pi_4")

    def test_se_menu_and_rotemberg(self, rng):
        shares, shifts, dataset = shift_framework_instance(7, 50, 9, complete=False)
        conventional = estimate_shift_framework(shares, shifts, dataset, se="conventional")
        assert set(conventional.estimate.se_variants) == {"conventional_hc"}
        full = estimate_shift_framework(shares, shifts, dataset, with_rotemberg=True)
        assert full.rotemberg.beta_hat == pytest.approx(full.estimate.beta_hat, rel=1e-8)
        assert "rotemberg" in full.to_dict()
        with pytest.raises(ValidationError, match="unknown SE menu"):
            estimate_shift_framework(shares, shifts, dataset, se="everything")
