"""Data-generating processes and the coverage experiment runner."""

import multiprocessing
import os
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiftshare.estimate
from shiftshare import (
    DgpConfig,
    EstimationError,
    NumericalError,
    ShareMatrix,
    ShiftShareWarning,
    ValidationError,
    estimate_inverted,
    generate,
    invert,
    residualize_shifts,
    run_coverage,
    shift_weights_from,
    shiftshare_2sls,
)
from shiftshare import simulate
from shiftshare.simulate import ESTIMATORS


class TestGenerate:
    def test_deterministic_given_seed(self):
        cfg = DgpConfig(n=40, m=15, beta_true=2.0, seed=9)
        a = generate(cfg)
        b = generate(cfg)
        assert np.array_equal(a.shares.weights, b.shares.weights)
        assert np.array_equal(a.shifts.values, b.shifts.values)
        assert np.array_equal(a.dataset.outcome, b.dataset.outcome)
        c = generate(DgpConfig(n=40, m=15, beta_true=2.0, seed=10))
        assert not np.array_equal(a.dataset.outcome, c.dataset.outcome)

    def test_noiseless_limit(self):
        cfg = DgpConfig(n=30, m=12, beta_true=1.5, error_sd=0.0, seed=3)
        data = generate(cfg)
        assert np.allclose(data.dataset.outcome, 1.5 * data.dataset.regressor, atol=1e-14)
        assert np.array_equal(data.dataset.regressor, data.instrument)

    def test_dirichlet_rows_complete(self):
        data = generate(DgpConfig(n=80, m=25, seed=1))
        assert np.max(np.abs(data.shares.row_sums() - 1.0)) < 1e-12

    def test_sparse_block_rows_complete(self):
        data = generate(DgpConfig(n=60, m=24, share_model="sparse-block",
                                  n_blocks=6, seed=2))
        assert np.max(np.abs(data.shares.row_sums() - 1.0)) < 1e-12
        # block structure: each row has support inside exactly one block
        support = data.shares.weights > 0
        blocks = np.array_split(np.arange(24), 6)
        for row in support:
            hits = [row[cols].any() for cols in blocks]
            assert sum(hits) == 1

    def test_network_four_cycle(self):
        data = generate(DgpConfig(n=4, m=4, share_model="network-inverse-degree", seed=0))
        w = data.shares.weights
        assert np.all(np.sort(w, axis=1)[:, -2:] == 0.5)
        assert np.all(np.sort(w, axis=1)[:, :-2] == 0.0)
        assert np.all(np.diag(w) == 0.0)

    def test_network_seeding_is_binary(self):
        cfg = DgpConfig(n=30, m=30, share_model="network-inverse-degree",
                        shift_model="bernoulli", seeding_prob=0.4, seed=4)
        data = generate(cfg)
        assert set(np.unique(data.shifts.values)) <= {0.0, 1.0}

    def test_clustered_shift_labels(self):
        data = generate(DgpConfig(n=20, m=12, shift_model="clustered",
                                  n_shift_clusters=4, shift_rho=0.6, seed=5))
        assert data.shifts.cluster is not None
        assert len(set(data.shifts.cluster.tolist())) == 4

    def test_exchangeable_group_labels(self):
        data = generate(DgpConfig(n=20, m=12, shift_model="exchangeable-groups",
                                  n_exchange_groups=3, seed=6))
        assert data.shifts.exchange_group is not None
        assert len(set(data.shifts.exchange_group.tolist())) == 3

    def test_share_correlated_error_fraction(self):
        # the latent component should carry about the configured share of
        # total error variance on average
        cfg = DgpConfig(n=150, m=40, share_model="sparse-block", n_blocks=8,
                        error_model="share-correlated", share_error_frac=0.5,
                        error_sd=1.0, seed=7)
        ratios = []
        for rep in range(200):
            data = simulate._generate(cfg, simulate._labels(cfg), (rep,))
            u = data.truth.latent_error_shock
            shared = data.shares.weights @ u
            shared = shared * np.sqrt(
                0.5 / np.mean(np.sum(data.shares.weights**2, axis=1))
            )
            ratios.append(np.var(shared) / np.var(data.truth.errors))
        assert 0.3 < np.mean(ratios) < 0.7

    def test_first_stage_noise_and_pi(self):
        cfg = DgpConfig(n=50, m=10, pi_sd=0.3, first_stage_noise_sd=0.5,
                        first_stage_endog=0.5, seed=8)
        data = generate(cfg)
        assert data.truth.pi is not None
        assert not np.array_equal(data.dataset.regressor, data.instrument)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValidationError):
            DgpConfig(n=10, m=5, shift_rho=1.0)
        with pytest.raises(ValidationError):
            DgpConfig(n=10, m=5, share_model="nope")
        with pytest.raises(ValidationError):
            DgpConfig(n=10, m=8, share_model="network-inverse-degree")
        with pytest.raises(ValidationError):
            DgpConfig(n=10, m=5, share_error_frac=1.5)
        for alpha in (0.0, -1.0, float("nan")):
            with pytest.raises(ValidationError, match="dirichlet_concentration"):
                DgpConfig(n=20, m=8, dirichlet_concentration=alpha)
        for name in ("n_blocks", "n_shift_clusters", "n_exchange_groups", "network_neighbors"):
            for count in (0, -3, 1.5):
                with pytest.raises(ValidationError, match=f"{name} must be an integer of at"):
                    DgpConfig(n=20, m=20, **{name: count})
        for name, count in (("n", 20.0), ("m", 8.5), ("n", 1), ("m", np.float64(8))):
            with pytest.raises(ValidationError, match=f"^{name} must be an integer of at least 2$"):
                DgpConfig(**{"n": 20, "m": 8, name: count})

    @settings(max_examples=80, deadline=None)
    @given(model=st.sampled_from(simulate.SHARE_MODELS), n=st.integers(3, 40),
           m=st.integers(2, 40), n_blocks=st.integers(1, 12),
           concentration=st.floats(0.01, 5.0), seed=st.integers(0, 2**16), data=st.data())
    @example(model="sparse-block", n=60, m=30, n_blocks=5, concentration=0.01, seed=1,
             data=None)  # holds exact zeros
    def test_a_draw_stores_what_from_triplets_would(self, model, n, m, n_blocks,
                                                    concentration, seed, data):
        """However a share model writes its draw, the stored matrix is the one that
        ``from_triplets`` builds from the draw's own nonzero shares, field by field."""
        neighbors = 1
        if model == "network-inverse-degree":
            m = n
            neighbors = 1 if data is None else data.draw(st.integers(1, (n - 1) // 2))
        config = DgpConfig(n=n, m=m, seed=seed, share_model=model, n_blocks=n_blocks,
                           dirichlet_concentration=concentration,
                           network_neighbors=neighbors)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShiftShareWarning)  # rows of zeros may be drawn
            shares = generate(config).shares
            rebuilt = ShareMatrix.from_triplets(*shares.nonzero(), shares.row_ids,
                                                shares.col_ids)
        for name in [f.name for f in fields(ShareMatrix)] + ["_blocks"]:
            ours, theirs = getattr(shares, name), getattr(rebuilt, name)
            if isinstance(ours, np.ndarray):
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
                assert not ours.flags.writeable
            else:
                assert ours == theirs, name


class TestRunCoverage:
    def test_noiseless_recovers_truth_for_all_estimators(self):
        cfg = DgpConfig(n=40, m=16, beta_true=-0.8, error_sd=0.0, seed=0)
        results = run_coverage(cfg, ["conventional-hc", "exposure-robust"],
                               replications=120, seed=5)
        for r in results:
            assert abs(r.mean_bias) < 1e-10
            assert r.n_failed == 0

    def test_identical_data_across_estimators(self):
        cfg = DgpConfig(n=50, m=20, seed=0)
        seen = {}

        def capture(tag):
            def fn(data):
                seen.setdefault(tag, []).append(data.dataset.outcome.copy())
                return shiftshare_2sls(data.dataset, data.instrument)
            return fn

        results = run_coverage(cfg, [("a", capture("a"), "conventional_hc"),
                                     ("b", capture("b"), "conventional_hc")],
                               replications=100, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(seen["a"], seen["b"]))
        assert results[0].coverage95 == results[1].coverage95

    def test_failures_counted_and_excluded(self):
        cfg = DgpConfig(n=30, m=10, seed=0)
        calls = {"k": 0}

        def flaky(data):
            calls["k"] += 1
            if calls["k"] % 3 == 0:
                from shiftshare.errors import EstimationError
                raise EstimationError("synthetic failure")
            return shiftshare_2sls(data.dataset, data.instrument)

        results = run_coverage(cfg, [("flaky", flaky, "conventional_hc")],
                               replications=120, seed=1)
        assert results[0].n_failed == 40
        assert results[0].replications == 120

    def test_numerical_failures_counted(self):
        cfg = DgpConfig(n=30, m=10, seed=0)

        def diverges(data):
            raise NumericalError("alternating demeaning did not converge")

        results = run_coverage(cfg, [("diverges", diverges, "conventional_hc"), "conventional-hc"],
                               replications=100, seed=2)
        assert results[0].n_failed == 100
        assert results[1].n_failed == 0

    def test_low_replications_warn(self):
        cfg = DgpConfig(n=20, m=8, seed=0)
        with pytest.warns(ShiftShareWarning, match="replications"):
            run_coverage(cfg, ["conventional-hc"], replications=50, seed=0)

    def test_unknown_estimator_rejected(self):
        cfg = DgpConfig(n=20, m=8, seed=0)
        with pytest.raises(ValidationError, match="unknown estimator"):
            run_coverage(cfg, ["nope"], replications=100, seed=0)

    @pytest.mark.parametrize("replications", [0, -5])
    def test_no_replications_rejected(self, replications):
        cfg = DgpConfig(n=20, m=8, seed=0)
        with pytest.raises(ValidationError, match="at least 1 replication"):
            run_coverage(cfg, ["conventional-hc"], replications=replications, seed=0)

    def test_no_estimators_rejected(self, monkeypatch):
        # rejected before any replication is drawn
        monkeypatch.setattr(simulate, "generate", None)
        cfg = DgpConfig(n=20, m=8, seed=0)
        with pytest.raises(ValidationError, match="no estimators given"):
            run_coverage(cfg, [], replications=100, seed=0)

    def test_repeated_estimator_name_rejected(self, monkeypatch):
        # results are kept by name, so a repeat would pool its draws twice;
        # rejected before any replication is drawn
        monkeypatch.setattr(simulate, "generate", None)
        cfg = DgpConfig(n=20, m=8, seed=0)
        with pytest.raises(ValidationError, match="'conventional-hc' is given more than once"):
            run_coverage(cfg, ["conventional-hc", "exposure-robust", "conventional-hc"],
                         replications=100, seed=0)

    def test_iid_conventional_coverage_band(self):
        # quick version of the calibration run; the acceptance suite runs the
        # full-size experiment
        cfg = DgpConfig(n=200, m=50, beta_true=1.0, error_model="iid", seed=0)
        results = run_coverage(cfg, ["conventional-hc"], replications=300, seed=7)
        assert 0.90 <= results[0].coverage95 <= 0.99

    def test_registry_exposes_documented_estimators(self):
        assert {"conventional-hc", "exposure-robust", "exposure-cluster"} <= set(ESTIMATORS)


class TestEstimatorVariants:
    def test_unit_clustering_still_undercovers_with_share_errors(self):
        cfg = DgpConfig(n=200, m=300, beta_true=1.0, share_model="sparse-block",
                        n_blocks=10, error_model="share-correlated",
                        share_error_frac=0.5, seed=0)
        results = {r.estimator: r for r in run_coverage(
            cfg, ["conventional-cluster", "exposure-cluster"],
            replications=300, seed=11)}
        assert results["conventional-cluster"].coverage95 < 0.92
        assert results["exposure-cluster"].coverage95 > results[
            "conventional-cluster"].coverage95

    def test_exposure_cluster_runs_with_clustered_shifts(self):
        cfg = DgpConfig(n=120, m=60, shift_model="clustered", n_shift_clusters=12,
                        shift_rho=0.4, seed=2)
        results = run_coverage(cfg, ["exposure-cluster"], replications=100, seed=3)
        assert results[0].n_failed == 0
        assert np.isfinite(results[0].coverage95)


def _fails_on_positive_first_shift(data):
    # a shift-level fit that fails on about half of the draws
    if data.shifts.values[0] > 0:
        raise EstimationError("synthetic failure")
    return ESTIMATORS["exposure-robust"][0](data)


class TestOneFitPerDesign:
    CONFIGS = {
        "clustered-shifts": DgpConfig(n=40, m=16, shift_model="clustered", n_shift_clusters=4,
                                      shift_rho=0.3, error_model="share-correlated"),
        "no-shift-clusters": DgpConfig(n=40, m=16, share_model="sparse-block", n_blocks=4),
    }

    @staticmethod
    def _count_calls(monkeypatch, name):
        """Count the calls of ``simulate``'s ``name`` in shared memory, so that the calls
        of forked workers are counted too."""
        calls = multiprocessing.get_context("fork").Value("i", 0)
        fit = getattr(simulate, name)

        def counted(*args, **kwargs):
            with calls.get_lock():
                calls.value += 1
            return fit(*args, **kwargs)

        monkeypatch.setattr(simulate, name, counted)
        return calls

    def test_exposure_estimators_share_one_fit(self, monkeypatch):
        calls = self._count_calls(monkeypatch, "_inverted_iv")
        results = run_coverage(self.CONFIGS["clustered-shifts"],
                               ["exposure-robust", "exposure-cluster"], replications=100, seed=0)
        assert calls.value == 100
        assert [r.n_failed for r in results] == [0, 0]

    def test_conventional_estimators_share_one_solve(self, monkeypatch):
        calls = self._count_calls(monkeypatch, "_unit_iv")
        results = run_coverage(self.CONFIGS["clustered-shifts"],
                               ["conventional-hc", "conventional-cluster"], replications=100,
                               seed=0)
        assert calls.value == 100
        assert [r.n_failed for r in results] == [0, 0]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_together_equals_alone(self, name):
        config = self.CONFIGS[name]
        together = run_coverage(config, list(ESTIMATORS), replications=100, seed=4)
        alone = [run_coverage(config, [e], replications=100, seed=4)[0] for e in ESTIMATORS]
        assert together == alone
        by_name = {r.estimator: r for r in together}
        robust, cluster = by_name["exposure-robust"], by_name["exposure-cluster"]
        # without shift cluster labels the clustered SE falls back to the HC one
        fallback = replace(cluster, estimator="exposure-robust") == robust
        assert fallback == (name == "no-shift-clusters")

    def test_failed_fit_fails_every_estimator_reading_it(self):
        config = self.CONFIGS["clustered-shifts"]
        estimators = [("robust", _fails_on_positive_first_shift, "hc_exposure_robust"),
                      "conventional-hc",
                      ("cluster", _fails_on_positive_first_shift, "cluster_exposure_robust")]
        together = run_coverage(config, estimators, replications=100, seed=6)
        alone = [run_coverage(config, [e], replications=100, seed=6)[0] for e in estimators]
        assert together == alone
        assert together[0].n_failed == together[2].n_failed > 0
        assert together[1].n_failed == 0

    @pytest.mark.parametrize("name", ["clustered-shifts", "drops"])
    def test_shift_cluster_labels_are_encoded_once_per_design(self, monkeypatch, name):
        """The design encodes its shift cluster labels once; a draw that drops shifts of
        zero aggregate weight encodes the labels of the shifts it keeps."""
        config = {**self.CONFIGS, "drops": DgpConfig(
            n=12, m=40, share_model="sparse-block", n_blocks=10, shift_model="clustered",
            n_shift_clusters=4, error_model="share-correlated")}[name]
        base, labels = replace(config, seed=5), simulate._labels(config)
        drops = 0
        for rep in range(100):
            data = simulate._generate(base, labels, (rep,))
            drops += bool(np.any(shift_weights_from(data.dataset, data.shares) == 0))
        assert (drops > 0) == (name == "drops")
        calls = self._count_calls(monkeypatch, "_label_codes")
        results = run_coverage(config, ["exposure-robust", "exposure-cluster"],
                               replications=100, seed=5)
        assert calls.value == 1 + drops
        assert [r.n_failed for r in results] == [0, 0]

    def test_shift_weights_are_computed_once_per_shift_fit(self, monkeypatch):
        """The inversion takes the weights that residualizing the shifts computed."""
        calls = self._count_calls(monkeypatch, "shift_weights_from")
        monkeypatch.setattr(shiftshare.estimate, "shift_weights_from",
                            simulate.shift_weights_from)
        run_coverage(self.CONFIGS["clustered-shifts"], ["exposure-robust", "exposure-cluster"],
                     replications=100, seed=0)
        assert calls.value == 100

    def test_se_key_missing_from_the_report_is_a_validation_error(self):
        unit_fit = ESTIMATORS["conventional-hc"][0]
        with pytest.warns(ShiftShareWarning, match="only 5 replications"):
            with pytest.raises(ValidationError,
                               match=r"'hc_exposure_robust'.*"
                                     r"\['conventional_cluster', 'conventional_hc'\]"):
                run_coverage(DgpConfig(n=20, m=8), [("x", unit_fit, "hc_exposure_robust")],
                             replications=5)


class TestFusedFits:
    """The registry's fits are the public estimators' numbers, bit for bit."""

    CONFIGS = {
        "dirichlet": DgpConfig(n=30, m=12, pi_sd=0.3, first_stage_noise_sd=0.5),
        "sparse-block": DgpConfig(n=40, m=16, share_model="sparse-block", n_blocks=4,
                                  shift_model="clustered", n_shift_clusters=4,
                                  error_model="share-correlated"),
        "network-inverse-degree": DgpConfig(n=25, m=25, share_model="network-inverse-degree",
                                            shift_model="bernoulli", seeding_prob=0.4),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_unit_fit_is_shiftshare_2sls(self, name):
        config = self.CONFIGS[name]
        assert ESTIMATORS["conventional-cluster"][0] is ESTIMATORS["conventional-hc"][0]
        g = max(2, config.n // 10)
        for rep in range(4):
            data = simulate._generate(config, simulate._labels(config), (rep,))
            fused = ESTIMATORS["conventional-hc"][0](data)
            hc = shiftshare_2sls(data.dataset, data.instrument)
            cluster = shiftshare_2sls(data.dataset, data.instrument,
                                      cluster=[f"c{i % g}" for i in range(config.n)])
            assert fused.beta_hat == hc.beta_hat == cluster.beta_hat
            assert fused.se_variants == {**hc.se_variants, **cluster.se_variants}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_shift_fit_is_estimate_inverted(self, name):
        config = self.CONFIGS[name]
        for rep in range(4):
            data = simulate._generate(config, simulate._labels(config), (rep,))
            fused = ESTIMATORS["exposure-robust"][0](data)
            res = residualize_shifts(data.shifts, (), shift_weights_from(data.dataset,
                                                                         data.shares))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ShiftShareWarning)
                public = estimate_inverted(invert(data.dataset, data.shares, data.shifts,
                                                  residuals=res))
            assert fused.beta_hat == public.beta_hat
            se = public.se_variants
            assert fused.se_variants == {"cluster_exposure_robust": se["hc_exposure_robust"],
                                         **se}


# The results of ``run_coverage`` (40 replications each, seed 3, every registry estimator)
# on one configuration per share and shift model, as the fits gave them before the two
# conventional estimators shared a solve, as their fields' repr.
GOLDEN = {
    "dirichlet-iid-normal": (
        DgpConfig(n=30, m=12, pi_sd=0.3, first_stage_noise_sd=0.5, first_stage_endog=0.4),
        [
            ("conventional-hc", 40, 0, 0.05013029528795336, 0.6485158703266406,
             0.8908837751047421, 1.0, 0.0),
            ("conventional-cluster", 40, 0, 0.05013029528795336, 0.6485158703266406,
             0.8721999251777076, 0.9, 0.09999999999999998),
            ("exposure-robust", 40, 0, 0.0501302952879535, 0.6485158703266406,
             0.8294559553873985, 0.95, 0.050000000000000044),
            ("exposure-cluster", 40, 0, 0.0501302952879535, 0.6485158703266406,
             0.8294559553873985, 0.95, 0.050000000000000044),
        ]),
    "sparse-block-clustered": (
        DgpConfig(n=40, m=16, share_model="sparse-block", n_blocks=4,
                  dirichlet_concentration=0.01, shift_model="clustered", n_shift_clusters=4,
                  shift_rho=0.3, error_model="share-correlated"),
        [
            ("conventional-hc", 40, 0, -0.043102955865670665, 0.26993689758454453,
             0.16423731191204036, 0.7, 0.30000000000000004),
            ("conventional-cluster", 40, 0, -0.043102955865670665, 0.26993689758454453,
             0.14676686982855536, 0.675, 0.32499999999999996),
            ("exposure-robust", 40, 0, -0.04310295586567072, 0.2699368975845446,
             0.20459147159637991, 0.825, 0.17500000000000004),
            ("exposure-cluster", 40, 0, -0.04310295586567072, 0.2699368975845446,
             0.17102817943514959, 0.675, 0.32499999999999996),
        ]),
    "network-bernoulli": (
        DgpConfig(n=12, m=12, share_model="network-inverse-degree", shift_model="bernoulli",
                  seeding_prob=0.2),
        [
            ("conventional-hc", 40, 3, -0.0005082160082882303, 1.2056597585699835,
             0.9333845462004775, 0.7837837837837838, 0.21621621621621623),
            ("conventional-cluster", 40, 3, -0.0005082160082882303, 1.2056597585699835,
             0.6195376658552908, 0.6486486486486487, 0.3513513513513513),
            ("exposure-robust", 40, 3, -0.0005082160082883262, 1.2056597585699835,
             0.593338267886005, 0.7027027027027027, 0.29729729729729726),
            ("exposure-cluster", 40, 3, -0.0005082160082883262, 1.2056597585699835,
             0.593338267886005, 0.7027027027027027, 0.29729729729729726),
        ]),
    "dirichlet-exchangeable": (
        DgpConfig(n=30, m=12, shift_model="exchangeable-groups", n_exchange_groups=3,
                  group_mean_spread=0.5, pi_mean=0.8),
        [
            ("conventional-hc", 40, 0, -0.08319879324041042, 0.7194939367948252,
             0.8124881705052864, 1.0, 0.0),
            ("conventional-cluster", 40, 0, -0.08319879324041042, 0.7194939367948252,
             0.7697051289574613, 0.875, 0.125),
            ("exposure-robust", 40, 0, -0.08319879324041039, 0.7194939367948252,
             0.7473589121474516, 0.925, 0.07499999999999996),
            ("exposure-cluster", 40, 0, -0.08319879324041039, 0.7194939367948252,
             0.7473589121474516, 0.925, 0.07499999999999996),
        ]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_coverage_results_are_the_recorded_ones(name):
    config, expected = GOLDEN[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShiftShareWarning)
        results = run_coverage(config, list(ESTIMATORS), replications=40, seed=3)
    assert _bits(results) == [repr(fields) for fields in expected]


def _bits(results):
    """The fields of each result, floats as their shortest round-trip text: equal lists
    are bit-identical, NaN included."""
    return [repr(astuple(r)) for r in results]


class TestWorkers:
    """``run_coverage`` over forked workers, one per usable CPU, against one process."""

    CONFIGS = {
        "dirichlet": DgpConfig(n=30, m=12),
        "sparse-block-share-correlated": DgpConfig(n=40, m=16, share_model="sparse-block",
                                                   n_blocks=4, error_model="share-correlated"),
        # no seeded shift in some draws, so every fit fails on those
        "network-seeding": DgpConfig(n=12, m=12, share_model="network-inverse-degree",
                                     shift_model="bernoulli", seeding_prob=0.2),
        # one shift cluster: every exposure fit fails, so their summaries are NaN
        "one-shift-cluster": DgpConfig(n=30, m=12, shift_model="clustered",
                                       n_shift_clusters=1),
        **TestOneFitPerDesign.CONFIGS,
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_results_are_identical_for_any_cpu_count(self, name, monkeypatch):
        replications = 101  # two workers take 50 and 51 replications, three 33, 34 and 34
        # a registry fit that fails on some draws runs in the workers too
        monkeypatch.setitem(ESTIMATORS, "failing-exposure",
                            (_fails_on_positive_first_shift, "hc_exposure_robust"))
        elsewhere = multiprocessing.get_context("fork").Value("i", 0)
        caller, generate = os.getpid(), simulate._generate

        def counted(*args):
            if os.getpid() != caller:
                with elsewhere.get_lock():
                    elsewhere.value += 1
            return generate(*args)

        monkeypatch.setattr(simulate, "_generate", counted)
        runs = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
            elsewhere.value = 0
            runs[cpus] = run_coverage(self.CONFIGS[name], list(ESTIMATORS), replications,
                                      seed=4)
            assert elsewhere.value == (0 if cpus == 1 else replications)
        assert _bits(runs[1]) == _bits(runs[2]) == _bits(runs[3])
        if name == "clustered-shifts":
            assert 0 < runs[1][-1].n_failed < replications
        assert multiprocessing.active_children() == []

    def test_custom_estimators_run_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        callers = set()

        def fit(data):
            callers.add(os.getpid())
            return shiftshare_2sls(data.dataset, data.instrument)

        run_coverage(DgpConfig(n=30, m=12), ["exposure-robust", ("unit", fit, "conventional_hc")],
                     replications=150, seed=0)
        assert callers == {os.getpid()}

    def test_a_process_with_threads_is_not_forked(self, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        callers, generate = [], simulate._generate

        def recorded(*args):
            callers.append(os.getpid())
            return generate(*args)

        monkeypatch.setattr(simulate, "_generate", recorded)
        done = threading.Event()
        waiter = threading.Thread(target=done.wait, args=(60,))
        waiter.start()
        try:
            run_coverage(DgpConfig(n=30, m=12), ["exposure-robust"], replications=150, seed=0)
        finally:
            done.set()
            waiter.join(60)
        assert not waiter.is_alive()
        assert callers == [os.getpid()] * 150

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_uncaught_error_reaches_the_caller(self, cpus, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        generate = simulate._generate

        def fails_at_70(config, labels, path):
            if path == (70,):
                raise RuntimeError("replication 70 failed")
            return generate(config, labels, path)

        monkeypatch.setattr(simulate, "_generate", fails_at_70)
        with pytest.raises(RuntimeError, match="replication 70 failed"):
            run_coverage(DgpConfig(n=20, m=8), ["conventional-hc"], replications=100, seed=0)
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_breaks_the_run(self, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        generate = simulate._generate

        def dies_at_70(config, labels, path):
            if path == (70,):
                os._exit(3)
            return generate(config, labels, path)

        monkeypatch.setattr(simulate, "_generate", dies_at_70)
        with pytest.raises(BrokenProcessPool):
            run_coverage(DgpConfig(n=20, m=8), ["conventional-hc"], replications=100, seed=0)
        assert multiprocessing.active_children() == []
