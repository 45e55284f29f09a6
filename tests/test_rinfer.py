"""Randomization inference: exactness, invariances, and reproducibility."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftshare import (
    Dataset,
    ShareMatrix,
    ShiftShareWarning,
    ShiftTable,
    ValidationError,
    ri_estimate,
    ri_test,
)
from shiftshare import rinfer
from shiftshare.rinfer import _group_indices, _moment_vectors, _randomization_moments

from conftest import random_share_matrix, shift_ids, unit_ids


def build_case(rng, n=60, m=12, beta=1.5, noise=0.5, groups=None):
    shares = random_share_matrix(rng, n, m, complete=True)
    d = rng.normal(size=m)
    shifts = ShiftTable(d, shift_ids(m), exchange_group=groups)
    x = shares.weights @ d
    y = beta * x + noise * rng.normal(size=n)
    ds = Dataset(outcome=y, unit_ids=unit_ids(n), regressor=x)
    return ds, shares, shifts


class TestRiTest:
    def test_enumeration_matches_exact_count_oracle(self, rng):
        ds, shares, shifts = build_case(rng, n=40, m=4)
        result = ri_test(ds, shares, shifts, beta0=0.9, draws=2000, seed=0)
        assert result.method == "enumeration"
        assert result.draws == 24
        s_y, s_x = _moment_vectors(ds, shares, shifts)
        d = shifts.values
        stats = np.array(
            [
                np.dot(d[list(p)], s_y) - 0.9 * np.dot(d[list(p)], s_x)
                for p in itertools.permutations(range(4))
            ]
        )
        center = stats.mean()
        observed = np.dot(d, s_y) - 0.9 * np.dot(d, s_x)
        oracle = np.mean(np.abs(stats - center) >= abs(observed - center))
        assert result.p_value == oracle

    def test_sharp_null_noiseless(self, rng):
        ds, shares, shifts = build_case(rng, noise=0.0, beta=2.0)
        result = ri_test(ds, shares, shifts, beta0=2.0, draws=500, seed=1)
        assert result.stat_observed == pytest.approx(result.stat_mean, abs=1e-12)
        assert result.p_value == 1.0

    def test_constant_shifts_give_p_one(self, rng):
        n, m = 30, 6
        shares = random_share_matrix(rng, n, m, complete=True)
        shifts = ShiftTable(np.full(m, 1.3), shift_ids(m))
        x = shares.weights @ shifts.values
        y = x + rng.normal(size=n)
        ds = Dataset(outcome=y, unit_ids=unit_ids(n), regressor=x)
        result = ri_test(ds, shares, shifts, beta0=0.0, draws=300, seed=2)
        assert result.p_value == 1.0
        assert np.ptp(result.stat_distribution) == pytest.approx(0.0, abs=1e-12)

    def test_low_draws_warn(self, rng):
        ds, shares, shifts = build_case(rng, m=30)
        with pytest.warns(ShiftShareWarning, match="draws"):
            ri_test(ds, shares, shifts, beta0=1.0, draws=50, seed=0)

    def test_degenerate_group_rejected(self, rng):
        groups = ["g0"] + ["g1"] * 11
        ds, shares, shifts = build_case(rng, m=12, groups=groups)
        with pytest.raises(ValidationError, match="fewer than 2"):
            ri_test(ds, shares, shifts, beta0=1.0, draws=200, seed=0)

    def test_permutations_confined_to_groups(self, rng):
        # two groups with wildly different scales: if permutations leaked
        # across groups the null distribution would explode
        m = 10
        groups = ["a"] * 5 + ["b"] * 5
        d = np.concatenate([rng.normal(0, 1, 5), rng.normal(100, 1, 5)])
        shares = random_share_matrix(rng, 50, m, complete=True)
        shifts = ShiftTable(d, shift_ids(m), exchange_group=groups)
        x = shares.weights @ d
        y = x + 0.3 * rng.normal(size=50)
        ds = Dataset(outcome=y, unit_ids=unit_ids(50), regressor=x)
        result = ri_test(ds, shares, shifts, beta0=1.0, draws=400, seed=5)
        spread = np.std(result.stat_distribution)
        d_pooled = rng.permutation(d)
        shifts_pooled = ShiftTable(d_pooled, shift_ids(m))
        pooled = ri_test(ds, shares, shifts_pooled, beta0=1.0, draws=400, seed=5)
        assert spread < np.std(pooled.stat_distribution) / 3

    def test_seed_reproducibility(self, rng):
        ds, shares, shifts = build_case(rng, m=25)
        a = ri_test(ds, shares, shifts, beta0=0.7, draws=500, seed=11)
        b = ri_test(ds, shares, shifts, beta0=0.7, draws=500, seed=11)
        assert a.p_value == b.p_value
        assert np.array_equal(a.stat_distribution, b.stat_distribution)
        c = ri_test(ds, shares, shifts, beta0=0.7, draws=500, seed=12)
        assert not np.array_equal(a.stat_distribution, c.stat_distribution)


class TestRiEstimate:
    def test_noiseless_point_estimate_exact(self, rng):
        ds, shares, shifts = build_case(rng, noise=0.0, beta=-0.75)
        result = ri_estimate(ds, shares, shifts, draws=400, seed=3)
        assert result.point_estimate == pytest.approx(-0.75, abs=1e-12)

    def test_interval_contains_point_and_truth(self, rng):
        ds, shares, shifts = build_case(rng, n=100, m=25, beta=1.5, noise=0.4)
        result = ri_estimate(ds, shares, shifts, draws=800, seed=4)
        assert result.ci_lower < result.point_estimate < result.ci_upper
        assert result.ci_lower < 1.5 < result.ci_upper
        p_point = result.p_values[np.argmin(np.abs(result.beta_grid - result.point_estimate))]
        p_edge = result.p_values[0]
        assert p_point >= p_edge

    def test_demeaning_invariance(self, rng):
        groups = [f"g{j % 3}" for j in range(30)]
        ds, shares, shifts = build_case(rng, n=80, m=30, groups=groups)
        offsets = np.array([{"g0": 10.0, "g1": -3.0, "g2": 0.5}[g] for g in groups])
        shifted = shifts.with_values(shifts.values + offsets)
        grid = np.linspace(0.0, 3.0, 61)
        a = ri_estimate(ds, shares, shifts, draws=600, seed=9, grid=grid)
        b = ri_estimate(ds, shares, shifted, draws=600, seed=9, grid=grid)
        assert np.array_equal(a.p_values, b.p_values)
        assert a.point_estimate == pytest.approx(b.point_estimate, abs=1e-9)
        assert a.ci_lower == pytest.approx(b.ci_lower, abs=1e-6)
        assert a.ci_upper == pytest.approx(b.ci_upper, abs=1e-6)

    def test_unbounded_interval_warns(self, rng):
        # weak identification: tiny instrument slope relative to its draws
        n, m = 25, 4
        shares = random_share_matrix(rng, n, m, complete=True)
        d = rng.normal(size=m)
        shifts = ShiftTable(d, shift_ids(m))
        x = rng.normal(size=n)  # unrelated to shifts
        y = rng.normal(size=n)
        ds = Dataset(outcome=y, unit_ids=unit_ids(n), regressor=x)
        with pytest.warns(ShiftShareWarning, match="unbounded"):
            result = ri_estimate(ds, shares, shifts, draws=500, seed=8)
        assert np.isinf(result.ci_lower) and np.isinf(result.ci_upper)
        assert result.intervals[0][0] == -np.inf and result.intervals[-1][1] == np.inf
        ci = result.to_dict()["ci"]
        assert ci["lower"] is None and ci["upper"] is None
        assert ci["intervals"][0][0] is None and ci["intervals"][-1][1] is None

    def test_moderate_size_control(self, rng):
        # quick sharp-null size check; the acceptance suite runs the full one
        rejections = 0
        reps = 200
        for rep in range(reps):
            gen = np.random.default_rng(1000 + rep)
            shares = random_share_matrix(gen, 40, 10, complete=True)
            d = gen.normal(size=10)
            shifts = ShiftTable(d, shift_ids(10))
            x = shares.weights @ d
            y = 1.0 * x + 0.5 * gen.normal(size=40)
            ds = Dataset(outcome=y, unit_ids=unit_ids(40), regressor=x)
            p = ri_test(ds, shares, shifts, beta0=1.0, draws=199, seed=rep).p_value
            rejections += p <= 0.05
        rate = rejections / reps
        assert 0.01 <= rate <= 0.10


def abs_deviation_p_value(beta, a_ref, c_ref):
    """Share of the reference set at least as far from its mean as row 0, by
    comparing absolute deviations; ties of mirror draws are left to rounding."""
    center = float(np.mean(a_ref)) - beta * float(np.mean(c_ref))
    dev = np.abs(a_ref - beta * c_ref - center)
    return float(np.count_nonzero(dev >= dev[0])) / dev.shape[0]


def brute_force_profile(ds, shares, shifts, betas, draws, seed=0, groups=None):
    """The absolute-deviation p-value at each of ``betas``, with the reference
    set ``ri_estimate`` uses."""
    a, c, *_ = _randomization_moments(ds, shares, shifts, draws, seed, groups)
    return np.array([abs_deviation_p_value(b, a, c) for b in betas]), a, c


def breakpoints(a, c):
    """Every beta at which some draw can change extremity relative to row 0."""
    a_dev, c_dev = a - a.mean(), c - c.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.r_[(a - a[0]) / (c - c[0]), (a_dev + a_dev[0]) / (c_dev + c_dev[0])]
    return np.sort(roots[np.isfinite(roots)])


def inside(intervals, betas):
    return np.array([any(lo <= b <= hi for lo, hi in intervals) for b in betas])


def small_enumeration_case(seed):
    """n=30 units over m=5 shifts, small enough to enumerate all 120 permutations."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(5), 30)
    d = rng.normal(size=5)
    x = w @ d + 0.5 * rng.normal(size=30)
    y = x + rng.normal(size=30)
    ds = Dataset(outcome=y, unit_ids=unit_ids(30), regressor=x)
    return ds, ShareMatrix(w, unit_ids(30), shift_ids(5)), ShiftTable(d, shift_ids(5))


class TestConfidenceSet:
    def test_enumeration_endpoints_are_p_value_crossings(self, rng):
        ds, shares, shifts = build_case(rng, n=40, m=5, noise=1.0)
        result = ri_estimate(ds, shares, shifts, draws=2000, level=0.9)
        assert result.method == "enumeration"
        alpha = 1.0 - result.level
        for lo, hi in result.intervals:
            eps = 1e-7 * max(1.0, abs(lo), abs(hi))
            below, above, first, last = brute_force_profile(
                ds, shares, shifts, [lo - eps, hi + eps, lo + eps, hi - eps], draws=2000
            )[0]
            assert below <= alpha and above <= alpha
            assert first > alpha and last > alpha
        assert result.ci_lower == result.intervals[0][0]
        assert result.ci_upper == result.intervals[-1][1]

    @pytest.mark.parametrize("seed, pieces", [
        (69, [(0.4944, 1.5921), (4.6624, 5.3539)]),
        (257, [(-9.5201, 5.5165), (5.6444, 21.7047)]),
    ])
    def test_non_convex_sets_are_reported_piece_by_piece(self, seed, pieces):
        ds, shares, shifts = small_enumeration_case(seed)
        result = ri_estimate(ds, shares, shifts, draws=2000, level=0.95)
        assert result.method == "enumeration"
        assert np.array(result.intervals) == pytest.approx(np.array(pieces), abs=6e-5)
        assert (result.ci_lower, result.ci_upper) == (result.intervals[0][0],
                                                      result.intervals[-1][1])
        assert result.ci_lower < result.point_estimate < result.ci_upper
        grid = np.linspace(pieces[0][0] - 1.0, pieces[-1][1] + 1.0, 4001)
        p = brute_force_profile(ds, shares, shifts, grid, draws=2000)[0]
        near = np.min(np.abs(grid[:, None] - np.ravel(result.intervals)[None, :]), axis=1)
        away = near > 1e-6
        assert np.array_equal((p > 0.05)[away], inside(result.intervals, grid)[away])

    def test_mirror_draw_counts_at_every_beta(self, rng):
        # two groups of two: swapping both negates the observed deviation, so
        # that draw is exactly as extreme as the observed one at every beta
        # and p >= 2/4 everywhere
        ds, shares, shifts = build_case(rng, n=8, m=4, noise=1.0,
                                        groups=["g0", "g0", "g1", "g1"])
        with pytest.warns(ShiftShareWarning, match="unbounded"):
            result = ri_estimate(ds, shares, shifts, draws=100, level=0.75)
        assert result.method == "enumeration"
        assert result.intervals == ((-np.inf, np.inf),)

    def test_mirror_draw_point_p_values_are_exact(self):
        # the same design: ri_test and the p-value profile count the mirror
        # draw at every beta, as the confidence set does
        ds, shares, shifts = build_case(np.random.default_rng(0), n=8, m=4, noise=1.0,
                                        groups=["g0", "g0", "g1", "g1"])
        betas = np.array([-1000.0, -100.0, 100.0, 1000.0])
        for beta in betas:
            assert ri_test(ds, shares, shifts, beta0=beta, draws=100).p_value >= 0.5
        with pytest.warns(ShiftShareWarning, match="unbounded"):
            result = ri_estimate(ds, shares, shifts, draws=100, grid=betas)
        assert np.all(result.p_values >= 0.5)

    @pytest.mark.filterwarnings("ignore::shiftshare.errors.ShiftShareWarning")
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 40),
        m=st.integers(3, 10),
        grouped=st.booleans(),
        level=st.floats(0.5, 0.99),
        noise=st.floats(0.1, 3.0),
        draws=st.integers(100, 400),
    )
    def test_set_is_where_the_p_value_exceeds_alpha(self, seed, n, m, grouped, level,
                                                     noise, draws):
        rng = np.random.default_rng(seed)
        # groups of two shifts have mirror draws, whose extremity the
        # absolute-deviation oracle decides by rounding (the library counts
        # them exactly); test_mirror_draw_counts_at_every_beta covers them
        groups = ["g0"] * (m // 2) + ["g1"] * (m - m // 2) if grouped and m >= 6 else None
        ds, shares, shifts = build_case(rng, n=n, m=m, noise=noise, groups=groups)
        result = ri_estimate(ds, shares, shifts, draws=draws, level=level, seed=seed % 1000)
        ends = np.ravel(result.intervals)
        finite = np.r_[ends[np.isfinite(ends)], result.point_estimate]
        width = max(1.0, np.ptp(finite))
        # every piece, every gap between pieces, and a grid around them
        probes = np.r_[
            np.linspace(finite.min() - width, finite.max() + width, 201),
            [0.5 * (lo + hi) for lo, hi in result.intervals if np.isfinite(lo + hi)],
            0.5 * (ends[1:-1:2] + ends[2::2]),
        ]
        p, a, c = brute_force_profile(ds, shares, shifts, probes, draws=draws,
                                      seed=seed % 1000)
        roots = breakpoints(a, c)
        near = np.min(np.abs(probes[:, None] - roots[None, :]), axis=1)
        away = near > 1e-7 * np.maximum(1.0, np.abs(probes))
        expected = p > 1.0 - level
        assert np.array_equal(expected[away], inside(result.intervals, probes)[away])
        lowers, uppers = ends[0::2], ends[1::2]
        assert np.all(lowers <= uppers) and np.all(uppers[:-1] < lowers[1:])


def test_result_distribution_is_affine_in_beta(rng):
    ds, shares, shifts = build_case(rng, n=50, m=15)
    result = ri_estimate(ds, shares, shifts, draws=300, seed=2)
    dist0 = result.stat_distribution(0.0)
    dist1 = result.stat_distribution(1.0)
    assert dist0.shape == (result.draws,)
    assert np.allclose(dist0 - dist1, result.draw_slopes, rtol=1e-12)


def draws_by_shifts_moments(ds, shares, shifts, draws, seed, groups):
    """(A, C) from one (draws + 1) x m permuted copy of the shifts, observed
    assignment first: every draw's full permutation index, sampled from the
    same stream as the library or enumerated in ``itertools.product`` order."""
    s_y, s_x = _moment_vectors(ds, shares, shifts)
    group_indices = _group_indices(shifts, groups)
    m = shifts.n_shifts
    total = math.prod(math.factorial(idx.size) for idx in group_indices)
    if total <= draws:
        per_group = [list(itertools.permutations(idx.tolist())) for idx in group_indices]
        perms = np.tile(np.arange(m), (total, 1))
        for row, combo in enumerate(itertools.product(*per_group)):
            for idx, assigned in zip(group_indices, combo):
                perms[row, idx] = assigned
    else:
        rng = np.random.Generator(np.random.Philox(key=seed))
        perms = np.tile(np.arange(m), (draws + 1, 1))
        for idx in group_indices:
            perms[1:, idx] = idx[np.argsort(rng.random((draws, idx.size)), axis=1)]
    permuted = shifts.values[perms]
    return permuted @ s_y, permuted @ s_x


class TestPerGroupMoments:
    @pytest.mark.parametrize("groups, draws, method", [
        (None, 300, "sampling"),
        ([f"g{j % 3}" for j in range(12)], 300, "sampling"),
        ([f"g{j % 4}" for j in range(12)], 2000, "enumeration"),
        (["a"] * 2 + ["b"] * 3 + ["c"] * 2, 100, "enumeration"),
        (["a"] * 5, 200, "enumeration"),
    ])
    def test_reference_set_matches_full_permutations(self, rng, groups, draws, method):
        m = len(groups) if groups is not None else 12
        ds, shares, shifts = build_case(rng, n=40, m=m, groups=groups)
        a, c, _, _, got = _randomization_moments(ds, shares, shifts, draws, 7, None)
        assert got == method
        a_full, c_full = draws_by_shifts_moments(ds, shares, shifts, draws, 7, None)
        if groups is None or len(set(groups)) == 1:
            # one group: the same products over the same rows, bit for bit
            assert np.array_equal(a, a_full) and np.array_equal(c, c_full)
        else:
            # per-group sums round differently; enumeration keeps its row order
            assert a == pytest.approx(a_full, rel=1e-12)
            assert c == pytest.approx(c_full, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::shiftshare.errors.ShiftShareWarning")
    def test_memory_stays_below_one_draws_by_shifts_array(self):
        rng = np.random.default_rng(3)
        n, m, draws = 100, 1000, 1000
        ds, shares, shifts = build_case(rng, n=n, m=m,
                                        groups=[f"g{j % 10}" for j in range(m)])
        tracemalloc.start()
        try:
            ri_estimate(ds, shares, shifts, draws=draws, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (draws + 1) * m * 8

    @pytest.mark.filterwarnings("ignore::shiftshare.errors.ShiftShareWarning")
    def test_one_group_of_draws_arrays_alive_at_a_time(self):
        # a group holds two draws x group-size arrays at its peak (orders,
        # then the permuted shifts); a third would mean the previous group's
        # arrays are still alive while the next group's are built
        rng = np.random.default_rng(4)
        n, m, n_groups, draws = 100, 400, 4, 2000
        ds, shares, shifts = build_case(rng, n=n, m=m,
                                        groups=[f"g{j % n_groups}" for j in range(m)])
        tracemalloc.start()
        try:
            ri_estimate(ds, shares, shifts, draws=draws, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (draws + 1) * (m // n_groups) * 8

    @pytest.mark.filterwarnings("ignore::shiftshare.errors.ShiftShareWarning")
    def test_memory_is_bounded_by_a_block_not_the_group(self):
        # one group of 5000 shifts at 2000 draws: a draws x group-size array
        # alone would take 80 MB
        rng = np.random.default_rng(5)
        ds, shares, shifts = build_case(rng, n=40, m=5000)
        tracemalloc.start()
        try:
            ri_estimate(ds, shares, shifts, draws=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("groups", [None, [f"g{j % 3}" for j in range(30)]])
    @pytest.mark.parametrize("block", [1, 10**9])
    def test_block_size_leaves_the_reference_set(self, rng, monkeypatch, groups, block):
        # blocks read the uniform stream in order, so the draws are the same
        # permutations whatever the block size; only the products' rounding moves
        ds, shares, shifts = build_case(rng, n=40, m=30, groups=groups)
        a, c, _, _, method = _randomization_moments(ds, shares, shifts, 300, 7, None)
        monkeypatch.setattr(rinfer, "BLOCK_ELEMENTS", block)
        a_b, c_b, _, _, method_b = _randomization_moments(ds, shares, shifts, 300, 7, None)
        assert method_b == method == "sampling"
        assert a_b == pytest.approx(a, rel=1e-12)
        assert c_b == pytest.approx(c, rel=1e-12)
