"""Data model, validation, ingestion, and long-form reshaping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftshare import (
    Dataset,
    SchemaError,
    ShareMatrix,
    ShiftShareWarning,
    ShiftTable,
    ValidationError,
    load_csv,
    load_inputs,
    save_inputs,
    to_long_form,
)

TOY_SHARES = """unit_id,shift_id,weight
a,s1,0.5
a,s2,0.25
b,s1,1.0
c,s2,0.4
"""

TOY_SHIFTS = """shift_id,value,cluster
s1,1.5,east
s2,-2.0,west
"""

TOY_UNITS = """unit_id,y,x,w_e,pi_1
a,1.0,0.5,2.0,0.1
b,2.0,1.0,1.0,0.2
c,0.5,0.25,1.0,0.3
"""


def write_toy(tmp_path, shares=TOY_SHARES, shifts=TOY_SHIFTS, units=TOY_UNITS):
    paths = {}
    for name, content in (("shares", shares), ("shifts", shifts), ("units", units)):
        path = tmp_path / f"{name}.csv"
        path.write_text(content)
        paths[name] = path
    return paths


class TestLoading:
    def test_toy_fixture_round_trip(self, tmp_path):
        paths = write_toy(tmp_path)
        shares, shifts, dataset = load_csv(paths["shares"], paths["shifts"], paths["units"])
        assert shares.weights.tolist() == [[0.5, 0.25], [1.0, 0.0], [0.0, 0.4]]
        assert shares.row_ids == ("a", "b", "c")
        assert shifts.values.tolist() == [1.5, -2.0]
        assert shifts.cluster.tolist() == ["east", "west"]
        assert dataset.outcome.tolist() == [1.0, 2.0, 0.5]
        assert dataset.regressor.tolist() == [0.5, 1.0, 0.25]
        assert dataset.unit_weights.tolist() == [0.5, 0.25, 0.25]
        assert dataset.controls[:, 0].tolist() == [0.1, 0.2, 0.3]

    def test_negative_share_names_cell(self, tmp_path):
        paths = write_toy(tmp_path, shares=TOY_SHARES.replace("b,s1,1.0", "b,s1,-0.1"))
        with pytest.raises(ValidationError, match=r"'b'.*'s1'"):
            load_csv(paths["shares"], paths["shifts"], paths["units"])

    def test_row_sum_above_one_names_row(self, tmp_path):
        bad = "unit_id,shift_id,weight\na,s1,0.4\nb,s1,1.0\nc,s1,0.7\nc,s2,0.5\n"
        paths = write_toy(tmp_path, shares=bad)
        with pytest.raises(ValidationError, match=r"'c'"):
            load_csv(paths["shares"], paths["shifts"], paths["units"])

    def test_missing_column_names_column(self, tmp_path):
        paths = write_toy(tmp_path, shifts="shift_id,val\ns1,1.0\ns2,2.0\n")
        with pytest.raises(SchemaError, match="'value'"):
            load_csv(paths["shares"], paths["shifts"], paths["units"])

    def test_nan_shift_rejected(self, tmp_path):
        paths = write_toy(tmp_path, shifts="shift_id,value\ns1,nan\ns2,2.0\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load_csv(paths["shares"], paths["shifts"], paths["units"])

    def test_unknown_ids_reported(self, tmp_path):
        paths = write_toy(tmp_path, shares=TOY_SHARES + "zz,s1,0.1\n")
        with pytest.raises(ValidationError, match="zz"):
            load_csv(paths["shares"], paths["shifts"], paths["units"])

    def test_extra_columns_kept(self, tmp_path):
        units = TOY_UNITS.replace("pi_1\n", "pi_1,region\n").replace(
            ",0.1\n", ",0.1,north\n").replace(",0.2\n", ",0.2,south\n").replace(
            ",0.3\n", ",0.3,north\n")
        paths = write_toy(tmp_path, units=units)
        _, _, dataset = load_csv(paths["shares"], paths["shifts"], paths["units"])
        assert dataset.extra_column("region").tolist() == ["north", "south", "north"]


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_save_load_bit_identical(self, rng, tmp_path, fmt):
        n, m = 7, 4
        w = rng.uniform(0, 0.2, size=(n, m))
        shares = ShareMatrix(w, tuple(f"u{i}" for i in range(n)), tuple(f"s{j}" for j in range(m)))
        shifts = ShiftTable(
            rng.normal(size=m) * 1e3,
            tuple(f"s{j}" for j in range(m)),
            cluster=[f"c{j % 2}" for j in range(m)],
            covariates=rng.normal(size=(m, 2)),
        )
        dataset = Dataset(
            outcome=rng.normal(size=n),
            unit_ids=tuple(f"u{i}" for i in range(n)),
            regressor=rng.normal(size=n),
            controls=rng.normal(size=(n, 2)),
            unit_weights=rng.uniform(0.1, 1, size=n),
        )
        paths = save_inputs(tmp_path / "one", shares, shifts, dataset, fmt=fmt)
        shares2, shifts2, dataset2 = load_inputs(
            paths["shares"], paths["shifts"], paths["units"], fmt=fmt
        )
        assert np.array_equal(shares.weights, shares2.weights)
        assert np.array_equal(shifts.values, shifts2.values)
        assert np.array_equal(shifts.covariates, shifts2.covariates)
        assert np.array_equal(dataset.outcome, dataset2.outcome)
        assert np.array_equal(dataset.unit_weights, dataset2.unit_weights)
        paths2 = save_inputs(tmp_path / "two", shares2, shifts2, dataset2, fmt=fmt)
        for key in paths:
            assert paths[key].read_bytes() == paths2[key].read_bytes()


    def test_share_rows_skip_explicit_zeros_in_row_major_order(self, tmp_path):
        w = np.array([[0.0, 0.25, 0.0], [0.5, 0.0, 0.125], [0.0, 0.0, 0.0], [0.1, 0.2, 0.3]])
        with pytest.warns(ShiftShareWarning, match="all-zero"):
            shares = ShareMatrix(w, ("a", "b", "c", "d"), ("s1", "s2", "s3"))
        shifts = ShiftTable(np.array([1.0, -2.0, 0.5]), ("s1", "s2", "s3"))
        dataset = Dataset(outcome=np.arange(4.0), unit_ids=("a", "b", "c", "d"))
        paths = save_inputs(tmp_path, shares, shifts, dataset)
        assert paths["shares"].read_bytes() == (
            b"unit_id,shift_id,weight\r\n"
            b"a,s2,0.25\r\n"
            b"b,s1,0.5\r\n"
            b"b,s3,0.125\r\n"
            b"d,s1,0.1\r\n"
            b"d,s2,0.2\r\n"
            b"d,s3,0.3\r\n"
        )


class TestValidation:
    def test_zero_row_warns_but_passes(self):
        with pytest.warns(ShiftShareWarning, match="all-zero"):
            shares = ShareMatrix(np.array([[0.0, 0.0], [0.5, 0.5]]), ("a", "b"), ("s1", "s2"))
        assert shares.row_sums().tolist() == [0.0, 1.0]

    def test_row_sum_tolerance_boundary(self):
        ShareMatrix(np.array([[1.0 + 5e-10]]), ("a",), ("s1",))
        with pytest.raises(ValidationError):
            ShareMatrix(np.array([[1.0 + 5e-9]]), ("a",), ("s1",))

    def test_weights_normalized(self):
        ds = Dataset(outcome=np.zeros(4), unit_ids=tuple("abcd"), unit_weights=[2, 2, 2, 2])
        assert abs(ds.unit_weights.sum() - 1.0) < 1e-12

    def test_label_coverage(self):
        with pytest.raises(ValidationError, match="cluster"):
            ShiftTable(np.array([1.0, 2.0]), ("s1", "s2"), cluster=["only-one"])

    def test_controls_and_covariates_are_never_transposed(self):
        # a (k, n) array is rejected rather than transposed: with k == n a
        # transpose guess could not tell the two layouts apart
        with pytest.raises(ValidationError, match="one row per unit"):
            Dataset(outcome=np.zeros(4), unit_ids=tuple("abcd"), controls=np.zeros((2, 4)))
        with pytest.raises(ValidationError, match="one row per shift"):
            ShiftTable(np.zeros(3), ("s1", "s2", "s3"), covariates=np.zeros((2, 3)))
        one = Dataset(outcome=np.zeros(4), unit_ids=tuple("abcd"), controls=np.arange(4.0))
        assert one.controls.shape == (4, 1)

    def test_immutability(self):
        shares = ShareMatrix(np.array([[0.5, 0.5]]), ("a",), ("s1", "s2"))
        with pytest.raises(ValueError):
            shares.weights[0, 0] = 1.0

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_valid_random_matrices_accepted(self, n, m, seed):
        gen = np.random.default_rng(seed)
        w = gen.dirichlet(np.ones(m), size=n) * gen.uniform(0.1, 1.0, size=(n, 1))
        shares = ShareMatrix(w, tuple(map(str, range(n))), tuple(map(str, range(m))))
        assert np.all(shares.row_sums() <= 1.0 + 1e-9)


class TestLongForm:
    def make_period(self, values, weights, ids_n, ids_m, **kw):
        shares = ShareMatrix(np.asarray(weights, dtype=float), ids_n, ids_m)
        shifts = ShiftTable(np.asarray(values, dtype=float), ids_m, **kw)
        return shares, shifts

    def test_two_period_block_structure(self):
        sh1, st1 = self.make_period([1.0, 2.0], [[0.5, 0.5]], ("a",), ("s1", "s2"))
        sh2, st2 = self.make_period([3.0, 4.0], [[0.5, 0.5]], ("a",), ("s1", "s2"))
        long_shares, long_shifts, index = to_long_form([sh1, sh2], [st1, st2])
        assert long_shares.weights.shape == (2, 4)
        expected = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
        assert np.array_equal(long_shares.weights, expected)
        assert long_shifts.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert long_shifts.period.tolist() == ["t0", "t0", "t1", "t1"]
        assert index.unit_period_map == (("a", "t0"), ("a", "t1"))

    def test_single_period_identity(self):
        sh, st = self.make_period([1.0, 2.0], [[0.3, 0.4], [0.2, 0.2]], ("a", "b"), ("s1", "s2"))
        long_shares, long_shifts, _ = to_long_form([sh], [st], periods=["2001"])
        assert np.array_equal(long_shares.weights, sh.weights)
        assert np.array_equal(long_shifts.values, st.values)

    def test_off_block_entries_exactly_zero(self, rng):
        # exhaustive scan oracle over a random 3-period panel
        n, m, T = 2, 2, 3
        periods = [f"{2000 + t}" for t in range(T)]
        shares, shifts = [], []
        for _ in range(T):
            w = rng.dirichlet(np.ones(m), size=n) * 0.8
            sh = ShareMatrix(w, ("a", "b"), ("s1", "s2"))
            shares.append(sh)
            shifts.append(ShiftTable(rng.normal(size=m), ("s1", "s2")))
        long_shares, _, index = to_long_form(shares, shifts, periods=periods)
        for row, (unit, row_period) in enumerate(index.unit_period_map):
            for col, (_, col_period) in enumerate(index.shift_period_map):
                value = long_shares.weights[row, col]
                if col_period != row_period:
                    assert value == 0.0

    def test_exposure_and_row_sums_preserved(self, rng):
        n, m, T = 3, 4, 2
        shares, shifts = [], []
        for _ in range(T):
            w = rng.dirichlet(np.ones(m), size=n) * rng.uniform(0.4, 1.0, size=(n, 1))
            shares.append(ShareMatrix(w, ("a", "b", "c"), tuple(f"s{j}" for j in range(m))))
            shifts.append(ShiftTable(rng.normal(size=m), tuple(f"s{j}" for j in range(m))))
        long_shares, long_shifts, index = to_long_form(shares, shifts)
        for row, (unit, period) in enumerate(index.unit_period_map):
            t = int(period[1:])
            i = shares[t].row_ids.index(unit)
            block = long_shares.weights[row, t * m : (t + 1) * m]
            assert np.array_equal(block, shares[t].weights[i])
            # entries are bit-identical, so equal-order sums agree exactly;
            # the padded full-row sum may differ by summation association only
            assert np.sum(block) == np.sum(shares[t].weights[i])
            assert np.isclose(
                long_shares.row_sums()[row], shares[t].row_sums()[i], rtol=4e-16, atol=0
            )
        # long-form exposure equals per-period exposure
        exposure = long_shares.weights @ long_shifts.values
        for row, (unit, period) in enumerate(index.unit_period_map):
            t = int(period[1:])
            i = shares[t].row_ids.index(unit)
            assert np.isclose(
                exposure[row], shares[t].weights[i] @ shifts[t].values, rtol=0, atol=1e-15
            )

    def test_dimension_mismatch_rejected(self, rng):
        sh1, st1 = self.make_period([1.0, 2.0], [[0.5, 0.5]], ("a",), ("s1", "s2"))
        sh2 = ShareMatrix(np.array([[0.5, 0.2, 0.1]]), ("a",), ("s1", "s2", "s3"))
        st2 = ShiftTable(np.array([1.0, 2.0, 3.0]), ("s1", "s2", "s3"))
        with pytest.raises(ValidationError, match="inconsistent"):
            to_long_form([sh1, sh2], [st1, st2])
