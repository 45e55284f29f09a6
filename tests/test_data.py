"""Data model, validation, ingestion, and long-form reshaping."""

import csv
import json
import tempfile
import warnings
from pathlib import Path

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
    load_inputs,
    save_inputs,
    to_long_form,
)
from shiftshare.data import _write_columns

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
        shares, shifts, dataset = load_inputs(paths["shares"], paths["shifts"], paths["units"])
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
            load_inputs(paths["shares"], paths["shifts"], paths["units"])

    def test_row_sum_above_one_names_row(self, tmp_path):
        bad = "unit_id,shift_id,weight\na,s1,0.4\nb,s1,1.0\nc,s1,0.7\nc,s2,0.5\n"
        paths = write_toy(tmp_path, shares=bad)
        with pytest.raises(ValidationError, match=r"'c'"):
            load_inputs(paths["shares"], paths["shifts"], paths["units"])

    def test_missing_column_names_column(self, tmp_path):
        paths = write_toy(tmp_path, shifts="shift_id,val\ns1,1.0\ns2,2.0\n")
        with pytest.raises(SchemaError, match="'value'"):
            load_inputs(paths["shares"], paths["shifts"], paths["units"])

    def test_nan_shift_rejected(self, tmp_path):
        paths = write_toy(tmp_path, shifts="shift_id,value\ns1,nan\ns2,2.0\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load_inputs(paths["shares"], paths["shifts"], paths["units"])

    def test_unknown_ids_reported(self, tmp_path):
        paths = write_toy(tmp_path, shares=TOY_SHARES + "zz,s1,0.1\n")
        with pytest.raises(ValidationError, match="zz"):
            load_inputs(paths["shares"], paths["shifts"], paths["units"])

    def test_extra_columns_kept(self, tmp_path):
        units = TOY_UNITS.replace("pi_1\n", "pi_1,region\n").replace(
            ",0.1\n", ",0.1,north\n").replace(",0.2\n", ",0.2,south\n").replace(
            ",0.3\n", ",0.3,north\n")
        paths = write_toy(tmp_path, units=units)
        _, _, dataset = load_inputs(paths["shares"], paths["shifts"], paths["units"])
        assert dataset.extra_column("region").tolist() == ["north", "south", "north"]

    @pytest.mark.parametrize("units, row", [
        (TOY_UNITS.replace("b,2.0,1.0,1.0,0.2", "b,2.0,1.0,1.0"), 2),
        (TOY_UNITS.replace("c,0.5,0.25,1.0,0.3", "c,0.5,0.25,1.0,0.3,x"), 3),
        (TOY_UNITS.replace(",pi_1\n", "\n"), 1),
        # blank lines are not rows, and a quoted line break stays in its field
        ('unit_id,y,x,w_e,pi_1,note\n\na,1.0,0.5,2.0,0.1,"x\ny"\n\n'
         "b,2.0,1.0,1.0,0.2,z\nc,0.5,0.25,1.0,0.3\n", 3),
    ], ids=["short", "long", "short_header", "blank_lines_and_quoted_break"])
    def test_ragged_csv_row_names_file_and_data_row(self, tmp_path, units, row):
        paths = write_toy(tmp_path, units=units)
        with pytest.raises(SchemaError, match=rf"units\.csv: data row {row} does not have"):
            load_inputs(paths["shares"], paths["shifts"], paths["units"])


# Labels that a CSV writer must quote or a reader could mangle: separators,
# quotes, "#" (a comment marker to np.loadtxt unless comments=None), line
# breaks, edge spaces, non-ASCII text, the empty string and number-like text.
LABELS = st.sampled_from(
    ["", " ", "a,b", '"q"', "#x", " lead", "trail ", "a\nb", "a\r\nb", "é ü", "1.5", "nan"]
) | st.text(alphabet=',"# \r\nab\xe9.1', max_size=5)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -2.5e-310, 1e308, -1e308, -0.0]
)


@st.composite
def input_sets(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))

    def labels(size, unique=False):
        return draw(st.lists(LABELS, min_size=size, max_size=size, unique=unique))

    def floats(shape, elements=FLOATS):
        return np.array(draw(st.lists(elements, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)

    unit_ids, shift_ids = tuple(labels(n, unique=True)), tuple(labels(m, unique=True))
    weights = floats((n, m), st.sampled_from([0.0, 5e-324, 1e-310]) | st.floats(0.0, 1.0 / m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShiftShareWarning)  # all-zero share rows
        shares = ShareMatrix(weights, unit_ids, shift_ids)
    unit_weights = floats((n,), st.floats(0.0, 1.0))
    unit_weights[draw(st.integers(0, n - 1))] += draw(st.floats(5e-324, 1.0))
    shifts = ShiftTable(floats((m,)), shift_ids, cluster=labels(m),
                        covariates=floats((m, draw(st.integers(1, 2)))),
                        extras={"note": labels(m)})
    dataset = Dataset(outcome=floats((n,)), unit_ids=unit_ids, regressor=floats((n,)),
                      controls=floats((n, draw(st.integers(1, 2)))),
                      unit_weights=unit_weights, extras={"region": labels(n)})
    return shares, shifts, dataset


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact_for_any_labels_and_floats(self, fmt, data):
        shares, shifts, dataset = data.draw(input_sets())
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore", ShiftShareWarning)  # all-zero share rows
            paths = save_inputs(Path(tmp, "one"), shares, shifts, dataset, fmt=fmt)
            shares2, shifts2, dataset2 = load_inputs(
                paths["shares"], paths["shifts"], paths["units"], fmt=fmt
            )
            paths2 = save_inputs(Path(tmp, "two"), shares2, shifts2, dataset2, fmt=fmt)
            for key in paths:
                assert paths[key].read_bytes() == paths2[key].read_bytes()
        assert (shares2.row_ids, shares2.col_ids) == (shares.row_ids, shares.col_ids)
        assert shifts2.shift_ids == shifts.shift_ids and dataset2.unit_ids == dataset.unit_ids
        for a, b in [
            (shares.weights, shares2.weights), (shifts.values, shifts2.values),
            (shifts.covariates, shifts2.covariates), (dataset.outcome, dataset2.outcome),
            (dataset.regressor, dataset2.regressor), (dataset.controls, dataset2.controls),
            (dataset.unit_weights, dataset2.unit_weights),
        ]:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert shifts2.cluster.tolist() == shifts.cluster.tolist()
        assert shifts2.extras["note"].tolist() == shifts.extras["note"].tolist()
        assert dataset2.extras["region"].tolist() == dataset.extras["region"].tolist()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_all_zero_shares_round_trip(self, tmp_path, fmt):
        with pytest.warns(ShiftShareWarning, match="all-zero"):
            shares = ShareMatrix(np.zeros((1, 1)), ("a",), ("s1",))
        shifts = ShiftTable(np.array([1.0]), ("s1",))
        dataset = Dataset(outcome=np.array([2.0]), unit_ids=("a",))
        paths = save_inputs(tmp_path, shares, shifts, dataset, fmt=fmt)
        assert paths["shares"].read_bytes() == {"csv": b"unit_id,shift_id,weight\r\n",
                                                "json": b"[]"}[fmt]
        with pytest.warns(ShiftShareWarning, match="all-zero"):
            shares2, _, _ = load_inputs(paths["shares"], paths["shifts"], paths["units"], fmt=fmt)
        assert shares2.weights.tolist() == [[0.0]] and shares2.row_ids == ("a",)

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


def _fmt(value) -> str:
    return repr(float(value))


def write_rows(path, fmt, columns):
    """Reference for ``_write_columns``: one row at a time, floats through ``_fmt``."""
    cells = [[_fmt(v) if isinstance(v, float) else v for v in col] for col in columns.values()]
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(columns))
            writer.writerows(zip(*cells))
    else:
        with open(path, "w") as fh:
            json.dump([{k: str(v) for k, v in zip(columns, row)} for row in zip(*cells)], fh,
                      indent=1)


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 5))
    names = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    kinds = {
        "label": st.lists(LABELS, min_size=rows, max_size=rows),
        "float": st.lists(FLOATS, min_size=rows, max_size=rows).map(np.array),
        "int": st.lists(st.integers(-10**20, 10**20), min_size=rows, max_size=rows),
    }
    return {name: draw(st.one_of(*kinds.values())) for name in names}


class TestColumnWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(columns=tables())
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_a_row_by_row_writer(self, fmt, columns):
        with tempfile.TemporaryDirectory() as tmp:
            _write_columns(Path(tmp, "columns"), fmt, columns)
            write_rows(Path(tmp, "rows"), fmt, columns)
            assert Path(tmp, "columns").read_bytes() == Path(tmp, "rows").read_bytes()


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

    def test_weights_whose_sum_overflows_rejected(self):
        # the sum is inf, and dividing by it would store all-zero weights
        with pytest.raises(ValidationError, match="finite sum"):
            Dataset(outcome=[1.0, 2.0], unit_ids=("a", "b"), unit_weights=[1e308, 1e308])

    def test_column_names_that_save_inputs_would_overwrite_rejected(self):
        # saved, a control named x replaced the regressor and an extra named value
        # replaced the shift values; every repeated name is rejected when built
        with pytest.raises(ValidationError, match="'x'"):
            Dataset(outcome=[1.0, 2.0], unit_ids=("a", "b"), regressor=[3.0, 4.0],
                    controls=[[5.0], [6.0]], control_names=("x",))
        with pytest.raises(ValidationError, match="'value'"):
            ShiftTable([1.0, 2.0], ("s1", "s2"), extras={"value": ["a", "b"]})
        unit = {"outcome": [1.0, 2.0], "unit_ids": ("a", "b")}
        for name in ("unit_id", "y", "x", "w_e"):
            with pytest.raises(ValidationError, match=f"'{name}'"):
                Dataset(**unit, extras={name: ["p", "q"]})
        with pytest.raises(ValidationError, match="'pi_1'"):
            Dataset(**unit, controls=[[5.0], [6.0]], extras={"pi_1": ["p", "q"]})
        with pytest.raises(ValidationError, match="'c'"):
            Dataset(**unit, controls=np.zeros((2, 2)), control_names=("c", "c"))
        shift = {"values": [1.0, 2.0], "shift_ids": ("s1", "s2")}
        for name in ("shift_id", "value", "cluster", "period", "exchange_group"):
            with pytest.raises(ValidationError, match=f"'{name}'"):
                ShiftTable(**shift, covariates=[0.0, 1.0], covariate_names=(name,))
        with pytest.raises(ValidationError, match="'p_1'"):
            ShiftTable(**shift, covariates=[0.0, 1.0], extras={"p_1": ["a", "b"]})
        with pytest.raises(ValidationError, match="'k'"):
            ShiftTable(**shift, covariates=np.zeros((2, 2)), covariate_names=("k", "k"))

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
