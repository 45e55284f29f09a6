"""Data model, validation, ingestion, and long-form reshaping."""

import ast
import csv
import dataclasses
import json
import re
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftshare
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
from shiftshare.construct import complete_shares
from shiftshare.data import (
    _Coded,
    _id_positions,
    _read_long_matrix,
    _scan_long_matrix,
    _share_columns,
    _triplet_order,
    _write_columns,
    load_shares,
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
        ("\ufeff\n\r\n" + TOY_UNITS.replace("b,2.0,1.0,1.0,0.2", "b,2.0,1.0,1.0"), 2),
    ], ids=["short", "long", "short_header", "blank_lines_and_quoted_break",
            "byte_order_mark_and_blank_lines_before_header"])
    def test_ragged_csv_row_names_file_and_data_row(self, tmp_path, units, row):
        paths = write_toy(tmp_path, units=units)
        with pytest.raises(SchemaError, match=rf"units\.csv: data row {row} does not have"):
            load_inputs(paths["shares"], paths["shifts"], paths["units"])


# ---------------------------------------------------------------------------
# the ingestion error table: each case pins the exception class and exact message
# (or the loaded shares) in every format it applies to

BASE = {
    "shares": [["unit_id", "shift_id", "weight"],
               ["a", "s1", "0.5"], ["a", "s2", "0.25"], ["b", "s1", "1.0"], ["c", "s2", "0.4"]],
    "shifts": [["shift_id", "value", "cluster", "p_1"],
               ["s1", "1.5", "east", "0.1"], ["s2", "-2.0", "west", "0.2"]],
    "units": [["unit_id", "y", "x", "w_e", "pi_1"],
              ["a", "1.0", "0.5", "2.0", "0.1"], ["b", "2.0", "1.0", "1.0", "0.2"],
              ["c", "0.5", "0.25", "1.0", "0.3"]],
}
VALID = [[0.5, 0.25], [1.0, 0.0], [0.0, 0.4]]
BOTH, CSV, JSON = ("csv", "json"), ("csv",), ("json",)


def _cell(table, row, column, value):
    """``table`` with the cell at data ``row`` (1-based) of ``column`` replaced."""
    table = [list(r) for r in BASE[table]]
    table[row][table[0].index(column)] = value
    return table


def _renamed(table, old, new):
    """``table`` with every cell ``old`` replaced by ``new``."""
    return [[new if cell == old else cell for cell in row] for row in BASE[table]]


def _rows(table, *rows):
    return [BASE[table][0], *rows]


def _csv_text(table, line_end="\n") -> str:
    """``table`` as CSV with QUOTE_MINIMAL quoting; a ragged row stays ragged."""
    writer = csv.writer(SimpleNamespace(write=str), lineterminator=line_end)
    return "".join(writer.writerow(row) for row in table)


def _json_text(table) -> str:
    return json.dumps([dict(zip(table[0], row)) for row in table[1:]])


# (id, formats, {file: table, raw text or None for absent}, expected): expected is a
# share matrix, or (exception class, message with {shares}, {shifts}, {units} for paths)
INGESTION_CASES = [
    ("valid", BOTH, {}, VALID),
    ("header_only_shares", BOTH, {"shares": _rows("shares")}, [[0.0, 0.0]] * 3),
    ("permuted_columns", BOTH,
     {"shares": [[r[1], r[2], r[0]] for r in BASE["shares"]]}, VALID),
    ("extra_column", BOTH,
     {"shares": [r + [str(k) if k else "note"] for k, r in enumerate(BASE["shares"])]},
     VALID),
    ("underscore_number", BOTH, {"shares": _cell("shares", 2, "weight", "0.2_5")}, VALID),
    ("space_padded_number", BOTH, {"shares": _cell("shares", 2, "weight", " 0.25 ")}, VALID),
    ("arabic_indic_digits", BOTH,
     {"shares": _cell("shares", 1, "weight", "٠.٥")}, VALID),
    ("crlf", CSV, {name: _csv_text(BASE[name], "\r\n") for name in BASE}, VALID),
    ("blank_lines", CSV, {"shares": _csv_text(BASE["shares"]).replace("\n", "\n\n")},
     VALID),
    # a spreadsheet export may start with a byte-order mark, and blank lines are skipped
    # before the header too
    *[(f"{kind}_{name}", CSV, {name: prefix + _csv_text(BASE[name])}, VALID)
      for kind, prefix in (("byte_order_mark", "\ufeff"), ("blank_lines_before_header", "\n\r\n"),
                           ("byte_order_mark_and_blank_line", "\ufeff\n"))
      for name in BASE],
    ("quoted_labels", CSV,
     {name: _renamed(name, "a", 'a,"1"\r\nz') for name in ("shares", "units")}, VALID),
    ("missing_shares", BOTH, {"shares": None}, (SchemaError, "input file not found: {shares}")),
    ("missing_units", BOTH, {"units": None}, (SchemaError, "input file not found: {units}")),
    ("empty_units", CSV, {"units": ""},
     (SchemaError, "{units}: empty file, expected a header row")),
    ("header_only_units", BOTH, {"units": _rows("units")}, (SchemaError, "{units}: no data rows")),
    ("missing_column_y", BOTH, {"units": [r[:1] + r[2:] for r in BASE["units"]]},
     (SchemaError, "{units}: missing required column 'y'")),
    ("missing_column_value", BOTH, {"shifts": [r[:1] + r[2:] for r in BASE["shifts"]]},
     (SchemaError, "{shifts}: missing required column 'value'")),
    ("missing_column_weight", BOTH, {"shares": [r[:2] for r in BASE["shares"]]},
     (SchemaError, "{shares}: missing required column 'weight'")),
    ("bad_y", BOTH, {"units": _cell("units", 2, "y", "abc")},
     (ValidationError, "{units} unit 'b': cannot parse 'abc' as a number")),
    ("bad_x", BOTH, {"units": _cell("units", 2, "x", "abc")},
     (ValidationError, "{units} column x: cannot parse 'abc' as a number")),
    ("bad_w_e", BOTH, {"units": _cell("units", 3, "w_e", "")},
     (ValidationError, "{units} column w_e: cannot parse '' as a number")),
    ("bad_pi", BOTH, {"units": _cell("units", 1, "pi_1", "1,5")},
     (ValidationError, "{units} column pi_1: cannot parse '1,5' as a number")),
    ("bad_value", BOTH, {"shifts": _cell("shifts", 2, "value", "abc")},
     (ValidationError, "{shifts} shift 's2': cannot parse 'abc' as a number")),
    ("bad_covariate", BOTH, {"shifts": _cell("shifts", 1, "p_1", "abc")},
     (ValidationError, "{shifts} column p_1: cannot parse 'abc' as a number")),
    ("two_bad_covariates", BOTH,
     {"shifts": [BASE["shifts"][0] + ["p_2"], BASE["shifts"][1] + ["bad2"],
                 _cell("shifts", 2, "p_1", "bad1")[2] + ["0.0"]]},
     (ValidationError, "{shifts} column p_2: cannot parse 'bad2' as a number")),
    ("nan_value", BOTH, {"shifts": _cell("shifts", 1, "value", "nan")},
     (ValidationError, "{shifts}: non-finite shift value for shift 's1'")),
    ("inf_y", BOTH, {"units": _cell("units", 1, "y", "inf")},
     (ValidationError, "{units}: outcome contains non-finite values")),
    ("duplicate_unit", BOTH, {"units": _cell("units", 2, "unit_id", "a")},
     (ValidationError, "{units}: duplicate unit_id values")),
    ("duplicate_shift", BOTH, {"shifts": _cell("shifts", 2, "shift_id", "s1")},
     (ValidationError, "{shifts}: duplicate shift_id values")),
    # a number is parsed before its table is built, and the table checks its ids
    ("duplicate_shift_and_bad_value", BOTH,
     {"shifts": _rows("shifts", BASE["shifts"][1], ["s1", "abc", "west", "0.2"])},
     (ValidationError, "{shifts} shift 's1': cannot parse 'abc' as a number")),
    ("duplicate_unit_and_bad_y", BOTH,
     {"units": _rows("units", *BASE["units"][1:3], ["a", "abc", "0.25", "1.0", "0.3"])},
     (ValidationError, "{units} unit 'a': cannot parse 'abc' as a number")),
    ("duplicate_shift_and_nan_value", BOTH,
     {"shifts": _rows("shifts", BASE["shifts"][1], ["s1", "nan", "west", "0.2"])},
     (ValidationError, "{shifts}: duplicate shift_id values")),
    ("unknown_ids", BOTH,
     {"shares": BASE["shares"] + [["zz", "s1", "0.1"], ["a", "s9", "0.1"], ["yy", "s8", "0.1"]]},
     (ValidationError, "{shares}: unit ids not in units file: ['yy', 'zz']; "
                       "shift ids not in shifts file: ['s9']")),
    ("unknown_id_longer_than_known", BOTH,
     {"shares": BASE["shares"] + [["c_unit_id_longer_than_any", "s1", "0.1"]]},
     (ValidationError, "{shares}: unit ids not in units file: ['c_unit_id_longer_than_any']")),
    ("unknown_id_extending_known", BOTH, {"shares": BASE["shares"] + [["cc", "s1", "0.1"]]},
     (ValidationError, "{shares}: unit ids not in units file: ['cc']")),
    ("unknown_id_with_nul", BOTH, {"shares": BASE["shares"] + [["c\x00", "s1", "0.1"]]},
     (ValidationError, "{shares}: unit ids not in units file: ['c\\x00']")),
    ("known_id_with_trailing_nul", BOTH, {"shifts": _renamed("shifts", "s2", "s2\x00")},
     (ValidationError, "{shares}: shift ids not in shifts file: ['s2']")),
    ("space_padded_id", BOTH, {"shares": _cell("shares", 3, "unit_id", " b")},
     (ValidationError, "{shares}: unit ids not in units file: [' b']")),
    ("bad_number_after_unknown_ids", BOTH,
     {"shares": _rows("shares", ["zz", "s1", "0.1"], *BASE["shares"][1:3], ["b", "s1", "abc"])},
     (ValidationError, "{shares} weight (b, s1): cannot parse 'abc' as a number")),
    ("bad_number_in_unknown_row", BOTH,
     {"shares": BASE["shares"] + [["zz", "s1", "abc"]]},
     (ValidationError, "{shares}: unit ids not in units file: ['zz']")),
    ("bad_number_in_known_row", BOTH, {"shares": _cell("shares", 2, "weight", "1_")},
     (ValidationError, "{shares} weight (a, s2): cannot parse '1_' as a number")),
    ("file_separator_padded_number", BOTH,
     {"shares": _cell("shares", 2, "weight", "\x1c0.25")},
     (ValidationError, "{shares} weight (a, s2): cannot parse '\\x1c0.25' as a number")),
    ("negative_share", BOTH, {"shares": _cell("shares", 3, "weight", "-0.1")},
     (ValidationError, "{shares}: negative share -0.1 at unit 'b', shift 's1'")),
    ("nan_share", BOTH, {"shares": _cell("shares", 3, "weight", "nan")},
     (ValidationError, "{shares}: non-finite share at unit 'b', shift 's1'")),
    ("row_sum_above_one", BOTH, {"shares": _cell("shares", 2, "weight", "0.75")},
     (ValidationError, "{shares}: row sum 1.25 for unit 'a' exceeds 1 + 1e-09")),
    ("repeated_pair", BOTH,
     {"shares": BASE["shares"] + [["c", "s1", "0.1"], ["a", "s2", "0.1"]]},
     (ValidationError, "{shares}: repeated (unit_id, shift_id) pair ('a', 's2')")),
    ("short_row", CSV, {"shares": BASE["shares"][:3] + [["b", "s1"]] + BASE["shares"][4:]},
     (SchemaError, "{shares}: data row 3 does not have the header's 3 fields")),
    ("long_row", CSV, {"units": BASE["units"] + [["d", "1.0", "1.0", "1.0", "0.1", "x"]]},
     (SchemaError, "{units}: data row 4 does not have the header's 5 fields")),
    ("not_a_list", JSON, {"shifts": '{"shift_id": "s1", "value": "1.5"}'},
     (SchemaError, "{shifts}: expected a JSON array of row objects")),
    ("key_mismatch", JSON,
     {"units": json.dumps([{"unit_id": "a", "y": "1.0"}, {"unit_id": "b", "z": "2.0"}])},
     (SchemaError, "{units}: row 2 is not an object with the keys of row 1")),
    ("null_id", JSON,
     {"shares": json.dumps([{"unit_id": None, "shift_id": "s1", "weight": "0.5"}])},
     (ValidationError, "{shares}: unit ids not in units file: ['None']")),
    ("unknown_format", ("xml",), {},
     (SchemaError, "unknown input format 'xml' (expected csv or json)")),
    ("integer_ids", JSON,
     {"units": json.dumps([{"unit_id": k, "y": 1.0} for k in (1, 2, 3)]),
      "shares": json.dumps([{"unit_id": 2, "shift_id": "s1", "weight": 0.5}])},
     [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]]),
    # json.load gave up on these with a RecursionError traceback
    *[(f"nested_too_deeply_{name}", JSON, {name: "[" * 100_000 + "]" * 100_000},
       (SchemaError, f"{{{name}}}: JSON nested too deeply to read")) for name in BASE],
    # a lone surrogate was read, and then no report could be written with it
    ("lone_surrogate_id", JSON,
     {name: _renamed(name, "a", "\ud800") for name in ("shares", "units")},
     (SchemaError, "{units}: '\\ud800' is not valid Unicode")),
    ("lone_surrogate_label", JSON, {"shifts": _cell("shifts", 2, "cluster", "w\udfff")},
     (SchemaError, "{shifts}: 'w\\udfff' is not valid Unicode")),
    ("lone_surrogate_unknown_share_id", JSON,
     {"shares": BASE["shares"] + [["\udc80", "s1", "0.1"]]},
     (SchemaError, "{shares}: '\\udc80' is not valid Unicode")),
    # a byte-order mark is skipped in JSON as in CSV
    *[(f"byte_order_mark_{name}", JSON, {name: "\ufeff" + _json_text(BASE[name])}, VALID)
      for name in BASE],
    # json.load of the bytes would take it, where the text that _read_columns reads does not
    ("utf16_shares", JSON, {"shares": _json_text(BASE["shares"]).encode("utf-16")},
     (SchemaError, "{shares}: not a JSON file ('utf-8' codec can't decode byte 0xff in "
                   "position 0: invalid start byte)")),
    # float() raised OverflowError on an integer past the float range
    ("integer_past_float_range", JSON,
     {"shares": json.dumps([{"unit_id": "a", "shift_id": "s1", "weight": 10**400}])},
     (ValidationError, f"{{shares}} weight (a, s1): cannot parse {10**400} as a number")),
]


def _case_params():
    return [pytest.param(files, fmt, expected, id=f"{name}-{fmt}")
            for name, formats, files, expected in INGESTION_CASES for fmt in formats]


def _write_inputs(directory, files, fmt) -> dict[str, Path]:
    """The three input files of ``BASE`` with ``files`` in place of some, in ``fmt``."""
    paths = {}
    for name, table in BASE.items():
        content = files.get(name, table)
        paths[name] = directory / f"{name}.{fmt}"
        if isinstance(content, bytes):
            paths[name].write_bytes(content)
        elif content is not None:
            if not isinstance(content, str):
                content = (_json_text if fmt == "json" else _csv_text)(content)
            paths[name].write_text(content, newline="")
    return paths


class TestIngestionErrors:
    @pytest.mark.parametrize("files, fmt, expected", _case_params())
    def test_case(self, tmp_path, files, fmt, expected):
        paths = _write_inputs(tmp_path, files, fmt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShiftShareWarning)  # all-zero share rows
            if isinstance(expected, list):
                shares = load_inputs(paths["shares"], paths["shifts"], paths["units"], fmt)[0]
                assert shares.weights.tolist() == expected
                return
            error, message = expected
            with pytest.raises(error) as caught:
                load_inputs(paths["shares"], paths["shifts"], paths["units"], fmt)
        assert str(caught.value) == message.format(**{k: str(p) for k, p in paths.items()})

    @pytest.mark.parametrize("name, column", [
        ("units", "y"), ("shifts", "value"), ("shares", "weight"), ("shares", "unit_id"),
    ])
    def test_repeated_header_column_rejected(self, tmp_path, name, column):
        # the last of two columns of one name used to win silently
        k = BASE[name][0].index(column)
        paths = _write_inputs(tmp_path, {name: [row + [row[k]] for row in BASE[name]]}, "csv")
        message = f"{paths[name]}: column {column!r} appears more than once in the header"
        with pytest.raises(SchemaError) as caught:
            load_inputs(paths["shares"], paths["shifts"], paths["units"])
        assert str(caught.value) == message
        if name == "shares":
            with pytest.raises(SchemaError) as caught:
                _scan_long_matrix(paths[name], "weight", ("a", "b", "c"), ("s1", "s2"), "csv")
            assert str(caught.value) == message


# Long-format CSV text for the differential test: ids of mixed length with the
# characters a CSV writer must quote, numbers that float() and numpy's C parser
# read alike or apart, ragged rows, repeated pairs and blank lines.
ID_TEXTS = st.sampled_from(["", " ", "a", "bb", "a,b", '"q"', "x\ny", "x\r\ny", "é", "a\x00",
                            "a long id", "s1", "s1 "]) | st.text(alphabet=',"\r\nab1 ', max_size=4)
NUMBER_TEXTS = st.sampled_from([
    "0.5", "-0.0", "nan", "-nan", "1e400", "-1e400", "inf", "5e-324", "1_0", " 2 ", "",
    "abc", "0x1", "\x1c1", "2\x1f", "\x1d3\x1e", "1\x00", "١", "+.5", "1e", "\xa01",
]) | st.floats().map(repr)


def _seldom(draw, strategy, common, odds):
    """A draw from ``strategy`` one time in ``odds``, else ``common``. Hypothesis draws the
    least value of ``integers(1, odds)`` far more often than that (about 30% of the time at
    12), and an index of ``sampled_from`` about evenly, the first one, its simplest, a
    little more often: so the hazard is the last index."""
    return draw(strategy) if draw(st.sampled_from(range(odds))) == odds - 1 else common


@st.composite
def long_csv_files(draw):
    """``(text, unit_ids, shift_ids)`` of a long-format file with column ``value``; each
    hazard is rare, so that many files are clean."""
    unit_ids, shift_ids = (
        tuple(draw(st.lists(ID_TEXTS.filter(lambda t: "\x00" not in t), min_size=1, max_size=6,
                            unique=True)))
        for _ in range(2)
    )

    def unknown(ids):  # any id, or the longest known one with one character more
        longest = max(ids, key=len)
        return ID_TEXTS | st.sampled_from([longest + "x", longest + "\x00"])
    extra = _seldom(draw, st.sampled_from([["note"], ["value"]]), [], odds=5)
    header = draw(st.permutations(["unit_id", "shift_id", "value"] + extra))
    # one row per shift, so that an unknown unit id never makes a repeated pair by chance
    pairs = draw(st.lists(st.tuples(st.sampled_from(unit_ids), st.sampled_from(shift_ids)),
                          min_size=1, max_size=8, unique_by=lambda pair: pair[1]))
    rows = []
    for unit, shift in pairs:
        cells = {"unit_id": _seldom(draw, unknown(unit_ids), unit, odds=12),
                 "shift_id": _seldom(draw, unknown(shift_ids), shift, odds=12),
                 "value": _seldom(draw, NUMBER_TEXTS, repr(draw(st.floats())), odds=6),
                 "note": draw(ID_TEXTS)}
        rows.append([cells[name] for name in header])
    if rows:
        # a repeated pair
        rows += _seldom(draw, st.sampled_from(rows).map(lambda row: [row]), [], odds=5)
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = _seldom(draw, st.sampled_from([rows[k][:-1], rows[k] + ["x"]]), rows[k], odds=5)
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    # "\r\n" as the line end, so that a field holding either character is quoted
    writer = csv.writer(SimpleNamespace(write=str), quoting=quoting, lineterminator="\r\n")
    lines = [writer.writerow(row)[:-2] for row in [header, *rows]]
    lines = [line for line in lines for line in [line] + [""] * draw(st.integers(0, 1))]
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    # a known id with a trailing NUL, which a U array cannot hold, named without it
    k = draw(st.integers(0, len(shift_ids) - 1))
    shift_ids = _seldom(draw, st.just((*shift_ids[:k], shift_ids[k] + "\x00",
                                       *shift_ids[k + 1:])), shift_ids, odds=5)
    # a repeated known id
    unit_ids = _seldom(draw, st.just(unit_ids + unit_ids[:1]), unit_ids, odds=5)
    return line_end.join(lines) + draw(st.sampled_from([line_end, ""])), unit_ids, shift_ids


# Known ids for the JSON differential test: those of the CSV test, and the str() of JSON
# values that are not strings, which the entry-by-entry reader matches
JSON_KNOWN_IDS = ID_TEXTS | st.sampled_from(["5", "1.5", "-0.0", "True", "None", "[]", "{}",
                                             "[1]", "{'a': 1}"])
# JSON values that are not strings: numbers (one past the float range), literals, and nested
# arrays and objects
JSON_OTHERS = st.sampled_from([5, 1.5, -0.0, 10**400, True, False, None, [], [1], {},
                               {"a": 1}]) | st.floats()
JSON_UNKNOWN_IDS = ID_TEXTS | st.sampled_from(["\ud800", "a\udfff"])  # lone surrogates


@st.composite
def long_json_files(draw):
    """``(text, unit_ids, shift_ids)`` of a long-format JSON file with column ``value``; each
    hazard is rare, so that many files are clean."""
    unit_ids, shift_ids = (
        tuple(draw(st.lists(JSON_KNOWN_IDS, min_size=1, max_size=6, unique=True)))
        for _ in range(2)
    )
    pairs = draw(st.lists(st.tuples(st.sampled_from(unit_ids), st.sampled_from(shift_ids)),
                          min_size=1, max_size=8, unique_by=lambda pair: pair[1]))
    clean_values = st.floats().map(repr) | st.floats()
    rows = []
    for unit, shift in pairs:
        cells = {"unit_id": _seldom(draw, JSON_UNKNOWN_IDS | JSON_OTHERS, unit, odds=20),
                 "shift_id": _seldom(draw, JSON_UNKNOWN_IDS | JSON_OTHERS, shift, odds=20),
                 "value": _seldom(draw, NUMBER_TEXTS | JSON_OTHERS, draw(clean_values), odds=10)}
        rows.append(dict(draw(st.permutations(list(cells.items())))))
    # a repeated pair
    rows += _seldom(draw, st.sampled_from(rows).map(lambda row: [dict(row)]), [], odds=5)
    k = draw(st.integers(0, len(rows) - 1))
    row = rows[k]
    mutations = {
        "none": lambda: None,
        "extra key in every row": lambda: [r.update(note="x") for r in rows],
        "extra key in one row": lambda: row.update(note="x"),
        "missing key in every row": lambda: [r.pop("value") for r in rows],
        "missing key in one row": lambda: row.pop("unit_id"),
        "null row": lambda: rows.__setitem__(k, None),
        "row in an array": lambda: rows.__setitem__(k, [row]),
        "row nested in a value": lambda: row.update(value=dict(row)),
        "row nested in an array value": lambda: row.update(value=[dict(row)]),
    }
    mutations[_seldom(draw, st.sampled_from(sorted(mutations)), "none", odds=3)]()
    text = json.dumps(rows)
    # another top level; a key given twice, of which json.load keeps the last; a byte-order
    # mark; nesting deeper than json.load follows
    files = [text.replace("{", '{"value": "x", ', 1), text.replace("{", '{"value": [[]], ', 1),
             "\ufeff" + text, "[" * 5000 + "]" * 5000,
             *map(json.dumps, [[], [rows], rows[0], {"rows": rows}, "rows", 5, None])]
    return _seldom(draw, st.sampled_from(files), text, odds=4), unit_ids, shift_ids


def _scanned(path, column, unit_ids, shift_ids, fmt):
    """``_read_long_matrix`` with no one-pass parser: ``_scan_long_matrix`` reads the file
    entry by entry, and the one triplet check sorts what it read."""
    with mock.patch.dict(shiftshare.data._LONG_PARSERS, clear=True):
        return _read_long_matrix(path, column, unit_ids, shift_ids, fmt)


def _outcome(read):
    try:
        return read()
    except Exception as error:  # noqa: BLE001 -- each reader's exception is compared
        return type(error), str(error)


class TestLongFormatReader:
    @given(case=long_csv_files())
    @settings(max_examples=300, deadline=None)
    def test_c_parse_equals_the_entry_by_entry_scan(self, case):
        text, unit_ids, shift_ids = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "long.csv")
            path.write_text(text, newline="")
            fast = _outcome(lambda: _read_long_matrix(path, "value", unit_ids, shift_ids))
            slow = _outcome(lambda: _scanned(path, "value", unit_ids, shift_ids, "csv"))
        if isinstance(slow[0], np.ndarray):  # the (rows, cols, values) triplets
            assert isinstance(fast[0], np.ndarray)
            for got, want in zip(fast, slow):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            # in the order the contract takes as it is, so that a cached entry is a hit, and
            # arrays of their own, not views that keep a parsed table alive
            for triplets in (fast, slow):
                assert _triplet_order(*triplets, unit_ids, shift_ids, "value")[1] is None
                assert all(a.flags.owndata for a in triplets)
        else:
            assert fast == slow

    @given(case=long_json_files())
    @settings(max_examples=300, deadline=None)
    def test_json_parse_equals_the_entry_by_entry_scan(self, case):
        text, unit_ids, shift_ids = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "long.json")
            path.write_text(text)
            fast = _outcome(lambda: _read_long_matrix(path, "value", unit_ids, shift_ids,
                                                      "json"))
            slow = _outcome(lambda: _scanned(path, "value", unit_ids, shift_ids, "json"))
        if isinstance(slow[0], np.ndarray):  # the same triplet bytes
            assert [a.dtype for a in fast] == [a.dtype for a in slow]
            assert [a.tobytes() for a in fast] == [a.tobytes() for a in slow]
            for triplets in (fast, slow):  # in order, so that a cached entry is a hit
                assert _triplet_order(*triplets, unit_ids, shift_ids, "value")[1] is None
                assert all(a.flags.owndata for a in triplets)
        else:  # the same exception type and message
            assert fast == slow

    def test_a_clean_file_is_never_scanned(self, rng, tmp_path, monkeypatch):
        def scan(*args):
            raise AssertionError("the entry-by-entry reader ran on a clean file")

        n, m = 30, 12
        w = rng.uniform(0.0, 1.0 / m, size=(n, m)) * (rng.random((n, m)) < 0.6)
        shares = ShareMatrix(w, tuple(f"u{i}" for i in range(n)), tuple(f"s{j}" for j in range(m)))
        shifts = ShiftTable(rng.normal(size=m), shares.col_ids)
        dataset = Dataset(outcome=rng.normal(size=n), unit_ids=shares.row_ids)
        paths = save_inputs(tmp_path, shares, shifts, dataset)
        monkeypatch.setattr(shiftshare.data, "_scan_long_matrix", scan)
        loaded = load_inputs(paths["shares"], paths["shifts"], paths["units"])[0]
        assert loaded.weights.tobytes() == w.tobytes()
        for files in ({}, {"shares": [[r[1], r[2], r[0], "x"] for r in BASE["shares"]]},
                      {"shares": "\ufeff\n" + _csv_text(BASE["shares"])}):
            paths = _write_inputs(tmp_path, files, "csv")
            shares = load_inputs(paths["shares"], paths["shifts"], paths["units"])[0]
            assert shares.weights.tolist() == VALID
        # the unit "c" is unknown here, so the scan runs and the stand-in above raises
        with pytest.raises(AssertionError, match="entry-by-entry"):
            _read_long_matrix(paths["shares"], "weight", ("a", "b"), ("s1", "s2"))

    def test_a_clean_file_is_read_once_for_the_hazard_check(self, tmp_path, monkeypatch):
        paths = _write_inputs(tmp_path, {}, "csv")
        reads = []
        path_open = Path.open
        monkeypatch.setattr(Path, "open",
                            lambda self, *args: reads.append(self) or path_open(self, *args))
        triplets = _read_long_matrix(paths["shares"], "weight", ("a", "b", "c"), ("s1", "s2"))
        assert isinstance(triplets[0], np.ndarray)
        assert reads == [Path(paths["shares"])]

    def test_a_hazard_past_the_first_chunk_routes_the_file_to_the_scan(self, tmp_path,
                                                                        monkeypatch):
        """The hazard search reads a file chunk by chunk and searches every chunk."""
        def scan(*args):
            raise AssertionError("the entry-by-entry reader ran")

        monkeypatch.setattr(shiftshare.data, "_scan_long_matrix", scan)
        # blank lines, which both readers skip, push past the first chunk a unit id with a
        # trailing NUL, which a U array would cut to the known id "c"
        text = (_csv_text(BASE["shares"]) + "\n" * shiftshare.data._HAZARD_CHUNK
                + "c\0,s1,0.1\n")
        paths = _write_inputs(tmp_path, {"shares": text}, "csv")
        with pytest.raises(AssertionError, match="entry-by-entry"):
            _read_long_matrix(paths["shares"], "weight", ("a", "b", "c"), ("s1", "s2"))

    def test_a_clean_json_file_is_never_scanned(self, rng, tmp_path, monkeypatch):
        def scan(*args):
            raise AssertionError("the entry-by-entry reader ran on a clean file")

        n, m = 30, 12
        w = rng.uniform(0.0, 1.0 / m, size=(n, m)) * (rng.random((n, m)) < 0.6)
        shares = ShareMatrix(w, tuple(f"u{i}" for i in range(n)), tuple(f"s{j}" for j in range(m)))
        shifts = ShiftTable(rng.normal(size=m), shares.col_ids)
        dataset = Dataset(outcome=rng.normal(size=n), unit_ids=shares.row_ids)
        paths = save_inputs(tmp_path, shares, shifts, dataset, fmt="json")
        monkeypatch.setattr(shiftshare.data, "_scan_long_matrix", scan)
        loaded = load_inputs(paths["shares"], paths["shifts"], paths["units"], "json")[0]
        assert loaded.weights.tobytes() == w.tobytes()
        # rows in any order and with their keys in any order, numbers as JSON numbers
        rows = [dict(reversed(list(zip(BASE["shares"][0], row)))) for row in BASE["shares"][1:]]
        rows = [{**row, "weight": float(row["weight"])} for row in reversed(rows)]
        paths = _write_inputs(tmp_path, {"shares": json.dumps(rows)}, "json")
        assert load_inputs(paths["shares"], paths["shifts"], paths["units"], "json")[0] \
            .weights.tolist() == VALID
        # the unit "c" is unknown here, so the scan runs and the stand-in above raises
        with pytest.raises(AssertionError, match="entry-by-entry"):
            _read_long_matrix(paths["shares"], "weight", ("a", "b"), ("s1", "s2"), "json")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_repeated_pair_is_parsed_once(self, fmt, tmp_path, monkeypatch):
        """A file whose one fault is a repeated pair goes through its one-pass parser once and
        never to the entry-by-entry scan: the one triplet check names the pair."""
        def scan(*args):
            raise AssertionError("the entry-by-entry reader ran")

        parses = []
        parse = shiftshare.data._LONG_PARSERS[fmt]
        monkeypatch.setitem(shiftshare.data._LONG_PARSERS, fmt,
                            lambda path, *args: parses.append(path) or parse(path, *args))
        monkeypatch.setattr(shiftshare.data, "_scan_long_matrix", scan)
        shares = BASE["shares"] + [["c", "s1", "0.1"], ["a", "s2", "0.1"]]
        paths = _write_inputs(tmp_path, {"shares": shares}, fmt)
        with pytest.raises(ValidationError) as caught:
            _read_long_matrix(paths["shares"], "weight", ("a", "b", "c"), ("s1", "s2"), fmt)
        assert str(caught.value) == (f"{paths['shares']}: repeated (unit_id, shift_id) pair "
                                     "('a', 's2')")
        assert parses == [paths["shares"]]

    def test_a_json_file_is_read_without_a_dict_per_row(self, tmp_path):
        """Reading a JSON share file holds its text, not one dict of three strings per row:
        it peaks under the file's size plus 128 bytes per row (json.load alone keeps about
        370 bytes per row)."""
        n, m, per_unit = 4_000, 500, 10
        gen = np.random.default_rng(0)
        cols = np.sort(np.argsort(gen.random((n, m)), axis=1)[:, :per_unit], axis=1)
        rows = np.repeat(np.arange(n), per_unit)
        row_ids, col_ids = tuple(f"u{i}" for i in range(n)), tuple(f"s{j}" for j in range(m))
        shares = ShareMatrix.from_triplets(rows, cols.ravel(), gen.uniform(0, 0.1, rows.size),
                                           row_ids, col_ids)
        path = tmp_path / "shares.json"
        _write_columns(path, "json", _share_columns(shares))
        tracemalloc.start()
        try:
            loaded = _read_long_matrix(path, "weight", row_ids, col_ids, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size + 128 * rows.size
        assert [a.tobytes() for a in loaded] == [a.tobytes() for a in shares.nonzero()]

    @pytest.mark.parametrize("found", [
        # runs that more than halve the entries, each matched once, an id in two runs
        ["u0", "u0", "u0", "u2", "u2", "u1", "u1", "u1", "u0", "u0", "u3", "u3", "u3"],
        # interleaved and unsorted ids with a few short runs, each entry matched
        ["u0", "u0", "u2", "u1", "u2", "u3", "u3", "u3", "u1", "u0"],
        [],
    ])
    def test_ids_are_matched_in_any_order(self, found):
        ids = ["u3", "u1", "u0", "u2"]
        assert _id_positions(ids, np.array(found, dtype=str)).tolist() == list(map(ids.index,
                                                                                   found))
        for k in range(len(found) + 1):  # an unknown id anywhere, in a run or alone
            assert _id_positions(ids, np.array(found[:k] + ["u4"] + found[k:])) is None


# Labels that a CSV writer must quote or a reader could mangle: separators,
# quotes, "#" (a comment marker to np.loadtxt unless comments=None), line
# breaks, edge spaces, non-ASCII text, the empty string and number-like text.
LABELS = st.sampled_from(
    ["", " ", "a,b", '"q"', "#x", " lead", "trail ", "a\nb", "a\r\nb", "é ü", "1.5", "nan"]
) | st.text(alphabet=',"# \r\nab\xe9.1', max_size=5)
# any text: the control characters that parsers strip or read as line ends, and now and
# then a lone surrogate (a text that holds one refuses the whole example)
ANY_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=4) | st.sampled_from(
    ["\x00", "a\x00", "\x1c1", "\u2028", "\x85", "\x0b", "\ufeff", "\r", "b\ud800"])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -2.5e-310, 1e308, -1e308, -0.0]
)


@st.composite
def input_sets(draw, text=LABELS):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))

    def labels(size, unique=False):
        return draw(st.lists(text, min_size=size, max_size=size, unique=unique))

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
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_text_round_trips_or_is_refused_when_built(self, fmt, data):
        """Tables whose ids and labels are any text, lone surrogates included, are refused
        when built if a text holds one, and otherwise reload bit for bit."""
        try:
            tables = data.draw(input_sets(ANY_TEXT))
        except ValidationError as error:
            text, _, rest = str(error).rpartition(" is not valid Unicode")
            assert rest == ""
            with pytest.raises(UnicodeEncodeError):
                ast.literal_eval(text).encode()
            return
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore", ShiftShareWarning)  # all-zero share rows
            paths = save_inputs(tmp, *tables, fmt=fmt)
            loaded = load_inputs(paths["shares"], paths["shifts"], paths["units"], fmt=fmt)
        assert _contents(*loaded) == _contents(*tables)

    def test_shares_of_other_ids_are_not_saved(self, tmp_path):
        shares = ShareMatrix(np.array([[0.5, 0.25]]), ("a",), ("s1", "s2"))
        dataset = Dataset(outcome=[1.0], unit_ids=("a",))
        for shift_ids in (("s1", "s3"), ("s2", "s1"), ("s1",)):
            shifts = ShiftTable(np.ones(len(shift_ids)), shift_ids)
            with pytest.raises(ValidationError, match="the shares must list"):
                save_inputs(tmp_path / "out", shares, shifts, dataset)
        with pytest.raises(ValidationError, match="the shares must list"):
            save_inputs(tmp_path / "out", shares, ShiftTable([1.0, 2.0], ("s1", "s2")),
                        Dataset(outcome=[1.0], unit_ids=("b",)))
        assert not (tmp_path / "out").exists()

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


def _contents(shares, shifts, dataset):
    """Every id and label of the tables of ``input_sets``, and the bytes of every float."""
    arrays = (shares.weights, shifts.values, shifts.covariates, dataset.outcome,
              dataset.regressor, dataset.controls, dataset.unit_weights)
    return (shares.row_ids, shares.col_ids, shifts.shift_ids, dataset.unit_ids,
            [(a.shape, a.tobytes()) for a in arrays], shifts.cluster.tolist(),
            shifts.extras["note"].tolist(), dataset.extras["region"].tolist())


def _fmt(value) -> str:
    return repr(float(value))


def write_rows(path, fmt, columns):
    """Reference for ``_write_columns``: one row at a time, floats through ``_fmt``."""
    columns = {name: [col.labels[k] for k in col.codes] if isinstance(col, _Coded) else col
               for name, col in columns.items()}
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


# besides LABELS: non-ASCII text that JSON escapes, and quotes, backslashes and braces
WRITER_LABELS = LABELS | st.sampled_from(
    ["東京", "naïve\t", "\u2028", "\x7f", 'say "hi"', "a\\b", "{}", "{0}", "%s"]
)


@st.composite
def coded_columns(draw, rows):
    labels = tuple(draw(st.lists(WRITER_LABELS, min_size=1, max_size=4)))
    codes = draw(st.lists(st.integers(0, len(labels) - 1), min_size=rows, max_size=rows))
    return _Coded(labels, np.array(codes, dtype=np.intp))


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 8))
    names = draw(st.lists(WRITER_LABELS, min_size=1, max_size=4, unique=True))
    kinds = {
        "label": st.lists(WRITER_LABELS, min_size=rows, max_size=rows),
        "float": st.lists(FLOATS, min_size=rows, max_size=rows).map(np.array),
        "int": st.lists(st.integers(-10**20, 10**20), min_size=rows, max_size=rows),
        "coded": coded_columns(rows),
    }
    return {name: draw(st.one_of(*kinds.values())) for name in names}


def share_table(rows: int, seed: int = 0) -> dict:
    """The columns of ``rows`` share rows over 500 unit and 50 shift labels."""
    gen = np.random.default_rng(seed)
    return {
        "unit_id": _Coded(tuple(f"u{i}" for i in range(500)), np.sort(gen.integers(0, 500, rows))),
        "shift_id": _Coded(tuple(f"s{j}" for j in range(50)), gen.integers(0, 50, rows)),
        "weight": gen.random(rows),
    }


class TestColumnWriter:
    @staticmethod
    def assert_bytes_equal(fmt, columns):
        with tempfile.TemporaryDirectory() as tmp:
            _write_columns(Path(tmp, "columns"), fmt, columns)
            write_rows(Path(tmp, "rows"), fmt, columns)
            assert Path(tmp, "columns").read_bytes() == Path(tmp, "rows").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(columns=tables(), block=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_a_row_by_row_writer(self, fmt, columns, block):
        # blocks of 1 to 3 rows, so that the tables end before, at and after block boundaries
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shiftshare.data, "_BLOCK_ROWS", block)
            self.assert_bytes_equal(fmt, columns)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_bytes_equal_a_row_by_row_writer_around_one_block(self, fmt, extra):
        rows = shiftshare.data._BLOCK_ROWS + extra
        columns = share_table(rows)
        gen = np.random.default_rng(1)
        columns["label"] = gen.choice(["a,b", '"q"', "é ü", "x\ny", "東京", ""], rows).tolist()
        columns["count"] = gen.integers(-5, 5, rows)
        self.assert_bytes_equal(fmt, columns)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_the_table(self, fmt, tmp_path):
        """Writing 8 blocks of share rows peaks under twice what writing 1 block does: only
        one block's texts are held at a time."""
        peaks = []
        for blocks in (1, 8):
            columns = share_table(blocks * shiftshare.data._BLOCK_ROWS)
            tracemalloc.start()
            try:
                _write_columns(tmp_path / f"shares.{fmt}", fmt, columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_of_unequal_length_rejected(self, fmt, tmp_path):
        columns = {"a": ["x", "y"], "b": np.array([1.0]), "c": _Coded(("l",), np.zeros(2, int))}
        with pytest.raises(ValidationError, match="differ in length"):
            _write_columns(tmp_path / "table", fmt, columns)
        assert not (tmp_path / "table").exists()


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

    def test_repeated_ids_rejected(self):
        """Ids are compared as the strings they are stored as, so 1 repeats "1"."""
        for ids in (("a", "a"), (1, "1")):
            with pytest.raises(ValidationError, match="^duplicate shift_id values$"):
                ShiftTable(values=[1.0, 2.0], shift_ids=ids)
            with pytest.raises(ValidationError, match="^duplicate unit_id values$"):
                Dataset(outcome=[1.0, 2.0], unit_ids=ids)
            with pytest.raises(ValidationError, match="^duplicate unit_id values$"):
                ShareMatrix(np.zeros((2, 1)), ids, ("s",))
            with pytest.raises(ValidationError, match="^duplicate shift_id values$"):
                ShareMatrix.from_triplets([0], [1], [0.5], ("u",), ids)

    def test_text_that_no_file_can_hold_rejected(self):
        """A lone surrogate is refused in the words of the JSON reader, which refuses it
        in a file."""
        message = r"^'b\\ud800' is not valid Unicode$"
        with pytest.raises(ValidationError, match=message):
            ShiftTable(values=[1.0], shift_ids=("b\ud800",))
        with pytest.raises(ValidationError, match=message):
            ShiftTable(values=[1.0], shift_ids=("s",), cluster=["b\ud800"])
        with pytest.raises(ValidationError, match=message):
            Dataset(outcome=[1.0], unit_ids=("u",), extras={"note": ["b\ud800"]})
        with pytest.raises(ValidationError, match=message):
            ShareMatrix(np.zeros((1, 1)), ("b\ud800",), ("s",))

    @pytest.mark.parametrize("ids, message", [
        (("a", "a"), "^{path}duplicate {kind}_id values$"),
        ((1, "1"), "^{path}duplicate {kind}_id values$"),
        (("a", "b\ud800"), r"^{path}'b\\ud800' is not valid Unicode$"),
    ])
    def test_public_share_constructors_check_ids(self, ids, message, tmp_path):
        """The private share constructors take the ids of checked tables as given, so each
        public route that takes ids checks them: the constructor, ``from_triplets``,
        ``load_shares`` and the id that ``with_column`` appends."""
        path = tmp_path / "shares.csv"
        path.write_text("unit_id,shift_id,weight\n")
        for kind in ("unit", "shift"):
            row_ids, col_ids = (ids, ("s",)) if kind == "unit" else (("u",), ids)
            match = message.format(path="", kind=kind)
            with pytest.raises(ValidationError, match=match):
                ShareMatrix(np.zeros((len(row_ids), len(col_ids))), row_ids, col_ids)
            with pytest.raises(ValidationError, match=match):
                ShareMatrix.from_triplets([0], [0], [0.5], row_ids, col_ids)
            with pytest.raises(ValidationError, match=message.format(
                    path=re.escape(f"{path}: "), kind=kind)):
                load_shares(path, row_ids, col_ids)
        shares = ShareMatrix([[0.5]], ("u",), (ids[0],))
        with pytest.raises(ValidationError, match=message.format(path="", kind="shift")):
            shares.with_column([0.25], ids[1])

    def test_label_coverage(self):
        with pytest.raises(ValidationError, match="cluster"):
            ShiftTable(np.array([1.0, 2.0]), ("s1", "s2"), cluster=["only-one"])

    def test_extra_column_coverage(self):
        # a short extra column used to pass and then fail in numpy, in residualize_shifts
        with pytest.raises(ValidationError, match="'g' must have one value per shift"):
            ShiftTable(values=[1.0, 2.0, 3.0], shift_ids=("a", "b", "c"), extras={"g": ["x"]})

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


def _same_table(a, b) -> bool:
    """Whether two tables hold equal fields, arrays compared by value and type."""
    def same(x, y):
        if isinstance(x, np.ndarray):
            return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
        if isinstance(x, Mapping):
            return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
        return x == y
    return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                      for f in dataclasses.fields(a))


class TestValueSwaps:
    """``ShiftTable.with_values`` and ``Dataset.with_outcome`` check only what they swap."""

    SHIFTS = dict(shift_ids=("s1", "s2", "s3"), cluster=["a", "b", "a"], period=["1", "1", "2"],
                  covariates=np.arange(6.0).reshape(3, 2), extras={"g": ["x", "y", "x"]})
    UNITS = dict(unit_ids=("u1", "u2"), controls=np.array([[1.0], [3.0]]),
                 unit_weights=[1.0, 3.0], extras={"region": ["r", "s"]})

    def test_shift_values_swapped(self):
        table = ShiftTable(np.zeros(3), **self.SHIFTS)
        swapped = table.with_values([1.5, -2.0, 0.25])
        assert _same_table(swapped, ShiftTable(np.array([1.5, -2.0, 0.25]), **self.SHIFTS))
        assert not swapped.values.flags.writeable and np.array_equal(table.values, np.zeros(3))
        for name in ("shift_ids", "cluster", "period", "covariates", "covariate_names",
                     "extras"):
            assert getattr(swapped, name) is getattr(table, name), name

    def test_outcome_and_regressor_swapped(self):
        data = Dataset(outcome=np.zeros(2), regressor=np.zeros(2), **self.UNITS)
        swapped = data.with_outcome([1.0, 2.0], [0.5, 0.25])
        assert _same_table(swapped, Dataset(outcome=[1.0, 2.0], regressor=[0.5, 0.25],
                                            **self.UNITS))
        assert not swapped.outcome.flags.writeable and not swapped.regressor.flags.writeable
        for name in ("unit_ids", "controls", "control_names", "unit_weights", "extras"):
            assert getattr(swapped, name) is getattr(data, name), name
        without = data.with_outcome([1.0, 2.0], None)
        assert without.regressor is None
        assert _same_table(without, Dataset(outcome=[1.0, 2.0], **self.UNITS))

    @pytest.mark.parametrize("values", [[1.0, float("nan"), 2.0], [1.0, 2.0], np.zeros((3, 1)),
                                        [1.0, 2.0, float("-inf")], 3.0])
    def test_shift_values_refused_as_the_constructor_refuses_them(self, values):
        table = ShiftTable(np.zeros(3), **self.SHIFTS)
        with pytest.raises(ValidationError) as built:
            ShiftTable(values, **self.SHIFTS)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(built.value))}$"):
            table.with_values(values)

    @pytest.mark.parametrize("outcome, regressor", [
        ([1.0, float("inf")], [0.0, 0.0]), ([1.0], [0.0, 0.0]), (np.zeros((2, 2)), None),
        ([1.0, 2.0], [0.0, float("nan")]), ([1.0, 2.0], [0.0, 0.0, 1.0]),
        ([1.0, 2.0], np.zeros((2, 1))), (1.0, None)])
    def test_outcome_refused_as_the_constructor_refuses_it(self, outcome, regressor):
        data = Dataset(outcome=np.zeros(2), regressor=np.zeros(2), **self.UNITS)
        with pytest.raises(ValidationError) as built:
            Dataset(outcome=outcome, regressor=regressor, **self.UNITS)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(built.value))}$"):
            data.with_outcome(outcome, regressor)


@st.composite
def share_patterns(draw):
    """A share matrix of 1-12 units over 1-10 shifts at any density, with some
    all-zero rows and columns, and a generator for the arguments."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    w = gen.uniform(0.0, 1.0, size=(n, m)) * (gen.random((n, m)) < density)
    w[draw(st.lists(st.integers(0, n - 1), max_size=n)), :] = 0.0
    w[:, draw(st.lists(st.integers(0, m - 1), max_size=m))] = 0.0
    sums = w.sum(axis=1, keepdims=True)
    w = np.where(sums > 0, w / np.where(sums > 0, sums, 1.0), 0.0)
    w *= gen.uniform(0.1, 1.0, size=(n, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShiftShareWarning)  # all-zero share rows
        shares = ShareMatrix(w, tuple(f"u{i}" for i in range(n)), tuple(f"s{j}" for j in range(m)))
    return shares, gen


class TestShareOperator:
    """The contract of ``ShareMatrix``'s products and pattern operations against
    the dense array. The triplets sum each row (or column) in their own order, so a
    product is within the inner-product bound ``k u / (1 - k u) * (|W| @ |a|)`` of
    the exact result, with ``u`` = 2**-53 and ``k`` the row's (or column's) nonzero
    count. A relative tolerance would fail where the sum cancels. The exact result is
    taken in rational arithmetic: BLAS's own result carries the same bound, so the
    two can differ by twice it."""

    @staticmethod
    def assert_within_summation_bound(got, w, a):
        """``got`` is ``w @ a`` for a vector ``a``, row by row."""
        u = Fraction(1, 2**53)
        for value, row in zip(got, w):
            terms = [Fraction(x) * Fraction(y) for x, y in zip(row, a)]
            k = np.count_nonzero(row)
            bound = k * u / (1 - k * u) * sum(map(abs, terms))
            assert abs(Fraction(value) - sum(terms)) <= bound

    @given(case=share_patterns(), k=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_products_match_the_dense_array(self, case, k):
        shares, gen = case
        n, m = shares.n_units, shares.n_shifts
        w = shares.weights
        a, b = gen.normal(size=(m, k)), gen.normal(size=(k, n))
        for j in range(k):
            self.assert_within_summation_bound(shares.exposure(a[:, j]), w, a[:, j])
            self.assert_within_summation_bound(shares.aggregate(b[j]), w.T, b[j])

    @given(case=share_patterns())
    @settings(max_examples=80, deadline=None)
    def test_pattern_operations_match_the_dense_array(self, case):
        shares, gen = case
        rows, cols, values = shares.nonzero()
        assert np.all(values != 0.0)
        assert np.all(np.diff(rows * shares.n_shifts + cols) > 0)  # row by row
        scattered = np.zeros((shares.n_units, shares.n_shifts))
        scattered[rows, cols] = values
        assert np.array_equal(scattered, shares.weights)

        column = np.clip(1.0 - shares.row_sums(), 0.0, None) * gen.uniform(size=shares.n_units)
        wider = shares.with_column(column, "extra")
        assert np.array_equal(wider.weights, np.hstack([shares.weights, column[:, None]]))
        assert wider.col_ids == shares.col_ids + ("extra",)
        assert wider.row_ids == shares.row_ids

        mask = gen.random(shares.n_shifts) < 0.5
        expected = shares.weights.copy()
        expected[:, mask] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShiftShareWarning)  # zeroed rows stay quiet
            zeroed = shares.zero_columns(mask)
            kept = shares._kept(~mask)  # the columns that the shift framework keeps
        assert np.array_equal(zeroed.weights, expected)
        assert (zeroed.row_ids, zeroed.col_ids) == (shares.row_ids, shares.col_ids)
        assert np.array_equal(kept.weights, shares.weights[:, ~mask])
        assert kept.row_ids == shares.row_ids
        assert kept.col_ids == tuple(c for c, gone in zip(shares.col_ids, mask) if not gone)

    def test_misaligned_arguments_rejected(self):
        shares = ShareMatrix(np.array([[0.5, 0.25]]), ("a",), ("s1", "s2"))
        m, n = shares.n_shifts, shares.n_units
        for values in (np.ones(3), np.ones((m, 2)), np.ones((m, 1)), 1.0):
            with pytest.raises(ValidationError, match="one value per shift"):
                shares.exposure(values)
        for values in (np.ones((2, 2)), np.ones((2, n)), np.ones((n, 1)), 1.0):
            with pytest.raises(ValidationError, match="one value per unit"):
                shares.aggregate(values)
        with pytest.raises(ValidationError, match="misaligned"):
            shares.zero_columns([True])

    @given(case=share_patterns(), density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           hazard=st.sampled_from([None, "repeated", "range", "non-finite"]))
    @settings(max_examples=80, deadline=None)
    def test_values_at_shares_match_the_dense_array(self, case, density, hazard):
        """``at_shares`` reads unit-by-shift triplets in any order as the dense array of
        them reads at ``nonzero()``, a pair that no triplet gives as zero; a repeated pair,
        an index out of range and a non-finite value are each rejected."""
        shares, gen = case
        n, m = shares.n_units, shares.n_shifts
        given_cells = gen.random((n, m)) < density
        dense = np.where(given_cells, gen.normal(size=(n, m)), 0.0)
        rows, cols = np.nonzero(given_cells)
        order = gen.permutation(rows.size)
        triplets = [rows[order], cols[order], dense[rows, cols][order]]
        if hazard is None or not rows.size:
            assert np.array_equal(shares.at_shares(tuple(triplets)), dense[shares.nonzero()[:2]])
            return
        k = gen.integers(rows.size)
        if hazard == "repeated":
            triplets = [np.append(a, a[k]) for a in triplets]
        elif hazard == "range":
            axis = gen.integers(2)
            triplets[axis][k] = gen.choice([-1, (n, m)[axis]])
        else:
            triplets[2][k] = gen.choice([np.nan, np.inf, -np.inf])
        message = {"repeated": "repeated unit shift", "range": "out of the matrix's range",
                   "non-finite": "non-finite"}[hazard]
        with pytest.raises(ValidationError, match=message):
            shares.at_shares(tuple(triplets))

    def test_triplet_indices_must_be_integers(self):
        """A float or boolean index is not cast: the cast would truncate it."""
        for rows, cols in (([0.7, 1.9], [1.9, 0.2]), ([True, False], [False, True])):
            with pytest.raises(ValidationError, match="indices must be integers"):
                ShareMatrix.from_triplets(rows, cols, [0.5, 0.25], ("a", "b"), ("s", "t"))
        with pytest.warns(ShiftShareWarning):  # no triplets: empty rows, whatever the dtype
            empty = ShareMatrix.from_triplets([], [], [], ("a",), ("s",))
        assert empty.weights.tolist() == [[0.0]]

    def test_the_first_repeat_in_input_order_is_named(self):
        """Where two pairs repeat, the error names the pair of the first entry, in input
        order, that repeats an earlier one, as the file readers do."""
        with pytest.raises(ValidationError, match="repeated share at unit 'b', shift 's'$"):
            ShareMatrix.from_triplets([1, 0, 1, 0], [0, 0, 0, 0], [0.1] * 4, ("a", "b"), ("s",))


def test_a_large_sparse_share_matrix_is_never_made_dense():
    """200,000 units over 5,000 shifts, one share each, given in no order: the dense
    array would take 8 GB. Building, completing, both products, the triplets and the
    shares table take less than 64 MB."""
    n, m = 200_000, 5_000
    gen = np.random.default_rng(0)
    row_ids, col_ids = tuple(f"u{i}" for i in range(n)), tuple(f"s{j}" for j in range(m))
    rows, cols, values = gen.permutation(n), gen.integers(0, m, size=n), gen.uniform(size=n)
    a, b = gen.normal(size=m + 1), gen.normal(size=n)
    shifts = ShiftTable(np.zeros(m), col_ids)
    tracemalloc.start()
    try:
        shares = ShareMatrix.from_triplets(rows, cols, values, row_ids, col_ids)
        completed = complete_shares(shares, shifts).shares
        exposure, aggregate = completed.exposure(a), completed.aggregate(b)
        triplets, table = completed.nonzero(), _share_columns(completed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    by_unit = np.argsort(rows)
    share, col, rest = values[by_unit], cols[by_unit], 1.0 - values[by_unit]
    assert np.array_equal(triplets[0], np.repeat(np.arange(n), 2))
    assert np.array_equal(triplets[1], np.stack([col, np.full(n, m)], axis=1).ravel())
    assert len(table["weight"]) == 2 * n
    assert np.array_equal(exposure, share * a[col] + rest * a[m])
    assert aggregate[m] == pytest.approx(np.sum(b * rest), rel=1e-12)


def test_only_data_reads_the_share_array():
    """No module builds the dense copy ``ShareMatrix.weights``: every other module, and
    ``data`` outside the class, reaches the shares through its methods."""
    found = []
    for path in sorted(Path(shiftshare.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = getattr(top, "name", None)
            if (path.name, where) == ("data.py", "ShareMatrix"):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "weights":
                    found.append((path.name, where, node.lineno))
    assert not found, f"dense share array read in the package: {found}"


def test_only_the_triplet_contract_sorts_stably():
    """``_triplet_order`` is the one place that sorts triplets and finds a repeated pair: no
    other code of the package calls ``argsort(..., kind="stable")``."""
    found = []
    for path in sorted(Path(shiftshare.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "argsort" and any(
                            keyword.arg == "kind" and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value in ("stable", "mergesort")
                            for keyword in node.keywords)):
                    found.append((path.name, getattr(top, "name", None)))
    assert found == [("data.py", "_triplet_order")]


def test_only_the_cluster_rule_refuses_a_clustered_se():
    """``estimate._two_clusters``, which ``_cluster_codes`` calls on the codes it turns
    cluster labels into, is the one place that refuses the codes of a clustered standard
    error: no other ``raise`` in the package names one."""
    found = []
    for path in sorted(Path(shiftshare.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and any(
                        isinstance(part, ast.Constant) and isinstance(part.value, str)
                        and "clustered standard errors" in part.value
                        for part in ast.walk(node)):
                    found.append((path.name, getattr(top, "name", None)))
    assert found == [("estimate.py", "_two_clusters")]


def _package_nodes(holds) -> list[tuple[str, str]]:
    """The module and the dotted name of the innermost enclosing class or function of each
    node of the package for which ``holds`` is true."""
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if holds(child):
                found.append((path.name, ".".join(scope)))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, scope + [child.name] if named else scope)

    for path in sorted(Path(shiftshare.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, [])
    return found


def test_one_function_drops_the_shifts_of_zero_weight():
    """``estimate._weighted_shifts``, which ``estimate_shift_framework``, ``invert`` and the
    Monte Carlo's shift-level fit call, is the one place that warns of the shifts of zero
    aggregate weight that it drops."""
    def drop_warning(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "warn"
                and any(isinstance(part, ast.Constant) and isinstance(part.value, str)
                        and "zero aggregate weight" in part.value for part in ast.walk(node)))

    assert _package_nodes(drop_warning) == [("estimate.py", "_weighted_shifts")]


def test_shift_tables_encode_their_own_labels():
    """A shift table encodes its label columns when it is built, and what holds a table
    reads its codes; ``_label_codes`` is called elsewhere only on labels that no table
    holds: those given to a clustered SE, the inverted regression's and the diagnostics'."""
    def encodes(node):
        return isinstance(node, ast.Call) and "_label_codes" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    assert _package_nodes(encodes) == [
        ("data.py", "ShiftTable.__post_init__"),
        ("diagnose.py", "icc"),
        ("diagnose.py", "concentration"),
        ("estimate.py", "_cluster_codes"),
        ("estimate.py", "estimate_inverted"),
    ]


class TestLongForm:
    def make_period(self, values, weights, ids_n, ids_m, **kw):
        shares = ShareMatrix(np.asarray(weights, dtype=float), ids_n, ids_m)
        shifts = ShiftTable(np.asarray(values, dtype=float), ids_m, **kw)
        return shares, shifts

    def test_two_period_block_structure(self):
        sh1, st1 = self.make_period([1.0, 2.0], [[0.5, 0.5]], ("a",), ("s1", "s2"))
        sh2, st2 = self.make_period([3.0, 4.0], [[0.5, 0.5]], ("a",), ("s1", "s2"))
        long_shares, long_shifts = to_long_form([sh1, sh2], [st1, st2])
        assert long_shares.weights.shape == (2, 4)
        expected = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
        assert np.array_equal(long_shares.weights, expected)
        assert long_shifts.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert long_shifts.period.tolist() == ["t0", "t0", "t1", "t1"]
        assert long_shares.row_ids == ("a@t0", "a@t1")
        assert long_shares.col_ids == long_shifts.shift_ids == ("s1@t0", "s2@t0", "s1@t1",
                                                                 "s2@t1")

    def test_single_period_identity(self):
        sh, st = self.make_period([1.0, 2.0], [[0.3, 0.4], [0.2, 0.2]], ("a", "b"), ("s1", "s2"))
        long_shares, long_shifts = to_long_form([sh], [st], periods=["2001"])
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
        long_shares, long_shifts = to_long_form(shares, shifts, periods=periods)
        for row in range(long_shares.n_units):
            row_period = periods[row // n]
            for col in range(long_shares.n_shifts):
                if long_shifts.period[col] != row_period:
                    assert long_shares.weights[row, col] == 0.0

    def test_exposure_and_row_sums_preserved(self, rng):
        n, m, T = 3, 4, 2
        shares, shifts = [], []
        for _ in range(T):
            w = rng.dirichlet(np.ones(m), size=n) * rng.uniform(0.4, 1.0, size=(n, 1))
            shares.append(ShareMatrix(w, ("a", "b", "c"), tuple(f"s{j}" for j in range(m))))
            shifts.append(ShiftTable(rng.normal(size=m), tuple(f"s{j}" for j in range(m))))
        long_shares, long_shifts = to_long_form(shares, shifts)
        for row in range(long_shares.n_units):
            t, i = divmod(row, n)
            assert long_shares.row_ids[row] == f"{shares[t].row_ids[i]}@t{t}"
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
        for row in range(long_shares.n_units):
            t, i = divmod(row, n)
            assert np.isclose(
                exposure[row], shares[t].weights[i] @ shifts[t].values, rtol=0, atol=1e-15
            )

    def test_dimension_mismatch_rejected(self, rng):
        sh1, st1 = self.make_period([1.0, 2.0], [[0.5, 0.5]], ("a",), ("s1", "s2"))
        sh2 = ShareMatrix(np.array([[0.5, 0.2, 0.1]]), ("a",), ("s1", "s2", "s3"))
        st2 = ShiftTable(np.array([1.0, 2.0, 3.0]), ("s1", "s2", "s3"))
        with pytest.raises(ValidationError, match="inconsistent"):
            to_long_form([sh1, sh2], [st1, st2])

    def test_extra_label_columns_are_stacked(self):
        periods = [self.make_period([1.0, 2.0], [[0.5, 0.5]], ("a",), ("s1", "s2"),
                                    extras={"region": ["r0", "r1"], "note": [k, k]})
                   for k in ("x", "y")]
        _, long_shifts = to_long_form(*zip(*periods))
        assert {k: v.tolist() for k, v in long_shifts.extras.items()} == {
            "region": ["r0", "r1", "r0", "r1"], "note": ["x", "x", "y", "y"]}

    def test_extra_label_column_in_some_periods_rejected(self):
        sh1, st1 = self.make_period([1.0, 2.0], [[0.5, 0.5]], ("a",), ("s1", "s2"),
                                    extras={"region": ["r0", "r1"]})
        sh2, st2 = self.make_period([3.0, 4.0], [[0.5, 0.5]], ("a",), ("s1", "s2"))
        with pytest.raises(ValidationError, match="region labels must be present in all"):
            to_long_form([sh1, sh2], [st1, st2])
