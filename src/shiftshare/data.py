"""Core data model, validation, and CSV/JSON ingestion.

The package works with three aligned structures: a matrix of exposure
shares (units x shifts), a table of shift values with optional labels and
covariates, and a unit-level dataset (outcome, optional endogenous
regressor, controls, importance weights). All structures are immutable
after construction so estimators and simulation replications can read
them concurrently.

File schemas (``--format csv`` or ``json``; JSON files hold a list of
row objects mirroring the CSV columns; floats are parsed as 64-bit):

* shares (long format): ``unit_id, shift_id, weight``
* shifts: ``shift_id, value[, cluster][, period][, exchange_group][, p_1..p_k]``
  -- extra columns are kept as named auxiliary label columns
* units: ``unit_id, y[, x][, w_e][, pi_1..pi_k]`` -- extra columns are
  kept as named auxiliary columns (cluster labels, placebo variables)

CSV files use RFC 4180 quoting as ``save_inputs`` writes it: ``#`` is data, blank lines are
skipped and ragged rows are rejected. A ``(unit_id, shift_id)`` pair may appear only once, and
a long-format file may hold no data rows (no nonzero pairs).

Every CSV the package writes (``save_inputs`` and the CLI tables) uses the default
``csv.writer`` dialect: QUOTE_MINIMAL quoting and ``\r\n`` line ends, with floats written as
their ``repr`` so that they read back bit for bit.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, replace as dc_replace
from itertools import compress, repeat
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from .errors import SchemaError, ShiftShareWarning, ValidationError

ROW_SUM_TOL = 1e-9
COMPLETE_TOL = 1e-8  # a row summing to 1 within this is complete
WEIGHT_SUM_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _label_codes(labels) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct labels (compared as strings) and each entry's index into them."""
    return np.unique(np.asarray(labels, dtype=object).astype(str), return_inverse=True)


def _columns(values, rows: int, message: str) -> np.ndarray:
    """``values`` as a float matrix with one row per unit or shift: a 1-D
    array is one column, and a 2-D array must already have ``rows`` rows."""
    out = np.asarray(values, dtype=float)
    out = out[:, None] if out.ndim == 1 else out
    if out.ndim != 2 or out.shape[0] != rows:
        raise ValidationError(message)
    return out


def _check_names(table: str, reserved: tuple[str, ...], names: Sequence[str]) -> None:
    """Reject an auxiliary column name that repeats or that names one of the table's own
    columns: ``save_inputs`` writes one column per name, so the later would replace the
    earlier."""
    seen = set()
    for name in names:
        if name in reserved:
            raise ValidationError(f"{table} column name {name!r} is reserved")
        if name in seen:
            raise ValidationError(f"{table} column name {name!r} is used twice")
        seen.add(name)


def _frozen_labels(values) -> np.ndarray:
    out = np.array([str(v) for v in values], dtype=object)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ShareMatrix:
    """Nonnegative exposure weights of ``n`` units over ``m`` shifts.

    Every entry must be >= 0 and every row must sum to at most
    ``1 + ROW_SUM_TOL``. Rows summing to more than that are rejected
    rather than renormalized, since silent renormalization would corrupt
    the incomplete-share control downstream. All-zero rows are legal but
    flagged with a warning. Other modules reach the shares only through the
    products ``exposure`` and ``aggregate`` and the pattern operations.
    """

    weights: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ValidationError("share matrix must be two-dimensional")
        object.__setattr__(self, "weights", _frozen_array(w))
        object.__setattr__(self, "row_ids", tuple(str(r) for r in self.row_ids))
        object.__setattr__(self, "col_ids", tuple(str(c) for c in self.col_ids))
        n, m = w.shape
        if len(self.row_ids) != n or len(self.col_ids) != m:
            raise ValidationError("share matrix ids do not match its shape")
        if not np.all(np.isfinite(w)):
            i, j = np.argwhere(~np.isfinite(w))[0]
            raise ValidationError(
                f"non-finite share at unit {self.row_ids[i]!r}, shift {self.col_ids[j]!r}"
            )
        if np.any(w < 0):
            i, j = np.argwhere(w < 0)[0]
            raise ValidationError(
                f"negative share {w[i, j]!r} at unit {self.row_ids[i]!r}, "
                f"shift {self.col_ids[j]!r}"
            )
        sums = w.sum(axis=1)
        bad = np.flatnonzero(sums > 1.0 + ROW_SUM_TOL)
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"row sum {sums[i]!r} for unit {self.row_ids[i]!r} exceeds 1 + {ROW_SUM_TOL}"
            )
        zero = np.flatnonzero(sums == 0.0)
        if zero.size:
            names = ", ".join(self.row_ids[i] for i in zero[:5])
            warnings.warn(
                f"{zero.size} all-zero share row(s) retained (first: {names})",
                ShiftShareWarning,
                stacklevel=2,
            )

    @property
    def n_units(self) -> int:
        return self.weights.shape[0]

    @property
    def n_shifts(self) -> int:
        return self.weights.shape[1]

    def row_sums(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def is_complete(self) -> bool:
        """True when every row sums to 1 within ``COMPLETE_TOL``."""
        return bool(np.all(np.abs(self.row_sums() - 1.0) <= COMPLETE_TOL))

    def exposure(self, values) -> np.ndarray:
        """``W @ values`` for a vector or a matrix with one row per shift."""
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[0] != self.n_shifts:
            raise ValidationError(f"exposure needs one row per shift ({self.n_shifts})")
        return self.weights @ values

    def aggregate(self, unit_values) -> np.ndarray:
        """``unit_values @ W`` for a vector or a matrix with one column per unit."""
        unit_values = np.asarray(unit_values, dtype=float)
        if unit_values.ndim not in (1, 2) or unit_values.shape[-1] != self.n_units:
            raise ValidationError(f"aggregation needs one column per unit ({self.n_units})")
        return unit_values @ self.weights

    def nonzero(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row indices, column indices and values of the nonzero shares, row by row."""
        rows, cols = np.nonzero(self.weights)
        return rows, cols, self.weights[rows, cols]

    def with_column(self, values, col_id: str) -> "ShareMatrix":
        """The shares with a column of per-unit ``values`` appended as ``col_id``."""
        column = np.asarray(values, dtype=float)[:, None]
        return ShareMatrix(np.hstack([self.weights, column]), self.row_ids,
                           self.col_ids + (col_id,))

    def zero_columns(self, mask) -> "ShareMatrix":
        """The shares with the columns of the boolean ``mask`` set to zero, without
        the all-zero-row warning."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_shifts,):
            raise ValidationError("column mask misaligned with share columns")
        w = self.weights.copy()
        w[:, mask] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShiftShareWarning)
            return ShareMatrix(w, self.row_ids, self.col_ids)


@dataclass(frozen=True)
class ShiftTable:
    """Shift values with optional cluster/period/exchange-group labels and covariates."""

    values: np.ndarray
    shift_ids: tuple[str, ...]
    cluster: np.ndarray | None = None
    period: np.ndarray | None = None
    exchange_group: np.ndarray | None = None
    covariates: np.ndarray | None = None
    covariate_names: tuple[str, ...] = ()
    extras: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValidationError("shift values must be one-dimensional")
        if not np.all(np.isfinite(v)):
            j = int(np.argmax(~np.isfinite(v)))
            ident = self.shift_ids[j] if j < len(self.shift_ids) else j
            raise ValidationError(f"non-finite shift value for shift {ident!r}")
        object.__setattr__(self, "values", _frozen_array(v))
        object.__setattr__(self, "shift_ids", tuple(str(s) for s in self.shift_ids))
        m = v.shape[0]
        if len(self.shift_ids) != m:
            raise ValidationError("shift ids do not match the number of values")
        for name in ("cluster", "period", "exchange_group"):
            labels = getattr(self, name)
            if labels is None:
                continue
            if len(labels) != m:
                raise ValidationError(f"{name} labels must cover all {m} shifts")
            object.__setattr__(self, name, _frozen_labels(labels))
        if self.covariates is not None:
            cov = _columns(self.covariates, m, "shift covariates must have one row per shift")
            if not np.all(np.isfinite(cov)):
                raise ValidationError("shift covariates must be finite")
            object.__setattr__(self, "covariates", _frozen_array(cov))
            if not self.covariate_names:
                object.__setattr__(
                    self, "covariate_names", tuple(f"p_{k + 1}" for k in range(cov.shape[1]))
                )
            elif len(self.covariate_names) != cov.shape[1]:
                raise ValidationError("covariate names do not match covariate columns")
        extras = {k: _frozen_labels(col) for k, col in dict(self.extras).items()}
        object.__setattr__(self, "extras", MappingProxyType(extras))
        _check_names("shift", ("shift_id", "value", "cluster", "period", "exchange_group"),
                     (*self.covariate_names, *extras))

    @property
    def n_shifts(self) -> int:
        return self.values.shape[0]

    def with_values(self, values: np.ndarray) -> "ShiftTable":
        """Copy of the table with ``values`` swapped in (labels untouched)."""
        return dc_replace(self, values=np.asarray(values, dtype=float))

    def label_column(self, name: str) -> np.ndarray:
        """Fetch a label column by name (``cluster``/``period``/``exchange_group`` or extra)."""
        if name in ("cluster", "period", "exchange_group"):
            col = getattr(self, name)
            if col is None:
                raise SchemaError(f"shift table has no {name!r} column")
            return col
        if name in self.extras:
            return self.extras[name]
        raise SchemaError(f"shift table has no column named {name!r}")


@dataclass(frozen=True)
class Dataset:
    """Unit-level outcome, optional endogenous regressor, controls, and importance weights.

    ``unit_weights`` are normalized to sum to one at construction; an
    intercept is *not* stored here -- estimators add it.
    """

    outcome: np.ndarray
    unit_ids: tuple[str, ...]
    regressor: np.ndarray | None = None
    controls: np.ndarray | None = None
    control_names: tuple[str, ...] = ()
    unit_weights: np.ndarray | None = None
    extras: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        y = np.asarray(self.outcome, dtype=float)
        if y.ndim != 1:
            raise ValidationError("outcome must be one-dimensional")
        n = y.shape[0]
        if not np.all(np.isfinite(y)):
            raise ValidationError("outcome contains non-finite values")
        object.__setattr__(self, "outcome", _frozen_array(y))
        object.__setattr__(self, "unit_ids", tuple(str(u) for u in self.unit_ids))
        if len(self.unit_ids) != n:
            raise ValidationError("unit ids do not match the number of outcomes")
        if self.regressor is not None:
            x = np.asarray(self.regressor, dtype=float)
            if x.shape != (n,):
                raise ValidationError("regressor must have one value per unit")
            if not np.all(np.isfinite(x)):
                raise ValidationError("regressor contains non-finite values")
            object.__setattr__(self, "regressor", _frozen_array(x))
        if self.controls is not None:
            pi = _columns(self.controls, n, "controls must have one row per unit")
            if not np.all(np.isfinite(pi)):
                raise ValidationError("controls contain non-finite values")
            object.__setattr__(self, "controls", _frozen_array(pi))
            if not self.control_names:
                object.__setattr__(
                    self, "control_names", tuple(f"pi_{k + 1}" for k in range(pi.shape[1]))
                )
            elif len(self.control_names) != pi.shape[1]:
                raise ValidationError("control names do not match control columns")
        e = np.full(n, 1.0 / n) if self.unit_weights is None else self.unit_weights
        e = np.asarray(e, dtype=float)
        if e.shape != (n,):
            raise ValidationError("unit weights must have one value per unit")
        if np.any(~np.isfinite(e)) or np.any(e < 0):
            raise ValidationError("unit weights must be finite and nonnegative")
        with np.errstate(over="ignore"):  # an overflowing sum is rejected below
            total = e.sum()
        if total <= 0:
            raise ValidationError("unit weights must not all be zero")
        if not np.isfinite(total):  # dividing by inf would zero every weight
            raise ValidationError("unit weights must have a finite sum")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:  # so that saved weights reload bit for bit
            e = e / total
        object.__setattr__(self, "unit_weights", _frozen_array(e))
        extras = {}
        for k, col in dict(self.extras).items():
            if len(col) != n:
                raise ValidationError(f"extra column {k!r} must have one value per unit")
            extras[k] = _frozen_labels(col)
        object.__setattr__(self, "extras", MappingProxyType(extras))
        _check_names("unit", ("unit_id", "y", "x", "w_e"), (*self.control_names, *extras))

    @property
    def n_units(self) -> int:
        return self.outcome.shape[0]

    def extra_column(self, name: str) -> np.ndarray:
        if name not in self.extras:
            raise SchemaError(f"units table has no column named {name!r}")
        return self.extras[name]


@dataclass(frozen=True)
class PanelIndex:
    """Maps long-form rows to (unit, period) and columns to (shift, period)."""

    unit_period_map: tuple[tuple[str, str], ...]
    shift_period_map: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "unit_period_map", tuple((str(u), str(t)) for u, t in self.unit_period_map)
        )
        object.__setattr__(
            self, "shift_period_map", tuple((str(s), str(t)) for s, t in self.shift_period_map)
        )
        if len(set(self.unit_period_map)) != len(self.unit_period_map):
            raise ValidationError("duplicate (unit, period) observation rows")


# ---------------------------------------------------------------------------
# ingestion


def _read_columns(
    path: str | Path, fmt: str, required: Sequence[str], allow_empty: bool = False
) -> dict[str, list]:
    """The data rows of an input file as ``{column: values}``, in file order. The file must hold
    the ``required`` columns, a data row unless ``allow_empty``, and in every row the fields of
    the header or row 1. An empty JSON array names no columns, so it holds the ``required``
    ones."""
    file = Path(path)
    if not file.exists():
        raise SchemaError(f"input file not found: {file}")
    if fmt == "csv":
        with open(file, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise SchemaError(f"{file}: empty file, expected a header row")
            with warnings.catch_warnings():
                # a header-only file is handled below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:
                    table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                       dtype=object, ndmin=2)
                except ValueError:  # the number of fields changed between rows
                    table = None
        names, n_rows = header, -1 if table is None else len(table)
    elif fmt == "json":
        with open(file) as fh:
            rows = json.load(fh)
        if not isinstance(rows, list):
            raise SchemaError(f"{file}: expected a JSON array of row objects")
        for k, row in enumerate(rows):
            if not isinstance(row, dict) or row.keys() != rows[0].keys():
                raise SchemaError(f"{file}: row {k + 1} is not an object with the keys of row 1")
        names, n_rows = list(rows[0]) if rows else list(required), len(rows)
    else:
        raise SchemaError(f"unknown input format {fmt!r} (expected csv or json)")
    if n_rows == 0 and not allow_empty:
        raise SchemaError(f"{path}: no data rows")
    for name in required:
        if name not in names:
            raise SchemaError(f"{path}: missing required column {name!r}")
    if fmt == "json":
        return {name: [row[name] for row in rows] for name in names}
    if n_rows == 0:
        return {name: [] for name in header}
    if table is None or table.shape[1] != len(header):
        with open(file, newline="") as fh:
            # csv.reader splits records as loadtxt does; blank lines are skipped
            records = enumerate(filter(None, csv.reader(fh)))
            k = next(k for k, record in records if len(record) != len(header))
        raise SchemaError(f"{path}: data row {k} does not have the header's {len(header)} fields")
    return {name: table[:, k].tolist() for k, name in enumerate(header)}


def _floats(values: Sequence, where) -> np.ndarray:
    """``values`` as 64-bit floats; ``where(k)`` names entry ``k`` if it does not parse."""
    try:
        return np.fromiter(map(float, values), dtype=float, count=len(values))
    except (TypeError, ValueError):
        for k, raw in enumerate(values):
            try:
                float(raw)
            except (TypeError, ValueError):
                raise ValidationError(f"{where(k)}: cannot parse {raw!r} as a number") from None
        raise


def _float_columns(columns: dict[str, list], names: Sequence[str], path) -> np.ndarray:
    """The named columns as one float matrix, parsed row by row so that the
    first bad entry of the first bad row is the one reported."""
    flat = [value for row in zip(*(columns[c] for c in names)) for value in row]
    where = lambda k: f"{path} column {names[k % len(names)]}"  # noqa: E731
    return _floats(flat, where).reshape(-1, len(names))


def load_shifts(path: str | Path, fmt: str = "csv") -> ShiftTable:
    columns = _read_columns(path, fmt, ("shift_id", "value"))
    ids = columns.pop("shift_id")
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate shift_id values")
    values = _floats(columns.pop("value"), lambda k: f"{path} shift {ids[k]!r}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValidationError(f"{path}: non-finite shift value for shift {ids[bad[0]]!r}")
    labels = {c: columns.pop(c) for c in ("cluster", "period", "exchange_group") if c in columns}
    cov_names = sorted((c for c in columns if c.startswith("p_")), key=lambda c: (len(c), c))
    return ShiftTable(
        values=values,
        shift_ids=tuple(ids),
        covariates=_float_columns(columns, cov_names, path) if cov_names else None,
        covariate_names=tuple(cov_names),
        extras={c: col for c, col in columns.items() if c not in cov_names},
        **labels,
    )


def load_units(path: str | Path, fmt: str = "csv") -> Dataset:
    columns = _read_columns(path, fmt, ("unit_id", "y"))
    ids = columns.pop("unit_id")
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate unit_id values")
    y = _floats(columns.pop("y"), lambda k: f"{path} unit {ids[k]!r}")
    x = _float_columns(columns, ("x",), path)[:, 0] if "x" in columns else None
    weights = _float_columns(columns, ("w_e",), path)[:, 0] if "w_e" in columns else None
    pi_names = sorted((c for c in columns if c.startswith("pi_")), key=lambda c: (len(c), c))
    return Dataset(
        outcome=y,
        unit_ids=tuple(ids),
        regressor=x,
        controls=_float_columns(columns, pi_names, path) if pi_names else None,
        control_names=tuple(pi_names),
        unit_weights=weights,
        extras={c: col for c, col in columns.items() if c not in ("x", "w_e", *pi_names)},
    )


def _read_long_matrix(
    path: str | Path,
    column: str,
    unit_ids: Sequence[str],
    shift_ids: Sequence[str],
    fmt: str = "csv",
) -> np.ndarray:
    """Dense units-by-shifts matrix from a long-format ``unit_id, shift_id,
    <column>`` file; absent pairs are zero, so a file without data rows is an
    all-zero matrix. Every id must be known, every value must parse as a
    number, and no pair may appear twice."""
    columns = _read_columns(path, fmt, ("unit_id", "shift_id", column), allow_empty=True)
    units, shifts = (list(map(str, columns[c])) for c in ("unit_id", "shift_id"))
    unit_index = {str(u): i for i, u in enumerate(unit_ids)}
    shift_index = {str(s): j for j, s in enumerate(shift_ids)}
    rows = np.fromiter(map(unit_index.get, units, repeat(-1)), dtype=np.intp, count=len(units))
    cols = np.fromiter(map(shift_index.get, shifts, repeat(-1)), dtype=np.intp, count=len(units))
    # values are parsed where both ids are known, before unknown ids are reported
    known = (rows >= 0) & (cols >= 0)
    at = np.flatnonzero(known)
    values = _floats(list(compress(columns[column], known.tolist())),
                     lambda k: f"{path} {column} ({units[at[k]]}, {shifts[at[k]]})")
    problems = [
        f"{kind} ids not in {kind}s file: {sorted(set(compress(ids, bad.tolist())))[:5]}"
        for kind, ids, bad in (("unit", units, rows < 0), ("shift", shifts, ~known & (rows >= 0)))
        if bad.any()
    ]
    if problems:
        raise ValidationError(f"{path}: " + "; ".join(problems))
    # a repeated pair would leave the order of the scatter below undefined
    pairs = rows * len(shift_ids) + cols
    order = np.argsort(pairs, kind="stable")
    repeats = order[1:][pairs[order[1:]] == pairs[order[:-1]]]
    if repeats.size:
        k = repeats.min()
        raise ValidationError(f"{path}: repeated (unit_id, shift_id) pair {(units[k], shifts[k])}")
    out = np.zeros((len(unit_ids), len(shift_ids)))
    out[rows, cols] = values
    return out


def load_shares(
    path: str | Path,
    unit_ids: Sequence[str],
    shift_ids: Sequence[str],
    fmt: str = "csv",
) -> ShareMatrix:
    w = _read_long_matrix(path, "weight", unit_ids, shift_ids, fmt)
    if np.any(w < 0):
        i, j = np.argwhere(w < 0)[0]
        raise ValidationError(
            f"{path}: negative share {float(w[i, j])!r} at unit {str(unit_ids[i])!r}, "
            f"shift {str(shift_ids[j])!r}"
        )
    return ShareMatrix(weights=w, row_ids=tuple(unit_ids), col_ids=tuple(shift_ids))


def load_inputs(
    shares_path: str | Path,
    shifts_path: str | Path,
    units_path: str | Path,
    fmt: str = "csv",
) -> tuple[ShareMatrix, ShiftTable, Dataset]:
    """Load and cross-validate the three input files."""
    shifts = load_shifts(shifts_path, fmt)
    dataset = load_units(units_path, fmt)
    shares = load_shares(shares_path, dataset.unit_ids, shifts.shift_ids, fmt)
    return shares, shifts, dataset


# ---------------------------------------------------------------------------
# serialization (round-trips bit-identically: floats written with repr)


def _cells(values, quote) -> list[str]:
    """The cell texts of one column: ``repr`` of each value of a float array, else ``quote``
    of each value's ``str``, called once per distinct text."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return list(map(repr, values.tolist()))
        values = values.tolist()
    texts = list(map(str, values))
    quoted = {text: quote(text) for text in set(texts)}
    return list(map(quoted.__getitem__, texts))


def _write_columns(path: Path, fmt: str, columns: Mapping[str, Sequence]) -> None:
    """Write the table ``{name: values}`` with a header taken from the names.

    A float array is written with ``repr`` of each value, so it reads back bit for bit; any
    other column with ``str`` of each value (a Python float's ``str`` is its ``repr``). CSV
    is the default ``csv.writer`` dialect: QUOTE_MINIMAL and ``\\r\\n`` line ends. JSON is
    a list of row objects whose values are those strings.
    """
    names = list(columns)
    if fmt == "csv":
        writerow = csv.writer(SimpleNamespace(write=str)).writerow  # returns the line written
        # csv.writer leaves an empty field bare unless it is the only field of its row
        single = len(names) == 1

        def quote(text: str) -> str:
            return writerow((text,))[:-2] if text or single else ""
    elif fmt == "json":
        quote = str
    else:
        raise SchemaError(f"unknown output format {fmt!r}")
    rows = zip(*(_cells(values, quote) for values in columns.values()))
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            fh.write("\r\n".join([",".join(map(quote, names)), *map(",".join, rows)]) + "\r\n")
        else:  # json.dump streams; json.dumps would hold every piece of the text at once
            json.dump([dict(zip(names, row)) for row in rows], fh, indent=1)


def _share_columns(shares: ShareMatrix) -> dict[str, np.ndarray]:
    """``unit_id, shift_id, weight`` of every nonzero share, row by row."""
    rows, cols, values = shares.nonzero()
    return {
        "unit_id": np.asarray(shares.row_ids, dtype=object)[rows],
        "shift_id": np.asarray(shares.col_ids, dtype=object)[cols],
        "weight": values,
    }


def save_inputs(
    directory: str | Path,
    shares: ShareMatrix,
    shifts: ShiftTable,
    dataset: Dataset,
    fmt: str = "csv",
) -> dict[str, Path]:
    """Write the three input files into ``directory``; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shift_columns = {"shift_id": shifts.shift_ids, "value": shifts.values}
    for name in ("cluster", "period", "exchange_group"):
        if getattr(shifts, name) is not None:
            shift_columns[name] = getattr(shifts, name)
    if shifts.covariates is not None:
        shift_columns.update(zip(shifts.covariate_names, shifts.covariates.T))
    shift_columns.update(shifts.extras)
    unit_columns = {"unit_id": dataset.unit_ids, "y": dataset.outcome}
    if dataset.regressor is not None:
        unit_columns["x"] = dataset.regressor
    unit_columns["w_e"] = dataset.unit_weights
    if dataset.controls is not None:
        unit_columns.update(zip(dataset.control_names, dataset.controls.T))
    unit_columns.update(dataset.extras)
    ext = "csv" if fmt == "csv" else "json"
    tables = {"shares": _share_columns(shares), "shifts": shift_columns, "units": unit_columns}
    paths = {key: directory / f"{key}.{ext}" for key in tables}
    for key, columns in tables.items():
        _write_columns(paths[key], fmt, columns)
    return paths


# ---------------------------------------------------------------------------
# panel reshaping


def to_long_form(
    shares_by_period: Sequence[ShareMatrix],
    shifts_by_period: Sequence[ShiftTable],
    periods: Sequence[str] | None = None,
) -> tuple[ShareMatrix, ShiftTable, PanelIndex]:
    """Stack per-period shares/shifts into one long-form design.

    The output share matrix has ``n*T`` observation rows and ``m*T`` shift
    columns, block-diagonal by period: shifts outside an observation's own
    period get weight exactly zero, so each row's exposure (and row sum) is
    preserved. Period labels on the long shift table are set from
    ``periods`` (defaults to ``t0, t1, ...``).
    """
    if len(shares_by_period) != len(shifts_by_period) or not shares_by_period:
        raise ValidationError("need one share matrix and one shift table per period")
    T = len(shares_by_period)
    if periods is None:
        periods = [f"t{t}" for t in range(T)]
    periods = [str(p) for p in periods]
    if len(set(periods)) != T:
        raise ValidationError("period labels must be unique")
    base = shares_by_period[0]
    n, m = base.n_units, base.n_shifts
    for t, (sh, st) in enumerate(zip(shares_by_period, shifts_by_period)):
        if sh.n_units != n or sh.n_shifts != m or st.n_shifts != m:
            raise ValidationError(f"period {periods[t]!r}: inconsistent dimensions")
        if sh.row_ids != base.row_ids:
            raise ValidationError(f"period {periods[t]!r}: unit ids differ from first period")
        if sh.col_ids != base.col_ids:
            raise ValidationError(f"period {periods[t]!r}: shift ids differ from first period")

    long_w = np.zeros((n * T, m * T))
    for t, sh in enumerate(shares_by_period):
        rows, cols, w = sh.nonzero()
        long_w[rows + t * n, cols + t * m] = w

    row_ids = tuple(f"{u}@{periods[t]}" for t in range(T) for u in base.row_ids)
    col_ids = tuple(f"{s}@{periods[t]}" for t in range(T) for s in base.col_ids)
    unit_map = tuple((u, periods[t]) for t in range(T) for u in base.row_ids)
    shift_map = tuple((s, periods[t]) for t in range(T) for s in base.col_ids)

    values = np.concatenate([st.values for st in shifts_by_period])
    period_labels = np.repeat(periods, m)

    def _stack_labels(name: str):
        cols = [getattr(st, name) for st in shifts_by_period]
        present = [c is not None for c in cols]
        if not any(present):
            return None
        if not all(present):
            raise ValidationError(f"{name} labels must be present in all periods or none")
        return np.concatenate(cols)

    cluster = _stack_labels("cluster")
    exchange = _stack_labels("exchange_group")
    covs = [st.covariates for st in shifts_by_period]
    covariates = None
    cov_names: tuple[str, ...] = ()
    if any(c is not None for c in covs):
        if not all(c is not None for c in covs):
            raise ValidationError("shift covariates must be present in all periods or none")
        names = {st.covariate_names for st in shifts_by_period}
        if len(names) != 1:
            raise ValidationError("shift covariate names differ across periods")
        covariates = np.vstack(covs)
        cov_names = shifts_by_period[0].covariate_names

    with warnings.catch_warnings():
        # long-form rows legitimately contain zero blocks; zero-row warnings
        # would fire for units without exposure in some period only
        warnings.simplefilter("ignore", ShiftShareWarning)
        long_shares = ShareMatrix(weights=long_w, row_ids=row_ids, col_ids=col_ids)
    long_shifts = ShiftTable(
        values=values,
        shift_ids=col_ids,
        cluster=cluster,
        period=period_labels,
        exchange_group=exchange,
        covariates=covariates,
        covariate_names=cov_names,
    )
    return long_shares, long_shifts, PanelIndex(unit_map, shift_map)
