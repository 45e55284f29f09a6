"""Core data model, validation, and CSV/JSON ingestion.

The package works with three aligned structures: a matrix of exposure
shares (units x shifts), a table of shift values with optional labels and
covariates, and a unit-level dataset (outcome, optional endogenous
regressor, controls, importance weights). All structures are immutable
after construction so estimators and simulation replications can read
them concurrently.

File schemas (``--format csv`` or ``json``; JSON files hold a list of
row objects mirroring the CSV columns):

* shares (long format): ``unit_id, shift_id, weight``
* shifts: ``shift_id, value[, cluster][, period][, exchange_group][, p_1..p_k]``
  -- extra columns are kept as named auxiliary label columns
* units: ``unit_id, y[, x][, w_e][, pi_1..pi_k]`` -- extra columns are
  kept as named auxiliary columns (cluster labels, placebo variables)

All floats are parsed as 64-bit.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import SchemaError, ShiftShareWarning, ValidationError

ROW_SUM_TOL = 1e-9
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
    flagged with a warning.
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

    def is_complete(self, tol: float = 1e-9) -> bool:
        """True when every row sums to 1 within ``tol``."""
        return bool(np.all(np.abs(self.row_sums() - 1.0) <= tol))


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
        if self.unit_weights is None:
            e = np.full(n, 1.0 / n)
        else:
            e = np.asarray(self.unit_weights, dtype=float)
            if e.shape != (n,):
                raise ValidationError("unit weights must have one value per unit")
            if np.any(~np.isfinite(e)) or np.any(e < 0):
                raise ValidationError("unit weights must be finite and nonnegative")
            total = e.sum()
            if total <= 0:
                raise ValidationError("unit weights must not all be zero")
            e = e / total
        if abs(e.sum() - 1.0) > WEIGHT_SUM_TOL:
            e = e / e.sum()
        object.__setattr__(self, "unit_weights", _frozen_array(e))
        extras = {}
        for k, col in dict(self.extras).items():
            if len(col) != n:
                raise ValidationError(f"extra column {k!r} must have one value per unit")
            extras[k] = _frozen_labels(col)
        object.__setattr__(self, "extras", MappingProxyType(extras))

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

    @property
    def periods(self) -> tuple[str, ...]:
        seen: list[str] = []
        for _, t in self.shift_period_map:
            if t not in seen:
                seen.append(t)
        return tuple(seen)


# ---------------------------------------------------------------------------
# ingestion


def _read_rows(path: str | Path, fmt: str) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"input file not found: {path}")
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: empty file, expected a header row")
            return [dict(row) for row in reader]
    if fmt == "json":
        with open(path) as fh:
            rows = json.load(fh)
        if not isinstance(rows, list):
            raise SchemaError(f"{path}: expected a JSON array of row objects")
        for k, row in enumerate(rows):
            if not isinstance(row, dict) or row.keys() != rows[0].keys():
                raise SchemaError(f"{path}: row {k + 1} is not an object with the keys of row 1")
        return rows
    raise SchemaError(f"unknown input format {fmt!r} (expected csv or json)")


def _require_columns(rows: list[dict], required: Sequence[str], path) -> None:
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    have = set(rows[0])
    for col in required:
        if col not in have:
            raise SchemaError(f"{path}: missing required column {col!r}")


def _parse_float(raw, where: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: cannot parse {raw!r} as a number") from None
    return value


def load_shifts(path: str | Path, fmt: str = "csv") -> ShiftTable:
    rows = _read_rows(path, fmt)
    _require_columns(rows, ("shift_id", "value"), path)
    ids = [row["shift_id"] for row in rows]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate shift_id values")
    values = [_parse_float(row["value"], f"{path} shift {row['shift_id']!r}") for row in rows]
    for ident, v in zip(ids, values):
        if not math.isfinite(v):
            raise ValidationError(f"{path}: non-finite shift value for shift {ident!r}")
    cols = [c for c in rows[0] if c not in ("shift_id", "value")]
    label_cols = {}
    for name in ("cluster", "period", "exchange_group"):
        if name in cols:
            label_cols[name] = [row[name] for row in rows]
    cov_names = sorted((c for c in cols if c.startswith("p_")), key=lambda c: (len(c), c))
    covariates = None
    if cov_names:
        covariates = np.array(
            [[_parse_float(row[c], f"{path} column {c}") for c in cov_names] for row in rows]
        )
    extras = {
        c: [row[c] for row in rows]
        for c in cols
        if c not in label_cols and c not in cov_names
    }
    return ShiftTable(
        values=np.array(values),
        shift_ids=tuple(ids),
        covariates=covariates,
        covariate_names=tuple(cov_names),
        extras=extras,
        **label_cols,
    )


def load_units(path: str | Path, fmt: str = "csv") -> Dataset:
    rows = _read_rows(path, fmt)
    _require_columns(rows, ("unit_id", "y"), path)
    ids = [row["unit_id"] for row in rows]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate unit_id values")
    y = [_parse_float(row["y"], f"{path} unit {row['unit_id']!r}") for row in rows]
    cols = [c for c in rows[0] if c not in ("unit_id", "y")]
    x = None
    if "x" in cols:
        x = [_parse_float(row["x"], f"{path} column x") for row in rows]
    weights = None
    if "w_e" in cols:
        weights = [_parse_float(row["w_e"], f"{path} column w_e") for row in rows]
    pi_names = sorted((c for c in cols if c.startswith("pi_")), key=lambda c: (len(c), c))
    controls = None
    if pi_names:
        controls = np.array(
            [[_parse_float(row[c], f"{path} column {c}") for c in pi_names] for row in rows]
        )
    extras = {
        c: [row[c] for row in rows]
        for c in cols
        if c not in ("x", "w_e") and c not in pi_names
    }
    return Dataset(
        outcome=np.array(y),
        unit_ids=tuple(ids),
        regressor=None if x is None else np.array(x),
        controls=controls,
        control_names=tuple(pi_names),
        unit_weights=None if weights is None else np.array(weights),
        extras=extras,
    )


def _read_long_matrix(
    path: str | Path,
    column: str,
    unit_ids: Sequence[str],
    shift_ids: Sequence[str],
    fmt: str = "csv",
) -> np.ndarray:
    """Dense units-by-shifts matrix from a long-format ``unit_id, shift_id,
    <column>`` file; absent pairs are zero. Every id must be known and every
    value must parse as a number."""
    rows = _read_rows(path, fmt)
    _require_columns(rows, ("unit_id", "shift_id", column), path)
    unit_index = {str(u): i for i, u in enumerate(unit_ids)}
    shift_index = {str(s): j for j, s in enumerate(shift_ids)}
    out = np.zeros((len(unit_ids), len(shift_ids)))
    unknown_units: list[str] = []
    unknown_shifts: list[str] = []
    for row in rows:
        u, s = str(row["unit_id"]), str(row["shift_id"])
        if u not in unit_index:
            unknown_units.append(u)
            continue
        if s not in shift_index:
            unknown_shifts.append(s)
            continue
        value = _parse_float(row[column], f"{path} {column} ({u}, {s})")
        out[unit_index[u], shift_index[s]] = value
    problems = []
    if unknown_units:
        problems.append(f"unit ids not in units file: {sorted(set(unknown_units))[:5]}")
    if unknown_shifts:
        problems.append(f"shift ids not in shifts file: {sorted(set(unknown_shifts))[:5]}")
    if problems:
        raise ValidationError(f"{path}: " + "; ".join(problems))
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


def load_csv(shares_path, shifts_path, units_path):
    return load_inputs(shares_path, shifts_path, units_path, fmt="csv")


def load_json(shares_path, shifts_path, units_path):
    return load_inputs(shares_path, shifts_path, units_path, fmt="json")


# ---------------------------------------------------------------------------
# serialization (round-trips bit-identically: floats written with repr)


def _fmt(value: float) -> str:
    return repr(float(value))


def _share_rows(shares: ShareMatrix):
    """``(unit_id, shift_id, weight)`` of every nonzero share, row by row."""
    rows, cols = np.nonzero(shares.weights)
    values = shares.weights[rows, cols].tolist()
    for i, j, w in zip(rows.tolist(), cols.tolist(), values):
        yield shares.row_ids[i], shares.col_ids[j], w


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
    share_rows = [
        {"unit_id": u, "shift_id": s, "weight": _fmt(w)} for u, s, w in _share_rows(shares)
    ]
    shift_rows = []
    for j in range(shifts.n_shifts):
        row = {"shift_id": shifts.shift_ids[j], "value": _fmt(shifts.values[j])}
        for name in ("cluster", "period", "exchange_group"):
            col = getattr(shifts, name)
            if col is not None:
                row[name] = str(col[j])
        if shifts.covariates is not None:
            for k, cname in enumerate(shifts.covariate_names):
                row[cname] = _fmt(shifts.covariates[j, k])
        for cname, col in shifts.extras.items():
            row[cname] = str(col[j])
        shift_rows.append(row)
    unit_rows = []
    for i in range(dataset.n_units):
        row = {"unit_id": dataset.unit_ids[i], "y": _fmt(dataset.outcome[i])}
        if dataset.regressor is not None:
            row["x"] = _fmt(dataset.regressor[i])
        row["w_e"] = _fmt(dataset.unit_weights[i])
        if dataset.controls is not None:
            for k, cname in enumerate(dataset.control_names):
                row[cname] = _fmt(dataset.controls[i, k])
        for cname, col in dataset.extras.items():
            row[cname] = str(col[i])
        unit_rows.append(row)
    ext = "csv" if fmt == "csv" else "json"
    paths = {
        "shares": directory / f"shares.{ext}",
        "shifts": directory / f"shifts.{ext}",
        "units": directory / f"units.{ext}",
    }
    for key, rows in (("shares", share_rows), ("shifts", shift_rows), ("units", unit_rows)):
        _write_rows(paths[key], rows, fmt)
    return paths


def _write_rows(path: Path, rows: list[dict], fmt: str) -> None:
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1)
    else:
        raise SchemaError(f"unknown output format {fmt!r}")


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
        long_w[t * n : (t + 1) * n, t * m : (t + 1) * m] = sh.weights

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
