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

The share matrix is stored as row-sorted triplets (CSR, about 16 bytes per nonzero share),
and unit-by-shift values (``--unit-shifts``) stay ``(rows, cols, values)`` triplets, read at
the stored shares by ``ShareMatrix.at_shares``: no module builds a dense units-by-shifts array.

Each table checks its own invariants, ids that repeat as strings among them, however it is
built; a loader prefixes the file's path to an error that building its table raises. Each id
is checked by the table that owns it: a ``ShareMatrix`` built from the ids of a checked
``Dataset``, ``ShiftTable`` or ``ShareMatrix`` takes them as given, and its public
constructors (``ShareMatrix(...)``, ``from_triplets``, ``load_shares``) check theirs.
A leading UTF-8 byte-order mark is skipped, in CSV and JSON. CSV files use RFC 4180 quoting
as ``save_inputs`` writes it: ``#`` is data, blank lines (before the header too) are skipped,
and ragged rows and a header naming a column twice are rejected. Ids are matched exactly,
spaces kept, and numbers read as Python's ``float`` reads them. A ``(unit_id, shift_id)`` pair
may appear only once, and a long-format file may hold no data rows (no nonzero pairs). A
long-format file is parsed in one pass into triplets: CSV by one C parse, JSON by one
``json.load`` that turns each row object into three appends, so that no dict per row is kept.
``_triplet_order`` alone checks triplets, parsed or given, and sorts them by ``(row, col)``,
so that any row order gives the same storage; it skips the sort for sorted triplets, as
``save_inputs`` writes them. It runs once per set: the read (or the CLI's cache hit) checks a
file's triplets and its consumers trust them, and the public entry points (``from_triplets``,
``at_shares``, ``decompose``, ``leave_one_out_shifts``) check whatever their callers pass.
A file that the one pass does not take whole is read again entry by entry, which words the
error or accepts what ``float`` and ``str`` accept: for JSON, an empty array, a numeric id, a
row with keys besides the three, and any malformed file. A JSON row object that gives a key
twice keeps the last value (``json.load`` collapses it), and a JSON string holding a lone
surrogate (an unpaired ``\\ud800`` escape) is rejected, as is a table built with one in an id
or label, since no file could be written with it.

Every CSV the package writes (``save_inputs`` and the CLI tables) uses the default
``csv.writer`` dialect: QUOTE_MINIMAL quoting and ``\r\n`` line ends, with floats written as
their ``repr`` so that they read back bit for bit. Every table, CSV or JSON, is written in
blocks of ``_BLOCK_ROWS`` rows, so that writing holds memory for one block, not for the table.
"""

from __future__ import annotations

import csv
import json
import warnings
from array import array
from contextlib import contextmanager
from copy import copy
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import SchemaError, ShiftShareWarning, ValidationError

ROW_SUM_TOL = 1e-9
COMPLETE_TOL = 1e-8  # a row summing to 1 within this is complete
WEIGHT_SUM_TOL = 1e-12
# stored shares per block of a share product, whose temporaries then take about 256 KiB
PRODUCT_BLOCK = 1 << 15
# rows per block of a written table, whose texts then take a few MB
_BLOCK_ROWS = 1 << 14

# row indices, column indices and values of the nonzero entries of a units-by-shifts matrix
Triplets = tuple[np.ndarray, np.ndarray, np.ndarray]


def _segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The sums of ``values[bounds[i]:bounds[i + 1]]``, zero for an empty segment."""
    out = np.zeros(len(bounds) - 1)
    # reduceat gives an empty segment the entry at its start, not zero
    filled = bounds[1:] > bounds[:-1]
    out[filled] = np.add.reduceat(values, bounds[:-1][filled])
    return out


def _triplet_order(rows, cols, values, row_ids, col_ids, what: str):
    """The one check of triplets: the ``what`` triplets of the ``row_ids`` by ``col_ids``
    matrix, as index and float arrays in its range with each key ``row * m + col``; the stable
    order that sorts the keys, None where they strictly increase; and the first entry, in
    input order, whose pair an earlier entry has, None where there is none."""
    rows, cols, values = np.asarray(rows), np.asarray(cols), np.asarray(values, dtype=float)
    if rows.ndim != 1 or not rows.shape == cols.shape == values.shape:
        raise ValidationError(f"{what} triplets must be one-dimensional and of one length")
    # a cast would truncate a float index, and read a dense array as triplets
    if rows.size and not (rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
        raise ValidationError(f"{what} triplet indices must be integers")
    rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
    n, m = len(row_ids), len(col_ids)
    if rows.size and not (0 <= rows.min() <= rows.max() < n and 0 <= cols.min() <= cols.max() < m):
        raise ValidationError(f"{what} triplet index out of the matrix's range")
    keys = rows * m + cols
    if not np.any(keys[1:] <= keys[:-1]):
        return (rows, cols, values, keys), None, None
    order = np.argsort(keys, kind="stable")
    # a stable sort keeps each pair's entries in input order: all but the first repeat it
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return (rows, cols, values, keys), order, int(repeats.min()) if repeats.size else None


def _sorted_triplets(rows, cols, values, row_ids, col_ids, what: str):
    """The ``what`` triplets of the ``row_ids`` by ``col_ids`` matrix, given in any order, as
    integer indices in its range with no pair twice: sorted, with each key ``row * m + col``."""
    triplets, order, k = _triplet_order(rows, cols, values, row_ids, col_ids, what)
    if k is not None:
        raise ValidationError(f"repeated {what} at unit {row_ids[triplets[0][k]]!r}, "
                              f"shift {col_ids[triplets[1][k]]!r}")
    return triplets if order is None else tuple(a[order] for a in triplets)


def _checked_unit_shifts(triplets: Triplets, row_ids, col_ids):
    """``_sorted_triplets`` of finite unit-by-shift ``(rows, cols, values)`` triplets, checked
    as ``ShareMatrix.from_triplets`` checks shares."""
    if isinstance(triplets, np.ndarray) or len(triplets) != 3:
        raise ValidationError("unit shifts must be (rows, cols, values) triplets")
    return _finite_unit_shifts(_sorted_triplets(*triplets, row_ids, col_ids, "unit shift"))


def _finite_unit_shifts(triplets):
    """Unit-shift ``triplets`` that ``_triplet_order`` passed, whose values must be finite."""
    if not np.all(np.isfinite(triplets[2])):
        raise ValidationError("unit shifts contain non-finite values")
    return triplets


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _label_codes(labels) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct labels (compared as strings) and each entry's index into them."""
    return np.unique(np.asarray(labels, dtype=object).astype(str), return_inverse=True)


def _vector(values, message: str) -> np.ndarray:
    """``values`` as a one-dimensional float array; ``message`` refuses any other shape."""
    out = np.asarray(values, dtype=float)
    if out.ndim != 1:
        raise ValidationError(message)
    return out


def _columns(values, rows: int, message: str) -> np.ndarray:
    """``values`` as a float matrix with one row per unit or shift: a 1-D
    array is one column, and a 2-D array must already have ``rows`` rows."""
    out = np.asarray(values, dtype=float)
    out = out[:, None] if out.ndim == 1 else out
    if out.ndim != 2 or out.shape[0] != rows:
        raise ValidationError(message)
    return out


def _unit_weights(values, n: int) -> np.ndarray:
    """``values`` as ``n`` finite, nonnegative unit weights that sum to one, uniform when
    None. Weights whose sum is within ``WEIGHT_SUM_TOL`` of one are kept as they are."""
    e = np.asarray(np.full(n, 1.0 / n) if values is None else values, dtype=float)
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
    return e


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


def _checked_ids(ids, column: str) -> tuple[str, ...]:
    """``ids`` as strings that a file can hold, none given twice: ``column`` names them."""
    ids = tuple(map(str, ids))
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate {column} values")
    if not "".join(ids).isascii():
        _check_unicode(ids)
    return ids


def _checked_share_ids(row_ids, col_ids) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return _checked_ids(row_ids, "unit_id"), _checked_ids(col_ids, "shift_id")


def _frozen_labels(values) -> np.ndarray:
    out = np.array([str(v) for v in values], dtype=object)
    if not "".join(out).isascii():
        _check_unicode(out)
    out.setflags(write=False)
    return out


def _frozen_extras(extras: Mapping, rows: int, kind: str) -> MappingProxyType:
    """Extra label columns as frozen string arrays, each with one value per ``kind``."""
    out = {}
    for name, col in dict(extras).items():
        if len(col) != rows:
            raise ValidationError(f"extra column {name!r} must have one value per {kind}")
        out[name] = _frozen_labels(col)
    return MappingProxyType(out)


@dataclass(frozen=True, init=False)
class ShareMatrix:
    """Nonnegative exposure weights of ``n`` units over ``m`` shifts.

    Every entry must be >= 0 and every row must sum to at most
    ``1 + ROW_SUM_TOL``. Rows summing to more than that are rejected
    rather than renormalized, since silent renormalization would corrupt
    the incomplete-share control downstream. All-zero rows are legal but
    flagged with a warning.

    The shares are stored as row-sorted triplets (CSR): the nonzero values
    ``data`` in (row, column) order, their column ``indices``, and ``indptr``,
    where row ``i`` holds entries ``indptr[i]:indptr[i + 1]``. That is about
    16 bytes per nonzero share, whatever ``n * m`` is. Other modules reach the
    shares only through the products ``exposure`` and ``aggregate``, the
    per-row and per-column totals and the pattern operations; ``weights`` is a
    dense copy for tests and small inputs.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]

    def __init__(self, weights, row_ids, col_ids):
        """The shares of a dense ``n x m`` array, converted once to triplets."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2:
            raise ValidationError("share matrix must be two-dimensional")
        row_ids, col_ids = tuple(row_ids), tuple(col_ids)
        if (len(row_ids), len(col_ids)) != w.shape:
            raise ValidationError("share matrix ids do not match its shape")
        stored = w != 0.0
        self._set(np.concatenate(([0], np.cumsum(np.count_nonzero(stored, axis=1)))),
                  np.broadcast_to(np.arange(w.shape[1]), w.shape)[stored], w[stored],
                  *_checked_share_ids(row_ids, col_ids))

    @classmethod
    def from_triplets(cls, rows, cols, values, row_ids, col_ids) -> "ShareMatrix":
        """The shares ``values[k]`` at unit ``rows[k]`` and shift ``cols[k]``, given in
        any order; a pair may appear once, and absent pairs are zero."""
        row_ids, col_ids = tuple(map(str, row_ids)), tuple(map(str, col_ids))
        triplets = _sorted_triplets(rows, cols, values, row_ids, col_ids, "share")
        return cls._of_sorted(*triplets[:3], *_checked_share_ids(row_ids, col_ids))

    @classmethod
    def _of_sorted(cls, rows, cols, values, row_ids, col_ids) -> "ShareMatrix":
        """``from_triplets`` of triplets that ``_triplet_order`` found in range and in order,
        and of checked ids."""
        stored = values != 0.0
        return cls._of_rows(np.searchsorted(rows[stored], np.arange(len(row_ids) + 1)),
                            cols[stored], values[stored], row_ids, col_ids)

    @classmethod
    def _of_rows(cls, indptr, indices, data, row_ids, col_ids) -> "ShareMatrix":
        """The shares stored as given: row-sorted triplets without zeros (CSR), in range and
        in order, and the ids of a checked ``Dataset``, ``ShiftTable`` or ``ShareMatrix``.
        The values are checked."""
        out = cls.__new__(cls)
        out._set(indptr, indices, data, row_ids, col_ids)
        return out

    def _set(self, indptr, indices, data, row_ids, col_ids) -> None:
        """Store row-sorted triplets that this class built, at checked ids, and validate
        their values."""
        for name, value in (("indptr", indptr), ("indices", indices), ("data", data)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "row_ids", row_ids)
        object.__setattr__(self, "col_ids", col_ids)

        def cell(k: int) -> str:
            i = int(np.searchsorted(indptr, k, side="right")) - 1
            return f"unit {row_ids[i]!r}, shift {col_ids[indices[k]]!r}"

        # storage is row-major, so the first offending entry is the first offending cell
        negative = np.flatnonzero(data < 0)
        if negative.size:
            k = negative[0]
            raise ValidationError(f"negative share {float(data[k])!r} at {cell(k)}")
        non_finite = np.flatnonzero(~np.isfinite(data))
        if non_finite.size:
            raise ValidationError(f"non-finite share at {cell(non_finite[0])}")
        sums = self.row_sums()
        bad = np.flatnonzero(sums > 1.0 + ROW_SUM_TOL)
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"row sum {float(sums[i])!r} for unit {row_ids[i]!r} exceeds 1 + {ROW_SUM_TOL}"
            )
        zero = np.flatnonzero(sums == 0.0)
        if zero.size:
            names = ", ".join(row_ids[i] for i in zero[:5])
            warnings.warn(
                f"{zero.size} all-zero share row(s) retained (first: {names})",
                ShiftShareWarning,
                stacklevel=3,
            )
        # the products run over blocks of rows holding about PRODUCT_BLOCK shares each (a
        # longer row is a block of its own), so that their temporaries stay small: each
        # block is its rows r0:r1 and its entries s:e
        cuts = np.searchsorted(indptr, np.arange(PRODUCT_BLOCK, data.size, PRODUCT_BLOCK))
        bounds = np.unique(np.concatenate(([0], cuts, [len(row_ids)]))).tolist()
        object.__setattr__(self, "_blocks", tuple(
            (r0, r1, int(indptr[r0]), int(indptr[r1])) for r0, r1 in zip(bounds, bounds[1:])
        ))

    def _with(self, indptr, indices, data, col_ids) -> "ShareMatrix":
        return ShareMatrix._of_rows(indptr, indices, data, self.row_ids, col_ids)

    @property
    def n_units(self) -> int:
        return len(self.row_ids)

    @property
    def n_shifts(self) -> int:
        return len(self.col_ids)

    @property
    def weights(self) -> np.ndarray:
        """A read-only dense ``n x m`` copy, built on each access: for tests and small
        inputs. No module of the package reads it."""
        out = np.zeros((self.n_units, self.n_shifts))
        out[self._rows(), self.indices] = self.data
        out.setflags(write=False)
        return out

    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_units), np.diff(self.indptr))

    def _entries(self, entry_values) -> np.ndarray:
        entry_values = np.asarray(entry_values, dtype=float)
        if entry_values.shape != self.data.shape:
            raise ValidationError(f"need one value per stored share ({self.data.size})")
        return entry_values

    def row_totals(self, entry_values) -> np.ndarray:
        """Per-unit sums of ``entry_values``, one value per stored share in ``nonzero()``
        order."""
        return _segment_sums(self._entries(entry_values), self.indptr)

    def column_totals(self, entry_values) -> np.ndarray:
        """Per-shift sums of ``entry_values``, one value per stored share in ``nonzero()``
        order."""
        entry_values = self._entries(entry_values)
        out = np.zeros(self.n_shifts)
        for _, _, s, e in self._blocks:
            out += np.bincount(self.indices[s:e], entry_values[s:e], self.n_shifts)
        return out

    def row_sums(self) -> np.ndarray:
        return self.row_totals(self.data)

    def is_complete(self) -> bool:
        """True when every row sums to 1 within ``COMPLETE_TOL``."""
        return bool(np.all(np.abs(self.row_sums() - 1.0) <= COMPLETE_TOL))

    def exposure(self, values) -> np.ndarray:
        """``W @ values`` for a vector with one value per shift."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_shifts,):
            raise ValidationError("exposure needs a vector of one value per shift "
                                  f"({self.n_shifts})")
        out = np.empty(self.n_units)
        for r0, r1, s, e in self._blocks:
            products = values[self.indices[s:e]]
            products *= self.data[s:e]
            out[r0:r1] = _segment_sums(products, self.indptr[r0:r1 + 1] - s)
        return out

    def aggregate(self, unit_values) -> np.ndarray:
        """``unit_values @ W`` for a vector with one value per unit."""
        unit_values = np.asarray(unit_values, dtype=float)
        if unit_values.shape != (self.n_units,):
            raise ValidationError("aggregation needs a vector of one value per unit "
                                  f"({self.n_units})")
        out = np.zeros(self.n_shifts)
        for r0, r1, s, e in self._blocks:
            products = np.repeat(unit_values[r0:r1], np.diff(self.indptr[r0:r1 + 1]))
            products *= self.data[s:e]
            out += np.bincount(self.indices[s:e], products, self.n_shifts)
        return out

    def nonzero(self) -> Triplets:
        """Row indices, column indices and values of the nonzero shares, row by row."""
        return self._rows(), self.indices, self.data

    def at_shares(self, triplets: Triplets) -> np.ndarray:
        """One value per stored share, in ``nonzero()`` order, of finite unit-by-shift ``(rows,
        cols, values)`` triplets checked as ``from_triplets`` checks shares; absent pairs are 0."""
        _, _, values, keys = _checked_unit_shifts(triplets, self.row_ids, self.col_ids)
        return self._at_keys(keys, values)

    def _at_keys(self, keys, values) -> np.ndarray:
        """``at_shares`` of checked unit shifts, by their sorted keys ``row * n_shifts + col``."""
        wanted = self._rows() * self.n_shifts + self.indices
        at = np.searchsorted(keys, wanted)  # an absent pair finds another key, or the last -1
        return np.where(np.append(keys, -1)[at] == wanted, np.append(values, 0.0)[at], 0.0)

    def with_column(self, values, col_id: str) -> "ShareMatrix":
        """The shares with a column of per-unit ``values`` appended as ``col_id``."""
        column = np.asarray(values, dtype=float)
        if column.shape != (self.n_units,):
            raise ValidationError("an appended column needs one value per unit "
                                  f"({self.n_units})")
        added = column != 0.0
        # each added entry goes at the end of its row
        at = self.indptr[1:][added]
        return self._with(
            self.indptr + np.concatenate(([0], np.cumsum(added))),
            np.insert(self.indices, at, self.n_shifts),
            np.insert(self.data, at, column[added]),
            _checked_ids(self.col_ids + (str(col_id),), "shift_id"),
        )

    def zero_columns(self, mask) -> "ShareMatrix":
        """The shares with the columns of the boolean ``mask`` set to zero, without
        the all-zero-row warning."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_shifts,):
            raise ValidationError("column mask misaligned with share columns")
        kept = ~mask[self.indices]
        return self._keeping(kept, self.indices[kept], self.col_ids)

    def _kept(self, kept) -> "ShareMatrix":
        """The shares of the columns where the boolean ``kept`` is True."""
        entries = kept[self.indices]
        return self._keeping(entries, (np.cumsum(kept) - 1)[self.indices[entries]],
                             tuple(compress(self.col_ids, kept)))

    def _keeping(self, entries, indices, col_ids) -> "ShareMatrix":
        """The stored shares where the boolean ``entries`` is True, at the column ``indices``
        of ``col_ids``, without the all-zero-row warning."""
        before = np.concatenate(([0], np.cumsum(entries)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShiftShareWarning)
            return self._with(before[self.indptr], indices, self.data[entries], col_ids)


@dataclass(frozen=True)
class ShiftTable:
    """Shift values with optional cluster/period/exchange-group labels and covariates.

    ``extras`` holds further label columns by name, each with one value per shift.
    """

    values: np.ndarray
    shift_ids: tuple[str, ...]
    cluster: np.ndarray | None = None
    period: np.ndarray | None = None
    exchange_group: np.ndarray | None = None
    covariates: np.ndarray | None = None
    covariate_names: tuple[str, ...] = ()
    extras: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        v = _vector(self.values, "shift values must be one-dimensional")
        object.__setattr__(self, "shift_ids", _checked_ids(self.shift_ids, "shift_id"))
        self._set_values(v)
        m = v.shape[0]
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
        extras = _frozen_extras(self.extras, m, "shift")
        object.__setattr__(self, "extras", extras)
        _check_names("shift", ("shift_id", "value", "cluster", "period", "exchange_group"),
                     (*self.covariate_names, *extras))

    @property
    def n_shifts(self) -> int:
        return self.values.shape[0]

    def _set_values(self, v: np.ndarray) -> None:
        """Store the one-dimensional ``v`` as the values: one finite value per shift id."""
        if len(self.shift_ids) != v.shape[0]:
            raise ValidationError("shift ids do not match the number of values")
        if not np.all(np.isfinite(v)):
            j = int(np.argmax(~np.isfinite(v)))
            raise ValidationError(f"non-finite shift value for shift {self.shift_ids[j]!r}")
        object.__setattr__(self, "values", _frozen_array(v))

    def with_values(self, values: np.ndarray) -> "ShiftTable":
        """Copy of the table with ``values`` swapped in, checked as the constructor checks
        them; the ids, labels and covariates are the same objects."""
        out = copy(self)
        out._set_values(_vector(values, "shift values must be one-dimensional"))
        return out

    def _kept(self, kept) -> "ShiftTable":
        """The table of the shifts where the boolean ``kept`` is True."""
        def take(column):
            return None if column is None else column[kept]

        return ShiftTable(self.values[kept], tuple(compress(self.shift_ids, kept)),
                          take(self.cluster), take(self.period), take(self.exchange_group),
                          take(self.covariates), self.covariate_names,
                          {name: column[kept] for name, column in self.extras.items()})

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
        y = _vector(self.outcome, "outcome must be one-dimensional")
        object.__setattr__(self, "unit_ids", _checked_ids(self.unit_ids, "unit_id"))
        self._set_outcome(y, self.regressor)
        n = y.shape[0]
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
        object.__setattr__(self, "unit_weights", _frozen_array(_unit_weights(self.unit_weights, n)))
        extras = _frozen_extras(self.extras, n, "unit")
        object.__setattr__(self, "extras", extras)
        _check_names("unit", ("unit_id", "y", "x", "w_e"), (*self.control_names, *extras))

    def _set_outcome(self, y: np.ndarray, regressor) -> None:
        """Store the one-dimensional ``y`` as the outcome and ``regressor`` (None for none) as
        the regressor: one finite value each per unit id."""
        n = y.shape[0]
        if len(self.unit_ids) != n:
            raise ValidationError("unit ids do not match the number of outcomes")
        if not np.all(np.isfinite(y)):
            raise ValidationError("outcome contains non-finite values")
        object.__setattr__(self, "outcome", _frozen_array(y))
        if regressor is not None:
            x = np.asarray(regressor, dtype=float)
            if x.shape != (n,):
                raise ValidationError("regressor must have one value per unit")
            if not np.all(np.isfinite(x)):
                raise ValidationError("regressor contains non-finite values")
            regressor = _frozen_array(x)
        object.__setattr__(self, "regressor", regressor)

    def with_outcome(self, outcome: np.ndarray, regressor: np.ndarray | None) -> "Dataset":
        """Copy of the dataset with ``outcome`` and ``regressor`` (None for none) swapped in,
        checked as the constructor checks them; the ids, controls, weights and extras are
        the same objects."""
        out = copy(self)
        out._set_outcome(_vector(outcome, "outcome must be one-dimensional"), regressor)
        return out

    @property
    def n_units(self) -> int:
        return self.outcome.shape[0]

    def extra_column(self, name: str) -> np.ndarray:
        if name not in self.extras:
            raise SchemaError(f"units table has no column named {name!r}")
        return self.extras[name]


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
        header, table = _load_csv(path, {})
        names, n_rows = header, -1 if table is None else len(table)
    elif fmt == "json":
        with open(file, encoding="utf-8-sig") as fh:  # past a leading byte-order mark
            try:
                rows = json.load(fh)
            except ValueError as error:  # not JSON, or bytes that do not decode
                raise SchemaError(f"{file}: not a JSON file ({error})") from None
            except RecursionError:
                raise SchemaError(f"{file}: JSON nested too deeply to read") from None
        if not isinstance(rows, list):
            raise SchemaError(f"{file}: expected a JSON array of row objects")
        for k, row in enumerate(rows):
            if not isinstance(row, dict) or row.keys() != rows[0].keys():
                raise SchemaError(f"{file}: row {k + 1} is not an object with the keys of row 1")
        names, n_rows = list(rows[0]) if rows else list(required), len(rows)
        _check_unicode(chain(names, chain.from_iterable(map(dict.values, rows))),
                       lambda message: SchemaError(f"{file}: {message}"))
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
    if table is None:
        with _open_csv(file) as fh:
            # csv.reader splits records as loadtxt does; blank lines are skipped
            records = enumerate(filter(None, csv.reader(fh)))
            k = next(k for k, record in records if len(record) != len(header))
        raise SchemaError(f"{path}: data row {k} does not have the header's {len(header)} fields")
    return {name: table[field].tolist() for name, field in zip(header, table.dtype.names)}


def _load_csv(
    path: str | Path, kinds: Mapping[str, type | str]
) -> tuple[list[str], np.ndarray | None]:
    """The header of a CSV input, checked for a repeated column, and its data rows from one
    structured ``np.loadtxt``: column ``header[k]`` is field ``f{k}`` of type
    ``kinds.get(header[k], object)``. The rows are None where that call rejects them: a row
    whose number of fields is not the header's, or a field its type does not parse."""
    with _open_csv(path) as fh:
        header = next(filter(None, csv.reader(fh)), None)  # blank lines are skipped
        if header is None:
            raise SchemaError(f"{Path(path)}: empty file, expected a header row")
        repeated = [name for k, name in enumerate(header) if name in header[:k]]
        if repeated:
            raise SchemaError(
                f"{path}: column {repeated[0]!r} appears more than once in the header")
        dtype = [(f"f{k}", kinds.get(name, object)) for k, name in enumerate(header)]
        with warnings.catch_warnings():
            # a header-only file gives no rows; its callers handle that
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, dtype=dtype,
                                   ndmin=1)
            except ValueError:
                table = None
    return header, table


@contextmanager
def _open_csv(path: str | Path):
    """``path`` opened for ``csv.reader``, past the UTF-8 byte-order mark that
    spreadsheet exports put first. Bytes that do not decode, wherever the body
    reads them, raise a ``SchemaError`` naming the file."""
    try:
        with open(path, newline="") as fh:
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            yield fh
    except UnicodeDecodeError as error:
        raise _undecodable(path, error) from None


def _check_unicode(texts, error=ValidationError) -> None:
    """Reject a string of ``texts`` that holds a lone surrogate, which a JSON ``\\ud800``
    escape can give and no file can be written with, by raising ``error``."""
    for text in texts:
        if isinstance(text, str) and not text.isascii():
            try:
                text.encode()
            except UnicodeEncodeError:
                raise error(f"{text!r} is not valid Unicode") from None


@contextmanager
def _naming(path: str | Path):
    """Prefix ``"{path}: "`` to a ``ValidationError`` that building the file's table raises."""
    try:
        yield
    except ValidationError as error:
        raise ValidationError(f"{path}: {error}") from None


def _undecodable(path: str | Path, error: UnicodeDecodeError) -> SchemaError:
    """The error for a text file ``path`` that holds bytes its encoding does not decode."""
    return SchemaError(f"{Path(path)}: not {error.encoding} text "
                       f"(byte 0x{error.object[error.start]:02x}: {error.reason})")


def _floats(values: Sequence, where) -> np.ndarray:
    """``values`` as 64-bit floats; ``where(k)`` names entry ``k`` if it does not parse."""
    try:
        return np.fromiter(map(float, values), dtype=float, count=len(values))
    except (TypeError, ValueError, OverflowError):  # overflow: a JSON integer past 1e308
        for k, raw in enumerate(values):
            try:
                float(raw)
            except (TypeError, ValueError, OverflowError):
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
    values = _floats(columns.pop("value"), lambda k: f"{path} shift {ids[k]!r}")
    labels = {c: columns.pop(c) for c in ("cluster", "period", "exchange_group") if c in columns}
    cov_names = sorted((c for c in columns if c.startswith("p_")), key=lambda c: (len(c), c))
    covariates = _float_columns(columns, cov_names, path) if cov_names else None
    with _naming(path):
        return ShiftTable(values, ids, covariates=covariates, covariate_names=tuple(cov_names),
                          extras={c: col for c, col in columns.items() if c not in cov_names},
                          **labels)


def load_units(path: str | Path, fmt: str = "csv") -> Dataset:
    columns = _read_columns(path, fmt, ("unit_id", "y"))
    ids = columns.pop("unit_id")
    y = _floats(columns.pop("y"), lambda k: f"{path} unit {ids[k]!r}")
    x = _float_columns(columns, ("x",), path)[:, 0] if "x" in columns else None
    weights = _float_columns(columns, ("w_e",), path)[:, 0] if "w_e" in columns else None
    pi_names = sorted((c for c in columns if c.startswith("pi_")), key=lambda c: (len(c), c))
    controls = _float_columns(columns, pi_names, path) if pi_names else None
    with _naming(path):
        return Dataset(outcome=y, unit_ids=ids, regressor=x, controls=controls,
                       control_names=tuple(pi_names), unit_weights=weights,
                       extras={c: col for c, col in columns.items()
                               if c not in ("x", "w_e", *pi_names)})


def _read_long_matrix(
    path: str | Path,
    column: str,
    unit_ids: Sequence[str],
    shift_ids: Sequence[str],
    fmt: str = "csv",
) -> Triplets:
    """The ``(rows, cols, values)`` triplets of a long-format ``unit_id, shift_id,
    <column>`` file, sorted by (row, col) whatever the file's row order; absent pairs
    are zero, so a file without data rows holds no triplets. Every id must be known,
    every value must parse as a number, and no pair may appear twice.

    The file is parsed in one pass, CSV by ``_parse_long_csv`` and JSON by ``_parse_long_json``;
    a file that pass does not take whole is read again by ``_scan_long_matrix``, which words the
    error or accepts what ``float`` accepts; one ``_triplet_order`` sorts either's triplets."""
    parse = _LONG_PARSERS.get(fmt)
    parsed = None if parse is None else parse(path, column, unit_ids, shift_ids)
    rows, cols, values = parsed or _scan_long_matrix(path, column, unit_ids, shift_ids, fmt)
    _, order, k = _triplet_order(rows, cols, values, unit_ids, shift_ids, column)
    if k is not None:
        pair = str(unit_ids[rows[k]]), str(shift_ids[cols[k]])
        raise ValidationError(f"{path}: repeated (unit_id, shift_id) pair {pair}")
    return (rows, cols, values) if order is None else (rows[order], cols[order], values[order])


# numpy's number parser strips these around a number and ``float`` does not, and a
# ``U`` array drops a trailing NUL of an id; a file holding any of them is scanned
_C_PARSE_HAZARDS = (b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_long_csv(path, column, unit_ids, shift_ids) -> Triplets | None:
    """The triplets of a CSV file, in file order, from one structured ``np.loadtxt``, or None
    where the file is anything but a clean, non-empty table of known ids."""
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return None
    if any(byte in raw for byte in _C_PARSE_HAZARDS):
        return None
    del raw  # the parser reads the file again; its bytes need not stay in memory meanwhile
    known = {"unit_id": list(map(str, unit_ids)), "shift_id": list(map(str, shift_ids))}
    # an id one character longer than every known id is never cut to a known one
    kinds = {name: f"U{max(map(len, ids), default=0) + 1}" for name, ids in known.items()}
    kinds[column] = np.float64
    header, table = _load_csv(path, kinds)
    # None: a ragged row or a number the C parser rejects
    if table is None or not len(table) or not set(kinds) <= set(header):
        return None
    fields = dict(zip(header, (table[name] for name in table.dtype.names)))
    rows, cols = (_id_positions(ids, fields[name]) for name, ids in known.items())
    if rows is None or cols is None:
        return None
    return rows, cols, fields[column].copy()  # a view would keep the whole table alive


def _parse_long_json(path, column, unit_ids, shift_ids) -> Triplets | None:
    """The triplets of a JSON file, in file order, from one ``json.load`` whose hook turns
    each row object into three appends, so that no row's dict outlives its parse; or None
    where the file is anything but a non-empty array of objects with exactly the keys
    ``unit_id``, ``shift_id`` and ``column``, known string ids and values that ``float``
    takes."""
    unit_index = {str(u): i for i, u in enumerate(unit_ids)}
    shift_index = {str(s): j for j, s in enumerate(shift_ids)}
    keys, fields = {"unit_id", "shift_id", column}, itemgetter("unit_id", "shift_id", column)
    rows, cols, values = array(np.dtype(np.intp).char), array(np.dtype(np.intp).char), array("d")
    add_row, add_col, add_value = rows.append, cols.append, values.append

    def parse(row: dict) -> None:
        # the hook sees every object, nested ones too; one it does not take stops the load
        if row.keys() != keys:
            raise ValueError("not a row of the three keys")
        unit, shift, value = fields(row)
        add_row(unit_index[unit])  # a key of a known id is a str: a numeric id is unknown
        add_col(shift_index[shift])
        add_value(float(value))

    try:
        # opened as _read_columns opens it, so that both decode the same text
        with open(path, encoding="utf-8-sig") as fh:
            top = json.load(fh, object_hook=parse)
    except (OSError, ValueError, TypeError, KeyError, OverflowError, RecursionError):
        return None
    # every entry of the array is a row that the hook took, and nothing else is
    if type(top) is not list or not top or len(top) != len(values) or top.count(None) != len(top):
        return None
    return np.array(rows), np.array(cols), np.array(values)


_LONG_PARSERS = {"csv": _parse_long_csv, "json": _parse_long_json}


def _id_positions(ids: list[str], found: np.ndarray) -> np.ndarray | None:
    """The index in ``ids`` of each entry of ``found``, or None if one is unknown or a ``U``
    array cannot hold the ``ids`` exactly and apart (a trailing NUL, a repeated id)."""
    held = np.array(ids, dtype=str)
    if not ids or held.tolist() != ids or len(set(ids)) < len(ids):
        return None
    # a saved file lists each unit's shares together, so unit ids come in runs: where runs
    # at least halve the entries, each is matched once; else copying their heads costs more
    head = np.ones(len(found), dtype=bool)
    head[1:] = found[1:] != found[:-1]
    runs = 2 * np.count_nonzero(head) <= len(found)
    first = found[head] if runs else found
    order = np.argsort(held)
    at = order[np.searchsorted(held[order], first).clip(max=len(ids) - 1)]
    if not np.array_equal(held[at], first):
        return None
    return np.repeat(at, np.diff(np.flatnonzero(head), append=len(found))) if runs else at


def _scan_long_matrix(path, column, unit_ids, shift_ids, fmt) -> Triplets:
    """``_read_long_matrix``'s parse entry by entry, in file order, with its errors in order."""
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
    return rows, cols, values


def load_shares(
    path: str | Path,
    unit_ids: Sequence[str],
    shift_ids: Sequence[str],
    fmt: str = "csv",
) -> ShareMatrix:
    triplets = _read_long_matrix(path, "weight", unit_ids, shift_ids, fmt)
    with _naming(path):
        return ShareMatrix._of_sorted(*triplets, *_checked_share_ids(unit_ids, shift_ids))


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


class _Coded(NamedTuple):
    """A column whose entry ``k`` is ``labels[codes[k]]``."""

    labels: Sequence
    codes: np.ndarray


def _cells(values, a: int, b: int, quote) -> list[str]:
    """The cell texts of rows ``a`` to ``b`` of one column: ``repr`` of each value of a float
    array, ``labels[codes]`` of a ``_Coded`` column whose labels are its texts, else ``quote``
    of each value's ``str``, called once per distinct text."""
    if isinstance(values, _Coded):
        return values.labels[values.codes[a:b]].tolist()
    block = values[a:b]
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return list(map(repr, block.tolist()))
        block = block.tolist()
    texts = list(map(str, block))
    quoted = {text: quote(text) for text in set(texts)}
    return list(map(quoted.__getitem__, texts))


def _write_columns(path: Path, fmt: str, columns: Mapping[str, Sequence]) -> None:
    """Write the table ``{name: values}`` with a header taken from the names, ``_BLOCK_ROWS``
    rows at a time, so that only one block's texts are held.

    A float array is written with ``repr`` of each value, so it reads back bit for bit; any
    other column with ``str`` of each value (a Python float's ``str`` is its ``repr``). CSV
    is the default ``csv.writer`` dialect: QUOTE_MINIMAL and ``\\r\\n`` line ends. JSON is
    a list of row objects whose values are those strings, byte for byte as
    ``json.dump(rows, fh, indent=1)`` writes it.
    """
    lengths = {len(v.codes if isinstance(v, _Coded) else v) for v in columns.values()}
    if len(lengths) > 1:
        raise ValidationError(f"table columns differ in length: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0
    names = list(columns)
    if fmt == "csv":
        writerow = csv.writer(SimpleNamespace(write=str)).writerow  # returns the line written
        # csv.writer leaves an empty field bare unless it is the only field of its row
        single = len(names) == 1

        def quote(text: str) -> str:
            return writerow((text,))[:-2] if text or single else ""
    elif fmt == "json":
        quote = json.encoder.encode_basestring_ascii
    else:
        raise SchemaError(f"unknown output format {fmt!r}")
    # a _Coded column's labels are quoted once, not once per row
    prepared = [_Coded(np.array([quote(str(label)) for label in v.labels], dtype=object), v.codes)
                if isinstance(v, _Coded) else v for v in columns.values()]
    if fmt == "json":
        # the texts around a row object's cells, as json.dump(indent=1) writes them; a float
        # cell, a bare repr, gets its quotes here
        gaps = ["\n {"]
        for k, (name, values) in enumerate(zip(names, prepared)):
            mark = '"' if isinstance(values, np.ndarray) and values.dtype.kind == "f" else ""
            gaps[-1] += f"{',' if k else ''}\n  {quote(name)}: {mark}"
            gaps.append(mark)
        gaps[-1] += "\n }"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(quote, names)) + "\r\n" if fmt == "csv" else "[")
        for a in range(0, rows, _BLOCK_ROWS):
            cells = [_cells(v, a, a + _BLOCK_ROWS, quote) for v in prepared]
            if fmt == "csv":
                fh.write("\r\n".join(map(",".join, zip(*cells))))
                fh.write("\r\n")
            else:
                pieces = [repeat(gaps[0])]
                for column, gap in zip(cells, gaps[1:]):
                    pieces += [column, repeat(gap)]
                fh.write("," if a else "")
                fh.write(",".join(map("".join, zip(*pieces))))
        if fmt == "json":
            fh.write("\n]" if rows else "]")


def _share_columns(shares: ShareMatrix) -> dict[str, Sequence]:
    """``unit_id, shift_id, weight`` of every nonzero share, row by row."""
    rows, cols, values = shares.nonzero()
    return {
        "unit_id": _Coded(shares.row_ids, rows),
        "shift_id": _Coded(shares.col_ids, cols),
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
    if (shares.row_ids, shares.col_ids) != (dataset.unit_ids, shifts.shift_ids):
        raise ValidationError("the shares must list the units' and shifts' ids in their order")
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
) -> tuple[ShareMatrix, ShiftTable]:
    """Stack per-period shares/shifts into one long-form design.

    The output share matrix has ``n*T`` observation rows and ``m*T`` shift
    columns, block-diagonal by period: shifts outside an observation's own
    period get weight exactly zero, so each row's exposure (and row sum) is
    preserved. Row ``r`` is unit ``r % n`` of period ``r // n`` and column
    ``c`` is shift ``c % m`` of period ``c // m``; their ids are
    ``"{id}@{period}"``. Period labels on the long shift table are set from
    ``periods`` (defaults to ``t0, t1, ...``). The cluster and exchange-group
    labels, the covariates and each extra label column are stacked period by
    period; each must be present in every period or in none.
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

    # period t's entries sit t blocks down and right, so the stacked triplets stay in
    # (row, col) order
    rows, cols, weights = zip(*(sh.nonzero() for sh in shares_by_period))
    long_rows = np.concatenate([r + t * n for t, r in enumerate(rows)])
    long_cols = np.concatenate([c + t * m for t, c in enumerate(cols)])

    row_ids = tuple(f"{u}@{periods[t]}" for t in range(T) for u in base.row_ids)
    col_ids = tuple(f"{s}@{periods[t]}" for t in range(T) for s in base.col_ids)

    values = np.concatenate([st.values for st in shifts_by_period])
    period_labels = np.repeat(periods, m)

    def _stack_labels(name: str, cols: list):
        present = [c is not None for c in cols]
        if not any(present):
            return None
        if not all(present):
            raise ValidationError(f"{name} labels must be present in all periods or none")
        return np.concatenate(cols)

    cluster = _stack_labels("cluster", [st.cluster for st in shifts_by_period])
    exchange = _stack_labels("exchange_group", [st.exchange_group for st in shifts_by_period])
    extras = {name: _stack_labels(name, [st.extras.get(name) for st in shifts_by_period])
              for name in dict.fromkeys(k for st in shifts_by_period for k in st.extras)}
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
        long_shares = ShareMatrix.from_triplets(long_rows, long_cols, np.concatenate(weights),
                                                 row_ids, col_ids)
    long_shifts = ShiftTable(
        values=values,
        shift_ids=col_ids,
        cluster=cluster,
        period=period_labels,
        exchange_group=exchange,
        covariates=covariates,
        covariate_names=cov_names,
        extras=extras,
    )
    return long_shares, long_shifts
