"""Output checks: recompute each report's headline numbers through the library.

A report is *wrong* when a headline number disagrees with the library's
value by more than 1e-8 relative (the acceptance-suite tolerance). It is
*malformed* when a value cannot be read as a plain number; the one malformed
form the seed writes, ``np.float64(<literal>)`` (``repr`` of a NumPy scalar
under NumPy 2 in ``construct``'s CSV outputs), is still read so its number
can be compared. The benchmark counts a malformed report as a failed
operation and a wrong one as an incorrect output.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

from shiftshare import (
    Dataset,
    DgpConfig,
    ShiftShareError,
    balance_test_unit,
    build_exposure,
    complete_shares,
    concentration,
    estimate_inverted,
    icc,
    invert,
    residualize_shifts,
    residualized_se,
    residualized_se_clustered,
    ri_estimate,
    rotemberg,
    run_coverage,
    shift_weights_from,
    shiftshare_2sls,
)

REL_TOL = 1e-8
NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


class Findings:
    """What the checks found: wrong numbers and malformed values, as messages."""

    def __init__(self):
        self.wrong: list[str] = []
        self.malformed: list[str] = []

    def number(self, text: str, where: str) -> float:
        try:
            return float(text)
        except ValueError:
            match = NUMPY_REPR.fullmatch(text)
            if match is None:
                raise
            if not any(m.startswith(where) for m in self.malformed):
                self.malformed.append(f"{where}: values written as {text!r}")
            return float(match.group(1))

    def merge(self, where: str, other: "Findings") -> bool:
        """Add ``other``'s findings, prefixed by ``where``; true when it has any."""
        self.wrong += [f"{where}: {p}" for p in other.wrong]
        self.malformed += [f"{where}: {p}" for p in other.malformed]
        return bool(other.wrong or other.malformed)


def _options(args) -> dict:
    """``--flag value`` pairs of a CLI argument list; bare flags map to True."""
    out, i = {}, 0
    while i < len(args):
        key = args[i][2:]
        if i + 1 < len(args) and not args[i + 1].startswith("--"):
            out[key], i = args[i + 1], i + 2
        else:
            out[key], i = True, i + 1
    return out


def _close(name, got, want, found) -> None:
    if want is None or got is None:
        if want is not got:
            found.wrong.append(f"{name}: report {got!r} vs library {want!r}")
        return
    got, want = float(got), float(want)
    if math.isnan(want) and math.isnan(got):
        return
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        found.wrong.append(f"{name}: report {got!r} vs library {want!r}")


def _close_array(name, got, want, found) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        found.wrong.append(f"{name}: {got.shape[0]} rows vs library {want.shape[0]}")
    elif not np.allclose(got, want, rtol=REL_TOL, atol=0.0, equal_nan=True):
        k = int(np.argmax(np.abs(got - want)))
        found.wrong.append(f"{name}[{k}]: report {float(got[k])!r} vs library {float(want[k])!r}")


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def _read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(path: Path, name: str, found: Findings, rows=None) -> list[float]:
    rows = _read_table(path) if rows is None else rows
    return [found.number(r[name], path.name) for r in rows]


def _spec(text) -> tuple[str, ...]:
    return tuple(t for t in str(text).split(",") if t) if text else ()


def _compare_estimate(est: dict, beta, se_variants: dict, found) -> None:
    _close("beta_hat", est["beta_hat"], beta, found)
    for key, value in se_variants.items():
        if key not in est["se"]:
            found.wrong.append(f"se[{key}] missing from the report")
        else:
            _close(f"se[{key}]", est["se"][key], value, found)


def _check_estimate_share(report, opts, inputs, found) -> None:
    shares, shifts, dataset = inputs
    ref = shiftshare_2sls(dataset, build_exposure(shares, shifts), cluster=opts.get("cluster-unit"))
    _compare_estimate(report["estimate"], ref.beta_hat, ref.se_variants, found)
    if opts.get("rotemberg"):
        _close("rotemberg.beta_hat", report["rotemberg"]["beta_hat"],
               rotemberg(dataset, shares, shifts).beta_hat, found)


def _shift_reference(opts, inputs):
    """The CLI's shift-framework composition, rebuilt from library calls."""
    shares, shifts, dataset = inputs
    completed = complete_shares(shares, shifts)
    shares_c, shifts_c = completed.shares, completed.shifts
    spec = ("p_real",) + tuple(t for t in _spec(opts.get("residualize")) if t != "p_real")
    blocks = [] if dataset.controls is None else [dataset.controls]
    blocks.append(completed.sum_of_shares[:, None])
    for term in spec[1:]:
        if term in shifts_c.covariate_names:
            k = shifts_c.covariate_names.index(term)
            blocks.append((shares_c.weights @ shifts_c.covariates[:, k])[:, None])
        else:
            labels = shifts_c.label_column(term)
            for level in np.unique(labels)[1:]:
                blocks.append((shares_c.weights @ (labels == level).astype(float))[:, None])
    augmented = Dataset(outcome=dataset.outcome, unit_ids=dataset.unit_ids,
                        regressor=dataset.regressor, controls=np.column_stack(blocks),
                        unit_weights=dataset.unit_weights, extras=dict(dataset.extras))
    res = residualize_shifts(shifts_c, spec, shift_weights_from(augmented, shares_c))
    report = shiftshare_2sls(augmented, shares_c.weights @ res.eta_hat,
                             cluster=opts.get("cluster-unit"), regressor=augmented.regressor)
    cluster = opts.get("cluster-shift")
    cluster = None if cluster is None else shifts_c.label_column(cluster)
    inverted = estimate_inverted(invert(augmented, shares_c, shifts_c, residuals=res),
                                 cluster=cluster)
    se = dict(report.se_variants)
    se.update({k: v for k, v in inverted.se_variants.items() if "exposure" in k})
    args = (augmented.unit_weights, shares_c, res.eta_hat, report.residuals, report.x_perp)
    se["residualized"] = residualized_se(*args)
    if cluster is not None:
        se["residualized_cluster"] = residualized_se_clustered(*args, cluster)
    rotemberg_beta = None
    if opts.get("rotemberg"):
        rotemberg_beta = rotemberg(augmented, shares_c, shifts_c).beta_hat
    return report.beta_hat, se, rotemberg_beta


def _check_estimate_shift(report, opts, inputs, found) -> None:
    try:
        beta, se, rotemberg_beta = _shift_reference(opts, inputs)
    except (ShiftShareError, np.linalg.LinAlgError):
        # The seed's CLI composition fails on this spec (a known defect);
        # a report here means the CLI changed, so only its shape is checked.
        _check_finite(report["estimate"], found)
        return
    _compare_estimate(report["estimate"], beta, se, found)
    if rotemberg_beta is not None:
        _close("rotemberg.beta_hat", report["rotemberg"]["beta_hat"], rotemberg_beta, found)


def _check_finite(estimate: dict, found) -> None:
    values = [estimate["beta_hat"], *estimate["se"].values()]
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        found.wrong.append(f"non-finite estimate or SE: {values}")


def _check_ri(report, opts, inputs, found, recompute) -> None:
    draws, seed = int(opts.get("draws", 2000)), int(opts.get("seed", 0))
    lower, upper = report["ci"]["lower"], report["ci"]["upper"]
    point = report["point_estimate"]
    if report["draws"] != draws or report["seed"] != seed or not math.isfinite(point):
        found.wrong.append(f"ri report: draws {report['draws']}, seed {report['seed']}, "
                        f"point {point!r}")
    if (lower is not None and lower > point) or (upper is not None and upper < point):
        found.wrong.append(f"ri interval [{lower}, {upper}] excludes the point {point!r}")
    if not recompute:
        return
    shares, shifts, dataset = inputs
    ref = ri_estimate(dataset, shares, shifts, draws=draws, level=float(opts.get("level", 0.95)),
                      seed=seed, groups=opts.get("groups"))
    _close("ri.point_estimate", point, ref.point_estimate, found)
    _close("ri.ci.lower", lower, _finite_or_none(ref.ci_lower), found)
    _close("ri.ci.upper", upper, _finite_or_none(ref.ci_upper), found)


def _check_diagnose(report, opts, inputs, found) -> None:
    shares, shifts, dataset = inputs
    w_j = shift_weights_from(dataset, shares)
    eta = shifts.values
    if opts.get("residualize"):
        eta = residualize_shifts(shifts, _spec(opts["residualize"]), w_j).eta_hat
    cluster = shifts.label_column(opts["cluster"]) if opts.get("cluster") else None
    if opts.get("concentration"):
        ref = concentration(w_j, clusters=cluster)
        for key in ("max_share_ratio", "max_share_sq_ratio", "inverse_hhi"):
            _close(f"concentration.{key}", report["concentration"][key], getattr(ref, key),
                   found)
    if opts.get("icc"):
        ref = icc(eta, shifts.label_column(opts["icc"]), seed=int(opts.get("seed", 0)))
        got = report["icc"][opts["icc"]]
        _close("icc", got["icc"], ref.icc, found)
        _close("icc.se", got["se"], ref.se, found)
    for col in _spec(opts.get("balance")):
        placebo = np.array([float(v) for v in dataset.extra_column(col)])
        ref = balance_test_unit(placebo, shares.weights @ eta, controls=dataset.controls,
                                unit_weights=dataset.unit_weights, shares=shares, eta_hat=eta,
                                cluster=cluster, se_mode="exposure")
        got = report["balance_unit"][col]
        _close(f"balance[{col}].coefficient", got["coefficient"], ref.coefficient, found)
        _close(f"balance[{col}].se", got["se"], ref.se, found)


def _check_construct(out: Path, opts, inputs, found) -> None:
    shares, shifts, dataset = inputs
    if opts.get("complete-shares"):
        completed = complete_shares(shares, shifts)
        sums = _column(out / "sum_of_shares.csv", "sum_of_shares", found)
        _close_array("sum_of_shares", sums, completed.sum_of_shares, found)
        shares, shifts = completed.shares, completed.shifts
        _check_completed_rows(out / "completed_shares.csv", shares, found)
    exposure = _column(out / "exposure.csv", "exposure", found)
    _close_array("exposure", exposure, build_exposure(shares, shifts), found)
    if opts.get("residualize"):
        res = residualize_shifts(shifts, _spec(opts["residualize"]),
                                 shift_weights_from(dataset, shares))
        eta = _column(out / "shift_residuals.csv", "eta_hat", found)
        _close_array("eta_hat", eta, res.eta_hat, found)


def _check_completed_rows(path: Path, shares, found) -> None:
    rows = _read_table(path)
    unit = {u: i for i, u in enumerate(shares.row_ids)}
    shift = {s: j for j, s in enumerate(shares.col_ids)}
    i = np.array([unit[r["unit_id"]] for r in rows])
    j = np.array([shift[r["shift_id"]] for r in rows])
    got = np.array(_column(path, "weight", found, rows))
    nonzero = np.count_nonzero(shares.weights)
    if len(rows) != nonzero:
        found.wrong.append(f"completed_shares.csv: {len(rows)} rows vs {nonzero} nonzero shares")
    else:
        _close_array("completed_shares", got, shares.weights[i, j], found)


def _check_simulate(out: Path, opts, found, recompute) -> None:
    rows = _read_table(out / "coverage.csv")
    reps, names = int(opts["reps"]), _spec(opts["estimators"])
    if [r["estimator"] for r in rows] != list(names) or any(
        int(r["replications"]) != reps or not 0.0 <= float(r["coverage95"]) <= 1.0 for r in rows
    ):
        found.wrong.append(f"coverage.csv does not cover {names} at {reps} replications")
        return
    if not recompute:
        return
    config = _read_dgp(Path(opts["config"]), int(opts.get("seed", 0)))
    for row, ref in zip(rows, run_coverage(config, names, replications=reps,
                                           seed=int(opts.get("seed", 0)))):
        if int(row["n_failed"]) != ref.n_failed:
            found.wrong.append(f"{ref.estimator}.n_failed: {row['n_failed']} vs {ref.n_failed}")
        for key in ("mean_bias", "sd_beta", "mean_se", "coverage95", "rejection_rate"):
            _close(f"{ref.estimator}.{key}", row[key], getattr(ref, key), found)


def _read_dgp(path: Path, seed: int) -> DgpConfig:
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        values[key] = int(value) if key in ("n", "m") else value
    return DgpConfig(seed=seed, **values)


def check_report(kind: str, args, out: Path, inputs, recompute: bool = True) -> Findings:
    """Check the report ``kind`` wrote under ``out`` for CLI ``args``.

    ``inputs`` is the workload's ``(shares, shifts, dataset)`` as the library
    loads them. With ``recompute`` false, ri and simulate reports get
    structural checks only.
    """
    opts = _options(args[1:])
    found = Findings()
    try:
        if kind == "construct":
            _check_construct(out, opts, inputs, found)
        elif kind == "simulate":
            _check_simulate(out, opts, found, recompute)
        else:
            name = {"ri": "ri.json", "diagnose": "diagnose.json"}.get(kind, "estimate.json")
            with open(out / name) as fh:
                report = json.load(fh)
            if kind == "estimate_share":
                _check_estimate_share(report, opts, inputs, found)
            elif kind == "estimate_shift":
                _check_estimate_shift(report, opts, inputs, found)
            elif kind == "ri":
                _check_ri(report, opts, inputs, found, recompute)
            else:
                _check_diagnose(report, opts, inputs, found)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        found.malformed.append(f"unreadable or incomplete report ({type(exc).__name__}: {exc})")
    except ShiftShareError as exc:
        found.wrong.append(f"library reference failed ({type(exc).__name__}: {exc})")
    return found


def same_reports(first: Path, second: Path) -> list[str]:
    """Files whose bytes differ between two output directories (manifest excluded)."""
    names = {p.name for d in (first, second) for p in d.iterdir() if p.name != "manifest.json"}
    return [
        name for name in sorted(names)
        if not ((first / name).is_file() and (second / name).is_file()
                and (first / name).read_bytes() == (second / name).read_bytes())
    ]
