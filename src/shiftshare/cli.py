"""Command-line entry point.

Subcommands mirror the library modules: ``construct``, ``estimate``,
``ri``, ``diagnose``, ``simulate``. Every run writes its artifacts plus a
``manifest.json`` recording the command line, input digests, seed, and
package version, so any output can be reproduced from the manifest and the
input files. Reports are canonical JSON; CSV mirrors flatten nested fields
and are lossy. Exit codes: 0 success, 1 validation error, 2 numerical
failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import errno
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .construct import (
    build_exposure,
    complete_shares,
    decompose,
    leave_one_out_shifts,
    replace_shifts,
    residualize_shifts,
    shift_weights_from,
)
from .data import (
    _read_long_matrix,
    _share_columns,
    _undecodable,
    _write_columns,
    load_inputs,
    load_shares,
)
from .diagnose import balance_test_unit, concentration, icc, shift_summary
from .errors import (
    EstimationError,
    NumericalError,
    SchemaError,
    ShiftShareError,
    ValidationError,
)
from .estimate import estimate_shift_framework, rotemberg, shiftshare_2sls, shiftshare_ols
from .rinfer import ri_estimate, ri_test
from .simulate import ESTIMATORS, CoverageResult, DgpConfig, run_coverage

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_paths(args) -> list[Path]:
    """The files that the path options name, ``--out`` aside."""
    return [path for name, path in vars(args).items()
            if isinstance(path, Path) and name != "out"]


def _refuse_overwrites(args, names) -> None:
    """Refuse a run that would write a report (``names``, or the manifest) over one of its
    input files."""
    for name in [*names, "manifest.json"]:
        report = args.out / name
        if report.exists():
            for path in _input_paths(args):
                if report.samefile(path):
                    raise ValidationError(f"{path}: --out {args.out} would write the report "
                                          f"{name} over this input")


def _write_manifest(args, argv, digests: dict[str, str], config: dict | None) -> None:
    """``manifest.json`` of a run: its command line, the ``digests`` of its input files, the
    digest of the DGP ``config``, the seed, the package version and a timestamp."""
    _write_json(args.out / "manifest.json", {
        "command_line": list(argv),
        "input_digests": digests,
        "config_digest": hashlib.sha256(
            json.dumps(config or {}, sort_keys=True).encode()
        ).hexdigest(),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten(payload[key], f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(payload, (list, tuple)):
        rows.append((prefix.rstrip("."), json.dumps(payload)))
    else:
        rows.append((prefix.rstrip("."), "" if payload is None else payload))
    return rows


def _write_csv(path: Path, columns: dict) -> None:
    _write_columns(path, "csv", columns)


def _write_csv_mirror(path: Path, payload: dict) -> None:
    # lossy flat mirror of the JSON report; null is an empty cell
    rows = _flatten(payload)
    _write_csv(path, {"metric": [k for k, _ in rows], "value": [v for _, v in rows]})


def _terms(text: str | None) -> tuple[str, ...]:
    """Terms of a comma-separated ``--residualize`` value."""
    return tuple(t for t in (text or "").split(",") if t)


def _add_io_arguments(parser, need_inputs=True):
    if need_inputs:
        parser.add_argument("--shares", required=True, type=Path)
        parser.add_argument("--shifts", required=True, type=Path)
        parser.add_argument("--units", required=True, type=Path)
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="shiftshare", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build exposures and preprocess shifts")
    _add_io_arguments(p)
    p.add_argument("--complete-shares", action="store_true")
    p.add_argument("--replace-threshold", type=float, default=None)
    p.add_argument("--replace-shares", action="store_true",
                   help="also zero the share columns of replaced shifts")
    p.add_argument("--residualize", default=None,
                   help="comma-separated fixed-effect/covariate terms")
    p.add_argument("--loo", action="store_true")
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--unit-shifts", type=Path, default=None,
                   help="long-format unit-by-shift values (for --loo/--decompose)")
    p.add_argument("--initial-shares", type=Path, default=None,
                   help="initial-period shares (for --decompose)")

    p = sub.add_parser("estimate", help="shift-share OLS/IV with the SE menu")
    _add_io_arguments(p)
    p.add_argument("--framework", choices=("share", "shift"), default="share")
    p.add_argument("--cluster-unit", default=None, metavar="COL")
    p.add_argument("--cluster-shift", default=None, metavar="COL")
    p.add_argument("--rotemberg", action="store_true")
    p.add_argument("--se", choices=("all", "conventional", "exposure", "residualized"),
                   default="all")
    p.add_argument("--report", choices=("json", "csv", "text"), default="json")
    p.add_argument("--residualize", default=None,
                   help="shift residualization terms for the shift framework")

    p = sub.add_parser("ri", help="randomization inference over exchangeable shifts")
    _add_io_arguments(p)
    p.add_argument("--beta0", type=float, default=None,
                   help="test this coefficient only (otherwise estimate + invert)")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--draws", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--groups", default=None, metavar="COL")

    p = sub.add_parser("diagnose", help="balance, dependence, and concentration checks")
    _add_io_arguments(p)
    p.add_argument("--balance", default=None, metavar="COLS",
                   help="comma-separated unit placebo columns")
    p.add_argument("--icc", default=None, metavar="COL", help="shift grouping column")
    p.add_argument("--autocorr", default=None, metavar="LAGS", help="comma-separated lags")
    p.add_argument("--concentration", action="store_true")
    p.add_argument("--cluster", default=None, metavar="COL", help="shift cluster column")
    p.add_argument("--residualize", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tables", action="store_true", help="also write CSV tables")

    p = sub.add_parser("simulate", help="Monte Carlo coverage experiments")
    p.add_argument("--config", type=Path, required=True,
                   help="plain key = value file of DGP parameters")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimators", default="conventional-hc,exposure-robust")
    _add_io_arguments(p, need_inputs=False)
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations: each returns its reports as ``{file name: (writer,
# content)}``, which the runner writes into ``--out``


def _unit_shifts(args, dataset, shifts) -> np.ndarray:
    """The ``--unit-shifts`` file as a dense units-by-shifts array; absent pairs are zero."""
    rows, cols, values = _read_long_matrix(args.unit_shifts, "value", dataset.unit_ids,
                                           shifts.shift_ids, args.format)
    d_ij = np.zeros((dataset.n_units, shifts.n_shifts))
    d_ij[rows, cols] = values
    return d_ij


def _cmd_construct(args, shares, shifts, dataset) -> dict:
    reports = {}
    w_j = shift_weights_from(dataset, shares)

    if args.decompose:
        if args.initial_shares is None or args.unit_shifts is None:
            raise ValidationError("--decompose needs --initial-shares and --unit-shifts")
        initial = load_shares(args.initial_shares, dataset.unit_ids, shifts.shift_ids,
                              args.format)
        d_ij = _unit_shifts(args, dataset, shifts)
        result = decompose(initial, shares, d_ij)
        reports["decomposition.csv"] = _write_csv, {
            "unit_id": dataset.unit_ids, "expected": result.expected, "shock": result.shock,
            "share_change": result.share_change, "interaction": result.interaction,
            "observed": result.observed,
        }

    if args.complete_shares:
        completed = complete_shares(shares, shifts)
        reports["completed_shares.csv"] = _write_csv, _share_columns(completed.shares)
        reports["sum_of_shares.csv"] = _write_csv, {
            "unit_id": dataset.unit_ids, "sum_of_shares": completed.sum_of_shares,
        }
        shares, shifts = completed.shares, completed.shifts
        w_j = shift_weights_from(dataset, shares)

    if args.replace_threshold is not None:
        replacement = replace_shifts(shifts, w_j, args.replace_threshold)
        shifts = replacement.shifts
        if args.replace_shares:
            shares = shares.zero_columns(replacement.replaced)
        reports["shifts_replaced.csv"] = _write_csv, {
            "shift_id": shifts.shift_ids, "value": shifts.values,
            "replaced": replacement.replaced.astype(int),
        }
        if not args.quiet:
            print(f"replaced {replacement.n_replaced} of {shifts.n_shifts} shifts "
                  f"({replacement.replaced_fraction:.1%})")

    if args.residualize is not None:
        spec = _terms(args.residualize)
        res = residualize_shifts(shifts, spec, w_j)
        reports["shift_residuals.csv"] = _write_csv, {
            "shift_id": shifts.shift_ids, "eta_hat": res.eta_hat, "fitted": res.fitted,
            "weight": w_j,
        }
        if not args.quiet:
            print(f"residualized on {spec}; sse_ratio = {res.sse_ratio:.4f}")

    if args.loo:
        if args.unit_shifts is None:
            raise ValidationError("--loo needs --unit-shifts")
        d_ij = _unit_shifts(args, dataset, shifts)
        loo = leave_one_out_shifts(d_ij, shares)
        reports["loo_instrument.csv"] = _write_csv, {"unit_id": dataset.unit_ids,
                                                     "z_loo": loo.z}

    reports["exposure.csv"] = _write_csv, {"unit_id": dataset.unit_ids,
                                           "exposure": build_exposure(shares, shifts)}
    return reports


def _estimate_share_framework(args, shares, shifts, dataset):
    exposure = build_exposure(shares, shifts)
    if dataset.regressor is None:
        report = shiftshare_ols(dataset, exposure, cluster=args.cluster_unit)
    else:
        report = shiftshare_2sls(dataset, exposure, cluster=args.cluster_unit)
    payload = {"estimate": report.to_dict()}
    if args.rotemberg:
        payload["rotemberg"] = rotemberg(dataset, shares, shifts).to_dict()
    return payload


def _cmd_estimate(args, shares, shifts, dataset) -> dict:
    if args.framework == "share":
        payload = _estimate_share_framework(args, shares, shifts, dataset)
    else:
        payload = estimate_shift_framework(
            shares, shifts, dataset,
            residualize=_terms(args.residualize),
            cluster_unit=args.cluster_unit,
            cluster_shift=args.cluster_shift,
            se=args.se,
            with_rotemberg=args.rotemberg,
        ).to_dict()
    payload["schema_version"] = SCHEMA_VERSION
    payload["framework"] = args.framework
    reports = {"estimate.json": (_write_json, payload)}
    if args.report == "csv":
        reports["estimate.csv"] = _write_csv_mirror, payload
        if not args.quiet:
            print("note: the CSV mirror is lossy; estimate.json is canonical")
    elif args.report == "text" and not args.quiet:
        est = payload["estimate"]
        print(f"beta_hat = {est['beta_hat']:.6g}")
        for name, se in sorted(est["se"].items()):
            print(f"  se[{name}] = {se:.6g}")
        for name, f in sorted(est.get("first_stage_f", {}).items()):
            print(f"  first_stage_f[{name}] = {f:.6g}")
    return reports


def _cmd_ri(args, shares, shifts, dataset) -> dict:
    if args.beta0 is not None:
        payload = dataclasses.asdict(ri_test(dataset, shares, shifts, beta0=args.beta0,
                                             draws=args.draws, seed=args.seed,
                                             groups=args.groups))
        del payload["stat_distribution"]
    else:
        payload = ri_estimate(dataset, shares, shifts, draws=args.draws,
                              level=args.level, seed=args.seed, groups=args.groups).to_dict()
    return {"ri.json": (_write_json, {"schema_version": SCHEMA_VERSION, **payload})}


def _cmd_diagnose(args, shares, shifts, dataset) -> dict:
    w_j = shift_weights_from(dataset, shares)
    payload: dict = {"schema_version": SCHEMA_VERSION}

    res = None
    if args.residualize is not None:
        res = residualize_shifts(shifts, _terms(args.residualize), w_j)
    eta = shifts.values if res is None else res.eta_hat

    if args.concentration:
        labels = shifts.label_column(args.cluster) if args.cluster else None
        payload["concentration"] = dataclasses.asdict(concentration(w_j, clusters=labels))

    if args.autocorr:
        try:
            lags = tuple(int(v) for v in args.autocorr.split(",") if v)
        except ValueError:
            raise ValidationError(f"--autocorr lags must be integers, got {args.autocorr!r}") from None
        if shifts.period is None:
            raise ValidationError("--autocorr needs a period column in the shifts file")
        summary = shift_summary(shifts, w_j, residuals=res, lags=lags, seed=args.seed)
        payload["shift_summary"] = summary.to_dict()

    if args.icc:
        r = icc(eta, shifts.label_column(args.icc), seed=args.seed)
        payload.setdefault("icc", {})[args.icc] = {
            "icc": r.icc, "se": r.se, "n_groups": r.n_groups, "n_obs": r.n_obs,
        }

    if args.balance:
        variable = shares.exposure(eta)
        cluster_labels = shifts.label_column(args.cluster) if args.cluster else None
        balance = {}
        for col in args.balance.split(","):
            try:
                placebo = np.array([float(v) for v in dataset.extra_column(col)])
            except ValueError:
                raise ValidationError(
                    f"balance column {col!r} contains non-numeric values"
                ) from None
            result = balance_test_unit(
                placebo, variable, controls=dataset.controls,
                unit_weights=dataset.unit_weights, shares=shares, eta_hat=eta,
                cluster=cluster_labels, se_mode="exposure",
            )
            balance[col] = dataclasses.asdict(result)
        payload["balance_unit"] = balance

    reports = {"diagnose.json": (_write_json, payload)}
    if args.tables:
        reports["diagnose.csv"] = _write_csv_mirror, payload
    return reports


def _parse_dgp_config(path: Path, seed: int) -> DgpConfig:
    kinds = {"int": int, "float": float, "str": str}
    fields = {f.name: kinds[f.type] for f in dataclasses.fields(DgpConfig)}
    values: dict = {"seed": seed}
    try:
        text = path.read_text()
    except UnicodeDecodeError as error:
        raise _undecodable(path, error) from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise SchemaError(f"{path}:{line_no}: unknown DGP parameter {key!r}")
        try:
            values[key] = fields[key](value)
        except ValueError:
            raise SchemaError(
                f"{path}:{line_no}: {key} must be {fields[key].__name__}, got {value!r}"
            ) from None
    return DgpConfig(**values)


def _cmd_simulate(args, config, estimators) -> dict:
    results = run_coverage(config, estimators, replications=args.reps, seed=args.seed)
    if not args.quiet:
        for r in results:
            print(f"{r.estimator}: coverage95 = {r.coverage95:.3f} "
                  f"(mean SE {r.mean_se:.4g}, sd {r.sd_beta:.4g}, failed {r.n_failed})")
    return {"coverage.csv": (_write_csv, {
        f.name: [getattr(r, f.name) for r in results] for f in dataclasses.fields(CoverageResult)
    })}


COMMANDS = {
    "construct": _cmd_construct,
    "estimate": _cmd_estimate,
    "ri": _cmd_ri,
    "diagnose": _cmd_diagnose,
    "simulate": _cmd_simulate,
}


def _read_inputs(args) -> tuple:
    """What the command reads, checked before ``--out`` is created: the three input files,
    or for ``simulate`` the DGP config and the estimator names."""
    if args.command != "simulate":
        return load_inputs(args.shares, args.shifts, args.units, args.format)
    config = _parse_dgp_config(args.config, args.seed)
    estimators = [e for e in args.estimators.split(",") if e]
    unknown = [e for e in estimators if e not in ESTIMATORS]
    if unknown:
        raise ValidationError(f"unknown estimators: {unknown}; available: {sorted(ESTIMATORS)}")
    return config, estimators


def dispatch(argv) -> int:
    """Run the command that ``argv`` names: read its inputs, run it, then create ``--out``
    and write its reports and the manifest there, unless one would be written over an
    input. A failure ends in its exit code and one line on standard error."""
    args = build_parser().parse_args(argv)
    try:
        inputs = _read_inputs(args)
        if args.out.exists() and not args.out.is_dir():  # found before the command runs
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(args.out))
        digests = {str(path): _sha256(path) for path in _input_paths(args)}
        reports = COMMANDS[args.command](args, *inputs)
        _refuse_overwrites(args, reports)
        args.out.mkdir(parents=True, exist_ok=True)
        for name, (write, content) in reports.items():
            write(args.out / name, content)
        config = dataclasses.asdict(inputs[0]) if args.command == "simulate" else None
        _write_manifest(args, argv, digests, config)
    except (EstimationError, NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ShiftShareError as exc:  # a schema or validation error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # an unreadable input, or an --out that cannot be a directory
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
