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
import hashlib
import json
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
    zero_share_columns,
)
from .data import _read_long_matrix, _share_columns, _write_columns, load_inputs
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


def _write_manifest(out_dir: Path, argv, inputs: list[Path], seed, extra=None) -> None:
    manifest = {
        "command_line": list(argv),
        "input_digests": {str(p): _sha256(p) for p in inputs if p is not None},
        "config_digest": hashlib.sha256(
            json.dumps(extra or {}, sort_keys=True).encode()
        ).hexdigest(),
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


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


def _write_csv_mirror(path: Path, payload: dict) -> None:
    # lossy flat mirror of the JSON report; null is an empty cell
    rows = _flatten(payload)
    _write_columns(path, "csv", {"metric": [k for k, _ in rows], "value": [v for _, v in rows]})


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
# subcommand implementations


def _cmd_construct(args, argv) -> int:
    shares, shifts, dataset = load_inputs(args.shares, args.shifts, args.units, args.format)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    w_j = shift_weights_from(dataset, shares)

    if args.decompose:
        if args.initial_shares is None or args.unit_shifts is None:
            raise ValidationError("--decompose needs --initial-shares and --unit-shifts")
        initial = load_inputs(args.initial_shares, args.shifts, args.units, args.format)[0]
        d_ij = _read_long_matrix(args.unit_shifts, "value", dataset.unit_ids,
                                 shifts.shift_ids, args.format)
        result = decompose(initial, shares, d_ij)
        _write_columns(out / "decomposition.csv", "csv", {
            "unit_id": dataset.unit_ids, "expected": result.expected, "shock": result.shock,
            "share_change": result.share_change, "interaction": result.interaction,
            "observed": result.observed,
        })

    if args.complete_shares:
        completed = complete_shares(shares, shifts)
        _write_columns(out / "completed_shares.csv", "csv", _share_columns(completed.shares))
        _write_columns(out / "sum_of_shares.csv", "csv", {
            "unit_id": dataset.unit_ids, "sum_of_shares": completed.sum_of_shares,
        })
        shares, shifts = completed.shares, completed.shifts
        w_j = shift_weights_from(dataset, shares)

    if args.replace_threshold is not None:
        replacement = replace_shifts(shifts, w_j, args.replace_threshold)
        shifts = replacement.shifts
        if args.replace_shares:
            shares = zero_share_columns(shares, replacement.replaced)
        _write_columns(out / "shifts_replaced.csv", "csv", {
            "shift_id": shifts.shift_ids, "value": shifts.values,
            "replaced": replacement.replaced.astype(int),
        })
        if not args.quiet:
            print(f"replaced {replacement.n_replaced} of {shifts.n_shifts} shifts "
                  f"({replacement.replaced_fraction:.1%})")

    if args.residualize is not None:
        spec = _terms(args.residualize)
        res = residualize_shifts(shifts, spec, w_j)
        _write_columns(out / "shift_residuals.csv", "csv", {
            "shift_id": shifts.shift_ids, "eta_hat": res.eta_hat, "fitted": res.fitted,
            "weight": w_j,
        })
        if not args.quiet:
            print(f"residualized on {spec}; sse_ratio = {res.sse_ratio:.4f}")

    if args.loo:
        if args.unit_shifts is None:
            raise ValidationError("--loo needs --unit-shifts")
        d_ij = _read_long_matrix(args.unit_shifts, "value", dataset.unit_ids,
                                 shifts.shift_ids, args.format)
        loo = leave_one_out_shifts(d_ij, shares)
        _write_columns(out / "loo_instrument.csv", "csv",
                       {"unit_id": dataset.unit_ids, "z_loo": loo.z})

    _write_columns(out / "exposure.csv", "csv",
                   {"unit_id": dataset.unit_ids, "exposure": build_exposure(shares, shifts)})
    _write_manifest(out, argv, [args.shares, args.shifts, args.units], seed=None)
    return EXIT_OK


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


def _cmd_estimate(args, argv) -> int:
    shares, shifts, dataset = load_inputs(args.shares, args.shifts, args.units, args.format)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
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
    _write_json(out / "estimate.json", payload)
    if args.report == "csv":
        _write_csv_mirror(out / "estimate.csv", payload)
        if not args.quiet:
            print("note: the CSV mirror is lossy; estimate.json is canonical")
    elif args.report == "text" and not args.quiet:
        est = payload["estimate"]
        print(f"beta_hat = {est['beta_hat']:.6g}")
        for name, se in sorted(est["se"].items()):
            print(f"  se[{name}] = {se:.6g}")
        for name, f in sorted(est.get("first_stage_f", {}).items()):
            print(f"  first_stage_f[{name}] = {f:.6g}")
    _write_manifest(out, argv, [args.shares, args.shifts, args.units], seed=None)
    return EXIT_OK


def _cmd_ri(args, argv) -> int:
    shares, shifts, dataset = load_inputs(args.shares, args.shifts, args.units, args.format)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    if args.beta0 is not None:
        test = ri_test(dataset, shares, shifts, beta0=args.beta0,
                       draws=args.draws, seed=args.seed, groups=args.groups)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "beta0": test.beta0,
            "p_value": test.p_value,
            "stat_observed": test.stat_observed,
            "stat_mean": test.stat_mean,
            "method": test.method,
            "draws": test.draws,
            "seed": test.seed,
        }
    else:
        result = ri_estimate(dataset, shares, shifts, draws=args.draws,
                             level=args.level, seed=args.seed, groups=args.groups)
        payload = {"schema_version": SCHEMA_VERSION, **result.to_dict()}
    _write_json(out / "ri.json", payload)
    _write_manifest(out, argv, [args.shares, args.shifts, args.units], seed=args.seed)
    return EXIT_OK


def _cmd_diagnose(args, argv) -> int:
    shares, shifts, dataset = load_inputs(args.shares, args.shifts, args.units, args.format)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    w_j = shift_weights_from(dataset, shares)
    payload: dict = {"schema_version": SCHEMA_VERSION}

    res = None
    if args.residualize is not None:
        res = residualize_shifts(shifts, _terms(args.residualize), w_j)
    eta = shifts.values if res is None else res.eta_hat

    if args.concentration:
        labels = shifts.label_column(args.cluster) if args.cluster else None
        payload["concentration"] = concentration(w_j, clusters=labels).to_dict()

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
            balance[col] = result.to_dict()
        payload["balance_unit"] = balance

    _write_json(out / "diagnose.json", payload)
    if args.tables:
        _write_csv_mirror(out / "diagnose.csv", payload)
    _write_manifest(out, argv, [args.shares, args.shifts, args.units], seed=args.seed)
    return EXIT_OK


def _parse_dgp_config(path: Path, seed: int) -> DgpConfig:
    kinds = {"int": int, "float": float, "str": str}
    fields = {f.name: kinds[f.type] for f in dataclasses.fields(DgpConfig)}
    values: dict = {"seed": seed}
    try:
        text = path.read_text()
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read config file ({exc.strerror})") from None
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


def _cmd_simulate(args, argv) -> int:
    config = _parse_dgp_config(args.config, args.seed)
    estimators = [e for e in args.estimators.split(",") if e]
    unknown = [e for e in estimators if e not in ESTIMATORS]
    if unknown:
        raise ValidationError(f"unknown estimators: {unknown}; available: {sorted(ESTIMATORS)}")
    results = run_coverage(config, estimators, replications=args.reps, seed=args.seed)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    _write_columns(out / "coverage.csv", "csv", {
        f.name: [getattr(r, f.name) for r in results] for f in dataclasses.fields(CoverageResult)
    })
    if not args.quiet:
        for r in results:
            print(f"{r.estimator}: coverage95 = {r.coverage95:.3f} "
                  f"(mean SE {r.mean_se:.4g}, sd {r.sd_beta:.4g}, failed {r.n_failed})")
    _write_manifest(out, argv, [args.config], seed=args.seed,
                    extra=dataclasses.asdict(config))
    return EXIT_OK


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "estimate": _cmd_estimate,
        "ri": _cmd_ri,
        "diagnose": _cmd_diagnose,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args, argv)
    except (ValidationError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EstimationError, NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ShiftShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
