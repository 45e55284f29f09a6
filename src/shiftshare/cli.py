"""Command-line entry point.

Subcommands mirror the library modules: ``construct``, ``estimate``,
``ri``, ``diagnose``, ``simulate``. Every run writes its artifacts plus a
``manifest.json`` recording the command line, input digests, seed, and
package version, so any output can be reproduced from the manifest and the
input files. Reports are canonical JSON; CSV mirrors flatten nested fields
and are lossy. Exit codes: 0 success, 1 validation error, 2 numerical
failure, 64 usage error.

Each long-format file (``--shares``, ``--initial-shares``, ``--unit-shifts``) is
parsed once: its triplets are kept in ``$XDG_CACHE_HOME/shiftshare`` (default
``~/.cache/shiftshare``) under a key of the file's digest and the ids it is read
against, so that a later run on the same files loads them instead of parsing. A cache
directory that another user owns or may read or write is not used.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .data import (
    ShareMatrix,
    Triplets,
    _finite_unit_shifts,
    _naming,
    _read_long_matrix,
    _share_columns,
    _triplet_order,
    _undecodable,
    _write_columns,
    load_shifts,
    load_units,
)
from .errors import (
    EstimationError,
    NumericalError,
    SchemaError,
    ShiftShareError,
    ValidationError,
)

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


# the layout of a cache entry and what it holds; a change to either, or to what the
# parsers return, takes a new number, so that no older entry is read
CACHE_FORMAT = 2
# total bytes of the cache's entries, past which the least recently used are removed
CACHE_BYTES = 1 << 30


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/shiftshare``, or ``~/.cache/shiftshare`` where that is unset or
    not absolute; None where there is no home directory."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):
            return None
    return Path(base) / "shiftshare"


def _private(directory: Path) -> bool:
    """Whether ``directory`` is this user's and no one else may read or write it. Entry
    names follow from the inputs, so the cache is used only where no one else can plant
    one."""
    try:
        stat = os.stat(directory)
    except OSError:
        return False
    return (hasattr(os, "getuid") and stat.st_uid == os.getuid()
            and not stat.st_mode & 0o077)


def _digest_of(triplets: Triplets) -> bytes:
    """The SHA-256 of the bytes of the three arrays, which an entry holds ahead of them."""
    digest = hashlib.sha256()
    for array in triplets:
        digest.update(np.ascontiguousarray(array))
    return digest.digest()


def _cache_load(entry: Path) -> Triplets | None:
    """The triplets an entry holds, with the dtypes and shapes that ``_read_long_matrix``
    returns and the digest they were written with, or None, removing an entry that does not
    hold them; ``_Reader.triplets`` checks their range and order."""
    try:
        with open(entry, "rb") as fh:
            digest = fh.read(32)
            rows, cols, values = (np.load(fh, allow_pickle=False) for _ in range(3))
            whole = not fh.read(1)
    except FileNotFoundError:
        return None
    except Exception:  # a damaged header may claim any dtype or shape, even a huge one
        whole = False
    if whole and rows.dtype == cols.dtype == np.intp and values.dtype == np.float64 and (
            rows.ndim == 1 and rows.shape == cols.shape == values.shape) and (
            _digest_of((rows, cols, values)) == digest):
        with contextlib.suppress(OSError):
            os.utime(entry)  # the cap removes the least recently used entries first
        return rows, cols, values
    _cache_remove(entry)
    return None


def _cache_remove(entry: Path) -> None:
    with contextlib.suppress(OSError):
        entry.unlink(missing_ok=True)


def _cache_store(entry: Path, triplets: Triplets) -> None:
    """Write the digest of ``triplets`` and then the triplets to ``entry`` in one move, then
    remove the oldest entries past ``CACHE_BYTES``; a run whose entry cannot be written,
    or whose cache directory is not private, stays uncached."""
    try:
        os.makedirs(entry.parent, mode=0o700, exist_ok=True)
        if not _private(entry.parent):  # made by another user, or opened up
            return
        temp = entry.with_name(f".{entry.name}.{os.getpid()}")  # no other run writes it
        try:
            with open(temp, "wb") as fh:
                fh.write(_digest_of(triplets))
                for array in triplets:
                    np.save(fh, array, allow_pickle=False)
            os.replace(temp, entry)
        except BaseException:
            _cache_remove(temp)
            raise
        entries = []  # the temporary file a killed run left counts too, and so goes in time
        for path in entry.parent.iterdir():
            with contextlib.suppress(OSError):  # another run may have removed it
                stat = path.stat()
                entries.append((stat.st_mtime_ns, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        for _, size, path in sorted(entries):
            if total <= CACHE_BYTES:
                break
            _cache_remove(path)
            total -= size
    except OSError:
        pass


class _Reader:
    """How one run reads its files: each file's SHA-256 is taken once, for the manifest and
    the cache key, and each long-format file is read through the triplet cache."""

    def __init__(self):
        self.digests: dict[Path, str] = {}

    def digest(self, path: Path) -> str:
        if path not in self.digests:
            self.digests[path] = _sha256(path)
        return self.digests[path]

    def triplets(self, path: Path, column: str, unit_ids, shift_ids, fmt: str, accept):
        """``accept(_read_long_matrix(path, column, unit_ids, shift_ids, fmt))``, ``accept``
        being the check the triplets' consumer runs, from an entry that ``_triplet_order``
        finds in range and in order and that ``accept`` takes; another is removed and the
        file parsed, and what ``accept`` refuses then names the file. Only triplets that
        ``accept`` takes, of an unchanged file, are cached."""
        digest = self.digest(path)
        directory = _cache_dir()
        entry = None
        if directory is not None:
            key = json.dumps([CACHE_FORMAT, __version__, fmt, column, digest,
                              list(unit_ids), list(shift_ids)])
            entry = directory / f"{hashlib.sha256(key.encode()).hexdigest()}.triplets"
            cached = _cache_load(entry) if _private(directory) else None
            if cached is not None:
                with contextlib.suppress(ValidationError):
                    if _triplet_order(*cached, unit_ids, shift_ids, column)[1] is None:
                        return accept(cached)
                _cache_remove(entry)
        triplets = _read_long_matrix(path, column, unit_ids, shift_ids, fmt)
        with _naming(path):
            out = accept(triplets)
        if entry is not None and _sha256(path) == digest:
            _cache_store(entry, triplets)
        return out

    def shares(self, path: Path, unit_ids, shift_ids, fmt: str):
        """``load_shares`` through the cache."""
        return self.triplets(path, "weight", unit_ids, shift_ids, fmt, lambda triplets:
                             ShareMatrix._of_sorted(*triplets, unit_ids, shift_ids))


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


def _terms(text: str) -> tuple[str, ...]:
    """Terms of a comma-separated ``--residualize`` value, none of them empty."""
    terms = tuple(text.split(","))
    if "" in terms:
        raise ValidationError(f"--residualize has an empty term: {text!r}")
    return terms


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
    p.add_argument("--level", type=float, default=None, help="interval level (default 0.95)")
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
    p.add_argument("--seed", type=int, default=None, help="ICC bootstrap seed (default 0)")
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
# content)}``, which the runner writes into ``--out``; each imports the modules it runs,
# so that a command loads no other


def _cmd_construct(args, shares, shifts, dataset) -> dict:
    from .construct import (_leave_one_out, build_exposure, complete_shares, decompose,
                            replace_shifts, residualize_shifts, shift_weights_from)

    reports = {}
    w_j = shift_weights_from(dataset, shares)
    if args.decompose:
        initial = args.reader.shares(args.initial_shares, dataset.unit_ids,
                                     shifts.shift_ids, args.format)
    # read once for both uses, its triplets checked by the read; the complement column
    # that --complete-shares appends is not in the file, so its unit-by-shift values are zero
    if args.decompose or args.loo:
        unit_shifts = args.reader.triplets(args.unit_shifts, "value", dataset.unit_ids,
                                           shifts.shift_ids, args.format, _finite_unit_shifts)

    if args.decompose:
        result = decompose(initial, shares, unit_shifts)
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
        res = residualize_shifts(shifts, args.residualize, w_j)
        reports["shift_residuals.csv"] = _write_csv, {
            "shift_id": shifts.shift_ids, "eta_hat": res.eta_hat, "fitted": res.fitted,
            "weight": w_j,
        }
        if not args.quiet:
            print(f"residualized on {args.residualize}; sse_ratio = {res.sse_ratio:.4f}")

    if args.loo:
        rows, cols, values = unit_shifts  # checked and sorted by the read
        loo = _leave_one_out(rows * shares.n_shifts + cols, values, shares)
        reports["loo_instrument.csv"] = _write_csv, {"unit_id": dataset.unit_ids,
                                                     "z_loo": loo.z}

    reports["exposure.csv"] = _write_csv, {"unit_id": dataset.unit_ids,
                                           "exposure": build_exposure(shares, shifts)}
    return reports


def _estimate_share_framework(args, shares, shifts, dataset):
    from .construct import build_exposure
    from .estimate import rotemberg, shiftshare_2sls, shiftshare_ols

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
        from .estimate import estimate_shift_framework

        payload = estimate_shift_framework(
            shares, shifts, dataset,
            residualize=args.residualize or (),
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
    from .rinfer import ri_estimate, ri_test

    if args.beta0 is not None:
        payload = dataclasses.asdict(ri_test(dataset, shares, shifts, beta0=args.beta0,
                                             draws=args.draws, seed=args.seed,
                                             groups=args.groups))
        del payload["stat_distribution"]
    else:
        payload = ri_estimate(dataset, shares, shifts, draws=args.draws,
                              level=0.95 if args.level is None else args.level,
                              seed=args.seed, groups=args.groups).to_dict()
    return {"ri.json": (_write_json, {"schema_version": SCHEMA_VERSION, **payload})}


def _cmd_diagnose(args, shares, shifts, dataset) -> dict:
    from .construct import residualize_shifts, shift_weights_from
    from .diagnose import balance_test_unit, concentration, icc, shift_summary

    w_j = shift_weights_from(dataset, shares)
    payload: dict = {"schema_version": SCHEMA_VERSION}

    res = None
    if args.residualize is not None:
        res = residualize_shifts(shifts, args.residualize, w_j)
    eta = shifts.values if res is None else res.eta_hat

    if args.concentration:
        labels = None if args.cluster is None else shifts.label_column(args.cluster)
        payload["concentration"] = dataclasses.asdict(concentration(w_j, clusters=labels))

    if args.autocorr is not None:
        try:
            lags = tuple(int(v) for v in args.autocorr.split(","))
        except ValueError:
            raise ValidationError(f"--autocorr lags must be integers, got {args.autocorr!r}") from None
        if shifts.period is None:
            raise ValidationError("--autocorr needs a period column in the shifts file")
        summary = shift_summary(shifts, w_j, residuals=res, lags=lags)
        payload["shift_summary"] = summary.to_dict()

    if args.icc is not None:
        r = icc(eta, shifts.label_column(args.icc), seed=args.seed or 0)
        payload.setdefault("icc", {})[args.icc] = {
            "icc": r.icc, "se": r.se, "n_groups": r.n_groups, "n_obs": r.n_obs,
        }

    if args.balance is not None:
        variable = shares.exposure(eta)
        cluster_labels = None if args.cluster is None else shifts.label_column(args.cluster)
        balance = {}
        for col in args.balance.split(","):
            try:
                placebo = np.array([float(v) for v in dataset.extra_column(col)])
            except ValueError:
                raise ValidationError(
                    f"balance column {col!r} contains non-numeric values"
                ) from None
            if not np.all(np.isfinite(placebo)):
                raise ValidationError(f"balance column {col!r} contains non-finite values")
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


def _parse_dgp_config(path: Path, seed: int):
    """The ``DgpConfig`` of a plain ``key = value`` file, at ``seed``."""
    from .simulate import DgpConfig

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
    from .simulate import CoverageResult, run_coverage

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


def _check_flags(args) -> None:
    """Refuse, before any input is read, a flag that the path ignores or that needs another,
    and split ``--residualize`` into its terms."""
    a, rules = args, ()
    if a.command == "construct":
        rules = ((a.decompose and None in (a.initial_shares, a.unit_shifts),
                  "--decompose needs --initial-shares and --unit-shifts"),
                 (a.loo and a.unit_shifts is None, "--loo needs --unit-shifts"),
                 (a.replace_shares and a.replace_threshold is None,
                  "--replace-shares needs --replace-threshold"),
                 (a.initial_shares is not None and not a.decompose,
                  "--initial-shares needs --decompose"),
                 (a.unit_shifts is not None and not (a.loo or a.decompose),
                  "--unit-shifts needs --loo or --decompose"))
    elif a.command == "estimate" and a.framework == "share":
        rules = ((a.residualize is not None, "--residualize needs --framework shift"),
                 (a.cluster_shift is not None, "--cluster-shift needs --framework shift"),
                 (a.se in ("exposure", "residualized"), f"--se {a.se} needs --framework shift"))
    elif a.command == "estimate" and a.se == "conventional":
        rules = ((a.cluster_shift is not None,
                  "--cluster-shift needs --se all, exposure or residualized"),)
    elif a.command == "ri":
        rules = ((a.beta0 is not None and a.level is not None,
                  "--level needs an interval, which --beta0 does not compute"),)
    elif a.command == "diagnose":
        rules = ((a.cluster is not None and not a.concentration and a.balance is None,
                  "--cluster needs --concentration or --balance"),
                 (a.residualize is not None and a.icc is a.balance is a.autocorr is None,
                  "--residualize needs --icc, --balance or --autocorr"),
                 (a.seed is not None and a.icc is None, "--seed needs --icc"))
    for broken, message in rules:
        if broken:
            raise ValidationError(message)
    if getattr(a, "residualize", None) is not None:
        a.residualize = _terms(a.residualize)


def _read_inputs(args) -> tuple:
    """What the command reads, checked before ``--out`` is created: the three input files,
    the shifts and units first and then the shares against their ids, or for ``simulate``
    the DGP config and the estimator names as given; ``run_coverage`` checks the names."""
    if args.command != "simulate":
        shifts = load_shifts(args.shifts, args.format)
        dataset = load_units(args.units, args.format)
        shares = args.reader.shares(args.shares, dataset.unit_ids, shifts.shift_ids,
                                    args.format)
        return shares, shifts, dataset
    config = _parse_dgp_config(args.config, args.seed)
    return config, [e for e in args.estimators.split(",") if e]


def dispatch(argv) -> int:
    """Run the command that ``argv`` names: read its inputs, run it, then create ``--out``
    and write its reports and the manifest there, unless one would be written over an
    input. A failure ends in its exit code and one line on standard error."""
    args = build_parser().parse_args(argv)
    args.reader = _Reader()  # one per run: each input's digest, and the cache
    try:
        _check_flags(args)
        inputs = _read_inputs(args)
        if args.out.exists() and not args.out.is_dir():  # found before the command runs
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(args.out))
        digests = {str(path): args.reader.digest(path) for path in _input_paths(args)}
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
