"""Check that two checkouts write byte-identical reports from the same inputs.

Usage (from any directory):

    python3 tools/same_reports.py PARENT CHANGE --seeds 1 2 3

PARENT and CHANGE are checkouts of the repository (a ``git clone`` or ``git archive`` of
each commit). For every seed and every workload of PARENT's ``perfbench/workloads.py``,
the inputs are built once, by that file's ``build_inputs`` on PARENT's ``src/``. Each
command then runs in a fresh interpreter against each checkout's own ``src/``, once on
PARENT and twice on CHANGE: first from an empty input cache, then from the cache that
the first run filled. Each side has an input cache of its own (``XDG_CACHE_HOME`` in the
tool's temporary directory), emptied before each command:

- every workload command;
- on the ``cli-paper`` inputs, the report paths that no workload takes: ``construct
  --decompose --loo`` with ``--initial-shares`` and ``--unit-shifts``, on the CSV inputs
  and on the JSON ones, so that every long-format reader runs in both formats; the same
  on the CSV inputs with ``--complete-shares --replace-threshold --replace-shares``, so
  that the leave-one-out shifts read completed shares with zeroed columns, whose
  complement column no unit shift names; ``ri
  --beta0``; ``ri`` without ``--groups``, which groups the shifts by the table's own
  ``exchange_group`` column; ``estimate --report csv``, ``estimate --report text``,
  ``estimate --se residualized``, ``construct --replace-threshold --replace-shares`` and
  ``diagnose --tables``; ``estimate --framework share`` on a units file without ``x`` (the OLS
  fit); ``diagnose --autocorr`` on shifts with ids ``<base>@<period>`` and a
  ``period`` column, with the shares renamed to match; and ``estimate --framework shift``
  on shifts with one more shift that no unit holds, which the estimator drops;
- ``simulate`` on each branch of the data-generating process that the workload's
  sparse-block run does not take, every estimator, over forked workers: ``dirichlet``
  shares with first-stage coefficients ``pi`` and first-stage noise; ``network-inverse-degree`` shares with ``bernoulli`` shifts;
  ``exchangeable-groups`` shifts; ``sparse-block`` shares at
  ``dirichlet_concentration = 0.01``, whose draws hold exact zero shares, with ``pi``; and
  ``sparse-block`` shares of more blocks than a draw fills, so that nearly every draw drops
  shifts of zero aggregate weight and clusters the kept ones.

Commands run without ``--quiet``, so what they print is compared too. For each command
the exit code, standard output, standard error and every output file but
``manifest.json`` (which holds a timestamp) of both CHANGE runs must be PARENT's bytes.
A warning is compared by its category and message; where it was raised is code, not
report. The tool stops at the first difference, names it and exits 1; it exits 0 when
every output is the same.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# single-threaded BLAS, as in the benchmark, so that both sides sum in one order
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the console script's entry point, with each warning printed as "Category: message"
LAUNCH = """
import sys, warnings
warnings.formatwarning = lambda message, category, *_, **__: f"{category.__name__}: {message}\\n"
from shiftshare.cli import main
sys.exit(main())
"""


# the ``simulate`` configurations of ``extra_commands``
SIMULATE_DGPS = {
    "dirichlet-pi": {"n": 200, "m": 200, "pi_sd": 0.3, "first_stage_noise_sd": 0.5,
                     "first_stage_endog": 0.3},
    "network-bernoulli": {"n": 30, "m": 30, "share_model": "network-inverse-degree",
                          "shift_model": "bernoulli", "seeding_prob": 0.2},
    "exchangeable-groups": {"n": 60, "m": 24, "shift_model": "exchangeable-groups",
                            "n_exchange_groups": 4, "group_mean_spread": 0.5},
    "sparse-block-zeros": {"n": 60, "m": 30, "share_model": "sparse-block", "n_blocks": 5,
                           "dirichlet_concentration": 0.01, "shift_model": "clustered",
                           "n_shift_clusters": 5, "error_model": "share-correlated",
                           "pi_mean": 0.8, "pi_sd": 0.2},
    "sparse-block-drops": {"n": 12, "m": 40, "share_model": "sparse-block", "n_blocks": 10,
                           "shift_model": "clustered", "n_shift_clusters": 4,
                           "error_model": "share-correlated"},
}


def extra_commands(directory: Path, io: dict[str, list[str]],
                   seed: int) -> list[tuple[str, list[str]]]:
    """The report paths that no workload takes, on the inputs that the flags ``io[fmt]``
    name, CSV unless stated. Inputs that a path needs beside those are derived from the
    CSV files and written under ``directory``, so that both sides read the same bytes:
    ``construct --decompose --loo`` reads initial shares and unit-by-shift values in each
    format (and, on the CSV ones, completes the shares and zeroes the columns of replaced
    shifts), the OLS fit a units file without ``x``, ``diagnose --autocorr`` shifts in
    series of 4 periods each, the shift framework's drop a shift table with a shift that no
    share names, and each ``simulate`` its DGP configuration file."""
    files = dict(zip(io["csv"][::2], io["csv"][1::2]))
    rows = [row.split(",") for row in Path(files["--shares"]).read_text().splitlines()[1:]]
    tables = {
        "initial_shares": ("weight", [(u, s, repr(float(w) * (0.5 + k % 2 / 2)))
                                      for k, (u, s, w) in enumerate(rows)]),
        "unit_shifts": ("value", [(u, s, repr((k % 7 - 3) / 4))
                                  for k, (u, s, _) in enumerate(rows)]),
    }
    decompose = []
    for fmt in ("csv", "json"):
        paths = {name: directory / f"{name}.{fmt}" for name in tables}
        for name, (column, cells) in tables.items():
            if fmt == "csv":
                text = f"unit_id,shift_id,{column}\n" + "".join(f"{u},{s},{v}\n"
                                                               for u, s, v in cells)
            else:
                text = json.dumps([{"unit_id": u, "shift_id": s, column: v}
                                   for u, s, v in cells], indent=1)
            paths[name].write_text(text)
        label = "construct --decompose --loo" + (" (json)" if fmt == "json" else "")
        decompose.append((label, ["construct", *io[fmt], "--decompose", "--loo",
                                  "--initial-shares", str(paths["initial_shares"]),
                                  "--unit-shifts", str(paths["unit_shifts"])]))
    label, args = decompose[0]
    decompose.append((f"{label} --complete-shares --replace-threshold --replace-shares",
                      [*args, "--complete-shares", "--replace-threshold", "0.00078",
                       "--replace-shares"]))
    csv = io["csv"]
    units, shifts = (_table(Path(files[flag])) for flag in ("--units", "--shifts"))
    keep = [k for k, name in enumerate(units[0]) if name != "x"]
    _write_table(directory / "units_without_x.csv", [[row[k] for k in keep] for row in units])
    # shift k becomes period t<k % 4> of series b<k // 4>
    renamed = {row[0]: f"b{k // 4}@t{k % 4}" for k, row in enumerate(shifts[1:])}
    _write_table(directory / "panel_shifts.csv", [
        [*shifts[0], "period"],
        *([renamed[row[0]], *row[1:], f"t{k % 4}"] for k, row in enumerate(shifts[1:]))])
    _write_table(directory / "panel_shares.csv", [["unit_id", "shift_id", "weight"],
                                                  *([u, renamed[s], w] for u, s, w in rows)])
    # the first shift's labels and covariates again, under an id that no share names
    _write_table(directory / "unheld_shifts.csv", [*shifts, ["unheld", *shifts[1][1:]]])
    unheld = ["--shares", files["--shares"], "--shifts", str(directory / "unheld_shifts.csv"),
              "--units", files["--units"]]
    ols = ["--shares", files["--shares"], "--shifts", files["--shifts"],
           "--units", str(directory / "units_without_x.csv")]
    panel = ["--shares", str(directory / "panel_shares.csv"),
             "--shifts", str(directory / "panel_shifts.csv"), "--units", files["--units"]]
    simulate = []
    for name, dgp in SIMULATE_DGPS.items():
        config = directory / f"{name}.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in dgp.items()))
        simulate.append((f"simulate ({name})", [
            "simulate", "--config", str(config), "--reps", "120", "--seed", str(seed),
            "--estimators", "conventional-hc,conventional-cluster,exposure-robust,"
                            "exposure-cluster"]))
    return [
        *decompose,
        ("ri --beta0", ["ri", *csv, "--beta0", "1.0", "--draws", "500", "--groups",
                        "exchange_group", "--seed", str(seed)]),
        ("ri (no --groups)", ["ri", *csv, "--draws", "500", "--seed", str(seed)]),
        ("estimate --report csv", ["estimate", *csv, "--framework", "shift", "--residualize",
                                   "p_1", "--cluster-shift", "cluster", "--report", "csv"]),
        ("estimate --report text", ["estimate", *csv, "--rotemberg", "--report", "text"]),
        ("diagnose --tables", ["diagnose", *csv, "--concentration", "--cluster", "cluster",
                               "--balance", "placebo", "--icc", "cluster", "--residualize",
                               "p_1", "--tables"]),
        ("estimate --se residualized", ["estimate", *csv, "--framework", "shift", "--se",
                                        "residualized", "--residualize", "p_1",
                                        "--cluster-shift", "cluster"]),
        ("construct --replace-threshold --replace-shares",
         ["construct", *csv, "--replace-threshold", "0.00078", "--replace-shares"]),
        ("estimate --framework share (OLS)", ["estimate", *ols, "--framework", "share",
                                              "--rotemberg", "--cluster-unit", "region"]),
        ("diagnose --autocorr", ["diagnose", *panel, "--autocorr", "1,2", "--residualize",
                                 "p_1", "--tables"]),
        ("estimate --framework shift (a shift no unit holds)",
         ["estimate", *unheld, "--framework", "shift", "--residualize", "p_1",
          "--cluster-shift", "cluster", "--rotemberg"]),
        *simulate,
    ]


def _table(path: Path) -> list[list[str]]:
    """The header and rows of a CSV file that the package wrote, none of its cells quoted."""
    return [line.split(",") for line in path.read_text().splitlines()]


def _write_table(path: Path, rows) -> None:
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def run(checkout: Path, args: list[str], out: Path, cache: Path) -> dict[str, bytes]:
    """One command against ``checkout``'s ``src/`` with the input cache ``cache``: its exit
    code, standard output and error, and the bytes of each file it wrote but the manifest."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(checkout / "src"),
           "XDG_CACHE_HOME": str(cache)}
    done = subprocess.run([sys.executable, "-c", LAUNCH, *args, "--out", str(out)],
                          env=env, capture_output=True)
    found = {"exit code": str(done.returncode).encode(), "stdout": done.stdout,
             "stderr": done.stderr}
    if out.is_dir():
        found.update((p.name, p.read_bytes()) for p in sorted(out.iterdir())
                     if p.name != "manifest.json")
    return found


def first_difference(parent: dict[str, bytes], change: dict[str, bytes]) -> str | None:
    for name in [*parent, *(n for n in change if n not in parent)]:
        if parent.get(name) != change.get(name):
            return name
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    opts = parser.parse_args()
    parent, change = opts.parent.resolve(), opts.change.resolve()
    # the inputs are built by the parent's benchmark code on the parent's package
    sys.path[:0] = [str(parent / "src"), str(parent / "perfbench")]
    from workloads import WORKLOADS, build_inputs, expand, input_flags

    compared = 0
    with tempfile.TemporaryDirectory(prefix="same_reports-") as tmp:
        work = Path(tmp)
        caches = [work / "cache" / "parent", work / "cache" / "change"]
        for seed in opts.seeds:
            for workload in WORKLOADS.values():
                directory = work / workload.name / "inputs"
                build_inputs(workload, seed, directory)
                commands = [(" ".join(c.args), expand(c, directory, seed))
                            for c in workload.commands]
                if workload.name == "cli-paper":
                    commands += extra_commands(directory, {fmt: input_flags(directory, fmt)
                                                           for fmt in ("csv", "json")}, seed)
                for index, (label, args) in enumerate(commands):
                    for cache in caches:
                        shutil.rmtree(cache, ignore_errors=True)
                    out = work / workload.name / str(index)
                    expected = run(parent, args, out / "parent", caches[0])
                    for state in ("empty", "filled"):
                        found = run(change, args, out / state, caches[1])
                        differs = first_difference(expected, found)
                        if differs is not None:
                            print(f"seed {seed} {workload.name} command {index} ({label}, "
                                  f"{state} cache): {differs} differs")
                            return 1
                    compared += 1
                    print(f"# seed {seed} {workload.name} {index}: same ({label}; exit "
                          f"{expected['exit code'].decode()})", flush=True)
                shutil.rmtree(work / workload.name)
    print(f"{compared} commands at seeds {opts.seeds}: every output is the same")
    return 0


if __name__ == "__main__":
    sys.exit(main())
