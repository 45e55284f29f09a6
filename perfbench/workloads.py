"""Seeded workload definitions: inputs, command sequences and the notes on why.

Every input is built through the package's public API (``generate``,
``ShareMatrix``/``ShiftTable``/``Dataset``, ``save_inputs``) from the seed the
benchmark is given; the program under test only ever sees the files written
here. Generation is never part of a timed metric.

Known defects stay in the workloads on purpose and count as failed
operations (the benchmark must not reshape inputs to avoid them):

* ``estimate --framework shift --residualize cluster`` exits 2 on
  ``cli-paper``: ``complete_shares`` gives the complement its own
  ``__complement__`` cluster label, so the cluster fixed effect absorbs the
  ``p_real`` indicator the CLI always prepends to the spec
  ("collinear terms: p_real (absorbed by fixed effects)").
* ``estimate --framework shift`` exits 2 on ``inference``: the shares from
  ``generate`` are complete, so the ``sum_of_shares`` control the CLI always
  adds is constant and collinear with the intercept
  ("rank-deficient design; collinear terms: pi_1").
* ``construct`` writes its CSV outputs with ``repr`` of NumPy scalars, which
  under NumPy 2 reads ``np.float64(0.78...)`` instead of a number; the
  output checks count such a report as malformed (a failed operation) on
  ``cli-paper`` and ``sparse-large``.

Each command carries a ``kind`` (construct, estimate_share, estimate_shift,
ri, diagnose, simulate); per-command timings are grouped by kind.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shiftshare import (
    Dataset,
    DgpConfig,
    ShareMatrix,
    ShiftTable,
    generate,
    save_inputs,
)


@dataclass(frozen=True)
class Command:
    kind: str
    args: tuple[str, ...]  # "{csv}" / "{json}" expand to the input-file flags


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    build: object  # (seed, directory) -> (generation facts, (shares, shifts, dataset))


# Monte Carlo configuration of the ``inference`` workload's ``simulate``
# command; the benchmark seed is passed on the command line.
SIMULATE_DGP = {
    "n": 200,
    "m": 500,
    "share_model": "sparse-block",
    "shift_model": "clustered",
    "error_model": "share-correlated",
}
SIMULATE_ESTIMATORS = "conventional-hc,conventional-cluster,exposure-robust,exposure-cluster"


def _incomplete_units(sim, rng, n_regions=40):
    """Scale every share row to sum to U(0.3, 0.95), as manufacturing shares
    do, and rebuild a unit table with a ``pi_1`` control, ``w_e`` weights and
    ``region``/``placebo`` columns around the rescaled exposure."""
    n, m = sim.shares.n_units, sim.shares.n_shifts
    w = sim.shares.weights * rng.uniform(0.3, 0.95, size=n)[:, None]
    d = sim.shifts.values
    pi_1 = rng.standard_normal(n)
    x = w @ d + 0.05 * rng.standard_normal(n)
    y = x + 0.5 * pi_1 + sim.truth.errors
    shares = ShareMatrix(w, sim.shares.row_ids, sim.shares.col_ids)
    shifts = ShiftTable(
        d,
        sim.shifts.shift_ids,
        cluster=sim.shifts.cluster,
        exchange_group=np.array([f"g{k % 10}" for k in rng.permutation(m)], dtype=object),
        covariates=rng.standard_normal(m)[:, None],
        covariate_names=("p_1",),
    )
    dataset = Dataset(
        outcome=y,
        unit_ids=sim.dataset.unit_ids,
        regressor=x,
        controls=pi_1[:, None],
        control_names=("pi_1",),
        unit_weights=rng.uniform(0.5, 1.5, size=n),
        extras={
            "region": [f"r{r}" for r in rng.integers(0, n_regions, size=n)],
            "placebo": [repr(float(v)) for v in rng.standard_normal(n)],
        },
    )
    return shares, shifts, dataset


def _save(directory: Path, shares, shifts, dataset, formats):
    facts = {"share_rows": int(np.count_nonzero(shares.weights)),
             "n": shares.n_units, "m": shares.n_shifts}
    for fmt in formats:
        start = time.perf_counter()
        save_inputs(directory / fmt, shares, shifts, dataset, fmt=fmt)
        facts[f"save_{fmt}_s"] = time.perf_counter() - start
    return facts, (shares, shifts, dataset)


def _sparse_incomplete(n, m, blocks, clusters, formats):
    def build(seed: int, directory: Path):
        sim = generate(DgpConfig(n=n, m=m, seed=seed, share_model="sparse-block",
                                 n_blocks=blocks, shift_model="clustered",
                                 n_shift_clusters=clusters))
        rng = np.random.default_rng([seed, n, m])
        return _save(directory, *_incomplete_units(sim, rng), formats)
    return build


def _build_inference(seed: int, directory: Path):
    sim = generate(DgpConfig(n=500, m=2000, seed=seed, share_model="sparse-block",
                             n_blocks=10, shift_model="exchangeable-groups",
                             n_exchange_groups=10))
    (directory / "dgp.cfg").write_text(
        "".join(f"{key} = {value}\n" for key, value in SIMULATE_DGP.items())
    )
    return _save(directory, sim.shares, sim.shifts, sim.dataset, ("csv",))


SHARE_ESTIMATE = ("estimate", "--framework", "share", "--rotemberg", "--cluster-unit", "region")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cli-paper",
            # Paper-like size (n=1444 x m=794, ~287k nonzero shares in 4
            # blocks). Each command takes ~2.5 s: ~1.2 s interpreter start-up
            # and import (0.6 s of it scipy.stats), ~1.2 s CSV parsing, and
            # milliseconds of estimation. Import and parser changes show here;
            # estimator and RI changes should not.
            commands=(
                Command("construct", ("construct", "{csv}", "--complete-shares",
                                      "--residualize", "cluster")),
                Command("estimate_share", (*SHARE_ESTIMATE, "{csv}")),
                Command("estimate_share", (*SHARE_ESTIMATE, "{json}")),
                Command("estimate_shift", ("estimate", "{csv}", "--framework", "shift",
                                           "--residualize", "p_1", "--cluster-shift",
                                           "cluster", "--rotemberg")),
                # known defect: exits 2 (cluster FE absorbs p_real)
                Command("estimate_shift", ("estimate", "{csv}", "--framework", "shift",
                                           "--residualize", "cluster", "--cluster-shift",
                                           "cluster")),
                Command("ri", ("ri", "{csv}", "--draws", "2000", "--groups",
                               "exchange_group", "--seed", "{seed}")),
                Command("diagnose", ("diagnose", "{csv}", "--concentration", "--cluster",
                                     "cluster", "--balance", "placebo", "--icc", "cluster",
                                     "--residualize", "cluster")),
            ),
            build=_sparse_incomplete(1444, 794, blocks=4, clusters=20,
                                     formats=("csv", "json")),
        ),
        Workload(
            name="sparse-large",
            # n=8000 x m=800, 5% dense in 20 blocks: 320k nonzeros, 6.4M dense
            # cells (ROADMAP size B is n=20000 x m=2000; it takes ~40 s per
            # pass plus ~25 s to generate, more than a run's budget).
            # Ingestion, dense n x m copies and serialization (construct walks
            # every dense cell with np.ndenumerate) dominate; the read path
            # sits beside the write path.
            commands=(
                Command("estimate_shift", ("estimate", "{csv}", "--framework", "shift",
                                           "--residualize", "p_1", "--rotemberg")),
                Command("construct", ("construct", "{csv}", "--complete-shares",
                                      "--residualize", "cluster")),
            ),
            build=_sparse_incomplete(8000, 800, blocks=20, clusters=50, formats=("csv",)),
        ),
        Workload(
            name="inference",
            # Compute-bound: RI permutation draws (draws x m index arrays,
            # ~0.5 GB), repeated QR partialling in the Monte Carlo, and
            # generate(). CSV parsing is small, so a parser change should show
            # no change.
            commands=(
                Command("ri", ("ri", "{csv}", "--draws", "10000", "--groups",
                               "exchange_group", "--seed", "{seed}")),
                # known defect: exits 2 (complete shares make sum_of_shares constant)
                Command("estimate_shift", ("estimate", "{csv}", "--framework", "shift")),
                Command("simulate", ("simulate", "--config", "{dgp}", "--reps", "500",
                                     "--seed", "{seed}", "--estimators",
                                     SIMULATE_ESTIMATORS)),
            ),
            build=_build_inference,
        ),
    )
}


def input_flags(directory: Path, fmt: str) -> list[str]:
    base = directory / fmt
    return ["--shares", str(base / f"shares.{fmt}"), "--shifts", str(base / f"shifts.{fmt}"),
            "--units", str(base / f"units.{fmt}"), "--format", fmt]


def expand(command: Command, directory: Path, seed: int) -> list[str]:
    """Concrete CLI arguments of ``command`` for inputs under ``directory``."""
    out: list[str] = []
    for arg in command.args:
        if arg in ("{csv}", "{json}"):
            out += input_flags(directory, arg[1:-1])
        elif arg == "{dgp}":
            out.append(str(directory / "dgp.cfg"))
        else:
            out.append(arg.replace("{seed}", str(seed)))
    return out


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_inputs(workload: Workload, seed: int, directory: Path):
    """Write the workload's inputs for ``seed`` and a ``record.json`` holding
    the seed, generation facts and the SHA-256 of every input file.

    Returns the record and the in-memory ``(shares, shifts, dataset)`` the
    files were written from, which the output checks use as the reference.
    """
    directory.mkdir(parents=True, exist_ok=True)
    facts, inputs = workload.build(seed, directory)
    record = {
        "workload": workload.name,
        "seed": seed,
        **facts,
        "sha256": {
            str(p.relative_to(directory)): _sha256(p)
            for p in sorted(directory.rglob("*")) if p.is_file()
        },
    }
    with open(directory / "record.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record, inputs
