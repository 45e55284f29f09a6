"""Synthetic data-generating processes and Monte Carlo coverage experiments.

The central scenario interacts complete exposure shares with exogenous
shifts and lets the error term load on the same shares through a latent
per-shift shock, so units with similar share profiles have correlated
errors. That is the regime where unit-level conventional standard errors
undercover while shift-level exposure-robust ones stay calibrated. A
network-seeding variant builds shares as inverse neighbor counts on a ring
graph with binary seeding shifts.

Randomness is organized as counter-based streams keyed by
``(seed, replication, role)``; adding estimators or reordering roles never
perturbs the draws, and every estimator inside a replication sees the same
data. A coverage estimator is a fit of one design and the SE key it reads
from that fit's report, as a registry name or a custom ``(name, fit, se_key)``
triple. Each design is fitted once per replication: the two conventional
estimators share one unit-level solve, as the two exposure estimators share one
shift-level regression. The shift table and the dataset are built once per
configuration, through their constructors, and each replication swaps in its
draws, checked as the constructors check them; so are the cluster codes that
the fits read, which a draw re-encodes only for the shifts it keeps when it drops
shifts of zero aggregate weight. A ``sparse-block`` draw is written row by row and
stored as drawn, its values checked as every share matrix's are.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .construct import residualize_shifts, shift_weights_from
from .data import Dataset, ShareMatrix, ShiftTable, _label_codes
from .errors import EstimationError, NumericalError, ShiftShareWarning, ValidationError
from .estimate import EstimateReport, _conventional_se, _invert, _inverted_iv, _unit_iv

SHARE_MODELS = ("dirichlet", "sparse-block", "network-inverse-degree")
SHIFT_MODELS = ("iid-normal", "clustered", "exchangeable-groups", "bernoulli")
ERROR_MODELS = ("iid", "share-correlated")

CRITICAL_95 = 1.959963984540054  # two-sided 95% normal quantile of the coverage interval

_ROLE_SHARES = 0
_ROLE_SHIFTS = 1
_ROLE_FIRST_STAGE = 2
_ROLE_ERRORS = 3


@dataclass(frozen=True)
class DgpConfig:
    """Parameters of the synthetic shift-share data-generating process."""

    n: int
    m: int
    beta_true: float = 1.0
    seed: int = 0
    share_model: str = "dirichlet"
    dirichlet_concentration: float = 1.0
    n_blocks: int = 5
    network_neighbors: int = 1
    shift_model: str = "iid-normal"
    shift_mean: float = 0.0
    shift_sd: float = 1.0
    shift_rho: float = 0.0
    n_shift_clusters: int = 10
    n_exchange_groups: int = 1
    group_mean_spread: float = 0.0
    seeding_prob: float = 0.3
    error_model: str = "iid"
    error_sd: float = 1.0
    share_error_frac: float = 0.5
    pi_mean: float = 1.0
    pi_sd: float = 0.0
    first_stage_noise_sd: float = 0.0
    first_stage_endog: float = 0.0

    def __post_init__(self):
        for name, least in (("n", 2), ("m", 2), ("n_blocks", 1), ("n_shift_clusters", 1),
                            ("n_exchange_groups", 1), ("network_neighbors", 1)):
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)) or count < least:
                raise ValidationError(f"{name} must be an integer of at least {least}")
        if self.share_model not in SHARE_MODELS:
            raise ValidationError(f"unknown share model {self.share_model!r}")
        if self.shift_model not in SHIFT_MODELS:
            raise ValidationError(f"unknown shift model {self.shift_model!r}")
        if self.error_model not in ERROR_MODELS:
            raise ValidationError(f"unknown error model {self.error_model!r}")
        if not 0.0 <= self.shift_rho < 1.0:
            raise ValidationError("within-cluster correlation must be in [0, 1)")
        if not 0.0 <= self.share_error_frac <= 1.0:
            raise ValidationError("share_error_frac must be in [0, 1]")
        if not 0.0 < self.seeding_prob < 1.0:
            raise ValidationError("seeding probability must be in (0, 1)")
        if not -1.0 <= self.first_stage_endog <= 1.0:
            raise ValidationError("first-stage endogeneity must be a correlation in [-1, 1]")
        if self.share_model == "network-inverse-degree" and self.n != self.m:
            raise ValidationError("network shares need m == n (shifts are seeded nodes)")
        for name in ("shift_sd", "error_sd", "pi_sd", "first_stage_noise_sd"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")
        if not self.dirichlet_concentration > 0:  # zero would draw all-zero share rows
            raise ValidationError("dirichlet_concentration must be positive")


@dataclass(frozen=True)
class TruthRecord:
    """Latent quantities behind one simulated draw."""

    beta_true: float
    latent_error_shock: np.ndarray | None
    pi: np.ndarray | None
    first_stage_noise: np.ndarray
    errors: np.ndarray


@dataclass(frozen=True)
class SimulatedData:
    shares: ShareMatrix
    shifts: ShiftTable
    dataset: Dataset
    instrument: np.ndarray
    truth: TruthRecord
    # the design the draw was made from, with the cluster codes the coverage fits read
    _design: _Labels | None = field(default=None, repr=False, compare=False)


def _stream(seed: int, *path: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(seed, spawn_key=tuple(path)))
    )


class _Labels(NamedTuple):
    """The shift table and the dataset of a draw with their ids and labels, which depend
    only on the configuration's shape, so a Monte Carlo builds them once; each draw swaps
    in its values. So are the codes the coverage fits cluster at: those of the shift
    cluster labels (None without them), and each conventional SE's unit cluster codes."""

    shifts: ShiftTable
    dataset: Dataset
    shift_codes: np.ndarray | None
    unit_codes: dict[str, np.ndarray]


def _labels_of(shifts: ShiftTable, dataset: Dataset) -> _Labels:
    n = dataset.n_units
    return _Labels(shifts, dataset,
                   None if shifts.cluster is None else _label_codes(shifts.cluster)[1],
                   {"conventional_hc": np.arange(n),
                    "conventional_cluster": np.arange(n) % max(2, n // 10)})


def _labels(config: DgpConfig) -> _Labels:
    n, m = config.n, config.m
    cluster = exchange = None
    if config.shift_model == "clustered":
        codes = np.arange(m) % min(config.n_shift_clusters, m)
        cluster = np.array([f"c{c}" for c in codes], dtype=object)
    elif config.shift_model == "exchangeable-groups":
        codes = np.arange(m) % min(config.n_exchange_groups, m)
        exchange = np.array([f"g{c}" for c in codes], dtype=object)
    shifts = ShiftTable(np.zeros(m), [f"s{j}" for j in range(m)], cluster=cluster,
                        exchange_group=exchange)
    dataset = Dataset(outcome=np.zeros(n), unit_ids=[f"u{i}" for i in range(n)],
                      regressor=np.zeros(n))
    return _labels_of(shifts, dataset)


def _draw_shares(config: DgpConfig, rng: np.random.Generator, labels: _Labels) -> ShareMatrix:
    n, m = config.n, config.m
    unit_ids, shift_ids = labels.dataset.unit_ids, labels.shifts.shift_ids
    if config.share_model == "dirichlet":
        w = rng.dirichlet(np.full(m, config.dirichlet_concentration), size=n)
        return ShareMatrix(w, unit_ids, shift_ids)
    if config.share_model == "sparse-block":
        blocks = np.array_split(np.arange(m), min(config.n_blocks, m))
        assignment = rng.integers(0, len(blocks), size=n)
        # each unit's row is its block's columns, so the triplets are written row-sorted
        counts = np.array([cols.size for cols in blocks])[assignment]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        cols, values = np.empty(indptr[-1], dtype=np.intp), np.empty(indptr[-1])
        for b, block in enumerate(blocks):
            rows = np.flatnonzero(assignment == b)
            if rows.size:
                at = indptr[rows, None] + np.arange(block.size)
                cols[at] = block
                values[at] = rng.dirichlet(
                    np.full(block.size, config.dirichlet_concentration), size=rows.size
                )
        stored = values != 0.0  # a small concentration draws exact zeros, which go
        if not stored.all():
            indptr = np.concatenate(([0], np.cumsum(stored)))[indptr]
            cols, values = cols[stored], values[stored]
        return ShareMatrix._of_rows(indptr, cols, values, unit_ids, shift_ids)
    # network-inverse-degree on a ring: neighbors within `network_neighbors`
    k = config.network_neighbors
    if 2 * k >= n:
        raise ValidationError("network neighbor span too large for the node count")
    offsets = np.array([o for s in range(1, k + 1) for o in (s, -s)])
    rows = np.repeat(np.arange(n), offsets.size)
    cols = (rows + np.tile(offsets, n)) % n
    return ShareMatrix.from_triplets(rows, cols, np.full(rows.size, 1.0 / offsets.size),
                                     unit_ids, shift_ids)


def _draw_shifts(config: DgpConfig, rng: np.random.Generator) -> np.ndarray:
    m = config.m
    if config.shift_model == "iid-normal":
        d = config.shift_mean + config.shift_sd * rng.standard_normal(m)
    elif config.shift_model == "bernoulli":
        d = rng.random(m) < config.seeding_prob
        d = d.astype(float)
    elif config.shift_model == "clustered":
        k = min(config.n_shift_clusters, m)
        codes = np.arange(m) % k
        shock = rng.standard_normal(k)
        noise = rng.standard_normal(m)
        rho = config.shift_rho
        d = config.shift_mean + config.shift_sd * (
            math.sqrt(rho) * shock[codes] + math.sqrt(1.0 - rho) * noise
        )
    else:  # exchangeable-groups
        g = min(config.n_exchange_groups, m)
        codes = np.arange(m) % g
        centers = config.group_mean_spread * (np.arange(g) - (g - 1) / 2.0)
        d = config.shift_mean + centers[codes] + config.shift_sd * rng.standard_normal(m)
    return np.asarray(d, dtype=float)


def generate(config: DgpConfig) -> SimulatedData:
    """Draw one dataset from the configured process; deterministic given the seed."""
    return _generate(config, _labels(config), ())


def _generate(config: DgpConfig, labels: _Labels, path: tuple[int, ...]) -> SimulatedData:
    rng_w = _stream(config.seed, *path, _ROLE_SHARES)
    rng_d = _stream(config.seed, *path, _ROLE_SHIFTS)
    rng_e = _stream(config.seed, *path, _ROLE_ERRORS)
    draws_pi = config.pi_sd > 0 or config.pi_mean != 1.0
    if draws_pi or config.first_stage_noise_sd > 0:  # the only draws of this stream
        rng_fs = _stream(config.seed, *path, _ROLE_FIRST_STAGE)

    shares = _draw_shares(config, rng_w, labels)
    d = _draw_shifts(config, rng_d)
    rows, cols, w = shares.nonzero()

    n, m = config.n, config.m
    u = None
    if config.error_model == "share-correlated":
        u = rng_e.standard_normal(m)
        noise = rng_e.standard_normal(n)
        mean_sq = float(np.sum(w**2)) / n
        frac = config.share_error_frac
        scale_u = math.sqrt(frac * config.error_sd**2 / mean_sq) if mean_sq > 0 else 0.0
        eps = scale_u * shares.exposure(u) + math.sqrt(1.0 - frac) * config.error_sd * noise
    else:
        eps = config.error_sd * rng_e.standard_normal(n)

    z = shares.exposure(d)
    pi = None
    if draws_pi:
        pi = config.pi_mean + config.pi_sd * rng_fs.standard_normal((n, m))
        x_signal = shares.row_totals(w * pi[rows, cols] * d[cols])
    else:
        x_signal = z
    if config.first_stage_noise_sd > 0:
        rho = config.first_stage_endog
        xi = rng_fs.standard_normal(n)
        eps_sd = float(np.std(eps))
        eps_unit = eps / eps_sd if eps_sd > 0 else np.zeros(n)
        v = config.first_stage_noise_sd * (rho * eps_unit + math.sqrt(1.0 - rho**2) * xi)
    else:
        v = np.zeros(n)
    x = x_signal + v
    y = config.beta_true * x + eps

    shifts = labels.shifts.with_values(d)
    dataset = labels.dataset.with_outcome(y, x)
    truth = TruthRecord(
        beta_true=config.beta_true,
        latent_error_shock=u,
        pi=pi,
        first_stage_noise=v,
        errors=eps,
    )
    return SimulatedData(shares=shares, shifts=shifts, dataset=dataset, instrument=z, truth=truth,
                         _design=labels)


# ---------------------------------------------------------------------------
# coverage experiments

Fit = Callable[[SimulatedData], EstimateReport]


def _draw_labels(data: SimulatedData) -> _Labels:
    """The labels of the design ``data`` was drawn from, or, for data built otherwise, its own."""
    return data._design or _labels_of(data.shifts, data.dataset)


def _unit_fit(data: SimulatedData) -> EstimateReport:
    """``shiftshare_2sls``'s conventional SEs from one solve: heteroskedasticity-robust,
    and clustered on arbitrary geography-style unit clusters that ignore the share
    structure. ``_robust_se`` sums each cluster in observation order and sorts the
    squared sums, so the clusters' numbering never enters."""
    fit, names = _unit_iv(data.dataset, data.instrument, None)
    beta, gamma, resid, _, x_perp, _ = fit
    n, e, k = data.dataset.n_units, data.dataset.unit_weights, 1 + len(names)
    se = {key: _conventional_se(fit, e, c, k)[0]
          for key, c in _draw_labels(data).unit_codes.items()}
    return EstimateReport(beta, gamma, names, se, {}, resid, x_perp, n_units=n)


def _shift_fit(data: SimulatedData) -> EstimateReport:
    """``estimate_inverted``'s exposure-robust SEs, without the first-stage F statistics
    that no coverage number reads. The shares of a draw are complete by construction.
    The design's shift cluster codes serve every draw that keeps all shifts."""
    w_j = shift_weights_from(data.dataset, data.shares)
    res = residualize_shifts(data.shifts, (), w_j)
    inverted = _invert(data.dataset, data.shares, data.shifts, res.eta_hat, w_j)
    codes = _draw_labels(data).shift_codes
    if codes is not None and not inverted.kept.all():
        codes = _label_codes(inverted.cluster)[1]
    rep = _inverted_iv(inverted, None, codes)[0]
    # without shift cluster labels every shift is its own cluster, which is
    # exactly the heteroskedasticity-robust variant
    rep.se_variants.setdefault("cluster_exposure_robust", rep.se_variants["hc_exposure_robust"])
    return rep


ESTIMATORS: dict[str, tuple[Fit, str]] = {
    "conventional-hc": (_unit_fit, "conventional_hc"),
    "conventional-cluster": (_unit_fit, "conventional_cluster"),
    "exposure-robust": (_shift_fit, "hc_exposure_robust"),
    "exposure-cluster": (_shift_fit, "cluster_exposure_robust"),
}


@dataclass(frozen=True)
class CoverageResult:
    """Monte Carlo summary of one estimator over the replications."""

    estimator: str
    replications: int
    n_failed: int
    mean_bias: float
    sd_beta: float
    mean_se: float
    coverage95: float
    rejection_rate: float


# one worker per 50 replications or part of 50; a worker costs a fork, a few ms
_REPLICATIONS_PER_WORKER = 50

Outcome = dict[str, tuple[float, float] | None]


def _replicate(base: DgpConfig, labels: _Labels, resolved: Sequence[tuple[str, Fit, str]],
               rep: int) -> Outcome:
    """Replication ``rep``: each estimator's ``(beta_hat, se)``, or None where its fit failed."""
    data = _generate(base, labels, (rep,))
    reports: dict[Fit, EstimateReport | None] = {}
    outcome: Outcome = {}
    for name, fit, se_key in resolved:
        if fit not in reports:
            try:
                reports[fit] = fit(data)
            except (EstimationError, NumericalError, ValidationError, np.linalg.LinAlgError):
                reports[fit] = None
        report = reports[fit]
        if report is None:
            outcome[name] = None
            continue
        if se_key not in report.se_variants:
            raise ValidationError(
                f"estimator {name!r} reads SE {se_key!r}, which its fit does not "
                f"report; it reports {sorted(report.se_variants)}"
            )
        outcome[name] = (report.beta_hat, report.se_variants[se_key])
    return outcome


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_work: tuple | None = None  # a forked worker's (base, labels, resolved)


def _serve(work: tuple) -> None:
    global _work
    _work = work


def _replicate_range(start: int, stop: int) -> list[Outcome]:
    return [_replicate(*_work, rep) for rep in range(start, stop)]


def _outcomes(base: DgpConfig, labels: _Labels, resolved: Sequence[tuple[str, Fit, str]],
              replications: int, forkable: bool) -> list[Outcome]:
    """Every replication's outcome, in replication order. Where more than one worker has
    work and the fits are ``forkable``, forked workers each run one contiguous range of
    replications; they inherit the fits and the caller's warning filters, and send back
    only floats. A process that runs other threads is not forked, since a lock one of
    them holds would stay held in the child."""
    workers = min(_usable_cpus(), math.ceil(replications / _REPLICATIONS_PER_WORKER))
    if workers > 1 and forkable and threading.active_count() == 1:
        import multiprocessing  # here, so that the CLI's other commands never import it

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            bounds = [replications * k // workers for k in range(workers + 1)]
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_serve,
                                     initargs=((base, labels, resolved),)) as pool:
                chunks = [pool.submit(_replicate_range, start, stop)
                          for start, stop in zip(bounds, bounds[1:])]
                return [outcome for chunk in chunks for outcome in chunk.result()]
    return [_replicate(base, labels, resolved, rep) for rep in range(replications)]


def run_coverage(
    config: DgpConfig,
    estimators: Sequence[str | tuple[str, Fit, str]],
    replications: int,
    seed: int = 0,
) -> list[CoverageResult]:
    """Coverage and size of nominal 95% intervals across replications.

    Every estimator sees the identical draw within a replication, and each
    distinct fit runs once on it; replication streams are keyed by ``(seed,
    replication)``. A failed fit is caught, counted against every estimator
    that reads it, and excluded from the summary. An empty estimator list, or an
    unknown or repeated name, raises ``ValidationError`` before the warning
    that fewer than 100 replications give noisy estimates.

    Replications run on every CPU this process may use, one forked worker per
    50 replications or part of 50, each over one contiguous range. They are
    summarized in replication order, so the results are bit-identical for any
    number of CPUs. A run with a custom ``(name, fit, se_key)`` estimator
    stays in the calling process, since its fit may keep state there, and so
    does a run called from a process that runs other threads.
    """
    if replications < 1:
        raise ValidationError(f"need at least 1 replication, got {replications}")
    resolved: list[tuple[str, Fit, str]] = []
    for item in estimators:
        if isinstance(item, str):
            if item not in ESTIMATORS:
                raise ValidationError(
                    f"unknown estimator {item!r}; available: {sorted(ESTIMATORS)}"
                )
            resolved.append((item, *ESTIMATORS[item]))
        else:
            name, fit, se_key = item
            resolved.append((str(name), fit, se_key))
        if resolved[-1][0] in {name for name, _, _ in resolved[:-1]}:
            # results are kept by name, so a repeat would pool its draws twice
            raise ValidationError(f"estimator {resolved[-1][0]!r} is given more than once")
    if not resolved:
        raise ValidationError(f"no estimators given; available: {sorted(ESTIMATORS)}")
    if replications < 100:
        warnings.warn(
            f"only {replications} replications; coverage estimates will be noisy",
            ShiftShareWarning,
            stacklevel=2,
        )

    base = dc_replace(config, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShiftShareWarning)
        outcomes = _outcomes(base, _labels(base), resolved, replications,
                             forkable=all(isinstance(item, str) for item in estimators))

    results = []
    for name, _, _ in resolved:
        fitted = [outcome[name] for outcome in outcomes if outcome[name] is not None]
        failed = replications - len(fitted)
        b = np.array([beta for beta, _ in fitted])
        s = np.array([se for _, se in fitted])
        if b.size == 0:
            results.append(
                CoverageResult(name, replications, failed,
                               float("nan"), float("nan"), float("nan"),
                               float("nan"), float("nan"))
            )
            continue
        err = b - config.beta_true
        covered = np.abs(err) <= CRITICAL_95 * s
        results.append(
            CoverageResult(
                estimator=name,
                replications=replications,
                n_failed=failed,
                mean_bias=float(err.mean()),
                sd_beta=float(b.std(ddof=1)) if b.size > 1 else 0.0,
                mean_se=float(s.mean()),
                coverage95=float(covered.mean()),
                rejection_rate=float(1.0 - covered.mean()),
            )
        )
    return results
