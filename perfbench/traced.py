"""Traced in-process run of one workload's commands (started by run.py).

Times ``import shiftshare.cli`` in this fresh interpreter, then runs every
command of the workload through ``cli.main`` three times: untraced to warm
the process up, traced, and untraced again (the ``cli.<kind>_inproc_s``
metrics, and the base of the tracing overhead). The traced run records a
span around every call into a public function of ``cli``, ``data``, ``construct``,
``estimate``, ``rinfer``, ``diagnose`` and ``simulate``. The wrappers live in
this file and are patched into every module namespace that holds the
function; nothing under ``src/`` changes. Spans stay in memory and are
written out at the end. Memory metrics re-run the first call of a few
functions, with the same arguments, under ``tracemalloc``.

Usage: python3 perfbench/traced.py --workload NAME --seed N --inputs DIR --out DIR --spans FILE
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import inspect
import io
import json
import statistics
import sys
import time
import traceback
import tracemalloc
import warnings
from pathlib import Path

LAYERS = ("cli", "data", "construct", "estimate", "rinfer", "diagnose", "simulate")

# per-layer metric -> span name; the value is the mean inclusive time per call
PER_CALL = {
    "data.load_csv_s": "data.load_inputs:csv",
    "data.load_json_s": "data.load_inputs:json",
    "construct.complete_shares_s": "construct.complete_shares",
    "construct.residualize_shifts_s": "construct.residualize_shifts",
    "construct.build_exposure_s": "construct.build_exposure",
    "construct.shift_weights_s": "construct.shift_weights_from",
    "estimate.shiftshare_2sls_s": "estimate.shiftshare_2sls",
    "estimate.invert_s": "estimate.invert",
    "estimate.estimate_inverted_s": "estimate.estimate_inverted",
    "estimate.residualized_se_s": "estimate.residualized_se",
    "estimate.rotemberg_s": "estimate.rotemberg",
    "rinfer.ri_estimate_s": "rinfer.ri_estimate",
    "diagnose.balance_s": "diagnose.balance_test_unit",
    "diagnose.icc_s": "diagnose.icc",
    "diagnose.concentration_s": "diagnose.concentration",
    "simulate.generate_s": "simulate.generate",
    "simulate.run_coverage_s": "simulate.run_coverage",
}

# metric -> span whose first call is re-run under tracemalloc
PEAK_MB = {
    "data.load_peak_mb": "data.load_inputs:csv",
    "construct.complete_shares_peak_mb": "construct.complete_shares",
    "estimate.invert_peak_mb": "estimate.invert",
    "rinfer.ri_peak_mb": "rinfer.ri_estimate",
}

KINDS = ("construct", "estimate_share", "estimate_shift", "ri", "diagnose", "simulate")

# Reached on every workload, so these are the benchmark's per-layer metrics;
# the rest (per-kind in-process times, rinfer, diagnose, simulate, JSON
# parsing) are printed as details where the workload reaches them.
REPORTED = (
    "cli.import_s", "cli.pipeline_inproc_s", "cli.self_s", "data.self_s", "construct.self_s",
    "estimate.self_s", "data.load_csv_s", "data.save_csv_s", "data.share_rows_per_s",
    "data.load_peak_mb", "data.load_retained_mb", "construct.complete_shares_s",
    "construct.residualize_shifts_s", "construct.shift_weights_s",
    "construct.complete_shares_peak_mb", "estimate.shiftshare_2sls_s", "estimate.invert_s",
    "estimate.estimate_inverted_s", "estimate.invert_peak_mb", "trace.overhead_s",
    "trace.spans",
)


class Tracer:
    """Records spans (name, start, end, parent, run id) around wrapped calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.run_id = None
        self.first_call: dict[str, tuple] = {}
        self.originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if name == "data.load_inputs":
                span += ":" + (args[3] if len(args) > 3 else kwargs.get("fmt", "csv"))
            if span in PEAK_MB.values():
                self.first_call.setdefault(span, (fn, args, kwargs))
            index = len(self.spans)
            self.spans.append({"name": span, "parent": self.stack[-1] if self.stack else None,
                               "run_id": self.run_id})
            self.stack.append(index)
            self.spans[index]["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index]["end"] = time.perf_counter()
                self.stack.pop()
        return traced

    def install(self, modules) -> None:
        """Wrap every public function of ``modules`` wherever it is bound."""
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "shiftshare"]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self.originals.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in self.originals:
            setattr(module, attr, obj)
        self.originals.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time of each layer that has spans: each span minus the
        time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span, inner in zip(self.spans, child):
            layer = span["name"].split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + span["end"] - span["start"] - inner
        return totals

    def mean_time(self, name: str) -> float | None:
        times = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return statistics.fmean(times) if times else None


def run_inprocess(cli, args, out: Path) -> dict:
    """One ``cli.main`` call with output silenced; returns code, wall time and error."""
    gc.collect()
    error = None
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        try:
            code = cli.main([*args, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # recorded and counted as a failed operation
            code, error = -1, traceback.format_exc()
        wall = time.perf_counter() - start
    return {"code": code, "wall": wall, "out": str(out),
            "error": error or err.getvalue().strip()[-300:]}


def _rate(count, seconds):
    return count / seconds if seconds else None


def peak_mb(call) -> tuple[float, float]:
    """Peak and retained traced memory (MB) of re-running ``call``."""
    fn, args, kwargs = call
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak / 2**20, retained / 2**20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--workload", "--inputs", "--out", "--spans"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--seed", type=int, required=True)
    opts = parser.parse_args()

    start = time.perf_counter()
    import shiftshare.cli as cli
    import_s = time.perf_counter() - start

    from shiftshare import construct, data, diagnose, estimate, rinfer, simulate
    from workloads import WORKLOADS, expand

    modules = dict(zip(LAYERS, (cli, data, construct, estimate, rinfer, diagnose, simulate)))
    workload = WORKLOADS[opts.workload]
    inputs, out = Path(opts.inputs), Path(opts.out)
    record = json.loads((inputs / "record.json").read_text())
    tracer = Tracer()
    invocations = []
    for index, command in enumerate(workload.commands):
        args = expand(command, inputs, opts.seed)
        first = run_inprocess(cli, args, out / "first" / str(index))
        tracer.run_id = f"{index}:{command.kind}"
        tracer.install(modules)
        try:
            traced = run_inprocess(cli, args, out / "traced" / str(index))
        finally:
            tracer.uninstall()
        untraced = run_inprocess(cli, args, out / "untraced" / str(index))
        invocations.append({"kind": command.kind, "args": args, "first": first,
                            "traced": traced, "untraced": untraced})

    # None marks a layer or function this workload never reaches
    values = {"cli.import_s": import_s,
              "cli.pipeline_inproc_s": sum(i["untraced"]["wall"] for i in invocations)}
    for kind in KINDS:
        walls = [i["untraced"]["wall"] for i in invocations
                 if i["kind"] == kind and i["untraced"]["code"] == 0]
        values[f"cli.{kind}_inproc_s"] = statistics.median(walls) if walls else None
    self_times = tracer.self_times()
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_times.get(layer)
    for metric, span in PER_CALL.items():
        values[metric] = tracer.mean_time(span)
    values["data.share_rows_per_s"] = _rate(record["share_rows"], values["data.load_csv_s"])
    values["data.save_csv_s"] = record["save_csv_s"]

    values["rinfer.draws_per_s"] = values["simulate.reps_per_s"] = None
    values["simulate.failed_frac"] = None
    for inv in invocations:
        report = Path(inv["untraced"]["out"])
        if inv["untraced"]["code"] != 0:
            continue
        if inv["kind"] == "ri":
            draws = json.loads((report / "ri.json").read_text())["draws"]
            values["rinfer.draws_per_s"] = _rate(draws, values["rinfer.ri_estimate_s"])
        elif inv["kind"] == "simulate":
            with open(report / "coverage.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            reps = int(rows[0]["replications"])
            values["simulate.reps_per_s"] = _rate(reps, values["simulate.run_coverage_s"])
            values["simulate.failed_frac"] = (
                sum(int(r["n_failed"]) for r in rows) / (reps * len(rows))
            )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for metric, span in PEAK_MB.items():
            call = tracer.first_call.get(span)
            peak, retained = peak_mb(call) if call else (None, None)
            values[metric] = peak
            if metric == "data.load_peak_mb":
                values["data.load_retained_mb"] = retained

    traced_total = sum(i["traced"]["wall"] for i in invocations)
    values["trace.overhead_s"] = traced_total - values["cli.pipeline_inproc_s"]
    values["trace.spans"] = float(len(tracer.spans))
    # a reported metric that a later version of the program stops reaching reads 0
    metrics = {name: values.pop(name) or 0.0 for name in REPORTED}

    Path(opts.spans).write_text(json.dumps(
        {"workload": opts.workload, "seed": opts.seed, "spans": tracer.spans}
    ))
    (out / "traced.json").write_text(json.dumps(
        {"metrics": metrics, "details": values, "invocations": invocations}, indent=1
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
