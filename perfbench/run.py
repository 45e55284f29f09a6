"""shiftshare benchmark: cold CLI command sequences, plus a traced in-process run.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 20 --trace 0

The checkout's ``src/`` is the program under test. Each CLI command runs as a
fresh ``python3`` process, one at a time, from this single process (a closed
loop with one client), exactly as the ``shiftshare`` console script starts.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it starts ``traced.py`` for the per-layer metrics. Every
report is checked, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Inputs, outputs and span
files live under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# single-threaded BLAS baseline; set before numpy is imported anywhere
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENV = {**os.environ, **THREADS, "PYTHONPATH": str(SRC)}

# the ``shiftshare`` console script's entry point
LAUNCH = "import sys; from shiftshare.cli import main; sys.exit(main())"
# set-up every command pays: interpreter start, import, parsing the inputs
PROBE = ("import sys; import shiftshare.cli; from shiftshare.data import load_inputs; "
         "load_inputs(*sys.argv[1:])")
WARM_UP = "import shiftshare.cli"
SETUP_REPEATS = 3
TRACED_MODES = ("first", "traced", "untraced")  # the in-process runs of each command
DEADLINE_S = 170.0  # every child is killed once the run gets this old

# unit of a metric by its name's suffix, first match wins
UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_frac", "fraction"),
                   (".spans", "count"))


class Child:
    """Runs one child process to completion and reads its own rusage."""

    def __init__(self, started: float):
        self.deadline = started + DEADLINE_S

    def run(self, argv, log: Path) -> dict:
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=ENV, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.perf_counter()), proc.kill)
            timer.start()
            try:
                # os.wait4 gives this child's own peak RSS and CPU time;
                # RUSAGE_CHILDREN would keep only the maximum over all children
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0}


def _probe_argv(inputs: Path) -> list[str]:
    return [sys.executable, "-c", PROBE,
            *(str(inputs / "csv" / f"{name}.csv") for name in ("shares", "shifts", "units"))]


def _warm_up(child: Child, logs: Path) -> None:
    """Untimed warm-up: a fresh interpreter imports the CLI, which compiles
    every .pyc file. The generator has just written the inputs, so they are
    in the page cache, as a returning user has them."""
    if child.run([sys.executable, "-c", WARM_UP], logs / "warmup.log")["code"] != 0:
        raise RuntimeError(f"cannot import the CLI; see {logs / 'warmup.log'}")


def _same_report_groups(commands) -> list[list[int]]:
    """Indices of commands whose arguments differ only in the input format;
    their reports must be byte-identical."""
    groups: dict[tuple, list[int]] = {}
    for index, command in enumerate(commands):
        key = tuple("{csv}" if a == "{json}" else a for a in command.args)
        groups.setdefault(key, []).append(index)
    return [g for g in groups.values() if len(g) > 1]


def measure(workload, seed: int, seconds: float, inputs: Path, loaded, child: Child):
    from checks import Findings, check_report, same_reports
    from workloads import expand

    work = inputs.parent
    _warm_up(child, work / "logs")
    setup = [child.run(_probe_argv(inputs), work / "logs" / f"setup-{k}.log")["wall"]
             for k in range(SETUP_REPEATS)]
    commands = [(c, expand(c, inputs, seed)) for c in workload.commands]
    passes = []
    window = time.perf_counter()
    while True:
        start = time.perf_counter()
        results = []
        for index, (command, args) in enumerate(commands):
            out = work / "out" / f"pass{len(passes)}" / str(index)
            result = child.run([sys.executable, "-c", LAUNCH, *args, "--out", str(out)],
                               out.parent / f"{index}.log")
            results.append({**result, "kind": command.kind, "args": args, "out": out})
        passes.append({"wall": time.perf_counter() - start, "results": results})
        elapsed = time.perf_counter() - window
        if elapsed + passes[-1]["wall"] > seconds:
            break

    groups = _same_report_groups(workload.commands)
    verdicts = Findings()
    for number, run in enumerate(passes):
        for index, result in enumerate(run["results"]):
            if result["code"] != 0:
                continue
            first = passes[0]["results"][index]
            if first is result or first["code"] != 0:
                found = check_report(result["kind"], result["args"], result["out"], loaded,
                                     recompute=False)
            else:  # byte-identical to a checked report, so the same verdict, or wrong
                found = Findings()
                found.wrong += [f"{name} differs from pass 0" for name in
                                same_reports(first["out"], result["out"])]
            for group in groups:
                if index in group[1:] and run["results"][group[0]]["code"] == 0:
                    found.wrong += [f"{name} differs from command {group[0]}" for name in
                                    same_reports(run["results"][group[0]]["out"], result["out"])]
            result["failed"] = (verdicts.merge(f"pass {number} command {index}", found)
                                or (first is not result and first.get("failed", False)))

    ops = [r for run in passes for r in run["results"]]
    failed = [r for r in ops if r["code"] != 0 or r.get("failed")]
    metrics = {
        "setup_s": statistics.median(setup),
        "pipeline_s": statistics.median(run["wall"] for run in passes),
        "pipeline_cpu_s": statistics.median(sum(r["cpu"] for r in run["results"])
                                            for run in passes),
        "peak_rss_mb": max(r["rss_mb"] for r in ops),
    }
    kinds = {}
    for r in ops:
        if r["code"] == 0:
            kinds.setdefault(r["kind"], []).append(r["wall"])
    extra = {f"{kind}_s": statistics.median(walls) for kind, walls in kinds.items()}
    extra["failed_frac"] = len(failed) / len(ops)
    notes = [f"{len(passes)} pass(es) of {len(commands)} commands; setup_s is the median "
             f"of {len(setup)} probes"]
    notes += [f"exited {r['code']}: {' '.join(workload.commands[index].args)}"
              for index, r in enumerate(passes[0]["results"]) if r["code"] != 0]
    return metrics, extra, len(ops), len(failed), verdicts, notes


def trace(workload, seed: int, inputs: Path, loaded, child: Child):
    from checks import Findings, check_report, same_reports

    work = inputs.parent
    _warm_up(child, work / "logs")
    out = work / "out"
    spans = WORK / f"spans-{workload.name}-seed{seed}.json"
    result = child.run([sys.executable, str(BENCH / "traced.py"), "--workload", workload.name,
                        "--seed", str(seed), "--inputs", str(inputs), "--out", str(out),
                        "--spans", str(spans)], work / "logs" / "traced.log")
    if result["code"] != 0:
        raise RuntimeError(f"traced run exited {result['code']}; see {work / 'logs'}")
    traced = json.loads((out / "traced.json").read_text())
    verdicts, attempted, failed = Findings(), 0, 0
    for index, inv in enumerate(traced["invocations"]):
        runs = [inv[mode] for mode in TRACED_MODES]
        attempted += len(runs)
        failed += sum(run["code"] != 0 for run in runs)
        if any(run["code"] != 0 for run in runs):
            continue
        first = Path(inv["first"]["out"])
        found = check_report(inv["kind"], inv["args"], first, loaded)
        for mode in TRACED_MODES[1:]:
            found.wrong += [f"{name} differs between the first and the {mode} run" for name
                            in same_reports(first, Path(inv[mode]["out"]))]
        failed += len(runs) * verdicts.merge(f"command {index}", found)
    notes = [f"spans written to {spans.relative_to(ROOT)}"]
    notes += [f"exited {inv['first']['code']} in-process: {' '.join(command.args)}"
              for command, inv in zip(workload.commands, traced["invocations"])
              if inv["first"]["code"] != 0]
    return traced["metrics"], traced["details"], attempted, failed, verdicts, notes


def _unit(name: str) -> str:
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    # a terminated run still stops and reaps the command it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "shiftshare" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'shiftshare'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shiftshare
    from workloads import WORKLOADS, build_inputs

    if Path(shiftshare.__file__).resolve().parent != SRC / "shiftshare":
        print(f"error: imported {shiftshare.__file__}, not the checkout's", file=sys.stderr)
        return 2
    if opts.workload not in WORKLOADS:
        print(f"error: unknown workload {opts.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 64
    workload = WORKLOADS[opts.workload]
    child = Child(time.perf_counter())
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    try:
        record, loaded = build_inputs(workload, opts.seed, work / "inputs")
        print(f"# {workload.name} seed {opts.seed}: n={record['n']} m={record['m']} "
              f"share rows {record['share_rows']}; threads "
              + " ".join(f"{k}={v}" for k, v in THREADS.items()))
        if opts.trace:
            metrics, extra, attempted, failed, verdicts, notes = trace(
                workload, opts.seed, work / "inputs", loaded, child)
        else:
            metrics, extra, attempted, failed, verdicts, notes = measure(
                workload, opts.seed, opts.seconds, work / "inputs", loaded, child)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in notes:
        print(f"# {note}")
    for problem in verdicts.malformed:
        print(f"# malformed report (failed operation): {problem}")
    for problem in verdicts.wrong:
        print(f"# wrong output: {problem}")
    # extra figures are printed only: not every workload has them
    for name, value in {**metrics, **extra}.items():
        shown = "           n/a" if value is None else f"{value:14.6f} {_unit(name)}"
        print(f"{workload.name:<14} {name:<34} {shown}")
    print(json.dumps({
        "correct": not verdicts.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
