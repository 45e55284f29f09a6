"""Paired benchmark runs of two checkouts, and the verdict on each end-to-end metric.

Usage (from any directory):

    python3 tools/bench_pairs.py PARENT CHANGE --workload cli-paper --pairs 10

PARENT and CHANGE are checkouts of the repository (a ``git clone`` or ``git archive``
of each commit). Pair k runs ``perfbench/run.py --trace 0 --seed k`` once in each
checkout, seeds 1..N, for the ``run_seconds`` of the change's ``BENCHMARK.json``, the
parent first in odd pairs and the change first in even ones, so that a drift of the
host does not favour one side. Every run starts from an empty input cache of its own (a
fresh ``XDG_CACHE_HOME``, removed after it), so that no run reads the parsed inputs that
another left. Every run is printed as it ends. Then, for each end-to-end metric of
``BENCHMARK.json``, the tool prints each side's median and quartiles, the change's wins
(pairs in which it is strictly better) and a verdict:

- ``gain``: better in at least 9 of 10 pairs, with a median gap larger than the
  parent's interquartile range, while every run of the change is correct and the
  change fails no larger share of its operations than the parent;
- ``regression``: the change's median is worse than the parent's by more than the
  metric's ``bound``, a fraction of the parent's median;
- ``unresolved``: neither, while the parent's interquartile range is wider than the
  ``bound`` times its median, so that runs this spread cannot show a move within the
  bound either way; unless every run of the change is better than every run of the parent;
- ``-``: none of these.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WIN_SHARE = 0.9  # the change must be better in at least this share of the pairs


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run of ``checkout``'s benchmark, from an empty input cache: its
    final JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-cache-") as cache:
        done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              env={**os.environ, "XDG_CACHE_HOME": cache})
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def verdict(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    """The change's wins over the parent on ``metric`` and what they amount to."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    before, after = ([r["metrics"][metric["name"]]["value"] for r in runs]
                     for runs in (parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in zip(before, after))
    (p1, pm, p3), (_, cm, _) = quartiles(before), quartiles(after)
    sound = all(r["correct"] for r in change) and failed_share(change) <= failed_share(parent)
    if sign * (cm - pm) > metric["bound"] * abs(pm):
        found = "regression"
    elif sound and wins >= WIN_SHARE * len(before) and sign * (pm - cm) > p3 - p1:
        found = "gain"
    elif p3 - p1 > metric["bound"] * abs(pm) and not all(
            sign * (p - c) > 0 for p in before for c in after):
        found = "unresolved"
    else:
        found = "-"
    return {"quartiles": (quartiles(before), quartiles(after)), "wins": wins, "verdict": found,
            "relative": (cm - pm) / pm if pm else float("nan")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    opts = parser.parse_args()
    if opts.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((opts.change / "BENCHMARK.json").read_text())

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for seed in range(1, opts.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            result = run_once(getattr(opts, side), opts.workload, seed, spec["run_seconds"])
            runs[side].append(result)
            values = " ".join(f"{name}={m['value']:.4f}" for name, m in result["metrics"].items())
            print(f"# seed {seed} {side:<6} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    print(f"{'metric':<16} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} "
          f"{'move':>8} {'wins':>6}  verdict")
    for metric in spec["end_to_end"]:
        found = verdict(metric, runs["parent"], runs["change"])
        shown = ["/".join(f"{v:.4g}" for v in side) for side in found["quartiles"]]
        print(f"{metric['name']:<16} {shown[0]:>30} {shown[1]:>30} {found['relative']:>+8.1%} "
              f"{found['wins']:>3}/{opts.pairs:<2}  {found['verdict']}")
    for side, done in runs.items():
        print(f"{side}: {sum(r['correct'] for r in done)}/{len(done)} runs correct, "
              f"{failed_share(done):.1%} of operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
