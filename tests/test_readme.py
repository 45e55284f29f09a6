"""The README's library tour runs as written, on inputs with every column it names."""

import argparse
import re
from pathlib import Path

import numpy as np

from shiftshare import Dataset, ShareMatrix, ShiftTable, save_inputs
from shiftshare.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    tour = blocks[0]
    assert "replications=1000" in tour
    tour = tour.replace("replications=1000", "replications=10")  # one process, a second

    gen = np.random.default_rng(0)
    n, m = 60, 12
    units, shift_ids = tuple(f"u{i}" for i in range(n)), tuple(f"s{j}" for j in range(m))
    # incomplete shares, so that completion adds a complement with weight
    weights = gen.dirichlet(np.ones(m), size=n) * gen.uniform(0.5, 0.9, size=(n, 1))
    shares = ShareMatrix(weights, units, shift_ids)
    shifts = ShiftTable(gen.normal(size=m), shift_ids,
                        cluster=[f"c{j % 4}" for j in range(m)],
                        period=[f"{2000 + j % 2}" for j in range(m)],
                        exchange_group=[f"g{j % 2}" for j in range(m)])
    x = shares.exposure(shifts.values) + gen.normal(scale=0.1, size=n)
    dataset = Dataset(outcome=x + gen.normal(size=n), unit_ids=units, regressor=x,
                      extras={"region": [f"r{i % 5}" for i in range(n)]})
    save_inputs(tmp_path, shares, shifts, dataset)
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, str(README), "exec"), {})



def test_the_command_line_block_names_every_flag():
    """Each command's lines of the README's command-line block name every flag of that
    command, where ``...`` stands for the input and output flags that ``construct`` lists."""
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), flags=re.S)
    sections: dict[str, str] = {}
    for line in block.group(1).splitlines():
        if line and not line[0].isspace():
            name = line.split()[0]
        sections[name] = sections.get(name, "") + line + "\n"

    def flags(parser) -> set[str]:
        return {f for action in parser._actions for f in action.option_strings
                if f.startswith("--") and f != "--help"}

    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    io = flags(commands.choices["construct"]) & flags(commands.choices["ri"])
    wanted = {"shiftshare": flags(parser)}
    for name, sub in commands.choices.items():
        wanted[name] = flags(sub) - (io if "..." in sections[name] else set())
    for name, want in wanted.items():
        missing = want - set(re.findall(r"--[a-z][a-z0-9-]*", sections[name]))
        assert not missing, (name, sorted(missing))
