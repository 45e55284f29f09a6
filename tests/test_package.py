"""The package's exports, and the modules a command imports."""

import os
import subprocess
import sys
from pathlib import Path

import shiftshare

SRC = Path(shiftshare.__file__).resolve().parent.parent

# the package's public names, as it listed them when it imported every module eagerly
EXPORTS = [
    "AutocorrelationResult", "BalanceResult", "CompletedShares", "ConcentrationReport",
    "CoverageResult", "Dataset", "DecompositionResult", "DgpConfig", "EstimateReport",
    "EstimationError", "IccResult", "InvertedDataset", "LeaveOneOutInstrument",
    "NumericalError", "RiResult", "RiTest", "RotembergTable", "SchemaError", "ShareMatrix",
    "ShiftFrameworkResult", "ShiftReplacement", "ShiftResiduals", "ShiftShareError",
    "ShiftShareWarning", "ShiftSummary", "ShiftTable", "SimulatedData", "TruthRecord",
    "ValidationError", "aggregate_placebo", "autocorrelation", "balance_test_shift",
    "balance_test_unit", "build_exposure", "complete_shares", "concentration", "construct",
    "data", "decompose", "diagnose", "effective_f", "errors", "estimate", "estimate_inverted",
    "estimate_shift_framework", "generate", "gmm_share_instruments", "icc", "invert",
    "leave_one_out_shifts", "load_inputs", "replace_shifts", "residualize_shifts",
    "residualized_se", "residualized_se_clustered", "ri_estimate", "ri_test", "rinfer",
    "rotemberg", "run_coverage", "save_inputs", "shift_summary", "shift_weights_from",
    "shiftshare_2sls", "shiftshare_ols", "simulate", "to_long_form",
]


def _fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports the package from ``src/``,
    with this process's environment and so its input cache."""
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True).stdout


def test_exports_are_the_recorded_names():
    assert shiftshare.__all__ == EXPORTS
    listed = _fresh("import shiftshare; "
                    "print(' '.join(n for n in dir(shiftshare) if not n.startswith('_')))")
    assert listed.split() == EXPORTS
    names = {}
    exec("from shiftshare import *", names)
    assert sorted(name for name in names if name != "__builtins__") == EXPORTS
    for name in EXPORTS:
        assert getattr(shiftshare, name) is not None
    assert shiftshare.ShareMatrix is shiftshare.data.ShareMatrix


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(shiftshare, "no_such_name")
    assert not hasattr(shiftshare, "cli_main")


def test_importing_the_package_imports_no_module():
    loaded = _fresh("import sys, shiftshare; "
                    "print(sorted(m for m in sys.modules if m.startswith('shiftshare')))")
    assert loaded.strip() == "['shiftshare']"


def test_estimate_imports_only_what_it_runs(tmp_path):
    """An ``estimate`` run in either framework leaves the modules of ``ri``, ``diagnose``
    and ``simulate`` unimported."""
    shares = tmp_path / "shares.csv"
    shares.write_text("unit_id,shift_id,weight\nu0,s0,0.6\nu0,s1,0.4\nu1,s0,0.3\n"
                      "u1,s1,0.7\nu2,s0,0.9\nu2,s1,0.1\nu3,s0,0.5\nu3,s1,0.5\n")
    shifts = tmp_path / "shifts.csv"
    shifts.write_text("shift_id,value\ns0,1.0\ns1,-0.5\n")
    units = tmp_path / "units.csv"
    units.write_text("unit_id,y,x\nu0,1.0,0.7\nu1,0.2,0.1\nu2,1.9,0.8\nu3,0.6,0.4\n")
    inputs = ["--shares", str(shares), "--shifts", str(shifts), "--units", str(units)]
    for framework in ("share", "shift"):
        argv = ["--quiet", "estimate", "--framework", framework, *inputs,
                "--out", str(tmp_path / framework)]
        loaded = _fresh("import sys; from shiftshare.cli import main; "
                        f"code = main({argv!r}); "
                        "print(code, sorted(m for m in sys.modules if m.startswith('shiftshare')))")
        code, modules = loaded.split(" ", 1)
        assert code == "0", framework
        for module in ("simulate", "rinfer", "diagnose"):
            assert f"'shiftshare.{module}'" not in modules, (framework, module)
        assert "'shiftshare.estimate'" in modules
