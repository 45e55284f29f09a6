"""Shift-share variables: construction, estimation, inference, diagnostics.

Each export is imported from its module on first use (PEP 562), so that importing the
package, or one of its modules, loads no module it does not need.
"""

__version__ = "0.1.0"

# module -> the names it exports from the package
_EXPORTS = {
    "construct": """CompletedShares DecompositionResult LeaveOneOutInstrument ShiftReplacement
        ShiftResiduals build_exposure complete_shares decompose leave_one_out_shifts
        replace_shifts residualize_shifts shift_weights_from""",
    "data": "Dataset ShareMatrix ShiftTable load_inputs save_inputs to_long_form",
    "errors": """EstimationError NumericalError SchemaError ShiftShareError ShiftShareWarning
        ValidationError""",
    "diagnose": """AutocorrelationResult BalanceResult ConcentrationReport IccResult ShiftSummary
        aggregate_placebo autocorrelation balance_test_shift balance_test_unit concentration
        icc shift_summary""",
    "estimate": """EstimateReport InvertedDataset RotembergTable ShiftFrameworkResult effective_f
        estimate_inverted estimate_shift_framework gmm_share_instruments invert
        residualized_se residualized_se_clustered rotemberg shiftshare_2sls shiftshare_ols""",
    "rinfer": "RiResult RiTest ri_estimate ri_test",
    "simulate": "CoverageResult DgpConfig SimulatedData TruthRecord generate run_coverage",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # importing a submodule binds it here
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
