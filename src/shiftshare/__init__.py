"""Shift-share variables: construction, estimation, inference, diagnostics."""

from .construct import (
    CompletedShares,
    DecompositionResult,
    LeaveOneOutInstrument,
    ShiftReplacement,
    ShiftResiduals,
    build_exposure,
    complete_shares,
    decompose,
    leave_one_out_shifts,
    replace_shifts,
    residualize_shifts,
    shift_weights_from,
)
from .data import (
    Dataset,
    PanelIndex,
    ShareMatrix,
    ShiftTable,
    load_inputs,
    save_inputs,
    to_long_form,
)
from .errors import (
    EstimationError,
    NumericalError,
    SchemaError,
    ShiftShareError,
    ShiftShareWarning,
    ValidationError,
)
from .diagnose import (
    AutocorrelationResult,
    BalanceResult,
    ConcentrationReport,
    IccResult,
    ShiftSummary,
    aggregate_placebo,
    autocorrelation,
    balance_test_shift,
    balance_test_unit,
    concentration,
    icc,
    shift_summary,
)
from .estimate import (
    EstimateReport,
    InvertedDataset,
    RotembergTable,
    ShiftFrameworkResult,
    effective_f,
    estimate_inverted,
    estimate_shift_framework,
    gmm_share_instruments,
    invert,
    residualized_se,
    residualized_se_clustered,
    rotemberg,
    shiftshare_2sls,
    shiftshare_ols,
)
from .rinfer import RiResult, RiTest, ri_estimate, ri_test
from .simulate import (
    CoverageResult,
    DgpConfig,
    SimulatedData,
    TruthRecord,
    generate,
    run_coverage,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
