"""Desk-scale simulator and analysis toolkit for position/momentum QKD."""

from .source import (
    PumpProfile,
    SourceModel,
    build_source,
    sample_pairs,
    marginal_std,
    calibrate_source,
    UnphysicalSourceError,
    CalibrationError,
)
from .detection import (
    SlitDetector,
    StationConfig,
    coincidence_probability,
    conversion_for,
    detected_variance,
    derive_partner_centers,
    equalize_levels,
)
from .protocol import (
    SessionConfig,
    CoincidenceTable,
    QberReport,
    SessionResult,
    ProtocolError,
    run_session,
    tally_coincidences,
    qber_from_counts,
    qber_with_eve_prediction,
    abort_decision,
)
from .adversary import (
    AttackConfig,
    resolve_attack,
    predicted_qber,
)
from .analysis import (
    ScanData,
    GaussianFit,
    EprCheckResult,
    FitError,
    fit_gaussian,
    conditional_variance,
    duan_check,
    poisson_errors,
    scan_simulation,
)
from .defaults import default_setup

__all__ = [
    "PumpProfile",
    "SourceModel",
    "build_source",
    "sample_pairs",
    "marginal_std",
    "calibrate_source",
    "UnphysicalSourceError",
    "CalibrationError",
    "SlitDetector",
    "StationConfig",
    "coincidence_probability",
    "conversion_for",
    "detected_variance",
    "derive_partner_centers",
    "equalize_levels",
    "SessionConfig",
    "CoincidenceTable",
    "QberReport",
    "SessionResult",
    "ProtocolError",
    "run_session",
    "tally_coincidences",
    "qber_from_counts",
    "qber_with_eve_prediction",
    "abort_decision",
    "AttackConfig",
    "resolve_attack",
    "predicted_qber",
    "ScanData",
    "GaussianFit",
    "EprCheckResult",
    "FitError",
    "fit_gaussian",
    "conditional_variance",
    "duan_check",
    "poisson_errors",
    "scan_simulation",
    "default_setup",
]

__version__ = "0.1.0"
