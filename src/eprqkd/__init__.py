"""Desk-scale simulator and analysis toolkit for position/momentum QKD.

Public names resolve lazily (PEP 562): ``import eprqkd`` loads no submodule,
and the first read of a name imports only the module that defines it.
"""

import importlib

# Each public name and the submodule that defines it, in __all__ order.
_SUBMODULE = {
    "PumpProfile": "source",
    "SourceModel": "source",
    "build_source": "source",
    "sample_pairs": "source",
    "calibrate_source": "detection",
    "UnphysicalSourceError": "source",
    "CalibrationError": "detection",
    "SlitDetector": "detection",
    "StationConfig": "detection",
    "coincidence_probability": "detection",
    "conversion_for": "detection",
    "detected_variance": "detection",
    "derive_partner_centers": "detection",
    "equalize_levels": "detection",
    "SessionConfig": "protocol",
    "CoincidenceTable": "tables",
    "QberReport": "tables",
    "SessionResult": "protocol",
    "ProtocolError": "protocol",
    "run_session": "protocol",
    "tally_coincidences": "protocol",
    "qber_from_counts": "tables",
    "qber_with_eve_prediction": "tables",
    "AttackConfig": "protocol",
    "ScanData": "analysis",
    "GaussianFit": "analysis",
    "EprCheckResult": "analysis",
    "FitError": "analysis",
    "fit_gaussian": "analysis",
    "conditional_variance": "analysis",
    "duan_check": "analysis",
    "poisson_errors": "analysis",
    "scan_simulation": "analysis",
    "default_setup": "defaults",
}

__all__ = list(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # resolve each name once
    return value
