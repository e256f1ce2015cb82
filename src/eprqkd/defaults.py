"""Bundled default experiment, run-file parsing and the one setup builder.

The default setup reproduces the headline numbers of the bundled reference
dataset (table1.csv): no-eavesdropper error rate near 0.05, intercept-resend
error rate near 0.3, coincidence peaks separated by 1 mm, and flat
mixed-basis profiles.  Detector slits sit at 1 mm and 2 mm on each stage with
the optical axis at 1.5 mm, 0.2 mm slits for position and 0.5 mm for
momentum.  The source's correlation widths are calibrated against the
detected variance targets (0.116 mm^2, 0.894 hbar^2/mm^2) by
detection.calibrate_source; the two anti-squeezed widths are fixed defaults
chosen inside the physicality region.  A run file that sets both squeezed
widths uses them instead, and then may not also change a target.

Party A's slit centers are derived by maximizing the same-basis coincidence
probability against party B's slits, which places the momentum slits on the
mirrored side of the axis (the momentum sum, not difference, is the narrow
coordinate).

The experiment is written down once, as the config table that run files
override; ``default_setup`` is ``build_setup`` of that table unchanged, and
the setup without level-equalizing filters is ``build_setup`` of it with
``station.equalize = false``, the key a run file sets.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from . import protocol
from .detection import (
    SlitDetector, StationConfig, calibrate_source, derive_partner_centers, equalize_levels,
)
from .source import PumpProfile, SourceModel, build_source


class ConfigError(ValueError):
    pass


# The default experiment, as the config keys that a run file may override.
# Values are the strings a run file would hold; the config hash reads them.
_CONFIG_DEFAULTS = {
    "source.target_var_x_mm2": "0.116",  # detected-variance calibration targets
    "source.target_var_p_hbar2_mm2": "0.894",
    "source.sigma_minus_mm": "",  # squeezed widths; set both to skip calibration
    "source.kappa_minus_per_mm": "",
    "source.sigma_plus_mm": "1.8",  # free (anti-squeezed) widths and pump
    "source.kappa_plus_per_mm": "3.7",
    "source.pump_waist_mm": "2.0",
    "station.object_distance_mm": "200.0",
    "station.image_distance_mm": "100.0",
    "station.focal_length_mm": "150.0",
    "station.wavenumber_per_mm": "330.0",
    "station.origin_mm": "1.5",
    "station.x_slit_width_mm": "0.2",
    "station.p_slit_width_mm": "0.5",
    "station.detector1_mm": "1.0",
    "station.detector2_mm": "2.0",
    "station.equalize": "true",
    "session.coincidences": "100000",
    "session.estimation_pairs": "10000",
    "session.qber_threshold": repr(protocol.DEFAULT_QBER_THRESHOLD),
    "session.seed": "",
    "attack.policy": "none",
    "output.alice_key": "alice_key.txt",
    "output.bob_key": "bob_key.txt",
    "output.table": "session_table.csv",
}

_WIDTH_KEYS = ("source.sigma_minus_mm", "source.kappa_minus_per_mm")
_TARGET_KEYS = ("source.target_var_x_mm2", "source.target_var_p_hbar2_mm2")

# Reference conditional variances with their quoted uncertainties, used by the
# EPR-inequality verification commands.  The fourth uncertainty is recorded as
# 0.90 in the reference table; that value is three sigma wide of its own
# variance and is treated as a misprint of 0.090 (flagged in reports).
REFERENCE_VAR_X = (0.152, 0.080)            # mm^2
REFERENCE_UNC_X = (0.003, 0.002)
REFERENCE_VAR_P = (0.912, 0.875)            # hbar^2 / mm^2
REFERENCE_UNC_P = (0.017, 0.090)
UNCERTAINTY_NOTE = (
    "fourth reference uncertainty printed as 0.90; using presumed 0.090"
)
# The reference table prints the pair-1 label twice for the momentum
# variances; the second value is stored as the pair-2 entry, label as printed.
REFERENCE_VAR_X_LABELS = ("x pair 1", "x pair 2")
REFERENCE_VAR_P_LABELS = ("p pair 1", "p pair 1 (printed; presumed pair 2)")


def parse_config_file(path: str | None) -> dict[str, str]:
    """Flat ``key = value`` lines with # comments; unknown keys are rejected."""
    cfg = dict(_CONFIG_DEFAULTS)
    if path is None:
        return cfg
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config file {path!r}: {exc.strerror}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in cfg:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value
    return cfg


def _as_float(cfg, key) -> float:
    try:
        value = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be a number, got {cfg[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {cfg[key]!r}")
    return value


def _as_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be an integer, got {cfg[key]!r}") from exc


def _as_bool(cfg, key) -> bool:
    value = cfg[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ConfigError(f"config key {key} must be true/false, got {cfg[key]!r}")


def build_setup(cfg: dict[str, str]) -> tuple[SourceModel, StationConfig, StationConfig]:
    """Source plus both stations (alice, bob order: A first) from a parsed config."""
    def slits(width_key):
        width = _as_float(cfg, width_key)
        return (
            SlitDetector(_as_float(cfg, "station.detector1_mm"), width, 0),
            SlitDetector(_as_float(cfg, "station.detector2_mm"), width, 1),
        )

    bob = StationConfig(
        object_distance=_as_float(cfg, "station.object_distance_mm"),
        image_distance=_as_float(cfg, "station.image_distance_mm"),
        focal_length=_as_float(cfg, "station.focal_length_mm"),
        wavenumber=_as_float(cfg, "station.wavenumber_per_mm"),
        x_detectors=slits("station.x_slit_width_mm"),
        p_detectors=slits("station.p_slit_width_mm"),
        origin=_as_float(cfg, "station.origin_mm"),
    )

    pump = PumpProfile(_as_float(cfg, "source.pump_waist_mm"))
    sigma_plus = _as_float(cfg, "source.sigma_plus_mm")
    kappa_plus = _as_float(cfg, "source.kappa_plus_per_mm")
    widths = [key for key in _WIDTH_KEYS if cfg[key]]
    if widths:
        for target in _TARGET_KEYS:
            if _as_float(cfg, target) != float(_CONFIG_DEFAULTS[target]):
                raise ConfigError(
                    f"{target} would go unused beside {' and '.join(widths)}; "
                    "give the squeezed widths or the calibration targets, not both"
                )
        if len(widths) == 1:
            missing = next(key for key in _WIDTH_KEYS if key not in widths)
            raise ConfigError(f"{widths[0]} requires {missing}")
        sigma_minus, kappa_minus = (_as_float(cfg, key) for key in _WIDTH_KEYS)
        src = build_source(sigma_minus, sigma_plus, kappa_minus, kappa_plus, pump)
    else:
        src = calibrate_source(
            *(_as_float(cfg, key) for key in _TARGET_KEYS), bob, bob,
            sigma_plus=sigma_plus, kappa_plus=kappa_plus, pump=pump,
        )
    return assemble_setup(src, bob, _as_bool(cfg, "station.equalize"))


def assemble_setup(
    source: SourceModel, bob: StationConfig, equalize: bool = True
) -> tuple[SourceModel, StationConfig, StationConfig]:
    """Source plus both stations (alice, bob order: A first) around B's station.

    Party A starts as a copy of B's station.  Its slit centers are derived
    from the source's correlations, then the level-equalizing attenuation
    factors are optionally attached.  Slit centers do not enter the detected
    variances, so a source calibrated on B's station stays calibrated.
    """
    centers = {basis: derive_partner_centers(source, bob, bob, basis) for basis in ("x", "p")}
    alice = replace(
        bob,
        x_detectors=tuple(replace(d, center=c) for d, c in zip(bob.x_detectors, centers["x"])),
        p_detectors=tuple(replace(d, center=c) for d, c in zip(bob.p_detectors, centers["p"])),
    )
    if equalize:
        alice, bob = equalize_levels(source, alice, bob)
    return source, alice, bob


@lru_cache(maxsize=None)
def default_setup() -> tuple[SourceModel, StationConfig, StationConfig]:
    """Calibrated default source plus both equalized stations (alice, bob order: A first)."""
    return build_setup(_CONFIG_DEFAULTS)
