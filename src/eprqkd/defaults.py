"""Bundled default experiment, run-file parsing and the one setup builder.

The default setup reproduces the headline numbers of the bundled reference
dataset (table1.csv): no-eavesdropper error rate near 0.05, intercept-resend
error rate near 0.3, coincidence peaks separated by 1 mm, and flat
mixed-basis profiles.  Detector slits sit at 1 mm and 2 mm on each stage with
the optical axis at 1.5 mm, 0.2 mm slits for position and 0.5 mm for
momentum.  The source's correlation widths are calibrated against the
detected variance targets (0.116 mm^2, 0.894 hbar^2/mm^2) by
detection.calibrate_source; the two anti-squeezed widths are fixed defaults
chosen inside the physicality region.

Party A's slit centers are derived by maximizing the same-basis coincidence
probability against party B's slits, which places the momentum slits on the
mirrored side of the axis (the momentum sum, not difference, is the narrow
coordinate).

The experiment is written down once, as the config table that run files
override; ``default_setup`` is ``build_setup`` of that table unchanged.
``build_station`` reads the ``station.*`` keys into B's station alone, which
is all that converting a saved peak width needs; the builders import
detection where they run.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from .source import PumpProfile, SourceModel

if TYPE_CHECKING:
    from .detection import StationConfig


class ConfigError(ValueError):
    """A run file, flag or input that cannot be used: the CLI exits 2."""


class RunError(RuntimeError):
    """A valid run that could not complete (no session, no fit): the CLI exits 3."""


# The default experiment, as the config keys that a run file may override.
# Values are the strings a run file would hold; the config hash reads them.
_CONFIG_DEFAULTS = {
    "source.target_var_x_mm2": "0.116",  # detected-variance calibration targets
    "source.target_var_p_hbar2_mm2": "0.894",
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
    "session.coincidences": "100000",
    "session.estimation_pairs": "10000",
    "attack.policy": "none",
    "output.alice_key": "alice_key.txt",
    "output.bob_key": "bob_key.txt",
    "output.table": "session_table.csv",
}

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


def _as_float(cfg, key, positive=False) -> float:
    try:
        value = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be a number, got {cfg[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config key {key} must be finite, got {cfg[key]!r}")
    if positive and value <= 0:
        raise ConfigError(f"config key {key} must be positive, got {cfg[key]!r}")
    return value


def _as_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be an integer, got {cfg[key]!r}") from exc


def build_station(cfg: dict[str, str]) -> StationConfig:
    """B's station from the station.* keys of a parsed config."""
    from .detection import SlitDetector, StationConfig

    def slits(basis):
        width = _as_float(cfg, f"station.{basis}_slit_width_mm", positive=True)
        return (
            SlitDetector(_as_float(cfg, "station.detector1_mm"), width, 0),
            SlitDetector(_as_float(cfg, "station.detector2_mm"), width, 1),
        )

    fields = dict(
        object_distance=_as_float(cfg, "station.object_distance_mm", positive=True),
        image_distance=_as_float(cfg, "station.image_distance_mm", positive=True),
        focal_length=_as_float(cfg, "station.focal_length_mm", positive=True),
        wavenumber=_as_float(cfg, "station.wavenumber_per_mm", positive=True),
        x_detectors=slits("x"),
        p_detectors=slits("p"),
        origin=_as_float(cfg, "station.origin_mm"),
    )
    try:
        return StationConfig(**fields)
    except ValueError as exc:  # each key is checked above, so a basis's slits overlap
        basis = str(exc)[0]  # the overlap message starts with the basis
        keys = f"station.detector1_mm, station.detector2_mm and station.{basis}_slit_width_mm"
        raise ConfigError(f"config keys {keys}: {exc}") from exc


def build_setup(cfg: dict[str, str]) -> tuple[SourceModel, StationConfig, StationConfig]:
    """Source plus both stations (alice, bob order: A first) from a parsed config."""
    from .detection import calibrate_source

    bob = build_station(cfg)
    pump = PumpProfile(_as_float(cfg, "source.pump_waist_mm", positive=True))
    sigma_plus = _as_float(cfg, "source.sigma_plus_mm", positive=True)
    kappa_plus = _as_float(cfg, "source.kappa_plus_per_mm", positive=True)
    src = calibrate_source(
        _as_float(cfg, "source.target_var_x_mm2", positive=True),
        _as_float(cfg, "source.target_var_p_hbar2_mm2", positive=True),
        bob, bob, sigma_plus=sigma_plus, kappa_plus=kappa_plus, pump=pump,
    )
    try:
        return assemble_setup(src, bob)
    except ValueError as exc:  # far off axis, A's derived slits can overlap
        if "slit intervals overlap" not in str(exc):
            raise
        keys = "station.origin_mm, station.detector1_mm and station.detector2_mm"
        raise ConfigError(f"config keys {keys}: party A's derived slits: {exc}") from exc


def assemble_setup(
    source: SourceModel, bob: StationConfig
) -> tuple[SourceModel, StationConfig, StationConfig]:
    """Source plus both stations (alice, bob order: A first) around B's station.

    Party A starts as a copy of B's station.  Its slit centers are derived
    from the source's correlations, then the level-equalizing attenuation
    factors are attached.  Slit centers do not enter the detected variances,
    so a source calibrated on B's station stays calibrated.
    """
    from .detection import derive_partner_centers, equalize_levels

    centers = {basis: derive_partner_centers(source, bob, bob, basis) for basis in ("x", "p")}
    alice = replace(
        bob,
        x_detectors=tuple(replace(d, center=c) for d, c in zip(bob.x_detectors, centers["x"])),
        p_detectors=tuple(replace(d, center=c) for d, c in zip(bob.p_detectors, centers["p"])),
    )
    alice, bob = equalize_levels(source, alice, bob)
    return source, alice, bob


@lru_cache(maxsize=None)
def default_setup() -> tuple[SourceModel, StationConfig, StationConfig]:
    """Calibrated default source plus both equalized stations (alice, bob order: A first)."""
    return build_setup(_CONFIG_DEFAULTS)
