"""Station optics, slit detectors, and the quadrature coincidence oracle.

Each station measures one transverse coordinate of its photon.  In the
position basis a lens images the crystal onto the detection plane, so the
detection-plane coordinate is x / alpha with alpha = O / (2 I); in the
momentum basis the crystal and detection planes sit in the focal planes of a
lens and the coordinate is p * f / k.  An optional origin offset models where
the translation stage's zero sits relative to the optical axis.

A slit detector clicks when the detection-plane coordinate falls inside its
aperture (closed interval).  Two detectors per basis encode one key bit:
detector index 1 is logical 0, index 2 is logical 1.

coincidence_probability integrates the latent joint density over both
parties' acceptance windows with deterministic quadrature; it is the oracle
that every Monte Carlo estimate in the package is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .source import SourceModel, marginal_std

QUAD_ABS_TOL = 1e-8

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


class QuadratureError(RuntimeError):
    """The same-basis coincidence quadrature missed its absolute error bound."""


class ClickOutcome(Enum):
    DETECTOR_1 = 1
    DETECTOR_2 = 2
    NULL = 0

    @property
    def bit(self) -> int | None:
        if self is ClickOutcome.NULL:
            return None
        return 0 if self is ClickOutcome.DETECTOR_1 else 1


@dataclass(frozen=True)
class SlitDetector:
    """One slit aperture: center and width in detection-plane mm.

    attenuation is the survival probability of a click behind a neutral
    filter, used by equalize_levels; 1.0 means no filter.
    """

    center: float
    width: float
    logical_bit: int
    attenuation: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError(f"slit center must be finite, got {self.center}")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ValueError(f"slit width must be positive and finite, got {self.width}")
        if self.logical_bit not in (0, 1):
            raise ValueError(f"logical_bit must be 0 or 1, got {self.logical_bit}")
        if not 0.0 < self.attenuation <= 1.0:
            raise ValueError(f"attenuation must be in (0, 1], got {self.attenuation}")

    @property
    def lo(self) -> float:
        return self.center - self.width / 2.0

    @property
    def hi(self) -> float:
        return self.center + self.width / 2.0


@dataclass(frozen=True)
class StationConfig:
    """One party's imaging/Fourier optics plus its four slit detectors.

    Distances in mm, wavenumber in 1/mm.  origin is the detection-plane
    coordinate of the optical axis (same stage offset for both bases).
    """

    object_distance: float
    image_distance: float
    focal_length: float
    wavenumber: float
    x_detectors: tuple[SlitDetector, SlitDetector]
    p_detectors: tuple[SlitDetector, SlitDetector]
    origin: float = 0.0

    def __post_init__(self):
        for name in ("object_distance", "image_distance", "focal_length", "wavenumber"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")
        for pair in (self.x_detectors, self.p_detectors):
            first, second = pair
            if first.logical_bit != 0 or second.logical_bit != 1:
                raise ValueError("detector 1 must carry bit 0 and detector 2 bit 1")
            if first.hi >= second.lo and second.hi >= first.lo:
                raise ValueError(
                    f"slit intervals overlap: [{first.lo}, {first.hi}] and "
                    f"[{second.lo}, {second.hi}]"
                )

    @property
    def alpha(self) -> float:
        """Imaging scale O / (2 I) mapping detection-plane mm to crystal mm."""
        return self.object_distance / (2.0 * self.image_distance)

    @property
    def momentum_scale(self) -> float:
        """k / f, mapping detection-plane mm to transverse momentum in 1/mm."""
        return self.wavenumber / self.focal_length

    def detectors(self, basis: str) -> tuple[SlitDetector, SlitDetector]:
        if basis == "x":
            return self.x_detectors
        if basis == "p":
            return self.p_detectors
        raise ValueError(f"basis must be 'x' or 'p', got {basis!r}")

    def latent_window(self, basis: str, detector: SlitDetector) -> tuple[float, float]:
        """Slit aperture mapped to crystal-plane (latent) coordinates."""
        if basis == "x":
            a = self.alpha * (detector.lo - self.origin)
            b = self.alpha * (detector.hi - self.origin)
        else:
            a = self.momentum_scale * (detector.lo - self.origin)
            b = self.momentum_scale * (detector.hi - self.origin)
        return (a, b) if a <= b else (b, a)

    def latent_slit_width(self, basis: str) -> float:
        """Slit width in latent units (equal for the two slits of a basis)."""
        det = self.detectors(basis)[0]
        scale = self.alpha if basis == "x" else self.momentum_scale
        return det.width * scale


def readout_coordinate(sample, station: StationConfig, basis: str, side: str) -> float:
    """Detection-plane coordinate produced by one latent pair sample."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if basis == "x":
        value = sample.x_A if side == "A" else sample.x_B
        return value / station.alpha + station.origin
    if basis == "p":
        value = sample.p_A if side == "A" else sample.p_B
        return value * station.focal_length / station.wavenumber + station.origin
    raise ValueError(f"basis must be 'x' or 'p', got {basis!r}")


def latent_from_coordinate(coordinate: float, station: StationConfig, basis: str) -> float:
    """Inverse of readout_coordinate (both maps are affine and bijective)."""
    if basis == "x":
        return (coordinate - station.origin) * station.alpha
    if basis == "p":
        return (coordinate - station.origin) * station.momentum_scale
    raise ValueError(f"basis must be 'x' or 'p', got {basis!r}")


def click(coordinate: float, detectors: Iterable[SlitDetector]) -> ClickOutcome:
    """Map a detection-plane coordinate to a click outcome.

    Slit acceptance is a closed interval; disjointness is enforced at
    configuration time so ties cannot happen.
    """
    first, second = detectors
    if first.lo <= coordinate <= first.hi:
        return ClickOutcome.DETECTOR_1
    if second.lo <= coordinate <= second.hi:
        return ClickOutcome.DETECTOR_2
    return ClickOutcome.NULL


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT2PI


def _cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _pair_covariance(source: SourceModel, basis: str) -> np.ndarray:
    return source.position_covariance() if basis == "x" else source.momentum_covariance()


def _window_mass(source: SourceModel, basis: str, lo: float, hi: float) -> float:
    """Single-party latent probability mass in [lo, hi]."""
    std = marginal_std(source, basis)
    return _cdf(hi / std) - _cdf(lo / std)


def coincidence_probability(
    source: SourceModel,
    station_A: StationConfig,
    station_B: StationConfig,
    basis_A: str,
    basis_B: str,
    det_A: int,
    det_B: int,
    include_attenuation: bool = True,
) -> float:
    """Joint click probability for one detector pair, by deterministic quadrature.

    det_A / det_B are detector indices (1 or 2).  Same-basis probabilities
    integrate the correlated bivariate density over both latent windows
    (outer adaptive quadrature over A's window, analytic conditional CDF
    inside); mixed-basis probabilities factor into two single-party window
    masses.  Absolute error is held below 1e-8; attenuation factors thin the
    result unless include_attenuation is False.
    """
    slit_A = station_A.detectors(basis_A)[det_A - 1]
    slit_B = station_B.detectors(basis_B)[det_B - 1]
    a_lo, a_hi = station_A.latent_window(basis_A, slit_A)
    b_lo, b_hi = station_B.latent_window(basis_B, slit_B)

    if basis_A == basis_B:
        cov = _pair_covariance(source, basis_A)
        var_a, var_b, cov_ab = cov[0, 0], cov[1, 1], cov[0, 1]
        std_a = math.sqrt(var_a)
        cond_std = math.sqrt(max(var_b - cov_ab**2 / var_a, 1e-300))
        slope = cov_ab / var_a

        def integrand(u: float) -> float:
            mu = slope * u
            inner = _cdf((b_hi - mu) / cond_std) - _cdf((b_lo - mu) / cond_std)
            return inner * _phi(u / std_a) / std_a

        prob, err = quad(integrand, a_lo, a_hi, epsabs=QUAD_ABS_TOL * 1e-2, limit=200)
        if err > QUAD_ABS_TOL:
            raise QuadratureError(
                f"quadrature error estimate {err:.3e} exceeds tolerance {QUAD_ABS_TOL:.1e}"
            )
    else:
        prob = _window_mass(source, basis_A, a_lo, a_hi) * _window_mass(
            source, basis_B, b_lo, b_hi
        )

    if include_attenuation:
        prob *= slit_A.attenuation * slit_B.attenuation
    return prob


def acceptance_mass(
    source: SourceModel,
    station: StationConfig,
    basis: str,
    side: str = "B",
    include_attenuation: bool = True,
) -> float:
    """Probability that a single photon lands in either slit of one basis.

    The latent marginals of the two sides are identical, so `side` only
    documents intent.
    """
    total = 0.0
    for det in station.detectors(basis):
        lo, hi = station.latent_window(basis, det)
        mass = _window_mass(source, basis, lo, hi)
        if include_attenuation:
            mass *= det.attenuation
        total += mass
    return total


# ---------------------------------------------------------------------------
# Detected variance of the correlated coordinate (calibration oracle)
# ---------------------------------------------------------------------------


def slit_smearing_variance(
    station_A: StationConfig, station_B: StationConfig, basis: str
) -> float:
    """Variance added to the detected collective coordinate by both slits.

    In the position basis the smear is the detection-plane slit width; in the
    momentum basis it is the slit width mapped through k/f.
    """
    if basis == "x":
        w_A = station_A.detectors("x")[0].width
        w_B = station_B.detectors("x")[0].width
    else:
        w_A = station_A.latent_slit_width("p")
        w_B = station_B.latent_slit_width("p")
    return (w_A**2 + w_B**2) / 12.0


def _latent_collective_std(
    source: SourceModel, station_A: StationConfig, station_B: StationConfig, basis: str
) -> float:
    """Std of the un-smeared detected collective coordinate.

    Position basis: rho_A - rho_B in detection-plane mm (alpha scaling per
    station).  Momentum basis: p_A + p_B in 1/mm.
    """
    if basis == "p":
        return source.kappa_minus
    ia, ib = 1.0 / station_A.alpha, 1.0 / station_B.alpha
    var_single = (source.sigma_plus**2 + source.sigma_minus**2) / 4.0
    cov = (source.sigma_plus**2 - source.sigma_minus**2) / 4.0
    return math.sqrt(var_single * (ia * ia + ib * ib) - 2.0 * cov * ia * ib)


def detected_variance(
    source: SourceModel,
    station_A: StationConfig,
    station_B: StationConfig,
    basis: str,
) -> float:
    """Variance of the detected collective coordinate.

    A recorded coordinate is the slit position at the moment of the click,
    i.e. the latent value smeared by a uniform offset of one slit width.  For
    the position basis this gives the recorded detection-plane difference
    rho_A - rho_B (mm^2); for the momentum basis the recorded momentum sum
    p_A + p_B (1/mm^2), slit smears mapped through k/f.  The two smears are
    independent of the latent Gaussian and of each other, so their variances
    add: latent variance plus slit_smearing_variance.
    """
    latent = _latent_collective_std(source, station_A, station_B, basis)
    return latent**2 + slit_smearing_variance(station_A, station_B, basis)


# ---------------------------------------------------------------------------
# Station construction helpers
# ---------------------------------------------------------------------------


def derive_partner_centers(
    source: SourceModel,
    station_fixed: StationConfig,
    station_free: StationConfig,
    basis: str,
) -> tuple[float, float]:
    """Slit centers for the free station (party A) maximizing same-basis hits.

    For each of the fixed station's slits, the free station's matching slit
    center maximizes the oracle coincidence probability per accepted photon
    (the coincidence rate conditioned on the free slit firing).  This aligns
    the partner's conditional peak onto the fixed slit; the unconditioned
    rate would drag both slits toward the marginal's peak and shrink the peak
    separation below the slit separation.  With anticorrelated momenta the
    momentum-basis slits land on the mirrored side of the axis automatically.
    """
    free_dets = station_free.detectors(basis)
    centers = []
    for idx, _fixed_det in enumerate(station_fixed.detectors(basis)):
        width = free_dets[idx].width

        def neg_conditional(center: float, _w=width, _i=idx) -> float:
            trial_det = SlitDetector(center=center, width=_w, logical_bit=0)
            probe = _single_slit_station(station_free, basis, trial_det)
            joint = coincidence_probability(
                source, probe, station_fixed, basis, basis, 1, _i + 1,
                include_attenuation=False,
            )
            lo, hi = probe.latent_window(basis, trial_det)
            mass = _window_mass(source, basis, lo, hi)
            return -joint / mass if mass > 0 else 0.0

        span = 6.0 * marginal_std(source, basis)
        scale = station_free.alpha if basis == "x" else station_free.momentum_scale
        lo = station_free.origin - span / scale
        hi = station_free.origin + span / scale
        res = minimize_scalar(
            neg_conditional, bounds=(lo, hi), method="bounded", options={"xatol": 1e-9}
        )
        centers.append(float(res.x))
    return tuple(centers)


def _single_slit_station(station: StationConfig, basis: str, det: SlitDetector) -> StationConfig:
    """Station clone whose first detector of `basis` is `det` (probe helper)."""
    second = SlitDetector(
        center=det.center + 1000.0 * det.width, width=det.width, logical_bit=1
    )
    if basis == "x":
        return replace(station, x_detectors=(det, second))
    return replace(station, p_detectors=(det, second))


# ---------------------------------------------------------------------------
# Level equalization (neutral filters)
# ---------------------------------------------------------------------------


def diagonal_attenuation(probabilities: Iterable[float]) -> list[float]:
    """Per-cell factors that bring every value down to the minimum.

    This is the neutral-filter arithmetic for a set of same-basis "right"
    levels: the smallest level keeps factor 1, every other level is scaled by
    min / value.
    """
    values = [float(p) for p in probabilities]
    if any(v <= 0 for v in values):
        raise ValueError("cannot equalize around a zero or negative level")
    lowest = min(values)
    return [lowest / v for v in values]


def equalize_levels(
    source: SourceModel,
    station_A: StationConfig,
    station_B: StationConfig,
) -> tuple[StationConfig, StationConfig]:
    """Attach per-detector attenuation factors balancing the coincidence levels.

    Two multiplicative stages, both computed from the quadrature oracle:

    1. Within each station and basis, thin the stronger slit so both slits
       pass equal single-photon mass, then thin one of party A's basis pairs
       so the position-momentum and momentum-position blocks agree.  Because
       mixed-basis probabilities factorize, all eight cross-basis coincidence
       probabilities are mutually equal after this stage.
    2. Scale the same-basis "right" probabilities to the minimum of the four.
       The cross-preserving freedom is one common factor per basis (split
       evenly between the parties), so this step is exact when the two slits
       of each basis start balanced, as in the default symmetric geometry.

    The factors are absolute: they are computed from the bare optics and
    replace any filters already present, so re-equalizing is a no-op.
    Returns new station configs; levels already equal map to factors 1.
    """
    factors_A = {("x", 0): 1.0, ("x", 1): 1.0, ("p", 0): 1.0, ("p", 1): 1.0}
    factors_B = dict(factors_A)

    # Stage 1a: balance the two slits of each station/basis on single mass.
    for station, factors in ((station_A, factors_A), (station_B, factors_B)):
        for basis in ("x", "p"):
            masses = []
            for det in station.detectors(basis):
                lo, hi = station.latent_window(basis, det)
                masses.append(_window_mass(source, basis, lo, hi))
            if min(masses) <= 0:
                raise ValueError(f"zero single-photon mass in basis {basis}; cannot equalize")
            small = min(masses)
            factors[(basis, 0)] *= small / masses[0]
            factors[(basis, 1)] *= small / masses[1]

    # Stage 1b: balance the xp block against the px block via party A.
    xp = _cross_level(source, station_A, station_B, "x", "p", factors_A, factors_B)
    px = _cross_level(source, station_A, station_B, "p", "x", factors_A, factors_B)
    if xp > px > 0:
        for i in (0, 1):
            factors_A[("x", i)] *= px / xp
    elif px > xp > 0:
        for i in (0, 1):
            factors_A[("p", i)] *= xp / px

    # Stage 2: bring the four "right" levels to their minimum, splitting each
    # basis correction evenly between the two parties so the cross block
    # stays uniform.
    diag = {}
    for basis in ("x", "p"):
        cells = []
        for idx in (1, 2):
            raw = coincidence_probability(
                source, station_A, station_B, basis, basis, idx, idx,
                include_attenuation=False,
            )
            cells.append(raw * factors_A[(basis, idx - 1)] * factors_B[(basis, idx - 1)])
        diag[basis] = cells
    lowest = min(min(cells) for cells in diag.values())
    if lowest <= 0:
        raise ValueError("zero diagonal coincidence probability; cannot equalize")
    for basis in ("x", "p"):
        pair_level = math.sqrt(diag[basis][0] * diag[basis][1])
        scale = min(lowest / pair_level, 1.0)
        for side in (factors_A, factors_B):
            side[(basis, 0)] *= math.sqrt(scale)
            side[(basis, 1)] *= math.sqrt(scale)

    return (
        _with_attenuation(station_A, factors_A),
        _with_attenuation(station_B, factors_B),
    )


def _cross_level(source, station_A, station_B, basis_A, basis_B, fA, fB) -> float:
    prob = coincidence_probability(
        source, station_A, station_B, basis_A, basis_B, 1, 1, include_attenuation=False
    )
    return prob * fA[(basis_A, 0)] * fB[(basis_B, 0)]


def _with_attenuation(station: StationConfig, factors) -> StationConfig:
    def scaled(basis: str, pair):
        return tuple(
            replace(det, attenuation=factors[(basis, i)]) for i, det in enumerate(pair)
        )

    return replace(
        station,
        x_detectors=scaled("x", station.x_detectors),
        p_detectors=scaled("p", station.p_detectors),
    )
