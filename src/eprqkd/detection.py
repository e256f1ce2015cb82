"""Station optics, slit detectors, and the quadrature coincidence oracle.

Each station measures one transverse coordinate of its photon.  In the
position basis a lens images the crystal onto the detection plane, so the
detection-plane coordinate is x / alpha with alpha = O / (2 I); in the
momentum basis the crystal and detection planes sit in the focal planes of a
lens and the coordinate is p * f / k.  An optional origin offset models where
the translation stage's zero sits relative to the optical axis.

A slit detector accepts the closed latent window StationConfig.latent_window
maps its aperture to; protocol._Readout, the scans and the oracle all read it.
Two detectors per basis encode one key bit: detector index 1 is logical 0,
index 2 is logical 1.

coincidence_probability integrates the latent joint density over both
parties' acceptance windows with deterministic quadrature; it is the oracle
that every Monte Carlo estimate in the package is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .source import SourceModel, channel_law, marginal_std

QUAD_ABS_TOL = 1e-8

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


class QuadratureError(RuntimeError):
    """The same-basis coincidence quadrature missed its absolute error bound."""


def basis_index(basis: str) -> int:
    """0 for the position basis x, 1 for the momentum basis p."""
    if basis not in ("x", "p"):
        raise ValueError(f"basis must be 'x' or 'p', got {basis!r}")
    return "xp".index(basis)


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
        return (self.x_detectors, self.p_detectors)[basis_index(basis)]

    def latent_window(self, basis: str, detector: SlitDetector) -> tuple[float, float]:
        """The closed crystal-plane (latent) window a slit accepts."""
        scale = conversion_for(self, basis)
        return scale * (detector.lo - self.origin), scale * (detector.hi - self.origin)


def conversion_for(station: StationConfig, basis: str) -> float:
    """Detection-plane-to-latent scale of one basis: alpha for x, k/f for p."""
    return (station.alpha, station.momentum_scale)[basis_index(basis)]


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT2PI


def _cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _window_mass(source: SourceModel, basis: str, lo: float, hi: float) -> float:
    """Single-party latent probability mass in [lo, hi]."""
    std = marginal_std(source, basis)
    return _cdf(hi / std) - _cdf(lo / std)


def _cell_probability(source, basis_A, basis_B, window_A, window_B) -> float:
    """Latent probability that A lands in window_A and B in window_B.

    Same-basis cells integrate B's law given A's latent (source.channel_law)
    over A's window by adaptive quadrature, absolute error below 1e-8, with
    the conditional CDF inside; mixed-basis cells factor into two masses.
    """
    if basis_A != basis_B:
        mass_B = _window_mass(source, basis_B, *window_B)
        return _window_mass(source, basis_A, *window_A) * mass_B

    from scipy.integrate import quad

    b_lo, b_hi = window_B
    std, slope, cond_std = (float(law[basis_index(basis_A)]) for law in channel_law(source))
    cond_std = max(cond_std, 1e-150)  # exactly 0 for a perfect correlation

    def integrand(u: float) -> float:
        mu = slope * u
        inner = _cdf((b_hi - mu) / cond_std) - _cdf((b_lo - mu) / cond_std)
        return inner * _phi(u / std) / std

    prob, err = quad(integrand, *window_A, epsabs=QUAD_ABS_TOL * 1e-2, limit=200)
    if err > QUAD_ABS_TOL:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {QUAD_ABS_TOL:.1e}"
        )
    return prob


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

    det_A / det_B are detector indices (1 or 2).  The probability is the
    latent mass of the two slits' closed latent windows (_cell_probability);
    attenuation factors thin it unless include_attenuation is False.
    """
    slit_A = station_A.detectors(basis_A)[det_A - 1]
    slit_B = station_B.detectors(basis_B)[det_B - 1]
    prob = _cell_probability(
        source, basis_A, basis_B,
        station_A.latent_window(basis_A, slit_A),
        station_B.latent_window(basis_B, slit_B),
    )
    if include_attenuation:
        prob *= slit_A.attenuation * slit_B.attenuation
    return prob


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
    w_A, w_B = (station.detectors(basis)[0].width for station in (station_A, station_B))
    if basis == "p":
        w_A, w_B = w_A * station_A.momentum_scale, w_B * station_B.momentum_scale
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
    from scipy.optimize import minimize_scalar

    span = 6.0 * marginal_std(source, basis) / conversion_for(station_free, basis)
    bounds = (station_free.origin - span, station_free.origin + span)
    fixed = [station_fixed.latent_window(basis, d) for d in station_fixed.detectors(basis)]
    centers = []
    for free_det, fixed_window in zip(station_free.detectors(basis), fixed):

        def neg_conditional(center: float, _det=free_det, _fixed=fixed_window) -> float:
            window = station_free.latent_window(basis, replace(_det, center=center))
            joint = _cell_probability(source, basis, basis, window, _fixed)
            mass = _window_mass(source, basis, *window)
            return -joint / mass if mass > 0 else 0.0

        res = minimize_scalar(
            neg_conditional, bounds=bounds, method="bounded", options={"xatol": 1e-9}
        )
        centers.append(float(res.x))
    return tuple(centers)


# ---------------------------------------------------------------------------
# Level equalization (neutral filters)
# ---------------------------------------------------------------------------


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
