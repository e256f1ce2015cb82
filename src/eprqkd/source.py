"""Gaussian model of the transverse two-photon state from down-conversion.

The pair state is a zero-mean 4D Gaussian over (x_A, x_B, p_A, p_B), held in
crystal-plane coordinates with hbar = 1 (positions in mm, transverse momenta
in 1/mm).  It is parameterized by the standard deviations of the four
collective coordinates:

    sigma_minus = std(x_A - x_B)     sigma_plus = std(x_A + x_B)
    kappa_minus = std(p_A + p_B)     kappa_plus = std(p_A - p_B)

The strongly correlated combinations (x_A - x_B, p_A + p_B) are the narrow
ones for a down-conversion source; their conjugate partners must satisfy the
uncertainty products

    sigma_minus^2 * kappa_plus^2 >= 1
    sigma_plus^2  * kappa_minus^2 >= 1

or the Gaussian does not describe a physical state.  The source sits in the
entanglement regime when sigma_minus^2 * kappa_minus^2 < 1/4.

Position and momentum blocks are uncorrelated, so a single latent sample per
pair reproduces the detection statistics of all four basis pairings at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .detection import StationConfig

ENTANGLEMENT_BOUND = 0.25  # on sigma_minus^2 * kappa_minus^2, hbar = 1


class UnphysicalSourceError(ValueError):
    """Raised when the requested widths violate an uncertainty product."""


class CalibrationError(ValueError):
    """Raised when no latent width can reproduce a detected-variance target."""


@dataclass(frozen=True)
class PumpProfile:
    """Gaussian pump beam at the crystal face.

    waist_w is the spot size in mm; the angular spectrum is its Fourier
    conjugate and needs no separate parameter.
    """

    waist_w: float

    def __post_init__(self):
        if self.waist_w <= 0:
            raise ValueError(f"pump waist must be positive, got {self.waist_w}")


@dataclass(frozen=True)
class SourceModel:
    """Widths of the four collective coordinates plus the pump they came from.

    Instances are plain value objects; physicality is enforced by
    build_source, so tests may construct degenerate models directly.
    """

    sigma_minus: float
    sigma_plus: float
    kappa_minus: float
    kappa_plus: float
    pump: PumpProfile

    @property
    def entangled(self) -> bool:
        """True when the correlated-quadrature product beats the 1/4 bound."""
        return self.sigma_minus**2 * self.kappa_minus**2 < ENTANGLEMENT_BOUND

    def position_covariance(self) -> np.ndarray:
        """2x2 covariance of (x_A, x_B)."""
        s2p, s2m = self.sigma_plus**2, self.sigma_minus**2
        return np.array(
            [[(s2p + s2m) / 4.0, (s2p - s2m) / 4.0],
             [(s2p - s2m) / 4.0, (s2p + s2m) / 4.0]]
        )

    def momentum_covariance(self) -> np.ndarray:
        """2x2 covariance of (p_A, p_B)."""
        k2m, k2p = self.kappa_minus**2, self.kappa_plus**2
        return np.array(
            [[(k2m + k2p) / 4.0, (k2m - k2p) / 4.0],
             [(k2m - k2p) / 4.0, (k2m + k2p) / 4.0]]
        )


@dataclass(frozen=True)
class PairSample:
    """One emitted pair: crystal-plane positions (mm) and momenta (1/mm)."""

    x_A: float
    x_B: float
    p_A: float
    p_B: float


def build_source(
    sigma_minus: float,
    sigma_plus: float,
    kappa_minus: float,
    kappa_plus: float,
    pump: PumpProfile,
) -> SourceModel:
    """Validate widths and return the source model.

    Rejects non-positive widths and any set violating the uncertainty
    products sigma_minus*kappa_plus >= 1 or sigma_plus*kappa_minus >= 1.
    """
    widths = {
        "sigma_minus": sigma_minus,
        "sigma_plus": sigma_plus,
        "kappa_minus": kappa_minus,
        "kappa_plus": kappa_plus,
    }
    for name, value in widths.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")

    mp = sigma_minus**2 * kappa_plus**2
    pm = sigma_plus**2 * kappa_minus**2
    if mp < 1.0:
        raise UnphysicalSourceError(
            f"sigma_minus^2 * kappa_plus^2 = {mp:.6g} < 1 violates the "
            "uncertainty product for the (x_A - x_B, p_A - p_B) pair"
        )
    if pm < 1.0:
        raise UnphysicalSourceError(
            f"sigma_plus^2 * kappa_minus^2 = {pm:.6g} < 1 violates the "
            "uncertainty product for the (x_A + x_B, p_A + p_B) pair"
        )
    return SourceModel(sigma_minus, sigma_plus, kappa_minus, kappa_plus, pump)


def sample_pair(source: SourceModel, rng: np.random.Generator) -> PairSample:
    """Draw one pair from the latent Gaussian."""
    x_A, x_B, p_A, p_B = (col[0] for col in sample_pairs(source, 1, rng))
    return PairSample(float(x_A), float(x_B), float(p_A), float(p_B))


def sample_pairs(
    source: SourceModel, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw n pairs; returns (x_A, x_B, p_A, p_B) arrays.

    The four collective coordinates are sampled independently and rotated
    back, which guarantees the exact (sum, difference) variances and zero
    position-momentum cross covariance.
    """
    u = rng.standard_normal(n) * source.sigma_minus   # x_A - x_B
    v = rng.standard_normal(n) * source.sigma_plus    # x_A + x_B
    w = rng.standard_normal(n) * source.kappa_minus   # p_A + p_B
    z = rng.standard_normal(n) * source.kappa_plus    # p_A - p_B
    x_A = (v + u) / 2.0
    x_B = (v - u) / 2.0
    p_A = (w + z) / 2.0
    p_B = (w - z) / 2.0
    return x_A, x_B, p_A, p_B


def _gauss(value, std):
    return np.exp(-0.5 * (value / std) ** 2) / (std * math.sqrt(2.0 * math.pi))


def joint_density(
    source: SourceModel,
    basis_A: str,
    basis_B: str,
    u_A,
    u_B,
):
    """Probability density of the latent readout pair for one basis pairing.

    Arguments are crystal-plane values (mm for basis "x", 1/mm for basis
    "p").  Same-basis densities factor over the (sum, difference)
    coordinates; mixed-basis densities are products of the two single-party
    marginals because the position and momentum blocks are uncorrelated.
    Accepts scalars or arrays.
    """
    _check_basis(basis_A)
    _check_basis(basis_B)
    u_A = np.asarray(u_A, dtype=float)
    u_B = np.asarray(u_B, dtype=float)

    if basis_A == "x" and basis_B == "x":
        # Jacobian of (x_A, x_B) -> (sum, diff) is 2.
        out = 2.0 * _gauss(u_A + u_B, source.sigma_plus) * _gauss(u_A - u_B, source.sigma_minus)
    elif basis_A == "p" and basis_B == "p":
        out = 2.0 * _gauss(u_A + u_B, source.kappa_minus) * _gauss(u_A - u_B, source.kappa_plus)
    else:
        std_A = marginal_std(source, basis_A)
        std_B = marginal_std(source, basis_B)
        out = _gauss(u_A, std_A) * _gauss(u_B, std_B)
    if out.ndim == 0:
        return float(out)
    return out


def marginal_std(source: SourceModel, basis: str) -> float:
    """Single-party standard deviation of the latent readout coordinate."""
    _check_basis(basis)
    if basis == "x":
        return math.sqrt((source.sigma_plus**2 + source.sigma_minus**2) / 4.0)
    return math.sqrt((source.kappa_minus**2 + source.kappa_plus**2) / 4.0)


def _check_basis(basis: str):
    if basis not in ("x", "p"):
        raise ValueError(f"basis must be 'x' or 'p', got {basis!r}")


def calibrate_source(
    target_var_x: float,
    target_var_p: float,
    station_A: "StationConfig",
    station_B: "StationConfig",
    sigma_plus: float,
    kappa_plus: float,
    pump: PumpProfile,
) -> SourceModel:
    """Invert the detected-variance targets for the latent correlation widths.

    target_var_x is the detected variance of the position difference in
    detection-plane mm^2; target_var_p the detected variance of the momentum
    sum in 1/mm^2.  "Detected" adds the slit smearing floor of both parties
    (detection.slit_smearing_variance) to the latent variance, so each width
    follows in closed form:

        kappa_minus^2 = target_p - floor_p
        sigma_minus^2 = (4 (target_x - floor_x) - sigma_plus^2 (1/a_A - 1/a_B)^2)
                        / (1/a_A + 1/a_B)^2

    with a_A, a_B the imaging scales of the two stations.  A target at or
    below its floor, or an x target that sigma_plus alone already exceeds
    through unequal imaging scales, is infeasible and raises CalibrationError
    naming the basis.
    """
    from . import detection

    for name, value in (
        ("target_var_x", target_var_x),
        ("target_var_p", target_var_p),
        ("sigma_plus", sigma_plus),
        ("kappa_plus", kappa_plus),
    ):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"calibration {name} must be positive and finite, got {value}")

    excess = {}
    for basis, target in (("x", target_var_x), ("p", target_var_p)):
        floor = detection.slit_smearing_variance(station_A, station_B, basis)
        if floor >= target:
            raise CalibrationError(
                f"basis {basis}: slit smearing alone contributes {floor:.6g}, "
                f"at or above the target detected variance {target:.6g}"
            )
        excess[basis] = target - floor

    ia, ib = 1.0 / station_A.alpha, 1.0 / station_B.alpha
    anti = sigma_plus**2 * (ia - ib) ** 2
    if anti >= 4.0 * excess["x"]:
        raise CalibrationError(
            f"basis x: sigma_plus = {sigma_plus:.6g} through unequal imaging scales "
            f"alone contributes {anti / 4.0:.6g}, at or above the {excess['x']:.6g} "
            "left above the slit smearing floor"
        )
    return build_source(
        sigma_minus=math.sqrt(4.0 * excess["x"] - anti) / (ia + ib),
        sigma_plus=sigma_plus,
        kappa_minus=math.sqrt(excess["p"]),
        kappa_plus=kappa_plus,
        pump=pump,
    )
