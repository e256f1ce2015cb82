"""Station optics, slit detectors, and the closed-form coincidence oracle.

Each station measures one transverse coordinate of its photon.  In the
position basis a lens images the crystal onto the detection plane, so the
detection-plane coordinate is x / alpha with alpha = O / (2 I); in the
momentum basis the crystal and detection planes sit in the focal planes of a
lens and the coordinate is p * f / k.  An optional origin offset models where
the translation stage's zero sits relative to the optical axis.

A slit detector accepts the closed latent window StationConfig.latent_window
maps its aperture to.  standard_window divides it by the basis's std
(source.channel_law), and slit_cell turns a slit pair into the cell
(window_A, window_B, rho, s, weight) of source.PairKernel.  The oracle
(cell_probability), the sessions, the scans and the setup all read slit_cell
or standard_window, so they share its floats.
Two detectors per basis encode one key bit: detector index 1 is logical 0,
index 2 is logical 1.

coincidence_probability is the latent joint mass of both parties' acceptance
windows in closed form (cell_probability): a product of two normal masses for
independent coordinates (across bases, or rho = 0) and a bivariate-normal
rectangle (four upper-orthant probabilities, Genz's method) otherwise.  It is
the oracle that every Monte Carlo estimate in the package is checked against,
and it needs nothing beyond the math module.  Oracle evaluations share one
read-through cache of per-correlation quadrature constants (_orthant_rule),
which does not change any result.

The detected variance of the collective coordinate (detected_variance) and
its closed-form inverse (calibrate_source, which solves the two squeezed
widths from variance targets) read one per-basis statement of the model,
_variance_terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .source import PumpProfile, SourceModel, basis_index, build_source, channel_law

_SQRT2 = math.sqrt(2.0)
_TWOPI = 2.0 * math.pi
_SQRT2PI = math.sqrt(_TWOPI)

_CENTER_TOL_MM = 1e-12
_NEWTON_MAX_STEPS = 100

# Gauss-Legendre rules on [-1, 1] by their positive nodes and weights (the
# rules are symmetric): 6, 12 and 20 points for |r| below 0.3, 0.75 and 1.
_GAUSS_LEGENDRE = (
    (0.3,
     (0.2386191860831969, 0.6612093864662645, 0.9324695142031519),
     (0.46791393457269104, 0.3607615730481387, 0.17132449237917027)),
    (0.75,
     (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
      0.7699026741943047, 0.9041172563704748, 0.9815606342467192),
     (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
      0.16007832854334642, 0.10693932599531907, 0.04717533638651141)),
    (math.inf,
     (0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
      0.5108670019508271, 0.636053680726515, 0.7463319064601508,
      0.8391169718222188, 0.912234428251326, 0.9639719272779138,
      0.993128599185095),
     (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
      0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
      0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
      0.017614007139150893)),
)


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
        for basis, (first, second) in zip("xp", (self.x_detectors, self.p_detectors)):
            if first.logical_bit != 0 or second.logical_bit != 1:
                raise ValueError("detector 1 must carry bit 0 and detector 2 bit 1")
            if first.hi >= second.lo and second.hi >= first.lo:
                raise ValueError(
                    f"{basis} slit intervals overlap: [{first.lo}, {first.hi}] and "
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
# Closed-form oracle
# ---------------------------------------------------------------------------


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT2PI


def _cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def _normal_mass(lo: float, hi: float) -> float:
    """Standard normal mass of [lo, hi], taken on the side where it does not cancel."""
    return _cdf(hi) - _cdf(lo) if lo + hi < 0.0 else _cdf(-lo) - _cdf(-hi)


@functools.lru_cache(maxsize=16)  # a setup reads two values of r, one per basis
def _orthant_rule(r: float) -> tuple:
    """The terms of _upper_orthant's rule that depend on r alone.

    Each node x enters at t = 1 - x and 1 + x, in the order the sum runs.
    Below |r| = 0.925 this is asin(r) and (w, sn, 1 - sn^2) per point; nearer
    1 it is 1 - r^2, its root a and (w, xs, rs, 2 (1 + rs)^2) per point; at
    |r| >= 1 it is empty.  r = -0.0 may be served r = 0.0's rule: the two
    differ only in the sign of zero terms, which no orthant value keeps.
    """
    nodes, weights = next((x, w) for bound, x, w in _GAUSS_LEGENDRE if abs(r) < bound)
    points = [(w, t) for x, w in zip(nodes, weights) for t in (1.0 - x, 1.0 + x)]
    if abs(r) < 0.925:
        asr = math.asin(r)
        return asr, tuple((w, sn := math.sin(asr * t / 2.0), 1.0 - sn * sn) for w, t in points)
    if abs(r) >= 1.0:
        return ()
    aa = (1.0 - r) * (1.0 + r)
    a = math.sqrt(aa)
    return aa, a, tuple(
        (w, xs := (a / 2.0 * t) ** 2, rs := math.sqrt(1.0 - xs), 2.0 * (1.0 + rs) ** 2)
        for w, t in points
    )


def _upper_orthant(h: float, k: float, r: float) -> float:
    """P(X > h, Y > k) for standard normals X, Y with correlation r.

    Genz, Stat. Comput. 14:251 (2004), after Drezner & Wesolowsky, J. Stat.
    Comput. Simul. 35:101 (1990).  For |r| < 0.925 a Gauss-Legendre rule
    integrates Plackett's dP/dr over asin(r); nearer 1 the integrand in
    sqrt(1 - r^2) has its singular part taken out in closed form first.
    The terms that depend on r alone come from _orthant_rule.  The absolute
    error is about 1e-16.
    """
    rule = _orthant_rule(r)
    hk = h * k
    if abs(r) < 0.925:
        asr, points = rule
        hs = (h * h + k * k) / 2.0
        total = 0.0
        for w, sn, den in points:
            total += w * math.exp((sn * hk - hs) / den)
        return total * asr / (2.0 * _TWOPI) + _cdf(-h) * _cdf(-k)
    if r < 0:
        k, hk = -k, -hk
    bvn = 0.0
    if abs(r) < 1.0:
        aa, a, points = rule
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 80.0
        bvn = a * math.exp(-(bs / aa + hk) / 2.0) * (
            1.0 - c * (bs - aa) * (1.0 - d * bs) / 3.0 + c * d * aa * aa
        )
        if hk > -100.0:
            b = math.sqrt(bs)
            bvn -= (math.exp(-hk / 2.0) * _SQRT2PI * _cdf(-b / a) * b
                    * (1.0 - c * bs * (1.0 - d * bs) / 3.0))
        total = 0.0
        for w, xs, rs, den in points:
            asr = -(bs / xs + hk) / 2.0
            total += w * (
                math.exp(asr) * (1.0 + c * xs * (1.0 + 5.0 * d * xs))
                - math.exp(asr - hk * xs / den) / rs
            )
        bvn = (a / 2.0 * total - bvn) / _TWOPI
    if r > 0:
        return bvn + _cdf(-max(h, k))
    if h >= k:
        return -bvn
    return (_cdf(k) - _cdf(h) if h < 0 else _cdf(-h) - _cdf(-k)) - bvn


def _rectangle(h0: float, h1: float, k0: float, k1: float, r: float) -> float:
    """P(h0 <= X <= h1, k0 <= Y <= k1) for the standard pair of _upper_orthant.

    The pair is symmetric under (X, Y) -> (-X, -Y), so a window on X's
    negative side is reflected to keep the four orthants small.
    """
    if h0 + h1 < 0.0:
        h0, h1, k0, k1 = -h1, -h0, -k1, -k0
    rect = (_upper_orthant(h0, k0, r) - _upper_orthant(h0, k1, r)) - (
        _upper_orthant(h1, k0, r) - _upper_orthant(h1, k1, r)
    )
    return max(rect, 0.0)


def standard_window(station: StationConfig, basis: str, slit: SlitDetector, std: float):
    """The slit's latent window over std: the window its standard normal must fall in."""
    lo, hi = station.latent_window(basis, slit)
    return lo / std, hi / std


def slit_cell(law, station_A, station_B, basis_A, basis_B, slit_A, slit_B, weight) -> tuple:
    """The source.PairKernel cell (window_A, window_B, rho, s, weight) of one slit pair.

    law is source.channel_law(source), computed once per table by the
    caller.  Windows are standard_window's; a same-basis pair carries its
    basis's (rho, s), a cross-basis pair the independent (0, 1).
    """
    std, rho, s = law
    i, j = basis_index(basis_A), basis_index(basis_B)
    return (
        standard_window(station_A, basis_A, slit_A, std[i]),
        standard_window(station_B, basis_B, slit_B, std[j]),
        *((rho[i], s[i]) if i == j else (0.0, 1.0)),
        weight,
    )


def cell_probability(cell) -> float:
    """weight x the probability that A's standard normal is in window_A and B's in window_B.

    A bivariate-normal rectangle with correlation rho; at rho = 0 the two
    are independent and the mass is the product of two normal masses.
    """
    (h0, h1), (k0, k1), rho, _, weight = cell
    if rho == 0.0:
        return weight * (_normal_mass(h0, h1) * _normal_mass(k0, k1))
    return weight * _rectangle(h0, h1, k0, k1, rho)


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
    """Joint click probability for one detector pair, in closed form.

    det_A / det_B are detector indices, the ints 1 or 2.  The probability is
    cell_probability of the two slits' slit_cell, weighted by both
    attenuation factors unless include_attenuation is False.
    """
    if type(det_A) is not int or not 0 < det_A < 3:  # a bool is not an index
        raise ValueError(f"det_A must be 1 or 2, got {det_A!r}")
    if type(det_B) is not int or not 0 < det_B < 3:
        raise ValueError(f"det_B must be 1 or 2, got {det_B!r}")
    slit_A = station_A.detectors(basis_A)[det_A - 1]
    slit_B = station_B.detectors(basis_B)[det_B - 1]
    weight = slit_A.attenuation * slit_B.attenuation if include_attenuation else 1.0
    cell = slit_cell(
        channel_law(source), station_A, station_B, basis_A, basis_B, slit_A, slit_B, weight
    )
    return cell_probability(cell)


# ---------------------------------------------------------------------------
# Detected variance of the correlated coordinate and its inverse (calibration)
# ---------------------------------------------------------------------------


class CalibrationError(ValueError):
    """Raised when no latent width can reproduce a detected-variance target."""


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


def _variance_terms(
    sigma_plus: float, station_A: StationConfig, station_B: StationConfig, basis: str
) -> tuple[float, float, float]:
    """(g, a, floor) with detected variance ((w g)^2 + a) / 4 + floor.

    w is the squeezed width of the basis, sigma_minus for x and kappa_minus
    for p.  The recorded position difference is x_A / alpha_A - x_B / alpha_B,
    so for x g = 1/alpha_A + 1/alpha_B and a = sigma_plus^2 (1/alpha_A -
    1/alpha_B)^2; the momentum sum p_A + p_B is the latent coordinate
    itself, g = 2 and a = 0.  floor is slit_smearing_variance.
    """
    floor = slit_smearing_variance(station_A, station_B, basis)
    if basis == "p":
        return 2.0, 0.0, floor
    ia, ib = 1.0 / station_A.alpha, 1.0 / station_B.alpha
    return ia + ib, sigma_plus**2 * (ia - ib) ** 2, floor


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
    add: the latent variance ((w g)^2 + a) / 4 plus slit_smearing_variance,
    with the terms of _variance_terms.
    """
    width = (source.sigma_minus, source.kappa_minus)[basis_index(basis)]
    g, a, floor = _variance_terms(source.sigma_plus, station_A, station_B, basis)
    return ((width * g) ** 2 + a) / 4.0 + floor


def calibrate_source(
    target_var_x: float,
    target_var_p: float,
    station_A: StationConfig,
    station_B: StationConfig,
    sigma_plus: float,
    kappa_plus: float,
    pump: PumpProfile,
) -> SourceModel:
    """Invert detected_variance for the two squeezed widths.

    target_var_x is the detected variance of the position difference in
    detection-plane mm^2; target_var_p that of the momentum sum in 1/mm^2.
    With _variance_terms' (g, a, floor) per basis each width follows in
    closed form, w = sqrt(4 (target - floor) - a) / g.  A target at or below
    its floor, or an x target that sigma_plus alone already exceeds through
    unequal imaging scales, is infeasible and raises CalibrationError naming
    the basis.
    """
    for name, value in (
        ("target_var_x", target_var_x),
        ("target_var_p", target_var_p),
        ("sigma_plus", sigma_plus),
        ("kappa_plus", kappa_plus),
    ):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"calibration {name} must be positive and finite, got {value}")

    widths = []
    for basis, target in (("x", target_var_x), ("p", target_var_p)):
        g, a, floor = _variance_terms(sigma_plus, station_A, station_B, basis)
        if floor >= target:
            raise CalibrationError(
                f"basis {basis}: slit smearing alone contributes {floor:.6g}, "
                f"at or above the target detected variance {target:.6g}"
            )
        excess = target - floor
        if a >= 4.0 * excess:
            raise CalibrationError(
                f"basis {basis}: sigma_plus = {sigma_plus:.6g} through unequal imaging scales "
                f"alone contributes {a / 4.0:.6g}, at or above the {excess:.6g} "
                "left above the slit smearing floor"
            )
        widths.append(math.sqrt(4.0 * excess - a) / g)
    return build_source(widths[0], sigma_plus, widths[1], kappa_plus, pump)


# ---------------------------------------------------------------------------
# Station construction helpers
# ---------------------------------------------------------------------------


def _ratio_slopes(h0, h1, k0, k1, rho, s) -> tuple[float, float]:
    """g = J'M - JM' and its derivative g' = J''M - JM'' for a sliding window.

    J is the standard pair's mass in [h0, h1] x [k0, k1] (_rectangle), M the
    mass of [h0, h1], and primes differentiate in a shift of [h0, h1]; s is
    sqrt(1 - rho^2).  With e(h) = phi(h) P(k0 <= Y <= k1 | X = h),
    J' = e(h1) - e(h0) and M' = phi(h1) - phi(h0), and so on down.
    """

    def edge(h: float) -> tuple[float, float]:
        z0, z1 = (k0 - rho * h) / s, (k1 - rho * h) / s
        cond, d_cond = _normal_mass(z0, z1), rho / s * (_phi(z0) - _phi(z1))
        return _phi(h) * cond, _phi(h) * (d_cond - h * cond)

    (e0, de0), (e1, de1) = edge(h0), edge(h1)
    joint, mass = _rectangle(h0, h1, k0, k1, rho), _normal_mass(h0, h1)
    d_mass, dd_mass = _phi(h1) - _phi(h0), h0 * _phi(h0) - h1 * _phi(h1)
    return (e1 - e0) * mass - joint * d_mass, (de1 - de0) * mass - joint * dd_mass


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

    With J the joint cell mass and M the free window's mass, the center is
    the root of g = J'M - JM' (derivatives in the center), found by Newton
    from the conditional peak, where B's conditional mean meets the fixed
    slit's midpoint.  J', J'', M' and M'' are closed forms in phi and Phi at
    the free window's edges.  Each step narrows a bracket of origin +- 6
    marginal stds, and a step that would leave it bisects it instead.
    """
    i = basis_index(basis)
    std, rho, s = (law[i] for law in channel_law(source))
    s = max(s, 1e-150)  # exactly 0 for a perfect correlation
    gain = conversion_for(station_free, basis) / std  # standardized units per mm
    span = 6.0 / gain
    centers = []
    for free_det, fixed_det in zip(station_free.detectors(basis), station_fixed.detectors(basis)):
        k0, k1 = standard_window(station_fixed, basis, fixed_det, std)
        lo, hi = station_free.origin - span, station_free.origin + span
        peak = 0.5 * (k0 + k1) / (rho * gain) if rho != 0.0 else 0.0
        center = min(max(station_free.origin + peak, lo), hi)
        for _ in range(_NEWTON_MAX_STEPS):
            h0, h1 = standard_window(station_free, basis, replace(free_det, center=center), std)
            g, dg = _ratio_slopes(h0, h1, k0, k1, rho, s)
            if g == 0.0:
                break
            lo, hi = (center, hi) if g > 0.0 else (lo, center)
            if hi - lo <= _CENTER_TOL_MM:
                break
            step = g / (dg * gain) if dg < 0.0 else math.inf
            if abs(step) <= _CENTER_TOL_MM:
                center -= step
                break
            center = center - step if lo < center - step < hi else 0.5 * (lo + hi)
        centers.append(center)
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

    Two multiplicative stages, both computed from the coincidence oracle:

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
    law, stations = channel_law(source), (station_A, station_B)

    # Stage 1a: balance the two slits of each station/basis on single mass.
    # mass and factors are [station][basis][slit] tables, station A first.
    mass = [[[_normal_mass(*standard_window(station, basis, det, law[0][b]))
              for det in station.detectors(basis)] for b, basis in enumerate("xp")]
            for station in stations]
    for side in mass:
        for basis, masses in zip("xp", side):
            if min(masses) <= 0:
                raise ValueError(f"zero single-photon mass in basis {basis}; cannot equalize")
    factors = [[[min(masses) / m for m in masses] for masses in side] for side in mass]
    (mass_A, mass_B), (factors_A, factors_B) = mass, factors

    # Stage 1b: balance the xp block against the px block via party A.  A
    # mixed-basis cell is the product of the two single-slit masses.
    xp, px = (mass_A[a][0] * mass_B[1 - a][0] * factors_A[a][0] * factors_B[1 - a][0]
              for a in (0, 1))
    if xp > px > 0:
        factors_A[0] = [f * (px / xp) for f in factors_A[0]]
    elif px > xp > 0:
        factors_A[1] = [f * (xp / px) for f in factors_A[1]]

    # Stage 2: bring the four "right" levels to their minimum, splitting each
    # basis correction evenly between the two parties so the cross block
    # stays uniform.
    diag = [[cell_probability(slit_cell(law, *stations, basis, basis, *pair, 1.0))
             * factors_A[b][i] * factors_B[b][i]
             for i, pair in enumerate(zip(station_A.detectors(basis), station_B.detectors(basis)))]
            for b, basis in enumerate("xp")]
    lowest = min(min(cells) for cells in diag)
    if lowest <= 0:
        raise ValueError("zero diagonal coincidence probability; cannot equalize")
    for b, cells in enumerate(diag):
        pair_level = math.sqrt(cells[0] * cells[1])
        scale = min(lowest / pair_level, 1.0)
        for side in factors:
            side[b] = [f * math.sqrt(scale) for f in side[b]]
    return tuple(_with_slits(st, "attenuation", side) for st, side in zip(stations, factors))


def _with_slits(station: StationConfig, field: str, table) -> StationConfig:
    """station whose slits each take field (center or attenuation) from table[basis][slit]."""
    x, p = (tuple(replace(det, **{field: value}) for det, value in zip(pair, values))
            for pair, values in zip((station.x_detectors, station.p_detectors), table))
    return replace(station, x_detectors=x, p_detectors=p)
