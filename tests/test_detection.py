import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.stats import multivariate_normal

from eprqkd import detection, protocol
from eprqkd.defaults import assemble_setup
from eprqkd.detection import (
    SlitDetector,
    StationConfig,
    _GAUSS_LEGENDRE,
    _cdf,
    _orthant_rule,
    _rectangle,
    _upper_orthant,
    calibrate_source,
    cell_probability,
    coincidence_probability,
    conversion_for,
    derive_partner_centers,
    detected_variance,
    equalize_levels,
    slit_cell,
    slit_smearing_variance,
)
from eprqkd.protocol import tally_coincidences
from eprqkd.source import (
    PairKernel,
    PumpProfile,
    SourceModel,
    build_source,
    channel_law,
    sample_pairs,
)

from conftest import OPEN_STATION, make_station, oracle_table, window_mass

PUMP = PumpProfile(2.0)


def position_covariance(source):
    """Reference 2x2 covariance of (x_A, x_B) from the collective widths."""
    s2p, s2m = source.sigma_plus**2, source.sigma_minus**2
    return np.array(
        [[(s2p + s2m) / 4.0, (s2p - s2m) / 4.0],
         [(s2p - s2m) / 4.0, (s2p + s2m) / 4.0]]
    )


def momentum_covariance(source):
    """Reference 2x2 covariance of (p_A, p_B) from the collective widths."""
    k2m, k2p = source.kappa_minus**2, source.kappa_plus**2
    return np.array(
        [[(k2m + k2p) / 4.0, (k2m - k2p) / 4.0],
         [(k2m - k2p) / 4.0, (k2m + k2p) / 4.0]]
    )


class TestStationValidation:
    def test_overlapping_slits_rejected(self):
        with pytest.raises(ValueError, match="^x slit intervals overlap"):
            make_station(x_centers=(1.0, 1.1))
        with pytest.raises(ValueError, match="^p slit intervals overlap"):
            make_station(p_centers=(1.0, 1.4))

    def test_bit_order_enforced(self):
        with pytest.raises(ValueError, match="bit"):
            StationConfig(
                object_distance=200, image_distance=600, focal_length=150, wavenumber=330,
                x_detectors=(SlitDetector(1.0, 0.2, 1), SlitDetector(2.0, 0.2, 0)),
                p_detectors=(SlitDetector(1.0, 0.5, 0), SlitDetector(2.0, 0.5, 1)),
            )

    def test_positive_geometry_enforced(self):
        for kwargs, field in (
            ({"O": -1.0}, "object_distance"),
            ({"O": math.nan}, "object_distance"),
            ({"I": math.inf}, "image_distance"),
            ({"f": math.nan}, "focal_length"),
            ({"k": -math.inf}, "wavenumber"),
            ({"origin": math.nan}, "origin"),
        ):
            with pytest.raises(ValueError, match=field):
                make_station(**kwargs)

    @pytest.mark.parametrize(
        "center,width,field",
        [(math.inf, 0.2, "center"), (math.nan, 0.2, "center"), (1.0, math.nan, "width"),
         (1.0, math.inf, "width"), (1.0, 0.0, "width")],
    )
    def test_finite_slit_enforced(self, center, width, field):
        with pytest.raises(ValueError, match=field):
            SlitDetector(center, width, 0)

    def test_attenuation_range(self):
        with pytest.raises(ValueError):
            SlitDetector(1.0, 0.2, 0, attenuation=0.0)
        with pytest.raises(ValueError):
            SlitDetector(1.0, 0.2, 0, attenuation=1.2)


def slit_pair(center, width_1, gap, width_2):
    second = center + width_1 / 2.0 + gap + width_2 / 2.0
    return SlitDetector(center, width_1, 0), SlitDetector(second, width_2, 1)


@st.composite
def stations(draw):
    """Stations with every length drawn, origin included; no filters."""
    length = st.floats(10.0, 1000.0)
    slits = st.builds(
        slit_pair, st.floats(-5.0, 5.0), st.floats(0.01, 2.0), st.floats(0.01, 2.0),
        st.floats(0.01, 2.0),
    )
    return StationConfig(
        object_distance=draw(length), image_distance=draw(length),
        focal_length=draw(length), wavenumber=draw(st.floats(10.0, 5000.0)),
        x_detectors=draw(slits), p_detectors=draw(slits), origin=draw(st.floats(-3.0, 3.0)),
    )


class TestReadout:
    """The imaging and Fourier maps, read through StationConfig.latent_window."""

    def test_imaging_scale_example(self):
        station = make_station()  # alpha = 200/(2*600) = 1/6
        assert math.isclose(station.alpha, 1.0 / 6.0)
        # A slit at 1.2 mm in the detection plane sees x = 0.2 mm at the crystal.
        lo, hi = station.latent_window("x", SlitDetector(1.2, 0.2, 0))
        assert math.isclose((lo + hi) / 2.0, 0.2)
        assert math.isclose(hi - lo, 0.2 / 6.0)

    def test_zero_momentum_maps_to_origin(self):
        station = make_station()
        lo, hi = station.latent_window("p", SlitDetector(0.0, 0.5, 0))
        assert lo == -hi
        shifted = dataclasses.replace(station, origin=1.5)
        lo, hi = shifted.latent_window("p", SlitDetector(1.5, 0.5, 0))
        assert lo == -hi

    def test_unknown_basis_rejected(self):
        station = make_station()
        with pytest.raises(ValueError, match="'z'"):
            station.latent_window("z", station.x_detectors[0])


# Imaging scale 200 / (2 * 100) = 1 and Fourier gain f / k = 1 with the origin
# at 0: latent coordinates equal detection-plane mm in both bases.
UNIT_STATION = make_station(
    O=200.0, I=100.0, f=150.0, k=150.0, p_centers=(3.0, 4.0), p_width=0.2
)


class _Uniforms:
    """A generator stand-in whose random() returns the given rows of uniforms."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)

    def random(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


class TestClick:
    """protocol._cells and source.PairKernel's closed windows: the one click rule."""

    @settings(max_examples=300, deadline=None)
    @given(
        widths=st.tuples(*(st.floats(0.05, 10.0) for _ in range(4))),
        station_A=stations(),
        station_B=stations(),
    )
    @example(  # a slit edge on each origin: windows with an end at zero
        widths=(0.3, 1.8, 0.6, 3.7), station_A=make_station(x_centers=(0.1, 1.0)),
        station_B=make_station(p_centers=(-0.25, 1.0), origin=0.0),
    )
    def test_slit_cells_hold_the_standard_windows(self, widths, station_A, station_B):
        # Cell 8 b_A + 4 d_A + 2 b_ch + d_ch reads A's slit d_A in basis b_A
        # and the channel's slit d_ch in basis b_ch, all four basis pairings,
        # and holds each slit's latent window over its basis's std bit for
        # bit, the sign of a zero included: the floats the oracle, the
        # scans and the sessions compare with.
        source = SourceModel(*widths, PUMP)
        std = channel_law(source)[0]
        cells = protocol._cells(source, station_A, station_B, None)
        for k, (window_A, window_ch, *_) in enumerate(cells):
            b_A, d_A, b_ch, d_ch = k >> 3, (k >> 2) & 1, (k >> 1) & 1, k & 1
            for station, b, d, window in ((station_A, b_A, d_A, window_A), (station_B, b_ch, d_ch, window_ch)):
                basis = "xp"[b]
                lo, hi = station.latent_window(basis, station.detectors(basis)[d])
                assert [v.hex() for v in window] == [(lo / std[b]).hex(), (hi / std[b]).hex()], (k, b, d)

    def test_boundary_is_closed(self):
        # A cross-basis cell's box is its two windows, so proposals at the
        # corners land on the window ends and are kept; one double past an
        # end is not.
        (lo, hi), (c0, c1) = (0.5, 0.75), (-0.25, 0.5)
        kernel = PairKernel([((lo, hi), (c0, c1), 0.0, 1.0, 1.0)])
        corners = [(0.0, u, v, 0.0) for u in (0.0, 1.0) for v in (0.0, 1.0)]
        index, cell = kernel.kept(_Uniforms(np.transpose(corners)), 4)
        assert index.tolist() == [0, 1, 2, 3] and cell.tolist() == [0] * 4
        past = [
            ((np.nextafter(lo, -np.inf) - lo) / (hi - lo), 0.0),
            ((np.nextafter(hi, np.inf) - lo) / (hi - lo), 0.0),
            (0.0, (np.nextafter(c0, -np.inf) - c0) / (c1 - c0)),
            (0.0, (np.nextafter(c1, np.inf) - c0) / (c1 - c0)),
        ]
        for u, v in past:
            z, w = lo + (hi - lo) * u, c0 + (c1 - c0) * v
            assert not (lo <= z <= hi and c0 <= w <= c1)  # the proposal is one double outside
        rows = np.transpose([(0.0, u, v, 0.0) for u, v in past])
        assert kernel.kept(_Uniforms(rows), 4)[0].size == 0

    def test_bit_mapping(self):
        # Detector index d carries logical bit d, and the key writes it as is.
        for basis in ("x", "p"):
            assert [det.logical_bit for det in UNIT_STATION.detectors(basis)] == [0, 1]
        assert protocol._bit_string(np.array([0, 1, 1, 0], dtype=np.int8)) == "0110"


class TestCoincidenceOracle:
    def test_mixed_basis_factorizes(self, default_experiment):
        source, alice, bob = default_experiment
        for det_A in (1, 2):
            for det_B in (1, 2):
                joint = coincidence_probability(
                    source, alice, bob, "x", "p", det_A, det_B, include_attenuation=False
                )
                slit_A = alice.x_detectors[det_A - 1]
                slit_B = bob.p_detectors[det_B - 1]
                mass_A = window_mass(source, "x", *alice.latent_window("x", slit_A))
                mass_B = window_mass(source, "p", *bob.latent_window("p", slit_B))
                assert abs(joint - mass_A * mass_B) < 1e-8

    def test_perfect_correlation_limit(self):
        station = make_station(O=200.0, I=100.0)  # alpha = 1
        tight = SourceModel(1e-9, 2.0, 0.9, 4.0, PUMP)
        p_same = coincidence_probability(tight, station, station, "x", "x", 1, 1)
        p_cross = coincidence_probability(tight, station, station, "x", "x", 1, 2)
        lo, hi = station.latent_window("x", station.x_detectors[0])
        assert abs(p_same - window_mass(tight, "x", lo, hi)) < 1e-8
        assert p_cross < 1e-12

    @pytest.mark.parametrize("bad", [0, 3, -1, True])
    @pytest.mark.parametrize("field", ["det_A", "det_B"])
    def test_detector_index_must_be_one_or_two(self, default_experiment, field, bad):
        # 0 and -1 would index from the end (detector 2's cell), 3 past it,
        # and True is an int equal to 1.
        source, alice, bob = default_experiment
        dets = {"det_A": 1, "det_B": 1, field: bad}
        with pytest.raises(ValueError, match=field):
            coincidence_probability(source, alice, bob, "x", "x", **dets)

    def test_wrong_to_right_ratio_with_defaults(self, default_experiment):
        source, alice, bob = default_experiment
        right = coincidence_probability(source, alice, bob, "x", "x", 1, 1)
        wrong = coincidence_probability(source, alice, bob, "x", "x", 1, 2)
        assert wrong / right < 0.1

    def test_same_basis_against_bivariate_normal_cdf(self, default_experiment):
        """Independent route: rectangle mass via the bivariate normal CDF."""
        source, alice, bob = default_experiment
        for basis in ("x", "p"):
            cov = (
                position_covariance(source) if basis == "x"
                else momentum_covariance(source)
            )
            mvn = multivariate_normal(mean=[0.0, 0.0], cov=cov)
            for det_A, det_B in ((1, 1), (1, 2), (2, 2)):
                slit_A = alice.detectors(basis)[det_A - 1]
                slit_B = bob.detectors(basis)[det_B - 1]
                a0, a1 = alice.latent_window(basis, slit_A)
                b0, b1 = bob.latent_window(basis, slit_B)
                rect = (
                    mvn.cdf([a1, b1]) - mvn.cdf([a0, b1])
                    - mvn.cdf([a1, b0]) + mvn.cdf([a0, b0])
                )
                oracle = coincidence_probability(
                    source, alice, bob, basis, basis, det_A, det_B,
                    include_attenuation=False,
                )
                assert abs(oracle - rect) < 5e-7


def _norm_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def quad_cell(source, basis, window_A, window_B):
    """The adaptive-quadrature same-basis cell the closed form replaced.

    B's conditional window mass given A's latent u, integrated over A's
    window against A's marginal density.
    """
    b_lo, b_hi = window_B
    # The latent law from the sum and difference widths (s, d):
    # var = (s^2 + d^2) / 4, cov = (s^2 - d^2) / 4, and B's conditional
    # variance var - cov^2 / var = s^2 d^2 / (4 var).
    s, d = (
        (source.sigma_plus, source.sigma_minus) if basis == "x"
        else (source.kappa_minus, source.kappa_plus)
    )
    var, cov = (s * s + d * d) / 4.0, (s * s - d * d) / 4.0
    std = math.sqrt(var)
    slope, cond_std = cov / var, s * d / (2.0 * std)

    def integrand(u):
        mu = slope * u
        inner = _norm_cdf((b_hi - mu) / cond_std) - _norm_cdf((b_lo - mu) / cond_std)
        return inner * math.exp(-0.5 * (u / std) ** 2) / (std * math.sqrt(2.0 * math.pi))

    value, err = quad(integrand, *window_A, epsabs=1e-13, epsrel=1e-12, limit=200)
    assert err < 1e-11
    return value


def latent_cell(source, basis, window_A, window_B):
    """The same-basis cell of two latent windows, built here and not by slit_cell."""
    i = "xp".index(basis)
    std, rho, s = (law[i] for law in channel_law(source))
    return (window_A[0] / std, window_A[1] / std), (window_B[0] / std, window_B[1] / std), rho, s, 1.0


def mvn_rectangle(h0, h1, k0, k1, rho):
    mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
    return mvn.cdf([h1, k1]) - mvn.cdf([h0, k1]) - mvn.cdf([h1, k0]) + mvn.cdf([h0, k0])


def ordered_pair(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted)


class TestClosedFormOracle:
    """Genz's bivariate-normal rectangle against scipy, used only as a reference."""

    def test_default_cells_match_quadrature(self, raw_experiment):
        source, alice, bob = raw_experiment
        for basis in ("x", "p"):
            for det_A in alice.detectors(basis):
                for det_B in bob.detectors(basis):
                    window_A = alice.latent_window(basis, det_A)
                    window_B = bob.latent_window(basis, det_B)
                    cell = slit_cell(channel_law(source), alice, bob, basis, basis, det_A, det_B, 1.0)
                    closed = cell_probability(cell)
                    assert abs(closed - quad_cell(source, basis, window_A, window_B)) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        widths=st.tuples(*(st.floats(0.05, 3.0) for _ in range(4))),
        window_A=ordered_pair(-4.0, 4.0),
        window_B=ordered_pair(-4.0, 4.0),
        basis=st.sampled_from("xp"),
    )
    def test_drawn_cells_match_quadrature(self, widths, window_A, window_B, basis):
        source = SourceModel(*widths, PUMP)
        closed = cell_probability(latent_cell(source, basis, window_A, window_B))
        assert abs(closed - quad_cell(source, basis, window_A, window_B)) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        widths=st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
        window_A=ordered_pair(-4.0, 4.0),
        window_B=ordered_pair(-4.0, 4.0),
        basis=st.sampled_from("xp"),
    )
    def test_uncorrelated_same_basis_cells_match_bivariate_normal(
        self, widths, window_A, window_B, basis
    ):
        # Equal sum and difference widths leave a basis uncorrelated: rho is
        # 0 and the cell is a product of two normal masses, against scipy's
        # bivariate normal with the model's covariance.
        source = SourceModel(widths[0], widths[0], widths[1], widths[1], PUMP)
        cell = latent_cell(source, basis, window_A, window_B)
        assert cell[2] == 0.0
        cov = position_covariance(source) if basis == "x" else momentum_covariance(source)
        mvn = multivariate_normal(mean=[0.0, 0.0], cov=cov)
        (a0, a1), (b0, b1) = window_A, window_B
        rect = mvn.cdf([a1, b1]) - mvn.cdf([a0, b1]) - mvn.cdf([a1, b0]) + mvn.cdf([a0, b0])
        assert abs(cell_probability(cell) - rect) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        h=ordered_pair(-6.0, 6.0),
        k=ordered_pair(-6.0, 6.0),
        rho=st.floats(-0.9999, 0.9999),
    )
    def test_rectangle_matches_bivariate_normal_cdf(self, h, k, rho):
        assert abs(_rectangle(*h, *k, rho) - mvn_rectangle(*h, *k, rho)) < 1e-12

    @pytest.mark.parametrize("h, k", [(-1.3, 0.4), (0.7, 0.2), (2.0, -2.5), (-0.5, -0.5)])
    def test_orthant_limits(self, h, k):
        # Independent and perfectly (anti)correlated pairs in closed form.
        upper = _norm_cdf(-h) * _norm_cdf(-k)
        assert abs(_upper_orthant(h, k, 0.0) - upper) < 1e-15
        assert abs(_upper_orthant(h, k, 1.0) - _norm_cdf(-max(h, k))) < 1e-15
        assert abs(_upper_orthant(h, k, -1.0) - max(_norm_cdf(-h) - _norm_cdf(k), 0.0)) < 1e-15


def reference_centers(source, fixed, free, basis):
    """minimize_scalar(xatol=1e-12) on -J/M, the objective the centers maximize.

    A 201-point scan of the search range origin +- 6 marginal stds brackets
    the peak first; the bounded search alone misses a peak much narrower
    than that range.  The search variable is the offset from the best scan
    point, so its tolerance does not grow with the center's magnitude.
    """
    span = 6.0 * channel_law(source)[0]["xp".index(basis)] / conversion_for(free, basis)
    grid = np.linspace(free.origin - span, free.origin + span, 201)
    centers = []
    for free_det, fixed_det in zip(free.detectors(basis), fixed.detectors(basis)):
        fixed_window = fixed.latent_window(basis, fixed_det)

        def neg_ratio(center, _det=free_det, _fixed=fixed_window):
            window = free.latent_window(basis, dataclasses.replace(_det, center=center))
            mass = window_mass(source, basis, *window)
            return -cell_probability(latent_cell(source, basis, window, _fixed)) / mass

        j = int(np.argmin([neg_ratio(c) for c in grid]))
        best = grid[j]
        bounds = (grid[max(j - 1, 0)] - best, grid[min(j + 1, grid.size - 1)] - best)
        res = minimize_scalar(
            lambda t: neg_ratio(best + t), bounds=bounds, method="bounded",
            options={"xatol": 1e-12},
        )
        centers.append(best + res.x)
    return centers


@st.composite
def partner_geometries(draw, first=(0.9, 1.1), origin=(1.5, 1.5)):
    """B's station over the benchmark's ranges, and the default source calibrated on it."""
    d1, sep = draw(st.floats(*first)), draw(st.floats(0.8, 1.2))
    station = make_station(
        O=200.0, I=draw(st.floats(70.0, 100.0)), f=150.0, k=330.0,
        x_centers=(d1, d1 + sep), p_centers=(d1, d1 + sep),
        x_width=draw(st.floats(0.1, 0.4)), p_width=draw(st.floats(0.2, 0.6)),
        origin=draw(st.floats(*origin)),
    )
    source = calibrate_source(0.116, 0.894, station, station, 1.8, 3.7, PUMP)
    return source, station


class TestPartnerCenters:
    @settings(max_examples=25, deadline=None)
    @given(geometry=partner_geometries(), basis=st.sampled_from("xp"))
    def test_match_bounded_search(self, geometry, basis):
        source, station = geometry
        centers = derive_partner_centers(source, station, station, basis)
        reference = reference_centers(source, station, station, basis)
        assert max(abs(c - r) for c, r in zip(centers, reference)) < 1e-7

    def test_newton_steps_from_conditional_peak(self, raw_experiment, monkeypatch):
        # Started at the conditional peak, Newton needs four joint masses per
        # slit on the default geometry; a wrong derivative would leave the
        # root to the bisection safeguard, dozens of steps.
        source, _alice, bob = raw_experiment
        calls = []

        def counted(*args):
            calls.append(args)
            return _rectangle(*args)

        monkeypatch.setattr(detection, "_rectangle", counted)
        for basis in ("x", "p"):
            calls.clear()
            derive_partner_centers(source, bob, bob, basis)
            assert len(calls) <= 2 * 5, (basis, len(calls))

    @settings(max_examples=25, deadline=None)
    @given(
        geometry=partner_geometries(origin=(-0.5, 0.5)),
        inside=st.floats(0.001, 0.05),
    )
    def test_peak_beyond_search_range(self, geometry, inside):
        # B's second momentum slit is moved out until its partner's Newton
        # start (the conditional peak) sits a drawn fraction of the span
        # inside the low end of the search range.  Where the ratio still
        # rises past that end, Newton steps out of the bracket, the
        # bisection safeguard walks the center onto the end, and the bounded
        # search agrees.
        source, station = geometry
        std, rho = (law[1] for law in channel_law(source)[:2])
        span = 6.0 * std / conversion_for(station, "p")
        slit = dataclasses.replace(
            station.p_detectors[1], center=station.origin - rho * span * (1.0 - inside)
        )
        station = dataclasses.replace(station, p_detectors=(station.p_detectors[0], slit))
        low_end = station.origin - span
        reference = reference_centers(source, station, station, "p")
        assume(abs(reference[1] - low_end) < 1e-9)
        center = derive_partner_centers(source, station, station, "p")[1]
        assert abs(center - low_end) < 1e-9


def frozen_upper_orthant(h, k, r):
    """Genz's orthant with every term computed in place, in the same order.

    The reference that _upper_orthant and its cached _orthant_rule must match
    bit for bit; keep it unchanged.
    """
    nodes, weights = next((x, w) for bound, x, w in _GAUSS_LEGENDRE if abs(r) < bound)
    two_pi, sqrt_two_pi = 2.0 * math.pi, math.sqrt(2.0 * math.pi)
    hk = h * k
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r)
        total = 0.0
        for x, w in zip(nodes, weights):
            for t in (1.0 - x, 1.0 + x):
                sn = math.sin(asr * t / 2.0)
                total += w * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        return total * asr / (2.0 * two_pi) + _cdf(-h) * _cdf(-k)
    if r < 0:
        k, hk = -k, -hk
    bvn = 0.0
    if abs(r) < 1.0:
        aa = (1.0 - r) * (1.0 + r)
        a = math.sqrt(aa)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 80.0
        bvn = a * math.exp(-(bs / aa + hk) / 2.0) * (
            1.0 - c * (bs - aa) * (1.0 - d * bs) / 3.0 + c * d * aa * aa
        )
        if hk > -100.0:
            b = math.sqrt(bs)
            bvn -= (math.exp(-hk / 2.0) * sqrt_two_pi * _cdf(-b / a) * b
                    * (1.0 - c * bs * (1.0 - d * bs) / 3.0))
        a /= 2.0
        total = 0.0
        for x, w in zip(nodes, weights):
            for t in (1.0 - x, 1.0 + x):
                xs = (a * t) ** 2
                rs = math.sqrt(1.0 - xs)
                asr = -(bs / xs + hk) / 2.0
                total += w * (
                    math.exp(asr) * (1.0 + c * xs * (1.0 + 5.0 * d * xs))
                    - math.exp(asr - hk * xs / (2.0 * (1.0 + rs) ** 2)) / rs
                )
        bvn = (a * total - bvn) / two_pi
    if r > 0:
        return bvn + _cdf(-max(h, k))
    if h >= k:
        return -bvn
    return (_cdf(k) - _cdf(h) if h < 0 else _cdf(-h) - _cdf(-k)) - bvn


_BAND_EDGES = [e for edge in (0.3, 0.75, 0.925) for e in (
    edge, -edge, math.nextafter(edge, 0.0), -math.nextafter(edge, 0.0),
)]
_CORRELATIONS = st.one_of(
    st.sampled_from([*_BAND_EDGES, 0.0, -0.0, 1.0, -1.0]),
    st.floats(-0.3, 0.3),
    st.floats(0.3, 0.75) | st.floats(-0.75, -0.3),
    st.floats(0.75, 0.925) | st.floats(-0.925, -0.75),
    st.floats(0.925, 1.0) | st.floats(-1.0, -0.925),
)

# The default setup as the oracle gave it before the rule was cached:
# float.hex of the 16 cells (rows Ax1..Ap2, columns Bx1..Bp2), of A's slit
# centers (x1, x2, p1, p2) and of the attenuation factors (A's, then B's).
DEFAULT_CELLS_HEX = (
    ("0x1.16cbad91deb08p-6", "0x1.99afc3d3ffe57p-13", "0x1.8ece55139fecdp-8", "0x1.8ece55139fecdp-8"),
    ("0x1.99afc3d3ffe51p-13", "0x1.16cbad91deb0cp-6", "0x1.8ece55139feccp-8", "0x1.8ece55139feccp-8"),
    ("0x1.8ece55139fecdp-8", "0x1.8ece55139fecdp-8", "0x1.16cbad91deb09p-6", "0x1.efded020a6659p-11"),
    ("0x1.8ece55139fecdp-8", "0x1.8ece55139fecdp-8", "0x1.efded020a6659p-11", "0x1.16cbad91deb09p-6"),
)
DEFAULT_CENTERS_HEX = (
    "0x1.ed01995d3de33p-1", "0x1.04bf99a8b0873p+1", "0x1.0901d8a4929c0p+1", "0x1.dbf89d6db5900p-1",
)
DEFAULT_ATTENUATION_HEX = (
    "0x1.f2a7cf6cdee38p-1", "0x1.f2a7cf6cdee2ap-1", "0x1.c26d8207b783dp-2", "0x1.c26d8207b783dp-2",
    "0x1.ffffffffffffep-1", "0x1.ffffffffffff7p-1", "0x1.c26d8207b783dp-2", "0x1.c26d8207b783dp-2",
)


def oracle_hex(geometry):
    """A's derived slits and filters on a drawn geometry, and its 16 cells, as float.hex."""
    source, alice, bob = assemble_setup(*geometry)
    slits = [d for station in (alice, bob) for d in station.x_detectors + station.p_detectors]
    values = [d.center for d in slits] + [d.attenuation for d in slits] + list(
        oracle_table(source, alice, bob).flat
    )
    return [v.hex() for v in values]


class TestOracleExactness:
    """The cached quadrature rule changes no oracle value in its last bit."""

    @settings(max_examples=2000, deadline=None)
    @given(h=st.floats(-8.0, 8.0), k=st.floats(-8.0, 8.0), r=_CORRELATIONS)
    @example(h=0.0, k=-0.0, r=-0.0)
    @example(h=0.5, k=0.5, r=-1.0)
    def test_orthant_equals_frozen_reference(self, h, k, r):
        # Bit for bit, the sign of a zero included.
        assert _upper_orthant(h, k, r).hex() == frozen_upper_orthant(h, k, r).hex()

    def test_signed_zero_correlations_share_a_rule(self):
        for first in (0.0, -0.0):
            _orthant_rule.cache_clear()
            _orthant_rule(first)
            for h, k in ((0.0, -0.0), (-0.0, 0.0), (1.5, -2.0), (40.0, 40.0)):
                for r in (0.0, -0.0):
                    assert _upper_orthant(h, k, r).hex() == frozen_upper_orthant(h, k, r).hex()

    def test_default_setup_pinned(self, default_experiment):
        source, alice, bob = default_experiment
        cells = tuple(tuple(v.hex() for v in row) for row in oracle_table(source, alice, bob))
        assert cells == DEFAULT_CELLS_HEX
        slits = alice.x_detectors + alice.p_detectors
        assert tuple(d.center.hex() for d in slits) == DEFAULT_CENTERS_HEX
        factors = [d.attenuation for s in (alice, bob) for d in s.x_detectors + s.p_detectors]
        assert tuple(f.hex() for f in factors) == DEFAULT_ATTENUATION_HEX

    @settings(max_examples=3, deadline=None)
    @given(geometries=st.lists(partner_geometries(), min_size=8, max_size=8))
    def test_cache_holds_only_derived_constants(self, geometries):
        # Serial, then two threads filling and reading the cache at once,
        # then from an empty cache: every value agrees bit for bit.
        serial = [oracle_hex(g) for g in geometries]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(oracle_hex, geometries))
        _orthant_rule.cache_clear()
        cleared = [oracle_hex(g) for g in geometries]
        assert threaded == serial
        assert cleared == serial


class TestDetectedVariance:
    def test_matches_closed_form(self, raw_experiment):
        source, alice, bob = raw_experiment
        for basis in ("x", "p"):
            base = (
                (source.sigma_minus / alice.alpha) ** 2 if basis == "x"
                else source.kappa_minus**2
            )
            expected = base + slit_smearing_variance(alice, bob, basis)
            measured = detected_variance(source, alice, bob, basis)
            assert abs(measured - expected) / expected < 1e-8

    def test_asymmetric_imaging_scales(self):
        left = make_station(O=200.0, I=100.0)          # alpha = 1
        right = make_station(O=200.0, I=50.0)          # alpha = 2
        source = build_source(0.4, 2.0, 0.9, 4.0, PUMP)
        var_single = (source.sigma_plus**2 + source.sigma_minus**2) / 4.0
        cov = (source.sigma_plus**2 - source.sigma_minus**2) / 4.0
        ia, ib = 1.0, 0.5
        base = var_single * (ia * ia + ib * ib) - 2.0 * cov * ia * ib
        expected = base + slit_smearing_variance(left, right, "x")
        measured = detected_variance(source, left, right, "x")
        assert abs(measured - expected) / expected < 1e-8

    def test_matches_monte_carlo(self, rng):
        """Sampled pairs plus independent uniform slit smears, 5 sigma, both bases.

        The two stations differ in imaging scale and in every slit width, so the
        position difference carries the sigma_plus cross term and both smears.
        """
        left = make_station(O=200.0, I=100.0, x_width=0.2, p_width=0.5)      # alpha = 1
        right = make_station(O=200.0, I=50.0, f=120.0, x_width=0.3, p_width=0.4)  # alpha = 2
        source = build_source(0.4, 2.0, 0.9, 4.0, PUMP)
        n = 400_000
        x_A, x_B, p_A, p_B = sample_pairs(source, n, rng)

        def smear(width):
            return rng.uniform(-width / 2.0, width / 2.0, n)

        recorded = {
            "x": (x_A / left.alpha + smear(left.x_detectors[0].width))
            - (x_B / right.alpha + smear(right.x_detectors[0].width)),
            "p": (p_A + smear(left.p_detectors[0].width * left.momentum_scale))
            + (p_B + smear(right.p_detectors[0].width * right.momentum_scale)),
        }
        for basis, values in recorded.items():
            centered = values - values.mean()
            var = float(np.mean(centered**2))
            std_err = math.sqrt((np.mean(centered**4) - var**2) / n)
            expected = detected_variance(source, left, right, basis)
            assert abs(var - expected) < 5.0 * std_err, (basis, var, expected, std_err)


def test_monte_carlo_matches_oracle_small(default_experiment, rng):
    """Coincidence frequencies vs the oracle, 16 cells, 3 binomial sigma."""
    source, alice, bob = default_experiment
    n = 300_000
    table = protocol.tally_coincidences(source, alice, bob, n, rng)
    for (i, j), cell in np.ndenumerate(oracle_table(source, alice, bob)):
        p_cell = 0.25 * cell
        sigma = math.sqrt(n * p_cell * (1 - p_cell))
        assert abs(table.counts[i, j] - n * p_cell) <= 3.0 * sigma + 1.0, (
            f"cell {i},{j}: observed {table.counts[i, j]}, expected {n * p_cell:.1f}"
        )


class TestEqualization:
    def test_diagonal_attenuation_examples(self):
        # Stage 1 is a no-op here (slits symmetric about the axis, A's p slits
        # mirrored), so stage 2 alone brings every "right" level down to the
        # lowest: that basis keeps factor 1, the other is thinned by min / level.
        def station(p_centers):
            return make_station(
                O=200.0, I=100.0, k=300.0,
                x_centers=(-0.5, 0.5), p_centers=p_centers, origin=0.0,
            )

        source = build_source(0.33, 1.4, 0.83, 3.7, PUMP)
        alice, bob = station(p_centers=(0.5, -0.5)), station(p_centers=(-0.5, 0.5))
        raw = {b: coincidence_probability(source, alice, bob, b, b, 1, 1) for b in "xp"}
        lowest = min(raw.values())
        out_a, out_b = equalize_levels(source, alice, bob)
        for basis in ("x", "p"):
            for i, (det_a, det_b) in enumerate(zip(out_a.detectors(basis),
                                                   out_b.detectors(basis))):
                assert math.isclose(det_a.attenuation * det_b.attenuation,
                                    lowest / raw[basis], rel_tol=1e-9)
                level = coincidence_probability(source, out_a, out_b, basis, basis, i + 1, i + 1)
                assert math.isclose(level, lowest, rel_tol=1e-9)

    def test_diagonal_attenuation_rejects_zero(self):
        # A's x slits sit 3 mm from B's partners, 60 sigma_minus away: the
        # single-photon masses are fine but both x "right" levels are zero.
        def station(x_centers):
            return make_station(O=200.0, I=100.0, f=150.0, k=150.0,
                                x_centers=x_centers, origin=0.0)

        source = build_source(0.05, 3.0, 0.5, 25.0, PUMP)
        with pytest.raises(ValueError, match="zero diagonal coincidence probability"):
            equalize_levels(source, station((1.0, 2.0)), station((-2.0, -1.0)))

    def test_default_levels_equalized(self, default_experiment):
        source, alice, bob = default_experiment
        diag = [
            coincidence_probability(source, alice, bob, b, b, i, i)
            for b in ("x", "p") for i in (1, 2)
        ]
        assert (max(diag) - min(diag)) / min(diag) < 1e-6
        cross = [
            coincidence_probability(source, alice, bob, ba, bb, i, j)
            for ba, bb in (("x", "p"), ("p", "x"))
            for i in (1, 2) for j in (1, 2)
        ]
        assert (max(cross) - min(cross)) / min(cross) < 1e-6

    def test_cross_levels_within_ten_percent_of_each_other(self, default_experiment):
        source, alice, bob = default_experiment
        cross = [
            coincidence_probability(source, alice, bob, ba, bb, i, j)
            for ba, bb in (("x", "p"), ("p", "x"))
            for i in (1, 2) for j in (1, 2)
        ]
        assert max(cross) / min(cross) < 1.1

    def test_wrong_below_ten_percent_of_right_both_bases(self, default_experiment):
        source, alice, bob = default_experiment
        for basis in ("x", "p"):
            right = coincidence_probability(source, alice, bob, basis, basis, 1, 1) + \
                coincidence_probability(source, alice, bob, basis, basis, 2, 2)
            wrong = coincidence_probability(source, alice, bob, basis, basis, 1, 2) + \
                coincidence_probability(source, alice, bob, basis, basis, 2, 1)
            assert wrong / right < 0.1

    def test_equalize_is_idempotent(self, default_experiment):
        source, alice, bob = default_experiment
        alice2, bob2 = equalize_levels(source, alice, bob)
        for before, after in ((alice, alice2), (bob, bob2)):
            for basis in ("x", "p"):
                for d_before, d_after in zip(before.detectors(basis), after.detectors(basis)):
                    assert abs(d_after.attenuation / d_before.attenuation - 1.0) < 1e-6

    def test_already_equal_levels_keep_unit_factors(self):
        # A fully symmetric setup: x and p statistics identical up to the
        # momentum anticorrelation, which the mirrored partner slits absorb.
        # Every level is already equal, so every factor must be 1.
        def station(p_centers):
            return make_station(
                O=200.0, I=100.0, f=150.0, k=150.0,
                x_centers=(-0.5, 0.5), p_centers=p_centers,
                x_width=0.3, p_width=0.3, origin=0.0,
            )

        source = build_source(0.4, 3.0, 0.4, 3.0, PUMP)
        alice = station(p_centers=(0.5, -0.5))   # mirrored against B's p slits
        bob = station(p_centers=(-0.5, 0.5))
        out_a, out_b = equalize_levels(source, alice, bob)
        for st_out in (out_a, out_b):
            for basis in ("x", "p"):
                for det in st_out.detectors(basis):
                    assert abs(det.attenuation - 1.0) < 1e-9

    def test_within_basis_balance_for_symmetric_slits(self):
        # Symmetric slits around the axis see identical masses: the two slits
        # of each basis get equal factors even when x and p levels differ.
        station = make_station(
            O=200.0, I=100.0, k=300.0,
            x_centers=(-0.5, 0.5), p_centers=(-0.5, 0.5), origin=0.0,
        )
        source = build_source(0.33, 1.4, 0.83, 3.7, PUMP)
        alice, bob = equalize_levels(source, station, station)
        for st_out in (alice, bob):
            for basis in ("x", "p"):
                d1, d2 = st_out.detectors(basis)
                assert abs(d1.attenuation - d2.attenuation) < 1e-9

    def test_zero_levels_cannot_be_equalized(self):
        # Slits parked far outside the marginal: no mass to balance against.
        station = make_station(
            O=200.0, I=100.0, x_centers=(200.0, 202.0), p_centers=(1.0, 2.0)
        )
        source = build_source(0.33, 1.4, 0.83, 3.7, PUMP)
        with pytest.raises(ValueError, match="cannot equalize"):
            equalize_levels(source, station, station)

    def test_thinning_scales_probability_exactly(self, raw_experiment):
        source, alice, bob = raw_experiment
        target = alice.x_detectors[0]
        thinned = dataclasses.replace(
            alice,
            x_detectors=(dataclasses.replace(target, attenuation=0.37), alice.x_detectors[1]),
        )
        for bb, db in (("x", 1), ("x", 2), ("p", 1), ("p", 2)):
            base = coincidence_probability(source, alice, bob, "x", bb, 1, db)
            scaled = coincidence_probability(source, thinned, bob, "x", bb, 1, db)
            assert math.isclose(scaled, 0.37 * base, rel_tol=1e-12)

    def test_thinning_matches_monte_carlo(self, raw_experiment, rng):
        source, alice, bob = raw_experiment
        factor = 0.5
        thinned = dataclasses.replace(
            bob,
            x_detectors=tuple(
                dataclasses.replace(d, attenuation=factor) for d in bob.x_detectors
            ),
        )
        n = 200_000
        table = protocol.tally_coincidences(source, alice, thinned, n, rng)
        p_cell = 0.25 * coincidence_probability(source, alice, thinned, "x", "x", 1, 1)
        sigma = math.sqrt(n * p_cell * (1 - p_cell))
        assert abs(table.counts[0, 0] - n * p_cell) <= 3.0 * sigma


def test_acceptance_mass_sums_slits(default_experiment):
    # One photon clicks with probability sum over slits of window mass times
    # attenuation.  B's station reads A's side here and the other side is
    # OPEN_STATION, so each row of the tally is one slit's clicks, under
    # A's fair coin.
    source, _alice, bob = default_experiment
    n = 400_000
    table = tally_coincidences(source, bob, OPEN_STATION, n, np.random.default_rng(13))
    rows = table.counts.sum(axis=1)
    for b, basis in enumerate("xp"):
        expected = 0.5 * sum(
            window_mass(source, basis, *bob.latent_window(basis, det)) * det.attenuation
            for det in bob.detectors(basis)
        )
        rate = float(rows[2 * b : 2 * b + 2].sum()) / n
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(rate - expected) <= 3.0 * sigma, (basis, rate, expected)
