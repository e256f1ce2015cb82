import math

import numpy as np
import pytest

from eprqkd import detection
from eprqkd.defaults import assemble_setup
from eprqkd.source import (
    CalibrationError,
    PumpProfile,
    SourceModel,
    UnphysicalSourceError,
    build_source,
    calibrate_source,
    joint_density,
    marginal_std,
    sample_pair,
    sample_pairs,
)

from conftest import make_station

PUMP = PumpProfile(2.0)


def degenerate_source(sigma_minus=0.0, sigma_plus=2.0, kappa_minus=0.9, kappa_plus=4.0):
    # Direct construction bypasses the physicality gate (testing only).
    return SourceModel(sigma_minus, sigma_plus, kappa_minus, kappa_plus, PUMP)


class TestBuildSource:
    def test_valid_and_entangled(self):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        assert model.entangled
        assert math.isclose(model.sigma_minus**2 * model.kappa_minus**2, 0.0729)

    def test_symmetric_saturated_not_entangled(self):
        model = build_source(1.0, 1.0, 1.0, 1.0, PUMP)
        assert not model.entangled

    def test_rejects_uncertainty_violation(self):
        with pytest.raises(UnphysicalSourceError, match="sigma_minus"):
            build_source(0.1, 2.0, 0.9, 5.0, PUMP)

    def test_rejects_conjugate_sum_violation(self):
        with pytest.raises(UnphysicalSourceError, match="sigma_plus"):
            build_source(0.5, 0.5, 1.0, 4.0, PUMP)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            build_source(-0.1, 2.0, 0.9, 4.0, PUMP)
        with pytest.raises(ValueError):
            build_source(0.3, 2.0, 0.0, 4.0, PUMP)

    def test_pump_requires_positive_waist(self):
        with pytest.raises(ValueError):
            PumpProfile(0.0)


class TestSampling:
    def test_degenerate_width_gives_identical_positions(self, rng):
        model = degenerate_source(sigma_minus=0.0)
        for _ in range(100):
            s = sample_pair(model, rng)
            assert s.x_A == s.x_B

    def test_difference_variance_matches_configuration(self, rng):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        x_A, x_B, _, _ = sample_pairs(model, 1_000_000, rng)
        var = np.var(x_A - x_B)
        assert abs(var - 0.09) / 0.09 < 0.01

    def test_all_collective_variances(self, rng):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        x_A, x_B, p_A, p_B = sample_pairs(model, 1_000_000, rng)
        for values, width in (
            (x_A - x_B, 0.3),
            (x_A + x_B, 2.0),
            (p_A + p_B, 0.9),
            (p_A - p_B, 4.0),
        ):
            assert abs(np.std(values) - width) / width < 0.01

    def test_position_momentum_uncorrelated(self, rng):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        x_A, _, _, p_B = sample_pairs(model, 1_000_000, rng)
        corr = np.corrcoef(x_A, p_B)[0, 1]
        assert abs(corr) < 0.01


class TestJointDensity:
    def test_same_basis_origin_value(self):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        assert math.isclose(
            joint_density(model, "x", "x", 0.0, 0.0), 1.0 / (math.pi * 2.0 * 0.3)
        )
        assert math.isclose(
            joint_density(model, "p", "p", 0.0, 0.0), 1.0 / (math.pi * 0.9 * 4.0)
        )

    def test_mixed_basis_factorizes(self):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        std_x = marginal_std(model, "x")
        std_p = marginal_std(model, "p")

        def marginal(value, std):
            return math.exp(-0.5 * (value / std) ** 2) / (std * math.sqrt(2 * math.pi))

        grid = np.linspace(-2.0, 2.0, 9)
        for u in grid:
            for v in grid:
                prod = marginal(u, std_x) * marginal(v, std_p)
                assert math.isclose(joint_density(model, "x", "p", u, v), prod)
                assert math.isclose(
                    joint_density(model, "p", "x", v, u),
                    marginal(v, std_p) * marginal(u, std_x),
                )

    def test_exchange_symmetry(self):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        for a, b in ((0.1, -0.4), (0.7, 0.2), (-1.1, 0.9)):
            assert math.isclose(
                joint_density(model, "x", "x", a, b), joint_density(model, "x", "x", b, a)
            )
            assert math.isclose(
                joint_density(model, "p", "p", a, b), joint_density(model, "p", "p", b, a)
            )

    def test_rejects_unknown_basis(self):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        with pytest.raises(ValueError):
            joint_density(model, "z", "x", 0.0, 0.0)


def _bin_edges(std: float, n_bins: int = 10, reach: float = 3.2) -> np.ndarray:
    return np.linspace(-reach * std, reach * std, n_bins + 1)


def _expected_bin_masses(model, basis_A, basis_B, edges_A, edges_B):
    """Bin masses of the joint density by 2D Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    masses = np.zeros((len(edges_A) - 1, len(edges_B) - 1))
    for i in range(len(edges_A) - 1):
        a0, a1 = edges_A[i], edges_A[i + 1]
        xa = (a1 + a0) / 2 + (a1 - a0) / 2 * nodes
        wa = (a1 - a0) / 2 * weights
        for j in range(len(edges_B) - 1):
            b0, b1 = edges_B[j], edges_B[j + 1]
            xb = (b1 + b0) / 2 + (b1 - b0) / 2 * nodes
            wb = (b1 - b0) / 2 * weights
            grid_a, grid_b = np.meshgrid(xa, xb, indexing="ij")
            dens = joint_density(model, basis_A, basis_B, grid_a.ravel(), grid_b.ravel())
            masses[i, j] = np.einsum(
                "i,j,ij->", wa, wb, np.asarray(dens).reshape(len(xa), len(xb))
            )
    return masses


@pytest.mark.parametrize("basis_A,basis_B", [("x", "x"), ("p", "p"), ("x", "p"), ("p", "x")])
def test_sampler_matches_density_chi_square(basis_A, basis_B, rng):
    """Histogram of samples against quadrature of joint_density, all bases."""
    model = build_source(0.33, 1.8, 0.83, 3.7, PUMP)
    n = 300_000
    x_A, x_B, p_A, p_B = sample_pairs(model, n, rng)
    lat = {"x": (x_A, x_B), "p": (p_A, p_B)}
    vals_A = lat[basis_A][0]
    vals_B = lat[basis_B][1]

    edges_A = _bin_edges(marginal_std(model, basis_A))
    edges_B = _bin_edges(marginal_std(model, basis_B))
    observed, _, _ = np.histogram2d(vals_A, vals_B, bins=(edges_A, edges_B))
    expected = _expected_bin_masses(model, basis_A, basis_B, edges_A, edges_B) * n

    # Merge sparse cells (and everything off-grid) into one catch-all cell.
    keep = expected >= 10.0
    chi = float((((observed - expected) ** 2) / expected)[keep].sum())
    rest_obs = n - observed[keep].sum()
    rest_exp = n - expected[keep].sum()
    if rest_exp >= 10.0:
        chi += (rest_obs - rest_exp) ** 2 / rest_exp
        dof = int(keep.sum())  # +1 cell, -1 normalization
    else:
        dof = int(keep.sum()) - 1
    assert chi < dof + 3.0 * math.sqrt(2.0 * dof), f"chi2={chi:.1f} dof={dof}"


def test_mixed_basis_conditionals_homogeneous(rng):
    """p-side histogram must not depend on the x-side value (3 sigma)."""
    model = build_source(0.33, 1.8, 0.83, 3.7, PUMP)
    n = 400_000
    x_A, _, _, p_B = sample_pairs(model, n, rng)
    groups = np.digitize(x_A, np.quantile(x_A, [0.25, 0.5, 0.75]))
    p_edges = np.quantile(p_B, np.linspace(0, 1, 9)[1:-1])
    cells = np.digitize(p_B, p_edges)
    table = np.zeros((4, 8))
    np.add.at(table, (groups, cells), 1)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / n
    chi = float(((table - expected) ** 2 / expected).sum())
    dof = (4 - 1) * (8 - 1)
    assert chi < dof + 3.0 * math.sqrt(2.0 * dof), f"chi2={chi:.1f} dof={dof}"


class TestCalibration:
    def test_round_trip_reproduces_targets(self, raw_experiment):
        source, alice, bob = raw_experiment
        for basis, target in (("x", 0.116), ("p", 0.894)):
            measured = detection.detected_variance(source, alice, bob, basis)
            assert abs(measured - target) / target < 1e-4

    def test_point_detectors_identity(self, raw_experiment):
        _, alice, bob = raw_experiment
        import dataclasses

        def pointlike(station):
            shrink = lambda dets: tuple(
                dataclasses.replace(d, width=1e-9) for d in dets
            )
            return dataclasses.replace(
                station, x_detectors=shrink(station.x_detectors),
                p_detectors=shrink(station.p_detectors),
            )

        model = calibrate_source(
            0.116, 0.894, pointlike(alice), pointlike(bob),
            sigma_plus=1.8, kappa_plus=3.7, pump=PUMP,
        )
        assert abs(model.sigma_minus**2 - 0.116) / 0.116 < 1e-9
        assert abs(model.kappa_minus**2 - 0.894) / 0.894 < 1e-9

    def test_target_below_slit_floor_is_infeasible(self, raw_experiment):
        _, alice, bob = raw_experiment
        floor_x = detection.slit_smearing_variance(alice, bob, "x")
        with pytest.raises(CalibrationError, match="basis x"):
            calibrate_source(
                floor_x * 0.5, 0.894, alice, bob,
                sigma_plus=1.8, kappa_plus=3.7, pump=PUMP,
            )
        floor_p = detection.slit_smearing_variance(alice, bob, "p")
        with pytest.raises(CalibrationError, match="basis p"):
            calibrate_source(
                0.116, floor_p * 0.9, alice, bob,
                sigma_plus=1.8, kappa_plus=3.7, pump=PUMP,
            )

    def test_detected_variance_monotone_in_sigma_minus(self, raw_experiment):
        source, alice, bob = raw_experiment
        import dataclasses

        widths = [0.2, 0.3, 0.4]
        values = [
            detection.detected_variance(
                dataclasses.replace(source, sigma_minus=w), alice, bob, "x"
            )
            for w in widths
        ]
        assert values[0] < values[1] < values[2]

    def test_rejects_nonpositive_targets(self, raw_experiment):
        _, alice, bob = raw_experiment
        for (target_x, target_p, sigma_plus, kappa_plus), field in (
            ((-1.0, 0.894, 1.8, 3.7), "target_var_x"),
            ((math.nan, 0.894, 1.8, 3.7), "target_var_x"),
            ((0.116, math.inf, 1.8, 3.7), "target_var_p"),
            ((0.116, 0.894, math.nan, 3.7), "sigma_plus"),
            ((0.116, 0.894, 1.8, math.inf), "kappa_plus"),
        ):
            with pytest.raises(ValueError, match=field):
                calibrate_source(target_x, target_p, alice, bob, sigma_plus, kappa_plus, PUMP)

    def test_round_trip_with_unequal_imaging_scales(self):
        # alpha_A = 1, alpha_B = 2: sigma_plus enters the detected x variance.
        left = make_station(O=200.0, I=100.0)
        right = make_station(O=200.0, I=50.0)
        model = calibrate_source(0.3, 0.9, left, right, sigma_plus=1.8, kappa_plus=3.7, pump=PUMP)
        for basis, target in (("x", 0.3), ("p", 0.9)):
            measured = detection.detected_variance(model, left, right, basis)
            assert abs(measured - target) / target < 1e-12

    def test_sigma_plus_alone_above_x_target_is_infeasible(self):
        left = make_station(O=200.0, I=100.0)
        right = make_station(O=200.0, I=50.0)
        floor_x = detection.slit_smearing_variance(left, right, "x")
        anti = 1.8**2 * (1.0 / left.alpha - 1.0 / right.alpha) ** 2 / 4.0
        target_x = floor_x + 0.9 * anti
        with pytest.raises(CalibrationError, match="basis x"):
            calibrate_source(target_x, 0.9, left, right, sigma_plus=1.8, kappa_plus=3.7, pump=PUMP)

    def test_irregular_p_slit_geometry_calibrates(self):
        # A geometry whose p-slit width once made the root finder's probe
        # miss the quadrature tolerance; kept as literals.
        width_x, width_p = 0.23959404775665646, 0.3201709872567525
        d1, d2 = 0.9574357597445292, 1.9311084273158168
        bob = make_station(
            O=200.0, I=99.62577827047394, f=150.0, k=330.0, x_centers=(d1, d2),
            p_centers=(d1, d2), x_width=width_x, p_width=width_p, origin=1.5,
        )
        model = calibrate_source(0.116, 0.894, bob, bob, sigma_plus=1.8, kappa_plus=3.7, pump=PUMP)
        _, alice, bob = assemble_setup(model, bob)
        for basis, target in (("x", 0.116), ("p", 0.894)):
            measured = detection.detected_variance(model, alice, bob, basis)
            assert abs(measured - target) / target < 1e-12


def test_units_discipline_default_is_entangled(default_experiment):
    """Detected and latent variance products sit below the 1/4 bound."""
    source, alice, bob = default_experiment
    latent = source.sigma_minus**2 * source.kappa_minus**2
    detected = 0.116 * 0.894
    assert latent < 0.25
    assert detected < 0.25
    assert source.entangled
