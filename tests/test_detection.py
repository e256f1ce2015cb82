import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import multivariate_normal

from eprqkd import protocol
from eprqkd.detection import (
    ClickOutcome,
    SlitDetector,
    StationConfig,
    click,
    coincidence_probability,
    acceptance_mass,
    detected_variance,
    diagonal_attenuation,
    equalize_levels,
    latent_from_coordinate,
    readout_coordinate,
    slit_smearing_variance,
)
from eprqkd.source import PumpProfile, SourceModel, build_source, sample_pairs

from conftest import make_station

PUMP = PumpProfile(2.0)


class TestStationValidation:
    def test_overlapping_slits_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            make_station(x_centers=(1.0, 1.1))

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


class TestReadout:
    def test_imaging_scale_example(self):
        from eprqkd.source import PairSample

        station = make_station()  # alpha = 200/(2*600) = 1/6
        assert math.isclose(station.alpha, 1.0 / 6.0)
        s = PairSample(x_A=0.2, x_B=0.0, p_A=0.0, p_B=0.0)
        assert math.isclose(readout_coordinate(s, station, "x", "A"), 1.2)

    def test_zero_momentum_maps_to_origin(self):
        from eprqkd.source import PairSample

        station = make_station()
        s = PairSample(0.0, 0.0, 0.0, 0.0)
        assert readout_coordinate(s, station, "p", "B") == 0.0
        shifted = dataclasses.replace(station, origin=1.5)
        assert readout_coordinate(s, shifted, "p", "B") == 1.5

    @settings(max_examples=100, deadline=None)
    @given(
        value=st.floats(-5, 5, allow_nan=False),
        basis=st.sampled_from(["x", "p"]),
        origin=st.floats(-2, 2, allow_nan=False),
    )
    def test_round_trip(self, value, basis, origin):
        from eprqkd.source import PairSample

        station = make_station(origin=origin)
        s = PairSample(x_A=value, x_B=value, p_A=value, p_B=value)
        coord = readout_coordinate(s, station, basis, "A")
        assert math.isclose(latent_from_coordinate(coord, station, basis), value,
                            abs_tol=1e-12)

    def test_rejects_bad_side(self):
        from eprqkd.source import PairSample

        with pytest.raises(ValueError):
            readout_coordinate(PairSample(0, 0, 0, 0), make_station(), "x", "C")


class TestClick:
    DETS = (SlitDetector(1.0, 0.2, 0), SlitDetector(2.0, 0.2, 1))

    def test_inside_first_slit(self):
        assert click(1.05, self.DETS) is ClickOutcome.DETECTOR_1

    def test_between_slits_is_null(self):
        assert click(1.5, self.DETS) is ClickOutcome.NULL

    def test_boundary_is_closed(self):
        assert click(1.1, self.DETS) is ClickOutcome.DETECTOR_1
        assert click(0.9, self.DETS) is ClickOutcome.DETECTOR_1
        assert click(2.1, self.DETS) is ClickOutcome.DETECTOR_2

    def test_bit_mapping(self):
        assert ClickOutcome.DETECTOR_1.bit == 0
        assert ClickOutcome.DETECTOR_2.bit == 1
        assert ClickOutcome.NULL.bit is None


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
                from eprqkd.detection import _window_mass

                mass_A = _window_mass(source, "x", *alice.latent_window("x", slit_A))
                mass_B = _window_mass(source, "p", *bob.latent_window("p", slit_B))
                assert abs(joint - mass_A * mass_B) < 1e-8

    def test_perfect_correlation_limit(self):
        station = make_station(O=200.0, I=100.0)  # alpha = 1
        tight = SourceModel(1e-9, 2.0, 0.9, 4.0, PUMP)
        p_same = coincidence_probability(tight, station, station, "x", "x", 1, 1)
        p_cross = coincidence_probability(tight, station, station, "x", "x", 1, 2)
        lo, hi = station.latent_window("x", station.x_detectors[0])
        from eprqkd.detection import _window_mass

        assert abs(p_same - _window_mass(tight, "x", lo, hi)) < 1e-8
        assert p_cross < 1e-12

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
                source.position_covariance() if basis == "x"
                else source.momentum_covariance()
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
            "p": (p_A + smear(left.latent_slit_width("p")))
            + (p_B + smear(right.latent_slit_width("p"))),
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
    bases = (("x", 1), ("x", 2), ("p", 1), ("p", 2))
    for i, (ba, da) in enumerate(bases):
        for j, (bb, db) in enumerate(bases):
            p_cell = 0.25 * coincidence_probability(source, alice, bob, ba, bb, da, db)
            sigma = math.sqrt(n * p_cell * (1 - p_cell))
            assert abs(table.counts[i, j] - n * p_cell) <= 3.0 * sigma + 1.0, (
                f"cell {i},{j}: observed {table.counts[i, j]}, expected {n * p_cell:.1f}"
            )


class TestEqualization:
    def test_diagonal_attenuation_examples(self):
        assert diagonal_attenuation([0.3, 0.6]) == [1.0, 0.5]
        factors = diagonal_attenuation([943.0, 1079.0])
        assert factors[0] == 1.0
        assert abs(factors[1] - 0.874) < 5e-4

    def test_diagonal_attenuation_rejects_zero(self):
        with pytest.raises(ValueError):
            diagonal_attenuation([0.0, 1.0])

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
    source, alice, bob = default_experiment
    from eprqkd.detection import _window_mass

    for basis in ("x", "p"):
        total = acceptance_mass(source, bob, basis, include_attenuation=False)
        by_hand = sum(
            _window_mass(source, basis, *bob.latent_window(basis, det))
            for det in bob.detectors(basis)
        )
        assert math.isclose(total, by_hand, rel_tol=1e-12)
