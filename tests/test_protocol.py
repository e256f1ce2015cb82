import dataclasses
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eprqkd.adversary import AttackConfig
from eprqkd.detection import ClickOutcome, SlitDetector, coincidence_probability
from eprqkd.protocol import (
    CoincidenceTable,
    PairEvent,
    ProtocolError,
    SessionConfig,
    abort_decision,
    qber_from_counts,
    qber_with_eve_prediction,
    run_session,
    sift,
    tally_coincidences,
    three_party_probability,
)
from eprqkd.source import PumpProfile, SourceModel, sample_pairs


@pytest.fixture(scope="module")
def reference_table():
    path = resources.files("eprqkd").joinpath("data", "table1.csv")
    return CoincidenceTable.load_csv(str(path))


class TestReferenceTableArithmetic:
    """Frozen count sums, checked as exact fractions before asserting floats."""

    def test_qber_overall(self, reference_table):
        rep = qber_from_counts(reference_table)
        assert rep.p_wrong == 190
        assert rep.p_wrong + rep.p_right == 4044
        assert math.isclose(rep.qber, float(Fraction(190, 4044)), rel_tol=1e-12)
        assert abs(rep.qber - 0.047) < 5e-4

    def test_qber_per_basis(self, reference_table):
        rep = qber_from_counts(reference_table)
        assert math.isclose(rep.qber_xx, float(Fraction(139, 2161)), rel_tol=1e-12)
        assert math.isclose(rep.qber_pp, float(Fraction(51, 1883)), rel_tol=1e-12)
        assert abs(rep.qber_xx - 0.064) < 5e-4
        assert abs(rep.qber_pp - 0.027) < 5e-4

    def test_eve_prediction_half(self, reference_table):
        rep = qber_with_eve_prediction(reference_table, p_resend=0.5)
        assert rep.chi == 2475
        assert math.isclose(rep.qber, float(Fraction(2665, 8994)), rel_tol=1e-12)
        assert abs(rep.qber - 0.296) < 5e-4

    def test_eve_prediction_zero(self, reference_table):
        rep = qber_with_eve_prediction(reference_table, p_resend=0.0)
        assert math.isclose(rep.qber, float(Fraction(190, 8994)), rel_tol=1e-12)

    def test_eve_prediction_one(self, reference_table):
        rep = qber_with_eve_prediction(reference_table, p_resend=1.0)
        assert math.isclose(rep.qber, float(Fraction(5140, 8994)), rel_tol=1e-12)

    def test_eve_prediction_detector_weighted(self, reference_table):
        # chi restricted to Bob's detector-1 columns: 462+492+700+655 = 2309.
        rep = qber_with_eve_prediction(reference_table, p_resend=(1.0, 0.0))
        assert rep.chi == 2309
        assert math.isclose(rep.qber, float(Fraction(190 + 2309, 8994)), rel_tol=1e-12)

    def test_uncertainty_is_binomial(self, reference_table):
        rep = qber_from_counts(reference_table)
        q = rep.qber
        assert math.isclose(rep.uncertainty, math.sqrt(q * (1 - q) / 4044), rel_tol=1e-12)


class TestQberEdgeCases:
    def test_diagonal_table_gives_zero(self):
        counts = np.zeros((4, 4), dtype=int)
        np.fill_diagonal(counts, 100)
        rep = qber_from_counts(CoincidenceTable(counts))
        assert rep.qber == 0.0
        assert rep.qber_xx == 0.0 and rep.qber_pp == 0.0

    def test_zero_denominator_raises(self):
        with pytest.raises(ValueError):
            qber_from_counts(CoincidenceTable(np.zeros((4, 4), dtype=int)))
        with pytest.raises(ValueError):
            qber_with_eve_prediction(CoincidenceTable(np.zeros((4, 4), dtype=int)))

    def test_eve_chi_vanishes_without_cross_counts(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[:2, :2] = [[90, 10], [10, 90]]
        counts[2:, 2:] = [[90, 10], [10, 90]]
        rep = qber_with_eve_prediction(CoincidenceTable(counts), p_resend=0.5)
        assert rep.chi == 0.0
        assert math.isclose(rep.qber, 40 / 400)

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.integers(0, 500), min_size=16, max_size=16),
        factor=st.integers(1, 50),
    )
    def test_scale_invariance(self, cells, factor):
        counts = np.array(cells, dtype=int).reshape(4, 4)
        table = CoincidenceTable(counts)
        try:
            base = qber_from_counts(table)
        except ValueError:
            return
        scaled = qber_from_counts(table.scaled(factor))
        assert math.isclose(base.qber, scaled.qber, rel_tol=1e-12)
        assert math.isclose(base.qber_xx, scaled.qber_xx, rel_tol=1e-12)
        assert math.isclose(base.qber_pp, scaled.qber_pp, rel_tol=1e-12)


class TestThreePartyProbability:
    def test_matching_bases_reduce_to_pair_probability(self, reference_table):
        p_matrix = {("x", "x"): 1.0, ("p", "p"): 1.0, ("x", "p"): 0.5, ("p", "x"): 0.5}
        expected = 2161 / 8994
        value = three_party_probability(reference_table, "x", "x", "x", p_matrix)
        assert math.isclose(value, expected, rel_tol=1e-12)

    def test_wrong_basis_halves_cross_block(self, reference_table):
        p_matrix = {("x", "p"): 0.5, ("p", "x"): 0.5, ("x", "x"): 1.0, ("p", "p"): 1.0}
        value = three_party_probability(reference_table, "x", "x", "p", p_matrix)
        assert math.isclose(value, 0.5 * 2159 / 8994, rel_tol=1e-12)

    def test_zero_resend_probability(self, reference_table):
        p_matrix = {(j, k): 0.0 for j in "xp" for k in "xp"}
        assert three_party_probability(reference_table, "p", "x", "p", p_matrix) == 0.0


class TestAbortDecision:
    def test_low_rate_continues(self):
        rep = qber_from_counts(
            CoincidenceTable(np.array([[953, 47, 0, 0], [47, 953, 0, 0],
                                       [0, 0, 953, 47], [47, 0, 0, 953]]))
        )
        assert abort_decision(rep, 0.15) is False

    def test_high_rate_aborts(self):
        report = dataclasses.replace(
            qber_from_counts(
                CoincidenceTable(np.array([[70, 30, 0, 0], [30, 70, 0, 0],
                                           [0, 0, 70, 30], [30, 0, 0, 70]]))
            )
        )
        assert report.qber > 0.15
        assert abort_decision(report, 0.15) is True

    def test_threshold_boundary_continues(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[:2, :2] = [[85, 15], [0, 0]]
        counts[2:, 2:] = [[85, 15], [0, 0]]
        rep = qber_from_counts(CoincidenceTable(counts))
        assert rep.qber == 0.15
        assert abort_decision(rep, 0.15) is False


class TestSift:
    @staticmethod
    def event(basis_A, basis_B):
        return PairEvent(basis_A, basis_B, ClickOutcome.DETECTOR_1, ClickOutcome.DETECTOR_1)

    def test_same_basis_input_is_identity(self):
        events = [self.event("x", "x")] * 5 + [self.event("p", "p")] * 5
        assert sift(events) == events

    def test_alternating_bases_keep_half(self):
        events = [self.event("x", "x"), self.event("x", "p")] * 50
        kept = sift(events)
        assert len(kept) == 50
        assert all(e.basis_A == e.basis_B for e in kept)

    def test_random_run_keeps_half_binomially(self, rng):
        n = 100_000
        bases = ("x", "p")
        events = [
            self.event(bases[rng.integers(2)], bases[rng.integers(2)]) for _ in range(n)
        ]
        kept = len(sift(events))
        sigma = math.sqrt(n * 0.25)
        assert abs(kept - n / 2) <= 3 * sigma

    def test_order_preserved(self):
        events = [self.event("x", "x"), self.event("p", "x"), self.event("p", "p")]
        assert sift(events) == [events[0], events[2]]

    def test_coincidence_requires_both_clicks(self):
        with pytest.raises(ValueError):
            PairEvent("x", "x", ClickOutcome.DETECTOR_1, ClickOutcome.NULL)


class TestSessionConfigValidation:
    def test_m_bounds(self):
        with pytest.raises(ValueError):
            SessionConfig(n_coincidences=100, m_estimation=50)
        with pytest.raises(ValueError):
            SessionConfig(n_coincidences=100, m_estimation=0)

    def test_positive_n(self):
        with pytest.raises(ValueError):
            SessionConfig(n_coincidences=0, m_estimation=1)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            SessionConfig(n_coincidences=100, m_estimation=10, qber_threshold=1.0)

    @pytest.mark.parametrize("guard", [0, -5])
    def test_nonpositive_emission_guard(self, guard):
        with pytest.raises(ValueError, match="max_emitted"):
            SessionConfig(n_coincidences=100, m_estimation=10, max_emitted=guard)


class TestRunSession:
    def test_degenerate_source_gives_zero_x_errors(self):
        # Perfect position correlation and mirrored stations: x-sifted bits agree.
        from conftest import make_station

        station = make_station(O=200.0, I=100.0, k=300.0, origin=1.5)
        source = SourceModel(0.0, 1.8, 0.83, 3.7, PumpProfile(2.0))
        cfg = SessionConfig(n_coincidences=4000, m_estimation=500, rng_seed=3)
        mirrored_p = dataclasses.replace(
            station,
            p_detectors=(
                dataclasses.replace(station.p_detectors[0], center=2.0),
                dataclasses.replace(station.p_detectors[1], center=1.0),
            ),
        )
        result = run_session(source, mirrored_p, station, cfg, keep_events=True)
        assert result.estimate.qber_xx == 0.0
        xx = result.table.block("x", "x")
        assert xx[0, 1] == 0 and xx[1, 0] == 0

    def test_deterministic_for_fixed_seed(self, default_experiment):
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=5000, m_estimation=500, rng_seed=11)
        a = run_session(source, alice, bob, cfg)
        b = run_session(source, alice, bob, cfg)
        assert a.estimate == b.estimate
        assert a.sifted_bits_A == b.sifted_bits_A
        assert a.sifted_bits_B == b.sifted_bits_B
        assert a.table == b.table
        assert a.emitted_pairs == b.emitted_pairs

    @pytest.mark.parametrize("n", [2000, 20_000])
    def test_emitted_pairs_match_coincidence_probability(self, default_experiment, n):
        # Pairs up to the N-th coincidence are negative binomial: mean N/P,
        # std sqrt(N (1 - P)) / P, with P the oracle's coincidence probability
        # under fair basis coins.
        source, alice, bob = default_experiment
        p = sum(
            coincidence_probability(source, alice, bob, b_A, b_B, d_A, d_B)
            for b_A in "xp" for b_B in "xp" for d_A in (1, 2) for d_B in (1, 2)
        ) / 4.0
        cfg = SessionConfig(n_coincidences=n, m_estimation=n // 10, rng_seed=23)
        emitted = run_session(source, alice, bob, cfg).emitted_pairs
        sigma = math.sqrt(n * (1.0 - p)) / p
        assert abs(emitted / n - 1.0 / p) < 4.0 * sigma / n, (emitted, n / p, sigma)

    def test_table_consistent_with_event_tallies(self, default_experiment):
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=3000, m_estimation=300, rng_seed=5)
        result = run_session(source, alice, bob, cfg, keep_events=True)
        assert result.table.total() == cfg.n_coincidences

        def index(basis, outcome):
            return (0 if basis == "x" else 2) + outcome.value - 1

        rows = np.zeros(4, dtype=int)
        cols = np.zeros(4, dtype=int)
        for event in result.events:
            rows[index(event.basis_A, event.outcome_A)] += 1
            cols[index(event.basis_B, event.outcome_B)] += 1
        assert np.array_equal(result.table.row_sums(), rows)
        assert np.array_equal(result.table.column_sums(), cols)

    def test_session_sift_matches_sift_operation(self, default_experiment):
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=2000, m_estimation=200, rng_seed=9)
        result = run_session(source, alice, bob, cfg, keep_events=True)
        kept = sift(list(result.events))
        assert len(kept) == len(result.sifted_bits_A) + cfg.m_estimation

    def test_key_disagreement_matches_estimate(self, default_experiment):
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=40_000, m_estimation=4000, rng_seed=17)
        result = run_session(source, alice, bob, cfg)
        key_len = len(result.sifted_bits_A)
        disagree = sum(
            a != b for a, b in zip(result.sifted_bits_A, result.sifted_bits_B)
        ) / key_len
        q = result.estimate.qber
        sigma = math.sqrt(q * (1 - q) / cfg.m_estimation + q * (1 - q) / key_len)
        assert abs(disagree - q) <= 3 * sigma

    def test_estimation_pairs_removed_from_key(self, default_experiment):
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=2000, m_estimation=400, rng_seed=2)
        result = run_session(source, alice, bob, cfg, keep_events=True)
        sifted_total = sum(1 for e in result.events if e.basis_A == e.basis_B)
        assert len(result.sifted_bits_A) == sifted_total - cfg.m_estimation

    def test_guard_trips_on_hopeless_geometry(self, default_experiment):
        source, alice, bob = default_experiment
        far = dataclasses.replace(
            bob,
            x_detectors=(
                SlitDetector(1000.0, 0.2, 0),
                SlitDetector(1002.0, 0.2, 1),
            ),
            p_detectors=(
                SlitDetector(1000.0, 0.5, 0),
                SlitDetector(1002.0, 0.5, 1),
            ),
        )
        cfg = SessionConfig(
            n_coincidences=1000, m_estimation=100, rng_seed=1, max_emitted=50_000
        )
        with pytest.raises(ProtocolError, match="pathologically low"):
            run_session(source, alice, far, cfg)

    def test_attack_none_policy_equals_no_attack(self, default_experiment):
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=3000, m_estimation=300, rng_seed=13)
        plain = run_session(source, alice, bob, cfg)
        none_attack = run_session(
            source, alice, bob, cfg, attack=AttackConfig(basis_policy="none")
        )
        assert plain.table == none_attack.table
        assert plain.sifted_bits_A == none_attack.sifted_bits_A


def _reference_table(source, alice, bob, n, rng, intercept):
    """16-cell tally from the full pair sampler with this file's own readout.

    Every pair draws all four latent coordinates; each side maps the one its
    basis reads to the detection plane, tests the closed slit intervals and
    thins by attenuation.  With intercept, a uniform-random interceptor
    reads B's photon with a copy of B's station and relays p_same = 1,
    p_cross = (0.5, 0.5).
    """
    x_A, x_B, p_A, p_B = sample_pairs(source, n, rng)
    bas_A, bas_B, bas_E = (rng.integers(0, 2, size=n) for _ in range(3))

    def readout(station, x, p, basis):
        det = np.full(n, -1)
        coords = (
            x / station.alpha + station.origin,
            p * station.focal_length / station.wavenumber + station.origin,
        )
        for b, name in enumerate("xp"):
            for d, slit in enumerate(station.detectors(name)):
                inside = (basis == b) & (coords[b] >= slit.lo) & (coords[b] <= slit.hi)
                det[inside & (rng.random(n) < slit.attenuation)] = d
        return det

    det_A = readout(alice, x_A, p_A, bas_A)
    if intercept:
        det_E = readout(bob, x_B, p_B, bas_E)
        resent = np.where(bas_B == bas_E, det_E, (rng.random(n) >= 0.5).astype(int))
        det_B = np.where(det_E >= 0, resent, -1)
    else:
        det_B = readout(bob, x_B, p_B, bas_B)
    good = (det_A >= 0) & (det_B >= 0)
    cell = 4 * (2 * bas_A[good] + det_A[good]) + 2 * bas_B[good] + det_B[good]
    return np.bincount(cell, minlength=16).reshape(4, 4)


@pytest.mark.parametrize("intercept", [False, True], ids=["clean", "uniform_random"])
def test_sampler_law_matches_full_pair_sampler(default_experiment, intercept):
    """Two-sample chi-square between tally_coincidences and the reference.

    Both tables come from the same number of emitted pairs, so under equal
    laws each cell difference a - b has variance a + b and the sum of
    (a - b)^2 / (a + b) over the occupied cells of three seeds is
    chi-square with one degree of freedom per cell.
    """
    from scipy.stats import chi2

    source, alice, bob = default_experiment
    attack = AttackConfig(basis_policy="uniform_random") if intercept else None
    n = 2_000_000
    stat, dof = 0.0, 0
    for seed in (61, 62, 63):
        fast = tally_coincidences(
            source, alice, bob, n, np.random.default_rng(seed), attack=attack
        ).counts
        ref = _reference_table(
            source, alice, bob, n, np.random.default_rng(seed + 100), intercept
        )
        occupied = (fast + ref) > 0
        stat += float(np.sum((fast - ref)[occupied] ** 2 / (fast + ref)[occupied]))
        dof += int(occupied.sum())
    assert stat < chi2.ppf(0.999, dof), (stat, dof)


class TestTableCsv:
    def test_round_trip(self, reference_table, tmp_path):
        path = tmp_path / "table.csv"
        reference_table.save_csv(path)
        assert CoincidenceTable.load_csv(path) == reference_table

    def test_wrong_shape_diagnosed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",Bx1,Bx2,Bp1,Bp2\nAx1,1,2,3,4\nAx2,1,2,3,4\nAp1,1,2,3,4\n")
        with pytest.raises(ValueError, match="4 data rows"):
            CoincidenceTable.load_csv(path)

    def test_wrong_column_count_diagnosed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",Bx1,Bx2,Bp1,Bp2\nAx1,1,2,3\nAx2,1,2,3,4\nAp1,1,2,3,4\nAp2,1,2,3,4\n"
        )
        with pytest.raises(ValueError, match="row 1"):
            CoincidenceTable.load_csv(path)

    def test_non_integer_cell_diagnosed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",Bx1,Bx2,Bp1,Bp2\nAx1,1,2,3,x\nAx2,1,2,3,4\nAp1,1,2,3,4\nAp2,1,2,3,4\n"
        )
        with pytest.raises(ValueError, match="not an integer"):
            CoincidenceTable.load_csv(path)

    def test_bad_header_diagnosed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",Bx1,Bx2,Bp2,Bp1\nAx1,1,2,3,4\nAx2,1,2,3,4\nAp1,1,2,3,4\nAp2,1,2,3,4\n"
        )
        with pytest.raises(ValueError, match="header"):
            CoincidenceTable.load_csv(path)

    def test_negative_count_rejected(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = -1
        with pytest.raises(ValueError):
            CoincidenceTable(counts)
