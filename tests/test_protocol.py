import dataclasses
import math
import sys
import threading
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eprqkd import cli, protocol
from eprqkd import source as source_module
from eprqkd.detection import SlitDetector, coincidence_probability
from eprqkd.protocol import (
    AttackConfig,
    CoincidenceTable,
    ProtocolError,
    SessionConfig,
    qber_from_counts,
    qber_with_eve_prediction,
    run_session,
    tally_coincidences,
)
from eprqkd.source import PumpProfile, SourceModel, build_source, sample_pairs

from conftest import make_station


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
        rep = qber_with_eve_prediction(reference_table, p_resend=(0.5, 0.5))
        assert rep.chi == 2475
        assert math.isclose(rep.qber, float(Fraction(2665, 8994)), rel_tol=1e-12)
        assert abs(rep.qber - 0.296) < 5e-4

    def test_eve_prediction_zero(self, reference_table):
        rep = qber_with_eve_prediction(reference_table, p_resend=(0.0, 0.0))
        assert math.isclose(rep.qber, float(Fraction(190, 8994)), rel_tol=1e-12)

    def test_eve_prediction_one(self, reference_table):
        rep = qber_with_eve_prediction(reference_table, p_resend=(1.0, 1.0))
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
        rep = qber_with_eve_prediction(CoincidenceTable(counts), p_resend=(0.5, 0.5))
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
        scaled = qber_from_counts(CoincidenceTable(counts * factor))
        assert math.isclose(base.qber, scaled.qber, rel_tol=1e-12)
        for a, b in ((base.qber_xx, scaled.qber_xx), (base.qber_pp, scaled.qber_pp)):
            assert a is b is None or math.isclose(a, b, rel_tol=1e-12)

    def test_empty_same_basis_block_has_no_rate(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[:2, :2] = [[90, 10], [10, 90]]
        counts[:2, 2:] = 7
        rep = qber_from_counts(CoincidenceTable(counts))
        assert rep.qber == rep.qber_xx == 20 / 200
        assert rep.qber_pp is None


class TestAbortRule:
    def test_low_rate(self):
        rep = qber_from_counts(
            CoincidenceTable(np.array([[953, 47, 0, 0], [47, 953, 0, 0],
                                       [0, 0, 953, 47], [47, 0, 0, 953]]))
        )
        assert rep.qber < 0.15

    def test_high_rate(self):
        report = qber_from_counts(
            CoincidenceTable(np.array([[70, 30, 0, 0], [30, 70, 0, 0],
                                       [0, 0, 70, 30], [30, 0, 0, 70]]))
        )
        assert report.qber > 0.15

    def test_threshold_boundary_rate(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[:2, :2] = [[85, 15], [0, 0]]
        counts[2:, 2:] = [[85, 15], [0, 0]]
        rep = qber_from_counts(CoincidenceTable(counts))
        assert rep.qber == 0.15

    def test_session_aborts_only_strictly_above_threshold(self, default_experiment):
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=2000, m_estimation=200, rng_seed=3)
        q = run_session(source, alice, bob, cfg).estimate.qber
        assert 0 < q < 1
        at = run_session(source, alice, bob, dataclasses.replace(cfg, qber_threshold=q))
        below = run_session(
            source, alice, bob, dataclasses.replace(cfg, qber_threshold=math.nextafter(q, 0))
        )
        assert at.estimate.qber == below.estimate.qber == q
        assert at.aborted is False
        assert below.aborted is True


def sifted_count(result: protocol.SessionResult) -> int:
    table = result.table
    return sum(map(sum, table.block("x", "x") + table.block("p", "p")))


class TestSift:
    """Sifting inside run_session, read through the table it returns."""

    def test_same_basis_input_is_identity(self):
        # Both parties' momentum slits sit far outside the marginal, so every
        # coincidence is xx and sifting keeps all N of them.
        station = make_station(O=200.0, I=100.0, p_centers=(1000.0, 1002.0))
        source = build_source(0.33, 1.8, 0.83, 3.7, PumpProfile(2.0))
        cfg = SessionConfig(n_coincidences=2000, m_estimation=200, rng_seed=4)
        result = run_session(source, station, station, cfg)
        assert sum(map(sum, result.table.block("x", "x"))) == cfg.n_coincidences
        assert len(result.sifted_bits_A) + cfg.m_estimation == cfg.n_coincidences

    def test_alternating_bases_keep_half(self):
        # A's momentum slits are dead, so A clicks only in x while B's basis
        # coin alternates at random; with uncorrelated pairs and equal x and p
        # acceptance at B, sifting keeps the xx half and drops the xp half.
        bob = make_station(O=200.0, I=100.0, f=150.0, k=150.0, p_width=0.2)
        alice = dataclasses.replace(
            bob, p_detectors=(SlitDetector(1000.0, 0.2, 0), SlitDetector(1002.0, 0.2, 1))
        )
        source = build_source(1.0, 1.0, 1.0, 1.0, PumpProfile(2.0))
        n = 20_000
        cfg = SessionConfig(n_coincidences=n, m_estimation=1000, rng_seed=6)
        result = run_session(source, alice, bob, cfg)
        xx, xp = (sum(map(sum, result.table.block("x", b))) for b in "xp")
        assert xx + xp == n
        assert len(result.sifted_bits_A) + cfg.m_estimation == xx
        assert abs(xx - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_random_run_keeps_half_binomially(self):
        # Uncorrelated pairs and identical x and p optics (unit imaging scale
        # and Fourier gain): the four basis pairings are equally likely, so the
        # sifted count of N coincidences is Binomial(N, 1/2).
        station = make_station(O=200.0, I=100.0, f=150.0, k=150.0, p_width=0.2)
        source = build_source(1.0, 1.0, 1.0, 1.0, PumpProfile(2.0))
        n = 20_000
        cfg = SessionConfig(n_coincidences=n, m_estimation=1000, rng_seed=8)
        result = run_session(source, station, station, cfg)
        assert abs(sifted_count(result) - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_order_preserved(self):
        # Sifting keeps both parties' bits in the same pair order: with
        # x_A = x_B exactly and only the x slits live, the keys are identical.
        station = make_station(O=200.0, I=100.0, origin=1.5, p_centers=(1000.0, 1002.0))
        source = SourceModel(0.0, 1.8, 0.83, 3.7, PumpProfile(2.0))
        cfg = SessionConfig(n_coincidences=2000, m_estimation=200, rng_seed=10)
        result = run_session(source, station, station, cfg)
        assert result.sifted_bits_A == result.sifted_bits_B
        assert set(result.sifted_bits_A) == {"0", "1"}

    def test_coincidence_requires_both_clicks(self, default_experiment, rng):
        source, alice, bob = default_experiment
        for attack in (None, AttackConfig(basis_policy="uniform_random")):
            emitted = 0
            for n, pos, _, _, det_A, det_B in protocol._coincidences(
                source, alice, bob, attack, rng, 50_000, 20_000
            ):
                emitted += n
                assert np.all(det_A >= 0) and np.all(det_B >= 0)
                assert np.all(np.diff(pos) > 0) and (pos.size == 0 or pos[-1] < n)
            assert emitted == 50_000


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

    @pytest.mark.parametrize("field, value", [
        ("n_coincidences", 1e5),
        ("n_coincidences", True),
        ("m_estimation", 10.0),
        ("m_estimation", True),
        ("rng_seed", 1.5),
        ("rng_seed", "3"),
        ("rng_seed", False),
    ])
    def test_non_integer_field_named(self, field, value):
        kwargs = dict(n_coincidences=100, m_estimation=10)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SessionConfig(**kwargs)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="rng_seed must be non-negative"):
            SessionConfig(n_coincidences=100, m_estimation=10, rng_seed=-1)

    def test_numpy_integers_accepted(self):
        cfg = SessionConfig(
            n_coincidences=np.int64(100), m_estimation=np.int32(10),
            rng_seed=np.uint64(3),
        )
        assert (cfg.n_coincidences, cfg.m_estimation, cfg.rng_seed) == (100, 10, 3)


class TestRunSession:
    def test_degenerate_source_gives_zero_x_errors(self):
        # Perfect position correlation and mirrored stations: x-sifted bits agree.
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
        result = run_session(source, mirrored_p, station, cfg)
        assert result.estimate.qber_xx == 0.0
        xx = result.table.block("x", "x")
        assert xx[0][1] == 0 and xx[1][0] == 0

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
        # The table tallies every coincidence; each party's key holds the
        # same-basis bit-1 clicks of its row (A) or column (B) sums, less at
        # most m sacrificed to estimation.
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=3000, m_estimation=300, rng_seed=5)
        result = run_session(source, alice, bob, cfg)
        assert result.table.total() == cfg.n_coincidences
        xx, pp = result.table.block("x", "x"), result.table.block("p", "p")
        for key, ones in (
            (result.sifted_bits_A, sum(xx[1]) + sum(pp[1])),
            (result.sifted_bits_B, sum(row[1] for row in xx + pp)),
        ):
            assert ones - cfg.m_estimation <= key.count("1") <= ones

    def test_session_sift_matches_sift_operation(self, default_experiment):
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=2000, m_estimation=200, rng_seed=9)
        result = run_session(source, alice, bob, cfg)
        assert sifted_count(result) == len(result.sifted_bits_A) + cfg.m_estimation
        assert len(result.sifted_bits_B) == len(result.sifted_bits_A)

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
        # The m estimation pairs leave the key: its length is the sifted count
        # less m, and its disagreements are the table's same-basis wrong cells
        # less the estimate's.
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=2000, m_estimation=400, rng_seed=2)
        result = run_session(source, alice, bob, cfg)
        assert len(result.sifted_bits_A) == sifted_count(result) - cfg.m_estimation
        xx, pp = result.table.block("x", "x"), result.table.block("p", "p")
        wrong = xx[0][1] + xx[1][0] + pp[0][1] + pp[1][0]
        disagree = sum(a != b for a, b in zip(result.sifted_bits_A, result.sifted_bits_B))
        assert disagree == wrong - result.estimate.p_wrong

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
        cfg = SessionConfig(n_coincidences=10, m_estimation=1, rng_seed=1)
        with pytest.raises(ProtocolError, match="pathologically low"):
            run_session(source, alice, far, cfg)

    def test_attack_has_no_none_policy(self):
        # No attack is attack=None, never a policy.
        with pytest.raises(ValueError, match="basis_policy"):
            AttackConfig(basis_policy="none")

    def test_config_policy_none_is_no_attack(self):
        assert cli.build_attack({"attack.policy": "none"}) is None


def _wide_station():
    """A station whose detector-0 slits accept every latent coordinate."""
    return make_station(x_centers=(0.0, 1e7), p_centers=(0.0, 1e7), x_width=1e6, p_width=1e6)


_ATTACKS = pytest.mark.parametrize(
    "attack", [None, AttackConfig(basis_policy="uniform_random")], ids=["clean", "attacked"]
)


class TestBatchedEmission:
    """Batches run on threads, each on its own child stream, consumed in order."""

    @_ATTACKS
    def test_session_does_not_depend_on_worker_count(self, default_experiment, monkeypatch, attack):
        # N = 5000 gives batches of 40,000 pairs and about five of them, so
        # several are in flight and the session stops inside one.
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=5000, m_estimation=500, rng_seed=19)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(source_module, "worker_threads", lambda: workers)
            results.append(run_session(source, alice, bob, cfg, attack=attack))
        for result in results[1:]:
            assert result.sifted_bits_A == results[0].sifted_bits_A
            assert result.sifted_bits_B == results[0].sifted_bits_B
            assert result.table == results[0].table
            assert result.emitted_pairs == results[0].emitted_pairs
            assert result == results[0]

    @_ATTACKS
    def test_tally_does_not_depend_on_worker_count(self, default_experiment, monkeypatch, attack):
        # More threads than cores, switching every microsecond: a batch that
        # read another's stream or landed out of order would change the table.
        source, alice, bob = default_experiment
        tables = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 3):
                monkeypatch.setattr(source_module, "worker_threads", lambda: workers)
                tables.append(tally_coincidences(
                    source, alice, bob, 600_000, np.random.default_rng(7), attack=attack
                ))
        finally:
            sys.setswitchinterval(interval)
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("n_pairs", [1e5, True, -1])
    def test_tally_rejects_bad_pair_count(self, default_experiment, n_pairs):
        source, alice, bob = default_experiment
        with pytest.raises(ValueError, match="n_pairs must be a non-negative integer"):
            tally_coincidences(source, alice, bob, n_pairs, np.random.default_rng(0))

    def test_back_to_back_tallies_draw_distinct_streams(self, default_experiment):
        source, alice, bob = default_experiment
        rng = np.random.default_rng(5)
        first, second = (tally_coincidences(source, alice, bob, 300_000, rng) for _ in range(2))
        assert first != second

    @pytest.mark.parametrize("n_pairs", [999, 1000, 1001, 2007])
    def test_every_pair_emitted_once_across_batches(self, default_experiment, monkeypatch, n_pairs):
        """Windows that accept every pair tally n_pairs coincidences exactly."""
        monkeypatch.setattr(protocol, "DRAW_SIZE", 1000)
        monkeypatch.setattr(source_module, "worker_threads", lambda: 3)
        wide = _wide_station()
        table = tally_coincidences(
            default_experiment[0], wide, wide, n_pairs, np.random.default_rng(9)
        )
        assert table.total() == n_pairs

    def test_session_counts_emissions_to_the_last_coincidence(self, default_experiment, monkeypatch):
        # Every pair is a coincidence, so the session stops at pair N exactly
        # although later batches were already running.
        monkeypatch.setattr(source_module, "worker_threads", lambda: 3)
        wide = _wide_station()
        cfg = SessionConfig(n_coincidences=5001, m_estimation=500, rng_seed=4)
        result = run_session(default_experiment[0], wide, wide, cfg)
        assert result.emitted_pairs == cfg.n_coincidences
        assert result.table.total() == cfg.n_coincidences

    def test_guard_counts_every_emitted_pair(self, default_experiment, monkeypatch):
        # The guard of 10^4 N = 100,000 pairs is 24 batches of 4,096 plus
        # 1,696, not a multiple of the batch: the batches still sum to it
        # exactly before the session gives up.
        monkeypatch.setattr(source_module, "worker_threads", lambda: 3)
        source, alice, _ = default_experiment
        far = make_station(x_centers=(1000.0, 1002.0), p_centers=(1000.0, 1002.0))
        cfg = SessionConfig(n_coincidences=10, m_estimation=1, rng_seed=1)
        threads = threading.active_count()
        with pytest.raises(ProtocolError, match="emitted 100000 pairs but collected only 0 of 10"):
            run_session(source, alice, far, cfg)
        assert threading.active_count() == threads

    def test_no_pool_thread_outlives_an_early_stop(self, default_experiment, monkeypatch):
        monkeypatch.setattr(source_module, "worker_threads", lambda: 3)
        source, alice, bob = default_experiment
        threads = threading.active_count()
        cfg = SessionConfig(n_coincidences=2000, m_estimation=200, rng_seed=3)
        result = run_session(source, alice, bob, cfg)
        assert result.emitted_pairs < protocol.EMITTED_PER_COINCIDENCE * cfg.n_coincidences
        assert threading.active_count() == threads
        tally_coincidences(source, alice, bob, 100_000, np.random.default_rng(3))
        assert threading.active_count() == threads

    def test_no_pool_thread_outlives_a_failed_sift(self, monkeypatch):
        # A reads only x and B only p, so every coincidence is sifted away and
        # the session raises after stopping early.  `failure` holds the
        # traceback and with it the session's frame, so only an explicit close
        # ends the emission loop before the assertion.
        monkeypatch.setattr(source_module, "worker_threads", lambda: 3)
        alice = make_station(x_centers=(-0.2, 0.2), p_centers=(1000.0, 1002.0))
        bob = make_station(x_centers=(1000.0, 1002.0), p_centers=(-0.3, 0.3))
        source = build_source(1.0, 1.0, 1.0, 1.0, PumpProfile(2.0))
        threads = threading.active_count()
        cfg = SessionConfig(n_coincidences=2000, m_estimation=200, rng_seed=3)
        with pytest.raises(ProtocolError, match="only 0 sifted pairs") as failure:
            run_session(source, alice, bob, cfg)
        assert "cannot sacrifice 200" in str(failure.value)
        assert threading.active_count() == threads


def _reference_table(source, alice, bob, n, rng, intercept):
    """16-cell tally from the full pair sampler with this file's own readout.

    Every pair draws all four latent coordinates; each side maps the one its
    basis reads to the detection plane, tests the closed slit intervals and
    thins by attenuation.  With intercept, a uniform-random interceptor
    reads B's photon with a copy of B's station and resends: B in her basis
    gets her result, B in the other basis either detector with probability 1/2.
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

    def test_unknown_basis_rejected(self, reference_table):
        with pytest.raises(ValueError, match="'z'"):
            reference_table.block("z", "x")
        with pytest.raises(ValueError, match="'q'"):
            reference_table.block("x", "q")

    def test_negative_count_rejected(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = -1
        with pytest.raises(ValueError):
            CoincidenceTable(counts)


class TestTableType:
    """Plain-int rows; numpy arrays and nested lists are the same table."""

    CELLS = [[953, 47, 12, 30], [41, 960, 25, 19], [17, 28, 948, 52], [33, 21, 44, 957]]

    def test_array_and_lists_give_identical_reports(self):
        from_lists = CoincidenceTable(self.CELLS)
        from_array = CoincidenceTable(np.array(self.CELLS, dtype=np.int64))
        assert from_lists == from_array
        assert qber_from_counts(from_lists) == qber_from_counts(from_array)
        for p in ((0.5, 0.5), (0.3, 0.6)):
            assert qber_with_eve_prediction(from_lists, p) == qber_with_eve_prediction(
                from_array, p
            )

    def test_rows_hold_python_ints(self):
        table = CoincidenceTable(np.array(self.CELLS, dtype=np.int32))
        assert table.rows == tuple(map(tuple, self.CELLS))
        assert all(type(v) is int for row in table.rows for v in row)
        assert table.block("p", "x") == ((17, 28), (33, 21))
        assert table.total() == sum(map(sum, self.CELLS))

    def test_counts_is_a_fresh_int64_array(self):
        table = CoincidenceTable(self.CELLS)
        counts = table.counts
        assert counts.dtype == np.int64 and counts.shape == (4, 4)
        assert counts.tolist() == [list(row) for row in table.rows]
        counts[0, 0] = 0
        assert table.counts[0, 0] == self.CELLS[0][0]

    def test_integer_valued_floats_accepted(self):
        assert CoincidenceTable(np.array(self.CELLS, dtype=float)).rows == CoincidenceTable(
            self.CELLS
        ).rows

    @pytest.mark.parametrize("value", [0.5, 2.25, math.nan, math.inf, "7"])
    def test_non_integer_rejected(self, value):
        cells = [list(row) for row in self.CELLS]
        cells[2][1] = value
        with pytest.raises(ValueError, match="integers"):
            CoincidenceTable(cells)

    @pytest.mark.parametrize("value", [-1, -0.5])
    def test_negative_rejected(self, value):
        cells = [list(row) for row in self.CELLS]
        cells[1][3] = value
        with pytest.raises(ValueError, match="non-negative"):
            CoincidenceTable(cells)

    @pytest.mark.parametrize("counts", [
        np.zeros((3, 4), dtype=int),
        np.zeros((4, 5), dtype=int),
        np.zeros(16, dtype=int),
        [[0] * 4] * 3 + [[0] * 3],
        5,
    ])
    def test_wrong_shape_rejected(self, counts):
        with pytest.raises(ValueError, match="4x4"):
            CoincidenceTable(counts)
