import dataclasses
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eprqkd import cli, protocol
from eprqkd import source as source_module
from eprqkd.defaults import build_setup, parse_config_file
from eprqkd.detection import SlitDetector, cell_probability, coincidence_probability
from eprqkd.protocol import AttackConfig, ProtocolError, SessionConfig, run_session, tally_coincidences
from eprqkd.source import PumpProfile, SourceModel, build_source, sample_pairs
from eprqkd.tables import CoincidenceTable, qber_from_counts, qber_with_eve_prediction

from conftest import WIDE_STATION, _two_sample_chi2, make_station, oracle_table


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

    def test_session_aborts_only_strictly_above_threshold(self, default_experiment, monkeypatch):
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=2000, m_estimation=200, rng_seed=3)
        q = run_session(source, alice, bob, cfg).estimate.qber
        assert 0 < q < 1
        monkeypatch.setattr(protocol, "DEFAULT_QBER_THRESHOLD", q)
        at = run_session(source, alice, bob, cfg)
        monkeypatch.setattr(protocol, "DEFAULT_QBER_THRESHOLD", math.nextafter(q, 0))
        below = run_session(source, alice, bob, cfg)
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
            for n, position, label in protocol._coincidences(
                source, alice, bob, attack, rng, 50_000, 20_000
            ):
                emitted += n
                assert np.all((label >= 0) & (label < 16))
                assert label.size <= n
                assert label.size == 0 or 0 <= position(label.size - 1) < n
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
        p = oracle_table(source, alice, bob).sum() / 4.0
        cfg = SessionConfig(n_coincidences=n, m_estimation=n // 10, rng_seed=23)
        emitted = run_session(source, alice, bob, cfg).emitted_pairs
        sigma = math.sqrt(n * (1.0 - p)) / p
        assert abs(emitted / n - 1.0 / p) < 4.0 * sigma / n, (emitted, n / p, sigma)

    @pytest.mark.parametrize(
        "attack", [None, AttackConfig(basis_policy="always_p")], ids=["clean", "always_p"]
    )
    def test_mean_emitted_pairs_over_seeds(self, default_experiment, attack):
        # Each batch draws binomial(n, total) proposals, a kept one is a
        # coincidence, and the N-th is placed by bisection: over 20 seeds
        # the mean emission to the N-th coincidence is N/P within 4 standard
        # errors of the negative binomial, P the attenuated oracle rate
        # (mean of 16 cells / 4).  The interceptor leaves the rate alone:
        # she reads with B's station and every click of hers reaches one of
        # B's detectors.
        source, alice, bob = default_experiment
        p = oracle_table(source, alice, bob).sum() / 4.0
        n, seeds = 2000, range(40, 60)
        emitted = [
            run_session(source, alice, bob, SessionConfig(n, n // 10, seed), attack=attack)
            .emitted_pairs for seed in seeds
        ]
        sigma = math.sqrt(n * (1.0 - p)) / p / math.sqrt(len(seeds))
        assert abs(np.mean(emitted) - n / p) < 4.0 * sigma, (np.mean(emitted), n / p, sigma)

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

    @pytest.mark.parametrize("policy", [None, "uniform_random", "always_x", "always_p"])
    def test_estimation_pairs_removed_from_key(self, default_experiment, policy):
        # The m estimation pairs leave the key: its length is the sifted count
        # less m, and its disagreements are the table's same-basis wrong cells
        # less the estimate's, clean and under each attack policy.
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=2000, m_estimation=400, rng_seed=2)
        attack = None if policy is None else AttackConfig(basis_policy=policy)
        result = run_session(source, alice, bob, cfg, attack=attack)
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

    def test_far_slits_give_up_fast(self, default_experiment):
        # Slits about 10 std out on both sides: the envelope total is tiny
        # but not 0, so nearly every batch draws no proposal.  The session
        # still reaches its 10^4 N cap, quickly.
        import time

        source, alice, bob = default_experiment
        far_A, far_B = (
            dataclasses.replace(station, **{
                f"{basis}_detectors": tuple(
                    dataclasses.replace(slit, center=slit.center + shift)
                    for slit in station.detectors(basis)
                )
                for basis in "xp"
            })
            for station, shift in ((alice, 10.0), (bob, -10.0))
        )
        assert 0.0 < source_module.PairKernel(protocol._cells(source, far_A, far_B, None)).total < 1e-20
        cfg = SessionConfig(n_coincidences=100_000, m_estimation=10, rng_seed=1)
        start = time.perf_counter()
        with pytest.raises(ProtocolError, match="emitted 1000000000 pairs but collected only 0 of"):
            run_session(source, far_A, far_B, cfg)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("n, k", [(1, 1), (7, 1), (7, 3), (8, 7), (9, 9), (12, 5)])
    def test_position_law_is_the_order_statistic(self, n, k):
        # The j-th smallest of a uniform k-subset of range(n) is t with
        # probability C(t, j) C(n - 1 - t, k - 1 - j) / C(n, k): a chi-square
        # over t per j (j = 0 and j = k - 1 among them), or the one place
        # j itself when every place is taken (k = n).
        from scipy.stats import chi2

        rng = np.random.default_rng(n * 100 + k)
        for j in range(k):
            draws = [protocol._position(n, k, j, rng) for _ in range(3000)]
            law = np.array([math.comb(t, j) * math.comb(n - 1 - t, k - 1 - j) for t in range(n)])
            law = law / math.comb(n, k)
            if k == n:
                assert set(draws) == {j}
                continue
            seen = np.bincount(draws, minlength=n)
            assert seen.size == n and seen[law == 0].sum() == 0
            expected = 3000 * law[law > 0]
            stat = float(np.sum((seen[law > 0] - expected) ** 2 / expected))
            assert stat < chi2.ppf(0.999, law.size - 1 - (law == 0).sum()), (j, stat)

    @pytest.mark.parametrize("j", [0, 40, 99])
    def test_position_matches_a_sorted_sample(self, j):
        # Over seeds, the bisection's place of the j-th of k = 100 among
        # n = 2^18 has the mean and spread of np.sort(choice(n, k))[j].
        n, k, seeds = 1 << 18, 100, range(400)
        bisected = [protocol._position(n, k, j, np.random.default_rng(s)) for s in seeds]
        sorted_ = [
            np.sort(np.random.default_rng(s + 1000).choice(n, k, replace=False))[j] for s in seeds
        ]
        se = math.sqrt((np.var(bisected) + np.var(sorted_)) / len(seeds))
        assert abs(np.mean(bisected) - np.mean(sorted_)) < 4.0 * se
        assert 0.75 < np.std(bisected) / np.std(sorted_) < 1.33

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
    """Batches each on a child stream spawned in order, consumed in order."""

    @_ATTACKS
    def test_session_repeats_for_a_seed(self, default_experiment, attack):
        # N = 5000 gives batches of 40,000 pairs and about five of them, so
        # the session stops inside one.
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=5000, m_estimation=500, rng_seed=19)
        first, second = (run_session(source, alice, bob, cfg, attack=attack) for _ in range(2))
        assert first == second

    @_ATTACKS
    def test_tally_repeats_for_a_seed(self, default_experiment, attack):
        source, alice, bob = default_experiment
        first, second = (
            tally_coincidences(source, alice, bob, 600_000, np.random.default_rng(7), attack=attack)
            for _ in range(2)
        )
        assert first == second

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
    def test_batches_emit_every_pair_once(self, default_experiment, n_pairs):
        # Batch sizes sum to the pairs asked for, each holding its own
        # coincidences, and each batch takes the next child stream.
        source, alice, bob = default_experiment
        rng = np.random.default_rng(9)
        sizes = []
        for n, position, label in protocol._coincidences(source, alice, bob, None, rng, n_pairs, 1000):
            assert label.size == 0 or 0 <= position(label.size - 1) < n
            sizes.append(n)
        assert sum(sizes) == n_pairs and max(sizes) == min(n_pairs, 1000)
        assert rng.bit_generator.seed_seq.n_children_spawned == len(sizes)

    @pytest.mark.parametrize("n_pairs", [999, 1000, 1001, 2007])
    def test_every_pair_emitted_once_across_batches(self, default_experiment, monkeypatch, n_pairs):
        """Windows that accept every pair tally n_pairs coincidences exactly."""
        monkeypatch.setattr(protocol, "DRAW_SIZE", 1000)
        wide = _wide_station()
        table = tally_coincidences(
            default_experiment[0], wide, wide, n_pairs, np.random.default_rng(9)
        )
        assert table.total() == n_pairs

    def test_session_counts_emissions_to_the_last_coincidence(self, default_experiment):
        # Every pair is a coincidence, so the session stops at pair N exactly,
        # and its table is the first N labels of its one batch.
        wide = _wide_station()
        cfg = SessionConfig(n_coincidences=5001, m_estimation=500, rng_seed=4)
        result = run_session(default_experiment[0], wide, wide, cfg)
        assert result.emitted_pairs == cfg.n_coincidences
        assert result.table.total() == cfg.n_coincidences
        batch = max(4096, min(protocol.DRAW_SIZE, 8 * cfg.n_coincidences))
        _, _, label = next(protocol._coincidences(
            default_experiment[0], wide, wide, None, np.random.default_rng(cfg.rng_seed), 10**9, batch
        ))
        tallied = protocol._cell_counts(label[: cfg.n_coincidences])
        assert result.table.counts.tolist() == tallied.tolist()

    @_ATTACKS
    def test_emitted_pairs_end_at_the_last_coincidence(self, default_experiment, attack):
        # The session's batches, replayed: emitted_pairs is the N-th
        # coincidence's position + 1, inside a batch that holds more, and
        # the table is the first N coincidences.
        source, alice, bob = default_experiment
        cfg = SessionConfig(n_coincidences=5001, m_estimation=500, rng_seed=4)
        result = run_session(source, alice, bob, cfg, attack=attack)
        offset, labels = 0, []
        batch = max(4096, min(protocol.DRAW_SIZE, 8 * cfg.n_coincidences))
        for n, position, label in protocol._coincidences(
            source, alice, bob, attack, np.random.default_rng(cfg.rng_seed), 10**9, batch
        ):
            labels.append(label)
            if sum(c.size for c in labels) >= cfg.n_coincidences:
                break
            offset += n
        last = cfg.n_coincidences - sum(c.size for c in labels[:-1]) - 1
        assert last < labels[-1].size - 1  # the batch was cut
        assert result.emitted_pairs == offset + position(last) + 1
        tallied = protocol._cell_counts(np.concatenate(labels)[: cfg.n_coincidences])
        assert result.table.counts.tolist() == tallied.tolist()

    def test_guard_counts_every_emitted_pair(self, default_experiment):
        # The guard of 10^4 N = 100,000 pairs is 24 batches of 4,096 plus
        # 1,696, not a multiple of the batch: the batches still sum to it
        # exactly before the session gives up.
        source, alice, _ = default_experiment
        far = make_station(x_centers=(1000.0, 1002.0), p_centers=(1000.0, 1002.0))
        cfg = SessionConfig(n_coincidences=10, m_estimation=1, rng_seed=1)
        with pytest.raises(ProtocolError, match="emitted 100000 pairs but collected only 0 of 10"):
            run_session(source, alice, far, cfg)

    def test_failed_sift_names_the_shortfall(self):
        # A reads only x and B only p, so every coincidence is sifted away and
        # the session raises after stopping early.
        alice = make_station(x_centers=(-0.2, 0.2), p_centers=(1000.0, 1002.0))
        bob = make_station(x_centers=(1000.0, 1002.0), p_centers=(-0.3, 0.3))
        source = build_source(1.0, 1.0, 1.0, 1.0, PumpProfile(2.0))
        cfg = SessionConfig(n_coincidences=2000, m_estimation=200, rng_seed=3)
        with pytest.raises(ProtocolError, match="only 0 sifted pairs") as failure:
            run_session(source, alice, bob, cfg)
        assert "cannot sacrifice 200" in str(failure.value)


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


# The channel's basis probabilities (x, p): B's fair coin, or each interception policy.
CHANNEL_POLICIES = [
    (None, (0.5, 0.5)), ("uniform_random", (0.5, 0.5)),
    ("always_x", (1.0, 0.0)), ("always_p", (0.0, 1.0)),
]


class TestSessionCells:
    """protocol._cells, the table the session's PairKernel draws from."""

    @pytest.mark.parametrize("policy, p_ch", CHANNEL_POLICIES)
    def test_laws_and_weights(self, default_experiment, policy, p_ch):
        # Same-basis cells carry the basis's (rho, s), cross cells (0, 1);
        # the weight is A's coin, the channel basis's probability under the
        # policy and both attenuations.
        source, alice, bob = default_experiment
        _, rho, s = source_module.channel_law(source)
        attack = None if policy is None else AttackConfig(basis_policy=policy)
        cells = protocol._cells(source, alice, bob, attack)
        assert len(cells) == 16
        for k, (_, _, cell_rho, cell_s, weight) in enumerate(cells):
            b_A, d_A, b_ch, d_ch = k >> 3, (k >> 2) & 1, (k >> 1) & 1, k & 1
            law = (rho[b_A], s[b_A]) if b_A == b_ch else (0.0, 1.0)
            assert (cell_rho, cell_s) == law
            att_A = alice.detectors("xp"[b_A])[d_A].attenuation
            att = att_A * bob.detectors("xp"[b_ch])[d_ch].attenuation
            assert weight == 0.5 * p_ch[b_ch] * att

    @pytest.mark.parametrize("policy, p_ch", CHANNEL_POLICIES)
    def test_cells_weigh_the_oracle(self, default_experiment, policy, p_ch):
        # Each cell's probability is its oracle cell, attenuations included,
        # times A's coin and the channel basis's probability: the kernel
        # draws each cell at exactly the oracle's rate.
        source, alice, bob = default_experiment
        attack = None if policy is None else AttackConfig(basis_policy=policy)
        for k, cell in enumerate(protocol._cells(source, alice, bob, attack)):
            b_A, d_A, b_ch, d_ch = k >> 3, (k >> 2) & 1, (k >> 1) & 1, k & 1
            oracle = coincidence_probability(
                source, alice, bob, "xp"[b_A], "xp"[b_ch], d_A + 1, d_ch + 1
            )
            assert cell_probability(cell) == pytest.approx(0.5 * p_ch[b_ch] * oracle, rel=1e-14, abs=0)


@pytest.mark.parametrize("intercept", [False, True], ids=["clean", "uniform_random"])
def test_sampler_law_matches_full_pair_sampler(default_experiment, intercept):
    """Two-sample chi-square (_two_sample_chi2) between tally_coincidences and the reference, over three seeds."""
    from scipy.stats import chi2

    source, alice, bob = default_experiment
    attack = AttackConfig(basis_policy="uniform_random") if intercept else None
    n = 2_000_000
    pairs = [
        (
            tally_coincidences(source, alice, bob, n, np.random.default_rng(seed), attack=attack).counts,
            _reference_table(source, alice, bob, n, np.random.default_rng(seed + 100), intercept),
        )
        for seed in (61, 62, 63)
    ]
    stat, dof = _two_sample_chi2(pairs)
    assert stat < chi2.ppf(0.999, dof), (stat, dof)


@pytest.mark.parametrize("intercept", [False, True], ids=["clean", "uniform_random"])
def test_full_density_law_matches_full_pair_sampler(default_experiment, intercept):
    """The law test of tally_coincidences on stations whose boxes would total 1 or more."""
    from scipy.stats import chi2

    source = default_experiment[0]
    cells = protocol._cells(source, WIDE_STATION, WIDE_STATION, None)
    assert sum(source_module._box(cell)[0] for cell in cells) > 1.0
    attack = AttackConfig(basis_policy="uniform_random") if intercept else None
    n = 400_000
    pairs = [
        (
            tally_coincidences(
                source, WIDE_STATION, WIDE_STATION, n, np.random.default_rng(seed), attack=attack
            ).counts,
            _reference_table(
                source, WIDE_STATION, WIDE_STATION, n, np.random.default_rng(seed + 100), intercept
            ),
        )
        for seed in (81, 82, 83)
    ]
    stat, dof = _two_sample_chi2(pairs)
    assert stat < chi2.ppf(0.999, dof), (stat, dof)


# Two geometries of the benchmark's sweep ranges.
SWEEP_GEOMETRIES = {
    "wide-x": {
        "station.image_distance_mm": "80.0", "station.x_slit_width_mm": "0.3",
        "station.p_slit_width_mm": "0.25", "station.detector1_mm": "0.95",
        "station.detector2_mm": "2.1",
    },
    "wide-p": {
        "station.image_distance_mm": "95.0", "station.x_slit_width_mm": "0.15",
        "station.p_slit_width_mm": "0.55", "station.detector1_mm": "1.08",
        "station.detector2_mm": "1.9",
    },
}


def _sweep_setup(name):
    cfg = parse_config_file(None)
    cfg.update(SWEEP_GEOMETRIES[name])
    return build_setup(cfg)


@pytest.mark.parametrize("geometry_A, geometry_B", [
    (None, None), ("wide-x", "wide-p"), ("wide-p", "wide-x"),
], ids=["default", "wide-x A, wide-p B", "wide-p A, wide-x B"])
def test_station_swap_transposes_the_tables(default_experiment, geometry_A, geometry_B):
    """Exchanging the two stations transposes the oracle table and the Monte Carlo table.

    The state is symmetric under A <-> B, but the sampler is not: it reads
    A's photon first and draws B's given A's.  Beside the default setup, A
    takes the derived, filtered station of one sweep geometry and B that of
    the other, so the two stations differ in scale, slit widths, centers
    and filters, and a defect that treats one role differently moves the
    swapped table off the transpose.
    """
    from scipy.stats import chi2

    source, alice, bob = default_experiment
    if geometry_A is not None:
        alice, bob = _sweep_setup(geometry_A)[1], _sweep_setup(geometry_B)[2]
    np.testing.assert_allclose(
        oracle_table(source, bob, alice), oracle_table(source, alice, bob).T, rtol=0, atol=1e-12
    )
    n = 10_000_000
    table = tally_coincidences(source, alice, bob, n, np.random.default_rng(71)).counts
    swapped = tally_coincidences(source, bob, alice, n, np.random.default_rng(72)).counts
    stat, dof = _two_sample_chi2([(table, swapped.T)])
    assert stat < chi2.ppf(0.999, dof), (stat, dof)


def _relabelled(station):
    """The station with each basis's two slits exchanged: detector 1 is the old detector 2."""
    first_x, second_x = station.x_detectors
    first_p, second_p = station.p_detectors
    return dataclasses.replace(
        station,
        x_detectors=(dataclasses.replace(second_x, logical_bit=0), dataclasses.replace(first_x, logical_bit=1)),
        p_detectors=(dataclasses.replace(second_p, logical_bit=0), dataclasses.replace(first_p, logical_bit=1)),
    )


def _block_error_rates(table):
    """(xx, pp) error rates of a 4x4 table: off-diagonal over total of each same-basis block."""
    return [(b[0, 1] + b[1, 0]) / b.sum() for b in (table[:2, :2], table[2:, 2:])]


@pytest.mark.parametrize("geometry_A, geometry_B", [
    (None, None), ("wide-x", "wide-p"),
], ids=["default", "wide-x A, wide-p B"])
def test_detector_relabel_permutes_the_tables(default_experiment, geometry_A, geometry_B):
    """Exchanging each basis's two slits on both stations permutes the cells.

    Detector 1 and 2 of both bases trade places, so row and column
    (Ax1, Ax2, Ap1, Ap2) become (Ax2, Ax1, Ap2, Ap1): the relabelled
    oracle table is the unrelabelled one so permuted, to 1e-12, with both
    error rates unchanged, and a 10^7-pair tally of the relabelled setup,
    permuted back, passes the two-sample chi-square against the
    unrelabelled one.  The kernel then draws from a cell table whose
    windows and weights sit in other places.
    """
    from scipy.stats import chi2

    source, alice, bob = default_experiment
    if geometry_A is not None:
        alice, bob = _sweep_setup(geometry_A)[1], _sweep_setup(geometry_B)[2]
    alice_r, bob_r = _relabelled(alice), _relabelled(bob)
    perm = [1, 0, 3, 2]
    table, relabelled = oracle_table(source, alice, bob), oracle_table(source, alice_r, bob_r)
    np.testing.assert_allclose(relabelled, table[perm][:, perm], rtol=0, atol=1e-12)
    np.testing.assert_allclose(_block_error_rates(relabelled), _block_error_rates(table), rtol=1e-12)
    n = 10_000_000
    counts = tally_coincidences(source, alice, bob, n, np.random.default_rng(73)).counts
    back = tally_coincidences(source, alice_r, bob_r, n, np.random.default_rng(74)).counts
    stat, dof = _two_sample_chi2([(counts, back[perm][:, perm])])
    assert stat < chi2.ppf(0.999, dof), (stat, dof)


@settings(max_examples=200, deadline=None)
@given(
    x_slit=st.floats(0.1, 0.4), p_slit=st.floats(0.2, 0.6), image_distance=st.floats(70.0, 100.0),
    detector1=st.floats(0.9, 1.1), separation=st.floats(0.8, 1.2), scale=st.floats(0.1, 10.0),
)
def test_unit_rescaling_leaves_the_oracle_unchanged(
    x_slit, p_slit, image_distance, detector1, separation, scale
):
    """Lengths scaled by lambda and momenta by 1/lambda leave every probability unchanged.

    On a geometry of the benchmark's sweep ranges, sigma+- and alpha
    (through object_distance) scale by lambda and kappa+- and k/f (through
    wavenumber) by 1/lambda, both stations alike.  The slits' latent windows
    then scale with their basis's std, so all 16 oracle cells stay the same
    to 1e-12; the detected x variance, in detection-plane mm^2, stays the
    same and the detected p variance, in 1/mm^2, scales by 1/lambda^2.
    """
    from eprqkd.detection import detected_variance

    cfg = parse_config_file(None)
    cfg.update({
        "station.image_distance_mm": repr(image_distance), "station.x_slit_width_mm": repr(x_slit),
        "station.p_slit_width_mm": repr(p_slit), "station.detector1_mm": repr(detector1),
        "station.detector2_mm": repr(detector1 + separation),
    })
    source, alice, bob = build_setup(cfg)
    scaled_source = dataclasses.replace(
        source, sigma_minus=source.sigma_minus * scale, sigma_plus=source.sigma_plus * scale,
        kappa_minus=source.kappa_minus / scale, kappa_plus=source.kappa_plus / scale,
    )
    scaled_alice, scaled_bob = (
        dataclasses.replace(
            station, object_distance=station.object_distance * scale,
            wavenumber=station.wavenumber / scale,
        )
        for station in (alice, bob)
    )
    np.testing.assert_allclose(
        oracle_table(scaled_source, scaled_alice, scaled_bob), oracle_table(source, alice, bob),
        rtol=0, atol=1e-12,
    )
    for basis, power in (("x", 0), ("p", -2)):
        np.testing.assert_allclose(
            detected_variance(scaled_source, scaled_alice, scaled_bob, basis),
            detected_variance(source, alice, bob, basis) * scale**power,
            rtol=1e-12,
        )


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
