import math

import numpy as np
import pytest
from fractions import Fraction

from conftest import make_station

from eprqkd.adversary import (
    AttackConfig,
    EveRecord,
    intercept,
    predicted_qber,
    resolve_attack,
)
from eprqkd.detection import ClickOutcome, acceptance_mass, coincidence_probability
from eprqkd.protocol import (
    CoincidenceTable,
    SessionConfig,
    qber_from_counts,
    run_session,
    tally_coincidences,
)
from eprqkd.source import PairSample, sample_pairs


class TestAttackConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="basis_policy"):
            AttackConfig(basis_policy="sometimes")

    def test_cross_fractions_bounded(self):
        with pytest.raises(ValueError):
            AttackConfig(p_cross_basis=(0.7, 0.7))
        with pytest.raises(ValueError):
            AttackConfig(p_cross_basis=(-0.1, 0.5))
        AttackConfig(p_cross_basis=(0.3, 0.3))  # remainder 0.4 goes to null

    def test_p_same_bounded(self):
        with pytest.raises(ValueError):
            AttackConfig(p_same_basis_correct=1.5)

    def test_resolve_fills_station_copy(self):
        bob = make_station()
        attack = resolve_attack(AttackConfig(), bob)
        assert attack.eve_stations == bob


class TestInterceptSingle:
    def station(self):
        return make_station(O=200.0, I=100.0, k=300.0)  # alpha=1, k/f=2

    def test_click_inside_slit_resends_same_basis(self, rng):
        attack = AttackConfig(basis_policy="always_x", eve_stations=self.station())
        sample = PairSample(x_A=1.0, x_B=1.05, p_A=0.0, p_B=0.0)
        record, bob_click = intercept(sample, attack, rng)
        assert record == EveRecord("x", ClickOutcome.DETECTOR_1)
        for _ in range(20):
            assert bob_click("x") is ClickOutcome.DETECTOR_1

    def test_null_blocks_bob(self, rng):
        attack = AttackConfig(basis_policy="always_x", eve_stations=self.station())
        sample = PairSample(x_A=0.0, x_B=5.0, p_A=0.0, p_B=0.0)
        record, bob_click = intercept(sample, attack, rng)
        assert record.outcome_E is ClickOutcome.NULL
        assert bob_click("x") is ClickOutcome.NULL
        assert bob_click("p") is ClickOutcome.NULL

    def test_wrong_basis_resend_follows_cross_fractions(self, rng):
        attack = AttackConfig(
            basis_policy="always_x", p_cross_basis=(1.0, 0.0), eve_stations=self.station()
        )
        sample = PairSample(x_A=1.0, x_B=2.0, p_A=0.0, p_B=0.0)
        _, bob_click = intercept(sample, attack, rng)
        for _ in range(20):
            assert bob_click("p") is ClickOutcome.DETECTOR_1

    def test_wrong_basis_null_remainder(self, rng):
        attack = AttackConfig(
            basis_policy="always_x", p_cross_basis=(0.0, 0.0), eve_stations=self.station()
        )
        sample = PairSample(x_A=1.0, x_B=2.0, p_A=0.0, p_B=0.0)
        _, bob_click = intercept(sample, attack, rng)
        assert bob_click("p") is ClickOutcome.NULL

    def test_imperfect_same_basis_flips(self, rng):
        attack = AttackConfig(
            basis_policy="always_x", p_same_basis_correct=0.0, eve_stations=self.station()
        )
        sample = PairSample(x_A=1.0, x_B=1.0, p_A=0.0, p_B=0.0)
        _, bob_click = intercept(sample, attack, rng)
        assert bob_click("x") is ClickOutcome.DETECTOR_2

    def test_uniform_policy_mixes_bases(self, rng):
        attack = AttackConfig(basis_policy="uniform_random", eve_stations=self.station())
        bases = set()
        for _ in range(200):
            record, _ = intercept(
                PairSample(1.0, 1.5, 0.0, 0.0), attack, rng
            )
            bases.add(record.basis_E)
        assert bases == {"x", "p"}

    def test_requires_resolution_and_policy(self, rng):
        with pytest.raises(ValueError, match="resolved"):
            intercept(PairSample(0, 0, 0, 0), AttackConfig(), rng)
        with pytest.raises(ValueError, match="policy"):
            intercept(
                PairSample(0, 0, 0, 0),
                AttackConfig(basis_policy="none", eve_stations=self.station()),
                rng,
            )


def test_null_rate_matches_acceptance_mass(default_experiment, rng):
    """Her blocking probability equals one minus the slit acceptance mass."""
    source, _, bob = default_experiment
    n = 1_000_000
    _, x_B, _, p_B = sample_pairs(source, n, rng)
    for basis, latents in (("x", x_B), ("p", p_B)):
        attack = AttackConfig(basis_policy=f"always_{basis}", eve_stations=bob)
        scale = bob.alpha if basis == "x" else bob.momentum_scale
        coords = latents / scale + bob.origin
        lows = np.array([d.lo for d in bob.detectors(basis)])
        highs = np.array([d.hi for d in bob.detectors(basis)])
        attns = np.array([d.attenuation for d in bob.detectors(basis)])
        survive = rng.random(n)
        clicked = np.zeros(n, dtype=bool)
        for det in range(2):
            inside = (coords >= lows[det]) & (coords <= highs[det])
            clicked |= inside & (survive < attns[det])
        mass = acceptance_mass(source, bob, basis)
        sigma = math.sqrt(n * mass * (1 - mass))
        assert abs(clicked.sum() - n * mass) <= 3 * sigma, (
            f"{attack.basis_policy}: clicked {clicked.sum()} expected {n * mass:.0f}"
        )


def test_matching_basis_transparency(default_experiment):
    """All-basis-matched interception is statistically invisible (3 sigma).

    She always reads x with a copy of B's station and p_same = 1, so when B
    also measures x the relayed outcome IS her own click: the xx block of
    the attacked tally has the law of the plain one.
    """
    source, alice, bob = default_experiment
    n = 1_600_000
    attack = AttackConfig(basis_policy="always_x")
    plain = tally_coincidences(
        source, alice, bob, n, np.random.default_rng(101)
    ).block("x", "x")
    eve = tally_coincidences(
        source, alice, bob, n, np.random.default_rng(202), attack=attack
    ).block("x", "x")

    total_plain, total_eve = plain.sum(), eve.sum()
    for i in range(2):
        for j in range(2):
            p_hat = (plain[i, j] + eve[i, j]) / (total_plain + total_eve)
            sigma = math.sqrt(
                p_hat * (1 - p_hat) * (1 / total_plain + 1 / total_eve)
            )
            diff = plain[i, j] / total_plain - eve[i, j] / total_eve
            assert abs(diff) <= 3 * sigma + 1e-12, f"cell {i},{j} differs: {diff:.5f}"


def test_disturbance_raises_qber(default_experiment):
    source, alice, bob = default_experiment
    cfg = SessionConfig(n_coincidences=20_000, m_estimation=2000, rng_seed=31)
    plain = run_session(source, alice, bob, cfg)
    attacked = run_session(
        source, alice, bob, cfg, attack=AttackConfig(basis_policy="uniform_random")
    )
    q_p, q_a = plain.estimate.qber, attacked.estimate.qber
    sigma = math.sqrt(
        q_p * (1 - q_p) / cfg.m_estimation + q_a * (1 - q_a) / cfg.m_estimation
    )
    assert q_a - q_p > 3 * sigma


def test_blocking_costs_throughput_not_correctness(default_experiment, rng):
    source, alice, bob = default_experiment
    n = 150_000
    # A null remainder in the resend fractions thins the coincidence rate;
    # a full intercept with her station identical to B's does not, since her
    # slit losses simply replace his.
    plain = tally_coincidences(source, alice, bob, n, rng)
    lossy = tally_coincidences(
        source, alice, bob, n, rng,
        attack=AttackConfig(basis_policy="uniform_random", p_cross_basis=(0.3, 0.3)),
    )
    rate_plain = plain.total() / n
    rate_lossy = lossy.total() / n
    sigma = math.sqrt((rate_plain + rate_lossy) / n)
    assert rate_plain - rate_lossy > 3 * sigma

    # Blocked or thinned events are discarded, never mis-keyed: the session
    # still reaches its N clean coincidences and both keys stay aligned.
    cfg = SessionConfig(n_coincidences=8000, m_estimation=800, rng_seed=47)
    attacked = run_session(
        source, alice, bob, cfg,
        attack=AttackConfig(basis_policy="uniform_random", p_cross_basis=(0.3, 0.3)),
    )
    assert attacked.table.total() == cfg.n_coincidences
    assert len(attacked.sifted_bits_A) == len(attacked.sifted_bits_B)


def test_session_qber_under_attack_matches_oracle_mixture(default_experiment):
    """Closed-form mixture from the oracle vs the Monte Carlo estimate."""
    source, alice, bob = default_experiment
    cells = np.zeros((4, 4))
    bases = (("x", 1), ("x", 2), ("p", 1), ("p", 2))
    for i, (ba, da) in enumerate(bases):
        for j, (bb, db) in enumerate(bases):
            cells[i, j] = coincidence_probability(source, alice, bob, ba, bb, da, db)
    blocks = {
        (ja, je): cells[2 * (ja == "p"):2 * (ja == "p") + 2,
                        2 * (je == "p"):2 * (je == "p") + 2]
        for ja in "xp" for je in "xp"
    }
    e_x = (blocks[("x", "x")][0, 1] + blocks[("x", "x")][1, 0]) / blocks[("x", "x")].sum()
    e_p = (blocks[("p", "p")][0, 1] + blocks[("p", "p")][1, 0]) / blocks[("p", "p")].sum()
    num = (
        blocks[("x", "x")].sum() * e_x
        + blocks[("p", "p")].sum() * e_p
        + 0.5 * (blocks[("x", "p")].sum() + blocks[("p", "x")].sum())
    )
    den = sum(b.sum() for b in blocks.values())
    expected = num / den

    cfg = SessionConfig(n_coincidences=60_000, m_estimation=6000, rng_seed=53)
    attacked = run_session(
        source, alice, bob, cfg, attack=AttackConfig(basis_policy="uniform_random")
    )
    q = attacked.estimate.qber
    sigma = math.sqrt(expected * (1 - expected) / cfg.m_estimation)
    assert abs(q - expected) <= 3 * sigma, f"MC {q:.4f} vs mixture {expected:.4f}"


@pytest.fixture(scope="module")
def reference_table():
    from importlib import resources

    path = resources.files("eprqkd").joinpath("data", "table1.csv")
    return CoincidenceTable.load_csv(str(path))


class TestPredictedQber:

    def test_reference_prediction(self, reference_table):
        attack = AttackConfig(basis_policy="uniform_random")
        rep = predicted_qber(attack, reference_table)
        assert math.isclose(rep.qber, float(Fraction(2665, 8994)), rel_tol=1e-12)

    def test_detector_weighted_prediction(self, reference_table):
        attack = AttackConfig(basis_policy="uniform_random", p_cross_basis=(1.0, 0.0))
        rep = predicted_qber(attack, reference_table)
        assert rep.chi == 2309

    def test_none_policy_reduces_to_plain_qber(self, reference_table):
        attack = AttackConfig(basis_policy="none")
        rep = predicted_qber(attack, reference_table)
        assert rep == qber_from_counts(reference_table)

    def test_fixed_policy_has_no_closed_form(self, reference_table):
        with pytest.raises(ValueError, match="closed-form"):
            predicted_qber(AttackConfig(basis_policy="always_x"), reference_table)


def test_pair_substitution_is_a_source_swap(default_experiment):
    """Swapping in a less-correlated pair source stands in for an attack that
    replaces whole pairs; the weaker correlations show up as extra errors."""
    import dataclasses

    source, alice, bob = default_experiment
    weaker = dataclasses.replace(source, sigma_minus=3.0 * source.sigma_minus)
    cfg = SessionConfig(n_coincidences=20_000, m_estimation=2000, rng_seed=71)
    honest = run_session(source, alice, bob, cfg)
    swapped = run_session(weaker, alice, bob, cfg)
    assert swapped.estimate.qber_xx > honest.estimate.qber_xx
    assert swapped.estimate.qber > honest.estimate.qber


def test_tally_with_attack_blocks_reshape(default_experiment, rng):
    """Under interception the cross-basis blocks grow relative to no attack."""
    source, alice, bob = default_experiment
    n = 150_000
    plain = tally_coincidences(source, alice, bob, n, rng)
    attacked = tally_coincidences(
        source, alice, bob, n, rng, attack=AttackConfig(basis_policy="uniform_random")
    )

    def cross_fraction(table):
        cross = table.block("x", "p").sum() + table.block("p", "x").sum()
        return cross / table.total()

    assert cross_fraction(attacked) > cross_fraction(plain)
