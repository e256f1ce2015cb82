import dataclasses
import math

import numpy as np
import pytest

from conftest import OPEN_STATION, make_station, oracle_table, window_mass

from eprqkd.protocol import (
    AttackConfig,
    SessionConfig,
    _resend,
    run_session,
    tally_coincidences,
)


class TestAttackConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="basis_policy"):
            AttackConfig(basis_policy="sometimes")


def labels(bas_E, det_E, bas_A=0, det_A=0):
    """Kernel labels 8 b_A + 4 d_A + 2 b_E + d_E for the interceptor's clicks."""
    return (8 * bas_A + 4 * det_A + 2 * np.asarray(bas_E) + np.asarray(det_E)).astype(np.int8)


class TestInterceptSingle:
    """protocol._resend on hand-built labels, and her nulls in a tally."""

    def test_same_basis_resend_copies_her_click(self, rng):
        # B's coin lands on her basis for about half the photons: those fire
        # her detector, and A's half of every label is kept.
        det_E = np.array([0, 1] * 500, dtype=np.int8)
        for bas_E in (0, 1):
            label = labels(bas_E, det_E, bas_A=1, det_A=1)
            out = _resend(label, rng)
            same = (out >> 1 & 1) == bas_E
            assert 0 < same.sum() < same.size
            assert (out[same] & 1).tolist() == det_E[same].tolist()
            assert np.all(out >> 2 == 3)

    def test_null_blocks_bob(self, default_experiment):
        # She reads x with slits no photon reaches, so nothing is relayed;
        # reading p half the time, she relays some.
        source, alice, _ = default_experiment
        far = make_station(x_centers=(1000.0, 1002.0))
        for policy in ("always_x", "uniform_random"):
            table = tally_coincidences(
                source, alice, far, 400_000, np.random.default_rng(3),
                attack=AttackConfig(basis_policy=policy),
            )
            assert (table.total() > 0) == (policy == "uniform_random")

    def test_wrong_basis_resend_follows_cross_fractions(self, rng):
        """In the conjugate basis each of B's detectors fires with probability 1/2."""
        n = 200_000
        out = _resend(labels(0, np.zeros(n, dtype=np.int8)), rng)
        assert np.all((out >= 0) & (out < 4))
        det = out[out >> 1 & 1 == 1] & 1
        assert abs(det.size - n / 2) <= 3 * math.sqrt(n / 4)
        assert abs(np.count_nonzero(det == 1) - det.size / 2) <= 3 * math.sqrt(det.size / 4)

    def test_one_uniform_per_relayed_photon(self):
        """B's int8 coin for every photon, then one uniform each, same-basis ones too."""
        bas_E = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        det_E = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        label = labels(bas_E, det_E, bas_A=bas_E, det_A=1 - det_E)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        out = _resend(label, rng)
        bas_B = twin.integers(0, 2, size=8, dtype=np.int8)
        coin = twin.random(8) >= 0.5
        assert 0 < np.count_nonzero(bas_B == bas_E) < 8
        det_B = np.where(bas_B == bas_E, det_E, coin)
        assert out.tolist() == (label & 12 | 2 * bas_B + det_B).tolist()
        assert out.dtype == np.int8
        assert rng.random() == twin.random()


@pytest.mark.parametrize("policy, basis", [("always_x", "x"), ("always_p", "p")])
def test_null_rate_matches_acceptance_mass(default_experiment, policy, basis):
    """Her blocking probability equals one minus the slit acceptance mass.

    A reads with OPEN_STATION and always clicks, and B clicks on every
    photon she relays, so a pair is a coincidence exactly when she clicks
    with B's station in her one basis.
    """
    source, _, bob = default_experiment
    n = 1_000_000
    table = tally_coincidences(
        source, OPEN_STATION, bob, n, np.random.default_rng(5),
        attack=AttackConfig(basis_policy=policy),
    )
    mass = sum(
        window_mass(source, basis, *bob.latent_window(basis, d)) * d.attenuation
        for d in bob.detectors(basis)
    )
    blocked = n - table.total()
    sigma = math.sqrt(n * mass * (1 - mass))
    assert abs(blocked - n * (1 - mass)) <= 3 * sigma, (
        f"{basis}: blocked {blocked} expected {n * (1 - mass):.0f}"
    )


def test_matching_basis_transparency(default_experiment):
    """All-basis-matched interception is statistically invisible (3 sigma).

    She always reads x with a copy of B's station, so when B also measures
    x the relayed outcome IS her own click: the xx block of
    the attacked tally has the law of the plain one.
    """
    source, alice, bob = default_experiment
    n = 1_600_000
    attack = AttackConfig(basis_policy="always_x")
    plain = tally_coincidences(
        source, alice, bob, n, np.random.default_rng(101)
    ).counts[:2, :2]
    eve = tally_coincidences(
        source, alice, bob, n, np.random.default_rng(202), attack=attack
    ).counts[:2, :2]

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


def test_blocking_costs_throughput_not_correctness(default_experiment):
    source, alice, bob = default_experiment
    # Blocked events are discarded, never mis-keyed: the session still
    # reaches its N clean coincidences and both keys stay aligned.
    cfg = SessionConfig(n_coincidences=8000, m_estimation=800, rng_seed=47)
    attacked = run_session(source, alice, bob, cfg, attack=AttackConfig())
    assert attacked.table.total() == cfg.n_coincidences
    assert len(attacked.sifted_bits_A) == len(attacked.sifted_bits_B)


def test_session_qber_under_attack_matches_oracle_mixture(default_experiment):
    """Closed-form mixture from the oracle vs the Monte Carlo estimate."""
    source, alice, bob = default_experiment
    cells = oracle_table(source, alice, bob)
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


def test_pair_substitution_is_a_source_swap(default_experiment):
    """Swapping in a less-correlated pair source stands in for an attack that
    replaces whole pairs; the weaker correlations show up as extra errors."""
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
        cross = sum(map(sum, table.block("x", "p") + table.block("p", "x")))
        return cross / table.total()

    assert cross_fraction(attacked) > cross_fraction(plain)
