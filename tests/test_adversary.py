import dataclasses
import math

import numpy as np
import pytest

from conftest import make_station, oracle_table, readout_clicks

from eprqkd import protocol
from eprqkd.detection import _window_mass
from eprqkd.protocol import (
    AttackConfig,
    SessionConfig,
    _Readout,
    _eve_bases,
    _resend,
    run_session,
    tally_coincidences,
)
from eprqkd.source import sample_pairs


class TestAttackConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="basis_policy"):
            AttackConfig(basis_policy="sometimes")


# The station she reads with in the hand-built cases.  alpha = 1 and k/f = 2
# with the origin at 0: its x slits take latents in [0.9, 1.1] and
# [1.9, 2.1], its p slits [1.5, 2.5] and [3.5, 4.5].
EVE_STATION = make_station(O=200.0, I=100.0, k=300.0)


def bases(label, n):
    return np.full(n, "xp".index(label), dtype=np.int8)


def bob_clicks(latents, basis_E, basis_B, rng, station=EVE_STATION):
    """B's detector per photon after she reads it with station and relays her clicks, -1 for null.

    The latents are read as they are: her readout's std is 1 in both bases.
    """
    n = len(latents)
    det_E = readout_clicks(_Readout(station, (1.0, 1.0)), latents, bases(basis_E, n), rng)
    relayed = np.flatnonzero(det_E >= 0)
    det_B = np.full(n, -1, dtype=np.int8)
    det_B[relayed] = _resend(
        det_E[relayed], bases(basis_E, relayed.size), bases(basis_B, relayed.size), rng
    )
    return det_B


class TestInterceptSingle:
    """protocol._resend on readouts of hand-built arrays."""

    def test_click_inside_slit_resends_same_basis(self, rng):
        assert np.all(bob_clicks([1.05] * 20, "x", "x", rng) == 0)
        assert np.all(bob_clicks([2.05] * 20, "x", "x", rng) == 1)
        assert np.all(bob_clicks([4.0] * 20, "p", "p", rng) == 1)

    def test_null_blocks_bob(self, rng):
        for basis_B in ("x", "p"):
            assert np.all(bob_clicks([5.0, 0.0, 1.5], "x", basis_B, rng) == -1)

    def test_wrong_basis_resend_follows_cross_fractions(self, rng):
        """In the conjugate basis each of B's detectors fires with probability 1/2."""
        n = 100_000
        det = bob_clicks([1.0] * n, "x", "p", rng)
        assert np.all(det >= 0)
        assert abs(np.count_nonzero(det == 1) - n / 2) <= 3 * math.sqrt(n / 4)

    def test_one_uniform_per_relayed_photon(self):
        """Same-basis photons draw too, so B's basis never shifts the stream."""
        det_E = np.array([0, 1, 1, 0], dtype=np.int8)
        bas_E = np.array([0, 1, 0, 1], dtype=np.int8)
        bas_B = np.array([0, 1, 1, 0], dtype=np.int8)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        det_B = _resend(det_E, bas_E, bas_B, rng)
        coin = twin.random(4) >= 0.5
        assert det_B.tolist() == [0, 1, int(coin[2]), int(coin[3])]
        assert rng.random() == twin.random()

    def test_uniform_policy_mixes_bases(self, rng):
        n = 100_000
        mixed = _eve_bases(AttackConfig(basis_policy="uniform_random"), n, rng)
        assert abs(np.count_nonzero(mixed) - n / 2) <= 3 * math.sqrt(n / 4)
        assert np.all(_eve_bases(AttackConfig(basis_policy="always_x"), 10, rng) == 0)
        assert np.all(_eve_bases(AttackConfig(basis_policy="always_p"), 10, rng) == 1)

    def test_requires_resolution_and_policy(self):
        with pytest.raises(ValueError, match="policy"):
            _eve_bases(AttackConfig(basis_policy="none"), 10, np.random.default_rng(0))


def test_null_rate_matches_acceptance_mass(default_experiment, rng):
    """Her blocking probability equals one minus the slit acceptance mass.

    With B in her basis, B's result is null exactly when she blocks, so her
    readout with B's station is what is measured here.
    """
    source, _, bob = default_experiment
    n = 1_000_000
    _, x_B, _, p_B = sample_pairs(source, n, rng)
    for basis, latents in (("x", x_B), ("p", p_B)):
        det = bob_clicks(latents, basis, basis, rng, station=bob)
        mass = sum(
            _window_mass(source, basis, *bob.latent_window(basis, d)) * d.attenuation
            for d in bob.detectors(basis)
        )
        blocked = np.count_nonzero(det == -1)
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
