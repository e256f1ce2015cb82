from dataclasses import replace

import numpy as np
import pytest

from eprqkd.defaults import default_setup
from eprqkd.detection import SlitDetector, StationConfig, _normal_mass, coincidence_probability
from eprqkd.source import channel_law
from eprqkd.tables import ALICE_LABELS, BOB_LABELS


def make_station(
    O=200.0, I=600.0, f=150.0, k=330.0, x_centers=(1.0, 2.0), p_centers=(1.0, 2.0),
    x_width=0.2, p_width=0.5, origin=0.0,
):
    return StationConfig(
        object_distance=O,
        image_distance=I,
        focal_length=f,
        wavenumber=k,
        x_detectors=(
            SlitDetector(x_centers[0], x_width, 0),
            SlitDetector(x_centers[1], x_width, 1),
        ),
        p_detectors=(
            SlitDetector(p_centers[0], p_width, 0),
            SlitDetector(p_centers[1], p_width, 1),
        ),
        origin=origin,
    )


# Slits covering most of each basis's mass, at unit scales (latent = plane
# mm): a session's 16 boxes total about 3, so the kernel draws every pair in full.
WIDE_STATION = make_station(
    O=200.0, I=100.0, f=150.0, k=150.0, x_centers=(-0.7, 0.7), p_centers=(-1.4, 1.4),
    x_width=1.2, p_width=2.4,
)
# Detector-1 slits that accept every photon in both bases, at attenuation 1:
# a party reading with it always clicks, so a tally shows the other side's
# clicks alone.
OPEN_STATION = make_station(x_centers=(0.0, 1e4), p_centers=(0.0, 1e4), x_width=1e3, p_width=1e3)


def oracle_table(source, alice, bob):
    """The 16 coincidence_probability cells: rows ALICE_LABELS, columns BOB_LABELS."""
    return np.array([
        [
            coincidence_probability(source, alice, bob, a[1], b[1], int(a[2]), int(b[2]))
            for b in BOB_LABELS
        ]
        for a in ALICE_LABELS
    ])


def window_mass(source, basis, lo, hi):
    """One party's latent mass in [lo, hi]: the standard normal's, each end over the basis's std."""
    std = channel_law(source)[0]["xp".index(basis)]
    return _normal_mass(lo / std, hi / std)


def _two_sample_chi2(pairs):
    """(statistic, dof): the sum of (a - b)^2 / (a + b) over the occupied cells of each table pair.

    Both tables of a pair come from the same number of emitted pairs, so
    under equal laws each cell difference a - b has variance a + b and the
    sum is chi-square with one degree of freedom per occupied cell.
    """
    stat, dof = 0.0, 0
    for a, b in pairs:
        occupied = (a + b) > 0
        stat += float(np.sum((a - b)[occupied] ** 2 / (a + b)[occupied]))
        dof += int(occupied.sum())
    return stat, dof


@pytest.fixture(scope="session")
def default_experiment():
    """Calibrated default source and equalized stations (alice, bob)."""
    return default_setup()


@pytest.fixture(scope="session")
def raw_experiment():
    """Same geometry without the level-equalizing filters: every attenuation 1.0."""
    source, alice, bob = default_setup()

    def unfiltered(station):
        return replace(
            station,
            x_detectors=tuple(replace(d, attenuation=1.0) for d in station.x_detectors),
            p_detectors=tuple(replace(d, attenuation=1.0) for d in station.p_detectors),
        )

    return source, unfiltered(alice), unfiltered(bob)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
