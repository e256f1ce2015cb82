from dataclasses import replace

import numpy as np
import pytest

from eprqkd.defaults import default_setup
from eprqkd.detection import SlitDetector, StationConfig, coincidence_probability
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


def oracle_table(source, alice, bob):
    """The 16 coincidence_probability cells: rows ALICE_LABELS, columns BOB_LABELS."""
    return np.array([
        [
            coincidence_probability(source, alice, bob, a[1], b[1], int(a[2]), int(b[2]))
            for b in BOB_LABELS
        ]
        for a in ALICE_LABELS
    ])


def readout_clicks(readout, z, basis, rng):
    """Detector index 0 / 1 per coordinate, -1 for null: readout.slits, then survivors."""
    inside, bas, det = readout.slits(np.asarray(z, dtype=float), basis)
    alive = readout.survivors(bas, det, rng)
    out = np.full(len(basis), -1, dtype=np.int8)
    out[inside.take(alive)] = det.take(alive)
    return out


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
