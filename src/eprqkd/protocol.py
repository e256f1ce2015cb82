"""QKD session state machine, sifting, and the intercept-resend attack.

A session accumulates N coincidences (both parties click on the same pair),
sifts the events where the basis choices matched, sacrifices m random sifted
pairs to estimate the error rate, and aborts when the estimate exceeds the
fixed threshold DEFAULT_QBER_THRESHOLD.  Detector 1 carries logical 0 and
detector 2 logical 1 in both bases, so the surviving sifted outcomes are the
raw key.

The coincidence table and its error-rate arithmetic live in tables, which
the table commands load without this module.  This module imports numpy on
load; only simulate loads it.

The Monte Carlo runs in standard units, each latent coordinate over its
basis's std, and every click comes out of one slit readout, _Readout, which
compares them with each slit's latent window over that std: the same floats
the oracle integrates.

The intercept-resend attack (AttackConfig) acts on B's channel inside the
session: the interceptor reads each photon in her basis with B's own
readout, a null blocks it (the pair is later discarded as a
non-coincidence), and a click triggers a replacement photon under one fixed
rule: B in her basis fires her detector, B in the conjugate basis fires
either detector with probability 1/2 (_resend).  Substituting a whole fresh
pair is a source swap, not a channel transform: run a session with a
different SourceModel.
"""

from __future__ import annotations

import numbers
from contextlib import closing
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .defaults import RunError
from .source import DRAW_SIZE, SourceModel, channel_law, ordered_streams, partner_normal
from .tables import CoincidenceTable, QberReport, qber_from_counts

if TYPE_CHECKING:
    from .detection import StationConfig

DEFAULT_QBER_THRESHOLD = 0.15
# A session gives up after this many emitted pairs per coincidence asked for.
EMITTED_PER_COINCIDENCE = 10_000


class ProtocolError(RunError):
    """Session could not complete (e.g. coincidence rate pathologically low)."""


@dataclass(frozen=True)
class SessionConfig:
    """Run parameters: N coincidences, m estimation pairs and the seed."""

    n_coincidences: int
    m_estimation: int
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_coincidences", "m_estimation", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.n_coincidences <= 0:
            raise ValueError("n_coincidences must be positive")
        if not 0 < self.m_estimation < self.n_coincidences / 2:
            raise ValueError(
                f"m_estimation must satisfy 0 < m < N/2, got m={self.m_estimation} "
                f"N={self.n_coincidences}"
            )


@dataclass(frozen=True)
class SessionResult:
    sifted_bits_A: str
    sifted_bits_B: str
    estimate: QberReport
    aborted: bool
    table: CoincidenceTable
    emitted_pairs: int


# ---------------------------------------------------------------------------
# Session Monte Carlo
# ---------------------------------------------------------------------------


class _Readout:
    """One station's slit readout of standard normals z, whose latent coordinate is z * std[basis].

    A slit accepts its closed latent window (StationConfig.latent_window);
    windows holds, per basis (0 = x, 1 = p) and detector, that window over
    the basis's std, the bounds the oracle integrates.  slits and then
    survivors decide, draw and thin; between the two the caller may drop z.
    """

    def __init__(self, station: StationConfig, std):
        self.windows = [
            [tuple(v / s for v in station.latent_window(b, d)) for d in station.detectors(b)]
            for b, s in zip("xp", std)
        ]
        self.survival = np.array([d.attenuation for b in "xp" for d in station.detectors(b)])

    def slits(self, z: np.ndarray, basis: np.ndarray):
        """(inside, basis[inside], det): the z inside a slit of their basis, in index order.

        det is that slit's detector index (0 / 1); nothing is drawn.
        """
        # Masks are written in place and freed before the index array is
        # built, so a batch holds z and at most five n-byte masks at once.
        hit, det_2 = np.zeros(z.shape, dtype=bool), np.zeros(z.shape, dtype=bool)
        chosen, slit, edge = (np.empty(z.shape, dtype=bool) for _ in range(3))
        for b, windows in enumerate(self.windows):
            np.equal(basis, b, out=chosen)
            for found, (t, u) in zip((hit, det_2), windows):
                np.greater_equal(z, t, out=slit)
                slit &= np.less_equal(z, u, out=edge)
                slit &= chosen
                found |= slit
        del chosen, slit, edge
        hit |= det_2
        inside = np.flatnonzero(hit)
        return inside, basis.take(inside), det_2.take(inside).astype(np.int8)

    def survivors(self, bas: np.ndarray, det: np.ndarray, rng: np.random.Generator):
        """Indices into bas and det of the in-slit photons that survive their detector's attenuation.

        One uniform is drawn per photon, in order.
        """
        return np.flatnonzero(rng.random(bas.size) < self.survival.take(2 * bas + det))


def _coincidences(
    source: SourceModel,
    station_A: StationConfig,
    station_B: StationConfig,
    attack: AttackConfig | None,
    rng: np.random.Generator,
    n_pairs: int,
    batch: int,
):
    """Emit n_pairs pairs in batches of `batch` (the last one shorter), A's photon first.

    Every coordinate is drawn in standard units, latent over std, and both
    stations' _Readout compare it with their windows over std
    (channel_law(source)[0]).  Each pair draws A's basis coin and a standard
    normal; A's readout decides which land in a slit and draws the thinning
    uniforms for those in index order.  The batch-sized arrays are dropped
    before B's draws.  Only the pairs on which A clicks draw B's basis coin
    and the photon on B's channel (source.partner_normal), which B's
    _Readout reads in B's basis or, under interception, in the
    interceptor's, whose clicks _resend relays.  B's coin is independent of
    everything else, so drawing it only where it is read leaves the law of
    sample_pairs followed by both readouts unchanged.  Batches run through
    source.ordered_streams.

    Yields (n, pos, bas_A, bas_B, det_A, det_B) per batch: the n pairs
    emitted, the in-batch positions of its coincidences in increasing order,
    and their basis choices (0 = x, 1 = p) and detector indices (0 / 1).
    """
    law = channel_law(source)
    readout_A, readout_B = _Readout(station_A, law[0]), _Readout(station_B, law[0])

    def emit(n: int, stream: np.random.Generator):
        bas_A = stream.integers(0, 2, size=n, dtype=np.int8)
        z = stream.standard_normal(n)
        inside, bas_A, det_A = readout_A.slits(z, bas_A)
        z_A = z.take(inside)
        del z
        alive = readout_A.survivors(bas_A, det_A, stream)
        pos, bas_A, z_A, det_A = (a.take(alive) for a in (inside, bas_A, z_A, det_A))

        bas_B = stream.integers(0, 2, size=pos.size, dtype=np.int8)
        bas_ch = bas_B if attack is None else _eve_bases(attack, pos.size, stream)
        z_ch = partner_normal(law, z_A, bas_A, bas_ch, stream.standard_normal(pos.size))
        inside, bas_ch, det_B = readout_B.slits(z_ch, bas_ch)
        alive = readout_B.survivors(bas_ch, det_B, stream)
        hit, det_B = inside.take(alive), det_B.take(alive)
        if attack is not None:
            det_B = _resend(det_B, bas_ch.take(alive), bas_B.take(hit), stream)
        return (n, *(a.take(hit) for a in (pos, bas_A, bas_B, det_A)), det_B)

    sizes = (min(batch, n_pairs - start) for start in range(0, n_pairs, batch))
    return ordered_streams(emit, sizes, rng)


def _cell_counts(bas_A, bas_B, det_A, det_B) -> np.ndarray:
    """4x4 tally of coincidences by (Ax1, Ax2, Ap1, Ap2) x (Bx1, Bx2, Bp1, Bp2).

    The cell index (0-15) is formed in the inputs' int8, without wide
    temporaries.
    """
    cell = 8 * bas_A + 4 * det_A + 2 * bas_B + det_B
    return np.bincount(cell, minlength=16).reshape(4, 4)


def _bit_string(bits: np.ndarray) -> str:
    return (bits + 48).astype(np.uint8).tobytes().decode("ascii")


def run_session(
    source: SourceModel,
    station_A: StationConfig,
    station_B: StationConfig,
    session: SessionConfig,
    attack: AttackConfig | None = None,
) -> SessionResult:
    """Run one key-distribution session.

    Pairs are emitted until N coincidences accumulate; after
    EMITTED_PER_COINCIDENCE * N emitted pairs (10^4 N) without them the
    session raises ProtocolError.  Each side selects its basis with a fair
    coin; an optional intercept-resend attack transforms B's photon before
    detection.  The same-basis events are sifted, m of them are sampled
    without replacement for error estimation and removed from the key, and
    the session is aborted when the estimate strictly exceeds
    DEFAULT_QBER_THRESHOLD.

    Emission runs in fixed-size batches of source.DRAW_SIZE pairs (at most
    8 N, at least 4096) through _coincidences; batches are consumed in order
    up to the N-th coincidence and any batch run ahead past it is discarded,
    so emitted_pairs counts the pairs up to and including that coincidence.
    The result depends only on the seed, not on the number of threads.
    """
    rng = np.random.default_rng(session.rng_seed)
    n_target = session.n_coincidences
    batch = max(4096, min(DRAW_SIZE, n_target * 8))
    chunks = []
    collected = 0
    emitted = 0
    with closing(_coincidences(
        source, station_A, station_B, attack, rng, EMITTED_PER_COINCIDENCE * n_target, batch
    )) as batches:
        for n, pos, *cells in batches:
            need = n_target - collected
            if pos.size >= need:
                # Count emissions up to and including the N-th coincidence only.
                emitted += int(pos[need - 1]) + 1
                chunks.append([c[:need] for c in cells])
                break
            emitted += n
            collected += pos.size
            chunks.append(cells)
        else:
            raise ProtocolError(
                f"emitted {emitted} pairs but collected only {collected} of "
                f"{n_target} coincidences; coincidence rate is pathologically low"
            )
    bas_A, bas_B, det_A, det_B = (np.concatenate(c) for c in zip(*chunks))
    table = CoincidenceTable(_cell_counts(bas_A, bas_B, det_A, det_B).tolist())

    same = bas_A == bas_B
    sift_bas = bas_A[same]
    sift_A = det_A[same]
    sift_B = det_B[same]
    n_sifted = int(same.sum())
    if n_sifted <= session.m_estimation:
        raise ProtocolError(
            f"only {n_sifted} sifted pairs; cannot sacrifice {session.m_estimation}"
        )

    est_idx = rng.choice(n_sifted, size=session.m_estimation, replace=False)
    est_mask = np.zeros(n_sifted, dtype=bool)
    est_mask[est_idx] = True

    est_bas = sift_bas[est_mask]
    est_table = _cell_counts(est_bas, est_bas, sift_A[est_mask], sift_B[est_mask])
    estimate = qber_from_counts(CoincidenceTable(est_table.tolist()))

    return SessionResult(
        sifted_bits_A=_bit_string(sift_A[~est_mask]),
        sifted_bits_B=_bit_string(sift_B[~est_mask]),
        estimate=estimate,
        aborted=estimate.qber > DEFAULT_QBER_THRESHOLD,
        table=table,
        emitted_pairs=emitted,
    )


def tally_coincidences(
    source: SourceModel,
    station_A: StationConfig,
    station_B: StationConfig,
    n_pairs: int,
    rng: np.random.Generator,
    attack: AttackConfig | None = None,
) -> CoincidenceTable:
    """Detector-pair coincidence counts over a fixed number of emitted pairs.

    Both sides choose bases with fair coins; non-coincidences are dropped.
    This is the Monte Carlo side of the oracle-equivalence check: cell
    (i, j) accumulates with probability P(cell) / 4.  Batches of
    source.DRAW_SIZE pairs run through _coincidences, so the table depends
    only on rng's seed and how many children it has spawned.
    """
    if isinstance(n_pairs, bool) or not isinstance(n_pairs, numbers.Integral) or n_pairs < 0:
        raise ValueError(f"n_pairs must be a non-negative integer, got {n_pairs!r}")
    counts = np.zeros((4, 4), dtype=np.int64)
    with closing(_coincidences(
        source, station_A, station_B, attack, rng, n_pairs, DRAW_SIZE
    )) as batches:
        for _, _, *cells in batches:
            counts += _cell_counts(*cells)
    return CoincidenceTable(counts)


# ---------------------------------------------------------------------------
# Intercept-resend attack on B's channel
# ---------------------------------------------------------------------------

BASIS_POLICIES = ("always_x", "always_p", "uniform_random")


@dataclass(frozen=True)
class AttackConfig:
    """The interceptor's basis policy; no attack is attack=None."""

    basis_policy: str = "uniform_random"

    def __post_init__(self):
        if self.basis_policy not in BASIS_POLICIES:
            raise ValueError(
                f"basis_policy must be one of {BASIS_POLICIES}, got {self.basis_policy!r}"
            )


def _eve_bases(attack: AttackConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """The interceptor's basis choice (0 = x, 1 = p) for n photons."""
    if attack.basis_policy == "uniform_random":
        return rng.integers(0, 2, size=n, dtype=np.int8)
    return np.full(n, attack.basis_policy == "always_p", dtype=np.int8)


def _resend(
    det_E: np.ndarray, bas_E: np.ndarray, bas_B: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """B's detector index for each photon the interceptor clicked on and relays.

    det_E and bas_E are her clicks and bases, bas_B is B's basis for the
    same photons; the photons she did not click on are blocked before this.
    If B measures in her basis he fires her detector; in the conjugate basis
    either of his detectors fires with probability 1/2.  One uniform is
    drawn per relayed photon, in order, same-basis ones included, and the
    conjugate-basis photons fire detector 2 iff it is >= 1/2.
    """
    return np.where(bas_B == bas_E, det_E, rng.random(det_E.size) >= 0.5)
