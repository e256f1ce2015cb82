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
basis's std: every click is a cell of source.PairKernel, built by
detection.slit_cell (_cells), the cell the oracle integrates.  A coincidence
is one int8 label, its cell index 8 b_A + 4 d_A + 2 b_B + d_B (bases 0 = x,
1 = p; detectors 0 / 1), from the kernel to the table, the sift and the keys.

The intercept-resend attack (AttackConfig) acts on B's channel inside the
session: the interceptor reads each photon in her basis with B's own
station, a null blocks it (the pair is later discarded as a
non-coincidence), and a click triggers a replacement photon under one fixed
rule: B in her basis fires her detector, B in the conjugate basis fires
either detector with probability 1/2 (_resend, on labels).  Substituting a
whole fresh pair is a source swap, not a channel transform: run a session
with a different SourceModel.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .defaults import RunError
from .detection import StationConfig, slit_cell
from .source import PairKernel, SourceModel, channel_law
from .tables import CoincidenceTable, QberReport, qber_from_counts

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


def _cells(source: SourceModel, station_A: StationConfig, station_B: StationConfig, attack):
    """The 16 source.PairKernel cells of a session, cell 8 b_A + 4 d_A + 2 b_ch + d_ch.

    b_A / d_A are A's basis and detector index and b_ch / d_ch the channel's:
    B's, or under interception the interceptor's, who reads with B's
    station.  The weight is 1/2 for A's coin, the channel basis's
    probability (B's fair coin or the interceptor's policy) and both slits'
    attenuations.
    """
    law = channel_law(source)
    policy = "uniform_random" if attack is None else attack.basis_policy
    p_ch = {"always_x": (1.0, 0.0), "always_p": (0.0, 1.0)}.get(policy, (0.5, 0.5))
    return [
        slit_cell(law, station_A, station_B, basis_A, basis_ch, slit_A, slit_ch,
                  0.5 * p_ch[b_ch] * slit_A.attenuation * slit_ch.attenuation)
        for basis_A in "xp" for slit_A in station_A.detectors(basis_A)
        for b_ch, basis_ch in enumerate("xp") for slit_ch in station_B.detectors(basis_ch)
    ]


def _position(n: int, k: int, j: int, stream: np.random.Generator) -> int:
    """The j-th smallest (from 0) of a uniform k-subset of range(n), the subset never drawn.

    Bisection: the first half of the span holds hypergeometric(k, n - k,
    half) of the k, and the j-th lies in the half that holds it; once every
    place of the span is taken it is the span's start plus j.  About log2 n
    scalar draws and no array.
    """
    start = 0
    while k < n:
        half = n // 2
        left = int(stream.hypergeometric(k, n - k, half))
        if j < left:
            n, k = half, left
        else:
            start, n, k, j = start + half, n - half, k - left, j - left
    return start + j


def _coincidences(
    source: SourceModel,
    station_A: StationConfig,
    station_B: StationConfig,
    attack: AttackConfig | None,
    rng: np.random.Generator,
    n_pairs: int,
):
    """PairKernel.emit over the session's cells (_cells), block by block.

    Yields (n, k, stream, index, label) per block of n pairs: its k
    proposals, their kept ones' indices and labels (each its cell's int8
    label), in emission order.  Clean, the channel's cell is B's; under
    interception _resend relays the interceptor's click on the kept labels,
    drawing from the block's stream.  The pairs that miss a slit cost
    nothing.
    """
    groups = [(k >> 3, k >> 1 & 1) for k in range(16)]  # (b_A, b_ch): disjoint slits
    kernel = PairKernel(_cells(source, station_A, station_B, attack), groups)
    for n, k, stream, index, label in kernel.emit(rng, n_pairs):
        yield n, k, stream, index, label if attack is None else _resend(label, stream)


def _cell_counts(label: np.ndarray) -> np.ndarray:
    """4x4 tally of coincidence labels by (Ax1, Ax2, Ap1, Ap2) x (Bx1, Bx2, Bp1, Bp2)."""
    return np.bincount(label, minlength=16).reshape(4, 4)


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

    The blocks of _coincidences are read in order up to the N-th
    coincidence.  A block's k proposals sit at a uniform k-subset of its n
    places, in order, so only that coincidence's place is drawn
    (_position), from its block's stream: emitted_pairs counts the pairs up
    to and including it.  The result depends only on the seed.
    """
    rng = np.random.default_rng(session.rng_seed)
    n_target = session.n_coincidences
    chunks = []
    collected = 0
    emitted = 0
    blocks = _coincidences(source, station_A, station_B, attack, rng, EMITTED_PER_COINCIDENCE * n_target)
    for n, k, stream, index, label in blocks:
        need = n_target - collected
        if label.size >= need:
            # Count emissions up to and including the N-th coincidence only.
            emitted += _position(n, k, int(index[need - 1]), stream) + 1
            chunks.append(label[:need])
            break
        emitted += n
        collected += label.size
        chunks.append(label)
    else:
        raise ProtocolError(
            f"emitted {emitted} pairs but collected only {collected} of "
            f"{n_target} coincidences; coincidence rate is pathologically low"
        )
    label = np.concatenate(chunks)
    table = CoincidenceTable(_cell_counts(label).tolist())

    sifted = label[(label >> 3) == (label >> 1 & 1)]  # b_A == b_B
    n_sifted = sifted.size
    if n_sifted <= session.m_estimation:
        raise ProtocolError(
            f"only {n_sifted} sifted pairs; cannot sacrifice {session.m_estimation}"
        )

    est_idx = rng.choice(n_sifted, size=session.m_estimation, replace=False)
    est_mask = np.zeros(n_sifted, dtype=bool)
    est_mask[est_idx] = True
    estimate = qber_from_counts(CoincidenceTable(_cell_counts(sifted[est_mask]).tolist()))

    key = sifted[~est_mask]
    return SessionResult(
        sifted_bits_A=_bit_string(key >> 2 & 1),
        sifted_bits_B=_bit_string(key & 1),
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
    (i, j) accumulates with probability P(cell) / 4.  The labels of every
    block of _coincidences are summed, so the table depends only on rng's
    seed and how many children it has spawned.
    """
    if isinstance(n_pairs, bool) or not isinstance(n_pairs, numbers.Integral) or n_pairs < 0:
        raise ValueError(f"n_pairs must be a non-negative integer, got {n_pairs!r}")
    counts = np.zeros((4, 4), dtype=np.int64)
    for *_, label in _coincidences(source, station_A, station_B, attack, rng, n_pairs):
        counts += _cell_counts(label)
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


def _resend(label: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The labels B reads for the photons the interceptor clicked on and relays.

    Each label's channel cell (2 b_E + d_E) is her click; the photons she
    did not click on are blocked before this.  B's fair int8 basis coin is
    drawn for every relayed photon, then one uniform per relayed photon, in
    order, same-basis ones included.  If B measures in her basis he fires
    her detector; in the conjugate basis detector 2 fires iff the uniform is
    >= 1/2.  A's half of the label is kept.
    """
    bas_B = rng.integers(0, 2, size=label.size, dtype=np.int8)
    det_B = np.where(bas_B == label >> 1 & 1, label & 1, rng.random(label.size) >= 0.5)
    return label & 12 | bas_B << 1 | det_B
