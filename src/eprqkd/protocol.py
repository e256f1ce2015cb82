"""QKD session state machine, sifting, and error-rate arithmetic.

A session accumulates N coincidences (both parties click on the same pair),
sifts the events where the basis choices matched, sacrifices m random sifted
pairs to estimate the error rate, and aborts when the estimate exceeds the
threshold.  Detector 1 carries logical 0 and detector 2 logical 1 in both
bases, so the surviving sifted outcomes are the raw key.

qber_from_counts and qber_with_eve_prediction work on a 4x4 coincidence
table (rows Ax1, Ax2, Ap1, Ap2; columns Bx1, Bx2, Bp1, Bp2):

    qber      = sum of same-basis cross cells / sum of same-basis blocks
    with eve  = (same-basis cross cells + chi) / all four blocks,
                chi weighting the different-basis blocks by the chance that
                the replacement photon lands in each of Bob's detectors.

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

import csv
import math
import numbers
from contextlib import closing
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .detection import StationConfig, basis_index
from .source import DRAW_SIZE, SourceModel, channel_law, ordered_streams, partner_latent

if TYPE_CHECKING:
    import numpy as np

ALICE_LABELS = ("Ax1", "Ax2", "Ap1", "Ap2")
BOB_LABELS = ("Bx1", "Bx2", "Bp1", "Bp2")
DEFAULT_QBER_THRESHOLD = 0.15
# A session gives up after this many emitted pairs per coincidence asked for.
EMITTED_PER_COINCIDENCE = 10_000


class ProtocolError(RuntimeError):
    """Session could not complete (e.g. coincidence rate pathologically low)."""


@dataclass(frozen=True)
class SessionConfig:
    """Run parameters: N coincidences, m estimation pairs, abort threshold."""

    n_coincidences: int
    m_estimation: int
    qber_threshold: float = DEFAULT_QBER_THRESHOLD
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
        if not 0.0 < self.qber_threshold < 1.0:
            raise ValueError("qber_threshold must lie strictly between 0 and 1")


class CoincidenceTable:
    """4x4 counts indexed (Ax1, Ax2, Ap1, Ap2) x (Bx1, Bx2, Bp1, Bp2).

    rows holds the counts as four tuples of four Python ints; any 4x4 nested
    sequence of non-negative integer-valued numbers, numpy arrays included,
    is accepted.
    """

    def __init__(self, counts):
        if hasattr(counts, "tolist"):
            counts = counts.tolist()
        try:
            rows = tuple(tuple(row) for row in counts)
        except TypeError:
            rows = ()
        if len(rows) != 4 or any(len(row) != 4 for row in rows):
            raise ValueError("expected a 4x4 count matrix")
        cells = [v for row in rows for v in row]
        if not all(isinstance(v, numbers.Real) for v in cells):
            raise ValueError("counts must be integers")
        if any(v < 0 for v in cells):
            raise ValueError("counts must be non-negative")
        if not all(math.isfinite(v) and v == int(v) for v in cells):
            raise ValueError("counts must be integers")
        self.rows = tuple(tuple(int(v) for v in row) for row in rows)

    @property
    def counts(self) -> np.ndarray:
        """The counts as a fresh int64 array."""
        import numpy as np

        return np.array(self.rows, dtype=np.int64)

    def __eq__(self, other) -> bool:
        return isinstance(other, CoincidenceTable) and self.rows == other.rows

    def total(self) -> int:
        return sum(map(sum, self.rows))

    def block(self, basis_A: str, basis_B: str) -> tuple[tuple[int, int], tuple[int, int]]:
        """2x2 sub-block for one basis pairing."""
        r, c = (2 * basis_index(basis) for basis in (basis_A, basis_B))
        return tuple(row[c:c + 2] for row in self.rows[r:r + 2])

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + list(BOB_LABELS))
            for label, row in zip(ALICE_LABELS, self.rows):
                writer.writerow([label, *row])

    @classmethod
    def load_csv(cls, path) -> "CoincidenceTable":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows = [r for r in rows if any(cell.strip() for cell in r)]
        if len(rows) != 5:
            raise ValueError(
                f"expected header plus 4 data rows, found {len(rows)} non-empty rows"
            )
        header = [cell.strip() for cell in rows[0][1:]]
        if header != list(BOB_LABELS):
            raise ValueError(f"header columns must be {BOB_LABELS}, got {header}")
        counts = []
        for i, row in enumerate(rows[1:]):
            if len(row) != 5:
                raise ValueError(f"data row {i + 1} has {len(row)} fields, expected 5")
            label = row[0].strip()
            if label != ALICE_LABELS[i]:
                raise ValueError(
                    f"row {i + 1} label must be {ALICE_LABELS[i]!r}, got {label!r}"
                )
            counts.append([])
            for j, cell in enumerate(row[1:]):
                try:
                    value = int(cell)
                except ValueError as exc:
                    raise ValueError(
                        f"row {i + 1} column {j + 1}: {cell!r} is not an integer"
                    ) from exc
                if value < 0:
                    raise ValueError(f"row {i + 1} column {j + 1}: negative count {value}")
                counts[i].append(value)
        return cls(counts)


@dataclass(frozen=True)
class QberReport:
    """Error-rate summary.  chi is present only for eavesdropper predictions."""

    p_wrong: float
    p_right: float
    qber: float
    qber_xx: float | None = None
    qber_pp: float | None = None
    chi: float | None = None
    uncertainty: float | None = None


@dataclass(frozen=True)
class SessionResult:
    sifted_bits_A: str
    sifted_bits_B: str
    estimate: QberReport
    aborted: bool
    table: CoincidenceTable
    emitted_pairs: int


def _binomial_uncertainty(q: float, total: float) -> float:
    return math.sqrt(max(q * (1.0 - q), 0.0) / total)


def qber_from_counts(table: CoincidenceTable) -> QberReport:
    """Error rate with no eavesdropper: same-basis cross cells over same-basis total.

    The per-basis rate of an empty same-basis block is None.
    """
    xx = table.block("x", "x")
    pp = table.block("p", "p")
    wrong_xx = float(xx[0][1] + xx[1][0])
    wrong_pp = float(pp[0][1] + pp[1][0])
    total_xx = float(sum(map(sum, xx)))
    total_pp = float(sum(map(sum, pp)))
    total = total_xx + total_pp
    if total == 0:
        raise ValueError("no same-basis coincidences; QBER undefined")
    wrong = wrong_xx + wrong_pp
    qber = wrong / total
    return QberReport(
        p_wrong=wrong,
        p_right=total - wrong,
        qber=qber,
        qber_xx=wrong_xx / total_xx if total_xx else None,
        qber_pp=wrong_pp / total_pp if total_pp else None,
        uncertainty=_binomial_uncertainty(qber, total),
    )


def qber_with_eve_prediction(
    table: CoincidenceTable, p_resend: tuple[float, float] = (0.5, 0.5)
) -> QberReport:
    """Predicted error rate if every photon on B's channel is intercepted.

    p_resend gives, for (detector 1, detector 2), the probability that the
    replacement photon fires that detector of Bob's when the interceptor
    measured in the other basis.  chi sums both different-basis blocks with
    those weights per column; the denominator is the grand total of all
    four blocks.
    """
    weights = (float(p_resend[0]), float(p_resend[1]))
    if not all(0.0 <= w <= 1.0 for w in weights):
        raise ValueError(f"resend probabilities must lie in [0, 1], got {weights}")

    grand = float(table.total())
    if grand == 0:
        raise ValueError("empty table; QBER undefined")

    xx = table.block("x", "x")
    pp = table.block("p", "p")
    wrong_same = float(xx[0][1] + xx[1][0] + pp[0][1] + pp[1][0])

    xp = table.block("x", "p")
    px = table.block("p", "x")
    # Column t of each cross block is Bob's detector t.
    chi = sum(
        weights[t] * float(sum(row[t] for row in xp) + sum(row[t] for row in px))
        for t in (0, 1)
    )

    qber = (wrong_same + chi) / grand
    return QberReport(
        p_wrong=wrong_same + chi,
        p_right=grand - wrong_same - chi,
        qber=qber,
        chi=chi,
        uncertainty=_binomial_uncertainty(qber, grand),
    )


# ---------------------------------------------------------------------------
# Session Monte Carlo
# ---------------------------------------------------------------------------


class _Readout:
    """One station's readout as arrays indexed by basis (0 = x, 1 = p) and detector."""

    def __init__(self, station: StationConfig):
        import numpy as np

        bases = ("x", "p")
        windows = [[station.latent_window(b, d) for d in station.detectors(b)] for b in bases]
        self.lo, self.hi = np.moveaxis(np.array(windows), -1, 0)
        self.survival = np.array([[d.attenuation for d in station.detectors(b)] for b in bases])

    def clicks(
        self, latent: np.ndarray, basis: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Detector index 0 / 1 for each latent coordinate, -1 for null.

        A slit accepts its closed latent window (StationConfig.latent_window).
        A uniform is drawn only for a coordinate inside a slit, applying that
        detector's attenuation as independent thinning.
        """
        import numpy as np

        det = np.full(latent.shape, -1, dtype=np.int8)
        in_p = basis == 1
        for b, chosen in ((0, ~in_p), (1, in_p)):
            for d in (0, 1):
                det[chosen & (latent >= self.lo[b, d]) & (latent <= self.hi[b, d])] = d
        inside = np.flatnonzero(det >= 0)
        dead = rng.random(inside.size) >= self.survival[basis[inside], det[inside]]
        det[inside[dead]] = -1
        return det


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

    Each pair draws A's basis coin and her latent coordinate in that basis.
    Only the pairs on which A clicks draw B's basis coin and the photon on
    B's channel (source.partner_latent), read by B's readout in B's basis
    or, under interception, in the interceptor's, whose clicks _resend
    relays.  B's coin is independent of everything else, so drawing it only
    where it is read leaves the law of sample_pairs followed by both
    readouts unchanged.  Batches run through
    source.ordered_streams.

    Yields (n, pos, bas_A, bas_B, det_A, det_B) per batch: the n pairs
    emitted, the in-batch positions of its coincidences in increasing order,
    and their basis choices (0 = x, 1 = p) and detector indices (0 / 1).
    """
    import numpy as np

    law = channel_law(source)
    std = np.array(law[0])
    readout_A, readout_B = _Readout(station_A), _Readout(station_B)

    def emit(n: int, stream: np.random.Generator):
        bas_A = stream.integers(0, 2, size=n, dtype=np.int8)
        lat_A = stream.standard_normal(n)
        lat_A *= std[bas_A]
        det_A = readout_A.clicks(lat_A, bas_A, stream)

        pos = np.flatnonzero(det_A >= 0)
        bas_A, lat_A, det_A = bas_A[pos], lat_A[pos], det_A[pos]
        bas_B = stream.integers(0, 2, size=pos.size, dtype=np.int8)
        bas_ch = bas_B if attack is None else _eve_bases(attack, pos.size, stream)
        lat_ch = partner_latent(law, lat_A, bas_A, bas_ch, stream.standard_normal(pos.size))
        det_B = readout_B.clicks(lat_ch, bas_ch, stream)
        if attack is not None:
            det_B = _resend(det_B, bas_ch, bas_B, stream)

        hit = det_B >= 0
        return n, pos[hit], bas_A[hit], bas_B[hit], det_A[hit], det_B[hit]

    sizes = (min(batch, n_pairs - start) for start in range(0, n_pairs, batch))
    return ordered_streams(emit, sizes, rng)


def _cell_counts(bas_A, bas_B, det_A, det_B) -> np.ndarray:
    """4x4 tally of coincidences by (Ax1, Ax2, Ap1, Ap2) x (Bx1, Bx2, Bp1, Bp2)."""
    import numpy as np

    idx_A = 2 * bas_A.astype(np.int64) + det_A
    idx_B = 2 * bas_B.astype(np.int64) + det_B
    return np.bincount(4 * idx_A + idx_B, minlength=16).reshape(4, 4)


def _bit_string(bits: np.ndarray) -> str:
    import numpy as np

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
    the session is aborted when the estimate strictly exceeds the threshold.

    Emission runs in fixed-size batches of source.DRAW_SIZE pairs (at most
    8 N, at least 4096) through _coincidences; batches are consumed in order
    up to the N-th coincidence and any batch run ahead past it is discarded,
    so emitted_pairs counts the pairs up to and including that coincidence.
    The result depends only on the seed, not on the number of threads.
    """
    import numpy as np

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
        aborted=estimate.qber > session.qber_threshold,
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
    import numpy as np

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
    import numpy as np

    if attack.basis_policy == "uniform_random":
        return rng.integers(0, 2, size=n, dtype=np.int8)
    return np.full(n, attack.basis_policy == "always_p", dtype=np.int8)


def _resend(
    det_E: np.ndarray, bas_E: np.ndarray, bas_B: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """B's detector index (-1 for null) after the interceptor relays her clicks.

    det_E holds her readout of each photon in her basis bas_E; a null
    blocks the photon.  On a click she resends: if B measures in her basis
    he fires her detector; in the conjugate basis either of his detectors
    fires with probability 1/2.  One uniform is drawn per relayed photon,
    same-basis ones included, and the conjugate-basis photons fire
    detector 2 iff it is >= 1/2.
    """
    import numpy as np

    det_B = np.full(det_E.shape, -1, dtype=np.int8)
    passed = np.flatnonzero(det_E >= 0)
    coin = rng.random(passed.size) >= 0.5
    det_B[passed] = np.where(bas_B[passed] == bas_E[passed], det_E[passed], coin)
    return det_B
