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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adversary import AttackConfig, resolve_attack
from .detection import ClickOutcome, StationConfig
from .source import SourceModel

ALICE_LABELS = ("Ax1", "Ax2", "Ap1", "Ap2")
BOB_LABELS = ("Bx1", "Bx2", "Bp1", "Bp2")
DEFAULT_QBER_THRESHOLD = 0.15
_BASIS_OF_INDEX = ("x", "x", "p", "p")


class ProtocolError(RuntimeError):
    """Session could not complete (e.g. coincidence rate pathologically low)."""


@dataclass(frozen=True)
class SessionConfig:
    """Run parameters: N coincidences, m estimation pairs, abort threshold."""

    n_coincidences: int
    m_estimation: int
    qber_threshold: float = DEFAULT_QBER_THRESHOLD
    rng_seed: int = 0
    max_emitted: int | None = None  # default guard: 10^4 * N emitted pairs

    def __post_init__(self):
        if self.n_coincidences <= 0:
            raise ValueError("n_coincidences must be positive")
        if not 0 < self.m_estimation < self.n_coincidences / 2:
            raise ValueError(
                f"m_estimation must satisfy 0 < m < N/2, got m={self.m_estimation} "
                f"N={self.n_coincidences}"
            )
        if not 0.0 < self.qber_threshold < 1.0:
            raise ValueError("qber_threshold must lie strictly between 0 and 1")
        if self.max_emitted is not None and self.max_emitted <= 0:
            raise ValueError(f"max_emitted must be positive, got {self.max_emitted}")

    @property
    def emitted_guard(self) -> int:
        return self.max_emitted if self.max_emitted is not None else 10_000 * self.n_coincidences


@dataclass(frozen=True)
class PairEvent:
    """One stored coincidence: basis choices and click outcomes of both sides."""

    basis_A: str
    basis_B: str
    outcome_A: ClickOutcome
    outcome_B: ClickOutcome

    def __post_init__(self):
        if ClickOutcome.NULL in (self.outcome_A, self.outcome_B):
            raise ValueError("coincidence events require both outcomes non-null")


class CoincidenceTable:
    """4x4 counts indexed (Ax1, Ax2, Ap1, Ap2) x (Bx1, Bx2, Bp1, Bp2)."""

    def __init__(self, counts):
        arr = np.asarray(counts)
        if arr.shape != (4, 4):
            raise ValueError(f"expected a 4x4 count matrix, got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("counts must be non-negative")
        if not np.all(arr == np.floor(arr)):
            raise ValueError("counts must be integers")
        self.counts = arr.astype(np.int64)

    def __getitem__(self, key: tuple[str, str]) -> int:
        row, col = key
        return int(self.counts[ALICE_LABELS.index(row), BOB_LABELS.index(col)])

    def __eq__(self, other) -> bool:
        return isinstance(other, CoincidenceTable) and np.array_equal(self.counts, other.counts)

    def total(self) -> int:
        return int(self.counts.sum())

    def block(self, basis_A: str, basis_B: str) -> np.ndarray:
        """2x2 sub-block for one basis pairing."""
        r = slice(0, 2) if basis_A == "x" else slice(2, 4)
        c = slice(0, 2) if basis_B == "x" else slice(2, 4)
        return self.counts[r, c]

    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def column_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def scaled(self, factor: int) -> "CoincidenceTable":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return CoincidenceTable(self.counts * factor)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + list(BOB_LABELS))
            for label, row in zip(ALICE_LABELS, self.counts):
                writer.writerow([label] + [int(v) for v in row])

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
        counts = np.zeros((4, 4), dtype=np.int64)
        for i, row in enumerate(rows[1:]):
            if len(row) != 5:
                raise ValueError(f"data row {i + 1} has {len(row)} fields, expected 5")
            label = row[0].strip()
            if label != ALICE_LABELS[i]:
                raise ValueError(
                    f"row {i + 1} label must be {ALICE_LABELS[i]!r}, got {label!r}"
                )
            for j, cell in enumerate(row[1:]):
                try:
                    value = int(cell)
                except ValueError as exc:
                    raise ValueError(
                        f"row {i + 1} column {j + 1}: {cell!r} is not an integer"
                    ) from exc
                if value < 0:
                    raise ValueError(f"row {i + 1} column {j + 1}: negative count {value}")
                counts[i, j] = value
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
    events: tuple[PairEvent, ...] | None = field(default=None, repr=False)


def sift(events: Sequence[PairEvent]) -> list[PairEvent]:
    """Keep the events where both parties measured in the same basis."""
    return [e for e in events if e.basis_A == e.basis_B]


def _binomial_uncertainty(q: float, total: float) -> float:
    if total <= 0:
        return float("nan")
    return math.sqrt(max(q * (1.0 - q), 0.0) / total)


def qber_from_counts(table: CoincidenceTable) -> QberReport:
    """Error rate with no eavesdropper: same-basis cross cells over same-basis total."""
    xx = table.block("x", "x")
    pp = table.block("p", "p")
    wrong_xx = float(xx[0, 1] + xx[1, 0])
    wrong_pp = float(pp[0, 1] + pp[1, 0])
    total_xx = float(xx.sum())
    total_pp = float(pp.sum())
    total = total_xx + total_pp
    if total == 0:
        raise ValueError("no same-basis coincidences; QBER undefined")
    if total_xx == 0 or total_pp == 0:
        raise ValueError("a same-basis block is empty; per-basis QBER undefined")
    wrong = wrong_xx + wrong_pp
    qber = wrong / total
    return QberReport(
        p_wrong=wrong,
        p_right=total - wrong,
        qber=qber,
        qber_xx=wrong_xx / total_xx,
        qber_pp=wrong_pp / total_pp,
        uncertainty=_binomial_uncertainty(qber, total),
    )


def qber_with_eve_prediction(
    table: CoincidenceTable, p_resend: float | tuple[float, float] = 0.5
) -> QberReport:
    """Predicted error rate if every photon on B's channel is intercepted.

    p_resend gives the probability that the replacement photon fires Bob's
    detector t when the interceptor measured in the other basis: a scalar
    applies to both detectors, a pair weights (detector 1, detector 2)
    columns separately.  chi sums both different-basis blocks with those
    weights; the denominator is the grand total of all four blocks.
    """
    if isinstance(p_resend, (int, float)):
        weights = (float(p_resend), float(p_resend))
    else:
        weights = (float(p_resend[0]), float(p_resend[1]))
    if not all(0.0 <= w <= 1.0 for w in weights):
        raise ValueError(f"resend probabilities must lie in [0, 1], got {weights}")

    grand = float(table.total())
    if grand == 0:
        raise ValueError("empty table; QBER undefined")

    xx = table.block("x", "x")
    pp = table.block("p", "p")
    wrong_same = float(xx[0, 1] + xx[1, 0] + pp[0, 1] + pp[1, 0])

    xp = table.block("x", "p")
    px = table.block("p", "x")
    # Column t of each cross block is Bob's detector t.
    chi = sum(weights[t] * float(xp[:, t].sum() + px[:, t].sum()) for t in (0, 1))

    qber = (wrong_same + chi) / grand
    return QberReport(
        p_wrong=wrong_same + chi,
        p_right=grand - wrong_same - chi,
        qber=qber,
        chi=chi,
        uncertainty=_binomial_uncertainty(qber, grand),
    )


def three_party_probability(
    table: CoincidenceTable,
    i: str,
    j: str,
    k: str,
    p_resend_matrix,
) -> float:
    """Joint detection probability for sender basis i, receiver j, interceptor k.

    The interceptor stands in for the receiver, so the sender-interceptor
    probability is read from the normalized (i, k) block of the table; it is
    multiplied by the probability p_resend_matrix[(j, k)] that the receiver
    detects the replacement photon in basis j given preparation basis k.
    """
    for name, basis in (("i", i), ("j", j), ("k", k)):
        if basis not in ("x", "p"):
            raise ValueError(f"{name} must be 'x' or 'p', got {basis!r}")
    grand = float(table.total())
    if grand == 0:
        raise ValueError("empty table cannot be normalized")
    r_ik = float(table.block(i, k).sum()) / grand
    return r_ik * float(p_resend_matrix[(j, k)])


def abort_decision(report: QberReport, threshold: float = DEFAULT_QBER_THRESHOLD) -> bool:
    """Abort iff the estimate strictly exceeds the threshold."""
    return report.qber > threshold


# ---------------------------------------------------------------------------
# Session Monte Carlo
# ---------------------------------------------------------------------------


class _Readout:
    """One station's readout as arrays indexed by basis (0 = x, 1 = p) and detector."""

    def __init__(self, station: StationConfig):
        pairs = [station.detectors(basis) for basis in ("x", "p")]
        self.lo = np.array([[d.lo for d in pair] for pair in pairs])
        self.hi = np.array([[d.hi for d in pair] for pair in pairs])
        self.survival = np.array([[d.attenuation for d in pair] for pair in pairs])
        # Latent coordinate -> detection-plane mm, per basis.
        self.gain = np.array([1.0 / station.alpha, station.focal_length / station.wavenumber])
        self.origin = station.origin

    def clicks(
        self, latent: np.ndarray, basis: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Detector index 0 / 1 for each latent coordinate, -1 for null.

        Slit acceptance is the closed interval in the detection plane.  A
        uniform is drawn only for a coordinate inside a slit, applying that
        detector's attenuation as independent thinning.
        """
        coords = latent * self.gain[basis] + self.origin
        det = np.full(latent.shape, -1, dtype=np.int8)
        in_p = basis == 1
        for b, chosen in ((0, ~in_p), (1, in_p)):
            for d in (0, 1):
                det[chosen & (coords >= self.lo[b, d]) & (coords <= self.hi[b, d])] = d
        inside = np.flatnonzero(det >= 0)
        dead = rng.random(inside.size) >= self.survival[basis[inside], det[inside]]
        det[inside[dead]] = -1
        return det


def _channel_law(source: SourceModel):
    """Per basis (x, p): std of A's latent, std of B's, and B's Gaussian law
    given A's latent in the same basis (mean slope * u_A, std cond_std)."""
    covs = (source.position_covariance(), source.momentum_covariance())
    var_A = np.array([c[0, 0] for c in covs])
    var_B = np.array([c[1, 1] for c in covs])
    cov = np.array([c[0, 1] for c in covs])
    slope = cov / var_A
    cond_std = np.sqrt(np.maximum(var_B - cov**2 / var_A, 0.0))
    return np.sqrt(var_A), np.sqrt(var_B), slope, cond_std


def _coincidences(
    source: SourceModel,
    station_A: StationConfig,
    station_B: StationConfig,
    attack: AttackConfig | None,
    rng: np.random.Generator,
    n_pairs: int,
    batch: int,
):
    """Emit n_pairs pairs in batches of at most `batch`, A's photon first.

    Each pair draws both basis coins and A's latent coordinate in her basis.
    Only the pairs on which A clicks draw the photon on B's channel, read in
    B's basis or, under interception, in the interceptor's: from its
    Gaussian law given A's latent when that basis is A's, from its marginal
    otherwise (position and momentum are independent).  This is the law of
    sample_pairs followed by both readouts, at one normal per emitted pair.

    Yields (n, pos, bas_A, bas_B, det_A, det_B) per batch: the n pairs
    emitted, the in-batch positions of its coincidences in increasing order,
    and their basis choices (0 = x, 1 = p) and detector indices (0 / 1).
    """
    if attack is not None:
        attack = resolve_attack(attack, station_B)
        if attack.basis_policy == "none":
            attack = None
    std_A, std_B, slope, cond_std = _channel_law(source)
    readout_A, readout_B = _Readout(station_A), _Readout(station_B)
    remaining = n_pairs
    while remaining > 0:
        n = int(min(batch, remaining))
        remaining -= n
        bas_A = rng.integers(0, 2, size=n, dtype=np.int8)
        bas_B = rng.integers(0, 2, size=n, dtype=np.int8)
        lat_A = rng.standard_normal(n) * std_A[bas_A]
        det_A = readout_A.clicks(lat_A, bas_A, rng)

        pos = np.flatnonzero(det_A >= 0)
        bas_A, bas_B, lat_A, det_A = bas_A[pos], bas_B[pos], lat_A[pos], det_A[pos]
        bas_ch = bas_B if attack is None else _eve_bases(attack, pos.size, rng)
        same = bas_ch == bas_A
        lat_ch = np.where(same, slope[bas_A] * lat_A, 0.0) + np.where(
            same, cond_std[bas_A], std_B[bas_ch]
        ) * rng.standard_normal(pos.size)
        if attack is None:
            det_B = readout_B.clicks(lat_ch, bas_B, rng)
        else:
            det_B = _intercepted_bob_clicks(lat_ch, bas_ch, bas_B, attack, rng)

        hit = det_B >= 0
        yield n, pos[hit], bas_A[hit], bas_B[hit], det_A[hit], det_B[hit]


def _cell_counts(bas_A, bas_B, det_A, det_B) -> np.ndarray:
    """4x4 tally of coincidences by (Ax1, Ax2, Ap1, Ap2) x (Bx1, Bx2, Bp1, Bp2)."""
    idx_A = 2 * bas_A.astype(np.int64) + det_A
    idx_B = 2 * bas_B.astype(np.int64) + det_B
    return np.bincount(4 * idx_A + idx_B, minlength=16).reshape(4, 4)


def _bit_string(bits: np.ndarray) -> str:
    return (bits + 48).astype(np.uint8).tobytes().decode("ascii")


def run_session(
    source: SourceModel,
    station_A: StationConfig,
    station_B: StationConfig,
    session: SessionConfig,
    attack: AttackConfig | None = None,
    keep_events: bool = False,
) -> SessionResult:
    """Run one key-distribution session.

    Pairs are emitted until N coincidences accumulate (or the emitted-pair
    guard trips).  Each side selects its basis with a fair coin; an optional
    intercept-resend attack transforms B's photon before detection.  The
    same-basis events are sifted, m of them are sampled without replacement
    for error estimation and removed from the key, and the abort flag is set
    when the estimate exceeds the threshold.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(session.rng_seed)
    n_target = session.n_coincidences
    batch = max(4096, min(1_000_000, n_target * 8))
    chunks = []
    collected = 0
    emitted = 0
    for n, pos, *cells in _coincidences(
        source, station_A, station_B, attack, rng, session.emitted_guard, batch
    ):
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
    table = CoincidenceTable(_cell_counts(bas_A, bas_B, det_A, det_B))

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

    est_A, est_B, est_bas = sift_A[est_mask], sift_B[est_mask], sift_bas[est_mask]
    wrong = est_A != est_B
    m = float(session.m_estimation)
    qber = float(wrong.sum()) / m
    per_basis = {}
    for b_idx, name in ((0, "xx"), (1, "pp")):
        sel = est_bas == b_idx
        per_basis[name] = (
            float(wrong[sel].sum()) / float(sel.sum()) if sel.any() else None
        )
    estimate = QberReport(
        p_wrong=float(wrong.sum()),
        p_right=m - float(wrong.sum()),
        qber=qber,
        qber_xx=per_basis["xx"],
        qber_pp=per_basis["pp"],
        uncertainty=_binomial_uncertainty(qber, m),
    )

    events = None
    if keep_events:
        outcome = (ClickOutcome.DETECTOR_1, ClickOutcome.DETECTOR_2)
        names = ("x", "p")
        events = tuple(
            PairEvent(names[a], names[b], outcome[da], outcome[db])
            for a, b, da, db in zip(bas_A, bas_B, det_A, det_B)
        )

    return SessionResult(
        sifted_bits_A=_bit_string(sift_A[~est_mask]),
        sifted_bits_B=_bit_string(sift_B[~est_mask]),
        estimate=estimate,
        aborted=abort_decision(estimate, session.qber_threshold),
        table=table,
        emitted_pairs=emitted,
        events=events,
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
    (i, j) accumulates with probability P(cell) / 4.
    """
    counts = np.zeros((4, 4), dtype=np.int64)
    for _, _, *cells in _coincidences(
        source, station_A, station_B, attack, rng, n_pairs, 1_000_000
    ):
        counts += _cell_counts(*cells)
    return CoincidenceTable(counts)


def _eve_bases(attack: AttackConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """The interceptor's basis choice (0 = x, 1 = p) for n photons."""
    if attack.basis_policy == "uniform_random":
        return rng.integers(0, 2, size=n, dtype=np.int8)
    if attack.basis_policy in ("always_x", "always_p"):
        return np.full(n, attack.basis_policy == "always_p", dtype=np.int8)
    raise ValueError(f"unsupported basis policy {attack.basis_policy!r}")


def _intercepted_bob_clicks(
    lat_E: np.ndarray,
    bas_E: np.ndarray,
    bas_B: np.ndarray,
    attack: AttackConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized intercept-resend transform of B's channel.

    The interceptor reads the photon's latent coordinate in her basis with
    her own station; a null blocks the photon.  On a click she resends: if B
    measures in her basis he fires her detector with probability p_same (the
    other one otherwise); in the conjugate basis his detector follows the
    p_cross fractions, any remainder going to null.
    """
    det_E = _Readout(attack.eve_stations).clicks(lat_E, bas_E, rng)
    det_B = np.full(det_E.shape, -1, dtype=np.int8)
    passed = np.flatnonzero(det_E >= 0)
    relayed = det_E[passed]
    draw = rng.random(passed.size)
    p1, p2 = attack.p_cross_basis
    det_B[passed] = np.where(
        bas_B[passed] == bas_E[passed],
        np.where(draw < attack.p_same_basis_correct, relayed, 1 - relayed),
        np.where(draw < p1, 0, np.where(draw < p1 + p2, 1, -1)),
    )
    return det_B
