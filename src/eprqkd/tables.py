"""The 4x4 coincidence table and its error-rate arithmetic.

A table counts coincidences by A's detector (rows Ax1, Ax2, Ap1, Ap2) and
B's (columns Bx1, Bx2, Bp1, Bp2):

    qber      = sum of same-basis cross cells / sum of same-basis blocks
    with eve  = (same-basis cross cells + chi) / all four blocks,
                chi weighting the different-basis blocks by the chance that
                the replacement photon lands in each of Bob's detectors.

This is all that the qber and eve-predict commands run.  Its one package
import is source.basis_index, so reading a table loads neither the optics
nor the session Monte Carlo, and no numpy.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .source import basis_index

if TYPE_CHECKING:
    import numpy as np

ALICE_LABELS = ("Ax1", "Ax2", "Ap1", "Ap2")
BOB_LABELS = ("Bx1", "Bx2", "Bp1", "Bp2")


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
