"""Gaussian model of the transverse two-photon state from down-conversion.

The pair state is a zero-mean 4D Gaussian over (x_A, x_B, p_A, p_B), held in
crystal-plane coordinates with hbar = 1 (positions in mm, transverse momenta
in 1/mm).  It is parameterized by the standard deviations of the four
collective coordinates:

    sigma_minus = std(x_A - x_B)     sigma_plus = std(x_A + x_B)
    kappa_minus = std(p_A + p_B)     kappa_plus = std(p_A - p_B)

The strongly correlated combinations (x_A - x_B, p_A + p_B) are the narrow
ones for a down-conversion source; their conjugate partners must satisfy the
uncertainty products

    sigma_minus^2 * kappa_plus^2 >= 1
    sigma_plus^2  * kappa_minus^2 >= 1

or the Gaussian does not describe a physical state.  Transposing B's
momentum swaps kappa_minus and kappa_plus in these products; the state is
entangled exactly when the transposed one is unphysical (the Peres-Horodecki
test, exact for this family: Simon, PRL 84, 2726 (2000)), that is when

    sigma_minus * kappa_minus < 1   or   sigma_plus * kappa_plus < 1.

Position and momentum blocks are uncorrelated, so a single latent sample per
pair reproduces the detection statistics of all four basis pairings at once.
Sessions and scans draw in standard units, latent over std, through one
kernel, PairKernel, run by ordered_streams; every layer reads basis_index.
This module imports nothing from the package: the widths a run uses come
from a run file or from detection.calibrate_source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class UnphysicalSourceError(ValueError):
    """Raised when the requested widths violate an uncertainty product."""


@dataclass(frozen=True)
class PumpProfile:
    """Gaussian pump beam at the crystal face.

    waist_w is the spot size in mm; the angular spectrum is its Fourier
    conjugate and needs no separate parameter.
    """

    waist_w: float

    def __post_init__(self):
        if self.waist_w <= 0:
            raise ValueError(f"pump waist must be positive, got {self.waist_w}")


@dataclass(frozen=True)
class SourceModel:
    """Widths of the four collective coordinates plus the pump they came from.

    Instances are plain value objects; physicality is enforced by
    build_source, so tests may construct degenerate models directly.
    """

    sigma_minus: float
    sigma_plus: float
    kappa_minus: float
    kappa_plus: float
    pump: PumpProfile


def build_source(
    sigma_minus: float,
    sigma_plus: float,
    kappa_minus: float,
    kappa_plus: float,
    pump: PumpProfile,
) -> SourceModel:
    """Validate widths and return the source model.

    Rejects non-positive widths and any set violating the uncertainty
    products sigma_minus*kappa_plus >= 1 or sigma_plus*kappa_minus >= 1.
    """
    widths = {
        "sigma_minus": sigma_minus,
        "sigma_plus": sigma_plus,
        "kappa_minus": kappa_minus,
        "kappa_plus": kappa_plus,
    }
    for name, value in widths.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")

    mp = sigma_minus**2 * kappa_plus**2
    pm = sigma_plus**2 * kappa_minus**2
    if mp < 1.0:
        raise UnphysicalSourceError(
            f"sigma_minus^2 * kappa_plus^2 = {mp:.6g} < 1 violates the "
            "uncertainty product for the (x_A - x_B, p_A - p_B) pair"
        )
    if pm < 1.0:
        raise UnphysicalSourceError(
            f"sigma_plus^2 * kappa_minus^2 = {pm:.6g} < 1 violates the "
            "uncertainty product for the (x_A + x_B, p_A + p_B) pair"
        )
    return SourceModel(sigma_minus, sigma_plus, kappa_minus, kappa_plus, pump)


def sample_pairs(
    source: SourceModel, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw n pairs; returns (x_A, x_B, p_A, p_B) arrays.

    The four collective coordinates are sampled independently and rotated
    back, which guarantees the exact (sum, difference) variances and zero
    position-momentum cross covariance.
    """
    u = rng.standard_normal(n) * source.sigma_minus   # x_A - x_B
    v = rng.standard_normal(n) * source.sigma_plus    # x_A + x_B
    w = rng.standard_normal(n) * source.kappa_minus   # p_A + p_B
    z = rng.standard_normal(n) * source.kappa_plus    # p_A - p_B
    x_A = (v + u) / 2.0
    x_B = (v - u) / 2.0
    p_A = (w + z) / 2.0
    p_B = (w - z) / 2.0
    return x_A, x_B, p_A, p_B


def basis_index(basis: str) -> int:
    """0 for the position basis x, 1 for the momentum basis p."""
    if basis not in ("x", "p"):
        raise ValueError(f"basis must be 'x' or 'p', got {basis!r}")
    return "xp".index(basis)


def channel_law(source: SourceModel):
    """Per basis (x, p): (std, rho, s), each a pair of floats.

    std is either party's latent std (the state is symmetric), so a latent
    u is the standard normal u / std.  Given A's standard normal z_A in the
    same basis, B's is Gaussian with mean rho * z_A and std s.  With a and d
    the widths of the sum and difference coordinates, var = (a^2 + d^2) / 4,
    rho = cov / var with cov = (a^2 - d^2) / 4, and s is the conditional
    latent std a d / sqrt(a^2 + d^2) over std.  Position and momentum are
    independent, so in the other basis B's standard normal is independent
    of whatever A read.
    """
    laws = []
    for a, d in ((source.sigma_plus, source.sigma_minus), (source.kappa_minus, source.kappa_plus)):
        var, cov = (a**2 + d**2) / 4.0, (a**2 - d**2) / 4.0
        std = math.sqrt(var)
        laws.append((std, cov / var, a * d / math.sqrt(a**2 + d**2) / std))
    return tuple(zip(*laws))


DRAW_SIZE = 1 << 18  # pairs an emission loop draws at once


def _box(cell) -> tuple:
    """(area, a0, a1 - a0, w0, w1 - w0, near^2): the cell's box, w narrowed to the channel window."""
    (a0, a1), (c0, c1), rho, s, weight = cell
    if s:
        w0 = (c0 - max(rho * a0, rho * a1)) / s
        w1 = (c1 - min(rho * a0, rho * a1)) / s
    else:  # w is not read
        w0 = w1 = 0.0
    near_a, near_w = min(max(0.0, a0), a1), min(max(0.0, w0), w1)
    near2 = near_a * near_a + near_w * near_w
    side_w = w1 - w0 if s else math.sqrt(2.0 * math.pi)
    area = weight * (a1 - a0) * side_w * math.exp(-0.5 * near2) / (2.0 * math.pi)
    return area, a0, a1 - a0, w0, w1 - w0, near2


class PairKernel:
    """Which pairs click in a table of cells, by rejection under boxes (Devroye 1986, II.3).

    A cell (window_A, window_ch, rho, s, weight) takes a pair of standard
    normals with z in A's closed window and rho z + s w in the channel's,
    with probability weight.  Its box in (z, w), as tall as the density at
    its point nearest 0, bounds that.  A pair has one proposal with
    probability total, kept if a uniform is at most the density ratio and
    it is in its cell; no mass is read.  Boxes that total 1 or more give
    way to the density: each pair draws its normals in full, in a group of
    disjoint cells (groups[k], one group by default) drawn with its largest
    weight, and is kept in its cell there with probability weight over that.
    """

    def __init__(self, cells, groups=None):
        import numpy as np

        boxes = [_box(cell) for cell in cells]
        self.total, self._full = math.fsum(box[0] for box in boxes), None
        if self.total < 1.0:
            on = [k for k, box in enumerate(boxes) if box[0] > 0.0]
            areas = [boxes[k][0] for k in on]
            self._cols = np.array([
                (*boxes[k][1:], *cells[k][0], *cells[k][1], *cells[k][2:4], k) for k in on
            ]).reshape(-1, 12).T
        else:  # slits holding most pairs
            keys = groups or [0] * len(cells)
            share = {g: max(cell[4] for cell, key in zip(cells, keys) if key == g) for g in keys}
            areas, self.total = list(share.values()), math.fsum(share.values())
            if self.total > 1.0:
                raise ValueError(f"the groups' largest weights total {self.total} > 1")
            self._full = [(list(share).index(g), share[g], *cell) for g, cell in zip(keys, cells)]
        cum = np.cumsum(areas)
        self._cdf = cum / cum[-1] if areas else cum

    def kept(self, stream: np.random.Generator, k: int):
        """(index, int8 cell) of the kept ones of k proposals, each reading 4 draws, in order."""
        import numpy as np

        if self._full is not None:
            pick, test = stream.random((2, k))
            z, w = stream.standard_normal((2, k))
            group = np.searchsorted(self._cdf, pick, side="right")
            cell = np.full(k, -1, dtype=np.int8)
            for j, (g, share, (lo, hi), (c0, c1), rho, s, weight) in enumerate(self._full):
                y = rho * z + s * w
                inside = (z >= lo) & (z <= hi) & (y >= c0) & (y <= c1)
                cell[inside & (group == g) & (test * share <= weight)] = j
            index = np.flatnonzero(cell >= 0)
            return index, cell[index]
        box, u, v, test = stream.random((4, k))
        cols = self._cols  # one box: its columns broadcast
        if self._cdf.size > 1:
            cols = cols.take(np.searchsorted(self._cdf, box, side="right"), axis=1)
        a0, da, w0, dw, near2, lo, hi, c0, c1, rho, s, cell = cols
        z, w = a0 + da * u, w0 + dw * v
        y = rho * z + s * w
        keep = test <= np.exp(0.5 * (near2 - z * z - w * w))
        keep &= (z >= lo) & (z <= hi) & (y >= c0) & (y <= c1)
        index = np.flatnonzero(keep)
        return index, np.broadcast_to(cell, keep.shape)[index].astype(np.int8)


def ordered_streams(work, jobs, rng: np.random.Generator):
    """Yield work(job, stream) per job in order, stream a child of rng spawned in job order."""
    for job in jobs:
        yield work(job, rng.spawn(1)[0])
