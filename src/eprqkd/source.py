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
Sessions, tallies and scans draw in standard units, latent over std,
through one kernel, PairKernel, and its one emission loop, PairKernel.emit,
over cells that detection.slit_cell builds; every layer reads basis_index.
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


DRAW_SIZE = 1 << 18  # pairs in one block of PairKernel.emit


def _box(cell) -> tuple:
    """(area, height, q): the cell's box window_A x window_ch in (z, y) and its density bound.

    y = rho z + s w is the channel's coordinate, so every proposal in the box
    is in both windows.  The density of (z, y) is phi(z) phi(r) / s with
    r = (y - rho z) / s; height is its value where q = z^2 + r^2 is least on
    the box: 0 if the box holds 0, else the least of the four edge minima
    (z at an end: y = rho z; y at an end: z = rho y / (rho^2 + s^2); each
    clipped to the edge).  An s = 0 cell (y = rho z) has a box in z alone,
    as tall as phi at its point nearest 0.  area is weight x size x height.
    """
    (a0, a1), (c0, c1), rho, s, weight = cell
    if not s:
        near = min(max(0.0, a0), a1)
        height = math.exp(-0.5 * near * near) / math.sqrt(2.0 * math.pi)
        return weight * (a1 - a0) * height, height, near * near

    def at(z, y):
        r = (y - rho * z) / s
        return z * z + r * r

    q = 0.0 if a0 <= 0.0 <= a1 and c0 <= 0.0 <= c1 else min(
        *(at(z, min(max(rho * z, c0), c1)) for z in (a0, a1)),
        *(at(min(max(rho * y / (rho * rho + s * s), a0), a1), y) for y in (c0, c1)),
    )
    e = math.exp(-0.5 * q)
    return weight * (a1 - a0) * (c1 - c0) * e / (2.0 * math.pi * s), e / (2.0 * math.pi * s), q


class PairKernel:
    """Which pairs click in a table of cells, by rejection under boxes (Devroye 1986, II.3).

    A cell (window_A, window_ch, rho, s, weight) takes a pair of standard
    normals with z in A's closed window and y = rho z + s w in the
    channel's, with probability weight.  Its box (_box) is the two windows
    in (z, y), as tall as the density's largest value there.  A pair has
    one proposal with probability total, in a box chosen by area through a
    guide table (Chen & Asau 1974), kept if a uniform is at most the
    density ratio and both window tests pass; no mass is read.  Boxes that
    total 1 or more give way to the density: each pair draws its normals
    in full, in a group of disjoint cells (groups[k], one group by default)
    drawn with its largest weight, and is kept in its cell there with
    probability weight over that.  Sessions, tallies and scans all draw
    their pairs through emit.
    """

    def __init__(self, cells, groups=None):
        import numpy as np

        boxes = [_box(cell) for cell in cells]
        self.total, self._full = math.fsum(box[0] for box in boxes), None
        if self.total < 1.0:
            on = [k for k, box in enumerate(boxes) if box[0] > 0.0]
            areas = [boxes[k][0] for k in on]

            def columns(k):  # a proposal's y is y0 + dy v + m z: in the channel window, or rho z
                (a0, a1), (c0, c1), rho, s, _ = cells[k]
                y = (c0, c1 - c0, 0.0, 1.0 / s) if s else (0.0, 0.0, rho, 0.0)
                return (a0, a1 - a0, a1, *y, c0, c1, rho, boxes[k][2], k)

            self._cols = np.array([columns(k) for k in on]).reshape(-1, 12).T
            self._tied = not all(cells[k][3] for k in on)
        else:  # slits holding most pairs
            keys = groups or [0] * len(cells)
            share = {g: max(cell[4] for cell, key in zip(cells, keys) if key == g) for g in keys}
            areas, self.total = list(share.values()), math.fsum(share.values())
            if self.total > 1.0:
                raise ValueError(f"the groups' largest weights total {self.total} > 1")
            self._full = [(list(share).index(g), share[g], *cell) for g, cell in zip(keys, cells)]
        cum = np.cumsum(areas)
        self._cdf = cum / cum[-1] if areas else cum
        if self._cdf.size > 1:
            # Guide table: a uniform u starts at the first box whose cdf
            # passes floor(u G) / G and steps up while cdf <= u.  G, a power
            # of 2 of at least 4 entries per box, makes u G exact; _steps is
            # the most steps any entry needs.
            size = 1 << (4 * self._cdf.size).bit_length()
            guide = np.minimum(
                np.searchsorted(self._cdf, np.arange(size + 1) / size, side="right"), self._cdf.size - 1
            )
            self._guide, self._steps = guide[:-1], int(np.diff(guide).max())

    def emit(self, rng: np.random.Generator, n: int):
        """n pairs in blocks of at most DRAW_SIZE: (pairs, k, stream, index, cell) per block.

        Each block draws from the next spawned child of rng, stream: k =
        binomial(pairs, total) proposals, then kept(stream, k).  This is the
        package's only emission loop; a caller may go on drawing from stream.
        """
        for start in range(0, n, DRAW_SIZE):
            pairs = min(DRAW_SIZE, n - start)
            stream = rng.spawn(1)[0]
            k = int(stream.binomial(pairs, self.total))
            yield (pairs, k, stream, *self.kept(stream, k))

    def _choose(self, u):
        """The box of each uniform u, of two or more: the first whose cdf exceeds it."""
        index = self._guide[(u * self._guide.size).astype(int)]
        for _ in range(self._steps):
            index += self._cdf[index] <= u
        return index

    def kept(self, stream: np.random.Generator, k: int):
        """(index, int8 cell) of the kept ones of k proposals, each reading 4 draws, in order."""
        import numpy as np

        if self._full is not None:
            pick, test = stream.random((2, k))
            z, w = stream.standard_normal((2, k))
            group = self._choose(pick) if self._cdf.size > 1 else 0
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
            cols = cols.take(self._choose(box), axis=1)
        lo, da, hi, y0, dy, m, t, c0, c1, rho, q, cell = cols
        z = lo + da * u
        y = y0 + dy * v
        if self._tied:
            y += m * z
        r = (y - rho * z) * t
        keep = test <= np.exp(0.5 * (q - z * z - r * r))
        keep &= (z >= lo) & (z <= hi) & (y >= c0) & (y <= c1)
        index = np.flatnonzero(keep)
        return index, np.broadcast_to(cell, keep.shape)[index].astype(np.int8)
