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
Sessions and scans draw in standard units, latent over std: they share
partner_normal and ordered_streams, scans draw A's in-slit photons with
window_normals, and every layer reads basis_index.
This module imports nothing from the package: the widths a run uses come
from a run file or from detection.calibrate_source.
"""

from __future__ import annotations

import math
import os
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


def partner_normal(law, z_A, bas_A, bas_ch, noise: np.ndarray) -> np.ndarray:
    """B's standard normal from noise: rho * z_A + s * noise where bas_ch is A's basis, else noise.

    law is channel_law(source); bases (0 = x, 1 = p) are arrays or scalars.
    """
    import numpy as np

    _, rho, s = law
    k = 2 * bas_A + bas_ch
    mean = np.array([rho[0], 0.0, 0.0, rho[1]]).take(k)
    spread = np.array([s[0], 1.0, 1.0, s[1]]).take(k)
    return mean * z_A + spread * noise


def window_normals(stream: np.random.Generator, n: int, t: float, u: float, chunk: int):
    """Yield, at most chunk draws at a time, the standard normals among n that land in [t, u].

    Same law as n draws with the ones outside discarded, but no value
    outside is drawn and no mass is computed.  The envelope is a box over
    [t, u] (two equal boxes if it straddles 0) as tall as the density at
    near, the point nearest 0: binomial(n, area) uniform proposals, each kept
    when a uniform is at most exp((near^2 - x^2) / 2).  A box of area 1 or
    more, a window holding most of the mass, draws all n normals instead.
    """
    import numpy as np

    near = min(max(0.0, t), u)
    area = (u - t) * math.exp(-0.5 * near * near) / math.sqrt(2.0 * math.pi)
    draws = n if area >= 1.0 else int(stream.binomial(n, area))
    buffer = np.empty((3, min(chunk, draws)))  # reused: fresh arrays cost page faults
    for start in range(0, draws, chunk):
        x, ratio, uniform = buffer[:, : min(chunk, draws - start)]
        if area >= 1.0:
            stream.standard_normal(out=x)
            keep = True
        else:
            stream.random(out=x)
            x *= u - t
            x += t
            np.multiply(x, x, out=ratio)
            ratio -= near * near
            ratio *= -0.5
            np.exp(ratio, out=ratio)  # the density at x over the box's height
            keep = stream.random(out=uniform) <= ratio
        yield x[keep & (x >= t) & (x <= u)]  # closed window; guards rounding at u


def worker_threads() -> int:
    """Threads a Monte Carlo loop may use: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def ordered_streams(work, jobs, rng: np.random.Generator):
    """Yield work(job, stream) for each job in job order, stream a fresh child of rng.

    Children are spawned in job order on the calling thread (rng.spawn), and
    up to worker_threads() jobs run at once on a pool of threads (numpy
    releases the interpreter lock).  Results depend only on rng's seed and
    how many children it had spawned, not on the thread count or on which
    job finishes first.  Closing the generator, or a job raising, cancels
    the jobs not yet started and joins the running ones.
    """
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    workers = worker_threads()
    pool = ThreadPoolExecutor(max_workers=workers)
    running = deque()
    try:
        for job in jobs:
            running.append(pool.submit(work, job, rng.spawn(1)[0]))
            if len(running) == workers:
                yield running.popleft().result()
        while running:
            yield running.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
