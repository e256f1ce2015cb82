"""Scan-data reduction: peak fits, conditional variances, the EPR product.

Coincidence scans (one detector fixed, the partner's slit stepped across the
detection plane) are fit with a four-parameter Gaussian A exp(-(x-c)^2 /
(2 s^2)) + o under Poissonian weights.  A scan whose count spread stays
under FLAT_RATIO_BOUND is classified flat and gets an offset-only fit, which
is what the conjugate-basis configurations produce.

The fitted widths convert to conditional (inferred) variances, and the
witness is their product:

    var(x_B | x_A) * var(p_B | p_A) < 1/4     (hbar = 1)

This is Reid's EPR criterion on inferred variances (Reid, PRA 40, 913
(1989)), a sufficient test for entanglement.  It is not Duan's criterion,
which is a sum, nor Mancini's separability bound on the product of the
collective variances var(x_A - x_B) * var(p_A + p_B), which is 1 in these
units (Mancini et al., PRL 88, 120401 (2002)).  duan_check, DUAN_BOUND and
the report key bound_hbar2 keep their names for existing callers.

Counting errors are Poissonian, sqrt(N) with a floor of 1 for empty bins.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .defaults import RunError
from .source import PairKernel, SourceModel, channel_law

if TYPE_CHECKING:
    import numpy as np

    from .detection import StationConfig

FLAT_RATIO_BOUND = 1.3
DUAN_BOUND = 0.25
_MIN_POINTS = 5
FIT_MAX_STEPS = 200


class FitError(RunError):
    """Nonlinear fit failed to converge."""


@dataclass(frozen=True)
class ScanData:
    """One coincidence scan: partner-detector positions and counts per dwell."""

    positions: tuple[float, ...]
    counts: tuple[int, ...]
    fixed_detector: str
    basis_pair: tuple[str, str]

    def __post_init__(self):
        if len(self.positions) != len(self.counts):
            raise ValueError("positions and counts must have equal length")
        if len(self.positions) < _MIN_POINTS:
            raise ValueError(f"need at least {_MIN_POINTS} scan points")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")

    def max_min_ratio(self) -> float:
        return max(self.counts) / max(min(self.counts), 1)

    def is_flat(self) -> bool:
        return self.max_min_ratio() < FLAT_RATIO_BOUND

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["position_mm", "counts"])
            for pos, cnt in zip(self.positions, self.counts):
                writer.writerow([f"{pos:.6g}", int(cnt)])


@dataclass(frozen=True)
class GaussianFit:
    """Fit result; sigma is None for a degenerate flat scan."""

    amplitude: float | None
    center: float | None
    sigma: float | None
    offset: float
    covariance: tuple | None
    chi_square: float
    flat: bool


@dataclass(frozen=True)
class EprCheckResult:
    var_x_list: tuple[float, ...]
    var_p_list: tuple[float, ...]
    product: float
    bound: float
    satisfied: bool
    sigma_distance: float | None
    product_uncertainty: float | None


def poisson_errors(counts: Sequence[float]) -> list[float]:
    """Counting error sqrt(N) per point, floored at 1 for empty bins."""
    return [math.sqrt(c) if c >= 1 else 1.0 for c in counts]


def _model(params: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The peak model at x and its Jacobian in (amplitude, center, sigma, offset)."""
    import numpy as np

    amp, center, sigma, offset = params
    z = (x - center) / sigma
    bump = np.exp(-0.5 * z * z)
    jac = np.column_stack([bump, amp * bump * z / sigma, amp * bump * z * z / sigma, np.ones_like(x)])
    return amp * bump + offset, jac


def _levenberg_marquardt(residuals, params: np.ndarray):
    """Minimize |r|^2 from params; residuals(params) returns (r, dr/dparams).

    Each step solves (J^T J + lam D) step = -J^T r, D the diagonal of J^T J,
    and is taken if it lowers |r|^2.  lam follows Nielsen's rule: after a
    taken step it scales by max(1/3, 1 - (2 gain - 1)^3), gain being the
    actual over the predicted reduction, so a poorly predicted step shrinks
    the next; after a refused one it doubles its last rise.  Converged once
    a step, taken or refused, is below 1e-8 of the parameters in the norm
    scaled by J's column norms.  Returns the last parameters, residuals and
    Jacobian, and whether that happened within FIT_MAX_STEPS steps.
    """
    import numpy as np

    lam, rise = 1e-3, 2.0
    resid, jac = residuals(params)
    chi_square = resid @ resid
    for _ in range(FIT_MAX_STEPS):
        grad, jtj = jac.T @ resid, jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag == 0.0] = 1.0
        try:
            step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"peak fit failed: {exc}") from exc
        trial_resid, trial_jac = residuals(params + step)
        trial_chi = trial_resid @ trial_resid
        gain = (chi_square - trial_chi) / (step @ (lam * diag * step - grad))
        if gain > 0.0:
            params, resid, jac, chi_square = params + step, trial_resid, trial_jac, trial_chi
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            rise = 2.0
        else:
            lam *= rise
            rise *= 2.0
        scale = np.sqrt(diag)
        if np.linalg.norm(scale * step) <= 1e-8 * np.linalg.norm(scale * params):
            return params, resid, jac, True
    return params, resid, jac, False


def fit_gaussian(scan: ScanData) -> GaussianFit:
    """Weighted nonlinear least-squares peak fit.

    Residuals are weighted by Poissonian counting errors (variance
    max(count, 1)).  Start values: offset at the minimum count, amplitude the
    count span, center the excess-weighted centroid, width from the second
    moment.  A Levenberg-Marquardt search (_levenberg_marquardt) must reach
    a relative parameter change below 1e-8 within 200 steps, or FitError is
    raised.  A scan with max/min count ratio under 1.3 (or no count spread at
    all) is degenerate: the result carries the mean as offset and no width.
    So is a scan whose search does not settle with the width grown past the
    grid span: chi-square then falls toward a parabola across the grid as
    the width grows without bound, and the scan resolves no peak.
    """
    import numpy as np

    x = np.asarray(scan.positions, dtype=float)
    y = np.asarray(scan.counts, dtype=float)
    weights = 1.0 / np.asarray(poisson_errors(scan.counts))

    def degenerate() -> GaussianFit:
        mean = float(y.mean())
        resid = (y - mean) * weights
        return GaussianFit(
            amplitude=None,
            center=None,
            sigma=None,
            offset=mean,
            covariance=None,
            chi_square=float(resid @ resid),
            flat=True,
        )

    if y.max() == y.min() or scan.is_flat():
        return degenerate()

    offset0 = float(y.min())
    amp0 = float(y.max() - y.min())
    excess = np.maximum(y - offset0, 0.0)
    center0 = float((x * excess).sum() / excess.sum())
    var0 = float(((x - center0) ** 2 * excess).sum() / excess.sum())
    sigma0 = math.sqrt(var0) if var0 > 0 else (x.max() - x.min()) / 6.0

    def residuals(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        model, jac = _model(params, x)
        return (model - y) * weights, jac * weights[:, None]

    # A refused trial step may overflow; its chi-square is then not below
    # the current one and the step is dropped.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        params, resid, jac, converged = _levenberg_marquardt(
            residuals, np.array([amp0, center0, sigma0, offset0])
        )
    if not converged:
        if abs(params[2]) > x.max() - x.min():
            return degenerate()
        raise FitError(f"peak fit did not converge in {FIT_MAX_STEPS} steps")

    amp, center, sigma, offset = params
    sigma = abs(float(sigma))
    chi_square = float(resid @ resid)

    # Covariance from the weighted Jacobian; guard the near-singular case.
    try:
        cov = np.linalg.inv(jac.T @ jac)
        dof = max(len(x) - 4, 1)
        cov = cov * chi_square / dof
        covariance = tuple(map(tuple, cov))
    except np.linalg.LinAlgError:
        covariance = None

    return GaussianFit(
        amplitude=float(amp),
        center=float(center),
        sigma=sigma,
        offset=float(offset),
        covariance=covariance,
        chi_square=chi_square,
        flat=False,
    )


def conditional_variance(fit: GaussianFit, conversion_scale: float) -> float:
    """Inferred variance of B's coordinate given A's slit, from a fitted scan width.

    conversion_scale maps the detection-plane width into the coordinate's
    units: detection.conversion_for (alpha for position scans, k/f for
    momentum scans), or 1 to stay in detection-plane mm.
    """
    if fit.flat:
        raise ValueError("conditional variance undefined for a degenerate flat fit")
    return (conversion_scale * fit.sigma) ** 2


def duan_check(
    var_x_list: Sequence[float],
    var_p_list: Sequence[float],
    unc_x_list: Sequence[float] | None = None,
    unc_p_list: Sequence[float] | None = None,
) -> EprCheckResult:
    """Evaluate Reid's EPR criterion on the product of inferred variances.

    The product uses the arithmetic mean of each axis' conditional variances
    and is compared against 1/4 (hbar = 1) with strict inequality (Reid, PRA
    40, 913 (1989)); the name is historical, the test is not Duan's.  When
    uncertainties are supplied, first-order propagation yields the product
    uncertainty and the distance to the bound in standard deviations; they
    are given for both axes or neither.
    Variances must be positive and finite, uncertainties non-negative and
    finite; the error names the offending field and entry.  Inputs whose
    product, uncertainty or distance leaves the float range raise naming it.
    """
    if not var_x_list or not var_p_list:
        raise ValueError("need at least one variance per axis")
    if (unc_x_list is None) != (unc_p_list is None):
        missing = "unc_x" if unc_x_list is None else "unc_p"
        raise ValueError(f"{missing} is missing: give uncertainties for both axes or neither")
    for name, values, positive in (
        ("var_x", var_x_list, True),
        ("var_p", var_p_list, True),
        ("unc_x", unc_x_list or (), False),
        ("unc_p", unc_p_list or (), False),
    ):
        for i, value in enumerate(values):
            if not math.isfinite(value) or value < 0 or (positive and value == 0):
                kind = "positive" if positive else "non-negative"
                raise ValueError(f"{name}[{i}] must be {kind} and finite, got {value}")

    mean_x = sum(var_x_list) / len(var_x_list)
    mean_p = sum(var_p_list) / len(var_p_list)
    product = mean_x * mean_p

    sigma_distance = None
    product_unc = None
    if unc_x_list is not None:
        if len(unc_x_list) != len(var_x_list) or len(unc_p_list) != len(var_p_list):
            raise ValueError("uncertainty lists must match variance lists")
        unc_mean_x = math.sqrt(sum(u * u for u in unc_x_list)) / len(unc_x_list)
        unc_mean_p = math.sqrt(sum(u * u for u in unc_p_list)) / len(unc_p_list)
        product_unc = product * math.hypot(unc_mean_x / mean_x, unc_mean_p / mean_p)
        if product_unc > 0:
            sigma_distance = (DUAN_BOUND - product) / product_unc
    for name, value in (("product", product), ("product_uncertainty", product_unc),
                        ("sigma_distance", sigma_distance)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} is {value}: the inputs leave the float range")

    return EprCheckResult(
        var_x_list=tuple(float(v) for v in var_x_list),
        var_p_list=tuple(float(v) for v in var_p_list),
        product=product,
        bound=DUAN_BOUND,
        satisfied=product < DUAN_BOUND,
        sigma_distance=sigma_distance,
        product_uncertainty=product_unc,
    )


def scan_simulation(
    source: SourceModel,
    station_A: StationConfig,
    station_B: StationConfig,
    fixed_detector: str,
    basis_pair: tuple[str, str],
    grid: Sequence[float],
    pairs_per_point: int,
    rng: np.random.Generator,
) -> ScanData:
    """Monte Carlo coincidence scan: A's detector fixed, B's slit stepped.

    fixed_detector names one of A's slits ("Ax1", "Ax2", "Ap1", "Ap2"); the
    basis pair fixes both parties' measurement configuration for the whole
    scan (calibration runs bypass the random basis choice).  At each grid
    point B's slit is re-centered and pairs_per_point fresh pairs are
    emitted; the count is the number of double transmissions through the
    closed slit windows.  Photons are drawn in standard units through
    source.PairKernel with one cell per point, detection.slit_cell of A's
    fixed slit and B's slit there at weight 1, whose box is the two windows
    in A's and the channel's coordinate; the kept ones of its
    PairKernel.emit blocks, as in sessions, are the hits.  This is the law
    of sample_pairs followed by both window tests, and no window mass is
    read.  Attenuation filters are left out: scans model the bare alignment
    measurements taken before filters are installed.  Each block draws from
    its own child of rng, spawned in grid order.
    """
    from .detection import slit_cell

    grid = list(grid)
    if len(grid) < _MIN_POINTS:
        raise ValueError(f"need at least {_MIN_POINTS} grid points")
    for k, center in enumerate(grid):
        if not math.isfinite(center):
            raise ValueError(f"grid[{k}] must be finite, got {center}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    basis_A, basis_B = basis_pair
    if fixed_detector not in (f"A{basis_A}1", f"A{basis_A}2"):
        raise ValueError(
            f"fixed detector {fixed_detector!r} does not match basis {basis_A!r}: "
            f"expected A{basis_A}1 or A{basis_A}2"
        )
    if isinstance(pairs_per_point, bool) or not isinstance(pairs_per_point, numbers.Integral):
        raise ValueError(f"pairs_per_point must be an integer, got {pairs_per_point!r}")
    if pairs_per_point <= 0:
        raise ValueError("pairs_per_point must be positive")
    law = channel_law(source)
    slit_A = station_A.detectors(basis_A)[int(fixed_detector[-1]) - 1]
    slit_B = station_B.detectors(basis_B)[0]

    def count(center: float) -> int:
        cell = slit_cell(
            law, station_A, station_B, basis_A, basis_B, slit_A, replace(slit_B, center=center), 1.0
        )
        return sum(index.size for *_, index, _ in PairKernel([cell]).emit(rng, int(pairs_per_point)))

    return ScanData(
        positions=tuple(float(g) for g in grid),
        counts=tuple(count(center) for center in grid),
        fixed_detector=fixed_detector,
        basis_pair=(basis_A, basis_B),
    )
