import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import least_squares

from eprqkd import analysis
from eprqkd import source as source_module
from eprqkd.analysis import (
    FLAT_RATIO_BOUND,
    FitError,
    GaussianFit,
    ScanData,
    conditional_variance,
    duan_check,
    fit_gaussian,
    poisson_errors,
    scan_simulation,
)
from eprqkd.detection import coincidence_probability, conversion_for
from eprqkd.source import sample_pairs

from conftest import WIDE_STATION, _two_sample_chi2, make_station


def synthetic_scan(amplitude, center, sigma, offset, n_points=21, span=3.0, rng=None):
    x = np.linspace(center - span * sigma, center + span * sigma, n_points)
    y = amplitude * np.exp(-0.5 * ((x - center) / sigma) ** 2) + offset
    if rng is not None:
        y = rng.poisson(y)
    return ScanData(
        positions=tuple(x),
        counts=tuple(int(round(v)) for v in y),
        fixed_detector="Ax1",
        basis_pair=("x", "x"),
    )


class TestFitGaussian:
    def test_noiseless_recovery(self):
        scan = synthetic_scan(1000.0, 1.0, 0.3, 10.0)
        fit = fit_gaussian(scan)
        assert not fit.flat
        # Rounding to integer counts limits the noiseless accuracy.
        assert abs(fit.amplitude - 1000.0) / 1000.0 < 1e-3
        assert abs(fit.center - 1.0) < 1e-4
        assert abs(fit.sigma - 0.3) / 0.3 < 1e-3
        assert abs(fit.offset - 10.0) < 1.0

    def test_noiseless_wide_grid(self):
        scan = synthetic_scan(1000.0, 0.0, 0.5, 0.0, n_points=41, span=4.0)
        fit = fit_gaussian(scan)
        assert abs(fit.sigma - 0.5) / 0.5 < 1e-3

    def test_poisson_noised_recovery(self, rng):
        hits = 0
        for seed in range(10):
            local = np.random.default_rng(seed)
            scan = synthetic_scan(1000.0, 1.0, 0.3, 10.0, rng=local)
            fit = fit_gaussian(scan)
            if abs(fit.sigma - 0.3) / 0.3 < 0.05:
                hits += 1
        assert hits >= 9

    def test_flat_scan_degenerate(self, rng):
        counts = rng.poisson(500.0, size=25)
        scan = ScanData(
            positions=tuple(np.linspace(0, 3, 25)),
            counts=tuple(int(c) for c in counts),
            fixed_detector="Ax1",
            basis_pair=("x", "p"),
        )
        assert scan.is_flat()
        fit = fit_gaussian(scan)
        assert fit.flat
        assert fit.sigma is None
        assert abs(fit.offset - counts.mean()) < 1e-9

    def test_constant_counts_degenerate(self):
        scan = ScanData(
            positions=tuple(np.linspace(0, 2, 11)),
            counts=(7,) * 11,
            fixed_detector="Ax1",
            basis_pair=("x", "p"),
        )
        fit = fit_gaussian(scan)
        assert fit.flat and fit.sigma is None and fit.offset == 7.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            ScanData((0.0, 1.0), (1, 2), "Ax1", ("x", "x"))

    def test_covariance_reported(self):
        scan = synthetic_scan(1000.0, 1.0, 0.3, 10.0, rng=np.random.default_rng(4))
        fit = fit_gaussian(scan)
        assert fit.covariance is not None
        cov = np.asarray(fit.covariance)
        assert cov.shape == (4, 4)
        assert np.all(np.diag(cov) >= 0)


def reference_fit(scan):
    """least_squares(method="lm") on the same weighted residuals and start values.

    The analytic Jacobian keeps the reference itself at the minimum: with
    finite differences it stops a few 1e-6 standard errors short.
    """
    x = np.asarray(scan.positions, dtype=float)
    y = np.asarray(scan.counts, dtype=float)
    weights = 1.0 / np.sqrt(np.maximum(y, 1.0))
    excess = y - y.min()
    center = (x * excess).sum() / excess.sum()
    start = [y.max() - y.min(), center, math.sqrt(((x - center) ** 2 * excess).sum() / excess.sum()),
             y.min()]

    def bump(p):
        return np.exp(-0.5 * ((x - p[1]) / p[2]) ** 2)

    def residuals(p):
        return (p[0] * bump(p) + p[3] - y) * weights

    def jacobian(p):
        z = (x - p[1]) / p[2]
        cols = [bump(p), p[0] * bump(p) * z / p[2], p[0] * bump(p) * z * z / p[2], np.ones_like(x)]
        return np.column_stack(cols) * weights[:, None]

    return least_squares(
        residuals, start, jac=jacobian, method="lm", xtol=1e-12, ftol=1e-14, gtol=1e-12
    )


class TestLevenbergMarquardt:
    """fit_gaussian's numpy search against scipy, used only as a reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        fixed=st.sampled_from(["Ax1", "Ax2", "Ap1", "Ap2"]),
        half_width=st.floats(0.6, 1.5),
        step=st.floats(0.03, 0.2),
        pairs=st.integers(5_000, 200_000),
        seed=st.integers(0, 2**32 - 1),
    )
    # Eight points over the top of the peak only: no width to resolve.
    @example(fixed="Ax1", half_width=0.609375, step=0.15625, pairs=5000, seed=4777)
    # At ftol=1e-12 the reference stopped here with a chi-square above fit_gaussian's.
    @example(fixed="Ax2", half_width=0.6015625, step=0.1640625, pairs=5000, seed=160399437)
    def test_matches_least_squares(self, default_experiment, fixed, half_width, step, pairs, seed):
        source, alice, bob = default_experiment
        peak = float(fixed[-1])  # the default partner peaks sit near 1 and 2 mm
        grid = np.arange(peak - half_width, peak + half_width, step)
        scan = scan_simulation(
            source, alice, bob, fixed, (fixed[1],) * 2, grid, pairs, np.random.default_rng(seed)
        )
        assume(not scan.is_flat())
        fit = fit_gaussian(scan)
        ref = reference_fit(scan)
        if fit.flat:
            # No resolved peak: the reference must not resolve one either.
            span = max(scan.positions) - min(scan.positions)
            assert not ref.success or abs(ref.x[2]) > span, ref
            return
        assert ref.success
        params = np.array([fit.amplitude, fit.center, fit.sigma, fit.offset])
        # The offset may sit near zero: each parameter is held to 1e-6 of its
        # magnitude plus its standard error.
        scale = np.abs(ref.x) + np.sqrt(np.diag(fit.covariance))
        assert np.all(np.abs(params - ref.x) <= 1e-6 * scale), (params, ref.x)
        assert abs(fit.chi_square - ref.fun @ ref.fun) <= 1e-6 * fit.chi_square

    def test_step_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "FIT_MAX_STEPS", 2)
        scan = synthetic_scan(1000.0, 1.0, 0.3, 10.0, rng=np.random.default_rng(4))
        with pytest.raises(FitError, match="did not converge in 2 steps"):
            fit_gaussian(scan)

    def test_unbounded_width_is_degenerate(self):
        # A parabola across the grid, spread 1.4 (not flat): chi-square keeps
        # falling as the width grows, so there is no peak to report.
        x = np.linspace(0.0, 1.0, 21)
        counts = np.round(1000.0 + 400.0 * (1.0 - 4.0 * (x - 0.5) ** 2))
        scan = ScanData(tuple(x), tuple(int(c) for c in counts), "Ax1", ("x", "x"))
        assert not scan.is_flat()
        fit = fit_gaussian(scan)
        assert fit.sigma is None and fit.flat
        assert fit.offset == counts.mean()


class TestConditionalVariance:
    def test_identity_conversion_squares_width(self):
        fit = GaussianFit(100.0, 1.0, 0.39, 0.0, None, 0.0, False)
        assert math.isclose(conditional_variance(fit, 1.0), 0.1521)
        assert abs(conditional_variance(fit, 1.0) - 0.152) < 2e-3

    @settings(max_examples=50, deadline=None)
    @given(
        sigma=st.floats(0.01, 5.0),
        scale=st.floats(0.01, 10.0),
    )
    def test_scaling_law(self, sigma, scale):
        fit = GaussianFit(1.0, 0.0, sigma, 0.0, None, 0.0, False)
        base = conditional_variance(fit, scale)
        assert math.isclose(conditional_variance(fit, 2 * scale), 4 * base, rel_tol=1e-12)

    def test_degenerate_fit_rejected(self):
        flat = GaussianFit(None, None, None, 5.0, None, 0.0, True)
        with pytest.raises(ValueError):
            conditional_variance(flat, 1.0)

    def test_default_conversions(self, default_experiment):
        _, _, bob = default_experiment
        assert conversion_for(bob, "x") == bob.alpha
        assert conversion_for(bob, "p") == bob.momentum_scale
        with pytest.raises(ValueError):
            conversion_for(bob, "q")


class TestDuanCheck:
    def test_reference_variances(self):
        result = duan_check(
            (0.152, 0.080), (0.912, 0.875), (0.003, 0.002), (0.017, 0.090)
        )
        assert math.isclose(result.product, 0.116 * 0.8935, rel_tol=1e-12)
        assert round(result.product, 2) == 0.10
        assert result.satisfied
        assert result.sigma_distance > 3.0

    def test_boundary_not_satisfied(self):
        result = duan_check((0.5,), (0.5,))
        assert result.product == 0.25
        assert not result.satisfied

    def test_separable_mock(self):
        result = duan_check((1.0,), (1.0,))
        assert result.product == 1.0
        assert not result.satisfied

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            duan_check((), (1.0,))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            duan_check((0.0,), (1.0,))

    @pytest.mark.parametrize("args, field", [
        (((0.1, math.nan), (0.5,)), "var_x[1]"),
        (((0.1,), (0.5, math.inf)), "var_p[1]"),
        (((0.1,), (-math.inf,)), "var_p[0]"),
        (((0.1,), (0.5,), (-0.01,), (0.1,)), "unc_x[0]"),
        (((0.1,), (0.5,), (0.01,), (math.nan,)), "unc_p[0]"),
        (((0.1,), (0.5,), (math.inf,), (0.1,)), "unc_x[0]"),
        # One uncertainty list alone names the missing one.
        (((0.152, 0.080), (0.912, 0.875), (0.003, 0.002), None), "unc_p is missing"),
        (((0.152, 0.080), (0.912, 0.875), None, (0.017, 0.090)), "unc_x is missing"),
    ])
    def test_non_finite_or_negative_input_names_field(self, args, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            duan_check(*args)

    def test_zero_uncertainty_allowed(self):
        result = duan_check((0.2,), (0.5,), (0.0,), (0.0,))
        assert result.product_uncertainty == 0.0
        assert result.sigma_distance is None

    @settings(max_examples=50, deadline=None)
    @given(
        vx=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=4),
        vp=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=4),
        bump=st.floats(0.01, 1.0),
        which=st.integers(0, 1),
    )
    def test_product_monotone_in_each_variance(self, vx, vp, bump, which):
        base = duan_check(vx, vp).product
        if which == 0:
            grown = duan_check([vx[0] + bump] + vx[1:], vp).product
        else:
            grown = duan_check(vx, [vp[0] + bump] + vp[1:]).product
        assert grown > base

    def test_uncertainty_propagation_first_order(self):
        result = duan_check((0.2,), (0.5,), (0.02,), (0.05,))
        expected = 0.1 * math.hypot(0.02 / 0.2, 0.05 / 0.5)
        assert math.isclose(result.product_uncertainty, expected, rel_tol=1e-12)
        assert math.isclose(
            result.sigma_distance, (0.25 - 0.1) / expected, rel_tol=1e-12
        )


class TestPoissonErrors:
    def test_reference_entries(self):
        assert round(poisson_errors([943])[0]) == 31
        assert round(poisson_errors([22])[0]) == 5
        assert abs(poisson_errors([943])[0] - 30.7) < 0.05

    def test_zero_floor(self):
        assert poisson_errors([0]) == [1.0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=20))
    def test_floor_and_sqrt(self, counts):
        errors = poisson_errors(counts)
        for c, e in zip(counts, errors):
            assert e == (math.sqrt(c) if c >= 1 else 1.0)


class TestScanSimulation:
    def test_same_basis_peaks_separated_by_slit_spacing(self, default_experiment, rng):
        source, alice, bob = default_experiment
        grid = np.arange(0.0, 3.0001, 0.1)
        centers = {}
        for fixed in ("Ax1", "Ax2"):
            scan = scan_simulation(
                source, alice, bob, fixed, ("x", "x"), grid, 150_000, rng
            )
            centers[fixed] = fit_gaussian(scan).center
        assert abs(abs(centers["Ax1"] - centers["Ax2"]) - 1.0) < 0.1

    def test_momentum_peaks_separated_by_slit_spacing(self, default_experiment, rng):
        source, alice, bob = default_experiment
        grid = np.arange(0.0, 3.0001, 0.1)
        centers = {}
        for fixed in ("Ap1", "Ap2"):
            scan = scan_simulation(
                source, alice, bob, fixed, ("p", "p"), grid, 150_000, rng
            )
            centers[fixed] = fit_gaussian(scan).center
        assert abs(abs(centers["Ap1"] - centers["Ap2"]) - 1.0) < 0.1

    def test_mixed_basis_flat(self, default_experiment, rng):
        source, alice, bob = default_experiment
        grid = np.arange(1.0, 2.0001, 0.05)
        for fixed, pair in (("Ax1", ("x", "p")), ("Ap1", ("p", "x"))):
            scan = scan_simulation(source, alice, bob, fixed, pair, grid, 300_000, rng)
            assert scan.max_min_ratio() < FLAT_RATIO_BOUND
            assert fit_gaussian(scan).flat

    def test_fit_recovers_oracle_profile_width(self, default_experiment, rng):
        """Fitted width against the oracle's second moment of the profile."""
        source, alice, bob = default_experiment
        import dataclasses

        grid = np.arange(0.0, 3.0001, 0.05)
        probs = []
        for b in grid:
            moved = dataclasses.replace(
                bob,
                x_detectors=(
                    dataclasses.replace(bob.x_detectors[0], center=b),
                    dataclasses.replace(bob.x_detectors[1], center=b + 500.0),
                ),
            )
            probs.append(
                coincidence_probability(
                    source, alice, moved, "x", "x", 1, 1, include_attenuation=False
                )
            )
        probs = np.array(probs)
        mean = (grid * probs).sum() / probs.sum()
        var_profile = ((grid - mean) ** 2 * probs).sum() / probs.sum()

        scan = scan_simulation(
            source, alice, bob, "Ax1", ("x", "x"), np.arange(0.0, 3.0001, 0.1),
            400_000, rng,
        )
        fit = fit_gaussian(scan)
        sigma_err = math.sqrt(np.asarray(fit.covariance)[2, 2])
        assert abs(fit.sigma - math.sqrt(var_profile)) <= 3 * sigma_err + 5e-3

    def test_grid_validation(self, default_experiment, rng):
        source, alice, bob = default_experiment
        with pytest.raises(ValueError, match="increasing"):
            scan_simulation(
                source, alice, bob, "Ax1", ("x", "x"), [0.0, 0.1, 0.1, 0.2, 0.3],
                100, rng,
            )
        with pytest.raises(ValueError, match="grid"):
            scan_simulation(source, alice, bob, "Ax1", ("x", "x"), [0.0, 0.1], 100, rng)

    def test_fixed_detector_must_match_basis(self, default_experiment, rng):
        source, alice, bob = default_experiment
        for fixed in ("Ap1", "Axbogus2", "Ax3", "ax1", "Ax"):
            with pytest.raises(ValueError, match="does not match basis 'x': expected Ax1 or Ax2"):
                scan_simulation(
                    source, alice, bob, fixed, ("x", "x"),
                    np.arange(0.0, 1.01, 0.2), 100, rng,
                )

    @pytest.mark.parametrize("pairs", [1.5, 100.0, True, "100", None])
    def test_pairs_per_point_must_be_integer(self, default_experiment, pairs):
        source, alice, bob = default_experiment
        with pytest.raises(ValueError, match="pairs_per_point must be an integer"):
            scan_simulation(
                source, alice, bob, "Ax1", ("x", "x"), np.arange(0.0, 1.01, 0.2), pairs,
                _NoDraws(),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_named_before_any_draw(self, default_experiment, bad):
        source, alice, bob = default_experiment
        grid = [0.0, 0.2, 0.4, bad, 0.8, 1.0]
        with pytest.raises(ValueError, match=re.escape(f"grid[3] must be finite, got {bad}")):
            scan_simulation(source, alice, bob, "Ax1", ("x", "x"), grid, 100, _NoDraws())

    @pytest.mark.parametrize("fixed, pair", [("Ax1", ("x", "x")), ("Ax2", ("x", "p"))])
    def test_counts_repeat_for_a_seed(self, default_experiment, fixed, pair):
        source, alice, bob = default_experiment
        grid = np.arange(0.5, 2.5001, 0.25)
        first, second = (
            scan_simulation(source, alice, bob, fixed, pair, grid, 50_000, np.random.default_rng(5))
            for _ in range(2)
        )
        assert first == second

    def test_back_to_back_scans_draw_distinct_streams(self, default_experiment):
        source, alice, bob = default_experiment
        rng = np.random.default_rng(5)
        grid = np.arange(0.5, 2.5001, 0.25)
        first, second = (
            scan_simulation(source, alice, bob, "Ax1", ("x", "x"), grid, 50_000, rng)
            for _ in range(2)
        )
        assert first.counts != second.counts

    @pytest.mark.parametrize("fixed, pair", [("Ax1", ("x", "x")), ("Ap1", ("p", "x"))])
    def test_every_proposal_drawn_once_across_chunks(
        self, default_experiment, monkeypatch, fixed, pair
    ):
        """Each grid point draws binomial(pairs, total) proposals first on its child, in chunks."""
        monkeypatch.setattr(analysis, "DRAW_SIZE", 1000)
        drawn = []

        class Recording(source_module.PairKernel):
            def kept(self, stream, k):
                if not drawn or drawn[-1][0] is not self:
                    drawn.append((self, []))
                drawn[-1][1].append(k)
                return super().kept(stream, k)

        monkeypatch.setattr(analysis, "PairKernel", Recording)
        source, alice, bob = default_experiment
        grid = np.arange(0.0, 3.01, 0.5)
        scan_simulation(source, alice, bob, fixed, pair, grid, 100_000, np.random.default_rng(9))
        children = np.random.default_rng(9).spawn(len(grid))
        proposals = [
            int(child.binomial(100_000, kernel.total)) for child, (kernel, _) in zip(children, drawn)
        ]
        assert [sum(chunks) for _, chunks in drawn] == [p for p in proposals if p > 0]
        assert all(k <= 125 for _, chunks in drawn for k in chunks) and max(proposals) > 125

    @pytest.mark.parametrize("pairs", [999, 1000, 1001, 2007])
    def test_every_pair_drawn_once_across_chunks(self, default_experiment, monkeypatch, pairs):
        """Windows that accept every pair count pairs_per_point exactly."""
        monkeypatch.setattr(analysis, "DRAW_SIZE", 1000)
        source = default_experiment[0]
        wide = make_station(
            x_centers=(0.0, 1e7), p_centers=(0.0, 1e7), x_width=1e6, p_width=1e6
        )
        for fixed, pair in (("Ax1", ("x", "x")), ("Ap1", ("p", "x"))):
            scan = scan_simulation(
                source, wide, wide, fixed, pair, np.arange(0.0, 1.01, 0.2), pairs,
                np.random.default_rng(9),
            )
            assert scan.counts == (pairs,) * 6

    def test_reads_no_normal_mass(self, default_experiment, monkeypatch):
        """The scan and session Monte Carlo stay an independent check of the quadrature oracle."""
        from eprqkd import detection
        from eprqkd.protocol import AttackConfig, SessionConfig, run_session, tally_coincidences

        source, alice, bob = default_experiment  # built before the mass functions break

        def oracle_read(*args, **kwargs):
            raise AssertionError("the Monte Carlo read the oracle's normal mass")

        for name in ("_cdf", "_normal_mass", "cell_probability", "_rectangle", "_upper_orthant"):
            monkeypatch.setattr(detection, name, oracle_read)
        monkeypatch.setattr(math, "erf", oracle_read)
        monkeypatch.setattr(math, "erfc", oracle_read)
        with pytest.raises(AssertionError, match="normal mass"):
            coincidence_probability(source, alice, bob, "x", "p", 1, 1)
        grid = np.arange(0.5, 2.5001, 0.25)
        for fixed, pair in (
            ("Ax1", ("x", "x")), ("Ap2", ("p", "p")), ("Ax2", ("x", "p")), ("Ap1", ("p", "x"))
        ):
            scan = scan_simulation(
                source, alice, bob, fixed, pair, grid, 20_000, np.random.default_rng(3)
            )
            assert sum(scan.counts) > 0
        for policy in (None, "uniform_random", "always_x", "always_p"):
            attack = None if policy is None else AttackConfig(basis_policy=policy)
            rng = np.random.default_rng(3)
            table = tally_coincidences(source, alice, bob, 100_000, rng, attack=attack)
            assert table.total() > 0
            result = run_session(source, alice, bob, SessionConfig(2000, 200, 3), attack=attack)
            assert result.table.total() == 2000


class _NoDraws:
    """A generator stand-in that fails on any use: input checks come first."""

    def __getattr__(self, name):
        raise AssertionError(f"scan_simulation used rng.{name} before rejecting its input")


def _reference_scan(source, alice, bob, fixed, pair, grid, n, rng):
    """Scan counts from the full pair sampler with this file's own windows.

    At each grid point n fresh pairs draw all four latent coordinates; each
    side maps the one its basis reads to the detection plane and tests a
    closed interval: A's fixed slit, and a slit of B's width centered on the
    grid point.
    """
    def plane(station, x, p, basis):
        scaled = x / station.alpha if basis == "x" else p * station.focal_length / station.wavenumber
        return scaled + station.origin

    slit_A = alice.detectors(pair[0])[int(fixed[-1]) - 1]
    half_B = bob.detectors(pair[1])[0].width / 2.0
    counts = []
    for center in grid:
        x_A, x_B, p_A, p_B = sample_pairs(source, n, rng)
        u_A = plane(alice, x_A, p_A, pair[0])
        u_B = plane(bob, x_B, p_B, pair[1])
        hits = (
            (u_A >= slit_A.lo) & (u_A <= slit_A.hi)
            & (u_B >= center - half_B) & (u_B <= center + half_B)
        )
        counts.append(int(hits.sum()))
    return np.array(counts)


@pytest.mark.parametrize(
    "fixed, pair",
    [("Ax1", ("x", "x")), ("Ap2", ("p", "p")), ("Ax2", ("x", "p")), ("Ap1", ("p", "x"))],
    ids=["xx", "pp", "xp", "px"],
)
def test_scan_law_matches_full_pair_sampler(default_experiment, fixed, pair):
    """Two-sample chi-square between scan_simulation and the reference.

    Both scans emit the same number of pairs per point, so under equal laws
    each count difference a - b has variance a + b and the sum of
    (a - b)^2 / (a + b) over the occupied points of three seeds is
    chi-square with one degree of freedom per point.
    """
    from scipy.stats import chi2

    source, alice, bob = default_experiment
    grid = np.arange(0.4, 2.6001, 0.2)
    n = 100_000
    stat, dof = 0.0, 0
    for seed in (71, 72, 73):
        fast = np.array(
            scan_simulation(
                source, alice, bob, fixed, pair, grid, n, np.random.default_rng(seed)
            ).counts
        )
        ref = _reference_scan(
            source, alice, bob, fixed, pair, grid, n, np.random.default_rng(seed + 100)
        )
        occupied = (fast + ref) > 0
        stat += float(np.sum((fast - ref)[occupied] ** 2 / (fast + ref)[occupied]))
        dof += int(occupied.sum())
    assert stat < chi2.ppf(0.999, dof), (stat, dof)


def test_scan_law_holds_across_chunks(default_experiment, monkeypatch):
    """The xx law test with 1000-pair chunks: 100 chunks per grid point."""
    monkeypatch.setattr(analysis, "DRAW_SIZE", 1000)
    test_scan_law_matches_full_pair_sampler(default_experiment, "Ax1", ("x", "x"))


@pytest.mark.parametrize("fixed, pair", [("Ax1", ("x", "x")), ("Ap2", ("p", "p"))], ids=["xx", "pp"])
def test_full_density_scan_law(default_experiment, fixed, pair):
    """The scan law test (_two_sample_chi2) on slits whose box would reach 1."""
    from scipy.stats import chi2

    # WIDE_STATION's slits 1.5 times wider: a box in (z, y) tops 1 at some points.
    source, wide = default_experiment[0], make_station(
        O=200.0, I=100.0, f=150.0, k=150.0, x_centers=(-1.0, 1.0), p_centers=(-2.0, 2.0),
        x_width=1.8, p_width=3.6,
    )
    std, rho, s = source_module.channel_law(source)
    b = "xp".index(pair[0])
    slit = wide.detectors(pair[0])[int(fixed[-1]) - 1]
    window = tuple(v / std[b] for v in wide.latent_window(pair[0], slit))
    grid = np.arange(-1.5, 1.5001, 0.25)
    areas = [
        source_module._box((window, tuple(v / std[b] for v in wide.latent_window(pair[1], slit_B)),
                            rho[b], s[b], 1.0))[0]
        for slit_B in (dataclasses.replace(wide.detectors(pair[1])[0], center=c) for c in grid)
    ]
    assert max(areas) > 1.0
    n = 50_000
    stat, dof = _two_sample_chi2([
        (
            np.array(scan_simulation(
                source, wide, wide, fixed, pair, grid, n, np.random.default_rng(seed)
            ).counts),
            _reference_scan(
                source, wide, wide, fixed, pair, grid, n, np.random.default_rng(seed + 100)
            ),
        )
        for seed in (91, 92, 93)
    ])
    assert stat < chi2.ppf(0.999, dof), (stat, dof)


class TestScanCsv:
    def test_round_trip(self, tmp_path, rng):
        scan = synthetic_scan(500.0, 1.0, 0.3, 5.0, rng=rng)
        path = tmp_path / "scan.csv"
        scan.save_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert tuple(int(count) for _, count in rows) == scan.counts
        assert np.allclose([float(pos) for pos, _ in rows], scan.positions)

    def test_header_required(self, tmp_path, rng):
        path = tmp_path / "scan.csv"
        synthetic_scan(500.0, 1.0, 0.3, 5.0, rng=rng).save_csv(path)
        assert path.read_text().splitlines()[0] == "position_mm,counts"
