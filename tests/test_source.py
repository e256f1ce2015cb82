import ast
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eprqkd import detection
from eprqkd import source as source_module
from eprqkd.defaults import assemble_setup
from eprqkd.detection import CalibrationError, calibrate_source
from eprqkd.source import (
    PumpProfile,
    SourceModel,
    UnphysicalSourceError,
    build_source,
    channel_law,
    ordered_streams,
    partner_normal,
    sample_pairs,
    window_normals,
)

from conftest import make_station

PUMP = PumpProfile(2.0)


def degenerate_source(sigma_minus=0.0, sigma_plus=2.0, kappa_minus=0.9, kappa_plus=4.0):
    # Direct construction bypasses the physicality gate (testing only).
    return SourceModel(sigma_minus, sigma_plus, kappa_minus, kappa_plus, PUMP)


def _entangled(model):
    """Closed-form PPT test, exact for this family (Simon, PRL 84, 2726 (2000))."""
    return model.sigma_minus * model.kappa_minus < 1.0 or model.sigma_plus * model.kappa_plus < 1.0


def _ppt_min_eigenvalue(model):
    """Least eigenvalue of V^T_B + (i/2) Omega, V over (x_A, p_A, x_B, p_B).

    Negative exactly when transposing B (p_B -> -p_B) leaves an unphysical
    covariance, i.e. when the Gaussian state is entangled (hbar = 1).
    """
    s2p, s2m = model.sigma_plus**2, model.sigma_minus**2
    k2m, k2p = model.kappa_minus**2, model.kappa_plus**2
    cov = np.zeros((4, 4))
    cov[np.ix_([0, 2], [0, 2])] = np.array([[s2p + s2m, s2p - s2m], [s2p - s2m, s2p + s2m]]) / 4
    cov[np.ix_([1, 3], [1, 3])] = np.array([[k2m + k2p, k2m - k2p], [k2m - k2p, k2m + k2p]]) / 4
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    return np.linalg.eigvalsh(flip @ cov @ flip + 0.5j * omega).min()


class TestBuildSource:
    def test_valid_and_entangled(self):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        assert _entangled(model)
        assert math.isclose(model.sigma_minus**2 * model.kappa_minus**2, 0.0729)

    def test_symmetric_saturated_not_entangled(self):
        model = build_source(1.0, 1.0, 1.0, 1.0, PUMP)
        assert not _entangled(model)

    def test_entangled_through_the_correlated_pair_alone(self):
        # sigma_minus^2 * kappa_minus^2 = 0.49 is above 1/4, yet
        # sigma_minus * kappa_minus = 0.7 < 1 fails the partial transpose.
        assert _entangled(build_source(0.7, 1.5, 1.0, 1.5, PUMP)) is True

    @settings(max_examples=300, deadline=None)
    @given(
        sigma_minus=st.floats(0.05, 5.0),
        kappa_minus=st.floats(0.05, 5.0),
        excess_mp=st.floats(1.0 + 1e-9, 20.0),
        excess_pm=st.floats(1.0 + 1e-9, 20.0),
    )
    def test_entangled_matches_numeric_ppt(self, sigma_minus, kappa_minus, excess_mp, excess_pm):
        """The closed form agrees with the eigenvalues of the partially transposed state."""
        kappa_plus, sigma_plus = excess_mp / sigma_minus, excess_pm / kappa_minus
        for product in (sigma_minus * kappa_minus, sigma_plus * kappa_plus):
            assume(abs(math.log(product)) > 1e-6)
        model = build_source(sigma_minus, sigma_plus, kappa_minus, kappa_plus, PUMP)
        assert _entangled(model) == (_ppt_min_eigenvalue(model) < 0.0)

    def test_rejects_uncertainty_violation(self):
        with pytest.raises(UnphysicalSourceError, match="sigma_minus"):
            build_source(0.1, 2.0, 0.9, 5.0, PUMP)

    def test_rejects_conjugate_sum_violation(self):
        with pytest.raises(UnphysicalSourceError, match="sigma_plus"):
            build_source(0.5, 0.5, 1.0, 4.0, PUMP)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            build_source(-0.1, 2.0, 0.9, 4.0, PUMP)
        with pytest.raises(ValueError):
            build_source(0.3, 2.0, 0.0, 4.0, PUMP)

    def test_pump_requires_positive_waist(self):
        with pytest.raises(ValueError):
            PumpProfile(0.0)


class TestSampling:
    def test_degenerate_width_gives_identical_positions(self, rng):
        model = degenerate_source(sigma_minus=0.0)
        x_A, x_B, _, _ = sample_pairs(model, 100, rng)
        assert np.array_equal(x_A, x_B)

    def test_difference_variance_matches_configuration(self, rng):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        x_A, x_B, _, _ = sample_pairs(model, 1_000_000, rng)
        var = np.var(x_A - x_B)
        assert abs(var - 0.09) / 0.09 < 0.01

    def test_all_collective_variances(self, rng):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        x_A, x_B, p_A, p_B = sample_pairs(model, 1_000_000, rng)
        for values, width in (
            (x_A - x_B, 0.3),
            (x_A + x_B, 2.0),
            (p_A + p_B, 0.9),
            (p_A - p_B, 4.0),
        ):
            assert abs(np.std(values) - width) / width < 0.01

    def test_position_momentum_uncorrelated(self, rng):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        x_A, _, _, p_B = sample_pairs(model, 1_000_000, rng)
        corr = np.corrcoef(x_A, p_B)[0, 1]
        assert abs(corr) < 0.01


def _gauss(value, std):
    return np.exp(-0.5 * (value / std) ** 2) / (std * math.sqrt(2.0 * math.pi))


def joint_density(source, basis_A, basis_B, u_A, u_B):
    """Reference density of the latent readout pair for one basis pairing.

    Arguments are crystal-plane values (mm for basis "x", 1/mm for basis
    "p").  Same-basis densities factor over the (sum, difference)
    coordinates; mixed-basis densities are products of the two single-party
    marginals because the position and momentum blocks are uncorrelated.
    Accepts scalars or arrays.
    """
    for basis in (basis_A, basis_B):
        if basis not in ("x", "p"):
            raise ValueError(f"basis must be 'x' or 'p', got {basis!r}")
    u_A = np.asarray(u_A, dtype=float)
    u_B = np.asarray(u_B, dtype=float)

    if basis_A == "x" and basis_B == "x":
        # Jacobian of (x_A, x_B) -> (sum, diff) is 2.
        out = 2.0 * _gauss(u_A + u_B, source.sigma_plus) * _gauss(u_A - u_B, source.sigma_minus)
    elif basis_A == "p" and basis_B == "p":
        out = 2.0 * _gauss(u_A + u_B, source.kappa_minus) * _gauss(u_A - u_B, source.kappa_plus)
    else:
        std = channel_law(source)[0]
        std_A, std_B = std["xp".index(basis_A)], std["xp".index(basis_B)]
        out = _gauss(u_A, std_A) * _gauss(u_B, std_B)
    if out.ndim == 0:
        return float(out)
    return out


class TestJointDensity:
    def test_same_basis_origin_value(self):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        assert math.isclose(
            joint_density(model, "x", "x", 0.0, 0.0), 1.0 / (math.pi * 2.0 * 0.3)
        )
        assert math.isclose(
            joint_density(model, "p", "p", 0.0, 0.0), 1.0 / (math.pi * 0.9 * 4.0)
        )

    def test_mixed_basis_factorizes(self):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        std_x, std_p = channel_law(model)[0]

        def marginal(value, std):
            return math.exp(-0.5 * (value / std) ** 2) / (std * math.sqrt(2 * math.pi))

        grid = np.linspace(-2.0, 2.0, 9)
        for u in grid:
            for v in grid:
                prod = marginal(u, std_x) * marginal(v, std_p)
                assert math.isclose(joint_density(model, "x", "p", u, v), prod)
                assert math.isclose(
                    joint_density(model, "p", "x", v, u),
                    marginal(v, std_p) * marginal(u, std_x),
                )

    def test_exchange_symmetry(self):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        for a, b in ((0.1, -0.4), (0.7, 0.2), (-1.1, 0.9)):
            assert math.isclose(
                joint_density(model, "x", "x", a, b), joint_density(model, "x", "x", b, a)
            )
            assert math.isclose(
                joint_density(model, "p", "p", a, b), joint_density(model, "p", "p", b, a)
            )

    def test_rejects_unknown_basis(self):
        model = build_source(0.3, 2.0, 0.9, 4.0, PUMP)
        with pytest.raises(ValueError):
            joint_density(model, "z", "x", 0.0, 0.0)


def _bin_edges(std: float, n_bins: int = 10, reach: float = 3.2) -> np.ndarray:
    return np.linspace(-reach * std, reach * std, n_bins + 1)


def _expected_bin_masses(model, basis_A, basis_B, edges_A, edges_B):
    """Bin masses of the joint density by 2D Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    masses = np.zeros((len(edges_A) - 1, len(edges_B) - 1))
    for i in range(len(edges_A) - 1):
        a0, a1 = edges_A[i], edges_A[i + 1]
        xa = (a1 + a0) / 2 + (a1 - a0) / 2 * nodes
        wa = (a1 - a0) / 2 * weights
        for j in range(len(edges_B) - 1):
            b0, b1 = edges_B[j], edges_B[j + 1]
            xb = (b1 + b0) / 2 + (b1 - b0) / 2 * nodes
            wb = (b1 - b0) / 2 * weights
            grid_a, grid_b = np.meshgrid(xa, xb, indexing="ij")
            dens = joint_density(model, basis_A, basis_B, grid_a.ravel(), grid_b.ravel())
            masses[i, j] = np.einsum(
                "i,j,ij->", wa, wb, np.asarray(dens).reshape(len(xa), len(xb))
            )
    return masses


@pytest.mark.parametrize("basis_A,basis_B", [("x", "x"), ("p", "p"), ("x", "p"), ("p", "x")])
def test_sampler_matches_density_chi_square(basis_A, basis_B, rng):
    """Histogram of samples against quadrature of joint_density, all bases."""
    model = build_source(0.33, 1.8, 0.83, 3.7, PUMP)
    n = 300_000
    x_A, x_B, p_A, p_B = sample_pairs(model, n, rng)
    lat = {"x": (x_A, x_B), "p": (p_A, p_B)}
    vals_A = lat[basis_A][0]
    vals_B = lat[basis_B][1]

    std = channel_law(model)[0]
    edges_A = _bin_edges(std["xp".index(basis_A)])
    edges_B = _bin_edges(std["xp".index(basis_B)])
    observed, _, _ = np.histogram2d(vals_A, vals_B, bins=(edges_A, edges_B))
    expected = _expected_bin_masses(model, basis_A, basis_B, edges_A, edges_B) * n

    # Merge sparse cells (and everything off-grid) into one catch-all cell.
    keep = expected >= 10.0
    chi = float((((observed - expected) ** 2) / expected)[keep].sum())
    rest_obs = n - observed[keep].sum()
    rest_exp = n - expected[keep].sum()
    if rest_exp >= 10.0:
        chi += (rest_obs - rest_exp) ** 2 / rest_exp
        dof = int(keep.sum())  # +1 cell, -1 normalization
    else:
        dof = int(keep.sum()) - 1
    assert chi < dof + 3.0 * math.sqrt(2.0 * dof), f"chi2={chi:.1f} dof={dof}"


def test_mixed_basis_conditionals_homogeneous(rng):
    """p-side histogram must not depend on the x-side value (3 sigma)."""
    model = build_source(0.33, 1.8, 0.83, 3.7, PUMP)
    n = 400_000
    x_A, _, _, p_B = sample_pairs(model, n, rng)
    groups = np.digitize(x_A, np.quantile(x_A, [0.25, 0.5, 0.75]))
    p_edges = np.quantile(p_B, np.linspace(0, 1, 9)[1:-1])
    cells = np.digitize(p_B, p_edges)
    table = np.zeros((4, 8))
    np.add.at(table, (groups, cells), 1)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / n
    chi = float(((table - expected) ** 2 / expected).sum())
    dof = (4 - 1) * (8 - 1)
    assert chi < dof + 3.0 * math.sqrt(2.0 * dof), f"chi2={chi:.1f} dof={dof}"


class TestCalibration:
    def test_round_trip_reproduces_targets(self, raw_experiment):
        source, alice, bob = raw_experiment
        for basis, target in (("x", 0.116), ("p", 0.894)):
            measured = detection.detected_variance(source, alice, bob, basis)
            assert abs(measured - target) / target < 1e-4

    def test_point_detectors_identity(self, raw_experiment):
        _, alice, bob = raw_experiment
        import dataclasses

        def pointlike(station):
            shrink = lambda dets: tuple(
                dataclasses.replace(d, width=1e-9) for d in dets
            )
            return dataclasses.replace(
                station, x_detectors=shrink(station.x_detectors),
                p_detectors=shrink(station.p_detectors),
            )

        model = calibrate_source(
            0.116, 0.894, pointlike(alice), pointlike(bob),
            sigma_plus=1.8, kappa_plus=3.7, pump=PUMP,
        )
        assert abs(model.sigma_minus**2 - 0.116) / 0.116 < 1e-9
        assert abs(model.kappa_minus**2 - 0.894) / 0.894 < 1e-9

    def test_target_below_slit_floor_is_infeasible(self, raw_experiment):
        _, alice, bob = raw_experiment
        floor_x = detection.slit_smearing_variance(alice, bob, "x")
        with pytest.raises(CalibrationError, match="basis x"):
            calibrate_source(
                floor_x * 0.5, 0.894, alice, bob,
                sigma_plus=1.8, kappa_plus=3.7, pump=PUMP,
            )
        floor_p = detection.slit_smearing_variance(alice, bob, "p")
        with pytest.raises(CalibrationError, match="basis p"):
            calibrate_source(
                0.116, floor_p * 0.9, alice, bob,
                sigma_plus=1.8, kappa_plus=3.7, pump=PUMP,
            )

    def test_detected_variance_monotone_in_sigma_minus(self, raw_experiment):
        source, alice, bob = raw_experiment
        import dataclasses

        widths = [0.2, 0.3, 0.4]
        values = [
            detection.detected_variance(
                dataclasses.replace(source, sigma_minus=w), alice, bob, "x"
            )
            for w in widths
        ]
        assert values[0] < values[1] < values[2]

    def test_rejects_nonpositive_targets(self, raw_experiment):
        _, alice, bob = raw_experiment
        for (target_x, target_p, sigma_plus, kappa_plus), field in (
            ((-1.0, 0.894, 1.8, 3.7), "target_var_x"),
            ((math.nan, 0.894, 1.8, 3.7), "target_var_x"),
            ((0.116, math.inf, 1.8, 3.7), "target_var_p"),
            ((0.116, 0.894, math.nan, 3.7), "sigma_plus"),
            ((0.116, 0.894, 1.8, math.inf), "kappa_plus"),
        ):
            with pytest.raises(ValueError, match=field):
                calibrate_source(target_x, target_p, alice, bob, sigma_plus, kappa_plus, PUMP)

    def test_round_trip_with_unequal_imaging_scales(self):
        # alpha_A = 1, alpha_B = 2: sigma_plus enters the detected x variance.
        left = make_station(O=200.0, I=100.0)
        right = make_station(O=200.0, I=50.0)
        model = calibrate_source(0.3, 0.9, left, right, sigma_plus=1.8, kappa_plus=3.7, pump=PUMP)
        for basis, target in (("x", 0.3), ("p", 0.9)):
            measured = detection.detected_variance(model, left, right, basis)
            assert abs(measured - target) / target < 1e-12

    def test_sigma_plus_alone_above_x_target_is_infeasible(self):
        left = make_station(O=200.0, I=100.0)
        right = make_station(O=200.0, I=50.0)
        floor_x = detection.slit_smearing_variance(left, right, "x")
        anti = 1.8**2 * (1.0 / left.alpha - 1.0 / right.alpha) ** 2 / 4.0
        target_x = floor_x + 0.9 * anti
        with pytest.raises(CalibrationError, match="basis x"):
            calibrate_source(target_x, 0.9, left, right, sigma_plus=1.8, kappa_plus=3.7, pump=PUMP)

    def test_irregular_p_slit_geometry_calibrates(self):
        # A geometry whose p-slit width once made the root finder's probe
        # miss the quadrature tolerance; kept as literals.
        width_x, width_p = 0.23959404775665646, 0.3201709872567525
        d1, d2 = 0.9574357597445292, 1.9311084273158168
        bob = make_station(
            O=200.0, I=99.62577827047394, f=150.0, k=330.0, x_centers=(d1, d2),
            p_centers=(d1, d2), x_width=width_x, p_width=width_p, origin=1.5,
        )
        model = calibrate_source(0.116, 0.894, bob, bob, sigma_plus=1.8, kappa_plus=3.7, pump=PUMP)
        _, alice, bob = assemble_setup(model, bob)
        for basis, target in (("x", 0.116), ("p", 0.894)):
            measured = detection.detected_variance(model, alice, bob, basis)
            assert abs(measured - target) / target < 1e-12


def test_source_imports_nothing_from_the_package():
    """source is a leaf module: the pair state and the emission kernel only."""
    tree = ast.parse(Path(source_module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            assert not (node.module or "").startswith("eprqkd"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "eprqkd" for a in node.names), ast.unparse(node)


def test_units_discipline_default_is_entangled(default_experiment):
    """Detected and latent variance products sit below the 1/4 bound."""
    source, alice, bob = default_experiment
    latent = source.sigma_minus**2 * source.kappa_minus**2
    detected = 0.116 * 0.894
    assert latent < 0.25
    assert detected < 0.25
    assert _entangled(source)


class TestEmissionKernel:
    """partner_normal and ordered_streams, shared by sessions and scans."""

    def test_partner_normal_scalar_and_array_bases_agree(self, default_experiment, rng):
        # In standard units B's normal given A's has mean rho z_A and std s,
        # so its variance rho^2 + s^2 is 1; across bases it is the noise.
        law = channel_law(default_experiment[0])
        _, rho, s = law
        z_A, noise = rng.standard_normal(2000), rng.standard_normal(2000)
        for b in (0, 1):
            assert math.isclose(rho[b] ** 2 + s[b] ** 2, 1.0, rel_tol=1e-12)
            same = partner_normal(law, z_A, b, b, noise)
            assert np.array_equal(same, rho[b] * z_A + s[b] * noise)
            assert np.array_equal(partner_normal(law, z_A, b, 1 - b, noise), noise)
        bas_A, bas_ch = (rng.integers(0, 2, size=2000, dtype=np.int8) for _ in range(2))
        mixed = partner_normal(law, z_A, bas_A, bas_ch, noise)
        for a in (0, 1):
            for c in (0, 1):
                sel = (bas_A == a) & (bas_ch == c)
                assert np.array_equal(mixed[sel], partner_normal(law, z_A[sel], a, c, noise[sel]))

    def test_results_in_job_order_when_a_later_job_finishes_first(self, monkeypatch):
        monkeypatch.setattr(source_module, "worker_threads", lambda: 2)
        first_may_finish = threading.Event()
        finished = []

        def work(job, stream):
            if job == 0:
                assert first_may_finish.wait(timeout=30)
            elif job == 1:
                first_may_finish.set()
            finished.append(job)
            return job

        results = list(ordered_streams(work, range(4), np.random.default_rng(0)))
        assert finished[:2] == [1, 0]
        assert results == [0, 1, 2, 3]

    def test_streams_are_the_spawned_children_in_order(self, monkeypatch):
        monkeypatch.setattr(source_module, "worker_threads", lambda: 3)
        rng = np.random.default_rng(11)
        drawn = list(ordered_streams(lambda job, stream: stream.random(4), range(7), rng))
        children = np.random.default_rng(11).spawn(7)
        assert len(drawn) == 7
        for got, child in zip(drawn, children):
            assert np.array_equal(got, child.random(4))
        assert rng.bit_generator.seed_seq.n_children_spawned == 7

    def test_close_after_first_result_stops_the_jobs(self, monkeypatch):
        monkeypatch.setattr(source_module, "worker_threads", lambda: 3)
        threads = threading.active_count()
        pulled, started = [], []

        def jobs():
            for job in range(100):
                pulled.append(job)
                yield job

        def work(job, stream):
            started.append(job)
            return job

        stream = ordered_streams(work, jobs(), np.random.default_rng(0))
        assert next(stream) == 0
        stream.close()
        assert pulled == [0, 1, 2]
        assert set(started) <= {0, 1, 2}
        assert threading.active_count() == threads

    def test_failing_job_raises_and_leaves_no_pool_thread(self, monkeypatch):
        monkeypatch.setattr(source_module, "worker_threads", lambda: 3)
        threads = threading.active_count()

        def work(job, stream):
            if job == 2:
                raise ValueError("job 2 failed")
            return job

        with pytest.raises(ValueError, match="job 2 failed"):
            list(ordered_streams(work, range(10), np.random.default_rng(0)))
        assert threading.active_count() == threads


def _kept_normals(rng, n, t, u, chunk=1 << 20):
    """The reference law: n standard_normal draws, the ones in [t, u] kept."""
    kept = []
    for start in range(0, n, chunk):
        drawn = rng.standard_normal(min(chunk, n - start))
        kept.append(drawn[(drawn >= t) & (drawn <= u)])
    return np.concatenate(kept)


class TestWindowNormals:
    """window_normals against plain draws kept in the window, with no mass computed."""

    @pytest.mark.parametrize(
        "t, u, n",
        [
            (-0.696, -0.478, 400_000),  # one box: the default Ax1 window
            (0.372, 0.952, 400_000),  # one box: the default Ap1 window
            (-0.3, 0.4, 400_000),  # two boxes cut at 0
            (4.0, 5.0, 10_000_000),  # far tail
            (-3.0, 3.0, 400_000),  # envelope area over 1: every normal drawn
        ],
        ids=["Ax1", "Ap1", "straddles-0", "tail", "all-drawn"],
    )
    def test_matches_kept_standard_normals(self, t, u, n):
        """Two-sample tests at fixed seeds, on the kept counts and on the binned values.

        Under equal laws each count difference a - b has variance a + b, so
        the sum of (a - b)^2 / (a + b) over three seeds is chi-square with 3
        degrees of freedom; the pooled values of both samples, binned evenly
        over [t, u], give the two-sample chi-square with bins - 1.
        """
        from scipy.stats import chi2

        seeds = (21, 22, 23)
        count_stat, fast, ref = 0.0, [], []
        for seed in seeds:
            a = np.concatenate(list(window_normals(np.random.default_rng(seed), n, t, u, 4096)))
            b = _kept_normals(np.random.default_rng(seed + 100), n, t, u)
            assert np.all((a >= t) & (a <= u))
            count_stat += (a.size - b.size) ** 2 / (a.size + b.size)
            fast.append(a)
            ref.append(b)
        assert count_stat < chi2.ppf(0.999, len(seeds)), count_stat
        edges = np.linspace(t, u, 6 if t > 3 else 11)
        a, b = (np.histogram(np.concatenate(v), edges)[0] for v in (fast, ref))
        scale = math.sqrt(b.sum() / a.sum())
        occupied = (a + b) > 0
        value_stat = np.sum(((scale * a - b / scale) ** 2 / (a + b))[occupied])
        assert value_stat < chi2.ppf(0.999, occupied.sum() - 1), value_stat

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(-6.0, 6.0),
        width=st.floats(1e-6, 8.0),
        n=st.integers(0, 5000),
        chunk=st.integers(1, 700),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_in_window_and_at_most_n(self, t, width, n, chunk, seed):
        u = t + width
        total = 0
        for values in window_normals(np.random.default_rng(seed), n, t, u, chunk):
            assert values.size <= chunk
            assert np.all((values >= t) & (values <= u))
            total += values.size
        assert total <= n
        wide = window_normals(np.random.default_rng(seed), n, -1e6, 1e6, chunk)
        assert sum(values.size for values in wide) == n
