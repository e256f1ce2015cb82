import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eprqkd import detection
from eprqkd import source as source_module
from eprqkd.defaults import assemble_setup
from eprqkd.detection import CalibrationError, calibrate_source
from eprqkd.source import (
    PairKernel,
    PumpProfile,
    SourceModel,
    UnphysicalSourceError,
    build_source,
    channel_law,
    sample_pairs,
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


_RHO = 0.935
_S = math.sqrt(1.0 - _RHO**2)


def _kept_cells(rng, cells, n, chunk=1 << 20):
    """The reference law: n pairs of standard normals (z, w), each tallied in the cell it lands in.

    A pair lands in a cell when z is in its A window and rho z + s w in its
    channel window, and is then kept with probability the cell's weight.
    """
    counts = np.zeros(len(cells), dtype=np.int64)
    for start in range(0, n, chunk):
        z, w = rng.standard_normal((2, min(chunk, n - start)))
        for k, ((a0, a1), (c0, c1), rho, s, weight) in enumerate(cells):
            y = rho * z + s * w
            inside = (z >= a0) & (z <= a1) & (y >= c0) & (y <= c1)
            counts[k] += np.count_nonzero(rng.random(np.count_nonzero(inside)) < weight)
    return counts


def _kernel_cells(rng, cells, n, groups=None, chunk=1 << 16):
    """The same tally from PairKernel: binomial(n, total) proposals, the kept ones by cell."""
    kernel = PairKernel(cells, groups)
    assert kernel.total <= 1.0
    proposals = int(rng.binomial(n, kernel.total))
    counts = np.zeros(len(cells), dtype=np.int64)
    for start in range(0, proposals, chunk):
        _, cell = kernel.kept(rng, min(chunk, proposals - start))
        counts += np.bincount(cell, minlength=len(cells))
    return counts


_CELL_SETS = {
    # The default Ax1 window against the partner slit, same basis.
    "same-basis": [((-0.696, -0.478), (-0.656, -0.437), _RHO, _S, 1.0)],
    # A negative correlation and a weight: the momentum basis.
    "negative-rho": [((0.372, 0.952), (-0.870, -0.290), -0.904, math.sqrt(1 - 0.904**2), 0.44)],
    # Across bases the channel reads w alone; its window straddles 0.
    "cross-basis": [((0.372, 0.952), (-0.3, 0.4), 0.0, 1.0, 0.5)],
    # One window cut in five: the law inside a window, not only its mass.
    "cut-window": [((t, t + 0.14), (-0.2, 0.9), _RHO, _S, 1.0) for t in np.arange(-0.3, 0.4, 0.14)],
    # Far in A's tail.
    "tail": [((3.0, 4.0), (2.0, 4.5), _RHO, _S, 1.0)],
    # Boxes whose total is over 1: the density is its own envelope.
    "full": [
        ((0.05, 3.0), (0.05, 3.0), 0.0, 1.0, 1.0),
        ((-3.0, -0.05), (-3.0, 0.0), 0.5, math.sqrt(0.75), 1.0),
    ],
    # The same in two groups (_GROUPS) whose cells share pairs, with weights.
    "full-groups": [
        ((-3.0, -0.05), (-3.0, 3.0), _RHO, _S, 0.5),
        ((0.05, 3.0), (-3.0, 3.0), _RHO, _S, 0.3),
        ((-1.0, 1.0), (-1.0, 1.0), 0.0, 1.0, 0.5),
    ],
    # s = 0: the channel copies rho z and w is not read.
    "no-noise": [
        ((-0.4, 0.3), (-0.2, 0.2), 1.0, 0.0, 1.0), ((0.5, 0.9), (-0.9, -0.6), -1.0, 0.0, 0.5)
    ],
}


_GROUPS = {"full-groups": ["a", "a", "b"]}


class TestPairKernel:
    """PairKernel against pairs drawn in full and tallied by cell, with no mass computed."""

    @pytest.mark.parametrize("name", list(_CELL_SETS))
    def test_matches_tallied_pairs(self, name):
        """Two-sample chi-square on the cell counts over three seeds.

        Under equal laws each count difference a - b has variance a + b, so
        the sum of (a - b)^2 / (a + b) over the occupied cells is chi-square
        with one degree of freedom per cell.
        """
        from scipy.stats import chi2

        cells = _CELL_SETS[name]
        n = 4_000_000 if name == "tail" else 400_000
        stat, dof = 0.0, 0
        for seed in (21, 22, 23):
            a = _kernel_cells(np.random.default_rng(seed), cells, n, _GROUPS.get(name))
            b = _kept_cells(np.random.default_rng(seed + 100), cells, n)
            occupied = (a + b) > 0
            stat += float(np.sum((a - b)[occupied] ** 2 / (a + b)[occupied]))
            dof += int(occupied.sum())
        assert dof > 0 and stat < chi2.ppf(0.999, dof), (stat, dof)

    def test_full_density_only_when_the_boxes_total_1(self):
        one = PairKernel(_CELL_SETS["same-basis"])
        assert one._full is None and len(one._cdf) == 1 and 0.0 < one.total < 0.05
        full = PairKernel(_CELL_SETS["full"])
        assert full._full is not None and full.total == 1.0
        groups = PairKernel(_CELL_SETS["full-groups"], _GROUPS["full-groups"])
        assert groups.total == 1.0 and groups._cdf.tolist() == [0.5, 1.0]

    def test_groups_whose_weights_total_over_1_are_refused(self):
        cells = _CELL_SETS["full-groups"]
        with pytest.raises(ValueError, match="largest weights total 1.5 > 1"):
            PairKernel(cells + [((-1.0, 1.0), (-1.0, 1.0), 0.0, 1.0, 0.5)], [0, 0, 1, 2])

    def test_dark_cells_propose_nothing(self):
        kernel = PairKernel([((50.0, 51.0), (-1.0, 1.0), 0.0, 1.0, 1.0)])
        assert kernel.total == 0.0
        index, cell = kernel.kept(np.random.default_rng(0), 0)
        assert index.size == cell.size == 0

    @pytest.mark.parametrize("k", [0, 1, 4097])
    def test_a_window_holding_every_pair_keeps_every_proposal(self, k):
        kernel = PairKernel([((-1e6, 1e6), (-1e6, 1e6), _RHO, _S, 1.0)])
        index, cell = kernel.kept(np.random.default_rng(k), k)
        assert kernel.total == 1.0 and index.tolist() == list(range(k)) and not cell.any()

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-9, 1.0), min_size=2, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_guide_table_picks_the_searchsorted_box(self, weights, seed):
        # Boxes whose areas are in the ratio of the weights: the guide
        # table's pick is the first box whose cdf exceeds u, also at each
        # cdf value itself and one double either side of it.
        cell = ((0.0, 1.0), (0.0, 1.0), 0.0, 1.0)
        kernel = PairKernel([(*cell, w / len(weights)) for w in weights])
        assert kernel._full is None and kernel._cdf.size == len(weights)
        cdf = kernel._cdf
        u = np.concatenate([
            np.random.default_rng(seed).random(2000), cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)
        ])
        u = u[u < 1.0]
        assert kernel._choose(u).tolist() == np.searchsorted(cdf, u, side="right").tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(-6.0, 6.0),
        width=st.floats(1e-6, 4.0),
        c=st.floats(-6.0, 6.0),
        rho=st.floats(-1.0, 1.0),
        weight=st.floats(0.0, 0.5),
        k=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kept_proposals_are_ordered_cells(self, t, width, c, rho, weight, k, seed):
        cells = [((t, t + width), (c, c + width), rho, math.sqrt(1.0 - rho * rho), weight),
                 ((t, t + width), (c - 2 * width, c - width), 0.0, 1.0, weight)]
        kernel = PairKernel(cells, groups=[0, 1])  # the two may share a pair
        assert 0.0 <= kernel.total <= 1.0
        k = k if kernel.total > 0.0 else 0  # an empty envelope has no proposals
        index, cell = kernel.kept(np.random.default_rng(seed), k)
        assert np.all(np.diff(index) > 0) and np.all((index >= 0) & (index < k))
        assert cell.dtype == np.int8 and cell.size == index.size and set(cell) <= {0, 1}
        wide = PairKernel([((-1e6, 1e6), (-1e6, 1e6), rho, math.sqrt(1.0 - rho * rho), 1.0)])
        assert wide.kept(np.random.default_rng(seed), k)[0].size == k  # exactly k on [-1e6, 1e6]


def _zw_box_area(cell):
    """The area of a cell's box in (z, w), the envelope the kernel drew under before (z, y).

    w ran over the channel window pulled back through rho z + s w, the
    height was the density at the box's point nearest 0, and an s = 0 cell
    had a box in z alone.
    """
    (a0, a1), (c0, c1), rho, s, weight = cell
    if s:
        w0 = (c0 - max(rho * a0, rho * a1)) / s
        w1 = (c1 - min(rho * a0, rho * a1)) / s
    else:
        w0 = w1 = 0.0
    near_a, near_w = min(max(0.0, a0), a1), min(max(0.0, w0), w1)
    side_w = w1 - w0 if s else math.sqrt(2.0 * math.pi)
    return weight * (a1 - a0) * side_w * math.exp(-0.5 * (near_a**2 + near_w**2)) / (2.0 * math.pi)


def _cell_q(z, y, rho, s):
    """-2 log of the density of (z, y = rho z + s w), less its log normalizer: z^2 + r^2."""
    if not s:
        return z * z
    r = (y - rho * z) / s
    return z * z + r * r


def _cell_density(z, y, rho, s):
    """The density of (z, y) for standard normals z, w; of z alone when s = 0."""
    norm = math.sqrt(2.0 * math.pi) if not s else 2.0 * math.pi * s
    return np.exp(-0.5 * _cell_q(z, y, rho, s)) / norm


def _edge_minimum(f, lo, hi, points=201, rounds=14):
    """The least f on [lo, hi] by a grid zoomed about its best point: f is convex there."""
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        best = int(np.argmin(f(grid)))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, points - 1)]
    return float(np.min(f(np.linspace(lo, hi, points))))


_window = st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)).map(sorted).map(tuple)


class TestBox:
    """_box: the cell's windows in (z, y), as tall as the density's largest value there."""

    @settings(max_examples=300, deadline=None)
    @given(
        window_A=_window,
        window_ch=_window,
        rho=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
        weight=st.floats(1e-3, 1.0),  # far smaller weights underflow the area
        seed=st.integers(0, 2**32 - 1),
    )
    def test_height_bounds_the_density_and_is_its_maximum(self, window_A, window_ch, rho, weight, seed):
        s = math.sqrt(1.0 - rho * rho)
        (a0, a1), (c0, c1) = window_A, window_ch
        area, height, _ = source_module._box((window_A, window_ch, rho, s, weight))
        # Inside the box: random points and the corners (z alone when s = 0).
        u, v = np.random.default_rng(seed).random((2, 200))
        z = np.concatenate([a0 + (a1 - a0) * u, [a0, a0, a1, a1]])
        y = np.concatenate([c0 + (c1 - c0) * v, [c0, c1, c0, c1]])
        assert np.all(_cell_density(z, y, rho, s) <= height * (1.0 + 1e-12))
        # The largest density over the box's edges, and at 0 if the box holds
        # it, by a grid search on its convex exponent z^2 + r^2.
        if s:
            exponents = [
                _edge_minimum(lambda t: _cell_q(a0 + 0.0 * t, t, rho, s), c0, c1),
                _edge_minimum(lambda t: _cell_q(a1 + 0.0 * t, t, rho, s), c0, c1),
                _edge_minimum(lambda t: _cell_q(t, c0 + 0.0 * t, rho, s), a0, a1),
                _edge_minimum(lambda t: _cell_q(t, c1 + 0.0 * t, rho, s), a0, a1),
            ]
            if a0 <= 0.0 <= a1 and c0 <= 0.0 <= c1:
                exponents.append(0.0)
        else:
            exponents = [_edge_minimum(lambda t: _cell_q(t, 0.0, rho, s), a0, a1)]
        brute = _cell_density(0.0, 0.0, 0.0, s) * math.exp(-0.5 * min(exponents))
        assert height == pytest.approx(brute, rel=1e-12, abs=1e-290)
        size = (a1 - a0) * ((c1 - c0) if s else 1.0)
        assert area == pytest.approx(weight * size * height, rel=1e-12, abs=1e-290)
        assert area <= _zw_box_area((window_A, window_ch, rho, s, weight)) * (1.0 + 1e-12)
