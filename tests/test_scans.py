import hashlib

import numpy as np
import pytest

from checks import reference_write_csv
from newton_transforms.errors import InputError
from newton_transforms.linalg import dual_norm_sq
from newton_transforms.losses import (
    as_1d_loss,
    make_benchmark,
    make_polynorm,
    make_polytope_instance,
    make_radial,
)
from newton_transforms import scans
from newton_transforms.newton import DIVERGED, ConstantSchedule, NewtonConfig, run_newton
from newton_transforms.scans import (
    GridScan,
    best_fixed_stepsize,
    grid_axes,
    scan_convergence,
    scan_sign_flip,
)
from newton_transforms.starconvex import radial_star_loss
from newton_transforms.transforms import compose, exponential, linear, make_table1, scaling_factor


class TestSignFlip:
    def test_linear_all_positive(self):
        loss = make_benchmark("rosenbrock")
        scan = scan_sign_flip(loss, linear(2.0), (-2, 2, 12), (-2, 2, 12))
        valid = ~scan.error
        assert np.all(scan.scaling_sign[valid] == 1)
        assert scan.cross_check_mismatches == 0

    def test_polynomial_small_r_has_negative_region(self):
        loss = make_benchmark("beale")
        scan = scan_sign_flip(loss, make_table1("polynomial", r=0.25), (-4, 4, 50), (-4, 4, 50))
        assert np.sum(scan.scaling_sign == -1) > 0
        assert scan.cross_check_mismatches == 0

    def test_logarithmic_negative_cells_match_inequality(self):
        # factor < 0 exactly where dual_sq > a + f
        from newton_transforms.linalg import dual_norm_sq

        loss = make_benchmark("beale")
        a = 1.0
        scan = scan_sign_flip(loss, make_table1("logarithmic", a=a), (-4, 4, 30), (-4, 4, 30))
        xs, ys = grid_axes((-4, 4, 30), (-4, 4, 30))
        neg = 0
        for ix, x in enumerate(xs):
            for iy, y in enumerate(ys):
                if scan.error[ix, iy]:
                    continue
                f, g, H = loss.evaluate([x, y])
                q = dual_norm_sq(H, g).value
                expected = -1 if q > a + f else 1
                if abs(1 - q / (a + f)) <= 1e-12:
                    continue
                assert scan.scaling_sign[ix, iy] == expected
                neg += expected == -1
        assert neg > 0

    def test_deterministic_csv(self, tmp_path):
        loss = make_benchmark("beale")
        t = make_table1("polynomial", r=0.5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        scan_sign_flip(loss, t, (-3, 3, 20), (-3, 3, 20), seed=5).write_csv(p1)
        scan_sign_flip(loss, t, (-3, 3, 20), (-3, 3, 20), seed=5).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestScanConvergence:
    def test_quadratic_all_converge_in_one(self):
        loss = make_polynorm(np.eye(2), 2)
        scan = scan_convergence(loss, None, (-3, 3, 9), (-3, 3, 9))
        assert np.all(scan.converged)
        assert np.all(scan.iterations <= 1)

    def test_cauchy_1d_grid_sets(self):
        loss = as_1d_loss(make_radial("cauchy"))
        scan = scan_convergence(loss, None, (-3, 3, 121), cfg=NewtonConfig(max_iters=60))
        basin = 1 / np.sqrt(3)
        for x, conv in zip(scan.xs, scan.converged[:, 0]):
            if abs(x) < basin - 1e-2:
                assert conv, x
            if abs(x) > basin + 1e-2:
                assert not conv, x

    def test_transformed_cauchy_strictly_enlarges_basin(self):
        base = as_1d_loss(make_radial("cauchy"))
        star_loss, _ = radial_star_loss(make_radial("cauchy"))
        cfg = NewtonConfig(max_iters=60)
        plain = scan_convergence(base, None, (-0.81, 0.81, 41), cfg=cfg)
        star = scan_convergence(star_loss, None, (-0.81, 0.81, 41), cfg=cfg)
        assert np.all(star.converged)
        assert np.sum(plain.converged) < np.sum(star.converged)

    def test_beale_polynomial_r_changes_converged_counts(self):
        loss = make_benchmark("beale")
        counts = []
        for r in [0.5, 1.0, 2.0]:
            scan = scan_convergence(loss, make_table1("polynomial", r=r), (-4, 4, 16), (-4, 4, 16),
                                    cfg=NewtonConfig(max_iters=40))
            counts.append(int(np.sum(scan.converged)))
        assert len(set(counts)) > 1


class TestBestFixedStepsize:
    def test_quadratic_picks_unit(self):
        loss = make_polynorm(np.diag([2.0, 1.0]), 2)
        res = best_fixed_stepsize(loss, [1.0, -2.0], np.arange(0.2, 1.80001, 0.1))
        assert res.best_alpha == pytest.approx(1.0)
        assert res.best_iterations == 1

    def test_polynorm_cubic_picks_p_minus_one(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((3, 3))
        loss = make_polynorm(M @ M.T + 3 * np.eye(3), 3)
        res = best_fixed_stepsize(loss, rng.standard_normal(3), np.arange(0.1, 3.00001, 0.05))
        assert res.best_alpha == pytest.approx(2.0)
        assert res.best_iterations == 1

    def test_polytope_instance_bands_and_monotonicity(self):
        alphas = np.round(np.arange(0.1, 4.50001, 0.05), 10)
        stars = []
        for p in [2, 3, 4, 5]:
            loss, x0 = make_polytope_instance(p, seed=1)
            res = best_fixed_stepsize(loss, x0, alphas)
            stars.append(res.best_alpha)
            assert p - 1 - 0.15 <= res.best_alpha <= p - 1 + 0.1
        assert all(a <= b for a, b in zip(stars, stars[1:]))

    def test_empty_alphas(self):
        with pytest.raises(InputError):
            best_fixed_stepsize(make_polynorm(np.eye(2), 2), [1.0, 1.0], [])


@pytest.mark.filterwarnings("error")
class TestTransformOverflow:
    """exp(0.02 f) overflows on Goldstein-Price values above about 35,500, so
    phi(f) and its derivatives are inf or NaN over much of [-4, 4]^2."""

    def test_run_ends_diverged_without_warning(self):
        loss = compose(make_benchmark("goldstein_price"), exponential(0.02))
        tr = run_newton(loss, ConstantSchedule(0.5), [-1.2, 1.0], NewtonConfig(max_iters=12))
        assert (tr.termination, tr.iterations) == (DIVERGED, 0)

    def test_convergence_scan_without_warning(self, tmp_path):
        scan = scan_convergence(make_benchmark("goldstein_price"), exponential(0.02), (-4, 4, 10), (-4, 4, 10))
        scan.write_csv(tmp_path / "conv.csv")
        # recorded while the scan still emitted its overflow warnings
        assert hashlib.sha256((tmp_path / "conv.csv").read_bytes()).hexdigest() == (
            "8ca4d468c5219e81f26217ed6368e83d1887f264d532d05ed3bccc100dfb39ec")

    @pytest.mark.parametrize("seed", range(4))
    def test_sign_flip_cross_check_skips_overflowing_cells(self, seed):
        shift = 0.1 * (seed + 1) / 21  # below one cell width, 8/29
        grid = (-4 + shift, 4 + shift, 30)
        scan = scan_sign_flip(make_benchmark("goldstein_price"), exponential(0.02), grid, grid, seed=seed)
        assert scan.cross_check_mismatches == 0
        assert 0 < scan.cross_check_cells < 0.03 * scan.error.size

    def test_sign_flip_counts_only_finite_cross_check_cells(self, monkeypatch):
        monkeypatch.setattr(scans, "CROSS_CHECK_FRACTION", 1.0)
        loss, t = make_benchmark("goldstein_price"), exponential(0.02)
        grid = (-4.0, 4.0, 12)
        scan = scan_sign_flip(loss, t, grid, grid)
        finite = 0
        for x in np.linspace(*grid):
            for y in np.linspace(*grid):
                f, g, H = loss.evaluate([x, y])
                if abs(scaling_factor(t, f, dual_norm_sq(H, g).value)) > 1e-6:
                    with np.errstate(over="ignore", invalid="ignore"):
                        _, gL, HL = compose(loss, t).evaluate([x, y])
                    finite += bool(np.all(np.isfinite(gL)) and np.all(np.isfinite(HL)))
        assert 0 < scan.cross_check_cells == finite < scan.error.size
        assert scan.cross_check_mismatches == 0


class TestCsvWriter:
    """GridScan.write_csv is byte-identical to the per-cell writer it replaced."""

    @staticmethod
    def assert_same_bytes(scan, tmp_path):
        scan.write_csv(tmp_path / "new.csv")
        reference_write_csv(scan, tmp_path / "reference.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_sign_grids(self, tmp_path):
        beale = make_benchmark("beale")
        scan = scan_sign_flip(beale, make_table1("polynomial", r=0.5), (-3, 3, 20), (-3, 3, 20))
        assert set(scan.scaling_sign.ravel().tolist()) == {-1, 1}
        self.assert_same_bytes(scan, tmp_path)
        # log(1 + f - 5) is undefined where Beale is below 4: error cells with NaN values
        scan = scan_sign_flip(compose(beale, make_table1("linear", a=1.0, b=-5.0)), make_table1("logarithmic", a=1.0),
                              (-3.87, 4.13, 7), (-4.21, 3.79, 7))
        assert scan.error.any() and np.isnan(scan.final_value).any()
        self.assert_same_bytes(scan, tmp_path)

    def test_convergence_grid(self, tmp_path):
        scan = scan_convergence(make_benchmark("goldstein_price"), exponential(0.02), (-4, 4, 10), (-4, 4, 10))
        assert scan.converged.any() and np.isnan(scan.final_value).any()
        self.assert_same_bytes(scan, tmp_path)

    def test_1d_grids(self, tmp_path):
        loss = as_1d_loss(make_radial("cauchy"))
        self.assert_same_bytes(scan_convergence(loss, None, (-3, 3, 121), cfg=NewtonConfig(max_iters=60)), tmp_path)
        self.assert_same_bytes(scan_sign_flip(loss, make_table1("polynomial", r=0.5), (-3, 3, 41)), tmp_path)

    @pytest.mark.parametrize("kind", ["sign", "convergence"])
    def test_negative_zero_nodes_and_non_finite_values(self, kind, tmp_path):
        xs, ys = np.array([-0.0, 0.0, -1e-300, 1.0 / 3.0]), np.array([-0.0, 2.5e300, -7.0])
        shape = (4, 3)
        scan = GridScan(kind=kind, xs=xs, ys=ys,
                        scaling_sign=np.array([-1, 0, 1] * 4, dtype=np.int8).reshape(shape),
                        converged=(np.arange(12) % 2 == 0).reshape(shape),
                        iterations=np.arange(12, dtype=np.int32).reshape(shape),
                        final_value=np.array([np.nan, -0.0, np.inf, -np.inf, 1e-320, 0.1] * 2).reshape(shape),
                        error=(np.arange(12) % 3 == 0).reshape(shape))
        self.assert_same_bytes(scan, tmp_path)
        self.assert_same_bytes(GridScan(kind, xs, None, *(a[:, :1] for a in (scan.scaling_sign, scan.converged,
                                        scan.iterations, scan.final_value, scan.error))), tmp_path)
