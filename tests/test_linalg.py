import functools
import math
import warnings

import numpy as np
import pytest

from checks import reference_as_point, reference_dual_norm_sq, reference_norm_exceeds, reference_symmetrize
from newton_transforms.errors import CapabilityError, InputError
from newton_transforms.linalg import (
    DualNormResult,
    dual_norm_sq,
    eigh_solve,
    eigh_solve_batch,
    lapack_eigh,
    lapack_solve,
    min_eigenvalue,
    norm_exceeds,
    pinv_solve,
    principal_minors,
    symmetrize,
    symmetrize_batch,
)
from newton_transforms.losses import as_point, make_benchmark
from newton_transforms.newton import ConstantSchedule, run_newton
from newton_transforms.transforms import compose, make_table1


class TestPinvSolve:
    def test_identity(self):
        p = pinv_solve(np.eye(2), np.array([3.0, -1.0]))
        np.testing.assert_allclose(p, [3.0, -1.0], rtol=1e-14)

    def test_zero_block_in_range(self):
        p = pinv_solve(np.diag([2.0, 0.0]), np.array([4.0, 0.0]))
        np.testing.assert_allclose(p, [2.0, 0.0], rtol=1e-14)

    def test_out_of_range_least_squares(self):
        # independent oracle: SVD-based least squares
        H = np.diag([2.0, 0.0])
        g = np.array([4.0, 1.0])
        p = pinv_solve(H, g)
        oracle = np.linalg.lstsq(H, g, rcond=None)[0]
        np.testing.assert_allclose(p, oracle, atol=1e-14)
        np.testing.assert_allclose(p, [2.0, 0.0], atol=1e-14)
        assert np.linalg.norm(H @ p - g) == pytest.approx(1.0, rel=1e-14)

    def test_matches_direct_solve_on_invertible(self):
        rng = np.random.default_rng(42)
        for d in range(1, 7):
            for _ in range(20):
                M = rng.standard_normal((d, d))
                H = M + M.T + (d + 3) * np.eye(d)
                g = rng.standard_normal(d)
                np.testing.assert_allclose(pinv_solve(H, g), np.linalg.solve(H, g), rtol=1e-10, atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            pinv_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            pinv_solve(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))


class TestDualNormSq:
    def test_diagonal_arithmetic(self):
        res = dual_norm_sq(np.diag([1.0, 4.0]), np.array([1.0, 2.0]))
        assert res.value == pytest.approx(2.0, rel=1e-14)
        assert res.in_range

    def test_zero_gradient(self):
        res = dual_norm_sq(np.diag([1.0, 0.0]), np.zeros(2))
        assert res.value == 0.0
        assert res.in_range

    def test_cauchy_loss_point(self):
        # f(x) = ln(1+x^2) at x = 0.8: value = 2x^2/(1-x^2)
        x = 0.8
        H = np.array([[2 * (1 - x * x) / (1 + x * x) ** 2]])
        g = np.array([2 * x / (1 + x * x)])
        res = dual_norm_sq(H, g)
        assert res.value == pytest.approx(2 * x * x / (1 - x * x), abs=1e-6)
        assert res.in_range

    def test_value_is_inner_product_with_pinv_solve(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            M = rng.standard_normal((4, 4))
            H = M + M.T
            g = rng.standard_normal(4)
            res = dual_norm_sq(H, g)
            assert res.value == pytest.approx(float(g @ pinv_solve(H, g)), abs=1e-12)

    def test_nonnegative_on_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            M = rng.standard_normal((3, 3))
            H = M @ M.T
            g = rng.standard_normal(3)
            assert dual_norm_sq(H, g).value >= -1e-12

    def test_out_of_range_flagged(self):
        res = dual_norm_sq(np.diag([2.0, 0.0]), np.array([4.0, 1.0]))
        assert not res.in_range
        assert res.rank == 1

    def test_overflow_warns_nowhere(self):
        # exp(0.5 f) at f(1.5, -1) = 1056.5 puts ||g|| near 1e232, so <g, g>
        # overflows; the direction is still H^+ g.
        L = compose(make_benchmark("rosenbrock"), make_table1("exponential", a=0.5))
        _, g, H = L.evaluate([1.5, -1.0])
        res = dual_norm_sq(H, g)  # RuntimeWarnings are errors in this suite
        assert res.grad_norm == np.inf and np.all(np.isfinite(res.direction)) and res.rank == 2
        assert not res.in_range  # ||H p - g|| <= 1e-10 * inf would hold for any residual
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.linalg.pinv(symmetrize(H)) @ g
        np.testing.assert_allclose(res.direction, p, rtol=1e-8)


class TestMinEigenvalue:
    def test_diagonal(self):
        assert min_eigenvalue(np.diag([3.0, -2.0])) == pytest.approx(-2.0)

    def test_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)

    def test_two_by_two(self):
        # [[2,1],[1,2]] has eigenvalues 1 and 3
        assert min_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0, rel=1e-12)


class TestPrincipalMinors:
    def test_diag(self):
        minors = dict(principal_minors(np.diag([2.0, 5.0])))
        assert minors[(0,)] == pytest.approx(2.0)
        assert minors[(1,)] == pytest.approx(5.0)
        assert minors[(0, 1)] == pytest.approx(10.0)

    def test_identity_all_one(self):
        for _, det in principal_minors(np.eye(3)):
            assert det == pytest.approx(1.0)

    def test_two_by_two_hand(self):
        minors = dict(principal_minors(np.array([[0.0, 1.0], [1.0, 2.0]])))
        assert minors[(0,)] == pytest.approx(0.0)
        assert minors[(1,)] == pytest.approx(2.0)
        assert minors[(0, 1)] == pytest.approx(-1.0)

    def test_diagonal_products(self):
        rng = np.random.default_rng(11)
        diag = rng.standard_normal(5)
        for idx, det in principal_minors(np.diag(diag)):
            assert det == pytest.approx(np.prod(diag[list(idx)]), rel=1e-12)

    def test_capability_cap(self):
        with pytest.raises(CapabilityError):
            principal_minors(np.eye(9))

    def test_count(self):
        assert len(principal_minors(np.eye(4))) == 2**4 - 1


def test_symmetrize_accepts_roundoff():
    M = np.array([[1.0, 1.0 + 1e-12], [1.0, 2.0]])
    S = symmetrize(M)
    np.testing.assert_allclose(S, S.T)


def test_symmetrize_halves_before_adding_bit_for_bit():
    # M/2 + M^T/2 against the (M + M^T)/2 it replaced: halving is exact away
    # from the subnormal range. Entries up to 1e300 check asymmetry without a
    # warning (RuntimeWarnings are errors in this suite).
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2000, 3, 3))
    M = (A + A.transpose(0, 2, 1)) * (1.0 + 1e-12 * rng.standard_normal((2000, 3, 3)))  # roundoff asymmetry
    M *= 10.0 ** rng.uniform(-300.0, 300.0, (2000, 1, 1))
    old = 0.5 * (M + M.transpose(0, 2, 1))
    assert all(symmetrize(m).tobytes() == o.tobytes() for m, o in zip(M, old))
    assert symmetrize_batch(M).tobytes() == old.tobytes()


def test_symmetrize_keeps_entries_near_the_float_maximum():
    # (M + M^T)/2 overflowed here, and dual_norm_sq then saw an infinite
    # matrix. The eigenvalue 1 falls below the 1e-10 relative cutoff, so the
    # direction is the rank-1 pseudoinverse's.
    M = np.array([[1e308, 0.0], [0.0, 1.0]])
    assert symmetrize(M).tobytes() == M.tobytes()  # RuntimeWarnings are errors in this suite
    res = dual_norm_sq(M, np.array([1.0, 1.0]))
    assert res.rank == 1 and res.direction.tolist() == [1e-308, 0.0] and not res.in_range


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300, 1.7e308])
def test_symmetrize_rejects_asymmetry_whose_squares_overflow(scale):
    # ||M|| and ||M - M^T|| both overflowed here, and inf > 1e-8 * inf let
    # any matrix through; the check now runs on M / max|M|
    M = scale * np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InputError, match="asymmetry"):
        symmetrize(M)
    with pytest.raises(InputError, match="asymmetry"):
        symmetrize_batch(np.stack([np.eye(2), M]))
    S = scale * np.array([[1.0, 0.5], [0.5 * (1.0 + 1e-12), 1.0]])  # roundoff asymmetry passes
    assert symmetrize(S).tobytes() == (0.5 * S + 0.5 * S.T).tobytes()
    assert symmetrize_batch(np.stack([np.eye(2), S]))[1].tobytes() == symmetrize(S).tobytes()


def _solve_cases(d):
    """(H, g) pairs of dimension d: random symmetric and indefinite matrices,
    ranks d - 1 and d - 2, the zero matrix, g = 0, roundoff asymmetry, entries
    near 1e150 (the scaled asymmetry check), the overflowing gradient of
    test_overflow_warns_nowhere, and inputs the solve rejects: NaN or inf
    entries, shape mismatches and asymmetry, also at entries near 1e300."""
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    sym = A + A.T
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    w = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
    g = rng.standard_normal(d)
    noise = 1.0 + 1e-12 * rng.standard_normal((d, d))
    cases = [(sym, g), (sym @ sym, g), (np.diag(w), g), (np.zeros((d, d)), g), (sym, np.zeros(d)),
             (np.zeros((d, d)), np.zeros(d)), (sym * noise, g), (3e150 * sym, g), (3e150 * sym * noise, g),
             (sym, np.full(d, np.nan)), (np.full((d, d), np.inf), g), (np.where(np.eye(d) > 0, np.nan, sym), g),
             (sym, g[:-1]), (sym[:, :-1], g)]
    for rank in (d - 1, d - 2):
        if rank >= 0:
            cases.append(((Q * np.where(np.arange(d) < rank, w, 0.0)) @ Q.T, g))
    if d >= 2:
        skew = np.triu(np.ones((d, d)), 1)
        cases += [(sym + 1e-3 * skew, g), (3e150 * (sym + 1e-3 * skew), g), (1e300 * (sym + 1e-3 * skew), g)]
    if d == 2:
        L = compose(make_benchmark("rosenbrock"), make_table1("exponential", a=0.5))
        _, gL, HL = L.evaluate([1.5, -1.0])
        cases.append((HL, gL))
    return cases


def _outcome(fn, *args):
    """fn's result as bytes and flags, or the message of the InputError it raises."""
    try:
        out = fn(*args)
    except InputError as exc:
        return "InputError", str(exc)
    if isinstance(out, DualNormResult):
        return (np.float64(out.value).tobytes(), type(out.value), out.in_range, type(out.in_range), out.rank,
                out.direction.tobytes(), np.float64(out.grad_norm).tobytes())
    if isinstance(out, np.ndarray):
        return out.shape, out.dtype, out.tobytes()
    return out, type(out)


@pytest.mark.parametrize("d", range(1, 11))
def test_split_solve_and_checks_match_the_reference_bit_for_bit(d):
    """dual_norm_sq (validation, then eigh_solve), symmetrize, norm_exceeds
    and as_point against their first-written forms in checks.py; symmetrize
    of a square matrix also against symmetrize_batch of the one-matrix stack."""
    for H, g in _solve_cases(d):
        assert _outcome(symmetrize, H) == _outcome(reference_symmetrize, H)
        if H.shape[0] == H.shape[1]:
            assert _outcome(symmetrize, H) == _outcome(lambda M: symmetrize_batch(M[None])[0], H)
        assert _outcome(dual_norm_sq, H, g) == _outcome(reference_dual_norm_sq, H, g)
    x = np.random.default_rng(d).standard_normal(d)
    big = 1e160 * x
    for v in [x, 1e-300 * x, big, 1e308 * (x / abs(x).max()), np.where(np.arange(d) == 0, np.nan, x),
              np.where(np.arange(d) == d - 1, -np.inf, x)]:
        for bound in (1e-10, 1.0, 1e6, 1e200):
            with np.errstate(over="ignore"):  # the reference's <v, v> overflows at v = 1e160 x
                want = _outcome(reference_norm_exceeds, v, bound)
            if v is big and bound == 1e200:  # the reference reads inf > 1e200, but ||v|| = 1e160 ||x||
                want = (False, bool)
            assert _outcome(norm_exceeds, v, bound) == want
    for p in [x, list(x), tuple(x), x.astype(np.float32), np.arange(d), [x], x[:-1], np.where(x > 0, np.nan, x)]:
        for dim in (None, d):
            assert _outcome(as_point, p, dim) == _outcome(reference_as_point, p, dim)
    for p in [0.5, np.float64(-2.0), np.array(3.0), 7, np.nan, [0.5], [[0.5]]]:
        assert _outcome(as_point, p, 1) == _outcome(reference_as_point, p, 1)


@pytest.mark.parametrize("bound", [1e155, 1e200, 1e300, 1.79e308])
def test_norm_exceeds_does_not_square_rows_below_a_large_bound(bound):
    # <x, x> overflowed for max|x| above about 1e154, and inf > bound held for
    # any bound: a norm of 1.4e160 exceeded 1e200. At the largest bound the last
    # row's entries are below it, and its rescaled norm overflows to inf, which
    # exceeds it without a warning.
    x = np.array([1e160, 1e160])
    X = np.stack([x, 1e-10 * x, [2.0 * bound, 0.0], [np.nan, 1.0], [0.9 * bound, 0.0], [1.5e308, 1.5e308]])
    want = [math.hypot(*row) > bound or np.isnan(row).any() for row in X]
    with np.errstate(over="raise"):
        assert [norm_exceeds(row, bound) for row in X] == want
        assert norm_exceeds(X, bound).tolist() == want
    assert want[0] == (bound < 1.5e160) and want[2] and want[3] and not want[4]


def _lapack_matrices(d):
    """Symmetric d x d test matrices: random, indefinite, ranks d - 1 and d - 2,
    zero, and entries near 1e150 and 1e-300."""
    rng = np.random.default_rng(100 + d)
    A = rng.standard_normal((d, d))
    sym = A + A.T
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    w = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
    mats = [sym, (Q * w) @ Q.T, np.zeros((d, d)), 1e150 * sym, 1e-300 * sym]
    mats += [(Q * np.where(np.arange(d) < rank, w, 0.0)) @ Q.T for rank in (d - 1, d - 2) if rank >= 0]
    return [0.5 * M + 0.5 * M.T for M in mats]


@pytest.mark.parametrize("d", range(1, 11))
def test_lapack_kernels_match_numpy_linalg_bit_for_bit(d):
    """The private NumPy gufuncs that lapack_eigh and lapack_solve bind give
    np.linalg.eigh and np.linalg.solve byte for byte, one matrix or a stack.
    A NumPy upgrade that changes them fails here first."""
    mats = _lapack_matrices(d)
    b = np.random.default_rng(d).standard_normal(d)
    stack = np.stack(mats)
    for S, (w, V) in zip([*mats, stack], [np.linalg.eigh(M) for M in [*mats, stack]]):
        got_w, got_V = lapack_eigh(S)
        assert (got_w.tobytes(), got_V.tobytes()) == (w.tobytes(), V.tobytes())
    with np.errstate(invalid="ignore"):  # a singular matrix gives NaN where np.linalg.solve raises
        stacked = lapack_solve(stack, b)
        for M, row in zip(mats, stacked):
            try:
                want = np.linalg.solve(M, b)
            except np.linalg.LinAlgError:
                assert np.isnan(lapack_solve(M, b)).all() and np.isnan(row).all()
                continue
            assert lapack_solve(M, b).tobytes() == want.tobytes() == row.tobytes()
    assert np.isnan(stacked[2]).all()  # the zero matrix


def _assert_rows_solve_as_eigh_solve(S, G):
    P = eigh_solve_batch(S, G)
    for i, (S_i, g_i) in enumerate(zip(S, G)):
        assert P[i].tobytes() == eigh_solve(S_i, g_i)[3].tobytes(), i


@pytest.mark.parametrize("d", range(1, 11))
def test_stacked_solve_matches_eigh_solve_bit_for_bit(d):
    """Every row of eigh_solve_batch on symmetrize_batch equals eigh_solve on
    symmetrize: on a full-rank stack (every eigenvalue kept) and on one that
    mixes full-rank, rank-deficient and zero matrices (the masked path)."""
    rng = np.random.default_rng(200 + d)
    mats = _lapack_matrices(d)
    g = rng.standard_normal((len(mats), d))
    g[1] = 0.0
    full = [i for i, M in enumerate(mats) if eigh_solve(symmetrize(M), g[i])[2] == d]
    assert full and len(full) < len(mats)
    for rows in (full, range(len(mats))):
        H = np.stack([mats[i] for i in rows])
        assert symmetrize_batch(H).tobytes() == np.stack([symmetrize(M) for M in H]).tobytes()
        _assert_rows_solve_as_eigh_solve(symmetrize_batch(H), g[list(rows)])
    nan = np.stack([mats[0], np.full((d, d), np.nan)])
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        eigh_solve_batch(nan, g[:2])
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        eigh_solve(nan[1], g[1])


def test_one_dimensional_stacked_solve_matches_eigh_solve_bit_for_bit():
    """The d = 1 solve without LAPACK on signed zeros, subnormals, the float
    maximum and infinities, against LAPACK's eigh in eigh_solve."""
    hs = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 2.0, -3.0, 1e308, -1e308, np.inf, -np.inf]
    gs = [0.0, -0.0, 1.5, -2.5e-300, 1e308]
    S = np.array([[[h]] for h in hs for _ in gs])
    G = np.array([[v] for _ in hs for v in gs])
    with np.errstate(over="ignore", invalid="ignore"):  # 1/h overflows for subnormal h, inf * 0 is NaN
        _assert_rows_solve_as_eigh_solve(S, G)
        finite = np.isfinite(S[:, 0, 0])
        _assert_rows_solve_as_eigh_solve(symmetrize_batch(S[finite]), G[finite])
    assert eigh_solve_batch(S[:10], G[:10]).tobytes() == np.zeros((10, 1)).tobytes()  # h = +-0.0 gives +0.0
    with pytest.raises(np.linalg.LinAlgError):
        eigh_solve_batch(np.array([[[2.0]], [[np.nan]]]), np.ones((2, 1)))


def test_lapack_failure_raises_linalgerror_like_numpy(monkeypatch):
    """Where LAPACK does not converge the gufunc fills NaN and raises the
    invalid flag; np.linalg.eigh turns that into LinAlgError, and so do the
    solves that call the gufunc directly, with no RuntimeWarning."""
    from numpy.linalg import _umath_linalg

    import newton_transforms.linalg as linalg_module

    def failed(S, signature=None):  # NaN through 0/0: the invalid flag, as LAPACK's failure sets it
        assert signature == "d->dd"
        return np.zeros(S.shape[:-1]) / 0.0, np.zeros(S.shape) / 0.0

    monkeypatch.setattr(_umath_linalg, "eigh_lo", failed)  # np.linalg.eigh looks it up on each call
    monkeypatch.setattr(linalg_module, "lapack_eigh", functools.partial(failed, signature="d->dd"))  # bound at import
    S, g = np.diag([2.0, 1.0]), np.array([1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError) as numpy_error:
        np.linalg.eigh(S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: dual_norm_sq(S, g), lambda: pinv_solve(S, g),
                     lambda: run_newton(make_benchmark("rosenbrock"), ConstantSchedule(1.0), [0.5, 0.5])):
            with pytest.raises(np.linalg.LinAlgError) as error:
                call()
            assert str(error.value) == str(numpy_error.value)
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match=str(numpy_error.value)):
            eigh_solve_batch(np.stack([S, S]), np.stack([g, g]))
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match=str(numpy_error.value)):
            eigh_solve(S, g)
