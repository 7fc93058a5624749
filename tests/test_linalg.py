import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from gadmm import linalg
from gadmm.errors import InternalCheckError, NotPositiveDefiniteError

from conftest import random_spd


def jacobi_eigenvalues(S, sweeps=100, tol=1e-14):
    """Brute-force symmetric eigensolver by Jacobi rotations; the oracle
    for the power-method spectral norm, independent of numpy's eig."""
    A = np.array(S, dtype=float, copy=True)
    n = A.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                off = max(off, abs(A[i, j]))
        if off < tol * max(1.0, np.max(np.abs(np.diag(A)))):
            break
        for i in range(n):
            for j in range(i + 1, n):
                if A[i, j] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[i, j], A[i, i] - A[j, j])
                c, s = np.cos(theta), np.sin(theta)
                R = np.eye(n)
                R[i, i] = c
                R[j, j] = c
                R[i, j] = -s
                R[j, i] = s
                A = R.T @ A @ R
    return np.sort(np.diag(A))


class TestSeminorm:
    def test_identity(self):
        assert linalg.seminorm_sq(np.eye(2), [3.0, 4.0]) == pytest.approx(25.0)

    def test_zero_vector(self):
        Q = random_spd(np.random.default_rng(0), 4)
        assert linalg.seminorm_sq(Q, np.zeros(4)) == 0.0

    def test_block_diagonal_metric(self):
        # the metric of the scalar instance with alpha = beta = 1, H = 0
        Q = np.diag([0.0, 1.0, 1.0])
        assert linalg.seminorm_sq(Q, [5.0, 2.0, 3.0]) == pytest.approx(13.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.seminorm_sq(np.eye(2), [1.0, 2.0, 3.0])

    def test_nonnegative_on_many_probes(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            dim = int(rng.integers(1, 8))
            Q = random_spd(rng, dim, ridge=0.0)  # PSD, possibly near-singular
            for _ in range(1000):
                v = rng.standard_normal(dim) * 10.0
                assert linalg.seminorm_sq(Q, v) >= 0.0

    def test_singular_psd_clamps_rounding(self):
        # rank-1 PSD whose null space is hit exactly
        Q = np.outer([1.0, -1.0], [1.0, -1.0])
        assert linalg.seminorm_sq(Q, [5.0, 5.0]) == 0.0

    def test_bilinearity_inequality(self):
        # 2 <Qv, w> <= |v|_Q^2 + |w|_Q^2 for PSD Q
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            Q = random_spd(rng, dim, ridge=0.0)
            v = rng.standard_normal(dim)
            w = rng.standard_normal(dim)
            lhs = 2.0 * float(v @ Q @ w)
            rhs = linalg.seminorm_sq(Q, v) + linalg.seminorm_sq(Q, w)
            assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))


class TestSolveSpd:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0])
        assert np.allclose(linalg.solve_spd(np.eye(3), rhs), rhs)

    def test_scalar(self):
        assert linalg.solve_spd([[2.0]], [3.0]) == pytest.approx([1.5])

    def test_two_by_two_hand_inverse(self):
        # inv([[2,1],[1,2]]) = [[2,-1],[-1,2]]/3, so the solution is (1, 1)
        u = linalg.solve_spd([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
        assert np.allclose(u, [1.0, 1.0], atol=1e-14)

    def test_multiply_back_residual(self):
        rng = np.random.default_rng(3)
        for dim in (1, 5, 20, 50):
            K = random_spd(rng, dim)
            rhs = rng.standard_normal(dim)
            u = linalg.solve_spd(K, rhs)
            resid = np.linalg.norm(K @ u - rhs)
            assert resid <= linalg.SOLVE_TOL * (1.0 + np.linalg.norm(rhs))

    def test_matches_cho_solve_bitwise(self):
        rng = np.random.default_rng(11)
        K = random_spd(rng, 7)
        fac = linalg.SpdFactor(K)
        factor = cho_factor(K, lower=True)
        for rhs in (rng.standard_normal(7), rng.standard_normal((7, 4))):
            u = fac.solve(rhs)
            assert u.shape == rhs.shape
            assert np.array_equal(u, cho_solve(factor, rhs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_refused(self, bad):
        fac = linalg.SpdFactor(np.eye(3))
        for rhs in (np.array([1.0, bad, 0.0]), np.full((3, 2), bad)):
            with pytest.raises(ValueError, match="non-finite"):
                fac.solve(rhs)

    def test_lapack_rejection_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(linalg, "dpotrs", lambda c, b, lower: (b, -2))
        with pytest.raises(InternalCheckError, match="argument 2"):
            linalg.SpdFactor(np.eye(2)).solve([1.0, 1.0])

    def test_non_pd_refused(self):
        with pytest.raises(NotPositiveDefiniteError, match="not strictly convex"):
            linalg.solve_spd([[1.0, 0.0], [0.0, -1.0]], [1.0, 1.0])

    def test_semidefinite_refused(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.solve_spd(np.zeros((2, 2)), [0.0, 0.0])

    def test_asymmetric_refused(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.solve_spd([[1.0, 1.0], [0.0, 1.0]], [1.0, 1.0])


class TestSpectralNormSq:
    def test_identity(self):
        assert linalg.spectral_norm_sq(np.eye(3)) == pytest.approx(1.0, rel=1e-8)

    def test_diagonal(self):
        assert linalg.spectral_norm_sq(np.diag([2.0, 1.0])) == pytest.approx(4.0, rel=1e-8)

    def test_zero_matrix(self):
        assert linalg.spectral_norm_sq(np.zeros((3, 2))) == 0.0

    def test_against_jacobi_oracle(self):
        A = np.random.default_rng(42).standard_normal((5, 3))
        got = linalg.spectral_norm_sq(A)
        expected = jacobi_eigenvalues(A.T @ A)[-1]
        assert got == pytest.approx(expected, rel=1e-8)

    def test_matches_dense_eigensolver_on_random_shapes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = int(rng.integers(1, 10))
            c = int(rng.integers(1, 10))
            A = rng.standard_normal((r, c)) * rng.uniform(0.1, 10.0)
            got = linalg.spectral_norm_sq(A)
            expected = float(np.max(np.linalg.eigvalsh(A.T @ A)))
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_repeated_top_eigenvalue(self):
        assert linalg.spectral_norm_sq(np.eye(4) * 3.0) == pytest.approx(9.0, rel=1e-8)


class TestPsdProbe:
    def test_accepts_psd(self):
        rng = np.random.default_rng(9)
        for dim in (1, 3, 7):
            assert linalg.is_psd(random_spd(rng, dim, ridge=0.0))

    def test_accepts_rank_deficient(self):
        v = np.array([1.0, 2.0, -1.0])
        assert linalg.is_psd(np.outer(v, v))

    def test_rejects_indefinite(self):
        assert not linalg.is_psd(np.diag([1.0, -1e-3]))
        assert not linalg.is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        assert not linalg.is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_zero_matrix_is_psd(self):
        assert linalg.is_psd(np.zeros((3, 3)))

    def test_operator_factory(self):
        op = linalg.PsdOperator.from_matrix(np.diag([0.0, 1.0]))
        assert op.side == 2
        assert op.seminorm_sq([1.0, 2.0]) == pytest.approx(4.0)
        with pytest.raises(NotPositiveDefiniteError):
            linalg.PsdOperator.from_matrix(np.diag([1.0, -1.0]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_seminorm_nonnegative_property(entries, seed):
    v = np.asarray(entries)
    Q = random_spd(np.random.default_rng(seed), v.shape[0], ridge=0.0)
    assert linalg.seminorm_sq(Q, v) >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8))
def test_solve_identity_property(entries):
    rhs = np.asarray(entries)
    assert np.allclose(linalg.solve_spd(np.eye(rhs.shape[0]), rhs), rhs)
