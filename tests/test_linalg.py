import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadmm import hpe, linalg, problems, solver
from gadmm.errors import NotPositiveDefiniteError

from conftest import metric_matrix, random_spd


def jacobi_eigenvalues(S, sweeps=100, tol=1e-14):
    """Brute-force symmetric eigensolver by Jacobi rotations; the oracle
    for the spectral norm, independent of numpy's eig and SVD."""
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
        assert np.allclose(linalg.SpdFactor(np.eye(3)).solve(rhs), rhs)

    def test_scalar(self):
        assert linalg.SpdFactor([[2.0]]).solve([3.0]) == pytest.approx([1.5])

    def test_inverse_trace(self):
        # inv([[2,1],[1,2]]) = [[2,-1],[-1,2]]/3 has trace 4/3
        assert linalg.SpdFactor([[2.0, 1.0], [1.0, 2.0]]).inv_trace() == pytest.approx(4.0 / 3.0)
        K = random_spd(np.random.default_rng(5), 30)
        assert linalg.SpdFactor(K).inv_trace() == pytest.approx(np.trace(np.linalg.inv(K)))

    def test_two_by_two_hand_inverse(self):
        # inv([[2,1],[1,2]]) = [[2,-1],[-1,2]]/3, so the solution is (1, 1)
        u = linalg.SpdFactor([[2.0, 1.0], [1.0, 2.0]]).solve([3.0, 3.0])
        assert np.allclose(u, [1.0, 1.0], atol=1e-14)

    def test_multiply_back_residual(self):
        # relative residual a direct SPD solve meets on these well-conditioned systems
        solve_tol = 1e-10
        rng = np.random.default_rng(3)
        for dim in (1, 5, 20, 50):
            K = random_spd(rng, dim)
            rhs = rng.standard_normal(dim)
            u = linalg.SpdFactor(K).solve(rhs)
            resid = np.linalg.norm(K @ u - rhs)
            assert resid <= solve_tol * (1.0 + np.linalg.norm(rhs))

    def test_matches_numpy_solve(self):
        # both solves are backward stable and K's condition number is about
        # 3, so they agree to within a small multiple of cond(K) * 7 * eps
        rel_tol = 1e-14
        rng = np.random.default_rng(11)
        K = random_spd(rng, 7)
        fac = linalg.SpdFactor(K)
        for rhs in (rng.standard_normal(7), rng.standard_normal((7, 4))):
            u = fac.solve(rhs)
            expected = np.linalg.solve(K, rhs)
            assert u.shape == rhs.shape
            assert np.max(np.abs(u - expected)) <= rel_tol * np.max(np.abs(expected))

    def test_residual_at_benchmark_scale(self):
        # the x- and y-subproblem matrices of the qp-large-full benchmark
        # workload (beta = 1, H = 0; condition numbers about 490 and 390),
        # with right-hand sides K u for u near one common point, as in a
        # converging run.  The solve meets about 2e-15; a product with K^-1
        # alone leaves about 3e-14.
        rel_tol = 1e-14
        inst = problems.generate_qp(1, 200, 150, 100)
        rng = np.random.default_rng(0)
        for P, op in ((inst.f.P, inst.A), (inst.g.P, inst.B)):
            K = P + op.T @ op
            side = K.shape[0]
            U = 10.0 * rng.standard_normal((side, 1)) + 1e-3 * rng.standard_normal((side, 100))
            R = K @ U
            resid = np.linalg.norm(K @ linalg.SpdFactor(K).solve(R) - R, axis=0)
            assert np.max(resid / np.linalg.norm(R, axis=0)) <= rel_tol

    def test_non_pd_refused(self):
        with pytest.raises(NotPositiveDefiniteError, match="not strictly convex"):
            linalg.SpdFactor([[1.0, 0.0], [0.0, -1.0]]).solve([1.0, 1.0])

    def test_semidefinite_refused(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.SpdFactor(np.zeros((2, 2))).solve([0.0, 0.0])

    def test_asymmetric_refused(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.SpdFactor([[1.0, 1.0], [0.0, 1.0]]).solve([1.0, 1.0])


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

    def test_overflows_to_inf(self):
        # ||A||_2 = 1e200 is finite; its square is not
        assert linalg.spectral_norm_sq([[1e200]]) == math.inf

    def test_repeated_top_eigenvalue(self):
        assert linalg.spectral_norm_sq(np.eye(4) * 3.0) == pytest.approx(9.0, rel=1e-8)


def outer_product_is_psd(Q):
    """A PSD probe by pivoted outer-product Cholesky, one rank-1 update per
    pivot in Python: the reference for :func:`linalg.is_psd`, with the same
    symmetry pre-check and floor.  Factoring stops at the first pivot
    <= floor; the matrix passes iff the remaining block has no diagonal
    entry below -floor and no entry above 10 floor in magnitude."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape[0] != Q.shape[1] or not linalg.is_symmetric(Q):
        return False
    R = Q.copy()
    n = R.shape[0]
    scale = 1.0
    if n:
        scale = max(1.0, float(np.max(np.abs(np.diag(R)))))
    floor = linalg.PSD_TOL * scale
    for j in range(n):
        i = j + int(np.argmax(np.diag(R)[j:]))
        if R[i, i] <= floor:
            rem = R[j:, j:]
            if float(np.min(np.diag(rem))) < -floor:
                return False
            return float(np.max(np.abs(rem))) <= 10.0 * floor
        if i != j:
            R[[j, i], :] = R[[i, j], :]
            R[:, [j, i]] = R[:, [i, j]]
        col = R[j + 1 :, j] / R[j, j]
        R[j + 1 :, j + 1 :] -= np.outer(col, R[j + 1 :, j])
    return True


def probe_matrices(count, seed):
    """Seeded symmetric matrices, in turn: full rank; rank deficient (rank
    0..n-1); and rank deficient shifted by +-1e-12..1e-3 times the identity
    (twice as often), which straddles the probe's floor of about 1e-9 n.
    Every tenth matrix has up to 150 rows, the others up to 40."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(1, 151 if t % 10 == 0 else 41))
        rank = n if t % 4 == 0 else int(rng.integers(0, n))
        G = rng.standard_normal((n, rank))
        Q = G @ G.T
        Q = (Q + Q.T) / 2.0
        if t % 4 >= 2:
            Q += rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, -3) * np.eye(n)
        yield Q


def assembled_metric(inst, alpha, h_mode):
    params = solver.GadmmParams(beta=1.0, alpha=alpha, h1=h_mode(), h2=h_mode())
    h1, h2 = solver.resolve_prox_terms(inst, params)
    return hpe.build_metric(inst, h1, h2, params.beta, alpha)


def block_probe(metric, shift):
    """The verdict of build_metric's probe on M + shift*I: each diagonal
    block, shifted, probed at the floor of the whole matrix."""
    h1 = np.zeros((metric.n, metric.n)) if metric.h1 is None else metric.h1
    blocks = [b + shift * np.eye(b.shape[0]) for b in (h1, metric.w)]
    floor = linalg.PSD_TOL * max(1.0, *(np.max(np.abs(np.diag(b))) for b in blocks))
    return all(linalg.is_psd(b, floor=floor) for b in blocks)


METRIC_ALPHAS = (0.5, 1.0, 1.5, 1.9, 2.0)


class TestPsdProbe:
    def test_matches_outer_product_reference(self):
        # the probes agree unless lambda_min lies in [-floor, 0), where the
        # reference may still reject and is_psd accepts
        verdicts, changed = [], 0
        for Q in probe_matrices(2400, seed=2007):
            got, expected = linalg.is_psd(Q), outer_product_is_psd(Q)
            floor = linalg.PSD_TOL * max(1.0, float(np.max(np.abs(np.diag(Q)))))
            if -floor <= np.linalg.eigvalsh(Q)[0] < 0.0:
                assert got
                changed += got != expected
            else:
                assert got == expected
            verdicts.append(expected)
        assert changed == 35
        # both verdicts are well represented
        assert 0.1 < np.mean(verdicts) < 0.9, np.mean(verdicts)

    @pytest.mark.parametrize("kind", ["qp", "lasso"])
    @pytest.mark.parametrize(
        "h_mode", [solver.ZeroH, solver.LinearizedH], ids=["zero", "linearized"]
    )
    def test_assembled_metric_matches_reference(self, kind, h_mode):
        if kind == "qp":
            inst = problems.generate_qp(3, 6, 5, 3)
        else:
            inst = problems.generate_lasso(7, 8, 16, 0.2)
        for alpha in METRIC_ALPHAS:
            metric = assembled_metric(inst, alpha, h_mode)
            M = metric_matrix(metric)
            floor = linalg.PSD_TOL * max(1.0, float(np.max(np.diag(M))))
            # M is singular, so a shift of -0.3 floor passes and -3 floor
            # fails.  (A shift that puts a tail entry within rounding of
            # -floor can flip either probe: -0.5 floor does so on the lasso
            # metric at alpha = 2, whose tail is then 2 * shift.)
            for shift in (0.0, -0.3 * floor, -3.0 * floor, -1e-6):
                Q = M + shift * np.eye(M.shape[0])
                assert linalg.is_psd(Q) == outer_product_is_psd(Q) == block_probe(metric, shift)
            assert linalg.is_psd(M)

    def test_large_qp_metric_matches_reference(self):
        # the 450-dim metric of the qp-large-full benchmark workload
        inst = problems.generate_qp(1, 200, 150, 100)
        for alpha in (1.0, 1.5, 2.0):
            metric = assembled_metric(inst, alpha, solver.ZeroH)
            M = metric_matrix(metric)
            assert np.linalg.matrix_rank(M) < M.shape[0]
            assert linalg.is_psd(M) and outer_product_is_psd(M) and block_probe(metric, 0.0)
            Q = M - 1e-6 * np.eye(M.shape[0])
            assert not linalg.is_psd(Q) and not outer_product_is_psd(Q)
            assert not block_probe(metric, -1e-6)

    def test_block_takes_the_floor_it_is_given(self):
        # lambda_min = -2e-9: below the block's own floor of 1e-9, above a
        # floor of 1e-8 set by a larger block
        Q = np.diag([1.0, -2e-9])
        assert not linalg.is_psd(Q)
        assert linalg.is_psd(Q, floor=1e-8)
        assert not linalg.is_psd(Q, floor=2e-9)

    def test_empty_matrix(self):
        Q = np.zeros((0, 0))
        assert linalg.is_psd(Q) and outer_product_is_psd(Q)

    @pytest.mark.parametrize(
        "Q, expected",
        [
            # the floor is 1e-9; lambda_min = floor or 2 floor passes
            (np.diag([1.0, 1e-9]), True),
            (np.diag([1.0, 2e-9]), True),
            # lambda_min = -1e-9 = -floor exactly, so Q + floor*I is singular:
            # the boundary of the strict inequality fails
            (np.array([[1.0, 0.0, 0.0], [0.0, 1e-9, 2e-9], [0.0, 2e-9, 1e-9]]), False),
            # lambda_min = -4.9e-8, far below -floor
            (np.array([[1.0, 0.0, 0.0], [0.0, 1e-9, 5e-8], [0.0, 5e-8, 1e-9]]), False),
            (np.diag([1.0, 1e-9, -2e-9]), False),
        ],
    )
    def test_pivot_at_the_floor(self, Q, expected):
        assert linalg.is_psd(Q) is expected

    @pytest.mark.parametrize(
        "Q, expected",
        [
            # lambda_min is about -5.6e91, above -floor = -1.8e299
            (np.array([[1.7976931348623157e308, 1e200], [1e200, 1.0]]), True),
            (np.array([[1.7976931348623157e308]]), True),
            (np.diag([1.7976931348623157e308, -1e300]), False),
        ],
    )
    def test_diagonal_at_the_float_limit(self, Q, expected):
        # Q + floor*I overflows unless Q is scaled first
        assert linalg.is_psd(Q) is expected

    def test_input_unchanged(self):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((90, 40))
        for Q in (G @ G.T, -(G @ G.T), np.asfortranarray(G @ G.T), np.diag([1.0, 1e-9, -2e-9])):
            before = Q.copy()
            linalg.is_psd(Q)
            assert np.array_equal(Q, before)

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
    assert np.allclose(linalg.SpdFactor(np.eye(rhs.shape[0])).solve(rhs), rhs)
