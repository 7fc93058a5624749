import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadmm import linalg, problems
from gadmm.oracles import L1, Quadratic, Zero, fenchel_gap

from conftest import random_spd

# Relative band within which a gap must match F(x) + F*(u) - <u, x>, the
# three-term sum that cancels terms of the size of F(x) in rounding.
THREE_TERM_BAND = 1e-9


def grid_gap(F, u, x, lo=-8.0, hi=8.0, points=4001):
    """Brute-force least epsilon: the worst violation of the subgradient
    inequality F(v) >= F(x) + <u, v-x> - eps over a 1-D grid of v."""
    vs = np.linspace(lo, hi, points)
    if isinstance(F, Quadratic):
        fvals = 0.5 * float(F.P[0, 0]) * vs**2 + float(F.q[0]) * vs + F.c
    elif isinstance(F, L1):
        fvals = F.mu * np.abs(vs)
    else:
        fvals = np.zeros_like(vs)
    viol = F.value([x]) + u * (vs - x) - fvals
    return max(float(np.max(viol)), 0.0)


def grid_gap_2d(F, u, x, lo=-6.0, hi=6.0, points=241):
    axis = np.linspace(lo, hi, points)
    V1, V2 = np.meshgrid(axis, axis, indexing="ij")
    V = np.stack([V1.ravel(), V2.ravel()], axis=1)
    if isinstance(F, Quadratic):
        fvals = 0.5 * np.einsum("ij,ij->i", V @ F.P, V) + V @ F.q + F.c
    elif isinstance(F, L1):
        fvals = F.mu * np.sum(np.abs(V), axis=1)
    else:
        fvals = np.zeros(V.shape[0])
    viol = F.value(x) + (V - x) @ u - fvals
    return max(float(np.max(viol)), 0.0)


class TestValue:
    def test_quadratic(self):
        F = Quadratic(np.eye(2), np.zeros(2))
        assert F.value([1.0, 2.0]) == pytest.approx(2.5)

    def test_quadratic_every_term(self):
        # (1/2) v'Pv + q'v + c with each term nonzero: 9 - 3 + 0.5 and
        # 1.5 - 3 + 0.5, all exact in floating point
        F = Quadratic([[2.0, 1.0], [1.0, 3.0]], [1.0, -2.0], 0.5)
        assert F.value([1.0, 2.0]) == 6.5
        assert F.value([[1.0, 2.0], [-1.0, 1.0]]).tolist() == [6.5, -1.0]

    def test_l1(self):
        assert L1(2.0).value([-1.0, 3.0]) == pytest.approx(8.0)

    def test_zero(self):
        assert Zero().value([4.0, -7.0, 0.1]) == 0.0

    def test_quadratic_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Quadratic(np.eye(2), np.zeros(2)).value([1.0])

    def test_quadratic_rejects_indefinite(self):
        with pytest.raises(ValueError):
            Quadratic([[ -1.0 ]], [0.0])

    @pytest.mark.parametrize(
        "P, message",
        [
            ([[1.0, 0.0], [0.0, -1.0]], "P must be positive semidefinite"),
            ([[1.0, 1.0], [0.0, 1.0]], "P must be symmetric"),
            ([[1.0, 3.0], [0.0, 1.0]], "P must be symmetric"),  # and indefinite
        ],
    )
    def test_quadratic_rejection_messages(self, P, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Quadratic(P, [0.0, 0.0])

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_quadratic_rejects_non_finite_c(self, c):
        # an instance holding it would be saved with a non-JSON number
        with pytest.raises(ValueError, match=f"^c must be finite, got {c}$"):
            Quadratic(np.eye(2), np.zeros(2), c)

    @pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0, -1.0])
    def test_l1_rejects_mu_outside_range(self, mu):
        # an infinite mu made the lasso ground truth NaN after a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^mu must be positive and finite, got {mu}$"):
                L1(mu)


class TestProx:
    def test_l1_soft_threshold(self):
        got = L1(1.0).prox_solver(1.0)(np.array([2.0, -0.5]))
        assert np.allclose(got, [1.0, 0.0])

    def test_zero_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(Zero().prox_solver(7.0)(v), v)

    def test_quadratic_scalar(self):
        # argmin u^2/2 + (u-4)^2/2 = 2 by scalar calculus
        F = Quadratic([[1.0]], [0.0])
        assert F.prox_solver(1.0)(np.array([4.0])) == pytest.approx([2.0])

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            L1(1.0).prox_solver(0.0)


class TestConjugate:
    def test_l1_inside_ball(self):
        assert L1(1.0).conjugate([0.5, -1.0]) == 0.0

    def test_l1_outside_ball(self):
        assert L1(1.0).conjugate([1.5, 0.0]) == math.inf

    def test_quadratic(self):
        # f* of |x|^2/2 is |u|^2/2; cross-checked by grid maximization below
        F = Quadratic(np.eye(2), np.zeros(2))
        assert F.conjugate([3.0, 4.0]) == pytest.approx(12.5)

    def test_quadratic_grid_oracle(self):
        F = Quadratic(np.eye(1), np.zeros(1))
        u = 3.0
        xs = np.linspace(-20, 20, 200001)
        expected = np.max(u * xs - 0.5 * xs**2)
        assert F.conjugate([u]) == pytest.approx(expected, abs=1e-6)

    def test_singular_quadratic_in_range(self):
        # P = diag(1, 0): u - q must vanish on the null coordinate
        F = Quadratic(np.diag([1.0, 0.0]), np.zeros(2))
        assert F.conjugate([2.0, 0.0]) == pytest.approx(2.0)
        assert F.conjugate([2.0, 0.5]) == math.inf

    def test_affine_conjugate_is_indicator(self):
        F = Quadratic(np.zeros((2, 2)), np.array([1.0, -1.0]), c=0.5)
        assert F.conjugate([1.0, -1.0]) == pytest.approx(-0.5)
        assert F.conjugate([1.0, 0.0]) == math.inf

    def test_zero(self):
        assert Zero().conjugate([0.0, 0.0]) == 0.0
        assert Zero().conjugate([0.1, 0.0]) == math.inf


class TestFenchelGap:
    def test_exact_gradient(self):
        F = Quadratic([[1.0]], [0.0])
        assert fenchel_gap(F, [2.0], [2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_half_square_of_offset(self):
        # gap of u at x for |.|^2/2 is (u-x)^2/2; grid scan agrees
        F = Quadratic([[1.0]], [0.0])
        assert fenchel_gap(F, [3.0], [2.0]) == pytest.approx(0.5)
        assert grid_gap(F, 3.0, 2.0) == pytest.approx(0.5, abs=1e-5)

    def test_l1_subgradient_at_zero(self):
        assert fenchel_gap(L1(1.0), [0.7], [0.0]) == 0.0

    def test_infinite_outside_domain(self):
        assert fenchel_gap(L1(1.0), [2.0], [0.0]) == math.inf

    def test_gap_grid_agreement_1d(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            P = np.array([[rng.uniform(0.2, 3.0)]])
            q = rng.standard_normal(1)
            F = Quadratic(P, q)
            x = rng.uniform(-2, 2)
            u = rng.uniform(-2, 2)
            got = fenchel_gap(F, [u], [x])
            assert got == pytest.approx(grid_gap(F, u, x, -30, 30, 60001), abs=1e-6)
        for _ in range(20):
            mu = rng.uniform(0.5, 2.0)
            F = L1(mu)
            x = rng.uniform(-2, 2)
            u = rng.uniform(-mu, mu)
            got = fenchel_gap(F, [u], [x])
            assert got == pytest.approx(grid_gap(F, u, x, -40, 40, 80001), abs=1e-6)

    def test_gap_grid_agreement_2d(self):
        rng = np.random.default_rng(321)
        F = Quadratic(random_spd(rng, 2, ridge=0.5), rng.standard_normal(2))
        x = rng.uniform(-1, 1, size=2)
        u = rng.uniform(-1, 1, size=2)
        got = fenchel_gap(F, u, x)
        assert got == pytest.approx(grid_gap_2d(F, u, x), abs=1e-3)
        F = L1(1.0)
        x = np.array([0.5, -0.25])
        u = np.array([0.9, 0.3])
        assert fenchel_gap(F, u, x) == pytest.approx(grid_gap_2d(F, u, x), abs=1e-3)


    def test_negative_eigenvalue_within_the_psd_floor_counts_as_zero(self):
        # P passes the PSD probe with eigenvalue -5e-11: its direction
        # (1, -1) is outside the range, so a u along it has an infinite gap
        # and conjugate instead of a weight of -2e10 that could cancel a
        # violation in the other direction
        F = Quadratic([[1.0, 1.0], [1.0, 1.0 - 1e-10]], [0.0, 0.0])
        assert fenchel_gap(F, [0.1, 0.1], [0.0, 0.0]) == pytest.approx(0.005)
        for u in ([1e-3, -1e-3], [0.101, 0.099]):
            assert fenchel_gap(F, u, [0.0, 0.0]) == math.inf
            assert F.conjugate(u) == math.inf

    def test_definite_p_is_factored_once(self, monkeypatch):
        # the factor the constructor's probe made serves every gap, and is
        # the one SpdFactor(P) makes; a semidefinite P fails that
        # factorization and is probed with the shifted one
        real, calls = np.linalg.cholesky, []

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        F = Quadratic(random_spd(np.random.default_rng(3), 5), np.arange(5.0))
        for u in ([0.5] * 5, [[0.1] * 5, [-0.2] * 5]):
            fenchel_gap(F, u, np.ones(np.shape(u)))
        assert calls == [(5, 5)]
        assert np.array_equal(F._p_inverse._L_inv, linalg.SpdFactor(F.P)._L_inv)
        calls.clear()
        F = Quadratic([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])
        assert fenchel_gap(F, [0.1, 0.1], [0.0, 0.0]) == pytest.approx(0.005)
        assert calls == [(2, 2), (2, 2)]

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_residual_form_within_the_band_of_three_terms(self, seed):
        # a quadratic's gap is (1/2) r'P^-1 r, r = Px + q - u; it stays within
        # a rounding band of F(x) + F*(u) - <u, x>, at near-subgradients (gap
        # about 1e-12) and at arbitrary points
        inst = problems.generate_qp(seed, 8, 6, 4)
        rng = np.random.default_rng(seed)
        for F in (inst.f, inst.g):
            x = rng.standard_normal((50, F.dim)) * 10.0
            near = x @ F.P.T + F.q + rng.standard_normal(x.shape) * 1e-6
            for u in (near, rng.standard_normal(x.shape) * 10.0):
                val, conj, pairing = F.value(x), F.conjugate(u), np.vecdot(u, x)
                band = THREE_TERM_BAND * (1.0 + abs(val) + abs(conj) + abs(pairing))
                assert np.all(np.abs(fenchel_gap(F, u, x) - (val + conj - pairing)) <= band)
                assert np.all(fenchel_gap(F, u, x) >= 0.0)


def _gap_probe(kind, rng, scale):
    """A function of the given kind and stacked (u, x, expect_finite)
    probes of it with u and x of size ``scale``: arbitrary points, near
    subgradients, and points whose u lies outside the conjugate's domain."""
    dim = 3
    x = rng.standard_normal((6, dim)) * scale
    if kind in ("spd", "rank-deficient"):
        if kind == "spd":
            P = random_spd(rng, dim, ridge=0.5)
        else:
            C = rng.standard_normal((dim + 1, dim))
            C[:, -1] = C[:, 0]  # P = C'C kills e_0 - e_last exactly
            P = C.T @ C
        F = Quadratic(P, rng.standard_normal(dim) * scale)
        null = np.zeros(dim)
        null[0], null[-1] = 1.0, -1.0
        off = rng.uniform(0.5, 2.0, (len(x), 1)) * scale * null
        near = x @ P.T + F.q + (rng.standard_normal(x.shape) * 1e-6 * scale) @ P.T
        arbitrary = F.q + (rng.standard_normal(x.shape) * scale) @ P.T
        probes = [(near, True), (arbitrary, True), (arbitrary + off, kind == "spd")]
    elif kind == "l1":
        F = L1(rng.uniform(0.1, 3.0) * scale)
        inside = F.mu * rng.uniform(-1.0, 1.0, x.shape)
        inside[:, 0] = F.mu * np.sign(x[:, 0])  # on the ball's boundary, as prox outputs land
        outside = inside.copy()
        outside[:, 1] = 2.0 * F.mu
        probes = [(F.mu * np.sign(x), True), (inside, True), (outside, False)]
    else:
        F = Zero()
        rounding = rng.standard_normal(x.shape) * 1e-12  # inside the origin's tolerance
        probes = [(np.zeros_like(x), True), (rounding, True), (rounding + scale, False)]
    return F, [(u, x, finite) for u, finite in probes]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["spd", "rank-deficient", "l1", "zero"]),
    exponent=st.integers(-3, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_gap_is_its_closed_form_at_every_scale(kind, exponent, seed):
    # the gap is held to its references here; fenchel_gap itself checks no band
    F, probes = _gap_probe(kind, np.random.default_rng(seed), 10.0**exponent)
    for u, x, finite in probes:
        gap = fenchel_gap(F, u, x)  # never raises
        assert np.all(gap >= 0.0)  # and is never negative or NaN
        assert np.all(np.isfinite(gap) == finite)
        if isinstance(F, Quadratic) and finite:
            r = x @ F.P.T + F.q - u
            ref = 0.5 * np.vecdot(r, r @ np.linalg.pinv(F.P).T)
            assert np.all(np.abs(gap - ref) <= 1e-9 * np.abs(ref))
        if exponent == 0 and finite:
            val, conj, pairing = F.value(x), F.conjugate(u), np.vecdot(u, x)
            band = THREE_TERM_BAND * (1.0 + abs(val) + abs(conj) + abs(pairing))
            assert np.all(np.abs(gap - (val + conj - pairing)) <= band)


def _random_variant(rng, kind, dim):
    if kind == "quadratic":
        return Quadratic(random_spd(rng, dim, ridge=0.1), rng.standard_normal(dim))
    if kind == "l1":
        return L1(rng.uniform(0.1, 3.0))
    return Zero()


@pytest.mark.parametrize("kind", ["quadratic", "l1", "zero"])
def test_prox_optimality_thousand_probes(kind):
    # (v - prox(v)) / t must be a subgradient at the prox point
    rng = np.random.default_rng(hash(kind) % 2**32)
    for _ in range(1000):
        dim = int(rng.integers(1, 6))
        F = _random_variant(rng, kind, dim)
        t = float(rng.uniform(0.05, 5.0))
        v = rng.standard_normal(dim) * 3.0
        p = F.prox_solver(t)(v)
        gap = fenchel_gap(F, (v - p) / t, p)
        assert gap <= 1e-8


@pytest.mark.parametrize("kind", ["quadratic", "l1", "zero"])
def test_fenchel_young_nonnegative(kind):
    rng = np.random.default_rng(1000 + hash(kind) % 2**16)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        F = _random_variant(rng, kind, dim)
        u = rng.standard_normal(dim)
        x = rng.standard_normal(dim)
        assert fenchel_gap(F, u, x) >= 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=5),
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.05, max_value=10.0),
)
def test_soft_threshold_is_l1_prox(entries, mu, t):
    v = np.asarray(entries)
    p = L1(mu).prox_solver(t)(v)
    # componentwise: shrink toward zero by t*mu, exact zero inside the band
    expected = np.sign(v) * np.maximum(np.abs(v) - t * mu, 0.0)
    assert np.allclose(p, expected)
    assert np.all(np.abs(p) <= np.abs(v) + 1e-15)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=4),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_quadratic_prox_optimality_property(entries, t):
    v = np.asarray(entries)
    F = Quadratic(np.eye(v.shape[0]), np.zeros(v.shape[0]))
    p = F.prox_solver(t)(v)
    assert np.allclose(p, v / (1.0 + t))
