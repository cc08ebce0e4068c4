from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st
from scipy.special import factorial, gammainc, gammaincc, roots_laguerre

import gframes as gf
from gframes import coherent, duality, frames
from gframes.errors import (
    InsufficientNodes,
    NonUniformBlocks,
    NotOnBasis,
    NotRieszBasis,
    TruncationTooSevere,
)
from gframes.linalg import TOL_EQ, fro, random_unitary, random_units

from conftest import (dual_family, fock_column, on_basis_cases, random_frame,
                      random_gon, random_riesz, traced_peak)


def series_oracle(fs, z, w):
    """Direct truncated double sum over the Fock columns, renormalized."""
    v = np.zeros(fs.basis_columns.shape[0], dtype=complex)
    for l in range(fs.L):
        for k in range(fs.K):
            v += (z ** k * w ** l / np.sqrt(factorial(k) * factorial(l))
                  ) * fock_column(fs, k, l)
    return v / np.linalg.norm(v)


def factorized_oracle(gon, fs, z, w):
    """Per-block form: sum_l w^l/sqrt(l!) theta_l† chi_l(z) over the blocks
    theta_l of gon, the basis that fs was built from."""
    v = np.zeros(fs.basis_columns.shape[0], dtype=complex)
    for l, B in enumerate(gon.blocks):
        chi = np.array([z ** k / np.sqrt(factorial(k)) for k in range(fs.K)])
        v += (w ** l / np.sqrt(factorial(l))) * (B.conj().T @ chi)
    return v / np.linalg.norm(v)


def dense_lowering(K, L):
    """The lowering pair on the coefficient index l*K + k as dense
    Kronecker products: sqrt(k) on the level, sqrt(l) on the block."""
    a1 = np.diag(np.sqrt(np.arange(1, K)), 1)
    b1 = np.diag(np.sqrt(np.arange(1, L)), 1)
    return np.kron(np.eye(L), a1), np.kron(b1, np.eye(K))


def radius_at(defect, m):
    """The |z| at which the tail mass past m levels is `defect`, by
    bisection: the tail grows with |z|, and at |z| = m + 1 it exceeds 1/2."""
    lo, hi = 0.0, m + 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if coherent.tail_mass(m - 1, mid ** 2) < defect else (lo, mid)
    return lo


class TestBuildFock:
    def test_coordinate_slicing_gives_standard_basis(self):
        fs = gf.build_fock(gf.make_gon_basis(4, (2, 2)))
        assert fs.K == 2 and fs.L == 2
        np.testing.assert_allclose(fs.basis_columns, np.eye(4))

    def test_rotated_columns_orthonormal(self, rng):
        fs = gf.build_fock(random_gon(rng, 9, (3, 3, 3)))
        G = fs.basis_columns.conj().T @ fs.basis_columns
        assert fro(G - np.eye(9)) <= 1e-10

    def test_block_reconstruction(self, rng):
        gon = random_gon(rng, 6, (2, 2, 2))
        fs = gf.build_fock(gon)
        for _ in range(20):
            f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            for l, B in enumerate(gon.blocks):
                coeffs = np.array([np.vdot(fock_column(fs, k, l), f)
                                   for k in range(fs.K)])
                np.testing.assert_allclose(B @ f, coeffs, atol=1e-10)

    def test_rejects_non_on_basis(self, mercedes):
        with pytest.raises(NotOnBasis):
            gf.build_fock(mercedes)

    def test_rejects_non_uniform_blocks(self, rng):
        gon = random_gon(rng, 5, (2, 3))
        with pytest.raises(NonUniformBlocks):
            gf.build_fock(gon)

    def test_gram_rule_agrees_with_classify(self, rng, mercedes):
        for F, expected in on_basis_cases(rng, mercedes):
            assert gf.classify(F).is_on_basis == expected
            assert frames._is_on_basis(F, TOL_EQ) == expected
            if expected:
                gf.build_fock(F)
            else:
                with pytest.raises(NotOnBasis):
                    gf.build_fock(F)


class TestTruncationDefect:
    def test_vacuum_has_none(self):
        assert gf.truncation_defect(0, 0, 2, 2) == 0.0

    def test_matches_series_mass(self):
        z, w, K, L = 0.8 + 0.3j, -0.4j, 12, 9
        mass = 0.0
        for k in range(K):
            for l in range(L):
                mass += (abs(z) ** (2 * k) * abs(w) ** (2 * l)
                         / (factorial(k) * factorial(l)))
        mass *= np.exp(-abs(z) ** 2 - abs(w) ** 2)
        assert gf.truncation_defect(z, w, K, L) == pytest.approx(1 - mass,
                                                                 abs=1e-14)

    def test_matches_an_80_digit_sum(self):
        """The defect t_z + t_w - t_z t_w against the same expression in
        80-digit decimal arithmetic, with each tail summed term by term from
        the same float intensity |z|^2, for |z|, |w| <= 2 and K, L <= 20.
        The tails are exponentials of sums of logarithms, so they carry
        about eps |ln t| relative (measured at most 2.4 eps |ln t| over 4000
        random labels); 1 - (1 - t_z)(1 - t_w) gave 0.0 at z = 0.1, K = 8
        and 1.11e-16 for 1.57e-16 at z = 0.2, K = 8."""
        def tails(x):
            """[t_1, ..., t_20]: the mass of the terms j >= K of Poisson(x),
            summed to j = 119, past which every term is below 1e-100 of
            every tail here."""
            with localcontext() as ctx:
                ctx.prec = 80
                x = Decimal(x)
                terms = [(-x).exp()]
                for j in range(1, 120):
                    terms.append(terms[-1] * x / j)
                return [+sum(terms[K:]) for K in range(1, 21)]

        labels = (0.0, 1e-3j, 0.1, 0.2, -0.5, 1.0 + 1.0j, 1.2 - 1.6j)
        exact = {z: tails(abs(z) ** 2) for z in labels}
        worst = 0.0
        with localcontext() as ctx:
            ctx.prec = 80
            for z in labels:
                for w in labels[::2]:
                    for K, tz in enumerate(exact[z], 1):
                        for L, tw in enumerate(exact[w], 1):
                            ref = tz + tw - tz * tw
                            got = gf.truncation_defect(z, w, K, L)
                            if ref == 0:
                                assert got == 0.0
                                continue
                            err = float(abs(Decimal(got) - ref) / ref)
                            worst = max(worst, err / max(1.0, -np.log(float(ref))))
        assert worst <= 4 * np.finfo(np.float64).eps

    def test_required_truncation_meets_budget(self):
        K, L = coherent.required_truncation(2.0, 1.5, 1e-8)
        assert gf.truncation_defect(2.0, 1.5, K, L) <= 1e-8

    def test_required_truncation_is_smallest(self):
        for budget in (1e-8, 1e-14):
            K, L = coherent.required_truncation(2.0, 1.5, budget)
            assert coherent.tail_mass(K - 1, 4.0) <= budget / 2
            assert coherent.tail_mass(K - 2, 4.0) > budget / 2
            assert coherent.tail_mass(L - 1, 2.25) <= budget / 2
            assert coherent.tail_mass(L - 2, 2.25) > budget / 2

    def test_tail_mass_matches_incomplete_gamma(self):
        # 1 - Q(m+1, x) = P(m+1, x); measured worst 3.2e-13 absolute and
        # 5.2e-13 relative over this range
        m = np.arange(200)
        for x in np.concatenate((np.geomspace(1e-6, 400.0, 150),
                                 np.linspace(0.5, 400.0, 150))):
            tails = coherent._poisson_tails(x, 200)
            np.testing.assert_allclose(tails, 1.0 - gammaincc(m + 1, x),
                                       rtol=0, atol=1e-12)
            ref = gammainc(m + 1, x)
            big = ref > 1e-250
            np.testing.assert_allclose(tails[big], ref[big], rtol=5e-12)
        assert coherent.tail_mass(7, 3.0) == coherent._poisson_tails(3.0, 8)[-1]
        assert coherent.tail_mass(5, 0.0) == 0.0

    def test_tail_mass_at_large_labels(self):
        # only the terms near the mean are summed, so the work stays
        # O(m + sqrt(x)) however large |z| is
        for x in (2500.0, 1e4, 1e5):
            k = np.arange(int(x - 6 * np.sqrt(x)), int(x + 6 * np.sqrt(x)))
            tails = coherent._poisson_tails(x, int(k[-1]) + 1)[k]
            np.testing.assert_allclose(tails, gammainc(k + 1, x), rtol=1e-9)
        assert coherent.tail_mass(29, 1e10) == 1.0
        assert coherent.tail_mass(29, np.inf) == 1.0
        assert coherent.required_truncation(1e5, 0.0, 1e-8) == (100_000, 1)


class TestCoherentState:
    def test_vacuum_is_first_column(self, rng):
        fs = gf.build_fock(random_gon(rng, 4, (2, 2)))
        st = gf.coherent_state(fs, 0, 0)
        np.testing.assert_allclose(st.vector, fock_column(fs, 0, 0), atol=1e-14)

    def test_single_axis_series(self):
        fs = gf.build_fock(gf.make_gon_basis(30, tuple([30])))
        st = gf.coherent_state(fs, 1.0, 0.0)
        coeffs = np.array([np.exp(-0.5) / np.sqrt(factorial(k))
                           for k in range(30)])
        coeffs /= np.linalg.norm(coeffs)
        np.testing.assert_allclose(st.vector, coeffs, atol=1e-12)
        assert abs(np.linalg.norm(st.vector) - 1.0) <= 1e-10

    def test_matches_both_oracles(self, rng):
        gon = random_gon(rng, 25, (5, 5, 5, 5, 5))
        fs = gf.build_fock(gon)
        for z, w in [(0.3, 0.2), (0.5j, -0.1), (0.4 - 0.2j, 0.3 + 0.1j)]:
            st = gf.coherent_state(fs, z, w, defect_max=1e-2)
            np.testing.assert_allclose(st.vector, series_oracle(fs, z, w),
                                       atol=1e-12)
            np.testing.assert_allclose(st.vector, factorized_oracle(gon, fs, z, w),
                                       atol=1e-12)

    def test_prenormalization_mass(self, rng):
        fs = gf.build_fock(random_gon(rng, 16, (4, 4, 4, 4)))
        z, w = 0.9, 0.6
        c = coherent.coefficient_vector(z, w, fs.K, fs.L)
        defect = gf.truncation_defect(z, w, fs.K, fs.L)
        assert np.linalg.norm(c) ** 2 == pytest.approx(1 - defect, abs=1e-12)

    def test_truncation_too_severe(self, rng):
        gon = gf.make_gon_basis(10, tuple([10]))
        fs = gf.build_fock(gon)
        for build in (lambda: gf.coherent_state(fs, 6.0, 0.0),
                      lambda: gf.bicoherent_family(gon, 6.0, 0.0, defect_max=1e-8)):
            with pytest.raises(TruncationTooSevere, match=r"need K >= \d+, L >= 1") as exc:
                build()
            assert exc.value.required_k > 10

    @pytest.mark.parametrize("build", ["coherent_state", "uncertainty_product",
                                       "bicoherent_family"])
    def test_one_default_budget(self, build, rng):
        """Every builder refuses a label by the same default budget, 1e-10:
        at w = 0 a label whose defect is half of it is accepted, and one
        whose defect is twice it raises, naming the budget."""
        budget = 1e-10
        K, L = 4, 3
        if build == "bicoherent_family":
            arg, _ = random_riesz(rng, K * L, (K,) * L)
        else:
            arg = gf.build_fock(random_gon(rng, K * L, (K,) * L))
        for defect in (0.5 * budget, 2.0 * budget):
            z = radius_at(defect, K)
            assert gf.truncation_defect(z, 0.0, K, L) == pytest.approx(defect, rel=1e-9)
            if defect < budget:
                getattr(gf, build)(arg, z, 0.0)
            else:
                with pytest.raises(TruncationTooSevere, match=r"exceeds 1\.0e-10"):
                    getattr(gf, build)(arg, z, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z", [38.0, 40.0, 1e200])
    @pytest.mark.parametrize("build", ["coherent_state", "uncertainty_product",
                                       "bicoherent_family"])
    def test_unrepresentable_coefficients_are_too_severe(self, build, z):
        """A budget of 1 passes every label.  The coefficients are subnormal
        at |z| = 38, the Gaussian weight underflows to 0 at 40 and |z|^2
        overflows at 1e200, so no normalized state exists to full
        precision; the labels raise as an exceeded budget does."""
        gon = gf.make_gon_basis(4, (2, 2))
        arg = gon if build == "bicoherent_family" else gf.build_fock(gon)
        with pytest.raises(TruncationTooSevere, match=r"need K >= \d+, L >= 1") as exc:
            getattr(gf, build)(arg, z, 0.0, defect_max=1.0)
        expected = coherent.required_truncation(z, 0.0, 1.0)
        assert (exc.value.required_k, exc.value.required_l) == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z", [27.0, 27.2, 27.4, 27.6, 30.0])
    def test_tiny_coefficients_still_normalize(self, z):
        """At a budget of 1 these labels pass, with normal coefficients near
        1e-160 or 1e-194 whose sum of squares is subnormal or, from
        |z| = 27.6, underflows to 0: the state is still the unit vector
        along C c, (1, z) / sqrt(1 + z^2) on its two live entries (at 27.6,
        about (0.0362, 0.9993)), and the b-axis product (w = 0) is still
        1/2."""
        fs = gf.build_fock(gf.make_gon_basis(4, (2, 2)))
        v = gf.coherent_state(fs, z, 0.0, defect_max=1.0).vector
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        ref = fs.basis_columns @ (1e160 * coherent.coefficient_vector(z, 0.0, 2, 2))
        np.testing.assert_allclose(v, ref / np.linalg.norm(ref), rtol=0, atol=1e-15)
        np.testing.assert_allclose(v, np.array([1.0, z, 0.0, 0.0]) / np.hypot(1.0, z),
                                   rtol=0, atol=1e-15)
        _, ub = gf.uncertainty_product(fs, z, 0.0, defect_max=1.0)
        assert abs(ub - 0.5) <= 1e-15


class TestLadderOps:
    def test_annihilates_vacuum_row(self, rng):
        fs = gf.build_fock(random_gon(rng, 9, (3, 3, 3)))
        ops = gf.ladder_ops(fs)
        for l in range(fs.L):
            assert np.linalg.norm(ops.a @ fock_column(fs, 0, l)) <= 1e-13
        for k in range(fs.K):
            assert np.linalg.norm(ops.b @ fock_column(fs, k, 0)) <= 1e-13

    def test_lowering_rule(self, rng):
        fs = gf.build_fock(random_gon(rng, 9, (3, 3, 3)))
        ops = gf.ladder_ops(fs)
        for l in range(fs.L):
            for k in range(1, fs.K):
                np.testing.assert_allclose(
                    ops.a @ fock_column(fs, k, l),
                    np.sqrt(k) * fock_column(fs, k - 1, l), atol=1e-12)
        for l in range(1, fs.L):
            for k in range(fs.K):
                np.testing.assert_allclose(
                    ops.b @ fock_column(fs, k, l),
                    np.sqrt(l) * fock_column(fs, k, l - 1), atol=1e-12)

    def test_commutation(self, rng):
        fs = gf.build_fock(random_gon(rng, 12, (4, 4, 4)))
        ops = gf.ladder_ops(fs)
        a, b = ops.a.dense(), ops.b.dense()
        assert fro(a @ b - b @ a) <= 1e-12

    def test_ccr_on_interior_levels(self, rng):
        fs = gf.build_fock(random_gon(rng, 16, (4, 4, 4, 4)))
        a = gf.ladder_ops(fs).a.dense()
        comm = a @ a.conj().T - a.conj().T @ a
        # restrict to levels k <= K-2; the top level violates CCR by design
        cols = [fock_column(fs, k, l) for l in range(fs.L) for k in range(fs.K - 1)]
        P = np.array(cols).T
        assert fro(P.conj().T @ comm @ P - np.eye(len(cols))) <= 1e-12

    def test_vacuum_exact_eigenvector(self, rng):
        fs = gf.build_fock(random_gon(rng, 4, (2, 2)))
        st = gf.coherent_state(fs, 0, 0)
        assert np.linalg.norm(gf.ladder_ops(fs).a @ st.vector) <= 1e-13

    def test_matches_dense_kron_formula(self, rng):
        for n, dims in [(12, (3,) * 4), (12, (4,) * 3), (5, (5,)), (4, (1,) * 4)]:
            fs = gf.build_fock(random_gon(rng, n, dims))
            a_c, b_c = dense_lowering(fs.K, fs.L)
            C = fs.basis_columns
            ops = gf.ladder_ops(fs)
            np.testing.assert_allclose(ops.a.dense(), C @ a_c @ C.conj().T, atol=1e-13)
            np.testing.assert_allclose(ops.b.dense(), C @ b_c @ C.conj().T, atol=1e-13)

    def test_factors_match_dense(self, rng):
        """op @ x, applied through the factors, agrees with the dense
        operator on vectors and n x k matrices on both axes; dense() is the
        shifted columns times C†, bit for bit."""
        for n, dims in [(12, (3,) * 4), (12, (4,) * 3), (5, (5,)), (4, (1,) * 4)]:
            fs = gf.build_fock(random_gon(rng, n, dims))
            C = fs.basis_columns
            ops = gf.ladder_ops(fs)
            for axis, op in (("a", ops.a), ("b", ops.b)):
                A = op.dense()
                assert np.array_equal(A, coherent._lower(C, fs.K, fs.L, axis) @ C.conj().T)
                for x in (random_units(rng, n, 1)[:, 0], random_units(rng, n, 3),
                          rng.standard_normal(n)):
                    ref = A @ x
                    assert np.linalg.norm(op @ x - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_eigen_relation_residual_matches_series_bound(self, rng):
        # residual of a Phi - z Phi is |z| times the mass on the top level
        fs = gf.build_fock(gf.make_gon_basis(25, tuple([25])))
        z = 0.5
        st = gf.coherent_state(fs, z, 0.0)
        resid = np.linalg.norm(gf.ladder_ops(fs).a @ st.vector - z * st.vector)
        c = coherent.coefficient_vector(z, 0.0, fs.K, fs.L)
        bound = abs(z) * abs(c[fs.K - 1]) / np.linalg.norm(c)
        assert resid == pytest.approx(bound, rel=1e-9)
        assert resid <= 1e-10

    @seed(2701)
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(8, 8), (4, 6), (6, 3), (12, 2), (2, 12)]),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi),
           st.integers(0, 2 ** 32 - 1))
    def test_eigen_residual_closed_form(self, shape, rz, rw, phase_z, phase_w, rng_seed):
        """With coefficients c_kl = alpha_k beta_l, ã leaves only the top
        level k = K-1 unmatched, so ||(a - z) v|| = |z| sqrt(p / (1 - t_z))
        for the Poisson weight p = e^{-|z|^2} |z|^{2(K-1)} / (K-1)! and the
        tail t_z past K levels, whatever w is; b obeys the same form in
        (w, L).  Labels are drawn within the default budget."""
        K, L = shape
        fs = gf.build_fock(random_gon(np.random.default_rng(rng_seed), K * L, (K,) * L))
        # each tail at most half the budget, so the defect is within it
        z = rz * radius_at(coherent.DEFECT_MAX / 2.0, K) * np.exp(1j * phase_z)
        w = rw * radius_at(coherent.DEFECT_MAX / 2.0, L) * np.exp(1j * phase_w)
        v = gf.coherent_state(fs, z, w).vector
        ops = gf.ladder_ops(fs)
        for op, x, m in ((ops.a, z, K), (ops.b, w, L)):
            t = abs(x) ** 2
            p = np.exp(-t) * t ** (m - 1) / factorial(m - 1)
            form = abs(x) * np.sqrt(p / (1.0 - coherent.tail_mass(m - 1, t)))
            resid = np.linalg.norm(op @ v - x * v)
            assert resid == pytest.approx(form, rel=1e-9, abs=1e-14)


class TestQuadratureIdentity:
    def test_single_level(self):
        fs = gf.build_fock(gf.make_gon_basis(1, (1,)))
        Q = gf.quadrature_identity(fs, 1, 1)
        np.testing.assert_allclose(Q, np.eye(1), atol=1e-12)

    def test_three_by_three(self, rng):
        fs = gf.build_fock(random_gon(rng, 9, (3, 3, 3)))
        Q = gf.quadrature_identity(fs, 4, 7)
        assert fro(Q - np.eye(9)) <= 1e-10

    def test_moment_oracle(self):
        # (1/pi) int e^{-|z|^2} z^k conj(z)^m dz = delta_km k!, per moment
        m = 4
        G = coherent._radial_angular_gram(m, m, 2 * m - 1)
        np.testing.assert_allclose(G, np.eye(m), atol=1e-12)

    def test_laguerre_rule_matches_scipy(self):
        # measured worst 9.8e-14 relative in nodes, 1.1e-11 in weights
        for n in range(1, 101):
            u, wu = coherent.laggauss(n)
            u_ref, w_ref = roots_laguerre(n)
            np.testing.assert_allclose(u, u_ref, rtol=1e-12)
            np.testing.assert_allclose(wu, w_ref, rtol=1e-10)

    def test_gram_matches_scipy_rule(self):
        def reference(m, radial, angular):
            u, wu = roots_laguerre(radial)
            k = np.arange(m)
            scale = np.sqrt(factorial(k))
            G = np.zeros((m, m), dtype=complex)
            for ui, wi in zip(u, wu):
                for phi in 2 * np.pi * np.arange(angular) / angular:
                    a = (np.sqrt(ui) * np.exp(1j * phi)) ** k / scale
                    G += (wi / angular) * np.outer(a, a.conj())
            return G

        for m, radial in [(4, 4), (12, 12), (20, 40), (30, 100)]:
            G = coherent._radial_angular_gram(m, radial, 2 * m - 1)
            np.testing.assert_allclose(G, reference(m, radial, 2 * m - 1),
                                       rtol=0, atol=1e-12)

    def test_insufficient_angular_nodes(self, rng):
        fs = gf.build_fock(random_gon(rng, 9, (3, 3, 3)))
        with pytest.raises(InsufficientNodes) as exc:
            gf.quadrature_identity(fs, 4, 3)
        assert exc.value.required_angular == 5

    def test_exact_at_thresholds(self, rng):
        for K, L in [(2, 3), (4, 2), (5, 5)]:
            fs = gf.build_fock(random_gon(rng, K * L, tuple([K] * L)))
            Q = gf.quadrature_identity(fs, max(K, L), max(2 * K - 1, 2 * L - 1))
            assert fro(Q - np.eye(K * L)) <= 1e-10

    @pytest.mark.parametrize("K, L", [(3, 5), (5, 2)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_factorwise_gram_is_the_kronecker_form(self, rng, K, L, order):
        # Gw ⊗ Gz applied one factor at a time, on either memory layout of
        # the columns, against the Gram formed whole
        n = K * L
        left = np.asarray(random_unitary(n, rng), order=order)
        right = np.asarray(random_unitary(n, rng), order=order)
        Gz, Gw = coherent.coefficient_quadrature(K, L, max(K, L), 2 * max(K, L) - 1)
        Q = coherent.pair_quadrature(left, right, K, L, max(K, L), 2 * max(K, L) - 1)
        ref = left @ np.kron(Gw, Gz) @ right.conj().T
        assert np.max(np.abs(Q - ref)) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data(),
           st.integers(0, 2 ** 32 - 1))
    def test_resolution_of_identity_over_any_dual_pair(self, K, L, data, seed):
        # over the columns T_F† and T_G† the exact quadrature is T_F† T_G
        # for any family G of F's shape, so it is I exactly when G is a
        # dual of F: the canonical dual, an alternate one, and not the
        # canonical dual plus a rank-one term inside F's range
        assume(K * L > 1)
        n = data.draw(st.integers(1, min(24, K * L - 1)))
        rng = np.random.default_rng(seed)
        F = random_frame(rng, n, (K,) * L)
        TF = F.matrix

        def quadrature(TG):
            return coherent.pair_quadrature(TF.conj().T, TG.conj().T, K, L,
                                            max(K, L), max(2 * K - 1, 2 * L - 1))

        TG = rng.standard_normal((K * L, n)) + 1j * rng.standard_normal((K * L, n))
        exact = TF.conj().T @ TG
        assert fro(quadrature(TG) - exact) <= 1e-12 * fro(exact)
        I = np.eye(n)
        g0 = random_units(rng, n, 1)[:, 0]
        duals = [gf.canonical_dual(F), duality.construct_alternate_dual(F, g0, seed)]
        for G in duals:
            assert fro(quadrature(G.matrix) - I) <= 1e-12 * fro(I)
        # T_F† (T_D + T_F h g0†) = I + S h g0†, and ||S h|| >= A for unit h
        h = random_units(rng, n, 1)[:, 0]
        near = duals[0].matrix + np.outer(TF @ h, g0.conj())
        assert fro(quadrature(near) - I) >= 0.5 * gf.frame_bounds(F).lower


class TestUncertainty:
    def test_vacuum_exact(self, rng):
        fs = gf.build_fock(random_gon(rng, 9, (3, 3, 3)))
        pa, pb = gf.uncertainty_product(fs, 0, 0)
        assert abs(pa - 0.5) <= 1e-12
        assert abs(pb - 0.5) <= 1e-12

    def test_saturation_at_small_defect(self):
        fs = gf.build_fock(gf.make_gon_basis(40 * 2, (40, 40)))
        # K=40, L=2: w must stay near 0 for the two-block truncation
        pa, pb = gf.uncertainty_product(fs, 1.0, 0.0)
        assert abs(pa - 0.5) <= 1e-8
        assert abs(pb - 0.5) <= 1e-8

    def test_matches_dense_moments(self, rng):
        # the quadrature moments taken from dense q and p on the ambient
        # space; heavy truncation keeps the products away from 1/2
        fs = gf.build_fock(random_gon(rng, 30, (6,) * 5))
        a_c, b_c = dense_lowering(fs.K, fs.L)
        C = fs.basis_columns

        def dense(low, v):
            high = low.conj().T
            q = (low + high) / np.sqrt(2.0)
            p = (low - high) / (np.sqrt(2.0) * 1j)
            spread = []
            for X in (q, p):
                mean = np.vdot(v, X @ v).real
                second = np.vdot(v, X @ (X @ v)).real
                spread.append(np.sqrt(max(second - mean ** 2, 0.0)))
            return spread[0] * spread[1]

        for z, w in [(0.4 + 0.3j, -0.2 + 0.5j), (1.5, 0.9j), (-1.2 - 0.7j, 1.1)]:
            v = gf.coherent_state(fs, z, w, defect_max=1.0).vector
            pa, pb = gf.uncertainty_product(fs, z, w, defect_max=1.0)
            assert pa == pytest.approx(dense(C @ a_c @ C.conj().T, v), rel=1e-12)
            assert pb == pytest.approx(dense(C @ b_c @ C.conj().T, v), rel=1e-12)
        assert abs(pa - 0.5) > 1e-3 and abs(pb - 0.5) > 1e-3

    def test_truncation_rejected(self, rng):
        fs = gf.build_fock(random_gon(rng, 4, (2, 2)))
        with pytest.raises(TruncationTooSevere):
            gf.uncertainty_product(fs, 4.0, 0.0)


class TestBicoherent:
    def test_identity_factor_collapses_to_base_state(self, rng):
        gon = random_gon(rng, 4, (2, 2))
        fam = gf.bicoherent_family(gon, 0.1, 0.05, defect_max=1e-3)
        fs = gf.build_fock(gon)
        c = coherent.coefficient_vector(0.1, 0.05, 2, 2)
        base = fs.basis_columns @ c
        np.testing.assert_allclose(fam.phi, base, atol=1e-10)
        np.testing.assert_allclose(fam.phi_dual, base, atol=1e-10)
        np.testing.assert_allclose(fam.phi_up, base, atol=1e-10)

    def test_dual_and_up_columns_coincide(self, rng):
        riesz, _ = random_riesz(rng, 6, (2, 2, 2))
        fam = gf.bicoherent_family(riesz, 0.2, 0.1, defect_max=1.0)
        v_cols, phi_dual, _, _ = dual_family(riesz, fam, 0.2, 0.1)
        assert fro(v_cols - fam.p_columns) <= 1e-10
        assert np.linalg.norm(fam.phi_up - phi_dual) <= 1e-9

    def test_pairing_is_unity(self, rng):
        riesz, _ = random_riesz(rng, 20, (10, 10))
        fam = gf.bicoherent_family(riesz, 0.3, 0.0, defect_max=1e-10)
        assert abs(np.vdot(fam.phi, fam.phi_up) - 1.0) <= 1e-9

    def test_dual_ladder_equals_up_ladder(self, rng):
        riesz, _ = random_riesz(rng, 6, (2, 2, 2))
        fam = gf.bicoherent_family(riesz, 0.2, 0.1, defect_max=1.0)
        _, _, a_dual, b_dual = dual_family(riesz, fam, 0.2, 0.1)
        assert fro(a_dual - fam.a_up) <= 1e-9 * max(1.0, fro(fam.a_up))
        assert fro(b_dual - fam.b_up) <= 1e-9 * max(1.0, fro(fam.b_up))

    def test_lowering_actions(self, rng):
        riesz, _ = random_riesz(rng, 9, (3, 3, 3))
        fam = gf.bicoherent_family(riesz, 0.1, 0.1, defect_max=1.0)
        v_cols, _, a_dual, _ = dual_family(riesz, fam, 0.1, 0.1)
        K = fam.fock.K
        for l in range(fam.fock.L):
            for k in range(1, K):
                i, j = l * K + k, l * K + k - 1
                np.testing.assert_allclose(
                    fam.a_riesz @ fam.u_columns[:, i],
                    np.sqrt(k) * fam.u_columns[:, j], atol=1e-9)
                np.testing.assert_allclose(
                    a_dual @ v_cols[:, i], np.sqrt(k) * v_cols[:, j], atol=1e-9)

    def test_eigen_relations(self, rng):
        riesz, _ = random_riesz(rng, 8, (4, 4), cond_max=4.0)
        z, w = 0.3, 0.2
        fam = gf.bicoherent_family(riesz, z, w, defect_max=1e-2)
        cond = np.linalg.cond(fam.x_factor)
        c = coherent.coefficient_vector(z, w, fam.fock.K, fam.fock.L)
        # residual dominated by the dropped top level, scaled by cond(X)
        K, L = fam.fock.K, fam.fock.L
        top = np.linalg.norm(c.reshape(L, K)[:, K - 1])
        budget = 10.0 * cond * abs(z) * top + 1e-12
        assert np.linalg.norm(fam.a_riesz @ fam.phi - z * fam.phi) <= budget
        assert np.linalg.norm(fam.a_dual @ fam.phi_dual - z * fam.phi_dual) <= budget
        assert np.linalg.norm(fam.a_up @ fam.phi_up - z * fam.phi_up) <= budget

    def test_bi_quadrature_identities(self, rng):
        riesz, _ = random_riesz(rng, 8, (2, 2, 2, 2), cond_max=5.0)
        fam = gf.bicoherent_family(riesz, 0.1, 0.1, defect_max=1.0)
        K, L = fam.fock.K, fam.fock.L
        rad, ang = max(K, L), max(2 * K - 1, 2 * L - 1)
        B1 = coherent.pair_quadrature(fam.u_columns, fam.v_columns, K, L, rad, ang)
        B2 = coherent.pair_quadrature(fam.u_columns, fam.p_columns, K, L, rad, ang)
        cond = np.linalg.cond(fam.x_factor)
        assert fro(B1 - np.eye(8)) <= 1e-10 * cond ** 2
        assert fro(B2 - np.eye(8)) <= 1e-10 * cond ** 2
        # oracle: the column families are biorthogonal, so the exact value is
        # sum_kl |u><v| = X C C† X^{-1} = identity
        direct = fam.u_columns @ fam.v_columns.conj().T
        assert fro(direct - np.eye(8)) <= 1e-10 * cond ** 2

    def test_polar_factor_identity(self, rng):
        # S X^{-1} = X† for the Hermitian polar factor, since S = X†X
        riesz, _ = random_riesz(rng, 6, (3, 3))
        fam = gf.bicoherent_family(riesz, 0.0, 0.0)
        S = gf.frame_operator(riesz)
        X = fam.x_factor
        assert fro(S @ np.linalg.inv(X) - X.conj().T) <= 1e-9

    def test_columns_against_frame_operator(self, rng):
        # oracles from S = T†T and its eigendecomposition, not from the SVD
        riesz, _ = random_riesz(rng, 12, (3, 3, 3, 3))
        fam = gf.bicoherent_family(riesz, 0.2, 0.1, defect_max=1.0)
        T = np.vstack(riesz.blocks)
        S = gf.frame_operator(riesz)
        np.testing.assert_allclose(fam.u_columns, T.conj().T, atol=1e-13)
        dual = np.linalg.solve(S, fam.u_columns)
        assert fro(fam.v_columns - dual) <= 1e-10 * fro(dual)
        assert fro(fam.p_columns - dual) <= 1e-10 * fro(dual)
        w, Q = np.linalg.eigh(S)
        X = (Q * np.sqrt(w)) @ Q.conj().T
        assert fro(fam.x_factor - X) <= 1e-10 * fro(X)
        C = (T @ np.linalg.solve(X, np.eye(12))).conj().T
        assert fro(fam.fock.basis_columns - C) <= 1e-10 * fro(C)

    def test_ill_conditioned_riesz_basis(self):
        # kappa(S) = 5.8e10 is below 1 / TOL_PD, so the basis is Riesz; the
        # orthonormal basis T S^{-1/2} taken through S loses half the digits
        # and misses the build_fock tolerance, the polar factor does not
        rng = np.random.default_rng(0)
        gon = gf.make_gon_basis(64, (8,) * 8, rotation=random_unitary(64, rng))
        U, V = random_unitary(64, rng), random_unitary(64, rng)
        X = (U * np.geomspace(1.0, 2.4e5, 64)) @ V.conj().T
        riesz = gf.make_griesz(gon, X)
        assert gf.classify(riesz).is_riesz_basis
        fam = gf.bicoherent_family(riesz, 0.1, 0.1, defect_max=1.0)
        assert fro(fam.v_columns.conj().T @ fam.u_columns - np.eye(64)) <= 1e-9
        C = fam.fock.basis_columns
        assert fro(C.conj().T @ C - np.eye(64)) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_riesz_rule_is_scale_invariant(self, scale):
        # the Riesz rule compares ratios of singular values: their squares
        # underflow at 1e-170 and overflow at 1e160
        rng = np.random.default_rng(0)
        gon = gf.make_gon_basis(8, (4, 4), rotation=random_unitary(8, rng))
        G = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        riesz = gf.make_griesz(gon, np.eye(8) + 0.1 * G)
        ref = gf.bicoherent_family(riesz, 0.2, 0.1, defect_max=1.0)
        fam = gf.bicoherent_family(riesz.map_blocks(lambda B: scale * B), 0.2, 0.1,
                                   defect_max=1.0)
        assert fro(fam.v_columns.conj().T @ fam.u_columns - np.eye(8)) <= 1e-12
        assert fro(fam.a_up - ref.a_up) <= 1e-12 * fro(ref.a_up)

    def test_riesz_test_agrees_with_classify(self, rng, mercedes):
        gon = random_gon(rng, 16, (4,) * 4)
        U, V = random_unitary(16, rng), random_unitary(16, rng)
        families = [mercedes,
                    gf.GFrame(4, random_gon(rng, 4, (1,) * 4).blocks[:3]),
                    gf.GFrame(2, mercedes.blocks[:2] + (np.zeros((1, 2)),))]
        # cond(S) = 1e8 and 1e10 are Riesz, 1e14 is not; built directly,
        # since make_griesz rejects the last X by the same frame rule
        for cond_x in (1e4, 1e5, 1e7):
            X = (U * np.geomspace(1.0, cond_x, 16)) @ V.conj().T
            families.append(gf.GFrame(16, tuple(np.split(gon.matrix @ X, 4))))
        for F in families:
            if gf.classify(F).is_riesz_basis:
                gf.bicoherent_family(F, 0.0, 0.0)
            else:
                with pytest.raises(NotRieszBasis):
                    gf.bicoherent_family(F, 0.0, 0.0)
        assert [gf.classify(F).is_riesz_basis for F in families[3:]] == [True, True, False]

    def test_rejects_non_riesz(self, mercedes):
        with pytest.raises(NotRieszBasis):
            gf.bicoherent_family(mercedes, 0.0, 0.0)

    def test_rejects_non_uniform(self, rng):
        riesz, _ = random_riesz(rng, 5, (2, 3))
        with pytest.raises(NonUniformBlocks):
            gf.bicoherent_family(riesz, 0.0, 0.0)


class TestWorkingSet:
    """Each coherent routine holds no n x n array beyond its outputs and one
    operand, measured at K = L = 20 (n = 400) in units of one n x n
    complex array, with the inputs built before tracing starts."""

    K = L = 20
    N = K * L
    UNIT = N * N * np.dtype(np.complex128).itemsize

    def test_bicoherent_family(self, rng):
        riesz, _ = random_riesz(rng, self.N, (self.K,) * self.L, cond_max=3.0)
        peak, _ = traced_peak(lambda: gf.bicoherent_family(riesz, 0.3, 0.2))
        # seven of the eight arrays it returns and the shifted operand of
        # its last ladder product: W and V† are released before the first
        # product, each product conjugates in place, and X is last
        assert peak <= 8.1 * self.UNIT

    def test_ladder_ops(self, rng):
        fs = gf.build_fock(random_gon(rng, self.N, (self.K,) * self.L))
        v = random_units(rng, self.N, 1)[:, 0]

        def apply():
            ops = gf.ladder_ops(fs)
            return ops.a @ v, ops.b @ v

        peak, _ = traced_peak(apply)
        # only vectors: the pair holds C by reference and C† v is formed
        # without copying C
        assert peak < 0.1 * self.UNIT

    def test_ladder_dense(self, rng):
        ops = gf.ladder_ops(gf.build_fock(random_gon(rng, self.N, (self.K,) * self.L)))
        for op in (ops.a, ops.b):
            peak, _ = traced_peak(op.dense)
            # the result and the shifted columns: C† is never copied
            assert peak <= 2.1 * self.UNIT

    def test_quadrature_identity(self, rng):
        fs = gf.build_fock(random_gon(rng, self.N, (self.K,) * self.L))
        peak, Q = traced_peak(lambda: gf.quadrature_identity(fs, self.K, 2 * self.K - 1))
        # the columns with the Gram applied, the adjoint columns and the result
        assert peak <= 3.1 * self.UNIT
        assert fro(Q - np.eye(self.N)) <= 1e-10

    def test_uncertainty_product(self, rng):
        fs = gf.build_fock(random_gon(rng, self.N, (self.K,) * self.L))
        peak, _ = traced_peak(lambda: gf.uncertainty_product(fs, 0.3, 0.2))
        # only vectors: C† v is formed without copying C†
        assert peak < 0.1 * self.UNIT
