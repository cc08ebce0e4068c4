"""Acceptance suite: one test per release criterion, each printing a single
pass/fail line to the terminal (bypassing capture).

Criterion 11 checks the bi-coherent collapse at the level of states and of
operators.  The operator identities it asserts are the ones the family
promises: the dual and "up" lowering operators coincide, each lowering
operator shifts its own column family, and a_up = S^-1 a_riesz S.  The
further identity a_riesz == a_up holds if and only if [S, a] = 0, so it is
asserted only on Riesz bases whose factor commutes with the lowering map.
"""
import time

import numpy as np
import pytest
import scipy.optimize

import gframes as gf
from gframes import cli, coherent, duality, frame_io, perturbation
from gframes.frames import analysis
from gframes.linalg import fro, random_unitary

from conftest import dual_family, lowered, random_frame, random_riesz


@pytest.fixture
def report(capsys):
    def line(number, label, ok, detail):
        with capsys.disabled():
            print(f"[criterion {number:02d}] "
                  f"{'PASS' if ok else 'FAIL'}  {label}: {detail}", flush=True)
    return line


def twenty_frames():
    rng = np.random.default_rng(11)
    out = []
    for _ in range(20):
        n = int(rng.integers(2, 17))
        J = int(rng.integers(1, 9))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=J))
        while sum(dims) < n:
            dims = dims + (int(rng.integers(1, 4)),)
        out.append(random_frame(rng, n, dims))
    return out


def energy(F, f):
    return sum(float(np.linalg.norm(B @ f) ** 2) for B in F.blocks)


def test_criterion_01_frame_inequality_sampling(report):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for F in twenty_frames():
        b = gf.frame_bounds(F)
        for _ in range(200):
            f = rng.standard_normal(F.hilbert_dim) \
                + 1j * rng.standard_normal(F.hilbert_dim)
            f /= np.linalg.norm(f)
            e = energy(F, f)
            worst = max(worst, b.lower - e, e - b.upper)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "frame-inequality sampling",
           ok, f"worst slack {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_resolution_of_identity(report):
    worst = 0.0
    for F in twenty_frames():
        D = gf.canonical_dual(F)
        I = np.eye(F.hilbert_dim)
        R = sum(B.conj().T @ C for B, C in zip(F.blocks, D.blocks))
        Ra = sum(C.conj().T @ B for B, C in zip(F.blocks, D.blocks))
        worst = max(worst, fro(R - I), fro(Ra - I))
    report(2, "resolution of identity", worst <= 1e-9, f"worst {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_03_canonical_dual_bounds(report):
    worst = 0.0
    for F in twenty_frames():
        b = gf.frame_bounds(F)
        # measured on the dual's matrix: its cached factor is F's
        s = np.linalg.svd(gf.canonical_dual(F).matrix, compute_uv=False)
        worst = max(worst,
                    abs(s[-1] ** 2 - 1.0 / b.upper) * b.upper,
                    abs(s[0] ** 2 - 1.0 / b.lower) * b.lower)
    report(3, "canonical dual bounds", worst <= 1e-8, f"worst rel {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_04_riesz_classification(report):
    rng = np.random.default_rng(4)
    errors = 0
    parseval_worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 13))
        if case % 2 == 0:
            d = int(rng.integers(1, 4))
            while n % d:
                d = int(rng.integers(1, 4))
            F, _ = random_riesz(rng, n, (d,) * (n // d))
            expect = True
        else:
            J = int(rng.integers(2, 7))
            dims = tuple(int(x) for x in rng.integers(1, 4, size=J))
            while sum(dims) <= n:
                dims = dims + (int(rng.integers(1, 4)),)
            F = random_frame(rng, n, dims)
            expect = False
        cls = gf.classify(F)
        if cls.is_riesz_basis != expect or not cls.is_frame:
            errors += 1
        if expect:
            P = gf.parseval_transform(F)
            if not gf.classify(P, tol_eq=1e-9).is_on_basis:
                errors += 1
            S = sum(B.conj().T @ B for B in P.blocks)
            parseval_worst = max(parseval_worst, fro(S - np.eye(n)))
    ok = errors == 0 and parseval_worst <= 1e-9
    report(4, "Riesz classification ground truth",
           ok, f"{errors} errors, Parseval defect {parseval_worst:.2e}")
    assert errors == 0
    assert parseval_worst <= 1e-9


def test_criterion_05_alternate_dual(report):
    rng = np.random.default_rng(5)
    worst_min = -np.inf
    worst_diff = np.inf
    all_dual = all_gram = True
    for trial in range(10):
        n = int(rng.integers(2, 9))
        dims = tuple(int(x) for x in rng.integers(1, 4, size=4))
        while sum(dims) <= n:
            dims = dims + (int(rng.integers(1, 4)),)
        F = random_frame(rng, n, dims)
        g0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        alt = gf.construct_alternate_dual(F, g0, seed=trial)
        can = gf.canonical_dual(F)
        all_dual &= gf.check_dual_pair(F, alt, tol_eq=1e-9)
        worst_diff = min(worst_diff,
                         max(fro(A - C) for A, C in zip(alt.blocks, can.blocks)))
        T_can = analysis(can)
        T_alt = analysis(alt)
        for _ in range(50):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            worst_min = max(worst_min, np.linalg.norm(T_can @ f)
                            - np.linalg.norm(T_alt @ f))
        all_gram &= (gf.gram_characterization(F, can, alt)
                     and not gf.gram_characterization(F, alt, can))
    ok = all_dual and worst_diff > 1e-6 and worst_min <= 1e-10 and all_gram
    report(5, "alternate duals", ok,
           f"duals={all_dual}, min diff {worst_diff:.2e}, "
           f"minimality slack {worst_min:.2e}, gram={all_gram}")
    assert all_dual
    assert worst_diff > 1e-6
    assert worst_min <= 1e-10
    assert all_gram


def brute_force_M(F, G, rng, samples=10_000):
    """Sampled maximization of the perturbation ratio, polished by a local
    optimizer started from the best sample of each one-sided quotient."""
    n = F.hilbert_dim
    TF = analysis(F)
    TG = analysis(G)
    TD = TF - TG
    Fs = rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    num = np.sum(np.abs(TD @ Fs) ** 2, axis=0)
    denF = np.sum(np.abs(TF @ Fs) ** 2, axis=0)
    denG = np.sum(np.abs(TG @ Fs) ** 2, axis=0)

    best = 0.0
    for den in (denF, denG):
        T_den = TF if den is denF else TG

        def neg_ratio(x):
            f = x[:n] + 1j * x[n:]
            return -(np.linalg.norm(TD @ f) ** 2
                     / np.linalg.norm(T_den @ f) ** 2)

        f0 = Fs[:, int(np.argmax(num / den))]
        x0 = np.concatenate([f0.real, f0.imag])
        res = scipy.optimize.minimize(neg_ratio, x0, method="BFGS",
                                      options={"gtol": 1e-12, "maxiter": 500})
        best = max(best, -res.fun, float(np.max(num / den)))
    return best


def test_criterion_06_optimal_perturbation_constant(report):
    rng = np.random.default_rng(6)
    worst_rel = 0.0
    worst_slack = -np.inf
    for _ in range(10):
        F = random_frame(rng, 4, (2, 2, 1))
        G = random_frame(rng, 4, (2, 2, 1))
        rep = gf.optimal_M(F, G)
        brute = brute_force_M(F, G, rng)
        worst_rel = max(worst_rel, abs(brute - rep.m_opt) / rep.m_opt)
        worst_slack = max(worst_slack, rep.guaranteed_lower - rep.actual_lower)
    ok = worst_rel <= 1e-5 and worst_slack <= 1e-12
    report(6, "optimal perturbation constant", ok,
           f"worst rel dev {worst_rel:.2e}, bound slack {worst_slack:.2e}")
    assert worst_rel <= 1e-5
    assert worst_slack <= 1e-12


def test_criterion_07_gavruta_bounds(report):
    rng = np.random.default_rng(7)
    ok = True
    worst_m = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 9))
        dims = (2,) * int(np.ceil(n / 2) + 1)
        F = random_frame(rng, n, dims)
        D = gf.canonical_dual(F)
        eps = 0.02
        G = D.map_blocks(
            lambda B: B + eps * (rng.standard_normal(B.shape)
                                 + 1j * rng.standard_normal(B.shape)))
        V = analysis(F).conj().T @ analysis(G)
        m = float(np.linalg.norm(np.eye(n) - V, 2))
        assert m < 1.0
        worst_m = max(worst_m, m)
        rep = gf.gavruta_check(F, G, m=m + 1e-12, n=0.0)
        ok &= rep.premise_holds
        ok &= rep.guaranteed_lower_theta <= rep.actual_lower_theta + 1e-12
        ok &= rep.guaranteed_lower_lambda <= rep.actual_lower_lambda + 1e-12
        ok &= rep.norm_v <= rep.norm_v_bound + 1e-9
    report(7, "perturbation lower bounds and norm bound", ok,
           f"10 pairs, largest premise constant {worst_m:.3f}")
    assert ok


def test_criterion_08_quadrature_identity_grid(report):
    start = time.perf_counter()
    worst = 0.0
    for K in range(1, 6):
        for L in range(1, 6):
            fs = coherent.build_fock(gf.make_gon_basis(K * L, (K,) * L))
            radial = max(K, L)
            angular = max(2 * K - 1, 2 * L - 1)
            Q = coherent.quadrature_identity(fs, radial, angular)
            worst = max(worst, fro(Q - np.eye(K * L)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(8, "resolution of identity by quadrature", ok,
           f"worst {worst:.2e} over 25 truncations, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_09_eigen_relations(report):
    K = L = 30
    fs = coherent.build_fock(gf.make_gon_basis(K * L, (K,) * L))
    ops = coherent.ladder_ops(fs)
    worst = 0.0
    for z, w in [(1.0, 1.0j), (0.6 * np.exp(0.4j), -0.9),
                 (1j, 0.3 - 0.2j), (-0.8 + 0.59j, np.exp(2.2j))]:
        state = coherent.coherent_state(fs, z, w, defect_max=1e-12)
        v = state.vector
        worst = max(worst,
                    float(np.linalg.norm(ops.a @ v - z * v)),
                    float(np.linalg.norm(ops.b @ v - w * v)))
    report(9, "lowering-pair eigen-relations", worst <= 1e-10,
           f"worst residual {worst:.2e} at K = L = {K}")
    assert worst <= 1e-10


def test_criterion_10_uncertainty_saturation(report):
    K = L = 25
    fs = coherent.build_fock(gf.make_gon_basis(K * L, (K,) * L))
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        z = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        w = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        pa, pb = coherent.uncertainty_product(fs, z, w, defect_max=1e-10)
        worst = max(worst, abs(pa - 0.5), abs(pb - 0.5))
    p0a, p0b = coherent.uncertainty_product(fs, 0.0, 0.0)
    vac = max(abs(p0a - 0.5), abs(p0b - 0.5))
    ok = worst <= 1e-6 and vac <= 1e-12
    report(10, "uncertainty saturation", ok,
           f"worst dev {worst:.2e}, vacuum dev {vac:.2e}")
    assert worst <= 1e-6
    assert vac <= 1e-12


def rel(A, B):
    return fro(A - B) / fro(B)


def commuting_riesz(rng, K, L, cond_max=10.0):
    """Riesz basis theta_j X with X = C (M kron I_K) C†, M Hermitian positive
    definite: X acts on the block index only, so it commutes with the
    lowering map a of the orthonormal basis (but not with b)."""
    gon = gf.make_gon_basis(K * L, (K,) * L, rotation=random_unitary(K * L, rng))
    C = coherent.build_fock(gon).basis_columns
    Q = random_unitary(L, rng)
    M = (Q * np.exp(rng.uniform(0.0, np.log(cond_max), L))) @ Q.conj().T
    return gf.make_griesz(gon, C @ np.kron(M, np.eye(K)) @ C.conj().T)


def test_criterion_11_bicoherent_collapse(report):
    rng = np.random.default_rng(1100)
    worst_collapse = worst_pairing = worst_quad = 0.0
    worst_dual_up = worst_shift = worst_similar = generic_gap = 0.0
    for _ in range(10):
        riesz, _ = random_riesz(rng, 16, (4, 4, 4, 4))
        fam = gf.bicoherent_family(riesz, 0.05, 0.05)
        # the family returns its dual fields as the "up" arrays themselves,
        # so the dual side is derived from its definition, S^-1 X† t
        v_cols, phi_dual, a_dual, b_dual = dual_family(riesz, fam, 0.05, 0.05)
        worst_collapse = max(worst_collapse,
                             float(np.linalg.norm(fam.phi_up - phi_dual)),
                             rel(v_cols, fam.p_columns))
        worst_pairing = max(worst_pairing,
                            abs(np.vdot(fam.phi, fam.phi_up) - 1.0))
        K, L = fam.fock.K, fam.fock.L
        Q = coherent.pair_quadrature(fam.u_columns, v_cols, K, L,
                                     max(K, L), max(2 * K - 1, 2 * L - 1))
        worst_quad = max(worst_quad, fro(Q - np.eye(16)))
        # (i) operator form of phi_dual == phi_up
        worst_dual_up = max(worst_dual_up, rel(a_dual, fam.a_up),
                            rel(b_dual, fam.b_up))
        # (ii) each operator lowers its own column family
        for a_op, b_op, cols in ((fam.a_riesz, fam.b_riesz, fam.u_columns),
                                 (a_dual, b_dual, v_cols),
                                 (fam.a_up, fam.b_up, fam.p_columns)):
            worst_shift = max(worst_shift,
                              rel(a_op @ cols, lowered(cols, K, L, "a")),
                              rel(b_op @ cols, lowered(cols, K, L, "b")))
        # (iii) the Riesz and "up" operators are similar through S
        S = gf.frame_operator(riesz)
        worst_similar = max(worst_similar,
                            rel(np.linalg.solve(S, fam.a_riesz @ S), fam.a_up))
        # a_riesz == a_up needs [S, a] = 0, which a generic basis lacks
        generic_gap = max(generic_gap, rel(fam.a_riesz, fam.a_up))

    worst_commuting = 0.0
    least_b_gap = np.inf
    for _ in range(10):
        fam = gf.bicoherent_family(commuting_riesz(rng, 4, 4), 0.05, 0.05)
        worst_commuting = max(worst_commuting, rel(fam.a_riesz, fam.a_up))
        least_b_gap = min(least_b_gap, rel(fam.b_riesz, fam.b_up))

    ok = (worst_collapse <= 1e-9 and worst_pairing <= 1e-9
          and worst_quad <= 1e-8 and worst_dual_up <= 1e-9
          and worst_shift <= 1e-9 and worst_similar <= 1e-9
          and worst_commuting <= 1e-9 and least_b_gap > 1e-3)
    report(11, "bi-coherent collapse", ok,
           f"state collapse {worst_collapse:.2e}, pairing {worst_pairing:.2e}, "
           f"bi-quadrature {worst_quad:.2e}, dual/up ladder {worst_dual_up:.2e}, "
           f"lowering oracle {worst_shift:.2e}, S-similarity {worst_similar:.2e}, "
           f"commuting-factor ladder {worst_commuting:.2e} "
           f"(b gap {least_b_gap:.2f}); generic riesz/up gap {generic_gap:.2f} "
           f"(information only)")
    assert worst_collapse <= 1e-9
    assert worst_pairing <= 1e-9
    assert worst_quad <= 1e-8
    # With X = S^{1/2}, a_riesz = X a X^-1 and a_up = X^-1 a X; any other
    # factor U S^{1/2} (U unitary) gives the same pair, so the operators the
    # family promises to agree are a_dual = S^-1 a_riesz S and a_up.
    assert worst_dual_up <= 1e-9
    assert worst_shift <= 1e-9
    assert worst_similar <= 1e-9
    # a_riesz == a_up holds if and only if [S, a] = 0: asserted on bases
    # whose factor commutes with a, where b_riesz and b_up still differ.
    assert worst_commuting <= 1e-9
    assert least_b_gap > 1e-3


def test_criterion_12_roundtrip_and_determinism(report, tmp_path, capsys):
    rng = np.random.default_rng(12)
    exact = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=rng.integers(1, 5)))
        F = gf.GFrame(n, tuple(
            rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
            for d in dims))
        G, _ = frame_io.parse_spec(frame_io.serialize(F))
        exact &= all(np.array_equal(B, C)
                     for B, C in zip(F.blocks, G.blocks))

    subject = tmp_path / "subject.frame"
    frame_io.save(subject, random_frame(rng, 5, (2, 2, 2)), {"name": "probe"})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["all", str(subject), "--seed", "3", "--out", str(a)]) == 0
    assert cli.main(["all", str(subject), "--seed", "3", "--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    ok = exact and identical
    report(12, "round-trip and determinism", ok,
           f"lossless={exact}, byte-identical reports={identical}")
    assert exact
    assert identical
