"""The three benchmark workloads: their seeded inputs, their cases, and the
numpy oracles that check every output.

A workload object generates its inputs once (set-up) and then hands out
rounds of cases.  `run` performs one case through the package's public
functions and returns its outputs; `check` compares them with references
computed here from the generated matrices, never through gframes, and
returns a list of problems (empty when the case is correct); `fingerprint`
reduces the outputs to a digest so that a traced run can be compared with an
untraced one.

gframes is always reached through module attributes (`frames.classify`, not
a name bound at import) so that the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import inputs as I

GAVRUTA_M = 0.5        # far above sigma_max(I - V) ~ 0.12 for the 0.05/sqrt(n) twins
GAVRUTA_SAMPLES = 1000


@dataclass
class Case:
    label: str          # size class, shared by the same case in every round
    data: dict = field(repr=False)


def _fro(M) -> float:
    return float(np.sqrt(np.sum(np.abs(M) ** 2)))


def _rel(a: float, b: float, scale: float) -> float:
    return abs(a - b) / max(abs(scale), 1e-300)


def _pencil_max(D: np.ndarray, S: np.ndarray) -> float:
    """Largest eigenvalue of the pencil (D†D, S) through a Cholesky whitening."""
    L = np.linalg.cholesky(S)
    Y = np.linalg.solve(L, D.conj().T)     # L^{-1} D†
    M = Y @ Y.conj().T                     # L^{-1} D†D L^{-†}
    return float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[-1])


def _check_bounds(problems, where, lower, upper, T):
    w = np.linalg.eigvalsh(T.conj().T @ T)
    if _rel(lower, max(w[0], 0.0), w[-1]) > 1e-10 or _rel(upper, w[-1], w[-1]) > 1e-10:
        problems.append(f"{where}: bounds ({lower}, {upper}) vs eigvalsh ({w[0]}, {w[-1]})")


def _check_reconstruction(problems, where, T_dual, T, tol):
    err = _fro(T_dual.conj().T @ T - np.eye(T.shape[1]))
    if not err <= tol * np.sqrt(T.shape[1]):
        problems.append(f"{where}: ||T_D^H T_F - I|| = {err:.3e}")


# -- frames-dense -----------------------------------------------------------

class FramesDense:
    """Parseval-normalized random redundant frames, each with a twin
    perturbed by 0.05/sqrt(n); one case runs the whole frame suite."""

    name = "frames-dense"
    in_process = True
    sizes = (("n64", 64, 128, 1, 4), ("n128", 128, 256, 1, 4),
             ("n256", 256, 512, 1, 4), ("tall", 32, 2048, 1, 1))

    def __init__(self, seed: int, workdir: str):
        self.items = []
        parts = []
        for i, (label, n, rows, lo, hi) in enumerate(self.sizes):
            rng = I.rng_for(seed, i)
            dims = I.block_dims(rng, rows, lo, hi)
            T = I.parseval(I.gaussian(rng, rows, n))
            Tt = T + I.gaussian(rng, rows, n, scale=0.05)
            g0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            spec = I.spec_text(I.split(T, dims), f"{label}-frame")
            twin = I.spec_text(I.split(Tt, dims), f"{label}-twin")
            self.items.append(Case(label, dict(
                n=n, dims=dims, T=T, Tt=Tt, g0=g0, f=f, spec=spec, twin=twin,
                alt_seed=int(rng.integers(0, 1 << 16)),
                sample_seed=int(rng.integers(0, 1 << 31)))))
            parts += [spec, twin, g0, f]
        self.sha256 = I.digest(parts)

    def warm_up_case(self) -> Case:
        return self.items[0]

    def round(self) -> list:
        # a fixed order: peak RSS depends on which case follows which
        return list(self.items)

    @staticmethod
    def run(case: Case) -> dict:
        from gframes import duality, frame_io, frames, perturbation
        d = case.data
        F, _ = frame_io.parse_spec(d["spec"])
        G, _ = frame_io.parse_spec(d["twin"])
        out = dict(F=F, G=G)
        out["cls"] = frames.classify(F)
        out["bounds"] = frames.frame_bounds(F)
        D = out["dual"] = frames.canonical_dual(F)
        out["parseval"] = frames.parseval_transform(F)
        A = out["alt"] = duality.construct_alternate_dual(F, d["g0"], seed=d["alt_seed"])
        out["alt_pair"] = frames.check_dual_pair(F, A, tol_eq=1e-9)
        out["gram"] = (duality.gram_characterization(F, D, A),
                       duality.gram_characterization(F, A, D))
        out["norms"] = duality.dual_norm_decomposition(F, A, d["f"])
        out["similar"] = duality.check_similar(D, F)
        out["opt"] = perturbation.optimal_M(F, G)
        out["one_sided"] = perturbation.one_sided_M(F, G)
        out["gav0"] = perturbation.gavruta_check(F, G, GAVRUTA_M, 0.0)
        out["gav1"] = perturbation.gavruta_check(
            F, G, GAVRUTA_M, 0.1, samples=GAVRUTA_SAMPLES, seed=d["sample_seed"])
        out["text"] = frame_io.serialize(D, {"name": f"{case.label}-canonical-dual"})
        return out

    @staticmethod
    def check(case: Case, out: dict) -> list:
        d, p = case.data, []
        T, Tt, n = d["T"], d["Tt"], d["n"]
        if not (np.array_equal(np.vstack(out["F"].blocks), T)
                and np.array_equal(np.vstack(out["G"].blocks), Tt)):
            p.append("parse_spec: blocks differ from the generated matrices")
        _check_bounds(p, "frame_bounds", out["bounds"].lower, out["bounds"].upper, T)
        c = out["cls"]
        expected = dict(is_bessel=True, is_frame=True, is_complete=True,
                        is_orthonormal_set=False, is_on_basis=False, is_riesz_basis=False)
        got = {k: getattr(c, k) for k in expected}
        if got != expected:
            p.append(f"classify: {got} != built {expected}")
        if not out["bounds"].is_parseval:
            p.append("frame_bounds: a Parseval-normalized frame is not reported Parseval")
        T_D = np.vstack(out["dual"].blocks)
        _check_reconstruction(p, "canonical_dual", T_D, T, 1e-10)
        S = T.conj().T @ T
        if _fro(T_D - T @ np.linalg.inv(S)) > 1e-9 * _fro(T_D):
            p.append("canonical_dual: differs from T S^-1")
        T_P = np.vstack(out["parseval"].blocks)
        if _fro(T_P.conj().T @ T_P - np.eye(n)) > 1e-9 * np.sqrt(n):
            p.append("parseval_transform: result is not Parseval")
        T_A = np.vstack(out["alt"].blocks)
        _check_reconstruction(p, "construct_alternate_dual", T_A, T, 1e-9)
        if not _fro(T_A - T_D) > 1e-6:
            p.append("construct_alternate_dual: equals the canonical dual")
        if out["alt_pair"] is not True or out["gram"] != (True, False):
            p.append(f"check_dual_pair/gram_characterization: {out['alt_pair']}, {out['gram']}")
        f = d["f"]
        a, b = T_D @ f, T_A @ f
        ref = (np.vdot(a, a).real, np.vdot(b - a, b - a).real, np.vdot(b, b).real)
        if any(_rel(x, y, ref[2]) > 1e-9 for x, y in zip(out["norms"], ref)):
            p.append(f"dual_norm_decomposition: {out['norms']} vs {ref}")
        X = out["similar"]
        if X is None or _fro(T @ X - T_D) > 1e-8 * _fro(T_D):
            p.append("check_similar: the canonical dual is not recovered as F X")
        D = T - Tt
        m_l, m_t = _pencil_max(D, S), _pencil_max(D, Tt.conj().T @ Tt)
        opt = out["opt"]
        if _rel(opt.m_lambda, m_l, m_l) > 1e-8 or _rel(opt.m_theta, m_t, m_t) > 1e-8:
            p.append(f"optimal_M: ({opt.m_lambda}, {opt.m_theta}) vs ({m_l}, {m_t})")
        if opt.guaranteed_lower > opt.actual_lower * (1 + 1e-12):
            p.append("optimal_M: guaranteed lower bound exceeds the actual one")
        m3, low3 = out["one_sided"]
        low_ref = out["bounds"].lower / (2 * m3 + 2)
        if _rel(m3, m_t, m_t) > 1e-8 or _rel(low3, low_ref, low_ref) > 1e-12:
            p.append(f"one_sided_M: ({m3}, {low3}) vs m = {m_t}")
        V = T.conj().T @ Tt
        s_max = float(np.linalg.svd(np.eye(n) - V, compute_uv=False)[0])
        for key, exact in (("gav0", True), ("gav1", False)):
            g = out[key]
            ok = g.premise_holds and (
                _rel(g.m_measured, s_max, s_max) <= 1e-9 if exact
                else 0.0 <= g.m_measured <= s_max + 1e-12)
            ok = ok and g.guaranteed_lower_theta <= g.actual_lower_theta * (1 + 1e-12)
            if not ok:
                p.append(f"gavruta_check({key}): m={g.m_measured} vs sigma_max={s_max}")
        if not np.array_equal(np.vstack(I.read_spec(out["text"])), T_D):
            p.append("serialize: the written dual does not read back exactly")
        return p

    @staticmethod
    def fingerprint(out: dict) -> str:
        arrays = [np.vstack(out[k].blocks) for k in ("dual", "parseval", "alt")]
        scalars = [out["cls"], out["bounds"], out["alt_pair"], out["gram"], out["norms"],
                   out["opt"], out["one_sided"], out["gav0"].m_measured,
                   out["gav1"].m_measured, out["text"]]
        return I.digest(arrays + [out["similar"]] + scalars)


# -- coherent-fock ----------------------------------------------------------

def _series(z: complex, m: int) -> np.ndarray:
    k = np.arange(m)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, m)))))
    return z ** k / np.exp(logfact / 2.0)


class CoherentFock:
    """Rotated orthonormal operator bases with K = L levels and blocks, plus
    Riesz bases of the same shape (cond <= 10); one case runs the coherent
    suite on the pair."""

    name = "coherent-fock"
    in_process = True
    levels = (12, 16, 20)
    radius = 0.3     # keeps the K = 12 eigen residual ~1e-10, under the 1e-8 check

    def __init__(self, seed: int, workdir: str):
        self.items = []
        parts = []
        for i, K in enumerate(self.levels):
            rng = I.rng_for(seed, 100 + i)
            n = K * K
            U = I.unitary(rng, n)
            R = U @ I.riesz_factor(rng, n)
            r = self.radius * np.sqrt(rng.uniform(0.0, 1.0, (3, 2)))
            phase = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (3, 2)))
            labels = [tuple(complex(x) for x in row) for row in r * phase]
            self.items.append(Case(f"K{K}", dict(K=K, n=n, U=U, R=R, labels=labels)))
            parts += [U, R, np.array(labels)]
        self.sha256 = I.digest(parts)

    def warm_up_case(self) -> Case:
        return self.items[0]

    def round(self) -> list:
        return list(self.items)

    @staticmethod
    def run(case: Case) -> dict:
        from gframes import coherent, frames
        d = case.data
        K, n = d["K"], d["n"]
        gon = frames.GFrame(n, tuple(I.split(d["U"], (K,) * K)))
        riesz = frames.GFrame(n, tuple(I.split(d["R"], (K,) * K)))
        z, w = d["labels"][0]
        out = {}
        fs = out["fock"] = coherent.build_fock(gon)
        out["states"] = [coherent.coherent_state(fs, a, b) for a, b in d["labels"]]
        ops = coherent.ladder_ops(fs)
        v = out["states"][0].vector
        out["residuals"] = (float(np.linalg.norm(ops.a @ v - z * v)),
                            float(np.linalg.norm(ops.b @ v - w * v)))
        out["Q"] = coherent.quadrature_identity(fs, K, 2 * K - 1)
        out["uncertainty"] = coherent.uncertainty_product(fs, z, w)
        out["bicoherent"] = coherent.bicoherent_family(riesz, z, w)
        return out

    @staticmethod
    def check(case: Case, out: dict) -> list:
        d, p = case.data, []
        K, n, U, R = d["K"], d["n"], d["U"], d["R"]
        fs = out["fock"]
        if (fs.K, fs.L) != (K, K) or not np.array_equal(fs.basis_columns, U.conj().T):
            p.append("build_fock: columns are not the conjugated basis rows")
        for (z, w), st in zip(d["labels"], out["states"]):
            c = np.kron(_series(w, K), _series(z, K))
            ref = U.conj().T @ (c / np.linalg.norm(c))
            if np.linalg.norm(st.vector - ref) > 1e-10 or not st.truncation_defect <= 1e-8:
                p.append(f"coherent_state({z}, {w}): vector off by "
                         f"{np.linalg.norm(st.vector - ref):.3e}")
        if not max(out["residuals"]) <= 1e-8:
            p.append(f"ladder_ops: eigen residuals {out['residuals']}")
        err = _fro(out["Q"] - np.eye(n))
        if not err <= 1e-10:
            p.append(f"quadrature_identity: ||Q - I|| = {err:.3e}")
        if not max(abs(x - 0.5) for x in out["uncertainty"]) <= 1e-6:
            p.append(f"uncertainty_product: {out['uncertainty']}")
        fam = out["bicoherent"]
        S = R.conj().T @ R
        X = fam.x_factor
        if _fro(X @ X - S) > 1e-9 * _fro(S):
            p.append("bicoherent_family: x_factor^2 != frame operator")
        bio = _fro(fam.v_columns.conj().T @ fam.u_columns - np.eye(n))
        if not bio <= 1e-8 * np.sqrt(n):
            p.append(f"bicoherent_family: biorthogonality off by {bio:.3e}")
        if (np.linalg.norm(fam.phi_dual - fam.phi_up) > 1e-8 * np.linalg.norm(fam.phi_up)
                or _fro(fam.a_dual - fam.a_up) > 1e-9 * max(1.0, _fro(fam.a_up))):
            p.append("bicoherent_family: dual and inverse-factor families differ")
        return p

    @staticmethod
    def fingerprint(out: dict) -> str:
        fam = out["bicoherent"]
        return I.digest([out["fock"].basis_columns] + [s.vector for s in out["states"]]
                     + [out["residuals"], out["Q"], out["uncertainty"], fam.phi,
                        fam.phi_dual, fam.phi_up, fam.a_riesz, fam.a_dual, fam.x_factor])


# -- cli-mix ----------------------------------------------------------------

class CliMix:
    """A seeded mix of `gframe` invocations on small specs, each a fresh
    `python -m gframes.cli` process (in the traced run, `cli.main` in-process)."""

    name = "cli-mix"
    in_process = False

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        rng = I.rng_for(seed, 200)
        f8 = I.gaussian(rng, 12, 8)
        f8t = f8 + I.gaussian(rng, 12, 8, scale=0.05)
        gon = I.unitary(rng, 64)
        riesz = I.unitary(rng, 4) @ I.riesz_factor(rng, 4)
        # n = 64 with 64 two-row blocks: redundant, so `all` runs alt-dual too
        f64 = I.gaussian(rng, 128, 64)
        self.mats = dict(f8=f8, f8t=f8t, gon=gon, riesz=riesz, f64=f64)
        dims = dict(f8=(2,) * 6, f8t=(2,) * 6, gon=(8,) * 8, riesz=(2, 2), f64=(2,) * 64)
        self.paths, parts = {}, []
        for key, T in self.mats.items():
            text = I.spec_text(I.split(T, dims[key]), key)
            self.paths[key] = os.path.join(workdir, f"{key}.frame")
            with open(self.paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
            parts.append(text)
        z = 0.1 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        w = 0.1 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        cseed = str(int(rng.integers(0, 1000)))
        P, E = self.paths, lambda name: os.path.join(workdir, name)
        specs = [
            ("classify-f8", "f8", ["classify", P["f8"]], None),
            ("dual-f8", "f8", ["dual", P["f8"], "--emit", E("f8.dual")], "dual"),
            ("alt-dual-f8", "f8", ["alt-dual", P["f8"], "--emit", E("f8.alt")], "alt"),
            ("perturb-f8", "f8", ["perturb", P["f8"], P["f8t"]], None),
            ("all-f8", "f8", ["all", P["f8"]], None),
            # `--z=v`: argparse reads a separate "-0.05+0.02j" as an option
            ("coherent-k8", "gon", ["coherent", P["gon"], f"--z={z:.6f}", f"--w={w:.6f}",
                                    "--check", "identity", "--check", "eigen",
                                    "--check", "uncertainty"], None),
            ("all-riesz", "riesz", ["all", P["riesz"]], None),
            ("all-f64", "f64", ["all", P["f64"]], None),
            ("dual-f64", "f64", ["dual", P["f64"], "--emit", E("f64.dual")], "dual"),
        ]
        self.items = [Case(label, dict(spec=spec, argv=argv + ["--seed", cseed], emit=emit))
                      for label, spec, argv, emit in specs]
        self.sha256 = I.digest(parts + [" ".join(c.data["argv"]) for c in self.items])
        self.order_rng = I.rng_for(seed, 1000)

    def warm_up_case(self) -> Case:
        return self.items[0]

    def round(self) -> list:
        return [self.items[i] for i in self.order_rng.permutation(len(self.items))]

    @staticmethod
    def _emitted(case: Case):
        argv = case.data["argv"]
        if "--emit" not in argv:
            return None
        with open(argv[argv.index("--emit") + 1], "rb") as fh:
            return fh.read()

    def run(self, case: Case) -> dict:
        """One `gframe` call as a subprocess, as a user would make it."""
        proc = subprocess.run([sys.executable, "-m", "gframes.cli", *case.data["argv"]],
                              capture_output=True, timeout=120, check=False)
        return dict(code=proc.returncode, stdout=proc.stdout, stderr=proc.stderr,
                    emitted=self._emitted(case))

    def run_in_process(self, case: Case) -> dict:
        """The same call through `cli.main`, for the traced run."""
        from gframes import cli
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(list(case.data["argv"]))
        return dict(code=code, stdout=buf.getvalue().encode(), stderr=err.getvalue().encode(),
                    emitted=self._emitted(case))

    def check(self, case: Case, out: dict) -> list:
        p = []
        if out["code"] != 0:
            return [f"exit code {out['code']}: {out['stderr'][-300:]!r}"]
        try:
            doc = json.loads(out["stdout"])
        except ValueError:
            return ["stdout is not a JSON report"]
        if doc.get("status") != "pass" or not doc.get("checks"):
            p.append(f"status {doc.get('status')!r}, failed checks "
                     f"{[c['name'] for c in doc.get('checks', []) if not c['pass']]}")
        T = self.mats[case.data["spec"]]
        cmd = case.data["argv"][0]
        if cmd in ("classify", "dual", "all"):
            _check_bounds(p, "reported bounds", doc["bounds"]["lower"],
                          doc["bounds"]["upper"], T)
        if cmd in ("classify", "all"):
            riesz = case.data["spec"] == "riesz"
            want = dict(is_frame=True, is_complete=True, is_riesz_basis=riesz,
                        is_on_basis=False, is_orthonormal_set=False)
            got = {k: doc["classification"][k] for k in want}
            if got != want:
                p.append(f"classification {got} != built {want}")
            names = {c["name"] for c in doc["checks"]}
            if cmd == "all" and ("canonical_minimality" in names) == riesz:
                p.append("all: alt-dual suite run on a Riesz basis or skipped on a frame")
        if cmd == "perturb":
            D = T - self.mats["f8t"]
            m_ref = max(_pencil_max(D, T.conj().T @ T),
                        _pencil_max(D, self.mats["f8t"].conj().T @ self.mats["f8t"]))
            if _rel(doc["perturbation"]["m_opt"], m_ref, m_ref) > 1e-8:
                p.append(f"m_opt {doc['perturbation']['m_opt']} vs {m_ref}")
        if cmd == "coherent":
            measured = {c["name"]: c["measured"] for c in doc["checks"]}
            if not (measured.get("quadrature_identity", 1.0) <= 1e-10
                    and measured.get("uncertainty_a", 1.0) <= 1e-6
                    and measured.get("uncertainty_b", 1.0) <= 1e-6):
                p.append(f"coherent checks {measured}")
        if case.data["emit"]:
            if out["emitted"] is None:
                p.append("no emitted dual file")
            else:
                T_D = np.vstack(I.read_spec(out["emitted"].decode()))
                _check_reconstruction(p, f"emitted {case.data['emit']} dual", T_D, T, 1e-9)
                S = T.conj().T @ T
                differs = _fro(T_D - T @ np.linalg.inv(S)) > 1e-6 * _fro(T_D)
                if differs != (case.data["emit"] == "alt"):
                    p.append("emitted dual: canonical/alternate mix-up")
        return p

    @staticmethod
    def fingerprint(out: dict) -> str:
        return I.digest([out["code"], out["stdout"], out["emitted"] or b""])


WORKLOADS = {w.name: w for w in (CliMix, FramesDense, CoherentFock)}
