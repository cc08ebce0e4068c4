"""Stability of the frame property under perturbation.

The optimal perturbation constant M is the smallest M with

    sum_i ||(Lambda_i - theta_i) f||^2 <= M * min(sum_i ||Lambda_i f||^2,
                                                  sum_i ||theta_i f||^2)

for all f.  Each one-sided ratio is a generalized Rayleigh quotient of the
pencil (D†D, S), solved by whitening with the inverse square root of the
denominator operator; the two-sided optimum is the max of the two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DegenerateTheta,
    NotAFrame,
    PremiseNotVerifiable,
    ShapeMismatch,
)
from .frames import GFrame, analysis, frame_bounds, frame_operator


@dataclass(frozen=True)
class PerturbationReport:
    m_lambda: float
    m_theta: float
    m_opt: float
    guaranteed_lower: float   # A / (2 M + 2) for the perturbed family
    guaranteed_upper: float   # 2 B (M + 1)
    actual_lower: float
    actual_upper: float


@dataclass(frozen=True)
class GavrutaReport:
    m_measured: float          # sup_f (||(I-V)f|| - n ||Vf||) / ||f||
    premise_holds: bool
    vacuous: bool              # m < 0 input: vacuously strong premise
    norm_v: float
    norm_v_bound: float        # sqrt(B1 * B2)
    guaranteed_lower_theta: float
    actual_lower_theta: float
    guaranteed_lower_lambda: float | None  # n = 0 only
    actual_lower_lambda: float


def _whitened_max_eig(D: np.ndarray, S: np.ndarray):
    """Largest eigenvalue and maximizer of the pencil (D†D, S)."""
    S_is = linalg.herm_func(S, "inv_sqrt")
    A = S_is @ (D.conj().T @ D) @ S_is
    w, Q = linalg.herm_eig(A)
    f = S_is @ Q[:, -1]
    return float(max(w[-1], 0.0)), f / np.linalg.norm(f)


def optimal_M(F: GFrame, G: GFrame) -> PerturbationReport:
    """Smallest two-sided perturbation constant for a pair of frames, with the
    guaranteed bounds implied for the perturbed family."""
    if not F.same_shape(G):
        raise ShapeMismatch("perturbation constant needs identical block shapes")
    bF = frame_bounds(F)
    bG = frame_bounds(G)
    if not (bF.is_frame and bG.is_frame):
        raise NotAFrame("optimal_M requires two frames")
    D = analysis(F).matrix - analysis(G).matrix
    m_lambda, _ = _whitened_max_eig(D, frame_operator(F))
    m_theta, _ = _whitened_max_eig(D, frame_operator(G))
    m_opt = max(m_lambda, m_theta)
    return PerturbationReport(
        m_lambda=m_lambda,
        m_theta=m_theta,
        m_opt=m_opt,
        guaranteed_lower=bF.lower / (2.0 * m_opt + 2.0),
        guaranteed_upper=2.0 * bF.upper * (m_opt + 1.0),
        actual_lower=bG.lower,
        actual_upper=bG.upper,
    )


def perturbation_maximizer(F: GFrame, G: GFrame, side: str = "lambda"):
    """Unit vector attaining the one-sided perturbation ratio; exposed so
    tests can confirm the eigenvalue answer against direct evaluation."""
    D = analysis(F).matrix - analysis(G).matrix
    S = frame_operator(F) if side == "lambda" else frame_operator(G)
    _, f = _whitened_max_eig(D, S)
    return f


def one_sided_M(F: GFrame, G: GFrame, tol_pd: float = linalg.TOL_PD):
    """One-sided constant with the perturbed family in the denominator, and
    the lower frame bound it guarantees for G once G is Bessel.

    Raises DegenerateTheta when the denominator operator is singular: no
    finite ratio bound can exist."""
    if not F.same_shape(G):
        raise ShapeMismatch("perturbation constant needs identical block shapes")
    bF = frame_bounds(F)
    if not bF.is_frame:
        raise NotAFrame("one_sided_M requires the reference family to be a frame")
    S_G = frame_operator(G)
    w, _ = linalg.herm_eig(S_G)
    if w[0] <= tol_pd * max(w[-1], 0.0):
        raise DegenerateTheta("denominator frame operator is singular")
    D = analysis(F).matrix - analysis(G).matrix
    m3, _ = _whitened_max_eig(D, S_G)
    return m3, bF.lower / (2.0 * m3 + 2.0)


_SAMPLE_CHUNK = 4096


def _sampled_premise(V: np.ndarray, n: float, samples: int, seed: int):
    """Largest sampled ||f - Vf|| - n ||Vf|| over random unit f, floored at
    0, with its first maximizer (None when nothing exceeds 0).

    The samples are drawn and evaluated in chunks, each with one product;
    chunked draws consume the stream of one draw of all samples, and the
    chunks bound the memory."""
    rng = np.random.default_rng(seed)
    best, witness = 0.0, None
    for start in range(0, samples, _SAMPLE_CHUNK):
        F = linalg.random_units(rng, V.shape[0], min(_SAMPLE_CHUNK, samples - start))
        VF = V @ F
        r = np.linalg.norm(F - VF, axis=0) - n * np.linalg.norm(VF, axis=0)
        i = int(np.argmax(r))
        if r[i] > best:
            best, witness = float(r[i]), F[:, i].copy()
    return best, witness


def gavruta_check(F: GFrame, G: GFrame, m: float, n: float,
                  samples: int = 10_000, seed: int = 0,
                  tol: float = 1e-9) -> GavrutaReport:
    """Verify the closeness premise ||f - Vf|| <= m ||f|| + n ||Vf|| for
    V = T_F† T_G and report the guaranteed lower frame bounds it implies.

    For n = 0 the premise is exactly sigma_max(I - V) <= m; for n != 0 it is
    checked by seeded dense sampling, and a refuting witness raises."""
    if not F.same_shape(G):
        raise ShapeMismatch("gavruta_check needs identical block shapes")
    if m >= 1.0:
        raise ValueError("premise requires m < 1")
    if n <= -1.0:
        raise ValueError("premise requires n > -1")
    if samples < 1:
        # an empty sample would report the premise as holding untested
        raise ValueError(f"samples must be positive, got {samples}")
    dim = F.hilbert_dim
    TF = analysis(F).matrix
    TG = analysis(G).matrix
    bF = frame_bounds(F)
    bG = frame_bounds(G)
    B1, B2 = bF.upper, bG.upper
    V = TF.conj().T @ TG
    I = np.eye(dim)
    norm_v = linalg.opnorm(V)

    if n == 0.0:
        m_measured = linalg.opnorm(I - V)
    else:
        m_measured, witness = _sampled_premise(V, n, samples, seed)
        if m_measured > m + tol:
            raise PremiseNotVerifiable(
                f"sampled ratio {m_measured:.6e} exceeds m={m}", witness=witness
            )
    if n == 0.0 and m_measured > m + tol:
        raise PremiseNotVerifiable(
            f"sigma_max(I - V) = {m_measured:.6e} exceeds m={m}"
        )

    guaranteed_theta = (1.0 / B1) * ((1.0 - m) / (1.0 + n)) ** 2
    guaranteed_lambda = (1.0 / B2) * (1.0 - m) ** 2 if n == 0.0 else None
    return GavrutaReport(
        m_measured=float(m_measured),
        premise_holds=True,
        vacuous=m < 0.0,
        norm_v=norm_v,
        norm_v_bound=float(np.sqrt(B1 * B2)),
        guaranteed_lower_theta=guaranteed_theta,
        actual_lower_theta=bG.lower,
        guaranteed_lower_lambda=guaranteed_lambda,
        actual_lower_lambda=bF.lower,
    )
