"""Stability of the frame property under perturbation.

The optimal perturbation constant M is the smallest M with

    sum_i ||(Lambda_i - theta_i) f||^2 <= M * min(sum_i ||Lambda_i f||^2,
                                                  sum_i ||theta_i f||^2)

for all f.  Each one-sided ratio is a generalized Rayleigh quotient of the
pencil (D†D, S), solved by whitening with W = V Sigma^{-1} from the
denominator frame's cached factor (W† S W = I); the two-sided optimum is the
max of the two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateTheta, NotAFrame, PremiseNotVerifiable, ShapeMismatch
from .frames import GFrame, analysis, frame_bounds


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
    guaranteed_lower_theta: float
    actual_lower_theta: float
    guaranteed_lower_lambda: float | None  # n = 0 only
    actual_lower_lambda: float


def _pencil_max(D: np.ndarray, F: GFrame) -> float:
    """Largest eigenvalue of the pencil (D†D, S_F) of a frame F: that of
    the Hermitian W† D†D W, with the whitening W = V Sigma^{-1} of F's
    frame operator."""
    s, Vh, _ = F.spectrum
    DW = D @ (Vh.conj().T / s)
    A = DW.conj().T @ DW
    return float(max(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[-1], 0.0))


def optimal_M(F: GFrame, G: GFrame) -> PerturbationReport:
    """Smallest two-sided perturbation constant for a pair of frames, with the
    guaranteed bounds implied for the perturbed family."""
    if not F.same_shape(G):
        raise ShapeMismatch("perturbation constant needs identical block shapes")
    bF = frame_bounds(F)
    bG = frame_bounds(G)
    if not (bF.is_frame and bG.is_frame):
        raise NotAFrame("optimal_M requires two frames")
    D = analysis(F) - analysis(G)
    m_lambda = _pencil_max(D, F)
    m_theta = _pencil_max(D, G)
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


def one_sided_M(F: GFrame, G: GFrame):
    """One-sided constant with the perturbed family in the denominator, and
    the lower frame bound it guarantees for G once G is Bessel.

    Raises DegenerateTheta when the denominator operator is singular: no
    finite ratio bound can exist."""
    if not F.same_shape(G):
        raise ShapeMismatch("perturbation constant needs identical block shapes")
    bF = frame_bounds(F)
    if not bF.is_frame:
        raise NotAFrame("one_sided_M requires the reference family to be a frame")
    if not frame_bounds(G).is_frame:
        raise DegenerateTheta("denominator frame operator is singular")
    m3 = _pencil_max(analysis(F) - analysis(G), G)
    return m3, bF.lower / (2.0 * m3 + 2.0)


def gavruta_check(F: GFrame, G: GFrame, m: float, n: float,
                  samples: int = 10_000, seed: int = 0) -> GavrutaReport:
    """Verify the closeness premise ||f - Vf|| <= m ||f|| + n ||Vf|| for
    V = T_F† T_G and report the guaranteed lower frame bounds it implies.

    For n = 0 the premise is exactly sigma_max(I - V) <= m; for n != 0 it is
    checked by seeded dense sampling, and a refuting witness raises.  A
    measured constant up to TOL_FLOOR above m is taken as round-off, and the
    bounds use the larger of the two."""
    if not F.same_shape(G):
        raise ShapeMismatch("gavruta_check needs identical block shapes")
    # written to reject NaN, which fails every comparison
    if not m < 1.0:
        raise ValueError("premise requires m < 1")
    if not n > -1.0:
        raise ValueError("premise requires n > -1")
    if samples < 1:
        # an empty sample would report the premise as holding untested
        raise ValueError(f"samples must be positive, got {samples}")
    dim = F.hilbert_dim
    TF = analysis(F)
    TG = analysis(G)
    bF = frame_bounds(F)
    bG = frame_bounds(G)
    B1, B2 = bF.upper, bG.upper
    V = TF.conj().T @ TG

    def excess(f):
        Vf = V @ f
        return np.linalg.norm(f - Vf, axis=0) - n * np.linalg.norm(Vf, axis=0)

    if n == 0.0:
        m_measured, witness = float(np.linalg.norm(np.eye(dim) - V, 2)), None
        what = "sigma_max(I - V) ="
    else:
        m_measured, witness = linalg.sampled_max(
            np.random.default_rng(seed), dim, samples, excess)
        what = "sampled ratio"
    if not linalg.within(m_measured - m, linalg.TOL_FLOOR):
        raise PremiseNotVerifiable(f"{what} {m_measured:.6e} exceeds m={m}",
                                   witness=witness)

    m = max(m, m_measured)
    guaranteed_theta = (1.0 / B1) * ((1.0 - m) / (1.0 + n)) ** 2
    guaranteed_lambda = (1.0 / B2) * (1.0 - m) ** 2 if n == 0.0 else None
    return GavrutaReport(
        m_measured=m_measured,
        premise_holds=True,
        guaranteed_lower_theta=guaranteed_theta,
        actual_lower_theta=bG.lower,
        guaranteed_lower_lambda=guaranteed_lambda,
        actual_lower_lambda=bF.lower,
    )
