"""Correctness references for the benchmark, computed apart from halfspace_lab.

Nothing here imports the package under test: each quantity the benchmark
checks a run against is derived from its own closed form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, ndtr, owens_t


def bivariate_normal_cdf(
    h: float, k: float, rho: float, s: float | None = None, gap: float | None = None
) -> float:
    """P(X < h, Y < k) for standard normals X, Y with correlation rho.

    Owen's (1956) reduction to the T function.  ``s`` = sqrt(1 - rho^2)
    and ``gap`` = 1 - rho may be passed when they are known to more digits
    than rho itself carries, as for nearly parallel directions.
    """
    if s is None:
        s = math.sqrt(max(0.0, 1.0 - rho * rho))
    if gap is None:
        gap = 1.0 - rho
    if s == 0.0:
        # degenerate: Y = X or Y = -X
        if rho > 0:
            return float(ndtr(min(h, k)))
        return max(0.0, float(ndtr(h) - ndtr(-k)))
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)

    def t_term(a: float, b: float) -> float:
        # T(a, (b - rho a) / (a s)), with its limit 1/4 sign(b) at a = 0;
        # b - rho a = (b - a) + gap a keeps its digits when rho ~ 1 and b ~ a
        if a == 0.0:
            return 0.25 * math.copysign(1.0, b)
        return float(owens_t(a, ((b - a) + gap * a) / (a * s)))

    beta = 0.0 if (h * k > 0 or (h * k == 0 and h + k >= 0)) else 0.5
    return float(0.5 * (ndtr(h) + ndtr(k)) - t_term(h, k) - t_term(k, h) - beta)


def disagreement(w1: np.ndarray, t1: float, w2: np.ndarray, t2: float) -> float:
    """Exact Gaussian mass where sign(w1.x + t1) and sign(w2.x + t2) differ.

    Only (w1.x, w2.x) matters, a standard bivariate normal in span(w1, w2)
    with correlation w1.w2; the mass is Phi(-t1) + Phi(-t2) - 2 P(both
    negative).  Weight vectors need not be unit length.
    """
    u1 = np.asarray(w1, dtype=float) / np.linalg.norm(w1)
    u2 = np.asarray(w2, dtype=float) / np.linalg.norm(w2)
    t1 = float(t1) / float(np.linalg.norm(w1))
    t2 = float(t2) / float(np.linalg.norm(w2))
    rho = float(np.clip(np.dot(u1, u2), -1.0, 1.0))
    # sqrt(1 - rho^2) and 1 - rho from differences of the directions keep
    # their digits when rho ~ 1
    s = float(np.linalg.norm(u2 - rho * u1))
    gap = 0.5 * float(np.dot(u1 - u2, u1 - u2))
    both_negative = bivariate_normal_cdf(-t1, -t2, rho, s, gap)
    return max(0.0, float(ndtr(-t1) + ndtr(-t2)) - 2.0 * both_negative)


def single_point_capture(x: np.ndarray, t: float) -> float:
    """P(w.x + t < 0) for w uniform on the unit sphere of R^d, d >= 2.

    w.x / |x| has the law of 2B - 1 with B ~ Beta((d-1)/2, (d-1)/2), so
    the probability is I_{(1 - t/|x|)/2}((d-1)/2, (d-1)/2).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return 1.0 if t < 0 else 0.0
    z = min(1.0, max(0.0, 0.5 * (1.0 - t / r)))
    a = 0.5 * (d - 1)
    return float(betainc(a, a, z))


def negative_mask(points: np.ndarray, w: np.ndarray, t: float) -> np.ndarray:
    """Rows with w.x + t < 0: label -1 under the +1-at-zero tie rule."""
    margins = np.einsum("ij,j->i", np.asarray(points, dtype=float), np.asarray(w, dtype=float))
    return margins + t < 0.0
