"""Closed-form Gaussian/halfspace primitives.

Everything here is a pure function of its arguments: halfspace bias and
its inverse, the disagreement mass of two halfspaces, Chow vectors,
the orthonormal span of one or two directions and the lift of span
coordinates to a full Gaussian point, and the two exact halfspace
transforms (localization and smoothing) the learner is built on.
Boundary ties resolve to +1 everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtr, ndtri, owens_t

__all__ = [
    "Halfspace",
    "halfspace_bias",
    "threshold_for_bias",
    "disagreement_mass",
    "komatsu_bounds",
    "chow_vector",
    "span_basis",
    "lift",
    "localize_halfspace",
    "sqrt_localization_apply",
    "smoothed_halfspace",
    "sign_labels",
]

_UNIT_TOL = 1e-9


def sign_labels(values: np.ndarray | float) -> np.ndarray | int:
    """Sign with the +1 tie convention: sign(0) := +1."""
    if isinstance(values, np.ndarray):
        return np.where(values >= 0, 1, -1)
    return 1 if values >= 0 else -1


def _as_unit(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    n = np.linalg.norm(w)
    if not np.isfinite(n) or abs(n - 1.0) > 1e-7:
        raise ValueError(f"expected a unit vector, got norm {n!r}")
    return w / n


@dataclass(frozen=True)
class Halfspace:
    """sign(w . x + t) with unit weight vector w and threshold t."""

    w: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "w", _as_unit(self.w))
        if not np.isfinite(self.t):
            raise ValueError("threshold must be finite")

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return X @ self.w + self.t

    def __call__(self, X: np.ndarray) -> np.ndarray | int:
        """Labels in {-1, +1}; X may be a single point or an (n, d) batch."""
        return sign_labels(self.margins(X))

    def flipped(self) -> "Halfspace":
        """The complementary halfspace sign(-w . x - t)."""
        return Halfspace(-self.w, -self.t)


def halfspace_bias(t: float) -> float:
    """Pr_{x ~ N(0,I)}(sign(w.x + t) = -1) = Phi(-t)."""
    if not np.isfinite(t):
        raise ValueError("threshold must be finite")
    # Phi(-t) = erfc(t / sqrt(2)) / 2; erfc keeps full relative accuracy
    # in the far tail, which matters since t can reach sqrt(log(1/eps)).
    return 0.5 * float(erfc(t / math.sqrt(2.0)))


def threshold_for_bias(p: float) -> float:
    """Inverse of halfspace_bias on (0, 1): t = -Phi^{-1}(p)."""
    if not (0.0 < p < 1.0):
        raise ValueError("bias must lie in (0, 1)")
    return -float(ndtri(p))


def disagreement_mass(h1: Halfspace, h2: Halfspace) -> float:
    """Pr_{x ~ N(0,I)}(h1(x) != h2(x)) = Phi(-t1) + Phi(-t2) - 2 Phi_2(-t1, -t2; w1.w2).

    Phi_2 is the bivariate normal CDF by Owen's (1956) T function.  Its
    terms need s = sqrt(1 - rho^2) and 1 - rho, which are taken from
    differences of the directions so that nearly parallel pairs keep
    their digits.
    """
    u1, u2 = h1.w, h2.w
    rho = float(np.clip(u1 @ u2, -1.0, 1.0))
    s = float(np.linalg.norm(u2 - rho * u1))
    if h1.t == 0.0 and h2.t == 0.0:
        return math.atan2(s, rho) / math.pi
    a, b = -h1.t, -h2.t
    if s == 0.0:
        # parallel: Y = X; antipodal: Y = -X
        both = ndtr(min(a, b)) if rho > 0 else max(0.0, ndtr(a) - ndtr(-b))
    else:
        gap = 0.5 * float(np.sum((u1 - u2) ** 2))

        def t_term(x: float, y: float) -> float:
            # T(x, (y - rho x) / (x s)), whose limit at x = 0 is sign(y) / 4;
            # y - rho x = (y - x) + (1 - rho) x keeps its digits when rho ~ 1
            if x == 0.0:
                return math.copysign(0.25, y)
            return owens_t(x, ((y - x) + gap * x) / (x * s))

        beta = 0.0 if a * b > 0 or (a * b == 0 and a + b >= 0) else 0.5
        both = 0.5 * (ndtr(a) + ndtr(b)) - t_term(a, b) - t_term(b, a) - beta
    return max(0.0, float(ndtr(a) + ndtr(b) - 2.0 * both))


def komatsu_bounds(t: float) -> tuple[float, float]:
    """Two-sided Gaussian tail sandwich for halfspace_bias(t), t >= 0."""
    if t < 0:
        raise ValueError("komatsu_bounds requires t >= 0")
    c = math.sqrt(2.0 / math.pi) * math.exp(-t * t / 2.0)
    lower = c / (t + math.sqrt(t * t + 4.0))
    upper = c / (t + math.sqrt(t * t + 2.0))
    return lower, upper


def chow_vector(h: Halfspace) -> np.ndarray:
    """E_{z ~ N(0,I)}[z h(z)] = sqrt(2/pi) exp(-t^2/2) w."""
    return math.sqrt(2.0 / math.pi) * math.exp(-h.t * h.t / 2.0) * h.w


def span_basis(w: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal rows spanning the unit vector w and, when given, the
    unit vector v (v first): v, then w's part off v, orthogonalized
    twice, unless that part is at most 1e-12, when v alone is returned."""
    if v is None:
        return w[None, :]
    u = w - (w @ v) * v
    u -= (u @ v) * v
    norm = math.sqrt(u @ u)
    return v[None, :] if norm <= 1e-12 else np.array([v, u / norm])


def lift(P: np.ndarray, E: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The rows whose coordinates in the orthonormal rows E are P and
    whose part off span(E) is G's: P @ E + G - (G @ E^T) @ E.

    For G with N(0, I) rows, the part off span(E) is independent of the
    coordinates in E, so each result row has the law of N(0, I)
    conditioned on its coordinates in E being the row of P.  P is (n, k)
    and G (n, d), or one row each.
    """
    X = P @ E
    X += G - (G @ E.T) @ E
    return X


def sqrt_localization_apply(v: np.ndarray, sigma: float, z: np.ndarray) -> np.ndarray:
    """Apply A^{1/2} = I - (1 - sigma) v v^T to z (single point or (n, d) batch)."""
    if not (0.0 < sigma <= 1.0):
        raise ValueError("sigma must lie in (0, 1]")
    z = np.asarray(z, dtype=float)
    out = np.multiply.outer(z @ v, (sigma - 1.0) * np.asarray(v, dtype=float))
    out += z
    return out


def localize_halfspace(h: Halfspace, v: np.ndarray, s: float, sigma: float) -> Halfspace:
    """The halfspace l with l(z) = h(A^{1/2} z - s v), A = I - (1 - sigma^2) v v^T."""
    if not (0.0 < sigma < 1.0):
        raise ValueError("sigma must lie in (0, 1)")
    E = span_basis(h.w, np.asarray(v, dtype=float))
    # h.w's coordinates (h.w . v, its part off v), the second stretched by 1 / sigma
    c = E @ h.w
    c[1:] /= sigma
    norm = float(np.linalg.norm(c))
    return Halfspace(c @ E / norm, ((h.t - c[0] * s) / sigma) / norm)


def smoothed_halfspace(h: Halfspace, x0: np.ndarray, rho: float) -> Halfspace:
    """The halfspace in z equal to h(sqrt(1 - rho^2) x0 + rho z)."""
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    shift = math.sqrt(max(0.0, 1.0 - rho * rho)) * float(np.dot(h.w, np.asarray(x0, dtype=float)))
    return Halfspace(h.w, (h.t + shift) / rho)
