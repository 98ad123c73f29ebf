"""Warm-start producers.

Two initializers feed the refinement loop.  The smoothed-label
initializer anchors at a random minority-class point and reads the
target direction off the Chow vector of the smoothed labels; it is
enough whenever the threshold is moderate.  The extreme-threshold
initializer sharpens that direction with a few localized gradient
rounds, using an angle test to pick the localization scale, and is
dispatched when the noise-to-bias ratio swamps the 1/t entry
requirement.
"""

from __future__ import annotations

import math

import numpy as np

from .estimation import empirical_projected_chow
from .geometry import threshold_for_bias, halfspace_bias
from .oracles import (
    MembershipOracle,
    SmallClassOracle,
    localized_query_batch,
    smoothed_query_batch,
)

__all__ = [
    "InitFailure",
    "NoNegativeFound",
    "find_negative_example",
    "init_unextreme",
    "angle_test",
    "init_extreme",
    "use_extreme_init",
    "rejection_acceptance_prob",
]


class InitFailure(RuntimeError):
    """An initialization stage could not complete; callers retry or skip."""


class NoNegativeFound(InitFailure):
    """No minority-label point found within the search cap."""


# m = CHOW_SAMPLE_MULTIPLIER * d * log(1/epsilon) smoothed queries
CHOW_SAMPLE_MULTIPLIER = 60.0
EXTREME_ROUNDS_CAP = 6
ANGLE_TEST_REPEATS = 24
# per-round angle-test samples: ANGLE_SAMPLE_MULTIPLIER * 400 / p_ref,
# sized to resolve p_ref/20, capped to keep one round affordable
ANGLE_SAMPLE_MULTIPLIER = 4.0
ANGLE_SAMPLE_CAP = 250_000
NEGATIVE_SEARCH_CAP = 200_000
# small-class draws used per probability estimate in oracle-aided mode
SMALL_CLASS_PROBE_DRAWS = 400
# step/contraction constants for the extreme initializer's rounds
EXTREME_C1 = 8.01
EXTREME_C2 = 16.0


def use_extreme_init(t: float, epsilon: float, p_hat: float) -> bool:
    """Dispatch rule: the extreme path is needed once the achievable
    warm-start angle eta sqrt(log(1/eta)) exceeds the 1/t entry scale."""
    if t <= 0:
        return False
    eta = epsilon / p_hat
    if eta >= 1.0:
        return False
    return eta * math.sqrt(max(0.0, math.log(1.0 / eta))) > 1.0 / (400.0 * t)


def find_negative_example(
    oracle: MembershipOracle,
    cap: int,
    small_class: SmallClassOracle | None = None,
) -> np.ndarray:
    """First Gaussian point with label -1, by direct search or oracle draw."""
    if small_class is not None:
        return small_class.draw()
    used = 0
    chunk = 256
    while used < cap:
        chunk = min(chunk, cap - used)
        X = oracle.gaussian_points(chunk)
        labels = oracle.query_batch(X)
        used += chunk
        hits = np.flatnonzero(labels == -1)
        if hits.size:
            return X[hits[0]]
        chunk = min(4 * chunk, 1 << 16)
    raise NoNegativeFound(f"no negative label in {cap} queries")


def init_unextreme(
    oracle: MembershipOracle,
    t: float,
    epsilon: float,
    delta: float,
    small_class: SmallClassOracle | None = None,
) -> np.ndarray:
    """Warm start from the Chow vector of smoothed labels at a negative anchor."""
    if t < 0:
        raise ValueError("threshold guess must be non-negative")
    x0 = find_negative_example(oracle, NEGATIVE_SEARCH_CAP, small_class)
    rho = min(1.0 / t, 1.0) if t > 0 else 1.0
    d = oracle.dim
    m = math.ceil(CHOW_SAMPLE_MULTIPLIER * d * math.log(1.0 / epsilon))
    Z = oracle.gaussian_points(m)
    u0 = empirical_projected_chow(
        lambda pts: smoothed_query_batch(oracle, x0, rho, pts), Z
    )
    norm = float(np.linalg.norm(u0))
    if norm < 1e-9:
        raise InitFailure("degenerate smoothed Chow vector")
    return u0 / norm


def rejection_acceptance_prob(v: np.ndarray, s: float, sigma: float, X: np.ndarray) -> np.ndarray:
    """Acceptance probability of the offset-rejection filter at each row of X.

    A standard Gaussian passed through this filter and conditioned on
    acceptance is distributed N(-s v, I - (1 - sigma^2) v v^T).
    """
    if not (0.0 < sigma < 1.0):
        raise ValueError("sigma must lie in (0, 1)")
    proj = np.atleast_2d(X) @ np.asarray(v, dtype=float)
    return np.exp(-(sigma ** -2 - 1.0) * (proj + s / (1.0 - sigma ** 2)) ** 2 / 2.0)


def _small_class_negative_rate(
    small_class: SmallClassOracle,
    v: np.ndarray,
    s: float,
    sigma: float,
    p_hat: float,
) -> float:
    """Estimate Pr(label(A^{1/2}z - sv) = -1) without membership queries.

    The rate equals p q_minus / q where q is the overall acceptance rate
    of the offset-rejection filter and q_minus the acceptance rate among
    negatives; q has a closed form and q_minus is averaged over
    small-class draws.
    """
    X = small_class.draw_batch(SMALL_CLASS_PROBE_DRAWS)
    q_minus = float(np.mean(rejection_acceptance_prob(v, s, sigma, X)))
    q = sigma * math.exp(-(s ** 2) / (2.0 * (1.0 - sigma ** 2)))
    return min(1.0, p_hat * q_minus / q)


def _negative_rate(
    oracle: MembershipOracle,
    w: np.ndarray,
    s: float,
    sigma: float,
    n: int,
    small_class: SmallClassOracle | None,
    p_hat: float | None,
) -> float:
    if small_class is not None and p_hat is not None:
        return _small_class_negative_rate(small_class, w, s, sigma, p_hat)
    labels = localized_query_batch(oracle, w, s, sigma, oracle.gaussian_points(n))
    return float(np.mean(labels == -1))


def angle_test(
    oracle: MembershipOracle,
    w: np.ndarray,
    t: float,
    b: float,
    delta: float,
    rng: np.random.Generator,
    small_class: SmallClassOracle | None = None,
    p_hat: float | None = None,
) -> bool:
    """Test whether b approximates the sine of the angle to the target.

    Repeated rounds draw a random offset s in [a t, a t + b], compare the
    localized negative rate against a third of the reference bias of a
    halfspace with threshold (t - a s)/b, and vote.  True (yes) means b
    is usable as a localization scale.
    """
    if not (0.0 < b < 1.0):
        raise ValueError("b must lie in (0, 1)")
    if t <= 1.0:
        raise ValueError("angle test needs t > 1 (localization scale 1/t)")
    a = math.sqrt(1.0 - b * b)
    sigma = 1.0 / t
    T = ANGLE_TEST_REPEATS
    count = 0
    for _ in range(T):
        s = rng.uniform(a * t, a * t + b)
        p_ref = halfspace_bias((t - a * s) / b)
        n = min(ANGLE_SAMPLE_CAP, math.ceil(ANGLE_SAMPLE_MULTIPLIER * 400.0 / p_ref))
        p_emp = _negative_rate(oracle, w, s, sigma, n, small_class, p_hat)
        if p_emp > p_ref / 3.0:
            count += 1
    return count > 3 * T / 4


def _localized_negative(
    oracle: MembershipOracle,
    w: np.ndarray,
    s: float,
    sigma: float,
    epsilon: float,
    small_class: SmallClassOracle | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """A point z0 whose localized query comes back negative; ``rng``
    flips the acceptance coins of the small-class route."""
    if small_class is not None:
        # filter small-class draws through the offset-rejection procedure;
        # an accepted x maps back to z0 via the inverse localization
        for _ in range(200):
            X = small_class.draw_batch(64)
            accept = rng.random(X.shape[0]) < rejection_acceptance_prob(w, s, sigma, X)
            idx = np.flatnonzero(accept)
            if idx.size:
                x = X[idx[0]]
                shifted = x + s * np.asarray(w, dtype=float)
                return shifted + (1.0 / sigma - 1.0) * float(np.dot(w, shifted)) * w
        raise InitFailure("no small-class draw passed the rejection filter")
    cap = math.ceil(200.0 * math.log(1.0 / epsilon))
    used = 0
    chunk = 64
    while used < cap:
        chunk = min(chunk, cap - used)
        Z = oracle.gaussian_points(chunk)
        labels = localized_query_batch(oracle, w, s, sigma, Z)
        used += chunk
        hits = np.flatnonzero(labels == -1)
        if hits.size:
            return Z[hits[0]]
        chunk = min(4 * chunk, 1 << 14)
    raise InitFailure(f"no localized negative in {cap} queries")


def init_extreme(
    oracle: MembershipOracle,
    t: float,
    epsilon: float,
    p_hat: float,
    delta: float,
    rng: np.random.Generator,
    small_class: SmallClassOracle | None = None,
) -> np.ndarray:
    """Warm start for large thresholds: smoothed-Chow start plus a few
    localized gradient rounds at a scale certified by the angle test.

    Once the smoothed-Chow start exists, a round that cannot go on (no
    scale passes the angle test, a degenerate localized bias, no
    localized negative) ends the rounds and returns the current w.
    """
    w = init_unextreme(oracle, t, epsilon, delta, small_class)
    eta = epsilon / p_hat
    if not (0.0 < eta < 1.0):
        return w
    sigma_i = eta * math.sqrt(max(math.log(1.0 / eta), 0.0))
    if sigma_i <= 0.0:
        return w
    # sweep spacing for the localization-scale search
    step = 1.0 / math.log(1.0 / epsilon)
    mu = (1.0 - 1.0 / EXTREME_C1) * sigma_i
    d = oracle.dim
    for _ in range(EXTREME_ROUNDS_CAP):
        b_hat = None
        b_sweep = 2.0 * sigma_i
        while b_sweep >= 1.0 / t and b_sweep > 0.0:
            if b_sweep < 1.0 and angle_test(oracle, w, t, b_sweep, delta, rng, small_class, p_hat):
                b_hat = b_sweep
                break
            b_sweep -= step
        if b_hat is None:
            return w
        a_hat = math.sqrt(1.0 - b_hat * b_hat)
        s = rng.uniform(a_hat * t, a_hat * t + b_hat)
        # pin down the localized bias to pick the inner localization scale
        p_ref = halfspace_bias((t - a_hat * s) / b_hat)
        n = min(ANGLE_SAMPLE_CAP, math.ceil(ANGLE_SAMPLE_MULTIPLIER * 400.0 / p_ref))
        p_s = _negative_rate(oracle, w, s, 1.0 / t, n, small_class, p_hat)
        if not (0.0 < p_s < 1.0):
            return w
        t_s = threshold_for_bias(p_s)
        if t_s <= 1.0:
            return w
        sigma_in = 1.0 / t_s
        rho = 1.0 / t_s
        try:
            z0 = _localized_negative(oracle, w, s, sigma_in, epsilon, small_class, rng)
        except InitFailure:
            return w
        m = math.ceil(CHOW_SAMPLE_MULTIPLIER * d * math.log(1.0 / epsilon))
        Z = oracle.gaussian_points(m)
        shift = math.sqrt(max(0.0, 1.0 - rho * rho))

        def query_fn(pts: np.ndarray) -> np.ndarray:
            return localized_query_batch(
                oracle, w, s, sigma_in, shift * z0 + rho * pts
            )

        g = empirical_projected_chow(query_fn, Z, exclude=w)
        stepped = w + mu * g
        w = stepped / np.linalg.norm(stepped)
        sigma_i *= 1.0 - 1.0 / EXTREME_C2
        mu = (1.0 - 1.0 / EXTREME_C1) * sigma_i
    return w
