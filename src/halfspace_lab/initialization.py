"""Warm-start producer.

One initializer feeds the refinement loop at every threshold.  It
anchors at a minority-class point and reads the target direction off
the Chow vector of the smoothed labels there.  A start too far off for
the descent's entry scale is caught by the descent's certified entry
test, and the learner then retries one grid point down.  The angle
test, which checks a candidate localization scale against the
localized negative rate, stays as a standalone routine.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import halfspace_bias
from .oracles import GaussianLaw, MembershipOracle, SmallClassOracle

# the benchmark's span tracer patches these names; nothing here calls them
from .estimation import empirical_projected_chow  # noqa: F401
from .oracles import localized_query_batch, smoothed_query_batch  # noqa: F401

__all__ = [
    "InitFailure",
    "NoNegativeFound",
    "find_negative_example",
    "init_unextreme",
    "angle_test",
]


class InitFailure(RuntimeError):
    """An initialization stage could not complete; callers retry or skip."""


class NoNegativeFound(InitFailure):
    """No minority-label point found within the search cap."""


# m = CHOW_SAMPLE_MULTIPLIER * d * log(1/epsilon) smoothed queries
CHOW_SAMPLE_MULTIPLIER = 60.0
ANGLE_TEST_REPEATS = 24
# per-round angle-test samples: ANGLE_SAMPLE_MULTIPLIER * 400 / p_ref,
# sized to resolve p_ref/20, capped to keep one round affordable
ANGLE_SAMPLE_MULTIPLIER = 4.0
ANGLE_SAMPLE_CAP = 250_000
NEGATIVE_SEARCH_CAP = 200_000


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
        batch = oracle.gaussian_queries(chunk)
        used += chunk
        hits = np.flatnonzero(batch.labels == -1)
        if hits.size:
            return batch.point(hits[0])
        chunk = min(4 * chunk, 1 << 16)
    raise NoNegativeFound(f"no negative label in {cap} queries")


def init_unextreme(
    oracle: MembershipOracle,
    t: float,
    epsilon: float,
    small_class: SmallClassOracle | None = None,
) -> np.ndarray:
    """Warm start from the Chow vector of smoothed labels at a negative anchor."""
    if t < 0:
        raise ValueError("threshold guess must be non-negative")
    x0 = find_negative_example(oracle, NEGATIVE_SEARCH_CAP, small_class)
    rho = min(1.0 / t, 1.0) if t > 0 else 1.0
    d = oracle.dim
    m = math.ceil(CHOW_SAMPLE_MULTIPLIER * d * math.log(1.0 / epsilon))
    u0 = oracle.gaussian_queries(m, GaussianLaw.smoothed(x0, rho), chow=True).chow
    norm = float(np.linalg.norm(u0))
    if norm < 1e-9:
        raise InitFailure("degenerate smoothed Chow vector")
    return u0 / norm


def angle_test(
    oracle: MembershipOracle,
    w: np.ndarray,
    t: float,
    b: float,
    delta: float,
    rng: np.random.Generator,
) -> bool:
    """Test whether b approximates the sine of the angle to the target.

    Repeated rounds draw a random offset s in [a t, a t + b], compare the
    localized negative rate against a third of the reference bias of a
    halfspace with threshold (t - a s)/b, and vote.  True (yes) means b
    is usable as a localization scale.  The vote always takes
    ANGLE_TEST_REPEATS rounds; ``delta`` does not change it.
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
        labels = oracle.gaussian_queries(n, GaussianLaw.localized(w, s, sigma)).labels
        if float(np.mean(labels == -1)) > p_ref / 3.0:
            count += 1
    return count > 3 * T / 4
