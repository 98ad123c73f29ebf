"""Query-frugal statistical estimators.

Three tools: a geometric-ladder bias estimator that brackets the
minority-class mass p in about 1,120/p queries by growing one sample per
repetition down the ladder, an in/out Hoeffding window check for
probabilities, and the empirical Chow vector estimator over given
points (the learner's Chow means come from the oracle's Gaussian
channel, ``MembershipOracle.gaussian_queries``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BiasEstimate",
    "estimate_bias_doubling",
    "WindowResult",
    "probability_window_check",
    "window_check_samples",
    "empirical_projected_chow",
]

LADDER_BASE = 4.0 / 5.0
# the ladder declares the bias small once its level drops below
# C_SMALL * epsilon.  A level p_hat <= p passes with high probability,
# so failing every level down to the last one tested bounds p by that
# level; with C_SMALL = LADDER_BASE the last level tested is at most
# epsilon, and "small" means p <= epsilon
C_SMALL = LADDER_BASE
# a repetition's sample at level p_hat holds ceil(SAMPLES_PER_LEVEL / p_hat) queries
SAMPLES_PER_LEVEL = 160.0
# stop rule compares the empirical negative frequency against 5/6 of
# the current ladder level
LADDER_THRESHOLD_FACTOR = 5.0 / 6.0
# returned estimate sits below the stopping level by this factor so the
# bracket covers the stopping-rule slack under boosting noise
RETURN_SHRINK = 0.7


@dataclass(frozen=True)
class BiasEstimate:
    """Either a multiplicative bracket on the bias or a 'small' verdict.

    verdict "bracket": the estimator asserts p_hat <= p <= 4 * p_hat.
    verdict "small": every level down to p_hat / LADDER_BASE <= epsilon
    failed, so the estimator asserts p <= epsilon; p_hat is the first
    level not tested.
    """

    verdict: str
    p_hat: float
    queries_used: int

    @property
    def is_small(self) -> bool:
        return self.verdict == "small"


def estimate_bias_doubling(
    oracle,
    epsilon: float,
    delta: float,
) -> BiasEstimate:
    """Bracket the negative-label mass p by descending a geometric ladder.

    Levels p_hat_i = (4/5)^i / 2.  Each of O(log 1/delta) repetitions
    keeps one growing sample and its negative count: at level i its
    sample grows from n_{i-1} to n_i = ceil(SAMPLES_PER_LEVEL / p_hat_i)
    points, and only the n_i - n_{i-1} new ones are queried, in one
    batch.  The level passes when the count reaches (5/6) p_hat_i n_i in
    a majority of the repetitions.  Stop at the first passing level, or
    declare the bias small once the ladder descends below
    C_SMALL * epsilon.  The ladder costs reps * n_last queries, about
    1,120/p at delta = 0.1, where n_last belongs to the last level tested.

    Why reuse keeps the guarantee: at each level, every repetition's
    test still sees n_i i.i.d. fresh queries, and the repetitions draw
    disjoint points, so they stay independent of each other.  Each
    level's error probability is therefore what a fresh sample would
    give.  Only the dependence across levels changes, and the guarantee
    only union-bounds over levels, which needs no independence.
    """
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    start = oracle.ledger
    reps = 2 * max(1, math.ceil(math.log(1.0 / delta))) + 1
    counts = [0] * reps
    n = 0
    level = 0
    while True:
        p_hat = 0.5 * LADDER_BASE ** level
        if p_hat < C_SMALL * epsilon:
            return BiasEstimate("small", p_hat, oracle.ledger - start)
        n_next = math.ceil(SAMPLES_PER_LEVEL / p_hat)
        for r in range(reps):
            labels = oracle.gaussian_queries(n_next - n).labels
            counts[r] += int(np.count_nonzero(labels == -1))
        n = n_next
        threshold = LADDER_THRESHOLD_FACTOR * p_hat * n
        if 2 * sum(c >= threshold for c in counts) > reps:
            return BiasEstimate(
                "bracket", RETURN_SHRINK * p_hat, oracle.ledger - start
            )
        level += 1


@dataclass(frozen=True)
class WindowResult:
    in_window: bool
    p_emp: float
    samples: int


def window_check_samples(lo: float, hi: float, delta: float) -> int:
    return math.ceil(8.0 / (hi - lo) ** 2 * math.log(4.0 / delta))


def probability_window_check(
    sample: Callable[[int], np.ndarray],
    window: tuple[float, float],
    delta: float,
) -> WindowResult:
    """In/out test of whether a Bernoulli(-1) rate lies in a window.

    ``sample(n)`` must return n fresh +-1 draws; the -1 frequency is the
    tested probability.  With margin = (hi - lo)/4, the rate is taken
    to be in the window when the empirical value clears both window
    edges by margin/2, and out of it otherwise.
    """
    lo, hi = window
    if not (0.0 < lo < hi < 1.0):
        raise ValueError("window must satisfy 0 < lo < hi < 1")
    n = window_check_samples(lo, hi, delta)
    labels = np.asarray(sample(n))
    p_emp = float(np.mean(labels == -1))
    margin = (hi - lo) / 4.0
    return WindowResult(lo + margin / 2.0 <= p_emp <= hi - margin / 2.0, p_emp, n)


def empirical_projected_chow(
    query_fn: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
) -> np.ndarray:
    """(1/m) sum of z_j * label_j over the supplied Gaussian z_j.

    ``query_fn`` maps an (m, d) batch of points to +-1 labels (and is
    expected to charge the oracle ledger).
    """
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    m = Z.shape[0]
    if m < 1:
        raise ValueError("need at least one sample")
    labels = np.asarray(query_fn(Z), dtype=float)
    return Z.T @ labels / m
