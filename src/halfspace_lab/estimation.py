"""Query-frugal statistical estimators.

Three tools: a geometric-ladder bias estimator that brackets the
minority-class mass p in about 750/p queries by growing one sample per
repetition down the ladder and testing, at each level, only the
repetitions that can still change its majority vote (their new points
go to the Gaussian channel together, in blocks of at most LADDER_BLOCK
rows, which draw exactly what one call per repetition would), an in/out
Hoeffding window check for probabilities, and the empirical Chow vector
estimator over given points (the learner's Chow means come from the
oracle's Gaussian channel, ``MembershipOracle.gaussian_queries``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
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
# most rows a ladder level sends to the Gaussian channel in one call: one
# call per level would take more peak memory and run slower
LADDER_BLOCK = 1 << 13


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
    keeps one growing sample and its negative count.  A repetition
    tested at level i grows its sample from its own last size to
    n_i = ceil(SAMPLES_PER_LEVEL / p_hat_i) points, querying only the
    new ones, and passes when its count reaches (5/6) p_hat_i n_i.  The
    level passes when a majority of the repetitions pass, and the
    repetitions are tested in order only until the vote is decided:
    first the reps // 2 + 1 that could decide it alone, then as many
    more as need - max(passed, failed) leaves open, until one side has
    a majority.  A batch's new points are laid out repetition after
    repetition and queried in consecutive calls of at most LADDER_BLOCK
    rows; the channel draws split-invariantly (row after row, and a
    label source's randomness one row at a time), so this draws, labels
    and charges exactly what one call per repetition would, and a
    budget that runs out stops the ladder on a block boundary.  Stop at
    the first passing level, or declare the bias small once the ladder
    descends below C_SMALL * epsilon.  The ladder costs at most
    reps * n_last queries, where n_last belongs to the last level
    tested, and about 750/p at delta = 0.1.

    Why reuse keeps the guarantee: at each level, every repetition's
    test still sees n_i i.i.d. fresh queries, and the repetitions draw
    disjoint points, so they stay independent of each other.  A
    repetition skipped at earlier levels catches up to n_i the next
    time it is tested, so its test is the one it would have run had it
    been queried at every level.  Each level's verdict is therefore the
    majority over all repetitions of those tests, whichever were left
    untested once the vote was decided, and its error probability is
    what a fresh sample would give.  Only the dependence across levels
    changes, and the guarantee only union-bounds over levels, which
    needs no independence.
    """
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    start = oracle.ledger
    reps = 2 * max(1, math.ceil(math.log(1.0 / delta))) + 1
    need = reps // 2 + 1
    # each repetition's sample size and negative count
    sizes, counts = [0] * reps, [0] * reps
    level = 0
    while True:
        p_hat = 0.5 * LADDER_BASE ** level
        if p_hat < C_SMALL * epsilon:
            return BiasEstimate("small", p_hat, oracle.ledger - start)
        n = math.ceil(SAMPLES_PER_LEVEL / p_hat)
        threshold = LADDER_THRESHOLD_FACTOR * p_hat * n
        tested = passed = 0
        while max(passed, tested - passed) < need:
            batch = range(tested, tested + need - max(passed, tested - passed))
            _grow(oracle, n, batch, sizes, counts)
            passed += sum(counts[r] >= threshold for r in batch)
            tested = batch.stop
        if passed >= need:
            return BiasEstimate(
                "bracket", RETURN_SHRINK * p_hat, oracle.ledger - start
            )
        level += 1


def _grow(oracle, n: int, batch: range, sizes: list, counts: list) -> None:
    """Grow the sample of each repetition in batch to n points: their new
    points go to the Gaussian channel rep after rep, in calls of at most
    LADDER_BLOCK rows, and each block's negatives are counted per rep
    from its boolean mask."""
    # where each rep's new points start and end in the batch's rows
    edges = list(accumulate((n - sizes[r] for r in batch), initial=0))
    for s in range(0, edges[-1], LADDER_BLOCK):
        negative = oracle.gaussian_queries(min(LADDER_BLOCK, edges[-1] - s)).labels == -1
        for r, a, b in zip(batch, edges, edges[1:]):
            if a < s + len(negative) and b > s:
                counts[r] += int(np.count_nonzero(negative[max(a - s, 0) : b - s]))
    for r in batch:
        sizes[r] = n


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
