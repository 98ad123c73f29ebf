"""Empirical lab for the label-query (pool-based) side of the story.

Three probes: a near-isometry statistic for sampled row subsets of a
Gaussian pool, the probability that a random unit target direction puts
an entire subset on the negative side, and an adaptive query game where
strategies spend label queries hunting for minority-class pool points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Halfspace

# most bytes of pool rows near_isometry_stat gathers at once
GATHER_BYTES = 1 << 20

__all__ = [
    "Pool",
    "RandomOrder",
    "GreedyDirection",
    "OracleAided",
    "near_isometry_stat",
    "negative_capture_prob",
    "play_query_game",
]


@dataclass
class Pool:
    """m i.i.d. Gaussian points with labels from a hidden halfspace.

    Labels are deterministic (realizable setting) and cached; revealing
    one is the unit of cost in the query game.
    """

    points: np.ndarray
    target: Halfspace
    revealed: set = field(default_factory=set)

    def __post_init__(self):
        # a list: a reveal reads one label, and a list hands out a Python int
        self._labels = np.asarray(self.target(self.points)).tolist()

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def reveal(self, i: int) -> int:
        if i in self.revealed:
            raise ValueError(f"index {i} already revealed")
        self.revealed.add(i)
        return self._labels[i]


def near_isometry_stat(
    points: np.ndarray, k: int, tuples: int, rng: np.random.Generator
) -> float:
    """max over sampled k-row subsets A of ||A A^T - d I||_2 / d.

    Small values certify that every sampled subset is nearly orthogonal
    with rows of norm about sqrt(d).  Sampling is a one-sided check; the
    exhaustive subset count is astronomical.  Every tuple's rows are
    drawn first, one ``rng.choice`` a tuple; the Gram matrices and their
    eigenvalues are then computed over chunks of tuples whose gathered
    rows take at most about GATHER_BYTES.
    """
    points = np.asarray(points, dtype=float)
    m, d = points.shape
    if not (1 <= k <= min(m, d)):
        raise ValueError("need 1 <= k <= min(m, d)")
    if tuples < 1:
        raise ValueError("need at least one sampled tuple")
    idx = np.array([rng.choice(m, size=k, replace=False) for _ in range(tuples)])
    chunk = max(1, GATHER_BYTES // (k * d * points.itemsize))

    def top(rows):
        # one chunk's rows are freed before the next chunk's are gathered
        A = points[rows]
        # spectral norms from the k x k eigensystems, never the d x d ones
        return np.max(np.abs(np.linalg.eigvalsh(A @ A.transpose(0, 2, 1) - d * np.eye(k))))

    return float(max(top(idx[s : s + chunk]) for s in range(0, tuples, chunk))) / d


def negative_capture_prob(
    A: np.ndarray, t_star: float, trials: int, rng: np.random.Generator
) -> float:
    """Monte Carlo probability that a uniform-sphere direction labels
    every row of A negative, for a halfspace with threshold t_star.

    Each trial's direction w = g/|g|, g ~ N(0, I_d), is drawn only through
    what the margins read.  With the reduced QR A^T = QR (r = min(k, d)
    orthonormal columns), A w = R^T h / |g| where h = Q^T g ~ N(0, I_r),
    and |g|^2 = |h|^2 + chi^2_{d-r} with the chi-square independent of h
    (absent when r = d).  That is the exact law of a uniform direction,
    drawn with trials * (r + 1) numbers: a call costs O(trials * k) time
    and memory, whatever d is.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = A.shape[1]
    _, R = np.linalg.qr(A.T)
    r = R.shape[0]
    h = rng.standard_normal((trials, r))
    sq = np.einsum("ij,ij->i", h, h)
    if d > r:
        sq += rng.chisquare(d - r, trials)
    margins = (h @ R) / np.sqrt(sq)[:, None] + t_star
    return float(np.mean(np.all(margins < 0, axis=1)))


class _Walk:
    """Reveals pool points along a fixed order, built once per pool as a
    list of indices, skipping the points already revealed.  The caller
    reveals each index it is handed."""

    def __init__(self):
        self._pool = None

    def _order(self, pool: Pool) -> np.ndarray:
        raise NotImplementedError

    def next(self, pool: Pool, negatives: list[int]) -> int:
        if pool is not self._pool:
            self._pool, self._seq, self._pos = pool, self._order(pool).tolist(), 0
        while self._pos < pool.size:
            i = self._seq[self._pos]
            self._pos += 1
            if i not in pool.revealed:
                return i
        raise RuntimeError("pool exhausted")


class RandomOrder(_Walk):
    """Reveals pool points in a random order."""

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        self._rng = rng

    def _order(self, pool: Pool) -> np.ndarray:
        return self._rng.permutation(pool.size)


# GreedyDirection scores the whole pool afresh once its bound leaves more
# than m / _RESCORE_SHARE rows to score exactly: past that the pruned step
# saves little, and a fresh reference mean tightens the bound again
_RESCORE_SHARE = 32
# bound on the rounding error of a float64 dot product x.mu, in units of
# |x| |mu|; d times the unit roundoff stays below it up to d = 10^6
_ROUNDING = 1e-9


class GreedyDirection:
    """Chases the mean of the negatives found so far.

    Until a first negative shows up it behaves like RandomOrder; after
    that it reveals the unrevealed point with the largest projection on
    the running mean of negative points, lowest index on ties.

    It does not score the whole pool per reveal.  The scores c = P mu_ref
    of its last full rescore bound the current ones by Cauchy-Schwarz,
    x.mu <= c + |x| |mu - mu_ref|, so only rows whose bound reaches the
    exact score of the bound's leader are scored, and the pick is the one
    a full rescore would make.  A near-tie among them, which another
    summation order could rank differently, is settled by a full rescore.
    The state holds for one pool and one game's growing list of
    negatives, and starts afresh when handed another.  The caller reveals
    each index it is handed, and nothing else reveals during the game.
    """

    def __init__(self, rng: np.random.Generator):
        self._fallback = RandomOrder(rng)
        self._pool = self._negatives = None

    def next(self, pool: Pool, negatives: list[int]) -> int:
        if not negatives:
            return self._fallback.next(pool, negatives)
        if pool is not self._pool:
            self._pool, self._negatives = pool, None
            # row norms without an (m, d) temporary of squares
            self._norms = np.sqrt(np.einsum("ij,ij->i", pool.points, pool.points))
        if negatives is not self._negatives:
            # a new game: its list of negatives only grows from here on
            self._negatives, self._count, self._ref = negatives, 0, None
            self._sum = np.zeros(pool.points.shape[1])
        # rows added one at a time, as np.mean sums them
        for i in negatives[self._count:]:
            self._sum += pool.points[i]
        self._count = len(negatives)
        mu = self._sum / self._count
        i = None if self._ref is None else self._pruned_pick(mu)
        if i is None:
            # score the whole pool; mu becomes the reference
            self._ref, self._scores = mu, pool.points @ mu
            self._scores[np.fromiter(pool.revealed, dtype=np.intp)] = -np.inf
            i = int(np.argmax(self._scores))
        self._scores[i] = -np.inf
        return i

    def _pruned_pick(self, mu: np.ndarray) -> int | None:
        """The pick among the rows the bound leaves, or None when a full
        rescore must decide."""
        points, norms = self._pool.points, self._norms
        tol = _ROUNDING * max(np.linalg.norm(mu), np.linalg.norm(self._ref))
        ub = self._scores + norms * (np.linalg.norm(mu - self._ref) + 2.0 * tol)
        j = int(np.argmax(ub))
        rows = np.flatnonzero(ub >= points[j] @ mu - tol * norms[j])
        if rows.size > len(norms) // _RESCORE_SHARE:
            return None
        scores = points[rows] @ mu
        k = int(np.argmax(scores))
        near = scores >= scores[k] - tol * (norms[rows] + norms[rows[k]])
        return int(rows[k]) if np.count_nonzero(near) == 1 else None


class OracleAided(_Walk):
    """White-box cheat baseline: reveals by true margin, most negative first."""

    def _order(self, pool: Pool) -> np.ndarray:
        # a stable sort puts the lowest index first among ties, as argmin does
        return np.argsort(pool.target.margins(pool.points), kind="stable")


def play_query_game(
    pool: Pool, strategy, target_negatives: int, budget: int
) -> tuple[int, int]:
    """Run the strategy until enough negatives are found or the budget
    runs out; returns (negatives_found, queries_used)."""
    if budget < 1:
        raise ValueError("budget must be positive")
    negatives: list[int] = []
    queries = 0
    while len(negatives) < target_negatives and queries < budget:
        if len(pool.revealed) >= pool.size:
            break
        i = strategy.next(pool, negatives)
        label = pool.reveal(i)
        queries += 1
        if label == -1:
            negatives.append(i)
    return len(negatives), queries
