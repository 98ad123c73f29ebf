"""Simulated labeling functions and query oracles.

A LabelSource is the experiment's ground truth: a (possibly randomized)
labeling rule built around a target halfspace.  A MembershipOracle wraps
a source with an exact query ledger; every labeled point costs exactly
one ledger increment, and an optional budget caps the ledger.  Learner
batches of Gaussian queries go through the oracle's one channel,
``gaussian_queries``, which for a source with a margin law draws only
the coordinates the labels read.  The evaluation channel
(estimate_error, exact for a Halfspace against a source with a margin
law) and the small-class sampler keep their own counters so reported
query complexity reflects only learner decisions.

WhiteBoxView exposes ground-truth diagnostics (angles, localized
thresholds, true error).  It exists for tests and reports only; learner
code never receives one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .geometry import (
    Halfspace,
    disagreement_mass,
    halfspace_bias,
    lift,
    localize_halfspace,
    sign_labels,
    span_basis,
    sqrt_localization_apply,
)
from .rng import substream

__all__ = [
    "LabelSource",
    "CleanLabels",
    "RandomFlip",
    "BoundaryBand",
    "RegionFlip",
    "BudgetExceeded",
    "GaussianLaw",
    "GaussianBatch",
    "MembershipOracle",
    "SmallClassOracle",
    "SmallClassUnreachable",
    "WhiteBoxView",
    "scores_exactly",
    "localized_query_batch",
    "smoothed_query_batch",
    "estimate_error",
]


class LabelSource:
    """Randomized labeling rule y(x) with a known optimal halfspace error."""

    target: Halfspace

    @property
    def dim(self) -> int:
        return self.target.dim

    @property
    def opt(self) -> float:
        raise NotImplementedError

    def sample_labels(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Fresh label samples for the rows of X.  Memoryless: repeated
        calls at the same point are independent draws."""
        raise NotImplementedError

    def margin_law(self) -> tuple[tuple[float, float, float], ...] | None:
        """The negative-label rate as a function of r = w*.x alone, as
        pieces (lo, hi, rate) with the rate constant on each and 0 off
        them; None when the label law reads x through more than r."""
        return None


@dataclass
class CleanLabels(LabelSource):
    target: Halfspace

    @property
    def opt(self) -> float:
        return 0.0

    def margin_law(self):
        return ((-math.inf, -self.target.t, 1.0),)

    def sample_labels(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.target(np.atleast_2d(X))


@dataclass
class RandomFlip(LabelSource):
    """Each label flipped independently with probability ``rate`` < 1/2."""

    target: Halfspace
    rate: float

    def __post_init__(self):
        if not (0.0 <= self.rate < 0.5):
            raise ValueError("flip rate must lie in [0, 1/2)")

    @property
    def opt(self) -> float:
        return self.rate

    def margin_law(self):
        t = self.target.t
        return ((-math.inf, -t, 1.0 - self.rate), (-t, math.inf, self.rate))

    def sample_labels(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        X = np.atleast_2d(X)
        clean = np.asarray(self.target(X))
        flips = rng.random(clean.shape) < self.rate
        return np.where(flips, -clean, clean)


@dataclass
class BoundaryBand(LabelSource):
    """Deterministically flips labels in the margin band |w.x + t| <= band.

    The stress case: all the noise sits exactly where localization
    queries concentrate.
    """

    target: Halfspace
    band: float

    def __post_init__(self):
        if not (math.isfinite(self.band) and self.band > 0):
            raise ValueError("band half-width must be finite and positive")

    @property
    def opt(self) -> float:
        # mass of the band: Phi(-t + band) - Phi(-t - band)
        return halfspace_bias(self.target.t - self.band) - halfspace_bias(self.target.t + self.band)

    def margin_law(self):
        # negative below the band, and on its half where the clean label is +1
        t = self.target.t
        return ((-math.inf, -t - self.band, 1.0), (-t, -t + self.band, 1.0))

    def sample_labels(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        X = np.atleast_2d(X)
        margins = self.target.margins(X)
        clean = sign_labels(margins)
        return np.where(np.abs(margins) <= self.band, -clean, clean)


@dataclass
class RegionFlip(LabelSource):
    """Flips labels on an arbitrary region; opt must be supplied (or
    estimated externally) since the predicate is a black box."""

    target: Halfspace
    region: Callable[[np.ndarray], np.ndarray]
    region_mass: float = float("nan")

    @property
    def opt(self) -> float:
        return self.region_mass

    def sample_labels(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        X = np.atleast_2d(X)
        clean = np.asarray(self.target(X))
        inside = np.asarray(self.region(X), dtype=bool)
        return np.where(inside, -clean, clean)


class BudgetExceeded(RuntimeError):
    """A membership query would have taken the ledger past its budget."""


def _margin_law(source):
    """The source's ``margin_law()``, or None for a source without one."""
    return getattr(source, "margin_law", lambda: None)()


@dataclass(frozen=True, eq=False)
class GaussianLaw:
    """The law of a batch of Gaussian queries: x = c + rho A^{1/2} z with
    z ~ N(0, I_d) and A^{1/2} = I - (1 - sigma) v v^T.

    ``GaussianLaw()`` is N(0, I) itself, ``smoothed(x0, rho)`` is centred
    at sqrt(1 - rho^2) x0, and ``localized(v, s, sigma)`` has variance
    sigma^2 along the unit vector v and mean -s v.  A batch's Chow mean
    reads z, not x.
    """

    center: np.ndarray | None = None
    rho: float = 1.0
    v: np.ndarray | None = None
    sigma: float = 1.0

    @classmethod
    def smoothed(cls, x0: np.ndarray, rho: float) -> "GaussianLaw":
        if not (0.0 < rho <= 1.0):
            raise ValueError("rho must lie in (0, 1]")
        return cls(center=math.sqrt(max(0.0, 1.0 - rho * rho)) * np.asarray(x0, dtype=float), rho=rho)

    @classmethod
    def localized(cls, v: np.ndarray, s: float, sigma: float) -> "GaussianLaw":
        if not (0.0 < sigma < 1.0):
            raise ValueError("sigma must lie in (0, 1)")
        v = np.asarray(v, dtype=float)
        return cls(center=-s * v, v=v, sigma=sigma)

    def linear(self, Z: np.ndarray) -> np.ndarray:
        """rho A^{1/2} z for each row z of Z."""
        X = Z if self.v is None else sqrt_localization_apply(self.v, self.sigma, Z)
        return X if self.rho == 1.0 else self.rho * X

    def points(self, Z: np.ndarray) -> np.ndarray:
        """The query point c + rho A^{1/2} z of each row z of Z."""
        X = self.linear(np.asarray(Z, dtype=float))
        return X if self.center is None else X + self.center


@dataclass(frozen=True, eq=False)
class GaussianBatch:
    """What ``MembershipOracle.gaussian_queries`` answers."""

    labels: np.ndarray
    # (1/n) sum of labels_i z_i, when asked for
    chow: np.ndarray | None
    # point(i): query i's full d-dimensional point
    point: Callable[[int], np.ndarray]


@dataclass
class MembershipOracle:
    """Label access with an exact ledger: one increment per labeled point.

    Every answer is multiplied by ``label_sign`` (+1 unless a caller sets
    it), so a learner can flip which class it sees as the minority.  With
    a ``budget``, a query that would take the ledger past it is
    refused whole: nothing is charged, BudgetExceeded is raised and the
    oracle is ``spent``, after which every query is refused.
    """

    source: LabelSource
    seed: int
    budget: int | None = None
    ledger: int = 0
    spent: bool = field(default=False, init=False)
    label_sign: int = field(default=1, init=False)
    _rng: np.random.Generator = field(init=False, repr=False)
    _gauss: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = substream(self.seed, "oracle-labels")
        self._gauss = substream(self.seed, "oracle-gaussian")

    @property
    def dim(self) -> int:
        return self.source.dim

    def _charge(self, n: int) -> None:
        if self.spent or (self.budget is not None and self.ledger + n > self.budget):
            self.spent = True
            raise BudgetExceeded(f"{n} queries refused at ledger {self.ledger}, budget {self.budget}")
        self.ledger += n

    def query(self, x: np.ndarray) -> int:
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("query point must be finite")
        self._charge(1)
        return self.label_sign * int(self.source.sample_labels(x[None, :], self._rng)[0])

    def query_batch(self, X: np.ndarray) -> np.ndarray:
        """Labels for n points at a cost of n ledger increments."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if not np.isfinite(X).all():
            raise ValueError("query points must be finite")
        self._charge(X.shape[0])
        return self.label_sign * self.source.sample_labels(X, self._rng)

    def gaussian_points(self, n: int, dim: int | None = None) -> np.ndarray:
        """Fresh standard Gaussian points (no ledger cost until queried),
        in ``dim`` dimensions (default: the source's)."""
        return self._gauss.standard_normal((n, self.source.dim if dim is None else dim))

    def gaussian_queries(self, n: int, law: GaussianLaw = GaussianLaw(), chow: bool = False) -> GaussianBatch:
        """Labels of n fresh queries from ``law``, at n ledger increments
        through ``query_batch``, and with ``chow`` their Chow mean.

        A source with a margin law (the test ``scores_exactly`` makes)
        labels x through r = w*.x alone, and r reads z only through its
        coordinates in an orthonormal basis E of span{v, w*}
        (``geometry.span_basis``; span{w*} for a law without v).  So the
        channel draws those k <= 2 coordinates p and labels the points
        c + rho A^{1/2} E^T p.  The labels are independent of the other
        coordinates of each z, so the Chow mean and ``point(i)`` are
        completed off span(E) by ``geometry.lift`` from fresh Gaussian
        rows, independent of the labels and of each other.  Any other
        source gets full d-dimensional draws.  Either way the labels,
        the Chow mean and a point have the law they have on full draws,
        and only the oracle reads w*.
        """
        if chow and n < 1:
            raise ValueError("a Chow mean needs at least one sample")
        if _margin_law(self.source) is None:
            Z = self.gaussian_points(n)
            X = law.points(Z)
            labels = self.query_batch(X)
            return GaussianBatch(labels, Z.T @ labels / n if chow else None, X.__getitem__)
        E = span_basis(self.source.target.w, law.v)
        P = self.gaussian_points(n, dim=E.shape[0])
        L = law.linear(E)
        # built as the transpose of a (d, n) product, so that its loops and
        # the labels' X @ w* run along n rather than along the short d
        X = (np.multiply.outer(L[0], P[:, 0]) if L.shape[0] == 1 else L.T @ P.T).T
        if law.center is not None:
            X += law.center
        labels = self.query_batch(X)
        # the labeled sum of the z's other coordinates is exactly N(0, n (I - E^T E))
        g = lift(P.T @ labels / n, E, self.gaussian_points(1)[0] / math.sqrt(n)) if chow else None
        return GaussianBatch(labels, g, lambda i: law.points(lift(P[i : i + 1], E, self.gaussian_points(1)))[0])


def localized_query_batch(oracle: MembershipOracle, v: np.ndarray, s: float, sigma: float, Z: np.ndarray) -> np.ndarray:
    """Labels at A^{1/2} z - s v with A = I - (1 - sigma^2) v v^T."""
    return oracle.query_batch(GaussianLaw.localized(v, s, sigma).points(Z))


def smoothed_query_batch(oracle: MembershipOracle, x0: np.ndarray, rho: float, Z: np.ndarray) -> np.ndarray:
    """Labels at sqrt(1 - rho^2) x0 + rho z."""
    return oracle.query_batch(GaussianLaw.smoothed(x0, rho).points(Z))


class SmallClassUnreachable(RuntimeError):
    """No negative-label point can be drawn: the rejection loop exhausted
    its attempt cap, or a margin law's negative mass underflows to 0."""


def _lower_tail_pieces(law: tuple[tuple[float, float, float], ...]) -> np.ndarray:
    """Rows (a, b, sign, Phi(a), Phi(b) - Phi(a), weight) of a margin law
    split at 0, each piece above 0 mirrored: r = sign * s with s in
    (a, b), b <= 0, so ndtr and ndtri only see the lower tail, where they
    keep full relative accuracy.  weight is the piece's negative mass,
    its rate times Phi(b) - Phi(a); pieces of weight 0 are dropped."""
    rows = []
    for lo, hi, rate in law:
        for a, b, sign in ((lo, min(hi, 0.0), 1.0), (-hi, min(-lo, 0.0), -1.0)):
            if a < b:
                cdf_a, width = ndtr(a), ndtr(b) - ndtr(a)
                rows.append((a, b, sign, cdf_a, width, rate * width))
    pieces = np.array(rows, dtype=float).reshape(-1, 6)
    return pieces[pieces[:, 5] > 0]


@dataclass
class SmallClassOracle:
    """Sampler of x ~ N(0, I) conditioned on y(x) = -1.

    A source with a margin law (``LabelSource.margin_law``) is sampled
    exactly.  The margin r = w*.x of a negative point has density
    proportional to rate(r) phi(r), a mixture of normals truncated to the
    law's pieces: a piece is picked by its negative mass, r is drawn in
    it by inverse CDF (Devroye 1986, ch. II; pieces above 0 are mirrored
    into the lower tail), and r is lifted to x by ``geometry.lift`` with
    a fresh N(0, I_d) row off span{w*}.  That reaches any depth whose mass is a
    positive double (t = 20, p ~ 3e-89, costs what t = 1 does).

    Other sources (``RegionFlip``) are sampled by rejection from full
    d-dimensional proposals, counted in ``proposals``; a call raises
    SmallClassUnreachable after ``attempt_cap`` of them without n hits.
    Hits a call does not return are kept and served first by the next
    call; they are i.i.d. draws from the same law.

    Returned points are counted in ``draws``, not in any membership
    ledger: the oracle models an external supply of minority-class
    examples.
    """

    source: LabelSource
    seed: int
    attempt_cap: int = 100_000_000
    draws: int = 0
    proposals: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    # the margin law's pieces (_lower_tail_pieces), or None: rejection
    _pieces: np.ndarray | None = field(init=False, repr=False)
    _surplus: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = substream(self.seed, "small-class")
        law = _margin_law(self.source)
        self._pieces = None if law is None else _lower_tail_pieces(law)
        self._surplus = np.empty((0, self.source.dim))

    def draw(self) -> np.ndarray:
        return self.draw_batch(1)[0]

    def draw_batch(self, n: int) -> np.ndarray:
        """n conditional samples.

        Raises ValueError for n < 0, and SmallClassUnreachable when the
        margin law has no negative mass or, on the rejection path, once
        this call has made ``attempt_cap`` proposals without n points.
        """
        if n < 0:
            raise ValueError(f"cannot draw {n} points")
        X = self._rejected(n) if self._pieces is None else self._exact(n)
        self.draws += n
        return X

    def _exact(self, n: int) -> np.ndarray:
        a, b, sign, cdf_a, width, weight = self._pieces.T
        if weight.size == 0:
            raise SmallClassUnreachable("the margin law's negative mass underflows to 0")
        cum = np.cumsum(weight)
        k = np.minimum(np.searchsorted(cum, self._rng.random(n) * cum[-1], side="right"), cum.size - 1)
        # 1 - U lies in (0, 1], so the unbounded piece's inverse stays finite
        s = ndtri(cdf_a[k] + (1.0 - self._rng.random(n)) * width[k])
        r = sign[k] * np.clip(s, a[k], b[k])
        G = self._rng.standard_normal((n, self.source.dim))
        return lift(r[:, None], span_basis(self.source.target.w), G)

    def _rejected(self, n: int) -> np.ndarray:
        parts = [self._surplus]
        have = self._surplus.shape[0]
        attempts = 0
        chunk = max(256, n)
        while have < n:
            if attempts >= self.attempt_cap:
                self._surplus = np.concatenate(parts)
                raise SmallClassUnreachable(
                    f"{have} of {n} negative-label points after {attempts} proposals"
                )
            # batch proposals geometrically: cheap when p is moderate, still
            # few passes when p is tiny; the overshoot becomes surplus
            chunk = min(chunk, self.attempt_cap - attempts)
            P = self._rng.standard_normal((chunk, self.source.dim))
            parts.append(P[self.source.sample_labels(P, self._rng) == -1])
            attempts += chunk
            self.proposals += chunk
            have += parts[-1].shape[0]
            chunk = min(4 * chunk, 1 << 20)
        X = np.concatenate(parts)
        self._surplus = X[n:].copy()
        return X[:n]


# rows per block the evaluation channel draws, labels and counts
EVAL_BLOCK = 1 << 14


def scores_exactly(source, h) -> bool:
    """Whether estimate_error is exact: h is a Halfspace, the source has a margin law."""
    return isinstance(h, Halfspace) and _margin_law(source) is not None


def _exact_error(source: LabelSource, h: Halfspace) -> float:
    """Pr(y(x) != h(x)) from the bivariate normal law of (w*.x, h.w.x).  With
    D(x) the mass where sign(w*.x - x) and h disagree (``disagreement_mass``,
    by Owen's T; D(-inf) = Pr(h = -1), D(inf) = Pr(h = +1)), it is D(-inf)
    plus rate (D(hi) - D(lo)) over the law's pieces, gathered by cut, so
    that for CleanLabels it is D(-t*) = disagreement_mass(target, h) alone."""
    target = source.target

    def mass(x: float) -> float:
        if math.isinf(x):
            return halfspace_bias(h.t if x < 0 else -h.t)
        # the target's own cut is the target: no renormalized copy of w*
        return disagreement_mass(target if x == -target.t else Halfspace(target.w, -x), h)

    weights = {-math.inf: 1.0}
    for lo, hi, rate in source.margin_law():
        weights[lo] = weights.get(lo, 0.0) - rate
        weights[hi] = weights.get(hi, 0.0) + rate
    return sum(k * mass(x) for x, k in weights.items())


def estimate_error(source: LabelSource, h: Halfspace, m: int, seed: int, tag: str = "eval") -> float:
    """Disagreement of h with the labeling rule on the evaluation channel,
    which touches no membership ledger: exact when ``scores_exactly``,
    else counted over m fresh draws in blocks of EVAL_BLOCK d-dimensional
    rows rather than one (m, d) array, with standard error at most
    1/(2 sqrt(m))."""
    if m < 1:
        raise ValueError("need at least one sample")
    if scores_exactly(source, h):
        return _exact_error(source, h)
    rng = substream(seed, tag)
    wrong = 0
    for start in range(0, m, EVAL_BLOCK):
        X = rng.standard_normal((min(EVAL_BLOCK, m - start), source.dim))
        wrong += int(np.count_nonzero(source.sample_labels(X, rng) != np.asarray(h(X))))
    return wrong / m


@dataclass
class WhiteBoxView:
    """Ground-truth diagnostics for tests and reports only."""

    source: LabelSource

    @property
    def target(self) -> Halfspace:
        return self.source.target

    @property
    def opt(self) -> float:
        return self.source.opt

    def angle_to(self, w: np.ndarray) -> float:
        a = float(np.clip(np.dot(self.target.w, np.asarray(w, dtype=float)), -1.0, 1.0))
        return math.acos(a)

    def half_angle_sine(self, w: np.ndarray) -> float:
        """sin(theta(w, w*)/2), computed as ||w - w*|| / 2 for precision near 0."""
        return 0.5 * float(np.linalg.norm(self.target.w - np.asarray(w, dtype=float)))

    def localized_threshold(self, w: np.ndarray, sigma: float, t_tilde: float) -> float:
        """The hidden normalized threshold of the localized target."""
        return localize_halfspace(self.target, w, t_tilde, sigma).t

    def true_error(self, h: Halfspace, m: int = 200_000, seed: int = 0) -> float:
        return estimate_error(self.source, h, m, seed, "whitebox-eval")
