"""Top-level learner: bias bracket, threshold grid, restarted
initialization plus refinement, and tournament selection.

The flow: bracket the minority-class mass p (or bail out with the
constant +1 hypothesis when p is already epsilon-small), invert the
bias bracket into a threshold interval, grid it, then per restart
take a smoothed-Chow warm start (``init_unextreme``) at the top grid
point, falling back down the grid when it fails or the descent rejects
it at entry, and run one localized descent whose offset bracket reaches
the top grid point, which yields at most one candidate.  One rule says
when two candidates are interchangeable: their exact disagreement mass
is at most epsilon / MERGE_FACTOR.  A candidate that close to an earlier
leader joins it and ends the restarts; any other becomes a leader.  The
leaders are put to a pairwise disagreement vote, which skips only pairs
that close, so every pair it votes on gets its full m_pair points.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx

from .estimation import BiasEstimate, estimate_bias_doubling
from .geometry import (
    Halfspace, disagreement_mass, halfspace_bias, lift, span_basis, threshold_for_bias,
)
from .initialization import InitFailure, init_unextreme
from .oracles import BudgetExceeded, MembershipOracle, SmallClassOracle, estimate_error, scores_exactly
from .refinement import EntryRejected, RefineConfig, check_fields, entry_scale, refine

# the benchmark's span tracer patches this name; nothing here calls it
init_extreme = init_unextreme

__all__ = [
    "LearnerConfig",
    "RunReport",
    "learn",
    "tournament",
    "sample_disagreement",
    "constant_plus_one_hypothesis",
]

# threshold far enough out that the hypothesis is +1 on any realistic sample
_CONSTANT_T = 40.0
# two candidates within epsilon / MERGE_FACTOR exact disagreement mass
# are interchangeable: a later one joins an earlier leader, which stops
# the restarts, and the tournament skips such a pair
MERGE_FACTOR = 16
# held-out draws behind the reported error estimate off the exact path
EVAL_SAMPLES = 100_000
# small-class draws that replace the query-funded bias ladder when a
# small-class oracle is given
BIAS_FROM_SMALL_CLASS_DRAWS = 2000


def constant_plus_one_hypothesis(dim: int) -> Halfspace:
    w = np.zeros(dim)
    w[0] = 1.0
    return Halfspace(w, _CONSTANT_T)


@dataclass(frozen=True)
class LearnerConfig:
    epsilon: float
    delta: float = 0.1
    # cap on the restarts, each one warm start and one descent; the
    # restarts stop earlier once two candidates agree.  None =
    # ln^2(1/eps) ln(1/delta), capped at 40
    restarts_per_gridpoint: int | None = None
    grid_step: float | None = None
    refine: RefineConfig = field(default_factory=RefineConfig)

    def __post_init__(self):
        check_fields(self, positive=True)
        for name in ("epsilon", "delta"):
            if getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)!r}")

    def restarts(self) -> int:
        if self.restarts_per_gridpoint is not None:
            return self.restarts_per_gridpoint
        lg = math.log(1.0 / self.epsilon)
        return min(40, math.ceil(lg * lg * math.log(1.0 / self.delta)))

    def step(self) -> float:
        if self.grid_step is not None:
            return self.grid_step
        return 1.0 / (2.0 * math.log(1.0 / self.epsilon))


@dataclass
class RunReport:
    hypothesis: Halfspace
    verdict: str  # learned | constant_plus_one | budget
    err_estimate: float
    err_se: float
    total_queries: int
    candidates: list
    flipped: bool = False
    # the counters ``learn`` fills, each 0 until it counts: each stage's
    # queries are the ledger's change over that stage's calls
    queries_bias: int = 0
    queries_init: int = 0
    queries_refine: int = 0
    queries_tournament: int = 0
    small_class_draws: int = 0
    rounds: int = 0
    # attempts: failed warm starts plus descents that ran to their end;
    # those that ended without a candidate are split by cause
    attempts: int = 0
    init_failures: int = 0
    offset_failures: int = 0
    # restarts begun, at most cfg.restarts()
    restarts_run: int = 0


def _inverse_mills(t: float) -> float:
    """phi(t) / Phi(-t): mean depth of the negative-side margin."""
    return math.sqrt(2.0 / math.pi) / float(erfcx(t / math.sqrt(2.0)))


def _bias_from_small_class(small_class: SmallClassOracle, n: int) -> BiasEstimate:
    """Bias bracket from small-class draws alone (zero membership queries).

    The mean of Gaussian points conditioned on the negative side of a
    halfspace has norm phi(t)/Phi(-t); inverting that recovers the
    threshold and hence the bias.  The inverse Mills ratio lam is
    increasing and convex with lam' = lam (lam - t) and lam(t) > t, so
    Newton steps from t = norm descend monotonically onto the root.
    """
    X = small_class.draw_batch(n)
    norm = float(np.linalg.norm(np.mean(X, axis=0)))
    t_est = 0.0
    if norm > _inverse_mills(0.0):
        t_est = norm
        step = math.inf
        while step > 1e-12:
            lam = _inverse_mills(t_est)
            step = (lam - norm) / (lam * (lam - t_est))
            t_est -= step
    return BiasEstimate("bracket", 0.5 * halfspace_bias(t_est), 0)


def sample_disagreement(h1: Halfspace, h2: Halfspace, oracle: MembershipOracle, m: int) -> np.ndarray:
    """m Gaussian points on which h1 and h2 disagree.

    Proposals are standard normal coordinates (p, r) along w1 and u,
    where E = ``span_basis(w2, w1)`` holds w1 and, unless w2 = +-w1, the
    unit u along w2's part off w1 (else r plays no part); they are
    accepted where h1 and h2 label p w1 + r u apart.  The search runs
    until m hits, about m / q proposals for a pair that disagrees on
    mass q, so q must be positive.  Only the hits are lifted to d
    dimensions (``geometry.lift``, from fresh Gaussian rows), so each
    returned point has the law of N(0, I_d) conditioned on disagreement.
    """
    E = span_basis(h2.w, h1.w)
    k = E.shape[0]
    # w2 = a w1 + b u, with b = 0 when E is w1 alone
    a, b = np.pad(E @ h2.w, (0, 2 - k))
    found: list[np.ndarray] = []
    hits = 0
    chunk = 4096
    while hits < m:
        P = oracle.gaussian_points(chunk, dim=2)
        p, r = P[:, 0], P[:, 1]
        mask = (p + h1.t >= 0) != (a * p + b * r + h2.t >= 0)
        found.append(P[mask])
        hits += found[-1].shape[0]
        chunk = min(2 * chunk, 1 << 17)
    return lift(np.concatenate(found)[:m, :k], E, oracle.gaussian_points(m))


def tournament(
    candidates: list[Halfspace],
    oracle: MembershipOracle,
    epsilon: float,
    delta: float,
) -> Halfspace:
    """Pick a candidate that loses no pairwise disagreement vote.

    A pure vote over the given pool: ``learn`` passes its leaders, so
    near-duplicate candidates cost no pairs.  A pair whose exact
    disagreement mass is at most epsilon / MERGE_FACTOR is
    interchangeable and skipped without a draw (``join_leaders``
    applies the same rule, so no two leaders are skipped).  Every other
    pair gets m_pair points where the two disagree, drawn by
    ``sample_disagreement`` and label-queried.  On each such point
    exactly one of the two is right, so one wrong-rate decides the pair:
    the first takes a loss when it is wrong on more than 1/2 + 2 gamma
    of the points, the second when the first is wrong on fewer than
    1/2 - 2 gamma.  The returned candidate has the fewest losses (first
    on ties); when the oracle refuses a query (BudgetExceeded), the
    votes taken so far decide.
    """
    k = len(candidates)
    if k == 0:
        raise ValueError("tournament needs at least one candidate")
    if k == 1:
        return candidates[0]
    log_term = math.log(2.0 * k * k / delta)
    m_pair = math.ceil(50.0 * log_term)
    gamma = math.sqrt(log_term / (2.0 * m_pair))
    losses = [0] * k
    try:
        for i in range(k):
            for j in range(i + 1, k):
                if disagreement_mass(candidates[i], candidates[j]) <= epsilon / MERGE_FACTOR:
                    continue
                pts = sample_disagreement(candidates[i], candidates[j], oracle, m_pair)
                labels = oracle.query_batch(pts)
                wrong_i = float(np.mean(np.asarray(candidates[i](pts)) != labels))
                if wrong_i > 0.5 + 2.0 * gamma:
                    losses[i] += 1
                elif wrong_i < 0.5 - 2.0 * gamma:
                    losses[j] += 1
    except BudgetExceeded:
        pass
    return candidates[int(np.argmin(losses))]


def join_leaders(leaders: list[Halfspace], c: Halfspace, epsilon: float) -> bool:
    """Whether c joins a leader: its exact disagreement mass to one is at
    most epsilon / MERGE_FACTOR.  Otherwise c is appended as a leader.

    Any joined candidate is that close to a leader, so voting on the
    leaders alone loses at most epsilon / MERGE_FACTOR against a full vote.
    """
    if any(disagreement_mass(c, h) <= epsilon / MERGE_FACTOR for h in leaders):
        return True
    leaders.append(c)
    return False


def medoid(candidates: list[Halfspace]) -> Halfspace:
    """The candidate with the smallest summed disagreement mass to the others (first on ties).

    Each pair's mass is computed once and added to both sums: the masses
    d(a, b) and d(b, a) can differ in the last bits, which would break a tie.
    """
    totals = [0.0] * len(candidates)
    for i, j in itertools.combinations(range(len(candidates)), 2):
        mass = disagreement_mass(candidates[i], candidates[j])
        totals[i] += mass
        totals[j] += mass
    return candidates[int(np.argmin(totals))]


def _error_and_se(oracle: MembershipOracle, h: Halfspace, m: int, purpose: str) -> tuple[float, float]:
    """Error of h against the oracle's source, and its standard error (0 when exact)."""
    err = estimate_error(oracle.source, h, m, oracle.seed, purpose)
    return err, 0.0 if scores_exactly(oracle.source, h) else math.sqrt(max(err * (1.0 - err), 1.0 / m) / m)


def learn(
    oracle: MembershipOracle,
    cfg: LearnerConfig,
    small_class: SmallClassOracle | None = None,
) -> RunReport:
    """Full learning pipeline against a membership oracle.

    The pipeline assumes the negative side is the minority class.  When
    a probe finds it is not, the run sets the oracle's ``label_sign`` to
    -1 and un-flips its hypotheses; learn sets the sign back to +1 before
    it returns or raises.  The verdict is ``budget`` whenever the oracle
    is spent: the stage that met a refused query stops, and the run ends
    with what it has.  The restarts stop at the first candidate that
    joins a leader (``join_leaders``), or at the cap ``cfg.restarts()``.
    The winner comes from a tournament over the leaders, or, when the
    oracle is spent before the vote, is the candidates' medoid by exact
    disagreement mass, picked without queries.  ``RunReport.candidates``
    lists every candidate, joined or not.
    """
    try:
        return _learn(oracle, cfg, small_class)
    finally:
        oracle.label_sign = 1


def _learn(oracle: MembershipOracle, cfg: LearnerConfig, small_class: SmallClassOracle | None) -> RunReport:
    d = oracle.dim
    start = oracle.ledger
    sc_draws0 = small_class.draws if small_class is not None else 0
    n = collections.Counter()
    flipped = False

    def charged(counter, stage, *args, **kwargs):
        """stage(*args, **kwargs), its ledger change added to n[counter]
        whether it returns or raises."""
        mark = oracle.ledger
        try:
            return stage(*args, **kwargs)
        finally:
            n[counter] += oracle.ledger - mark

    def finish(h, verdict, cands):
        if flipped:
            h = h.flipped()
            cands = [c.flipped() for c in cands]
        err, se = _error_and_se(oracle, h, EVAL_SAMPLES, "final-eval")
        if small_class is not None:
            n["small_class_draws"] = small_class.draws - sc_draws0
        return RunReport(
            hypothesis=h,
            verdict="budget" if oracle.spent else verdict,
            err_estimate=err,
            err_se=se,
            total_queries=oracle.ledger - start,
            candidates=cands,
            flipped=flipped,
            **n,
        )

    try:
        # orientation probe: flip the labels when the negative side is the majority
        probe = charged("queries_bias", oracle.gaussian_queries, 200).labels
        flipped = bool(np.mean(probe == -1) > 0.5)
        oracle.label_sign = -1 if flipped else 1
        sc = None if flipped else small_class
        if sc is not None:
            bias = _bias_from_small_class(sc, BIAS_FROM_SMALL_CLASS_DRAWS)
        else:
            bias = charged("queries_bias", estimate_bias_doubling, oracle, cfg.epsilon, cfg.delta)
    except BudgetExceeded:
        bias = None
    if bias is None or bias.is_small:
        h = constant_plus_one_hypothesis(d)
        return finish(h, "constant_plus_one", [h])

    p_hat = bias.p_hat
    t_a = max(0.0, threshold_for_bias(min(2.0 * p_hat, 0.999)))
    t_b = threshold_for_bias(p_hat)
    step = cfg.step()
    grid = list(np.arange(t_a, t_b, step)) + [t_b]

    candidates: list[Halfspace] = []
    leaders: list[Halfspace] = []
    try:
        for _ in range(cfg.restarts()):
            n["restarts_run"] += 1
            # warm-start at the top grid point, falling back down the grid
            # when the start fails or the descent rejects it at entry
            for t_init in reversed(grid):
                try:
                    w0 = charged("queries_init", init_unextreme, oracle, t_init, cfg.epsilon, sc)
                    h, state = charged(
                        "queries_refine", refine, oracle, w0, grid[-1], cfg.epsilon, cfg.delta, cfg.refine,
                        sigma0=entry_scale(t_init),
                    )
                    break
                except (InitFailure, EntryRejected):
                    n["attempts"] += 1
                    n["init_failures"] += 1
            else:
                continue
            n["rounds"] += state.round
            if h is None and oracle.spent:
                # stopped by the budget before it accepted an offset
                break
            n["attempts"] += 1
            if h is None:
                n["offset_failures"] += 1
                continue
            candidates.append(h)
            if join_leaders(leaders, h, cfg.epsilon):
                break
    except BudgetExceeded:
        pass

    if not candidates:
        h = constant_plus_one_hypothesis(d)
        return finish(h, "constant_plus_one", [h])

    if oracle.spent:
        # a spent oracle refuses every vote: pick without queries
        winner = medoid(candidates)
    else:
        winner = charged("queries_tournament", tournament, leaders, oracle, cfg.epsilon, cfg.delta)
    return finish(winner, "learned", list(candidates))
