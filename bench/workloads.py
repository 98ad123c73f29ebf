"""The benchmark's four workloads.

Each workload is built from the run's seed alone: the benchmark draws its
own target halfspaces, label sources and pools, hands them to the library
API, and checks every output against the references in ``reference.py``.
A round runs every operation of the workload once, on fresh oracles, so
all rounds of a run repeat the same work and charge the same queries.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

import halfspace_lab.learner as learner
import halfspace_lab.lowerbound as lowerbound
from halfspace_lab.geometry import Halfspace
from halfspace_lab.oracles import CleanLabels, MembershipOracle, RandomFlip, SmallClassOracle
from halfspace_lab.refinement import RefineConfig

from reference import disagreement, negative_mask, single_point_capture

# A learned halfspace passes when its exact disagreement with the target is
# at most ERR_OPT_FACTOR * opt + ERR_EPS_FACTOR * eps_stop, where eps_stop =
# max(1, refine.c_stop) * epsilon is the accuracy the refinement stop rule
# sigma <= c_stop * epsilon * exp(t^2 / 2) aims at.
ERR_OPT_FACTOR = 2.0
ERR_EPS_FACTOR = 1.0


class LedgerCheck(MembershipOracle):
    """MembershipOracle that also counts, on the benchmark's side, the rows
    it is asked to label, to check the ledger against."""

    rows = 0

    def query(self, x):
        self.rows += 1
        return super().query(x)

    def query_batch(self, X):
        self.rows += int(np.shape(X)[0]) if np.ndim(X) == 2 else 1
        return super().query_batch(X)


def _stream(seed: int, *path: str) -> np.random.Generator:
    seed %= 1 << 64
    return np.random.default_rng([seed & 0xFFFFFFFF, seed >> 32, *(zlib.crc32(p.encode()) for p in path)])


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    w = rng.standard_normal(d)
    return w / np.linalg.norm(w)


@dataclass
class Outcome:
    """What one round did: operations attempted and failed, label queries
    charged, and one line per failed check."""

    attempted: int = 0
    failed: int = 0
    queries: int = 0
    per_op: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, queries: int, problems: list[str]) -> None:
        self.attempted += 1
        self.queries += queries
        self.per_op[label] = queries
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


@dataclass(frozen=True)
class LearnCase:
    label: str
    target: Halfspace
    noise: float  # random-flip rate; 0 = clean labels
    cfg: learner.LearnerConfig
    oracle_seed: int
    small_class_seed: int | None = None

    def source(self):
        if self.noise == 0.0:
            return CleanLabels(self.target)
        return RandomFlip(self.target, self.noise)

    def err_bound(self) -> float:
        eps_stop = max(1.0, self.cfg.refine.c_stop) * self.cfg.epsilon
        return ERR_OPT_FACTOR * self.noise + ERR_EPS_FACTOR * eps_stop


def run_learn_case(case: LearnCase) -> tuple[int, list[str]]:
    """One learn call on fresh oracles; returns (queries, failed checks)."""
    source = case.source()
    oracle = LedgerCheck(source, case.oracle_seed)
    small_class = None
    if case.small_class_seed is not None:
        small_class = SmallClassOracle(source, case.small_class_seed)
    report = learner.learn(oracle, case.cfg, small_class)
    problems = []
    stages = report.queries_bias + report.queries_init + report.queries_refine + report.queries_tournament
    if not (stages == report.total_queries == oracle.ledger == oracle.rows):
        problems.append(
            f"stage queries {stages}, total_queries {report.total_queries}, "
            f"ledger {oracle.ledger}, counted rows {oracle.rows} differ"
        )
    w, t = case.target.w, case.target.t
    err = disagreement(report.hypothesis.w, report.hypothesis.t, w, t)
    bound = case.err_bound()
    if not err <= bound:
        problems.append(f"disagreement with target {err:.6f} > {bound:.6f}")
    best = min(disagreement(c.w, c.t, w, t) for c in report.candidates)
    if not err - best <= bound:
        problems.append(f"tournament winner {err:.6f} vs best candidate {best:.6f}: gap > {bound:.6f}")
    return report.total_queries, problems


@dataclass
class LearnWorkload:
    cases: list[LearnCase]
    # (aided, unaided) labels: the aided run must charge at most half the queries
    halving: list[tuple[str, str]] = field(default_factory=list)

    def round(self) -> Outcome:
        results = {}
        for case in self.cases:
            try:
                results[case.label] = run_learn_case(case)
            except Exception as exc:  # a raising scenario is a failed operation
                results[case.label] = (0, [f"raised {type(exc).__name__}: {exc}"])
        for aided, unaided in self.halving:
            (q_aided, problems), (q_unaided, _) = results[aided], results[unaided]
            if not 2 * q_aided <= q_unaided:
                problems.append(f"charged {q_aided} queries, more than half of the unaided {q_unaided}")
        out = Outcome()
        for label, (queries, problems) in results.items():
            out.record(label, queries, problems)
        return out


def _case(seed, workload, label, d, t, noise, cfg, small_class=False) -> LearnCase:
    rng = _stream(seed, workload, label)
    target = Halfspace(_unit(rng, d), t)
    oracle_seed = int(rng.integers(2 ** 32))
    sc_seed = int(rng.integers(2 ** 32)) if small_class else None
    return LearnCase(label, target, noise, cfg, oracle_seed, sc_seed)


def build_learn_refine(seed: int, smoke: bool) -> LearnWorkload:
    # Clean targets charge nearly the same queries on every seed; noisy ones
    # swing with how many of the five grid points yield a candidate, so
    # two of each per round keep the round's total steady.
    d, eps, targets = (5, 0.03, 1) if smoke else (20, 0.02, 2)
    cfg = learner.LearnerConfig(epsilon=eps, restarts_per_gridpoint=1)
    return LearnWorkload([
        _case(seed, "learn-refine", f"{kind}-{i}", d, 1.0, noise, cfg)
        for i in range(targets)
        for kind, noise in (("clean", 0.0), ("rcn", 0.05))
    ])


def build_learn_tournament(seed: int, smoke: bool) -> LearnWorkload:
    d, eps, restarts = (5, 0.03, 2) if smoke else (10, 0.02, 4)
    cfg = learner.LearnerConfig(epsilon=eps, restarts_per_gridpoint=restarts)
    return LearnWorkload([_case(seed, "learn-tournament", "clean", d, 1.0, 0.0, cfg)])


def build_learn_smallclass(seed: int, smoke: bool) -> LearnWorkload:
    # Criterion 11's refine settings.  A grid step wider than the threshold
    # bracket keeps two grid points per learn: the default step gives four or
    # five, and the tournament's pairs grow with their square, so the work
    # per target swung by a fifth between seeds.  Five targets per round
    # average out what remains.
    targets = 1 if smoke else 5
    cfg = learner.LearnerConfig(
        epsilon=0.001,
        restarts_per_gridpoint=1,
        grid_step=1.0,
        refine=RefineConfig(c_stop=10.0, grad_samples_multiplier=10.0),
    )
    cases, halving = [], []
    for i in range(targets):
        case = _case(seed, "learn-smallclass", f"target-{i}", 5, 2.5, 0.0, cfg, small_class=True)
        cases += [replace(case, label=f"aided-{i}"), replace(case, label=f"unaided-{i}", small_class_seed=None)]
        halving.append((f"aided-{i}", f"unaided-{i}"))
    return LearnWorkload(cases, halving)


# Fixed inputs for the capture check, as in acceptance criterion 12b: a
# correct estimator still leaves 3 standard errors on 0.27% of random
# inputs, and a check that fails on some seeds would make the failed share
# of a run depend on its seed.
_CAPTURE_STREAM = 12


@dataclass
class PoolWorkload:
    points: np.ndarray
    target: Halfspace
    negatives: np.ndarray  # the benchmark's own labels of the pool
    seed: int
    k: int
    tuples: int
    capture_trials: int
    game_negatives: int

    def round(self) -> Outcome:
        out = Outcome()
        for label, op in (
            ("statistics", self._statistics),
            ("random-game", lambda: self._game(lowerbound.RandomOrder)),
            ("greedy-game", lambda: self._game(lowerbound.GreedyDirection)),
        ):
            try:
                queries, problems = op()
            except Exception as exc:
                queries, problems = 0, [f"raised {type(exc).__name__}: {exc}"]
            out.record(label, queries, problems)
        return out

    def _statistics(self) -> tuple[int, list[str]]:
        problems = []
        rng = _stream(self.seed, "pool-lowerbound", "isometry")
        stat = lowerbound.near_isometry_stat(self.points, self.k, self.tuples, rng)
        if not (math.isfinite(stat) and stat >= 0.0):
            problems.append(f"near-isometry statistic {stat}")
        d = self.points.shape[1]
        x = np.zeros(d)
        x[0] = math.sqrt(d)
        rng = np.random.default_rng(_CAPTURE_STREAM)
        trials = self.capture_trials
        prob = lowerbound.negative_capture_prob(x[None, :], self.target.t, trials, rng)
        p = single_point_capture(x, self.target.t)
        se = math.sqrt(p * (1.0 - p) / trials)
        if not abs(prob - p) <= 3.0 * se:
            problems.append(f"capture {prob:.6f} vs closed form {p:.6f}: beyond 3 SE = {3 * se:.6f}")
        return 0, problems

    def _game(self, strategy_cls) -> tuple[int, list[str]]:
        pool = lowerbound.Pool(self.points, self.target)
        rng = _stream(self.seed, "pool-lowerbound", strategy_cls.__name__)
        found, used = lowerbound.play_query_game(pool, strategy_cls(rng), self.game_negatives, pool.size)
        problems = []
        revealed = np.fromiter(pool.revealed, dtype=np.int64)
        own = int(np.count_nonzero(self.negatives[revealed]))
        if used != revealed.size:
            problems.append(f"{used} reveals reported, {revealed.size} made")
        if own != found:
            problems.append(f"{found} negatives reported, {own} negative by own margins")
        if found != self.game_negatives:
            problems.append(f"found {found} of {self.game_negatives} negatives")
        return used, problems


def build_pool_lowerbound(seed: int, smoke: bool) -> PoolWorkload:
    if smoke:
        d, m, tuples, trials, negatives = 50, 2000, 50, 5000, 10
    else:
        d, m, tuples, trials, negatives = 200, 20000, 500, 20000, 1000
    rng = _stream(seed, "pool-lowerbound", "pool")
    target = Halfspace(_unit(rng, d), 1.0)
    points = rng.standard_normal((m, d))
    return PoolWorkload(
        points, target, negative_mask(points, target.w, target.t), seed,
        k=10, tuples=tuples, capture_trials=trials, game_negatives=negatives,
    )


WORKLOADS = {
    "learn-refine": build_learn_refine,
    "learn-tournament": build_learn_tournament,
    "learn-smallclass": build_learn_smallclass,
    "pool-lowerbound": build_pool_lowerbound,
}
