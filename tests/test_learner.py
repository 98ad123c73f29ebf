import dataclasses
import importlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfcx, ndtr

import halfspace_lab.initialization as initialization
import halfspace_lab.learner as learner
import halfspace_lab.refinement as refinement
from halfspace_lab.geometry import Halfspace, disagreement_mass, threshold_for_bias
from halfspace_lab.initialization import InitFailure
from halfspace_lab.learner import (
    LearnerConfig,
    RefineConfig,
    constant_plus_one_hypothesis,
    join_leaders,
    learn,
    medoid,
    sample_disagreement,
    tournament,
)
from halfspace_lab.oracles import (
    BoundaryBand,
    CleanLabels,
    LabelSource,
    MembershipOracle,
    RandomFlip,
    RegionFlip,
    SmallClassOracle,
    WhiteBoxView,
)
from halfspace_lab.refinement import EntryRejected, refine_round
from halfspace_lab.rng import substream

from conftest import rotated_from, spread_offsets, unit_vector

BENCH = Path(__file__).resolve().parent.parent / "bench"


def make_oracle(t=1.0, d=6, seed=0, budget=None):
    rng = substream(seed, "learner-setup")
    w_star = unit_vector(rng, d)
    return MembershipOracle(CleanLabels(Halfspace(w_star, t)), seed, budget=budget)


def stage_sum(report):
    return (
        report.queries_bias + report.queries_init
        + report.queries_refine + report.queries_tournament
    )


def learn_d10(restarts, budget=None):
    """learn at d=10, t=1, seed 0: the budget tests' learn."""
    oracle = make_oracle(t=1.0, d=10, seed=0, budget=budget)
    return oracle, learn(oracle, LearnerConfig(epsilon=0.02, restarts_per_gridpoint=restarts))


def spread_learn(restarts, budget=None):
    """learn_d10 with the candidates' offsets spread 0.1 apart, so that
    none joins another and the restarts run on to a vote."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "refine", spread_offsets(learner.refine, (0.0, 0.1, 0.2)))
        return learn_d10(restarts, budget)


FAST = LearnerConfig(epsilon=0.02, delta=0.1, restarts_per_gridpoint=1)
# learn-smallclass's large-threshold setting (t* = 2.5, d = 5)
SMALLCLASS = LearnerConfig(
    epsilon=0.001, restarts_per_gridpoint=1, grid_step=1.0,
    refine=RefineConfig(c_stop=10.0, grad_samples_multiplier=10.0),
)


def failing_first(init, tried, restart=False):
    """init, but the first warm start fails, or with restart every warm
    start of the first restart: each at a threshold not tried before.
    Every threshold tried goes to tried first."""
    def wrapped(oracle, t, *args):
        new = t not in tried
        tried.append(t)
        if len(tried) == 1 or (restart and new):
            raise InitFailure("first try fails")
        return init(oracle, t, *args)
    return wrapped


class TestConfig:
    def test_settable_values(self):
        # the learn-mode --set keys, plus the two values the scenario owns
        def paths(cfg, prefix=""):
            for f in dataclasses.fields(cfg):
                value = getattr(cfg, f.name)
                if dataclasses.is_dataclass(value):
                    yield from paths(value, f"{prefix}{f.name}.")
                else:
                    yield prefix + f.name

        assert sorted(paths(LearnerConfig(epsilon=0.1))) == sorted([
            "epsilon", "delta", "restarts_per_gridpoint", "grid_step",
            "refine.c_stop", "refine.grad_samples_multiplier",
        ])

    @pytest.mark.parametrize("name,kwargs", [
        ("epsilon", dict(epsilon=1.0)),
        ("epsilon", dict(epsilon=1.5)),
        ("delta", dict(epsilon=0.02, delta=1.0)),
        ("delta", dict(epsilon=0.02, delta=1.5)),
    ])
    def test_rejects_probabilities_of_one_or_more(self, name, kwargs):
        # at or past 1, epsilon and delta would run no restarts or divide by log(1) = 0
        with pytest.raises(ValueError, match=name):
            LearnerConfig(**kwargs)

    def test_default_restarts_capped(self):
        assert LearnerConfig(epsilon=1e-6).restarts() == 40

    def test_default_grid_step(self):
        cfg = LearnerConfig(epsilon=0.01)
        assert cfg.step() == pytest.approx(1.0 / (2.0 * math.log(100.0)))


class TestBiasFromSmallClass:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.5, 5.0])
    def test_inverts_the_inverse_mills_ratio(self, t):
        # every draw sits at depth phi(t) / Phi(-t) = sqrt(2/pi) / erfcx(t/sqrt(2)),
        # the mean depth of the negative side of a halfspace at threshold t
        depth = math.sqrt(2.0 / math.pi) / erfcx(t / math.sqrt(2.0))

        class FakeSmallClass:
            def draw_batch(self, n):
                X = np.zeros((n, 3))
                X[:, 0] = depth
                return X

        est = learner._bias_from_small_class(FakeSmallClass(), 2000)
        assert est.p_hat == pytest.approx(ndtr(-t) / 2.0, rel=1e-9, abs=0.0)
        assert est.queries_used == 0


class TestTournament:
    def synthetic_candidates(self, d, errors, seed):
        # at t = 0, rotating by angle pi * err produces exactly that error
        rng = substream(seed, "tournament-setup")
        w_star = unit_vector(rng, d)
        return w_star, [
            Halfspace(rotated_from(w_star, math.pi * e, rng), 0.0) for e in errors
        ]

    def test_single_candidate_returned_unchanged(self):
        oracle = make_oracle(t=0.0)
        h = constant_plus_one_hypothesis(6)
        assert tournament([h], oracle, 0.05, 0.1) is h

    def test_picks_target_over_antipode(self):
        wins = 0
        for seed in range(20):
            oracle = make_oracle(t=0.0, seed=seed)
            good = Halfspace(oracle.source.target.w, 0.0)
            bad = good.flipped()
            if tournament([bad, good], oracle, 0.05, 0.1) is good:
                wins += 1
        assert wins == 20

    def test_one_dimension(self):
        w = np.ones(1)
        oracle = MembershipOracle(CleanLabels(Halfspace(w, 0.3)), seed=0)
        cands = [Halfspace(-w, 0.1), Halfspace(w, 0.3), Halfspace(w, 0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tournament(cands, oracle, 0.05, 0.1) is cands[1]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            tournament([], make_oracle(), 0.05, 0.1)

    def test_near_best_among_spread_pool(self):
        w_star, cands = self.synthetic_candidates(8, [0.01, 0.05, 0.1, 0.2, 0.4], seed=5)
        oracle = MembershipOracle(CleanLabels(Halfspace(w_star, 0.0)), seed=5)
        winner = tournament(cands, oracle, 0.02, 0.1)
        view = WhiteBoxView(oracle.source)
        assert view.true_error(winner) <= 0.1 + 0.02


class TestMerge:
    EPS = 0.02
    RADIUS = EPS / learner.MERGE_FACTOR

    def pool(self):
        # at t = 0 the disagreement mass is angle / pi; c and d tilt to
        # opposite sides of a, 0.9 and 1.1 merge radii away
        w, r = np.eye(4)[0], np.eye(4)[1]

        def tilt(mass):
            angle = math.pi * mass
            return Halfspace(math.cos(angle) * w + math.sin(angle) * r, 0.0)

        a = Halfspace(w, 0.0)
        return {
            "a": a, "a_dup": Halfspace(w.copy(), 0.0), "c": tilt(0.9 * self.RADIUS),
            "d": tilt(-1.1 * self.RADIUS), "far": tilt(0.3),
        }

    @pytest.mark.parametrize("order,leaders", [
        ("a a_dup c d far", "a d far"),
        ("far c a d a_dup", "far c d"),
    ])
    def test_leaders_keep_candidate_order(self, order, leaders):
        pool = self.pool()
        merged = []
        joined = [join_leaders(merged, pool[name], self.EPS) for name in order.split()]
        assert [id(h) for h in merged] == [id(pool[name]) for name in leaders.split()]
        assert joined == [name not in leaders.split() for name in order.split()]

    def test_medoid_is_the_central_candidate(self):
        pool = self.pool()
        # a and its duplicate tie at the median; the first of them wins
        assert medoid([pool[name] for name in "far c a d a_dup".split()]) is pool["a"]

    def test_medoid_ties_pick_the_first(self):
        # two candidates mirrored across w: their summed masses tie exactly,
        # though d(a, b) and d(b, a) differ in the last bit here
        rng = substream(14, "mirror")
        w = unit_vector(rng, 6)
        a = Halfspace(rotated_from(w, 0.1, rng), 1.0)
        b = Halfspace(2.0 * (a.w @ w) * w - a.w, 1.0)
        assert disagreement_mass(a, b) != disagreement_mass(b, a)
        assert medoid([a, b]) is a
        assert medoid([b, a]) is b

    def test_vote_sees_only_leaders(self, monkeypatch):
        # the first three candidates' offsets are spread 0.1 apart, about 18
        # radii; the fourth, as it came out of its descent, joins the first
        sampled, voted = [], []
        sample, vote = learner.sample_disagreement, learner.tournament
        monkeypatch.setattr(
            learner, "sample_disagreement", lambda h1, h2, *a: sampled.append((h1, h2)) or sample(h1, h2, *a)
        )
        monkeypatch.setattr(learner, "tournament", lambda cands, *a: voted.append(cands) or vote(cands, *a))
        monkeypatch.setattr(learner, "refine", spread_offsets(learner.refine, (0.0, 0.1, 0.2)))
        report = learn(make_oracle(t=1.0, d=10, seed=0), LearnerConfig(self.EPS, restarts_per_gridpoint=5))
        cands = report.candidates
        [leaders] = voted
        # the restarts stopped at the first candidate that joined a leader
        assert report.restarts_run == len(cands) == 4
        assert len(leaders) == 3
        assert disagreement_mass(cands[-1], leaders[0]) <= self.RADIUS
        # every candidate sits within the radius of a leader, and the
        # leaders are a subsequence of the candidates
        assert all(any(disagreement_mass(c, h) <= self.RADIUS for h in leaders) for c in cands)
        positions = [next(i for i, c in enumerate(cands) if c is h) for h in leaders]
        assert positions == sorted(positions)
        # every pair of leaders, all further apart than the radius, is voted on
        pairs = [(h1, h2) for i, h1 in enumerate(leaders) for h2 in leaders[i + 1:]]
        assert all(disagreement_mass(h1, h2) > self.RADIUS for h1, h2 in pairs)
        assert [(id(h1), id(h2)) for h1, h2 in sampled] == [(id(h1), id(h2)) for h1, h2 in pairs]


class CountingOracle(MembershipOracle):
    """Records each Gaussian batch it hands out as (rows, dim argument)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def gaussian_points(self, n, dim=None):
        self.batches.append((n, dim))
        return super().gaussian_points(n, dim)

    def rows(self, dim=None):
        return sum(n for n, k in self.batches if k == dim)


class TestSampleDisagreement:
    D = 8

    def pair(self, kind, seed):
        rng = substream(seed, "disagreement-pair")
        w = unit_vector(rng, self.D)
        if kind == "near":
            return Halfspace(w, 1.0), Halfspace(rotated_from(w, math.radians(0.05), rng), 1.05)
        if kind == "parallel":
            return Halfspace(w, 0.2), Halfspace(w, 0.6)
        return Halfspace(w, 0.5), Halfspace(-w, 0.3)

    @pytest.mark.parametrize("kind,m", [("near", 200_000), ("parallel", 40_000), ("antipodal", 20_000)])
    def test_exact_conditional_law(self, kind, m):
        h1, h2 = self.pair(kind, seed=4)
        oracle = CountingOracle(CleanLabels(h1), seed=4)
        X = sample_disagreement(h1, h2, oracle, m)
        assert X.shape == (m, self.D)
        assert np.all(np.asarray(h1(X)) != np.asarray(h2(X)))

        # the search stops at the first 2-D batch that brings the hits to m:
        # the proposals before it hold fewer than m hits, all of them at
        # least m.  So m / proposals brackets the exact mass q, within 4 SE
        *before, last = [n for n, dim in oracle.batches if dim == 2]
        n_before, n_all = sum(before), sum(before) + last
        q = disagreement_mass(h1, h2)

        def band(n):
            return 4.0 * math.sqrt(n * q * (1.0 - q))

        assert q * n_before < m + band(n_before)
        assert q * n_all > m - band(n_all)

        # coordinates in an orthonormal basis of span(w1, w2)'s complement
        e2 = h2.w - np.dot(h2.w, h1.w) * h1.w
        basis = [h1.w] if np.linalg.norm(e2) < 1e-12 else [h1.w, e2 / np.linalg.norm(e2)]
        Q, _ = np.linalg.qr(np.column_stack(basis + [np.eye(self.D)]))
        C = X @ Q[:, len(basis):]
        n = X.shape[0]
        assert np.all(np.abs(C.mean(axis=0)) <= 4.0 / math.sqrt(n))
        assert np.all(np.abs(C.var(axis=0) - 1.0) <= 4.0 * math.sqrt(2.0 / n))

    def test_stops_at_m_hits(self):
        h1, h2 = self.pair("antipodal", seed=1)
        oracle = MembershipOracle(CleanLabels(h1), seed=1)
        assert sample_disagreement(h1, h2, oracle, 50).shape == (50, self.D)

    def test_tournament_lifts_only_queried_points(self):
        # an identical pair and near-identical pairs, all within
        # eps / MERGE_FACTOR and skipped, and pairs with plenty of
        # disagreement
        rng = substream(9, "lift-count")
        w = unit_vector(rng, self.D)
        cands = [
            Halfspace(w, 0.0),
            Halfspace(w, 0.0),
            Halfspace(rotated_from(w, 1.4e-4, rng), 0.0),
            Halfspace(rotated_from(w, 0.3, rng), 0.0),
        ]
        oracle = CountingOracle(CleanLabels(Halfspace(w, 0.0)), seed=9)
        tournament(cands, oracle, 0.05, 0.1)
        assert oracle.ledger > 0
        assert oracle.rows() == oracle.ledger

    def test_hopeless_pair_draws_no_row(self):
        # a and b disagree on mass ~4e-6, far below eps / MERGE_FACTOR, so
        # the pair is skipped before a single proposal is drawn
        w = np.eye(self.D)[0]
        a, b, far = Halfspace(w, 0.0), Halfspace(w, 1e-5), Halfspace(np.eye(self.D)[1], 0.0)
        oracle = CountingOracle(CleanLabels(a), seed=3)
        assert tournament([a, b], oracle, 0.05, 0.1) is a
        assert oracle.batches == [] and oracle.ledger == 0
        # with a third candidate, only the pairs that can be voted on are sampled
        sampled = []
        sample = learner.sample_disagreement
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learner, "sample_disagreement", lambda h1, h2, *r: sampled.append((h1, h2)) or sample(h1, h2, *r))
            tournament([a, b, far], oracle, 0.05, 0.1)
        assert [(id(h1), id(h2)) for h1, h2 in sampled] == [(id(a), id(far)), (id(b), id(far))]

    def test_pair_within_the_merge_radius_draws_no_row(self):
        # two t = 0 halfspaces pi * 1e-3 apart disagree on mass 1e-3, below
        # eps / MERGE_FACTOR = 0.003125 at eps = 0.05: the pair is
        # interchangeable, so the vote skips it without a draw or a query
        rng = substream(3, "mid-mass")
        w = unit_vector(rng, self.D)
        a, b = Halfspace(w, 0.0), Halfspace(rotated_from(w, math.pi * 1e-3, rng), 0.0)
        assert disagreement_mass(a, b) == pytest.approx(1e-3)
        oracle = CountingOracle(CleanLabels(a), seed=3)
        assert tournament([a, b], oracle, 0.05, 0.1) is a
        assert oracle.batches == [] and oracle.ledger == 0


class TestLearn:
    def test_readme_example_stops_on_agreement(self):
        # golden pin, one of the two a change to the random streams
        # re-pins (with test_cli's test_readme_one_restart_learn_pinned);
        # every budget test derives its budget from ledger_marks instead.
        # The README's example (default restarts, a cap of 36 at eps = 0.02):
        # the second candidate joins the first, the restarts stop there, and
        # the one leader wins without a vote.  A change to the restart count
        # or to what the learner queries shows up here as a plain diff
        w = np.eye(20)[0]
        report = learn(MembershipOracle(CleanLabels(Halfspace(w, 1.0)), seed=7), LearnerConfig(epsilon=0.02))
        assert (report.total_queries, report.restarts_run, report.err_estimate) == (
            168_309, 2, pytest.approx(4.465184636e-4, rel=1e-9)
        )
        assert len(report.candidates) == 2
        assert report.queries_tournament == 0
        assert report.attempts == (
            len(report.candidates) + report.init_failures + report.offset_failures
        )

    @pytest.mark.parametrize("seed,label", [(4, "unaided-3"), (5, "unaided-0")])
    def test_smallclass_entry_edge_learns(self, seed, label, monkeypatch):
        # learn-smallclass's unaided learns whose entry search once accepted
        # an offset at the bias window's edge (true rates 0.313 and 0.250):
        # the first round read outside the window, the one restart yielded
        # nothing, and the learn ended at the constant +1 (error 0.0062)
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        [case] = [c for c in workloads.build_learn_smallclass(seed, smoke=False).cases if c.label == label]
        report = learn(MembershipOracle(case.source(), case.oracle_seed), case.cfg)
        assert report.verdict == "learned"
        assert disagreement_mass(case.target, report.hypothesis) <= case.cfg.epsilon

    @pytest.mark.parametrize("source", [CleanLabels, lambda h: RandomFlip(h, 0.05)], ids=["clean", "rcn"])
    def test_default_chow_sample_learns_to_a_twentieth_of_eps(self, source):
        # the learn-refine geometry with one restart: the default Chow
        # sample must leave the learned halfspace within eps / 20 of the
        # target, so a default too small to hold the error shows up here
        worst = 0.0
        for seed in range(5):
            target = Halfspace(unit_vector(substream(seed, "learner-setup"), 20), 1.0)
            report = learn(MembershipOracle(source(target), seed), FAST)
            assert report.verdict == "learned"
            worst = max(worst, disagreement_mass(target, report.hypothesis))
        assert worst <= FAST.epsilon / 20

    def test_disagreeing_candidates_run_to_the_cap_and_vote(self, monkeypatch):
        oracle = CountingOracle(make_oracle(t=1.0, d=10, seed=0).source, seed=0)
        # the leaders voted on, and the 2-D rows drawn before the vote
        voted, rows_before = [], []
        vote = learner.tournament
        monkeypatch.setattr(
            learner, "tournament",
            lambda cands, *a: voted.append(cands) or rows_before.append(oracle.rows(dim=2)) or vote(cands, *a),
        )
        monkeypatch.setattr(learner, "refine", spread_offsets(learner.refine, (0.0, 0.1, 0.2)))
        report = learn(oracle, LearnerConfig(epsilon=0.02, restarts_per_gridpoint=3))
        assert report.restarts_run == len(report.candidates) == 3
        [leaders] = voted
        assert [id(h) for h in leaders] == [id(c) for c in report.candidates]
        # three pairs, 260 queries each, found among this many 2-D
        # proposals of the vote's own: a change to the vote's random stream
        # shows up here
        assert report.queries_tournament == 780
        assert oracle.rows(dim=2) - rows_before[0] == 53_248

    def test_last_round_out_of_window_is_an_offset_failure(self, monkeypatch):
        # every round's Chow labels come out 80% negative: the first round's
        # t_cf is then no estimate of t*, so the descent ends there without
        # a candidate
        monkeypatch.setattr(
            refinement, "refine_round",
            lambda *args, **kwargs: dataclasses.replace(refine_round(*args, **kwargs), neg_rate=0.8),
        )
        report = learn(make_oracle(t=1.0, d=6, seed=11), FAST)
        assert report.rounds > 0
        assert (report.attempts, report.offset_failures, report.init_failures) == (1, 1, 0)
        assert report.verdict == "constant_plus_one"

    def test_clean_moderate_threshold(self):
        oracle = make_oracle(t=1.0, d=6, seed=11)
        report = learn(oracle, FAST)
        assert report.verdict == "learned"
        assert report.err_estimate <= 0.1
        assert not report.flipped

    def test_stage_counts_sum_to_ledger(self, monkeypatch):
        # the first warm start fails, so this learn has a failed attempt
        monkeypatch.setattr(learner, "init_unextreme", failing_first(learner.init_unextreme, []))
        oracle = make_oracle(t=1.0, d=5, seed=3)
        report = learn(oracle, FAST)
        assert stage_sum(report) == report.total_queries == oracle.ledger
        # failed attempts are counted too
        assert report.verdict == "learned"
        assert report.init_failures + report.offset_failures > 0
        assert report.attempts == (
            len(report.candidates) + report.init_failures + report.offset_failures
        )

    def test_init_falls_back_down_the_grid(self, monkeypatch):
        # the first warm start fails: the restart retries one grid point
        # down and starts its one descent at that point's entry scale
        tried, sigma0s = [], []

        def spy(refine):
            def wrapped(*args, **kwargs):
                sigma0s.append(kwargs["sigma0"])
                return refine(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(learner, "init_unextreme", failing_first(learner.init_unextreme, tried))
        monkeypatch.setattr(learner, "refine", spy(learner.refine))
        report = learn(make_oracle(t=1.0, d=5, seed=3), FAST)
        assert len(tried) == 2 and tried[0] > tried[1]
        assert sigma0s == [min(1.0 / tried[1], 0.5)]
        assert report.init_failures == 1
        assert report.attempts == (
            len(report.candidates) + report.init_failures + report.offset_failures
        )
        assert report.verdict == "learned"

    def test_restart_whose_warm_starts_all_fail_runs_the_next(self, monkeypatch):
        # every grid point of the first restart fails to warm-start, so it
        # runs no descent; the second starts again at the top grid point
        tried = []
        monkeypatch.setattr(learner, "init_unextreme", failing_first(learner.init_unextreme, tried, restart=True))
        oracle = make_oracle(t=1.0, d=5, seed=3)
        report = learn(oracle, LearnerConfig(epsilon=0.02, restarts_per_gridpoint=2))
        first_restart = tried.index(tried[0], 1)
        assert first_restart > 1
        assert report.restarts_run == 2
        assert report.init_failures == first_restart
        assert report.attempts == (
            len(report.candidates) + report.init_failures + report.offset_failures
        )
        assert stage_sum(report) == report.total_queries == oracle.ledger
        assert report.verdict == "learned"

    def test_warm_start_rejected_at_entry_falls_back(self, monkeypatch):
        # the first warm start is far off (sin(theta/2) = 0.65, as an
        # extreme-threshold start once was): the descent finds no in-window
        # offset in [0, t_top] at sigma0 and rejects it at entry, which
        # counts as a failed warm start, and the restart goes on from the
        # next grid point's warm start instead of ending
        tried, descents = [], []

        def bad_first(init):
            def wrapped(oracle, t, *args):
                tried.append(t)
                if len(tried) == 1:
                    w_star = oracle.source.target.w
                    return rotated_from(w_star, 2.0 * math.asin(0.65), substream(0, "bad-start"))
                return init(oracle, t, *args)
            return wrapped

        def spy(refine):
            def wrapped(*args, **kwargs):
                try:
                    out = refine(*args, **kwargs)
                except EntryRejected:
                    descents.append("rejected")
                    raise
                descents.append("ran")
                return out
            return wrapped

        monkeypatch.setattr(learner, "init_unextreme", bad_first(learner.init_unextreme))
        monkeypatch.setattr(learner, "refine", spy(learner.refine))
        report = learn(make_oracle(t=2.5, d=5, seed=3), SMALLCLASS)
        assert descents == ["rejected", "ran"]
        assert len(tried) == 2 and tried[0] > tried[1]
        assert report.init_failures == 1
        assert report.attempts == (
            len(report.candidates) + report.init_failures + report.offset_failures
        )
        assert stage_sum(report) == report.total_queries
        assert report.verdict == "learned"
        assert report.err_estimate <= 0.01

    def test_no_candidate_below_the_target_under_label_noise(self):
        # with rcn flips the localized rate never falls below the flip rate,
        # so every round's labels must themselves lie in the bias window,
        # and no candidate settles for t_hat < t*
        t_star = 1.0
        oracle = MembershipOracle(RandomFlip(make_oracle(t=t_star, d=10, seed=1).source.target, 0.05), 1)
        report = learn(oracle, FAST)
        assert report.verdict == "learned"
        assert all(c.t > t_star - 0.1 for c in report.candidates), [c.t for c in report.candidates]

    def test_learner_reads_no_ground_truth(self):
        # a source whose target, margin law and opt raise when read from any
        # module but halfspace_lab.oracles, which plays nature, gives a run
        # value-equal to the plain source's: only the oracle's channel and
        # its evaluation channel read them.  A bare source with only dim and
        # sample_labels (no target, opt or margin law) still learns, through
        # full d-dimensional draws, and the evaluation channel scores it by
        # Monte Carlo, checked against the exact disagreement
        class GroundTruthRead(Exception):
            pass

        class Guarded(LabelSource):
            def __init__(self, source):
                self._source = source

            @staticmethod
            def _check():
                caller = sys._getframe(2).f_globals.get("__name__")
                if caller != "halfspace_lab.oracles":
                    raise GroundTruthRead(caller)

            @property
            def target(self):
                self._check()
                return self._source.target

            @property
            def opt(self):
                self._check()
                return self._source.opt

            def margin_law(self):
                self._check()
                return self._source.margin_law()

            def sample_labels(self, X, rng):
                return self._source.sample_labels(X, rng)

        class LabelsOnly:
            __slots__ = ("_source",)

            def __init__(self, source):
                self._source = source

            @property
            def dim(self):
                return self._source.dim

            def sample_labels(self, X, rng):
                return self._source.sample_labels(X, rng)

        full = make_oracle(t=1.0, d=6, seed=11)
        target = full.source.target
        guarded = MembershipOracle(Guarded(full.source), 11)
        for name in ("target", "opt"):
            with pytest.raises(GroundTruthRead):
                getattr(guarded.source, name)
        with pytest.raises(GroundTruthRead):
            guarded.source.margin_law()
        a, g = learn(full, FAST), learn(guarded, FAST)
        assert a.verdict == g.verdict == "learned"
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(g, f.name)
            if f.name == "candidates":
                assert [(c.w.tolist(), c.t) for c in x] == [(c.w.tolist(), c.t) for c in y]
            elif f.name == "hypothesis":
                assert (x.w.tolist(), x.t) == (y.w.tolist(), y.t)
            else:
                assert x == y, f.name
        assert guarded.ledger == full.ledger
        mass = disagreement_mass(a.hypothesis, target)
        assert (a.err_estimate, a.err_se) == (pytest.approx(mass, rel=0, abs=1e-12), 0.0)
        blind = MembershipOracle(LabelsOnly(full.source), 11)
        b = learn(blind, FAST)
        assert b.verdict == "learned"
        assert stage_sum(b) == b.total_queries == blind.ledger
        mass = disagreement_mass(b.hypothesis, target)
        m, err = learner.EVAL_SAMPLES, b.err_estimate
        assert abs(err - mass) <= 4 * math.sqrt(max(mass * (1 - mass), 1 / m) / m)
        assert b.err_se == math.sqrt(max(err * (1 - err), 1 / m) / m)

    def test_flipped_run_scores_the_unflipped_hypothesis(self, monkeypatch):
        # at t* = -1 the negative side is the majority: the run flips the
        # oracle's labels and, before the final evaluation, un-flips its
        # hypothesis, whose exact error against the target is reported
        oracle = make_oracle(t=-1.0, d=6, seed=3)
        signs, evaluate = [], learner.estimate_error
        monkeypatch.setattr(
            learner, "estimate_error", lambda *args: signs.append(oracle.label_sign) or evaluate(*args)
        )
        report = learn(oracle, FAST)
        assert report.verdict == "learned" and report.flipped
        assert signs == [-1]
        mass = disagreement_mass(oracle.source.target, report.hypothesis)
        assert (report.err_estimate, report.err_se) == (mass, 0.0)
        assert report.err_estimate <= FAST.epsilon

    @pytest.mark.parametrize("source", [
        CleanLabels,
        lambda h: RandomFlip(h, 0.05),
        # criterion 9's band, opt = eps / 2: Phi(-1 + b) - Phi(-1 - b) = 0.01
        lambda h: BoundaryBand(h, 0.0206636568333965),
    ], ids=["clean", "rcn", "band"])
    def test_every_round_covers_the_true_angle(self, source, round_spy):
        # whole descents in the learn-refine geometry: the sigma each round
        # certifies is never below the true sin(theta/2) of its direction
        for seed in range(4):
            target = Halfspace(unit_vector(substream(seed, "learner-setup"), 20), 1.0)
            report = learn(MembershipOracle(source(target), seed), FAST)
            assert report.verdict == "learned"
        assert len(round_spy) > 100
        assert all(r.covered for r in round_spy)
        # and not only by the fixed schedule: the certificate set sigma on
        # a fair share of rounds (about 30% here)
        assert sum(not r.fixed_step for r in round_spy) >= 0.15 * len(round_spy)

    def test_region_flip_off_the_margin_law(self, round_spy):
        # labels flipped on half of a thin band around the target boundary,
        # the half with v.x > 0 for a v orthogonal to w*: not a function of
        # the margin, mass eps/32.  Every certified sigma still covers the
        # true angle, and the learn reaches eps
        eps = 0.02
        rng = substream(1, "region-flip")
        target = Halfspace(unit_vector(rng, 10), 1.0)
        v = rotated_from(target.w, math.pi / 2, rng)
        # Phi(-1 + h) - Phi(-1 - h) = eps / 16
        h = 0.002582957096328608
        source = RegionFlip(target, lambda X: (np.abs(target.margins(X)) <= h) & (X @ v > 0), eps / 32)
        report = learn(MembershipOracle(source, 1), LearnerConfig(epsilon=eps, restarts_per_gridpoint=1))
        assert report.verdict == "learned"
        assert len(round_spy) == report.rounds > 0 and all(r.covered for r in round_spy)
        # the offset is the last round's closed form, read off labels that
        # the flipped region reaches too
        assert report.hypothesis.t == round_spy[-1].state.t_cf
        assert disagreement_mass(report.hypothesis, target) <= eps

    def test_tiny_bias_returns_constant(self):
        oracle = make_oracle(t=3.5, d=5, seed=0)
        report = learn(oracle, LearnerConfig(epsilon=0.05, restarts_per_gridpoint=1))
        assert report.verdict == "constant_plus_one"
        assert report.err_estimate <= 0.05

    @pytest.mark.parametrize("d,p,eps", [(5, 0.15, 0.05), (10, 0.05, 0.02)])
    def test_bias_above_epsilon_is_learned(self, d, p, eps):
        # the constant +1 hypothesis errs on exactly p > eps here, so the
        # small verdict must not fire: the learn reaches exact error <= eps
        oracle = make_oracle(t=threshold_for_bias(p), d=d, seed=0)
        report = learn(oracle, LearnerConfig(epsilon=eps))
        assert report.verdict == "learned"
        assert disagreement_mass(report.hypothesis, oracle.source.target) <= eps

    def test_negative_threshold_is_flipped(self):
        # majority-negative target: learner must flip, learn, and un-flip
        oracle = make_oracle(t=-1.0, d=5, seed=2)
        report = learn(oracle, FAST)
        assert report.flipped
        assert report.err_estimate <= 0.1
        # the oracle answers the true labels again once learn returns
        assert oracle.label_sign == 1
        X = oracle.gaussian_points(500)
        assert np.array_equal(oracle.query_batch(X), oracle.source.target(X))

    def test_label_sign_restored_when_learn_raises(self, monkeypatch):
        def broken_refine(*args, **kwargs):
            raise RuntimeError("refine failed")

        monkeypatch.setattr(learner, "refine", broken_refine)
        oracle = make_oracle(t=-1.0, d=5, seed=2)
        with pytest.raises(RuntimeError):
            learn(oracle, FAST)
        assert oracle.label_sign == 1

    def test_budget_verdict(self):
        oracle = make_oracle(t=1.0, d=5, seed=1, budget=5000)
        report = learn(oracle, FAST)
        assert report.verdict == "budget"
        assert report.total_queries <= 5000

    # each budget falls halfway through its stage in the same learn run
    # without a budget, so the oracle refuses a batch of that stage: the
    # bias ladder's, the first warm start's, the first descent's, or the
    # vote's, whose three restarts' candidates are spread 0.1 apart so that
    # none joins another.  The probe's 150 lies below its fixed 200 queries
    @pytest.mark.parametrize("restarts,stage", [
        (1, "probe"),
        (1, "bias"),
        (1, "init"),
        (1, "refine"),
        (3, "tournament"),
    ])
    def test_budget_is_a_hard_ceiling(self, restarts, stage, ledger_marks):
        budget = 150 if stage == "probe" else ledger_marks(spread_learn, restarts=restarts).halfway(stage)
        oracle, report = spread_learn(restarts=restarts, budget=budget)
        assert oracle.spent
        assert report.verdict == "budget"
        assert oracle.ledger <= budget
        assert stage_sum(report) == report.total_queries == oracle.ledger
        # the stage that met the refused query, and none after it, charged
        reached = {
            "probe": report.total_queries == 0,
            "bias": 200 < report.queries_bias == report.total_queries,
            "init": 0 < report.queries_init and report.queries_refine == 0,
            "refine": report.rounds > 0 and report.queries_tournament == 0,
            "tournament": report.queries_tournament > 0,
        }
        assert reached[stage]
        # a learn without a candidate reports its constant fallback as one
        fallback = report.hypothesis.t == constant_plus_one_hypothesis(10).t
        produced = 0 if fallback else len(report.candidates)
        assert report.attempts == produced + report.init_failures + report.offset_failures

    def test_budget_stop_in_a_descent_keeps_its_offset(self, monkeypatch, ledger_marks):
        # the budget runs out halfway through the second restart's descent,
        # after some rounds: that descent's last state, with its last
        # complete round's closed-form offset, is a candidate taken without
        # a further query, and it is no offset failure
        budget = ledger_marks(learn_d10, restarts=2).halfway("refine", 1)
        states = []

        def spy(*args, **kwargs):
            h, state = refinement.refine(*args, **kwargs)
            states.append(state)
            return h, state

        monkeypatch.setattr(learner, "refine", spy)
        oracle, report = learn_d10(restarts=2, budget=budget)
        assert report.verdict == "budget"
        assert oracle.ledger <= budget
        assert len(states) == len(report.candidates) == 2
        last = report.candidates[-1]
        assert states[-1].round > 0
        expected = Halfspace(states[-1].w, states[-1].t_cf)
        assert (last.w.tolist(), last.t) == (expected.w.tolist(), expected.t)
        assert report.rounds == sum(s.round for s in states)
        assert report.offset_failures == 0
        assert report.attempts == 2 + report.init_failures

    def test_small_class_oracle_replaces_exploration_queries(self):
        # bias bracketing and negative anchors come from free draws, so the
        # exploration stages stop charging the membership ledger
        cfg = LearnerConfig(epsilon=0.01, delta=0.1, restarts_per_gridpoint=1)
        t = 1.5
        base = learn(make_oracle(t=t, d=5, seed=4), cfg)
        oracle = make_oracle(t=t, d=5, seed=4)
        sc = SmallClassOracle(oracle.source, seed=4)
        aided = learn(oracle, cfg, small_class=sc)
        assert base.verdict == aided.verdict == "learned"
        assert aided.small_class_draws > 0
        assert aided.queries_bias < base.queries_bias / 10
        assert aided.err_estimate <= 0.1

    def test_aided_warm_start_charges_only_its_chow_rows(self, monkeypatch):
        # at a large threshold the warm start is still the smoothed-Chow
        # start: one small-class anchor draw and m = ceil(60 d ln(1/eps))
        # queries per try, with no sharpening rounds after it
        tries = []

        def counting(init):
            def wrapped(oracle, t, *args):
                tries.append(t)
                return init(oracle, t, *args)
            return wrapped

        monkeypatch.setattr(learner, "init_unextreme", counting(learner.init_unextreme))
        oracle = make_oracle(t=2.5, d=5, seed=3)
        report = learn(oracle, SMALLCLASS, small_class=SmallClassOracle(oracle.source, seed=3))
        m = math.ceil(60.0 * 5 * math.log(1.0 / SMALLCLASS.epsilon))
        assert report.verdict == "learned"
        assert m == 2073 and len(tries) >= 1
        assert report.queries_init == len(tries) * m
        assert report.small_class_draws == learner.BIAS_FROM_SMALL_CLASS_DRAWS + len(tries)

    def test_unaided_large_threshold_runs_no_angle_test(self, monkeypatch):
        calls = []
        monkeypatch.setattr(initialization, "angle_test", lambda *args, **kwargs: calls.append(args))
        report = learn(make_oracle(t=2.5, d=5, seed=3), SMALLCLASS)
        assert report.verdict == "learned"
        assert calls == []

    def test_grid_covers_target_threshold(self):
        # white-box: with a correct bracket some grid point t_j has
        # t_j - step <= t* <= t_j; proxy check via the learned threshold
        oracle = make_oracle(t=1.0, d=6, seed=7)
        report = learn(oracle, FAST)
        assert abs(report.hypothesis.t - 1.0) <= 3.0 * FAST.step()
