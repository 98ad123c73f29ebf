import math

import numpy as np
import pytest

from halfspace_lab.estimation import (
    C_SMALL,
    LADDER_BASE,
    LADDER_BLOCK,
    LADDER_THRESHOLD_FACTOR,
    RETURN_SHRINK,
    SAMPLES_PER_LEVEL,
    BiasEstimate,
    empirical_projected_chow,
    estimate_bias_doubling,
    probability_window_check,
    window_check_samples,
)
from halfspace_lab.geometry import Halfspace, chow_vector, threshold_for_bias
from halfspace_lab.oracles import BoundaryBand, CleanLabels, MembershipOracle, RandomFlip, RegionFlip
from halfspace_lab.rng import substream


def make_oracle(p, seed=0, d=3):
    w = np.zeros(d)
    w[0] = 1.0
    return MembershipOracle(CleanLabels(Halfspace(w, threshold_for_bias(p))), seed)


class LabelSpy(MembershipOracle):
    """Records the labels of every batch it answers, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def query_batch(self, X):
        labels = super().query_batch(X)
        self.batches.append(labels)
        return labels


def spy_oracle(p, seed=0, d=3):
    return LabelSpy(make_oracle(p, seed, d).source, seed)


DELTA = 0.1
# the ladder's repetitions at DELTA, and the majority that decides a level
REPS = 2 * math.ceil(math.log(1.0 / DELTA)) + 1
NEED = REPS // 2 + 1
# a ladder level
ON_LEVEL = 0.5 * LADDER_BASE ** 5
# (p, eps, seed, verdict): a bracket whose last level takes a fifth rep; a
# bracket after a level whose first reps split 2-2 and whose last three
# reps are queried one batch each; and a small-bias ladder, whose levels
# take more than one block
LADDER_CASES = [
    (0.1, 0.005, 2, "bracket"),
    (1.04 * ON_LEVEL, 0.001, 2, "bracket"),
    (0.001, 0.01, 0, "small"),
]


def per_rep_ladder(oracle, epsilon, delta):
    """The bias ladder with one channel call per repetition it tests, under
    the same rule: what the blocked ladder must equal.  Returns the
    estimate and a log of (level, batch, rep, labels), one entry a call."""
    start = oracle.ledger
    reps = 2 * max(1, math.ceil(math.log(1.0 / delta))) + 1
    need = reps // 2 + 1
    sizes, counts, log = [0] * reps, [0] * reps, []
    level = 0
    while True:
        p_hat = 0.5 * LADDER_BASE ** level
        if p_hat < C_SMALL * epsilon:
            return BiasEstimate("small", p_hat, oracle.ledger - start), log
        n = math.ceil(SAMPLES_PER_LEVEL / p_hat)
        threshold = LADDER_THRESHOLD_FACTOR * p_hat * n
        passed = failed = batch = 0
        while max(passed, failed) < need:
            tested = range(passed + failed, passed + failed + need - max(passed, failed))
            for r in tested:
                labels = oracle.gaussian_queries(n - sizes[r]).labels
                log.append((level, batch, r, labels))
                sizes[r] = n
                counts[r] += int(np.count_nonzero(labels == -1))
            passed += sum(counts[r] >= threshold for r in tested)
            failed += sum(counts[r] < threshold for r in tested)
            batch += 1
        if passed >= need:
            return BiasEstimate("bracket", RETURN_SHRINK * p_hat, oracle.ledger - start), log
        level += 1


def level_samples(log, i):
    """(rep, its whole sample) for each rep a per_rep_ladder log tested at
    level i, in the order tested."""
    return [
        (r, np.concatenate([labels for lv, _, rr, labels in log if rr == r and lv <= i]))
        for level, _, r, _ in log
        if level == i
    ]


def blocked_ladder(p, eps, seed):
    """The blocked ladder's estimate, its channel calls' sizes, and the log
    of per_rep_ladder on the same oracle: the two must give the same
    estimate and draw the same rows in the same order, so the log says
    which rep each of the blocked ladder's rows went to."""
    oracle = spy_oracle(p, seed)
    est = estimate_bias_doubling(oracle, epsilon=eps, delta=DELTA)
    reference, log = per_rep_ladder(make_oracle(p, seed), eps, DELTA)
    assert est == reference
    stream = np.concatenate(oracle.batches)
    assert np.array_equal(stream, np.concatenate([labels for *_, labels in log]))
    assert est.queries_used == oracle.ledger == len(stream)
    return est, [len(b) for b in oracle.batches], log


class TestBiasDoubling:
    @pytest.mark.parametrize("p", [0.3, 0.1])
    def test_bracket_contains_truth(self, p):
        est = estimate_bias_doubling(make_oracle(p), epsilon=0.005, delta=0.1)
        assert est.verdict == "bracket"
        assert est.p_hat <= p <= 4.0 * est.p_hat

    def test_small_verdict_for_tiny_bias(self):
        est = estimate_bias_doubling(make_oracle(0.001), epsilon=0.01, delta=0.1)
        assert est.is_small
        # every level down to the last one tested failed, and that level
        # is at most epsilon
        assert est.p_hat < C_SMALL * 0.01 <= est.p_hat / LADDER_BASE <= 0.01

    def test_queries_match_ledger(self):
        o = make_oracle(0.2)
        est = estimate_bias_doubling(o, epsilon=0.01, delta=0.1)
        assert est.queries_used == o.ledger

    @pytest.mark.parametrize("p,eps,seed,verdict", LADDER_CASES)
    def test_reps_grow_one_sample_down_the_ladder(self, p, eps, seed, verdict):
        est, calls, log = blocked_ladder(p, eps, seed)
        assert est.verdict == verdict
        # each batch of reps goes to the channel rep after rep, in
        # consecutive calls of LADDER_BLOCK rows and one of the rest
        expected = []
        for key in dict.fromkeys((level, batch) for level, batch, _, _ in log):
            rows = sum(len(labels) for level, batch, _, labels in log if (level, batch) == key)
            full, rest = divmod(rows, LADDER_BLOCK)
            expected += [LADDER_BLOCK] * full + [rest] * (rest > 0)
        assert calls == expected
        # a rep tested at level i holds exactly n_i rows, whichever levels
        # it skipped; the small-bias ladder reaches multi-block batches
        for i in range(log[-1][0] + 1):
            for _, sample in level_samples(log, i):
                assert len(sample) == math.ceil(SAMPLES_PER_LEVEL / (0.5 * LADDER_BASE ** i))
        assert (max(calls) == LADDER_BLOCK) == (verdict == "small")

    @pytest.mark.parametrize("p,eps,seed,verdict", LADDER_CASES)
    def test_no_rep_is_queried_once_the_vote_is_decided(self, p, eps, seed, verdict):
        _, _, log = blocked_ladder(p, eps, seed)
        for i in range(log[-1][0] + 1):
            p_hat = 0.5 * LADDER_BASE ** i
            votes = []
            for r, sample in level_samples(log, i):
                # the reps are tested in order, each while the vote was open
                assert r == len(votes) and max(votes.count(True), votes.count(False)) < NEED
                votes.append(np.count_nonzero(sample == -1) >= LADDER_THRESHOLD_FACTOR * p_hat * len(sample))
            assert max(votes.count(True), votes.count(False)) == NEED

    @pytest.mark.parametrize("p,eps,seed,verdict", LADDER_CASES)
    def test_majority_recount_matches_every_verdict(self, p, eps, seed, verdict):
        est, _, log = blocked_ladder(p, eps, seed)
        assert est.verdict == verdict
        tested = log[-1][0] + 1
        levels = [0.5 * LADDER_BASE ** i for i in range(tested + 1)]
        # recount each level's majority from the reps' samples: only the
        # last level tested may pass, and it passes exactly on a bracket
        for i in range(tested):
            passes = sum(
                np.count_nonzero(sample == -1) >= LADDER_THRESHOLD_FACTOR * levels[i] * len(sample)
                for _, sample in level_samples(log, i)
            )
            assert (passes >= NEED) == (verdict == "bracket" and i == tested - 1)
        if verdict == "bracket":
            assert est.p_hat == RETURN_SHRINK * levels[-2]
        else:
            assert est.p_hat == levels[-1] < C_SMALL * eps <= levels[-2]

    @pytest.mark.parametrize("p", [0.4, 0.159, 0.05])
    def test_ladder_cost_bar(self, p):
        # median queries * p over 60 seeds (d = 5, eps = 0.001): 768 / 746 /
        # 715; a ladder that queries every rep at every level reads 1,120 /
        # 1,087 / 1,043
        cost = [
            estimate_bias_doubling(make_oracle(p, seed, d=5), 0.001, DELTA).queries_used * p
            for seed in range(60)
        ]
        assert np.median(cost) <= 850

    @pytest.mark.parametrize("p", [ON_LEVEL, 1.04 * ON_LEVEL])
    def test_brackets_where_reps_split(self, p):
        # p on a level, and 4% above it, where a rep passes the level above
        # about a third and about half of the time: the vote goes past the
        # first reps, and reps skipped at earlier levels catch up
        hits = caught_up = 0
        for seed in range(100):
            est, _, log = blocked_ladder(p, 0.001, seed)
            hits += est.verdict == "bracket" and est.p_hat <= p <= 4.0 * est.p_hat
            # a rep tested at a level after skipping the one before it
            last, caught = {}, False
            for level, _, r, _ in log:
                caught |= level - last.get(r, -1) > 1
                last[r] = level
            caught_up += caught
        assert hits >= 95
        # observed: 81 and 91 ladders with a rep that caught up
        assert caught_up >= 50

    @pytest.mark.parametrize("p", [0.3, 0.05, 0.006])
    @pytest.mark.parametrize("kind", ["clean", "flip", "band", "region"])
    def test_blocks_draw_what_one_call_per_rep_draws(self, kind, p):
        # the general d-dimensional path (RegionFlip) and the span path,
        # with and without a label source that draws randomness per row
        target = Halfspace(np.array([0.6, 0.0, 0.8]), threshold_for_bias(p))
        source = {
            "clean": CleanLabels(target),
            "flip": RandomFlip(target, 0.1),
            "band": BoundaryBand(target, 0.05),
            "region": RegionFlip(target, lambda X: X[:, 1] > 2.5),
        }[kind]
        eps, delta = 0.001, 0.1
        blocked, reference = LabelSpy(source, 5), MembershipOracle(source, 5)
        est = estimate_bias_doubling(blocked, eps, delta)
        calls = [len(b) for b in blocked.batches]
        assert est == per_rep_ladder(reference, eps, delta)[0]
        assert blocked.ledger == reference.ledger == est.queries_used
        # both streams end at the same place
        assert np.array_equal(blocked.gaussian_queries(5).labels, reference.gaussian_queries(5).labels)
        assert np.array_equal(blocked.gaussian_points(2), reference.gaussian_points(2))
        assert max(calls) <= LADDER_BLOCK
        if p == 0.006 and kind != "flip":
            # a batch of reps' new rows took more than one block
            assert max(calls) == LADDER_BLOCK

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            estimate_bias_doubling(make_oracle(0.2), epsilon=0.0, delta=0.1)


class TestWindowCheck:
    @staticmethod
    def bernoulli(p, seed=0):
        rng = substream(seed, "window-bern")
        return lambda n: np.where(rng.random(n) < p, -1, 1)

    def test_sample_size_formula(self):
        assert window_check_samples(0.3, 0.7, 0.1) == int(
            np.ceil(8.0 / 0.4 ** 2 * np.log(40.0))
        )

    def test_center_is_in_window(self):
        res = probability_window_check(self.bernoulli(0.5), (0.3, 0.7), 0.05)
        assert res.in_window

    @pytest.mark.parametrize("p,side", [(0.05, "low"), (0.95, "high")])
    def test_far_outside_detected_with_side(self, p, side):
        # the search reads the side off the empirical rate against the center
        res = probability_window_check(self.bernoulli(p), (0.3, 0.7), 0.05)
        assert not res.in_window
        assert ("low" if res.p_emp < 0.5 else "high") == side

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            probability_window_check(self.bernoulli(0.5), (0.7, 0.3), 0.05)


class TestProjectedChow:
    def test_recovers_chow_vector(self):
        d, m, t = 5, 60_000, 0.5
        w = np.zeros(d)
        w[0] = 1.0
        h = Halfspace(w, t)
        rng = substream(0, "chow-test")
        Z = rng.standard_normal((m, d))
        g = empirical_projected_chow(lambda pts: np.asarray(h(pts)), Z)
        assert np.linalg.norm(g - chow_vector(h)) < 4.0 * np.sqrt(d / m)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            empirical_projected_chow(lambda pts: np.ones(0), np.zeros((0, 3)))
