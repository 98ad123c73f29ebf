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


def per_rep_ladder(oracle, epsilon, delta):
    """The bias ladder with one channel call per repetition per level, as
    it was before the blocks: what the blocked ladder must equal."""
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
            return BiasEstimate("bracket", RETURN_SHRINK * p_hat, oracle.ledger - start)
        level += 1


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

    @pytest.mark.parametrize("p,eps,verdict", [(0.1, 0.005, "bracket"), (0.001, 0.01, "small")])
    def test_reps_grow_one_sample_down_the_ladder(self, p, eps, verdict):
        delta = 0.1
        reps = 2 * int(np.ceil(np.log(1.0 / delta))) + 1
        oracle = spy_oracle(p)
        est = estimate_bias_doubling(oracle, epsilon=eps, delta=delta)
        assert est.verdict == verdict
        # level i queries reps * (n_i - n_{i-1}) new rows, rep after rep, in
        # consecutive calls of LADDER_BLOCK rows and one of the rest; read
        # the levels tested off the calls
        sizes = [len(b) for b in oracle.batches]
        stream = np.concatenate(oracle.batches)
        levels, n, slices = [], [0], []
        calls = 0
        while calls < len(sizes):
            levels.append(0.5 * LADDER_BASE ** len(levels))
            n.append(math.ceil(SAMPLES_PER_LEVEL / levels[-1]))
            step = n[-1] - n[-2]
            full, rest = divmod(reps * step, LADDER_BLOCK)
            level_calls = [LADDER_BLOCK] * full + [rest] * (rest > 0)
            assert sizes[calls:calls + len(level_calls)] == level_calls
            calls += len(level_calls)
            # rep r's slice of the level: its n_i - n_{i-1} new rows, none
            # more than the fresh sample of 1000 + n_i a level once took
            slices.append(stream[reps * n[-2]:reps * n[-1]].reshape(reps, step))
            assert step <= 1000 + n[-1]
        tested = len(levels)
        levels.append(0.5 * LADDER_BASE ** tested)
        # the small-bias ladder reaches levels that take more than one block
        assert (len(sizes) > tested) == (verdict == "small")
        assert est.queries_used == oracle.ledger == len(stream) == reps * n[-1]
        # recount each level's majority from the reps' slices: only the
        # last level tested may pass, and it passes exactly on a bracket
        for i in range(tested):
            counts = [
                sum(int(np.count_nonzero(slices[j][r] == -1)) for j in range(i + 1))
                for r in range(reps)
            ]
            passes = sum(c >= LADDER_THRESHOLD_FACTOR * levels[i] * n[i + 1] for c in counts)
            assert (2 * passes > reps) == (verdict == "bracket" and i == tested - 1)
        if verdict == "bracket":
            assert est.p_hat == RETURN_SHRINK * levels[-2]
        else:
            assert est.p_hat == levels[-1] < C_SMALL * eps <= levels[-2]

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
        assert est == per_rep_ladder(reference, eps, delta)
        assert blocked.ledger == reference.ledger == est.queries_used
        # both streams end at the same place
        assert np.array_equal(blocked.gaussian_queries(5).labels, reference.gaussian_queries(5).labels)
        assert np.array_equal(blocked.gaussian_points(2), reference.gaussian_points(2))
        assert max(calls) <= LADDER_BLOCK
        if p == 0.006 and kind != "flip":
            # a level's reps * (n_i - n_{i-1}) rows took more than one block
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
