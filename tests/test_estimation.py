import numpy as np
import pytest

from halfspace_lab.estimation import (
    C_SMALL,
    LADDER_BASE,
    LADDER_THRESHOLD_FACTOR,
    RETURN_SHRINK,
    SAMPLES_PER_LEVEL,
    empirical_projected_chow,
    estimate_bias_doubling,
    probability_window_check,
    window_check_samples,
)
from halfspace_lab.geometry import Halfspace, chow_vector, threshold_for_bias
from halfspace_lab.oracles import CleanLabels, MembershipOracle
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
        tested, rest = divmod(len(oracle.batches), reps)
        assert tested > 0 and rest == 0
        levels = [0.5 * LADDER_BASE ** i for i in range(tested + 1)]
        n = [int(np.ceil(SAMPLES_PER_LEVEL / q)) for q in levels[:tested]]
        # level i makes exactly reps batches of the n_i - n_{i-1} new rows,
        # none larger than the fresh sample of 1000 + n_i a level once took
        for i in range(tested):
            level = oracle.batches[i * reps:(i + 1) * reps]
            assert [len(b) for b in level] == [n[i] - (n[i - 1] if i else 0)] * reps
            assert max(len(b) for b in level) <= 1000 + n[i]
        assert est.queries_used == oracle.ledger == reps * n[-1]
        # recount each level's majority from the stored labels: only the
        # last level tested may pass, and it passes exactly on a bracket
        for i in range(tested):
            counts = [
                sum(int(np.count_nonzero(oracle.batches[j * reps + r] == -1)) for j in range(i + 1))
                for r in range(reps)
            ]
            passes = sum(c >= LADDER_THRESHOLD_FACTOR * levels[i] * n[i] for c in counts)
            assert (2 * passes > reps) == (verdict == "bracket" and i == tested - 1)
        if verdict == "bracket":
            assert est.p_hat == RETURN_SHRINK * levels[-2]
        else:
            assert est.p_hat == levels[-1] < C_SMALL * eps <= levels[-2]

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
