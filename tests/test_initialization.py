import math

import numpy as np
import pytest

from halfspace_lab.geometry import Halfspace, threshold_for_bias
from halfspace_lab.initialization import (
    NoNegativeFound,
    angle_test,
    find_negative_example,
    init_extreme,
    init_unextreme,
    rejection_acceptance_prob,
    use_extreme_init,
)
from halfspace_lab.oracles import (
    CleanLabels,
    MembershipOracle,
    SmallClassOracle,
    WhiteBoxView,
)
from halfspace_lab.rng import substream

from conftest import rotated_from, unit_vector


def make_problem(t=1.0, d=6, seed=0):
    rng = substream(seed, "init-setup")
    w_star = unit_vector(rng, d)
    oracle = MembershipOracle(CleanLabels(Halfspace(w_star, t)), seed)
    return oracle, WhiteBoxView(oracle.source)


class TestDispatch:
    def test_tiny_accuracy_gap_uses_plain_path(self):
        # epsilon so far below p that the smoothed warm start alone
        # already lands within the refinement entry angle
        assert not use_extreme_init(t=1.0, epsilon=1e-5, p_hat=0.15)

    def test_large_threshold_uses_extreme_path(self):
        assert use_extreme_init(t=3.0, epsilon=5e-4, p_hat=1.3e-3)

    def test_nonpositive_threshold_never_extreme(self):
        assert not use_extreme_init(t=0.0, epsilon=0.01, p_hat=0.5)


class TestNegativeSearch:
    def test_finds_negative(self):
        oracle, view = make_problem(t=0.5)
        x = find_negative_example(oracle, cap=10_000)
        assert view.target(x) == -1
        assert oracle.ledger > 0

    def test_cap_exhaustion_raises(self):
        oracle, _ = make_problem(t=6.0)
        with pytest.raises(NoNegativeFound):
            find_negative_example(oracle, cap=2000)

    def test_small_class_route_costs_no_queries(self):
        oracle, view = make_problem(t=2.0)
        sc = SmallClassOracle(oracle.source, seed=1)
        x = find_negative_example(oracle, cap=10, small_class=sc)
        assert view.target(x) == -1
        assert oracle.ledger == 0
        assert sc.draws == 1


class TestInitUnextreme:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_warm_start_angle(self, t):
        # entry guarantee for refinement: sin(theta/2) <= min(1/t, 1/2)
        hits = 0
        for seed in range(10):
            oracle, view = make_problem(t=t, d=8, seed=seed)
            w0 = init_unextreme(oracle, t, epsilon=0.02, delta=0.1)
            if view.half_angle_sine(w0) <= min(1.0 / t, 0.5):
                hits += 1
        assert hits >= 9

    def test_rejects_negative_threshold(self):
        oracle, _ = make_problem()
        with pytest.raises(ValueError):
            init_unextreme(oracle, -1.0, epsilon=0.02, delta=0.1)


class TestRejectionFilter:
    def test_acceptance_in_unit_interval(self, rng):
        v = unit_vector(rng, 5)
        X = rng.standard_normal((100, 5))
        acc = rejection_acceptance_prob(v, 0.7, 0.4, X)
        assert np.all((acc > 0.0) & (acc <= 1.0))

    def test_overall_acceptance_rate_formula(self, rng):
        # empirical acceptance ~ sigma * exp(-s^2 / (2 (1 - sigma^2)))
        v = unit_vector(rng, 5)
        s, sigma = 0.5, 0.4
        X = rng.standard_normal((400_000, 5))
        acc = float(np.mean(rejection_acceptance_prob(v, s, sigma, X)))
        q = sigma * math.exp(-(s ** 2) / (2 * (1 - sigma ** 2)))
        assert acc == pytest.approx(q, rel=0.02)

    def test_conditional_distribution_moments(self, rng):
        # accepted points are N(-s v, I - (1 - sigma^2) v v^T)
        d, s, sigma = 4, 0.6, 0.5
        v = unit_vector(rng, d)
        X = rng.standard_normal((600_000, d))
        keep = rng.random(X.shape[0]) < rejection_acceptance_prob(v, s, sigma, X)
        Y = X[keep]
        along = Y @ v
        assert np.mean(along) == pytest.approx(-s, abs=0.01)
        assert np.var(along) == pytest.approx(sigma ** 2, rel=0.05)


class TestAngleTest:
    def run_trials(self, b_true, b_test, trials=15, t=8.0, d=4):
        yes = 0
        for seed in range(trials):
            rng = substream(seed, "angle-trial")
            w_star = unit_vector(rng, d)
            w = rotated_from(w_star, math.asin(b_true), rng)
            oracle = MembershipOracle(CleanLabels(Halfspace(w_star, t)), seed)
            if angle_test(oracle, w, t, b_test, delta=0.1, rng=rng):
                yes += 1
        return yes

    def test_accepts_true_scale(self):
        assert self.run_trials(b_true=0.25, b_test=0.25) >= 14

    def test_rejects_much_smaller_scale(self):
        assert self.run_trials(b_true=0.25, b_test=0.25 / 8) <= 1

    def test_requires_large_threshold(self):
        oracle, _ = make_problem(t=0.5)
        with pytest.raises(ValueError):
            angle_test(oracle, oracle.source.target.w, 0.5, 0.2, delta=0.1, rng=substream(0, "angle-args"))

    def test_rejects_bad_b(self):
        oracle, _ = make_problem(t=2.0)
        with pytest.raises(ValueError):
            angle_test(oracle, oracle.source.target.w, 2.0, 1.5, delta=0.1, rng=substream(0, "angle-args"))


class TestInitExtreme:
    def test_improves_or_keeps_entry_angle(self):
        # deep-threshold regime: the extreme path must end at least as well
        # aligned as its smoothed-Chow start
        t = 3.0
        p = threshold_for_bias  # noqa: F841 - documented inverse used below
        oracle, view = make_problem(t=t, d=6, seed=3)
        rng = substream(3, "extreme-test")
        from halfspace_lab.geometry import halfspace_bias

        p_hat = halfspace_bias(t)
        w = init_extreme(oracle, t, epsilon=2e-4, p_hat=p_hat, delta=0.1, rng=rng)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)
        assert view.half_angle_sine(w) <= min(1.0 / t, 0.5) + 0.05

    def test_aligned_input_returns_quickly(self):
        # with w already equal to w*, every sweep scale is rejected or the
        # routine exits on the degenerate-bias branch, returning w unchanged
        t = 3.0
        oracle, view = make_problem(t=t, d=5, seed=1)
        rng = substream(1, "extreme-aligned")
        from halfspace_lab.geometry import halfspace_bias

        w = init_extreme(
            oracle,
            t,
            epsilon=1e-4,
            p_hat=halfspace_bias(t),
            delta=0.1,
            rng=rng,
            small_class=SmallClassOracle(oracle.source, seed=8),
        )
        assert view.half_angle_sine(w) <= 0.3

    def test_filter_that_never_accepts_keeps_current_direction(self):
        # the acceptance coins of the small-class rejection filter always
        # come up 1, so no draw passes and _localized_negative gives up;
        # init_extreme then ends its rounds with the direction it has
        class NeverAccept:
            def __init__(self, rng):
                self._rng = rng
                self.coins = 0

            def uniform(self, *args, **kwargs):
                return self._rng.uniform(*args, **kwargs)

            def random(self, n):
                self.coins += n
                return np.ones(n)

        from halfspace_lab.geometry import halfspace_bias

        t = 3.5
        oracle, view = make_problem(t=t, d=5, seed=2)
        rng = NeverAccept(substream(2, "never-accept"))
        w = init_extreme(
            oracle, t, epsilon=5e-5, p_hat=halfspace_bias(t), delta=0.1, rng=rng,
            small_class=SmallClassOracle(oracle.source, seed=2),
        )
        assert rng.coins > 0
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)
        assert view.half_angle_sine(w) <= 0.3
