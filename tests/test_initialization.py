import math

import pytest

from halfspace_lab.geometry import Halfspace
from halfspace_lab.initialization import (
    NoNegativeFound,
    angle_test,
    find_negative_example,
    init_unextreme,
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
            w0 = init_unextreme(oracle, t, epsilon=0.02)
            if view.half_angle_sine(w0) <= min(1.0 / t, 0.5):
                hits += 1
        assert hits >= 9

    def test_rejects_negative_threshold(self):
        oracle, _ = make_problem()
        with pytest.raises(ValueError):
            init_unextreme(oracle, -1.0, epsilon=0.02)


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
