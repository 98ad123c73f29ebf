import math

import numpy as np
import pytest

from halfspace_lab.geometry import Halfspace
from halfspace_lab.oracles import CleanLabels, MembershipOracle, WhiteBoxView
from halfspace_lab.refinement import (
    OffsetNotFound,
    RefineConfig,
    RefineState,
    VALIDITY_WINDOW,
    entry_scale,
    gradient_sample_size,
    planned_rounds,
    refine,
    refine_round,
    search_offset,
)
from halfspace_lab.rng import substream

from conftest import rotated_from, unit_vector


def setup_problem(d=8, t=1.0, angle=0.9, seed=0):
    rng = substream(seed, "refine-setup")
    w_star = unit_vector(rng, d)
    w0 = rotated_from(w_star, angle, rng)
    oracle = MembershipOracle(CleanLabels(Halfspace(w_star, t)), seed)
    return oracle, w0, WhiteBoxView(oracle.source)


class TestConfig:
    def test_rejects_small_constants(self):
        with pytest.raises(ValueError):
            RefineConfig(c1=4.0)
        with pytest.raises(ValueError):
            RefineConfig(c2=2.0)

    def test_planned_rounds(self):
        cfg = RefineConfig()
        n = planned_rounds(0.5, 0.01, cfg.c2)
        assert (1 - 1 / cfg.c2) ** n * 0.5 <= 0.01
        assert (1 - 1 / cfg.c2) ** (n - 1) * 0.5 > 0.01
        assert planned_rounds(0.1, 0.1, cfg.c2) == 0

    def test_gradient_samples_scale_linearly_in_dim(self):
        cfg = RefineConfig()
        m1 = gradient_sample_size(10, 50, cfg, 0.1)
        m2 = gradient_sample_size(20, 50, cfg, 0.1)
        assert 1.8 < m2 / m1 < 2.3


class TestSearchOffset:
    def test_finds_in_window_offset(self):
        oracle, w0, view = setup_problem(angle=0.4)
        t_tilde = search_offset(oracle, w0, 0.5, 1.0, delta=0.1)
        assert 0.0 <= t_tilde <= 1.0
        # white-box: the hidden localized negative rate is non-degenerate
        from halfspace_lab.geometry import halfspace_bias

        rate = halfspace_bias(view.localized_threshold(w0, 0.5, t_tilde))
        assert VALIDITY_WINDOW[0] < rate < VALIDITY_WINDOW[1]

    def test_impossible_geometry_raises(self):
        # a target so far out that no offset in [0, t'] produces negatives
        oracle, w0, _ = setup_problem(t=12.0, angle=0.05)
        with pytest.raises(OffsetNotFound):
            search_offset(oracle, w0, 0.02, 1.0, delta=0.1)

    def test_rejects_bad_sigma(self):
        oracle, w0, _ = setup_problem()
        with pytest.raises(ValueError):
            search_offset(oracle, w0, 0.9, 1.0, delta=0.1)


class TestRefineRound:
    def test_round_contracts_sigma_and_keeps_unit_norm(self):
        oracle, w0, _ = setup_problem(angle=0.4)
        cfg = RefineConfig()
        state = RefineState(w=w0, sigma=0.5, round=0, accepted_offset=math.nan, ledger_start=0)
        nxt = refine_round(oracle, state, 1.0, cfg, delta=0.1, total_rounds=10)
        assert nxt.sigma == pytest.approx((1 - 1 / cfg.c2) * 0.5)
        assert nxt.round == 1
        assert np.linalg.norm(nxt.w) == pytest.approx(1.0, abs=1e-9)

    def test_round_decreases_angle(self):
        oracle, w0, view = setup_problem(angle=0.9, seed=4)
        state = RefineState(w=w0, sigma=0.5, round=0, accepted_offset=math.nan, ledger_start=0)
        nxt = refine_round(oracle, state, 1.0, RefineConfig(), delta=0.1, total_rounds=10)
        assert view.half_angle_sine(nxt.w) < view.half_angle_sine(w0)


class TestRefine:
    def test_reaches_accuracy_floor(self):
        oracle, w0, view = setup_problem(d=6, seed=2, angle=0.8)
        eps = 0.05
        (outcome,), state = refine(oracle, w0, [1.0], eps, 0.1)
        h = outcome.hypothesis
        sigma_final = min(0.5, eps * math.exp(0.5))
        assert state.sigma <= sigma_final + 1e-12
        assert view.half_angle_sine(h.w) <= state.sigma
        assert view.true_error(h) <= 5 * eps

    def test_zero_round_run_still_reports_offset(self):
        oracle, w0, _ = setup_problem(angle=0.3)
        (outcome,), state = refine(oracle, w0, [1.0], 0.9, 0.1, sigma0=0.4)
        assert state.round == 0
        assert math.isfinite(outcome.hypothesis.t)
        assert np.array_equal(outcome.hypothesis.w, w0)


class TestDescent:
    """One descent serving a five-point grid around a clean d=10, t*=1 target."""

    GRID = [0.75, 0.875, 1.0, 1.125, 1.25]
    EPS = 0.02

    def stop_scale(self, t, sigma0, cfg):
        return min(sigma0, cfg.c_stop * self.EPS * math.exp(t * t / 2.0))

    def test_resolves_grid_in_decreasing_sigma(self):
        oracle, w0, view = setup_problem(d=10, t=1.0, angle=0.6, seed=5)
        cfg = RefineConfig()
        sigma0 = entry_scale(max(self.GRID))
        outcomes, state = refine(oracle, w0, self.GRID, self.EPS, 0.1, cfg)
        assert [o.t_prime for o in outcomes] == sorted(self.GRID, reverse=True)
        sigmas = [o.sigma for o in outcomes]
        assert sigmas == sorted(sigmas, reverse=True)
        for o in outcomes:
            # resolved at the first round whose sigma is at or below the stop scale
            sigma_j = self.stop_scale(o.t_prime, sigma0, cfg)
            assert o.round == planned_rounds(sigma0, sigma_j, cfg.c2)
            assert o.sigma <= sigma_j * (1 + 1e-9)
            assert o.round == 0 or o.sigma / (1 - 1 / cfg.c2) > sigma_j
            if o.t_prime >= 1.0:
                assert o.hypothesis is not None, o.t_prime
                assert view.half_angle_sine(o.hypothesis.w) <= o.sigma
        min_sigma = min(self.stop_scale(t, sigma0, cfg) for t in self.GRID)
        assert state.round == planned_rounds(sigma0, min_sigma, cfg.c2)

    def test_points_below_target_fail_alone(self):
        oracle, w0, view = setup_problem(d=10, t=1.0, angle=0.6, seed=5)
        outcomes, _ = refine(oracle, w0, self.GRID, self.EPS, 0.1)
        failed = [o.t_prime for o in outcomes if o.hypothesis is None]
        assert failed == [0.875, 0.75]
        best = outcomes[0].hypothesis
        assert view.true_error(best) <= self.EPS

    def test_ledger_cap_stops_before_a_round(self):
        oracle, w0, _ = setup_problem(d=10, t=1.0, angle=0.6, seed=5)
        cap = 50_000
        oracle.budget = cap
        outcomes, state = refine(oracle, w0, self.GRID, self.EPS, 0.1)
        # the oracle refused a batch mid-round: the descent returns the
        # rounds it completed and charges nothing past the budget
        assert oracle.spent
        assert state.round > 0
        assert len(outcomes) < len(self.GRID)
        assert oracle.ledger <= cap
