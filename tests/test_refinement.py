import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import halfspace_lab.refinement as refinement
from halfspace_lab.geometry import Halfspace, halfspace_bias
from halfspace_lab.oracles import BoundaryBand, CleanLabels, MembershipOracle, RandomFlip, RegionFlip, WhiteBoxView
from halfspace_lab.refinement import (
    BIAS_WINDOW,
    EntryRejected,
    OffsetNotFound,
    RefineConfig,
    RefineState,
    certified_sine,
    closed_form_offset,
    entry_scale,
    gradient_sample_size,
    noise_shift,
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


def entry_state(oracle, w, sigma, t_prime, round=0, delta=0.1):
    """The state a descent hands its first round, as ``refine`` builds it:
    the offset of the entry search at (w, sigma) over [0, t_prime]."""
    t_cf = search_offset(oracle, w, sigma, t_prime, delta)
    return RefineState(w=w, sigma=sigma, round=round, t_cf=t_cf)


class TestConfig:
    def test_rejects_small_constants(self):
        # c1 and c2 are constants of the analysis, each above 8, and no
        # config sets them
        assert RefineConfig.c1 > 8 and RefineConfig.c2 > 8
        with pytest.raises(TypeError):
            RefineConfig(c1=4.0)
        with pytest.raises(TypeError):
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
        # white-box: the hidden localized negative rate is in the bias window
        rate = halfspace_bias(view.localized_threshold(w0, 0.5, t_tilde))
        assert BIAS_WINDOW[0] < rate < BIAS_WINDOW[1]

    def test_impossible_geometry_raises(self):
        # a target so far out that no offset in [0, t'] produces negatives
        oracle, w0, _ = setup_problem(t=12.0, angle=0.05)
        with pytest.raises(OffsetNotFound):
            search_offset(oracle, w0, 0.02, 1.0, delta=0.1)

    def test_strict_search_needs_the_bias_window(self):
        # a bracket [0, t'] below t* under rcn flips: the localized rate
        # stays near the flip rate, never in the bias window, and the
        # search settles for no other offset
        oracle, _, _ = setup_problem(t=1.0)
        target = oracle.source.target
        noisy = MembershipOracle(RandomFlip(target, 0.05), 0)
        with pytest.raises(OffsetNotFound):
            search_offset(noisy, target.w, 0.05, 0.7, delta=0.1)

    def test_accepted_offsets_sit_near_one_half(self):
        # white-box: over a seeded grid of entries that meet the invariant
        # sin(theta/2) <= sigma = entry_scale(t'), the true localized rate
        # at each accepted offset.  Stepping by the closed form lands most
        # probes near 1/2, so few accepted offsets fall outside [0.3, 0.7]
        # (21 of 1,333 on this grid).  The window check, from 250 labels a
        # probe, still accepts a rate near 0.3 now and then, most often
        # near the invariant's edge
        rates = []
        grid = itertools.product((5, 20), (0.5, 1.0, 1.5, 2.0, 2.5), (1.0, 1.1, 1.3), (0.1, 0.3, 0.5, 0.7, 0.9))
        for d, t_star, lift, share in grid:
            for seed in range(10):
                rng = substream(seed, "entry-grid", f"{d}-{t_star}-{lift}-{share}")
                t_prime = lift * t_star
                sigma = entry_scale(t_prime)
                w_star = unit_vector(rng, d)
                w0 = rotated_from(w_star, 2.0 * math.asin(share * sigma), rng)
                oracle = MembershipOracle(CleanLabels(Halfspace(w_star, t_star)), int(rng.integers(2**32)))
                try:
                    t_tilde = search_offset(oracle, w0, sigma, t_prime, delta=0.1)
                except OffsetNotFound:
                    continue
                view = WhiteBoxView(oracle.source)
                rates.append(halfspace_bias(view.localized_threshold(w0, sigma, t_tilde)))
        assert len(rates) >= 1_250
        assert sum(not 0.3 <= r <= 0.7 for r in rates) <= 0.025 * len(rates)

    def test_closed_form_offset(self):
        # in-window shares step by t~ - sigma Phi^{-1}(p^) exactly; a share
        # of 0 or 1 is kept 1/(2n) inside (0, 1) and takes a finite step;
        # the result is clamped to [0, t']
        assert closed_form_offset(1.0, 0.2, 0.3, 250, 2.0) == 1.0 - 0.2 * float(ndtri(0.3))
        assert closed_form_offset(1.0, 0.2, 0.0, 250, 2.0) == 1.0 - 0.2 * float(ndtri(1 / 500))
        assert closed_form_offset(1.0, 0.2, 1.0, 250, 2.0) == 1.0 - 0.2 * float(ndtri(1 - 1 / 500))
        assert closed_form_offset(1.0, 0.5, 0.0, 250, 2.0) == 2.0
        assert closed_form_offset(0.1, 0.5, 0.9, 250, 2.0) == 0.0

    def test_rejects_bad_sigma(self):
        oracle, w0, _ = setup_problem()
        with pytest.raises(ValueError):
            search_offset(oracle, w0, 0.9, 1.0, delta=0.1)


class TestRefineRound:
    def test_round_contracts_sigma_and_keeps_unit_norm(self):
        oracle, w0, _ = setup_problem(angle=0.4)
        cfg = RefineConfig()
        state = entry_state(oracle, w0, 0.5, 1.0)
        nxt = refine_round(oracle, state, 1.0, cfg, delta=0.1, total_rounds=10)
        assert nxt.sigma == pytest.approx((1 - 1 / cfg.c2) * 0.5)
        assert nxt.round == 1
        assert np.linalg.norm(nxt.w) == pytest.approx(1.0, abs=1e-9)

    def test_round_decreases_angle(self):
        # at this angle the localized rate reaches 0.33 only at t' = 1 (see
        # TestEntry.test_sliver_bracket_is_rejected_at_entry); a bracket
        # to 1.5 reaches the window
        oracle, w0, view = setup_problem(angle=0.9, seed=4)
        state = entry_state(oracle, w0, 0.5, 1.5)
        nxt = refine_round(oracle, state, 1.5, RefineConfig(), delta=0.1, total_rounds=10)
        assert view.half_angle_sine(nxt.w) < view.half_angle_sine(w0)


class TestRefine:
    def test_reaches_accuracy_floor(self):
        oracle, w0, view = setup_problem(d=6, seed=2, angle=0.8)
        eps = 0.05
        h, state = refine(oracle, w0, 1.0, eps, 0.1)
        sigma_final = min(0.5, RefineConfig().c_stop * eps * math.exp(0.5))
        assert state.sigma <= sigma_final + 1e-12
        assert view.half_angle_sine(h.w) <= state.sigma
        assert view.true_error(h) <= 5 * eps

    def test_zero_round_run_still_reports_offset(self):
        # the entry search's offset, with no further query
        oracle, w0, _ = setup_problem(angle=0.3)
        h, state = refine(oracle, w0, 1.0, 0.9, 0.1, sigma0=0.4)
        assert state.round == 0
        assert math.isfinite(h.t)
        assert h.t == state.t_cf
        assert np.array_equal(h.w, w0)

    @pytest.mark.parametrize("t_star,t_top,clamped", [(1.0, 0.7, 0.7), (-0.3, 1.0, 0.0)])
    def test_closed_form_offset_is_clamped(self, t_star, t_top, clamped):
        # a round at the end of [0, t_top] nearest t*, under rcn flips: the
        # rate there is near the flip rate (or one minus it), and the
        # closed form points past that end
        target = Halfspace(np.eye(8)[0], t_star)
        oracle = MembershipOracle(RandomFlip(target, 0.05), 0)
        state = RefineState(w=target.w, sigma=0.05, round=0, t_cf=clamped)
        nxt = refine_round(oracle, state, t_top, RefineConfig(), 0.1, 10)
        assert min(nxt.neg_rate, 1.0 - nxt.neg_rate) < 0.1
        assert nxt.t_cf == clamped


class TestDescent:
    """One descent with the offset bracket [0, T_TOP] around a clean d=10, t*=1 target."""

    T_TOP = 1.25
    EPS = 0.02

    def stop_scale(self, t, sigma0, cfg):
        return min(sigma0, cfg.c_stop * self.EPS * math.exp(t * t / 2.0))

    @staticmethod
    def spy_searches(monkeypatch):
        """Record the offset each ``search_offset`` call returns."""
        found = []
        search = refinement.search_offset
        monkeypatch.setattr(
            refinement, "search_offset", lambda *args, **kwargs: found.append(search(*args, **kwargs)) or found[-1]
        )
        return found

    def test_rounds_draw_only_span_coordinates(self, monkeypatch):
        # a margin-law round draws its m Chow points as coordinates in
        # span{w, w*} alone, an (m, 2) array, and one d-dimensional row for
        # the rest of the Chow mean: no (m, d) Gaussian array.  A source
        # without a margin law gets the full (m, d) draw
        cfg, d = RefineConfig(), 10
        sigma0 = entry_scale(self.T_TOP)
        total = planned_rounds(sigma0, self.stop_scale(0.0, sigma0, cfg), cfg.c2)
        m = gradient_sample_size(d, total, cfg, 0.1)
        gauss = MembershipOracle.gaussian_points
        drawn, per_round = [], []

        def spy_round(*args, **kwargs):
            first = len(drawn)
            state = refine_round(*args, **kwargs)
            per_round.append(drawn[first:])
            return state

        monkeypatch.setattr(
            MembershipOracle, "gaussian_points", lambda *a, **k: drawn.append(gauss(*a, **k)) or drawn[-1]
        )
        monkeypatch.setattr(refinement, "refine_round", spy_round)
        oracle, w0, _ = setup_problem(d=d, t=1.0, angle=0.6, seed=5)
        refine(oracle, w0, self.T_TOP, self.EPS, 0.1, cfg)
        assert len(per_round) >= 2
        assert all([z.shape for z in batches] == [(m, 2), (1, d)] for batches in per_round)
        assert max(z.size for z in drawn) == 2 * m
        per_round.clear()
        general = MembershipOracle(RegionFlip(oracle.source.target, lambda X: np.zeros(len(X), dtype=bool)), 5)
        refine(general, w0, self.T_TOP, self.EPS, 0.1, cfg)
        assert len(per_round) >= 2
        assert all([z.shape for z in batches] == [(m, d)] for batches in per_round)

    def test_stops_at_the_stop_scale_of_its_offset(self, monkeypatch):
        oracle, w0, view = setup_problem(d=10, t=1.0, angle=0.6, seed=5)
        cfg = RefineConfig()
        sigma0 = entry_scale(self.T_TOP)
        # (sigma, offset) each round starts from
        started = []

        def spy(oracle, state, *args, **kwargs):
            started.append((state.sigma, state.t_cf))
            return refine_round(oracle, state, *args, **kwargs)

        monkeypatch.setattr(refinement, "refine_round", spy)
        searches = self.spy_searches(monkeypatch)
        h, state = refine(oracle, w0, self.T_TOP, self.EPS, 0.1, cfg)
        # one offset search, at entry: every round runs at the offset the
        # state carries, and the first at the entry search's
        [t_entry] = searches
        assert started[0][1] == t_entry
        # the descent lands exactly on the stop scale of the offset its last
        # round ran at, and ends since sigma is no longer above the stop
        # scale of the offset that round read off; every round, the last
        # one included, started above the stop scale of its offset
        assert state.sigma == self.stop_scale(started[-1][1], sigma0, cfg)
        assert state.sigma <= self.stop_scale(state.t_cf, sigma0, cfg)
        assert started[-1][0] > state.sigma
        assert all(sigma > self.stop_scale(t, sigma0, cfg) for sigma, t in started)
        # no longer than the fixed 1 - 1/c2 schedule down to the smallest stop scale
        assert 0 < state.round == len(started) <= planned_rounds(sigma0, cfg.c_stop * self.EPS, cfg.c2)
        assert view.half_angle_sine(h.w) <= state.sigma

    def test_bracket_above_the_target_finds_its_offset(self):
        # the bracket [0, 1.6] reaches well past t* = 1: the closed-form
        # offset still tracks t*, and puts t_hat within sigma of it
        oracle, w0, view = setup_problem(d=10, t=1.0, angle=0.6, seed=5)
        h, state = refine(oracle, w0, 1.6, self.EPS, 0.1)
        assert abs(h.t - 1.0) <= state.sigma
        assert view.half_angle_sine(h.w) <= state.sigma
        assert view.true_error(h) <= self.EPS

    def test_points_below_target_fail_alone(self):
        # a bracket that stops short of t* yields no hypothesis: just short,
        # the descent runs rounds until a round's labels leave the bias
        # window, and ends without one; further short, it may already find
        # no in-window offset at entry.  The same warm start with a bracket
        # past t* learns
        oracle, w0, _ = setup_problem(d=10, t=1.0, angle=0.6, seed=5)
        h, state = refine(oracle, w0, 0.875, self.EPS, 0.1)
        assert h is None
        assert state.round > 0
        assert not BIAS_WINDOW[0] < state.neg_rate < BIAS_WINDOW[1]
        # the failing round ends the descent: it stops well short of the
        # planned rounds' cost
        assert oracle.ledger <= 50_000
        oracle, w0, _ = setup_problem(d=10, t=1.0, angle=0.6, seed=5)
        try:
            h, _ = refine(oracle, w0, 0.75, self.EPS, 0.1)
        except EntryRejected:
            h = None
        assert h is None
        oracle, w0, view = setup_problem(d=10, t=1.0, angle=0.6, seed=5)
        h, _ = refine(oracle, w0, self.T_TOP, self.EPS, 0.1)
        assert view.true_error(h) <= self.EPS

    def test_ledger_cap_stops_before_a_round(self, monkeypatch, ledger_marks):
        # the cap falls halfway through the middle round of the same
        # descent run without one
        marks = ledger_marks(capped_descent)
        k = len(marks["round"]) // 2
        cap = marks.halfway("round", k)
        searches = self.spy_searches(monkeypatch)
        oracle, (h, state) = capped_descent(budget=cap)
        # the oracle refused a batch mid-round: the descent returns the
        # rounds it completed, charges nothing past the budget, and takes
        # its last complete round's closed-form offset as the hypothesis
        # without a search
        assert oracle.spent
        assert state.round == k > 0
        assert oracle.ledger <= cap
        # the entry search is the descent's only one
        [t_entry] = searches
        expected = Halfspace(state.w, state.t_cf)
        assert (h.w.tolist(), h.t) == (expected.w.tolist(), expected.t)
        assert state.t_cf != t_entry


def capped_descent(budget=None):
    """One descent at d=10, t*=1 from a warm start 0.6 off, under budget."""
    oracle, w0, _ = setup_problem(d=10, t=1.0, angle=0.6, seed=5)
    oracle.budget = budget
    return oracle, refine(oracle, w0, TestDescent.T_TOP, TestDescent.EPS, 0.1)


# the Chow sample these certificate checks were sized for: four times the
# default, so its radii are about half as wide
CHOW_40 = RefineConfig(grad_samples_multiplier=40.0)


class TestCertificate:
    """Each round's certified sigma against the true angle (WhiteBoxView)."""

    # criterion 9's band half-width; sigma sits just above it, where the
    # band covers most of the localized window
    BAND = 0.0206636568333965
    SIGMA = 0.03
    SOURCES = {
        "clean": lambda h: CleanLabels(h),
        "rcn": lambda h: RandomFlip(h, 0.05),
        "band": lambda h: BoundaryBand(h, TestCertificate.BAND),
    }

    def one_round(self, kind, seed, epsilon=0.0, cfg=CHOW_40):
        rng = substream(seed, "certificate")
        w_star = unit_vector(rng, 10)
        oracle = MembershipOracle(self.SOURCES[kind](Halfspace(w_star, 1.0)), seed)
        # any start that meets the invariant sin(theta/2) <= sigma
        w0 = rotated_from(w_star, 2.0 * math.asin(self.SIGMA * rng.uniform(0.02, 0.6)), rng)
        state = entry_state(oracle, w0, self.SIGMA, 1.25, round=3)
        nxt = refine_round(oracle, state, 1.25, cfg, 0.1, 100, epsilon=epsilon)
        return WhiteBoxView(oracle.source), w0, nxt

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_certified_sigma_bounds_the_true_angle(self, kind):
        cfg = RefineConfig()
        covered = floors_below = contracted = 0
        for seed in range(100):
            view, w0, nxt = self.one_round(kind, seed)
            covered += view.half_angle_sine(nxt.w) <= nxt.sigma
            floors_below += nxt.angle_floor <= view.half_angle_sine(w0)
            contracted += nxt.sigma < (1 - 1 / cfg.c2) * self.SIGMA
        assert covered >= 99
        assert floors_below >= 99
        # the certificate is in force, not declined, on a fair share of
        # seeds (those whose angle sits well below sigma)
        assert contracted >= 20

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_default_sample_still_covers_the_true_angle(self, kind):
        # at the default sample size the certificate engages less often,
        # but the sigma and the floor it certifies still hold
        covered = floors_below = 0
        for seed in range(100):
            view, w0, nxt = self.one_round(kind, seed, cfg=RefineConfig())
            covered += view.half_angle_sine(nxt.w) <= nxt.sigma
            floors_below += nxt.angle_floor <= view.half_angle_sine(w0)
        assert covered >= 95
        assert floors_below >= 95

    @given(
        d=st.integers(3, 8),
        seed=st.integers(0, 10_000),
        sigma=st.floats(0.005, 0.5),
        g_v=st.floats(0.01, 1.5),
        radius_share=st.floats(0.0, 0.99),
        mean_u=st.floats(0.0, 1.5),
        dev_w=st.floats(-1.0, 1.0),
        dev_u=st.floats(-1.0, 1.0),
        w_part=st.floats(0.0, 3.0),
    )
    # tight: g.u = E g.u - radius = 0, E g.w = g.w - radius, so B has only
    # the radius to cover tan(theta) / 2 = 1/4
    @example(d=3, seed=0, sigma=0.5, g_v=1.0, radius_share=0.5, mean_u=0.5, dev_w=-1.0, dev_u=-1.0, w_part=0.0)
    @settings(max_examples=300, deadline=None)
    def test_bound_covers_any_estimate_within_the_radius(
        self, d, seed, sigma, g_v, radius_share, mean_u, dev_w, dev_u, w_part
    ):
        # an estimate g with g.w > radius = r_v + shift, and a mean E g
        # whose w and u parts are within radius of g's, E g.u >= 0, and no
        # part in the other d - 2 directions, where g has an arbitrary one.
        # E g lies along the localized normal, so tan(theta) = sigma E g.u /
        # E g.w fixes w* = cos(theta) w + sin(theta) u, and B is no smaller
        # than sin(theta'/2) of the stepped direction
        rng = substream(seed, "certificate-property")
        w = unit_vector(rng, d)
        u = rotated_from(w, math.pi / 2, rng)
        radius = radius_share * g_v
        theta = math.atan2(sigma * mean_u, g_v + dev_w * radius)
        assume(theta <= math.pi / 3)
        w_star = math.cos(theta) * w + math.sin(theta) * u
        other = unit_vector(rng, d)
        other -= (other @ w) * w + (other @ u) * u
        g = g_v * w + (mean_u + dev_u * radius) * u + w_part * other / np.linalg.norm(other)
        g_perp = g - float(g @ w) * w
        mu = sigma / RefineConfig.c1
        stepped = w + mu * g_perp
        stepped /= np.linalg.norm(stepped)
        bound = certified_sine(sigma, mu, float(g @ w), float(np.linalg.norm(g_perp)), radius)
        assert 0.5 * float(np.linalg.norm(stepped - w_star)) <= bound * (1.0 + 1e-12) + 1e-15

    def test_declined_certificate_contracts_by_the_fixed_factor(self):
        cfg = RefineConfig()
        # with noise mass epsilon / NOISE_FACTOR this large, the shift a
        # flipped region could cause swamps the Chow estimate's w part
        _, _, nxt = self.one_round("clean", 0, epsilon=1.0)
        assert nxt.sigma == (1 - 1 / cfg.c2) * self.SIGMA

    def test_never_below_the_floor(self):
        oracle, w0, _ = setup_problem(angle=0.01)
        state = entry_state(oracle, w0, 0.2, 1.0)
        free = refine_round(oracle, state, 1.0, CHOW_40, 0.1, 10)
        assert free.sigma < 0.15
        oracle, w0, _ = setup_problem(angle=0.01)
        state = entry_state(oracle, w0, 0.2, 1.0)
        floored = refine_round(oracle, state, 1.0, CHOW_40, 0.1, 10, floor=0.15)
        assert floored.sigma == 0.15

    def test_noise_shift(self):
        assert noise_shift(0.0, 0.1, 1.0) == 0.0
        # beta >= 1: every localized label may be flipped, 4 phi(0)
        assert noise_shift(1.0, 0.01, 1.0) == pytest.approx(4.0 / math.sqrt(2.0 * math.pi))
        # beta = (0.02 / 16) exp(1 / (2 (1 - 0.01))) / 0.1 = 0.020641...
        beta = 0.02 / 16.0 * math.exp(1.0 / 1.98) / 0.1
        q = -ndtri(beta / 2.0)
        assert noise_shift(0.02, 0.1, 1.0) == pytest.approx(4.0 * math.exp(-q * q / 2.0) / math.sqrt(2.0 * math.pi))
        assert noise_shift(0.02, 0.05, 1.0) > noise_shift(0.02, 0.1, 1.0)


class TestEntry:
    def test_bad_warm_start_is_rejected_at_entry(self):
        # learn-smallclass geometry: d=5, t*=2.5, sigma0 = 1/t_top, and a
        # warm start with sin(theta/2) = 0.65: no offset in [0, t_top] is
        # in-window, and the descent rejects its entry
        oracle, w0, view = setup_problem(d=5, t=2.5, angle=2.0 * math.asin(0.65), seed=11)
        t_top = 2.725
        with pytest.raises(EntryRejected):
            refine(oracle, w0, t_top, 0.001, 0.1, RefineConfig(c_stop=10.0, grad_samples_multiplier=10.0),
                   sigma0=entry_scale(t_top))

    def test_sliver_bracket_is_rejected_at_entry(self):
        # at sigma0 = 1/2 the true localized rate on [0, 1] is at most
        # 0.327, at the bracket's top, the window's edge: the closed-form
        # steps pin at the top, whose probe reads 0.312, and the search
        # fails there.  Its failure is the descent's entry rejection
        assert issubclass(OffsetNotFound, EntryRejected)
        oracle, w0, view = setup_problem(angle=0.9, seed=4)
        assert halfspace_bias(view.localized_threshold(w0, 0.5, 1.0)) < 0.33
        with pytest.raises(OffsetNotFound):
            refine(oracle, w0, 1.0, 0.05, 0.1)

    def test_lower_bound_rejects_an_entry_scale_too_small(self):
        # the offset search succeeds, but the Chow estimate bounds the
        # angle (sin(theta/2) = 0.45) above sigma0; at this fine an epsilon
        # the bound leaves next to no room for flipped labels
        oracle, w0, view = setup_problem(d=8, t=1.0, angle=2.0 * math.asin(0.45), seed=3)
        with pytest.raises(EntryRejected, match="first round bounds"):
            refine(oracle, w0, 1.0, 1e-4, 0.1, CHOW_40, sigma0=0.1)

    def test_good_entry_is_kept(self):
        oracle, w0, view = setup_problem(d=8, t=1.0, angle=2.0 * math.asin(0.2), seed=3)
        h, state = refine(oracle, w0, 1.0, 0.05, 0.1, sigma0=0.5)
        assert state.round > 0
        assert state.angle_floor <= state.sigma
        assert h is not None
