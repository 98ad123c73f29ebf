import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfcx, ndtr

from halfspace_lab.geometry import (
    Halfspace,
    disagreement_mass,
    halfspace_bias,
    lift,
    span_basis,
    threshold_for_bias,
)
from halfspace_lab.oracles import (
    EVAL_BLOCK,
    BoundaryBand,
    BudgetExceeded,
    CleanLabels,
    GaussianLaw,
    LabelSource,
    MembershipOracle,
    RandomFlip,
    RegionFlip,
    SmallClassOracle,
    SmallClassUnreachable,
    WhiteBoxView,
    estimate_error,
    localized_query_batch,
    scores_exactly,
    smoothed_query_batch,
)
from halfspace_lab.rng import substream

from conftest import random_halfspace, rotated_from, unit_vector

BENCH = Path(__file__).resolve().parent.parent / "bench"


def make_oracle(t=0.5, d=4, seed=0, source_cls=CleanLabels, **kwargs):
    w = np.zeros(d)
    w[0] = 1.0
    return MembershipOracle(source_cls(Halfspace(w, t), **kwargs), seed)


class TestSources:
    def test_clean_opt_zero_and_deterministic(self, rng):
        h = random_halfspace(rng, 3)
        src = CleanLabels(h)
        X = rng.standard_normal((100, 3))
        assert src.opt == 0.0
        assert np.array_equal(src.sample_labels(X, rng), h(X))

    def test_random_flip_rate(self):
        o = make_oracle(t=0.0, source_cls=RandomFlip, rate=0.2)
        X = o.gaussian_points(50_000)
        clean = np.asarray(o.source.target(X))
        flipped = np.mean(o.query_batch(X) != clean)
        assert flipped == pytest.approx(0.2, abs=0.01)
        assert o.source.opt == 0.2

    def test_random_flip_rejects_half(self):
        with pytest.raises(ValueError):
            make_oracle(source_cls=RandomFlip, rate=0.5)

    def test_boundary_band_opt_formula(self):
        src = make_oracle(t=1.0, source_cls=BoundaryBand, band=0.25).source
        expected = halfspace_bias(0.75) - halfspace_bias(1.25)
        assert src.opt == pytest.approx(expected, rel=1e-12)

    def test_boundary_band_flips_only_in_band(self, rng):
        o = make_oracle(t=1.0, source_cls=BoundaryBand, band=0.25)
        X = o.gaussian_points(5000)
        y = o.query_batch(X)
        margins = o.source.target.margins(X)
        clean = np.asarray(o.source.target(X))
        inside = np.abs(margins) <= 0.25
        assert np.array_equal(y[inside], -clean[inside])
        assert np.array_equal(y[~inside], clean[~inside])

    def test_region_flip(self, rng):
        h = Halfspace(np.array([1.0, 0.0]), 0.0)
        src = RegionFlip(h, region=lambda X: X[:, 1] > 10.0, region_mass=0.0)
        X = rng.standard_normal((100, 2))
        assert np.array_equal(src.sample_labels(X, rng), h(X))


class TestMembershipOracle:
    def test_ledger_counts_every_labeled_point(self):
        o = make_oracle()
        o.query(np.zeros(4))
        o.query_batch(o.gaussian_points(17))
        assert o.ledger == 18

    def test_gaussian_points_cost_nothing(self):
        o = make_oracle()
        o.gaussian_points(1000)
        assert o.ledger == 0

    def test_same_seed_reproduces(self):
        a, b = make_oracle(seed=3), make_oracle(seed=3)
        Xa, Xb = a.gaussian_points(200), b.gaussian_points(200)
        assert np.array_equal(Xa, Xb)
        assert np.array_equal(a.query_batch(Xa), b.query_batch(Xb))

    def test_rejects_non_finite_query(self):
        o = make_oracle()
        with pytest.raises(ValueError):
            o.query(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_budget_refuses_a_batch_whole(self):
        o = MembershipOracle(make_oracle().source, seed=0, budget=20)
        o.query_batch(o.gaussian_points(15))
        with pytest.raises(BudgetExceeded):
            o.query_batch(o.gaussian_points(6))
        assert o.spent
        assert o.ledger == 15
        # once spent, a query that would fit is refused too
        with pytest.raises(BudgetExceeded):
            o.query(np.zeros(4))
        assert o.ledger == 15

    def test_batch_landing_on_budget_is_accepted(self):
        o = MembershipOracle(make_oracle().source, seed=0, budget=20)
        o.query_batch(o.gaussian_points(19))
        o.query(np.zeros(4))
        assert o.ledger == 20
        assert not o.spent

    def test_rejects_non_finite_query_batch(self):
        o = make_oracle()
        X = o.gaussian_points(8)
        X[5, 2] = np.inf
        with pytest.raises(ValueError):
            o.query_batch(X)
        assert o.ledger == 0

    def test_localized_query_batch_matches_transform(self, rng):
        o = make_oracle(t=0.8)
        v = unit_vector(rng, 4)
        Z = o.gaussian_points(500)
        from halfspace_lab.geometry import localize_halfspace

        labels = localized_query_batch(o, v, 0.5, 0.3, Z)
        assert np.array_equal(labels, localize_halfspace(o.source.target, v, 0.5, 0.3)(Z))

    def test_smoothed_query_batch_matches_transform(self, rng):
        o = make_oracle(t=0.8)
        x0 = rng.standard_normal(4)
        Z = o.gaussian_points(500)
        from halfspace_lab.geometry import smoothed_halfspace

        labels = smoothed_query_batch(o, x0, 0.6, Z)
        assert np.array_equal(labels, smoothed_halfspace(o.source.target, x0, 0.6)(Z))


class Unlawful(LabelSource):
    """A margin-law source's labels without its margin law: the Gaussian
    channel takes its general path."""

    def __init__(self, source):
        self.target = source.target
        self._source = source

    def sample_labels(self, X, rng):
        return self._source.sample_labels(X, rng)


class TestGaussianChannel:
    """The span channel of a margin-law source against the general channel."""

    N = 20_000
    # the spread of a Chow mean is checked over REPEATS batches of SMALL draws
    REPEATS, SMALL = 200, 50
    SOURCES = {
        "clean": CleanLabels,
        "rcn": lambda h: RandomFlip(h, 0.1),
        "band": lambda h: BoundaryBand(h, 0.3),
    }

    @staticmethod
    def pair(kind, d, seed, sign):
        """The exact and the general channel on pinned, independent substreams."""
        rng = substream(seed, "channel-target", d)
        source = TestGaussianChannel.SOURCES[kind](Halfspace(unit_vector(rng, d), 1.0))
        exact, general = MembershipOracle(source, seed), MembershipOracle(Unlawful(source), seed + 1)
        exact.label_sign = general.label_sign = sign
        return exact, general

    def assert_agree(self, exact, general, law, directions):
        a, b = (o.gaussian_queries(self.N, law, chow=True) for o in (exact, general))
        assert exact.ledger == general.ledger == self.N
        share = [float(np.mean(batch.labels == -1)) for batch in (a, b)]
        p = max(0.5 * sum(share), 1.0 / self.N)
        assert abs(share[0] - share[1]) <= 4 * math.sqrt(2 * p * (1 - p) / self.N), share
        # each component of a Chow mean is a mean of N copies of (u.z) y,
        # whose variance is at most E(u.z)^2 = 1
        for name, u in directions.items():
            assert abs(a.chow @ u - b.chow @ u) <= 4 * math.sqrt(2 / self.N), (name, a.chow @ u, b.chow @ u)
        # and its spread: the mean square of sqrt(SMALL) u.g over small batches
        U = np.column_stack(list(directions.values()))
        a, b = (
            np.array([o.gaussian_queries(self.SMALL, law, chow=True).chow @ U for _ in range(self.REPEATS)])
            for o in (exact, general)
        )
        sq_a, sq_b = self.SMALL * a * a, self.SMALL * b * b
        se = np.sqrt((sq_a.var(axis=0) + sq_b.var(axis=0)) / self.REPEATS)
        assert np.all(np.abs(sq_a.mean(axis=0) - sq_b.mean(axis=0)) <= 4 * se), (sq_a.mean(axis=0), sq_b.mean(axis=0))

    # w tilted from w*, w = w* and w = -w*; in one dimension only the last two
    CASES = [(d, case) for d in (1, 2, 10) for case in ("tilted", "aligned", "opposed") if d > 1 or case != "tilted"]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("d,case", CASES)
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_localized_law(self, kind, d, case, sign):
        seed = 31 * d + 2 * ["tilted", "aligned", "opposed"].index(case) + (sign < 0)
        exact, general = self.pair(kind, d, seed, sign)
        w_star = exact.source.target.w
        rng = substream(seed, "channel-w")
        w = {"tilted": lambda: rotated_from(w_star, 0.5, rng), "aligned": lambda: w_star, "opposed": lambda: -w_star}[case]()
        # an orthonormal basis: w, then the rest of span{w, w*}, then the complement
        basis = [w] if case != "tilted" else [w, w_star]
        Q = np.linalg.qr(np.column_stack(basis + [rng.standard_normal((d, d))]))[0]
        directions = {"along": w}
        if case == "tilted":
            directions["across"] = Q[:, 1]
        if d > len(basis):
            directions["complement"] = Q[:, len(basis)]
        self.assert_agree(exact, general, GaussianLaw.localized(w, 0.8, 0.3), directions)

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    @pytest.mark.parametrize("law", ["standard", "smoothed"])
    def test_laws_without_a_direction(self, kind, law):
        d = 10
        exact, general = self.pair(kind, d, 5, 1)
        w_star = exact.source.target.w
        rng = substream(5, "channel-x0")
        x0 = rng.standard_normal(d)
        x0 -= (x0 @ w_star + 1.5) * w_star
        Q = np.linalg.qr(np.column_stack([w_star, rng.standard_normal((d, d))]))[0]
        chosen = GaussianLaw() if law == "standard" else GaussianLaw.smoothed(x0, 0.6)
        self.assert_agree(exact, general, chosen, {"along": w_star, "complement": Q[:, 1]})

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("law", ["standard", "smoothed", "localized"])
    @pytest.mark.parametrize("d", [1, 2, 10])
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_labels_do_not_depend_on_the_batch_layout(self, kind, d, law, sign):
        # the span channel builds a batch column-major, as the transpose of
        # a (d, n) product; the row-major P @ law.linear(E) + c of the same
        # draws, labeled through query_batch, must read the same
        n, seed = 3000, 7 * d + (sign < 0)
        rng = substream(seed, "channel-layout")
        source = self.SOURCES[kind](Halfspace(unit_vector(rng, d), 1.0))
        w_star = source.target.w
        chosen = {
            "standard": lambda: GaussianLaw(),
            "smoothed": lambda: GaussianLaw.smoothed(rng.standard_normal(d), 0.6),
            "localized": lambda: GaussianLaw.localized(rotated_from(w_star, 0.5, rng) if d > 1 else -w_star, 0.8, 0.3),
        }[law]()
        channel, rows = MembershipOracle(source, seed), MembershipOracle(source, seed)
        channel.label_sign = rows.label_sign = sign
        batch = channel.gaussian_queries(n, chosen, chow=True)
        E = span_basis(w_star, chosen.v)
        P = rows.gaussian_points(n, dim=E.shape[0])
        X = P @ chosen.linear(E)
        if chosen.center is not None:
            X += chosen.center
        assert X.flags.c_contiguous
        labels = rows.query_batch(X)
        chow = lift(P.T @ labels / n, E, rows.gaussian_points(1)[0] / math.sqrt(n))
        assert np.array_equal(batch.labels, labels)
        assert channel.ledger == rows.ledger == n
        assert np.allclose(batch.chow, chow, rtol=0, atol=1e-12)

    def test_points_get_their_other_coordinates(self):
        # the negative points a batch hands out: labeled as the batch says,
        # and standard normal off w* whether or not the labels read them
        d, n = 10, 4000
        exact, _ = self.pair("clean", d, 8, 1)
        target = exact.source.target
        batch = exact.gaussian_queries(5 * n)
        hits = np.flatnonzero(batch.labels == -1)[:n]
        X = np.array([batch.point(i) for i in hits])
        assert np.array_equal(np.asarray(target(X)), batch.labels[hits])
        Q = np.linalg.qr(np.column_stack([target.w, np.eye(d)]))[0]
        C = X @ Q[:, 1:]
        k = hits.size
        assert np.all(np.abs(C.mean(axis=0)) <= 4 / math.sqrt(k))
        assert np.all(np.abs(C.var(axis=0) - 1) <= 4 * math.sqrt(2 / k))

    def test_budget_refusal_on_the_span_path(self):
        exact, _ = self.pair("clean", 10, 3, 1)
        exact.budget = 100
        law = GaussianLaw.localized(exact.source.target.w, 0.8, 0.3)
        with pytest.raises(BudgetExceeded):
            exact.gaussian_queries(150, law, chow=True)
        assert exact.spent and exact.ledger == 0
        with pytest.raises(BudgetExceeded):
            exact.gaussian_queries(10)
        assert exact.ledger == 0


class TestSmallClass:
    def test_draws_are_negative_and_counted(self):
        src = make_oracle(t=threshold_for_bias(0.05)).source
        sc = SmallClassOracle(src, seed=1)
        X = sc.draw_batch(300)
        assert np.all(src.sample_labels(X, substream(9, "check")) == -1)
        assert sc.draws == 300

    def test_conditional_mean_depth(self):
        # E[-w.x | negative] = phi(t)/Phi(-t); spot-check at t = 1
        t = 1.0
        src = make_oracle(t=t).source
        sc = SmallClassOracle(src, seed=2)
        X = sc.draw_batch(40_000)
        mills = np.exp(-t * t / 2) / np.sqrt(2 * np.pi) / halfspace_bias(t)
        assert -np.mean(X[:, 0]) == pytest.approx(mills, abs=0.02)

    @staticmethod
    def rejection_source(t, d=4):
        """Clean labels behind a RegionFlip that flips nothing: no margin
        law, so the sampler takes its rejection path."""
        return make_oracle(t=t, d=d, source_cls=RegionFlip, region=lambda X: np.zeros(X.shape[0], dtype=bool)).source

    def test_labels_only_source_takes_rejection_path(self):
        # a source with dim and sample_labels alone, as MembershipOracle accepts
        inner = make_oracle(t=threshold_for_bias(0.05)).source

        class LabelsOnly:
            dim = inner.dim

            def sample_labels(self, X, rng):
                return inner.sample_labels(X, rng)

        sc = SmallClassOracle(LabelsOnly(), seed=7)
        X = sc.draw_batch(200)
        assert sc.proposals > 0
        assert np.all(inner.sample_labels(X, substream(9, "check")) == -1)

    def test_unreachable_raises(self):
        sc = SmallClassOracle(self.rejection_source(20.0), seed=0, attempt_cap=10_000)
        with pytest.raises(SmallClassUnreachable):
            sc.draw()
        assert sc.proposals == 10_000

    def test_margin_law_mass_underflow_raises(self):
        # Phi(-40) underflows to 0: no depth is left to draw from
        sc = SmallClassOracle(make_oracle(t=40.0).source, seed=0)
        with pytest.raises(SmallClassUnreachable):
            sc.draw()
        assert sc.draws == 0

    @pytest.mark.parametrize("t", [5.0, 10.0, 20.0])
    def test_exact_depths_beyond_rejection(self, rng, t):
        # p = Phi(-t) reaches 3e-89 at t = 20, where rejection would need
        # ~1e88 proposals per draw
        d, n = 6, 20_000
        w = unit_vector(rng, d)
        src = CleanLabels(Halfspace(w, t))
        sc = SmallClassOracle(src, seed=int(t))
        X = sc.draw_batch(n)
        assert np.all(src.sample_labels(X, rng) == -1)
        assert sc.draws == n and sc.proposals == 0
        depth = -(X @ w)
        mills = np.sqrt(2 / np.pi) / erfcx(t / np.sqrt(2))
        assert abs(depth.mean() - mills) <= 4 * depth.std() / np.sqrt(n)

    def test_far_upper_tail_piece(self, rng):
        # the piece (8, 8.5) has mass 6e-16 in the upper tail, where
        # 1 - Phi(r) would round to 0; mirrored, it is drawn in full
        class UpperPiece(CleanLabels):
            def margin_law(self):
                return ((8.0, 8.5, 1.0),)

        d, n = 3, 20_000
        w = unit_vector(rng, d)
        r = SmallClassOracle(UpperPiece(Halfspace(w, 0.0)), seed=1).draw_batch(n) @ w
        assert np.all(np.isfinite(r))
        assert np.all((r >= 8.0 - 1e-9) & (r <= 8.5 + 1e-9))
        # truncated-normal mean (phi(8) - phi(8.5)) / (Phi(-8) - Phi(-8.5))
        phi = lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi)
        mean = (phi(8.0) - phi(8.5)) / (halfspace_bias(8.0) - halfspace_bias(8.5))
        assert abs(r.mean() - mean) <= 4 * r.std() / np.sqrt(n)

    @pytest.mark.parametrize("exact", [True, False])
    def test_negative_count_raises(self, exact):
        p = 0.05
        src = make_oracle(t=threshold_for_bias(p)).source if exact else self.rejection_source(threshold_for_bias(p))
        sc = SmallClassOracle(src, seed=8)
        sc.draw_batch(5)
        proposals = sc.proposals
        with pytest.raises(ValueError):
            sc.draw_batch(-3)
        assert sc.draws == 5
        # the rejection path's surplus from the first call is still served
        assert sc.draw_batch(1).shape == (1, src.dim)
        assert sc.proposals == proposals

    @staticmethod
    def _mixed_calls(sc, total):
        """``total`` draws collected over calls of mixed sizes, so that the
        surplus carried between calls is part of what is checked."""
        sizes = [1, 64, 400, 2000, 7]
        parts, got, i = [], 0, 0
        while got < total:
            n = min(sizes[i % len(sizes)], total - got)
            parts.append(sc.draw_batch(n))
            got += n
            i += 1
        return np.concatenate(parts)

    @pytest.mark.parametrize(
        "source_cls, kwargs, positive_share",
        [
            (
                RandomFlip,
                {"rate": 0.2},
                # flipped positives over all negatives
                lambda t: 0.2 * (1 - halfspace_bias(t))
                / (0.2 * (1 - halfspace_bias(t)) + 0.8 * halfspace_bias(t)),
            ),
            (
                BoundaryBand,
                {"band": 0.3},
                # 0 <= w.x + t <= band over that plus w.x + t < -band
                lambda t: (halfspace_bias(t - 0.3) - halfspace_bias(t))
                / (halfspace_bias(t - 0.3) - halfspace_bias(t) + halfspace_bias(t + 0.3)),
            ),
            (CleanLabels, {}, lambda t: 0.0),
        ],
    )
    def test_exact_conditional_law_margin_sources(self, rng, source_cls, kwargs, positive_share):
        d, t, n = 6, 1.0, 40_000
        w = unit_vector(rng, d)
        src = source_cls(Halfspace(w, t), **kwargs)
        X = self._mixed_calls(SmallClassOracle(src, seed=5), n)
        assert X.shape == (n, d)
        if source_cls is not RandomFlip:
            assert np.all(src.sample_labels(X, rng) == -1)
        share = float(np.mean(X @ w + t >= 0))
        q = positive_share(t)
        assert abs(share - q) <= 4 * np.sqrt(q * (1 - q) / n) + 1e-12
        # the coordinates orthogonal to w* are standard normal
        Q = np.linalg.qr(np.column_stack([w, rng.standard_normal((d, d - 1))]))[0]
        C = X @ Q[:, 1:]
        assert np.all(np.abs(C.mean(axis=0)) <= 4 / np.sqrt(n))
        assert np.all(np.abs(C.var(axis=0) - 1) <= 4 * np.sqrt(2 / n))

    def test_region_flip_on_other_coordinate(self):
        # the region reads x_1, which the target e_0 never sees
        d, t, c, n = 4, 1.0, 0.5, 20_000
        src = make_oracle(t=t, d=d, source_cls=RegionFlip, region=lambda X: X[:, 1] > c).source
        X = self._mixed_calls(SmallClassOracle(src, seed=6), n)
        assert np.all(src.sample_labels(X, substream(9, "check")) == -1)
        # negatives: (x_0 + t < 0, x_1 <= c) or (x_0 + t >= 0, x_1 > c)
        inside = (1 - halfspace_bias(t)) * halfspace_bias(c)
        q = inside / (inside + halfspace_bias(t) * (1 - halfspace_bias(c)))
        share = float(np.mean(X[:, 1] > c))
        assert abs(share - q) <= 4 * np.sqrt(q * (1 - q) / n)
        C = X[:, 2:]
        assert np.all(np.abs(C.mean(axis=0)) <= 4 / np.sqrt(n))
        assert np.all(np.abs(C.var(axis=0) - 1) <= 4 * np.sqrt(2 / n))

    def test_single_draws_keep_surplus(self):
        p = 0.05
        sc = SmallClassOracle(self.rejection_source(threshold_for_bias(p)), seed=3)
        for _ in range(1000):
            sc.draw()
        assert sc.draws == 1000
        assert sc.proposals <= 2 * 1000 / p

    def test_attempt_cap_counts_per_call(self):
        # 100 calls need ~100k proposals in all, ~1k each
        sc = SmallClassOracle(self.rejection_source(threshold_for_bias(0.05)), seed=4, attempt_cap=10_000)
        for _ in range(100):
            sc.draw_batch(50)
        assert sc.proposals > 10_000
        # a call past the cap raises but keeps its ~500 hits for the next
        with pytest.raises(SmallClassUnreachable):
            sc.draw_batch(5000)
        before = sc.proposals
        sc.draw_batch(100)
        assert sc.proposals == before


class TestEvaluation:
    def test_estimate_error_zero_for_target(self):
        src = make_oracle(t=0.5).source
        assert estimate_error(src, src.target, 10_000, seed=0) == 0.0

    def test_estimate_error_matches_disagreement(self, rng):
        src = make_oracle(t=0.0, d=2).source
        other = Halfspace(np.array([0.0, 1.0]), 0.0)  # orthogonal: disagreement 1/2
        err = estimate_error(src, other, 100_000, seed=1)
        assert err == pytest.approx(0.5, abs=0.01)

    def test_evaluation_channel_does_not_touch_ledger(self):
        o = make_oracle()
        estimate_error(o.source, o.source.target, 1000, seed=0)
        assert o.ledger == 0

    def test_blocks_of_a_large_evaluation(self):
        # a callable h is scored by Monte Carlo, in three full blocks and a
        # short one at d = 20: the count over the blocks estimates the exact
        # disagreement mass, and the ledger of the oracle whose source is
        # evaluated stays untouched
        m, d = 3 * EVAL_BLOCK + 17, 20
        rng = substream(11, "eval-blocks")
        w = unit_vector(rng, d)
        target, h = Halfspace(w, 0.5), Halfspace(rotated_from(w, 0.6, rng), 0.3)
        mass = disagreement_mass(target, h)
        blocks = []

        def recorded(X):
            blocks.append(X.shape)
            return h(X)

        oracle = MembershipOracle(CleanLabels(target), seed=0)
        err = estimate_error(oracle.source, recorded, m, seed=2)
        assert blocks == [(EVAL_BLOCK, d)] * 3 + [(17, d)]
        assert abs(err - mass) <= 4 * np.sqrt(mass * (1 - mass) / m)
        assert oracle.ledger == 0
        # flipped labels: h is wrong off the disagreement at the flip rate
        # and on it at one minus the flip rate
        rate = 0.1
        expected = rate + (1 - 2 * rate) * mass
        blocks.clear()
        err = estimate_error(RandomFlip(target, rate), recorded, m, seed=3)
        assert blocks == [(EVAL_BLOCK, d)] * 3 + [(17, d)]
        assert abs(err - expected) <= 4 * np.sqrt(expected * (1 - expected) / m)

    @pytest.mark.parametrize(
        "t_star,t,angle", [(1.0, 0.6, 0.7), (0.8, 0.8, 1e-7), (-0.7, -0.4, 0.3)], ids=["wide", "parallel", "negative"]
    )
    def test_margin_law_error_is_exact(self, monkeypatch, t_star, t, angle):
        # a Halfspace against a margin-law source is scored in closed form,
        # drawing nothing: checked against bench/reference.py's independent
        # Owen's T.  The pair lies in the (e1, e2) plane, where renormalizing
        # h.w, as the reference does, only rescales it: a random direction
        # in d = 20 would lose the ninth digit of the error at angle 1e-7
        monkeypatch.syspath_prepend(str(BENCH))
        reference = importlib.import_module("reference")
        d, rate, band = 20, 0.1, 0.25
        e = np.eye(d)
        target, h = Halfspace(e[0], t_star), Halfspace(math.cos(angle) * e[0] + math.sin(angle) * e[1], t)
        mass = reference.disagreement(target.w, target.t, h.w, h.t)
        rho, s, gap = math.cos(angle), math.sin(angle), 2 * math.sin(angle / 2) ** 2

        def below(x):  # P(w*.x < x, h = -1)
            return reference.bivariate_normal_cdf(x, -t, rho, s, gap)

        # the band: P(h = -1) + sum over its pieces of P(piece) - 2 P(piece, h = -1)
        in_band = ndtr(-t_star - band) - 2 * below(-t_star - band)
        in_band += ndtr(-t_star + band) - ndtr(-t_star) - 2 * (below(-t_star + band) - below(-t_star))
        expected = [
            (CleanLabels(target), mass),
            (RandomFlip(target, rate), rate + (1 - 2 * rate) * mass),
            (BoundaryBand(target, band), ndtr(-t) + in_band),
        ]
        for source, err in expected:
            monkeypatch.setattr(type(source), "sample_labels", None)
            assert scores_exactly(source, h)
            assert estimate_error(source, h, 100_000, seed=4) == pytest.approx(err, rel=1e-9, abs=0)
            assert estimate_error(source, target, 100_000, seed=4) == pytest.approx(source.opt, rel=0, abs=1e-12)
        assert estimate_error(CleanLabels(target), h, 1, seed=4) == disagreement_mass(target, h)

    def test_exact_error_weighs_each_side_of_h(self):
        # a law whose negative rate is 0.3 whatever the margin: h errs at
        # rate 0.3 where it says +1 and 0.7 where it says -1
        class Coin(CleanLabels):
            def margin_law(self):
                return ((-math.inf, math.inf, 0.3),)

        h = Halfspace(np.eye(3)[1], 0.8)
        err = estimate_error(Coin(Halfspace(np.eye(3)[0], 0.5)), h, 1, seed=0)
        assert err == pytest.approx(0.3 * ndtr(0.8) + 0.7 * ndtr(-0.8), rel=1e-12)


class TestWhiteBox:
    def test_half_angle_sine(self, rng):
        src = make_oracle(t=0.5).source
        view = WhiteBoxView(src)
        w = unit_vector(rng, 4)
        theta = view.angle_to(w)
        assert view.half_angle_sine(w) == pytest.approx(np.sin(theta / 2), abs=1e-12)

    def test_localized_threshold_sign(self):
        # querying centered past t* makes the localized concept mostly negative
        src = make_oracle(t=1.0).source
        view = WhiteBoxView(src)
        assert view.localized_threshold(src.target.w, 0.3, 2.0) < 0
        assert view.localized_threshold(src.target.w, 0.3, 0.0) > 0
