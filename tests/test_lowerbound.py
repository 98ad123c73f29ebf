import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc

from halfspace_lab import lowerbound
from halfspace_lab.geometry import Halfspace, halfspace_bias, threshold_for_bias
from halfspace_lab.lowerbound import (
    GreedyDirection,
    OracleAided,
    Pool,
    RandomOrder,
    near_isometry_stat,
    negative_capture_prob,
    play_query_game,
)
from halfspace_lab.rng import substream

from conftest import unit_vector


def make_pool(m=500, d=10, p=0.2, seed=0, copies=1):
    """A Gaussian pool; with copies > 1 its m rows are that many copies of
    m / copies distinct rows, so scores and margins tie exactly."""
    rng = substream(seed, "pool-setup")
    points = np.tile(rng.standard_normal((m // copies, d)), (copies, 1))
    target = Halfspace(unit_vector(rng, d), threshold_for_bias(p))
    return Pool(points, target), rng


def capture_law(d, s):
    """P(u < -s) for s >= 0 and u the first coordinate of a uniform unit
    vector in R^d: u^2 ~ Beta(1/2, (d-1)/2)."""
    return 0.5 * betainc((d - 1) / 2, 0.5, 1.0 - s * s)


def traced_peak(call):
    """Peak bytes the call allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class ReferenceGreedy:
    """GreedyDirection by brute force: rescores the whole pool per reveal."""

    def __init__(self, rng):
        self._fallback = RandomOrder(rng)

    def next(self, pool, negatives):
        if not negatives:
            return self._fallback.next(pool, negatives)
        direction = np.mean(pool.points[negatives], axis=0)
        scores = pool.points @ direction
        for i in pool.revealed:
            scores[i] = -np.inf
        return int(np.argmax(scores))


class ReferenceOracleAided:
    """OracleAided by brute force: recomputes every margin per reveal."""

    def next(self, pool, negatives):
        scores = pool.target.margins(pool.points)
        for i in pool.revealed:
            scores[i] = np.inf
        return int(np.argmin(scores))


STRATEGIES = {
    "greedy": (GreedyDirection, ReferenceGreedy),
    "oracle": (lambda rng: OracleAided(), lambda rng: ReferenceOracleAided()),
}


def reveal_order(pool, strategy, target_negatives, budget):
    """The indices a game reveals, in order, and the game's result."""
    order = []

    class Recorder:
        def next(self, pool, negatives):
            order.append(strategy.next(pool, negatives))
            return order[-1]

    return order, play_query_game(pool, Recorder(), target_negatives, budget)


def assert_same_reveals(kind, target_negatives, budget=None, pre_reveal=(), **pool_args):
    """Plays the same game with a strategy and its brute-force reference,
    each on a fresh copy of the pool, and checks they reveal alike."""
    runs = []
    for build in STRATEGIES[kind]:
        pool, rng = make_pool(**pool_args)
        for i in pre_reveal:
            pool.reveal(i)
        runs.append(reveal_order(pool, build(rng), target_negatives, budget or pool.size))
    assert runs[0] == runs[1]
    return runs[0]


class TestPool:
    def test_reveal_once(self):
        pool, _ = make_pool()
        label = pool.reveal(3)
        assert label in (-1, 1)
        with pytest.raises(ValueError):
            pool.reveal(3)

    def test_labels_deterministic(self):
        pool, _ = make_pool()
        assert pool.reveal(0) == int(pool.target(pool.points[0]))


class TestNearIsometry:
    def test_single_row_matches_chi_square_deviation(self):
        rng = substream(1, "iso-k1")
        d, m = 400, 50
        points = rng.standard_normal((m, d))
        stat = near_isometry_stat(points, k=1, tuples=200, rng=rng)
        expected = np.max(np.abs(np.sum(points ** 2, axis=1) - d)) / d
        assert stat <= expected + 1e-12
        assert stat == pytest.approx(expected, rel=0.5)  # most rows get sampled

    def test_duplicate_rows_detected(self):
        rng = substream(2, "iso-dup")
        d = 100
        g = rng.standard_normal(d)
        x = g * np.sqrt(d) / np.linalg.norm(g)
        A = np.vstack([x, x])
        stat = near_isometry_stat(A, k=2, tuples=10, rng=rng)
        assert stat > 0.8  # rank-deficient pair: eigenvalue near 2d

    def test_sign_flip_invariance(self):
        rng = substream(3, "iso-flip")
        points = rng.standard_normal((40, 60))
        flipped = points * np.where(np.arange(40) % 2 == 0, 1.0, -1.0)[:, None]
        s1 = near_isometry_stat(points, 3, 50, substream(7, "iso-a"))
        s2 = near_isometry_stat(flipped, 3, 50, substream(7, "iso-a"))
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_rejects_bad_k(self):
        rng = substream(0, "iso-bad")
        with pytest.raises(ValueError):
            near_isometry_stat(rng.standard_normal((10, 5)), k=6, tuples=1, rng=rng)

    @pytest.mark.parametrize("gather", [1, 30_000, lowerbound.GATHER_BYTES])
    def test_chunks_give_what_one_tuple_at_a_time_gives(self, monkeypatch, gather):
        # chunks of one tuple, of a few tuples with a short last chunk, and
        # the default: the same statistic, bit for bit, and the same stream end
        monkeypatch.setattr(lowerbound, "GATHER_BYTES", gather)
        points = substream(8, "iso-chunks").standard_normal((300, 50))
        rng, ref = substream(8, "iso-a"), substream(8, "iso-a")
        worst = 0.0
        for _ in range(97):
            A = points[ref.choice(300, size=4, replace=False)]
            worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(A @ A.T - 50 * np.eye(4))))) / 50)
        assert near_isometry_stat(points, 4, 97, rng) == worst
        assert rng.random() == ref.random()

    def test_gathers_about_a_megabyte_at_a_time(self):
        # criterion 12a's call: 500 tuples of 10 rows at d = 200 would gather 8 MB
        points = substream(9, "iso-memory").standard_normal((2000, 200))
        rng = substream(9, "iso-a")
        assert traced_peak(lambda: near_isometry_stat(points, 10, 500, rng)) < 2e6


class TestNegativeCapture:
    def test_zero_threshold_single_row(self):
        rng = substream(4, "cap-zero")
        x = rng.standard_normal(200)
        prob = negative_capture_prob(x[None, :], 0.0, 40_000, rng)
        assert prob == pytest.approx(0.5, abs=0.01)

    def test_monotone_in_threshold(self):
        rng = substream(5, "cap-mono")
        A = rng.standard_normal((2, 300))
        probs = [
            negative_capture_prob(A, t, 40_000, substream(5, "cap-trial"))
            for t in (0.0, 0.5, 1.0)
        ]
        assert probs[0] >= probs[1] >= probs[2]

    def test_orthogonal_pair_roughly_independent(self):
        rng = substream(6, "cap-pair")
        d = 400
        x = np.zeros(d)
        y = np.zeros(d)
        x[0] = np.sqrt(d)
        y[1] = np.sqrt(d)
        p = halfspace_bias(1.0)
        prob = negative_capture_prob(np.vstack([x, y]), 1.0, 100_000, rng)
        assert prob == pytest.approx(p * p, rel=0.4)


    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
    def test_single_row_matches_closed_form(self, t):
        d, trials = 200, 40_000
        x = np.zeros(d)
        x[0] = math.sqrt(d)
        prob = negative_capture_prob(x[None, :], t, trials, substream(11, "cap-law", int(t)))
        p = capture_law(d, t / math.sqrt(d))
        assert abs(prob - p) <= 4.0 * math.sqrt(p * (1 - p) / trials)

    @pytest.mark.parametrize("d,copies", [(2, 3), (200, 2)])
    def test_repeated_rows_capture_as_one(self, d, copies):
        # k > d leaves no chi-square term; two copies at d = 200 make R
        # rank-deficient
        trials = 40_000
        x = np.full(d, 1.0)
        prob = negative_capture_prob(np.tile(x, (copies, 1)), 1.0, trials, substream(12, "cap-copies", d))
        p = capture_law(d, 1.0 / math.sqrt(d))
        assert abs(prob - p) <= 4.0 * math.sqrt(p * (1 - p) / trials)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_too_few_trials(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            negative_capture_prob(np.ones((1, 5)), 1.0, trials, substream(0, "cap-bad"))

    def test_memory_does_not_grow_with_d(self):
        # criterion 12b's call: no (trials, d) array of directions
        x = np.zeros(200)
        x[0] = math.sqrt(200)
        rng = substream(0, "cap-memory")
        peak = traced_peak(lambda: negative_capture_prob(x[None, :], 1.0, 100_000, rng))
        assert peak < 8e6


class TestQueryGame:
    def test_random_order_geometric_cost(self):
        pool, rng = make_pool(m=2000, p=0.2, seed=9)
        found, used = play_query_game(pool, RandomOrder(rng), 5, budget=2000)
        assert found == 5
        assert used <= 200  # 5 negatives at p = 0.2: ~25 expected

    def test_oracle_aided_needs_exactly_k(self):
        pool, _ = make_pool(m=500, p=0.2, seed=10)
        found, used = play_query_game(pool, OracleAided(), 4, budget=500)
        assert (found, used) == (4, 4)

    def test_greedy_beats_random_after_first_hit(self):
        random_costs, greedy_costs = [], []
        for seed in range(10):
            pool, rng = make_pool(m=4000, d=15, p=0.05, seed=seed)
            _, used_r = play_query_game(pool, RandomOrder(rng), 8, budget=4000)
            pool2, rng2 = make_pool(m=4000, d=15, p=0.05, seed=seed)
            _, used_g = play_query_game(pool2, GreedyDirection(rng2), 8, budget=4000)
            random_costs.append(used_r)
            greedy_costs.append(used_g)
        assert np.median(greedy_costs) <= np.median(random_costs)

    def test_budget_respected_and_no_double_reveal(self):
        pool, rng = make_pool(m=100, p=0.01, seed=11)
        found, used = play_query_game(pool, RandomOrder(rng), 50, budget=60)
        assert used <= 60
        assert len(pool.revealed) == used

    def test_rejects_bad_budget(self):
        pool, rng = make_pool()
        with pytest.raises(ValueError):
            play_query_game(pool, RandomOrder(rng), 1, budget=0)


class TestRevealOrder:
    """GreedyDirection and OracleAided skip the per-reveal rescan of the
    pool; they must still reveal exactly what the brute force reveals."""

    @pytest.mark.parametrize("kind", ["greedy", "oracle"])
    @pytest.mark.parametrize("seed", range(5))
    def test_small_pools(self, kind, seed):
        order, (found, _) = assert_same_reveals(kind, 40, m=4000, d=15, p=0.05, seed=seed)
        assert found == 40

    def test_large_pool(self):
        order, (found, used) = assert_same_reveals("greedy", 500, m=20_000, d=200, p=0.16, seed=3)
        assert found == 500 and used == len(order)

    def test_greedy_first_pick_allocates_no_pool_copy(self):
        pool, rng = make_pool(m=20_000, d=200, p=0.16, seed=13)
        negatives = [int(np.flatnonzero(pool.target(pool.points) == -1)[0])]
        pool.reveal(negatives[0])
        strategy = GreedyDirection(rng)
        # the pool is 32 MB; its row norms and scores are 160 kB each
        assert traced_peak(lambda: strategy.next(pool, negatives)) < 4e6

    @pytest.mark.parametrize("kind", ["greedy", "oracle"])
    def test_duplicated_rows_tie_to_the_lowest_index(self, kind):
        order, _ = assert_same_reveals(kind, 100, m=2000, d=10, p=0.2, seed=4, copies=4)
        # every row has three copies 500 apart, so the ties were met
        steps = np.diff(order)
        assert np.any(steps % 500 == 0)

    @pytest.mark.parametrize("kind", ["greedy", "oracle"])
    def test_points_revealed_before_the_game(self, kind):
        early = range(0, 4000, 7)
        order, _ = assert_same_reveals(kind, 40, pre_reveal=early, m=4000, d=15, p=0.05, seed=5)
        assert not set(order) & set(early)

    @pytest.mark.parametrize("kind", ["greedy", "oracle"])
    def test_game_stopped_by_budget(self, kind):
        order, (found, used) = assert_same_reveals(kind, 1000, budget=60, m=4000, d=15, p=0.05, seed=6)
        assert used == len(order) == 60 and found < 1000

    @pytest.mark.parametrize("kind", ["greedy", "oracle"])
    def test_new_game_or_pool_resets_state(self, kind):
        build, build_reference = STRATEGIES[kind]
        strategy = build(substream(8, "reuse"))
        pool_a, _ = make_pool(m=2000, d=15, p=0.05, seed=8)
        pool_b, _ = make_pool(m=2000, d=15, p=0.05, seed=9)
        # a second game on pool_a, then a game on pool_b, same strategy
        for pool, target in ((pool_a, 2), (pool_a, 20), (pool_b, 20)):
            negatives = []
            while len(negatives) < target:
                i = strategy.next(pool, negatives)
                # a fresh reference: its picks depend only on the pool and
                # the negatives (greedy's random fallback aside)
                if negatives or kind == "oracle":
                    assert i == build_reference(None).next(pool, negatives)
                if pool.reveal(i) == -1:
                    negatives.append(i)
