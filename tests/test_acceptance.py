"""Acceptance gate: one test per numbered criterion, each printing a
single PASS/FAIL line with its measured statistics before asserting.

Every random quantity is pinned to explicit seeds, so reruns are exact.
Reference constants marked "30-digit reference" were computed with an
independent arbitrary-precision implementation of the same formulas.
"""

import math
import time

import numpy as np

from halfspace_lab.cli import main as cli_main
from halfspace_lab.estimation import estimate_bias_doubling
from halfspace_lab.geometry import (
    Halfspace,
    chow_vector,
    halfspace_bias,
    komatsu_bounds,
    localize_halfspace,
    smoothed_halfspace,
    sqrt_localization_apply,
    threshold_for_bias,
)
from halfspace_lab.initialization import angle_test
from halfspace_lab.learner import LearnerConfig, RefineConfig, learn, tournament
from halfspace_lab.lowerbound import (
    Pool,
    RandomOrder,
    near_isometry_stat,
    negative_capture_prob,
    play_query_game,
)
from halfspace_lab.oracles import (
    BoundaryBand,
    CleanLabels,
    MembershipOracle,
    RandomFlip,
    SmallClassOracle,
    WhiteBoxView,
    smoothed_query_batch,
)
from halfspace_lab.refinement import RefineState, planned_rounds, refine_round
from halfspace_lab.rng import substream

from conftest import rotated_from, unit_vector


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def clean_oracle(t, d, seed):
    rng = substream(seed, "accept-target")
    return MembershipOracle(CleanLabels(Halfspace(unit_vector(rng, d), t)), seed)


def test_criterion_01_exact_transforms():
    t0 = time.monotonic()
    rng = substream(0, "accept-1")
    bad_loc = bad_smooth = 0
    for _ in range(200):
        d = int(rng.integers(2, 8))
        h = Halfspace(unit_vector(rng, d), float(rng.uniform(-1.5, 2.5)))
        v = unit_vector(rng, d)
        s = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.05, 0.95))
        Z = rng.standard_normal((50, d))
        X = sqrt_localization_apply(v, sigma, Z) - s * v
        g = localize_halfspace(h, v, s, sigma)
        off_boundary = np.abs(h.margins(X)) > 1e-9
        bad_loc += int(np.sum((np.asarray(g(Z)) != np.asarray(h(X))) & off_boundary))

        x0 = rng.standard_normal(d)
        rho = float(rng.uniform(0.05, 1.0))
        Xs = math.sqrt(1.0 - rho * rho) * x0 + rho * Z
        gs = smoothed_halfspace(h, x0, rho)
        off_boundary = np.abs(h.margins(Xs)) > 1e-9
        bad_smooth += int(np.sum((np.asarray(gs(Z)) != np.asarray(h(Xs))) & off_boundary))
    elapsed = time.monotonic() - t0
    ok = bad_loc == 0 and bad_smooth == 0 and elapsed < 1.0
    report("1 exact-transforms", ok,
           f"disagreements localize={bad_loc} smooth={bad_smooth} over 10^4 each, {elapsed:.2f}s")


def test_criterion_02_komatsu_sandwich():
    t0 = time.monotonic()
    violations = [
        float(t)
        for t in np.linspace(0.0, 6.0, 100)
        if not (komatsu_bounds(float(t))[0] < halfspace_bias(float(t)) < komatsu_bounds(float(t))[1])
    ]
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 1.0
    report("2 komatsu-sandwich", ok, f"violations={violations}, 100 grid points, {elapsed:.2f}s")


def test_criterion_03_chow_formula():
    t0 = time.monotonic()
    d, m = 10, 100_000
    tol = 4.0 * math.sqrt(d / m)
    worst = 0.0
    for i, t in enumerate((0.0, 0.5, 1.0, 2.0)):
        rng = substream(i, "accept-3")
        h = Halfspace(unit_vector(rng, d), t)
        Z = rng.standard_normal((m, d))
        emp = Z.T @ np.asarray(h(Z), dtype=float) / m
        worst = max(worst, float(np.linalg.norm(emp - chow_vector(h))))
    elapsed = time.monotonic() - t0
    ok = worst <= tol and elapsed < 5.0
    report("3 chow-formula", ok, f"worst deviation {worst:.4f} <= {tol:.4f}, {elapsed:.2f}s")


def test_criterion_04_localized_sampling():
    n, d = 100_000, 6
    failures = []
    for i, (sigma, s) in enumerate([(0.2, 1.0), (0.5, 0.5)]):
        rng = substream(i, "accept-4")
        v = unit_vector(rng, d)
        X = sqrt_localization_apply(v, sigma, rng.standard_normal((n, d))) - s * v
        # per-coordinate sd of N(-sv, I - (1 - sigma^2) v v^T)
        sd = np.sqrt(1.0 - (1.0 - sigma ** 2) * v ** 2)
        mean_ok = bool(np.all(np.abs(X.mean(axis=0) + s * v) <= 4.0 * sd / math.sqrt(n)))
        var_along = float(np.var(X @ v))
        var_ok = abs(var_along - sigma ** 2) <= 0.1 * sigma ** 2
        if not (mean_ok and var_ok):
            failures.append((sigma, s, mean_ok, var_along))
    report("4 localized-sampling", not failures, f"failures={failures} over 10^5 samples each")


def test_criterion_05_bias_doubling():
    t0 = time.monotonic()
    ps = (0.4, 0.2, 0.1, 0.05)
    brackets = {}
    medians = {}
    for p in ps:
        t = threshold_for_bias(p)
        hits, queries = 0, []
        for seed in range(100):
            oracle = clean_oracle(t, 3, seed)
            est = estimate_bias_doubling(oracle, epsilon=0.001, delta=0.1)
            queries.append(est.queries_used)
            if est.verdict == "bracket" and est.p_hat <= p <= 4.0 * est.p_hat:
                hits += 1
        brackets[p] = hits
        medians[p] = float(np.median(queries))
    ratio = medians[0.05] / medians[0.4]
    elapsed = time.monotonic() - t0
    ok = all(h >= 95 for h in brackets.values()) and 3.0 <= ratio <= 10.0 and elapsed < 30.0
    report("5 bias-doubling", ok,
           f"brackets/100={brackets} query-ratio p=.05/.4 = {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_06_smoothed_noise_transfer():
    eps = 0.01
    p = 10 * eps
    t = threshold_for_bias(p)
    rho = min(1.0 / t, 1.0)
    rng = substream(0, "accept-6-target")
    d = 8
    target = Halfspace(unit_vector(rng, d), t)
    oracle = MembershipOracle(RandomFlip(target, eps), seed=0)
    bound = 5.0 * eps / p
    good = 0
    draws = 0
    while draws < 200:
        X = oracle.gaussian_points(256)
        y = oracle.query_batch(X)
        for x0 in X[y == -1]:
            if draws >= 200:
                break
            draws += 1
            Z = oracle.gaussian_points(400)
            labels = smoothed_query_batch(oracle, x0, rho, Z)
            clean = np.asarray(smoothed_halfspace(target, x0, rho)(Z))
            if float(np.mean(labels != clean)) <= bound:
                good += 1
    report("6 smoothed-noise-transfer", good >= 90,
           f"{good}/200 draws with smoothed noise <= {bound}")


def test_criterion_07_refinement_contraction():
    t0 = time.monotonic()
    d, t_star, sigma0, eps = 10, 1.0, 0.5, 0.01
    cfg = RefineConfig()
    invariant_hits = error_hits = 0
    for seed in range(100):
        oracle = clean_oracle(t_star, d, seed)
        view = WhiteBoxView(oracle.source)
        rng = substream(seed, "accept-7-w0")
        w0 = rotated_from(oracle.source.target.w, 2.0 * math.asin(0.45), rng)
        sigma_final = min(sigma0, eps * math.exp(t_star ** 2 / 2.0))
        total = planned_rounds(sigma0, sigma_final, cfg.c2)
        # start at the midpoint of the bracket [0, t*], where the entry
        # search makes its first probe: no ground truth enters the offset
        state = RefineState(w=w0, sigma=sigma0, round=0, t_cf=0.5 * t_star)
        invariant = view.half_angle_sine(state.w) <= state.sigma
        for _ in range(total):
            state = refine_round(oracle, state, t_star, cfg, 0.1, total)
            invariant = invariant and view.half_angle_sine(state.w) <= state.sigma
        invariant_hits += int(invariant)
        err = view.true_error(Halfspace(state.w, state.t_cf), seed=seed)
        error_hits += int(err <= 5.0 * eps)
    elapsed = time.monotonic() - t0
    ok = invariant_hits >= 90 and error_hits >= 90 and elapsed < 120.0
    report("7 refinement-contraction", ok,
           f"invariant {invariant_hits}/100, error<=5eps {error_hits}/100, {elapsed:.1f}s")


def test_criterion_08_angle_test():
    t, b_star, d = 8.0, 0.25, 4
    assert b_star >= 1.5 / t  # stated regime
    votes = {}
    for b in (b_star, b_star / 8.0):
        yes = 0
        for seed in range(100):
            rng = substream(seed, "accept-8")
            oracle = clean_oracle(t, d, seed)
            w = rotated_from(oracle.source.target.w, math.asin(b_star), rng)
            yes += int(angle_test(oracle, w, t, b, delta=0.1, rng=rng))
        votes[b] = yes
    ok = votes[b_star] >= 95 and (100 - votes[b_star / 8.0]) >= 95
    report("8 angle-test", ok,
           f"yes at b*: {votes[b_star]}/100, no at b*/8: {100 - votes[b_star / 8.0]}/100")


# band half-width with Phi(-1 + band) - Phi(-1 - band) = 0.01 = eps / 2
# (30-digit reference computation)
_BAND_OPT_HALF_EPS = 0.0206636568333965


def test_criterion_09_end_to_end_learner():
    t0 = time.monotonic()
    cfg = LearnerConfig(epsilon=0.02, delta=0.1, restarts_per_gridpoint=1)

    clean_hits = 0
    for seed in range(20):
        rep = learn(clean_oracle(1.0, 20, seed), cfg)
        clean_hits += int(rep.err_estimate <= 0.1)

    band_hits = 0
    for seed in range(20):
        rng = substream(seed, "accept-target")
        src = BoundaryBand(Halfspace(unit_vector(rng, 10), 1.0), _BAND_OPT_HALF_EPS)
        rep = learn(MembershipOracle(src, seed), cfg)
        band_hits += int(rep.err_estimate <= 20 * cfg.epsilon)

    constant_ok = all(
        learn(clean_oracle(3.5, 10, seed), LearnerConfig(epsilon=0.05, restarts_per_gridpoint=1)).verdict
        == "constant_plus_one"
        for seed in range(3)
    )
    elapsed = time.monotonic() - t0
    ok = clean_hits >= 18 and band_hits >= 17 and constant_ok and elapsed < 600.0
    report("9 end-to-end-learner", ok,
           f"clean {clean_hits}/20, band {band_hits}/20, constant verdict {constant_ok}, {elapsed:.0f}s")


def test_criterion_10_query_scaling():
    cfg = LearnerConfig(epsilon=0.02, delta=0.1, restarts_per_gridpoint=1)
    dims = (5, 10, 20, 40)
    med = {}
    for d in dims:
        med[d] = float(np.median([
            learn(clean_oracle(1.0, d, seed), cfg).total_queries for seed in range(5)
        ]))
    A = np.vstack([dims, np.ones(len(dims))]).T
    y = np.array([med[d] for d in dims])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.max(np.abs(A @ coef - y) / y))

    cfg_p = LearnerConfig(epsilon=0.005, delta=0.1, restarts_per_gridpoint=1)
    scaled = {}
    for p in (0.2, 0.1, 0.05):
        t = threshold_for_bias(p)
        q = float(np.median([
            learn(clean_oracle(t, 5, seed), cfg_p).queries_bias for seed in range(5)
        ]))
        scaled[p] = q * p
    spread = max(scaled.values()) / min(scaled.values())
    ok = resid <= 0.25 and spread <= 2.5
    report("10 query-scaling", ok,
           f"d-fit residual {resid:.3f} <= 0.25, bias-query*p spread {spread:.2f} <= 2.5")


def test_criterion_11_small_class_oracle():
    cfg = LearnerConfig(
        epsilon=0.001,
        delta=0.1,
        restarts_per_gridpoint=1,
        refine=RefineConfig(c_stop=10.0, grad_samples_multiplier=10.0),
    )
    ratios, errs = [], []
    for seed in (0, 1):
        base = learn(clean_oracle(2.5, 20, seed), cfg)
        oracle = clean_oracle(2.5, 20, seed)
        sc = SmallClassOracle(oracle.source, seed + 7777)
        aided = learn(oracle, cfg, small_class=sc)
        ratios.append(base.total_queries / max(1, aided.total_queries))
        errs.extend([base.err_estimate, aided.err_estimate])
    ok = min(ratios) >= 2.0 and max(errs) <= 0.1
    report("11 small-class-oracle", ok,
           f"ledger ratios {[f'{r:.1f}' for r in ratios]} >= 2, max err {max(errs):.4f} <= 0.1")


def test_criterion_12a_near_isometry():
    d, m, k, tuples = 200, 2000, 10, 500
    hits = 0
    stats = []
    for seed in range(100):
        rng = substream(seed, "accept-12a")
        points = rng.standard_normal((m, d))
        stat = near_isometry_stat(points, k, tuples, rng)
        stats.append(stat)
        hits += int(stat <= 0.5)
    report("12a near-isometry", hits >= 95,
           f"stat<=0.5 in {hits}/100 seeds; observed min/median/max = "
           f"{min(stats):.3f}/{float(np.median(stats)):.3f}/{max(stats):.3f}")


def test_criterion_12b_negative_capture():
    d, t_star, trials = 200, 1.0, 100_000
    rng = substream(0, "accept-12b")
    x = np.zeros(d)
    x[0] = math.sqrt(d)
    prob = negative_capture_prob(x[None, :], t_star, trials, rng)
    p = halfspace_bias(t_star)
    se = math.sqrt(p * (1 - p) / trials)
    ok = abs(prob - p) <= 3.0 * se
    report("12b negative-capture", ok, f"|{prob:.5f} - {p:.5f}| <= 3*SE = {3 * se:.5f}")


def test_criterion_12c_random_order_game():
    p = 0.05
    t = threshold_for_bias(p)
    costs = []
    for seed in range(200):
        rng = substream(seed, "accept-12c")
        pool = Pool(rng.standard_normal((2000, 10)), Halfspace(unit_vector(rng, 10), t))
        found, used = play_query_game(pool, RandomOrder(rng), 1, budget=2000)
        assert found == 1
        costs.append(used)
    median = float(np.median(costs))
    ok = 0.5 / p <= median <= 2.0 / p
    report("12c random-order-game", ok, f"median queries {median} within 2x of 1/p = {1 / p:.0f}")


def test_criterion_13_tournament():
    errors = (0.01, 0.05, 0.1, 0.2, 0.4)
    eps = 0.02
    hits = 0
    worst = 0.0
    for seed in range(100):
        rng = substream(seed, "accept-13")
        d = 8
        w_star = unit_vector(rng, d)
        # at t = 0, a rotation by angle pi * e has true error exactly e
        cands = [Halfspace(rotated_from(w_star, math.pi * e, rng), 0.0) for e in errors]
        oracle = MembershipOracle(CleanLabels(Halfspace(w_star, 0.0)), seed)
        winner = tournament(cands, oracle, eps, 0.1)
        err = math.acos(float(np.clip(np.dot(winner.w, w_star), -1, 1))) / math.pi
        worst = max(worst, err)
        hits += int(err <= 0.1 + eps)
    report("13 tournament", hits >= 99, f"{hits}/100 winners with error <= 0.12, worst {worst:.3f}")


def test_criterion_14_determinism(tmp_path):
    scenarios = {
        "learn": ["--mode", "learn", "--dim", "5", "--tstar", "1.0", "--epsilon", "0.05",
                  "--seed", "3", "--set", "restarts_per_gridpoint=1"],
        "lowerbound": ["--mode", "lowerbound", "--dim", "40", "--tstar", "1.0", "--seed", "1",
                       "--set", "m=200", "--set", "tuples=20", "--set", "trials=2000"],
    }
    mismatches = []
    for name, args in scenarios.items():
        a, b = tmp_path / f"{name}-a.csv", tmp_path / f"{name}-b.csv"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            mismatches.append(name)
    report("14 determinism", not mismatches, f"byte-identical reruns; mismatches={mismatches}")
