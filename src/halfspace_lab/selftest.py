"""Fast self-contained property suite for the whole package.

Each check is a small, seeded sanity run of one subsystem; the suite is
sized to finish in a few seconds so it can gate CLI usage and CI smoke
runs.  The heavyweight statistical acceptance runs live in the test
suite, not here.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .estimation import estimate_bias_doubling, probability_window_check
from .geometry import (
    Halfspace,
    chow_vector,
    decompose,
    halfspace_bias,
    komatsu_bounds,
    localize_halfspace,
    smoothed_halfspace,
    sqrt_localization_apply,
    threshold_for_bias,
)
from .lowerbound import Pool, RandomOrder, play_query_game
from .oracles import CleanLabels, MembershipOracle, RandomFlip, SmallClassOracle
from .rng import substream

__all__ = ["run_selftest", "CHECKS"]


def _check_bias_roundtrip() -> None:
    for p in (0.4, 0.1, 0.01, 1e-6):
        t = threshold_for_bias(p)
        assert abs(halfspace_bias(t) - p) < 1e-6 * p + 1e-12, (p, t)


def _check_komatsu() -> None:
    for t in np.linspace(0.0, 8.0, 33):
        lo, hi = komatsu_bounds(float(t))
        p = halfspace_bias(float(t))
        assert lo < p < hi or t == 0.0 and lo <= p <= hi, (t, lo, p, hi)


def _check_localize_transform() -> None:
    rng = substream(0, "selftest-localize")
    for _ in range(200):
        d = int(rng.integers(2, 6))
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        t = float(rng.uniform(-1, 2))
        s = float(rng.uniform(-1, 2))
        sigma = float(rng.uniform(0.05, 0.95))
        h = Halfspace(w, t)
        g = localize_halfspace(h, v, s, sigma)
        Z = rng.standard_normal((32, d))
        X = sqrt_localization_apply(v, sigma, Z) - s * v
        assert np.array_equal(h(X), g(Z)), "localized labels disagree"


def _check_smoothed_transform() -> None:
    rng = substream(0, "selftest-smooth")
    for _ in range(200):
        d = int(rng.integers(2, 6))
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        x0 = rng.standard_normal(d)
        rho = float(rng.uniform(0.05, 1.0))
        t = float(rng.uniform(-1, 2))
        h = Halfspace(w, t)
        g = smoothed_halfspace(h, x0, rho)
        Z = rng.standard_normal((32, d))
        X = math.sqrt(1.0 - rho * rho) * x0 + rho * Z
        assert np.array_equal(h(X), g(Z)), "smoothed labels disagree"


def _check_chow_mc() -> None:
    rng = substream(0, "selftest-chow")
    d, m, t = 6, 40_000, 0.5
    w = np.zeros(d)
    w[0] = 1.0
    h = Halfspace(w, t)
    Z = rng.standard_normal((m, d))
    emp = Z.T @ np.asarray(h(Z), dtype=float) / m
    assert np.linalg.norm(emp - chow_vector(h)) < 6.0 * math.sqrt(d / m)


def _check_decompose() -> None:
    rng = substream(0, "selftest-decompose")
    for _ in range(100):
        d = int(rng.integers(2, 8))
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        dec = decompose(w, v)
        recon = dec.a * v + dec.b * dec.u
        assert np.linalg.norm(recon - w) < 1e-9
        assert abs(np.dot(dec.u, v)) < 1e-9
        assert dec.b >= 0.0


def _check_ledger_and_determinism() -> None:
    w = np.zeros(4)
    w[0] = 1.0
    src = CleanLabels(Halfspace(w, 0.5))

    def run():
        o = MembershipOracle(src, seed=11)
        X = o.gaussian_points(500)
        y = o.query_batch(X)
        return o.ledger, X, y

    l1, X1, y1 = run()
    l2, X2, y2 = run()
    assert l1 == l2 == 500
    assert np.array_equal(X1, X2) and np.array_equal(y1, y2)


def _check_bias_ladder() -> None:
    w = np.zeros(3)
    w[0] = 1.0
    o = MembershipOracle(CleanLabels(Halfspace(w, threshold_for_bias(0.3))), seed=5)
    est = estimate_bias_doubling(o, epsilon=0.01, delta=0.2)
    assert est.verdict == "bracket"
    assert est.p_hat <= 0.3 <= 4.0 * est.p_hat, est
    assert o.ledger == est.queries_used


def _check_window_check() -> None:
    rng = substream(0, "selftest-window")

    def bern(p):
        return lambda n: np.where(rng.random(n) < p, -1, 1)

    assert probability_window_check(bern(0.5), (0.3, 0.7), 0.05).verdict == "in_window"
    assert probability_window_check(bern(0.05), (0.3, 0.7), 0.05).verdict == "outside"


def _check_small_class() -> None:
    w = np.zeros(3)
    w[0] = 1.0
    src = CleanLabels(Halfspace(w, threshold_for_bias(0.05)))
    sc = SmallClassOracle(src, seed=2)
    X = sc.draw_batch(200)
    assert np.all(src.sample_labels(X, substream(0, "x")) == -1)
    assert sc.draws == 200
    # flipped labels: the share of draws on the positive side of the
    # margin is eta (1 - p) / (eta (1 - p) + (1 - eta) p)
    eta, p, n = 0.2, 0.05, 2000
    src = RandomFlip(Halfspace(w, threshold_for_bias(p)), eta)
    X = SmallClassOracle(src, seed=3).draw_batch(n)
    q = eta * (1 - p) / (eta * (1 - p) + (1 - eta) * p)
    share = float(np.mean(src.target.margins(X) >= 0))
    assert abs(share - q) <= 4 * math.sqrt(q * (1 - q) / n), (share, q)


def _check_query_game() -> None:
    rng = substream(0, "selftest-game")
    d = 5
    w = np.zeros(d)
    w[0] = 1.0
    pts = rng.standard_normal((400, d))
    pool = Pool(pts, Halfspace(w, threshold_for_bias(0.2)))
    found, used = play_query_game(pool, RandomOrder(rng), target_negatives=3, budget=400)
    assert used <= 400 and len(pool.revealed) == used
    assert found <= 3


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("bias-roundtrip", _check_bias_roundtrip),
    ("komatsu-sandwich", _check_komatsu),
    ("localize-transform", _check_localize_transform),
    ("smoothed-transform", _check_smoothed_transform),
    ("chow-monte-carlo", _check_chow_mc),
    ("angle-decompose", _check_decompose),
    ("ledger-determinism", _check_ledger_and_determinism),
    ("bias-ladder", _check_bias_ladder),
    ("window-check", _check_window_check),
    ("small-class-sampler", _check_small_class),
    ("query-game", _check_query_game),
]


def run_selftest(report: Callable[[str], None] = print) -> bool:
    """Run every check; report one PASS/FAIL line each; True iff all pass."""
    ok = True
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - any failure fails the check
            ok = False
            report(f"FAIL {name}: {exc!r}")
        else:
            report(f"PASS {name}")
    report(f"selftest: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    return ok
