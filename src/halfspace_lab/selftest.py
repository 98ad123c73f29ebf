"""Smoke run of the package's two compute modes.

One seeded check per mode: a small ``learn`` and a pool query game, each
run twice so a rerun that drifts fails too.  The learn runs twice over:
on clean labels, whose Gaussian queries take the oracle's span channel,
and on a source with no margin law, which takes its general channel.  It
finishes in well under a second, so it can gate CLI usage and CI smoke
runs; the property and statistical checks live in the test suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .geometry import Halfspace, threshold_for_bias
from .learner import LearnerConfig, learn
from .lowerbound import Pool, RandomOrder, play_query_game
from .oracles import CleanLabels, MembershipOracle, RegionFlip
from .rng import substream

__all__ = ["run_selftest", "CHECKS"]


_TARGET = Halfspace(np.array([0.6, 0.0, 0.8]), 0.5)


def _check_learn(source=CleanLabels(_TARGET)) -> None:
    cfg = LearnerConfig(epsilon=0.05, restarts_per_gridpoint=1)

    def run():
        oracle = MembershipOracle(source, seed=1)
        r = learn(oracle, cfg)
        assert r.verdict == "learned" and r.err_estimate <= cfg.epsilon, (r.verdict, r.err_estimate)
        stages = r.queries_bias + r.queries_init + r.queries_refine + r.queries_tournament
        assert stages == r.total_queries == oracle.ledger, (stages, r.total_queries, oracle.ledger)
        return r.hypothesis

    h1, h2 = run(), run()
    assert np.array_equal(h1.w, h2.w) and h1.t == h2.t, "rerun gave another hypothesis"


def _check_query_game() -> None:
    def run():
        rng = substream(0, "selftest-game")
        pool = Pool(rng.standard_normal((400, 5)), Halfspace(np.eye(5)[0], threshold_for_bias(0.2)))
        found, used = play_query_game(pool, RandomOrder(rng), target_negatives=3, budget=400)
        assert used <= 400 and len(pool.revealed) == used
        assert found <= 3
        return found, used

    assert run() == run(), "rerun revealed other points"


def _check_learn_general_channel() -> None:
    # a region that flips no label: clean labels, but no margin law
    _check_learn(RegionFlip(_TARGET, lambda X: np.zeros(X.shape[0], dtype=bool), 0.0))


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("learn", _check_learn),
    ("learn-general-channel", _check_learn_general_channel),
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
