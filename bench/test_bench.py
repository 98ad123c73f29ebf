"""Tests of the benchmark itself: its correctness references against Monte
Carlo estimates, its tracer, and a smoke run of every workload.

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from reference import bivariate_normal_cdf, disagreement, negative_mask, single_point_capture  # noqa: E402


def _unit(rng, d):
    w = rng.standard_normal(d)
    return w / np.linalg.norm(w)


def _tilted(w, angle, rng):
    r = rng.standard_normal(w.shape[0])
    r -= np.dot(r, w) * w
    r /= np.linalg.norm(r)
    return math.cos(angle) * w + math.sin(angle) * r


@pytest.mark.parametrize(
    "angle, t1, t2",
    [
        (0.3, 1.0, 1.0),
        (1.2, 0.5, -0.7),
        (math.pi / 2, 0.0, 0.0),
        (2.5, 1.5, 0.2),
        (0.05, 2.5, 2.4),
        (0.0, 1.0, 0.6),
        (math.pi, 0.3, 0.3),
        (0.7, 0.0, 1.1),
    ],
)
def test_disagreement_matches_monte_carlo(angle, t1, t2):
    rng = np.random.default_rng([7, int(1000 * angle), int(100 * t1) + 500, int(100 * t2) + 500])
    d, n = 6, 400_000
    w1 = _unit(rng, d)
    w2 = _tilted(w1, angle, rng)
    X = rng.standard_normal((n, d))
    mc = float(np.mean((X @ w1 + t1 >= 0) != (X @ w2 + t2 >= 0)))
    exact = disagreement(w1, t1, w2, t2)
    se = math.sqrt(max(exact * (1 - exact), 1e-6) / n)
    assert abs(mc - exact) <= 4 * se, (mc, exact, se)


def test_disagreement_closed_cases():
    rng = np.random.default_rng(1)
    w = _unit(rng, 5)
    for angle in (0.1, 1.0, 2.0, math.pi):
        assert disagreement(w, 0.0, _tilted(w, angle, rng), 0.0) == pytest.approx(angle / math.pi, abs=1e-12)
    assert disagreement(w, 0.4, w, 0.4) == pytest.approx(0.0, abs=1e-15)
    # same direction: the slab between the two thresholds
    assert disagreement(w, 0.4, w, 1.3) == pytest.approx(ndtr(-0.4) - ndtr(-1.3), abs=1e-14)
    assert disagreement(w, 0.4, -w, -0.4) == pytest.approx(1.0, abs=1e-14)
    # scaling (w, t) together leaves the halfspace unchanged
    v = _tilted(w, 0.8, rng)
    assert disagreement(3 * w, 1.5, v, 0.2) == pytest.approx(disagreement(w, 0.5, v, 0.2), abs=1e-14)


def test_disagreement_keeps_digits_at_tiny_angles():
    # two boundaries at distance t from the origin, tilted by a small angle,
    # enclose mass angle * E|z| * phi(t) = angle * exp(-t^2 / 2) / pi
    rng = np.random.default_rng(2)
    w = _unit(rng, 20)
    t = 1.0
    for angle in (1e-3, 1e-6):
        got = disagreement(w, t, _tilted(w, angle, rng), t)
        assert got == pytest.approx(angle * math.exp(-t * t / 2) / math.pi, rel=1e-4)


def test_bivariate_cdf_symmetry_and_limits():
    for h, k, rho in ((0.3, -1.2, 0.4), (-0.5, -0.5, -0.9), (1.0, 0.0, 0.6), (0.0, -0.7, -0.2)):
        assert bivariate_normal_cdf(h, k, rho) == pytest.approx(bivariate_normal_cdf(k, h, rho), abs=1e-14)
    assert bivariate_normal_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25)
    assert bivariate_normal_cdf(0.0, 0.0, 0.5) == pytest.approx(1 / 3)
    assert bivariate_normal_cdf(0.8, -0.3, 0.0) == pytest.approx(ndtr(0.8) * ndtr(-0.3), abs=1e-14)


@pytest.mark.parametrize("d, norm, t", [(200, math.sqrt(200), 1.0), (10, 2.0, 0.5), (3, 1.0, -0.4), (50, 8.0, 3.0)])
def test_capture_matches_monte_carlo(d, norm, t):
    rng = np.random.default_rng([11, d])
    x = _unit(rng, d) * norm
    n = 400_000
    W = rng.standard_normal((n, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    mc = float(np.mean(W @ x + t < 0))
    p = single_point_capture(x, t)
    se = math.sqrt(max(p * (1 - p), 1e-6) / n)
    assert abs(mc - p) <= 4 * se, (mc, p, se)


def test_capture_edges():
    x = np.array([3.0, 4.0, 0.0])
    assert single_point_capture(x, 5.0) == 0.0
    assert single_point_capture(x, -5.0) == 1.0
    assert single_point_capture(x, 0.0) == pytest.approx(0.5)


def test_negative_mask_ties_are_positive():
    points = np.array([[1.0, 0.0], [-1.0, 0.0], [-2.0, 5.0]])
    assert negative_mask(points, np.array([1.0, 0.0]), 1.0).tolist() == [False, False, True]


def test_tracer_restores_what_it_replaced():
    import halfspace_lab.learner as learner
    from halfspace_lab.oracles import CleanLabels, MembershipOracle
    from tracing import Tracer

    before = (learner.refine, MembershipOracle.__dict__["query_batch"], CleanLabels.__dict__["sample_labels"])
    with Tracer().installed():
        assert learner.refine is not before[0]
    assert (learner.refine, MembershipOracle.__dict__["query_batch"], CleanLabels.__dict__["sample_labels"]) == before


def test_layer_metrics_self_time_and_counts():
    from tracing import layer_metrics

    # span: name, start, end, parent, rows, queries, error
    spans = [
        ["learner.learn", 0.0, 10.0, -1, 0, 40, None],
        ["initialization.init", 0.0, 1.0, 0, 0, 5, None],
        ["refinement.refine", 1.0, 9.0, 0, 0, 35, None],
        ["refinement.refine_round", 1.0, 8.0, 2, 0, 30, None],
        ["refinement.search_offset", 1.0, 3.0, 3, 0, 12, None],
        ["estimation.window_check", 1.0, 2.0, 4, 12, 12, None],
        ["oracles.query_batch", 4.0, 6.0, 3, 18, 18, None],
        ["initialization.init", 9.0, 9.5, 0, 0, 0, "InitFailure"],
    ]
    # the same round recorded after 3 earlier spans: parents are absolute
    shifted = [[f"x{i}", 0.0, 0.0, -1, 0, 0, None] for i in range(3)]
    shifted += [s[:3] + [s[3] + 3 if s[3] >= 0 else -1] + s[4:] for s in spans]
    for got in (layer_metrics(spans), layer_metrics(shifted, 3)):
        assert got["refinement.refine.self_s"] == pytest.approx(1.0)
        assert got["refinement.search_offset.probes"] == 1
        assert got["refinement.refine_round.queries"] == 18
        assert got["refinement.refine.rounds"] == 1
        assert got["initialization.init.attempts"] == 2
        assert got["initialization.init.failures"] == 1
        assert got["learner.attempt_yield"] == pytest.approx(0.5)
        assert got["oracles.query_batch.rows"] == 18


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_smoke_run_reports_every_metric(tmp_path, workload, trace):
    proc = _run(tmp_path, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_queries_repeat_per_seed(tmp_path):
    def queries(seed):
        proc = _run(tmp_path, "--workload", "pool-lowerbound", "--seed", str(seed), "--seconds", "1", "--trace", "0", "--smoke")
        return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["queries"]["value"]

    assert queries(5) == queries(5)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(
        tmp_path, "--workload", "learn-refine", "--seed", "0", "--seconds", "1", "--trace", "0",
        script=tmp_path / "bench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
