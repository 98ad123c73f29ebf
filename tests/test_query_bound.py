"""The paper's query bound in eps, as measured.

A learn costs about min(1/p, 1/eps) + d polylog(1/eps) membership
queries.  Criterion 10 checks the d term and the 1/p term; this file
checks how the cost grows with 1/eps, which is the paper's separation
from passive learning (about d/eps labels).

- Clean labels at t* = 1 (p = 0.159), d in {10, 20}: over a 32x range
  of 1/eps the median queries must grow additively in ln(1/eps), and
  every learn must reach an exact error of at most eps.
- Clean labels at p = eps/4, d = 10: the learner takes the 1/eps branch
  and answers the constant +1, at a cost of a constant times 1/eps.

Targets come from ``substream(seed, "eps-target")``, the oracle seed is
the seed, and errors are exact (``geometry.disagreement_mass``).  The
README records the measured table next to the bars below.
"""

import statistics

import numpy as np
import pytest

from halfspace_lab.geometry import Halfspace, disagreement_mass, threshold_for_bias
from halfspace_lab.learner import LearnerConfig, learn
from halfspace_lab.oracles import CleanLabels, MembershipOracle
from halfspace_lab.rng import substream

from conftest import unit_vector

EPS = (0.04, 0.02, 0.01, 0.005, 0.0025, 0.00125)
DIMS = (10, 20)
SEEDS = range(5)
T_STAR = 1.0
BRANCH_DIM = 10

# Bars, each chosen from the measured medians:
# queries at eps/32 over queries at eps: 1.79 (d = 10) and 2.16 (d = 20);
# a cost growing as 1/eps would read about 32
MAX_GROWTH = 3.0
# largest relative residual of a least-squares fit of the median queries
# against ln(1/eps): 0.021 (d = 10) and 0.028 (d = 20)
MAX_LOG_RESIDUAL = 0.06
# queries * eps on the p = eps/4 rows, largest over smallest: 1312 / 1158
MAX_BRANCH_SPREAD = 1.25


def run(d, eps, seed, t):
    """(total queries, verdict, exact error) of one learn."""
    target = Halfspace(unit_vector(substream(seed, "eps-target"), d), t)
    report = learn(MembershipOracle(CleanLabels(target), seed), LearnerConfig(epsilon=eps, restarts_per_gridpoint=1))
    return report.total_queries, report.verdict, disagreement_mass(target, report.hypothesis)


@pytest.fixture(scope="module")
def grid():
    return {(d, eps, seed): run(d, eps, seed, T_STAR) for d in DIMS for eps in EPS for seed in SEEDS}


@pytest.fixture(scope="module")
def branch():
    return {(eps, seed): run(BRANCH_DIM, eps, seed, threshold_for_bias(eps / 4)) for eps in EPS for seed in SEEDS}


def test_every_learn_is_within_eps(grid):
    for (d, eps, seed), (_, verdict, err) in grid.items():
        assert verdict == "learned", (d, eps, seed)
        assert err <= eps, (d, eps, seed, err)


@pytest.mark.parametrize("d", DIMS)
def test_queries_grow_as_log_one_over_eps(grid, d):
    queries = np.array([statistics.median(grid[d, eps, seed][0] for seed in SEEDS) for eps in EPS])
    growth = queries[-1] / queries[0]
    assert 1.0 < growth <= MAX_GROWTH, (d, queries)
    A = np.column_stack([np.ones(len(EPS)), np.log(1.0 / np.array(EPS))])
    fit = A @ np.linalg.lstsq(A, queries, rcond=None)[0]
    residual = np.max(np.abs(fit - queries) / queries)
    assert residual <= MAX_LOG_RESIDUAL, (d, queries, residual)


def test_small_class_costs_one_over_eps(branch):
    # at p = eps/4 the bias ladder finds the class small, and the constant
    # +1, whose error is p, is the answer
    for (eps, seed), (_, verdict, err) in branch.items():
        assert verdict == "constant_plus_one", (eps, seed)
        assert err <= eps, (eps, seed, err)
    scaled = [statistics.median(branch[eps, seed][0] for seed in SEEDS) * eps for eps in EPS]
    assert max(scaled) / min(scaled) <= MAX_BRANCH_SPREAD, scaled
