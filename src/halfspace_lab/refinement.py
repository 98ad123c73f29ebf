"""Localization-driven projected gradient descent on the sphere.

Each round localizes the query distribution around the current
direction w at scale sigma, binary-searches the localization offset
until the localized negative-label rate sits near 1/2 (where the
gradient signal is strongest), estimates the projected Chow vector of
the localized concept, and takes a projected gradient step.  sigma is a
certified upper bound on sin(theta/2) to the target direction and
contracts by a fixed factor per round.  One descent serves every
threshold of the learner's grid: each grid point's offset is searched
once sigma reaches that point's stop scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimation import (
    WindowVerdict,
    empirical_projected_chow,
    probability_window_check,
)
from .geometry import Halfspace
from .oracles import BudgetExceeded, MembershipOracle, localized_query_batch

__all__ = [
    "RefineConfig",
    "RefineState",
    "GridOutcome",
    "OffsetNotFound",
    "search_offset",
    "refine_round",
    "refine",
    "planned_rounds",
    "entry_scale",
]


class OffsetNotFound(RuntimeError):
    """No localization offset put the negative rate inside the bias window.

    Signals that sigma undershoots the actual angle, the threshold range
    is wrong, or noise swamps the window.  The grid point being resolved
    then yields no hypothesis.
    """


# bisection steers the localized negative rate into this band, where
# the gradient signal is strongest
BIAS_WINDOW = (0.25, 0.75)
# a collapsed bracket is still accepted if the rate lies in here
# (the band can be unreachable inside [0, t'] in early rounds)
VALIDITY_WINDOW = (0.02, 0.98)
MAX_BISECTION_STEPS = 60
# bisection stops refining the bracket below this fraction of sigma
RESOLUTION_FACTOR = 0.25


@dataclass(frozen=True)
class RefineConfig:
    # per-round step size mu = sigma / c1 and contraction sigma' = (1 - 1/c2) sigma;
    # c2 sized so the worst-case per-round angle decrease (gradient norm
    # bounded by the in-window Chow length) still beats 1/c2
    c1: float = 8.01
    c2: float = 40.0
    # stop once sigma <= c_stop * epsilon * exp(t'^2 / 2)
    c_stop: float = 1.0
    grad_samples_multiplier: float = 40.0

    def __post_init__(self):
        for name in ("c1", "c2", "c_stop", "grad_samples_multiplier"):
            value = getattr(self, name)
            if not is_finite_positive(value):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if not (self.c1 > 8 and self.c2 > 8):
            raise ValueError("c1 and c2 must exceed 8")


def is_finite_positive(value) -> bool:
    """Whether value is a real number (not a bool), finite and > 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class RefineState:
    w: np.ndarray
    sigma: float
    round: int
    accepted_offset: float
    ledger_start: int


def planned_rounds(sigma0: float, sigma_final: float, c2: float) -> int:
    if sigma_final >= sigma0:
        return 0
    return math.ceil(math.log(sigma0 / sigma_final) / -math.log1p(-1.0 / c2))


def search_offset(
    oracle: MembershipOracle,
    w: np.ndarray,
    sigma: float,
    t_prime: float,
    delta: float,
) -> float:
    """Find an offset whose localized negative-label rate is in-window.

    The localized negative rate is monotone increasing in the offset, so
    bisection over [0, t'] converges: a probe whose empirical rate falls
    below the window center raises the lower bracket, above lowers the
    upper one.  Accepts on an in-window verdict; fails once the bracket
    shrinks below a quarter of sigma without one.
    """
    if not (0.0 < sigma <= 0.5):
        raise ValueError("sigma must lie in (0, 1/2]")
    if t_prime < 0:
        raise ValueError("t_prime must be non-negative")
    delta_probe = delta / MAX_BISECTION_STEPS
    lo_t, hi_t = 0.0, t_prime
    resolution = RESOLUTION_FACTOR * sigma
    val_lo, val_hi = VALIDITY_WINDOW
    for _ in range(MAX_BISECTION_STEPS):
        mid = 0.5 * (lo_t + hi_t)

        def sample(n: int, offset: float = mid) -> np.ndarray:
            return localized_query_batch(
                oracle, w, offset, sigma, oracle.gaussian_points(n)
            )

        result = probability_window_check(sample, BIAS_WINDOW, delta_probe)
        if result.verdict == WindowVerdict.IN_WINDOW:
            return mid
        if hi_t - lo_t < resolution:
            # the target band is unreachable inside [0, t']; settle for
            # any offset whose rate is at least clearly non-degenerate
            if val_lo < result.p_emp < val_hi:
                return mid
            break
        if result.side(*BIAS_WINDOW) == "low":
            lo_t = mid
        else:
            hi_t = mid
    raise OffsetNotFound(
        f"no in-window offset in [0, {t_prime}] at sigma {sigma:.4g}"
    )


def gradient_sample_size(dim: int, total_rounds: int, cfg: RefineConfig, delta: float) -> int:
    return math.ceil(
        cfg.grad_samples_multiplier * dim * math.log(dim * (total_rounds + 1) / delta)
    )


def refine_round(
    oracle: MembershipOracle,
    state: RefineState,
    t_prime: float,
    cfg: RefineConfig,
    delta: float,
    total_rounds: int,
) -> RefineState:
    """One localize / re-center / gradient-step round."""
    t_tilde = search_offset(oracle, state.w, state.sigma, t_prime, delta)
    m = gradient_sample_size(state.w.shape[0], total_rounds, cfg, delta)
    Z = oracle.gaussian_points(m)
    g = empirical_projected_chow(
        lambda pts: localized_query_batch(oracle, state.w, t_tilde, state.sigma, pts),
        Z,
        exclude=state.w,
    )
    stepped = state.w + (state.sigma / cfg.c1) * g
    w_next = stepped / np.linalg.norm(stepped)
    return replace(
        state,
        w=w_next,
        sigma=(1.0 - 1.0 / cfg.c2) * state.sigma,
        round=state.round + 1,
        accepted_offset=t_tilde,
    )


def entry_scale(t_prime: float) -> float:
    """min(1/t', 1/2): the angle bound a warm start at threshold t' is
    expected to meet, and the scale a descent starts from."""
    return min(1.0 / t_prime, 0.5) if t_prime > 0 else 0.5


@dataclass(frozen=True)
class GridOutcome:
    """How a descent resolved one grid threshold t': the scale and round
    at which it ran ``search_offset``, and the hypothesis that search
    gave, or None when it raised ``OffsetNotFound``."""

    t_prime: float
    sigma: float
    round: int
    hypothesis: Halfspace | None


def refine(
    oracle: MembershipOracle,
    w0: np.ndarray,
    grid: list[float],
    epsilon: float,
    delta: float,
    cfg: RefineConfig | None = None,
    sigma0: float | None = None,
) -> tuple[list[GridOutcome], RefineState]:
    """One descent from w0 that resolves every grid threshold.

    Grid point t_j stops at sigma_j = min(sigma0, c_stop eps exp(t_j^2 / 2)).
    The rounds localize with the offset bracket [0, t_top], t_top =
    max(grid), from sigma0 (default min(1/t_top, 1/2)) down to the
    smallest sigma_j.  Once the descent has run t_j's planned rounds
    (largest sigma_j first), ``search_offset`` at (w, sigma, t_j) gives
    t_j's hypothesis.  A round whose own offset search fails ends the
    descent, and every grid point not yet resolved fails with it.

    The oracle refusing a query (BudgetExceeded) also ends the descent:
    it returns the outcomes resolved so far, in resolution order, and
    the state after its last complete round.
    """
    cfg = cfg or RefineConfig()
    t_top = max(grid)
    if sigma0 is None:
        sigma0 = entry_scale(t_top)
    # (rounds before t_j is resolved, t_j), in the order they fall due
    due = [
        (planned_rounds(sigma0, cfg.c_stop * epsilon * math.exp(t * t / 2.0), cfg.c2), t)
        for t in sorted(grid, key=abs, reverse=True)
    ]
    total = due[-1][0]
    state = RefineState(
        w=np.asarray(w0, dtype=float),
        sigma=sigma0,
        round=0,
        accepted_offset=math.nan,
        ledger_start=oracle.ledger,
    )
    outcomes: list[GridOutcome] = []
    try:
        for rounds, t_j in due:
            while state.round < rounds:
                try:
                    state = refine_round(oracle, state, t_top, cfg, delta, total)
                except OffsetNotFound:
                    outcomes += [
                        GridOutcome(t, state.sigma, state.round, None) for _, t in due[len(outcomes):]
                    ]
                    return outcomes, state
            try:
                t_hat = search_offset(oracle, state.w, state.sigma, t_j, delta)
                h = Halfspace(state.w, t_hat)
            except OffsetNotFound:
                h = None
            outcomes.append(GridOutcome(t_j, state.sigma, state.round, h))
    except BudgetExceeded:
        pass
    return outcomes, state
