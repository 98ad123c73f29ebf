"""Localization-driven projected gradient descent on the sphere.

Each round localizes the query distribution around the current
direction w at scale sigma and at an offset where the localized
negative-label rate should sit near 1/2 (where the gradient signal is
strongest), estimates the projected Chow vector of the localized
concept, and takes a projected gradient step.  sigma is an upper bound
on sin(theta/2) to the target direction.  Each round certifies how far
it may fall from the ratio of the Chow estimate's components across and
along w, which it already pays for; a round whose certificate is too
weak contracts by the fixed factor 1 - 1/c2.  One closed form moves
the offset: from labels at offset t~ with negative share p^,
t~ - sigma Phi^{-1}(p^) estimates t*.  The entry search steps by it
until a probe reads in-window; each round reads the next offset off its
own Chow labels at no query, and a round whose share left the bias
window ends the descent.  A descent stops at the scale that offset
calls for, and its hypothesis takes the last round's offset.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import ndtri

from .estimation import probability_window_check
from .geometry import Halfspace
from .oracles import BudgetExceeded, GaussianLaw, MembershipOracle

# the benchmark's span tracer patches these names; nothing here calls them
from .estimation import empirical_projected_chow  # noqa: F401
from .oracles import localized_query_batch  # noqa: F401

__all__ = [
    "RefineConfig",
    "RefineState",
    "check_fields",
    "OffsetNotFound",
    "EntryRejected",
    "closed_form_offset",
    "search_offset",
    "certified_sine",
    "refine_round",
    "refine",
    "planned_rounds",
    "entry_scale",
]


class EntryRejected(RuntimeError):
    """The warm start failed the descent's entry test: no in-window
    offset at sigma0 (``OffsetNotFound``), or a first-round lower
    confidence bound on sin(theta/2) above sigma0.  The caller falls
    back to another warm start."""


class OffsetNotFound(EntryRejected):
    """No localization offset put the negative rate inside the bias window.

    Signals that sigma undershoots the actual angle, the threshold range
    is wrong, or noise swamps the window.
    """


# the entry search steers the localized negative rate into this band,
# where the gradient signal is strongest, and every round's labels must
# keep it there
BIAS_WINDOW = (0.25, 0.75)
# the entry search's probe cap; each probe spends delta / MAX_PROBES
MAX_PROBES = 60
# a round's certificate tolerates labels flipped on any region of mass up
# to epsilon / NOISE_FACTOR, on top of noise that depends on x only
# through the target's margin
NOISE_FACTOR = 16.0
# the next sigma is at most CERTIFICATE_SLACK times the certified bound
CERTIFICATE_SLACK = 2.0
# Bernstein scale for the mean of m copies of (v.z) y, |(v.z) y| = |v.z|:
# its k-th central moment is at most E(|G| + c)^k <= (k!/2) B^(k-2) with
# c = sqrt(2/pi).  k = 3 binds: E(|G| + c)^3 = 5c + 4c^3 = 3 * 2.007
BERNSTEIN_SCALE = 2.01


def check_fields(obj, positive: bool = False) -> None:
    """Check each field of the dataclass ``obj`` against its annotation.

    The value must have a type the annotation allows (a bool is not an
    int, and an int counts as a float) and, if a number, be finite and,
    with ``positive``, > 0.  None passes where the annotation allows it.
    Raises ValueError naming the first bad field.
    """
    hints = typing.get_type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        types = typing.get_args(hints[f.name]) or (hints[f.name],)
        if isinstance(value, bool):
            ok = bool in types
        else:
            ok = isinstance(value, types) or (float in types and isinstance(value, int))
        if not ok:
            expected = " | ".join("None" if t is type(None) else t.__name__ for t in types)
            raise ValueError(f"{f.name} must be {expected}, got {value!r}")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if positive and value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")


@dataclass(frozen=True)
class RefineConfig:
    """A descent's two settings, each finite and positive.  The step and
    contraction constants c1 and c2 are fixed by the analysis."""

    # per-round step size mu = sigma / c1; sigma' = (1 - 1/c2) sigma is the
    # slowest contraction, taken when a round certifies no more.  c2 sized
    # so the worst-case per-round angle decrease (gradient norm bounded by
    # the in-window Chow length) still beats 1/c2; both exceed 8
    c1: typing.ClassVar[float] = 8.01
    c2: typing.ClassVar[float] = 40.0
    # stop once sigma <= c_stop * epsilon * exp(t'^2 / 2)
    c_stop: float = 1.0
    grad_samples_multiplier: float = 10.0

    def __post_init__(self):
        check_fields(self, positive=True)


@dataclass(frozen=True)
class RefineState:
    w: np.ndarray
    sigma: float
    round: int
    # the offset the next round localizes at and a hypothesis from this
    # state takes: the entry search's offset before any round, the last
    # round's closed-form estimate of t* after it (nan before the entry
    # search)
    t_cf: float
    # lower confidence bound on sin(theta/2) of the direction the last
    # round started from (0 before any round)
    angle_floor: float = 0.0
    # negative share of the last round's Chow labels (nan before any round)
    neg_rate: float = math.nan


def planned_rounds(sigma0: float, sigma_final: float, c2: float) -> int:
    if sigma_final >= sigma0:
        return 0
    return math.ceil(math.log(sigma0 / sigma_final) / -math.log1p(-1.0 / c2))


def closed_form_offset(t_tilde: float, sigma: float, p_hat: float, n: int, t_prime: float) -> float:
    """t~ - sigma Phi^{-1}(p^) clamped to [0, t']: from the negative share
    p^ of n labels localized at offset t~, an estimate of t* (see
    ``refine_round``).  p^ is kept 1/(2n) inside (0, 1), so a share of 0
    or 1 takes a finite step, not a jump to a bracket end."""
    p = min(max(p_hat, 0.5 / n), 1.0 - 0.5 / n)
    return min(max(t_tilde - sigma * float(ndtri(p)), 0.0), t_prime)


def search_offset(
    oracle: MembershipOracle,
    w: np.ndarray,
    sigma: float,
    t_prime: float,
    delta: float,
) -> float:
    """Find an offset in [0, t'] with an in-window localized negative rate.

    The first probe is at t'/2.  Each probe is one in/out window check,
    and the search accepts the first probe in the window.  Otherwise it
    moves to the probe's ``closed_form_offset``, the rule every round
    uses.  It fails (OffsetNotFound) when a probe would not move, its
    offset pinned at an end of [0, t'], or after MAX_PROBES probes.  A
    descent runs it once, at entry.
    """
    if not (0.0 < sigma <= 0.5):
        raise ValueError("sigma must lie in (0, 1/2]")
    if t_prime < 0:
        raise ValueError("t_prime must be non-negative")
    delta_probe = delta / MAX_PROBES
    offset = 0.5 * t_prime
    for _ in range(MAX_PROBES):

        def sample(n: int, offset: float = offset) -> np.ndarray:
            return oracle.gaussian_queries(n, GaussianLaw.localized(w, offset, sigma)).labels

        result = probability_window_check(sample, BIAS_WINDOW, delta_probe)
        if result.in_window:
            return offset
        step = closed_form_offset(offset, sigma, result.p_emp, result.samples, t_prime)
        if step == offset:
            break
        offset = step
    raise OffsetNotFound(
        f"no in-window offset in [0, {t_prime}] at sigma {sigma:.4g}"
    )


def gradient_sample_size(dim: int, total_rounds: int, cfg: RefineConfig, delta: float) -> int:
    return math.ceil(
        cfg.grad_samples_multiplier * dim * math.log(dim * (total_rounds + 1) / delta)
    )


def chow_radii(m: int, dim: int, delta: float) -> tuple[float, float]:
    """Confidence radii (r_v, r_perp) of a localized Chow mean g of m draws.

    With w the localization direction, u the unit part of the target
    normal orthogonal to w, and W the other d - 2 directions: each of
    g.w and g.u is a mean of m copies of (v.z) y whose central moments
    obey Bernstein's condition with variance 1 and scale BERNSTEIN_SCALE,
    so P(|g.v - E g.v| > r) <= 2 exp(-m r^2 / (2 (1 + B r))) for any
    +-1 labels, since w and u are fixed directions.  For labels that
    depend on x only through the target's margin, the W part of z is
    independent of the label, so the W part of g is exactly
    N(0, I_{d-2} / m), and by Laurent and Massart (2000)
    P(sqrt(m) ||g_W|| > sqrt(d - 2) + sqrt(2x)) <= exp(-x).  Spending
    delta / 3 on each of the three events, with probability >= 1 - delta

        |g.w - E g.w| <= r_v,  |g.u - E g.u| <= r_v,
        ||g_perp - E g_perp|| <= r_v + r_W = r_perp.

    A bound on E g.u, the across-w part of E g for margin-law labels,
    needs only r_v; a lower bound on ||E g_perp|| pays for all of g_perp,
    W part included, and needs r_perp.
    """
    lg = math.log(6.0 / delta)
    bl = BERNSTEIN_SCALE * lg
    r_v = (bl + math.sqrt(bl * bl + 2.0 * m * lg)) / m
    r_w = (math.sqrt(max(dim - 2, 0)) + math.sqrt(2.0 * math.log(3.0 / delta))) / math.sqrt(m)
    return r_v, r_v + r_w


def noise_shift(epsilon: float, sigma: float, t_tilde: float) -> float:
    """Largest change of the localized Chow mean that flipping labels on
    a region of Gaussian mass epsilon / NOISE_FACTOR can cause.

    The localized law N(-t~ w, I - (1 - sigma^2) w w^T) has density at
    most exp(t~^2 / (2 (1 - sigma^2))) / sigma times the standard one,
    so such a region has localized mass at most beta = that ratio times
    epsilon / NOISE_FACTOR.  Flipping mass beta moves E[z y] by at most
    2 E[|z_1|; |z_1| > q] = 4 phi(q), q = Phi^{-1}(1 - beta / 2).
    """
    if epsilon <= 0.0:
        return 0.0
    log_beta = math.log(epsilon / NOISE_FACTOR / sigma) + t_tilde * t_tilde / (2.0 * (1.0 - sigma * sigma))
    q = -float(ndtri(0.5 * math.exp(min(log_beta, 0.0))))
    return 4.0 * math.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)


def certified_sine(sigma: float, mu: float, g_v: float, norm_perp: float, radius: float) -> float:
    """B of ``refine_round``: the bound on sin(theta'/2) of the direction
    w + mu g_perp, from g.w, ||g_perp|| and radius = r_v + shift; inf
    unless g.w > radius."""
    if g_v <= radius:
        return math.inf
    return 0.5 * sigma * (norm_perp + radius) / (g_v - radius) + 0.5 * mu * norm_perp


def refine_round(
    oracle: MembershipOracle,
    state: RefineState,
    t_prime: float,
    cfg: RefineConfig,
    delta: float,
    total_rounds: int,
    *,
    epsilon: float = 0.0,
    floor: float = 0.0,
) -> RefineState:
    """One localize / re-center / gradient-step round that certifies its
    own next sigma.

    The round estimates the localized Chow mean g at the state's offset
    t~ = ``state.t_cf``, with no search, and steps w along
    g_perp = g - (g.w) w with step mu = sigma / c1.  For any label law
    that depends on x only through w*.x (clean, random flips, a margin
    band), the mean E_m g is parallel to the localized target's normal
    (a sigma w + b u) with a = cos theta, b = sin theta and u the unit
    part of w* orthogonal to w, so E_m g.u / E_m g.w = tan(theta) / sigma.
    Labels flipped off the margin law on a region of mass up to
    epsilon / NOISE_FACTOR add to it a vector D with ||D|| <= shift =
    ``noise_shift``.  Take the radii of ``chow_radii`` with delta split
    over the total_rounds + 1 rounds, as ``gradient_sample_size`` does.
    Their Bernstein events on g.w and g.u hold for any labels, so with
    probability >= 1 - delta / (total_rounds + 1)

        E_m g.w >= g.w - r_v - shift,
        |E_m g.u| <= |g.u| + r_v + shift <= ||g_perp|| + r_v + shift,

    and if g.w > r_v + shift, tan(theta) / sigma is at most their ratio.
    So the stepped direction has

        sin(theta'/2) <= (sigma / 2) (||g_perp|| + r_v + shift) / (g.w - r_v - shift)
                         + (mu / 2) ||g_perp||  =: B

    since sin(theta/2) <= tan(theta) / 2 for theta < pi/2, which holds
    while the invariant keeps theta <= pi/3, and the step moves w by at
    most mu ||g_perp||.  The W part of g needs no radius here: ||g_perp||
    only overstates |g.u|.  The test is on g.w, not |g.w|, since
    E g.w < 0 would mean theta > pi/2.  The next sigma is
    min((1 - 1/c2) sigma, CERTIFICATE_SLACK * B), exactly (1 - 1/c2) sigma
    when g.w <= r_v + shift, and never below ``floor``.  The lower bound
    ||E_m g_perp|| >= ||g_perp|| - r_perp - shift, which pays for the W
    part, gives ``angle_floor``, a lower confidence bound on sin(theta/2)
    of the direction the round started from.  The round's m =
    ``gradient_sample_size`` labels and g come from the oracle's
    Gaussian channel (``MembershipOracle.gaussian_queries``), which for
    a margin-law source draws no (m, d) array.

    The same labels give the next round's offset.  For margin-law labels
    the localized negative rate is Phi((t~ cos theta - t*) /
    sqrt(sigma^2 cos^2 theta + sin^2 theta)), which is Phi((t~ - t*) /
    sigma) once theta << sigma, so with p^ the labels' negative share,
    ``t_cf`` = t~ - sigma ndtri(p^), clamped to [0, t'], estimates t*.
    ``neg_rate`` = p^ lets the caller check that t~ was in-window.
    """
    sigma = state.sigma
    t_tilde = state.t_cf
    m = gradient_sample_size(state.w.shape[0], total_rounds, cfg, delta)
    batch = oracle.gaussian_queries(m, GaussianLaw.localized(state.w, t_tilde, sigma), chow=True)
    g = batch.chow
    neg_rate = np.count_nonzero(batch.labels == -1) / m
    g_v = float(g @ state.w)
    g_perp = g - g_v * state.w
    norm_perp = math.sqrt(g_perp @ g_perp)
    mu = sigma / cfg.c1
    stepped = state.w + mu * g_perp
    w_next = stepped / math.sqrt(stepped @ stepped)

    r_v, r_perp = chow_radii(m, state.w.shape[0], delta / (total_rounds + 1))
    shift = noise_shift(epsilon, sigma, t_tilde)
    bound = certified_sine(sigma, mu, g_v, norm_perp, r_v + shift)
    sigma_next = min((1.0 - 1.0 / cfg.c2) * sigma, CERTIFICATE_SLACK * bound)
    tan_lo = sigma * max(0.0, norm_perp - r_perp - shift) / (abs(g_v) + r_v + shift)
    return RefineState(
        w=w_next,
        sigma=max(floor, sigma_next),
        round=state.round + 1,
        angle_floor=math.sin(0.5 * math.atan(tan_lo)),
        neg_rate=neg_rate,
        t_cf=closed_form_offset(t_tilde, sigma, neg_rate, m, t_prime),
    )


def entry_scale(t_prime: float) -> float:
    """min(1/t', 1/2): the angle bound a warm start at threshold t' is
    expected to meet, and the scale a descent starts from."""
    return min(1.0 / t_prime, 0.5) if t_prime > 0 else 0.5


def refine(
    oracle: MembershipOracle,
    w0: np.ndarray,
    t_top: float,
    epsilon: float,
    delta: float,
    cfg: RefineConfig | None = None,
    sigma0: float | None = None,
) -> tuple[Halfspace | None, RefineState]:
    """One descent from w0 with the offset bracket [0, t_top].

    The descent runs one ``search_offset`` at (w0, sigma0), its only
    search, whose OffsetNotFound (an EntryRejected) rejects the warm
    start.  The first round runs at the accepted offset, and each later
    round at the last round's closed-form offset t_cf, the rule the
    search steps by, which tracks t* whenever t_top >= t*, so the
    bracket does the threshold grid's work.  The rounds start at sigma0 (default
    min(1/t_top, 1/2)), each certifying its own next sigma, and run
    while sigma exceeds the stop scale of the state's offset,
    sigma_stop(t_cf) = min(sigma0, c_stop eps exp(t_cf^2 / 2)).  Each
    round takes the stop scale of the offset it runs at as its floor, so
    the descent lands on it.  The planned rounds of the fixed 1 - 1/c2
    schedule down to the smallest stop scale, sigma_stop(0), size each
    round's samples and cap the descent's length.  The hypothesis is
    Halfspace(w, t_cf) of the last round, whose offset is read off that
    round's Chow labels without a further query.  A descent that runs no
    round takes its entry search's offset.

    A first round whose lower confidence bound on sin(theta/2) exceeds
    sigma0 also rejects the warm start.  A round whose Chow labels have
    a negative share p^ outside BIAS_WINDOW ran at an offset that was
    not in-window, so its t_cf is no estimate of t*: it ends the descent
    with None.  The oracle refusing a query (BudgetExceeded) also ends
    it: it returns the state after its last complete round and, once
    the entry search has accepted an offset, Halfspace(w, t_cf) of that
    state.
    """
    cfg = cfg or RefineConfig()
    if sigma0 is None:
        sigma0 = entry_scale(t_top)

    def stop_scale(t: float) -> float:
        return min(sigma0, cfg.c_stop * epsilon * math.exp(t * t / 2.0))

    total = planned_rounds(sigma0, stop_scale(0.0), cfg.c2)
    state = RefineState(w=np.asarray(w0, dtype=float), sigma=sigma0, round=0, t_cf=math.nan)
    try:
        # entry: the warm start must put the localized rate in the bias
        # window at sigma0; the first round runs there
        state = replace(state, t_cf=search_offset(oracle, state.w, sigma0, t_top, delta))
        while state.round < total and state.sigma > (floor := stop_scale(state.t_cf)):
            state = refine_round(oracle, state, t_top, cfg, delta, total, epsilon=epsilon, floor=floor)
            if state.round == 1 and state.angle_floor > sigma0:
                raise EntryRejected(
                    f"first round bounds sin(theta/2) >= {state.angle_floor:.3g} > sigma0 {sigma0:.3g}"
                )
            if not BIAS_WINDOW[0] < state.neg_rate < BIAS_WINDOW[1]:
                return None, state
    except BudgetExceeded:
        pass
    if math.isnan(state.t_cf):
        return None, state
    return Halfspace(state.w, state.t_cf), state
