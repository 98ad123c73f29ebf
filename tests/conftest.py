from dataclasses import dataclass

import numpy as np
import pytest

import halfspace_lab.learner as learner
import halfspace_lab.refinement as refinement
from halfspace_lab import Halfspace
from halfspace_lab.oracles import MembershipOracle, WhiteBoxView
from halfspace_lab.refinement import RefineConfig, RefineState
from halfspace_lab.rng import substream


@pytest.fixture
def rng():
    return substream(0, "tests")


def unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    w = rng.standard_normal(d)
    return w / np.linalg.norm(w)


def random_halfspace(rng: np.random.Generator, d: int, t_range=(-1.0, 2.5)) -> Halfspace:
    return Halfspace(unit_vector(rng, d), float(rng.uniform(*t_range)))


def rotated_from(w: np.ndarray, angle: float, rng: np.random.Generator) -> np.ndarray:
    """A unit vector at the given angle from w (random direction of tilt)."""
    r = rng.standard_normal(w.shape[0])
    r -= np.dot(r, w) * w
    r /= np.linalg.norm(r)
    v = np.cos(angle) * w + np.sin(angle) * r
    return v / np.linalg.norm(v)


def spread_offsets(refine, shifts):
    """refine, but the k-th candidate's offset is moved by shifts[k]
    (candidates past the last shift are kept): descents that would agree
    yield candidates far enough apart that the restarts run on and vote."""
    yielded = []

    def wrapped(*args, **kwargs):
        h, state = refine(*args, **kwargs)
        if h is not None:
            if len(yielded) < len(shifts):
                h = Halfspace(h.w, h.t + shifts[len(yielded)])
            yielded.append(h)
        return h, state

    return wrapped


@dataclass(frozen=True)
class RoundRecord:
    """One refinement round as the round spy saw it."""

    # the sigma the round started from
    sigma: float
    # the state it returned
    state: RefineState
    # true sin(theta/2) of the state's direction to the target
    true_sine: float
    # the next sigma is the fixed (1 - 1/c2) sigma: the certificate declined
    fixed_step: bool

    @property
    def covered(self) -> bool:
        return self.true_sine <= self.state.sigma


@pytest.fixture
def round_spy(monkeypatch):
    """Wrap ``refinement.refine_round`` and return the list it fills, one
    RoundRecord a round, with the true angle read through WhiteBoxView."""
    records = []
    refine_round = refinement.refine_round

    def spy(oracle, state, *args, **kwargs):
        nxt = refine_round(oracle, state, *args, **kwargs)
        # a learn that flipped the oracle's labels descends toward -w*
        true_sine = WhiteBoxView(oracle.source).half_angle_sine(oracle.label_sign * nxt.w)
        fixed = nxt.sigma == (1.0 - 1.0 / RefineConfig.c2) * state.sigma
        records.append(RoundRecord(state.sigma, nxt, true_sine, fixed))
        return nxt

    monkeypatch.setattr(refinement, "refine_round", spy)
    return records


# the stages a ledger mark is taken around: (module, global it calls)
LEDGER_STAGES = {
    "bias": (learner, "estimate_bias_doubling"),
    "init": (learner, "init_unextreme"),
    "refine": (learner, "refine"),
    "round": (refinement, "refine_round"),
    "tournament": (learner, "tournament"),
}
# unbudgeted runs already marked, by run and arguments
_MARKS: dict = {}


class LedgerMarks(dict):
    """stage -> (ledger at start, ledger at end) of each of its calls, in
    call order: one descent per "refine" pair, one round per "round" pair."""

    def halfway(self, stage: str, k: int = 0) -> int:
        """A budget halfway through the k-th call of stage: a run with it
        meets its refused query in that call."""
        start, end = self[stage][k]
        return (start + end) // 2


@pytest.fixture
def ledger_marks():
    """Return marks(run, **kwargs): the LedgerMarks of run(**kwargs), a
    run without a budget, wrapping each LEDGER_STAGES global as
    ``round_spy`` does.  run is a module-level function that takes the
    budget as a keyword too, so a budget test runs the same learn with a
    budget read off the marks.  Each run is marked once per session."""

    def marks(run, **kwargs):
        key = (run.__module__, run.__qualname__, tuple(sorted(kwargs.items())))
        if key not in _MARKS:
            found = LedgerMarks({stage: [] for stage in LEDGER_STAGES})
            with pytest.MonkeyPatch.context() as mp:
                for stage, (module, name) in LEDGER_STAGES.items():
                    mp.setattr(module, name, _marked(getattr(module, name), found[stage]))
                run(**kwargs)
            _MARKS[key] = found
        return _MARKS[key]

    return marks


def _marked(fn, spans):
    def wrapped(*args, **kwargs):
        oracle = next(a for a in args if isinstance(a, MembershipOracle))
        start = oracle.ledger
        try:
            return fn(*args, **kwargs)
        finally:
            spans.append((start, oracle.ledger))

    return wrapped
