from dataclasses import dataclass

import numpy as np
import pytest

import halfspace_lab.refinement as refinement
from halfspace_lab import Halfspace
from halfspace_lab.oracles import WhiteBoxView
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
