import numpy as np
import pytest

from halfspace_lab import Halfspace
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
