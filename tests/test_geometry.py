import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_lab.geometry import (
    Halfspace,
    chow_vector,
    disagreement_mass,
    halfspace_bias,
    komatsu_bounds,
    lift,
    localize_halfspace,
    sign_labels,
    smoothed_halfspace,
    span_basis,
    sqrt_localization_apply,
    threshold_for_bias,
)
from halfspace_lab.rng import substream

from conftest import random_halfspace, rotated_from, unit_vector

# independently computed 30-digit reference values for Phi(-t)
PHI_NEG = {
    0.0: 0.5,
    0.5: 0.308537538725986896362295389392,
    1.0: 0.158655253931457051414767454368,
    2.0: 0.0227501319481792072002826371665,
    3.5: 0.000232629079035525036349925886728,
    6.0: 9.86587645037698140700864132398e-10,
}

# reference values for sqrt(2/pi) exp(-t^2/2)
CHOW_NORM = {
    0.0: 0.797884560802865355879892119869,
    0.5: 0.704130653528598955549360883193,
    1.0: 0.483941449038286699595660385871,
    2.0: 0.107981933026376103901128400821,
}


class TestBias:
    @pytest.mark.parametrize("t,expected", sorted(PHI_NEG.items()))
    def test_matches_reference(self, t, expected):
        assert halfspace_bias(t) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [0.4, 0.25, 0.1, 0.01, 1e-4, 1e-8, 1e-30, 1e-100])
    def test_threshold_roundtrip(self, p):
        t = threshold_for_bias(p)
        assert halfspace_bias(t) == pytest.approx(p, rel=1e-12, abs=0.0)

    def test_threshold_rejects_degenerate_bias(self):
        with pytest.raises(ValueError):
            threshold_for_bias(0.0)
        with pytest.raises(ValueError):
            threshold_for_bias(1.0)

    def test_monotone_decreasing(self):
        ts = np.linspace(-5, 5, 41)
        ps = [halfspace_bias(float(t)) for t in ts]
        assert all(a > b for a, b in zip(ps, ps[1:]))


def mp_disagreement(t1: float, t2: float, theta: float) -> float:
    """Phi(-t1) + Phi(-t2) - 2 Phi_2(-t1, -t2; cos theta) at 30 digits.

    Phi_2(h, k; rho) is the integral over x < h of phi(x) Phi((k - rho x) / s),
    s = sin theta; the integrand steps near x = k / rho over a width of
    about s, so the quadrature is split there.
    """
    with mpmath.workdps(30):
        h, k, theta = -mpmath.mpf(t1), -mpmath.mpf(t2), mpmath.mpf(theta)
        if theta == 0:
            both = mpmath.ncdf(min(h, k))
        elif theta == mpmath.pi:
            both = max(0, mpmath.ncdf(h) - mpmath.ncdf(-k))
        else:
            rho, s = mpmath.cos(theta), mpmath.sin(theta)
            step = k / rho
            cuts = sorted(x for x in (step - 50 * s, step, step + 50 * s) if x < h)
            both = mpmath.quad(
                lambda x: mpmath.npdf(x) * mpmath.ncdf((k - rho * x) / s), [-mpmath.inf, *cuts, h]
            )
        return float(mpmath.ncdf(h) + mpmath.ncdf(k) - 2 * both)


def pair_at_angle(t1: float, t2: float, theta: float) -> tuple[Halfspace, Halfspace]:
    w1 = np.array([1.0, 0.0, 0.0])
    if theta == math.pi:
        w2 = -w1
    else:
        w2 = np.array([math.cos(theta), math.sin(theta), 0.0])
    return Halfspace(w1, t1), Halfspace(w2, t2)


class TestDisagreementMass:
    @pytest.mark.parametrize("t1,t2,theta", [
        # nearly parallel: distinct, equal and opposite thresholds
        (1.0, 1.05, 1e-6), (0.5, -0.3, 1e-6), (1.0, 1.0, 1e-6), (2.5, 2.5, 1e-4),
        (1.0, 0.7, 0.3), (-0.5, 1.2, 2.0), (1.5, -1.5, 3.0),
        # parallel and antipodal
        (0.2, 0.6, 0.0), (0.5, 0.3, math.pi), (0.5, -0.8, math.pi), (1.0, -1.0, math.pi),
        # t = 0 for one or both
        (0.0, 0.0, 1e-6), (0.0, 0.0, 0.7), (0.0, 1.0, 0.5), (-0.4, 0.0, 2.5), (0.0, 0.0, math.pi),
    ])
    def test_matches_reference(self, t1, t2, theta):
        h1, h2 = pair_at_angle(t1, t2, theta)
        assert disagreement_mass(h1, h2) == pytest.approx(mp_disagreement(t1, t2, theta), rel=1e-9, abs=0.0)

    @given(st.integers(2, 6), st.integers(0, 10_000), st.sampled_from([1e-7, 1e-3, 0.5, 2.0]))
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, d, seed, angle):
        rng = substream(seed, "disagreement-symmetry")
        w = unit_vector(rng, d)
        h1 = Halfspace(w, float(rng.uniform(-2.0, 2.0)))
        h2 = Halfspace(rotated_from(w, angle, rng), float(rng.uniform(-2.0, 2.0)))
        assert disagreement_mass(h1, h2) == pytest.approx(disagreement_mass(h2, h1), rel=1e-9, abs=0.0)

    def test_identical_pair_has_no_mass(self, rng):
        h = random_halfspace(rng, 5)
        assert disagreement_mass(h, h) == 0.0
        assert disagreement_mass(h, h.flipped()) == 1.0


class TestKomatsu:
    @pytest.mark.parametrize("t", np.linspace(0.0, 8.0, 17))
    def test_sandwich(self, t):
        lo, hi = komatsu_bounds(float(t))
        p = halfspace_bias(float(t))
        assert lo < p < hi

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            komatsu_bounds(-0.1)


class TestHalfspace:
    def test_tie_resolves_to_plus_one(self):
        h = Halfspace(np.array([1.0, 0.0]), 0.0)
        assert h(np.array([0.0, 3.0])) == 1
        assert h(np.array([[0.0, 3.0], [-1.0, 0.0]])).tolist() == [1, -1]
        assert sign_labels(0.0) == 1

    def test_batch_and_scalar_agree(self, rng):
        h = random_halfspace(rng, 4)
        X = rng.standard_normal((50, 4))
        batch = h(X)
        assert [h(x) for x in X] == list(batch)

    def test_rejects_non_unit_weights(self):
        with pytest.raises(ValueError):
            Halfspace(np.array([2.0, 0.0]), 0.0)

    def test_flipped_negates_labels(self, rng):
        h = random_halfspace(rng, 3)
        X = rng.standard_normal((100, 3))
        # generic points are off the boundary, where flipping is exact
        assert np.array_equal(h.flipped()(X), -np.asarray(h(X)))


class TestChow:
    @pytest.mark.parametrize("t,expected", sorted(CHOW_NORM.items()))
    def test_norm_matches_reference(self, t, expected):
        h = Halfspace(np.array([0.6, 0.8]), t)
        assert np.linalg.norm(chow_vector(h)) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_vector_is_along_w(self, rng):
        h = random_halfspace(rng, 5)
        c = chow_vector(h)
        assert np.allclose(c, np.linalg.norm(c) * h.w)


class TestSpanBasis:
    @given(st.integers(2, 8), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_orthonormal_rows_v_first_w_inside(self, d, seed):
        rng = substream(seed, "span-basis-prop")
        w = unit_vector(rng, d)
        v = unit_vector(rng, d)
        E = span_basis(w, v)
        assert E.shape == (2, d)
        assert np.allclose(E @ E.T, np.eye(2), atol=1e-12)
        assert np.array_equal(E[0], v)
        # w's coordinates in E rebuild it
        assert np.linalg.norm((E @ w) @ E - w) < 1e-12

    def test_aligned_case(self, rng):
        # (anti)parallel directions, or no v at all, span one row
        v = unit_vector(rng, 6)
        for sign in (1.0, -1.0):
            assert np.array_equal(span_basis(sign * v, v), v[None, :])
        assert np.array_equal(span_basis(v), v[None, :])


def span_basis_reference(w, v=None):
    """span_basis as np.stack and np.linalg.norm wrote it."""
    if v is None:
        return w[None, :]
    u = w - (w @ v) * v
    u -= (u @ v) * v
    norm = float(np.linalg.norm(u))
    return v[None, :] if norm <= 1e-12 else np.stack([v, u / norm])


class TestBitIdentical:
    """span_basis and sign_labels against the expressions they replace."""

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_span_basis(self, rng, d):
        for _ in range(50):
            w, v = unit_vector(rng, d), unit_vector(rng, d)
            cases = [(w, v), (w, None), (v, v), (-v, v), (rotated_from(v, 1e-13, rng) if d > 1 else v, v)]
            for a, b in cases:
                new, old = span_basis(a, b), span_basis_reference(a, b)
                assert new.shape == old.shape and new.dtype == old.dtype
                assert np.array_equal(new, old)

    def test_sign_labels(self, rng):
        ties = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324])
        arrays = [
            rng.standard_normal(1000),
            rng.standard_normal((40, 3)),
            ties,
            rng.standard_normal((1, 7)),
            np.array(0.0),
            np.array(-0.0),
            np.array(-2.5),
            np.array([], dtype=float),
        ]
        for values in arrays:
            new, old = sign_labels(values), np.where(np.asarray(values) >= 0, 1, -1)
            assert isinstance(new, np.ndarray)
            assert new.shape == old.shape and new.dtype == old.dtype
            assert np.array_equal(new, old)
        for value in [0.0, -0.0, 3.0, -3.0, 2, -2, np.float64(-0.0), np.float64(-1e-300)] + list(ties):
            new = sign_labels(value)
            assert type(new) is int
            assert new == int(np.where(np.asarray(value) >= 0, 1, -1))


class TestLift:
    @pytest.mark.parametrize("k", [1, 2])
    def test_coordinates_in_span_and_part_off_it(self, rng, k):
        d, n = 7, 30
        E = span_basis(unit_vector(rng, d), unit_vector(rng, d) if k == 2 else None)
        P = rng.standard_normal((n, k))
        G = rng.standard_normal((n, d))
        X = lift(P, E, G)
        assert np.allclose(X @ E.T, P, rtol=0, atol=1e-12)
        off = lambda Y: Y - (Y @ E.T) @ E
        assert np.allclose(off(X), off(G), rtol=0, atol=1e-12)
        # one row lifts as it does in a batch
        assert np.allclose(lift(P[0], E, G[0]), X[0], rtol=0, atol=1e-12)


class TestLocalization:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_localized_halfspace_matches_direct_evaluation(self, seed):
        rng = substream(seed, "localize-prop")
        d = int(rng.integers(2, 7))
        h = random_halfspace(rng, d)
        v = unit_vector(rng, d)
        s = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.05, 0.95))
        Z = rng.standard_normal((64, d))
        X = sqrt_localization_apply(v, sigma, Z) - s * v
        assert np.array_equal(localize_halfspace(h, v, s, sigma)(Z), h(X))

    def test_sqrt_factor_squares_to_covariance(self, rng):
        # A^{1/2} applied twice equals I - (1 - sigma^2) v v^T
        d, sigma = 5, 0.3
        v = unit_vector(rng, d)
        Z = rng.standard_normal((20, d))
        twice = sqrt_localization_apply(v, sigma, sqrt_localization_apply(v, sigma, Z))
        direct = Z - (1.0 - sigma ** 2) * np.outer(Z @ v, v)
        assert np.allclose(twice, direct, atol=1e-12)

    def test_identity_at_aligned_direction(self, rng):
        # localizing along w itself keeps the weight direction unchanged
        h = random_halfspace(rng, 4)
        g = localize_halfspace(h, h.w, 0.5, 0.3)
        assert np.allclose(g.w, h.w)

    def test_rejects_bad_sigma(self, rng):
        h = random_halfspace(rng, 3)
        with pytest.raises(ValueError):
            localize_halfspace(h, h.w, 0.0, 1.5)


class TestSmoothing:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_smoothed_halfspace_matches_direct_evaluation(self, seed):
        rng = substream(seed, "smooth-prop")
        d = int(rng.integers(2, 7))
        h = random_halfspace(rng, d)
        x0 = rng.standard_normal(d)
        rho = float(rng.uniform(0.05, 1.0))
        Z = rng.standard_normal((64, d))
        X = math.sqrt(1.0 - rho * rho) * x0 + rho * Z
        assert np.array_equal(smoothed_halfspace(h, x0, rho)(Z), h(X))

    def test_rho_one_is_identity(self, rng):
        h = random_halfspace(rng, 3)
        g = smoothed_halfspace(h, rng.standard_normal(3), 1.0)
        assert np.allclose(g.w, h.w) and g.t == pytest.approx(h.t)
