import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellsphere import (
    Axis,
    RngStream,
    angle_delta,
    project,
    quad_expectation,
    sample_sphere,
)

TWO_PI = 2.0 * math.pi


def sigma_bound(samples, expected, n_sigma=5.0):
    """|mean - expected| measured in sample standard errors."""
    se = np.std(samples, ddof=1) / math.sqrt(len(samples))
    return abs(float(np.mean(samples)) - expected) / max(se, 1e-300)


def is_unit(j, tol=1e-12):
    """Every vector in ``j`` has norm within ``tol`` of 1."""
    return bool(np.all(np.abs(np.linalg.norm(j, axis=-1) - 1.0) < tol))


class TestAxis:
    def test_normalizes_into_two_pi(self):
        assert Axis(TWO_PI + 0.5).theta == pytest.approx(0.5)
        assert Axis(-0.1).theta == pytest.approx(TWO_PI - 0.1)
        assert 0.0 <= Axis(-12.3).theta < TWO_PI

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        # NaN % 2 pi is NaN and inf % 2 pi is NaN: the angle is tested first
        with pytest.raises(ValueError, match="axis angle must be finite"):
            Axis(theta)

    def test_delta_reduces_to_half_circle(self):
        a, b = Axis(0.1), Axis(TWO_PI - 0.1)
        assert angle_delta(a.theta, b.theta) == pytest.approx(0.2, abs=1e-12)
        assert angle_delta(0.0, 3 * math.pi / 2) == pytest.approx(math.pi / 2)
        assert angle_delta(0.3, 0.3) == 0.0


class TestProject:
    def test_projection_onto_own_axis(self):
        assert project(np.array([0.0, 0.0, 1.0]), Axis(0.0)) == 1.0

    def test_orthogonal_axis(self):
        p = project(np.array([0.0, 0.0, 1.0]), Axis(math.pi / 2))
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degrees(self):
        p = project(np.array([0.0, 0.0, 1.0]), Axis(math.pi / 3))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_batch_shape(self):
        j = np.tile([0.0, 0.0, 1.0], (5, 1))
        out = project(j, Axis(math.pi / 3))
        assert out.shape == (5,)

    @given(
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(0.0, TWO_PI),
    )
    def test_antisymmetry_is_exact(self, x, y, z, theta):
        j = np.array([x, y, z])
        a = Axis(theta)
        assert project(-j, a) == -project(j, a)

    @given(st.floats(0.0, TWO_PI), st.floats(-1e3, 1e3))
    def test_two_pi_periodicity(self, theta, shift_turns):
        j = np.array([0.1, -0.7, 0.3])
        turns = int(shift_turns)
        p0 = project(j, Axis(theta))
        p1 = project(j, Axis(theta + turns * TWO_PI))
        assert p1 == pytest.approx(p0, abs=1e-9)


class TestRngStream:
    def test_same_triple_reproduces_bits(self):
        a = sample_sphere(RngStream(1, 0), 100)
        b = sample_sphere(RngStream(1, 0), 100)
        assert np.array_equal(a, b)

    def test_known_first_vector_is_frozen(self):
        # regression pin for the documented generator (Philox key=(seed, stream));
        # these exact doubles must reproduce on every platform
        u = RngStream(1, 0).uniform(2)
        assert u[0] == 0.3035680343067586
        assert u[1] == 0.8487087496857769
        v = sample_sphere(RngStream(1, 0), 1)[0]
        assert v[0] == 0.534471658530262
        assert v[1] == -0.7483301261097725
        assert v[2] == -0.3928639313864828
        assert is_unit(v)

    def test_distinct_streams_differ(self):
        a = sample_sphere(RngStream(1, 0), 100)
        b = sample_sphere(RngStream(1, 1), 100)
        assert not np.array_equal(a, b)

    def test_seed_outside_64_bits_is_rejected(self):
        # Philox's key holds 64 bits: -1 would alias 2^64 - 1, and 2^64 alias 0
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\^64\), got {seed}"):
                RngStream(seed)
        assert RngStream(2**64 - 1).uniform(2).shape == (2,)

    def test_split_is_stable_and_distinct(self):
        rng = RngStream(7)
        ids = {rng.split(i).stream_id for i in range(100)}
        assert len(ids) == 100
        assert rng.split(5).stream_id == RngStream(7).split(5).stream_id


class TestSampleSphere:
    def test_unit_norm(self):
        j = sample_sphere(RngStream(2), 10_000)
        assert is_unit(j)

    def test_mean_z_vanishes(self):
        j = sample_sphere(RngStream(3), 1_000_000)
        assert sigma_bound(j[:, 2], 0.0) <= 5.0

    def test_second_moment_matches_quadrature(self):
        # independent oracle for <z^2>: sphere quadrature of the analytic 1/3
        oracle = quad_expectation(lambda pts: pts[:, 2] ** 2)
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-6)
        j = sample_sphere(RngStream(4), 1_000_000)
        assert sigma_bound(j[:, 2] ** 2, 1.0 / 3.0) <= 5.0

    def test_positive_projection_has_half_probability(self):
        j = sample_sphere(RngStream(5), 1_000_000)
        for theta in (0.0, 0.4, 2.2):
            p_hat = float(np.mean(project(j, Axis(theta)) > 0))
            assert abs(p_hat - 0.5) <= 5.0 * math.sqrt(0.25 / len(j))

