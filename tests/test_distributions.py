import math

import numpy as np
import pytest

from bellsphere import (
    Axis,
    ConfigDensity,
    Direct,
    FullSphere,
    Hemisphere,
    RngStream,
    RotatingHemispheres,
    StaticSphere,
    ensemble_mean_projection,
    measure_pair_batch,
    project,
    quad_density_normalization,
    quad_expectation,
    quad_ring_mean_projection,
    sample_pair,
    sample_sphere,
)

N_CONST = 1.0 / (2.0 * math.pi**2)


def sigma_bound(samples, expected, n_sigma=5.0):
    se = np.std(samples, ddof=1) / math.sqrt(len(samples))
    return abs(float(np.mean(samples)) - expected) / max(se, 1e-300)


class TestConfigDensity:
    def test_norm_constant(self):
        assert ConfigDensity(1.0, 0.0).norm_constant == pytest.approx(N_CONST)

    def test_equator_value_for_zero_projection(self):
        d = ConfigDensity(1.0, 0.0)
        assert d.at(math.pi / 2) == pytest.approx(N_CONST)

    def test_zero_outside_support(self):
        d = ConfigDensity(1.0, 5.0 / 8.0)
        assert d.at(0.1) == 0.0  # sin(0.1) < 5/8
        assert d.at(math.pi - 0.1) == 0.0

    def test_boundary_is_flagged_infinite(self):
        assert ConfigDensity(1.0, 0.0).at(0.0) == math.inf

    def test_vectorized_evaluation(self):
        d = ConfigDensity(1.0, 5.0 / 8.0)
        theta = np.array([0.1, math.pi / 2, math.pi - 0.1])
        vals = d.at(theta)
        assert vals[0] == 0.0 and vals[2] == 0.0
        assert vals[1] > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfigDensity(1.0, 1.5)
        with pytest.raises(ValueError):
            ConfigDensity(-1.0, 0.0)

    @pytest.mark.parametrize(
        "j0,jz0", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, math.inf)]
    )
    def test_non_finite_parameters_rejected(self, j0, jz0):
        # a NaN passes no comparison: the checks accept rather than reject
        with pytest.raises(ValueError):
            ConfigDensity(j0, jz0)
        with pytest.raises(ValueError):
            quad_ring_mean_projection(j0, jz0, Axis(0.0))

    @pytest.mark.parametrize("ratio", [0.0, 0.375, 0.625, 0.99])
    def test_normalization_against_solid_angle(self, ratio):
        d = ConfigDensity(1.0, ratio)
        assert quad_density_normalization(d) == pytest.approx(1.0, abs=1e-6)

    def test_normalization_scale_invariance(self):
        assert quad_density_normalization(ConfigDensity(2.5, 1.0)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_degenerate_ring_rejected_by_quadrature(self):
        with pytest.raises(ValueError):
            quad_density_normalization(ConfigDensity(1.0, 1.0))


class TestRingMeanQuadrature:
    @pytest.mark.parametrize(
        "jz0,theta", [(0.625, math.pi / 4), (0.0, 0.9), (0.375, 2.0), (0.99, 0.3)]
    )
    def test_matches_projection_closed_form(self, jz0, theta):
        got = quad_ring_mean_projection(1.0, jz0, Axis(theta))
        assert got == pytest.approx(jz0 * math.cos(theta), abs=1e-6)

    def test_carries_physical_magnitude(self):
        got = quad_ring_mean_projection(2.0, 1.0, Axis(0.0))
        assert got == pytest.approx(1.0, abs=1e-6)


class TestEnsembles:
    def test_hemisphere_validation(self):
        with pytest.raises(ValueError):
            Hemisphere(Axis(0.0), 2)

    def test_mean_projection_closed_forms(self):
        a = Axis(0.4)
        assert ensemble_mean_projection(Hemisphere(a, 1), a) == pytest.approx(0.5)
        assert ensemble_mean_projection(FullSphere(), Axis(2.0)) == 0.0
        b = Axis(0.4 + math.pi / 3)
        assert ensemble_mean_projection(Hemisphere(a, -1), b) == pytest.approx(-0.25)

    def test_mean_projection_extremal_at_own_axis_and_sign_odd(self):
        gen = np.random.default_rng(0)
        a = Axis(1.3)
        peak = ensemble_mean_projection(Hemisphere(a, 1), a)
        for theta in gen.uniform(0.0, 2 * math.pi, 50):
            b = Axis(float(theta))
            value = ensemble_mean_projection(Hemisphere(a, 1), b)
            assert abs(value) <= peak + 1e-15
            assert ensemble_mean_projection(Hemisphere(a, -1), b) == -value

    def test_quadrature_agrees_with_closed_forms(self):
        # the hemisphere law s cos(b - a) / 2 off its own axis, against twice
        # the sphere average of project(j, b) on the side s * project(j, a) > 0.
        # The quadrature's N x N cells have equal weight 1/N^2.  The edge of
        # the side, the great circle normal to a, crosses at most 3N of them
        # (each u-line twice, each phi-line once).  On a crossed cell the
        # midpoint value and the cell's mean differ by at most the jump of
        # project(j, b) at the edge, |sin(b - a)|, plus its spread over the
        # cell, at most the cell's diameter (below 0.07, at the poles).  So
        # the edge's error is first order in 1/N; the smooth rest is second
        # order, within the 1e-6 of the sphere moments.
        n = 1024
        pairs = [
            (0.5, 0.5, 1),
            (0.5, 0.5, -1),
            (0.5, 0.5 + math.pi / 2, 1),
            (0.0, math.pi / 2, -1),
            (0.2, 0.2 + math.pi / 3, -1),
            (1.3, 2.4, 1),
            (2.0, 5.9, -1),
            (math.pi / 2, 0.3, 1),
        ]
        for theta_a, theta_b, sign in pairs:
            a, b = Axis(theta_a), Axis(theta_b)
            side = quad_expectation(lambda j: project(j, b) * (sign * project(j, a) > 0))
            jump = abs(math.sin(theta_b - theta_a))
            bound = 2.0 * (3 * n * (jump + 0.07) / n**2 + 1e-6)
            expected = ensemble_mean_projection(Hemisphere(a, sign), b)
            assert abs(2.0 * side - expected) <= bound, (theta_a, theta_b, sign)


def plane_vectors(y, z):
    # particle 1's vectors from sample_pair's in-plane components (x = 0,
    # which no projection reads)
    return np.stack([np.zeros_like(y), y, z], axis=-1)


class TestPairSource:
    @pytest.mark.parametrize("source", [StaticSphere(), RotatingHemispheres()])
    def test_anti_correlation_is_exact(self, source):
        # j2 = -j1 is folded into particle 2's projection: on a common axis
        # the direct readouts cancel exactly
        for theta in (0.0, 0.9, 2.5):
            o1, o2 = measure_pair_batch(
                Direct(), source, Axis(theta), Axis(theta), 100_000, RngStream(31)
            )
            assert np.all(o1 + o2 == 0.0)

    @pytest.mark.parametrize("source", [StaticSphere(), RotatingHemispheres()])
    def test_same_axis_product_is_minus_third(self, source):
        j1 = plane_vectors(*sample_pair(source, RngStream(32), 400_000))
        a = Axis(0.9)
        products = project(j1, a) * project(-j1, a)
        assert sigma_bound(products, -1.0 / 3.0) <= 5.0

    @pytest.mark.parametrize("source", [StaticSphere(), RotatingHemispheres()])
    def test_marginal_is_uniform(self, source):
        y, z = sample_pair(source, RngStream(33), 400_000)
        n = len(z)
        assert sigma_bound(z, 0.0) <= 5.0
        assert sigma_bound(z**2, 1.0 / 3.0) <= 5.0
        assert sigma_bound(y**2, 1.0 / 3.0) <= 5.0
        for theta in (0.0, 1.0, 2.5):
            p_hat = float(np.mean(project(plane_vectors(y, z), Axis(theta)) > 0))
            assert abs(p_hat - 0.5) <= 5.0 * math.sqrt(0.25 / n)

    def test_rotated_axis_product(self):
        # full two-axis correlation, not just the aligned case
        j1 = plane_vectors(*sample_pair(RotatingHemispheres(), RngStream(34), 400_000))
        prod = project(j1, Axis(0.0)) * project(-j1, Axis(math.pi / 3))
        assert sigma_bound(prod, -math.cos(math.pi / 3) / 3.0) <= 5.0

    def test_scalar_draw(self):
        y, z = sample_pair(StaticSphere(), RngStream(35), 1)
        assert y.shape == z.shape == (1,)
        assert y[0] ** 2 + z[0] ** 2 <= 1.0

    def test_sphere_components_are_sample_sphere_without_x(self):
        y, z = sample_pair(StaticSphere(), RngStream(36), 1000)
        j = sample_sphere(RngStream(36), 1000)
        assert y.tobytes() == j[:, 1].copy().tobytes()
        assert z.tobytes() == j[:, 2].copy().tobytes()
