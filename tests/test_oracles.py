import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from bellsphere import (
    Axis,
    Direct,
    FullSphere,
    Hemisphere,
    RngStream,
    Sign,
    StochasticSign,
    enumerate_ensemble_E,
    enumerate_pointlike_E,
    project,
    quad_expectation,
    sequence_means,
    sequence_outcomes,
)

N = 1024  # quad_expectation's nodes per axis
CHUNK_NODES = 32_768  # nodes quad_expectation hands to f at once
INTEGRANDS = (
    lambda pts: pts[:, 2] ** 2,
    lambda pts: np.maximum(project(pts, Axis(0.9)), 0.0),
)  # the two sphere moments that verify checks
# node-by-node values that swing in sign and size from one node to the next,
# so sums taken in another order (the chunk sums left to right, an exact
# sum) round differently for some of them
ROUGH_INTEGRANDS = (
    lambda pts: np.sin(1e6 * pts[:, 0] + 1e5 * pts[:, 1]),
    lambda pts: np.exp(8.0 * pts[:, 2]) * np.cos(3e4 * pts[:, 0]),
    lambda pts: 1e3 * np.sin(1e6 * pts[:, 0]) + pts[:, 2],
)


def meshgrid_nodes():
    # every node computed at once on the full meshgrid, u-major
    u = -1.0 + (np.arange(N) + 0.5) * (2.0 / N)
    phi = (np.arange(N) + 0.5) * (2.0 * math.pi / N)
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    rr = np.sqrt(np.maximum(1.0 - uu * uu, 0.0))
    return np.stack([rr * np.cos(pp), rr * np.sin(pp), uu], axis=-1).reshape(-1, 3)


class TestQuadExpectation:
    def test_normalization_is_exact(self):
        assert quad_expectation(lambda pts: np.ones(len(pts))) == 1.0

    def test_second_moment(self):
        assert quad_expectation(lambda pts: pts[:, 2] ** 2) == pytest.approx(
            1.0 / 3.0, abs=1e-6
        )

    def test_hemisphere_first_moment(self):
        axis = Axis(0.9)
        value = quad_expectation(lambda pts: np.maximum(project(pts, axis), 0.0))
        assert value == pytest.approx(0.25, abs=1e-6)

    def test_second_moment_error_is_the_midpoint_term(self):
        # the midpoint rule's error for z^2 on N rows of u is exactly
        # 1/(3 N^2), here to within a few ulp of the mean 1/3
        error = 1.0 / 3.0 - quad_expectation(lambda p: p[:, 2] ** 2)
        assert abs(error - 1.0 / (3.0 * N**2)) <= 4 * math.ulp(1.0 / 3.0)

    def test_nodes_match_meshgrid_construction(self):
        # every chunk f receives, joined in order, is compared bit for bit with
        # the nodes computed on the full meshgrid: 32 chunks of 32 whole u-rows
        seen = []

        def capture(pts):
            seen.append(pts.copy())
            return pts[:, 2]

        quad_expectation(capture)
        assert [chunk.shape for chunk in seen] == [(CHUNK_NODES, 3)] * 32
        nodes = np.concatenate(seen)
        assert nodes.tobytes() == meshgrid_nodes().tobytes()

    @pytest.mark.parametrize(
        "integrand",
        INTEGRANDS + ROUGH_INTEGRANDS,
        ids=["z_sq", "half_projection", "rough_sin", "rough_exp", "rough_mixed"],
    )
    def test_chunked_mean_is_one_shot_mean(self, integrand):
        # f acts per node, and the 32 chunk sums are added in the pairwise
        # tree np.mean builds over all 2^20 values, so chunking changes no bit
        assert quad_expectation(integrand) == float(np.mean(integrand(meshgrid_nodes())))

    def test_values_are_float64_one_per_node(self):
        # f's values are summed where f left them: other dtypes are taken as
        # float64 first, and a shape other than one value per node raises
        z_sq = INTEGRANDS[0]
        assert quad_expectation(lambda pts: z_sq(pts).astype(np.float32)) == float(
            np.mean(z_sq(meshgrid_nodes()).astype(np.float32).astype(float))
        )
        assert quad_expectation(lambda pts: pts[:, 2] >= 0.0) == 0.5
        for wrong in (lambda pts: 1.0, lambda pts: pts[:, 2:], lambda pts: pts[:-1, 2]):
            with pytest.raises(ValueError, match="not one value per node"):
                quad_expectation(wrong)

    def test_one_pass_is_one_call_per_integrand(self):
        # several integrands in one pass: each is handed every chunk in turn,
        # the same read-only nodes, and each average is its own call's bits
        integrands = INTEGRANDS + ROUGH_INTEGRANDS
        calls = []

        def recording(i, g):
            def f(pts):
                assert not pts.flags.writeable
                calls.append((i, hashlib.sha256(pts.tobytes()).hexdigest()))
                return g(pts)

            return f

        means = quad_expectation(*(recording(i, g) for i, g in enumerate(integrands)))
        assert means == tuple(quad_expectation(g) for g in integrands)
        assert all(type(mean) is float for mean in means)
        chunks = np.split(meshgrid_nodes(), 32)
        assert calls == [
            (i, hashlib.sha256(chunk.tobytes()).hexdigest())
            for chunk in chunks
            for i in range(len(integrands))
        ]

    def test_verify_moments_are_pinned(self):
        z_sq, half_projection = INTEGRANDS
        assert quad_expectation(z_sq) == 0.33333301544189453
        assert quad_expectation(half_projection) == 0.24999995338494274

    def test_peak_memory_is_one_chunk(self):
        # one (32,768, 3) node chunk, the chunk's (32,768,) values and a few
        # temporaries of f; the values of the whole grid alone were 8 MiB
        mib = 2**20
        chunk = CHUNK_NODES * 3 * 8
        temporary = CHUNK_NODES * 8
        bound = chunk + 5 * temporary
        assert bound == 2 * mib
        tracemalloc.start()
        try:
            quad_expectation(INTEGRANDS[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chunk < peak <= bound


class TestEnumeratePointlike:
    def test_sign_values(self):
        assert enumerate_pointlike_E(Sign(), 0.0) == pytest.approx(-0.25)
        assert enumerate_pointlike_E(Sign(), math.pi / 4) == pytest.approx(-0.125)
        assert enumerate_pointlike_E(Sign(), math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert enumerate_pointlike_E(Sign(), math.pi) == pytest.approx(0.25)

    def test_stochastic_values(self):
        assert enumerate_pointlike_E(StochasticSign(), 0.0) == pytest.approx(-1 / 16)
        assert enumerate_pointlike_E(StochasticSign(), math.pi) == pytest.approx(1 / 16)

    def test_unit_weight_reduces_to_sign(self):
        for d in np.linspace(0.0, math.pi, 32):
            assert enumerate_pointlike_E(StochasticSign(1.0), float(d)) == (
                pytest.approx(enumerate_pointlike_E(Sign(), float(d)), abs=1e-12)
            )

    def test_coin_flip_weight_kills_correlation(self):
        for d in (0.0, 1.0, math.pi):
            assert enumerate_pointlike_E(StochasticSign(0.5), d) == pytest.approx(0.0)

    def test_separation_folding(self):
        assert enumerate_pointlike_E(Sign(), 3 * math.pi / 2) == pytest.approx(
            enumerate_pointlike_E(Sign(), math.pi / 2), abs=1e-15
        )

    def test_direct_model_rejected(self):
        with pytest.raises(TypeError):
            enumerate_pointlike_E(Direct(), 0.0)


class TestEnumerateEnsemble:
    def test_values(self):
        assert enumerate_ensemble_E(0.0) == pytest.approx(-0.25)
        assert enumerate_ensemble_E(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert enumerate_ensemble_E(math.pi) == pytest.approx(0.25)

    def test_cosine_shape(self):
        for d in np.linspace(0.0, math.pi, 100):
            assert enumerate_ensemble_E(float(d)) == pytest.approx(
                -0.25 * math.cos(float(d)), abs=1e-12
            )


def tree_mean(e0, axes):
    # the 2^n outcome tree walked branch by branch: from a hemisphere of
    # sign s about theta0, measuring theta gives +1/2 with probability
    # (1 + s cos(theta - theta0)) / 2 and leaves the hemisphere of the
    # outcome's sign about theta; the full sphere gives +1/2 with 1/2
    def walk(state, remaining):
        theta = remaining[0].theta
        p_plus = 0.5 if state is None else 0.5 * (1.0 + state[1] * math.cos(theta - state[0]))
        total = 0.0
        for outcome, p_branch in ((0.5, p_plus), (-0.5, 1.0 - p_plus)):
            if len(remaining) == 1:
                total += p_branch * outcome
            else:
                total += p_branch * walk((theta, 2.0 * outcome), remaining[1:])
        return total

    state = (e0.axis.theta, float(e0.sign)) if isinstance(e0, Hemisphere) else None
    return walk(state, list(axes))


class TestSequenceMeans:
    def test_single_step(self):
        e0 = Hemisphere(Axis(0.0), 1)
        assert sequence_means(e0, [Axis(math.pi / 3)]) == [pytest.approx(0.25)]

    def test_two_steps(self):
        e0 = Hemisphere(Axis(0.0), 1)
        axes = [Axis(math.pi / 3), Axis(2 * math.pi / 3)]
        assert sequence_means(e0, axes)[-1] == pytest.approx(1.0 / 8.0)
        assert sequence_means(e0, list(reversed(axes)))[-1] == pytest.approx(-1.0 / 8.0)

    def test_repeated_axis_is_certain_at_any_depth(self):
        e0 = Hemisphere(Axis(0.4), 1)
        assert sequence_means(e0, [Axis(0.4)] * 1000) == [0.5] * 1000

    def test_full_sphere_start(self):
        assert sequence_means(FullSphere(), [Axis(1.0)]) == [0.0]
        assert sequence_means(FullSphere(), [Axis(1.0), Axis(2.0)]) == [
            0.0, pytest.approx(0.0, abs=1e-15)
        ]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sequence_means(Hemisphere(Axis(0.0), 1), [])
        with pytest.raises(TypeError):
            sequence_means(Axis(0.0), [Axis(0.0)])

    @pytest.mark.parametrize("e0", [
        Hemisphere(Axis(0.0), 1), Hemisphere(Axis(math.pi / 5), -1), FullSphere()
    ], ids=["plus", "minus", "sphere"])
    @pytest.mark.parametrize("grid", [True, False], ids=["pi_8_grid", "random"])
    def test_every_step_matches_the_full_tree(self, e0, grid):
        # the merged states against every prefix of the 2^n tree, depths 1 to 12
        gen = np.random.default_rng(17)
        for depth in range(1, 13):
            if grid:
                thetas = gen.integers(0, 16, depth) * (math.pi / 8)
            else:
                thetas = gen.uniform(0, 2 * math.pi, depth)
            axes = [Axis(float(t)) for t in thetas]
            means = sequence_means(e0, axes)
            assert len(means) == depth
            for i, mean in enumerate(means):
                assert abs(mean - tree_mean(e0, axes[: i + 1])) <= 1e-15

    def test_matches_monte_carlo_on_random_sequences(self):
        gen = np.random.default_rng(13)
        n = 40_000
        for i in range(20):
            e0 = Hemisphere(
                Axis(float(gen.uniform(0, 2 * math.pi))),
                1 if gen.uniform() < 0.5 else -1,
            )
            depth = int(gen.integers(1, 5))
            axes = [Axis(float(t)) for t in gen.uniform(0, 2 * math.pi, depth)]
            expected = sequence_means(e0, axes)[-1]
            *_, finals = sequence_outcomes(e0, axes, n, RngStream(90).split(i))
            se = float(np.std(finals, ddof=1)) / math.sqrt(n)
            assert abs(float(np.mean(finals)) - expected) <= 5.0 * max(se, 1e-12)
