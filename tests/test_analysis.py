import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsphere import analysis, cli, detectors, verify
from bellsphere import (
    Axis,
    Direct,
    EnsembleDep,
    JointTable,
    RngStream,
    RotatingHemispheres,
    Sign,
    StaticSphere,
    StochasticSign,
    chsh,
    chsh_inequalities_hold,
    e_closed,
    enumerate_pointlike_E,
    estimate_correlation,
    fine_feasible,
    fine_feasible_many,
    lune_probability,
    measure_pair_batch,
    stochastic_sign_alt_form,
    sweep_chsh,
    v_max,
)

QUADRUPLE = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
HALF_MARGINALS = [0.5] * 8
MODELS = st.one_of(
    st.sampled_from([Direct(), Sign(), StochasticSign(), EnsembleDep()]),
    st.floats(0.5, 1.0).map(StochasticSign),
)
ANGLES = st.floats(-20.0, 20.0)
BLOCK = 4096  # pairs per Monte Carlo block, each on its own child stream


def pair_angles(quad):
    a, b, ap, bp = quad
    return [(a, b), (a, bp), (ap, b), (ap, bp)]


def table_correlations(table):
    """(E_ab, E_ab', E_a'b, E_a'b') of a joint table, summed over its atoms
    (v_1a, v_1a', v_2b, v_2b'), each value -1/2 at index 0 and +1/2 at 1."""
    v = np.meshgrid(*[np.array([-0.5, 0.5])] * 4, indexing="ij")
    return tuple(
        float((table.probs * v[i] * v[j]).sum()) for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]
    )


def table_marginals(table):
    """(P(X = +1/2), P(X = -1/2)) per observable X, in atom-axis order."""
    out = []
    for k in range(4):
        minus, plus = np.moveaxis(table.probs, k, 0).reshape(2, 8).sum(axis=1)
        out += [float(plus), float(minus)]
    return tuple(out)


class TestClosedForms:
    def test_direct(self):
        assert e_closed(Direct(), 0.0, 0.0) == pytest.approx(-1.0 / 3.0)
        assert e_closed(Direct(), 0.0, math.pi) == pytest.approx(1.0 / 3.0)

    def test_sign(self):
        assert e_closed(Sign(), 0.0, math.pi) == pytest.approx(0.25)
        assert e_closed(Sign(), 0.0, math.pi / 4) == pytest.approx(-0.125)
        assert e_closed(Sign(), 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_ensemble(self):
        assert e_closed(EnsembleDep(), 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert e_closed(EnsembleDep(), 0.0, 0.0) == pytest.approx(-0.25)

    def test_stochastic_matches_enumeration_oracle(self):
        for d in np.linspace(0.0, math.pi, 100):
            assert e_closed(StochasticSign(), 0.0, float(d)) == pytest.approx(
                enumerate_pointlike_E(StochasticSign(), float(d)), abs=1e-12
            )

    def test_stochastic_frozen_values(self):
        # frozen from the enumeration oracle at the default weights
        assert e_closed(StochasticSign(), 0.0, 0.0) == pytest.approx(-1.0 / 16.0)
        assert e_closed(StochasticSign(), 0.0, math.pi) == pytest.approx(1.0 / 16.0)

    def test_alt_form_disagrees_with_oracle(self):
        assert stochastic_sign_alt_form(0.0, 0.0) == pytest.approx(-0.125)
        assert stochastic_sign_alt_form(0.0, math.pi) == pytest.approx(0.0, abs=1e-15)
        assert abs(
            stochastic_sign_alt_form(0.0, 0.0)
            - enumerate_pointlike_E(StochasticSign(), 0.0)
        ) > 0.05

    def test_separation_is_reduced(self):
        for model in (Direct(), Sign(), StochasticSign(), EnsembleDep()):
            assert e_closed(model, 0.0, 3 * math.pi / 2) == pytest.approx(
                e_closed(model, 0.0, math.pi / 2), abs=1e-12
            )


class TestProperties:
    @given(MODELS, ANGLES, ANGLES, ANGLES, st.integers(-50, 50))
    def test_e_closed_depends_only_on_reduced_separation(self, model, a, b, shift, turns):
        e = e_closed(model, a, b)
        assert e_closed(model, b, a) == e
        assert e_closed(model, a + shift, b + shift) == pytest.approx(e, abs=1e-12)
        assert e_closed(model, a + turns * 2 * math.pi, b) == pytest.approx(e, abs=1e-12)

    @given(MODELS, st.tuples(ANGLES, ANGLES, ANGLES, ANGLES))
    def test_closed_chsh_bounds_off_grid(self, model, quad):
        # Bell's bound for the point-like models, Tsirelson's for the ensemble
        bound = 2.0 * math.sqrt(2.0) if isinstance(model, EnsembleDep) else 2.0
        assert chsh(model, quad).c_value <= bound + 1e-9


class TestLuneProbability:
    def test_values(self):
        assert lune_probability(0.5, 0.5, 0.0) == 0.0
        assert lune_probability(0.5, -0.5, 0.0) == pytest.approx(0.5)
        assert lune_probability(0.5, 0.5, math.pi / 2) == pytest.approx(0.25)

    def test_invalid_outcomes(self):
        with pytest.raises(ValueError):
            lune_probability(1.0, 0.5, 0.1)

    @given(st.floats(0.0, math.pi))
    def test_simplex(self, d):
        probs = [
            lune_probability(k, kp, d) for k in (-0.5, 0.5) for kp in (-0.5, 0.5)
        ]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert min(probs) >= -1e-12

    @given(st.floats(0.0, math.pi))
    def test_reproduces_sign_expectation(self, d):
        total = sum(
            k * kp * lune_probability(k, kp, d)
            for k in (-0.5, 0.5)
            for kp in (-0.5, 0.5)
        )
        assert total == pytest.approx(e_closed(Sign(), 0.0, d), abs=1e-12)


def traced_peak(measure):
    """Peak traced memory of ``measure()`` in bytes, after one untraced call."""
    measure()
    tracemalloc.start()
    try:
        measure()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRoleMemory:
    # the kernel measures a role a chunk at a time, so its peak is set by the
    # chunk (or one block, when a block outgrows it), not by n

    def test_a_one_axis_role_holds_one_chunk(self):
        def peak(n):
            return traced_peak(lambda: analysis._role_table(
                Sign(), RotatingHemispheres(), [1.1], [2.3], n, RngStream(90)
            ))

        small, large = peak(200_000), peak(2_000_000)
        assert abs(large - small) <= 64 * 2**10
        assert large < 1.5 * 2**20

    def test_a_sweep_role_holds_one_block(self):
        thetas = [i * math.pi / 16 for i in range(16)]

        def peak(n):
            return traced_peak(lambda: analysis._role_table(
                Direct(), StaticSphere(), thetas, thetas, n, RngStream(91)
            ))

        # the loop holds four (16, 16) tables from chunk to chunk: the running
        # totals and the last partial sums; a second block would add 0.5 MiB
        assert peak(5 * BLOCK + 1000) <= peak(BLOCK) + 16 * 2**10


class TestConeMemory:
    # the cone's 12,870 8-atom subsets go through the QR in pieces; taken in
    # one batch they peaked at 31 MiB, the most of any stage of verify

    def test_derivation_holds_one_piece(self):
        assert traced_peak(analysis._cone.__wrapped__) <= 2 * 2**20

    def test_verify_stays_within_the_quadrature_bound(self, capsys):
        def run():
            analysis._cone.cache_clear()
            assert verify.run_verification(0)

        # the sphere quadrature's one-chunk bound of tests/test_oracles.py
        assert traced_peak(run) <= 4 * 2**20


class TestEstimateCorrelation:
    def test_direct_at_sixty_degrees(self):
        record = estimate_correlation(
            Direct(), StaticSphere(), 0.0, math.pi / 3, 200_000, RngStream(71)
        )
        assert record.e_closed == pytest.approx(-1.0 / 6.0)
        assert abs(record.z_score) <= 5.0
        assert abs(record.e_hat) <= 1.0

    def test_ensemble_same_axis_is_exact(self):
        record = estimate_correlation(
            EnsembleDep(), StaticSphere(), 0.8, 0.8, 10_000, RngStream(72)
        )
        assert record.e_hat == -0.25
        assert record.std_err == 0.0
        assert record.z_score == 0.0

    def test_stochastic_at_zero_separation(self):
        record = estimate_correlation(
            StochasticSign(), StaticSphere(), 0.0, 0.0, 400_000, RngStream(73)
        )
        assert record.e_closed == pytest.approx(-1.0 / 16.0)
        assert abs(record.z_score) <= 5.0

    @settings(max_examples=40, deadline=None)
    @given(MODELS, st.integers(2, 5 * BLOCK), st.integers(0, 2**32))
    def test_blocks_reduce_in_order(self, model, n, seed):
        # block i of the estimate is measure_pair_batch on rng.split(i), and
        # the block sums are added in block order
        rng = RngStream(seed)
        total = total_sq = 0.0
        for i, start in enumerate(range(0, n, BLOCK)):
            o1, o2 = measure_pair_batch(
                model, StaticSphere(), Axis(0.1), Axis(0.9),
                min(BLOCK, n - start), rng.split(i),
            )
            prod = o1 * o2
            total += float(prod.sum())
            total_sq += float((prod * prod).sum())
        e_hat = total / n
        variance = max(total_sq - n * e_hat * e_hat, 0.0) / (n - 1)
        record = estimate_correlation(model, StaticSphere(), 0.1, 0.9, n, RngStream(seed))
        assert record.e_hat == e_hat
        assert record.std_err == math.sqrt(variance / n)

    def test_partial_final_block(self):
        # two whole blocks and a short third of one pair
        n = 2 * BLOCK + 1
        record = estimate_correlation(Sign(), StaticSphere(), 0.0, 1.0, n, RngStream(75))
        assert record.n_trials == n
        assert abs(record.z_score) <= 5.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_correlation(Sign(), StaticSphere(), 0, 0, 0, RngStream(1))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_rejected(self, theta):
        # no e_hat drawn beside a NaN e_closed: the axis itself is rejected
        for theta_a, theta_b in ((0.0, theta), (theta, 0.0)):
            with pytest.raises(ValueError, match="axis angle must be finite"):
                estimate_correlation(Sign(), StaticSphere(), theta_a, theta_b, 100, RngStream(1))


class TestChsh:
    def test_ensemble_closed_reaches_quantum_bound(self):
        result = chsh(EnsembleDep(), QUADRUPLE)
        assert result.c_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert result.violated

    def test_direct_closed_stays_below_two(self):
        result = chsh(Direct(), QUADRUPLE)
        assert result.c_value == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-9)
        assert not result.violated

    def test_sign_boundary_case(self):
        result = chsh(Sign(), QUADRUPLE)
        assert result.c_value == pytest.approx(2.0, abs=1e-12)
        assert not result.violated

    def test_monte_carlo_violation_with_error_bar(self):
        # n and rng ask for Monte Carlo: no mode keyword
        result = chsh(EnsembleDep(), QUADRUPLE, n=100_000, rng=RngStream(76))
        assert result.c_std_err is not None
        assert result.c_value > 2.0 + 3.0 * result.c_std_err
        assert result.violated

    def test_mode_validation(self):
        # Monte Carlo needs both n and rng; either alone is an error, not
        # a silent closed form
        with pytest.raises(ValueError, match="both n and rng"):
            chsh(Sign(), QUADRUPLE, n=1000)
        with pytest.raises(ValueError, match="both n and rng"):
            chsh(Sign(), QUADRUPLE, rng=RngStream(1))
        with pytest.raises(ValueError, match="both n and rng"):
            sweep_chsh(Sign(), math.pi / 4, rng=RngStream(1))
        with pytest.raises(ValueError, match="n >= 2"):  # no standard error
            chsh(Sign(), QUADRUPLE, n=1, rng=RngStream(1))
        with pytest.raises(TypeError):  # the keyword is retired
            chsh(Sign(), QUADRUPLE, mode="montecarlo", n=1000, rng=RngStream(1))

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, slot, theta):
        # closed and Monte Carlo alike: no c_value = nan with violated = False
        angles = [0.0] * 4
        angles[slot] = theta
        for scan in (lambda: chsh(Sign(), tuple(angles)),
                     lambda: chsh(Sign(), tuple(angles), n=100, rng=RngStream(1))):
            with pytest.raises(ValueError, match="axis angle must be finite"):
                scan()

    def test_angles_are_read_as_given(self):
        # the angle check leaves the values alone: an angle past 2 pi is
        # reported as passed in, not reduced
        angles = (0.0, 7.0, -1.0, 3.0)
        result = chsh(Sign(), angles)
        assert (result.a, result.b, result.a_prime, result.b_prime) == angles
        es = [e_closed(Sign(), ta, tb) for ta, tb in pair_angles(angles)]
        assert result.c_value == (abs(es[0] - es[1]) + abs(es[2] + es[3])) / 0.5**2

    def test_monte_carlo_takes_one_stream_per_role(self):
        n = BLOCK + 904  # two blocks per role
        result = chsh(EnsembleDep(), QUADRUPLE, n=n, rng=RngStream(77))
        es = [
            estimate_correlation(
                EnsembleDep(), StaticSphere(), ta, tb, n, RngStream(77).split(k)
            ).e_hat
            for k, (ta, tb) in enumerate(pair_angles(QUADRUPLE))
        ]
        assert result.c_value == (abs(es[0] - es[1]) + abs(es[2] + es[3])) / 0.5**2


class TestSweep:
    def test_maxima_by_model(self):
        best_direct, table = sweep_chsh(Direct(), math.pi / 8)
        assert table.c_values.size == table.violated.size == 8**4
        assert best_direct.c_value == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-9)
        best_sign, _ = sweep_chsh(Sign(), math.pi / 8)
        assert best_sign.c_value == pytest.approx(2.0, abs=1e-9)
        assert not best_sign.violated
        best_ens, _ = sweep_chsh(EnsembleDep(), math.pi / 8)
        assert best_ens.c_value == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert best_ens.violated

    def test_maximum_sits_at_the_standard_quadruple(self):
        best, _ = sweep_chsh(EnsembleDep(), math.pi / 8)
        deltas = sorted(
            round(abs(t), 12)
            for t in (
                best.b - best.a,
                best.a_prime - best.a,
                best.b_prime - best.b,
            )
        )
        # the maximizer family has the (pi/4, pi/4, pi/2) spacing pattern
        assert deltas[0] == pytest.approx(math.pi / 4, abs=1e-9)

    def test_step_must_divide_pi(self):
        with pytest.raises(ValueError):
            sweep_chsh(Sign(), 0.3)

    @pytest.mark.parametrize("step", [math.pi / 17, math.pi / 32, 0.0, -math.pi / 4, math.nan])
    def test_step_finer_than_pi_16_raises(self, step):
        # the m^4 values are held in memory: pi/32 would be 1,048,576 of them
        with pytest.raises(ValueError, match="pi/16"):
            sweep_chsh(Sign(), step)

    def test_closed_sweep_splits_no_streams(self, monkeypatch, capsys):
        # the CLI keys the seed's stream in every mode, but a closed sweep
        # never splits or draws from it
        def no_draws(self, *args, **kwargs):
            raise AssertionError("closed mode draws nothing")

        for name in ("split", "children", "uniform"):
            monkeypatch.setattr(RngStream, name, no_draws)
        assert cli.main(["sweep", "--model", "sign", "--step", "pi/4", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2 + 4**4
        assert captured.err.startswith("max C = 2 at angles")

    @pytest.mark.parametrize("model", [Direct(), Sign(), StochasticSign(), EnsembleDep()])
    def test_closed_rows_equal_chsh(self, model):
        best, table = sweep_chsh(model, math.pi / 4)
        quads = list(itertools.product(table.grid, repeat=4))
        results = [chsh(model, quad) for quad in quads]
        assert table.c_values.ravel().tolist() == [r.c_value for r in results]
        assert table.violated.ravel().tolist() == [r.violated for r in results]
        assert table.v_max == v_max(model)
        # the first row with the largest C, as a strict > scan finds it
        first = max(range(len(results)), key=lambda i: (results[i].c_value, -i))
        assert best == results[first]

    def test_monte_carlo_rows_take_one_estimate_per_role(self):
        # role k (ab, ab', a'b, a'b') draws n pairs once, block i on
        # rng.split(k).split(i), and measures them along every axis pair
        m, n = 4, BLOCK + 904  # two blocks per role
        roles = [(0, 1), (0, 3), (2, 1), (2, 3)]  # positions in (a, b, a', b')
        for model in (Direct(), Sign(), EnsembleDep(), StochasticSign()):
            best, table = sweep_chsh(model, math.pi / m, n=n, rng=RngStream(81))
            grid = table.grid
            if isinstance(model, StochasticSign):
                # flips are drawn per axis, so an entry is not the one-pair
                # estimate: rebuild the tables from the kernel's block sums
                axes = [Axis(t) for t in grid]
                es = []
                for role in range(4):
                    total = total_sq = 0.0
                    for i, start in enumerate(range(0, n, BLOCK)):
                        s, s2 = next(detectors.role_sums(
                            model, StaticSphere(), axes, axes,
                            min(BLOCK, n - start), [RngStream(81).split(role).split(i)],
                        ))
                        total, total_sq = total + s, total_sq + s2
                    e = total / n
                    std_err = np.sqrt((total_sq - n * e * e) / (n - 1) / n)
                    closed = np.array([[e_closed(model, x, y) for y in grid] for x in grid])
                    assert np.all(np.abs(e - closed) <= 5.0 * std_err)
                    es.append(e.tolist())
            else:
                # every entry is the one-pair estimate on the role's stream
                es = [
                    [
                        [
                            estimate_correlation(
                                model, StaticSphere(), x, y, n, RngStream(81).split(role)
                            ).e_hat
                            for y in grid
                        ]
                        for x in grid
                    ]
                    for role in range(4)
                ]
            for quad in itertools.product(range(m), repeat=4):
                row = [es[role][quad[x]][quad[y]] for role, (x, y) in enumerate(roles)]
                c_value = (abs(row[0] - row[1]) + abs(row[2] + row[3])) / v_max(model) ** 2
                assert table.c_values[quad] == c_value
                if quad == (1, 2, 1, 2):  # a = a', b = b': still four distinct draws
                    assert len(set(row)) == 4
            assert best.c_value == table.c_values.max()


class TestJointTable:
    def test_validation(self):
        bad = np.full((2, 2, 2, 2), 1.0 / 16.0)
        bad[0, 0, 0, 0] = -0.01
        with pytest.raises(ValueError, match="joint table entries must be nonnegative"):
            JointTable(bad)
        with pytest.raises(ValueError, match="joint table must sum to 1"):
            JointTable(np.full((2, 2, 2, 2), 1.0))
        with pytest.raises(ValueError):
            JointTable(np.zeros((2, 2)))
        bad[0, 0, 0, 0] = -1e-10  # within the -1e-9 tolerance, kept as 0
        bad[0, 0, 0, 1] += 1.0 / 16.0
        assert JointTable(bad).probs[0, 0, 0, 0] == 0.0

    def test_non_finite_entry_rejected(self):
        # a NaN passes no comparison, so the checks are written to accept
        # and it fails them
        probs = np.full((2, 2, 2, 2), 1.0 / 16.0)
        probs[1, 0, 1, 1] = math.nan
        with pytest.raises(ValueError, match="nonnegative"):
            JointTable(probs)
        with pytest.raises(ValueError, match="nonnegative"):
            JointTable(np.full((2, 2, 2, 2), math.nan))
        probs[1, 0, 1, 1] = math.inf
        with pytest.raises(ValueError, match="sum to 1"):
            JointTable(probs)


class TestFineFeasible:
    def test_zero_correlations_feasible(self):
        feasible, table = fine_feasible([0.0, 0.0, 0.0, 0.0], HALF_MARGINALS)
        assert feasible
        assert table_correlations(table) == pytest.approx((0, 0, 0, 0), abs=1e-9)
        assert table_marginals(table) == pytest.approx((0.5,) * 8, abs=1e-9)

    def test_sign_model_boundary_feasible(self):
        es = [e_closed(Sign(), ta, tb) for ta, tb in pair_angles(QUADRUPLE)]
        feasible, table = fine_feasible(es, HALF_MARGINALS)
        assert feasible
        assert table_correlations(table) == pytest.approx(tuple(es), abs=1e-9)

    def test_maximal_violation_infeasible(self):
        es = [e_closed(EnsembleDep(), ta, tb) for ta, tb in pair_angles(QUADRUPLE)]
        feasible, table = fine_feasible(es, HALF_MARGINALS)
        assert not feasible
        assert table is None
        assert not chsh_inequalities_hold(es)

    def test_witness_reproduces_inputs(self):
        gen = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            es = gen.uniform(-0.25, 0.25, 4)
            feasible, table = fine_feasible(es, HALF_MARGINALS)
            if not feasible:
                continue
            checked += 1
            assert table_correlations(table) == pytest.approx(tuple(es), abs=1e-9)
            assert table_marginals(table) == pytest.approx((0.5,) * 8, abs=1e-9)

    def test_witness_is_checked_as_any_table(self, monkeypatch):
        # kept without a copy, not unchecked: pseudo-inverses scaled by 2 give
        # a simplex's coefficients summing to 2, which the table check refuses
        g, simplices, pinv = analysis._cone()
        monkeypatch.setattr(analysis, "_cone", lambda: (g, simplices, 2.0 * pinv))
        with pytest.raises(ValueError, match="joint table must sum to 1"):
            fine_feasible([0.0] * 4, HALF_MARGINALS)

    def test_decision_matches_inequality_route(self):
        gen = np.random.default_rng(12)
        for _ in range(500):
            es = gen.uniform(-0.25, 0.25, 4)
            feasible, _ = fine_feasible(es, HALF_MARGINALS)
            assert feasible == chsh_inequalities_hold(es)

    def test_biased_marginals_constrain_the_table(self):
        marginals = [0.9, 0.1, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
        feasible, table = fine_feasible([0.0, 0.0, 0.0, 0.0], marginals)
        assert feasible
        assert table_marginals(table)[0] == pytest.approx(0.9, abs=1e-9)
        # perfect anti-correlation needs a balanced first marginal
        infeasible_es = [-0.25, 0.0, 0.0, 0.0]
        feasible, _ = fine_feasible(infeasible_es, marginals)
        assert not feasible

    def test_inconsistent_marginals_rejected(self):
        with pytest.raises(ValueError):
            fine_feasible([0.0] * 4, [0.6, 0.6] + [0.5] * 6)
        with pytest.raises(ValueError):
            fine_feasible([0.0] * 4, [1.2, -0.2] + [0.5] * 6)
        with pytest.raises(ValueError):
            fine_feasible([0.0] * 3, HALF_MARGINALS)

    @pytest.mark.parametrize("one, many", [
        # a marginal out of [0, 1]
        (([0.0] * 4, [1.2, -0.2] + [0.5] * 6), (np.zeros((3, 4)), [1.2, -0.2] + [0.5] * 6)),
        # a pair that does not sum to 1
        (([0.0] * 4, [0.5] * 6 + [0.6, 0.6]), (np.zeros((3, 4)), [0.5] * 6 + [0.6, 0.6])),
        # three correlations per vector
        (([0.0] * 3, HALF_MARGINALS), (np.zeros((3, 3)), HALF_MARGINALS)),
        # one vector where a batch is expected
        (([0.0] * 3, HALF_MARGINALS), (np.zeros(4), HALF_MARGINALS)),
        # seven marginals
        (([0.0] * 4, [0.5] * 7), (np.zeros((3, 4)), [0.5] * 7)),
    ])
    def test_batch_rejects_with_the_one_vector_message(self, one, many):
        with pytest.raises(ValueError) as want:
            fine_feasible(*one)
        with pytest.raises(ValueError) as got:
            fine_feasible_many(*many)
        assert str(got.value) == str(want.value)

    def test_pushed_boundary_maxima_decided_like_inequalities(self):
        # the sign model's C = 2 maxima on the pi/4 grid, pushed just inside
        # and just outside the boundary (beyond the 1e-9 residual tolerance)
        grid = [i * math.pi / 4 for i in range(4)]
        maxima = set()
        for quad in itertools.product(grid, repeat=4):
            es = [e_closed(Sign(), ta, tb) for ta, tb in pair_angles(quad)]
            if abs(chsh(Sign(), quad).c_value - 2.0) < 1e-12:
                maxima.add(tuple(round(e, 12) for e in es))
        assert len(maxima) == 36
        for es in maxima:
            for scale in (1 - 1e-7, 1 - 1e-8, 1 + 1e-8, 1 + 1e-7):
                pushed = [scale * e for e in es]
                feasible, table = fine_feasible(pushed, HALF_MARGINALS)
                assert feasible == chsh_inequalities_hold(pushed), pushed
                if feasible:
                    assert table.probs.min() >= 0.0
                    assert table_correlations(table) == pytest.approx(tuple(pushed), abs=1e-9)

    def test_constant_matrix_matches_row_by_row_construction(self):
        # restated row by row: normalization, the four correlations, then the
        # eight marginals with +1/2 first
        values = (-0.5, 0.5)
        atoms = list(itertools.product((0, 1), repeat=4))
        rows = [[1.0] * 16]
        for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            rows.append([values[atom[i]] * values[atom[j]] for atom in atoms])
        for obs_axis in range(4):
            for outcome_index in (1, 0):
                rows.append([1.0 if atom[obs_axis] == outcome_index else 0.0 for atom in atoms])
        reference = np.array(rows)
        matrix = analysis._FEASIBILITY_MATRIX
        assert matrix.dtype == reference.dtype
        assert matrix.shape == (13, 16)
        assert matrix.flags.c_contiguous
        assert matrix.tobytes() == reference.tobytes()

    def test_cone_facets_are_derived_from_the_atoms(self):
        # 24 facets (16 positivity, 8 CHSH), none typed in: each holds every
        # atom on its inner side and is tight on atoms of rank 8
        facets, _, _ = analysis._cone()
        values = facets @ analysis._FEASIBILITY_MATRIX
        assert facets.shape == (24, 13)
        assert values.min() >= -1e-12
        for row in values:
            tight = analysis._FEASIBILITY_MATRIX[:, np.abs(row) <= 1e-12]
            assert np.linalg.matrix_rank(tight) == 8

    def test_constant_matrix_is_read_only(self):
        with pytest.raises(ValueError):
            analysis._FEASIBILITY_MATRIX[0, 0] = 2.0

    def test_chsh_inequality_checker_boundary(self):
        assert chsh_inequalities_hold([0.125, -0.125, 0.125, 0.125])
        assert not chsh_inequalities_hold([0.2, -0.2, 0.2, 0.2])


@pytest.mark.parametrize("model", [Direct(), Sign(), StochasticSign()])
def test_pointlike_closed_forms_feasible_on_fine_grid(model):
    """Every quadruple on the pi/16 grid admits a joint table for the
    point-like models (their closed forms never violate the inequalities).

    Direct-model correlations live on the v_max = 1 scale and are rescaled
    into the +-1/2 table scale first, exactly as the CHSH combination
    normalizes them.  Quadruples sharing the same correlation vector are
    deduplicated before reaching the solver; the decision for one representative
    covers them all.
    """
    scale = 0.25 / v_max(model) ** 2
    grid = [i * math.pi / 16 for i in range(16)]
    vectors = {
        tuple(
            round(scale * e_closed(model, ta, tb), 12)
            for ta, tb in pair_angles(quad)
        )
        for quad in itertools.product(grid, repeat=4)
    }
    for es in vectors:
        feasible, _ = fine_feasible(es, HALF_MARGINALS)
        assert feasible, f"unexpected infeasibility at {es}"
