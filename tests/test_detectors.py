import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsphere import detectors
from bellsphere import (
    Axis,
    Direct,
    EnsembleDep,
    FullSphere,
    Hemisphere,
    RngStream,
    RotatingHemispheres,
    Sign,
    StaticSphere,
    StochasticSign,
    angle_delta,
    ensemble_mean_projection,
    measure_pair_batch,
    measure_pointlike,
    model_from_name,
    model_name,
    outcome_probabilities,
    project,
    projection_delta_alt_form,
    sequence_outcomes,
    v_max,
)
from bellsphere.geometry import uniform_of_words, word_threshold, words_below

Z_AXIS = np.array([0.0, 0.0, 1.0])


def sigma_bound(samples, expected):
    se = np.std(samples, ddof=1) / math.sqrt(len(samples))
    return abs(float(np.mean(samples)) - expected) / max(se, 1e-300)


class TestModelPlumbing:
    def test_names_round_trip(self):
        for name in ("direct", "sign", "stochastic", "ensemble"):
            assert model_name(model_from_name(name)) == name
        with pytest.raises(ValueError):
            model_from_name("laser")

    def test_v_max(self):
        assert v_max(Direct()) == 1.0
        assert v_max(Sign()) == 0.5
        assert v_max(StochasticSign()) == 0.5
        assert v_max(EnsembleDep()) == 0.5

    def test_stochastic_weight_validation(self):
        with pytest.raises(ValueError):
            StochasticSign(0.3)
        with pytest.raises(ValueError):
            StochasticSign(1.1)


class TestPointlike:
    def test_direct_returns_projection(self):
        p = project(Z_AXIS[None], Axis(math.pi / 3))
        assert measure_pointlike(Direct(), p) == pytest.approx([0.5])

    def test_sign_thresholds(self):
        assert measure_pointlike(Sign(), project(Z_AXIS[None], Axis(0.0))).tolist() == [0.5]
        assert measure_pointlike(Sign(), project(-Z_AXIS[None], Axis(0.0))).tolist() == [-0.5]

    def test_zero_projection_counts_as_positive(self):
        # x is orthogonal to the measurement plane: projection is exactly 0
        x = np.array([[1.0, 0.0, 0.0]])
        assert measure_pointlike(Sign(), project(x, Axis(1.0))).tolist() == [0.5]

    def test_sign_outcomes_are_pure_in_the_vector(self):
        p = project(np.array([[0.0, 0.6, -0.8]]), Axis(2.0))
        assert np.array_equal(measure_pointlike(Sign(), p), measure_pointlike(Sign(), p))

    def test_stochastic_agreement_frequency(self):
        js = np.tile(Z_AXIS, (1_000_000, 1))
        out = measure_pointlike(StochasticSign(), project(js, Axis(0.0)), RngStream(41))
        p_hat = float(np.mean(out > 0))
        assert abs(p_hat - 0.75) <= 5.0 * math.sqrt(0.75 * 0.25 / len(js))
        assert sigma_bound(out, 0.25) <= 5.0  # mean outcome given J_a > 0

    def test_stochastic_reduces_to_sign_at_unit_weight(self):
        js = np.tile(Z_AXIS, (100, 1))
        out = measure_pointlike(StochasticSign(1.0), project(js, Axis(0.0)), RngStream(42))
        assert np.all(out == 0.5)

    def test_ensemble_model_is_rejected(self):
        with pytest.raises(TypeError):
            measure_pointlike(EnsembleDep(), project(Z_AXIS[None], Axis(0.0)), RngStream(1))


class TestEnsembleMeasurement:
    def test_probabilities_sum_to_one_everywhere(self):
        gen = np.random.default_rng(2)
        for _ in range(1000):
            ensemble = Hemisphere(
                Axis(float(gen.uniform(0, 2 * math.pi))),
                1 if gen.uniform() < 0.5 else -1,
            )
            p_plus, p_minus = outcome_probabilities(
                ensemble, Axis(float(gen.uniform(0, 2 * math.pi)))
            )
            assert 0.0 <= p_plus <= 1.0
            assert p_plus + p_minus == 1.0

    def test_mean_preservation_constraint(self):
        # the outcome average must reproduce the ensemble mean projection
        gen = np.random.default_rng(3)
        for _ in range(20):
            ensemble = Hemisphere(
                Axis(float(gen.uniform(0, 2 * math.pi))),
                1 if gen.uniform() < 0.5 else -1,
            )
            axis = Axis(float(gen.uniform(0, 2 * math.pi)))
            p_plus, p_minus = outcome_probabilities(ensemble, axis)
            assert 0.5 * p_plus - 0.5 * p_minus == pytest.approx(
                ensemble_mean_projection(ensemble, axis), abs=1e-12
            )

    def test_aligned_measurement_is_certain(self):
        a = Axis(0.8)
        (outcomes,) = sequence_outcomes(Hemisphere(a, 1), [a], 200, RngStream(43))
        assert np.all(outcomes == 0.5)

    def test_branch_probability_at_sixty_degrees(self):
        e0 = Hemisphere(Axis(0.0), 1)
        (outcomes,) = sequence_outcomes(e0, [Axis(math.pi / 3)], 200_000, RngStream(44))
        p_hat = float(np.mean(outcomes > 0))
        assert abs(p_hat - 0.75) <= 5.0 * math.sqrt(0.75 * 0.25 / 200_000)

    def test_full_sphere_is_unbiased_for_any_axis(self):
        (outcomes,) = sequence_outcomes(FullSphere(), [Axis(2.1)], 200_000, RngStream(45))
        p_hat = float(np.mean(outcomes > 0))
        assert abs(p_hat - 0.5) <= 5.0 * math.sqrt(0.25 / 200_000)

    def test_repeatability(self):
        a = Axis(1.4)
        first, second, third = sequence_outcomes(FullSphere(), [a, a, a], 200, RngStream(46))
        assert np.array_equal(second, first)
        assert np.array_equal(third, first)


class TestMeasureSequence:
    def test_delta_bookkeeping_values(self):
        # from the + hemisphere about 0, measuring pi/3: post mean is +-1/2,
        # pre mean is cos(pi/3)/2 = 1/4
        e0 = Hemisphere(Axis(0.0), 1)
        b = Axis(math.pi / 3)
        (outcomes,) = sequence_outcomes(e0, [b], 100, RngStream(48))
        assert set(outcomes.tolist()) == {0.5, -0.5}
        # each outcome selects the hemisphere about b on its side
        pre_mean = ensemble_mean_projection(e0, b)
        assert ensemble_mean_projection(Hemisphere(b, 1), b) - pre_mean == pytest.approx(0.25)
        assert ensemble_mean_projection(Hemisphere(b, -1), b) - pre_mean == pytest.approx(-0.75)

    def test_alt_form_disagrees_with_direct_difference(self):
        e0 = Hemisphere(Axis(0.0), 1)
        b = Axis(math.pi / 3)
        assert projection_delta_alt_form(e0, b, 0.5) == pytest.approx(-0.75)
        assert projection_delta_alt_form(e0, b, -0.5) == pytest.approx(0.25)

    def test_sequence_means_match_oracle(self):
        from bellsphere import sequence_means

        e0 = Hemisphere(Axis(0.0), 1)
        for axes, seed in (([Axis(math.pi / 3), Axis(2 * math.pi / 3)], 49),
                           ([Axis(2 * math.pi / 3), Axis(math.pi / 3)], 50)):
            steps = sequence_outcomes(e0, axes, 300_000, RngStream(seed))
            for outcomes, mean in zip(steps, sequence_means(e0, axes), strict=True):
                assert sigma_bound(outcomes, mean) <= 5.0

    def test_scalar_sequence_agrees_with_oracle(self):
        from bellsphere import sequence_means

        e0 = Hemisphere(Axis(0.2), -1)
        axes = [Axis(1.0), Axis(2.4)]
        *_, finals = sequence_outcomes(e0, axes, 20_000, RngStream(51))
        assert sigma_bound(finals, sequence_means(e0, axes)[-1]) <= 5.0

    @pytest.mark.parametrize(
        "e0", [Hemisphere(Axis(0.3), -1), FullSphere()], ids=["minus", "sphere"]
    )
    def test_steps_match_reference_bit_for_bit(self, e0):
        # the steps restated as one (steps, n) fill: step i draws its n
        # uniforms after step i - 1's, and keeps each trial's sign with
        # probability (1 + cos(delta)) / 2 (+1/2 with 1/2 from the full sphere)
        axes = [Axis(t) for t in (0.3, 1.1, 1.1, 4.0, 2.5 * math.pi, 0.2)]
        n = 1000
        rng = RngStream(52)
        reference = np.empty((len(axes), n))
        if isinstance(e0, Hemisphere):
            theta, signs = e0.axis.theta, np.full(n, float(e0.sign))
        else:
            theta = None
        for i, axis in enumerate(axes):
            if theta is None:
                p_plus = np.full(n, 0.5)
            else:
                p_plus = 0.5 * (1.0 + signs * math.cos(angle_delta(theta, axis.theta)))
            signs = np.where(rng.uniform(n) < p_plus, 1.0, -1.0)
            reference[i] = 0.5 * signs
            theta = axis.theta
        steps = list(sequence_outcomes(e0, axes, n, RngStream(52)))
        assert len(steps) == len(axes)
        assert all(step.shape == (n,) for step in steps)
        assert np.stack(steps).tobytes() == reference.tobytes()


class TestMeasurePair:
    def test_ensemble_outcomes_opposite_on_same_axis(self):
        a = Axis(0.6)
        o1, o2 = measure_pair_batch(
            EnsembleDep(), StaticSphere(), a, a, 100_000, RngStream(52)
        )
        assert np.all(o1 == -o2)

    def test_ensemble_correlation_at_quarter_turn(self):
        a, b = Axis(0.0), Axis(math.pi / 4)
        o1, o2 = measure_pair_batch(
            EnsembleDep(), StaticSphere(), a, b, 400_000, RngStream(53)
        )
        assert sigma_bound(o1 * o2, -0.25 * math.cos(math.pi / 4)) <= 5.0

    def test_sign_correlation_values(self):
        # E = -1/4 + d/2pi: -1/8 at pi/4 and 0 at pi/2
        for d, expected in ((math.pi / 4, -0.125), (math.pi / 2, 0.0)):
            o1, o2 = measure_pair_batch(
                Sign(), StaticSphere(), Axis(0.0), Axis(d), 400_000, RngStream(54)
            )
            assert sigma_bound(o1 * o2, expected) <= 5.0

    def test_conditional_expectation_tracks_distant_outcome(self):
        # mean of the second outcome conditioned on the first equals
        # -k cos(delta): outcome dependence through the conserved ensembles
        a, b = Axis(0.0), Axis(math.pi / 4)
        o1, o2 = measure_pair_batch(
            EnsembleDep(), StaticSphere(), a, b, 400_000, RngStream(55)
        )
        for k in (0.5, -0.5):
            sel = o2[o1 == k]
            assert sigma_bound(sel, -k * math.cos(math.pi / 4)) <= 5.0

    def test_parameter_independence_of_marginal(self):
        a = Axis(0.3)
        n = 100_000
        for i in range(8):
            b = Axis(i * math.pi / 8)
            o1, _ = measure_pair_batch(
                EnsembleDep(), StaticSphere(), a, b, n, RngStream(56).split(i)
            )
            p_hat = float(np.mean(o1 > 0))
            assert abs(p_hat - 0.5) <= 5.0 * math.sqrt(0.25 / n)

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from([Direct(), Sign(), StochasticSign(), EnsembleDep()]),
        st.sampled_from([StaticSphere(), RotatingHemispheres()]),
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
        st.integers(1, 300),
        st.integers(0, 2**32),
    )
    def test_distant_axis_leaves_near_outcomes_bit_identical(
        self, model, source, a, b, b_other, n, seed
    ):
        o1, _ = measure_pair_batch(model, source, Axis(a), Axis(b), n, RngStream(seed))
        o1_other, _ = measure_pair_batch(
            model, source, Axis(a), Axis(b_other), n, RngStream(seed)
        )
        assert o1.tobytes() == o1_other.tobytes()

    def test_pair_protocol_is_order_symmetric(self):
        # measuring particle 2 first and conditioning particle 1 yields the
        # same joint law (Bayes symmetry of the conserved-ensemble protocol)
        a, b = Axis(0.0), Axis(1.0)
        n = 200_000
        o1, o2 = measure_pair_batch(EnsembleDep(), StaticSphere(), a, b, n, RngStream(57))

        rng = RngStream(58)
        draws = rng.uniform((n, 2))
        o2_first = np.where(draws[:, 0] < 0.5, 0.5, -0.5)
        p1_plus = 0.5 * (1.0 - 2.0 * o2_first * math.cos(1.0))
        o1_second = np.where(draws[:, 1] < p1_plus, 0.5, -0.5)

        for k1 in (0.5, -0.5):
            for k2 in (0.5, -0.5):
                f_forward = float(np.mean((o1 == k1) & (o2 == k2)))
                f_reverse = float(np.mean((o1_second == k1) & (o2_first == k2)))
                se = math.sqrt(2 * 0.25 / n)
                assert abs(f_forward - f_reverse) <= 5.0 * se

    def test_scalar_pair_entry_point(self):
        # one pair is a batch of one
        a = Axis(0.5)
        o1, o2 = measure_pair_batch(EnsembleDep(), StaticSphere(), a, a, 1, RngStream(59))
        assert o1.shape == (1,) and o1[0] == -o2[0]
        o1, o2 = measure_pair_batch(Sign(), StaticSphere(), a, a, 1, RngStream(60))
        assert o1[0] == -o2[0]  # exact anti-correlation on a common axis

    def test_direct_pair_bounded_outcomes(self):
        o1, o2 = measure_pair_batch(
            Direct(), StaticSphere(), Axis(0.1), Axis(0.7), 10_000, RngStream(61)
        )
        assert float(np.max(np.abs(o1))) <= 1.0
        assert float(np.max(np.abs(o2))) <= 1.0


def visibility_law(ensemble, axis):
    # a Werner-state dial at q = 0.6: P(+1/2) = 1/2 + 0.6 mean
    p_plus = 0.5 + 0.6 * ensemble_mean_projection(ensemble, axis)
    return p_plus, 1.0 - p_plus


class TestOneHomeOfTheLaw:
    """Every draw of an ensemble outcome reads ``outcome_probabilities``:
    swapped for a law of visibility 0.6, each reader follows it."""

    AXES_A = [Axis(0.4), Axis(2.0)]
    AXES_B = [Axis(0.0), Axis(1.1), Axis(3.5)]

    def test_role_sums_cut_at_the_law(self, monkeypatch):
        monkeypatch.setattr(detectors, "outcome_probabilities", visibility_law)
        n, streams = 9001, iter([RngStream(70, i) for i in range(3)])
        # one table per chunk; sums of +-1/4 are exact in any grouping
        s = sum(t for t, _ in detectors.role_sums(
            EnsembleDep(), StaticSphere(), self.AXES_A, self.AXES_B, n, streams
        ))
        # the same words, block by block, recounted against the law's cuts
        words = np.concatenate(
            [RngStream(70, i).words((min(4096, n - 4096 * i), 2)) for i in range(3)]
        )
        u = uniform_of_words(words, out=np.empty(words.shape))
        plus1 = u[:, 0] < 0.5
        for i, a in enumerate(self.AXES_A):
            for j, b in enumerate(self.AXES_B):
                low = visibility_law(Hemisphere(a, -1), b)[0]
                high = visibility_law(Hemisphere(a, 1), b)[0]
                plus2 = np.where(plus1, u[:, 1] < low, u[:, 1] < high)
                assert 0.25 * (n - 2 * np.count_nonzero(plus1 != plus2)) == s[i, j]

    @pytest.mark.parametrize(
        "e0", [Hemisphere(Axis(0.3), -1), FullSphere()], ids=["minus", "sphere"]
    )
    def test_sequence_outcomes_read_the_law(self, e0, monkeypatch):
        monkeypatch.setattr(detectors, "outcome_probabilities", visibility_law)
        axes, n = [Axis(t) for t in (0.3, 1.1, 4.0, 0.2)], 5000
        steps = sequence_outcomes(e0, axes, n, RngStream(71))
        rng, ensembles = RngStream(71), [e0] * n
        for axis, outcomes in zip(axes, steps):
            p_plus = [visibility_law(e, axis)[0] for e in ensembles]
            words = rng.words(n)
            plus = [words_below(w, word_threshold(p)) for w, p in zip(words, p_plus)]
            assert np.array_equal(outcomes, np.subtract(plus, 0.5))
            ensembles = [Hemisphere(axis, 1 if k else -1) for k in plus]

    def test_measure_pair_batch_reads_the_law(self, monkeypatch):
        monkeypatch.setattr(detectors, "outcome_probabilities", visibility_law)
        n = 5000
        for a in self.AXES_A:
            for b in self.AXES_B:
                o1, o2 = measure_pair_batch(EnsembleDep(), StaticSphere(), a, b, n, RngStream(72))
                u = RngStream(72).uniform((n, 2))
                plus1 = u[:, 0] < visibility_law(FullSphere(), a)[0]
                low = visibility_law(Hemisphere(a, -1), b)[0]
                high = visibility_law(Hemisphere(a, 1), b)[0]
                plus2 = np.where(plus1, u[:, 1] < low, u[:, 1] < high)
                assert np.array_equal(o1, np.subtract(plus1, 0.5))
                assert np.array_equal(o2, np.subtract(plus2, 0.5))
