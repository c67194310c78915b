import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellsphere import (
    Axis,
    RngStream,
    StochasticSign,
    angle_delta,
    project,
    quad_expectation,
    sample_sphere,
)
from bellsphere.geometry import uniform_of_words, word_threshold, words_below

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



def splitmix_child_id(parent, index):
    # the child-id hash restated on Python ints: splitmix64's finalizer of
    # parent ^ ((index + 1) * golden), every product taken mod 2^64
    mask = (1 << 64) - 1
    x = (parent ^ ((index + 1) * 0x9E3779B97F4A7C15)) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


class TestChildIds:
    @pytest.mark.parametrize("seed, stream_id", [(7, 0), (0, 2**64 - 1), (2**63 + 5, 12345)])
    def test_split_and_children_derive_the_splitmix_ids(self, seed, stream_id):
        # 5,000 indices: children derives its ids in batches of 16, 32, ...,
        # 1024, so the walk crosses several batch boundaries
        rng = RngStream(seed, stream_id)
        want = [splitmix_child_id(stream_id, i) for i in range(5000)]
        assert [rng.split(i).stream_id for i in range(5000)] == want
        walked = [child.stream_id for child, _ in zip(rng.children(), range(5000))]
        assert walked == want


# probabilities at and around the exact edges of the word rule: 0, the
# smallest subnormal, one double step, both sides of 1/2, the largest double
# below 1, and 1
EDGE_PROBABILITIES = [
    0.0, 2.0**-1074, 2.0**-53, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53, 1.0,
]


def rule_probabilities():
    # the edges, the default p_hi, particle 2's (1 -+ cos d) / 2 on the pi/16
    # grid and 1,000 random probabilities
    grid = [math.cos(angle_delta(0.0, k * math.pi / 16)) for k in range(32)]
    return [
        *EDGE_PROBABILITIES,
        StochasticSign().p_hi,
        *(0.5 * (1.0 - c) for c in grid),
        *(0.5 * (1.0 + c) for c in grid),
        *np.random.default_rng(33).random(1000).tolist(),
    ]


def double_of(words):
    # the double NumPy's Philox Generator makes of a word: its top 53 bits
    # times 2^-53 (the contract TestWords pins on NumPy itself)
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53


class TestWords:
    @pytest.mark.parametrize("key", [(0, 0), (1, 0), (7, 2**64 - 1), (2**64 - 1, 12345)])
    def test_numpy_doubles_are_the_top_53_bits_of_philox_words(self, key):
        # the word rule rests on this NumPy implementation detail: random()
        # of a Philox Generator is (random_raw() >> 11) * 2^-53, from one
        # buffered sequence, so words and doubles interleave in one order
        key = np.array(key, dtype=np.uint64)
        doubles = np.random.Generator(np.random.Philox(key=key)).random(10_001)
        words = np.random.Philox(key=key).random_raw(10_001)
        assert doubles.tobytes() == double_of(words).tobytes()
        converted = uniform_of_words(words.copy(), out=np.empty(len(words)))
        assert converted.tobytes() == doubles.tobytes()
        stream = RngStream(int(key[0]), int(key[1]))
        got, at = [], 0
        for size, as_words in ((3, True), (5, False), (1, True), (4096, False), (9, True)):
            part = stream.words(size) if as_words else stream.uniform(size)
            want = words[at:at + size]
            got.append(part.tobytes() == (want if as_words else double_of(want)).tobytes())
            at += size
        assert all(got)
        assert stream.words((2, 3)).shape == (2, 3)
        assert stream.words((2, 3)).dtype == np.uint64

    def test_thresholds_decide_what_the_doubles_decide(self):
        # twin streams, 10^5 draws each: words on one and doubles on the other
        words, doubles = RngStream(33, 1).words(100_000), RngStream(33, 1).uniform(100_000)
        for p in rule_probabilities():
            got = words_below(words, word_threshold(p))
            assert got.tobytes() == (doubles < p).tobytes(), p
            assert (~got).tobytes() == (doubles >= p).tobytes(), p

    def test_words_on_each_side_of_a_threshold(self):
        # the last word below each threshold, the threshold, and the last
        # word whose double equals the threshold's
        for p in rule_probabilities():
            threshold = word_threshold(p)
            crafted = [threshold - 1, threshold, threshold + 2**11 - 1]
            words = np.array([w for w in crafted if 0 <= w < 2**64], dtype=np.uint64)
            got = words_below(words, threshold)
            assert got.tolist() == (double_of(words) < p).tolist(), p

    def test_edges_of_the_rule(self):
        # p <= 0 (and NaN) is never met, p >= 1 always: 2^64 fits no uint64, so
        # words_below reads it as a branch, into ``out`` as well
        assert [word_threshold(p) for p in (-1.0, 0.0, math.nan)] == [0, 0, 0]
        assert [word_threshold(p) for p in (1.0, 2.0, math.inf)] == [2**64] * 3
        assert word_threshold(0.5) == 2**63  # particle 1's rule: the top bit
        assert word_threshold(2.0**-1074) == 2**11
        assert word_threshold(1.0 - 2.0**-53) == 2**64 - 2**11
        words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        assert words_below(words, 0).tolist() == [False] * 4
        out = np.zeros(4, dtype=bool)
        assert words_below(words, 2**64, out=out) is out
        assert out.tolist() == [True] * 4
