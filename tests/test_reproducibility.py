"""Byte-level reproducibility of the Monte Carlo kernel and of ``verify``.

Three guards.  A golden digest pins the data rows of a fixed set of CLI runs,
so any change to a drawn bit, an outcome or a block sum shows up as a new
SHA-256.  A second digest pins ``verify``'s whole report at four seeds.  A
reference kernel, restated here as the package first wrote it
(``np.where`` outcomes, float product sums and a fresh ``rng.split(i)`` per
4096-pair block), pins ``measure_pair_batch``, the kernel's block sums and
the role tables bit for bit; the draws, shares and feasibility decisions of
``verify``'s checks are pinned the same way against their first, one-batch
forms, as are the cone's facets, simplices and pseudo-inverses, and the
facet route's feasibility decisions against nonnegative least squares.  The
+-1/2 models' float32 screen is held to its error bound and to the reference
through its float64 fallback.
"""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsphere import (
    Axis,
    Direct,
    EnsembleDep,
    Hemisphere,
    RngStream,
    RotatingHemispheres,
    Sign,
    StaticSphere,
    StochasticSign,
    angle_delta,
    measure_pair_batch,
)
from bellsphere import analysis, detectors, verify
from bellsphere.analysis import (
    _FEASIBILITY_MATRIX,
    _role_table,
    chsh_inequalities_hold,
    e_closed,
    fine_feasible,
    fine_feasible_many,
)
from bellsphere.cli import main
from bellsphere.distributions import draw_width, pair_yz

MODEL_NAMES = ("direct", "sign", "stochastic", "ensemble")
SOURCE_NAMES = ("sphere", "rotating")
MODELS = [Direct(), Sign(), StochasticSign(), EnsembleDep()]
SOURCES = [StaticSphere(), RotatingHemispheres()]
TWO_PI = 2.0 * math.pi
BLOCK = 4096  # pairs per Monte Carlo block


def golden_commands():
    for model, source in itertools.product(MODEL_NAMES, SOURCE_NAMES):
        # one short block; three blocks in one chunk; three chunks, the last
        # ending on a short block
        for trials in ("1001", "9001", "40000"):
            yield [
                "correlate", "--model", model, "--source", source,
                "--theta-a", "pi/5", "--theta-b", "2", "--trials", trials, "--seed", "11",
            ]
        yield [
            "chsh", "--model", model, "--source", source, "--mode", "montecarlo",
            "--angles", "0,pi/4,pi/2,3pi/4", "--trials", "5000", "--seed", "12",
        ]
        yield [
            "sweep", "--model", model, "--source", source, "--mode", "montecarlo",
            "--step", "pi/4", "--trials", "3000", "--seed", "13",
        ]


# SHA-256 over every golden command and its stdout data rows in CSV and in
# JSON (whose floats carry every bit), with the "# generated_at" stamp left
# out.  Recorded with 4096-pair blocks on a kernel that the reference below
# pins bit for bit; it moves only with a documented change of the Monte Carlo
# streams.
GOLDEN_DIGEST = "0e08b6aecd4be25aa29676ad286c8112c3616e12aba4f7dba73d5ec25e37cb4e"


def test_golden_data_rows(capsys):
    digest = hashlib.sha256()
    for argv in golden_commands():
        for fmt in ("csv", "json"):
            assert main([*argv, "--format", fmt]) == 0
            out = capsys.readouterr().out
            digest.update(" ".join([*argv, fmt]).encode() + b"\n")
            digest.update(
                "".join(
                    line for line in out.splitlines(keepends=True)
                    if not line.startswith("# generated_at")
                ).encode()
            )
    assert digest.hexdigest() == GOLDEN_DIGEST


# the verify runs whose report, noisy-sign grid included, is pinned: the
# CLI's default seed and three others
VERIFY_RUNS = (
    ["verify", "--seed", "0"],
    ["verify", "--seed", "5"],
    ["verify", "--seed", "202"],
    ["verify", "--seed", "7"],
)

# SHA-256 over every verify run's argv and its whole stdout
VERIFY_DIGEST = "94a6871a0dc0a65390f8f20b521f7b8f95b074be6c66d4660c19d203317dc5ba"


def test_golden_verify_report(capsys):
    digest = hashlib.sha256()
    for argv in VERIFY_RUNS:
        assert main(argv) == 0
        digest.update(" ".join(argv).encode() + b"\n")
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == VERIFY_DIGEST


# -- the reference kernel ------------------------------------------------------


def reference_pair(source, rng, n):
    if isinstance(source, StaticSphere):
        draws = rng.uniform((n, 2))
        z = 2.0 * draws[:, 0] - 1.0
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return r * np.sin(TWO_PI * draws[:, 1]), z
    draws = rng.uniform((n, 4))
    beta = TWO_PI * draws[:, 0]
    side = np.where(draws[:, 1] < 0.5, 1.0, -1.0)
    zf = side * (1.0 - draws[:, 2])
    yf = np.sqrt(np.maximum(1.0 - zf * zf, 0.0)) * np.sin(TWO_PI * draws[:, 3])
    sin_b, cos_b = np.sin(beta), np.cos(beta)
    return zf * sin_b + yf * cos_b, zf * cos_b - yf * sin_b


def reference_outcomes(model, p, rng):
    if isinstance(model, Direct):
        return p
    base = np.where(p >= 0.0, 0.5, -0.5)
    if isinstance(model, Sign):
        return base
    return np.where(rng.uniform(p.shape) < model.p_hi, base, -base)


def reference_rows(model, source, axes_a, axes_b, n, rng):
    """(o1, o2) per a-axis: o1 (n,), o2 (m_b, n)."""
    if isinstance(model, EnsembleDep):
        draws = rng.uniform((n, 2))
        o1 = np.where(draws[:, 0] < 0.5, 0.5, -0.5)
        rows = []
        for a in axes_a:
            cos_ab = np.array([[math.cos(angle_delta(a.theta, b.theta))] for b in axes_b])
            rows.append((o1, np.where(draws[:, 1] < 0.5 * (1.0 - 2.0 * o1 * cos_ab), 0.5, -0.5)))
        return rows
    y, z = reference_pair(source, rng, n)

    def projections(axes, sign):
        sin_t = np.array([[sign * math.sin(axis.theta)] for axis in axes])
        cos_t = np.array([[sign * math.cos(axis.theta)] for axis in axes])
        return y * sin_t + z * cos_t

    o1 = reference_outcomes(model, projections(axes_a, 1.0), rng)
    o2 = reference_outcomes(model, projections(axes_b, -1.0), rng)
    return [(o1[i], o2) for i in range(len(axes_a))]


def reference_sums(model, source, axes_a, axes_b, n, rng):
    rows = reference_rows(model, source, axes_a, axes_b, n, rng)
    s = np.empty((len(axes_a), len(axes_b)))
    s2 = np.empty_like(s)
    for i, (o1, o2) in enumerate(rows):
        prod = o1 * o2
        s[i] = prod.sum(axis=-1)
        s2[i] = (prod * prod).sum(axis=-1)
    return s, s2


def reference_role_table(model, source, thetas_a, thetas_b, n, rng):
    axes_a, axes_b = [Axis(t) for t in thetas_a], [Axis(t) for t in thetas_b]
    total = total_sq = 0.0
    for i, start in enumerate(range(0, n, BLOCK)):
        s, s2 = reference_sums(model, source, axes_a, axes_b, min(BLOCK, n - start), rng.split(i))
        total, total_sq = total + s, total_sq + s2
    e_hat = total / n
    variance = np.maximum(total_sq - n * e_hat * e_hat, 0.0) / (n - 1)
    return e_hat, np.sqrt(variance / n)


def block_sums(model, source, axes_a, axes_b, n, rng):
    """The kernel's (s, s2) tables of one block of 1 <= ``n`` <= 4096 pairs on ``rng``."""
    return next(detectors.role_sums(model, source, axes_a, axes_b, n, [rng]))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


TABLES = {
    "1x1": ([1.1], [2.3]),
    "2x3": ([0.0, 0.7], [0.0, 2.0, 4.5]),
    "4x4": ([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4],) * 2,
}


# role tables add a 16 x 16 sweep role, and runs over several blocks and
# chunks, most ending on a short last block: a chunk holds 32,768
# projections, 16,384 pairs of a 1 x 1 table and one block of the others
ROLE_TABLES = {**TABLES, "16x16": ([i * math.pi / 16 for i in range(16)],) * 2}
ROLE_RUNS = (2, 9, 5000, 9001, 40_000)


class TestKernelAgainstReference:
    @pytest.mark.parametrize("source", SOURCES, ids=SOURCE_NAMES)
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_NAMES)
    @pytest.mark.parametrize("n", [0, 1, 2, 777, 4096])
    def test_block_sums_and_outcomes(self, model, source, n):
        for k, (thetas_a, thetas_b) in enumerate(TABLES.values()):
            axes_a, axes_b = [Axis(t) for t in thetas_a], [Axis(t) for t in thetas_b]
            if n == 0:  # no pairs, no block
                assert not list(
                    detectors.role_sums(model, source, axes_a, axes_b, 0, [RngStream(5, k)])
                )
                continue
            got = block_sums(model, source, axes_a, axes_b, n, RngStream(5, k))
            want = reference_sums(model, source, axes_a, axes_b, n, RngStream(5, k))
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        a, b = Axis(0.4), Axis(2.9)
        o1, o2 = measure_pair_batch(model, source, a, b, n, RngStream(6))
        (want_o1, want_o2), = reference_rows(model, source, [a], [b], n, RngStream(6))
        assert same_bits(o1, want_o1) and same_bits(o2, want_o2[0])

    @pytest.mark.parametrize("source", SOURCES, ids=SOURCE_NAMES)
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_NAMES)
    @pytest.mark.parametrize("table", ROLE_TABLES, ids=list(ROLE_TABLES))
    def test_role_tables(self, model, source, table):
        thetas_a, thetas_b = ROLE_TABLES[table]
        for n in ROLE_RUNS:
            got = _role_table(model, source, thetas_a, thetas_b, n, RngStream(8, 3))
            want = reference_role_table(model, source, thetas_a, thetas_b, n, RngStream(8, 3))
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), n

    @pytest.mark.parametrize("m_a, m_b", [(4, 4), (16, 16)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_projections_are_the_whole_array_formula(self, m_a, m_b, dtype):
        # each row adds its z term through a row-sized scratch; the bits are
        # those of the (m, n) temporary it replaces
        gen = np.random.default_rng(21)
        axes = [Axis(t) for t in gen.uniform(0.0, TWO_PI, size=m_a + m_b)]
        y, z = (gen.uniform(-1.0, 1.0, size=4097).astype(dtype) for _ in range(2))
        signs = [1.0] * m_a + [-1.0] * m_b
        sin_t = np.array([[s * math.sin(t.theta)] for s, t in zip(signs, axes)], dtype=dtype)
        cos_t = np.array([[s * math.cos(t.theta)] for s, t in zip(signs, axes)], dtype=dtype)
        want = y * sin_t
        want += z * cos_t
        assert same_bits(detectors._projections(y, z, axes[:m_a], axes[m_a:]), want)


# -- the word rule's edges against the float rule ------------------------------


def float_rule_role_sums(model, source, axes_a, axes_b, n, streams):
    # the reference kernel as role_sums' stand-in: every draw a double, each
    # block's sums on its own stream
    for start, stream in zip(range(0, n, BLOCK), streams):
        yield reference_sums(model, source, axes_a, axes_b, min(BLOCK, n - start), stream)


def float_rule_sequence(e0, axes, n, rng):
    # sequence_outcomes with each step's doubles compared with 1/2 + o c
    if isinstance(e0, Hemisphere):
        theta, outcomes = e0.axis.theta, np.full(n, 0.5 * e0.sign)
    else:
        theta = None
    for axis in axes:
        if theta is None:
            p_plus = np.full(n, 0.5)
        else:
            p_plus = 0.5 + outcomes * math.cos(angle_delta(theta, axis.theta))
        outcomes = np.where(rng.uniform(n) < p_plus, 0.5, -0.5)
        yield outcomes
        theta = axis.theta


def stdout_rows(capsys, argv):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("# generated_at"))


WORD_EDGE_RUNS = [
    # p_hi = 1 keeps every sign (threshold 2^64), p_hi = 1/2 is the top bit
    ["correlate", "--model", "stochastic", "--p-hi", "1", "--theta-a", "0", "--theta-b", "1",
     "--trials", "9001"],
    ["correlate", "--model", "stochastic", "--p-hi", "0.5", "--theta-a", "0", "--theta-b", "0",
     "--trials", "5000", "--source", "rotating"],
    ["chsh", "--model", "stochastic", "--p-hi", "1", "--mode", "montecarlo",
     "--angles", "0,pi/4,pi/2,3pi/4", "--trials", "5000"],
    # cos d = +-1: particle 2's thresholds are 0 and 2^64
    ["correlate", "--model", "ensemble", "--theta-a", "pi/3", "--theta-b", "pi/3",
     "--trials", "20000"],
    ["correlate", "--model", "ensemble", "--theta-a", "0", "--theta-b", "pi", "--trials", "20000"],
    ["sweep", "--model", "ensemble", "--mode", "montecarlo", "--step", "pi/4", "--trials", "3000"],
]
SEQUENTIAL_EDGE_RUNS = [
    # consecutive axes equal or opposite: 1/2 + o c is 0 or 1
    ["sequential", "--axes", "0,0,pi,pi", "--trials", "5000"],
    ["sequential", "--axes", "0,0,pi,pi", "--trials", "5000", "--initial", "sphere"],
    ["sequential", "--axes", "pi,0,0,pi/2", "--trials", "5000", "--initial-sign", "-1"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", WORD_EDGE_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_word_rule_edges_print_the_float_rule(argv, fmt, capsys, monkeypatch):
    got = stdout_rows(capsys, [*argv, "--format", fmt])
    monkeypatch.setattr(analysis, "role_sums", float_rule_role_sums)
    assert stdout_rows(capsys, [*argv, "--format", fmt]) == got


@pytest.mark.parametrize("argv", SEQUENTIAL_EDGE_RUNS, ids=lambda argv: " ".join(argv[:5]))
def test_sequential_edges_print_the_float_rule(argv, capsys, monkeypatch):
    got = stdout_rows(capsys, argv)
    monkeypatch.setattr(detectors, "sequence_outcomes", float_rule_sequence)
    assert stdout_rows(capsys, argv) == got


# -- the +-1/2 models' float32 screen -------------------------------------------


def recording_pair_yz(monkeypatch):
    """The index arrays of the pairs that the kernel evaluates again
    in float64, recorded as they are passed."""
    recomputed = []

    def recording(source, draws, sin, cos, index=slice(None)):
        if not isinstance(index, slice):
            recomputed.append(np.array(index))
        return pair_yz(source, draws, sin, cos, index)

    monkeypatch.setattr(detectors, "pair_yz", recording)
    return recomputed


SIGN_MODELS = [Sign(), StochasticSign()]


class TestFloat32Screen:
    def test_float32_trig_error_is_far_inside_the_band(self):
        x = np.random.default_rng(18).uniform(0.0, TWO_PI, size=2**20)
        for trig in (np.sin, np.cos):
            err = np.abs(trig(x.astype(np.float32)).astype(np.float64) - trig(x))
            assert float(err.max()) < detectors._DOUBT / 16, trig

    @pytest.mark.parametrize("source", SOURCES, ids=SOURCE_NAMES)
    def test_screened_projections_are_within_the_derived_bound(self, source):
        # the docstring of detectors._signs bounds |p' - p| by 2^-19
        axes = [Axis(t) for t in np.random.default_rng(19).uniform(0.0, TWO_PI, size=8)]

        def float32(trig):
            return lambda x, out=None: trig(x.astype(np.float32), out=out)

        draws = RngStream(19).uniform((2**18, draw_width(source)))
        y, z = pair_yz(source, draws, float32(np.sin), float32(np.cos))
        screened = detectors._projections(y.astype(np.float32), z.astype(np.float32), axes, [])
        exact = detectors._projections(*pair_yz(source, draws, np.sin, np.cos), axes, [])
        assert float(np.abs(screened.astype(np.float64) - exact).max()) < 2.0**-19

    @pytest.mark.parametrize("source", SOURCES, ids=SOURCE_NAMES)
    @pytest.mark.parametrize("model", SIGN_MODELS, ids=["sign", "stochastic"])
    @pytest.mark.parametrize("table", TABLES, ids=list(TABLES))
    def test_every_pair_through_the_fallback_is_the_reference(
        self, model, source, table, monkeypatch
    ):
        monkeypatch.setattr(detectors, "_DOUBT", math.inf)
        recomputed = recording_pair_yz(monkeypatch)
        thetas_a, thetas_b = TABLES[table]
        for n in (2, 777, 9001):
            recomputed.clear()
            got = _role_table(model, source, thetas_a, thetas_b, n, RngStream(9, n))
            want = reference_role_table(model, source, thetas_a, thetas_b, n, RngStream(9, n))
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            assert sum(len(index) for index in recomputed) == n

    @pytest.mark.parametrize("source", SOURCES, ids=SOURCE_NAMES)
    @pytest.mark.parametrize("model", SIGN_MODELS, ids=["sign", "stochastic"])
    def test_a_projection_near_zero_goes_through_the_fallback(
        self, model, source, monkeypatch
    ):
        recomputed = recording_pair_yz(monkeypatch)
        n, k = 777, 123
        y, z = reference_pair(source, RngStream(10), n)
        # the axis perpendicular to pair k's in-plane components
        edge = Axis(math.atan2(-z[k], y[k]))
        p_k = y[k] * math.sin(edge.theta) + z[k] * math.cos(edge.theta)
        assert abs(p_k) < 1e-9
        for axes_a, axes_b in (([edge, Axis(1.0)], [Axis(2.0)]), ([Axis(0.5)], [Axis(3.0), edge])):
            recomputed.clear()
            got = block_sums(model, source, axes_a, axes_b, n, RngStream(10))
            want = reference_sums(model, source, axes_a, axes_b, n, RngStream(10))
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            assert len(recomputed) == 1 and k in recomputed[0]

    def test_seeded_sweep_is_the_reference_and_uses_the_fallback(self, monkeypatch):
        recomputed = recording_pair_yz(monkeypatch)
        gen = np.random.default_rng(20)
        for i in range(160):
            model, source = SIGN_MODELS[i % 2], SOURCES[i // 2 % 2]
            axes_a, axes_b = (
                [Axis(t) for t in gen.uniform(0.0, TWO_PI, size=gen.integers(1, 5))]
                for _ in range(2)
            )
            n = int(gen.integers(1, 4097))
            got = block_sums(model, source, axes_a, axes_b, n, RngStream(20, i))
            want = reference_sums(model, source, axes_a, axes_b, n, RngStream(20, i))
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), i
        assert recomputed


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.lists(st.tuples(st.integers(0, 9), st.integers(1, 4)), min_size=1, max_size=6),
)
def test_children_draw_what_split_draws(seed, stream_id, shapes):
    # a child is re-keyed in place; draws of 0-9 rows leave Philox's
    # four-word output buffer part used, which the next child must not see
    rng = RngStream(seed, stream_id)
    for index, (child, shape) in enumerate(zip(rng.children(), shapes)):
        fresh = rng.split(index)
        assert (child.seed, child.stream_id) == (fresh.seed, fresh.stream_id)
        for size in (shape, shape[0]):
            assert same_bits(child.uniform(size), fresh.uniform(size))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2**16), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_quarter_sums_are_exact_counts(n, p_plus, seed):
    # every partial sum of +-1/4 terms is a multiple of 1/4 far below 2^51,
    # so the float sum is the exact count in any order of addition
    prod = np.where(np.random.default_rng(seed).random(n) < p_plus, 0.25, -0.25)
    k = int(np.count_nonzero(prod < 0.0))
    assert same_bits(0.25 * (n - 2 * k), np.sum(prod))
    assert same_bits(n / 16, np.sum(prod * prod))


# -- verify's checks against their one-batch forms ------------------------------


@pytest.mark.parametrize("seed", [0, 5, 7, 202, 2**64 - 1])
def test_plus_share_is_the_one_batch_share(seed):
    # the distant-axis check draws each axis's pairs in 4096-pair pieces and
    # counts particle 1's +1/2 outcomes from the draws alone: the share is
    # that of one batch of measured pairs along every distant axis
    rng = RngStream(seed)
    a = Axis(0.3)
    for i, n in itertools.product(range(8), (100_000, 1, 4096, 4097, 12_345)):
        b = Axis(i * math.pi / 8)
        got = verify._plus_share(n, rng.split(400 + i))
        o1, _ = measure_pair_batch(EnsembleDep(), StaticSphere(), a, b, n, rng.split(400 + i))
        assert same_bits(got, np.mean(o1 > 0))


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_cross_check_draws_are_per_call_draws(seed, monkeypatch):
    # the cross-check draws all its vectors at once and decides them in one
    # batch; each row is the 4 doubles that a draw of size 4 per vector gave
    batches, singles = [], []

    def recording_many(es, marginals):
        batches.append(np.array(es))
        return fine_feasible_many(es, marginals)

    def recording(es, marginals):
        singles.append(np.array(es))
        return fine_feasible(es, marginals)

    monkeypatch.setattr(analysis, "fine_feasible_many", recording_many)
    monkeypatch.setattr(analysis, "fine_feasible", recording)
    ok, _ = verify._check_feasibility_cross(RngStream(seed), 300)
    assert ok
    # NumPy's own uniform(-1/4, 1/4) on the stream's generator, 4 at a call
    gen = RngStream(seed).split(600)._gen
    want = [gen.uniform(-0.25, 0.25, size=4) for _ in range(300)]
    assert len(batches) == 1 and batches[0].shape == (300, 4)
    assert all(same_bits(got, vec) for got, vec in zip(batches[0], want))
    # the maximal violation and the C = 2 point are still decided one by one
    quad = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    pairs = [(quad[0], quad[1]), (quad[0], quad[3]), (quad[2], quad[1]), (quad[2], quad[3])]
    assert len(singles) == 2
    for got, model in zip(singles, (EnsembleDep(), Sign())):
        assert same_bits(got, np.array([e_closed(model, ta, tb) for ta, tb in pairs]))


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_cross_check_pieces_are_the_one_draw_vectors(seed, monkeypatch):
    # past one piece the vectors are drawn and decided 4096 at a time; the
    # pieces, joined, are the doubles of one draw of all the vectors
    batches = []

    def recording_many(es, marginals):
        batches.append(np.array(es))
        return fine_feasible_many(es, marginals)

    monkeypatch.setattr(analysis, "fine_feasible_many", recording_many)
    n = 2 * BLOCK + 5
    ok, detail = verify._check_feasibility_cross(RngStream(seed), n)
    assert ok and detail.startswith(f"{n} random vectors, 0 disagreements;")
    assert [len(batch) for batch in batches] == [BLOCK, BLOCK, 5]
    want = 0.5 * RngStream(seed).split(600).uniform((n, 4)) - 0.25
    assert same_bits(np.concatenate(batches), want)


def reference_fine_feasible(correlations, marginals):
    # the decision as first written: nonnegative least squares, accepted
    # when max |A x - b| is at most 1e-9
    from scipy.optimize import nnls

    b_eq = np.array([1.0, *[float(e) for e in correlations], *[float(p) for p in marginals]])
    x, _ = nnls(_FEASIBILITY_MATRIX, b_eq)
    return float(np.max(np.abs(_FEASIBILITY_MATRIX @ x - b_eq))) <= 1e-9


def reference_inequalities_hold(correlations):
    # the four signed sums as first written: sum() of a generator
    e = [float(x) for x in correlations]
    for flip in range(4):
        signed = sum(-v if i == flip else v for i, v in enumerate(e))
        if abs(signed) > 0.5 + 1e-9:
            return False
    return True


def sign_boundary_maxima(
    scales=(1 - 1e-7, 1 - 1e-8, 1 - 1e-10, 1.0, 1 + 1e-10, 1 + 1e-8, 1 + 1e-7),
):
    # the sign model's distinct C = 2 maxima on the pi/8 grid (the pi/4
    # grid's among them), pushed just inside and just outside the boundary,
    # beyond the 1e-9 residual tolerance
    grid = [i * math.pi / 8 for i in range(8)]
    maxima = {}
    for a, b, a_prime, b_prime in itertools.product(grid, repeat=4):
        pairs = ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
        es = tuple(e_closed(Sign(), ta, tb) for ta, tb in pairs)
        if abs((abs(es[0] - es[1]) + abs(es[2] + es[3])) / 0.25 - 2.0) < 1e-12:
            maxima[es] = None
    for es in maxima:
        for scale in scales:
            yield [scale * e for e in es]


def feasibility_cases():
    gen = np.random.default_rng(15)
    half = [0.5] * 8
    for es in gen.uniform(-0.25, 0.25, size=(300, 4)):
        yield es, half
    for es in sign_boundary_maxima():
        yield es, half
    for p in (0.9, 0.75, 0.6, 1.0, 0.0):
        biased = [p, 1.0 - p, 0.5, 0.5, 0.5, 0.5, 1.0 - p, p]
        yield [0.0, 0.0, 0.0, 0.0], biased
        yield [-0.25, 0.0, 0.0, 0.0], biased
        for es in gen.uniform(-0.25, 0.25, size=(20, 4)):
            yield es, biased


def test_fine_feasible_is_the_reference_decision():
    # the witness is the facet route's own, not nnls's: it needs only to be
    # a nonnegative table that reproduces the inputs within the tolerance
    decided = set()
    for es, marginals in feasibility_cases():
        feasible, table = fine_feasible(es, marginals)
        assert feasible == reference_fine_feasible(es, marginals), (es, marginals)
        if feasible:
            x = table.probs.ravel()
            b_eq = np.array([1.0, *es, *marginals])
            assert x.min() >= 0.0
            assert np.abs(_FEASIBILITY_MATRIX @ x - b_eq).max() <= 1e-9, (es, marginals)
        else:
            assert table is None
        decided.add(feasible)
    assert decided == {True, False}


@pytest.mark.parametrize("marginals", ["half", "random"])
def test_random_vectors_are_the_reference_decision(marginals):
    gen = np.random.default_rng(22)
    es = gen.uniform(-0.25, 0.25, size=(20_000, 4))
    if marginals == "half":
        got = fine_feasible_many(es, [0.5] * 8).tolist()
        want = [reference_fine_feasible(e, [0.5] * 8) for e in es]
    else:
        plus = gen.uniform(0.0, 1.0, size=(20_000, 4))
        ps = np.stack([plus, 1.0 - plus], axis=2).reshape(-1, 8)
        got = [fine_feasible(e, p)[0] for e, p in zip(es, ps)]
        want = [reference_fine_feasible(e, p) for e, p in zip(es, ps)]
    assert got == want
    assert set(want) == {True, False}


def threshold_sums(gen, count):
    # vectors whose signed sum with the minus at ``flip`` lands within a few
    # ulp of the bound 1/2 + 1e-9, where the order of addition decides
    bound = 0.5 + 1e-9
    for flip, k in itertools.product(range(4), range(-3, 4)):
        for rest in gen.uniform(0.1, 0.25, size=(count, 3)):
            es = list(rest)
            es.insert(flip, sum(rest) - bound + k * math.ulp(bound))
            yield es


def test_inequality_check_is_the_reference_sum():
    gen = np.random.default_rng(16)
    cases = [
        *threshold_sums(gen, 100),
        *gen.uniform(-0.3, 0.3, size=(2000, 4)),
        *sign_boundary_maxima(),
        [0.125, 0.125, 0.125, 0.125],  # every signed sum exactly 1/4
        [0.25, -0.25, 0.0, 0.0],  # one signed sum exactly 1/2
        [0.125, -0.125, 0.125, 0.125],
        [0.0, -0.0, -0.0, 0.0],
    ]
    for es in cases:
        assert chsh_inequalities_hold(es) == reference_inequalities_hold(es), es


NON_FINITE = [
    # NaN, +inf and -inf in each of the four slots, then +inf beside -inf,
    # whose sums in a matrix product would be NaN
    *([value if i == slot else 0.0 for i in range(4)]
      for value in (math.nan, math.inf, -math.inf) for slot in range(4)),
    [math.inf, math.inf, 0.0, 0.0],
    [math.inf, -math.inf, 0.0, 0.0],
    [0.0, -math.inf, 0.1, math.inf],
]


@pytest.mark.parametrize("es", NON_FINITE)
def test_non_finite_correlations_are_rejected_by_both_routes(es):
    # one bad row among finite ones; the check runs before any product, so
    # not even a floating-point warning comes before the error
    half = [0.5] * 8
    batch = np.array([[0.0] * 4, es, [0.1] * 4])
    for decide in (
        lambda: chsh_inequalities_hold(es),
        lambda: chsh_inequalities_hold(batch),
        lambda: fine_feasible(es, half),
        lambda: fine_feasible_many(batch, half),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="correlations must be finite"):
                decide()


@pytest.mark.parametrize("es", [[1e308] * 4, [-1e308] * 4, [1e308, -1e308, 1e308, -1e308]])
def test_huge_finite_correlations_are_decided_not_rejected(es):
    # finite, so past the finiteness check, and far outside the cone
    half = [0.5] * 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fine_feasible(es, half) == (False, None)
        assert fine_feasible_many([[0.0] * 4, es], half).tolist() == [True, False]


NESTED = [
    ([[0.0, 0.0, 0.0, 0.0]], [0.5] * 8),
    ([[0.0]] * 4, [0.5] * 8),
    ([0.0] * 4, [[0.5] * 8]),
    ([0.0] * 4, [[0.5, 0.5]] * 4),
]


@pytest.mark.parametrize("es, marginals", NESTED)
def test_nested_inputs_are_rejected_by_both_routes(es, marginals):
    for decide in (
        lambda: fine_feasible(es, marginals),
        lambda: fine_feasible_many([es], marginals),
    ):
        with pytest.raises(ValueError, match="need 4 correlations and 8 marginals"):
            decide()


# -- the batch forms against the one-vector forms --------------------------------


def test_batch_decision_is_the_reference_decision():
    # grouped by marginals: random vectors, the pushed C = 2 maxima and the
    # biased marginals, each group decided in one batch
    groups = {}
    for es, marginals in feasibility_cases():
        groups.setdefault(tuple(marginals), []).append(es)
    decided = set()
    for marginals, vectors in groups.items():
        got = fine_feasible_many(np.array(vectors), list(marginals))
        want = [reference_fine_feasible(es, marginals) for es in vectors]
        assert got.dtype == bool and got.shape == (len(vectors),)
        assert got.tolist() == want, marginals
        decided |= set(want)
    assert len(groups) == 6 and decided == {True, False}


def test_batch_inequality_check_is_the_reference_sum():
    gen = np.random.default_rng(17)
    for cases in (np.array(list(threshold_sums(gen, 100))),
                  gen.uniform(-0.3, 0.3, size=(2000, 4))):
        got = chsh_inequalities_hold(cases)
        assert got.dtype == bool and got.shape == (len(cases),)
        assert got.tolist() == [reference_inequalities_hold(es) for es in cases]
        assert got.tolist() == [chsh_inequalities_hold(es) for es in cases]
        assert {True, False} <= set(got.tolist())


def test_one_vector_and_empty_batches():
    half = [0.5] * 8
    inside, outside = [0.125, -0.125, 0.125, 0.125], [0.2, -0.2, 0.2, 0.2]
    for es, want in ((inside, True), (outside, False)):
        assert fine_feasible_many([es], half).tolist() == [want]
        assert chsh_inequalities_hold([es]).tolist() == [want]
        assert fine_feasible(es, half)[0] is want
        assert chsh_inequalities_hold(es) is want
    for decided in (fine_feasible_many(np.empty((0, 4)), half),
                    chsh_inequalities_hold(np.empty((0, 4)))):
        assert decided.dtype == bool and decided.shape == (0,)


def reference_witness_route(correlations, marginals, cone):
    # fine_feasible's one-vector route as first written on the facets: the
    # right-hand side in one row, its decision, and the witness from the
    # simplex-major pseudo-inverses, its smallest coefficient per row of 9
    g, simplices, pinv = cone
    b_eq = np.array([[1.0, *np.asarray(correlations, dtype=float), *marginals]])
    if not np.minimum.reduce(b_eq @ g.T, axis=1)[0] >= -1e-9:
        return False, None
    xs = (pinv @ b_eq[0]).reshape(simplices.shape)
    best = np.argmax(np.minimum.reduce(xs, axis=1))
    x = np.zeros(16)
    x[simplices[best]] = np.maximum(xs[best], 0.0)
    return True, np.maximum(x.reshape(2, 2, 2, 2), 0.0)


def coefficient_major_witness_route(correlations, marginals):
    # the one-vector route as written on _cone's own arrays: the decision,
    # the pseudo-inverse product, the simplex whose smallest coefficient is
    # largest (the first of equals), its negatives set to 0, and the table's
    # clipped copy
    g, simplices, pinv = analysis._cone()
    b_eq = np.array([[1.0, *np.asarray(correlations, dtype=float), *marginals]])
    if not np.minimum.reduce(b_eq @ g.T, axis=1)[0] >= -1e-9:
        return False, None
    xs = pinv.dot(b_eq[0]).reshape(-1, len(simplices))
    best = np.minimum.reduce(xs, axis=0).argmax()
    x = np.zeros(16)
    x[simplices[best]] = np.maximum(xs[:, best], 0.0)
    return True, np.maximum(x.reshape(2, 2, 2, 2), 0.0)


def test_one_vector_route_is_its_first_form():
    # decisions and witness tables bit for bit, against the route as first
    # written and as written on _cone's coefficient-major arrays, at the
    # C = 2 boundary pushed inside, outside and into the 1e-9 band, and on
    # random vectors; each decision is also the batch route's on that row,
    # in a batch of its own and among the others
    cone = reference_cone()
    gen = np.random.default_rng(27)
    half = [0.5] * 8
    cases = [
        *feasibility_cases(),
        *((es, half) for es in sign_boundary_maxima((1 - 1e-7, 1 + 1e-7, 1 - 1e-8, 1 + 1e-8,
                                                     1 - 1e-9, 1 + 1e-9, 1 + 3e-9, 1 + 5e-9))),
        *((es, half) for es in gen.uniform(-0.25, 0.25, size=(2000, 4))),
    ]
    rows = {}
    for es, marginals in cases:
        feasible, table = fine_feasible(es, marginals)
        assert fine_feasible_many([es], marginals).tolist() == [feasible], (es, marginals)
        for want_feasible, want_probs in (reference_witness_route(es, marginals, cone),
                                          coefficient_major_witness_route(es, marginals)):
            assert feasible is want_feasible, (es, marginals)
            if want_probs is None:
                assert table is None
            else:
                assert same_bits(table.probs, want_probs), (es, marginals)
                assert table.probs.flags.writeable and table.probs.flags.c_contiguous
        rows.setdefault(tuple(marginals), []).append((es, feasible))
    for marginals, decided in rows.items():
        batch = fine_feasible_many(np.array([es for es, _ in decided]), list(marginals))
        assert batch.tolist() == [feasible for _, feasible in decided], marginals
    assert {feasible for decided in rows.values() for _, feasible in decided} == {True, False}


def reference_cone():
    # the derivation as first written: one batched complete QR over all
    # 12,870 8-atom subsets at once
    u, s, _ = np.linalg.svd(_FEASIBILITY_MATRIX)
    basis = u[:, : np.count_nonzero(s > 1e-9 * s[0])]
    atoms = basis.T @ _FEASIBILITY_MATRIX
    subsets = np.array(list(itertools.combinations(range(16), len(atoms) - 1)))
    q, r = np.linalg.qr(atoms.T[subsets].transpose(0, 2, 1), mode="complete")
    normals = q[:, :, -1]
    normals *= np.where(normals @ atoms.sum(axis=1) < 0.0, -1.0, 1.0)[:, None]
    values = normals @ atoms
    rank8 = np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) > 1e-9
    facet = rank8 & (values.min(axis=1) >= -1e-9)
    tight, first = np.unique(np.abs(values[facet]) <= 1e-9, axis=0, return_index=True)
    g = normals[facet][first] @ basis.T
    g *= np.abs(g).max(axis=1, keepdims=True)
    facets = [frozenset(np.flatnonzero(t).tolist()) for t in tight]
    simplices = np.array(analysis._pulling(frozenset(range(16)), len(atoms), atoms, facets))
    pinv = np.linalg.pinv(_FEASIBILITY_MATRIX.T[simplices].transpose(0, 2, 1)).reshape(-1, 13)
    return g, simplices, pinv


def test_cone_is_the_one_batch_derivation():
    # the subsets go through the QR a piece at a time, each matrix factored
    # on its own, so the facets, simplices and pseudo-inverses keep every bit;
    # _cone keeps the pseudo-inverses' rows coefficient-major
    g, simplices, pinv = reference_cone()
    pinv = pinv.reshape(*simplices.shape, 13).transpose(1, 0, 2).reshape(-1, 13)
    for got, want in zip(analysis._cone(), (g, simplices, pinv), strict=True):
        assert same_bits(got, want)
