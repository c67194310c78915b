"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass lines; the whole file targets well under two minutes.
"""

import contextlib
import io
import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bellsphere import (
    Axis,
    Direct,
    EnsembleDep,
    Hemisphere,
    RngStream,
    Sign,
    StaticSphere,
    StochasticSign,
    ConfigDensity,
    chsh,
    chsh_inequalities_hold,
    e_closed,
    ensemble_mean_projection,
    enumerate_pointlike_E,
    estimate_correlation,
    fine_feasible,
    lune_probability,
    outcome_probabilities,
    quad_density_normalization,
    quad_ring_mean_projection,
    sequence_means,
    sequence_outcomes,
    stochastic_sign_alt_form,
    sweep_chsh,
)
from bellsphere.verify import run_verification

DELTA_GRID = [i * math.pi / 6 for i in range(7)]
QUADRUPLE = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
PAIRS = [
    (QUADRUPLE[0], QUADRUPLE[1]),
    (QUADRUPLE[0], QUADRUPLE[3]),
    (QUADRUPLE[2], QUADRUPLE[1]),
    (QUADRUPLE[2], QUADRUPLE[3]),
]


def _passed(number, label):
    print(f"[acceptance] criterion {number} ({label}): PASS")


def _mc_grid_check(model, closed, seed):
    for i, d in enumerate(DELTA_GRID):
        record = estimate_correlation(
            model, StaticSphere(), 0.0, d, 1_000_000, RngStream(seed).split(i)
        )
        assert record.e_closed == pytest.approx(closed(d), abs=1e-12)
        assert abs(record.z_score) <= 5.0, f"delta={d}: z={record.z_score}"


def test_criterion_01_direct_model_grid():
    start = time.perf_counter()
    _mc_grid_check(Direct(), lambda d: -math.cos(d) / 3.0, seed=101)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"direct grid took {elapsed:.1f}s"
    _passed(1, f"direct-detector grid, 7x1e6 trials in {elapsed:.1f}s")


def test_criterion_02_sign_model_grid_and_lune_simplex():
    _mc_grid_check(Sign(), lambda d: -0.25 + d / (2 * math.pi), seed=102)
    for d in np.linspace(0.0, math.pi, 100):
        total = sum(
            lune_probability(k, kp, float(d)) for k in (-0.5, 0.5) for kp in (-0.5, 0.5)
        )
        assert abs(total - 1.0) <= 1e-12
    _passed(2, "sign-detector grid and lune simplex")


def test_criterion_03_ensemble_model_violates_chsh():
    _mc_grid_check(EnsembleDep(), lambda d: -0.25 * math.cos(d), seed=103)
    closed = chsh(EnsembleDep(), QUADRUPLE)
    assert closed.c_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    assert closed.violated
    mc = chsh(EnsembleDep(), QUADRUPLE, n=1_000_000, rng=RngStream(104))
    assert mc.c_value - 2.0 >= 3.0 * mc.c_std_err
    assert mc.violated
    _passed(3, f"ensemble detector: closed C = 2*sqrt(2), MC C = {mc.c_value:.4f}")


def test_criterion_04_bell_compliance_of_pointlike_models():
    best_direct, _ = sweep_chsh(Direct(), math.pi / 8)
    assert best_direct.c_value == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-9)
    assert not best_direct.violated
    best_sign, _ = sweep_chsh(Sign(), math.pi / 8)
    assert best_sign.c_value == pytest.approx(2.0, abs=1e-9)
    assert not best_sign.violated
    best_stoch, table = sweep_chsh(StochasticSign(), math.pi / 8)
    assert best_stoch.c_value < 2.0
    assert not best_stoch.violated
    assert not table.violated.any()
    # oracle-consistent: rebuild the same maximum from the enumeration oracle
    angles = [i * math.pi / 8 for i in range(8)]
    oracle_max = 0.0
    for quad in itertools.product(angles, repeat=4):
        a, b, ap, bp = quad
        es = [
            enumerate_pointlike_E(StochasticSign(), abs(tb - ta))
            for ta, tb in [(a, b), (a, bp), (ap, b), (ap, bp)]
        ]
        value = (abs(es[0] - es[1]) + abs(es[2] + es[3])) / 0.25
        oracle_max = max(oracle_max, value)
    assert best_stoch.c_value == pytest.approx(oracle_max, abs=1e-12)
    _passed(4, f"sweeps: direct {best_direct.c_value:.6f}, sign 2.0, "
               f"stochastic {best_stoch.c_value:.6f}")


def test_criterion_05_outcome_mean_preserves_projection():
    gen = np.random.default_rng(105)
    n = 100_000
    for i in range(20):
        ensemble = Hemisphere(
            Axis(float(gen.uniform(0, 2 * math.pi))), 1 if gen.uniform() < 0.5 else -1
        )
        axis = Axis(float(gen.uniform(0, 2 * math.pi)))
        mean = ensemble_mean_projection(ensemble, axis)
        p_plus, p_minus = outcome_probabilities(ensemble, axis)
        assert abs(0.5 * p_plus - 0.5 * p_minus - mean) <= 1e-12
        (outcomes,) = sequence_outcomes(ensemble, [axis], n, RngStream(106).split(i))
        se = float(np.std(outcomes, ddof=1)) / math.sqrt(n) or 1e-12
        assert abs(float(np.mean(outcomes)) - mean) <= 5.0 * se
    _passed(5, "outcome average equals ensemble mean projection (20 random pairs)")


def test_criterion_06_sequential_measurements_do_not_commute():
    e0 = Hemisphere(Axis(0.0), 1)
    forward = [Axis(math.pi / 3), Axis(2 * math.pi / 3)]
    reverse = list(reversed(forward))
    n = 400_000
    means = {}
    for name, axes, seed in (("fwd", forward, 107), ("rev", reverse, 108)):
        *_, finals = sequence_outcomes(e0, axes, n, RngStream(seed))
        tree = sequence_means(e0, axes)[-1]
        se = float(np.std(finals, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(finals)) - tree) <= 5.0 * se
        means[name] = (float(np.mean(finals)), se)
    assert sequence_means(e0, forward)[-1] - sequence_means(e0, reverse)[-1] == (
        pytest.approx(0.25, abs=1e-12)
    )
    gap = means["fwd"][0] - means["rev"][0]
    gap_se = math.hypot(means["fwd"][1], means["rev"][1])
    assert abs(gap - 0.25) <= 5.0 * gap_se
    _passed(6, f"order gap = {gap:.4f} (oracle 0.25)")


def test_criterion_07_fine_feasibility_matches_inequalities():
    gen = np.random.default_rng(109)
    marginals = [0.5] * 8
    for _ in range(10_000):
        es = gen.uniform(-0.25, 0.25, 4)
        feasible, _ = fine_feasible(es, marginals)
        assert feasible == chsh_inequalities_hold(es)
    es = [e_closed(EnsembleDep(), ta, tb) for ta, tb in PAIRS]
    feasible, witness = fine_feasible(es, marginals)
    assert not feasible and witness is None
    assert not chsh_inequalities_hold(es)
    _passed(7, "LP feasibility == eight-inequality test on 1e4 vectors; "
               "maximal violation certified infeasible")


def test_criterion_08_density_normalization_and_ring_mean():
    for ratio in (0.0, 0.375, 0.625, 0.99):
        total = quad_density_normalization(ConfigDensity(1.0, ratio))
        assert total == pytest.approx(1.0, abs=1e-6)
    for jz0, theta in ((0.625, math.pi / 4), (0.375, 1.2), (0.99, 2.8), (0.0, 0.4)):
        got = quad_ring_mean_projection(1.0, jz0, Axis(theta))
        assert got == pytest.approx(jz0 * math.cos(theta), abs=1e-6)
    _passed(8, "density normalization and ring mean projection by quadrature")


def test_criterion_09_noisy_sign_discrepancy_report():
    oracle = enumerate_pointlike_E(StochasticSign(), 0.0)
    alt = stochastic_sign_alt_form(0.0, 0.0)
    assert oracle == pytest.approx(-1.0 / 16.0, abs=1e-15)
    assert alt == pytest.approx(-1.0 / 8.0, abs=1e-15)
    record = estimate_correlation(
        StochasticSign(), StaticSphere(), 0.0, 0.0, 1_000_000, RngStream(110)
    )
    assert abs(record.e_hat - oracle) <= 5.0 * record.std_err
    # the Monte Carlo estimate is far from the contested form
    assert abs(record.e_hat - alt) > 20.0 * record.std_err
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        ok = run_verification(111, feasibility_samples=200)
    text = buffer.getvalue()
    assert ok
    assert "enumeration oracle = -0.0625" in text
    assert "alt form = -0.125" in text
    _passed(9, "verify reports -0.0625 (oracle) next to -0.125 (alt); MC sides "
               "with the oracle")


def test_criterion_10_rows_repeat_across_processes(tmp_path):
    # data rows are a function of the seed: two fresh processes with the
    # same one print the same rows

    def rows(command, path):
        result = subprocess.run(
            [sys.executable, "-m", "bellsphere.cli", *command, "--out", str(path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        return [
            line for line in path.read_text().splitlines()
            if line and not line.startswith("#")
        ]

    monte_carlo = ["--model", "ensemble", "--mode", "montecarlo", "--seed", "11"]
    commands = [
        ["correlate", "--model", "ensemble", "--theta-a", "0", "--theta-b", "pi/4",
         "--trials", "300000", "--seed", "9"],
        ["chsh", "--model", "sign", "--angles", "0,pi/4,pi/2,3pi/4",
         "--mode", "montecarlo", "--trials", "50000", "--seed", "4"],
        ["chsh", "--angles", "0,pi/4,pi/2,3pi/4", "--trials", "40000", *monte_carlo],
        ["sweep", "--step", "pi/4", "--trials", "3000", *monte_carlo],
    ]
    for i, command in enumerate(commands):
        first = rows(command, tmp_path / f"{i}a.csv")
        assert len(first) > 1
        assert first == rows(command, tmp_path / f"{i}b.csv")
    _passed(10, "byte-identical data rows across processes at one seed")
