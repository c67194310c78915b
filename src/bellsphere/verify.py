"""The self-verification suite of ``bellsphere verify``, one printed line per
check.  Each check looks its helpers up through their modules
(``analysis.e_closed``, ``oracles.quad_expectation``, ...), so a stand-in set
on a module reaches it."""

from __future__ import annotations

import math

import numpy as np

from . import analysis, detectors, distributions, oracles
from .geometry import TWO_PI, Axis, RngStream, project, word_threshold, words_below

# rows per draw of the parameter-independence and feasibility cross-checks
_PIECE_PAIRS = 4096
# the separations in [0, pi] at which the closed-form checks compare
_SEPARATIONS = np.linspace(0.0, math.pi, 100).tolist()
# (k, k') of the lune table's columns
_OUTCOME_PAIRS = [(k, kp) for k in (-0.5, 0.5) for kp in (-0.5, 0.5)]
# random vectors the feasibility cross-check decides unless told otherwise
FEASIBILITY_SAMPLES = 2000


def _worst(values) -> float:
    """The largest of ``values``, the one fold of every tolerance check: a NaN
    among them is the result, and it passes no ``<=``."""
    return float(np.max(values))


def _within(label: str, deviations, tol: float):
    worst = _worst(deviations)
    return worst <= tol, f"max |{label}| = {worst:.3g} (tol {tol:g})"


def _check_density_normalization():
    densities = [distributions.ConfigDensity(1.0, r) for r in (0.0, 0.375, 0.625, 0.99)]
    deviations = [abs(distributions.quad_density_normalization(x) - 1.0) for x in densities]
    return _within("integral - 1", deviations, 1e-6)


def _check_ring_mean():
    cases = ((0.625, math.pi / 4), (0.375, 1.1), (0.99, 2.5), (0.0, 0.7))
    quads = [distributions.quad_ring_mean_projection(1.0, jz0, Axis(t)) for jz0, t in cases]
    deviations = [abs(q - jz0 * math.cos(t)) for q, (jz0, t) in zip(quads, cases)]
    return _within("quad - jz0 cos theta", deviations, 1e-6)


def _check_sphere_moments():
    axis = Axis(0.9)
    z_sq, half = oracles.quad_expectation(
        lambda pts: pts[:, 2] ** 2, lambda pts: np.maximum(project(pts, axis), 0.0)
    )
    err = _worst([abs(z_sq - 1.0 / 3.0), abs(half - 0.25)])
    return err <= 1e-6, f"worst moment error = {err:.3g} (tol 1e-06)"


def _check_lune_simplex(lune):
    worst_sum = _worst([abs(sum(row) - 1.0) for row in lune])
    worst_neg = float(np.min(lune))
    ok = worst_sum <= 1e-12 and worst_neg >= -1e-12
    return ok, f"max |sum - 1| = {worst_sum:.3g}, min entry = {worst_neg:.3g}"


def _check_lune_sign_form(lune):
    sign = detectors.Sign()
    totals = [sum(k * kp * p for (k, kp), p in zip(_OUTCOME_PAIRS, row)) for row in lune]
    deviations = [abs(t - analysis.e_closed(sign, 0.0, d)) for t, d in zip(totals, _SEPARATIONS)]
    return _within("sum k k' P - closed", deviations, 1e-12)


def _check_enumeration_grids():
    sign, noisy, ensemble = detectors.Sign(), detectors.StochasticSign(), detectors.EnsembleDep()
    deviations = [
        (
            abs(oracles.enumerate_pointlike_E(sign, d) - analysis.e_closed(sign, 0.0, d)),
            abs(oracles.enumerate_pointlike_E(noisy, d) - analysis.e_closed(noisy, 0.0, d)),
            abs(oracles.enumerate_ensemble_E(d) - analysis.e_closed(ensemble, 0.0, d)),
        )
        for d in _SEPARATIONS
    ]
    return _within("enumeration - closed", deviations, 1e-12)


def _check_mean_preservation(rng: RngStream):
    # each case: the hemisphere's axis and the measured axis in turns of 2 pi,
    # and the hemisphere's sign, + below 1/2
    cases = rng.split(350).uniform((20, 3)).tolist()
    residuals, zs = [], []
    n = 100_000
    for i, (u_axis, u_sign, u_measured) in enumerate(cases):
        ensemble = distributions.Hemisphere(Axis(TWO_PI * u_axis), 1 if u_sign < 0.5 else -1)
        axis = Axis(TWO_PI * u_measured)
        mean = distributions.ensemble_mean_projection(ensemble, axis)
        p_plus, p_minus = detectors.outcome_probabilities(ensemble, axis)
        residuals.append(abs(0.5 * p_plus - 0.5 * p_minus - mean))
        if i < 5:  # Monte Carlo spot checks
            # the draws below p_plus, each decided on its word
            plus = np.count_nonzero(
                words_below(rng.split(300 + i).words(n), word_threshold(p_plus))
            )
            # the +-1/2 outcomes' mean from their count (their sum is exact);
            # z against the outcome's own spread, not the sample's, which is
            # 0 when every draw agrees although p_minus is not
            diff = abs(0.5 * (2 * plus - n) / n - mean)
            zs.append(diff / math.sqrt(p_plus * p_minus / n) if diff > 0.0 else 0.0)
    worst_closed, worst_z = _worst(residuals), _worst(zs)
    ok = worst_closed <= 1e-12 and worst_z <= 5.0
    return ok, f"closed residual {worst_closed:.3g} (tol 1e-12), max |z| = {worst_z:.2f}"


def _plus_share(n: int, stream: RngStream) -> float:
    """Share of ``n`` ensemble pairs whose particle 1 reads +1/2, counted
    from the words of the pair draws that :func:`detectors.role_sums` takes,
    by the detector's own rule (:func:`detectors.ensemble_plus1`), which
    reads neither axis.  The pairs are drawn from ``stream`` one piece at a
    time; consecutive pieces of one stream are the words one draw of ``n``
    pairs would be."""
    plus = 0
    for start in range(0, n, _PIECE_PAIRS):
        words = stream.words((min(_PIECE_PAIRS, n - start), 2))
        plus += np.count_nonzero(detectors.ensemble_plus1(words[:, 0]))
    return plus / n


def _check_parameter_independence(rng: RngStream):
    # particle 1's share on the stream of each distant axis i pi/8
    n = 100_000
    shares = [_plus_share(n, rng.split(400 + i)) for i in range(8)]
    worst = _worst([abs(p_hat - 0.5) / math.sqrt(0.25 / n) for p_hat in shares])
    return worst <= 5.0, f"max |z| over 8 distant axes = {worst:.2f} (tol 5 sigma)"


def _check_feasibility_cross(rng: RngStream, samples: int):
    stream = rng.split(600)
    marginals = [0.5] * 8
    # the vectors, uniform in [-1/4, 1/4)^4, are drawn and decided one piece
    # at a time; consecutive draws of one stream are the doubles of one draw
    disagreements = 0
    for start in range(0, samples, _PIECE_PAIRS):
        vectors = 0.5 * stream.uniform((min(_PIECE_PAIRS, samples - start), 4)) - 0.25
        disagreements += np.count_nonzero(
            analysis.fine_feasible_many(vectors, marginals)
            != analysis.chsh_inequalities_hold(vectors)
        )
    quad = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    pairs = [(quad[0], quad[1]), (quad[0], quad[3]), (quad[2], quad[1]), (quad[2], quad[3])]
    ens = [analysis.e_closed(detectors.EnsembleDep(), ta, tb) for ta, tb in pairs]
    max_violation_feasible, _ = analysis.fine_feasible(ens, marginals)
    sign_es = [analysis.e_closed(detectors.Sign(), ta, tb) for ta, tb in pairs]
    boundary_feasible, _ = analysis.fine_feasible(sign_es, marginals)
    ok = disagreements == 0 and not max_violation_feasible and boundary_feasible
    return ok, (
        f"{samples} random vectors, {disagreements} disagreements; "
        f"maximal-violation point infeasible = {not max_violation_feasible}, "
        f"C = 2 boundary feasible = {boundary_feasible}"
    )


def _noisy_sign_report(rng: RngStream) -> tuple[bool, str]:
    noisy, sphere = detectors.StochasticSign(), distributions.StaticSphere()
    enumerated = oracles.enumerate_pointlike_E(noisy, 0.0)
    alt = analysis.stochastic_sign_alt_form(0.0, 0.0)
    record = analysis.estimate_correlation(noisy, sphere, 0.0, 0.0, 400_000, rng.split(500))
    z = (record.e_hat - enumerated) / record.std_err
    print(
        "noisy-sign closed forms at delta=0: "
        f"enumeration oracle = {enumerated:+.9g} | alt form = {alt:+.9g} | "
        f"monte carlo = {record.e_hat:+.6f} +- {record.std_err:.6f}"
    )
    print("  delta      oracle        alt form")
    for d in np.linspace(0.0, math.pi, 9):
        print(
            f"  {float(d):8.5f}  {oracles.enumerate_pointlike_E(noisy, float(d)):+11.8f}"
            f"  {analysis.stochastic_sign_alt_form(0.0, float(d)):+11.8f}"
        )
    return abs(z) <= 5.0, f"monte carlo sides with the enumeration oracle (|z| = {abs(z):.2f})"


def run_verification(seed: int, feasibility_samples: int = FEASIBILITY_SAMPLES) -> bool:
    """Run the verification checks, print one line per check, return overall
    pass.  The last check prints the noisy-sign closed forms on a 9-point grid."""
    rng = RngStream(seed)
    # the lune checks' one table: P(k, k') at each separation, a row each
    lune = [[analysis.lune_probability(k, kp, d) for k, kp in _OUTCOME_PAIRS] for d in _SEPARATIONS]
    checks = [
        ("density normalization (4 jz0/j0 ratios)", _check_density_normalization),
        ("ring mean projection quadrature", _check_ring_mean),
        ("sphere moments (z^2, half-moment)", _check_sphere_moments),
        ("lune probabilities form a simplex", lambda: _check_lune_simplex(lune)),
        ("lune probabilities reproduce sign closed form", lambda: _check_lune_sign_form(lune)),
        ("enumeration oracles match closed forms", _check_enumeration_grids),
        ("ensemble outcome mean preserves projection", lambda: _check_mean_preservation(rng)),
        ("parameter independence of distant axis", lambda: _check_parameter_independence(rng)),
        (
            "joint-table feasibility matches CHSH inequalities",
            lambda: _check_feasibility_cross(rng, feasibility_samples),
        ),
        ("noisy-sign discrepancy report", lambda: _noisy_sign_report(rng)),
    ]
    all_ok = True
    for name, check in checks:
        ok, detail = check()
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    # informational: the two bookkeepings of the measurement-induced
    # projection change disagree; both are surfaced, neither is endorsed
    for outcome, _, own, alt in detectors.projection_deltas(
        distributions.Hemisphere(Axis(0.0), 1), Axis(math.pi / 3)
    ):
        print(
            f"[INFO] projection delta, outcome {outcome:+.1f} from hemisphere(0,+1) "
            f"along pi/3: post-pre = {own:+.6f}, -2kP form = {alt:+.6f}"
        )
    print("verification " + ("PASSED" if all_ok else "FAILED"))
    return all_ok
