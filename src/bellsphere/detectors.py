"""The four detector models and their measurement protocols.

Three models are point-like (the outcome is a function of the measured
vector, possibly through per-vector outcome probabilities): ``Direct``
reads the projection itself, ``Sign`` thresholds it to +-1/2, and
``StochasticSign`` flips the thresholded outcome with probability
``1 - p_hi``.  The fourth, ``EnsembleDep``, ties outcome statistics to the
particle's *ensemble*: measuring along an axis draws +-1/2 with
probabilities fixed by the ensemble's mean projection, then replaces the
ensemble with the hemisphere about the measured axis matching the outcome.
That update makes sequential measurements along different axes order
dependent, and, combined with exact pair anti-correlation, it is the
mechanism probed by the CHSH analysis layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Axis, RngStream, angle_delta
from .distributions import (
    Ensemble,
    Hemisphere,
    PairSource,
    ensemble_mean_projection,
    sample_pair,
)


@dataclass(frozen=True)
class Direct:
    """Reads the projection value itself; outcomes lie in [-1, 1]."""


@dataclass(frozen=True)
class Sign:
    """+1/2 when the projection is positive, -1/2 when negative.

    A projection of exactly zero (measure zero) counts as positive.
    """


@dataclass(frozen=True)
class StochasticSign:
    """+-1/2, matching the projection's sign with probability ``p_hi``."""

    p_hi: float = 0.75

    def __post_init__(self):
        if not 0.5 <= self.p_hi <= 1.0:
            raise ValueError(f"p_hi must lie in [1/2, 1], got {self.p_hi!r}")


@dataclass(frozen=True)
class EnsembleDep:
    """Ensemble-updating detector: outcomes depend on the ensemble, not on
    the individual vector, and each measurement collapses the ensemble to a
    hemisphere about its own axis."""


DetectorModel = Direct | Sign | StochasticSign | EnsembleDep

_POINTLIKE = (Direct, Sign, StochasticSign)

_NAMES = {
    Direct: "direct",
    Sign: "sign",
    StochasticSign: "stochastic",
    EnsembleDep: "ensemble",
}


def is_pointlike(model: DetectorModel) -> bool:
    return isinstance(model, _POINTLIKE)


def v_max(model: DetectorModel) -> float:
    """Largest absolute detector reading: 1 for Direct, 1/2 otherwise."""
    return 1.0 if isinstance(model, Direct) else 0.5


def model_name(model: DetectorModel) -> str:
    return _NAMES[type(model)]


def model_from_name(name: str, p_hi: float = 0.75) -> DetectorModel:
    if name == "direct":
        return Direct()
    if name == "sign":
        return Sign()
    if name == "stochastic":
        return StochasticSign(p_hi)
    if name == "ensemble":
        return EnsembleDep()
    raise ValueError(f"unknown detector model {name!r}")


def measure_pointlike(model: DetectorModel, p, rng: RngStream | None = None):
    """Outcomes of a point-like detector for the projections ``p`` (an array
    of any shape) of the measured vectors onto the detector's axis.

    ``rng`` is only consumed by StochasticSign, one flip draw per projection.
    """
    if not is_pointlike(model):
        raise TypeError(
            "measure_pointlike needs a point-like model; the ensemble "
            "detector is driven through sequence_outcomes/measure_pair_batch"
        )
    if isinstance(model, Direct):
        return p
    base = np.where(p >= 0.0, 0.5, -0.5)
    if isinstance(model, Sign):
        return base
    if rng is None:
        raise ValueError("StochasticSign needs an RngStream")
    return np.where(rng.uniform(p.shape) < model.p_hi, base, -base)


def outcome_probabilities(ensemble: Ensemble, axis: Axis) -> tuple[float, float]:
    """(P(+1/2), P(-1/2)) for an ensemble measurement along ``axis``.

    The probabilities are pinned by requiring the outcome average to equal
    the ensemble's mean projection: P(+-1/2) = 1/2 +- mean.
    """
    p_plus = 0.5 + ensemble_mean_projection(ensemble, axis)
    p_plus = min(max(p_plus, 0.0), 1.0)
    return p_plus, 1.0 - p_plus


def projection_delta_alt_form(pre: Ensemble, axis: Axis, outcome: float) -> float:
    """Alternative bookkeeping of the measurement-induced projection change:
    -2 k P(R = k) for outcome k measured on ``pre``.

    For this update rule the direct post-minus-pre difference and this form
    disagree (already in sign for small axis separations), so callers report
    both rather than silently picking one.
    """
    p_plus, p_minus = outcome_probabilities(pre, axis)
    p_k = p_plus if outcome > 0 else p_minus
    return -2.0 * outcome * p_k


def sequence_outcomes(
    e0: Ensemble, axes, n: int, rng: RngStream
) -> np.ndarray:
    """Vectorized ensemble-measurement sequences: (len(axes), n) outcomes.

    Exploits that after the first measurement every trial's ensemble is a
    hemisphere about the current axis, so the per-trial state reduces to a
    sign.  Row i holds the n outcomes of step i.
    """
    axes = list(axes)
    out = np.empty((len(axes), n))
    if isinstance(e0, Hemisphere):
        cur_theta, signs = e0.axis.theta, np.full(n, float(e0.sign))
    else:
        cur_theta, signs = None, np.zeros(n)
    for i, axis in enumerate(axes):
        if cur_theta is None:
            p_plus = np.full(n, 0.5)
        else:
            p_plus = 0.5 * (1.0 + signs * math.cos(angle_delta(cur_theta, axis.theta)))
        signs = np.where(rng.uniform(n) < p_plus, 1.0, -1.0)
        out[i] = 0.5 * signs
        cur_theta = axis.theta
    return out


def _projections(y, z, axes, sign: float) -> np.ndarray:
    """(m, n) projections of the vectors sign * (., y, z) onto each of the m
    axes, one row per axis.

    ``sign = -1`` folds particle 2's j2 = -j1 into the coefficients:
    y * (-sin t) equals (-y) * sin t bit for bit.
    """
    sin_t = np.array([[sign * math.sin(axis.theta)] for axis in axes])
    cos_t = np.array([[sign * math.cos(axis.theta)] for axis in axes])
    return y * sin_t + z * cos_t


def measure_pair_batch(model: DetectorModel, source: PairSource, a, b, n: int, rng: RngStream):
    """Measure ``n`` correlated pairs; particle 1 along ``a``, particle 2
    along ``b``.

    ``a`` and ``b`` are one Axis each, and the result is (o1, o2), the two
    (n,) outcome arrays; or they are sequences of m_a and m_b axes, and the
    result is (s, s2), the (m_a, m_b) tables of the block's sums of o1 o2 and
    of (o1 o2)^2 for every axis pair.  All pairs of axes are measured on the
    block's one set of draws, and each entry is summed in pair order along
    a contiguous row, so entry (i, j) is bit for bit the sum of the
    one-axis outcomes for (a_i, b_j), except for StochasticSign, which
    draws its flips for every axis.  A block holds O((m_a + m_b) n) floats.

    Point-like models draw particle 1's in-plane components from the source
    and measure j1 and j2 = -j1 locally.  The ensemble detector instead
    measures particle 1 from the full-sphere ensemble; angular-momentum
    conservation then places particle 2 in the opposite hemisphere about
    ``a``, which is measured along ``b``.  (The source argument is ignored
    in that branch: the emitted statistics of both sources coincide with
    the full-sphere ensemble.)
    """
    single = isinstance(a, Axis)
    axes_a, axes_b = ([a], [b]) if single else (a, b)
    if isinstance(model, EnsembleDep):
        draws = rng.uniform((n, 2))
        o1 = np.where(draws[:, 0] < 0.5, 0.5, -0.5)

        def row(i):
            # particle 2 occupies the opposite hemisphere about a_i; its +1/2
            # probability along b is (1 - sign(o1) cos(b - a_i)) / 2
            cos_ab = np.array(
                [[math.cos(angle_delta(axes_a[i].theta, axis.theta))] for axis in axes_b]
            )
            return o1, np.where(draws[:, 1] < 0.5 * (1.0 - 2.0 * o1 * cos_ab), 0.5, -0.5)
    else:
        y, z = sample_pair(source, rng, n)
        o1 = measure_pointlike(model, _projections(y, z, axes_a, 1.0), rng)
        o2 = measure_pointlike(model, _projections(y, z, axes_b, -1.0), rng)

        def row(i):
            return o1[i], o2

    if single:
        o1_0, o2_0 = row(0)
        return o1_0, o2_0[0]
    s = np.empty((len(axes_a), len(axes_b)))
    s2 = np.empty_like(s)
    for i in range(len(axes_a)):
        o1_i, o2_i = row(i)
        prod = o1_i * o2_i
        s[i] = prod.sum(axis=-1)
        s2[i] = (prod * prod).sum(axis=-1)
    return s, s2
