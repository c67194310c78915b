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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Axis, RngStream, uniform_of_words, word_threshold, words_below
from .distributions import (
    Ensemble,
    FullSphere,
    Hemisphere,
    PairSource,
    draw_width,
    ensemble_mean_projection,
    pair_yz,
    sample_pair,
)

_DOUBT = 2.0**-14  # float32-screened projections this close to 0 are redone; see _signs
_BLOCK_PAIRS = 4096  # pairs per Monte Carlo block, each block on its own stream
_CHUNK_VALUES = 32_768  # projections per Monte Carlo chunk; see role_sums
_SPHERE, _ANY_AXIS = FullSphere(), Axis(0.0)  # particle 1's ensemble, and an axis to read it on


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

MODELS = {
    "direct": Direct,
    "sign": Sign,
    "stochastic": StochasticSign,
    "ensemble": EnsembleDep,
}  # the CLI's --model names


def v_max(model: DetectorModel) -> float:
    """Largest absolute detector reading: 1 for Direct, 1/2 otherwise."""
    return 1.0 if isinstance(model, Direct) else 0.5


def model_name(model: DetectorModel) -> str:
    return {cls: name for name, cls in MODELS.items()}[type(model)]


def model_from_name(name: str, p_hi: float = StochasticSign.p_hi) -> DetectorModel:
    if name not in MODELS:
        raise ValueError(f"unknown detector model {name!r}")
    cls = MODELS[name]
    return cls(p_hi) if cls is StochasticSign else cls()


def measure_pointlike(model: DetectorModel, p, rng: RngStream | None = None):
    """Outcomes of a point-like detector for the projections ``p`` (an array
    of any shape) of the measured vectors onto the detector's axis.

    ``rng`` is only consumed by StochasticSign, one flip draw per projection,
    compared as a double: the float rule that :func:`role_sums` decides on
    the flips' words.
    """
    if isinstance(model, EnsembleDep):
        raise TypeError(
            "measure_pointlike needs a point-like model; the ensemble "
            "detector is driven through sequence_outcomes/measure_pair_batch"
        )
    if isinstance(model, Direct):
        return p
    plus = p >= 0.0
    if isinstance(model, StochasticSign):
        if rng is None:
            raise ValueError("StochasticSign needs an RngStream")
        np.equal(plus, rng.uniform(plus.shape) < model.p_hi, out=plus)
    return np.subtract(plus, 0.5)


def outcome_probabilities(ensemble: Ensemble, axis: Axis) -> tuple[float, float]:
    """(P(+1/2), P(-1/2)) for an ensemble measurement along ``axis``: the
    ensemble detector's one outcome law, read by every draw of its outcomes.

    The probabilities are pinned by requiring the outcome average to equal
    the ensemble's mean projection: P(+-1/2) = 1/2 +- mean.  Both ensemble
    families keep |mean| <= 1/2 (0 on the full sphere, s cos(b - a) / 2 on
    a hemisphere), so both lie in [0, 1] as computed.
    """
    p_plus = 0.5 + ensemble_mean_projection(ensemble, axis)
    return p_plus, 1.0 - p_plus


def ensemble_plus1(words) -> np.ndarray:
    """The +1/2 mask of particle 1's full-sphere measurement from the words
    of its draws: the full sphere's P(+1/2) is the same along every axis,
    so one threshold decides them all."""
    p_plus, _ = outcome_probabilities(_SPHERE, _ANY_AXIS)
    return words_below(words, word_threshold(p_plus))


def _partner_ensembles(a: Axis) -> tuple[Hemisphere, Hemisphere]:
    """Particle 2's ensembles after particle 1 reads +1/2, -1/2 along ``a``:
    conservation, j2 = -j1, leaves it the opposite hemisphere."""
    return Hemisphere(a, -1), Hemisphere(a, 1)


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


def projection_deltas(pre: Ensemble, axis: Axis):
    """The two bookkeepings of the projection change when ``pre`` is measured
    along ``axis``: (outcome, post ensemble, post-minus-pre mean projection,
    -2kP form) for the outcomes +1/2 and -1/2."""
    pre_mean = ensemble_mean_projection(pre, axis)
    rows = []
    for outcome in (0.5, -0.5):
        post = Hemisphere(axis, 1 if outcome > 0 else -1)
        own = ensemble_mean_projection(post, axis) - pre_mean
        rows.append((outcome, post, own, projection_delta_alt_form(pre, axis, outcome)))
    return rows


def sequence_outcomes(e0: Ensemble, axes, n: int, rng: RngStream):
    """Vectorized ensemble-measurement sequences: yields each step's (n,)
    outcomes in turn, drawing a step's n uniforms only as it is reached.

    A trial's ensemble is ``e0`` before the first step, then the hemisphere
    about the last axis on its last outcome's side: one of two, so each
    draw is decided on its word against the two ensembles' thresholds.
    """
    ensembles, plus = (e0, e0), np.ones(n, dtype=bool)
    for axis in axes:
        words = rng.words(n)
        high, low = (word_threshold(outcome_probabilities(e, axis)[0]) for e in ensembles)
        plus = np.where(plus, words_below(words, high), words_below(words, low))
        del words  # a step holds no draws while its outcomes are read
        yield np.subtract(plus, 0.5)
        ensembles = (Hemisphere(axis, 1), Hemisphere(axis, -1))


def _projections(y, z, axes_a, axes_b) -> np.ndarray:
    """(m_a + m_b, n) projections in y's dtype, one row per axis: particle
    1's (., y, z) onto each of ``axes_a``, then particle 2's onto each of
    ``axes_b``, with j2 = -j1 folded into its coefficients (y * (-sin t)
    equals (-y) * sin t bit for bit); z terms go through a row-sized scratch."""
    sin_t = [[math.sin(t.theta)] for t in axes_a] + [[-math.sin(t.theta)] for t in axes_b]
    cos_t = [[math.cos(t.theta)] for t in axes_a] + [[-math.cos(t.theta)] for t in axes_b]
    p = y * np.array(sin_t, dtype=y.dtype)
    term = np.empty_like(z)
    for row, c in zip(p, np.array(cos_t, dtype=y.dtype)):
        row += np.multiply(z, c, out=term)
    return p


def _signs(source: PairSource, draws, axes_a, axes_b) -> np.ndarray:
    """The mask p >= 0 of the float64 :func:`_projections` of ``draws``,
    bit for bit, decided for most pairs from float32 trig and projections.

    An argument in [0, 2 pi) rounded to float32 moves by at most 2^-22,
    and NumPy's float32 sin and cos err by about 1.5 ulp, 1.5 * 2^-24, at
    most; so a trig value is off by delta < 2^-21.5, on the sphere in
    y = r sin(az) only.  In the rotating frame, errors e1, e2 in sin and
    cos beta and e3 in yf move (y, z) by zf (e1, e2) + yf (e2, -e1) +
    e3 (cos beta, -sin beta) to first order, at most (1 + sqrt 2) delta <
    2^-20.2 as the first two terms are orthogonal; a unit axis passes no
    more to p.  Seven float32 roundings (y, z, two coefficients, two
    products, the sum; each below 2) add at most 4.2 * 2^-24.  So the
    screened p' is within 2^-19 of p, and where |p'| >= _DOUBT = 2^-14,
    32 times that, p has the sign of p'.  The pairs with some |p'| below
    _DOUBT, about 6 in 10^5 per axis, are evaluated again in float64."""
    def float32(trig):
        return lambda x, out=None: trig(x.astype(np.float32), out=out)

    y, z = pair_yz(source, draws, float32(np.sin), float32(np.cos))
    p = _projections(y.astype(np.float32), z.astype(np.float32), axes_a, axes_b)
    plus = p >= 0.0
    doubt = np.flatnonzero(np.minimum.reduce(np.abs(p, out=p), axis=0) < _DOUBT)
    if doubt.size:
        exact = _projections(*pair_yz(source, draws, np.sin, np.cos, doubt), axes_a, axes_b)
        plus[:, doubt] = exact >= 0.0
    return plus


def _quarter_sums(disagree, n: int):
    """(s, s2) tables of a +-1/2 model's ``n`` pairs from the number of
    pairs whose outcomes disagree, per axis pair: each product is -1/4
    there and +1/4 elsewhere."""
    s = np.array([[0.25 * (n - 2 * k) for k in row] for row in disagree])
    return s, np.full(s.shape, n / 16)


def role_sums(model, source, axes_a, axes_b, n: int, streams):
    """Yields (s, s2) tables, each (m_a, m_b), of the sums of o1 o2 and of
    (o1 o2)^2 over ``n`` pairs measured along every axis pair, in blocks of
    _BLOCK_PAIRS pairs, block i drawn from the i-th of ``streams``; their
    running sum is the block sums added in block order, bit for bit.  All
    axis pairs read a block's one set of draws, so entry (i, j) is bit for
    bit the sum of the block's :func:`measure_pair_batch` outcomes for
    (a_i, b_j), except for StochasticSign, which draws its flips for every
    axis.  A chunk of as many whole blocks as keep its (m_a + m_b)
    projections per pair within _CHUNK_VALUES, and at least one, is
    measured at once: each block draws its pairs, then StochasticSign's
    (m_a + m_b, size) flips, into its slice of buffers that serve every
    chunk, and a pair's y, z and signs depend on its own draws only.

    Draws that are only compared with a probability are taken as words
    (:meth:`RngStream.words`): EnsembleDep's pairs fill a (2, chunk)
    buffer, particle 1's row and then particle 2's (see
    :func:`_ensemble_sums`), and StochasticSign's flips are decided as they
    are drawn into a (m_a + m_b, chunk) mask of the signs kept, where the
    flip's double is below p_hi, by the role's one threshold."""
    m = len(axes_a) + len(axes_b)
    chunk = _BLOCK_PAIRS * max(1, _CHUNK_VALUES // (_BLOCK_PAIRS * m))
    width, ensemble, kept = min(n, chunk), isinstance(model, EnsembleDep), None
    if ensemble:
        draws, u2 = np.empty((2, width), dtype=np.uint64), np.empty(width)
        # particle 2 reads +1/2 along b_j where u2 is below its ensemble's
        # P(+1/2), one cut for each outcome o1 = +-1/2 along a_i
        cuts = [
            [tuple(outcome_probabilities(e, b)[0] for e in partners) for b in axes_b]
            for partners in map(_partner_ensembles, axes_a)
        ]
    else:
        draws = np.empty((width, draw_width(source)))
    if isinstance(model, StochasticSign):
        kept, keep_below = np.empty((m, width), dtype=bool), word_threshold(model.p_hi)
    for first in range(0, n, chunk):
        size = min(chunk, n - first)
        bounds = [0, *range(_BLOCK_PAIRS, size, _BLOCK_PAIRS), size]
        for (start, stop), stream in zip(itertools.pairwise(bounds), streams):
            if ensemble:
                draws[:, start:stop] = stream.words((stop - start, 2)).T
                continue
            stream.uniform((stop - start, draws.shape[1]), out=draws[start:stop])
            if kept is not None:
                words_below(stream.words((m, stop - start)), keep_below, out=kept[:, start:stop])
        if ensemble:
            yield _ensemble_sums(draws[:, :size], u2[:size], cuts)
        else:
            yield from _chunk_sums(model, source, axes_a, axes_b, draws[:size], kept, bounds)


def _ensemble_sums(words, u2, cuts):
    """EnsembleDep's (s, s2) tables of one chunk from its (2, n) pair words,
    by counting the pairs whose outcomes disagree (as :func:`_chunk_sums`
    does for the other +-1/2 models).  Particle 1 is decided on its word
    (:func:`ensemble_plus1`).  Particle 2's draw meets two thresholds per
    axis pair, the P(+1/2) pairs of ``cuts``: a uint64 compare costs about
    twice a float64 one, so its words are turned into their doubles once,
    into ``u2`` (:func:`geometry.uniform_of_words`)."""
    plus1 = ensemble_plus1(words[0])
    minus1 = ~plus1
    u2 = uniform_of_words(words[1], out=u2)
    # outcomes disagree where o1 = +1/2 and particle 2 reads -1/2 (u2 at or
    # above the first cut), and where o1 = -1/2 and it reads +1/2
    disagree = [
        [
            np.count_nonzero(plus1 & (u2 >= low)) + np.count_nonzero(minus1 & (u2 < high))
            for low, high in row
        ]
        for row in cuts
    ]
    return _quarter_sums(disagree, len(u2))


def _chunk_sums(model, source, axes_a, axes_b, draws, kept, bounds):
    """(s, s2) tables of a point-like model's chunk of ``draws``, blocks
    between ``bounds``: one per block for ``Direct``, which sums each
    block's own float64 products in pair order along a contiguous row, and
    one for the chunk for the +-1/2 models, which count the pairs whose
    outcomes (from the signs of :func:`_signs`, each kept where StochasticSign's
    mask ``kept`` is set and flipped elsewhere) disagree: sums of +-1/4
    products are multiples of 1/16 far below 2^51, exact in any grouping."""
    m_a, n = len(axes_a), len(draws)
    if isinstance(model, Direct):
        y, z = pair_yz(source, draws, np.sin, np.cos)
        p1, p2 = _projections(y, z, axes_a, []), _projections(y, z, [], axes_b)
        blocks = list(itertools.pairwise(bounds))
        s = np.empty((len(blocks), m_a, len(axes_b)))
        s2 = np.empty_like(s)
        for i in range(m_a):
            prod = p1[i] * p2
            for k, (start, stop) in enumerate(blocks):
                s[k, i] = prod[:, start:stop].sum(axis=-1)
            np.multiply(prod, prod, out=prod)
            for k, (start, stop) in enumerate(blocks):
                s2[k, i] = prod[:, start:stop].sum(axis=-1)
        return list(zip(s, s2))
    plus = _signs(source, draws, axes_a, axes_b)
    if kept is not None:
        np.equal(plus, kept[:, :n], out=plus)
    return [_quarter_sums([[np.count_nonzero(r != q) for q in plus[m_a:]] for r in plus[:m_a]], n)]


def measure_pair_batch(model: DetectorModel, source: PairSource, a, b, n: int, rng: RngStream):
    """Measure ``n`` correlated pairs, particle 1 along ``a`` and particle 2
    along ``b``; returns (o1, o2), the two (n,) outcome arrays.

    Point-like models draw particle 1's in-plane components from the source,
    project in float64 and measure j1 and j2 = -j1 locally.  The ensemble
    detector instead measures particle 1 from the full-sphere ensemble;
    angular-momentum conservation then places particle 2 in the opposite
    hemisphere about ``a``, which is measured along ``b``.  (The source
    argument is ignored in that branch: the emitted statistics of both
    sources coincide with the full-sphere ensemble.)
    """
    if isinstance(model, EnsembleDep):
        draws = rng.uniform((n, 2))
        plus1 = draws[:, 0] < outcome_probabilities(_SPHERE, a)[0]
        low, high = (outcome_probabilities(e, b)[0] for e in _partner_ensembles(a))
        plus2 = np.where(plus1, draws[:, 1] < low, draws[:, 1] < high)
        return np.subtract(plus1, 0.5), np.subtract(plus2, 0.5)
    y, z = sample_pair(source, rng, n)
    p1, p2 = _projections(y, z, [a], []), _projections(y, z, [], [b])
    return measure_pointlike(model, p1[0], rng), measure_pointlike(model, p2[0], rng)
