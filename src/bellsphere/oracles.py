"""Deliberately naive reference computations used to validate the library.

Sphere quadrature, exact outcome-tree enumeration, and closed two-branch
sums.  The formulas here are restated from first principles on purpose:
these functions must stay independent of the modules they check (no shared
closed forms), since they are the main defense against transcription
errors in the expectation formulas.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Ensemble, FullSphere, Hemisphere
from .detectors import DetectorModel, Sign, StochasticSign

_TWO_PI = 2.0 * math.pi
_QUAD_NODES = 1024  # midpoint nodes per axis of the sphere quadrature grid
_QUAD_ROWS = 32  # u-rows per chunk: 32 chunks of 32,768 nodes, 768 KiB


def _reduced(delta: float) -> float:
    # |delta| folded into [0, pi]; restated locally, see module docstring
    return abs(math.remainder(delta, _TWO_PI))


def quad_expectation(f, *more) -> float | tuple[float, ...]:
    """Sphere average (1/4pi) integral of f dOmega by the midpoint rule.

    ``f`` maps an (m, 3) array of unit vectors to (m,) values, node by node.
    The grid is 1024 x 1024 on (cos theta, phi); midpoint on those makes all
    node weights equal, so the average is the mean of f over the grid.  The
    error falls off as the square of the grid spacing for smooth integrands:
    for f = z^2 it is exactly 1/(3 * 1024^2).  The nodes (r = sqrt(1 - u^2)
    per u, cos phi and sin phi per phi) reach f u-major, in 32 chunks of 32
    whole u-rows, one 768 KiB chunk held at a time, coordinate-major: ``f``
    gets the read-only (m, 3) transpose of a (3, m) buffer whose x, y and z
    rows are contiguous.  Integrands in ``more`` get the same chunks in the
    same pass, and the averages come back as a tuple in order.

    Each chunk's values, one per node (else ValueError), are summed where
    the integrand left them, copied only if not contiguous float64; the 32
    sums are added in pairs, pairs of pairs and so on.  NumPy sums 2^20
    contiguous values pairwise, halving down to 32,768-value blocks, so this
    is its tree and each result is ``np.mean`` of its values bit for bit.
    """
    fs = (f, *more)
    n = _QUAD_NODES
    u = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    phi = (np.arange(n) + 0.5) * (_TWO_PI / n)
    r = np.sqrt(np.maximum(1.0 - u * u, 0.0))[:, None]
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    points = np.empty((3, _QUAD_ROWS, n))
    nodes = points.reshape(3, -1).T  # a view: every chunk lands in it
    nodes.flags.writeable = False
    sums = np.empty((n // _QUAD_ROWS, len(fs)))
    for chunk, start in enumerate(range(0, n, _QUAD_ROWS)):
        rows = slice(start, start + _QUAD_ROWS)
        np.multiply(r[rows], cos_phi, out=points[0])
        np.multiply(r[rows], sin_phi, out=points[1])
        points[2] = u[rows, None]
        for i, g in enumerate(fs):
            values = np.ascontiguousarray(g(nodes), dtype=float)
            if values.shape != (len(nodes),):
                raise ValueError(f"f gave shape {values.shape}, not one value per node")
            sums[chunk, i] = np.add.reduce(values)
    while len(sums) > 1:  # 32 chunk sums: five rounds of pairs
        sums = sums[::2] + sums[1::2]
    means = (sums[0] / (n * n)).tolist()
    return tuple(means) if more else means[0]


def _sign_outcome_weight(outcome: float, sign: int, p_hi: float) -> float:
    # P(outcome | sign of the projection), for threshold-type detectors
    agrees = (outcome > 0) == (sign > 0)
    return p_hi if agrees else 1.0 - p_hi


def enumerate_pointlike_E(model: DetectorModel, delta: float) -> float:
    """Exact pair expectation for the threshold detectors, with no sampling.

    Enumerates the four joint sign configurations of (J_1a, J_1b) -- same
    sign with probability 1 - d/pi from the lune geometry -- applies the
    source anti-correlation sign(J_2b) = -sign(J_1b), and sums the four
    weighted outcome products per configuration.
    """
    if isinstance(model, Sign):
        p_hi = 1.0
    elif isinstance(model, StochasticSign):
        p_hi = model.p_hi
    else:
        raise TypeError("enumeration covers the Sign and StochasticSign models")
    d = _reduced(delta)
    p_same = 1.0 - d / math.pi
    expectation = 0.0
    for s1 in (-1, 1):
        for t in (-1, 1):
            p_signs = 0.5 * (p_same if s1 == t else 1.0 - p_same)
            s2 = -t
            for o1 in (-0.5, 0.5):
                for o2 in (-0.5, 0.5):
                    expectation += (
                        p_signs
                        * _sign_outcome_weight(o1, s1, p_hi)
                        * _sign_outcome_weight(o2, s2, p_hi)
                        * o1
                        * o2
                    )
    return expectation


def enumerate_ensemble_E(delta: float) -> float:
    """Exact pair expectation for the ensemble detector via the two-branch
    outcome tree: P(R_1a = k) = 1/2, then particle 2 measured on the
    opposite hemisphere with P(+1/2) = (1 - sign(k) cos d) / 2."""
    d = _reduced(delta)
    expectation = 0.0
    for k in (-0.5, 0.5):
        sign_k = 1 if k > 0 else -1
        p2_plus = 0.5 * (1.0 - sign_k * math.cos(d))
        for k_prime, p_branch in ((0.5, p2_plus), (-0.5, 1.0 - p2_plus)):
            expectation += 0.5 * p_branch * k * k_prime
    return expectation


def sequence_means(e0: Ensemble, axes) -> list[float]:
    """Exact expected outcome of every step of an ensemble-measurement
    sequence, by enumeration over merged outcome states.

    The branch probabilities restate the measurement law locally: from a
    hemisphere of sign s about theta0, measuring theta gives +1/2 with
    probability (1 + s cos(theta - theta0)) / 2 and leaves a hemisphere of
    the outcome's sign about theta.  So after each step every branch sits on
    that step's axis with one of two signs: the 2^i branches at depth i
    merge into two states, weighted P(+1/2) and 1 - P(+1/2), and one pass
    over the axes carries that weight from step to step.
    """
    axes = list(axes)
    if not axes:
        raise ValueError("need at least one axis")
    if isinstance(e0, Hemisphere):
        theta0, p_plus = e0.axis.theta, 1.0 if e0.sign > 0 else 0.0
    elif isinstance(e0, FullSphere):
        theta0, p_plus = None, 0.5
    else:
        raise TypeError(f"not an ensemble: {e0!r}")
    means = []
    for axis in axes:
        if theta0 is not None:
            keep = 0.5 * (1.0 + math.cos(axis.theta - theta0))  # P(the sign stays)
            p_plus = p_plus * keep + (1.0 - p_plus) * (1.0 - keep)
        means.append(p_plus - 0.5)
        theta0 = axis.theta
    return means
