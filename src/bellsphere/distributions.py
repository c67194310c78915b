"""Ensembles on the angular-momentum sphere and the anti-correlated source.

Two ensemble families: the uniform sphere and uniform hemispheres about an
axis in the measurement plane.  The eigenstate analog, a ring of fixed
magnitude ``j0`` and z-projection ``jz0``, is given by its
configuration-space density (an inverse-square-root profile with an
integrable blow-up at the support boundary) and quadrature helpers that
integrate it against the solid-angle measure.  The pair source emits
exactly anti-correlated two-particle draws, ``j2 = -j1`` component for
component, and returns particle 1's in-plane components, all that a
measurement reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    Axis,
    RngStream,
    _radius,
    _sphere_coordinates,
    angle_delta,
    project,
)

_DENSITY_NODES = 2048  # midpoint nodes of quad_density_normalization
_RING_NODES = 4096  # midpoint nodes of quad_ring_mean_projection


@dataclass(frozen=True)
class FullSphere:
    """Uniform distribution over the whole angular-momentum sphere."""


@dataclass(frozen=True)
class Hemisphere:
    """Uniform distribution on one hemisphere about ``axis``.

    ``sign=+1`` selects the side where the projection onto the axis is
    positive, ``sign=-1`` the other side.
    """

    axis: Axis
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"hemisphere sign must be -1 or +1, got {self.sign!r}")


Ensemble = FullSphere | Hemisphere


def ensemble_mean_projection(ensemble: Ensemble, b: Axis) -> float:
    """Mean angular-momentum projection onto axis ``b``.

    Full sphere: 0.  Hemisphere about ``a`` with sign s: s cos(b - a) / 2.
    """
    if isinstance(ensemble, FullSphere):
        return 0.0
    if isinstance(ensemble, Hemisphere):
        return 0.5 * ensemble.sign * math.cos(angle_delta(ensemble.axis.theta, b.theta))
    raise TypeError(f"not an ensemble: {ensemble!r}")


@dataclass(frozen=True)
class ConfigDensity:
    """Configuration-space density for fixed (j0, jz0).

    value(theta) = N / (sin(theta) * sqrt(j0^2 - jz0^2 / sin^2(theta)))
    on the support sin^2(theta) >= (jz0/j0)^2 and 0 outside; the value at
    the support boundary is +inf (an integrable singularity).  N = j0/2pi^2
    normalizes the density against the solid-angle measure
    sin(theta) dtheta dphi.
    """

    j0: float
    jz0: float

    def __post_init__(self):
        # accept tests, so that NaN fails them
        if not 0.0 < self.j0 < math.inf:
            raise ValueError(f"j0 must be positive and finite, got {self.j0!r}")
        if not abs(self.jz0) <= self.j0:
            raise ValueError(
                f"|jz0| <= j0 required, got jz0={self.jz0!r}, j0={self.j0!r}"
            )

    @property
    def norm_constant(self) -> float:
        return self.j0 / (2.0 * math.pi**2)

    def at(self, theta):
        """Density at polar angle(s) ``theta`` (azimuth-independent).

        Returns 0 outside the support and +inf on its boundary.
        """
        theta = np.asarray(theta, dtype=float)
        s2 = np.sin(theta) ** 2
        ratio2 = (self.jz0 / self.j0) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            radicand = self.j0**2 - self.jz0**2 / np.where(s2 > 0.0, s2, np.nan)
            inner = self.norm_constant / (
                np.sqrt(s2) * np.sqrt(np.where(radicand > 0.0, radicand, np.nan))
            )
        on_support = s2 >= ratio2
        # s2 == 0 is on-support only for jz0 == 0, where the density blows up
        boundary = on_support & ~(np.nan_to_num(radicand, nan=-1.0) > 0.0)
        return np.where(on_support, np.where(boundary, np.inf, inner), 0.0)


def quad_density_normalization(density: ConfigDensity) -> float:
    """Integral of the density against sin(theta) dtheta dphi, by midpoint rule.

    Substituting u = cos(theta) and then u = u0 sin(t) (u0 the half-width of
    the support in u) absorbs the inverse-square-root boundary blow-up, so
    the transformed integrand is bounded and the rule converges cleanly.
    A naive rule in theta would straddle the singularity.
    """
    u0sq = 1.0 - (density.jz0 / density.j0) ** 2
    if u0sq <= 0.0:
        raise ValueError("degenerate ring (|jz0| = j0) has no areal density")
    u0 = math.sqrt(u0sq)
    dt = math.pi / _DENSITY_NODES
    t = -0.5 * math.pi + (np.arange(_DENSITY_NODES) + 0.5) * dt
    u = u0 * np.sin(t)
    theta = np.arccos(u)
    values = density.at(theta)
    # du = u0 cos(t) dt; the phi integral contributes 2 pi
    return float(TWO_PI * dt * np.sum(values * u0 * np.cos(t)))


def quad_ring_mean_projection(j0: float, jz0: float, axis: Axis) -> float:
    """Mean projection of the ring's angular momentum onto ``axis``.

    Direct azimuthal quadrature over the ring (physical magnitude ``j0``),
    an independent check of the jz0 cos(theta) closed form.
    """
    ConfigDensity(j0, jz0)  # the one check of the ring's (j0, jz0)
    phi = (np.arange(_RING_NODES) + 0.5) * (TWO_PI / _RING_NODES)
    r = math.sqrt(max(j0**2 - jz0**2, 0.0))
    vectors = np.stack(
        [r * np.cos(phi), r * np.sin(phi), np.full_like(phi, jz0)], axis=-1
    )
    return float(np.mean(project(vectors, axis)))


@dataclass(frozen=True)
class StaticSphere:
    """Pair source with j1 uniform on the sphere and j2 = -j1 exactly."""


@dataclass(frozen=True)
class RotatingHemispheres:
    """Pair source drawing, for each pair, a fresh random plane axis and
    opposite hemispheres about it for the two particles (j2 = -j1 exactly).

    Averaged over the per-pair axis the single-particle marginal is uniform
    on the sphere, so the emitted statistics match :class:`StaticSphere`.
    """


PairSource = StaticSphere | RotatingHemispheres


def draw_width(source: PairSource) -> int:
    """Uniform draws per pair, a row of :func:`pair_yz`'s ``draws``: 2 or 4."""
    if not isinstance(source, (StaticSphere, RotatingHemispheres)):
        raise TypeError(f"not a pair source: {source!r}")
    return 2 if isinstance(source, StaticSphere) else 4


def pair_yz(source: PairSource, draws, sin, cos, index=slice(None)):
    """Particle 1's in-plane components (y, z) of the pairs ``draws[index]``,
    the one home of the sources' formula; ``sin`` and ``cos`` are called as
    NumPy's are.  A pair's y and z depend on its own draws alone, so they
    are the same whichever pairs are evaluated with it."""
    draws = draws[index]
    if isinstance(source, StaticSphere):
        z, az, r = _sphere_coordinates(draws)
        r *= sin(az, out=az)
        return r, z
    beta = TWO_PI * draws[:, 0]
    zf = 1.0 - draws[:, 2]
    # side +-1 by arithmetic on the mask: no branch on random bits
    zf *= (draws[:, 1] < 0.5) * 2.0 - 1.0
    yf = TWO_PI * draws[:, 3]
    sin(yf, out=yf)
    yf *= _radius(zf)
    sin_beta = sin(beta)
    cos_beta = cos(beta, out=beta)
    # the frame's z axis turned onto the plane axis (0, sin beta, cos beta)
    y = zf * sin_beta
    y += yf * cos_beta
    z = zf * cos_beta
    z -= yf * sin_beta
    return y, z


def sample_pair(source: PairSource, rng: RngStream, n: int):
    """Draw ``n`` anti-correlated pairs; returns (y, z), particle 1's in-plane
    components, each (n,).

    Particle 2 is j2 = -j1 exactly, and every measurement axis lies in the
    y-z plane, so these two components are all a measurement of either
    particle reads.
    """
    return pair_yz(source, rng.uniform((n, draw_width(source))), np.sin, np.cos)
