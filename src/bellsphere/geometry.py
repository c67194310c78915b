"""Axes, unit angular-momentum vectors, and seeded sampling on the sphere.

Every measurement axis lies in a single plane containing the z axis, so an
axis is one angle measured from z.  Angular momenta are unit 3-vectors
(magnitudes are carried by the ensembles that use them, in units where
J = 1).  All sampling goes through :class:`RngStream`, a counter-based
stream whose output is a pure function of ``(seed, stream_id)``; Monte Carlo
blocks each draw from their own child stream, which is what makes a run
bit-reproducible for a given seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # splitmix64 finalizer: a bijective 64-bit mixer
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _derive_stream_id(parent: int, index: int) -> int:
    return _mix64(parent ^ ((index + 1) * _GOLDEN))


class RngStream:
    """Counter-based random stream (Philox 4x64 under the hood).

    The draw sequence is a pure function of ``(seed, stream_id)``: the same
    pair reproduces the same bits on every platform and run.  Distinct
    stream ids give statistically independent sequences.  The object holds
    a cursor that advances as draws are consumed, so each unit of work
    draws from a stream of its own (see :meth:`split`).  A loop over many
    units walks the child streams with :meth:`children`, which re-keys one
    generator instead of building one per unit.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        # Philox is keyed by 64 bits: a seed outside them would alias one inside
        self.seed = int(seed)
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        self.stream_id = int(stream_id) & _MASK64
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size, out=None):
        """Uniform draws in [0, 1) as an array of shape ``size``, written
        into ``out`` (C-contiguous, of that shape) when given: the same bits."""
        return self._gen.random(size, out=out)

    def split(self, index: int) -> "RngStream":
        """Independent child stream for work unit ``index``.

        The child id is a fixed hash of (parent stream_id, index), so the
        stream a Monte Carlo block draws from depends only on the seed and
        the block's position.
        """
        return RngStream(self.seed, _derive_stream_id(self.stream_id, index))

    def children(self):
        """The child streams ``split(0)``, ``split(1)``, ... in turn.

        One stream is yielded again and again, re-keyed for each index, so a
        child is valid only until the next one is taken.  Each draws the
        same bits as a fresh ``split(index)``, whatever was drawn before:
        re-keying sets the state ``Philox(key=(seed, child id))`` starts in,
        counter 0 and an empty output buffer (``buffer_pos`` 4 of 4).
        """
        child = self.split(0)
        yield child
        for index in itertools.count(1):
            child.stream_id = _derive_stream_id(self.stream_id, index)
            child._gen.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": (0, 0, 0, 0), "key": (self.seed, child.stream_id)},
                "buffer": (0, 0, 0, 0),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield child


@dataclass(frozen=True)
class Axis:
    """A measurement direction in the shared plane: angle from the z axis.

    The angle must be finite (NaN and +-inf raise ValueError); it is stored
    reduced into [0, 2 pi)."""

    theta: float

    def __post_init__(self):
        t = float(self.theta)
        if not math.isfinite(t):
            raise ValueError(f"axis angle must be finite, got {self.theta!r}")
        t %= TWO_PI
        if t >= TWO_PI:  # guard the rounding edge of %
            t -= TWO_PI
        object.__setattr__(self, "theta", t)


def angle_delta(theta_a: float, theta_b: float) -> float:
    """Axis separation |theta_b - theta_a| reduced to [0, pi]."""
    d = abs(theta_b - theta_a) % TWO_PI
    return TWO_PI - d if d > math.pi else d


def project(j: np.ndarray, axis: Axis):
    """Projection of j onto the axis: j . (0, sin theta, cos theta).

    Accepts a single vector of shape (3,) or a batch of shape (n, 3);
    returns a float or an (n,) array accordingly.
    """
    return j[..., 1] * math.sin(axis.theta) + j[..., 2] * math.cos(axis.theta)


def _sphere_coordinates(draws):
    """Height z = 2u - 1, azimuth 2 pi v and distance from the z axis of the
    unit vectors drawn as the rows (u, v) of ``draws``, each a fresh array."""
    z = 2.0 * draws[:, 0]
    z -= 1.0
    return z, TWO_PI * draws[:, 1], _radius(z)


def _radius(z):
    # distance from the z axis of a unit vector at height z; |z| <= 1 keeps
    # 1 - z^2 >= 0 in floating point, so no clamp is needed
    r = np.multiply(z, z)
    np.subtract(1.0, r, out=r)
    return np.sqrt(r, out=r)


def sample_sphere(rng: RngStream, n: int) -> np.ndarray:
    """``n`` uniform unit vectors as an (n, 3) array: z = 2u - 1, azimuth = 2 pi v."""
    z, az, r = _sphere_coordinates(rng.uniform((n, 2)))
    return np.stack([r * np.cos(az), r * np.sin(az), z], axis=-1)
