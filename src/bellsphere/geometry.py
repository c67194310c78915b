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

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

_MASK64 = (1 << 64) - 1
# splitmix64: the golden increment, then the finalizer's (shift, multiplier)
# steps and its last shift, a bijective 64-bit mixer
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
)
_LAST = np.uint64(31)
# the double of a Philox word keeps the word's top 53 bits
_WORD_SHIFT = np.uint64(11)


def _derive_stream_ids(parent: int, first: int, count: int) -> list[int]:
    """The ids of the child streams ``first``, ..., ``first + count - 1`` of
    stream ``parent``: splitmix64's finalizer of parent ^ ((index + 1) *
    golden), in one uint64 pass whose products wrap mod 2^64."""
    x = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    x *= _GOLDEN
    x ^= np.uint64(parent)
    for shift, multiplier in _MIX:
        x ^= x >> shift
        x *= multiplier
    x ^= x >> _LAST
    return x.tolist()


class RngStream:
    """Counter-based random stream (Philox 4x64 under the hood).

    The draw sequence is a pure function of ``(seed, stream_id)``: the same
    pair reproduces the same bits on every platform and run.  Distinct
    stream ids give statistically independent sequences.  The object holds
    a cursor that advances as draws are consumed, so each unit of work
    draws from a stream of its own (see :meth:`split`).  A loop over many
    units walks the child streams with :meth:`children`, which re-keys one
    generator instead of building one per unit.

    :meth:`uniform` gives doubles and :meth:`words` the raw 64-bit words
    behind them, from one sequence: the double of word w is
    (w >> 11) 2^-53.  A draw that is only compared with a probability can
    be decided on its word by :func:`word_threshold`, with the outcome of
    its double and no drawn bit changed.
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

    def words(self, size):
        """The raw uint64 words, of shape ``size``, of the next draws: those
        :meth:`uniform` would turn into its doubles, from the same state, so
        calls of the two continue one sequence."""
        return self._gen.bit_generator.random_raw(size)

    def split(self, index: int) -> "RngStream":
        """Independent child stream for work unit ``index``.

        The child id is a fixed hash of (parent stream_id, index), so the
        stream a Monte Carlo block draws from depends only on the seed and
        the block's position.
        """
        return RngStream(self.seed, _derive_stream_ids(self.stream_id, index, 1)[0])

    def children(self):
        """The child streams ``split(0)``, ``split(1)``, ... in turn.

        One stream is yielded again and again, re-keyed for each index, so a
        child is valid only until the next one is taken.  Each draws the
        same bits as a fresh ``split(index)``, whatever was drawn before:
        re-keying sets the state ``Philox(key=(seed, child id))`` starts in,
        counter 0 and an empty output buffer (``buffer_pos`` 4 of 4), from
        one state dict whose key alone changes.  The ids are derived in
        batches that double from 16 to 1024 indices.
        """
        child = RngStream(self.seed, self.stream_id)
        bit_generator = child._gen.bit_generator
        philox = {"counter": (0, 0, 0, 0), "key": None}
        state = {
            "bit_generator": "Philox",
            "state": philox,
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        first, count = 0, 16
        while True:
            for stream_id in _derive_stream_ids(self.stream_id, first, count):
                child.stream_id = stream_id
                philox["key"] = (self.seed, stream_id)
                bit_generator.state = state
                yield child
            first, count = first + count, min(2 * count, 1024)


def word_threshold(p: float) -> int:
    """The threshold that decides ``uniform() < p`` on the draw's word: for
    every word w of :meth:`RngStream.words` and the double u = (w >> 11)
    2^-53 that :meth:`RngStream.uniform` makes of it, u < p exactly when
    w < word_threshold(p) (and u >= p exactly when it is not).

    For 0 < p < 1 it is ceil(p 2^53) 2^11: p 2^53 is exact, a power-of-two
    scaling, and the integer w >> 11 is below it exactly when it is below
    its ceiling, that is when w is below the ceiling times 2^11.  No double
    is below p <= 0 (or NaN), threshold 0, and every one is below p >= 1,
    threshold 2^64, which no uint64 holds: compare through
    :func:`words_below`, which branches on it.
    """
    if not p > 0.0:
        return 0
    if p >= 1.0:
        return 1 << 64
    return math.ceil(p * 2.0**53) << 11


def uniform_of_words(words, out) -> np.ndarray:
    """The doubles (w >> 11) 2^-53 that :meth:`RngStream.uniform` makes of
    uint64 ``words``, written into the float64 ``out``; ``words`` serves as
    scratch and is left shifted."""
    np.right_shift(words, _WORD_SHIFT, out=words)
    return np.multiply(words, 2.0**-53, out=out)


def words_below(words, threshold: int, out=None) -> np.ndarray:
    """The mask w < ``threshold`` of uint64 ``words``, written into ``out``
    when given, for a threshold from :func:`word_threshold`: at 2^64 every
    word, as every word is at most 2^64 - 1."""
    if threshold > _MASK64:
        return np.less_equal(words, np.uint64(_MASK64), out=out)
    return np.less(words, np.uint64(threshold), out=out)


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
