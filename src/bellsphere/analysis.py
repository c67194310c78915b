"""Correlation estimation, closed-form expectations, CHSH scans, and
joint-distribution feasibility.

The two-particle expectation E(a, b) is estimated by block-wise Monte
Carlo and compared against each model's closed form.  The CHSH combination
C = (|E(a,b) - E(a,b')| + |E(a',b) + E(a',b')|) / v_max^2 is bounded by 2
for any model admitting a joint outcome distribution over all four axes;
feasibility of such a joint table (Fine's criterion) is decided from the
facets of the cone of the 16 outcome atoms, derived in NumPy from the
feasibility equations, and cross-checked against the eight-inequality CHSH
test.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Axis, RngStream, angle_delta
from .distributions import PairSource, StaticSphere
from .detectors import (
    DetectorModel,
    Direct,
    EnsembleDep,
    Sign,
    StochasticSign,
    model_name,
    role_sums,
    v_max,
)

CLOSED_FORM_SLACK = 1e-9
OUTCOME_VALUES = (-0.5, 0.5)  # table index 0 -> -1/2, index 1 -> +1/2
SWEEP_MAX_STEPS = 16  # finest sweep grid: step pi/16, 65,536 quadruples


def e_closed(model: DetectorModel, theta_a: float, theta_b: float) -> float:
    """Closed-form pair expectation E(a, b); depends only on the reduced
    separation d = |theta_b - theta_a| in [0, pi].

    Direct: -cos(d)/3.  Sign: -1/4 + d/2pi.  EnsembleDep: -cos(d)/4.
    StochasticSign: -(p_hi - 1/2)^2 (1 - 2d/pi), the enumeration-validated
    form (see :func:`stochastic_sign_alt_form` for the contested variant).
    """
    d = angle_delta(theta_a, theta_b)
    if isinstance(model, Direct):
        return -math.cos(d) / 3.0
    if isinstance(model, Sign):
        return -0.25 + d / (2.0 * math.pi)
    if isinstance(model, StochasticSign):
        return -((model.p_hi - 0.5) ** 2) * (1.0 - 2.0 * d / math.pi)
    if isinstance(model, EnsembleDep):
        return -0.25 * math.cos(d)
    raise TypeError(f"not a detector model: {model!r}")


def stochastic_sign_alt_form(theta_a: float, theta_b: float) -> float:
    """Alternative closed form for the noisy sign detector: (d/pi - 1)/8.

    The exact outcome enumeration contradicts it -- per-vector outcome
    averages are +-(p_hi - 1/2) = +-1/4 at the default weights, capping
    |E| at 1/16, while this form reaches 1/8 at d = 0.  It is kept only so
    ``verify`` can print both values side by side; it is not used by any
    estimator.
    """
    d = angle_delta(theta_a, theta_b)
    return (d / math.pi - 1.0) / 8.0


def lune_probability(k: float, k_prime: float, delta: float) -> float:
    """Joint sign-detector probability P(D_1a = k, D_2b = k') from the area
    of the spherical lune cut by the two axes:
    k (k - k') + (2 k k' / pi) |delta|.
    """
    if k not in (-0.5, 0.5) or k_prime not in (-0.5, 0.5):
        raise ValueError("outcomes must be -1/2 or +1/2")
    d = angle_delta(0.0, delta)
    return k * (k - k_prime) + (2.0 * k * k_prime / math.pi) * d


@dataclass(frozen=True)
class CorrelationRecord:
    """One estimated pair correlation with its closed-form reference."""

    model: str
    theta_a: float
    theta_b: float
    n_trials: int
    e_hat: float
    std_err: float
    e_closed: float

    @property
    def z_score(self) -> float:
        if self.std_err > 0.0:
            return (self.e_hat - self.e_closed) / self.std_err
        return 0.0 if self.e_hat == self.e_closed else math.inf


@dataclass(frozen=True)
class ChshResult:
    """CHSH evaluation at one angle quadruple."""

    model: str
    a: float
    b: float
    a_prime: float
    b_prime: float
    c_value: float
    v_max: float
    violated: bool
    c_std_err: float | None = None


def _role_table(model, source, thetas_a, thetas_b, n, rng):
    """Monte Carlo (E, standard error) tables, each (m_a, m_b), over ``n``
    pairs measured along every axis pair of one role.

    Trials are partitioned into blocks of 4096 pairs; block i draws from the
    child stream ``rng.split(i)`` (one generator re-keyed per block, see
    :meth:`RngStream.children`), every entry of the table reads the same
    draws, and block sums are added in block order, so the tables are
    bit-identical for a given (seed, stream_id).  The kernel
    (:func:`detectors.role_sums`) takes blocks a chunk at a time.  One pair
    has no standard error, so ``n`` must be at least 2.
    """
    if n < 2:
        raise ValueError("need n >= 2 trials for a standard error")
    axes_a, axes_b = [Axis(t) for t in thetas_a], [Axis(t) for t in thetas_b]
    total = total_sq = 0.0
    for s, s2 in role_sums(model, source, axes_a, axes_b, n, rng.children()):
        total, total_sq = total + s, total_sq + s2
    e_hat = total / n
    variance = np.maximum(total_sq - n * e_hat * e_hat, 0.0) / (n - 1)
    return e_hat, np.sqrt(variance / n)


def estimate_correlation(
    model: DetectorModel,
    source: PairSource,
    theta_a: float,
    theta_b: float,
    n: int,
    rng: RngStream,
) -> CorrelationRecord:
    """Monte Carlo estimate of E(a, b) over ``n >= 2`` pair measurements, the 1 x 1
    role table: block i draws from the child stream ``rng.split(i)`` and
    block sums are added in block order (measured 16,384 pairs at a time),
    so the result is bit-identical for a given (seed, stream_id)."""
    e_hat, std_err = _role_table(model, source, [theta_a], [theta_b], n, rng)
    return CorrelationRecord(
        model=model_name(model),
        theta_a=theta_a,
        theta_b=theta_b,
        n_trials=n,
        e_hat=float(e_hat[0, 0]),
        std_err=float(std_err[0, 0]),
        e_closed=e_closed(model, theta_a, theta_b),
    )


def _chsh_scan(model, axes, n, rng, source):
    """CHSH at every quadruple of the angle lists ``axes = (a, b, a', b')``, each
    of length m; returns (first maximal :class:`ChshResult`, C values,
    violated flags), the arrays indexed by positions (i, j, k, l) in
    (a, b, a', b').

    Correlations come as one m x m table per role (ab, ab', a'b, a'b') and C
    is broadcast over the m^4 quadruples.  Given ``rng``, Monte Carlo role k
    draws its n pairs once, block i on ``rng.split(k).split(i)``, and fills
    its whole table from them: entries within a role share draws, while a
    quadruple's four correlations come from the four roles and so stay
    independent experiments even when roles share axes.  Without ``n`` and
    ``rng`` the closed forms fill the tables.
    """
    if (n is None) != (rng is None):
        raise ValueError("Monte Carlo needs both n and rng; the closed forms take neither")
    a, b, a_prime, b_prime = axes
    m = len(a)
    roles = [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]
    if rng is not None:
        tables = [
            _role_table(model, source, xs, ys, n, rng.split(k))
            for k, (xs, ys) in enumerate(roles)
        ]
        es = np.array([e for e, _ in tables])
        std_errs = np.array([se for _, se in tables])
    else:
        # a sweep's four roles share one grid: each distinct axis pair once
        pairs = [(x, y) for xs, ys in roles for x in xs for y in ys]
        closed = {pair: e_closed(model, *pair) for pair in dict.fromkeys(pairs)}
        es = np.array([closed[pair] for pair in pairs]).reshape(4, m, m)
        std_errs = None

    def by_quadruple(t):
        # E_ab[i, j], E_ab'[i, l], E_a'b[k, j] and E_a'b'[k, l] at (i, j, k, l)
        return (t[0][:, :, None, None], t[1][:, None, None, :],
                t[2].T[None, :, :, None], t[3][None, None, :, :])

    v = v_max(model)
    e = by_quadruple(es)
    c_values = (abs(e[0] - e[1]) + abs(e[2] + e[3])) / v**2
    if std_errs is None:
        c_std_err = None
        violated = c_values > 2.0 + CLOSED_FORM_SLACK
    else:
        s = by_quadruple(std_errs)
        c_std_err = np.sqrt(s[0] ** 2 + s[1] ** 2 + s[2] ** 2 + s[3] ** 2) / v**2
        violated = c_values > 2.0 + 3.0 * c_std_err
    at = np.unravel_index(int(np.argmax(c_values)), c_values.shape)
    best = ChshResult(
        model_name(model), *(angles[i] for angles, i in zip(axes, at)),
        float(c_values[at]), v, bool(violated[at]),
        None if c_std_err is None else float(c_std_err[at]),
    )
    return best, c_values, violated


def chsh(
    model: DetectorModel,
    angles: tuple[float, float, float, float],
    n: int | None = None,
    rng: RngStream | None = None,
    source: PairSource = StaticSphere(),
) -> ChshResult:
    """Evaluate the CHSH combination at angles (a, b, a', b'), the
    one-quadruple sweep.

    Without ``n`` and ``rng`` it uses the closed forms and flags a violation
    when C > 2 + 1e-9.  Given both, it estimates each of the four pair
    correlations from ``n >= 2`` pairs of ``source``, role k (ab, ab', a'b,
    a'b') drawing from ``rng.split(k)``, and flags one when C exceeds 2 by
    at least three propagated standard errors.  One of the two alone raises
    ValueError, as does an angle that is not finite.
    """
    for t in angles:
        Axis(t)  # the check only: the closed forms read the angles as given
    return _chsh_scan(model, [[t] for t in angles], n, rng, source)[0]


@dataclass(frozen=True)
class SweepTable:
    """All CHSH values of a sweep.  ``c_values`` and ``violated`` are indexed
    by the grid positions of (a, b, a', b'); flattened in C order they follow
    ``itertools.product(grid, repeat=4)``."""

    grid: list[float]
    c_values: np.ndarray
    violated: np.ndarray
    v_max: float


def sweep_chsh(
    model: DetectorModel,
    grid_step: float,
    n: int | None = None,
    rng: RngStream | None = None,
    source: PairSource = StaticSphere(),
) -> tuple[ChshResult, SweepTable]:
    """Exhaustive CHSH scan over all angle quadruples on a grid of spacing
    ``grid_step`` covering [0, pi); returns (first maximal result, table).

    The step must divide pi; correlations depend only on reduced axis
    separations, so the [0, pi) grid already realizes every quadruple of
    separations the full circle would; the m^4 values are held in memory, so
    it is at least pi/16.  Given ``n`` and ``rng``, as :func:`chsh` is, it
    draws n pairs per CHSH role and measures them along all m axes (see
    :func:`_chsh_scan`).
    """
    if not grid_step >= math.pi / SWEEP_MAX_STEPS * (1.0 - 1e-9):
        raise ValueError(f"grid_step must be at least pi/{SWEEP_MAX_STEPS}, got {grid_step!r}")
    ratio = math.pi / grid_step
    m = round(ratio)
    if m < 1 or abs(ratio - m) > 1e-9:
        raise ValueError(f"grid_step must divide pi, got {grid_step!r}")
    grid = [i * grid_step for i in range(m)]
    best, c_values, violated = _chsh_scan(model, [grid] * 4, n, rng, source)
    return best, SweepTable(grid, c_values, violated, best.v_max)


class JointTable:
    """Probability table over the 16 joint outcome assignments
    (v_1a, v_1a', v_2b, v_2b') with each value in {-1/2, +1/2}.

    ``probs`` has shape (2, 2, 2, 2) with axes in that observable order and
    index 0 -> -1/2, index 1 -> +1/2; entries are nonnegative and sum to 1.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (2, 2, 2, 2):
            raise ValueError(f"expected shape (2, 2, 2, 2), got {probs.shape}")
        _check_table(probs.ravel().tolist())
        self.probs = np.maximum(probs, 0.0)


def _check_table(values):
    """Raises unless the floats ``values``, a table's entries (zeros may be
    left out), are each at least -1e-9 and sum to 1 within 1e-6: accept
    tests, and ``min`` can step over a NaN that the sum keeps, so a NaN
    fails the first.  Python floats cost less than two reduces here."""
    total = sum(values)
    if not min(values) >= -1e-9 or math.isnan(total):
        raise ValueError("joint table entries must be nonnegative")
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError("joint table must sum to 1")


def _feasibility_matrix():
    atoms = list(itertools.product((0, 1), repeat=4))
    rows = [[1.0] * 16]
    for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
        rows.append(
            [OUTCOME_VALUES[atom[i]] * OUTCOME_VALUES[atom[j]] for atom in atoms]
        )
    for obs_axis in range(4):
        for outcome_index in (1, 0):  # +1/2 first, then -1/2
            rows.append(
                [1.0 if atom[obs_axis] == outcome_index else 0.0 for atom in atoms]
            )
    matrix = np.array(rows)
    matrix.setflags(write=False)
    return matrix


_FEASIBILITY_MATRIX = _feasibility_matrix()


_NOT_FINITE = "correlations must be finite, not NaN or +-inf"
# 8-atom subsets per QR piece of _cone: the piece's (256, 9, 9) q and
# (256, 9, 8) r take 0.3 MiB, its derivation peaks under 2 MiB
_CONE_PIECE = 256


def _pulling(face, rank, atoms, facets) -> list[tuple[int, ...]]:
    """A pulling triangulation of the cone over ``face``, a frozenset of atoms
    of rank ``rank``: its first atom joined to the triangulation of each of
    its facets that misses that atom, the intersections with the cone's
    ``facets`` one rank lower."""
    if len(face) == rank:
        return [tuple(sorted(face))]
    apex = min(face)
    subfaces = sorted({face & f for f in facets if apex not in f}, key=sorted)
    return [
        (apex, *simplex)
        for sub in subfaces
        if np.linalg.matrix_rank(atoms[:, sorted(sub)], tol=1e-9) == rank - 1
        for simplex in _pulling(sub, rank - 1, atoms, facets)
    ]


@functools.cache
def _cone():
    """The cone of the 16 atoms, the columns of A = ``_FEASIBILITY_MATRIX``,
    derived from A at the first decision: (G, simplices, P).

    The atoms span 9 of A's 13 dimensions.  In an orthonormal basis of that
    span, every 8 atoms of rank 8 fix a hyperplane, the last column of a
    complete QR of those atoms, which holds a facet when no atom lies on its
    far side.  The 12,870 subsets are streamed through the QR in pieces of
    ``_CONE_PIECE``, each matrix factored on its own, so only a piece's
    candidate facets outlive it and the derivation peaks under 2 MiB.  Row g
    of G (24, 13) is a facet's unit normal n, in the span and pointing in,
    times its largest entry |n|_inf (see :func:`_decide`).
    ``simplices`` (64, 9) are the atoms of a pulling triangulation built
    from the facets' atoms; P stacks their pseudo-inverses coefficient-major,
    (9 * 64, 13): row 64 j + s gives coefficient j on simplex s.
    """
    u, s, _ = np.linalg.svd(_FEASIBILITY_MATRIX)
    basis = u[:, : np.count_nonzero(s > 1e-9 * s[0])]
    atoms = basis.T @ _FEASIBILITY_MATRIX
    subsets = itertools.combinations(range(16), len(atoms) - 1)
    candidates = []
    while piece := list(itertools.islice(subsets, _CONE_PIECE)):
        q, r = np.linalg.qr(atoms.T[np.array(piece)].transpose(0, 2, 1), mode="complete")
        normals = q[:, :, -1]
        normals *= np.where(normals @ atoms.sum(axis=1) < 0.0, -1.0, 1.0)[:, None]
        values = normals @ atoms
        rank8 = np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) > 1e-9
        facet = rank8 & (values.min(axis=1) >= -1e-9)
        candidates.append((normals[facet], values[facet]))
    normals, values = (np.concatenate(parts) for parts in zip(*candidates))
    tight, first = np.unique(np.abs(values) <= 1e-9, axis=0, return_index=True)
    g = normals[first] @ basis.T
    g *= np.abs(g).max(axis=1, keepdims=True)
    facets = [frozenset(np.flatnonzero(t).tolist()) for t in tight]
    simplices = np.array(_pulling(frozenset(range(16)), len(atoms), atoms, facets))
    pinv = np.linalg.pinv(_FEASIBILITY_MATRIX.T[simplices].transpose(0, 2, 1))
    pinv = pinv.transpose(1, 0, 2).reshape(-1, 13)
    for shared in (g, simplices, pinv):  # every caller gets these same arrays
        shared.setflags(write=False)
    return g, simplices, pinv


def _decide(correlations, marginals, ndim) -> tuple[np.ndarray, np.ndarray | np.bool_]:
    """The one input check and decision of the feasibility routes:
    ``correlations`` has ``ndim`` dimensions, the last of length 4, and is
    finite, and the eight ``marginals`` lie in [0, 1] and sum to 1 per
    observable.  Returns the right-hand sides b = (1, correlations,
    marginals), (13,) for ``ndim`` 1 and (k, 13) for ``ndim`` 2, and their
    decisions min(G b) >= -1e-9 over the facets G of :func:`_cone` from the
    one product ``b @ G.T``: a NumPy bool, or a (k,) bool array.

    Finiteness is tested before the product, where a +inf beside a -inf
    would give NaN and a floating-point warning: one vector on Python
    floats (one sum, then each entry if the sum is not finite, as huge
    finite entries can also make it), a batch by ``np.isfinite``.

    This restates on the facets the rule of the nearest nonnegative table
    (least squares over the atoms), accepted when its largest row residual
    is at most 1e-9.  Split b = b_S + b_o, b_S in the atoms' span S:
    - b_o is set by the pair sums alone, d_k = P(+) + P(-) - 1 of
      observable k: it is sum m_k c_k with c_k = e_0 - e_k+ - e_k- and
      m = (sum(d)/6 - d)/2, so its entries are at most 2/3 max |d_k|, under
      2/3 1e-9 once the check below passes.  No table changes it and G,
      lying in S, is blind to it, so it is not formed;
    - when the point of the cone nearest b_S lies inside one facet, b_S's
      residual is -(n . b) n, whose largest entry is |n . b| |n|_inf =
      -(g . b): g . b >= -1e-9 is then the residual rule itself.  Near a
      lower face, where several facets are violated, the two can differ
      within the band only: a b with g . b < -1e-9 lies farther than
      1e-9 / |n|_inf >= 1e-9 from the cone, so every table leaves a row
      residual above 1e-9 / sqrt 13, while an accepted b_S has a table
      within 2.55e-9 (the largest of one linear program per face).
    """
    es = np.asarray(correlations, dtype=float)
    p = np.asarray(marginals, dtype=float)
    if es.ndim != ndim or es.shape[-1] != 4 or p.shape != (8,):
        raise ValueError("need 4 correlations and 8 marginals")
    values = p.tolist()
    if ndim == 1:  # one vector: Python floats cost less than NumPy calls
        flat = es.tolist()
        finite = math.isfinite(sum(flat)) or all(map(math.isfinite, flat))
        b_eq = np.array([1.0, *flat, *values])
    else:
        # a 0 byte is a NaN or +-inf entry: one bytes scan, cheaper than a reduce
        finite = b"\0" not in np.isfinite(es).tobytes()
        b_eq = np.empty((len(es), 13))
        b_eq[:, 0] = 1.0
        b_eq[:, 1:5] = es
        b_eq[:, 5:] = p
    if not finite:
        raise ValueError(_NOT_FINITE)
    for value in values:
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ValueError(f"marginal out of [0, 1]: {value!r}")
    pairs = iter(values)
    for obs_axis, plus in enumerate(pairs):
        total = plus + next(pairs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"marginals for observable {obs_axis} sum to {total!r}, not 1")
    # ndarray.dot and the ufunc's own reduce: @ and min() add dispatch
    return b_eq, np.minimum.reduce(b_eq.dot(_cone()[0].T), -1) >= -1e-9


def fine_feasible(correlations, marginals) -> tuple[bool, JointTable | None]:
    """Decide whether a joint outcome table reproduces the four pairwise
    correlations and the eight single-outcome marginals.

    ``correlations`` is (E_ab, E_ab', E_a'b, E_a'b') on the +-1/2 outcome
    scale (each in [-1/4, 1/4]; correlations of a detector with a different
    v_max should be multiplied by (1/4)/v_max^2 first, exactly as the CHSH
    combination normalizes them).  ``marginals`` lists (P(X = +1/2),
    P(X = -1/2)) per observable in the order (v_1a, v_1a', v_2b, v_2b').
    Feasibility asks for a nonnegative solution of the 13 equality rows
    over the 16 atoms (one normalization, four correlation and eight
    marginal rows): b = (1, correlations, marginals) must lie in the atoms'
    cone.  The decision is :func:`fine_feasible_many`'s on one row: no
    facet of the cone, derived from the rows at the first decision, is
    violated by more than the single tolerance 1e-9 (see ``_decide``).
    The witness solves b on every simplex of the cone's triangulation and
    keeps the one whose smallest coefficient is largest; coefficients still
    negative, only for b in the band outside the cone, become 0, and the
    table is checked as :class:`JointTable` checks its input.  NaN or
    +-inf among the correlations raises ValueError.
    """
    b_eq, feasible = _decide(correlations, marginals, 1)
    if not feasible:
        return False, None
    _, simplices, pinv = _cone()
    xs = pinv.dot(b_eq).reshape(-1, len(simplices))
    smallest = np.minimum.reduce(xs)
    best = smallest.argmax()
    # a contiguous copy: a fancy assignment from a strided column is slower
    coefficients = xs[:, best].copy()
    if smallest[best] < 0.0:  # only for b in the band outside the cone
        np.maximum(coefficients, 0.0, out=coefficients)
    # the constructor's check on the simplex's entries: the table's other
    # seven are zeros, which pass the first test and leave the sum as it is
    _check_table(coefficients.tolist())
    x = np.zeros(16)
    x[simplices[best]] = coefficients
    table = JointTable.__new__(JointTable)  # checked above, kept without a copy
    table.probs = x.reshape(2, 2, 2, 2)
    return True, table


def fine_feasible_many(correlations, marginals) -> np.ndarray:
    """:func:`fine_feasible`'s decision for each row of a (k, 4) array of
    correlations under one set of eight marginals, as a (k,) bool array:
    the inputs are checked once and every row is decided by one product
    with the cone's facets.  No witness tables are built.
    """
    return _decide(correlations, marginals, 2)[1]


def chsh_inequalities_hold(correlations):
    """Direct check of the eight CHSH sign variants on the +-1/2 outcome
    scale: |+-E_ab +- E_ab' +- E_a'b +- E_a'b'| <= 2 (1/2)^2 + 1e-9 for
    every odd number of minus signs.  Independent of the facet route, whose
    facets are derived rather than written out, on purpose.

    A vector (E_ab, E_ab', E_a'b, E_a'b') gives a bool; a (k, 4) array gives
    a (k,) bool array, one decision per row.  NaN or +-inf raises
    ValueError.
    """
    es = np.asarray(correlations, dtype=float)
    if es.ndim not in (1, 2) or es.shape[-1] != 4:
        raise ValueError(f"need 4 correlations per vector, got shape {es.shape}")
    if not np.logical_and.reduce(np.isfinite(es), axis=None):
        raise ValueError(_NOT_FINITE)
    e_ab, e_abp, e_apb, e_apbp = es.T
    # each sum left to right, as the sum of a list of the four signed terms
    hold = (
        (abs(-e_ab + e_abp + e_apb + e_apbp) <= 0.5 + 1e-9)
        & (abs(e_ab - e_abp + e_apb + e_apbp) <= 0.5 + 1e-9)
        & (abs(e_ab + e_abp - e_apb + e_apbp) <= 0.5 + 1e-9)
        & (abs(e_ab + e_abp + e_apb - e_apbp) <= 0.5 + 1e-9)
    )
    return bool(hold) if es.ndim == 1 else hold
