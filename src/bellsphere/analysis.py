"""Correlation estimation, closed-form expectations, CHSH scans, and
joint-distribution feasibility.

The two-particle expectation E(a, b) is estimated by block-wise Monte
Carlo and compared against each model's closed form.  The CHSH combination
C = (|E(a,b) - E(a,b')| + |E(a',b) + E(a',b')|) / v_max^2 is bounded by 2
for any model admitting a joint outcome distribution over all four axes;
feasibility of such a joint table (Fine's criterion) is decided by
nonnegative least squares over the 16 outcome atoms and cross-checked
against the eight-inequality CHSH test.
"""

from __future__ import annotations

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


def _role_table(model, source, thetas_a, thetas_b, n, rng, block_size):
    """Monte Carlo (E, standard error) tables, each (m_a, m_b), over ``n``
    pairs measured along every axis pair of one role.

    Trials are partitioned into fixed-size blocks; block i draws from the
    child stream ``rng.split(i)`` (one generator re-keyed per block, see
    :meth:`RngStream.children`), every entry of the table reads the same
    draws, and block sums are added in block order, so the tables are
    bit-identical for a given (seed, stream_id, block_size).  The kernel
    (:func:`detectors.role_sums`) takes blocks a chunk at a time.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    axes_a, axes_b = [Axis(t) for t in thetas_a], [Axis(t) for t in thetas_b]
    total = total_sq = 0.0
    for s, s2 in role_sums(model, source, axes_a, axes_b, n, block_size, rng.children()):
        total, total_sq = total + s, total_sq + s2
    e_hat = total / n
    if n > 1:
        variance = np.maximum(total_sq - n * e_hat * e_hat, 0.0) / (n - 1)
    else:
        variance = np.zeros_like(e_hat)
    return e_hat, np.sqrt(variance / n)


def estimate_correlation(
    model: DetectorModel,
    source: PairSource,
    theta_a: float,
    theta_b: float,
    n: int,
    rng: RngStream,
    block_size: int = 4096,
) -> CorrelationRecord:
    """Monte Carlo estimate of E(a, b) over ``n`` pair measurements, the 1 x 1
    role table: block i draws from the child stream ``rng.split(i)`` and
    block sums are added in block order (measured 16,384 pairs at a time by
    default), so the result is bit-identical for a given (seed, stream_id,
    block_size)."""
    e_hat, std_err = _role_table(model, source, [theta_a], [theta_b], n, rng, block_size)
    return CorrelationRecord(
        model=model_name(model),
        theta_a=theta_a,
        theta_b=theta_b,
        n_trials=n,
        e_hat=float(e_hat[0, 0]),
        std_err=float(std_err[0, 0]),
        e_closed=e_closed(model, theta_a, theta_b),
    )


def _chsh_scan(model, axes, mode, n, rng, source, block_size):
    """CHSH at every quadruple of the angle lists ``axes = (a, b, a', b')``, each
    of length m; returns (first maximal :class:`ChshResult`, C values,
    violated flags), the arrays indexed by positions (i, j, k, l) in
    (a, b, a', b').

    Correlations come as one m x m table per role (ab, ab', a'b, a'b') and C
    is broadcast over the m^4 quadruples.  Monte Carlo role k draws its n
    pairs once, block i on ``rng.split(k).split(i)``, and fills its whole
    table from them: entries within a role share draws, while a quadruple's
    four correlations come from the four roles and so stay independent
    experiments even when roles share axes.
    """
    if mode not in ("closed", "montecarlo"):
        raise ValueError(f"mode must be 'closed' or 'montecarlo', got {mode!r}")
    a, b, a_prime, b_prime = axes
    m = len(a)
    roles = [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]
    if mode == "montecarlo":
        if n is None or rng is None:
            raise ValueError("montecarlo mode needs n and rng")
        if n < 2:
            raise ValueError("montecarlo mode needs n >= 2 trials for a standard error")
        source = source if source is not None else StaticSphere()
        tables = [
            _role_table(model, source, xs, ys, n, rng.split(k), block_size)
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
    mode: str = "closed",
    n: int | None = None,
    rng: RngStream | None = None,
    source: PairSource | None = None,
    block_size: int = 4096,
) -> ChshResult:
    """Evaluate the CHSH combination at angles (a, b, a', b'), the
    one-quadruple sweep: Monte Carlo role k (ab, ab', a'b, a'b') draws from
    ``rng.split(k)``.

    ``mode="closed"`` uses the closed forms and flags a violation when
    C > 2 + 1e-9; ``mode="montecarlo"`` estimates each of the four pair
    correlations with ``n >= 2`` trials and flags one when C exceeds 2 by at
    least three propagated standard errors.
    """
    return _chsh_scan(model, [[t] for t in angles], mode, n, rng, source, block_size)[0]


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
    mode: str = "closed",
    n: int | None = None,
    rng: RngStream | None = None,
    source: PairSource | None = None,
    block_size: int = 4096,
) -> tuple[ChshResult, SweepTable]:
    """Exhaustive CHSH scan over all angle quadruples on a grid of spacing
    ``grid_step`` covering [0, pi); returns (first maximal result, table).

    The step must divide pi; correlations depend only on reduced axis
    separations, so the [0, pi) grid already realizes every quadruple of
    separations the full circle would.  Monte Carlo mode draws n pairs per
    CHSH role and measures them along all m axes (see :func:`_chsh_scan`).
    """
    ratio = math.pi / grid_step
    m = round(ratio)
    if m < 1 or abs(ratio - m) > 1e-9:
        raise ValueError(f"grid_step must divide pi, got {grid_step!r}")
    grid = [i * grid_step for i in range(m)]
    best, c_values, violated = _chsh_scan(model, [grid] * 4, mode, n, rng, source, block_size)
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
        # the ufuncs' own reduces: min() and sum() add a Python wrapper
        if np.minimum.reduce(probs, axis=None) < -1e-9:
            raise ValueError("joint table entries must be nonnegative")
        if abs(np.add.reduce(probs, axis=None) - 1.0) > 1e-6:
            raise ValueError("joint table must sum to 1")
        self.probs = np.maximum(probs, 0.0)


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
_nnls = None  # scipy.optimize.nnls, bound on the first decision


def _checked_marginals(width, finite, marginals) -> list[float]:
    """The one home of the feasibility decision's input checks.  ``width``
    is the length of each correlation vector (``None`` when the
    correlations do not have the entry point's shape), ``finite`` whether
    every correlation is finite; returns the eight marginals as floats,
    each in [0, 1] and summing to 1 per observable."""
    try:
        marginals = list(map(float, marginals))
    except TypeError:  # nested: not eight numbers
        marginals = []
    if width != 4 or len(marginals) != 8:
        raise ValueError("need 4 correlations and 8 marginals")
    if not finite:
        raise ValueError(_NOT_FINITE)
    for p in marginals:
        if not -1e-9 <= p <= 1.0 + 1e-9:
            raise ValueError(f"marginal out of [0, 1]: {p!r}")
    for obs_axis in range(4):
        pair_sum = marginals[2 * obs_axis] + marginals[2 * obs_axis + 1]
        if abs(pair_sum - 1.0) > 1e-9:
            raise ValueError(
                f"marginals for observable {obs_axis} sum to {pair_sum!r}, not 1"
            )
    return marginals


def _decide(b_eq) -> tuple[bool, np.ndarray]:
    """Nonnegative least squares on one right-hand side b = (1, correlations,
    marginals); returns (largest row residual |A x - b| <= 1e-9, x).

    Most rows are settled from the residual 2-norm rnorm that ``nnls``
    returns.  Its k <= 9 = rank A Householder steps on m = 13 rows are
    backward stable: rnorm is ||(A + dA) x - (b + db)||_2, ||dA||_F <=
    g ||A||_F, ||db||_2 <= g ||b||_2, g = c m k u for a small c, u = 2^-53
    (Higham, Accuracy and Stability, 19.3, 20.3); a direct ||A x - b||_2
    errs less.  ||A||_F = sqrt 84; x >= 0 and ||A x - b|| <= ||b|| give
    ||x||_2 <= sum x = (A x)_0 <= 2 ||b||; ||b||_2 <= 2.3 for correlations
    in [-1/4, 1/4].  So |rnorm - ||A x - b||_2| <= 20 g ||b|| < c 6e-13,
    under 1e-10 for c < 150: rnorm <= 1e-10 puts max |r| <= ||r||_2 below
    2e-10, rnorm >= 1e-8 puts max |r| >= ||r||_2 / sqrt 13 above 2.7e-9,
    and the 16-term sums forming r err by under 2e-14.  Rows between are
    decided from r."""
    global _nnls
    if _nnls is None:
        # imported here: only this decision needs SciPy, and importing it is
        # most of the package's start-up time
        from scipy.optimize import nnls as _nnls
    x, rnorm = _nnls(_FEASIBILITY_MATRIX, b_eq)
    if rnorm <= 1e-10 or rnorm >= 1e-8:
        return bool(rnorm <= 1e-10), x
    r = _FEASIBILITY_MATRIX @ x
    r -= b_eq
    # the ufunc's own reduce: r.max() adds a Python wrapper
    return float(np.maximum.reduce(np.abs(r, out=r))) <= 1e-9, x


def fine_feasible(
    correlations, marginals
) -> tuple[bool, JointTable | None]:
    """Decide whether a joint outcome table reproduces the four pairwise
    correlations and the eight single-outcome marginals.

    ``correlations`` is (E_ab, E_ab', E_a'b, E_a'b') on the +-1/2 outcome
    scale (each in [-1/4, 1/4]; correlations of a detector with a different
    v_max should be multiplied by (1/4)/v_max^2 first, exactly as the CHSH
    combination normalizes them).  ``marginals`` lists (P(X = +1/2),
    P(X = -1/2)) per observable in the order (v_1a, v_1a', v_2b, v_2b').
    Feasibility asks for a nonnegative solution of the 13 equality rows
    over the 16 atoms (one normalization, four correlation and eight
    marginal rows).  The rows form one read-only matrix built at
    import; a call builds only the right-hand side (1, correlations,
    marginals).  Nonnegative least squares returns the closest table
    with every entry >= 0; it is accepted when its largest row residual is
    at most 1e-9, the single tolerance of this decision, and returned as
    the witness; most vectors are settled with the same outcome from the
    residual 2-norm ``nnls`` returns (see ``_decide``).  NaN or +-inf
    among the correlations raises ValueError.
    :func:`fine_feasible_many` makes the same decision for many vectors.
    """
    try:
        correlations = list(map(float, correlations))
    except TypeError:  # nested: not four numbers
        correlations = []
    marginals = _checked_marginals(
        len(correlations), all(map(math.isfinite, correlations)), marginals
    )
    feasible, x = _decide(np.array([1.0, *correlations, *marginals]))
    if not feasible:
        return False, None
    return True, JointTable(x.reshape(2, 2, 2, 2))


def fine_feasible_many(correlations, marginals) -> np.ndarray:
    """:func:`fine_feasible`'s decision for each row of a (k, 4) array of
    correlations under one set of eight marginals, as a (k,) bool array.

    The inputs are checked once and the k right-hand sides built as one
    (k, 13) array; each row is then solved on its own, exactly as
    :func:`fine_feasible` solves it, so every decision is the same.  No
    witness tables are kept.
    """
    es = np.asarray(correlations, dtype=float)
    marginals = _checked_marginals(
        es.shape[1] if es.ndim == 2 else None, bool(np.isfinite(es).all()), marginals
    )
    b_eq = np.empty((len(es), 13))
    b_eq[:, 0] = 1.0
    b_eq[:, 1:5] = es
    b_eq[:, 5:] = marginals
    return np.array([_decide(b)[0] for b in b_eq], dtype=bool)


def chsh_inequalities_hold(correlations):
    """Direct check of the eight CHSH sign variants on the +-1/2 outcome
    scale: |+-E_ab +- E_ab' +- E_a'b +- E_a'b'| <= 2 (1/2)^2 + 1e-9 for
    every odd number of minus signs.  Independent of the least-squares route
    on purpose.

    A vector (E_ab, E_ab', E_a'b, E_a'b') gives a bool; a (k, 4) array gives
    a (k,) bool array, one decision per row.  NaN or +-inf raises
    ValueError.
    """
    es = np.asarray(correlations, dtype=float)
    if es.ndim not in (1, 2) or es.shape[-1] != 4:
        raise ValueError(f"need 4 correlations per vector, got shape {es.shape}")
    if not np.isfinite(es).all():
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
