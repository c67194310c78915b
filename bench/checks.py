"""Checks of the program's outputs against computations made here.

The expectations are worked out again from the geometry of each detector
model rather than imported from ``bellsphere``, so a wrong closed form in
the library cannot pass by agreeing with itself.  Each ``check_*`` function
takes the round's operations and their outputs and returns
``(problems, failed)``: ``problems`` lists every wrong answer that makes the
run incorrect, ``failed`` counts the operations of the kept boundary set of
the feasibility batch that gave a wrong answer (see ``workloads``).

``outputs`` maps an operation name to a dict with ``rc`` (exit code),
``stdout`` (captured text), ``text`` (the ``--out`` file, when the operation
writes one) and, for the feasibility batch, ``results``: one
``[feasible, table]`` per vector, ``table`` the 16 probabilities in the
order of ``JointTable.probs.ravel()`` or ``None``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

Z_LIMIT = 5.0  # |estimate - expectation| in standard errors
SIGMA_REL = 0.02  # the printed std_err against sigma from the second moment
EXACT_TOL = 1e-9
P_HI = 0.75  # the CLI's default weight of the stochastic model

CLOSED_MAXIMA = {
    "direct": 2.0 * math.sqrt(2.0) / 3.0,
    "sign": 2.0,
    "stochastic": 0.5,
    "ensemble": 2.0 * math.sqrt(2.0),
}
POINTLIKE = ("direct", "sign", "stochastic")


def separation(ta: float, tb: float) -> float:
    """|tb - ta| folded into [0, pi]."""
    return abs(math.remainder(tb - ta, 2.0 * math.pi))


def expected_e(model: str, d: float) -> float:
    """E(a, b) at separation ``d``, with j2 = -j1 for the point-like models.

    direct: <-(j.a)(j.b)> over the sphere is -a.b/3.  sign: the signs of
    j.a and j.b agree with probability 1 - d/pi (the lune area); particle 2
    is reversed, so agreement gives the product -1/4.  stochastic: each
    outcome keeps its sign with probability p, which scales the sign
    product by (2p - 1)^2.  ensemble: particle 1 reads +-1/2 evenly, then
    particle 2, on the opposite hemisphere about a, reads k' with
    probability (1 - 4 k k' cos d)/2.
    """
    p_same = 1.0 - d / math.pi
    sign_e = 0.25 * ((1.0 - p_same) - p_same)
    if model == "direct":
        return -math.cos(d) / 3.0
    if model == "sign":
        return sign_e
    if model == "stochastic":
        return (2.0 * P_HI - 1.0) ** 2 * sign_e
    if model == "ensemble":
        return sum(
            0.5 * k * kp * 0.5 * (1.0 - 4.0 * k * kp * math.cos(d))
            for k in (-0.5, 0.5)
            for kp in (-0.5, 0.5)
        )
    raise ValueError(f"unknown model {model!r}")


def second_moment(model: str, d: float) -> float:
    """<(o1 o2)^2>: (1 + 2 cos^2 d)/15 for the direct readout (fourth
    moments of a uniform unit vector), 1/16 for the +-1/2 readouts."""
    if model == "direct":
        return (1.0 + 2.0 * math.cos(d) ** 2) / 15.0
    return 1.0 / 16.0


def sigma_e(model: str, d: float, n: int) -> float:
    """Standard error of a mean of ``n`` outcome products."""
    return math.sqrt(max(second_moment(model, d) - expected_e(model, d) ** 2, 0.0) / n)


def v_max(model: str) -> float:
    return 1.0 if model == "direct" else 0.5


def chsh_value(model: str, angles) -> float:
    a, b, a2, b2 = angles
    es = [expected_e(model, separation(x, y)) for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))]
    return (abs(es[0] - es[1]) + abs(es[2] + es[3])) / v_max(model) ** 2


def chsh_sigma(model: str, angles, n: int) -> float:
    a, b, a2, b2 = angles
    var = sum(
        sigma_e(model, separation(x, y), n) ** 2 for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))
    )
    return math.sqrt(var) / v_max(model) ** 2


def printed_slack(x):
    """Half a unit in the ninth significant digit, the CLI's print precision
    (a float for a float, an array for an array)."""
    x = np.abs(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.where((x > 0.0) & np.isfinite(x), 0.5 * 10.0 ** (np.floor(np.log10(x)) - 8), 0.0)
    return float(out) if out.ndim == 0 else out


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of a CLI CSV output; comment lines are skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _rows_as_dicts(text: str) -> list[dict]:
    header, rows = csv_rows(text)
    return [dict(zip(header, row)) for row in rows]


def _cli_ok(name: str, output: dict, problems: list) -> bool:
    if output.get("rc") != 0:
        problems.append(f"{name}: exit code {output.get('rc')!r}")
        return False
    return True


# ---------------------------------------------------------------------------
# mc_pairs


def check_mc_pairs(ops, outputs) -> tuple[list[str], int]:
    problems: list[str] = []
    estimates = {}
    for op in ops:
        out = outputs[op.name]
        if not _cli_ok(op.name, out, problems):
            continue
        rows = _rows_as_dicts(out.get("text", ""))
        if len(rows) != 1:
            problems.append(f"{op.name}: {len(rows)} data rows, expected 1")
            continue
        row = rows[0]
        model = op.info["model"]
        if row.get("model") != model:
            problems.append(f"{op.name}: model {row.get('model')!r}")
            continue
        if op.name.startswith("chsh"):
            _check_chsh_row(op, row, problems)
            continue
        n = op.info["trials"]
        d = separation(op.info["theta_a"], op.info["theta_b"])
        e_true = expected_e(model, d)
        sigma = sigma_e(model, d, n)
        e_hat, std_err, e_closed = (float(row[k]) for k in ("e_hat", "std_err", "e_closed"))
        if int(row["n_trials"]) != n:
            problems.append(f"{op.name}: n_trials {row['n_trials']} != {n}")
        for key in ("theta_a", "theta_b"):
            if abs(float(row[key]) - op.info[key]) > printed_slack(op.info[key]) + 1e-12:
                problems.append(f"{op.name}: {key} {row[key]} != {op.info[key]!r}")
        if abs(e_closed - e_true) > EXACT_TOL + printed_slack(e_true):
            problems.append(f"{op.name}: e_closed {e_closed!r} != {e_true!r}")
        if abs(e_hat - e_true) > Z_LIMIT * sigma + printed_slack(e_hat):
            problems.append(
                f"{op.name}: e_hat {e_hat!r} is {abs(e_hat - e_true) / sigma:.1f} sigma from {e_true!r}"
            )
        if abs(std_err / sigma - 1.0) > SIGMA_REL:
            problems.append(f"{op.name}: std_err {std_err!r}, sigma from the model {sigma!r}")
        estimates[(model, op.info["source"])] = (e_hat, sigma)
    if ("sign", "rotating") in estimates and ("sign", "sphere") in estimates:
        (e_rot, s_rot), (e_sph, s_sph) = estimates["sign", "rotating"], estimates["sign", "sphere"]
        if abs(e_rot - e_sph) > Z_LIMIT * math.hypot(s_rot, s_sph):
            problems.append(f"rotating source E {e_rot!r} disagrees with sphere source E {e_sph!r}")
    return problems, 0


def _check_chsh_row(op, row, problems) -> None:
    model = op.info["model"]
    angles = [float(row[k]) for k in ("a", "b", "a_prime", "b_prime")]
    expected_angles = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    if any(abs(x - y) > printed_slack(y) + 1e-12 for x, y in zip(angles, expected_angles)):
        problems.append(f"{op.name}: angles {angles}")
        return
    c = float(row["c_value"])
    sigma = chsh_sigma(model, expected_angles, op.info["trials"])
    c_true = chsh_value(model, expected_angles)
    if c - 2.0 < 3.0 * sigma:
        problems.append(f"{op.name}: C = {c!r} does not exceed 2 by 3 sigma ({sigma!r})")
    if abs(c - c_true) > Z_LIMIT * sigma + printed_slack(c):
        problems.append(f"{op.name}: C = {c!r} is {abs(c - c_true) / sigma:.1f} sigma from {c_true!r}")
    if row.get("violated") != "true":
        problems.append(f"{op.name}: violated = {row.get('violated')!r}")


# ---------------------------------------------------------------------------
# sweep_grid


def check_sweep_grid(ops, outputs) -> tuple[list[str], int]:
    problems: list[str] = []
    for op in ops:
        out = outputs[op.name]
        if _cli_ok(op.name, out, problems):
            _check_sweep(op, out.get("text", ""), problems)
    return problems, 0


def _check_sweep(op, text: str, problems: list) -> None:
    model, mode, m = op.info["model"], op.info["mode"], op.info["m"]
    header, rows = csv_rows(text)
    if len(rows) != m**4:
        problems.append(f"{op.name}: {len(rows)} rows, expected {m**4}")
        return
    col = {name: i for i, name in enumerate(header)}
    step = math.pi / m
    angles = np.array([[float(r[col[k]]) for k in ("a", "b", "a_prime", "b_prime")] for r in rows])
    c_values = np.array([float(r[col["c_value"]]) for r in rows])
    violated = np.array([r[col["violated"]] == "true" for r in rows])
    if any(r[col["model"]] != model for r in rows):
        problems.append(f"{op.name}: a row of another model")
    if any(float(r[col["v_max"]]) != v_max(model) for r in rows):
        problems.append(f"{op.name}: v_max differs from {v_max(model)}")
    k = np.rint(angles / step).astype(int)
    if np.max(np.abs(angles - k * step)) > 1e-8 or k.min() < 0 or k.max() >= m:
        problems.append(f"{op.name}: an angle off the pi/{m} grid")
        return
    codes = ((k[:, 0] * m + k[:, 1]) * m + k[:, 2]) * m + k[:, 3]
    if len(np.unique(codes)) != m**4:
        problems.append(f"{op.name}: the rows do not cover every quadruple once")
    # E at each grid separation, then C for every row
    e_table = np.array([expected_e(model, separation(0.0, i * step)) for i in range(m)])
    n = op.info.get("trials")
    var_table = (
        np.array([sigma_e(model, separation(0.0, i * step), n) ** 2 for i in range(m)])
        if n
        else np.zeros(m)
    )
    # on the grid, axes i and j are |i - j| steps apart
    pairs = [np.abs(k[:, i] - k[:, j]) for i, j in ((0, 1), (0, 3), (2, 1), (2, 3))]
    es = [e_table[p] for p in pairs]
    v2 = v_max(model) ** 2
    c_true = (np.abs(es[0] - es[1]) + np.abs(es[2] + es[3])) / v2
    slack = printed_slack(c_values)
    if mode == "closed":
        err = np.abs(c_values - c_true) - (EXACT_TOL + slack)
        if err.max() > 0.0:
            i = int(np.argmax(err))
            problems.append(f"{op.name}: row {i} C = {float(c_values[i])!r}, recomputed {float(c_true[i])!r}")
        if np.any(violated != (c_true > 2.0 + EXACT_TOL)):
            problems.append(f"{op.name}: a violated flag disagrees with C > 2")
        best = float(c_values.max())
        if abs(best - CLOSED_MAXIMA[model]) > EXACT_TOL + printed_slack(best):
            problems.append(f"{op.name}: max C = {best!r}, expected {CLOSED_MAXIMA[model]!r}")
        if model in POINTLIKE and best > 2.0 + EXACT_TOL:
            problems.append(f"{op.name}: a point-like row exceeds 2: {best!r}")
        return
    sigma = np.sqrt(sum(var_table[p] for p in pairs)) / v2
    err = np.abs(c_values - c_true) - (Z_LIMIT * sigma + slack + 1e-12)
    if err.max() > 0.0:
        i = int(np.argmax(err))
        problems.append(
            f"{op.name}: row {i} C = {float(c_values[i])!r}, recomputed {float(c_true[i])!r} "
            f"(sigma {float(sigma[i])!r})"
        )
    if np.any(violated & (c_values <= 2.0)):
        problems.append(f"{op.name}: a row flagged violated with C <= 2")
    if np.any(~violated & (c_true - 2.0 > 8.0 * sigma) & (sigma > 0.0)):
        problems.append(f"{op.name}: a row far above 2 not flagged violated")


# ---------------------------------------------------------------------------
# verify

_ODD_SIGNS = np.array([s for s in itertools.product((1, -1), repeat=4) if s.count(-1) % 2])
_VALUES = (-0.5, 0.5)  # table index 0 -> -1/2, 1 -> +1/2


def inequalities_hold(e) -> bool:
    """The eight CHSH inequalities on the +-1/2 scale: every sum of the four
    correlations with an odd number of minus signs is at most 1/2."""
    return bool(np.all(_ODD_SIGNS @ np.asarray(e, dtype=float) <= 0.5 + EXACT_TOL))


def table_problem(table, e, marginals) -> str | None:
    """Why ``table`` is no joint table for ``e`` and ``marginals``, or None."""
    p = np.asarray(table, dtype=float)
    if p.shape != (16,):
        return f"table of shape {p.shape}"
    if p.min() < 0.0:
        return f"negative entry {float(p.min())!r}"
    if abs(p.sum() - 1.0) > EXACT_TOL:
        return f"sums to {float(p.sum())!r}"
    atoms = list(itertools.product((0, 1), repeat=4))  # (1a, 1a', 2b, 2b')
    for (i, j), target in zip(((0, 2), (0, 3), (1, 2), (1, 3)), e):
        got = sum(q * _VALUES[atom[i]] * _VALUES[atom[j]] for q, atom in zip(p, atoms))
        if abs(got - target) > EXACT_TOL:
            return f"correlation {float(got)!r} != {target!r}"
    for obs in range(4):
        plus = sum(q for q, atom in zip(p, atoms) if atom[obs] == 1)
        if abs(plus - marginals[2 * obs]) > EXACT_TOL or abs(1.0 - plus - marginals[2 * obs + 1]) > EXACT_TOL:
            return f"marginal {float(plus)!r} of observable {obs}"
    return None


def check_verify(ops, outputs, marginals=(0.5,) * 8) -> tuple[list[str], int]:
    problems: list[str] = []
    failed = 0
    for op in ops:
        out = outputs[op.name]
        if op.kind == "cli":
            if not _cli_ok(op.name, out, problems):
                continue
            lines = [line for line in out.get("stdout", "").splitlines() if line.strip()]
            tags = [line.split("]", 1)[0] + "]" for line in lines if line.startswith("[")]
            if "[FAIL]" in tags or any(t not in ("[PASS]", "[INFO]") for t in tags):
                problems.append(f"{op.name}: a check is not marked PASS")
            if "[PASS]" not in tags or not lines or lines[-1] != "verification PASSED":
                problems.append(f"{op.name}: no passing verification in the output")
            continue
        results = out.get("results") or []
        if len(results) != len(op.vectors):
            problems.append(f"{op.name}: {len(results)} results for {len(op.vectors)} vectors")
            continue
        for i, (e, (feasible, table)) in enumerate(zip(op.vectors, results)):
            why = None
            if bool(feasible) != inequalities_hold(e):
                why = f"decision {feasible} for {e}"
            elif feasible:
                why = table_problem(table, e, marginals) if table is not None else "no table"
            elif table is not None:
                why = "a table for an infeasible vector"
            if why is None:
                continue
            if i in op.boundary:
                failed += 1
            else:
                problems.append(f"{op.name}[{i}]: {why}")
    return problems, failed


CHECKS = {
    "mc_pairs": check_mc_pairs,
    "sweep_grid": check_sweep_grid,
    "verify": check_verify,
}
