"""Command-line front end: correlation runs, CHSH evaluations and sweeps,
sequential-measurement demos, and the suite of :mod:`bellsphere.verify`.

Angles accept rational multiples of pi (``pi/4``, ``3pi/4``) as well as
plain radians.  Output is CSV (one comment header line carrying a
timestamp, then fixed columns) or JSON (an array of flat objects).  Data
rows are byte-identical across runs with the same seed.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, detectors, distributions, oracles, verify
from .geometry import Axis, RngStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

# the --source names
_SOURCES = {"sphere": distributions.StaticSphere, "rotating": distributions.RotatingHemispheres}

CORRELATION_COLUMNS = (
    "model",
    "theta_a",
    "theta_b",
    "n_trials",
    "e_hat",
    "std_err",
    "e_closed",
    "z_score",
)
CHSH_COLUMNS = ("model", "a", "b", "a_prime", "b_prime", "c_value", "v_max", "violated")

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)(\d+(?:\.\d*)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE,
)


def _parse_radians(text: str) -> float:
    """Parse plain radians or a rational multiple of pi, as given.

    The fraction is evaluated first and multiplied by pi once, so grid
    angles like ``3pi/4`` land on exact multiples of the float pi.
    ``nan``, ``inf`` and an empty entry are rejected.  A length, the sweep
    step, is taken as it is; an axis goes through :func:`parse_angle`."""
    try:
        value = float(text)
    except ValueError:
        match = _ANGLE_RE.match(text)
        if match is None:
            raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")
        sign = -1.0 if match.group(1) == "-" else 1.0
        numerator = float(match.group(2)) if match.group(2) else 1.0
        denominator = float(match.group(3)) if match.group(3) else 1.0
        if denominator == 0.0:
            raise argparse.ArgumentTypeError(f"zero denominator in angle {text!r}")
        value = sign * (numerator / denominator) * math.pi
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be finite, got {text!r}")
    return value


def parse_angle(text: str) -> float:
    """Parse an axis angle, normalized into [0, 2 pi) as :class:`Axis` does."""
    return Axis(_parse_radians(text)).theta


def parse_angle_list(text: str) -> list[float]:
    return [parse_angle(part) for part in text.split(",")]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -7 and -.5 for numbers, other tokens led by a -
        # for options: a signed angle (-pi/4, -3pi/8, -1e-3) is a value
        self._negative_number_matcher = re.compile(r"-(?:[\d.]|pi)", re.IGNORECASE)

    def _get_values(self, action, arg_strings):
        # before Python 3.13, argparse stores --option=-- as an empty list
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)

    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _row_format(columns, fmt: str):
    """How rows of ``columns`` are written in ``fmt``: the cell encoder, the
    label before each cell, a row's opening and closing, the separator
    between rows, and the opening and closing of the text.  JSON is what
    ``json.dumps(rows as objects, indent=2)`` writes."""
    if fmt == "json":
        def cell(value):
            # RFC 8259 has no nan or infinity: non-finite floats are written as null
            if isinstance(value, float) and not math.isfinite(value):
                value = None
            return json.dumps(value, allow_nan=False)

        labels = [f'\n    "{column}": ' for column in columns]
        return cell, labels, "  {", "\n  }", ",\n", "[\n", "\n]\n"
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    opening = f"# generated_at={stamp}\n{','.join(columns)}\n"
    return _format_cell, [""] * len(columns), "", "", "\n", opening, "\n"


def _render(columns, rows, fmt: str) -> str:
    """Rows are sequences of cells in column order."""
    cell, labels, row_open, row_close, separator, opening, closing = _row_format(columns, fmt)
    lines = (
        row_open + ",".join(label + cell(value) for label, value in zip(labels, row)) + row_close
        for row in rows
    )
    return opening + separator.join(lines) + closing


def _emit(chunks, output_path: Path | None) -> None:
    """Write the text pieces ``chunks`` in order to the file or to stdout."""
    if output_path is None:
        sys.stdout.writelines(chunks)
    else:
        with output_path.open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _summary(line: str, output_path: Path | None) -> None:
    # keep stdout clean for data when no output file was given
    print(line, file=sys.stdout if output_path is not None else sys.stderr)


def cmd_correlate(args) -> int:
    record = analysis.estimate_correlation(
        detectors.model_from_name(args.model, args.p_hi),
        _SOURCES[args.source](),
        args.theta_a,
        args.theta_b,
        args.trials,
        RngStream(args.seed),
    )
    row = [getattr(record, c) for c in CORRELATION_COLUMNS]
    _emit([_render(CORRELATION_COLUMNS, [row], args.fmt)], args.out)
    return EXIT_OK


def _scan_options(args) -> dict:
    # --mode as chsh's and sweep_chsh's keywords, n and rng for Monte Carlo;
    # the stream is keyed in every mode, so the seed's range is always checked
    rng = RngStream(args.seed)
    options = {"source": _SOURCES[args.source]()}
    if args.mode == "montecarlo":
        options.update(n=args.trials, rng=rng)
    return options


def cmd_chsh(args) -> int:
    angles = parse_angle_list(args.angles)
    if len(angles) != 4:
        raise ValueError("--angles needs exactly four comma-separated angles")
    result = analysis.chsh(
        detectors.model_from_name(args.model, args.p_hi), tuple(angles), **_scan_options(args)
    )
    row = [getattr(result, c) for c in CHSH_COLUMNS]
    _emit([_render(CHSH_COLUMNS, [row], args.fmt)], args.out)
    _summary(
        f"C = {result.c_value:.9g} (v_max = {result.v_max:.9g}, "
        f"violated = {_format_cell(result.violated)})",
        args.out,
    )
    return EXIT_OK


def _sweep_chunks(model: str, table: analysis.SweepTable, fmt: str):
    """The rows of a sweep as text, one chunk of m^3 rows per a-angle, byte
    for byte what ``_render`` writes for the same rows.

    Each distinct cell is encoded once: the model, v_max, each grid angle in
    each column, each distinct C (found by its bits with ``np.unique``) and
    each violated flag.  A row is one of m heads (model, a), one of m^3
    middles (b, a', b') and one of the tails (C, v_max, violated), numbered
    2 * (index of C) + violated.  A chunk is an (m^3, 3) object array of
    pieces: the separator and the chunk's head, the middles, and the rows'
    tails gathered by key, joined once; the first row of the first chunk
    has no separator.
    """
    cell, labels, row_open, row_close, separator, opening, closing = _row_format(
        CHSH_COLUMNS, fmt
    )
    m = len(table.grid)
    c_bits = np.ascontiguousarray(table.c_values, dtype=np.float64).view(np.uint64)
    bits, inverse = np.unique(c_bits, return_inverse=True)
    keys = 2 * inverse.reshape(m, m**3) + table.violated.reshape(m, m**3)
    a, b, a_prime, b_prime = ([f"{labels[k]}{cell(t)}," for t in table.grid] for k in range(1, 5))
    heads = [f"{row_open}{labels[0]}{cell(model)},{x}" for x in a]
    v_max = f",{labels[6]}{cell(table.v_max)},{labels[7]}"
    c_cells = [f"{labels[5]}{cell(c)}{v_max}" for c in bits.view(np.float64).tolist()]
    flags = [f"{cell(flag)}{row_close}" for flag in (False, True)]
    tails = np.array([c + flag for c in c_cells for flag in flags], dtype=object)
    rows = np.empty((m**3, 3), dtype=object)
    rows[:, 1] = [x + y + z for x in b for y in a_prime for z in b_prime]
    yield opening
    for i, head in enumerate(heads):
        rows[:, 0] = separator + head
        if i == 0:
            rows[0, 0] = head
        rows[:, 2] = tails[keys[i]]
        yield "".join(rows.ravel().tolist())
    yield closing


def cmd_sweep(args) -> int:
    best, table = analysis.sweep_chsh(
        detectors.model_from_name(args.model, args.p_hi), args.step, **_scan_options(args)
    )
    _emit(_sweep_chunks(best.model, table, args.fmt), args.out)
    _summary(
        f"max C = {best.c_value:.9g} at angles "
        f"({best.a:.9g}, {best.b:.9g}, {best.a_prime:.9g}, {best.b_prime:.9g}), "
        f"violated = {_format_cell(best.violated)}",
        args.out,
    )
    return EXIT_OK


def _ensemble_label(ensemble) -> str:
    if isinstance(ensemble, distributions.FullSphere):
        return "sphere"
    sign = "+" if ensemble.sign > 0 else "-"
    return f"hemisphere(theta={ensemble.axis.theta:.6f}, sign={sign}1)"


def _signed(value: float) -> str:
    # a value that rounds to zero prints +0.000000, never -0.000000
    return f"{round(value, 6) + 0.0:+.6f}"


# most trials per step: the traced peak of a step is about 39 MiB per million
# trials, so the cap holds it near 0.4 GB
SEQUENTIAL_MAX_TRIALS = 10_000_000


def cmd_sequential(args) -> int:
    axes = [Axis(t) for t in parse_angle_list(args.axes)]
    if args.trials < 2:
        raise ValueError("--trials must be at least 2 for a standard error")
    if args.trials > SEQUENTIAL_MAX_TRIALS:
        raise ValueError(f"--trials must be at most {SEQUENTIAL_MAX_TRIALS}, got {args.trials}")
    if args.initial == "sphere":
        e0 = distributions.FullSphere()
    else:
        e0 = distributions.Hemisphere(Axis(args.initial_axis), args.initial_sign)
    tree_means = oracles.sequence_means(e0, axes)
    steps = detectors.sequence_outcomes(e0, axes, args.trials, RngStream(args.seed))

    print("sequential ensemble measurements")
    print(f"initial ensemble : {_ensemble_label(e0)}")
    print(f"axes             : {', '.join(f'{a.theta:.6f}' for a in axes)}")
    print(f"trials={args.trials} seed={args.seed}")
    for i, (axis, outcomes, tree_mean) in enumerate(zip(axes, steps, tree_means)):
        freq_plus = float(np.mean(outcomes > 0))
        mc_mean = float(np.mean(outcomes))
        print(f"step {i + 1}: axis theta={axis.theta:.6f}")
        print(
            f"  mc P(+1/2)={freq_plus:.6f}  mc mean={_signed(mc_mean)}  "
            f"tree mean={_signed(tree_mean)}"
        )
        pre = e0 if i == 0 else distributions.Hemisphere(axes[i - 1], 1)
        pre_mean = distributions.ensemble_mean_projection(pre, axis)
        print(
            f"  transitions from {_ensemble_label(pre)} "
            f"(mean projection {_signed(pre_mean)}; mirror for the -1 branch):"
        )
        for outcome, post, own, alt in detectors.projection_deltas(pre, axis):
            print(
                f"    outcome {outcome:+.1f}: post={_ensemble_label(post)}  "
                f"delta<J>(post-pre)={_signed(own)}  alt(-2kP)={_signed(alt)}"
            )
    # the loop leaves the last step's outcomes and means behind
    final_err = float(np.std(outcomes, ddof=1) / math.sqrt(args.trials))
    print(
        f"final outcome: mc mean={_signed(mc_mean)} +- {final_err:.6f}, "
        f"tree oracle={_signed(tree_mean)}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    ok = verify.run_verification(args.seed, feasibility_samples=args.feasibility_samples)
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument wiring


def _add_output_options(parser):
    parser.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    parser.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), default="csv", help="output format"
    )


def _add_seed_option(parser):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")


def _add_run_options(parser, trials_default: int):
    _add_seed_option(parser)
    parser.add_argument("--trials", type=_positive_int, default=trials_default)


def _add_model_options(parser):
    parser.add_argument("--model", required=True, choices=detectors.MODELS)
    parser.add_argument(
        "--p-hi",
        type=_p_hi,
        default=detectors.StochasticSign.p_hi,
        help="sign-agreement weight of the stochastic model (in [1/2, 1])",
    )
    parser.add_argument(
        "--source",
        choices=_SOURCES,
        default="sphere",
        help="pair source: static sphere or per-pair rotating hemispheres",
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _p_hi(text: str) -> float:
    # StochasticSign holds the range; a non-number reaches it as nan
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    try:
        return detectors.StochasticSign(value).p_hi
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc} (from {text!r})") from None


# one parser per process; argparse finds sys.stdout and sys.stderr only as it writes
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellsphere",
        description="Monte Carlo workbench for classical angular-momentum Bell tests",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("correlate", help="estimate one pair correlation E(a, b)")
    _add_model_options(p)
    p.add_argument("--theta-a", type=parse_angle, required=True)
    p.add_argument("--theta-b", type=parse_angle, required=True)
    _add_run_options(p, trials_default=100_000)
    _add_output_options(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("chsh", help="evaluate the CHSH combination at four angles")
    _add_model_options(p)
    p.add_argument("--angles", required=True, help="four angles, e.g. 0,pi/4,pi/2,3pi/4")
    p.add_argument("--mode", choices=("closed", "montecarlo"), default="closed")
    _add_run_options(p, trials_default=100_000)
    _add_output_options(p)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("sweep", help="scan all angle quadruples on a grid")
    _add_model_options(p)
    p.add_argument("--step", type=_parse_radians, required=True, help="grid step; must divide pi")
    p.add_argument("--mode", choices=("closed", "montecarlo"), default="closed")
    _add_run_options(p, trials_default=10_000)
    _add_output_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sequential", help="sequential ensemble measurements demo")
    p.add_argument("--axes", required=True, help="comma-separated axis angles")
    p.add_argument("--initial", choices=("hemisphere", "sphere"), default="hemisphere")
    p.add_argument("--initial-axis", type=parse_angle, default=0.0)
    p.add_argument("--initial-sign", type=int, choices=(-1, 1), default=1)
    _add_run_options(p, trials_default=100_000)
    p.set_defaults(func=cmd_sequential)

    p = sub.add_parser("verify", help="run the self-verification suite")
    _add_seed_option(p)
    p.add_argument("--feasibility-samples", type=_positive_int, default=verify.FEASIBILITY_SAMPLES)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        print(f"bellsphere: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"bellsphere: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
