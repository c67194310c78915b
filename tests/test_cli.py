import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bellsphere.analysis
import bellsphere.detectors
import bellsphere.distributions
import bellsphere.oracles
from bellsphere import (
    Axis,
    EnsembleDep,
    Hemisphere,
    RotatingHemispheres,
    StaticSphere,
    SweepTable,
    ensemble_mean_projection,
    measure_pair_batch,
    model_from_name,
    outcome_probabilities,
    sweep_chsh,
)
from bellsphere.cli import (
    CHSH_COLUMNS,
    CORRELATION_COLUMNS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    _format_cell,
    _render,
    _sweep_chunks,
    build_parser,
    main,
    parse_angle,
)
from bellsphere.detectors import MODELS
from bellsphere.geometry import RngStream
from bellsphere.verify import (
    _check_feasibility_cross,
    _check_mean_preservation,
    _check_parameter_independence,
    run_verification,
)


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "bellsphere.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, **(env_extra or {})},
    )


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def data_rows(csv_text):
    return [line for line in csv_text.splitlines() if line and not line.startswith("#")]


def reference_text(columns, rows, fmt):
    # the row formats restated: one ``_format_cell`` join per CSV row under
    # the header, and ``json.dumps`` of one object per row with non-finite
    # floats written as null
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(map(_format_cell, row)) for row in rows]
        return "\n".join(lines) + "\n"
    objects = [
        {
            column: None if isinstance(v, float) and not math.isfinite(v) else v
            for column, v in zip(columns, row)
        }
        for row in rows
    ]
    return json.dumps(objects, indent=2, allow_nan=False) + "\n"


def without_stamp(text, fmt):
    if fmt == "csv":
        stamp, text = text.split("\n", 1)
        assert stamp.startswith("# generated_at=")
    return text


class TestParseAngle:
    def test_pi_fractions(self):
        assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
        assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
        assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
        assert parse_angle("pi") == pytest.approx(math.pi)

    def test_plain_radians(self):
        assert parse_angle("0") == 0.0
        assert parse_angle("1.5707") == pytest.approx(1.5707)

    def test_normalization(self):
        assert parse_angle("2pi") == 0.0
        assert parse_angle("-pi/4") == pytest.approx(7 * math.pi / 4)

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle("tau/4")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle("pi/0")
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_angle(text)


# runs whose angles are signed: each option and its value as two tokens, and
# as one joined by "="
NEGATIVE_ANGLE_RUNS = [
    (["correlate", "--model", "ensemble", "--trials", "1000"],
     {"--theta-a": "-pi/4", "--theta-b": "-3pi/8"}),
    (["correlate", "--model", "sign", "--trials", "1000"],
     {"--theta-a": "-1e-3", "--theta-b": "-PI"}),
    (["chsh", "--model", "sign"], {"--angles": "-pi/4,0,pi/4,-1e-3"}),
    (["sequential", "--initial", "sphere", "--trials", "1000"], {"--axes": "-pi/3,0"}),
    (["sequential", "--axes", "0,pi/3", "--trials", "1000"], {"--initial-axis": "-3pi/8"}),
]


class TestNegativeAngles:
    @pytest.mark.parametrize(
        ("base", "angles"),
        NEGATIVE_ANGLE_RUNS,
        ids=[" ".join(base + [*angles]) for base, angles in NEGATIVE_ANGLE_RUNS],
    )
    def test_separate_tokens_print_the_joined_form(self, base, angles, capsys):
        def printed(argv):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines(keepends=True)
            return "".join(x for x in lines if not x.startswith("# generated_at"))

        separate = [*base, *itertools.chain.from_iterable(angles.items())]
        joined = [*base, *(f"{option}={value}" for option, value in angles.items())]
        assert printed(separate) == printed(joined)

    def test_negative_seed_is_still_the_range_error(self, capsys):
        argv = ["correlate", "--model", "sign", "--theta-a", "-pi/4", "--theta-b", "0"]
        assert main([*argv, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be in [0, 2^64), got -1" in captured.err


class TestCorrelate:
    def test_csv_row_and_schema(self):
        result = run_cli(
            "correlate", "--model", "direct", "--theta-a", "0", "--theta-b", "0",
            "--trials", "1000", "--seed", "1",
        )
        assert result.returncode == 0
        rows = data_rows(result.stdout)
        assert rows[0] == "model,theta_a,theta_b,n_trials,e_hat,std_err,e_closed,z_score"
        cells = rows[1].split(",")
        assert cells[0] == "direct"
        assert cells[6] == "-0.333333333"

    def test_ensemble_closed_form_column(self):
        result = run_cli(
            "correlate", "--model", "ensemble", "--theta-a", "0", "--theta-b", "pi/4",
            "--trials", "1000", "--seed", "7",
        )
        assert "-0.176776695" in result.stdout

    def test_missing_model_is_usage_error(self):
        result = run_cli("correlate", "--theta-a", "0", "--theta-b", "0")
        assert result.returncode == 1
        assert "usage" in result.stderr.lower()

    def test_bad_angle_is_usage_error(self):
        result = run_cli(
            "correlate", "--model", "sign", "--theta-a", "garbage", "--theta-b", "0"
        )
        assert result.returncode == 1

    def test_non_finite_angle_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["correlate", "--model", "sign", "--theta-a", "nan", "--theta-b", "0"])
        assert exc.value.code == 1
        assert "finite" in capsys.readouterr().err

    def test_json_writes_non_finite_as_null(self):
        # a std_err of 0 while e_hat != e_closed makes z infinite
        row = ["stochastic", 0.0, 0.0, 2, -0.25, 0.0, -0.0625, math.inf]
        payload = strict_json(_render(CORRELATION_COLUMNS, [row], "json"))
        assert payload[0]["std_err"] == 0.0
        assert payload[0]["z_score"] is None

    def test_json_output(self, tmp_path):
        out = tmp_path / "row.json"
        result = run_cli(
            "correlate", "--model", "sign", "--theta-a", "0", "--theta-b", "pi/2",
            "--trials", "2000", "--seed", "3", "--format", "json", "--out", str(out),
        )
        assert result.returncode == 0
        payload = strict_json(out.read_text())
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["model"] == "sign"
        assert payload[0]["n_trials"] == 2000

    def test_unwritable_output_is_io_error(self, tmp_path):
        target = tmp_path / "missing-dir" / "row.csv"
        result = run_cli(
            "correlate", "--model", "sign", "--theta-a", "0", "--theta-b", "0",
            "--trials", "100", "--out", str(target),
        )
        assert result.returncode == 3

    def test_environment_does_not_seed(self):
        # the rows are a function of the argv alone: no environment variable
        # sets the default seed
        command = [
            "correlate", "--model", "sign", "--theta-a", "0", "--theta-b", "1",
            "--trials", "5000",
        ]
        by_default = run_cli(*command, env_extra={"BELLSPHERE_SEED": "7"})
        assert by_default.returncode == 0, by_default.stderr
        assert data_rows(by_default.stdout) == data_rows(run_cli(*command, "--seed", "0").stdout)
        assert data_rows(by_default.stdout) != data_rows(run_cli(*command, "--seed", "7").stdout)


SEEDED_COMMANDS = [
    ["correlate", "--model", "sign", "--theta-a", "0", "--theta-b", "1", "--trials", "500"],
    ["chsh", "--model", "sign", "--angles", "0,pi/4,pi/2,3pi/4", "--mode", "montecarlo",
     "--trials", "500"],
    ["sweep", "--model", "sign", "--step", "pi/4"],
    ["sequential", "--axes", "0,pi/3", "--trials", "500"],
    ["verify", "--feasibility-samples", "20"],
]


class TestSeedRange:
    # RngStream rejects a seed that its 64-bit key cannot hold: -1 would
    # print the rows of 2^64 - 1, and 2^64 those of 0

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", SEEDED_COMMANDS, ids=lambda c: c[0])
    def test_flag_seed_outside_64_bits_is_usage_error(self, command, seed, capsys):
        assert main([*command, "--seed", str(seed)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"seed must be in [0, 2^64), got {seed}" in captured.err

    @pytest.mark.parametrize("raw", ["-1", "abc"])
    @pytest.mark.parametrize("command", SEEDED_COMMANDS, ids=lambda c: c[0])
    def test_exported_seed_variable_is_ignored(self, command, raw, monkeypatch, capsys):
        # BELLSPHERE_SEED is no longer read: a value that once was a usage
        # error leaves the output as it is without it
        monkeypatch.delenv("BELLSPHERE_SEED", raising=False)
        assert main(command) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("BELLSPHERE_SEED", raw)
        assert main(command) == 0
        assert capsys.readouterr() == unset

    def test_library_seed_outside_64_bits_raises(self, capsys):
        # run_verification keys its stream before it prints a line
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\), got -1"):
            run_verification(-1, feasibility_samples=20)
        assert capsys.readouterr().out == ""

    def test_largest_seed_runs(self):
        command = [*SEEDED_COMMANDS[0], "--seed"]
        largest = run_cli(*command, str(2**64 - 1))
        assert largest.returncode == 0, largest.stderr
        assert data_rows(largest.stdout) != data_rows(run_cli(*command, "0").stdout)


class TestChshAndSweep:
    def test_one_parser_writes_to_the_streams_of_each_call(self):
        # the parser is built on the first call and kept; help and usage
        # errors still go to whatever sys.stdout and sys.stderr are then
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with pytest.raises(SystemExit) as help_exit:
                    main(["sweep", "-h"])
                with pytest.raises(SystemExit) as usage_exit:
                    main(["sweep", "--model", "sign"])
            assert (help_exit.value.code, usage_exit.value.code) == (0, 1)
            assert out.getvalue().startswith("usage: bellsphere sweep")
            assert "the following arguments are required: --step" in err.getvalue()
        assert build_parser() is build_parser()

    def test_chsh_closed_maximal_violation(self):
        result = run_cli(
            "chsh", "--model", "ensemble", "--angles", "0,pi/4,pi/2,3pi/4",
            "--mode", "closed",
        )
        assert result.returncode == 0
        rows = data_rows(result.stdout)
        assert rows[0] == "model,a,b,a_prime,b_prime,c_value,v_max,violated"
        assert "2.82842712" in rows[1]
        assert rows[1].endswith("true")
        assert "C = 2.82842712" in result.stderr

    def test_chsh_wrong_angle_count(self):
        result = run_cli("chsh", "--model", "sign", "--angles", "0,pi/4")
        assert result.returncode == 1

    @pytest.mark.parametrize(
        "angles", ["0,0,0,inf", "0,0,0,foo", "0,,pi/4,pi/2,3pi/4", "0,pi/4,pi/2,3pi/4,"]
    )
    def test_chsh_bad_angle_is_usage_error(self, angles, capsys):
        assert main(["chsh", "--model", "sign", "--angles", angles]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bellsphere: error:" in captured.err

    @pytest.mark.parametrize("step", ["pi/17", "pi/64", "0"])
    def test_sweep_grid_finer_than_pi_16_rejected(self, step, capsys):
        assert main(["sweep", "--model", "sign", "--step", step]) == 1
        assert "pi/16" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["17pi/8", "2pi"])
    def test_sweep_step_is_a_length_not_an_axis(self, step, capsys):
        # the step is a length: taken modulo 2 pi, 17pi/8 would be the pi/8
        # sweep and 2pi would be 0
        assert main(["sweep", "--model", "sign", "--step", step]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must divide pi" in captured.err

    @pytest.mark.parametrize("command", [
        ["correlate", "--theta-a", "0", "--theta-b", "1"],
        ["chsh", "--angles", "0,pi/4,pi/2,3pi/4", "--mode", "montecarlo"],
        ["sweep", "--step", "pi/16", "--mode", "montecarlo"],
    ])
    def test_block_size_is_not_an_option(self, command, capsys):
        # Monte Carlo blocks are fixed at 4096 pairs; the option that set
        # them is gone, even at its old default
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--model", "sign", "--block-size", "4096"])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bellsphere: error:" in captured.err

    @pytest.mark.parametrize("model", ["sign", "ensemble", "stochastic"])
    @pytest.mark.parametrize("p_hi", ["nan", "0.4", "7"])
    @pytest.mark.parametrize("command", [
        ["correlate", "--theta-a", "0", "--theta-b", "1", "--trials", "100"],
        ["chsh", "--angles", "0,pi/4,pi/2,3pi/4"],
        ["sweep", "--step", "pi/4"],
    ], ids=["correlate", "chsh", "sweep"])
    def test_p_hi_outside_its_domain_is_usage_error(self, command, p_hi, model, capsys):
        # rejected while parsing for every model, also those that ignore it
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--model", model, "--p-hi", p_hi])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p_hi must lie in [1/2, 1]" in captured.err

    @pytest.mark.parametrize("p_hi", ["0.5", "1"])
    def test_p_hi_domain_ends_are_accepted(self, p_hi, capsys):
        argv = ["chsh", "--model", "stochastic", "--angles", "0,pi/4,pi/2,3pi/4"]
        assert main([*argv, "--p-hi", p_hi]) == 0
        assert capsys.readouterr().out.startswith("# generated_at=")

    CORRELATE = ["correlate", "--model", "sign", "--theta-a", "0", "--theta-b", "1"]

    @pytest.mark.parametrize("argv, option", [
        ([*CORRELATE, "--p-hi", "foo"], "--p-hi"),
        ([*CORRELATE, "--trials", "foo"], "--trials"),
        ([*CORRELATE, "--seed", "x"], "--seed"),
        (["verify", "--feasibility-samples", "x"], "--feasibility-samples"),
        (["sequential", "--axes", "0", "--trials", "1.5"], "--trials"),
    ], ids=["p_hi", "trials", "seed", "feasibility_samples", "sequential_trials"])
    def test_non_number_names_the_option_not_the_parser(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}:" in captured.err
        assert re.findall(r"(?<!\w)_\w+", captured.err) == []

    def test_sweep_sign_boundary(self):
        result = run_cli("sweep", "--model", "sign", "--step", "pi/8", "--mode", "closed")
        assert result.returncode == 0
        assert "max C = 2" in result.stderr
        assert "violated = false" in result.stderr

    def test_sweep_direct_bound(self):
        result = run_cli("sweep", "--model", "direct", "--step", "pi/8")
        assert "max C = 0.942809042" in result.stderr

    def test_sweep_step_must_divide_pi(self):
        result = run_cli("sweep", "--model", "sign", "--step", "0.3")
        assert result.returncode == 1

    @pytest.mark.parametrize("command", [
        ["chsh", "--angles", "0,pi/4,pi/2,3pi/4", "--seed", "1", "--mode", "montecarlo"],
        ["sweep", "--step", "pi/4", "--mode", "montecarlo"],
        ["correlate", "--theta-a", "0", "--theta-b", "0"],
    ])
    def test_single_trial_monte_carlo_is_usage_error(self, command, capsys):
        # one trial per correlation has no standard error, so neither a z
        # score (correlate used to write null) nor a violation can be judged
        # (a point-like model used to read C = 4, violated)
        code = main([*command, "--model", "sign", "--trials", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n >= 2" in captured.err


class TestRowRendering:
    """``_render``, which writes the one-row outputs of correlate and chsh,
    against the restated reference."""

    ROWS = {
        "correlate": (CORRELATION_COLUMNS, [
            ("sign", 0.0, 0.7853981633974483, 1, -0.25, 0.0, -0.125, math.inf),
            ("direct", -0.0, 3.0, 100_000, math.nan, -math.inf, 1 / 3, -0.0),
        ]),
        "chsh": (CHSH_COLUMNS, [
            ("ensemble", 0.0, 0.785398, 1.5707963267948966, 2.356, 2.8284271247461903, 0.5, True),
            ("stochastic", -0.0, 1, 2, 3, math.nan, 0.5, False),
            ("direct", 0.0, 0.0, 0.0, 0.0, math.inf, 1.0, True),
        ]),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["correlate", "chsh"])
    def test_rows_match_reference(self, command, fmt):
        columns, rows = self.ROWS[command]
        for count in (1, len(rows)):
            text = without_stamp(_render(columns, rows[:count], fmt), fmt)
            assert text == reference_text(columns, rows[:count], fmt)


class TestSweepRendering:
    """The sweep renderer against the restated reference."""

    COLUMNS = ("model", "a", "b", "a_prime", "b_prime", "c_value", "v_max", "violated")

    def reference(self, model, table, fmt):
        rows = [
            (model, *quad, c, table.v_max, flag)
            for quad, c, flag in zip(
                itertools.product(table.grid, repeat=4),
                table.c_values.ravel().tolist(),
                table.violated.ravel().tolist(),
            )
        ]
        return reference_text(self.COLUMNS, rows, fmt)

    def assert_same_text(self, got, want):
        # the first differing line, not a diff of megabytes of text
        if got != want:
            pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
            line, (g, w) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
            pytest.fail(f"line {line}: {g!r} != {w!r}")

    def rendered(self, model, table, fmt):
        return without_stamp("".join(_sweep_chunks(model, table, fmt)), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
    @pytest.mark.parametrize("name", ["direct", "sign", "stochastic", "ensemble"])
    def test_closed_sweeps_match_reference(self, name, m, fmt):
        # m = 1 is one chunk of one row: the row without a separator
        best, table = sweep_chsh(model_from_name(name), math.pi / m)
        self.assert_same_text(
            self.rendered(best.model, table, fmt), self.reference(best.model, table, fmt)
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("source", [StaticSphere(), RotatingHemispheres()])
    def test_monte_carlo_sweeps_match_reference(self, source, fmt):
        best, table = sweep_chsh(
            model_from_name("ensemble"), math.pi / 4, n=2000,
            rng=RngStream(31), source=source,
        )
        assert table.violated.any() and not table.violated.all()
        self.assert_same_text(
            self.rendered(best.model, table, fmt), self.reference(best.model, table, fmt)
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_c_with_both_flags(self, fmt):
        # a row's tail is numbered 2 * (index of its C's bits) + violated:
        # 2.5 takes both flags, 0.0 and -0.0 are distinct bits, and each
        # row must keep its own pair
        c = np.array([2.5, 0.0, 2.5, -0.0, 1.0, 2.5, 2.5, 0.0] * 2).reshape(2, 2, 2, 2)
        flags = [True, False, False, False, False, True, True, True]
        violated = np.array(flags + flags[::-1]).reshape(c.shape)
        table = SweepTable([0.0, math.pi / 2], c, violated, 0.5)
        text = self.rendered("sign", table, fmt)
        self.assert_same_text(text, self.reference("sign", table, fmt))
        if fmt == "json":
            pairs = [(row["c_value"], row["violated"]) for row in strict_json(text)]
        else:
            pairs = [
                (float(c_value), flag == "true")
                for *_, c_value, _, flag in (line.split(",") for line in text.splitlines()[1:])
            ]
        assert pairs == list(zip(c.ravel().tolist(), violated.ravel().tolist()))
        assert {(2.5, True), (2.5, False)} <= set(pairs)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_c_values(self, fmt):
        c = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 2.5, math.nan, 1.0] * 2)
        c = c.reshape(2, 2, 2, 2)
        table = SweepTable([0.0, math.pi / 2], c, c > 2.0, 0.5)
        text = self.rendered("sign", table, fmt)
        self.assert_same_text(text, self.reference("sign", table, fmt))
        if fmt == "json":
            assert [row["c_value"] for row in strict_json(text)][:3] == [None, None, None]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_flags_that_are_not_a_function_of_c(self, fmt):
        # Monte Carlo flags depend on each row's standard error, so one C
        # value can be flagged in one row and not in another
        gen = np.random.default_rng(3)
        c = gen.choice([1.5, 2.25, 2.5], size=3**4).reshape(3, 3, 3, 3)
        violated = gen.uniform(size=c.shape) < 0.5
        table = SweepTable([0.0, 1.0, 2.0], c, violated, 1.0)
        assert {(x, f) for x, f in zip(c.ravel(), violated.ravel())} >= {(2.5, True), (2.5, False)}
        self.assert_same_text(self.rendered("direct", table, fmt), self.reference("direct", table, fmt))


# sequential runs whose exact step means are all nonzero, so no printed
# oracle value is a zero whose sign rests on rounding: the README demo, its
# reverse, a minus hemisphere off the axes, and 20 steps on the pi/8 grid
SEQUENTIAL_RUNS = (
    ["sequential", "--axes", "0,pi/3,2pi/3", "--seed", "3"],
    ["sequential", "--axes", "2pi/3,pi/3", "--seed", "3", "--trials", "20000"],
    [
        "sequential", "--initial-axis", "pi/5", "--initial-sign", "-1",
        "--axes", "0.3,1.1,2,pi/7,4,5.5,-1", "--seed", "9", "--trials", "30000",
    ],
    [
        "sequential", "--axes",
        ",".join(
            f"{k}pi/8" for k in (1, 2, 1, 0, 15, 13, 14, 0, 1, 3, 2, 4, 3, 2, 1, 0, 1, 2, 3, 4)
        ),
        "--seed", "21", "--trials", "5000",
    ],
)

# SHA-256 over every sequential run's argv and its whole stdout
SEQUENTIAL_DIGEST = "4e0aa2ebc17564964f385728b569e8a5f3a5e9c26c1929f9833a9e6c18dc6b1a"


class TestSequential:
    def test_golden_stdout(self, capsys):
        digest = hashlib.sha256()
        for argv in SEQUENTIAL_RUNS:
            assert main(argv) == 0
            digest.update(" ".join(argv).encode() + b"\n")
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == SEQUENTIAL_DIGEST

    def test_demo_matches_tree_oracle(self):
        result = run_cli(
            "sequential", "--axes", "0,pi/3,2pi/3", "--seed", "3", "--trials", "20000"
        )
        assert result.returncode == 0
        assert "tree oracle=+0.125000" in result.stdout
        assert "alt(-2kP)" in result.stdout  # both delta bookkeepings shown

    def test_reversed_order_flips_the_mean(self):
        result = run_cli(
            "sequential", "--axes", "2pi/3,pi/3", "--seed", "3", "--trials", "20000"
        )
        assert "tree oracle=-0.125000" in result.stdout

    @pytest.mark.parametrize("axes", ["0,foo", "0,,pi/3", ""])
    def test_bad_axis_is_usage_error(self, axes, capsys):
        # an empty entry is an error, not a dropped axis
        assert main(["sequential", "--axes", axes]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bellsphere: error:" in captured.err and "cannot parse angle" in captured.err

    def test_single_trial_is_usage_error(self, capsys):
        # one outcome has no sample standard deviation
        assert main(["sequential", "--axes", "0,pi/3", "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials must be at least 2" in captured.err

    def test_trials_above_the_cap_is_usage_error(self, capsys):
        # refused before any line is printed or any draw is allocated
        argv = ["sequential", "--axes", "0", "--trials", "1000000000000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "bellsphere: error: --trials must be at most 10000000, got 1000000000000\n"
        )

    def test_zero_prints_without_a_minus_sign(self, capsys):
        # after a step perpendicular to the one before, cos(pi/2) leaves some
        # exact zeros a few ulps below 0; they print as +0.000000
        axes = "7pi/8,13pi/8,9pi/8,4pi/8,6pi/8,11pi/8,15pi/8,5pi/8,4pi/8"
        assert main(["sequential", "--initial-sign", "-1", "--axes", axes]) == 0
        out = capsys.readouterr().out
        assert "tree mean=+0.000000" in out and "mean projection +0.000000" in out
        assert "-0.000000" not in out

    def test_long_sequence_runs(self, capsys):
        axes = ",".join(f"{i / 10}" for i in range(64))
        assert main(["sequential", "--axes", axes, "--trials", "100"]) == 0
        out = capsys.readouterr().out
        assert "step 64: axis theta=" in out
        assert "final outcome:" in out

    def test_peak_memory_does_not_grow_with_steps(self, capsys):
        # one step's outcomes are held at a time: at 1M trials, 200 steps
        # peak within 1 MiB of 20
        def peak(steps):
            axes = ",".join(f"{i / 10}" for i in range(steps))
            tracemalloc.start()
            try:
                assert main(["sequential", "--axes", axes, "--trials", "1000000"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        assert abs(peak(200) - peak(20)) <= 2**20

    def test_repeated_axis_outcomes_certain(self):
        result = run_cli(
            "sequential", "--axes", "0,0,0", "--seed", "5", "--trials", "5000"
        )
        assert result.returncode == 0
        assert "mc P(+1/2)=1.000000" in result.stdout


# (module, attribute, stand-in, the check it must fail, text its line shows):
# a corrupted constant, and each source whose NaN a max(worst, ...) fold once
# dropped, printing [PASS] with a worst value of 0
CORRUPTIONS = [
    pytest.param(
        bellsphere.oracles, "enumerate_ensemble_E", lambda d: 0.123,
        "enumeration oracles match closed forms", "max |enumeration - closed| = 0.", id="constant",
    ),
    pytest.param(
        bellsphere.distributions, "quad_density_normalization", lambda density: math.nan,
        "density normalization (4 jz0/j0 ratios)", "= nan", id="density-nan",
    ),
    pytest.param(
        bellsphere.distributions, "quad_ring_mean_projection", lambda j0, jz0, axis: math.nan,
        "ring mean projection quadrature", "= nan", id="ring-mean-nan",
    ),
    pytest.param(
        bellsphere.oracles, "quad_expectation", lambda z_sq, half: (1.0 / 3.0, math.nan),
        "sphere moments (z^2, half-moment)", "= nan", id="half-moment-nan",
    ),
    pytest.param(
        bellsphere.analysis, "lune_probability", lambda k, kp, d: math.nan,
        "lune probabilities form a simplex", "= nan", id="lune-simplex-nan",
    ),
    pytest.param(
        bellsphere.analysis, "lune_probability", lambda k, kp, d: math.nan,
        "lune probabilities reproduce sign closed form", "= nan", id="lune-sign-form-nan",
    ),
    pytest.param(
        bellsphere.oracles, "enumerate_ensemble_E", lambda d: math.nan,
        "enumeration oracles match closed forms", "= nan", id="enumeration-nan",
    ),
    pytest.param(
        bellsphere.detectors, "outcome_probabilities", lambda ensemble, axis: (math.nan, math.nan),
        "ensemble outcome mean preserves projection", "residual nan", id="mean-preservation-nan",
    ),
]


def mean_preservation_cases(seed):
    # the mean-preservation check's 20 (hemisphere, measured axis) cases,
    # drawn as turns of 2 pi (and a sign) from the stream split(350)
    cases = RngStream(seed).split(350).uniform((20, 3)).tolist()
    return [
        (Hemisphere(Axis(2.0 * math.pi * a), 1 if s < 0.5 else -1), Axis(2.0 * math.pi * m))
        for a, s, m in cases
    ]


class TestVerify:
    def test_passes_and_reports_discrepancy(self):
        result = run_cli("verify", "--seed", "5", "--feasibility-samples", "300")
        assert result.returncode == 0
        assert "[PASS]" in result.stdout
        assert "[FAIL]" not in result.stdout
        # the contested closed form is reported next to the oracle value
        assert "enumeration oracle = -0.0625" in result.stdout
        assert "alt form = -0.125" in result.stdout
        assert "verification PASSED" in result.stdout

    @pytest.mark.parametrize("seed", [51, 188, 329, 353, 432, 443])
    def test_mean_preservation_passes_where_every_draw_agrees(self, seed):
        # at these seeds a spot check's measured axis lies so close to its
        # hemisphere axis (or its opposite) that all 100,000 draws agree; z
        # must be taken against the outcome's own spread, not the sample's
        n = 100_000
        agreeing = [
            i for i, (ensemble, axis) in enumerate(mean_preservation_cases(seed)[:5])
            if np.count_nonzero(
                RngStream(seed).split(300 + i).uniform(n) < outcome_probabilities(ensemble, axis)[0]
            ) in (0, n)
        ]
        assert agreeing, f"seed {seed}: no spot check has every draw agree"
        ok, detail = _check_mean_preservation(RngStream(seed))
        assert ok, detail

    @pytest.mark.parametrize("seed", range(20))
    def test_sampled_checks_are_their_first_forms(self, seed):
        # the two sampled checks count +1/2 outcomes straight from their
        # draws; restated with the +-1/2 outcomes built and averaged, and
        # with particle 1's outcomes measured pair by pair along each distant
        # axis, they print the same details
        rng, n = RngStream(seed), 100_000
        worst_closed = worst_z = 0.0
        for i, (ensemble, axis) in enumerate(mean_preservation_cases(seed)):
            mean = ensemble_mean_projection(ensemble, axis)
            p_plus, p_minus = outcome_probabilities(ensemble, axis)
            worst_closed = max(worst_closed, abs(0.5 * p_plus - 0.5 * p_minus - mean))
            if i < 5:
                sampled = np.where(rng.split(300 + i).uniform(n) < p_plus, 0.5, -0.5)
                diff = abs(float(np.mean(sampled)) - mean)
                z = diff / math.sqrt(p_plus * p_minus / n) if diff > 0.0 else 0.0
                worst_z = max(worst_z, z)
        want = f"closed residual {worst_closed:.3g} (tol 1e-12), max |z| = {worst_z:.2f}"
        assert _check_mean_preservation(RngStream(seed)) == (worst_z <= 5.0, want)
        worst = 0.0
        for i in range(8):
            o1, _ = measure_pair_batch(
                EnsembleDep(), StaticSphere(), Axis(0.3), Axis(i * math.pi / 8), n,
                rng.split(400 + i),
            )
            worst = max(worst, abs(float(np.mean(o1 > 0)) - 0.5) / math.sqrt(0.25 / n))
        want = f"max |z| over 8 distant axes = {worst:.2f} (tol 5 sigma)"
        assert _check_parameter_independence(RngStream(seed)) == (worst <= 5.0, want)

    def test_every_draw_goes_through_rng_stream(self, monkeypatch, capsys):
        # each check draws from a split of RngStream(seed), none from a side
        # generator keyed by the seed plus an offset
        def refused(*args, **kwargs):
            raise AssertionError("verify built a numpy.random.default_rng generator")

        monkeypatch.setattr(np.random, "default_rng", refused)
        assert run_verification(5, feasibility_samples=50)
        assert "verification PASSED" in capsys.readouterr().out

    def test_report_discrepancies_prints_grid(self):
        # the oracle-vs-alt-form grid is part of every report
        result = run_cli("verify", "--seed", "5", "--feasibility-samples", "100")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        grid = lines.index("  delta      oracle        alt form")
        assert lines[grid - 1].startswith("noisy-sign closed forms at delta=0:")
        assert len(lines[grid + 1:grid + 10]) == 9
        assert all(line.startswith("  ") for line in lines[grid + 1:grid + 10])
        assert lines[grid + 10].startswith("[PASS] noisy-sign discrepancy report:")

    def test_report_discrepancies_is_not_an_option(self, capsys):
        # the option that once turned the grid on is gone
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--seed", "5", "--report-discrepancies"])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bellsphere: error:" in captured.err

    def test_feasibility_samples_peak_does_not_grow(self):
        # the cross-check holds one piece of vectors at a time: at 400,000
        # vectors its traced peak is that of 40,000, within 256 KiB
        assert _check_feasibility_cross(RngStream(0), 10)[0]  # builds the cone

        def peak(samples):
            tracemalloc.start()
            try:
                assert _check_feasibility_cross(RngStream(0), samples)[0]
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(400_000) - peak(40_000)) <= 2**18

    @pytest.mark.parametrize(("module", "name", "stand_in", "check", "shown"), CORRUPTIONS)
    def test_corrupted_constant_fails_named_check(
        self, module, name, stand_in, check, shown, monkeypatch, capsys
    ):
        monkeypatch.setattr(module, name, stand_in)
        ok = run_verification(5, feasibility_samples=50)
        captured = capsys.readouterr()
        assert not ok
        line = next(x for x in captured.out.splitlines() if x.startswith(f"[FAIL] {check}: "))
        assert shown in line
        assert "verification FAILED" in captured.out

    @pytest.mark.parametrize(("module", "name", "stand_in", "check", "shown"), CORRUPTIONS)
    def test_exit_code_two_on_failure(self, module, name, stand_in, check, shown, monkeypatch, capsys):
        monkeypatch.setattr(module, name, stand_in)
        code = main(["verify", "--seed", "5", "--feasibility-samples", "50"])
        assert f"[FAIL] {check}: " in capsys.readouterr().out
        assert code == 2


_NO_SCIPY_PROBE = """
import contextlib, io, sys
import bellsphere
import bellsphere.cli
assert "scipy" not in sys.modules, "importing the package loaded scipy"
sign = ["--model", "sign"]
monte_carlo = ["--mode", "montecarlo", "--trials", "500"]
for argv in (
    ["correlate", *sign, "--theta-a", "0", "--theta-b", "1", "--trials", "500"],
    ["chsh", *sign, "--angles", "0,pi/4,pi/2,3pi/4"],
    ["chsh", *sign, "--angles", "0,pi/4,pi/2,3pi/4", *monte_carlo],
    ["sweep", *sign, "--step", "pi/4"],
    ["sweep", *sign, "--step", "pi/4", *monte_carlo],
    ["sequential", "--axes", "0,pi/3", "--trials", "500"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert bellsphere.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, f"{argv[0]} loaded scipy"
assert bellsphere.analysis._cone.cache_info().currsize == 0, "the cone was built unasked"
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = bellsphere.cli.main(["verify", "--feasibility-samples", "20"])
assert code == 0 and "verification PASSED" in out.getvalue(), out.getvalue()
assert "scipy" not in sys.modules, "verify loaded scipy"
"""


def test_no_command_loads_scipy():
    # the feasibility decision is derived in NumPy: no command, verify
    # included, imports scipy, and only a decision builds the cone
    result = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


# -- one input and output contract for every command ---------------------------

_MALFORMED = st.sampled_from(["", " ", "-", "--", "abc", "1/0", "pi/", "2pi/3/4", "0x10", "1e999"])


def _pi_form(numerators, denominators):
    return st.builds(
        "{}{}pi{}".format,
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(numerators),
        st.sampled_from(denominators),
    )


def _angles(angle, sizes):
    return st.lists(angle, min_size=sizes[0], max_size=sizes[1]).map(",".join)


def _count(low, high):
    return st.integers(low, high).map(str), st.one_of(
        st.integers(-2, low - 1).map(str), _MALFORMED, st.just("1.5")
    )


# each option's values: (valid, invalid); an invalid value may still parse
_ANGLE = (
    st.one_of(
        st.floats(-10.0, 10.0).map(repr),  # signed, tiny and zero
        st.floats(allow_nan=False, allow_infinity=False).map(repr),  # huge
        _pi_form(["", "0", "1", "3", "0.5"], ["", "/2", "/4", "/8", "/3"]),
    ),
    st.one_of(
        st.sampled_from(["nan", "-nan", "inf", "-inf", "1e309"]),
        _pi_form(["", "7" * 400], ["/0", "/", "/0.0"]),
        _MALFORMED,
    ),
)
_MODEL = {
    "--model": (st.sampled_from(list(MODELS)), st.sampled_from(["laser", "", "Sign"])),
    "--p-hi": (
        st.floats(0.5, 1.0).map(repr),
        st.one_of(st.floats().map(repr), _MALFORMED),
    ),
    "--source": (st.sampled_from(["sphere", "rotating"]), st.sampled_from(["Sphere", ""])),
}
_SEED = (
    st.integers(0, 2**64 - 1).map(str),
    st.one_of(st.integers(-(2**70), -1).map(str), st.integers(2**64, 2**70).map(str), _MALFORMED),
)
_RUN = {"--seed": _SEED, "--trials": _count(2, 3000)}  # a few thousand trials at most
_OUTPUT = {
    "--out": (st.just("{tmp}/out.txt"), st.sampled_from(["{tmp}/missing/out.txt", "{tmp}"])),
    "--format": (st.sampled_from(["csv", "json"]), st.just("xml")),
}
_MODE = {"--mode": (st.sampled_from(["closed", "montecarlo"]), st.just("exact"))}
GRAMMAR = {
    "correlate": {**_MODEL, "--theta-a": _ANGLE, "--theta-b": _ANGLE, **_RUN, **_OUTPUT},
    "chsh": {
        **_MODEL,
        "--angles": (_angles(_ANGLE[0], (4, 4)), _angles(st.one_of(*_ANGLE), (0, 5))),
        **_MODE,
        **_RUN,
        **_OUTPUT,
    },
    "sweep": {
        **_MODEL,
        "--step": (
            st.sampled_from(["pi", "pi/2", "pi/4", "pi/8", "pi/16", "0.785398163397448"]),
            st.one_of(*_ANGLE, st.just("pi/32")),
        ),
        **_MODE,
        **_RUN,
        **_OUTPUT,
    },
    "sequential": {
        "--axes": (_angles(_ANGLE[0], (1, 6)), _angles(st.one_of(*_ANGLE), (0, 3))),
        "--initial": (st.sampled_from(["hemisphere", "sphere"]), st.just("ring")),
        "--initial-axis": _ANGLE,
        "--initial-sign": (st.sampled_from(["1", "-1", "+1"]), st.sampled_from(["0", "2", "x"])),
        **_RUN,
    },
    "verify": {"--seed": _SEED, "--feasibility-samples": _count(1, 40)},
}
_STRAY = [*GRAMMAR, "--bogus", *{option for options in GRAMMAR.values() for option in options}]


@st.composite
def command_lines(draw):
    """(argv, valid) for one command: each of its options most of the time,
    with a value drawn from its grammar, valid most of the time, as two
    tokens or joined by "=", and now and then a stray token.  ``valid``
    holds when every option is given a valid value and no token strays."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv, valid = [command], True
    for option, (good, bad) in GRAMMAR[command].items():
        kind = draw(st.integers(0, 19))  # 0: left out, 1: invalid, else valid
        valid = valid and kind > 1
        if kind:
            value = draw(bad if kind == 1 else good)
            argv += draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
    if not draw(st.integers(0, 19)):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_STRAY)))
        valid = False
    return argv, valid


def _printed_rows(text, fmt):
    # exit 0: JSON parses strictly, and every CSV row has the header's cells
    if fmt == "json":
        assert isinstance(strict_json(text), list)
        return
    header, *rows = data_rows(text)
    assert all(len(row.split(",")) == len(header.split(",")) for row in rows)


@settings(max_examples=150, deadline=None)
@given(command_lines())
@example((["correlate", "--model", "ensemble", "--theta-a", "-pi/4", "--theta-b", "pi/4"], True))
@example((["chsh", "--model", "sign", "--angles", "-3pi/8,0,pi/4,1", "--format", "json"], True))
@example((["sequential", "--axes", "-1e-05,0", "--initial-axis", "-pi/4", "--trials", "99"], True))
@example((["chsh", "--model", "stochastic", "--p-hi=--", "--angles", "0,0,0,0"], False))
@example((["sweep", "--model", "sign", "--step", "pi/4", "--seed", "-1"], False))
@example((["verify", "--feasibility-samples", "20"], True))
def test_every_command_keeps_the_io_contract(case):
    """Exit 0 prints strict JSON or whole CSV rows, exit 2 is a verify
    report, and any other exit prints nothing on stdout and an error, not a
    traceback, on stderr; an argv of valid values exits 0 (verify: or 2)."""
    argv, valid = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [token.replace("{tmp}", tmp) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        if code == EXIT_OK:
            args = build_parser().parse_args(argv)
            if hasattr(args, "fmt"):
                _printed_rows(out if args.out is None else args.out.read_text(), args.fmt)
        elif code == EXIT_VERIFY:
            assert argv[0] == "verify" and "verification FAILED" in out
        else:
            assert not valid, err
            assert code in (EXIT_USAGE, EXIT_IO), code
            assert out == ""
            assert "error:" in err and "Traceback" not in err
