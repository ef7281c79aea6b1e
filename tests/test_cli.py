import contextlib
import io
import warnings
from pathlib import Path

import numpy as np
import pytest

from vspin import parse_density_matrix, parse_pulse_program
from vspin import cli
from vspin.cli import build_parser, run_command
from vspin.textio import _parse_pair


def run(argv):
    out = io.StringIO()
    code = run_command(argv, stdout=out)
    return code, out.getvalue()


BASE = ["--omega0", "0.1", "--omegaQ", "1", "--eta", "0.5"]


class TestEigensystem:
    def test_diagonal_case_energies(self):
        code, text = run(["eigensystem", "--omega0", "0.1", "--omegaQ", "1", "--eta", "0"])
        assert code == 0
        lines = text.splitlines()
        energies = [float(l.split()[-1]) for l in lines if l.startswith("energy")]
        assert np.allclose(energies, [1.15, 0.85, -0.95, -1.05], atol=1e-14)
        assert "regime_ok true" in lines

    def test_deterministic(self):
        _, first = run(["eigensystem", *BASE])
        _, second = run(["eigensystem", *BASE])
        assert first == second

    def test_degenerate_exit_code(self):
        code, _ = run(["eigensystem", "--omega0", "0", "--eta", "0"])
        assert code == 3

    def test_infinite_parameter_exit_2(self):
        code, text = run(["eigensystem", "--omega0", "inf"])
        assert code == 2
        assert "nan" not in text

    def test_overflowing_energies_exit_3(self):
        with np.errstate(all="ignore"):
            code, text = run(["eigensystem", "--omegaQ", "1e-320"])
        assert code == 3
        assert "nan" not in text

    @pytest.mark.parametrize(
        "flags, expected", [(["--omega0", "1e308"], 0), (["--omegaQ", "1e-320"], 3)]
    )
    def test_overflow_prints_no_warnings(self, capsys, flags, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["eigensystem", *flags])
        assert code == expected
        assert "nan" not in text
        assert len(capsys.readouterr().err.splitlines()) <= 1


class TestTransitions:
    def test_frequencies_listed(self):
        code, text = run(["transitions", "--omega0", "0.1", "--omegaQ", "1", "--eta", "0"])
        assert code == 0
        assert "transition m=1 n=2 omega=0.30000000000000016" in text
        assert "transition m=1 n=4 omega=2.2000000000000002" in text
        assert "collisions none" in text

    def test_collision_reported(self):
        code, text = run(["transitions", "--omega0", "0.56", "--eta", "0.6"])
        assert code == 0
        assert "collision (1,2) (2,4)" in text

    def test_overflowing_frequencies_exit_3_without_warnings(self, capsys):
        # finite energies near +-1.5e308 whose differences overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["transitions", "--omega0", "1e308"])
        assert code == 3
        assert "inf" not in text
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "DegenerateSpectrum" in err


class TestSimulate:
    def test_empty_program_echoes_input(self, tmp_path):
        prog = tmp_path / "empty.vsp"
        prog.write_text("system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=0\n")
        rho_file = tmp_path / "rho.txt"
        code, rho_text = run(["pseudo-pure", *BASE])
        assert code == 0
        rho_file.write_text(rho_text)
        code, out = run(["simulate", str(prog), "--initial", str(rho_file)])
        assert code == 0
        assert np.array_equal(parse_density_matrix(out), parse_density_matrix(rho_text))

    def test_default_initial_is_maximally_mixed(self, tmp_path):
        prog = tmp_path / "p.vsp"
        prog.write_text(
            "system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=0\n"
            "pulse t=1,2 axis=Y phase=0 flip=pi\n"
        )
        code, out = run(["simulate", str(prog)])
        assert code == 0
        rho = parse_density_matrix(out)
        assert np.max(np.abs(rho - np.eye(4) / 4)) <= 1e-14

    def test_syntax_error_exit_2(self, tmp_path):
        prog = tmp_path / "bad.vsp"
        prog.write_text("system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=0\nnope\n")
        code, _ = run(["simulate", str(prog)])
        assert code == 2

    def test_shared_level_exit_2(self, tmp_path):
        prog = tmp_path / "shared.vsp"
        prog.write_text(
            "system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=0\n"
            "pulse2 a=1,2 b=2,3 axis=Y phase=0 flip=pi flip2=pi\n"
        )
        code, _ = run(["simulate", str(prog)])
        assert code == 2

    def test_selectivity_violation_exit_3(self, tmp_path):
        prog = tmp_path / "strong.vsp"
        prog.write_text(
            "system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=0.05\n"
            "pulse t=1,2 axis=Y phase=0 flip=pi\n"
        )
        code, _ = run(["simulate", str(prog)])
        assert code == 3

    def test_missing_file_exit_2(self):
        code, _ = run(["simulate", "/nonexistent/prog.vsp"])
        assert code == 2

    @pytest.mark.parametrize("entry", ["(nan,0)", "(inf,0)"])
    def test_non_finite_initial_exit_2(self, tmp_path, capsys, entry):
        prog = tmp_path / "empty.vsp"
        prog.write_text("system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=0\n")
        rho_file = tmp_path / "rho.txt"
        rho_file.write_text(
            "rho 4x4 basis=eigen\n" + f"{entry} (0,0) (0,0) (0,0)\n"
            + "(0,0) (0.25,0) (0,0) (0,0)\n(0,0) (0,0) (0.25,0) (0,0)\n"
            + "(0,0) (0,0) (0,0) (0.25,0)\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["simulate", str(prog), "--initial", str(rho_file)])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err == f"vspin: error: line 2: entry {entry} is not finite\n"

    @pytest.mark.parametrize("flag", ["--omega0", "--omegaQ", "--eta", "--gamma", "--hrf"])
    def test_system_flags_refused(self, tmp_path, flag):
        # the program's system line is the only source of the spin system
        prog = tmp_path / "p.vsp"
        prog.write_text("system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=0\n")
        code, text = run(["simulate", str(prog), flag, "7"])
        assert code == 2
        assert text == ""

    def test_non_eigen_basis_initial_exit_2(self, tmp_path, capsys):
        prog = tmp_path / "empty.vsp"
        prog.write_text("system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=0\n")
        rho_file = tmp_path / "rho.txt"
        rho_file.write_text(
            "rho 4x4 basis=chi\n(0.25,0) (0,0) (0,0) (0,0)\n(0,0) (0.25,0) (0,0) (0,0)\n"
            "(0,0) (0,0) (0.25,0) (0,0)\n(0,0) (0,0) (0,0) (0.25,0)\n"
        )
        code, text = run(["simulate", str(prog), "--initial", str(rho_file)])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("vspin: error: line 1: ")

    def test_overflowing_free_evolution_exit_2(self, tmp_path, capsys):
        # dt is finite, but its phases eps_m dt are not: no nan matrix, no warning
        prog = tmp_path / "p.vsp"
        prog.write_text(
            "system omega0=0.1 omegaQ=5 eta=0.5 gamma=1 hrf=0\n"
            "pulse t=1,2 axis=Y phase=0 flip=pi/2\n"
            "free dt=1e308\n"
        )
        rho_file = Path(__file__).parent / "golden" / "rho.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["simulate", str(prog), "--initial", str(rho_file)])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == (
            "vspin: error: free evolution over duration 1e+308 overflows its phases\n"
        )

    def test_free_evolution_needs_hrf(self, tmp_path, capsys):
        prog = tmp_path / "ideal.vsp"
        prog.write_text(
            "system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=0\n"
            "pulse t=1,2 axis=Y phase=0 flip=pi\n"
        )
        code, text = run(["simulate", str(prog), "--include-free-evolution"])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "vspin: error: h_rf must be > 0 to realize a pulse\n"

    @pytest.mark.parametrize("step", ["pulse t=1,2 axis=Y phase=0 flip=pi",
                                      "pulse2 a=1,2 b=3,4 axis=Y phase=0 flip=pi flip2=pi"])
    def test_unrealizable_pulse_exit_2(self, tmp_path, capsys, step):
        # gamma * h_rf = 1e-330 underflows to zero: no pulse has a finite duration
        prog = tmp_path / "underflow.vsp"
        prog.write_text(f"system omega0=0.1 omegaQ=1 eta=0.5 gamma=1e-30 hrf=1e-300\n{step}\n")
        code, text = run(["simulate", str(prog), "--include-free-evolution"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "vspin: error: pulse on (1, 2) is unrealizable: drive amplitude 0, flip 3.14159\n"

    def test_include_free_evolution_changes_result(self, tmp_path):
        # a pulse duration is derivable from hrf; tracking the static
        # phases over it must alter coherences of a non-diagonal state
        # (the maximally mixed default would hide the difference)
        prog = tmp_path / "p.vsp"
        prog.write_text(
            "system omega0=0.1 omegaQ=1 eta=0.5 gamma=1 hrf=1e-6\n"
            "pulse t=1,2 axis=Y phase=0 flip=pi/2\n"
        )
        from vspin import format_density_matrix

        rho_file = tmp_path / "rho.txt"
        rho_file.write_text(
            format_density_matrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        )
        code, bare = run(["simulate", str(prog), "--initial", str(rho_file)])
        assert code == 0
        code, tracked = run(
            ["simulate", str(prog), "--initial", str(rho_file), "--include-free-evolution"]
        )
        assert code == 0
        rho_bare = parse_density_matrix(bare)
        rho_tracked = parse_density_matrix(tracked)
        assert np.allclose(np.diag(rho_bare), np.diag(rho_tracked), atol=1e-12)
        assert not np.allclose(rho_bare, rho_tracked, atol=1e-6)


class TestCompileGate:
    def test_cnot_program_text(self):
        code, text = run(["compile-gate", "--kind", "cnot", "--target", "R", *BASE])
        assert code == 0
        prog = parse_pulse_program(text)
        assert len(prog.steps) == 1
        assert prog.steps[0].pulse.transition == (1, 2)
        assert prog.steps[0].pulse.flip == pytest.approx(np.pi)

    def test_rotation_program_text(self):
        code, text = run(
            ["compile-gate", "--kind", "rot", "--target", "S", "--axis", "X",
             "--angle", "pi/2", *BASE]
        )
        assert code == 0
        prog = parse_pulse_program(text)
        step = prog.steps[0]
        assert {step.a.transition, step.b.transition} == {(1, 2), (3, 4)}
        assert step.a.axis == "X"
        assert step.a.flip == pytest.approx(np.pi / 2)

    def test_compiled_gate_simulates(self, tmp_path):
        code, text = run(["compile-gate", "--kind", "cnot", "--target", "R", *BASE])
        prog = tmp_path / "cnot.vsp"
        prog.write_text(text)
        code, out = run(["simulate", str(prog)])
        assert code == 0
        # maximally mixed input is invariant under any unitary
        assert np.max(np.abs(parse_density_matrix(out) - np.eye(4) / 4)) <= 1e-14


class TestTruthTable:
    @staticmethod
    def rows(text):
        return [l for l in text.splitlines() if not l.startswith("#")]

    def test_cnot_r_rows(self):
        code, text = run(["truth-table", "--gate", "cnot-R", *BASE])
        assert code == 0
        assert "# bits: first char = spin R" in text
        assert self.rows(text) == [
            "|11> -> |10>",
            "|10> -> -|11>",
            "|01> -> |01>",
            "|00> -> |00>",
        ]

    def test_cnot_s_rows(self):
        code, text = run(["truth-table", "--gate", "cnot-S", *BASE])
        assert code == 0
        assert self.rows(text) == [
            "|11> -> |01>",
            "|10> -> |10>",
            "|01> -> -|11>",
            "|00> -> |00>",
        ]

    def test_rotation_gate_spec(self):
        code, text = run(["truth-table", "--gate", "rot-S-Y-pi/2", *BASE])
        assert code == 0
        assert "superposition" in text

    def test_bad_gate_spec(self):
        code, _ = run(["truth-table", "--gate", "swap-R", *BASE])
        assert code == 2


class TestPseudoPure:
    def test_output_parses_and_reports_coefficients(self):
        code, text = run(["pseudo-pure", "--beta-scale", "1e-4", *BASE])
        assert code == 0
        assert "# alpha=" in text
        assert " beta=" in text
        rho = parse_density_matrix(text)
        populations = np.real(np.diag(rho))
        assert np.allclose(populations[:3], populations[0], atol=1e-14)
        assert populations[3] > populations[0]

    def test_regime_violation_exit_3(self):
        code, _ = run(["pseudo-pure", "--beta-scale", "0.5", *BASE])
        assert code == 3

    @pytest.mark.parametrize(("omega0", "expected"), [("0.1", 3), ("3", 0)])
    def test_realized_cycle_runs_only_above_the_level_crossing(self, capsys, omega0, expected):
        # the cycle drives (2,3), undrivable below the crossing of levels 3
        # and 4 (omega0 ~ 1.97 at eta = 0.5) and drivable above it
        code, _ = run(["pseudo-pure", "--omega0", omega0, "--eta", "0.5", "--hrf", "1e-5"])
        assert code == expected
        assert ("ZeroMatrixElement" in capsys.readouterr().err) == (expected == 3)


class TestOracleCheck:
    def test_csv_output(self):
        code, text = run(["oracle-check", "--ratio", "0.01", *BASE])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "ratio,infidelity"
        ratio, infidelity = lines[1].split(",")
        assert float(ratio) == 0.01
        assert 0.0 < float(infidelity) <= 1e-1

    @pytest.mark.parametrize("ratio", ["0.01", "1e308", "1e-310"])
    def test_undrivable_transition_exit_3(self, capsys, ratio):
        # drivability is refused before the ratio's drive amplitude and
        # duration, and never under the ratio's name
        code, text = run(["oracle-check", "--ratio", ratio, "--transition", "2,3", *BASE])
        assert (code, text) == (3, "ratio,infidelity\n")
        assert capsys.readouterr().err == (
            "vspin: ZeroMatrixElement: transition (2, 3) has |<I_Y>| = 0.00e+00; undrivable\n"
        )

    @pytest.mark.parametrize("pair", ["1,2,3", "1", "a,b"])
    def test_malformed_transition_exit_2_with_the_grammars_message(self, capsys, pair):
        # the pulse-program grammar's m,n rule, and its message
        with pytest.raises(ValueError) as rule:
            _parse_pair(pair)
        code, text = run(["oracle-check", "--ratio", "0.01", "--transition", pair, *BASE])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == f"vspin: error: --transition: {rule.value}\n"

    @pytest.mark.parametrize("pair", ["0,2", "1,1", "2,5"])
    def test_transition_off_the_line_rule_exit_2_before_any_output(self, capsys, pair):
        code, text = run(["oracle-check", "--ratio", "0.01", "--transition", pair, *BASE])
        assert (code, text) == (2, "")
        shown = "(" + pair.replace(",", ", ") + ")"
        assert capsys.readouterr().err == (
            f"vspin: error: --transition: transition must be a pair of distinct levels in 1..4, got {shown}\n"
        )

    @pytest.mark.parametrize(("pair", "bad"), [("a,b", "'a'"), ("1,b", "'b'"), ("1.5,2", "'1.5'")])
    def test_non_integer_transition_names_the_form_and_the_token(self, capsys, pair, bad):
        code, text = run(["oracle-check", "--ratio", "0.01", "--transition", pair, *BASE])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert "<m>,<n>" in err and bad in err and "invalid literal" not in err

    @pytest.mark.parametrize("ratio", ["-0.01", "nan", "inf", "0"])
    def test_refused_ratio_exit_2_naming_the_ratio(self, capsys, ratio):
        code, text = run(["oracle-check", "--ratio", ratio, *BASE])
        assert (code, text) == (2, "ratio,infidelity\n")
        assert capsys.readouterr().err == f"vspin: error: ratio must be finite and > 0, got {float(ratio)}\n"

    @pytest.mark.parametrize("ratio", ["1e308", "1e-310"])
    def test_ratio_past_the_float_range_exit_2_naming_the_ratio(self, capsys, ratio):
        # finite and positive, but the drive amplitude (1e308) or the pulse
        # duration (1e-310) it gives overflows: refused as the ratio given
        code, text = run(["oracle-check", "--ratio", ratio, *BASE])
        assert (code, text) == (2, "ratio,infidelity\n")
        assert capsys.readouterr().err == (f"vspin: error: ratio {float(ratio)} gives a drive amplitude"
                                           " or pulse duration beyond the float range\n")

    def test_underflowing_gamma_exit_2_naming_the_ratio(self, capsys):
        # gamma * |element| underflows to zero, so h_rf = ratio * gap / 0 has no float
        code, text = run(["oracle-check", "--ratio", "0.01", "--gamma", "5e-324", *BASE])
        assert (code, text) == (2, "ratio,infidelity\n")
        assert capsys.readouterr().err == ("vspin: error: ratio 0.01 gives a drive amplitude"
                                           " or pulse duration beyond the float range\n")

    def test_empty_ratio_list_exit_2(self, capsys):
        code, text = run(["oracle-check", "--ratio", ",", *BASE])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "vspin: error: no ratios given\n"

    @pytest.mark.parametrize("ratio", ["1e-30", "1e-300"])
    def test_overflowing_period_power_exit_3_without_warnings(self, capsys, ratio):
        # ~1e29 and ~1e299 drive periods: their power leaves double precision
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["oracle-check", "--ratio", ratio, *BASE])
        assert code == 3
        assert text == "ratio,infidelity\n"
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("vspin: StepTooLarge: the power of ") and "1558 steps" in err


class TestUsage:
    def test_unknown_command(self):
        code, _ = run(["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigensystem"],
            ["transitions"],
            ["compile-gate", "--kind", "cnot", "--target", "R"],
            ["pseudo-pure"],
            ["truth-table", "--gate", "cnot-S"],
            ["oracle-check", "--ratio", "0.01"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_free_evolution_flag_is_simulate_only(self, argv):
        code, text = run([*argv, "--include-free-evolution"])
        assert code == 2
        assert text == ""

    def test_unknown_flag(self):
        code, _ = run(["eigensystem", "--nope", "1"])
        assert code == 2

    def test_bad_parameter_value(self):
        code, _ = run(["eigensystem", "--eta", "2.0"])
        assert code == 2


IDEAL = str(Path(__file__).parent / "golden" / "ideal.vsp")
SUBCOMMANDS = ["eigensystem", "transitions", "simulate", "compile-gate",
               "pseudo-pure", "truth-table", "oracle-check"]
REUSE_ARGVS = [
    ["--help"],
    *([command, "--help"] for command in SUBCOMMANDS),
    [],
    ["frobnicate"],
    ["compile-gate", "--kind", "swap", "--target", "R"],
    ["transitions", "--eta"],
    ["simulate", IDEAL, "--include-free-evolution"],
    ["simulate", IDEAL],
    ["truth-table", "--gate", "cnot-S", "--hrf", "1.0"],
    ["truth-table", "--gate", "cnot-S"],
]


class TestParserReuse:
    @staticmethod
    def call(argv):
        """(exit code, stdout= text, sys.stdout text, sys.stderr text)."""
        out, stdout, stderr = io.StringIO(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_command(argv, stdout=out)
        return code, out.getvalue(), stdout.getvalue(), stderr.getvalue()

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_reused_parser_answers_as_a_fresh_one(self, monkeypatch):
        fresh = {}
        for columns in ("50", "80"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in REUSE_ARGVS:
                build_parser.cache_clear()
                fresh[columns, *argv] = self.call(argv)
        assert fresh["80", "truth-table", "--gate", "cnot-S", "--hrf", "1.0"][0] == 3
        assert fresh["50", "--help"] != fresh["80", "--help"]
        # one parser for every call below: flag values, help widths and the
        # streams written to must all come from the call itself
        build_parser.cache_clear()
        for columns in ("50", "80", "50"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in [*REUSE_ARGVS, *reversed(REUSE_ARGVS)]:
                assert self.call(argv) == fresh[columns, *argv], (columns, argv)


RHO = str(Path(__file__).parent / "golden" / "rho.txt")
SYSTEM = ["--omega0", "0.2", "--omegaQ", "1.5", "--eta", "-0.3", "--gamma", "2", "--hrf", "0"]
DISPATCH_ARGVS = [
    # every subcommand with its defaults, and with every flag
    ["eigensystem"],
    ["eigensystem", *SYSTEM],
    ["transitions"],
    ["transitions", *SYSTEM],
    ["simulate", IDEAL],
    ["simulate", IDEAL, "--initial", RHO, "--include-free-evolution"],
    ["compile-gate", "--kind", "rot", "--target", "R"],
    ["compile-gate", "--kind", "cnot", "--target", "S", "--axis", "X", "--angle", "pi/2", *SYSTEM],
    ["pseudo-pure"],
    ["pseudo-pure", "--beta-scale", "1e-5", *SYSTEM],
    ["truth-table", "--gate", "cnot-S"],
    ["truth-table", "--gate", "rot-R-X-pi/2", *SYSTEM],
    ["oracle-check", "--ratio", "0.01"],
    ["oracle-check", "--ratio", "0.01", "--transition", "3,4", *SYSTEM],
    # abbreviated flags: ambiguous, and unique; the = form
    ["eigensystem", "--omega", "0.2"],
    ["eigensystem", "--et", "0.25", "--omegaQ=2"],
    ["pseudo-pure", "--beta", "1e-5"],
    ["simulate", IDEAL, "--incl"],
    ["truth-table", "--g", "cnot-R"],
    # help per subcommand, and -- before values
    *([command, "-h"] for command in SUBCOMMANDS),
    ["simulate", "--", IDEAL],
    ["simulate", "--initial", RHO, "--", IDEAL],
    ["truth-table", "--gate", "cnot-S", "--"],
    ["eigensystem", "--", "--omega0", "1"],
    # negative numbers, and a missing value
    ["eigensystem", "--eta", "-0.5"],
    ["eigensystem", "--omega0", "-1"],
    ["transitions", "--omega0", "-1e-3", "--eta", "-1"],
    ["eigensystem", "--omega0"],
    ["truth-table", "--gate"],
    ["compile-gate", "--kind", "rot"],
    # a bad choice, and unknown flags after a subcommand (the fallback path)
    ["compile-gate", "--kind", "swap", "--target", "R"],
    ["compile-gate", "--kind", "rot", "--target", "R", "--axis", "Z"],
    ["simulate", IDEAL, "--omega0", "1"],
    ["eigensystem", "--nope", "1"],
    ["eigensystem", "-x"],
    ["oracle-check", "--include-free-evolution"],
    # extra positionals, empty argv, an unknown command, top-level help
    ["eigensystem", "extra"],
    ["simulate", IDEAL, "other"],
    ["simulate"],
    [],
    ["frobnicate"],
    ["frobnicate", "--omega0", "1"],
    ["Eigensystem"],
    ["--help"],
    ["-h"],
    ["--help", "eigensystem"],
    ["--omega0", "1", "eigensystem"],
]


class TestDispatch:
    """run_command parses with the subcommand's own parser; the top-level
    parse_args path is the reference it must answer as."""

    @staticmethod
    def parsed(parse, argv):
        """(Namespace or exit code, stdout text, stderr text) of one parse."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                result = parse(list(argv))
            except SystemExit as exc:
                result = exc.code
        return result, stdout.getvalue(), stderr.getvalue()

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
    def test_answers_as_the_top_level_parser(self, argv, monkeypatch):
        reference = self.parsed(lambda a: build_parser().parse_args(a), argv)
        assert self.parsed(cli._parse, argv) == reference
        call = TestParserReuse.call
        got = call(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse", lambda a: build_parser().parse_args(a))
            assert got == call(argv)

    def test_the_corpus_reaches_both_paths(self):
        parser = build_parser()
        outcomes = {"subcommand": 0, "fallback": 0, "top-level": 0}
        for argv in DISPATCH_ARGVS:
            command = parser.commands.get(argv[0]) if argv else None
            if command is None:
                outcomes["top-level"] += 1
                continue
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    extras = command.parse_known_args(argv[1:])[1]
                except SystemExit:
                    extras = []
            outcomes["fallback" if extras else "subcommand"] += 1
        assert min(outcomes.values()) >= 3, outcomes

    @pytest.mark.parametrize("argv", [["truth-table", "--gate", "cnot-S", *BASE], ["eigensystem"],
                                      ["simulate", IDEAL], ["compile-gate", "--kind", "swap", "--target", "R"]],
                             ids=" ".join)
    def test_a_subcommand_argv_makes_no_top_level_parse(self, argv, monkeypatch):
        parser, calls = build_parser(), []
        real = parser.parse_known_args

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counted)
        with contextlib.redirect_stderr(io.StringIO()):
            run(argv)
        assert calls == []
        with contextlib.redirect_stderr(io.StringIO()):
            run(["simulate", IDEAL, "--omega0", "1"])
        assert len(calls) == 1
