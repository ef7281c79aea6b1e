import io
import warnings

import numpy as np
import pytest

from vspin import parse_density_matrix, parse_pulse_program
from vspin.cli import run_command


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


class TestOracleCheck:
    def test_csv_output(self):
        code, text = run(["oracle-check", "--ratio", "0.01", *BASE])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "ratio,infidelity"
        ratio, infidelity = lines[1].split(",")
        assert float(ratio) == 0.01
        assert 0.0 < float(infidelity) <= 1e-1

    def test_undrivable_transition_exit_3(self):
        code, _ = run(["oracle-check", "--ratio", "0.01", "--transition", "2,3", *BASE])
        assert code == 3

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

    def test_unknown_flag(self):
        code, _ = run(["eigensystem", "--nope", "1"])
        assert code == 2

    def test_bad_parameter_value(self):
        code, _ = run(["eigensystem", "--eta", "2.0"])
        assert code == 2
