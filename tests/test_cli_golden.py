"""Byte-for-byte golden outputs of the CLI.

Each case runs ``run_command`` in-process and compares its stdout with
``tests/golden/<name>.out``.  A refactor that keeps every rule's
floating-point operation order leaves all of them unchanged.

After an intended output change, rewrite the golden files with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import io
import sys
from pathlib import Path

import pytest

from vspin.cli import run_command

GOLDEN = Path(__file__).resolve().parent / "golden"
BASE = ["--omega0", "0.1", "--omegaQ", "1", "--eta", "0.5"]
PHYSICS = [*BASE, "--hrf", "1e-5"]

# name -> argv; "@file" names an input file in GOLDEN
CASES = {
    "eigensystem": ["eigensystem", *BASE],
    "eigensystem_diagonal": ["eigensystem", "--omega0", "0.1", "--eta", "0"],
    "eigensystem_physics": ["eigensystem", *PHYSICS],
    "transitions": ["transitions", *BASE],
    "transitions_collision": ["transitions", "--omega0", "0.56", "--eta", "0.6"],
    "compile_cnot_R": ["compile-gate", "--kind", "cnot", "--target", "R", *BASE],
    "compile_rot_S_X": [
        "compile-gate", "--kind", "rot", "--target", "S", "--axis", "X",
        "--angle", "pi/2", *BASE,
    ],
    "compile_rot_R_physics": [
        "compile-gate", "--kind", "rot", "--target", "R", "--angle=-pi/3", *PHYSICS,
    ],
    "truth_cnot_S": ["truth-table", "--gate", "cnot-S", *BASE],
    "truth_rot_R_X_physics": ["truth-table", "--gate", "rot-R-X-pi/2", *PHYSICS],
    "pseudo_pure": ["pseudo-pure", "--beta-scale", "1e-4", *BASE],
    "simulate_ideal": ["simulate", "@ideal.vsp", "--initial", "@rho.txt"],
    "simulate_ideal_mixed": ["simulate", "@ideal.vsp"],
    "simulate_physics": ["simulate", "@physics.vsp", "--initial", "@rho.txt"],
    "simulate_physics_free": [
        "simulate", "@physics.vsp", "--initial", "@rho.txt", "--include-free-evolution",
    ],
    "oracle_check_12": ["oracle-check", "--ratio", "0.01", "--transition", "1,2", *BASE],
    # a 230-step period grid with m = 1, one factor per step
    "oracle_check_24": ["oracle-check", "--ratio", "0.01,0.001", "--transition", "2,4", *BASE],
}


def _argv(name):
    return [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in CASES[name]]


def _run(name):
    out = io.StringIO()
    code = run_command(_argv(name), stdout=out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, text = _run(name)
    assert code == 0
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert text == expected


if __name__ == "__main__":
    for case in sorted(CASES):
        status, stdout = _run(case)
        if status != 0:
            sys.exit(f"{case}: exit {status}")
        (GOLDEN / f"{case}.out").write_text(stdout, encoding="utf-8")
        print(f"wrote {case}.out")
