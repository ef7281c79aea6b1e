"""Command-line interface.

Subcommands:

    eigensystem                     labeled energies, mixing angles, states
    transitions                     the six transition frequencies + collisions
    simulate <program-file>         run a pulse program on a density matrix
    compile-gate                    emit the pulse program of a gate
    pseudo-pure                     thermal state -> temporal-average output
    truth-table --gate <spec>       basis action of a compiled gate
    oracle-check --ratio <r,...>    lab-frame vs rotating-wave infidelity CSV

simulate takes the spin system from the program's ``system`` line, and it
alone takes --include-free-evolution (static-phase tracking during pulses).
The others take --omega0 --omegaQ --eta --gamma --hrf; oracle-check sets
h_rf from --ratio and gamma cancels, so --hrf and --gamma do not change it.
Numbers print with 17 significant digits so output is byte-stable and
round-trip safe.  Exit codes: 0 success, 2 usage or input-format error
or an unrealizable pulse (no finite drive amplitude or duration), 3
numeric-contract violation (degeneracy, selectivity, bad state, ...).
The parsers are built once per process, and a call is parsed by its
subcommand's own parser, so repeated in-process calls of
run_command(argv, stdout=...) cost ~0.14 ms (the median of
bench/run.py --workload cli on a shared 2-core VM), not ~2 ms.
"""

import argparse
import functools
import sys

import numpy as np

from .errors import ParseError, ProgramError, VspinError
from .lab_frame import rwa_sweep
from .pulse_engine import apply_pulse_program
from .spin_system import SpinParameters, _normalize_transition, closed_form_eigensystem
from .state_prep import ThermalSpec, high_temperature_state, temporal_average
from .textio import (
    _parse_pair,
    format_density_matrix,
    format_number,
    format_pulse_program,
    parse_angle,
    parse_density_matrix,
    parse_pulse_program,
)
from .virtual_qubits import GateRequest, compile_gate, format_truth_table, truth_table

__all__ = ["run_command", "main"]

USAGE_ERROR = 2
CONTRACT_ERROR = 3


def _add_system_flags(parser):
    parser.add_argument("--omega0", type=float, default=0.1, help="Zeeman angular frequency, rad/s")
    parser.add_argument("--omegaQ", type=float, default=1.0, help="quadrupole angular frequency, rad/s")
    parser.add_argument("--eta", type=float, default=0.5, help="field-gradient asymmetry, |eta| <= 1")
    parser.add_argument("--gamma", type=float, default=1.0, help="gyromagnetic ratio")
    parser.add_argument("--hrf", type=float, default=0.0,
                        help="RF amplitude; 0 treats pulses as ideal flip-angle objects")


def _params(args):
    return SpinParameters(
        omega0=args.omega0, omegaQ=args.omegaQ, eta=args.eta,
        gamma=args.gamma, h_rf=args.hrf,
    )


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="vspin",
        description="Spin-3/2 virtual-qubit simulator and gate-to-pulse compiler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name -> the subcommand's own parser, which run_command parses with
    parser.commands = sub.choices

    p = sub.add_parser("eigensystem", help="labeled eigensystem of the static Hamiltonian")
    _add_system_flags(p)

    p = sub.add_parser("transitions", help="transition frequencies and selectivity collisions")
    _add_system_flags(p)

    p = sub.add_parser("simulate", help="apply a pulse program to a density matrix")
    p.add_argument("program", help="pulse-program file")
    p.add_argument("--initial", default=None,
                   help="density-matrix file (default: maximally mixed)")
    p.add_argument("--include-free-evolution", action="store_true",
                   help="track static-Hamiltonian phases over pulse durations")

    p = sub.add_parser("compile-gate", help="emit the pulse program of a gate")
    p.add_argument("--kind", choices=("rot", "cnot"), required=True)
    p.add_argument("--target", choices=("R", "S"), required=True,
                   help="rotated spin for rot, control spin for cnot")
    p.add_argument("--axis", choices=("X", "Y"), default="Y")
    p.add_argument("--angle", default="pi", help="rotation angle (float or pi expression)")
    _add_system_flags(p)

    p = sub.add_parser("pseudo-pure", help="temporal-average pseudo-pure preparation")
    p.add_argument("--beta-scale", type=float, default=1e-4,
                   help="beta * hbar * omegaQ of the thermal input")
    _add_system_flags(p)

    p = sub.add_parser("truth-table", help="basis action of a compiled gate")
    p.add_argument("--gate", required=True,
                   help="cnot-R, cnot-S, or rot-<R|S>-<X|Y>-<angle>")
    _add_system_flags(p)

    p = sub.add_parser("oracle-check", help="lab-frame integrator vs ideal pulse")
    p.add_argument("--ratio", default="0.01,0.001,0.0001",
                   help="comma-separated drive ratios; each sets h_rf, and gamma"
                   " cancels, so --hrf and --gamma do not change the output")
    p.add_argument("--transition", default="1,2", help="driven level pair m,n")
    _add_system_flags(p)

    return parser


def _parse_gate_spec(text):
    parts = str(text).split("-", 3)
    if parts[0] == "cnot" and len(parts) == 2:
        return GateRequest(kind="cnot", target=parts[1])
    if parts[0] == "rot" and len(parts) == 4:
        return GateRequest(
            kind="rotation", target=parts[1], axis=parts[2], angle=parse_angle(parts[3])
        )
    raise ValueError(
        f"bad gate spec {text!r}; expected cnot-<R|S> or rot-<R|S>-<X|Y>-<angle>"
    )


def _cmd_eigensystem(args, out):
    params = _params(args)
    e = closed_form_eigensystem(params)
    out.write(
        f"# eigensystem omega0={format_number(params.omega0)} "
        f"omegaQ={format_number(params.omegaQ)} eta={format_number(params.eta)}\n"
    )
    for m in range(1, 5):
        out.write(f"energy m={m} {format_number(e.energy(m))}\n")
    alpha_p, alpha_m = e.mixing_angles
    out.write(
        f"mixing alpha_plus={format_number(alpha_p)} alpha_minus={format_number(alpha_m)}\n"
    )
    out.write(f"regime_ok {'true' if e.regime_ok else 'false'}\n")
    out.write("# states in the chi basis, order m = 3/2, 1/2, -1/2, -3/2\n")
    for m in range(1, 5):
        row = " ".join(
            f"({format_number(z.real)},{format_number(z.imag)})" for z in e.state(m)
        )
        out.write(f"state m={m} {row}\n")
    return 0


def _cmd_transitions(args, out):
    table = closed_form_eigensystem(_params(args)).transitions
    for m, n, omega in table.entries:
        out.write(f"transition m={m} n={n} omega={format_number(omega)}\n")
    if table.collisions:
        for (a, b), (c, d), delta in table.collisions:
            out.write(
                f"collision ({a},{b}) ({c},{d}) delta={format_number(delta)}\n"
            )
    else:
        out.write("collisions none\n")
    return 0


def _cmd_simulate(args, out):
    with open(args.program, encoding="utf-8") as fh:
        prog = parse_pulse_program(fh.read())
    if args.initial is not None:
        with open(args.initial, encoding="utf-8") as fh:
            rho0 = parse_density_matrix(fh.read())
    else:
        rho0 = np.eye(4, dtype=complex) / 4.0
    e = closed_form_eigensystem(prog.params)
    rho = apply_pulse_program(
        prog, rho0, include_free_evolution=args.include_free_evolution, e=e
    )
    out.write(format_density_matrix(rho))
    return 0


def _cmd_compile_gate(args, out):
    params = _params(args)
    e = closed_form_eigensystem(params)
    if args.kind == "cnot":
        request = GateRequest(kind="cnot", target=args.target)
    else:
        request = GateRequest(
            kind="rotation", target=args.target, axis=args.axis,
            angle=parse_angle(args.angle),
        )
    program, _ = compile_gate(e, params, request)
    out.write(format_pulse_program(program))
    return 0


def _cmd_pseudo_pure(args, out):
    params = _params(args)
    e = closed_form_eigensystem(params)
    spec = ThermalSpec(beta_scale=args.beta_scale)
    rho_eq = high_temperature_state(e, spec)
    rho_pp, alpha, beta = temporal_average(rho_eq, e, params)
    out.write(f"# pseudo-pure by temporal averaging, beta_scale={format_number(spec.beta_scale)}\n")
    out.write(f"# alpha={format_number(alpha)} beta={format_number(beta)}\n")
    out.write(format_density_matrix(rho_pp))
    return 0


def _cmd_truth_table(args, out):
    params = _params(args)
    e = closed_form_eigensystem(params)
    request = _parse_gate_spec(args.gate)
    _, unitary = compile_gate(e, params, request)
    out.write("# bits: first char = spin R, second char = spin S\n")
    out.write(format_truth_table(truth_table(unitary)) + "\n")
    return 0


def _cmd_oracle_check(args, out):
    params = _params(args)
    ratios = [float(r) for r in str(args.ratio).split(",") if r.strip()]
    if not ratios:
        raise ValueError("no ratios given")
    try:
        transition = _normalize_transition(_parse_pair(str(args.transition)))
    except ValueError as exc:  # before any output, under the flag's name
        raise ValueError(f"--transition: {exc}") from None
    out.write("ratio,infidelity\n")
    for ratio, infidelity in rwa_sweep(params, transition=transition, ratios=ratios):
        out.write(f"{format_number(ratio)},{format_number(infidelity)}\n")
    return 0


_COMMANDS = {
    "eigensystem": _cmd_eigensystem,
    "transitions": _cmd_transitions,
    "simulate": _cmd_simulate,
    "compile-gate": _cmd_compile_gate,
    "pseudo-pure": _cmd_pseudo_pure,
    "truth-table": _cmd_truth_table,
    "oracle-check": _cmd_oracle_check,
}


def _parse(argv):
    """The Namespace the top-level parser gives argv, or its SystemExit.

    A subcommand's own parser does the work the top-level one hands it; the
    top-level parser answers when argv names no subcommand, and re-parses
    when the subcommand leaves arguments over, so that refusal, with its
    usage line, stays its own.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run_command(argv, stdout=None) -> int:
    """Run one CLI invocation; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    try:
        args = _parse(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args, out)
    except (ProgramError, ParseError, OSError, ValueError) as exc:
        print(f"vspin: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except VspinError as exc:
        print(f"vspin: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CONTRACT_ERROR


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
