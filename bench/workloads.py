"""The four seeded workloads: inputs, tasks and their correctness checks.

Each workload function takes the imported ``vspin`` package, the seed and a scratch
directory inside the checkout, and returns a :class:`Workload`.  Tasks call
the library through module attributes at call time, so the tracer's
rebindings apply.  Checks run outside the timed region and call no traced
function; the references they compare against are plain numpy, or texts
rendered from library results while the inputs are generated.

Inputs depend on the seed only.  Spin parameters are drawn from regions
where the four levels are well resolved and no two lines collide; a drawn
input is never dropped because the program mishandles it.  Drive ratios
stay within the range the library's callers use (1e-3 to 1e-2).  Per-task
cost is pinned by the grid-step count, not by the draw: the flip angle is
set so each pulse spans a fixed number of default-rule steps, so
run-to-run spread comes from the machine and not from the seed.
"""

import functools
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

TRANSITIONS = ((1, 2), (3, 4), (1, 3), (2, 4))  # the drivable lines
PAIRS = {"S": ((1, 2), (3, 4)), "R": ((1, 3), (2, 4))}  # pulse2 steps

# rwa-sweep: (drive ratio, default-rule grid steps) per point; a decade of
# ratios, the ends those of criterion 7 and `oracle-check`, and cost
# proportional to pulse length.
RWA_POINTS = ((1e-2, 6_000), (10**-2.5, 18_974), (1e-3, 60_000))
# fixed-step: convergence_study's default ratio, and the coarsest grid of
# each step-doubling study (n, 2n, 4n).
FIXED_RATIO = 1e-2
FIXED_BASE = 3_000
TWO_DRIVE_BASE = 6_000
ORDER_RANGE = (1.9, 2.1)
GATE_TASKS = 200
CLI_TASKS = 60
COLD_STARTS = 16


class CheckFailed(Exception):
    """A task's output is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Task:
    label: str
    run: object  # () -> output
    check: object  # output -> None, raises CheckFailed


@dataclass
class ColdStart:
    argv: list  # after the interpreter: ``-m vspin.cli ...`` or ``-c <code>``
    reference: object  # () -> (stdout, exit code) of the same command in-process


@dataclass
class Workload:
    tasks: list
    cold: list  # ColdStart, run one at a time in fresh processes


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _lhs_params(vs, rng, count, zeeman, eta):
    """Spin parameters stratified over (omega0/omegaQ, eta), one per stratum."""
    perm = rng.permutation(count)
    out = []
    for k in range(count):
        c = zeeman[0] + (k + rng.uniform()) / count * (zeeman[1] - zeeman[0])
        e = eta[0] + (perm[k] + rng.uniform()) / count * (eta[1] - eta[0])
        omega_q = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        gamma = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        out.append(vs.SpinParameters(omega0=c * omega_q, omegaQ=omega_q, eta=e, gamma=gamma))
    return out


def _gap(vs, e, transition):
    """Distance from a line to the nearest other line, and the spectral width."""
    table = vs.transition_table(e)
    omega = table.frequency(*transition)
    gap = min(abs(omega - o) for m, n, o in table.entries if (m, n) != tuple(transition))
    return gap, float(e.energies[0] - e.energies[-1])


def _flip_for_steps(rabi, width, steps):
    """Flip angle of a pulse at Rabi rate ``rabi`` that spans ``steps`` grid steps.

    A pulse lasts flip / (2 rabi), with rabi = gamma * h_rf * |element|,
    and the default step is 2 pi / (200 W) when the spectral width W is the
    fastest scale, which holds for every drive drawn here.
    """
    return math.pi * rabi * steps / (50.0 * width)


def _ideal(transition, axis, phase, flip):
    """Selective-pulse propagator written out in numpy (engine conventions)."""
    m, n = transition[0] - 1, transition[1] - 1
    phi = phase if axis == "Y" else phase - math.pi / 2.0
    v = np.eye(4, dtype=complex)
    v[m, m] = v[n, n] = math.cos(flip / 2.0)
    v[n, m] = np.exp(1j * phi) * math.sin(flip / 2.0)
    v[m, n] = -np.exp(-1j * phi) * math.sin(flip / 2.0)
    return v


def _unitarity_defect(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(4))))


def _infidelity(u, v):
    return 1.0 - abs(np.trace(u.conj().T @ v)) / 4.0


# -- rwa-sweep ---------------------------------------------------------------


def rwa_sweep(vs, seed, workdir):
    """rwa_infidelity over seeded spins, the four lines, both axes, a decade of ratios."""
    rng = _rng(seed, 1)
    params = _lhs_params(vs, rng, 3, zeeman=(0.2, 0.35), eta=(0.5, 0.9))
    tasks = []
    for level, (ratio, steps) in enumerate(RWA_POINTS):
        axes = rng.permutation(["X", "Y", "X", "Y"])
        for i, transition in enumerate(TRANSITIONS):
            p = params[(i + level) % len(params)]
            axis = str(axes[i])
            phase = rng.uniform(0.0, 2.0 * math.pi)
            gap, width = _gap(vs, vs.closed_form_eigensystem(p), transition)
            flip = _flip_for_steps(ratio * gap, width, steps)

            def run(p=p, transition=transition, ratio=ratio, axis=axis, phase=phase, flip=flip):
                return vs.lab_frame.rwa_infidelity(
                    p, None, transition, ratio, axis, phase, flip
                )

            def check(infidelity, ratio=ratio):
                require(math.isfinite(infidelity), f"infidelity {infidelity}")
                require(infidelity <= 10.0 * ratio, f"infidelity {infidelity:.3e} > 10 r = {10 * ratio:.3e}")

            tasks.append(Task(f"rwa {transition} {axis} r={ratio:.3g}", run, check))
    # `vspin oracle-check` at the highest ratio, on the cheaper (1,2) and (3,4) lines
    starts = [
        _cli_cold(vs, ["oracle-check", "--ratio", repr(RWA_POINTS[0][0]),
                       "--transition", "%d,%d" % TRANSITIONS[k % 2], *_system_flags(params[k % 3])])
        for k in range(6)
    ]
    return Workload(tasks, [starts[k % len(starts)] for k in range(COLD_STARTS)])


# -- fixed-step --------------------------------------------------------------


def fixed_step(vs, seed, workdir):
    """Step-doubling studies: convergence_study, and two-drive pulse2 realizations."""
    rng = _rng(seed, 2)
    params = _lhs_params(vs, rng, 2, zeeman=(0.2, 0.35), eta=(0.5, 0.9))
    tasks, studies = [], []
    for i, transition in enumerate(TRANSITIONS):
        p = params[i % 2]
        axis = str(rng.choice(["X", "Y"]))
        gap, width = _gap(vs, vs.closed_form_eigensystem(p), transition)
        flip = _flip_for_steps(FIXED_RATIO * gap, width, FIXED_BASE)
        studies.append((p, transition, axis, flip))

        def run(p=p, transition=transition, axis=axis, flip=flip):
            return vs.lab_frame.convergence_study(p, transition, FIXED_RATIO, axis, flip, refinements=2)

        def check(study):
            order = study["orders"][0]
            require(ORDER_RANGE[0] <= order <= ORDER_RANGE[1], f"observed order {order:.3f}")

        tasks.append(Task(f"convergence {transition} {axis}", run, check))
    for k, spin in enumerate(("S", "R")):
        tasks.append(_two_drive_task(vs, params[k], spin, rng))
    # No subcommand takes explicit n_steps, so a cold start runs a study under `python -c`.
    starts = [_code_cold(_study_code(*study)) for study in studies]
    return Workload(tasks, [starts[k % len(starts)] for k in range(COLD_STARTS)])


def _study_code(p, transition, axis, flip):
    return (
        "from vspin import SpinParameters\n"
        "from vspin.lab_frame import convergence_study\n"
        f"p = SpinParameters(omega0={float(p.omega0)!r}, omegaQ={float(p.omegaQ)!r},"
        f" eta={float(p.eta)!r}, gamma={float(p.gamma)!r})\n"
        f"print(repr(convergence_study(p, {tuple(transition)!r}, {FIXED_RATIO!r}, {axis!r},"
        f" {float(flip)!r}, refinements=2)))\n"
    )


def _two_drive_task(vs, p, spin, rng):
    """A pulse2 step realized in the lab frame with two incommensurate drives.

    Both lines get the same Rabi rate, FIXED_RATIO times the smaller of
    their gaps, so the two flips end together; the flip is set so the
    pulse spans TWO_DRIVE_BASE default grid steps.
    """
    pair_a, pair_b = PAIRS[spin]
    axis = str(rng.choice(["X", "Y"]))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    e = vs.closed_form_eigensystem(p)
    gaps = [_gap(vs, e, t) for t in (pair_a, pair_b)]
    rabi = FIXED_RATIO * min(g for g, _ in gaps)  # gamma * h_rf * |element|
    flip = _flip_for_steps(rabi, gaps[0][1], TWO_DRIVE_BASE)
    elements = [abs(vs.pulse_engine.transition_matrix_element(e, t, axis)) for t in (pair_a, pair_b)]
    scaled = [
        vs.SpinParameters(omega0=p.omega0, omegaQ=p.omegaQ, eta=p.eta, gamma=p.gamma,
                          h_rf=rabi / (p.gamma * el))
        for el in elements
    ]

    def run():
        lab = vs.lab_frame
        drives = [lab.drive_for_pulse(s, e, t, axis, phase, flip) for s, t in zip(scaled, (pair_a, pair_b))]
        system = vs.DrivenSystem(
            h0=drives[0].h0, drives=drives[0].drives + drives[1].drives, duration=drives[0].duration
        )
        us = [lab.integrate_lab_frame(system, n_steps=TWO_DRIVE_BASE * 2**k) for k in range(3)]
        return us, lab.to_interaction_frame(us[-1], e, system.duration)

    ideal = _ideal(pair_a, axis, phase, flip) @ _ideal(pair_b, axis, phase, flip)

    def check(output):
        us, u_int = output
        defect = max(_unitarity_defect(u) for u in us)
        require(defect <= 1e-10, f"unitarity defect {defect:.2e}")
        d1 = float(np.max(np.abs(us[0] - us[1])))
        d2 = float(np.max(np.abs(us[1] - us[2])))
        lo, hi = (2.0**x for x in ORDER_RANGE)
        require(lo <= d1 / d2 <= hi, f"step-doubling deviation ratio {d1 / d2:.3f}")
        infidelity = _infidelity(u_int, ideal)
        bound = 10.0 * FIXED_RATIO
        require(infidelity <= bound, f"pulse2 infidelity {infidelity:.2e} > 10 r = {bound:.2e}")

    return Task(f"pulse2 {spin} {axis}", run, check)


# -- gate-pipeline -----------------------------------------------------------

_PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0,
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex) / 2.0,
}
# Level order 1..4 = |11>, |10>, |01>, |00>: kron(R, S) with factor order (1, 0).
_CNOT = {
    "R": np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex),
    "S": np.array([[0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex),
}
_CNOT_BITS = {
    "R": {"11": "10", "10": "11", "01": "01", "00": "00"},
    "S": {"11": "01", "01": "11", "10": "10", "00": "00"},
}


def expected_gate(request):
    """The gate a request asks for: exp(-i angle G) of a virtual spin, or a CNOT."""
    if request.kind == "cnot":
        return _CNOT[request.target]
    g = _PAULI[request.axis]
    g = np.kron(g, np.eye(2)) if request.target == "R" else np.kron(np.eye(2), g)
    half = request.angle / 2.0
    return math.cos(half) * np.eye(4) - 2.0j * math.sin(half) * g


def _wide_params(vs, rng, h_rf=False):
    """Any resolved, collision-free spin; with h_rf, a selective RF amplitude."""
    omega_q = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    p = vs.SpinParameters(
        omega0=rng.uniform(0.05, 0.45) * omega_q,
        omegaQ=omega_q,
        eta=rng.uniform(0.1, 0.9),
        gamma=math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
    )
    if not h_rf:
        return p
    e = vs.closed_form_eigensystem(p)
    # 1e3 Rabi rates must fit in every driven line's gap (pulse_engine's factor)
    worst = min(_gap(vs, e, t)[0] / max(abs(vs.pulse_engine.transition_matrix_element(e, t, ax))
                                        for ax in "XY")
                for t in TRANSITIONS)
    h = rng.uniform(0.05, 0.5) * worst / (1e3 * p.gamma)
    return vs.SpinParameters(omega0=p.omega0, omegaQ=p.omegaQ, eta=p.eta, gamma=p.gamma, h_rf=h)


def _random_request(vs, rng, cnot=None):
    """A gate on a seeded target; a CNOT when ``cnot``, or with odds 0.3 if None."""
    target = str(rng.choice(["R", "S"]))
    if cnot is None:
        cnot = rng.uniform() < 0.3
    if cnot:
        return vs.GateRequest(kind="cnot", target=target)
    return vs.GateRequest(kind="rotation", target=target, axis=str(rng.choice(["X", "Y"])),
                          angle=rng.uniform(-math.pi, math.pi))


def gate_pipeline(vs, seed, workdir):
    """Eigensystem, state prep, compiled circuits, text round trips; no lab_frame."""
    rng = _rng(seed, 3)
    # The mix is fixed, the seed draws and orders it: circuits of 2..6 gates
    # in turn, 30% of the gates CNOTs, a quarter of the tasks in the physics
    # view (selectivity checks on).
    sizes = [2 + k % 5 for k in range(GATE_TASKS)]
    cnots = rng.permutation(np.arange(sum(sizes)) < round(0.3 * sum(sizes)))
    tasks = []
    for k, size in enumerate(sizes):
        physics = k % 4 == 3
        p = _wide_params(vs, rng, h_rf=physics)
        spec = vs.ThermalSpec(beta_scale=math.exp(rng.uniform(math.log(1e-5), math.log(1e-4))))
        first = sum(sizes[:k])
        requests = [_random_request(vs, rng, bool(c)) for c in cnots[first:first + size]]
        tasks.append(_gate_task(vs, p, spec, requests, "physics" if physics else "compiler"))
    cold = []
    for k in range(COLD_STARTS):
        p = _wide_params(vs, rng)
        prog, _ = vs.compile_gate(vs.closed_form_eigensystem(p), p, _random_request(vs, rng))
        path = workdir / f"cold{k}.vsp"
        path.write_text(vs.format_pulse_program(prog), encoding="utf-8")
        cold.append(_cli_cold(vs, ["simulate", str(path)]))
    return Workload(tasks, cold)


def _gate_task(vs, p, spec, requests, view):
    def run():
        e = vs.spin_system.closed_form_eigensystem(p)
        table = vs.spin_system.transition_table(e)
        rho_eq = vs.state_prep.high_temperature_state(e, spec)
        rho_pp, _, _ = vs.state_prep.temporal_average(rho_eq, e)
        rho = rho_pp
        trail = []
        for request in requests:
            prog, u = vs.virtual_qubits.compile_gate(e, p, request)
            parsed = vs.textio.parse_pulse_program(vs.textio.format_pulse_program(prog))
            rho_next = vs.pulse_engine.apply_pulse_program(parsed, rho, e=e)
            rho = vs.textio.parse_density_matrix(vs.textio.format_density_matrix(rho_next))
            rows = vs.virtual_qubits.truth_table(u) if request.kind == "cnot" else None
            trail.append((prog, parsed, u, rho_next, rho, rows))
        return e, table, rho_pp, trail

    def check(output):
        e, table, rho_pp, trail = output
        require(e.regime_ok and not table.collisions, "drawn spin is not resolved")
        total = np.eye(4, dtype=complex)
        for request, (prog, parsed, u, rho_next, rho, rows) in zip(requests, trail):
            require(parsed == prog, "pulse-program text round trip changed the program")
            require(rho.tobytes() == rho_next.tobytes(), "density-matrix text round trip is not bit-exact")
            gate = expected_gate(request)
            require(np.max(np.abs(u - gate)) <= 1e-10, f"compiled {request} is off the gate")
            if rows is not None:
                got = {r.input_bits: r.output_bits for r in rows}
                require(got == _CNOT_BITS[request.target], f"truth table {got}")
            total = gate @ total
        expected = total @ rho_pp @ total.conj().T
        err = float(np.max(np.abs(trail[-1][4] - expected)))
        require(err <= 1e-10, f"final rho differs from the numpy product by {err:.2e}")

    return Task(f"circuit {view} x{len(requests)}", run, check)


# -- cli ---------------------------------------------------------------------


def _system_flags(p):
    flags = ["--omega0", repr(p.omega0), "--omegaQ", repr(p.omegaQ), "--eta", repr(p.eta),
             "--gamma", repr(p.gamma)]
    if p.h_rf:
        flags += ["--hrf", repr(p.h_rf)]
    return flags


def _fmt(x):
    return f"{float(x):.17g}"


def _eigensystem_text(vs, p):
    e = vs.closed_form_eigensystem(p)
    lines = [f"# eigensystem omega0={_fmt(p.omega0)} omegaQ={_fmt(p.omegaQ)} eta={_fmt(p.eta)}"]
    lines += [f"energy m={m} {_fmt(e.energy(m))}" for m in range(1, 5)]
    lines.append(f"mixing alpha_plus={_fmt(e.mixing_angles[0])} alpha_minus={_fmt(e.mixing_angles[1])}")
    lines.append(f"regime_ok {'true' if e.regime_ok else 'false'}")
    lines.append("# states in the chi basis, order m = 3/2, 1/2, -1/2, -3/2")
    for m in range(1, 5):
        row = " ".join(f"({_fmt(z.real)},{_fmt(z.imag)})" for z in e.state(m))
        lines.append(f"state m={m} {row}")
    return "\n".join(lines) + "\n"


def _transitions_text(vs, p):
    table = vs.transition_table(vs.closed_form_eigensystem(p))
    lines = [f"transition m={m} n={n} omega={_fmt(w)}" for m, n, w in table.entries]
    lines += [f"collision ({a},{b}) ({c},{d}) delta={_fmt(x)}" for (a, b), (c, d), x in table.collisions]
    return "\n".join(lines + ([] if table.collisions else ["collisions none"])) + "\n"


def _gate_argv(request):
    if request.kind == "cnot":
        return ["--kind", "cnot", "--target", request.target]
    return ["--kind", "rot", "--target", request.target, "--axis", request.axis,
            "--angle", repr(request.angle)]


def _gate_spec(request):
    if request.kind == "cnot":
        return f"cnot-{request.target}"
    return f"rot-{request.target}-{request.axis}-{request.angle!r}"


CLI_KINDS = ("eigensystem", "transitions", "compile-gate", "truth-table", "pseudo-pure", "simulate")
REFUSALS = 7


def _cli_command(vs, rng, workdir, k, kind):
    """(argv, expected stdout, expected exit code), the stdout rendered from the library.

    ``kind`` is a subcommand, or the number of a documented refusal.
    """
    p = _wide_params(vs, rng)
    if isinstance(kind, int):
        argv, code = _refusal(vs, rng, p, workdir, k, kind)
        return argv, "", code
    e = vs.closed_form_eigensystem(p)
    if kind == "eigensystem":
        return ["eigensystem", *_system_flags(p)], _eigensystem_text(vs, p), 0
    if kind == "transitions":
        return ["transitions", *_system_flags(p)], _transitions_text(vs, p), 0
    request = _random_request(vs, rng)
    if kind == "compile-gate":
        prog, _ = vs.compile_gate(e, p, request)
        return ["compile-gate", *_gate_argv(request), *_system_flags(p)], vs.format_pulse_program(prog), 0
    if kind == "truth-table":
        _, u = vs.compile_gate(e, p, request)
        text = "# bits: first char = spin R, second char = spin S\n" + vs.format_truth_table(vs.truth_table(u)) + "\n"
        return ["truth-table", "--gate", _gate_spec(request), *_system_flags(p)], text, 0
    beta_scale = math.exp(rng.uniform(math.log(1e-5), math.log(1e-4)))
    rho_pp, alpha, beta = vs.temporal_average(vs.high_temperature_state(e, vs.ThermalSpec(beta_scale)), e)
    if kind == "pseudo-pure":
        text = (f"# pseudo-pure by temporal averaging, beta_scale={_fmt(beta_scale)}\n"
                f"# alpha={_fmt(alpha)} beta={_fmt(beta)}\n" + vs.format_density_matrix(rho_pp))
        return ["pseudo-pure", "--beta-scale", repr(beta_scale), *_system_flags(p)], text, 0
    prog, _ = vs.compile_gate(e, p, request)
    program_path, rho_path = workdir / f"prog{k}.vsp", workdir / f"rho{k}.txt"
    program_path.write_text(vs.format_pulse_program(prog), encoding="utf-8")
    rho_path.write_text(vs.format_density_matrix(rho_pp), encoding="utf-8")
    rho = vs.apply_pulse_program(prog, rho_pp, e=e)
    return ["simulate", str(program_path), "--initial", str(rho_path)], vs.format_density_matrix(rho), 0


def _refusal(vs, rng, p, workdir, k, choice):
    """(argv, exit code) of documented refusal number ``choice``."""
    flags = _system_flags(p)
    if choice == 0:  # pulse2 durations differ once free evolution is tracked (2)
        physical = _wide_params(vs, rng, h_rf=True)
        request = vs.GateRequest(kind="rotation", target=str(rng.choice(["R", "S"])),
                                 axis="Y", angle=rng.uniform(0.1, math.pi))
        prog, _ = vs.compile_gate(vs.closed_form_eigensystem(physical), physical, request)
        path = workdir / f"phys{k}.vsp"
        path.write_text(vs.format_pulse_program(prog), encoding="utf-8")
        return ["simulate", str(path), "--include-free-evolution"], 2
    if choice == 1:  # a strong drive is not selective (3)
        return ["truth-table", "--gate", "cnot-R", *flags, "--hrf", "1.0"], 3
    if choice == 2:  # omega0 = eta = 0 is degenerate (3)
        return ["eigensystem", "--omega0", "0", "--eta", "0"], 3
    if choice == 3:  # averaging drives the undrivable (2,3) line in the physics view (3)
        return ["pseudo-pure", *flags, "--hrf", "1e-5"], 3
    if choice == 4:  # bad angle expression (2)
        return ["compile-gate", "--kind", "rot", "--target", "S", "--angle", "pi/0", *flags], 2
    if choice == 5:  # missing program file (2)
        return ["simulate", str(workdir / f"missing{k}.vsp")], 2
    return ["compile-gate", "--kind", "swap", "--target", "R"], 2  # usage error (2)


def _cli_cold(vs, argv):
    """A cold start of ``python -m vspin.cli argv``; the reference is run_command."""

    @functools.cache
    def reference():
        out = io.StringIO()
        with redirect_stderr(io.StringIO()):
            code = vs.cli.run_command(argv, stdout=out)
        return out.getvalue(), code

    return ColdStart(["-m", "vspin.cli", *argv], reference)


def _code_cold(code):
    """A cold start of ``python -c code``; the reference runs the code in this process."""

    @functools.cache
    def reference():
        out = io.StringIO()
        with redirect_stdout(out):
            exec(code, {})  # noqa: S102 -- the benchmark's own generated code
        return out.getvalue(), 0

    return ColdStart(["-c", code], reference)


def cli(vs, seed, workdir):
    """In-process `run_command` over the subcommands, with refusals; truth-table cold starts."""
    rng = _rng(seed, 4)
    # A fixed mix in seeded order: each subcommand equally often, and one
    # task in five a refusal, taking the refusals in turn.
    refusals = CLI_TASKS // 5
    kinds = [CLI_KINDS[k % len(CLI_KINDS)] for k in range(CLI_TASKS - refusals)]
    kinds += [k % REFUSALS for k in range(refusals)]
    tasks = []
    for k in rng.permutation(len(kinds)):
        argv, expected, code = _cli_command(vs, rng, workdir, int(k), kinds[k])
        tasks.append(_cli_task(vs, argv, expected, code))
    cold = []
    for _ in range(COLD_STARTS):
        p = _wide_params(vs, rng)
        cold.append(_cli_cold(vs, ["truth-table", "--gate", _gate_spec(_random_request(vs, rng)),
                                   *_system_flags(p)]))
    return Workload(tasks, cold)


def _cli_task(vs, argv, expected, code):
    def run():
        out = io.StringIO()
        with redirect_stderr(io.StringIO()):
            got = vs.cli.run_command(argv, stdout=out)
        return got, out.getvalue()

    def check(output):
        got, text = output
        require(got == code, f"vspin {' '.join(argv[:3])}: exit {got}, expected {code}")
        require(text == expected, f"vspin {' '.join(argv[:3])}: stdout differs from the library")

    return Task(f"cli {argv[0]} -> {code}", run, check)


WORKLOADS = {
    "rwa-sweep": rwa_sweep,
    "fixed-step": fixed_step,
    "gate-pipeline": gate_pipeline,
    "cli": cli,
}
