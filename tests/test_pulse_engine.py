import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vspin import spin_system
from vspin import (
    FreeEvolutionStep,
    GateRequest,
    InvalidState,
    PulseProgram,
    PulseSpec,
    PulseStep,
    SelectivityViolation,
    SemanticError,
    SharedLevel,
    SpinParameters,
    TwoFrequencyStep,
    apply_pulse_program,
    closed_form_eigensystem,
    compile_gate,
    flip_angle,
    free_evolution,
    program_propagator,
    projector,
    single_frequency_propagator,
    transition_matrix_element,
    two_frequency_propagator,
    ZeroMatrixElement,
)


def proj(m, n):
    return projector(m, n).matrix


# closed projector forms used as oracles throughout
CNOT_R = proj(3, 3) + proj(4, 4) + proj(2, 1) - proj(1, 2)
CNOT_S = proj(2, 2) + proj(4, 4) + proj(3, 1) - proj(1, 3)


class TestFlipAngle:
    def test_zero_duration(self, params, eigen):
        p = SpinParameters(0.1, 1.0, 0.5, gamma=1.0, h_rf=0.2)
        assert flip_angle(p, eigen, (1, 2), "Y", 0.0) == 0.0

    def test_direct_substitution(self, eigen):
        # phi_y = 2 T (gamma h_rf) |element|; with gamma h_rf = 1000 rad/s
        # and T = pi/1000 s the flip is pi * 2|element|
        p = SpinParameters(0.1, 1.0, 0.5, gamma=1000.0, h_rf=1.0)
        elem = abs(transition_matrix_element(eigen, (1, 2), "Y"))
        got = flip_angle(p, eigen, (1, 2), "Y", np.pi / 1000.0)
        assert got == pytest.approx(2.0 * np.pi * elem, rel=1e-14)

    def test_linear_in_duration_and_amplitude(self, eigen):
        p1 = SpinParameters(0.1, 1.0, 0.5, gamma=2.0, h_rf=0.3)
        p2 = SpinParameters(0.1, 1.0, 0.5, gamma=2.0, h_rf=0.6)
        a = flip_angle(p1, eigen, (3, 4), "Y", 0.2)
        assert flip_angle(p1, eigen, (3, 4), "Y", 0.4) == pytest.approx(2 * a, rel=1e-14)
        assert flip_angle(p2, eigen, (3, 4), "Y", 0.2) == pytest.approx(2 * a, rel=1e-14)

    def test_forbidden_transition(self, eigen):
        # (2, 3) connects the two states mixed out of {+3/2, -1/2}; its
        # transverse elements vanish identically
        p = SpinParameters(0.1, 1.0, 0.5, gamma=1.0, h_rf=0.1)
        with pytest.raises(ZeroMatrixElement):
            flip_angle(p, eigen, (2, 3), "Y", 1.0)

    def test_negative_duration(self, params, eigen):
        p = SpinParameters(0.1, 1.0, 0.5, h_rf=0.1)
        with pytest.raises(ValueError):
            flip_angle(p, eigen, (1, 2), "Y", -1.0)

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf])
    def test_non_finite_duration(self, eigen, duration):
        p = SpinParameters(0.1, 1.0, 0.5, h_rf=0.1)
        with pytest.raises(ValueError, match=r"^duration must be finite and >= 0, got"):
            flip_angle(p, eigen, (1, 2), "Y", duration)

    def test_overflowing_angle_refused(self, eigen):
        # a finite duration whose angle 2 T gamma h_rf |element| is inf
        p = SpinParameters(0.1, 1.0, 0.5, gamma=1.0, h_rf=1.0)
        with pytest.raises(ValueError, match=r"^duration 1e\+308 gives a flip angle beyond the float range$"):
            flip_angle(p, eigen, (1, 2), "Y", 1e308)


class TestSingleFrequency:
    def test_zero_flip_identity(self, eigen):
        v = single_frequency_propagator(eigen, (1, 2), "Y", 0.0, 0.0)
        assert np.array_equal(v, np.eye(4, dtype=complex))

    def test_cnot_r_form(self, eigen):
        v = single_frequency_propagator(eigen, (1, 2), "Y", 0.0, np.pi)
        assert np.max(np.abs(v - CNOT_R)) <= 1e-12

    def test_cnot_s_form(self, eigen):
        v = single_frequency_propagator(eigen, (1, 3), "Y", 0.0, np.pi)
        assert np.max(np.abs(v - CNOT_S)) <= 1e-12

    def test_unitary(self, eigen, rng):
        for _ in range(50):
            m = rng.integers(1, 4)
            n = rng.integers(m + 1, 5)
            v = single_frequency_propagator(
                eigen, (m, n), rng.choice(["X", "Y"]),
                rng.uniform(-np.pi, np.pi), rng.uniform(0, 4 * np.pi),
            )
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-13

    def test_flip_additivity(self, eigen, rng):
        for _ in range(20):
            f1, f2 = rng.uniform(0, 2 * np.pi, size=2)
            phase = rng.uniform(-np.pi, np.pi)
            va = single_frequency_propagator(eigen, (2, 4), "Y", phase, f1)
            vb = single_frequency_propagator(eigen, (2, 4), "Y", phase, f2)
            vc = single_frequency_propagator(eigen, (2, 4), "Y", phase, f1 + f2)
            assert np.max(np.abs(va @ vb - vc)) <= 1e-12

    def test_untouched_levels(self, eigen):
        v = single_frequency_propagator(eigen, (1, 3), "Y", 0.3, 1.1)
        for k in (2, 4):
            basis = np.zeros(4, dtype=complex)
            basis[k - 1] = 1.0
            assert np.max(np.abs(v @ basis - basis)) == 0.0

    def test_x_axis_is_phase_shift(self, eigen):
        phase = 0.77
        vx = single_frequency_propagator(eigen, (1, 2), "X", phase, 1.3)
        vy = single_frequency_propagator(eigen, (1, 2), "Y", phase - np.pi / 2, 1.3)
        assert np.array_equal(vx, vy)

    def test_spinor_sign(self, eigen):
        v = single_frequency_propagator(eigen, (1, 2), "Y", 0.0, 2 * np.pi)
        expected = np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex)
        assert np.max(np.abs(v - expected)) <= 1e-15


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    ("propagator", "lines", "angle"),
    [
        (single_frequency_propagator, ((1, 2),), "phase"),
        (single_frequency_propagator, ((1, 2),), "flip"),
        (two_frequency_propagator, ((1, 2), (3, 4)), "phase"),
        (two_frequency_propagator, ((1, 2), (3, 4)), "flip_a"),
        (two_frequency_propagator, ((1, 2), (3, 4)), "flip_b"),
    ],
)
def test_public_propagators_refuse_non_finite_angles(eigen, propagator, lines, angle, value):
    # refused by name, not returned as a nan matrix or math's "math domain error"
    with pytest.raises(ValueError, match=rf"^{angle} must be finite, got {value}$"):
        propagator(eigen, *lines, **{angle: value})


class TestPhysicsChecks:
    def test_selectivity_violation(self, eigen):
        # Omega(3,4) sits 0.2 rad/s from Omega(1,2); a Rabi rate above
        # 0.2/1e3 is no longer selective
        p = SpinParameters(0.1, 1.0, 0.5, gamma=1.0, h_rf=0.01)
        with pytest.raises(SelectivityViolation):
            single_frequency_propagator(eigen, (1, 2), "Y", 0.0, np.pi, params=p)

    def test_weak_drive_passes(self, eigen):
        p = SpinParameters(0.1, 1.0, 0.5, gamma=1.0, h_rf=1e-6)
        v = single_frequency_propagator(eigen, (1, 2), "Y", 0.0, np.pi, params=p)
        assert np.max(np.abs(v - CNOT_R)) <= 1e-12

    def test_forbidden_transition_in_physics_view(self, eigen):
        p = SpinParameters(0.1, 1.0, 0.5, gamma=1.0, h_rf=1e-6)
        with pytest.raises(ZeroMatrixElement):
            single_frequency_propagator(eigen, (2, 3), "Y", 0.0, np.pi, params=p)

    def test_compiler_view_skips_checks(self, eigen):
        # same pulse without a realization is an ideal flip-angle object
        v = single_frequency_propagator(eigen, (2, 3), "Y", 0.0, np.pi)
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-15


class TestTwoFrequency:
    def test_shared_level_rejected(self, eigen):
        with pytest.raises(SharedLevel):
            two_frequency_propagator(eigen, (1, 2), (2, 3))

    def test_zero_flips_identity(self, eigen):
        v = two_frequency_propagator(eigen, (1, 2), (3, 4), flip_a=0.0, flip_b=0.0)
        assert np.array_equal(v, np.eye(4, dtype=complex))

    def test_equal_flip_rotation_form(self, eigen):
        phi = 1.234
        v = two_frequency_propagator(eigen, (1, 2), (3, 4), flip_a=phi, flip_b=phi)
        expected = np.eye(4, dtype=complex) * np.cos(phi / 2) + (
            proj(2, 1) - proj(1, 2) + proj(4, 3) - proj(3, 4)
        ) * np.sin(phi / 2)
        assert np.max(np.abs(v - expected)) <= 1e-13

    def test_factor_order_irrelevant(self, eigen, rng):
        for _ in range(10):
            fa, fb = rng.uniform(0, 2 * np.pi, size=2)
            v1 = two_frequency_propagator(eigen, (1, 3), (2, 4), flip_a=fa, flip_b=fb)
            v2 = two_frequency_propagator(eigen, (2, 4), (1, 3), flip_a=fb, flip_b=fa)
            assert np.max(np.abs(v1 - v2)) <= 1e-13

    def test_matches_single_factor_product(self, eigen):
        va = single_frequency_propagator(eigen, (1, 3), "Y", 0.2, 0.9)
        vb = single_frequency_propagator(eigen, (2, 4), "Y", 0.2, 1.7)
        v = two_frequency_propagator(eigen, (1, 3), (2, 4), "Y", 0.2, 0.9, 1.7)
        assert np.max(np.abs(v - va @ vb)) <= 1e-13
        assert np.max(np.abs(v - vb @ va)) <= 1e-13

    def test_full_cover_spinor_sign(self, eigen):
        v2pi = two_frequency_propagator(
            eigen, (1, 2), (3, 4), flip_a=2 * np.pi, flip_b=2 * np.pi
        )
        assert np.max(np.abs(v2pi + np.eye(4))) <= 1e-15
        v4pi = two_frequency_propagator(
            eigen, (1, 2), (3, 4), flip_a=4 * np.pi, flip_b=4 * np.pi
        )
        assert np.max(np.abs(v4pi - np.eye(4))) <= 1e-15


class TestPulseSpec:
    def test_transition_normalized(self):
        s = PulseSpec(transition=(4, 2), axis="y", phase=0.0, flip=1.0)
        assert s.transition == (2, 4)
        assert s.axis == "Y"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PulseSpec(transition=(1, 1))
        with pytest.raises(ValueError):
            PulseSpec(transition=(0, 2))
        with pytest.raises(ValueError):
            PulseSpec(transition=(1, 2), flip=-0.1)
        with pytest.raises(ValueError):
            PulseSpec(transition=(1, 2), axis="Z")
        with pytest.raises(ValueError, match=r"^phase must be finite, got nan$"):
            PulseSpec(transition=(1, 2), phase=np.nan)

    def test_program_steps_validated(self, params):
        with pytest.raises(ValueError, match=r"^duration must be finite, got nan$"):
            FreeEvolutionStep(np.nan)
        with pytest.raises(TypeError, match=r"^unsupported program step "):
            PulseProgram(params, (PulseSpec((1, 2)),))

    def test_two_frequency_step_validation(self):
        a = PulseSpec(transition=(1, 2), flip=1.0)
        with pytest.raises(SharedLevel):
            TwoFrequencyStep(a=a, b=PulseSpec(transition=(2, 3), flip=1.0))
        with pytest.raises(ValueError):
            TwoFrequencyStep(a=a, b=PulseSpec(transition=(3, 4), flip=1.0, phase=0.5))


class TestApplyProgram:
    def test_empty_program(self, params, eigen):
        prog = PulseProgram(params=params, steps=())
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        out = apply_pulse_program(prog, rho, e=eigen)
        assert np.array_equal(out, rho)

    def test_cnot_fixes_ground_level(self, params, eigen):
        prog = PulseProgram(
            params=params,
            steps=(PulseStep(pulse=PulseSpec(transition=(1, 2), flip=np.pi)),),
        )
        rho = proj(4, 4)
        out = apply_pulse_program(prog, rho, e=eigen)
        assert np.max(np.abs(out - rho)) <= 1e-14

    def test_two_half_pulses_equal_one_pi(self, params, eigen):
        half = PulseStep(pulse=PulseSpec(transition=(1, 2), flip=np.pi / 2))
        prog = PulseProgram(params=params, steps=(half, half))
        v = program_propagator(prog, eigen)
        direct = single_frequency_propagator(eigen, (1, 2), "Y", 0.0, np.pi)
        assert np.max(np.abs(v - direct)) <= 1e-13

    def test_trace_and_purity_preserved(self, params, eigen, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        prog = PulseProgram(
            params=params,
            steps=(
                PulseStep(pulse=PulseSpec(transition=(1, 3), flip=1.1, phase=0.4)),
                TwoFrequencyStep(
                    a=PulseSpec(transition=(1, 2), flip=0.7),
                    b=PulseSpec(transition=(3, 4), flip=0.7),
                ),
                FreeEvolutionStep(duration=2.2),
            ),
        )
        out = apply_pulse_program(prog, rho, e=eigen)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(out @ out).real == pytest.approx(
            np.trace(rho @ rho).real, abs=1e-12
        )

    @pytest.mark.parametrize(
        "rho",
        [
            np.diag([0.5, 0.5, 0.1, -0.1]).astype(complex),  # negative eigenvalue
            np.diag([0.5, 0.5, 0.5, 0.5]).astype(complex),   # trace 2
            np.diag([1.0, 0, 0, 0]) + 0.1j * np.eye(4),      # non-Hermitian
            np.eye(3, dtype=complex) / 3,                     # not 4x4
        ],
    )
    def test_invalid_states_rejected(self, params, eigen, rho):
        prog = PulseProgram(params=params, steps=())
        with pytest.raises(InvalidState):
            apply_pulse_program(prog, rho, e=eigen)

    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_states_rejected(self, params, eigen, where, value):
        # nan compares False, so without its own guard it passes all three
        rho = np.eye(4, dtype=complex) / 4
        rho[where] = value
        prog = PulseProgram(params=params, steps=())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidState, match="non-finite"):
                apply_pulse_program(prog, rho, e=eigen)

    def test_eigensystem_defaults_to_the_closed_form(self, params, eigen):
        prog = PulseProgram(params, (PulseStep(PulseSpec((1, 3), flip=1.1, phase=0.4)),
                                     FreeEvolutionStep(2.2)))
        assert program_propagator(prog).tobytes() == program_propagator(prog, eigen).tobytes()

    def test_free_evolution_step(self, params, eigen):
        prog = PulseProgram(params=params, steps=(FreeEvolutionStep(duration=0.9),))
        v = program_propagator(prog, eigen)
        assert np.max(np.abs(v - free_evolution(eigen, 0.9))) == 0.0

    def test_include_free_evolution_composition(self, eigen):
        # with durations tracked, each pulse picks up D(T) on the left
        p = SpinParameters(0.1, 1.0, 0.5, gamma=1.0, h_rf=1e-6)
        pulse = PulseSpec(transition=(1, 2), flip=np.pi / 2)
        prog = PulseProgram(params=p, steps=(PulseStep(pulse=pulse),))
        v_bare = program_propagator(prog, eigen, include_free_evolution=False)
        v_full = program_propagator(prog, eigen, include_free_evolution=True)
        elem = abs(transition_matrix_element(eigen, (1, 2), "Y"))
        duration = (np.pi / 2) / (2 * p.gamma * p.h_rf * elem)
        expected = free_evolution(eigen, duration) @ v_bare
        assert np.max(np.abs(v_full - expected)) <= 1e-12


def test_physics_program_builds_the_transition_table_once(monkeypatch, params):
    # each of the rotation's two realized pulses checks selectivity, against
    # the eigensystem's one table, when compiled and again when propagated
    built = []
    table = spin_system.transition_table
    monkeypatch.setattr(spin_system, "transition_table", lambda e: built.append(e) or table(e))
    p = replace(params, h_rf=1e-5)
    e = closed_form_eigensystem(p)
    program, _ = compile_gate(e, p, GateRequest(kind="rotation", target="R", axis="X", angle=1.0))
    program_propagator(program, e)
    assert isinstance(program.steps[0], TwoFrequencyStep)
    assert len(built) == 1 and built[0] is e


# -- bytewise agreement with the single-pulse products -------------------------

DISJOINT = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
LINES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
FLIPS = (0.0, np.pi, 2 * np.pi, 3 * np.pi)
PHASES = (0.0, -0.0, np.pi, np.pi / 2, -np.pi / 2)
AXES = ("X", "Y")


def _single(line, axis, phase, flip):
    """The selective-pulse formula written out, as single_frequency_propagator states it."""
    m, n = line
    phi = float(phase) + {"Y": -0.0, "X": -np.pi / 2}[axis]
    half = float(flip) / 2.0
    v = np.eye(4, dtype=complex)
    v[m - 1, m - 1] = v[n - 1, n - 1] = math.cos(half)
    v[n - 1, m - 1] = cmath.exp(1j * phi) * math.sin(half)
    v[m - 1, n - 1] = -cmath.exp(-1j * phi) * math.sin(half)
    return v + 0.0  # no negative zero, as every step propagator


def _product_step(step, e, params, include_free_evolution):
    """A step's propagator as a product of single-pulse propagators."""
    if isinstance(step, FreeEvolutionStep):
        return free_evolution(e, step.duration)
    pulses = (step.pulse,) if isinstance(step, PulseStep) else (step.a, step.b)
    vs = [single_frequency_propagator(e, p.transition, p.axis, p.phase, p.flip, params) for p in pulses]
    v = vs[0] if len(vs) == 1 else vs[0] @ vs[1]
    if include_free_evolution:
        rate = 2.0 * params.gamma * params.h_rf
        t = [float(p.flip) / (rate * abs(transition_matrix_element(e, p.transition, p.axis))) for p in pulses]
        if abs(t[0] - t[-1]) > 1e-9 * max(*t, 1e-300):
            raise SemanticError("simultaneous pulses imply different durations")
        v = free_evolution(e, t[0]) @ v
    return v


def _product_program(prog, e, include_free_evolution):
    """A program's propagator as the product of its steps, chained from the identity."""
    total = np.eye(4, dtype=complex)
    for step in prog.steps:
        total = _product_step(step, e, prog.params, include_free_evolution) @ total
    return total


def _bytes(call, *args, **kwargs):
    """The bytes an array-valued call returns, or the type of what it raises."""
    try:
        return call(*args, **kwargs).tobytes()
    except (SelectivityViolation, ZeroMatrixElement, SemanticError, ValueError) as exc:
        return type(exc)


def _pick(rng, choices):
    return choices[int(rng.integers(len(choices)))]


def _random_step(rng):
    axis, phase = _pick(rng, AXES), _pick(rng, PHASES + (rng.uniform(-np.pi, np.pi),))
    kind = int(rng.integers(3))
    if kind == 0:
        return FreeEvolutionStep(_pick(rng, (0.0, rng.uniform(-3.0, 3.0))))
    flips = [_pick(rng, FLIPS + (rng.uniform(0.0, 4 * np.pi),)) for _ in range(2)]
    if kind == 1:
        return PulseStep(PulseSpec(_pick(rng, LINES), axis, phase, flips[0]))
    a, b = _pick(rng, DISJOINT)
    return TwoFrequencyStep(PulseSpec(a, axis, phase, flips[0]), PulseSpec(b, axis, phase, flips[1]))


class TestStepBytes:
    """Every step writes its rotation into one matrix, with the bytes (signed
    zeros included) of the single-pulse propagators multiplied from the identity."""

    VIEWS = (0.0, 1e-5)  # compiler view, physics view (some lines refused)

    @pytest.mark.parametrize("h_rf", VIEWS)
    def test_programs(self, params, eigen, rng, h_rf):
        p = replace(params, h_rf=h_rf)
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rho[0, 3] = rho[3, 0] = 0.05
        for _ in range(150):
            steps = tuple(_random_step(rng) for _ in range(int(rng.integers(1, 4))))
            prog = PulseProgram(params=p, steps=steps)
            for fe in (False, True) if h_rf else (False,):
                expected = _bytes(_product_program, prog, eigen, fe)
                assert _bytes(program_propagator, prog, eigen, fe) == expected, (steps, fe)
                for step in steps:
                    assert _bytes(step.propagator, eigen, p, fe) == _bytes(
                        lambda: _product_step(step, eigen, p, fe) @ np.eye(4)
                    ), (step, fe)
                if isinstance(expected, bytes):
                    v = _product_program(prog, eigen, fe)
                    out = apply_pulse_program(prog, rho, include_free_evolution=fe, e=eigen)
                    assert out.tobytes() == (v @ rho @ v.conj().T).tobytes()

    @pytest.mark.parametrize("h_rf", VIEWS)
    def test_compiled_gates(self, params, eigen, h_rf):
        p = replace(params, h_rf=h_rf)
        angles = (0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, np.pi / 2, -np.pi / 3, 1.1, -2.7)
        requests = [GateRequest(kind="cnot", target=t) for t in "RS"]
        requests += [GateRequest("rotation", t, axis, angle) for t in "RS" for axis in AXES for angle in angles]
        for request in requests:
            program, u = compile_gate(eigen, p, request)
            assert u.tobytes() == _product_program(program, eigen, False).tobytes(), request

    def test_two_frequency_propagator(self, eigen, rng):
        for (a, b) in DISJOINT:
            for axis in AXES:
                for phase in PHASES + (rng.uniform(-np.pi, np.pi),):
                    for fa in FLIPS + (-np.pi, rng.uniform(0.0, 4 * np.pi)):
                        fb = _pick(rng, FLIPS)
                        va = single_frequency_propagator(eigen, a, axis, phase, fa)
                        vb = single_frequency_propagator(eigen, b, axis, phase, fb)
                        v = two_frequency_propagator(eigen, b[::-1], a, axis.lower(), phase, fb, fa)
                        assert v.tobytes() == (vb @ va).tobytes() == (va @ vb).tobytes()

    def test_single_frequency_propagator(self, eigen, rng):
        for line in LINES:
            for axis in AXES:
                for phase in PHASES + (rng.uniform(-np.pi, np.pi),):
                    for flip in FLIPS + (-np.pi, rng.uniform(0.0, 4 * np.pi)):
                        v = single_frequency_propagator(eigen, line[::-1], axis.lower(), phase, flip)
                        assert v.tobytes() == _single(line, axis, phase, flip).tobytes()


def test_shared_level_message_is_one_rule(eigen):
    # the propagator and the compiled step refuse shared levels in the same words
    with pytest.raises(SharedLevel) as direct:
        two_frequency_propagator(eigen, (2, 1), (3, 2))
    with pytest.raises(SharedLevel) as step:
        TwoFrequencyStep(PulseSpec((2, 1)), PulseSpec((3, 2)))
    assert str(direct.value) == str(step.value) == "simultaneous pulses share levels: (1, 2) and (2, 3)"


def test_compiled_step_is_not_rechecked(monkeypatch, params, eigen):
    # a TwoFrequencyStep checks its lines once, when it is built
    from vspin import pulse_engine

    program, _ = compile_gate(eigen, params, GateRequest(kind="rotation", target="S", angle=0.4))
    calls = []
    check = pulse_engine._check_disjoint
    monkeypatch.setattr(pulse_engine, "_check_disjoint", lambda a, b: calls.append((a, b)) or check(a, b))
    program_propagator(program, eigen)
    assert calls == []
