"""Rotating-wave propagators for transition-selective RF pulses.

A resonant pulse on the level pair (m, n), m < n (so eps_m > eps_n), with
phase phi and flip angle phi_y acts as identity on the two untouched levels
and rotates the driven two-level subspace:

    V_Y(Omega_mn; phi, phi_y) = P_kk + P_ll
                                + (P_mm + P_nn) cos(phi_y / 2)
                                + (P_nm e^{i phi} - P_mn e^{-i phi}) sin(phi_y / 2)

The X-axis version is the same operator with phi replaced by phi - pi/2,
stated once in ``AXIS_SHIFT`` for this module and the lab-frame drive.
The sin-term orientation is pinned so that (Omega_12, Y, phi = 0,
phi_y = pi) produces P_33 + P_44 + P_21 - P_12, the controlled-NOT form.

Two views of a pulse coexist:

* compiler view - the pulse is an ideal flip-angle object; any level pair
  may be addressed and no realizability checks run.  This is the view in
  which the gate algebra lives (params absent, or params.h_rf == 0).
* physics view - the pulse must actually be drivable: its transition needs
  a nonzero matrix element of the axis operator, and its Rabi rate
  gamma * h_rf * |element| must be small against the distance to every
  other transition frequency (selectivity).  Enabled by passing
  SpinParameters with h_rf > 0.

The split is forced by the level structure itself: the asymmetry term mixes
two fixed pairs of |chi> states, so in every parameter regime exactly two
of the six level pairs have identically vanishing Ix/Iy elements, yet their
ideal propagators are still perfectly well-defined matrices.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidState,
    SelectivityViolation,
    SemanticError,
    SharedLevel,
    ZeroMatrixElement,
)
from .operator_algebra import drivable, free_evolution
from .spin_system import (
    EigenSystem,
    SpinParameters,
    _normalize_transition,
    closed_form_eigensystem,
)

__all__ = [
    "PulseSpec",
    "PulseStep",
    "TwoFrequencyStep",
    "FreeEvolutionStep",
    "PulseProgram",
    "transition_matrix_element",
    "flip_angle",
    "single_frequency_propagator",
    "two_frequency_propagator",
    "program_propagator",
    "apply_pulse_program",
]

# A realized pulse is selective iff every other line is more than
# SELECTIVITY_FACTOR Rabi rates away.
SELECTIVITY_FACTOR = 1e3
# A density matrix must be Hermitian, of unit trace and PSD to STATE_TOL.
STATE_TOL = 1e-12
# Simultaneous pulses must imply durations equal to DURATION_TOL, relative.
DURATION_TOL = 1e-9
# An X pulse is the Y pulse at phase - pi/2; x + -0.0 is x for every float x.
AXIS_SHIFT = {"Y": -0.0, "X": -math.pi / 2.0}

_IDENTITY = np.eye(4, dtype=complex)
_IDENTITY.flags.writeable = False


def _check_finite(name, value):
    """ValueError naming the value unless it is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_flip(flip):
    """ValueError naming the flip unless it is finite and >= 0."""
    if not (math.isfinite(flip) and flip >= 0.0):
        raise ValueError(f"flip must be finite and >= 0, got {flip}")


def _normalize_axis(axis):
    key = str(axis).upper()
    if key not in AXIS_SHIFT:
        raise ValueError(f"axis must be X or Y, got {axis!r}")
    return key


@dataclass(frozen=True)
class PulseSpec:
    """One transition-selective pulse.

    transition  a line (m, n) in either order, stored with m < n
    axis        "X" or "Y" (RF field direction)
    phase       phi, radians
    flip        phi_y >= 0, radians, never wrapped (the overall sign flip
                at 2 pi is physical spinor behavior)
    """

    transition: tuple
    axis: str = "Y"
    phase: float = 0.0
    flip: float = np.pi

    def __post_init__(self):
        object.__setattr__(self, "transition", _normalize_transition(self.transition))
        object.__setattr__(self, "axis", _normalize_axis(self.axis))
        _check_finite("phase", self.phase)
        _check_flip(self.flip)


@dataclass(frozen=True)
class PulseStep:
    pulse: PulseSpec

    def propagator(self, e, params, include_free_evolution):
        """The pulse's propagator, then its free evolution when asked for."""
        p = self.pulse
        v = _rotation(e, params, p.axis, p.phase, (p.transition, p.flip))
        if include_free_evolution:
            v = free_evolution(e, _pulse_length(params, e, p.transition, p.axis, p.flip)) @ v
        return v


@dataclass(frozen=True)
class TwoFrequencyStep:
    """Two simultaneous pulses on level-disjoint transitions."""

    a: PulseSpec
    b: PulseSpec

    def __post_init__(self):
        _check_disjoint(self.a.transition, self.b.transition)
        if self.a.axis != self.b.axis or self.a.phase != self.b.phase:
            raise ValueError("simultaneous pulses must share axis and phase")

    def propagator(self, e, params, include_free_evolution):
        """Both pulses' propagator, then their common free evolution when asked for."""
        a, b = self.a, self.b
        v = _rotation(e, params, a.axis, a.phase, (a.transition, a.flip), (b.transition, b.flip))
        if include_free_evolution:
            ta = _pulse_length(params, e, a.transition, a.axis, a.flip)
            tb = _pulse_length(params, e, b.transition, b.axis, b.flip)
            if abs(ta - tb) > DURATION_TOL * max(ta, tb, 1e-300):
                raise SemanticError(
                    f"simultaneous pulses imply different durations ({ta:.6g} vs {tb:.6g})"
                )
            v = free_evolution(e, ta) @ v
        return v


@dataclass(frozen=True)
class FreeEvolutionStep:
    duration: float

    def __post_init__(self):
        _check_finite("duration", self.duration)

    def propagator(self, e, params, include_free_evolution):
        """Free evolution over the duration."""
        return free_evolution(e, self.duration) + 0.0  # a step holds no negative zero (see _rotation)


@dataclass(frozen=True)
class PulseProgram:
    """Ordered pulse steps with their physical context."""

    params: SpinParameters
    steps: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not isinstance(step, (PulseStep, TwoFrequencyStep, FreeEvolutionStep)):
                raise TypeError(f"unsupported program step {step!r}")


def transition_matrix_element(e: EigenSystem, transition, axis="Y"):
    """<psi_m| I_axis |psi_n> for the (lower-label, higher-label) pair."""
    m, n = _normalize_transition(transition)
    return complex(e.axis_operator(_normalize_axis(axis))[m - 1, n - 1])


def _drivable_element(e: EigenSystem, line, axis):
    """The drive matrix element of a checked line; ZeroMatrixElement if it is forbidden."""
    m, n = line
    element = complex(e.axis_operator(axis)[m - 1, n - 1])
    if not drivable(element):
        raise ZeroMatrixElement(f"transition {line} has |<I_{axis}>| = {abs(element):.2e}; undrivable")
    return element


def _pulse_length(params: SpinParameters, e: EigenSystem, line, axis, flip):
    """Duration T = flip / (A |element|), A = 2 gamma h_rf, of a checked line; checks h_rf > 0, then
    drivability, then that A and T are finite and A |element| > 0 (gamma h_rf may underflow to 0)."""
    if params.h_rf <= 0.0:
        raise ValueError("h_rf must be > 0 to realize a pulse")
    element = _drivable_element(e, line, axis)
    amplitude = 2.0 * params.gamma * params.h_rf
    rate = amplitude * abs(element)
    if not (math.isfinite(amplitude) and rate > 0.0 and math.isfinite(duration := float(flip) / rate)):
        raise ValueError(f"pulse on {line} is unrealizable: drive amplitude {amplitude:.6g}, flip {flip:.6g}")
    return duration


def flip_angle(p: SpinParameters, e: EigenSystem, transition, axis, duration):
    """phi_y = 2 * duration * gamma * h_rf * |<psi_n| I_axis |psi_m>|.

    Linear in duration and in h_rf.  Raises ZeroMatrixElement when the
    transition is forbidden (|element| < DRIVABLE_THRESHOLD): nothing drives
    it; ValueError when the angle overflows.
    """
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    element = _drivable_element(e, _normalize_transition(transition), _normalize_axis(axis))
    if not math.isfinite(angle := 2.0 * float(duration) * p.gamma * p.h_rf * abs(element)):
        raise ValueError(f"duration {duration} gives a flip angle beyond the float range")
    return angle


def _check_physics(e, line, axis, params):
    """Drivability and selectivity preconditions of a realized pulse on a checked line."""
    m, n = line
    rabi = params.gamma * params.h_rf * abs(_drivable_element(e, line, axis))
    table = e.transitions
    gap, (p, q) = table._nearest(line)
    if gap <= SELECTIVITY_FACTOR * rabi:
        raise SelectivityViolation(
            f"Omega({m},{n}) = {table._omegas[line]:.6g} is within"
            f" {SELECTIVITY_FACTOR:g} Rabi rates ({SELECTIVITY_FACTOR * rabi:.3g})"
            f" of Omega({p},{q}) = {table._omegas[p, q]:.6g}"
        )


def _check_disjoint(a, b):
    """SharedLevel unless the checked lines a and b of simultaneous pulses are level-disjoint."""
    if set(a) & set(b):
        raise SharedLevel(f"simultaneous pulses share levels: {a} and {b}")


def _rotation(e, params, axis, phase, *blocks):
    """Propagator of simultaneous pulses: one (checked line, flip) block each, on disjoint lines.

    The one writer of V_Y: cos(flip / 2) at (m, m) and (n, n), e^{i phi} sin(flip / 2)
    at (n, m) and -e^{-i phi} sin(flip / 2) at (m, n), phi the phase plus the axis shift.
    Runs the physics checks of each line in turn when params.h_rf > 0.
    Every block is written into one matrix, and no entry is a negative
    zero, so the bytes are those of the single-pulse propagators
    multiplied together from the identity.
    """
    physics = params is not None and params.h_rf > 0.0
    phi = float(phase) + AXIS_SHIFT[axis]
    v = _IDENTITY.copy()
    for (m, n), flip in blocks:
        if physics:
            _check_physics(e, (m, n), axis, params)
        s = math.sin(half := float(flip) / 2.0)
        v[m - 1, m - 1] = v[n - 1, n - 1] = math.cos(half)
        v[n - 1, m - 1] = cmath.exp(1j * phi) * s
        v[m - 1, n - 1] = -cmath.exp(-1j * phi) * s
    v += 0.0  # -0.0 + 0.0 is +0.0; every other entry is unchanged
    return v


def single_frequency_propagator(
    e: EigenSystem,
    transition,
    axis="Y",
    phase=0.0,
    flip=np.pi,
    params: SpinParameters | None = None,
) -> np.ndarray:
    """Effective propagator of one selective pulse, in the eigenbasis.

    With params given and params.h_rf > 0, the physics-view checks run
    (ZeroMatrixElement, SelectivityViolation); otherwise the pulse is an
    ideal compiler-view object.  ValueError for a non-finite phase or flip.
    """
    line = _normalize_transition(transition)
    axis = _normalize_axis(axis)
    _check_finite("phase", phase)
    _check_finite("flip", flip)
    return _rotation(e, params, axis, phase, (line, flip))


def two_frequency_propagator(
    e: EigenSystem,
    pair_a,
    pair_b,
    axis="Y",
    phase=0.0,
    flip_a=np.pi,
    flip_b=np.pi,
    params: SpinParameters | None = None,
) -> np.ndarray:
    """Simultaneous excitation of two level-disjoint transitions.

    The factors commute, so this equals the product of the two
    single-frequency propagators in either order.  ValueError for a
    non-finite phase or flip.
    """
    a, b = _normalize_transition(pair_a), _normalize_transition(pair_b)
    _check_disjoint(a, b)
    for name, angle in (("phase", phase), ("flip_a", flip_a), ("flip_b", flip_b)):
        _check_finite(name, angle)
    return _rotation(e, params, _normalize_axis(axis), phase, (a, flip_a), (b, flip_b))


def program_propagator(
    prog: PulseProgram,
    e: EigenSystem | None = None,
    include_free_evolution=False,
) -> np.ndarray:
    """Ordered product of all step propagators (later steps on the left)."""
    if e is None:
        e = closed_form_eigensystem(prog.params)
    if not prog.steps:
        return _IDENTITY.copy()
    first, *rest = prog.steps
    total = first.propagator(e, prog.params, include_free_evolution)
    for step in rest:
        total = step.propagator(e, prog.params, include_free_evolution) @ total
    return total


def _check_density_matrix(rho):
    r = np.asarray(rho, dtype=complex)
    if r.shape != (4, 4):
        raise InvalidState(f"density matrix must be 4x4, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise InvalidState("density matrix has a non-finite entry")
    r_h = r.conj().T
    if abs(r - r_h).max() > STATE_TOL:
        raise InvalidState(f"density matrix is not Hermitian to {STATE_TOL:g}")
    trace = complex(r.trace())
    if abs(trace.real - 1.0) > STATE_TOL or abs(trace.imag) > STATE_TOL:
        raise InvalidState(f"density matrix trace is {trace:.15g}, expected 1")
    low = np.linalg.eigvalsh((r + r_h) / 2.0).min()
    if low < -STATE_TOL:
        raise InvalidState(f"density matrix has eigenvalue {low:.3e} < {-STATE_TOL:g}")
    return r


def apply_pulse_program(
    prog: PulseProgram,
    rho0,
    include_free_evolution=False,
    e: EigenSystem | None = None,
) -> np.ndarray:
    """rho_out = V rho0 V^dagger with V the full program propagator.

    rho0 is an eigenbasis density matrix (Hermitian, unit trace, PSD to
    STATE_TOL = 1e-12).  Trace and purity are preserved because V is unitary.
    """
    rho = _check_density_matrix(rho0)
    v = program_propagator(prog, e, include_free_evolution)
    return v @ rho @ v.conj().T
