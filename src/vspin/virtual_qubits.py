"""Two virtual qubits inside one spin-3/2 and the gate-to-pulse compiler.

The four levels factor as a tensor product of two abstract two-level
systems R and S:

    level 1 = |11>,  level 2 = |10>,  level 3 = |01>,  level 4 = |00>

with the first character the R bit and the second the S bit (bit value 1
corresponds to factor index 1).  Elementary operators embed by index
arithmetic alone:

    R_kl (x) S_mn = P_{2k-2+m, 2l-2+n}

so R addresses the level pairs {(1,3), (2,4)} and S addresses
{(1,2), (3,4)}.  A Y rotation of S by angle phi is one simultaneous
two-frequency pulse with equal flips phi on (1,2) and (3,4); swapping the
pairs rotates R.  A controlled NOT needs just a single pi pulse:
transition (1,2) flips S only when R is 1, and transition (1,3) flips R
only when S is 1.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .operator_algebra import Projector
from .pulse_engine import (
    PulseProgram,
    PulseSpec,
    PulseStep,
    TwoFrequencyStep,
    _normalize_axis,
    program_propagator,
)
from .spin_system import EigenSystem, SpinParameters, _level

__all__ = [
    "LEVEL_TO_BITS",
    "level_to_bits",
    "bits_to_level",
    "embed_tensor_projector",
    "virtual_spin_components",
    "GateRequest",
    "compile_single_qubit_rotation",
    "compile_cnot",
    "compile_gate",
    "TruthTableRow",
    "truth_table",
    "format_truth_table",
]

LEVEL_TO_BITS = {1: "11", 2: "10", 3: "01", 4: "00"}
_BITS_TO_LEVEL = {bits: level for level, bits in LEVEL_TO_BITS.items()}

# Transition pairs addressed by each virtual spin (equal-flip simultaneous
# drive rotates that spin and leaves the other one untouched).
ROTATION_PAIRS = {"S": ((1, 2), (3, 4)), "R": ((1, 3), (2, 4))}
CNOT_TRANSITION = {"R": (1, 2), "S": (1, 3)}
# Truth tables read amplitudes within UNIT_TOL of 0, of modulus 1 or of +-1 as exact.
UNIT_TOL = 1e-10


def level_to_bits(m) -> str:
    """Bit string of level m; first character is the R bit."""
    return LEVEL_TO_BITS[_level(m)]


def bits_to_level(bits) -> int:
    """Inverse of :func:`level_to_bits`; only the strings 00, 01, 10 and 11 are bit strings."""
    if isinstance(bits, str) and bits in _BITS_TO_LEVEL:
        return _BITS_TO_LEVEL[bits]
    raise IndexOutOfRange(f"bit string must be one of 00, 01, 10, 11, got {bits!r}")


def _check_factor_index(*indices):
    for k in indices:
        if not (isinstance(k, (int, np.integer)) and k in (1, 2)):
            raise IndexOutOfRange(f"virtual-spin index must be 1 or 2, got {k!r}")


def embed_tensor_projector(r_indices, s_indices) -> Projector:
    """R_kl (x) S_mn as the level projector P_{2k-2+m, 2l-2+n}."""
    k, l = r_indices
    m, n = s_indices
    _check_factor_index(k, l, m, n)
    return Projector(2 * k - 2 + m, 2 * l - 2 + n)


def virtual_spin_components() -> dict:
    """Embedded spin-1/2 components of both virtual spins.

    Each component is the usual Pauli/2 operator of its factor tensored
    with identity on the other factor, e.g. Sy = i (S21 - S12) / 2 and
    Rz = (R11 - R22) / 2.  Components of different spins commute and each
    squares to 1/4.
    """
    identity = np.eye(2, dtype=complex)
    half = {
        "x": np.array([[0.0, 0.5], [0.5, 0.0]]),
        "y": np.array([[0.0, -0.5j], [0.5j, 0.0]]),
        "z": np.array([[0.5, 0.0], [0.0, -0.5]]),
    }
    out = {}
    for axis, pauli in half.items():
        # R_kl (x) S_mn is P_{2k-2+m, 2l-2+n}, the Kronecker product's entry; + 0.0 clears negative zeros
        out["R" + axis] = np.kron(pauli, identity) + 0.0
        out["S" + axis] = np.kron(identity, pauli) + 0.0
    return out


@dataclass(frozen=True)
class GateRequest:
    """A gate to compile: kind "rotation" (axis + angle) or "cnot".

    ``target`` names the rotated spin for rotations and the control spin
    for CNOT.
    """

    kind: str
    target: str
    axis: str = "Y"
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in ("rotation", "cnot"):
            raise ValueError(f"kind must be rotation or cnot, got {self.kind!r}")
        if self.target not in ("R", "S"):
            raise ValueError(f"target must be R or S, got {self.target!r}")
        if self.kind == "rotation":
            if self.angle is None or not np.isfinite(self.angle):
                raise ValueError("rotation needs a finite angle")
            _normalize_axis(self.axis)


def compile_single_qubit_rotation(
    e: EigenSystem,
    params: SpinParameters,
    target,
    angle,
    axis="Y",
):
    """Rotation exp(-i angle G) of one virtual spin, G its axis component.

    Returns (program, unitary): one simultaneous two-frequency step with
    equal flips on the target's transition pair, and the resulting
    eigenbasis propagator.  Negative angles compile as positive flips with
    the phase advanced by pi.
    """
    if target not in ROTATION_PAIRS:
        raise ValueError(f"target must be R or S, got {target!r}")
    angle = float(angle)
    flip = abs(angle)
    phase = 0.0 if angle >= 0.0 else np.pi
    pair_a, pair_b = ROTATION_PAIRS[target]
    step = TwoFrequencyStep(
        a=PulseSpec(transition=pair_a, axis=axis, phase=phase, flip=flip),
        b=PulseSpec(transition=pair_b, axis=axis, phase=phase, flip=flip),
    )
    program = PulseProgram(params=params, steps=(step,))
    return program, program_propagator(program, e)


def compile_cnot(e: EigenSystem, params: SpinParameters, control):
    """Controlled NOT as a single resonant pi pulse.

    control = "R": pi pulse on (1, 2), the operator
    R11 (x) (S21 - S12) + R22 (x) 1S; control = "S": pi pulse on (1, 3),
    the operator 1R (x) S22 + (R21 - R12) (x) S11.
    """
    if control not in CNOT_TRANSITION:
        raise ValueError(f"control must be R or S, got {control!r}")
    step = PulseStep(
        pulse=PulseSpec(transition=CNOT_TRANSITION[control], axis="Y", phase=0.0, flip=np.pi)
    )
    program = PulseProgram(params=params, steps=(step,))
    return program, program_propagator(program, e)


def compile_gate(e: EigenSystem, params: SpinParameters, request: GateRequest):
    """Dispatch a GateRequest to the rotation or CNOT compiler."""
    if request.kind == "rotation":
        return compile_single_qubit_rotation(
            e, params, request.target, request.angle, request.axis
        )
    return compile_cnot(e, params, request.target)


@dataclass(frozen=True)
class TruthTableRow:
    """Action of a unitary on one basis level.

    output_bits is None when the image is a genuine superposition;
    otherwise ``phase`` is the amplitude on the image ket, normalized so
    the first basis-preserving row has phase +1 (this makes the table
    invariant under a global phase on the unitary).
    """

    input_bits: str
    output_bits: str | None
    phase: complex | None

    @property
    def is_basis(self):
        return self.output_bits is not None


def truth_table(u):
    """Classify U's action on the four basis kets.

    A column counts as a basis ket when all but its largest amplitude are
    below UNIT_TOL and that one is of modulus 1 to UNIT_TOL; the surviving
    amplitude's phase is reported relative to the first such row.
    ValueError unless U is a finite 4x4 matrix.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"truth table needs a 4x4 matrix, got shape {u.shape}")
    mags = np.abs(u)
    peaks = mags.argmax(axis=0)
    mags[peaks, range(4)] = 0.0  # so the column maxima are the off-peak ones
    raw = []
    for level, k, rest in zip(range(1, 5), peaks.tolist(), mags.max(axis=0).tolist()):
        amp = complex(u[k, level - 1])
        if not cmath.isfinite(amp):  # argmax picks a column's first nan, else its inf
            raise ValueError(f"truth table needs a finite matrix, got {amp} in column {level}")
        if rest <= UNIT_TOL and abs(abs(amp) - 1.0) <= UNIT_TOL:
            raw.append((level_to_bits(level), level_to_bits(k + 1), amp))
        else:
            raw.append((level_to_bits(level), None, None))
    reference = next((amp for _, out, amp in raw if out is not None), None)
    rows = []
    for input_bits, output_bits, amp in raw:
        if output_bits is None:
            rows.append(TruthTableRow(input_bits, None, None))
        else:
            normalized = amp / (reference / abs(reference))
            rows.append(TruthTableRow(input_bits, output_bits, complex(normalized)))
    return rows


def _phase_prefix(phase):
    if abs(phase - 1.0) <= UNIT_TOL:
        return ""
    if abs(phase + 1.0) <= UNIT_TOL:
        return "-"
    return f"exp(i{float(np.angle(phase)):.6g})*"


def format_truth_table(rows) -> str:
    """Render rows as ``|bb> -> [sign]|bb'>`` lines."""
    lines = []
    for row in rows:
        if row.is_basis:
            lines.append(f"|{row.input_bits}> -> {_phase_prefix(row.phase)}|{row.output_bits}>")
        else:
            lines.append(f"|{row.input_bits}> -> superposition")
    return "\n".join(lines)
