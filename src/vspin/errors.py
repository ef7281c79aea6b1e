"""Exception types raised by the vspin library.

Numeric-contract violations (degeneracies, selectivity clashes, bad states)
are distinct from text-format problems (program syntax, density-matrix
parsing) so that callers can map them to different failure modes.
"""

__all__ = [
    "VspinError", "DegenerateSpectrum", "NotHermitian", "IndexOutOfRange",
    "ZeroMatrixElement", "SelectivityViolation", "SharedLevel", "InvalidState",
    "NotDiagonal", "RegimeViolation", "NotPositive", "StepTooLarge",
    "ProgramError", "ProgramSyntaxError", "SemanticError", "ParseError",
]


class VspinError(Exception):
    """Base class for all library errors."""


class DegenerateSpectrum(VspinError):
    """Two energies coincide within tolerance; level labeling is undefined.

    Carries the computed energies (descending) in ``energies``.
    """

    def __init__(self, message, energies=None):
        super().__init__(message)
        self.energies = energies


class NotHermitian(VspinError):
    """Operator expected to be Hermitian is not, beyond tolerance."""


class IndexOutOfRange(VspinError):
    """Level or virtual-spin index outside its valid range."""


class ZeroMatrixElement(VspinError):
    """Transition has a vanishing drive matrix element and cannot be excited."""


class SelectivityViolation(VspinError):
    """Another transition frequency lies within the selectivity margin."""


class SharedLevel(VspinError):
    """Simultaneous two-frequency pulses must act on level-disjoint pairs."""


class InvalidState(VspinError):
    """Density matrix fails Hermiticity, unit trace, or positivity checks."""


class NotDiagonal(VspinError):
    """Operation requires a density matrix diagonal in the eigenbasis."""


class RegimeViolation(VspinError):
    """High-temperature expansion requested outside its validity regime."""


class NotPositive(VspinError):
    """Requested density matrix would have a negative eigenvalue."""


class StepTooLarge(VspinError):
    """A lab-frame step needs too many squarings, or the propagator product overflows."""


class ProgramError(VspinError):
    """Base class for pulse-program text problems."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


class ProgramSyntaxError(ProgramError):
    """Pulse-program line does not match the grammar."""


class SemanticError(ProgramError):
    """Pulse program parses but violates a structural constraint."""


class ParseError(VspinError):
    """Malformed density-matrix text."""
