"""vspin: two virtual qubits on a driven spin-3/2 quadrupole system.

The four energy levels of a single spin-3/2 nucleus in a crystal field act
as a pair of logical qubits.  This package builds the labeled eigensystem,
compiles quantum gates (single-qubit rotations, CNOT) into
transition-selective RF pulse programs, prepares pseudo-pure input states
by temporal averaging, and validates every rotating-wave propagator
against a brute-force lab-frame integrator.

The package namespace is the union of the library modules' ``__all__``.
"""

from .errors import *
from .lab_frame import *
from .operator_algebra import *
from .pulse_engine import *
from .spin_system import *
from .state_prep import *
from .textio import *
from .virtual_qubits import *

__version__ = "0.1.0"
