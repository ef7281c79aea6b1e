"""Projective-operator algebra in the eigenbasis.

P_mn = |psi_m><psi_n| is the elementary matrix with a single 1 at row m,
column n once everything is written in the eigenbasis, and products obey
P_kl P_mn = delta_lm P_kn.  All pulse-level algebra downstream is carried
out in this representation; transformation to and from the |chi> basis
happens only at construction and display.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange
from .spin_system import EigenSystem, spin_operators

__all__ = [
    "Projector",
    "projector",
    "projector_product",
    "OperatorExpansion",
    "expand_in_eigenbasis",
    "free_evolution",
    "SelectionRules",
    "selection_rules",
]


DRIVABLE_THRESHOLD = 1e-14


def drivable(element):
    """Whether |<psi_m| I_axis |psi_n>| >= DRIVABLE_THRESHOLD, elementwise on arrays."""
    return abs(element) >= DRIVABLE_THRESHOLD


def _check_level(*levels):
    for m in levels:
        if not (isinstance(m, (int, np.integer)) and 1 <= m <= 4):
            raise IndexOutOfRange(f"level index must be in 1..4, got {m!r}")


@dataclass(frozen=True)
class Projector:
    """|psi_m><psi_n| as an eigenbasis elementary matrix."""

    m: int
    n: int

    def __post_init__(self):
        _check_level(self.m, self.n)

    @property
    def matrix(self):
        p = np.zeros((4, 4), dtype=complex)
        p[self.m - 1, self.n - 1] = 1.0
        return p

    @property
    def adjoint(self):
        return Projector(self.n, self.m)


def projector(m, n) -> Projector:
    """P_mn with m, n in 1..4."""
    return Projector(int(m), int(n))


def projector_product(a: Projector, b: Projector) -> np.ndarray:
    """P_kl P_mn = delta_lm P_kn (zero matrix when l != m)."""
    if a.n != b.m:
        return np.zeros((4, 4), dtype=complex)
    return Projector(a.m, b.n).matrix


@dataclass(frozen=True)
class OperatorExpansion:
    """Coefficients c_mn = <psi_m| A |psi_n> of A = sum c_mn P_mn."""

    coefficients: np.ndarray

    def matrix_lab(self, e: EigenSystem):
        """The same operator back in the |chi> basis."""
        return e.from_eigen(self.coefficients)


def expand_in_eigenbasis(operator, e: EigenSystem) -> OperatorExpansion:
    """Expand a |chi>-basis operator over the projectors P_mn."""
    return OperatorExpansion(coefficients=e.to_eigen(operator))


def free_evolution(e: EigenSystem, t) -> np.ndarray:
    """D(t) = sum_m P_mm exp(-i eps_m t), diagonal in the eigenbasis.

    Raises ValueError when t or a phase eps_m t is not finite.
    """
    if not np.isfinite(t):
        raise ValueError(f"duration must be finite, got {t}")
    with np.errstate(over="ignore"):  # an overflowing phase is refused below
        phases = e.energies * float(t)
    if not np.isfinite(phases).all():
        raise ValueError(f"free evolution over duration {t} overflows its phases")
    return np.diag(np.exp(-1j * phases))


@dataclass(frozen=True)
class SelectionRules:
    """Eigenbasis matrix elements of a spin component with a drivable mask."""

    elements: np.ndarray
    mask: np.ndarray

    def allowed(self, m, n):
        _check_level(m, n)
        return bool(self.mask[m - 1, n - 1])


def selection_rules(e: EigenSystem, axis) -> SelectionRules:
    """Which level pairs a given spin component connects.

    ``axis`` is "X", "Y" or "Z".  A pair counts as connected when its
    element passes the drivability rule, |element| >= DRIVABLE_THRESHOLD,
    the rule that also decides whether a pulse on that line is realizable.
    """
    ops = dict(zip("XYZ", spin_operators()))
    key = str(axis).upper()
    if key not in ops:
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    elements = e.to_eigen(ops[key])
    return SelectionRules(elements=elements, mask=drivable(elements))
