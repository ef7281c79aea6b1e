"""Projective-operator algebra in the eigenbasis.

P_mn = |psi_m><psi_n| is the elementary matrix with a single 1 at row m,
column n once everything is written in the eigenbasis, and products obey
P_kl P_mn = delta_lm P_kn.  All pulse-level algebra downstream is carried
out in this representation; transformation to and from the |chi> basis
happens only at construction and display.
"""

from dataclasses import dataclass

import numpy as np

from .spin_system import EigenSystem, _level

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


@dataclass(frozen=True)
class Projector:
    """|psi_m><psi_n| as an eigenbasis elementary matrix; m, n levels, stored as ints."""

    m: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "m", _level(self.m))
        object.__setattr__(self, "n", _level(self.n))

    @property
    def matrix(self):
        p = np.zeros((4, 4), dtype=complex)
        p[self.m - 1, self.n - 1] = 1.0
        return p

    @property
    def adjoint(self):
        return Projector(self.n, self.m)


projector = Projector  # P_mn, by the factory name the API keeps


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
    return np.diag(_free_phases(e, t))


def _free_phases(e: EigenSystem, t):
    """The diagonal exp(-i eps_m t) of D(t), with free_evolution's refusals."""
    if not np.isfinite(t):
        raise ValueError(f"duration must be finite, got {t}")
    with np.errstate(over="ignore"):  # an overflowing phase is refused below
        phases = e.energies * float(t)
    if not np.isfinite(phases).all():
        raise ValueError(f"free evolution over duration {t} overflows its phases")
    return np.exp(-1j * phases)


@dataclass(frozen=True)
class SelectionRules:
    """Eigenbasis matrix elements of a spin component with a drivable mask."""

    elements: np.ndarray
    mask: np.ndarray

    def allowed(self, m, n):
        return bool(self.mask[_level(m) - 1, _level(n) - 1])


def selection_rules(e: EigenSystem, axis) -> SelectionRules:
    """Which level pairs a given spin component connects.

    ``axis`` is X, Y or Z, in any case.  A pair counts as connected when its
    element passes the drivability rule, |element| >= DRIVABLE_THRESHOLD,
    the rule that also decides whether a pulse on that line is realizable.
    """
    elements = e.axis_operator(axis)
    return SelectionRules(elements=elements, mask=drivable(elements))
