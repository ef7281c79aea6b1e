"""Static spin-3/2 system: Hamiltonian, labeled eigensystem, transitions.

A nucleus with spin I = 3/2 sits in a constant magnetic field (Zeeman
angular frequency ``omega0``) and a crystal electric-field gradient
(quadrupole angular frequency ``omegaQ``, asymmetry ``eta``).  With hbar = 1
the static Hamiltonian in angular-frequency units is

    H0 = -omega0 * Iz + (omegaQ / 3) * (3 Iz^2 - I(I+1) + eta (Ix^2 - Iy^2))

expressed in the Iz eigenbasis |chi_m>, ordered m = +3/2, +1/2, -1/2, -3/2.
The asymmetry term couples only the pairs {+3/2, -1/2} and {-3/2, +1/2}
(Delta m = +-2), so H0 splits into two 2x2 blocks and diagonalizes in closed
form.  Eigenstates are labeled 1..4 in descending energy order; all pulse
and gate machinery downstream works with these labels only.

Conventions fixed here and relied on everywhere else:

* levels are labeled by descending energy; an exact tie is a degenerate
  spectrum, and levels closer than ``DEGENERACY_TOL * scale`` raise
  :class:`~vspin.errors.DegenerateSpectrum`;
* each eigenvector's largest-magnitude component is made real positive,
  which pins the phases of all drive matrix elements.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NotHermitian

__all__ = [
    "SpinParameters",
    "EigenSystem",
    "TransitionTable",
    "spin_operators",
    "build_static_hamiltonian",
    "closed_form_eigensystem",
    "diagonalize",
    "transition_table",
]

# Magnetic quantum numbers in basis order (descending m).
_MAGNETIC_NUMBERS = np.array([1.5, 0.5, -0.5, -1.5])
# Levels closer than DEGENERACY_TOL * scale have no defined labels.
DEGENERACY_TOL = 1e-9
# An operator is Hermitian when |H - H^dagger| <= HERMITIAN_TOL * max|H|.
HERMITIAN_TOL = 1e-12
# Levels, and transition lines, closer than RESOLUTION_TOL * scale are not
# resolved: regime_ok is false, or a selective pulse cannot tell the lines apart.
RESOLUTION_TOL = 1e-6
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SpinParameters:
    """Physical inputs of the model; every value must be finite.

    omega0  Zeeman angular frequency, rad/s (>= 0)
    omegaQ  quadrupole angular frequency, rad/s (> 0)
    eta     field-gradient asymmetry, dimensionless (|eta| <= 1)
    gamma   gyromagnetic ratio, rad/(s * field-unit) (> 0)
    h_rf    RF field amplitude, field-unit (>= 0); 0 means pulses are
            treated as ideal flip-angle objects with no realizability checks
    """

    omega0: float
    omegaQ: float
    eta: float
    gamma: float = 1.0
    h_rf: float = 0.0

    def __post_init__(self):
        for name in ("omega0", "omegaQ", "gamma", "h_rf"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not abs(self.eta) <= 1.0:
            raise ValueError(f"|eta| must be <= 1, got {self.eta}")
        if not self.omegaQ > 0.0:
            raise ValueError(f"omegaQ must be > 0, got {self.omegaQ}")
        if not self.omega0 >= 0.0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not self.h_rf >= 0.0:
            raise ValueError(f"h_rf must be >= 0, got {self.h_rf}")


@dataclass(frozen=True)
class EigenSystem:
    """Labeled eigensystem of a 4x4 Hermitian operator.

    energies       shape (4,), rad/s, descending: energies[0] is level 1
    states         shape (4, 4) complex; column j is level j+1 in the
                   construction (|chi>) basis, phase-fixed
    mixing_angles  (alpha_plus, alpha_minus) for closed-form systems,
                   alpha = pi/2 - atan2(eta/sqrt(3), 1 +- 2c) / 2 with
                   c = omega0 / (2 omegaQ); None for systems produced by
                   numerical diagonalization
    regime_ok      True when the four levels are well resolved (minimum
                   gap exceeds RESOLUTION_TOL * scale)
    scale          reference angular frequency for relative tolerances
                   (omegaQ when built from SpinParameters)
    transitions    transition_table(self), built on first access
    axis_operator  axis_operator(axis), <psi_m| I_axis |psi_n> for axis X
                   or Y, built on first access per axis, read-only
    """

    energies: np.ndarray
    states: np.ndarray
    mixing_angles: tuple | None
    regime_ok: bool
    scale: float

    @functools.cached_property
    def transitions(self):
        # cached in the instance __dict__, which the frozen dataclass allows
        return transition_table(self)

    def axis_operator(self, axis):
        """<psi_m| I_axis |psi_n>, the eigenbasis matrix of the spin component
        an RF field along ``axis`` ("X" or "Y") drives: built once per axis,
        on first use, and read-only."""
        cache = self.__dict__.setdefault("_axis_operators", {})  # in the instance, like transitions
        if axis not in cache:
            ix, iy, _ = spin_operators()
            cache[axis] = self.to_eigen({"X": ix, "Y": iy}[axis])
            cache[axis].flags.writeable = False
        return cache[axis]

    def energy(self, m):
        """Energy of level m in 1..4."""
        return float(self.energies[m - 1])

    def state(self, m):
        """Eigenvector of level m in the |chi> basis."""
        return self.states[:, m - 1].copy()

    def to_eigen(self, operator):
        """Matrix elements <psi_m| A |psi_n> of a |chi>-basis operator."""
        a = np.asarray(operator, dtype=complex)
        return self.states.conj().T @ a @ self.states

    def from_eigen(self, operator):
        """Map an eigenbasis operator back to the |chi> basis."""
        a = np.asarray(operator, dtype=complex)
        return self.states @ a @ self.states.conj().T


def _build_spin_operators():
    m = _MAGNETIC_NUMBERS
    iz = np.diag(m).astype(complex)
    iplus = np.zeros((4, 4))
    for col in range(1, 4):
        iplus[col - 1, col] = np.sqrt(1.5 * 2.5 - m[col] * (m[col] + 1.0))
    ix = (iplus + iplus.T) / 2.0 + 0j
    iy = (iplus - iplus.T) / 2.0j
    for op in (ix, iy, iz):
        op.flags.writeable = False
    return ix, iy, iz


_SPIN_OPERATORS = _build_spin_operators()


def spin_operators():
    """Return (Ix, Iy, Iz) for I = 3/2 in the |chi> basis.

    Iz = diag(3/2, 1/2, -1/2, -3/2); Ix, Iy from the ladder operators
    I+|m> = sqrt(I(I+1) - m(m+1)) |m+1>.  The matrices are built once and
    shared by every caller, so they are read-only.
    """
    return _SPIN_OPERATORS


def build_static_hamiltonian(p: SpinParameters) -> np.ndarray:
    """Static Hamiltonian -omega0 Iz + (omegaQ/3)[3 Iz^2 - 15/4 + eta (Ix^2 - Iy^2)].

    Returned in the |chi> basis, units rad/s (hbar = 1).  Only elements with
    Delta m in {0, +-2} are nonzero; the trace vanishes identically.
    """
    ix, iy, iz = spin_operators()
    quad = 3.0 * iz @ iz - (15.0 / 4.0) * np.eye(4) + p.eta * (ix @ ix - iy @ iy)
    return -p.omega0 * iz + (p.omegaQ / 3.0) * quad


def _fix_phases(states):
    """Make each column's largest-magnitude entry real positive (in place);
    a column without a positive one (zero, or nan) is left as it is."""
    rows, cols = np.argmax(np.abs(states), axis=0), np.arange(states.shape[1])
    pivot = states[rows, cols]
    # |pivot| as abs() of one entry gives it; np.abs of a complex array may differ by an ulp
    mag = np.hypot(pivot.real, pivot.imag)
    kept = mag > 0.0
    rows, cols = rows[kept], cols[kept]
    states[:, cols] *= pivot[kept].conj() / mag[kept]
    # kill the residual imaginary dust on the pivot
    states[rows, cols] = states[rows, cols].real
    return states


def _assemble(energies, states, mixing, scale):
    # labels by descending energy; a tie never survives the gap check below
    order = sorted(range(len(energies)), key=lambda j: -energies[j])
    energies = np.asarray(energies, dtype=float)[order]
    states = _fix_phases(np.asarray(states, dtype=complex)[:, order])
    gaps = -(energies[1:] - energies[:-1])  # -np.diff(energies), its -0.0 kept, without its wrapper
    # every level borders a gap, so finite gaps imply finite energies
    if not np.isfinite(gaps).all():
        raise DegenerateSpectrum(
            "energies overflow double precision; level labels are undefined",
            energies=energies,
        )
    min_gap = gaps.min()
    if min_gap < DEGENERACY_TOL * scale:
        raise DegenerateSpectrum(
            f"energy gap {min_gap:.3e} below {DEGENERACY_TOL:.1e} * scale;"
            " level labels are undefined",
            energies=energies,
        )
    regime_ok = bool(min_gap > RESOLUTION_TOL * scale)
    return EigenSystem(
        energies=energies,
        states=states,
        mixing_angles=mixing,
        regime_ok=regime_ok,
        scale=float(scale),
    )


# Extreme inputs may overflow to inf or nan; _assemble's finite-gap check
# decides the outcome, so numpy's warnings would only be noise.
@np.errstate(over="ignore", invalid="ignore")
def closed_form_eigensystem(p: SpinParameters) -> EigenSystem:
    """Diagonalize the static Hamiltonian block-analytically.

    With c = omega0 / (2 omegaQ) and B+- = sqrt((1 +- 2c)^2 + eta^2/3) the
    block eigenvalues are omegaQ * (+-c +- B); each 2x2 block's mixing angle
    is theta+- = atan2(eta/sqrt(3), 1 +- 2c) / 2, half the polar angle of its
    (half-difference, coupling) pair, one formula in every regime: atan2
    does not cancel, and at eta = 0 the blocks come out diagonal.

    Raises DegenerateSpectrum when two levels coincide within
    ``DEGENERACY_TOL * omegaQ`` (for example omega0 = 0, eta = 0) or when
    the energies overflow.
    """
    c = p.omega0 / (2.0 * p.omegaQ)
    eta_r = p.eta / np.sqrt(3.0)
    b_plus = np.hypot(1.0 + 2.0 * c, eta_r)
    b_minus = np.hypot(1.0 - 2.0 * c, eta_r)
    # Block {-3/2, +1/2}: basis indices (3, 1); block {+3/2, -1/2}: (0, 2).
    theta_p = np.arctan2(eta_r, 1.0 + 2.0 * c) / 2.0
    theta_m = np.arctan2(eta_r, 1.0 - 2.0 * c) / 2.0

    energies = p.omegaQ * np.array(
        [c + b_plus, c - b_plus, -c + b_minus, -c - b_minus]
    )
    states = np.zeros((4, 4), dtype=complex)
    # upper/lower eigenvector of block {-3/2, +1/2}
    states[3, 0], states[1, 0] = np.cos(theta_p), np.sin(theta_p)
    states[3, 1], states[1, 1] = -np.sin(theta_p), np.cos(theta_p)
    # upper/lower eigenvector of block {+3/2, -1/2}
    states[0, 2], states[2, 2] = np.cos(theta_m), np.sin(theta_m)
    states[0, 3], states[2, 3] = -np.sin(theta_m), np.cos(theta_m)

    alpha = (np.pi / 2.0 - theta_p, np.pi / 2.0 - theta_m)
    return _assemble(energies, states, alpha, p.omegaQ)


def _hermitian_defect(a):
    """(max|A - A^dagger|, max|A|, broken) of a 4x4 A, max|A| at least the
    smallest normal float; broken when the first exceeds HERMITIAN_TOL times
    the second, the one Hermitian rule.  No defect exceeds a nan or inf
    max|A| (an entry nan or inf, or a modulus past the float range), so
    then none is taken: (None, max|A|, False)."""
    scale = max(abs(a).max(), _TINY)
    if not scale < math.inf:
        return None, scale, False
    defect = abs(a - a.conj().T).max()
    return defect, scale, defect > HERMITIAN_TOL * scale


def diagonalize(hamiltonian, scale=None) -> EigenSystem:
    """Numerically diagonalize a Hermitian 4x4 operator.

    Applies the same label and phase conventions as the closed form, so the
    two routes can be compared state by state.  ``scale`` defaults to the
    largest absolute eigenvalue; a given one must be finite and > 0.
    """
    if scale is not None and not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 operator, got shape {h.shape}")
    defect, hnorm, broken = _hermitian_defect(h)
    if broken:
        raise NotHermitian(f"max |H - H^dagger| = {defect:.3e} exceeds {HERMITIAN_TOL:g} * {hnorm:.3e}")
    energies, states = np.linalg.eigh((h + h.conj().T) / 2.0)
    if scale is None:
        scale = max(np.max(np.abs(energies)), _TINY)
    return _assemble(energies, states, None, scale)


@dataclass(frozen=True)
class TransitionTable:
    """All level pairs with their transition angular frequencies.

    entries     six tuples (m, n, omega_mn) with m < n and omega_mn > 0
    collisions  pairs of transitions closer than ``margin``, as tuples
                ((m, n), (p, q), |delta omega|)
    margin      the separation threshold, RESOLUTION_TOL * scale, rad/s
    """

    entries: tuple
    collisions: tuple
    margin: float

    def frequency(self, m, n):
        """Omega_mn for a level pair (order-insensitive)."""
        a, b = (m, n) if m < n else (n, m)
        for mm, nn, omega in self.entries:
            if (mm, nn) == (a, b):
                return omega
        raise KeyError(f"no transition ({m}, {n})")

    def nearest(self, m, n):
        """(|Omega_mn - Omega_pq|, (p, q)) for the line (p, q) closest to (m, n)."""
        a, b = (m, n) if m < n else (n, m)
        omega = self.frequency(a, b)
        return min(
            (abs(omega - other), (mm, nn))
            for mm, nn, other in self.entries
            if (mm, nn) != (a, b)
        )


def transition_table(e: EigenSystem) -> TransitionTable:
    """Enumerate the six transition frequencies Omega_mn = eps_m - eps_n.

    Flags any two transitions whose frequencies differ by less than
    RESOLUTION_TOL * e.scale, the resolution regime_ok also applies to the
    levels: a selective pulse cannot tell such lines apart.  Raises
    DegenerateSpectrum when a frequency overflows double precision (finite
    energies whose difference is not).
    """
    margin = RESOLUTION_TOL * e.scale
    energies = e.energies.tolist()
    entries = [
        (m, n, energies[m - 1] - energies[n - 1]) for m in range(1, 5) for n in range(m + 1, 5)
    ]
    if not all(math.isfinite(omega) for _, _, omega in entries):
        raise DegenerateSpectrum(
            "transition frequencies overflow double precision", energies=e.energies
        )
    collisions = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            delta = abs(entries[i][2] - entries[j][2])
            if delta < margin:
                collisions.append(
                    (entries[i][:2], entries[j][:2], float(delta))
                )
    return TransitionTable(
        entries=tuple(entries),
        collisions=tuple(collisions),
        margin=float(margin),
    )
