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
* a level is a value equal to one of 1..4, taken as that int, and a line a
  pair of two different levels, as (low, high): ``_level``, ``_normalize_transition``;
* each eigenvector's largest-magnitude component is made real positive,
  which pins the phases of all drive matrix elements.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, IndexOutOfRange, NotHermitian

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
_SQRT3 = math.sqrt(3.0)
_LEVELS = {m: m for m in range(1, 5)}
_LINES = {(m, n): (min(m, n), max(m, n)) for m in _LEVELS for n in _LEVELS if m != n}


def _level(m):
    """Level m as an int in 1..4; IndexOutOfRange unless m equals one."""
    try:
        return _LEVELS[m]
    except (KeyError, TypeError):  # TypeError: m is unhashable
        raise IndexOutOfRange(f"level index must be in 1..4, got {m!r}") from None


def _normalize_transition(transition):
    """A line as (low, high); ValueError unless it is a pair of two different levels."""
    try:
        return _LINES[tuple(transition)]
    except (KeyError, TypeError):
        raise ValueError(f"transition must be a pair of distinct levels in 1..4, got {transition}") from None


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
    axis_operator  axis_operator(axis), <psi_m| I_axis |psi_n> of X, Y or Z, cached, read-only
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
        """<psi_m| I_axis |psi_n> of the spin component X, Y or Z, in any case
        (else ValueError): built once per axis, on first use, and read-only."""
        key = str(axis).upper()
        cache = self.__dict__.setdefault("_axis_operators", {})  # in the instance, like transitions
        if key not in cache:
            if key not in _SPIN_COMPONENTS:
                raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
            cache[key] = self.to_eigen(_SPIN_COMPONENTS[key])
            cache[key].flags.writeable = False
        return cache[key]

    def energy(self, m):
        """Energy of level m."""
        return float(self.energies[_level(m) - 1])

    def state(self, m):
        """Eigenvector of level m in the |chi> basis."""
        return self.states[:, _level(m) - 1].copy()

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
_SPIN_COMPONENTS = dict(zip("XYZ", _SPIN_OPERATORS))


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
    rows, cols = abs(states).argmax(axis=0), np.arange(states.shape[1])
    pivot = states[rows, cols]
    # |pivot| as abs() of one entry gives it; np.abs of a complex array may differ by an ulp
    mag = np.hypot(pivot.real, pivot.imag)
    kept = mag > 0.0
    if kept.all():
        states *= pivot.conj() / mag
    else:
        rows, cols = rows[kept], cols[kept]
        states[:, cols] *= pivot[kept].conj() / mag[kept]
    # kill the residual imaginary dust on the pivot
    states.imag[rows, cols] = 0.0
    return states


def _assemble(energies, columns, mixing, scale):
    """The labeled EigenSystem of four eigenpairs in any order: ``energies``
    floats, ``columns[j]`` the state of ``energies[j]``."""
    # labels by descending energy; a tie never survives the gap check below
    order = sorted(range(4), key=lambda j: -energies[j])
    levels = [energies[j] for j in order]
    energies = np.array(levels)
    gaps = [-(lower - upper) for upper, lower in zip(levels, levels[1:])]  # -np.diff's -0.0 kept
    # every level borders a gap, so finite gaps imply finite energies
    if not all(map(math.isfinite, gaps)):
        raise DegenerateSpectrum(
            "energies overflow double precision; level labels are undefined",
            energies=energies,
        )
    min_gap = min(reversed(gaps))  # the last of equal smallest gaps, as numpy's min takes 0.0 and -0.0
    if min_gap < DEGENERACY_TOL * scale:
        raise DegenerateSpectrum(
            f"energy gap {min_gap:.3e} below {DEGENERACY_TOL:.1e} * scale;"
            " level labels are undefined",
            energies=energies,
        )
    # one row per level, transposed: column k is level k + 1
    states = _fix_phases(np.array([columns[j] for j in order], dtype=complex).T)
    return EigenSystem(
        energies=energies,
        states=states,
        mixing_angles=mixing,
        regime_ok=bool(min_gap > RESOLUTION_TOL * scale),
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
    eta_r = p.eta / _SQRT3
    # both blocks at once: {-3/2, +1/2} on 1 + 2c, then {+3/2, -1/2} on 1 - 2c
    half_difference = (1.0 + 2.0 * c, 1.0 - 2.0 * c)
    b_plus, b_minus = np.hypot(half_difference, eta_r).tolist()
    theta = np.arctan2(eta_r, half_difference) / 2.0
    cos_p, cos_m = np.cos(theta).tolist()
    sin_p, sin_m = np.sin(theta).tolist()

    q = p.omegaQ
    energies = [q * (c + b_plus), q * (c - b_plus), q * (-c + b_minus), q * (-c - b_minus)]
    columns = (
        # upper/lower eigenvector of block {-3/2, +1/2}, basis indices (3, 1)
        (0.0, sin_p, 0.0, cos_p),
        (0.0, cos_p, 0.0, -sin_p),
        # upper/lower eigenvector of block {+3/2, -1/2}, basis indices (0, 2)
        (cos_m, 0.0, sin_m, 0.0),
        (-sin_m, 0.0, cos_m, 0.0),
    )
    alpha = tuple(np.pi / 2.0 - theta)
    return _assemble(energies, columns, alpha, q)


def _hermitian_defect(a, of="H"):
    """(finite, why) of a 4x4 A: finite when every entry is; why None when A
    keeps the one Hermitian rule, max|A - A^dagger| <= HERMITIAN_TOL * max|A|
    (max|A| at least the smallest normal float), else how it breaks it.  A
    nan or inf entry has no defect: (False, None).  When every entry is
    finite but max|A| overflows, the rule is taken on A/4, which keeps it
    exactly when A does."""
    scale = max(abs(a).max(), _TINY)
    if not scale < math.inf:
        if not np.isfinite(a).all():
            return False, None
        return _hermitian_defect(a * 0.25, "(H/4)")
    defect = abs(a - a.conj().T).max()
    if defect > HERMITIAN_TOL * scale:
        return True, f"max |{of} - {of}^dagger| = {defect:.3e} exceeds {HERMITIAN_TOL:g} * {scale:.3e}"
    return True, None


def _hermitian_part(h):
    """(H + H^dagger) / 2 of a finite 4x4 H, halving first when the sum overflows."""
    with np.errstate(over="ignore"):
        twice = h + h.conj().T
    if not np.isfinite(twice).all():  # finite entries whose sum overflows
        return h / 2.0 + h.conj().T / 2.0
    return twice / 2.0


def diagonalize(hamiltonian, scale=None) -> EigenSystem:
    """Numerically diagonalize a Hermitian 4x4 operator.

    Applies the same label and phase conventions as the closed form, so the
    two routes can be compared state by state.  ``scale`` defaults to the
    largest |eigenvalue|; ValueError unless a given one is finite and > 0, and every entry finite.
    """
    if scale is not None and not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 operator, got shape {h.shape}")
    finite, why = _hermitian_defect(h)
    if not finite:
        raise ValueError("hamiltonian must be finite")
    if why is not None:
        raise NotHermitian(why)
    energies, states = np.linalg.eigh(_hermitian_part(h))
    if scale is None:
        scale = max(np.max(np.abs(energies)), _TINY)
    return _assemble(energies.tolist(), states.T, None, scale)


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

    @functools.cached_property
    def _omegas(self):  # line -> Omega, in the instance __dict__ as EigenSystem.transitions
        return {(m, n): omega for m, n, omega in self.entries}

    def frequency(self, m, n):
        """Omega_mn for the line (m, n), in either order."""
        return self._omegas[_normalize_transition((m, n))]

    def nearest(self, m, n):
        """(|Omega_mn - Omega_pq|, (p, q)) for the line (p, q) closest to (m, n)."""
        return self._nearest(_normalize_transition((m, n)))

    def _nearest(self, line):
        omega = self._omegas[line]
        return min((abs(omega - other), pair) for pair, other in self._omegas.items() if pair != line)


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
    entries = [(m, n, energies[m - 1] - energies[n - 1]) for m, n in sorted(set(_LINES.values()))]
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
