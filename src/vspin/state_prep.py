"""Thermal equilibrium and pseudo-pure state preparation.

An ensemble at inverse temperature beta populates the levels by the
Boltzmann law rho_eq = exp(-beta H0) / Z.  Temperature enters only through
the dimensionless ``beta_scale`` = beta * hbar * omegaQ, so the first-order
(high-temperature) form is

    rho_eq ~ (1/4) [ 1 + sum_m lambda_m P_mm ],
    lambda_m = -(eps_m / omegaQ) * beta_scale,   sum_m lambda_m = 0.

Temporal averaging turns this into a pseudo-pure state: averaging the
results of three experiments whose inputs are rho_eq, V1 rho_eq V1+ and
V2 rho_eq V2+, where V1 and V2 cyclically permute the populations of
levels 1..3 (in opposite senses) and fix level 4, gives

    (1/4) [ alpha 1 + beta P_44 ],
    alpha = 1 + (lambda_1 + lambda_2 + lambda_3) / 3,
    beta  = lambda_4 - (lambda_1 + lambda_2 + lambda_3) / 3.

The identity part is invariant under every unitary, so any subsequent
pulse program acts only on the beta P_44 part, exactly as it would on the
pure ground level.
"""

import numpy as np

from dataclasses import dataclass

from .errors import NotDiagonal, NotPositive, RegimeViolation
from .pulse_engine import single_frequency_propagator
from .spin_system import EigenSystem, SpinParameters

__all__ = [
    "ThermalSpec",
    "in_high_temperature_regime",
    "thermal_state",
    "high_temperature_coefficients",
    "high_temperature_state",
    "averaging_propagators",
    "temporal_average",
    "pseudo_pure_reference",
]

HIGH_TEMPERATURE_LIMIT = 1e-3
# temporal_average's input must be diagonal to DIAGONAL_TOL of its largest entry.
DIAGONAL_TOL = 1e-12


@dataclass(frozen=True)
class ThermalSpec:
    """Dimensionless inverse temperature beta_scale = beta * hbar * omegaQ."""

    beta_scale: float

    def __post_init__(self):
        if not (np.isfinite(self.beta_scale) and self.beta_scale >= 0.0):
            raise ValueError(f"beta_scale must be finite and >= 0, got {self.beta_scale}")


def in_high_temperature_regime(e: EigenSystem, spec: ThermalSpec) -> bool:
    """True when beta_scale * max|eps_m| / omegaQ <= 1e-3 (|beta H| << 1)."""
    return spec.beta_scale * float(np.max(np.abs(e.energies))) / e.scale <= HIGH_TEMPERATURE_LIMIT


@np.errstate(over="ignore")  # an exponent below the float range is -inf, a weight of 0
def thermal_state(e: EigenSystem, spec: ThermalSpec) -> np.ndarray:
    """Boltzmann state exp(-beta H0)/Z, diagonal in the eigenbasis.

    Energies count from level 4, the lowest, so no exponent is positive.
    """
    if spec.beta_scale == 0.0:  # exact even when the level spread overflows
        return np.eye(4, dtype=complex) / 4.0
    weights = np.exp(-spec.beta_scale * (e.energies - e.energies[3]) / e.scale)
    return np.diag(weights / np.sum(weights)).astype(complex)


def high_temperature_coefficients(e: EigenSystem, spec: ThermalSpec) -> np.ndarray:
    """First-order coefficients lambda_m = -(eps_m / omegaQ) * beta_scale.

    Raises RegimeViolation outside the high-temperature regime, where the
    linearization error would exceed its quadratic bound.
    """
    if not in_high_temperature_regime(e, spec):
        raise RegimeViolation(
            f"beta_scale * max|eps|/omegaQ = "
            f"{spec.beta_scale * float(np.max(np.abs(e.energies))) / e.scale:.3e}"
            f" exceeds {HIGH_TEMPERATURE_LIMIT:g}"
        )
    return -spec.beta_scale * e.energies / e.scale


def high_temperature_state(e: EigenSystem, spec: ThermalSpec) -> np.ndarray:
    """The first-order thermal state (1/4)[1 + sum_m lambda_m P_mm]."""
    lam = high_temperature_coefficients(e, spec)
    return np.diag((1.0 + lam) / 4.0).astype(complex)


def averaging_propagators(e: EigenSystem, params: SpinParameters | None = None):
    """The two permutation pulses of the temporal-averaging cycle.

    V1 = V_Y(Omega_12, pi) V_Y(Omega_23, pi) = P44 + P21 + P13 + P32 and
    V2 = V_Y(Omega_23, pi) V_Y(Omega_12, pi) = P44 - P12 + P31 - P23 cycle
    the populations of levels 1..3 in opposite senses and fix level 4.
    The two pi pulses share level 2, so they run sequentially, never
    simultaneously.
    """
    v12 = single_frequency_propagator(e, (1, 2), "Y", 0.0, np.pi, params)
    v23 = single_frequency_propagator(e, (2, 3), "Y", 0.0, np.pi, params)
    return v12 @ v23, v23 @ v12


def temporal_average(rho_eq, e: EigenSystem, params: SpinParameters | None = None):
    """Average of rho_eq over the permutation cycle; returns (rho_pp, alpha, beta).

    rho_eq must be diagonal in the eigenbasis (a thermal state).  The
    result is (1/4)[alpha 1 + beta P_44] with alpha = 4 * mean population
    of levels 1..3 and beta = 4 * (population 4 - that mean); for a
    first-order thermal input these equal 1 + mean(lambda_1..3) and
    lambda_4 - mean(lambda_1..3).
    """
    rho = np.asarray(rho_eq, dtype=complex)
    if rho.shape != (4, 4):
        raise NotDiagonal(f"density matrix must be 4x4, got {rho.shape}")
    off = np.max(np.abs(rho - np.diag(np.diag(rho))))
    scale = max(float(np.max(np.abs(rho))), np.finfo(float).tiny)
    if off > DIAGONAL_TOL * scale:
        raise NotDiagonal(
            f"off-diagonal magnitude {off:.3e} exceeds {DIAGONAL_TOL:g} of the state scale"
        )
    v1, v2 = averaging_propagators(e, params)
    rho_pp = (rho + v1 @ rho @ v1.conj().T + v2 @ rho @ v2.conj().T) / 3.0
    populations = np.real(np.diag(rho_pp))
    mean_upper = float(np.mean(populations[:3]))
    alpha = 4.0 * mean_upper
    beta = 4.0 * (float(populations[3]) - mean_upper)
    return rho_pp, alpha, beta


def pseudo_pure_reference(a, b) -> np.ndarray:
    """Normalized (a 1 + b P_44) / (4a + b).

    Eigenvalues are a (three-fold) and a + b, so a >= 0, a + b >= 0 and
    4a + b > 0 are required (NotPositive otherwise), all finite (ValueError).
    (a=0, b=1) is the pure ground level; (a=1, b=0) is maximally mixed.
    """
    a = float(a)
    b = float(b)
    norm = 4.0 * a + b
    for name, value in (("a", a), ("b", b), ("4a + b", norm)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if a < 0.0 or a + b < 0.0 or norm <= 0.0:
        raise NotPositive(
            f"(a={a:g}, b={b:g}) gives eigenvalues {a:g}, {a + b:g} with trace {norm:g}"
        )
    return np.diag(np.array([a, a, a, a + b]) / norm).astype(complex)
