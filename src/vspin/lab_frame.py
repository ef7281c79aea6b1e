"""Brute-force lab-frame integrator and rotating-wave validation.

The full time-dependent Hamiltonian of a driven spin is

    H(t) = H0 + sum_d  A_d * O_d * cos(Omega_d t + phi_d)

with A_d = 2 gamma H_rf the peak drive amplitude and O_d a transverse spin
component.  The propagator is integrated with the exponential-midpoint rule

    U <- exp(-i h H(t + h/2)) U

which is exactly unitary per step (the exponential of a Hermitian midpoint
Hamiltonian) and second-order accurate in h.

Every step factor is exp(X + sum_d c_d Y_d) with X = -i h H0,
Y_d = -i h A_d O_d and c_d = cos(theta_d), theta_d = Omega_d t + phi_d the
drive phases at the step's midpoint: an entire function of the c_d
(Chebyshev propagation; Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).
So the step kernel exponentiates only the (K+1)^D Chebyshev-node
Hamiltonians, in one ``expm4`` call per grid, and turns them into
coefficient matrices with a DCT; K is the smallest degree whose tail
(||Y||_1 / 2)^(K+1) / (K+1)! is below 2^-60, ||Y||_1 = sum_d ||Y_d||_1,
above ||Y||_1 = 2 the factors are scaled by 2^-s and squared s times, and
a drive-free system has K = 0.  Unsquared factors are within a few 1e-15
of the exact exponential, and each squaring at most doubles that.

The grid is multiplied out in blocks of m steps.  On a uniform grid the
block P_m(theta) = F(theta + (m-1) delta) ... F(theta), delta_d = Omega_d h,
depends only on the drive phases theta at its first midpoint, smoothly and
2 pi-periodically, so its Fourier coefficient of order j is bounded by
(m ||Y||_1 / 2)^j / j! (the same tail rule, degree M).  P_m is sampled on
the L^D phase grid 2 pi l / L, L = 2M + 1, with one call of the step
kernel and one ordered product of L^D m factors; an FFT gives the
coefficients, and each chunk of blocks is read off them with one real
GEMM.  Steps after the last whole block take the step factors directly.
m is the power of two that minimizes the work in steps,
L^D m + n/m + (n mod m) plus a measured set-up cost for m > 1, with
m ||Y||_1 at most 2.  Grids too short, drives too strong and bases too
wide for blocks to pay keep m = 1, one factor per step.

When every drive has the same |Omega|, H(t) is periodic with
T_d = 2 pi / |Omega| (Floquet; Shirley, Phys. Rev. 138, B979, 1965), so

    U(T) = U_tail(tau) U_period^N,   N = floor(T / T_d),  tau = T - N T_d

Only one period and the tail are integrated on the grid (the step divides
T_d, and the tail restarts at t = 0); the power takes about 2 log2 N
products, so the cost grows with log N rather than with N.
Two-frequency drives, drive-free systems and an explicit step count
integrate the whole grid, whose step divides T.

Whatever the route, the finished product is projected once onto the
nearest unitary, its polar factor.  A rounded product of factors
W_k (1 + H_k), W_k unitary and H_k Hermitian of roundoff size eps, is
W (1 + H) + O(eps^2) with H Hermitian, whose polar factor is W + O(eps^2)
(Higham, Functions of Matrices, SIAM 2008, ch. 8): one projection at the
end removes the drift as one after every product would, to first order.

Comparing the integrated propagator, pulled into the interaction frame,
against the ideal selective-pulse propagator measures exactly the
rotating-wave error: counter-rotating terms and off-resonant leakage, both
of which shrink with the drive ratio

    r = gamma * h_rf * |element| / min_gap

where min_gap is the distance from the driven line to the nearest other
transition frequency.

One subtlety is owned by :func:`drive_for_pulse`: the ideal propagator's
phase convention absorbs the phase of the drive matrix element, so a
cosine drive must be offset by pi/2 + arg<psi_m| I_axis |psi_n> to realize
engine phase zero.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import StepTooLarge
from .operator_algebra import free_evolution
from .pulse_engine import (
    _axis_operator,
    _drivable_element,
    _normalize_axis,
    _normalize_transition,
    _pulse_length,
    single_frequency_propagator,
)
from .spin_system import (
    EigenSystem,
    SpinParameters,
    closed_form_eigensystem,
    transition_table,
)

__all__ = [
    "DriveTerm",
    "DrivenSystem",
    "expm4",
    "integrate_lab_frame",
    "to_interaction_frame",
    "propagator_infidelity",
    "drive_for_pulse",
    "rwa_infidelity",
    "rwa_sweep",
    "convergence_study",
]

_CHUNK = 1 << 16
# Taylor degrees and the largest 1-norm each handles at ~1e-16 accuracy.
_TAYLOR_STEPS = ((7, 0.035), (9, 0.11), (13, 0.43))
# Step kernel: Chebyshev truncation bound, far below one ulp of 1, and the
# largest drive 1-norm interpolated without scaling and squaring (each
# squaring doubles the roundoff; a larger bound widens the basis).
_CHEB_TAIL = 2.0**-60
_CHEB_NORM = 2.0
# Set-up of the block kernel beyond its node steps (FFT, coefficient
# transform, Python), in grid steps of ~0.4 us; measured on a 2-core
# machine, where one-drive blocks start to pay at ~700 steps.
_BLOCK_SETUP = 500


@dataclass(frozen=True)
class DriveTerm:
    """One cosine drive A * O * cos(Omega t + phi); every value finite."""

    operator: np.ndarray
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        if op.shape != (4, 4):
            raise ValueError(f"drive operator must be 4x4, got {op.shape}")
        if not np.isfinite(op).all():
            raise ValueError("drive operator must be finite")
        object.__setattr__(self, "operator", op)
        for name in ("amplitude", "frequency", "phase"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class DrivenSystem:
    """Static Hamiltonian plus drives on a uniform time grid.

    h0        4x4 Hermitian, rad/s, finite
    drives    DriveTerm sequence
    duration  total time T >= 0, s, finite
    step      finite target step h > 0, s, or None for the default rule
              h = 2 pi / (200 Omega_max); the actual step is the largest
              not above it that divides the drive period T_d when every
              drive shares one |Omega| and T >= T_d (the remainder after
              whole periods gets its own divisor), and T otherwise
    """

    h0: np.ndarray
    drives: tuple = field(default_factory=tuple)
    duration: float = 0.0
    step: float | None = None

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=complex)
        if h0.shape != (4, 4):
            raise ValueError(f"h0 must be 4x4, got {h0.shape}")
        if not np.isfinite(h0).all():
            raise ValueError("h0 must be finite")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "drives", tuple(self.drives))
        if not (np.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")
        if self.step is not None and not (np.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be finite and > 0, got {self.step}")

    def default_step(self):
        """h = 2 pi / (200 Omega_max), 200 samples of the fastest scale."""
        w = np.linalg.eigvalsh((self.h0 + self.h0.conj().T) / 2.0)
        scales = [w.max() - w.min()]
        for d in self.drives:
            scales.append(abs(d.frequency))
            scales.append(abs(d.amplitude))
        omega_max = max(max(scales), np.finfo(float).tiny)
        return 2.0 * np.pi / (200.0 * omega_max)


def _taylor_degree(theta):
    for degree, bound in _TAYLOR_STEPS:
        if theta <= bound:
            return degree, 0
    squarings = int(np.ceil(np.log2(theta / _TAYLOR_STEPS[-1][1])))
    return _TAYLOR_STEPS[-1][0], squarings


def expm4(a):
    """exp(A) for one or a stack of 4x4 matrices.

    Scaling-and-squaring with a truncated Taylor series; the degree is
    chosen so the truncation error stays near 1e-16 of the result.
    """
    a = np.asarray(a, dtype=complex)
    squeeze = a.ndim == 2
    stack = a[None, :, :] if squeeze else a
    theta = float(np.max(np.sum(np.abs(stack), axis=-1))) if stack.size else 0.0
    degree, squarings = _taylor_degree(max(theta, np.finfo(float).tiny))
    scaled = stack / (2.0**squarings)
    eye = np.broadcast_to(np.eye(4, dtype=complex), scaled.shape)
    result = eye + scaled
    term = scaled
    for k in range(2, degree + 1):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result[0] if squeeze else result


def _ordered_product(stack):
    """Product U_n ... U_1 of a time-ordered (n, 4, 4) stack (index 0 earliest),
    or of each row of a (k, n, 4, 4) stack."""
    stack = stack.swapaxes(0, -3)
    while stack.shape[0] > 1:
        pairs = stack.shape[0] // 2
        combined = stack[1 : 2 * pairs : 2] @ stack[0 : 2 * pairs : 2]
        if stack.shape[0] % 2:
            combined = np.concatenate([combined, stack[-1:]], axis=0)
        stack = combined
    return stack[0]


def _project_unitary(u):
    """Nearest unitary in the Frobenius norm (polar factor)."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def _chebyshev_degree(norm):
    """Smallest K with Chebyshev tail (norm/2)^(K+1) / (K+1)! below _CHEB_TAIL.

    The tail rises while K + 1 < norm / 2, then falls, so it exceeds the
    bound exactly below the answer, which doubling brackets and bisection
    finds.  It is compared in logarithms: above norm ~ 1,400 it overflows.
    Above norm ~ 1e305 the degree itself leaves the float range.
    """
    if not math.isfinite(norm):
        raise ValueError(f"norm must be finite, got {norm}")
    if norm <= 0.0:
        return 0
    log_half, log_bound = math.log(norm / 2.0), math.log(_CHEB_TAIL)

    def above(k):
        return (k + 1) * log_half - math.lgamma(k + 2) > log_bound

    low, high = -1, 0  # above(low) holds for every K < 0
    try:
        while above(high):
            low, high = high, 2 * high + 1
    except OverflowError:
        raise ValueError(f"norm too large for a Chebyshev degree, got {norm}") from None
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if above(mid) else (low, mid)
    return high


def _step_kernel(h0, drives, h):
    """(factors, width, norm): factors(phases) gives exp(-i h H(t)) at each midpoint.

    ``phases`` is the (D, count) array of drive phases Omega_d t + phi_d at
    the midpoints t.

    The factors interpolate exp(X + sum_d c_d Y_d) at the (K+1)^D Chebyshev
    nodes of the cube [-1, 1]^D (see the module docstring); width (K+1)^D
    is the number of basis functions T_k1(c_1) ... T_kD(c_D) per step, and
    norm = ||Y||_1.
    """
    x = -1j * h * h0
    ys = np.array([-1j * h * d.amplitude * d.operator for d in drives]).reshape(-1, 4, 4)
    norm = float(np.abs(ys).sum(axis=1).max(axis=-1).sum())
    squarings = int(np.ceil(np.log2(norm / _CHEB_NORM))) if norm > _CHEB_NORM else 0
    degree = _chebyshev_degree(norm / 2.0**squarings)
    order = np.arange(degree + 1)
    nodes = np.cos(np.pi * (order + 0.5) / (degree + 1))
    stack = x[None]
    for y in ys:  # node grid, the last drive varying fastest
        stack = (stack[:, None] + nodes[:, None, None] * y).reshape(-1, 4, 4)
    values = expm4(stack / 2.0**squarings)
    # DCT-II along each drive axis turns node values into coefficients; the
    # angle k (2j+1) pi / (2K+2) is reduced mod 2 pi in integers, which keeps
    # the cosines, and so the coefficients, accurate to an ulp
    angles = np.outer(order, 2 * order + 1) % (4 * degree + 4)
    dct = np.cos(np.pi * angles / (2 * degree + 2)) * 2.0 / (degree + 1)
    dct[0] /= 2.0
    coeffs = values.reshape((degree + 1,) * len(drives) + (16,))
    for axis in range(len(drives)):
        coeffs = np.moveaxis(np.tensordot(dct, coeffs, axes=([1], [axis])), 0, axis)
    # interleaved real/imaginary columns: one real GEMM yields complex factors
    coeffs = np.ascontiguousarray(coeffs.reshape(-1, 16)).view(float)

    def factors(phases):
        basis = np.ones((1, phases.shape[1]))
        for theta in phases:
            # T_k(c) by the three-term recurrence: cos(k theta) would lose
            # k |theta| ulp of accuracy when theta = Omega t is large
            cheb = [np.ones_like(theta), np.cos(theta)]
            for _ in range(degree - 1):
                cheb.append(2.0 * cheb[1] * cheb[-1] - cheb[-2])
            basis = (basis[:, None] * np.array(cheb[: degree + 1])).reshape(-1, len(theta))
        u = (basis.T @ coeffs).view(complex).reshape(-1, 4, 4)
        for _ in range(squarings):
            u = u @ u
        return u

    return factors, coeffs.shape[0], norm


def _block_size(n_steps, dims, norm, chunk):
    """(m, degree): the power-of-two block length that minimizes the work
    L^D m + n/m + (n mod m) + _BLOCK_SETUP [m > 1], in grid steps, and the
    Fourier degree of its blocks (L = 2 degree + 1 nodes per drive, D = dims).

    Blocks stay within _CHEB_NORM of drive 1-norm (norm = ||Y||_1 per step),
    like the step kernel's unsquared factors, and their L^D m node steps
    within one chunk.
    """
    best, m = (n_steps, 1, 0), 2
    while m * norm <= _CHEB_NORM:
        degree = _chebyshev_degree(m * norm)
        nodes = (2 * degree + 1) ** dims * m
        # node steps only grow with m, so no longer block can do better
        if nodes > chunk or nodes + _BLOCK_SETUP >= best[0]:
            break
        best = min(best, (nodes + n_steps // m + n_steps % m + _BLOCK_SETUP, m, degree))
        m *= 2
    return best[1:]


def _block_kernel(factors, drives, h, m, degree):
    """(blocks, width): blocks(phases) gives the m-step products
    P_m(theta) = F(theta + (m-1) delta) ... F(theta) at each block's first
    midpoint phases theta, delta_d = Omega_d h.

    P_m is smooth and periodic in theta, so it is sampled on the L^D tensor
    grid theta_l = 2 pi l / L and expanded in the width L^D real basis of
    products of 1, cos(k theta_d), sin(k theta_d), k <= degree.
    """
    size, dims = 2 * degree + 1, len(drives)
    nodes = np.indices((size,) * dims).reshape(dims, size**dims) * (2.0 * np.pi / size)
    delta = np.array([d.frequency * h for d in drives]).reshape(dims, 1, 1)
    phases = (nodes[:, :, None] + delta * np.arange(m)).reshape(dims, size**dims * m)
    values = _ordered_product(factors(phases).reshape(-1, m, 4, 4))
    coeffs = np.fft.fftn(values.reshape((size,) * dims + (16,)), axes=range(dims)) / size**dims
    # c_k e^{ik theta} + c_-k e^{-ik theta} = (c_k + c_-k) cos k theta + i (c_k - c_-k) sin k theta
    k = np.arange(1, degree + 1)
    real = np.zeros((size, size), dtype=complex)
    real[0, 0] = 1.0
    real[2 * k - 1, k] = real[2 * k - 1, size - k] = 1.0
    real[2 * k, k], real[2 * k, size - k] = 1j, -1j
    for axis in range(dims):
        coeffs = np.moveaxis(np.tensordot(real, coeffs, axes=([1], [axis])), 0, axis)
    coeffs = np.ascontiguousarray(coeffs.reshape(-1, 16)).view(float)

    def blocks(phases):
        basis = np.ones((1, phases.shape[1]))
        for theta in phases:
            # cos and sin of k theta by rotation, accurate to k ulp of 1
            c, s = np.cos(theta), np.sin(theta)
            rows = [np.ones_like(theta), c, s]
            for _ in range(degree - 1):
                rows += [rows[-2] * c - rows[-1] * s, rows[-1] * c + rows[-2] * s]
            basis = (basis[:, None] * np.array(rows[:size])).reshape(-1, len(theta))
        return (basis.T @ coeffs).view(complex).reshape(-1, 4, 4)

    return blocks, coeffs.shape[0]


def _grid_product(h0, drives, h, n_steps):
    """Exponential-midpoint product of n_steps steps of h, starting at t = 0."""
    factors, width, norm = _step_kernel(h0, drives, h)
    # a basis holds no more floats than a (_CHUNK, 4, 4) complex stack: the
    # chunks' bases, and the step basis of a block kernel's nodes
    m, degree = _block_size(n_steps, len(drives), norm, min(_CHUNK, _CHUNK * 32 // width))
    passes = [(m, *_block_kernel(factors, drives, h, m, degree))] if m > 1 else []
    passes.append((1, factors, width))
    total = np.eye(4, dtype=complex)
    done = 0
    # whole m-step blocks, then the steps left over, one chunk of at most
    # _CHUNK steps at a time to bound the memory of the factor stacks
    for stride, kernel, width in passes:
        chunk = max(1, min(_CHUNK // stride, _CHUNK * 32 // width))
        end = done + (n_steps - done) // stride * stride
        while done < end:
            count = min(chunk, (end - done) // stride)
            t_mid = (done + np.arange(0, stride * count, stride) + 0.5) * h
            phases = np.array([d.frequency * t_mid + d.phase for d in drives]).reshape(-1, count)
            total = _ordered_product(kernel(phases)) @ total
            done += stride * count
    return total


def _drive_period(drives):
    """T_d = 2 pi / |Omega| when all drives share one nonzero |Omega|, else None."""
    rates = {abs(d.frequency) for d in drives}
    if len(rates) != 1 or 0.0 in rates:
        return None
    return 2.0 * np.pi / rates.pop()


def integrate_lab_frame(system: DrivenSystem, n_steps=None) -> np.ndarray:
    """Propagator U(T, 0) of the full time-dependent Hamiltonian.

    Without ``n_steps``, a drive of one frequency makes H(t) periodic with
    T_d = 2 pi / |Omega|: one period is integrated with the largest step
    not above the target that divides T_d, raised to the power
    N = floor(T / T_d) by repeated squaring, and followed by the remaining
    tau = T - N T_d, integrated again from t = 0 with a step that divides
    tau.  With N = 0, several drive frequencies or none, the step divides
    T.  ``n_steps`` overrides the step rule and always integrates the whole
    grid of T (used for convergence studies).
    Raises StepTooLarge when the power overflows double precision (from
    about 1e16 periods on the default spin).
    """
    if system.duration == 0.0:
        return np.eye(4, dtype=complex)
    h0 = (system.h0 + system.h0.conj().T) / 2.0
    drives = system.drives
    period = None
    if n_steps is None:
        target = system.step if system.step is not None else system.default_step()
        period = _drive_period(drives)
        n_steps = int(np.ceil(system.duration / target))
    periods = int(system.duration // period) if period else 0
    if periods:
        n_steps = int(np.ceil(period / target))
        h = period / n_steps
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.linalg.matrix_power(_grid_product(h0, drives, h, n_steps), periods)
        if not np.isfinite(total).all():
            raise StepTooLarge(
                f"the power of {periods:.3g} drive periods of {n_steps} steps each"
                " overflows double precision"
            )
        # H(t + T_d) = H(t), so the remainder is integrated from t = 0 again
        tail = system.duration - periods * period
        if tail > 0.0:
            count = int(np.ceil(tail / target))
            total = _grid_product(h0, drives, tail / count, count) @ total
    else:
        n_steps = max(int(n_steps), 1)
        h = system.duration / n_steps
        total = _grid_product(h0, drives, h, n_steps)
    # the only re-projection: see the module docstring
    return _project_unitary(total)


def to_interaction_frame(u, e: EigenSystem, t, t0=0.0) -> np.ndarray:
    """U* = D(t - t0)^{-1} U, the propagator co-rotating with H0."""
    d = free_evolution(e, float(t) - float(t0))
    return d.conj().T @ np.asarray(u, dtype=complex)


def propagator_infidelity(u, v) -> float:
    """1 - |tr(U^dagger V)| / 4; zero iff U = e^{i theta} V."""
    overlap = np.trace(np.asarray(u).conj().T @ np.asarray(v))
    return float(1.0 - abs(overlap) / 4.0)


def drive_for_pulse(
    params: SpinParameters,
    e: EigenSystem,
    transition,
    axis="Y",
    phase=0.0,
    flip=np.pi,
) -> DrivenSystem:
    """Lab-frame realization of one selective pulse, in the eigenbasis.

    The cosine phase is offset by arg(element), plus pi/2 on the Y axis,
    so the realized rotation matches the ideal propagator at the requested
    engine phase; the duration follows from flip = T * amplitude *
    |element|.
    """
    element = _drivable_element(e, transition, axis)
    if params.h_rf <= 0.0:
        raise ValueError("params.h_rf must be > 0 to realize a pulse")
    axis = _normalize_axis(axis)
    m, n = _normalize_transition(transition)
    # the pi/2 offset belongs to the Y-equivalent phase, so the X-axis
    # engine shift of -pi/2 cancels it
    offset = np.pi / 2.0 if axis == "Y" else 0.0
    drive = DriveTerm(
        operator=e.to_eigen(_axis_operator(axis)),
        amplitude=2.0 * params.gamma * params.h_rf,
        frequency=float(e.energies[m - 1] - e.energies[n - 1]),
        phase=float(phase) + offset + float(np.angle(element)),
    )
    return DrivenSystem(
        h0=np.diag(e.energies).astype(complex),
        drives=(drive,),
        duration=_pulse_length(params, flip, element),
    )


def _params_for_ratio(params: SpinParameters, e, transition, axis, ratio):
    """Rescale h_rf so gamma * h_rf * |element| = ratio * min_gap."""
    element = _drivable_element(e, transition, axis)
    min_gap, _ = transition_table(e).nearest(*_normalize_transition(transition))
    h_rf = float(ratio) * min_gap / (params.gamma * abs(element))
    return replace(params, h_rf=h_rf)


def rwa_infidelity(
    params: SpinParameters,
    e: EigenSystem | None = None,
    transition=(1, 2),
    ratio=1e-3,
    axis="Y",
    phase=0.0,
    flip=np.pi,
) -> float:
    """Infidelity between the lab-frame pulse and its ideal propagator.

    The drive strength is set by ``ratio`` (Rabi rate over the smallest
    spectral gap to another transition); the lab result is pulled into the
    interaction frame before comparison, so the number measures the
    rotating-wave error alone.
    """
    if e is None:
        e = closed_form_eigensystem(params)
    scaled = _params_for_ratio(params, e, transition, axis, ratio)
    system = drive_for_pulse(scaled, e, transition, axis, phase, flip)
    u_lab = integrate_lab_frame(system)
    u_int = to_interaction_frame(u_lab, e, system.duration)
    v = single_frequency_propagator(e, transition, axis, phase, flip)
    return propagator_infidelity(u_int, v)


def rwa_sweep(
    params: SpinParameters,
    transition=(1, 2),
    ratios=(1e-2, 1e-3, 1e-4),
    axis="Y",
    flip=np.pi,
):
    """[(ratio, infidelity)] for a sequence of drive ratios."""
    e = closed_form_eigensystem(params)
    return [
        (float(r), rwa_infidelity(params, e, transition, r, axis, flip=flip))
        for r in ratios
    ]


def convergence_study(
    params: SpinParameters,
    transition=(1, 2),
    ratio=1e-2,
    axis="Y",
    flip=np.pi,
    refinements=2,
):
    """Observed order of the integrator on a resonant pulse.

    Integrates with n, 2n, 4n, ... steps and returns a dict with the
    pairwise-deviation order estimates and the deviation ratios against the
    Richardson-extrapolated reference.
    """
    e = closed_form_eigensystem(params)
    scaled = _params_for_ratio(params, e, transition, axis, ratio)
    system = drive_for_pulse(scaled, e, transition, axis, 0.0, flip)
    base = int(np.ceil(system.duration / system.default_step()))
    propagators = [
        integrate_lab_frame(system, n_steps=base * 2**k) for k in range(refinements + 1)
    ]
    deviations = [
        float(np.max(np.abs(propagators[k] - propagators[k + 1])))
        for k in range(refinements)
    ]
    orders = [
        float(np.log2(deviations[k] / deviations[k + 1]))
        for k in range(refinements - 1)
    ]
    # Order-2 Richardson reference from the two finest runs; the deviation
    # of the finest run against it is tautologically d/3, so only coarser
    # ratios are reported.
    reference = (4.0 * propagators[-1] - propagators[-2]) / 3.0
    ref_devs = [float(np.max(np.abs(u - reference))) for u in propagators]
    ratios = [ref_devs[k] / ref_devs[k + 1] for k in range(refinements - 1)]
    return {
        "step_counts": [base * 2**k for k in range(refinements + 1)],
        "deviations": deviations,
        "orders": orders,
        "richardson_ratios": ratios,
    }
