"""Brute-force lab-frame integrator and rotating-wave validation.

The full time-dependent Hamiltonian of a driven spin is

    H(t) = H0 + sum_d  A_d * O_d * cos(Omega_d t + phi_d)

with A_d = 2 gamma H_rf the peak drive amplitude and O_d a transverse spin
component.  The propagator is integrated with the exponential-midpoint rule

    U <- exp(-i h H(t + h/2)) U

which is exactly unitary per step (the exponential of a Hermitian midpoint
Hamiltonian) and second-order accurate in h.

Every step factor F(theta) = exp(X + sum_d cos(theta_d) Y_d), with
X = -i h H0, Y_d = -i h A_d O_d and theta_d = Omega_d t + phi_d the drive
phases at its midpoint, and on a uniform grid every block of m steps
P_m(theta) = F(theta + (m-1) delta) ... F(theta), delta_d = Omega_d h, is a
smooth, 2 pi-periodic function of theta alone, whose Fourier coefficients
of total order |j_1| + ... + |j_D| = j are bounded by (nu / 2)^j / j!,
nu = m ||Y||_1 = m sum_d ||Y_d||_1 (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
3967, 1984).  So only the modes {|j|_1 <= M} are kept, M the smallest
degree with tail (nu / 2)^(M+1) / (M+1)! below 2^-60.  The function is
sampled at the N nodes theta_l = 2 pi (l z mod N) / N of a rank-1 lattice
on which j -> z.j mod N is one-to-one over that set (Kaemmerer, SIAM J.
Numer. Anal. 51, 2773, 2013): one length-N FFT gives each kept
coefficient, aliased only with modes the tail rule puts below 2^-60.  Each
chunk of steps or blocks is read off them with one real GEMM over the
products of 1, cos(k_d theta_d) and sin(k_d theta_d), k_1 + ... + k_D <= M.
F is even in each phase, so it keeps only the cosine products, M + 1 for
one drive and (M + 1)(M + 2) / 2 for two, and exponentiates only the first
half of the nodes, node N - l being node l mirrored, in one ``expm4`` call
per grid.  One drive takes N = 2M + 1, z = 1; two take N = 2M^2 + 2M + 1,
z = (1, 2M + 1), about half the (2M + 1)^2 tensor grid, as the l1 balls of
radius M tile the plane (Golomb & Welch, SIAM J. Appl. Math. 18, 302,
1970); three or more take the tensor grid, N = L^D, z = (1, L, ...,
L^(D-1)), L = 2M + 1.  Above ||Y||_1 = 2 the step factors are scaled by
2^-s and squared s times; unsquared they are within a few 1e-15 of the
exact exponential, each squaring, the read-off's or ``expm4``'s, at most
doubles that, and a step is refused unless ||X||_inf + ||Y||_1 is in
``expm4``'s range, which holds both counts to _MAX_SQUARINGS in all.  A
block is sampled with one step-kernel call and one ordered product of N m
factors.  As a function of its first midpoint phases a block may start at
any step, so a grid is one time-ordered sequence of factors: its first r
steps, whole blocks from step r on, and the steps after the last block,
each step a step factor; r = 0 unless the product of the grid's first k
steps is wanted too (below), when r = k mod m makes a block end at step k.
m is the power of two that minimizes the work in steps, N m + n/m +
(n mod m) plus a measured set-up cost for m > 1, with m ||Y||_1 at most 2;
short grids, strong drives and wide bases keep m = 1, one factor per step.

A step-doubling study (Richardson, Phil. Trans. R. Soc. A 210, 307, 1911)
integrates a grid of n steps of h and its refinements g < G, n 2^g steps
of h / 2^g, in one pass.  Refinement g's node generators are step h's over
2^g exactly, so one lattice, the widest any of them needs, one ``expm4``
call and one FFT serve every step kernel, each squared its own number of
times.  Its blocks of m 2^g steps span m steps of h and have drive 1-norm
m ||Y||_1 whatever g is; as a function of the first midpoint phases theta
of the grid of h, step j of such a block is at theta + (j + 1/2) delta_g -
delta / 2, delta_g = delta / 2^g (theta + j delta at g = 0).  So every
refinement shares the grid's block layout: the same floor(n/m) blocks are
read off one basis in one GEMM against the stacked coefficients, each step
of h outside them is the product of its 2^g steps, and the G sequences, of
one length, go through one product tree as a (G, count, 4, 4) stack and
one batched projection.  Only each block kernel's N m 2^g node steps and
the steps outside the blocks are read per refinement, so m minimizes
N m (2^G - 1) + G floor(n/m) + (2^G - 1) (n mod m) plus the set-up, the
rule above at G = 1.  A grid alone is the case G = 1, bit for bit, without
the refinement axis: its node values, blocks, steps and products are
(count, 4, 4) stacks, not (1, count, 4, 4), so it stacks no per-refinement
parts, copies no one-factor product of a step's 2^0 steps into a buffer,
and takes no [0] of its result.

Every ordered product of factors or blocks is taken in the real form
E(U) = [[Re U, -Im U], [Im U, Re U]] of each 4x4 matrix: E(U) E(V) = E(UV),
and numpy multiplies float64 8x8 matrices about four times faster than
complex 4x4 ones.  One GEMM of the factors' interleaved floats against a
constant map of 0 and +-1 builds E exactly; the pairs are multiplied in
the same tree as before, the first two levels a block of factors at a
time, so the real forms hold no more bytes than half the stack and one
block; and the product is read back as its complex-linear part
(E11 + E22) / 2 + i (E21 - E12) / 2, the nearest real form.  Roundoff also
fills the other part, [[A, B], [B, -A]], which no complex matrix has: read
back as E11 + i E21, a drive-free grid of 66,536 steps in blocks of 64
strays 7e-13 from its single-step product, against 4e-14.

When every drive has the same |Omega|, H(t) is periodic with
T_d = 2 pi / |Omega| (Floquet; Shirley, Phys. Rev. 138, B979, 1965), so

    U(T) = U(tau) U_period^N,   N = floor(T / T_d),  tau = T - N T_d

Only one period is integrated, on a grid of n steps of h = T_d / n, the
largest h not above DrivenSystem.default_step, the one target step of
every grid.  The remainder is the period's own first tau: it reuses the
period's first k = floor(tau / h) steps, then one step of tau - k h, so
U(T) = F P_k U_period^N, with P_k the product of the first k steps and F
the partial step, exp(-i (tau - k h) H) from the eigensystem of H at its
midpoint.  P_k is the first q = r + floor(k / m) factors of the period's
sequence, and is read off the period's own product tree: node i of level
l holds factors [4 i 2^l, 4 (i + 1) 2^l), so the first 4 floor(q / 4) are
one aligned node per set bit of floor(q / 4), at most log2 q products,
and the last q mod 4 are multiplied in directly (the parallel-prefix
reading of a reduction tree; Blelloch, CMU-CS-90-190, 1990).  So one
factor sequence and one tree give both U_period and P_k.  The power takes
about 2 log2 N products, so the cost grows with log N rather than with N.
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
phase convention absorbs the phase of the drive matrix element, so the
cosine drive's phase is the engine phase plus ``pulse_engine.AXIS_SHIFT``
plus pi/2 plus arg<psi_m| I_axis |psi_n>.  Its duration is the engine's.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import StepTooLarge
from .operator_algebra import free_evolution
from .pulse_engine import (
    AXIS_SHIFT,
    _drivable_element,
    _normalize_axis,
    _pulse_length,
    single_frequency_propagator,
    transition_matrix_element,
)
from .spin_system import (
    HERMITIAN_TOL,
    EigenSystem,
    SpinParameters,
    _hermitian_defect,
    _normalize_transition,
    closed_form_eigensystem,
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
# the most steps one grid takes: past 2^53 consecutive step indices j are no
# longer distinct floats, and the midpoints (j + 1/2) h would repeat
_MAX_STEPS = 2**53
# factors _ordered_product takes into the real form at a time: a whole stack
# in the real form would double its bytes
_REAL_BLOCK = 256
# Taylor degrees and the largest max row sum each handles at ~1e-16
# accuracy (on the integrator's skew-Hermitian matrices, the 1-norm).
_TAYLOR_STEPS = ((7, 0.035), (9, 0.11), (13, 0.43))
# Each squaring at most doubles the error: after 52, 2^52 ulp of 1 is 1 and
# no digit can be right, so expm4 takes at most 51, and so does a step
# kernel, its read-off's and expm4's on its nodes counted together.
_MAX_SQUARINGS = 51
_MAX_NORM = _TAYLOR_STEPS[-1][1] * 2.0**_MAX_SQUARINGS  # the largest 1-norm those squarings reach
# Fourier kernels: the truncation bound, far below one ulp of 1, and the
# largest drive 1-norm read off without scaling and squaring (each
# squaring doubles the roundoff; a larger bound widens the basis).
_FOURIER_TAIL = 2.0**-60
_FOURIER_NORM = 2.0
# Set-up of the block kernel beyond its node steps (FFT, coefficient
# transform, Python), in grid steps of ~0.5-0.7 us; measured on a 2-core
# machine with the real-form product, where blocks start to pay at ~600
# steps for one drive and ~1,100 for two (440 and 590 steps of set-up).
# A study of G > 1 grids reads 2^G - 1 steps per step of h without blocks,
# so its blocks pay from a few hundred steps, whatever the set-up.
_BLOCK_SETUP = 500
_EYE = np.eye(4, dtype=complex)
_EYE.flags.writeable = False


def _hermitian_4x4(a, name):
    """a as a complex 4x4 array, kept as given, not symmetrized; ValueError
    naming it unless it is finite and Hermitian by spin_system's rule."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError(f"{name} must be 4x4, got {a.shape}")
    finite, why = _hermitian_defect(a)
    if not finite:
        raise ValueError(f"{name} must be finite")
    if why is not None:
        raise ValueError(f"{name} must be Hermitian within {HERMITIAN_TOL:g} of its largest entry")
    return a


@dataclass(frozen=True)
class DriveTerm:
    """One cosine drive A * O * cos(Omega t + phi); every value finite, and
    the 4x4 operator O Hermitian within spin_system.HERMITIAN_TOL."""

    operator: np.ndarray
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "operator", _hermitian_4x4(self.operator, "drive operator"))
        for name in ("amplitude", "frequency", "phase"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class DrivenSystem:
    """Static Hamiltonian plus drives on a uniform time grid.

    h0        4x4, rad/s, finite, Hermitian within spin_system.HERMITIAN_TOL
    drives    DriveTerm sequence
    duration  total time T >= 0, s, finite
    """

    h0: np.ndarray
    drives: tuple = field(default_factory=tuple)
    duration: float = 0.0
    step = None  # not a field: read-only, for readers of the retired target step

    def __post_init__(self):
        object.__setattr__(self, "h0", _hermitian_4x4(self.h0, "h0"))
        object.__setattr__(self, "drives", tuple(self.drives))
        if not (np.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")

    def default_step(self):
        """The target step of every grid integrate_lab_frame sizes: 2 pi /
        (200 Omega_max), Omega_max the largest of h0's spectral width and each
        drive's |frequency| and |amplitude|.  That is 200 samples of the
        fastest scale only for drive operators of norm ~1, as it reads
        |amplitude|, not |amplitude| ||operator||.  The step kernel refuses a
        step past its squaring budget; sized by the norm, a 1e8 Ix drive would
        take ~3e10 steps a period, too many until grids cost O(log n)."""
        w = np.linalg.eigvalsh(self._hermitian_h0)
        rates = (abs(v) for d in self.drives for v in (d.frequency, d.amplitude))
        omega_max = max(w.max() - w.min(), *rates, np.finfo(float).tiny)
        return 2.0 * np.pi / (200.0 * omega_max)

    @functools.cached_property
    def _hermitian_h0(self):
        # (h0 + h0^dagger) / 2, which default_step and every grid read: built once
        return (self.h0 + self.h0.conj().T) / 2.0


def _taylor_degree(theta):
    for degree, bound in _TAYLOR_STEPS:
        if theta <= bound:
            return degree, 0
    squarings = int(np.ceil(np.log2(theta / _TAYLOR_STEPS[-1][1])))
    return _TAYLOR_STEPS[-1][0], squarings


def expm4(a):
    """exp(A) for one or a stack of 4x4 matrices.

    Scaling-and-squaring with a truncated Taylor series; the degree is
    chosen so the truncation error stays near 1e-16 of the result, and each
    of the s squarings at most doubles it, to ~2^s ulp.  Raises ValueError
    when an entry is not finite or the norm needs more than _MAX_SQUARINGS
    squarings (above ~1e15).
    """
    a = np.asarray(a, dtype=complex)
    squeeze = a.ndim == 2
    stack = a[None, :, :] if squeeze else a
    with np.errstate(over="ignore"):  # a row sum beyond the float range is inf
        theta = float(np.max(np.sum(np.abs(stack), axis=-1))) if stack.size else 0.0
    if not theta <= _MAX_NORM:  # also a nan or inf entry
        raise ValueError(f"a must be finite and need <= {_MAX_SQUARINGS} squarings, got norm {theta}")
    degree, squarings = _taylor_degree(theta)
    scaled = stack / (2.0**squarings)
    result = _EYE + scaled
    term = scaled
    for k in range(2, degree + 1):
        term = term @ scaled  # a new array, so the in-place steps leave scaled be
        term /= k
        result += term
    for _ in range(squarings):
        result = result @ result
    return result[0] if squeeze else result


def _real_form():
    """The (32, 64) map of a complex 4x4 matrix's interleaved floats onto its
    real form E(U) = [[Re U, -Im U], [Im U, Re U]], read-only."""
    embed = np.zeros((4, 4, 2, 8, 8))
    row, col = np.indices((4, 4))
    embed[row, col, 0, row, col] = embed[row, col, 0, row + 4, col + 4] = 1.0
    embed[row, col, 1, row + 4, col] = 1.0
    embed[row, col, 1, row, col + 4] = -1.0
    embed = embed.reshape(32, 64)
    embed.flags.writeable = False
    return embed


_REAL_FORM = _real_form()
# E^T E = 2 I: E^T / 2 reads back (E11 + E22) / 2 + i (E21 - E12) / 2
_COMPLEX_PART = _REAL_FORM.T / 2.0
_COMPLEX_PART.flags.writeable = False
_EYE_REAL = np.eye(8)
_EYE_REAL.flags.writeable = False


def _pair_level(real):
    """One level of the pairwise product: U_{2i+1} U_{2i} for each pair, and
    the last matrix of an odd count as it is."""
    pairs = len(real) // 2
    combined = real[1 : 2 * pairs : 2] @ real[0 : 2 * pairs : 2]
    if len(real) % 2:
        combined = np.concatenate([combined, real[-1:]], axis=0)
    return combined


def _ordered_product(stack, prefix=None):
    """Product U_n ... U_1 of a time-ordered (n, 4, 4) stack (index 0 earliest),
    or of each row of a (..., n, 4, 4) stack, multiplied pairwise in the real
    form (module docstring).  With ``prefix`` = p in 0..n, the pair (that
    product, U_p ... U_1), the prefix read off the same tree."""
    n, lead = stack.shape[-3], stack.shape[:-3]
    if n == 1 and prefix is None:  # the tree would read a lone factor back as it is
        return stack[..., 0, :, :]
    # the first two levels of pairs, about _REAL_BLOCK factors at a time: a
    # block starts at a multiple of 4, so its pairs are those of the whole
    step = max(4, _REAL_BLOCK // math.prod(lead) // 4 * 4)
    real = np.empty((-(-n // 4), *lead, 8, 8))
    # the factor axis ahead of every lead axis: np.moveaxis(block, -3, 0), as
    # the one transpose it makes
    factors_first = (len(lead), *range(len(lead)), -2, -1)
    for start in range(0, n, step):
        block = np.ascontiguousarray(stack[..., start : start + step, :, :], dtype=complex)
        block = (block.view(float).reshape(-1, 32) @ _REAL_FORM).reshape(*block.shape[:-2], 8, 8)
        block = _pair_level(_pair_level(block.transpose(factors_first)))
        real[start // 4 : start // 4 + len(block)] = block
    # node i of level l holds quads [i 2^l, (i + 1) 2^l): the prefix's q whole
    # quads are node (q >> l) - 1 of each level l whose bit is set in q, the
    # lowest level the newest (module docstring)
    quads, nodes = (prefix or 0) // 4, []
    while quads or len(real) > 1:
        if quads & 1:
            nodes.append(real[quads - 1])
        real, quads = _pair_level(real), quads >> 1
    if prefix is None:
        return (real[0].reshape(-1, 64) @ _COMPLEX_PART).view(complex).reshape(*lead, 4, 4)
    # the identity takes the lead shape from the first node; without one,
    # from the assignment below
    head = functools.reduce(np.matmul, nodes, _EYE_REAL)
    both = np.empty((2, *real[0].shape))
    both[0], both[1] = real[0], head
    total, head = (both.reshape(-1, 64) @ _COMPLEX_PART).view(complex).reshape(2, *lead, 4, 4)
    for j in range(prefix // 4 * 4, prefix):  # the last quad's first prefix mod 4 factors
        head = stack[..., j, :, :] @ head
    return total, head


def _stacked(parts, refinements, axis):
    """The refinements' ``parts`` stacked on a lead axis at ``axis``; a grid
    without refinements (None) has none and takes its one part as it is."""
    return parts[0] if refinements is None else np.stack(parts, axis)


def _project_unitary(u):
    """Nearest unitary in the Frobenius norm (polar factor), of each matrix of a stack."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def _fourier_degree(norm):
    """Smallest M with Fourier tail (norm/2)^(M+1) / (M+1)! below _FOURIER_TAIL,
    the tail a running product of its factors norm / (2 (M+1)).  Callers pass
    norm <= _FOURIER_NORM; above ~1,400 the product overflows: ValueError."""
    if not math.isfinite(norm):
        raise ValueError(f"norm must be finite, got {norm}")
    degree, tail = 0, norm / 2.0
    while tail > _FOURIER_TAIL:
        degree += 1
        tail *= norm / (2.0 * (degree + 1))
        if tail == math.inf:
            raise ValueError(f"norm too large for a Fourier degree, got {norm!r}")
    return degree


def _step_kernel(h0, drives, h, refinements=None):
    """(factors, width, norm): factors(phases, g) gives exp(-i h_g H(t)),
    h_g = h / 2^g, for refinement g (default 0) < refinements, or g = 0
    alone for a grid without refinements (None), at each midpoint t, from
    the (D, count) drive phases Omega_d t + phi_d there, read off the width
    cosine products (module docstring); norm = ||Y||_1 of h."""
    with np.errstate(over="ignore", invalid="ignore"):  # a norm past the float range is refused
        x = -1j * h * h0
        ys = np.array([-1j * h * d.amplitude * d.operator for d in drives]).reshape(-1, 4, 4)
        norm = float(np.abs(ys).sum(axis=1).max(axis=-1).sum())
        # node rows X + sum_d c_d Y_d, |c_d| <= 1, sum to <= ||X|| + ||Y||_1 (a Hermitian
        # drive's row and column sums agree): in expm4's range, both squarings add to <= 51
        step_norm = float(np.abs(x).sum(axis=-1).max()) + norm
    if not step_norm <= _MAX_NORM:  # also a nan or inf norm
        raise StepTooLarge(f"a step of {h:.3g} s has norm {step_norm:.3g},"
                           f" which needs more than {_MAX_SQUARINGS} squarings")
    # refinement g's node generators are step h's over 2^g exactly, scaled by
    # 2^-s_g; one lattice, the widest any of them needs, serves them all
    squarings = [int(np.ceil(np.log2(norm / 2.0**g / _FOURIER_NORM))) if norm / 2.0**g > _FOURIER_NORM else 0
                 for g in range(refinements or 1)]
    scales = [2.0 ** (g + s) for g, s in enumerate(squarings)]
    degree = max(_fourier_degree(norm / scale) for scale in scales)
    nodes = _lattice(len(drives), degree, True)[0]
    # F(-theta) = F(theta), and node N - l is node l mirrored
    half = nodes[:, : nodes.shape[1] // 2 + 1]
    generators = x + (np.cos(half).T @ ys.reshape(-1, 16)).reshape(-1, 4, 4)
    # (nodes, ..., 4, 4), with the refinements' lead axis if there is one
    values = expm4(_stacked([generators / scale for scale in scales], refinements, 0)).swapaxes(0, -3)
    read, width = _phase_kernel(np.concatenate([values, values[:0:-1]]), len(drives), degree, True)

    def factors(phases, g=0):
        u = read(phases, g)
        for _ in range(squarings[g]):
            u = u @ u
        return u

    return factors, width, norm


def _block_size(n_steps, dims, norm, chunk, refinements=1):
    """(m, degree): the power-of-two block length that minimizes the work, in
    grid steps, of a grid of n_steps and its refinements g < G = refinements
    (n_steps 2^g steps each, blocks of m 2^g),
    N m (2^G - 1) + G floor(n/m) + (2^G - 1) (n mod m) + _BLOCK_SETUP [m > 1],
    and the Fourier degree of its blocks (N the size of their lattice for
    D = dims drives, see _rank1_lattice).

    Blocks stay within _FOURIER_NORM of drive 1-norm (norm = ||Y||_1 per step),
    like the step kernel's unsquared factors, and the finest refinement's
    N m 2^(G-1) node steps within one chunk.
    """
    steps = 2**refinements - 1  # a grid step's steps over all refinements
    best, m = (n_steps * steps, 1, 0), 2
    while m * norm <= _FOURIER_NORM:
        degree = _fourier_degree(m * norm)
        nodes = _rank1_lattice(dims, degree)[0] * m
        # node steps only grow with m, so no longer block can do better
        if nodes << (refinements - 1) > chunk or nodes * steps + _BLOCK_SETUP >= best[0]:
            break
        work = nodes * steps + refinements * (n_steps // m) + steps * (n_steps % m) + _BLOCK_SETUP
        best = min(best, (work, m, degree))
        m *= 2
    return best[1:]


def _rank1_lattice(dims, degree):
    """(N, z): a rank-1 lattice whose map j -> z.j mod N is one-to-one on
    the total-degree set {j in Z^dims : |j|_1 <= degree} (module docstring)."""
    size = 2 * degree + 1
    if dims == 2:
        return 2 * degree * (degree + 1) + 1, (1, size)
    return size**dims, tuple(size**d for d in range(dims))


@functools.cache
def _lattice(dims, degree, even):
    """(nodes, layout, index, weight), read-only, to read off a function of
    ``dims`` drive phases at Fourier degree ``degree`` (module docstring).

    nodes   (dims, N) lattice phases 2 pi (l z mod N) / N
    layout  per drive, the width so far and its groups (sel, n): each
            product so far in sel, of total order g, times the drive's first
            n rows, those of order up to degree - g, of 1, cos theta,
            sin theta, cos 2 theta, sin 2 theta, ..., or of 1, cos theta,
            cos 2 theta, ... for a function ``even`` in each phase
    index   (width, 2^dims) lattice FFT bins of each function's modes, and
    weight  (width, 2^dims) their weights: the function's coefficient is
            sum_s weight[., s] c[index[., s]], as cos k = (e^{ik} + e^{-ik}) / 2
            and sin k = (e^{ik} - e^{-ik}) / 2i
    """
    size, z = _rank1_lattice(dims, degree)
    z = np.array(z, dtype=np.int64).reshape(dims, 1)
    nodes = (z * np.arange(size)) % size * (2.0 * np.pi / size)
    per_order = 1 if even else 2  # rows per order above 0
    rows, layout = np.zeros((0, 1), dtype=np.int64), []
    for _ in range(dims):
        total = ((rows + per_order - 1) // per_order).sum(axis=0)
        groups = tuple((np.flatnonzero(total == g), per_order * (degree - g) + 1) for g in range(total.max() + 1))
        rows = np.concatenate([
            np.vstack([np.repeat(rows[:, sel], n, axis=1), np.tile(np.arange(n), len(sel))])
            for sel, n in groups
        ], axis=1)
        layout.append((rows.shape[1], groups))
    order = ((rows + per_order - 1) // per_order)[:, :, None]
    # one column per sign pattern of the modes (+-k_1, ..., +-k_D)
    signs = np.array(list(itertools.product((1, -1), repeat=dims)), dtype=np.int64).T
    signs = signs.reshape(dims, 1, 2**dims)
    index = (order * signs * z[:, :, None]).sum(axis=0) % size
    sine = (rows % 2 == 0)[:, :, None] & (order > 0) & (not even)
    # a constant row takes its one mode once: weight 0 on the sign -1
    weight = np.where(sine, 1j * signs, np.where(order > 0, 1.0, signs > 0)).prod(axis=0)
    for table in (nodes, index, weight, *(sel for _, groups in layout for sel, _ in groups)):
        table.flags.writeable = False
    return nodes, tuple(layout), index, weight


def _phase_kernel(values, dims, degree, even):
    """(read, width): read(phases) gives, at the (dims, count) drive phases,
    each function that takes the (N, ..., 4, 4) ``values`` at the nodes of
    _lattice(dims, degree, even), a (count, ..., 4, 4) stack, read off width
    basis functions; read(phases, g) gives function g of one lead axis alone."""
    _, layout, index, weight = _lattice(dims, degree, even)
    lead = values.shape[1:-2]
    values = values.reshape(len(values), -1)
    # FFT roundoff scales with the values, nearly their mean for weak drives,
    # and would bias every step alike: the mean goes to the constant mode
    mean = values.sum(axis=0) / len(values)  # values.mean(axis=0), without its Python wrapper
    fourier = np.fft.fft(values - mean, axis=0) / len(values)
    fourier[0] += mean
    # interleaved real/imaginary columns: one real GEMM yields complex matrices
    coeffs = (weight[:, :, None] * fourier[index]).sum(axis=1).view(float)

    def basis(phases):
        count = phases.shape[1]
        if not dims:
            return np.ones((1, count))
        # later drives' products are allocated before the trig rows, which
        # are freed first, so the read-off's output can take the rows'
        # memory: a hole left beneath it grows the heap past twice its
        # largest block, which glibc trims and the next call faults back in
        grown = [np.empty((width, count)) for width, _ in layout[1:]]
        # cos (and sin) of k theta from theta's, accurate to k ulp of 1:
        # cos(k theta) would lose k |theta| ulp when theta = Omega t is large;
        # every drive's rows in one pass
        trig = np.empty((layout[0][0], dims, count))
        trig[0] = 1.0
        if len(trig) > 1:
            c = np.cos(phases, out=trig[1])
            if even:  # T_k(cos theta) by the three-term recurrence
                twice = 2.0 * c
                for k in range(2, len(trig)):
                    np.multiply(twice, trig[k - 1], out=trig[k])
                    trig[k] -= trig[k - 2]
            else:  # by rotation
                s = np.sin(phases, out=trig[2])
                for k in range(3, len(trig), 2):
                    np.multiply(trig[k - 2], c, out=trig[k])
                    trig[k] -= trig[k - 1] * s
                    np.multiply(trig[k - 1], c, out=trig[k + 1])
                    trig[k + 1] += trig[k - 2] * s
        # the first drive's rows are the basis so far; each later drive's
        # kept products are formed, each group in one call
        rows = trig[:, 0]
        for d, (out, (_, groups)) in enumerate(zip(grown, layout[1:]), 1):
            at = 0
            for sel, n in groups:
                part = out[at : at + len(sel) * n].reshape(len(sel), n, -1)
                np.multiply(rows[sel, None], trig[:n, d], out=part)
                at += len(sel) * n
            rows = out
        return rows

    def read(phases, g=None):
        if g is None:
            return (basis(phases).T @ coeffs).view(complex).reshape(-1, *lead, 4, 4)
        return (basis(phases).T @ coeffs[:, 32 * g : 32 * g + 32]).view(complex).reshape(-1, 4, 4)

    return read, coeffs.shape[0]


def _block_kernel(factors, drives, h, m, degree, refinements=None):
    """(blocks, width): blocks(phases) gives, for each refinement g <
    refinements, the product of its m 2^g steps of h / 2^g that span a block
    of m steps of h, P(theta) = F_g(theta + (m 2^g - 1/2) delta_g - delta / 2)
    ... F_g(theta + delta_g / 2 - delta / 2), delta_d = Omega_d h and
    delta_g = delta / 2^g, at each block's first midpoint phases theta on the
    grid of h (at g = 0, F(theta + (m-1) delta) ... F(theta)): a
    (refinements, count, 4, 4) stack, or (count, 4, 4) without refinements
    (None), read off the width products of 1, cos and sin (module
    docstring), 2 degree + 1 for one drive, N for two."""
    nodes = _lattice(len(drives), degree, False)[0]
    delta = np.array([d.frequency * h for d in drives]).reshape(-1, 1, 1)
    values = []
    for g in range(refinements or 1):
        # step j at (j + 1/2) delta_g - delta / 2 past theta, j delta at g = 0:
        # each a multiple of delta / 2^(g+1), exactly
        start = 2.0 ** -(g + 1) - 0.5
        offsets = delta * np.arange(start, start + m, 2.0**-g)
        phases = (nodes[:, :, None] + offsets).reshape(len(drives), nodes.shape[1] * (m << g))
        values.append(_ordered_product(factors(phases, g).reshape(-1, m << g, 4, 4)))
    read, width = _phase_kernel(_stacked(values, refinements, 1), len(drives), degree, False)
    return (lambda phases: read(phases).swapaxes(0, -3)), width


def _grid_product(h0, drives, h, n_steps, split=None, refinements=None):
    """Exponential-midpoint products, from t = 0, of n_steps 2^g steps of
    h / 2^g for each refinement g < refinements, a (refinements, 4, 4) stack,
    or the (4, 4) product of n_steps steps of h without refinements (None);
    with ``split`` = k, the pair (products of each refinement's first k 2^g
    steps, the whole products), all from one factor sequence per refinement
    and one tree."""
    factors, width, norm = _step_kernel(h0, drives, h, refinements)
    grids = refinements or 1
    # a basis holds no more floats than a (_CHUNK, 4, 4) complex stack: the
    # chunks' bases, and the step basis of a block kernel's nodes; the real
    # forms of a stack's product hold no more than half its bytes and a block
    m, degree = _block_size(n_steps, len(drives), norm, min(_CHUNK, _CHUNK * 32 // width), grids)

    def phases(start, stride, n, step):
        t_mid = (start + np.arange(0, stride * n, stride) + 0.5) * step
        return np.array([d.frequency * t_mid + d.phase for d in drives]).reshape(-1, n)

    def steps(start, n):
        # grid steps start..start + n - 1, each the product of its 2^g steps of refinement g
        fine = (factors(phases(start << g, 1, n << g, h / 2**g), g).reshape(n, 1 << g, 4, 4) for g in range(grids))
        return _stacked([_ordered_product(f) for f in fine], refinements, 0)

    if m > 1:
        kernel, width = _block_kernel(factors, drives, h, m, degree, refinements)

        def blocks(start, n):
            return kernel(phases(start, m, n, h))
    else:
        blocks = steps
    # one factor sequence per refinement (module docstring): the first
    # r = k mod m steps, the whole blocks from step r, one of which ends at
    # step k, and the steps after the last block; the first k steps are its
    # first r + k // m factors
    r = split % m if split else 0
    count = (n_steps - r) // m
    prefix = None if split is None else split // m
    total = head = _EYE
    # at most _CHUNK of the finest refinement's steps at a time, to bound the
    # memory of the factor stacks
    chunk = max(1, min(_CHUNK // m, _CHUNK * 32 // width) >> (grids - 1))
    for first in range(0, max(count, 1), chunk):
        last, ahead = min(first + chunk, count), r if first == 0 else 0
        pieces = [(steps, 0, ahead), (blocks, r + first * m, last - first),
                  (steps, r + last * m, n_steps - r - last * m if last == count else 0)]
        stack = [read(start, n) for read, start, n in pieces if n]  # the empty ones left out
        stack = stack[0] if len(stack) == 1 else np.concatenate(stack, axis=-3)
        if prefix is not None and (first < prefix <= last or prefix == first == 0):
            product, head = _ordered_product(stack, ahead + prefix - first)
            head = head @ total
        else:
            product = _ordered_product(stack)
        total = product @ total
    return total if split is None else (head, total)


def _partial_step(h0, drives, t, delta):
    """exp(-i delta H(t)): one exponential-midpoint step off the grid, with
    H(t) = h0 + sum_d A_d cos(Omega_d t + phi_d) O_d, taken as
    1 + V diag(exp(-i delta w) - 1) V^dagger from the eigensystem of its
    Hermitian part, which keeps the eigenvectors' roundoff to the size of
    the step's rotation; refused where expm4 would refuse delta H."""
    h = h0 + sum(d.amplitude * np.cos(d.frequency * t + d.phase) * d.operator for d in drives)
    with np.errstate(over="ignore"):  # a row sum beyond the float range is inf
        norm = delta * float(np.abs(h).sum(axis=-1).max())
    if not norm <= _MAX_NORM:  # also a nan or inf entry
        # delta < h, but the step kernel bounds the drives' column sums, and
        # their row sums may exceed them within HERMITIAN_TOL
        raise StepTooLarge(f"a step of {delta:.3g} s needs more than {_MAX_SQUARINGS} squarings")
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    theta = delta * w  # exp(-i theta) - 1 = -2 sin^2(theta / 2) - i sin theta
    return _EYE + (v * (-2.0 * np.sin(theta / 2.0) ** 2 - 1j * np.sin(theta))) @ v.conj().T


def _drive_period(drives):
    """T_d = 2 pi / |Omega| when all drives share one nonzero |Omega|, else None."""
    rates = {abs(d.frequency) for d in drives}
    if len(rates) != 1 or 0.0 in rates:
        return None
    return 2.0 * np.pi / rates.pop()


def _step_count(span, target):
    """max(ceil(span / target), 1), the steps of at most ``target`` s that
    cover ``span`` s; StepTooLarge above _MAX_STEPS of them."""
    span, target = float(span), float(target)  # a Python float quotient overflows to inf quietly
    steps = span / target if target > 0.0 else math.inf
    if not steps <= _MAX_STEPS:
        raise StepTooLarge(f"a grid of {span:.3g} s in steps of at most {target:.3g} s"
                           " needs more than 2^53 steps")
    return max(math.ceil(steps), 1)


def integrate_lab_frame(system: DrivenSystem, n_steps=None) -> np.ndarray:
    """Propagator U(T, 0) of the full time-dependent Hamiltonian.

    Without ``n_steps``, a drive of one frequency makes H(t) periodic with
    T_d = 2 pi / |Omega|: one period is integrated with the largest step
    not above system.default_step() that divides T_d and raised to the
    power N = floor(T / T_d) by repeated squaring; the remainder
    tau = T - N T_d reuses the period's grid (see the module docstring).
    With N = 0, several drive frequencies or none, the step divides T.
    ``n_steps``, an integer in 1..2^53 (else ValueError), overrides the step
    rule and always integrates the whole grid of T (convergence studies).
    Raises StepTooLarge when a grid needs more than 2^53 steps, when the
    power overflows double precision (from about 1e16 periods on the
    default spin), or when one step's norm ||-i h H(t)|| needs more than
    _MAX_SQUARINGS squarings.
    """
    if n_steps is not None and not (isinstance(n_steps, (int, np.integer)) and 1 <= n_steps <= _MAX_STEPS):
        raise ValueError(f"n_steps must be an integer in 1..2^53, got {n_steps!r}")
    drives = system.drives
    period = _drive_period(drives) if n_steps is None else None
    periods = int(system.duration // period) if period else 0
    if not periods:
        count = int(n_steps) if n_steps is not None else _step_count(system.duration, system.default_step())
        return _whole_grids(system, count)
    count = _step_count(period, system.default_step())
    h = period / count
    # H(t + T_d) = H(t): the remainder is the period's first tau, its first
    # k steps and one step of delta; tau <= 0 (rounding) leaves none, and
    # k <= count holds when tau has lost its digits at huge N
    tau = system.duration - periods * period
    k = min(int(tau // h), count) if tau > 0.0 else 0
    delta = tau - k * h
    h0 = system._hermitian_h0
    head, one_period = _grid_product(h0, drives, h, count, k)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.linalg.matrix_power(one_period, periods)
    # checked before the remainder: near overflow it is garbage
    if not np.isfinite(total).all():
        raise StepTooLarge(
            f"the power of {periods:.3g} drive periods of {count} steps each"
            " overflows double precision"
        )
    if delta > 0.0:
        head = _partial_step(h0, drives, k * h + delta / 2.0, delta) @ head
    # each route re-projects once: see the module docstring
    return _project_unitary(head @ total)


def _whole_grids(system, n_steps, refinements=None):
    """U(T, 0) of ``system`` on its whole grid of n_steps 2^g steps for each
    refinement g < refinements, a (refinements, 4, 4) stack, or on n_steps
    steps without refinements (None), each projected."""
    return _project_unitary(_grid_product(system._hermitian_h0, system.drives, system.duration / n_steps,
                                          n_steps, None, refinements))


def to_interaction_frame(u, e: EigenSystem, t, t0=0.0) -> np.ndarray:
    """U* = D(t - t0)^{-1} U, the propagator co-rotating with H0."""
    d = free_evolution(e, float(t) - float(t0))
    return d.conj().T @ np.asarray(u, dtype=complex)


def propagator_infidelity(u, v) -> float:
    """1 - |tr(U^dagger V)| / 4; zero iff U = e^{i theta} V."""
    overlap = np.trace(np.asarray(u).conj().T @ np.asarray(v))
    return float(1.0 - abs(overlap) / 4.0)


def drive_for_pulse(
    params: SpinParameters, e: EigenSystem, transition, axis="Y", phase=0.0, flip=np.pi
) -> DrivenSystem:
    """Lab-frame realization of one selective pulse, in the eigenbasis.

    The cosine phase is the engine phase plus the axis shift, plus pi/2
    and arg(element), so the realized rotation matches the ideal
    propagator; the duration and its refusals are the engine's.
    """
    line = _normalize_transition(transition)
    axis = _normalize_axis(axis)
    duration = _pulse_length(params, e, line, axis, flip)
    element = transition_matrix_element(e, line, axis)
    drive = DriveTerm(
        operator=e.axis_operator(axis),
        amplitude=2.0 * params.gamma * params.h_rf,
        frequency=e.transitions._omegas[line],
        phase=float(phase) + (AXIS_SHIFT[axis] + np.pi / 2.0) + float(np.angle(element)),
    )
    return DrivenSystem(h0=np.diag(e.energies).astype(complex), drives=(drive,), duration=duration)


def _drive_at_ratio(params: SpinParameters, e, line, axis, ratio, phase=0.0, flip=np.pi):
    """drive_for_pulse on a checked line with h_rf set so gamma * h_rf * |element|
    = ratio * min_gap; ValueError naming the ratio unless it is finite and > 0
    and the pulse it sets is realizable (drive amplitude and duration finite)."""
    if not (math.isfinite(ratio := float(ratio)) and ratio > 0.0):
        raise ValueError(f"ratio must be finite and > 0, got {ratio}")
    element = abs(_drivable_element(e, line, axis))
    min_gap, _ = e.transitions._nearest(line)
    try:  # gamma * element may underflow to zero, h_rf overflow
        scaled = replace(params, h_rf=ratio * min_gap / (params.gamma * element))
        _pulse_length(scaled, e, line, axis, flip)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"ratio {ratio} gives a drive amplitude or pulse duration beyond the float range") from exc
    return drive_for_pulse(scaled, e, line, axis, phase, flip)


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
    line, axis = _normalize_transition(transition), _normalize_axis(axis)
    if e is None:
        e = closed_form_eigensystem(params)
    system = _drive_at_ratio(params, e, line, axis, ratio, phase, flip)
    u_lab = integrate_lab_frame(system)
    u_int = to_interaction_frame(u_lab, e, system.duration)
    v = single_frequency_propagator(e, line, axis, phase, flip)
    return propagator_infidelity(u_int, v)


def rwa_sweep(params: SpinParameters, transition=(1, 2), ratios=(1e-2, 1e-3, 1e-4)):
    """[(ratio, infidelity)] of a Y pi pulse on ``transition`` at each drive ratio."""
    e = closed_form_eigensystem(params)
    return [(float(r), rwa_infidelity(params, e, transition, r)) for r in ratios]


def convergence_study(
    params: SpinParameters,
    transition=(1, 2),
    ratio=1e-2,
    axis="Y",
    flip=np.pi,
    refinements=2,
):
    """Observed order of the integrator on a resonant pulse.

    Integrates with n, 2n, 4n, ... steps, all grids in one pass (module
    docstring), each as integrate_lab_frame(n_steps=...) would to roundoff,
    and returns a dict with the pairwise-deviation order estimates and the
    deviation ratios against the Richardson-extrapolated reference.  Raises
    ValueError unless ``refinements`` is an integer >= 1 (the reference
    needs two runs) whose finest grid has at most 2^53 steps.
    """
    if not isinstance(refinements, (int, np.integer)):
        raise ValueError(f"refinements must be an integer, got {refinements!r}")
    if refinements < 1:
        raise ValueError(f"refinements must be >= 1, got {refinements}")
    refinements = int(refinements)
    line, axis = _normalize_transition(transition), _normalize_axis(axis)
    e = closed_form_eigensystem(params)
    system = _drive_at_ratio(params, e, line, axis, ratio, flip=flip)
    base = _step_count(system.duration, system.default_step())
    if base > _MAX_STEPS >> refinements:
        raise ValueError(f"refinements {refinements} make a finest grid of {base} * 2^{refinements}"
                         " steps, more than 2^53")
    propagators = _whole_grids(system, base, refinements + 1)
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
