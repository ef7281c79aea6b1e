import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from vspin import lab_frame
from vspin import (
    DrivenSystem,
    DriveTerm,
    SpinParameters,
    build_static_hamiltonian,
    closed_form_eigensystem,
    convergence_study,
    drive_for_pulse,
    expm4,
    free_evolution,
    integrate_lab_frame,
    projector,
    propagator_infidelity,
    rwa_infidelity,
    single_frequency_propagator,
    to_interaction_frame,
)
from vspin.lab_frame import _params_for_ratio


class TestExpm4:
    def test_against_scipy(self, rng):
        for scale in (0.01, 0.5, 3.0, 20.0):
            a = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            assert np.max(np.abs(expm4(a) - scipy.linalg.expm(a))) <= 1e-12 * np.max(
                np.abs(scipy.linalg.expm(a))
            )

    def test_batched(self, rng):
        stack = 0.3 * (rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4)))
        out = expm4(stack)
        for k in range(7):
            assert np.max(np.abs(out[k] - scipy.linalg.expm(stack[k]))) <= 1e-13

    def test_unitary_for_skew_hermitian(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        u = expm4(-1j * 0.3 * h)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-14


class TestInfidelity:
    def test_self_is_zero(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = expm4(-1j * (a + a.conj().T))
        assert propagator_infidelity(u, u) == pytest.approx(0.0, abs=1e-14)

    def test_global_phase_invariance(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = expm4(-1j * (a + a.conj().T))
        assert propagator_infidelity(u, np.exp(1.3j) * u) == pytest.approx(0.0, abs=1e-14)

    def test_identity_vs_cnot(self):
        cnot = (projector(3, 3).matrix + projector(4, 4).matrix
                + projector(2, 1).matrix - projector(1, 2).matrix)
        assert propagator_infidelity(np.eye(4), cnot) == pytest.approx(0.5, abs=1e-14)


class TestIntegrator:
    def test_zero_drive_is_free_evolution(self, params, eigen):
        t = 3.7
        system = DrivenSystem(h0=np.diag(eigen.energies), drives=(), duration=t)
        u = integrate_lab_frame(system)
        assert np.max(np.abs(u - free_evolution(eigen, t))) <= 1e-10

    def test_zero_drive_chi_basis(self, params):
        h = build_static_hamiltonian(params)
        t = 1.9
        u = integrate_lab_frame(DrivenSystem(h0=h, drives=(), duration=t))
        assert np.max(np.abs(u - scipy.linalg.expm(-1j * h * t))) <= 1e-10

    def test_zero_duration_identity(self, params):
        h = build_static_hamiltonian(params)
        assert np.array_equal(
            integrate_lab_frame(DrivenSystem(h0=h, duration=0.0)), np.eye(4, dtype=complex)
        )

    def test_unitarity_defect(self, params, eigen):
        p = SpinParameters(0.1, 1.0, 0.5, h_rf=1e-3)
        system = drive_for_pulse(p, eigen, (1, 2), "Y", 0.0, np.pi)
        u = integrate_lab_frame(system)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10

    def test_step_override_converges(self, params, eigen):
        p = SpinParameters(0.1, 1.0, 0.5, h_rf=2e-3)
        system = drive_for_pulse(p, eigen, (1, 2), "Y", 0.0, np.pi)
        coarse = integrate_lab_frame(system, n_steps=2000)
        fine = integrate_lab_frame(system, n_steps=16000)
        finer = integrate_lab_frame(system, n_steps=32000)
        assert np.max(np.abs(fine - finer)) < np.max(np.abs(coarse - finer))

    def test_validation(self):
        with pytest.raises(ValueError):
            DrivenSystem(h0=np.eye(3), duration=1.0)
        with pytest.raises(ValueError):
            DrivenSystem(h0=np.eye(4), duration=-1.0)
        with pytest.raises(ValueError):
            DrivenSystem(h0=np.eye(4), duration=1.0, step=0.0)
        with pytest.raises(ValueError):
            DriveTerm(operator=np.eye(4), amplitude=np.inf, frequency=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_name_their_field(self, bad):
        h0 = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
        poisoned = h0.copy()
        poisoned[0, 1] = poisoned[1, 0] = bad
        with pytest.raises(ValueError, match=r"^step must be finite"):
            DrivenSystem(h0=h0, duration=1.0, step=bad)
        with pytest.raises(ValueError, match=r"^h0 must be finite"):
            DrivenSystem(h0=poisoned, duration=1.0)
        with pytest.raises(ValueError, match=r"^drive operator must be finite"):
            DriveTerm(operator=poisoned, amplitude=1.0, frequency=1.0)


class TestInteractionFrame:
    def test_free_evolution_maps_to_identity(self, eigen):
        t = 2.6
        u = free_evolution(eigen, t)
        assert np.max(np.abs(to_interaction_frame(u, eigen, t) - np.eye(4))) <= 1e-12

    def test_preserves_unitarity(self, eigen, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = expm4(-1j * (a + a.conj().T))
        w = to_interaction_frame(u, eigen, 1.23, 0.1)
        assert np.max(np.abs(w.conj().T @ w - np.eye(4))) <= 1e-13


class TestRotatingWaveValidation:
    def test_moderate_ratio_infidelity(self, params, eigen):
        # ratio 1e-2 keeps the run cheap; the full sweep lives in acceptance
        infid = rwa_infidelity(params, eigen, (1, 2), ratio=1e-2)
        assert infid <= 1e-1

    def test_interaction_frame_matches_ideal_pulse(self, params, eigen):
        p = SpinParameters(0.1, 1.0, 0.5, h_rf=5e-4)
        system = drive_for_pulse(p, eigen, (1, 2), "Y", 0.0, np.pi)
        u = to_interaction_frame(integrate_lab_frame(system), eigen, system.duration)
        v = single_frequency_propagator(eigen, (1, 2), "Y", 0.0, np.pi)
        assert propagator_infidelity(u, v) <= 5e-3

    def test_engine_phase_is_realized(self, params, eigen):
        # the same pulse at engine phase pi/3 must match V at that phase,
        # not at phase zero
        p = SpinParameters(0.1, 1.0, 0.5, h_rf=5e-4)
        phase = np.pi / 3
        system = drive_for_pulse(p, eigen, (1, 2), "Y", phase, np.pi)
        u = to_interaction_frame(integrate_lab_frame(system), eigen, system.duration)
        good = single_frequency_propagator(eigen, (1, 2), "Y", phase, np.pi)
        bad = single_frequency_propagator(eigen, (1, 2), "Y", 0.0, np.pi)
        assert propagator_infidelity(u, good) <= 5e-3
        assert propagator_infidelity(u, bad) > 0.1

    def test_x_axis_pulse(self, params, eigen):
        p = SpinParameters(0.1, 1.0, 0.5, h_rf=5e-4)
        system = drive_for_pulse(p, eigen, (1, 2), "X", 0.0, np.pi)
        u = to_interaction_frame(integrate_lab_frame(system), eigen, system.duration)
        v = single_frequency_propagator(eigen, (1, 2), "X", 0.0, np.pi)
        assert propagator_infidelity(u, v) <= 5e-3

    def test_convergence_order(self, params):
        study = convergence_study(params, (1, 2), ratio=1e-2, refinements=2)
        assert study["orders"][0] >= 1.9
        assert study["richardson_ratios"][0] >= 3.5


LINES = ((1, 2), (3, 4), (1, 3), (2, 4))  # the drivable lines


def _seeded_pulse(rng, transition, axis, ratio=0.02):
    """A drive_for_pulse system on a seeded spin, with a random phase and flip."""
    omega_q = rng.uniform(0.5, 2.0)
    p = SpinParameters(omega0=rng.uniform(0.2, 0.35) * omega_q, omegaQ=omega_q,
                       eta=rng.uniform(0.5, 0.9))
    e = closed_form_eigensystem(p)
    scaled = _params_for_ratio(p, e, transition, axis, ratio)
    return drive_for_pulse(scaled, e, transition, axis, rng.uniform(0.0, 2.0 * np.pi),
                           rng.uniform(0.25, 0.75) * np.pi)


def _period(system):
    return 2.0 * np.pi / abs(system.drives[0].frequency)


def _pulse_cases():
    rng = np.random.default_rng(20261017)
    cases = {f"{m}{n}-{axis}": _seeded_pulse(rng, (m, n), axis) for m, n in LINES for axis in "XY"}
    short = _seeded_pulse(rng, (1, 2), "Y")
    cases["shorter-than-a-period"] = replace(short, duration=0.6 * _period(short))
    whole = _seeded_pulse(rng, (3, 4), "X")
    cases["whole-periods"] = replace(whole, duration=3 * _period(whole))
    stepped = _seeded_pulse(rng, (1, 3), "Y")
    cases["explicit-step"] = replace(stepped, step=0.7 * stepped.default_step())
    # thousands of periods: N-th power of one period, projected once
    cases["weak-many-periods"] = _seeded_pulse(rng, (1, 2), "Y", ratio=1e-4)
    return cases


PULSE_CASES = _pulse_cases()


def _count_grid_steps(monkeypatch):
    """Record the step count of each grid the integrator multiplies out."""
    counts = []
    real = lab_frame._grid_product

    def counting(h0, drives, h, n_steps):
        counts.append(n_steps)
        return real(h0, drives, h, n_steps)

    monkeypatch.setattr(lab_frame, "_grid_product", counting)
    return counts


class TestPeriodPath:
    """One integrated drive period raised to the N-th power, against the full grid."""

    @pytest.mark.parametrize("system", list(PULSE_CASES.values()), ids=list(PULSE_CASES))
    def test_matches_full_grid_within_its_error(self, system):
        target = system.step if system.step is not None else system.default_step()
        n = int(np.ceil(system.duration / target))
        u = integrate_lab_frame(system)
        coarse = integrate_lab_frame(system, n_steps=n)
        fine = integrate_lab_frame(system, n_steps=2 * n)
        assert np.max(np.abs(u - coarse)) <= 0.1 * np.max(np.abs(coarse - fine))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10

    def test_whole_periods_leave_no_tail(self, monkeypatch):
        system = PULSE_CASES["whole-periods"]
        period = _period(system)
        assert system.duration // period == 3 and system.duration - 3 * period == 0.0
        counts = _count_grid_steps(monkeypatch)
        integrate_lab_frame(system)
        assert sum(counts) == int(np.ceil(period / system.default_step()))


class TestRouting:
    def test_explicit_steps_take_the_full_grid(self, monkeypatch):
        system = _seeded_pulse(np.random.default_rng(1), (1, 2), "X")
        counts = _count_grid_steps(monkeypatch)
        integrate_lab_frame(system, n_steps=4321)
        assert sum(counts) == 4321

    def test_two_frequencies_take_the_full_grid(self, monkeypatch, eigen):
        p = SpinParameters(0.1, 1.0, 0.5, h_rf=2e-3)
        a = drive_for_pulse(p, eigen, (1, 2), "Y", 0.0, np.pi / 4)
        b = drive_for_pulse(p, eigen, (3, 4), "Y", 0.0, np.pi / 4)
        system = DrivenSystem(h0=a.h0, drives=a.drives + b.drives, duration=a.duration)
        counts = _count_grid_steps(monkeypatch)
        integrate_lab_frame(system)
        assert sum(counts) == int(np.ceil(system.duration / system.default_step()))

    def test_one_frequency_integrates_about_one_period(self, monkeypatch):
        system = _seeded_pulse(np.random.default_rng(2), (2, 4), "Y")
        assert system.duration >= 10 * _period(system)
        per = int(np.ceil(_period(system) / system.default_step()))
        counts = _count_grid_steps(monkeypatch)
        integrate_lab_frame(system)
        assert sum(counts) <= 2 * per + 2


def _kernel_cases():
    """(h0, drives, h): weak drives at r = 1e-2 on 0 to 3 lines, and a drive
    of amplitude W (the spectral width) on the default step and on a step
    coarse enough that the kernel squares its factors."""
    rng = np.random.default_rng(20261018)
    omega_q = rng.uniform(0.5, 2.0)
    p = SpinParameters(omega0=rng.uniform(0.2, 0.35) * omega_q, omegaQ=omega_q,
                       eta=rng.uniform(0.5, 0.9))
    e = closed_form_eigensystem(p)
    weak = [
        drive_for_pulse(_params_for_ratio(p, e, line, axis, 1e-2), e, line, axis,
                        rng.uniform(0.0, 2.0 * np.pi)).drives[0]
        for line, axis in zip(LINES, "YXY")
    ]
    h0 = np.diag(e.energies).astype(complex)
    strong = replace(weak[0], amplitude=float(np.ptp(e.energies)))
    cases = {}
    for k in range(4):
        drives = tuple(weak[:k])
        cases[f"{k}-weak"] = (h0, drives, DrivenSystem(h0=h0, drives=drives).default_step())
    step = DrivenSystem(h0=h0, drives=(strong,)).default_step()
    cases["strong"] = (h0, (strong,), step)
    cases["strong-coarse"] = (h0, (strong,), 100 * step)
    return cases


KERNEL_CASES = _kernel_cases()


def _phases(drives, t):
    """The (D, count) drive phases Omega_d t + phi_d the kernels take."""
    return np.array([d.frequency * t + d.phase for d in drives]).reshape(len(drives), len(t))


def _hamiltonian(h0, drives, t):
    return h0 + sum(d.amplitude * np.cos(d.frequency * t + d.phase) * d.operator for d in drives)


class TestStepKernel:
    """Chebyshev step factors against scipy's matrix exponential."""

    @pytest.mark.parametrize("case", list(KERNEL_CASES.values()), ids=list(KERNEL_CASES))
    def test_factors_match_expm(self, case):
        h0, drives, h = case
        t_mid = np.random.default_rng(len(drives)).uniform(0.0, 1e3, size=40)
        factors, *_ = lab_frame._step_kernel(h0, drives, h)
        for t, u in zip(t_mid, factors(_phases(drives, t_mid))):
            expected = scipy.linalg.expm(-1j * h * _hamiltonian(h0, drives, t))
            assert np.max(np.abs(u - expected)) <= 1e-14

    def test_coarse_step_squares(self):
        _, (drive,), h = KERNEL_CASES["strong-coarse"]
        norm = h * drive.amplitude * np.max(np.sum(np.abs(drive.operator), axis=0))
        assert norm > 2.0 * lab_frame._CHEB_NORM

    @pytest.mark.parametrize("case", list(KERNEL_CASES.values()), ids=list(KERNEL_CASES))
    def test_integrate_matches_expm_product(self, case):
        h0, drives, h = case
        u = integrate_lab_frame(DrivenSystem(h0=h0, drives=drives, duration=50 * h), n_steps=50)
        expected = np.eye(4)
        for t in (np.arange(50) + 0.5) * h:
            expected = scipy.linalg.expm(-1j * h * _hamiltonian(h0, drives, t)) @ expected
        assert np.max(np.abs(u - expected)) <= 1e-12


def _forced_block(monkeypatch, m):
    """Make _grid_product take m-step blocks whatever the grid length."""
    monkeypatch.setattr(lab_frame, "_block_size",
                        lambda n_steps, dims, norm, chunk: (m, lab_frame._chebyshev_degree(m * norm)))


# (case, block length): the coarse strong step, whose blocks the integrator
# never takes, with short blocks only
BLOCK_CASES = [(name, m) for name in KERNEL_CASES for m in (2, 8) if (name, m) != ("strong-coarse", 8)]
LONG_GRID = lab_frame._CHUNK + 1000


class TestBlockKernel:
    """m-step blocks read off a Fourier series in the drive phases."""

    @pytest.mark.parametrize(("name", "m"), BLOCK_CASES, ids=[f"{n}-m{m}" for n, m in BLOCK_CASES])
    def test_blocks_match_factor_products(self, name, m):
        h0, drives, h = KERNEL_CASES[name]
        factors, _, norm = lab_frame._step_kernel(h0, drives, h)
        blocks, _ = lab_frame._block_kernel(factors, drives, h, m, lab_frame._chebyshev_degree(m * norm))
        theta = np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, size=(len(drives), 40))
        delta = np.array([d.frequency * h for d in drives]).reshape(-1, 1)
        expected = np.eye(4)
        for j in range(m):
            expected = factors(theta + j * delta) @ expected
        assert np.max(np.abs(blocks(theta) - expected)) <= 1e-14

    @pytest.mark.parametrize("name", ["0-weak", "1-weak", "2-weak"])
    @pytest.mark.parametrize(("m", "n_steps"), [
        (64, 40),  # shorter than one block
        (64, 64 * 37),  # whole blocks
        (64, 64 * 37 + 29),  # whole blocks and a remainder
        (64, LONG_GRID),  # more than one chunk
        (1, 64 * 37 + 29),  # one factor per step
        (None, 3000),  # the integrator's own block length and degree
    ])
    def test_grid_matches_single_steps(self, monkeypatch, name, m, n_steps):
        h0, drives, h = KERNEL_CASES[name]
        factors, *_ = lab_frame._step_kernel(h0, drives, h)
        steps = factors(_phases(drives, (np.arange(n_steps) + 0.5) * h))
        expected = lab_frame._project_unitary(lab_frame._ordered_product(steps))
        if m is not None:
            _forced_block(monkeypatch, m)
        # the grid's own drift is Hermitian roundoff that the integrator's one
        # final projection removes, so both sides are compared projected
        u = lab_frame._project_unitary(lab_frame._grid_product(h0, drives, h, n_steps))
        assert np.max(np.abs(u - expected)) <= 1e-13

    @pytest.mark.parametrize(("name", "n_steps", "blocks"), [
        ("strong-coarse", LONG_GRID, False),  # one step's drive norm is beyond _CHEB_NORM
        ("strong", None, False),  # one drive period: the block set-up does not pay
        ("3-weak", 3000, False),  # L^3 node steps do not pay
        ("1-weak", 3000, True),
        ("0-weak", 3000, True),
    ])
    def test_block_length(self, name, n_steps, blocks):
        h0, drives, h = KERNEL_CASES[name]
        _, width, norm = lab_frame._step_kernel(h0, drives, h)
        if n_steps is None:
            n_steps = int(np.ceil(2.0 * np.pi / abs(drives[0].frequency) / h))
        chunk = min(lab_frame._CHUNK, lab_frame._CHUNK * 32 // width)
        m, _ = lab_frame._block_size(n_steps, len(drives), norm, chunk)
        assert (m > 1) == blocks


class TestProjection:
    """The integrator re-projects onto the unitaries once, whatever the route."""

    @pytest.mark.parametrize(("name", "n_steps"), [
        ("12-Y", None),  # whole periods and a tail
        ("whole-periods", None),
        ("shorter-than-a-period", None),  # the default whole grid
        ("12-Y", LONG_GRID),  # explicit steps, more than one chunk
    ])
    def test_projects_once(self, monkeypatch, name, n_steps):
        _forced_block(monkeypatch, 1)  # one factor per step: LONG_GRID takes two chunks
        calls = []
        real = lab_frame._project_unitary
        monkeypatch.setattr(lab_frame, "_project_unitary", lambda u: calls.append(u) or real(u))
        u = integrate_lab_frame(PULSE_CASES[name], n_steps=n_steps)
        assert len(calls) == 1
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-14


def _chebyshev_degree_loop(norm):
    """The degree rule as a running product of the tail's factors: the
    reference below norm ~1,400, above which the product overflows to inf
    and the loop never ends."""
    degree, tail = 0, norm / 2.0
    while tail > lab_frame._CHEB_TAIL:
        degree += 1
        tail *= norm / (2.0 * (degree + 1))
    return degree


class TestChebyshevDegree:
    def test_matches_the_running_product_up_to_the_callers_bound(self):
        # every caller passes a norm in (0, _CHEB_NORM]
        norms = np.concatenate([
            np.linspace(0.0, lab_frame._CHEB_NORM, 20001)[1:],
            np.geomspace(1e-25, lab_frame._CHEB_NORM, 2000),
        ])
        for norm in norms:
            assert lab_frame._chebyshev_degree(float(norm)) == _chebyshev_degree_loop(norm)

    def test_large_norm_terminates(self):
        degree = lab_frame._chebyshev_degree(1500.0)
        log_tail = (np.array([degree, degree + 1]) * np.log(750.0)
                    - scipy.special.gammaln([degree + 1, degree + 2]))
        # the tail of degree K is (norm/2)^(K+1) / (K+1)!: above the bound at
        # K - 1, below it at K
        assert log_tail[1] <= np.log(lab_frame._CHEB_TAIL) < log_tail[0]

    @pytest.mark.parametrize("norm", [np.nan, np.inf])
    def test_non_finite_norm_raises(self, norm):
        with pytest.raises(ValueError):
            lab_frame._chebyshev_degree(norm)

    @pytest.mark.parametrize("norm", [1e306, 1.7e308, np.finfo(float).max])
    def test_degree_beyond_the_float_range_raises(self, norm):
        # the degree ~ e * norm / 2 no longer fits a float for lgamma
        with pytest.raises(ValueError, match=re.escape(repr(float(norm)))):
            lab_frame._chebyshev_degree(float(norm))
