import math
import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from vspin import lab_frame
from vspin import (
    DrivenSystem,
    DriveTerm,
    NotHermitian,
    SpinParameters,
    StepTooLarge,
    build_static_hamiltonian,
    closed_form_eigensystem,
    convergence_study,
    diagonalize,
    drive_for_pulse,
    expm4,
    free_evolution,
    integrate_lab_frame,
    projector,
    propagator_infidelity,
    rwa_infidelity,
    single_frequency_propagator,
    spin_operators,
    to_interaction_frame,
)
from vspin.lab_frame import _drive_at_ratio
from vspin.spin_system import HERMITIAN_TOL, EigenSystem


def _expm4_out_of_place(a):
    """expm4's Taylor loop as it was written before it worked in place."""
    a = np.asarray(a, dtype=complex)
    stack = a[None, :, :] if a.ndim == 2 else a
    theta = float(np.max(np.sum(np.abs(stack), axis=-1)))
    degree, squarings = lab_frame._taylor_degree(max(theta, np.finfo(float).tiny))
    scaled = stack / (2.0**squarings)
    result = np.broadcast_to(np.eye(4, dtype=complex), scaled.shape) + scaled
    term = scaled
    for k in range(2, degree + 1):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result[0] if a.ndim == 2 else result


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4)])
    def test_non_finite_refused(self, bad, shape):
        a = np.zeros(shape, dtype=complex)
        a[..., 1, 2] = bad
        with pytest.raises(ValueError, match=r"^a must be finite"):
            expm4(a)

    @pytest.mark.parametrize("norm", [1e100, 1e300])
    def test_norm_past_the_squaring_bound_refused(self, norm):
        # 2^s ulp reaches 1 after 52 squarings: the result would hold no digit
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1], a[1, 0] = -1j * norm, -1j * norm
        with pytest.raises(ValueError, match=r"^a must be finite"):
            expm4(a)

    @pytest.mark.parametrize("entries", [[1e308], [5e307], [1e308, 1e308]])
    def test_entries_near_the_float_range_refused(self, entries):
        a = np.zeros((4, 4), dtype=complex)
        a[0, : len(entries)] = entries
        with pytest.raises(ValueError, match=r"^a must be finite"):
            expm4(a)

    def test_taylor_loop_matches_the_out_of_place_loop_bytewise(self, rng):
        # every Taylor degree, with and without squarings, on 1 to 25 matrices
        for count in (1, 2, 5, 25):
            for scale in (0.005, 0.05, 0.3, 3.0, 40.0):
                shape = (count, 4, 4)
                a = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / 4.0
                assert expm4(a).tobytes() == _expm4_out_of_place(a).tobytes()
                assert expm4(a[0]).tobytes() == _expm4_out_of_place(a[0]).tobytes()

    def test_the_squaring_bound_is_the_last_norm_accepted(self):
        bound = lab_frame._TAYLOR_STEPS[-1][1] * 2.0**lab_frame._MAX_SQUARINGS
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1], a[1, 0] = -1j * bound, -1j * bound
        assert np.isfinite(expm4(a)).all()
        with pytest.raises(ValueError, match=r"^a must be finite"):
            expm4(a * (1.0 + 2.0**-52))


class TestInfidelity:
    def test_self_is_zero(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = expm4(-1j * (a + a.conj().T))
        assert propagator_infidelity(u, u) == pytest.approx(0.0, abs=1e-14)

    def test_global_phase_invariance(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = expm4(-1j * (a + a.conj().T))
        assert propagator_infidelity(u, np.exp(1.3j) * u) == pytest.approx(0.0, abs=1e-14)

    def test_never_negative(self):
        # |tr(U^dagger V)| of a unitary against its own projection or itself
        # times a phase may round a few ulp above 4: the floor makes it 0.0
        below = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u = expm4(-1j * (a + a.conj().T))
            for v in (lab_frame._project_unitary(u), np.exp(1.3j) * u):
                below += 1.0 - abs(np.trace(u.conj().T @ v)) / 4.0 < 0.0
                assert 0.0 <= propagator_infidelity(u, v) <= 1e-14
        assert below  # the floor was needed

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

    def test_zero_duration_identity(self, params, eigen):
        h = build_static_hamiltonian(params)
        assert np.array_equal(
            integrate_lab_frame(DrivenSystem(h0=h, duration=0.0)), np.eye(4, dtype=complex)
        )
        # a driven pulse of no length takes the general path, one step of 0 s
        p = SpinParameters(0.1, 1.0, 0.5, h_rf=1e-3)
        system = replace(drive_for_pulse(p, eigen, (1, 2), "Y", 0.0, np.pi), duration=0.0)
        for n_steps in (None, 1, 5):
            assert np.array_equal(integrate_lab_frame(system, n_steps), np.eye(4, dtype=complex))

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
            DriveTerm(operator=np.eye(4), amplitude=np.inf, frequency=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_name_their_field(self, bad):
        h0 = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
        poisoned = h0.copy()
        poisoned[0, 1] = poisoned[1, 0] = bad
        with pytest.raises(ValueError, match=r"^h0 must be finite"):
            DrivenSystem(h0=poisoned, duration=1.0)
        with pytest.raises(ValueError, match=r"^drive operator must be finite"):
            DriveTerm(operator=poisoned, amplitude=1.0, frequency=1.0)

    @pytest.mark.parametrize(("entry", "value"), [
        ((0, 0), np.nan), ((2, 2), np.inf), ((0, 1), complex(0.0, np.nan)), ((1, 3), complex(-np.inf, 1.0)),
    ])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_refusal_messages(self, entry, value, hermitian):
        # a nan or inf entry is refused as not finite before any Hermitian
        # check, whether or not the rest of the matrix is Hermitian
        base = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex) if hermitian else np.triu(np.ones((4, 4))) + 0j
        poisoned = base.copy()
        poisoned[entry] = value
        with pytest.raises(ValueError, match=r"^h0 must be finite$"):
            DrivenSystem(h0=poisoned, duration=1.0)
        with pytest.raises(ValueError, match=r"^drive operator must be finite$"):
            DriveTerm(operator=poisoned, amplitude=1.0, frequency=1.0)
        if not hermitian:
            with pytest.raises(ValueError, match=r"^h0 must be Hermitian within 1e-12 of its largest entry$"):
                DrivenSystem(h0=base, duration=1.0)
            with pytest.raises(ValueError, match=r"^drive operator must be Hermitian within 1e-12 of its largest entry$"):
                DriveTerm(operator=base, amplitude=1.0, frequency=1.0)

    def test_finite_entries_past_the_float_range_in_modulus_kept(self):
        # |1.5e308 (1 + i)| overflows to inf, but every entry is finite: not
        # refused as not finite
        big = np.zeros((4, 4), dtype=complex)
        big[0, 1], big[1, 0] = 1.5e308 + 1.5e308j, 1.5e308 - 1.5e308j
        with np.errstate(over="ignore"):
            assert DriveTerm(operator=big, amplitude=1.0, frequency=1.0).operator.tobytes() == big.tobytes()
            assert DrivenSystem(h0=big, duration=1.0).h0.tobytes() == big.tobytes()

    @pytest.mark.parametrize("lower", [1.5e308 - 1.5e308j, 0.0])
    def test_non_hermitian_past_the_float_range_in_modulus_refused(self, lower):
        # max|a| overflows, every entry is finite: the rule is taken on a/4,
        # where a defect of 1e300 (or of the big pair itself) breaks it
        big = np.zeros((4, 4), dtype=complex)
        big[0, 1], big[1, 0], big[2, 3] = 1.5e308 + 1.5e308j, lower, 1e300
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"^h0 must be Hermitian within 1e-12 of its largest entry$"):
                DrivenSystem(h0=big, duration=1.0)
            with pytest.raises(ValueError, match=r"^drive operator must be Hermitian within 1e-12 of its largest entry$"):
                DriveTerm(operator=big, amplitude=1.0, frequency=1.0)
            with pytest.raises(NotHermitian, match=r"^max \|\(H/4\) - \(H/4\)\^dagger\| = "):
                diagonalize(big)
            # a defect of 5 is within 1e-12 of |1.5e308 (1 + i)|: kept
            big[1, 0], big[2, 3] = 1.5e308 - 1.5e308j, 5.0
            assert DrivenSystem(h0=big, duration=1.0).h0.tobytes() == big.tobytes()
            assert DriveTerm(operator=big, amplitude=1.0, frequency=1.0).operator.tobytes() == big.tobytes()

    def test_non_hermitian_drive_operator_refused(self):
        with pytest.raises(ValueError, match=r"^drive operator must be Hermitian"):
            DriveTerm(operator=np.triu(np.ones((4, 4))), amplitude=0.05, frequency=1.0)

    def test_non_hermitian_h0_refused(self):
        # the integrator and default_step would use its Hermitian part
        with pytest.raises(ValueError, match=r"^h0 must be Hermitian within 1e-12 of its largest entry$"):
            DrivenSystem(h0=np.triu(np.ones((4, 4))), duration=1.0)
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = 2.0 * HERMITIAN_TOL
        DrivenSystem(h0=np.eye(4) + skew / 2.0, duration=1.0)
        with pytest.raises(ValueError, match=r"^h0 must be Hermitian"):
            DrivenSystem(h0=np.eye(4) + skew, duration=1.0)

    def test_drive_operator_hermitian_to_rounding_kept_as_given(self, eigen):
        # diagonalize's rule: |O - O^dagger| up to HERMITIAN_TOL * max|O|
        operator = eigen.to_eigen(spin_operators()[0])
        assert np.max(np.abs(operator - operator.conj().T)) > 0.0
        drive = DriveTerm(operator=operator, amplitude=0.05, frequency=1.0)
        assert drive.operator.tobytes() == operator.tobytes()
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = 2.0 * HERMITIAN_TOL
        DriveTerm(operator=np.eye(4) + skew / 2.0, amplitude=1.0, frequency=1.0)
        with pytest.raises(ValueError, match=r"^drive operator must be Hermitian"):
            DriveTerm(operator=np.eye(4) + skew, amplitude=1.0, frequency=1.0)

    @pytest.mark.parametrize(("amplitude", "step"), [(1e308, 10.0), (1e308, 1.0), (1e300, 1.0)])
    def test_step_past_the_squaring_bound_refused(self, params, amplitude, step):
        # a norm that overflows to inf, and a finite one needing ~1,000
        # squarings, in one step of ``step`` s
        drive = DriveTerm(operator=spin_operators()[0], amplitude=amplitude, frequency=1.0)
        system = DrivenSystem(h0=build_static_hamiltonian(params), drives=(drive,), duration=step)
        with pytest.raises(StepTooLarge, match="squarings"):
            integrate_lab_frame(system, n_steps=1)

    def test_partial_step_past_the_squaring_bound_refused(self):
        # default_step reads |amplitude| = 1, not ||O||: a period of 200
        # steps of 0.0314 s, each of norm 2.9e15, past the 9.7e14 that holds
        # the read-off's and expm4's squarings to 51 together, with or
        # without a remainder
        drive = DriveTerm(operator=5e16 * spin_operators()[0], amplitude=1.0, frequency=1.0)
        system = DrivenSystem(h0=np.zeros((4, 4)), drives=(drive,), duration=4.0 * np.pi)
        for duration in (4.0 * np.pi, 2.0 * np.pi * (2.0 + 0.5 / 200.0)):
            with pytest.raises(StepTooLarge, match=r"^a step of 0\.0314 s has norm 2\.93e\+15, which needs more than 51 squarings"):
                integrate_lab_frame(replace(system, duration=duration))
        # the remainder's half step is one more generator of the period's step
        # kernel, which refuses the grid's step first, with the same message
        with pytest.raises(StepTooLarge, match=r"^a step of 0\.0314 s has norm 2\.93e\+15, which needs more than 51 squarings"):
            lab_frame._step_kernel(system.h0, system.drives, 2.0 * np.pi / 200.0, None, (0.0, 0.0157))

    @pytest.mark.parametrize("amplitude", [1e308, 1e300])
    def test_default_step_past_the_step_count_refused(self, params, amplitude):
        # 1e308 rounds the default step to 0.0, and 1e300 asks for ~3e301
        # steps: both are refused before any grid is built
        drive = DriveTerm(operator=spin_operators()[0], amplitude=amplitude, frequency=1.0)
        system = DrivenSystem(h0=build_static_hamiltonian(params), drives=(drive,), duration=1.0)
        with pytest.raises(StepTooLarge, match=r"^a grid of 1 s in steps of at most \S+ s needs more than 2\^53 steps$"):
            integrate_lab_frame(system)
        with pytest.raises(StepTooLarge, match=r"2\^53 steps$"):
            integrate_lab_frame(replace(system, duration=100.0))  # the period's grid

    @pytest.mark.parametrize("n_steps", [0, -1, 2.5, 2**53 + 1, np.float64(3.0), "3"])
    def test_n_steps_must_be_an_integer_in_range(self, params, n_steps):
        system = DrivenSystem(h0=build_static_hamiltonian(params), duration=1.0)
        with pytest.raises(ValueError, match=r"^n_steps must be an integer in 1\.\.2\^53, got "):
            integrate_lab_frame(system, n_steps=n_steps)
        for n in (1, np.int64(3)):
            assert np.isfinite(integrate_lab_frame(system, n_steps=n)).all()

    def test_static_norm_counts_toward_the_squaring_bound(self, eigen):
        # a common energy offset only adds a global phase, but it sets the
        # norm the step kernel exponentiates
        def free(offset):
            h0 = np.diag(eigen.energies) + offset * np.eye(4)
            return integrate_lab_frame(DrivenSystem(h0=h0, duration=3.7))

        assert propagator_infidelity(free(1e10), free_evolution(eigen, 3.7)) <= 1e-10
        with pytest.raises(StepTooLarge, match=r"^a step of 3\.7 s has norm 3\.7e\+17"):
            free(1e17)


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

    @pytest.mark.parametrize("axis", ["X", "y"])
    def test_one_call_builds_the_eigenbasis_axis_operator_once(self, monkeypatch, params, axis):
        # the drive-ratio rescale, the pulse length and the drive all read
        # one cached <psi_m| I_axis |psi_n> of the call's eigensystem
        calls = []
        real = EigenSystem.to_eigen
        monkeypatch.setattr(EigenSystem, "to_eigen", lambda e, a: calls.append(a) or real(e, a))
        rwa_infidelity(params, None, (1, 2), 1e-2, axis)
        assert len(calls) == 1
        e = closed_form_eigensystem(params)
        rwa_infidelity(params, e, (1, 2), 1e-2, axis)
        rwa_infidelity(params, e, (3, 4), 1e-2, axis)
        assert len(calls) == 2

    @pytest.mark.parametrize("ratio", [np.nan, np.inf, -np.inf, 0.0, -0.01])
    def test_ratio_must_be_finite_and_positive(self, params, eigen, ratio):
        # refused as the ratio the caller gave, not as the h_rf made from it
        message = rf"^ratio must be finite and > 0, got {re.escape(str(ratio))}$"
        with pytest.raises(ValueError, match=message):
            rwa_infidelity(params, eigen, (1, 2), ratio=ratio)
        with pytest.raises(ValueError, match=message):
            convergence_study(params, ratio=ratio)
        with pytest.raises(ValueError, match=message):
            lab_frame.rwa_sweep(params, ratios=(ratio,))

    @pytest.mark.parametrize("ratio", [1e308, 1e-310])
    def test_ratio_past_the_float_range_refused(self, params, eigen, ratio):
        # finite and positive, but 1e308 overflows the drive amplitude and
        # 1e-310 the pulse duration: refused as the ratio, not as a field of
        # the drive made from it
        message = rf"^ratio {re.escape(str(ratio))} gives a drive amplitude or pulse duration beyond the float range$"
        with pytest.raises(ValueError, match=message):
            rwa_infidelity(params, eigen, (1, 2), ratio=ratio)
        with pytest.raises(ValueError, match=message):
            convergence_study(params, ratio=ratio)

    @pytest.mark.parametrize("flip", [np.nan, np.inf, -np.pi, -0.5])
    def test_flip_must_be_finite_and_non_negative(self, params, eigen, flip):
        # refused by name, PulseSpec's rule, before the ratio is read
        message = rf"^flip must be finite and >= 0, got {re.escape(str(flip))}$"
        with pytest.raises(ValueError, match=message):
            rwa_infidelity(params, eigen, (1, 2), ratio=1e-2, flip=flip)
        with pytest.raises(ValueError, match=message):
            convergence_study(params, ratio=1e-2, flip=flip)
        with pytest.raises(ValueError, match=message):
            rwa_infidelity(params, eigen, (1, 2), ratio=np.nan, flip=flip)

    def test_one_exponential_call_and_no_factorization(self, monkeypatch, params, eigen):
        # the remainder step is exponentiated with the period's nodes, the
        # projection takes Newton-Schulz steps: no SVD and no eigh
        calls = []
        real = lab_frame.expm4
        monkeypatch.setattr(lab_frame, "expm4", lambda a: calls.append(a.shape) or real(a))
        for name in ("svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, lambda *args, name=name, **kwargs: pytest.fail(name))
        system = _drive_at_ratio(params, eigen, (1, 2), "Y", 1e-2)
        assert system.duration % _period(system) > _grid_step(system)  # a remainder step
        rwa_infidelity(params, eigen, (1, 2), ratio=1e-2)
        assert len(calls) == 1

    def test_underflowing_gamma_refused_as_the_ratio(self, eigen):
        # gamma * |element| underflows to zero, so h_rf = ratio * gap / 0 has no float
        params = SpinParameters(0.1, 1.0, 0.5, gamma=5e-324)
        message = r"^ratio 0.01 gives a drive amplitude or pulse duration beyond the float range$"
        with pytest.raises(ValueError, match=message):
            rwa_infidelity(params, eigen, (1, 2), ratio=1e-2)
        with pytest.raises(ValueError, match=message):
            convergence_study(params, ratio=1e-2)

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

    @pytest.mark.parametrize("phase", [0.0, np.pi / 3, -2.1])
    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_drive_realizes_the_engine_phase_rule(self, eigen, axis, phase):
        # the drive reads the engine's axis shift, so each axis and phase
        # matches its own ideal pulse and not the other axis's
        p = SpinParameters(0.1, 1.0, 0.5, h_rf=5e-4)
        system = drive_for_pulse(p, eigen, (1, 2), axis, phase, np.pi)
        u = to_interaction_frame(integrate_lab_frame(system), eigen, system.duration)
        other = "Y" if axis == "X" else "X"
        v = single_frequency_propagator(eigen, (1, 2), axis, phase, np.pi)
        w = single_frequency_propagator(eigen, (1, 2), other, phase, np.pi)
        assert propagator_infidelity(u, v) <= 5e-3
        assert propagator_infidelity(u, w) > 0.1

    def test_convergence_order(self, params):
        study = convergence_study(params, (1, 2), ratio=1e-2, refinements=2)
        assert study["orders"][0] >= 1.9
        assert study["richardson_ratios"][0] >= 3.5

    @pytest.mark.parametrize("refinements", [0, -1])
    def test_convergence_needs_one_refinement(self, params, refinements):
        # the Richardson reference combines the two finest runs
        with pytest.raises(ValueError, match=f"refinements must be >= 1, got {refinements}$"):
            convergence_study(params, (1, 2), ratio=1e-2, refinements=refinements)
        study = convergence_study(params, (1, 2), ratio=1e-2, refinements=1)
        assert len(study["deviations"]) == 1 and study["orders"] == study["richardson_ratios"] == []

    @pytest.mark.parametrize("refinements", [2.5, "2", 2.0, np.float64(2.0), None])
    def test_convergence_refinements_must_be_an_integer(self, monkeypatch, params, refinements):
        # integrate_lab_frame's n_steps rule, checked before the eigensystem is built
        monkeypatch.setattr(lab_frame, "closed_form_eigensystem", lambda *args: pytest.fail("eigensystem built"))
        message = rf"^refinements must be an integer, got {re.escape(repr(refinements))}$"
        with pytest.raises(ValueError, match=message):
            convergence_study(params, (1, 2), ratio=1e-2, refinements=refinements)

    def test_convergence_takes_a_numpy_integer(self, params):
        study = convergence_study(params, (1, 2), ratio=1e-2, refinements=np.int64(2))
        assert study == convergence_study(params, (1, 2), ratio=1e-2, refinements=2)

    @pytest.mark.parametrize("refinements", [38, 60, 10**6])
    def test_convergence_past_2_to_the_53_steps_refused_first(self, monkeypatch, params, refinements):
        # the default grid has 56,863 steps: 2^38 times that is past 2^53
        # (2^37 times is not), and no grid is integrated before the refusal
        monkeypatch.setattr(lab_frame, "_grid_product", lambda *args: pytest.fail("grid integrated"))
        message = rf"^refinements {refinements} make a finest grid of 56863 \* 2\^{refinements} steps, more than 2\^53$"
        with pytest.raises(ValueError, match=message):
            convergence_study(params, (1, 2), ratio=1e-2, refinements=refinements)
        assert 56863 << 37 <= 2**53 < 56863 << 38


LINES = ((1, 2), (3, 4), (1, 3), (2, 4))  # the drivable lines


def _seeded_pulse(rng, transition, axis, ratio=0.02):
    """A drive_for_pulse system on a seeded spin, with a random phase and flip."""
    omega_q = rng.uniform(0.5, 2.0)
    p = SpinParameters(omega0=rng.uniform(0.2, 0.35) * omega_q, omegaQ=omega_q,
                       eta=rng.uniform(0.5, 0.9))
    e = closed_form_eigensystem(p)
    return _drive_at_ratio(p, e, transition, axis, ratio, rng.uniform(0.0, 2.0 * np.pi),
                           rng.uniform(0.25, 0.75) * np.pi)


def _period(system):
    return 2.0 * np.pi / abs(system.drives[0].frequency)


def _grid_step(system):
    """The period route's step h = T_d / ceil(T_d / default_step)."""
    period = _period(system)
    return period / math.ceil(period / system.default_step())


def _pulse_cases():
    rng = np.random.default_rng(20261017)
    cases = {f"{m}{n}-{axis}": _seeded_pulse(rng, (m, n), axis) for m, n in LINES for axis in "XY"}
    short = _seeded_pulse(rng, (1, 2), "Y")
    cases["shorter-than-a-period"] = replace(short, duration=0.6 * _period(short))
    whole = _seeded_pulse(rng, (3, 4), "X")
    cases["whole-periods"] = replace(whole, duration=3 * _period(whole))
    _seeded_pulse(rng, (1, 3), "Y")  # a retired case's draw, kept so that later cases keep theirs
    # thousands of periods: N-th power of one period, projected once
    cases["weak-many-periods"] = _seeded_pulse(rng, (1, 2), "Y", ratio=1e-4)
    # remainders on the period's own grid of steps h
    rounded = _seeded_pulse(rng, (2, 4), "X")
    period, n = _period(rounded), 3
    while not (n * period // period == n and math.fmod(n * period, period) > 0.0):
        n += 1
    # 0 < T - n T_d exactly, but T - n * period rounds to 0: no remainder
    cases["remainder-rounds-to-zero"] = replace(rounded, duration=n * period)
    below = _seeded_pulse(rng, (3, 4), "Y")
    cases["remainder-below-one-step"] = replace(below, duration=2 * _period(below) + 0.4 * _grid_step(below))
    exact = _seeded_pulse(rng, (1, 3), "X")
    period, h = _period(exact), _grid_step(exact)
    n = round(period / h)
    k = next(k for k in range(n // 2, n) if (2 * period + k * h) - 2 * period == k * h)
    cases["remainder-on-the-grid"] = replace(exact, duration=2 * period + k * h)
    return cases


PULSE_CASES = _pulse_cases()


def _count_grid_steps(monkeypatch):
    """Record the step count of each grid the integrator multiplies out."""
    counts = []
    real = lab_frame._grid_product

    def counting(h0, drives, h, n_steps, *args):
        counts.append(n_steps)
        return real(h0, drives, h, n_steps, *args)

    monkeypatch.setattr(lab_frame, "_grid_product", counting)
    return counts


class TestPeriodPath:
    """One integrated drive period raised to the N-th power, against the full grid."""

    @pytest.mark.parametrize("system", list(PULSE_CASES.values()), ids=list(PULSE_CASES))
    def test_matches_full_grid_within_its_error(self, system):
        n = int(np.ceil(system.duration / system.default_step()))
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

    @pytest.mark.parametrize(("name", "partial"), [
        ("whole-periods", False),
        ("remainder-rounds-to-zero", False),
        ("remainder-below-one-step", True),
        ("remainder-on-the-grid", False),
        ("12-Y", True),
    ])
    def test_remainder_takes_the_first_steps_of_the_period(self, monkeypatch, name, partial):
        # tau = T - N T_d is the period's first k = floor(tau / h) steps and
        # one step of tau - k h, when that is positive
        system = PULSE_CASES[name]
        period, h = _period(system), _grid_step(system)
        periods = int(system.duration // period)
        tau = system.duration - periods * period
        splits, tails = [], []
        real_grid, real_kernel = lab_frame._grid_product, lab_frame._step_kernel

        def grid(h0, drives, h, n_steps, split=None, *args):
            splits.append(split)
            return real_grid(h0, drives, h, n_steps, split, *args)

        def kernel(h0, drives, h, refinements=None, tail=None):
            tails.append(tail)
            return real_kernel(h0, drives, h, refinements, tail)

        monkeypatch.setattr(lab_frame, "_grid_product", grid)
        monkeypatch.setattr(lab_frame, "_step_kernel", kernel)
        integrate_lab_frame(system)
        k = int(tau // h) if tau > 0.0 else 0
        assert periods >= 2 and splits == [k]
        if partial:  # the tail step is one more generator of the period's one kernel
            delta = tau - k * h
            assert 0.0 < delta < h and tails == [(k * h + delta / 2.0, delta)]
        else:
            assert tails == [None]
        if name == "remainder-rounds-to-zero":
            assert tau == 0.0 < math.fmod(system.duration, period)
        if name == "remainder-below-one-step":
            assert k == 0
        if name == "remainder-on-the-grid":
            assert k > 0 and tau == k * h

    @pytest.mark.parametrize("name", [n for n, s in PULSE_CASES.items() if s.duration >= _period(s)])
    def test_one_kernel_and_one_period_of_steps(self, monkeypatch, name):
        system = PULSE_CASES[name]
        kernels = []
        real = lab_frame._step_kernel
        monkeypatch.setattr(lab_frame, "_step_kernel", lambda *args: kernels.append(args) or real(*args))
        counts = _count_grid_steps(monkeypatch)
        integrate_lab_frame(system)
        assert len(kernels) == 1
        assert counts == [math.ceil(_period(system) / system.default_step())]


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
        assert sum(counts) == per


def _random_unitaries(rng, n):
    return np.linalg.qr(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))[0]


def _real_form(u):
    """E(U) = [[Re U, -Im U], [Im U, Re U]] of each matrix of a stack, built
    by blocks."""
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


class TestRealForm:
    """_ordered_product multiplies in the real 8x8 form of each matrix."""

    def test_the_map_builds_the_real_form_and_reads_it_back_exactly(self):
        a = np.random.default_rng(1).normal(size=(500, 4, 4)) * np.logspace(-300, 300, 500)[:, None, None]
        a = a + 1j * np.random.default_rng(2).normal(size=(500, 4, 4))
        real = (a.view(float).reshape(-1, 32) @ lab_frame._REAL_FORM).reshape(-1, 8, 8)
        assert np.array_equal(real, _real_form(a))
        back = (real.reshape(-1, 64) @ lab_frame._COMPLEX_PART).view(complex).reshape(-1, 4, 4)
        assert np.array_equal(back, a)
        assert not lab_frame._REAL_FORM.flags.writeable and not lab_frame._COMPLEX_PART.flags.writeable

    def test_products_of_real_forms_are_real_forms_of_products(self):
        # E(A) E(B) = E(AB): the 8x8 product is the complex one, to roundoff
        rng = np.random.default_rng(3)
        a, b = _random_unitaries(rng, 200), _random_unitaries(rng, 200)
        assert np.max(np.abs(_real_form(a) @ _real_form(b) - _real_form(a @ b))) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 31, 64 * 37 + 29])
    def test_ordered_product_matches_the_complex_loop(self, n):
        stack = _random_unitaries(np.random.default_rng(n), n)
        expected = np.eye(4, dtype=complex)
        for u in stack:
            expected = u @ expected
        u = lab_frame._ordered_product(stack)
        assert u.shape == (4, 4) and u.dtype == complex
        assert np.max(np.abs(u - expected)) <= 1e-14

    @pytest.mark.parametrize("shape", [(5,), (lab_frame._REAL_BLOCK + 3,), (4 * lab_frame._REAL_BLOCK - 1,),
                                       (3, 2 * lab_frame._REAL_BLOCK + 1), (61, 8), (85, 16), (700, 1)])
    def test_blocks_keep_the_pairs_of_the_whole_stack(self, shape):
        # taking the real form a block at a time changes no product: bytewise
        # the pairwise product of the whole stack's real form
        stack = _random_unitaries(np.random.default_rng(5), math.prod(shape)).reshape(*shape, 4, 4)
        real = _real_form(stack).swapaxes(0, -3)
        while len(real) > 1:
            pairs = len(real) // 2
            combined = real[1 : 2 * pairs : 2] @ real[0 : 2 * pairs : 2]
            real = np.concatenate([combined, real[2 * pairs :]], axis=0)
        expected = ((real[0][..., :4, :4] + real[0][..., 4:, 4:]) / 2
                    + 1j * ((real[0][..., 4:, :4] - real[0][..., :4, 4:]) / 2))
        assert lab_frame._ordered_product(stack).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 31, 257, 64 * 37 + 29])
    def test_prefix_read_off_the_tree(self, n):
        # U_k ... U_1 for every k from the tree's aligned nodes and the last
        # partial quad, against the complex loop; the product is unchanged
        stack = _random_unitaries(np.random.default_rng(n), n)
        total = lab_frame._ordered_product(stack)
        expected = np.eye(4, dtype=complex)
        for k in range(n + 1):
            product, head = lab_frame._ordered_product(stack, prefix=k)
            assert product.tobytes() == total.tobytes()
            assert head.shape == (4, 4) and np.max(np.abs(head - expected)) <= 1e-14
            if k < n:
                expected = stack[k] @ expected

    def test_prefix_of_each_row(self):
        stack = _random_unitaries(np.random.default_rng(12), 7 * 37).reshape(7, 37, 4, 4)
        total = lab_frame._ordered_product(stack)
        expected = np.broadcast_to(np.eye(4, dtype=complex), (7, 4, 4))
        for k in range(38):
            product, head = lab_frame._ordered_product(stack, prefix=k)
            assert product.tobytes() == total.tobytes()
            assert head.shape == (7, 4, 4) and np.max(np.abs(head - expected)) <= 1e-14
            if k < 37:
                expected = stack[:, k] @ expected

    @pytest.mark.parametrize("shape", [(1,), (3, 1), (70, 1)])
    def test_lone_factor_returned_as_it_is(self, shape):
        # bytewise what the tree reads back from one embedded factor:
        # (E11 + E22) / 2 + i (E21 - E12) / 2 = (x + x) / 2 = x
        stack = _random_unitaries(np.random.default_rng(13), math.prod(shape)).reshape(*shape, 4, 4)
        real = _real_form(stack[..., 0, :, :])
        tree = ((real[..., :4, :4] + real[..., 4:, 4:]) / 2 + 1j * ((real[..., 4:, :4] - real[..., :4, 4:]) / 2))
        u = lab_frame._ordered_product(stack)
        assert u.shape == (*shape[:-1], 4, 4)
        assert u.tobytes() == tree.tobytes() == stack[..., 0, :, :].tobytes()
        product, head = lab_frame._ordered_product(stack, prefix=1)  # a prefix still reads the tree
        assert product.tobytes() == head.tobytes() == u.tobytes()

    @pytest.mark.parametrize("lead", [(5,), (2, 5), (2, 3, 2)])
    def test_rows_of_any_lead_shape_are_their_own_products(self, lead):
        # each row of a stack with one, two or three lead axes is, bytewise,
        # the product of that row alone, and so is its prefix
        stack = _random_unitaries(np.random.default_rng(len(lead)), math.prod(lead) * 3).reshape(*lead, 3, 4, 4)
        u = lab_frame._ordered_product(stack)
        _, head = lab_frame._ordered_product(stack, prefix=2)
        assert u.shape == head.shape == (*lead, 4, 4)
        for index in np.ndindex(*lead):
            assert u[index].tobytes() == lab_frame._ordered_product(stack[index]).tobytes()
            assert head[index].tobytes() == lab_frame._ordered_product(stack[index], prefix=2)[1].tobytes()

    def test_ordered_product_of_each_row(self):
        stack = _random_unitaries(np.random.default_rng(11), 61 * 37).reshape(61, 37, 4, 4)
        u = lab_frame._ordered_product(stack)
        assert u.shape == (61, 4, 4)
        for row, product in zip(stack, u):
            expected = np.eye(4, dtype=complex)
            for v in row:
                expected = v @ expected
            assert np.max(np.abs(product - expected)) <= 1e-14


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
        _drive_at_ratio(p, e, line, axis, 1e-2, rng.uniform(0.0, 2.0 * np.pi)).drives[0]
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
    """Step factors read off the lattice against scipy's matrix exponential."""

    @pytest.mark.parametrize("case", list(KERNEL_CASES.values()), ids=list(KERNEL_CASES))
    def test_factors_match_expm(self, case):
        h0, drives, h = case
        t_mid = np.random.default_rng(len(drives)).uniform(0.0, 1e3, size=40)
        factors, *_ = lab_frame._step_kernel(h0, drives, h)
        for t, u in zip(t_mid, factors(_phases(drives, t_mid))):
            expected = scipy.linalg.expm(-1j * h * _hamiltonian(h0, drives, t))
            assert np.max(np.abs(u - expected)) <= 1e-14

    @pytest.mark.parametrize("name", ["1-weak", "2-weak", "3-weak", "strong"])
    def test_factors_share_no_common_error(self, name):
        # every step reads the same coefficients, so their roundoff is an
        # error common to all factors, which a grid adds up step by step;
        # averaged over many midpoints it stays below half an ulp of 1 (no
        # drive leaves expm4's own error, and squarings double it)
        h0, drives, h = KERNEL_CASES[name]
        t_mid = (np.arange(1000) + 0.5) * h
        factors, *_ = lab_frame._step_kernel(h0, drives, h)
        expected = [scipy.linalg.expm(-1j * h * _hamiltonian(h0, drives, t)) for t in t_mid]
        assert np.max(np.abs(np.mean(factors(_phases(drives, t_mid)) - expected, axis=0))) <= 1e-16

    @pytest.mark.parametrize("name", ["1-weak", "2-weak"])
    def test_basis_is_the_cosines_of_total_degree(self, name):
        # K + 1 functions for one drive, (K + 1)(K + 2) / 2 for two
        h0, drives, h = KERNEL_CASES[name]
        _, width, norm = lab_frame._step_kernel(h0, drives, h)
        degree = lab_frame._fourier_degree(norm)
        assert norm <= lab_frame._FOURIER_NORM and degree >= 4
        assert width == [degree + 1, (degree + 1) * (degree + 2) // 2][len(drives) - 1]

    def test_the_squaring_bound_is_the_last_norm_accepted(self):
        # one budget for the read-off's and expm4's squarings together:
        # ||X||_inf + ||Y||_1 at most expm4's bound
        h0, (drive,), h = KERNEL_CASES["strong"]
        norm = h * (np.max(np.sum(np.abs(h0), axis=1))
                    + drive.amplitude * np.max(np.sum(np.abs(drive.operator), axis=0)))
        bound = lab_frame._TAYLOR_STEPS[-1][1] * 2.0**lab_frame._MAX_SQUARINGS
        lab_frame._step_kernel(h0, (drive,), 0.99 * h * bound / norm)
        with pytest.raises(StepTooLarge):
            lab_frame._step_kernel(h0, (drive,), 1.01 * h * bound / norm)

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_partial_step_matches_expm(self, name):
        # the remainder's one step of delta < h, the step kernel's tail:
        # exponentiated with its nodes, scaled and squared like them
        h0, drives, h = KERNEL_CASES[name]
        rng = np.random.default_rng(len(drives))
        for t, delta in zip(rng.uniform(0.0, 1e3, size=10), rng.uniform(0.0, h, size=10)):
            expected = scipy.linalg.expm(-1j * delta * _hamiltonian(h0, drives, t))
            *_, step = lab_frame._step_kernel(h0, drives, h, None, (t, delta))
            assert np.max(np.abs(step - expected)) <= 1e-14

    def test_coarse_step_squares(self):
        _, (drive,), h = KERNEL_CASES["strong-coarse"]
        norm = h * drive.amplitude * np.max(np.sum(np.abs(drive.operator), axis=0))
        assert norm > 2.0 * lab_frame._FOURIER_NORM

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
                        lambda n_steps, dims, norm, chunk, refinements=1: (m, lab_frame._fourier_degree(m * norm)))


def _tensor_grid_block_kernel(factors, drives, h, m, degree):
    """The block kernel as it was before the lattice: P_m sampled on the L^D
    tensor grid 2 pi l / L, L = 2 degree + 1, and read off the full L^D
    basis of products of 1, cos(k theta_d), sin(k theta_d), k <= degree."""
    size, dims = 2 * degree + 1, len(drives)
    nodes = np.indices((size,) * dims).reshape(dims, size**dims) * (2.0 * np.pi / size)
    delta = np.array([d.frequency * h for d in drives]).reshape(dims, 1, 1)
    phases = (nodes[:, :, None] + delta * np.arange(m)).reshape(dims, size**dims * m)
    values = lab_frame._ordered_product(factors(phases).reshape(-1, m, 4, 4))
    mean = values.reshape(-1, 16).mean(axis=0)  # the kernel's roundoff guard
    coeffs = np.fft.fftn((values.reshape(-1, 16) - mean).reshape((size,) * dims + (16,)),
                         axes=range(dims)) / size**dims
    coeffs[(0,) * dims] += mean
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
            c, s = np.cos(theta), np.sin(theta)
            rows = [np.ones_like(theta), c, s]
            for _ in range(degree - 1):
                rows += [rows[-2] * c - rows[-1] * s, rows[-1] * c + rows[-2] * s]
            basis = (basis[:, None] * np.array(rows[:size])).reshape(-1, len(theta))
        return (basis.T @ coeffs).view(complex).reshape(-1, 4, 4)

    return blocks, coeffs.shape[0]


# (case, block length): the coarse strong step, whose blocks the integrator
# never takes, with short blocks only
BLOCK_CASES = [(name, m) for name in KERNEL_CASES for m in (2, 8) if (name, m) != ("strong-coarse", 8)]
LONG_GRID = lab_frame._CHUNK + 1000


def _split_cases():
    """(case, block length, steps, split): every kernel case with the forced
    blocks the integrator could take (m ||Y||_1 <= 2, and not the three-drive
    lattice of 64-step blocks, ~1 s a grid), each split k in 0, 1, m - 1, m,
    m + 1, n - 1, n; and a grid of two chunks, split in either."""
    n = 64 * 37 + 29
    cases = []
    for name, (h0, drives, h) in KERNEL_CASES.items():
        norm = lab_frame._step_kernel(h0, drives, h)[2]
        for m in (1, 8, 64):
            if m == 1 or (m * norm <= lab_frame._FOURIER_NORM and (name, m) != ("3-weak", 64)):
                cases += [(name, m, n, k) for k in sorted({0, 1, m - 1, m, m + 1, n - 1, n})]
    chunk = lab_frame._CHUNK
    cases += [("1-weak", 64, LONG_GRID, k) for k in (70, chunk, chunk + 64 + 5, LONG_GRID - 1)]
    return cases


SPLIT_CASES = _split_cases()


class TestBlockKernel:
    """m-step blocks read off a Fourier series in the drive phases."""

    @pytest.mark.parametrize(("name", "m"), BLOCK_CASES, ids=[f"{n}-m{m}" for n, m in BLOCK_CASES])
    def test_blocks_match_factor_products(self, name, m):
        h0, drives, h = KERNEL_CASES[name]
        factors, _, norm = lab_frame._step_kernel(h0, drives, h)
        blocks, _ = lab_frame._block_kernel(factors, drives, h, m, lab_frame._fourier_degree(m * norm))
        theta = np.random.default_rng(m).uniform(0.0, 2.0 * np.pi, size=(len(drives), 40))
        delta = np.array([d.frequency * h for d in drives]).reshape(-1, 1)
        expected = np.eye(4)
        for j in range(m):
            expected = factors(theta + j * delta) @ expected
        assert np.max(np.abs(blocks(theta) - expected)) <= 1e-14

    def test_two_drive_blocks_at_high_degree(self):
        # drives scaled so that m = 8 steps reach m ||Y||_1 = 1.92, just
        # under _FOURIER_NORM: degree 19, the widest two-drive lattice
        h0, drives, h = KERNEL_CASES["2-weak"]
        norm = lab_frame._step_kernel(h0, drives, h)[2]
        drives = tuple(replace(d, amplitude=d.amplitude * 0.24 / norm) for d in drives)
        factors, _, norm = lab_frame._step_kernel(h0, drives, h)
        m = 8
        degree = lab_frame._fourier_degree(m * norm)
        assert m * norm > lab_frame._FOURIER_NORM / 2.0 and degree >= 10
        blocks, width = lab_frame._block_kernel(factors, drives, h, m, degree)
        assert width == lab_frame._rank1_lattice(2, degree)[0] == 2 * degree * (degree + 1) + 1
        theta = np.random.default_rng(degree).uniform(0.0, 2.0 * np.pi, size=(2, 40))
        delta = np.array([d.frequency * h for d in drives]).reshape(-1, 1)
        expected = np.eye(4)
        for j in range(m):
            expected = factors(theta + j * delta) @ expected
        assert np.max(np.abs(blocks(theta) - expected)) <= 1e-14

    @pytest.mark.parametrize("name", ["0-weak", "1-weak", "strong"])
    def test_one_drive_blocks_equal_the_tensor_grid_bytewise(self, name):
        h0, drives, h = KERNEL_CASES[name]
        factors, _, norm = lab_frame._step_kernel(h0, drives, h)
        theta = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=(len(drives), 300))
        for m in (2, 8, 16):
            degree = lab_frame._fourier_degree(m * norm)
            blocks, width = lab_frame._block_kernel(factors, drives, h, m, degree)
            reference, reference_width = _tensor_grid_block_kernel(factors, drives, h, m, degree)
            assert width == reference_width
            assert blocks(theta).tobytes() == reference(theta).tobytes()

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

    @pytest.mark.parametrize(("name", "m", "n_steps", "k"), SPLIT_CASES,
                             ids=[f"{name}-m{m}-n{n}-k{k}" for name, m, n, k in SPLIT_CASES])
    def test_split_grid_matches_single_steps(self, monkeypatch, name, m, n_steps, k):
        # r = k mod m steps, blocks from step r, the steps after the last
        # block: the first k steps and the whole grid from one sequence
        h0, drives, h = KERNEL_CASES[name]
        factors, *_ = lab_frame._step_kernel(h0, drives, h)
        steps = factors(_phases(drives, (np.arange(n_steps) + 0.5) * h))
        _forced_block(monkeypatch, m)
        head, total = lab_frame._grid_product(h0, drives, h, n_steps, k)
        expected = lab_frame._ordered_product(steps[:k]) if k else np.eye(4)
        for u, v in ((head, expected), (total, lab_frame._ordered_product(steps))):
            assert np.max(np.abs(lab_frame._project_unitary(u) - lab_frame._project_unitary(v))) <= 1e-13
        if k % m == 0:  # the sequence of the whole grid
            assert total.tobytes() == lab_frame._grid_product(h0, drives, h, n_steps).tobytes()

    @pytest.mark.parametrize(("name", "n_steps", "blocks"), [
        ("strong-coarse", LONG_GRID, False),  # one step's drive norm is beyond _FOURIER_NORM
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


def _refinement_cases():
    """(case, steps, refinements): one and two drives, on grids whose length
    every block length divides (no steps after the last block) or not, each
    refined 2, 3 and 4 times; a strong drive on the coarse step, whose
    factors each refinement squares its own number of times, and on its
    default step, and no drive."""
    cases = [(name, n, g) for name in ("1-weak", "2-weak") for n in (2048, 2085) for g in (2, 3, 4)]
    return cases + [("strong-coarse", 50, g) for g in (2, 3, 4)] + [("strong", 701, 3), ("0-weak", 777, 3)]


REFINEMENT_CASES = _refinement_cases()
GOLDEN_GRIDS = Path(__file__).resolve().parent / "golden" / "lab_frame_grids.txt"


def _golden_grid_cases():
    """label -> (system, n_steps): period-route grids (with and without a
    remainder step, and thousands of periods), a default whole grid, and
    explicit step counts with and without steps after the last block."""
    cases = {f"period {name}": (PULSE_CASES[name], None)
             for name in ("12-Y", "24-X", "remainder-below-one-step", "weak-many-periods")}
    cases["default shorter-than-a-period"] = (PULSE_CASES["shorter-than-a-period"], None)
    for name, n in (("1-weak", 3000), ("1-weak", 3037), ("2-weak", 3000), ("2-weak", 2085),
                    ("strong-coarse", 50), ("0-weak", 777)):
        h0, drives, h = KERNEL_CASES[name]
        cases[f"steps {name} n={n}"] = (DrivenSystem(h0=h0, drives=drives, duration=n * h), n)
    return cases


def _grid_hex(u):
    return " ".join(float(x).hex() for x in u.view(float).ravel())


class TestRefinements:
    """A grid and its refinements g (n 2^g steps of h / 2^g) in one pass:
    one step kernel, one block layout and one product tree for all."""

    @pytest.mark.parametrize(("name", "n_steps", "refinements"), REFINEMENT_CASES,
                             ids=[f"{name}-n{n}-G{g}" for name, n, g in REFINEMENT_CASES])
    def test_each_refinement_matches_its_own_grid(self, monkeypatch, name, n_steps, refinements):
        h0, drives, h = KERNEL_CASES[name]
        system = DrivenSystem(h0=h0, drives=drives, duration=n_steps * h)
        sizes, real = [], lab_frame._block_size
        monkeypatch.setattr(lab_frame, "_block_size", lambda *args: sizes.append(real(*args)) or sizes[-1])
        grids = lab_frame._whole_grids(system, n_steps, refinements)
        monkeypatch.undo()
        (m, _), = sizes
        if name == "strong-coarse":  # one step's drive norm is past _FOURIER_NORM: no blocks
            assert m == 1
        else:  # blocks, with steps after the last one or without
            assert m > 1 and (n_steps % m == 0) == (n_steps == 2048)
        assert grids.shape == (refinements, 4, 4)
        for g, u in enumerate(grids):
            assert np.max(np.abs(u - integrate_lab_frame(system, n_steps=n_steps << g))) <= 1e-13

    @pytest.mark.parametrize("m", [1, 8])
    def test_split_refinements_match_single_steps(self, monkeypatch, m):
        # with a split k the first k grid steps of every refinement, each
        # 2^g of its own steps, from the same sequence
        h0, drives, h = KERNEL_CASES["1-weak"]
        n_steps, k, refinements = 301, 37, 3
        _forced_block(monkeypatch, m)
        heads, totals = lab_frame._grid_product(h0, drives, h, n_steps, k, refinements)
        factors, *_ = lab_frame._step_kernel(h0, drives, h, refinements)
        for g in range(refinements):
            steps = factors(_phases(drives, (np.arange(n_steps << g) + 0.5) * (h / 2**g)), g)
            for u, v in ((heads[g], lab_frame._ordered_product(steps[: k << g])),
                         (totals[g], lab_frame._ordered_product(steps))):
                assert np.max(np.abs(lab_frame._project_unitary(u) - lab_frame._project_unitary(v))) <= 1e-13

    @pytest.mark.parametrize(("name", "m"), [("1-weak", 1), ("1-weak", 8), ("2-weak", 1), ("2-weak", 8),
                                             ("strong-coarse", None)])  # its factors are squared: no blocks
    @pytest.mark.parametrize("split", [None, 0, 37])
    def test_a_lone_grid_is_one_refinement_without_its_axis(self, monkeypatch, name, m, split):
        # refinements None carries no lead axis, and its products are the
        # bytes of the one-refinement batch
        h0, drives, h = KERNEL_CASES[name]
        if m is not None:
            _forced_block(monkeypatch, m)
        lone = lab_frame._grid_product(h0, drives, h, 301, split)
        batch = lab_frame._grid_product(h0, drives, h, 301, split, 1)
        for u, v in zip(*((lone, batch) if split is not None else ((lone,), (batch,)))):
            assert u.shape == (4, 4) and v.shape == (1, 4, 4)
            assert u.tobytes() == v.tobytes()

    def test_step_kernel_refinements_match_expm(self):
        # refinement g reads exp(-i h / 2^g H(t)) off the shared lattice
        for name in ("1-weak", "2-weak", "strong-coarse"):
            h0, drives, h = KERNEL_CASES[name]
            t_mid = np.random.default_rng(len(drives)).uniform(0.0, 1e3, size=20)
            factors, *_ = lab_frame._step_kernel(h0, drives, h, 4)
            for g in range(4):
                for t, u in zip(t_mid, factors(_phases(drives, t_mid), g)):
                    expected = scipy.linalg.expm(-1j * h / 2**g * _hamiltonian(h0, drives, t))
                    assert np.max(np.abs(u - expected)) <= 1e-14

    def test_one_grid_keeps_its_bits(self):
        # a grid integrate_lab_frame takes alone, on either route, is the one
        # refinement case of the batch and keeps the bits the file pins
        expected = dict(line.split(": ") for line in GOLDEN_GRIDS.read_text(encoding="utf-8").splitlines()
                        if not line.startswith("#"))
        cases = _golden_grid_cases()
        assert sorted(expected) == sorted(cases)
        for label, (system, n_steps) in cases.items():
            assert _grid_hex(integrate_lab_frame(system, n_steps=n_steps)) == expected[label], label

    def test_study_takes_one_pass(self, monkeypatch, params):
        # one step kernel, one block layout and one product tree for n, 2n and 4n
        kernels, grids = [], []
        real_kernel, real_grid = lab_frame._step_kernel, lab_frame._grid_product
        monkeypatch.setattr(lab_frame, "_step_kernel", lambda *args: kernels.append(args) or real_kernel(*args))
        monkeypatch.setattr(lab_frame, "_grid_product", lambda *args: grids.append(args) or real_grid(*args))
        monkeypatch.setattr(lab_frame, "integrate_lab_frame", lambda *args, **kwargs: pytest.fail("a grid alone"))
        study = convergence_study(params, (1, 2), ratio=1e-2, refinements=2)
        assert len(kernels) == len(grids) == 1 and grids[0][3:] == (study["step_counts"][0], None, 3)


class TestLattice:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_one_to_one_on_the_total_degree_set(self, dims):
        for degree in range(11):
            size, z = lab_frame._rank1_lattice(dims, degree)
            modes = np.indices((2 * degree + 1,) * dims).reshape(dims, -1).T - degree
            modes = modes[np.abs(modes).sum(axis=1) <= degree]
            bins = (modes @ np.array(z)) % size
            assert len(np.unique(bins)) == len(modes) <= size
            if dims <= 2:  # the lattice has no node to spare
                assert len(modes) == size

    @pytest.mark.parametrize("dims", [0, 1, 2, 3])
    def test_tables_read_off_each_kept_mode(self, dims):
        # a trigonometric polynomial of total degree M sampled at the
        # lattice nodes is read off exactly, and a cosine polynomial (even in
        # each phase) exactly by the even tables, one function per cosine;
        # degrees 0 and 1 have no recurrence rows
        for degree in (0, 1, 3):
            rng = np.random.default_rng(dims)
            modes = np.indices((2 * degree + 1,) * dims).reshape(dims, (2 * degree + 1) ** dims).T - degree
            modes = modes[np.abs(modes).sum(axis=1) <= degree]
            cosines, inverse = np.unique(np.abs(modes), axis=0, return_inverse=True)
            theta = rng.uniform(0.0, 2.0 * np.pi, size=(dims, 40))
            for even, width in ((False, len(modes)), (True, len(cosines))):
                coeffs = rng.normal(size=(width, 16)) + 1j * rng.normal(size=(width, 16))
                if even:  # c_j depends on |j_1|, ..., |j_D| alone
                    coeffs = coeffs[inverse.ravel()]

                def poly(phases):
                    return np.exp(1j * phases.T @ modes.T) @ coeffs

                nodes = lab_frame._lattice(dims, degree, even)[0]
                assert nodes.shape == (dims, lab_frame._rank1_lattice(dims, degree)[0])
                read, kept = lab_frame._phase_kernel(poly(nodes).reshape(-1, 4, 4), dims, degree, even)
                assert kept == width
                assert np.max(np.abs(read(theta).reshape(-1, 16) - poly(theta))) <= 1e-13

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_mirrored_node_values(self, name):
        # the step kernel exponentiates nodes 0..N // 2 and takes node N - l's
        # value from node l; its phases are 2 pi - theta_l only to a few ulp,
        # which moves a node matrix by ~1e-15 times its drive norm ||Y||_1 / 2^s
        # (at most 2), and its exponential, a unitary, by no more
        h0, drives, h = KERNEL_CASES[name]
        norm = lab_frame._step_kernel(h0, drives, h)[2]
        scale = 2.0 ** max(0, math.ceil(math.log2(norm / lab_frame._FOURIER_NORM))) if norm else 1.0
        nodes = lab_frame._lattice(len(drives), lab_frame._fourier_degree(norm / scale), True)[0]
        ys = np.array([-1j * h * d.amplitude * d.operator for d in drives]).reshape(-1, 4, 4)
        values = lab_frame.expm4((-1j * h * h0 + np.tensordot(np.cos(nodes), ys, axes=(0, 0))) / scale)
        assert np.max(np.abs(values[:0:-1] - values[1:]), initial=0.0) <= 1e-15 * max(1.0, norm / scale)


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


def _unitary_ld(a):
    """The columns of ``a`` made orthonormal in extended precision (Gram-Schmidt, twice)."""
    q = a.astype(np.clongdouble)
    for _ in range(2):
        for j in range(4):
            q[:, j] -= q[:, :j] @ (q[:, :j].conj().T @ q[:, j])
            q[:, j] /= np.sqrt((q[:, j].conj() @ q[:, j]).real)
    return q


class TestNewtonSchulz:
    """_project_unitary against the polar factor W V^dagger of U = W S V^dagger."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-16.0, math.log10(0.3)))
    def test_matches_the_svd_polar_factor(self, seed, exponent):
        # a random unitary perturbed to a drift max|U^dagger U - I| from 1e-16
        # to 0.3, its SVD known by construction in extended precision (numpy's
        # SVD strays a few 1e-15 from it); the steps converge, no SVD is taken
        rng = np.random.default_rng(seed)
        w, v = (_unitary_ld(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) for _ in range(2))
        drift = 10.0**exponent
        squares = 1.0 + drift * np.append(rng.uniform(-1.0, 1.0, size=3), rng.choice([-1.0, 1.0]))
        u = ((w * np.sqrt(squares.astype(np.longdouble))) @ v.conj().T).astype(complex)
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("svd")):
            projected = lab_frame._project_unitary(u)
        assert np.max(np.abs(projected - (w @ v.conj().T).astype(complex))) <= 1e-15

    @pytest.mark.parametrize("offset", [0.0, 1e10, 1e12, 1e14, 3e14])
    def test_drifted_free_evolution_matches_the_svd_polar_factor(self, monkeypatch, eigen, offset):
        # a common energy offset drifts the product from the unitaries, to 0.29
        # at 1e14 and 2.4 at 3e14, past the steps' reach, where the SVD takes
        # the polar factor
        products = []
        real = lab_frame._project_unitary
        monkeypatch.setattr(lab_frame, "_project_unitary", lambda u: products.append(u) or real(u))
        integrate_lab_frame(DrivenSystem(h0=np.diag(eigen.energies) + offset * np.eye(4), duration=3.7))
        (u,) = products
        drift = np.max(np.abs(u.conj().T @ u - np.eye(4)))
        assert drift > {1e14: 0.2, 3e14: 1.0}.get(offset, 0.0)
        w, _, vh = np.linalg.svd(u)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            assert np.max(np.abs(real(u) - w @ vh)) <= 1e-15
        assert svd.called == (offset == 3e14)


def _fourier_degree_log(norms, max_degree=60):
    """The degree rule in logarithms: the smallest K whose tail
    (norm/2)^(K+1) / (K+1)! is not above _FOURIER_TAIL, for each norm."""
    k = np.arange(max_degree + 1)
    log_tail = (k + 1) * np.log(norms / 2.0)[:, None] - scipy.special.gammaln(k + 2)
    below = log_tail <= np.log(lab_frame._FOURIER_TAIL)
    assert below[:, -1].all()
    return below.argmax(axis=1)


class TestChebyshevDegree:
    """_fourier_degree: the tail rule of a step factor's cosine (Chebyshev)
    coefficients in the drive phases, and of a block's Fourier coefficients."""

    def test_matches_the_running_product_up_to_the_callers_bound(self):
        # the running product against the log rule; every caller passes a
        # norm in (0, _FOURIER_NORM]
        norms = np.concatenate([
            np.linspace(0.0, lab_frame._FOURIER_NORM, 20001)[1:],
            np.geomspace(1e-25, lab_frame._FOURIER_NORM, 2000),
        ])
        expected = _fourier_degree_log(norms)
        for norm, degree in zip(norms, expected):
            assert lab_frame._fourier_degree(float(norm)) == degree

    def test_large_norm_terminates(self):
        # the running product overflows above norm ~1,400: a prompt refusal
        with pytest.raises(ValueError, match=re.escape(repr(1500.0))):
            lab_frame._fourier_degree(1500.0)

    @pytest.mark.parametrize("norm", [np.nan, np.inf])
    def test_non_finite_norm_raises(self, norm):
        with pytest.raises(ValueError):
            lab_frame._fourier_degree(norm)

    @pytest.mark.parametrize("norm", [1e306, 1.7e308, np.finfo(float).max])
    def test_degree_beyond_the_float_range_raises(self, norm):
        # the degree ~ e * norm / 2 no longer fits a float for lgamma
        with pytest.raises(ValueError, match=re.escape(repr(float(norm)))):
            lab_frame._fourier_degree(float(norm))


if __name__ == "__main__":
    # after an intended change of the integrator's numbers, rewrite the bits
    # test_one_grid_keeps_its_bits pins: PYTHONPATH=src python3 tests/test_lab_frame.py
    lines = [f"{label}: {_grid_hex(integrate_lab_frame(system, n_steps=n))}"
             for label, (system, n) in _golden_grid_cases().items()]
    header = "# U(T, 0) of integrate_lab_frame on one grid: the 32 floats of each matrix, float.hex"
    GOLDEN_GRIDS.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_GRIDS.name}")
