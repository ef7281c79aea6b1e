import re

import numpy as np
import pytest
import scipy.linalg

from vspin import (
    NotDiagonal,
    NotPositive,
    RegimeViolation,
    SpinParameters,
    ThermalSpec,
    averaging_propagators,
    build_static_hamiltonian,
    closed_form_eigensystem,
    compile_cnot,
    compile_single_qubit_rotation,
    high_temperature_coefficients,
    high_temperature_state,
    in_high_temperature_regime,
    projector,
    pseudo_pure_reference,
    temporal_average,
    thermal_state,
)


def proj(m, n):
    return projector(m, n).matrix


class TestThermalState:
    def test_infinite_temperature(self, eigen):
        rho = thermal_state(eigen, ThermalSpec(beta_scale=0.0))
        assert np.max(np.abs(rho - np.eye(4) / 4)) == 0.0

    def test_matches_matrix_exponential(self, params, eigen):
        beta_scale = 0.7
        rho = thermal_state(eigen, ThermalSpec(beta_scale=beta_scale))
        h = build_static_hamiltonian(params)
        full = scipy.linalg.expm(-beta_scale * h / params.omegaQ)
        full /= np.trace(full)
        # compare in the eigenbasis, where thermal_state lives
        expected = eigen.to_eigen(full)
        assert np.max(np.abs(rho - expected)) <= 1e-13

    def test_ground_level_dominates(self, eigen):
        rho = thermal_state(eigen, ThermalSpec(beta_scale=0.2))
        populations = np.real(np.diag(rho))
        assert np.argmax(populations) == 3
        # populations ordered inversely to energy
        assert np.all(np.diff(populations) > 0)

    def test_valid_density_matrix(self, eigen):
        rho = thermal_state(eigen, ThermalSpec(beta_scale=1.5))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.min(np.linalg.eigvalsh(rho)) >= 0.0

    @pytest.mark.parametrize(
        "spin, beta_scale",
        [((1.0, 1.0, 0.5), 1.7e308), ((0.1, 1.0, 0.5), 1e308), ((0.1, 1.0, 0.5), 1e5)],
    )
    def test_large_beta_is_the_level_4_projector(self, spin, beta_scale):
        e = closed_form_eigensystem(SpinParameters(*spin))
        assert np.array_equal(thermal_state(e, ThermalSpec(beta_scale)), proj(4, 4))

    def test_infinite_temperature_with_overflowing_spread(self):
        # energies +-1.5e308 are accepted, but their difference overflows
        e = closed_form_eigensystem(SpinParameters(1e308, 1.0, 0.5))
        assert np.array_equal(thermal_state(e, ThermalSpec(0.0)), np.eye(4) / 4)


class TestHighTemperature:
    def test_zero_beta(self, eigen):
        lam = high_temperature_coefficients(eigen, ThermalSpec(beta_scale=0.0))
        assert np.array_equal(lam, np.zeros(4))

    def test_ordering_reversed(self, eigen):
        lam = high_temperature_coefficients(eigen, ThermalSpec(beta_scale=1e-4))
        assert np.all(np.diff(lam) > 0)  # energies descend, lambdas ascend
        assert np.argmax(lam) == 3

    def test_sum_zero(self, eigen):
        lam = high_temperature_coefficients(eigen, ThermalSpec(beta_scale=1e-4))
        assert abs(np.sum(lam)) <= 1e-15

    def test_regime_flag_and_violation(self, eigen):
        assert in_high_temperature_regime(eigen, ThermalSpec(beta_scale=1e-4))
        assert not in_high_temperature_regime(eigen, ThermalSpec(beta_scale=0.1))
        with pytest.raises(RegimeViolation):
            high_temperature_coefficients(eigen, ThermalSpec(beta_scale=0.1))

    def test_first_order_residual(self, eigen):
        spec = ThermalSpec(beta_scale=1e-4)
        rho = thermal_state(eigen, spec)
        approx = high_temperature_state(eigen, spec)
        bound = (spec.beta_scale * np.max(np.abs(eigen.energies)) / eigen.scale) ** 2
        assert np.max(np.abs(rho - approx)) <= bound

    def test_residual_quadratic_scaling(self, eigen):
        def residual(beta_scale):
            spec = ThermalSpec(beta_scale=beta_scale)
            return np.max(np.abs(thermal_state(eigen, spec) - high_temperature_state(eigen, spec)))

        ratio = residual(8e-4) / residual(4e-4)
        assert ratio == pytest.approx(4.0, rel=0.05)


class TestAveragingPropagators:
    def test_closed_projector_forms(self, eigen):
        v1, v2 = averaging_propagators(eigen)
        v1_expected = proj(4, 4) + proj(2, 1) + proj(1, 3) + proj(3, 2)
        v2_expected = proj(4, 4) - proj(1, 2) + proj(3, 1) - proj(2, 3)
        assert np.max(np.abs(v1 - v1_expected)) <= 1e-12
        assert np.max(np.abs(v2 - v2_expected)) <= 1e-12

    def test_unitary(self, eigen):
        for v in averaging_propagators(eigen):
            assert np.max(np.abs(v @ v.conj().T - np.eye(4))) <= 1e-13

    def test_population_cycles(self, eigen):
        v1, v2 = averaging_propagators(eigen)
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        p1 = np.real(np.diag(v1 @ rho @ v1.conj().T))
        assert np.allclose(p1, [0.2, 0.4, 0.3, 0.1], atol=1e-13)  # 1->2->3->1
        p2 = np.real(np.diag(v2 @ rho @ v2.conj().T))
        assert np.allclose(p2, [0.3, 0.2, 0.4, 0.1], atol=1e-13)  # 1->3->2->1


class TestTemporalAverage:
    def test_uniform_input_unchanged(self, eigen):
        rho = np.eye(4, dtype=complex) / 4
        rho_pp, alpha, beta = temporal_average(rho, eigen)
        assert np.max(np.abs(rho_pp - rho)) <= 1e-15
        assert alpha == pytest.approx(1.0, abs=1e-14)
        assert beta == pytest.approx(0.0, abs=1e-14)

    def test_equalizes_upper_populations(self, eigen, rng):
        populations = rng.uniform(0.1, 0.4, size=4)
        populations /= populations.sum()
        rho = np.diag(populations).astype(complex)
        rho_pp, _, _ = temporal_average(rho, eigen)
        out = np.real(np.diag(rho_pp))
        # brute-force permutation average of the three upper populations
        expected = np.full(3, populations[:3].mean())
        assert np.allclose(out[:3], expected, atol=1e-14)
        assert out[3] == pytest.approx(populations[3], abs=1e-14)
        assert np.max(np.abs(rho_pp - np.diag(np.diag(rho_pp)))) <= 1e-14

    def test_closed_formula_coefficients(self, eigen):
        spec = ThermalSpec(beta_scale=1e-4)
        lam = high_temperature_coefficients(eigen, spec)
        rho_eq = high_temperature_state(eigen, spec)
        _, alpha, beta = temporal_average(rho_eq, eigen)
        lam_mean = np.mean(lam[:3])
        assert alpha == pytest.approx(1.0 + lam_mean, abs=1e-12)
        assert beta == pytest.approx(lam[3] - lam_mean, abs=1e-12)

    def test_matches_reference_state(self, eigen):
        spec = ThermalSpec(beta_scale=1e-4)
        rho_eq = high_temperature_state(eigen, spec)
        rho_pp, alpha, beta = temporal_average(rho_eq, eigen)
        assert np.max(np.abs(rho_pp - pseudo_pure_reference(alpha, beta))) <= 1e-12

    def test_rejects_off_diagonal_input(self, eigen):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = rho[1, 0] = 0.01
        with pytest.raises(NotDiagonal):
            temporal_average(rho, eigen)

    def test_beta_zero_iff_lambda4_is_upper_mean(self, eigen, rng):
        for _ in range(20):
            lam = rng.normal(scale=1e-4, size=4)
            rho = np.diag((1.0 + lam) / 4.0).astype(complex)
            rho /= np.trace(rho)
            _, _, beta = temporal_average(rho, eigen)
            expected_zero = abs(lam[3] - np.mean(lam[:3])) < 1e-15
            assert (abs(beta) < 1e-12) == expected_zero

    def test_trace_and_positivity(self, eigen):
        rho = np.diag([0.4, 0.25, 0.2, 0.15]).astype(complex)
        rho_pp, _, _ = temporal_average(rho, eigen)
        assert np.trace(rho_pp).real == pytest.approx(1.0, abs=1e-14)
        assert np.min(np.linalg.eigvalsh(rho_pp)) >= -1e-15


class TestPseudoPureReference:
    def test_uniform(self):
        assert np.max(np.abs(pseudo_pure_reference(1.0, 0.0) - np.eye(4) / 4)) == 0.0

    def test_pure_ground(self):
        assert np.array_equal(pseudo_pure_reference(0.0, 1.0), proj(4, 4))

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            pseudo_pure_reference(-0.1, 1.0)
        with pytest.raises(NotPositive):
            pseudo_pure_reference(0.1, -0.5)
        with pytest.raises(NotPositive):
            pseudo_pure_reference(0.0, 0.0)

    def test_trace_one(self):
        rho = pseudo_pure_reference(0.3, 0.7)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "a, b, name",
        [(np.nan, 0.0, "a"), (np.inf, 0.0, "a"), (1.0, np.nan, "b"), (1.0, np.inf, "b"),
         (1e308, 1e308, "4a + b")],
    )
    def test_non_finite_refused(self, a, b, name):
        with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be finite, got")):
            pseudo_pure_reference(a, b)


class TestIdentityPartInvariance:
    def test_pulses_act_only_on_projector_part(self, params, eigen):
        # V rho_pp V+ = (alpha/4) 1 + (beta/4) V P44 V+ for any compiled gate
        spec = ThermalSpec(beta_scale=1e-4)
        rho_eq = high_temperature_state(eigen, spec)
        rho_pp, alpha, beta = temporal_average(rho_eq, eigen)
        gates = [
            compile_cnot(eigen, params, "R")[1],
            compile_cnot(eigen, params, "S")[1],
            compile_single_qubit_rotation(eigen, params, "R", 1.1, "Y")[1],
            compile_single_qubit_rotation(eigen, params, "S", -0.6, "X")[1],
        ]
        for v in gates:
            lhs = v @ rho_pp @ v.conj().T
            rhs = (alpha / 4.0) * np.eye(4) + (beta / 4.0) * (
                v @ proj(4, 4) @ v.conj().T
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
