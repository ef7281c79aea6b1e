import re

import numpy as np
import pytest

from vspin import (
    IndexOutOfRange,
    SpinParameters,
    build_static_hamiltonian,
    closed_form_eigensystem,
    expand_in_eigenbasis,
    free_evolution,
    projector,
    projector_product,
    selection_rules,
    spin_operators,
)


class TestProjector:
    def test_elementary_form(self):
        assert np.array_equal(projector(1, 1).matrix, np.diag([1.0, 0, 0, 0]).astype(complex))
        p23 = projector(2, 3).matrix
        assert p23[1, 2] == 1.0
        assert np.count_nonzero(p23) == 1

    def test_adjoint(self):
        assert projector(2, 3).adjoint == projector(3, 2)
        assert np.array_equal(projector(2, 3).matrix.conj().T, projector(3, 2).matrix)

    @pytest.mark.parametrize("bad", [0, 5, -1])
    def test_index_range(self, bad):
        with pytest.raises(IndexOutOfRange):
            projector(bad, 1)
        with pytest.raises(IndexOutOfRange):
            projector(1, bad)

    def test_product_rule_examples(self):
        assert np.array_equal(
            projector_product(projector(1, 2), projector(2, 3)), projector(1, 3).matrix
        )
        assert np.count_nonzero(projector_product(projector(1, 2), projector(3, 4))) == 0

    def test_product_rule_exhaustive(self):
        # delta_lm P_kn against brute-force matrix multiplication, all 4^4 cases
        for k in range(1, 5):
            for l in range(1, 5):
                for m in range(1, 5):
                    for n in range(1, 5):
                        lhs = projector_product(projector(k, l), projector(m, n))
                        rhs = projector(k, l).matrix @ projector(m, n).matrix
                        assert np.array_equal(lhs, rhs)

    def test_completeness(self):
        total = sum(projector(m, m).matrix for m in range(1, 5))
        assert np.array_equal(total, np.eye(4, dtype=complex))


class TestExpansion:
    def test_identity_coefficients(self, eigen):
        exp = expand_in_eigenbasis(np.eye(4), eigen)
        assert np.max(np.abs(exp.coefficients - np.eye(4))) <= 1e-14

    def test_hamiltonian_is_diagonal(self, params, eigen):
        h = build_static_hamiltonian(params)
        exp = expand_in_eigenbasis(h, eigen)
        assert np.max(np.abs(exp.coefficients - np.diag(eigen.energies))) <= 1e-13

    def test_iy_pattern_diagonal_case(self):
        # eta = 0: eigenstates are |chi> states relabeled, so Iy connects
        # exactly the label pairs that map to Delta m = +-1
        e = closed_form_eigensystem(SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.0))
        _, iy, _ = spin_operators()
        coeff = expand_in_eigenbasis(iy, e).coefficients
        nonzero = {
            (m, n)
            for m in range(1, 5)
            for n in range(m + 1, 5)
            if abs(coeff[m - 1, n - 1]) > 1e-14
        }
        chi_m = {1: -1.5, 2: 1.5, 3: -0.5, 4: 0.5}  # labels at small C
        expected = {
            (m, n)
            for m in range(1, 5)
            for n in range(m + 1, 5)
            if abs(chi_m[m] - chi_m[n]) == 1.0
        }
        assert nonzero == expected

    def test_reconstruction_round_trip(self, eigen, rng):
        for _ in range(25):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            exp = expand_in_eigenbasis(a, eigen)
            back = exp.matrix_lab(eigen)
            assert np.max(np.abs(back - a)) <= 1e-13 * np.max(np.abs(a))

    def test_hermitian_coefficients(self, eigen, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        c = expand_in_eigenbasis(h, eigen).coefficients
        assert np.max(np.abs(c - c.conj().T)) <= 1e-13


class TestFreeEvolution:
    def test_zero_time_identity(self, eigen):
        assert np.array_equal(free_evolution(eigen, 0.0), np.eye(4, dtype=complex))

    def test_diagonal_phases(self, eigen):
        t = 0.37
        d = free_evolution(eigen, t)
        assert np.max(np.abs(np.diag(d) - np.exp(-1j * eigen.energies * t))) <= 1e-15
        assert np.count_nonzero(d - np.diag(np.diag(d))) == 0

    def test_additivity(self, eigen):
        d1 = free_evolution(eigen, 0.81)
        d2 = free_evolution(eigen, 1.73)
        assert np.max(np.abs(d1 @ d2 - free_evolution(eigen, 0.81 + 1.73))) <= 1e-13

    def test_unitary_at_large_phase(self, eigen):
        t = 1e6 / np.max(np.abs(eigen.energies))
        d = free_evolution(eigen, t)
        assert np.max(np.abs(d.conj().T @ d - np.eye(4))) <= 1e-13

    def test_rejects_non_finite(self, eigen):
        with pytest.raises(ValueError):
            free_evolution(eigen, np.inf)

    @pytest.mark.parametrize("t", [float(np.finfo(float).max), -float(np.finfo(float).max)])
    def test_rejects_an_overflowing_phase(self, eigen, t):
        # t is finite, but eps_m t is not (max |eps_m| > 1); the suite turns a
        # RuntimeWarning into an error, so the refusal also emits none
        assert np.max(np.abs(eigen.energies)) > 1.0
        with pytest.raises(ValueError, match=re.escape(f"duration {t!r} overflows")):
            free_evolution(eigen, t)


class TestSelectionRules:
    def test_chi_basis_transverse_rule(self):
        # the raw operators themselves: nonzero only on the +-1 off-diagonals
        ix, iy, _ = spin_operators()
        for op in (ix, iy):
            for i in range(4):
                for j in range(4):
                    if abs(i - j) != 1:
                        assert op[i, j] == 0.0
                    else:
                        assert abs(op[i, j]) > 0.0

    def test_eigenbasis_label_differences(self):
        # with mixing on, allowed label differences are +-1 and +-2
        e = closed_form_eigensystem(SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.3))
        rules = selection_rules(e, "Y")
        diffs = {
            abs(m - n)
            for m in range(1, 5)
            for n in range(1, 5)
            if m != n and rules.allowed(m, n)
        }
        assert diffs == {1, 2}
        # the pairs mixed by the asymmetry term stay dark at any eta
        assert not rules.allowed(2, 3)
        assert not rules.allowed(1, 4)

    def test_iz_diagonal_when_unmixed(self):
        e = closed_form_eigensystem(SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.0))
        rules = selection_rules(e, "Z")
        assert np.array_equal(rules.mask, np.eye(4, dtype=bool))

    def test_mask_matches_elements(self, eigen):
        # the drivability rule: |<psi_m| I_axis |psi_n>| >= 1e-14
        rules = selection_rules(eigen, "X")
        assert np.array_equal(rules.mask, np.abs(rules.elements) >= 1e-14)

    def test_rejects_unknown_axis(self, eigen):
        with pytest.raises(ValueError):
            selection_rules(eigen, "Q")
