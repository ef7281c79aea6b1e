import numpy as np
import pytest
import scipy.linalg

from vspin import (
    GateRequest,
    IndexOutOfRange,
    bits_to_level,
    compile_cnot,
    compile_gate,
    compile_single_qubit_rotation,
    embed_tensor_projector,
    format_truth_table,
    level_to_bits,
    projector,
    truth_table,
    virtual_spin_components,
)


def proj(m, n):
    return projector(m, n).matrix


def elementary2(k, l):
    out = np.zeros((2, 2), dtype=complex)
    out[k - 1, l - 1] = 1.0
    return out


class TestLabelMap:
    def test_fixed_bijection(self):
        assert level_to_bits(1) == "11"
        assert level_to_bits(2) == "10"
        assert level_to_bits(3) == "01"
        assert level_to_bits(4) == "00"

    def test_round_trip(self):
        for m in range(1, 5):
            assert bits_to_level(level_to_bits(m)) == m

    def test_errors(self):
        with pytest.raises(IndexOutOfRange):
            level_to_bits(5)
        with pytest.raises(IndexOutOfRange):
            bits_to_level("12")

    @pytest.mark.parametrize("bits", [11, 10, 1, 0, 11.0, b"11", ["1", "1"], ("1", "0"), None, " 11", "11 "])
    def test_only_bit_strings(self, bits):
        # integers are not bit strings, though str(11) and str(10) spell two
        with pytest.raises(IndexOutOfRange, match=r"^bit string must be one of 00, 01, 10, 11, got "):
            bits_to_level(bits)


class TestEmbedding:
    def test_examples(self):
        assert embed_tensor_projector((1, 1), (1, 1)) == projector(1, 1)
        assert embed_tensor_projector((2, 2), (2, 2)) == projector(4, 4)
        assert embed_tensor_projector((1, 2), (2, 1)) == projector(2, 3)

    def test_matches_kronecker_product(self):
        # index formula against the explicit tensor product, all 16 pairs
        for k in (1, 2):
            for l in (1, 2):
                for m in (1, 2):
                    for n in (1, 2):
                        embedded = embed_tensor_projector((k, l), (m, n)).matrix
                        kron = np.kron(elementary2(k, l), elementary2(m, n))
                        assert np.array_equal(embedded, kron)

    def test_index_errors(self):
        with pytest.raises(IndexOutOfRange):
            embed_tensor_projector((0, 1), (1, 1))
        with pytest.raises(IndexOutOfRange):
            embed_tensor_projector((1, 1), (1, 3))


class TestVirtualComponents:
    def test_rz_embedding(self):
        comps = virtual_spin_components()
        assert np.max(np.abs(comps["Rz"] - np.diag([0.5, 0.5, -0.5, -0.5]))) == 0.0

    def test_matches_pauli_kron(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
        sy = np.array([[0, -1j], [1j, 0]]) / 2
        sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
        eye = np.eye(2, dtype=complex)
        comps = virtual_spin_components()
        for axis, pauli in zip("xyz", (sx, sy, sz)):
            assert np.array_equal(comps["R" + axis], np.kron(pauli, eye))
            assert np.array_equal(comps["S" + axis], np.kron(eye, pauli))

    def test_cross_spin_commutators_vanish(self):
        comps = virtual_spin_components()
        for ra in "xyz":
            for sa in "xyz":
                r, s = comps["R" + ra], comps["S" + sa]
                assert np.max(np.abs(r @ s - s @ r)) == 0.0

    def test_casimir_and_eigenvalues(self):
        comps = virtual_spin_components()
        for spin in "RS":
            total = sum(comps[spin + a] @ comps[spin + a] for a in "xyz")
            assert np.max(np.abs(total - 0.75 * np.eye(4))) <= 1e-15
            for a in "xyz":
                eigs = np.sort(np.linalg.eigvalsh(comps[spin + a]))
                assert np.allclose(eigs, [-0.5, -0.5, 0.5, 0.5], atol=1e-14)


class TestRotationCompiler:
    def test_s_rotation_projector_form(self, params, eigen):
        phi = 0.913
        _, u = compile_single_qubit_rotation(eigen, params, "S", phi, "Y")
        expected = np.eye(4, dtype=complex) * np.cos(phi / 2) + (
            proj(2, 1) - proj(1, 2) + proj(4, 3) - proj(3, 4)
        ) * np.sin(phi / 2)
        assert np.max(np.abs(u - expected)) <= 1e-13

    def test_r_rotation_exponential_form(self, params, eigen):
        phi = -2.17
        _, u = compile_single_qubit_rotation(eigen, params, "R", phi, "Y")
        generator = virtual_spin_components()["Ry"]
        assert np.max(np.abs(u - scipy.linalg.expm(-1j * phi * generator))) <= 1e-12

    @pytest.mark.parametrize("target", ["R", "S"])
    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_matches_generator_exponential(self, params, eigen, rng, target, axis):
        generator = virtual_spin_components()[target + axis.lower()]
        for phi in rng.uniform(-4 * np.pi, 4 * np.pi, size=25):
            _, u = compile_single_qubit_rotation(eigen, params, target, phi, axis)
            ref = scipy.linalg.expm(-1j * phi * generator)
            assert np.max(np.abs(u - ref)) <= 1e-12

    def test_zero_angle_identity(self, params, eigen):
        _, u = compile_single_qubit_rotation(eigen, params, "S", 0.0, "Y")
        assert np.max(np.abs(u - np.eye(4))) == 0.0

    def test_other_spin_untouched(self, params, eigen):
        comps = virtual_spin_components()
        _, u = compile_single_qubit_rotation(eigen, params, "S", 1.3, "Y")
        for axis in "xyz":
            r = comps["R" + axis]
            assert np.max(np.abs(u @ r - r @ u)) <= 1e-13
        _, u = compile_single_qubit_rotation(eigen, params, "R", -0.7, "X")
        for axis in "xyz":
            s = comps["S" + axis]
            assert np.max(np.abs(u @ s - s @ u)) <= 1e-13

    def test_program_shape(self, params, eigen):
        prog, _ = compile_single_qubit_rotation(eigen, params, "R", 0.5, "Y")
        assert len(prog.steps) == 1
        step = prog.steps[0]
        assert {step.a.transition, step.b.transition} == {(1, 3), (2, 4)}
        assert step.a.flip == step.b.flip == 0.5

    def test_spinor_sign_at_2pi(self, params, eigen):
        _, u = compile_single_qubit_rotation(eigen, params, "S", 2 * np.pi, "Y")
        assert np.max(np.abs(u + np.eye(4))) <= 1e-14


class TestCnotCompiler:
    def test_control_r_matrix(self, params, eigen):
        prog, u = compile_cnot(eigen, params, "R")
        expected = proj(3, 3) + proj(4, 4) + proj(2, 1) - proj(1, 2)
        assert np.max(np.abs(u - expected)) <= 1e-12
        assert prog.steps[0].pulse.transition == (1, 2)

    def test_control_s_matrix(self, params, eigen):
        prog, u = compile_cnot(eigen, params, "S")
        expected = proj(2, 2) + proj(4, 4) + proj(3, 1) - proj(1, 3)
        assert np.max(np.abs(u - expected)) <= 1e-12
        assert prog.steps[0].pulse.transition == (1, 3)

    def test_tensor_operator_forms(self, params, eigen):
        # control R: R11 (x) (S21 - S12) + R22 (x) 1S
        _, u = compile_cnot(eigen, params, "R")
        form = (
            np.kron(elementary2(1, 1), elementary2(2, 1) - elementary2(1, 2))
            + np.kron(elementary2(2, 2), np.eye(2))
        )
        assert np.max(np.abs(u - form)) <= 1e-13
        # control S: 1R (x) S22 + (R21 - R12) (x) S11
        _, u = compile_cnot(eigen, params, "S")
        form = (
            np.kron(np.eye(2), elementary2(2, 2))
            + np.kron(elementary2(2, 1) - elementary2(1, 2), elementary2(1, 1))
        )
        assert np.max(np.abs(u - form)) <= 1e-13

    def test_double_cnot_spinor_sign(self, params, eigen):
        _, u = compile_cnot(eigen, params, "R")
        assert np.max(np.abs(u @ u - np.diag([-1.0, -1.0, 1.0, 1.0]))) <= 1e-13

    def test_dispatch(self, params, eigen):
        _, u1 = compile_gate(eigen, params, GateRequest(kind="cnot", target="S"))
        _, u2 = compile_cnot(eigen, params, "S")
        assert np.array_equal(u1, u2)
        _, u3 = compile_gate(
            eigen, params, GateRequest(kind="rotation", target="R", axis="X", angle=0.4)
        )
        _, u4 = compile_single_qubit_rotation(eigen, params, "R", 0.4, "X")
        assert np.array_equal(u3, u4)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            GateRequest(kind="swap", target="R")
        with pytest.raises(ValueError):
            GateRequest(kind="rotation", target="R")
        with pytest.raises(ValueError):
            GateRequest(kind="cnot", target="Q")

    def test_compilers_refuse_unknown_targets(self, params, eigen):
        with pytest.raises(ValueError, match=r"^target must be R or S, got 'Q'$"):
            compile_single_qubit_rotation(eigen, params, "Q", 0.4)
        with pytest.raises(ValueError, match=r"^control must be R or S, got 'Q'$"):
            compile_cnot(eigen, params, "Q")


class TestTruthTable:
    def test_cnot_r_rows(self, params, eigen):
        _, u = compile_cnot(eigen, params, "R")
        rows = truth_table(u)
        got = [(r.input_bits, r.output_bits, round(r.phase.real)) for r in rows]
        assert got == [
            ("11", "10", 1),
            ("10", "11", -1),
            ("01", "01", 1),
            ("00", "00", 1),
        ]

    def test_cnot_s_rows(self, params, eigen):
        _, u = compile_cnot(eigen, params, "S")
        rows = truth_table(u)
        got = [(r.input_bits, r.output_bits, round(r.phase.real)) for r in rows]
        assert got == [
            ("11", "01", 1),
            ("10", "10", 1),
            ("01", "11", -1),
            ("00", "00", 1),
        ]

    def test_global_phase_invariance(self, params, eigen):
        _, u = compile_cnot(eigen, params, "R")
        base = format_truth_table(truth_table(u))
        for theta in (0.3, 2.1, -1.8):
            assert format_truth_table(truth_table(np.exp(1j * theta) * u)) == base

    def test_identity(self):
        rows = truth_table(np.eye(4, dtype=complex))
        assert all(r.input_bits == r.output_bits for r in rows)
        assert all(abs(r.phase - 1.0) <= 1e-14 for r in rows)

    def test_superposition_detected(self, params, eigen):
        _, u = compile_single_qubit_rotation(eigen, params, "S", np.pi / 2, "Y")
        rows = truth_table(u)
        assert all(not r.is_basis for r in rows)
        assert "superposition" in format_truth_table(rows)

    def test_non_real_phase_printed_as_exponential(self):
        text = format_truth_table(truth_table(np.diag([1.0, 1j, -1.0, 1.0])))
        assert text.splitlines() == [
            "|11> -> |11>",
            "|10> -> exp(i1.5708)*|10>",
            "|01> -> -|01>",
            "|00> -> |00>",
        ]

    @pytest.mark.parametrize(("u", "message"), [
        (np.eye(2), r"a 4x4 matrix, got shape \(2, 2\)"),
        (np.eye(5), r"a 4x4 matrix, got shape \(5, 5\)"),
        (np.full((4, 4), np.nan), r"a finite matrix, got \(nan\+0j\) in column 1"),
        (np.diag([1.0, 1.0, 1.0, np.inf]), r"a finite matrix, got \(inf\+0j\) in column 4"),
        (np.eye(4) + np.diag([0.0, np.nan], -2), r"a finite matrix, got \(nan\+0j\) in column 2"),
        (np.eye(4) + np.diag([0.0, 0.0, -np.inf], 1), r"a finite matrix, got \(-inf\+0j\) in column 4"),
    ], ids=["2x2", "5x5", "nan", "inf", "nan-off-peak", "inf-off-peak"])
    def test_refuses_non_finite_or_non_4x4(self, u, message):
        with pytest.raises(ValueError, match=rf"^truth table needs {message}$"):
            truth_table(u)

    def test_formatting(self, params, eigen):
        _, u = compile_cnot(eigen, params, "R")
        text = format_truth_table(truth_table(u))
        assert text.splitlines() == [
            "|11> -> |10>",
            "|10> -> -|11>",
            "|01> -> |01>",
            "|00> -> |00>",
        ]
