import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vspin import (
    DegenerateSpectrum,
    NotHermitian,
    SpinParameters,
    build_static_hamiltonian,
    closed_form_eigensystem,
    diagonalize,
    spin_operators,
    transition_table,
)
from vspin import spin_system
from vspin.spin_system import DEGENERACY_TOL, RESOLUTION_TOL, EigenSystem

SQRT3 = np.sqrt(3.0)


class TestSpinOperators:
    def test_iz_diagonal(self):
        _, _, iz = spin_operators()
        assert np.array_equal(iz, np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex))

    def test_su2_commutators(self):
        ix, iy, iz = spin_operators()
        for a, b, c in ((ix, iy, iz), (iy, iz, ix), (iz, ix, iy)):
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) <= 1e-15

    def test_casimir(self):
        ix, iy, iz = spin_operators()
        total = ix @ ix + iy @ iy + iz @ iz
        assert np.max(np.abs(total - (15.0 / 4.0) * np.eye(4))) <= 1e-14

    def test_double_raising_element(self):
        # ladder coefficients sqrt(I(I+1) - m(m+1)) composed twice:
        # -1/2 -> +1/2 gives 2, +1/2 -> +3/2 gives sqrt(3)
        ix, iy, _ = spin_operators()
        iplus = ix + 1j * iy
        elem = (iplus @ iplus)[0, 2]  # <3/2| I+^2 |-1/2>
        assert elem == pytest.approx(2.0 * SQRT3, abs=1e-14)

    def test_hermitian(self):
        for op in spin_operators():
            assert np.max(np.abs(op - op.conj().T)) == 0.0


class TestStaticHamiltonian:
    def test_pure_quadrupole_diagonal(self):
        h = build_static_hamiltonian(SpinParameters(omega0=0.0, omegaQ=1.0, eta=0.0))
        assert np.allclose(h, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)

    def test_zeeman_shifts(self):
        h = build_static_hamiltonian(SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.0))
        # diagonal is -omega0 * m + quadrupole, basis order m = 3/2..-3/2
        assert np.allclose(np.diag(h), [0.85, -1.05, -0.95, 1.15], atol=1e-15)

    def test_asymmetry_off_diagonal(self):
        h = build_static_hamiltonian(SpinParameters(omega0=0.05, omegaQ=1.0, eta=0.2))
        assert h[0, 2] == pytest.approx(0.2 / SQRT3, abs=1e-15)

    def test_structure(self):
        h = build_static_hamiltonian(SpinParameters(omega0=0.2, omegaQ=1.3, eta=-0.7))
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        assert abs(np.trace(h)) <= 1e-14
        # only Delta m in {0, +-2} entries may be nonzero
        for i in range(4):
            for j in range(4):
                if abs(i - j) not in (0, 2):
                    assert h[i, j] == 0.0


class TestClosedForm:
    def test_degenerate_pure_quadrupole(self):
        with pytest.raises(DegenerateSpectrum):
            closed_form_eigensystem(SpinParameters(omega0=0.0, omegaQ=1.0, eta=0.0))

    def test_diagonal_case_energies(self):
        e = closed_form_eigensystem(SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.0))
        assert np.allclose(e.energies, [1.15, 0.85, -0.95, -1.05], atol=1e-14)
        assert e.regime_ok

    def test_matches_numerical_diagonalization(self):
        p = SpinParameters(omega0=0.05, omegaQ=1.0, eta=0.2)
        cf = closed_form_eigensystem(p)
        num = diagonalize(build_static_hamiltonian(p), scale=p.omegaQ)
        assert np.max(np.abs(cf.energies - num.energies)) <= 1e-10 * p.omegaQ
        overlaps = np.abs(np.sum(cf.states.conj() * num.states, axis=0))
        assert np.min(overlaps) >= 1.0 - 1e-12

    def test_eigen_equation_residual(self):
        p = SpinParameters(omega0=0.12, omegaQ=1.0, eta=0.8)
        e = closed_form_eigensystem(p)
        h = build_static_hamiltonian(p)
        residual = h @ e.states - e.states * e.energies[None, :]
        assert np.max(np.abs(residual)) <= 1e-10 * p.omegaQ

    def test_mixing_pairs_only(self):
        # eta mixes {+3/2, -1/2} (rows 0, 2) and {-3/2, +1/2} (rows 3, 1)
        e = closed_form_eigensystem(SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.6))
        for j in range(4):
            support = set(np.nonzero(np.abs(e.states[:, j]) > 1e-14)[0])
            assert support in ({0, 2}, {1, 3})

    def test_mixing_angle_convention(self):
        # tan(alpha) = sqrt(3) [B + (1 +- 2c)] / eta
        p = SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.37)
        e = closed_form_eigensystem(p)
        c = p.omega0 / (2 * p.omegaQ)
        for alpha, sign in zip(e.mixing_angles, (+1, -1)):
            b = np.hypot(1 + sign * 2 * c, p.eta / SQRT3)
            expected = SQRT3 * (b + 1 + sign * 2 * c) / p.eta
            assert np.tan(alpha) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("eta", [0.37, -0.37, 1e-9, -1e-9])
    def test_mixing_angle_convention_above_half(self, eta):
        # c = 0.75: B- + (1 - 2c) cancels, so the expected tan(alpha) is
        # sqrt(3) (B- + 1 - 2c) / eta rewritten as eta / (sqrt(3) (B- - 1 + 2c))
        p = SpinParameters(omega0=1.5, omegaQ=1.0, eta=eta)
        alpha_minus = closed_form_eigensystem(p).mixing_angles[1]
        b = np.hypot(-0.5, eta / SQRT3)
        assert np.tan(alpha_minus) == pytest.approx(eta / (SQRT3 * (b + 0.5)), rel=1e-12)
        assert 0.0 < alpha_minus < np.pi / 2 if eta > 0 else np.pi / 2 < alpha_minus < np.pi

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_draw_agreement(self, seed):
        rng = np.random.default_rng(seed)
        worst_e = 0.0
        worst_v = 0.0
        for _ in range(300):
            c = rng.uniform(0.01, 0.3)
            eta = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 1.0)
            p = SpinParameters(omega0=c, omegaQ=1.0, eta=eta)
            cf = closed_form_eigensystem(p)
            num = diagonalize(build_static_hamiltonian(p), scale=1.0)
            worst_e = max(worst_e, np.max(np.abs(cf.energies - num.energies) / np.abs(num.energies)))
            overlaps = np.abs(np.sum(cf.states.conj() * num.states, axis=0))
            worst_v = max(worst_v, np.max(1.0 - overlaps))
        assert worst_e <= 1e-10
        assert worst_v <= 1e-10


def _signed_powers(low, high):
    """+-10^x for x uniform in [low, high]."""
    return st.builds(lambda x, sign: sign * 10.0**x, st.floats(low, high), st.sampled_from([-1, 1]))


# c = omega0 / (2 omegaQ) over [0, 1], also within 1e-12..0.1 of the eta = 0
# level crossings at c = 0, 1/2 and 1; eta over [-1, 1], also at the ends,
# at zero and with |eta| down to 1e-12.
CS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.builds(lambda c0, dc: min(max(c0 + dc, 0.0), 1.0),
              st.sampled_from([0.0, 0.5, 1.0]), _signed_powers(-12.0, -1.0)),
)
ETAS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0, 0.0]), _signed_powers(-12.0, 0.0))


@settings(max_examples=200, deadline=None)
@example(c=0.75, eta=1e-8, omegaQ=1.0)  # B- + (1 - 2c) cancels above c = 1/2
@example(c=0.75, eta=0.0, omegaQ=1.0)
@given(c=CS, eta=ETAS, omegaQ=st.floats(0.1, 10.0))
def test_closed_form_agrees_with_diagonalize(c, eta, omegaQ):
    p = SpinParameters(omega0=2.0 * c * omegaQ, omegaQ=omegaQ, eta=eta)
    try:
        e = closed_form_eigensystem(p)
    except DegenerateSpectrum:
        e = None
    assume(e is not None and e.regime_ok)
    h = build_static_hamiltonian(p)
    residual = np.max(np.linalg.norm(h @ e.states - e.states * e.energies, axis=0))
    assert residual <= 1e-13 * omegaQ
    reference = diagonalize(h, scale=omegaQ)
    assert np.max(np.abs(e.energies - reference.energies)) <= 1e-13 * omegaQ


class TestDiagonalize:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian, match=r"^max \|H - H\^dagger\| = 9\.000e\+00 exceeds 1e-12 \* 1\.500e\+01$"):
            diagonalize(np.arange(16.0).reshape(4, 4))

    def test_entries_whose_modulus_overflows_keep_the_rule(self):
        # max|H| = |1.5e308 (1 + i)| overflows; the rule is taken on H/4
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = 1.5e308 + 1.5e308j
        h[1, 0] = h[0, 1].conjugate()
        h[2, 3] = 1e300
        with np.errstate(over="ignore"), pytest.raises(
            NotHermitian, match=r"^max \|\(H/4\) - \(H/4\)\^dagger\| = 2\.500e\+299 exceeds 1e-12 \* 5\.303e\+307$"
        ):
            diagonalize(h)
        h[1, 0] = 0.0
        h[2, 3] = 0.0
        with np.errstate(over="ignore"), pytest.raises(NotHermitian, match=r"^max \|\(H/4\) - \(H/4\)\^dagger\|"):
            diagonalize(h)

    def test_hermitian_past_the_float_range_is_degenerate(self):
        # within the rule (a defect of 5 against 2.1e308), but its energies
        # +-|1.5e308 (1 + i)| overflow: the overflow refusal, not a LinAlgError
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = 1.5e308 + 1.5e308j
        h[1, 0] = h[0, 1].conjugate()
        h[2, 3] = 5.0
        with np.errstate(over="ignore"), pytest.raises(DegenerateSpectrum, match=r"^energies overflow"):
            diagonalize(h)
        # real pairs: each entry and each energy in range, only H + H^dagger overflows
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = h[1, 0] = 1.5e308
        h[2, 3] = h[3, 2] = 1e307
        e = diagonalize(h)
        assert np.allclose(e.energies / 1e307, [15.0, 1.0, -1.0, -15.0], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    @pytest.mark.parametrize("entries", [((0, 0),), ((2, 1), (1, 2))], ids=["diagonal", "off-diagonal"])
    def test_non_finite_entry_refused_as_not_finite(self, value, entries):
        # refused before eigh under its own cause, not as an overflow, and with no warning
        h = np.diag([0.5, 1.0, 0.0, -1.0]).astype(complex)
        for entry in entries:
            h[entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^hamiltonian must be finite$"):
                diagonalize(h)

    def test_degenerate_flagged_with_energies(self):
        with pytest.raises(DegenerateSpectrum) as info:
            diagonalize(np.diag([1.0, -1.0, -1.0, 1.0]))
        assert np.allclose(info.value.energies, [1.0, 1.0, -1.0, -1.0])

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_bad_scale_refused(self, scale):
        # the scale sets the degeneracy bound: a non-positive one would let
        # the degenerate spin omega0 = eta = 0 through with labels
        h = build_static_hamiltonian(SpinParameters(0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match=r"^scale must be finite and > 0, got"):
            diagonalize(h, scale=scale)

    def test_residual_property(self, rng):
        for _ in range(50):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = a + a.conj().T
            try:
                e = diagonalize(h)
            except DegenerateSpectrum:
                continue
            recon = e.states @ np.diag(e.energies) @ e.states.conj().T
            assert np.max(np.abs(recon - h)) <= 1e-12 * np.max(np.abs(h))
            assert np.max(np.abs(e.states.conj().T @ e.states - np.eye(4))) <= 1e-12

    def test_phase_convention(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            try:
                e = diagonalize(a + a.conj().T)
            except DegenerateSpectrum:
                continue
            for j in range(4):
                pivot = e.states[np.argmax(np.abs(e.states[:, j])), j]
                assert pivot.imag == 0.0
                assert pivot.real > 0.0


def _fix_phases_by_column(states):
    """The phase rule as a loop over the columns, in place: each column's
    largest-magnitude entry made real positive, the pivot's magnitude taken
    by abs() of the one entry."""
    for j in range(states.shape[1]):
        k = int(np.argmax(np.abs(states[:, j])))
        pivot = states[k, j]
        mag = abs(pivot)
        if mag > 0.0:
            states[:, j] *= pivot.conjugate() / mag
            states[k, j] = states[k, j].real
    return states


class TestPhaseRule:
    """_fix_phases, vectorized over the columns, against the column loop."""

    @pytest.mark.parametrize("route", ["closed form", "diagonalize"])
    def test_matches_the_column_loop_bytewise(self, monkeypatch, route):
        # every eigensystem either route builds over seeded spins, and over
        # random Hermitian matrices, whose eigenvectors carry complex pivots
        rng = np.random.default_rng(20261019)
        real, calls = spin_system._fix_phases, []

        def both(states):
            expected = _fix_phases_by_column(states.copy())
            out = real(states)
            assert out.tobytes() == expected.tobytes()
            calls.append(out)
            return out

        monkeypatch.setattr(spin_system, "_fix_phases", both)
        for _ in range(400):
            omega_q = 10.0 ** rng.uniform(-2.0, 2.0)
            p = SpinParameters(omega0=omega_q * rng.uniform(0.0, 3.0), omegaQ=omega_q,
                               eta=rng.choice([0.0, 1.0, rng.uniform(-1.0, 1.0)]))
            if route == "closed form":
                hamiltonians = []
            else:
                a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                hamiltonians = [build_static_hamiltonian(p), (a + a.conj().T) * 10.0 ** rng.uniform(-5.0, 5.0)]
            try:
                if route == "closed form":
                    closed_form_eigensystem(p)
                for h in hamiltonians:
                    diagonalize(h)
            except DegenerateSpectrum:
                continue
        assert len(calls) >= 400

    def test_columns_without_a_pivot_are_left_as_they_are(self):
        # a zero column and a nan column have no positive magnitude
        states = np.array([[0.0, np.nan, 1j], [0.0, 1.0, 0.5]] * 2, dtype=complex)
        expected = _fix_phases_by_column(states.copy())
        assert spin_system._fix_phases(states).tobytes() == expected.tobytes()


def _assemble_by_array(energies, states, mixing, scale):
    """_assemble as numpy arrays all through: sort, gaps and smallest gap,
    states reordered by fancy index and phase-fixed by the column loop."""
    order = sorted(range(len(energies)), key=lambda j: -energies[j])
    energies = np.asarray(energies, dtype=float)[order]
    states = _fix_phases_by_column(np.asarray(states, dtype=complex)[:, order])
    gaps = -(energies[1:] - energies[:-1])
    if not np.isfinite(gaps).all():
        raise DegenerateSpectrum(
            "energies overflow double precision; level labels are undefined", energies=energies
        )
    min_gap = gaps.min()
    if min_gap < DEGENERACY_TOL * scale:
        raise DegenerateSpectrum(
            f"energy gap {min_gap:.3e} below {DEGENERACY_TOL:.1e} * scale; level labels are undefined",
            energies=energies,
        )
    return EigenSystem(energies=energies, states=states, mixing_angles=mixing,
                       regime_ok=bool(min_gap > RESOLUTION_TOL * scale), scale=float(scale))


@np.errstate(over="ignore", invalid="ignore")
def _closed_form_by_scalar(p):
    """closed_form_eigensystem with one numpy call per block and function,
    its states written into a zero matrix."""
    c = p.omega0 / (2.0 * p.omegaQ)
    eta_r = p.eta / np.sqrt(3.0)
    b_plus = np.hypot(1.0 + 2.0 * c, eta_r)
    b_minus = np.hypot(1.0 - 2.0 * c, eta_r)
    theta_p = np.arctan2(eta_r, 1.0 + 2.0 * c) / 2.0
    theta_m = np.arctan2(eta_r, 1.0 - 2.0 * c) / 2.0
    energies = p.omegaQ * np.array([c + b_plus, c - b_plus, -c + b_minus, -c - b_minus])
    states = np.zeros((4, 4), dtype=complex)
    states[3, 0], states[1, 0] = np.cos(theta_p), np.sin(theta_p)
    states[3, 1], states[1, 1] = -np.sin(theta_p), np.cos(theta_p)
    states[0, 2], states[2, 2] = np.cos(theta_m), np.sin(theta_m)
    states[0, 3], states[2, 3] = -np.sin(theta_m), np.cos(theta_m)
    alpha = (np.pi / 2.0 - theta_p, np.pi / 2.0 - theta_m)
    return _assemble_by_array(energies, states, alpha, p.omegaQ)


def _outcome(build, *args):
    """Every byte of an eigensystem, with its states' layout; or a refusal's
    type, message and energies."""
    try:
        e = build(*args)
    except DegenerateSpectrum as exc:
        return type(exc), str(exc), exc.energies.dtype, exc.energies.tobytes()
    angles = e.mixing_angles or ()
    return (e.energies.dtype, e.energies.tobytes(), e.states.dtype, e.states.strides, e.states.tobytes(),
            [type(a) for a in angles], np.array(angles).tobytes(), e.regime_ok, np.array(e.scale).tobytes())


def _edge_spins(rng, count):
    """Seeded spins over the whole float range, the level crossings at
    omega0 = omegaQ and 2 omegaQ, and eta = 0 and omega0 = 0."""
    extremes = [1e308, 1.7976931348623157e308, 1e-320, 5e-324, 1e-300, 1.0]
    for k in range(count):
        omega_q = 10.0 ** rng.uniform(-3.0, 3.0)
        eta = rng.uniform(-1.0, 1.0)
        kind = k % 5
        if kind == 0:
            omega0 = omega_q * rng.uniform(0.0, 3.0)
        elif kind == 1:
            omega0 = omega_q * rng.choice([1.0, 2.0]) * (1.0 + rng.choice([0.0, 1e-16, -1e-16, 1e-9 * rng.normal()]))
            eta = rng.choice([0.0, -0.0, 1e-8 * rng.normal(), eta])
        elif kind == 2:
            omega0 = rng.choice([0.0, omega_q * rng.uniform(0.0, 3.0)])
            eta = rng.choice([0.0, -0.0, 1.0, -1.0, eta])
        else:
            omega_q = rng.choice([*extremes, 10.0 ** rng.uniform(-323.0, 308.0)])
            omega0 = rng.choice([0.0, *extremes, 10.0 ** rng.uniform(-323.0, 308.0)])
            eta = rng.choice([0.0, 1e-320, 1.0, eta])
        yield SpinParameters(omega0=float(omega0), omegaQ=float(omega_q), eta=float(eta))


class TestClosedFormBytes:
    """closed_form_eigensystem and diagonalize against the same eigensystems
    built with numpy arrays all through, byte for byte."""

    def test_closed_form_matches_its_array_form(self):
        outcomes = set()
        for p in _edge_spins(np.random.default_rng(20261020), 20_000):
            expected = _outcome(_closed_form_by_scalar, p)
            assert _outcome(closed_form_eigensystem, p) == expected, p
            outcomes.add(expected[1] if expected[0] is DegenerateSpectrum else expected[-2])
        # labeled resolved and unresolved spectra, and both refusals
        assert {True, False} <= outcomes
        assert any(o.startswith("energies overflow") for o in outcomes if isinstance(o, str))
        assert any(o.startswith("energy gap") for o in outcomes if isinstance(o, str))

    def test_diagonalize_matches_its_array_form(self):
        rng = np.random.default_rng(20261021)

        def by_array(h):
            energies, states = np.linalg.eigh((h + h.conj().T) / 2.0)
            return _assemble_by_array(energies, states, None, max(np.max(np.abs(energies)), np.finfo(float).tiny))

        for k, p in enumerate(_edge_spins(rng, 2_000)):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for h in (build_static_hamiltonian(p) if k % 5 < 3 else np.diag(rng.choice([0.0, -0.0, 1.0], 4)) + 0j,
                      (a + a.conj().T) * 10.0 ** rng.uniform(-5.0, 5.0)):
                assert _outcome(diagonalize, h) == _outcome(by_array, h)


class TestEigenSystemInvariants:
    def test_energy_sum_zero(self, eigen):
        assert abs(np.sum(eigen.energies)) <= 1e-12 * eigen.scale

    def test_states_unitary(self, eigen):
        gram = eigen.states.conj().T @ eigen.states
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12

    def test_labels_descend(self, eigen):
        assert np.all(np.diff(eigen.energies) < 0)
        assert eigen.regime_ok

    def test_phase_convention(self, eigen):
        for j in range(4):
            pivot = eigen.states[np.argmax(np.abs(eigen.states[:, j])), j]
            assert pivot.imag == 0.0
            assert pivot.real > 0.0

    def test_energy_expectation_consistency(self, params, eigen):
        h = build_static_hamiltonian(params)
        for m in range(1, 5):
            v = eigen.state(m)
            assert np.real(v.conj() @ h @ v) == pytest.approx(
                eigen.energy(m), abs=1e-12 * params.omegaQ
            )


class TestTransitionTable:
    def test_diagonal_case_frequencies(self):
        e = closed_form_eigensystem(SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.0))
        t = transition_table(e)
        assert t.frequency(1, 2) == pytest.approx(0.30, abs=1e-14)
        assert t.frequency(1, 4) == pytest.approx(2.20, abs=1e-14)
        assert len(t.entries) == 6
        assert all(omega > 0 for _, _, omega in t.entries)
        assert t.collisions == ()

    def test_collision_flagged(self):
        # B_minus = 2c makes Omega(1,2) and Omega(2,4) coincide exactly;
        # solving gives C = (1 + eta^2/3) / 2
        eta = 0.6
        p = SpinParameters(omega0=(1 + eta**2 / 3) / 2, omegaQ=1.0, eta=eta)
        t = transition_table(closed_form_eigensystem(p))
        colliding = {frozenset((a, b)) for a, b, _ in t.collisions}
        assert frozenset(((1, 2), (2, 4))) in colliding

    def test_margin_is_the_resolution(self):
        # lines are told apart at the resolution regime_ok applies to levels
        e = closed_form_eigensystem(SpinParameters(omega0=0.1, omegaQ=2.0, eta=0.3))
        assert transition_table(e).margin == RESOLUTION_TOL * e.scale == 2e-6

    def test_eigensystem_keeps_its_table(self, eigen):
        assert eigen.transitions is eigen.transitions
        assert eigen.transitions == transition_table(eigen)

    def test_eigensystem_keeps_its_axis_operators(self, params):
        # built on first use per axis, read-only, the bytes of to_eigen
        e = closed_form_eigensystem(params)
        ix, iy, _ = spin_operators()
        for axis, operator in (("X", ix), ("Y", iy)):
            eigen_operator = e.axis_operator(axis)
            assert eigen_operator is e.axis_operator(axis)
            assert not eigen_operator.flags.writeable
            assert eigen_operator.tobytes() == e.to_eigen(operator).tobytes()


class TestNonFinite:
    @pytest.mark.parametrize("field", ["omega0", "omegaQ", "gamma", "h_rf"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_parameters_must_be_finite(self, field, value):
        values = {"omega0": 0.1, "omegaQ": 1.0, "eta": 0.5, "gamma": 1.0, "h_rf": 0.0}
        values[field] = value
        with pytest.raises(ValueError, match="finite"):
            SpinParameters(**values)

    def test_overflowing_energies_are_degenerate(self):
        # finite inputs, but c = omega0 / (2 omegaQ) overflows to inf and
        # the energies come out inf and nan
        p = SpinParameters(omega0=0.1, omegaQ=1e-320, eta=0.5)
        with np.errstate(all="ignore"), pytest.raises(DegenerateSpectrum, match="overflow"):
            closed_form_eigensystem(p)


class TestSharedOperators:
    def test_built_once(self):
        assert all(a is b for a, b in zip(spin_operators(), spin_operators()))

    def test_read_only(self):
        for op in spin_operators():
            with pytest.raises(ValueError):
                op[0, 0] = 1.0
