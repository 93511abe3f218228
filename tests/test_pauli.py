import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleclone import pauli
from circleclone.linalg import is_psd, kron
from circleclone.pauli import (
    PAULI_BASIS,
    PAULI_STACK,
    SIGMA_X,
    bloch_to_density,
    density_to_bloch,
    great_circle_bloch,
    great_circle_ket,
    pauli_decompose,
    rotate_bloch,
    rotation_unitary,
)

RNG = np.random.default_rng(7)

BELL_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


class TestBlochToDensity:
    def test_north_pole(self):
        assert np.allclose(bloch_to_density([0, 0, 1]), [[1, 0], [0, 0]], atol=1e-15)

    def test_plus_state(self):
        assert np.allclose(bloch_to_density([1, 0, 0]), np.full((2, 2), 0.5), atol=1e-15)

    def test_maximally_mixed(self):
        assert np.allclose(bloch_to_density([0, 0, 0]), np.eye(2) / 2, atol=1e-15)

    def test_state_contract(self):
        for _ in range(20):
            m = RNG.uniform(-1, 1, 3)
            m *= RNG.uniform(0, 1) / np.linalg.norm(m)
            rho = bloch_to_density(m)
            assert abs(np.trace(rho) - 1) < 1e-14
            assert is_psd(rho, tol=1e-12)[0]
            assert np.allclose(density_to_bloch(rho), m, atol=1e-13)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError, match="unphysical Bloch vector"):
            bloch_to_density([1.0, 0.0, 0.1])


class TestDensityToBloch:
    def test_south_pole(self):
        assert np.allclose(density_to_bloch(np.diag([0.0, 1.0])), [0, 0, -1], atol=1e-15)

    def test_maximally_mixed(self):
        assert np.allclose(density_to_bloch(np.eye(2) / 2), [0, 0, 0], atol=1e-15)

    def test_linearity(self):
        rho = 0.5 * (np.eye(2) + 0.7 * SIGMA_X)
        assert np.allclose(density_to_bloch(rho), [0.7, 0, 0], atol=1e-15)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            density_to_bloch(np.eye(2))


class TestRotationUnitary:
    def test_zero_angle(self):
        assert np.allclose(rotation_unitary(0), np.eye(2), atol=1e-15)

    def test_quarter_turn(self):
        expected = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
        assert np.allclose(rotation_unitary(np.pi / 2), expected, atol=1e-15)
        u = rotation_unitary(np.pi / 2)
        rotated = density_to_bloch(u @ bloch_to_density([0, 0, 1]) @ u.conj().T)
        assert np.allclose(rotated, [1, 0, 0], atol=1e-15)

    def test_full_turn_is_minus_identity(self):
        assert np.allclose(rotation_unitary(2 * np.pi), -np.eye(2), atol=1e-15)

    def test_unitarity(self):
        for beta in RNG.uniform(0, 2 * np.pi, 20):
            u = rotation_unitary(beta)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_is_the_real_matrix_of_half_angle_cosines_and_sines(self):
        betas = np.append(RNG.uniform(-4 * np.pi, 4 * np.pi, 50), [0.0, np.pi, 2 * np.pi])
        c, s = np.cos(betas / 2), np.sin(betas / 2)
        u = rotation_unitary(betas)
        assert u.dtype == np.float64
        # Exactly the half-angle cosines and sines, with no rounding of its own.
        assert np.array_equal(u, np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2))
        assert rotation_unitary(0.3).dtype == np.float64


class TestRotatePair:
    @staticmethod
    def complex_route(rho, beta):
        u = rotation_unitary(beta).astype(complex)
        u2 = kron(u, u)
        return u2 @ rho @ u2.conj().swapaxes(-2, -1)

    def test_a_real_stack_stays_real(self):
        rng = np.random.default_rng(25)
        rho, beta = rng.uniform(-1, 1, (40, 4, 4)), rng.uniform(0, 2 * np.pi, 40)
        turned = pauli._rotate_pair(rho, beta)
        assert turned.dtype == np.float64
        assert np.max(np.abs(turned - self.complex_route(rho, beta))) <= 1e-15

    def test_a_complex_stack_matches_the_complex_unitary_route(self):
        rng = np.random.default_rng(26)
        rho = rng.uniform(-1, 1, (40, 4, 4)) + 1j * rng.uniform(-1, 1, (40, 4, 4))
        beta = rng.uniform(0, 2 * np.pi, 40)
        turned = pauli._rotate_pair(rho, beta)
        assert turned.dtype == np.complex128
        assert np.max(np.abs(turned - self.complex_route(rho, beta))) <= 1e-15
        # The real and imaginary parts are turned apart, each as a real stack.
        assert np.array_equal(turned.real, pauli._rotate_pair(rho.real, beta))
        assert np.array_equal(turned.imag, pauli._rotate_pair(rho.imag, beta))
        for row, single, beta_k in zip(turned, rho, beta):
            assert np.array_equal(row, pauli._rotate_pair(single, beta_k))

    def test_a_non_contiguous_stack(self):
        rng = np.random.default_rng(27)
        rho = (rng.uniform(-1, 1, (4, 4, 6)) + 1j * rng.uniform(-1, 1, (4, 4, 6))).T  # (6, 4, 4), Fortran order
        assert np.array_equal(pauli._rotate_pair(rho, 0.7), pauli._rotate_pair(np.ascontiguousarray(rho), 0.7))


class TestRotateBloch:
    def test_half_turn(self):
        assert np.allclose(rotate_bloch([0, 0, 1], np.pi), [0, 0, -1], atol=1e-15)

    def test_three_quarter_turn(self):
        assert np.allclose(rotate_bloch([0, 0, 1], 3 * np.pi / 2), [-1, 0, 0], atol=1e-15)

    def test_axis_is_fixed(self):
        for beta in RNG.uniform(0, 2 * np.pi, 10):
            assert np.allclose(rotate_bloch([0, 1, 0], beta), [0, 1, 0], atol=1e-15)

    def test_rejects_a_vector_without_three_components(self):
        with pytest.raises(ValueError, match=r"expected a Bloch vector \(\.\.\., 3\), got shape \(2,\)"):
            rotate_bloch([1.0, 0.0], 0.3)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_component(self, bad):
        with pytest.raises(ValueError, match="Bloch vector components must be finite"):
            rotate_bloch([bad, 0.0, 0.0], 0.3)


class TestOneReadout:
    # Every Pauli coefficient is read through one read-out per basis: column j of the one-qubit
    # read-out reads sigma_j, column 4j + k of the two-qubit one sigma_j (x) sigma_k, (I, X, Y, Z).
    @pytest.mark.parametrize("basis, readout", [(pauli._ONE_QUBIT_BASIS, pauli._BLOCH_READOUT),
                                                (PAULI_BASIS, pauli._PAULI_READOUT)], ids=["one", "two"])
    def test_reads_the_trace_against_each_basis_operator(self, basis, readout):
        n = basis.shape[-1]
        rng = np.random.default_rng(n)
        ops = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))  # not Hermitian: every entry counts
        expected = np.trace(ops[:, None] @ basis.reshape(-1, n, n), axis1=-2, axis2=-1)
        assert readout.shape == (n * n, n * n)
        assert np.max(np.abs(ops.reshape(5, n * n) @ readout - expected)) <= 1e-14

    def test_basis_is_the_kronecker_products(self):
        single = np.concatenate([np.eye(2)[None], PAULI_STACK])
        assert np.array_equal(pauli._ONE_QUBIT_BASIS, single)
        for j in range(4):
            for k in range(4):
                assert np.array_equal(PAULI_BASIS[j, k], kron(single[j], single[k]))

    @pytest.mark.parametrize("basis, readin", [(pauli._ONE_QUBIT_BASIS, pauli._BLOCH_READIN),
                                               (PAULI_BASIS, pauli._PAULI_READIN)], ids=["one", "two"])
    def test_read_in_is_the_basis_scaled(self, basis, readin):
        # R^dagger / n, row c the operator P_c / n flattened: the read-out's convention, read back.
        n = basis.shape[-1]
        assert np.array_equal(readin, basis.reshape(n * n, n * n) / n)

    def test_read_in_inverts_the_read_out(self):
        rng = np.random.default_rng(29)
        coefficients = rng.uniform(-1, 1, (30, 4, 4))
        dec = pauli.PauliDecomposition(coefficients[:, 1:, 0], coefficients[:, 0, 1:], coefficients[:, 1:, 1:],
                                       coefficients[:, 0, 0])
        back = pauli_decompose(dec.reconstruct())
        for got, expected in ((back.unit, dec.unit), (back.a, dec.a), (back.b, dec.b), (back.t, dec.t)):
            assert np.max(np.abs(got - expected)) <= 1e-15
        vectors = rng.uniform(-0.5, 0.5, (30, 3))
        assert np.max(np.abs(density_to_bloch(bloch_to_density(vectors)) - vectors)) <= 1e-16

    def test_decomposition_matches_the_trace_of_each_product(self):
        rng = np.random.default_rng(24)
        rho = rng.uniform(-1, 1, (200, 4, 4)) + 1j * rng.uniform(-1, 1, (200, 4, 4))
        rho = (rho + rho.conj().swapaxes(-2, -1)) / 2
        dec = pauli_decompose(rho)
        traces = np.trace(rho[:, None, None] @ PAULI_BASIS, axis1=-2, axis2=-1).real
        for got, expected in ((dec.unit, traces[:, 0, 0]), (dec.a, traces[:, 1:, 0]), (dec.b, traces[:, 0, 1:]),
                              (dec.t, traces[:, 1:, 1:])):
            assert got.shape == expected.shape and np.max(np.abs(got - expected)) <= 1e-15
        # A unit-trace 2x2 block of each: rho's top-left block, its trace moved to 1 along I.
        block = rho[:, :2, :2] + (1 - np.trace(rho[:, :2, :2], axis1=-2, axis2=-1))[:, None, None] * np.eye(2) / 2
        expected = np.trace(block[:, None] @ PAULI_STACK, axis1=-2, axis2=-1).real
        assert np.max(np.abs(density_to_bloch(block) - expected)) <= 1e-15


class TestPauliDecompose:
    def test_maximally_mixed(self):
        dec = pauli_decompose(np.eye(4) / 4)
        assert np.allclose(dec.a, 0, atol=1e-15)
        assert np.allclose(dec.b, 0, atol=1e-15)
        assert np.allclose(dec.t, 0, atol=1e-15)

    def test_product_of_up_states(self):
        ket = np.zeros(4)
        ket[0] = 1
        dec = pauli_decompose(np.outer(ket, ket))
        assert np.allclose(dec.a, [0, 0, 1], atol=1e-15)
        assert np.allclose(dec.b, [0, 0, 1], atol=1e-15)
        assert np.allclose(dec.t, np.diag([0, 0, 1]), atol=1e-15)

    def test_bell_correlations(self):
        dec = pauli_decompose(np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()))
        assert np.allclose(dec.a, 0, atol=1e-15)
        assert np.allclose(dec.b, 0, atol=1e-15)
        assert np.allclose(dec.t, np.diag([1, -1, 1]), atol=1e-15)

    def test_roundtrip_on_random_hermitian(self):
        for _ in range(50):
            m = RNG.uniform(-1, 1, (4, 4)) + 1j * RNG.uniform(-1, 1, (4, 4))
            m = (m + m.conj().T) / 2
            assert np.max(np.abs(pauli_decompose(m).reconstruct() - m)) < 1e-12


def test_great_circle_parametrization():
    assert np.allclose(great_circle_bloch(0), [0, 0, 1], atol=1e-15)
    assert np.allclose(great_circle_bloch(np.pi / 2), [1, 0, 0], atol=1e-15)
    for theta in RNG.uniform(0, 2 * np.pi, 20):
        ket = great_circle_ket(theta)
        rho = np.outer(ket, ket.conj())
        assert np.allclose(density_to_bloch(rho), great_circle_bloch(theta), atol=1e-12)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_great_circle_ket_rejects_non_finite_angle(theta):
    with pytest.raises(ValueError, match=f"angle must be finite, got {theta}"):
        great_circle_ket(theta)


def test_conjugation_consistency():
    # U(beta) rho(m) U(beta)^dag carries the same Bloch action as the SO(3) rotation.
    for _ in range(200):
        m = RNG.uniform(-1, 1, 3)
        m *= RNG.uniform(0, 1) / np.linalg.norm(m)
        beta = RNG.uniform(0, 2 * np.pi)
        u = rotation_unitary(beta)
        conjugated = density_to_bloch(u @ bloch_to_density(m) @ u.conj().T)
        assert np.max(np.abs(conjugated - rotate_bloch(m, beta))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
def test_rotation_composition(beta1, beta2):
    product = rotation_unitary(beta1) @ rotation_unitary(beta2)
    total = rotation_unitary(beta1 + beta2)
    gap = min(np.max(np.abs(product - total)), np.max(np.abs(product + total)))
    assert gap < 1e-12
    m = np.array([0.3, -0.4, 0.5])
    two_step = rotate_bloch(rotate_bloch(m, beta1), beta2)
    assert np.max(np.abs(two_step - rotate_bloch(m, beta1 + beta2))) < 1e-12
