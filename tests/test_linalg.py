import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from circleclone.linalg import hermitian_eigenvalues, is_psd, kron, partial_trace
from circleclone.pauli import IDENTITY_2, SIGMA_X, SIGMA_Z, density_to_bloch, pauli_decompose, rotation_unitary
from circleclone.verify import reference_partial_trace

RNG = np.random.default_rng(20240811)

BELL_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def random_hermitian(rng, n):
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return (m + m.conj().T) / 2


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sigma_z_with_identity(self):
        assert np.array_equal(kron(SIGMA_Z, IDENTITY_2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_sigma_x_pair_corner(self):
        assert kron(SIGMA_X, SIGMA_X)[0][3] == 1

    def test_left_factor_most_significant(self):
        a = np.diag([1, 2])
        b = np.diag([3, 4])
        assert np.array_equal(np.diag(kron(a, b)), [3, 4, 6, 8])

    @pytest.mark.parametrize("a, b", [(np.ones(2), np.eye(2)), (np.eye(2), np.ones(2)), (1.0, np.eye(2))])
    def test_rejects_a_factor_that_is_not_a_matrix(self, a, b):
        with pytest.raises(ValueError, match=r"kron takes matrices \(\.\.\., p, q\)"):
            kron(a, b)


class TestPartialTrace:
    def test_product_state(self):
        ket = np.zeros(4)
        ket[0] = 1  # |00>
        rho = np.outer(ket, ket)
        reduced = partial_trace(rho, 0, [2, 2])
        assert np.allclose(reduced, [[1, 0], [0, 0]], atol=1e-15)

    def test_maximally_entangled(self):
        rho = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
        assert np.allclose(partial_trace(rho, 0, [2, 2]), np.eye(2) / 2, atol=1e-15)

    def test_factorization_law(self):
        rho = random_hermitian(RNG, 2)
        sigma = random_hermitian(RNG, 2)
        reduced = partial_trace(kron(rho, sigma), 0, [2, 2])
        assert np.allclose(reduced, rho * np.trace(sigma), atol=1e-13)

    def test_trace_preserved(self):
        m = random_hermitian(RNG, 8)
        for keep in (0, 1, 2, (0, 2)):
            reduced = partial_trace(m, keep, [2, 2, 2])
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-12

    def test_bad_factorization(self):
        with pytest.raises(ValueError, match="bad factorization"):
            partial_trace(np.eye(4), 0, [2, 3])
        with pytest.raises(ValueError, match="bad factorization"):
            partial_trace(np.stack([np.eye(4)] * 5), 0, [2, 3])
        # Dimensions below 1 can still multiply to the matrix's size: only their sign rejects them.
        for rho, dims in [(np.eye(4) / 4, [-2, -2]), (np.eye(1), [-1, -1]), (np.zeros((0, 0)), [0, 2])]:
            with pytest.raises(ValueError, match=r"^bad factorization: dims \[[-0-9, ]+\] must all be positive$"):
                partial_trace(rho, 0, dims)

    @pytest.mark.parametrize("keep, dims, named", [(0, [2.5, 2], r"dims=\[2\.5, 2\]"), (0.5, [2, 2], "keep=0.5"),
                                                   ([0, 1.0], [2, 2], r"keep=\[0, 1\.0\]"),
                                                   ([[0]], [2, 2], r"keep=\[\[0\]\]"),
                                                   # a bool is no subsystem, even where numpy would read it as 1
                                                   (0, [True, 4], r"dims=\[True, 4\]"),
                                                   ([0, True], [2, 2], r"keep=\[0, True\]")])
    def test_rejects_a_subsystem_that_is_not_an_integer(self, keep, dims, named):
        with pytest.raises(ValueError, match=f"bad factorization: {named} must be an integer"):
            partial_trace(np.eye(4), keep, dims)

    def test_stack_matches_each_matrix(self):
        stack = np.stack([random_hermitian(RNG, 8) for _ in range(6)])
        for keep in (0, 1, 2, (0, 1), (1, 2), (0, 2), (0, 1, 2)):
            batched = partial_trace(stack, keep, [2, 2, 2])
            for m, reduced in zip(stack, batched):
                assert np.max(np.abs(reduced - partial_trace(m, keep, [2, 2, 2]))) <= 1e-14

    def test_matches_brute_force_sum(self):
        m = random_hermitian(RNG, 8)
        for keep in (0, 1, 2, (0, 1), (1, 2), (0, 2)):
            fast = partial_trace(m, keep, [2, 2, 2])
            slow = reference_partial_trace(m, keep, [2, 2, 2])
            assert np.max(np.abs(fast - slow)) < 1e-12


class TestDtypeFollowsTheInput:
    def test_real_input_stays_real_and_matches_the_complex_route(self):
        m = np.random.default_rng(7).uniform(-1, 1, (5, 8, 8))
        m = m + m.swapaxes(-2, -1)
        for keep in (0, 1, 2, (0, 1), (1, 2)):
            reduced = partial_trace(m, keep, [2, 2, 2])
            assert reduced.dtype == np.float64
            assert np.array_equal(reduced, partial_trace(m.astype(complex), keep, [2, 2, 2]))
            assert np.max(np.abs(reduced - reference_partial_trace(m, keep, [2, 2, 2]))) <= 1e-15
        values = hermitian_eigenvalues(m)
        assert values.dtype == np.float64
        assert np.max(np.abs(values - hermitian_eigenvalues(m.astype(complex)))) <= 1e-14

    def test_complex_input_stays_complex(self):
        rng = np.random.default_rng(8)
        m = np.stack([random_hermitian(rng, 8) for _ in range(4)])
        for keep in (0, (0, 2)):
            reduced = partial_trace(m, keep, [2, 2, 2])
            assert reduced.dtype == np.complex128
            assert np.max(np.abs(reduced - reference_partial_trace(m, keep, [2, 2, 2]))) <= 1e-15
        assert np.max(np.abs(reduced.imag)) > 0.1

    def test_kron_of_real_factors_is_real(self):
        rng = np.random.default_rng(9)
        a, b = rng.uniform(-1, 1, (6, 2, 3)), rng.uniform(-1, 1, (6, 2, 2))
        product = kron(a, b)
        assert product.dtype == np.float64
        assert np.array_equal(product, np.stack([np.kron(x, y) for x, y in zip(a, b)]))
        assert kron([[1, 2], [3, 4]], np.eye(2, dtype=int)).dtype == np.float64
        for complex_factors in ((a + 0j, b), (a, 1j * b), (a + 0j, b + 0j)):
            product = kron(*complex_factors)
            assert product.dtype == np.complex128
            assert np.array_equal(product, np.stack([np.kron(x, y) for x, y in zip(*complex_factors)]))

    def test_a_real_matrix_off_symmetry_is_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianEigenvalues:
    def test_pauli_spectrum(self):
        assert np.allclose(hermitian_eigenvalues(SIGMA_Z), [-1, 1], atol=1e-14)

    def test_scalar_matrix(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4, atol=1e-14)

    def test_product_spectrum(self):
        assert np.allclose(hermitian_eigenvalues(kron(SIGMA_X, SIGMA_X)), [-1, -1, 1, 1], atol=1e-14)

    def test_ascending_and_trace(self):
        m = random_hermitian(RNG, 8)
        evals = hermitian_eigenvalues(m)
        assert np.all(np.diff(evals) >= 0)
        assert abs(np.sum(evals) - np.trace(m).real) < 1e-9

    def test_eigenpair_residual(self):
        m = random_hermitian(RNG, 4)
        evals = hermitian_eigenvalues(m)
        _, vectors = np.linalg.eigh(m)
        for lam, vec in zip(evals, vectors.T):
            assert np.linalg.norm(m @ vec - lam * vec) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    # The suite turns RuntimeWarning into an error, so an inf - inf in the defect would fail here first.
    @pytest.mark.parametrize("call, size", [(hermitian_eigenvalues, 2), (is_psd, 2), (density_to_bloch, 2),
                                            (pauli_decompose, 4)],
                             ids=["hermitian_eigenvalues", "is_psd", "density_to_bloch", "pauli_decompose"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])  # NaN: test_batching's NAN_ENTRIES
    def test_rejects_an_infinite_entry_without_a_warning(self, call, size, bad):
        m = np.eye(size) / size
        m[0, 0] = bad
        with pytest.raises(ValueError, match="^not Hermitian: an entry is not finite$"):
            call(m)


class TestIsPsd:
    def test_takes_one_matrix(self):
        with pytest.raises(ValueError, match=r"one matrix, got shape \(3, 2, 2\); hermitian_eigenvalues takes a stack"):
            is_psd(np.stack([np.eye(2)] * 3))

    def test_mixed_state(self):
        assert is_psd(np.eye(2) / 2) == (True, 0.5)

    def test_sigma_z(self):
        psd, lam = is_psd(SIGMA_Z)
        assert not psd
        assert lam == pytest.approx(-1.0, abs=1e-14)

    def test_rank_one_projector(self):
        psd, lam = is_psd(np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()))
        assert psd
        assert abs(lam) < 1e-14


def test_eigenvalues_invariant_under_rotation_unitaries():
    for _ in range(50):
        m = random_hermitian(RNG, 4)
        u = kron(rotation_unitary(RNG.uniform(0, 2 * np.pi)),
                 rotation_unitary(RNG.uniform(0, 2 * np.pi)))
        assert np.max(np.abs(hermitian_eigenvalues(m) - hermitian_eigenvalues(u @ m @ u.conj().T))) < 1e-9


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (4, 4), elements=st.floats(-1, 1)),
       arrays(np.float64, (4, 4), elements=st.floats(-1, 1)))
def test_partial_trace_state_contract(real, imag):
    m = real + 1j * imag
    rho = m @ m.conj().T + 1e-6 * np.eye(4)
    rho /= np.trace(rho).real
    for keep in (0, 1):
        reduced = partial_trace(rho, keep, [2, 2])
        assert np.max(np.abs(reduced - reduced.conj().T)) < 1e-12
        assert abs(np.trace(reduced).real - 1) < 1e-12
        assert is_psd(reduced, tol=1e-12)[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kron_associative_up_to_float_reassociation(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)) for _ in range(3))
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-14
