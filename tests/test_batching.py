"""Leading batch axes: every row of a batched call equals the scalar call on that row.

A stack with one bad row must raise the same ValueError as the scalar call on
that row, so batching never hides or rewords a rejection.
"""

import re

import numpy as np
import pytest

from circleclone.cloner import (
    clone,
    clone_report,
    coefficients,
    covariance_check_machine,
    isometry_check,
    isotropy_scan,
    partial_transpose_second,
    reduced_clones,
)
from circleclone.linalg import hermiticity_defect, hermitian_eigenvalues, kron
from circleclone.nosignalling import (
    UP,
    bound_rhs,
    build_joint_output,
    constrain_tensor,
    covariance_residual,
    eigenvalue_bracket,
    feasibility,
    free_parameters,
    machine_witness_tensor,
    no_signalling_residual,
    positivity_matrix_up,
    rotate_correlations,
)
from circleclone.pauli import (
    PauliDecomposition,
    bloch_to_density,
    density_to_bloch,
    great_circle_bloch,
    pauli_decompose,
    rotate_bloch,
    rotation_unitary,
)
from circleclone.verify import reference_partial_trace

RNG = np.random.default_rng(2026)
N = 7
TOL = 1e-14


def random_matrices(n, size):
    return RNG.uniform(-1, 1, (n, size, size)) + 1j * RNG.uniform(-1, 1, (n, size, size))


def random_hermitian(n, size):
    m = random_matrices(n, size)
    return (m + m.conj().swapaxes(-2, -1)) / 2


def random_density(n, size):
    m = random_matrices(n, size)
    rho = m @ m.conj().swapaxes(-2, -1)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def circle_etas(n):
    phi = RNG.uniform(0, np.pi / 2, n)
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def assert_rows_match(batched, scalar_rows):
    """Each row of ``batched`` is its scalar call bit for bit: the same shape, dtype and bytes."""
    batched = np.asarray(batched)
    assert batched.shape[0] == len(scalar_rows)
    for row, scalar in zip(batched, scalar_rows):
        scalar = np.asarray(scalar)
        assert row.shape == scalar.shape and row.dtype == scalar.dtype
        assert row.tobytes() == scalar.tobytes()


def assert_same_error(scalar_call, batched_call):
    with pytest.raises(ValueError) as scalar:
        scalar_call()
    with pytest.raises(ValueError) as batched:
        batched_call()
    assert str(batched.value) == str(scalar.value)


def with_bad_row(good, bad, row=3):
    """A copy of the stack ``good`` whose entry ``row`` is replaced by ``bad``."""
    stack = np.array(good, copy=True)
    stack[row] = bad
    return stack


class TestLinalg:
    def test_kron(self):
        a, b = random_matrices(N, 2), RNG.uniform(-1, 1, (N, 2, 3))
        batched = kron(a, b)
        assert batched.shape == (N, 4, 6)
        assert_rows_match(batched, [kron(x, y) for x, y in zip(a, b)])
        assert_rows_match(batched, [np.kron(x, y) for x, y in zip(a, b)])

    def test_kron_broadcasts_a_single_factor(self):
        a, b = random_matrices(N, 2), random_matrices(1, 2)[0]
        assert_rows_match(kron(a, b), [np.kron(x, b) for x in a])

    def test_hermiticity_defect(self):
        stack = random_matrices(N, 4)
        assert_rows_match(hermiticity_defect(stack), [hermiticity_defect(m) for m in stack])

    def test_hermitian_eigenvalues(self):
        stack = random_hermitian(N, 4)
        assert_rows_match(hermitian_eigenvalues(stack), [hermitian_eigenvalues(m) for m in stack])

    def test_non_hermitian_row(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        stack = with_bad_row(random_hermitian(N, 2), bad)
        assert_same_error(lambda: hermitian_eigenvalues(bad), lambda: hermitian_eigenvalues(stack))

    def test_non_hermitian_rows_name_the_first(self):
        # Defects 0, 1e-6 and 1e-3: the stack reports 1e-6, as the call on its first bad matrix does.
        stack = np.eye(2) + np.array([0.0, 1e-6, 1e-3])[:, None, None] * np.array([[0, 1], [0, 0]])
        assert_same_error(lambda: hermitian_eigenvalues(stack[1]), lambda: hermitian_eigenvalues(stack))


class TestPauli:
    def test_bloch_to_density(self):
        vectors = RNG.uniform(-1, 1, (N, 3)) / 2
        batched = bloch_to_density(vectors)
        assert batched.shape == (N, 2, 2)
        assert_rows_match(batched, [bloch_to_density(m) for m in vectors])

    def test_bloch_to_density_unphysical_row(self):
        bad = np.array([1.0, 0.0, 0.1])
        stack = with_bad_row(RNG.uniform(-1, 1, (N, 3)) / 2, bad)
        assert_same_error(lambda: bloch_to_density(bad), lambda: bloch_to_density(stack))

    def test_density_to_bloch(self):
        stack = random_density(N, 2)
        batched = density_to_bloch(stack)
        assert batched.shape == (N, 3)
        assert_rows_match(batched, [density_to_bloch(rho) for rho in stack])

    def test_density_to_bloch_two_batch_axes(self):
        stack = random_density(6, 2).reshape(2, 3, 2, 2)
        assert_rows_match(density_to_bloch(stack).reshape(6, 3),
                          [density_to_bloch(rho) for rho in stack.reshape(6, 2, 2)])

    def test_density_to_bloch_bad_trace_row(self):
        bad = np.eye(2, dtype=complex)
        stack = with_bad_row(random_density(N, 2), bad)
        assert_same_error(lambda: density_to_bloch(bad), lambda: density_to_bloch(stack))

    def test_density_to_bloch_non_hermitian_row(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        stack = with_bad_row(random_density(N, 2), bad)
        assert_same_error(lambda: density_to_bloch(bad), lambda: density_to_bloch(stack))

    def test_pauli_decompose(self):
        stack = random_hermitian(N, 4)
        batched = pauli_decompose(stack)
        rows = [pauli_decompose(m) for m in stack]
        assert_rows_match(batched.a, [row.a for row in rows])
        assert_rows_match(batched.b, [row.b for row in rows])
        assert_rows_match(batched.t, [row.t for row in rows])
        assert_rows_match(batched.unit, [row.unit for row in rows])
        assert_rows_match(batched.reconstruct(), [row.reconstruct() for row in rows])
        assert np.max(np.abs(batched.reconstruct() - stack)) <= 1e-12

    def test_pauli_decompose_non_hermitian_row(self):
        bad = np.triu(np.ones((4, 4), dtype=complex))
        stack = with_bad_row(random_hermitian(N, 4), bad)
        assert_same_error(lambda: pauli_decompose(bad), lambda: pauli_decompose(stack))

    def test_rotation_unitary(self):
        betas = RNG.uniform(0, 2 * np.pi, N)
        batched = rotation_unitary(betas)
        assert batched.shape == (N, 2, 2)
        assert_rows_match(batched, [rotation_unitary(beta) for beta in betas])

    def test_rotate_bloch(self):
        vectors, betas = RNG.uniform(-1, 1, (N, 3)), RNG.uniform(0, 2 * np.pi, N)
        assert_rows_match(rotate_bloch(vectors, betas),
                          [rotate_bloch(m, beta) for m, beta in zip(vectors, betas)])

    def test_rotate_bloch_one_vector_many_angles(self):
        m, betas = RNG.uniform(-1, 1, 3), RNG.uniform(0, 2 * np.pi, N)
        assert_rows_match(rotate_bloch(m, betas), [rotate_bloch(m, beta) for beta in betas])

    def test_great_circle_bloch(self):
        thetas = RNG.uniform(0, 2 * np.pi, N)
        assert_rows_match(great_circle_bloch(thetas), [great_circle_bloch(t) for t in thetas])


# The cardinal angles, where the requested input is itself a probe, plus generic ones.
CARDINAL_AND_GENERIC = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 0.05, 0.9, 2.1, 4.0])
# On and off the circle eta1^2 + eta2^2 = 1, endpoints included.
ETAS = np.array([(0.6, 0.8), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.7, 0.7), (0.2, 0.9), (1.0, 1.0), (0.0, 0.0)])

REPORT_FIELDS = ("theta", "eta1", "eta2", "on_circle", "shrink_o_z", "shrink_o_x", "shrink_b_z", "shrink_b_x",
                 "fidelity_o", "fidelity_b", "isotropy_residual_o", "isotropy_residual_b",
                 "correlation", "ppt_min_eigenvalue")


def report_gaps(batched, index, scalar):
    """Largest gap, field by field, between entry ``index`` of a batched report and a scalar report."""
    return {field: np.max(np.abs(np.asarray(getattr(batched, field)[index], dtype=float)
                                 - np.asarray(getattr(scalar, field), dtype=float)))
            for field in REPORT_FIELDS}


class TestCloner:
    def test_coefficients(self):
        etas = RNG.uniform(0, 1, (N, 2))
        batched = coefficients(etas)
        for field in ("a", "b", "c", "d", "eta1", "eta2"):
            assert_rows_match(getattr(batched, field), [getattr(coefficients(e), field) for e in etas])

    @pytest.mark.parametrize("bad", [(1.2, 0.5), (0.5, -0.1), (np.nan, 0.5)])
    def test_coefficients_bad_row(self, bad):
        stack = with_bad_row(RNG.uniform(0, 1, (N, 2)), bad)
        assert_same_error(lambda: coefficients(bad), lambda: coefficients(stack))

    def test_clone_with_batched_coefficients(self):
        etas, thetas = RNG.uniform(0, 1, (N, 2)), RNG.uniform(0, 2 * np.pi, N)
        batched = clone(thetas, coefficients(etas))
        assert batched.shape == (N, 8)
        assert_rows_match(batched, [clone(t, coefficients(e)) for t, e in zip(thetas, etas)])

    def test_isometry_check(self):
        etas = RNG.uniform(0, 1, (N, 2))
        assert_rows_match(isometry_check(coefficients(etas)), [isometry_check(coefficients(e)) for e in etas])

    def test_partial_transpose_second(self):
        stack = random_matrices(N, 4)
        assert_rows_match(partial_transpose_second(stack), [partial_transpose_second(m) for m in stack])

    def test_clone_report_grid(self):
        thetas, etas = np.meshgrid(CARDINAL_AND_GENERIC, np.arange(len(ETAS)), indexing="ij")
        batched = clone_report(thetas, coefficients(ETAS[etas]))
        assert batched.fidelity_o.shape == thetas.shape
        assert batched.correlation.shape == thetas.shape + (3, 3)
        for index in np.ndindex(thetas.shape):
            gaps = report_gaps(batched, index, clone_report(thetas[index], coefficients(ETAS[etas[index]])))
            assert max(gaps.values()) == 0.0, (index, gaps)

    def test_clone_report_broadcasts_one_angle_over_many_etas(self):
        batched = clone_report(0.9, coefficients(ETAS))
        assert batched.theta.shape == (len(ETAS),)
        for k, etas in enumerate(ETAS):
            gaps = report_gaps(batched, k, clone_report(0.9, coefficients(etas)))
            assert max(gaps.values()) == 0.0, (k, gaps)

    def test_clone_report_scalar_fields(self):
        report = clone_report(0.9, coefficients((0.6, 0.8)))
        for field in REPORT_FIELDS:
            value = getattr(report, field)
            if field == "correlation":
                assert value.shape == (3, 3)
            elif field == "on_circle":
                assert value and isinstance(value, (bool, np.bool_))
            else:
                assert isinstance(value, float) and np.ndim(value) == 0, field

    def test_clone_report_bad_row(self):
        # The machine takes valid amplitudes; the angle is clone_report's own input to reject.
        etas = circle_etas(N)
        thetas = with_bad_row(RNG.uniform(0, 2 * np.pi, N), np.nan)
        assert_same_error(lambda: clone_report(np.nan, coefficients(etas[3])),
                          lambda: clone_report(thetas, coefficients(etas)))

    def test_covariance_check_machine(self):
        etas, thetas, betas = circle_etas(N), RNG.uniform(0, 2 * np.pi, N), RNG.uniform(0, 2 * np.pi, N)
        assert_rows_match(covariance_check_machine(coefficients(etas), thetas, betas),
                          [covariance_check_machine(coefficients(e), t, b) for e, t, b in zip(etas, thetas, betas)])

    def test_covariance_check_machine_off_circle_row(self):
        stack = with_bad_row(circle_etas(N), (0.5, 0.5))
        assert_same_error(lambda: covariance_check_machine(coefficients((0.5, 0.5)), 0.1, 0.2),
                          lambda: covariance_check_machine(coefficients(stack), 0.1, 0.2))


def random_constrained(n):
    return constrain_tensor(RNG.uniform(-1, 1, (n, 7)))


class TestNoSignalling:
    def test_constrain_tensor(self):
        free = RNG.uniform(-1, 1, (N, 7))
        batched = constrain_tensor(free)
        assert batched.shape == (N, 3, 3)
        assert_rows_match(batched, [constrain_tensor(f) for f in free])
        assert_rows_match(free_parameters(batched), [free_parameters(t) for t in batched])

    def test_constrain_tensor_out_of_range_row(self):
        bad = [1.5, 0, 0, 0, 0, 0, 0]
        stack = with_bad_row(RNG.uniform(-1, 1, (N, 7)), bad)
        assert_same_error(lambda: constrain_tensor(bad), lambda: constrain_tensor(stack))

    def test_build_joint_output(self):
        m = great_circle_bloch(RNG.uniform(0, 2 * np.pi, N))
        etas, t = RNG.uniform(0, 1, (N, 2)), random_constrained(N)
        batched = build_joint_output(m, etas, t)
        assert batched.shape == (N, 4, 4)
        assert_rows_match(batched, [build_joint_output(*args) for args in zip(m, etas, t)])

    @pytest.mark.parametrize("argument, bad", [
        ("m", [0.0, 1.0, 0.0]),       # off the great circle
        ("m", [0.6, 0.0, 0.6]),       # not a unit vector
        ("etas", [0.5, 1.5]),         # reduction factor outside [0, 1]
    ])
    def test_build_joint_output_bad_row(self, argument, bad):
        args = {"m": great_circle_bloch(RNG.uniform(0, 2 * np.pi, N)), "etas": RNG.uniform(0, 1, (N, 2)),
                "t": random_constrained(N)}
        scalar = {name: value[3] for name, value in args.items()}
        scalar[argument] = np.array(bad)
        args[argument] = with_bad_row(args[argument], bad)
        assert_same_error(lambda: build_joint_output(**scalar), lambda: build_joint_output(**args))

    def test_rotate_correlations(self):
        t, betas = RNG.uniform(-1, 1, (N, 3, 3)), RNG.uniform(0, 2 * np.pi, N)
        assert_rows_match(rotate_correlations(t, betas),
                          [rotate_correlations(x, beta) for x, beta in zip(t, betas)])

    def test_rotate_correlations_one_tensor_many_angles(self):
        t, betas = RNG.uniform(-1, 1, (3, 3)), RNG.uniform(0, 2 * np.pi, N)
        assert_rows_match(rotate_correlations(t, betas), [rotate_correlations(t, beta) for beta in betas])

    def test_covariance_residual(self):
        m = great_circle_bloch(RNG.uniform(0, 2 * np.pi, N))
        etas, t, betas = RNG.uniform(0, 1, (N, 2)), RNG.uniform(-1, 1, (N, 3, 3)), RNG.uniform(0, 2 * np.pi, N)
        assert_rows_match(covariance_residual(m, etas, t, betas),
                          [covariance_residual(*args) for args in zip(m, etas, t, betas)])

    def test_no_signalling_residual(self):
        etas, t = RNG.uniform(0, 1, (N, 2)), RNG.uniform(-1, 1, (N, 3, 3))
        assert_rows_match(no_signalling_residual(etas, t),
                          [no_signalling_residual(e, x) for e, x in zip(etas, t)])

    # Reduction factors and tensors of different batch shapes, broadcast against each other.
    @pytest.mark.parametrize("etas_shape, t_shape", [((2,), (5, 3, 3)), ((5, 2), (3, 3)), ((4, 1, 2), (3, 3, 3))])
    def test_no_signalling_residual_broadcasts(self, etas_shape, t_shape):
        etas, t = RNG.uniform(0, 1, etas_shape), RNG.uniform(-1, 1, t_shape)
        batched = no_signalling_residual(etas, t)
        shape = np.broadcast_shapes(etas_shape[:-1], t_shape[:-2])
        assert batched.shape == shape
        etas, t = np.broadcast_to(etas, shape + (2,)), np.broadcast_to(t, shape + (3, 3))
        for index in np.ndindex(shape):
            assert batched[index] == no_signalling_residual(etas[index], t[index])

    def test_positivity_matrix_up(self):
        etas, t = RNG.uniform(0, 1, (N, 2)), random_constrained(N)
        batched = positivity_matrix_up(etas, t)
        assert_rows_match(batched, [positivity_matrix_up(e, x) for e, x in zip(etas, t)])
        assert np.max(np.abs(batched - build_joint_output(UP, etas, t))) <= TOL

    def test_positivity_matrix_up_broadcasts_one_tensor(self):
        etas, t = RNG.uniform(0, 1, (N, 2)), random_constrained(1)[0]
        assert_rows_match(positivity_matrix_up(etas, t), [positivity_matrix_up(e, t) for e in etas])

    def test_bound_rhs(self):
        t = RNG.uniform(-1, 1, (N, 3, 3))
        batched = bound_rhs(t)
        assert batched.shape == (N,)
        assert_rows_match(batched, [bound_rhs(x) for x in t])

    def test_machine_witness_tensor(self):
        etas = with_bad_row(RNG.uniform(0, 0.7, (N, 2)), (0.0, 0.0))  # the centre takes the c = 0 branch
        batched = machine_witness_tensor(etas)
        assert batched.shape == (N, 3, 3)
        assert_rows_match(batched, [machine_witness_tensor(e) for e in etas])

    def test_machine_witness_tensor_outside_row(self):
        bad = np.array([0.9, 0.9])
        stack = with_bad_row(RNG.uniform(0, 0.7, (N, 2)), bad)
        assert_same_error(lambda: machine_witness_tensor(bad), lambda: machine_witness_tensor(stack))

    def test_positivity_matrix_up_unconstrained_row(self):
        bad = np.zeros((3, 3))
        bad[0, 0] = 0.5  # t_zz left at 0
        etas, t = RNG.uniform(0, 1, (N, 2)), with_bad_row(random_constrained(N), bad)
        assert_same_error(lambda: positivity_matrix_up(etas[3], bad), lambda: positivity_matrix_up(etas, t))


class TestVerify:
    @pytest.mark.parametrize("keep", [0, 1, 2, (0, 1), (0, 2), (1, 2), (0, 1, 2)], ids=str)
    def test_reference_partial_trace(self, keep):
        stack = random_matrices(5, 8)
        batched = reference_partial_trace(stack, keep, [2, 2, 2])
        assert batched.shape[0] == 5
        assert_rows_match(batched, [reference_partial_trace(rho, keep, [2, 2, 2]) for rho in stack])


# Each range check states what must hold, so a NaN entry fails it: (call, a good entry, a NaN entry, message).
NAN_ENTRIES = {
    "constrain_tensor": (constrain_tensor, np.zeros(7), np.full(7, np.nan), "free correlation entries"),
    "positivity_matrix_up": (lambda t: positivity_matrix_up((0.5, 0.5), t), np.zeros((3, 3)),
                             np.full((3, 3), np.nan), "no-signalling constraints"),
    "build_joint_output": (lambda m: build_joint_output(m, (0.5, 0.5), np.zeros((3, 3))), UP,
                           [np.nan, 0.0, np.nan], "must be a unit vector"),
    "bloch_to_density": (bloch_to_density, np.zeros(3), [np.nan, 0.0, 0.0], "unphysical Bloch vector"),
    "hermitian_eigenvalues": (hermitian_eigenvalues, np.eye(2), np.full((2, 2), np.nan), "not Hermitian"),
    "density_to_bloch": (density_to_bloch, np.eye(2) / 2, np.full((2, 2), np.nan), "not Hermitian"),
    "pauli_decompose": (pauli_decompose, np.eye(4) / 4, np.full((4, 4), np.nan), "not Hermitian"),
    "clone": (lambda theta: clone(theta, coefficients((0.6, 0.8))), 0.3, np.nan, "angle must be finite"),
    "clone_report": (lambda theta: clone_report(theta, coefficients((0.6, 0.8))), 0.3, np.nan,
                     "angle must be finite"),
    "great_circle_bloch": (great_circle_bloch, 0.3, np.nan, "angle must be finite"),
    "rotation_unitary": (rotation_unitary, 0.3, np.nan, "angle must be finite"),
    "rotate_bloch": (lambda beta: rotate_bloch(UP, beta), 0.3, np.nan, "angle must be finite"),
    "rotate_bloch_vector": (lambda m: rotate_bloch(m, 0.3), UP, [0.0, np.nan, 0.0],
                            "Bloch vector components must be finite"),
    "rotate_correlations": (lambda beta: rotate_correlations(np.eye(3), beta), 0.3, np.nan, "angle must be finite"),
    "rotate_correlations_tensor": (lambda t: rotate_correlations(t, 0.3), np.zeros((3, 3)), np.full((3, 3), np.nan),
                                   "correlation tensor entries must be finite"),
    "free_parameters": (free_parameters, np.zeros((3, 3)), np.full((3, 3), np.nan),
                        "correlation tensor entries must be finite"),
    "covariance_residual": (lambda beta: covariance_residual(UP, (0.5, 0.5), np.zeros((3, 3)), beta), 0.3, np.nan,
                            "angle must be finite"),
    "build_joint_output_tensor": (lambda t: build_joint_output(UP, (0.5, 0.5), t), np.zeros((3, 3)),
                                  np.full((3, 3), np.nan), "correlation tensor entries must be finite"),
    "bound_rhs": (bound_rhs, np.zeros((3, 3)), np.full((3, 3), np.nan), "correlation tensor entries must be finite"),
    "no_signalling_residual": (lambda t: no_signalling_residual((0.5, 0.5), t), np.zeros((3, 3)),
                               np.full((3, 3), np.nan), "correlation tensor entries must be finite"),
}


@pytest.mark.parametrize("name", NAN_ENTRIES)
def test_nan_entry_is_rejected(name):
    call, good, bad, message = NAN_ENTRIES[name]
    with pytest.raises(ValueError, match=message):
        call(np.array(bad))
    stack = with_bad_row(np.broadcast_to(good, (N,) + np.shape(good)), bad)
    assert_same_error(lambda: call(np.array(bad)), lambda: call(stack))


ZERO_TENSOR = np.zeros((3, 3))
# Every public argument with a fixed trailing shape: the call, that shape, and a value whose last axes differ.
SHAPED_ARGUMENTS = {
    "bloch_to_density": (bloch_to_density, (3,), [0.0, 0.0, 1.0, 0.0]),
    "rotate_bloch": (lambda m: rotate_bloch(m, 0.3), (3,), [1.0, 0.0]),
    "density_to_bloch": (density_to_bloch, (2, 2), np.eye(4) / 4),
    "pauli_decompose": (pauli_decompose, (4, 4), np.eye(2) / 2),
    "reconstruct_a": (lambda a: PauliDecomposition(a, np.zeros(3), ZERO_TENSOR).reconstruct(), (3,), [1.0, 0.0]),
    "reconstruct_b": (lambda b: PauliDecomposition(np.zeros(3), b, ZERO_TENSOR).reconstruct(), (3,), [1.0, 0.0]),
    "reconstruct_t": (lambda t: PauliDecomposition(np.zeros(3), np.zeros(3), t).reconstruct(), (3, 3), np.zeros(3)),
    "constrain_tensor": (constrain_tensor, (7,), np.zeros(6)),
    "free_parameters": (free_parameters, (3, 3), np.zeros(5)),
    "rotate_correlations": (lambda t: rotate_correlations(t, 0.3), (3, 3), np.zeros((2, 3))),
    "bound_rhs": (bound_rhs, (3, 3), np.zeros((4, 4))),
    "build_joint_output": (lambda m: build_joint_output(m, (0.5, 0.5), ZERO_TENSOR), (3,), [0.0, 0.0, 1.0, 0.0]),
    "build_joint_output_xy": (lambda m: build_joint_output(m, (0.5, 0.5), ZERO_TENSOR), (3,), [0.0, 1.0]),
    "build_joint_output_etas": (lambda etas: build_joint_output(UP, etas, ZERO_TENSOR), (2,), [0.6, 0.8, 0.0]),
    "build_joint_output_tensor": (lambda t: build_joint_output(UP, (0.5, 0.5), t), (3, 3), np.zeros(9)),
    "covariance_residual": (lambda m: covariance_residual(m, (0.5, 0.5), ZERO_TENSOR, 0.3), (3,), [0.0, 0.0, 1.0, 0.0]),
    "no_signalling_residual": (lambda etas: no_signalling_residual(etas, ZERO_TENSOR), (2,), [0.5]),
    "positivity_matrix_up_etas": (lambda etas: positivity_matrix_up(etas, ZERO_TENSOR), (2,), [0.5, 0.5, 0.5]),
    # A NaN entry does not hide the shape: the shape is checked before the constraints.
    "positivity_matrix_up": (lambda t: positivity_matrix_up((0.5, 0.5), t), (3, 3), np.full(3, np.nan)),
    "machine_witness_tensor": (machine_witness_tensor, (2,), [0.6, 0.8, 0.0]),
    "eigenvalue_bracket": (eigenvalue_bracket, (2,), [0.5]),
    "feasibility": (feasibility, (2,), [0.5, 0.5, 0.5]),
    "coefficients": (coefficients, (2,), [0.6]),
    # The machine functions take amplitudes; their rows are the call path from reduction factors to each one.
    "clone_report": (lambda etas: clone_report(0.3, coefficients(etas)), (2,), [0.6, 0.8, 0.0]),
    "isotropy_scan": (lambda etas: isotropy_scan(coefficients(etas)), (2,), np.full((2, 3), 0.5)),
    "reduced_clones": (reduced_clones, (8,), np.ones(16) / 4),
    "partial_transpose_second": (partial_transpose_second, (4, 4), np.eye(2) / 2),
    "covariance_check_machine": (lambda etas: covariance_check_machine(coefficients(etas), 0.1, 0.2), (2,),
                                 [0.6, 0.8, 0.0]),
}


@pytest.mark.parametrize("value", ["wrong_trailing_shape", "zero_d"])
@pytest.mark.parametrize("name", SHAPED_ARGUMENTS)
def test_a_badly_shaped_argument_gets_one_line_naming_its_shape(name, value):
    call, trailing, wrong = SHAPED_ARGUMENTS[name]
    bad = np.asarray(wrong) if value == "wrong_trailing_shape" else np.float64(0.5)
    with pytest.raises(ValueError) as error:
        call(bad)
    expected = rf"expected [^\n]+ \(\.\.\., {', '.join(map(str, trailing))}\), got shape {re.escape(str(bad.shape))}"
    assert re.fullmatch(expected, str(error.value)), str(error.value)
