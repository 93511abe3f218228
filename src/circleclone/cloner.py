"""The asymmetric 1-to-2 cloning transformation for x-z great-circle qubits.

The transformation is a 2 -> 8 isometry on (original, blank, machine) with the
basis convention index = 4*o + 2*b + 1*M (original most significant).  On the
curve eta1^2 + eta2^2 = 1 both reduced clones are isotropic shrunk copies of
the input with reduction factors eta1 and eta2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _first_where, hermitian_eigenvalues, kron, partial_trace
from .nosignalling import _validate_etas
from .pauli import (
    density_to_bloch,
    great_circle_bloch,
    great_circle_ket,
    pauli_decompose,
    rotation_unitary,
)

ON_CIRCLE_ATOL = 1e-8

# Bloch component below which a per-axis shrink ratio is read off a cardinal
# input (theta = 0 for z, theta = pi/2 for x) instead of the requested theta.
_AXIS_COMPONENT_FLOOR = 0.1


@dataclass(frozen=True)
class CloneCoefficients:
    """Amplitudes (a, b, c, d) of the cloning isometry for reduction factors (eta1, eta2).

    Each field has the batch shape of the reduction factors it was built from.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    d: float | np.ndarray
    eta1: float | np.ndarray
    eta2: float | np.ndarray


def coefficients(etas) -> CloneCoefficients:
    """Closed-form isometry amplitudes for reduction factors ``etas = (eta1, eta2)``.

    They satisfy a^2 + b^2 + c^2 + d^2 = 1, a*d = b*c and a >= b, c >= d >= 0.
    Leading axes of ``etas`` (..., 2) are batch axes; every field then has shape (...).
    """
    eta1, eta2 = _validate_etas(etas)
    a = 0.5 * np.sqrt((1 + eta1) * (1 + eta2))
    b = 0.5 * np.sqrt((1 + eta1) * (1 - eta2))
    c = 0.5 * np.sqrt((1 - eta1) * (1 + eta2))
    d = 0.5 * np.sqrt((1 - eta1) * (1 - eta2))
    return CloneCoefficients(a=a, b=b, c=c, d=d, eta1=eta1, eta2=eta2)


def _basis_images(coeffs: CloneCoefficients) -> np.ndarray:
    """The 8x2 isometry matrix: columns are the images of |0> and |1>; batched coefficients give (..., 8, 2)."""
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    v = np.zeros(np.shape(a) + (8, 2), dtype=complex)
    # |0>_o -> (a|00> + d|11>)|0>_M + (b|01> + c|10>)|1>_M
    v[..., 0b000, 0] = a
    v[..., 0b110, 0] = d
    v[..., 0b011, 0] = b
    v[..., 0b101, 0] = c
    # |1>_o -> (a|11> + d|00>)|1>_M + (b|10> + c|01>)|0>_M
    v[..., 0b111, 1] = a
    v[..., 0b001, 1] = d
    v[..., 0b100, 1] = b
    v[..., 0b010, 1] = c
    return v


def clone(theta: float | np.ndarray, coeffs: CloneCoefficients) -> np.ndarray:
    """Normalized 8-component output state for the circle input at angle ``theta``.

    Angles (...) and batched coefficients broadcast to one output state per
    entry: shape (..., 8).
    """
    return (_basis_images(coeffs) @ great_circle_ket(theta)[..., None])[..., 0]


def isometry_check(coeffs: CloneCoefficients):
    """Max deviation of the Gram matrix of the two basis images from the 2x2 identity, per batch entry."""
    v = _basis_images(coeffs)
    gram = v.conj().swapaxes(-2, -1) @ v
    return np.max(np.abs(gram - np.eye(2)), axis=(-2, -1))


def reduced_clones(state: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho_o, rho_b, rho_ob) reduced from the rank-1 projector of an 8-dim output state.

    Leading axes are batch axes: states of shape (..., 8) give clones of shape
    (..., 2, 2), (..., 2, 2) and (..., 4, 4).
    """
    state = np.asarray(state, dtype=complex)
    rho = state[..., :, None] * state[..., None, :].conj()
    dims = [2, 2, 2]
    return (
        partial_trace(rho, 0, dims),
        partial_trace(rho, 1, dims),
        partial_trace(rho, (0, 1), dims),
    )


def partial_transpose_second(rho: np.ndarray) -> np.ndarray:
    """Partial transpose of a two-qubit matrix on its second subsystem; a (..., 4, 4) stack transposes per entry."""
    rho = np.asarray(rho, dtype=complex)
    batch = rho.shape[:-2]
    return rho.reshape(batch + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(batch + (4, 4))


def _shrink(rho: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Best-fit shrink s = 2<psi|rho|psi> - 1 of each clone (..., 2, 2) toward its input ket (..., 2)."""
    return 2 * np.einsum("...i,...ij,...j->...", ket.conj(), rho, ket).real - 1


def _isotropy_residual(rho: np.ndarray, ket: np.ndarray, s) -> np.ndarray:
    """Max-norm residual of each clone from the isotropic form s|psi><psi| + (1 - s) I / 2."""
    s = np.asarray(s)[..., None, None]
    projector = ket[..., :, None] * ket[..., None, :].conj()
    return np.max(np.abs(rho - s * projector - (1 - s) * np.eye(2) / 2), axis=(-2, -1))


def _axis_shrink(axis: int, bloch: np.ndarray, m: np.ndarray, probe_bloch: np.ndarray) -> np.ndarray:
    """Per-axis Bloch shrink ratio, read off a cardinal probe where |m_axis| is small."""
    component = m[..., axis]
    large = np.abs(component) > _AXIS_COMPONENT_FLOOR
    return np.where(large, bloch[..., axis] / np.where(large, component, 1.0), probe_bloch[..., axis])


@dataclass(frozen=True)
class CloneReport:
    """Diagnostics of one cloning run: shrinks, fidelities, correlations and separability.

    From a batched call every field is an array with the batch shape (see clone_report).
    """

    theta: float | np.ndarray
    eta1: float | np.ndarray
    eta2: float | np.ndarray
    on_circle: bool | np.ndarray
    shrink_o_z: float | np.ndarray
    shrink_o_x: float | np.ndarray
    shrink_b_z: float | np.ndarray
    shrink_b_x: float | np.ndarray
    fidelity_o: float | np.ndarray
    fidelity_b: float | np.ndarray
    isotropy_residual_o: float | np.ndarray
    isotropy_residual_b: float | np.ndarray
    correlation: np.ndarray
    ppt_min_eigenvalue: float | np.ndarray


def clone_report(theta: float | np.ndarray, etas) -> CloneReport:
    """Run the machine at one input and extract every reported diagnostic.

    Per-axis shrinks are Bloch component ratios, falling back to the cardinal
    inputs (theta = 0 for z, pi/2 for x) when the requested input has no
    component along an axis.  The isotropy residual of each clone holds the
    shrink fitted at the requested angle fixed and measures the worst
    deviation from the shrunk-copy-plus-noise form across the requested and
    both cardinal inputs, so anisotropy is visible from any single run.
    ``ppt_min_eigenvalue`` is the minimum eigenvalue of the joint output's
    partial transpose (non-negative exactly when the output is separable).

    Angles (...) broadcast with reduction factors (..., 2) to one report of
    arrays: every field takes the broadcast shape (``correlation`` adds two
    axes of 3).  A single input gives numpy scalars.
    """
    # One axis of three inputs: the requested one, then the cardinal probes
    # for z (theta = 0) and x (theta = pi/2); the coefficients broadcast over it.
    coeffs = coefficients(np.expand_dims(np.asarray(etas, dtype=float), -2))
    shape = np.broadcast_shapes(np.shape(theta), coeffs.eta1.shape[:-1])
    theta = np.broadcast_to(np.asarray(theta, dtype=float), shape)
    thetas = np.stack([theta, np.zeros(shape), np.full(shape, np.pi / 2)], axis=-1)
    kets = great_circle_ket(thetas)
    m = great_circle_bloch(theta)
    rho_o, rho_b, rho_ob = reduced_clones(clone(thetas, coeffs))

    def diagnose(rho):
        """(z shrink, x shrink, fidelity, isotropy residual) of one clone over the three inputs."""
        s = _shrink(rho[..., 0, :, :], kets[..., 0, :])
        bloch = density_to_bloch(rho)
        requested, pole, equator = bloch[..., 0, :], bloch[..., 1, :], bloch[..., 2, :]
        residual = np.max(_isotropy_residual(rho, kets, s[..., None]), axis=-1)
        return _axis_shrink(2, requested, m, pole), _axis_shrink(0, requested, m, equator), (1 + s) / 2, residual

    shrink_o_z, shrink_o_x, fidelity_o, residual_o = diagnose(rho_o)
    shrink_b_z, shrink_b_x, fidelity_b, residual_b = diagnose(rho_b)
    joint = rho_ob[..., 0, :, :]
    eta1, eta2 = (np.broadcast_to(eta[..., 0], shape)[()] for eta in (coeffs.eta1, coeffs.eta2))

    return CloneReport(
        theta=theta[()],
        eta1=eta1,
        eta2=eta2,
        on_circle=np.abs(eta1**2 + eta2**2 - 1.0) <= ON_CIRCLE_ATOL,
        shrink_o_z=shrink_o_z[()],
        shrink_o_x=shrink_o_x[()],
        shrink_b_z=shrink_b_z[()],
        shrink_b_x=shrink_b_x[()],
        fidelity_o=fidelity_o[()],
        fidelity_b=fidelity_b[()],
        isotropy_residual_o=residual_o[()],
        isotropy_residual_b=residual_b[()],
        correlation=pauli_decompose(joint).t,
        ppt_min_eigenvalue=hermitian_eigenvalues(partial_transpose_second(joint))[..., 0][()],
    )


def isotropy_scan(etas, samples: int) -> float:
    """Worst isotropy residual of either clone over ``samples`` angles uniform in [0, 2*pi)."""
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    thetas = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    kets = great_circle_ket(thetas)
    rho_o, rho_b, _ = reduced_clones(clone(thetas, coefficients(etas)))
    clones = np.stack([rho_o, rho_b])  # (2, samples, 2, 2); the kets broadcast over the first axis
    return float(np.max(_isotropy_residual(clones, kets, _shrink(clones, kets))))


def covariance_check_machine(etas, theta, beta):
    """Max-norm deviation of rho_ob(theta + beta) from the y-rotated rho_ob(theta).

    Only defined on the optimal curve, where the machine output transforms
    covariantly under simultaneous rotation of both clones.  Reduction
    factors (..., 2) and angles (...) broadcast to one deviation per entry.
    """
    etas = np.asarray(etas, dtype=float)
    off = np.abs(etas[..., 0] ** 2 + etas[..., 1] ** 2 - 1.0) > ON_CIRCLE_ATOL
    if off.any():
        eta1, eta2 = _first_where(off, etas)
        raise ValueError(f"({eta1}, {eta2}) is not on the curve eta1^2 + eta2^2 = 1")
    theta, beta = np.broadcast_arrays(np.asarray(theta, dtype=float), beta)
    rho = reduced_clones(clone(np.stack([theta + beta, theta], axis=-1), coefficients(etas[..., None, :])))[2]
    u = rotation_unitary(beta)
    u2 = kron(u, u)
    rotated = u2 @ rho[..., 1, :, :] @ u2.conj().swapaxes(-2, -1)
    return np.max(np.abs(rho[..., 0, :, :] - rotated), axis=(-2, -1))
