"""Pauli operators, Bloch-vector geometry and y-axis rotations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HERMITIAN_ATOL, _components, _require, _require_hermitian, _stack_last, kron

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_STACK = np.stack(PAULIS)

# Two-qubit expansion operators, built once: sigma_j (x) I, I (x) sigma_k, sigma_j (x) sigma_k.
PAULI_LEFT = np.stack([kron(s, IDENTITY_2) for s in PAULIS])
PAULI_RIGHT = np.stack([kron(IDENTITY_2, s) for s in PAULIS])
PAULI_PAIRS = np.stack([np.stack([kron(sj, sk) for sk in PAULIS]) for sj in PAULIS])

BLOCH_NORM_ATOL = 1e-12


def _angles(theta) -> np.ndarray:
    """``theta`` as a float array of angles, rejected if any angle is not finite."""
    theta = np.asarray(theta, dtype=float)
    _require(np.isfinite(theta), theta, "angle must be finite, got {}")
    return theta


def great_circle_bloch(theta: float | np.ndarray) -> np.ndarray:
    """Bloch vector (sin t, 0, cos t) of the x-z circle state at angle ``theta``; t=0 is (0,0,1).

    An array of angles gives one vector per angle, stacked on the last axis: shape (..., 3).
    """
    theta = _angles(theta)
    return _stack_last([np.sin(theta), np.zeros_like(theta), np.cos(theta)], 1)


def great_circle_ket(theta: float | np.ndarray) -> np.ndarray:
    """Real-amplitude ket cos(t/2)|0> + sin(t/2)|1> whose Bloch vector is great_circle_bloch(t).

    An array of angles gives one ket per angle, stacked on the last axis: shape
    (..., 2).
    """
    theta = _angles(theta)
    return np.stack([np.cos(theta / 2), np.sin(theta / 2)], axis=-1)


def bloch_to_density(m) -> np.ndarray:
    """Single-qubit density matrix (I + m . sigma) / 2.

    A (..., 3) stack of Bloch vectors gives (..., 2, 2); it is rejected if any
    vector is longer than 1.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 1 or m.shape[-1] != 3:
        raise ValueError(f"Bloch vector must have 3 real components, got shape {m.shape}")
    norms = np.linalg.norm(m, axis=-1)
    _require(norms <= 1 + BLOCH_NORM_ATOL, norms, "unphysical Bloch vector: |m| = {:.12f} exceeds 1")
    x, y, z = (m[..., i, None, None] for i in range(3))
    return 0.5 * (IDENTITY_2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector m_j = Tr(rho sigma_j) of a unit-trace Hermitian 2x2 matrix.

    A (..., 2, 2) stack gives (..., 3); it is rejected if any matrix is not
    Hermitian or not of unit trace.
    """
    rho = _require_hermitian(rho)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    traces = np.trace(rho, axis1=-2, axis2=-1)
    _require(np.abs(traces - 1) <= HERMITIAN_ATOL, traces, f"trace {{}} is not 1 within {HERMITIAN_ATOL:.1e}")
    return _pauli_readout(rho)


def _pauli_readout(op: np.ndarray) -> np.ndarray:
    """Re Tr(op sigma_j) of a (..., 2, 2) stack, (..., 3): linear, so it also reads traceless operators."""
    return np.einsum("jab,...ba->...j", PAULI_STACK, op).real


def _real_readout(flat: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """Re(flat @ readout) for flattened operators (..., n) and a complex (n, k) read-out; real ``flat`` stays real."""
    if np.iscomplexobj(flat):
        return (flat @ readout).real
    return flat @ readout.real


# Tr(rho sigma_j (x) sigma_k) = sum_ab rho[b, a] (sigma_j (x) sigma_k)[a, b]: row 4b + a, column 3j + k.
_PAIR_READOUT = PAULI_PAIRS.transpose(3, 2, 0, 1).reshape(16, 9)


def _pauli_pair_readout(rho: np.ndarray) -> np.ndarray:
    """Correlations t_jk = Re Tr(rho sigma_j(x)sigma_k) of a (..., 4, 4) stack, (..., 3, 3); no Hermiticity check."""
    return _real_readout(rho.reshape(rho.shape[:-2] + (16,)), _PAIR_READOUT).reshape(rho.shape[:-2] + (3, 3))


def rotation_unitary(beta: float | np.ndarray) -> np.ndarray:
    """SU(2) rotation exp(-i beta/2 sigma_y) about the y axis; an array of angles gives (..., 2, 2)."""
    half = _angles(beta) / 2
    c, s = np.cos(half), np.sin(half)
    return _stack_last([[c, -s], [s, c]], 2).astype(complex)


def rotate_bloch(m, beta: float | np.ndarray) -> np.ndarray:
    """SO(3) rotation of a Bloch vector about the y axis; beta=pi/2 sends (0,0,1) to (1,0,0).

    Vectors (..., 3) and angles (...) broadcast to one rotated vector per entry.
    """
    m = np.asarray(m, dtype=float)
    beta = _angles(beta)
    c, s = np.cos(beta), np.sin(beta)
    x, y, z = _components(m)
    x_rotated = x * c + z * s
    return _stack_last([x_rotated, np.broadcast_to(y, np.shape(x_rotated)), -x * s + z * c], 1)


@dataclass(frozen=True)
class PauliDecomposition:
    """Coefficients of a two-qubit Hermitian matrix in the Pauli product basis.

    ``a`` multiplies sigma_j (x) I, ``b`` multiplies I (x) sigma_k and ``t``
    is the 3x3 correlation matrix multiplying sigma_j (x) sigma_k.  ``unit``
    multiplies I (x) I; it equals the trace of the source, so 1 for states.
    Every field may carry leading batch axes, one entry per source matrix.
    """

    a: np.ndarray
    b: np.ndarray
    t: np.ndarray
    unit: float | np.ndarray = 1.0

    def reconstruct(self) -> np.ndarray:
        """The 4x4 matrix [unit I(x)I + sum_j a_j sigma_j(x)I + sum_k b_k I(x)sigma_k + sum_jk t_jk sigma_j(x)sigma_k] / 4.

        Coefficients with leading batch axes give one matrix per entry: (..., 4, 4).
        """
        rho = np.asarray(self.unit)[..., None, None] * np.eye(4, dtype=complex)
        rho = rho + np.tensordot(self.a, PAULI_LEFT, axes=1)
        rho = rho + np.tensordot(self.b, PAULI_RIGHT, axes=1)
        rho = rho + np.tensordot(self.t, PAULI_PAIRS, axes=([-2, -1], [0, 1]))
        return rho / 4


def pauli_decompose(rho: np.ndarray) -> PauliDecomposition:
    """Pauli-product coefficients a_j = Tr(rho sigma_j(x)I), b_k = Tr(rho I(x)sigma_k), t_jk = Tr(rho sigma_j(x)sigma_k).

    A (..., 4, 4) stack gives coefficients with the same leading axes: a and b
    (..., 3), t (..., 3, 3) and unit (...).
    """
    rho = _require_hermitian(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    a = np.einsum("jab,...ba->...j", PAULI_LEFT, rho).real
    b = np.einsum("kab,...ba->...k", PAULI_RIGHT, rho).real
    return PauliDecomposition(a=a, b=b, t=_pauli_pair_readout(rho), unit=np.trace(rho, axis1=-2, axis2=-1).real)
