"""Pauli operators, Bloch-vector geometry and y-axis rotations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HERMITIAN_ATOL, _require_hermitian, kron

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Two-qubit expansion operators, built once: sigma_j (x) I, I (x) sigma_k, sigma_j (x) sigma_k.
PAULI_LEFT = np.stack([kron(s, IDENTITY_2) for s in PAULIS])
PAULI_RIGHT = np.stack([kron(IDENTITY_2, s) for s in PAULIS])
PAULI_PAIRS = np.stack([np.stack([kron(sj, sk) for sk in PAULIS]) for sj in PAULIS])

BLOCH_NORM_ATOL = 1e-12


def great_circle_bloch(theta: float) -> np.ndarray:
    """Bloch vector (sin t, 0, cos t) of the x-z circle state at angle ``theta``; t=0 is (0,0,1)."""
    return np.array([np.sin(theta), 0.0, np.cos(theta)])


def great_circle_ket(theta: float | np.ndarray) -> np.ndarray:
    """Real-amplitude ket cos(t/2)|0> + sin(t/2)|1> whose Bloch vector is great_circle_bloch(t).

    An array of angles gives one ket per angle, stacked on the last axis: shape (..., 2).
    """
    half = np.asarray(theta, dtype=float) / 2
    return np.stack([np.cos(half), np.sin(half)], axis=-1).astype(complex)


def bloch_to_density(m) -> np.ndarray:
    """Single-qubit density matrix (I + m . sigma) / 2."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 real components, got shape {m.shape}")
    norm = float(np.linalg.norm(m))
    if norm > 1 + BLOCH_NORM_ATOL:
        raise ValueError(f"unphysical Bloch vector: |m| = {norm:.12f} exceeds 1")
    return 0.5 * (IDENTITY_2 + m[0] * SIGMA_X + m[1] * SIGMA_Y + m[2] * SIGMA_Z)


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector m_j = Tr(rho sigma_j) of a unit-trace Hermitian 2x2 matrix."""
    rho = _require_hermitian(rho, HERMITIAN_ATOL)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    trace = complex(np.trace(rho))
    if abs(trace - 1) > HERMITIAN_ATOL:
        raise ValueError(f"trace {trace} is not 1 within {HERMITIAN_ATOL:.1e}")
    return np.array([float(np.trace(rho @ s).real) for s in PAULIS])


def rotation_unitary(beta: float) -> np.ndarray:
    """SU(2) rotation exp(-i beta/2 sigma_y) about the y axis."""
    c, s = np.cos(beta / 2), np.sin(beta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rotate_bloch(m, beta: float) -> np.ndarray:
    """SO(3) rotation of a Bloch vector about the y axis; beta=pi/2 sends (0,0,1) to (1,0,0)."""
    m = np.asarray(m, dtype=float)
    c, s = np.cos(beta), np.sin(beta)
    return np.array([m[0] * c + m[2] * s, m[1], -m[0] * s + m[2] * c])


@dataclass(frozen=True)
class PauliDecomposition:
    """Coefficients of a two-qubit Hermitian matrix in the Pauli product basis.

    ``a`` multiplies sigma_j (x) I, ``b`` multiplies I (x) sigma_k and ``t``
    is the 3x3 correlation matrix multiplying sigma_j (x) sigma_k.  ``unit``
    multiplies I (x) I; it equals the trace of the source, so 1 for states.
    """

    a: np.ndarray
    b: np.ndarray
    t: np.ndarray
    unit: float = 1.0

    def reconstruct(self) -> np.ndarray:
        """The 4x4 matrix [unit I(x)I + sum_j a_j sigma_j(x)I + sum_k b_k I(x)sigma_k + sum_jk t_jk sigma_j(x)sigma_k] / 4."""
        rho = self.unit * np.eye(4, dtype=complex)
        rho += np.tensordot(self.a, PAULI_LEFT, axes=1)
        rho += np.tensordot(self.b, PAULI_RIGHT, axes=1)
        rho += np.tensordot(self.t, PAULI_PAIRS, axes=([0, 1], [0, 1]))
        return rho / 4


def pauli_decompose(rho: np.ndarray) -> PauliDecomposition:
    """Pauli-product coefficients a_j = Tr(rho sigma_j(x)I), b_k = Tr(rho I(x)sigma_k), t_jk = Tr(rho sigma_j(x)sigma_k)."""
    rho = _require_hermitian(rho, HERMITIAN_ATOL)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    a = np.einsum("jab,ba->j", PAULI_LEFT, rho).real
    b = np.einsum("kab,ba->k", PAULI_RIGHT, rho).real
    t = np.einsum("jkab,ba->jk", PAULI_PAIRS, rho).real
    return PauliDecomposition(a=a, b=b, t=t, unit=float(np.trace(rho).real))
