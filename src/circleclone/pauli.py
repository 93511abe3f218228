"""Pauli operators, Bloch-vector geometry, y-axis rotations and the checks on angles and reduction factors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import HERMITIAN_ATOL, _components, _inexact, _require, _require_hermitian, _shaped, _stack_last, kron

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# The one-qubit basis (I, X, Y, Z) and its two-qubit products PAULI_BASIS[j, k] = sigma_j (x) sigma_k.
_ONE_QUBIT_BASIS = np.stack([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z])
PAULI_STACK = _ONE_QUBIT_BASIS[1:]
PAULI_BASIS = kron(_ONE_QUBIT_BASIS[:, None], _ONE_QUBIT_BASIS)


def _readout_matrix(basis: np.ndarray) -> np.ndarray:
    """The (n^2, k) matrix R with Tr(op P_c) = (flattened op) @ R[:, c], for k basis operators (..., n, n).

    Tr(op P) = sum_ab op[b, a] P[a, b]: row n b + a, one column per basis
    operator in C order.  The one place this convention is written.
    """
    n = basis.shape[-1]
    return basis.reshape(-1, n, n).transpose(2, 1, 0).reshape(n * n, -1)


# Column j of the one-qubit read-out reads sigma_j, column 4j + k of the two-qubit one sigma_j (x) sigma_k.
_BLOCH_READOUT = _readout_matrix(_ONE_QUBIT_BASIS)
_PAULI_READOUT = _readout_matrix(PAULI_BASIS)
# Their read-ins, R^dagger / n: coefficients (..., n^2) @ R^dagger / n is the flattened sum_c coeff_c P_c / n,
# since row c of R^dagger is P_c flattened (each P_c is Hermitian).  Exactly the basis, reshaped and scaled.
_BLOCH_READIN = _BLOCH_READOUT.conj().T / 2
_PAULI_READIN = _PAULI_READOUT.conj().T / 4

BLOCH_NORM_ATOL = 1e-12


def _angles(theta) -> np.ndarray:
    """``theta`` as a float array of angles, rejected if any angle is not finite."""
    theta = np.asarray(theta, dtype=float)
    _require(np.isfinite(theta), theta, "angle must be finite, got {}")
    return theta


def _validate_etas(etas) -> tuple[np.ndarray, np.ndarray]:
    """(eta1, eta2) of reduction factors (..., 2), rejected if any pair leaves [0, 1]."""
    etas = _shaped(etas, (2,), "reduction factors (eta1, eta2)")
    _require(((etas >= 0.0) & (etas <= 1.0)).all(axis=-1), etas, "reduction factors must lie in [0, 1], got ({}, {})")
    return tuple(_components(etas))


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
    m = _shaped(m, (3,), "a Bloch vector")
    norms = np.linalg.norm(m, axis=-1)
    _require(norms <= 1 + BLOCH_NORM_ATOL, norms, "unphysical Bloch vector: |m| = {:.12f} exceeds 1")
    coefficients = np.concatenate([np.ones(m.shape[:-1] + (1,)), m], axis=-1)
    return _read_in(coefficients, _BLOCH_READIN)


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector m_j = Tr(rho sigma_j) of a unit-trace Hermitian 2x2 matrix.

    A (..., 2, 2) stack gives (..., 3); it is rejected if any matrix is not
    Hermitian or not of unit trace.
    """
    rho = _require_hermitian(_shaped(rho, (2, 2), "a one-qubit matrix", None))
    traces = np.trace(rho, axis1=-2, axis2=-1)
    _require(np.abs(traces - 1) <= HERMITIAN_ATOL, traces, f"trace {{}} is not 1 within {HERMITIAN_ATOL:.1e}")
    return _real_readout(rho, _BLOCH_READOUT[:, 1:])


def _real_readout(op: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """Re Tr(op P) of operators (..., n, n) per column P of an (n^2, k) read-out, (..., k); a real ``op`` stays real."""
    flat = op.reshape(op.shape[:-2] + (-1,))
    return (flat @ readout).real if np.iscomplexobj(flat) else flat @ readout.real


def _read_in(coefficients: np.ndarray, readin: np.ndarray) -> np.ndarray:
    """The operators (..., n, n) with basis coefficients (..., n^2) through a read-in R^dagger / n.

    One (1, n^2) @ (n^2, n^2) product per entry, so each row of a stack is its
    single call bit for bit.
    """
    flat = (coefficients[..., None, :] @ readin)[..., 0, :]
    n = math.isqrt(flat.shape[-1])
    return flat.reshape(flat.shape[:-1] + (n, n))


def rotation_unitary(beta: float | np.ndarray) -> np.ndarray:
    """SU(2) rotation exp(-i beta/2 sigma_y) about the y axis, a real matrix; an array of angles gives (..., 2, 2)."""
    half = _angles(beta) / 2
    c, s = np.cos(half), np.sin(half)
    return _stack_last([[c, -s], [s, c]], 2)


def _rotate_pair(rho: np.ndarray, beta) -> np.ndarray:
    """U(x)U rho (U(x)U)^T, U = rotation_unitary(beta): both qubits of (..., 4, 4) turned about y by ``beta``.

    U(x)U is real, so every product is real: a float64 ``rho`` stays float64,
    and a complex128 one is multiplied as its real (..., 4, 8) view, real and
    imaginary parts side by side.  Both products are taken from the left, as
    (U (U rho)^T)^T, on contiguous operands.
    """
    u = rotation_unitary(beta)
    u2 = kron(u, u)

    def left(m):
        m = np.ascontiguousarray(_inexact(m))
        return (u2 @ m.view(np.float64)).view(m.dtype)

    return left(left(rho).swapaxes(-2, -1)).swapaxes(-2, -1)


def _turn(x, z, c, s):
    """x and z turned about y by the angle of cosine ``c``, sine ``s``: rotation_unitary's SO(3) action, written once."""
    return x * c + z * s, -x * s + z * c


def rotate_bloch(m, beta: float | np.ndarray) -> np.ndarray:
    """SO(3) rotation of a Bloch vector about the y axis; beta=pi/2 sends (0,0,1) to (1,0,0).

    Vectors (..., 3) and angles (...) broadcast to one rotated vector per entry.
    """
    m = _shaped(m, (3,), "a Bloch vector")
    _require(np.isfinite(m).all(axis=-1), m, "Bloch vector components must be finite, got ({}, {}, {})")
    x, y, z = _components(m)
    beta = _angles(beta)
    x, z = _turn(x, z, np.cos(beta), np.sin(beta))
    return _stack_last([x, np.broadcast_to(y, np.shape(x)), z], 1)


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
        a = _shaped(self.a, (3,), "coefficients a", None)
        b = _shaped(self.b, (3,), "coefficients b", None)
        t = _shaped(self.t, (3, 3), "a correlation tensor t", None)
        unit = np.asarray(self.unit)
        shape = np.broadcast_shapes(unit.shape, a.shape[:-1], b.shape[:-1], t.shape[:-2])
        # c[..., j, k] multiplies sigma_j (x) sigma_k, the order of _PAULI_READOUT's columns.
        c = np.empty(shape + (4, 4), dtype=np.result_type(unit, a, b, t, float))
        c[..., 0, 0], c[..., 1:, 0], c[..., 0, 1:], c[..., 1:, 1:] = unit, a, b, t
        return _read_in(c.reshape(shape + (16,)), _PAULI_READIN)


def pauli_decompose(rho: np.ndarray) -> PauliDecomposition:
    """Pauli-product coefficients a_j = Tr(rho sigma_j(x)I), b_k = Tr(rho I(x)sigma_k), t_jk = Tr(rho sigma_j(x)sigma_k).

    A (..., 4, 4) stack gives coefficients with the same leading axes: a and b
    (..., 3), t (..., 3, 3) and unit (...).
    """
    rho = _require_hermitian(_shaped(rho, (4, 4), "a two-qubit matrix", None))
    c = _real_readout(rho, _PAULI_READOUT).reshape(rho.shape[:-2] + (4, 4))
    return PauliDecomposition(a=c[..., 1:, 0], b=c[..., 0, 1:], t=c[..., 1:, 1:], unit=c[..., 0, 0])
