"""Dense complex linear algebra for small multi-qubit systems (dimension <= 8)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

HERMITIAN_ATOL = 1e-10
PSD_TOL = 1e-9


def _first_where(condition: np.ndarray, values: np.ndarray):
    """The entry of ``values`` (batch shape of ``condition``, then any trailing axes) where ``condition`` first holds."""
    condition = np.asarray(condition)
    values = np.asarray(values)
    return values.reshape((-1,) + values.shape[condition.ndim:])[np.argmax(condition.reshape(-1))]


def _components(a: np.ndarray) -> list:
    """The entries along the last axis of ``a``, each of the leading (batch) shape; numpy scalars for a vector."""
    return [a[..., i][()] for i in range(a.shape[-1])]


def _stack_last(entries, depth: int) -> np.ndarray:
    """Nested lists, ``depth`` deep, of equally shaped entries (...) as one array (..., n_1, ..., n_depth)."""
    stacked = np.array(entries)
    return stacked.transpose(tuple(range(depth, stacked.ndim)) + tuple(range(depth)))


def hermiticity_defect(m: np.ndarray):
    """max_jk |M[j,k] - conj(M[k,j])|, one value per matrix of a (..., n, n) stack."""
    m = np.asarray(m, dtype=complex)
    return np.max(np.abs(m - m.conj().swapaxes(-2, -1)), axis=(-2, -1))


def _require_hermitian(m: np.ndarray, atol: float) -> np.ndarray:
    """``m`` as a complex (..., n, n) stack, rejected if any matrix is not Hermitian within ``atol``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"not Hermitian: expected a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m).max()
    if defect > atol:
        raise ValueError(f"not Hermitian: defect {defect:.3e} exceeds tolerance {atol:.1e}")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor owns the most significant index block.

    Leading axes are batch axes: stacks (..., p, q) and (..., r, s) broadcast
    to one (..., p*r, q*s) product per entry.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def partial_trace(rho: np.ndarray, keep: int | Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Reduced matrix of ``rho`` on the kept subsystems.

    ``rho`` acts on the tensor product of subsystems with dimensions ``dims``
    (first subsystem most significant, matching C-order kets); ``keep`` names
    one subsystem index or a sequence of them.  The entries of all remaining
    subsystems are summed out.  Leading axes are batch axes: a stack of shape
    (..., D, D) gives one reduced matrix per entry.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if rho.ndim < 2 or rho.shape[-2:] != (total, total):
        raise ValueError(f"bad factorization: dims {dims} do not tile a matrix of shape {rho.shape}")
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted(int(k) for k in keep)
    n = len(dims)
    if len(set(keep)) != len(keep) or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"bad factorization: keep={keep} is not a subset of the {n} subsystems")

    batch = rho.shape[:-2]
    tensor = rho.reshape(batch + tuple(dims + dims))
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("a") + n + i) if i in keep else row[i] for i in range(n)]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    reduced = np.einsum("..." + "".join(row + col) + "->..." + "".join(out), tensor)
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return reduced.reshape(batch + (kept_dim, kept_dim))


def hermitian_eigenvalues(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending; a (..., n, n) stack gives (..., n).

    The input is symmetrized as (M + M^dagger)/2 before solving; a stack in
    which any matrix's hermiticity defect exceeds ``atol`` is rejected.
    """
    m = _require_hermitian(m, atol)
    return np.linalg.eigvalsh((m + m.conj().swapaxes(-2, -1)) / 2)


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> tuple[bool, float]:
    """Whether ``m`` is positive semidefinite within ``tol``, plus its minimum eigenvalue."""
    lam_min = float(hermitian_eigenvalues(m)[0])
    return lam_min >= -tol, lam_min
