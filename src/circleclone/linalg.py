"""Dense linear algebra for small multi-qubit systems (dimension <= 8), real or complex, following the input."""

from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

HERMITIAN_ATOL = 1e-10
PSD_TOL = 1e-9


def _require(holds, values, message: str) -> None:
    """Reject a stack unless ``holds`` is true for every entry: ValueError(``message``) from the first that fails.

    ``holds`` has the batch shape of ``values``, whose trailing axes, if any,
    make up one entry; ``message`` is formatted with that entry's fields.
    The caller states what must hold, so a NaN, which satisfies no
    comparison, fails it.
    """
    holds = np.asarray(holds)
    if not holds.all():
        values = np.asarray(values)
        entry = values.reshape((-1,) + values.shape[holds.ndim:])[np.argmin(holds.reshape(-1))]
        raise ValueError(message.format(*np.ravel(entry)))


def _components(a: np.ndarray) -> list:
    """The entries along the last axis of ``a``, each of the leading (batch) shape; numpy scalars for a vector."""
    return [a[..., i][()] for i in range(a.shape[-1])]


def _stack_last(entries, depth: int) -> np.ndarray:
    """Nested lists, ``depth`` deep, of equally shaped entries (...) as one array (..., n_1, ..., n_depth)."""
    stacked = np.array(entries)
    return stacked.transpose(tuple(range(depth, stacked.ndim)) + tuple(range(depth)))


def _inexact(m) -> np.ndarray:
    """``m`` as a complex128 array if it is complex, else as a float64 one, so real input keeps real arithmetic."""
    m = np.asarray(m)
    return np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)


def _shaped(a, trailing: tuple, what: str, dtype=float) -> np.ndarray:
    """``a`` as an array of ``dtype`` (None: _inexact) whose last axes are ``trailing``, the shape of ``what``.

    Anything else, a 0-d value included, is one ValueError naming ``what`` and
    the shape it got.  No entry is read, so the shape comes before any other check.
    """
    a = _inexact(a) if dtype is None else np.asarray(a, dtype=dtype)
    if a.shape[-len(trailing):] != trailing:
        raise ValueError(f"expected {what} (..., {', '.join(map(str, trailing))}), got shape {a.shape}")
    return a


def hermiticity_defect(m: np.ndarray):
    """max_jk |M[j,k] - conj(M[k,j])|, one value per matrix of a (..., n, n) stack."""
    m = _inexact(m)
    return np.max(np.abs(m - m.conj().swapaxes(-2, -1)), axis=(-2, -1))


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    """``m`` as an _inexact (..., n, n) stack; each matrix must be finite and Hermitian within HERMITIAN_ATOL."""
    m = _inexact(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"not Hermitian: expected a square matrix, got shape {m.shape}")
    _require(np.isfinite(m).all(axis=(-2, -1)), m, "not Hermitian: an entry is not finite")
    defect = hermiticity_defect(m)
    _require(defect <= HERMITIAN_ATOL, defect, f"not Hermitian: defect {{:.3e}} exceeds tolerance {HERMITIAN_ATOL:.1e}")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor owns the most significant index block.

    Leading axes are batch axes: stacks (..., p, q) and (..., r, s) broadcast
    to one (..., p*r, q*s) product per entry; two real factors give a real product.
    """
    a, b = _inexact(a), _inexact(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"kron takes matrices (..., p, q), got shapes {a.shape} and {b.shape}")
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _integers(values, name: str) -> list[int]:
    """One integer or a sequence of them as a list of ints; anything else, a bool included, is a bad factorization."""
    entries = np.asarray(values, dtype=object)
    if entries.ndim > 1 or not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in entries.flat):
        raise ValueError(f"bad factorization: {name}={values!r} must be an integer or a sequence of integers")
    return [int(v) for v in entries.flat]


def partial_trace(rho: np.ndarray, keep: int | Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Reduced matrix of ``rho`` on the kept subsystems.

    ``rho`` acts on the tensor product of subsystems with dimensions ``dims``
    (first subsystem most significant, matching C-order kets); ``keep`` names
    one subsystem index or a sequence of them.  The entries of all remaining
    subsystems are summed out.  Leading axes are batch axes: a stack of shape
    (..., D, D) gives one reduced matrix per entry; a real ``rho`` gives real
    reduced matrices.
    """
    rho = _inexact(rho)
    dims = _integers(dims, "dims")
    if any(d < 1 for d in dims):
        raise ValueError(f"bad factorization: dims {dims} must all be positive")
    total = int(np.prod(dims))
    if rho.ndim < 2 or rho.shape[-2:] != (total, total):
        raise ValueError(f"bad factorization: dims {dims} do not tile a matrix of shape {rho.shape}")
    keep = sorted(_integers(keep, "keep"))
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


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending; a (..., n, n) stack gives (..., n).

    The input is symmetrized as (M + M^dagger)/2 before solving; a stack is
    rejected unless every matrix's hermiticity defect is within HERMITIAN_ATOL.
    """
    m = _require_hermitian(m)
    return np.linalg.eigvalsh((m + m.conj().swapaxes(-2, -1)) / 2)


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> tuple[bool, float]:
    """Whether ``m`` is positive semidefinite within ``tol``, plus its minimum eigenvalue."""
    if np.ndim(m) != 2:
        raise ValueError(f"is_psd takes one matrix, got shape {np.shape(m)}; hermitian_eigenvalues takes a stack")
    lam_min = float(hermitian_eigenvalues(m)[0])
    return lam_min >= -tol, lam_min
