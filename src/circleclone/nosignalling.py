"""Covariant two-clone outputs, the no-signalling constraint and the feasibility bound.

The two-clone output of a universal great-circle cloner is parametrized by the
pair of reduction factors (eta1, eta2) and a real 3x3 correlation tensor.
Requiring that antipodal input ensembles produce identical average outputs
forces t_xx = t_zz and t_xz = -t_zx, leaving seven free tensor entries.
Positivity of the north-pole output then bounds eta1^2 + eta2^2.  One barrier
solve over the free entries, bracketing its optimum between a primal witness
and a dual certificate, decides feasibility at a point and finds the largest
feasible radius along a ray: the unit circle in the (eta1, eta2) plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PSD_TOL, _components, _require, _stack_last, kron
from .pauli import PauliDecomposition, _angles, rotate_bloch, rotation_unitary

GREAT_CIRCLE_ATOL = 1e-12
CONSTRAINT_ATOL = 1e-12
DEFAULT_BUDGET = 5000
DEFAULT_RADIUS_TOL = 1e-3
GAP_TOL = 1e-10
# Barrier schedule: s grows by this factor at every iterate whose Newton
# decrement is below CENTRED_DECREMENT.
BARRIER_GROWTH = 300.0
CENTRED_DECREMENT = 1.0

# Order of the free correlation-tensor entries once the no-signalling
# constraints t_zz = t_xx and t_zx = -t_xz are imposed.
FREE_PARAMETERS = ("t_xx", "t_xz", "t_yy", "t_xy", "t_yx", "t_yz", "t_zy")

UP = np.array([0.0, 0.0, 1.0])
DOWN = np.array([0.0, 0.0, -1.0])
RIGHT = np.array([1.0, 0.0, 0.0])
LEFT = np.array([-1.0, 0.0, 0.0])


def constrain_tensor(free) -> np.ndarray:
    """Correlation tensor built from the seven free entries (see FREE_PARAMETERS).

    The returned 3x3 tensor satisfies the no-signalling equalities exactly:
    t_zz = t_xx and t_zx = -t_xz.  Leading axes of ``free`` (..., 7) are
    batch axes: the result is (..., 3, 3).
    """
    free = np.asarray(free, dtype=float)
    if free.ndim < 1 or free.shape[-1] != len(FREE_PARAMETERS):
        raise ValueError(f"expected the {len(FREE_PARAMETERS)} free entries {FREE_PARAMETERS}, got shape {free.shape}")
    _require(np.abs(free) <= 1 + 1e-12, free, "free correlation entries must lie in [-1, 1]")
    t_xx, t_xz, t_yy, t_xy, t_yx, t_yz, t_zy = _components(free)
    return _stack_last([
        [t_xx, t_xy, t_xz],
        [t_yx, t_yy, t_yz],
        [-t_xz, t_zy, t_xx],
    ], 2)


def free_parameters(t: np.ndarray) -> np.ndarray:
    """Project a tensor onto the seven free entries (averaging the constrained pairs); (..., 3, 3) gives (..., 7)."""
    t = _correlation_tensor(t)
    t_xx, t_xy, t_xz, t_yx, t_yy, t_yz, t_zx, t_zy, t_zz = _components(t.reshape(t.shape[:-2] + (9,)))
    return _stack_last([(t_xx + t_zz) / 2, (t_xz - t_zx) / 2, t_yy, t_xy, t_yx, t_yz, t_zy], 1)


def _validate_etas(etas) -> tuple[np.ndarray, np.ndarray]:
    """(eta1, eta2) of reduction factors (..., 2), rejected if any pair leaves [0, 1]."""
    etas = np.asarray(etas, dtype=float)
    if etas.ndim < 1 or etas.shape[-1] != 2:
        raise ValueError(f"expected reduction factors (eta1, eta2), got shape {etas.shape}")
    _require(((etas >= 0.0) & (etas <= 1.0)).all(axis=-1), etas, "reduction factors must lie in [0, 1], got ({}, {})")
    return tuple(_components(etas))


def build_joint_output(m, etas, t: np.ndarray) -> np.ndarray:
    """Two-qubit output with marginals eta1*m and eta2*m and correlation tensor ``t``.

    The input Bloch vector must be a unit vector on the x-z great circle.
    Hermiticity and unit trace are guaranteed; positivity is not.  Vectors
    (..., 3), reduction factors (..., 2) and tensors (..., 3, 3) broadcast to
    one (..., 4, 4) output per entry.
    """
    m = np.asarray(m, dtype=float)
    _require(np.abs(m[..., 1]) <= GREAT_CIRCLE_ATOL, m[..., 1], "off great circle: m_y = {:.3e}")
    norms = np.linalg.norm(m, axis=-1)
    _require(np.abs(norms - 1.0) <= 1e-9, norms, "input Bloch vector must be a unit vector, got |m| = {:.12f}")
    eta1, eta2 = _validate_etas(etas)
    return PauliDecomposition(eta1[..., None] * m, eta2[..., None] * m, _correlation_tensor(t)).reconstruct()


def _tensor_stack(t) -> np.ndarray:
    """``t`` as a real (..., 3, 3) stack, rejected if it has another shape; no entry is read."""
    t = np.asarray(t, dtype=float)
    if t.shape[-2:] != (3, 3):
        raise ValueError(f"correlation tensor must be 3x3, got shape {t.shape}")
    return t


def _correlation_tensor(t) -> np.ndarray:
    """``t`` as a real (..., 3, 3) stack of correlation tensors, rejected if any entry is not finite."""
    t = _tensor_stack(t)
    _require(np.isfinite(t).all(axis=(-2, -1)), t, "correlation tensor entries must be finite")
    return t


def rotate_correlations(t: np.ndarray, beta) -> np.ndarray:
    """Correlation tensor after rotating the input Bloch vector about y by ``beta``.

    The nine closed-form relations below make the output of build_joint_output
    covariant under simultaneous rotation of both clones (see
    covariance_residual, which verifies them against the unitary route).
    Tensors (..., 3, 3) and angles (...) broadcast to one tensor per entry.
    """
    t = _correlation_tensor(t)
    beta = _angles(beta)
    c, s = np.cos(beta), np.sin(beta)
    t_xx, t_xy, t_xz, t_yx, t_yy, t_yz, t_zx, t_zy, t_zz = _components(t.reshape(t.shape[:-2] + (9,)))
    t_yy = np.broadcast_to(t_yy, np.shape(c * t_xx))  # the one entry the angles do not touch
    return _stack_last([
        [c * c * t_xx + s * s * t_zz + s * c * (t_xz + t_zx),
         c * t_xy + s * t_zy,
         s * c * (t_zz - t_xx) + c * c * t_xz - s * s * t_zx],
        [c * t_yx + s * t_yz,
         t_yy,
         -s * t_yx + c * t_yz],
        [s * c * (t_zz - t_xx) - s * s * t_xz + c * c * t_zx,
         -s * t_xy + c * t_zy,
         -s * c * (t_xz + t_zx) + c * c * t_zz + s * s * t_xx],
    ], 2)


def covariance_residual(m, etas, t: np.ndarray, beta):
    """Entrywise gap between the rotated-parameter output and the unitarily rotated output.

    Arguments broadcast as in build_joint_output, with angles (...); one gap per entry.
    """
    direct = build_joint_output(rotate_bloch(m, beta), etas, rotate_correlations(t, beta))
    u = rotation_unitary(beta)
    u2 = kron(u, u)
    conjugated = u2 @ build_joint_output(m, etas, t) @ u2.conj().swapaxes(-2, -1)
    return np.max(np.abs(direct - conjugated), axis=(-2, -1))


def no_signalling_residual(etas, t: np.ndarray):
    """Max-norm of [rho(up) + rho(down)] - [rho(right) + rho(left)].

    Vanishes exactly when t_xx = t_zz and t_xz = -t_zx; otherwise reports the
    magnitude by which the two antipodal ensembles could be told apart.
    Reduction factors (..., 2) and tensors (..., 3, 3) give one residual per entry.
    """
    lhs = build_joint_output(UP, etas, t) + build_joint_output(DOWN, etas, rotate_correlations(t, np.pi))
    rhs = (build_joint_output(RIGHT, etas, rotate_correlations(t, np.pi / 2))
           + build_joint_output(LEFT, etas, rotate_correlations(t, 3 * np.pi / 2)))
    return np.max(np.abs(lhs - rhs), axis=(-2, -1))


def _up_matrix(eta1, eta2, free: np.ndarray) -> np.ndarray:
    """North-pole output assembled entrywise from the seven free tensor entries.

    Free entries (..., 7) give (..., 4, 4); the reduction factors must
    broadcast to the batch shape of the free entries.
    """
    t_xx, t_xz, t_yy, t_xy, t_yx, t_yz, t_zy = _components(np.asarray(free))
    return 0.25 * _stack_last([
        [1 + eta1 + eta2 + t_xx,
         -(t_xz + 1j * t_zy),
         t_xz - 1j * t_yz,
         (t_xx - t_yy) - 1j * (t_xy + t_yx)],
        [-t_xz + 1j * t_zy,
         1 + eta1 - eta2 - t_xx,
         (t_xx + t_yy) + 1j * (t_xy - t_yx),
         -t_xz + 1j * t_yz],
        [t_xz + 1j * t_yz,
         (t_xx + t_yy) - 1j * (t_xy - t_yx),
         1 - eta1 + eta2 - t_xx,
         t_xz + 1j * t_zy],
        [(t_xx - t_yy) + 1j * (t_xy + t_yx),
         -(t_xz + 1j * t_yz),
         t_xz - 1j * t_zy,
         1 - eta1 - eta2 + t_xx],
    ], 2)


def positivity_matrix_up(etas, t: np.ndarray) -> np.ndarray:
    """The explicit 4x4 north-pole output for a constrained tensor.

    Assembled entry by entry; identical (to machine precision) to
    ``build_joint_output(UP, etas, t)``, which serves as the cross-check.
    Reduction factors (..., 2) and tensors (..., 3, 3) give (..., 4, 4).
    """
    eta1, eta2 = _validate_etas(etas)
    t = _tensor_stack(t)  # the shape first; a NaN entry then fails the constraint check
    _require((np.abs(t[..., 0, 0] - t[..., 2, 2]) <= CONSTRAINT_ATOL)
             & (np.abs(t[..., 0, 2] + t[..., 2, 0]) <= CONSTRAINT_ATOL),
             t, "correlation tensor violates the no-signalling constraints t_xx = t_zz, t_xz = -t_zx")
    free = free_parameters(t)
    shape = np.broadcast_shapes(np.shape(eta1), free.shape[:-1])
    return _up_matrix(eta1, eta2, np.broadcast_to(free, shape + free.shape[-1:]))


def bound_rhs(t: np.ndarray):
    """Upper bound on eta1^2 + eta2^2 implied by positivity: 1 - t_yy^2 - t_xy^2 - t_yx^2 - t_yz^2 - t_zy^2.

    A (..., 3, 3) stack of tensors gives one bound per tensor.
    """
    t = _correlation_tensor(t)
    return (1.0 - t[..., 1, 1] ** 2 - t[..., 0, 1] ** 2 - t[..., 1, 0] ** 2
            - t[..., 1, 2] ** 2 - t[..., 2, 1] ** 2)[()]


def machine_witness_tensor(etas) -> np.ndarray:
    """Exact positivity witness for any point of the closed unit disk: diag(c, 0, c), c = eta1*eta2/r.

    With r = hypot(eta1, eta2), this is r times the correlation tensor of the
    cloning machine's north-pole output at (eta1/r, eta2/r) on the unit
    circle.  It describes the convex blend of that machine output with the
    maximally mixed state, hence is always realizable by a positive
    semidefinite output.  Reduction factors (..., 2) give (..., 3, 3); they
    are rejected if any point lies outside the disk.
    """
    eta1, eta2 = _validate_etas(etas)
    radius = np.hypot(eta1, eta2)
    _require(radius <= 1.0 + 1e-9, radius, "no mixture witness outside the unit disk: radius {:.6f}")
    inside = radius > 0.0
    c = np.where(inside, eta1 * eta2 / np.where(inside, radius, 1.0), 0.0)
    zero = np.zeros_like(c)
    return _stack_last([[c, zero, zero], [zero, zero, zero], [zero, zero, c]], 2)


# The north-pole output is affine in the reduction factors and the free
# entries, A00 + eta1 E1 + eta2 E2 + sum_i f_i A_i, with A00 = I/4 and diagonal
# E1, E2; the slopes E1, E2 and A_i are constants.
ORIGIN = _up_matrix(0.0, 0.0, np.zeros(len(FREE_PARAMETERS)))
UP_SLOPES = np.array([_up_matrix(0.0, 0.0, unit) for unit in np.eye(len(FREE_PARAMETERS))]) - ORIGIN
ETA_SLOPES = np.array([_up_matrix(*unit, np.zeros(len(FREE_PARAMETERS))) for unit in np.eye(2)]) - ORIGIN


@dataclass(frozen=True)
class Bracket:
    """Outcome of a stack of barrier solves (see minimize): lower <= optimum <= upper, row by row.

    ``lower`` is attained at the free entries ``free``; ``upper`` is proved
    by the positive semidefinite unit-trace ``certificate`` W, which is NaN
    in a row that certified no bound (there ``upper`` is inf).  Fields take
    the batch shape: ``lower``, ``upper`` and ``iterations`` (...), ``free``
    (..., 7), ``certificate`` (..., n, n); a single problem gives numpy
    scalars.
    """

    lower: np.ndarray
    upper: np.ndarray
    free: np.ndarray
    certificate: np.ndarray
    iterations: np.ndarray


def minimize(f0: np.ndarray, slopes: np.ndarray, g: np.ndarray, x0, budget: int, tol: float) -> Bracket:
    """Barrier (Newton) solve of  max x  s.t.  S = F0 + sum_i f_i A_i + x G >= 0,  |f_i| <= 1.

    Minimizes  -s x - log det S - sum_i log(1 - f_i^2)  by damped Newton steps
    from f = 0 and x = x0; s starts at Tr S^-1 (centred in x when G = -I) and
    grows by BARRIER_GROWTH at every centred iterate (Newton decrement below
    CENTRED_DECREMENT).  Each iterate brackets the optimum: below by the best x
    at its entries, x + 1 / lambda_max(-S^-1/2 G S^-1/2); above, when
    Tr(W G) < 0, by (Tr(W F0) + sum_i |Tr(W A_i)|) / -Tr(W G) for a positive
    semidefinite W, since Tr(W S) >= 0 at every feasible point and every
    |f_i| <= 1.  Every iterate tries W = S^-1 / Tr S^-1, and every centred
    iterate also the face-reduced W of _face_certificate, which stays accurate
    near the optimum, where S is nearly singular and S^-1 / Tr S^-1 is not.
    The solve stops once the certified upper - lower <= tol, or after
    ``budget`` iterates; it also stops where precision runs out: S is no
    longer positive definite, or the Newton step is singular, not finite,
    leaves the box, or leaves x where it is at an iterate that is not
    centred.  ``tol`` must be positive and finite.

    A stack of problems F0 (..., n, n), G (..., n, n) and x0 (...), which
    broadcast to one batch shape, shares the slopes A_i (k, n, n) and runs in
    lockstep: every iterate makes one eigen-decomposition of all the S, one of
    all the S^-1/2 G S^-1/2 and one solve of all the Newton systems.  Each row
    stops on its own by the rules above and leaves the stack; row by row, the
    arithmetic is that of the solve of its problem alone.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    f0, g, x0 = np.asarray(f0), np.asarray(g), np.asarray(x0, dtype=float)
    shape = np.broadcast_shapes(f0.shape[:-2], g.shape[:-2], x0.shape)
    size, count = f0.shape[-1], len(slopes)
    problems = int(np.prod(shape))
    # The live stack: one row per problem still iterating; `rows` are their
    # positions in the results, written as each row stops.
    rows = np.arange(problems)
    f0 = np.broadcast_to(f0, shape + (size, size)).reshape(problems, size, size)
    g = np.broadcast_to(g, shape + (size, size)).reshape(problems, size, size)
    terms = np.concatenate([np.broadcast_to(slopes, (problems,) + slopes.shape), g[:, None]], axis=1)
    x = np.broadcast_to(x0, shape).reshape(problems)
    free = best_free = np.zeros((problems, count))
    lower, upper = np.full(problems, -np.inf), np.full(problems, np.inf)
    certificate = np.full((problems, size, size), np.nan, dtype=complex)
    results = Bracket(lower.copy(), upper.copy(), best_free.copy(), certificate.copy(),
                      np.zeros(problems, dtype=int))
    flat_slopes, diagonal = slopes.reshape(count, -1), np.arange(count)
    for iterate in range(1, budget + 1):
        if not len(rows):
            break
        slack, vectors = np.linalg.eigh(f0 + (free @ flat_slopes).reshape(-1, size, size) + x[:, None, None] * g)
        # Where rounding carried x past the boundary, S is no longer positive
        # definite: that row stops, and a stand-in slack keeps its arithmetic finite.
        definite = slack[:, 0] > 0.0
        inverse = 1.0 / np.where(definite[:, None], slack, 1.0)
        total = inverse.sum(axis=-1)
        if iterate == 1:
            s = total
        # V^H B V for every B of (A_1, ..., G), in the eigenbasis V of S, and
        # S^-1/2 B S^-1/2 from it.
        adjoint = vectors.conj().swapaxes(-2, -1)
        projected = adjoint[:, None] @ terms @ vectors[:, None]
        root = np.sqrt(inverse)
        blocks = projected * (root[:, :, None] * root[:, None, :])[:, None]
        best_x = x + 1.0 / -np.linalg.eigvalsh(blocks[:, -1])[:, 0]
        better = definite & (best_x > lower)
        lower = np.where(better, best_x, lower)
        best_free = np.where(better[:, None], free, best_free)
        w = (vectors * (inverse / total[:, None])[:, None, :]) @ adjoint
        traces = _traces(w, terms)
        bound = np.where(definite, _dual_bound(w, f0, traces), np.inf)
        better = bound < upper
        upper = np.where(better, bound, upper)
        certificate = np.where(better[:, None, None], w, certificate)

        # Newton step in (f, x); Hessian blocks Tr(S^-1 B_j S^-1 B_k).
        flat = blocks.reshape(len(rows), count + 1, -1)
        hessian = (flat @ flat.conj().swapaxes(-2, -1)).real
        gradient = -total[:, None] * traces
        gradient[:, count] -= s
        gradient[:, :count] += 2 * free / (1 - free**2)
        hessian[:, diagonal, diagonal] += 2 * (1 + free**2) / (1 - free**2) ** 2
        step = -_newton_solve(hessian, gradient)
        decrement = np.sqrt(np.maximum(-np.einsum("li,li->l", gradient, step), 0.0))
        centred = definite & (decrement < CENTRED_DECREMENT)
        if centred.any():
            face = _face_certificate(vectors[centred], projected[centred])
            bound = np.full(len(rows), np.inf)
            bound[centred] = _dual_bound(face, f0[centred], _traces(face, terms[centred]))
            better = bound < upper
            upper = np.where(better, bound, upper)
            certificate[better] = face[better[centred]]
        damping = np.where(decrement < 0.25, 1.0, 1.0 / (1.0 + decrement))
        candidate, moved = free + damping[:, None] * step[:, :count], x + damping * step[:, count]
        # A step that is not finite, leaves the box, or leaves x where it is
        # though the iterate is not centred: the Newton system has lost its precision.
        lost = ~(np.isfinite(step).all(axis=-1) & (np.abs(candidate) < 1.0).all(axis=-1)) | ((moved == x) & ~centred)
        stop = ~definite | (upper - lower <= tol) | lost
        free, x = candidate, moved
        s = np.where(centred, s * BARRIER_GROWTH, s)
        if iterate == budget:
            stop[:] = True
        if stop.any():
            done = rows[stop]
            results.lower[done], results.upper[done], results.iterations[done] = lower[stop], upper[stop], iterate
            results.free[done], results.certificate[done] = best_free[stop], certificate[stop]
            keep = ~stop
            rows, f0, g, terms, x, free, s, lower, upper, best_free, certificate = (
                part[keep] for part in (rows, f0, g, terms, x, free, s, lower, upper, best_free, certificate))
    return Bracket(results.lower.reshape(shape)[()], results.upper.reshape(shape)[()],
                   results.free.reshape(shape + (count,)), results.certificate.reshape(shape + (size, size)),
                   results.iterations.reshape(shape)[()])


def _dual_bound(w: np.ndarray, f0: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """The upper end (Tr(W F0) + sum_i |Tr(W A_i)|) / -Tr(W G) proved by each row's W.

    ``traces`` (rows, k + 1) are the Tr(W B) for B of (A_1, ..., G); inf in a
    row where Tr(W G) < 0 fails, so that its W proves nothing.
    """
    certified = traces[:, -1] < 0.0
    bound = ((_traces(w, f0[:, None])[:, 0] + np.abs(traces[:, :-1]).sum(axis=-1))
             / np.where(certified, -traces[:, -1], 1.0))
    return np.where(certified, bound, np.inf)


def _face_certificate(vectors: np.ndarray, projected: np.ndarray) -> np.ndarray:
    """A unit-trace positive definite W on the face of the two smallest eigenvalues of S, one per row.

    An optimal W has W S = 0 at the optimum, where S of the north-pole
    problems has two zero eigenvalues, so near it W lives on their
    eigenvectors V2, the first two columns of ``vectors`` (rows, n, n).  With
    Y_j = V2^H B_j V2, sliced out of ``projected`` (rows, k + 1, n, n) for B
    of (A_1, ..., G), fits a Hermitian 2x2 X by least squares to Tr(X Y_i) = 0 and
    Tr(X Y_G) = -1, clips it to positive semidefinite and takes
    W = V2 X V2^H / Tr X.  A rank-2 W has computed eigenvalues of either sign
    at the rounding level, so W is mixed with a 1e-12 share of I / n: the mix
    is PSD (any convex mix of PSD certificates is a certificate), its
    computed eigenvalues stay positive and its bound moves by about 1e-12.
    A row whose fit is singular or whose clipped X is zero gets NaN.
    """
    y = projected[..., :2, :2]
    design = np.stack([y[..., 0, 0].real, y[..., 1, 1].real, 2 * y[..., 0, 1].real, 2 * y[..., 0, 1].imag], axis=-1)
    fit = _newton_solve(design.swapaxes(-2, -1) @ design, -design[:, -1])
    valid = np.isfinite(fit).all(axis=-1)
    a, b, re, im = _components(np.where(valid[:, None], fit, 0.0))
    values, turn = np.linalg.eigh(_stack_last([[a, re + 1j * im], [re - 1j * im, b]], 2))
    values = np.maximum(values, 0.0)
    weight = values.sum(axis=-1)
    valid &= weight > 0.0
    basis = vectors[..., :2] @ turn
    face = (basis * (values / np.where(valid, weight, 1.0)[:, None])[:, None, :]) @ basis.conj().swapaxes(-2, -1)
    size, share = vectors.shape[-1], 1e-12
    mixed = (1.0 - share) * face + (share / size) * np.eye(size)
    return np.where(valid[:, None, None], mixed, np.nan)


def _traces(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(W B) for every B of a stack b (..., k, n, n), with W (..., n, n); (..., k).

    A matmul of the flattened matrices: its sums for one row do not depend on
    how many rows the stack holds (einsum's do, in the last bit).
    """
    return (b.reshape(b.shape[:-2] + (-1,)) @ w.swapaxes(-2, -1).reshape(w.shape[:-2] + (-1, 1)))[..., 0].real


def _newton_solve(hessian: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    """Solutions of a stack of linear systems; NaN in a row whose system is singular in floating point."""
    try:
        return np.linalg.solve(hessian, gradient[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(gradient, np.nan)
        for row, (h, v) in enumerate(zip(hessian, gradient)):
            try:
                steps[row] = np.linalg.solve(h, v)
            except np.linalg.LinAlgError:
                pass
        return steps


def eigenvalue_bracket(etas, budget: int = DEFAULT_BUDGET) -> Bracket:
    """Bracket the largest minimum eigenvalue of the north-pole output over the seven free entries.

    The solve of minimize with G = -I from x = lambda_min(A0) - 1, to a gap of
    GAP_TOL.  Reduction factors (..., 2) give one solve of the stack, one row
    per pair.
    """
    eta1, eta2 = _validate_etas(etas)
    a0 = _up_matrix(eta1, eta2, np.zeros(np.shape(eta1) + (len(FREE_PARAMETERS),)))
    x0 = np.linalg.eigvalsh(a0)[..., 0] - 1.0
    return minimize(a0, UP_SLOPES, -np.eye(a0.shape[-1]), x0, budget, GAP_TOL)


def feasibility(etas, budget: int = DEFAULT_BUDGET) -> bool | None:
    """Decide whether some choice of the seven free entries makes the north-pole output PSD at one pair.

    The verdict read off eigenvalue_bracket(etas, budget): feasible (True) iff
    its lower end is at least -PSD_TOL, infeasible (False) iff its upper end is
    below -PSD_TOL, and None (undecided) where the bracket straddles -PSD_TOL
    (the budget ran out, or the optimum lies within the solver's resolution of
    it).  The numbers behind a verdict are the bracket's: ``lower``, attained
    by the witness constrain_tensor(bracket.free); ``upper``, proved by
    ``certificate``; and ``iterations``, one eigen-decomposition each.
    """
    if np.ndim(etas) > 1:
        raise ValueError(f"feasibility takes one pair (eta1, eta2), got shape {np.shape(etas)}; "
                         "eigenvalue_bracket takes a stack")
    bracket = eigenvalue_bracket(etas, budget)
    if bracket.lower >= -PSD_TOL:
        return True
    if bracket.upper < -PSD_TOL:
        return False
    return None


def radius_bracket(phi, radius_tol: float = DEFAULT_RADIUS_TOL, budget: int = DEFAULT_BUDGET) -> Bracket:
    """Bracket the largest feasible radius along each ray (r cos(phi), r sin(phi)), from one barrier solve.

    Along the ray the north-pole output is A00 + r B(phi) + sum_i f_i A_i, with
    B(phi) = cos(phi) E1 + sin(phi) E2: minimize with G = B(phi), from r = 0
    until the certified bracket is at most ``radius_tol`` wide (or precision
    runs out, which takes a ``radius_tol`` of 1e-12 or less).  Its lower end is
    attained by its free entries.  Directions (...) give one solve of the
    stack, each row stopping on its own.  The boundary is the unit circle.
    """
    phi = np.asarray(phi, dtype=float)
    _require((phi >= 0.0) & (phi <= np.pi / 2), phi, "direction must lie in [0, pi/2], got {}")
    direction = (np.cos(phi)[..., None, None] * ETA_SLOPES[0]
                 + np.sin(phi)[..., None, None] * ETA_SLOPES[1])
    return minimize(ORIGIN, UP_SLOPES, direction, 0.0, budget, radius_tol)


def max_radius(phi: float, radius_tol: float = DEFAULT_RADIUS_TOL, budget: int = DEFAULT_BUDGET) -> float:
    """Largest feasible radius along one ray (r cos(phi), r sin(phi)): the lower end of its radius_bracket."""
    if np.ndim(phi) > 0:
        raise ValueError(f"max_radius takes one direction, got shape {np.shape(phi)}; radius_bracket takes a stack")
    return float(radius_bracket(phi, radius_tol, budget).lower)
