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

from .linalg import PSD_TOL, _components, _first_where, _stack_last, kron
from .pauli import PauliDecomposition, rotate_bloch, rotation_unitary

GREAT_CIRCLE_ATOL = 1e-12
CONSTRAINT_ATOL = 1e-12
DEFAULT_BUDGET = 5000
DEFAULT_RADIUS_TOL = 1e-3
GAP_TOL = 1e-10
# Barrier schedule: s grows by this factor at every iterate whose Newton
# decrement is below CENTRED_DECREMENT.
BARRIER_GROWTH = 10.0
CENTRED_DECREMENT = 0.5

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
    if (np.abs(free) > 1 + 1e-12).any():
        raise ValueError("free correlation entries must lie in [-1, 1]")
    t_xx, t_xz, t_yy, t_xy, t_yx, t_yz, t_zy = _components(free)
    return _stack_last([
        [t_xx, t_xy, t_xz],
        [t_yx, t_yy, t_yz],
        [-t_xz, t_zy, t_xx],
    ], 2)


def free_parameters(t: np.ndarray) -> np.ndarray:
    """Project a tensor onto the seven free entries (averaging the constrained pairs); (..., 3, 3) gives (..., 7)."""
    t = np.asarray(t, dtype=float)
    t_xx, t_xy, t_xz, t_yx, t_yy, t_yz, t_zx, t_zy, t_zz = _components(t.reshape(t.shape[:-2] + (9,)))
    return _stack_last([(t_xx + t_zz) / 2, (t_xz - t_zx) / 2, t_yy, t_xy, t_yx, t_yz, t_zy], 1)


def _validate_etas(etas) -> tuple[np.ndarray, np.ndarray]:
    """(eta1, eta2) of reduction factors (..., 2), rejected if any pair leaves [0, 1]."""
    etas = np.asarray(etas, dtype=float)
    if etas.ndim < 1 or etas.shape[-1] != 2:
        raise ValueError(f"expected reduction factors (eta1, eta2), got shape {etas.shape}")
    inside = (etas >= 0.0) & (etas <= 1.0)
    if not inside.all():
        eta1, eta2 = _first_where(~inside.all(axis=-1), etas)
        raise ValueError(f"reduction factors must lie in [0, 1], got ({eta1}, {eta2})")
    return tuple(_components(etas))


def build_joint_output(m, etas, t: np.ndarray) -> np.ndarray:
    """Two-qubit output with marginals eta1*m and eta2*m and correlation tensor ``t``.

    The input Bloch vector must be a unit vector on the x-z great circle.
    Hermiticity and unit trace are guaranteed; positivity is not.  Vectors
    (..., 3), reduction factors (..., 2) and tensors (..., 3, 3) broadcast to
    one (..., 4, 4) output per entry.
    """
    m = np.asarray(m, dtype=float)
    off_circle = np.abs(m[..., 1]) > GREAT_CIRCLE_ATOL
    if off_circle.any():
        raise ValueError(f"off great circle: m_y = {_first_where(off_circle, m[..., 1]):.3e}")
    norms = np.linalg.norm(m, axis=-1)
    not_unit = np.abs(norms - 1.0) > 1e-9
    if not_unit.any():
        raise ValueError(f"input Bloch vector must be a unit vector, got |m| = {_first_where(not_unit, norms):.12f}")
    eta1, eta2 = _validate_etas(etas)
    t = np.asarray(t, dtype=float)
    if t.shape[-2:] != (3, 3):
        raise ValueError(f"correlation tensor must be 3x3, got shape {t.shape}")
    return PauliDecomposition(eta1[..., None] * m, eta2[..., None] * m, t).reconstruct()


def rotate_correlations(t: np.ndarray, beta) -> np.ndarray:
    """Correlation tensor after rotating the input Bloch vector about y by ``beta``.

    The nine closed-form relations below make the output of build_joint_output
    covariant under simultaneous rotation of both clones (see
    covariance_residual, which verifies them against the unitary route).
    Tensors (..., 3, 3) and angles (...) broadcast to one tensor per entry.
    """
    t = np.asarray(t, dtype=float)
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
    t = np.asarray(t, dtype=float)
    violated = ((np.abs(t[..., 0, 0] - t[..., 2, 2]) > CONSTRAINT_ATOL)
                | (np.abs(t[..., 0, 2] + t[..., 2, 0]) > CONSTRAINT_ATOL))
    if violated.any():
        raise ValueError("correlation tensor violates the no-signalling constraints t_xx = t_zz, t_xz = -t_zx")
    free = free_parameters(t)
    shape = np.broadcast_shapes(np.shape(eta1), free.shape[:-1])
    return _up_matrix(eta1, eta2, np.broadcast_to(free, shape + free.shape[-1:]))


def bound_rhs(t: np.ndarray):
    """Upper bound on eta1^2 + eta2^2 implied by positivity: 1 - t_yy^2 - t_xy^2 - t_yx^2 - t_yz^2 - t_zy^2.

    A (..., 3, 3) stack of tensors gives one bound per tensor.
    """
    t = np.asarray(t, dtype=float)
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
    outside = radius > 1.0 + 1e-9
    if np.any(outside):
        raise ValueError(f"no mixture witness outside the unit disk: radius {float(_first_where(outside, radius)):.6f}")
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
    grows by BARRIER_GROWTH at every centred iterate.  Each iterate brackets
    the optimum: below by the best x at its entries,
    x + 1 / lambda_max(-S^-1/2 G S^-1/2); above, when Tr(W G) < 0, by
    (Tr(W F0) + sum_i |Tr(W A_i)|) / -Tr(W G) for W = S^-1 / Tr S^-1, since W
    is positive semidefinite, Tr(W S) >= 0 at every feasible point and every
    |f_i| <= 1.  The solve stops once upper - lower <= tol (certified, or on
    the central path, where the gap is at most degree / s) or after ``budget``
    iterates; it also stops where S is no longer positive definite or the
    Newton step is singular, not finite or leaves the box.  ``tol`` must be
    positive and finite.

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
    degree = size + 2 * count  # self-concordance parameter of the barrier
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
        # S^-1/2 B S^-1/2 for every B of (A_1, ..., G), in the eigenbasis of S.
        root = np.sqrt(inverse)
        adjoint = vectors.conj().swapaxes(-2, -1)
        blocks = (adjoint[:, None] @ terms @ vectors[:, None]) * (root[:, :, None] * root[:, None, :])[:, None]
        best_x = x + 1.0 / -np.linalg.eigvalsh(blocks[:, -1])[:, 0]
        better = definite & (best_x > lower)
        lower = np.where(better, best_x, lower)
        best_free = np.where(better[:, None], free, best_free)
        w = (vectors * (inverse / total[:, None])[:, None, :]) @ adjoint
        traces = _traces(w, terms)
        certified = definite & (traces[:, -1] < 0.0)
        bound = ((_traces(w, f0[:, None])[:, 0] + np.abs(traces[:, :-1]).sum(axis=-1))
                 / np.where(certified, -traces[:, -1], 1.0))
        better = certified & (bound < upper)
        upper = np.where(better, bound, upper)
        certificate = np.where(better[:, None, None], w, certificate)
        stop = ~definite | (upper - lower <= tol) | (s * tol > degree)

        # Newton step in (f, x); Hessian blocks Tr(S^-1 B_j S^-1 B_k).
        flat = blocks.reshape(len(rows), count + 1, -1)
        hessian = (flat @ flat.conj().swapaxes(-2, -1)).real
        gradient = -total[:, None] * traces
        gradient[:, count] -= s
        gradient[:, :count] += 2 * free / (1 - free**2)
        hessian[:, diagonal, diagonal] += 2 * (1 + free**2) / (1 - free**2) ** 2
        step = -_newton_solve(hessian, gradient)
        decrement = np.sqrt(np.maximum(-np.einsum("li,li->l", gradient, step), 0.0))
        damping = np.where(decrement < 0.25, 1.0, 1.0 / (1.0 + decrement))
        candidate = free + damping[:, None] * step[:, :count]
        # A step that is not finite or leaves the box: the Newton system has lost its precision.
        stop |= ~(np.isfinite(step).all(axis=-1) & (np.abs(candidate) < 1.0).all(axis=-1))
        free, x = candidate, x + damping * step[:, count]
        s = np.where(decrement < CENTRED_DECREMENT, s * BARRIER_GROWTH, s)
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


def _traces(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(W B) for every B of a stack b (..., k, n, n), with W (..., n, n); (..., k).

    A matmul of the flattened matrices: its sums for one row do not depend on
    how many rows the stack holds (einsum's do, in the last bit).
    """
    return (b.reshape(b.shape[:-2] + (-1,)) @ w.swapaxes(-2, -1).reshape(w.shape[:-2] + (-1, 1)))[..., 0].real


def _newton_solve(hessian: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    """Solutions of a stack of Newton systems; NaN in a row whose system is singular in floating point."""
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


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the positivity solve at fixed reduction factors.

    ``best_min_eigenvalue``, attained by ``witness``, and ``upper_bound``,
    proved by the positive semidefinite unit-trace ``certificate`` W (see
    minimize), bracket the largest minimum eigenvalue of the north-pole
    output over the seven free entries.
    """

    feasible: bool
    best_min_eigenvalue: float
    witness: np.ndarray
    evaluations: int
    upper_bound: float
    certificate: np.ndarray


def feasibility(etas, budget: int = DEFAULT_BUDGET) -> FeasibilityReport:
    """Decide whether some choice of the seven free entries makes the north-pole output PSD.

    Reads the verdict off the barrier solve to the gap (see
    eigenvalue_bracket); ``budget`` caps its iterates, one eigen-decomposition
    each.  Feasible iff the lower end is at least -PSD_TOL, with a witness
    that attains it.  An infeasible verdict is certified by
    upper_bound < -PSD_TOL unless the optimum lies within the solver's
    resolution of -PSD_TOL, where the verdict rests on the best iterate alone.
    """
    solve = eigenvalue_bracket(etas, budget)
    return FeasibilityReport(
        feasible=bool(solve.lower >= -PSD_TOL),
        best_min_eigenvalue=float(solve.lower),
        witness=constrain_tensor(solve.free),
        evaluations=int(solve.iterations),
        upper_bound=float(solve.upper),
        certificate=solve.certificate,
    )


def radius_bracket(phi, radius_tol: float = DEFAULT_RADIUS_TOL, budget: int = DEFAULT_BUDGET) -> Bracket:
    """Bracket the largest feasible radius along each ray (r cos(phi), r sin(phi)), from one barrier solve.

    Along the ray the north-pole output is A00 + r B(phi) + sum_i f_i A_i, with
    B(phi) = cos(phi) E1 + sin(phi) E2: minimize with G = B(phi), from r = 0
    until the certified bracket is at most ``radius_tol`` wide, or until the
    barrier weight s exceeds degree / ``radius_tol`` (degree / s bounds the
    gap on the central path, not the certified bracket, which may then be a
    few times wider than ``radius_tol``).  Its lower end is attained by its
    free entries.  Directions (...) give one solve of the stack, each row
    stopping on its own.  The boundary is the unit circle.
    """
    phi = np.asarray(phi, dtype=float)
    outside = ~((phi >= 0.0) & (phi <= np.pi / 2))
    if outside.any():
        raise ValueError(f"direction must lie in [0, pi/2], got {_first_where(outside, phi)}")
    direction = (np.cos(phi)[..., None, None] * ETA_SLOPES[0]
                 + np.sin(phi)[..., None, None] * ETA_SLOPES[1])
    return minimize(ORIGIN, UP_SLOPES, direction, 0.0, budget, radius_tol)


def max_radius(phi: float, radius_tol: float = DEFAULT_RADIUS_TOL, budget: int = DEFAULT_BUDGET) -> float:
    """Largest feasible radius along one ray (r cos(phi), r sin(phi)): the lower end of its radius_bracket."""
    return float(radius_bracket(float(phi), radius_tol, budget).lower)
