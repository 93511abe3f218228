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

from .linalg import _components, _first_where, _stack_last, kron
from .pauli import PAULI_LEFT, PAULI_PAIRS, PAULI_RIGHT, rotate_bloch, rotation_unitary

GREAT_CIRCLE_ATOL = 1e-12
CONSTRAINT_ATOL = 1e-12
DEFAULT_PSD_TOL = 1e-9
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

    rho = np.eye(4, dtype=complex)
    rho = rho + eta1[..., None, None] * np.tensordot(m, PAULI_LEFT, axes=1)
    rho = rho + eta2[..., None, None] * np.tensordot(m, PAULI_RIGHT, axes=1)
    rho = rho + np.tensordot(t, PAULI_PAIRS, axes=([-2, -1], [0, 1]))
    return rho / 4


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


def bound_rhs(t: np.ndarray) -> float:
    """Upper bound on eta1^2 + eta2^2 implied by positivity: 1 - t_yy^2 - t_xy^2 - t_yx^2 - t_yz^2 - t_zy^2."""
    t = np.asarray(t, dtype=float)
    return float(1.0 - t[1, 1] ** 2 - t[0, 1] ** 2 - t[1, 0] ** 2 - t[1, 2] ** 2 - t[2, 1] ** 2)


def machine_witness_tensor(etas) -> np.ndarray:
    """Exact positivity witness for any point of the closed unit disk: diag(c, 0, c), c = eta1*eta2/r.

    With r = hypot(eta1, eta2), this is r times the correlation tensor of the
    cloning machine's north-pole output at (eta1/r, eta2/r) on the unit
    circle.  It describes the convex blend of that machine output with the
    maximally mixed state, hence is always realizable by a positive
    semidefinite output.
    """
    eta1, eta2 = _validate_etas(etas)
    radius = float(np.hypot(eta1, eta2))
    if radius > 1.0 + 1e-9:
        raise ValueError(f"no mixture witness outside the unit disk: radius {radius:.6f}")
    c = eta1 * eta2 / radius if radius > 0.0 else 0.0
    return np.diag([c, 0.0, c])


# The north-pole output is affine in the reduction factors and the free
# entries, A00 + eta1 E1 + eta2 E2 + sum_i f_i A_i, with A00 = I/4 and diagonal
# E1, E2; the slopes E1, E2 and A_i are constants.
ORIGIN = _up_matrix(0.0, 0.0, np.zeros(len(FREE_PARAMETERS)))
UP_SLOPES = np.array([_up_matrix(0.0, 0.0, unit) for unit in np.eye(len(FREE_PARAMETERS))]) - ORIGIN
ETA_SLOPES = np.array([_up_matrix(*unit, np.zeros(len(FREE_PARAMETERS))) for unit in np.eye(2)]) - ORIGIN


@dataclass(frozen=True)
class Bracket:
    """Outcome of one barrier solve (see minimize): lower <= optimum <= upper.

    ``lower`` is attained at the free entries ``free``; ``upper`` is proved
    by the positive semidefinite unit-trace ``certificate`` W.
    """

    lower: float
    upper: float
    free: np.ndarray
    certificate: np.ndarray | None
    iterations: int


def minimize(f0: np.ndarray, slopes: np.ndarray, g: np.ndarray, x0: float, budget: int, tol: float,
             target: float | None = None) -> Bracket:
    """Barrier (Newton) solve of  max x  s.t.  S = F0 + sum_i f_i A_i + x G >= 0,  |f_i| <= 1.

    Minimizes  -s x - log det S - sum_i log(1 - f_i^2)  by damped Newton steps
    from f = 0 and x = x0; s starts at Tr S^-1 (centred in x when G = -I) and
    grows by BARRIER_GROWTH at every centred iterate.  Each iterate brackets
    the optimum: below by the best x at its entries,
    x + 1 / lambda_max(-S^-1/2 G S^-1/2); above, when Tr(W G) < 0, by
    (Tr(W F0) + sum_i |Tr(W A_i)|) / -Tr(W G) for W = S^-1 / Tr S^-1, since W
    is positive semidefinite, Tr(W S) >= 0 at every feasible point and every
    |f_i| <= 1.  The solve stops once upper - lower <= tol (certified, or on
    the central path, where the gap is at most degree / s), once the bracket
    lies on one side of ``target`` when one is given, or after ``budget``
    iterates.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    size, count = len(f0), len(slopes)
    degree = size + 2 * count  # self-concordance parameter of the barrier
    terms = np.concatenate([slopes, g[None]])
    free = best_free = np.zeros(count)
    x, s = x0, None
    lower, upper, certificate = -np.inf, np.inf, None
    for iterate in range(1, budget + 1):
        slack, vectors = np.linalg.eigh(f0 + np.tensordot(free, slopes, axes=1) + x * g)
        if slack[0] <= 0.0:
            break  # rounding carried x past the boundary; S is no longer positive definite
        inverse = 1.0 / slack
        total = inverse.sum()
        if s is None:
            s = total
        # S^-1/2 B S^-1/2 for every B of (A_1, ..., G), in the eigenbasis of S.
        root = np.sqrt(inverse)
        blocks = (vectors.conj().T @ terms @ vectors) * np.outer(root, root)
        best_x = x + 1.0 / -np.linalg.eigvalsh(blocks[-1])[0]
        if best_x > lower:
            lower, best_free = float(best_x), free
        w = (vectors * (inverse / total)) @ vectors.conj().T
        traces = np.einsum("ab,iba->i", w, terms).real
        if traces[-1] < 0.0:
            bound = float((np.einsum("ab,ba->", w, f0).real + np.abs(traces[:-1]).sum()) / -traces[-1])
            if bound < upper:
                upper, certificate = bound, w
        if (upper - lower <= tol or s * tol > degree
                or target is not None and (lower >= target or upper < target)):
            break

        # Newton step in (f, x); Hessian blocks Tr(S^-1 B_j S^-1 B_k).
        flat = blocks.reshape(count + 1, -1)
        hessian = (flat @ flat.conj().T).real
        gradient = -total * traces
        gradient[count] -= s
        gradient[:count] += 2 * free / (1 - free**2)
        hessian[np.arange(count), np.arange(count)] += 2 * (1 + free**2) / (1 - free**2) ** 2
        try:
            step = -np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            break  # the Newton system is singular in floating point
        decrement = float(np.sqrt(max(-gradient @ step, 0.0)))
        damping = 1.0 if decrement < 0.25 else 1.0 / (1.0 + decrement)
        candidate = free + damping * step[:count]
        if not (np.all(np.isfinite(step)) and np.all(np.abs(candidate) < 1.0)):
            break  # the Newton system has lost its precision
        free, x = candidate, x + damping * step[count]
        if decrement < CENTRED_DECREMENT:
            s *= BARRIER_GROWTH
    return Bracket(lower, upper, best_free, certificate, iterate)


def eigenvalue_bracket(etas, budget: int = DEFAULT_BUDGET, target: float | None = None) -> Bracket:
    """Bracket the largest minimum eigenvalue of the north-pole output over the seven free entries.

    The solve of minimize with G = -I from x = lambda_min(A0) - 1, to a gap of
    GAP_TOL or, given a ``target``, until the bracket lies on one side of it.
    """
    eta1, eta2 = _validate_etas(etas)
    a0 = _up_matrix(eta1, eta2, np.zeros(len(FREE_PARAMETERS)))
    return minimize(a0, UP_SLOPES, -np.eye(len(a0)), np.linalg.eigvalsh(a0)[0] - 1.0, budget, GAP_TOL, target)


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


def feasibility(etas, budget: int = DEFAULT_BUDGET, psd_tol: float = DEFAULT_PSD_TOL) -> FeasibilityReport:
    """Decide whether some choice of the seven free entries makes the north-pole output PSD.

    Runs the barrier solve (see eigenvalue_bracket) with the target -psd_tol;
    ``budget`` caps its iterates, one eigen-decomposition each.  A feasible
    verdict comes with a witness whose minimum eigenvalue is at least
    -psd_tol.  An infeasible verdict is certified by upper_bound < -psd_tol
    unless the optimum lies within the solver's resolution of -psd_tol, where
    the verdict rests on the best iterate alone.
    """
    solve = eigenvalue_bracket(etas, budget, target=-psd_tol)
    return FeasibilityReport(
        feasible=solve.lower >= -psd_tol,
        best_min_eigenvalue=solve.lower,
        witness=constrain_tensor(solve.free),
        evaluations=solve.iterations,
        upper_bound=solve.upper,
        certificate=solve.certificate,
    )


def max_radius(phi: float, radius_tol: float = DEFAULT_RADIUS_TOL, budget: int = DEFAULT_BUDGET,
               brackets: list | None = None) -> float:
    """Largest feasible radius along the ray (r cos(phi), r sin(phi)), from one barrier solve.

    Along the ray the north-pole output is A00 + r B(phi) + sum_i f_i A_i, with
    B(phi) = cos(phi) E1 + sin(phi) E2: minimize with G = B(phi), from r = 0
    until the certified bracket is at most ``radius_tol`` wide.  Returns its
    lower end, attained by its free entries, and appends the Bracket to
    ``brackets`` when a list is given.  The boundary is the unit circle.
    """
    if not (0.0 <= phi <= np.pi / 2):
        raise ValueError(f"direction must lie in [0, pi/2], got {phi}")
    direction = np.cos(phi) * ETA_SLOPES[0] + np.sin(phi) * ETA_SLOPES[1]
    bracket = minimize(ORIGIN, UP_SLOPES, direction, 0.0, budget, radius_tol)
    if brackets is not None:
        brackets.append(bracket)
    return bracket.lower
