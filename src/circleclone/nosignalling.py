"""Covariant two-clone outputs, the no-signalling constraint and the feasibility bound.

The two-clone output of a universal great-circle cloner is parametrized by the
pair of reduction factors (eta1, eta2) and a real 3x3 correlation tensor.
Requiring that antipodal input ensembles produce identical average outputs
forces t_xx = t_zz and t_xz = -t_zx, leaving seven free tensor entries.
Positivity of the north-pole output then bounds eta1^2 + eta2^2; a barrier
solve over the free entries, bracketing the best minimum eigenvalue between a
primal witness and a dual certificate, recovers the attainable boundary, the
unit circle in the (eta1, eta2) plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import kron
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
    t_zz = t_xx and t_zx = -t_xz.
    """
    free = np.asarray(free, dtype=float)
    if free.shape != (7,):
        raise ValueError(f"expected the {len(FREE_PARAMETERS)} free entries {FREE_PARAMETERS}, got shape {free.shape}")
    if np.any(np.abs(free) > 1 + 1e-12):
        raise ValueError("free correlation entries must lie in [-1, 1]")
    t_xx, t_xz, t_yy, t_xy, t_yx, t_yz, t_zy = free
    return np.array([
        [t_xx, t_xy, t_xz],
        [t_yx, t_yy, t_yz],
        [-t_xz, t_zy, t_xx],
    ])


def free_parameters(t: np.ndarray) -> np.ndarray:
    """Project a tensor onto the seven free entries (averaging the constrained pairs)."""
    t = np.asarray(t, dtype=float)
    return np.array([
        (t[0, 0] + t[2, 2]) / 2,
        (t[0, 2] - t[2, 0]) / 2,
        t[1, 1],
        t[0, 1],
        t[1, 0],
        t[1, 2],
        t[2, 1],
    ])


def _validate_etas(etas) -> tuple[float, float]:
    eta1, eta2 = float(etas[0]), float(etas[1])
    if not (0.0 <= eta1 <= 1.0 and 0.0 <= eta2 <= 1.0):
        raise ValueError(f"reduction factors must lie in [0, 1], got ({eta1}, {eta2})")
    return eta1, eta2


def build_joint_output(m, etas, t: np.ndarray) -> np.ndarray:
    """Two-qubit output with marginals eta1*m and eta2*m and correlation tensor ``t``.

    The input Bloch vector must be a unit vector on the x-z great circle.
    Hermiticity and unit trace are guaranteed; positivity is not.
    """
    m = np.asarray(m, dtype=float)
    if abs(m[1]) > GREAT_CIRCLE_ATOL:
        raise ValueError(f"off great circle: m_y = {m[1]:.3e}")
    if abs(np.linalg.norm(m) - 1.0) > 1e-9:
        raise ValueError(f"input Bloch vector must be a unit vector, got |m| = {np.linalg.norm(m):.12f}")
    eta1, eta2 = _validate_etas(etas)
    t = np.asarray(t, dtype=float)
    if t.shape != (3, 3):
        raise ValueError(f"correlation tensor must be 3x3, got shape {t.shape}")

    rho = np.eye(4, dtype=complex)
    rho += eta1 * np.tensordot(m, PAULI_LEFT, axes=1)
    rho += eta2 * np.tensordot(m, PAULI_RIGHT, axes=1)
    rho += np.tensordot(t, PAULI_PAIRS, axes=([0, 1], [0, 1]))
    return rho / 4


def rotate_correlations(t: np.ndarray, beta: float) -> np.ndarray:
    """Correlation tensor after rotating the input Bloch vector about y by ``beta``.

    The nine closed-form relations below make the output of build_joint_output
    covariant under simultaneous rotation of both clones (see
    covariance_residual, which verifies them against the unitary route).
    """
    t = np.asarray(t, dtype=float)
    c, s = np.cos(beta), np.sin(beta)
    t_xx, t_xy, t_xz = t[0]
    t_yx, t_yy, t_yz = t[1]
    t_zx, t_zy, t_zz = t[2]
    return np.array([
        [c * c * t_xx + s * s * t_zz + s * c * (t_xz + t_zx),
         c * t_xy + s * t_zy,
         s * c * (t_zz - t_xx) + c * c * t_xz - s * s * t_zx],
        [c * t_yx + s * t_yz,
         t_yy,
         -s * t_yx + c * t_yz],
        [s * c * (t_zz - t_xx) - s * s * t_xz + c * c * t_zx,
         -s * t_xy + c * t_zy,
         -s * c * (t_xz + t_zx) + c * c * t_zz + s * s * t_xx],
    ])


def covariance_residual(m, etas, t: np.ndarray, beta: float) -> float:
    """Entrywise gap between the rotated-parameter output and the unitarily rotated output."""
    direct = build_joint_output(rotate_bloch(m, beta), etas, rotate_correlations(t, beta))
    u2 = kron(rotation_unitary(beta), rotation_unitary(beta))
    conjugated = u2 @ build_joint_output(m, etas, t) @ u2.conj().T
    return float(np.max(np.abs(direct - conjugated)))


def no_signalling_residual(etas, t: np.ndarray) -> float:
    """Max-norm of [rho(up) + rho(down)] - [rho(right) + rho(left)].

    Vanishes exactly when t_xx = t_zz and t_xz = -t_zx; otherwise reports the
    magnitude by which the two antipodal ensembles could be told apart.
    """
    lhs = build_joint_output(UP, etas, t) + build_joint_output(DOWN, etas, rotate_correlations(t, np.pi))
    rhs = (build_joint_output(RIGHT, etas, rotate_correlations(t, np.pi / 2))
           + build_joint_output(LEFT, etas, rotate_correlations(t, 3 * np.pi / 2)))
    return float(np.max(np.abs(lhs - rhs)))


def _up_matrix(eta1: float, eta2: float, free: np.ndarray) -> np.ndarray:
    """North-pole output assembled entrywise from the seven free tensor entries."""
    t_xx, t_xz, t_yy, t_xy, t_yx, t_yz, t_zy = free
    return 0.25 * np.array([
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
    ])


def positivity_matrix_up(etas, t: np.ndarray) -> np.ndarray:
    """The explicit 4x4 north-pole output for a constrained tensor.

    Assembled entry by entry; identical (to machine precision) to
    ``build_joint_output(UP, etas, t)``, which serves as the cross-check.
    """
    eta1, eta2 = _validate_etas(etas)
    t = np.asarray(t, dtype=float)
    if abs(t[0, 0] - t[2, 2]) > CONSTRAINT_ATOL or abs(t[0, 2] + t[2, 0]) > CONSTRAINT_ATOL:
        raise ValueError("correlation tensor violates the no-signalling constraints t_xx = t_zz, t_xz = -t_zx")
    return _up_matrix(eta1, eta2, free_parameters(t))


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


# The north-pole output is affine in the free entries, A0 + sum_i f_i A_i; the
# slopes A_i do not depend on the reduction factors, which enter A0 alone.
UP_SLOPES = (np.array([_up_matrix(0.0, 0.0, unit) for unit in np.eye(len(FREE_PARAMETERS))])
             - _up_matrix(0.0, 0.0, np.zeros(len(FREE_PARAMETERS))))


def minimize(a0: np.ndarray, slopes: np.ndarray, budget: int, psd_tol: float):
    """Barrier (Newton) solve of  max t  s.t.  A0 + sum_i f_i A_i - t I >= 0,  |f_i| <= 1.

    Minimizes  -s t - log det S - sum_i log(1 - f_i^2),  S = A0 + sum_i f_i A_i - t I,
    by damped Newton steps from f = 0, multiplying s by BARRIER_GROWTH at every
    centred iterate.  Each iterate gives two bounds on the optimum: the lower
    bound lambda_min(A0 + sum_i f_i A_i), and the dual upper bound
    Tr(W A0) + sum_i |Tr(W A_i)| of the certificate W = S^-1 / Tr S^-1.  The
    upper bound holds because W is positive semidefinite with unit trace, so
    lambda_min(X) <= Tr(W X), and every |f_i| <= 1.  The solve stops once the
    best lower bound reaches -psd_tol, the best upper bound falls below
    -psd_tol, the gap closes below GAP_TOL (certified, or on the central path,
    where it is at most degree / s), or after ``budget`` iterates.

    Returns (free entries of the best iterate, its lambda_min, the best upper
    bound, its certificate W, iterates evaluated).
    """
    size, count = len(a0), len(slopes)
    degree = size + 2 * count  # self-concordance parameter of the barrier
    free = best_free = np.zeros(count)
    lower, upper, certificate = -np.inf, np.inf, None
    t = s = None
    for iterate in range(1, budget + 1):
        eigenvalues, vectors = np.linalg.eigh(a0 + np.tensordot(free, slopes, axes=1))
        if eigenvalues[0] > lower:
            lower, best_free = float(eigenvalues[0]), free
        if t is None:
            t = eigenvalues[0] - 1.0
        slack = eigenvalues - t
        if slack[0] <= 0.0:
            break  # rounding carried t past lambda_min; S is no longer positive definite
        inverse = 1.0 / slack
        total = inverse.sum()
        if s is None:
            s = total  # the start is centred in t
        w = (vectors * (inverse / total)) @ vectors.conj().T
        traces = np.einsum("ab,iba->i", w, slopes).real
        bound = float(np.einsum("ab,ba->", w, a0).real + np.abs(traces).sum())
        if bound < upper:
            upper, certificate = bound, w
        if lower >= -psd_tol or upper < -psd_tol or upper - lower < GAP_TOL or s * GAP_TOL > degree:
            break

        # Newton step in (f, t); Hessian blocks Tr(S^-1 B_j S^-1 B_k) in the eigenbasis of S.
        rotated = vectors.conj().T @ slopes @ vectors
        root = np.sqrt(inverse)
        blocks = np.concatenate([rotated, -np.eye(size)[None]]) * np.outer(root, root)
        flat = blocks.reshape(count + 1, -1)
        hessian = (flat @ flat.conj().T).real
        gradient = np.append(-total * traces, total - s)
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
        free, t = candidate, t + damping * step[count]
        if decrement < CENTRED_DECREMENT:
            s *= BARRIER_GROWTH
    return best_free, lower, upper, certificate, iterate


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

    Runs the barrier solve (see minimize); ``budget`` caps its iterates, one
    eigen-decomposition each.  A feasible verdict comes with a witness whose
    minimum eigenvalue is at least -psd_tol.  An infeasible verdict is
    certified by upper_bound < -psd_tol unless the optimum lies within the
    solver's resolution of -psd_tol, where the verdict rests on the best
    iterate alone.
    """
    eta1, eta2 = _validate_etas(etas)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    free, lower, upper, certificate, iterates = minimize(
        _up_matrix(eta1, eta2, np.zeros(len(FREE_PARAMETERS))), UP_SLOPES, budget, psd_tol)
    return FeasibilityReport(
        feasible=lower >= -psd_tol,
        best_min_eigenvalue=lower,
        witness=constrain_tensor(free),
        evaluations=iterates,
        upper_bound=upper,
        certificate=certificate,
    )


def max_radius(phi: float, radius_tol: float = DEFAULT_RADIUS_TOL, budget: int = DEFAULT_BUDGET,
               psd_tol: float = DEFAULT_PSD_TOL, max_iterations: int = 20, verdicts: list | None = None) -> float:
    """Largest feasible radius along the ray (r cos(phi), r sin(phi)) of the unit square.

    Bisects between a feasible radius and an infeasible one; the attainable
    boundary is the unit circle, so the result is 1 within ``radius_tol`` for
    every direction.  Every FeasibilityReport of the search is appended to
    ``verdicts`` when one is given.
    """
    if not (0.0 <= phi <= np.pi / 2):
        raise ValueError(f"direction must lie in [0, pi/2], got {phi}")
    cos_phi, sin_phi = float(np.cos(phi)), float(np.sin(phi))

    caps = [np.sqrt(2.0)]
    if cos_phi > 1e-12:
        caps.append(1.0 / cos_phi)
    if sin_phi > 1e-12:
        caps.append(1.0 / sin_phi)
    cap = min(caps)

    def is_feasible(radius: float) -> bool:
        etas = (min(radius * cos_phi, 1.0), min(radius * sin_phi, 1.0))
        report = feasibility(etas, budget=budget, psd_tol=psd_tol)
        if verdicts is not None:
            verdicts.append(report)
        return report.feasible

    if is_feasible(cap):
        return cap
    lo, hi = 0.0, cap
    for _ in range(max_iterations):
        if hi - lo <= radius_tol:
            break
        mid = 0.5 * (lo + hi)
        if is_feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
