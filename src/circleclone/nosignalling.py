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

from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import _umath_linalg

from .linalg import PSD_TOL, _components, _require, _shaped, _stack_last
from .pauli import PauliDecomposition, _angles, _rotate_pair, _turn, _validate_etas, rotate_bloch

GREAT_CIRCLE_ATOL = 1e-12
CONSTRAINT_ATOL = 1e-12
DEFAULT_BUDGET = 5000
DEFAULT_RADIUS_TOL = 1e-3
GAP_TOL = 1e-10
# Barrier schedule: s grows by this factor at every iterate whose Newton
# decrement is below CENTRED_DECREMENT.
BARRIER_GROWTH = 300.0
CENTRED_DECREMENT = 1.0
# The largest share of I / n mixed into a face certificate (see _face_certificate):
# minimize sizes this floor from its tolerance.
_FLOOR_SHARE = 1e-12

# Order of the free correlation-tensor entries once the no-signalling
# constraints t_zz = t_xx and t_zx = -t_xz are imposed.
FREE_PARAMETERS = ("t_xx", "t_xz", "t_yy", "t_xy", "t_yx", "t_yz", "t_zy")

UP = np.array([0.0, 0.0, 1.0])
DOWN = np.array([0.0, 0.0, -1.0])
RIGHT = np.array([1.0, 0.0, 0.0])
LEFT = np.array([-1.0, 0.0, 0.0])
# The four cardinal inputs of no_signalling_residual, and the turns that carry UP to DOWN, RIGHT and LEFT.
_CARDINALS = np.stack([UP, DOWN, RIGHT, LEFT])
_CARDINAL_TURNS = np.array([np.pi, np.pi / 2, 3 * np.pi / 2])


def constrain_tensor(free) -> np.ndarray:
    """Correlation tensor built from the seven free entries (see FREE_PARAMETERS).

    The returned 3x3 tensor satisfies the no-signalling equalities exactly:
    t_zz = t_xx and t_zx = -t_xz.  Leading axes of ``free`` (..., 7) are
    batch axes: the result is (..., 3, 3).
    """
    free = _shaped(free, (len(FREE_PARAMETERS),), f"the free entries {FREE_PARAMETERS}")
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


def build_joint_output(m, etas, t: np.ndarray) -> np.ndarray:
    """Two-qubit output with marginals eta1*m and eta2*m and correlation tensor ``t``.

    The input Bloch vector must be a unit vector on the x-z great circle.
    Hermiticity and unit trace are guaranteed; positivity is not.  Vectors
    (..., 3), reduction factors (..., 2) and tensors (..., 3, 3) broadcast to
    one (..., 4, 4) output per entry.
    """
    m = _shaped(m, (3,), "a Bloch vector")
    _require(np.abs(m[..., 1]) <= GREAT_CIRCLE_ATOL, m[..., 1], "off great circle: m_y = {:.3e}")
    norms = np.linalg.norm(m, axis=-1)
    _require(np.abs(norms - 1.0) <= 1e-9, norms, "input Bloch vector must be a unit vector, got |m| = {:.12f}")
    eta1, eta2 = _validate_etas(etas)
    return PauliDecomposition(eta1[..., None] * m, eta2[..., None] * m, _correlation_tensor(t)).reconstruct()


def _correlation_tensor(t) -> np.ndarray:
    """``t`` as a real (..., 3, 3) stack of correlation tensors, rejected if any entry is not finite."""
    t = _shaped(t, (3, 3), "a correlation tensor")
    _require(np.isfinite(t).all(axis=(-2, -1)), t, "correlation tensor entries must be finite")
    return t


def rotate_correlations(t: np.ndarray, beta) -> np.ndarray:
    """Correlation tensor R t R^T, R the y rotation of rotate_bloch: the x and z columns turned, then the x and z rows.

    covariance_residual checks it against the unitary route.  Tensors
    (..., 3, 3) and angles (...) broadcast to one tensor per entry, elementwise.
    """
    t = _correlation_tensor(t)
    beta = _angles(beta)[..., None]
    c, s = np.cos(beta), np.sin(beta)
    for _ in range(2):  # each pass turns the columns and transposes: (t R^T)^T = R t^T, then R t R^T
        x, z = _turn(t[..., 0], t[..., 2], c, s)
        t = np.stack([x, np.broadcast_to(t[..., 1], x.shape), z], axis=-2)
    return t


def covariance_residual(m, etas, t: np.ndarray, beta):
    """Entrywise gap between the rotated-parameter output and the unitarily rotated output.

    Arguments broadcast as in build_joint_output, with angles (...); one gap per entry.
    """
    direct = build_joint_output(rotate_bloch(m, beta), etas, rotate_correlations(t, beta))
    return np.max(np.abs(direct - _rotate_pair(build_joint_output(m, etas, t), beta)), axis=(-2, -1))


def no_signalling_residual(etas, t: np.ndarray):
    """Max-norm of [rho(up) + rho(down)] - [rho(right) + rho(left)].

    Vanishes exactly when t_xx = t_zz and t_xz = -t_zx; otherwise reports the
    magnitude by which the two antipodal ensembles could be told apart.
    Reduction factors (..., 2) and tensors (..., 3, 3) give one residual per
    entry.  The down, right and left tensors are turned in one call and the
    four outputs built in one, along a new axis before the matrix axes.
    """
    etas = _shaped(etas, (2,), "reduction factors (eta1, eta2)")[..., None, :]
    t = _correlation_tensor(t)[..., None, :, :]
    turned = rotate_correlations(t, _CARDINAL_TURNS)
    tensors = np.concatenate([np.broadcast_to(t, turned.shape[:-3] + (1, 3, 3)), turned], axis=-3)
    up, down, right, left = np.moveaxis(build_joint_output(_CARDINALS, etas, tensors), -3, 0)
    return np.max(np.abs((up + down) - (right + left)), axis=(-2, -1))


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
    t = _shaped(t, (3, 3), "a correlation tensor")  # the shape first; a NaN entry then fails the constraint check
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
# E1, E2; the slopes E1, E2 and A_i are constants.  ORIGIN (A00), E1 and E2 are
# float64; UP_SLOPES, the full seven-entry problem, stays complex.
ORIGIN = _up_matrix(0.0, 0.0, np.zeros(len(FREE_PARAMETERS))).real
UP_SLOPES = np.array([_up_matrix(0.0, 0.0, unit) for unit in np.eye(len(FREE_PARAMETERS))]) - ORIGIN
ETA_SLOPES = np.array([_up_matrix(*unit, np.zeros(len(FREE_PARAMETERS))) for unit in np.eye(2)]).real - ORIGIN

# A00, E1, E2 and the slopes of t_xx, t_xz and t_yy are real; those of t_xy,
# t_yx, t_yz and t_zy are purely imaginary.  Complex conjugation maps S(f) to
# S(f'), f' being f with those four entries negated, so S(f) and S(f') are
# PSD together, and the mean of f and f', with the four entries zero, is as
# good as f.  Conjugation by Z (x) Z = diag(1, -1, -1, 1) likewise negates
# t_xz, t_yz and t_zy: their entries lie between {|00>, |11>} and {|01>, |10>},
# where it flips signs, and all others within, where it keeps them.  With the
# five entries zero, S is real and X-shaped: the brackets solve its two 2x2
# blocks, M[_BLOCKS] (..., 2, 2, 2) of M (..., 4, 4), over t_xx and t_yy, and
# report the five others as exact zeros.  A real X-shaped W has Tr(W A_i) = 0
# for the imaginary slopes and the off-block t_xz: it proves the bound over all seven.
REAL_PARAMETERS = [0, 2]
_PAIRS = np.array([[0, 3], [1, 2]])
_BLOCKS = (..., _PAIRS[:, :, None], _PAIRS[:, None, :])
REAL_SLOPES = UP_SLOPES[REAL_PARAMETERS].real[_BLOCKS]


@dataclass(frozen=True)
class Bracket:
    """Outcome of a stack of barrier solves (see minimize): lower <= optimum <= upper, row by row.

    ``lower`` is attained at the free entries ``free``; ``upper`` is proved
    by the positive semidefinite unit-trace ``certificate`` W, which is NaN
    in a row that certified no bound (there ``upper`` is inf); W is real
    symmetric (float64), as every problem minimize solves is real.  Fields take
    the batch shape: ``lower``, ``upper`` and ``iterations`` (...), ``free``
    (..., k), ``certificate`` (..., b, m, m), W's blocks; a single problem gives
    numpy scalars.  The brackets give ``free`` (..., 7) and W (..., 4, 4).
    """

    lower: np.ndarray
    upper: np.ndarray
    free: np.ndarray
    certificate: np.ndarray
    iterations: np.ndarray


def minimize(f0: np.ndarray, slopes: np.ndarray, g: np.ndarray, x0, budget: int, tol: float) -> Bracket:
    """Barrier (Newton) solve of  max x  s.t.  S = F0 + sum_i f_i A_i + x G >= 0,  |f_i| <= 1,  S block diagonal.

    Minimizes  -s x - log det S - sum_i log(1 - f_i^2)  by damped Newton steps
    from f = 0 and x = x0; s starts at Tr S^-1 (centred in x when G = -I) and
    grows by BARRIER_GROWTH at every centred iterate (Newton decrement below
    CENTRED_DECREMENT).  Each iterate brackets the optimum: below by the best x
    at its entries, x + 1 / lambda_max(-S^-1/2 G S^-1/2); above, when
    Tr(W G) < 0, by (Tr(W F0) + sum_i |Tr(W A_i)|) / -Tr(W G) for a positive
    semidefinite W, since Tr(W S) >= 0 at every feasible point and every
    |f_i| <= 1.  W is the face-reduced certificate of _face_certificate,
    mixed with a floor = min(_FLOOR_SHARE, max(tol / 100, 1e-15)) share of
    I / n; it stays accurate near the optimum, where S is nearly singular.
    It is fitted in every centred row, and in every definite row at the
    budget's last iterate, so a row the budget cuts off still ends with an
    upper end wherever that fit certifies one.
    The solve stops once the certified upper - lower <= tol, or after
    ``budget`` iterates; it also stops where precision runs out: a LAPACK
    step fails in a row (NaN), S is no longer positive definite, or the
    Newton step is not finite, leaves the box, or leaves x where it is at an
    iterate that is not centred.  ``tol`` must be positive and finite.

    Every matrix is block diagonal, given as its b diagonal m x m blocks.  A
    stack of problems F0 (..., b, m, m), G (..., b, m, m) and x0 (...), which
    broadcast to one batch shape, shares the slopes A_i (k, b, m, m) and runs
    in lockstep: every iterate makes one eigen-decomposition of all the blocks
    of S, one _project of all the terms, whence every trace the gradient and
    the face fit use, one eigen-decomposition of all the S^-1/2 G S^-1/2 and
    one solve of all the Newton systems, and one that fits a face also a
    b x b solve for each of its rows.  Each row stops on its own by the
    rules above and leaves the stack, and each row of the result is bit for
    bit the solve of its problem alone.  The problem is real: F0, the A_i and
    G are real symmetric, and complex or non-finite input is rejected.
    """
    _require(isinstance(budget, (int, np.integer)) and not isinstance(budget, bool) and budget >= 1, budget,
             "budget must be a positive integer, got {}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if any(np.iscomplexobj(part) or not np.isfinite(part).all() for part in (f0, slopes, g, x0)):
        raise ValueError("minimize solves real problems only: F0, the slopes, G and x0 must be real and finite")
    f0, slopes, g, x0 = (np.asarray(part, dtype=float) for part in (f0, slopes, g, x0))
    shape = np.broadcast_shapes(f0.shape[:-3], g.shape[:-3], x0.shape)
    layout, count = slopes.shape[1:], len(slopes)
    problems = int(np.prod(shape))
    # The live stack: one row per problem still iterating; `rows` are their
    # positions in the results, written as each row stops.
    rows = np.arange(problems)
    terms = np.empty(shape + (count + 2,) + layout)  # (A_1, ..., A_k, G, F0) of every row
    terms[..., :count, :, :, :], terms[..., count, :, :, :], terms[..., -1, :, :, :] = slopes, g, f0
    terms = terms.reshape((problems, count + 2) + layout)
    x = np.broadcast_to(x0, shape).reshape(problems)
    free = best_free = np.zeros((problems, count))
    lower, upper = np.full(problems, -np.inf), np.full(problems, np.inf)
    certificate = np.full((problems,) + layout, np.nan)
    results = Bracket(lower.copy(), upper.copy(), best_free.copy(), certificate.copy(),
                      np.zeros(problems, dtype=int))
    # Per-solve constants: the slopes flattened for the step from f to S, the
    # Hessian's box entries as a stride along its flattened rows, and the
    # share of I / n in every certificate, which floors its eigenvalues at
    # floor / n.  The floor lifts an upper end by about itself: a hundredth of
    # the tolerance, but at least 1e-15, below which the mix is no longer
    # exactly PSD.
    flat_slopes, box_entries = slopes.reshape(count, -1), slice(None, count * (count + 2), count + 2)
    floor = min(_FLOOR_SHARE, max(tol / 100, 1e-15))
    for iterate in range(1, budget + 1):
        if not len(rows):
            break
        slack, vectors = _lapack(_umath_linalg.eigh_lo, terms[:, -1] + (free @ flat_slopes).reshape((-1,) + layout)
                                 + x[:, None, None, None] * terms[:, -2])
        # Where rounding carried x past the boundary, or LAPACK failed (NaN), S is not
        # positive definite: that row stops, and a stand-in slack keeps its arithmetic finite.
        definite = (slack[..., 0] > 0.0).all(axis=-1)
        indefinite = not definite.all()
        inverse = 1.0 / (np.where(definite[:, None, None], slack, 1.0) if indefinite else slack)
        if iterate == 1:
            s = inverse.sum(axis=(-2, -1))
        projected, blocks, traces = _project(vectors, inverse, terms)
        best_x = x + 1.0 / -_lapack(_umath_linalg.eigvalsh_lo, blocks[:, -2])[..., 0].min(axis=-1)
        better = definite & (best_x > lower)
        lower = np.where(better, best_x, lower)
        best_free = np.where(better[:, None], free, best_free)

        # Newton step in (f, x): gradient -Tr(S^-1 B), Hessian blocks Tr(S^-1 B_j S^-1 B_k), B of (A_1, ..., G).
        flat = blocks[:, :-1].reshape(len(rows), count + 1, -1)
        hessian = flat @ flat.swapaxes(-2, -1)
        gradient = -traces[:, :-1]
        gradient[:, count] -= s
        square = free**2
        gap = 1 - square
        gradient[:, :count] += 2 * free / gap
        hessian.reshape(len(rows), -1)[:, box_entries] += 2 * (1 + square) / gap**2
        step = -_newton_solve(hessian, gradient)
        decrement = np.sqrt(np.maximum(-np.einsum("li,li->l", gradient, step), 0.0))
        centred = definite & (decrement < CENTRED_DECREMENT)
        # The budget's last iterate fits a face in every definite row: a row cut off before it was centred
        # can still end with a certified upper end.
        facing = definite if iterate == budget else centred
        if facing.any():
            # Every row, as a view, where every row faces; else a copy of the facing ones.
            picked = slice(None) if facing.all() else facing
            face, face_traces = _face_certificate(vectors[picked], projected[picked], floor)
            bound = np.full(len(rows), np.inf)
            bound[picked] = _dual_bound(face_traces)
            better = bound < upper
            upper = np.where(better, bound, upper)
            certificate[better] = face[better[picked]]
            s = np.where(centred, s * BARRIER_GROWTH, s)  # every centred row faces
        damping = np.where(decrement < 0.25, 1.0, 1.0 / (1.0 + decrement))
        candidate, moved = free + damping[:, None] * step[:, :count], x + damping * step[:, count]
        # A step that is not finite, leaves the box, or leaves x where it is
        # though the iterate is not centred: the Newton system has lost its precision.
        lost = ~(np.isfinite(step).all(axis=-1) & (np.abs(candidate) < 1.0).all(axis=-1)) | ((moved == x) & ~centred)
        stop = ~definite | (upper - lower <= tol) | lost
        free, x = candidate, moved
        if iterate == budget:
            stop[:] = True
        if stop.any():
            done = rows[stop]
            results.lower[done], results.upper[done], results.iterations[done] = lower[stop], upper[stop], iterate
            results.free[done], results.certificate[done] = best_free[stop], certificate[stop]
            if stop.all():
                break
            keep = ~stop
            rows, terms, x, free, s, lower, upper, best_free, certificate = (
                part[keep] for part in (rows, terms, x, free, s, lower, upper, best_free, certificate))
    return Bracket(results.lower.reshape(shape)[()], results.upper.reshape(shape)[()],
                   results.free.reshape(shape + (count,)), results.certificate.reshape(shape + layout),
                   results.iterations.reshape(shape)[()])


def _project(vectors: np.ndarray, inverse: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, ...]:
    """V^T B V, S^-1/2 B S^-1/2 and Tr(S^-1 B) for B of terms (rows, t, b, m, m), S^-1 = V diag(inverse) V^T."""
    projected = vectors.swapaxes(-2, -1)[:, None] @ terms @ vectors[:, None]
    root = np.sqrt(inverse)
    blocks = projected * (root[..., :, None] * root[..., None, :])[:, None]
    return projected, blocks, blocks.trace(axis1=-2, axis2=-1).sum(axis=-1)


def _dual_bound(traces: np.ndarray) -> np.ndarray:
    """The upper end (Tr(W F0) + sum_i |Tr(W A_i)|) / -Tr(W G) proved by each row's positive semidefinite W.

    ``traces`` (rows, k + 2) are its Tr(W B) for B of (A_1, ..., A_k, G, F0), as _face_certificate returns
    them; W's scale cancels.  inf in a row where Tr(W G) < 0 fails, NaN included: its W proves nothing.
    """
    certified = traces[:, -2] < 0.0
    numerator = traces[:, -1] + np.abs(traces[:, :-2]).sum(axis=-1)
    if certified.all():
        return numerator / -traces[:, -2]
    return np.where(certified, numerator / np.where(certified, -traces[:, -2], 1.0), np.inf)


def _face_certificate(vectors: np.ndarray, projected: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """A unit-trace positive definite W = sum_b w_b u_b u_b^T, u_b the first eigenvector of block b of S, per row.

    An optimal W has W S = 0 at the optimum, where each block of S of the
    north-pole problems has a zero eigenvalue; near it W lives on the u_b, the
    first columns of ``vectors`` (rows, b, m, m).  The weights are fitted by
    least squares to Tr(W A_i) = 0 and Tr(W G) = -1, with Tr(u_b u_b^T B) the
    [0, 0] entries of ``projected`` (rows, k + 2, b, m, m), the V^T B V of
    _project, clipped to non-negative and scaled to sum to 1.  Such a W has
    computed eigenvalues of either sign at the rounding level, so it is mixed
    with a ``floor`` share of I / n, n = b m: the mix is PSD, its computed
    eigenvalues stay positive and its bound moves by about ``floor``.  Returns
    W and its Tr(W B) (rows, k + 2), read off the same ``projected`` as
    (1 - floor) sum_b w_b Tr(u_b u_b^T B) + (floor / n) Tr B.
    A row whose fit is singular or whose clipped weights are all zero gets NaN.
    """
    design = projected[..., 0, 0]  # (rows, k + 2, b)
    fit = design[:, :-1]
    weights = np.maximum(_newton_solve(fit.swapaxes(-2, -1) @ fit, -fit[:, -1]), 0.0)
    total = weights.sum(axis=-1)
    valid = total > 0.0  # a singular fit is NaN, and fails this too
    invalid = not valid.all()
    first = vectors[..., 0]
    outer = first[..., :, None] * first[..., None, :]
    weights /= (np.where(valid, total, 1.0) if invalid else total)[:, None]
    share = floor / (vectors.shape[-3] * vectors.shape[-1])
    mixed = (1.0 - floor) * (weights[..., None, None] * outer) + share * np.eye(vectors.shape[-1])
    traces = ((1.0 - floor) * (design * weights[:, None]).sum(axis=-1)
              + share * projected.trace(axis1=-2, axis2=-1).sum(axis=-1))
    if invalid:
        return np.where(valid[:, None, None, None], mixed, np.nan), np.where(valid[:, None], traces, np.nan)
    return mixed, traces


def _newton_solve(hessian: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    """Solutions of a stack of linear systems from one LAPACK call; NaN in each row singular in floating point."""
    return _lapack(_umath_linalg.solve, hessian, gradient[..., None])[..., 0]


def _lapack(kernel, *operands):
    """numpy's batched LAPACK gufunc ``kernel`` on ``operands``: a row whose call fails is NaN, with no warning."""
    with np.errstate(invalid="ignore"):
        return kernel(*operands)


def _full_problem(bracket: Bracket) -> Bracket:
    """A block solve over the REAL_PARAMETERS widened to all seven free entries and a 4x4 certificate.

    The five other entries and the certificate's entries off its blocks are exact zeros (NaN where it is NaN).
    """
    free = np.zeros(bracket.free.shape[:-1] + (len(FREE_PARAMETERS),))
    free[..., REAL_PARAMETERS] = bracket.free
    certified = ~np.isnan(bracket.certificate).any(axis=(-3, -2, -1))
    certificate = np.where(certified[..., None, None], np.zeros((4, 4)), np.nan)
    certificate[_BLOCKS] = bracket.certificate
    return replace(bracket, free=free, certificate=certificate)


def eigenvalue_bracket(etas, budget: int = DEFAULT_BUDGET) -> Bracket:
    """Bracket the largest minimum eigenvalue of the north-pole output over the seven free entries.

    The solve of minimize on the two blocks, over the REAL_SLOPES (see there),
    with G = -I from x = lambda_min(A0) - 1, to a gap of GAP_TOL.  Reduction
    factors (..., 2) give one solve of the stack, one row per pair.
    """
    eta1, eta2 = _validate_etas(etas)
    a0 = (ORIGIN + eta1[..., None, None] * ETA_SLOPES[0] + eta2[..., None, None] * ETA_SLOPES[1])[_BLOCKS]
    x0 = np.linalg.eigvalsh(a0)[..., 0].min(axis=-1) - 1.0
    return _full_problem(minimize(a0, REAL_SLOPES, -np.eye(2), x0, budget, GAP_TOL))


def feasibility(etas, budget: int = DEFAULT_BUDGET) -> bool | None:
    """Decide whether some choice of the seven free entries makes the north-pole output PSD at one pair.

    The verdict read off eigenvalue_bracket(etas, budget): feasible (True) iff
    its lower end is at least -PSD_TOL, infeasible (False) iff its upper end is
    below -PSD_TOL, and None (undecided) where the bracket straddles -PSD_TOL
    (the budget ran out, or the optimum lies within the solver's resolution of
    it).  The numbers behind a verdict are the bracket's: ``lower``, attained
    by the witness constrain_tensor(bracket.free); ``upper``, proved by
    ``certificate``; and ``iterations``, the barrier iterates of minimize.
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
    B(phi) = cos(phi) E1 + sin(phi) E2: minimize on the two blocks, over the
    REAL_SLOPES, with G = B(phi), from r = 0 until the certified bracket is at
    most ``radius_tol`` wide (or precision runs out, which takes a
    ``radius_tol`` of 1e-14 or less).  Its lower end is attained by its free
    entries.  Directions (...) give one solve of the stack, each row stopping
    on its own.  The boundary is the unit circle.
    """
    phi = np.asarray(phi, dtype=float)
    _require((phi >= 0.0) & (phi <= np.pi / 2), phi, "direction must lie in [0, pi/2], got {}")
    direction = (np.cos(phi)[..., None, None] * ETA_SLOPES[0]
                 + np.sin(phi)[..., None, None] * ETA_SLOPES[1])[_BLOCKS]
    return _full_problem(minimize(ORIGIN[_BLOCKS], REAL_SLOPES, direction, 0.0, budget, radius_tol))


def max_radius(phi: float, radius_tol: float = DEFAULT_RADIUS_TOL, budget: int = DEFAULT_BUDGET) -> float:
    """Largest feasible radius along one ray (r cos(phi), r sin(phi)): the lower end of its radius_bracket."""
    if np.ndim(phi) > 0:
        raise ValueError(f"max_radius takes one direction, got shape {np.shape(phi)}; radius_bracket takes a stack")
    return float(radius_bracket(phi, radius_tol, budget).lower)
