"""The asymmetric 1-to-2 cloning transformation for x-z great-circle qubits.

The transformation is a 2 -> 8 isometry on (original, blank, machine) with the
basis convention index = 4*o + 2*b + 1*M (original most significant).  On the
curve eta1^2 + eta2^2 = 1 both reduced clones are isotropic shrunk copies of
the input with reduction factors eta1 and eta2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _require, _shaped, hermitian_eigenvalues, partial_trace
from .pauli import _PAULI_READOUT, _real_readout, _rotate_pair, _validate_etas, great_circle_ket, pauli_decompose

ON_CIRCLE_ATOL = 1e-8


@dataclass(frozen=True)
class CloneCoefficients:
    """Amplitudes (a, b, c, d) of the cloning isometry for reduction factors (eta1, eta2).

    Each field has the batch shape of the reduction factors it was built from.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    d: float | np.ndarray
    eta1: float | np.ndarray
    eta2: float | np.ndarray


def coefficients(etas) -> CloneCoefficients:
    """Closed-form isometry amplitudes for reduction factors ``etas = (eta1, eta2)``.

    They satisfy a^2 + b^2 + c^2 + d^2 = 1, a*d = b*c and a >= b, c >= d >= 0.
    Leading axes of ``etas`` (..., 2) are batch axes; every field then has shape (...).
    """
    eta1, eta2 = _validate_etas(etas)
    a = 0.5 * np.sqrt((1 + eta1) * (1 + eta2))
    b = 0.5 * np.sqrt((1 + eta1) * (1 - eta2))
    c = 0.5 * np.sqrt((1 - eta1) * (1 + eta2))
    d = 0.5 * np.sqrt((1 - eta1) * (1 - eta2))
    return CloneCoefficients(a=a, b=b, c=c, d=d, eta1=eta1, eta2=eta2)


def _circle_coefficients(phi) -> CloneCoefficients:
    """The machine's amplitudes at (cos phi, sin phi), phi in [0, pi/2], exactly on the circle up to rounding.

    coefficients() of the rounded pair (cos phi, sin phi) sees a point off the
    circle by about 1e-16, and near either axis the machine's t_xx - t_zz
    amplifies that by 1 / (2 eta1 eta2): 1e-11 at phi = 2.3e-6.  With
    c = cos(phi / 2) and s = sin(phi / 2), 1 + cos phi = 2 c^2 and
    1 +- sin phi = (c +- s)^2, so the closed forms need no square root of a
    rounded sum.
    """
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    plus, minus = (c + s) / np.sqrt(2), (c - s) / np.sqrt(2)
    return CloneCoefficients(a=c * plus, b=c * minus, c=s * plus, d=s * minus,
                             eta1=np.cos(phi), eta2=np.sin(phi))


def _basis_images(coeffs: CloneCoefficients) -> np.ndarray:
    """The 8x2 isometry matrix: columns are the images of |0> and |1>; batched coefficients give (..., 8, 2).

    V takes the dtype of the amplitudes, at least float64: the machine's are
    real, so its V, output states and reduced clones are float64.
    """
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    v = np.zeros(np.shape(a) + (8, 2), dtype=np.result_type(a, b, c, d, float))
    # |0>_o -> (a|00> + d|11>)|0>_M + (b|01> + c|10>)|1>_M
    v[..., 0b000, 0] = a
    v[..., 0b110, 0] = d
    v[..., 0b011, 0] = b
    v[..., 0b101, 0] = c
    # |1>_o -> (a|11> + d|00>)|1>_M + (b|10> + c|01>)|0>_M
    v[..., 0b111, 1] = a
    v[..., 0b001, 1] = d
    v[..., 0b100, 1] = b
    v[..., 0b010, 1] = c
    return v


def clone(theta: float | np.ndarray, coeffs: CloneCoefficients) -> np.ndarray:
    """Normalized 8-component output state for the circle input at angle ``theta``.

    Angles (...) and batched coefficients broadcast to one output state per
    entry: shape (..., 8).
    """
    return (_basis_images(coeffs) @ great_circle_ket(theta)[..., None])[..., 0]


def isometry_check(coeffs: CloneCoefficients):
    """Max deviation of the Gram matrix of the two basis images from the 2x2 identity, per batch entry."""
    v = _basis_images(coeffs)
    gram = v.conj().swapaxes(-2, -1) @ v
    return np.max(np.abs(gram - np.eye(2)), axis=(-2, -1))


def _joint_output(state: np.ndarray) -> np.ndarray:
    """rho_ob = Tr_M |psi><psi| of output states (..., 8), (..., 4, 4), as one Gram product.

    With the state as a 4x2 matrix (rows (o, b), columns M), rho_ob = rows
    rows^dagger, so no 8x8 projector is formed.
    """
    rows = state.reshape(state.shape[:-1] + (4, 2))  # rows (o, b), columns M
    return rows @ rows.conj().swapaxes(-2, -1)


def reduced_clones(state: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho_o, rho_b, rho_ob) reduced from the rank-1 projector of an 8-dim output state.

    rho_ob is the Gram product of _joint_output; rho_o and rho_b are traced
    out of that 4x4 joint.  The clones keep the state's dtype (at least
    float64), so the machine's real states give real clones.  Leading axes
    are batch axes: states of shape (..., 8) give clones of shape
    (..., 2, 2), (..., 2, 2) and (..., 4, 4).
    """
    rho_ob = _joint_output(_shaped(state, (8,), "an output state", None))
    return partial_trace(rho_ob, 0, [2, 2]), partial_trace(rho_ob, 1, [2, 2]), rho_ob


def partial_transpose_second(rho: np.ndarray) -> np.ndarray:
    """Partial transpose of a two-qubit matrix on its second subsystem; a (..., 4, 4) stack transposes per entry."""
    rho = _shaped(rho, (4, 4), "a two-qubit matrix", None)
    batch = rho.shape[:-2]
    return rho.reshape(batch + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(batch + (4, 4))


def _isotropy_residual(x, y, z, sin, cos, s):
    """Max-norm residual of clones with Bloch vectors r = (x, y, z) from the isotropic form s|psi><psi| + (1 - s) I / 2.

    The inputs are the circle states m = (sin, 0, cos).  For a unit-trace
    clone the difference is (d . sigma) / 2 with d = r - s m, whose largest
    entry is max(|d_z|, |d_x + i d_y|) / 2.
    """
    d_x, d_z = x - s * sin, z - s * cos
    return np.sqrt(np.maximum(d_z * d_z, d_x * d_x + y * y)) / 2


@dataclass(frozen=True)
class CloneReport:
    """Diagnostics of one cloning run: shrinks, fidelities, correlations and separability.

    From a batched call every field is an array with the batch shape (see clone_report).
    """

    theta: float | np.ndarray
    eta1: float | np.ndarray
    eta2: float | np.ndarray
    on_circle: bool | np.ndarray
    shrink_o_z: float | np.ndarray
    shrink_o_x: float | np.ndarray
    shrink_b_z: float | np.ndarray
    shrink_b_x: float | np.ndarray
    fidelity_o: float | np.ndarray
    fidelity_b: float | np.ndarray
    isotropy_residual_o: float | np.ndarray
    isotropy_residual_b: float | np.ndarray
    correlation: np.ndarray
    ppt_min_eigenvalue: float | np.ndarray


def clone_report(theta: float | np.ndarray, coeffs: CloneCoefficients) -> CloneReport:
    """Run the machine with amplitudes ``coeffs`` at one input and extract every reported diagnostic.

    Every per-clone field is read off the clone's Bloch map r(theta) from
    _bloch_maps, the read-out isotropy_scan takes its supremum from.  Each
    clone's map is diagonal in x and z, so its z shrink is read at theta = 0
    and its x shrink at theta = pi/2.  At the requested input m the fitted
    shrink is r . m and the fidelity (1 + r . m) / 2 (_fidelities); the
    isotropy residual holds that shrink fixed across the requested and both
    cardinal inputs, so anisotropy is visible from any single run.  Only the
    joint output rho_ob is simulated, at the requested input, as the Gram
    product of _joint_output: ``correlation`` is its t_jk = Tr(rho_ob sigma_j
    (x) sigma_k), the ``t`` of pauli_decompose, and ``ppt_min_eigenvalue`` the
    minimum eigenvalue of its partial transpose (_ppt_min_eigenvalue),
    non-negative exactly when the output is separable.  The verify checks
    call the same read-outs; ``eta1`` and ``eta2`` are those of ``coeffs``.

    Angles (...) broadcast with batched amplitudes (...) to one report of
    arrays: every field takes the broadcast shape (``correlation`` adds two
    axes of 3).  A single input gives numpy scalars.
    """
    joint = _joint_output(clone(theta, coeffs))
    shape = joint.shape[:-2]
    theta = np.broadcast_to(np.asarray(theta, dtype=float), shape)
    maps = _bloch_maps(coeffs)
    fitted, fidelity = _fidelities(theta, maps)  # the shrink at the requested input, held at all three below
    # Axes (..., clone, input): the requested input, then the z (theta = 0) and x (theta = pi/2) probes.
    thetas = np.stack([theta, np.zeros(shape), np.full(shape, np.pi / 2)], axis=-1)[..., None, :]
    sin, cos = np.sin(thetas), np.cos(thetas)
    x, y, z = _bloch_vectors(sin, cos, maps)  # each (..., clone, input)
    residual = np.max(_isotropy_residual(x, y, z, sin, cos, fitted[..., None]), axis=-1)
    eta1, eta2 = (np.broadcast_to(eta, shape)[()] for eta in (coeffs.eta1, coeffs.eta2))

    return CloneReport(
        theta=theta[()],
        eta1=eta1,
        eta2=eta2,
        on_circle=np.abs(eta1**2 + eta2**2 - 1.0) <= ON_CIRCLE_ATOL,
        shrink_o_z=z[..., 0, 1][()],
        shrink_o_x=x[..., 0, 2][()],
        shrink_b_z=z[..., 1, 1][()],
        shrink_b_x=x[..., 1, 2][()],
        fidelity_o=fidelity[..., 0][()],
        fidelity_b=fidelity[..., 1][()],
        isotropy_residual_o=residual[..., 0][()],
        isotropy_residual_b=residual[..., 1][()],
        correlation=pauli_decompose(joint).t,
        ppt_min_eigenvalue=_ppt_min_eigenvalue(joint)[()],
    )


def _bloch_vectors(sin, cos, maps: np.ndarray) -> np.ndarray:
    """Each clone's Bloch vector r = r0 + cos rz + sin rx from maps (3, ..., clone, 3), as (x, y, z) components.

    ``sin`` and ``cos`` of the input angles broadcast against the clone axis.
    """
    r0, rz, rx = maps[..., None, :]
    return np.moveaxis(r0 + cos[..., None] * rz + sin[..., None] * rx, -1, 0)


def _fidelities(theta, maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each clone's fitted shrink s = r . m at the circle input m = (sin, 0, cos) of ``theta``, and its fidelity (1 + s) / 2.

    Angles (...) and maps (3, ..., clone, 3) from _bloch_maps give two
    (..., clone) arrays; no output state is simulated.
    """
    sin, cos = np.sin(theta)[..., None], np.cos(theta)[..., None]
    x, _, z = _bloch_vectors(sin[..., None], cos[..., None], maps)
    fitted = x[..., 0] * sin + z[..., 0] * cos
    return fitted, (1 + fitted) / 2


def _ppt_min_eigenvalue(joint: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of the partial transpose of joint outputs (..., 4, 4), (...): non-negative exactly when separable."""
    return hermitian_eigenvalues(partial_transpose_second(joint))[..., 0]


# Column 4s + k of _PAULI_READOUT reads sigma_s (x) sigma_k; the maps (r0, rz, rx) are half the coefficients
# of sigma_s (x) I, sigma_s (x) Z and sigma_s (x) X (_bloch_maps): column (map, s).
_MAP_READOUT = _PAULI_READOUT[:, [4 * s + k for k in (0, 3, 1) for s in (1, 2, 3)]] / 2


def _bloch_maps(coeffs: CloneCoefficients) -> np.ndarray:
    """Each clone's Bloch vector as an affine map of the input angle: (r0, rz, rx), shape (3, ..., clone, 3).

    A clone's reduced state is linear in the input, so it is fixed by the
    four operators C_ij = Tr_rest(V|i><j|V^dagger).  The input |psi><psi| =
    [I + cos(theta) Z + sin(theta) X] / 2 goes to the clone's Bloch vector
    r(theta) = r0 + cos(theta) rz + sin(theta) rx, with r0, rz and rx read out
    of (C00 + C11) / 2, (C00 - C11) / 2 and (C01 + C10) / 2.

    Every C_ij of a clone comes from one Gram product: with A[(x, i), rest] =
    <x, rest|V|i>, where x is the clone's qubit and rest the other two,
    (A A^dagger)[(x, i), (y, j)] = <x|C_ij|y>, an operator on clone (x) input
    whose sigma_s (x) I, sigma_s (x) Z and sigma_s (x) X coefficients are
    Tr(C_ij sigma_s) summed against I, Z and X: twice r0_s, rz_s and rx_s.
    So the nine components are nine columns of the one Pauli read-out, halved
    (_MAP_READOUT); no channel matrix or 8x8 operator is formed, and a real V
    keeps the arithmetic real.
    """
    v = _basis_images(coeffs)
    v = v.reshape(v.shape[:-2] + (2, 2, 2, 2))  # (..., o, b, M, i)
    # Both clones as (..., clone, x, other, M, i): x = o, other = b for the original, the reverse for the blank.
    a = np.moveaxis(np.stack([v, v.swapaxes(-4, -3)], axis=-5), -1, -3)  # (..., clone, x, i, other, M)
    a = a.reshape(a.shape[:-4] + (4, 4))
    gram = a @ a.conj().swapaxes(-2, -1)  # (..., clone, (x, i), (y, j))
    maps = _real_readout(gram, _MAP_READOUT)
    return np.moveaxis(maps.reshape(maps.shape[:-1] + (3, 3)), -2, 0)


def isotropy_scan(coeffs: CloneCoefficients):
    """Certified supremum over every circle input of either clone's isotropy residual, for amplitudes ``coeffs``.

    Batched amplitudes (...) give one value per machine, shape (...); a single
    machine gives a numpy scalar.  No output state or angle grid is formed:
    the supremum is read off each clone's Bloch map (_bloch_maps) in closed
    form (_isotropy_supremum).
    """
    return _isotropy_supremum(_bloch_maps(coeffs))


def _isotropy_supremum(maps: np.ndarray):
    """Supremum over the circle inputs of either clone's isotropy residual, from maps (3, ..., clone, 3).

    Each clone's Bloch map is r(theta) = r0 + cos(theta) rz + sin(theta) rx.
    With a = rz_z and b = rx_x, the diagonal part r = (b sin, 0, a cos) of the
    map leaves d = r - (r . m) m = (b - a) sin cos (cos, 0, -sin) off the input
    m = (sin, 0, cos), so its residual max(|d_z|, |d_x + i d_y|) / 2
    (_isotropy_residual) peaks at |b - a| / (3 sqrt 3), where tan^2 = 1/2.
    The rest of the map moves r by at most defect = |r0| + |rz - a z_hat| +
    |rx - b x_hat|; the residual is half of a norm no larger than the
    Euclidean one, taken of the projection d, so it moves by at most
    defect / 2.  The larger over the two clones of |b - a| / (3 sqrt 3) +
    defect / 2 thus bounds the residual at every angle.  For this machine the
    defect is 0, a = eta_i and b = sqrt(1 - eta_j^2) (j the other clone),
    which gives max_i |sqrt(1 - eta_j^2) - eta_i| / (3 sqrt 3), zero exactly
    on the circle.  Every step is elementwise per pair, so each row of a
    stack equals its single-pair call bit for bit.
    """
    r0, rz, rx = maps
    defect = (np.linalg.norm(r0, axis=-1) + np.linalg.norm(rz[..., :2], axis=-1)
              + np.linalg.norm(rx[..., 1:], axis=-1))
    return np.max(np.abs(rx[..., 0] - rz[..., 2]) / (3 * np.sqrt(3)) + defect / 2, axis=-1)[()]


def covariance_check_machine(coeffs: CloneCoefficients, theta, beta):
    """Max-norm deviation of rho_ob(theta + beta) from the y-rotated rho_ob(theta), for amplitudes ``coeffs``.

    Only defined on the optimal curve, where the machine output transforms
    covariantly under simultaneous rotation of both clones: a machine whose
    ``eta1`` and ``eta2`` leave the curve is rejected.  Batched amplitudes
    (...) and angles (...) broadcast to one deviation per entry.
    """
    eta1, eta2 = np.broadcast_arrays(coeffs.eta1, coeffs.eta2)
    _require(np.abs(eta1**2 + eta2**2 - 1.0) <= ON_CIRCLE_ATOL, np.stack([eta1, eta2], axis=-1),
             "({}, {}) is not on the curve eta1^2 + eta2^2 = 1")
    rotated = _rotate_pair(_joint_output(clone(theta, coeffs)), beta)
    return np.max(np.abs(_joint_output(clone(np.add(theta, beta), coeffs)) - rotated), axis=(-2, -1))
