"""Named invariant checks backing the ``verify`` command.

Each check is a module-level ``check_*`` function: defining one registers it,
and its name without the prefix is the name the suite reports.  Each check
measures a residual against a fixed threshold and reports it; the suite passes
only if every check passes.  The checks deliberately re-derive quantities
along independent routes (explicit index sums, unitary conjugation, closed
forms) so that agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import cloner, linalg, nosignalling, pauli


@dataclass
class RunConfig:
    """Reproducibility knobs shared by the CLI commands."""

    seed: int = 0
    budget: int = nosignalling.DEFAULT_BUDGET
    samples: int = 0  # 0 = every check uses its own documented sample count

    def __post_init__(self) -> None:
        # The same rules as the CLI's argument types.
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (isinstance(self.budget, numbers.Integral) and self.budget > 0):
            raise ValueError(f"budget must be a positive integer, got {self.budget!r}")
        if not (isinstance(self.samples, numbers.Integral) and (self.samples == 0 or self.samples >= 2)):
            raise ValueError(f"samples must be 0 (per-check defaults) or an integer of at least 2, got {self.samples!r}")


@dataclass
class CheckResult:
    measured: float
    threshold: float
    direction: str = "<="  # pass iff measured <= threshold (or >= for lower bounds)
    name: str = ""  # the check function's name without "check_", set by run_verification
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        if self.direction == "<=":
            return self.measured <= self.threshold
        return self.measured >= self.threshold


def _count(config: RunConfig, default: int) -> int:
    return config.samples if config.samples > 0 else default


def reference_partial_trace(rho: np.ndarray, keep, dims) -> np.ndarray:
    """Brute-force partial trace: explicit double sum over the traced indices.

    Kept separate from linalg.partial_trace on purpose; the two routes share
    no code and are compared against each other by the oracle checks.
    Leading axes are batch axes: each index sum adds whole columns
    rho[..., row, col] of a (..., D, D) stack, so the loops run once per call.
    """
    rho = np.asarray(rho, dtype=complex)
    keep = sorted(int(k) for k in np.atleast_1d(keep))
    dims = [int(d) for d in dims]
    traced = [i for i in range(len(dims)) if i not in keep]

    def flat(kept_index, traced_index):
        index_by_subsystem = [0] * len(dims)
        for subsystem, index in zip(keep + traced, kept_index + traced_index):
            index_by_subsystem[subsystem] = index
        value = 0
        for i, d in enumerate(dims):
            value = value * d + index_by_subsystem[i]
        return value

    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    out = np.zeros(rho.shape[:-2] + (kept_dim, kept_dim), dtype=complex)
    traced_indices = list(itertools.product(*[range(dims[i]) for i in traced]))
    # itertools.product runs through the kept indices in C order, so its count is the flat index.
    # flats[k][i]: the flat index of kept index k joined with the i-th traced index.
    flats = [[flat(kept_index, traced_index) for traced_index in traced_indices]
             for kept_index in itertools.product(*[range(dims[k]) for k in keep])]
    for row_out, rows in enumerate(flats):
        for col_out, cols in enumerate(flats):
            total = 0.0 + 0.0j
            for row, col in zip(rows, cols):
                total += rho[..., row, col]
            out[..., row_out, col_out] = total
    return out


def _random_matrices(draws: np.ndarray, n: int) -> np.ndarray:
    """Complex n x n matrices from rows of 2 n^2 draws: the real parts, then the imaginary parts, row-major."""
    parts = draws.reshape(draws.shape[:-1] + (2, n, n))
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def _random_hermitian(draws: np.ndarray, n: int) -> np.ndarray:
    m = _random_matrices(draws, n)
    return (m + m.conj().swapaxes(-2, -1)) / 2


def _random_density(draws: np.ndarray, n: int) -> np.ndarray:
    m = _random_matrices(draws, n)
    rho = m @ m.conj().swapaxes(-2, -1)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


# Ranges of the sampled quantities, as (low, high) for _uniform.
UNIT = (0.0, 1.0)
ENTRY = (-1.0, 1.0)
ANGLE = (0.0, 2 * np.pi)
QUARTER = (0.0, np.pi / 2)


def _uniform(rng, n: int, *ranges) -> np.ndarray:
    """n rows of uniform draws, one column per (low, high) range, from one generator call.

    Row by row and column by column these are the doubles that n iterations of
    ``rng.uniform(low, high)``, one call per range in turn, would draw: each
    is ``low + (high - low) * u`` of one ``rng.random()`` double u, the
    arithmetic of ``Generator.uniform``, without its per-call cost of
    broadcasting vector bounds.
    """
    low, high = np.array(ranges, dtype=float).T
    return low + (high - low) * rng.random((n, len(ranges)))


def _circle_etas(phi) -> np.ndarray:
    """Reduction factors (cos phi, sin phi) on the optimal circle, stacked on the last axis."""
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


# ---------------------------------------------------------------------------
# Linear-algebra checks


def check_kron_associativity(config: RunConfig, rng) -> CheckResult:
    draws = rng.uniform(-1, 1, (_count(config, 50), 3, 2 * 2 * 2))
    a, b, c = np.moveaxis(_random_matrices(draws, 2), 1, 0)
    left = linalg.kron(linalg.kron(a, b), c)
    right = linalg.kron(a, linalg.kron(b, c))
    # The left factor owns the most significant index: a swapped order is associative too.
    order = np.abs(linalg.kron(pauli.SIGMA_Z, pauli.IDENTITY_2) - np.diag([1, 1, -1, -1]))
    return CheckResult(float(max(np.max(np.abs(left - right)), np.max(order))), 1e-14)


def check_eigenvalue_rotation_invariance(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), *[ENTRY] * 32, ANGLE, ANGLE)
    m = _random_hermitian(draws[:, :32], 4)
    u = linalg.kron(pauli.rotation_unitary(draws[:, 32]), pauli.rotation_unitary(draws[:, 33]))
    before = linalg.hermitian_eigenvalues(m)
    after = linalg.hermitian_eigenvalues(u @ m @ u.conj().swapaxes(-2, -1))
    return CheckResult(float(np.max(np.abs(before - after))), 1e-9)


def check_partial_trace_state_contract(config: RunConfig, rng) -> CheckResult:
    rho = _random_density(_uniform(rng, _count(config, 200), *[ENTRY] * 32), 4)
    reduced = np.stack([linalg.partial_trace(rho, keep, [2, 2]) for keep in (0, 1)])
    worst = max(np.max(linalg.hermiticity_defect(reduced)),
                np.max(np.abs(np.trace(reduced, axis1=-2, axis2=-1).real - 1.0)))
    return CheckResult(float(worst), 1e-12)


def check_oracle_partial_trace(config: RunConfig, rng) -> CheckResult:
    rho = _random_hermitian(_uniform(rng, _count(config, 100), *[ENTRY] * 128), 8)
    worst = max(np.max(np.abs(linalg.partial_trace(rho, keep, [2, 2, 2])
                              - reference_partial_trace(rho, keep, [2, 2, 2])))
                for keep in (0, 1, 2, (0, 1), (0, 2), (1, 2)))
    return CheckResult(float(worst), 1e-12)


# ---------------------------------------------------------------------------
# Bloch / Pauli checks


def check_bloch_conjugation_consistency(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), ENTRY, ENTRY, ENTRY, UNIT, ANGLE)
    m, length, beta = draws[:, :3], draws[:, 3], draws[:, 4]
    # Each norm by matmul, whose vector-by-vector case is the dot product that
    # np.linalg.norm takes for a single vector, so every row scales as one vector does.
    norms = np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0, 0])
    m = m * (length / np.maximum(norms, 1e-12))[:, None]
    u = pauli.rotation_unitary(beta)
    conjugated = pauli.density_to_bloch(u @ pauli.bloch_to_density(m) @ u.conj().swapaxes(-2, -1))
    worst = float(np.max(np.abs(conjugated - pauli.rotate_bloch(m, beta))))
    return CheckResult(worst, 1e-12)


def check_pauli_roundtrip(config: RunConfig, rng) -> CheckResult:
    m = _random_hermitian(_uniform(rng, _count(config, 200), *[ENTRY] * 32), 4)
    worst = float(np.max(np.abs(pauli.pauli_decompose(m).reconstruct() - m)))
    return CheckResult(worst, 1e-12)


def check_rotation_composition(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), ANGLE, ANGLE, ENTRY, ENTRY, ENTRY)
    b1, b2, m = draws[:, 0], draws[:, 1], draws[:, 2:]
    product = pauli.rotation_unitary(b1) @ pauli.rotation_unitary(b2)
    total = pauli.rotation_unitary(b1 + b2)
    # SU(2) covers SO(3) twice: the composed unitary may differ from the total one by a sign.
    unitary = np.minimum(np.max(np.abs(product - total), axis=(-2, -1)),
                         np.max(np.abs(product + total), axis=(-2, -1)))
    two_step = pauli.rotate_bloch(pauli.rotate_bloch(m, b1), b2)
    worst = max(np.max(unitary), np.max(np.abs(two_step - pauli.rotate_bloch(m, b1 + b2))))
    return CheckResult(float(worst), 1e-12)


# ---------------------------------------------------------------------------
# No-signalling bound checks


def check_covariance_relations(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 500), UNIT, UNIT, *[ENTRY] * 7, ANGLE, ANGLE)
    etas, t = draws[:, :2], nosignalling.constrain_tensor(draws[:, 2:9])
    theta, beta = draws[:, 9], draws[:, 10]
    residuals = nosignalling.covariance_residual(pauli.great_circle_bloch(theta), etas, t, beta)
    return CheckResult(float(np.max(residuals)), 1e-12)


def check_transcription_identity(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 500), UNIT, UNIT, *[ENTRY] * 7)
    etas, t = draws[:, :2], nosignalling.constrain_tensor(draws[:, 2:])
    explicit = nosignalling.positivity_matrix_up(etas, t)
    rebuilt = nosignalling.build_joint_output(nosignalling.UP, etas, t)
    return CheckResult(float(np.max(np.abs(explicit - rebuilt))), 1e-14)


def check_no_signalling_constraint(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), UNIT, UNIT, *[ENTRY] * 7)
    residuals = nosignalling.no_signalling_residual(draws[:, :2], nosignalling.constrain_tensor(draws[:, 2:]))
    return CheckResult(float(np.max(residuals)), 1e-12)


def check_no_signalling_violation(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), UNIT, UNIT, *[ENTRY] * 9)
    etas, t = draws[:, :2], draws[:, 2:].reshape(-1, 3, 3)
    # Keep t_xx and t_zz at least 0.01 apart, so every tensor signals.
    t_xx = t[:, 0, 0]
    close = np.abs(t_xx - t[:, 2, 2]) < 0.01
    t[:, 2, 2] = np.where(close, t_xx + np.where(t_xx <= 0.99, 0.01, -0.01), t[:, 2, 2])
    smallest = float(np.min(nosignalling.no_signalling_residual(etas, t)))
    return CheckResult(smallest, 1e-12, direction=">=")


def _soundness_attempts(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eta1^2 + eta2^2 - bound_rhs(t), whether the north-pole output is PSD) of each row of 10 uniform draws.

    Column 0 is a coin between the two samplers, columns 1-2 place the point
    and columns 3-9 give the seven free entries.  Each column is mapped as
    ``low + (high - low) * u``, the arithmetic of ``rng.uniform(low, high)``.
    """
    def scaled(columns, low, high):
        return low + (high - low) * columns

    # Just inside the circle, where the bound is tight, with the witness
    # perturbed in proportion to the distance from the circle.
    gap = 10 ** scaled(u[:, 1], -8, -1)
    near = (1 - gap)[:, None] * _circle_etas(scaled(u[:, 2], 0, np.pi / 2))
    witness = nosignalling.free_parameters(nosignalling.machine_witness_tensor(near))
    perturbed = np.clip(witness + gap[:, None] * scaled(u[:, 3:], -0.1, 0.1), -1, 1)
    # Or anywhere in a box well inside the disk.
    tight = u[:, :1] < 0.5
    etas = np.where(tight, near, scaled(u[:, 1:3], 0, 0.45))
    t = nosignalling.constrain_tensor(np.where(tight, perturbed, scaled(u[:, 3:], -0.3, 0.3)))
    lowest = linalg.hermitian_eigenvalues(nosignalling.positivity_matrix_up(etas, t))[:, 0]
    return etas[:, 0] ** 2 + etas[:, 1] ** 2 - nosignalling.bound_rhs(t), lowest >= -1e-10


def check_bound_soundness(config: RunConfig, rng) -> CheckResult:
    # A rejection sampler: attempts run until `target` are accepted, or give
    # up after `limit`.  Attempts are evaluated in blocks from one snapshot
    # of the generator, which is then left where the attempt-by-attempt loop
    # stops: just after the target-th accepted attempt.  About 91% of
    # attempts are accepted, so the first block is a quarter over the target;
    # each later one doubles.
    target = _count(config, 200)
    limit = 50 * target
    start = rng.bit_generator.state
    rows = target + target // 4
    while True:
        excess, accepted = _soundness_attempts(rng.random((rows, 10)))
        starved = np.count_nonzero(accepted) < target
        if not starved or rows == limit:
            break
        rng.bit_generator.state = start
        rows = min(2 * rows, limit)
    used = limit if starved else int(np.flatnonzero(accepted)[target - 1]) + 1
    rng.bit_generator.state = start
    rng.random((used, 10))
    # A starved sampler surfaces as a failure.
    worst = np.inf if starved else float(np.max(excess[:used][accepted[:used]]))
    return CheckResult(worst, 1e-8)


def check_correlation_rotation_group(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), *[ENTRY] * 9, ANGLE, ANGLE)
    t, b1, b2 = draws[:, :9].reshape(-1, 3, 3), draws[:, 9], draws[:, 10]
    two_step = nosignalling.rotate_correlations(nosignalling.rotate_correlations(t, b1), b2)
    one_step = nosignalling.rotate_correlations(t, b1 + b2)
    return CheckResult(float(np.max(np.abs(two_step - one_step))), 1e-12)


def check_on_circle_feasibility(config: RunConfig, rng) -> CheckResult:
    # Solved until the gap closes, with no decision target.  The on-circle
    # optimum is 0, so each bracket must hold it to within PSD_TOL at both
    # ends: the value is the worst of lower and -upper over the rows.
    etas = _circle_etas(np.array([0.0, np.pi / 4, np.pi / 3]))
    bracket = nosignalling.eigenvalue_bracket(etas, config.budget)
    worst = float(np.min(np.minimum(bracket.lower, -bracket.upper)))
    return CheckResult(worst, -linalg.PSD_TOL, direction=">=")


def check_circle_recovery(config: RunConfig, rng) -> CheckResult:
    phi = np.array([0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2])
    bracket = nosignalling.radius_bracket(phi, radius_tol=nosignalling.DEFAULT_RADIUS_TOL, budget=config.budget)
    worst = np.max(np.maximum(np.abs(bracket.lower - 1.0), np.abs(bracket.upper - 1.0)))
    return CheckResult(float(worst), 2e-3)


# ---------------------------------------------------------------------------
# Cloning-machine checks


def check_clone_normalization(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 1000), UNIT, UNIT, ANGLE)
    states = cloner.clone(draws[:, 2], cloner.coefficients(draws[:, :2]))
    worst = float(np.max(np.abs(np.linalg.norm(states, axis=-1) - 1.0)))
    return CheckResult(worst, 1e-12)


def check_isometry(config: RunConfig, rng) -> CheckResult:
    etas = _uniform(rng, _count(config, 400), UNIT, UNIT)
    return CheckResult(float(np.max(cloner.isometry_check(cloner.coefficients(etas)))), 1e-12)


def check_machine_no_signalling(config: RunConfig, rng) -> CheckResult:
    etas = _circle_etas(_uniform(rng, _count(config, 200), QUARTER)[:, 0])
    cardinal = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    rho_ob = cloner.reduced_clones(cloner.clone(cardinal, cloner.coefficients(etas[:, None, :])))[2]
    up, right, down, left = np.moveaxis(rho_ob, 1, 0)
    return CheckResult(float(np.max(np.abs(up + down - right - left))), 1e-12)


def check_machine_tensor_constraints(config: RunConfig, rng) -> CheckResult:
    phi, theta = _uniform(rng, _count(config, 200), QUARTER, ANGLE).T
    rho_ob = cloner.reduced_clones(cloner.clone(theta, cloner._circle_coefficients(phi)))[2]
    t = pauli.pauli_decompose(rho_ob).t
    worst = max(np.max(np.abs(t[:, 0, 0] - t[:, 2, 2])), np.max(np.abs(t[:, 0, 2] + t[:, 2, 0])))
    return CheckResult(float(worst), 1e-12)


def _circle_fidelities(theta, phi) -> np.ndarray:
    """Both clones' fidelities, (..., clone), of the machine at (cos phi, sin phi) for the circle inputs ``theta``."""
    return cloner._fidelities(theta, cloner._bloch_maps(cloner._circle_coefficients(phi)))[1]


def check_fidelity_law(config: RunConfig, rng) -> CheckResult:
    phi, theta = _uniform(rng, _count(config, 200), QUARTER, ANGLE).T
    fidelity = _circle_fidelities(theta, phi)
    worst = max(np.max(np.abs(fidelity[:, 0] - (1 + np.cos(phi)) / 2)),
                np.max(np.abs(fidelity[:, 1] - (1 + np.sin(phi)) / 2)))
    return CheckResult(float(worst), 1e-10)


def check_separability_ppt(config: RunConfig, rng) -> CheckResult:
    theta, phi = _uniform(rng, _count(config, 500), ANGLE, QUARTER).T
    lowest = cloner._ppt_min_eigenvalue(cloner._joint_output(cloner.clone(theta, cloner._circle_coefficients(phi))))
    return CheckResult(float(np.min(lowest)), -1e-10, direction=">=")


def check_bound_attainment(config: RunConfig, rng) -> CheckResult:
    theta, phi = _uniform(rng, _count(config, 200), ANGLE, QUARTER).T
    fidelity = _circle_fidelities(theta, phi)
    s1 = 2 * fidelity[:, 0] - 1
    s2 = 2 * fidelity[:, 1] - 1
    return CheckResult(float(np.max(np.abs(s1**2 + s2**2 - 1.0))), 1e-10)


def check_machine_covariance(config: RunConfig, rng) -> CheckResult:
    phi, theta, beta = _uniform(rng, _count(config, 200), QUARTER, ANGLE, ANGLE).T
    worst = float(np.max(cloner._covariance_deviation(cloner._circle_coefficients(phi), theta, beta)))
    return CheckResult(worst, 1e-10)


def check_reduced_clone_oracle(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), UNIT, UNIT, ANGLE)
    state = cloner.clone(draws[:, 2], cloner.coefficients(draws[:, :2]))
    rho = state[:, :, None] * state[:, None, :].conj()
    reduced = cloner.reduced_clones(state)
    worst = max(np.max(np.abs(clone - reference_partial_trace(rho, keep, [2, 2, 2])))
                for clone, keep in zip(reduced, (0, 1, (0, 1))))
    return CheckResult(float(worst), 1e-12)


def check_isotropy_on_circle(config: RunConfig, rng) -> CheckResult:
    phi = np.linspace(0, np.pi / 2, 20)
    worst = np.max(cloner.isotropy_scan(_circle_etas(phi)))
    return CheckResult(float(worst), 1e-10)


def check_isotropy_off_circle(config: RunConfig, rng) -> CheckResult:
    smallest = np.min(cloner.isotropy_scan([(0.7, 0.7), (0.5, 0.5)]))
    return CheckResult(float(smallest), 1e-3, direction=">=")


# Defining a check_* function above registers it: the suite runs them in definition order.
CHECKS = tuple(check for name, check in globals().items() if name.startswith("check_"))


def run_verification(config: RunConfig) -> list[CheckResult]:
    """Run every check with one seeded generator; results in definition order, named after their functions."""
    rng = np.random.default_rng(config.seed)
    results = []
    for check in CHECKS:
        start = time.perf_counter()
        result = check(config, rng)
        result.seconds = time.perf_counter() - start
        result.name = check.__name__.removeprefix("check_")
        results.append(result)
    return results
