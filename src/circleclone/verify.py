"""Named invariant checks backing the ``verify`` command.

Each check measures a residual against a fixed threshold and reports it; the
suite passes only if every check passes.  The checks deliberately re-derive
quantities along independent routes (explicit index sums, unitary conjugation,
closed forms) so that agreement is evidence rather than tautology.
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
    name: str
    measured: float
    threshold: float
    direction: str = "<="  # pass iff measured <= threshold (or >= for lower bounds)
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
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted(int(k) for k in keep)
    dims = [int(d) for d in dims]
    traced = [i for i in range(len(dims)) if i not in keep]

    def flat(index_by_subsystem):
        value = 0
        for i, d in enumerate(dims):
            value = value * d + index_by_subsystem[i]
        return value

    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    out = np.zeros(rho.shape[:-2] + (kept_dim, kept_dim), dtype=complex)
    kept_ranges = [range(dims[k]) for k in keep]
    traced_ranges = [range(dims[i]) for i in traced]
    for row_kept in itertools.product(*kept_ranges):
        for col_kept in itertools.product(*kept_ranges):
            total = 0.0 + 0.0j
            for traced_index in itertools.product(*traced_ranges):
                row = [0] * len(dims)
                col = [0] * len(dims)
                for position, subsystem in enumerate(keep):
                    row[subsystem] = row_kept[position]
                    col[subsystem] = col_kept[position]
                for position, subsystem in enumerate(traced):
                    row[subsystem] = traced_index[position]
                    col[subsystem] = traced_index[position]
                total += rho[..., flat(row), flat(col)]
            row_out = 0
            col_out = 0
            for position, subsystem in enumerate(keep):
                row_out = row_out * dims[subsystem] + row_kept[position]
                col_out = col_out * dims[subsystem] + col_kept[position]
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
    ``rng.uniform(low, high)``, one call per range in turn, would draw.
    """
    low, high = np.array(ranges, dtype=float).T
    return rng.uniform(low, high, (n, len(ranges)))


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
    return CheckResult("kron_associativity", float(np.max(np.abs(left - right))), 1e-14)


def check_eigenvalue_rotation_invariance(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), *[ENTRY] * 32, ANGLE, ANGLE)
    m = _random_hermitian(draws[:, :32], 4)
    u = linalg.kron(pauli.rotation_unitary(draws[:, 32]), pauli.rotation_unitary(draws[:, 33]))
    before = linalg.hermitian_eigenvalues(m)
    after = linalg.hermitian_eigenvalues(u @ m @ u.conj().swapaxes(-2, -1))
    return CheckResult("eigenvalue_rotation_invariance", float(np.max(np.abs(before - after))), 1e-9)


def check_partial_trace_state_contract(config: RunConfig, rng) -> CheckResult:
    rho = _random_density(_uniform(rng, _count(config, 200), *[ENTRY] * 32), 4)
    reduced = np.stack([linalg.partial_trace(rho, keep, [2, 2]) for keep in (0, 1)])
    worst = max(np.max(linalg.hermiticity_defect(reduced)),
                np.max(np.abs(np.trace(reduced, axis1=-2, axis2=-1).real - 1.0)))
    return CheckResult("partial_trace_state_contract", float(worst), 1e-12)


def check_oracle_partial_trace(config: RunConfig, rng) -> CheckResult:
    rho = _random_hermitian(_uniform(rng, _count(config, 100), *[ENTRY] * 128), 8)
    worst = max(np.max(np.abs(linalg.partial_trace(rho, keep, [2, 2, 2])
                              - reference_partial_trace(rho, keep, [2, 2, 2])))
                for keep in (0, 1, 2, (0, 1), (0, 2), (1, 2)))
    return CheckResult("oracle_partial_trace", float(worst), 1e-12)


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
    return CheckResult("bloch_conjugation_consistency", worst, 1e-12)


def check_pauli_roundtrip(config: RunConfig, rng) -> CheckResult:
    m = _random_hermitian(_uniform(rng, _count(config, 200), *[ENTRY] * 32), 4)
    worst = float(np.max(np.abs(pauli.pauli_decompose(m).reconstruct() - m)))
    return CheckResult("pauli_roundtrip", worst, 1e-12)


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
    return CheckResult("rotation_composition", float(worst), 1e-12)


# ---------------------------------------------------------------------------
# No-signalling bound checks


def check_covariance_relations(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 500), UNIT, UNIT, *[ENTRY] * 7, ANGLE, ANGLE)
    etas, t = draws[:, :2], nosignalling.constrain_tensor(draws[:, 2:9])
    theta, beta = draws[:, 9], draws[:, 10]
    residuals = nosignalling.covariance_residual(pauli.great_circle_bloch(theta), etas, t, beta)
    return CheckResult("covariance_relations", float(np.max(residuals)), 1e-12)


def check_transcription_identity(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 500), UNIT, UNIT, *[ENTRY] * 7)
    etas, t = draws[:, :2], nosignalling.constrain_tensor(draws[:, 2:])
    explicit = nosignalling.positivity_matrix_up(etas, t)
    rebuilt = nosignalling.build_joint_output(nosignalling.UP, etas, t)
    return CheckResult("transcription_identity", float(np.max(np.abs(explicit - rebuilt))), 1e-14)


def check_no_signalling_constraint(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), UNIT, UNIT, *[ENTRY] * 7)
    residuals = nosignalling.no_signalling_residual(draws[:, :2], nosignalling.constrain_tensor(draws[:, 2:]))
    return CheckResult("no_signalling_constraint", float(np.max(residuals)), 1e-12)


def check_no_signalling_violation(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), UNIT, UNIT, *[ENTRY] * 9)
    etas, t = draws[:, :2], draws[:, 2:].reshape(-1, 3, 3)
    # Keep t_xx and t_zz at least 0.01 apart, so every tensor signals.
    t_xx = t[:, 0, 0]
    close = np.abs(t_xx - t[:, 2, 2]) < 0.01
    t[:, 2, 2] = np.where(close, t_xx + np.where(t_xx <= 0.99, 0.01, -0.01), t[:, 2, 2])
    smallest = float(np.min(nosignalling.no_signalling_residual(etas, t)))
    return CheckResult("no_signalling_violation", smallest, 1e-12, direction=">=")


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
    # up after `limit`.  Attempts are evaluated in doubling blocks from one
    # snapshot of the generator, which is then left where the attempt-by-
    # attempt loop stops: just after the target-th accepted attempt.
    target = _count(config, 200)
    limit = 50 * target
    start = rng.bit_generator.state
    rows = 2 * target
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
    return CheckResult("bound_soundness", worst, 1e-8)


def check_correlation_rotation_group(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), *[ENTRY] * 9, ANGLE, ANGLE)
    t, b1, b2 = draws[:, :9].reshape(-1, 3, 3), draws[:, 9], draws[:, 10]
    two_step = nosignalling.rotate_correlations(nosignalling.rotate_correlations(t, b1), b2)
    one_step = nosignalling.rotate_correlations(t, b1 + b2)
    return CheckResult("correlation_rotation_group", float(np.max(np.abs(two_step - one_step))), 1e-12)


def check_on_circle_feasibility(config: RunConfig, rng) -> CheckResult:
    # Solved until the gap closes, with no decision target: the value is the
    # solve's estimate of the on-circle optimum 0, not a stopping rule's.
    etas = _circle_etas(np.array([0.0, np.pi / 4, np.pi / 3]))
    lowest = float(np.min(nosignalling.eigenvalue_bracket(etas, config.budget).lower))
    return CheckResult("on_circle_feasibility", lowest, -linalg.PSD_TOL, direction=">=")


def check_circle_recovery(config: RunConfig, rng) -> CheckResult:
    phi = np.array([0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2])
    bracket = nosignalling.radius_bracket(phi, radius_tol=nosignalling.DEFAULT_RADIUS_TOL, budget=config.budget)
    worst = np.max(np.maximum(np.abs(bracket.lower - 1.0), np.abs(bracket.upper - 1.0)))
    return CheckResult("circle_recovery", float(worst), 2e-3)


# ---------------------------------------------------------------------------
# Cloning-machine checks


def check_clone_normalization(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 1000), UNIT, UNIT, ANGLE)
    states = cloner.clone(draws[:, 2], cloner.coefficients(draws[:, :2]))
    worst = float(np.max(np.abs(np.linalg.norm(states, axis=-1) - 1.0)))
    return CheckResult("clone_normalization", worst, 1e-12)


def check_isometry(config: RunConfig, rng) -> CheckResult:
    etas = _uniform(rng, _count(config, 400), UNIT, UNIT)
    return CheckResult("isometry", float(np.max(cloner.isometry_check(cloner.coefficients(etas)))), 1e-12)


def check_machine_no_signalling(config: RunConfig, rng) -> CheckResult:
    etas = _circle_etas(_uniform(rng, _count(config, 200), QUARTER)[:, 0])
    cardinal = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    rho_ob = cloner.reduced_clones(cloner.clone(cardinal, cloner.coefficients(etas[:, None, :])))[2]
    up, right, down, left = np.moveaxis(rho_ob, 1, 0)
    return CheckResult("machine_no_signalling", float(np.max(np.abs(up + down - right - left))), 1e-12)


def _circle_coefficients(phi) -> cloner.CloneCoefficients:
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
    return cloner.CloneCoefficients(a=c * plus, b=c * minus, c=s * plus, d=s * minus,
                                    eta1=np.cos(phi), eta2=np.sin(phi))


def check_machine_tensor_constraints(config: RunConfig, rng) -> CheckResult:
    phi, theta = _uniform(rng, _count(config, 200), QUARTER, ANGLE).T
    rho_ob = cloner.reduced_clones(cloner.clone(theta, _circle_coefficients(phi)))[2]
    t = pauli.pauli_decompose(rho_ob).t
    worst = max(np.max(np.abs(t[:, 0, 0] - t[:, 2, 2])), np.max(np.abs(t[:, 0, 2] + t[:, 2, 0])))
    return CheckResult("machine_tensor_constraints", float(worst), 1e-12)


def check_fidelity_law(config: RunConfig, rng) -> CheckResult:
    phi, theta = _uniform(rng, _count(config, 200), QUARTER, ANGLE).T
    report = cloner._clone_report(theta, _circle_coefficients(phi))
    worst = max(np.max(np.abs(report.fidelity_o - (1 + np.cos(phi)) / 2)),
                np.max(np.abs(report.fidelity_b - (1 + np.sin(phi)) / 2)))
    return CheckResult("fidelity_law", float(worst), 1e-10)


def check_separability_ppt(config: RunConfig, rng) -> CheckResult:
    theta, phi = _uniform(rng, _count(config, 500), ANGLE, QUARTER).T
    report = cloner.clone_report(theta, _circle_etas(phi))
    return CheckResult("separability_ppt", float(np.min(report.ppt_min_eigenvalue)), -1e-10, direction=">=")


def check_bound_attainment(config: RunConfig, rng) -> CheckResult:
    theta, phi = _uniform(rng, _count(config, 200), ANGLE, QUARTER).T
    report = cloner.clone_report(theta, _circle_etas(phi))
    s1 = 2 * report.fidelity_o - 1
    s2 = 2 * report.fidelity_b - 1
    return CheckResult("bound_attainment", float(np.max(np.abs(s1**2 + s2**2 - 1.0))), 1e-10)


def check_machine_covariance(config: RunConfig, rng) -> CheckResult:
    phi, theta, beta = _uniform(rng, _count(config, 200), QUARTER, ANGLE, ANGLE).T
    worst = float(np.max(cloner._covariance_deviation(_circle_coefficients(phi), theta, beta)))
    return CheckResult("machine_covariance", worst, 1e-10)


def check_reduced_clone_oracle(config: RunConfig, rng) -> CheckResult:
    draws = _uniform(rng, _count(config, 200), UNIT, UNIT, ANGLE)
    state = cloner.clone(draws[:, 2], cloner.coefficients(draws[:, :2]))
    rho = state[:, :, None] * state[:, None, :].conj()
    reduced = cloner.reduced_clones(state)
    worst = max(np.max(np.abs(clone - reference_partial_trace(rho, keep, [2, 2, 2])))
                for clone, keep in zip(reduced, (0, 1, (0, 1))))
    return CheckResult("reduced_clone_oracle", float(worst), 1e-12)


def check_isotropy_on_circle(config: RunConfig, rng) -> CheckResult:
    phi = np.linspace(0, np.pi / 2, 20)
    worst = np.max(cloner.isotropy_scan(_circle_etas(phi)))
    return CheckResult("isotropy_on_circle", float(worst), 1e-10)


def check_isotropy_off_circle(config: RunConfig, rng) -> CheckResult:
    smallest = np.min(cloner.isotropy_scan([(0.7, 0.7), (0.5, 0.5)]))
    return CheckResult("isotropy_off_circle", float(smallest), 1e-3, direction=">=")


CHECKS = (
    check_kron_associativity,
    check_eigenvalue_rotation_invariance,
    check_partial_trace_state_contract,
    check_oracle_partial_trace,
    check_bloch_conjugation_consistency,
    check_pauli_roundtrip,
    check_rotation_composition,
    check_covariance_relations,
    check_transcription_identity,
    check_no_signalling_constraint,
    check_no_signalling_violation,
    check_bound_soundness,
    check_correlation_rotation_group,
    check_on_circle_feasibility,
    check_circle_recovery,
    check_clone_normalization,
    check_isometry,
    check_machine_no_signalling,
    check_machine_tensor_constraints,
    check_fidelity_law,
    check_separability_ppt,
    check_bound_attainment,
    check_machine_covariance,
    check_reduced_clone_oracle,
    check_isotropy_on_circle,
    check_isotropy_off_circle,
)


def run_verification(config: RunConfig) -> list[CheckResult]:
    """Run every named check with one seeded generator; results in declaration order."""
    rng = np.random.default_rng(config.seed)
    results = []
    for check in CHECKS:
        start = time.perf_counter()
        result = check(config, rng)
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
