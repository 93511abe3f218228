"""Named invariant checks backing the ``verify`` command.

Each check measures a residual against a fixed threshold and reports it; the
suite passes only if every check passes.  The checks deliberately re-derive
quantities along independent routes (explicit index sums, unitary conjugation,
closed forms) so that agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import cloner, linalg, nosignalling, pauli


@dataclass
class RunConfig:
    """Reproducibility knobs shared by the CLI commands."""

    seed: int = 0
    psd_tol: float = nosignalling.DEFAULT_PSD_TOL
    radius_tol: float = nosignalling.DEFAULT_RADIUS_TOL
    budget: int = nosignalling.DEFAULT_BUDGET
    samples: int = 0  # 0 = every check uses its own documented sample count

    def __post_init__(self) -> None:
        # The same rules as the CLI's argument types.
        for name in ("psd_tol", "radius_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
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
    out = np.zeros((kept_dim, kept_dim), dtype=complex)
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
                total += rho[flat(row), flat(col)]
            row_out = 0
            col_out = 0
            for position, subsystem in enumerate(keep):
                row_out = row_out * dims[subsystem] + row_kept[position]
                col_out = col_out * dims[subsystem] + col_kept[position]
            out[row_out, col_out] = total
    return out


def _random_hermitian(rng, n: int) -> np.ndarray:
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return (m + m.conj().T) / 2


def _random_density(rng, n: int) -> np.ndarray:
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _random_circle_etas(rng) -> tuple[float, float]:
    phi = rng.uniform(0, np.pi / 2)
    return float(np.cos(phi)), float(np.sin(phi))


# ---------------------------------------------------------------------------
# Linear-algebra checks


def check_kron_associativity(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 50)):
        a, b, c = (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)) for _ in range(3))
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        worst = max(worst, float(np.max(np.abs(left - right))))
    return CheckResult("kron_associativity", worst, 1e-14)


def check_eigenvalue_rotation_invariance(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        m = _random_hermitian(rng, 4)
        u = linalg.kron(pauli.rotation_unitary(rng.uniform(0, 2 * np.pi)),
                        pauli.rotation_unitary(rng.uniform(0, 2 * np.pi)))
        before = linalg.hermitian_eigenvalues(m)
        after = linalg.hermitian_eigenvalues(u @ m @ u.conj().T)
        worst = max(worst, float(np.max(np.abs(before - after))))
    return CheckResult("eigenvalue_rotation_invariance", worst, 1e-9)


def check_partial_trace_state_contract(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        rho = _random_density(rng, 4)
        for keep in (0, 1):
            reduced = linalg.partial_trace(rho, keep, [2, 2])
            worst = max(worst, linalg.hermiticity_defect(reduced))
            worst = max(worst, abs(float(np.trace(reduced).real) - 1.0))
    return CheckResult("partial_trace_state_contract", worst, 1e-12)


def check_oracle_partial_trace(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 100)):
        rho = _random_hermitian(rng, 8)
        for keep in (0, 1, 2, (0, 1), (0, 2), (1, 2)):
            fast = linalg.partial_trace(rho, keep, [2, 2, 2])
            slow = reference_partial_trace(rho, keep, [2, 2, 2])
            worst = max(worst, float(np.max(np.abs(fast - slow))))
    return CheckResult("oracle_partial_trace", worst, 1e-12)


# ---------------------------------------------------------------------------
# Bloch / Pauli checks


def check_bloch_conjugation_consistency(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        m = rng.uniform(-1, 1, 3)
        m *= rng.uniform(0, 1) / max(np.linalg.norm(m), 1e-12)
        beta = rng.uniform(0, 2 * np.pi)
        u = pauli.rotation_unitary(beta)
        conjugated = pauli.density_to_bloch(u @ pauli.bloch_to_density(m) @ u.conj().T)
        worst = max(worst, float(np.max(np.abs(conjugated - pauli.rotate_bloch(m, beta)))))
    return CheckResult("bloch_conjugation_consistency", worst, 1e-12)


def check_pauli_roundtrip(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        m = _random_hermitian(rng, 4)
        worst = max(worst, float(np.max(np.abs(pauli.pauli_decompose(m).reconstruct() - m))))
    return CheckResult("pauli_roundtrip", worst, 1e-12)


def check_rotation_composition(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        b1, b2 = rng.uniform(0, 2 * np.pi, 2)
        product = pauli.rotation_unitary(b1) @ pauli.rotation_unitary(b2)
        total = pauli.rotation_unitary(b1 + b2)
        worst = max(worst, min(float(np.max(np.abs(product - total))),
                               float(np.max(np.abs(product + total)))))
        m = rng.uniform(-1, 1, 3)
        two_step = pauli.rotate_bloch(pauli.rotate_bloch(m, b1), b2)
        worst = max(worst, float(np.max(np.abs(two_step - pauli.rotate_bloch(m, b1 + b2)))))
    return CheckResult("rotation_composition", worst, 1e-12)


# ---------------------------------------------------------------------------
# No-signalling bound checks


def check_covariance_relations(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 500)):
        etas = rng.uniform(0, 1, 2)
        t = nosignalling.constrain_tensor(rng.uniform(-1, 1, 7))
        theta = rng.uniform(0, 2 * np.pi)
        beta = rng.uniform(0, 2 * np.pi)
        m = pauli.great_circle_bloch(theta)
        worst = max(worst, nosignalling.covariance_residual(m, etas, t, beta))
    return CheckResult("covariance_relations", worst, 1e-12)


def check_transcription_identity(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 500)):
        etas = rng.uniform(0, 1, 2)
        t = nosignalling.constrain_tensor(rng.uniform(-1, 1, 7))
        explicit = nosignalling.positivity_matrix_up(etas, t)
        rebuilt = nosignalling.build_joint_output(nosignalling.UP, etas, t)
        worst = max(worst, float(np.max(np.abs(explicit - rebuilt))))
    return CheckResult("transcription_identity", worst, 1e-14)


def check_no_signalling_constraint(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        etas = rng.uniform(0, 1, 2)
        t = nosignalling.constrain_tensor(rng.uniform(-1, 1, 7))
        worst = max(worst, nosignalling.no_signalling_residual(etas, t))
    return CheckResult("no_signalling_constraint", worst, 1e-12)


def check_no_signalling_violation(config: RunConfig, rng) -> CheckResult:
    smallest = np.inf
    for _ in range(_count(config, 200)):
        etas = rng.uniform(0, 1, 2)
        t = rng.uniform(-1, 1, (3, 3))
        if abs(t[0, 0] - t[2, 2]) < 0.01:
            t[2, 2] = t[0, 0] + (0.01 if t[0, 0] <= 0.99 else -0.01)
        smallest = min(smallest, nosignalling.no_signalling_residual(etas, t))
    return CheckResult("no_signalling_violation", smallest, 1e-12, direction=">=")


def check_bound_soundness(config: RunConfig, rng) -> CheckResult:
    worst = -np.inf
    accepted = 0
    target = _count(config, 200)
    attempts = 0
    while accepted < target and attempts < 50 * target:
        attempts += 1
        if rng.uniform() < 0.5:
            # Just inside the circle, where the bound is tight, with the witness
            # perturbed in proportion to the distance from the circle.
            gap = 10 ** rng.uniform(-8, -1)
            phi = rng.uniform(0, np.pi / 2)
            etas = ((1 - gap) * np.cos(phi), (1 - gap) * np.sin(phi))
            free = nosignalling.free_parameters(nosignalling.machine_witness_tensor(etas))
            free = np.clip(free + gap * rng.uniform(-0.1, 0.1, 7), -1, 1)
        else:
            etas = rng.uniform(0, 0.45, 2)
            free = rng.uniform(-0.3, 0.3, 7)
        t = nosignalling.constrain_tensor(free)
        psd, _ = linalg.is_psd(nosignalling.positivity_matrix_up(etas, t), tol=1e-10)
        if not psd:
            continue
        accepted += 1
        worst = max(worst, etas[0] ** 2 + etas[1] ** 2 - nosignalling.bound_rhs(t))
    if accepted < target:
        worst = np.inf  # sampler starved; surface it as a failure
    return CheckResult("bound_soundness", worst, 1e-8)


def check_correlation_rotation_group(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        t = rng.uniform(-1, 1, (3, 3))
        b1, b2 = rng.uniform(0, 2 * np.pi, 2)
        two_step = nosignalling.rotate_correlations(nosignalling.rotate_correlations(t, b1), b2)
        one_step = nosignalling.rotate_correlations(t, b1 + b2)
        worst = max(worst, float(np.max(np.abs(two_step - one_step))))
    return CheckResult("correlation_rotation_group", worst, 1e-12)


def check_on_circle_feasibility(config: RunConfig, rng) -> CheckResult:
    lowest = np.inf
    for phi in (0.0, np.pi / 4, np.pi / 3):
        etas = (np.cos(phi), np.sin(phi))
        report = nosignalling.feasibility(etas, budget=config.budget, psd_tol=config.psd_tol)
        lowest = min(lowest, report.best_min_eigenvalue)
    return CheckResult("on_circle_feasibility", lowest, -config.psd_tol, direction=">=")


def check_circle_recovery(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for phi in (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2):
        found = nosignalling.max_radius(phi, radius_tol=config.radius_tol,
                                        budget=config.budget, psd_tol=config.psd_tol)
        worst = max(worst, abs(found - 1.0))
    return CheckResult("circle_recovery", worst, 2e-3)


# ---------------------------------------------------------------------------
# Cloning-machine checks


def check_clone_normalization(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 1000)):
        coeffs = cloner.coefficients(rng.uniform(0, 1, 2))
        state = cloner.clone(rng.uniform(0, 2 * np.pi), coeffs)
        worst = max(worst, abs(float(np.linalg.norm(state)) - 1.0))
    return CheckResult("clone_normalization", worst, 1e-12)


def check_isometry(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 400)):
        worst = max(worst, cloner.isometry_check(cloner.coefficients(rng.uniform(0, 1, 2))))
    return CheckResult("isometry", worst, 1e-12)


def check_machine_no_signalling(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    cardinal = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    for _ in range(_count(config, 200)):
        coeffs = cloner.coefficients(_random_circle_etas(rng))
        up, right, down, left = cloner.reduced_clones(cloner.clone(cardinal, coeffs))[2]
        worst = max(worst, float(np.max(np.abs(up + down - right - left))))
    return CheckResult("machine_no_signalling", worst, 1e-12)


def check_machine_tensor_constraints(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        coeffs = cloner.coefficients(_random_circle_etas(rng))
        rho_ob = cloner.reduced_clones(cloner.clone(rng.uniform(0, 2 * np.pi), coeffs))[2]
        t = pauli.pauli_decompose(rho_ob).t
        worst = max(worst, abs(t[0, 0] - t[2, 2]), abs(t[0, 2] + t[2, 0]))
    return CheckResult("machine_tensor_constraints", worst, 1e-12)


def check_fidelity_law(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        eta1, eta2 = _random_circle_etas(rng)
        report = cloner.clone_report(rng.uniform(0, 2 * np.pi), (eta1, eta2))
        worst = max(worst, abs(report.fidelity_o - (1 + eta1) / 2))
        worst = max(worst, abs(report.fidelity_b - (1 + eta2) / 2))
    return CheckResult("fidelity_law", worst, 1e-10)


def check_separability_ppt(config: RunConfig, rng) -> CheckResult:
    lowest = np.inf
    for _ in range(_count(config, 500)):
        report = cloner.clone_report(rng.uniform(0, 2 * np.pi), _random_circle_etas(rng))
        lowest = min(lowest, report.ppt_min_eigenvalue)
    return CheckResult("separability_ppt", lowest, -1e-10, direction=">=")


def check_bound_attainment(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        report = cloner.clone_report(rng.uniform(0, 2 * np.pi), _random_circle_etas(rng))
        s1 = 2 * report.fidelity_o - 1
        s2 = 2 * report.fidelity_b - 1
        worst = max(worst, abs(s1**2 + s2**2 - 1.0))
    return CheckResult("bound_attainment", worst, 1e-10)


def check_machine_covariance(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        worst = max(worst, cloner.covariance_check_machine(
            _random_circle_etas(rng), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)))
    return CheckResult("machine_covariance", worst, 1e-10)


def check_reduced_clone_oracle(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_count(config, 200)):
        coeffs = cloner.coefficients(rng.uniform(0, 1, 2))
        state = cloner.clone(rng.uniform(0, 2 * np.pi), coeffs)
        rho = np.outer(state, state.conj())
        rho_o, rho_b, rho_ob = cloner.reduced_clones(state)
        worst = max(worst, float(np.max(np.abs(rho_o - reference_partial_trace(rho, 0, [2, 2, 2])))))
        worst = max(worst, float(np.max(np.abs(rho_b - reference_partial_trace(rho, 1, [2, 2, 2])))))
        worst = max(worst, float(np.max(np.abs(rho_ob - reference_partial_trace(rho, (0, 1), [2, 2, 2])))))
    return CheckResult("reduced_clone_oracle", worst, 1e-12)


def check_isotropy_on_circle(config: RunConfig, rng) -> CheckResult:
    worst = 0.0
    theta_samples = _count(config, 200)
    for phi in np.linspace(0, np.pi / 2, 20):
        worst = max(worst, cloner.isotropy_scan((np.cos(phi), np.sin(phi)), theta_samples))
    return CheckResult("isotropy_on_circle", worst, 1e-10)


def check_isotropy_off_circle(config: RunConfig, rng) -> CheckResult:
    theta_samples = _count(config, 200)
    smallest = min(cloner.isotropy_scan((0.7, 0.7), theta_samples),
                   cloner.isotropy_scan((0.5, 0.5), theta_samples))
    return CheckResult("isotropy_off_circle", smallest, 1e-3, direction=">=")


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
