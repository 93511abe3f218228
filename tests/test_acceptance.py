"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run pytest with -s
or read the captured output); an assertion failure marks the criterion FAIL.
"""

import re
import time

import numpy as np
import pytest

from circleclone.cli import main
from circleclone.cloner import (
    clone,
    clone_report,
    coefficients,
    isometry_check,
    isotropy_scan,
    reduced_clones,
)
from circleclone.nosignalling import covariance_residual, feasibility, rotate_correlations
from circleclone.pauli import great_circle_bloch
from circleclone.verify import (
    RunConfig,
    check_no_signalling_constraint,
    check_no_signalling_violation,
    check_transcription_identity,
    reference_partial_trace,
)

SYMMETRIC_ETA = 2**-0.5
SYMMETRIC_FIDELITY = 0.5 + np.sqrt(0.125)  # 0.8535533906


def report(criterion, detail, elapsed, limit):
    assert elapsed < limit, f"criterion {criterion} exceeded its runtime bound: {elapsed:.1f}s >= {limit}s"
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.2f}s < {limit}s]")


def test_01_symmetric_optimal_fidelity(capsys):
    start = time.perf_counter()
    worst = 0.0
    for theta in np.linspace(0, 2 * np.pi, 20, endpoint=False):
        assert main(["clone", "--theta", repr(float(theta)),
                     "--eta1", repr(SYMMETRIC_ETA), "--eta2", repr(SYMMETRIC_ETA)]) == 0
        output = capsys.readouterr().out
        for label in ("fidelity_o", "fidelity_b"):
            match = re.search(rf"{label}\s*:\s*([-0-9.]+)", output)
            assert match, output
            worst = max(worst, abs(float(match.group(1)) - SYMMETRIC_FIDELITY))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(1, f"symmetric fidelities within {worst:.2e} of {SYMMETRIC_FIDELITY:.10f} over 20 angles",
               elapsed, 1.0)


def test_02_optimal_curve_recovery(capsys, tmp_path):
    start = time.perf_counter()
    out = tmp_path / "bound.csv"
    assert main(["bound-sweep", "--n-phi", "9", "--out", str(out), "--seed", "0"]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "phi,eta1,eta2,max_radius_found,circle_radius,deviation"
    radii = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(radii) == 9
    assert all(0.998 <= radius <= 1.002 for radius in radii), radii
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(2, f"max radius in [{min(radii):.6f}, {max(radii):.6f}] over 9 directions", elapsed, 120.0)


def test_03_infeasibility_beyond_circle(capsys):
    start = time.perf_counter()
    result = feasibility((0.8, 0.8))
    assert not result.feasible
    assert result.best_min_eigenvalue < -1e-4
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(3, f"(0.8, 0.8) infeasible, best min eigenvalue {result.best_min_eigenvalue:.3e} "
                  f"after {result.evaluations} evaluations", elapsed, 30.0)


def test_04_no_signalling_identity(capsys):
    start = time.perf_counter()
    rng, config = np.random.default_rng(4), RunConfig(samples=200)
    worst_constrained = check_no_signalling_constraint(config, rng).measured
    assert worst_constrained <= 1e-12
    # 200 signalling tensors, each with t_xx and t_zz at least 0.01 apart.
    smallest_violation = check_no_signalling_violation(config, rng).measured
    assert smallest_violation > 0
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(4, f"constrained residual <= {worst_constrained:.2e}; "
                  f"violations detected down to {smallest_violation:.2e}", elapsed, 5.0)


def test_05_rotation_relation_equivalence(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        m = great_circle_bloch(rng.uniform(0, 2 * np.pi))
        etas = rng.uniform(0, 1, 2)
        t = rng.uniform(-1, 1, (3, 3))
        worst = max(worst, covariance_residual(m, etas, t, rng.uniform(0, 2 * np.pi)))
    assert worst <= 1e-12

    # The four cardinal turns, written out entrywise as sign/permutation tables.
    t = rng.uniform(-1, 1, (3, 3))
    cardinal_tables = {
        0.0: t,
        np.pi / 2: np.array([
            [t[2, 2], t[2, 1], -t[2, 0]],
            [t[1, 2], t[1, 1], -t[1, 0]],
            [-t[0, 2], -t[0, 1], t[0, 0]],
        ]),
        np.pi: np.array([
            [t[0, 0], -t[0, 1], t[0, 2]],
            [-t[1, 0], t[1, 1], -t[1, 2]],
            [t[2, 0], -t[2, 1], t[2, 2]],
        ]),
        3 * np.pi / 2: np.array([
            [t[2, 2], -t[2, 1], -t[2, 0]],
            [-t[1, 2], t[1, 1], t[1, 0]],
            [-t[0, 2], t[0, 1], t[0, 0]],
        ]),
    }
    worst_cardinal = 0.0
    for beta, expected in cardinal_tables.items():
        worst_cardinal = max(worst_cardinal, float(np.max(np.abs(rotate_correlations(t, beta) - expected))))
    assert worst_cardinal <= 1e-15
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(5, f"covariance residual <= {worst:.2e} over 500 samples; "
                  f"cardinal tables match to {worst_cardinal:.1e}", elapsed, 5.0)


def test_06_isotropy_iff_on_circle(capsys):
    start = time.perf_counter()
    phi = np.linspace(0, np.pi / 2, 20)
    worst_on = float(np.max(isotropy_scan(np.stack([np.cos(phi), np.sin(phi)], axis=-1), 200)))
    assert worst_on <= 1e-10
    off_a, off_b = isotropy_scan([(0.7, 0.7), (0.5, 0.5)], 200)
    assert off_a > 1e-3
    assert off_b > 1e-3
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(6, f"on-circle residual <= {worst_on:.2e}; off-circle residuals "
                  f"{off_a:.2e} and {off_b:.2e}", elapsed, 10.0)


def test_07_separability_of_joint_output(capsys):
    start = time.perf_counter()
    # Row by row, the doubles of 500 draws of phi, then theta.
    phi, theta = np.random.default_rng(7).uniform([0, 0], [np.pi / 2, 2 * np.pi], (500, 2)).T
    result = clone_report(theta, np.stack([np.cos(phi), np.sin(phi)], axis=-1))
    lowest = float(np.min(result.ppt_min_eigenvalue))
    assert lowest >= -1e-10
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(7, f"partial-transpose minimum eigenvalue >= {lowest:.2e} over 500 runs", elapsed, 10.0)


def test_08_transcription_identity(capsys):
    start = time.perf_counter()
    worst = check_transcription_identity(RunConfig(samples=500), np.random.default_rng(8)).measured
    assert worst <= 1e-14
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(8, f"explicit matrix equals rebuilt output within {worst:.2e}", elapsed, 5.0)


def test_09_oracle_equivalence(capsys):
    start = time.perf_counter()
    # Row by row, the doubles of 500 draws of theta, then two reduction factors.
    draws = np.random.default_rng(9).uniform([0, 0, 0], [2 * np.pi, 1, 1], (500, 3))
    state = clone(draws[:, 0], coefficients(draws[:, 1:]))
    rho = state[:, :, None] * state[:, None, :].conj()
    worst = max(float(np.max(np.abs(reduced - reference_partial_trace(rho, keep, [2, 2, 2]))))
                for reduced, keep in zip(reduced_clones(state), (0, 1, (0, 1))))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(9, f"reduced clones match the brute-force sum within {worst:.2e}", elapsed, 5.0)


def test_10_isometry_and_normalization(capsys):
    start = time.perf_counter()
    worst_gram = 0.0
    worst_norm = 0.0
    grid = np.linspace(0, 1, 50)
    for i, eta1 in enumerate(grid):
        for j, eta2 in enumerate(grid):
            coeffs = coefficients((eta1, eta2))
            worst_gram = max(worst_gram, isometry_check(coeffs))
            theta = 2 * np.pi * (50 * i + j) / 2500
            worst_norm = max(worst_norm, abs(float(np.linalg.norm(clone(theta, coeffs))) - 1))
    assert worst_gram <= 1e-12
    assert worst_norm <= 1e-12
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(10, f"Gram defect <= {worst_gram:.2e}, norm defect <= {worst_norm:.2e} "
                   f"on the 50x50 grid", elapsed, 5.0)
