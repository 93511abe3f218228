"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run pytest with -s
or read the captured output); an assertion failure marks the criterion FAIL.
"""

import re
import time

import numpy as np
import pytest

from circleclone.cli import main
from circleclone.cloner import clone, coefficients, isometry_check
from circleclone.nosignalling import covariance_residual, eigenvalue_bracket, feasibility, rotate_correlations
from circleclone.pauli import great_circle_bloch
from circleclone.verify import (
    RunConfig,
    check_isotropy_off_circle,
    check_isotropy_on_circle,
    check_no_signalling_constraint,
    check_no_signalling_violation,
    check_reduced_clone_oracle,
    check_separability_ppt,
    check_transcription_identity,
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
    assert feasibility((0.8, 0.8)) is False
    bracket = eigenvalue_bracket((0.8, 0.8))
    assert bracket.lower < -1e-4
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(3, f"(0.8, 0.8) infeasible, best min eigenvalue {bracket.lower:.3e} "
                  f"after {bracket.iterations} evaluations", elapsed, 30.0)


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
    # One row per sample: the input angle, (eta1, eta2), the nine tensor entries row by row, the turn.
    low = np.array([0.0] * 3 + [-1.0] * 9 + [0.0])
    high = np.array([2 * np.pi] + [1.0] * 11 + [2 * np.pi])
    draws = rng.uniform(low, high, (500, 13))
    residuals = covariance_residual(great_circle_bloch(draws[:, 0]), draws[:, 1:3],
                                    draws[:, 3:12].reshape(500, 3, 3), draws[:, 12])
    worst = float(np.max(residuals))
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
    # 20 pairs on the circle, and (0.7, 0.7) and (0.5, 0.5) off it, each over 200 angles.
    config, rng = RunConfig(samples=200), np.random.default_rng(6)
    worst_on = check_isotropy_on_circle(config, rng).measured
    assert worst_on <= 1e-10
    smallest_off = check_isotropy_off_circle(config, rng).measured
    assert smallest_off > 1e-3
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(6, f"on-circle residual <= {worst_on:.2e}; off-circle residuals "
                  f">= {smallest_off:.2e}", elapsed, 10.0)


def test_07_separability_of_joint_output(capsys):
    start = time.perf_counter()
    worst = check_separability_ppt(RunConfig(samples=500), np.random.default_rng(7)).measured
    assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(7, f"|partial-transpose minimum eigenvalue| <= {worst:.2e} over 500 runs", elapsed, 10.0)


def test_08_transcription_identity(capsys):
    start = time.perf_counter()
    worst = check_transcription_identity(RunConfig(samples=500), np.random.default_rng(8)).measured
    assert worst <= 1e-14
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(8, f"explicit matrix equals rebuilt output within {worst:.2e}", elapsed, 5.0)


def test_09_oracle_equivalence(capsys):
    start = time.perf_counter()
    worst = check_reduced_clone_oracle(RunConfig(samples=500), np.random.default_rng(9)).measured
    assert worst <= 1e-12
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(9, f"reduced clones match the brute-force sum within {worst:.2e}", elapsed, 5.0)


def test_10_isometry_and_normalization(capsys):
    start = time.perf_counter()
    # Grid point (i, j) holds (eta1, eta2) = (grid[i], grid[j]) and the angle 2 pi (50 i + j) / 2500.
    grid = np.linspace(0, 1, 50)
    coeffs = coefficients(np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1))
    theta = 2 * np.pi * np.arange(2500).reshape(50, 50) / 2500
    worst_gram = float(np.max(isometry_check(coeffs)))
    worst_norm = float(np.max(np.abs(np.linalg.norm(clone(theta, coeffs), axis=-1) - 1)))
    assert worst_gram <= 1e-12
    assert worst_norm <= 1e-12
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(10, f"Gram defect <= {worst_gram:.2e}, norm defect <= {worst_norm:.2e} "
                   f"on the 50x50 grid", elapsed, 5.0)
