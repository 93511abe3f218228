import numpy as np
import pytest

from circleclone import nosignalling
from circleclone.cloner import clone_report
from circleclone.pauli import great_circle_bloch
from circleclone.verify import (
    RunConfig,
    check_bound_attainment,
    check_bound_soundness,
    check_circle_recovery,
    check_covariance_relations,
    check_fidelity_law,
    check_no_signalling_violation,
    check_on_circle_feasibility,
    check_separability_ppt,
)


class TestRunConfig:
    @pytest.mark.parametrize("settings", [
        {"psd_tol": float("nan")},
        {"psd_tol": float("inf")},
        {"psd_tol": -1e-9},
        {"radius_tol": float("nan")},
        {"radius_tol": 0.0},
        {"budget": 0},
        {"budget": 2.5},
        {"samples": 1},
        {"samples": -3},
        {"samples": 2.5},
        {"seed": -1},
        {"seed": 1.5},
    ], ids=lambda settings: ",".join(f"{key}={value}" for key, value in settings.items()))
    def test_rejects_what_the_cli_rejects(self, settings):
        with pytest.raises(ValueError):
            RunConfig(**settings)

    def test_accepts_valid_settings(self):
        RunConfig(psd_tol=1e-6, radius_tol=1e-2, budget=np.int64(10), samples=2)
        RunConfig(samples=0)


class TestBoundSoundness:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_samples_reach_the_tight_region(self, seed):
        result = check_bound_soundness(RunConfig(), np.random.default_rng(seed))
        assert result.passed
        assert -1e-6 <= result.measured <= 1e-8

    def test_fails_for_a_bound_tighter_than_the_truth(self, monkeypatch):
        true_rhs = nosignalling.bound_rhs
        monkeypatch.setattr(nosignalling, "bound_rhs", lambda t: true_rhs(t) - 1e-7)
        assert not check_bound_soundness(RunConfig(), np.random.default_rng(0)).passed


class TestSolverChecks:
    def test_on_circle_feasibility_measures_the_solve(self):
        # Solved to the gap, the on-circle optimum 0 is met far inside psd_tol.
        result = check_on_circle_feasibility(RunConfig(), np.random.default_rng(0))
        assert result.passed
        assert abs(result.measured) <= 1e-10

    def test_circle_recovery_reads_both_ends_of_each_bracket(self):
        # At radius_tol 5e-3 every lower end lies within 1e-3 of 1, but some upper ends do not lie within 2e-3.
        assert not check_circle_recovery(RunConfig(radius_tol=5e-3), np.random.default_rng(0)).passed


class TestSampleStream:
    """A batched check draws its samples in one call and sees the numbers the per-sample loop saw."""

    def test_vector_bounds_draw_the_interleaved_scalar_stream(self):
        low = np.array([0.0, 0.0, -1.0, 0.0])
        high = np.array([1.0, np.pi / 2, 1.0, 2 * np.pi])
        batched = np.random.default_rng(5).uniform(low, high, (50, 4))
        rng = np.random.default_rng(5)
        looped = np.array([[rng.uniform(lo, hi) for lo, hi in zip(low, high)] for _ in range(50)])
        assert np.array_equal(batched, looped)

    # Each loop below is the per-sample form of a check: the same draws, in the
    # same order, each fed to one scalar library call.

    @staticmethod
    def loop_fidelity_law(rng):
        worst = 0.0
        for _ in range(200):
            phi = rng.uniform(0, np.pi / 2)
            eta1, eta2 = float(np.cos(phi)), float(np.sin(phi))
            report = clone_report(rng.uniform(0, 2 * np.pi), (eta1, eta2))
            worst = max(worst, abs(report.fidelity_o - (1 + eta1) / 2), abs(report.fidelity_b - (1 + eta2) / 2))
        return worst

    @staticmethod
    def loop_separability_ppt(rng):
        lowest = np.inf
        for _ in range(500):
            theta = rng.uniform(0, 2 * np.pi)
            phi = rng.uniform(0, np.pi / 2)
            lowest = min(lowest, clone_report(theta, (np.cos(phi), np.sin(phi))).ppt_min_eigenvalue)
        return lowest

    @staticmethod
    def loop_bound_attainment(rng):
        worst = 0.0
        for _ in range(200):
            theta = rng.uniform(0, 2 * np.pi)
            phi = rng.uniform(0, np.pi / 2)
            report = clone_report(theta, (np.cos(phi), np.sin(phi)))
            worst = max(worst, abs((2 * report.fidelity_o - 1) ** 2 + (2 * report.fidelity_b - 1) ** 2 - 1))
        return worst

    @staticmethod
    def loop_covariance_relations(rng):
        worst = 0.0
        for _ in range(500):
            etas = rng.uniform(0, 1, 2)
            t = nosignalling.constrain_tensor(rng.uniform(-1, 1, 7))
            m = great_circle_bloch(rng.uniform(0, 2 * np.pi))
            worst = max(worst, nosignalling.covariance_residual(m, etas, t, rng.uniform(0, 2 * np.pi)))
        return worst

    @staticmethod
    def loop_no_signalling_violation(rng):
        smallest = np.inf
        for _ in range(200):
            etas = rng.uniform(0, 1, 2)
            t = rng.uniform(-1, 1, (3, 3))
            if abs(t[0, 0] - t[2, 2]) < 0.01:
                t[2, 2] = t[0, 0] + (0.01 if t[0, 0] <= 0.99 else -0.01)
            smallest = min(smallest, nosignalling.no_signalling_residual(etas, t))
        return smallest

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("check, loop", [
        (check_fidelity_law, loop_fidelity_law),
        (check_separability_ppt, loop_separability_ppt),
        (check_bound_attainment, loop_bound_attainment),
        (check_covariance_relations, loop_covariance_relations),
        (check_no_signalling_violation, loop_no_signalling_violation),
    ], ids=lambda value: getattr(value, "__name__", "").removeprefix("check_"))
    def test_batched_check_matches_per_sample_loop(self, check, loop, seed):
        measured = check(RunConfig(), np.random.default_rng(seed)).measured
        assert abs(measured - loop.__func__(np.random.default_rng(seed))) <= 1e-15
