import dataclasses
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circleclone import cloner, linalg, nosignalling, pauli, verify
from circleclone.pauli import great_circle_bloch
from circleclone.verify import (
    RunConfig,
    check_bloch_conjugation_consistency,
    check_bound_attainment,
    check_bound_soundness,
    check_circle_recovery,
    check_covariance_relations,
    check_eigenvalue_rotation_invariance,
    check_fidelity_law,
    check_isotropy_off_circle,
    check_kron_associativity,
    check_machine_covariance,
    check_machine_tensor_constraints,
    check_no_signalling_constraint,
    check_no_signalling_violation,
    check_on_circle_feasibility,
    check_oracle_partial_trace,
    check_partial_trace_state_contract,
    check_pauli_roundtrip,
    check_reduced_clone_oracle,
    check_rotation_composition,
    check_separability_ppt,
    reference_partial_trace,
    run_verification,
)


class TestRunConfig:
    @pytest.mark.parametrize("settings", [
        {"budget": 0},
        {"budget": 2.5},
        {"samples": 1},
        {"samples": -3},
        {"samples": 2.5},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"budget": True},
        {"samples": False},
    ], ids=lambda settings: ",".join(f"{key}={value}" for key, value in settings.items()))
    def test_rejects_what_the_cli_rejects(self, settings):
        with pytest.raises(ValueError):
            RunConfig(**settings)

    def test_accepts_valid_settings(self):
        RunConfig(budget=np.int64(10), samples=2)
        RunConfig(samples=0)


class TestRegistry:
    def test_checks_are_every_check_function_in_definition_order(self):
        # A check_* function defined after the CHECKS line would be missing from CHECKS.
        defined = [value for name, value in vars(verify).items() if name.startswith("check_")]
        assert list(verify.CHECKS) == defined

    def test_the_suite_names(self):
        assert [check.__name__.removeprefix("check_") for check in verify.CHECKS] == [
            "kron_associativity", "eigenvalue_rotation_invariance", "partial_trace_state_contract",
            "oracle_partial_trace", "bloch_conjugation_consistency", "pauli_roundtrip", "rotation_composition",
            "covariance_relations", "transcription_identity", "no_signalling_constraint",
            "no_signalling_violation", "bound_soundness", "correlation_rotation_group", "on_circle_feasibility",
            "circle_recovery", "clone_normalization", "isometry", "machine_no_signalling",
            "machine_tensor_constraints", "fidelity_law", "separability_ppt", "bound_attainment",
            "machine_covariance", "reduced_clone_oracle", "isotropy_on_circle", "isotropy_off_circle",
        ]

    def test_each_result_is_named_after_its_function(self):
        results = run_verification(RunConfig(samples=2))
        assert [result.name for result in results] == [check.__name__.removeprefix("check_")
                                                       for check in verify.CHECKS]

    @pytest.mark.parametrize("seed", [0, 11])
    def test_each_check_draws_from_its_own_generator(self, monkeypatch, seed):
        # A check measures the same value whatever runs before it: in reverse
        # order, or alone with the generator keyed by the seed and its name.
        config = RunConfig(seed=seed)
        measured = {result.name: result.measured for result in run_verification(config)}
        for check in verify.CHECKS:
            name = check.__name__.removeprefix("check_")
            rng = np.random.default_rng([seed, int.from_bytes(name.encode(), "little")])
            assert check(config, rng).measured == measured[name], name
        monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[::-1])
        assert {result.name: result.measured for result in run_verification(config)} == measured

    def test_output_does_not_depend_on_the_hash_seed(self):
        # A generator keyed by hash(name) would draw differently under each PYTHONHASHSEED.
        src, outputs = str(Path(__file__).resolve().parents[1] / "src"), []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-m", "circleclone", "verify", "--seed", "3"], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stdout + run.stderr
            # The per-check seconds stripped, as the golden verify outputs are.
            outputs.append(re.sub(r", [0-9.]+s\)$", ")", run.stdout, flags=re.MULTILINE))
        assert outputs[0] == outputs[1]


class TestReferencePartialTrace:
    # The oracle checks the factorization itself, without linalg: a wrong one raises, never reads the wrong entries.
    @pytest.mark.parametrize(("rho", "keep", "dims"), [
        (np.arange(64.0).reshape(8, 8), 0, [2, 2]),  # dims of a 4x4 matrix on an 8x8 one
        (np.zeros((4, 4)), 0, [2, 3]),  # the product 6 is not the size 4
        (np.zeros(4), 0, [2, 2]),
        (np.zeros((4, 4)), 0, [4, 1, 0]),
        (np.zeros((4, 4)), 0, [2.0, 2]),
        (np.zeros((4, 4)), 2, [2, 2]),
        (np.zeros((4, 4)), -1, [2, 2]),
        (np.zeros((4, 4)), (0, 0), [2, 2]),
        (np.zeros((4, 4)), 0.0, [2, 2]),
        (np.zeros((4, 4)), 0, [True, 4]),  # a bool is no dimension, though True * 4 is the size 4
        (np.zeros((4, 4)), True, [2, 2]),
    ], ids=["too-small", "product-mismatch", "not-a-matrix", "zero-dim", "float-dim", "keep-past-the-end",
            "negative-keep", "repeated-keep", "float-keep", "bool-dim", "bool-keep"])
    def test_rejects_a_bad_factorization(self, rho, keep, dims):
        with pytest.raises(ValueError):
            reference_partial_trace(rho, keep, dims)

    def test_traces_out_each_qubit_of_a_pair(self):
        rho = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(reference_partial_trace(rho, 0, [2, 2]), [[5, 9], [21, 25]])
        np.testing.assert_array_equal(reference_partial_trace(rho, np.int64(1), (np.int64(2), 2)),
                                      [[10, 12], [18, 20]])
        np.testing.assert_array_equal(reference_partial_trace(rho, (), [2, 2]), [[30]])

    @staticmethod
    def entrywise(rho, keep, dims):
        """The partial trace one output entry at a time, each a sum over the traced indices in order from zero."""
        traced = [i for i in range(len(dims)) if i not in keep]
        kept = list(itertools.product(*[range(dims[k]) for k in keep]))

        def flat(kept_index, traced_index):
            index = [0] * len(dims)
            for subsystem, value in zip(list(keep) + traced, kept_index + traced_index):
                index[subsystem] = value
            return int(np.ravel_multi_index(index, dims))

        out = np.zeros(rho.shape[:-2] + (len(kept),) * 2, dtype=complex)
        for (r, row), (c, col) in itertools.product(enumerate(kept), repeat=2):
            total = 0.0 + 0.0j
            for traced_index in itertools.product(*[range(dims[t]) for t in traced]):
                total += rho[..., flat(row, traced_index), flat(col, traced_index)]
            out[..., r, c] = total
        return out

    @pytest.mark.parametrize(("keep", "dims"), [
        ((0,), [2, 2, 2]), ((1,), [2, 2, 2]), ((0, 1), [2, 2, 2]), ((0, 2), [2, 2, 2]), ((), [2, 3]), ((1,), [3, 2]),
        ((0, 2), [2, 3, 2]), ((0, 1, 2), [2, 3, 2]),
    ])
    def test_block_gather_is_the_entrywise_sum_bit_for_bit(self, keep, dims):
        n = int(np.prod(dims))
        draws = np.random.default_rng(n + len(keep)).normal(size=(2, 5, n, n))
        rho = draws[0] + 1j * draws[1]
        expected = self.entrywise(rho, keep, dims)
        assert reference_partial_trace(rho, keep, dims).tobytes() == expected.tobytes()


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

    def test_starved_sampler_fails_after_every_attempt(self, monkeypatch):
        # No attempt is accepted: the check reports inf once all 50 * 2 attempts are drawn.
        monkeypatch.setattr(nosignalling, "positivity_matrix_up",
                            lambda etas, t: np.broadcast_to(-np.eye(4), np.shape(etas)[:-1] + (4, 4)))
        batched, looped = np.random.default_rng(3), np.random.default_rng(3)
        assert check_bound_soundness(RunConfig(samples=2), batched).measured == np.inf
        assert TestSampleStream.loop_bound_soundness(looped, target=2) == np.inf
        assert batched.random() == looped.random()


class TestSolverChecks:
    def test_on_circle_feasibility_measures_the_solve(self):
        # Solved to the gap, the on-circle optimum 0 is met far inside PSD_TOL.
        result = check_on_circle_feasibility(RunConfig(), np.random.default_rng(0))
        assert result.passed
        assert abs(result.measured) <= 1e-10

    @pytest.mark.parametrize("shift", [1e-6, -1e-6])
    def test_on_circle_feasibility_reads_both_ends_of_each_bracket(self, monkeypatch, shift):
        # A bracket moved up by 1e-6 claims a witness the circle does not have (its
        # lower end rises above 0): the upper end fails the check.  Moved down, the
        # lower end fails it.
        solve = nosignalling.eigenvalue_bracket

        def fed(etas, budget):
            bracket = solve(etas, budget)
            return dataclasses.replace(bracket, lower=bracket.lower + shift, upper=bracket.upper + shift)

        monkeypatch.setattr(nosignalling, "eigenvalue_bracket", fed)
        result = check_on_circle_feasibility(RunConfig(), np.random.default_rng(0))
        assert not result.passed and result.measured == pytest.approx(-1e-6, abs=1e-9)

    def test_circle_recovery_reads_both_ends_of_each_bracket(self, monkeypatch):
        # The solve certifies every bracket to the tolerance, so the check is fed brackets
        # with one end moved: an upper end 3e-3 above 1 fails it though every lower end
        # lies within 2e-3, and so does a lower end 3e-3 below 1.
        solve = nosignalling.radius_bracket
        for end in ("upper", "lower"):
            def fed(phi, radius_tol, budget, end=end):
                bracket = solve(phi, radius_tol=radius_tol, budget=budget)
                moved = getattr(bracket, end).copy()
                moved[2] = 1.003 if end == "upper" else 0.997
                return dataclasses.replace(bracket, **{end: moved})

            monkeypatch.setattr(nosignalling, "radius_bracket", fed)
            result = check_circle_recovery(RunConfig(), np.random.default_rng(0))
            assert not result.passed and result.measured == pytest.approx(3e-3, abs=1e-12), end


class TestIsotropyChecks:
    @pytest.mark.parametrize("samples", [2, 3, 4])
    def test_off_circle_anisotropy_shows_at_any_sample_count(self, samples):
        result = check_isotropy_off_circle(RunConfig(samples=samples), np.random.default_rng(0))
        assert result.passed
        assert result.measured == check_isotropy_off_circle(RunConfig(), np.random.default_rng(0)).measured


class FedDraws:
    """Feeds a check the given rows of draws: patches verify._uniform to return them in its one call."""

    def __init__(self, monkeypatch, rows):
        self.rows = np.asarray(rows, dtype=float)
        monkeypatch.setattr(verify, "_uniform", self.uniform)

    def uniform(self, rng, n, *ranges):
        assert (n, len(ranges)) == self.rows.shape
        return self.rows


class TestMachineTensorConstraints:
    # Directions near either axis, where the pair (cos phi, sin phi) rounded off the circle by
    # about 1e-16 moved t_xx - t_zz of the machine built from it past the 1e-12 threshold.
    NEAR_AXES = np.array([1e-9, 2.3e-6, 4.95e-5, np.pi / 2 - 1e-5, np.pi / 2 - 1e-7])

    @pytest.mark.parametrize("theta", [0.0, 0.9, 4.0])
    def test_passes_near_either_axis(self, monkeypatch, theta):
        rows = np.stack([self.NEAR_AXES, np.full(5, theta)], axis=-1)
        result = check_machine_tensor_constraints(RunConfig(samples=5), FedDraws(monkeypatch, rows))
        assert result.passed and result.measured <= 1e-15, result.measured

    @pytest.mark.parametrize("seed", [418981098, 1092769217])
    def test_suite_passes_at_seeds_that_drew_near_an_axis(self, seed):
        results = run_verification(RunConfig(seed=seed))
        assert len(results) == 26
        assert [result.name for result in results if not result.passed] == []

    def test_fails_for_a_flipped_basis_image_entry(self, monkeypatch):
        images = cloner._basis_images

        def flipped(coeffs):
            v = images(coeffs)
            v[..., 0b011, 0] *= -1
            return v

        monkeypatch.setattr(cloner, "_basis_images", flipped)
        result = check_machine_tensor_constraints(RunConfig(), np.random.default_rng(0))
        assert not result.passed and result.measured > 0.5, result.measured


class TestMachineChecksNearTheAxes:
    # Within about 1e-8 of either axis, a machine built from the rounded pair (cos phi, sin phi)
    # missed the fidelity law and covariance by about 4e-9, past their 1e-10 thresholds.  Every
    # machine check on the circle builds its machine from cloner._circle_coefficients(phi).
    NEAR_AXES = np.array([1e-8, np.pi / 2 - 1e-8])

    @pytest.mark.parametrize("theta", [0.9, 4.0])
    def test_fidelity_law_passes(self, monkeypatch, theta):
        rows = np.stack([self.NEAR_AXES, np.full(2, theta)], axis=-1)
        result = check_fidelity_law(RunConfig(samples=2), FedDraws(monkeypatch, rows))
        assert result.passed and result.measured <= 1e-15, result.measured

    @pytest.mark.parametrize("theta", [0.9, 4.0])
    def test_machine_covariance_passes(self, monkeypatch, theta):
        rows = np.stack([self.NEAR_AXES, np.full(2, theta), np.full(2, 1.3)], axis=-1)
        result = check_machine_covariance(RunConfig(samples=2), FedDraws(monkeypatch, rows))
        assert result.passed and result.measured <= 1e-15, result.measured

    @pytest.mark.parametrize("theta", [0.9, 4.0])
    def test_separability_ppt_passes(self, monkeypatch, theta):
        rows = np.stack([np.full(2, theta), self.NEAR_AXES], axis=-1)
        result = check_separability_ppt(RunConfig(samples=2), FedDraws(monkeypatch, rows))
        assert result.passed and result.measured <= 1e-15, result.measured

    @pytest.mark.parametrize("theta", [0.9, 4.0])
    def test_bound_attainment_passes(self, monkeypatch, theta):
        rows = np.stack([np.full(2, theta), self.NEAR_AXES], axis=-1)
        result = check_bound_attainment(RunConfig(samples=2), FedDraws(monkeypatch, rows))
        assert result.passed and result.measured <= 1e-15, result.measured


def scalar_hermitian(rng, n):
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return (m + m.conj().T) / 2


def scalar_density(rng, n):
    m = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestSampleStream:
    """A batched check draws its samples in one call and sees the numbers the per-sample loop saw."""

    def test_vector_bounds_draw_the_interleaved_scalar_stream(self):
        low = np.array([0.0, 0.0, -1.0, 0.0])
        high = np.array([1.0, np.pi / 2, 1.0, 2 * np.pi])
        batched = np.random.default_rng(5).uniform(low, high, (50, 4))
        rng = np.random.default_rng(5)
        looped = np.array([[rng.uniform(lo, hi) for lo, hi in zip(low, high)] for _ in range(50)])
        assert np.array_equal(batched, looped)

    @pytest.mark.parametrize("n", [1, 50, 200])
    def test_scaled_draws_are_the_generators_uniform_draws(self, n):
        # _uniform scales rng.random as Generator.uniform does, low + (high - low) * u, and leaves
        # the generator where rng.uniform(low, high, (n, k)) would.
        ranges = (verify.UNIT, verify.QUARTER, verify.ENTRY, verify.ANGLE, (-8.0, -1.0))
        low, high = np.array(ranges).T
        scaled, drawn = np.random.default_rng(7), np.random.default_rng(7)
        assert np.array_equal(verify._uniform(scaled, n, *ranges), drawn.uniform(low, high, (n, len(ranges))))
        assert scaled.random() == drawn.random()

    # Each loop below is the per-sample form of a check: the same draws, in the
    # same order, each fed to one scalar library call.

    @staticmethod
    def loop_fidelity_law(rng):
        worst = 0.0
        for _ in range(200):
            phi = rng.uniform(0, np.pi / 2)
            report = cloner.clone_report(rng.uniform(0, 2 * np.pi), cloner._circle_coefficients(phi))
            worst = max(worst, abs(report.fidelity_o - (1 + np.cos(phi)) / 2),
                        abs(report.fidelity_b - (1 + np.sin(phi)) / 2))
        return worst

    @staticmethod
    def loop_separability_ppt(rng):
        worst = 0.0
        for _ in range(500):
            theta = rng.uniform(0, 2 * np.pi)
            phi = rng.uniform(0, np.pi / 2)
            worst = max(worst, abs(cloner.clone_report(theta, cloner._circle_coefficients(phi)).ppt_min_eigenvalue))
        return worst

    @staticmethod
    def loop_bound_attainment(rng):
        worst = 0.0
        for _ in range(200):
            theta = rng.uniform(0, 2 * np.pi)
            phi = rng.uniform(0, np.pi / 2)
            report = cloner.clone_report(theta, cloner._circle_coefficients(phi))
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
    def loop_no_signalling_constraint(rng):
        worst = 0.0
        for _ in range(200):
            etas = rng.uniform(0, 1, 2)
            t = nosignalling.constrain_tensor(rng.uniform(-1, 1, 7))
            worst = max(worst, nosignalling.no_signalling_residual(etas, t))
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

    @staticmethod
    def loop_kron_associativity(rng):
        worst = 0.0
        for _ in range(50):
            a, b, c = (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)) for _ in range(3))
            left = linalg.kron(linalg.kron(a, b), c)
            right = linalg.kron(a, linalg.kron(b, c))
            worst = max(worst, float(np.max(np.abs(left - right))))
        return worst

    @staticmethod
    def loop_eigenvalue_rotation_invariance(rng):
        worst = 0.0
        for _ in range(200):
            m = scalar_hermitian(rng, 4)
            u = linalg.kron(pauli.rotation_unitary(rng.uniform(0, 2 * np.pi)),
                            pauli.rotation_unitary(rng.uniform(0, 2 * np.pi)))
            before = linalg.hermitian_eigenvalues(m)
            after = linalg.hermitian_eigenvalues(u @ m @ u.conj().T)
            worst = max(worst, float(np.max(np.abs(before - after))))
        return worst

    @staticmethod
    def loop_partial_trace_state_contract(rng):
        worst = 0.0
        for _ in range(200):
            rho = scalar_density(rng, 4)
            for keep in (0, 1):
                reduced = linalg.partial_trace(rho, keep, [2, 2])
                worst = max(worst, linalg.hermiticity_defect(reduced))
                worst = max(worst, abs(float(np.trace(reduced).real) - 1.0))
        return worst

    @staticmethod
    def loop_oracle_partial_trace(rng):
        worst = 0.0
        for _ in range(100):
            rho = scalar_hermitian(rng, 8)
            for keep in (0, 1, 2, (0, 1), (0, 2), (1, 2)):
                fast = linalg.partial_trace(rho, keep, [2, 2, 2])
                slow = reference_partial_trace(rho, keep, [2, 2, 2])
                worst = max(worst, float(np.max(np.abs(fast - slow))))
        return worst

    @staticmethod
    def loop_bloch_conjugation_consistency(rng):
        worst = 0.0
        for _ in range(200):
            m = rng.uniform(-1, 1, 3)
            m *= rng.uniform(0, 1) / max(np.linalg.norm(m), 1e-12)
            beta = rng.uniform(0, 2 * np.pi)
            u = pauli.rotation_unitary(beta)
            conjugated = pauli.density_to_bloch(u @ pauli.bloch_to_density(m) @ u.conj().T)
            worst = max(worst, float(np.max(np.abs(conjugated - pauli.rotate_bloch(m, beta)))))
        return worst

    @staticmethod
    def loop_pauli_roundtrip(rng):
        worst = 0.0
        for _ in range(200):
            m = scalar_hermitian(rng, 4)
            worst = max(worst, float(np.max(np.abs(pauli.pauli_decompose(m).reconstruct() - m))))
        return worst

    @staticmethod
    def loop_rotation_composition(rng):
        worst = 0.0
        for _ in range(200):
            b1, b2 = rng.uniform(0, 2 * np.pi, 2)
            product = pauli.rotation_unitary(b1) @ pauli.rotation_unitary(b2)
            total = pauli.rotation_unitary(b1 + b2)
            worst = max(worst, min(float(np.max(np.abs(product - total))),
                                   float(np.max(np.abs(product + total)))))
            m = rng.uniform(-1, 1, 3)
            two_step = pauli.rotate_bloch(pauli.rotate_bloch(m, b1), b2)
            worst = max(worst, float(np.max(np.abs(two_step - pauli.rotate_bloch(m, b1 + b2)))))
        return worst

    @staticmethod
    def loop_bound_soundness(rng, target=200):
        worst = -np.inf
        accepted = 0
        attempts = 0
        while accepted < target and attempts < 50 * target:
            attempts += 1
            if rng.uniform() < 0.5:
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
            worst = np.inf
        return worst

    @staticmethod
    def loop_reduced_clone_oracle(rng):
        worst = 0.0
        for _ in range(200):
            coeffs = cloner.coefficients(rng.uniform(0, 1, 2))
            state = cloner.clone(rng.uniform(0, 2 * np.pi), coeffs)
            rho = np.outer(state, state.conj())
            rho_o, rho_b, rho_ob = cloner.reduced_clones(state)
            worst = max(worst, float(np.max(np.abs(rho_o - reference_partial_trace(rho, 0, [2, 2, 2])))))
            worst = max(worst, float(np.max(np.abs(rho_b - reference_partial_trace(rho, 1, [2, 2, 2])))))
            worst = max(worst, float(np.max(np.abs(rho_ob - reference_partial_trace(rho, (0, 1), [2, 2, 2])))))
        return worst

    # Checks whose every sample goes through the loop's elementwise arithmetic
    # and kernels, so the two must agree bit for bit.  bound_soundness squares
    # with np.square and raises 10 to a power with the array ufunc, where the
    # loop takes the scalar pow: the two may differ in the last bit.
    SAME_ARITHMETIC = (
        check_kron_associativity,
        check_eigenvalue_rotation_invariance,
        check_partial_trace_state_contract,
        check_oracle_partial_trace,
        check_bloch_conjugation_consistency,
        check_pauli_roundtrip,
        check_rotation_composition,
        check_reduced_clone_oracle,
    )

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("check, loop", [
        (check_fidelity_law, loop_fidelity_law),
        (check_separability_ppt, loop_separability_ppt),
        (check_bound_attainment, loop_bound_attainment),
        (check_covariance_relations, loop_covariance_relations),
        (check_no_signalling_constraint, loop_no_signalling_constraint),
        (check_no_signalling_violation, loop_no_signalling_violation),
        (check_kron_associativity, loop_kron_associativity),
        (check_eigenvalue_rotation_invariance, loop_eigenvalue_rotation_invariance),
        (check_partial_trace_state_contract, loop_partial_trace_state_contract),
        (check_oracle_partial_trace, loop_oracle_partial_trace),
        (check_bloch_conjugation_consistency, loop_bloch_conjugation_consistency),
        (check_pauli_roundtrip, loop_pauli_roundtrip),
        (check_rotation_composition, loop_rotation_composition),
        (check_bound_soundness, loop_bound_soundness),
        (check_reduced_clone_oracle, loop_reduced_clone_oracle),
    ], ids=lambda value: getattr(value, "__name__", "").removeprefix("check_"))
    def test_batched_check_matches_per_sample_loop(self, check, loop, seed):
        batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        measured = check(RunConfig(), batched).measured
        expected = loop.__func__(looped)
        if check in self.SAME_ARITHMETIC:
            assert measured == expected
        else:
            assert abs(measured - expected) <= 1e-15
        # Both leave the generator at the same point of its stream, but for
        # bound_soundness, whose blocks may draw past the attempt its loop stops at.
        if check is not check_bound_soundness:
            assert batched.random() == looped.random()
