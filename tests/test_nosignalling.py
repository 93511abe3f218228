import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circleclone

from circleclone.cloner import clone, coefficients, reduced_clones
from circleclone.linalg import is_psd
from circleclone.nosignalling import (
    DEFAULT_BUDGET,
    DEFAULT_RADIUS_TOL,
    DOWN,
    GAP_TOL,
    LEFT,
    RIGHT,
    UP,
    UP_SLOPES,
    _newton_solve,
    _up_matrix,
    bound_rhs,
    build_joint_output,
    constrain_tensor,
    covariance_residual,
    eigenvalue_bracket,
    feasibility,
    free_parameters,
    machine_witness_tensor,
    max_radius,
    minimize,
    no_signalling_residual,
    positivity_matrix_up,
    radius_bracket,
    rotate_correlations,
)
from circleclone.pauli import great_circle_bloch, pauli_decompose

RNG = np.random.default_rng(42)

SYMMETRIC_ETA = 2**-0.5


def random_constrained(rng):
    return constrain_tensor(rng.uniform(-1, 1, 7))


# Closed-form quarter-, half- and three-quarter-turn actions on the
# correlation tensor, written independently of rotate_correlations.  The
# half-turn is also cross-checked below as two composed quarter turns.
def quarter_turn(t):
    return np.array([
        [t[2, 2], t[2, 1], -t[2, 0]],
        [t[1, 2], t[1, 1], -t[1, 0]],
        [-t[0, 2], -t[0, 1], t[0, 0]],
    ])


def half_turn(t):
    return np.array([
        [t[0, 0], -t[0, 1], t[0, 2]],
        [-t[1, 0], t[1, 1], -t[1, 2]],
        [t[2, 0], -t[2, 1], t[2, 2]],
    ])


def three_quarter_turn(t):
    return np.array([
        [t[2, 2], -t[2, 1], -t[2, 0]],
        [-t[1, 2], t[1, 1], t[1, 0]],
        [-t[0, 2], t[0, 1], t[0, 0]],
    ])


class TestConstrainTensor:
    def test_zeros(self):
        assert np.array_equal(constrain_tensor(np.zeros(7)), np.zeros((3, 3)))

    def test_diagonal_propagation(self):
        t = constrain_tensor([0.5, 0, 0, 0, 0, 0, 0])
        assert t[0, 0] == 0.5
        assert t[2, 2] == 0.5

    def test_antisymmetric_propagation(self):
        t = constrain_tensor([0, 0.2, 0, 0, 0, 0, 0])
        assert t[0, 2] == 0.2
        assert t[2, 0] == -0.2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            constrain_tensor([1.5, 0, 0, 0, 0, 0, 0])

    def test_round_trip_with_free_parameters(self):
        free = RNG.uniform(-1, 1, 7)
        assert np.allclose(free_parameters(constrain_tensor(free)), free, atol=1e-15)

    @pytest.mark.parametrize("call", [free_parameters, lambda t: rotate_correlations(t, 0.3),
                                      lambda t: positivity_matrix_up((0.5, 0.5), t)],
                             ids=["free_parameters", "rotate_correlations", "positivity_matrix_up"])
    def test_rejects_a_tensor_that_is_not_3x3(self, call):
        with pytest.raises(ValueError, match=r"correlation tensor must be 3x3, got shape \(5,\)"):
            call(np.zeros(5))


class TestBuildJointOutput:
    def test_isotropic_point(self):
        rho = build_joint_output(UP, (0, 0), np.zeros((3, 3)))
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-15)

    def test_decomposition_round_trip(self):
        t = np.diag([1.0, 1.0, 1.0])
        dec = pauli_decompose(build_joint_output(UP, (1, 1), t))
        assert np.allclose(dec.a, [0, 0, 1], atol=1e-14)
        assert np.allclose(dec.b, [0, 0, 1], atol=1e-14)
        assert np.allclose(dec.t, t, atol=1e-14)

    def test_decomposition_round_trip_generic(self):
        m = great_circle_bloch(RNG.uniform(0, 2 * np.pi))
        etas = RNG.uniform(0, 1, 2)
        t = random_constrained(RNG)
        dec = pauli_decompose(build_joint_output(m, etas, t))
        assert np.allclose(dec.a, etas[0] * m, atol=1e-14)
        assert np.allclose(dec.b, etas[1] * m, atol=1e-14)
        assert np.allclose(dec.t, t, atol=1e-14)

    def test_machine_tensor_is_positive(self):
        etas = (SYMMETRIC_ETA, SYMMETRIC_ETA)
        rho_ob = reduced_clones(clone(0.0, coefficients(etas)))[2]
        t = pauli_decompose(rho_ob).t
        rebuilt = build_joint_output(UP, etas, t)
        assert np.max(np.abs(rebuilt - rho_ob)) < 1e-12
        psd, lam = is_psd(rebuilt, tol=1e-10)
        assert psd
        assert lam >= -1e-10

    def test_off_circle_rejected(self):
        with pytest.raises(ValueError, match="off great circle"):
            build_joint_output([0, 1, 0], (0.5, 0.5), np.zeros((3, 3)))


class TestRotateCorrelations:
    def test_zero_angle_identity(self):
        t = RNG.uniform(-1, 1, (3, 3))
        assert np.array_equal(rotate_correlations(t, 0.0), t)

    def test_quarter_turn_relations(self):
        t = RNG.uniform(-1, 1, (3, 3))
        assert np.allclose(rotate_correlations(t, np.pi / 2), quarter_turn(t), atol=1e-15)

    def test_half_turn_relations(self):
        t = RNG.uniform(-1, 1, (3, 3))
        assert np.allclose(rotate_correlations(t, np.pi), half_turn(t), atol=1e-15)

    def test_three_quarter_turn_relations(self):
        t = RNG.uniform(-1, 1, (3, 3))
        assert np.allclose(rotate_correlations(t, 3 * np.pi / 2), three_quarter_turn(t), atol=1e-15)

    def test_half_turn_is_two_quarter_turns(self):
        t = RNG.uniform(-1, 1, (3, 3))
        assert np.allclose(quarter_turn(quarter_turn(t)), half_turn(t), atol=1e-15)
        assert np.allclose(quarter_turn(half_turn(t)), three_quarter_turn(t), atol=1e-15)

    def test_group_action(self):
        for _ in range(100):
            t = RNG.uniform(-1, 1, (3, 3))
            b1, b2 = RNG.uniform(0, 2 * np.pi, 2)
            two_step = rotate_correlations(rotate_correlations(t, b1), b2)
            assert np.max(np.abs(two_step - rotate_correlations(t, b1 + b2))) < 1e-12


class TestCovarianceResidual:
    def test_random_point(self):
        t = RNG.uniform(-1, 1, (3, 3))
        assert covariance_residual(UP, (0.3, 0.4), t, 0.7) <= 1e-12

    def test_isotropic_state(self):
        for beta in RNG.uniform(0, 2 * np.pi, 5):
            assert covariance_residual(UP, (0, 0), np.zeros((3, 3)), beta) <= 1e-15

    def test_cardinal_point(self):
        assert covariance_residual(RIGHT, (1, 0), np.zeros((3, 3)), np.pi) <= 1e-12

    def test_many_random(self):
        for _ in range(100):
            m = great_circle_bloch(RNG.uniform(0, 2 * np.pi))
            etas = RNG.uniform(0, 1, 2)
            t = RNG.uniform(-1, 1, (3, 3))
            beta = RNG.uniform(0, 2 * np.pi)
            assert covariance_residual(m, etas, t, beta) <= 1e-12


class TestNoSignallingResidual:
    def test_zero_tensor(self):
        assert no_signalling_residual((0.3, 0.9), np.zeros((3, 3))) <= 1e-15

    def test_constrained_tensor(self):
        t = np.array([
            [0.3, 0.4, 0.1],
            [-0.2, 0.7, 0.25],
            [-0.1, -0.6, 0.3],
        ])
        assert no_signalling_residual((0.5, 0.5), t) <= 1e-12

    def test_violation_is_reported(self):
        t = np.zeros((3, 3))
        t[0, 0] = 1.0  # t_xx != t_zz
        residual = no_signalling_residual((0.2, 0.2), t)
        assert residual == pytest.approx(0.5, abs=1e-12)

    def test_zero_iff_constraints(self):
        for _ in range(50):
            t = RNG.uniform(-1, 1, (3, 3))
            residual = no_signalling_residual(RNG.uniform(0, 1, 2), t)
            constrained = abs(t[0, 0] - t[2, 2]) < 1e-13 and abs(t[0, 2] + t[2, 0]) < 1e-13
            assert (residual <= 1e-12) == constrained


class TestPositivityMatrixUp:
    def test_isotropic_point(self):
        assert np.allclose(positivity_matrix_up((0, 0), np.zeros((3, 3))), np.eye(4) / 4, atol=1e-15)

    def test_entrywise_evaluation(self):
        eta = SYMMETRIC_ETA
        t = constrain_tensor([0.5, 0, 0, 0, 0, 0, 0])
        expected = 0.25 * np.array([
            [1 + 2 * eta + 0.5, 0, 0, 0.5],
            [0, 1 - 0.5, 0.5, 0],
            [0, 0.5, 1 - 0.5, 0],
            [0.5, 0, 0, 1 - 2 * eta + 0.5],
        ], dtype=complex)
        assert np.max(np.abs(positivity_matrix_up((eta, eta), t) - expected)) < 1e-15
        assert np.max(np.abs(positivity_matrix_up((eta, eta), t)
                             - build_joint_output(UP, (eta, eta), t))) < 1e-14

    def test_matches_pauli_route(self):
        for _ in range(100):
            etas = RNG.uniform(0, 1, 2)
            t = random_constrained(RNG)
            gap = np.max(np.abs(positivity_matrix_up(etas, t) - build_joint_output(UP, etas, t)))
            assert gap < 1e-14

    def test_rejects_unconstrained(self):
        t = np.zeros((3, 3))
        t[0, 0] = 0.5  # t_zz left at 0
        with pytest.raises(ValueError, match="no-signalling"):
            positivity_matrix_up((0.1, 0.1), t)


class TestBoundRhs:
    def test_zero_tensor(self):
        assert bound_rhs(np.zeros((3, 3))) == 1.0

    def test_full_yy(self):
        t = np.zeros((3, 3))
        t[1, 1] = 1.0
        assert bound_rhs(t) == 0.0

    def test_mixed_entries(self):
        t = np.zeros((3, 3))
        t[0, 1] = 0.5
        t[1, 0] = 0.5
        assert bound_rhs(t) == 0.5

    def test_ignores_constrained_entries(self):
        t = constrain_tensor([0.9, 0.7, 0, 0, 0, 0, 0])
        assert bound_rhs(t) == 1.0


class TestBoundSoundness:
    def test_positive_outputs_respect_bound(self):
        count = 0
        while count < 60:
            radius = RNG.uniform(0, 1)
            phi = RNG.uniform(0, np.pi / 2)
            etas = (radius * np.cos(phi), radius * np.sin(phi))
            free = free_parameters(machine_witness_tensor(etas))
            free = np.clip(free + RNG.uniform(-0.15, 0.15, 7), -1, 1)
            t = constrain_tensor(free)
            if not is_psd(positivity_matrix_up(etas, t), tol=1e-10)[0]:
                continue
            count += 1
            assert etas[0] ** 2 + etas[1] ** 2 <= bound_rhs(t) + 1e-8


class TestMachineWitness:
    def test_on_circle_value(self):
        t = machine_witness_tensor((0.6, 0.8))
        assert np.allclose(t, np.diag([0.48, 0, 0.48]), atol=1e-12)

    def test_interior_certificate(self):
        for _ in range(20):
            radius = RNG.uniform(0, 1)
            phi = RNG.uniform(0, np.pi / 2)
            etas = (radius * np.cos(phi), radius * np.sin(phi))
            t = machine_witness_tensor(etas)
            psd, lam = is_psd(positivity_matrix_up(etas, t), tol=1e-10)
            assert psd, f"witness not PSD at {etas}: {lam}"

    def test_outside_disk_rejected(self):
        with pytest.raises(ValueError, match="unit disk"):
            machine_witness_tensor((0.9, 0.9))

    def test_closed_form_is_the_scaled_machine_tensor(self):
        for phi in np.linspace(0, np.pi / 2, 50):
            for radius in (0.3, 0.75, 1.0):
                etas = radius * np.array([np.cos(phi), np.sin(phi)])
                machine = radius * pauli_decompose(reduced_clones(clone(0.0, coefficients(etas / radius)))[2]).t
                assert np.max(np.abs(machine_witness_tensor(etas) - machine)) <= 1e-14


class TestFeasibility:
    def test_origin_short_circuit(self):
        assert feasibility((0, 0)) is True
        bracket = eigenvalue_bracket((0, 0))
        assert bracket.lower == pytest.approx(0.25, abs=1e-12)
        assert bracket.iterations == 1

    def test_symmetric_boundary_point(self):
        assert feasibility((SYMMETRIC_ETA, SYMMETRIC_ETA)) is True
        assert eigenvalue_bracket((SYMMETRIC_ETA, SYMMETRIC_ETA)).lower >= -1e-9

    def test_beyond_circle_infeasible(self):
        assert feasibility((0.8, 0.8), budget=800) is False
        bracket = eigenvalue_bracket((0.8, 0.8), budget=800)
        assert bracket.lower < -1e-4
        # the witness of the lower end always satisfies the no-signalling equalities exactly
        witness = constrain_tensor(bracket.free)
        assert witness[0, 0] == witness[2, 2]
        assert witness[0, 2] == -witness[2, 0]

    def test_verdict_consistency(self):
        bracket = eigenvalue_bracket((0.4, 0.7), budget=500)
        assert feasibility((0.4, 0.7), budget=500) is bool(bracket.lower >= -1e-9)
        assert bracket.iterations <= 500

    def test_starved_budget_is_undecided(self):
        # On the circle, so feasible: 15 iterates leave a bracket that straddles -1e-9 and proves neither verdict
        # (the solve decides it after about 24).
        assert feasibility((0.6, 0.8), budget=15) is None
        bracket = eigenvalue_bracket((0.6, 0.8), budget=15)
        assert bracket.lower < -1e-9 <= bracket.upper
        assert feasibility((0.6, 0.8)) is True

    @pytest.mark.parametrize("budget", [1, 5, 10, 20, 30, 35, 40, DEFAULT_BUDGET])
    def test_verdict_follows_the_bracket(self, budget):
        # No budget makes an on-circle point infeasible; a verdict is given only where one end decides it.
        for etas in [(0.6, 0.8), (SYMMETRIC_ETA, SYMMETRIC_ETA), (0.8, 0.8)]:
            bracket = eigenvalue_bracket(etas, budget)
            verdict = feasibility(etas, budget=budget)
            expected = True if bracket.lower >= -1e-9 else False if bracket.upper < -1e-9 else None
            assert verdict is expected, (etas, budget)
            if etas != (0.8, 0.8):
                assert verdict is not False, (etas, budget)

    def test_takes_one_pair(self):
        with pytest.raises(ValueError, match="one pair .*eigenvalue_bracket takes a stack"):
            feasibility([(0.6, 0.8), (0.8, 0.8)])


def north_pole_terms(etas):
    """A0 and the A_i of positivity_matrix_up(etas, t(f)) = A0 + sum_i f_i A_i."""
    a0 = positivity_matrix_up(etas, np.zeros((3, 3)))
    return a0, [positivity_matrix_up(etas, constrain_tensor(unit)) - a0 for unit in np.eye(7)]


class TestCertificates:
    @pytest.mark.parametrize("etas", [(0.8, 0.8), (0.7071, 0.7072)])
    def test_infeasible_verdict_is_dual_certified(self, etas):
        assert feasibility(etas) is False
        bracket = eigenvalue_bracket(etas)
        assert bracket.upper < -1e-9
        w = bracket.certificate
        assert np.max(np.abs(w - w.conj().T)) <= 1e-15
        assert np.linalg.eigvalsh(w)[0] >= 0.0
        assert abs(np.trace(w).real - 1.0) <= 1e-12
        a0, slopes = north_pole_terms(etas)
        bound = np.trace(w @ a0).real + sum(abs(np.trace(w @ a).real) for a in slopes)
        assert abs(bound - bracket.upper) <= 1e-12

    # The bracket assertions take one stacked solve; TestLockstep pins each row to its solo solve.
    def test_bounds_bracket_every_verdict(self):
        points = np.concatenate([[(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.6, 0.8), (0.8, 0.8)],
                                 RNG.uniform(0, 1, (30, 2))])
        bracket = eigenvalue_bracket(points)
        for k, etas in enumerate(points):
            assert bracket.lower[k] <= bracket.upper[k], etas

    def test_brackets_close_to_the_gap(self):
        # The face-reduced certificate closes every bracket, on the circle and off it, to GAP_TOL.
        circle = np.linspace(0, np.pi / 2, 9)
        points = np.concatenate([np.stack([np.cos(circle), np.sin(circle)], axis=-1),
                                 np.random.default_rng(7).uniform(0, 1, (40, 2))])
        bracket = eigenvalue_bracket(points)
        assert np.all(bracket.lower <= bracket.upper) and np.all(bracket.upper - bracket.lower <= GAP_TOL)
        assert np.all(np.abs(bracket.lower[:len(circle)]) <= GAP_TOL)

    def test_feasible_witness_is_positive(self):
        phi, radius = np.meshgrid(np.linspace(0, np.pi / 2, 7), (0.5, 0.999, 1.0), indexing="ij")
        points = np.stack([radius * np.cos(phi), radius * np.sin(phi)], axis=-1).reshape(-1, 2)
        bracket = eigenvalue_bracket(points)
        for k, etas in enumerate(points):
            assert feasibility(tuple(etas)) is True, etas
            assert bracket.upper[k] >= -1e-9
            witness = constrain_tensor(bracket.free[k])
            assert np.linalg.eigvalsh(positivity_matrix_up(etas, witness))[0] >= -1e-9


def test_import_leaves_scipy_out():
    src = Path(circleclone.__file__).resolve().parents[1]
    code = "import sys, circleclone; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    completed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                               env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert completed.stdout.strip() == "[]"


class TestMaxRadius:
    def test_axis_directions(self):
        assert max_radius(0.0) == pytest.approx(1.0, abs=1e-12)
        assert max_radius(np.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_direction(self):
        found = max_radius(np.pi / 4, budget=800)
        assert abs(found - 1.0) <= 2e-3

    @pytest.mark.parametrize("phi", np.linspace(0, np.pi / 2, 9))  # the directions of bound-sweep --n-phi 9
    def test_certified_bracket_holds_the_circle(self, phi):
        bracket = radius_bracket(phi)
        assert max_radius(phi) == bracket.lower
        assert bracket.lower <= 1 + 1e-12 and 1 <= bracket.upper
        assert bracket.upper - bracket.lower <= DEFAULT_RADIUS_TOL
        # _up_matrix, not positivity_matrix_up: on the axes the lower end is 1 + 2.2e-16.
        witness = _up_matrix(bracket.lower * np.cos(phi), bracket.lower * np.sin(phi), bracket.free)
        assert np.linalg.eigvalsh(witness)[0] >= -1e-12
        a0, slopes = north_pole_terms((0.0, 0.0))
        direction = positivity_matrix_up((np.cos(phi), np.sin(phi)), np.zeros((3, 3))) - a0
        assert_certified(bracket.upper, bracket.certificate, a0, slopes, direction)

    def test_takes_one_direction(self):
        with pytest.raises(ValueError, match="one direction.*radius_bracket takes a stack"):
            max_radius(np.array([0.0, np.pi / 4]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            max_radius(-0.1)
        with pytest.raises(ValueError):
            max_radius(2.0)
        with pytest.raises(ValueError, match="got 2.0"):
            radius_bracket([0.0, 2.0, np.nan])

    @pytest.mark.parametrize("radius_tol", [np.inf, -1.0, np.nan, 0.0])
    def test_rejects_bad_tolerance(self, radius_tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            radius_bracket(0.3, radius_tol=radius_tol)

    def test_one_stack_matches_one_solve_per_direction(self):
        phi = np.linspace(0, np.pi / 2, 9)  # the directions of bound-sweep --n-phi 9
        stacked = radius_bracket(phi)
        assert stacked.lower.shape == stacked.iterations.shape == (9,)
        assert stacked.free.shape == (9, 7) and stacked.certificate.shape == (9, 4, 4)
        a0, slopes = north_pole_terms((0.0, 0.0))
        for k, direction in enumerate(phi):
            alone = radius_bracket(direction)
            found = max_radius(direction)
            assert type(found) is float and found == alone.lower
            assert stacked.iterations[k] == alone.iterations
            assert abs(stacked.lower[k] - alone.lower) <= 1e-15
            g = positivity_matrix_up((np.cos(direction), np.sin(direction)), np.zeros((3, 3))) - a0
            assert_certified(stacked.upper[k], stacked.certificate[k], a0, slopes, g)

    def test_tight_tolerance_brackets_still_hold_the_circle(self):
        # bound-sweep --n-phi 33 --radius-tol 1e-8: every direction stops on its certified
        # bracket, which is at most the tolerance wide and holds 1.
        bracket = radius_bracket(np.linspace(0, np.pi / 2, 33), radius_tol=1e-8)
        assert np.all(bracket.lower <= 1 + 1e-15) and np.all(1 <= bracket.upper)
        assert np.all(bracket.upper - bracket.lower <= 1e-8)

    @pytest.mark.parametrize("radius_tol", [1e-3, 1e-6])
    def test_every_bracket_is_at_most_radius_tol_wide(self, radius_tol):
        bracket = radius_bracket(np.linspace(0, np.pi / 2, 33), radius_tol=radius_tol)
        assert np.all(bracket.lower <= 1 + 1e-15) and np.all(1 <= bracket.upper)
        assert np.all(bracket.upper - bracket.lower <= radius_tol)

    def test_unreachable_tolerance_stops_on_precision_loss(self):
        # No bracket can be certified 1e-16 wide: each direction stops once its Newton
        # step no longer moves the radius, not at the budget, and still holds 1.
        bracket = radius_bracket(np.linspace(0, np.pi / 2, 9), radius_tol=1e-16)
        assert np.all(bracket.iterations <= 100), bracket.iterations
        assert np.all(bracket.lower <= 1 + 1e-15) and np.all(1 <= bracket.upper)


def assert_certified(upper, w, a0, slopes, g):
    """``upper`` is the bound (Tr(W A0) + sum_i |Tr(W A_i)|) / -Tr(W G) of a PSD unit-trace W."""
    assert np.isfinite(upper)
    assert np.linalg.eigvalsh(w)[0] >= 0.0
    assert abs(np.trace(w).real - 1.0) <= 1e-12
    bound = ((np.trace(w @ a0).real + sum(abs(np.trace(w @ a).real) for a in slopes))
             / -np.trace(w @ g).real)
    assert abs(bound - upper) <= 1e-12


class TestLockstep:
    # Eigenvalue rows (G = -I) at a feasible point and at (0.8, 0.8), radius
    # rows (G = B(phi)) along two rays, all solved to GAP_TOL, and an
    # eigenvalue row started above the boundary, where S is not positive
    # definite: their solves stop at iterates 29, 28, 28, 28 and 1.
    POINTS = np.array([(0.3, 0.4), (0.8, 0.8), (0.6, 0.8)])
    DIRECTIONS = np.array([np.pi / 8, np.pi / 4])

    def stack(self):
        """F0, G and x0 of the rows: the first two points, the rays, then the last point."""
        a0 = [positivity_matrix_up(etas, np.zeros((3, 3))) for etas in self.POINTS]
        x0 = [np.linalg.eigvalsh(a)[0] - 1.0 for a in a0]
        x0[-1] += 1.5
        origin = positivity_matrix_up((0.0, 0.0), np.zeros((3, 3)))
        rays = [positivity_matrix_up((np.cos(phi), np.sin(phi)), np.zeros((3, 3))) - origin
                for phi in self.DIRECTIONS]
        f0 = np.array(a0[:2] + [origin] * len(rays) + a0[2:])
        g = np.array([-np.eye(4)] * 2 + rays + [-np.eye(4)])
        return f0, g, np.array(x0[:2] + [0.0] * len(rays) + x0[2:])

    def test_each_row_is_its_own_solve(self):
        f0, g, x0 = self.stack()
        slopes = north_pole_terms((0.0, 0.0))[1]  # the A_i are the same in every row
        stacked = minimize(f0, UP_SLOPES, g, x0, DEFAULT_BUDGET, GAP_TOL)
        assert len(set(stacked.iterations.tolist())) >= 3, stacked.iterations
        for k in range(len(x0)):
            alone = minimize(f0[k], UP_SLOPES, g[k], x0[k], DEFAULT_BUDGET, GAP_TOL)
            assert np.ndim(alone.lower) == 0 and alone.free.shape == (7,)
            assert stacked.iterations[k] == alone.iterations
            assert stacked.lower[k] == alone.lower or abs(stacked.lower[k] - alone.lower) <= 1e-15
            if np.isfinite(alone.upper):
                assert_certified(stacked.upper[k], stacked.certificate[k], f0[k], slopes, g[k])
        # The start above the boundary stops at once with nothing bracketed,
        # and none of its stand-in arithmetic reaches the other rows.
        assert stacked.iterations[-1] == 1
        assert stacked.lower[-1] == -np.inf and stacked.upper[-1] == np.inf
        assert np.isfinite(stacked.lower[:-1]).all() and np.isfinite(stacked.upper[:-1]).all()
        assert np.isfinite(stacked.free).all() and np.isfinite(stacked.certificate[:-1]).all()

    def test_singular_newton_system_stops_only_its_row(self):
        hessian = np.array([np.eye(2), np.ones((2, 2)), 2 * np.eye(2)])
        steps = _newton_solve(hessian, np.ones((3, 2)))
        assert np.isnan(steps[1]).all()
        np.testing.assert_array_equal(steps[[0, 2]], [[1.0, 1.0], [0.5, 0.5]])

    def test_eigenvalue_bracket_takes_the_stack(self):
        a0 = np.array([positivity_matrix_up(etas, np.zeros((3, 3))) for etas in self.POINTS])
        stacked = minimize(a0, UP_SLOPES, -np.eye(4), np.linalg.eigvalsh(a0)[:, 0] - 1.0, DEFAULT_BUDGET, GAP_TOL)
        brackets = eigenvalue_bracket(self.POINTS)
        np.testing.assert_array_equal(brackets.iterations, stacked.iterations)
        assert np.max(np.abs(brackets.lower - stacked.lower)) <= 1e-15
        assert feasibility(self.POINTS[0]) is True and feasibility(self.POINTS[1]) is False
