import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import circleclone

from circleclone import cloner, nosignalling
from circleclone.cli import _directions
from circleclone.cloner import clone, coefficients, reduced_clones
from circleclone.linalg import PSD_TOL, is_psd
from circleclone.nosignalling import (
    DEFAULT_BUDGET,
    DEFAULT_RADIUS_TOL,
    DOWN,
    ETA_SLOPES,
    FREE_PARAMETERS,
    GAP_TOL,
    LEFT,
    ORIGIN,
    REAL_PARAMETERS,
    REAL_SLOPES,
    RIGHT,
    UP,
    UP_SLOPES,
    _BLOCKS,
    _FLOOR_SHARE,
    _dual_bound,
    _face_certificate,
    _newton_solve,
    _project,
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
        with pytest.raises(ValueError, match=r"expected a correlation tensor \(\.\.\., 3, 3\), got shape \(5,\)"):
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

    def test_equals_half_the_larger_constraint_gap(self):
        # The law: max(|t_xx - t_zz|, |t_xz + t_zx|) / 2, on 2000 seeded pairs and tensors, half of them constrained.
        rng = np.random.default_rng(2000)
        etas = rng.uniform(0, 1, (2000, 2))
        t = rng.uniform(-1, 1, (2000, 3, 3))
        t[1000:] = constrain_tensor(free_parameters(t[1000:]))
        law = np.maximum(np.abs(t[:, 0, 0] - t[:, 2, 2]), np.abs(t[:, 0, 2] + t[:, 2, 0])) / 2
        assert np.all(law[1000:] == 0.0)
        np.testing.assert_allclose(no_signalling_residual(etas, t), law, rtol=0, atol=4.5e-16)


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

    def test_yz_and_zy_entries(self):
        t = np.zeros((3, 3))
        t[1, 2] = 0.5
        t[2, 1] = 0.5
        assert bound_rhs(t) == 0.5

    def test_all_five_y_entries(self):
        # Dyadic entries, some negative, so the sum is exact: 1 - (1/4 + 1/16 + 1/16 + 1/64 + 9/64) = 15/32.
        t = constrain_tensor([0.75, -0.5, 0.5, 0.25, -0.25, 0.125, -0.375])
        assert bound_rhs(t) == 15 / 32

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

    # Synthetic brackets at the edges of the undecided band: real solves reach it only at a few budgets.
    @pytest.mark.parametrize(("lower", "upper", "verdict"), [
        (-1e-8, 5e-10, None),  # straddles -PSD_TOL, with the upper end below +PSD_TOL
        (-1.0, -PSD_TOL, None),  # an upper end at -PSD_TOL proves nothing
        (-1.0, -2e-9, False),
        (-PSD_TOL, 1.0, True),
    ])
    def test_verdict_at_the_edges_of_the_undecided_band(self, monkeypatch, lower, upper, verdict):
        def bracket(etas, budget):
            return nosignalling.Bracket(np.float64(lower), np.float64(upper), np.zeros(len(FREE_PARAMETERS)),
                                        np.full((4, 4), np.nan), np.int64(1))

        monkeypatch.setattr(nosignalling, "eigenvalue_bracket", bracket)
        assert feasibility((0.6, 0.8)) is verdict

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

    def test_verify_circle_points_are_pinned(self):
        # verify's on_circle_feasibility solve, at phi = 0, pi/4 and pi/3: iterations exactly, each end to 1e-14.
        phi = np.array([0.0, np.pi / 4, np.pi / 3])
        bracket = eigenvalue_bracket(np.stack([np.cos(phi), np.sin(phi)], axis=-1))
        np.testing.assert_array_equal(bracket.iterations, [1, 28, 26])
        assert np.max(np.abs(bracket.lower - [0.0, -8.2904e-12, -3.4623e-11])) <= 1e-14
        assert np.max(np.abs(bracket.upper - [2.5e-13, 7.8098e-11, 5.6235e-11])) <= 1e-14

    def test_feasible_witness_is_positive(self):
        phi, radius = np.meshgrid(np.linspace(0, np.pi / 2, 7), (0.5, 0.999, 1.0), indexing="ij")
        points = np.stack([radius * np.cos(phi), radius * np.sin(phi)], axis=-1).reshape(-1, 2)
        bracket = eigenvalue_bracket(points)
        for k, etas in enumerate(points):
            assert feasibility(tuple(etas)) is True, etas
            assert bracket.upper[k] >= -1e-9
            witness = constrain_tensor(bracket.free[k])
            assert np.linalg.eigvalsh(positivity_matrix_up(etas, witness))[0] >= -1e-9


def circle_certificate(e):
    """W(e) = (1/4) [[(1-e1)(1-e2), 0, 0, -e1 e2], [0, (1-e1)(1+e2), -e1 e2, 0], [0, -e1 e2, (1+e1)(1-e2), 0],
    [-e1 e2, 0, 0, (1+e1)(1+e2)]] for directions e (..., 2): for a unit e it proves e . eta <= 1."""
    e1, e2 = np.moveaxis(np.asarray(e, dtype=float), -1, 0)
    w = np.zeros(np.shape(e1) + (4, 4))
    w[..., range(4), range(4)] = np.stack([(1 - e1) * (1 - e2), (1 - e1) * (1 + e2),
                                           (1 + e1) * (1 - e2), (1 + e1) * (1 + e2)], axis=-1)
    w[..., range(4), range(3, -1, -1)] = -(e1 * e2)[..., None]
    return w / 4


class TestCircleCertificate:
    def test_identities_on_unit_directions(self):
        # Tr W = 1, Tr(W A_i) = 0 and Tr(W E_k) = -e_k / 4, so Tr(W S) = (1 - e . eta) / 4; W is PSD for unit e.
        angle = np.random.default_rng(500).uniform(0, 2 * np.pi, 500)
        e = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        w = circle_certificate(e)
        assert np.max(np.abs(np.trace(w, axis1=-2, axis2=-1) - 1.0)) <= 4.5e-16
        assert np.max(np.abs(np.einsum("nab,iba->ni", w, UP_SLOPES))) <= 4.5e-16
        assert np.max(np.abs(np.einsum("nab,kba->nk", w, ETA_SLOPES) + e / 4)) <= 4.5e-16
        assert np.linalg.eigvalsh(w)[:, 0].min() >= -4.5e-16

    def test_the_solver_certificates_are_the_circle_certificate(self):
        # At bound-sweep's nine directions and radius_tol 1e-8; 1.55e-9 measured.
        phi = np.linspace(0, np.pi / 2, 9)
        certificate = radius_bracket(phi, 1e-8).certificate
        assert np.max(np.abs(certificate - circle_certificate(np.stack([np.cos(phi), np.sin(phi)], axis=-1)))) <= 2e-9


def test_import_leaves_scipy_out():
    src = Path(circleclone.__file__).resolve().parents[1]
    code = "import sys, circleclone; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    completed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                               env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert completed.stdout.strip() == "[]"


def sibling_imports(module):
    """The circleclone modules that ``module``'s source imports from, read off its syntax tree."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["circleclone" if node.level else None, node.module]))
            imported |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return {name.split(".")[1] for name in imported if name.startswith("circleclone.")}


@pytest.mark.parametrize("module", [nosignalling, cloner], ids=["bound", "machine"])
def test_the_machine_and_bound_halves_import_only_linalg_and_pauli(module):
    # Neither half imports the other: nosignalling nothing of cloner, cloner nothing of nosignalling.
    assert sibling_imports(module) == {"linalg", "pauli"}


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

    @pytest.mark.parametrize("budget", [2.5, 0, -3, "5", True])
    def test_rejects_a_budget_that_is_not_a_positive_integer(self, budget):
        with pytest.raises(ValueError, match="budget must be a positive integer"):
            radius_bracket(0.3, 1e-3, budget)

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

    # The same sweep's iterates, pinned: iterations exactly, each end to 1e-12. Directions phi and pi/2 - phi (eta1
    # and eta2 swapped) give the same bracket to within 6e-16, so the first 17 rows pin all 33.
    TIGHT_BRACKETS = [
        (1.00000000000000, 1.00000000000100, 4),
        (0.99999999939887, 1.00000000003444, 22),
        (0.99999999890070, 1.00000000013872, 22),
        (0.99999999848497, 1.00000000031609, 22),
        (0.99999999813622, 1.00000000056394, 22),
        (0.99999999784263, 1.00000000087534, 22),
        (0.99999999759506, 1.00000000123981, 22),
        (0.99999999738636, 1.00000000164422, 22),
        (0.99999999721090, 1.00000000207354, 22),
        (0.99999999706423, 1.00000000251150, 22),
        (0.99999999694287, 1.00000000294100, 22),
        (0.99999999684407, 1.00000000334458, 22),
        (0.99999999676576, 1.00000000370496, 22),
        (0.99999999670633, 1.00000000400573, 22),
        (0.99999999666465, 1.00000000423236, 22),
        (0.99999999663994, 1.00000000437333, 22),
        (0.99999999663175, 1.00000000442118, 22),
    ]

    def test_tight_tolerance_brackets_are_pinned(self):
        bracket = radius_bracket(np.linspace(0, np.pi / 2, 33), radius_tol=1e-8)
        expected = np.array(self.TIGHT_BRACKETS + self.TIGHT_BRACKETS[-2::-1])
        np.testing.assert_array_equal(bracket.iterations, expected[:, 2])
        assert np.max(np.abs(bracket.lower - expected[:, 0])) <= 1e-12
        assert np.max(np.abs(bracket.upper - expected[:, 1])) <= 1e-12

    @pytest.mark.parametrize("radius_tol", [1e-3, 1e-6])
    def test_every_bracket_is_at_most_radius_tol_wide(self, radius_tol):
        bracket = radius_bracket(np.linspace(0, np.pi / 2, 33), radius_tol=radius_tol)
        assert np.all(bracket.lower <= 1 + 1e-15) and np.all(1 <= bracket.upper)
        assert np.all(bracket.upper - bracket.lower <= radius_tol)

    def test_unreachable_tolerance_stops_on_precision_loss(self):
        # No bracket can be certified 1e-16 wide: each direction stops once its Newton
        # step no longer moves the radius, not at the budget, and still holds 1.
        phi = np.linspace(0, np.pi / 2, 9)
        bracket = radius_bracket(phi, radius_tol=1e-16)
        assert np.all(bracket.iterations <= 100), bracket.iterations
        assert np.all(bracket.lower <= 1 + 1e-15) and np.all(1 <= bracket.upper)
        # Near the optimum S is nearly singular; no certificate has an eigenvalue below the rounding level.
        a0, slopes = north_pole_terms((0.0, 0.0))
        for k, direction in enumerate(phi):
            g = positivity_matrix_up((np.cos(direction), np.sin(direction)), np.zeros((3, 3))) - a0
            assert_certified(bracket.upper[k], bracket.certificate[k], a0, slopes, g)

    @pytest.fixture(scope="class")
    def sweeps(self):
        """bound-sweep --n-phi 129 at --radius-tol 1e-12 and at 1e-16."""
        phi = _directions(129)[0]
        return {tol: radius_bracket(phi, radius_tol=tol) for tol in (1e-12, 1e-16)}

    def test_the_1e_12_sweep_meets_its_tolerance(self, sweeps):
        # The certificate floor, a hundredth of the tolerance, lifts each upper end by far less than the tolerance,
        # so every row stops on its certified width, not on precision loss, and holds 1.
        bracket = sweeps[1e-12]
        assert np.all(bracket.upper - bracket.lower <= 1e-12)
        assert np.all(bracket.lower <= 1) and np.all(1 <= bracket.upper)

    @pytest.mark.parametrize("tol", [1e-12, 1e-16])
    def test_every_certificate_is_exactly_psd(self, sweeps, tol):
        # In exact arithmetic, by the two 2x2 blocks of each X-shaped W.  The floor's 1e-15 clamp keeps it so at
        # 1e-16; a floor of tol / 100 there leaves 106 of the 129 certificates indefinite.
        for w in sweeps[tol].certificate:
            np.testing.assert_array_equal(w, laid_out(w[_BLOCKS]))
            np.testing.assert_array_equal(w, w.T)
            for block in w[_BLOCKS]:
                (a, b), (_, d) = ([Fraction(entry) for entry in row] for row in block)
                assert a >= 0 and d >= 0 and a * d - b * b >= 0, block


def assert_certified(upper, w, a0, slopes, g):
    """``upper`` is the bound (Tr(W A0) + sum_i |Tr(W A_i)|) / -Tr(W G) of a PSD unit-trace W."""
    assert np.isfinite(upper)
    assert np.linalg.eigvalsh(w)[0] >= 0.0
    assert abs(np.trace(w).real - 1.0) <= 1e-12
    bound = ((np.trace(w @ a0).real + sum(abs(np.trace(w @ a).real) for a in slopes))
             / -np.trace(w @ g).real)
    assert abs(bound - upper) <= 1e-12


def laid_out(blocks):
    """The 4x4 matrices (..., 4, 4) whose two 2x2 blocks are ``blocks`` (..., 2, 2, 2), zero off the blocks."""
    full = np.zeros(np.shape(blocks)[:-3] + (4, 4))
    full[_BLOCKS] = blocks
    return full


BRACKET_FIELDS = ("lower", "upper", "free", "certificate", "iterations")


def assert_row_is_its_solve(stacked, k, alone):
    """Row k of a stacked Bracket equals the one-row Bracket ``alone`` in all five fields, bit for bit."""
    for field in BRACKET_FIELDS:
        assert np.array_equal(getattr(stacked, field)[k], getattr(alone, field), equal_nan=True), (k, field)


class TestLockstep:
    # Eigenvalue rows (G = -I) at a feasible point and at (0.8, 0.8), radius
    # rows (G = B(phi)) along three rays, all solved to GAP_TOL, and an
    # eigenvalue row started above the boundary, where S is not positive
    # definite: their solves stop at iterates 29, 28, 4, 28, 28 and 1.  The
    # rows are real and block diagonal, as minimize takes them: the two blocks
    # of the real parts of the north-pole terms, solved over the REAL_SLOPES.
    POINTS = np.array([(0.3, 0.4), (0.8, 0.8), (0.6, 0.8)])
    DIRECTIONS = np.array([0.0, np.pi / 8, np.pi / 4])

    def stack(self):
        """F0, G (4x4) and x0 of the rows: the first two points, the rays, then the last point."""
        a0 = [positivity_matrix_up(etas, np.zeros((3, 3))).real for etas in self.POINTS]
        x0 = [np.linalg.eigvalsh(a)[0] - 1.0 for a in a0]
        x0[-1] += 1.5
        origin = positivity_matrix_up((0.0, 0.0), np.zeros((3, 3))).real
        rays = [positivity_matrix_up((np.cos(phi), np.sin(phi)), np.zeros((3, 3))).real - origin
                for phi in self.DIRECTIONS]
        f0 = np.array(a0[:2] + [origin] * len(rays) + a0[2:])
        g = np.array([-np.eye(4)] * 2 + rays + [-np.eye(4)])
        return f0, g, np.array(x0[:2] + [0.0] * len(rays) + x0[2:])

    def test_each_row_is_its_own_solve(self):
        f0, g, x0 = self.stack()
        assert np.array_equal(laid_out(f0[_BLOCKS]), f0) and np.array_equal(laid_out(g[_BLOCKS]), g)  # X-shaped
        slopes = north_pole_terms((0.0, 0.0))[1]  # all seven A_i, the same in every row
        stacked = minimize(f0[_BLOCKS], REAL_SLOPES, g[_BLOCKS], x0, DEFAULT_BUDGET, GAP_TOL)
        assert len(set(stacked.iterations.tolist())) >= 3, stacked.iterations
        assert stacked.certificate.dtype == np.float64 and stacked.certificate.shape == (6, 2, 2, 2)
        for k in range(len(x0)):
            alone = minimize(f0[k][_BLOCKS], REAL_SLOPES, g[k][_BLOCKS], x0[k], DEFAULT_BUDGET, GAP_TOL)
            assert np.ndim(alone.lower) == 0 and alone.free.shape == (2,)
            assert_row_is_its_solve(stacked, k, alone)
            if np.isfinite(alone.upper):
                assert_certified(stacked.upper[k], laid_out(stacked.certificate[k]), f0[k], slopes, g[k])
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

    @pytest.mark.parametrize(("call", "batch"), [
        (lambda: eigenvalue_bracket(np.zeros((0, 2))), (0,)),
        (lambda: radius_bracket(np.zeros(0)), (0,)),
        (lambda: radius_bracket(np.zeros((2, 0))), (2, 0)),
    ], ids=["no-pairs", "no-rays", "two-rows-of-no-rays"])
    def test_an_empty_stack_stops_before_its_first_iterate(self, monkeypatch, call, batch):
        # minimize leaves its loop once no row is live; without that exit an
        # empty stack would run all DEFAULT_BUDGET iterates on empty arrays.
        systems = []
        monkeypatch.setattr(nosignalling, "_newton_solve",
                            lambda hessian, gradient: systems.append(len(hessian)) or _newton_solve(hessian, gradient))
        bracket = call()
        assert systems == []
        for field, shape in [("lower", batch), ("upper", batch), ("iterations", batch),
                             ("free", batch + (7,)), ("certificate", batch + (4, 4))]:
            assert getattr(bracket, field).shape == shape, field
        assert bracket.iterations.dtype.kind == "i" and bracket.certificate.dtype == np.float64

    def test_eigenvalue_bracket_takes_the_stack(self):
        a0 = np.array([positivity_matrix_up(etas, np.zeros((3, 3))).real for etas in self.POINTS])[_BLOCKS]
        x0 = np.linalg.eigvalsh(a0)[..., 0].min(axis=-1) - 1.0
        stacked = minimize(a0, REAL_SLOPES, -np.eye(2), x0, DEFAULT_BUDGET, GAP_TOL)
        brackets = eigenvalue_bracket(self.POINTS)
        for field in ("lower", "upper", "iterations"):
            assert np.array_equal(getattr(brackets, field), getattr(stacked, field)), field
        assert np.array_equal(brackets.free[:, REAL_PARAMETERS], stacked.free)
        assert np.array_equal(brackets.certificate, laid_out(stacked.certificate))
        assert feasibility(self.POINTS[0]) is True and feasibility(self.POINTS[1]) is False

    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    @pytest.mark.parametrize("n", [2, 3, 9, 33])
    def test_every_stacked_ray_is_its_own_solve(self, n, tol):
        # F0 and the terms are laid out once per solve, so a row's sums do not
        # depend on the rows beside it or on when they stop.
        phi = np.linspace(0, np.pi / 2, n)
        stacked = radius_bracket(phi, tol)
        for k in range(n):
            assert_row_is_its_solve(stacked, k, radius_bracket(phi[k], tol))

    @pytest.mark.parametrize("pairs", [1, 2, 3, 4, 5])
    def test_every_stacked_pair_is_its_own_solve(self, pairs):
        etas = np.random.default_rng(pairs).uniform(0, 1, (pairs, 2))
        stacked = eigenvalue_bracket(etas)
        for k in range(pairs):
            assert_row_is_its_solve(stacked, k, eigenvalue_bracket(etas[k]))

    def test_a0_is_the_north_pole_output_at_zero_entries(self):
        # eigenvalue_bracket's A0 = ORIGIN + eta1 E1 + eta2 E2, the same bits as
        # the entrywise assembly, on seeded pairs and the unit-square corners.
        etas = np.concatenate([np.random.default_rng(5).uniform(0, 1, (20000, 2)),
                               [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]])
        a0 = ORIGIN + etas[:, 0, None, None] * ETA_SLOPES[0] + etas[:, 1, None, None] * ETA_SLOPES[1]
        assert a0.tobytes() == positivity_matrix_up(etas, np.zeros((3, 3))).real.tobytes()

    @pytest.mark.parametrize("part", ["F0", "slopes", "G", "x0"])
    def test_rejects_complex_input(self, part):
        # minimize solves real problems only: the brackets pass it the blocks of the real parts and the REAL_SLOPES.
        problem = {"F0": ORIGIN[_BLOCKS], "slopes": REAL_SLOPES, "G": ETA_SLOPES[0][_BLOCKS], "x0": np.zeros(1)}
        problem[part] = problem[part] + 0j
        with pytest.raises(ValueError, match="real problems only"):
            minimize(problem["F0"], problem["slopes"], problem["G"], problem["x0"], DEFAULT_BUDGET, 1e-3)


class TestRealSolve:
    """The brackets solve the real X-shaped problem on t_xx and t_yy; each is checked on the full seven-entry one."""

    IMAGINARY = [3, 4, 5, 6]  # t_xy, t_yx, t_yz and t_zy
    DROPPED = [k for k in range(len(FREE_PARAMETERS)) if k not in REAL_PARAMETERS]
    ZZ = np.outer([1, -1, -1, 1], [1, -1, -1, 1])  # conjugation by Z (x) Z = diag(1, -1, -1, 1), entrywise

    def test_conjugation_negates_the_imaginary_entries(self):
        rng = np.random.default_rng(23)
        etas, free = rng.uniform(0, 1, (50, 2)), rng.uniform(-1, 1, (50, 7))
        mirrored = free.copy()
        mirrored[:, self.IMAGINARY] *= -1
        np.testing.assert_array_equal(_up_matrix(etas[:, 0], etas[:, 1], mirrored),
                                      _up_matrix(etas[:, 0], etas[:, 1], free).conj())

    def test_z_z_conjugation_negates_t_xz_t_yz_and_t_zy(self):
        rng = np.random.default_rng(29)
        etas, free = rng.uniform(0, 1, (50, 2)), rng.uniform(-1, 1, (50, 7))
        mirrored = free.copy()
        mirrored[:, [1, 5, 6]] *= -1
        np.testing.assert_array_equal(_up_matrix(etas[:, 0], etas[:, 1], mirrored),
                                      _up_matrix(etas[:, 0], etas[:, 1], free) * self.ZZ)

    def test_kept_slopes_are_real_and_x_shaped(self):
        assert [FREE_PARAMETERS[k] for k in REAL_PARAMETERS] == ["t_xx", "t_yy"]
        assert not UP_SLOPES[REAL_PARAMETERS].imag.any() and UP_SLOPES[REAL_PARAMETERS].real.any(axis=(1, 2)).all()
        assert not UP_SLOPES[self.IMAGINARY].real.any() and UP_SLOPES[self.IMAGINARY].imag.any(axis=(1, 2)).all()
        # Z (x) Z keeps the entries within the blocks and negates those between them.
        for k, slope in enumerate(UP_SLOPES):
            np.testing.assert_array_equal(slope * self.ZZ, -slope if k in (1, 5, 6) else slope)
        assert REAL_SLOPES.dtype == ORIGIN.dtype == ETA_SLOPES.dtype == np.float64
        assert REAL_SLOPES.shape == (2, 2, 2, 2)
        np.testing.assert_array_equal(laid_out(REAL_SLOPES), UP_SLOPES[REAL_PARAMETERS].real)
        np.testing.assert_array_equal(laid_out(ORIGIN[_BLOCKS]), ORIGIN)
        np.testing.assert_array_equal(laid_out(ETA_SLOPES[_BLOCKS]), ETA_SLOPES)
        # ORIGIN and ETA_SLOPES are the whole of A00, E1 and E2: their imaginary parts are zero.
        np.testing.assert_array_equal(ORIGIN, _up_matrix(0.0, 0.0, np.zeros(7)))
        np.testing.assert_array_equal(ETA_SLOPES, [_up_matrix(*unit, np.zeros(7)) - ORIGIN for unit in np.eye(2)])

    def assert_real_bracket(self, bracket):
        # The five dropped entries, t_xz among them, and the certificates' entries off the blocks are exact zeros.
        assert bracket.free.dtype == np.float64 and (bracket.free[..., self.DROPPED] == 0.0).all()
        assert bracket.certificate.dtype == np.float64 and bracket.certificate.shape[-2:] == (4, 4)
        np.testing.assert_array_equal(bracket.certificate, laid_out(bracket.certificate[_BLOCKS]))

    def test_eigenvalue_bracket_holds_the_full_problem(self):
        etas = np.random.default_rng(0).uniform(0, 1, (200, 2))
        bracket = eigenvalue_bracket(etas)
        self.assert_real_bracket(bracket)
        assert np.all(bracket.upper - bracket.lower <= GAP_TOL)
        # the lower end is the smallest eigenvalue of the complex output at the free entries it reports
        lowest = np.linalg.eigvalsh(_up_matrix(etas[:, 0], etas[:, 1], bracket.free))[:, 0]
        assert np.max(np.abs(lowest - bracket.lower)) <= 1e-14
        # the upper end is proved over all seven free entries
        for k, point in enumerate(etas):
            a0, slopes = north_pole_terms(point)
            assert_certified(bracket.upper[k], bracket.certificate[k], a0, slopes, -np.eye(4))

    def test_radius_bracket_holds_the_full_problem(self):
        phi = np.linspace(0, np.pi / 2, 33)
        bracket = radius_bracket(phi, radius_tol=1e-8)
        self.assert_real_bracket(bracket)
        # at r = lower the complex output at the free entries is on the boundary: its smallest eigenvalue is zero
        lowest = np.linalg.eigvalsh(_up_matrix(bracket.lower * np.cos(phi), bracket.lower * np.sin(phi),
                                               bracket.free))[:, 0]
        assert np.max(np.abs(lowest)) <= 1e-14
        a0, slopes = north_pole_terms((0.0, 0.0))
        for k, direction in enumerate(phi):
            g = positivity_matrix_up((np.cos(direction), np.sin(direction)), np.zeros((3, 3))) - a0
            assert_certified(bracket.upper[k], bracket.certificate[k], a0, slopes, g)

    def test_a_bracket_that_certified_nothing_is_nan_on_and_off_the_blocks(self):
        bracket = radius_bracket(np.array([0.0, np.pi / 4]), budget=1)
        assert np.isinf(bracket.upper).all() and np.isnan(bracket.certificate).all()

    def terms(self, etas):
        """(A_1, A_2, G, F0) of the eigenvalue problem at etas as minimize lays them out: the REAL_SLOPES, -I, A0."""
        a0 = _up_matrix(*etas, np.zeros(7)).real[_BLOCKS]
        return np.concatenate([REAL_SLOPES, -np.broadcast_to(np.eye(2), (1, 2, 2, 2)), a0[None]])

    def near_optimum(self, etas):
        """Eigenvectors of S's blocks just inside the eigenvalue optimum at etas, and V^T B V for every term B.

        Real arithmetic; each block of S has a nearly zero eigenvalue, where the face certificate is made.
        """
        bracket = eigenvalue_bracket(etas)
        s = (_up_matrix(*etas, bracket.free) - (bracket.lower - 1e-9) * np.eye(4)).real[_BLOCKS]
        _, vectors = np.linalg.eigh(s)
        return vectors, vectors.swapaxes(-2, -1) @ self.terms(etas) @ vectors

    def test_face_certificate_of_a_real_stack(self):
        vectors, projected = self.near_optimum((0.6, 0.8))
        face, traces = _face_certificate(vectors[None], projected[None], _FLOOR_SHARE)
        assert face.dtype == np.float64 and face.shape == (1, 2, 2, 2) and np.isfinite(face).all()
        assert traces.shape == (1, 4) and np.isfinite(traces).all()
        assert np.linalg.eigvalsh(laid_out(face[0]))[0] >= 0.0
        assert abs(np.trace(laid_out(face[0])) - 1.0) <= 1e-12
        bound = _dual_bound(traces)[0]
        lower = eigenvalue_bracket((0.6, 0.8)).lower
        assert lower <= bound <= lower + 1e-8

    def test_face_certificate_rows_that_certify_nothing(self):
        # Row 1's design is zero, so its least-squares system is singular (the stack's solve falls back to one
        # system at a time); in row 3, Tr(u_b u_b^T B) is (1, -1) for A_1, (0, 0) for A_2 and (1, 1) for G, which
        # ask for w_1 = w_2 and w_1 + w_2 = -1: both weights -1/2 clip to zero.  Both rows come out NaN, W and
        # traces, and every other row is bit for bit its one-row call.
        clipped = np.zeros((4, 2, 2, 2))
        clipped[:3, :, 0, 0] = [[1.0, -1.0], [0.0, 0.0], [1.0, 1.0]]
        identity = np.broadcast_to(np.eye(2), (2, 2, 2))
        rows = [self.near_optimum((0.6, 0.8)), (identity, np.zeros((4, 2, 2, 2))),
                self.near_optimum((0.8, 0.8)), (identity, clipped), self.near_optimum((0.3, 0.4))]
        vectors, projected = (np.array(part) for part in zip(*rows))
        face, traces = _face_certificate(vectors, projected, _FLOOR_SHARE)
        assert np.isnan(face[[1, 3]]).all() and np.isnan(traces[[1, 3]]).all()
        for k in (0, 2, 4):
            alone, alone_traces = (part[0] for part in _face_certificate(vectors[k:k + 1], projected[k:k + 1],
                                                                         _FLOOR_SHARE))
            assert np.isfinite(alone).all() and face[k].tobytes() == alone.tobytes(), k
            assert traces[k].tobytes() == alone_traces.tobytes(), k

    def test_face_certificate_traces_are_those_of_its_w(self):
        # The traces read off V^T B V, floor included, are Tr(W B) of the returned W, B in the original basis.
        points = [(0.6, 0.8), (0.8, 0.8), (0.3, 0.4), (0.9, 0.1), (0.0, 1.0)]
        vectors, projected = (np.array(part) for part in zip(*map(self.near_optimum, points)))
        face, traces = _face_certificate(vectors, projected, _FLOOR_SHARE)
        terms = np.array([self.terms(etas) for etas in points])
        # Worst error measured here and over 40 more pairs: 2.2e-16.  The floor moves a trace of G = -I by 1e-12,
        # and of F0 by 2.5e-13.
        np.testing.assert_allclose(traces, np.einsum("rbij,rtbji->rt", face, terms), rtol=0, atol=1e-15)


class TestProjection:
    """An iterate's one projection gives every trace minimize uses: Tr(S^-1 B) for every term, and both bounds."""

    # Worst errors measured over 200 seeds of each stack shape below, 24000 rows in all: 2.7e-14 in a trace of
    # W = S^-1 / Tr S^-1 (the terms' entries are up to about 10), and 8.6e-15 in a bound, relative to the bound
    # with every trace taken absolute.
    TRACE_ATOL = 1e-13
    BOUND_RTOL = 3e-14

    @pytest.mark.parametrize("blocks, size", [(2, 2), (3, 3), (1, 4)])
    def test_dual_bound_of_the_projected_traces_is_that_of_s_inverse_over_its_trace(self, blocks, size):
        rng = np.random.default_rng(blocks * 10 + size)
        rows, count = 40, 3
        draws = rng.normal(size=(rows, count + 2, blocks, size, size))
        terms = draws + draws.swapaxes(-2, -1)  # (A_1, ..., A_k, G, F0), real symmetric
        factors = rng.normal(size=(2, rows, blocks, size, size))
        s, negative = factors @ factors.swapaxes(-2, -1) + np.eye(size)  # both positive definite
        terms[:, -2] = -negative
        terms[-1, -2] = negative[-1]  # Tr(W G) > 0: the last row certifies nothing
        slack, vectors = np.linalg.eigh(s)
        traces = _project(vectors, 1.0 / slack, terms)[2]
        w = np.linalg.inv(s)
        w /= np.trace(w, axis1=-2, axis2=-1).sum(axis=-1)[:, None, None, None]
        explicit = np.einsum("rbij,rtbji->rt", w, terms)
        # The projected traces are those of S^-1, W's times Tr S^-1: a scale the bound drops.
        total = (1.0 / slack).sum(axis=(-2, -1))
        np.testing.assert_allclose(traces / total[:, None], explicit, rtol=0, atol=self.TRACE_ATOL)
        assert (explicit[:-1, -2] < 0).all() and explicit[-1, -2] > 0
        absolute = np.abs(explicit[:, :-2]).sum(axis=-1)
        expected = (explicit[:, -1] + absolute) / -explicit[:, -2]
        scale = (np.abs(explicit[:, -1]) + absolute) / -explicit[:, -2]
        bound = _dual_bound(traces)
        assert bound[-1] == np.inf
        assert np.max(np.abs(bound - expected)[:-1] / scale[:-1]) <= self.BOUND_RTOL


def block_oracle(etas, steps=100):
    """lambda*(eta) and its maximiser (c*, d*), by nested ternary search, sharing no code with minimize or LAPACK.

    lambda* = max over (c, d) in [-1, 1]^2 of min((1 + c - hypot(A, c - d)) / 4, (1 - c - hypot(B, c + d)) / 4),
    with A = eta1 + eta2 and B = eta1 - eta2: the smaller of the two blocks' smaller eigenvalues at t_xx = c and
    t_yy = d.  Both are concave in (c, d), so the inner maximum over d is concave in c.
    """
    a, b = etas[..., 0] + etas[..., 1], etas[..., 0] - etas[..., 1]

    def smaller(c, d):
        return np.minimum(1 + c - np.hypot(a, c - d), 1 - c - np.hypot(b, c + d)) / 4

    def ternary(value):
        lo, hi = -np.ones(len(etas)), np.ones(len(etas))
        for _ in range(steps):
            left, right = (2 * lo + hi) / 3, (lo + 2 * hi) / 3
            rising = value(left) < value(right)  # the maximum lies right of left
            lo, hi = np.where(rising, left, lo), np.where(rising, hi, right)
        return (lo + hi) / 2

    def best_d(c):
        return ternary(lambda d: smaller(c, d))

    c = ternary(lambda c: smaller(c, best_d(c)))
    d = best_d(c)
    return smaller(c, d), c, d


class TestBlockOracle:
    """The closed-form optimum of the two blocks, found by search, checks the barrier solve independently."""

    CIRCLE = np.linspace(0, np.pi / 2, 9)
    ETAS = np.concatenate([np.random.default_rng(31).uniform(0, 1, (300, 2)),
                           np.stack([np.cos(CIRCLE), np.sin(CIRCLE)], axis=-1)])

    @pytest.fixture(scope="class")
    def oracle(self):
        return block_oracle(self.ETAS)

    def test_every_eigenvalue_bracket_holds_the_oracle(self, oracle):
        optimum, c, _ = oracle
        bracket = eigenvalue_bracket(self.ETAS)
        assert np.all(bracket.lower <= optimum) and np.all(optimum <= bracket.upper)
        # On the circle the optimum is 0, at c* = eta1 eta2.
        circle = self.ETAS[-len(self.CIRCLE):]
        assert np.max(np.abs(optimum[-len(self.CIRCLE):])) <= 2e-16
        assert np.max(np.abs(c[-len(self.CIRCLE):] - circle[:, 0] * circle[:, 1])) <= 2e-8

    def test_both_blocks_are_active_at_d_zero(self, oracle):
        # The box is not active at any of these pairs, so d* = 0 and the two smaller eigenvalues are equal:
        # hypot(A, c*) - hypot(B, c*) = 2 c*.
        _, c, d = oracle
        a, b = self.ETAS[:, 0] + self.ETAS[:, 1], self.ETAS[:, 0] - self.ETAS[:, 1]
        assert np.all(np.abs(c) < 1 - 1e-6)
        assert np.max(np.abs(d)) <= 1e-7
        assert np.max(np.abs(np.hypot(a, c) - np.hypot(b, c) - 2 * c)) <= 1e-7


class TestClosedFormOptimum:
    """lambda*(eta) = (1 - r) / 4, r = hypot(eta1, eta2), attained at t_xx = eta1 eta2 / r, t_yy = 0 and proved by
    W(eta / r): S there is r S_circle(eta / r) + (1 - r) I / 4, and Tr(W(eta / r) S) = (1 - r) / 4 for every free
    choice.  Inside the disk and outside it alike, it checks every eigenvalue bracket without a search."""

    CIRCLE = np.linspace(0, np.pi / 2, 9)
    ETAS = np.concatenate([np.random.default_rng(1).uniform(0, 1, (396, 2)),
                           np.stack([np.cos(CIRCLE), np.sin(CIRCLE)], axis=-1)])

    @pytest.fixture(scope="class")
    def solved(self):
        radius = np.hypot(self.ETAS[:, 0], self.ETAS[:, 1])
        return radius, eigenvalue_bracket(self.ETAS)

    def test_every_bracket_holds_the_optimum(self, solved):
        radius, bracket = solved
        assert (radius > 1.05).sum() >= 50 and (radius < 0.95).sum() >= 200  # both sides of the circle
        optimum = (1 - radius) / 4
        assert np.all(bracket.lower <= optimum) and np.all(optimum <= bracket.upper)

    def test_the_witness_is_the_closed_form(self, solved):
        # Worst measured here: 3.5e-10 in t_xx and 1.4e-10 in t_yy, over these 405 pairs.
        radius, bracket = solved
        t_xx, t_yy = bracket.free[:, REAL_PARAMETERS].T
        assert np.max(np.abs(t_xx - self.ETAS[:, 0] * self.ETAS[:, 1] / radius)) <= 2e-9
        assert np.max(np.abs(t_yy)) <= 1e-9

    def test_the_certificate_is_the_circle_certificate(self, solved):
        # Worst measured here: 5.5e-9, over these 405 pairs.
        radius, bracket = solved
        assert np.max(np.abs(bracket.certificate - circle_certificate(self.ETAS / radius[:, None]))) <= 3e-8
