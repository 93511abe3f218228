"""A mutation matrix for ``verify``: named defects, each patched into the library, and the checks it must FAIL.

Each defect is applied with ``monkeypatch`` and ``run_verification`` is run at
seed 0; the checks that FAIL must be exactly the ones the registry lists.  A
defect no check catches needs a new check; a check that catches no defect is a
candidate to tighten or delete (UNCAUGHT pins that list).  The survivors are
changes that are not defects of this machine or this bound: all 26 checks
must still pass under them.
"""

import dataclasses

import numpy as np
import pytest

from circleclone import cloner, linalg, nosignalling, pauli
from circleclone.verify import CHECKS, RunConfig, run_verification


def swap_b_and_c_in_the_image_of_0(monkeypatch):
    images = cloner._basis_images

    def swapped(coeffs):
        v = images(coeffs)
        v[..., [0b011, 0b101], 0] = v[..., [0b101, 0b011], 0]
        return v

    monkeypatch.setattr(cloner, "_basis_images", swapped)


def scale_v_off_the_isometry(monkeypatch):
    images = cloner._basis_images
    monkeypatch.setattr(cloner, "_basis_images", lambda coeffs: images(coeffs) * (1 + 1e-6))


def flip_the_sign_of_t_xz_in_the_up_matrix(monkeypatch):
    up = nosignalling._up_matrix
    flip = np.array([1, -1, 1, 1, 1, 1, 1])  # FREE_PARAMETERS order: t_xz is the second entry
    monkeypatch.setattr(nosignalling, "_up_matrix", lambda eta1, eta2, free: up(eta1, eta2, np.asarray(free) * flip))


def swap_rho_o_and_rho_b(monkeypatch):
    reduced = cloner.reduced_clones

    def swapped(state):
        rho_o, rho_b, rho_ob = reduced(state)
        return rho_b, rho_o, rho_ob

    monkeypatch.setattr(cloner, "reduced_clones", swapped)


def drop_the_absolute_value_in_the_dual_bound(monkeypatch):
    def signed(traces):
        certified = traces[:, -2] < 0.0
        bound = (traces[:, -1] + traces[:, :-2].sum(axis=-1)) / np.where(certified, -traces[:, -2], 1.0)
        return np.where(certified, bound, np.inf)

    monkeypatch.setattr(nosignalling, "_dual_bound", signed)


def shift_both_bracket_ends_up(monkeypatch):
    solve = nosignalling.minimize

    def shifted(*args):
        bracket = solve(*args)
        return dataclasses.replace(bracket, lower=bracket.lower + 1e-6, upper=bracket.upper + 1e-6)

    monkeypatch.setattr(nosignalling, "minimize", shifted)


def transpose_the_readout(monkeypatch):
    # Reading P[b, a] for P[a, b]: for a Hermitian basis that is the conjugate of every read-out.
    for basis, readout in ((pauli.PAULI_BASIS, pauli._PAULI_READOUT), (pauli._ONE_QUBIT_BASIS, pauli._BLOCH_READOUT)):
        assert np.array_equal(pauli._readout_matrix(basis.swapaxes(-2, -1)), readout.conj())
    for module, name in ((pauli, "_PAULI_READOUT"), (pauli, "_BLOCH_READOUT"), (cloner, "_MAP_READOUT")):
        monkeypatch.setattr(module, name, getattr(module, name).conj())


def read_in_without_the_conjugate(monkeypatch):
    # R^T / n in place of R^dagger / n: every sigma_y coefficient multiplies -sigma_y.
    monkeypatch.setattr(pauli, "_PAULI_READIN", pauli._PAULI_READOUT.T / 4)
    monkeypatch.setattr(pauli, "_BLOCH_READIN", pauli._BLOCH_READOUT.T / 2)


def conjugate_the_gram_readout(monkeypatch):
    # The machine's V is real, so its Gram products are too: TestBlochMaps catches this with a complex V.
    monkeypatch.setattr(cloner, "_MAP_READOUT", cloner._MAP_READOUT.conj())


def turn_by_minus_beta(monkeypatch):
    # The one y-turn of Bloch vectors and correlation tensors, patched at every binding.
    turn = pauli._turn
    for module in (cloner, nosignalling, pauli):
        if vars(module).get("_turn") is turn:
            monkeypatch.setattr(module, "_turn", lambda x, z, c, s: turn(x, z, c, -s))


def turn_the_pair_by_minus_beta(monkeypatch):
    # (U(x)U)^T rho (U(x)U): the transpose on the wrong side, which turns both qubits by -beta.
    def wrong_side(rho, beta):
        u = pauli.rotation_unitary(beta)
        u2 = linalg.kron(u, u)
        return u2.swapaxes(-2, -1) @ rho @ u2

    for module in (cloner, nosignalling, pauli):
        monkeypatch.setattr(module, "_rotate_pair", wrong_side)


def swap_the_kron_order(monkeypatch):
    kron = linalg.kron
    for module in (linalg, pauli):
        monkeypatch.setattr(module, "kron", lambda a, b: kron(b, a))


def transpose_the_partial_trace_output(monkeypatch):
    # The machine's clones are real and symmetric, so only the oracle's complex draws see the transpose.
    partial_trace = linalg.partial_trace
    for module in (linalg, cloner):
        monkeypatch.setattr(module, "partial_trace",
                            lambda rho, keep, dims: partial_trace(rho, keep, dims).swapaxes(-2, -1))


def _turn_the_columns(t, beta):
    """t R^T: the x and z columns of each tensor turned, the rows left alone."""
    t = nosignalling._correlation_tensor(t)
    beta = pauli._angles(beta)[..., None]
    x, z = pauli._turn(t[..., 0], t[..., 2], np.cos(beta), np.sin(beta))
    return np.stack([x, np.broadcast_to(t[..., 1], x.shape), z], axis=-1)


def rotate_correlations_in_one_pass(monkeypatch):
    # One pass of its two: (t R^T)^T = R t^T, a transposed tensor turned on one side only.
    def one_pass(t, beta):
        return _turn_the_columns(t, beta).swapaxes(-2, -1)

    monkeypatch.setattr(nosignalling, "rotate_correlations", one_pass)


def rotate_only_the_correlation_columns(monkeypatch):
    monkeypatch.setattr(nosignalling, "rotate_correlations", _turn_the_columns)


def transpose_the_first_qubit_for_ppt(monkeypatch):
    # rho^{T_A} = (rho^{T_B})^T has the spectrum of rho^{T_B}: either partial transpose decides PPT.
    def first(rho):
        batch = np.shape(rho)[:-2]
        return np.reshape(rho, batch + (2, 2, 2, 2)).swapaxes(-4, -2).reshape(batch + (4, 4))

    monkeypatch.setattr(cloner, "partial_transpose_second", first)


def mix_white_noise_into_the_ppt_input(monkeypatch):
    # (1 - p) rho + p I / 4 is still separable, its lowest PPT eigenvalue p / 4 > 0: only the two-sided law sees it.
    lowest = cloner._ppt_min_eigenvalue
    monkeypatch.setattr(cloner, "_ppt_min_eigenvalue", lambda joint: lowest((1 - 1e-6) * joint + 1e-6 * np.eye(4) / 4))


def scale_the_certificate(monkeypatch):
    # The bound a certificate proves does not change when it, and so each of its traces, is scaled.
    dual = nosignalling._dual_bound
    monkeypatch.setattr(nosignalling, "_dual_bound", lambda traces: dual(3 * traces))


def grow_the_barrier_by_100(monkeypatch):
    # The growth factor sets how many iterates a bracket takes, not where it lies: each still holds 1 within tol.
    monkeypatch.setattr(nosignalling, "BARRIER_GROWTH", 100.0)


# Each defect and the checks that must FAIL under it at seed 0.
DEFECTS = {
    swap_b_and_c_in_the_image_of_0: {"fidelity_law", "bound_attainment", "machine_covariance", "isotropy_on_circle"},
    scale_v_off_the_isometry: {"isometry", "clone_normalization", "fidelity_law", "bound_attainment"},
    flip_the_sign_of_t_xz_in_the_up_matrix: {"transcription_identity"},
    swap_rho_o_and_rho_b: {"reduced_clone_oracle"},
    drop_the_absolute_value_in_the_dual_bound: {"on_circle_feasibility", "circle_recovery"},
    shift_both_bracket_ends_up: {"on_circle_feasibility"},
    transpose_the_readout: {"bloch_conjugation_consistency", "pauli_roundtrip"},
    read_in_without_the_conjugate: {"bloch_conjugation_consistency", "pauli_roundtrip", "transcription_identity"},
    turn_by_minus_beta: {"bloch_conjugation_consistency", "covariance_relations"},
    turn_the_pair_by_minus_beta: {"covariance_relations", "machine_covariance"},
    swap_the_kron_order: {"kron_associativity"},
    transpose_the_partial_trace_output: {"oracle_partial_trace"},
    rotate_correlations_in_one_pass: {"correlation_rotation_group", "covariance_relations", "no_signalling_constraint"},
    rotate_only_the_correlation_columns: {"covariance_relations", "no_signalling_violation"},
    mix_white_noise_into_the_ppt_input: {"separability_ppt"},
}
SURVIVORS = (conjugate_the_gram_readout, scale_the_certificate, transpose_the_first_qubit_for_ppt,
             grow_the_barrier_by_100)
CHECK_NAMES = [check.__name__.removeprefix("check_") for check in CHECKS]
# Checks that no registered defect makes FAIL.
UNCAUGHT = {
    "eigenvalue_rotation_invariance", "partial_trace_state_contract", "rotation_composition", "bound_soundness",
    "machine_no_signalling", "machine_tensor_constraints", "isotropy_off_circle",
}


def failed(seed=0):
    return {result.name for result in run_verification(RunConfig(seed=seed)) if not result.passed}


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda defect: defect.__name__)
def test_each_defect_fails_exactly_its_checks(monkeypatch, defect):
    defect(monkeypatch)
    assert failed() == DEFECTS[defect]


@pytest.mark.parametrize("change", SURVIVORS, ids=lambda change: change.__name__)
def test_a_change_that_is_no_defect_passes_every_check(monkeypatch, change):
    change(monkeypatch)
    assert failed() == set()


@pytest.mark.parametrize("seed", [*range(12), 418981098, 1092769217])
def test_no_check_fails_without_a_defect(seed):
    assert failed(seed) == set()


def test_the_checks_no_defect_catches_are_listed():
    caught = set().union(*DEFECTS.values())
    assert caught <= set(CHECK_NAMES)
    assert set(CHECK_NAMES) - caught == UNCAUGHT
