import dataclasses
import tracemalloc

import numpy as np
import pytest

from circleclone import cloner, pauli
from circleclone.cloner import (
    _bloch_maps,
    clone,
    clone_report,
    coefficients,
    covariance_check_machine,
    isometry_check,
    isotropy_scan,
    partial_transpose_second,
    reduced_clones,
)
from circleclone.pauli import PAULI_STACK, SIGMA_X, bloch_to_density, density_to_bloch, great_circle_ket, pauli_decompose
from circleclone.verify import reference_partial_trace

RNG = np.random.default_rng(99)

SYMMETRIC_ETA = 2**-0.5
SYMMETRIC_FIDELITY = 0.5 + np.sqrt(0.125)


def random_circle_etas(rng):
    phi = rng.uniform(0, np.pi / 2)
    return float(np.cos(phi)), float(np.sin(phi))


def oracle_clones(etas, thetas):
    """Both reduced clones (2, n, 2, 2) at the angles ``thetas`` (n,), by the brute-force partial trace, and the kets."""
    state = clone(thetas, coefficients(etas))
    rho = state[:, :, None] * state[:, None, :].conj()
    return np.stack([reference_partial_trace(rho, k, [2, 2, 2]) for k in (0, 1)]), great_circle_ket(thetas)


def oracle_shrinks(reduced, kets):
    """s = 2<psi|rho|psi> - 1 of each clone toward its own input, (2, n)."""
    return 2 * np.einsum("ni,knij,nj->kn", kets.conj(), reduced, kets).real - 1


def oracle_residuals(reduced, kets, s):
    """Worst max-norm distance of each clone (2,) from s|psi><psi| + (1 - s) I / 2, in matrix form."""
    s = s[..., None, None]
    isotropic = s * (kets[:, :, None] * kets[:, None, :].conj()) + (1 - s) * np.eye(2) / 2
    return np.max(np.abs(reduced - isotropic), axis=(-3, -2, -1))


class TestCoefficients:
    def test_symmetric_point(self):
        c = coefficients((SYMMETRIC_ETA, SYMMETRIC_ETA))
        assert c.a == pytest.approx(0.8535533906, abs=1e-9)
        assert c.b == pytest.approx(0.3535533906, abs=1e-9)
        assert c.c == pytest.approx(0.3535533906, abs=1e-9)
        assert c.d == pytest.approx(0.1464466094, abs=1e-9)

    def test_perfect_transmission_endpoint(self):
        c = coefficients((1, 1))
        assert (c.a, c.b, c.c, c.d) == (1, 0, 0, 0)

    def test_one_sided_endpoint(self):
        c = coefficients((1, 0))
        assert c.a == pytest.approx(2**-0.5, abs=1e-15)
        assert c.b == pytest.approx(2**-0.5, abs=1e-15)
        assert c.c == 0
        assert c.d == 0

    def test_algebraic_invariants(self):
        for _ in range(200):
            c = coefficients(RNG.uniform(0, 1, 2))
            assert abs(c.a**2 + c.b**2 + c.c**2 + c.d**2 - 1) < 1e-12
            assert abs(c.a * c.d - c.b * c.c) < 1e-12
            assert c.a >= c.b >= c.d >= 0
            assert c.a >= c.c >= c.d >= 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            coefficients((1.2, 0.5))
        with pytest.raises(ValueError):
            coefficients((0.5, -0.1))


class TestClone:
    def test_perfect_copy_endpoint(self):
        state = clone(0.0, coefficients((1, 1)))
        expected = np.zeros(8)
        expected[0] = 1  # |000>
        assert np.allclose(state, expected, atol=1e-15)

    def test_north_pole_amplitudes(self):
        c = coefficients((SYMMETRIC_ETA, SYMMETRIC_ETA))
        state = clone(0.0, c)
        # index = 4o + 2b + M
        assert state[0b000] == pytest.approx(c.a, abs=1e-15)
        assert state[0b011] == pytest.approx(c.b, abs=1e-15)
        assert state[0b101] == pytest.approx(c.c, abs=1e-15)
        assert state[0b110] == pytest.approx(c.d, abs=1e-15)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)

    def test_south_pole_amplitudes(self):
        c = coefficients((0.3, 0.4))
        state = clone(np.pi, c)
        expected = np.zeros(8)
        expected[0b111] = c.a
        expected[0b001] = c.d
        expected[0b100] = c.b
        expected[0b010] = c.c
        assert np.allclose(state, expected, atol=1e-12)

    def test_normalization_everywhere(self):
        for _ in range(300):
            c = coefficients(RNG.uniform(0, 1, 2))
            state = clone(RNG.uniform(0, 2 * np.pi), c)
            assert abs(np.linalg.norm(state) - 1) < 1e-12

    def test_array_of_angles(self):
        c = coefficients((0.6, 0.8))
        thetas = RNG.uniform(0, 2 * np.pi, (3, 4))
        states = clone(thetas, c)
        assert states.shape == (3, 4, 8)
        for k in np.ndindex(thetas.shape):
            assert np.max(np.abs(states[k] - clone(thetas[k], c))) <= 1e-15


class TestIsometry:
    @pytest.mark.parametrize("etas", [(SYMMETRIC_ETA, SYMMETRIC_ETA), (1, 0), (0, 0)])
    def test_examples(self, etas):
        assert isometry_check(coefficients(etas)) <= 1e-12

    def test_grid(self):
        for e1 in np.linspace(0, 1, 11):
            for e2 in np.linspace(0, 1, 11):
                assert isometry_check(coefficients((e1, e2))) <= 1e-12


def choi_matrix(images):
    """J = sum_ij |i><j| (x) Tr_M(V|i><j|V^T), (..., 8, 8) with the input index first, of isometries V (..., 8, 2)."""
    blocks = np.stack([np.stack([
        reference_partial_trace(images[..., :, i, None] * images[..., None, :, j], [0, 1], [2, 2, 2])
        for j in (0, 1)], axis=-3) for i in (0, 1)], axis=-4)  # (..., i, j, 4, 4)
    return blocks.swapaxes(-3, -2).reshape(blocks.shape[:-4] + (8, 8))


class TestStinespringDilation:
    """The machine qubit is the Stinespring ancilla of the rank-2 channel rho -> Tr_M V rho V^T (Choi, Stinespring)."""

    PHI = np.linspace(0, np.pi / 2, 7)

    @pytest.fixture(scope="class")
    def dilation(self):
        images = cloner._basis_images(coefficients(np.stack([np.cos(self.PHI), np.sin(self.PHI)], axis=-1)))
        return images, choi_matrix(images)

    def test_the_choi_matrix_is_a_rank_2_projector(self, dilation):
        # Eigenvalues (0, ..., 0, 1, 1): the two Kraus operators <m|_M V are orthonormal.  Worst measured: 3.7e-16.
        values = np.linalg.eigvalsh(dilation[1])
        assert np.max(np.abs(values - np.repeat([0.0, 1.0], [6, 2]))) <= 3e-15

    def test_the_channel_preserves_the_trace(self, dilation):
        # Tr_out J = I.  Worst measured: 2.2e-16.
        traced = reference_partial_trace(dilation[1], 0, [2, 4])
        assert np.max(np.abs(traced - np.eye(2))) <= 2e-15

    def test_the_top_eigenvectors_rebuild_the_isometry(self, dilation):
        # Entry (i, ob) of an eigenvector of eigenvalue 1 is K[ob, i] of a Kraus operator K; the two, indexed by a
        # last machine index m, form an isometry that is V up to an orthogonal Q acting on m.
        # Worst measured: 5.6e-16, with Q^T Q = I to 8.9e-16.
        images, choi = dilation
        top = np.linalg.eigh(choi)[1][..., 6:]  # (..., (i, o), m)
        rebuilt = np.moveaxis(top.reshape(top.shape[:-2] + (2, 4, 2)), -3, -1)  # (..., (o, b), m, i)
        machine = images.reshape(images.shape[:-2] + (4, 2, 2))  # (..., (o, b), M, i)
        q = np.einsum("...oMi,...omi->...Mm", machine, rebuilt)
        assert np.max(np.abs(q.swapaxes(-2, -1) @ q - np.eye(2))) <= 5e-15
        assert np.max(np.abs(np.einsum("...Mm,...omi->...oMi", q, rebuilt) - machine)) <= 5e-15


def peak_bytes(call):
    """Peak traced allocation of ``call()``, after one untraced call warms numpy's caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_channels(images):
    """Both clones' C_ij = Tr_rest(V|i><j|V^dagger), (..., clone, i, j, 2, 2), by the brute-force partial trace."""
    return np.stack([np.stack([np.stack([
        reference_partial_trace(images[..., :, i, None] * images[..., None, :, j].conj(), keep, [2, 2, 2])
        for j in (0, 1)], axis=-3) for i in (0, 1)], axis=-4) for keep in (0, 1)], axis=-5)


def oracle_maps(channels):
    """(r0, rz, rx), (3, ..., clone, 3): Tr(W sigma_s) of W = (C00 + C11) / 2, (C00 - C11) / 2 and (C01 + C10) / 2."""
    c = np.moveaxis(channels, (-4, -3), (0, 1))  # (i, j, ..., clone, 2, 2)
    combos = np.stack([c[0, 0] + c[1, 1], c[0, 0] - c[1, 1], c[0, 1] + c[1, 0]]) / 2
    return np.stack([np.trace(combos @ sigma, axis1=-2, axis2=-1).real for sigma in PAULI_STACK], axis=-1)


class TestBlochMaps:
    def test_every_entry_matches_the_oracle(self):
        etas = np.concatenate([[(1, 0), (0, 1), (0, 0)], np.random.default_rng(17).uniform(0, 1, (20, 2))])
        coeffs = coefficients(etas)
        maps = _bloch_maps(coeffs)
        assert maps.shape == (3, 23, 2, 3)
        assert np.max(np.abs(maps - oracle_maps(oracle_channels(cloner._basis_images(coeffs))))) <= 1e-15

    def test_a_complex_isometry_matches_the_oracle(self, monkeypatch):
        # The machine's V is real; a complex one tells C_ij from C_ji and from their conjugates, and gives
        # the clones a y component.
        rng = np.random.default_rng(19)
        images = np.linalg.qr(rng.normal(size=(4, 8, 2)) + 1j * rng.normal(size=(4, 8, 2)))[0]
        assert np.max(np.abs(images.conj().swapaxes(-2, -1) @ images - np.eye(2))) <= 1e-14
        monkeypatch.setattr(cloner, "_basis_images", lambda coeffs: images)
        maps = _bloch_maps(coefficients((0.6, 0.8)))
        expected = oracle_maps(oracle_channels(images))
        assert maps.shape == (3, 4, 2, 3) and np.min(np.max(np.abs(expected[..., 1]), axis=0)) > 1e-3
        assert np.max(np.abs(maps - expected)) <= 1e-15

    def test_map_readout_is_half_of_nine_pauli_columns(self):
        # The Gram product is an operator on clone (x) input: r0, rz and rx are half its
        # sigma_s (x) I, sigma_s (x) Z and sigma_s (x) X coefficients, column (map, s).
        columns = pauli._PAULI_READOUT.reshape(16, 4, 4)[:, 1:, [0, 3, 1]].swapaxes(-2, -1).reshape(16, 9)
        assert np.array_equal(cloner._MAP_READOUT, columns / 2)
        # The constant as it was built before the one basis, from weights on the C_ij; equal
        # entry for entry (twelve of its zeros carried a minus sign).
        weights = np.array([[[1, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, -1, 0]]]) / 2
        before = (PAULI_STACK.T[:, None, :, None, None, :] * weights[:, None, :, :, None]).reshape(16, 9)
        assert np.array_equal(cloner._MAP_READOUT, before)

    def test_memory_stays_small(self):
        rng = np.random.default_rng(23)
        coeffs = coefficients(rng.uniform(0, 1, (500, 2)))
        assert peak_bytes(lambda: _bloch_maps(coeffs)) < 1_500_000


class TestRealMachine:
    # The machine's amplitudes and inputs are real, so every array on its path is float64.
    @pytest.mark.parametrize("theta, etas", [(0.9, (0.6, 0.8)),
                                             (np.linspace(0, 6, 7), np.random.default_rng(43).uniform(0, 1, (7, 2)))])
    def test_arrays_are_float64(self, theta, etas):
        coeffs = coefficients(etas)
        state = clone(theta, coeffs)
        assert great_circle_ket(theta).dtype == np.float64
        assert state.dtype == np.float64
        assert [rho.dtype for rho in reduced_clones(state)] == [np.float64] * 3
        assert partial_transpose_second(reduced_clones(state)[2]).dtype == np.float64
        assert _bloch_maps(coeffs).dtype == np.float64
        report = clone_report(theta, coefficients(etas))
        for field in dataclasses.fields(report):
            assert np.asarray(getattr(report, field.name)).dtype in (np.float64, np.bool_), field.name

    def test_complex_amplitudes_stay_complex(self):
        coeffs = dataclasses.replace(coefficients((0.6, 0.8)), b=1j * coefficients((0.6, 0.8)).b)
        state = clone(0.9, coeffs)
        assert state.dtype == np.complex128 and np.max(np.abs(state.imag)) > 0.1
        rho = np.outer(state, state.conj())
        for keep, reduced in zip((0, 1, (0, 1)), reduced_clones(state)):
            assert reduced.dtype == np.complex128
            assert np.max(np.abs(reduced - reference_partial_trace(rho, keep, [2, 2, 2]))) <= 1e-15


class TestReducedClones:
    def test_perfect_trivial_split(self):
        rho_o, rho_b, _ = reduced_clones(clone(0.0, coefficients((1, 0))))
        assert np.allclose(rho_o, [[1, 0], [0, 0]], atol=1e-14)
        assert np.allclose(rho_b, np.eye(2) / 2, atol=1e-14)

    def test_symmetric_equator_clone(self):
        rho_o, _, _ = reduced_clones(clone(np.pi / 2, coefficients((SYMMETRIC_ETA, SYMMETRIC_ETA))))
        expected = 0.5 * (np.eye(2) + SYMMETRIC_ETA * SIGMA_X)
        assert np.allclose(rho_o, expected, atol=1e-12)

    def test_against_brute_force_oracle(self):
        for theta, etas in [(0.0, (0, 0)), (1.3, (0.2, 0.9)), (4.0, (0.6, 0.8))]:
            state = clone(theta, coefficients(etas))
            rho = np.outer(state, state.conj())
            rho_o, rho_b, rho_ob = reduced_clones(state)
            assert np.max(np.abs(rho_o - reference_partial_trace(rho, 0, [2, 2, 2]))) < 1e-12
            assert np.max(np.abs(rho_b - reference_partial_trace(rho, 1, [2, 2, 2]))) < 1e-12
            assert np.max(np.abs(rho_ob - reference_partial_trace(rho, (0, 1), [2, 2, 2]))) < 1e-12

    def test_batch_matches_oracle_row_by_row(self):
        thetas = RNG.uniform(0, 2 * np.pi, 20)
        states = clone(thetas, coefficients((0.2, 0.9)))
        rho_o, rho_b, rho_ob = reduced_clones(states)
        assert (rho_o.shape, rho_b.shape, rho_ob.shape) == ((20, 2, 2), (20, 2, 2), (20, 4, 4))
        for k, state in enumerate(states):
            rho = np.outer(state, state.conj())
            assert np.max(np.abs(rho_o[k] - reference_partial_trace(rho, 0, [2, 2, 2]))) < 1e-12
            assert np.max(np.abs(rho_b[k] - reference_partial_trace(rho, 1, [2, 2, 2]))) < 1e-12
            assert np.max(np.abs(rho_ob[k] - reference_partial_trace(rho, (0, 1), [2, 2, 2]))) < 1e-12

    def test_complex_states_match_the_oracle_row_by_row(self):
        # Machine states are real, so rho == rho.T there; random complex states
        # catch a conjugation or transpose slip.
        rng = np.random.default_rng(21)
        states = rng.normal(size=(3, 5, 8)) + 1j * rng.normal(size=(3, 5, 8))
        states /= np.linalg.norm(states, axis=-1, keepdims=True)
        rho_o, rho_b, rho_ob = reduced_clones(states)
        assert (rho_o.shape, rho_b.shape, rho_ob.shape) == ((3, 5, 2, 2), (3, 5, 2, 2), (3, 5, 4, 4))
        rho = states[..., :, None] * states[..., None, :].conj()
        for keep, reduced in ((0, rho_o), (1, rho_b), ((0, 1), rho_ob)):
            assert np.max(np.abs(reduced - reference_partial_trace(rho, keep, [2, 2, 2]))) <= 1e-15
        for index in np.ndindex(3, 5):
            for stacked, alone in zip((rho_o, rho_b, rho_ob), reduced_clones(states[index])):
                assert np.array_equal(stacked[index], alone)

    def test_states_are_physical(self):
        for _ in range(50):
            state = clone(RNG.uniform(0, 2 * np.pi), coefficients(RNG.uniform(0, 1, 2)))
            for rho in reduced_clones(state):
                assert abs(np.trace(rho).real - 1) < 1e-12
                assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


class TestCloneReport:
    def test_symmetric_optimal_fidelity(self):
        for theta in np.linspace(0, 2 * np.pi, 12):
            report = clone_report(theta, coefficients((SYMMETRIC_ETA, SYMMETRIC_ETA)))
            assert report.fidelity_o == pytest.approx(SYMMETRIC_FIDELITY, abs=1e-10)
            assert report.fidelity_b == pytest.approx(SYMMETRIC_FIDELITY, abs=1e-10)
            assert report.on_circle

    def test_on_circle_asymmetric_point(self):
        report = clone_report(2.1, coefficients((0.6, 0.8)))
        assert report.isotropy_residual_o <= 1e-10
        assert report.isotropy_residual_b <= 1e-10
        for shrink, expected in [(report.shrink_o_z, 0.6), (report.shrink_o_x, 0.6),
                                 (report.shrink_b_z, 0.8), (report.shrink_b_x, 0.8)]:
            assert shrink == pytest.approx(expected, abs=1e-10)

    def test_off_circle_anisotropy(self):
        report = clone_report(np.pi / 2, coefficients((0.5, 0.5)))
        assert not report.on_circle
        assert report.shrink_o_x == pytest.approx(np.sqrt(0.75), abs=1e-10)
        assert report.shrink_o_z == pytest.approx(0.5, abs=1e-10)  # probed at the pole
        assert max(report.isotropy_residual_o, report.isotropy_residual_b) > 1e-3

    def test_probe_shrinks_reproduce_every_input(self):
        # Each clone's reduced channel is diagonal in x and z, so the shrinks read off the pole and the
        # equator give its Bloch vector at every angle: (shrink_x sin theta, 0, shrink_z cos theta).
        cardinal = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        thetas = np.concatenate([np.repeat(cardinal, 25), RNG.uniform(0, 2 * np.pi, 900)])
        etas = RNG.uniform(0, 1, (len(thetas), 2))
        etas[:8] = [(0, 0), (1, 1), (1, 0), (0, 1), (0.6, 0.8), (0.5, 0.5), (0.7, 0.7), (0.2, 0.9)]
        etas[100:200] = [random_circle_etas(RNG) for _ in range(100)]
        report = clone_report(thetas, coefficients(etas))
        rho_o, rho_b, _ = reduced_clones(clone(thetas, coefficients(etas)))
        for rho, shrink_z, shrink_x in [(rho_o, report.shrink_o_z, report.shrink_o_x),
                                        (rho_b, report.shrink_b_z, report.shrink_b_x)]:
            expected = np.stack([shrink_x * np.sin(thetas), np.zeros_like(thetas), shrink_z * np.cos(thetas)], -1)
            assert np.max(np.abs(density_to_bloch(rho) - expected)) <= 1e-12

    def test_fidelity_law_on_circle(self):
        for _ in range(50):
            eta1, eta2 = random_circle_etas(RNG)
            report = clone_report(RNG.uniform(0, 2 * np.pi), coefficients((eta1, eta2)))
            assert report.fidelity_o == pytest.approx((1 + eta1) / 2, abs=1e-10)
            assert report.fidelity_b == pytest.approx((1 + eta2) / 2, abs=1e-10)

    def test_bound_attainment(self):
        for _ in range(50):
            report = clone_report(RNG.uniform(0, 2 * np.pi), coefficients(random_circle_etas(RNG)))
            s1 = 2 * report.fidelity_o - 1
            s2 = 2 * report.fidelity_b - 1
            assert abs(s1**2 + s2**2 - 1) < 1e-10

    def test_separability_on_circle(self):
        for _ in range(50):
            report = clone_report(RNG.uniform(0, 2 * np.pi), coefficients(random_circle_etas(RNG)))
            assert report.ppt_min_eigenvalue >= -1e-10

    def test_fidelities_match_the_oracle_on_and_off_the_circle(self):
        # The fidelity read off the Bloch map is (1 + s) / 2 with s = 2<psi|rho|psi> - 1 of the brute-force clones.
        rng = np.random.default_rng(21)
        thetas = rng.uniform(0, 2 * np.pi, 400)
        thetas[:8] = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2] * 2
        etas = rng.uniform(0, 1, (400, 2))
        etas[:8] = [(0, 0), (1, 1), (1, 0), (0, 1), (0.6, 0.8), (0.5, 0.5), (1, 0), (0, 1)]
        etas[200:] = [random_circle_etas(rng) for _ in range(200)]
        expected = (1 + oracle_shrinks(*oracle_clones(etas, thetas))) / 2
        report = clone_report(thetas, coefficients(etas))
        assert np.max(np.abs(report.fidelity_o - expected[0])) <= 1e-15
        assert np.max(np.abs(report.fidelity_b - expected[1])) <= 1e-15

    def test_read_outs_are_the_report_fields(self):
        # The fidelity and PPT read-outs the verify checks call give the report's fields bit for bit,
        # against both the stacked report and one report per pair.
        rng = np.random.default_rng(43)
        phi, theta = rng.uniform(0, np.pi / 2, 400), rng.uniform(0, 2 * np.pi, 400)
        phi[:6] = [0.0, np.pi / 2] * 3
        theta[:6] = [0.0, 0.0, np.pi / 2, np.pi / 2, np.pi, np.pi]
        coeffs = cloner._circle_coefficients(phi)
        fidelity = cloner._fidelities(theta, cloner._bloch_maps(coeffs))[1]
        lowest = cloner._ppt_min_eigenvalue(cloner._joint_output(cloner.clone(theta, coeffs)))
        stacked = clone_report(theta, coeffs)
        rows = [clone_report(t, cloner._circle_coefficients(p)) for t, p in zip(theta, phi)]
        for field, read_out in (("fidelity_o", fidelity[:, 0]), ("fidelity_b", fidelity[:, 1]),
                                ("ppt_min_eigenvalue", lowest)):
            assert np.array_equal(read_out, getattr(stacked, field)), field
            assert np.array_equal(read_out, [getattr(row, field) for row in rows]), field

    @pytest.mark.parametrize("theta, etas", [(2.1, (0.6, 0.8)), (np.pi / 2, (0.5, 0.5)), (0.4, (0.7, 0.7)),
                                             (5.3, (0.2, 0.9)), (0.0, (0.3, 0.1))])
    def test_residuals_match_the_oracle_at_the_three_inputs(self, theta, etas):
        # The shrink is fitted at the requested input and held at the two cardinal probes.
        reduced, kets = oracle_clones(etas, np.array([theta, 0.0, np.pi / 2]))
        expected = oracle_residuals(reduced, kets, oracle_shrinks(reduced, kets)[:, :1])
        report = clone_report(theta, coefficients(etas))
        assert abs(report.isotropy_residual_o - expected[0]) <= 1e-14
        assert abs(report.isotropy_residual_b - expected[1]) <= 1e-14

    def test_memory_stays_small(self):
        rng = np.random.default_rng(29)
        theta, etas = rng.uniform(0, 2 * np.pi, 500), rng.uniform(0, 1, (500, 2))
        assert peak_bytes(lambda: clone_report(theta, coefficients(etas))) < 1_500_000

    def test_correlation_tensor_constraints(self):
        for _ in range(50):
            report = clone_report(RNG.uniform(0, 2 * np.pi), coefficients(random_circle_etas(RNG)))
            t = report.correlation
            assert abs(t[0, 0] - t[2, 2]) < 1e-12
            assert abs(t[0, 2] + t[2, 0]) < 1e-12


class TestPartialTransposeSecond:
    def test_swaps_coherences(self):
        rho = np.arange(16, dtype=complex).reshape(4, 4)
        expected = np.array([
            [0, 4, 2, 6],
            [1, 5, 3, 7],
            [8, 12, 10, 14],
            [9, 13, 11, 15],
        ], dtype=complex)
        assert np.array_equal(partial_transpose_second(rho), expected)

    def test_entangled_state_detected(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        pt = partial_transpose_second(np.outer(bell, bell.conj()))
        assert np.min(np.linalg.eigvalsh(pt)) == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("shape", [(16,), (2, 8), (8, 8), (3, 2, 2)])
    def test_rejects_a_matrix_that_is_not_4x4(self, shape):
        with pytest.raises(ValueError, match=r"expected a two-qubit matrix \(\.\.\., 4, 4\), got shape"):
            partial_transpose_second(np.ones(shape))


def oracle_grid_worst(etas, samples):
    """Worst residual of either clone over the angles (k + 1/4) 2 pi / samples, by the brute-force partial trace."""
    reduced, kets = oracle_clones(etas, (np.arange(samples) + 0.25) * (2 * np.pi / samples))
    return np.max(oracle_residuals(reduced, kets, oracle_shrinks(reduced, kets)))


def anisotropy_law(etas):
    """max_i |sqrt(1 - eta_j^2) - eta_i| / (3 sqrt 3), j the other clone: the closed-form supremum.

    1 - eta_j^2 is taken as (1 - eta_j)(1 + eta_j), which keeps its rounding
    small near eta_j = 1, as the isometry's amplitudes do.
    """
    etas = np.asarray(etas, dtype=float)
    other = etas[..., ::-1]
    return np.max(np.abs(np.sqrt((1 - other) * (1 + other)) - etas), axis=-1) / (3 * np.sqrt(3))


class TestIsotropyScan:
    def test_on_circle_flat(self):
        assert isotropy_scan(coefficients((0.6, 0.8))) <= 1e-10

    def test_trivial_endpoint(self):
        assert isotropy_scan(coefficients((1, 0))) <= 1e-12

    def test_off_circle_detected(self):
        assert isotropy_scan(coefficients((0.7, 0.7))) > 1e-3
        assert isotropy_scan(coefficients((0.5, 0.5))) > 1e-3

    def test_detects_both_sides_of_the_circle(self):
        # residual grows roughly like the circle defect / 8, so any defect
        # of 1e-6 or more is safely visible above the 1e-10 isotropy bar
        for delta in (1e-6, 1e-4, 1e-2):
            for sign in (1, -1):
                phi = RNG.uniform(0.3, 1.2)
                scale = np.sqrt(1 + sign * delta)
                etas = (scale * np.cos(phi), scale * np.sin(phi))
                assert isotropy_scan(coefficients(etas)) > 1e-10

    def test_matches_the_closed_form_law(self):
        etas = np.random.default_rng(14).uniform(0, 1, (2000, 2))
        assert np.all(np.abs(etas[:, 0] ** 2 + etas[:, 1] ** 2 - 1) > 1e-8)  # every pair is off the circle
        assert np.max(np.abs(isotropy_scan(coefficients(etas)) - anisotropy_law(etas))) <= 1e-15

    def test_the_unit_square_corners_meet_the_closed_form_law(self):
        # eta = 0 and eta = 1 are where sqrt(1 - eta_j^2) reaches its ends: 1/(3 sqrt 3), 0, 0, 1/(3 sqrt 3).
        corners = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        worst = isotropy_scan(coefficients(corners))
        assert np.max(np.abs(worst - anisotropy_law(corners))) <= 1e-15
        assert np.max(np.abs(worst - np.array([1, 0, 0, 1]) / (3 * np.sqrt(3)))) <= 1e-15

    # Three fixed pairs, then seeded random ones off the circle.  On the
    # circle both sides are rounding noise, hence the 1e-15 slack.
    @pytest.mark.parametrize("etas", [(0.6, 0.8), (0.7, 0.7), (0.5, 0.5)]
                             + [tuple(pair) for pair in np.random.default_rng(12).uniform(0, 1, (3, 2))])
    def test_bounds_every_per_angle_oracle_grid(self, etas):
        exact = isotropy_scan(coefficients(etas))
        for samples in (2, 3, 7, 50, 4103):
            assert exact >= oracle_grid_worst(etas, samples) - 1e-15, samples

    @pytest.mark.parametrize("etas", [(0.7, 0.7), (0.5, 0.5), (0.95, 0.1)]
                             + [tuple(pair) for pair in np.random.default_rng(15).uniform(0, 1, (3, 2))])
    def test_meets_a_fine_oracle_grid_off_the_circle(self, etas):
        grid = oracle_grid_worst(etas, 2000)
        assert 0 <= isotropy_scan(coefficients(etas)) - grid <= 1e-6 * grid

    @pytest.mark.parametrize("etas", [(0.6, 0.8), (0.7, 0.7), (0.2, 0.9)])
    def test_bounds_a_map_off_the_diagonal_form(self, etas, monkeypatch):
        # The machine's maps have no part off the diagonal form, so its defect
        # term is 0; a rotation and a shift of the clones' Bloch vectors give one.
        axis = np.einsum("j,jab->ab", np.array([1.0, 2.0, 2.0]) / 3, PAULI_STACK)
        u = np.cos(0.15) * np.eye(2) - 1j * np.sin(0.15) * axis  # a turn by 0.3 about that axis
        # Conjugation by u turns Bloch vectors by turn[s, t] = Tr(sigma_s u sigma_t u^dagger) / 2.
        turn = np.einsum("sab,bc,tcd,da->st", PAULI_STACK, u, PAULI_STACK, u.conj().T).real / 2
        shift = np.array([0.006, -0.01, 0.016])
        machine = cloner._bloch_maps

        def skewed(coeffs):
            r0, rz, rx = machine(coeffs) @ turn.T
            return np.stack([r0 + shift, rz, rx])

        thetas = (np.arange(2000) + 0.25) * (2 * np.pi / 2000)
        kets = great_circle_ket(thetas)
        r0, rz, rx = skewed(coefficients(etas))[:, None]
        bloch = r0 + np.cos(thetas)[:, None, None] * rz + np.sin(thetas)[:, None, None] * rx  # (angle, clone, 3)
        reduced = np.moveaxis((np.eye(2) + np.einsum("...s,sab->...ab", bloch, PAULI_STACK)) / 2, 1, 0)
        grid = np.max(oracle_residuals(reduced, kets, oracle_shrinks(reduced, kets)))
        monkeypatch.setattr(cloner, "_bloch_maps", skewed)
        assert grid > anisotropy_law(etas) + 1e-3  # the defect term is needed
        assert isotropy_scan(coefficients(etas)) >= grid

    def test_residual_formula_is_the_matrix_max_norm(self):
        # The machine's clones have y = 0; random Bloch vectors exercise every term of the formula.
        rng = np.random.default_rng(13)
        r, theta, s = rng.uniform(-0.6, 0.6, (200, 3)), rng.uniform(0, 2 * np.pi, 200), rng.uniform(-1, 1, 200)
        ket = great_circle_ket(theta)
        weight = s[:, None, None]
        isotropic = weight * (ket[:, :, None] * ket[:, None, :].conj()) + (1 - weight) * np.eye(2) / 2
        expected = np.max(np.abs(bloch_to_density(r) - isotropic), axis=(-2, -1))
        residual = cloner._isotropy_residual(*r.T, np.sin(theta), np.cos(theta), s)
        assert np.max(np.abs(residual - expected)) <= 1e-15

    def test_exactly_on_circle_is_flat(self):
        for phi in (0.2, np.pi / 4, 1.3):
            assert isotropy_scan(coefficients((np.cos(phi), np.sin(phi)))) <= 1e-10


def circle_stack(n):
    phi = np.linspace(0, np.pi / 2, n)
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


class TestBatchedIsotropyScan:
    # A single pair, small stacks, the 129-direction sweep, seeded random stacks and the endpoints.
    CASES = {
        "single": (0.6, 0.8),
        "3x2": np.random.default_rng(1).uniform(0, 1, (3, 2)),
        "2x3x2": np.random.default_rng(2).uniform(0, 1, (2, 3, 2)),
        "sweep_129": circle_stack(129),
        "random_7x2": np.random.default_rng(3).uniform(0, 1, (7, 2)),
        "random_200x2": np.random.default_rng(6).uniform(0, 1, (200, 2)),
        "endpoints": np.array([(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_row_equals_its_single_pair_call(self, case):
        etas = np.asarray(self.CASES[case])
        worst = isotropy_scan(coefficients(etas))
        assert np.shape(worst) == etas.shape[:-1]
        for index in np.ndindex(etas.shape[:-1]):
            alone = isotropy_scan(coefficients(tuple(etas[index])))
            assert isinstance(alone, np.floating) and np.ndim(alone) == 0
            assert worst[index] == alone

    @pytest.mark.parametrize("on_circle", [True, False])
    def test_maps_give_the_reduced_clones(self, on_circle):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, 2 * np.pi, 40)
        if on_circle:
            phi = rng.uniform(0, np.pi / 2, 40)
            etas = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        else:
            etas = rng.uniform(0, 1, (40, 2))
        rho_o, rho_b, _ = reduced_clones(clone(theta, coefficients(etas)))
        # The Bloch maps give the same clones as Bloch vectors.
        r0, rz, rx = _bloch_maps(coefficients(etas))
        bloch = r0 + np.cos(theta)[:, None, None] * rz + np.sin(theta)[:, None, None] * rx
        assert np.max(np.abs(bloch[:, 0] - density_to_bloch(rho_o))) <= 1e-15
        assert np.max(np.abs(bloch[:, 1] - density_to_bloch(rho_b))) <= 1e-15

    @pytest.mark.parametrize("bad", [(1.2, 0.3), (np.nan, 0.5)])
    def test_bad_row_raises_as_alone(self, bad):
        with pytest.raises(ValueError) as alone:
            isotropy_scan(coefficients(bad))
        etas = circle_stack(129)
        etas[-1] = bad
        with pytest.raises(ValueError) as stacked:
            isotropy_scan(coefficients(etas))
        assert str(stacked.value) == str(alone.value)

    def test_memory_of_the_sweep_stays_small(self):
        etas = circle_stack(129)
        assert peak_bytes(lambda: isotropy_scan(coefficients(etas))) < 500_000


class TestMachineCovariance:
    def test_symmetric_quarter_turn(self):
        assert covariance_check_machine(coefficients((SYMMETRIC_ETA, SYMMETRIC_ETA)), 0.0, np.pi / 2) <= 1e-10

    def test_endpoint(self):
        assert covariance_check_machine(coefficients((1, 0)), 1.1, 2.3) <= 1e-10

    def test_zero_rotation(self):
        assert covariance_check_machine(coefficients((0.6, 0.8)), 0.4, 0.0) <= 1e-15

    def test_off_circle_rejected(self):
        with pytest.raises(ValueError):
            covariance_check_machine(coefficients((0.5, 0.5)), 0.0, 1.0)


def test_machine_no_signalling():
    for _ in range(30):
        coeffs = coefficients(random_circle_etas(RNG))
        rho = {theta: reduced_clones(clone(theta, coeffs))[2]
               for theta in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)}
        gap = rho[0.0] + rho[np.pi] - rho[np.pi / 2] - rho[3 * np.pi / 2]
        assert np.max(np.abs(gap)) < 1e-12


def test_machine_correlation_tensor_value():
    # At the pole the machine output carries t = diag(sqrt((1-e1^2)(1-e2^2)), 0, e1*e2).
    for _ in range(20):
        e1, e2 = RNG.uniform(0, 1, 2)
        rho_ob = reduced_clones(clone(0.0, coefficients((e1, e2))))[2]
        t = pauli_decompose(rho_ob).t
        assert t[0, 0] == pytest.approx(np.sqrt((1 - e1**2) * (1 - e2**2)), abs=1e-12)
        assert t[2, 2] == pytest.approx(e1 * e2, abs=1e-12)
        assert abs(t[1, 1]) < 1e-12
