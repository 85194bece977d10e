import json
from pathlib import Path

import numpy as np
import pytest

from muellercert import (
    NonHermitianInputError,
    certify_cone,
    coherency_transfer,
    expectation,
    extended_action,
    h_from_m,
    mueller_from_jones,
    physicality,
    two_mode_is_physical,
    witness_certificate,
    witness_input,
)
from helpers import random_jones, random_lorentz

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())


def two_mode_blocks(c):
    """Polarization-indexed 2x2 mode blocks of a two-mode state."""
    c4 = np.asarray(c).reshape(2, 2, 2, 2)
    return {(j, k): c4[j, :, k, :] for j in range(2) for k in range(2)}


class TestWitnessInput:
    def test_rank_one_trace_two_psd(self):
        c = witness_input()
        eigs = np.linalg.eigvalsh(c)
        assert abs(c.trace().real - 2.0) < 1e-15
        assert eigs[-1] > 0 and np.count_nonzero(eigs > 1e-12) == 1
        assert eigs[0] >= -1e-15

    def test_blocks_are_orthonormal(self):
        blocks = two_mode_blocks(witness_input())
        for (i, k), left in blocks.items():
            for (j, l), right in blocks.items():
                inner = np.trace(left @ right.conj().T)
                want = 1.0 if (i == j and k == l) else 0.0
                assert abs(inner - want) < 1e-15

    def test_expectation_against_its_own_vector(self):
        e = np.array([1, 0, 0, 1], dtype=complex)
        assert abs(expectation(witness_input(), e) - 4.0) < 1e-15

    def test_physicality_predicate(self):
        assert two_mode_is_physical(witness_input())
        assert two_mode_is_physical(np.eye(4, dtype=complex))
        assert not two_mode_is_physical(np.diag([1.0, 1.0, 1.0, -0.1]))
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = 1.0
        assert not two_mode_is_physical(skew)
        # the transformed entangled input is unphysical exactly when the map is
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        assert not two_mode_is_physical(extended_action(flip, witness_input()))
        assert two_mode_is_physical(extended_action(np.eye(4), witness_input()))


class TestExtendedAction:
    def test_identity_map(self):
        rng = np.random.default_rng(60)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c = b + b.conj().T
        np.testing.assert_allclose(extended_action(np.eye(4), c), c, atol=1e-14)

    def test_diagonal_block_law(self):
        # blockwise law re-derived by hand for diagonal transfer matrices
        rng = np.random.default_rng(61)
        for _ in range(50):
            d = rng.normal(size=4)
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            c = b + b.conj().T
            blocks = two_mode_blocks(c)
            out = two_mode_blocks(extended_action(np.diag(d), c))
            p, q = 0.5 * (d[0] + d[1]), 0.5 * (d[0] - d[1])
            r, t = 0.5 * (d[2] + d[3]), 0.5 * (d[2] - d[3])
            np.testing.assert_allclose(
                out[(0, 0)], p * blocks[(0, 0)] + q * blocks[(1, 1)], atol=1e-13
            )
            np.testing.assert_allclose(
                out[(1, 1)], p * blocks[(1, 1)] + q * blocks[(0, 0)], atol=1e-13
            )
            np.testing.assert_allclose(
                out[(0, 1)], r * blocks[(0, 1)] + t * blocks[(1, 0)], atol=1e-13
            )
            np.testing.assert_allclose(
                out[(1, 0)], r * blocks[(1, 0)] + t * blocks[(0, 1)], atol=1e-13
            )

    def test_jones_systems_act_as_tensor_squares(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            j = random_jones(rng)
            t = coherency_transfer(mueller_from_jones(j))
            assert np.abs(t - np.kron(j, j.conj())).max() < 1e-12

    def test_entangled_input_reproduces_the_hermitian_matrix(self):
        rng = np.random.default_rng(63)
        c0 = witness_input()
        for _ in range(300):
            m = rng.normal(size=(4, 4))
            assert np.abs(extended_action(m, c0) - h_from_m(m)).max() < 1e-12

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(64)
        for _ in range(100):
            m = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            c = b + b.conj().T
            out = extended_action(m, c)
            assert np.abs(out - out.conj().T).max() < 1e-13

    def test_separable_inputs_never_witness(self):
        # cone-preserving but unphysical maps stay positive on products of a
        # polarization state with a mode state
        rng = np.random.default_rng(65)
        unphysical = [
            np.diag([1.0, 1.0, 1.0, -1.0]),
            np.diag([1.0, 0.9, 0.9, -0.9]),
            random_lorentz(rng) @ np.diag([1.0, 0.8, 0.8, -0.7]) @ random_lorentz(rng),
        ]
        for m in unphysical:
            assert certify_cone(m).is_pre_mueller
            assert not physicality(m).is_mueller
            for _ in range(20):
                bp = random_jones(rng)
                bq = random_jones(rng)
                pol = bp @ bp.conj().T
                mode = bq @ bq.conj().T
                out = extended_action(m, np.kron(pol, mode))
                eigs = np.linalg.eigvalsh(out)
                assert eigs[0] >= -1e-10 * max(abs(eigs[-1]), 1.0)


class TestExpectation:
    def test_orthogonal_vector_gives_zero(self):
        e_minus = np.array([1, 0, 0, -1], dtype=complex)
        assert abs(expectation(witness_input(), e_minus)) < 1e-15

    def test_closed_forms_for_diagonal_maps(self):
        rng = np.random.default_rng(66)
        e_plus = np.array([1, 0, 0, 1], dtype=complex)
        e_minus = np.array([1, 0, 0, -1], dtype=complex)
        f_plus = np.array([0, 1, 1, 0], dtype=complex)
        f_minus = np.array([0, 1, -1, 0], dtype=complex)
        for _ in range(100):
            d = rng.normal(size=4)
            out = extended_action(np.diag(d), witness_input())
            assert abs(expectation(out, e_plus) - (d[0] + d[1] + d[2] + d[3])) < 1e-12
            assert abs(expectation(out, e_minus) - (d[0] + d[1] - d[2] - d[3])) < 1e-12
            assert abs(expectation(out, f_plus) - (d[0] - d[1] + d[2] - d[3])) < 1e-12
            assert abs(expectation(out, f_minus) - (d[0] - d[1] - d[2] + d[3])) < 1e-12

    def test_rejects_nonhermitian_state(self):
        c = np.zeros((4, 4), dtype=complex)
        c[0, 1] = 1.0
        with pytest.raises(NonHermitianInputError):
            expectation(c, np.array([1, 0, 0, 0], dtype=complex))


class TestWitnessCertificate:
    def test_axis_flip_witness(self):
        m = np.diag([1.0, 1.0, 1.0, -1.0])
        vec = witness_certificate(m)
        assert vec is not None
        expected = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.abs(np.abs(vec) - np.abs(expected)).max() < 1e-12
        value = expectation(extended_action(m, witness_input()), vec)
        assert abs(value + 1.0) < 1e-12

    def test_identity_has_no_witness(self):
        assert witness_certificate(np.eye(4)) is None

    def test_boundary_psd_has_no_witness(self):
        third = 1.0 / 3.0
        assert witness_certificate(np.diag([1.0, -third, -third, -third])) is None

    def test_theta_family_matches_closed_form(self):
        # canonical Type-II form probed with the two one-parameter families
        d0, d1, d2, d3 = 2.0, 1.0, 1.2, 0.7
        m = np.diag([d0, d1, d2, d3])
        m[0, 1] = d0 - d1
        out = extended_action(m, witness_input())
        for theta in np.linspace(0.0, np.pi, 33):
            ct, st = np.cos(theta), np.sin(theta)
            e_theta = np.array([ct, 0, 0, st], dtype=complex)
            f_theta = np.array([0, ct, st, 0], dtype=complex)
            want_e = d0 * ct**2 + d1 * st**2 + (d2 + d3) * ct * st
            want_f = (d0 - d1) * st**2 + (d2 - d3) * ct * st
            assert abs(expectation(out, e_theta) - want_e) < 1e-12
            assert abs(expectation(out, f_theta) - want_f) < 1e-12

    def test_soundness(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            m = rng.normal(size=(4, 4))
            vec = witness_certificate(m)
            if vec is None:
                assert physicality(m).is_mueller
            else:
                value = expectation(extended_action(m, witness_input()), vec)
                assert value < 0.0


def _stacks():
    """The golden inputs as one stack, and seeded stacks of Gaussian
    matrices and noisy Jones mixtures."""
    yield np.stack([np.array(case["m"]).reshape(4, 4) for case in GOLDEN])
    rng = np.random.default_rng(68)
    for _ in range(10):
        gaussian = rng.normal(size=(8, 4, 4))
        mixtures = [
            sum(mueller_from_jones(random_jones(rng)) for _ in range(3))
            + rng.normal(scale=1e-3, size=(4, 4))
            for _ in range(8)
        ]
        yield np.concatenate([gaussian, mixtures])


def _hermitian_stack(rng, n):
    b = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return b + b.conj().swapaxes(1, 2)


class TestStacks:
    """The witness functions over an (N, 4, 4) stack against each row alone."""

    def test_extended_action_rows_are_single_actions(self):
        rng = np.random.default_rng(69)
        c0 = witness_input()
        for ms in _stacks():
            states = _hermitian_stack(rng, len(ms))
            shared = extended_action(ms, c0)
            paired = extended_action(ms, states)
            one_map = extended_action(ms[0], states)
            assert shared.shape == paired.shape == one_map.shape == (len(ms), 4, 4)
            for i, m in enumerate(ms):
                assert np.array_equal(shared[i], extended_action(m, c0))
                assert np.array_equal(paired[i], extended_action(m, states[i]))
                assert np.array_equal(one_map[i], extended_action(ms[0], states[i]))

    def test_expectation_rows_are_single_expectations(self):
        rng = np.random.default_rng(70)
        for ms in _stacks():
            states = extended_action(ms, witness_input())
            vecs = rng.normal(size=(len(ms), 4)) + 1j * rng.normal(size=(len(ms), 4))
            values = expectation(states, vecs)
            one_vec = expectation(states, vecs[0])
            one_state = expectation(states[0], vecs)
            assert values.shape == one_vec.shape == one_state.shape == (len(ms),)
            for i in range(len(ms)):
                single = expectation(states[i], vecs[i])
                assert isinstance(single, float)
                assert np.array_equal(values[i], single)
                assert np.array_equal(one_vec[i], expectation(states[i], vecs[0]))
                assert np.array_equal(one_state[i], expectation(states[0], vecs[i]))

    def test_witness_rows_of_a_stack(self):
        # the expectation of each unphysical row against its own witness
        # vector, stacked and alone
        for ms in _stacks():
            rows = [i for i, m in enumerate(ms) if witness_certificate(m) is not None]
            assert rows
            vecs = np.stack([witness_certificate(ms[i]) for i in rows])
            values = expectation(extended_action(ms[rows], witness_input()), vecs)
            for value, i, vec in zip(values, rows, vecs):
                single = expectation(extended_action(ms[i], witness_input()), vec)
                assert np.array_equal(value, single)
                assert value < 0.0

    def test_one_nonhermitian_row_rejects_the_stack(self):
        rng = np.random.default_rng(71)
        states = _hermitian_stack(rng, 5)
        vecs = np.ones((5, 4), dtype=complex)
        expectation(states, vecs)
        states[3, 0, 1] += 1.0
        with pytest.raises(NonHermitianInputError):
            expectation(states, vecs)
        with pytest.raises(NonHermitianInputError):
            expectation(states, vecs[0])

    @pytest.mark.parametrize(
        "m_shape, c_shape",
        [((4, 4), (3, 4)), ((2, 4, 4), (4,)), ((2, 4, 4), (2, 2, 4, 4)), ((2, 3, 3), (4, 4))],
    )
    def test_rejects_bad_shapes(self, m_shape, c_shape):
        with pytest.raises(ValueError):
            extended_action(np.ones(m_shape), np.ones(c_shape))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            extended_action(np.ones((2, 4, 4)), np.ones((3, 4, 4)))
        with pytest.raises(ValueError):
            expectation(np.eye(4)[None].repeat(2, axis=0), np.ones((3, 4)))
        with pytest.raises(ValueError):
            expectation(np.eye(4), np.ones((2, 3)))
