"""Gate constructors, unitarity validation, tensor products."""

import numpy as np
import pytest

from shorsim import (
    Gate2,
    basis_state,
    hadamard,
    identity_gate,
    is_unitary,
    not_gate,
    phase_shift,
    swap_gate,
    tensor_product,
)

SQRT1_2 = 1.0 / np.sqrt(2.0)


def test_not_is_involution():
    xm = not_gate().matrix
    np.testing.assert_array_equal(xm @ xm, np.eye(2))


def test_not_determinant():
    assert np.linalg.det(not_gate().matrix) == pytest.approx(-1.0, abs=1e-15)


def test_not_flips_basis():
    s = basis_state(1, 0).apply_single(not_gate(), 0)
    assert s.amplitudes[1] == 1


def test_hadamard_is_involution():
    hm = hadamard().matrix
    np.testing.assert_allclose(hm @ hm, np.eye(2), atol=1e-15)


def test_hadamard_on_one_gives_minus_superposition():
    s = basis_state(1, 1).apply_single(hadamard(), 0)
    np.testing.assert_allclose(s.amplitudes, [SQRT1_2, -SQRT1_2], atol=1e-15)


def test_hadamard_entry_magnitudes():
    np.testing.assert_allclose(np.abs(hadamard().matrix), np.full((2, 2), SQRT1_2))


def test_phase_shift_zero_is_identity():
    np.testing.assert_array_equal(phase_shift(0.0).matrix, np.eye(2))


def test_phase_shift_pi_is_z():
    np.testing.assert_allclose(phase_shift(np.pi).matrix, np.diag([1, -1]), atol=1e-15)


def test_phase_shift_angle_addition():
    twice = phase_shift(np.pi / 2).matrix @ phase_shift(np.pi / 2).matrix
    np.testing.assert_allclose(twice, phase_shift(np.pi).matrix, atol=1e-15)


def test_phase_shift_rejects_non_finite():
    with pytest.raises(ValueError):
        phase_shift(float("nan"))


def test_tensor_identity_identity():
    np.testing.assert_array_equal(
        tensor_product(identity_gate(), identity_gate()).matrix, np.eye(4)
    )


def test_tensor_xx_antidiagonal():
    np.testing.assert_array_equal(
        tensor_product(not_gate(), not_gate()).matrix, np.fliplr(np.eye(4))
    )


def test_tensor_hh_gives_uniform_column():
    hh = tensor_product(hadamard(), hadamard()).matrix
    np.testing.assert_allclose(hh[:, 0], np.full(4, 0.5), atol=1e-15)


def test_tensor_index_order_documented_example():
    # a acts on the pair's low qubit: X (x) I flips only bit 0
    x_low = tensor_product(not_gate(), identity_gate()).matrix
    expect = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    np.testing.assert_array_equal(x_low, expect)


def test_is_unitary_accepts_x():
    assert is_unitary(not_gate())
    assert is_unitary(not_gate().matrix)


def test_is_unitary_rejects_all_ones():
    assert not is_unitary(np.ones((2, 2)))


def test_is_unitary_on_random_gate_products(rng):
    m = np.eye(2)
    for _ in range(50):
        pick = rng.integers(3)
        g = [hadamard(), not_gate(), phase_shift(rng.uniform(-np.pi, np.pi))][pick]
        m = g.matrix @ m
    assert is_unitary(m)


def test_constructors_all_unitary():
    for g in (identity_gate(), not_gate(), hadamard(), phase_shift(0.3), swap_gate()):
        assert is_unitary(g.matrix)


def test_construction_rejects_slightly_off_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        Gate2(hadamard().matrix * (1 + 1e-5))


def test_cnot_is_a_basis_permutation_matrix():
    # columns of the controlled-X action over all four basis states
    cols = []
    for idx in range(4):
        s = basis_state(2, idx).apply_controlled(not_gate(), {0}, 1)
        cols.append(s.amplitudes)
    m = np.column_stack(cols)
    assert np.array_equal(np.sort(m, axis=0)[-1], np.ones(4))  # one 1 per column
    assert np.array_equal(m.sum(axis=0), np.ones(4))
    assert np.array_equal(m.sum(axis=1), np.ones(4))
    assert np.all((m == 0) | (m == 1))


def test_gate_matrices_are_read_only():
    with pytest.raises(ValueError):
        hadamard().matrix[0, 0] = 2.0


@pytest.mark.parametrize("build", [identity_gate, not_gate, hadamard, swap_gate])
def test_constant_gates_built_once_and_stay_read_only(build):
    gate = build()
    assert build() is gate
    with pytest.raises(ValueError):
        gate.matrix[0, 0] = 2.0
