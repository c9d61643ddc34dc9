"""Fourier-transform circuit against the direct reference transform."""

import numpy as np
import pytest

from shorsim import circuit as circ
from shorsim import (
    apply_qft,
    apply_qft_on,
    basis_state,
    build_period_state,
    dft_reference,
    qft_circuit,
)

from conftest import random_state_vector


def run_qft(amps) -> np.ndarray:
    n = len(amps).bit_length() - 1
    s = basis_state(n, 0)
    s.amplitudes = np.asarray(amps, dtype=np.complex128).copy()
    return apply_qft(s).amplitudes


class TestReference:
    def test_single_qubit_zero(self):
        np.testing.assert_allclose(
            dft_reference([1, 0]), [1 / np.sqrt(2)] * 2, atol=1e-15
        )

    def test_basis_zero_gives_uniform(self):
        out = dft_reference(basis_state(5, 0).amplitudes)
        np.testing.assert_allclose(out, np.full(32, 2 ** -2.5), atol=1e-14)

    def test_uniform_gives_basis_zero(self):
        out = dft_reference(np.full(32, 2 ** -2.5))
        expect = np.zeros(32)
        expect[0] = 1
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_positive_sign_convention(self):
        # with the +2*pi*i kernel, out[1] of e_1 has positive imaginary part
        out = dft_reference([0, 1, 0, 0])
        assert out[1].imag > 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            dft_reference([1, 0, 0])


class TestCircuit:
    def test_n1_is_single_hadamard(self):
        c = qft_circuit(1)
        assert c.gate_count == 1
        cols = [c.run(basis_state(1, b)).amplitudes for b in (0, 1)]
        np.testing.assert_allclose(
            np.column_stack(cols),
            np.column_stack([dft_reference([1, 0]), dft_reference([0, 1])]),
            atol=1e-15,
        )

    def test_matches_reference_on_random_states(self, rng):
        total = 0
        worst = 0.0
        while total < 100:
            n = 1 + total % 8
            amps = random_state_vector(n, rng)
            worst = max(worst, float(np.max(np.abs(run_qft(amps) - dft_reference(amps)))))
            total += 1
        assert worst <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 20])
    def test_gate_count_formula(self, n):
        assert qft_circuit(n).gate_count == n * (n + 1) // 2 + n // 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_matrix_equals_dft_kernel(self, n):
        # column-by-column reconstruction of the circuit unitary
        size = 1 << n
        cols = np.column_stack([
            qft_circuit(n).run(basis_state(n, b)).amplitudes for b in range(size)
        ])
        x = np.arange(size)
        kernel = np.exp(2j * np.pi * np.outer(x, x) / size) / np.sqrt(size)
        np.testing.assert_allclose(cols, kernel, atol=1e-12)

    def test_each_call_returns_its_own_circuit(self):
        def ladder(n):
            c = circ.Circuit(n)
            for i in range(n - 1, -1, -1):
                c.append(circ.h(i))
                for m in range(i - 1, -1, -1):
                    c.append(circ.cphase(m, i, np.pi / 2 ** (i - m)))
            for k in range(n // 2):
                c.append(circ.swap(k, n - 1 - k))
            return c

        n = 5
        first = qft_circuit(n)
        assert first == ladder(n)
        first.append(circ.x(0))
        first.ops[1] = circ.x(1)
        first.run(basis_state(n, 3))
        assert qft_circuit(n) == ladder(n)
        assert qft_circuit(n).ops is not qft_circuit(n).ops

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            qft_circuit(0)

    def test_unitarity(self, rng):
        amps = random_state_vector(6, rng)
        assert np.linalg.norm(run_qft(amps)) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_consistency(self, rng):
        for n in (1, 3, 5, 7):
            amps = random_state_vector(n, rng)
            s = basis_state(n, 0)
            s.amplitudes = amps.copy()
            apply_qft(s)
            qft_circuit(n).inverse().run(s)
            assert np.max(np.abs(s.amplitudes - amps)) <= 1e-10


class TestPeriodStateSpectrum:
    def test_uniform_register_transforms_to_zero(self):
        s = build_period_state(4, 0, 1)  # uniform over all 16 states
        apply_qft(s)
        assert s.probabilities()[0] == pytest.approx(1.0, abs=1e-12)

    def test_tallest_peak_value(self):
        s = apply_qft(build_period_state(6, 4, 7))
        assert s.probabilities()[0] == pytest.approx(81 / 576, abs=1e-9)

    def test_reference_peak_table(self):
        scaled = 576 * apply_qft(build_period_state(6, 4, 7)).probabilities()
        table = {0: 81.0, 9: 75.9, 18: 62.2, 27: 43.7, 28: 25.3, 37: 43.7, 46: 62.2, 55: 75.9}
        for y, ref in table.items():
            assert scaled[y] == pytest.approx(ref, abs=0.05)

    def test_offset_invariance(self):
        # the offset enters the post-transform amplitudes only through phases,
        # so any two offsets with the same support size share one distribution
        # (offset 0 has a tenth support point here and is excluded)
        reference = apply_qft(build_period_state(6, 4, 7)).probabilities()
        for x0 in (1, 2, 3, 5, 6):
            shifted = apply_qft(build_period_state(6, x0, 7)).probabilities()
            np.testing.assert_allclose(shifted, reference, atol=1e-12)

    def test_peak_spacing(self):
        probs = apply_qft(build_period_state(6, 4, 7)).probabilities()
        centers = {round(k * 64 / 7) % 64 for k in range(7)}
        for y in range(64):
            left, right = probs[(y - 1) % 64], probs[(y + 1) % 64]
            if probs[y] > left and probs[y] > right:  # strict local maximum
                assert any(min(abs(y - c), 64 - abs(y - c)) <= 1 for c in centers)

    @pytest.mark.parametrize("r", list(range(1, 17)))
    def test_peak_width_mass_concentration(self, r):
        n = max(2, 2 * (r - 1).bit_length())  # 2**n >= r*r
        assert (1 << n) >= r * r
        size = 1 << n
        probs = apply_qft(build_period_state(n, r // 3, r)).probabilities()
        centers = {round(k * size / r) % size for k in range(r)}
        mass = sum(
            probs[y]
            for y in range(size)
            if any(min(abs(y - c), size - abs(y - c)) <= 1 for c in centers)
        )
        assert mass >= 0.5


class TestApplyOnSubset:
    def test_identity_outside_subset(self, rng):
        # QFT on qubits 1..3 of |psi> (x) |0> must leave qubit 0 and 4 factors alone
        s = basis_state(5, 0b00001)
        apply_qft_on(s, [1, 2, 3])
        probs = s.probabilities()
        on_support = [i for i in range(32) if probs[i] > 1e-12]
        assert all(i & 1 and not i >> 4 for i in on_support)

    def test_subset_matches_full_transform_on_block(self, rng):
        amps = random_state_vector(3, rng)
        s = basis_state(5, 0)
        joint = np.zeros(32, dtype=np.complex128)
        joint[:8] = amps  # qubits 3, 4 in |0>
        s.amplitudes = joint.copy()
        apply_qft_on(s, [0, 1, 2])
        np.testing.assert_allclose(s.amplitudes[:8], dft_reference(amps), atol=1e-10)

    def test_non_contiguous_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            apply_qft_on(basis_state(4, 0), [0, 2])

    def test_descending_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            apply_qft_on(basis_state(4, 0), [2, 1, 0])
