"""Fourier-transform circuit against the direct reference transform."""


import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shorsim.qft as qft_mod
from shorsim import circuit as circ
from shorsim import (
    QuantumState,
    apply_qft,
    apply_qft_on,
    basis_state,
    build_period_state,
    dft_reference,
    qft_circuit,
)

from conftest import assert_bitwise_equal, patched_ladder, random_state_vector, traced_peak


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

    def test_oversized_matrix_refused_before_allocating(self):
        # the 2**14-square matrix would need 4 GiB; the refusal allocates nothing of it
        amps = np.zeros(1 << 14, dtype=np.complex128)
        with traced_peak() as peak:
            with pytest.raises(ValueError, match=f"needs {16 << 28} bytes"):
                dft_reference(amps)
        assert peak.bytes < 1 << 20

    def test_only_the_latest_matrix_is_kept(self):
        # callers work one width at a time; an 11-qubit matrix (64 MiB) must
        # not stay alive once a 10-qubit reference (16 MiB) has replaced it
        qft_mod._dft_matrix.cache_clear()
        tracemalloc.start()
        try:
            for n in (11, 10):
                dft_reference(np.eye(1 << n)[0])
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            qft_mod._dft_matrix.cache_clear()
        assert kept < 1.25 * (16 << 20)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(qft_mod, "_DFT_MAX_QUBITS", 3)
        np.testing.assert_allclose(dft_reference(np.eye(8)[0]), np.full(8, 8 ** -0.5), atol=1e-15)
        with pytest.raises(ValueError, match="over the limit"):
            dft_reference(np.eye(16)[0])


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
        with pytest.raises(ValueError, match="must not be empty"):
            apply_qft_on(basis_state(2, 0), [])

    def test_zero_qubit_transform_is_the_identity(self):
        # one amplitude, as dft_reference takes it
        state = QuantumState(0, np.array([0.6 - 0.8j]))
        assert apply_qft(state) is state
        assert_bitwise_equal(state.amplitudes, dft_reference([0.6 - 0.8j]))
        assert_bitwise_equal(state.amplitudes, np.array([0.6 - 0.8j]))

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


def gate_ladder(amps, lo, k) -> np.ndarray:
    """The reference: the embedded ladder run op by op through the gate kernel."""
    n = len(amps).bit_length() - 1
    return qft_circuit(k).embedded(n, lo).run(QuantumState(n, amps.copy())).amplitudes


def walked(amps, lo, k) -> np.ndarray:
    n = len(amps).bit_length() - 1
    return apply_qft_on(QuantumState(n, amps.copy()), range(lo, lo + k)).amplitudes


class TestFusedWalker:
    @pytest.mark.parametrize("n", range(1, 11))
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_gate_ladder_on_every_range(self, n, seed):
        amps = random_state_vector(n, np.random.default_rng(seed))
        for k in range(1, n + 1):
            for lo in range(n - k + 1):
                assert_bitwise_equal(walked(amps, lo, k), gate_ladder(amps, lo, k))

    # the widths full mode transforms, up to 14 qubits a bound program: whole
    # register and above qubit 0 (an offset axis), and ranges with qubits
    # above them too (a lead axis longer than 1)
    @pytest.mark.parametrize(
        "n, lo, k", [(n, lo, n - lo) for n in (11, 12, 13, 14) for lo in (0, 1)] + [(13, 2, 9), (14, 2, 9), (14, 0, 11)]
    )
    def test_bitwise_equal_at_the_widths_full_mode_runs(self, n, lo, k, rng):
        amps = random_state_vector(n, rng)
        assert_bitwise_equal(walked(amps, lo, k), gate_ladder(amps, lo, k))

    # past 14 qubits an H step runs in pieces of _PIECE pairs: cut from a row
    # when the pairs' stride is that long, else whole rows grouped, and with
    # qubits below the range (an offset) or above it (a lead axis); one qubit
    # has no reversal, and two qubits reverse before their second H
    @pytest.mark.parametrize(
        "n, lo, k",
        [(15, 0, 15), (16, 1, 15), (16, 0, 15), (17, 2, 15), (16, 2, 14), (16, 0, 1), (16, 15, 1), (16, 3, 2)],
    )
    def test_bitwise_equal_over_several_pieces(self, n, lo, k, rng):
        amps = random_state_vector(n, rng)
        assert_bitwise_equal(walked(amps, lo, k), gate_ladder(amps, lo, k))

    def test_bitwise_equal_on_18_qubit_period_state(self):
        amps = build_period_state(18, 5, 91).amplitudes
        assert_bitwise_equal(walked(amps, 0, 18), gate_ladder(amps, 0, 18))

    def test_signed_zero_inputs_compare_equal(self, rng):
        # exact zeros of either sign may come out with the other sign, never another value
        values = np.array([0.0, -0.0, 1.0, -0.5, 2.0])
        for n in range(1, 7):
            amps = np.empty(1 << n, dtype=np.complex128)
            amps.real, amps.imag = rng.choice(values, 1 << n), rng.choice(values, 1 << n)
            for k in range(1, n + 1):
                for lo in range(n - k + 1):
                    np.testing.assert_array_equal(walked(amps, lo, k), gate_ladder(amps, lo, k))

    def test_transient_memory_within_a_quarter_above_one_state(self):
        # past 14 qubits a transform's one new array is the spare its calls
        # are bound onto, the reversed copy; the old amplitudes are the
        # pieces' scratch after it, and the bound views are small
        state = build_period_state(18, 5, 91)
        with traced_peak() as peak:
            apply_qft(state)
        assert peak.bytes <= 1.25 * state.amplitudes.nbytes

    @pytest.mark.parametrize("n", [11, 14])
    def test_in_place_and_allocation_free_once_bound(self, n, rng):
        state = QuantumState(n, random_state_vector(n, rng))
        expect = gate_ladder(state.amplitudes, 0, n)
        apply_qft(QuantumState(n, state.amplitudes.copy()))  # binds the program for this shape
        amps = state.amplitudes
        with traced_peak() as peak:
            apply_qft(state)
        assert peak.bytes < 4096
        assert state.amplitudes is amps
        assert_bitwise_equal(amps, expect)

    # every thread transforms its own state: at 11 qubits through the one
    # program its shape binds, at 15 through calls bound per transform
    @pytest.mark.parametrize("n, times", [(11, 100), (15, 10)])
    def test_threads_give_the_serial_bits(self, n, times, rng):
        starts = [random_state_vector(n, rng) for _ in range(4)]
        serial = []
        for amps in starts:
            state = QuantumState(n, amps.copy())
            for _ in range(times):
                apply_qft(state)
            serial.append(state.amplitudes)
        states = [QuantumState(n, amps.copy()) for amps in starts]

        def transform(state):
            for _ in range(times):
                apply_qft(state)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=transform, args=(s,)) for s in states]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for state, expect in zip(states, serial):
            assert_bitwise_equal(state.amplitudes, expect)

    @pytest.mark.parametrize("n, q", [(16, 0), (16, 15), (18, 0), (18, 17)])
    def test_one_qubit_on_a_wide_register_allocates_a_piece_of_scratch(self, n, q, rng):
        # one qubit is never reversed, so its only buffer is the pieces'
        # scratch, _PIECE amplitudes (128 KiB), not half the state
        state = QuantumState(n, random_state_vector(n, rng))
        expect = gate_ladder(state.amplitudes, q, 1)
        apply_qft_on(QuantumState(n, state.amplitudes.copy()), [q])  # decodes the plan
        with traced_peak() as peak:
            apply_qft_on(state, [q])
        assert peak.bytes < 256 * 1024
        assert_bitwise_equal(state.amplitudes, expect)

    def test_wide_transform_caches_no_buffer(self, rng):
        # past 14 qubits the calls are bound per transform, so once the plan
        # is decoded a transform keeps nothing: a program cached for the
        # shape would hold two 1 MiB buffers
        amps = random_state_vector(16, rng)
        apply_qft(QuantumState(15, amps[: 1 << 15].copy()))  # warms the wide path at another width
        qft_mod._plan.cache_clear()
        qft_mod._plan(16)
        try:
            tracemalloc.start()
            base, _ = tracemalloc.get_traced_memory()
            apply_qft(QuantumState(16, amps.copy()))
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept < 256 * 1024

    @pytest.mark.parametrize("n", [12, 14])
    def test_result_independent_of_callers_buffer_size(self, n, rng):
        # at 12-14 q the walker's ops run on contiguous runs short enough for
        # numpy to buffer them, so the caller's setting would matter if it leaked in
        amps = random_state_vector(n, rng)
        expect = walked(amps, 0, n)
        for size in (16, 8192, 2**20):
            with np.errstate():
                np.setbufsize(size)
                assert_bitwise_equal(walked(amps, 0, n), expect)

    def test_walk_runs_at_its_buffer_size(self, monkeypatch):
        seen = []
        true_walk = qft_mod._walk

        def spy(view):
            seen.append(np.getbufsize())
            return true_walk(view)

        monkeypatch.setattr(qft_mod, "_walk", spy)
        apply_qft(basis_state(3, 0))
        assert seen == [qft_mod._BUFSIZE]

    def test_buffer_size_restored_after_transform(self):
        with np.errstate():
            np.setbufsize(4096)
            apply_qft(basis_state(5, 3))
            assert np.getbufsize() == 4096

    def test_buffer_size_restored_after_walk_raises(self):
        with patched_ladder(lambda ops: (*ops, circ.x(0))), np.errstate():
            np.setbufsize(4096)
            with pytest.raises(ValueError, match="cannot apply X"):
                apply_qft(basis_state(3, 0))
            assert np.getbufsize() == 4096

    def test_range_past_register_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_qft_on(basis_state(3, 0), [2, 3])

    def test_op_outside_the_ladder_rejected(self):
        with patched_ladder(lambda ops: (*ops, circ.x(0))):
            with pytest.raises(ValueError, match="cannot apply X"):
                apply_qft(basis_state(3, 0))

    def test_walk_builds_no_circuit(self, monkeypatch, rng):
        # the walk reads only its cached plan; the circuit builder is the gate path's
        amps = random_state_vector(6, rng)
        expect = gate_ladder(amps, 0, 6)

        def no_circuit(k):
            raise AssertionError("the walk built qft_circuit")

        monkeypatch.setattr(qft_mod, "qft_circuit", no_circuit)
        assert_bitwise_equal(run_qft(amps), expect)


class TestPlan:
    def test_repeated_transforms_add_no_plan_miss(self, rng):
        amps = random_state_vector(7, rng)
        walked(amps, 0, 7)
        before = qft_mod._plan.cache_info()
        for _ in range(3):
            walked(amps, 0, 7)
        after = qft_mod._plan.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 3

    def test_a_plan_holds_at_most_512_kib(self):
        # most of it is the CPHASE rows of 2**_ROW_BITS entries, 4 KiB each
        qft_mod._qft_ops(20)
        qft_mod._plan.cache_clear()
        with traced_peak() as peak:
            qft_mod._plan(20)
        assert peak.bytes <= 512 * 1024

    def test_bound_programs_hold_7_mib_of_buffers_at_most(self, rng):
        # each width keeps one program, two buffers of at most 2**14 amplitudes
        # (512 KiB), plus its views (0.26 MiB over all 14 widths); a new shape
        # at a width replaces the old one
        state = QuantumState(14, random_state_vector(14, rng))
        qft_mod._plan.cache_clear()
        for k in range(1, 15):
            qft_mod._plan(k)
        try:
            tracemalloc.start()
            base, _ = tracemalloc.get_traced_memory()
            for k in range(1, 15):
                apply_qft_on(state, range(k))  # a lead axis of 2**(14-k)
            for k in range(1, 15):
                apply_qft_on(state, range(14 - k, 14))  # an offset axis instead
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            qft_mod._plan.cache_clear()
        assert 14 * 512 * 1024 <= kept <= 7.5 * 2**20

    def test_detuned_ladder_drives_the_walk(self, rng):
        amps = random_state_vector(3, rng)
        exact = walked(amps, 0, 3)  # fills the cache at width 3
        assert qft_circuit(3).ops[1].name == "CPHASE"
        with patched_ladder(lambda ops: (ops[0], circ.cphase(1, 2, np.pi / 2 + 0.125), *ops[2:])):
            got = walked(amps, 0, 3)
            assert_bitwise_equal(got, gate_ladder(amps, 0, 3))  # the builder runs the detuned ops too
        assert not np.allclose(got, exact)
        assert_bitwise_equal(walked(amps, 0, 3), exact)
