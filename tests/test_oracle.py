"""XOR-embedded oracles, garbage uncompute, reversible AND networks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shorsim import (
    BasisPermutation,
    Circuit,
    ReversibleFunction,
    basis_state,
    compute_copy_uncompute,
    modexp_oracle,
    modexp_trace,
    multi_and_circuit,
    xor_oracle,
)
from shorsim import circuit as circ
from shorsim.oracle import _xor_image
from shorsim.selftest import _truth_table_circuit

from conftest import traced_peak


class TestXorOracle:
    def test_zero_function_is_identity(self):
        f = ReversibleFunction(2, 2, lambda v: 0)
        assert xor_oracle(f) == BasisPermutation.identity(4)

    def test_identity_bit_is_cnot(self):
        f = ReversibleFunction(1, 1, lambda v: v)
        np.testing.assert_array_equal(xor_oracle(f).table, [0, 3, 2, 1])

    def test_modexp_example_and_involution(self):
        f = ReversibleFunction(4, 4, lambda v: pow(2, v, 15))
        perm = xor_oracle(f)
        assert perm(3 | (0 << 4)) == 3 | (8 << 4)
        assert perm(3 | (8 << 4)) == 3 | (0 << 4)

    def test_involution_for_random_functions(self, rng):
        for _ in range(20):
            in_w = int(rng.integers(1, 5))
            out_w = int(rng.integers(1, 5))
            table = rng.integers(0, 1 << out_w, size=1 << in_w)
            f = ReversibleFunction(in_w, out_w, lambda v, t=table: int(t[v]))
            perm = xor_oracle(f)
            np.testing.assert_array_equal(
                perm.table[perm.table], np.arange(1 << (in_w + out_w))
            )

    @pytest.mark.parametrize("in_w", range(5))
    @pytest.mark.parametrize("out_w", range(1, 5))
    def test_table_matches_literal_loop(self, rng, in_w, out_w):
        table = rng.integers(0, 1 << out_w, size=1 << in_w)
        f = ReversibleFunction(in_w, out_w, lambda v: int(table[v]))
        expect = [0] * (1 << (in_w + out_w))
        for x in range(1 << in_w):
            for y in range(1 << out_w):
                expect[x | (y << in_w)] = x | ((y ^ int(table[x])) << in_w)
        assert xor_oracle(f).table.tolist() == expect

    def test_output_width_validated(self):
        f = ReversibleFunction(1, 1, lambda v: 2)
        with pytest.raises(ValueError, match="does not fit"):
            xor_oracle(f)

    @settings(max_examples=60, deadline=None)
    @given(in_w=st.integers(0, 6), out_w=st.integers(1, 5), data=st.data())
    def test_image_passes_the_generic_bijection_check(self, in_w, out_w, data):
        # _xor_image checks only the f-table; the full check must agree
        values = data.draw(st.lists(st.integers(0, (1 << out_w) - 1),
                                    min_size=1 << in_w, max_size=1 << in_w))
        perm = xor_oracle(ReversibleFunction(in_w, out_w, lambda v: values[v]))
        assert BasisPermutation(perm.table.copy()) == perm

    @pytest.mark.parametrize("bad", [-1, 4, 7, 1 << 40])
    def test_f_value_outside_the_output_width_is_not_a_bijection(self, bad):
        fx = np.array([0, 3, bad, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="not a bijection: value out of range"):
            _xor_image(fx, 2, 2)


class TestComputeCopyUncompute:
    def test_ccnot_and_example(self):
        # CCNOT computes AND with the inputs surviving as garbage
        cf = Circuit(3, [circ.ccnot(0, 1, 2)])
        wrapped = compute_copy_uncompute(cf, x_width=2, f_width=1, g_width=1)
        assert wrapped.width == 4
        for a in (0, 1):
            for b in (0, 1):
                s = wrapped.run(basis_state(4, a | (b << 1)))
                expect = a | (b << 1) | ((a & b) << 3)
                assert s.amplitudes[expect] == 1

    def test_empty_circuit_identity_f_is_copy_fan(self):
        wrapped = compute_copy_uncompute(Circuit(2), x_width=2, f_width=2, g_width=0)
        assert wrapped == Circuit(4, [circ.cnot(0, 2), circ.cnot(1, 3)])

    def test_random_reversible_cf_work_register_returns_to_zero(self, rng):
        for _ in range(25):
            cf = Circuit(3)
            for _ in range(int(rng.integers(1, 15))):
                qs = rng.permutation(3)
                cf.append(circ.ccnot(int(qs[0]), int(qs[1]), int(qs[2]))
                          if rng.integers(2) else circ.cnot(int(qs[0]), int(qs[1])))
            wrapped = compute_copy_uncompute(cf, x_width=3, f_width=2, g_width=0)
            for xval in range(8):
                s = wrapped.run(basis_state(5, xval))
                out = s.measure_subregister([0, 1, 2], np.random.default_rng(0))
                assert out.value == xval
                assert out.probability == 1.0

    def test_matches_xor_oracle_with_zeroed_work(self):
        # wrapped circuit equals the XOR oracle, up to the zeroed work block
        for in_w, out_w, fn in [
            (2, 1, lambda v: v & 1),
            (3, 2, lambda v: (v * 3 + 1) & 3),
            (4, 4, lambda v: (v * v) & 15),
        ]:
            f = ReversibleFunction(in_w, out_w, fn)
            cf = _truth_table_circuit(f)
            wrapped = compute_copy_uncompute(cf, in_w, out_w, out_w)
            perm = xor_oracle(f)
            for xval in range(1 << in_w):
                s = wrapped.run(basis_state(wrapped.width, xval))
                idx = int(np.flatnonzero(s.amplitudes)[0])
                assert s.amplitudes[idx] == 1
                x_part = idx & ((1 << in_w) - 1)
                work = (idx >> in_w) & ((1 << out_w) - 1)
                copy = idx >> (in_w + out_w)
                assert work == 0
                assert x_part | (copy << in_w) == perm(xval)

    def test_superposition_producing_circuit_rejected(self):
        cf = Circuit(2, [circ.h(0)])
        with pytest.raises(ValueError, match="superposition"):
            compute_copy_uncompute(cf, x_width=2, f_width=1, g_width=0)

    def test_width_bookkeeping_validated(self):
        with pytest.raises(ValueError, match="width"):
            compute_copy_uncompute(Circuit(3), x_width=1, f_width=1, g_width=1)


class TestMultiAnd:
    def test_k2_single_ccnot_no_ancilla(self):
        c = multi_and_circuit(2)
        assert c.width == 3
        assert c == Circuit(3, [circ.ccnot(0, 1, 2)])

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_exhaustive_truth_table(self, k):
        c = multi_and_circuit(k)
        assert c.width == 2 * k - 1
        all_ones = (1 << k) - 1
        for bits in range(1 << k):
            s = c.run(basis_state(c.width, bits))
            want = bits | ((1 << (c.width - 1)) if bits == all_ones else 0)
            assert s.amplitudes[want] == 1  # ancillas back to zero, result on top

    def test_k4_input_1110(self):
        # inputs b1..b4 = 1,1,1,0 (qubit order low to high): AND is 0
        c = multi_and_circuit(4)
        s = c.run(basis_state(7, 0b0111))
        assert s.amplitudes[0b0111] == 1

    def test_k_below_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            multi_and_circuit(1)


class TestModexpOracle:
    def test_period_visible_for_2_mod_15(self):
        perm = modexp_oracle(2, 15, 4, 4)
        f = [perm(xv) >> 4 for xv in range(5)]
        assert f == [1, 2, 4, 8, 1]

    def test_unit_base(self):
        perm = modexp_oracle(1, 7, 3, 3)
        assert all(perm(xv) >> 3 == 1 for xv in range(8))

    def test_hand_exercise_instance(self):
        perm = modexp_oracle(8, 37, 7, 6)
        assert perm(65) >> 7 == 23

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="shares a factor"):
            modexp_oracle(6, 15, 4, 4)

    def test_narrow_output_rejected(self):
        with pytest.raises(ValueError, match="cannot hold"):
            modexp_oracle(2, 15, 4, 3)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 5000), a=st.integers(1, 10**6), in_w=st.integers(0, 9),
           spare=st.integers(0, 2))
    def test_doubling_table_matches_per_x_pow(self, n, a, in_w, spare):
        assume(math.gcd(a, n) == 1)
        out_w = (n - 1).bit_length() + spare
        per_x = xor_oracle(ReversibleFunction(in_w, out_w, lambda xv: pow(a, xv, n)))
        assert modexp_oracle(a, n, in_w, out_w) == per_x

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 300), a=st.integers(1, 10**4), in_w=st.integers(0, 8),
           spare=st.integers(0, 2))
    def test_image_passes_the_generic_bijection_check(self, n, a, in_w, spare):
        assume(math.gcd(a, n) == 1)
        perm = modexp_oracle(a, n, in_w, (n - 1).bit_length() + spare)
        assert BasisPermutation(perm.table.copy()) == perm

    def test_image_is_built_on_first_read(self):
        # N=77 runs 13 + 7 qubits: the image is 8 MiB of int64, the f-table 64 KiB
        with traced_peak() as peak:
            perm = modexp_oracle(2, 77, 13, 7)
        assert peak.bytes <= 1 << 19
        per_x = xor_oracle(ReversibleFunction(13, 7, lambda xv: pow(2, xv, 77)))
        np.testing.assert_array_equal(perm.table, per_x.table)
        assert not perm.f_table.flags.writeable and not perm.table.flags.writeable

    def test_int64_product_guard(self):
        # 3037000501**2 > 2**63: the table's products would overflow int64
        with pytest.raises(ValueError, match=r"n\*n < 2\*\*63"):
            modexp_oracle(2, 3037000501, 1, 32)


class TestGarbageNecessity:
    def test_joint_map_with_garbage_is_not_periodic(self):
        r = 4
        f = [modexp_trace(2, xv, 15, 4)[0] for xv in range(16)]
        joint = [modexp_trace(2, xv, 15, 4) for xv in range(16)]
        assert all(f[xv] == f[xv + r] for xv in range(16 - r))
        assert any(joint[xv] != joint[xv + r] for xv in range(16 - r))

    def test_trace_final_entry_is_result(self):
        result, trace = modexp_trace(7, 11, 15, 4)
        assert trace[-1] == result == pow(7, 11, 15)
