"""Core state-vector behavior: gate kernels, permutations, measurement."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shorsim.state as state_mod
from shorsim import (
    BasisPermutation,
    QuantumState,
    apply_qft_on,
    basis_state,
    build_period_state,
    hadamard,
    identity_gate,
    modexp_oracle,
    not_gate,
    phase_shift,
    swap_gate,
    tensor_product,
)
from shorsim.gates import Gate2, Gate4
from shorsim.shor import _uniform_amplitude
from shorsim.state import sample_indices

from conftest import StubRng, assert_bitwise_equal, random_state_vector, random_unitary, traced_peak

SQRT1_2 = 1.0 / np.sqrt(2.0)


def state_from(amps) -> QuantumState:
    amps = np.asarray(amps, dtype=np.complex128)
    n = amps.size.bit_length() - 1
    s = basis_state(n, 0)
    s.amplitudes = amps.copy()
    return s


class TestBasisState:
    def test_single_qubit_zero(self):
        np.testing.assert_array_equal(basis_state(1, 0).amplitudes, [1, 0])

    def test_four_qubit_all_zero(self):
        s = basis_state(4, 0)
        assert s.amplitudes[0] == 1
        assert np.count_nonzero(s.amplitudes) == 1

    def test_bit_convention_lsb_is_qubit_zero(self):
        s = basis_state(3, 5)  # |101>: qubits 0 and 2 set
        assert s.amplitudes[5] == 1
        assert np.count_nonzero(s.amplitudes) == 1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_state(2, 4)

    def test_memory_cap_reports_byte_estimate(self):
        with pytest.raises(ValueError, match=str(16 * 2**31)):
            basis_state(31, 0)
        # overridable
        basis_state(5, 0, max_qubits=5)
        with pytest.raises(ValueError):
            basis_state(6, 0, max_qubits=5)

    def test_zeroed_array_is_the_only_allocation(self):
        # adopted without a finiteness scan, whose bool temporary is 1/16 state
        with traced_peak() as peak:
            s = basis_state(18, 0)
        assert peak.bytes <= 1.01 * s.amplitudes.nbytes


class TestConstruction:
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)]
    )
    def test_outside_amplitudes_must_be_finite(self, bad):
        amps = np.zeros(4, dtype=np.complex128)
        amps[2] = bad
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            QuantumState(2, amps)

    def test_copy_owns_an_equal_array(self, rng):
        s = state_from(random_state_vector(3, rng))
        c = s.copy()
        assert c.num_qubits == 3
        np.testing.assert_array_equal(c.amplitudes, s.amplitudes)
        assert not np.shares_memory(c.amplitudes, s.amplitudes)


class TestApplySingle:
    def test_hadamard_on_zero(self):
        s = basis_state(1, 0).apply_single(hadamard(), 0)
        np.testing.assert_allclose(s.amplitudes, [SQRT1_2, SQRT1_2], atol=1e-15)

    def test_not_on_zero(self):
        s = basis_state(1, 0).apply_single(not_gate(), 0)
        np.testing.assert_array_equal(s.amplitudes, [0, 1])

    def test_identity_leaves_state_unchanged(self, rng):
        amps = random_state_vector(4, rng)
        s = state_from(amps).apply_single(identity_gate(), 2)
        np.testing.assert_array_equal(s.amplitudes, amps)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_state(2, 0).apply_single(hadamard(), 2)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            basis_state(1, 0).apply_single(np.ones((2, 2)), 0)

    def test_locality_only_bit_j_pairs_touched(self, rng):
        # from a basis input, the output support is exactly {i, i ^ 2^j}
        g = Gate2(random_unitary(2, rng))
        for j in range(4):
            for i in (0, 5, 9, 15):
                s = basis_state(4, i).apply_single(g, j)
                support = set(np.flatnonzero(s.amplitudes).tolist())
                assert support <= {i, i ^ (1 << j)}
                # untouched entries are exactly zero
                mask = np.ones(16, bool)
                mask[[i, i ^ (1 << j)]] = False
                assert np.all(s.amplitudes[mask] == 0)

    def test_linearity(self, rng):
        g = Gate2(random_unitary(2, rng))
        u = random_state_vector(3, rng)
        v = random_state_vector(3, rng)
        alpha, beta = 0.37 - 0.2j, 0.81 + 0.44j
        combo = state_from(alpha * u + beta * v).apply_single(g, 1)
        parts = alpha * state_from(u).apply_single(g, 1).amplitudes \
            + beta * state_from(v).apply_single(g, 1).amplitudes
        np.testing.assert_allclose(combo.amplitudes, parts, atol=1e-12)

    def test_norm_preserved_over_many_gates(self, rng):
        s = state_from(random_state_vector(6, rng))
        for _ in range(1000):
            s.apply_single(Gate2(random_unitary(2, rng)), int(rng.integers(6)))
        assert abs(1.0 - s.norm() ** 2) <= 1e-9


class TestApplyControlled:
    def test_cnot_flips_target_when_control_set(self):
        # |a=1, b=0> -> |a=1, b=1> with a = qubit 0, b = qubit 1
        s = basis_state(2, 0b01).apply_controlled(not_gate(), {0}, 1)
        assert s.amplitudes[0b11] == 1

    def test_cnot_no_flip_when_control_clear(self):
        s = basis_state(2, 0b10).apply_controlled(not_gate(), {0}, 1)
        assert s.amplitudes[0b10] == 1

    def test_toffoli(self):
        # |a=1, b=1, c=0> -> |1, 1, 1>
        s = basis_state(3, 0b011).apply_controlled(not_gate(), {0, 1}, 2)
        assert s.amplitudes[0b111] == 1

    def test_controlled_phase_only_on_11(self):
        phi = 0.7345
        for idx in range(4):
            s = basis_state(2, idx).apply_controlled(phase_shift(phi), {0}, 1)
            expect = np.exp(1j * phi) if idx == 3 else 1.0
            assert s.amplitudes[idx] == pytest.approx(expect, abs=1e-15)

    def test_empty_controls_degenerate_to_single(self, rng):
        g = Gate2(random_unitary(2, rng))
        amps = random_state_vector(3, rng)
        via_controlled = state_from(amps).apply_controlled(g, set(), 1)
        via_single = state_from(amps).apply_single(g, 1)
        np.testing.assert_array_equal(via_controlled.amplitudes, via_single.amplitudes)

    def test_overlapping_indices_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            basis_state(2, 0).apply_controlled(not_gate(), {1}, 1)

    def test_controlled_then_dagger_is_identity(self, rng):
        amps = random_state_vector(5, rng)
        g = Gate2(random_unitary(2, rng))
        s = state_from(amps)
        s.apply_controlled(g, {0, 3}, 2).apply_controlled(g.dagger(), {0, 3}, 2)
        np.testing.assert_allclose(s.amplitudes, amps, atol=1e-12)


class TestApplyTwoQubit:
    def test_swap_01_to_10(self):
        s = basis_state(2, 0b01).apply_two_qubit(swap_gate(), 0, 1)
        assert s.amplitudes[0b10] == 1

    def test_cnot_as_4x4_matches_controlled(self, rng):
        # CNOT with control = pair-low qubit, target = pair-high qubit
        cnot4 = Gate4([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
        for _ in range(100):
            amps = random_state_vector(2, rng)
            via_4x4 = state_from(amps).apply_two_qubit(cnot4, 0, 1)
            via_ctrl = state_from(amps).apply_controlled(not_gate(), {0}, 1)
            np.testing.assert_allclose(
                via_4x4.amplitudes, via_ctrl.amplitudes, atol=1e-12
            )

    def test_xx_tensor_maps_00_to_11(self):
        xx = tensor_product(not_gate(), not_gate())
        s = basis_state(2, 0).apply_two_qubit(xx, 0, 1)
        assert s.amplitudes[0b11] == 1

    def test_qubit_order_convention(self, rng):
        # gate index = bit(qa) + 2*bit(qb): X on qa only must flip qa
        x_low = tensor_product(not_gate(), identity_gate())
        s = basis_state(3, 0).apply_two_qubit(x_low, 2, 0)
        assert s.amplitudes[0b100] == 1

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            basis_state(2, 0).apply_two_qubit(swap_gate(), 1, 1)


@pytest.mark.parametrize("n", [16, 18])
@pytest.mark.parametrize("gate", ["U2", "U4", "X", "CNOT", "SWAP", "CCNOT"])
def test_dense_gate_scratch_does_not_grow_with_width(n, gate, rng):
    # Every gate runs in pieces of 2**13 amplitudes.  Runs of two amplitudes
    # are gathered: a U4 holds 9 scratch rows, 1.125 MiB at any width, where
    # whole-part temporaries peaked at 1.4-1.6 MiB at 16 qubits and 5.1-6.1
    # MiB at 18.  X, CNOT, SWAP and CCNOT copy two rows through 3 scratch
    # rows, 0.375 MiB, where copying whole parts peaked at 0.25-1 MiB at 16
    # qubits and 1-4 MiB at 18.
    s = QuantumState(n, np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128))
    x = not_gate()
    apply, args = {
        "U2": (s.apply_single, (Gate2(random_unitary(2, rng)), 1)),
        "U4": (s.apply_two_qubit, (Gate4(random_unitary(4, rng)), 1, 2)),
        "X": (s.apply_single, (x, 0)),
        "CNOT": (s.apply_controlled, (x, {0}, 15)),
        "SWAP": (s.apply_two_qubit, (swap_gate(), 2, 13)),
        "CCNOT": (s.apply_controlled, (x, {0, 7}, 15)),
    }[gate]
    with traced_peak() as peak:
        apply(*args)
    assert peak.bytes <= 1.2 * 2**20


class TestBasisPermutation:
    def test_identity_unchanged(self, rng):
        amps = random_state_vector(3, rng)
        s = state_from(amps).apply_permutation(BasisPermutation.identity(3))
        np.testing.assert_array_equal(s.amplitudes, amps)

    def test_xor_one_equals_not(self):
        perm = BasisPermutation.from_function(1, lambda v: v ^ 1)
        s = basis_state(1, 0).apply_permutation(perm)
        np.testing.assert_array_equal(
            s.amplitudes, basis_state(1, 0).apply_single(not_gate(), 0).amplitudes
        )

    def test_modexp_xor_permutation(self):
        # |x=3, y=0> -> |x=3, y=8> for f(x) = 2^x mod 15 on 4+4 qubits
        f = [pow(2, xv, 15) for xv in range(16)]
        perm = BasisPermutation.from_function(
            8, lambda v: (v & 15) | (((v >> 4) ^ f[v & 15]) << 4)
        )
        s = basis_state(8, 3).apply_permutation(perm)
        assert s.amplitudes[3 | (8 << 4)] == 1

    def test_non_bijective_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            BasisPermutation([0, 0, 1, 2])

    def test_exactness_pure_index_shuffle(self, rng):
        amps = random_state_vector(5, rng)
        table = rng.permutation(32)
        perm = BasisPermutation(table)
        s = state_from(amps).apply_permutation(perm)
        # new amplitude at pi(x) equals old amplitude at x, bit for bit
        for xv in range(32):
            assert s.amplitudes[table[xv]] == amps[xv]
        back = s.apply_permutation(perm.inverse())
        np.testing.assert_array_equal(back.amplitudes, amps)


class TestProbabilities:
    def test_basis_state(self):
        np.testing.assert_array_equal(basis_state(1, 1).probabilities(), [0, 1])

    def test_plus_state(self):
        s = basis_state(1, 0).apply_single(hadamard(), 0)
        np.testing.assert_allclose(s.probabilities(), [0.5, 0.5], atol=1e-15)

    def test_uniform_three_qubits(self):
        s = basis_state(3, 0)
        for q in range(3):
            s.apply_single(hadamard(), q)
        np.testing.assert_allclose(s.probabilities(), np.full(8, 0.125), atol=1e-15)
        assert abs(s.probabilities().sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("n", range(21))
    def test_sliced_sum_is_bitwise_re_squared_plus_im_squared(self, n, rng):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps[::7] = complex(-0.0, -0.0)  # signed zeros in both parts
        re, im = amps.real, amps.imag
        assert_bitwise_equal(state_from(amps).probabilities(), re * re + im * im)

    def test_weights_are_the_only_state_size_allocation(self):
        # float64 weights are half the complex128 state, and the im*im slices
        # are a fixed 128 KiB
        n = 18
        s = QuantumState(n, np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128))
        with traced_peak() as peak:
            s.probabilities()
        assert peak.bytes < 0.6 * s.amplitudes.nbytes


class TestMeasureAll:
    def test_deterministic_on_basis_state(self):
        for seed in range(5):
            s = basis_state(3, 5)
            out = s.measure_all(np.random.default_rng(seed))
            assert out.value == 5
            assert out.probability == 1.0
            assert s.amplitudes[5] == 1

    def test_collapsed_state_is_basis_state(self, rng):
        s = state_from(random_state_vector(4, rng))
        out = s.measure_all(rng)
        np.testing.assert_array_equal(s.amplitudes, basis_state(4, out.value).amplitudes)

    def test_fixed_seed_reproducible(self, rng):
        amps = random_state_vector(4, rng)
        outs = {state_from(amps).measure_all(np.random.default_rng(77)).value for _ in range(10)}
        assert len(outs) == 1

    def test_frequency_of_plus_state(self):
        # 1e5 fresh seeds; binomial 5-sigma band is well inside [0.49, 0.51]
        plus = basis_state(1, 0).apply_single(hadamard(), 0)
        zeros = 0
        for seed in range(100_000):
            if plus.copy().measure_all(np.random.default_rng(seed)).value == 0:
                zeros += 1
        assert 0.49 <= zeros / 100_000 <= 0.51

    def test_zero_probability_never_sampled(self):
        s = state_from([0, 1, 0, 0])
        for seed in range(20):
            assert state_from(s.amplitudes).measure_all(np.random.default_rng(seed)).value == 1

    def test_collapses_in_place_with_at_most_a_mebibyte_of_scratch(self):
        # the draw's weights, block sums and running sum are a piece each, not
        # a state (4 and 16 MiB here), and the collapse allocates nothing
        for n in (18, 20):
            s = QuantumState(n, np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128))
            amps = s.amplitudes
            with traced_peak() as peak:
                out = s.measure_all(np.random.default_rng(5))
            assert peak.bytes <= 1 << 20
            assert s.amplitudes is amps
            np.testing.assert_array_equal(s.amplitudes, basis_state(n, out.value).amplitudes)


class TestMeasureSubregister:
    def test_modexp_output_collapse(self):
        # uniform input, f(x) = 2^x mod 15 XORed into the top 4 qubits
        f = [pow(2, xv, 15) for xv in range(16)]
        perm = BasisPermutation.from_function(
            8, lambda v: (v & 15) | (((v >> 4) ^ f[v & 15]) << 4)
        )
        for seed in range(40):
            s = basis_state(8, 0)
            for q in range(4):
                s.apply_single(hadamard(), q)
            s.apply_permutation(perm)
            out = s.measure_subregister(range(4, 8), np.random.default_rng(seed))
            if out.value == 1:
                support = np.flatnonzero(np.abs(s.amplitudes) > 1e-12)
                np.testing.assert_array_equal(support, [w | (1 << 4) for w in (0, 4, 8, 12)])
                np.testing.assert_allclose(
                    s.amplitudes[support], np.full(4, 0.5), atol=1e-12
                )
                break
        else:
            pytest.fail("outcome 1 never observed over 40 seeds")

    def test_product_state_second_factor(self, rng):
        psi = random_state_vector(2, rng)
        amps = np.zeros(8, dtype=np.complex128)
        amps[:4] = psi  # qubit 2 is |0>
        s = state_from(amps)
        out = s.measure_subregister([2], rng)
        assert out.value == 0
        assert out.probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(s.amplitudes[:4], psi, atol=1e-12)

    def test_bell_state_qubit0(self):
        bell = state_from([SQRT1_2, 0, 0, SQRT1_2])
        for seed in range(20):
            s = state_from(bell.amplitudes)
            out = s.measure_subregister([0], np.random.default_rng(seed))
            assert out.probability == pytest.approx(0.5, abs=1e-12)
            if out.value == 0:
                np.testing.assert_allclose(s.amplitudes, [1, 0, 0, 0], atol=1e-12)
                break
        else:
            pytest.fail("outcome 0 never observed over 20 seeds")

    def test_reported_mass_matches_sum_for_every_outcome(self, rng):
        # sweep seeds until each of the four outcomes has been observed, and
        # check the reported probability against the consistent-index mass
        amps = random_state_vector(5, rng)
        probs = np.abs(amps) ** 2
        masses = {
            o: sum(p for i, p in enumerate(probs)
                   if ((i >> 1) & 1 | (((i >> 3) & 1) << 1)) == o)
            for o in range(4)
        }
        seen = set()
        for seed in range(200):
            s = state_from(amps)
            out = s.measure_subregister([1, 3], np.random.default_rng(seed))
            assert out.probability == pytest.approx(masses[out.value], abs=1e-12)
            assert s.norm() == pytest.approx(1.0, abs=1e-12)
            # collapsed support only holds consistent indices
            for i in np.flatnonzero(np.abs(s.amplitudes) > 0):
                assert ((i >> 1) & 1 | (((i >> 3) & 1) << 1)) == out.value
            seen.add(out.value)
            if len(seen) == 4:
                break
        assert len(seen) == 4

    def test_distinct_indices_required(self, rng):
        with pytest.raises(ValueError, match="distinct"):
            basis_state(3, 0).measure_subregister([1, 1], rng)

    def test_sampling_frequencies_match_marginal(self, rng):
        # 20k draws from one stream against the exact marginal, 5-sigma bands
        amps = random_state_vector(4, rng)
        probs = np.abs(amps) ** 2
        marginal = np.zeros(4)
        for i, p in enumerate(probs):
            marginal[(i & 1) | (((i >> 2) & 1) << 1)] += p
        draws = 20_000
        counts = np.zeros(4)
        stream = np.random.default_rng(55)
        for _ in range(draws):
            counts[state_from(amps).measure_subregister([0, 2], stream).value] += 1
        sigma = np.sqrt(marginal * (1 - marginal) / draws)
        assert np.all(np.abs(counts / draws - marginal) <= 5 * sigma + 1e-12)


def moveaxis_measure(amps, qubits, u):
    """Reference sub-register measurement through ``np.moveaxis``: (outcome, p, collapsed)."""
    n, k = amps.size.bit_length() - 1, len(qubits)
    axes = [n - 1 - q for q in reversed(qubits)]
    weights = amps.real * amps.real + amps.imag * amps.imag
    probs = np.moveaxis(weights.reshape((2,) * n), axes, range(k))
    marginal = probs.sum(axis=tuple(range(k, n))).reshape(-1)
    outcome = int(sample_indices(marginal, u))
    p = float(marginal[outcome])
    out = amps.copy()
    view = np.moveaxis(out.reshape((2,) * n), axes, range(k))
    block = view[(*((outcome >> i) & 1 for i in reversed(range(k))), ...)]
    kept = block / np.sqrt(p)
    out.fill(0.0)
    block[...] = kept
    return outcome, p, out


@st.composite
def measured_qubits(draw):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["interleaved", "reversed", "top", "whole", "any"]))
    qubits = {
        "interleaved": list(range(n % 2, n, 2)) or [0],
        "reversed": list(range(n - 1, -1, -1))[:k],
        "top": list(range(n - k, n)),
        "whole": list(range(n)),
        "any": draw(st.permutations(range(n)))[:k],
    }[kind]
    return n, qubits


@settings(max_examples=300, deadline=None)
@given(measured_qubits(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, exclude_max=True))
def test_measure_subregister_is_bitwise_the_moveaxis_reference(case, seed, u):
    n, qubits = case
    amps = random_state_vector(n, np.random.default_rng(seed))
    outcome, p, collapsed = moveaxis_measure(amps, qubits, u)
    s = QuantumState(n, amps.copy())
    out = s.measure_subregister(qubits, StubRng(u))
    assert out.value == outcome
    assert np.float64(out.probability).view(np.uint64) == np.float64(p).view(np.uint64)
    assert_bitwise_equal(s.amplitudes, collapsed)


# H on qubit 0 of 2 qubits: the CDF of [1/2, 1/2, 0, 0] ends just below 1
LAST_DRAW = np.nextafter(1.0, 0.0)


class TestSamplerTail:
    def test_measure_all_past_rounded_total(self):
        s = basis_state(2, 0).apply_single(hadamard(), 0)
        assert np.cumsum(s.probabilities())[-1] < LAST_DRAW
        out = s.measure_all(StubRng(LAST_DRAW))
        assert out.value == 1
        assert out.probability > 0

    def test_measure_subregister_past_rounded_total(self):
        s = basis_state(2, 0).apply_single(hadamard(), 0)
        out = s.measure_subregister([1], StubRng(LAST_DRAW))
        assert out.value == 0
        assert out.probability > 0
        assert np.all(np.isfinite(s.amplitudes))

    @pytest.mark.parametrize("weights", [[0.0] * 4, [0.0, -0.0], [np.nan, 1.0]])
    def test_no_mass_rejected(self, weights):
        with pytest.raises(ValueError, match="total weight"):
            sample_indices(np.array(weights), 0.5)

    def test_measure_all_of_zero_state_rejected(self):
        s = QuantumState(2, np.zeros(4))
        with pytest.raises(ValueError, match="total weight"):
            s.measure_all(StubRng(0.0))

    def test_measure_subregister_of_zero_state_writes_no_nan(self):
        s = QuantumState(2, np.zeros(4))
        with np.errstate(all="raise"), pytest.raises(ValueError, match="total weight"):
            s.measure_subregister([0], StubRng(0.0))
        assert np.array_equal(s.amplitudes, np.zeros(4))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=1, max_size=12)
        .filter(lambda head: sum(head) > 0),
        st.integers(min_value=1, max_value=8),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=16),
    )
    def test_zero_weight_never_returned(self, head, zeros, draws):
        weights = np.array(head + [0.0] * zeros) / sum(head)
        u = np.array(draws + [0.0, 0.5, LAST_DRAW])
        idx = sample_indices(weights, u)
        assert np.all(weights[idx] > 0)
        for v in u:
            assert weights[int(sample_indices(weights, v))] > 0


def joint_register(n_to_factor, a, in_w):
    """Full mode's joint state after the oracle: uniform over |x, f(x)>, zero elsewhere."""
    out_w = (n_to_factor - 1).bit_length()
    amps = np.zeros(1 << (in_w + out_w), dtype=np.complex128)
    amps[modexp_oracle(a, n_to_factor, in_w, out_w).table[: 1 << in_w]] = _uniform_amplitude(in_w)
    return amps


def seeded_random_state(n, seed):
    return random_state_vector(n, np.random.default_rng(seed))


def transformed_period_state(n, x0, r):
    """Full mode's input register after the QFT, built as hybrid mode builds it."""
    return apply_qft_on(build_period_state(n, x0, r), range(n)).amplitudes


def assert_top_draws_are_the_reference(amps, k, scale=1.0):
    """``measure_subregister`` of the top ``k`` qubits, and ``measure_all`` when ``k == n``,
    bitwise ``moveaxis_measure`` at variates 0, on every few CDF values, at the total,
    just below it and at ``LAST_DRAW``.  ``scale`` < 1 puts the total below ``LAST_DRAW``."""
    amps = amps * scale
    n = amps.size.bit_length() - 1
    qubits = list(range(n - k, n))
    weights = amps.real * amps.real + amps.imag * amps.imag
    cdf = np.cumsum(weights.reshape(1 << k, -1).sum(axis=1))
    if scale < 1:
        assert cdf[-1] < LAST_DRAW
    for u in [0.0, *cdf[:: max(1, cdf.size // 7)], cdf[-1], np.nextafter(cdf[-1], 0.0), LAST_DRAW]:
        outcome, p, collapsed = moveaxis_measure(amps, qubits, u)
        s = QuantumState(n, amps.copy())
        out = s.measure_subregister(qubits, StubRng(u))
        assert out.value == outcome
        assert np.float64(out.probability).view(np.uint64) == np.float64(p).view(np.uint64)
        assert_bitwise_equal(s.amplitudes, collapsed)
        if k == n:
            s = QuantumState(n, amps.copy())
            out = s.measure_all(StubRng(u))
            assert out.value == outcome
            assert np.float64(out.probability).view(np.uint64) == np.float64(p).view(np.uint64)
            assert_bitwise_equal(s.amplitudes, basis_state(n, outcome).amplitudes)


@st.composite
def top_draw_cases(draw):
    """(amplitudes, k, scale): a random, sparse joint or transformed period state of 1-10 qubits."""
    kind = draw(st.sampled_from(["random", "joint", "period"]))
    if kind == "joint":
        n_to_factor, a = draw(st.sampled_from([(15, 2), (15, 7), (15, 11), (21, 2), (21, 5)]))
        amps = joint_register(n_to_factor, a, draw(st.integers(1, 5)))
    elif kind == "period":
        n = draw(st.integers(1, 10))
        r = draw(st.integers(1, 1 << n))
        amps = transformed_period_state(n, draw(st.integers(0, r - 1)), r)
    else:
        amps = seeded_random_state(draw(st.integers(1, 10)), draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, amps.size.bit_length() - 1))
    return amps, k, draw(st.sampled_from([1.0, 0.75]))


@settings(max_examples=200, deadline=None)
@given(top_draw_cases())
def test_top_draw_across_pieces_of_eight_is_bitwise_the_reference(case):
    # pieces of 8 amplitudes: carries cross many pieces, and blocks above 8 are a piece each
    with patch.object(state_mod, "_WEIGHT_SLICE", 8):
        assert_top_draws_are_the_reference(*case)


# (state builder and its arguments, k, scale): blocks of 2**15 and up are larger than a piece
TOP_DRAWS_15_TO_18 = [
    ((seeded_random_state, 15, 1), 0, 1.0),
    ((seeded_random_state, 16, 2), 1, 0.75),
    ((seeded_random_state, 17, 3), 17, 1.0),
    ((seeded_random_state, 18, 4), 3, 1.0),
    ((joint_register, 15, 7, 11), 4, 1.0),
    ((joint_register, 35, 2, 11), 6, 1.0),
    ((joint_register, 39, 5, 11), 6, 0.75),
    ((transformed_period_state, 17, 3, 12), 17, 1.0),
    ((transformed_period_state, 18, 5, 77), 18, 0.75),
    ((transformed_period_state, 18, 0, 6), 2, 1.0),
    ((transformed_period_state, 16, 11, 40), 9, 1.0),
]


@pytest.mark.parametrize(
    "build,k,scale",
    TOP_DRAWS_15_TO_18,
    ids=[f"{b[0].__name__}{b[1:]}-k{k}-x{scale}" for b, k, scale in TOP_DRAWS_15_TO_18],
)
def test_top_draw_of_15_to_18_qubits_is_bitwise_the_reference(build, k, scale):
    fn, *args = build
    assert_top_draws_are_the_reference(fn(*args), k, scale)


class TestInnerProduct:
    def test_self_overlap_is_one(self, rng):
        s = state_from(random_state_vector(4, rng))
        assert s.inner_product(s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        assert basis_state(1, 0).inner_product(basis_state(1, 1)) == 0

    def test_hadamard_column_entry(self):
        plus = basis_state(1, 0).apply_single(hadamard(), 0)
        assert basis_state(1, 0).inner_product(plus) == pytest.approx(SQRT1_2, abs=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            basis_state(1, 0).inner_product(basis_state(2, 0))
