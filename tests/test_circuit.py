"""Circuit construction, execution, inversion, and the text format."""

import numpy as np
import pytest

from shorsim import BasisPermutation, Circuit, CircuitParseError, GateOp, basis_state
from shorsim import circuit as circ
from shorsim.gates import Gate2, Gate4, hadamard, not_gate, phase_shift

from conftest import random_state_vector, random_unitary

SQRT1_2 = 1.0 / np.sqrt(2.0)


def bell_circuit() -> Circuit:
    return Circuit(2, [circ.h(0), circ.cnot(0, 1)])


class TestAppend:
    def test_append_to_empty(self):
        c = Circuit(2).append(circ.h(0))
        assert c.gate_count == 1

    def test_append_k_ops(self):
        c = Circuit(3)
        for i in range(7):
            c.append(circ.h(i % 3))
        assert c.gate_count == 7

    def test_append_preserves_earlier_ops(self):
        c = Circuit(2, [circ.h(0)])
        first = c.ops[0]
        c.append(circ.cnot(0, 1))
        assert c.ops[0] is first

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(2).append(circ.h(2))

    def test_permutation_width_must_match(self):
        with pytest.raises(ValueError, match="width"):
            Circuit(3).append(circ.permutation_op(BasisPermutation.identity(2)))


class TestRun:
    def test_empty_circuit_identity(self, rng):
        amps = random_state_vector(3, rng)
        s = basis_state(3, 0)
        s.amplitudes = amps.copy()
        Circuit(3).run(s)
        np.testing.assert_array_equal(s.amplitudes, amps)

    def test_bell_preparation(self):
        s = bell_circuit().run(basis_state(2, 0))
        np.testing.assert_allclose(s.amplitudes, [SQRT1_2, 0, 0, SQRT1_2], atol=1e-15)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            bell_circuit().run(basis_state(3, 0))

    def test_bell_basis_measurement_distinguishes_all_four(self):
        # CNOT then H maps the four Bell states to four distinct basis states
        analyzer = Circuit(2, [circ.cnot(0, 1), circ.h(0)])
        bells = [
            [SQRT1_2, 0, 0, SQRT1_2],   # (|00> + |11>)/sqrt2
            [SQRT1_2, 0, 0, -SQRT1_2],  # (|00> - |11>)/sqrt2
            [0, SQRT1_2, SQRT1_2, 0],   # (|01> + |10>)/sqrt2
            [0, SQRT1_2, -SQRT1_2, 0],  # (|01> - |10>)/sqrt2
        ]
        outcomes = set()
        for amps in bells:
            s = basis_state(2, 0)
            s.amplitudes = np.array(amps, dtype=np.complex128)
            analyzer.run(s)
            out = s.measure_all(np.random.default_rng(0))
            assert out.probability == pytest.approx(1.0, abs=1e-12)
            outcomes.add(out.value)
        assert len(outcomes) == 4

    def test_run_is_functorial_over_concatenation(self, rng):
        c1 = Circuit(3, [circ.h(0), circ.cnot(0, 2)])
        c2 = Circuit(3, [circ.phase(2, 0.3), circ.swap(0, 1)])
        amps = random_state_vector(3, rng)
        s_joint = basis_state(3, 0)
        s_joint.amplitudes = amps.copy()
        Circuit(3, c1.ops + c2.ops).run(s_joint)
        s_seq = basis_state(3, 0)
        s_seq.amplitudes = amps.copy()
        c2.run(c1.run(s_seq))
        np.testing.assert_array_equal(s_joint.amplitudes, s_seq.amplitudes)


class TestInverse:
    def test_hadamard_self_inverse(self):
        c = Circuit(1, [circ.h(0)])
        assert c.inverse() == c

    def test_inverse_restores_random_states(self, rng):
        from shorsim.selftest import _random_circuit

        for _ in range(100):
            width = int(rng.integers(2, 7))
            c = _random_circuit(width, int(rng.integers(1, 51)), rng)
            amps = random_state_vector(width, rng)
            s = basis_state(width, 0)
            s.amplitudes = amps.copy()
            c.inverse().run(c.run(s))
            assert np.max(np.abs(s.amplitudes - amps)) <= 1e-10

    def test_double_inverse_structurally_equal(self):
        c = Circuit(3, [circ.h(0), circ.phase(1, 0.25), circ.cnot(0, 2),
                        circ.cphase(2, 1, -1.5), circ.swap(0, 1)])
        assert c.inverse().inverse() == c

    def test_inverse_of_permutation_op(self, rng):
        table = rng.permutation(8)
        c = Circuit(3, [circ.permutation_op(BasisPermutation(table))])
        amps = random_state_vector(3, rng)
        s = basis_state(3, 0)
        s.amplitudes = amps.copy()
        c.inverse().run(c.run(s))
        np.testing.assert_array_equal(s.amplitudes, amps)


class TestGateCount:
    def test_empty(self):
        assert Circuit(4).gate_count == 0

    def test_five_qubit_figure_sequence(self, rng):
        # Transcription of the pictured 5-qubit gate sequence: six 2-qubit
        # gates and six 1-qubit gates in this placement order.  The picture
        # fixes placements only, so the payloads are fixed arbitrary unitaries.
        u4s = [(2, 4), (0, 3), (1, 3), (1, 2), (0, 4), (2, 3)]
        u2s = [3, 2, 1, 4, 2, 3]
        order = [0, None, None, 1, None, 2, None, 3, None, 4, None, 5]
        c = Circuit(5)
        two_i = one_i = 0
        for slot in order:
            if slot is None:
                c.append(circ.u2(u2s[one_i], Gate2(random_unitary(2, rng))))
                one_i += 1
            else:
                qa, qb = u4s[two_i]
                c.append(circ.u4(qa, qb, Gate4(random_unitary(4, rng))))
                two_i += 1
        assert c.gate_count == 12
        assert sum(1 for op in c.ops if len(op.targets) == 2) == 6
        assert sum(1 for op in c.ops if len(op.targets) == 1) == 6
        s = c.run(basis_state(5, 0))
        assert s.norm() == pytest.approx(1.0, abs=1e-12)

    def test_qft_circuit_count(self):
        from shorsim import qft_circuit

        assert qft_circuit(6).gate_count == 21 + 3


class TestSerialization:
    def test_bell_round_trip(self):
        c = bell_circuit()
        assert Circuit.parse(c.serialize()) == c

    def test_parse_without_header_infers_width(self):
        c = Circuit.parse("H 0\nCNOT 0 1")
        assert c.width == 2
        assert c.gate_count == 2

    def test_parse_rejects_control_equals_target(self):
        with pytest.raises(CircuitParseError, match="control equals target"):
            Circuit.parse("CNOT 0 0")

    def test_parse_arity_error_with_line_number(self):
        with pytest.raises(CircuitParseError, match="line 2: expected 2 qubit arguments"):
            Circuit.parse("H 0\nCNOT 0")

    def test_parse_unknown_op(self):
        with pytest.raises(CircuitParseError, match="line 1: unknown operation"):
            Circuit.parse("HADAMARD 0")

    def test_parse_bad_number(self):
        with pytest.raises(CircuitParseError, match="line 2"):
            Circuit.parse("qubits 1\nPHASE 0 abc")

    def test_parse_index_out_of_width(self):
        with pytest.raises(CircuitParseError, match="line 2.*out of range"):
            Circuit.parse("qubits 2\nH 5")

    def test_parse_non_unitary_u2(self):
        with pytest.raises(CircuitParseError, match="line 1.*not unitary"):
            Circuit.parse("U2 0 1 0 1 0 1 0 1 0")

    def test_comments_and_blank_lines(self):
        text = "# a bell pair\nqubits 2\n\nH 0  # superpose\nCNOT 0 1\n"
        assert Circuit.parse(text) == bell_circuit()

    def test_round_trip_all_named_forms(self, rng):
        c = Circuit(3)
        c.append(circ.h(0)).append(circ.x(1)).append(circ.phase(2, 0.1234567890123456789))
        c.append(circ.cnot(0, 2)).append(circ.ccnot(0, 1, 2)).append(circ.cphase(1, 0, -2.5))
        c.append(circ.u2(1, Gate2(random_unitary(2, rng))))
        c.append(circ.u4(0, 2, Gate4(random_unitary(4, rng))))
        c.append(circ.swap(1, 2))  # serializes as U4
        round_tripped = Circuit.parse(c.serialize())
        assert round_tripped == c
        # numbers survive exactly, so a second trip is byte-identical
        assert round_tripped.serialize() == Circuit.parse(round_tripped.serialize()).serialize()

    def test_permutation_op_not_serializable(self):
        c = Circuit(2, [circ.permutation_op(BasisPermutation.identity(2))])
        with pytest.raises(ValueError, match="no line form"):
            c.serialize()

    def test_generic_multi_controlled_not_serializable(self):
        c = Circuit(4, [circ.controlled(hadamard(), {0, 1, 2}, 3)])
        with pytest.raises(ValueError, match="no line form"):
            c.serialize()

    def test_misnamed_op_not_serializable(self):
        c = Circuit(3, [GateOp(not_gate(), (2,), frozenset([0]), name="CCNOT")])
        with pytest.raises(ValueError, match="no line form"):
            c.serialize()

    def test_inverse_text_of_every_named_form(self, rng):
        m2, m4 = random_unitary(2, rng), random_unitary(4, rng)
        c = Circuit(3)
        c.append(circ.h(0)).append(circ.x(1)).append(circ.phase(2, 0.25))
        c.append(circ.cnot(0, 2)).append(circ.ccnot(2, 0, 1)).append(circ.cphase(1, 0, -2.5))
        c.append(circ.u2(1, Gate2(m2))).append(circ.u4(2, 0, Gate4(m4)))

        def fields(m):
            return " ".join(f"{e.real:.17g} {e.imag:.17g}" for e in m.conj().T.ravel())

        assert c.inverse().serialize() == "\n".join([
            "qubits 3",
            f"U4 2 0 {fields(m4)}",
            f"U2 1 {fields(m2)}",
            "CPHASE 1 0 2.5",
            "CCNOT 0 2 1",
            "CNOT 0 2",
            "PHASE 2 -0.25",
            "X 1",
            "H 0",
        ]) + "\n"

    def test_header_after_ops_rejected(self):
        with pytest.raises(CircuitParseError, match="line 2.*must come first"):
            Circuit.parse("H 0\nqubits 2")

    def test_random_round_trips(self, rng):
        from shorsim.selftest import _random_circuit

        for _ in range(25):
            c = _random_circuit(int(rng.integers(1, 6)), int(rng.integers(0, 30)), rng)
            assert Circuit.parse(c.serialize()) == c

    def test_mangled_text_raises_parse_errors_only(self, rng):
        # token-level fuzz: every mutation either parses or raises the parse error
        base = bell_circuit().serialize() + "CPHASE 0 1 1.5\nU2 1 0 1 1 0 1 0 0 1\n"
        tokens = base.split()
        for _ in range(300):
            mangled = list(tokens)
            op = int(rng.integers(3))
            pos = int(rng.integers(len(mangled)))
            if op == 0:
                mangled[pos] = rng.choice(["x", "-3", "9", "", "NaN", "#", "qubits"])
            elif op == 1:
                del mangled[pos]
            else:
                mangled.insert(pos, rng.choice(["7", "H", "0.5"]))
            text = " ".join(mangled).replace(" H", "\nH").replace(" CNOT", "\nCNOT") \
                                    .replace(" CPHASE", "\nCPHASE").replace(" U2", "\nU2")
            try:
                Circuit.parse(text)
            except CircuitParseError:
                pass


class TestEmbedded:
    def test_embedded_acts_on_offset_qubits(self):
        inner = Circuit(1, [circ.x(0)])
        s = inner.embedded(3, 2).run(basis_state(3, 0))
        assert s.amplitudes[0b100] == 1

    def test_embedded_bounds(self):
        with pytest.raises(ValueError, match="embed"):
            Circuit(2).embedded(3, 2)


def test_op_equality_ignores_cosmetic_name():
    via_phase = circ.phase(0, 0.5)
    via_u2 = circ.u2(0, phase_shift(0.5))
    assert via_phase == via_u2
