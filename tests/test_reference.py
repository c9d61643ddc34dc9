"""Gate kernels against dense reference operators that share no code with them.

Every reference operator is a ``2**n x 2**n`` matrix assembled here from
``np.kron`` products of 2x2 factors (the gate, the identity, and the
projectors |0><0|, |1><1|, |0><1|, |1><0|), so an error in the strided
kernels cannot cancel against the same error in the check.  Qubit ``q`` is
bit ``q`` of the basis index, so the Kronecker factor for qubit ``n-1`` comes
first.  The QFT is checked against both ``dft_reference`` and ``numpy.fft``.

Each gate test draws dense random unitaries, monomial ones (a permutation
times unit phases, like X, CNOT, PHASE and SWAP) and dense ones with exact
zeros.  The kernel skips zero terms and copies a row that takes one part
unscaled, so a bitwise test pins all three, in one piece and over several, to
the row formula: exactly for a gate without zeros, up to the sign of an exact
zero for the others.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import circuit as circ
from shorsim.gates import Gate2, Gate4
from shorsim.qft import apply_qft, dft_reference
from shorsim.state import QuantumState, _layout

from conftest import StubRng, assert_bitwise_equal, random_state_vector, random_unitary

I2 = np.eye(2, dtype=np.complex128)
# E[i][j] = |i><j|
E = [[np.outer(I2[i], I2[j]) for j in range(2)] for i in range(2)]

SETTINGS = settings(max_examples=60, deadline=None)


def kron_on(n: int, factors: dict) -> np.ndarray:
    """Kronecker product with ``factors[q]`` on qubit q and the identity elsewhere."""
    out = np.ones((1, 1), dtype=np.complex128)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, factors.get(q, I2))
    return out


def random_monomial(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random permutation matrix times random unit phases, about a third exactly 1."""
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=dim))
    phases[rng.random(dim) < 1 / 3] = 1
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[np.arange(dim), rng.permutation(dim)] = phases
    return m


def random_with_zeros(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A unitary with exact zeros that is not monomial: dense on the high bit, monomial on the low.

    A 2x2 unitary with a zero is monomial, so at ``dim == 2`` this is ``random_monomial``.
    """
    if dim == 2:
        return random_monomial(2, rng)
    return np.kron(random_unitary(2, rng), random_monomial(2, rng))


# the kernel sums every column of a dense row, copies or scales a monomial
# one and sums the nonzero columns of a row with zeros
matrices = st.sampled_from([random_unitary, random_monomial, random_with_zeros])


def dense_single(n: int, u: np.ndarray, target: int) -> np.ndarray:
    return kron_on(n, {target: u})


def dense_controlled(n: int, u: np.ndarray, controls, target: int) -> np.ndarray:
    """I + (|1><1| on every control) x (U - I) on the target."""
    factors = {c: E[1][1] for c in controls}
    factors[target] = u - I2
    return np.eye(1 << n, dtype=np.complex128) + kron_on(n, factors)


def dense_two_qubit(n: int, g: np.ndarray, qa: int, qb: int) -> np.ndarray:
    """sum over entries G[s, t] |s><t| with s = bit(qa) + 2*bit(qb)."""
    out = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for s in range(4):
        for t in range(4):
            out += g[s, t] * kron_on(n, {qa: E[s & 1][t & 1], qb: E[s >> 1][t >> 1]})
    return out


def state_from(amps) -> QuantumState:
    return QuantumState(int(np.log2(len(amps))), np.array(amps, dtype=np.complex128))


@st.composite
def placements(draw, num_qubits, min_n=1, max_n=6):
    """(n, qubits): a register width and ``num_qubits`` distinct random qubits of it."""
    n = draw(st.integers(min_value=max(min_n, num_qubits), max_value=max_n))
    qubits = draw(st.permutations(range(n)))[:num_qubits]
    return n, [int(q) for q in qubits]


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@SETTINGS
@given(placements(1), matrices, seeds)
def test_apply_single_matches_kron(placed, make, seed):
    n, (t,) = placed
    rng = np.random.default_rng(seed)
    u = make(2, rng)
    amps = random_state_vector(n, rng)
    got = state_from(amps).apply_single(Gate2(u), t).amplitudes
    np.testing.assert_allclose(got, dense_single(n, u, t) @ amps, atol=1e-12)


@SETTINGS
@given(st.integers(min_value=0, max_value=2).flatmap(lambda k: placements(k + 1)), matrices, seeds)
def test_apply_controlled_matches_kron(placed, make, seed):
    n, (t, *controls) = placed
    rng = np.random.default_rng(seed)
    u = make(2, rng)
    amps = random_state_vector(n, rng)
    got = state_from(amps).apply_controlled(Gate2(u), set(controls), t).amplitudes
    np.testing.assert_allclose(got, dense_controlled(n, u, controls, t) @ amps, atol=1e-12)


@SETTINGS
@given(placements(2, min_n=2), matrices, seeds)
def test_apply_two_qubit_matches_kron(placed, make, seed):
    # placements draw both qubit orders: qa above qb and qa below qb
    n, (qa, qb) = placed
    rng = np.random.default_rng(seed)
    g = make(4, rng)
    amps = random_state_vector(n, rng)
    got = state_from(amps).apply_two_qubit(Gate4(g), qa, qb).amplitudes
    np.testing.assert_allclose(got, dense_two_qubit(n, g, qa, qb) @ amps, atol=1e-12)


def row_formula(amps, m, targets, controls) -> np.ndarray:
    """``m[s,0]*part[0] + m[s,1]*part[1] + ...`` over parts gathered by index arrays.

    ``part[s]`` holds the amplitudes whose controls are all 1 and whose target
    bits spell ``s`` (bit ``i`` of ``s`` is qubit ``targets[i]``).
    """
    idx = np.arange(amps.size)
    on = np.ones(amps.size, dtype=bool)
    for q in controls:
        on &= (idx >> q) & 1 == 1
    for q in targets:
        on &= (idx >> q) & 1 == 0
    base = idx[on]
    where = [base + sum(((s >> i) & 1) << q for i, q in enumerate(targets)) for s in range(len(m))]
    parts = [amps[w] for w in where]
    out = amps.copy()
    for s, w in enumerate(where):
        acc = m[s, 0] * parts[0]
        for coef, part in zip(m[s, 1:], parts[1:]):
            acc = acc + coef * part
        out[w] = acc
    return out


def assert_equal_up_to_zero_signs(got, expect):
    # -0.0 == 0.0, so only the sign of an exact zero may differ
    assert np.array_equal(got.view(np.float64), expect.view(np.float64))


def apply_gate(state, m, targets, controls):
    if len(targets) == 2:
        return state.apply_two_qubit(Gate4(m), *targets)
    if controls:
        return state.apply_controlled(Gate2(m), set(controls), targets[0])
    return state.apply_single(Gate2(m), targets[0])


@SETTINGS
@given(st.data(), matrices, seeds)
def test_gates_equal_the_row_formula_bitwise(data, make, seed):
    # Every gate must round exactly like the row formula (numpy's complex
    # product is not symmetric in its operands).  A gate without zeros keeps
    # the formula's signed zeros too; the kernel skips the formula's exact 0*x
    # terms and its products by 1, which only the sign of a zero can show.
    rng = np.random.default_rng(seed)
    kind = data.draw(st.sampled_from(["single", "controlled", "two_qubit"]))
    if kind == "two_qubit":
        n, targets = data.draw(placements(2, min_n=2, max_n=8))
        controls = []
    else:
        k = data.draw(st.integers(min_value=0, max_value=2 if kind == "controlled" else 0))
        n, (t, *controls) = data.draw(placements(k + 1, max_n=8))
        targets = [t]
    m = make(1 << len(targets), rng)
    amps = random_state_vector(n, rng)
    amps[:: data.draw(st.integers(min_value=2, max_value=9))] = complex(-0.0, 0.0)
    got = apply_gate(state_from(amps), m, targets, controls).amplitudes
    expect = row_formula(amps, m, targets, controls)
    if make is random_unitary:
        assert_bitwise_equal(got, expect)
    else:
        assert_equal_up_to_zero_signs(got, expect)


# (n, targets, controls) of gates whose parts span several pieces of 2**13
# amplitudes, each run as the comment says
MULTI_PIECE = [
    pytest.param(15, [0], [], id="U2-target-0"),  # single amplitudes, read strided
    pytest.param(16, [8], [], id="U2-target-8"),  # runs of 256, gathered
    pytest.param(16, [15], [], id="U2-target-15"),  # runs of 2**13 fill a piece
    pytest.param(16, [2, 15], [], id="U4-2-15"),  # one target below the pieces, one above
    pytest.param(16, [14, 15], [], id="U4-top-pair"),
    pytest.param(16, [15], [0], id="CU2-control-0-target-15"),  # control below the pieces
    pytest.param(16, [1], [15], id="CU2-control-15-target-1"),  # control above, runs of 2
    pytest.param(16, [0], [15], id="CU2-control-15-target-0"),
    pytest.param(17, [0], [15], id="CU2-lead-axes-on-both-sides-of-the-control"),
]


@pytest.mark.parametrize("n, targets, controls", MULTI_PIECE)
def test_multi_piece_gates_equal_the_row_formula_bitwise(n, targets, controls):
    _, _, _, lead, _, _ = _layout(n, tuple(targets), frozenset(controls))
    assert np.prod([len(axis) for axis in lead]) > 1
    rng = np.random.default_rng(n + sum(targets))
    m = random_unitary(1 << len(targets), rng)
    amps = random_state_vector(n, rng)
    amps[::5] = complex(0.0, -0.0)
    state = apply_gate(state_from(amps), m, targets, controls)
    assert_bitwise_equal(state.amplitudes, row_formula(amps, m, targets, controls))
    for make in (random_monomial, random_with_zeros):
        m = make(1 << len(targets), rng)
        got = apply_gate(state_from(amps), m, targets, controls).amplitudes
        assert_equal_up_to_zero_signs(got, row_formula(amps, m, targets, controls))


def test_two_qubit_reference_order_is_not_symmetric():
    # guard for the reference itself: swapping qa and qb must change a generic operator
    g = random_unitary(4, np.random.default_rng(7))
    assert not np.allclose(dense_two_qubit(3, g, 0, 2), dense_two_qubit(3, g, 2, 0))


def _random_op(draw, n, rng):
    """A random op of every kind the circuit runner dispatches, with its dense operator."""
    kinds = ["h", "x", "phase", "u2"]
    if n >= 2:
        kinds += ["cnot", "cphase", "u4", "swap"]
    if n >= 3:
        kinds += ["ccnot"]
    kind = draw(st.sampled_from(kinds))
    qs = [int(q) for q in draw(st.permutations(range(n)))]
    angle = float(rng.uniform(-np.pi, np.pi))
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    hd = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    ph = np.diag([1, np.exp(1j * angle)])
    if kind == "h":
        return circ.h(qs[0]), dense_single(n, hd, qs[0])
    if kind == "x":
        return circ.x(qs[0]), dense_single(n, x, qs[0])
    if kind == "phase":
        return circ.phase(qs[0], angle), dense_single(n, ph, qs[0])
    if kind == "u2":
        u = random_unitary(2, rng)
        return circ.u2(qs[0], Gate2(u)), dense_single(n, u, qs[0])
    if kind == "cnot":
        return circ.cnot(qs[0], qs[1]), dense_controlled(n, x, [qs[0]], qs[1])
    if kind == "cphase":
        return circ.cphase(qs[0], qs[1], angle), dense_controlled(n, ph, [qs[0]], qs[1])
    if kind == "ccnot":
        return circ.ccnot(qs[0], qs[1], qs[2]), dense_controlled(n, x, qs[:2], qs[2])
    if kind == "u4":
        g = random_unitary(4, rng)
        return circ.u4(qs[0], qs[1], Gate4(g)), dense_two_qubit(n, g, qs[0], qs[1])
    sw = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]
    return circ.swap(qs[0], qs[1]), dense_two_qubit(n, sw, qs[0], qs[1])


@SETTINGS
@given(st.data(), st.integers(min_value=1, max_value=6), seeds)
def test_circuit_run_matches_kron_product(data, n, seed):
    rng = np.random.default_rng(seed)
    c = circ.Circuit(n)
    dense = np.eye(1 << n, dtype=np.complex128)
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        op, m = _random_op(data.draw, n, rng)
        c.append(op)
        dense = m @ dense
    amps = random_state_vector(n, rng)
    got = c.run(state_from(amps)).amplitudes
    np.testing.assert_allclose(got, dense @ amps, atol=1e-12)


@SETTINGS
@given(st.integers(min_value=1, max_value=6), seeds)
def test_qft_matches_dft_reference_and_numpy_fft(n, seed):
    amps = random_state_vector(n, np.random.default_rng(seed))
    got = apply_qft(state_from(amps)).amplitudes
    np.testing.assert_allclose(got, dft_reference(amps), atol=1e-12)
    # numpy's inverse FFT carries the exp(+2*pi*i*x*y/N) kernel and a 1/N factor
    np.testing.assert_allclose(got, np.fft.ifft(amps) * np.sqrt(1 << n), atol=1e-12)


@SETTINGS
@given(st.data(), st.integers(min_value=0, max_value=6), seeds)
def test_measure_subregister_matches_basis_loop(data, n, seed):
    # any ordered list of distinct qubits: empty, non-contiguous, reversed or all
    qubits = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    rng = np.random.default_rng(seed)
    u = data.draw(st.sampled_from([0.0, float(rng.random()), np.nextafter(1.0, 0.0)]))
    amps = random_state_vector(n, rng)

    def outcome_of(i):
        return sum(((i >> q) & 1) << b for b, q in enumerate(qubits))

    marginal = [0.0] * (1 << len(qubits))
    for i, a in enumerate(amps):
        marginal[outcome_of(i)] += abs(a) ** 2
    acc, expect = 0.0, None
    for o, w in enumerate(marginal):
        acc += w
        if u < acc:
            expect = o
            break
    if expect is None:  # u at or past the rounded total: last outcome of nonzero mass
        expect = max(o for o, w in enumerate(marginal) if w > 0)
    p = marginal[expect]
    collapsed = [a / np.sqrt(p) if outcome_of(i) == expect else 0 for i, a in enumerate(amps)]

    state = state_from(amps)
    got = state.measure_subregister(qubits, StubRng(u))
    assert got.value == expect
    assert abs(got.probability - p) <= 1e-12
    np.testing.assert_allclose(state.amplitudes, collapsed, atol=1e-12)
