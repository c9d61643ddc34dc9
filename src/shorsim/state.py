"""Dense state-vector simulation of an n-qubit register.

Amplitudes live in one contiguous ``numpy`` array of ``complex128`` with
``2**num_qubits`` entries, indexed by computational-basis integer.  Qubit ``j``
is bit ``j`` of the basis index, so qubit 0 is the least-significant bit:
``basis_state(3, 5)`` is ``|101>`` with qubits 0 and 2 set.

Gate application mutates the state in place and returns it, so calls chain.
Single-qubit, controlled and two-qubit gates all run through one kernel that
updates strided views of the amplitude array, with no index tables; a gate
with one nonzero per matrix row (X, CNOT, CCNOT, PHASE, CPHASE, SWAP) only
moves and scales those views.
Measurement draws a single uniform variate from an injected
``numpy.random.Generator`` and maps it through ``sample_indices``, the inverse
CDF of the (marginal) probability array; a fixed seed therefore reproduces a
run bit for bit.

States are exclusively owned while mutated.  ``probabilities`` and
``inner_product`` are read-only and safe to call concurrently on a shared
state.
"""

import numpy as np

from .gates import Gate2, Gate4

# Default cap on register width; 2**30 complex128 amplitudes is 16 GiB, which
# is the point where a dense desk-scale simulation stops being sensible.
DEFAULT_MAX_QUBITS = 30

_BYTES_PER_AMPLITUDE = 16


def _check_width(n: int, max_qubits: int) -> None:
    if n < 0:
        raise ValueError(f"qubit count must be non-negative, got {n}")
    if n > max_qubits:
        need = _BYTES_PER_AMPLITUDE * (1 << n)
        raise ValueError(
            f"{n} qubits would need 2**{n} amplitudes ({need} bytes); "
            f"cap is {max_qubits} qubits (pass max_qubits to override)"
        )


def sample_indices(weights, u):
    """Inverse-CDF draw: for each uniform variate in ``u``, the index it falls on.

    Index ``i`` covers ``[cdf[i-1], cdf[i])``.  A variate at or past the
    rounded total lands on the last index of nonzero weight, so a zero-weight
    index is never returned.  ``u`` may be a scalar or an array.
    """
    cdf = np.cumsum(weights)
    return np.minimum(np.searchsorted(cdf, u, side="right"), np.searchsorted(cdf, cdf[-1]))


class MeasurementOutcome:
    """Observed bit pattern of the measured qubits and its pre-measurement mass."""

    __slots__ = ("value", "probability")

    def __init__(self, value: int, probability: float):
        self.value = int(value)
        self.probability = float(probability)

    def __repr__(self):
        return f"MeasurementOutcome(value={self.value}, probability={self.probability})"

    def __eq__(self, other):
        if not isinstance(other, MeasurementOutcome):
            return NotImplemented
        return self.value == other.value and self.probability == other.probability


class BasisPermutation:
    """A bijection on basis indices ``0 .. 2**n - 1``.

    Bijectivity is checked once at construction; applying a permutation is a
    pure index shuffle and introduces no floating-point error.
    """

    __slots__ = ("table", "num_qubits")

    def __init__(self, table):
        t = np.ascontiguousarray(table, dtype=np.int64)
        if t.ndim != 1:
            raise ValueError("permutation table must be one-dimensional")
        size = t.size
        if size == 0 or (size & (size - 1)) != 0:
            raise ValueError(f"permutation size {size} is not a power of two")
        if t.min(initial=0) < 0 or t.max(initial=0) >= size:
            raise ValueError("mapping is not a bijection: value out of range")
        if not np.all(np.bincount(t, minlength=size) == 1):
            raise ValueError("mapping is not a bijection: repeated image")
        t.setflags(write=False)
        self.table = t
        self.num_qubits = size.bit_length() - 1

    @classmethod
    def from_function(cls, num_qubits: int, fn) -> "BasisPermutation":
        """Tabulate ``fn`` over all basis indices of ``num_qubits`` qubits."""
        return cls([fn(x) for x in range(1 << num_qubits)])

    @classmethod
    def identity(cls, num_qubits: int) -> "BasisPermutation":
        return cls(np.arange(1 << num_qubits, dtype=np.int64))

    def inverse(self) -> "BasisPermutation":
        inv = np.empty_like(self.table)
        inv[self.table] = np.arange(self.table.size, dtype=np.int64)
        return BasisPermutation(inv)

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def __eq__(self, other):
        if not isinstance(other, BasisPermutation):
            return NotImplemented
        return np.array_equal(self.table, other.table)

    def __repr__(self):
        return f"BasisPermutation(num_qubits={self.num_qubits})"


class QuantumState:
    """State vector of ``num_qubits`` qubits."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes):
        amps = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size != 1 << num_qubits:
            raise ValueError(
                f"expected 2**{num_qubits} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        self.num_qubits = num_qubits
        self.amplitudes = amps

    # -- constructors ---------------------------------------------------

    def copy(self) -> "QuantumState":
        return QuantumState(self.num_qubits, self.amplitudes.copy())

    # -- gate application -----------------------------------------------

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.num_qubits:
            raise ValueError(f"qubit index {q} out of range for {self.num_qubits} qubits")

    def _apply(self, matrix, targets, controls=frozenset()) -> "QuantumState":
        """Apply ``matrix`` to ``targets`` where every control bit is 1, in place.

        Bit ``i`` of the matrix row/column index is qubit ``targets[i]``.  The
        amplitudes are viewed as a ``(2,)*n`` array whose axis ``n-1-q`` holds
        qubit ``q``; fixing the controls to 1 and the targets to each bit
        pattern ``s`` by basic indexing gives ``2**k`` strided views, and row
        ``s`` is written back as ``m[s,0]*part[0] + m[s,1]*part[1] + ...``.

        A monomial matrix (one nonzero per row: X, CNOT, CCNOT, PHASE, CPHASE,
        SWAP) moves and scales whole views instead.  The scale is applied
        scalar-first, ``np.multiply(coef, part, out=part)``, the operand order
        of the dense formula, so both paths give bitwise equal amplitudes.
        """
        for t in targets:
            if t in controls:
                raise ValueError(f"control and target overlap on qubit {t}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"two-qubit gate needs distinct qubits, got {targets[0]} twice")
        for q in (*controls, *targets):
            self._check_qubit(q)

        n = self.num_qubits
        view = self.amplitudes.reshape((2,) * n)
        index = [slice(None)] * n
        for c in controls:
            index[n - 1 - c] = 1
        parts = []
        for s in range(len(matrix)):
            for i, t in enumerate(targets):
                index[n - 1 - t] = (s >> i) & 1
            parts.append(view[(*index, ...)])
        # A unitary has a nonzero in every row, so len(matrix) nonzeros means
        # exactly one per row.  numpy rounds a one-element in-place product
        # differently, so a gate on every qubit of the register stays dense.
        _, cols = np.nonzero(matrix)
        if parts[0].size > 1 and len(cols) == len(matrix):
            sources = {c: parts[c].copy() for s, c in enumerate(cols) if c != s}
            for s, c in enumerate(cols):
                if c != s:
                    parts[s][...] = sources[c]
                if matrix[s, c] != 1:
                    np.multiply(matrix[s, c], parts[s], out=parts[s])
            return self
        rows = []
        for row in matrix:
            acc = row[0] * parts[0]
            for coef, part in zip(row[1:], parts[1:]):
                acc += coef * part
            rows.append(acc)
        for part, acc in zip(parts, rows):
            part[...] = acc
        return self

    def apply_single(self, gate: Gate2, target: int) -> "QuantumState":
        """Apply a 2x2 unitary to ``target``; all paired amplitudes update in place."""
        if not isinstance(gate, Gate2):
            gate = Gate2(gate)
        return self._apply(gate.matrix, (target,))

    def apply_controlled(self, gate: Gate2, controls, target: int) -> "QuantumState":
        """Apply ``gate`` to ``target`` inside the subspace where every control bit is 1.

        ``controls`` may be empty, which degenerates to ``apply_single``.
        """
        if not isinstance(gate, Gate2):
            gate = Gate2(gate)
        return self._apply(gate.matrix, (target,), frozenset(int(c) for c in controls))

    def apply_two_qubit(self, gate: Gate4, qa: int, qb: int) -> "QuantumState":
        """Apply a 4x4 unitary to the (qa, qb) pair.

        The 4x4 index convention is ``index = bit(qa) + 2*bit(qb)``, matching
        ``gates.tensor_product``.
        """
        if not isinstance(gate, Gate4):
            gate = Gate4(gate)
        return self._apply(gate.matrix, (qa, qb))

    def apply_permutation(self, perm: BasisPermutation) -> "QuantumState":
        """Relabel basis states: the amplitude at x moves to perm(x).  Exact."""
        if not isinstance(perm, BasisPermutation):
            perm = BasisPermutation(perm)
        if perm.num_qubits != self.num_qubits:
            raise ValueError(
                f"permutation acts on {perm.num_qubits} qubits, state has {self.num_qubits}"
            )
        out = np.empty_like(self.amplitudes)
        out[perm.table] = self.amplitudes
        self.amplitudes = out
        return self

    # -- read-only queries ----------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Born-rule weights |a_x|^2 for every basis index."""
        a = self.amplitudes
        return (a.real * a.real + a.imag * a.imag)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner_product(self, other: "QuantumState") -> complex:
        """sum_x conj(a_x) b_x."""
        if self.num_qubits != other.num_qubits:
            raise ValueError(
                f"qubit counts differ: {self.num_qubits} vs {other.num_qubits}"
            )
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    # -- measurement ------------------------------------------------------

    def measure_all(self, rng: np.random.Generator) -> MeasurementOutcome:
        """Sample a basis state with probability |a_x|^2 and collapse onto it.

        Uses one uniform draw and an inverse-CDF walk, so a zero-probability
        outcome can never be sampled.
        """
        probs = self.probabilities()
        idx = int(sample_indices(probs, rng.random()))
        p = float(probs[idx])
        self.amplitudes = np.zeros_like(self.amplitudes)
        self.amplitudes[idx] = 1.0
        return MeasurementOutcome(idx, p)

    def measure_subregister(self, qubits, rng: np.random.Generator) -> MeasurementOutcome:
        """Measure the listed qubits; bit i of the outcome is qubit ``qubits[i]``.

        The state collapses to the renormalized projection onto the observed
        outcome; unmeasured qubits keep their relative amplitudes.  The
        renormalization divides by the exact square root of the outcome mass.
        """
        qubits = [int(q) for q in qubits]
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"measured qubits must be distinct, got {qubits}")
        for q in qubits:
            self._check_qubit(q)

        idx = np.arange(self.amplitudes.size, dtype=np.int64)
        key = np.zeros_like(idx)
        for i, q in enumerate(qubits):
            key |= ((idx >> q) & 1) << i
        probs = self.probabilities()
        marginal = np.bincount(key, weights=probs, minlength=1 << len(qubits))
        outcome = int(sample_indices(marginal, rng.random()))
        p = float(marginal[outcome])
        self.amplitudes[key != outcome] = 0.0
        self.amplitudes /= np.sqrt(p)
        return MeasurementOutcome(outcome, p)

    def __repr__(self):
        return f"QuantumState(num_qubits={self.num_qubits})"


def basis_state(num_qubits: int, index: int, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> QuantumState:
    """The basis state |index> on ``num_qubits`` qubits (``basis_state(n, 0)`` is all zeros)."""
    _check_width(num_qubits, max_qubits)
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return QuantumState(num_qubits, amps)
