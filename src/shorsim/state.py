"""Dense state-vector simulation of an n-qubit register.

Amplitudes live in one contiguous ``numpy`` array of ``complex128`` with
``2**num_qubits`` entries, indexed by computational-basis integer.  Qubit ``j``
is bit ``j`` of the basis index, so qubit 0 is the least-significant bit:
``basis_state(3, 5)`` is ``|101>`` with qubits 0 and 2 set.

Gate application mutates the state in place and returns it, so calls chain;
``_apply`` is the one kernel behind every single-qubit, controlled and
two-qubit gate.
Measurement draws one uniform variate from an injected ``numpy.random.Generator``
and maps it through the inverse CDF of the (marginal) probability array, built
a piece at a time up to the drawn outcome for the whole register or its top
qubits (``_draw_top``); a fixed seed therefore reproduces a run bit for bit.

States are exclusively owned while mutated.  ``probabilities`` and
``inner_product`` are read-only and safe to call concurrently on a shared
state.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .gates import Gate2, Gate4

# Default cap on register width; 2**30 complex128 amplitudes is 16 GiB, which
# is the point where a dense desk-scale simulation stops being sensible.
DEFAULT_MAX_QUBITS = 30

# im*im slice length in ``probabilities``: 2**14 beat 2**12 and 2**13 by 3-10%
# at 14-20 qubits and tied below; a whole-state temporary took 2-3x as long
# from 15 qubits on (2 vCPUs, numpy 2.4.6).
_WEIGHT_SLICE = 1 << 14

# amplitudes per scratch row, so a piece's operands stay in one core's L2: a
# dense gate's piece of each part, and the pairs of a QFT walker H step.
# Against 2**13, the dense kernel took 0.93-1.31x the time with 2**12 and
# 0.73-1.27x with 2**14 at 14-20 qubits (geometric means 1.13x and 1.02x),
# the walker 0.91-1.14x and 0.89-1.05x at 11-20 qubits
_PIECE = 2**13


@lru_cache(maxsize=1024)
def _layout(n: int, targets: tuple, controls: frozenset):
    """How ``_apply`` cuts an n-qubit register for a gate on these qubits.

    The ``2**r`` amplitudes below the lowest fixed (control or target) qubit,
    at most ``_PIECE``, run contiguously: the register is viewed as runs of
    that many, one void element each, and then cut at every fixed qubit and at
    the top of a piece, so a stretch of free qubits is one axis.  Returns the
    run dtype, that view's shape, the index ``picks[s]`` of each part (controls
    1, targets spelling ``s``), the index ranges of a part's ``lead`` axes,
    which are looped, the shape of a ``piece`` (its trailing axes, at most
    ``_PIECE`` amplitudes) and whether runs are gathered: numpy walks a view
    one contiguous run at a time, so runs of 2 to ``_PIECE // 2`` amplitudes
    are copied into contiguous scratch first; single amplitudes make one
    strided loop, and a run that fills a piece is contiguous already.  Cached:
    worked out on every call, it made an 8-qubit U2 take 1.2-1.4x the time.
    """
    fixed = sorted((*controls, *targets))
    bits = _PIECE.bit_length() - 1
    r = min(fixed[0], bits)
    e = min(n - r - len(fixed), bits - r)
    # the top of a piece: its e free qubits are the lowest from r up
    b = r + e
    for q in fixed:
        b += q < b
    cuts = sorted({r, b, n, *fixed, *(q + 1 for q in fixed)}, reverse=True)
    shape = [1 << (hi - lo) for hi, lo in zip(cuts, cuts[1:])]
    axis = {lo: i for i, lo in enumerate(cuts[1:])}
    index = [slice(None)] * len(shape)
    for c in controls:
        index[axis[c]] = 1
    picks = []
    for s in range(1 << len(targets)):
        for i, t in enumerate(targets):
            index[axis[t]] = (s >> i) & 1
        picks.append(tuple(index))
    free = [(lo, size) for lo, size in zip(cuts[1:], shape) if lo not in fixed]
    lead = tuple(range(size) for lo, size in free if lo >= b)
    piece = tuple(size for lo, size in free if lo < b) + (1,)
    return np.dtype(f"V{16 << r}"), (*shape, 1), tuple(picks), lead, piece, bool(r and e)


@lru_cache(maxsize=1024)
def _terms(matrix: bytes, dim: int):
    """How ``_apply`` writes the rows of the ``dim x dim`` matrix with these bytes.

    ``written`` lists the rows that change, first those whose one nonzero is a
    1 in column ``copied[i]``, then those summing the nonzero ``(coef, slot)``
    terms ``summed[i]`` in column order, a slot indexing the sorted columns
    ``reads``.  Cached: decoded per call, it made an X, CNOT or CCNOT at 3-9
    qubits take 1.6-1.8x the time.
    """
    m = np.frombuffer(matrix, dtype=np.complex128).reshape(dim, dim).tolist()
    cols = range(dim)
    if all(map(all, m)):  # no zeros: skips a scan that takes twice as long
        return cols, [], [list(zip(row, cols)) for row in m], cols
    copies, sums = [], []
    for s, row in enumerate(m):
        terms = [(coef, j) for coef, j in zip(row, cols) if coef]
        if len(terms) > 1 or terms[0][0] != 1:
            sums.append((s, terms))
        elif terms[0][1] != s:
            copies.append((s, terms[0][1]))
    reads = sorted({j for _, terms in sums for _, j in terms})
    summed = [[(coef, reads.index(j)) for coef, j in terms] for _, terms in sums]
    return [s for s, _ in copies + sums], [j for _, j in copies], summed, reads


def _check_width(n: int, max_qubits: int) -> None:
    if n < 0:
        raise ValueError(f"qubit count must be non-negative, got {n}")
    if n > max_qubits:
        # 16 = 2**4 bytes per amplitude.  The exact count is spelled out only
        # below 64 qubits: building 1 << n takes n/8 bytes and its decimal
        # string hits the interpreter's digit limit.
        size = f"2**{n + 4} = {16 << n}" if n < 64 else f"2**{n + 4}"
        raise ValueError(
            f"{n} qubits would need 2**{n} amplitudes ({size} bytes); "
            f"cap is {max_qubits} qubits (pass max_qubits to override)"
        )


def sample_indices(weights, u):
    """Inverse-CDF draw: for each uniform variate in ``u``, the index it falls on.

    Index ``i`` covers ``[cdf[i-1], cdf[i])``.  A variate at or past the
    rounded total lands on the last index of nonzero weight, so a zero-weight
    index is never returned.  ``u`` may be a scalar or an array.  Raises
    ``ValueError`` unless the total weight is positive: with no mass there is
    nothing to draw.
    """
    return draw_indices(np.cumsum(weights), u)


def draw_indices(cdf: np.ndarray, u):
    """``sample_indices`` from the running sum ``cdf`` of the weights, built once by the caller."""
    if not cdf[-1] > 0:
        raise ValueError(f"cannot sample from total weight {cdf[-1]}")
    return np.minimum(np.searchsorted(cdf, u, side="right"), np.searchsorted(cdf, cdf[-1]))


def _draw_top(amps: np.ndarray, k: int, u: float) -> tuple[int, float]:
    """``sample_indices`` on the top ``k`` qubits' marginal, and the outcome's mass, bitwise.

    Outcome ``v`` is the block ``amps[v << (n-k) : (v+1) << (n-k)]``.  Pieces of
    ``_WEIGHT_SLICE`` amplitudes, or one block if larger, get weights and block
    sums in reused scratch, the running total added into the first before the
    ``cumsum``; the walk stops at the first piece whose running sum passes ``u``.
    """
    block = amps.size >> k
    w, tmp = np.empty((2, min(max(block, _WEIGHT_SLICE), amps.size)))
    cdf = np.empty(w.size // block)
    total = 0.0
    for start in range(0, amps.size, w.size):
        piece = amps[start : start + w.size]
        np.multiply(piece.real, piece.real, out=w)
        np.add(w, np.multiply(piece.imag, piece.imag, out=tmp), out=w)
        sums = w if block == 1 else w.reshape(-1, block).sum(axis=1, out=tmp[: cdf.size])
        first, sums[0] = sums[0], sums[0] + total
        total = np.cumsum(sums, out=cdf)[-1]
        if total > u:
            i = int(np.searchsorted(cdf, u, side="right"))
            return start // block + i, float(sums[i] if i else first)
    if not total > 0:
        raise ValueError(f"cannot sample from total weight {total}")
    # past the rounded total: the first outcome whose running sum reaches it
    return _draw_top(amps, k, np.nextafter(total, 0.0))


@dataclass(slots=True)
class MeasurementOutcome:
    """Observed bit pattern of the measured qubits and its pre-measurement mass."""

    value: int
    probability: float


class BasisPermutation:
    """A bijection on basis indices ``0 .. 2**n - 1``.

    Bijectivity is checked once at construction; applying a permutation is a
    pure index shuffle and introduces no floating-point error.  The XOR
    oracle's subclass (``oracle.XorPermutation``) is checked on its f-table.
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

    # A permutation matrix is real and orthogonal: its conjugate transpose is its
    # inverse, so circuits invert every gate, Gate2, Gate4 or permutation, alike.
    dagger = inverse

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def __eq__(self, other):
        if not isinstance(other, BasisPermutation):
            return NotImplemented
        return np.array_equal(self.table, other.table)

    def __repr__(self):
        return f"BasisPermutation(num_qubits={self.num_qubits})"


class QuantumState:
    """State vector of ``num_qubits`` qubits.

    ``QuantumState(n, amplitudes)`` checks the shape and scans every amplitude
    for finiteness, since the array comes from outside.  Arrays the simulator
    builds itself are adopted without the scan: ``basis_state``'s and
    ``prepare_uniform``'s, ``copy()``, and full mode's collapsed input block.
    """

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

    @classmethod
    def _checked_by_caller(cls, num_qubits: int, amps: np.ndarray) -> "QuantumState":
        """Adopt, uncopied, a contiguous complex128 array of ``2**num_qubits`` finite amplitudes."""
        state = cls.__new__(cls)
        state.num_qubits, state.amplitudes = num_qubits, amps
        return state

    # -- constructors ---------------------------------------------------

    def copy(self) -> "QuantumState":
        return QuantumState._checked_by_caller(self.num_qubits, self.amplitudes.copy())

    # -- gate application -----------------------------------------------

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.num_qubits:
            raise ValueError(f"qubit index {q} out of range for {self.num_qubits} qubits")

    def _apply(self, matrix, targets, controls=frozenset()) -> "QuantumState":
        """Apply ``matrix`` to ``targets`` where every control bit is 1, in place.

        Bit ``i`` of the matrix row/column index is qubit ``targets[i]``.
        Fixing the controls to 1 and the targets to each bit pattern ``s`` by
        basic indexing gives ``2**k`` strided views, the parts, cut by
        ``_layout`` into pieces of at most ``_PIECE`` amplitudes that stay in
        L2.  Per piece, each row ``s`` that ``_terms`` writes is worked out in
        scratch, never in place (numpy rounds a one-element in-place product
        differently): a copy of one part, or ``m[s,0]*part[0] + ...`` over the
        nonzero terms, ``np.multiply(coef, part, out=acc)`` and then
        ``np.multiply(coef, part, out=tmp)``, ``np.add(acc, tmp, out=acc)``,
        scalar first, from contiguous copies of parts in runs of 2 to
        ``_PIECE // 2`` amplitudes.  That is the formula bitwise for a matrix
        without zeros, and up to the sign of an exact zero otherwise.  The
        scratch, at most ``2 * 2**k + 1`` rows of a piece (1.125 MiB for a 4x4
        matrix), does not grow with the register.
        """
        for t in targets:
            if t in controls:
                raise ValueError(f"control and target overlap on qubit {t}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"two-qubit gate needs distinct qubits, got {targets[0]} twice")
        for q in (*controls, *targets):
            self._check_qubit(q)

        run, shape, picks, lead, piece, gather = _layout(self.num_qubits, targets, controls)
        written, copied, summed, reads = _terms(matrix.tobytes(), len(matrix))
        runs = self.amplitudes.view(run).reshape(shape)
        parts = [runs[pick] for pick in picks]
        # scratch rows: the written rows, copies first, the product, gathered columns
        k = len(written)
        rows = np.empty((k + 1 + gather * len(reads), *piece), dtype=run)
        if summed:
            scratch = rows.view(np.complex128)
            sums, tmp, x = scratch[len(copied) : k], scratch[k], list(scratch[k + 1 :])
        for hi in product(*lead):
            pieces = [part[hi] for part in parts]
            for j, row in zip(copied, rows):
                row[...] = pieces[j]
            if summed:
                if gather:
                    for j, row in zip(reads, rows[k + 1 :]):
                        row[...] = pieces[j]
                else:
                    x = [pieces[j].view(np.complex128) for j in reads]
                for terms, acc in zip(summed, sums):
                    (coef, i), *rest = terms
                    np.multiply(coef, x[i], out=acc)
                    for coef, i in rest:
                        np.multiply(coef, x[i], out=tmp)
                        np.add(acc, tmp, out=acc)
            for s, row in zip(written, rows):
                pieces[s][...] = row
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
        """Born-rule weights |a_x|^2 for every basis index, bitwise ``re*re + im*im``.

        ``im*im`` is added in slices, so the result (half the state bytes) is
        the only state-size allocation.
        """
        re, im = self.amplitudes.real, self.amplitudes.imag
        weights = np.multiply(re, re)
        for start in range(0, im.size, _WEIGHT_SLICE):
            part = im[start : start + _WEIGHT_SLICE]
            weights[start : start + _WEIGHT_SLICE] += part * part
        return weights

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

        Uses one uniform draw and ``_draw_top``'s pieced inverse-CDF walk, so a
        zero-probability outcome can never be sampled.  Like every gate, the
        collapse mutates the amplitude array in place: zeroed, the outcome set to 1.
        """
        idx, p = _draw_top(self.amplitudes, self.num_qubits, rng.random())
        self.amplitudes.fill(0.0)
        self.amplitudes[idx] = 1.0
        return MeasurementOutcome(idx, p)

    def measure_subregister(self, qubits, rng: np.random.Generator) -> MeasurementOutcome:
        """Measure the listed qubits; bit i of the outcome is qubit ``qubits[i]``.

        The state collapses to the renormalized projection onto the observed
        outcome: its block is divided by the exact square root of the outcome
        mass, and every other amplitude is zeroed.  The top qubits ``n-k ..
        n-1`` in order are drawn by ``_draw_top``, and outcome v's block is the
        slice ``[v << (n-k), (v+1) << (n-k))``.  For any other list the
        ``(2,)*n`` view is transposed once so the measured axes lead,
        ``qubits[-1]`` first, and the rest follow in order: the index of the
        leading axes spells the outcome, the marginal is a sum over the
        trailing ones, and ``sample_indices`` draws from it.
        """
        qubits = [int(q) for q in qubits]
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"measured qubits must be distinct, got {qubits}")
        for q in qubits:
            self._check_qubit(q)

        n, k = self.num_qubits, len(qubits)
        if qubits == list(range(n - k, n)):
            outcome, p = _draw_top(self.amplitudes, k, rng.random())
            lo, hi = outcome << (n - k), (outcome + 1) << (n - k)
            np.divide(self.amplitudes[lo:hi], np.sqrt(p), out=self.amplitudes[lo:hi])
            self.amplitudes[:lo] = self.amplitudes[hi:] = 0.0
            return MeasurementOutcome(outcome, p)
        measured = [n - 1 - q for q in reversed(qubits)]
        order = measured + [ax for ax in range(n) if ax not in measured]
        probs = self.probabilities().reshape((2,) * n).transpose(order)
        marginal = probs.sum(axis=tuple(range(k, n))).reshape(-1)
        outcome = int(sample_indices(marginal, rng.random()))
        p = float(marginal[outcome])
        view = self.amplitudes.reshape((2,) * n).transpose(order)
        block = view[(*((outcome >> i) & 1 for i in reversed(range(k))), ...)]
        kept = block / np.sqrt(p)
        self.amplitudes.fill(0.0)
        block[...] = kept
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
    return QuantumState._checked_by_caller(num_qubits, amps)
