"""Quantum Fourier transform: gate circuit plus a direct reference transform.

Sign convention: the forward transform uses exp(+2*pi*i*x*y / 2**n), i.e.

    out[x] = 2**(-n/2) * sum_y exp(2j*pi*x*y / 2**n) * in[y]

Both the gate circuit and the reference use it; the inverse therefore carries
the -2*pi*i kernel.  The gate realization is the Hadamard / controlled-phase
ladder with terminal qubit-reversal SWAPs (one two-qubit gate each), so

    gate_count(qft_circuit(n)) == n*(n+1)//2 + n//2

``apply_qft_on`` runs the ladder's ops with amplitudes bitwise equal to
``qft_circuit(k).embedded(n, lo).run(state)``, except that an exact zero may
come out with the other sign: the butterfly subtracts where the kernel adds a
negated product, and a product by exactly 1 can only flip the sign of a zero.
"""

import threading
from functools import lru_cache

import numpy as np

from . import circuit as circ
from .circuit import Circuit
from .gates import swap_gate
from .state import _PIECE, QuantumState

_SWAP = swap_gate()

# ufunc buffer for the walk, in elements: numpy copies an operand through it
# when the view's contiguous run is shorter than about half of it, so at the
# default 8192 the walk's products on short runs pay for that copy.  It
# changes no arithmetic.  256 took 1.02-1.07x its time at 8-13 qubits, where
# it buffers runs of 32-64 amplitudes through 12 KiB allocated per call, and
# tied at 14-20 qubits; against 256, 1024 took 1.16-1.35x the time at 11-20
# qubits and 8192 1.21-1.92x
_BUFSIZE = 32

# a CPHASE controlled below bit min(_ROW_BITS, target) multiplies a row of
# 2**_ROW_BITS entries; no rows took 1.08-1.36x its time at 11-20 qubits, 6 bits
# 1.03-1.35x, and 10 bits tied but hold 1.6 MiB in a 20-qubit plan, not 0.4
_ROW_BITS = 8

# widest dense reference; its 2**11-square matrix (64 MiB) peaks at 80 MiB (traced), 4x per qubit
_DFT_MAX_QUBITS = 11


@lru_cache(maxsize=1)
def _dft_matrix(size: int) -> np.ndarray:
    # entry (x, y) is root number x*y mod size; uint32 products wrap mod 2**32,
    # which size divides, so the low bits are exact
    roots = np.exp((2j * np.pi / size) * np.arange(size)) / np.sqrt(size)
    x = np.arange(size, dtype=np.uint32)
    w = roots[np.outer(x, x) & (size - 1)]
    w.setflags(write=False)
    return w


def dft_reference(amplitudes) -> np.ndarray:
    """Direct quadratic-cost evaluation of the transform formula.

    Independent of the gate path: every output entry is the explicit double
    sum over exp(+2*pi*i*x*y/2**n) phases (evaluated as one dense
    matrix-vector product).  Each angle's numerator x*y is reduced mod 2**n
    in integers before the exponential, so the matrix is gathered from one
    table of the 2**n scaled roots, each within a relative 8e-16 of exact.
    """
    a = np.asarray(amplitudes, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError("expected a one-dimensional amplitude vector")
    size = a.size
    if size == 0 or (size & (size - 1)) != 0:
        raise ValueError(f"length {size} is not a power of two")
    if size > 1 << _DFT_MAX_QUBITS:
        raise ValueError(f"a {size}x{size} reference matrix needs {16 * size * size} bytes, over the limit")
    return _dft_matrix(size) @ a


def qft_circuit(n: int) -> Circuit:
    """Hadamard + controlled-phase ladder, then ``n//2`` qubit-reversal SWAPs.

    Processing runs from the top qubit down; the controlled phase from qubit m
    onto qubit i has angle pi / 2**(i-m).  n*(n+1)//2 H/CPHASE ops plus the
    SWAPs give the promised O(n^2) size.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    c = Circuit(n)
    c.ops = list(_qft_ops(n))
    return c


@lru_cache(maxsize=32)
def _qft_ops(n: int) -> tuple[circ.GateOp, ...]:
    # Built and validated once per width; ops are frozen and gate matrices
    # read-only, so every returned circuit can share them.
    c = Circuit(n)
    for i in range(n - 1, -1, -1):
        c.append(circ.h(i))
        for m in range(i - 1, -1, -1):
            c.append(circ.cphase(m, i, np.pi / (1 << (i - m))))
    for k in range(n // 2):
        c.append(circ.swap(k, n - 1 - k))
    return tuple(c.ops)


@lru_cache(maxsize=32)
def _plan(k: int):
    """Steps of the ladder ``_qft_ops(k)``, the final axis order and a program slot.

    Step ``(kind, (a, mid, z), c)`` works on the amplitudes reshaped to ``(lead
    * a, *mid, z * m)``; qubit q is on bit ``pos[q]`` of the ladder index.  ``c``
    is read-only: a row, or a 0-d view, which a ufunc takes faster than a scalar.
    Before the first H below qubit ``k // 2``, a ``copy`` step reverses the
    qubit order, so every later op works on long contiguous runs and the SWAPs
    only relabel axes.  Before that copy, a CPHASE whose control is below bit
    ``min(_ROW_BITS, pos[target])`` multiplies a row spanning those lowest
    bits: a plan holds up to ``_ROW_BITS`` rows of at most 4 KiB per qubit in
    the range's top half.
    The slot, a one-item list, holds the steps bound by ``_bind`` to the
    latest view shape of at most ``2 * _PIECE`` amplitudes, or None.
    """
    pos, steps, reversed_ = list(range(k)), [], False
    for op in _qft_ops(k):
        if op.name == "H":
            i = op.targets[0]
            if i < k // 2 and not reversed_:
                steps.append(("copy", (1, (2,) * k, 1), None))
                pos, reversed_ = [k - 1 - b for b in pos], True
            steps.append(("H", (1 << (k - 1 - pos[i]), (2,), 1 << pos[i]), op.gate.matrix[0, 0, ...]))
        elif op.name == "CPHASE":
            m, i, c = min(op.controls), op.targets[0], op.gate.matrix[1, 1, ...]
            lo, hi = sorted((pos[m], pos[i]))
            rb = min(_ROW_BITS, hi)
            if lo < rb and not reversed_:
                row = np.array([1, c])[(np.arange(1 << rb)[:, None] >> lo) & 1]
                row.setflags(write=False)
                steps.append(("row", (1 << (k - 1 - hi), (2, 1 << (hi - rb), 1 << rb), 1), row))
            else:
                steps.append(("CPHASE", (1 << (k - 1 - hi), (2, 1 << (hi - lo - 1), 2), 1 << lo), c))
        elif op.gate == _SWAP and not op.controls:
            a, b = op.targets
            pos[a], pos[b] = pos[b], pos[a]
        else:
            raise ValueError(f"the QFT walker cannot apply {op.name or 'an unnamed op'} on {op.qubits()}")
    return tuple(steps), (0, *(k - pos[q] for q in reversed(range(k))), k + 1), [None]


def _bind(steps, order, shape, cur, other):
    """``steps`` as ``(ufunc, args)`` calls on the flat buffers ``cur`` and ``other``.

    Returns ``(calls, out)``: the calls take the amplitudes in ``cur``, viewed
    as ``shape``, through the ladder and leave them in ``out``, a view of
    either buffer.  An H of at most ``_PIECE`` pairs scales the whole buffer in
    place and writes the halves' sum and difference into the other: the
    products and sums of the four passes below, in three calls.  A wider H
    runs its four passes in place on one piece of the ``(lead * a, 2, z * m)``
    view at a time, at most ``_PIECE`` pairs cut from a row or whole rows
    grouped, so they reread the piece from L2, not from memory (cache blocking,
    as in Häner & Steiger, arXiv:1704.01127), with the first
    ``g * w`` elements of ``other`` as scratch: until the reversal's
    ``copyto`` into it, ``other`` may be one piece long.
    """
    lead, m, k = shape[0], shape[-1], len(shape) - 2
    size, calls = lead * m << k, []
    for kind, (a, mid, z), c in steps:
        v = cur.reshape(lead * a, *mid, z * m)
        if kind == "H" and size <= 2 * _PIECE:
            w = other.reshape(v.shape)
            calls += [
                (np.multiply, (c, cur, cur)),
                (np.add, (v[:, 0], v[:, 1], w[:, 0])),
                (np.subtract, (v[:, 0], v[:, 1], w[:, 1])),
            ]
            cur, other = other, cur
        elif kind == "H":
            # the dense kernel's rows c*p0 + c*p1 and c*p0 + (-c)*p1, less the
            # sign of a zero, a piece of at most _PIECE pairs at a time
            rows, cols = lead * a, z * m
            g, w = max(1, min(rows, _PIECE // cols)), min(cols, _PIECE)
            t = other[: g * w].reshape(g, w)
            for r in range(0, rows, g):
                for j in range(0, cols, w):
                    p0, p1 = v[r : r + g, 0, j : j + w], v[r : r + g, 1, j : j + w]
                    calls += [(np.multiply, (c, p0, t)), (np.multiply, (c, p1, p1))]
                    calls += [(np.add, (t, p1, p0)), (np.subtract, (t, p1, p1))]
        elif kind == "copy":
            calls.append((np.copyto, (other.reshape(shape), v.transpose(0, *range(k, 0, -1), k + 1))))
            cur, other = other, cur
        else:
            part = v[:, 1, :, 1] if kind == "CPHASE" else v[:, 1]
            calls.append((np.multiply, (c, part, part)))
    return tuple(calls), cur.reshape(shape).transpose(order)


def _walk(view: np.ndarray) -> np.ndarray:
    """Run the ladder on a ``(-1, 2, ..., 2, m)`` view, qubit q on axis k - q.

    Returns the amplitudes after the ladder, in the same layout.  A view of at
    most ``2 * _PIECE`` amplitudes runs, under its lock, the program in the
    plan's slot, bound on the first call with its shape to two buffers of its
    size, and gets the result written back: the return value is ``view``.  A
    wider view is bound per call onto its own array and a spare that holds
    the result after the reversal, so no state-size buffer outlives the call;
    one qubit is never reversed, so its spare is the pieces' scratch alone.
    """
    k = view.ndim - 2
    steps, order, slot = _plan(k)
    if view.size > 2 * _PIECE:
        spare = np.empty(view.size if k > 1 else _PIECE, dtype=np.complex128)
        calls, out = _bind(steps, order, view.shape, view.reshape(-1), spare)
        for f, args in calls:
            f(*args)
        return out
    program = slot[0]
    if program is None or program[0].shape != view.shape:
        cur, other = np.empty((2, view.size), dtype=np.complex128)
        program = slot[0] = (cur.reshape(view.shape), *_bind(steps, order, view.shape, cur, other), threading.Lock())
    first, calls, out, lock = program
    with lock:
        np.copyto(first, view)
        for f, args in calls:
            f(*args)
        np.copyto(view, out)
    return view


def apply_qft_on(state: QuantumState, qubits) -> QuantumState:
    """Apply the transform to a contiguous ascending qubit range, identity elsewhere.

    Bitwise equal to ``qft_circuit(k).embedded(n, lo).run(state)`` up to the
    sign of an exact zero; the ladder's plan is decoded once per width.  On a
    register of up to 14 qubits it runs in place and allocates nothing,
    through a program bound once per shape that holds two state-size buffers
    (7 MiB at most over all widths) and a lock, so concurrent transforms of
    one shape take turns.  A wider register is bound per call and shares no
    buffer with other calls: for two or more qubits the amplitudes end up in
    the one state-size array the call allocates, the reversed copy made
    half-way, and a single qubit stays in its array, with one piece of
    scratch.  The transform runs with numpy's ufunc buffer at ``_BUFSIZE``
    elements, so short strided runs are not copied through the 8192-element
    default; numpy's setting outside the call is left as it was, also if it
    raises.
    """
    qubits = [int(q) for q in qubits]
    if not qubits:
        raise ValueError("qubit subset must not be empty")
    lo, k = qubits[0], len(qubits)
    if qubits != list(range(lo, lo + k)):
        raise ValueError(f"qubit subset {qubits} is not contiguous ascending")
    if lo < 0 or lo + k > state.num_qubits:
        raise ValueError(f"qubits {lo}..{lo + k - 1} out of range for {state.num_qubits} qubits")
    view = state.amplitudes.reshape((-1,) + (2,) * k + (1 << lo,))
    with np.errstate():
        np.setbufsize(_BUFSIZE)
        out = _walk(view)
    if out is not view:
        state.amplitudes = out.reshape(-1)
    return state


def apply_qft(state: QuantumState) -> QuantumState:
    """Apply the transform to the whole register; on 0 qubits it is the identity."""
    if state.num_qubits == 0:
        return state
    return apply_qft_on(state, range(state.num_qubits))
