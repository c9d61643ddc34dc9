"""Quantum Fourier transform: gate circuit plus a direct reference transform.

Sign convention: the forward transform uses exp(+2*pi*i*x*y / 2**n), i.e.

    out[x] = 2**(-n/2) * sum_y exp(2j*pi*x*y / 2**n) * in[y]

Both the gate circuit and the reference use it; the inverse therefore carries
the -2*pi*i kernel.  The gate realization is the Hadamard / controlled-phase
ladder with terminal qubit-reversal SWAPs (one two-qubit gate each), so

    gate_count(qft_circuit(n)) == n*(n+1)//2 + n//2
"""

from functools import lru_cache

import numpy as np

from . import circuit as circ
from .circuit import Circuit
from .state import QuantumState


@lru_cache(maxsize=16)
def _dft_matrix(size: int) -> np.ndarray:
    x = np.arange(size)
    w = np.exp((2j * np.pi / size) * np.outer(x, x))
    w /= np.sqrt(size)
    w.setflags(write=False)
    return w


def dft_reference(amplitudes) -> np.ndarray:
    """Direct quadratic-cost evaluation of the transform formula.

    Independent of the gate path: every output entry is the explicit double
    sum over exp(+2*pi*i*x*y/2**n) phases (evaluated as one dense
    matrix-vector product).
    """
    a = np.asarray(amplitudes, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError("expected a one-dimensional amplitude vector")
    size = a.size
    if size == 0 or (size & (size - 1)) != 0:
        raise ValueError(f"length {size} is not a power of two")
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


def apply_qft_on(state: QuantumState, qubits) -> QuantumState:
    """Apply the transform to a contiguous ascending qubit range, identity elsewhere."""
    qubits = [int(q) for q in qubits]
    if not qubits:
        raise ValueError("qubit subset must not be empty")
    lo = qubits[0]
    if qubits != list(range(lo, lo + len(qubits))):
        raise ValueError(f"qubit subset {qubits} is not contiguous ascending")
    return qft_circuit(len(qubits)).embedded(state.num_qubits, lo).run(state)


def apply_qft(state: QuantumState) -> QuantumState:
    """Apply the transform to the whole register."""
    return apply_qft_on(state, range(state.num_qubits))
