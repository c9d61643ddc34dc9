"""Constructors and validity checks for the concrete gate set.

Gates are immutable values: the matrix is validated as unitary once, at
construction, and frozen.  The application kernel in :mod:`shorsim.state`
trusts that check and never re-validates; it only looks at which entries are
zero, to move and scale slices for gates with one nonzero per row.  The
constant gates (identity, X, H, SWAP) are built once per process and shared.
"""

from functools import cache

import numpy as np

UNITARITY_TOL = 1e-12

_SQRT1_2 = 1.0 / np.sqrt(2.0)


def _unitarity_defect(m: np.ndarray) -> float:
    """Max entry of |G†G - I|; inf or NaN, with no warning, when the product overflows."""
    eye = np.eye(m.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(m.conj().T @ m - eye)))


def _validated(matrix, dim: int) -> np.ndarray:
    m = np.array(matrix, dtype=np.complex128)
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("gate matrix must be finite")
    defect = _unitarity_defect(m)
    if not defect <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(f"matrix is not unitary (max defect {defect:.3e})")
    m.setflags(write=False)
    return m


class _Gate:
    """A validated unitary; each subclass pins its size in ``__init__``."""

    __slots__ = ("matrix",)

    def dagger(self):
        return type(self)(self.matrix.conj().T)

    def __eq__(self, other):
        if other is self:
            return True  # a shared constant gate; matrices are finite
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self.matrix.tolist()!r})"


class Gate2(_Gate):
    """A validated 2x2 unitary."""

    __slots__ = ()

    def __init__(self, matrix):
        self.matrix = _validated(matrix, 2)


class Gate4(_Gate):
    """A validated 4x4 unitary."""

    __slots__ = ()

    def __init__(self, matrix):
        self.matrix = _validated(matrix, 4)


def is_unitary(gate) -> bool:
    """True iff the max entry of G†G - I is within tolerance.

    Accepts a :class:`Gate2`, :class:`Gate4`, or a raw square matrix.
    """
    if isinstance(gate, _Gate):
        return True  # validated at construction
    m = np.asarray(gate, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if not np.all(np.isfinite(m)):
        return False
    return _unitarity_defect(m) <= UNITARITY_TOL


@cache
def identity_gate() -> Gate2:
    return Gate2(np.eye(2))


@cache
def not_gate() -> Gate2:
    """X: |0> -> |1>, |1> -> |0>."""
    return Gate2([[0, 1], [1, 0]])


@cache
def hadamard() -> Gate2:
    """H: |0> -> (|0>+|1>)/sqrt2, |1> -> (|0>-|1>)/sqrt2."""
    return Gate2([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]])


def phase_shift(angle: float) -> Gate2:
    """diag(1, e^{i*angle}): the single-qubit gate of a controlled phase.

    Attaching controls via ``apply_controlled`` turns this into the two-qubit
    gate |11> -> e^{i*angle}|11>, and into multi-controlled phases for free.
    """
    if not np.isfinite(angle):
        raise ValueError(f"phase angle must be finite, got {angle}")
    return Gate2([[1, 0], [0, np.exp(1j * angle)]])


@cache
def swap_gate() -> Gate4:
    """SWAP on a qubit pair (basis order |q1 q0>: 00, 01, 10, 11)."""
    return Gate4([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def tensor_product(a: Gate2, b: Gate2) -> Gate4:
    """Two single-qubit gates acting jointly: ``a`` on the pair's low qubit, ``b`` on the high one.

    The 4x4 index order matches the register's little-endian convention:
    index = bit(low) + 2*bit(high).  Worked example::

        tensor_product(not_gate(), identity_gate()).matrix ==
            [[0, 1, 0, 0],
             [1, 0, 0, 0],
             [0, 0, 0, 1],
             [0, 0, 1, 0]]

    i.e. it flips the low qubit only: |00> <-> |01| and |10> <-> |11>.
    """
    if not isinstance(a, Gate2):
        a = Gate2(a)
    if not isinstance(b, Gate2):
        b = Gate2(b)
    return Gate4(np.kron(b.matrix, a.matrix))
