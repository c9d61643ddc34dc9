"""Classical computation on the quantum register.

Register layout convention, used everywhere: the input register occupies the
low qubit indices, the output register the next block, work/ancilla qubits
above that.  Within a circuit that computes ``|x, 0> -> |garbage, f(x)>`` the
f-register is the *top* ``f_width`` qubits of the circuit; everything below it
is garbage.

The modular-exponentiation oracle is realized as a basis permutation driven by
a classical evaluator: permutation application preserves every quantum
property the period-finding pipeline relies on while keeping desk-scale
instances tractable.  Gate-level reversible construction is demonstrated on
the toy builders (``multi_and_circuit``, ``compute_copy_uncompute``) instead.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import circuit as circ
from .circuit import Circuit
from .numtheory import gcd
from .state import BasisPermutation, basis_state


@dataclass(frozen=True)
class ReversibleFunction:
    """A total classical function on bit patterns, to be XOR-embedded."""

    input_width: int
    output_width: int
    func: Callable[[int], int]

    def __post_init__(self):
        if self.input_width < 0 or self.output_width < 1:
            raise ValueError(
                f"bad widths: input {self.input_width}, output {self.output_width}"
            )

    def table(self) -> np.ndarray:
        """Evaluate the function on every input, checking outputs fit the width."""
        out = np.empty(1 << self.input_width, dtype=np.int64)
        limit = 1 << self.output_width
        for xval in range(out.size):
            fx = int(self.func(xval))
            if not 0 <= fx < limit:
                raise ValueError(
                    f"f({xval}) = {fx} does not fit in {self.output_width} bits"
                )
            out[xval] = fx
        return out


class XorPermutation(BasisPermutation):
    """``x + (y << in_w) -> x + ((y ^ f_table[x]) << in_w)``, from f on the ``2**in_w`` inputs.

    ``_xor_image`` checks the read-only ``f_table``.  ``table`` is built on first
    read; its first ``2**in_w`` entries, where |x, 0> goes, are ``(f_table << in_w) | x``.
    """

    def __init__(self, fx: np.ndarray, out_w: int):
        fx.setflags(write=False)
        self.f_table, self.num_qubits = fx, fx.size.bit_length() - 1 + out_w

    @cached_property
    def table(self) -> np.ndarray:
        in_w = self.f_table.size.bit_length() - 1
        # x < 2**in_w never meets the shifted bits, so one XOR pass builds the image
        rows = np.arange(1 << (self.num_qubits - in_w), dtype=np.int64) << in_w
        image = rows[:, None] ^ ((self.f_table << in_w) | np.arange(1 << in_w, dtype=np.int64))
        image = image.reshape(-1)
        image.setflags(write=False)
        return image


def _xor_image(fx: np.ndarray, in_w: int, out_w: int) -> XorPermutation:
    """``XorPermutation`` of ``fx``; checking every ``0 <= fx[x] < 2**out_w`` proves it a bijection."""
    if fx.min(initial=0) < 0 or fx.max(initial=0) >= 1 << out_w:
        raise ValueError("mapping is not a bijection: value out of range")
    return XorPermutation(fx, out_w)


def xor_oracle(f: ReversibleFunction) -> XorPermutation:
    """The permutation |x, y> -> |x, y XOR f(x)> on input+output qubits.

    A bijection for every f, and an involution: applying it twice is the
    identity.  The image is one int64 array with row y and column x, so its
    flat index is ``x + (y << in_w)``; one broadcast XOR builds it on first
    read, with no other array of its size.
    """
    return _xor_image(f.table(), f.input_width, f.output_width)


def modexp_oracle(a: int, n: int, in_width: int, out_width: int) -> XorPermutation:
    """XOR oracle of f(x) = a**x mod n.

    The table of a**x mod n for x < 2**in_width is built by doubling,
    ``t[s:2s] = t[:s] * (a**s mod n) % n`` for s = 1, 2, 4, ..., which is
    ``in_width`` vector steps in int64; ``n*n`` must therefore stay below 2**63.
    """
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    if gcd(a, n) != 1:
        raise ValueError(f"base {a} shares a factor with modulus {n}")
    if (1 << out_width) < n:
        raise ValueError(
            f"output register of {out_width} bits cannot hold residues mod {n}"
        )
    if n * n >= 1 << 63:
        raise ValueError(f"modulus {n} too large: the int64 table needs n*n < 2**63")
    if in_width < 0:
        raise ValueError(f"bad widths: input {in_width}, output {out_width}")
    table = np.empty(1 << in_width, dtype=np.int64)
    table[0] = 1
    step, size = int(a) % n, 1
    while size < table.size:
        np.multiply(table[:size], step, out=table[size : 2 * size])
        table[size : 2 * size] %= n
        step, size = step * step % n, 2 * size
    return _xor_image(table, in_width, out_width)


def multi_and_circuit(k: int) -> Circuit:
    """AND of k input bits into one result qubit, garbage uncomputed.

    Layout on 2k-1 qubits: inputs 0..k-1, ancillas k..2k-3, result 2k-2.
    On |b_1..b_k, 0..0, 0> the circuit yields |b_1..b_k, 0..0, AND b_i>
    exactly; it uses 2k-3 CCNOTs (one for k = 2, which needs no ancilla).
    """
    if k < 2:
        raise ValueError(f"need at least 2 input bits, got {k}")
    width = 2 * k - 1
    result = width - 1
    c = Circuit(width)
    if k == 2:
        return c.append(circ.ccnot(0, 1, result))
    # Chain partial ANDs through the ancillas, land the last on the result,
    # then uncompute the chain in reverse.
    forward = [circ.ccnot(0, 1, k)]
    for i in range(2, k - 1):
        forward.append(circ.ccnot(i, k + i - 2, k + i - 1))
    for op in forward:
        c.append(op)
    c.append(circ.ccnot(k - 1, k + (k - 3), result))
    for op in reversed(forward):
        c.append(op)
    return c


def compute_copy_uncompute(
    cf: Circuit, x_width: int, f_width: int, g_width: int
) -> Circuit:
    """Wrap a garbage-producing computation so only x and f(x) survive.

    ``cf`` acts on x_width + g_width qubits and must map every basis input
    |x, 0> to a basis state whose top ``f_width`` qubits hold f(x).  The
    returned circuit, on x_width + g_width + f_width qubits, is
    cf -> CNOT fan copying the f-register into the fresh top qubits ->
    inverse(cf); on |x, 0, 0> it yields exactly |x, 0, f(x)>.
    """
    w = x_width + g_width
    if cf.width != w:
        raise ValueError(
            f"circuit width {cf.width} != x_width + g_width = {w}"
        )
    if not 1 <= f_width <= w:
        raise ValueError(f"f_width {f_width} out of range for width {w}")
    # Exhaustive basis-state check that cf is a classical computation of the
    # stated layout (cheap at toy widths; this builder is for toy widths).
    for xval in range(1 << x_width):
        mags = np.abs(cf.run(basis_state(w, xval)).amplitudes)
        hits = np.flatnonzero(mags > 1e-9)
        if hits.size != 1 or abs(mags[hits[0]] - 1.0) > 1e-9:
            raise ValueError(
                f"circuit maps basis input {xval} to a superposition; "
                "cannot use it as a classical computation"
            )

    total = w + f_width
    out = Circuit(total)
    for op in cf.ops:
        out.append(op)
    for i in range(f_width):
        out.append(circ.cnot(w - f_width + i, w + i))
    for op in cf.inverse().ops:
        out.append(op)
    return out


def modexp_trace(a: int, x: int, n: int, bits: int) -> tuple[int, tuple[int, ...]]:
    """Square-and-multiply evaluation of a**x mod n, keeping the per-bit trace.

    Returns (result, accumulator after each of the ``bits`` steps).  The trace
    is the garbage a naive reversible evaluator would leave behind: dropping
    the uncompute step makes the joint map x -> (result, trace), which is not
    periodic in x even when the result alone is.
    """
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    if not 0 <= x < (1 << bits):
        raise ValueError(f"x = {x} does not fit in {bits} bits")
    acc = 1 % n
    trace = []
    for i in range(bits - 1, -1, -1):
        acc = acc * acc % n
        if (x >> i) & 1:
            acc = acc * a % n
        trace.append(acc)
    return acc, tuple(trace)
