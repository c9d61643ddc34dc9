"""Ordered, invertible, serializable sequences of gate placements.

Circuits are purely unitary: measurements are driver-level actions, never
circuit ops, so ``inverse`` is total.  Every op has one shape, ``GateOp(gate,
targets, controls, name, angle)``: the number of targets (one for a Gate2, two
for a Gate4, none for a full-register BasisPermutation) and the controls pick
the state kernel that ``Circuit.run`` calls.

Text format, one op per line, ``#`` starts a comment::

    qubits <n>                     # optional header; width inferred if absent
    H <q>
    X <q>
    PHASE <q> <radians>
    CNOT <control> <target>
    CCNOT <control1> <control2> <target>
    CPHASE <control> <target> <radians>
    U2 <q> <8 reals>               # 2x2 matrix, row-major, re im per entry
    U4 <qa> <qb> <32 reals>        # 4x4 matrix, row-major, re im per entry

Numbers are written with 17 significant digits so that serialization round
trips exactly.  ``_LINE_FORMS`` holds every line form; both the parser and the
serializer read it.  An op serializes as its name, its qubits (sorted
controls, then targets) and its angle or matrix.  Ops with no line form (basis
permutations, generic multi-controlled gates) cannot be serialized and are
rejected; SWAP has none of its own and is written as U4.
"""

from dataclasses import dataclass

import numpy as np

from .gates import Gate2, Gate4, hadamard, not_gate, phase_shift, swap_gate
from .state import BasisPermutation, QuantumState


class CircuitParseError(ValueError):
    """Malformed circuit text; the message carries the 1-based line number."""


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate placement: ``gate`` on ``targets`` where every control bit is 1.

    ``gate`` is a Gate2 on one target, a Gate4 on two (matrix index
    ``bit(targets[0]) + 2*bit(targets[1])``), or a BasisPermutation of the
    whole register with no targets and no controls.  ``name`` is the
    mnemonic of the op's line form and ``angle`` the phase of a PHASE or
    CPHASE; structural equality ignores both and compares gate, targets and
    controls.
    """

    gate: object
    targets: tuple[int, ...] = ()
    controls: frozenset[int] = frozenset()
    name: str | None = None
    angle: float | None = None

    def qubits(self) -> tuple[int, ...]:
        """The sorted controls, then the targets (empty for a full-width permutation)."""
        return tuple(sorted(self.controls)) + self.targets

    def inverse(self) -> "GateOp":
        if self.angle is not None:
            gate, angle = phase_shift(-self.angle), -self.angle
        else:
            gate, angle = self.gate.dagger(), None
        return GateOp(gate, self.targets, self.controls, self.name, angle)

    def shifted(self, offset: int) -> "GateOp":
        """The same op with every qubit index moved up by ``offset``."""
        if not self.targets:
            raise ValueError("a basis permutation is tied to the full register")
        return GateOp(
            self.gate,
            tuple([t + offset for t in self.targets]),
            frozenset([c + offset for c in self.controls]),
            self.name,
            self.angle,
        )

    def __eq__(self, other):
        if not isinstance(other, GateOp):
            return NotImplemented
        return (
            self.targets == other.targets
            and self.controls == other.controls
            and self.gate == other.gate
        )


# -- op constructors -----------------------------------------------------

def h(q: int) -> GateOp:
    return GateOp(hadamard(), (q,), name="H")


def x(q: int) -> GateOp:
    return GateOp(not_gate(), (q,), name="X")


def phase(q: int, angle: float) -> GateOp:
    return GateOp(phase_shift(angle), (q,), name="PHASE", angle=float(angle))


def u2(q: int, gate: Gate2) -> GateOp:
    if not isinstance(gate, Gate2):
        gate = Gate2(gate)
    return GateOp(gate, (q,), name="U2")


def cnot(control: int, target: int) -> GateOp:
    if control == target:
        raise ValueError("control equals target")
    return GateOp(not_gate(), (target,), frozenset([control]), name="CNOT")


def ccnot(c1: int, c2: int, target: int) -> GateOp:
    if len({c1, c2, target}) != 3:
        raise ValueError(f"CCNOT qubits must be distinct, got {c1}, {c2}, {target}")
    return GateOp(not_gate(), (target,), frozenset([c1, c2]), name="CCNOT")


def cphase(control: int, target: int, angle: float) -> GateOp:
    if control == target:
        raise ValueError("control equals target")
    return GateOp(phase_shift(angle), (target,), frozenset([control]), name="CPHASE", angle=float(angle))


def controlled(gate: Gate2, controls, target: int) -> GateOp:
    """Generic (multi-)controlled single-qubit gate; not serializable."""
    if not isinstance(gate, Gate2):
        gate = Gate2(gate)
    controls = frozenset(int(c) for c in controls)
    if target in controls:
        raise ValueError("control equals target")
    return GateOp(gate, (target,), controls)


def u4(qa: int, qb: int, gate: Gate4) -> GateOp:
    if not isinstance(gate, Gate4):
        gate = Gate4(gate)
    if qa == qb:
        raise ValueError(f"two-qubit gate needs distinct qubits, got {qa} twice")
    return GateOp(gate, (qa, qb), name="U4")


def swap(qa: int, qb: int) -> GateOp:
    """SWAP as a U4 op: it has no line form of its own and serializes as its matrix."""
    if qa == qb:
        raise ValueError(f"SWAP needs distinct qubits, got {qa} twice")
    return GateOp(swap_gate(), (qa, qb), name="U4")


def permutation_op(perm: BasisPermutation) -> GateOp:
    if not isinstance(perm, BasisPermutation):
        perm = BasisPermutation(perm)
    return GateOp(perm, name="PERM")


class Circuit:
    """A fixed-width ordered gate sequence."""

    __slots__ = ("width", "ops")

    def __init__(self, width: int, ops=()):
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        self.width = width
        self.ops: list[GateOp] = []
        for op in ops:
            self.append(op)

    @property
    def gate_count(self) -> int:
        return len(self.ops)

    def append(self, op: GateOp) -> "Circuit":
        """Add ``op`` at the end, after checking it fits the width."""
        for q in op.qubits():
            if not 0 <= q < self.width:
                raise ValueError(f"qubit index {q} out of range for width {self.width}")
        if not op.targets and op.gate.num_qubits != self.width:
            raise ValueError(
                f"permutation acts on {op.gate.num_qubits} qubits, circuit width is {self.width}"
            )
        self.ops.append(op)
        return self

    def run(self, state: QuantumState) -> QuantumState:
        """Apply every op in order, mutating and returning ``state``."""
        if state.num_qubits != self.width:
            raise ValueError(
                f"circuit width {self.width} does not match state with {state.num_qubits} qubits"
            )
        for op in self.ops:
            targets = op.targets
            if op.controls:
                state.apply_controlled(op.gate, op.controls, targets[0])
            elif len(targets) == 1:
                state.apply_single(op.gate, targets[0])
            elif targets:
                state.apply_two_qubit(op.gate, *targets)
            else:
                state.apply_permutation(op.gate)
        return state

    def inverse(self) -> "Circuit":
        """Inverse gates in reversed order; undoes ``run`` on any state."""
        inv = Circuit(self.width)
        inv.ops = [op.inverse() for op in reversed(self.ops)]
        return inv

    def embedded(self, width: int, offset: int = 0) -> "Circuit":
        """This circuit acting on qubits ``offset .. offset+self.width`` of a wider register."""
        if offset < 0 or offset + self.width > width:
            raise ValueError(
                f"cannot embed width-{self.width} circuit at offset {offset} in {width} qubits"
            )
        out = Circuit(width)
        out.ops = [op.shifted(offset) for op in self.ops]
        return out

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.width == other.width and self.ops == other.ops

    def __repr__(self):
        return f"Circuit(width={self.width}, gate_count={self.gate_count})"

    # -- text format -----------------------------------------------------

    def serialize(self) -> str:
        lines = [f"qubits {self.width}"]
        for op in self.ops:
            lines.append(_op_line(op))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Circuit":
        width: int | None = None
        parsed: list[tuple[int, GateOp]] = []

        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            op_name = toks[0]

            if op_name == "qubits":
                if parsed or width is not None:
                    raise CircuitParseError(f"line {lineno}: 'qubits' header must come first")
                if len(toks) != 2:
                    raise CircuitParseError(f"line {lineno}: expected 'qubits <n>'")
                width = _parse_int(toks[1], lineno)
                if width < 0:
                    raise CircuitParseError(f"line {lineno}: negative qubit count {width}")
                continue

            if op_name not in _LINE_FORMS:
                raise CircuitParseError(f"line {lineno}: unknown operation {op_name!r}")
            n_qubits, n_nums, build = _LINE_FORMS[op_name]
            args = toks[1:]
            if len(args) != n_qubits + n_nums:
                plural = "s" if n_qubits != 1 else ""
                msg = f"line {lineno}: expected {n_qubits} qubit argument{plural}"
                if n_nums == 1:
                    msg += " and an angle"
                elif n_nums:
                    msg += f" and {n_nums} matrix values"
                raise CircuitParseError(msg)
            qubits = [_parse_int(t, lineno) for t in args[:n_qubits]]
            nums = [_parse_float(t, lineno) for t in args[n_qubits:]]

            try:
                op = build(*qubits, *nums)
            except ValueError as exc:
                raise CircuitParseError(f"line {lineno}: {exc}") from None
            parsed.append((lineno, op))

        if width is None:
            width = 1 + max((q for _, op in parsed for q in op.qubits()), default=-1)
            width = max(width, 0)

        circuit = cls(width)
        for lineno, op in parsed:
            try:
                circuit.append(op)
            except ValueError as exc:
                raise CircuitParseError(f"line {lineno}: {exc}") from None
        return circuit


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _matrix_fields(m: np.ndarray) -> str:
    return " ".join(f"{_fmt(e.real)} {_fmt(e.imag)}" for e in m.ravel())


def _op_line(op: GateOp) -> str:
    form = _LINE_FORMS.get(op.name)
    qubits = op.qubits()
    if form is None or len(qubits) != form[0]:
        raise ValueError(f"cannot serialize op {op.name or 'unnamed'} on qubits {qubits}: no line form")
    fields = [op.name, *map(str, qubits)]
    if op.angle is not None:
        fields.append(_fmt(op.angle))
    elif form[1]:
        fields.append(_matrix_fields(op.gate.matrix))
    return " ".join(fields)


def _numbers_to_matrix(nums, dim: int) -> np.ndarray:
    # complex(re, im): re + 1j*im computes 0*im, which warns and is NaN for an infinite im
    vals = [complex(re, im) for re, im in zip(nums[0::2], nums[1::2])]
    return np.array(vals).reshape(dim, dim)


# name -> (qubit args, numeric args, constructor called with both in that order);
# the qubit args are the op's ``qubits()``: sorted controls, then targets.
_LINE_FORMS = {
    "H": (1, 0, h),
    "X": (1, 0, x),
    "PHASE": (1, 1, phase),
    "CNOT": (2, 0, cnot),
    "CCNOT": (3, 0, ccnot),
    "CPHASE": (2, 1, cphase),
    "U2": (1, 8, lambda q, *m: u2(q, _numbers_to_matrix(m, 2))),
    "U4": (2, 32, lambda qa, qb, *m: u4(qa, qb, _numbers_to_matrix(m, 4))),
}


def _parse_int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: invalid qubit index {tok!r}") from None


def _parse_float(tok: str, lineno: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: invalid number {tok!r}") from None
