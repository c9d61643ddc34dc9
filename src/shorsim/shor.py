"""Order-finding factorization pipeline and its run transcripts.

One full-simulation run: uniform superposition on the input register, the
modular-exponentiation XOR oracle, an optional measurement of the output
register (on by default; skipping it provably does not change the input
marginal), the Fourier transform on the input register, a measurement, and
continued-fraction period recovery.  Once the output register is measured it
is a basis state, so the transform and the last measurement run on the input
register's own ``2**in_w`` amplitudes.

``hybrid`` mode replaces the oracle stage with a directly constructed
collapsed period state (the order is computed classically), which keeps the
register width affordable for moduli whose full simulation would not fit in
memory.  ``classical`` mode skips simulation entirely and feeds the directly
computed multiplicative order through the same post-processing.

Across runs with the same base the driver combines unverified candidate denominators
by least common multiple (restarted from the latest once past the modulus); odd
periods and trivial square roots trigger a fresh base.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .gates import hadamard
from .numtheory import (
    Convergent,
    _order_from_multiple,
    continued_fraction_convergents,
    factor_from_period,
    gcd,
    is_probable_prime,
    mod_pow,
    multiplicative_order,
    recover_period,
    U64_LIMIT,
)
from .oracle import modexp_oracle
from .qft import apply_qft_on, qft_circuit
from .state import DEFAULT_MAX_QUBITS, QuantumState, _check_width, basis_state

STATUS_PERIOD_FOUND = "period-found"
STATUS_NO_CANDIDATE = "no-candidate"
STATUS_ODD_PERIOD = "odd-period"
STATUS_TRIVIAL_ROOT = "trivial-root"
STATUS_LUCKY_GCD = "lucky-gcd"

MODES = ("full", "hybrid", "classical")


@dataclass
class ShorConfig:
    """Inputs of a factoring attempt."""

    n_to_factor: int
    base: int | None = None          # forced base; random when None
    n_override: int | None = None    # input-register width override
    max_runs: int = 25
    seed: int = 0
    mode: str = "full"
    measure_f: bool = True           # measure the output register mid-run
    max_qubits: int = DEFAULT_MAX_QUBITS

    def __post_init__(self):
        if not 3 <= self.n_to_factor < U64_LIMIT:
            raise ValueError(f"cannot factor {self.n_to_factor}: need 3 <= N < 2**64")
        if self.max_runs < 1:
            raise ValueError(f"max_runs must be at least 1, got {self.max_runs}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.base is not None and not 2 <= self.base < self.n_to_factor:
            raise ValueError(
                f"forced base must lie in [2, {self.n_to_factor - 1}], got {self.base}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_override is not None and self.n_override < 1:
            raise ValueError(f"input-register width must be at least 1, got {self.n_override}")


@dataclass
class RunRecord:
    """Transcript of one period-finding attempt."""

    a: int
    n: int | None                     # input-register width (None off the quantum path)
    y: int | None = None              # measured input-register value
    f_outcome: int | None = None      # measured output-register value, if measured
    convergents: list[Convergent] = field(default_factory=list)
    candidate_r: int | None = None
    status: str = STATUS_NO_CANDIDATE
    mode: str = "full"                # the mode that actually ran this attempt


@dataclass
class FactoringResult:
    n_to_factor: int
    factors: tuple[int, int] | None
    runs: list[RunRecord]
    gate_estimate: int

    @property
    def success(self) -> bool:
        return self.factors is not None


def choose_register_size(n: int) -> int:
    """Smallest input-register width with 2**bits >= n**2."""
    if n < 3:
        raise ValueError(f"modulus must be at least 3, got {n}")
    return (n * n - 1).bit_length()


def prepare_uniform(n: int, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> QuantumState:
    """|0..0> with a Hadamard on every qubit: the unentangled uniform superposition."""
    state = basis_state(n, 0, max_qubits=max_qubits)
    h = hadamard()
    for q in range(n):
        state.apply_single(h, q)
    return state


def build_period_state(n: int, x0: int, r: int, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> QuantumState:
    """Uniform superposition over {x0 + k*r < 2**n}: the post-collapse input register."""
    _check_width(n, max_qubits)
    if r < 1:
        raise ValueError(f"period must be positive, got {r}")
    if not 0 <= x0 < r:
        raise ValueError(f"offset {x0} must satisfy 0 <= x0 < r = {r}")
    if r > (1 << n):
        raise ValueError(f"period {r} exceeds register size 2**{n}")
    state = basis_state(n, 0, max_qubits=max_qubits)
    state.amplitudes[0] = 0.0
    state.amplitudes[x0::r] = 1.0 / np.sqrt(len(range(x0, 1 << n, r)))
    return state


def _output_width(n_to_factor: int) -> int:
    return (n_to_factor - 1).bit_length()


def _widths(n_to_factor: int, n: int | None) -> tuple[int, int]:
    in_w = choose_register_size(n_to_factor) if n is None else n
    return in_w, _output_width(n_to_factor)


def _recover(record: RunRecord, n_to_factor: int) -> RunRecord:
    """Fill in the convergents of ``record.y / 2**record.n`` and any verified period."""
    m = 1 << record.n
    record.convergents = continued_fraction_convergents(record.y, m)
    candidate = recover_period(record.y, m, n_to_factor, record.a)
    if candidate is not None:
        record.candidate_r = candidate.r
        record.status = STATUS_PERIOD_FOUND
    return record


def run_once_full(
    n_to_factor: int,
    a: int,
    rng: np.random.Generator,
    *,
    n: int | None = None,
    measure_f: bool = True,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> RunRecord:
    """One full-simulation period-finding attempt with base ``a``.

    ``modexp_oracle`` rejects a base sharing a factor with ``n_to_factor``, before the state exists.
    """
    in_w, out_w = _widths(n_to_factor, n)
    total = in_w + out_w
    if total > max_qubits:
        raise ValueError(
            f"full simulation of {n_to_factor} needs {total} qubits "
            f"(2**{total} amplitudes), over the {max_qubits}-qubit cap; "
            "use hybrid mode"
        )
    oracle = modexp_oracle(a, n_to_factor, in_w, out_w)

    # The output register starts at |0>, so the uniform input register fills the low amplitudes.
    state = basis_state(total, 0, max_qubits=max_qubits)
    state.amplitudes[: 1 << in_w] = prepare_uniform(in_w, max_qubits=max_qubits).amplitudes
    state.apply_permutation(oracle)

    f_outcome = None
    if measure_f:
        f_outcome = state.measure_subregister(range(in_w, total), rng).value
        # the output register is |f_outcome> now: keep the input register's block
        block = state.amplitudes[f_outcome << in_w : (f_outcome + 1) << in_w]
        state = QuantumState(in_w, block)

    apply_qft_on(state, range(in_w))
    y = state.measure_subregister(range(in_w), rng).value

    return _recover(RunRecord(a=a, n=in_w, y=y, f_outcome=f_outcome, mode="full"), n_to_factor)


def run_once_hybrid(
    n_to_factor: int,
    a: int,
    rng: np.random.Generator,
    *,
    n: int | None = None,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> RunRecord:
    """Period-finding attempt on a directly built collapsed input register.

    The order and a random offset stand in for oracle + output measurement; the Fourier
    transform, measurement and recovery run exactly as in full mode, at input-register
    width only.  ``multiplicative_order`` rejects a base sharing a factor with ``n_to_factor``.
    """
    in_w, _ = _widths(n_to_factor, n)
    r = multiplicative_order(a, n_to_factor)
    x0 = int(rng.integers(0, r))
    state = build_period_state(in_w, x0, r, max_qubits=max_qubits)
    apply_qft_on(state, range(in_w))
    y = state.measure_all(rng).value

    return _recover(RunRecord(a=a, n=in_w, y=y, mode="hybrid"), n_to_factor)


def run_once_classical(n_to_factor: int, a: int) -> RunRecord:
    """No simulation: the directly computed order enters the post-processing.

    ``multiplicative_order`` rejects a base sharing a factor with ``n_to_factor``.
    """
    r = multiplicative_order(a, n_to_factor)
    return RunRecord(a=a, n=None, candidate_r=r, status=STATUS_PERIOD_FOUND, mode="classical")


# Exponents to try on an input below 2**64.  The least exponent that makes n a
# perfect power is prime (b**(p*k) == (b**k)**p), so no other exponent is needed.
_PRIME_EXPONENTS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _perfect_power_root(n: int) -> int | None:
    for e in _PRIME_EXPONENTS:
        if e > n.bit_length():
            break
        root = round(n ** (1.0 / e))
        for b in (root - 1, root, root + 1):
            if b >= 2 and b**e == n:
                return b
    return None


def run_shor(config: ShorConfig) -> FactoringResult:
    """Factor a composite, retrying bases and combining runs as needed.

    Classical pre-checks dispose of even, prime, and perfect-power inputs.
    Then up to ``max_runs`` attempts: a base sharing a factor with the modulus
    is an immediate lucky win; a verified even period with a nontrivial square
    root yields the factors; odd periods and trivial roots reselect the base;
    runs without a verified candidate pool their best convergent denominators
    (lcm, restarted from the latest once past the modulus) in case several
    partial runs pin the period together.

    Raises ValueError on prime input; returns a failure-marked result with the
    full transcript when the run budget is exhausted.
    """
    n = config.n_to_factor
    if n % 2 == 0:
        return FactoringResult(n, (2, n // 2), [], 0)
    if is_probable_prime(n):
        raise ValueError(f"{n} is prime (deterministic Miller-Rabin)")
    root = _perfect_power_root(n)
    if root is not None:
        return FactoringResult(n, (root, n // root), [], 0)

    mode = config.mode
    if mode == "full" and sum(_widths(n, config.n_override)) > config.max_qubits:
        mode = "hybrid"  # full register will not fit; keep only the input register
    # Classical mode with a forced base draws nothing, so it seeds no generator:
    # seeding takes tens of microseconds, a tenth of a classical call on a 23-bit modulus.
    rng = None
    if mode != "classical" or config.base is None:
        rng = np.random.default_rng(config.seed)
    runs: list[RunRecord] = []
    gate_estimate = 0
    a = config.base  # None: draw a fresh base for the next run
    pooled = 1  # lcm of the pooled denominators of the current base

    for _ in range(config.max_runs):
        if a is None:
            a = int(rng.integers(2, n, dtype=np.uint64))  # the int64 default rejects n >= 2**63
            pooled = 1

        g = gcd(a, n)
        if g > 1:
            runs.append(RunRecord(a=a, n=None, status=STATUS_LUCKY_GCD, mode=mode))
            return FactoringResult(n, (min(g, n // g), max(g, n // g)), runs, gate_estimate)

        if mode == "full":
            record = run_once_full(
                n, a, rng,
                n=config.n_override,
                measure_f=config.measure_f,
                max_qubits=config.max_qubits,
            )
            gate_estimate += record.n + 1  # the Hadamard layer and the oracle, one permutation
        elif mode == "hybrid":
            record = run_once_hybrid(
                n, a, rng, n=config.n_override, max_qubits=config.max_qubits
            )
        else:
            record = run_once_classical(n, a)
        if record.n is not None:
            gate_estimate += qft_circuit(record.n).gate_count
        runs.append(record)

        r = record.candidate_r
        if r is None:
            # Pool the largest informative denominator and test the combination.
            d = max((c.q for c in record.convergents if 1 < c.q < n), default=None)
            if d is None:
                continue
            pooled = math.lcm(pooled, d)
            if pooled > n:
                pooled = d
            if mod_pow(a, pooled, n) != 1:
                continue
            r = record.candidate_r = _order_from_multiple(a, pooled, n)
            record.status = STATUS_PERIOD_FOUND

        factors = factor_from_period(a, r, n)
        if factors is not None:
            return FactoringResult(n, factors, runs, gate_estimate)
        record.status = STATUS_ODD_PERIOD if r % 2 else STATUS_TRIVIAL_ROOT
        a = config.base

    return FactoringResult(n, None, runs, gate_estimate)
