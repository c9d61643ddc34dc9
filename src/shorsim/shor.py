"""Order-finding factorization pipeline and its run transcripts.

One full-simulation run: uniform superposition on the input register, the
modular-exponentiation XOR oracle, an optional measurement of the output
register (on by default; skipping it provably does not change the input
marginal), the Fourier transform on the input register, a measurement, and
continued-fraction period recovery.

``hybrid`` mode replaces the oracle stage with a directly constructed
collapsed period state (the order is computed classically), which keeps the
register width affordable for moduli whose full simulation would not fit in
memory.  ``classical`` mode skips simulation entirely and feeds the directly
computed multiplicative order through the same post-processing.

Across runs with the same base the driver combines unverified candidate
denominators by least common multiple (capped at the modulus) before giving
up on a base; odd periods and trivial square roots trigger a fresh base.
"""

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
from .state import DEFAULT_MAX_QUBITS, QuantumState, basis_state

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
        if self.n_to_factor < 3:
            raise ValueError(f"nothing to factor below 3, got {self.n_to_factor}")
        if self.n_to_factor >= U64_LIMIT:
            raise ValueError(f"{self.n_to_factor} exceeds the 64-bit input cap")
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
    bits = 0
    while (1 << bits) < n * n:
        bits += 1
    return bits


def prepare_uniform(n: int, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> QuantumState:
    """|0..0> with a Hadamard on every qubit: the unentangled uniform superposition."""
    state = basis_state(n, 0, max_qubits=max_qubits)
    for q in range(n):
        state.apply_single(hadamard(), q)
    return state


def build_period_state(n: int, x0: int, r: int, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> QuantumState:
    """Uniform superposition over {x0 + k*r < 2**n}: the post-collapse input register."""
    if r < 1:
        raise ValueError(f"period must be positive, got {r}")
    if not 0 <= x0 < r:
        raise ValueError(f"offset {x0} must satisfy 0 <= x0 < r = {r}")
    if r > (1 << n):
        raise ValueError(f"period {r} exceeds register size 2**{n}")
    state = basis_state(n, 0, max_qubits=max_qubits)
    support = np.arange(x0, 1 << n, r)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[support] = 1.0 / np.sqrt(support.size)
    state.amplitudes = amps
    return state


def _output_width(n_to_factor: int) -> int:
    return (n_to_factor - 1).bit_length()


def _full_run_gate_estimate(n: int) -> int:
    # n Hadamards + the oracle applied as one permutation + the QFT ladder.
    return n + 1 + n * (n + 1) // 2 + n // 2


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
    """One full-simulation period-finding attempt with base ``a``."""
    if gcd(a, n_to_factor) != 1:
        raise ValueError(f"base {a} shares a factor with {n_to_factor}")
    in_w = choose_register_size(n_to_factor) if n is None else n
    out_w = _output_width(n_to_factor)
    total = in_w + out_w
    if total > max_qubits:
        raise ValueError(
            f"full simulation of {n_to_factor} needs {total} qubits "
            f"(2**{total} amplitudes), over the {max_qubits}-qubit cap; "
            "use hybrid mode"
        )

    state = basis_state(total, 0, max_qubits=max_qubits)
    for q in range(in_w):
        state.apply_single(hadamard(), q)
    state.apply_permutation(modexp_oracle(a, n_to_factor, in_w, out_w))

    f_outcome = None
    if measure_f:
        f_outcome = state.measure_subregister(range(in_w, total), rng).value

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

    The order and a random offset stand in for oracle + output measurement;
    the Fourier transform, measurement and recovery run exactly as in full
    mode, at input-register width only.
    """
    if gcd(a, n_to_factor) != 1:
        raise ValueError(f"base {a} shares a factor with {n_to_factor}")
    in_w = choose_register_size(n_to_factor) if n is None else n
    r = multiplicative_order(a, n_to_factor)
    x0 = int(rng.integers(0, r))
    state = build_period_state(in_w, x0, r, max_qubits=max_qubits)
    apply_qft_on(state, range(in_w))
    y = state.measure_all(rng).value

    return _recover(RunRecord(a=a, n=in_w, y=y, mode="hybrid"), n_to_factor)


def run_once_classical(n_to_factor: int, a: int) -> RunRecord:
    """No simulation: the directly computed order enters the post-processing."""
    if gcd(a, n_to_factor) != 1:
        raise ValueError(f"base {a} shares a factor with {n_to_factor}")
    r = multiplicative_order(a, n_to_factor)
    return RunRecord(a=a, n=None, candidate_r=r, status=STATUS_PERIOD_FOUND, mode="classical")


def _perfect_power_root(n: int) -> int | None:
    for e in range(2, n.bit_length() + 1):
        root = round(n ** (1.0 / e))
        for b in (root - 1, root, root + 1):
            if b >= 2 and b**e == n:
                return b
    return None


def _lcm_capped(values, cap: int) -> int:
    out = 1
    for v in values:
        out = out // gcd(out, v) * v
        if out > cap:
            return 0
    return out


def run_shor(config: ShorConfig) -> FactoringResult:
    """Factor a composite, retrying bases and combining runs as needed.

    Classical pre-checks dispose of even, prime, and perfect-power inputs.
    Then up to ``max_runs`` attempts: a base sharing a factor with the modulus
    is an immediate lucky win; a verified even period with a nontrivial square
    root yields the factors; odd periods and trivial roots reselect the base;
    runs without a verified candidate pool their best convergent denominators
    (lcm, capped at the modulus) in case several partial runs pin the period
    together.

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

    rng = np.random.default_rng(config.seed)
    mode = config.mode
    if mode == "full":
        in_w = config.n_override or choose_register_size(n)
        if in_w + _output_width(n) > config.max_qubits:
            mode = "hybrid"  # full register will not fit; keep only the input register
    runs: list[RunRecord] = []
    gate_estimate = 0
    current_a: int | None = None
    pooled_denoms: list[int] = []

    for _ in range(config.max_runs):
        if config.base is not None:
            a = config.base
        elif current_a is None:
            a = int(rng.integers(2, n))
            current_a = a
            pooled_denoms = []
        else:
            a = current_a

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
            gate_estimate += _full_run_gate_estimate(record.n)
        elif mode == "hybrid":
            record = run_once_hybrid(
                n, a, rng, n=config.n_override, max_qubits=config.max_qubits
            )
            gate_estimate += qft_circuit(record.n).gate_count
        else:
            record = run_once_classical(n, a)
        runs.append(record)

        r = record.candidate_r
        if r is None:
            # Pool the largest informative denominator and test the combination.
            denoms = [c.q for c in record.convergents if 1 < c.q < n]
            if denoms:
                pooled_denoms.append(max(denoms))
                combined = _lcm_capped(pooled_denoms, n)
                if combined == 0:
                    # the pool outgrew the modulus; start over from this run
                    pooled_denoms = [max(denoms)]
                    combined = pooled_denoms[0]
                if combined > 1 and mod_pow(a, combined, n) == 1:
                    r = _order_from_multiple(a, combined, n)
                    record.candidate_r = r
                    record.status = STATUS_PERIOD_FOUND
            if r is None:
                continue

        if r % 2 == 1:
            record.status = STATUS_ODD_PERIOD
            current_a = None
            continue
        factors = factor_from_period(a, r, n)
        if factors is None:
            record.status = STATUS_TRIVIAL_ROOT
            current_a = None
            continue
        return FactoringResult(n, factors, runs, gate_estimate)

    return FactoringResult(n, None, runs, gate_estimate)

