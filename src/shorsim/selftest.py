"""Acceptance checks behind the ``selftest`` subcommand.

Each criterion is a self-contained check with a frozen tolerance; the pytest
suite runs the same functions one by one.  Reference numbers are computed from
independent routes (direct sums, brute-force oracles, exhaustive enumeration)
rather than from the code paths under test.
"""

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import circuit as circ
from . import gates, numtheory, oracle, qft, shor
from .circuit import Circuit
from .state import basis_state

# 576 * P(y) at the eight tallest lines of the 9-term, period-7, offset-4
# state on 6 qubits; cross-checked in criterion 1 against the direct sum
# |sum_{k=0..8} exp(2j*pi*7*k*y/64)|**2.
REFERENCE_PEAKS = {0: 81.0, 9: 75.9, 18: 62.2, 27: 43.7, 28: 25.3, 37: 43.7, 46: 62.2, 55: 75.9}

# Documented seeds for the end-to-end factoring criterion; each drives the
# full quantum path (no lucky gcd draw) to success on the first run.
FACTORING_SEEDS = {15: 0, 21: 1, 35: 1}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _check_period7_peaks() -> tuple[bool, str]:
    state = shor.build_period_state(6, 4, 7)
    qft.apply_qft(state)
    scaled = 576.0 * state.probabilities()

    worst = 0.0
    for y, ref in REFERENCE_PEAKS.items():
        # independent route: direct phase sum over the nine support points
        direct = abs(sum(np.exp(2j * np.pi * 7 * k * y / 64) for k in range(9))) ** 2
        if abs(direct - ref) > 0.05:
            return False, f"direct sum at y={y} gives {direct:.3f}, reference {ref}"
        worst = max(worst, abs(scaled[y] - ref))
        if worst > 0.05:
            return False, f"576*P({y}) = {scaled[y]:.4f}, reference {ref}"
    return True, f"eight peak values within {worst:.4f} of the reference table"


def _check_period_state_geometry() -> tuple[bool, str]:
    state = shor.build_period_state(6, 4, 7)
    probs = state.probabilities()
    support = np.flatnonzero(probs > 0)
    expected = np.arange(4, 64, 7)
    if not np.array_equal(support, expected):
        return False, f"support {support.tolist()} != {expected.tolist()}"
    dev = float(np.max(np.abs(probs[support] - 1.0 / 9.0)))
    if dev > 1e-12:
        return False, f"support probability deviates from 1/9 by {dev:.3e}"
    return True, f"9 support points, probabilities within {dev:.1e} of 1/9"


def _check_qft_matches_reference() -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(1, 11):
        for _ in range(10):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            expect = qft.dft_reference(amps)
            state = basis_state(n, 0)
            state.amplitudes = amps.astype(np.complex128)
            qft.apply_qft(state)
            worst = max(worst, float(np.max(np.abs(state.amplitudes - expect))))
    if worst > 1e-10:
        return False, f"max deviation from the reference transform is {worst:.3e}"
    return True, f"100 random states, n <= 10, max deviation {worst:.2e}"


def _check_qft_gate_count() -> tuple[bool, str]:
    for n in range(1, 21):
        count = qft.qft_circuit(n).gate_count
        bound = n * (n + 1) // 2 + 3 * (n // 2)
        if count > bound:
            return False, f"n={n}: {count} gates exceeds bound {bound}"
    return True, "gate_count(qft_circuit(n)) <= n(n+1)/2 + 3*floor(n/2) for n <= 20"


def _check_end_to_end_factoring() -> tuple[bool, str]:
    expected = {15: (3, 5), 21: (3, 7), 35: (5, 7)}
    for n, seed in FACTORING_SEEDS.items():
        result = shor.run_shor(shor.ShorConfig(n, seed=seed, max_runs=25))
        if result.factors != expected[n]:
            return False, f"seed {seed} failed on {n}: got {result.factors}"
        if len(result.runs) > 25:
            return False, f"{n} took {len(result.runs)} runs"

    rates = {}
    for n in expected:
        wins = 0
        for seed in range(100):
            result = shor.run_shor(shor.ShorConfig(n, seed=seed, max_runs=10))
            if result.factors == expected[n]:
                wins += 1
        rates[n] = wins
        if wins < 90:
            return False, f"{n}: only {wins}/100 seeds succeed within 10 runs"
    summary = ", ".join(f"{n}: {w}%" for n, w in rates.items())
    return True, f"fixed seeds factor 15/21/35; 10-run success over 100 seeds: {summary}"


def _check_classical_12827() -> tuple[bool, str]:
    result = shor.run_shor(shor.ShorConfig(12827, mode="classical", seed=0))
    if result.factors != (101, 127):
        return False, f"got {result.factors}"
    return True, f"12827 = 101 x 127 in {len(result.runs)} classical run(s)"


def _check_modular_exponentiation() -> tuple[bool, str]:
    if numtheory.mod_pow(8, 65, 37) != 23:
        return False, f"mod_pow(8, 65, 37) = {numtheory.mod_pow(8, 65, 37)}, want 23"
    mp = numtheory.mod_pow
    for m in range(1, 201):
        for a in range(0, 201):
            acc = 1 % m  # naive oracle: literal repeated multiplication
            for e in range(0, 201):
                if mp(a, e, m) != acc:
                    return False, f"mod_pow({a}, {e}, {m}) != naive product {acc}"
                acc = acc * a % m
    return True, "mod_pow(8,65,37) = 23; agrees with repeated multiplication for all a,e,m <= 200"


def _truth_table_circuit(f: oracle.ReversibleFunction) -> Circuit:
    """|x, 0> -> |x, f(x)> as a multi-controlled-X network (f lands on the top qubits)."""
    width = f.input_width + f.output_width
    c = Circuit(width)
    table = f.table()
    controls = frozenset(range(f.input_width))
    for xval in range(1 << f.input_width):
        fx = int(table[xval])
        if fx == 0:
            continue
        zero_bits = [q for q in range(f.input_width) if not (xval >> q) & 1]
        for q in zero_bits:
            c.append(circ.x(q))
        for j in range(f.output_width):
            if (fx >> j) & 1:
                c.append(circ.controlled(gates.not_gate(), controls, f.input_width + j))
        for q in zero_bits:
            c.append(circ.x(q))
    return c


def _toy_functions() -> list[oracle.ReversibleFunction]:
    fns = []
    for w in range(1, 5):
        mask = (1 << w) - 1
        fns.append(oracle.ReversibleFunction(w, w, lambda v: v))                       # identity
        fns.append(oracle.ReversibleFunction(w, w, lambda v, m=mask: (v + 1) & m))     # increment
        fns.append(oracle.ReversibleFunction(w, 1, lambda v: v.bit_count() & 1))       # parity
        fns.append(oracle.ReversibleFunction(w, 1, lambda v, m=mask: int(v == m)))     # AND
        fns.append(oracle.ReversibleFunction(w, 1, lambda v: int(v != 0)))             # OR
        fns.append(oracle.ReversibleFunction(w, w, lambda v, m=mask: v ^ (v >> 1)))    # gray code
        fns.append(oracle.ReversibleFunction(w, w, lambda v, m=mask: (v * v + v) & m)) # scramble
    return fns


def _uncompute_images_ok(wrapped: Circuit, x_width: int, work_width: int, f_table) -> str | None:
    total = wrapped.width
    for xval in range(1 << x_width):
        out = wrapped.run(basis_state(total, xval))
        expect = xval | (int(f_table[xval]) << (x_width + work_width))
        amp = out.amplitudes[expect]
        others = np.abs(out.amplitudes) > 1e-12
        if others.sum() != 1 or not others[expect] or abs(abs(amp) - 1.0) > 1e-12:
            return f"input {xval}: expected basis {expect}, got support {np.flatnonzero(others).tolist()}"
    return None


def _check_copy_uncompute() -> tuple[bool, str]:
    # fixed toy family, every function exhaustively over all basis inputs
    n_toys = 0
    for f in _toy_functions():
        cf = _truth_table_circuit(f)
        wrapped = oracle.compute_copy_uncompute(cf, f.input_width, f.output_width, f.output_width)
        err = _uncompute_images_ok(wrapped, f.input_width, f.output_width, f.table())
        if err is not None:
            return False, f"toy function ({f.input_width}->{f.output_width} bits): {err}"
        n_toys += 1

    # random X/CNOT/CCNOT networks; f(x) is defined as the top bits of the image
    rng = np.random.default_rng(7)
    for trial in range(100):
        width = int(rng.integers(2, 6))
        cf = Circuit(width)
        for _ in range(int(rng.integers(1, 26))):
            arity = int(rng.integers(0, 3)) + 1
            qs = rng.choice(width, size=min(arity, width), replace=False)
            if len(qs) == 1:
                cf.append(circ.x(int(qs[0])))
            elif len(qs) == 2:
                cf.append(circ.cnot(int(qs[0]), int(qs[1])))
            else:
                cf.append(circ.ccnot(int(qs[0]), int(qs[1]), int(qs[2])))
        x_width = int(rng.integers(1, width + 1))
        f_width = int(rng.integers(1, width + 1))
        g_width = width - x_width
        images = [cf.run(basis_state(width, xv)).probabilities().argmax() for xv in range(1 << x_width)]
        f_table = [int(img) >> (width - f_width) for img in images]
        wrapped = oracle.compute_copy_uncompute(cf, x_width, f_width, g_width)
        err = _uncompute_images_ok(wrapped, x_width, g_width, f_table)
        if err is not None:
            return False, f"random network {trial} (width {width}): {err}"
    return True, f"{n_toys} toy functions and 100 random networks uncompute exactly"


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_circuit(width: int, n_ops: int, rng: np.random.Generator) -> Circuit:
    c = Circuit(width)
    for _ in range(n_ops):
        roll = int(rng.integers(0, 9)) if width >= 2 else int(rng.integers(0, 4))
        q = int(rng.integers(width))
        if roll == 0:
            c.append(circ.h(q))
        elif roll == 1:
            c.append(circ.x(q))
        elif roll == 2:
            c.append(circ.phase(q, float(rng.uniform(-np.pi, np.pi))))
        elif roll == 3:
            c.append(circ.u2(q, gates.Gate2(_random_unitary(2, rng))))
        elif roll in (4, 5, 6):
            qa, qb = (int(v) for v in rng.choice(width, size=2, replace=False))
            if roll == 4:
                c.append(circ.cnot(qa, qb))
            elif roll == 5:
                c.append(circ.cphase(qa, qb, float(rng.uniform(-np.pi, np.pi))))
            else:
                c.append(circ.u4(qa, qb, gates.Gate4(_random_unitary(4, rng))))
        elif roll == 7 and width >= 3:
            qa, qb, qc = (int(v) for v in rng.choice(width, size=3, replace=False))
            c.append(circ.ccnot(qa, qb, qc))
        else:
            qa, qb = (int(v) for v in rng.choice(width, size=2, replace=False))
            c.append(circ.swap(qa, qb))
    return c


def _check_unitarity_drift() -> tuple[bool, str]:
    rng = np.random.default_rng(99)
    big = _random_circuit(10, 10_000, rng)
    amps = rng.normal(size=1 << 10) + 1j * rng.normal(size=1 << 10)
    amps /= np.linalg.norm(amps)
    state = basis_state(10, 0)
    state.amplitudes = amps.astype(np.complex128)
    original = state.amplitudes.copy()

    big.run(state)
    drift = abs(1.0 - state.norm() ** 2)
    if drift > 1e-9:
        return False, f"norm drift {drift:.3e} after 10^4 gates"

    big.inverse().run(state)
    restore = float(np.max(np.abs(state.amplitudes - original)))
    if restore > 1e-10:
        return False, f"inverse restores input only to {restore:.3e}"

    worst = restore
    for _ in range(100):
        width = int(rng.integers(2, 7))
        c = _random_circuit(width, int(rng.integers(1, 51)), rng)
        amps = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
        amps /= np.linalg.norm(amps)
        state = basis_state(width, 0)
        state.amplitudes = amps.astype(np.complex128)
        before = state.amplitudes.copy()
        c.inverse().run(c.run(state))
        worst = max(worst, float(np.max(np.abs(state.amplitudes - before))))
        if worst > 1e-10:
            return False, f"random circuit round trip off by {worst:.3e}"
    return True, f"drift {drift:.1e} over 10^4 gates; worst inverse restore {worst:.1e}"


def _order_instances(max_r: int) -> dict[int, tuple[int, int]]:
    """For each r <= max_r, some (modulus, base) whose multiplicative order is r."""
    found: dict[int, tuple[int, int]] = {}
    for n in range(3, 1000):
        for a in range(2, n):
            if numtheory.gcd(a, n) != 1:
                continue
            r = numtheory.multiplicative_order(a, n)
            if 2 <= r <= max_r and r not in found:
                found[r] = (n, a)
        if len(found) == max_r - 1:
            break
    return found


def _check_number_theory() -> tuple[bool, str]:
    primes = [p for p in range(2, 501) if numtheory.is_probable_prime(p)]
    n_semiprimes = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            n = p * q
            if n > 1000:
                break
            n_semiprimes += 1
            phi = (p - 1) * (q - 1)
            for a in range(1, n):
                if numtheory.gcd(a, n) == 1 and numtheory.mod_pow(a, phi, n) != 1:
                    return False, f"a={a}, pq={n}: a^phi mod pq != 1"

    n_recoveries = 0
    instances = _order_instances(20)
    for r in range(2, 21):
        n, a = instances[r]
        m = 1
        while m < r * r:
            m <<= 1
        for k in range(1, r):
            if numtheory.gcd(k, r) != 1:
                continue
            y = (2 * k * m + r) // (2 * r)  # round(k*m/r), half away from zero
            cand = numtheory.recover_period(y, m, n, a)
            if cand is None or cand.r != r:
                got = None if cand is None else cand.r
                return False, f"r={r}, k={k}: recovered {got} from y={y}, M={m}"
            n_recoveries += 1
    return True, (
        f"Euler identity on {n_semiprimes} semiprimes <= 1000; "
        f"{n_recoveries} period recoveries exact for r <= 20"
    )


def _check_garbage_necessity() -> tuple[bool, str]:
    bits, a, n, r = 4, 2, 15, 4
    f = [oracle.modexp_trace(a, xv, n, bits)[0] for xv in range(1 << bits)]
    joint = [oracle.modexp_trace(a, xv, n, bits) for xv in range(1 << bits)]
    f_periodic = all(f[xv] == f[xv + r] for xv in range((1 << bits) - r))
    joint_periodic = all(joint[xv] == joint[xv + r] for xv in range((1 << bits) - r))
    if not f_periodic:
        return False, f"f(x) = {a}^x mod {n} is not {r}-periodic"
    if joint_periodic:
        return False, "joint (result, garbage) map is still periodic"
    return True, f"f is {r}-periodic, the joint map with garbage kept is not"


@dataclass
class Criterion:
    number: int
    name: str
    fn: Callable[[], tuple[bool, str]]
    time_limit: float | None = None


CRITERIA = [
    Criterion(1, "period-7-transform-peaks", _check_period7_peaks, time_limit=1.0),
    Criterion(2, "period-state-geometry", _check_period_state_geometry),
    Criterion(3, "qft-matches-reference", _check_qft_matches_reference, time_limit=10.0),
    Criterion(4, "qft-gate-count-bound", _check_qft_gate_count),
    Criterion(5, "end-to-end-factoring", _check_end_to_end_factoring, time_limit=60.0),
    Criterion(6, "classical-mode-12827", _check_classical_12827, time_limit=1.0),
    Criterion(7, "modular-exponentiation", _check_modular_exponentiation),
    Criterion(8, "copy-uncompute-law", _check_copy_uncompute),
    Criterion(9, "unitarity-drift-and-inverse", _check_unitarity_drift),
    Criterion(10, "number-theory-identities", _check_number_theory),
    Criterion(11, "garbage-breaks-periodicity", _check_garbage_necessity),
]


def run_criterion(criterion: Criterion) -> CriterionResult:
    start = time.perf_counter()
    try:
        passed, detail = criterion.fn()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if passed and criterion.time_limit is not None and elapsed > criterion.time_limit:
        passed = False
        detail += f" [took {elapsed:.2f}s, limit {criterion.time_limit:.0f}s]"
    return CriterionResult(criterion.number, criterion.name, passed, detail, elapsed)


def run_all(verbose: bool = False, only=None) -> list[CriterionResult]:
    results = []
    for criterion in CRITERIA:
        if only is not None and criterion.number not in only:
            continue
        result = run_criterion(criterion)
        results.append(result)
        if verbose:
            flag = "PASS" if result.passed else "FAIL"
            print(f"{flag}  {result.number:2d}  {result.name:<28s}  "
                  f"{result.seconds:6.2f}s  {result.detail}")
    if verbose:
        n_pass = sum(r.passed for r in results)
        total = sum(r.seconds for r in results)
        print(f"{n_pass}/{len(results)} criteria passed in {total:.1f}s")
    return results
