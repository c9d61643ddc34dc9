"""Benchmark workloads: seeded input generation, one op per input, and verification.

Every workload turns a workload seed into a deterministic, endless stream of
inputs.  The program sees only those inputs.  An op is one public-API call:
``shor.run_shor`` for the factoring workloads and the in-process
``cli.main(["circuit", "run", ...])`` for ``circuit-mix``.

Factoring inputs are ``(N, a, seed)`` triples.  ``N`` cycles round-robin
through a fixed modulus pool, so every run spends the same share of its ops
on each modulus.  The base ``a`` is drawn from the seed among the bases of
maximal order lambda(N) that split ``N`` (even order, nontrivial square
root), checked here from the known factors.  Forcing such a base keeps two
sources of seed-to-seed noise out of the latency distribution: lucky-gcd
draws, which skip order finding and would make a third of the ops take
microseconds, and the spread of orders, which sets the cost of classical
order finding.  The remaining randomness, how many order-finding attempts the
measured ``y`` values need, is the program's own and shows in
``attempts_per_op``.
"""

import contextlib
import io
import math
import sys
import zlib
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Inputs drawn during set-up; later inputs are drawn between ops, untimed.
SETUP_INPUTS = 64


class ProgramMissing(RuntimeError):
    """The checkout holds no shorsim sources to benchmark."""


def load_program() -> SimpleNamespace:
    """Import shorsim from this checkout's ``src`` and return its modules.

    Refuses a shorsim imported from anywhere else, so the benchmark never
    measures an installed copy instead of the checkout.
    """
    if not (SRC / "shorsim" / "__init__.py").is_file():
        raise ProgramMissing(f"no shorsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shorsim
    from shorsim import circuit, cli, gates, numtheory, oracle, qft, shor, state

    origin = Path(shorsim.__file__).resolve().parent
    if origin != SRC / "shorsim":
        raise ProgramMissing(f"shorsim was imported from {origin}, not {SRC}")
    return SimpleNamespace(
        root=shorsim, circuit=circuit, cli=cli, gates=gates, numtheory=numtheory,
        oracle=oracle, qft=qft, shor=shor, state=state,
    )


# -- number theory of the benchmark's own (independent of shorsim) ----------

def _order_mod_prime(a: int, p: int) -> int:
    """Order of a modulo the prime p: the least divisor d of p-1 with a**d == 1."""
    m = p - 1
    divisors = sorted(
        d for k in range(1, math.isqrt(m) + 1) if m % k == 0 for d in (k, m // k)
    )
    return next(d for d in divisors if pow(a, d, p) == 1)


def _two_adic(x: int) -> int:
    return (x & -x).bit_length() - 1


def splits_with_max_order(a: int, p: int, q: int) -> bool:
    """True iff base a has order lambda(p*q) mod p*q and factors N = p*q.

    For distinct odd primes, the order r of a mod N is even with
    a**(r/2) != -1 mod N exactly when the orders mod p and mod q have
    different powers of two; r is lcm of the two orders.
    """
    if math.gcd(a, p * q) != 1:
        return False
    rp, rq = _order_mod_prime(a, p), _order_mod_prime(a, q)
    return _two_adic(rp) != _two_adic(rq) and math.lcm(rp, rq) == math.lcm(p - 1, q - 1)


def input_width(n: int) -> int:
    """Smallest b with 2**b >= n**2: the full-mode input-register width."""
    return (n * n - 1).bit_length()


# -- factoring workloads ------------------------------------------------------

@dataclass(frozen=True)
class FactorInput:
    n: int
    base: int
    seed: int
    p: int
    q: int


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


class FactoringWorkload:
    """``run_shor`` in one mode over a fixed pool of two-prime moduli."""

    def __init__(self, name: str, mode: str, pool):
        self.name = name
        self.mode = mode
        self.pool = tuple(pool)  # (p, q) pairs, p < q

    def state_bytes(self) -> int:
        """Largest state vector one op allocates (0 when nothing is simulated)."""
        if self.mode == "classical":
            return 0
        widest = max(
            input_width(p * q) + ((p * q - 1).bit_length() if self.mode == "full" else 0)
            for p, q in self.pool
        )
        return 16 << widest

    def inputs(self, seed: int, setup_dir: Path):
        rng = _rng(self.name, seed)
        for i in count():
            p, q = self.pool[i % len(self.pool)]
            n = p * q
            while True:
                a = int(rng.integers(2, n))
                if splits_with_max_order(a, p, q):
                    break
            yield FactorInput(n, a, int(rng.integers(0, 2**31)), p, q)

    def run(self, prog, inp: FactorInput):
        config = prog.shor.ShorConfig(inp.n, base=inp.base, seed=inp.seed, mode=self.mode)
        return prog.shor.run_shor(config)

    def verify(self, inp: FactorInput, result) -> str | None:
        """None when the result is right, else what is wrong with it."""
        n = inp.n
        if result.factors is None:
            return f"N={n}: no factors after {len(result.runs)} runs"
        p, q = result.factors
        if not (p * q == n and 1 < p <= q < n):
            return f"N={n}: {p} x {q} is not a factorization"
        if (p, q) != (inp.p, inp.q):
            return f"N={n}: got {p} x {q}, expected {inp.p} x {inp.q}"
        if self.mode == "full":
            # Full mode must not fall back to hybrid: every order-finding run
            # holds the whole input register and measures the output register.
            width = input_width(n)
            for rec in result.runs:
                if rec.status == "lucky-gcd":
                    continue
                if rec.n != width or rec.f_outcome is None or getattr(rec, "mode", "full") != "full":
                    return (
                        f"N={n}: run with width {rec.n}, f_outcome {rec.f_outcome} "
                        f"is not a full-mode run at width {width}"
                    )
        return None

    def attempts(self, result) -> int:
        return len(result.runs)


# -- circuit-mix ----------------------------------------------------------------

CIRCUIT_WIDTH = 16
CIRCUITS_PER_RUN = 4
SHOTS = 4096
# Ops of each kind in C; the file holds C then its inverse, so twice as many.
# Fixed counts keep the cost of a circuit nearly independent of the seed.
GATE_MIX = {"H": 6, "U2": 6, "CNOT": 6, "CPHASE": 6, "CCNOT": 4, "U4": 4}


@dataclass(frozen=True)
class CircuitInput:
    path: str
    init: int
    seed: int


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _matrix_line(head: str, m: np.ndarray) -> str:
    return head + " " + " ".join(f"{_fmt(e.real)} {_fmt(e.imag)}" for e in m.ravel())


def random_circuit_text(rng: np.random.Generator, width: int = CIRCUIT_WIDTH) -> str:
    """A random circuit C followed by its inverse, in the text format.

    The inverse is written here from the gate definitions (H, CNOT and CCNOT
    are self-inverse, CPHASE negates its angle, U2 and U4 take the conjugate
    transpose), not by the program under test.
    """
    kinds = [k for k, n in GATE_MIX.items() for _ in range(n)]
    rng.shuffle(kinds)
    forward, backward = [], []
    for kind in kinds:
        qs = [int(q) for q in rng.choice(width, size=3, replace=False)]
        if kind == "H":
            line = inv = f"H {qs[0]}"
        elif kind == "CNOT":
            line = inv = f"CNOT {qs[0]} {qs[1]}"
        elif kind == "CCNOT":
            line = inv = f"CCNOT {qs[0]} {qs[1]} {qs[2]}"
        elif kind == "CPHASE":
            angle = float(rng.uniform(-np.pi, np.pi))
            line = f"CPHASE {qs[0]} {qs[1]} {_fmt(angle)}"
            inv = f"CPHASE {qs[0]} {qs[1]} {_fmt(-angle)}"
        elif kind == "U2":
            m = _random_unitary(2, rng)
            line = _matrix_line(f"U2 {qs[0]}", m)
            inv = _matrix_line(f"U2 {qs[0]}", m.conj().T)
        else:
            m = _random_unitary(4, rng)
            line = _matrix_line(f"U4 {qs[0]} {qs[1]}", m)
            inv = _matrix_line(f"U4 {qs[0]} {qs[1]}", m.conj().T)
        forward.append(line)
        backward.append(inv)
    lines = [f"qubits {width}"] + forward + backward[::-1]
    return "\n".join(lines) + "\n"


class CircuitWorkload:
    """``shorsim circuit run`` in-process on seeded random C + C^-1 circuits."""

    name = "circuit-mix"
    mode = None

    def state_bytes(self) -> int:
        return 16 << CIRCUIT_WIDTH

    def inputs(self, seed: int, setup_dir: Path):
        rng = _rng(self.name, seed)
        setup_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for k in range(CIRCUITS_PER_RUN):
            path = setup_dir / f"circuit-mix-seed{seed}-{k}.txt"
            path.write_text(random_circuit_text(rng))
            paths.append(str(path))
        for i in count():
            yield CircuitInput(
                paths[i % len(paths)],
                int(rng.integers(0, 1 << CIRCUIT_WIDTH)),
                int(rng.integers(0, 2**31)),
            )

    def run(self, prog, inp: CircuitInput):
        out = io.StringIO()
        argv = ["circuit", "run", inp.path, "--shots", str(SHOTS),
                "--seed", str(inp.seed), "--init", str(inp.init)]
        with contextlib.redirect_stdout(out):
            code = prog.cli.main(argv)
        return code, out.getvalue()

    def verify(self, inp: CircuitInput, result) -> str | None:
        code, text = result
        if code != 0:
            return f"{inp.path}: exit code {code}"
        # C followed by its inverse is the identity: every shot lands on init.
        expected = f"outcome,count\n{inp.init},{SHOTS}\n"
        if text != expected:
            return f"{inp.path} from |{inp.init}>: histogram {text!r}"
        return None

    def attempts(self, result) -> int:
        return 1  # one simulation per invocation


# Fixed modulus pools of two distinct odd primes; each pair has bases that
# split it with maximal order.  CLASSICAL_POOL: an 11-bit and a 12-bit prime
# with lambda(N) between 600000 and 680000, so every op's linear-in-r order
# search walks a nearly equal 0.6-0.68 million steps.
FULL_SMALL_POOL = ((3, 5), (3, 7), (3, 11), (5, 7), (3, 13))
FULL_20Q_POOL = ((5, 13), (3, 23), (7, 11), (5, 17), (3, 29))
HYBRID_18Q_POOL = ((17, 23), (13, 31), (19, 23), (13, 37), (17, 29))
CLASSICAL_POOL = (
    (1193, 4049), (1321, 3067), (1459, 2713), (1597, 2539),
    (1741, 3671), (1753, 2239), (1759, 2137), (1901, 3371),
)

# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        FactoringWorkload("full-small", "full", FULL_SMALL_POOL),
        FactoringWorkload("hybrid-18q", "hybrid", HYBRID_18Q_POOL),
        FactoringWorkload("classical-24b", "classical", CLASSICAL_POOL),
        CircuitWorkload(),
        # Not in BENCHMARK.json: at about 2 s per attempt a run is too short
        # for a steady median; run it by hand for kernels at 20 qubits.
        FactoringWorkload("full-20q", "full", FULL_20Q_POOL),
    )
}
