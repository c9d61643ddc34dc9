"""Exact integer arithmetic for the oracle and the classical post-processing.

Everything here runs on plain Python integers, except the order search's
uint64 arrays.  Inputs are capped at 64 bits where correctness depends
on it (the fixed Miller-Rabin witness set is only proven deterministic below
2**64); intermediates never overflow because Python integers are unbounded.

The classical order search (``multiplicative_order``) is baby-step
giant-step with a growing table, about sqrt(r) steps for an order r, under a
stated work budget: MAX_BABY_STEPS table entries, which reach every order up
to 2**40.  Past it, the search raises OrderSearchBudgetExceeded instead of
running on.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

U64_LIMIT = 1 << 64

# Deterministic Miller-Rabin witnesses for every n < 3.3e24 (covers all u64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The first four alone suffice below 3215031751, the least strong pseudoprime
# to all of 2, 3, 5 and 7 (Jaeschke, Math. Comp. 61, 1993).
_MR_FOUR_WITNESS_LIMIT = 3215031751

# Work budget of multiplicative_order: at most this many baby-step table
# entries, enough for every order up to 2**40.  Only a modulus of 2**32 or
# more can reach it (every smaller one has its orders below 2**32, within a
# table of 2**16 entries); its dict then holds about 110 MiB (a 108 MiB
# tracemalloc peak for 3 mod 2**61 - 1, whose search spends the budget in
# about 1.5 s).
MAX_BABY_STEPS = 1 << 20

# The array search runs for moduli in [2**18, 2**32).  On [2**18, 2**19) it led
# the dict search in every median of two runs of 50 (a, n) per kind: random moduli
# 49-50 us against 79-81 us, semiprimes 49 us against 82-88 us; on [2**17, 2**18)
# the dict led one median of four.  From 2**32 on, residue products overflow uint64.
_ARRAY_MODULI = range(1 << 18, 1 << 32)

# First array table: 512 entries reach every odd part below 2**18, the classical
# benchmark's (38k-169k) included.  On its first 64 inputs, against 1024 entries
# on the whole order, 512 took 0.71x the time, 256 1.34x (two phases), 1024 1.00x.
_FIRST_ARRAY_TABLE = 1 << 9


class OrderSearchBudgetExceeded(RuntimeError):
    """multiplicative_order would need more than MAX_BABY_STEPS table entries."""


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of the absolute values."""
    a, b = int(a), int(b)
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def extended_gcd(m: int, n: int) -> tuple[int, int, int]:
    """Return (g, m', k) with m'*m == k*n + g and g = gcd(m, n).

    When g == 1, ``m' % n`` is the multiplicative inverse of m mod n.
    """
    if m <= 0 or n <= 0:
        raise ValueError(f"extended_gcd needs positive inputs, got {m}, {n}")
    old_r, r = m, n
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # old_s*m + old_t*n == old_r, so m'*m == k*n + g with k = -old_t
    return old_r, old_s, -old_t


def mod_pow(a: int, e: int, m: int) -> int:
    """a**e mod m by the built-in three-argument ``pow``.

    Arguments are coerced to ``int`` first, so numpy integers are accepted
    (``pow`` rejects them).
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if e < 0:
        raise ValueError(f"exponent must be non-negative, got {e}")
    return pow(int(a), int(e), int(m))


@functools.cache
def _exponent_fields(m: int) -> np.ndarray:
    """e - 1 for each exponent e of a phase's table: babies 1..m, then giants 2m, 3m, ..., m*m."""
    e = np.arange(1, m + 1, dtype=np.uint64)
    return np.concatenate((e, m * e[1:])) - 1


def _order_below_square(a: int, n: int, m: int) -> int | None:
    """The order of a mod n if it is below top, else None (n < 2**32, m <= 2**16).

    One baby-step giant-step phase on uint64 arrays: babies a**e, e = 1..m, and
    giants a**e, e = 2m, 3m, ..., top = m * min(m, 2**31 // m) (2**31 is past
    every odd order mod n), packed as ``value << b | e - 1`` with b the bits of
    2*top - 1 and sorted once.  Equal values give a**gap == 1, so every gap
    between them is a multiple of the order r; each r below top is the gap of
    two entries, which are then sorted neighbours (a third exponent between
    them would split r into smaller multiples of r).  Unequal neighbours
    differ by more than top, so the least difference is the order if below
    top.  Both tables are one broadcast product of four power lists of w =
    ceil(sqrt(m)) entries: a**(1 + w*h) a**l (babies), a**(2m + w*m*h) a**(m*l).
    """
    stride = pow(a, m, n)
    w = math.isqrt(m - 1) + 1
    step_a, step_s = pow(a, w, n), pow(stride, w, n)
    x, y, u, v = 1, 1, a, stride * stride % n
    la, ls, ha, hs = [x], [y], [u], [v]
    for _ in range(w - 1):
        x = x * a % n
        y = y * stride % n
        u = u * step_a % n
        v = v * step_s % n
        la.append(x)
        ls.append(y)
        ha.append(u)
        hs.append(v)
    high = np.array(ha + hs, np.uint64).reshape(2, w, 1)
    low = np.array(la + ls, np.uint64).reshape(2, 1, w)
    top = m * min(m, (1 << 31) // m)
    packed = (high * low).reshape(2, w * w)[:, :m].reshape(-1)[: m - 1 + top // m]
    packed %= n
    b = (2 * top - 1).bit_length()
    packed <<= b
    packed |= _exponent_fields(m)[: packed.size]
    packed.sort()
    r = int((packed[1:] - packed[:-1]).min())
    return r if r < top else None


def _budget_spent(a: int, n: int, covered: int) -> OrderSearchBudgetExceeded:
    return OrderSearchBudgetExceeded(
        f"order of {a} mod {n} exceeds {covered}: the order search budget of "
        f"{MAX_BABY_STEPS} baby steps is spent"
    )


def multiplicative_order(a: int, n: int) -> int:
    """Least r >= 1 with a**r == 1 mod n, by baby-step giant-step.

    Arguments are coerced to ``int`` first, so numpy integers are accepted
    without overflowing.  Every phase has a table of m baby steps a**j and
    giant steps a**(i*m); a giant that equals a baby a**j gives
    a**(i*m - j) == 1, so a table of m entries covers the orders up to about
    m*m (Shanks' method with a growing table, after Terr, Math. Comp. 69,
    2000).  An order r costs about sqrt(r) steps.

    For moduli in [2**18, 2**32), b = a**(2**k) with 2**k >= n > r has the
    odd part of r as its order (that of a**c is r / gcd(r, c)).  Its phases
    are ``_order_below_square``, one sort of uint64 arrays each that finds
    every order below its top (m*m, at most 2**31), on tables of 512 entries,
    then 4 times as many up to 2**16.  a**(odd part) has the order r / (odd
    part), a power of 2: each squaring until 1 doubles the odd part.
    Other moduli walk Python integers: baby steps return j as soon as
    a**j == 1 (so a small order costs the plain linear walk) and store
    a**j -> j in a dict; a giant step to g = a**c that hits j gives
    r = c - j.  Baby values are distinct below the order, so each giant step
    covers (c - m, c] once and the first hit is the least r.  When the giant
    walk reaches m*m without a hit, m doubles (from 16) and both walks
    continue where they stopped.

    Either way the table is capped at MAX_BABY_STEPS entries, which covers
    every order below MAX_BABY_STEPS**2, or on the array path every odd part
    below the last phase's top; when a table of that size misses,
    OrderSearchBudgetExceeded is raised.
    """
    a, n = int(a), int(n)
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if gcd(a, n) != 1:
        raise ValueError(f"{a} and {n} are not coprime, no multiplicative order")
    if n == 1:
        return 1  # every residue is 1 mod 1
    a %= n
    if n in _ARRAY_MODULI:
        b = pow(a, 1 << n.bit_length(), n)  # order: that of a, every factor 2 removed
        # odd parts are below n / 2 < 2**31, which a table of 2**16 entries reaches
        m = min(_FIRST_ARRAY_TABLE, MAX_BABY_STEPS)
        while (r := 1 if b == 1 else _order_below_square(b, n, m)) is None:
            if m >= MAX_BABY_STEPS:
                raise _budget_spent(a, n, m * min(m, (1 << 31) // m) - 1)
            m = min(4 * m, 1 << 16, MAX_BABY_STEPS)
        g = pow(a, r, n)  # its order is the power of 2 that r lacks
        for _ in range(n.bit_length()):
            if g == 1:
                return r
            g, r = g * g % n, 2 * r
        raise AssertionError(f"unreachable: {a} mod {n} has no order {r} / 2**k")
    table = {1: 0}  # a**j -> j for every baby step so far
    acc = 1  # a**(len(table) - 1)
    g, covered = 1, 0  # g == a**covered; no order <= covered
    m = min(16, MAX_BABY_STEPS)
    while True:
        for j in range(len(table), m):
            acc = acc * a % n
            if acc == 1:
                return j
            table[acc] = j
        stride = acc * a % n  # a**m
        # covered < m*m: at least one step, up to the first covered >= m*m.
        for covered in range(covered + m, m * m + m, m):
            g = g * stride % n
            hit = table.get(g)
            if hit is not None:
                return covered - hit
        if m >= MAX_BABY_STEPS:
            raise _budget_spent(a, n, covered)
        m = min(2 * m, MAX_BABY_STEPS)


@dataclass(frozen=True)
class Convergent:
    """One best rational approximation p/q from a continued-fraction expansion."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("convergent denominator must be positive")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"convergent {self.p}/{self.q} is not in lowest terms")


def continued_fraction_convergents(num: int, den: int) -> list[Convergent]:
    """Convergents of num/den from the Euclid quotient sequence.

    For a proper fraction the list starts 0/1 and ends at num/den in lowest
    terms; denominators increase strictly after the leading 0/1.
    """
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    if not 0 <= num <= den:
        raise ValueError(f"need 0 <= num <= den, got {num}/{den}")
    convergents = []
    h_prev, h = 0, 1  # numerator seeds h_{-2}, h_{-1}
    k_prev, k = 1, 0  # denominator seeds k_{-2}, k_{-1}
    a, b = num, den
    while True:
        q = a // b
        h_prev, h = h, q * h + h_prev
        k_prev, k = k, q * k + k_prev
        convergents.append(Convergent(h, k))
        a, b = b, a - q * b
        if b == 0:
            break
    return convergents


@dataclass(frozen=True)
class PeriodCandidate:
    """A verified period r extracted from a measured fraction."""

    r: int
    convergent: Convergent


def _divisors_ascending(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _order_from_multiple(a: int, multiple: int, n: int) -> int:
    """The exact order of a mod n, given that a**multiple == 1 mod n."""
    for d in _divisors_ascending(multiple):
        if mod_pow(a, d, n) == 1:
            return d
    raise AssertionError("unreachable: multiple itself satisfies the test")


def recover_period(y: int, m: int, n: int, a: int) -> PeriodCandidate | None:
    """Extract the order of a mod n from a measurement y out of m = 2**bits.

    Scans the convergents of y/m with denominator q < n; for each, tests q and
    small multiples j*q (j <= 8, still < n) for a**(j*q) == 1 mod n.  The first
    hit is reduced to the exact order before being returned.  Denominator-1
    convergents carry no fractional information and are skipped, so y = 0
    never yields a candidate; absence of a candidate is a normal outcome.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if not 0 <= y < m:
        raise ValueError(f"measurement {y} out of range for m={m}")
    if gcd(a, n) != 1:
        raise ValueError(f"base {a} shares a factor with {n}")
    for conv in continued_fraction_convergents(y, m):
        q = conv.q
        if q < 2:
            continue
        if q >= n:
            break
        for j in range(1, 9):
            c = j * q
            if c >= n:
                break
            if mod_pow(a, c, n) == 1:
                return PeriodCandidate(_order_from_multiple(a, c, n), conv)
    return None


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for all inputs below 2**64 (four witnesses below 3215031751)."""
    if n >= U64_LIMIT:
        raise ValueError(f"{n} exceeds the 64-bit input cap")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES[:4] if n < _MR_FOUR_WITNESS_LIMIT else _MR_WITNESSES:
        v = mod_pow(w, d, n)
        if v == 1 or v == n - 1:
            continue
        for _ in range(s - 1):
            v = v * v % n
            if v == n - 1:
                break
        else:
            return False
    return True


def factor_from_period(a: int, r: int, n: int) -> tuple[int, int] | None:
    """Split n from a verified even period via gcd(a**(r/2) -+ 1, n).

    Returns None when r is odd or a**(r/2) is a trivial square root of 1;
    the caller retries with a fresh base.
    """
    if r < 1:
        raise ValueError(f"period must be positive, got {r}")
    if mod_pow(a, r, n) != 1:
        raise ValueError(f"unverified period: {a}**{r} mod {n} != 1")
    if r % 2 == 1:
        return None
    half = mod_pow(a, r // 2, n)
    if half == n - 1:
        return None
    f1 = gcd(half - 1, n)  # gcd(0, n) = n when half == 1, failing the range check
    f2 = gcd(half + 1, n)
    if 1 < f1 < n and 1 < f2 < n:
        return (min(f1, f2), max(f1, f2))
    return None
