"""Exact integer arithmetic for the oracle and the classical post-processing.

Everything here runs on plain Python integers, except the order search's
uint64 arrays below.  Inputs are capped at 64 bits where correctness depends
on it (the fixed Miller-Rabin witness set is only proven deterministic below
2**64); intermediates never overflow because Python integers are unbounded.

The classical order search (``multiplicative_order``) is baby-step
giant-step with a growing table, about sqrt(r) steps for an order r, under a
stated work budget: MAX_BABY_STEPS table entries, which reach every order up
to 2**40.  Past it, the search raises OrderSearchBudgetExceeded instead of
running on.  For moduli from 2**19 up to 2**32 each phase is a few numpy
calls on uint64 arrays, where a product of two residues cannot overflow;
other moduli take one Python step per table entry.
"""

import math
from dataclasses import dataclass

import numpy as np

U64_LIMIT = 1 << 64

# Deterministic Miller-Rabin witnesses for every n < 3.3e24 (covers all u64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Work budget of multiplicative_order: at most this many baby-step table
# entries, enough for every order up to 2**40.  Only a modulus of 2**32 or
# more can reach it (every smaller one has its orders below 2**32, within a
# table of 2**16 entries); its dict then holds about 110 MiB (a 108 MiB
# tracemalloc peak for 3 mod 2**61 - 1, whose search spends the budget in
# about 1.5 s).
MAX_BABY_STEPS = 1 << 20

# The array phases run for moduli in [2**19, 2**32).  Below, the Python steps
# are faster: on random moduli and on semiprimes of 2**17-2**18 a search took
# 33-46 us against 65-70 us for one array phase, and the two tie just below
# 2**19.  From 2**32 on, a product of two residues can overflow uint64.
_ARRAY_MODULI = range(1 << 19, 1 << 32)

# First array table: one phase of 1024 entries reaches every order up to
# 2**20.  Starting at 256 took 1.6x the time on the classical benchmark's
# moduli (orders 600k-680k), which then need a second phase.
_FIRST_ARRAY_TABLE = 1 << 10


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


def _powers(base: int, first: int, count: int, n: int) -> np.ndarray:
    """first * base**k for k < count, each a uint64 product of two residues mod n.

    The outer product of two Python power lists of about sqrt(count) entries
    each; the caller reduces it mod n.
    """
    w = math.isqrt(count - 1) + 1
    low = [1]
    for _ in range(w - 1):
        low.append(low[-1] * base % n)
    step = low[-1] * base % n  # base**w
    high = [first]
    for _ in range((count - 1) // w):
        high.append(high[-1] * step % n)
    return np.multiply.outer(np.array(high, np.uint64), np.array(low, np.uint64)).ravel()[:count]


def _order_up_to_square(a: int, n: int, m: int) -> int | None:
    """The order of a mod n if it is at most m*m, else None (n < 2**32).

    One baby-step giant-step phase on uint64 arrays: baby steps a**j for
    j < m and giant steps a**((i+1)*m) for i < m, each packed as
    ``value << b | index`` with giant indices offset by m, and sorted once.
    Among equal values the babies sort first, so an adjacent (baby j, giant
    i) pair gives a**((i+1)*m - j) == 1 with j the largest such baby, and
    the least such i gives the least exponent.  That is the order: every
    smaller positive exponent lies in an earlier giant's window.
    """
    stride = pow(a, m, n)
    packed = np.concatenate((_powers(a, 1, m, n), _powers(stride, stride, m, n)))
    packed %= n
    b = (2 * m - 1).bit_length()
    packed <<= b
    packed |= np.arange(2 * m, dtype=np.uint64)
    packed.sort()
    same = np.flatnonzero((packed[1:] ^ packed[:-1]) < (1 << b))  # equal values
    mask = (1 << b) - 1
    left = packed[same] & mask
    right = packed[same + 1] & mask  # giant i has index m + i
    hit = (left < m) & (right >= m)
    if not hit.any():
        return None
    k = np.argmin(np.where(hit, right, 2 * m))
    return (int(right[k]) - m + 1) * m - int(left[k])


def _budget_spent(a: int, n: int, covered: int) -> OrderSearchBudgetExceeded:
    return OrderSearchBudgetExceeded(
        f"order of {a} mod {n} exceeds {covered}: the order search budget of "
        f"{MAX_BABY_STEPS} baby steps is spent"
    )


def multiplicative_order(a: int, n: int) -> int:
    """Least r >= 1 with a**r == 1 mod n, by baby-step giant-step.

    Arguments are coerced to ``int`` first, so numpy integers are accepted
    without overflowing.  Every phase has a table of m baby steps a**j,
    j < m, and giant steps g = a**(i*m); a giant that equals a baby a**j
    gives a**(i*m - j) == 1, so a table of m entries covers every order up
    to m*m (Shanks' method with a growing table, after Terr, Math. Comp.
    69, 2000).  An order r costs about sqrt(r) steps.

    For moduli in [2**19, 2**32), each phase is ``_order_up_to_square`` on
    uint64 arrays, with tables of 1024 entries and then 4 times as many
    (each phase redoes its table, so the tables grow fast).  Other moduli
    walk Python integers: baby steps return j as soon as a**j == 1 (so a
    small order costs the plain linear walk) and store a**j -> j in a dict;
    giant steps look g up, and a hit at j gives r = i*m - j.  Baby values
    are distinct below the order, so step i covers ((i-1)*m, i*m] once and
    the first hit is the least r.  When the giant walk passes m*m without a
    hit, m doubles (from 16) and both walks continue where they stopped.

    Either way the table is capped at MAX_BABY_STEPS entries, which covers
    every order up to MAX_BABY_STEPS**2; a larger order raises
    OrderSearchBudgetExceeded.
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
        m = min(_FIRST_ARRAY_TABLE, MAX_BABY_STEPS)
        while (r := _order_up_to_square(a, n, m)) is None:
            if m >= MAX_BABY_STEPS:
                raise _budget_spent(a, n, m * m)
            m = min(4 * m, MAX_BABY_STEPS)
        return r
    table = {1: 0}  # a**j -> j for every baby step so far
    acc = 1  # a**(len(table) - 1)
    g, covered = 1, 0  # g == a**covered; no order <= covered
    m = 16
    while True:
        for j in range(len(table), m):
            acc = acc * a % n
            if acc == 1:
                return j
            table[acc] = j
        stride = acc * a % n  # a**m
        # covered is a multiple of m below m*m, so this walk takes at least one step.
        for covered in range(covered + m, m * m + 1, m):
            g = g * stride % n
            hit = table.get(g)
            if hit is not None:
                return covered - hit
        m *= 2
        if m > MAX_BABY_STEPS:
            raise _budget_spent(a, n, covered)


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

    def value(self) -> float:
        return self.p / self.q


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
    verified: bool


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
                return PeriodCandidate(_order_from_multiple(a, c, n), conv, True)
    return None


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for all inputs below 2**64."""
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
    for w in _MR_WITNESSES:
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
