"""Exact integer arithmetic for the oracle and the classical post-processing.

Everything here runs on plain Python integers.  Inputs are capped at 64 bits
where correctness depends on it (the fixed Miller-Rabin witness set is only
proven deterministic below 2**64); intermediates never overflow because
Python integers are unbounded.
"""

from dataclasses import dataclass

U64_LIMIT = 1 << 64

# Deterministic Miller-Rabin witnesses for every n < 3.3e24 (covers all u64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor by Euclid's algorithm."""
    a, b = abs(int(a)), abs(int(b))
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, a % b
    return a


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
    """a**e mod m by square-and-multiply, reducing after every step."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if e < 0:
        raise ValueError(f"exponent must be non-negative, got {e}")
    result = 1 % m
    base = a % m
    while e:
        if e & 1:
            result = result * base % m
        base = base * base % m
        e >>= 1
    return result


def multiplicative_order(a: int, n: int) -> int:
    """Least r >= 1 with a**r == 1 mod n, by direct iteration."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if gcd(a, n) != 1:
        raise ValueError(f"{a} and {n} are not coprime, no multiplicative order")
    acc = a % n
    r = 1
    while acc != 1:
        acc = acc * a % n
        r += 1
    return r


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
