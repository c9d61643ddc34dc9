"""Euclid, modular arithmetic, continued fractions, period recovery, primality."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shorsim import (
    OrderSearchBudgetExceeded,
    continued_fraction_convergents,
    extended_gcd,
    factor_from_period,
    gcd,
    is_probable_prime,
    mod_pow,
    multiplicative_order,
    recover_period,
)
from shorsim import numtheory
from shorsim.numtheory import U64_LIMIT

from conftest import traced_peak

# The eight classical benchmark moduli (11-bit x 12-bit primes, orders
# 600k-680k) and a 40-bit semiprime whose orders reach 1.7e11; moduli on
# both sides of 2**32, where the order search leaves its uint64 arrays (mod
# 2**33 - 9 about 40% of residue products pass 2**64, mod 2**32 + 15 almost
# none); and moduli where the order of 2 or 3 (named after each) is 1024, 4096
# or 65536, or m*m - 1, m*m, m*m + 1 for m = 1024 and m*m - 1, m*m for m = 4096.
# Of these, only 2 and 3 mod 2**32 - 5 (odd part 2147483645, past 2**30) reach
# the array table of 2**16 entries.
LARGE_ORDER_MODULI = (
    1193 * 4049, 1321 * 3067, 1459 * 2713, 1597 * 2539,
    1741 * 3671, 1753 * 2239, 1759 * 2137, 1901 * 3371,
    1000003 * 1000033,
    2**31 - 1, 2**32 - 5, 2**32 + 15, 2**33 - 9,
    2424833,  # order of 2: 2**10
    790529,  # order of 3: 2**12
    786433,  # order of 3: 2**16
    9901 * 2543,  # order of 3: 2**20 - 1
    13631489,  # order of 3: 2**20
    100663393,  # order of 2: 2**20 + 1
    71 * 1917397,  # order of 3: 2**24 - 1
    167772161,  # order of 2: 2**24
)

# (a, n, r): r is the order of a mod n, built as g**((n - 1) / r) for a prime
# n = 1 mod r.  Each r is a power of 2 from 2**10 to 2**28, or a neighbour of
# one; the array search finds these from their odd part alone.  The odd orders
# after them are m*m - 1 and m*m + 1 for the array tables m = 512, 2048, 8192,
# 32768, which the search runs on as they are.  No modulus below 2**32 has an
# order 2**28 + 1 = 17 * 15790321: no prime below 2**32 is 1 mod 2**28 + 1,
# and the least prime 1 mod 15790321, 442128989, times any factor that brings
# in 17 (103 at least) is past 2**32.  Nor has any an odd order 2**30 + 1: it
# would need lambda(n) >= 2**31 + 2, which below 2**32 only a prime n could
# give, and 2**31 + 3 = 83 * 1277 * 20261.  An odd order m*m - 1 or m*m + 1
# for m = 2**16 is past every n / 2.
BOUNDARY_ORDERS = (
    (513496, 525313, 2**10),
    (310570, 557057, 2**12),
    (446794, 557057, 2**14),
    (346395, 786433, 2**16),
    (2401, 4194301, 2**20 - 1),
    (2187, 7340033, 2**20),
    (256, 8388617, 2**20 + 1),
    (4826809, 100663291, 2**24 - 1),
    (59049, 167772161, 2**24),
    (67108802, 503316511, 2**24 + 1),
    (531441, 3221225461, 2**28 - 1),
    (244140625, 3221225473, 2**28),
    (16, 1048573, 2**18 - 1),
    (64, 1572871, 2**18 + 1),
    (625, 16777213, 2**22 - 1),
    (262144, 75497491, 2**22 + 1),
    (531441, 805306357, 2**26 - 1),
    (1073674744, 2818572331, 2**26 + 1),
    (49, 2**31 - 1, 2**30 - 1),
)

# (a, n, r): small orders in moduli near 2**31, where the sorted array table
# is mostly equal neighbours: -1 and a cube root of unity mod 2**31 - 1, and
# r = m - 1, m, m + 1 for m = 1024 and 4096; then orders of odd part 7 and 3
# times 2**20 and 2**30, each of whose factors 2 the search doubles back.
SMALL_ORDERS = (
    (2**31 - 2, 2**31 - 1, 2),
    (1513477735, 2**31 - 1, 3),
    (1301839473, 2147491831, 1023),
    (2050100896, 2147493889, 1024),
    (1132461845, 2147487751, 1025),
    (202951825, 2147524471, 4095),
    (2143697989, 2147565569, 4096),
    (1259856773, 2147557267, 4097),
    (3, 7340033, 7 * 2**20),
    (5, 3221225473, 3 * 2**30),
)


def brute_force_order(a, n):
    acc, r = a % n, 1
    while acc != 1 % n:
        acc = acc * a % n
        r += 1
    return r


def prime_factors(r):
    primes, p = [], 2
    while p * p <= r:
        if r % p == 0:
            primes.append(p)
            while r % p == 0:
                r //= p
        p += 1
    return primes + [r] if r > 1 else primes


def assert_certified_order(a, n, r):
    """r is the order of a mod n: a**r == 1, and a**(r/p) != 1 for each prime p | r."""
    assert pow(a, r, n) == 1
    for p in prime_factors(r):
        assert pow(a, r // p, n) != 1, f"order of {a} mod {n} divides {r // p}"


def naive_mod_pow(a, e, m):
    acc = 1 % m
    for _ in range(e):
        acc = acc * a % m
    return acc


class TestGcd:
    def test_basic(self):
        assert gcd(12, 18) == 6

    def test_coprime(self):
        assert gcd(7, 15) == 1

    def test_divisor_of_worked_instance(self):
        assert gcd(12827, 101) == 101

    def test_zero_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd(0, 0)


class TestExtendedGcd:
    def test_inverse_of_3_mod_7(self):
        g, m_inv, k = extended_gcd(3, 7)
        assert g == 1
        assert m_inv % 7 == 5
        # exhaustive cross-check
        assert [v for v in range(7) if v * 3 % 7 == 1] == [5]

    def test_no_inverse_flagged_by_gcd(self):
        g, _, _ = extended_gcd(2, 4)
        assert g == 2

    def test_bezout_identity_and_inverses(self, rng):
        checked = 0
        while checked < 1000:
            m = int(rng.integers(1, 10_000))
            n = int(rng.integers(1, 10_000))
            g, m_inv, k = extended_gcd(m, n)
            assert m_inv * m == k * n + g
            if g == 1:
                assert (m_inv * m) % n == 1 % n
                checked += 1


class TestModPow:
    def test_hand_computable_instance(self):
        assert mod_pow(8, 65, 37) == 23
        assert naive_mod_pow(8, 65, 37) == 23

    def test_zero_exponent(self):
        assert mod_pow(5, 0, 9) == 1
        assert mod_pow(123456, 0, 2) == 1

    def test_matches_naive_on_small_grid(self):
        for m in range(1, 41):
            for a in range(0, 41):
                acc = 1 % m
                for e in range(0, 41):
                    assert mod_pow(a, e, m) == acc
                    acc = acc * a % m

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            mod_pow(2, 3, 0)

    def test_large_operands(self):
        a, e, m = 2**61 - 1, 2**31, 2**61 + 15
        assert mod_pow(a, e, m) == pow(a, e, m)

    def test_numpy_integer_arguments(self):
        # built-in three-argument pow raises TypeError on numpy integers
        got = mod_pow(np.int64(7), np.int64(40), np.int64(4087))
        assert type(got) is int
        assert got == naive_mod_pow(7, 40, 4087)


class TestMultiplicativeOrder:
    def test_order_of_2_mod_15(self):
        assert multiplicative_order(2, 15) == 4

    def test_order_of_one(self):
        for n in (2, 9, 100):
            assert multiplicative_order(1, n) == 1

    def test_order_divides_group_order(self):
        r = multiplicative_order(7, 15)
        assert r == 4
        assert (3 - 1) * (5 - 1) % r == 0

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            multiplicative_order(6, 15)

    def test_modulus_one(self):
        for a in (0, 1, 5, -3):
            assert multiplicative_order(a, 1) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3000).flatmap(lambda n: st.tuples(st.integers(-n, 2 * n), st.just(n))))
    def test_matches_brute_force(self, an):
        a, n = an
        assume(math.gcd(a, n) == 1)
        assert multiplicative_order(a, n) == brute_force_order(a, n)

    @pytest.mark.parametrize("n", LARGE_ORDER_MODULI)
    def test_large_orders_are_certified(self, n):
        for a in (2, 3):
            assert_certified_order(a, n, multiplicative_order(a, n))

    @pytest.mark.parametrize("a, n, r", BOUNDARY_ORDERS)
    def test_orders_on_table_boundaries(self, a, n, r):
        assert_certified_order(a, n, r)
        assert multiplicative_order(a, n) == r

    @pytest.mark.parametrize("a, n, r", SMALL_ORDERS)
    def test_small_orders_in_large_moduli(self, a, n, r):
        assert_certified_order(a, n, r)
        assert multiplicative_order(a, n) == r

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1 << 12, (1 << 32) - 1), st.integers(2, (1 << 32) - 1))
    def test_orders_below_2_to_32_are_certified(self, n, a):
        assume(math.gcd(a, n) == 1)
        assert_certified_order(a, n, multiplicative_order(a, n))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_numpy_integer_arguments(self, dtype):
        # a * a overflows 64 bits: the search must run on Python integers
        assert multiplicative_order(dtype(167887065652), dtype(1099511640001)) == 1000

    def test_array_search_peak_under_4_mib(self):
        multiplicative_order(7, 2**31 - 1)  # warm-up
        with traced_peak() as peak:
            assert multiplicative_order(7, 2**31 - 1) == 2**31 - 2
        assert peak.bytes < 4 << 20, f"{peak.bytes / 2**20:.2f} MiB"

    def test_budget_bounds_the_order_search(self, monkeypatch):
        # a table of 64 entries reaches every order up to 64**2 = 4096
        monkeypatch.setattr(numtheory, "MAX_BABY_STEPS", 64)
        assert multiplicative_order(2, 4093) == 4092
        assert multiplicative_order(2, 15) == 4
        with pytest.raises(OrderSearchBudgetExceeded, match="budget of 64 baby steps"):
            multiplicative_order(2, 4099)  # order 4098

    def test_budget_need_not_be_a_power_of_two(self, monkeypatch):
        # the tables grow 16, 32, 48, and the last one covers every order up to 48**2
        monkeypatch.setattr(numtheory, "MAX_BABY_STEPS", 48)
        assert_certified_order(9, 4001, 2000)
        assert multiplicative_order(9, 4001) == 2000
        with pytest.raises(OrderSearchBudgetExceeded, match="budget of 48 baby steps"):
            multiplicative_order(2, 4099)  # order 4098 > 48**2


class TestConvergents:
    def test_9_over_64(self):
        assert [(c.p, c.q) for c in continued_fraction_convergents(9, 64)] == [
            (0, 1), (1, 7), (9, 64),
        ]

    def test_55_over_64(self):
        assert [(c.p, c.q) for c in continued_fraction_convergents(55, 64)] == [
            (0, 1), (1, 1), (6, 7), (55, 64),
        ]

    def test_one_half(self):
        assert [(c.p, c.q) for c in continued_fraction_convergents(1, 2)] == [
            (0, 1), (1, 2),
        ]

    def test_zero_numerator(self):
        assert [(c.p, c.q) for c in continued_fraction_convergents(0, 9)] == [(0, 1)]

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            continued_fraction_convergents(1, 0)

    def test_lowest_terms_and_increasing_denominators(self, rng):
        for _ in range(200):
            den = int(rng.integers(2, 5000))
            num = int(rng.integers(0, den + 1))
            seq = continued_fraction_convergents(num, den)
            assert (seq[-1].p, seq[-1].q) == (num // gcd(num, den) if num else 0,
                                              den // gcd(num, den) if num else 1)
            for c in seq:
                assert gcd(c.p, c.q) == 1 if c.p else c.q == 1
            denominators = [c.q for c in seq[1:]]
            assert all(b > a for a, b in zip(denominators, denominators[1:]))

    def test_best_approximation_bound(self, rng):
        for _ in range(200):
            den = int(rng.integers(2, 5000))
            num = int(rng.integers(1, den))
            for c in continued_fraction_convergents(num, den):
                assert abs(num / den - c.p / c.q) < 1 / c.q**2


class TestRecoverPeriod:
    def test_recovers_order_4_from_192_of_256(self):
        cand = recover_period(192, 256, 15, 2)
        assert cand is not None and cand.verified
        assert cand.r == 4
        assert (cand.convergent.p, cand.convergent.q) == (3, 4)

    def test_zero_measurement_gives_none(self):
        assert recover_period(0, 256, 15, 2) is None

    def test_denominator_7_from_55_of_64(self):
        # 2 has order 7 modulo 127; convergent 6/7 of 55/64 supplies it
        cand = recover_period(55, 64, 127, 2)
        assert cand is not None and cand.r == 7
        assert (cand.convergent.p, cand.convergent.q) == (6, 7)

    def test_completeness_for_small_periods(self):
        # any y = round(k*m/r) with k coprime to r and m >= r*r recovers exactly r
        instances = {4: (15, 2), 6: (9, 2), 10: (11, 2), 12: (13, 2), 18: (19, 2)}
        for r, (n, a) in instances.items():
            assert multiplicative_order(a, n) == r
            m = 1
            while m < r * r:
                m <<= 1
            for k in range(1, r):
                if gcd(k, r) != 1:
                    continue
                y = (2 * k * m + r) // (2 * r)
                cand = recover_period(y, m, n, a)
                assert cand is not None and cand.r == r

    def test_non_coprime_base_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            recover_period(5, 16, 15, 6)


class TestPrimality:
    def test_worked_instance_factors_are_prime(self):
        assert is_probable_prime(101)
        assert is_probable_prime(127)
        assert not is_probable_prime(12827)

    def test_edge_definitions(self):
        assert is_probable_prime(2)
        assert not is_probable_prime(1)
        assert not is_probable_prime(0)

    def test_matches_trial_division_below_2_to_17(self):
        n = np.arange(1 << 17)
        prime = n >= 2
        for d in range(2, math.isqrt(n.size - 1) + 1):
            prime &= (n % d != 0) | (n == d)
        assert [is_probable_prime(int(k)) for k in n] == prime.tolist()

    @pytest.mark.parametrize("n, bases", [
        (2047, (2,)),
        (1373653, (2, 3)),
        (25326001, (2, 3, 5)),
        # the least strong pseudoprime to 2, 3, 5 and 7: only the twelve-witness test refutes it
        (3215031751, (2, 3, 5, 7)),
    ])
    def test_least_strong_pseudoprimes_are_composite(self, n, bases):
        def passes_strong_test(w):
            d, s = n - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            v = pow(w, d, n)
            return v in (1, n - 1) or any(pow(v, 1 << j, n) == n - 1 for j in range(1, s))

        assert all(passes_strong_test(w) for w in bases)
        assert not is_probable_prime(n)

    def test_large_64_bit_inputs(self):
        assert is_probable_prime(2**61 - 1)          # Mersenne prime
        assert not is_probable_prime(2**64 - 1)      # 3 * 5 * 17 * ...
        assert is_probable_prime(18_446_744_073_709_551_557)  # largest prime < 2**64

    def test_input_cap(self):
        with pytest.raises(ValueError, match="64-bit"):
            is_probable_prime(U64_LIMIT)


class TestFactorFromPeriod:
    def test_base_7(self):
        assert factor_from_period(7, 4, 15) == (3, 5)

    def test_base_2(self):
        assert factor_from_period(2, 4, 15) == (3, 5)

    def test_odd_period_gives_none(self):
        # 4 has order 3 modulo 9... use a real odd-order instance: 2 mod 7
        assert multiplicative_order(2, 7) == 3
        assert factor_from_period(2, 3, 7) is None

    def test_trivial_root_gives_none(self):
        # 14 = -1 mod 15 has order 2 and 14^1 = -1: trivial square root
        assert factor_from_period(14, 2, 15) is None

    def test_unverified_period_rejected(self):
        with pytest.raises(ValueError, match="unverified"):
            factor_from_period(2, 3, 15)


class TestAlgebraicProperties:
    def test_euler_identity_sample(self):
        for p, q in [(3, 5), (3, 7), (5, 7), (11, 13), (17, 19)]:
            n = p * q
            phi = (p - 1) * (q - 1)
            for a in range(1, n):
                if gcd(a, n) == 1:
                    assert mod_pow(a, phi, n) == 1

    def test_period_characterization(self):
        # f(x) = f(y) iff r | (x - y), exhaustively for x, y < 3r
        for n in range(3, 101):
            for a in range(2, n):
                if gcd(a, n) != 1:
                    continue
                r = multiplicative_order(a, n)
                values = [mod_pow(a, xv, n) for xv in range(3 * r)]
                assert len(set(values[:r])) == r       # injective within a period
                assert values == values[:r] * 3        # exactly r-periodic
