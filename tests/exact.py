"""Shor's closed-form distribution of the measured input register (quant-ph/9508027).

After the oracle, the input register holds the r classes {x0 + k*r < M} of the
order r of a mod N, with M = 2**in_w.  ``e = M mod r`` classes have q + 1
points and the other r - e have q, where q = M div r.  A class of K points
contributes the Fejer kernel F_K(y) = sin**2(pi*K*r*y/M) / sin**2(pi*r*y/M),
or K**2 where r*y == 0 mod M, so

    P(y) = (e*F_{q+1}(y) + (r - e)*F_q(y)) / M**2.

Nothing here shares code with shorsim: the order comes from a naive loop, and
every product r*y is reduced mod M in Python integers before an angle is
formed, so the formula holds at any width.
"""

import math

import numpy as np


def naive_order(a: int, n: int) -> int:
    """Least r >= 1 with a**r == 1 mod n, one multiplication per step."""
    x, r = a % n, 1
    while x != 1:
        x, r = x * a % n, r + 1
    return r


def _fejer(k: int, ry: int, m: int) -> float:
    """F_k at r*y == ry mod m."""
    if ry == 0:
        return float(k * k)
    return (math.sin(math.pi * (k * ry % m) / m) / math.sin(math.pi * ry / m)) ** 2


def p_y(y: int, r: int, m: int) -> float:
    """P(y) for an order r measured on an input register of m = 2**in_w values."""
    q, e = divmod(m, r)
    ry = r * y % m
    return (e * _fejer(q + 1, ry, m) + (r - e) * _fejer(q, ry, m)) / (m * m)


def y_distribution(n_to_factor: int, a: int, in_w: int) -> np.ndarray:
    """P(y) for every y of an ``in_w``-qubit input register, base ``a`` mod ``n_to_factor``."""
    r, m = naive_order(a, n_to_factor), 1 << in_w
    return np.array([p_y(y, r, m) for y in range(m)])
