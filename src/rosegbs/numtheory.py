"""Exact integer kernel: valuations, Bezout data, Diophantine solving, unit orders.

Everything here is arbitrary-precision and deterministic.  The binomial
valuation is computed two independent ways (base-p carries vs. factorial
valuations) so each can serve as an oracle for the other.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence


class ValuationSplit(NamedTuple):
    """x = p**valuation * unit_part with p not dividing unit_part."""

    valuation: int
    unit_part: int


#: A solution vector for sum(coeffs[j] * values[j]) == target.
DiophantineSolution = tuple


#: Largest p the package accepts.  is_prime is trial division, about 23,000
#: steps at 2**31; at 2**61 - 1 one call would take minutes.
MAX_PRIME = 2**31


def _trial_division(n: int):
    """The distinct prime factors of n in increasing order (none for n < 2),
    yielded one at a time by trial division by 2 and the odd numbers.  The
    one trial-division loop of the package: a caller that needs only the
    least prime factor stops after the first."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        yield n


@functools.lru_cache(maxsize=64)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n in increasing order, () below 2;
    cached, since every holomorph level asks again about p (the prime gate)
    and p - 1 (multiplicative_order)."""
    return tuple(_trial_division(n))


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division, which stops at the least
    prime factor (exact for every n; fast only up to MAX_PRIME or for an n
    with a small factor)."""
    return next(_trial_division(n), None) == n


def require_prime(p: int) -> None:
    """The one prime gate: ValueError unless p is a prime at most MAX_PRIME.
    The bound is tested before any trial division, so no p takes long, and p
    is factored through the cache, so asking again costs nothing."""
    if p > MAX_PRIME:
        raise ValueError(f"p must be at most 2^31, got {p}")
    if _prime_factors(p) != (p,):
        raise ValueError(f"{p} is not prime")


def p_valuation(x: int, p: int) -> ValuationSplit:
    """Split x as p**v * u with p coprime to u; u keeps the sign of x."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    require_prime(p)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return ValuationSplit(v, x)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) > 0 and a*x + b*y = g."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def inverse_mod(a: int, m: int) -> int:
    """Inverse of a modulo m (m >= 1); raises if gcd(a, m) != 1."""
    g, x, _ = ext_gcd(a, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {m}")
    return x % m


def _digits(n: int, p: int) -> list[int]:
    ds = []
    while n:
        n, d = divmod(n, p)
        ds.append(d)
    return ds


def kummer_valuation(n: int, k: int, p: int) -> int:
    """nu_p of binomial(n, k): the number of carries adding k to n-k in base p."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    require_prime(p)
    a, b = _digits(k, p), _digits(n - k, p)
    carries = 0
    carry = 0
    for i in range(max(len(a), len(b))):
        s = (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) + carry
        carry = 1 if s >= p else 0
        carries += carry
    return carries


def _factorial_valuation(n: int, p: int) -> int:
    # Legendre: nu_p(n!) = sum_{i>=1} floor(n / p**i)
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def legendre_valuation(n: int, k: int, p: int) -> int:
    """nu_p of binomial(n, k) via factorial valuations; oracle for kummer_valuation."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    require_prime(p)
    return (
        _factorial_valuation(n, p)
        - _factorial_valuation(k, p)
        - _factorial_valuation(n - k, p)
    )


def _bezout_vector(coeffs: Sequence[int]) -> tuple[int, list[int]]:
    """(g, r) with g = gcd(coeffs) >= 0 and sum(r[i] * coeffs[i]) = g."""
    g = 0
    mults: list[int] = []
    for a in coeffs:
        if g == 0 and a == 0:
            mults.append(0)
            continue
        g2, x, y = ext_gcd(g, a)
        mults = [m * x for m in mults]
        mults.append(y)
        g = g2
    return g, mults


def solve_diophantine(
    coeffs: Sequence[int], target: int
) -> Optional[DiophantineSolution]:
    """One solution of sum(coeffs[j] * x[j]) = target, or None if none exists.

    Uses the classical reduction: collapse the first n-1 coefficients to their
    gcd g via Bezout multipliers r_i, solve g*y + coeffs[-1]*x_n = target in
    two variables, then back-substitute x_i = r_i * y.  A solution exists iff
    gcd(coeffs) divides target.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("empty coefficient list")
    if all(a == 0 for a in coeffs):
        raise ValueError("all coefficients are zero")
    if len(coeffs) == 1:
        a = coeffs[0]
        return (target // a,) if target % a == 0 else None
    g, mults = _bezout_vector(coeffs[:-1])
    a_n = coeffs[-1]
    if g == 0:
        # first n-1 coefficients all zero; only the last variable matters
        if target % a_n != 0:
            return None
        return tuple([0] * (len(coeffs) - 1) + [target // a_n])
    g2, alpha, beta = ext_gcd(g, a_n)
    if target % g2 != 0:
        return None
    scale = target // g2
    y = alpha * scale
    x_n = beta * scale
    return tuple([r * y for r in mults] + [x_n])


def multiplicative_order(c: int, p: int, s: int) -> int:
    """Least e >= 1 with c**e == 1 mod p**s (c must be a unit mod p**s).

    Closed form by the lifting-the-exponent lemma.  Let b = 1 for odd p and
    b = 2 for p = 2, each capped at s, and let d be the order of c mod p^b.
    The order mod p^s is a multiple of d, and x = c^d lies in 1 + p^b Z.
    There LTE gives v_p(x^p - 1) = v_p(x - 1) + 1 (for p = 2 this needs
    x = 1 mod 4, hence b = 2), so with v = v_p(c^d - 1) >= b, x has order
    p^(s - min(v, s)) mod p^s, and c has order d p^(s - min(v, s)).  d comes
    from peeling the prime factors off phi(p^b) = p^(b-1) (p - 1); v from
    one power mod p^s and one valuation.
    """
    require_prime(p)
    if s < 1:
        raise ValueError("need s >= 1")
    if c % p == 0:
        raise ValueError(f"{c} is not a unit mod {p}^{s}")
    b = min(s, 1 if p % 2 else 2)
    d = p ** (b - 1) * (p - 1)
    for q in [p, *_prime_factors(p - 1)]:
        while d % q == 0 and pow(c, d // q, p**b) == 1:
            d //= q
    x = pow(c, d, p**s) - 1
    if x == 0:  # v >= s
        return d
    return d * p ** (s - p_valuation(x, p).valuation)


def is_p_power(x: int, p: int) -> bool:
    """True iff x == p**j for some j >= 0, p prime.

    With N the bit length of x >= 1, p^N >= 2^N > x, so x = p^j forces
    j < N and x divides p^N; conversely a divisor of p^N has no prime
    factor but p.  So one modular power decides it, with no division loop.
    """
    return x >= 1 and pow(p, x.bit_length(), x) == 0
