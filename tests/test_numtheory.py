import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rosegbs.numtheory import (
    ext_gcd,
    inverse_mod,
    is_p_power,
    is_prime,
    kummer_valuation,
    legendre_valuation,
    multiplicative_order,
    p_valuation,
    solve_diophantine,
)

PRIMES = [2, 3, 5, 7]


def direct_valuation(x: int, p: int) -> int:
    """Independent oracle: strip factors of p by division."""
    assert x != 0
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_p_valuation_examples():
    assert p_valuation(12, 2) == (2, 3)
    assert p_valuation(-5, 5) == (1, -1)
    assert p_valuation(7, 3) == (0, 7)


def test_p_valuation_errors():
    with pytest.raises(ValueError):
        p_valuation(0, 2)
    with pytest.raises(ValueError):
        p_valuation(12, 4)


@given(st.integers(min_value=-(10**9), max_value=10**9).filter(lambda x: x != 0),
       st.sampled_from(PRIMES))
def test_p_valuation_reconstructs(x, p):
    v, u = p_valuation(x, p)
    assert x == p**v * u
    assert u % p != 0
    assert (u > 0) == (x > 0)


def test_ext_gcd_examples():
    g, x, y = ext_gcd(5, 8)
    assert g == 1 and 5 * x + 8 * y == 1
    assert ext_gcd(4, 6)[0] == 2
    assert ext_gcd(0, -7) == (7, 0, -1)
    with pytest.raises(ValueError):
        ext_gcd(0, 0)


@given(st.integers(min_value=-(10**12), max_value=10**12),
       st.integers(min_value=-(10**12), max_value=10**12))
def test_ext_gcd_bezout(a, b):
    if a == 0 and b == 0:
        return
    g, x, y = ext_gcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_ext_gcd_seeded_bulk():
    rng = random.Random(404)
    for _ in range(10**4):
        a = rng.randint(-(10**9), 10**9)
        b = rng.randint(-(10**9), 10**9)
        if a == 0 and b == 0:
            continue
        g, x, y = ext_gcd(a, b)
        assert g == math.gcd(a, b) and a * x + b * y == g


def test_kummer_examples():
    assert kummer_valuation(4, 2, 2) == 1  # C(4,2) = 6
    for p in PRIMES:
        assert kummer_valuation(p, 1, p) == 1  # C(p,1) = p
    assert kummer_valuation(17, 0, 3) == 0
    with pytest.raises(ValueError):
        kummer_valuation(4, 5, 2)


def test_legendre_examples():
    assert legendre_valuation(4, 2, 2) == 1
    assert legendre_valuation(5, 2, 2) == 1  # C(5,2) = 10
    assert legendre_valuation(9, 3, 3) == 1  # C(9,3) = 84


@given(st.integers(min_value=0, max_value=120), st.data(), st.sampled_from(PRIMES))
def test_binomial_valuations_agree(n, data, p):
    k = data.draw(st.integers(min_value=0, max_value=n))
    expected = direct_valuation(math.comb(n, k), p) if math.comb(n, k) > 1 else 0
    assert kummer_valuation(n, k, p) == expected
    assert legendre_valuation(n, k, p) == expected


def test_solve_diophantine_examples():
    sol = solve_diophantine([4, 6, 9], 1)
    assert sol is not None and 4 * sol[0] + 6 * sol[1] + 9 * sol[2] == 1
    assert solve_diophantine([2, 4], 3) is None
    assert solve_diophantine([7], 7) == (1,)
    assert solve_diophantine([7], 8) is None
    assert solve_diophantine([0, 0, 5], 10) == (0, 0, 2)


def test_solve_diophantine_errors():
    with pytest.raises(ValueError):
        solve_diophantine([], 1)
    with pytest.raises(ValueError):
        solve_diophantine([0, 0], 1)


@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=6),
       st.integers(min_value=-(10**4), max_value=10**4))
def test_solve_diophantine_exact(coeffs, target):
    if all(c == 0 for c in coeffs):
        return
    sol = solve_diophantine(coeffs, target)
    g = math.gcd(*(abs(c) for c in coeffs))
    if target % g == 0:
        assert sol is not None
        assert sum(c * x for c, x in zip(coeffs, sol)) == target
    else:
        assert sol is None


def brute_order(c: int, modulus: int) -> int:
    acc, e = c % modulus, 1
    while acc != 1:
        acc = acc * c % modulus
        e += 1
    return e


def test_multiplicative_order_examples():
    assert multiplicative_order(1, 7, 3) == 1
    assert multiplicative_order(3, 2, 3) == 2  # 3^2 = 9 = 1 mod 8
    assert multiplicative_order(2, 3, 2) == 6
    assert not is_p_power(6, 3)
    with pytest.raises(ValueError):
        multiplicative_order(6, 3, 2)


@given(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=500))
def test_multiplicative_order_brute(p, s, c):
    if c % p == 0:
        return
    assert multiplicative_order(c, p, s) == brute_order(c, p**s)


def test_unit_order_lemma_seeded():
    """Units m_hat/n_hat with p | (m_hat - n_hat) have p-power order mod p^s."""
    rng = random.Random(501)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        s = rng.randint(1, 8)
        n_hat = rng.choice([x for x in range(-300, 301) if x and x % p])
        m_hat = n_hat + p * rng.randint(-100, 100)
        if m_hat == 0 or m_hat % p == 0:
            continue
        c = m_hat * inverse_mod(n_hat, p**s) % p**s
        assert is_p_power(multiplicative_order(c, p, s), p)


def test_is_p_power():
    assert is_p_power(1, 3)
    assert is_p_power(8, 2)
    assert not is_p_power(12, 2)
    assert not is_p_power(0, 2)


def test_is_prime():
    assert [n for n in range(60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
