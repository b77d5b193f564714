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
    MAX_PRIME,
    multiplicative_order,
    p_valuation,
    require_prime,
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


def brute_order(c: int, p: int, s: int) -> int:
    """The least divisor e of phi(p^s) = p^(s-1) (p - 1) with c^e = 1 mod
    p^s, trying every divisor in turn (the order divides the group order)."""
    divisors = (f * p**k for f in range(1, p) if (p - 1) % f == 0 for k in range(s))
    return next(e for e in sorted(divisors) if pow(c, e, p**s) == 1)


def test_multiplicative_order_examples():
    assert multiplicative_order(1, 7, 3) == 1
    assert multiplicative_order(3, 2, 3) == 2  # 3^2 = 9 = 1 mod 8
    assert multiplicative_order(2, 3, 2) == 6
    assert not is_p_power(6, 3)
    with pytest.raises(ValueError):
        multiplicative_order(6, 3, 2)


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(min_value=1, max_value=8),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=10**4))
def test_multiplicative_order_brute(p, s, k, c):
    # negative units and units past p^s: c + k p^s has c's order
    if c % p == 0:
        return
    assert multiplicative_order(c + k * p**s, p, s) == brute_order(c, p, s)
    assert multiplicative_order(-c, p, s) == brute_order(-c, p, s)


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


def p_power_by_division(x: int, p: int) -> bool:
    if x < 1:
        return False
    while x % p == 0:
        x //= p
    return x == 1


def test_is_p_power():
    assert is_p_power(1, 3)
    assert is_p_power(8, 2)
    assert not is_p_power(12, 2)
    assert not is_p_power(0, 2)
    for p in (2, 3, 5, 7, 101):
        for x in range(-5, 5001):
            assert is_p_power(x, p) == p_power_by_division(x, p), (x, p)
        for k in (*range(12), 97, 500, 1000):
            for m in (1, 2, 3, p - 1, p + 1, 2 * p + 1, 1 + p**3):
                x = p**k * m
                assert is_p_power(x, p) == p_power_by_division(x, p), (k, m, p)


def prime_by_odd_steps(n: int) -> bool:
    """Independent oracle: trial division by 2, then by the odd numbers."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_prime():
    assert [n for n in range(60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
    near_2_31 = [n for n in range(2**31 - 100, 2**31 + 12) if prime_by_odd_steps(n)]
    assert near_2_31[-2:] == [2**31 - 1, 2**31 + 11]
    for n in [*range(-5, 5001), *near_2_31]:
        assert is_prime(n) == prime_by_odd_steps(n), n


def test_holomorph_levels_trial_divide_p_once():
    """A deep holomorph sweep at p = 2^31 - 1 trial-divides p (the prime gate)
    and p - 1 (the unit orders) once each, not once per level."""
    from rosegbs import Budget, parse_presentation, verify_theorem
    from rosegbs.numtheory import _prime_factors

    p = MAX_PRIME - 1
    pres = parse_presentation(
        f"<a,t1,t2 | t1 a^1 t1^-1 = a^{p + 1} ; t2 a^2 t2^-1 = a^{p + 2}>"
    )
    _prime_factors.cache_clear()
    rep = verify_theorem(pres, p, budget=Budget(max_order=0, s_max=50))
    assert rep.holomorph_s == tuple(range(1, 51))
    assert _prime_factors.cache_info().misses <= 2


#: 2^61 - 1, a Mersenne prime: trial division would take minutes on it.
M61 = 2**61 - 1


def test_require_prime_bound():
    require_prime(MAX_PRIME - 1)  # 2^31 - 1 is prime
    for p in (MAX_PRIME, 4, 1, 0, -3):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            require_prime(p)
    for p in (MAX_PRIME + 11, M61):
        with pytest.raises(ValueError, match=rf"^p must be at most 2\^31, got {p}$"):
            require_prime(p)


def test_every_entry_point_rejects_a_prime_past_the_bound():
    # each call reaches require_prime before any work that grows with p
    from rosegbs import (
        QuotientOracle, RoseGbs, builtin_catalog, classify, holomorph_quotient,
        verify_theorem,
    )

    pres = RoseGbs.from_pairs([(3, 1)])
    calls = [
        lambda: classify(pres, M61),
        lambda: QuotientOracle(pres, M61),
        lambda: holomorph_quotient(pres, M61, 1),
        lambda: verify_theorem(pres, M61),
        lambda: builtin_catalog(M61),
        lambda: p_valuation(12, M61),
        lambda: multiplicative_order(2, M61, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"at most 2\^31"):
            call()
