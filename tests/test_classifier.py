import math
import random

import pytest

from rosegbs.classifier import (
    INFINITY,
    Case,
    Orientation,
    Reason,
    classify,
    exponent_data,
    loop_data,
    moldavanskii_r1,
    _bs_normalize,
    residually_p,
)
from rosegbs.numtheory import is_p_power, p_valuation
from rosegbs.presentation import RoseGbs, print_word


def pres(*pairs):
    return RoseGbs.from_pairs(pairs)


def test_loop_data_examples():
    (L,) = loop_data(pres((2, 12)), 2)
    assert (L.sigma, L.tau, L.m_hat, L.n_hat, L.d, L.theta) == (2, 1, 3, 1, 1, 1)
    (L,) = loop_data(pres((3, 3)), 3)
    assert (L.sigma, L.tau, L.m_hat, L.n_hat) == (1, 1, 1, 1)
    assert L.theta is INFINITY
    (L,) = loop_data(pres((5, 7)), 2)
    assert (L.sigma, L.tau) == (0, 0) and L.theta is INFINITY  # 2 | (7 - 5)


def test_loop_data_orientation():
    (L,) = loop_data(pres((2, 12)), 2)
    assert (L.u, L.v) == (1, 3)  # canonical: u is the conjugated (n) side
    (L,) = loop_data(pres((2, 12)), 2, Orientation.INTRO_VERBATIM)
    assert (L.u, L.v) == (3, 1)


def test_classify_examples():
    cls = classify(pres((2, 12), (3, 3)), 2)
    assert cls.case == Case.ONE and cls.xi == 1
    cls = classify(pres((3, 12), (2, 5)), 3)
    assert cls.case == Case.TWO and cls.sigma_total == 1
    for p in (2, 3, 5):
        cls = classify(pres((1, 1 + p)), p)
        assert cls.case == Case.TWO and cls.sigma_total == 0


def test_classify_elementary_warning():
    cls = classify(pres((1, -1)), 2)
    assert cls.warnings and "elementary" in cls.warnings[0]
    assert not classify(pres((2, 12)), 2).warnings


def test_theta_definition_randomized():
    rng = random.Random(7)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        n = rng.choice([x for x in range(-200, 201) if x])
        m = rng.choice([x for x in range(-200, 201) if x])
        (L,) = loop_data(pres((n, m)), p)
        sigma, m_hat = p_valuation(m, p)
        tau, n_hat = p_valuation(n, p)
        infinite = sigma == tau and (m_hat - n_hat) % p == 0
        assert (L.theta is INFINITY) == infinite
        if not infinite:
            assert L.theta == min(sigma, tau)
        assert math.gcd(abs(L.u), abs(L.v)) == 1
        assert L.d * L.u == L.n_hat and L.d * L.v == L.m_hat


def test_case2_sigma_is_sum():
    rng = random.Random(8)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        r = rng.randint(1, 3)
        loops = []
        for _ in range(r):
            s = rng.randint(0, 3)
            n_hat = rng.choice([x for x in range(1, 50) if x % p])
            m_hat = n_hat + p * rng.randint(-15, 15)
            if m_hat == 0:
                m_hat = n_hat
            loops.append((p**s * n_hat, p**s * m_hat))
        cls = classify(pres(*loops), p)
        assert cls.case == Case.TWO
        assert cls.sigma_total == sum(L.sigma for L in cls.loops)
        assert all(L.sigma == L.tau for L in cls.loops)


def test_exponent_data_examples():
    loops = classify(pres((4, 1), (5, 2)), 3).loops
    assert [(L.u, L.v) for L in loops] == [(4, 1), (5, 2)]
    data = exponent_data(loops, (1, -1))
    assert (data.y, data.y_bar, data.delta) == (8, 5, 1)
    data = exponent_data(loops, (0, 0))
    assert (data.y, data.y_bar, data.delta) == (1, 1, 1)
    (loop13,) = classify(pres((1, 3)), 2).loops
    assert (loop13.u, loop13.v) == (1, 3)
    data = exponent_data([loop13], (2,))
    assert (data.y, data.y_bar, data.delta) == (1, 9, 1)
    with pytest.raises(ValueError):
        exponent_data(loops, (1,))


# --- residual finite-p ---------------------------------------------------------


def corollary_bs_oracle(n: int, m: int, p: int) -> bool:
    """Independent transcription of the r = 1 criterion on the normalized
    pair with 0 < n <= |m| (sign and swap isomorphisms applied directly)."""
    if n < 0:
        n, m = -n, -m
    if n > abs(m):
        n, m = m, n
        if n < 0:
            n, m = -n, -m
    if n == 1 and (m - 1) % p == 0:
        return True
    if n == m and is_p_power(n, p):
        return True
    if p == 2 and m == -n and is_p_power(n, 2):
        return True
    return False


def test_residually_p_examples():
    rep = residually_p(pres((2, 2), (4, 4)), 2)
    assert rep.decision and rep.reason == Reason.ALL_LOOPS_EQUAL_P_POWER
    rep = residually_p(pres((3, 1), (5, 1)), 2)
    assert not rep.decision and rep.witness == (1, 2) and rep.obstruction_kind == "H"
    rep = residually_p(pres((3, 1)), 2)
    assert rep.decision and rep.reason == Reason.BS_CASE_RULE
    rep = residually_p(pres((-2, 2)), 2)
    assert rep.decision and rep.reason == Reason.ALL_LOOPS_NEG_TWO_POWER
    rep = residually_p(pres((3, 1), (2, 2)), 2)
    assert not rep.decision and rep.obstruction_kind == "K"
    rep = residually_p(pres((3, 1), (-2, 2)), 2)
    assert not rep.decision and rep.obstruction_kind == "M"
    rep = residually_p(pres((2, -4), (2, 2)), 2)
    assert not rep.decision and rep.obstruction_kind == "single"
    rep = residually_p(pres((2, 2), (-4, 4)), 2)
    assert rep.decision and rep.reason == Reason.ALL_LOOPS_NEG_TWO_POWER


def test_residually_p_r1_sweep_against_oracle():
    """Spec invariant: agreement with the corollary on |n|, |m| <= 30."""
    for p in (2, 3, 5):
        for n in range(-30, 31):
            for m in range(-30, 31):
                if n == 0 or m == 0:
                    continue
                got = residually_p(pres((n, m)), p).decision
                assert got == corollary_bs_oracle(n, m, p), (n, m, p)


def residually_p_r1_reference(n: int, m: int, p: int):
    """The r = 1 rule applied directly to the normal form 0 < n <= |m|,
    without _loop_type: (decision, reason, witness, obstruction_kind)."""
    n, m = _bs_normalize(n, m)
    if n == m and is_p_power(n, p):
        return True, Reason.ALL_LOOPS_EQUAL_P_POWER, None, None
    if p == 2 and m == -n and is_p_power(n, 2):
        return True, Reason.ALL_LOOPS_NEG_TWO_POWER, None, None
    if n == 1 and (m - 1) % p == 0:
        return True, Reason.BS_CASE_RULE, None, None
    return False, Reason.OBSTRUCTION, (1,), "single"


def test_residually_p_r1_matches_reference():
    exps = [e for e in range(-64, 65) if e]
    for p in (2, 3, 5, 7):
        for n in exps:
            for m in exps:
                rep = residually_p(pres((n, m)), p)
                got = (rep.decision, rep.reason, rep.witness, rep.obstruction_kind)
                assert got == residually_p_r1_reference(n, m, p), (n, m, p)


def test_residually_p_true_implies_case2():
    rng = random.Random(9)
    pairs = [(n, m) for n in range(-20, 21) for m in range(-20, 21) if n and m]
    for p in (2, 3, 5):
        for _ in range(400):
            loops = [rng.choice(pairs) for _ in range(rng.randint(1, 3))]
            rep = residually_p(pres(*loops), p)
            if rep.decision:
                assert classify(pres(*loops), p).case == Case.TWO


# --- Moldavanskii r = 1 ---------------------------------------------------------


def words_str(family):
    return {print_word(w) for w in family.words}


def test_moldavanskii_case1():
    fam = moldavanskii_r1(pres((2, 3)), 2)
    assert fam.case == Case.ONE and fam.xi == 0
    assert words_str(fam) == {"a"}


def test_moldavanskii_case2_equal_powers():
    fam = moldavanskii_r1(pres((4, 4)), 2, k_bound=1)
    assert fam.case == Case.TWO
    # [x, y] = x y x^-1 y^-1 with x = t1^k a^4 t1^-k, y = a
    expected = {
        "t1^-1 a^4 t1 a^-4",
        "t1 a^4 t1^-1 a t1 a^-4 t1^-1 a^-1",
        "t1^-1 a^4 t1 a t1^-1 a^-4 t1 a^-1",
    }
    assert words_str(fam) == expected


def test_moldavanskii_bs31():
    fam = moldavanskii_r1(pres((3, 1)), 2, k_bound=1)
    assert fam.case == Case.TWO
    assert "t1^-1 a t1 a^-3" in words_str(fam)
    with pytest.raises(ValueError):
        moldavanskii_r1(pres((3, 1), (5, 1)), 2)
