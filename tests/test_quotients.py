import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosegbs.classifier import Orientation
from rosegbs.generators import Bounds
from rosegbs.numtheory import inverse_mod
from rosegbs.pcgroup import builtin_catalog
from rosegbs.presentation import RoseGbs, Word, generator, parse_word, reduce
from rosegbs.quotients import (
    Budget,
    CatalogHoms,
    HolomorphUnavailable,
    QuotientOracle,
    evaluate_word_bulk,
    hom_arrays,
    holomorph_quotient,
    membership_verdict,
    verify_theorem,
)


def pres(*pairs):
    return RoseGbs.from_pairs(pairs)


def by_name(p):
    return {g.name: g for g in builtin_catalog(p)}


# --- scalar references --------------------------------------------------------------
# The library evaluates words in bulk (catalog) or in closed form (holomorph);
# these plain folds, one element at a time, are what the tests compare against.


def ref_satisfies(p, g, a, ts):
    """Do the images a, ts of (a, t_1..t_r) satisfy every loop relation?"""
    return all(
        g.mult(g.mult(t, g.power(a, loop.n)), g.inverse(t)) == g.power(a, loop.m)
        for loop, t in zip(p.loops, ts)
    )


def ref_homs(p, g):
    """Every hom p -> g as (a, ts) codes, in lexicographic order."""
    grid = itertools.product(range(g.order), repeat=p.r + 1)
    return [(a, tuple(ts)) for a, *ts in grid if ref_satisfies(p, g, a, ts)]


def ref_evaluate(w, g, a, ts):
    """Image of w under a -> a, t_i -> ts[i - 1], by a mult/power fold."""
    acc = g.identity
    for gen, exp in w.letters:
        acc = g.mult(acc, g.power(a if gen == 0 else ts[gen - 1], exp))
    return acc


def as_homs(a_img, t_imgs):
    return [(int(a), tuple(int(t[i]) for t in t_imgs)) for i, a in enumerate(a_img)]


def pair_mul(q, x, y):
    return ((x[0] + x[1] * y[0]) % q, (x[1] * y[1]) % q)


def pair_inv(q, x):
    hi = inverse_mod(x[1], q)
    return ((-hi * x[0]) % q, hi)


def pair_pow(q, x, e):
    if e < 0:
        return pair_pow(q, pair_inv(q, x), -e)
    acc, base = (0, 1), x
    while e:
        if e & 1:
            acc = pair_mul(q, acc, base)
        base = pair_mul(q, base, base)
        e >>= 1
    return acc


def ref_holomorph_evaluate(hq, w):
    """Image of w in the holomorph by square-and-multiply pair arithmetic."""
    q = hq.p**hq.s
    acc = (0, 1)
    for gen, exp in w.letters:
        base = (1, 1) if gen == 0 else (0, hq.c[gen - 1])
        acc = pair_mul(q, acc, pair_pow(q, base, exp))
    return acc


# --- hom enumeration -------------------------------------------------------------


def test_enumerate_homs_counts():
    groups = by_name(2)
    # t a^2 t^-1 = a^3 forces the a-image to be trivial in C2; t is free
    assert len(hom_arrays(pres((2, 3)), groups["C2"])[0]) == 2
    # t a t^-1 = a^3 in abelian C4 forces a-image in {1, g^2}; t free
    assert len(hom_arrays(pres((1, 3)), groups["C4"])[0]) == 8
    assert as_homs(*hom_arrays(pres((1, 3)), groups["C4"])) == ref_homs(
        pres((1, 3)), groups["C4"]
    )


def test_trivial_group_has_exactly_one_hom():
    from rosegbs.pcgroup import PcGroup, PcPresentation

    trivial = PcGroup(PcPresentation("1", 2, 0))
    assert len(hom_arrays(pres((2, 3), (7, -5)), trivial)[0]) == 1


def test_trivial_hom_always_present():
    groups = by_name(3)
    for g in groups.values():
        homs = as_homs(*hom_arrays(pres((3, 12), (2, 5)), g))
        assert homs, g.name
        assert homs[0] == (0, (0, 0))


def test_homs_satisfy_relations_post_hoc():
    p = pres((2, 12), (3, 3))
    for g in builtin_catalog(2):
        for a, ts in as_homs(*hom_arrays(p, g)):
            assert ref_satisfies(p, g, a, ts)


def test_bulk_matches_single():
    p = pres((3, 1))
    g = by_name(2)["D8"]
    a_img, t_imgs = hom_arrays(p, g)
    w = parse_word("t1 a^2 t1^-1 a^-1", p)
    bulk = evaluate_word_bulk(w, g, a_img, t_imgs)
    for i, (a, ts) in enumerate(as_homs(a_img, t_imgs)):
        assert ref_evaluate(w, g, a, ts) == int(bulk[i])


def test_evaluate_word_examples():
    p = pres((2, 12), (3, 3))
    g = by_name(2)["C8"]
    a_img, t_imgs = hom_arrays(p, g)
    relators = [Word()] + [
        reduce([(i, 1), (0, loop.n), (i, -1), (0, -loop.m)])
        for i, loop in enumerate(p.loops, 1)
    ]
    for w in relators:
        assert not evaluate_word_bulk(w, g, a_img, t_imgs).any()
        for a, ts in as_homs(a_img, t_imgs):
            assert ref_evaluate(w, g, a, ts) == 0


# --- differential test against the scalar references -------------------------------

REF_MAX_ORDER = {2: 8, 3: 9}


@st.composite
def presentations_and_words(draw):
    p = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(1, 2))
    exponent = st.integers(-12, 12).filter(bool)
    loops = [(draw(exponent), draw(exponent)) for _ in range(r)]
    big = st.integers(p**6, 3 * p**6)
    exps = st.one_of(st.integers(-12, 12), big, big.map(lambda e: -e))
    letters = draw(st.lists(st.tuples(st.integers(0, r), exps), max_size=8))
    return p, pres(*loops), reduce(letters)


@settings(max_examples=60, deadline=None)
@given(presentations_and_words())
def test_targets_match_scalar_reference(case):
    p, pr, w = case
    oracle = QuotientOracle(pr, p, Budget(max_order=REF_MAX_ORDER[p], s_max=6))
    witnesses = []
    for target in oracle.targets():
        witness = target.separate(w)
        witnesses.append(witness)
        if isinstance(target, CatalogHoms):
            g = target.group
            homs = ref_homs(pr, g)
            assert as_homs(target.a_img, target.t_imgs) == homs
            assert target.homs == len(homs)
            first = next(
                (
                    (a, ts, image)
                    for a, ts in homs
                    if (image := ref_evaluate(w, g, a, ts)) != g.identity
                ),
                None,
            )
            if first is None:
                assert witness is None
            else:
                a, ts, image = first
                assert witness == {
                    "kind": "catalog",
                    "target": g.name,
                    "order": g.order,
                    "image_a": g.element_str(a),
                    "image_t": [g.element_str(t) for t in ts],
                    "word_image": g.element_str(image),
                }
        else:
            pair = ref_holomorph_evaluate(target, w)
            assert target.evaluate(w) == pair
            assert (witness is None) == (pair == (0, 1))
    v = oracle.verdict(w)
    assert v.witness == next((x for x in witnesses if x is not None), None)


# --- holomorph quotients ----------------------------------------------------------


def test_holomorph_examples():
    hq = holomorph_quotient(pres((2, 2)), 2, 3)
    assert hq.c == (1,) and hq.h_order == 1 and hq.order == 8
    hq = holomorph_quotient(pres((3, 1)), 2, 3)
    assert hq.c == (3,) and hq.h_order == 2 and hq.order == 16
    with pytest.raises(HolomorphUnavailable) as err:
        holomorph_quotient(pres((2, 3)), 2, 3)
    assert err.value.reason == "not-applicable"


def test_holomorph_not_a_p_group():
    # (1, 3) at p = 5: c = 3 mod 5^s has order 4 * 5^j, not a 5-power
    with pytest.raises(HolomorphUnavailable) as err:
        holomorph_quotient(pres((1, 3)), 5, 2)
    assert err.value.reason == "not-a-p-group"


def test_holomorph_order_is_p_power_when_applicable():
    rng = random.Random(1234)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        s = rng.randint(1, 6)
        sigma = rng.randint(0, 2)
        n_hat = rng.choice([x for x in range(-60, 61) if x and x % p])
        m_hat = n_hat + p * rng.randint(-30, 30)
        if m_hat == 0 or m_hat % p == 0:
            continue
        hq = holomorph_quotient(
            pres((p**sigma * n_hat, p**sigma * m_hat)), p, s
        )
        order = hq.order
        while order % p == 0:
            order //= p
        assert order == 1


def test_holomorph_pair_arithmetic():
    hq = holomorph_quotient(pres((3, 1)), 2, 4)
    q = hq.p**hq.s
    x = (3, 11)
    assert pair_mul(q, x, pair_inv(q, x)) == (0, 1)
    assert pair_pow(q, x, 5) == pair_mul(q, x, pair_pow(q, x, 4))
    assert pair_pow(q, x, -2) == pair_inv(q, pair_pow(q, x, 2))
    for e in (-17, -2, -1, 0, 1, 5, 2**7):
        assert hq.evaluate(generator(0, e)) == pair_pow(q, (1, 1), e)
        assert hq.evaluate(generator(1, e)) == pair_pow(q, (0, hq.c[0]), e)


def test_backend_consistency_cyclic_vs_holomorph():
    """For n = m = p^sigma the holomorph has trivial H and is the cyclic group
    of order p^s; word evaluation must agree with the catalog table route."""
    p = pres((2, 2))
    hq = holomorph_quotient(p, 2, 3)
    c8 = by_name(2)["C8"]
    g1 = c8.generator_code(1)
    rng = random.Random(77)
    for _ in range(300):
        w = reduce(
            [(rng.randint(0, 1), rng.randint(-9, 9)) for _ in range(6)]
        )
        pair = hq.evaluate(w)
        assert pair[1] == 1
        assert ref_evaluate(w, c8, g1, (0,)) == c8.power(g1, pair[0])


# --- membership verdicts ----------------------------------------------------------


def test_membership_defining_relator():
    p = pres((2, 12))
    relator = parse_word("t1 a^2 t1^-1 a^-12", p)
    v = membership_verdict(relator, p, 2)
    assert not v.separated and v.homs_tested > 0


def test_membership_case1_spec_example():
    p = pres((2, 12))
    v = membership_verdict(generator(0), p, 2)
    assert v.separated
    assert v.witness["target"] == "C2"
    assert v.witness["image_a"] != "1"
    v2 = membership_verdict(generator(0, 2), p, 2, Budget(max_order=16, s_max=6))
    assert not v2.separated


def test_membership_deterministic_witness():
    p = pres((2, 12))
    v1 = membership_verdict(generator(0), p, 2)
    v2 = membership_verdict(generator(0), p, 2)
    assert v1.witness == v2.witness


def test_membership_monotone_budget():
    p = pres((2, 12))
    small = membership_verdict(generator(0), p, 2, Budget(max_order=2, s_max=0))
    big = membership_verdict(generator(0), p, 2, Budget(max_order=16, s_max=6))
    assert small.separated and big.separated


def test_oracle_word_alphabet_check():
    oracle = QuotientOracle(pres((2, 3)), 2, Budget(max_order=4, s_max=0))
    with pytest.raises(ValueError):
        oracle.verdict(generator(2))


# --- verify_theorem ---------------------------------------------------------------


def test_verify_case1():
    rep = verify_theorem(pres((2, 12)), 2)
    assert rep.status == "ok"
    seps = [c for c in rep.checks if c.check == "separation"]
    assert len(seps) == 1 and seps[0].verdict.separated
    assert not rep.violations


def test_verify_case1_xi0_vacuous():
    rep = verify_theorem(pres((2, 3)), 2)
    assert rep.status == "ok"
    assert not any(c.check == "separation" for c in rep.checks)


def test_verify_case2_families_contained():
    rep = verify_theorem(pres((3, 1), (5, 1)), 2, Bounds(k_max=1, comm_word_len=4))
    assert rep.status == "ok"
    assert not rep.violations
    # alternate orientation is documented as separated, not a violation
    assert rep.orientation_report["separations"]["intro-verbatim"] > 0
    assert rep.orientation_report["surviving"] == ["canonical"]
    assert rep.orientation_report["default_survives"]


def test_verify_residual_corroboration():
    rep = verify_theorem(pres((2, 2), (4, 4)), 2, Bounds(k_max=1, comm_word_len=4))
    assert rep.status == "ok" and not rep.inconclusive
    assert all(not c.verdict.separated for c in rep.checks if c.check == "containment")


def test_verify_budget_zero_inconclusive():
    rep = verify_theorem(pres((2, 12)), 2, budget=Budget(max_order=0, s_max=0))
    assert rep.status == "inconclusive"


def test_verify_moldavanskii_crosscheck_runs():
    rep = verify_theorem(pres((3, 1)), 2, Bounds(k_max=1))
    molds = [c for c in rep.checks if c.check == "moldavanskii"]
    assert molds and all(not c.verdict.separated for c in molds)


def test_verify_verbatim_orientation_flags_separation():
    rep = verify_theorem(
        pres((3, 12)), 3, Bounds(k_max=1),
        Budget(max_order=27, s_max=6),
        orientation=Orientation.INTRO_VERBATIM,
    )
    # the intro-verbatim mixed family is separated: documented and counted
    assert rep.orientation_report["separations"]["intro-verbatim"] > 0
    assert rep.orientation_report["surviving"] == ["canonical"]
    assert rep.status == "theorem-violation"
