import dataclasses
import functools
import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosegbs.classifier import Case, Orientation
from rosegbs.generators import Bounds
from rosegbs.numtheory import inverse_mod, multiplicative_order
from rosegbs.pcgroup import builtin_catalog
from rosegbs.presentation import (
    RoseGbs, Word, conjugate, generator, parse_word, reduce,
)
from rosegbs.quotients import (
    Budget,
    CatalogHoms,
    HolomorphQuotient,
    HolomorphUnavailable,
    QuotientOracle,
    Verdict,
    _unit_subgroup_order,
    evaluate_word_bulk,
    evaluate_words,
    hom_arrays,
    holomorph_quotient,
    loop_tables,
    orbit_homs,
    verify_theorem,
)
from test_pcgroup import extra_groups


def pres(*pairs):
    return RoseGbs.from_pairs(pairs)


def cancel_sums(w):
    """w followed by the inverse of each of its exponent sums: a word whose
    exponent sums are all zero."""
    return reduce(w.letters + tuple((g, -e) for g, e in w.abelianised.letters))


def by_name(p):
    return {g.name: g for g in builtin_catalog(p)}


def catalog_target(pr, g):
    """g's CatalogHoms under pr as a QuotientOracle builds it, or None when
    its orbit representatives exceed the budget."""
    return QuotientOracle(pr, g.p, Budget(max_order=g.order, s_max=0), [g]).homs_for(g)


# --- scalar references --------------------------------------------------------------
# The library evaluates words in bulk (catalog) or in closed form (holomorph);
# these plain folds, one element at a time, are what the tests compare against.


def mult(g, x, y):
    return int(g.table[x, y])


def ref_satisfies(p, g, a, ts):
    """Do the images a, ts of (a, t_1..t_r) satisfy every loop relation?"""
    return all(
        mult(g, mult(g, t, int(g.powers(loop.n)[a])), int(g.inv[t]))
        == int(g.powers(loop.m)[a])
        for loop, t in zip(p.loops, ts)
    )


def ref_homs(p, g):
    """Every hom p -> g as (a, ts) codes, in lexicographic order."""
    grid = itertools.product(range(g.order), repeat=p.r + 1)
    return [(a, tuple(ts)) for a, *ts in grid if ref_satisfies(p, g, a, ts)]


def ref_evaluate(w, g, a, ts):
    """Image of w under a -> a, t_i -> ts[i - 1], by a mult/power fold."""
    acc = 0
    for gen, exp in w.letters:
        acc = mult(g, acc, int(g.powers(exp)[a if gen == 0 else ts[gen - 1]]))
    return acc


def ref_orbit_least(g, homs):
    """The homs that are lexicographically least in their g.automorphisms
    orbit, by applying every automorphism to every hom."""
    flat = [(a, *ts) for a, ts in homs]
    return [
        h for h, f in zip(homs, flat)
        if all(tuple(int(aut[x]) for x in f) >= f for aut in g.automorphisms)
    ]


def ref_axis_homs(homs):
    """The homs that send at most one generator to a non-identity element."""
    return [(a, ts) for a, ts in homs if sum(x != 0 for x in (a, *ts)) <= 1]


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


SYMPY_PRESENTATIONS = [
    ([(2, 12)], 2), ([(2, 3)], 2), ([(3, 12)], 3), ([(1, 3)], 3), ([(3, 8)], 5),
    ([(1, -1)], 5), ([(3, 1), (5, 1)], 2), ([(-2, 2), (1, 3)], 2),
    ([(3, 12), (2, 5)], 3), ([(1, 1), (2, -2)], 3),
]


@pytest.mark.parametrize("pairs, p", SYMPY_PRESENTATIONS)
def test_cp_hom_count_matches_sympy_normal_subgroups(pairs, p):
    """An independent count of Hom(G, C_p): each normal subgroup of index p
    is the kernel of the p - 1 surjective homs onto C_p, and every hom but the
    trivial one is surjective.  sympy lists the subgroups of index at most p
    by coset enumeration; one of index p is normal iff G acts on its cosets
    as a group of order p."""
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup
    from sympy.combinatorics.fp_groups import FpGroup, low_index_subgroups
    from sympy.combinatorics.free_groups import free_group

    names = ["a"] + [f"t{i}" for i in range(1, len(pairs) + 1)]
    F, a, *ts = free_group(" ".join(names))
    G = FpGroup(F, [t * a**n * t**-1 * a**-m for t, (n, m) in zip(ts, pairs)])
    normal = 0
    for table in low_index_subgroups(G, p):
        if len(table.table) == p:
            # columns 2j and 2j + 1 are generator j and its inverse
            perms = [Permutation([row[2 * j] for row in table.table])
                     for j in range(len(G.generators))]
            normal += PermutationGroup(perms).order() == p
    homs = QuotientOracle(pres(*pairs), p, Budget(max_order=p, s_max=0)).targets[0].homs
    assert homs - 1 == normal * (p - 1)


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
    for target in oracle.targets:
        (witness,) = target.separate([w])
        witnesses.append(witness)
        if isinstance(target, CatalogHoms):
            g = target.group
            homs = ref_homs(pr, g)
            assert as_homs(*hom_arrays(pr, g)) == homs
            assert target.homs == len(homs)
            if g.is_abelian:
                want = ref_axis_homs(homs)
            else:
                want = ref_orbit_least(g, homs)
            imgs = target.representatives()
            assert as_homs(imgs[0], imgs[1:]) == want
            first = next(
                (
                    (a, ts, image)
                    for a, ts in homs
                    if (image := ref_evaluate(w, g, a, ts)) != 0
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


def test_zero_exponent_sums_skip_abelian_evaluation(monkeypatch):
    """Every hom into an abelian group kills a word whose exponent sums are all
    zero, so separate() must answer without evaluating it."""
    evaluated = []

    def counting(words, *args):
        evaluated.extend(words)
        return evaluate_words(words, *args)

    monkeypatch.setattr("rosegbs.quotients.evaluate_words", counting)
    pr = pres((3, 1), (5, 1))
    words = [
        parse_word(text, pr)
        for text in ("a t1 a^-1 t1^-1", "t1 a^5 t1^-1 a^-5",
                     "t2 t1^3 a t2^-1 t1^-3 a^-1",
                     "t1 t2 t1^-1 t2^-1 a^7 t1 a^-7 t1^-1")
    ]
    assert all(w.abelianised == Word() for w in words)
    for p in (2, 3):
        oracle = QuotientOracle(pr, p, Budget(max_order=27, s_max=0))
        abelian = [t for t in oracle.targets if t.group.is_abelian]
        assert len(abelian) >= 3
        for t in abelian:
            assert t.separate(words) == [None] * len(words)
            assert t.separate(words[:1]) == [None]
        assert evaluated == []
    # the counter sees the batched path: only the non-zero-sum words reach it
    t1, t1_sq = generator(1), generator(1, 2)
    witnesses = abelian[0].separate([words[0], t1, words[1], t1_sq])
    assert abelian[0].group.name == "C3"
    assert [x is None for x in witnesses] == [True, False, True, False]
    assert evaluated == [t1, t1_sq]


# --- differential test: reduced oracle against the full sweep -----------------------

FULL_MAX_ORDER = {2: 16, 3: 27}


def first_hit_witness(g, a_img, t_imgs, images):
    """The catalog witness of the first hom whose entry in images is not the
    identity, or None."""
    hits = np.flatnonzero(images)
    if not len(hits):
        return None
    i = hits[0]
    return {
        "kind": "catalog",
        "target": g.name,
        "order": g.order,
        "image_a": g.element_str(int(a_img[i])),
        "image_t": [g.element_str(int(t[i])) for t in t_imgs],
        "word_image": g.element_str(int(images[i])),
    }


def full_sweep_verdict(oracle, w):
    """The verdict of a sweep over every hom_arrays row of every catalog
    group, in target order, then every available holomorph: no orbit,
    exponent-sum or exponent reduction, and no stop at the first unavailable
    s."""
    tested = max_order = 0
    for g in oracle.groups:
        a_img, t_imgs = hom_arrays(oracle.pres, g)
        tested += len(a_img)
        max_order = max(max_order, g.order)
        images = evaluate_word_bulk(w, g, a_img, t_imgs)
        witness = first_hit_witness(g, a_img, t_imgs, images)
        if witness is not None:
            return Verdict(w, True, tested, max_order, witness)
    for s in range(1, oracle.budget.s_max + 1):
        try:
            hq = holomorph_quotient(oracle.pres, oracle.p, s)
        except HolomorphUnavailable:
            continue
        tested += hq.homs
        max_order = max(max_order, hq.order)
        (witness,) = hq.separate([w])
        if witness is not None:
            return Verdict(w, True, tested, max_order, witness)
    return Verdict(w, False, tested, max_order)


@st.composite
def oracle_cases(draw, ranks=(1, 2)):
    """A presentation of a rank in ranks, a word (half the time with every
    exponent sum zero, so that only non-abelian targets can separate it) and
    a catalog: the whole catalog up to order 16 / 27, or its non-abelian
    groups shuffled."""
    p = draw(st.sampled_from([2, 3]))
    r = draw(st.sampled_from(ranks))
    exponent = st.integers(-12, 12).filter(bool)
    loops = [(draw(exponent), draw(exponent)) for _ in range(r)]
    letters = draw(st.lists(
        st.tuples(st.integers(0, r), exponent), min_size=1, max_size=10
    ))
    w = reduce(letters)
    if draw(st.booleans()):
        w = cancel_sums(w)
    groups = [g for g in builtin_catalog(p) if g.order <= FULL_MAX_ORDER[p]]
    if draw(st.booleans()):
        groups = draw(st.permutations([g for g in groups if not g.is_abelian]))
    return p, pres(*loops), w, groups


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
def test_reduced_oracle_matches_full_sweep(case):
    p, pr, w, groups = case
    budget = Budget(max_order=FULL_MAX_ORDER[p], s_max=3)
    oracle = QuotientOracle(pr, p, budget, groups)
    assert oracle.verdict(w) == full_sweep_verdict(oracle, w)


@settings(max_examples=15, deadline=None)
@given(oracle_cases(ranks=(3,)))
def test_reduced_oracle_matches_full_sweep_r3(case):
    p, pr, w, groups = case
    budget = Budget(max_order=FULL_MAX_ORDER[p], s_max=3)
    oracle = QuotientOracle(pr, p, budget, groups)
    assert oracle.verdict(w) == full_sweep_verdict(oracle, w)


# --- differential test: words reduced mod the exponent -------------------------------

#: A multiple of the exponent of every group below (16, 27 and 25 divide it),
#: so a letter with a multiple of it as exponent vanishes in all of them.
VANISHING = 2**4 * 3**3 * 5**2

MOD_E_PRESENTATIONS = (
    pres((1, 1)), pres((2, 4)), pres((1, -1)), pres((3, 3), (1, -1)),
    pres((25, 25), (16, 16)),
)


@functools.cache
def mod_e_groups():
    """Every shipped non-abelian group and the test_pcgroup extras."""
    return [
        g for p in (2, 3, 5) for g in builtin_catalog(p) if not g.is_abelian
    ] + extra_groups()


@functools.cache
def representatives(pr, g):
    """g's target under pr with its representatives walked once, or None."""
    target = catalog_target(pr, g)
    return target and dataclasses.replace(target, imgs=target.representatives())


mod_e_exponents = st.one_of(
    st.integers(-40, 40),
    st.integers(-3, 3).map(lambda k: k * VANISHING),
    st.sampled_from([10**30, -10**30]),
    st.integers(-(10**30), 10**30),
)


@st.composite
def words_mod_exponent(draw, r):
    """prefix x^e y^(k VANISHING) x^f suffix: y vanishes in every group, so
    x^e and x^f must merge, and with f = -e they cancel (the whole word
    reduces to the empty word when prefix and suffix do)."""
    letter = st.tuples(st.integers(0, r), mod_e_exponents)
    x, y = draw(st.permutations(range(r + 1)))[:2]
    e = draw(mod_e_exponents.filter(bool))
    f = draw(st.one_of(st.just(-e), mod_e_exponents))
    k = draw(st.sampled_from([-2, -1, 1, 2]))
    middle = [(x, e), (y, k * VANISHING), (x, f)]
    return reduce(draw(st.lists(letter, max_size=4)) + middle
                  + draw(st.lists(letter, max_size=4)))


def test_reduced_mod_examples():
    E = 4
    a, t = generator(0), generator(1)
    assert reduce([(0, 2), (1, E), (0, 3)]).reduced_mod(E) == a  # t vanishes, a^5 = a
    assert reduce([(0, 1), (1, -E), (0, -1)]).reduced_mod(E) == Word()
    assert generator(0, -1).reduced_mod(E) == generator(0, 3)
    assert reduce([(0, 10**30), (1, -(10**30) - 1)]).reduced_mod(E) == generator(1, 3)
    # t t^3 = t^4, then gone
    assert reduce([(1, 1), (0, 8), (1, 3), (0, 4)]).reduced_mod(E) == Word()
    w = reduce([(0, 6), (1, 1)])
    assert w.reduced_mod(E) is w.reduced_mod(E) and w.reduced_mod(3) == t


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MOD_E_PRESENTATIONS).flatmap(
        lambda pr: st.tuples(st.just(pr), words_mod_exponent(pr.r))
    ),
    st.integers(0, 2**32 - 1),
)
def test_reduced_evaluation_matches_unreduced(case, seed):
    pr, w = case
    rng = np.random.default_rng(seed)
    for g in mod_e_groups():
        E = g.exponent
        reduced = w.reduced_mod(E)
        assert all(0 < e < E for _, e in reduced.letters)
        assert reduce(reduced.letters, E) == reduced
        imgs = rng.integers(0, g.order, size=(pr.r + 1, 32))
        assert np.array_equal(evaluate_word_bulk(reduced, g, imgs[0], imgs[1:]),
                              evaluate_word_bulk(w, g, imgs[0], imgs[1:]))
        target = representatives(pr, g)
        # the trivial-Aut extras at r = 2 have 0.5-1.3 M representatives:
        # the random image arrays above cover them
        if target is None or target.imgs.shape[1] > 2**16:
            continue
        images = evaluate_word_bulk(w, g, target.imgs[0], target.imgs[1:])
        assert np.array_equal(
            evaluate_word_bulk(reduced, g, target.imgs[0], target.imgs[1:]), images
        )
        assert target.separate([w]) == [first_hit_witness(
            g, target.imgs[0], target.imgs[1:], images
        )]


# --- one pass per phase: batched verdicts ------------------------------------------


@st.composite
def oracle_batches(draw):
    """oracle_cases' presentation and catalog, and a batch of words with
    repeats, drawn from: its word, that word with every exponent sum
    cancelled, a^(p^4) and a^VANISHING, which every catalog group up to order
    16 / 27 kills (only a holomorph can separate them), a word of letters
    g^(k VANISHING), which reduces to the empty word, the empty word and t_1."""
    p, pr, w, groups = draw(oracle_cases())
    pool = [
        w,
        cancel_sums(w),
        generator(0, p**4),
        generator(0, VANISHING),
        reduce([(g, k * VANISHING) for g, k in
                draw(st.lists(st.tuples(st.integers(0, pr.r), st.integers(1, 3)),
                              min_size=1, max_size=4))]),
        Word(),
        generator(1),
    ]
    return p, pr, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10)), groups


@settings(max_examples=40, deadline=None)
@given(oracle_batches())
def test_verdicts_match_per_word_and_full_sweep(case):
    p, pr, words, groups = case
    budget = Budget(max_order=FULL_MAX_ORDER[p], s_max=6)
    oracle = QuotientOracle(pr, p, budget, groups)
    got = oracle.verdicts(words)
    assert [v.word for v in got] == words
    for w, v in zip(words, got):
        assert v == QuotientOracle(pr, p, budget, groups).verdict(w)
        assert v == full_sweep_verdict(oracle, w)
    assert oracle.verdicts(words[::-1]) == got[::-1]


def test_verdicts_batch_mixes_target_kinds():
    """Under t a t^-1 = a^3 at p = 2, one batch holds words separated first by
    an abelian target (t), by a non-abelian one ([a, t] = a^-2), only by a
    holomorph (a^16 = a^VANISHING in every catalog group up to order 16, and
    t^2 a t^-2 a^-1 = a^8), or by none (the relator, the empty word)."""
    pr = pres((1, 3))
    budget = Budget(max_order=16, s_max=6)
    oracle = QuotientOracle(pr, 2, budget)
    texts = ["t1", "a t1 a^-1 t1^-1", "a^16", "t1 a t1^-1 a^-3", "t1",
             f"a^{VANISHING}", "t1^2 a t1^-2 a^-1", "a^16", "a t1 a^-1 t1^-1"]
    words = [parse_word(text, pr) for text in texts] + [Word()]
    got = oracle.verdicts(words)
    assert [v.witness and v.witness["target"] for v in got] == [
        "C2", "D8", "holomorph(s=5)", None, "C2", "holomorph(s=5)",
        "holomorph(s=4)", "holomorph(s=5)", "D8", None,
    ]
    for w, v in zip(words, got):
        assert v == QuotientOracle(pr, 2, budget).verdict(w)
        assert v == full_sweep_verdict(oracle, w)


# --- words that are 1 in G skip the pass ------------------------------------------


@st.composite
def trivial_word_batches(draw):
    """oracle_cases' presentation and catalog, and a batch of words with
    repeats, drawn from: its word w, a conjugate r of a loop relator, the
    product of two (both 1 in G), w r w^-1 (1 in G), w r (1 in G only when w
    is) and the empty word, and a nest t_i^e a^k t_i^-e (never 1 in G,
    pinched or not)."""
    p, pr, w, groups = draw(oracle_cases())
    stable = st.integers(1, pr.r)
    conjugators = st.lists(
        st.tuples(st.integers(0, pr.r), st.integers(-3, 3)), max_size=4
    ).map(reduce)

    def relator_conjugate():
        i = draw(stable)
        loop = pr.loops[i - 1]
        rel = reduce([(i, 1), (0, loop.n), (i, -1), (0, -loop.m)])
        return conjugate(rel, draw(conjugators))

    r1, r2 = relator_conjugate(), relator_conjugate()
    pool = [w, r1, reduce(r1.letters + r2.letters), conjugate(r2, w),
            reduce(w.letters + r1.letters), Word()]
    t = generator(draw(stable), draw(st.sampled_from([-2, -1, 1, 2])))
    nest = conjugate(generator(0, draw(st.integers(1, 12))), t)
    batch = draw(st.lists(st.sampled_from(pool), max_size=9)) + [nest]
    return p, pr, draw(st.permutations(batch)), groups


@settings(max_examples=100, deadline=None)
@given(trivial_word_batches())
def test_skipping_trivial_words_changes_no_verdict(case):
    """verdicts with the skip equals the same batch swept in full (britton
    patched to call no word trivial): verdicts, witnesses, homs_tested and
    max_order."""
    p, pr, words, groups = case
    budget = Budget(max_order=FULL_MAX_ORDER[p], s_max=6)
    got = QuotientOracle(pr, p, budget, groups).verdicts(words)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("rosegbs.quotients.britton", lambda pres, w: generator(0))
        swept = QuotientOracle(pr, p, budget, groups).verdicts(words)
    assert got == swept


def test_words_trivial_in_g_are_not_evaluated(monkeypatch):
    """Under t a t^-1 = a^3, the relator and t^-2 a^9 t^2 a^-1 are 1 in G and
    reach no target; they get the survivors' verdict, all homs tested, or 0
    and 0 with no targets.  [a, t] is not 1 in G and is evaluated."""
    pr = pres((1, 3))
    words = [parse_word(text, pr) for text in
             ("t1 a t1^-1 a^-3", "t1^-2 a^9 t1^2 a^-1", "a t1 a^-1 t1^-1", "1")]
    evaluated = set()
    for kind in (CatalogHoms, HolomorphQuotient):
        def recording(self, ws, separate=kind.separate):
            evaluated.update(ws)
            return separate(self, ws)
        monkeypatch.setattr(kind, "separate", recording)
    oracle = QuotientOracle(pr, 2, Budget(max_order=16, s_max=6))
    got = oracle.verdicts(words)
    assert evaluated == {words[2]}
    survived = (oracle.total_homs, max(t.order for t in oracle.targets))
    assert [(v.separated, v.homs_tested, v.max_order) for v in got] == [
        (False, *survived), (False, *survived), (True, got[2].homs_tested, 8),
        (False, *survived),
    ]
    bare = QuotientOracle(pr, 2, Budget(max_order=0, s_max=0))
    assert bare.verdicts(words[:1]) == [Verdict(words[0], False, 0, 0)]


@pytest.mark.parametrize("block", [1, 200, 2000])
def test_eval_blocks_do_not_matter(monkeypatch, block):
    """Any block size gives the witnesses of the default one, and a call on
    several words stays within the block.  At 1 every word is evaluated
    alone; at 200 and 2000 the abelian targets take chunks of up to 9 and 12
    words, and He3 (1,042 representatives) and M27 (5,283) one word at a
    time."""
    pr = pres((3, 3), (2, 5), (9, 9))
    rng = random.Random(3)
    words = [
        reduce([(rng.randrange(4), rng.choice([-4, -2, -1, 1, 2, 3]))
                for _ in range(rng.randrange(1, 9))])
        for _ in range(12)
    ]
    words += [cancel_sums(w) for w in words[:6]]
    budget = Budget(max_order=27, s_max=0)
    oracle = QuotientOracle(pr, 3, budget)
    whole = [t.separate(words) for t in oracle.targets]
    verdicts = oracle.verdicts(words)
    assert [t.representatives().shape[1] for t in oracle.targets][-2:] == [1042, 5283]
    assert len({str(w) for ws in whole for w in ws}) > 5  # varied witnesses
    calls = []

    def recording(words, group, imgs):
        calls.append((len(words), sum(len(w.letters) for w in words) * imgs.shape[1]))
        return evaluate_words(words, group, imgs)

    monkeypatch.setattr("rosegbs.quotients._EVAL_BLOCK", block)
    monkeypatch.setattr("rosegbs.quotients.evaluate_words", recording)
    assert [t.separate(words) for t in oracle.targets] == whole
    assert QuotientOracle(pr, 3, budget).verdicts(words) == verdicts
    assert all(images <= block for k, images in calls if k > 1)
    assert max(k for k, _ in calls) == {1: 1, 200: 9, 2000: 12}[block]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MOD_E_PRESENTATIONS).flatmap(
        lambda pr: st.tuples(st.just(pr), st.lists(words_mod_exponent(pr.r), max_size=6))
    ),
    st.integers(0, 2**32 - 1),
)
def test_evaluate_words_rows_match_per_word(case, seed):
    """Row k of evaluate_words is PcGroup.evaluate of word k, for unreduced
    words (exponents up to 10^30, words that reduce to the empty word, the
    empty word itself) in any order of lengths."""
    pr, words = case
    words = words + [Word()]
    rng = np.random.default_rng(seed)
    for g in mod_e_groups()[:6]:
        imgs = rng.integers(0, g.order, size=(pr.r + 1, 16))
        want = [np.broadcast_to(g.evaluate(w.letters, imgs), (16,)) for w in words]
        assert np.array_equal(evaluate_words(words, g, imgs), np.stack(want))
        for w, row in zip(words, want):
            assert np.array_equal(evaluate_word_bulk(w, g, imgs[0], imgs[1:]), row)


# --- repeated words ------------------------------------------------------------


def test_verdict_equal_words():
    oracle = QuotientOracle(pres((3, 1), (5, 1)), 2)
    w1 = parse_word("t1 a^3 t1^-1 t2 a t2^-1 a^-2", oracle.pres)
    w2 = Word(tuple(w1.letters))
    assert w1 is not w2
    v = oracle.verdict(w1)
    assert oracle.verdict(w2) == v
    assert v == QuotientOracle(oracle.pres, 2).verdict(w2)


def test_verify_batch_dedupe_is_transparent(monkeypatch):
    pr, bounds = pres((2, 2), (4, 4)), Bounds(k_max=1, comm_word_len=4)
    batched = verify_theorem(pr, 2, bounds)
    words = [c.word for c in batched.checks]
    assert batched.classification.case == Case.TWO
    assert len(set(words)) < len(words)  # the alternates repeat words
    verdicts = QuotientOracle.verdicts
    calls = []

    def fresh_verdicts(self, words):
        calls.append(len(words))
        return [verdicts(QuotientOracle(self.pres, self.p, self.budget, self.groups), [w])[0]
                for w in words]

    monkeypatch.setattr(QuotientOracle, "verdicts", fresh_verdicts)
    assert verify_theorem(pr, 2, bounds) == batched
    assert sum(calls) == len(words)  # every check went through the patch


@pytest.mark.parametrize("pairs, case, checks", [
    ([(2, 12)], Case.ONE, {"containment", "separation", "moldavanskii"}),
    ([(3, 1)], Case.TWO,
     {"containment", "moldavanskii", "orientation-alternate", "mixed-order-alternate"}),
    ([(3, 1), (5, 1)], Case.TWO,
     {"containment", "orientation-alternate", "mixed-order-alternate"}),
])
def test_verify_makes_one_oracle_pass(monkeypatch, pairs, case, checks):
    verdicts, verdict = QuotientOracle.verdicts, QuotientOracle.verdict
    batches, singles = [], []

    def counted_verdicts(self, words):
        batches.append(list(words))
        return verdicts(self, words)

    def counted_verdict(self, w):
        singles.append(w)
        return verdict(self, w)

    monkeypatch.setattr(QuotientOracle, "verdicts", counted_verdicts)
    monkeypatch.setattr(QuotientOracle, "verdict", counted_verdict)
    rep = verify_theorem(pres(*pairs), 2, Bounds(k_max=1, comm_word_len=4))
    assert rep.classification.case == case
    assert {c.check for c in rep.checks} == checks
    assert batches == [[c.word for c in rep.checks]]
    assert singles == []


def test_verdict_per_oracle_budget():
    pr = pres((2, 12))
    w = generator(0)
    small = QuotientOracle(pr, 2, Budget(max_order=0, s_max=0))
    big = QuotientOracle(pr, 2, Budget(max_order=16, s_max=6))
    assert not small.verdict(w).separated
    assert big.verdict(w) == QuotientOracle(pr, 2, big.budget).verdict(w)
    assert big.verdict(w).separated and big.verdict(w).homs_tested > 0


# --- powers of a: one hom per a-image ---------------------------------------------


def no_representatives(*args):
    raise AssertionError("representatives built for a batch of powers of a")


@st.composite
def power_batches(draw):
    """A presentation at p = 2 or 3 with up to 3 loops, most with n != m, so
    that some T_j(x) is empty and A_P is not all of P, and a batch of powers
    a^k (a^0 = the empty word): small k, multiples of VANISHING (a multiple
    of every target's exponent) give or take 2, and |k| >= 10^30."""
    p = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(1, 3))
    exponent = st.integers(-12, 12).filter(bool)
    loops = [(draw(exponent), draw(exponent)) for _ in range(r)]
    big = st.integers(10**30, 10**31)
    ks = st.one_of(
        st.integers(-40, 40),
        st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(
            lambda t: t[0] * VANISHING + t[1]),
        big, big.map(lambda k: -k),
    )
    words = [generator(0, k) if k else Word()
             for k in draw(st.lists(ks, min_size=1, max_size=6))]
    return p, pres(*loops), words


@settings(max_examples=60, deadline=None)
@given(power_batches())
def test_powers_of_a_match_representatives_and_full_sweep(case):
    """On every catalog target, a batch of powers of a (decided without any
    representative) gets the witnesses of the first hit over the
    representatives and over every hom_arrays row; and each verdict, with its
    homs_tested and max_order, is the full sweep's."""
    p, pr, words = case
    budget = Budget(max_order=FULL_MAX_ORDER[p], s_max=2)
    oracle = QuotientOracle(pr, p, budget)
    catalog = [t for t in oracle.targets if isinstance(t, CatalogHoms)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CatalogHoms, "representatives", no_representatives)
        got = [t.separate(words) for t in catalog]
        verdicts = oracle.verdicts(words)
    for target, witnesses in zip(catalog, got):
        g = target.group
        a_img, t_imgs = hom_arrays(pr, g)
        imgs = target.representatives()
        for w, witness in zip(words, witnesses):
            full = evaluate_word_bulk(w, g, a_img, t_imgs)
            reps = evaluate_word_bulk(w, g, imgs[0], imgs[1:])
            assert witness == first_hit_witness(g, a_img, t_imgs, full)
            assert witness == first_hit_witness(g, imgs[0], imgs[1:], reps)
    for w, v in zip(words, verdicts):
        assert v == full_sweep_verdict(oracle, w)


def test_powers_of_a_examples():
    """Under t a t^-1 = a^3, D8's first hom that does not kill a^2 sends a to
    a rotation r of order 4 and t to a reflection (t r t^-1 = r^-1), not to
    1.  Under t a t^-1 = a^2 only a = 1 has a t-image in D8 (A_P = {1},
    though every x != 1 has x^1 != 1), so no power of a is separated there."""
    d8 = by_name(2)["D8"]
    a, a2 = generator(0), generator(0, 2)
    target = catalog_target(pres((1, 3)), d8)
    (witness,) = target.separate([a2])
    a_img, t_imgs = hom_arrays(pres((1, 3)), d8)
    assert witness == first_hit_witness(
        d8, a_img, t_imgs, evaluate_word_bulk(a2, d8, a_img, t_imgs))
    assert witness["image_t"] != ["1"] and witness["word_image"] != "1"
    target = catalog_target(pres((1, 2)), d8)
    assert len(hom_arrays(pres((1, 2)), d8)[0]) == target.homs == d8.order
    assert target.separate([a, generator(0, 3), generator(0, 10**30 + 1)]) == [None] * 3


@pytest.mark.parametrize("pairs, p", [([(2, 12)], 2), ([(3, 6)], 3), ([(2, 12), (4, 6)], 2)])
def test_case1_verify_builds_no_representatives(monkeypatch, pairs, p):
    """A case-1 verify checks powers of a only (containment, separation and
    the r = 1 Moldavanskii words), so no target walks its orbits or lists
    its axis homs."""
    monkeypatch.setattr("rosegbs.quotients.orbit_homs", no_representatives)
    monkeypatch.setattr(CatalogHoms, "representatives", no_representatives)
    rep = verify_theorem(pres(*pairs), p)
    assert rep.classification.case == Case.ONE and rep.status == "ok"
    assert all(c.word.max_gen() == 0 for c in rep.checks)


def test_case2_verify_walks_each_target_at_most_once(monkeypatch):
    """Verify sends each target one batch, so a target that a word with a
    stable letter reaches walks its orbits once."""
    walked = []

    def recording(group, tables, walk=orbit_homs):
        walked.append(group.name)
        return walk(group, tables)

    monkeypatch.setattr("rosegbs.quotients.orbit_homs", recording)
    rep = verify_theorem(pres((3, 1), (5, 1)), 2, Bounds(k_max=1, comm_word_len=4))
    assert rep.classification.case == Case.TWO
    assert len(walked) >= 5 and len(set(walked)) == len(walked)


# --- orbit representatives ------------------------------------------------------


def test_orbit_homs_match_brute_force():
    # under t a^16 t^-1 = a^16 every pair is a hom into a group of exponent 4
    for name in ("D8", "Q8"):
        g = by_name(2)[name]
        target = catalog_target(pres((16, 16)), g)
        assert target.homs == g.order**2
        least = [
            (x, (y,)) for x, y in itertools.product(range(g.order), repeat=2)
            if (x, y) == min((int(a[x]), int(a[y])) for a in g.automorphisms)
        ]
        imgs = target.representatives()
        assert as_homs(imgs[0], imgs[1:]) == least


def burnside_orbits(g, k):
    """Orbits of Aut(G) on k-tuples: the mean of fix(alpha)^k."""
    fixed = (g.automorphisms == np.arange(g.order)).sum(axis=1).astype(object)
    total = sum(fixed**k)
    assert total % len(fixed) == 0
    return total // len(fixed)


def test_orbit_homs_count_burnside():
    """Under loops (p^4, p^4) every tuple is a hom, so the representatives
    are one per Aut(G)-orbit of (r+1)-tuples."""
    counts = {}
    for p in (2, 3, 5):
        for g in builtin_catalog(p):
            if g.is_abelian:
                continue
            for r in (2, 3):
                target = catalog_target(pres(*[(p**4, p**4)] * r), g)
                assert target.homs == g.order ** (r + 1)
                count = target.representatives().shape[1]
                assert count == burnside_orbits(g, r + 1), (g.name, r)
                counts[g.name, r] = count
    assert counts["He5", 2] == 404 and counts["He5", 3] == 25_299
    assert counts["M125", 2] == 5_395 and counts["M125", 3] == 523_225


def test_orbit_homs_blocks_do_not_matter(monkeypatch):
    g = by_name(3)["He3"]
    pr = pres((3, 3), (2, 5), (9, 9))
    tables = loop_tables(pr, g)
    whole = orbit_homs(g, tables)
    monkeypatch.setattr("rosegbs.quotients._BLOCK", 2 * g.order)  # 2 rows a block
    blocks = orbit_homs(g, tables)
    assert whole.shape[1] > 100
    assert np.array_equal(whole, blocks)


def test_orbit_homs_over_the_budget(monkeypatch):
    g = by_name(2)["D8"]
    tables = loop_tables(pres((16, 16)), g)
    codes = 2 * orbit_homs(g, tables).shape[1]
    monkeypatch.setattr("rosegbs.quotients.MAX_ASSIGNMENTS", codes)
    assert orbit_homs(g, tables) is not None
    monkeypatch.setattr("rosegbs.quotients.MAX_ASSIGNMENTS", codes - 1)
    assert orbit_homs(g, tables) is None
    oracle = QuotientOracle(pres((16, 16)), 2, Budget(max_order=8, s_max=0))
    assert oracle.skipped_groups == ["D8"]
    assert [t.group.name for t in oracle.targets] == ["C2", "C4", "C2x2", "C8",
                                                       "C4xC2", "C2x3", "Q8"]


ORDER_16 = ["C2", "C4", "C2x2", "C8", "C4xC2", "C2x3", "D8", "Q8", "C16", "C4xC4",
            "C8xC2", "C4xC2x2", "C2x4", "D16", "SD16", "Q16", "M16", "D8xC2",
            "Q8xC2", "C4:C4", "V4:C4", "D8*C4"]


@pytest.mark.parametrize("codes, skipped", [
    (30, ["D8", "D16", "SD16", "Q16", "M16", "D8xC2", "Q8xC2", "C4:C4", "V4:C4",
          "D8*C4"]),
    (100, []),
])
def test_budget_walks_in_the_constructor(monkeypatch, codes, skipped):
    """With MAX_ASSIGNMENTS below order^2 * 2 for every non-abelian group of
    order 8 and 16, the constructor walks them all to find the ones over the
    budget, and the report is the one walking every target gave: at 30 codes
    the groups below are skipped (Q8 has few enough representatives), at 100
    none is."""
    monkeypatch.setattr("rosegbs.quotients.MAX_ASSIGNMENTS", codes)
    rep = verify_theorem(pres((16, 16)), 2, Bounds(k_max=1), Budget(max_order=16, s_max=0))
    assert rep.catalog_names == tuple(g for g in ORDER_16 if g not in skipped)
    reason = (f"catalog groups {', '.join(skipped)} skipped: their orbit"
              f" representatives exceed {codes} codes; lower --budget.max-order")
    assert rep.inconclusive == ((reason,) if skipped else ())
    oracle = QuotientOracle(pres((16, 16)), 2, Budget(max_order=16, s_max=0))
    walked = [t.group.name for t in oracle.targets if t.imgs is not None]
    assert walked == [g.name for g in oracle.groups
                      if not g.is_abelian and g.name not in skipped]


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


def bfs_unit_subgroup_order(units, q):
    seen, frontier = {1}, [1]
    while frontier:
        x = frontier.pop()
        for y in ((x * c) % q for c in units):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def test_unit_subgroup_order_matches_bfs():
    rng = random.Random(2024)
    for _ in range(150):
        p = rng.choice([3, 5, 7, 11, 13, 101])
        s = rng.randint(1, 4 if p < 100 else 2)
        q = p**s
        units = [
            rng.choice([c for c in range(1, min(q, 500)) if c % p])
            for _ in range(rng.randint(1, 3))
        ]
        assert _unit_subgroup_order(units, p, s) == bfs_unit_subgroup_order(units, q)
        # the same residues, negated or past q
        shifted = [c + rng.randint(-3, 3) * q for c in units]
        assert _unit_subgroup_order(shifted, p, s) == bfs_unit_subgroup_order(units, q)
        negated = [-c for c in units]
        assert _unit_subgroup_order(negated, p, s) == bfs_unit_subgroup_order(negated, q)
    for s in range(1, 13):  # (Z/2^s)^* = <-1> x <5>, not cyclic for s >= 3
        q = 2**s
        for _ in range(40):
            units = [
                rng.randrange(1, q, 2) + rng.randint(-3, 3) * q
                for _ in range(rng.randint(1, 3))
            ]
            assert _unit_subgroup_order(units, 2, s) == bfs_unit_subgroup_order(units, q)
    assert _unit_subgroup_order([3], 2, 4) == bfs_unit_subgroup_order([3], 16)
    assert _unit_subgroup_order([3], 2, 64) == 2**62


def test_unit_subgroup_order_at_depth():
    # one valuation per generator in closed form, no search over the bits of
    # the order: milliseconds at s = 2048
    s = 2048
    start = time.perf_counter()
    assert _unit_subgroup_order([3], 2, s) == 2 ** (s - 2)
    assert _unit_subgroup_order([5], 2, s) == 2 ** (s - 2)
    assert _unit_subgroup_order([-1, 5], 2, s) == 2 ** (s - 1)
    assert time.perf_counter() - start < 1


def test_unit_orders_in_closed_form_at_depth():
    # a search that peels one factor of p per step with a fresh pow mod p^s
    # takes seconds here; the closed form takes one valuation per unit
    start = time.perf_counter()
    assert _unit_subgroup_order([6, 7], 5, 2048) == 4 * 5**2047
    assert multiplicative_order(2, 5, 2048) == 4 * 5**2047
    assert multiplicative_order(3, 2, 2048) == 2**2046
    assert time.perf_counter() - start < 0.25


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
        assert ref_evaluate(w, c8, g1, (0,)) == int(c8.powers(pair[0])[g1])


# --- membership verdicts ----------------------------------------------------------


def test_membership_defining_relator():
    p = pres((2, 12))
    relator = parse_word("t1 a^2 t1^-1 a^-12", p)
    v = QuotientOracle(p, 2).verdict(relator)
    assert not v.separated and v.homs_tested > 0


def test_membership_case1_spec_example():
    p = pres((2, 12))
    v = QuotientOracle(p, 2).verdict(generator(0))
    assert v.separated
    assert v.witness["target"] == "C2"
    assert v.witness["image_a"] != "1"
    v2 = QuotientOracle(p, 2, Budget(max_order=16, s_max=6)).verdict(generator(0, 2))
    assert not v2.separated


def test_membership_deterministic_witness():
    p = pres((2, 12))
    v1 = QuotientOracle(p, 2).verdict(generator(0))
    v2 = QuotientOracle(p, 2).verdict(generator(0))
    assert v1.witness == v2.witness


def test_membership_monotone_budget():
    p = pres((2, 12))
    small = QuotientOracle(p, 2, Budget(max_order=2, s_max=0)).verdict(generator(0))
    big = QuotientOracle(p, 2, Budget(max_order=16, s_max=6)).verdict(generator(0))
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
