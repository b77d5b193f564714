import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosegbs.presentation import (
    ParseError,
    PresentationError,
    RoseGbs,
    Word,
    britton,
    commutator,
    conjugate,
    generator,
    invert,
    parse_presentation,
    parse_word,
    print_word,
    reduce,
)

PRES2 = parse_presentation("<a,t1,t2 | t1 a^2 t1^-1 = a^12 ; t2 a^3 t2^-1 = a^3>")


def letters(r=2):
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=r),
                  st.integers(min_value=-5, max_value=5)),
        max_size=12,
    )


def words(r=2):
    return letters(r).map(reduce)


def test_parse_presentation_examples():
    p1 = parse_presentation("<a,t1 | t1 a^2 t1^-1 = a^3>")
    assert p1.r == 1 and (p1.loops[0].n, p1.loops[0].m) == (2, 3)
    assert PRES2.r == 2
    assert [(L.n, L.m) for L in PRES2.loops] == [(2, 12), (3, 3)]


def test_parse_presentation_relation_order_free():
    p = parse_presentation("<a,t1,t2 | t2 a^3 t2^-1 = a^3 ; t1 a^2 t1^-1 = a^12>")
    assert [(L.n, L.m) for L in p.loops] == [(2, 12), (3, 3)]


@pytest.mark.parametrize(
    "text",
    [
        "<a,t1 | t1 a^0 t1^-1 = a^3>",  # zero exponent
        "<a,t1,t1 | t1 a^2 t1^-1 = a^3>",  # duplicate letter
        "<a,t1 | t1 a^2 t1^-1 = a^3 ; t1 a^2 t1^-1 = a^3>",  # duplicate relation
        "<a,t1 | a t1 a^-1 = a^3>",  # not HNN shape
        "<a,t1 | t1 a^2 t1^-2 = a^3>",  # exponent must be -1
        "<a,t1,t2 | t1 a^2 t1^-1 = a^3>",  # missing relation for t2
        "<a | >",  # no stable letters
        "<a,t1 | t1 a^2 t2^-1 = a^3>",  # mismatched letter
        "<a,t2 | t2 a^2 t2^-1 = a^3>",  # letters must be t1..tr
        "<a,t1 | t01 a^2 t01^-1 = a^3>",  # t01 is not the name t1
        "<a,t1 | t1 a^2 t1^-1 = a^3> trailing",
    ],
)
def test_parse_presentation_errors(text):
    with pytest.raises(ParseError):
        parse_presentation(text)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_presentation("<a,t1 | t1 a^0 t1^-1 = a^3>")
    assert err.value.pos == 13


def test_parse_word_examples():
    w = parse_word("a^2 t1 a^-1", PRES2)
    assert w.letters == ((0, 2), (1, 1), (0, -1))
    assert parse_word("t1 t1^-1", PRES2) == Word()
    for text in ("t3 a", "t01 a", "a t0"):  # only the exact names a, t1, t2
        with pytest.raises(ParseError, match="unknown generator"):
            parse_word(text, PRES2)
    with pytest.raises(ParseError):
        parse_word("a^0", PRES2)


def test_parse_word_identity_forms():
    assert parse_word("", PRES2) == Word()
    assert parse_word("1", PRES2) == Word()
    assert print_word(Word()) == "1"


def test_reduce_examples():
    assert reduce([(0, 1), (0, -1)]) == Word()
    assert reduce([(1, 2), (1, -1), (0, 3)]).letters == ((1, 1), (0, 3))
    assert reduce([(0, 1), (1, 1), (1, -1), (0, -1)]) == Word()


def test_algebra_examples():
    w = Word(((1, 1), (0, 2)))
    assert invert(w).letters == ((0, -2), (1, -1))
    assert commutator(w, w) == Word()
    a, t1 = generator(0), generator(1)
    assert invert(conjugate(a, t1)) == conjugate(invert(a), t1)
    assert reduce(w.letters + invert(w).letters) == Word()


def test_word_validation():
    with pytest.raises(PresentationError):
        Word(((0, 0),))
    with pytest.raises(PresentationError):
        Word(((0, 1), (0, 2)))


def test_loop_validation():
    with pytest.raises(PresentationError):
        RoseGbs.from_pairs([(0, 3)])
    with pytest.raises(PresentationError):
        RoseGbs.from_pairs([])


@given(letters())
def test_reduce_idempotent(ls):
    w = reduce(ls)
    assert reduce(w.letters) == w


@given(words())
def test_concat_with_inverse_is_identity(w):
    assert reduce(w.letters + invert(w).letters) == Word()
    assert reduce(invert(w).letters + w.letters) == Word()


@given(words())
def test_print_parse_roundtrip(w):
    assert parse_word(print_word(w), PRES2) == w


@given(words(), words())
def test_outputs_reduced(x, y):
    # Word.__post_init__ would reject unreduced letters
    for w in (reduce(x.letters + y.letters), conjugate(x, y), commutator(x, y),
              invert(x)):
        assert isinstance(w, Word)


@given(words(), words())
def test_concat_length_subadditive(x, y):
    assert reduce(x.letters + y.letters).length() <= x.length() + y.length()


def test_abelianised_examples():
    w = parse_word("t1 a^2 t1^-1 a^-1 t2^3", PRES2)
    assert w.abelianised == Word(((0, 1), (2, 3)))
    assert parse_word("t1 a t1^-1 a^-1", PRES2).abelianised == Word()


@given(words())
def test_abelianised_keeps_exponent_sums(w):
    ab = w.abelianised
    assert [g for g, _ in ab.letters] == sorted({g for g, _ in ab.letters})
    for gen in range(3):
        assert sum(e for g, e in ab.letters if g == gen) == sum(
            e for g, e in w.letters if g == gen
        )


# --- Britton's lemma: the word problem in G -------------------------------------


def unit_pinch_form(pres, w):
    """Reference for britton: expand every t run into unit letters, apply the
    leftmost pinch t_i^e a^k t_i^-e (e = +-1, k divisible) one unit letter at
    a time, freely reduce, and start again until no pinch is left."""
    units = [(g, e // abs(e)) if g else (g, e)
             for g, e in w.letters for _ in range(abs(e) if g else 1)]
    while True:
        lt = reduce(units).letters
        for i in range(len(lt) - 2):
            (g1, e1), (g0, k), (g2, e2) = lt[i:i + 3]
            if g0 or g1 != g2 or (e1 > 0) == (e2 > 0):
                continue
            loop = pres.loops[g1 - 1]
            div, mul = (loop.n, loop.m) if e1 > 0 else (loop.m, loop.n)
            if k % div == 0:
                step = 1 if e1 > 0 else -1
                units = [*lt[:i], (g1, e1 - step), (0, k // div * mul),
                         (g2, e2 + step), *lt[i + 3:]]
                units = [x for x in units if x[1]]
                break
        else:
            return Word(lt)


LOOP_EXPONENTS = st.sampled_from([1, -1, 2, -2, 3, 4, -4, 6, 8, 9, -9, 12])


@st.composite
def rose_words(draw):
    """A presentation with one or two loops and a word mixing relator
    conjugates (trivial in G), nests t^e a^k t^-e whose k is a product of
    loop exponents (so that whole runs pinch), and random syllables."""
    pres = RoseGbs.from_pairs(
        draw(st.lists(st.tuples(LOOP_EXPONENTS, LOOP_EXPONENTS), min_size=1, max_size=2))
    )
    r = pres.r
    gens = st.integers(0, r)
    syllables = st.lists(st.tuples(gens, st.integers(-4, 4)), max_size=4).map(reduce)
    parts = []
    for kind in draw(st.lists(st.sampled_from("rns"), min_size=1, max_size=5)):
        i = draw(st.integers(1, r))
        loop = pres.loops[i - 1]
        if kind == "r":
            rel = reduce([(i, 1), (0, loop.n), (i, -1), (0, -loop.m)])
            parts.append(conjugate(rel, draw(syllables)))
        elif kind == "n":
            e = draw(st.integers(-4, 4))
            k = draw(st.sampled_from([1, -1, 2])) * loop.n ** draw(st.integers(0, 4)) \
                * loop.m ** draw(st.integers(0, 4))
            parts.append(reduce([(i, e), (0, k), (i, -e)]))
        else:
            parts.append(draw(syllables))
    return pres, reduce([x for part in parts for x in part.letters])


@settings(max_examples=400, deadline=None)
@given(rose_words())
def test_britton_matches_unit_pinches(case):
    """britton takes the leftmost pinch first, as the reference does, but a
    whole run at a time: the pinch-free forms are equal, and no unit pinch is
    left in britton's."""
    pres, w = case
    got = britton(pres, w)
    assert got == unit_pinch_form(pres, w)
    assert unit_pinch_form(pres, got) == got


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(LOOP_EXPONENTS, LOOP_EXPONENTS), min_size=1, max_size=3),
       st.data())
def test_relator_conjugates_reduce_to_one(pairs, data):
    pres = RoseGbs.from_pairs(pairs)
    conjugators = st.lists(
        st.tuples(st.integers(0, pres.r), st.integers(-3, 3)), max_size=5
    ).map(reduce)
    product = []
    for i in data.draw(st.lists(st.integers(1, pres.r), min_size=1, max_size=4)):
        loop = pres.loops[i - 1]
        rel = reduce([(i, 1), (0, loop.n), (i, -1), (0, -loop.m)])
        if data.draw(st.booleans()):
            rel = invert(rel)
        c = data.draw(conjugators)
        assert britton(pres, conjugate(rel, c)) == Word()
        product += conjugate(rel, c).letters
    assert britton(pres, reduce(product)) == Word()


def test_case1_generator_over_p_is_not_one():
    """In case 1 with xi >= 1, a^(q/p) (q = p^xi) is not 1 in G, alone or
    conjugated and multiplied by relator conjugates; a^q itself is not 1
    either, though it lies in N_omega."""
    from rosegbs.classifier import Case, classify

    checked = 0
    for n, m in itertools.product([2, -2, 4, 6, 8, 9, 12, 18, -27], repeat=2):
        pres = RoseGbs.from_pairs([(n, m), (3, 3)])
        for p in (2, 3):
            cls = classify(pres, p)
            if cls.case != Case.ONE or cls.xi < 1:
                continue
            checked += 1
            q = p**cls.xi
            rel = reduce([(1, 1), (0, n), (1, -1), (0, -m)])
            for c in ([], [(1, 2)], [(2, -1), (1, -3)], [(0, 5), (1, 1)]):
                c = reduce(c)
                w = reduce(conjugate(generator(0, q // p), c).letters
                           + conjugate(rel, invert(c)).letters)
                assert britton(pres, w).letters
                assert britton(pres, conjugate(generator(0, q), c)).letters
    assert checked > 10


def test_britton_examples():
    bs13 = parse_presentation("<a,t1 | t1 a^1 t1^-1 = a^3>")
    for text, want in [
        ("t1 a t1^-1 a^-3", "1"),
        ("t1^-2 a^9 t1^2 a^-1", "1"),
        ("t1^-1 a^2 t1", "t1^-1 a^2 t1"),  # 3 does not divide 2
        ("t1^2 a t1^-1", "t1 a^3"),  # the rest of the run stays
        ("t1^-1 a^3 t1^2 a t1^-1", "a^4"),
        ("t1 a t1^-1 a^-3 t1", "t1"),
        # a^3 a^-3 vanishes, t1 t1^-2 leaves t1^-1, which pinches t1 a again
        ("t1 a t1^2 a t1^-1 a^-3 t1^-2", "a^3"),
    ]:
        assert print_word(britton(bs13, parse_word(text, bs13))) == want, text
    assert britton(PRES2, parse_word("t1 a^2 t1^-1 a^-12", PRES2)) == Word()
    assert britton(PRES2, parse_word("t2 a^3 t1 a^2 t1^-1 t2^-1 a^-15", PRES2)) \
        == Word()


def test_britton_pinches_a_whole_run_at_once():
    """t^-2000 a^(3^2000) t^2000 is a under t a t^-1 = a^3: 2000 pinches,
    taken as one closed-form step (a unit pinch loop would take thousands of
    big-integer divisions)."""
    bs13 = parse_presentation("<a,t1 | t1 a^1 t1^-1 = a^3>")
    w = reduce([(1, -2000), (0, 3**2000), (1, 2000)])
    start = time.perf_counter()
    assert britton(bs13, w) == generator(0)
    assert britton(bs13, invert(w)) == generator(0, -1)
    assert time.perf_counter() - start < 0.1
    # one factor of 3 short: 1999 pinches, then none
    w = reduce([(1, -2000), (0, 3**1999), (1, 2000)])
    assert britton(bs13, w) == reduce([(1, -1), (0, 1), (1, 1)])
