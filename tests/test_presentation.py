import pytest
from hypothesis import given
from hypothesis import strategies as st

from rosegbs.presentation import (
    ParseError,
    PresentationError,
    RoseGbs,
    Word,
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
