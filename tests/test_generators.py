import pytest

from rosegbs.classifier import Case, Orientation, classify
from rosegbs.generators import (
    Bounds,
    MixedOrder,
    case1_generators,
    case2_generators,
    _conjugate_a,
    _gamma2,
    family_mixed,
    np_omega_generators,
    serialize_generators,
)
from rosegbs.presentation import RoseGbs, print_word, reduce


def pres(*pairs):
    return RoseGbs.from_pairs(pairs)


def words_of(entries):
    return {print_word(e.word) for e in entries}


def test_case1_examples():
    gs = np_omega_generators(pres((2, 12), (3, 3)), 2)
    assert gs.case == Case.ONE
    assert words_of(gs.entries) == {"a^2"}
    gs = np_omega_generators(pres((2, 3)), 2)  # xi = 0
    assert words_of(gs.entries) == {"a"}
    with pytest.raises(ValueError):
        case1_generators(classify(pres((3, 1)), 2))


def test_gamma2_family():
    cls = classify(pres((3, 1)), 2)
    assert list(_gamma2(cls, Bounds())) == []  # rank-1 free group is abelian
    cls2 = classify(pres((3, 1), (5, 1)), 2)  # Sigma = 0
    ws = words_of(_gamma2(cls2, Bounds(k_max=1, comm_word_len=4)))
    assert "t1 t2 t1^-1 t2^-1 a t2 t1 t2^-1 t1^-1 a^-1" in ws
    cls3 = classify(pres((2, 2), (2, 6)), 2)  # both loops sigma = tau = 1
    assert cls3.case == Case.TWO and cls3.sigma_total == 2
    ws = words_of(_gamma2(cls3, Bounds(k_max=1, comm_word_len=4)))
    assert "t1 t2 t1^-1 t2^-1 a^4 t2 t1 t2^-1 t1^-1 a^-4" in ws


def test_gamma2_lengths_respected():
    cls = classify(pres((3, 1), (5, 1), (7, 1)), 2)
    for e in _gamma2(cls, Bounds(k_max=2, comm_word_len=6)):
        # the commutator part is the word without the trailing a-power block
        assert e.word.length() <= 2 * 6 + 2 * 1  # [w, a] adds two a-blocks


def test_conjugate_a_family():
    cls = classify(pres((3, 1)), 2)  # Sigma = 0
    ws = words_of(_conjugate_a(cls, Bounds(k_max=1)))
    assert ws == {
        "t1 a t1^-1 a t1 a^-1 t1^-1 a^-1",
        "t1^-1 a t1 a t1^-1 a^-1 t1 a^-1",
    }
    cls2 = classify(pres((3, 12), (2, 5)), 3)  # Sigma = 1
    ws2 = words_of(_conjugate_a(cls2, Bounds(k_max=1)))
    assert "t1 t2^-1 a t2 t1^-1 a^3 t1 t2^-1 a^-1 t2 t1^-1 a^-3" in ws2


def test_mixed_family_examples():
    cls = classify(pres((3, 1)), 2)  # u=3, v=1
    ws = words_of(family_mixed(cls, Bounds(k_max=1)))
    assert ws == {"t1 a^3 t1^-1 a^-1", "t1^-1 a t1 a^-3"}
    cls2 = classify(pres((3, 1), (5, 1)), 2)
    ws2 = words_of(family_mixed(cls2, Bounds(k_max=1)))
    assert "t1 t2 a^15 t2^-1 t1^-1 a^-1" in ws2
    # k = 0 instances reduce away and are dropped
    assert "1" not in ws2


def test_mixed_unit_vector_is_defining_relator_shape():
    # at k = e_i with delta = 1 and Sigma = sigma_i the emitted word is a
    # cyclic rotation of the defining relator
    cls = classify(pres((3, 12)), 3)  # sigma = tau = 1, u=1, v=4
    ws = words_of(family_mixed(cls, Bounds(k_max=1)))
    assert "t1 a^3 t1^-1 a^-12" in ws


def test_mixed_letter_order_switch():
    cls = classify(pres((3, 1), (5, 1)), 2)
    conj = words_of(family_mixed(cls, Bounds(k_max=1), MixedOrder.CONJUGATE))
    verb = words_of(family_mixed(cls, Bounds(k_max=1), MixedOrder.VERBATIM))
    assert "t1 t2 a^15 t2^-1 t1^-1 a^-1" in conj
    assert "t1 t2 a^15 t1^-1 t2^-1 a^-1" in verb
    assert conj != verb


def test_mixed_orientation_switch():
    cls = classify(pres((3, 12)), 3, Orientation.INTRO_VERBATIM)  # u=4, v=1
    ws = words_of(family_mixed(cls, Bounds(k_max=1)))
    assert "t1 a^12 t1^-1 a^-3" in ws


def test_np_omega_case2_superset_of_spec_example():
    gs = np_omega_generators(pres((3, 1)), 2, Bounds(k_max=1))
    ws = words_of(gs.entries)
    assert {
        "t1 a^3 t1^-1 a^-1",
        "t1 a t1^-1 a t1 a^-1 t1^-1 a^-1",
        "t1^-1 a t1 a t1^-1 a^-1 t1 a^-1",
    } <= ws


def test_all_words_nonempty_and_reduced():
    for pairs, p in [(((3, 1), (5, 1)), 2), (((3, 12),), 3), (((2, 2), (4, 4)), 2)]:
        gs = np_omega_generators(pres(*pairs), p, Bounds(k_max=2, comm_word_len=6))
        seen = set()
        for e in gs.entries:
            assert not e.word.is_identity()
            assert reduce(e.word.letters) == e.word
            assert e.word not in seen
            seen.add(e.word)


def test_kmax_monotone_superset():
    for k in (1, 2):
        small = np_omega_generators(pres((3, 1), (5, 1)), 2, Bounds(k_max=k))
        big = np_omega_generators(pres((3, 1), (5, 1)), 2, Bounds(k_max=k + 1))
        assert {e.word for e in small.entries} <= {e.word for e in big.entries}


def test_count_limit_truncation():
    gs = np_omega_generators(pres((3, 1), (5, 1)), 2,
                             Bounds(k_max=2, comm_word_len=6, count_limit=5))
    assert gs.truncated and len(gs.entries) == 5
    # the union is the first count_limit distinct words of the three families
    cls = classify(pres((3, 1), (5, 1), (2, 6)), 2)
    for limit in (1, 7, 40, 512):
        bounds = Bounds(k_max=1, comm_word_len=4, count_limit=limit)
        raw = (list(_gamma2(cls, bounds)) + list(_conjugate_a(cls, bounds))
               + family_mixed(cls, bounds))
        unique = list({e.word: e for e in reversed(raw)}.values())[::-1]
        gs = case2_generators(cls, bounds)
        assert gs.entries == tuple(unique[:limit])
        assert gs.truncated == (len(unique) > limit)


def test_case2_on_case1_input_raises():
    cls = classify(pres((2, 12)), 2)
    with pytest.raises(ValueError):
        case2_generators(cls)
    with pytest.raises(ValueError):
        family_mixed(cls, Bounds())


def test_union_builds_no_member_past_the_cap(monkeypatch):
    import rosegbs.generators as generators

    built = []

    class Counted(generators.GeneratorEntry):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(generators, "GeneratorEntry", Counted)
    # 8 loops t_i a^3 t_i^-1 = a^3: 5^8 members in each k-vector family
    gs = case2_generators(classify(pres(*[(3, 3)] * 8), 2))
    assert gs.truncated and len(gs.entries) == 512
    assert len(built) <= len(gs.entries) + gs.dropped_trivial + 1


def test_serialization_format():
    gs = np_omega_generators(pres((3, 1)), 2, Bounds(k_max=1))
    text = serialize_generators(gs)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# family=")
    assert len(lines) == 2 * len(gs.entries)
    # words parse back
    from rosegbs.presentation import parse_word

    for i in range(1, len(lines), 2):
        assert parse_word(lines[i], pres((3, 1))) in {e.word for e in gs.entries}
