import copy
import functools
import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosegbs.pcgroup import (
    CatalogError,
    MAX_ORDER,
    PcGroup,
    PcPresentation,
    _confluence_draws,
    _confluence_mismatches,
    _live_slots,
    builtin_catalog,
    load_catalog_text,
    parse_catalog,
    random_confluence_check,
)
from rosegbs.presentation import RoseGbs
from rosegbs.quotients import Budget, QuotientOracle, hom_arrays


def by_name(p):
    return {g.name: g for g in builtin_catalog(p)}


# --- scalar references -------------------------------------------------------
# One product at a time, independent of PcGroup.evaluate: the helpers the
# tests compare the library's word evaluation against.


def mult(g, x, y):
    return int(g.table[x, y])


def inverse(g, x):
    return int(g.inv[x])


def collect_code(g, pc_word):
    """Code of a word over g1..gn, by a mult/power fold."""
    acc = 0
    for i, e in pc_word:
        acc = mult(g, acc, int(g.powers(e)[g.generator_code(i)]))
    return acc


def collect(g, pc_word):
    """Normal form (exponent vector) of a word over g1..gn."""
    return g.element_vector(collect_code(g, pc_word))


def element_order(g, x):
    acc, k = x, 1
    while acc != 0:
        acc = mult(g, acc, x)
        k += 1
    return k


def test_builtin_catalog_counts():
    # 1 of order p, 2 of order p^2, 5 of order p^3 (+ 14 of order 16 for p=2)
    assert len(builtin_catalog(2)) == 22
    assert len(builtin_catalog(3)) == 8
    assert len(builtin_catalog(5)) == 8
    orders2 = sorted(g.order for g in builtin_catalog(2))
    assert orders2 == [2, 4, 4] + [8] * 5 + [16] * 14


def test_collect_identity_and_cyclic():
    c4 = by_name(2)["C4"]
    assert collect(c4, []) == (0, 0)
    # in the cyclic group of order p^2, g1^p collects to g2
    assert collect(c4, [(1, 2)]) == (0, 1)
    assert collect(c4, [(1, 4)]) == (0, 0)
    assert element_order(c4, c4.generator_code(1)) == 4


def test_collect_dihedral_example():
    d8 = by_name(2)["D8"]
    s, r = d8.generator_code(1), d8.generator_code(2)
    # g1 g2 g1 g2 must match the table-verified product
    word_val = collect_code(d8, [(1, 1), (2, 1), (1, 1), (2, 1)])
    table_val = mult(d8, mult(d8, mult(d8, s, r), s), r)
    assert word_val == table_val
    # (sr)^2 = 1 in a dihedral group
    assert word_val == 0
    # conjugation inverts the rotation: g1 g2 g1^-1 = g2^-1 = g2 g3
    assert collect_code(d8, [(1, 1), (2, 1), (1, -1)]) == collect_code(
        d8, [(2, 1), (3, 1)]
    )


def test_collect_is_homomorphic():
    q8 = by_name(2)["Q8"]
    words = [
        [(1, 1), (2, 1)],
        [(2, -1), (1, 3)],
        [(3, 1), (1, 1), (2, -2)],
        [],
    ]
    for x, y in itertools.product(words, repeat=2):
        assert collect_code(q8, list(x) + list(y)) == mult(
            q8, collect_code(q8, x), collect_code(q8, y)
        )


def test_known_structure_facts():
    groups = by_name(2)
    involutions = {
        name: sum(1 for x in range(1, g.order) if mult(g, x, x) == 0)
        for name, g in groups.items()
    }
    assert involutions["Q8"] == 1
    assert involutions["Q16"] == 1
    assert involutions["D8"] == 5
    assert involutions["D16"] == 9
    assert involutions["SD16"] == 5
    assert involutions["M16"] == 3
    assert involutions["C2x4"] == 15
    he3 = by_name(3)["He3"]
    assert all(int(he3.powers(3)[x]) == 0 for x in range(27))  # exponent 3
    assert any(mult(he3, x, y) != mult(he3, y, x)
               for x in range(27) for y in range(27))
    m27 = by_name(3)["M27"]
    assert max(element_order(m27, x) for x in range(27)) == 9


def test_inverses_two_sided():
    for g in builtin_catalog(3):
        for x in range(g.order):
            y = inverse(g, x)
            assert mult(g, x, y) == 0 and mult(g, y, x) == 0


def test_power_table():
    g = by_name(2)["D16"]
    r = g.generator_code(2)
    acc = 0
    for k in range(20):
        assert int(g.powers(k)[r]) == acc
        acc = mult(g, acc, r)
    assert int(g.powers(-1)[r]) == inverse(g, r)
    assert int(g.powers(-3)[r]) == inverse(g, int(g.powers(3)[r]))
    assert int(g.powers(10**30)[r]) == int(g.powers(10**30 % g.order)[r])


def test_associativity_exhaustive_small():
    for g in builtin_catalog(2):
        t = g.table
        left = t[t, :]
        right = t[:, t]
        assert np.array_equal(left, right)


def test_swapped_table_entries_rejected():
    """Swapping two entries of a row repeats a value in a column, so the
    table is no group table any more: load-time validation must reject
    every such swap."""
    for p, name in [(2, "C4"), (2, "D8"), (2, "Q8"), (3, "C3x2")]:
        g = by_name(p)[name]
        g._validate()
        for x in range(g.order):
            for y, z in itertools.combinations(range(g.order), 2):
                bad = corrupted(g, x, [y, z], g.table[x, [z, y]])
                with pytest.raises(CatalogError, match=f"group {name}: "):
                    bad._validate()


def test_light_test_needs_every_generator_and_generation():
    """Two non-associative tables that a weaker check would accept.  In C2x2
    with g2 (g1 g2) = (g1 g2) g2 = 1, (x s) y = x (s y) holds for s = g1 but
    not for s = g2.  In C3 with g1 g1 = 1, it holds for the one generator
    g1, but g1 no longer generates g1^2, and (g1^2 g1^2) g1 = g1 while
    g1^2 (g1^2 g1) = 1: only the check that every normal form multiplies out
    to itself catches that."""

    def light(t, s):
        return np.array_equal(t[t[:, s]], t[:, t[s]])

    c2x2 = by_name(2)["C2x2"]
    g1, g2 = c2x2.generator_code(1), c2x2.generator_code(2)
    bad = corrupted(c2x2, [g2, g1 + g2], [g1 + g2, g2], 0)
    assert light(bad.table, g1) and not light(bad.table, g2)
    with pytest.raises(CatalogError, match=r"associativity fails at \(.*, g2, .*\)"):
        bad._validate()

    c3 = by_name(3)["C3"]
    bad = corrupted(c3, [1, 1, 2, 2], [1, 2, 1, 2], [0, 2, 2, 0])
    t = bad.table
    assert light(t, 1) and t[t[2, 2], 1] != t[2, t[2, 1]]
    with pytest.raises(CatalogError, match=r"normal form of g1\^2 does not"):
        bad._validate()


def test_light_test_rejects_every_non_associative_table():
    """Single corrupted entries of every group up to order 27: whenever the
    corrupted table has an identity but is not associative (checked on all
    order^3 triples), validation must fail."""
    rng = random.Random(5)
    rejected = 0
    for g in all_groups():
        if g.order > 27:
            continue
        elems = np.arange(g.order)
        for _ in range(40):
            x, y = rng.randrange(1, g.order), rng.randrange(1, g.order)
            value = (g.table[x, y] + rng.randrange(1, g.order)) % g.order
            bad = corrupted(g, x, y, value)
            t = bad.table
            assert np.array_equal(t[0], elems) and np.array_equal(t[:, 0], elems)
            if not np.array_equal(t[t], t[:, t]):
                with pytest.raises(CatalogError):
                    bad._validate()
                rejected += 1
    assert rejected > 1000


def test_intercalate_swap_rejected_at_order_1024():
    """In E1024 the entries at rows 3, 99 and columns 5, 101 hold two values
    crosswise (an intercalate).  Swapping them keeps a Latin square with an
    identity but breaks associativity on few triples, such as x = g9 g10,
    s = g1, y = g1 g8 g10: x (s y) reads the swapped entry at row 3, column
    5, and (x s) y an intact one."""
    g = PcGroup(PcPresentation("E1024", 2, 10))
    rows, cols = [3, 3, 99, 99], [5, 101, 5, 101]
    bad = corrupted(g, rows, cols, g.table[rows, [101, 5, 101, 5]])
    t = bad.table
    assert all(len(set(line)) == g.order for line in (*t[rows], *t[:, cols].T))
    with pytest.raises(CatalogError, match=r"associativity fails at "
                       r"\(g9 g10, g1, g1 g8 g10\)"):
        bad._validate()


def test_validation_memory_is_blocked():
    """Light's test compares row blocks, not order^2 entries at once (16 MB
    per side at order 2^11)."""
    import tracemalloc

    g = PcGroup(PcPresentation("E2048", 2, 11))
    tracemalloc.start()
    try:
        g._validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


def test_confluence_checks_pass():
    for p in (2, 3, 5):
        for g in builtin_catalog(p):
            assert random_confluence_check(g, 200, seed=99) == 200
            assert random_confluence_check(g, 0, seed=99) == 0


def test_confluence_check_rejects_negative_count():
    with pytest.raises(ValueError):
        random_confluence_check(by_name(2)["D8"], -1, seed=99)


def test_confluence_check_trivial_group():
    (trivial,) = load_catalog_text("group T p=2 n=0\nend\n")
    assert random_confluence_check(trivial, 50, seed=99) == 50


def draws(g, n_words, seed):
    """All chunks of _confluence_draws joined, one row per word."""
    return [np.concatenate(c) for c in zip(*_confluence_draws(g, n_words, seed))]


def test_confluence_draws_distribution():
    g = by_name(5)["He5"]
    lengths, gens, exps, merges = draws(g, 5000, seed=7)
    assert set(lengths) == set(range(1, 11))
    letters = np.arange(10) < lengths[:, None]
    assert set(gens[letters]) == {1, 2, 3}
    assert set(exps[letters]) == set(range(-10, 11)) - {0}
    assert not gens[~letters].any() and not exps[~letters].any()
    pairs_left = lengths[:, None] - 1 - np.arange(9)
    assert (merges < np.maximum(pairs_left, 1)).all() and (merges >= 0).all()
    assert set(merges[pairs_left == 9]) == set(range(9))
    again = draws(g, 5000, seed=7)
    assert all(map(np.array_equal, again, (lengths, gens, exps, merges)))


def scalar_replay(g, n_words, seed):
    """Replay every drawn word one letter and one merge at a time: the left
    fold by collect_code, the bracketing by mult.  Yields each word as a
    letter list, with whether its two values differ."""
    lengths, gens, exps, merges = draws(g, n_words, seed)
    for w in range(n_words):
        n = lengths[w]
        letters = [(int(x), int(e)) for x, e in zip(gens[w, :n], exps[w, :n])]
        tree = [int(g.powers(e)[g.generator_code(x)]) for x, e in letters]
        for i in merges[w, : n - 1]:
            x = tree.pop(i)
            tree[i] = mult(g, x, tree[i])
        yield letters, collect_code(g, letters) != tree[0]


def first_mismatch_scalar(g, n_words, seed):
    """The first word of scalar_replay whose two values differ, or None."""
    return next((letters for letters, bad in scalar_replay(g, n_words, seed) if bad), None)


def corrupted(g, rows, cols, values):
    """A copy of g whose table differs at (rows, cols); _powers is kept."""
    bad = copy.copy(g)
    bad.table = g.table.copy()
    bad.table[rows, cols] = values
    return bad


# Groups at larger primes, where a letter's index g * (4p + 1) no longer fits
# the int8 of the drawn generators (p >= 11 with n = 3, p >= 17 with n = 2,
# p >= 37 with n = 1).
WIDE_LETTER_GROUPS = {
    "He11": "group He11 p=11 n=3\ncomm 2 1 = g3\nend\n",
    "C289": "group C289 p=17 n=2\npow 1 = g2\nend\n",
    "C31x2": "group C31x2 p=31 n=2\nend\n",
    "C37": "group C37 p=37 n=1\nend\n",
}


def group_named(p, name):
    if name in WIDE_LETTER_GROUPS:
        (g,) = load_catalog_text(WIDE_LETTER_GROUPS[name])
        return g
    return by_name(p)[name]


@pytest.mark.parametrize("p, name", [(p, g.name) for p in (2, 3, 5)
                                     for g in builtin_catalog(p) if g.order >= 4]
                         + [(11, "He11"), (17, "C289"), (31, "C31x2"), (37, "C37")])
def test_confluence_check_matches_scalar_replay(p, name):
    g = group_named(p, name)
    rng = random.Random(name)
    outcomes = set()
    for seed in range(12):
        x, y = rng.randrange(1, g.order), rng.randrange(1, g.order)
        bad = corrupted(g, x, y, (g.table[x, y] + rng.randrange(1, g.order)) % g.order)
        letters = first_mismatch_scalar(bad, 30, seed)
        if letters is None:
            assert random_confluence_check(bad, 30, seed) == 30
        else:
            with pytest.raises(CatalogError, match="mismatch on") as info:
                random_confluence_check(bad, 30, seed)
            assert str(info.value).endswith(f"on {letters}")
        outcomes.add(letters is None)
    if name in ("D8", "Q8"):  # some corruptions escape 30 words, some do not
        assert outcomes == {True, False}


def test_confluence_check_corruption_met_only_by_a_merge():
    """A table entry that some bracketing merge multiplies but no left fold
    does (padding products included): the check must still fail, on the word
    the scalar replay names."""
    g = by_name(2)["D8"]
    n_words, seed = 30, 5
    lengths, gens, exps, merges = draws(g, n_words, seed)
    fold_pairs, merge_pairs = set(), set()
    for w in range(n_words):
        terms = [int(g.powers(e)[g.generator_code(x)]) if x else 0
                 for x, e in zip(gens[w], exps[w])]
        acc = terms[0]
        for y in terms[1:]:
            fold_pairs.add((acc, y))
            acc = mult(g, acc, y)
        for i in merges[w]:
            x = terms.pop(i)
            merge_pairs.add((x, terms[i]))
            terms[i] = mult(g, x, terms[i])
    x, y = min((x, y) for x, y in merge_pairs - fold_pairs if x and y)
    bad = corrupted(g, x, y, (g.table[x, y] + 1) % g.order)
    letters = first_mismatch_scalar(bad, n_words, seed)
    assert letters is not None
    with pytest.raises(CatalogError, match="mismatch on") as info:
        random_confluence_check(bad, n_words, seed)
    assert str(info.value).endswith(f"on {letters}")


def test_live_slots_table():
    slots = _live_slots()
    for mask in range(2**10):
        bits = [slot for slot in range(10) if mask >> slot & 1]
        assert slots[mask, :len(bits)].tolist() == bits, mask


@pytest.mark.parametrize("name", sorted(WIDE_LETTER_GROUPS))
def test_confluence_check_corrupted_row_at_larger_primes(name):
    """A corrupted row of g_1 at a prime where letter indices overflow int8:
    every word is read with its own letters, so the first bad word and the
    message equal the scalar replay's, and the intact table passes."""
    g = group_named(None, name)
    g1 = g.generator_code(1)
    bad = corrupted(g, g1, slice(None), np.roll(g.table[g1], 1))
    for seed in range(3):
        assert random_confluence_check(g, 1000, seed) == 1000
        letters = first_mismatch_scalar(bad, 200, seed)
        assert letters is not None
        with pytest.raises(CatalogError, match="mismatch on") as info:
            random_confluence_check(bad, 200, seed)
        assert str(info.value).endswith(f"on {letters}")


def test_confluence_check_across_a_chunk_boundary():
    """2^16 + 3 words are checked in two chunks: on a corrupted D8 every
    word's outcome, and the first bad word, equal the scalar replay's."""
    g = by_name(2)["D8"]
    n_words, seed = 2**16 + 3, 4
    bad = corrupted(g, 3, 5, (g.table[3, 5] + 1) % g.order)
    want = [mismatch for _, mismatch in scalar_replay(bad, n_words, seed)]
    assert any(want[:2**16]) and not all(want)
    # letters[x, e + 2p] = g_x^e, g_0 = 1
    letters = np.array([[collect_code(bad, [(x, e)] if x else [])
                         for e in range(-2 * g.p, 2 * g.p + 1)]
                        for x in range(g.ngens + 1)], dtype=np.int32)
    chunks = list(_confluence_draws(bad, n_words, seed))
    assert [len(c[0]) for c in chunks] == [2**16, 3]
    got = np.concatenate([_confluence_mismatches(bad.table, letters, _live_slots(), *c[1:])
                          for c in chunks])
    assert got.tolist() == want
    with pytest.raises(CatalogError, match="mismatch on") as info:
        random_confluence_check(bad, n_words, seed)
    assert str(info.value).endswith(f"on {first_mismatch_scalar(bad, n_words, seed)}")


def test_confluence_check_first_bad_word_in_a_later_chunk(monkeypatch):
    """With chunks of 7 words, the first bad word often lies past the first
    chunk: the check still names the scalar replay's first bad word."""
    monkeypatch.setattr("rosegbs.pcgroup._CONFLUENCE_CHUNK", 7)
    bad = corrupted(by_name(2)["D8"], 3, 5, 0)
    firsts = []
    for seed in range(12):
        replay = list(scalar_replay(bad, 30, seed))
        first = next((w for w, (_, mismatch) in enumerate(replay) if mismatch), None)
        if first is None:
            assert random_confluence_check(bad, 30, seed) == 30
            continue
        with pytest.raises(CatalogError, match="mismatch on") as info:
            random_confluence_check(bad, 30, seed)
        assert str(info.value).endswith(f"on {replay[first][0]}")
        firsts.append(first)
    assert max(firsts) >= 7, firsts


def test_confluence_check_detects_corrupted_row():
    he5 = by_name(5)["He5"]
    g1 = he5.generator_code(1)
    bad = corrupted(he5, g1, slice(None), np.roll(he5.table[g1], 1))
    for seed in range(5):
        assert random_confluence_check(he5, 1000, seed) == 1000
        with pytest.raises(CatalogError, match="group He5: normal form mismatch"):
            random_confluence_check(bad, 1000, seed)


def test_parse_catalog_errors():
    with pytest.raises(CatalogError):
        parse_catalog("group X p=2 n=1\n")  # not ended
    with pytest.raises(CatalogError):
        parse_catalog("pow 1 = g2\n")  # outside a group
    with pytest.raises(CatalogError):
        parse_catalog("group X p=2 n=2\nbogus\nend\n")
    with pytest.raises(CatalogError):
        parse_catalog("group X p=2 n=2\npow 1 = g2^0\nend\n")


def test_shape_validation():
    # pow word must use strictly higher generators
    with pytest.raises(CatalogError):
        PcGroup(PcPresentation("bad", 2, 2, pow_words={1: ((1, 1),)}))
    with pytest.raises(CatalogError):
        PcGroup(PcPresentation("bad", 2, 2, comm_words={(2, 1): ((1, 1),)}))
    with pytest.raises(CatalogError, match="^group bad: 4 is not prime$"):
        PcGroup(PcPresentation("bad", 4, 1))
    with pytest.raises(CatalogError):
        PcGroup(PcPresentation("bad", 2, 2, comm_words={(1, 2): ((2, 1),)}))


def test_prime_bound_refused_before_trial_division():
    # 2^61 - 1 is prime, so the error names the bound, not primality
    with pytest.raises(CatalogError, match=r"^group X: p must be at most 2\^31, got "
                       "2305843009213693951$"):
        load_catalog_text("group X p=2305843009213693951 n=1\nend\n")


def test_order_cap_refused_before_any_table(monkeypatch):
    assert MAX_ORDER == 2**11
    monkeypatch.setattr(PcGroup, "_build_table", None)  # calling it would fail
    big = PcPresentation("E4096", 2, 12)
    with pytest.raises(CatalogError, match="exceeds the supported maximum"):
        big.validate_shape()
    with pytest.raises(CatalogError, match="exceeds the supported maximum"):
        PcGroup(big)


def test_order_cap_refused_before_the_power():
    # 3^(10^7) alone takes seconds to compute; the generator count is refused
    # first, with the same message
    start = time.perf_counter()
    with pytest.raises(CatalogError, match=r"^group X: order 3\^10000000 exceeds "
                       "the supported maximum 2048$"):
        PcPresentation("X", 3, 10**7).validate_shape()
    assert time.perf_counter() - start < 0.1
    with pytest.raises(CatalogError, match=r"order 2\^12 exceeds"):
        PcPresentation("X", 2, 12).validate_shape()
    PcPresentation("X", 2, 11).validate_shape()


def test_large_exponents_load():
    # a letter's exponent is reduced modulo the tail subgroup's order before
    # the build multiplies, so its size costs nothing
    c4 = load_catalog_text("group C4 p=2 n=2\npow 1 = g2\nend\n")[0].table
    start = time.perf_counter()
    [g] = load_catalog_text("group C4 p=2 n=2\npow 1 = g2^10000001\nend\n")
    assert time.perf_counter() - start < 0.1
    assert np.array_equal(g.table, c4)
    for e in (10**30 + 1, -(10**30 + 1)):
        [g] = load_catalog_text(f"group C4 p=2 n=2\npow 1 = g2^{e}\nend\n")
        assert g.exponent == 4 and np.array_equal(g.table, c4)


def test_inconsistent_presentation_rejected():
    # [g2, g1] = g2 forces conjugation by g1 to kill g2: not a bijection
    bad = "group bad p=3 n=2\ncomm 2 1 = g2\nend\n"
    with pytest.raises(CatalogError):
        load_catalog_text(bad)


def ref_build_table(pres):
    """The nested-list builder PcGroup._build_table replaced, one entry at a
    time: the reference the array build is compared against."""
    p, n = pres.p, pres.ngens
    tables = [None] * (n + 1)
    tables[n] = [[0]]
    for level in range(n - 1, -1, -1):
        sub = tables[level + 1]
        size1 = p ** (n - level - 1)

        def mult1(x, y):
            return sub[x][y]

        def inv1(x):
            for y in range(size1):
                if sub[x][y] == 0 and sub[y][x] == 0:
                    return y
            raise CatalogError(
                f"group {pres.name}: no inverse at level {level + 1};"
                " inconsistent relations"
            )

        def ev1(word):
            acc = 0
            for g, e in word:
                base = p ** (n - g)
                if e < 0:
                    base, e = inv1(base), -e
                for _ in range(e):
                    acc = mult1(acc, base)
            return acc

        psi_gen = {}
        for k in range(level + 1, n):
            c_word = pres.comm_words.get((k + 1, level + 1), ())
            psi_gen[k] = mult1(inv1(ev1(c_word)), p ** (n - 1 - k))
        psi = [0] * size1
        for x in range(size1):
            img, rest = 0, x
            for k in range(level + 1, n):
                e, rest = divmod(rest, p ** (n - 1 - k))
                for _ in range(e):
                    img = mult1(img, psi_gen[k])
            psi[x] = img
        if sorted(psi) != list(range(size1)):
            raise CatalogError(
                f"group {pres.name}: conjugation by g{level + 1} is not a"
                " bijection; inconsistent relations"
            )
        phi = [0] * size1
        for x, y in enumerate(psi):
            phi[y] = x
        phi_pows = [list(range(size1))]
        for _ in range(p - 1):
            phi_pows.append([phi[x] for x in phi_pows[-1]])
        p_elt = ev1(pres.pow_words.get(level + 1, ()))
        size = p * size1
        table = [[0] * size for _ in range(size)]
        for u in range(size):
            au, xu = divmod(u, size1)
            for v in range(size):
                bv, yv = divmod(v, size1)
                w = sub[phi_pows[bv][xu]][yv]
                e = au + bv
                if e >= p:
                    e -= p
                    w = sub[p_elt][w]
                table[u][v] = e * size1 + w
        tables[level] = table
    return tables[0]


class RefPcGroup(PcGroup):
    """PcGroup with the reference table build, a per-row inverse search and
    a scalar relation check."""

    def _build_table(self, pres):
        return np.asarray(ref_build_table(pres), dtype=np.int32)

    def _build_inverses(self):
        inv = np.full(self.order, -1, dtype=np.int32)
        for x in range(self.order):
            ys = np.nonzero(self.table[x] == 0)[0]
            if len(ys) != 1 or self.table[ys[0], x] != 0:
                raise CatalogError(
                    f"group {self.name}: element {self.element_str(x)} lacks a"
                    " unique two-sided inverse"
                )
            inv[x] = ys[0]
        return inv

    def _check_relations(self):
        p, n, pres = self.p, self.ngens, self.presentation
        for i in range(1, n + 1):
            gi = self.generator_code(i)
            rhs = collect_code(self, pres.pow_words.get(i, ()))
            if int(self.powers(p)[gi]) != rhs:
                raise CatalogError(f"group {self.name}: power relation for g{i} violated")
        for j in range(2, n + 1):
            for i in range(1, j):
                gj, gi = self.generator_code(j), self.generator_code(i)
                lhs = mult(self, mult(self, mult(self, gj, gi), inverse(self, gj)),
                           inverse(self, gi))
                if lhs != collect_code(self, pres.comm_words.get((j, i), ())):
                    raise CatalogError(
                        f"group {self.name}: commutator relation [g{j}, g{i}] violated"
                    )


EXTRA_PRESENTATIONS = """
group E256 p=2 n=8
end
group D8xC2^4 p=2 n=7
pow 2 = g3
comm 2 1 = g3
end
group 2^1+6 p=2 n=7
comm 4 1 = g7
comm 5 2 = g7
comm 6 3 = g7
end
group He3' p=3 n=3
pow 1 = g3^-1
comm 2 1 = g3^-1
end
group G81 p=3 n=4
pow 1 = g4^-1
comm 2 1 = g3^-1
comm 3 1 = g4
end
"""


@functools.cache
def extra_groups():
    return [PcGroup(pres) for pres in parse_catalog(EXTRA_PRESENTATIONS)]


def test_array_build_matches_reference():
    for g in all_groups() + extra_groups():
        table = g._build_table(g.presentation)
        assert table.dtype == np.int32
        assert np.array_equal(table, ref_build_table(g.presentation)), g.name


def load_outcome(cls, pres):
    """(table, inv) of cls(pres), or the CatalogError message it raises."""
    try:
        g = cls(pres)
    except CatalogError as err:
        return str(err)
    return g.table.tolist(), g.inv.tolist()


def relation_outcome(cls, g):
    """The CatalogError message of cls._check_relations on g, or None."""
    try:
        cls._check_relations(g)
    except CatalogError as err:
        return str(err)
    return None


REJECTIONS = ("is not a bijection", "no inverse at level",
              "lacks a unique two-sided inverse", "associativity fails")


def test_corrupted_presentations_match_reference():
    # seeded random extra pow/comm words on the small shipped groups, plus one
    # whose level-1 subgroup lacks an inverse the build needs (rare at random)
    rng = random.Random(2026)
    small = [g.presentation for g in all_groups() if 2 <= g.ngens and g.order <= 27]
    corpus = parse_catalog(
        "group M27 p=3 n=3\npow 1 = g3^2 g2^-1\npow 2 = g3\n"
        "comm 2 1 = g3^2\ncomm 3 2 = g3^-2 g3\nend\n"
    )
    for _ in range(300):
        pres = copy.deepcopy(rng.choice(small))
        p, n = pres.p, pres.ngens
        for _ in range(rng.randint(1, 2)):
            i = rng.randint(1, n - 1)
            gens = range(i + 1, n + 1)
            word = tuple((rng.choice(gens), rng.choice([-2, -1, 1, 2, p - 1]))
                         for _ in range(rng.randint(1, 3)))
            if rng.random() < 0.5:
                pres.pow_words[i] = word
            else:
                pres.comm_words[(rng.randint(i + 1, n), i)] = word
        corpus.append(pres)
    messages = []
    for pres in corpus:
        expected = load_outcome(RefPcGroup, pres)
        assert load_outcome(PcGroup, pres) == expected, pres
        if isinstance(expected, str):
            messages.append(expected)
    assert 0 < len(messages) < len(corpus)
    assert {kind for kind in REJECTIONS for m in messages if kind in m} == set(REJECTIONS)
    # a table built from the shipped relations never violates them, so the
    # relation check meets the corrupted words against the shipped tables
    shipped = {(g.p, g.name): g for g in all_groups()}
    violated = []
    for pres in corpus:
        stale = copy.copy(shipped[pres.p, pres.name])
        stale.presentation = pres
        expected = relation_outcome(RefPcGroup, stale)
        assert relation_outcome(PcGroup, stale) == expected, pres
        violated += [expected] if expected else []
    assert any("power relation" in m for m in violated)
    assert any("commutator relation" in m for m in violated)


def ref_pow_table(g):
    """Column k maps every code x to x^k, for k = 0..order-1, by the left fold
    x^k = x^(k-1) x: the order x order table PcGroup.powers replaced."""
    n = g.order
    pt = np.zeros((n, n), dtype=np.int32)
    elems = np.arange(n)
    for k in range(1, n):
        pt[:, k] = g.table[pt[:, k - 1], elems]
    return pt


def assert_powers_match_reference(g):
    ref = ref_pow_table(g)
    for e in [*range(-2 * g.order, 2 * g.order + 1), 10**30, -(10**30)]:
        assert np.array_equal(g.powers(e), ref[:, e % g.order]), (g.name, e)


def test_powers_match_reference():
    for g in all_groups() + extra_groups():
        assert_powers_match_reference(g)


def test_powers_match_reference_on_corrupted_tables():
    # single corrupted entries, some in the identity row or column, so that
    # some tables stop early, at a divisor of the order, and some never do
    rng = random.Random(9)
    exponents = set()
    for g in all_groups():
        if g.order > 27:
            continue
        for _ in range(8):
            x, y = rng.choice([0, rng.randrange(g.order)]), rng.randrange(g.order)
            bad = corrupted(g, x, y, rng.randrange(g.order))
            bad._powers = bad._build_powers()
            assert g.order % len(bad._powers) == 0
            assert_powers_match_reference(bad)
            exponents.add(len(bad._powers) == g.order)
    assert exponents == {True, False}


def test_power_map_is_exponent_sized():
    exponents = {(2, "C16"): 16, (2, "Q8"): 4, (3, "He3"): 3, (5, "He5"): 5,
                 (5, "M125"): 25}
    for (p, name), exponent in exponents.items():
        assert len(by_name(p)[name]._powers) == exponent, name
    e2048 = PcGroup(PcPresentation("E2048", 2, 11))
    assert len(e2048._powers) == 2
    assert e2048._powers.nbytes <= 16 * 1024


def ref_build_powers(g):
    """Power rows x^k = x^(k-1) x, one 2-D fancy-index gather per row, up to
    the exponent: the build PcGroup._build_powers replaced."""
    n = g.order
    elems = np.arange(n)
    pw = np.zeros((n, n), dtype=np.int32)
    for k in range(1, n):
        pw[k] = g.table[pw[k - 1], elems]
        if n % k == 0 and not pw[k].any():
            return pw[:k]
    return pw


def test_power_rows_match_row_by_row_build():
    """On every shipped group and on the three order-2^11 groups of the CI
    catalog step (C2048 needs 2,047 rows), the rows equal the row-by-row
    build's, exponent-sized."""
    cyclic = PcPresentation("C2048", 2, 11, {i: ((i + 1, 1),) for i in range(1, 11)})
    extraspecial = PcPresentation(
        "2^1+10", 2, 11, comm_words={(i + 5, i): ((11, 1),) for i in range(1, 6)}
    )
    big = [PcGroup(pres) for pres in
           (cyclic, PcPresentation("E2048", 2, 11), extraspecial)]
    assert [g.exponent for g in big] == [2048, 2, 4]
    for g in all_groups() + big:
        assert np.array_equal(g._powers, ref_build_powers(g)), g.name


def test_max_order_groups_load():
    elementary = PcPresentation("E2048", 2, 11)
    # extraspecial 2^(1+10): [y_i, x_i] = z for x_i = g_i, y_i = g_(i+5), z = g11
    extraspecial = PcPresentation(
        "2^1+10", 2, 11, comm_words={(i + 5, i): ((11, 1),) for i in range(1, 6)}
    )
    for pres in (elementary, extraspecial):
        g = PcGroup(pres)
        assert g.order == MAX_ORDER
        assert np.array_equal(g.table[g.inv, np.arange(g.order)], np.zeros(g.order))
    assert not g.is_abelian


# --- word evaluation -------------------------------------------------------------


def ref_power(g, x, e):
    """x^e by square-and-multiply, with x^-1 from the inverse table."""
    if e < 0:
        x, e = inverse(g, x), -e
    acc = 0
    while e:
        if e & 1:
            acc = mult(g, acc, x)
        x, e = mult(g, x, x), e >> 1
    return acc


def ref_fold(g, letters, images):
    """Image of the word over (i, e) letters when i maps to images[i]."""
    acc = 0
    for i, e in letters:
        acc = mult(g, acc, ref_power(g, images[i], e))
    return acc


@st.composite
def words_and_images(draw):
    """A shipped or extra group, up to 3 images (each a code or an array that
    broadcasts with the others) and a word over them with exponents that are
    negative, at least the group's exponent E, or +-10^30."""
    g = draw(st.sampled_from(all_groups() + extra_groups()))
    e_max = len(g._powers)
    shapes = draw(st.lists(st.sampled_from([(), (2, 1), (1, 3), (2, 3)]),
                           min_size=1, max_size=3))
    code = st.integers(0, g.order - 1)
    images = [
        draw(code) if not shape else np.array(
            draw(st.lists(code, min_size=math.prod(shape), max_size=math.prod(shape))),
            dtype=np.int32).reshape(shape)
        for shape in shapes
    ]
    exps = st.one_of(st.integers(-3 * e_max, 3 * e_max), st.integers(e_max, 10**6),
                     st.sampled_from([10**30, -(10**30)]))
    letters = draw(st.lists(st.tuples(st.integers(0, len(images) - 1), exps),
                            max_size=8))
    return g, letters, images


@settings(max_examples=150, deadline=None)
@given(words_and_images())
def test_evaluate_matches_scalar_fold(case):
    g, letters, images = case
    out = g.evaluate(letters, images)
    assert out.dtype == np.int32
    assert out.shape == np.broadcast_shapes(*(np.shape(images[i]) for i, _ in letters))
    full = np.broadcast_shapes(*map(np.shape, images))
    expected = [
        ref_fold(g, letters, [int(np.broadcast_to(x, full)[ix]) for x in images])
        for ix in np.ndindex(full)
    ]
    assert np.broadcast_to(out, full).ravel().tolist() == expected


def test_relations_in_check_order():
    for g in all_groups() + extra_groups():
        n, pres = g.ngens, g.presentation
        rels = g._relations()
        assert len(rels) == n + n * (n - 1) // 2
        powers = [(f"power relation for g{i}", ((i, g.p),), pres.pow_words.get(i, ()))
                  for i in range(1, n + 1)]
        comms = [(f"commutator relation [g{j}, g{i}]",
                  ((j, 1), (i, 1), (j, -1), (i, -1)), pres.comm_words.get((j, i), ()))
                 for j in range(2, n + 1) for i in range(1, j)]
        assert rels == powers + comms, g.name
        gens = [0] + [g.generator_code(i) for i in range(1, n + 1)]
        for _, lhs, rhs in rels:
            assert g.evaluate(lhs, gens) == g.evaluate(rhs, gens) == collect_code(g, rhs)


def test_empty_catalog_warns():
    with pytest.warns(UserWarning):
        assert load_catalog_text("# nothing here\n") == []


def test_load_catalog_roundtrip(tmp_path):
    from rosegbs.pcgroup import load_catalog

    path = tmp_path / "cat.txt"
    path.write_text("group C9 p=3 n=2\npow 1 = g2\nend\n")
    (g,) = load_catalog(str(path))
    assert g.order == 9 and element_order(g, g.generator_code(1)) == 9


def test_element_str():
    g = by_name(2)["D8"]
    assert g.element_str(0) == "1"
    code = collect_code(g, [(1, 1), (3, 1)])
    assert g.element_str(code) == "g1 g3"


def test_synthesized_catalog_for_other_primes():
    with pytest.warns(UserWarning):
        groups = builtin_catalog(7)
    assert [g.order for g in groups] == [7, 49, 49]


# --- automorphisms -------------------------------------------------------------

# |Aut(G)| of every non-abelian catalog group
AUT_ORDERS = {
    "D8": 8, "Q8": 24, "D16": 32, "SD16": 16, "Q16": 32, "M16": 16,
    "D8xC2": 64, "Q8xC2": 192, "C4:C4": 32, "V4:C4": 32, "D8*C4": 48,
    "He3": 432, "M27": 54, "He5": 12000, "M125": 500,
}


def all_groups():
    return [g for p in (2, 3, 5) for g in builtin_catalog(p)]


def test_abelian_flag():
    abelian = [g.name for g in all_groups() if g.is_abelian]
    assert len(abelian) == 23
    assert sorted(g.name for g in all_groups() if not g.is_abelian) == sorted(
        AUT_ORDERS
    )
    assert all(name.startswith("C") and ":" not in name for name in abelian)


def test_automorphism_orders():
    orders = {g.name: len(g.automorphisms) for g in all_groups() if not g.is_abelian}
    assert orders == AUT_ORDERS
    # abelian groups are never reduced by orbits, but the table is exact too
    small_abelian = {"C2": 1, "C8": 4, "C2x2": 6, "C2x3": 168, "C3x2": 48, "C25": 20}
    groups = {g.name: g for g in all_groups()}
    assert {name: len(groups[name].automorphisms) for name in small_abelian} == (
        small_abelian
    )


def test_automorphisms_are_bijective_homs():
    for g in all_groups():
        if g.is_abelian:
            continue
        auts = g.automorphisms.astype(np.int64)
        assert auts.dtype == np.int64 and g.automorphisms.dtype == np.uint8
        assert len(np.unique(auts, axis=0)) == len(auts)
        assert (auts == np.arange(g.order)).all(axis=1).any()  # the identity
        assert (np.sort(auts, axis=1) == np.arange(g.order)).all()
        for chunk in np.array_split(auts, -(-len(auts) // 500)):
            # alpha(x y) == alpha(x) alpha(y) for every x, y
            lhs = chunk[:, g.table]
            rhs = g.table[chunk[:, :, None], chunk[:, None, :]]
            assert np.array_equal(lhs, rhs), g.name


def test_automorphisms_identity_only_over_the_cap(monkeypatch):
    monkeypatch.setattr("rosegbs.pcgroup.MAX_ASSIGNMENTS", 8**3 - 1)
    (d8,) = load_catalog_text("group D8 p=2 n=3\npow 2 = g3\ncomm 2 1 = g3\nend\n")
    assert np.array_equal(d8.automorphisms, [np.arange(8)])
    # with A = {id} every orbit is a single hom, so every hom is walked
    for loops in ([(3, 1)], [(2, 12), (1, 1)], [(16, 16)] * 3):
        pres = RoseGbs.from_pairs(loops)
        target = QuotientOracle(pres, 2, Budget(max_order=8, s_max=0), [d8]).homs_for(d8)
        imgs = target.representatives()
        a_img, t_imgs = hom_arrays(pres, d8)
        assert np.array_equal(imgs, np.stack([a_img, *t_imgs]))
        assert target.homs == len(a_img)


def test_loading_builds_no_automorphism_table():
    from importlib import resources

    lazy = ("automorphisms", "is_abelian", "stabiliser_chain", "classes")
    for p in (2, 3, 5):
        text = resources.files("rosegbs.data").joinpath(f"catalog_p{p}.txt")
        for g in load_catalog_text(text.read_text()):
            assert not any(name in vars(g) for name in lazy), g.name


def test_confluence_check_memory_is_flat():
    import tracemalloc

    he5 = by_name(5)["He5"]
    peaks = []
    for n_words in (2**17, 10**6):
        tracemalloc.start()
        try:
            assert random_confluence_check(he5, n_words, seed=3) == n_words
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


# --- conjugacy classes --------------------------------------------------------------

#: k(P), the number of conjugacy classes, of every non-abelian shipped group.
CLASS_COUNTS = {
    "D8": 5, "Q8": 5, "D16": 7, "SD16": 7, "Q16": 7, "M16": 10, "D8xC2": 10,
    "Q8xC2": 10, "C4:C4": 10, "V4:C4": 10, "D8*C4": 10, "He3": 11, "M27": 11,
    "He5": 29, "M125": 29,
}


@functools.cache
def order_2048_groups():
    """The extraspecial group 2^(1+10) and C2048, the CI catalog step's
    groups of the largest order."""
    return [PcGroup(PcPresentation(
                "2^1+10", 2, 11, comm_words={(i + 5, i): ((11, 1),) for i in range(1, 6)})),
            PcGroup(PcPresentation("C2048", 2, 11, {i: ((i + 1, 1),) for i in range(1, 11)}))]


def test_class_data_matches_brute_force():
    """On every shipped group and the two order-2^11 groups: |C_P(x)| counts
    the t with t x = x t; the ids are invariant under conjugation by every
    generator and each id's codes number |P| / |C_P(x)|, so each id is one
    whole class; ids rise with each class's least code; the class equation
    sum |C_P(x)| = |P| k(P) holds; and the element orders are those of
    repeated multiplication."""
    counts = {}
    for g in all_groups() + order_2048_groups():
        n, (cls, centraliser, element_order) = g.order, g.classes
        assert cls.dtype == centraliser.dtype == element_order.dtype == np.int32
        assert np.array_equal(centraliser, (g.table == g.table.T).sum(axis=0))
        for i in range(1, g.ngens + 1):
            s = g.generator_code(i)
            assert np.array_equal(cls[g.table[g.inv[s]][g.table[:, s]]], cls), g.name
        k = int(cls.max()) + 1
        assert np.array_equal(np.bincount(cls, minlength=k)[cls], n // centraliser)
        first = [int(np.flatnonzero(cls == c)[0]) for c in range(k)]
        assert first == sorted(first) and first[0] == 0
        assert int(centraliser.sum(dtype=np.int64)) == n * k
        acc, order = np.arange(n), np.zeros(n, dtype=np.int64)
        for q in range(1, g.exponent + 1):
            order[(acc == 0) & (order == 0)] = q
            acc = g.table[acc, np.arange(n)]
        assert np.array_equal(element_order, order), g.name
        counts[g.name] = k
    assert {name: counts[name] for name in CLASS_COUNTS} == CLASS_COUNTS
    assert all(counts[g.name] == g.order for g in all_groups() if g.is_abelian)
    assert counts["2^1+10"] == 2**10 + 1 and counts["C2048"] == 2048
