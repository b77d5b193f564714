import itertools

import numpy as np
import pytest

from rosegbs.pcgroup import (
    CatalogError,
    PcGroup,
    PcPresentation,
    builtin_catalog,
    load_catalog_text,
    parse_catalog,
    random_confluence_check,
)


def by_name(p):
    return {g.name: g for g in builtin_catalog(p)}


def test_builtin_catalog_counts():
    # 1 of order p, 2 of order p^2, 5 of order p^3 (+ 14 of order 16 for p=2)
    assert len(builtin_catalog(2)) == 22
    assert len(builtin_catalog(3)) == 8
    assert len(builtin_catalog(5)) == 8
    orders2 = sorted(g.order for g in builtin_catalog(2))
    assert orders2 == [2, 4, 4] + [8] * 5 + [16] * 14


def test_collect_identity_and_cyclic():
    c4 = by_name(2)["C4"]
    assert c4.collect([]) == (0, 0)
    # in the cyclic group of order p^2, g1^p collects to g2
    assert c4.collect([(1, 2)]) == (0, 1)
    assert c4.collect([(1, 4)]) == (0, 0)
    assert c4.element_order(c4.generator_code(1)) == 4


def test_collect_dihedral_example():
    d8 = by_name(2)["D8"]
    s, r = d8.generator_code(1), d8.generator_code(2)
    # g1 g2 g1 g2 must match the table-verified product
    word_val = d8.collect_code([(1, 1), (2, 1), (1, 1), (2, 1)])
    table_val = d8.mult(d8.mult(d8.mult(s, r), s), r)
    assert word_val == table_val
    # (sr)^2 = 1 in a dihedral group
    assert word_val == 0
    # conjugation inverts the rotation: g1 g2 g1^-1 = g2^-1 = g2 g3
    assert d8.collect_code([(1, 1), (2, 1), (1, -1)]) == d8.collect_code(
        [(2, 1), (3, 1)]
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
        assert q8.collect_code(list(x) + list(y)) == q8.mult(
            q8.collect_code(x), q8.collect_code(y)
        )


def test_known_structure_facts():
    groups = by_name(2)
    involutions = {
        name: sum(1 for x in range(1, g.order) if g.mult(x, x) == 0)
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
    assert all(he3.power(x, 3) == 0 for x in range(27))  # exponent 3
    assert any(he3.mult(x, y) != he3.mult(y, x)
               for x in range(27) for y in range(27))
    m27 = by_name(3)["M27"]
    assert max(m27.element_order(x) for x in range(27)) == 9


def test_inverses_two_sided():
    for g in builtin_catalog(3):
        for x in range(g.order):
            y = g.inverse(x)
            assert g.mult(x, y) == 0 and g.mult(y, x) == 0


def test_power_table():
    g = by_name(2)["D16"]
    r = g.generator_code(2)
    acc = 0
    for k in range(20):
        assert g.power(r, k) == acc
        acc = g.mult(acc, r)
    assert g.power(r, -1) == g.inverse(r)
    assert g.power(r, -3) == g.inverse(g.power(r, 3))
    assert g.power(r, 10**30) == g.power(r, 10**30 % g.order)


def test_associativity_exhaustive_small():
    for g in builtin_catalog(2):
        t = g.table
        left = t[t, :]
        right = t[:, t]
        assert np.array_equal(left, right)


def test_confluence_checks_pass():
    for p in (2, 3, 5):
        for g in builtin_catalog(p):
            assert random_confluence_check(g, 200, seed=99) == 200


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
    with pytest.raises(CatalogError):
        PcGroup(PcPresentation("bad", 4, 1))  # p not prime
    with pytest.raises(CatalogError):
        PcGroup(PcPresentation("bad", 2, 2, comm_words={(1, 2): ((2, 1),)}))


def test_inconsistent_presentation_rejected():
    # [g2, g1] = g2 forces conjugation by g1 to kill g2: not a bijection
    bad = "group bad p=3 n=2\ncomm 2 1 = g2\nend\n"
    with pytest.raises(CatalogError):
        load_catalog_text(bad)


def test_empty_catalog_warns():
    with pytest.warns(UserWarning):
        assert load_catalog_text("# nothing here\n") == []


def test_load_catalog_roundtrip(tmp_path):
    from rosegbs.pcgroup import load_catalog

    path = tmp_path / "cat.txt"
    path.write_text("group C9 p=3 n=2\npow 1 = g2\nend\n")
    (g,) = load_catalog(str(path))
    assert g.order == 9 and g.element_order(g.generator_code(1)) == 9


def test_element_str():
    g = by_name(2)["D8"]
    assert g.element_str(0) == "1"
    code = g.collect_code([(1, 1), (3, 1)])
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
    assert d8.orbit_least_mask(2).all()


def test_loading_builds_no_automorphism_table():
    from importlib import resources

    for p in (2, 3, 5):
        text = resources.files("rosegbs.data").joinpath(f"catalog_p{p}.txt")
        for g in load_catalog_text(text.read_text()):
            assert "automorphisms" not in vars(g) and "is_abelian" not in vars(g)
            assert not g._orbit_masks


def test_orbit_least_mask_matches_brute_force():
    for name in ("D8", "Q8"):
        g = by_name(2)[name]
        mask = g.orbit_least_mask(2)
        for code, (x, y) in enumerate(itertools.product(range(g.order), repeat=2)):
            orbit = {(int(a[x]), int(a[y])) for a in g.automorphisms}
            assert mask[code] == ((x, y) == min(orbit))
