"""Finite p-groups from power-commutator presentations, with full validation.

A group of order p^n is presented on generators g_1..g_n by
  - power relations   g_i^p = w_i,   w_i a word in g_(i+1)..g_n, and
  - commutator relations  [g_j, g_i] = w_ji  (j > i, convention
    [x, y] = x y x^(-1) y^(-1)), w_ji a word in g_(i+1)..g_n,
with omitted relations meaning g_i^p = 1 and commuting pairs.  Every element
has a unique collected normal form g_1^(e_1) .. g_n^(e_n), 0 <= e_i < p,
encoded as the radix-p integer with e_1 most significant.

Multiplication tables are built bottom-up along the chain of tail subgroups
G_L = <g_L, .., g_n>: the commutator data gives the conjugation map
psi(x) = g_L x g_L^(-1) on G_(L+1) directly (psi(g_k) = w_kL^(-1) g_k), and

  (g_L^a x) (g_L^b y) = g_L^(a+b) (psi^(-b)(x) y),

with a p-overflow absorbed through the collected value of g_L^p.  The
construction is a definition, not a proof: load-time validation checks the
group axioms (exhaustive associativity up to order 128, sampled above) and
re-checks every presented relation against the finished table, rejecting any
inconsistent presentation.

The catalog file format (line-oriented, '#' comments):

    group <name> p=<p> n=<ngens>
    pow <i> = <word>
    comm <j> <i> = <word>
    end

where <word> is a space-separated product like ``g3^2 g4`` (and ``1`` for
the empty word).
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .numtheory import is_prime

PcWord = tuple[tuple[int, int], ...]  # ((generator 1-based, exponent), ...)

#: Orders up to which associativity is checked exhaustively at load.
EXHAUSTIVE_ORDER_LIMIT = 128

#: Hard cap on the order of a loadable group (table is order^2 entries).
MAX_ORDER = 2**14

#: Cap on order**k, the size of one exhaustive sweep of k-tuples of elements:
#: the hom sweep of the quotient oracle (k = r + 1) and the automorphism
#: search (k = ngens).
MAX_ASSIGNMENTS = 2**24


class CatalogError(ValueError):
    """Malformed catalog data or a group failing load-time validation."""


@dataclass
class PcPresentation:
    """Raw presentation data as read from a catalog file."""

    name: str
    p: int
    ngens: int
    pow_words: dict[int, PcWord] = field(default_factory=dict)  # 1-based gen
    comm_words: dict[tuple[int, int], PcWord] = field(default_factory=dict)

    def validate_shape(self) -> None:
        if not is_prime(self.p):
            raise CatalogError(f"group {self.name}: p={self.p} is not prime")
        if self.ngens < 0:
            raise CatalogError(f"group {self.name}: negative generator count")
        if self.p**self.ngens > MAX_ORDER:
            raise CatalogError(
                f"group {self.name}: order {self.p}^{self.ngens} exceeds "
                f"the supported maximum {MAX_ORDER}"
            )
        for i, w in self.pow_words.items():
            if not 1 <= i <= self.ngens:
                raise CatalogError(f"group {self.name}: pow index {i} out of range")
            for g, _ in w:
                if not i < g <= self.ngens:
                    raise CatalogError(
                        f"group {self.name}: pow {i} word must use generators"
                        f" above g{i}, found g{g}"
                    )
        for (j, i), w in self.comm_words.items():
            if not (1 <= i < j <= self.ngens):
                raise CatalogError(
                    f"group {self.name}: comm indices ({j}, {i}) need j > i"
                )
            for g, _ in w:
                if not i < g <= self.ngens:
                    raise CatalogError(
                        f"group {self.name}: comm {j} {i} word must use"
                        f" generators above g{i}, found g{g}"
                    )


class PcGroup:
    """A validated finite p-group with a full multiplication table.

    Elements are integer codes 0..order-1 (0 is the identity); code
    sum(e_i * p^(n-i)) corresponds to the normal form g_1^(e_1)..g_n^(e_n).
    """

    def __init__(self, pres: PcPresentation, *, validation_seed: int = 1729):
        pres.validate_shape()
        self.name = pres.name
        self.p = pres.p
        self.ngens = pres.ngens
        self.order = pres.p**pres.ngens
        self.presentation = pres
        self.identity = 0
        table = self._build_table(pres)
        self.table = np.asarray(table, dtype=np.int32)
        self.inv = self._build_inverses()
        self.pow_table = self._build_powers()
        self._validate(validation_seed)
        self._orbit_masks: dict[int, np.ndarray] = {}

    # -- construction --------------------------------------------------------

    def generator_code(self, i: int) -> int:
        """Code of g_i (1-based)."""
        if not 1 <= i <= self.ngens:
            raise ValueError(f"generator index {i} out of range")
        return self.p ** (self.ngens - i)

    def _build_table(self, pres: PcPresentation) -> list[list[int]]:
        p, n = pres.p, pres.ngens
        # tables[L] multiplies the tail subgroup <g_(L+1), .., g_n> (0-based L)
        tables: list[Optional[list[list[int]]]] = [None] * (n + 1)
        tables[n] = [[0]]
        for level in range(n - 1, -1, -1):
            sub = tables[level + 1]
            assert sub is not None
            size1 = p ** (n - level - 1)

            def mult1(x: int, y: int) -> int:
                return sub[x][y]

            def inv1(x: int) -> int:
                for y in range(size1):
                    if sub[x][y] == 0 and sub[y][x] == 0:
                        return y
                raise CatalogError(
                    f"group {pres.name}: no inverse at level {level + 1};"
                    " inconsistent relations"
                )

            def ev1(word: PcWord) -> int:
                acc = 0
                for g, e in word:
                    base = p ** (n - g)  # code of g_<g>, guaranteed > level
                    if e < 0:
                        base, e = inv1(base), -e
                    for _ in range(e):
                        acc = mult1(acc, base)
                return acc

            # conjugation by g_(level+1) on the tail subgroup, generator-wise
            psi_gen: dict[int, int] = {}
            for k in range(level + 1, n):
                c_word = pres.comm_words.get((k + 1, level + 1), ())
                g_code = p ** (n - 1 - k)
                psi_gen[k] = mult1(inv1(ev1(c_word)), g_code)
            psi = [0] * size1
            for x in range(size1):
                img = 0
                rest = x
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
        result = tables[0]
        assert result is not None
        return result

    def _build_inverses(self) -> np.ndarray:
        n = self.order
        inv = np.full(n, -1, dtype=np.int32)
        for x in range(n):
            ys = np.nonzero(self.table[x] == 0)[0]
            if len(ys) != 1 or self.table[ys[0], x] != 0:
                raise CatalogError(
                    f"group {self.name}: element {self.element_str(x)} lacks a"
                    " unique two-sided inverse"
                )
            inv[x] = ys[0]
        return inv

    def _build_powers(self) -> np.ndarray:
        n = self.order
        pt = np.zeros((n, n), dtype=np.int32)
        elems = np.arange(n, dtype=np.int32)
        for k in range(1, n):
            pt[:, k] = self.table[pt[:, k - 1], elems]
        return pt

    # -- validation -----------------------------------------------------------

    def _validate(self, seed: int) -> None:
        t = self.table
        n = self.order
        elems = np.arange(n)
        if not (np.all(t[0] == elems) and np.all(t[:, 0] == elems)):
            raise CatalogError(f"group {self.name}: identity axiom fails")
        if n <= EXHAUSTIVE_ORDER_LIMIT:
            left = t[t, :]  # left[x,y,z] = (xy)z
            right = t[:, t]  # right[x,y,z] = x(yz)
            if not np.array_equal(left, right):
                x, y, z = np.argwhere(left != right)[0]
                raise CatalogError(
                    f"group {self.name}: associativity fails at "
                    f"({self.element_str(x)}, {self.element_str(y)},"
                    f" {self.element_str(z)})"
                )
        else:
            rng = random.Random(seed)
            for _ in range(20000):
                x, y, z = (rng.randrange(n) for _ in range(3))
                if t[t[x, y], z] != t[x, t[y, z]]:
                    raise CatalogError(
                        f"group {self.name}: associativity fails at "
                        f"({self.element_str(x)}, {self.element_str(y)},"
                        f" {self.element_str(z)})"
                    )
        self._check_relations()

    def _check_relations(self) -> None:
        p, ngens = self.p, self.ngens
        for i in range(1, ngens + 1):
            gi = self.generator_code(i)
            lhs = self.power(gi, p)
            rhs = self.collect_code(self.presentation.pow_words.get(i, ()))
            if lhs != rhs:
                raise CatalogError(
                    f"group {self.name}: power relation for g{i} violated"
                )
        for j in range(2, ngens + 1):
            for i in range(1, j):
                gj, gi = self.generator_code(j), self.generator_code(i)
                lhs = self.mult(
                    self.mult(self.mult(gj, gi), int(self.inv[gj])), int(self.inv[gi])
                )
                rhs = self.collect_code(self.presentation.comm_words.get((j, i), ()))
                if lhs != rhs:
                    raise CatalogError(
                        f"group {self.name}: commutator relation [g{j}, g{i}]"
                        " violated"
                    )

    # -- symmetry (computed on first use, never at load) ------------------------

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    @cached_property
    def automorphisms(self) -> np.ndarray:
        """A subgroup A of Aut(G), one row per automorphism: row[x] is the
        image of code x (uint8 codes up to order 256, else int16).

        A is all of Aut(G) when order**ngens <= MAX_ASSIGNMENTS, else {id}.
        Every assignment of images to g_1..g_n satisfying the power and
        commutator relations extends to an endomorphism, since a consistent
        pc presentation presents G; the injective ones are kept.  Candidates
        are checked order**(ngens-1) at a time, one g_1-image per chunk, and
        dropped at the first relation they fail.
        """
        n, k, p = self.order, self.ngens, self.p
        dtype = np.uint8 if n <= 256 else np.int16
        if k == 0 or n**k > MAX_ASSIGNMENTS:
            return np.arange(n, dtype=dtype)[None]
        t, pw, inv, pres = self.table, self.pow_table, self.inv, self.presentation
        # (j, i, w): [g_j, g_i] = w;  (j, None, w): g_j^p = w
        relations = [
            (j, i, pres.comm_words.get((j, i), ()))
            for j in range(2, k + 1) for i in range(1, j)
        ]
        relations += [(j, None, pres.pow_words.get(j, ())) for j in range(1, k + 1)]
        rest = np.indices((n,) * (k - 1), dtype=np.int32).reshape(k - 1, n ** (k - 1))
        rows = []
        for x1 in range(n):
            imgs = [np.full(rest.shape[1], x1, dtype=np.int32), *rest]
            for j, i, word in relations:
                x = imgs[j - 1]
                if i is None:
                    lhs = pw[x, p % n]
                else:
                    y = imgs[i - 1]
                    lhs = t[t[t[x, y], inv[x]], inv[y]]
                rhs = np.zeros(len(x), dtype=np.int32)
                for g, e in word:
                    rhs = t[rhs, pw[imgs[g - 1], e % n]]
                ok = lhs == rhs
                imgs = [z[ok] for z in imgs]
            # perm[:, code] = prod_i x_i^(e_i), built one exponent digit at a time
            perm = np.zeros((len(imgs[0]), 1), dtype=np.int32)
            for x in imgs:
                powers = pw[x][:, :p]
                perm = t[perm[:, :, None], powers[:, None, :]].reshape(
                    len(perm), perm.shape[1] * p
                )
            # injective iff the kernel is trivial: only code 0 maps to 0
            rows.append(perm[(perm[:, 1:] != 0).all(axis=1)].astype(dtype))
        return np.concatenate(rows)

    def orbit_least_mask(self, k: int) -> np.ndarray:
        """Over all order**k tuples of element codes (in lexicographic order,
        the first coordinate most significant), whether the tuple is the
        lexicographically least of its orbit under the diagonal action of
        self.automorphisms.  Cached per k.

        (x, rest) is least iff x is least in its orbit and rest is least under
        the stabiliser of x: an automorphism moving x lower makes the tuple
        lower, one moving x higher makes it higher, and one fixing x compares
        on rest.  So the mask is built down a stabiliser chain.
        """
        if k not in self._orbit_masks:
            auts = self.automorphisms
            n = self.order
            memo: dict[tuple[bytes, int], np.ndarray] = {}

            def least(rows: np.ndarray, k: int) -> np.ndarray:
                key = (rows.tobytes(), k)
                if key not in memo:
                    sub = auts[rows]
                    first = sub.min(axis=0) == np.arange(n)
                    if len(rows) == 1:
                        memo[key] = np.ones(n**k, dtype=bool)
                    elif k == 1:
                        memo[key] = first
                    else:
                        blocks = np.zeros((n, n ** (k - 1)), dtype=bool)
                        for x in np.flatnonzero(first):
                            blocks[x] = least(rows[sub[:, x] == x], k - 1)
                        memo[key] = blocks.reshape(-1)
                return memo[key]

            self._orbit_masks[k] = least(np.arange(len(auts)), k)
        return self._orbit_masks[k]

    # -- element operations ----------------------------------------------------

    def mult(self, x: int, y: int) -> int:
        return int(self.table[x, y])

    def inverse(self, x: int) -> int:
        return int(self.inv[x])

    def power(self, x: int, e: int) -> int:
        """x^e for arbitrary integer e (reduced mod the group order)."""
        return int(self.pow_table[x, e % self.order])

    def element_order(self, x: int) -> int:
        acc, k = x, 1
        while acc != 0:
            acc = self.mult(acc, x)
            k += 1
        return k

    def element_vector(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.ngens):
            code, e = divmod(code, self.p)
            out.append(e)
        return tuple(reversed(out))

    def element_str(self, code: int) -> str:
        if code == 0:
            return "1"
        parts = []
        for i, e in enumerate(self.element_vector(code), 1):
            if e:
                parts.append(f"g{i}" if e == 1 else f"g{i}^{e}")
        return " ".join(parts)

    def collect(self, pc_word: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """Collect a word over g1..gn (1-based, any exponents) to its normal form."""
        return self.element_vector(self.collect_code(pc_word))

    def collect_code(self, pc_word: Iterable[tuple[int, int]]) -> int:
        acc = 0
        for g, e in pc_word:
            if not 1 <= g <= self.ngens:
                raise ValueError(f"generator g{g} out of range")
            acc = self.mult(acc, self.power(self.generator_code(g), e))
        return acc

    def __repr__(self) -> str:
        return f"PcGroup({self.name}, order={self.order})"


# --- catalog files -----------------------------------------------------------


def _parse_pc_word(text: str, line_no: int) -> PcWord:
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters = []
    for atom in text.split():
        name, _, exp = atom.partition("^")
        if not name.startswith("g") or not name[1:].isdigit():
            raise CatalogError(f"line {line_no}: bad generator {atom!r}")
        e = 1
        if exp:
            try:
                e = int(exp)
            except ValueError:
                raise CatalogError(f"line {line_no}: bad exponent {atom!r}") from None
        if e == 0:
            raise CatalogError(f"line {line_no}: zero exponent in {atom!r}")
        letters.append((int(name[1:]), e))
    return tuple(letters)


def parse_catalog(text: str) -> list[PcPresentation]:
    """Parse catalog text into raw presentations (no validation/table build)."""
    out: list[PcPresentation] = []
    current: Optional[PcPresentation] = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "group":
            if current is not None:
                raise CatalogError(f"line {line_no}: previous group not ended")
            if len(fields) != 4 or not fields[2].startswith("p=") or not fields[
                3
            ].startswith("n="):
                raise CatalogError(
                    f"line {line_no}: expected 'group <name> p=<p> n=<ngens>'"
                )
            try:
                p, ngens = int(fields[2][2:]), int(fields[3][2:])
            except ValueError:
                raise CatalogError(f"line {line_no}: bad p= or n= value") from None
            current = PcPresentation(fields[1], p, ngens)
        elif fields[0] == "end":
            if current is None:
                raise CatalogError(f"line {line_no}: 'end' outside a group")
            out.append(current)
            current = None
        elif fields[0] == "pow":
            if current is None or len(fields) < 3 or fields[2] != "=":
                raise CatalogError(f"line {line_no}: expected 'pow <i> = <word>'")
            try:
                i = int(fields[1])
            except ValueError:
                raise CatalogError(f"line {line_no}: bad pow index") from None
            if i in current.pow_words:
                raise CatalogError(f"line {line_no}: duplicate pow {i}")
            current.pow_words[i] = _parse_pc_word(" ".join(fields[3:]), line_no)
        elif fields[0] == "comm":
            if current is None or len(fields) < 4 or fields[3] != "=":
                raise CatalogError(f"line {line_no}: expected 'comm <j> <i> = <word>'")
            try:
                j, i = int(fields[1]), int(fields[2])
            except ValueError:
                raise CatalogError(f"line {line_no}: bad comm indices") from None
            if (j, i) in current.comm_words:
                raise CatalogError(f"line {line_no}: duplicate comm {j} {i}")
            current.comm_words[(j, i)] = _parse_pc_word(" ".join(fields[4:]), line_no)
        else:
            raise CatalogError(f"line {line_no}: unknown directive {fields[0]!r}")
    if current is not None:
        raise CatalogError(f"group {current.name} not ended")
    return out


def load_catalog_text(text: str, *, validation_seed: int = 1729) -> list[PcGroup]:
    groups = [PcGroup(pres, validation_seed=validation_seed)
              for pres in parse_catalog(text)]
    if not groups:
        warnings.warn("catalog is empty", stacklevel=2)
    return groups


def load_catalog(path: str, *, validation_seed: int = 1729) -> list[PcGroup]:
    """Load and validate a catalog file; every group must pass the axiom checks."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_catalog_text(fh.read(), validation_seed=validation_seed)


def random_confluence_check(group: PcGroup, n_words: int, seed: int) -> int:
    """Normal-form uniqueness spot check: evaluate random words both by a
    left fold and by a random association order; any mismatch would expose a
    non-confluent table.  Returns the number of words checked."""
    rng = random.Random(f"{seed}:{group.name}")
    exponents = [e for e in range(-2 * group.p, 2 * group.p + 1) if e]
    for _ in range(n_words):
        letters = [
            (rng.randint(1, group.ngens), rng.choice(exponents))
            for _ in range(rng.randint(1, 10))
        ]
        values = [group.power(group.generator_code(g), e) for g, e in letters]
        tree = list(values)
        while len(tree) > 1:
            i = rng.randrange(len(tree) - 1)
            x = tree.pop(i)
            tree[i] = group.mult(x, tree[i])
        if group.collect_code(letters) != tree[0]:
            raise CatalogError(
                f"group {group.name}: normal form mismatch on {letters}"
            )
    return n_words


_SYNTH_LIMIT = 31  # largest prime for which an abelian fallback catalog is built

_cache: dict[int, tuple[PcGroup, ...]] = {}


def builtin_catalog(p: int) -> tuple[PcGroup, ...]:
    """The shipped catalog for p: all groups of order p, p^2 and p^3 for
    p in {2, 3, 5}, plus the fourteen groups of order 16 for p = 2.  Other
    primes up to 31 get the abelian groups of order p and p^2 only."""
    if p in _cache:
        return _cache[p]
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p in (2, 3, 5):
        from importlib import resources

        text = (
            resources.files("rosegbs.data").joinpath(f"catalog_p{p}.txt").read_text()
        )
        groups = tuple(load_catalog_text(text))
    elif p <= _SYNTH_LIMIT:
        warnings.warn(
            f"no shipped catalog for p={p}; using abelian groups of order"
            f" <= {p}^2 only",
            stacklevel=2,
        )
        groups = tuple(
            load_catalog_text(
                "\n".join(
                    [
                        f"group C{p} p={p} n=1",
                        "end",
                        f"group C{p * p} p={p} n=2",
                        "pow 1 = g2",
                        "end",
                        f"group C{p}x2 p={p} n=2",
                        "end",
                    ]
                )
            )
        )
    else:
        warnings.warn(
            f"no catalog available for p={p}; only holomorph quotients will"
            " be used",
            stacklevel=2,
        )
        groups = ()
    _cache[p] = groups
    return groups
