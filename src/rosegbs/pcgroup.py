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

with a p-overflow absorbed through the collected value of g_L^p.  Each level
is built on int32 arrays: psi is folded one tail generator at a time over
the exponent digits of all codes, and the level table is one gather of the
level below.  The construction is a definition, not a proof: load-time
validation checks the group axioms (associativity proved by Light's test at
every order; see PcGroup._validate) and re-checks every presented relation
against the finished table, rejecting any inconsistent presentation.

A finished group evaluates words in one place, PcGroup.evaluate: the left
fold acc = acc x^e of table gathers over the power maps, on codes or on
broadcast arrays of codes.  The relation re-check and the automorphism search
evaluate both sides of the same relation list, PcGroup._relations (power
relations first, then commutator relations), and the quotient oracle evaluates
single words through it (quotients.evaluate_words runs the same fold over many
words at once; quotients.loop_tables gathers the table and power maps itself).

The catalog file format (line-oriented, '#' comments):

    group <name> p=<p> n=<ngens>
    pow <i> = <word>
    comm <j> <i> = <word>
    end

where <word> is a space-separated product like ``g3^2 g4`` (and ``1`` for
the empty word).  Groups of order above MAX_ORDER = 2^11 are refused before
any table is built; one of order 2^11 loads in about 0.23 s (0.37 s cyclic)
with 69-71 MB peak RSS.  Its table takes 16 MB, and its power maps
(PcGroup.powers) E rows of 2^11 int32 codes, E the exponent: 16 KB for the
elementary abelian group (E = 2), but 16 MB, as much as the table, for the
cyclic one (E = 2^11).

``catalog-validate`` adds a normal-form consistency test for pc
presentations (Holt, Eick & O'Brien, Handbook of Computational Group Theory,
2005, ch. 8): random_confluence_check draws random words from a numpy
Generator seeded by the seed and the group name, and evaluates every word
twice, by a left fold and by a random bracketing, with table gathers over
chunks of 2^16 words, so its memory does not grow with the count.  A word
has 1..10 letters g_i^e, i uniform on 1..n and e uniform over the nonzero
integers in [-2p, 2p]; the bracketing merges one adjacent pair at a time,
chosen uniformly.  On a group that loaded, the two can never disagree: Light's
test has proved the table associative, so every bracketing of a word gives
the same product.  The check can only catch a table altered after loading,
which is what its tests do.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .numtheory import require_prime

PcWord = tuple[tuple[int, int], ...]  # ((generator 1-based, exponent), ...)

#: Hard cap on the order of a loadable group, the largest order measured:
#: the table is quadratic in the order (16 MB at 2^11, and the power maps
#: too for a cyclic group), and a group of order 2^11 loads in about 0.23 s
#: (0.37 s cyclic) with 69-71 MB peak RSS, of which Light's test takes about
#: 0.13 s (2-core Xeon VM, numpy 2.4); order 2^12 would need about four times
#: both.
MAX_ORDER = 2**11

#: Cap on the element codes of one exhaustive sweep: the order**ngens images
#: of the automorphism search, the order**(r+1) assignments of the reference
#: hom sweep (quotients.hom_arrays), and r + 1 codes per orbit representative
#: of a non-abelian catalog target.
MAX_ASSIGNMENTS = 2**24

#: Table entries compared at once by Light's test in PcGroup._validate
#: (512 KB of int32 per side).
_LIGHT_BLOCK = 2**17


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
        try:
            require_prime(self.p)
        except ValueError as exc:
            raise CatalogError(f"group {self.name}: {exc}") from None
        if self.ngens < 0:
            raise CatalogError(f"group {self.name}: negative generator count")
        # p >= 2, so an ngens past log2(MAX_ORDER) is refused before the power,
        # which would take seconds at ngens = 10^7.
        if self.ngens > MAX_ORDER.bit_length() - 1 or self.p**self.ngens > MAX_ORDER:
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


def _two_sided_inverses(table: np.ndarray) -> np.ndarray:
    """Entry x is the least y with table[x, y] == table[y, x] == 0, or -1.

    A table built by PcGroup._build_table is a Latin square (each level maps
    rows and columns of the level below through permutations), so a row has
    one zero and this least two-sided inverse is the unique inverse."""
    zero = (table == 0) & (table.T == 0)
    inv = zero.argmax(axis=1).astype(np.int32)
    inv[~zero.any(axis=1)] = -1
    return inv


class PcGroup:
    """A validated finite p-group with a full multiplication table.

    Elements are integer codes 0..order-1 (0 is the identity); code
    sum(e_i * p^(n-i)) corresponds to the normal form g_1^(e_1)..g_n^(e_n).
    """

    def __init__(self, pres: PcPresentation):
        pres.validate_shape()
        self.name = pres.name
        self.p = pres.p
        self.ngens = pres.ngens
        self.order = pres.p**pres.ngens
        self.presentation = pres
        self.table = self._build_table(pres)
        self.inv = self._build_inverses()
        self._powers = self._build_powers()
        self._validate()

    # -- construction --------------------------------------------------------

    def generator_code(self, i: int) -> int:
        """Code of g_i (1-based)."""
        if not 1 <= i <= self.ngens:
            raise ValueError(f"generator index {i} out of range")
        return self.p ** (self.ngens - i)

    def _build_table(self, pres: PcPresentation) -> np.ndarray:
        p, n = pres.p, pres.ngens
        digit = np.arange(p, dtype=np.int32)
        a_plus_b = digit[:, None] + digit
        carry = (a_plus_b >= p)[:, None, :, None]
        high = (a_plus_b % p)[:, None, :, None]
        table = np.zeros((1, 1), dtype=np.int32)  # the trivial group <>
        for level in range(n - 1, -1, -1):
            # sub multiplies the tail subgroup <g_(level+2), .., g_n>
            sub, size1 = table, len(table)
            sub_inv = _two_sided_inverses(sub)

            def inverse(x: int) -> int:
                if sub_inv[x] < 0:
                    raise CatalogError(
                        f"group {pres.name}: no inverse at level {level + 1};"
                        " inconsistent relations"
                    )
                return sub_inv[x]

            def evaluate(word: PcWord) -> int:
                acc = 0
                for g, e in word:
                    base = p ** (n - g)  # code of g_<g>, guaranteed > level
                    if e < 0:
                        base, e = inverse(base), -e
                    for _ in range(e % size1):  # base^size1 = 1 in the tail
                        acc = sub[acc, base]
                return acc

            # psi(x) = g_(level+1) x g_(level+1)^(-1), x = prod_j g_j^(e_j), as
            # the left fold of the images psi(g_j) = w_j^(-1) g_j over the
            # digits e_j of all codes, one tail generator (most significant
            # first) at a time
            psi = np.zeros(1, dtype=np.int32)
            for j in range(level + 2, n + 1):
                c_word = pres.comm_words.get((j, level + 1), ())
                image = sub[inverse(evaluate(c_word)), p ** (n - j)]
                folds = [psi]
                for _ in range(p - 1):
                    folds.append(sub[folds[-1], image])
                psi = np.stack(folds, axis=1).ravel()
            phi = np.argsort(psi)
            if not np.array_equal(psi[phi], np.arange(size1)):
                raise CatalogError(
                    f"group {pres.name}: conjugation by g{level + 1} is not a"
                    " bijection; inconsistent relations"
                )
            phi_pows = [np.arange(size1)]
            for _ in range(p - 1):
                phi_pows.append(phi[phi_pows[-1]])
            p_elt = evaluate(pres.pow_words.get(level + 1, ()))

            # (g^a x)(g^b y) = g^(a+b) phi^b(x) y, with g^p = p_elt on overflow
            w = sub[np.stack(phi_pows, axis=1)]  # w[x, b, y] = sub[phi^b(x), y]
            table = np.where(carry, sub[p_elt][w], w)
            table += high * size1
            table = table.reshape(p * size1, p * size1)
        return table

    def _build_inverses(self) -> np.ndarray:
        inv = _two_sided_inverses(self.table)
        missing = np.flatnonzero(inv < 0)
        if missing.size:
            raise CatalogError(
                f"group {self.name}: element {self.element_str(int(missing[0]))}"
                " lacks a unique two-sided inverse"
            )
        return inv

    def _build_powers(self) -> np.ndarray:
        """Row k maps each x to x^k = x^(k-1) x for k below E, the least divisor
        of the order with every x^E = 1 (the exponent), else the order: row E
        would repeat row 0, so x^e is row e mod E on any table.

        Each row is one flat take of the table, in place.  The rows stay a
        left fold, not doubled as x^(2k) = x^k x^k: the table is not yet
        proved associative here, and on a table that is not, the two differ
        (a corrupted C2 already does).  A cyclic group of order 2^11 takes
        2,047 rows: 20 ms against 31 ms by 2-D fancy indexing (2-core Xeon
        VM, numpy 2.4; doubling took 10 ms)."""
        n = self.order
        flat, elems = self.table.ravel(), np.arange(n, dtype=np.int32)
        pw = np.zeros((n, n), dtype=np.int32)  # rows past E are never written
        for k in range(1, n):
            # pw[k] = table[pw[k - 1], elems]; mode="clip" (every index is in
            # range) lets take write to its own index array unbuffered
            row = pw[k]
            np.multiply(pw[k - 1], n, out=row)
            row += elems
            flat.take(row, out=row, mode="clip")
            if n % k == 0 and not row.any():
                return pw[:k].copy()
        return pw

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        """Check the identity axiom, associativity and the presented relations
        on the finished table; raise CatalogError at the first failure.

        Associativity is proved by Light's test (Clifford & Preston, The
        Algebraic Theory of Semigroups I, 1961, section 1.2): if (x s) y =
        x (s y) for all x, y and every s in a set A that generates the
        table's magma, the magma is associative.  The set T of such s
        contains A and is closed under the product: for s, u in T,
        (x (s u)) y = ((x s) u) y = (x s) (u y) = x (s (u y)) = x ((s u) y).
        So T holds every product of generators, and the identity, by the
        identity axiom.  A is the pc generators, and they generate the table:
        the left fold of every normal form g_1^(e_1) .. g_n^(e_n) through the
        table is checked to give back its code.  That is order^2 gathers per
        generator, not order^3, compared in row blocks of at most _LIGHT_BLOCK
        entries (the whole table at once up to order 256), generator by
        generator and block by block in row order: the failure reported is the
        first in the order of (s, x, y).
        """
        t = self.table
        n = self.order
        elems = np.arange(n)
        if not (np.all(t[0] == elems) and np.all(t[:, 0] == elems)):
            raise CatalogError(f"group {self.name}: identity axiom fails")
        gens = [self.generator_code(i) for i in range(1, self.ngens + 1)]
        fold = np.zeros(n, dtype=np.int32)
        for s in gens:
            digit = elems // s % self.p
            for e in range(1, self.p):
                fold = np.where(digit >= e, t[fold, s], fold)
        if not np.array_equal(fold, elems):
            x = int(np.flatnonzero(fold != elems)[0])
            raise CatalogError(
                f"group {self.name}: the normal form of {self.element_str(x)}"
                " does not multiply out to it"
            )
        rows = _LIGHT_BLOCK // n  # at least 64, as n <= MAX_ORDER
        for s in gens:
            for lo in range(0, n, rows):
                left = t.take(t[lo:lo + rows, s], axis=0)  # left[x, y] = (x s) y
                right = t[lo:lo + rows].take(t[s], axis=1)  # right[x, y] = x (s y)
                if np.array_equal(left, right):
                    continue
                x, y = np.argwhere(left != right)[0]
                raise CatalogError(
                    f"group {self.name}: associativity fails at "
                    f"({self.element_str(lo + x)}, {self.element_str(s)},"
                    f" {self.element_str(y)})"
                )
        self._check_relations()

    def _relations(self) -> list[tuple[str, PcWord, PcWord]]:
        """The presented relations as (name, lhs, rhs) pc words, in check
        order: g_i^p = w_i for every i, then [g_j, g_i] = w_ji for j > i."""
        pres, n = self.presentation, self.ngens
        rels = [(f"power relation for g{i}", ((i, self.p),), pres.pow_words.get(i, ()))
                for i in range(1, n + 1)]
        rels += [
            (f"commutator relation [g{j}, g{i}]",
             ((j, 1), (i, 1), (j, -1), (i, -1)), pres.comm_words.get((j, i), ()))
            for j in range(2, n + 1) for i in range(1, j)
        ]
        return rels

    def _check_relations(self) -> None:
        gens = [0] + [self.generator_code(i) for i in range(1, self.ngens + 1)]
        for name, lhs, rhs in self._relations():
            if self.evaluate(lhs, gens) != self.evaluate(rhs, gens):
                raise CatalogError(f"group {self.name}: {name} violated")

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
        are checked order**(ngens-1) at a time, one g_1-image per chunk,
        against both sides of each relation of _relations() in turn, through
        evaluate on the image arrays, and dropped at the first they fail.
        """
        n, k, p = self.order, self.ngens, self.p
        dtype = np.uint8 if n <= 256 else np.int16
        if k == 0 or n**k > MAX_ASSIGNMENTS:
            return np.arange(n, dtype=dtype)[None]
        rest = np.indices((n,) * (k - 1), dtype=np.int32).reshape(k - 1, n ** (k - 1))
        relations = self._relations()
        normal_form = tuple((i, 1) for i in range(1, k + 1))  # g_1 .. g_k
        rows = []
        for x1 in range(n):
            imgs = [np.full(rest.shape[1], x1, dtype=np.int32), *rest]
            for _, lhs, rhs in relations:
                images = [0, *imgs]  # g_i -> imgs[i - 1]
                ok = self.evaluate(lhs, images) == self.evaluate(rhs, images)
                imgs = [x[ok] for x in imgs]
            # perm[:, code] = prod_i x_i^(e_i), the powers of x_i on axis i
            pows = [
                np.stack([self.powers(d)[x] for d in range(p)], axis=1)
                .reshape((len(x),) + (1,) * i + (p,) + (1,) * (k - 1 - i))
                for i, x in enumerate(imgs)
            ]
            perm = self.evaluate(normal_form, [0, *pows]).reshape(len(imgs[0]), n)
            # injective iff the kernel is trivial: only code 0 maps to 0
            rows.append(perm[(perm[:, 1:] != 0).all(axis=1)].astype(dtype))
        return np.concatenate(rows)

    @cached_property
    def stabiliser_chain(self) -> "StabiliserChain":
        """Point stabilisers of self.automorphisms, grown as walks reach them."""
        return StabiliserChain(self.automorphisms)

    # -- element operations ----------------------------------------------------

    @property
    def exponent(self) -> int:
        """The least E >= 1 with x^E = 1 for every x, a divisor of the order."""
        return len(self._powers)

    def powers(self, e: int) -> np.ndarray:
        """x -> x^e on all codes, for any integer e."""
        return self._powers[e % self.exponent]

    def powers_of(self, codes: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """x^e elementwise for arrays of codes x and of exponents
        0 <= e < exponent, broadcast against each other."""
        return self._powers.ravel().take(exps * self.order + codes)

    def evaluate(self, letters: Iterable[tuple[int, int]], images: Sequence):
        """Image of the word prod g^e over its (g, e) letters when each g maps
        to images[g]: the left fold acc = acc images[g]^e from the identity,
        whose first step is no gather (1 x = x, an axiom _validate checks).
        An image is a code or an array of codes; arrays broadcast, and the
        result is an int32 code or array (code 0 for the empty word)."""
        acc, powers, table = np.int32(0), self._powers, self.table.ravel()
        for k, (g, e) in enumerate(letters):
            x = powers[e % len(powers)][images[g]]
            acc = table.take(acc * self.order + x) if k else x
        return acc

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

    def __repr__(self) -> str:
        return f"PcGroup({self.name}, order={self.order})"


class StabiliserChain:
    """Point stabilisers in a group A of automorphisms, named by small ids.

    Id s stands for a subgroup S of A, kept as a set of rows of A.  least[s, x]
    says whether code x is the least of its S-orbit, and
    stabilisers(s, x) gives the id of Stab_S(x) = {alpha in S : alpha(x) = x}.
    Id 0 is A itself.  Ids are made on first use, so the chain holds only the
    stabilisers a walk has reached; a one-row (trivial) S is its own
    stabiliser and has every code least.
    """

    def __init__(self, auts: np.ndarray):
        self.auts = auts
        self.least = np.zeros((1, auts.shape[1]), dtype=bool)
        self._child = np.full((1, auts.shape[1]), -1, dtype=np.int32)
        self._ids: dict[bytes, int] = {}
        self._rows: list[np.ndarray] = []
        self._intern(np.arange(len(auts)))

    def _intern(self, rows: np.ndarray) -> int:
        key = rows.tobytes()
        if key not in self._ids:
            sid = self._ids[key] = len(self._rows)
            self._rows.append(rows)
            if sid == len(self.least):  # double the capacity
                self.least = np.vstack([self.least, np.zeros_like(self.least)])
                self._child = np.vstack([self._child, np.full_like(self._child, -1)])
            codes = np.arange(self.auts.shape[1])
            self.least[sid] = self.auts[rows].min(axis=0) == codes
        return self._ids[key]

    def stabilisers(self, sids: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Ids of Stab_S(x) for each pair (S, x) of sids and xs."""
        out = self._child[sids, xs]
        todo = out < 0
        if todo.any():
            for sid, x in set(zip(sids[todo].tolist(), xs[todo].tolist())):
                rows = self._rows[sid]
                child = self._intern(rows[self.auts[rows, x] == x])
                self._child[sid, x] = child
            out = self._child[sids, xs]
        return out


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


def load_catalog_text(text: str) -> list[PcGroup]:
    groups = [PcGroup(pres) for pres in parse_catalog(text)]
    if not groups:
        warnings.warn("catalog is empty", stacklevel=2)
    return groups


def load_catalog(path: str) -> list[PcGroup]:
    """Load and validate a catalog file; every group must pass the axiom checks."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_catalog_text(fh.read())


#: Longest word drawn by random_confluence_check.
_CONFLUENCE_MAX_LEN = 10

#: Words drawn and checked at once by random_confluence_check, about 9 MB.
_CONFLUENCE_CHUNK = 2**16


def _confluence_draws(
    group: PcGroup, n_words: int, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The random words of random_confluence_check, keyed by (seed, group name),
    in chunks of up to _CONFLUENCE_CHUNK words drawn from one Generator.

    Each chunk is (lengths, gens, exps, merges): word w has lengths[w]
    letters, uniform on 1..10; letter k is g_(gens[w, k])^(exps[w, k]), the
    generator uniform on g_1..g_n and the exponent uniform over the nonzero
    integers in [-2p, 2p]; letters past the length are (0, 0), the identity.
    Step s of the bracketing replaces terms merges[w, s] and merges[w, s] + 1
    of what is left by their product, the pair uniform among the
    lengths[w] - s - 1 adjacent ones (0 once a single term is left).  Needs
    ngens >= 1.
    """
    rng = np.random.default_rng(random.Random(f"{seed}:{group.name}").getrandbits(128))
    for start in range(0, n_words, _CONFLUENCE_CHUNK):
        count = min(_CONFLUENCE_CHUNK, n_words - start)
        size = (count, _CONFLUENCE_MAX_LEN)
        lengths = rng.integers(1, _CONFLUENCE_MAX_LEN + 1, size=count, dtype=np.int8)
        padding = np.arange(_CONFLUENCE_MAX_LEN, dtype=np.int8) >= lengths[:, None]
        gens = rng.integers(1, group.ngens + 1, size=size, dtype=np.int8)
        exps = rng.integers(-2 * group.p, 2 * group.p, size=size, dtype=np.int16)
        exps += exps >= 0  # -2p..-1, 1..2p
        gens[padding] = exps[padding] = 0
        pairs_left = lengths[:, None] - np.arange(1, _CONFLUENCE_MAX_LEN, dtype=np.int8)
        merges = rng.integers(0, np.maximum(pairs_left, 1), dtype=np.int8)
        del padding, pairs_left  # not held while the caller checks the chunk
        yield lengths, gens, exps, merges


def random_confluence_check(group: PcGroup, n_words: int, seed: int) -> int:
    """Normal-form uniqueness spot check: evaluate n_words random words (see
    _confluence_draws) both by a left fold and by a random association order;
    any mismatch would expose a non-confluent table.  The words of a chunk
    are evaluated together, one column of letters or one bracketing step at
    a time, with table gathers, so memory does not grow with n_words.
    Returns the number of words checked; the trivial group has only the empty
    word, so its check passes at once."""
    if n_words < 0:
        raise ValueError(f"negative word count {n_words}")
    if group.ngens == 0:
        return n_words
    t, p = group.table, group.p
    codes = np.array([0] + [group.generator_code(g) for g in range(1, group.ngens + 1)],
                     dtype=np.int32)
    pw = np.stack([group.powers(e) for e in range(-2 * p, 2 * p + 1)])  # x^e: row e+2p
    for lengths, gens, exps, merges in _confluence_draws(group, n_words, seed):
        terms = pw[exps + 2 * p, codes[gens]]
        fold = terms[:, 0]
        for k in range(1, _CONFLUENCE_MAX_LEN):
            fold = t[fold, terms[:, k]]
        rows = np.arange(len(lengths))
        for step in range(_CONFLUENCE_MAX_LEN - 1):
            i = merges[:, step]
            merged = t[terms[rows, i], terms[rows, i + 1]]
            cols = np.arange(terms.shape[1] - 1, dtype=np.int8)
            terms = np.where(cols < i[:, None], terms[:, :-1], terms[:, 1:])
            terms[rows, i] = merged
        bad = np.flatnonzero(fold != terms[:, 0])
        if bad.size:
            w = bad[0]
            n = lengths[w]
            letters = [(int(g), int(e)) for g, e in zip(gens[w, :n], exps[w, :n])]
            raise CatalogError(f"group {group.name}: normal form mismatch on {letters}")
    return n_words


_SYNTH_LIMIT = 31  # largest prime for which an abelian fallback catalog is built

_cache: dict[int, tuple[PcGroup, ...]] = {}


def builtin_catalog(p: int) -> tuple[PcGroup, ...]:
    """The shipped catalog for p: all groups of order p, p^2 and p^3 for
    p in {2, 3, 5}, plus the fourteen groups of order 16 for p = 2.  Other
    primes up to 31 get the abelian groups of order p and p^2 only."""
    if p in _cache:
        return _cache[p]
    require_prime(p)
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
        groups = (
            PcGroup(PcPresentation(f"C{p}", p, 1)),
            PcGroup(PcPresentation(f"C{p * p}", p, 2, {1: ((2, 1),)})),  # g1^p = g2
            PcGroup(PcPresentation(f"C{p}x2", p, 2)),
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
