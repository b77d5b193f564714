"""The brute-force oracle: kernel membership in finite p-quotients.

Two kinds of targets are available.  Catalog targets are the shipped
power-commutator groups P; a homomorphism of the HNN extension G into P is
exactly an assignment of images to (a, t_1..t_r) satisfying the loop
relations, and loop i constrains only (a, t_i).  So with the tables

    T_i(a) = {t in P : t a^(n_i) t^(-1) = a^(m_i)},

Hom(G, P) is the disjoint union over a in P of T_1(a) x .. x T_r(a), and
homs = sum over a of |T_1(a)| .. |T_r(a)|.  That set is never listed; each
catalog target reports the first separating homomorphism in lexicographic
order of (a, t_1, .., t_r) codes, exactly as a sweep over all of it would
(hom_arrays is that sweep, kept as the reference).  Holomorph targets
realize the quotient Z/p^s twisted by the conjugation units c_i with
n_i c_i = m_i mod p^s, as pairs (k mod p^s, h) with h in the unit subgroup H
generated by the c_i; they exist when every loop has equal valuations on both
sides and H is a p-group, and contribute one canonical homomorphism each
(a -> (1, 1), t_i -> (0, c_i)), evaluated in closed form on exact integers.

Every target offers order, homs (how many homomorphisms it tests) and
separate(words) -> one witness dict or None per word, so
QuotientOracle.verdicts is one pass over the targets.

Every catalog target is a CatalogHoms, which keeps A_P = {x : T_i(x) is not
empty for every i} and homs, the count of every homomorphism, both taken
from the conjugacy classes of P without any loop table (see "Loop data from
classes" below).  separate decides a batch whose every word is a power of a
in closed form (see "Powers of a" below).  It evaluates any other batch on
representatives of all the homomorphisms, the columns of an imgs array in
lexicographic order, all at once (evaluate_words), and each word reports
the first that does not kill it; only the orbit walk of a non-abelian P
builds loop tables.

* Abelian P: the axis homs.  In an abelian P the loop reads
  a^(n_i) = a^(m_i) and puts no condition on t_i, so Hom(G, P) = A x P^r
  with A = {a : a^(n_i) = a^(m_i) for all i}, and
  phi(w) = phi(a)^(e_0) phi(t_1)^(e_1) .. phi(t_r)^(e_r), e_g the exponent
  sum of generator g in w (Word.abelianised).  An axis hom sends every
  generator to 1 but at most one, g_j (a for j = 0, t_j for j >= 1), which
  it sends to some x; under it w maps to x^(e_j) in any group.  The first
  separating homomorphism is an axis hom.  Let j >= 1 be the last index for
  which x -> x^(e_j) is not trivial on P, and x_j the least x with
  x^(e_j) != 1.  The axis hom t_j = x_j separates.  Every
  lexicographically smaller homomorphism has a = t_1 = .. = t_(j-1) = 1 and
  t_j < x_j, so t_j^(e_j) = 1, and t_i^(e_i) = 1 for every i > j by the
  choice of j: it does not separate.
  With no such j, phi(w) = phi(a)^(e_0), and by the same argument the first
  separating homomorphism is the axis hom a = the least a in A with
  a^(e_0) != 1, or there is none.  So the representatives are the axis homs
  in lexicographic order: the trivial hom, then t_r = x for every x != 1,
  then t_(r-1) = x, .., down to t_1, then a = x for every x != 1 in A.
  separate evaluates w.abelianised, which has the same image as w under
  every map into an abelian group, so a word whose exponent sums are all
  zero, every commutator among them, is never evaluated.
* Non-abelian P: Aut(P)-orbit representatives.  For a homomorphism phi and
  alpha in a subgroup A of Aut(P), alpha o phi is again a homomorphism and
  phi(w) != 1 iff alpha(phi(w)) != 1, so the separating
  homomorphisms are a union of A-orbits (A acting on the tuples
  x = (phi(a), phi(t_1), ..) coordinate-wise).  The lexicographically first
  separating homomorphism is then the least of its orbit, as any other
  member of the orbit separates too and so cannot come earlier.  Scanning
  only the orbit-least homomorphisms, in lexicographic order, therefore
  finds the same first hit.  This holds for every subgroup A (A = {id} is
  the full sweep), so nothing depends on the catalog being complete;
  PcGroup.automorphisms is all of Aut(P) within its sweep cap and {id}
  beyond it.
  The orbit-least homomorphisms are walked down a stabiliser chain (Holt,
  Eick & O'Brien, Handbook of Computational Group Theory, 2005, ch. 4;
  McKay, J. Algorithms 26, 1998).  Let S_0 = A and S_(i+1) the stabiliser of
  x_i in S_i.  A tuple x is least in its A-orbit iff every x_i is least in
  its S_i-orbit: if so, any alpha in A first moves x at some coordinate i,
  where alpha lies in S_i and so moves x_i up, making alpha(x) > x; and if
  some beta in S_i moved x_i down, beta(x) < x.  For i >= 1, T_i(x_0) is
  S_i-invariant, since S_i fixes x_0 and an automorphism maps homomorphisms
  to homomorphisms.  So keeping, level by level, the x_i in T_i(x_0) that
  are least under S_i gives exactly the orbit-least homomorphisms, and
  extending a lexicographically ordered frontier by increasing x_i keeps
  them in lexicographic order.

Loop data from classes.  T_i(x) = {t : t x^(n_i) t^(-1) = x^(m_i)} is
empty unless x^(n_i) and x^(m_i) are conjugate in P.  If they are, take t_0
in T_i(x).  Then t x^(n_i) t^(-1) = x^(m_i) = t_0 x^(n_i) t_0^(-1) exactly
when t_0^(-1) t commutes with x^(n_i), so T_i(x) = t_0 C_P(x^(n_i)), a coset
of the centraliser with |C_P(x^(n_i))| elements.  So with cls(y) the
conjugacy class of y and the centraliser orders of PcGroup.classes,

    homs = sum over x of prod_i [cls(x^(n_i)) = cls(x^(m_i))] |C_P(x^(n_i))|,

and A_P is the set of x for which every loop's two powers are conjugate:
O(order) gathers per loop, where a loop table takes order^2.  On an abelian
P every class is one element and every centraliser is P, so A_P is
A = {x : x^(n_i) = x^(m_i) for all i} and homs = |A| |P|^r.

Powers of a.  Under a hom phi, w = a^k maps to phi(a)^k, which depends on
x = phi(a) alone.  The homs with phi(a) = x are {x} x T_1(x) x .. x T_r(x),
so there are some exactly when x lies in A_P, and in lexicographic order
they come in blocks of increasing x.
So the first separating hom phi is (x*, min T_1(x*), .., min T_r(x*)),
where x* is the least x in A_P with x^k != 1, and there is none when no
such x exists.  phi is least in its orbit under every subgroup A of
Aut(P): for alpha in A, alpha o phi is a hom with a-image alpha(x*) in A_P
and alpha(x*)^k = alpha(x*^k) != 1, so alpha(x*) >= x* by the choice of
x*; and if alpha(x*) = x*, alpha maps each T_i(x*) onto itself (it fixes x*
and maps homs to homs), so alpha(min T_i(x*)) >= min T_i(x*) for every i
and alpha o phi >= phi.  So phi is the first separating orbit
representative, the hom the representatives give, whether A is all of
Aut(P) or {id}.  On an abelian P, where T_i(x) = P for x in A_P = A, phi is
the axis hom a = x* with every t_i = 1, the first separating axis hom by
the argument above.
Some x in A_P has x^k != 1 exactly when the exponent e_A of A_P, the
largest order of an element of A_P, does not divide k.  Each order in P is
a power of p, so every order in A_P divides e_A, and x^k = 1 exactly when
the order of x divides k: if e_A divides k, every x in A_P has x^k = 1, and
if not, an x of order e_A has x^k != 1.  So CatalogHoms.separate decides a
batch of powers of a in closed form: a^k is killed by every hom when e_A
divides k, and otherwise its witness is phi, with x* found among A_P and
each min T_i(x*) the first t of row x* of loop table i, a row computed
alone.  That is the target, homs_tested, max_order and witness the
representatives give, with no representative built (no orbit walk, no axis
homs), no whole loop table and no word evaluated.  A word counts as a power of a after the reductions
below (on an abelian P after abelianising), so words such as t^E a^k take
this path too.

On either kind, each word is evaluated reduced modulo the exponent E of P
(Word.reduced_mod, PcGroup.exponent): every exponent is taken mod E, zero
letters are dropped and the neighbours merged again.  For every hom phi into
P and every x, phi(x)^E = 1, so g^e and g^(e mod E) have the same image under
phi, and so do the word and its reduction.  The images array over the
representatives is therefore identical element by element, and the first
separating representative and its word_image do not change.  A word that
reduces to the empty word is killed by every hom into P and is not evaluated
at all; the paper's a^(p^sigma) blocks and repeated stable-letter powers
mostly vanish this way.

QuotientOracle.verdicts(words) takes all of a verify run's checks in one
pass: the distinct words go to each target, in scan order, together, and a
word leaves the batch at the first target that separates it.
So each word meets the same targets in the same order as in a sweep of its
own, and its verdict is unchanged, provided each target separates a word of
the batch exactly when and as it would separate the word alone.  It does: on
a catalog target, row k of evaluate_words(words, ..) is the image array of
words[k] alone, PcGroup.evaluate over the same representatives, element by
element; the words are only sorted by length and their letters packed by
position, and each row is still the left fold of its own letters.  The first
nonzero entry of the row is therefore the same representative, with the same
word_image, and the first separating target, homs_tested (the homs of the
targets up to it), max_order and the witness are those of the per-word
sweep.  The batch goes to evaluate_words in chunks of whole words (at most
_EVAL_BLOCK letter images a call), and cutting a batch leaves each word's
row as it is.

A word that is 1 in G (presentation.britton reduces it to the empty word)
is not sent to any target: for every homomorphism phi of G, phi(w) = phi(1)
= 1, so no target separates it, and the pass would carry it through all of
them to the survivors' verdict, in_all_kernels with homs_tested the homs of
every target and max_order the largest target order (0 and 0 with no
targets).  verdicts gives it exactly that verdict.  Britton's lemma decides
only the word problem of G: a word that is not 1 in G but lies in N_omega
still goes through the pass, and surviving it stays one-sided.

A word separated by some homomorphism is definitely outside the intersection
of p-power-index kernels; surviving every tested target is one-sided evidence
of membership, never proof.  Witness reporting is deterministic: targets are
scanned in a fixed order (catalog by file order, then holomorphs by s) and
homomorphisms in lexicographic order.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .classifier import (
    Case,
    Classification,
    Orientation,
    classify,
    loop_data,
    moldavanskii_r1,
)
from .generators import (
    Bounds,
    GeneratorEntry,
    GeneratorSet,
    MixedOrder,
    case1_generators,
    case2_generators,
    family_mixed,
)
from .numtheory import (
    inverse_mod,
    is_p_power,
    multiplicative_order,
    require_prime,
)
from .pcgroup import MAX_ASSIGNMENTS, PcGroup, builtin_catalog
from .presentation import RoseGbs, Word, britton, generator


@dataclass(frozen=True)
class Budget:
    """Oracle effort: catalog groups up to max_order, holomorphs up to s_max."""

    max_order: int = 16
    s_max: int = 6

    def __post_init__(self):
        if self.max_order < 0 or self.s_max < 0:
            raise ValueError("budget values must be non-negative")


def loop_tables(pres: RoseGbs, group: PcGroup) -> list[np.ndarray]:
    """T_i as an order x order boolean table per loop: T_i[a, t] says whether
    t a^(n_i) t^(-1) = a^(m_i), read as t a^(n_i) = a^(m_i) t (no inverse),
    i.e. whether t may be the image of t_i once a is the image of a."""
    a, t = np.arange(group.order)[:, None], np.arange(group.order)
    return [
        group.table[t, group.powers(loop.n)[a]]
        == group.table[group.powers(loop.m)[a], t]
        for loop in pres.loops
    ]


def hom_arrays(pres: RoseGbs, group: PcGroup) -> tuple[np.ndarray, list[np.ndarray]]:
    """All satisfying assignments, as an a-image array plus one array per t_i:
    the full sweep that the oracle's targets are tested against.

    Assignments come out in lexicographic order of (a, t_1, .., t_r) codes.
    Loop i constrains only (a, t_i), so its table T_i is broadcast over a
    boolean grid of order**(r+1) entries.
    """
    n, r = group.order, pres.r
    if n ** (r + 1) > MAX_ASSIGNMENTS:
        raise ValueError(
            f"assignment sweep {n}^{r + 1} exceeds {MAX_ASSIGNMENTS};"
            " lower the catalog budget"
        )
    mask = np.ones((n,) * (r + 1), dtype=bool)
    for i, ok in enumerate(loop_tables(pres, group), 1):
        mask &= ok.reshape((n,) + (1,) * (i - 1) + (n,) + (1,) * (r - i))
    code = np.flatnonzero(mask).astype(np.int32)
    imgs = []
    for _ in range(r + 1):
        code, digit = np.divmod(code, n)
        imgs.append(digit)
    a_img, *t_imgs = reversed(imgs)
    return a_img, t_imgs


def evaluate_words(
    words: Sequence[Word], group: PcGroup, imgs: np.ndarray
) -> np.ndarray:
    """Images of several words under a whole array of homs at once: row k
    holds the images of words[k], imgs[g] the homs' images of generator g
    (a, t_1, .., t_r), as an int32 array of len(words) rows.

    Row k is PcGroup.evaluate(words[k].letters, imgs), the left fold
    acc = acc x^e over the word's letters.  Several words are sorted by
    length, longest first, and their letters packed position by position: the
    images x^e of all letters are one gather, and the l-th letters of the
    words longer than l are a run of consecutive rows that one table gather
    folds into the first rows of acc.

    One word is evaluated by PcGroup.evaluate directly, since packing costs
    more than it saves there: one 4-letter word over D8's 13 representatives
    took 16.3 us packed against 10.4 us by PcGroup.evaluate (2-core Xeon VM,
    numpy 2.4), and the fold never holds more than one letter's images.
    Single words come mostly from targets with too many representatives for
    two words in one _EVAL_BLOCK chunk: the r = 3, order-125 verify of
    <a,t1,t2,t3 | t_i a^5 t_i^-1 = a^5> makes 20 such calls, a battery
    benchmark pass 3 and a stream pass none.
    """
    if len(words) == 1 and words[0].letters:
        return group.evaluate(words[0].letters, imgs)[None]
    order = sorted(range(len(words)), key=lambda k: -len(words[k].letters))
    lengths = [len(words[k].letters) for k in order]
    live = len(lengths) - lengths.count(0)
    if not live:
        return np.zeros((len(words), imgs.shape[1]), dtype=np.int32)
    columns = itertools.zip_longest(*[words[k].letters for k in order])
    packed = [x for col in columns for x in col if x is not None]
    e, n, table = group.exponent, group.order, group.table.ravel()
    offsets = np.array([k % e for _, k in packed], dtype=np.int32)[:, None]
    x = group.powers_of(imgs[np.array([g for g, _ in packed])], offsets)
    acc = x[:live]  # the first letters; their rows of x are not read again
    start = live
    for position in range(1, lengths[0]):
        while lengths[live - 1] <= position:
            live -= 1
        # acc[:live] = table[acc[:live], x[..]] in place, as one flat take
        # (mode="clip", every index being in range, writes to out unbuffered)
        row = acc[:live]
        row *= n
        row += x[start:start + live]
        table.take(row, out=row, mode="clip")
        start += live
    if len(acc) == len(words) and order == list(range(len(words))):
        return acc
    out = np.zeros((len(words), imgs.shape[1]), dtype=np.int32)
    out[order[:len(acc)]] = acc
    return out


# Kept by name: tests and perfbench/tracer.py call it; CI's traced step needs it.
def evaluate_word_bulk(
    w: Word, group: PcGroup, a_img: np.ndarray, t_imgs: Sequence[np.ndarray]
) -> np.ndarray:
    """Images of w under a whole array of homs at once: evaluate_words on the
    one word, over the homs' images of a, t_1, .., t_r."""
    return evaluate_words([w], group, np.stack([a_img, *t_imgs]))[0]


#: Letter images per evaluate_words call on several words in
#: CatalogHoms.separate: 32 KB of int32 codes, so that the call's few
#: transient arrays stay small beside the process (at 2^18, 1 MB, they raised
#: the battery workload's peak RSS from 44.8 to 49.4 MB).
_EVAL_BLOCK = 2**13


@dataclass(frozen=True)
class CatalogHoms:
    """Hom(G, P) for a catalog group P, which separate() tests (see the module
    docstring); homs counts every hom.

    a_codes is A_P = {x : T_i(x) is not empty for every i}, in increasing
    order, and homs and a_codes come from P's conjugacy classes (see "Loop
    data from classes" in the module docstring), not from loop tables.  imgs
    holds the representatives when the constructor walked them (see
    QuotientOracle) and is None otherwise: representatives() builds them,
    with the loop tables an orbit walk needs, on each call."""

    group: PcGroup
    pres: RoseGbs
    homs: int
    a_codes: np.ndarray
    imgs: Optional[np.ndarray] = None

    @property
    def order(self) -> int:
        return self.group.order

    def representatives(self) -> np.ndarray:
        """The representatives in lexicographic order, column i holding
        representative i's images of a, t_1, .., t_r: the axis homs for an
        abelian P, the Aut(P)-orbit representatives otherwise."""
        if self.imgs is not None:
            return self.imgs
        if not self.group.is_abelian:
            return orbit_homs(self.group, loop_tables(self.pres, self.group))
        n, r, a_codes = self.order, self.pres.r, self.a_codes
        imgs = np.zeros((r + 1, r * (n - 1) + len(a_codes)), dtype=np.int32)
        for j in range(1, r + 1):  # the t_r block first, t_1 last
            lo = 1 + (r - j) * (n - 1)
            imgs[j, lo:lo + n - 1] = np.arange(1, n)
        imgs[0, 1 + r * (n - 1):] = a_codes[1:]
        return imgs

    def least_hom(self, x: int) -> list[int]:
        """(x, min T_1(x), .., min T_r(x)) for x in A_P, the least hom with
        a-image x: min T_i(x) is the first t of row x of loop table i, the
        least t with t x^(n_i) = x^(m_i) t."""
        table, powers = self.group.table, self.group.powers
        return [x] + [int(np.argmax(table[:, powers(loop.n)[x]] == table[powers(loop.m)[x]]))
                      for loop in self.pres.loops]

    def separate(self, words: Sequence[Word]) -> list[Optional[dict]]:
        """Per word, the witness for the first hom (in lexicographic order)
        under which it is not the identity, or None; each word is evaluated
        abelianised on an abelian P and reduced mod the exponent (see the
        module docstring).

        A batch whose every such word is a power a^k is decided in closed
        form: a^k is killed by every hom exactly when the exponent of A_P,
        the largest element order in it, divides k (see "Powers of a" in the
        module docstring), and no word is evaluated.  Any other batch is
        evaluated on representatives(), built for this batch only.  The
        words go to evaluate_words together, in chunks of whole words whose
        letters times the homs stay within _EVAL_BLOCK letter images; a word
        too long for that is a chunk of its own.  So on a target with many
        representatives, where per-call costs do not count, each word is
        evaluated alone."""
        g, e = self.group, self.group.exponent
        out: list[Optional[dict]] = [None] * len(words)
        live = []
        for k, w in enumerate(words):
            w = (w.abelianised if g.is_abelian else w).reduced_mod(e)
            if w.letters:
                live.append((k, w))
        if all(len(w.letters) == 1 and not w.letters[0][0] for _, w in live):
            # a^e: separated iff e_A does not divide e; x* the least x in
            # A_P with x^e != 1 (see "Powers of a" in the module docstring)
            exponent_a = int(g.classes.element_order.take(self.a_codes).max())
            for k, w in live:
                powers = g.powers(w.letters[0][1])
                if w.letters[0][1] % exponent_a:
                    x = int(self.a_codes[powers.take(self.a_codes).nonzero()[0][0]])
                    out[k] = self._witness(self.least_hom(x), int(powers[x]))
            return out
        imgs = self.representatives()
        chunk, letters = [], 0
        for k, w in live:
            letters += len(w.letters)
            if chunk and letters * imgs.shape[1] > _EVAL_BLOCK:
                self._first_hits(chunk, imgs, out)
                chunk, letters = [], len(w.letters)
            chunk.append((k, w))
        self._first_hits(chunk, imgs, out)
        return out

    def _first_hits(self, chunk: list[tuple[int, Word]], imgs: np.ndarray,
                    out: list) -> None:
        """Set out[k] to the witness of each (k, word) of chunk that some hom,
        a column of imgs, does not kill."""
        images = evaluate_words([w for _, w in chunk], self.group, imgs)
        if not np.count_nonzero(images):
            return
        first = (images != 0).argmax(axis=1)
        hits = images[np.arange(len(chunk)), first].tolist()
        for (k, _), i, image in zip(chunk, first.tolist(), hits):
            if image:
                out[k] = self._witness(imgs[:, i].tolist(), image)

    def _witness(self, hom: Sequence[int], image: int) -> dict:
        """The witness of the hom with images hom = (a, t_1, .., t_r) codes."""
        g = self.group
        return {
            "kind": "catalog",
            "target": g.name,
            "order": g.order,
            "image_a": g.element_str(hom[0]),
            "image_t": [g.element_str(t) for t in hom[1:]],
            "word_image": g.element_str(image),
        }


#: Booleans per block of candidate masks in orbit_homs.
_BLOCK = 2**20


def orbit_homs(group: PcGroup, tables: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """The Aut(P)-orbit representatives of Hom(G, P) for the loop tables
    T_1, .., T_r of G, as CatalogHoms.imgs, in lexicographic order, or None
    when they would take more than MAX_ASSIGNMENTS codes (r + 1 per
    representative).

    The coordinates x_0 = a, x_k = t_k are added in turn.  Each prefix
    (x_0..x_(k-1)) is kept, in lexicographic order, with the id of its
    stabiliser S_k in group.stabiliser_chain, and grows by every x in
    T_k(x_0) (any x for k = 0) that is least in its S_k-orbit, in increasing
    order.  Prefixes are extended in blocks, and the budget is checked on
    each block before the level is built.  Level k holds at most
    order^(k+1) prefixes, so with order^(r+1) (r + 1) <= MAX_ASSIGNMENTS the
    walk never returns None.
    """
    n, r = group.order, len(tables)
    chain = group.stabiliser_chain
    step = max(1, _BLOCK // n)
    prefix: list[np.ndarray] = []
    stab = np.zeros(1, dtype=np.int32)
    for level in range(r + 1):
        rows, xs, count = [], [], 0
        for lo in range(0, len(stab), step):
            mask = chain.least[stab[lo:lo + step]]
            if level:
                mask = mask & tables[level - 1][prefix[0][lo:lo + step]]
            count += np.count_nonzero(mask)
            if count * (r + 1) > MAX_ASSIGNMENTS:
                return None
            row, x = np.nonzero(mask)
            rows.append(row + lo)
            xs.append(x.astype(np.int32))
        row = np.concatenate(rows)
        if level == r:
            break
        prefix = [c[row] for c in prefix] + [np.concatenate(xs)]
        stab = chain.stabilisers(stab[row], prefix[-1])
    # the last level is written straight into the image rows; mode="clip"
    # (every row is in range) lets take write to out unbuffered
    imgs = np.empty((r + 1, len(row)), dtype=np.int32)
    for c, out in zip(prefix, imgs):
        np.take(c, row, out=out, mode="clip")
    np.concatenate(xs, out=imgs[r])
    return imgs


# --- holomorph quotients ------------------------------------------------------


class HolomorphUnavailable(Exception):
    """The holomorph quotient does not exist for this (pres, p, s)."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason  # "not-applicable" | "not-a-p-group"
        self.detail = detail


@dataclass(frozen=True)
class HolomorphQuotient:
    """Pairs (k mod p^s, h) with h in the unit subgroup H = <c_1..c_r>,
    multiplied by (k1, h1)(k2, h2) = (k1 + h1 k2, h1 h2); the canonical
    homomorphism sends a to (1, 1) and t_i to (0, c_i)."""

    p: int
    s: int
    c: tuple[int, ...]
    h_order: int
    homs: ClassVar[int] = 1  # the canonical homomorphism only

    @property
    def order(self) -> int:
        return self.p**self.s * self.h_order

    def evaluate(self, w: Word) -> tuple[int, int]:
        """Image (k, h) of w: right-multiplying by (1, 1)^e = (e, 1) adds h*e
        to k, and by (0, c_i)^e = (0, c_i^e) multiplies h by c_i^e."""
        q = self.p**self.s
        k, h = 0, 1
        for gen, exp in w.letters:
            if gen == 0:
                k = (k + h * exp) % q
            else:
                h = h * pow(self.c[gen - 1], exp, q) % q
        return k, h

    def separate(self, words: Sequence[Word]) -> list[Optional[dict]]:
        """Per word, a witness if the canonical homomorphism does not kill
        it, else None."""
        return [self._witness(*self.evaluate(w)) for w in words]

    def _witness(self, k: int, h: int) -> Optional[dict]:
        if (k, h) == (0, 1):
            return None
        return {
            "kind": "holomorph",
            "target": f"holomorph(s={self.s})",
            "order": self.order,
            "c": list(self.c),
            "image_a": "(1, 1)",
            "image_t": [f"(0, {c})" for c in self.c],
            "word_image": f"({k}, {h})",
        }


def _unit_subgroup_order(units: Sequence[int], p: int, s: int) -> int:
    """Order of the subgroup H of (Z/p^s)^* generated by units, p prime.

    For odd p, (Z/p^s)^* is cyclic, so the order is the lcm of the units'
    orders.  For p = 2, (Z/2^s)^* = <-1> x <5> is not cyclic for s >= 3, but
    U = {x = 1 mod 4} = <5> is.  Reduction mod 4 maps H onto <-1> exactly
    when some unit is 3 mod 4 (none is once reduced mod 2^s with s = 1), so
    [H : H n U] is 2 then and 1 otherwise.  H n U, that map's kernel, is
    generated by the units that are 1 mod 4 and by c_0 c for every unit c
    that is 3 mod 4, c_0 the first of them: a product of units with an even
    number of factors 3 mod 4 is a product of those.  A subgroup of the
    cyclic 2-group U has the largest order among its generators.
    """
    if p % 2:
        return math.lcm(*(multiplicative_order(c, p, s) for c in units))
    q = 2**s
    units = [c % q for c in units]
    minus = [c for c in units if c % 4 == 3]
    gens = [c for c in units if c % 4 == 1] + [minus[0] * c % q for c in minus]
    index = 2 if minus else 1
    return index * max((multiplicative_order(c, 2, s) for c in gens), default=1)


def holomorph_quotient(pres: RoseGbs, p: int, s: int) -> HolomorphQuotient:
    """Build the order-p^s holomorph quotient, or raise HolomorphUnavailable.

    Exists only when sigma_i == tau_i for every loop; c_i is the least
    positive lift of m_hat_i * n_hat_i^(-1) mod p^(s - sigma_i) coprime to p.
    """
    loops = loop_data(pres, p)  # raises ValueError if p is not prime
    if s < 1:
        raise ValueError("need s >= 1")
    q = p**s
    cs = []
    for L in loops:
        if L.sigma != L.tau:
            raise HolomorphUnavailable(
                "not-applicable",
                f"loop {L.index} has unequal valuations sigma={L.sigma},"
                f" tau={L.tau}",
            )
        # a unit residue in [1, p^(s - sigma)) when s > sigma, else 0 -> 1
        modulus = p ** max(s - L.sigma, 0)
        cs.append(L.m_hat * inverse_mod(L.n_hat, modulus) % modulus or 1)
    h_order = _unit_subgroup_order(cs, p, s)
    if not is_p_power(h_order, p):
        if all(not L.theta_finite for L in loops):
            raise RuntimeError(
                "unit subgroup order is not a p-power although every loop has"
                " p | (m_hat - n_hat); this contradicts the automorphism-order"
                " lemma"
            )
        raise HolomorphUnavailable(
            "not-a-p-group",
            f"unit subgroup has order {h_order}, not a power of {p}",
        )
    # t_i a^n t_i^(-1) = (0, c)(n, 1)(0, c^(-1)) = (c n, 1) must equal a^m = (m, 1)
    for L, c in zip(loops, cs):
        if (c * L.n - L.m) % q:
            raise RuntimeError(f"holomorph images violate loop {L.index}; lift bug")
    return HolomorphQuotient(p, s, tuple(cs), h_order)


#: The least order with more than 4,300 decimal digits, the most that Python
#: converts an int to a string with by default.
_UNPRINTABLE_ORDER = 10**4300


# --- verdicts -----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Oracle outcome for one word: separated with a witness, or in all
    tested kernels (one-sided evidence of membership)."""

    word: Word
    separated: bool
    homs_tested: int
    max_order: int
    witness: Optional[dict] = None

    @property
    def kind(self) -> str:
        return "separated" if self.separated else "in_all_kernels"


class QuotientOracle:
    """Budgeted, deterministic sweep over catalog targets and holomorphs.

    targets lists them in scan order, all built here, once: one CatalogHoms
    per catalog group within the budget, in file order, then one
    HolomorphQuotient per s.  A CatalogHoms is built with A_P and homs, from
    the group's classes (homs_for); its representatives, the orbit walk with
    its loop tables or the axis homs, are left to separate(), which builds
    them only for a batch holding a word with a stable letter, and builds
    them again for every such batch: verify sends each target one batch.  So
    a case-1 verify, whose words are powers of a, builds no loop table.  An
    oracle is not changed after this constructor.

    A non-abelian catalog group whose orbit representatives would take more
    than MAX_ASSIGNMENTS codes is left out and named in skipped_groups; an
    abelian one never is, as it has only r (|P| - 1) + |A| axis homs.  Level
    k of the walk holds at most order^(k+1) prefixes, so a group with
    order^(r+1) (r + 1) <= MAX_ASSIGNMENTS is never over the budget, and
    every other non-abelian group is walked here, loop tables and all, to
    know whether it is: its representatives are kept in its target's imgs.
    So skipped_groups, and every report, is the same as if every target
    were walked here.

    Holomorphs are built for s = 1, 2, .. and the first unavailable s ends
    the list, since then every larger s is unavailable too.  "not-applicable"
    (some sigma_i != tau_i) does not depend on s.  "not-a-p-group" arises only
    for odd p, where (Z/p^s)^* = C_(p-1) x C_(p^(s-1)) and a unit has p-power
    order iff it is 1 mod p: H_s is a p-group iff every c_i with s > sigma_i
    is 1 mod p (the others are 1).  As c_i = m_hat_i / n_hat_i mod p for
    every s > sigma_i, raising s only adds loops to that condition.  For
    p = 2 every unit has 2-power order, so H_s is always a 2-group.

    A built holomorph whose order has more than 4,300 decimal digits raises
    ValueError: Python converts no longer int to a string, so no report could
    print it, and the witness of any word it separates prints its order.
    """

    def __init__(
        self,
        pres: RoseGbs,
        p: int,
        budget: Budget = Budget(),
        catalog: Optional[Sequence[PcGroup]] = None,
    ):
        require_prime(p)
        self.pres = pres
        self.p = p
        self.budget = budget
        if catalog is None:
            catalog = builtin_catalog(p) if budget.max_order > 0 else ()
        self.groups = [g for g in catalog if g.order <= budget.max_order]
        self.holomorphs: list[HolomorphQuotient] = []
        self.holomorph_unavailable: Optional[str] = None
        for s in range(1, budget.s_max + 1):
            try:
                target = holomorph_quotient(pres, p, s)
            except HolomorphUnavailable as exc:
                self.holomorph_unavailable = f"s={s}: {exc}"
                break
            if target.order >= _UNPRINTABLE_ORDER:
                raise ValueError(
                    f"the holomorph at s={s} has an order of more than 4300"
                    f" digits, too long to print; set --budget.s-max below {s}"
                )
            self.holomorphs.append(target)
        built = [(g.name, self.homs_for(g)) for g in self.groups]
        self.skipped_groups = [name for name, t in built if t is None]
        self.targets: list[CatalogHoms | HolomorphQuotient] = [
            t for _, t in built if t is not None
        ] + self.holomorphs

    def homs_for(self, group: PcGroup) -> Optional[CatalogHoms]:
        """The target of one catalog group, None when its orbit representatives
        would exceed the budget.  A_P and homs come from the classes of P by
        one path for both kinds: x is in A_P when cls(x^(n_i)) = cls(x^(m_i))
        for every loop, and then adds the product of the |C_P(x^(n_i))| to
        homs (see the module docstring).  A non-abelian P whose walk could
        exceed the budget is walked here (see the class docstring)."""
        n, r, loops = group.order, self.pres.r, self.pres.loops
        cls, centraliser = group.classes.cls, group.classes.centraliser
        ok = True
        for loop in loops:
            ok = ok & (cls.take(group.powers(loop.n)) == cls.take(group.powers(loop.m)))
        a_codes = ok.nonzero()[0]  # A_P, starting at the identity 0
        sizes = [centraliser.take(group.powers(loop.n).take(a_codes)).tolist()
                 for loop in loops]
        target = CatalogHoms(group, self.pres, sum(map(math.prod, zip(*sizes))), a_codes)
        if group.is_abelian or n ** (r + 1) * (r + 1) <= MAX_ASSIGNMENTS:
            return target
        imgs = orbit_homs(group, loop_tables(self.pres, group))
        return None if imgs is None else dataclasses.replace(target, imgs=imgs)

    @property
    def total_homs(self) -> int:
        return sum(t.homs for t in self.targets)

    def verdict(self, w: Word) -> Verdict:
        """The first target, in order, that separates w, with the homs tested
        up to it."""
        return self.verdicts([w])[0]

    def verdicts(self, words: Sequence[Word]) -> list[Verdict]:
        """The verdict of each word, as verdict() gives it, from one pass over
        the targets: the distinct words go to each target in scan order
        together, and a word leaves at the first target that separates it; a
        repeated word (the alternate mixed families repeat containment words)
        is swept once, and a word that is 1 in G not at all (see the module
        docstring)."""
        if any(w.max_gen() > self.pres.r for w in words):
            raise ValueError("word uses a stable letter outside the presentation")
        todo = [w for w in dict.fromkeys(words) if britton(self.pres, w).letters]
        found: dict[Word, Verdict] = {}
        tested = max_order = 0
        for target in self.targets:
            tested += target.homs
            max_order = max(max_order, target.order)
            if todo:
                witnesses = target.separate(todo)
                for w, witness in zip(todo, witnesses):
                    if witness is not None:
                        found[w] = Verdict(w, True, tested, max_order, witness)
                todo = [w for w, witness in zip(todo, witnesses) if witness is None]
        return [found.get(w) or Verdict(w, False, tested, max_order) for w in words]


# --- whole-theorem verification -------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check: str  # "containment" | "separation" | "moldavanskii" | alternates
    family: str
    detail: str
    word: Word
    verdict: Verdict


@dataclass(frozen=True)
class VerifyReport:
    pres: RoseGbs
    p: int
    classification: Classification
    bounds: Bounds
    budget: Budget
    orientation: Orientation
    mixed_order: MixedOrder
    generator_set: GeneratorSet
    checks: tuple[CheckResult, ...]
    inconclusive: tuple[str, ...]
    holomorph_s: tuple[int, ...]
    holomorph_unavailable: Optional[str]
    catalog_names: tuple[str, ...]

    @property
    def violations(self) -> tuple[CheckResult, ...]:
        """The separated words that the theorem puts in every kernel: the
        containment and Moldavanskii checks, in check order."""
        return tuple(
            c for c in self.checks
            if c.check in ("containment", "moldavanskii") and c.verdict.separated
        )

    def _separations(self, choice, alternate: str) -> dict:
        """Separated mixed-family words per value of a two-way choice: the
        chosen value's are its containment checks, the other's the checks
        named alternate."""
        def count(check):
            return sum(
                c.verdict.separated for c in self.checks
                if c.check == check and c.family == "mixed"
            )
        return {
            choice.value: count("containment"), _other(choice).value: count(alternate)
        }

    @property
    def orientation_report(self) -> Optional[dict]:
        """In case 2, the separations under each orientation and which
        orientations survive; None in case 1."""
        if self.classification.case != Case.TWO:
            return None
        counts = self._separations(self.orientation, "orientation-alternate")
        return {
            "separations": counts,
            "surviving": [o for o, c in counts.items() if c == 0],
            "default": Orientation.CANONICAL.value,
            "default_survives": counts[Orientation.CANONICAL.value] == 0,
        }

    @property
    def mixed_order_report(self) -> Optional[dict]:
        """In case 2, the separations under each mixed letter order; None in
        case 1."""
        if self.classification.case != Case.TWO:
            return None
        return {
            "separations": self._separations(self.mixed_order, "mixed-order-alternate"),
            "default": MixedOrder.CONJUGATE.value,
        }

    @property
    def status(self) -> str:
        if self.violations:
            return "theorem-violation"
        if self.inconclusive:
            return "inconclusive"
        return "ok"


def _other(choice):
    """The other member of a two-member enum (Orientation, MixedOrder)."""
    return next(m for m in type(choice) if m is not choice)


def verify_theorem(
    pres: RoseGbs,
    p: int,
    bounds: Bounds = Bounds(),
    budget: Budget = Budget(),
    orientation: Orientation = Orientation.CANONICAL,
    mixed_order: MixedOrder = MixedOrder.CONJUGATE,
    catalog: Optional[Sequence[PcGroup]] = None,
) -> VerifyReport:
    """Run every oracle check the theorem admits at this budget.

    Containment: every emitted generator must land in every tested kernel;
    a separation is a theorem violation (under the chosen orientation and
    letter order).  Separation: in case 1 with xi >= 1 the word a^(p^(xi-1))
    must be separated by some tested quotient, else the run is inconclusive.
    For r = 1 the Moldavanskii family is cross-checked the same way.  In case
    2 the mixed family is additionally evaluated under the opposite
    orientation and opposite letter order, and the report records which
    choices survive the oracle.

    The checks are planned first, in that order, and all their words go to
    one QuotientOracle.verdicts pass (see the module docstring).
    """
    oracle = QuotientOracle(pres, p, budget, catalog)
    cls = classify(pres, p, orientation)
    if cls.case == Case.ONE:
        gens = case1_generators(cls)
    else:
        gens = case2_generators(cls, bounds, mixed_order)

    plan = [("containment", e) for e in gens.entries]
    if cls.case == Case.ONE and cls.xi is not None and cls.xi >= 1:
        w = generator(0, p ** (cls.xi - 1))
        plan.append(("separation", GeneratorEntry(w, "power", f"xi-1={cls.xi - 1}")))
    if pres.r == 1:
        fam = moldavanskii_r1(pres, p, k_bound=bounds.k_max)
        plan += [
            ("moldavanskii", GeneratorEntry(w, "moldavanskii", f"word {i}"))
            for i, w in enumerate(fam.words)
        ]
    if cls.case == Case.TWO:
        cls_alt = classify(pres, p, _other(orientation))
        plan += [
            ("orientation-alternate", e)
            for e in family_mixed(cls_alt, bounds, mixed_order)
        ]
        plan += [
            ("mixed-order-alternate", e)
            for e in family_mixed(cls, bounds, _other(mixed_order))
        ]
    verdicts = oracle.verdicts([e.word for _, e in plan])
    checks = tuple(
        CheckResult(check, e.family, e.detail, e.word, v)
        for (check, e), v in zip(plan, verdicts)
    )

    inconclusive: list[str] = []
    skipped = oracle.skipped_groups
    if skipped:
        inconclusive.append(
            f"catalog groups {', '.join(skipped)} skipped: their orbit"
            f" representatives exceed {MAX_ASSIGNMENTS} codes; lower"
            " --budget.max-order"
        )
    if oracle.total_homs == 0:
        inconclusive.append("no quotients within budget; nothing was tested")
    inconclusive += [
        f"a^(p^(xi-1)) = {c.word} was not separated within budget"
        for c in checks if c.check == "separation" and not c.verdict.separated
    ]

    return VerifyReport(
        pres=pres,
        p=p,
        classification=cls,
        bounds=bounds,
        budget=budget,
        orientation=orientation,
        mixed_order=mixed_order,
        generator_set=gens,
        checks=checks,
        inconclusive=tuple(inconclusive),
        holomorph_s=tuple(h.s for h in oracle.holomorphs),
        holomorph_unavailable=oracle.holomorph_unavailable,
        catalog_names=tuple(g.name for g in oracle.groups if g.name not in skipped),
    )
