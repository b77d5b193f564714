"""Finite generator lists for the intersection of p-power-index normal subgroups.

Case 1 needs the single word a^(p^xi).  Case 2 needs three infinite families,
truncated here under explicit user-visible bounds:

  * commutators [w, a^(p^S)] for w ranging over bounded basic commutators of
    the stable letters and their bounded conjugates (the derived subgroup of
    the free group on t_1..t_r only needs normal-generating representatives);
  * commutators [T a T^(-1), a^(p^S)] for T = t_1^(k_1)..t_r^(k_r) over all
    sign patterns with |k_i| <= k_max;
  * the mixed relators T a^(p^S y/delta) T^(-1) a^(-p^S y_bar/delta) with
    (y, y_bar, delta) computed from the unit parts of the loops.

S is the sigma sum of the case-2 classification.  Instances that reduce to
the empty word (for instance every k = 0 vector) are dropped and counted.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .classifier import Case, Classification, Orientation, classify, exponent_data
from .presentation import (
    RoseGbs,
    Word,
    commutator,
    conjugate,
    generator,
    invert,
    print_word,
    reduce,
)


class MixedOrder(enum.Enum):
    """Letter order of the inverse block in the mixed family.

    The conjugate order reverses the prefix (a true conjugate, matching the
    derivation); the verbatim order repeats the prefix order uninverted-wise,
    t_1^(-k_1)..t_r^(-k_r), as in the displayed statement.  Both are emitted
    for oracle comparison; conjugate is the shipped default.
    """

    CONJUGATE = "conjugate"
    VERBATIM = "verbatim"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Bounds:
    """Truncation bounds for the case-2 families."""

    k_max: int = 2
    comm_word_len: int = 6
    count_limit: int = 512

    def __post_init__(self):
        if self.k_max < 1 or self.comm_word_len < 1 or self.count_limit < 1:
            raise ValueError("bounds must be positive")


@dataclass(frozen=True)
class GeneratorEntry:
    word: Word
    family: str  # "power" | "gamma2" | "conj_a" | "mixed"
    detail: str  # provenance: k-vector or commutator data


@dataclass(frozen=True)
class GeneratorSet:
    case: Case
    entries: tuple[GeneratorEntry, ...]
    truncated: bool = False
    dropped_trivial: int = 0


def case1_generators(cls: Classification) -> GeneratorSet:
    """The single generator a^(p^xi)."""
    cls.require_case(Case.ONE)
    assert cls.xi is not None
    entry = GeneratorEntry(generator(0, cls.p**cls.xi), "power", f"xi={cls.xi}")
    return GeneratorSet(Case.ONE, (entry,))


def _k_vectors(r: int, k_max: int) -> Iterable[tuple[int, ...]]:
    return itertools.product(range(-k_max, k_max + 1), repeat=r)


def _t_prefix(k: tuple[int, ...]) -> Word:
    return reduce([(i, ki) for i, ki in enumerate(k, 1) if ki])


def _gamma2(cls: Classification, bounds: Bounds) -> Iterator[GeneratorEntry]:
    """[w, a^(p^S)] for bounded basic commutators w = [t_i^e, t_j^f], i < j,
    and their conjugates under single stable letters, all of letter length
    at most comm_word_len.  Empty for r = 1."""
    r, max_len = cls.r, bounds.comm_word_len
    a_pow = generator(0, cls.p**cls.sigma_total)
    seen: set[Word] = set()
    half = max_len // 2
    for i, j in itertools.combinations(range(1, r + 1), 2):
        for e_abs in range(1, half):
            for f_abs in range(1, half - e_abs + 1):
                for e, f in itertools.product((e_abs, -e_abs), (f_abs, -f_abs)):
                    w = commutator(generator(i, e), generator(j, f))
                    name = f"[t{i}^{e},t{j}^{f}]"
                    # w, then its conjugates by single stable letters
                    conjugates = (
                        (conjugate(w, generator(l, g_exp)), f"t{l}^{g_exp}.{name}")
                        for l in range(1, r + 1)
                        for g_exp in range(-max_len, max_len + 1) if g_exp
                    )
                    for cw, detail in itertools.chain([(w, name)], conjugates):
                        if cw.length() > max_len or cw.is_identity() or cw in seen:
                            continue
                        seen.add(cw)
                        g = commutator(cw, a_pow)
                        if not g.is_identity():
                            yield GeneratorEntry(g, "gamma2", detail)


def _conjugate_a(cls: Classification, bounds: Bounds) -> Iterator[GeneratorEntry]:
    """[T a T^(-1), a^(p^S)] over all k vectors with |k_i| <= k_max."""
    a = generator(0)
    a_pow = generator(0, cls.p**cls.sigma_total)
    for k in _k_vectors(cls.r, bounds.k_max):
        w = commutator(conjugate(a, _t_prefix(k)), a_pow)
        if not w.is_identity():
            yield GeneratorEntry(w, "conj_a", f"k={list(k)}")


def _mixed(
    cls: Classification, bounds: Bounds, order: MixedOrder
) -> Iterator[GeneratorEntry]:
    p_sigma = cls.p**cls.sigma_total
    for k in _k_vectors(cls.r, bounds.k_max):
        data = exponent_data(cls.loops, k)
        prefix = _t_prefix(k)
        if order is MixedOrder.CONJUGATE:
            inverse_block = invert(prefix)
        else:
            inverse_block = reduce([(i, -ki) for i, ki in enumerate(k, 1) if ki])
        w = reduce(
            prefix.letters
            + generator(0, p_sigma * data.y // data.delta).letters
            + inverse_block.letters
            + generator(0, -p_sigma * data.y_bar // data.delta).letters
        )
        if not w.is_identity():
            yield GeneratorEntry(w, "mixed", f"k={list(k)}")


def family_mixed(
    cls: Classification,
    bounds: Bounds,
    order: MixedOrder = MixedOrder.CONJUGATE,
) -> list[GeneratorEntry]:
    """T a^(p^S y/delta) T^(-1) a^(-p^S y_bar/delta) over bounded k vectors."""
    cls.require_case(Case.TWO)
    return list(_mixed(cls, bounds, order))


def np_omega_generators(
    pres: RoseGbs,
    p: int,
    bounds: Bounds = Bounds(),
    orientation: Orientation = Orientation.CANONICAL,
    mixed_order: MixedOrder = MixedOrder.CONJUGATE,
) -> GeneratorSet:
    """Generators for the normal closure equal to (N_p)_omega(pres)."""
    cls = classify(pres, p, orientation)
    if cls.case == Case.ONE:
        return case1_generators(cls)
    return case2_generators(cls, bounds, mixed_order)


def case2_generators(
    cls: Classification,
    bounds: Bounds = Bounds(),
    mixed_order: MixedOrder = MixedOrder.CONJUGATE,
) -> GeneratorSet:
    """Deduplicated union of the three case-2 families, capped at count_limit:
    members are built one at a time and none past the cap."""
    cls.require_case(Case.TWO)
    raw = itertools.chain(
        _gamma2(cls, bounds),
        _conjugate_a(cls, bounds),
        _mixed(cls, bounds, mixed_order),
    )
    seen: set[Word] = set()
    entries: list[GeneratorEntry] = []
    dropped = 0
    truncated = False
    for entry in raw:
        if entry.word in seen:
            dropped += 1
            continue
        seen.add(entry.word)
        if len(entries) >= bounds.count_limit:
            truncated = True
            break
        entries.append(entry)
    return GeneratorSet(Case.TWO, tuple(entries), truncated, dropped)


def serialize_generators(gs: GeneratorSet) -> str:
    """Line format: a provenance comment, then the word, per generator."""
    lines = []
    for e in gs.entries:
        lines.append(f"# family={e.family} {e.detail}")
        lines.append(print_word(e.word))
    if gs.truncated:
        lines.append("# truncated=true")
    return "\n".join(lines) + "\n"
