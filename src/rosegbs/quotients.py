"""The brute-force oracle: kernel membership in finite p-quotients.

Two kinds of targets are available.  Catalog targets are the shipped
power-commutator groups; for those, every assignment of images to
(a, t_1..t_r) satisfying the loop relations is enumerated exhaustively (a
homomorphism of the HNN extension is exactly such an assignment), and a word
is evaluated under all of them at once by table gathers.  Holomorph
targets realize the quotient Z/p^s twisted by the conjugation units c_i with
n_i c_i = m_i mod p^s, as pairs (k mod p^s, h) with h in the unit subgroup H
generated by the c_i; they exist when every loop has equal valuations on both
sides and H is a p-group, and contribute one canonical homomorphism each
(a -> (1, 1), t_i -> (0, c_i)), evaluated in closed form on exact integers.

Both kinds offer order, homs (how many homomorphisms they test) and
separate(word) -> witness dict or None, so QuotientOracle.verdict is one loop.

A catalog target counts every homomorphism in homs, but separate() reports
the first separating one (in lexicographic order) while evaluating the word
far fewer times, by one of two reductions that keep the witness exactly:

* Non-abelian G: Aut(G)-orbit representatives.  For a homomorphism phi and
  alpha in a subgroup A of Aut(G), alpha o phi is again a homomorphism and
  phi(w) != 1 iff alpha(phi(w)) != 1, so the separating homomorphisms are a
  union of A-orbits (A acting on the tuples (phi(a), phi(t_1), ..)
  coordinate-wise).  The lexicographically first separating homomorphism is
  then the least of its orbit, as any other member of the orbit separates
  too and so cannot come earlier.  Scanning only the orbit-least
  homomorphisms, in lexicographic order, therefore finds the same first hit.
  This holds for every subgroup A (A = {id} is the full sweep), so nothing
  depends on the catalog being complete; PcGroup.automorphisms is all of
  Aut(G) within its sweep cap and {id} beyond it.
* Abelian G: exponent sums.  There phi(w) = phi(a)^(e_0) phi(t_1)^(e_1) ..
  phi(t_r)^(e_r), e_g the exponent sum of generator g in w, which is the
  image of Word.abelianised.  A word with every exponent sum zero lies in
  every abelian kernel and is not evaluated at all; any other word is
  evaluated as its abelianised word, which has the same images and so the
  same first separating homomorphism and word image.

A word separated by some homomorphism is definitely outside the intersection
of p-power-index kernels; surviving every tested target is one-sided evidence
of membership, never proof.  Witness reporting is deterministic: targets are
scanned in a fixed order (catalog by file order, then holomorphs by s) and
assignments in lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, Sequence

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
    is_prime,
    multiplicative_order,
    prime_power_split,
)
from .pcgroup import MAX_ASSIGNMENTS, PcGroup, builtin_catalog
from .presentation import RoseGbs, Word, generator


@dataclass(frozen=True)
class Budget:
    """Oracle effort: catalog groups up to max_order, holomorphs up to s_max."""

    max_order: int = 16
    s_max: int = 6

    def __post_init__(self):
        if self.max_order < 0 or self.s_max < 0:
            raise ValueError("budget values must be non-negative")


def hom_arrays(pres: RoseGbs, group: PcGroup) -> tuple[np.ndarray, list[np.ndarray]]:
    """All satisfying assignments, as an a-image array plus one array per t_i.

    Assignments come out in lexicographic order of (a, t_1, .., t_r) codes.
    Loop i constrains only (a, t_i), so it is checked once per pair, on an
    order x order table, and broadcast over the order**(r+1) grid.
    """
    n, r = group.order, pres.r
    if n ** (r + 1) > MAX_ASSIGNMENTS:
        raise ValueError(
            f"assignment sweep {n}^{r + 1} exceeds {MAX_ASSIGNMENTS};"
            " lower the catalog budget"
        )
    table, pw, inv = group.table, group.pow_table, group.inv
    a, t = np.arange(n)[:, None], np.arange(n)[None, :]
    mask = np.ones((n,) * (r + 1), dtype=bool)
    for i, loop in enumerate(pres.loops, 1):
        ok = table[table[t, pw[a, loop.n % n]], inv[t]] == pw[a, loop.m % n]
        mask &= ok.reshape((n,) + (1,) * (i - 1) + (n,) + (1,) * (r - i))
    code = np.flatnonzero(mask).astype(np.int32)
    imgs = []
    for _ in range(r + 1):
        code, digit = np.divmod(code, n)
        imgs.append(digit)
    a_img, *t_imgs = reversed(imgs)
    return a_img, t_imgs


def evaluate_word_bulk(
    w: Word, group: PcGroup, a_img: np.ndarray, t_imgs: Sequence[np.ndarray]
) -> np.ndarray:
    """Images of w under a whole array of homs at once."""
    acc = np.zeros(len(a_img), dtype=np.int32)
    for gen, exp in w.letters:
        img = a_img if gen == 0 else t_imgs[gen - 1]
        acc = group.table[acc, group.pow_table[img, exp % group.order]]
    return acc


@dataclass(frozen=True)
class CatalogHoms:
    """The homomorphisms into one catalog group that separate() evaluates:
    every hom for an abelian group, the Aut(G)-orbit representatives for a
    non-abelian one (see the module docstring); homs counts them all."""

    group: PcGroup
    a_img: np.ndarray
    t_imgs: Sequence[np.ndarray]
    homs: int

    @classmethod
    def of(cls, group: PcGroup, a_img: np.ndarray, t_imgs: Sequence[np.ndarray]):
        """From the hom_arrays of group, keeping the lexicographically least
        hom of each orbit when the group is non-abelian."""
        homs = len(a_img)
        if not group.is_abelian:
            code = a_img
            for t in t_imgs:
                code = code * group.order + t
            keep = group.orbit_least_mask(1 + len(t_imgs))[code]
            a_img, t_imgs = a_img[keep], [t[keep] for t in t_imgs]
        return cls(group, a_img, t_imgs, homs)

    @property
    def order(self) -> int:
        return self.group.order

    def separate(self, w: Word) -> Optional[dict]:
        """Witness for the first hom (in lexicographic order) under which w is
        not the identity, or None."""
        g = self.group
        if g.is_abelian:
            w = w.abelianised
            if w.is_identity():
                return None
        images = evaluate_word_bulk(w, g, self.a_img, self.t_imgs)
        hits = np.nonzero(images)[0]
        if not len(hits):
            return None
        i = int(hits[0])
        return {
            "kind": "catalog",
            "target": g.name,
            "order": g.order,
            "image_a": g.element_str(int(self.a_img[i])),
            "image_t": [g.element_str(int(t[i])) for t in self.t_imgs],
            "word_image": g.element_str(int(images[i])),
        }


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

    def separate(self, w: Word) -> Optional[dict]:
        """Witness if the canonical homomorphism does not kill w, else None."""
        k, h = self.evaluate(w)
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


def _unit_subgroup_order(units: Sequence[int], q: int) -> int:
    """Order of the subgroup of (Z/q)^* generated by units, q a prime power.

    For odd q, (Z/q)^* is cyclic, so the order is the lcm of the units'
    orders; (Z/2^s)^* is not cyclic for s >= 3 and is enumerated instead.
    """
    if q % 2:
        p, s = prime_power_split(q)
        return math.lcm(*(multiplicative_order(c, p, s) for c in units))
    seen = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for c in units:
            y = (x * c) % q
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


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
    h_order = _unit_subgroup_order(cs, q)
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
    """Budgeted, deterministic sweep over catalog homs and holomorphs; catalog
    groups with order**(r+1) > MAX_ASSIGNMENTS are left out (skipped_groups).

    Holomorphs are built for s = 1, 2, .. and the first unavailable s ends
    the list, since then every larger s is unavailable too.  "not-applicable"
    (some sigma_i != tau_i) does not depend on s.  "not-a-p-group" arises only
    for odd p, where (Z/p^s)^* = C_(p-1) x C_(p^(s-1)) and a unit has p-power
    order iff it is 1 mod p: H_s is a p-group iff every c_i with s > sigma_i
    is 1 mod p (the others are 1).  As c_i = m_hat_i / n_hat_i mod p for
    every s > sigma_i, raising s only adds loops to that condition.  For
    p = 2 every unit has 2-power order, so H_s is always a 2-group.
    """

    def __init__(
        self,
        pres: RoseGbs,
        p: int,
        budget: Budget = Budget(),
        catalog: Optional[Sequence[PcGroup]] = None,
    ):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.pres = pres
        self.p = p
        self.budget = budget
        if catalog is None:
            catalog = builtin_catalog(p) if budget.max_order > 0 else ()
        in_budget = [g for g in catalog if g.order <= budget.max_order]
        self.groups = [
            g for g in in_budget if g.order ** (pres.r + 1) <= MAX_ASSIGNMENTS
        ]
        self.skipped_groups = [g.name for g in in_budget if g not in self.groups]
        self._hom_cache: dict[str, tuple[np.ndarray, list[np.ndarray]]] = {}
        self._catalog_homs: dict[str, CatalogHoms] = {}
        self.holomorphs: list[HolomorphQuotient] = []
        self.holomorph_unavailable: Optional[str] = None
        for s in range(1, budget.s_max + 1):
            try:
                self.holomorphs.append(holomorph_quotient(pres, p, s))
            except HolomorphUnavailable as exc:
                self.holomorph_unavailable = f"s={s}: {exc}"
                break

    def homs_for(self, group: PcGroup) -> tuple[np.ndarray, list[np.ndarray]]:
        if group.name not in self._hom_cache:
            self._hom_cache[group.name] = hom_arrays(self.pres, group)
        return self._hom_cache[group.name]

    def targets(self) -> Iterator[CatalogHoms | HolomorphQuotient]:
        """Catalog hom sets in file order, then holomorphs by s; hom sets are
        enumerated (and cached) only when reached."""
        for group in self.groups:
            homs = self.homs_for(group)
            if group.name not in self._catalog_homs:
                self._catalog_homs[group.name] = CatalogHoms.of(group, *homs)
            yield self._catalog_homs[group.name]
        yield from self.holomorphs

    @property
    def total_homs(self) -> int:
        return sum(t.homs for t in self.targets())

    def verdict(self, w: Word) -> Verdict:
        if w.max_gen() > self.pres.r:
            raise ValueError("word uses a stable letter outside the presentation")
        tested = 0
        max_order = 0
        for target in self.targets():
            tested += target.homs
            max_order = max(max_order, target.order)
            witness = target.separate(w)
            if witness is not None:
                return Verdict(w, True, tested, max_order, witness)
        return Verdict(w, False, tested, max_order)


def membership_verdict(
    w: Word,
    pres: RoseGbs,
    p: int,
    budget: Budget = Budget(),
    catalog: Optional[Sequence[PcGroup]] = None,
) -> Verdict:
    """Evaluate w under every budgeted quotient; first separation wins."""
    return QuotientOracle(pres, p, budget, catalog).verdict(w)


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
    violations: tuple[CheckResult, ...]
    inconclusive: tuple[str, ...]
    orientation_report: Optional[dict]
    mixed_order_report: Optional[dict]
    holomorph_s: tuple[int, ...]
    holomorph_unavailable: Optional[str]
    catalog_names: tuple[str, ...]

    @property
    def status(self) -> str:
        if self.violations:
            return "theorem-violation"
        if self.inconclusive:
            return "inconclusive"
        return "ok"


def _check_entries(
    oracle: QuotientOracle,
    entries: Sequence[GeneratorEntry],
    check: str,
) -> list[CheckResult]:
    return [
        CheckResult(check, e.family, e.detail, e.word, oracle.verdict(e.word))
        for e in entries
    ]


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
    """
    oracle = QuotientOracle(pres, p, budget, catalog)
    cls = classify(pres, p, orientation)
    inconclusive: list[str] = []
    checks: list[CheckResult] = []
    violations: list[CheckResult] = []
    orientation_report: Optional[dict] = None
    mixed_order_report: Optional[dict] = None

    if cls.case == Case.ONE:
        gens = case1_generators(cls)
    else:
        gens = case2_generators(cls, bounds, mixed_order)

    containment = _check_entries(oracle, gens.entries, "containment")
    checks.extend(containment)
    violations.extend(c for c in containment if c.verdict.separated)

    if oracle.skipped_groups:
        inconclusive.append(
            f"catalog groups {', '.join(oracle.skipped_groups)} skipped: order^"
            f"{pres.r + 1} exceeds {MAX_ASSIGNMENTS}; lower --budget.max-order"
        )
    if oracle.total_homs == 0:
        inconclusive.append("no quotients within budget; nothing was tested")

    if cls.case == Case.ONE and cls.xi is not None and cls.xi >= 1:
        w = generator(0, p ** (cls.xi - 1))
        v = oracle.verdict(w)
        checks.append(CheckResult("separation", "power", f"xi-1={cls.xi - 1}", w, v))
        if not v.separated:
            inconclusive.append(
                f"a^(p^(xi-1)) = {w} was not separated within budget"
            )

    if pres.r == 1:
        fam = moldavanskii_r1(pres, p, k_bound=bounds.k_max)
        mold = _check_entries(
            oracle,
            [GeneratorEntry(w, "moldavanskii", f"word {i}") for i, w in
             enumerate(fam.words)],
            "moldavanskii",
        )
        checks.extend(mold)
        violations.extend(c for c in mold if c.verdict.separated)

    if cls.case == Case.TWO:
        mixed_separations = sum(
            1 for c in containment if c.family == "mixed" and c.verdict.separated
        )
        alt_orientation = (
            Orientation.INTRO_VERBATIM
            if orientation is Orientation.CANONICAL
            else Orientation.CANONICAL
        )
        cls_alt = classify(pres, p, alt_orientation)
        alt_mixed = _check_entries(
            oracle, family_mixed(cls_alt, bounds, mixed_order),
            "orientation-alternate",
        )
        checks.extend(alt_mixed)
        counts = {
            orientation.value: mixed_separations,
            alt_orientation.value: sum(1 for c in alt_mixed if c.verdict.separated),
        }
        surviving = [o for o, c in counts.items() if c == 0]
        orientation_report = {
            "separations": counts,
            "surviving": surviving,
            "default": Orientation.CANONICAL.value,
            "default_survives": counts.get(Orientation.CANONICAL.value) == 0,
        }

        alt_order = (
            MixedOrder.VERBATIM
            if mixed_order is MixedOrder.CONJUGATE
            else MixedOrder.CONJUGATE
        )
        alt_entries = family_mixed(cls, bounds, alt_order)
        alt_results = _check_entries(oracle, alt_entries, "mixed-order-alternate")
        checks.extend(alt_results)
        mixed_order_report = {
            "separations": {
                mixed_order.value: mixed_separations,
                alt_order.value: sum(1 for c in alt_results if c.verdict.separated),
            },
            "default": MixedOrder.CONJUGATE.value,
        }

    return VerifyReport(
        pres=pres,
        p=p,
        classification=cls,
        bounds=bounds,
        budget=budget,
        orientation=orientation,
        mixed_order=mixed_order,
        generator_set=gens,
        checks=tuple(checks),
        violations=tuple(violations),
        inconclusive=tuple(inconclusive),
        orientation_report=orientation_report,
        mixed_order_report=mixed_order_report,
        holomorph_s=tuple(h.s for h in oracle.holomorphs),
        holomorph_unavailable=oracle.holomorph_unavailable,
        catalog_names=tuple(g.name for g in oracle.groups),
    )
