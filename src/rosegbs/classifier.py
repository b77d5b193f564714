"""Per-loop p-adic invariants, the two-case split, and the residual-p test.

For a loop t a^n t^(-1) = a^m and a prime p, write m = p^sigma * m_hat and
n = p^tau * n_hat with p coprime to m_hat, n_hat.  The loop invariant theta
is min(sigma, tau), except it is infinite when sigma == tau and p divides
m_hat - n_hat.  Any finite theta puts the whole presentation in case 1 (the
intersection of p-power-index normal subgroups is the normal closure of
a^(p^xi), xi the least finite theta); otherwise case 2 applies and the
intersection is generated by three word families built from the unit parts.

Unit orientation: we factor d = gcd(|m_hat|, |n_hat|) and set u = n_hat/d,
v = m_hat/d (u on the conjugated side), which is the orientation consistent
with iterating the defining relations in finite quotients:
t^k a^(p^sigma * u^k) t^(-k) = a^(p^sigma * v^k) for k > 0.  The opposite
assignment (u = m_hat/d) is kept available behind a switch so the oracle can
compare both; see Orientation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .numtheory import is_p_power, p_valuation, require_prime
from .presentation import RoseGbs, Word, commutator, conjugate, generator, reduce


#: The infinite value of theta: a float that compares above every int, never
#: an integer sentinel.
INFINITY = math.inf


class Orientation(enum.Enum):
    """Which unit part of the loop is called u (see module docstring)."""

    CANONICAL = "canonical"  # u = n_hat / d, the conjugated side
    INTRO_VERBATIM = "intro-verbatim"  # u = m_hat / d

    def __str__(self) -> str:
        return self.value


class Case(enum.IntEnum):
    ONE = 1
    TWO = 2


@dataclass(frozen=True)
class LoopData:
    """Invariants of one loop at a fixed prime (indices are 1-based)."""

    index: int
    n: int
    m: int
    sigma: int
    tau: int
    m_hat: int
    n_hat: int
    d: int
    u: int
    v: int
    theta: int | float  # an int, or INFINITY

    @property
    def theta_finite(self) -> bool:
        return self.theta != INFINITY

    def is_elementary(self) -> bool:
        return abs(self.n) == 1 and abs(self.m) == 1


@dataclass(frozen=True)
class Classification:
    """Case split of a presentation at a prime."""

    p: int
    case: Case
    loops: tuple[LoopData, ...]
    xi: Optional[int]  # case 1 only: min over the finite thetas
    sigma_total: Optional[int]  # case 2 only: sum of the sigmas
    orientation: Orientation
    warnings: tuple[str, ...] = ()

    @property
    def r(self) -> int:
        return len(self.loops)

    def require_case(self, case: Case) -> None:
        if self.case != case:
            raise ValueError(f"expected case {int(case)}, classification is case {int(self.case)}")


@dataclass(frozen=True)
class ExponentData:
    """The (y, y_bar, delta) data of one exponent vector k."""

    y: int
    y_bar: int
    delta: int


class Reason(enum.Enum):
    ALL_LOOPS_EQUAL_P_POWER = "ALL_LOOPS_EQUAL_P_POWER"
    ALL_LOOPS_NEG_TWO_POWER = "ALL_LOOPS_NEG_TWO_POWER"
    BS_CASE_RULE = "BS_CASE_RULE"
    OBSTRUCTION = "OBSTRUCTION"


@dataclass(frozen=True)
class ResidualPReport:
    """Outcome of the residually-finite-p test, with a witness when false.

    witness holds the offending 1-based loop index, or a pair (kappa, lambda)
    mirroring the corollary proof's subgroup obstructions; obstruction_kind is
    'single' for a loop that fails on its own and 'H', 'K' or 'M' for the
    incompatible-pair subgroups of the proof.
    """

    p: int
    decision: bool
    reason: Reason
    witness: Optional[tuple[int, ...]] = None
    obstruction_kind: Optional[str] = None
    warnings: tuple[str, ...] = ()


def loop_data(
    pres: RoseGbs, p: int, orientation: Orientation = Orientation.CANONICAL
) -> tuple[LoopData, ...]:
    """Compute the per-loop invariants of pres at the prime p."""
    require_prime(p)
    out = []
    for i, loop in enumerate(pres.loops, 1):
        sigma, m_hat = p_valuation(loop.m, p)
        tau, n_hat = p_valuation(loop.n, p)
        d = math.gcd(abs(m_hat), abs(n_hat))
        if orientation is Orientation.CANONICAL:
            u, v = n_hat // d, m_hat // d
        else:
            u, v = m_hat // d, n_hat // d
        if sigma == tau and (m_hat - n_hat) % p == 0:
            theta = INFINITY
        else:
            theta = min(sigma, tau)
        out.append(
            LoopData(
                index=i, n=loop.n, m=loop.m, sigma=sigma, tau=tau,
                m_hat=m_hat, n_hat=n_hat, d=d, u=u, v=v, theta=theta,
            )
        )
    return tuple(out)


def classify(
    pres: RoseGbs, p: int, orientation: Orientation = Orientation.CANONICAL
) -> Classification:
    """Case 1 with xi if any loop has finite theta, else case 2 with Sigma."""
    loops = loop_data(pres, p, orientation)
    warnings = tuple(
        f"loop {L.index} is elementary (|n| = |m| = 1), outside the"
        " non-elementary standing assumption"
        for L in loops
        if L.is_elementary()
    )
    finite = [L.theta for L in loops if L.theta_finite]
    if finite:
        return Classification(
            p=p, case=Case.ONE, loops=loops, xi=min(finite),
            sigma_total=None, orientation=orientation, warnings=warnings,
        )
    return Classification(
        p=p, case=Case.TWO, loops=loops, xi=None,
        sigma_total=sum(L.sigma for L in loops),
        orientation=orientation, warnings=warnings,
    )


def exponent_data(loops: Sequence[LoopData], k: Sequence[int]) -> ExponentData:
    """y_i = u_i^|k_i| (k_i > 0), v_i^|k_i| (k_i < 0), 1 (k_i = 0); y_bar swaps u, v."""
    if len(k) != len(loops):
        raise ValueError(f"expected {len(loops)} exponents, got {len(k)}")
    y = 1
    y_bar = 1
    for L, ki in zip(loops, k):
        if ki > 0:
            y *= L.u**ki
            y_bar *= L.v**ki
        elif ki < 0:
            y *= L.v ** (-ki)
            y_bar *= L.u ** (-ki)
    return ExponentData(y, y_bar, math.gcd(abs(y), abs(y_bar)))


# --- residual finite-p test -------------------------------------------------


def _sign_normalize(n: int, m: int) -> tuple[int, int]:
    # BS(n, m) and BS(-n, -m) present the same group; make n positive
    return (-n, -m) if n < 0 else (n, m)


def _bs_normalize(n: int, m: int) -> tuple[int, int]:
    # full Baumslag-Solitar normal form 0 < n <= |m|, using both the sign
    # isomorphism and the t -> t^(-1) swap isomorphism
    n, m = _sign_normalize(n, m)
    if n > abs(m):
        n, m = _sign_normalize(m, n)
    return n, m


def _loop_type(n: int, m: int, p: int) -> str:
    """E: equal p-power; N: p=2 and (2^s, -2^s); B: BS(1, 1 mod p) type; X: none."""
    n, m = _sign_normalize(n, m)
    if n == m and is_p_power(n, p):
        return "E"
    if p == 2 and n == -m and is_p_power(n, 2):
        return "N"
    bn, bm = _bs_normalize(n, m)
    if bn == 1 and (bm - 1) % p == 0:
        return "B"
    return "X"


def residually_p(pres: RoseGbs, p: int) -> ResidualPReport:
    """Decide whether pres is a residually finite p-group.

    Each loop is typed by _loop_type.  For r = 1 the three Baumslag-Solitar
    conditions apply: n = m = p^s (E), p = 2 with m = -n = -2^s (N), or
    BS(1, 1 mod p) up to isomorphism (B).  For r >= 2 every loop must be E
    or N; a loop of type B is incompatible with any second loop and yields a
    pair witness.
    """
    warnings = classify(pres, p).warnings
    types = [_loop_type(L.n, L.m, p) for L in pres.loops]
    bad = [i for i, t in enumerate(types, 1) if t == "X"]
    if bad:
        return ResidualPReport(p, False, Reason.OBSTRUCTION, witness=(bad[0],),
                               obstruction_kind="single", warnings=warnings)
    bs_loops = [i for i, t in enumerate(types, 1) if t == "B"]
    if bs_loops and pres.r == 1:
        return ResidualPReport(p, True, Reason.BS_CASE_RULE, warnings=warnings)
    if bs_loops:
        kappa = bs_loops[0]
        # any partner loop forms a non-residually-p BS subgroup <t_l t_k, a>
        partner_kind = {"B": "H", "E": "K", "N": "M"}
        lam, kind = min(
            (i, partner_kind[t]) for i, t in enumerate(types, 1) if i != kappa
        )
        return ResidualPReport(p, False, Reason.OBSTRUCTION, witness=(kappa, lam),
                               obstruction_kind=kind, warnings=warnings)
    if any(t == "N" for t in types):
        return ResidualPReport(p, True, Reason.ALL_LOOPS_NEG_TWO_POWER,
                               warnings=warnings)
    return ResidualPReport(p, True, Reason.ALL_LOOPS_EQUAL_P_POWER,
                           warnings=warnings)


# --- Moldavanskii's r = 1 description ---------------------------------------


@dataclass(frozen=True)
class MoldavanskiiFamily:
    """The r = 1 generator family in Moldavanskii's own labels.

    Case 1 is the single generator a^(p^xi).  Case 2 is the conjugation
    relator t^(-1) a^(p^s * m_hat/d) t a^(-p^s * n_hat/d) (his u = m_hat/d
    pairs with conjugation by t^(-1)) together with the commutators
    [t^k a^(p^s) t^(-k), a] for 0 < |k| <= k_bound.
    """

    case: Case
    xi: Optional[int]
    words: tuple[Word, ...]


def moldavanskii_r1(pres: RoseGbs, p: int, k_bound: int = 2) -> MoldavanskiiFamily:
    if pres.r != 1:
        raise ValueError("Moldavanskii's description applies to r = 1 only")
    cls = classify(pres, p)
    L = cls.loops[0]
    if cls.case == Case.ONE:
        return MoldavanskiiFamily(Case.ONE, cls.xi, (generator(0, p**cls.xi),))
    s = L.sigma
    mu, nv = L.m_hat // L.d, L.n_hat // L.d
    first = reduce(
        [(1, -1), (0, p**s * mu), (1, 1), (0, -(p**s) * nv)]
    )
    words = [first]
    a = generator(0)
    for k in range(-k_bound, k_bound + 1):
        if k == 0:
            continue
        w = commutator(conjugate(generator(0, p**s), generator(1, k)), a)
        if not w.is_identity():
            words.append(w)
    return MoldavanskiiFamily(Case.TWO, None, tuple(words))
