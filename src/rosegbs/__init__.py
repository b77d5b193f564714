"""Residual p-power invariants of rose generalized Baumslag-Solitar groups.

Given a multiple HNN extension of the infinite cyclic group,
<a, t_1..t_r | t_i a^(n_i) t_i^(-1) = a^(m_i)>, and a prime p, this package
computes the intersection of all normal subgroups of p-power index (as an
explicit generating family for its normal closure), decides whether the group
is a residually finite p-group, and verifies both against a brute-force
oracle over small finite p-groups.
"""

from .classifier import (
    INFINITY,
    Case,
    Classification,
    ExponentData,
    LoopData,
    MoldavanskiiFamily,
    Orientation,
    Reason,
    ResidualPReport,
    classify,
    exponent_data,
    loop_data,
    moldavanskii_r1,
    residually_p,
)
from .generators import (
    Bounds,
    GeneratorEntry,
    GeneratorSet,
    MixedOrder,
    case1_generators,
    case2_generators,
    family_mixed,
    np_omega_generators,
    serialize_generators,
)
from .numtheory import (
    DiophantineSolution,
    ValuationSplit,
    ext_gcd,
    is_p_power,
    is_prime,
    kummer_valuation,
    legendre_valuation,
    multiplicative_order,
    p_valuation,
    solve_diophantine,
)
from .pcgroup import CatalogError, PcGroup, builtin_catalog, load_catalog
from .presentation import (
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
from .quotients import (
    Budget,
    HolomorphQuotient,
    HolomorphUnavailable,
    QuotientOracle,
    Verdict,
    VerifyReport,
    holomorph_quotient,
    verify_theorem,
)

__version__ = "0.1.0"
