"""Benchmark workloads: the argument lists handed to ``rosegbs.cli.main``.

Every workload is a list of operations.  An operation is one CLI invocation
(one ``verify`` call, or one catalog file validated) plus the facts the
correctness and counter checks need.  Inputs depend only on the workload
name and the seed; the program sees only the generated argument lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# The paper's own examples, as in scripts/verify_examples.py: (loops as
# (n, m) pairs, p, catalog max order).  Copied, so that editing the script
# cannot silently change the benchmark.
BATTERY = [
    ([(2, 12)], 2, 16),
    ([(2, 3)], 2, 16),
    ([(2, 12), (3, 3)], 2, 16),
    ([(3, 1)], 2, 16),
    ([(1, 3)], 2, 16),
    ([(3, -1)], 2, 16),
    ([(3, 1), (5, 1)], 2, 16),
    ([(2, 2), (4, 4)], 2, 16),
    ([(-2, 2)], 2, 16),
    ([(3, 12)], 3, 27),
    ([(3, 12), (2, 5)], 3, 27),
    ([(3, 3), (9, 9)], 3, 27),
    ([(5, 5)], 5, 125),
]

CATALOG_FILES = (
    "src/rosegbs/data/catalog_p2.txt",
    "src/rosegbs/data/catalog_p3.txt",
    "src/rosegbs/data/catalog_p5.txt",
)
CONFLUENCE_WORDS = 10000
S_MAX = 6  # the CLI default, passed explicitly so the counter check knows it


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple[str, ...]
    command: str  # "verify" | "catalog-validate"
    loops: tuple[tuple[int, int], ...] = ()
    p: int = 0
    max_order: int = 0
    expected_groups: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    primes: tuple[int, ...]  # catalogs built during set-up
    ops: tuple[Op, ...]


def presentation_text(loops) -> str:
    names = ",".join(f"t{i}" for i in range(1, len(loops) + 1))
    rels = " ; ".join(
        f"t{i} a^{n} t{i}^-1 = a^{m}" for i, (n, m) in enumerate(loops, 1)
    )
    return f"<a,{names} | {rels}>"


def verify_op(loops, p: int, max_order: int, k_max: int,
              comm_len: Optional[int] = None) -> Op:
    argv = [
        "verify", "-p", str(p), presentation_text(loops),
        "--budget.max-order", str(max_order),
        "--budget.s-max", str(S_MAX),
        "--bounds.k-max", str(k_max),
    ]
    if comm_len is not None:
        argv += ["--bounds.comm-len", str(comm_len)]
    argv += ["--format", "json"]
    return Op(tuple(argv), "verify", tuple(loops), p, max_order)


def _battery() -> Workload:
    ops = tuple(verify_op(loops, p, mo, k_max=2, comm_len=6)
                for loops, p, mo in BATTERY)
    return Workload("battery", (2, 3, 5), ops)


def _wide_p5() -> Workload:
    op = verify_op([(5, 5), (5, 5)], 5, 125, k_max=1, comm_len=4)
    return Workload("wide-p5", (5,), (op,))


def _valuation(x: int, p: int) -> tuple[int, int]:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def classify(loops, p: int) -> tuple[int, int]:
    """(case, xi or Sigma) by the paper's rule, independently of the program:
    theta_i = min(sigma_i, tau_i) is infinite exactly when sigma_i == tau_i
    and p | (m_hat_i - n_hat_i); any finite theta_i gives case 1."""
    finite, sigma_total = [], 0
    for n, m in loops:
        sigma, m_hat = _valuation(m, p)
        tau, n_hat = _valuation(n, p)
        sigma_total += sigma
        if sigma != tau or (m_hat - n_hat) % p:
            finite.append(min(sigma, tau))
    return (1, min(finite)) if finite else (2, sigma_total)


# Fixed share of each (r, p, case) stratum, close to what uniform draws give
# with r from {1, 1, 2}.  Fixing the counts keeps a pass's cost from varying
# with how many expensive inputs a seed happens to draw.  r = 2 inputs are
# drawn in case 1 only: an r = 2 case-2 sweep costs 0.2-0.9 s, so a handful
# of them would dominate the pass (1.5-5.5 s over seeds 1-5 with free
# draws); the battery and wide-p5 measure those sweeps.
STREAM_STRATA = {
    (1, 2, 1): 40, (1, 2, 2): 26,
    (1, 3, 1): 50, (1, 3, 2): 18,
    (2, 2, 1): 33, (2, 3, 1): 33,
}


def _stream(seed: int) -> Workload:
    rng = random.Random(f"stream:{seed}")
    exps = [e for e in range(-12, 13) if e]
    labels = [key for key, count in STREAM_STRATA.items() for _ in range(count)]
    rng.shuffle(labels)
    ops = []
    for r, p, case in labels:
        while True:
            loops = [(rng.choice(exps), rng.choice(exps)) for _ in range(r)]
            if classify(loops, p)[0] == case:
                break
        ops.append(verify_op(loops, p, 16 if p == 2 else 27, k_max=1))
    return Workload("stream", (2, 3), tuple(ops))


def _catalog() -> Workload:
    ops = []
    for path, groups in zip(CATALOG_FILES, (22, 8, 8)):
        argv = ("catalog-validate", path,
                "--confluence-words", str(CONFLUENCE_WORDS), "--format", "json")
        ops.append(Op(argv, "catalog-validate", expected_groups=groups))
    return Workload("catalog", (2, 3, 5), tuple(ops))


NAMES = ("battery", "wide-p5", "stream", "catalog")


def build(name: str, seed: int) -> Workload:
    """The workload's inputs; only ``stream`` depends on the seed."""
    if name == "battery":
        return _battery()
    if name == "wide-p5":
        return _wide_p5()
    if name == "stream":
        return _stream(seed)
    if name == "catalog":
        return _catalog()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
