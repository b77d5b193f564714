"""Command-line surface: classify, generators, residual, verify, catalog-validate.

Presentations are passed inline (anything starting with '<') or as a path to
a file containing one.  Every option in SETTINGS can also be set through an
environment variable with the ROSEGBS_ prefix (ROSEGBS_P, ROSEGBS_K_MAX,
ROSEGBS_COMM_LEN, ROSEGBS_COUNT_LIMIT, ROSEGBS_MAX_ORDER, ROSEGBS_S_MAX,
ROSEGBS_FORMAT, ROSEGBS_ORIENTATION, ROSEGBS_MIXED_ORDER, and ROSEGBS_SEED for
catalog-validate, the only command with a randomized check): the flag wins,
then the variable, then the built-in default.  A command reads only the
variables of its own options.  A variable is checked with the flag's type and
choices, so an invalid value exits 2 like an invalid flag.  Identical inputs
produce byte-identical output; JSON reports follow data/report.schema.json.

Exit codes: 0 success (verify: all checks pass), 1 verify found a
theorem-violation (or catalog validation failed), 2 invalid input,
3 verify was inconclusive only, 4 internal error (any other exception, such
as MemoryError; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from .classifier import Case, Classification, Orientation, classify, residually_p
from .generators import (
    Bounds, GeneratorSet, MixedOrder, np_omega_generators, serialize_generators,
)
from .numtheory import require_prime
from .pcgroup import CatalogError, load_catalog, random_confluence_check
from .presentation import ParseError, PresentationError, RoseGbs, parse_presentation
from .quotients import Budget, VerifyReport, verify_theorem

DEFAULT_SEED = 1729

_ENV_PREFIX = "ROSEGBS_"


@dataclass(frozen=True)
class Setting:
    """One option: set by its flag, else by ROSEGBS_<key>, else default
    (None: required).  The variable goes through the flag's type and choices."""

    flag: str
    type: Callable[[str], object] = str
    default: object = None
    choices: Optional[tuple[str, ...]] = None
    help: Optional[str] = None


_BOUNDS, _BUDGET = Bounds(), Budget()  # the library defaults

# keyed by the ROSEGBS_ suffix; the argparse dest is the key in lower case
SETTINGS = {
    "P": Setting("-p", int, help="the prime p"),
    "FORMAT": Setting("--format", default="text", choices=("text", "json")),
    "SEED": Setting("--seed", int, DEFAULT_SEED, help="seed for randomized checks"),
    "ORIENTATION": Setting(
        "--orientation", default=Orientation.CANONICAL.value,
        choices=tuple(o.value for o in Orientation),
        help=f"which unit part of each loop is u (default: {Orientation.CANONICAL},"
        " the conjugated side)",
    ),
    "MIXED_ORDER": Setting(
        "--mixed-order", default=MixedOrder.CONJUGATE.value,
        choices=tuple(o.value for o in MixedOrder),
        help="letter order of the inverse block in the mixed family",
    ),
    "K_MAX": Setting("--bounds.k-max", int, _BOUNDS.k_max),
    "COMM_LEN": Setting("--bounds.comm-len", int, _BOUNDS.comm_word_len),
    "COUNT_LIMIT": Setting("--bounds.count-limit", int, _BOUNDS.count_limit),
    "MAX_ORDER": Setting("--budget.max-order", int, _BUDGET.max_order),
    "S_MAX": Setting("--budget.s-max", int, _BUDGET.s_max),
}


def _load_presentation(arg: str) -> RoseGbs:
    text = arg
    if not arg.lstrip().startswith("<"):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_presentation(text)


def _emit(report: dict, render: Callable[[dict], str], fmt: str) -> None:
    """Print the report as JSON, or as render(report) for --format text: the
    text is a view of the report and is built only when it is printed."""
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = render(report)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# --- report builders -----------------------------------------------------------


def _loops_json(cls: Classification) -> list[dict]:
    # vars, not dataclasses.asdict: asdict deep-copies every field, about 25x
    # slower per loop, and stream-like runs render a loop entry per report
    return [
        {**vars(L), "theta": L.theta if L.theta_finite else "infinity"}
        for L in cls.loops
    ]


def _classification_json(cls: Classification) -> dict:
    return {
        "case": int(cls.case),
        "xi": cls.xi,
        "sigma": cls.sigma_total,
        "loops": _loops_json(cls),
        "orientation": cls.orientation.value,
        "warnings": list(cls.warnings),
    }


def _classify_text(report: dict) -> str:
    """A classify report, or the "classification" of a verify report."""
    case = report["case"]
    lines = [
        f"case {case}: "
        + (f"xi = {report['xi']}" if case == Case.ONE else f"Sigma = {report['sigma']}")
    ]
    header = f"{'loop':>4} {'n':>8} {'m':>8} {'sigma':>5} {'tau':>5} " \
             f"{'m_hat':>8} {'n_hat':>8} {'d':>4} {'u':>6} {'v':>6} {'theta':>8}"
    lines.append(header)
    for L in report["loops"]:
        theta = "inf" if L["theta"] == "infinity" else str(L["theta"])
        lines.append(
            f"{L['index']:>4} {L['n']:>8} {L['m']:>8} {L['sigma']:>5} {L['tau']:>5} "
            f"{L['m_hat']:>8} {L['n_hat']:>8} {L['d']:>4} {L['u']:>6} {L['v']:>6}"
            f" {theta:>8}"
        )
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def _generators_json(gs: GeneratorSet) -> list[dict]:
    return [
        {"family": e.family, "detail": e.detail, "word": str(e.word)}
        for e in gs.entries
    ]


def _residual_text(report: dict) -> str:
    lines = [
        f"residually finite {report['p']}-group:"
        f" {'yes' if report['decision'] else 'no'}",
        f"reason: {report['reason']}",
    ]
    witness = report["witness"]
    if witness is not None:
        what = "loop" if len(witness) == 1 else "loop pair"
        kind = f" ({report['obstruction_kind']})" if report["obstruction_kind"] else ""
        lines.append(f"witness {what}: {', '.join(map(str, witness))}{kind}")
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def _verify_json(rep: VerifyReport) -> dict:
    verdicts = []
    witnesses = []
    for c in rep.checks:
        verdicts.append(
            {
                "check": c.check,
                "family": c.family,
                "detail": c.detail,
                "word": str(c.word),
                "verdict": c.verdict.kind,
                "homs_tested": c.verdict.homs_tested,
                "max_order": c.verdict.max_order,
            }
        )
        if c.verdict.separated:
            witnesses.append({"word": str(c.word), **(c.verdict.witness or {})})
    return {
        "command": "verify",
        "p": rep.p,
        "presentation": str(rep.pres),
        "case": int(rep.classification.case),
        "xi_or_sigma": rep.classification.xi
        if rep.classification.case == Case.ONE
        else rep.classification.sigma_total,
        "classification": _classification_json(rep.classification),
        "bounds": asdict(rep.bounds),
        "budget": asdict(rep.budget),
        "orientation": rep.orientation.value,
        "mixed_order": rep.mixed_order.value,
        "generators": _generators_json(rep.generator_set),
        "truncated": rep.generator_set.truncated,
        "dropped_trivial": rep.generator_set.dropped_trivial,
        "verdicts": verdicts,
        "witnesses": witnesses,
        "violations": [
            {"family": c.family, "detail": c.detail, "word": str(c.word)}
            for c in rep.violations
        ],
        "inconclusive": list(rep.inconclusive),
        "catalog": list(rep.catalog_names),
        "holomorph_s": list(rep.holomorph_s),
        "holomorph_unavailable": rep.holomorph_unavailable,
        "orientation_adjudication": rep.orientation_report,
        "mixed_order_adjudication": rep.mixed_order_report,
        "status": rep.status,
    }


def _verify_text(report: dict) -> str:
    """A verify report; each separated verdict is followed by its witness,
    the next entry of report["witnesses"]."""
    verdicts = report["verdicts"]
    separated = sum(v["verdict"] == "separated" for v in verdicts)
    lines = [
        _classify_text(report["classification"]),
        f"oracle: {len(report['catalog'])} catalog groups"
        f" (max order {report['budget']['max_order']}),"
        f" holomorph s = {report['holomorph_s'] or 'none'}",
    ]
    if report["holomorph_unavailable"]:
        lines.append(f"holomorph unavailable: {report['holomorph_unavailable']}")
    lines.append(
        f"checks: {len(verdicts)} words ({len(verdicts) - separated} in all kernels,"
        f" {separated} separated)"
    )
    witnesses = iter(report["witnesses"])
    for v in verdicts:
        mark = "SEPARATED" if v["verdict"] == "separated" else "in-all-kernels"
        lines.append(
            f"  [{v['check']}] {v['family']} {v['detail']}: {v['word']} -> {mark}"
            f" ({v['homs_tested']} homs)"
        )
        if v["verdict"] == "separated":
            w = next(witnesses)
            lines.append(f"      witness: {w['target']} image {w['word_image']}")
    orientation = report["orientation_adjudication"]
    if orientation:
        lines.append(
            f"orientation adjudication: separations {orientation['separations']},"
            f" surviving {orientation['surviving']}"
        )
    if report["mixed_order_adjudication"]:
        lines.append(
            f"mixed-order adjudication: separations"
            f" {report['mixed_order_adjudication']['separations']}"
        )
    for msg in report["inconclusive"]:
        lines.append(f"INCONCLUSIVE: {msg}")
    for v in report["violations"]:
        lines.append(f"THEOREM-VIOLATION: {v['family']} {v['detail']} {v['word']}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines)


def _catalog_text(report: dict) -> str:
    if report["status"] != "ok":
        return f"INVALID: {report['error']}"
    groups = report["groups"]
    text = "\n".join(
        f"{e['name']}: order {e['order']} ok ({e['confluence_words']} words)"
        for e in groups
    ) or "empty catalog"
    return text + f"\nvalidated {len(groups)} groups"


# --- commands -------------------------------------------------------------------


def _cmd_classify(args) -> int:
    """per-loop invariants and case split"""
    cls = classify(args.pres, args.p, Orientation(args.orientation))
    report = {
        "command": "classify",
        "p": args.p,
        "presentation": str(args.pres),
        **_classification_json(cls),
    }
    _emit(report, _classify_text, args.format)
    return 0


def _cmd_generators(args) -> int:
    """generator family for (N_p)_omega"""
    bounds = Bounds(args.k_max, args.comm_len, args.count_limit)
    gs = np_omega_generators(
        args.pres, args.p, bounds,
        Orientation(args.orientation), MixedOrder(args.mixed_order),
    )
    report = {
        "command": "generators",
        "p": args.p,
        "presentation": str(args.pres),
        "case": int(gs.case),
        "orientation": args.orientation,
        "mixed_order": args.mixed_order,
        "bounds": asdict(bounds),
        "generators": _generators_json(gs),
        "count": len(gs.entries),
        "truncated": gs.truncated,
        "dropped_trivial": gs.dropped_trivial,
    }
    _emit(report, lambda _: serialize_generators(gs), args.format)
    return 0


def _cmd_residual(args) -> int:
    """is the group residually finite-p?"""
    rep = residually_p(args.pres, args.p)
    report = {
        **vars(rep),
        "command": "residual",
        "presentation": str(args.pres),
        "reason": rep.reason.value,
    }
    _emit(report, _residual_text, args.format)
    return 0


def _cmd_verify(args) -> int:
    """oracle-check the computed answers"""
    rep = verify_theorem(
        args.pres,
        args.p,
        Bounds(args.k_max, args.comm_len, args.count_limit),
        Budget(args.max_order, args.s_max),
        Orientation(args.orientation),
        MixedOrder(args.mixed_order),
    )
    _emit(_verify_json(rep), _verify_text, args.format)
    if rep.status == "theorem-violation":
        return 1
    if rep.status == "inconclusive":
        return 3
    return 0


def _cmd_catalog_validate(args) -> int:
    """validate a catalog file"""
    if args.confluence_words < 0:
        raise ValueError(
            f"--confluence-words must be >= 0, got {args.confluence_words}"
        )
    report = {"command": "catalog-validate", "path": args.path,
              "status": "ok", "groups": [], "error": None}
    try:
        for g in load_catalog(args.path):
            checked = random_confluence_check(g, args.confluence_words, args.seed)
            report["groups"].append(
                {
                    "name": g.name,
                    "p": g.p,
                    "order": g.order,
                    "status": "ok",
                    "confluence_words": checked,
                }
            )
    except CatalogError as exc:
        report.update(status="invalid", error=str(exc), groups=[])
    _emit(report, _catalog_text, args.format)
    return 0 if report["status"] == "ok" else 1


_COMMON = ("P", "FORMAT")
_ORIENTATION = ("ORIENTATION", "MIXED_ORDER")
_BOUND_KEYS = ("K_MAX", "COMM_LEN", "COUNT_LIMIT")

# name: (handler, settings); a command with "P" takes a presentation, which
# main checks p for and parses into args.pres before the handler runs
_COMMANDS = {
    "classify": (_cmd_classify, _COMMON + _ORIENTATION),
    "generators": (_cmd_generators, _COMMON + _ORIENTATION + _BOUND_KEYS),
    "residual": (_cmd_residual, _COMMON),
    "verify": (_cmd_verify, _COMMON + _ORIENTATION + _BOUND_KEYS + ("MAX_ORDER", "S_MAX")),
    "catalog-validate": (_cmd_catalog_validate, ("FORMAT", "SEED")),
}


def _build_parser() -> argparse.ArgumentParser:
    """Every SETTINGS option defaults to None here; _fill_settings supplies
    the environment and built-in values after parsing."""
    parser = argparse.ArgumentParser(
        prog="rosegbs",
        description="p-power residual invariants of rose GBS groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, keys) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=handler.__doc__)
        if "P" in keys:
            cmd.add_argument(
                "presentation",
                help="inline presentation (starts with '<') or a file path",
            )
        else:
            cmd.add_argument("path", help="catalog file")
            cmd.add_argument(
                "--confluence-words", dest="confluence_words", type=int,
                default=1000,
                help="random words per group for the normal-form uniqueness"
                " check (>= 0)",
            )
        for key in keys:
            s = SETTINGS[key]
            cmd.add_argument(s.flag, dest=key.lower(), type=s.type,
                             choices=s.choices, help=s.help)
    return parser


def _fill_settings(args: argparse.Namespace, keys: Sequence[str]) -> None:
    """Set each option the command line left at None from ROSEGBS_<key>,
    else from its default; a bad value raises ValueError (exit 2)."""
    for key in keys:
        dest, s, env = key.lower(), SETTINGS[key], _ENV_PREFIX + key
        if getattr(args, dest) is not None:
            continue
        raw = os.environ.get(env)
        if raw is None and s.default is None:
            raise ValueError(f"{s.flag} is required (or set {env})")
        try:
            value = s.default if raw is None else s.type(raw)
        except ValueError:
            raise ValueError(f"{env}: not a valid {s.type.__name__}: {raw!r}") from None
        if s.choices is not None and value not in s.choices:
            raise ValueError(f"{env}: invalid choice {raw!r}, not in {s.choices}")
        setattr(args, dest, value)


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main()


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    handler, keys = _COMMANDS[args.command]
    try:
        _fill_settings(args, keys)
        if "P" in keys:
            require_prime(args.p)
            args.pres = _load_presentation(args.presentation)
        return handler(args)
    except CatalogError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ParseError, PresentationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a bug or resource failure must not read as exit 1
        traceback.print_exc(file=sys.stderr)
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
