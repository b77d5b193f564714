"""Per-layer tracing from outside the package.

The tracer wraps public functions of each ``rosegbs`` module with spans and
counters.  A span records calls, busy seconds and self seconds (busy minus
the time covered by child spans).  A span nested inside another span of the
same name is folded into the outer one, so recursion and a family built from
its sub-families are not counted twice.

Each hooked name is patched wherever it is looked up: every loaded
``rosegbs`` module attribute bound to the original function is replaced,
not only the defining one (``rosegbs.quotients.classify`` as well as
``rosegbs.classifier.classify``).  A hook whose name no longer exists is
reported as absent; a counter that fails on a changed signature is reported
as broken and dropped.  Either way the traced run goes on.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

Counter = Callable[[dict, tuple, dict, object, Optional[BaseException]], None]


def _count_genset(st, args, kwargs, res, exc):
    if exc is None:
        st["generators.entries"] += len(res.entries)
        st["generators.dropped_trivial"] += res.dropped_trivial


def _count_family(st, args, kwargs, res, exc):
    if exc is None:
        st["generators.entries"] += len(res)


def _count_confluence(st, args, kwargs, res, exc):
    if exc is None:
        st["pcgroup.confluence_words"] += res


def _count_group(st, args, kwargs, res, exc):
    if exc is None:
        st["pcgroup.groups_built"] += 1


def _count_hom_arrays(st, args, kwargs, res, exc):
    pres, group = args[0], args[1]
    st["quotients.assignments"] += group.order ** (pres.r + 1)
    if exc is None:
        st["quotients.homs"] += len(res[0])


def _count_lookup(st, args, kwargs, res, exc):
    st["quotients.hom_lookups"] += 1


def _count_eval(st, args, kwargs, res, exc):
    w, a_img = args[0], args[2]
    st["quotients.hom_evals"] += len(a_img)
    st["quotients.letter_gathers"] += len(w.letters) * len(a_img)


def _count_holo_build(st, args, kwargs, res, exc):
    if exc is None:
        st["quotients.holo_built"] += 1
    elif type(exc).__name__ == "HolomorphUnavailable":
        st["quotients.holo_unavailable"] += 1


def _count_unit_bfs(st, args, kwargs, res, exc):
    if exc is None:
        st["quotients.unit_bfs_elems"] += res


def _count_holo_eval(st, args, kwargs, res, exc):
    st["quotients.hom_evals"] += 1


def _count_verdict(st, args, kwargs, res, exc):
    if exc is None and res.separated:
        st["quotients.separated"] += 1


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # "func" or "Class.method"
    span: Optional[str]  # None: counter only, no timing
    counter: Optional[Counter] = None
    calls: Optional[str] = None  # metric name for the call count


HOOKS = (
    Hook("rosegbs.presentation", "parse_presentation", "presentation.parse"),
    Hook("rosegbs.classifier", "classify", "classifier"),
    Hook("rosegbs.generators", "case1_generators", "generators", _count_genset),
    Hook("rosegbs.generators", "case2_generators", "generators", _count_genset),
    Hook("rosegbs.generators", "family_mixed", "generators", _count_family),
    Hook("rosegbs.pcgroup", "PcGroup.__init__", None, _count_group),
    Hook("rosegbs.pcgroup", "PcGroup._build_table", "pcgroup.table"),
    Hook("rosegbs.pcgroup", "PcGroup._build_inverses", "pcgroup.inverses"),
    Hook("rosegbs.pcgroup", "PcGroup._build_powers", "pcgroup.powers"),
    Hook("rosegbs.pcgroup", "PcGroup._validate", "pcgroup.validate"),
    Hook("rosegbs.pcgroup", "random_confluence_check", "pcgroup.confluence",
         _count_confluence),
    Hook("rosegbs.quotients", "hom_arrays", "quotients.homs", _count_hom_arrays),
    Hook("rosegbs.quotients", "QuotientOracle.homs_for", None, _count_lookup),
    Hook("rosegbs.quotients", "evaluate_word_bulk", "quotients.eval", _count_eval),
    Hook("rosegbs.quotients", "holomorph_quotient", "quotients.holo_build",
         _count_holo_build),
    Hook("rosegbs.quotients", "_unit_subgroup_order", None, _count_unit_bfs),
    Hook("rosegbs.quotients", "HolomorphQuotient.evaluate", "quotients.holo_eval",
         _count_holo_eval, calls="quotients.holo_evals"),
    Hook("rosegbs.quotients", "QuotientOracle.verdict", "quotients.verdict",
         _count_verdict, calls="quotients.verdicts"),
    Hook("rosegbs.cli", "_build_parser", "cli.parser"),
    Hook("rosegbs.cli", "_verify_json", "cli.report"),
    Hook("rosegbs.cli", "_verify_text", "cli.report"),
    Hook("rosegbs.cli", "_emit", "cli.report"),
    Hook("rosegbs.cli", "main", "cli.main"),
)


def metric_name(span: str, suffix: str) -> str:
    """``quotients.eval`` + ``s`` -> ``quotients.eval_s``; ``classifier.s``."""
    return f"{span}{'_' if '.' in span else '.'}{suffix}"


SPANS = tuple(dict.fromkeys(h.span for h in HOOKS if h.span))


class Tracer:
    """Spans and counters for the hooks in ``HOOKS``; install() patches them
    in, uninstall() puts the original functions back."""

    def __init__(self):
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.broken: dict[str, str] = {}
        self._stack: list[list] = []  # [span, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, float]:
        """Return the totals so far and start counting from zero."""
        out, self.stats = dict(self.stats), defaultdict(float)
        return out

    def install(self) -> None:
        # Import every hooked module before patching any: a module imported
        # later would bind a wrapper by name that uninstall() cannot find.
        modules = {}
        for name in dict.fromkeys(h.module for h in HOOKS):
            try:
                modules[name] = importlib.import_module(name)
            except ImportError:
                pass
        self.absent = []
        for hook in HOOKS:
            label = f"{hook.module}.{hook.attr}"
            module = modules.get(hook.module)
            if module is None:
                self.absent.append(label)
                continue
            owner_name, _, name = hook.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(name) if owner is not None else None
            if not callable(original):
                self.absent.append(label)
                continue
            wrapper = self._wrap(hook, label, original)
            if owner_name:
                self._patch(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "rosegbs" or mod_name.startswith("rosegbs."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _count(self, hook: Hook, label: str, args, kwargs, result, exc) -> None:
        if hook.counter is None or label in self.broken:
            return
        try:
            hook.counter(self.stats, args, kwargs, result, exc)
        except Exception as err:  # a refactored signature must not stop the run
            self.broken[label] = f"{type(err).__name__}: {err}"

    def _wrap(self, hook: Hook, label: str, fn):
        tracer, span = self, hook.span

        def wrapper(*args, **kwargs):
            timed = span is not None and all(f[0] != span for f in tracer._stack)
            if timed:
                frame = [span, 0.0]
                tracer._stack.append(frame)
            result, exc = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if timed:
                    elapsed = time.perf_counter() - start
                    tracer._stack.pop()
                    if tracer._stack:
                        tracer._stack[-1][1] += elapsed
                    st = tracer.stats
                    st[metric_name(span, "s")] += elapsed
                    st[metric_name(span, "self_s")] += elapsed - frame[1]
                    st[hook.calls or metric_name(span, "calls")] += 1
                if timed or span is None:
                    tracer._count(hook, label, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper
