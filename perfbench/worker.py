"""One workload in one fresh process; run by ``run.py``, not by hand.

    worker.py setup WORKLOAD SEED
    worker.py run   WORKLOAD SEED SECONDS
    worker.py trace WORKLOAD SEED SECONDS

``setup`` times importing ``rosegbs`` from ``src/`` and building the
workload's catalogs.  ``run`` does the same, then repeats whole passes over
the workload for about SECONDS, timing each pass and each operation.
``trace`` alternates untraced and traced passes for SECONDS and reports the
per-layer spans and counters of the first traced pass, plus the set-up.
Every mode prints one JSON object on its last line of standard output; the
program's own output is captured and checked, never printed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import workloads  # noqa: E402
from tracer import SPANS, Tracer, metric_name  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def _setup(wl: workloads.Workload) -> float:
    """Seconds to import rosegbs and build the workload's catalogs."""
    start = time.perf_counter()
    import rosegbs
    from rosegbs import builtin_catalog

    for p in wl.primes:
        builtin_catalog(p)
    elapsed = time.perf_counter() - start
    origin = os.path.dirname(os.path.abspath(rosegbs.__file__))
    if origin != os.path.join(SRC, "rosegbs"):
        raise SystemExit(f"rosegbs imported from {origin}, not from {SRC}")
    return elapsed


def _run_op(cli, op: workloads.Op) -> tuple[float, str, object]:
    """Time one CLI call; returns (seconds, stdout, exit code or exception)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code
    except Exception as exc:  # counted as a failed operation
        code = exc
    return time.perf_counter() - start, out.getvalue(), code


class Checker:
    """Judges each operation's output; the first pass is validated in full,
    later passes must repeat it byte for byte."""

    def __init__(self, wl: workloads.Workload, seed: int):
        import jsonschema

        with open(os.path.join(SRC, "rosegbs", "data", "report.schema.json")) as fh:
            schema = json.load(fh)
        self.validator = jsonschema.Draft7Validator(schema)
        self.wl = wl
        self.seed = seed
        self.first: list[str] = []
        self.errors: list[str] = []
        self.reports: list[dict] = []
        self.digest: str | None = None
        self.digest_differs = False
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)

    def recorded(self, kind: str):
        """The recorded digest or counters of this workload, if they apply:
        ``stream`` inputs depend on the seed, so only its default seed has them."""
        if self.wl.name == "stream" and self.seed != self.reference["default_seed"]:
            return None
        return self.reference[kind].get(self.wl.name)

    def check_pass(self, outputs: list[tuple[str, object]]) -> int:
        """Count the failed operations of one pass."""
        if self.first:
            if self.digest_differs:
                return len(outputs)
            failed = 0
            for i, (text, code) in enumerate(outputs):
                if code != 0 or text != self.first[i]:
                    failed += 1
                    self._error(i, f"output differs from the first pass (exit {code!r})")
            return failed
        failed = 0
        for i, (op, (text, code)) in enumerate(zip(self.wl.ops, outputs)):
            problem = self._check_op(op, text, code)
            if problem:
                failed += 1
                self._error(i, problem)
        self.first = [text for text, _ in outputs]
        self.digest = hashlib.sha256("".join(self.first).encode()).hexdigest()
        want = self.recorded("stdout_sha256")
        self.digest_differs = want is not None and self.digest != want
        if self.digest_differs:
            self.errors.append(f"stdout sha256 {self.digest} != recorded {want}")
            failed = len(outputs)
        return failed

    def _error(self, i: int, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"op {i} {' '.join(self.wl.ops[i].argv)!r}: {msg}")

    def _check_op(self, op: workloads.Op, text: str, code) -> str | None:
        if isinstance(code, BaseException):
            return f"raised {type(code).__name__}: {code}"
        if code != 0:
            return f"exit code {code}, expected 0"
        try:
            report = json.loads(text)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        self.reports.append(report)
        error = next(iter(self.validator.iter_errors(report)), None)
        if error is not None:
            return f"report fails the schema: {error.message}"
        if report.get("status") != "ok":
            return f"status {report.get('status')!r}, expected 'ok'"
        if op.command == "verify":
            case, xi_or_sigma = workloads.classify(op.loops, op.p)
            if (report["case"], report["xi_or_sigma"]) != (case, xi_or_sigma):
                return (f"case {report['case']}/{report['xi_or_sigma']},"
                        f" expected {case}/{xi_or_sigma}")
        else:
            groups = report["groups"]
            if len(groups) != op.expected_groups:
                return f"{len(groups)} groups, expected {op.expected_groups}"
            if any(g["confluence_words"] != workloads.CONFLUENCE_WORDS for g in groups):
                return "a group was checked on the wrong number of words"
        return None


def _work_totals(reports: list[dict]) -> dict:
    """Checks and evidence of one pass, from its reports."""
    checks = evidence = 0
    for rep in reports:
        if rep["command"] == "verify":
            checks += len(rep["verdicts"])
            evidence += sum(v["homs_tested"] for v in rep["verdicts"])
        else:
            checks += len(rep["groups"])
            evidence += sum(g["confluence_words"] for g in rep["groups"])
    return {"checks": checks, "evidence": evidence}


def _pass(cli, wl) -> tuple[float, list[float], list[tuple[str, object]]]:
    latencies, outputs = [], []
    start = time.perf_counter()
    for op in wl.ops:
        dt, text, code = _run_op(cli, op)
        latencies.append(dt)
        outputs.append((text, code))
    return time.perf_counter() - start, latencies, outputs


def _another_pass(begin: float, seconds: float, walls: list[float]) -> bool:
    """At least one pass; then another while it would end nearer to
    ``seconds`` than stopping now."""
    if not walls:
        return True
    elapsed = time.perf_counter() - begin
    return elapsed + statistics.mean(walls) / 2 < seconds


def _record(seed: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_setup(wl) -> dict:
    return {"setup_s": _setup(wl)}


def mode_run(wl, seed: int, seconds: float) -> dict:
    setup_s = _setup(wl)
    from rosegbs import cli

    checker = Checker(wl, seed)
    walls, latencies, failed = [], [], 0
    begin = time.perf_counter()
    while _another_pass(begin, seconds, walls):
        wall, lat, outputs = _pass(cli, wl)
        walls.append(wall)
        latencies.append(lat)
        failed += checker.check_pass(outputs)
    return {
        "setup_s": setup_s,
        "walls": walls,
        "latencies": latencies,
        "attempted": len(wl.ops) * len(walls),
        "failed": failed,
        "errors": checker.errors,
        "stdout_sha256": checker.digest,
        "work": _work_totals(checker.reports),
        "peak_rss_mb": _peak_rss_mb(),
        "record": _record(seed),
    }


def _counters(stats: dict) -> dict:
    """The work counts and call counts of ``stats``, without the timings."""
    timed = {metric_name(s, k) for s in SPANS for k in ("s", "self_s")}
    return {k: v for k, v in stats.items() if k not in timed}


def _merge(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def _counter_check(wl, per_op: list[dict], reports: list[dict]) -> list[str]:
    """Per operation: hom counts against QuotientOracle.total_homs, and hom
    evaluations against the report's homs_tested sum."""
    problems = []
    for op, delta, rep in zip(wl.ops, per_op, reports):
        if op.command != "verify":
            continue
        try:
            from rosegbs import Budget, QuotientOracle, parse_presentation

            oracle = QuotientOracle(parse_presentation(op.argv[3]), op.p,
                                    Budget(op.max_order, workloads.S_MAX))
            want = oracle.total_homs - len(oracle.holomorphs)
        except (ImportError, AttributeError, TypeError) as exc:
            return problems + [f"hom count check unavailable: {exc}"]
        if delta.get("quotients.homs", 0) != want:
            problems.append(f"{op.argv[3]}: traced homs {delta.get('quotients.homs', 0)}"
                            f" != total_homs - holomorphs {want}")
        tested = sum(v["homs_tested"] for v in rep["verdicts"])
        if delta.get("quotients.hom_evals", 0) != tested:
            problems.append(f"{op.argv[3]}: traced hom_evals"
                            f" {delta.get('quotients.hom_evals', 0)} != homs_tested {tested}")
    return problems


def mode_trace(wl, seed: int, seconds: float) -> dict:
    tracer = Tracer()
    tracer.install()
    setup_s = _setup(wl)
    setup_stats = tracer.take()
    tracer.uninstall()
    from rosegbs import cli

    checker = Checker(wl, seed)
    untraced, traced, failed = [], [], 0
    first_stats: dict = {}
    per_op: list[dict] = []
    json_bytes = 0
    mismatches: list[str] = []
    begin = time.perf_counter()
    while _another_pass(begin, seconds, [u + t for u, t in zip(untraced, traced)]):
        wall, _, outputs = _pass(cli, wl)
        untraced.append(wall)
        failed += checker.check_pass(outputs)

        tracer.install()
        deltas, outputs = [], []
        start = time.perf_counter()
        for op in wl.ops:
            before = dict(tracer.stats)
            _, text, code = _run_op(cli, op)
            outputs.append((text, code))
            deltas.append({k: v - before.get(k, 0) for k, v in tracer.stats.items()})
        traced.append(time.perf_counter() - start)
        tracer.uninstall()
        stats = tracer.take()
        failed += checker.check_pass(outputs)
        if not first_stats:
            first_stats, per_op = stats, deltas
            json_bytes = sum(len(text.encode()) for text, _ in outputs)
        elif _counters(stats) != _counters(first_stats):
            mismatches.append("counters differ between traced passes")

    if not failed:
        mismatches += _counter_check(wl, [_counters(d) for d in per_op],
                                     checker.reports[: len(wl.ops)])
    totals = _merge(setup_stats, first_stats)
    totals["cli.json_bytes"] = json_bytes
    ref = checker.recorded("counters")
    if ref is not None:
        counts = _counters(totals)
        for k, v in ref.items():
            if counts.get(k, 0) != v:
                mismatches.append(f"{k} = {counts.get(k, 0)}, recorded {v}")
    return {
        "setup_s": setup_s,
        "untraced_walls": untraced,
        "traced_walls": traced,
        "stats": totals,
        "counters": _counters(totals),
        "absent": tracer.absent,
        "broken": tracer.broken,
        "mismatches": mismatches,
        "attempted": len(wl.ops) * 2 * len(traced),
        "failed": failed,
        "errors": checker.errors,
        "record": _record(seed),
    }


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    wl = workloads.build(name, seed)
    if mode == "setup":
        result = mode_setup(wl)
    elif mode == "run":
        result = mode_run(wl, seed, float(argv[3]))
    elif mode == "trace":
        result = mode_trace(wl, seed, float(argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
