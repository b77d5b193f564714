#!/usr/bin/env python3
"""The rosegbs benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
Workloads are closed loops with one client: each runs in fresh,
single-threaded child processes, one operation after another, through
``rosegbs.cli.main`` in-process with standard output captured.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``:
set-up is timed in several fresh processes and its median reported; the
workload then repeats whole passes for about ``--seconds``; each
operation's time is its median over the passes, ``wall_s`` is their sum and
the latency percentiles are taken over them.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of the first traced
pass (plus the set-up), and the tracing overhead.

Every operation's exit code, report schema and the digest of the workload's
output are checked; the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEADLINE_S = 170  # whole run, set-up samples included
SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the workload's own included

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROSEGBS_")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every run
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(
        [sys.executable, WORKER, *args], capture_output=True, text=True,
        env=_child_env(), timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    # Each operation's median over the passes, so that a slow or fast spell
    # of the host during one pass moves no figure.
    per_op = [statistics.median(op) for op in zip(*res["latencies"])]
    wall = sum(per_op)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_p50_s": statistics.median(per_op),
        "op_p95_s": _quantile(per_op, 95),
        "checks_per_s": res["work"]["checks"] / wall,
        "evidence_per_s": res["work"]["evidence"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    samples = {"setup_s": len(setups), "passes": len(res["latencies"]),
               "ops": len(per_op)}
    return values, samples


def per_layer(res: dict) -> dict:
    st = res["stats"]
    traced = statistics.median(res["traced_walls"])
    untraced = statistics.median(res["untraced_walls"])
    values = dict(st)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values.update({
        "quotients.hom_yield": ratio(st.get("quotients.homs", 0),
                                     st.get("quotients.assignments", 0)),
        "quotients.hom_cache_hit_ratio": ratio(
            st.get("quotients.hom_lookups", 0) - st.get("quotients.homs_calls", 0),
            st.get("quotients.hom_lookups", 0)),
        "quotients.separated_share": ratio(st.get("quotients.separated", 0),
                                           st.get("quotients.verdicts", 0)),
        "quotients.eval_share": ratio(st.get("quotients.eval_s", 0),
                                      res["traced_walls"][0]),
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.counter_mismatches": len(res["mismatches"]),
        "trace.absent_hooks": len(res["absent"]) + len(res["broken"]),
    })
    return values


def _declared(declared: list[dict], values: dict) -> dict:
    """Every declared metric with its unit; a metric nothing recorded is 0."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in declared}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "rosegbs", "__init__.py")):
        print("error: run from the root of a rosegbs checkout (src/rosegbs missing)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)

    common = [args.workload, str(args.seed)]
    try:
        if args.trace:
            res = _worker(["trace", *common, str(args.seconds)], deadline)
            values = per_layer(res)
            metrics = _declared(spec["per_layer"], values)
            notes = {"absent": res["absent"], "broken": res["broken"],
                     "counter_mismatches": res["mismatches"],
                     "traced_passes": len(res["traced_walls"])}
        else:
            setups = [_worker(["setup", *common], deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            res = _worker(["run", *common, str(args.seconds)], deadline)
            setups.append(res["setup_s"])
            values, samples = end_to_end(res, setups)
            metrics = _declared(spec["end_to_end"], values)
            notes = {"samples": samples, "stdout_sha256": res["stdout_sha256"],
                     **res["work"]}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for err in res["errors"]:
        print(f"FAILED: {err}", file=sys.stderr)
    for msg in notes.get("counter_mismatches", []):
        print(f"counter check: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:8s} {'fail_rate':34s} {res['failed'] / res['attempted']:>16.6g}"
          f" ({res['failed']} of {res['attempted']} operations)")
    print(json.dumps({"record": res["record"], **notes}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
