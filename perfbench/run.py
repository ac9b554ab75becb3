"""The repository benchmark.

    python3 perfbench/run.py --workload paper --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py                    # every workload, one run each
    python3 perfbench/run.py --describe         # workloads, metrics, layer map

Each execution of a workload runs in a fresh interpreter
(``iteration.py``); executions repeat until their measured time reaches
``--seconds`` and there are at least two.  With ``--trace 0`` the run
reports the end-to-end metrics (timings are medians over executions,
scaled to nominal machine speed by ``speed.py``);
with ``--trace 1`` it alternates untraced and traced executions and
reports the per-layer metrics of the traced ones.  Correctness gates
run outside the timed region; any failure makes the run exit 1.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import catalog
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
# A run must end within 180 s; stop launching executions well before.
RUN_BUDGET_S = 150.0
# Timings are medians over at least two executions (with --trace 1, at
# least one untraced and one traced).
MIN_EXECUTIONS = 2


def _launch(
    workload: str, seed: int, trace: bool, reference: bool, timeout: float
) -> Tuple[Optional[Dict[str, Any]], str]:
    """One execution in a fresh interpreter, in its own session so that
    a timeout can stop its shard workers too."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable,
        os.path.join(HERE, "iteration.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--out", os.path.join(OUT, f"{workload}-{seed}"),
    ]
    command += ["--trace"] if trace else []
    command += ["--reference"] if reference else []
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return None, f"execution exceeded {timeout:.0f} s"
    if process.returncode != 0:
        return None, stderr.strip().splitlines()[-1] if stderr.strip() else "no output"
    try:
        return json.loads(stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "unreadable execution output"


def _counters_gate(
    name: str, got: Dict[str, Any], want: Dict[str, Any]
) -> Tuple[str, bool, str]:
    """Every deterministic counter and digest repeats exactly."""
    differing = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return name, not differing, "ok" if not differing else "differ: " + ", ".join(differing)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Executions of one workload until ``seconds`` are measured.

    Each execution is one attempted operation; it fails when it crashes
    or any of its gates fails, and the run stops there.  The first
    execution also runs the reference gates; later ones must repeat its
    counters exactly.
    """
    started = time.monotonic()
    executions: List[Dict[str, Any]] = []
    report: List[str] = []
    attempted = failed = 0
    measured = slowest = 0.0
    while True:
        traced = trace and attempted % 2 == 1
        launched = time.monotonic()
        attempted += 1
        result, error = _launch(
            workload, seed, traced, attempted == 1,
            RUN_BUDGET_S + 20.0 - (launched - started),
        )
        slowest = max(slowest, time.monotonic() - launched)
        if result is None:
            failed += 1
            report.append(f"execution {attempted} failed: {error}")
            break
        checks = [tuple(check) for check in result["gates"]]
        if executions:
            checks.append(_counters_gate(
                "traced_equals_untraced" if traced else "counters_repeat",
                result["counters"],
                executions[0]["counters"],
            ))
        bad = [check for check in checks if not check[1]]
        report.extend(f"execution {attempted}: gate {n} FAILED: {d}" for n, _, d in bad)
        if bad:
            failed += 1
            break
        executions.append(result)
        report.append(
            f"execution {attempted}{' (traced)' if traced else ''}: "
            f"{result['raw_end_to_end_s']:.3f} s wall, speed factor "
            f"{result['speed_factor']:.3f}"
        )
        measured += result["raw_end_to_end_s"]
        enough = measured >= seconds and attempted >= MIN_EXECUTIONS
        if enough or time.monotonic() - started + slowest > RUN_BUDGET_S:
            break

    untraced = [e for e in executions if not e["trace"]]
    traced_runs = [e for e in executions if e["trace"]]
    values: Dict[str, float] = {}
    if trace and traced_runs and untraced:
        values = metrics.per_layer(traced_runs, untraced)
        report.extend(f"trace written to {e['trace_file']}" for e in traced_runs)
        report.extend(_epoch_table(traced_runs[-1]["epochs"]))
    elif not trace and untraced:
        values = metrics.end_to_end(untraced)
    if not values and not failed:
        failed += 1
        report.append("no execution produced metrics")
    return {
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "report": report,
        "executions": len(executions),
    }


def _epoch_table(rows: List[Dict[str, float]]) -> List[str]:
    if not rows:
        return []
    columns = ["wall_s", "gc_s", "epoch.run", "worldgen.churn", "pdns.feeds",
               "probe.probe_all", "longitudinal.append", "longitudinal.columns",
               "dataset.columns", "journal.digest"]
    lines = ["where each steady-state epoch's wall time went (self seconds):",
             "epoch " + " ".join(f"{c:>20}" for c in columns)]
    for index, row in enumerate(rows, start=1):
        lines.append(f"{index:>5} " + " ".join(f"{row.get(c, 0.0):>20.4f}" for c in columns))
    return lines


def _result_line(outcome: Dict[str, Any], unit_of: Dict[str, str]) -> Dict[str, Any]:
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in outcome["values"].items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(catalog.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = metrics.load_spec(ROOT)
    if args.describe:
        print(json.dumps({
            "workloads": catalog.WORKLOADS,
            "end_to_end": catalog.DEFINITIONS,
            "layers": catalog.LAYER_MAP,
        }, indent=2))
        return 0
    section = "per_layer" if args.trace else "end_to_end"
    unit_of = metrics.units(spec, section)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = sorted(catalog.WORKLOADS) if args.workload == "all" else [args.workload]

    results = {}
    for workload in names:
        outcome = run(workload, args.seed, seconds, bool(args.trace))
        results[workload] = _result_line(outcome, unit_of)
        print(f"== {workload} (seed {args.seed}, {outcome['executions']} executions)")
        for line in outcome["report"]:
            print(line)
        for name, value in sorted(outcome["values"].items()):
            print(f"{name:<28} {value:>16.6f} {unit_of[name]}")
    if len(names) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": value
                for w, r in results.items()
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
