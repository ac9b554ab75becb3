"""One execution of one workload, in a fresh interpreter.

    python3 perfbench/iteration.py --workload paper --seed 7 --out DIR \
        [--trace] [--reference]

Imports happen before the clock starts.  Prints one JSON line: the
timings (scaled to nominal machine speed, see ``speed.py``), the
end-to-end inputs, the deterministic counters, the gate results and,
with ``--trace``, the per-layer metrics.  ``run.py`` starts
this script once per execution and aggregates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict

from repro.core.shard import ProcessCampaignRunner

import gates
import layers
import workloads
from speed import SpeedProbe
from tracing import Patcher, Tracer


def execute(
    workload: str, seed: int, out_dir: str, trace: bool, reference: bool, root: str
) -> Dict[str, Any]:
    tracer = Tracer()
    patcher = Patcher(tracer if trace else None)
    root_name = f"bench.{workload}"
    with patcher:
        if trace:
            layers.install(patcher)
            tracer.install_gc_hook()
        try:
            with SpeedProbe() as probe, tracer.span(root_name):
                # No parent speed samples while shard workers hold both
                # cores; that phase is scaled by the workers' own speed.
                patcher.method(
                    ProcessCampaignRunner, "collect",
                    before=probe.pause, after=lambda *_, **__: probe.resume(),
                )
                outcome = workloads.WORKLOADS[workload](seed, out_dir, patcher)
        finally:
            tracer.remove_gc_hook()
    factor = probe.factor()

    def scaled(wall: float) -> float:
        """``wall`` covers the workers' phase, if any, plus parent time."""
        worker_s = outcome.worker_s
        return (wall - worker_s) * factor + worker_s * outcome.worker_speed

    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "speed_factor": factor,
        "raw_end_to_end_s": outcome.end_to_end_s,
        "setup_s": outcome.setup_s * factor,
        "end_to_end_s": scaled(outcome.end_to_end_s),
        "loop_s": scaled(outcome.loop_s),
        "units": outcome.units,
        "lookups": outcome.lookups,
        "net_queries": outcome.net_queries,
        "ok": outcome.ok,
        "ok_of": outcome.ok_of,
        "peak_rss_mb": outcome.peak_rss_mb,
        "counters": outcome.counters,
    }
    checks = gates.committed_record(
        root, workload, seed, outcome.counters.get("dataset_digest", "")
    )
    if reference:
        checks += gates.reference(workload, seed, outcome)
    result["gates"] = [list(check) for check in checks]
    if trace:
        result["layers"] = layers.per_layer_values(
            tracer, root_name, outcome.counters, factor
        )
        result["epochs"] = layers.epoch_breakdown(tracer)
        path = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
        tracer.write_chrome_trace(path)
        result["trace_file"] = path
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(args.out, exist_ok=True)
    result = execute(args.workload, args.seed, args.out, args.trace, args.reference, root)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
