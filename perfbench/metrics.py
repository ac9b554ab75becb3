"""How each metric is computed from the executions of one run.

``BENCHMARK.json`` at the repository root is the single list of metric
names, units, directions and bounds; ``catalog.DEFINITIONS`` states what
each end-to-end metric means on each workload.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List

def load_spec(root: str) -> Dict[str, Any]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def units(spec: Dict[str, Any], section: str) -> Dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def end_to_end(executions: List[Dict[str, Any]]) -> Dict[str, float]:
    """Timings are medians over executions; the rest are deterministic
    and taken from the first execution (the gates check they repeat)."""
    first = executions[0]

    def median(key: str) -> float:
        return statistics.median(e[key] for e in executions)

    return {
        "setup_s": median("setup_s"),
        "end_to_end_s": median("end_to_end_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "throughput_per_s": statistics.median(
            e["units"] / e["loop_s"] for e in executions
        ),
        "net_queries_per_lookup": first["net_queries"] / first["lookups"],
        "ok_frac": first["ok"] / first["ok_of"],
    }


def per_layer(
    traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]
) -> Dict[str, float]:
    """Medians over traced executions, plus the tracing overhead: the
    traced end-to-end median minus the untraced one."""
    names = traced[0]["layers"]
    values = {
        name: statistics.median(e["layers"][name] for e in traced) for name in names
    }
    values["trace.overhead_s"] = statistics.median(
        e["end_to_end_s"] for e in traced
    ) - statistics.median(e["end_to_end_s"] for e in untraced)
    return values
