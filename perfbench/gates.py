"""Correctness gates.  They run after the timed region; a mismatch marks
the execution as a failed operation."""

from __future__ import annotations

import json
import os
from typing import Any, List, Optional, Tuple

from repro.core import journal
from repro.core.probe import ActiveProber
from repro.core.study import GovernmentDnsStudy
from repro.worldgen import churn

import workloads

Gate = Tuple[str, bool, str]  # (name, passed, detail)

COMMITTED_SEED = 7
COMMITTED_LABELS = {"paper": "concurrent", "campaign_sharded": "sharded"}


def compare(name: str, got: Any, want: Any) -> Gate:
    passed = got == want
    detail = "ok" if passed else f"got {got!r}, want {want!r}"
    return name, passed, detail


def committed_digest(root: str, workload: str, scale: float) -> Optional[str]:
    """The dataset digest ``BENCH_probe.json`` commits for the workload's
    engine configuration at ``scale`` (None if not committed)."""
    with open(os.path.join(root, "BENCH_probe.json"), encoding="utf-8") as handle:
        suite = json.load(handle)
    record = (
        suite.get("scales", {})
        .get(str(scale), {})
        .get("records", {})
        .get(COMMITTED_LABELS[workload])
    )
    return None if record is None else record["dataset_digest"]


def committed_record(root: str, workload: str, seed: int, digest: str) -> List[Gate]:
    """At the committed seed, the dataset digest equals the record."""
    if workload not in COMMITTED_LABELS or seed != COMMITTED_SEED:
        return []
    want = committed_digest(root, workload, workloads.CAMPAIGN_SCALE)
    if want is None:
        return [("committed_record", False, "BENCH_probe.json has no record")]
    return [compare("committed_record", digest, want)]


def _full_campaign_digest(world: Any, targets: Any) -> str:
    prober = ActiveProber(world.network, world.root_addresses, world.probe_source)
    return journal.dataset_digest(prober.probe_all(targets))


def reference(workload: str, seed: int, outcome: workloads.Outcome) -> List[Gate]:
    """Gates that need a second, independent computation."""
    if workload == "campaign_sharded":
        # Seed selection already ran in this world; the in-process
        # engine probes it exactly as `repro campaign` would.
        state = outcome.state
        want = _full_campaign_digest(state["world"], state["targets"])
        return [compare("sharded_equals_in_process", outcome.counters["dataset_digest"], want)]
    if workload == "longitudinal":
        runner = outcome.state["runner"]
        as_of = journal.dataset_digest(runner.dataset.as_of(workloads.EPOCHS))
        fresh = churn.world_at_epoch(seed, workloads.CAMPAIGN_SCALE, workloads.EPOCHS)
        want = _full_campaign_digest(fresh, GovernmentDnsStudy(fresh).targets())
        return [compare("as_of_equals_full_campaign", as_of, want)]
    return []
