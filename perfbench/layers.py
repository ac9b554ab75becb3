"""Which public callables of each layer the traced run wraps, and the
layer → metric map.

Every span name is ``<layer>.<what>``; a per-layer ``*_s`` metric is the
summed self time of one span name unless ``LAYER_MAP`` says "total".
Counter metrics come from :attr:`workloads.Outcome.counters`, which the
untraced runs compute too, so traced and untraced runs can be compared.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core import journal
from repro.core.centralization import CentralizationAnalysis
from repro.core.consistency import ConsistencyAnalysis
from repro.core.dataset import DatasetColumns
from repro.core.delegation import DelegationAnalysis
from repro.core.diversity import DiversityAnalysis
from repro.core.epoch import EpochRunner
from repro.core.longitudinal import LongitudinalDataset
from repro.core.probe import ActiveProber
from repro.core.replication import ActiveReplicationAnalysis, PdnsReplicationAnalysis
from repro.core.shard import ProcessCampaignRunner
from repro.core.study import GovernmentDnsStudy
from repro.pdns.change import ChangeSensor
from repro.report import paperkit
from repro.report.serving import ServingReport
from repro.report.trend import TrendReport
from repro.serve import profiles
from repro.serve import workload as client_workload
from repro.serve.service import RecursiveService
from repro.worldgen import churn
from repro.worldgen.generator import WorldGenerator
from repro.worldgen.history import HistoryBuilder

from tracing import Patcher, Tracer

# (class, method, span name)
METHODS: Tuple[Tuple[type, str, str], ...] = (
    (WorldGenerator, "generate", "worldgen.generate"),
    (HistoryBuilder, "build", "worldgen.history"),
    (ChangeSensor, "feeds_for", "pdns.feeds"),
    (GovernmentDnsStudy, "targets", "study.targets"),
    (GovernmentDnsStudy, "dataset", "study.dataset"),
    (ActiveProber, "probe_all", "probe.probe_all"),
    (ProcessCampaignRunner, "collect", "shard.collect"),
    (ProcessCampaignRunner, "merge", "shard.merge"),
    (DatasetColumns, "build", "dataset.columns"),
    (EpochRunner, "__init__", "epoch.init"),
    (EpochRunner, "bootstrap", "epoch.bootstrap"),
    (EpochRunner, "run_epoch", "epoch.run"),
    (LongitudinalDataset, "append_epoch", "longitudinal.append"),
    (LongitudinalDataset, "columns_at", "longitudinal.columns"),
    (TrendReport, "from_runner", "report.trend"),
    (client_workload.ClientWorkload, "generate", "serve.generate"),
    (RecursiveService, "warm", "serve.warm"),
    (RecursiveService, "run", "serve.run"),
    (ServingReport, "collect", "serve.report"),
)

# (module, function, span name); rebound wherever imported by name.
FUNCTIONS: Tuple[Tuple[Any, str, str], ...] = (
    (churn, "advance_world", "worldgen.churn"),
    (journal, "dataset_digest", "journal.digest"),
    (paperkit, "export_all", "report.paperkit"),
    (profiles, "install_chaos_profile", "chaos.install"),
    (client_workload, "workload_digest", "serve.workload_digest"),
)

# Analysis classes: every public method plus the constructor becomes a
# span, except per-row helpers that the sweeps never call.
ANALYSES: Tuple[Tuple[type, str], ...] = (
    (PdnsReplicationAnalysis, "analysis.replication"),
    (ActiveReplicationAnalysis, "analysis.replication"),
    (CentralizationAnalysis, "analysis.centralization"),
    (DiversityAnalysis, "analysis.diversity"),
    (DelegationAnalysis, "analysis.delegation"),
    (ConsistencyAnalysis, "analysis.consistency"),
)
PER_ROW = frozenset({"classify", "measure_domain"})


def install(patcher: Patcher) -> None:
    for cls, attr, name in METHODS:
        patcher.method(cls, attr, name)
    for module, attr, name in FUNCTIONS:
        patcher.function(module, attr, name)
    for cls, name in ANALYSES:
        for attr, value in sorted(vars(cls).items()):
            public = attr == "__init__" or not attr.startswith("_")
            if public and callable(value) and attr not in PER_ROW:
                patcher.method(cls, attr, name)


# Per-layer metric (units are in BENCHMARK.json) → source: ("self", span
# name), ("total", span name), ("counter", key), ("gc", field) or
# ("trace", ...), which run.py and per_layer_values fill in.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "worldgen.generate_s": ("total", "worldgen.generate"),
    "worldgen.history_s": ("self", "worldgen.history"),
    "worldgen.active_s": ("self", "worldgen.generate"),
    "worldgen.churn_s": ("self", "worldgen.churn"),
    "pdns.feeds_s": ("self", "pdns.feeds"),
    "study.targets_s": ("self", "study.targets"),
    "study.dataset_s": ("self", "study.dataset"),
    "probe.probe_all_s": ("self", "probe.probe_all"),
    "probe.queries_sent": ("counter", "probe.queries_sent"),
    "probe.warm_queries": ("counter", "probe.warm_queries"),
    "net.queries_sent": ("counter", "net.queries_sent"),
    "net.timeouts": ("counter", "net.timeouts"),
    "net.events_fired": ("counter", "net.events_fired"),
    "net.sim_active_s": ("counter", "net.sim_active_s"),
    "dns.zone_cut_hit_frac": ("counter", "dns.zone_cut_hit_frac"),
    "shard.collect_s": ("self", "shard.collect"),
    "shard.merge_s": ("self", "shard.merge"),
    "shard.warm_queries": ("counter", "shard.warm_queries"),
    "shard.sim_skew": ("counter", "shard.sim_skew"),
    "journal.digest_s": ("self", "journal.digest"),
    "dataset.columns_s": ("self", "dataset.columns"),
    "analysis.replication_s": ("self", "analysis.replication"),
    "analysis.centralization_s": ("self", "analysis.centralization"),
    "analysis.diversity_s": ("self", "analysis.diversity"),
    "analysis.delegation_s": ("self", "analysis.delegation"),
    "analysis.consistency_s": ("self", "analysis.consistency"),
    "report.paperkit_s": ("self", "report.paperkit"),
    "report.trend_s": ("self", "report.trend"),
    "epoch.init_s": ("self", "epoch.init"),
    "epoch.bootstrap_s": ("self", "epoch.bootstrap"),
    "epoch.run_s": ("self", "epoch.run"),
    "epoch.run_total_s": ("total", "epoch.run"),
    "longitudinal.append_s": ("self", "longitudinal.append"),
    "longitudinal.columns_s": ("self", "longitudinal.columns"),
    "epoch.probed": ("counter", "epoch.probed"),
    "epoch.changed_per_probed": ("counter", "epoch.changed_per_probed"),
    "epoch.net_queries": ("counter", "epoch.net_queries"),
    "serve.generate_s": ("self", "serve.generate"),
    "serve.workload_digest_s": ("self", "serve.workload_digest"),
    "serve.warm_s": ("self", "serve.warm"),
    "serve.run_s": ("self", "serve.run"),
    "serve.report_s": ("self", "serve.report"),
    "serve.cache_hit_frac": ("counter", "serve.cache_hit_frac"),
    "serve.stale_hits": ("counter", "serve.stale_hits"),
    "serve.refresh_ok_frac": ("counter", "serve.refresh_ok_frac"),
    "serve.breaker_skips": ("counter", "serve.breaker_skips"),
    "serve.fresh_frac": ("counter", "serve.fresh_frac"),
    "serve.latency_p50_ms": ("counter", "serve.latency_p50_ms"),
    "serve.latency_p999_ms": ("counter", "serve.latency_p999_ms"),
    "chaos.install_s": ("self", "chaos.install"),
    "chaos.outage_drops": ("counter", "chaos.outage_drops"),
    "chaos.burst_losses": ("counter", "chaos.burst_losses"),
    "chaos.brownout_hits": ("counter", "chaos.brownout_hits"),
    "chaos.rate_limit_refusals": ("counter", "chaos.rate_limit_refusals"),
    "gc.pause_s": ("gc", "pause_s"),
    "gc.gen2_collections": ("gc", "gen2_collections"),
    "trace.unattributed_frac": ("trace", "unattributed_frac"),
    "trace.overhead_s": ("trace", "overhead_s"),
}


def per_layer_values(
    tracer: Tracer, root_name: str, counters: Dict[str, Any], speed: float = 1.0
) -> Dict[str, float]:
    """Every non-"trace" per-layer metric for one traced execution, span
    and GC times scaled by ``speed`` like the end-to-end timings.  A
    layer the workload bypasses reads 0."""
    selfs = tracer.self_times()
    totals = tracer.total_times()
    pause_s, gen2 = tracer.gc_summary()
    gc_values = {"pause_s": pause_s * speed, "gen2_collections": float(gen2)}
    values: Dict[str, float] = {}
    for metric, (kind, key) in PER_LAYER.items():
        if kind == "self":
            values[metric] = selfs.get(key, 0.0) * speed
        elif kind == "total":
            values[metric] = totals.get(key, 0.0) * speed
        elif kind == "counter":
            values[metric] = float(counters.get(key, 0))
        elif kind == "gc":
            values[metric] = gc_values[key]
    root = totals[root_name]
    values["trace.unattributed_frac"] = selfs[root_name] / root
    return values


def epoch_breakdown(tracer: Tracer) -> List[Dict[str, float]]:
    """Per ``epoch.run`` span: wall time, and the self time and GC pause
    of every span name inside it — the table that says where each
    epoch's wall time went."""
    children: Dict[int, List[int]] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span.id)
    rows: List[Dict[str, float]] = []
    for span in tracer.closed():
        if span.name != "epoch.run":
            continue
        row: Dict[str, float] = {"wall_s": span.duration, "gc_s": 0.0}
        stack = [span.id]
        while stack:
            node = tracer.spans[stack.pop()]
            row[node.name] = row.get(node.name, 0.0) + node.self_s
            row["gc_s"] += node.gc_s
            stack.extend(children.get(node.id, ()))
        rows.append(row)
    return rows
