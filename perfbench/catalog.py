"""What each workload is, what each metric means, and which layer
metric should move which end-to-end metric.  ``run.py --describe``
prints all of it as JSON.  Plain data: importing it loads nothing from
``src/``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "paper": {
        "why": "what a researcher runs to get the paper's numbers; the only "
        "workload where the core analyses and report do real work",
        "entry_point": "repro paperkit",
        "seed": 7,
        "scale": 0.05,
        "chaos_profile": None,
        "exercises": ["worldgen", "core.study", "core.probe", "net", "dns.cache",
                      "core.dataset", "core analyses", "report"],
        "bypasses": ["core.shard", "serve", "net.chaos", "worldgen.churn", "pdns",
                     "core.epoch", "core.longitudinal"],
    },
    "campaign_sharded": {
        "why": "the mode users are told to use for speed: shard collection, "
        "merge and the post-merge digest dominate",
        "entry_point": "repro campaign --shards 2",
        "seed": 7,
        "scale": 0.05,
        "shards": 2,  # = nproc on the 2-core reference box; never "auto"
        "chaos_profile": None,
        "exercises": ["worldgen", "core.study", "core.shard", "core.probe (in workers)",
                      "core.journal", "core.dataset"],
        "bypasses": ["core analyses", "report", "serve", "net.chaos",
                     "worldgen.churn", "pdns", "core.epoch"],
    },
    "serve_chaos": {
        "why": "the caching resolver under faults: an open-loop replay in "
        "simulated time, so wall time measures replay rate",
        "entry_point": "repro serve --chaos mixed --duration 1200 --qps 20",
        "seed": 7,
        "world_seed": 7,  # world and fault schedule; --seed draws the traffic
        "scale": 0.02,
        "chaos_profile": "mixed",
        "duration_s": 1200.0,
        "qps": 20.0,
        "exercises": ["worldgen (small world)", "serve", "dns.cache", "net",
                      "net.chaos"],
        "bypasses": ["core.probe", "core.shard", "core analyses", "report",
                     "core.epoch", "worldgen.churn", "pdns"],
    },
    "longitudinal": {
        "why": "incremental re-measurement: churn, change sensing and delta "
        "writes; probes small scattered batches",
        "entry_point": "repro longitudinal --epochs 6",
        "seed": 7,
        "scale": 0.05,
        "epochs": 6,
        "chaos_profile": None,
        "exercises": ["worldgen", "worldgen.churn", "pdns", "core.epoch",
                      "core.longitudinal", "core.probe", "core.journal",
                      "core.dataset"],
        "bypasses": ["core analyses", "report.paperkit", "core.shard", "serve",
                     "net.chaos"],
    },
}

_CAMPAIGN = "target domains"
# Every time below is wall time scaled to nominal machine speed
# (speed.py); a run's raw wall times are printed with its report.
DEFINITIONS: Dict[str, Dict[str, str]] = {
    "setup_s": {
        "paper": "worldgen + seed selection + target expansion",
        "campaign_sharded": "worldgen + seed selection + target expansion",
        "serve_chaos": "worldgen + client workload + cache warm + chaos install",
        "longitudinal": "worldgen + bootstrap campaign (epoch 0)",
    },
    "end_to_end_s": {
        w: "the whole command, first program call to last output" for w in WORKLOADS
    },
    "peak_rss_mb": {
        "paper": "peak RSS of the process",
        "campaign_sharded": "peak RSS of the parent plus each worker's peak RSS",
        "serve_chaos": "peak RSS of the process",
        "longitudinal": "peak RSS of the process",
    },
    "throughput_per_s": {
        "paper": f"{_CAMPAIGN} / campaign wall time (probe)",
        "campaign_sharded": f"{_CAMPAIGN} / campaign wall time (collect + merge)",
        "serve_chaos": "client queries / replay wall time",
        "longitudinal": "steady-state churn epochs / their wall time",
    },
    "net_queries_per_lookup": {
        "paper": "campaign network queries per target domain",
        "campaign_sharded": "campaign network queries (all workers) per target domain",
        "serve_chaos": "upstream network queries per client query during replay",
        "longitudinal": "network queries per re-probed domain, steady-state epochs",
    },
    "ok_frac": {
        "paper": "targets with a recorded result / targets",
        "campaign_sharded": "targets with a recorded result / targets",
        "serve_chaos": "client queries answered (not SERVFAIL) / client queries",
        "longitudinal": "targets with a result at the final epoch / targets",
    },
}

_ALL = list(WORKLOADS)
# The layer → metric map: which per-layer metrics each module reports,
# which end-to-end metrics they should move, and on which workloads.
LAYER_MAP: List[Dict[str, Any]] = [
    {"layer": "worldgen",
     "metrics": ["worldgen.generate_s", "worldgen.history_s", "worldgen.active_s"],
     "moves": ["setup_s", "end_to_end_s"],
     "on": ["paper", "campaign_sharded", "longitudinal"],
     "bypassed_by": ["serve_chaos (small world)"]},
    {"layer": "worldgen.churn, pdns",
     "metrics": ["worldgen.churn_s", "pdns.feeds_s"],
     "moves": ["throughput_per_s"],
     "on": ["longitudinal"],
     "bypassed_by": ["paper", "campaign_sharded", "serve_chaos"]},
    {"layer": "core.study",
     "metrics": ["study.targets_s", "study.dataset_s"],
     "moves": ["setup_s"],
     "on": ["paper", "campaign_sharded"],
     "bypassed_by": ["serve_chaos"]},
    {"layer": "core.probe, net, dns.cache",
     "metrics": ["probe.probe_all_s", "probe.queries_sent", "probe.warm_queries",
                 "net.queries_sent", "net.timeouts", "net.events_fired",
                 "net.sim_active_s", "dns.zone_cut_hit_frac"],
     "moves": ["throughput_per_s", "net_queries_per_lookup"],
     "on": ["paper", "longitudinal"],
     "bypassed_by": ["serve_chaos"]},
    {"layer": "core.shard",
     "metrics": ["shard.collect_s", "shard.merge_s", "shard.warm_queries",
                 "shard.sim_skew"],
     "moves": ["end_to_end_s", "throughput_per_s"],
     "on": ["campaign_sharded"],
     "bypassed_by": ["paper", "serve_chaos", "longitudinal"]},
    {"layer": "core.journal, core.dataset",
     "metrics": ["journal.digest_s", "dataset.columns_s"],
     "moves": ["end_to_end_s"],
     "on": ["campaign_sharded", "paper", "longitudinal"],
     "bypassed_by": ["serve_chaos"]},
    {"layer": "core analyses, report",
     "metrics": ["analysis.replication_s", "analysis.centralization_s",
                 "analysis.diversity_s", "analysis.delegation_s",
                 "analysis.consistency_s", "report.paperkit_s", "report.trend_s"],
     "moves": ["end_to_end_s"],
     "on": ["paper"],
     "bypassed_by": ["campaign_sharded", "serve_chaos", "longitudinal (trend only)"]},
    {"layer": "core.epoch, core.longitudinal",
     "metrics": ["epoch.init_s", "epoch.bootstrap_s", "epoch.run_s",
                 "epoch.run_total_s", "longitudinal.append_s",
                 "longitudinal.columns_s", "epoch.probed",
                 "epoch.changed_per_probed", "epoch.net_queries"],
     "moves": ["throughput_per_s", "net_queries_per_lookup", "setup_s"],
     "on": ["longitudinal"],
     "bypassed_by": ["paper", "campaign_sharded", "serve_chaos"]},
    {"layer": "serve, net.chaos",
     "metrics": ["serve.generate_s", "serve.workload_digest_s", "serve.warm_s",
                 "serve.run_s", "serve.report_s", "serve.cache_hit_frac",
                 "serve.stale_hits", "serve.refresh_ok_frac", "serve.breaker_skips",
                 "serve.fresh_frac", "serve.latency_p50_ms", "serve.latency_p999_ms",
                 "chaos.install_s", "chaos.outage_drops", "chaos.burst_losses",
                 "chaos.brownout_hits", "chaos.rate_limit_refusals"],
     "moves": ["throughput_per_s", "net_queries_per_lookup", "ok_frac"],
     "on": ["serve_chaos"],
     "bypassed_by": ["paper", "campaign_sharded", "longitudinal"]},
    {"layer": "interpreter GC",
     "metrics": ["gc.pause_s", "gc.gen2_collections"],
     "moves": ["end_to_end_s"],
     "on": _ALL,
     "bypassed_by": []},
    {"layer": "tracing itself",
     "metrics": ["trace.unattributed_frac", "trace.overhead_s"],
     "moves": [],
     "on": _ALL,
     "bypassed_by": []},
]
