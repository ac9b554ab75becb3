"""The four workloads, each run through the public entry points that
``repro paperkit``, ``repro campaign --shards``, ``repro serve`` and
``repro longitudinal`` call.

A workload function runs once, in the current process, and returns an
:class:`Outcome`: its wall-clock timings, the deterministic counters and
digests that the gates compare, and the state the gates need for their
reference runs (which happen after the timed region, see ``gates.py``).
Everything between the first program call and the last output is timed;
deterministic counters are read after the clock stops.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.core import journal
from repro.core import shard
from repro.core.epoch import EpochRunner
from repro.core.probe import ActiveProber, ProbeConfig
from repro.core.study import GovernmentDnsStudy
from repro.report import paperkit
from repro.report.serving import ServingReport
from repro.report.trend import TrendReport
from repro.serve import profiles
from repro.serve import workload as client_workload
from repro.serve.service import DegradationState, RecursiveService, ServeConfig
from repro.worldgen.config import WorldConfig
from repro.worldgen.generator import WorldGenerator

from catalog import WORKLOADS as INFO
from speed import SpeedProbe
from tracing import Patcher

now = time.perf_counter

# Sizing lives in the catalog.  Scale 0.05 is the smaller committed
# BENCH_probe.json scale, so the seed-7 digests of `paper` and
# `campaign_sharded` are gated against the committed record.
CAMPAIGN_SCALE = INFO["paper"]["scale"]
SHARDS = INFO["campaign_sharded"]["shards"]
SERVE_SCALE = INFO["serve_chaos"]["scale"]
SERVE_WORLD_SEED = INFO["serve_chaos"]["world_seed"]
SERVE_PROFILE = INFO["serve_chaos"]["chaos_profile"]
SERVE_DURATION_S = INFO["serve_chaos"]["duration_s"]
SERVE_QPS = INFO["serve_chaos"]["qps"]
EPOCHS = INFO["longitudinal"]["epochs"]
DEFAULT_SEED = 7


@dataclass
class Outcome:
    """One workload execution.

    ``units`` counts what the main loop completes in ``loop_s`` of wall
    time (target domains, client queries or churn epochs); ``lookups``
    counts the domains probed or client queries answered that caused
    ``net_queries`` network queries.  ``counters`` must repeat exactly
    across executions with the same seed, traced or not.
    """

    setup_s: float
    end_to_end_s: float
    loop_s: float
    units: int
    lookups: int
    net_queries: int
    ok: int
    ok_of: int
    peak_rss_mb: float
    counters: Dict[str, Any] = field(default_factory=dict)
    state: Dict[str, Any] = field(default_factory=dict)
    # Wall time inside the loop during which shard workers ran, and the
    # workers' own speed factor (see speed.py) for scaling it.
    worker_s: float = 0.0
    worker_speed: float = 1.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _retry_waits(dataset: Any, config: ProbeConfig) -> float:
    """The configured inter-round wait, if the campaign had a retry
    round (the wait is methodology, not engine work)."""
    retried = any(result.retried for result in dataset.results.values())
    return config.retry_interval_days * 86_400 if retried else 0.0


def _files_digest(directory: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


class ProbeLog:
    """Observer on ``ActiveProber.probe_all``: keeps each in-process
    prober and its dataset, so counters can be read after the timed
    region.  Installed in traced and untraced runs alike."""

    def __init__(self) -> None:
        self.calls: List[Tuple[ActiveProber, Any]] = []

    def record(self, dataset: Any, prober: ActiveProber, *_: Any, **__: Any) -> None:
        self.calls.append((prober, dataset))

    def install(self, patcher: Patcher) -> None:
        patcher.method(ActiveProber, "probe_all", after=self.record)

    def counters(self) -> Dict[str, Any]:
        hits = sum(p.zone_cuts.hits for p, _ in self.calls if p.zone_cuts)
        misses = sum(p.zone_cuts.misses for p, _ in self.calls if p.zone_cuts)
        return {
            "probe.queries_sent": sum(p.queries_sent for p, _ in self.calls),
            "probe.warm_queries": sum(p.warm_queries for p, _ in self.calls),
            "dns.zone_cut_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        }


class Workers:
    """Observer on the shard worker entry point: each forked worker
    samples its own speed while it probes, then writes its peak RSS and
    speed factor to a pipe the parent reads after joining the workers."""

    def __init__(self) -> None:
        self._read, self._write = os.pipe()
        # A worker probes for about two seconds: sample often enough that
        # trimming drops its copy-on-write warm-up samples.
        self._probe = SpeedProbe(interval=0.1)

    def _start(self) -> None:
        self._probe.__enter__()

    def _report(self, *_: Any, **__: Any) -> None:
        self._probe.__exit__()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        os.write(self._write, f"{rss} {self._probe.factor()}\n".encode())

    def install(self, patcher: Patcher) -> None:
        patcher.function(shard, "_shard_worker", before=self._start, after=self._report)

    def collect(self) -> Tuple[List[float], List[float]]:
        """(peak RSS in MB, speed factor) per worker."""
        os.close(self._write)
        with os.fdopen(self._read, "rb") as handle:
            rows = [line.split() for line in handle.read().decode().splitlines()]
        return [int(r[0]) / 1024.0 for r in rows], [float(r[1]) for r in rows]


def _world(seed: int, scale: float) -> Any:
    return WorldGenerator(WorldConfig(seed=seed, scale=scale)).generate()


def paper(seed: int, out_dir: str, patcher: Patcher) -> Outcome:
    """worldgen → in-process campaign → every §IV artifact."""
    kit_dir = os.path.join(out_dir, "paperkit")
    probes = ProbeLog()
    probes.install(patcher)
    start = now()
    world = _world(seed, CAMPAIGN_SCALE)
    study = GovernmentDnsStudy(world)
    targets = study.targets()
    setup_end = now()
    net_before = world.network.stats.queries_sent
    sim_before = world.clock.now
    dataset = study.dataset()
    campaign_end = now()
    sim_after = world.clock.now
    paperkit.export_all(study, kit_dir)
    end = now()

    rss = _peak_rss_mb()
    net_queries = world.network.stats.queries_sent - net_before
    counters = {
        "dataset_digest": journal.dataset_digest(dataset),
        "paperkit_digest": _files_digest(kit_dir),
        "net.queries_sent": world.network.stats.queries_sent,
        "net.timeouts": world.network.stats.timeouts,
        "net.events_fired": world.network.events.fired,
        "net.sim_active_s": sim_after - sim_before - _retry_waits(dataset, ProbeConfig()),
    }
    counters.update(probes.counters())
    return Outcome(
        setup_s=setup_end - start,
        end_to_end_s=end - start,
        loop_s=campaign_end - setup_end,
        units=len(targets),
        lookups=len(targets),
        net_queries=net_queries,
        ok=len(dataset),
        ok_of=len(targets),
        peak_rss_mb=rss,
        counters=counters,
    )


def campaign_sharded(seed: int, out_dir: str, patcher: Patcher) -> Outcome:
    """worldgen → ProcessCampaignRunner (K=2) → merge → dataset digest."""
    workers = Workers()
    workers.install(patcher)
    start = now()
    world = _world(seed, CAMPAIGN_SCALE)
    study = GovernmentDnsStudy(world)
    targets = study.targets()
    setup_end = now()
    runner = shard.ProcessCampaignRunner(
        world,
        targets,
        ProbeConfig(),
        shards=SHARDS,
        suffixes=shard.government_suffixes(study.seeds().values()),
    )
    collected = runner.collect()
    collect_end = now()
    dataset = runner.merge(collected)
    campaign_end = now()
    digest = journal.dataset_digest(dataset)
    end = now()

    parent_rss = _peak_rss_mb()
    workers_rss, workers_speed = workers.collect()
    stats = runner.shard_stats
    sims = [s.simulated_seconds for s in stats]
    net_queries = sum(s.network_queries for s in stats)
    return Outcome(
        setup_s=setup_end - start,
        end_to_end_s=end - start,
        loop_s=campaign_end - setup_end,
        units=len(targets),
        lookups=len(targets),
        net_queries=net_queries,
        ok=len(dataset),
        ok_of=len(targets),
        peak_rss_mb=parent_rss + sum(workers_rss),
        counters={
            "dataset_digest": digest,
            "workers": len(workers_rss),
            "probe.queries_sent": sum(s.queries_sent for s in stats),
            "probe.warm_queries": sum(s.warm_queries for s in stats),
            "shard.warm_queries": sum(s.warm_queries for s in stats),
            "shard.sim_skew": max(sims) / min(sims),
            "net.queries_sent": world.network.stats.queries_sent + net_queries,
            "net.timeouts": world.network.stats.timeouts + sum(s.timeouts for s in stats),
            "net.events_fired": world.network.events.fired,
            "net.sim_active_s": max(sims) - _retry_waits(dataset, ProbeConfig()),
        },
        state={"world": world, "targets": targets},
        worker_s=collect_end - setup_end,
        worker_speed=statistics.mean(workers_speed),
    )


def _quantile_ms(ordered: List[float], q: float) -> Tuple[float, int]:
    """Nearest-rank quantile in ms, and how many samples lie beyond it."""
    index = max(0, math.ceil(len(ordered) * q) - 1)
    return ordered[index] * 1000.0, len(ordered) - index - 1


def serve_chaos(seed: int, out_dir: str, patcher: Patcher) -> Outcome:
    """``repro serve --chaos mixed``: warm, age, replay an open-loop
    client workload in simulated time.

    The served world and its fault schedule are fixed (seed
    ``SERVE_WORLD_SEED``); ``seed`` draws the client traffic and the
    resolver's retry jitter.  Across world seeds the mixed profile's
    rate limits land on different hot servers and upstream work per
    client query changes fourfold, which no run length averages out.
    """
    start = now()
    world = _world(SERVE_WORLD_SEED, SERVE_SCALE)
    config = ServeConfig()
    service = RecursiveService(
        world.network,
        world.root_addresses,
        source=world.probe_source,
        config=config,
        seed=seed,
    )
    generator = client_workload.ClientWorkload(
        client_workload.targets_from_world(world),
        config=client_workload.WorkloadConfig(
            duration=SERVE_DURATION_S, mean_qps=SERVE_QPS
        ),
        seed=seed,
    )
    queries = generator.generate()
    workload_digest = client_workload.workload_digest(queries)
    warmed = service.warm(queries)
    world.clock.advance(config.max_ttl + 1.0)
    profiles.install_chaos_profile(world.network, SERVE_PROFILE, seed=SERVE_WORLD_SEED)
    setup_end = now()
    net_before = world.network.stats.queries_sent
    answers = service.run(queries)
    replay_end = now()
    net_queries = world.network.stats.queries_sent - net_before
    report = ServingReport.collect(
        answers,
        service,
        seed=seed,
        profile=SERVE_PROFILE,
        duration=SERVE_DURATION_S,
        workload_digest=workload_digest,
        chaos_stats=world.network.chaos.stats.as_dict(),
    )
    serving_digest = report.digest()
    end = now()

    rss = _peak_rss_mb()
    latencies = sorted(answer.latency for answer in answers)
    p50, _ = _quantile_ms(latencies, 0.5)
    p999, beyond = _quantile_ms(latencies, 0.999)
    if beyond <= 10:
        raise ValueError(f"serve workload too small: {beyond} samples beyond p999")
    stats = service.stats()
    fresh = sum(1 for a in answers if a.state == DegradationState.FRESH)
    counters = {
        "serving_digest": serving_digest,
        "workload_digest": workload_digest,
        "warmed": warmed,
        "serve.cache_hit_frac": report.cache_hit_ratio,
        "serve.stale_hits": stats["cache_stale_hits"],
        "serve.refresh_ok_frac": (
            stats["refreshes_ok"] / stats["refreshes_run"]
            if stats["refreshes_run"]
            else 0.0
        ),
        "serve.breaker_skips": stats["breaker_skips"],
        "serve.fresh_frac": fresh / len(answers),
        "serve.latency_p50_ms": p50,
        "serve.latency_p999_ms": p999,
        "net.queries_sent": world.network.stats.queries_sent,
        "net.timeouts": world.network.stats.timeouts,
        "net.events_fired": world.network.events.fired,
        "net.sim_active_s": sum(latencies),
    }
    counters.update({f"chaos.{k}": v for k, v in report.chaos.items()})
    return Outcome(
        setup_s=setup_end - start,
        end_to_end_s=end - start,
        loop_s=replay_end - setup_end,
        units=len(answers),
        lookups=len(answers),
        net_queries=net_queries,
        ok=report.answered,
        ok_of=len(answers),
        peak_rss_mb=rss,
        counters=counters,
    )


def longitudinal(seed: int, out_dir: str, patcher: Patcher) -> Outcome:
    """``repro longitudinal``: bootstrap, then EPOCHS incremental
    churn epochs, then the trend report."""
    probes = ProbeLog()
    probes.install(patcher)
    start = now()
    world = _world(seed, CAMPAIGN_SCALE)
    runner = EpochRunner(world)
    runner.bootstrap()
    setup_end = now()
    steady_from = len(probes.calls)
    for _ in range(EPOCHS):
        runner.run_epoch()
    loop_end = now()
    TrendReport.from_runner(runner).render()
    end = now()

    rss = _peak_rss_mb()
    steady = runner.stats[1:]
    probed = sum(s.probed for s in steady)
    changed = sum(s.changed for s in steady)
    net_queries = sum(s.network_queries for s in steady)
    waits = sum(
        _retry_waits(dataset, prober.config)
        for prober, dataset in probes.calls[steady_from:]
    )
    counters = {
        "epoch_digests": [s.epoch_digest for s in runner.stats],
        "chain_digest": runner.stats[-1].chain_digest,
        "epoch_probed": [s.probed for s in steady],
        "epoch_changed": [s.changed for s in steady],
        "epoch_net_queries": [s.network_queries for s in steady],
        "epoch.probed": probed,
        "epoch.changed_per_probed": changed / probed,
        "epoch.net_queries": net_queries / len(steady),
        "net.queries_sent": world.network.stats.queries_sent,
        "net.timeouts": world.network.stats.timeouts,
        "net.events_fired": world.network.events.fired,
        "net.sim_active_s": sum(s.simulated_seconds for s in steady) - waits,
    }
    counters.update(probes.counters())
    return Outcome(
        setup_s=setup_end - start,
        end_to_end_s=end - start,
        loop_s=loop_end - setup_end,
        units=EPOCHS,
        lookups=probed,
        net_queries=net_queries,
        ok=len(runner.dataset.results_at(EPOCHS)),
        ok_of=len(runner.targets),
        peak_rss_mb=rss,
        counters=counters,
        state={"runner": runner},
    )


WORKLOADS: Dict[str, Callable[[int, str, Patcher], Outcome]] = {
    "paper": paper,
    "campaign_sharded": campaign_sharded,
    "serve_chaos": serve_chaos,
    "longitudinal": longitudinal,
}
