"""BENCHMARK.json against the contract, the metric-name grammar, and the
rule that every reported metric is defined on the workload reporting it."""

import json
import os

import pytest

import catalog
import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = metrics.load_spec(ROOT)
E2E = [entry["name"] for entry in SPEC["end_to_end"]]
LAYER = [entry["name"] for entry in SPEC["per_layer"]]


def test_top_level_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"][0] == "python3" and len(SPEC["command"]) <= 32
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(E2E) <= 16 and 1 <= len(LAYER) <= 128
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_names_units_and_entries_follow_the_grammar():
    names = [w["name"] for w in SPEC["workloads"]] + E2E + LAYER
    assert all(catalog.NAME.fullmatch(name) for name in names)
    assert len(set(E2E + LAYER)) == len(E2E + LAYER)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert catalog.UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")


@pytest.mark.parametrize("bad", ["", "_x", "a b", "x" * 65, "é"])
def test_grammar_rejects_bad_names(bad):
    assert not catalog.NAME.fullmatch(bad)


def test_setup_metric_has_the_largest_bound():
    bounds = {entry["name"]: entry for entry in SPEC["end_to_end"]}
    setup = bounds["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in SPEC["end_to_end"])


def test_workloads_match_the_catalog():
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.WORKLOADS)


def test_every_end_to_end_metric_is_defined_on_every_workload():
    assert set(catalog.DEFINITIONS) == set(E2E)
    for name, per_workload in catalog.DEFINITIONS.items():
        assert set(per_workload) == set(catalog.WORKLOADS), name


def test_end_to_end_computation_yields_exactly_the_listed_metrics():
    execution = {
        "setup_s": 1.0, "end_to_end_s": 3.0, "peak_rss_mb": 100.0, "units": 50,
        "lookups": 50, "loop_s": 2.0, "net_queries": 200, "ok": 49, "ok_of": 50,
    }
    values = metrics.end_to_end([execution, dict(execution, end_to_end_s=5.0)])
    assert set(values) == set(E2E)
    assert values["end_to_end_s"] == 4.0
    assert values["throughput_per_s"] == 25.0 and values["net_queries_per_lookup"] == 4.0
    assert all(value != 0 for value in values.values())


def test_layer_map_covers_each_per_layer_metric_once():
    mapped = [m for row in catalog.LAYER_MAP for m in row["metrics"]]
    assert sorted(mapped) == sorted(LAYER)
    for row in catalog.LAYER_MAP:
        assert set(row["moves"]) <= set(E2E)
        assert set(row["on"]) <= set(catalog.WORKLOADS)
        named = {entry.split(" ")[0] for entry in row["bypassed_by"]}
        assert named <= set(catalog.WORKLOADS)
        assert not named & set(row["on"])


def test_per_layer_sources_match_the_spec():
    import layers

    assert list(layers.PER_LAYER) == LAYER


def test_traced_run_reports_every_per_layer_metric_and_zero_for_bypassed_layers():
    import layers
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("bench.serve_chaos"):
        with tracer.span("serve.run"):
            pass
    execution = {
        "end_to_end_s": 2.0,
        "layers": layers.per_layer_values(tracer, "bench.serve_chaos", {"serve.stale_hits": 5}),
    }
    values = metrics.per_layer([execution], [dict(execution, end_to_end_s=1.5)])
    assert set(values) == set(LAYER)
    assert values["trace.overhead_s"] == 0.5
    assert values["serve.stale_hits"] == 5.0
    assert values["shard.collect_s"] == 0.0 and values["epoch.probed"] == 0.0
