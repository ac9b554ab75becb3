"""The gates fail on tampered digests and drifting counters."""

import os
import shutil
import subprocess
import sys

import gates
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_committed_record_accepts_the_committed_digest():
    want = gates.committed_digest(ROOT, "paper", 0.05)
    assert want is not None
    assert gates.committed_record(ROOT, "paper", 7, want) == [
        ("committed_record", True, "ok")
    ]


def test_tampered_digest_fails_the_committed_record():
    want = gates.committed_digest(ROOT, "campaign_sharded", 0.05)
    tampered = ("0" if want[0] != "0" else "1") + want[1:]
    [(name, passed, detail)] = gates.committed_record(ROOT, "campaign_sharded", 7, tampered)
    assert name == "committed_record" and not passed
    assert tampered in detail and want in detail


def test_committed_record_applies_only_at_the_committed_seed():
    assert gates.committed_record(ROOT, "paper", 8, "anything") == []
    assert gates.committed_record(ROOT, "serve_chaos", 7, "anything") == []


def test_counter_drift_fails_the_repeat_gate():
    base = {"serving_digest": "ab", "net.queries_sent": 10}
    assert run._counters_gate("counters_repeat", dict(base), base)[1]
    name, passed, detail = run._counters_gate(
        "counters_repeat", dict(base, serving_digest="ac"), base
    )
    assert not passed and "serving_digest" in detail
    assert not run._counters_gate("counters_repeat", {"net.queries_sent": 10}, base)[1]


def test_failed_gate_fails_the_run(monkeypatch):
    def launch(workload, seed, trace, reference, timeout):
        return {
            "trace": trace, "end_to_end_s": 100.0, "raw_end_to_end_s": 100.0,
            "speed_factor": 1.0, "setup_s": 1.0, "loop_s": 1.0,
            "units": 1, "lookups": 1, "net_queries": 1, "ok": 1, "ok_of": 1,
            "peak_rss_mb": 1.0, "counters": {},
            "gates": [["as_of_equals_full_campaign", False, "got x, want y"]],
        }, ""

    monkeypatch.setattr(run, "_launch", launch)
    outcome = run.run("longitudinal", 7, 10.0, trace=False)
    assert outcome["attempted"] == 1 and outcome["failed"] == 1
    assert any("FAILED" in line for line in outcome["report"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
