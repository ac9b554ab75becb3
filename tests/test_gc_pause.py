"""The cycle-collector pause and the phases that run under it."""

import gc

import pytest

from tests.conftest import build_mini_dns
from repro.core.probe import ActiveProber, ProbeConfig
from repro.dns import DnsName
from repro.inet import paused_collector
from repro.net.address import IPv4Address
from repro.report.paperkit import export_all, render_all


@pytest.fixture
def collections():
    """Generations of the collections that start while the test runs;
    the collector's on/off state is restored afterwards."""
    was_enabled = gc.isenabled()
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield started
    finally:
        gc.callbacks.remove(record)
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


class TestPausedCollector:
    def test_enabled_collector_is_paused_then_restored(self, collections):
        gc.enable()
        with paused_collector():
            assert not gc.isenabled()
            del collections[:]
        assert gc.isenabled()
        assert collections == [1]  # one young-generation collection

    def test_disabled_collector_stays_disabled_without_collecting(
        self, collections
    ):
        gc.disable()
        with paused_collector():
            assert not gc.isenabled()
        assert not gc.isenabled()
        assert collections == []

    def test_nested_use_does_nothing(self, collections):
        gc.enable()
        with paused_collector():
            del collections[:]
            with paused_collector():
                assert not gc.isenabled()
            assert not gc.isenabled()
            assert collections == []
        assert gc.isenabled()
        assert collections == [1]

    def test_state_restored_when_body_raises(self, collections):
        gc.enable()
        with pytest.raises(RuntimeError):
            with paused_collector():
                raise RuntimeError("boom")
        assert gc.isenabled()


def _probe_mini_world():
    env = build_mini_dns()
    prober = ActiveProber(
        env["network"],
        [env["root_address"]],
        IPv4Address.parse("192.0.2.9"),
        config=ProbeConfig(rate_limit_qps=None),
    )
    dataset = prober.probe_all({DnsName.parse("health.gov.au"): "AU"})
    assert len(dataset) == 1


@pytest.mark.parametrize("enabled", [True, False])
class TestPhasesRestoreCollectorState:
    def set_state(self, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_export_all(self, enabled, study, tmp_path, collections):
        self.set_state(enabled)
        export_all(study, str(tmp_path))
        assert gc.isenabled() is enabled

    def test_render_all(self, enabled, study, collections):
        self.set_state(enabled)
        render_all(study)
        assert gc.isenabled() is enabled

    def test_probe_all(self, enabled, collections):
        self.set_state(enabled)
        _probe_mini_world()
        assert gc.isenabled() is enabled
