"""Self-time arithmetic, GC charging, wrapping and trace export."""

import gc

import pytest

from tracing import Patcher, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_trace():
    """root [0,10] ⊃ a [1,4] (GC 2–2.5 inside a), GC 5–6 in root,
    b [6,9] ⊃ c [7,8]."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.open("root")
    clock.now = 1.0
    a = tracer.open("a")
    clock.now = 2.0
    tracer.on_gc("start", {"generation": 0})
    clock.now = 2.5
    tracer.on_gc("stop", {"generation": 0})
    clock.now = 4.0
    tracer.close(a)
    clock.now = 5.0
    tracer.on_gc("start", {"generation": 2})
    clock.now = 6.0
    tracer.on_gc("stop", {"generation": 2})
    b = tracer.open("b")
    clock.now = 7.0
    c = tracer.open("c")
    clock.now = 8.0
    tracer.close(c)
    clock.now = 9.0
    tracer.close(b)
    clock.now = 10.0
    tracer.close(root)
    return tracer


def test_self_time_subtracts_children_and_gc():
    selfs = _nested_trace().self_times()
    assert selfs == {"root": 3.0, "a": 2.5, "b": 2.0, "c": 1.0}


def test_self_times_and_pauses_partition_the_root():
    tracer = _nested_trace()
    pause_s, gen2 = tracer.gc_summary()
    assert pause_s == 1.5 and gen2 == 1
    assert sum(tracer.self_times().values()) + pause_s == tracer.total_times()["root"]


def test_gc_pause_is_charged_to_innermost_open_span():
    tracer = _nested_trace()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["a"].gc_s == 0.5 and by_name["a"].gc_gen2 == 0
    assert by_name["root"].gc_s == 1.0 and by_name["root"].gc_gen2 == 1
    assert [p.span for p in tracer.pauses] == [by_name["a"].id, by_name["root"].id]


def test_recursive_span_total_is_not_double_counted():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.open("x")
    clock.now = 1.0
    inner = tracer.open("x")
    clock.now = 3.0
    tracer.close(inner)
    clock.now = 4.0
    tracer.close(outer)
    assert tracer.total_times() == {"x": 4.0}
    assert tracer.self_times() == {"x": 4.0}


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_real_collection_is_recorded_and_hook_removed():
    tracer = Tracer()
    tracer.install_gc_hook()
    try:
        with tracer.span("root"):
            gc.collect()
    finally:
        tracer.remove_gc_hook()
    assert tracer.on_gc not in gc.callbacks
    assert any(p.generation == 2 for p in tracer.pauses)
    root = tracer.spans[0]
    assert root.gc_s > 0 and root.self_s >= 0


def test_chrome_trace_events_carry_parent_ids():
    trace = _nested_trace().chrome_trace()
    spans = [e for e in trace["traceEvents"] if e["cat"] == "layer"]
    parents = {e["name"]: e["args"]["parent"] for e in spans}
    ids = {e["name"]: e["args"]["id"] for e in spans}
    assert parents == {"root": None, "a": ids["root"], "b": ids["root"], "c": ids["b"]}
    assert all(e["ph"] == "X" for e in trace["traceEvents"])
    gc_events = [e for e in trace["traceEvents"] if e["cat"] == "gc"]
    assert [e["args"]["parent"] for e in gc_events] == [ids["a"], ids["root"]]


class _Widget:
    def work(self, value):
        return value * 2

    @classmethod
    def make(cls):
        return cls()


def _helper(value):
    return value + 1


def test_patcher_wraps_methods_and_restores():
    tracer = Tracer()
    seen = []
    original = _Widget.__dict__["work"]
    with Patcher(tracer) as patcher:
        patcher.method(_Widget, "work", "widget.work", after=lambda r, *a: seen.append(r))
        patcher.method(_Widget, "make", "widget.make")
        assert _Widget.make().work(3) == 6
    assert seen == [6]
    assert [s.name for s in tracer.spans] == ["widget.make", "widget.work"]
    assert _Widget.__dict__["work"] is original
    assert isinstance(_Widget.__dict__["make"], classmethod)


def test_patcher_rebinds_functions_in_importing_modules(monkeypatch):
    import types
    import sys

    owner = types.ModuleType("repro_fake_owner")
    owner.helper = _helper
    user = types.ModuleType("repro_fake_user")
    user.helper = _helper  # as after ``from owner import helper``
    monkeypatch.setitem(sys.modules, owner.__name__, owner)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    tracer = Tracer()
    with Patcher(tracer) as patcher:
        patcher.function(owner, "helper", "fake.helper")
        assert user.helper(1) == 2
        assert owner.helper is user.helper
    assert user.helper is _helper and owner.helper is _helper
    assert [s.name for s in tracer.spans] == ["fake.helper"]


def test_observer_without_tracer_records_no_span():
    seen = []
    with Patcher() as patcher:
        patcher.method(_Widget, "work", after=lambda r, *a: seen.append(r))
        _Widget().work(5)
    assert seen == [10]


def test_speed_factor_is_the_trimmed_mean_relative_speed():
    import speed

    probe = speed.SpeedProbe()
    nominal = speed.NOMINAL_S
    # Eight samples at nominal speed, eight at half speed, and one
    # interrupt-sized outlier at each end that the trim drops.
    probe.samples = [nominal] * 8 + [2 * nominal] * 8 + [nominal / 10, 100 * nominal]
    assert abs(probe.factor() - 0.75) < 1e-12


def test_speed_probe_samples_while_running_and_stops():
    import signal
    import time

    import speed

    with speed.SpeedProbe(interval=0.01) as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert probe.samples and probe.factor() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
