"""Tracer behaviour: disabled path, nesting, stats, journal emission."""

import io

import pytest

from repro import obs
from repro.obs import NULL_SPAN, Stopwatch, Tracer
from repro.obs.tracer import _NullSpan


@pytest.fixture(autouse=True)
def _no_leftover_tracer():
    assert obs.active() is None, "a test left a tracer installed"
    yield
    obs.uninstall()


class FakeClock:
    """Deterministic clock: every read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        current = self.now
        self.now += self.step
        return current


# -- disabled path ----------------------------------------------------------


def test_disabled_span_is_the_shared_null_singleton():
    first = obs.span("anything", attr=1)
    second = obs.span("other")
    assert first is NULL_SPAN
    assert second is NULL_SPAN


def test_null_span_swallows_every_operation():
    with obs.span("phase") as span:
        span.add("backtracks", 3)
        span.merge({"decisions": 5})
        span.set("status", "ok")
    assert span.closed
    assert repr(span) == "NullSpan()"
    assert isinstance(span, _NullSpan)


def test_disabled_module_helpers_are_noops():
    obs.add("backtracks", 10)
    obs.event("escalate", engine="cdcl")
    assert obs.active() is None
    assert not obs.enabled()


# -- enabled path -----------------------------------------------------------


def test_spans_nest_and_record_parents():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("run") as run:
        with tracer.span("module") as module:
            assert module.parent_id == run.id
            assert tracer.current() is module
        assert tracer.current() is run
    assert tracer.current() is None
    assert run.closed and module.closed


def test_module_level_span_routes_to_installed_tracer():
    with obs.tracing(clock=FakeClock()) as tracer:
        assert obs.enabled()
        with obs.span("run"):
            obs.add("checkpoints")
            with obs.span("module", output="x") as inner:
                assert inner.name == "module"
                assert inner.attrs == {"output": "x"}
    assert tracer.stats["run"].counters["checkpoints"] == 1


def test_counters_attach_to_innermost_open_span():
    with obs.tracing(clock=FakeClock()) as tracer:
        with obs.span("outer"):
            with obs.span("inner"):
                obs.add("decisions", 2)
            obs.add("decisions", 5)
    assert tracer.stats["inner"].counters == {"decisions": 2}
    assert tracer.stats["outer"].counters == {"decisions": 5}


def test_stats_fold_count_total_and_max():
    clock = FakeClock(step=1.0)
    tracer = Tracer(clock=clock)
    for _ in range(3):
        with tracer.span("phase"):
            pass
    stats = tracer.stats["phase"]
    assert stats.count == 3
    assert stats.total_seconds > 0
    assert stats.max_seconds <= stats.total_seconds
    assert stats.mean_seconds == pytest.approx(stats.total_seconds / 3)


def test_exception_records_error_attr_and_closes_span():
    sink = io.StringIO()
    tracer = Tracer(journal=sink, clock=FakeClock())
    with pytest.raises(ValueError):
        with tracer.span("module") as span:
            raise ValueError("boom")
    assert span.closed
    assert span.attrs["error"] == "ValueError"
    assert '"error":"ValueError"' in sink.getvalue()


def test_tracing_restores_previous_tracer():
    outer = obs.install(Tracer(clock=FakeClock()))
    with obs.tracing(clock=FakeClock()) as inner:
        assert obs.active() is inner
    assert obs.active() is outer
    obs.uninstall()
    assert obs.active() is None


def test_close_ends_dangling_spans():
    tracer = Tracer(clock=FakeClock())
    tracer.span("run")
    tracer.span("module")
    tracer.close()
    assert tracer.current() is None
    assert tracer.stats["run"].count == 1
    assert tracer.stats["module"].count == 1


def test_counter_totals_and_profile_top():
    tracer = Tracer(clock=FakeClock(step=1.0))
    with tracer.span("slow"):
        tracer.add("decisions", 1)
        with tracer.span("fast"):
            tracer.add("decisions", 2)
    totals = tracer.counter_totals()
    assert totals["decisions"] == 3
    top = tracer.profile_top(1)
    assert [entry.name for entry in top] == ["slow"]
    assert set(tracer.stats_dict()) == {"slow", "fast"}


def test_journal_path_is_opened_and_closed(tmp_path):
    path = tmp_path / "trace.jsonl"
    with obs.tracing(journal=str(path), clock=FakeClock()):
        with obs.span("run"):
            pass
    text = path.read_text()
    assert text.splitlines()[0].startswith('{"ev":"trace"')
    assert '"name":"run"' in text


# -- Stopwatch --------------------------------------------------------------


def test_stopwatch_elapsed_and_restart():
    clock = FakeClock(step=1.0)
    watch = Stopwatch(clock=clock)
    assert watch.elapsed() == pytest.approx(1.0)
    watch.restart()
    assert watch.elapsed() == pytest.approx(1.0)


def test_stopwatch_exceeded_none_means_unlimited():
    watch = Stopwatch(clock=FakeClock(step=100.0))
    assert not watch.exceeded(None)
    assert watch.exceeded(50.0)


def _traced_worker(counter_value):
    """A closed worker tracer with one ``module`` span and a metric set."""
    sink = io.StringIO()
    worker = Tracer(journal=sink, clock=FakeClock())
    with worker.span("module", output=f"o{counter_value}"):
        worker.add("decisions", counter_value)
    worker.observe("cache_lookup_seconds", 0.001 * counter_value)
    worker.gauge("peak_memory_bytes", 1000 * counter_value, span="module")
    worker.close()
    return worker, sink.getvalue()


# -- retained events (keep_events) and multi-segment folding ----------------


def test_keep_events_retains_header_and_records():
    tracer = Tracer(clock=FakeClock(), keep_events=True)
    with tracer.span("run"):
        tracer.event("ping")
    tracer.close()
    kinds = [e["ev"] for e in tracer.events]
    assert kinds == ["trace", "start", "point", "end"]
    assert Tracer(clock=FakeClock()).events is None


def test_three_worker_segments_fold_in_order_live_and_on_disk():
    from repro.obs import build_forest
    from repro.obs.journal import read_events, validate_events

    # A parent journal followed by three worker journals, concatenated
    # the way ``cat a.jsonl b.jsonl`` joins per-run journals.
    parent_sink = io.StringIO()
    parent = Tracer(journal=parent_sink, clock=FakeClock(),
                    keep_events=True)
    with parent.span("run"):
        pass
    parent.close()
    texts = [parent_sink.getvalue()]
    texts += [text for _worker, text in
              (_traced_worker(value) for value in (1, 2, 3))]

    # The live event view and the parent's journal file agree exactly.
    assert parent.events == read_events(io.StringIO(texts[0]))
    merged = read_events(io.StringIO("".join(texts)))
    assert validate_events(merged) == []

    roots = build_forest(merged)
    assert [(r.name, r.segment) for r in roots] == [
        ("run", 0), ("module", 1), ("module", 2), ("module", 3),
    ]
    outputs = [r.attrs.get("output") for r in roots[1:]]
    assert outputs == ["o1", "o2", "o3"]


def test_live_stats_match_stats_rebuilt_from_the_merged_journal():
    from repro.obs import aggregate_events, stats_as_dict
    from repro.obs.journal import read_events, split_segments

    parent_sink = io.StringIO()
    parent = Tracer(journal=parent_sink, clock=FakeClock())
    with parent.span("run"):
        with parent.span("module", output="p"):
            parent.add("decisions", 9)
    parent.close()
    tracers = [parent]
    texts = [parent_sink.getvalue()]
    for value in (1, 2, 3):
        worker, text = _traced_worker(value)
        tracers.append(worker)
        texts.append(text)

    merged = read_events(io.StringIO("".join(texts)))
    segments = split_segments(merged)
    assert len(segments) == len(tracers)
    for tracer, (_position, events) in zip(tracers, segments):
        assert tracer.stats_dict() == stats_as_dict(aggregate_events(events))
    rebuilt = aggregate_events(merged)
    assert rebuilt["module"].count == 4
    assert rebuilt["module"].counters["decisions"] == 9 + 1 + 2 + 3


# -- automatic histograms and memory gauges ---------------------------------


def test_span_close_fills_auto_histograms():
    tracer = Tracer(clock=FakeClock(step=0.01))
    with tracer.span("run"):
        with tracer.span("module", output="x"):
            with tracer.span("encode") as encode:
                encode.add("num_clauses", 120)
            with tracer.span("sat_attempt"):
                pass
    assert tracer.histograms["module_solve_seconds"].count == 1
    assert tracer.histograms["sat_attempt_seconds"].count == 1
    clauses = tracer.histograms["formula_clauses"]
    assert clauses.count == 1
    assert clauses.total == pytest.approx(120.0)


def test_module_level_observe_and_gauge_route_to_installed_tracer():
    obs.observe("cache_lookup_seconds", 0.5)  # disabled: no-op
    obs.gauge("peak_memory_bytes", 1)
    with obs.tracing(clock=FakeClock()) as tracer:
        obs.observe("cache_lookup_seconds", 0.002)
        obs.gauge("peak_memory_bytes", 2048, span="run")
    assert tracer.histograms["cache_lookup_seconds"].count == 1
    assert tracer.gauges["peak_memory_bytes{span='run'}"].value == 2048.0


def test_memory_mode_records_peak_gauge_per_top_level_span():
    tracer = Tracer(clock=FakeClock(), memory=True)
    with tracer.span("run"):
        _ballast = [bytearray(64 * 1024) for _ in range(4)]
        with tracer.span("module"):
            pass
        del _ballast
    tracer.close()
    keys = [k for k in tracer.gauges if k.startswith("peak_memory_bytes")]
    assert keys == ["peak_memory_bytes{span='run'}"]
    assert tracer.gauges[keys[0]].value >= 4 * 64 * 1024


def test_memory_mode_stops_tracemalloc_it_started():
    import tracemalloc

    assert not tracemalloc.is_tracing()
    tracer = Tracer(clock=FakeClock(), memory=True)
    assert tracemalloc.is_tracing()
    tracer.close()
    assert not tracemalloc.is_tracing()
