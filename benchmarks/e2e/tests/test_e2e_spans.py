import json
import threading

from kkbench.spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_cover():
    recorder = SpanRecorder()
    parent = recorder.record("job", 0.0, 10.0)
    # Two overlapping children cover [1, 6]; one sticks out past the parent.
    recorder.record("a", 1.0, 4.0, parent=parent.span_id)
    recorder.record("b", 3.0, 6.0, parent=parent.span_id)
    recorder.record("c", 9.0, 12.0, parent=parent.span_id)
    assert recorder.self_time(parent) == 10.0 - 5.0 - 1.0
    leaf = recorder.named("a")[0]
    assert recorder.self_time(leaf) == leaf.duration


def test_nested_spans_get_parent_and_job():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with recorder.span("job", job="w/0") as outer:
        clock.now = 1.0
        with recorder.span("core.init") as inner:
            clock.now = 3.0
        clock.now = 4.0
    assert inner.parent == outer.span_id
    assert inner.job == "w/0"
    assert (inner.start, inner.end) == (1.0, 3.0)
    assert recorder.self_time(outer) == 2.0


def test_threads_do_not_share_a_span_stack():
    recorder = SpanRecorder()
    seen = []

    def other():
        with recorder.span("elsewhere") as span:
            seen.append(span.parent)

    with recorder.span("main"):
        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
    assert seen == [None]


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder(enabled=False)
    with recorder.span("job") as span:
        assert span is None
    assert recorder.record("x", 0.0, 1.0) is None
    assert recorder.spans == []


def test_chrome_trace_shape(tmp_path):
    recorder = SpanRecorder()
    parent = recorder.record("job", 5.0, 6.0, job="w/0")
    recorder.record("core.loop", 5.25, 5.75, parent=parent.span_id, job="w/0")
    path = tmp_path / "trace.json"
    recorder.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    assert [event["name"] for event in complete] == ["job", "core.loop"]
    assert complete[0]["ts"] == 0.0 and complete[0]["dur"] == 1e6
    assert complete[0]["args"]["self_us"] == 5e5
    assert complete[1]["args"]["parent"] == parent.span_id
    assert complete[1]["cat"] == "core"
