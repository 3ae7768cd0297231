"""Tests for distributed tracing + the crash flight recorder.

Covers the pure clock-calibration math (skewed per-process origins merge
onto one monotone timeline), the shared-memory transport ring (exact
drop-newest accounting, no torn records), the flight ring's last-N
semantics, the offline merge (origin rebasing, cross-process flow
arrows, stage breakdown / latency report), the black-box JSON round
trip, and the end-to-end sharded path: a traced 2-worker
:class:`~repro.serve.shard.ShardServer` whose outputs stay bit-identical
with tracing on, whose merged trace carries spans from multiple pids,
and whose SIGKILLed worker leaves a flight-recorder dump behind.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.data import DataLoader, SyntheticImageDataset
from repro.models import LeNet
from repro.multipliers import get_multiplier
from repro.obs import trace as obs_trace
from repro.obs.dist import (
    ShardTraceController,
    TraceRecord,
    TraceSlab,
    WorkerTraceBlock,
    add_flow_events,
    estimate_clock_offset,
    latency_report,
    load_trace_file,
    merge_chrome_traces,
    merge_records,
    stage_breakdown,
)
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.retrain.convert import approximate_model, calibrate, freeze
from repro.serve import ShardServer, compile_plan


@pytest.fixture
def tracer_off():
    """Guarantee the process-wide tracer is clean before and after."""
    tracer = obs_trace.get_tracer()
    tracer.disable()
    tracer.reset()
    tracer.sink = None
    yield tracer
    tracer.disable()
    tracer.reset()
    tracer.sink = None


@pytest.fixture(scope="module")
def frozen_model():
    train = SyntheticImageDataset(64, 4, 12, seed=5, split="train")
    model = approximate_model(
        LeNet(num_classes=4, image_size=12, seed=5),
        get_multiplier("mul6u_rm4"),
        gradient_method="difference", hws=2, include_linear=True,
    )
    calibrate(model, DataLoader(train, batch_size=32), batches=1)
    freeze(model)
    model.eval()
    return model


def _samples(n, seed=3):
    return np.random.default_rng(seed).standard_normal((n, 3, 12, 12))


# ---------------------------------------------------------------------------
# Clock calibration
# ---------------------------------------------------------------------------

def test_estimate_clock_offset_recovers_known_skew():
    # Worker clock runs 100s behind; symmetric 2ms round trip.
    skew = -100.0
    t_send = 50.0
    t_remote = (t_send + 0.001) + skew  # read at the RTT midpoint
    t_recv = 50.002
    off = estimate_clock_offset(t_send, t_remote, t_recv)
    assert off == pytest.approx(-skew, abs=1e-9)


def test_estimate_clock_offset_error_bounded_by_half_rtt():
    # Asymmetric delays: estimate is off by at most half the round trip.
    skew = 42.0
    t_send = 10.0
    t_remote = (t_send + 0.004) + skew  # remote read just before recv
    t_recv = 10.005
    off = estimate_clock_offset(t_send, t_remote, t_recv)
    assert abs(off - (-skew)) <= (t_recv - t_send) / 2.0


def test_merge_records_monotone_with_skewed_origins():
    # Two fake processes whose perf_counter origins differ wildly; the
    # true (wall) interleaving alternates between them.
    rec = lambda s: TraceRecord("op", "serve", 1, s, 0.001, -1)
    by_pid = {
        101: [rec(1000.0), rec(1000.2)],   # origin +1000s
        202: [rec(0.1), rec(0.3)],         # origin 0
    }
    offsets = {101: -999.95, 202: 0.0}     # pid 101 lands at 0.05 / 0.25
    merged = merge_records(by_pid, offsets)
    starts = [r.start for r in merged]
    assert starts == sorted(starts)
    assert [r.pid for r in merged] == [101, 202, 101, 202]
    assert starts == pytest.approx([0.05, 0.1, 0.25, 0.3], abs=1e-6)


# ---------------------------------------------------------------------------
# Shared-memory transport + flight rings
# ---------------------------------------------------------------------------

@pytest.fixture
def small_slab():
    slab = TraceSlab(num_workers=1, capacity=8, flight_capacity=4,
                     request_capacity=3,
                     name=f"repro-test-trace-{os.getpid()}")
    yield slab
    slab.close()


def test_ring_overflow_drops_newest_with_exact_count(small_slab):
    block = small_slab.blocks[0]
    block.open_writer()
    for i in range(20):
        ok = block.push(f"span{i}", "serve", tid=7, start=float(i),
                        dur=0.5, batch_id=i)
        assert ok == (i < 8)  # capacity 8: 9th..20th push drops
    assert block.dropped == 12

    records = block.drain()
    assert len(records) == 8
    # Drop-newest: the survivors are exactly the first 8, uncorrupted.
    for i, rec in enumerate(records):
        assert rec == TraceRecord(f"span{i}", "serve", 7, float(i), 0.5, i)

    # Drained capacity is writable again and the drop count is cumulative.
    assert block.push("later", "serve", tid=7, start=99.0, dur=0.1)
    assert block.dropped == 12
    [rec] = block.drain()
    assert rec.name == "later" and rec.start == 99.0
    assert block.drain() == []  # nothing published -> nothing drained


def test_push_truncates_long_names_without_corruption(small_slab):
    block = small_slab.blocks[0]
    long_name = "n" * 200
    assert block.push(long_name, "c" * 50, tid=1, start=1.0, dur=2.0)
    [rec] = block.drain()
    assert rec.name == "n" * 48 and rec.cat == "c" * 16
    assert rec.start == 1.0 and rec.dur == 2.0


def test_flight_ring_keeps_most_recent_spans_and_request_ids(small_slab):
    block = small_slab.blocks[0]
    block.open_writer()
    for i in range(10):  # flight capacity is 4
        block.push(f"s{i}", "serve", tid=1, start=float(i), dur=0.1,
                   batch_id=i)
    for trace_id in range(1, 8):  # request capacity is 3
        block.note_request(trace_id)
    block.count_batch()
    block.count_batch()

    snap = block.flight_snapshot()
    assert snap["pid"] == os.getpid()
    assert [r.name for r in snap["spans"]] == ["s6", "s7", "s8", "s9"]
    assert snap["request_ids"] == [5, 6, 7]
    assert snap["batches"] == 2
    assert snap["dropped"] == 2  # transport ring (cap 8) dropped 2 of 10
    # Snapshot does not consume: drain still sees the transport records,
    # and a second snapshot is identical.
    assert len(block.drain()) == 8
    assert [r.name for r in block.flight_snapshot()["spans"]] == [
        "s6", "s7", "s8", "s9",
    ]


# ---------------------------------------------------------------------------
# Controller: sink -> ring -> drain -> router tracer, and the black box
# ---------------------------------------------------------------------------

def test_controller_drains_worker_records_with_offset(tracer_off, tmp_path):
    tracer = tracer_off
    tracer.enable()
    ctl = ShardTraceController(num_workers=1, trace_dir=str(tmp_path),
                               capacity=16, flight_capacity=8,
                               request_capacity=4)
    try:
        block = ctl.block(0)
        block.open_writer()
        ctl.note_sync(0, t_send=10.0, t_remote=1000.0, t_recv=10.0)
        block.push("worker.batch", "serve", tid=3, start=1000.5, dur=0.25,
                   batch_id=42)
        assert ctl.drain_once() == 1
        spans = [s for s in tracer.spans() if s.name == "worker.batch"]
        assert len(spans) == 1
        span = spans[0]
        # offset = 10 - 1000 = -990: worker clock mapped onto router clock.
        assert span.start == pytest.approx(10.5)
        assert span.dur == pytest.approx(0.25)
        assert span.pid == os.getpid()  # stamped by open_writer
        assert span.args == {"batch_id": 42}

        # Black box: salvage + dedup per (worker, pid) generation.
        block.note_request(7)
        path = ctl.dump_black_box(0, reason="test")
        assert path is not None and os.path.exists(path)
        assert ctl.dump_black_box(0, reason="test") is None  # dedup
        doc = json.load(open(path))
        assert doc["flight_recorder"] and doc["worker"] == 0
        assert doc["clock_offset_s"] == pytest.approx(-990.0)
        assert doc["recent_request_ids"] == [7]
        names = [s["name"] for s in doc["spans"]]
        assert "worker.batch" in names
        # start_s already offset-corrected onto the router clock.
        wb = next(s for s in doc["spans"] if s["name"] == "worker.batch")
        assert wb["start_s"] == pytest.approx(10.5)

        # The dump converts + merges like any other trace input.
        converted = load_trace_file(path)
        assert converted["traceEvents"]
        assert converted["otherData"]["flight_recorder"]
    finally:
        ctl.stop()
        ctl.close()
    assert ctl.dropped_total == 0  # cached past close


def test_install_worker_tracing_ships_spans(tracer_off, small_slab):
    from repro.obs.dist import install_worker_tracing

    tracer = tracer_off
    tracer.enable()
    ctx = install_worker_tracing(small_slab.blocks[0])
    try:
        ctx.begin_batch(5, trace_ids=[11, 12])
        with tracer.span("worker.batch", cat="serve"):
            pass
        ctx.end_batch()
        with tracer.span("idle.span", cat="serve"):
            pass
    finally:
        tracer.sink = None
        tracer.disable()
    records = small_slab.blocks[0].drain()
    names = {r.name: r for r in records}
    assert names["worker.batch"].batch_id == 5
    assert names["idle.span"].batch_id == -1  # outside any batch
    snap = small_slab.blocks[0].flight_snapshot()
    assert snap["request_ids"] == [11, 12]
    assert snap["batches"] == 1


# ---------------------------------------------------------------------------
# Offline merge + stage report
# ---------------------------------------------------------------------------

def _router_doc():
    return {
        "traceEvents": [
            {
                "name": "serve.request", "cat": "serve", "ph": "X",
                "ts": 100.0, "dur": 900.0, "pid": 1, "tid": 1,
                "args": {
                    "trace_id": 1, "batch_id": 3, "worker": 0,
                    "queue_ms": 0.2, "assembly_ms": 0.1, "exec_ms": 0.5,
                    "transit_ms": 0.1, "total_ms": 0.9,
                },
            },
        ],
        "displayTimeUnit": "ms",
        "otherData": {"origin": 1000.0, "pid": 1, "dropped_spans": 1,
                      "counters": {"serve.batches": 2}},
    }


def _worker_doc():
    return {
        "traceEvents": [
            {"name": "worker.batch", "cat": "serve", "ph": "X",
             "ts": 50.0, "dur": 500.0, "pid": 2, "tid": 9,
             "args": {"batch_id": 3}},
            {"name": "serve.requant", "cat": "serve", "ph": "X",
             "ts": 80.0, "dur": 200.0, "pid": 2, "tid": 9,
             "args": {"batch_id": 3}},
        ],
        "displayTimeUnit": "ms",
        "otherData": {"origin": 1000.00025, "pid": 2,
                      "counters": {"serve.batches": 1}},
    }


def test_merge_chrome_traces_rebases_and_links_flows():
    merged = merge_chrome_traces([_router_doc(), _worker_doc()])
    other = merged["otherData"]
    assert other["origin"] == 1000.0
    assert other["dropped_spans"] == 1
    assert other["merged_from"] == 2
    assert other["counters"] == {"serve.batches": 3}

    events = merged["traceEvents"]
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts)
    # Worker events rebased by +250us onto the earliest origin.
    wb = next(e for e in events if e["name"] == "worker.batch")
    assert wb["ts"] == pytest.approx(300.0)
    # worker.batch nests inside the serve.request window after rebasing.
    req = next(e for e in events if e["name"] == "serve.request")
    assert req["ts"] <= wb["ts"]
    assert wb["ts"] + wb["dur"] <= req["ts"] + req["dur"]

    flows = [e for e in events if e.get("cat") == "flow"]
    assert len(flows) == 2
    start = next(e for e in flows if e["ph"] == "s")
    finish = next(e for e in flows if e["ph"] == "f")
    assert start["pid"] == 1 and finish["pid"] == 2
    assert start["id"] == finish["id"] == 3


def test_add_flow_events_skips_same_pid_batches():
    doc = _router_doc()
    doc["traceEvents"].append({
        "name": "worker.batch", "cat": "serve", "ph": "X",
        "ts": 200.0, "dur": 100.0, "pid": 1, "tid": 2,
        "args": {"batch_id": 3},
    })
    assert add_flow_events(doc) == 0


def test_stage_breakdown_and_latency_report(monkeypatch):
    merged = merge_chrome_traces([_router_doc(), _worker_doc()])
    info = stage_breakdown(merged)
    assert info["n_requests"] == 1 and info["n_batches"] == 1
    assert set(info["pids"]) == {1, 2}
    s = info["samples"]
    assert s["queue_wait"] == [0.2]
    assert s["batch_assembly"] == [0.1]
    # Requant (0.2ms worker span) is split out of the 0.5ms exec stage.
    assert s["requant"] == [pytest.approx(0.2)]
    assert s["kernel"] == [pytest.approx(0.3)]
    assert s["reply"] == [0.1]
    assert s["total"] == [0.9]

    percentile_calls = []
    percentile = np.percentile

    def counting_percentile(*args, **kwargs):
        percentile_calls.append(args)
        return percentile(*args, **kwargs)

    monkeypatch.setattr(np, "percentile", counting_percentile)
    report = latency_report(merged)
    assert "queue_wait" in report and "requant" in report
    assert "n=1 requests" in report
    # One percentile pass per row: five stages plus the total.
    assert len(percentile_calls) == 6
    assert f"{'total':<16}{0.9:>10.3f}{0.9:>10.3f}{0.9:>10.3f}" in report
    # Stages partition the total by construction: coverage ~100%.
    coverage = float(report.rsplit("stage coverage: ", 1)[1].split("%")[0])
    assert coverage >= 95.0


def test_latency_report_without_requests_is_friendly():
    report = latency_report({"traceEvents": [], "otherData": {}})
    assert "no serve.request spans" in report


def test_load_trace_file_rejects_unknown_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError):
        load_trace_file(str(path))


# ---------------------------------------------------------------------------
# End to end: traced 2-worker shard, SIGKILL, merged multi-pid trace
# ---------------------------------------------------------------------------

def test_traced_shard_sigkill_multi_pid_trace_and_flight_dump(
    frozen_model, tracer_off, tmp_path
):
    x = _samples(16, seed=11)
    ref = compile_plan(frozen_model, arithmetic="int").run(x)

    tracer = tracer_off
    tracer.enable()
    server = ShardServer(
        lambda: compile_plan(frozen_model, arithmetic="int"),
        workers=2, max_batch=4, max_wait_ms=2.0, queue_size=32,
        trace_dir=str(tmp_path),
    ).start()
    try:
        assert server.tracectl is not None
        victim = server.supervisor.live_handles()[0]
        futures = [server.submit(s) for s in x]
        os.kill(victim.pid, signal.SIGKILL)
        outs = [f.result(timeout=60.0) for f in futures]
        # Tracing on changes nothing about the numbers.
        assert all(np.array_equal(o, r) for o, r in zip(outs, ref))
        deadline = time.monotonic() + 15.0
        while (server.alive_workers < 2 and time.monotonic() < deadline):
            time.sleep(0.05)
        assert server.alive_workers == 2
    finally:
        server.shutdown(drain=True)
        tracer.disable()

    # Flight recorder: the SIGKILLed worker left a black box behind.
    dumps = [f for f in os.listdir(tmp_path) if f.startswith("blackbox-")]
    assert len(dumps) >= 1
    blackbox = json.load(open(tmp_path / dumps[0]))
    assert blackbox["flight_recorder"] and blackbox["pid"] == victim.pid
    assert server.metrics.counter("flight_recorder_dumps_total") >= 1

    # Merged trace: ingress->batch->worker spans from >= 2 distinct pids.
    router_trace = tmp_path / "trace.json"
    write_chrome_trace(router_trace, tracer)
    docs = [load_trace_file(str(tmp_path / f))
            for f in sorted(os.listdir(tmp_path)) if f.endswith(".json")]
    merged = merge_chrome_traces(docs)
    events = merged["traceEvents"]
    names = {e["name"] for e in events}
    assert {"serve.request", "worker.batch"} <= names
    pids = {e["pid"] for e in events if e.get("ph") == "X"}
    assert len(pids) >= 2
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts)

    # The stage report accounts for (essentially all of) request latency.
    info = stage_breakdown(merged)
    assert info["n_requests"] == len(x)
    attributed = sum(
        np.mean(info["samples"][stage])
        for stage in ("queue_wait", "batch_assembly", "kernel",
                      "requant", "reply")
    )
    assert attributed >= 0.95 * np.mean(info["samples"]["total"])
    assert "stage coverage" in latency_report(merged)


def test_shard_trace_slab_cleanup_and_disabled_no_controller(
    frozen_model, tracer_off, tmp_path
):
    from repro.serve.shm import segment_exists

    # Disabled tracer: no controller, no slab, nothing in /dev/shm.
    server = ShardServer(
        lambda: compile_plan(frozen_model, arithmetic="int"),
        workers=1, trace_dir=str(tmp_path),
    ).start()
    try:
        assert server.tracectl is None
    finally:
        server.shutdown(drain=True)

    # Enabled: the slab exists while serving and is unlinked on shutdown.
    tracer = tracer_off
    tracer.enable()
    server = ShardServer(
        lambda: compile_plan(frozen_model, arithmetic="int"),
        workers=1, trace_dir=str(tmp_path),
    ).start()
    try:
        seg = server.tracectl.segment
        assert segment_exists(seg)
        out = server.submit(_samples(1)[0]).result(timeout=60.0)
        assert out.shape == (4,)
    finally:
        server.shutdown(drain=True)
        tracer.disable()
    assert not segment_exists(seg)
