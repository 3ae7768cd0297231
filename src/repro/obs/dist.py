"""Distributed request tracing + crash flight recorder for sharded serving.

:mod:`repro.obs.trace` is strictly process-local: a span emitted inside a
forked :func:`~repro.serve.shard.plan_worker` dies with that worker.  This
module extends the tracer across the process boundary so one ``/predict``
request is one causally-linked span tree -- HTTP ingress -> micro-batch ->
worker PlanOp spans -- and a SIGKILLed worker leaves forensic evidence:

- **Span transport.**  Each worker owns one :class:`WorkerTraceBlock`
  inside a single :class:`~repro.serve.shm.MutableSlab` created *before*
  the fork (same hygiene as the supervisor's heartbeat slab).  The
  worker's tracer gets a ``sink`` that appends every finished span to a
  bounded single-writer/single-reader ring; overflow **drops the newest
  record and counts it exactly** -- the hot path never blocks and never
  corrupts an entry (a record is fully written *before* ``write_seq`` is
  bumped, so the reader can never observe a torn record).
- **Clock calibration.**  ``perf_counter`` origins differ per process.
  At spawn the router pings the worker (``("sync", t_send)`` ->
  ``("sync_ack", t_send, t_worker)``) and estimates the offset NTP-style
  (:func:`estimate_clock_offset`); drained records are shifted onto the
  router's timeline before injection, so merged timestamps are monotone
  and nest correctly.
- **Flight recorder.**  Next to the transport ring each block keeps a
  small overwrite-oldest ring of the *most recent* spans plus the last-N
  request (trace) ids and counters.  On death detection the router
  salvages the block from shm -- the segment outlives the SIGKILLed
  process -- and dumps a JSON "black box" to the run dir before respawn.
- **Offline merge.**  :func:`merge_chrome_traces` folds multiple trace
  files (router traces and black boxes) into one Chrome trace with flow
  arrows linking router batches to worker execution;
  :func:`latency_report` breaks request latency into queue-wait /
  batch-assembly / kernel / requant / reply stages with p50/p95/p99.
  Both back the ``repro trace`` CLI subcommand.

Same contract as every obs layer: default-off, bit-identical serving
outputs on and off, near-zero overhead when disabled
(``benchmarks/bench_obs.py --shard`` gates both).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import NamedTuple

import numpy as np

from repro.obs.trace import get_tracer

__all__ = [
    "RECORD_DTYPE",
    "HEADER_DTYPE",
    "TraceRecord",
    "WorkerTraceBlock",
    "TraceSlab",
    "WorkerTraceContext",
    "install_worker_tracing",
    "ShardTraceController",
    "estimate_clock_offset",
    "merge_records",
    "load_trace_file",
    "merge_chrome_traces",
    "add_flow_events",
    "latency_report",
]

#: Fixed-width span record stored in shared memory.  96 bytes, 8-aligned,
#: so every int64/float64 field of every record sits on a natural boundary.
_NAME_LEN = 48
_CAT_LEN = 16
RECORD_DTYPE = np.dtype([
    ("start", np.float64),     # worker-local perf_counter seconds
    ("dur", np.float64),       # seconds
    ("tid", np.int64),
    ("batch_id", np.int64),    # -1 = outside any batch
    ("name", f"S{_NAME_LEN}"),
    ("cat", f"S{_CAT_LEN}"),
])

#: Per-block header: sequence counters are monotonically increasing (they
#: never wrap back onto the ring modulus), so ``write_seq - read_seq`` is
#: always the exact fill level even across worker respawns.
HEADER_DTYPE = np.dtype([
    ("pid", np.int64),
    ("write_seq", np.int64),
    ("read_seq", np.int64),
    ("dropped", np.int64),
    ("flight_seq", np.int64),
    ("req_seq", np.int64),
    ("batches", np.int64),
])


class TraceRecord(NamedTuple):
    """One decoded span record (plain Python, safe after the shm is gone)."""

    name: str
    cat: str
    tid: int
    start: float
    dur: float
    batch_id: int
    pid: int = -1


def estimate_clock_offset(t_send: float, t_remote: float,
                          t_recv: float) -> float:
    """Seconds to *add* to a remote timestamp to land on the local clock.

    NTP-style single-exchange estimate: the remote clock read ``t_remote``
    is assumed to have happened at the midpoint of the local send/receive
    round trip, so ``offset = (t_send + t_recv) / 2 - t_remote``.  On
    Linux ``perf_counter`` is CLOCK_MONOTONIC (system-wide), making the
    true offset ~0; the calibration exists so merged traces stay monotone
    on platforms (or tests) where per-process origins differ.
    """
    return (t_send + t_recv) / 2.0 - t_remote


def merge_records(records_by_pid: dict[int, list[TraceRecord]],
                  offsets: dict[int, float]) -> list[TraceRecord]:
    """Merge per-process records onto one timeline, sorted by start.

    ``offsets[pid]`` is added to each record's ``start`` (missing pids
    get offset 0).  Pure function -- the unit tests drive it with
    artificially skewed clocks.
    """
    merged: list[TraceRecord] = []
    for pid, records in records_by_pid.items():
        off = offsets.get(pid, 0.0)
        for rec in records:
            merged.append(rec._replace(start=rec.start + off, pid=pid))
    merged.sort(key=lambda r: r.start)
    return merged


def _decode(rec) -> TraceRecord:
    return TraceRecord(
        name=bytes(rec["name"]).rstrip(b"\x00").decode("utf-8", "replace"),
        cat=bytes(rec["cat"]).rstrip(b"\x00").decode("utf-8", "replace"),
        tid=int(rec["tid"]),
        start=float(rec["start"]),
        dur=float(rec["dur"]),
        batch_id=int(rec["batch_id"]),
    )


class WorkerTraceBlock:
    """One worker's region of the trace slab: header + rings.

    Layout (all offsets relative to the block base)::

        HEADER_DTYPE x 1
        RECORD_DTYPE x capacity           transport ring (drop-newest)
        RECORD_DTYPE x flight_capacity    flight ring (overwrite-oldest)
        int64        x request_capacity   last-N request/trace ids

    Single writer (the worker process), single reader (the router's
    collector thread).  The transport ring is lock-free: the writer
    fills a record completely *before* publishing it by bumping
    ``write_seq``, and drops (with an exact count) when the reader lags
    ``capacity`` behind.  The flight ring is the worker's black box --
    always overwritten, never drained -- salvaged by the router after a
    crash.
    """

    __slots__ = ("capacity", "flight_capacity", "request_capacity",
                 "_hdr", "_ring", "_flight", "_reqids")

    def __init__(self, slab, base: int, capacity: int,
                 flight_capacity: int, request_capacity: int):
        self.capacity = capacity
        self.flight_capacity = flight_capacity
        self.request_capacity = request_capacity
        off = base
        self._hdr = slab.as_array(HEADER_DTYPE, (1,), offset=off)
        off += HEADER_DTYPE.itemsize
        self._ring = slab.as_array(RECORD_DTYPE, (capacity,), offset=off)
        off += RECORD_DTYPE.itemsize * capacity
        self._flight = slab.as_array(
            RECORD_DTYPE, (flight_capacity,), offset=off
        )
        off += RECORD_DTYPE.itemsize * flight_capacity
        self._reqids = slab.as_array(
            np.int64, (request_capacity,), offset=off
        )

    @staticmethod
    def block_nbytes(capacity: int, flight_capacity: int,
                     request_capacity: int) -> int:
        return (HEADER_DTYPE.itemsize
                + RECORD_DTYPE.itemsize * (capacity + flight_capacity)
                + 8 * request_capacity)

    # ------------------------------------------------------------------
    # writer side (worker process)
    # ------------------------------------------------------------------
    def open_writer(self) -> None:
        """Stamp this block with the current pid (call after fork)."""
        self._hdr[0]["pid"] = os.getpid()

    def push(self, name: str, cat: str, tid: int, start: float,
             dur: float, batch_id: int = -1) -> bool:
        """Append one span record; returns False when the ring is full.

        Never blocks.  The flight ring always takes the record
        (overwrite-oldest); the transport ring drops the newest record
        with an exact count when the reader is ``capacity`` behind.
        """
        h = self._hdr[0]
        name_b = name.encode("utf-8", "replace")[:_NAME_LEN]
        cat_b = cat.encode("utf-8", "replace")[:_CAT_LEN]
        fseq = int(h["flight_seq"])
        frec = self._flight[fseq % self.flight_capacity]
        frec["start"] = start
        frec["dur"] = dur
        frec["tid"] = tid
        frec["batch_id"] = batch_id
        frec["name"] = name_b
        frec["cat"] = cat_b
        h["flight_seq"] = fseq + 1
        w = int(h["write_seq"])
        if w - int(h["read_seq"]) >= self.capacity:
            h["dropped"] = int(h["dropped"]) + 1
            return False
        rec = self._ring[w % self.capacity]
        rec["start"] = start
        rec["dur"] = dur
        rec["tid"] = tid
        rec["batch_id"] = batch_id
        rec["name"] = name_b
        rec["cat"] = cat_b
        # Publish only after the record is complete: the reader never
        # sees a torn entry.
        h["write_seq"] = w + 1
        return True

    def note_request(self, trace_id: int) -> None:
        """Remember a request id in the last-N ring (flight recorder)."""
        h = self._hdr[0]
        seq = int(h["req_seq"])
        self._reqids[seq % self.request_capacity] = trace_id
        h["req_seq"] = seq + 1

    def count_batch(self) -> None:
        h = self._hdr[0]
        h["batches"] = int(h["batches"]) + 1

    # ------------------------------------------------------------------
    # reader side (router process)
    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        return int(self._hdr[0]["pid"])

    @property
    def dropped(self) -> int:
        return int(self._hdr[0]["dropped"])

    def drain(self) -> list[TraceRecord]:
        """Consume every published transport record, in sequence order."""
        h = self._hdr[0]
        r, w = int(h["read_seq"]), int(h["write_seq"])
        out = [
            _decode(self._ring[seq % self.capacity]) for seq in range(r, w)
        ]
        if out:
            h["read_seq"] = w
        return out

    def flight_snapshot(self) -> dict:
        """The black-box contents: recent spans, request ids, counters.

        Reads shared memory without consuming anything, so it works on a
        block whose writer was SIGKILLed mid-flight (at worst the single
        record being written when the process died is garbage -- it is
        decoded defensively, never trusted for control flow).
        """
        h = self._hdr[0]
        fseq = int(h["flight_seq"])
        n = min(fseq, self.flight_capacity)
        spans = [
            _decode(self._flight[seq % self.flight_capacity])
            for seq in range(fseq - n, fseq)
        ]
        rseq = int(h["req_seq"])
        rn = min(rseq, self.request_capacity)
        request_ids = [
            int(self._reqids[seq % self.request_capacity])
            for seq in range(rseq - rn, rseq)
        ]
        return {
            "pid": int(h["pid"]),
            "spans": spans,
            "request_ids": request_ids,
            "batches": int(h["batches"]),
            "dropped": int(h["dropped"]),
        }

    def release(self) -> None:
        """Drop the numpy views so the underlying slab can close."""
        self._hdr = None
        self._ring = None
        self._flight = None
        self._reqids = None


class TraceSlab:
    """One shared-memory slab holding every worker's trace block.

    Created by the router *before* forking (workers inherit the mapping,
    exactly like the heartbeat slab); owner-gated unlink on close.
    """

    def __init__(self, num_workers: int, capacity: int = 4096,
                 flight_capacity: int = 256, request_capacity: int = 64,
                 name: str | None = None):
        from repro.serve.shm import MutableSlab

        block_nb = WorkerTraceBlock.block_nbytes(
            capacity, flight_capacity, request_capacity
        )
        self.slab = MutableSlab(
            name or f"repro-trace-{os.getpid()}",
            size=block_nb * num_workers,
        )
        self.blocks = [
            WorkerTraceBlock(self.slab, i * block_nb, capacity,
                             flight_capacity, request_capacity)
            for i in range(num_workers)
        ]

    @property
    def name(self) -> str:
        return self.slab.name

    def close(self) -> None:
        for block in self.blocks:
            block.release()
        self.blocks = []
        self.slab.close()


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------
class WorkerTraceContext:
    """Connects a forked worker's tracer to its shm trace block.

    Installed as ``tracer.sink``: every finished span is pushed into the
    ring, tagged with the batch currently executing so the router can
    attribute worker time to a specific dispatched batch.
    """

    __slots__ = ("block", "_batch_id")

    def __init__(self, block: WorkerTraceBlock):
        self.block = block
        self._batch_id = -1

    def sink(self, span) -> None:
        self.block.push(span.name, span.cat, span.tid, span.start,
                        span.dur, self._batch_id)

    def begin_batch(self, batch_id: int, trace_ids=None) -> None:
        self._batch_id = batch_id
        if trace_ids:
            for trace_id in trace_ids:
                self.block.note_request(int(trace_id))

    def end_batch(self) -> None:
        self._batch_id = -1
        self.block.count_batch()


def install_worker_tracing(block: WorkerTraceBlock) -> WorkerTraceContext:
    """Wire the (fork-inherited, already enabled) tracer to ``block``.

    Call once at worker startup: resets the tracer -- the child inherited
    the parent's collected spans and must not re-ship them -- stamps the
    block with the worker pid, and installs the shm sink.
    """
    tracer = get_tracer()
    # The fork may have happened while the parent's collector thread held
    # the tracer lock; the child inherits a locked Lock with no thread to
    # release it.  Fresh lock + thread-local state before touching it.
    tracer._lock = threading.Lock()
    tracer._local = threading.local()
    tracer.reset()
    block.open_writer()
    ctx = WorkerTraceContext(block)
    tracer.sink = ctx.sink
    return ctx


# ----------------------------------------------------------------------
# Router side.
# ----------------------------------------------------------------------
class ShardTraceController:
    """Router-side owner of the trace slab: drain, calibrate, salvage.

    Create *before* ``Supervisor.start()`` so the forked workers inherit
    the slab mapping; call :meth:`start` afterwards to run the collector
    thread.  All drained records are injected into the router's process
    tracer via :meth:`~repro.obs.trace.Tracer.record_span` with the
    worker's pid and the clock offset applied, so one ``repro profile``
    -style export already contains the cross-process spans.
    """

    def __init__(self, num_workers: int, trace_dir: str | None = None,
                 capacity: int = 4096, flight_capacity: int = 256,
                 request_capacity: int = 64,
                 drain_interval_s: float = 0.05):
        self.trace_dir = trace_dir
        self.drain_interval_s = drain_interval_s
        self._slab = TraceSlab(num_workers, capacity=capacity,
                               flight_capacity=flight_capacity,
                               request_capacity=request_capacity)
        self.offsets: dict[int, float] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._dumped: set[tuple[int, int]] = set()
        self._dropped_final: int | None = None
        self._closed = False

    # ------------------------------------------------------------------
    def block(self, index: int) -> WorkerTraceBlock:
        return self._slab.blocks[index]

    @property
    def segment(self) -> str:
        return self._slab.name

    def note_sync(self, index: int, t_send: float, t_remote: float,
                  t_recv: float) -> None:
        """Record a spawn-time clock-sync exchange for worker ``index``."""
        self.offsets[index] = estimate_clock_offset(t_send, t_remote, t_recv)

    # ------------------------------------------------------------------
    def drain_once(self) -> int:
        """Drain every block into the router tracer; returns span count."""
        with self._lock:
            if self._closed:
                return 0
            tracer = get_tracer()
            total = 0
            for index, block in enumerate(self._slab.blocks):
                records = block.drain()
                if not records:
                    continue
                off = self.offsets.get(index, 0.0)
                pid = block.pid
                for rec in records:
                    args = (
                        {"batch_id": rec.batch_id}
                        if rec.batch_id >= 0 else None
                    )
                    tracer.record_span(
                        rec.name, rec.start + off, rec.dur, cat=rec.cat,
                        args=args, tid=rec.tid, pid=pid,
                    )
                total += len(records)
            return total

    def _drain_loop(self) -> None:
        while not self._stop.wait(self.drain_interval_s):
            self.drain_once()

    def start(self) -> "ShardTraceController":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._drain_loop, name="repro-trace-collector",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the collector thread and drain whatever is left."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.drain_once()

    @property
    def dropped_total(self) -> int:
        """Spans dropped by full transport rings, across all workers."""
        if self._dropped_final is not None:
            return self._dropped_final
        with self._lock:
            if self._closed:
                return 0
            return sum(block.dropped for block in self._slab.blocks)

    def close(self) -> None:
        """Release the shm views and unlink the slab (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._dropped_final = sum(
                block.dropped for block in self._slab.blocks
            )
            self._closed = True
            self._slab.close()

    # ------------------------------------------------------------------
    def dump_black_box(self, index: int, pid: int | None = None,
                       reason: str = "worker_death") -> str | None:
        """Salvage worker ``index``'s flight ring into a JSON dump.

        Returns the file path, or ``None`` when no ``trace_dir`` is
        configured, the controller is closed, or this (index, pid)
        generation was already dumped (death detection can fire twice:
        pipe EOF and process sentinel).
        """
        with self._lock:
            if self.trace_dir is None or self._closed:
                return None
            block = self._slab.blocks[index]
            snapshot = block.flight_snapshot()
            if pid is None:
                pid = snapshot["pid"]
            key = (index, pid)
            if key in self._dumped:
                return None
            self._dumped.add(key)
            offset = self.offsets.get(index, 0.0)
        tracer = get_tracer()
        doc = {
            "flight_recorder": True,
            "worker": index,
            "pid": pid,
            "reason": reason,
            "dumped_at": time.time(),
            "clock_offset_s": offset,
            "tracer_origin": tracer.origin,
            "dropped_spans": snapshot["dropped"],
            "batches": snapshot["batches"],
            "recent_request_ids": snapshot["request_ids"],
            "spans": [
                {
                    "name": rec.name,
                    "cat": rec.cat,
                    "tid": rec.tid,
                    # Router-clock absolute seconds (offset applied), so
                    # the dump merges onto the main trace byte-for-byte
                    # like a drained span would have.
                    "start_s": rec.start + offset,
                    "dur_s": rec.dur,
                    "batch_id": rec.batch_id,
                }
                for rec in snapshot["spans"]
            ],
        }
        os.makedirs(self.trace_dir, exist_ok=True)
        path = os.path.join(
            self.trace_dir, f"blackbox-worker{index}-pid{pid}.json"
        )
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
        return path


# ----------------------------------------------------------------------
# Offline merge + report (the `repro trace` CLI).
# ----------------------------------------------------------------------
def _blackbox_to_chrome(doc: dict) -> dict:
    """Convert a flight-recorder dump into a Chrome-trace document."""
    origin = float(doc.get("tracer_origin", 0.0))
    events = []
    for span in doc.get("spans", []):
        event = {
            "name": span["name"],
            "cat": span.get("cat", "span"),
            "ph": "X",
            "ts": (span["start_s"] - origin) * 1e6,
            "dur": span["dur_s"] * 1e6,
            "pid": doc.get("pid", 0),
            "tid": span.get("tid", 0),
        }
        if span.get("batch_id", -1) >= 0:
            event["args"] = {"batch_id": span["batch_id"]}
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "origin": origin,
            "flight_recorder": True,
            "worker": doc.get("worker"),
            "pid": doc.get("pid"),
            "reason": doc.get("reason"),
            "dropped_spans": doc.get("dropped_spans", 0),
            "recent_request_ids": doc.get("recent_request_ids", []),
        },
    }


def load_trace_file(path: str) -> dict:
    """Load one trace input: a Chrome trace or a flight-recorder dump.

    Both come back as Chrome-trace documents (black boxes are converted),
    ready for :func:`merge_chrome_traces`.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("flight_recorder"):
        return _blackbox_to_chrome(doc)
    if "traceEvents" in doc:
        return doc
    raise ValueError(
        f"{path}: neither a Chrome trace (traceEvents) nor a "
        "flight-recorder dump (flight_recorder)"
    )


def merge_chrome_traces(docs: list[dict]) -> dict:
    """Merge Chrome-trace documents onto one timeline.

    Every document's ``otherData.origin`` (absolute ``perf_counter``
    seconds of its ts=0) rebases its events against the earliest origin,
    so traces exported by different runs/processes line up.  Counters are
    merged additively where they collide; flow arrows are added via
    :func:`add_flow_events`; events come back sorted by timestamp.
    """
    if not docs:
        return {"traceEvents": [], "displayTimeUnit": "ms", "otherData": {}}
    origins = [float(d.get("otherData", {}).get("origin", 0.0)) for d in docs]
    base = min(origins)
    events: list[dict] = []
    dropped = 0
    counters: dict[str, float] = {}
    for doc, origin in zip(docs, origins):
        shift_us = (origin - base) * 1e6
        for event in doc.get("traceEvents", []):
            event = dict(event)
            event["ts"] = event.get("ts", 0.0) + shift_us
            events.append(event)
        other = doc.get("otherData", {})
        dropped += int(other.get("dropped_spans", 0))
        for name, value in other.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    events.sort(key=lambda e: e.get("ts", 0.0))
    merged = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "origin": base,
            "dropped_spans": dropped,
            "merged_from": len(docs),
        },
    }
    if counters:
        merged["otherData"]["counters"] = counters
    add_flow_events(merged)
    return merged


def add_flow_events(doc: dict) -> int:
    """Add Chrome flow arrows linking router batches to worker execution.

    For every ``batch_id`` that appears both in a router-side
    ``serve.request`` span and a worker-side ``worker.batch`` span in a
    *different* pid, emit an ``s``/``f`` flow pair so the UI draws the
    cross-process arrow.  Returns the number of arrows added.
    """
    requests: dict[int, dict] = {}
    batches: dict[int, dict] = {}
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        batch_id = (event.get("args") or {}).get("batch_id")
        if batch_id is None:
            continue
        if event.get("name") == "serve.request":
            prev = requests.get(batch_id)
            if prev is None or event["ts"] < prev["ts"]:
                requests[batch_id] = event
        elif event.get("name") == "worker.batch":
            batches[batch_id] = event
    arrows = []
    for batch_id, req in requests.items():
        batch = batches.get(batch_id)
        if batch is None or batch.get("pid") == req.get("pid"):
            continue
        common = {"cat": "flow", "name": "batch", "id": int(batch_id)}
        arrows.append({
            **common, "ph": "s", "pid": req.get("pid", 0),
            "tid": req.get("tid", 0), "ts": req["ts"],
        })
        arrows.append({
            **common, "ph": "f", "bp": "e", "pid": batch.get("pid", 0),
            "tid": batch.get("tid", 0), "ts": batch["ts"],
        })
    if arrows:
        doc["traceEvents"].extend(arrows)
        doc["traceEvents"].sort(key=lambda e: e.get("ts", 0.0))
    return len(arrows) // 2


#: Per-request stages reported by :func:`latency_report`.  queue + assembly
#: + (kernel + requant) + reply partition the measured request latency by
#: construction, so the stage table always accounts for ~100% of it.
_STAGES = ("queue_wait", "batch_assembly", "kernel", "requant", "reply")


def stage_breakdown(doc: dict) -> dict:
    """Extract per-request stage samples (milliseconds) from a trace.

    Router-side ``serve.request`` spans carry the stage split in their
    args (queue/assembly/exec/transit, see
    :meth:`repro.serve.shard.ShardServer._handle_message`); worker-side
    ``serve.requant`` spans split the in-worker requant time out of the
    kernel stage per batch.
    """
    requant_by_batch: dict[int, float] = {}
    requests: list[dict] = []
    pids: set[int] = set()
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        if "pid" in event:
            pids.add(event["pid"])
        args = event.get("args") or {}
        name = event.get("name")
        if name == "serve.requant":
            batch_id = args.get("batch_id")
            if batch_id is not None:
                requant_by_batch[batch_id] = (
                    requant_by_batch.get(batch_id, 0.0)
                    + event.get("dur", 0.0) / 1000.0  # us -> ms
                )
        elif name == "serve.request" and "total_ms" in args:
            requests.append(args)
    samples: dict[str, list[float]] = {name: [] for name in _STAGES}
    samples["total"] = []
    batch_ids = set()
    for args in requests:
        requant_ms = requant_by_batch.get(args.get("batch_id"), 0.0)
        exec_ms = float(args.get("exec_ms", 0.0))
        requant_ms = min(requant_ms, exec_ms)
        samples["queue_wait"].append(float(args.get("queue_ms", 0.0)))
        samples["batch_assembly"].append(float(args.get("assembly_ms", 0.0)))
        samples["kernel"].append(exec_ms - requant_ms)
        samples["requant"].append(requant_ms)
        samples["reply"].append(float(args.get("transit_ms", 0.0)))
        samples["total"].append(float(args.get("total_ms", 0.0)))
        if args.get("batch_id") is not None:
            batch_ids.add(args["batch_id"])
    return {
        "samples": samples,
        "n_requests": len(requests),
        "n_batches": len(batch_ids),
        "pids": sorted(pids),
        "dropped_spans": int(
            doc.get("otherData", {}).get("dropped_spans", 0)
        ),
    }


def _percentile_cells(vals: np.ndarray) -> str:
    """The p50/p95/p99 columns of one latency-report row (one sort)."""
    return "".join(
        f"{float(p):>10.3f}" for p in np.percentile(vals, (50, 95, 99))
    )


def latency_report(doc: dict) -> str:
    """Text table breaking request latency into pipeline stages."""
    info = stage_breakdown(doc)
    samples = info["samples"]
    lines = [
        f"== request latency stages "
        f"(n={info['n_requests']} requests, {info['n_batches']} batches, "
        f"{len(info['pids'])} pids, "
        f"{info['dropped_spans']} dropped spans) ==",
    ]
    if not info["n_requests"]:
        lines.append("no serve.request spans found "
                     "(was the shard traced? see `repro serve --trace`)")
        return "\n".join(lines)
    totals = np.asarray(samples["total"], dtype=np.float64)
    mean_total = float(totals.mean())
    header = (f"{'stage':<16}{'p50 ms':>10}{'p95 ms':>10}{'p99 ms':>10}"
              f"{'mean ms':>10}{'share':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    attributed = 0.0
    for name in _STAGES:
        vals = np.asarray(samples[name], dtype=np.float64)
        mean = float(vals.mean())
        attributed += mean
        share = 100.0 * mean / mean_total if mean_total > 0 else 0.0
        lines.append(
            f"{name:<16}{_percentile_cells(vals)}"
            f"{mean:>10.3f}{share:>7.1f}%"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<16}{_percentile_cells(totals)}"
        f"{mean_total:>10.3f}{100.0:>7.1f}%"
    )
    coverage = 100.0 * attributed / mean_total if mean_total > 0 else 0.0
    lines.append(f"stage coverage: {coverage:.1f}% of mean request latency")
    return "\n".join(lines)
