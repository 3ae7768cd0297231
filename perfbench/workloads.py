"""The repo benchmark's three workloads; one process runs one of them.

``run.py`` starts this file in a fresh process with a pinned environment
(one BLAS/OpenMP/kernel thread, no ambient tracing, a checkout-local
kernel cache).  The process builds its inputs from ``--seed``, sets up,
measures for ``--seconds``, checks every output outside the timed
region, and prints readable lines, one ``fingerprint`` line and, last,
the result as one JSON object.  ``README.md`` beside this file says why
each workload was chosen and what each metric means.

* ``retrain``: ``Trainer.fit`` on an eighth-width ResNet-18, 16x16
  synthetic images, batch 32, ``mul8u_2NDH`` difference gradients,
  frozen quantization, Adam.  Closed loop, one caller.
* ``serve_batch``: ``InferencePlan.run`` on batches of 64 through the
  fused integer plan of LeNet at 32x32 with ``mul8u_1DMU``.  Closed
  loop, one caller.
* ``serve_open``: single-sample ``POST /predict`` requests at a fixed
  rate against a ``repro serve --arithmetic int`` subprocess.  Open
  loop, one generator thread, at most two connections.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from layers import Spans  # noqa: E402
from repro.autograd.tensor import Tensor  # noqa: E402
from repro.core import execcore  # noqa: E402
from repro.core.lutgemm import (  # noqa: E402
    clear_engine_cache,
    iter_cached_engines,
)
from repro.data import DataLoader, SyntheticImageDataset  # noqa: E402
from repro.models import LeNet, resnet18  # noqa: E402
from repro.multipliers import get_multiplier  # noqa: E402
from repro.retrain.checkpoint import (  # noqa: E402
    load_checkpoint,
    save_checkpoint,
)
from repro.retrain.convert import (  # noqa: E402
    approximate_model,
    calibrate,
    freeze,
)
from repro.retrain.experiment import ExperimentScale, build_model  # noqa: E402
from repro.retrain.trainer import TrainConfig, Trainer  # noqa: E402
from repro.serve import compile_plan  # noqa: E402

#: Every metric this benchmark emits, with its unit.  ``BENCHMARK.json``
#: lists the same names; ``test_smoke.py`` keeps the two in step.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
    "latency_p50_ms": "ms",
}
#: The tail is reported but carries no bound: on a host whose CPUs are
#: stolen by other tenants it follows the steal, not the program (see
#: README.md).  Traced runs take it from their untraced part.
TAIL = "e2e.latency_p99_ms"
PER_LAYER = {
    TAIL: "ms",
    # retrain, per step
    "core.product_sums.self_ms": "ms",
    "core.product_sums.calls": "count",
    "core.product_sums.gathers_per_s": "1/s",
    "core.backward_grads.self_ms": "ms",
    "core.backward_grads.calls": "count",
    "core.backward_grads.gathers_per_s": "1/s",
    "nn.forward.self_ms": "ms",
    "autograd.backward.self_ms": "ms",
    "optim.step_ms": "ms",
    "data.batch_ms": "ms",
    "retrain.unattributed_ms": "ms",
    # serve_batch, per batch
    "plan.fused_int_ms": "ms",
    "plan.pool_ms": "ms",
    "plan.lutgemm_int_ms": "ms",
    "plan.quant_ms": "ms",
    "plan.other_ms": "ms",
    "plan.unattributed_ms": "ms",
    "core.serve_fused.self_ms": "ms",
    "core.serve_fused.calls": "count",
    "core.serve_fused.gathers_per_s": "1/s",
    "core.serve_fused.bytes_per_call": "B",
    # serve_open, from GET /metrics and the client
    "server.request_p50_ms": "ms",
    "http.overhead_p50_ms": "ms",
    "scheduler.queue_wait_p50_ms": "ms",
    "scheduler.batch_size_mean": "count",
    "pool.batch_exec_p50_ms": "ms",
    "server.rejected": "count",
    "client.late_p99_ms": "ms",
    # every workload
    "trace.overhead_ms": "ms",
}

SETUP_REPEATS = 5

RETRAIN_MULTIPLIER = "mul8u_2NDH"
RETRAIN_BATCH = 32
#: One ``fit`` call is one epoch of this many steps; the timed loop
#: calls ``fit`` until the time is up.
RETRAIN_STEPS_PER_FIT = 4
RETRAIN_CHECK_STEPS = 2

SERVE_MULTIPLIER = "mul8u_1DMU"
SERVE_BATCH = 64
SERVE_BATCHES = 8
#: Traced runs alternate untraced and traced segments of this many
#: batches (``retrain``: of one ``fit``), so both see the same drift.
SERVE_TRACE_SEGMENT = 8

#: Offered rate, well below the server's capacity: above it an open
#: loop measures backlog drain, not the server.
OPEN_RATE = 100.0
OPEN_CONNECTIONS = 2
OPEN_SAMPLES = 256
OPEN_WARMUP = 100
OPEN_TIMEOUT_S = 10.0
OPEN_IMAGE = 16
SERVER_START_TIMEOUT_S = 60.0


class Tally:
    """Operations attempted and failed, and why the run is not data."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.invalid = False

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def invalidate(self, why: str) -> None:
        """Count every operation as failed (e.g. the C kernels did not
        run, so the timings describe another program)."""
        self.invalid = True
        self.problems.append(why)

    def result(self) -> dict:
        attempted = max(self.attempted, 1)
        return {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": attempted if self.invalid else self.failed,
        }


def _median_setup(setup):
    """Run ``setup`` SETUP_REPEATS times; (median seconds, last result)."""
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _reset_program_caches() -> None:
    """Forget every LUT, engine and kernel verdict, so set-up is cold."""
    get_multiplier.cache_clear()
    clear_engine_cache()
    execcore.reset_backend_state()


class _NumpyBackend:
    """Pin the program's numpy backend (``REPRO_NO_CCKERNEL=1``) inside."""

    def __enter__(self):
        self._prior = os.environ.get("REPRO_NO_CCKERNEL")
        os.environ["REPRO_NO_CCKERNEL"] = "1"
        execcore.reset_backend_state()

    def __exit__(self, *exc):
        if self._prior is None:
            os.environ.pop("REPRO_NO_CCKERNEL", None)
        else:
            os.environ["REPRO_NO_CCKERNEL"] = self._prior
        execcore.reset_backend_state()


def _c_kernel_calls() -> tuple[int, int]:
    """C forward and backward calls summed over the cached engines."""
    engines = [eng for _, eng in iter_cached_engines()]
    return (sum(e.ckernel_forward_calls for e in engines),
            sum(e.ckernel_backward_calls for e in engines))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _gathers(engine, wq, xq, *args, **kwargs) -> int:
    """LUT gathers of one ``product_sums``/``backward_grads`` call."""
    return wq.shape[0] * wq.shape[1] * xq.shape[1]


def _latency_metrics(seconds: list[float], samples_per_op: int) -> dict:
    ms = np.asarray(seconds) * 1e3
    return {
        "samples_per_s": samples_per_op / statistics.median(seconds),
        "latency_p50_ms": float(np.percentile(ms, 50)),
        "latency_p99_ms": float(np.percentile(ms, 99)),
    }


def _trace_overhead_ms(traced: list[float], untraced: list[float]) -> float:
    return (statistics.median(traced) - statistics.median(untraced)) * 1e3


def _core_layers(spans: Spans, name: str, n: int) -> dict:
    """Per-step (or per-batch) self time and calls, and gathers/s."""
    self_s = spans.self_s(name)
    return {
        f"{name}.self_ms": self_s * 1e3 / n,
        f"{name}.calls": spans.calls[name] / n,
        f"{name}.gathers_per_s": spans.work[name] / self_s if self_s else 0.0,
    }


# ----------------------------------------------------------------------
# retrain
def run_retrain(args, tally: Tally) -> tuple[dict, dict]:
    train = SyntheticImageDataset(
        RETRAIN_BATCH * RETRAIN_STEPS_PER_FIT, 10, 16, seed=args.seed,
        split="train",
    )

    def setup() -> Trainer:
        _reset_program_caches()
        approx = approximate_model(
            resnet18(num_classes=10, width_mult=0.125, seed=args.seed),
            get_multiplier(RETRAIN_MULTIPLIER),
            gradient_method="difference", hws=2,
        )
        calibrate(approx, DataLoader(train, batch_size=RETRAIN_BATCH),
                  batches=2)
        freeze(approx)
        trainer = Trainer(approx, TrainConfig(
            epochs=1, batch_size=RETRAIN_BATCH, seed=args.seed,
        ))
        execcore.backend_info()  # kernel load and self-checks
        return trainer

    setup_s, trainer = _median_setup(setup)

    stamps: list[float] = []
    step = trainer.optimizer.step

    def stamped_step():
        step()
        stamps.append(time.perf_counter())

    trainer.optimizer.step = stamped_step

    def one_fit(spans: Spans | None) -> tuple[list[float], float]:
        """Step times of one ``fit`` call, and its mean loss."""
        if spans is not None:
            spans.wrap(execcore, "product_sums", "core.product_sums",
                       work=_gathers)
            spans.wrap(execcore, "backward_grads", "core.backward_grads",
                       work=_gathers)
            spans.wrap(trainer.model, "forward", "nn.forward")
            spans.wrap(Tensor, "backward", "autograd.backward")
            spans.wrap(trainer.optimizer, "step", "optim.step")
            spans.wrap_iter(DataLoader, "__iter__", "data.batch")
        n0 = len(stamps)
        t0 = time.perf_counter()
        try:
            history = trainer.fit(train)
        finally:
            if spans is not None:
                spans.restore()
        return list(np.diff([t0] + stamps[n0:])), history.train_loss[0]

    one_fit(None)  # warm-up: first-touch allocations, not timed
    spans = Spans() if args.trace else None
    untraced: list[float] = []
    traced: list[float] = []
    fit_s: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        use_spans = spans if len(fit_s) % 2 else None
        try:
            steps, loss = one_fit(use_spans)
        except Exception as exc:  # a step that raised is a failed operation
            tally.check(False, f"fit raised {exc!r}")
            break
        (traced if use_spans is not None else untraced).extend(steps)
        for _ in steps:
            tally.check(bool(np.isfinite(loss)), f"non-finite loss {loss}")
        fit_s.append(sum(steps))
        if len(fit_s) >= 2 and (
            time.perf_counter() + statistics.median(fit_s) > deadline
        ):
            break
    rss = _peak_rss_mb()

    backend = execcore.backend_info()
    if not (backend["forward_backend"] == backend["backward_backend"] == "c"
            and min(_c_kernel_calls()) > 0):
        tally.invalidate(f"C kernels did not run: {backend}")
    _check_first_steps(setup, train, args.corrupt_reference, tally)

    e2e = {"setup_s": setup_s, "peak_rss_mb": rss}
    e2e.update(_latency_metrics(untraced, RETRAIN_BATCH))
    layers = {}
    if spans is not None and traced:
        n = len(traced)
        step_s = sum(traced)
        layers.update(_core_layers(spans, "core.product_sums", n))
        layers.update(_core_layers(spans, "core.backward_grads", n))
        for metric, seconds in (
            ("nn.forward.self_ms", spans.self_s("nn.forward")),
            ("autograd.backward.self_ms", spans.self_s("autograd.backward")),
            ("optim.step_ms", spans.total["optim.step"]),
            ("data.batch_ms", spans.total["data.batch"]),
            ("retrain.unattributed_ms", step_s - spans.top_level_s()),
        ):
            layers[metric] = seconds * 1e3 / n
        layers["trace.overhead_ms"] = _trace_overhead_ms(traced, untraced)
        print(f"traced steps: {n}, per-layer self times cover "
              f"{spans.top_level_s() / step_s:.1%} of step time")
    return e2e, layers


def _check_first_steps(setup, train, corrupt: bool, tally: Tally) -> None:
    """The first steps' losses and gradients: C kernels vs numpy backend."""

    def first_steps():
        trainer = setup()
        trainer.config.max_batches_per_epoch = 1
        params = trainer.model.parameters()
        grads = []
        step = trainer.optimizer.step

        def capture():
            grads.append([p.grad.copy() for p in params])
            step()

        trainer.optimizer.step = capture
        losses = [trainer.fit(train).train_loss[0]
                  for _ in range(RETRAIN_CHECK_STEPS)]
        return losses, grads, execcore.backend_info()["backward_backend"]

    with _NumpyBackend():
        ref_losses, ref_grads, ref_backend = first_steps()
    losses, grads, backend = first_steps()
    if corrupt:
        ref_losses[0] += 1.0
    if (ref_backend, backend) != ("numpy", "c"):
        tally.invalidate(f"check backends were {ref_backend} vs {backend}")
    for i in range(RETRAIN_CHECK_STEPS):
        same = ref_losses[i] == losses[i] and all(
            np.array_equal(a, b) for a, b in zip(ref_grads[i], grads[i])
        )
        tally.check(same and np.isfinite(losses[i]),
                    f"step {i}: loss or gradients differ from numpy")


# ----------------------------------------------------------------------
# serve_batch
def run_serve_batch(args, tally: Tally) -> tuple[dict, dict]:
    data = SyntheticImageDataset(
        SERVE_BATCH * SERVE_BATCHES, 10, 32, seed=args.seed, split="test"
    )
    images = np.asarray(data.images, dtype=np.float64)
    batches = [images[i * SERVE_BATCH:(i + 1) * SERVE_BATCH]
               for i in range(SERVE_BATCHES)]

    def setup():
        _reset_program_caches()
        approx = approximate_model(
            LeNet(num_classes=10, image_size=32, seed=args.seed),
            get_multiplier(SERVE_MULTIPLIER),
            gradient_method="none", include_linear=True,
        )
        calibrate(approx, DataLoader(data, batch_size=SERVE_BATCH),
                  batches=2)
        freeze(approx)
        approx.eval()
        plan = compile_plan(approx, arithmetic="int")
        execcore.backend_info()  # kernel load and self-checks
        return approx, plan

    setup_s, (model, plan) = _median_setup(setup)

    fused_bytes = [0]

    def fused_work(engine, wq, wrow, xq, *args, **kwargs) -> int:
        """Gathers of one fused call; also sums the bytes it moves,
        computed from shapes (not measured): gather rows and activations
        in, one int32 LUT read per gather, the uint8 result out."""
        m, k = wq.shape
        c = xq.shape[1]
        fused_bytes[0] += wrow.nbytes + xq.nbytes + 4 * m * k * c + m * c
        return m * k * c

    for xb in batches:  # warm-up, not timed
        plan.run(xb)
    spans = Spans() if args.trace else None
    untraced: list[float] = []
    traced: list[float] = []
    outputs: list[tuple[int, np.ndarray]] = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline or i < 2 * SERVE_TRACE_SEGMENT:
        tracing = spans is not None and (i // SERVE_TRACE_SEGMENT) % 2 == 1
        if tracing and i % SERVE_TRACE_SEGMENT == 0:
            for op in plan.ops:
                spans.wrap(op, "fn", f"plan.{op.kind}")
            spans.wrap(execcore, "serve_fused", "core.serve_fused",
                       work=fused_work)
            spans.wrap(execcore, "product_sums", "core.product_sums",
                       work=_gathers)
        b = i % SERVE_BATCHES
        t0 = time.perf_counter()
        y = plan.run(batches[b])
        (traced if tracing else untraced).append(time.perf_counter() - t0)
        outputs.append((b, y))
        i += 1
        if tracing and i % SERVE_TRACE_SEGMENT == 0:
            spans.restore()
    if spans is not None:
        spans.restore()
    rss = _peak_rss_mb()

    backend = execcore.backend_info()
    if backend["serve_backend"] != "c" or _c_kernel_calls()[0] == 0:
        tally.invalidate(f"C kernels did not run: {backend}")
    with _NumpyBackend():
        ref_plan = compile_plan(model, arithmetic="int")
        refs = [ref_plan.run(xb) for xb in batches]
        if execcore.backend_info()["serve_backend"] != "numpy":
            tally.invalidate("reference plan did not run on numpy")
    if args.corrupt_reference:
        refs[0][0, 0] += 1.0
    for b, y in outputs:
        tally.check(np.array_equal(y, refs[b]),
                    f"batch {b}: output differs from reference plan")

    e2e = {"setup_s": setup_s, "peak_rss_mb": rss}
    e2e.update(_latency_metrics(untraced, SERVE_BATCH))
    layers = {}
    if spans is not None and traced:
        n = len(traced)
        named = ("fused_int", "pool", "lutgemm_int", "quant")
        for kind in named:
            layers[f"plan.{kind}_ms"] = spans.self_s(f"plan.{kind}") * 1e3 / n
        layers["plan.other_ms"] = sum(
            spans.self_s(name) for name in list(spans.total)
            if name.startswith("plan.") and name[len("plan."):] not in named
        ) * 1e3 / n
        layers["plan.unattributed_ms"] = (
            (sum(traced) - spans.top_level_s()) * 1e3 / n
        )
        layers.update(_core_layers(spans, "core.serve_fused", n))
        layers.update(_core_layers(spans, "core.product_sums", n))
        calls = spans.calls["core.serve_fused"]
        layers["core.serve_fused.bytes_per_call"] = (
            fused_bytes[0] / calls if calls else 0.0
        )
        layers["trace.overhead_ms"] = _trace_overhead_ms(traced, untraced)
        print(f"traced batches: {n}, per-layer self times cover "
              f"{spans.top_level_s() / sum(traced):.1%} of batch time")
    return e2e, layers


# ----------------------------------------------------------------------
# serve_open
def run_serve_open(args, tally: Tally) -> tuple[dict, dict]:
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    ckpt = work / "lenet16.npz"
    scale = ExperimentScale(image_size=OPEN_IMAGE, n_classes=10,
                            seed=args.seed)

    def fresh_model():
        return approximate_model(
            build_model("lenet", scale), get_multiplier(SERVE_MULTIPLIER),
            gradient_method="none", include_linear=True,
        )

    calib = SyntheticImageDataset(64, 10, OPEN_IMAGE, seed=args.seed,
                                  split="train")
    model = fresh_model()
    calibrate(model, DataLoader(calib, batch_size=32), batches=2)
    freeze(model)
    save_checkpoint(model, ckpt)

    samples = np.asarray(
        SyntheticImageDataset(OPEN_SAMPLES, 10, OPEN_IMAGE, seed=args.seed,
                              split="test").images,
        dtype=np.float64,
    )
    payloads = [_http_request(json.dumps({"inputs": x.tolist()}).encode())
                for x in samples]

    cmd = [
        sys.executable, "-m", "repro.cli", "serve", "--checkpoint", str(ckpt),
        "--multiplier", SERVE_MULTIPLIER, "--arch", "lenet",
        "--image-size", str(OPEN_IMAGE), "--n-classes", "10",
        "--include-linear", "--arithmetic", "int", "--port", "0",
    ]
    launches = []
    server = None
    try:
        for r in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = _Server(cmd, work / f"server{r}.log")
            launches.append(server.ready_s)
        setup_s = statistics.median(launches)

        warm_recs = _open_loop(server, payloads, _order(0, OPEN_WARMUP))
        n = max(int(args.seconds * OPEN_RATE), 2)
        traced_recs: list[_Record] = []
        start = OPEN_WARMUP
        if args.trace:
            # The traced half runs first, so the server's latency
            # reservoirs read at its end hold no untraced requests.
            before = server.metrics()
            traced_recs = _open_loop(server, payloads, _order(start, n // 2))
            traced_metrics = server.metrics()
            start += n // 2
            n -= n // 2
        recs = _open_loop(server, payloads, _order(start, n))
        plan_info = server.metrics()["plan"]
        rss = server.tree_peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    if (plan_info.get("serve_backend"), plan_info.get("gemm_backend")) != (
        "c", "c"
    ):
        tally.invalidate(f"server C kernels did not run: {plan_info}")

    served = fresh_model()
    load_checkpoint(served, ckpt)
    served.eval()
    with _NumpyBackend():
        ref = compile_plan(served, arithmetic="int").run(samples)
    if args.corrupt_reference:
        ref[0, 0] += 1.0

    def verify(records: list[_Record]) -> list[float]:
        """Latencies (s, from due time) of the correct responses."""
        latencies = []
        for rec in records:
            good = rec.ok and np.array_equal(rec.output, ref[rec.sample])
            tally.check(good, f"request for sample {rec.sample}: "
                              f"{rec.error or 'output differs'}")
            if good:
                latencies.append(rec.done - rec.due)
        return latencies

    verify(warm_recs)
    lat = verify(recs)
    traced_lat = verify(traced_recs)
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "samples_per_s": len(lat) / (max(r.done for r in recs) - recs[0].due),
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(lat, 99)) * 1e3,
    }
    print(f"client late p99 {_late_p99_ms(recs):.3f} ms over {len(recs)} "
          "requests")
    layers = {}
    if args.trace:
        latency = traced_metrics["latency"]
        request_p50 = latency["request_ms"]["p50_ms"]
        sizes = {
            int(k): v - before["batch_size_histogram"].get(k, 0)
            for k, v in traced_metrics["batch_size_histogram"].items()
        }
        layers = {
            "server.request_p50_ms": request_p50,
            "http.overhead_p50_ms":
                statistics.median(traced_lat) * 1e3 - request_p50,
            "scheduler.queue_wait_p50_ms": latency["queue_wait_ms"]["p50_ms"],
            "scheduler.batch_size_mean":
                sum(k * v for k, v in sizes.items()) / sum(sizes.values()),
            "pool.batch_exec_p50_ms": latency["batch_exec_ms"]["p50_ms"],
            "server.rejected":
                traced_metrics["counters"].get("rejected_total", 0)
                - before["counters"].get("rejected_total", 0),
            "client.late_p99_ms": _late_p99_ms(traced_recs),
            "trace.overhead_ms": _trace_overhead_ms(traced_lat, lat),
        }
    return e2e, layers


def _late_p99_ms(records: list[_Record]) -> float:
    """How late the generator ran: p99 of wake-up time minus due time."""
    return float(np.percentile([r.woke - r.due for r in records], 99)) * 1e3


def _order(start: int, n: int) -> list[int]:
    return [(start + i) % OPEN_SAMPLES for i in range(n)]


def _http_request(body: bytes) -> bytes:
    head = (
        "POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode() + body


class _Record:
    """One open-loop request: due, woke and done times, and its answer."""

    __slots__ = ("sample", "due", "woke", "done", "ok", "output", "error")

    def __init__(self, sample, due, woke, done, raw, error):
        self.sample, self.due, self.woke, self.done = sample, due, woke, done
        self.ok = False
        self.output = None
        self.error = error
        if raw is None:
            return
        head, _, body = raw.partition(b"\r\n\r\n")
        status = head.split(b" ", 2)[1:2]
        if status != [b"200"]:
            self.error = f"HTTP {status[0].decode() if status else '?'}"
            return
        self.output = np.asarray(json.loads(body)["outputs"][0])
        self.ok = True


def _open_loop(server, payloads, order) -> list[_Record]:
    """Send ``payloads[order[i]]`` when due at OPEN_RATE; one thread."""

    async def exchange(payload):
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        try:
            writer.write(payload)
            return await reader.read()  # the server closes after replying
        finally:
            writer.close()

    async def main():
        slots = asyncio.Semaphore(OPEN_CONNECTIONS)
        recs: list[_Record | None] = [None] * len(order)

        async def one(i, due):
            woke = time.perf_counter()
            raw = error = None
            async with slots:
                try:
                    raw = await asyncio.wait_for(
                        exchange(payloads[order[i]]), OPEN_TIMEOUT_S
                    )
                except (OSError, asyncio.TimeoutError) as exc:
                    error = repr(exc)
            recs[i] = _Record(order[i], due, woke, time.perf_counter(), raw,
                              error)

        tasks = []
        start = time.perf_counter() + 0.01
        for i in range(len(order)):
            due = start + i / OPEN_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(i, due)))
        await asyncio.gather(*tasks)
        return recs

    # A collection of this process's large heap would stall the generator.
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(main())
    finally:
        gc.enable()


class _Server:
    """A ``repro serve`` subprocess, ready once ``/healthz`` answers."""

    def __init__(self, cmd: list[str], log_path: Path):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        t0 = time.perf_counter()
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=log,
                                         stderr=subprocess.STDOUT, env=env)
        try:
            self.host, self.port = self._wait_for_port(log_path)
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def _wait_for_port(self, log_path: Path) -> tuple[str, int]:
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            match = re.search(r"on http://([\d.]+):(\d+)",
                              log_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited: {log_path.read_text()[-2000:]}"
                )
            time.sleep(0.002)
        raise TimeoutError("server printed no address")

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                with urllib.request.urlopen(self._url("/healthz"),
                                            timeout=1.0) as resp:
                    if resp.status == 200:
                        return
            except OSError:
                pass
            time.sleep(0.002)
        raise TimeoutError("server never became healthy")

    def _url(self, path: str) -> str:
        return f"http://{self.host}:{self.port}{path}"

    def metrics(self) -> dict:
        with urllib.request.urlopen(self._url("/metrics"), timeout=5) as r:
            return json.loads(r.read())

    def tree_peak_rss_mb(self) -> float:
        """Sum of peak resident sets over the server and its children."""
        total_kb = 0
        todo = [self.proc.pid]
        while todo:
            pid = todo.pop()
            try:
                status = Path(f"/proc/{pid}/status").read_text()
                for task in Path(f"/proc/{pid}/task").iterdir():
                    todo.extend(
                        int(c) for c in (task / "children").read_text().split()
                    )
            except OSError:
                continue
            total_kb += int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ----------------------------------------------------------------------
def _cpu_jiffies() -> tuple[int, int]:
    """(stolen, total) CPU jiffies since boot, from ``/proc/stat``."""
    try:
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
        fields = [int(v) for v in line.split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def host_fingerprint() -> dict:
    """Host, toolchain and the execution backend this run used."""
    cpu = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key in ("model name", "flags") and key not in cpu:
                cpu[key] = value.strip()
    except OSError:
        pass
    cc = shutil.which("cc") or shutil.which("gcc")
    compiler = None
    if cc:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=30)
        compiler = out.stdout.splitlines()[0] if out.stdout else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "cpu_flags": cpu.get("flags"),
        "compiler": compiler,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "backend": execcore.backend_info(),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "REPRO_LUTKERNEL_THREADS", "REPRO_NO_CCKERNEL", "REPRO_TRACE",
            "REPRO_TELEMETRY", "REPRO_LUTGEMM_WORKERS",
        )},
    }


RUNNERS = {
    "retrain": run_retrain,
    "serve_batch": run_serve_batch,
    "serve_open": run_serve_open,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=RUNNERS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb one reference output (smoke test of "
                             "the correctness check)")
    args = parser.parse_args(argv)

    tally = Tally()
    steal0, total0 = _cpu_jiffies()
    e2e, layers = RUNNERS[args.workload](args, tally)
    steal1, total1 = _cpu_jiffies()
    if total1 > total0:
        print(f"host steal share during the run: "
              f"{(steal1 - steal0) / (total1 - total0):.1%}")
    print("fingerprint " + json.dumps(host_fingerprint()))
    layers[TAIL] = e2e["latency_p99_ms"]
    if args.trace:
        units = PER_LAYER
        values = {name: layers.get(name, 0.0) for name in PER_LAYER}
    else:
        units = END_TO_END
        values = e2e
        print(f"{args.workload} latency_p99_ms (no bound) = "
              f"{e2e['latency_p99_ms']:.6g} ms")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    for problem in sorted(set(tally.problems)):
        print(f"FAILED: {problem}")
    print(json.dumps({
        **tally.result(),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
