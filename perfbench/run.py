"""Run the repo benchmark: one workload, or all three, each in a fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload retrain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no benchmark spans
installed; ``--trace 1`` is the separate traced run that gives the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  ``README.md`` beside this file
explains the workloads and metrics.

Before the workload starts, this script pins the environment (one CPU;
one BLAS, OpenMP and LUT-kernel thread; no ambient tracing, telemetry or
GEMM worker pool) and warms the program's JIT kernel cache, kept inside
the checkout, so set-up never includes a cold compile.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("retrain", "serve_batch", "serve_open")

#: A run must end within 180 s; a workload process gets this long.
WORKLOAD_TIMEOUT_S = 170
#: The first run in a checkout compiles the C kernels.
WARM_TIMEOUT_S = 600

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_LUTKERNEL_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Cleared for every run: the benchmark's own spans are the only tracing.
#: ``REPRO_NO_CCKERNEL`` is left alone on purpose: a stray one makes the
#: workload report the run as failed rather than time the numpy backend.
CLEARED_ENV = ("REPRO_TRACE", "REPRO_TELEMETRY", "REPRO_LUTGEMM_WORKERS")

WARM_KERNEL = (
    "from repro.core import lutkernel; "
    "raise SystemExit(0 if lutkernel.kernel_available() else 1)"
)


def pinned_env(tmp: Path) -> dict:
    env = dict(os.environ)
    for name in CLEARED_ENV:
        env.pop(name, None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    # The kernel cache lives under the temp dir; keep it in the checkout.
    env["TMPDIR"] = str(tmp)
    return env


def run_child(cmd: list[str], env: dict, timeout: float) -> tuple[int, str]:
    """Run ``cmd`` in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -1, ""
    return proc.returncode, out


def run_workload(name: str, args, env: dict, work: Path) -> dict | None:
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(work / name),
    ]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    code, out = run_child(cmd, env, WORKLOAD_TIMEOUT_S)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        print(f"perfbench: workload {name} exited with {code}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = pinned_env(tmp)
    # One CPU for the workload, its server and its client: with a single
    # busy vCPU the host steals less time and the serving tail is
    # steadier (README.md, noise findings).  Children inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    code, _ = run_child([sys.executable, "-c", WARM_KERNEL], env,
                        WARM_TIMEOUT_S)
    if code != 0:
        print("perfbench: the C kernels did not build; the workload will "
              "report the run as failed", file=sys.stderr)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args, env, work)
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
