"""The benchmark's one command.

    python3 perfbench/run.py --workload sweep|serve|train --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository; the program is
imported from ``src/``.  With ``--trace 0`` the run measures the
end-to-end metrics named in ``BENCHMARK.json`` and checks every output;
with ``--trace 1`` it first runs the workload untraced in a child process,
then again with spans and program telemetry on, and reports the
per-layer metrics, their closure and the tracing overhead.  The last line
of standard output is the JSON result; the line before it is the full
clock-tagged record.  See ``RATIONALE.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# Before numpy loads, here and in every child: otherwise each of the train
# workload's two node threads runs 2-thread BLAS calls on a 2-core host.  In
# one 5-seed comparison the step rate spread 15% across seeds with 2 BLAS
# threads and 8% with one, at the same median speed.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "serve", "train")
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 150.0
READY = "perfbench-ready"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path.name} not found next to {HERE.name}/")
    return json.loads(path.read_text())


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail("no program source under src/repro; run from the root of a repository checkout")
    sys.path.insert(0, str(src))


def _child(args: argparse.Namespace, *extra: str) -> subprocess.Popen:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), *extra]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def measure_setup(args: argparse.Namespace) -> list:
    """Seconds from process start to a ready workload, one fresh process each."""
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = _child(args, "--seconds", str(args.seconds), "--setup-only")
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != READY or code != 0:
            _fail(f"set-up child exited with code {code} before it was ready")
        samples.append(elapsed)
    return samples


def untraced_ops_per_s(args: argparse.Namespace) -> float:
    """The same workload untraced, in its own process, for the overhead ratio."""
    proc = _child(args, "--seconds", str(args.seconds), "--trace", "0", "--no-setup-runs")
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        _fail(f"untraced child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])["metrics"]["ops_per_s"]["value"]


def build(workload: str, seed: int, seconds: float, telemetry=None):
    """The workload's set-up: everything before its first measured operation."""
    if workload == "sweep":
        from sweep_workload import Sweep

        return Sweep(seconds, ROOT / ".perfbench", telemetry)
    if workload == "serve":
        from serve_workload import Serve

        return Serve(seed, seconds, telemetry)
    from train_workload import Train

    return Train(seed, seconds, telemetry)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--no-setup-runs", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = _load_spec()
    _import_program()
    if args.setup_only:
        build(args.workload, args.seed, args.seconds).close()
        print(READY, flush=True)
        return 0

    from contextlib import nullcontext

    from harness import NullTracer, Run, Tracer, emit

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    telemetry = None
    tracer = NullTracer()
    session = nullcontext()
    if args.trace:
        from repro.telemetry import Telemetry, use_telemetry

        untraced = untraced_ops_per_s(args)
        telemetry = Telemetry()
        tracer = Tracer()
        session = use_telemetry(telemetry)
    elif not args.no_setup_runs:
        run.host("setup_s", measure_setup(args), "s", "lower")

    module = __import__(f"{args.workload}_workload")
    with session:
        workload = build(args.workload, args.seed, args.seconds, telemetry)
        try:
            module.measure(workload, tracer, run)
        finally:
            workload.close()

    if args.trace:
        run.layer("trace.overhead_ratio", untraced / run.metrics["ops_per_s"].value - 1.0, "ratio")
        wanted = spec["per_layer"]
        for metric in wanted:
            if metric["name"] not in run.layers:
                # Not on this workload's path: no calls, no time.
                run.layer(metric["name"], 0.0, metric["unit"])
                run.note(f"{metric['name']}: layer not on this workload's path")
        values = {m["name"]: run.layers[m["name"]] for m in wanted}
    else:
        wanted = [m for m in spec["end_to_end"] if not (args.no_setup_runs and m["name"] == "setup_s")]
        missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
        if missing:
            _fail(f"workload {args.workload} did not produce {missing}")
        values = {m["name"]: run.metrics[m["name"]] for m in wanted}
    emit(run, values, {m["name"]: m["unit"] for m in wanted})
    return 0


if __name__ == "__main__":
    sys.exit(main())
