"""cldlab benchmark: measure one workload and check its outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pair-grid --seed 1 --seconds 35 --trace 0

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json, --trace 1
the per-layer ones; --workload all runs every workload in turn.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Each workload runs in fresh worker processes (perfbench/worker.py) with
BLAS and OpenMP pinned to one thread: one closed loop, one op at a time.
set-up time is the median over several fresh processes of the time from
process start to the end of input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
DEADLINE_S = 175.0  # a workload must finish within 180 s


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CLDLAB_OUT", None)  # would redirect every artifact write
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _start(argv: list, deadline: float):
    """Start a worker; return it and its set-up time (start to ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             *argv], stdout=subprocess.PIPE, text=True,
                            env=_child_env())
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not get ready: {line!r}")
    return proc, setup_s


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    root = os.path.join(os.getcwd(), ".perfbench-work")
    work = os.path.join(root, f"{workload}-{seed}-{os.getpid()}")
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    shutil.rmtree(work, ignore_errors=True)
    try:
        # trace 0 reports set-up time: one discarded warm-up start (it may
        # compile bytecode), then SETUP_SAMPLES - 1 set-up-only starts plus
        # the measuring worker's own.
        extra = SETUP_SAMPLES if trace == 0 else 0
        for i in range(extra):
            proc, setup_s = _start([*base, "--setup-only", "--work",
                                    os.path.join(work, f"setup{i}")], deadline)
            _finish(proc, deadline)
            if i > 0:
                setups.append(setup_s)
        spans = os.path.join(root, "traces", f"{workload}-{seed}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        proc, setup_s = _start([*base, "--seconds", str(seconds),
                                "--trace", str(trace), "--spans", spans,
                                "--work", os.path.join(work, "run")], deadline)
        setups.append(setup_s)
        out = _finish(proc, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    if trace == 0:
        result["figures"]["setup_s"] = statistics.median(setups)
        result["detail"]["setup_s_samples"] = setups
    else:
        result["detail"]["spans"] = os.path.relpath(spans)
    return result


def _report(workload: str, result: dict, spec: list) -> dict:
    figures = result["figures"]
    names = [m["name"] for m in spec]
    if sorted(figures) != sorted(names):
        raise BenchError(f"metrics {sorted(figures)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    metrics = {}
    for m in spec:
        value = float(figures[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{workload}  {m['name']} = {value!r} {m['unit']}")
    for key, value in result["detail"].items():
        print(f"{workload}  {key}: {json.dumps(value)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "cldlab")):
        print("perfbench: run from a checkout root holding src/cldlab",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in (*names, "all"):
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    spec = bench["per_layer" if args.trace else "end_to_end"]
    selected = names if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in selected:
            result = measure(workload, args.seed, args.seconds, args.trace)
            metrics = _report(workload, result, spec)
            summary["correct"] &= bool(result["correct"])
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            if args.workload == "all":
                metrics = {f"{workload}.{k}": v for k, v in metrics.items()}
            summary["metrics"].update(metrics)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
