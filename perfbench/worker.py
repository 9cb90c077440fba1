"""One workload in one fresh process; started by run.py, not by hand.

Prints ``ready`` once the program is imported and the inputs are built (the
end of set-up), then, unless --setup-only, measures, runs the correctness
pass and prints one JSON line with the outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from cldlab import cld_core, harness  # noqa: E402

# Configs the validator accepts that crash today (ROADMAP Open item 1).  They
# stay out of the timed workloads; a one-step probe of each reports whether
# it still fails.
EXCLUDED = {
    "adam": ("ERM", {"trainer": {"optimizer": "adam"}}),
    "DANN": ("DANN", {}),
    "CDANN": ("CDANN", {}),
}


def _env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


class Runner:
    def __init__(self, deck, work):
        self.deck = deck
        self.work = work
        self.kept = {}  # deck index -> artifact directory of its first run
        self.count = 0

    def run(self, op, index=None, tracer=None) -> dict:
        """One op: timed call, then (untimed) gate and clean-up."""
        self.count += 1
        out = os.path.join(self.work, "ops", str(self.count))
        os.makedirs(out)
        span = tracer.begin_op(self.count, op.name) if tracer else None
        t0 = perf_counter()
        try:
            outcome, error = op.run(out), None
        except Exception as exc:  # an op that raises is a failed op
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if tracer:
            tracer.end_op(span)
        if error is None:
            try:
                problems = op.check(outcome)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        loss = op.loss(outcome) if op.loss and not problems else None
        if index in self.deck.det_ops and index not in self.kept:
            self.kept[index] = out
        else:
            shutil.rmtree(out)
        return {"op": self.count, "name": op.name, "index": index,
                "s": elapsed, "problems": problems, "loss": loss}

    def deck_pass(self, tracer=None) -> list:
        return [self.run(op, i, tracer) for i, op in enumerate(self.deck.ops)]


def _snapshot(root: str) -> dict:
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def determinism(runner: Runner) -> list:
    """Rerun each kept op and compare its artifacts byte for byte."""
    problems = []
    for index, first in sorted(runner.kept.items()):
        op = runner.deck.ops[index]
        again = os.path.join(runner.work, "rerun", str(index))
        os.makedirs(again)
        op.run(again)
        a, b = _snapshot(first), _snapshot(again)
        if not a:
            problems.append(f"{op.name}: wrote no artifacts")
        elif a != b:
            diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            problems.append(f"{op.name}: rerun differs in {diff}")
    return problems


def probes(work: str) -> dict:
    """One-step runs of the excluded configs; each outcome is printed."""
    out = {}
    for name, (kind, patch) in EXCLUDED.items():
        doc = wl.train_doc("CANON-D", ["source", "target"], "target", kind,
                           1.0, 0, lr=0.1, steps=1)
        for section, values in patch.items():
            doc[section].update(values)
        try:
            harness.run_experiment(harness.config_from_dict(doc),
                                   out_dir=os.path.join(work, "probe", name))
            out[name] = "ok"
        except Exception as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


def known_case(work: str) -> dict:
    """FISH (lambda 1, lr 0.1) on random_family(7, CLD2, 3 domains) reaches
    loss_nats = inf by step 50 while the run reports status ok; the gate
    must reject it."""
    family, domains = cld_core.random_family(7, variant="CLD2", n_domains=3)
    path = wl.write_family(family, domains,
                           os.path.join(work, "family-known-case.json"))
    doc = wl.train_doc(path, ["d0", "d1"], "d2", "FISH", 1.0, 0, lr=0.1,
                       steps=50)
    try:
        rec = harness.run_experiment(harness.config_from_dict(doc),
                                     out_dir=os.path.join(work, "known-case"))
    except Exception as exc:
        return {"outcome": f"{type(exc).__name__}: {exc}", "gate": "rejected",
                "gate_ok": True}
    with open(rec.summary_path, "r", encoding="utf-8") as fh:
        status = json.load(fh)["status"]
    problems = wl.check_rows([rec], wl.bayes_losses(family, domains[:2]))
    finite = all(np.isfinite(r["loss_nats"]) for r in rec.rows)
    return {"outcome": f"status {status}, final losses "
                       f"{[r['loss_nats'] for r in rec.rows]}",
            "gate": "rejected" if problems else "passed",
            "gate_ok": finite or bool(problems)}


def _percentile(values, pct) -> float:
    return float(np.percentile(np.asarray(values), pct))


def end_to_end(deck, results) -> tuple[dict, dict]:
    """The end-to-end figures of one measured run.

    op_p50_ms is the median over the deck's ops of each op's mean wall time
    across its repeats.  On a host whose speed switches between regimes
    lasting seconds, the plain median of all samples jumps between the
    regimes; the per-op means average them, as ops_per_s does.
    """
    times_ms = [1000.0 * r["s"] for r in results]
    n = len(results)
    failed = sum(bool(r["problems"]) for r in results)
    first_pass = {r["index"]: r["loss"] for r in results[:len(deck.ops)]}
    losses = [v for v in first_pass.values() if v is not None]
    by_name = {}
    for r in results:
        by_name.setdefault(r["name"], []).append(1000.0 * r["s"])
    op_mean_ms = {k: sum(v) / len(v) for k, v in by_name.items()}
    tail = _percentile(times_ms, deck.tail_pct)
    figures = {
        "ops_per_s": n / sum(r["s"] for r in results),
        "op_p50_ms": _percentile(list(op_mean_ms.values()), 50),
        "op_tail_ms": tail,
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        "target_loss_nats": sum(losses) / len(losses) if losses else 0.0,
    }
    detail = {"tail": f"p{deck.tail_pct:g} of {n} ops, "
                      f"{sum(t > tail for t in times_ms)} beyond it",
              "op_mean_ms_by_name": {k: round(v, 3)
                                     for k, v in op_mean_ms.items()}}
    return figures, detail


def measure(runner: Runner, seconds: float) -> list:
    """The deck's ops in order, one at a time, round and round until
    `seconds` have passed; the first pass always completes."""
    ops = runner.deck.ops
    results, t0 = [], perf_counter()
    while len(results) < len(ops) or perf_counter() - t0 < seconds:
        i = len(results) % len(ops)
        results.append(runner.run(ops[i], i))
    return results


def measure_traced(runner: Runner, seconds: float, seed: int, work: str,
                   spans_path: str):
    """Alternate untraced and traced passes of the deck until `seconds` have
    passed, then trace the fill ops for layers the deck never reached."""
    tracer = tr.Tracer()
    plain, traced, t0 = [], [], perf_counter()
    while not traced or perf_counter() - t0 < seconds:
        plain.append(runner.deck_pass())
        tracer.instrument()
        try:
            traced.append(runner.deck_pass(tracer))
        finally:
            tracer.restore()
    n_ops = len(runner.deck.ops)
    problems = []
    first = [r["op"] for r in traced[0]]
    if len(traced) == 1:  # repeat the first op for the exact-counter check
        tracer.instrument()
        try:
            again = [runner.run(runner.deck.ops[0], None, tracer)["op"]]
        finally:
            tracer.restore()
        pair = (first[:1], again)
    else:
        pair = (first, [r["op"] for r in traced[1]])
    counts = [tr.counters(tracer, ops) for ops in pair]
    if counts[0] != counts[1]:
        problems.append(f"counters differ between repeats: {counts}")
    deck_ops = [r["op"] for p in traced for r in p]
    figures, table = tr.layer_metrics(tracer, deck_ops)
    missing = {k for k, v in figures.items() if v is None}
    tracer.instrument()
    try:
        fill_results = [runner.run(op, None, tracer)
                        for op in wl.fill_ops(seed, work)]
    finally:
        tracer.restore()
    problems += [f"fill {r['name']}: {p}" for r in fill_results
                 for p in r["problems"]]
    filled, _ = tr.layer_metrics(tracer, [r["op"] for r in fill_results])
    for k in missing:
        figures[k] = filled[k]
    unreached = sorted(k for k, v in figures.items() if v is None)
    for k in unreached:
        figures[k] = 0.0
    # The first untraced pass also pays cold-start costs, so it is left out
    # of the comparison when later passes exist.
    skip = 1 if len(plain) > 1 else 0
    plain_s = sum(r["s"] for p in plain[skip:] for r in p)
    traced_s = sum(r["s"] for p in traced[skip:] for r in p)
    figures["trace.overhead_frac"] = traced_s / plain_s - 1.0
    tracer.write_jsonl(spans_path)
    detail = {"counters": counts[0],
              "step_ms_by_op": {k: round(v, 4)
                                for k, v in table["step_ms_by_op"].items()},
              "filled_from_fill_ops": sorted(missing),
              "unreached": unreached, "deck_passes": len(traced),
              "ops_per_pass": n_ops}
    results = [r for p in plain + traced for r in p]
    return results, figures, detail, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.work)
    deck = wl.WORKLOADS[args.workload](args.seed, args.work)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    runner = Runner(deck, args.work)
    problems = []
    if args.trace:
        results, figures, detail, problems = measure_traced(
            runner, args.seconds, args.seed, args.work, args.spans)
    else:
        results = measure(runner, args.seconds)
        figures, detail = end_to_end(deck, results)
    failed = [r for r in results if r["problems"]]
    problems += [f"{r['name']}: {p}" for r in failed[:5] for p in r["problems"]]
    problems += determinism(runner)
    known = known_case(args.work)
    if not known["gate_ok"]:
        problems.append("gate passed the known non-finite FISH run")
    detail.update({"env": _env(), "excluded_configs": probes(args.work),
                   "known_case": known, "problems": problems})
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": len(failed), "figures": figures,
                      "detail": detail}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
