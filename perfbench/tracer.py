"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the program.  `Tracer.instrument` swaps each
layer's public functions for timing wrappers, together with every
module-level name bound to one of them by ``from .x import y`` (so
``harness.evaluate_exact`` and ``metrics.forward`` are timed where they are
looked up), and `Tracer.restore` puts the originals back.  Graph nodes are
counted by wrapping ``diffkit.Node.__init__`` while instrumented.

A span is ``[name, start, end, parent, op, nodes, attrs]``: `parent` is the
index of the enclosing span (-1 at the root), `op` the id of the benchmark op
it ran under and `nodes` the graph nodes built while it was the innermost
span.  A span's self time is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "harness", "objectives", "diffkit", "metrics", "oracle",
          "cld_core", "pairgen")

# diffkit's elementwise graph ops run thousands of times a step; only its
# entry points get spans, so building graph ops counts as the caller's self
# time (mostly `objectives`).
DIFFKIT_SPANS = ("forward", "backward", "grad_nodes", "sgd_step", "adam_step",
                 "init_model", "init_raw_model", "save_checkpoint",
                 "load_checkpoint")

# Private harness helpers that split a run into data, evaluation and writes.
HARNESS_PRIVATE = ("_train_batches", "_eval_rows", "_eval_penalty",
                   "_atomic_write")

# Spans under harness.run_experiment that are not part of a training step.
NON_STEP = frozenset({
    "harness.resolve_family", "harness.resolve_out_dir", "harness.config_hash",
    "harness.config_to_dict", "harness.canonical_json",
    "harness._train_batches", "harness._eval_rows", "harness._eval_penalty",
    "harness._atomic_write", "harness.write_rows_csv", "harness.write_json",
    "diffkit.init_model", "diffkit.init_raw_model", "diffkit.save_checkpoint",
    "pairgen.sample_pairs", "cld_core.sample_dataset",
})
WRITES = frozenset({"harness._atomic_write", "harness.write_rows_csv",
                    "harness.write_json", "diffkit.save_checkpoint"})
EVALS = frozenset({"harness._eval_rows", "harness._eval_penalty"})
BACKWARD = frozenset({"diffkit.backward", "diffkit.grad_nodes"})
OPTIMIZER = frozenset({"diffkit.sgd_step", "diffkit.adam_step"})

# Every objective kind the timed workloads train.  DANN and CDANN crash at
# set-up today and are probed separately (see NOTES.md).
TRAINED_KINDS = ("ERM", "PAIR_PROB", "PAIR_LOGIT", "PAIR_FEAT", "LAM", "VREX",
                 "GROUP_DRO", "FISH", "IGA", "FISHR", "IRM", "SD", "RSC",
                 "AND_MASK", "CORAL", "MMD", "MIXUP", "SWA")
VERIFY_FAMILIES = ("CANON-D", "CANON-N", "CLD", "CLD1", "CLD2", "CLD3")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(inputs) -> int:
    val = getattr(inputs, "val", inputs)  # a feature Node or an index array
    return int(len(val))


# Attributes recorded when a span opens, from the call's arguments.
_BEFORE = {
    "harness.run_experiment": lambda a, k: {
        "kind": a[0].objective.kind, "steps": a[0].trainer.steps},
    "diffkit.forward": lambda a, k: {"rows": _rows(_arg(a, k, 1, "inputs"))},
    "cld_core.sample_dataset": lambda a, k: {"n": int(_arg(a, k, 2, "n"))},
    "pairgen.sample_pairs": lambda a, k: {"n": int(_arg(a, k, 2, "n"))},
}


def _claims_checked(span, report) -> None:
    span[6] = {"claims": sum(c.status != "NOT-APPLICABLE"
                             for c in report.claims)}


# Attributes recorded when a span closes, from the call's result.
_AFTER = {"oracle.verify_theorems": _claims_checked}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.op_names: dict = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name, attrs):
        stack = self._stack
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                           self.op, 0, attrs])
        stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id, name):
        """Open the root span of one benchmark op."""
        self.op = op_id
        self.op_names[op_id] = name
        return self._open(f"op.{name}", None)

    def end_op(self, idx):
        self._close(idx)
        self.op = None

    def wrap(self, name, fn):
        before, after = _BEFORE.get(name), _AFTER.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name, before(args, kwargs) if before else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.spans[idx], out)
            return out

        if inspect.isfunction(fn):
            functools.update_wrapper(traced, fn)
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def instrument(self) -> None:
        mods = {name: sys.modules[f"cldlab.{name}"] for name in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if layer == "diffkit" and attr not in DIFFKIT_SPANS:
                    continue
                if attr.startswith("_") and not (
                        layer == "harness" and attr in HARNESS_PRIVATE):
                    continue
                wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        # `cli.main` is the click group, called in-process by the benchmark.
        wrapped[mods["cli"].main] = self.wrap("cli.main", mods["cli"].main)
        for modname, mod in list(sys.modules.items()):
            if modname != "cldlab" and not modname.startswith("cldlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    target = wrapped.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if target is not None:
                    self._set(mod, attr, target)
        node_cls = mods["diffkit"].Node
        orig_init = node_cls.__init__
        spans, stack = self.spans, self._stack

        def counted_init(node, *args, **kwargs):
            if stack:
                spans[stack[-1]][5] += 1
            orig_init(node, *args, **kwargs)

        self._set(node_cls, "__init__", counted_init)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, nodes, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "nodes": nodes, "attrs": attrs}) + "\n")


def _per(total, count, scale=1.0):
    return None if not count else total * scale / count


def _mean_ms(durs):
    return None if not durs else 1000.0 * sum(durs) / len(durs)


def layer_metrics(tracer: Tracer, ops) -> tuple[dict, dict]:
    """Per-layer figures over the spans of the given op ids, and a detail
    table: graph nodes per step for each objective kind and ms per step for
    each op name.

    A figure is None when those ops never reached the code it measures.
    Per-step figures cover the training steps only: the parts of each
    harness.run_experiment span outside the NON_STEP spans.
    """
    ops = set(ops)
    spans = tracer.spans
    sel = [i for i, s in enumerate(spans) if s[4] in ops]
    child = {}
    for i in sel:
        p = spans[i][3]
        if p >= 0:
            child[p] = child.get(p, 0.0) + spans[i][2] - spans[i][1]
    run_of, excluded = {}, {}
    steps, kinds = {}, {}
    kind_steps = {k: 0 for k in TRAINED_KINDS}
    step_s = {k: 0.0 for k in TRAINED_KINDS}
    obj_s = {k: 0.0 for k in TRAINED_KINDS}
    kind_nodes = {k: 0 for k in TRAINED_KINDS}
    op_step_s, op_steps = {}, {}
    acc = dict(fwd=0, rows=0, grads=0, fwd_s=0.0, back_s=0.0,
               opt_s=0.0, h_self=0.0, write_s=0.0, eval_s=0.0, pair_run_s=0.0,
               pair_runs=0, claims=0, tabulate=0, rows_s=0.0, krows=0.0,
               pairs_s=0.0, kpairs=0.0, cli_s=0.0, cli_calls=0)
    verify = {f: [] for f in VERIFY_FAMILIES}
    calls = {"metrics.evaluate": [], "metrics.ci_index_mc": [],
             "metrics.feature_divergences": [], "oracle.verify_theorems": []}
    for i in sel:
        name, t0, t1, p, op, nodes, attrs = spans[i]
        dur = t1 - t0
        self_t = dur - child.get(i, 0.0)
        pname = spans[p][0] if p >= 0 else None
        run = i if name == "harness.run_experiment" else run_of.get(p)
        run_of[i] = run
        excluded[i] = name in NON_STEP or excluded.get(p, False)
        opname = tracer.op_names[op]
        if name == "harness.run_experiment":
            steps[i], kinds[i] = attrs["steps"], attrs["kind"]
            kind_steps[attrs["kind"]] += attrs["steps"]
            op_steps[opname] = op_steps.get(opname, 0) + attrs["steps"]
        if run is not None:
            kind = kinds[run]
            if not excluded[i]:
                step_s[kind] += self_t
                op_step_s[opname] = op_step_s.get(opname, 0.0) + self_t
                kind_nodes[kind] += nodes
                if name.startswith("objectives."):
                    obj_s[kind] += self_t
                if name == "diffkit.forward":
                    acc["fwd"] += 1
                    acc["rows"] += attrs["rows"]
                    acc["fwd_s"] += dur
                if name == "diffkit.grad_nodes":
                    acc["grads"] += 1
                if name in BACKWARD and pname not in BACKWARD:
                    acc["back_s"] += dur
                if name in OPTIMIZER:
                    acc["opt_s"] += dur
            if name.startswith("harness."):
                acc["h_self"] += self_t
            if name in WRITES and pname not in WRITES:
                acc["write_s"] += dur
            if name in EVALS:
                acc["eval_s"] += dur
            if name == "pairgen.sample_pairs":
                acc["pair_run_s"] += dur
                acc["pair_runs"] += 1
        if name in calls:
            calls[name].append(dur)
        if name == "oracle.verify_theorems":
            acc["claims"] += attrs["claims"]
            family = opname.partition("verify:")[2]  # "" outside verify ops
            if family in verify:
                verify[family].append(dur)
        elif name == "metrics.tabulate":
            acc["tabulate"] += 1
        elif name == "cld_core.sample_dataset":
            acc["rows_s"] += dur
            acc["krows"] += attrs["n"] / 1000.0
        elif name == "pairgen.sample_pairs":
            acc["pairs_s"] += dur
            acc["kpairs"] += attrs["n"] / 1000.0
        if name.startswith("cli."):
            acc["cli_s"] += self_t
            acc["cli_calls"] += name == "cli.main"
    total_steps = sum(steps.values())
    n_runs = len(steps)
    out = {
        "diffkit.nodes_per_step": _per(sum(kind_nodes.values()), total_steps),
        "diffkit.forward_calls_per_step": _per(acc["fwd"], total_steps),
        "diffkit.grad_calls_per_step": _per(acc["grads"], total_steps),
        "diffkit.forward_rows_per_step": _per(acc["rows"], total_steps),
        "diffkit.forward_ms_per_step": _per(acc["fwd_s"], total_steps, 1e3),
        "diffkit.backward_ms_per_step": _per(acc["back_s"], total_steps, 1e3),
        "diffkit.opt_ms_per_step": _per(acc["opt_s"], total_steps, 1e3),
    }
    for k in TRAINED_KINDS:
        out[f"objectives.self_ms.{k}"] = _per(obj_s[k], kind_steps[k], 1e3)
        out[f"harness.step_ms.{k}"] = _per(step_s[k], kind_steps[k], 1e3)
    out.update({
        "harness.self_ms_per_run": _per(acc["h_self"], n_runs, 1e3),
        "harness.write_ms_per_run": _per(acc["write_s"], n_runs, 1e3),
        "harness.eval_ms_per_run": _per(acc["eval_s"], n_runs, 1e3),
        "pairgen.sample_ms_per_run": (_per(acc["pair_run_s"], n_runs, 1e3)
                                      if acc["pair_runs"] else None),
    })
    for fam in VERIFY_FAMILIES:
        out[f"oracle.verify_ms.{fam}"] = _mean_ms(verify[fam])
    out.update({
        "oracle.claims_checked": _per(acc["claims"],
                                      len(calls["oracle.verify_theorems"])),
        "metrics.evaluate_ms": _mean_ms(calls["metrics.evaluate"]),
        "metrics.ci_index_mc_ms": _mean_ms(calls["metrics.ci_index_mc"]),
        "metrics.feature_divergences_ms":
            _mean_ms(calls["metrics.feature_divergences"]),
        "metrics.tabulate_calls": _per(acc["tabulate"], len(ops)),
        "cld_core.sample_ms_per_krow": _per(acc["rows_s"], acc["krows"], 1e3),
        "pairgen.sample_ms_per_kpair": _per(acc["pairs_s"], acc["kpairs"], 1e3),
        "cli.self_ms": _per(acc["cli_s"], acc["cli_calls"], 1e3),
    })
    table = {
        "nodes_per_step_by_kind": {k: kind_nodes[k] / kind_steps[k]
                                   for k in TRAINED_KINDS if kind_steps[k]},
        "step_ms_by_op": {k: 1e3 * v / op_steps[k]
                          for k, v in op_step_s.items()},
    }
    return out, table


# The exact, machine-independent counts among the per-layer figures.
COUNTERS = ("diffkit.nodes_per_step", "diffkit.forward_calls_per_step",
            "diffkit.grad_calls_per_step", "diffkit.forward_rows_per_step",
            "oracle.claims_checked", "metrics.tabulate_calls")


def counters(tracer: Tracer, ops) -> dict:
    """COUNTERS over the given ops, with graph nodes per step by kind."""
    figures, table = layer_metrics(tracer, ops)
    return {**{k: figures[k] for k in COUNTERS},
            "nodes_per_step_by_kind": table["nodes_per_step_by_kind"]}

