"""The row gate: train one fixed deck of runs on a checkout, and compare the
artifacts of two such decks; and the graph nodes a gd step of each kind
builds.

    python tools/deck_rows.py run CHECKOUT OUT
    python tools/deck_rows.py compare A B
    python tools/deck_rows.py nodes CHECKOUT

`run` puts CHECKOUT's `src` and `perfbench` first on the path and trains:

  * perfbench's `pair_grid(seed, work, grids=2)` and `row_zoo(seed, work)`
    decks at seeds 1-3;
  * every objective kind on one `fixed_shape_family` (sources d0 and d1,
    target d2) under sample gd, sample sgd with 16-row minibatches, sample
    adam and population gd, evaluating every 5 steps; MMD and MIXUP, which
    are sample estimators, skip population.

Config hashes embed row-zoo's family paths, so every deck is trained in one
fixed absolute directory (WORK, emptied first) and copied to OUT afterwards.
A run that fails numerically leaves its numeric-failure summary, and the
error is written next to it.

`compare` counts the files that are byte-identical in A and B, lists the
files found on one side only, and prints, over the run CSVs that differ,
each (kind, field)'s largest relative move |a - b| / max(|a|, |b|).  It
exits 0 when the decks are byte-identical and 1 when a shared file differs
or a file is on one side only, so the row gate can be scripted.

`nodes` imports CHECKOUT as `run` does and, for each objective kind, counts
the `diffkit.Node`s made by a 1-step and a 2-step gd `run_experiment` on
row-zoo's seed-1 family of that kind (sources d0 and d1, target d2, lambda
0.5, seed 1), printing one `kind nodes` line per kind: the nodes of the
second step.  The ten table kinds (ERM, SWA, the four pair kinds, VREX,
GROUP_DRO, SD and IRM) step on closed forms with no graph, so they read 0.

Uses the standard library and numpy only; the test suite does not run it.
"""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import sys
import tempfile

WORK = "/tmp/cldlab-deck-rows"
SEEDS = (1, 2, 3)
KIND_STEPS = 20
KIND_LAMBDA = 0.5
MODES = {
    "gd": {"optimizer": "gd"},
    "sgd-16": {"optimizer": "sgd", "batch_size": 16},
    "adam": {"optimizer": "adam", "batch_size": 16},
    "population": {"optimizer": "gd", "data_mode": "population"},
}
SAMPLE_ONLY = frozenset({"MMD", "MIXUP"})
FIELDS = ("loss_nats", "accuracy", "ci_index", "penalty_value")


def _import_checkout(checkout: str):
    root = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import cldlab
    import workloads
    if not os.path.abspath(cldlab.__file__).startswith(root + os.sep):
        sys.exit(f"deck_rows: cldlab imported from {cldlab.__file__}, "
                 f"not from {root}")
    return workloads


def _attempt(out: str, train) -> None:
    """train(out), writing the error to out/error.txt when it raises."""
    os.makedirs(out, exist_ok=True)
    try:
        train(out)
    except Exception as exc:  # a failed run is part of the deck's outcome
        with open(os.path.join(out, "error.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{type(exc).__name__}: {exc}\n")


def run(checkout: str, out: str) -> None:
    wl = _import_checkout(checkout)
    from cldlab import harness
    from cldlab.objectives import KINDS

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    for seed in SEEDS:
        for name, deck in (("pair-grid", wl.pair_grid(seed, WORK, grids=2)),
                           ("row-zoo", wl.row_zoo(seed, WORK))):
            for op in deck.ops:
                _attempt(os.path.join(WORK, name, f"s{seed}",
                                      op.name.replace("/", "-")), op.run)

    family, domains = wl.fixed_shape_family(0, "deck-rows", "CLD2", 3)
    path = wl.write_family(family, domains,
                           os.path.join(WORK, "family-kinds.json"))
    for kind in KINDS:
        for mode, trainer in MODES.items():
            if mode == "population" and kind in SAMPLE_ONLY:
                continue
            doc = wl.train_doc(path, ["d0", "d1"], "d2", kind, KIND_LAMBDA,
                               7, lr=0.1, steps=KIND_STEPS)
            doc["trainer"].update(trainer, eval_every=5)

            def train(o, doc=doc):
                harness.run_experiment(harness.config_from_dict(doc),
                                       out_dir=o)
            _attempt(os.path.join(WORK, "kinds", f"{kind}-{mode}"), train)
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(WORK, out)
    print(f"deck_rows: {sum(len(f) for _, _, f in os.walk(out))} files in {out}")


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def _rel(a: str, b: str) -> float:
    if a == b:
        return 0.0
    if not a or not b:
        return float("inf")  # a value on one side only
    x, y = float(a), float(b)
    return abs(x - y) / max(abs(x), abs(y))


def compare(a: str, b: str) -> bool:
    """Print the comparison of decks A and B; True if they are
    byte-identical."""
    fa, fb = _files(a), _files(b)
    both = sorted(fa & fb)
    differ = []
    for rel in both:
        with open(os.path.join(a, rel), "rb") as ha, \
                open(os.path.join(b, rel), "rb") as hb:
            if ha.read() != hb.read():
                differ.append(rel)
    print(f"byte-identical: {len(both) - len(differ)} of {len(both)} shared "
          f"files ({len(fa)} in A, {len(fb)} in B)")
    for side, only in (("A", fa - fb), ("B", fb - fa)):
        for rel in sorted(only):
            print(f"only in {side}: {rel}")
    moves: dict = {}
    for rel in differ:
        name = os.path.basename(rel)
        if not (name.startswith("run-") and name.endswith(".csv")):
            continue
        with open(os.path.join(a, rel), encoding="utf-8") as ha, \
                open(os.path.join(b, rel), encoding="utf-8") as hb:
            ra, rb = list(csv.DictReader(ha)), list(csv.DictReader(hb))
        if len(ra) != len(rb):
            print(f"row count differs: {rel} ({len(ra)} vs {len(rb)})")
            continue
        for x, y in zip(ra, rb):
            for field in FIELDS:
                key = (x["penalty_kind"], field)
                moves[key] = max(moves.get(key, 0.0), _rel(x[field], y[field]))
    dirs = sorted({os.path.dirname(rel) for rel in differ})
    print(f"differing files: {len(differ)}, in {len(dirs)} directories")
    for d in dirs:
        print(f"  {d}")
    if moves:
        print("largest relative move per (kind, field) over differing run CSVs:")
        for (kind, field), move in sorted(moves.items()):
            print(f"  {kind:10s} {field:14s} {move:.3g}")
    return not differ and fa == fb


def nodes(checkout: str) -> None:
    wl = _import_checkout(checkout)
    from cldlab import diffkit, harness
    from cldlab.objectives import KINDS

    made = [0]
    real = diffkit.Node.__init__

    def counted(self, *args, **kwargs):
        made[0] += 1
        real(self, *args, **kwargs)

    work = tempfile.mkdtemp(prefix="cldlab-deck-nodes-")
    diffkit.Node.__init__ = counted
    try:
        for kind in KINDS:
            family, domains = wl.fixed_shape_family(1, f"row-zoo:{kind}",
                                                    "CLD2", 3)
            path = wl.write_family(family, domains,
                                   os.path.join(work, f"family-{kind}.json"))
            counts = []
            for steps in (1, 2):
                doc = wl.train_doc(path, ["d0", "d1"], "d2", kind, KIND_LAMBDA,
                                   1, lr=0.1, steps=steps)
                made[0] = 0
                harness.run_experiment(harness.config_from_dict(doc),
                                       out_dir=os.path.join(work, kind,
                                                            str(steps)))
                counts.append(made[0])
            print(f"{kind} {counts[1] - counts[0]}")
    finally:
        diffkit.Node.__init__ = real
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="train the deck on a checkout")
    r.add_argument("checkout")
    r.add_argument("out")
    c = sub.add_parser("compare", help="compare two decks' artifacts")
    c.add_argument("a")
    c.add_argument("b")
    n = sub.add_parser("nodes", help="count the nodes of a gd step per kind")
    n.add_argument("checkout")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run(args.checkout, args.out)
    elif args.cmd == "nodes":
        nodes(args.checkout)
    elif not compare(args.a, args.b):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
