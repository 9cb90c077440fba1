"""The benchmark's workloads: decks of ops built from the workload seed.

A deck is the fixed list of ops that one pass runs.  Each op calls the
program through its public API, and its check compares what came back with
the exact oracle: a non-empty list of problems marks the op as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cldlab import cld_core, cli, diffkit, harness, metrics, oracle, pairgen
from cldlab.rng import derive_seed

@dataclass
class Op:
    name: str
    run: Callable[[str], object]  # output directory -> outcome
    check: Callable[[object], list]  # outcome -> problems; empty is correct
    loss: Callable[[object], float] | None = None  # final target loss


@dataclass
class Deck:
    ops: list
    det_ops: tuple  # ops rerun for the byte-identical artifact check
    tail_pct: float  # highest percentile with >= 10 samples beyond it


def _seed(seed: int, label: str) -> int:
    return derive_seed(seed, f"perfbench:{label}") % (1 << 31)


def fixed_shape_family(seed: int, label: str, variant: str, n_domains: int):
    """random_family drawn from the seed, redrawn until it has 4x4 latents
    and 3 classes, so every seed gives inputs of the same size."""
    fs = _seed(seed, label)
    while True:
        family, domains = cld_core.random_family(fs, variant=variant,
                                                 n_domains=n_domains)
        s = family.spaces
        if (s.n_core, s.n_noncore, s.n_classes) == (4, 4, 3):
            return family, domains
        fs += 1


def write_family(family, domains, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cld_core.family_to_dict(family, domains), fh)
    return path


# ---------------------------------------------------------------------------
# The training gate


def bayes_losses(family, domains) -> dict:
    return {d.domain_id: oracle.exact_loss(family, d,
                                           oracle.bayes_predictor(family, d)[0])
            for d in domains}


def check_rows(records, bayes) -> list:
    """Rows finite, ci_index in [0, 1], final source losses >= Bayes loss."""
    problems = []
    for rec in records:
        final = max(r["step"] for r in rec.rows)
        for r in rec.rows:
            where = f"{rec.run_id} {r['domain_id']} step {r['step']}"
            vals = [r[k] for k in ("loss_nats", "accuracy", "ci_index",
                                   "penalty_value") if r[k] is not None]
            if not all(math.isfinite(v) for v in vals):
                problems.append(f"{where}: non-finite row {vals}")
            ci = r["ci_index"]
            if ci is not None and not 0.0 <= ci <= 1.0:
                problems.append(f"{where}: ci_index {ci!r} outside [0, 1]")
            floor = bayes.get(r["domain_id"])
            if (r["split"] == "source" and r["step"] == final
                    and r["loss_nats"] < floor - 1e-12):
                problems.append(f"{where}: loss {r['loss_nats']!r} below the "
                                f"Bayes loss {floor!r}")
    return problems


def target_loss(records) -> float:
    finals = [[r for r in rec.rows if r["split"] == "target"][-1]["loss_nats"]
              for rec in records]
    return float(sum(finals) / len(finals))


def train_doc(family: str, sources, target: str, kind: str, lam: float,
              seed: int, *, lr: float, steps: int, optimizer: str = "gd",
              batch_size: int | None = None) -> dict:
    trainer = {"optimizer": optimizer, "lr": lr, "steps": steps,
               "train_n": 200, "seed": seed}
    if batch_size is not None:
        trainer["batch_size"] = batch_size
    return {"family": family, "source": sources, "target": target,
            "objective": {"kind": kind, "lambda": lam},
            "model": {"widths": [16]}, "trainer": trainer,
            "pairs": {"n": 200, "style": "marginal"}}


def _train_op(name, run, bayes) -> Op:
    return Op(name, run, lambda recs: check_rows(recs, bayes), target_loss)


# ---------------------------------------------------------------------------
# pair-grid: criterion-6-shaped grids through harness.sweep on CANON-D

GRID = (("ERM", (0.0,)), ("PAIR_PROB", (0.1, 1.0, 10.0)),
        ("PAIR_LOGIT", (0.1, 1.0, 10.0)), ("PAIR_FEAT", (0.1, 1.0, 10.0)),
        ("LAM", (1.0, 10.0, 100.0)))
GRID_STEPS = 30
# Criterion 6 trains at lr 0.5.  There PAIR_LOGIT at lambda 10 diverges
# (NonFiniteActivation) within 30 steps on about one grid seed in fifteen,
# and still on about one in a hundred at lr 0.25; none did in 600 at 0.1.
GRID_LR = 0.1
GRIDS_PER_PASS = 10


def pair_grid(seed: int, work: str, *, steps: int = GRID_STEPS,
              grids: int = GRIDS_PER_PASS) -> Deck:
    family, source, _ = cld_core.canonical_fixture("CANON-D")
    bayes = bayes_losses(family, [source])

    def grid_op(run_seed):
        def run(out):
            records = []
            for kind, lams in GRID:
                base = train_doc("CANON-D", "source", "target", kind, lams[0],
                                 run_seed, lr=GRID_LR, steps=steps)
                records += harness.sweep(
                    base, {"objective.lambda": list(lams),
                           "trainer.seed": [run_seed]},
                    out_dir=os.path.join(out, kind))
            return records
        return run

    ops = [_train_op(f"grid{g}", grid_op(_seed(seed, f"pair-grid:{g}")),
                     bayes) for g in range(grids)]
    return Deck(ops, det_ops=(0,), tail_pct=75.0)


# ---------------------------------------------------------------------------
# row-zoo: single run_experiment calls for each multi-domain kind

# kind -> (lambda, gd steps, sgd steps); steps give each op a similar cost
# (about 0.2 s on a 2-core x86 box) so no single kind dominates the tail.
ROW_KINDS = {
    "VREX": (1.0, 100, 90), "GROUP_DRO": (0.0, 300, 280),
    "FISH": (0.1, 60, 70), "IGA": (1.0, 55, 60), "FISHR": (1.0, 4, 5),
    "IRM": (1.0, 100, 50), "SD": (0.1, 160, 180), "RSC": (0.0, 180, 160),
    "AND_MASK": (0.0, 300, 300), "CORAL": (1.0, 80, 140),
    "MMD": (1.0, 5, 100), "MIXUP": (0.0, 160, 220), "SWA": (0.0, 260, 260),
}
ROW_LR = 0.1
ROW_BATCH = 32


def row_zoo(seed: int, work: str, *, steps: int | None = None,
            optimizers=("gd", "sgd")) -> Deck:
    """Sources d0 and d1, target d2.  Each kind trains on its own seed-drawn
    family of the same shape, so the mean target loss averages over 13
    families instead of hinging on one."""
    ops = []
    for kind, (lam, gd_steps, sgd_steps) in ROW_KINDS.items():
        family, domains = fixed_shape_family(seed, f"row-zoo:{kind}", "CLD2", 3)
        path = write_family(family, domains,
                            os.path.join(work, f"family-{kind}.json"))
        bayes = bayes_losses(family, domains[:2])
        for opt in optimizers:
            n_steps = steps or (gd_steps if opt == "gd" else sgd_steps)
            doc = train_doc(path, ["d0", "d1"], "d2", kind, lam,
                            _seed(seed, f"row-zoo:{kind}:{opt}"), lr=ROW_LR,
                            steps=n_steps, optimizer=opt,
                            batch_size=ROW_BATCH if opt == "sgd" else None)
            ops.append(_train_op(f"{kind}/{opt}", _run_doc(doc), bayes))
    return Deck(ops, det_ops=(0,), tail_pct=90.0)


def _run_doc(doc):
    def run(out):
        return [harness.run_experiment(harness.config_from_dict(doc),
                                       out_dir=out)]
    return run


# ---------------------------------------------------------------------------
# oracle-eval: no training; oracle, metrics, samplers and the CLI


def _verify_op(name, family, domains, seed) -> Op:
    def check(report):
        return [f"{c.id}: {c.status} (deviation {c.deviation})"
                for c in report.claims
                if c.status not in ("PASS", "NOT-APPLICABLE")]
    return Op(f"verify:{name}",
              lambda out: oracle.verify_theorems(family, domains, seed=seed),
              check)


def _evaluate_op(name, model, family, domain, n, seed) -> Op:
    """Sampled evaluation, checked against the exact loss within 6 sigma."""
    table = metrics.tabulate(model, family).p_yhat_given_x
    p_xy = oracle.domain_p_xy(family, domain)
    nll = -np.log(table)
    mean = float((p_xy * nll).sum())
    sd = math.sqrt(max(float((p_xy * nll * nll).sum()) - mean * mean, 0.0))
    tol = 6.0 * sd / math.sqrt(n) + 1e-12

    def check(res):
        problems = []
        if not (math.isfinite(res.loss) and 0.0 <= res.accuracy <= 1.0):
            problems.append(f"loss {res.loss!r}, accuracy {res.accuracy!r}")
        elif abs(res.loss - mean) > tol:
            problems.append(f"sampled loss {res.loss!r} is more than 6 sigma "
                            f"from the exact loss {mean!r}")
        return problems
    return Op(f"evaluate:{name}",
              lambda out: metrics.evaluate(model, family, domain, n, seed),
              check, loss=lambda res: res.loss)


def _ci_op(name, model, family, domain, n_pairs, reps, seed) -> Op:
    """Monte Carlo CI index; on a deterministic family each rep is exact, so
    the estimate must also agree with the oracle within 6 standard errors."""
    exact = (oracle.exact_ci_index(family, domain,
                                   metrics.tabulate(model, family))
             if family.deterministic else None)

    def check(est):
        if not (0.0 <= est.value <= 1.0 and math.isfinite(est.stderr)):
            return [f"ci_index {est.value!r} (stderr {est.stderr!r})"]
        if exact is not None and abs(est.value - exact) > 6 * est.stderr + 1e-9:
            return [f"ci_index {est.value!r} vs exact {exact!r}"]
        return []
    return Op(f"ci:{name}",
              lambda out: metrics.ci_index_mc(model, family, domain, n_pairs,
                                              reps, "marginal", seed),
              check)


def _fdiv_check(fd) -> list:
    vals = [fd.mmd, fd.coral, fd.bandwidth, *fd.normalized,
            *(v for pair in fd.per_class.values() for v in pair)]
    if not all(math.isfinite(v) for v in vals) or fd.bandwidth <= 0:
        return [f"feature divergences {vals}"]
    return []


def _sample_check(family, domain, n):
    """Sizes, provenance and cell frequencies within 6 sigma of the oracle."""
    p = oracle.domain_p_xy(family, domain)
    k = p.shape[1]
    tol = 6.0 * np.sqrt(p * (1.0 - p) / n) + 1e-12

    def check(ds):
        if len(ds) != n:
            return [f"{len(ds)} rows, asked for {n}"]
        problems = []
        if not np.all(family.p_x_given_cn[ds.xc, ds.xn, ds.x] > 0):
            problems.append("x outside the support of P(x | xc, xn)")
        freq = np.bincount(ds.x * k + ds.y, minlength=p.size).reshape(p.shape)
        dev = np.abs(freq / n - p) - tol
        if np.any(dev > 0):
            problems.append(f"cell frequency off by {dev.max():.3g} "
                            f"beyond 6 sigma")
        return problems
    return check


def _pairs_check(family, n):
    def check(pairs):
        if len(pairs) != n:
            return [f"{len(pairs)} pairs, asked for {n}"]
        a = np.array([(p.x, p.x_tilde, p.label, p.xc, p.xn, p.xn_tilde)
                      for p in pairs])
        x, xt, y, c, xn, xnt = a.T
        px = family.p_x_given_cn
        ok = ((px[c, xn, x] > 0) & (px[c, xnt, xt] > 0)
              & (family.p_y_given_c[c, y] > 0))
        return [] if ok.all() else [f"{int((~ok).sum())} pairs off support"]
    return check


def _cli_op(name, argv, check) -> Op:
    def run(out):
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                cli.main([*argv, "--out", out], standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue().splitlines(), out
    return Op(f"cli:{name}", run, check)


def _cli_verify_check(res) -> list:
    code, lines, _ = res
    claims = [ln for ln in lines if not ln.startswith("report: ")]
    bad = [ln for ln in claims
           if ln.split(": ", 1)[-1] not in ("PASS", "NOT-APPLICABLE")]
    if code not in (0, None) or bad or len(claims) != len(oracle.CLAIM_IDS):
        return [f"exit {code}, claims {claims}"]
    return []


def _cli_generate_check(n, n_pairs):
    def check(res):
        code, lines, out = res
        if code not in (0, None) or len(lines) != 3:
            return [f"exit {code}, output {lines}"]
        counts = []
        for path in lines:
            with open(path, "r", encoding="utf-8") as fh:
                counts.append(sum(1 for _ in fh))
        if counts != [n, n, n_pairs]:
            return [f"line counts {counts}, expected {[n, n, n_pairs]}"]
        return []
    return check


# Sizes of the oracle-eval calls.  feature_divergences builds a pooled
# [2n, 2n, 16] distance tensor, so n stays moderate (n=2000 needs ~2 GB).
ORACLE_SIZES = {"eval_n": 20000, "ci_pairs": 4000, "ci_reps": 4,
                "fdiv_n": 300, "sample_n": 200000, "pairs_n": 20000,
                "gen_n": 5000, "gen_pairs": 2000}
FILL_SIZES = {"eval_n": 2000, "ci_pairs": 500, "ci_reps": 2, "fdiv_n": 60,
              "sample_n": 20000, "pairs_n": 2000, "gen_n": 200,
              "gen_pairs": 200}


MODEL_SEED = 0


def oracle_eval(seed: int, work: str, sizes: dict = ORACLE_SIZES) -> Deck:
    fams = {}
    for name in ("CANON-D", "CANON-N"):
        family, src, tgt = cld_core.canonical_fixture(name)
        fams[name] = (family, [src, tgt])
    for variant in cld_core.VARIANTS:
        fams[variant] = fixed_shape_family(seed, f"oracle-eval:{variant}",
                                           variant, 2)
    # Fixed models, one per (family, domain): the workload seed moves the
    # families and the draws but not the weights, whose init would otherwise
    # dominate the run-to-run spread of the mean loss.
    models = {(name, d.domain_id): diffkit.init_model(
        family.spaces.n_obs, (16,), family.spaces.n_classes, embedding="bits",
        seed=_seed(MODEL_SEED, f"oracle-eval:model:{name}:{d.domain_id}"))
        for name, (family, domains) in fams.items() for d in domains}
    fam2, doms2 = fams["CLD2"]
    fam_n, doms_n = fams["CANON-N"]
    model2 = models["CLD2", doms2[0].domain_id]
    model_n = models["CANON-N", doms_n[0].domain_id]
    n = sizes["fdiv_n"]
    fdiv_data = [cld_core.sample_dataset(fam2, d, n,
                                         _seed(seed, f"fdiv:{d.domain_id}"))
                 for d in doms2]
    fam_path = write_family(fam2, doms2,
                            os.path.join(work, "family-oracle-eval.json"))
    gen_doc = train_doc(fam_path, ["d0"], "d1", "ERM", 0.0,
                        _seed(seed, "oracle-eval:generate"), lr=0.1, steps=1)
    gen_doc["trainer"]["train_n"] = sizes["gen_n"]
    gen_doc["pairs"]["n"] = sizes["gen_pairs"]
    gen_path = os.path.join(work, "generate-config.json")
    with open(gen_path, "w", encoding="utf-8") as fh:
        json.dump(gen_doc, fh)

    ops = [_verify_op(name, family, domains, _seed(seed, f"verify:{name}"))
           for name, (family, domains) in fams.items()]
    ops += [_evaluate_op(f"{name}:{d.domain_id}", models[name, d.domain_id],
                         family, d, sizes["eval_n"],
                         _seed(seed, f"evaluate:{name}:{d.domain_id}"))
            for name, (family, domains) in fams.items() for d in domains]
    ops += [
        _ci_op("CLD2", model2, fam2, doms2[0], sizes["ci_pairs"],
               sizes["ci_reps"], _seed(seed, "ci:CLD2")),
        _ci_op("CANON-N", model_n, fam_n, doms_n[0], sizes["ci_pairs"],
               sizes["ci_reps"], _seed(seed, "ci:CANON-N")),
        Op("fdiv", lambda out: metrics.feature_divergences(model2, fdiv_data,
                                                           per_class=True),
           _fdiv_check),
        Op("sample:data",
           lambda out: cld_core.sample_dataset(fam2, doms2[0],
                                               sizes["sample_n"],
                                               _seed(seed, "sample:data")),
           _sample_check(fam2, doms2[0], sizes["sample_n"])),
        Op("sample:pairs",
           lambda out: pairgen.sample_pairs(fam2, doms2[0], sizes["pairs_n"],
                                            seed=_seed(seed, "sample:pairs")),
           _pairs_check(fam2, sizes["pairs_n"])),
        _cli_op("verify", ["verify", "--family", fam_path], _cli_verify_check),
        _cli_op("generate", ["generate", "--config", gen_path],
                _cli_generate_check(sizes["gen_n"], sizes["gen_pairs"])),
    ]
    return Deck(ops, det_ops=(len(ops) - 2, len(ops) - 1), tail_pct=95.0)


WORKLOADS = {"pair-grid": pair_grid, "row-zoo": row_zoo,
             "oracle-eval": oracle_eval}


def fill_ops(seed: int, work: str) -> list:
    """Small ops that give the traced run a figure for every layer the
    workload's own deck does not reach (see NOTES.md)."""
    fill = os.path.join(work, "fill")
    os.makedirs(fill)
    return (pair_grid(seed, fill, steps=3, grids=1).ops
            + row_zoo(seed, fill, steps=3, optimizers=("gd",)).ops
            + oracle_eval(seed, fill, FILL_SIZES).ops)
