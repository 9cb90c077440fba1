"""Deterministic experiment execution: config ingestion, training loop,
evaluation rows, verification, sweeps, and atomic result persistence."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from . import diffkit as dk
from . import objectives as ob
from .cld_core import canonical_fixture, load_family_json, sample_dataset
from .errors import ConfigError, NonFiniteActivation
from .metrics import CiEstimate, _ci_index_table, _evaluate_table, _run_tables
from .objectives import DomainBatch, ObjectiveConfig
from .oracle import domain_p_xy, exact_ci_index, verify_theorems
from .pairgen import pair_law, pair_table, sample_pairs, write_pairs_jsonl
from .rng import derive_seed, substream

__all__ = [
    "CSV_HEADER",
    "EvalSpec",
    "ExperimentConfig",
    "ModelSpec",
    "PairSpec",
    "ResultRecord",
    "TrainerSpec",
    "config_from_dict",
    "config_hash",
    "config_to_dict",
    "generate_artifacts",
    "resolve_family",
    "resolve_out_dir",
    "run_experiment",
    "sweep",
    "verify_suite",
    "write_rows_csv",
]

CSV_HEADER = ("run_id,config_hash,step,domain_id,split,loss_nats,accuracy,"
              "ci_index,penalty_value,penalty_kind,seed")

FIXTURES = ("CANON-D", "CANON-N")

# Kinds that regularize toward multi-domain agreement; they need >= 2
# training sources.  MMD and MIXUP are sample estimators; FISHR, CORAL and
# MMD take spreads over >= 2 rows per domain, in each step and evaluation.
MULTI_DOMAIN_KINDS = frozenset({
    "VREX", "GROUP_DRO", "FISH", "IGA", "FISHR", "IRM", "CORAL", "MMD",
    "DANN", "CDANN", "AND_MASK",
})
RAW_ROW_KINDS = frozenset({"MMD", "MIXUP"})
TWO_ROW_KINDS = frozenset({"FISHR", "CORAL", "MMD"})
PAIR_KINDS = frozenset({"PAIR_PROB", "PAIR_LOGIT", "PAIR_FEAT", "LAM"})
# Kinds whose terms build on a leading run axis (diffkit.stack_runs): sweep
# trains the runs of one of these that differ only in objective.lambda as
# one stack.
STACKED_KINDS = frozenset({"ERM", *PAIR_KINDS})


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ModelSpec:
    widths: tuple = (16,)
    embedding: str = "bits"


@dataclass(frozen=True)
class TrainerSpec:
    optimizer: str = "gd"  # gd = full batch; sgd/adam draw minibatches
    lr: float = 0.1
    steps: int = 2000
    batch_size: int | None = None
    seed: int = 0
    data_mode: str = "sample"  # or "population": exact joint as weights
    train_n: int = 200
    eval_every: int = 0  # 0: evaluate only after the final step
    head_only_steps: int = 0  # optional linear-probe phase before joint


@dataclass(frozen=True)
class EvalSpec:
    exact: bool = True
    n_samples: int = 10000
    ci_pairs: int = 2000
    ci_style: str = "marginal"


@dataclass(frozen=True)
class PairSpec:
    n: int = 200
    style: str = "marginal"


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    sources: tuple
    target: str
    objective: ObjectiveConfig
    model: ModelSpec = field(default_factory=ModelSpec)
    trainer: TrainerSpec = field(default_factory=TrainerSpec)
    eval: EvalSpec = field(default_factory=EvalSpec)
    pairs: PairSpec = field(default_factory=PairSpec)
    out: str = "results"


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate a config document; ConfigError names the field."""
    _require(isinstance(doc, dict), "", "config must be a JSON object")
    top = {"family", "source", "target", "objective", "model", "trainer",
           "eval", "pairs", "out"}
    for key in doc:
        _require(key in top, key, "unknown field")
    _require("family" in doc, "family", "required")
    _require("source" in doc, "source", "required")
    _require("target" in doc, "target", "required")
    family = doc["family"]
    _require(isinstance(family, str) and family, "family", "must be a name or path")
    src = doc["source"]
    sources = tuple([src] if isinstance(src, str) else
                    src if isinstance(src, list) else [])
    _require(len(sources) >= 1 and all(isinstance(s, str) for s in sources),
             "source", "must be a domain id or list of ids")
    _require(isinstance(doc["target"], str), "target", "must be a domain id")

    objective = ObjectiveConfig.from_dict(doc.get("objective", {"kind": "ERM"}))

    model = ob.read_spec(doc, "model", ModelSpec)
    _require(all(w >= 1 for w in model.widths), "model.widths",
             "must be positive integers")
    _require(model.embedding in ("onehot", "bits"), "model.embedding",
             "must be 'onehot' or 'bits'")

    trainer = ob.read_spec(doc, "trainer", TrainerSpec)
    _require(trainer.optimizer in ("gd", "sgd", "adam"), "trainer.optimizer",
             "must be one of gd, sgd, adam")
    _require(trainer.steps >= 1, "trainer.steps", "must be >= 1")
    _require(trainer.lr > 0, "trainer.lr", "must be > 0")
    _require(trainer.data_mode in ("sample", "population"),
             "trainer.data_mode", "must be 'sample' or 'population'")
    _require(trainer.train_n >= 1, "trainer.train_n", "must be >= 1")
    _require(trainer.batch_size is None or trainer.batch_size >= 1,
             "trainer.batch_size", "must be a positive integer")
    _require(not (trainer.data_mode == "population" and
                  trainer.batch_size is not None),
             "trainer.batch_size", "population mode is full-batch only")
    _require(trainer.batch_size is None or trainer.optimizer != "gd",
             "trainer.batch_size", "gd is full-batch; use sgd or adam")
    _require(trainer.eval_every >= 0, "trainer.eval_every", "must be >= 0")
    _require(0 <= trainer.head_only_steps <= trainer.steps,
             "trainer.head_only_steps", "must be within [0, steps]")

    espec = ob.read_spec(doc, "eval", EvalSpec)
    _require(espec.n_samples >= 1, "eval.n_samples", "must be >= 1")
    _require(espec.ci_pairs >= 0, "eval.ci_pairs", "must be >= 0")
    _require(espec.ci_style in ("marginal", "uniform"), "eval.ci_style",
             "must be 'marginal' or 'uniform'")

    pspec = ob.read_spec(doc, "pairs", PairSpec)
    _require(pspec.n >= 1, "pairs.n", "must be >= 1")
    _require(pspec.style in ("marginal", "uniform"), "pairs.style",
             "must be 'marginal' or 'uniform'")

    out = doc.get("out", "results")
    _require(isinstance(out, str) and out, "out", "must be a path")

    kind = objective.kind
    if kind in MULTI_DOMAIN_KINDS:
        _require(len(sources) >= 2, "source",
                 f"objective {kind} needs at least 2 source domains")
    if kind in RAW_ROW_KINDS:
        _require(trainer.data_mode == "sample", "trainer.data_mode",
                 f"objective {kind} works on example rows; use 'sample'")
    if kind in TWO_ROW_KINDS and trainer.data_mode == "sample":
        need = f"objective {kind} needs >= 2 rows per domain"
        _require(trainer.train_n >= 2, "trainer.train_n", need)
        _require(trainer.batch_size is None or trainer.batch_size >= 2,
                 "trainer.batch_size", need + " per step")
    return ExperimentConfig(family=family, sources=sources, target=doc["target"],
                            objective=objective, model=model, trainer=trainer,
                            eval=espec, pairs=pspec, out=out)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The document config_from_dict reads back to cfg (tuples stand for
    JSON lists)."""
    doc = asdict(cfg)
    doc["source"] = list(doc.pop("sources"))
    doc["objective"] = cfg.objective.to_dict()
    return doc


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _stamped(cfg: ExperimentConfig, seed: int) -> tuple[str, str]:
    """(hash, canonical JSON) of the config document with seed stamped in
    as trainer.seed: what a run is named by and stores."""
    doc = config_to_dict(cfg)
    doc["trainer"]["seed"] = seed
    text = canonical_json(doc)
    return hashlib.sha256(text.encode()).hexdigest()[:16], text


def config_hash(cfg: ExperimentConfig, seed: int) -> str:
    return _stamped(cfg, seed)[0]


# ---------------------------------------------------------------------------
# Family resolution and persistence helpers


def resolve_family(source: str):
    """Fixture name or JSON path -> (family, ordered domain list)."""
    if source in FIXTURES:
        family, src, tgt = canonical_fixture(source)
        return family, [src, tgt]
    if not os.path.exists(source):
        raise ConfigError("family", f"not a fixture {FIXTURES} and no file at "
                                    f"{source!r}")
    try:
        family, domains = load_family_json(source)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ConfigError("family", f"could not parse {source!r}: {exc}") from exc
    if not domains:
        raise ConfigError("family", f"{source!r} declares no domains")
    return family, domains


def _resolve_domains(cfg: ExperimentConfig):
    """The config's family with its source domains and target domain."""
    family, domains = resolve_family(cfg.family)
    by_id = {d.domain_id: d for d in domains}
    for did in (*cfg.sources, cfg.target):
        if did not in by_id:
            raise ConfigError("source" if did in cfg.sources else "target",
                              f"domain {did!r} not in family "
                              f"({sorted(by_id)})")
    return family, [by_id[d] for d in cfg.sources], by_id[cfg.target]


def resolve_out_dir(flag: str | None, cfg_out: str) -> str:
    env = os.environ.get("CLDLAB_OUT")
    out = env if env else (flag if flag else cfg_out)
    os.makedirs(out, exist_ok=True)
    return out


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_csv(rows: list[dict]) -> str:
    """Result rows as CSV text under CSV_HEADER; floats in repr form."""
    cols = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def write_rows_csv(path: str, rows: list[dict]) -> None:
    _atomic_write(path, rows_csv(rows))


def write_json(path: str, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Batch assembly


def _train_batches(family, sources, cfg, seed):
    """One cell batch per source: the sample's (x, y) counts, or in
    population mode the exact P(x, y)."""
    batches = []
    for dom in sources:
        if cfg.trainer.data_mode == "population":
            p_xy = domain_p_xy(family, dom)
            xs, ys = np.nonzero(p_xy > 0.0)
            w = p_xy[xs, ys]
            batches.append(DomainBatch(dom.domain_id, xs, ys, w / w.sum()))
        else:
            ds = sample_dataset(family, dom, cfg.trainer.train_n,
                                derive_seed(seed, f"data:{dom.domain_id}"))
            batches.append(ob.cell_batch(dom.domain_id, ds.x, ds.y))
    return batches


def _minibatch(batch: DomainBatch, rng, k: int) -> DomainBatch:
    """k rows drawn with replacement from a sample, as cell counts."""
    draws = rng.multinomial(k, batch.weights)
    keep = draws > 0
    return DomainBatch(batch.domain_id, batch.inputs[keep], batch.labels[keep],
                       draws[keep] / k, draws[keep])


# ---------------------------------------------------------------------------
# Objective dispatch


class _RunState:
    """Mutable per-run context threaded through the step loop."""

    def __init__(self, cfg: ExperimentConfig, seed: int, lam):
        self.cfg = cfg
        self.seed = seed
        self.lam = lam  # objective.lambda; one per run on a stack
        self.pairs = None  # the pair table W[x, x~, y]
        self.adversaries = []  # DANN: one; CDANN: one per class plus one
        self.adv_opts = []
        self.adv_tapes = []  # the adversaries' tapes of the latest build
        self.swa_snapshots = []


@dataclass
class _Step:
    """What an objective builder reads for one step."""

    model: dk.Model
    tape: dk.Tape
    run: _RunState
    batches: list  # one cell batch per source
    step: int

    @functools.cached_property
    def w(self) -> np.ndarray:
        """The sources' weight table W[d, x, y] (`objectives.weight_table`),
        built on first read: MIXUP never reads it and RSC builds its own."""
        return ob.weight_table(self.model, self.batches)


# An objective builder maps a _Step to (base, pen): pen is the regularizer
# before lambda scales it, or None.  A builder returning pen is
# base trains on base alone and logs it as its penalty.

def _loss(c: _Step):
    return ob.mean_domain_loss(c.model, c.w, c.tape)


def _loss_only(c: _Step):
    return _loss(c), None


def _cells(penalty):
    """Mean domain loss plus penalty(model, weight table, tape)."""
    return lambda c: (_loss(c), penalty(c.model, c.w, c.tape))


def _pairs(kind):
    """Mean domain loss plus the pair term of kind on the run's pair table."""
    return lambda c: (_loss(c), ob.pair_penalty(c.model, c.run.pairs, kind,
                                                c.tape))


def _features(penalty):
    """Mean domain loss plus penalty(features, weights, counts, objective)
    on the observation table's feature rows once per source, weighted by
    W.sum(y)[d] and counting the source's rows (population: cells) there."""
    def build(c: _Step):
        table, w = ob._domain_tables(c.model, c.w, c.tape)
        counts = [np.bincount(b.inputs, b.counts, w.shape[1]).astype(np.int64)
                  for b in c.batches]
        return _loss(c), penalty([table.h] * len(c.batches),
                                 list(w.sum(axis=-1)), counts,
                                 c.run.cfg.objective)
    return build


def _adversarial(losses):
    """Label loss plus the adversaries' domain loss, on fresh adversary tapes
    that the step loop then trains the adversaries on."""
    def build(c: _Step):
        c.run.adv_tapes = [dk.Tape(a) for a in c.run.adversaries]
        label_loss, adv_loss, _, _ = losses(c)
        return label_loss, adv_loss
    return build


def _sd(model, sources, tape):
    """SD on the observation table's logits, each row weighted by its mean
    cell weight over the sources (W or cell batches)."""
    table, w = ob._domain_tables(model, sources, tape)
    value, vjp = ob._sd(table.vals["z"], w.sum(axis=-1).mean(axis=0))
    return table.term(value, lambda g: {"z": vjp(g)})


def _group_dro(c: _Step):
    worst = ob.group_dro(c.model, c.w, c.tape)
    return worst, worst


def _mixup(c: _Step):
    alpha = c.run.cfg.objective.extra("alpha")
    mixed = [ob.mixup(c.model, b, alpha,
                      derive_seed(c.run.seed, f"mixup:{c.step}:{b.domain_id}"))
             for b in c.batches]
    return ob.mixup_loss(c.model, mixed, c.tape), None


def _rsc(c: _Step):
    losses, _, _ = ob.rsc_losses(c.model, c.batches,
                                 c.run.cfg.objective.extra("q"), c.tape)
    return dk.nmean(losses), None


# AND_MASK trains on masked domain gradients (see _train); its entry
# supplies the base loss only.
OBJECTIVE_BUILDERS = {
    "ERM": _loss_only,
    "SWA": _loss_only,
    "AND_MASK": _loss_only,
    "PAIR_PROB": _pairs("PROB"),
    "PAIR_LOGIT": _pairs("LOGIT"),
    "PAIR_FEAT": _pairs("FEAT"),
    "LAM": _pairs("LAM"),
    "VREX": _cells(ob.vrex_penalty),
    "FISH": _cells(ob.fish_penalty),
    "IGA": _cells(ob.iga_penalty),
    "FISHR": lambda c: (_loss(c), ob.fishr_penalty(c.model, c.batches,
                                                   c.tape)),
    "IRM": _cells(ob.irm_penalty),
    "SD": _cells(_sd),
    "GROUP_DRO": _group_dro,
    "CORAL": _features(lambda feats, ws, ms, obj: ob.coral_penalty(
        feats, ws, ms)),
    "MMD": _features(lambda feats, ws, ms, obj: ob.mmd_penalty(
        feats, obj.extra("bandwidth"), ws, ms).node),
    "DANN": _adversarial(lambda c: ob.dann_losses(
        c.model, c.run.adversaries[0], c.w, c.tape, c.run.adv_tapes[0])),
    "CDANN": _adversarial(lambda c: ob.cdann_losses(
        c.model, c.run.adversaries, c.w, c.tape, c.run.adv_tapes)),
    "MIXUP": _mixup,
    "RSC": _rsc,
}


def _penalty_and_total(c: _Step):
    """Build (total_node, penalty_node) for one step on its tape.  When
    base and pen are terms on one table (`dk.Term`), the total is one
    more term whose vjp is theirs, base's at the total's adjoint g and
    pen's at lambda g; other builders' total is add and mul nodes."""
    base, pen = OBJECTIVE_BUILDERS[c.run.cfg.objective.kind](c)
    lam = c.run.lam
    if pen is None or pen is base:
        return base, pen
    if not (isinstance(base, dk.Term) and isinstance(pen, dk.Term)
            and base.table is pen.table):
        return dk.add(base, dk.mul(dk.constant(lam), pen)), pen
    extra = (*base.parents[1:], *pen.parents[1:])

    def vjp(g):
        (fb, *eb), (fp, *ep) = base.vjp(g), pen.vjp(lam * g)
        return (fb + fp, *eb, *ep) if extra else fb + fp
    return base.table.term(base.val + lam * pen.val, vjp, *extra), pen


def _eval_penalty(model, run: _RunState, batches) -> list:
    """Raw penalty value at the current parameters (no training side
    effects), one per run: a stack's runs from one build of its terms."""
    _, pen = OBJECTIVE_BUILDERS[run.cfg.objective.kind](
        _Step(model, dk.Tape(model), run, batches, -1))
    return np.reshape(np.zeros(model.runs) if pen is None else pen.val,
                      -1).tolist()


# ---------------------------------------------------------------------------
# Optimizers


class _Opt:
    def __init__(self, kind: str, lr: float):
        self.kind = kind
        self.lr = lr
        self.adam = dk.AdamState() if kind == "adam" else None

    def step(self, model, grads: np.ndarray) -> None:
        if self.kind == "adam":
            dk.adam_step(model, self.adam, grads, lr=self.lr)
        else:
            dk.sgd_step(model, grads, lr=self.lr)


def _swa_schedule(cfg: ExperimentConfig) -> tuple[int, int]:
    """(burn-in steps, snapshot interval) of an SWA run."""
    steps = cfg.trainer.steps
    burn_in, every = (cfg.objective.extra(k) for k in ("burn_in", "every"))
    return (steps // 2 if burn_in is None else burn_in,
            max(1, steps // 20 if every is None else every))


def _head_only(model, grads: np.ndarray) -> np.ndarray:
    """Zero every gradient block except the head, the last block (linear-probe
    phase)."""
    out = grads.copy()
    out[..., :grads.shape[-1] - (model.u_count + 1) * model.n_classes] = 0.0
    return out


# ---------------------------------------------------------------------------
# Run


@dataclass(frozen=True)
class ResultRecord:
    run_id: str
    config_hash: str
    rows: list
    csv_path: str
    summary_path: str
    checkpoint_path: str
    report_path: str | None = None


def _ci_estimate(table, family, cfg, dom, seed, n_pairs) -> CiEstimate:
    """The CI index of the model tabulated as table: under eval.exact the
    closed form (`exact_ci_index`, stderr 0 and n_pairs 0), else the Monte
    Carlo index over n_pairs pairs drawn from derive_seed(seed,
    "ci:<domain>")."""
    style = cfg.eval.ci_style
    if cfg.eval.exact:
        return CiEstimate(value=exact_ci_index(family, dom, table, style),
                          stderr=0.0, n_pairs=0, style=style)
    return _ci_index_table(table, family, dom, n_pairs, style,
                           derive_seed(seed, f"ci:{dom.domain_id}"))


def _eval_rows(model, family, runs, sources, target, step, seed, pens):
    """Each run's result rows (`_table_rows`), run r of the model (the model
    itself when it has no run axis) read from its own table of one forward
    (`metrics._run_tables`); runs holds each run's (config, run id, config
    hash) and pens its penalty value."""
    return [_table_rows(table, family, cfg, sources, target, step, run_id,
                        chash, seed, pen)
            for (cfg, run_id, chash), table, pen in zip(
                runs, _run_tables(model, family), pens)]


def _table_rows(table, family, cfg, sources, target, step, run_id, chash,
                seed, pen_val):
    """One result row per source and for the target, all read from the
    run's predictor table.  Sampled evaluation draws from derive_seed(seed,
    "eval:<domain>") and the CI index is `_ci_estimate`'s, so any caller
    with the same seed gets the same rows."""
    rows = []
    for dom, split in [*((d, "source") for d in sources), (target, "target")]:
        res = (_evaluate_table(table, family, dom) if cfg.eval.exact
               else _evaluate_table(table, family, dom, cfg.eval.n_samples,
                                    derive_seed(seed, f"eval:{dom.domain_id}")))
        ci = None
        if cfg.eval.ci_pairs > 0:
            ci = _ci_estimate(table, family, cfg, dom, seed,
                              cfg.eval.ci_pairs).value
        rows.append({
            "run_id": run_id, "config_hash": chash, "step": step,
            "domain_id": dom.domain_id, "split": split,
            "loss_nats": float(res.loss), "accuracy": float(res.accuracy),
            "ci_index": ci, "penalty_value": pen_val,
            "penalty_kind": cfg.objective.kind, "seed": seed,
        })
    return rows


def _finite(rows: list[dict]) -> list[dict]:
    """rows, if every loss, CI index and penalty in them is finite; else
    NonFiniteActivation naming the step, the domain and the field."""
    for row in rows:
        for key in ("loss_nats", "ci_index", "penalty_value"):
            if row[key] is not None and not np.isfinite(row[key]):
                raise NonFiniteActivation(
                    f"step {row['step']}, domain {row['domain_id']}: "
                    f"{key} is {row[key]!r}")
    return rows


@dataclass(frozen=True)
class _Plan:
    """One run before it trains: its config, seed, output directory, names
    and resolved domains."""

    cfg: ExperimentConfig
    seed: int
    out: str
    chash: str
    stored: str  # the config's canonical JSON with the seed stamped in
    domains: tuple  # (family, source domains, target domain)

    @property
    def run_id(self) -> str:
        return f"{self.chash}-s{self.seed}"


def _plan(cfg: ExperimentConfig, seed: int, out_dir: str | None) -> _Plan:
    out = resolve_out_dir(out_dir, cfg.out)
    chash, stored = _stamped(cfg, seed)
    return _Plan(cfg, seed, out, chash, stored, _resolve_domains(cfg))


def _train(plans: list[_Plan]) -> list[tuple[list, dk.Model]]:
    """Train the runs of plans, whose configs differ at most in
    objective.lambda and which share seed and domains: one run with no run
    axis, several as one stack on a leading run axis that shares init,
    data, pairs and minibatch draws.  Returns each run's result rows and
    final model.  An evaluation point builds the penalty terms once and
    runs one forward over every observation, for all runs of a stack; each
    run's rows read its own slice of both."""
    cfg, seed = plans[0].cfg, plans[0].seed
    family, sources, target = plans[0].domains
    s = family.spaces
    model = dk.init_model(s.n_obs, cfg.model.widths, s.n_classes,
                          embedding=cfg.model.embedding,
                          seed=derive_seed(seed, "init"))
    lam = cfg.objective.lam
    if len(plans) > 1:
        model = dk.stack_runs(model, len(plans))
        lam = np.array([p.cfg.objective.lam for p in plans])
    batches = _train_batches(family, sources, cfg, seed)
    kind = cfg.objective.kind

    run = _RunState(cfg, seed, lam)
    if kind in PAIR_KINDS:  # the first source's pair table: the exact pair
        # law in population mode, else the sampled pairs' counts over n
        run.pairs = (pair_law(family, sources[0], cfg.pairs.style)
                     if cfg.trainer.data_mode == "population" else pair_table(
                         sample_pairs(family, sources[0], cfg.pairs.n,
                                      style=cfg.pairs.style,
                                      seed=derive_seed(seed, "pairs")),
                         s.n_obs, s.n_classes))
    if kind in ("DANN", "CDANN"):
        labels = (["adv"] if kind == "DANN"
                  else [f"adv:{k}" for k in range(s.n_classes + 1)])
        widths = cfg.objective.extra("adv_widths")
        run.adversaries = [
            dk.init_raw_model(model.u_count, widths, len(sources),
                              seed=derive_seed(seed, label))
            for label in labels]
        run.adv_opts = [_Opt(cfg.trainer.optimizer, cfg.trainer.lr)
                        for _ in labels]

    opt = _Opt(cfg.trainer.optimizer, cfg.trainer.lr)
    order_rng = substream(seed, "data")
    swa = _swa_schedule(cfg) if kind == "SWA" else None
    rows: list = [[] for _ in plans]
    named = [(p.cfg, p.run_id, p.chash) for p in plans]

    def evaluate(m: dk.Model, step: int) -> None:
        # one penalty build and one forward for all the runs of a stack
        pens = _eval_penalty(m, run, batches)
        for out, new in zip(rows, _eval_rows(m, family, named, sources,
                                             target, step, seed, pens)):
            out.extend(_finite(new))

    w = None if cfg.trainer.batch_size else ob.weight_table(model, batches)
    for step in range(1, cfg.trainer.steps + 1):
        step_batches = batches if cfg.trainer.batch_size is None else [
            _minibatch(b, order_rng, cfg.trainer.batch_size) for b in batches]

        c = _Step(model, dk.Tape(model), run, step_batches, step)
        if w is not None:  # full batch: every step reads the run's W
            c.w = w
        try:
            if kind == "AND_MASK":  # closed-form domain gradients, no backward
                grads = ob.and_mask(
                    ob._domain_grads(model, c.w, c.tape).val,
                    cfg.objective.extra("tau"))
            else:
                total, pen = _penalty_and_total(c)
                grads = dk.backward(c.tape, total)
                for adv, adv_tape, adv_opt in zip(run.adversaries,
                                                  run.adv_tapes, run.adv_opts):
                    adv_opt.step(adv, dk.backward(adv_tape, pen))

            if step <= cfg.trainer.head_only_steps:
                grads = _head_only(model, grads)
            opt.step(model, grads)
        except NonFiniteActivation as exc:
            raise NonFiniteActivation(f"step {step}: {exc}") from exc

        if swa and step > swa[0] and (step - swa[0]) % swa[1] == 0:
            run.swa_snapshots.append(model.clone())

        if cfg.trainer.eval_every and step % cfg.trainer.eval_every == 0 \
                and step < cfg.trainer.steps:
            evaluate(model, step)

    final_model = model
    if kind == "SWA" and len(run.swa_snapshots) >= 2:
        final_model = ob.swa_average(run.swa_snapshots)
    evaluate(final_model, cfg.trainer.steps)
    finals = ([final_model.run(r) for r in range(len(plans))]
              if final_model.runs else [final_model])
    return list(zip(rows, finals))


def _write_config(plan: _Plan) -> None:
    _atomic_write(os.path.join(plan.out, f"config-{plan.chash}.json"),
                  plan.stored + "\n")


def _write_run(plan: _Plan, rows: list, model: dk.Model) -> ResultRecord:
    """A trained run's CSV, checkpoint and summary."""
    run_id, out = plan.run_id, plan.out
    csv_path = os.path.join(out, f"run-{run_id}.csv")
    write_rows_csv(csv_path, rows)
    ckpt_path = os.path.join(out, f"model-{run_id}.json")
    dk.save_checkpoint(model, ckpt_path)
    summary_path = os.path.join(out, f"run-{run_id}.json")
    write_json(summary_path, {
        "run_id": run_id, "config_hash": plan.chash, "seed": plan.seed,
        "status": "ok", "rows": rows, "csv": os.path.basename(csv_path),
        "checkpoint": os.path.basename(ckpt_path),
    })
    return ResultRecord(run_id=run_id, config_hash=plan.chash, rows=rows,
                        csv_path=csv_path, summary_path=summary_path,
                        checkpoint_path=ckpt_path)


def run_experiment(cfg: ExperimentConfig, *, seed: int | None = None,
                   out_dir: str | None = None) -> ResultRecord:
    """Train per config, evaluate source(s) and target, persist results.

    Fully deterministic for a given (config, seed): no wall-clock content
    is written, files are written atomically, floats use repr round-trip
    formatting.
    """
    plan = _plan(cfg, cfg.trainer.seed if seed is None else seed, out_dir)
    _write_config(plan)
    try:
        [(rows, final_model)] = _train([plan])
    except NonFiniteActivation as exc:
        write_json(os.path.join(plan.out, f"run-{plan.run_id}.json"),
                   {"run_id": plan.run_id, "config_hash": plan.chash,
                    "seed": plan.seed, "status": "numeric-failure",
                    "error": str(exc)})
        raise
    return _write_run(plan, rows, final_model)


# ---------------------------------------------------------------------------
# Verify / sweep / generate


def verify_suite(family_source: str, *, out_dir: str | None = None,
                 seed: int = 0, out_name: str | None = None):
    """Run the theorem checks and persist the report; returns (report, path)."""
    family, domains = resolve_family(family_source)
    report = verify_theorems(family, domains, seed=seed)
    out = resolve_out_dir(out_dir, "results")
    base = out_name if out_name else os.path.splitext(
        os.path.basename(family_source))[0]
    path = os.path.join(out, f"verify-{base}.json")
    write_json(path, {"family": family_source, "seed": seed,
                      "all_pass": report.all_pass,
                      "claims": report.to_dict()["claims"]})
    return report, path


def _set_by_path(doc: dict, dotted: str, value) -> None:
    """Set doc's field at a dotted grid key, making missing objects on the
    way; ConfigError("grid.<key>") where the path runs through a value
    that is not an object."""
    *parents, last = dotted.split(".")
    cur = doc
    for i, p in enumerate(parents):
        cur = cur.setdefault(p, {})
        if not isinstance(cur, dict):
            raise ConfigError(f"grid.{dotted}", f"{'.'.join(parents[:i + 1])} "
                                                "is not an object")
    cur[last] = value


def _lambda_group(plan: _Plan):
    """The key shared by the runs that train as one stack: a stacked kind's
    stored config (run seed stamped in) without objective.lambda; None for
    a run that trains alone."""
    if plan.cfg.objective.kind not in STACKED_KINDS:
        return None
    doc = json.loads(plan.stored)
    del doc["objective"]["lambda"]
    return canonical_json(doc)


def sweep(base_doc: dict, grid: dict, *, out_dir: str | None = None) -> list:
    """Cartesian product over dotted config paths; one run per combination.

    Unless the grid itself addresses trainer.seed, a run's seed is base
    seed + the index of its combination of the keys other than
    objective.lambda, so the runs that differ only in lambda share data,
    init and pairs.  Returns the ResultRecords; sweep.csv holds one row
    per run (its final target-domain row), full detail stays in per-run CSVs.

    Every combination is parsed and resolved before the first run.  Runs
    of a kind in STACKED_KINDS whose configs differ only in
    objective.lambda and whose seeds agree train as one stack; each run's
    artifacts are those of its own run_experiment.  A stack that meets a
    non-finite value is discarded unwritten and its runs train one at a
    time, so the files and the error are those of run_experiment in turn.
    """
    if not isinstance(grid, dict):
        raise ConfigError("grid", "must be an object of field -> value list")
    for key, vals in grid.items():
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"grid.{key}", "must be a nonempty list")
    keys = sorted(grid)
    base_cfg = config_from_dict(base_doc)  # validate before deep-copying
    base_seed = base_cfg.trainer.seed
    explicit_seed = "trainer.seed" in keys
    seed_index: dict = {}  # non-lambda value indices -> their combination's index
    plans = []
    for combo in itertools.product(*(range(len(grid[k])) for k in keys)):
        doc = json.loads(canonical_json(base_doc))
        for key, i in zip(keys, combo):
            _set_by_path(doc, key, grid[key][i])
        cfg = config_from_dict(doc)
        rest = tuple(i for key, i in zip(keys, combo) if key != "objective.lambda")
        run_seed = (cfg.trainer.seed if explicit_seed
                    else base_seed + seed_index.setdefault(rest, len(seed_index)))
        plans.append(_plan(cfg, run_seed, out_dir))
    groups: dict = {}
    for i, plan in enumerate(plans):
        groups.setdefault(_lambda_group(plan) or i, []).append(i)
    members = {i: group for group in groups.values() for i in group}
    trained: dict = {}
    records = []
    summary_rows = []
    for i, plan in enumerate(plans):
        group = members[i]
        if len(group) > 1 and group[0] not in trained:
            # a stack that meets a non-finite value is dropped unwritten,
            # and its runs train one at a time below
            try:
                trained[group[0]] = _train([plans[j] for j in group])
            except NonFiniteActivation:
                trained[group[0]] = None
        result = trained.get(group[0])
        if result is None:
            rec = run_experiment(plan.cfg, seed=plan.seed, out_dir=out_dir)
        else:
            _write_config(plan)
            rec = _write_run(plan, *result[group.index(i)])
        records.append(rec)
        summary_rows.append([r for r in rec.rows if r["split"] == "target"][-1])
    out = resolve_out_dir(out_dir, base_cfg.out)
    write_rows_csv(os.path.join(out, "sweep.csv"), summary_rows)
    return records


def generate_artifacts(cfg: ExperimentConfig, *, seed: int | None = None,
                       out_dir: str | None = None) -> list:
    """Sample per-domain datasets and source pairs to JSONL files."""
    eff_seed = cfg.trainer.seed if seed is None else seed
    out = resolve_out_dir(out_dir, cfg.out)
    family, sources, target = _resolve_domains(cfg)
    paths = []
    for dom in (*sources, target):
        ds = sample_dataset(family, dom, cfg.trainer.train_n,
                            derive_seed(eff_seed, f"data:{dom.domain_id}"))
        path = os.path.join(out, f"dataset-{dom.domain_id}.jsonl")
        lines = [json.dumps({"x": int(x), "y": int(y), "xc": int(c),
                             "xn": int(n)}, sort_keys=True)
                 for x, y, c, n in zip(ds.x, ds.y, ds.xc, ds.xn)]
        _atomic_write(path, "\n".join(lines) + "\n")
        paths.append(path)
    pairs = sample_pairs(family, sources[0], cfg.pairs.n,
                         style=cfg.pairs.style,
                         seed=derive_seed(eff_seed, "pairs"))
    ppath = os.path.join(out, f"pairs-{cfg.sources[0]}.jsonl")
    write_pairs_jsonl(pairs, ppath)
    paths.append(ppath)
    return paths
