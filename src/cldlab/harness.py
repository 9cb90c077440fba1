"""Deterministic experiment execution: config ingestion, training loop,
evaluation rows, verification, sweeps, and atomic result persistence."""

from __future__ import annotations

import hashlib
import functools
import itertools
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

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


# perfbench's tracer keys data and evaluation on _train_batches, _eval_penalty
def _train_batches(family, sources, cfg, seed):
    """The sources' tables (W, N) of shape [D, n_obs, C]: N[d, x, y] counts
    the sample's (x, y) cells and W = N / train_n, or in population mode W
    is the exact P(x, y) and N is 1 on its cells."""
    if cfg.trainer.data_mode == "population":
        p = np.stack([domain_p_xy(family, dom) for dom in sources])
        return (np.stack([pd / pd[pd > 0.0].sum() for pd in p]),
                (p > 0.0).astype(np.int64))
    s, n = family.spaces, cfg.trainer.train_n
    data = [sample_dataset(family, dom, n, derive_seed(seed, f"data:{dom.domain_id}"))
            for dom in sources]
    counts = np.stack([np.bincount(ds.x * s.n_classes + ds.y,
                                   minlength=s.n_obs * s.n_classes)
                       for ds in data]).reshape(len(data), s.n_obs, s.n_classes)
    return counts / n, counts


def _minibatch(w: np.ndarray, n: np.ndarray, rng, k: int):
    """The tables (W, N) of k rows per source drawn with replacement: one
    multinomial over each source's nonzero cells of w, in their flat order
    (`objectives._nonzero_cells`)."""
    draws = np.zeros(n.shape, dtype=np.int64)
    for wd, dd in zip(w, draws):
        xs, ys, cell_w = ob._nonzero_cells(wd)
        dd[xs, ys] = rng.multinomial(k, cell_w)
    return draws / k, draws


# ---------------------------------------------------------------------------
# Step rules: one per objective kind


class _RunState:
    """Mutable per-run context threaded through the step loop.  The state
    that only some kinds read, the pair table and the adversaries, is made
    on first use from the run's config, seed and domains."""

    def __init__(self, cfg: ExperimentConfig, seed: int, lam, domains=None):
        self.cfg = cfg
        self.seed = seed
        self.lam = lam  # objective.lambda; one per run on a stack
        self.domains = domains  # (family, sources, target); None: cfg's
        self.snapshots = []  # the models a rule's `after` keeps (SWA)

    @functools.cached_property
    def pairs(self) -> np.ndarray:
        """The first source's pair table W[x, x~, y]: the exact pair law in
        population mode, else the sampled pairs' counts over n."""
        family, sources, _ = self.domains or _resolve_domains(self.cfg)
        cfg, s = self.cfg, family.spaces
        if cfg.trainer.data_mode == "population":
            return pair_law(family, sources[0], cfg.pairs.style)
        return pair_table(sample_pairs(family, sources[0], cfg.pairs.n,
                                       style=cfg.pairs.style,
                                       seed=derive_seed(self.seed, "pairs")),
                          s.n_obs, s.n_classes)

    @functools.cached_property
    def advs(self) -> list:
        """(adversary, optimiser) pairs: DANN's one, or CDANN's one per
        class plus one, each a model on the feature rows (the last layer's
        width, or the embedding's with no layers) over the sources."""
        family, sources, _ = self.domains or _resolve_domains(self.cfg)
        cfg, s = self.cfg, family.spaces
        labels = (["adv"] if cfg.objective.kind == "DANN"
                  else [f"adv:{k}" for k in range(s.n_classes + 1)])
        width = (cfg.model.widths or (dk.make_embedding(
            cfg.model.embedding, s.n_obs).shape[1],))[-1]
        return [(dk.init_raw_model(width, cfg.objective.extra("adv_widths"),
                                   len(sources), seed=derive_seed(self.seed, label)),
                 _Opt(cfg.trainer.optimizer, cfg.trainer.lr))
                for label in labels]


@dataclass
class _Step:
    """What a step rule reads: the model, the run, the run's tables (in
    minibatch mode the step's) and the step number (-1 at an evaluation
    point)."""

    model: dk.Model
    run: _RunState
    w: np.ndarray  # the sources' cell weights W[d, x, y]
    n: np.ndarray  # the rows each cell stands for, N[d, x, y]
    step: int


class _Rule(NamedTuple):
    """A kind's step rule: grad maps a `_Step` to the flat gradient the
    step descends (and makes the kind's own updates, as DANN's and CDANN's
    adversaries'); pen maps it to the penalty per run before lambda scales
    it, or is None for a kind with none; after, if set, runs after each
    update of the model."""

    grad: Callable
    pen: Callable | None = None
    after: Callable | None = None


def _table(c: _Step) -> dict:
    """The forward core over every observation on the step's model, W's
    shape checked."""
    ob._table_weights(c.model, c.w)
    # the embedding is the rows of arange(n_obs), as embed_inputs reads them
    return dk.forward_core(c.model.params, np.ascontiguousarray(
        c.model.embedding, dtype=np.float64))


def _closed(base, pen=None) -> _Rule:
    """The rule of a kind whose terms are closed forms on the table of one
    forward core: base and pen map the step and that table to (value, vjp
    to the table's fields) pairs; pen is None for none, or base itself when
    the base is the penalty.  The step backs the fields' adjoints of base
    at ones and of pen at lambda, added field by field, through
    `dk.backprop_core`, with no graph."""
    def grad(c: _Step) -> np.ndarray:
        t = _table(c)
        g = np.ones(c.model.runs)
        fields = base(c, t)[1](g)
        if pen is not None and pen is not base:
            for key, adj in pen(c, t)[1](c.run.lam * g).items():
                fields[key] = fields[key] + adj if key in fields else adj
        return dk.backprop_core(t, c.model.params, fields)[0]
    return _Rule(grad, None if pen is None else lambda c: pen(c, _table(c))[0])


def _form(form):
    """form(model, table, W) of the step."""
    return lambda c, t: form(c.model, t, c.w)


def _pair(kind):
    """The pair term of kind on the run's pair table."""
    return lambda c, t: ob._pair_form(c.model, t, c.model.head, c.run.pairs,
                                      kind)


def _traced(base, pen=None) -> _Rule:
    """The rule of base + lambda pen as nodes on a fresh tape of the step's
    model: base and pen map the step and the tape to nodes, pen None for
    none; the step descends `dk.backward` of the total."""
    def grad(c: _Step) -> np.ndarray:
        tape = dk.Tape(c.model)
        total = base(c, tape)
        if pen is not None:
            p = pen(c, tape)
            total = dk.add(total, dk.mul(dk.constant(c.run.lam), p))
        return dk.backward(tape, total)
    return _Rule(grad, None if pen is None else
                 lambda c: pen(c, dk.Tape(c.model)).val)


def _cells(penalty):
    """penalty(model, weight table, tape)."""
    return lambda c, tape: penalty(c.model, c.w, tape)


def _features(penalty):
    """penalty(H, W.sum(y), N.sum(y), objective) on the observation table's
    one feature matrix (exact for W = N / n)."""
    def build(c: _Step, tape) -> dk.Node:
        table, w = ob._domain_tables(c.model, c.w, tape)
        return penalty(table.h, w.sum(axis=-1), c.n.sum(axis=-1),
                       c.run.cfg.objective)
    return build


def _rsc(c: _Step, tape) -> dk.Node:
    """The mean of the sources' losses on their masked features."""
    losses, _, _ = ob.rsc_losses(c.model, c.w,
                                 c.run.cfg.objective.extra("q"), tape)
    return dk.nmean(losses)


def _mixup(c: _Step, tape) -> dk.Node:
    """Each source's rows, expanded from N's nonzero cells, mixed."""
    alpha = c.run.cfg.objective.extra("alpha")
    cells = [(sid, *ob._nonzero_cells(nd)) for sid, nd in zip(c.run.cfg.sources, c.n)]
    mixed = [ob.mixup(c.model, DomainBatch(sid, xs, ys, counts=reps), alpha,
                      derive_seed(c.run.seed, f"mixup:{c.step}:{sid}"))
             for sid, xs, ys, reps in cells]
    return ob.mixup_loss(c.model, mixed, tape)


def _adversarial(losses) -> _Rule:
    """Label loss plus lambda times the adversaries' domain loss, from
    losses(step, tape) = (label loss, adversary loss, tape, the adversary
    tapes: DANN's one, CDANN's list); the step also trains each adversary
    on its own tape."""
    def grad(c: _Step) -> np.ndarray:
        tape = dk.Tape(c.model)
        label, adv, _, adv_tapes = losses(c, tape)
        grads = dk.backward(tape, dk.add(label, dk.mul(dk.constant(c.run.lam),
                                                       adv)))
        if not isinstance(adv_tapes, list):  # DANN's one adversary's
            adv_tapes = [adv_tapes]
        for (adversary, opt), adv_tape in zip(c.run.advs, adv_tapes):
            opt.step(adversary, dk.backward(adv_tape, adv))
        return grads
    return _Rule(grad, lambda c: losses(c, dk.Tape(c.model))[1].val)


def _swa_snapshot(c: _Step) -> None:
    """Keep a copy of the model every `every` steps after `burn_in` steps
    (by default a twentieth of the steps, after half of them)."""
    steps, extra = c.run.cfg.trainer.steps, c.run.cfg.objective.extra
    burn_in = steps // 2 if extra("burn_in") is None else extra("burn_in")
    every = max(1, steps // 20 if extra("every") is None else extra("every"))
    if c.step > burn_in and (c.step - burn_in) % every == 0:
        c.run.snapshots.append(c.model.clone())


_loss = _cells(ob.mean_domain_loss)
_loss_form = _form(ob._mean_loss)
_worst_loss = _form(ob._worst_form)

# One step rule per objective kind.  The ten kinds whose terms read only
# the observation table step on closed forms with no graph (`_closed`);
# the others build nodes on a tape (`_traced`, `_adversarial`), except
# AND_MASK, which masks closed-form domain gradients.
STEPS = {
    "ERM": _closed(_loss_form),
    "PAIR_PROB": _closed(_loss_form, _pair("PROB")),
    "PAIR_LOGIT": _closed(_loss_form, _pair("LOGIT")),
    "PAIR_FEAT": _closed(_loss_form, _pair("FEAT")),
    "LAM": _closed(_loss_form, _pair("LAM")),
    "VREX": _closed(_loss_form, _form(ob._vrex_form)),
    "GROUP_DRO": _closed(_worst_loss, _worst_loss),
    "FISH": _traced(_loss, _cells(ob.fish_penalty)),
    "IGA": _traced(_loss, _cells(ob.iga_penalty)),
    "AND_MASK": _Rule(lambda c: ob.and_mask(  # closed-form domain gradients
        ob._domain_grads(c.model, c.w).val, c.run.cfg.objective.extra("tau"))),
    "FISHR": _traced(_loss, _cells(ob.fishr_penalty)),
    "IRM": _closed(_loss_form, _form(ob._irm_form)),
    "SD": _closed(_loss_form, _form(ob._sd_form)),
    "RSC": _traced(_rsc),
    "CORAL": _traced(_loss, _features(lambda f, w, m, obj: ob._coral(f, w, m))),
    "MMD": _traced(_loss, _features(lambda f, w, m, obj: ob._mmd(
        f, w, m, obj.extra("bandwidth")).node)),
    "DANN": _adversarial(lambda c, tape: ob.dann_losses(
        c.model, c.run.advs[0][0], c.w, tape)),
    "CDANN": _adversarial(lambda c, tape: ob.cdann_losses(
        c.model, [a for a, _ in c.run.advs], c.w, tape)),
    "MIXUP": _traced(_mixup),
    "SWA": _closed(_loss_form)._replace(after=_swa_snapshot),
}


def _eval_penalty(model, run: _RunState, w: np.ndarray, n: np.ndarray) -> list:
    """The kind's penalty at the current parameters, one per run, with no
    training side effects: a stack's runs from one evaluation of its rule's
    pen, and 0 with nothing built for a kind with none."""
    pen = STEPS[run.cfg.objective.kind].pen
    value = (np.zeros(model.runs) if pen is None
             else pen(_Step(model, run, w, n, -1)))
    return np.reshape(value, -1).tolist()


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
    family, sources, target = domains = _resolve_domains(cfg)
    kind = cfg.objective.kind
    if cfg.trainer.data_mode == "population" and kind in TWO_ROW_KINDS:
        for dom in sources:
            _require(np.count_nonzero(domain_p_xy(family, dom)) > 1, "source",
                     f"objective {kind} needs >= 2 (x, y) cells per domain")
    return _Plan(cfg, seed, out, chash, stored, domains)


def _train(plans: list[_Plan]) -> list[tuple[list, dk.Model]]:
    """Train the runs of plans, whose configs differ at most in
    objective.lambda and which share seed and domains: one run with no run
    axis, several as one stack on a leading run axis that shares init,
    data, pairs and minibatch draws.  Returns each run's result rows and
    final model.  A step is the kind's rule (`STEPS`).  An evaluation point
    takes the rule's penalty once and runs one forward over every
    observation, for all runs of a stack; each run's rows read its own
    slice of both."""
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
    w, n = _train_batches(family, sources, cfg, seed)
    rule = STEPS[cfg.objective.kind]
    run = _RunState(cfg, seed, lam, plans[0].domains)
    opt = _Opt(cfg.trainer.optimizer, cfg.trainer.lr)
    order_rng = substream(seed, "data")
    rows: list = [[] for _ in plans]
    named = [(p.cfg, p.run_id, p.chash) for p in plans]

    def evaluate(m: dk.Model, step: int) -> None:
        # one penalty and one forward for all the runs of a stack
        pens = _eval_penalty(m, run, w, n)
        for out, new in zip(rows, _eval_rows(m, family, named, sources,
                                             target, step, seed, pens)):
            out.extend(_finite(new))

    for step in range(1, cfg.trainer.steps + 1):
        tables = ((w, n) if cfg.trainer.batch_size is None
                  else _minibatch(w, n, order_rng, cfg.trainer.batch_size))
        c = _Step(model, run, *tables, step)
        try:
            grads = rule.grad(c)
            if step <= cfg.trainer.head_only_steps:
                grads = _head_only(model, grads)
            opt.step(model, grads)
        except NonFiniteActivation as exc:
            raise NonFiniteActivation(f"step {step}: {exc}") from exc
        if rule.after is not None:
            rule.after(c)

        if cfg.trainer.eval_every and step % cfg.trainer.eval_every == 0 \
                and step < cfg.trainer.steps:
            evaluate(model, step)

    final_model = (ob.swa_average(run.snapshots) if len(run.snapshots) >= 2
                   else model)
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
