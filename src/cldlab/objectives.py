"""The DG objective zoo.

Each entry either builds a scalar loss node on a shared tape (so one backward
pass trains everything jointly) or transforms gradients/forwards directly.

Every term that reads observation indices (domain cells, pair tables)
reads the tape's whole observation table, `diffkit.obs_rows`, with weights
on its rows: one forward over every observation (RSC's with a feature mask
per source) gives H, z, log p and p, and a step runs it once whatever its
terms.  Only inputs that are not indices (mixed rows, an adversary's
feature rows) get a forward of their own.

Conventions fixed here once:
  * variance across domains is population variance (divide by K);
  * every pair term reads one dense pair table W[x, x~, y] (`pair_penalty`);
    pair and group lists are converted to one (`pairgen.pair_table`);
  * within-group variance for pair groups is the unbiased sample variance
    (so a 2-member group equals half the pair squared difference);
  * probability matching uses D_KL(p(.|x) || p(.|x~)) as written;
  * Gaussian-kernel MMD bandwidth is the median pooled pairwise squared
    distance (`median_bandwidth`, the one median rule of the package),
    recomputed per batch and kept inside the graph;
  * a batch is a table of (x, y) cells with their probabilities and, for a
    sample, the rows each stands for, so cells give the values of the rows;
  * the domain terms (the domain losses, FISH, IGA, IRM, SD, RSC, DANN,
    CDANN, CORAL and MMD) read the sources as one cell-weight table
    W[d, x, y] on the observation table, converted once from cell batches
    of observation indices (`weight_table`); a term that reads only W takes
    W itself or the cell batches (`Sources`);
  * gradient penalties map logit adjoints through one closed-form backprop
    (`_grads`) as ops on the table, so a step needs one first-order backward;
  * the terms that read only the table (the soft NLL behind every loss,
    the four pair kinds, V-REx, GroupDRO, SD and IRM) are closed forms on
    the forward's arrays, one node each (`diffkit.ObsTable.term`); they
    reduce over trailing or domain axes only, so on a stack of runs
    (`diffkit.stack_runs`) they give one entry per run.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import diffkit as dk
from .diffkit import Model, Node, Tape
from .errors import (
    ConfigError,
    ShapeMismatch,
    TooFewDomains,
    TooFewExamples,
    UnlabeledPair,
)
from .pairgen import PairGroup, pair_table
from .rng import substream

KINDS = ("ERM", "PAIR_PROB", "PAIR_LOGIT", "PAIR_FEAT", "LAM", "VREX",
         "GROUP_DRO", "FISH", "IGA", "AND_MASK", "FISHR", "IRM", "SD", "RSC",
         "CORAL", "MMD", "DANN", "CDANN", "MIXUP", "SWA")


@dataclass(frozen=True)
class DomainBatch:
    """One domain's rows or (x, y) cells: weights give each entry's
    probability (uniform if None), counts the sample rows each cell stands
    for (None: one row each, or an exact population)."""

    domain_id: str
    inputs: np.ndarray
    labels: np.ndarray
    weights: np.ndarray | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        if len(self) == 0:
            raise ShapeMismatch("empty domain batch")
        if np.asarray(self.labels).shape[0] != len(self):
            raise ShapeMismatch("inputs and labels length mismatch")
        if self.weights is not None and abs(float(np.sum(self.weights)) - 1.0) > 1e-9:
            raise ShapeMismatch("batch weights must sum to 1")
        if self.counts is not None and (np.shape(self.counts) != (len(self),)
                                        or np.any(np.asarray(self.counts) < 1)):
            raise ShapeMismatch("batch counts must give each cell >= 1 row")

    def __len__(self) -> int:
        return int(np.asarray(self.inputs).shape[0])


def cell_batch(domain_id: str, inputs, labels) -> DomainBatch:
    """Example rows collapsed to their distinct (x, y) cells, each weighted
    by its share of the rows and carrying its row count."""
    cells, counts = np.unique(np.stack([inputs, labels], axis=1), axis=0,
                              return_counts=True)
    return DomainBatch(domain_id, cells[:, 0], cells[:, 1],
                       weights=counts / counts.sum(), counts=counts)


Sources = np.ndarray | list[DomainBatch]  # W[d, x, y] or the cell batches


# Each kind's objective.extras keys with their defaults; no other key is
# accepted.  SWA's None defaults stand for steps // 2 and steps // 20.
EXTRAS = {
    "RSC": {"q": 0.33},
    "AND_MASK": {"tau": 1.0},
    "MIXUP": {"alpha": 0.3},
    "MMD": {"bandwidth": None},
    "DANN": {"adv_widths": (16,)},
    "CDANN": {"adv_widths": (16,)},
    "SWA": {"burn_in": None, "every": None},
}

# The types of the extras whose default is None; every other extra takes
# its default's type.
_EXTRA_TYPES = {"bandwidth": "float | None", "burn_in": "int | None",
                "every": "int | None"}

_EXTRA_RULES = {
    "q": (lambda v: 0.0 < v < 1.0, "q must be in (0,1)"),
    "tau": (lambda v: 0.5 < v <= 1.0, "tau must be in (0.5,1]"),
    "alpha": (lambda v: v > 0, "alpha must be > 0"),
    "bandwidth": (lambda v: v is None or v > 0, "must be > 0"),
    "adv_widths": (lambda v: all(w >= 1 for w in v), "must be positive integers"),
}


def _integral(v) -> bool:
    """v is an integral JSON number; a boolean is not a number."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and (isinstance(v, int) or v.is_integer()))


# Config value types by annotation name: (accepts, converts, message).  An
# int takes any integral number, a float any finite one, a tuple a list of
# integral numbers.
_TYPES = {
    "int": (_integral, int, "must be an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max, float, "must be a finite number"),
    "bool": (lambda v: isinstance(v, bool), bool, "must be true or false"),
    "str": (lambda v: isinstance(v, str), str, "must be a string"),
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(_integral, v)),
              lambda v: tuple(map(int, v)), "must be a list of integers"),
}


def _typed(path: str, value, annotation: str):
    """value as the type its field annotation names ("int | None" also
    takes null); ConfigError(path) if it is not one."""
    name, _, optional = annotation.partition(" | ")
    if optional == "None" and value is None:
        return None
    accepts, convert, message = _TYPES[name]
    if not accepts(value):
        raise ConfigError(path, message)
    return convert(value)


def _object(path: str, value, allowed) -> dict:
    """value, which must be a JSON object whose keys are all in allowed."""
    if not isinstance(value, dict):
        raise ConfigError(path, "must be a JSON object")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")
    return value


def read_spec(doc: dict, section: str, cls):
    """The config dataclass cls from doc[section]: unknown keys are refused,
    each given value is typed by its field's annotation (a string, as under
    `from __future__ import annotations`), absent fields take their
    defaults."""
    types = {f.name: f.type for f in fields(cls)}
    sub = _object(section, doc.get(section, {}), types)
    return cls(**{k: _typed(f"{section}.{k}", v, types[k]) for k, v in sub.items()})


@dataclass(frozen=True)
class ObjectiveConfig:
    kind: str
    lam: float = 0.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError("objective.kind", f"unknown kind {self.kind!r}")
        lam = _typed("objective.lambda", self.lam, "float")
        if lam < 0:
            raise ConfigError("objective.lambda", "must be nonnegative")
        allowed = EXTRAS.get(self.kind, {})
        extras = {}
        for key, value in _object("objective.extras", self.extras, allowed).items():
            path = f"objective.extras.{key}"
            extras[key] = _typed(path, value, _EXTRA_TYPES.get(
                key, type(allowed[key]).__name__))
            rule = _EXTRA_RULES.get(key)
            if rule and not rule[0](extras[key]):
                raise ConfigError(path, rule[1])
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "extras", extras)

    def extra(self, key: str):
        """The configured extras value for key, else the kind's default."""
        return self.extras.get(key, EXTRAS[self.kind][key])

    @classmethod
    def from_dict(cls, doc: dict) -> "ObjectiveConfig":
        _object("objective", doc, ("kind", "lambda", "extras"))
        if "kind" not in doc:
            raise ConfigError("objective.kind", "missing")
        return cls(doc["kind"], doc.get("lambda", 0.0), doc.get("extras", {}))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "lambda": self.lam, "extras": dict(self.extras)}


# ---------------------------------------------------------------------------
# ERM and the observation table
# ---------------------------------------------------------------------------

def _weights(batch: DomainBatch) -> np.ndarray:
    """The batch's example weights; uniform when it carries none."""
    n = len(batch)
    return batch.weights if batch.weights is not None else np.full(n, 1.0 / n)


# A closed form is (value, vjp) on the arrays of one forward's table: vjp
# maps the value's adjoint to the adjoints of the table's fields by key
# ("logp", "p", "z", "h"), and `ObsTable.term` makes it one node.  The forms
# below reduce over trailing or domain axes only, never over the run axis.

def _nll(logp: np.ndarray, w: np.ndarray):
    """The closed form of -sum(w * logp) over the trailing [rows, C] axes
    of a weight table w: one entry for each [rows, C] table left after
    broadcasting."""
    def vjp(g):
        return {"logp": dk._unbroadcast(-g[..., None, None] * w, logp.shape)}
    return -(w * logp).sum(axis=(-2, -1)), vjp


def _soft_nll(table: dk.ObsTable, w: np.ndarray) -> Node:
    """`_nll` of the table's log p as one node."""
    return table.term(*_nll(table.vals["logp"], w))


def _then(form, outer):
    """outer, a closed form on one array (value, vjp to that array), taken
    of the value of form: the composite's value and vjp to form's fields."""
    value, vjp = form
    out, outer_vjp = outer(value)
    return out, lambda g: vjp(outer_vjp(g))


def _applied(outer, node: Node) -> Node:
    """outer, a closed form on one array, taken of node's value as one node
    on node."""
    value, vjp = outer(node.val)
    return Node(value, (node,), lambda g: (vjp(g),))


def _cell_table(batch: DomainBatch, rows: np.ndarray, shape) -> np.ndarray:
    """The batch's weights on a [table rows, C] grid: entry (r, y) sums the
    weights of the cells at table row r with label y."""
    labels = np.asarray(batch.labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= shape[1]:
        raise ShapeMismatch("label out of range")
    w = np.zeros(shape)
    np.add.at(w, (rows, labels), _weights(batch))
    return w


def erm_loss(model: Model, batch: DomainBatch, tape: Tape | None = None) -> Node:
    """(Weighted) mean negative log-likelihood of the true classes, in nats."""
    tape = tape if tape is not None else Tape(model)
    table, rows = dk.obs_rows(model, batch.inputs, tape)
    return _soft_nll(table, _cell_table(batch, rows,
                                        table.vals["logp"].shape[-2:]))


def weight_table(model: Model, batches: list[DomainBatch]) -> np.ndarray:
    """The sources' cell weights on the observation table, W[d, x, y] of
    shape [D, n_obs, C]: the one converter from cell batches, whose inputs
    must be observation indices on a model with an embedding."""
    for b in batches:
        x = np.asarray(b.inputs)
        if (model.embedding is None or x.ndim != 1
                or not np.issubdtype(x.dtype, np.integer)):
            raise ShapeMismatch("domain terms need observation-index batches "
                                "on a model with an embedding")
    shape = (model.embedding.shape[0], model.n_classes)
    return np.stack([_cell_table(b, b.inputs, shape) for b in batches])


def _domain_tables(model: Model, sources: Sources,
                   tape: Tape) -> tuple[dk.ObsTable, np.ndarray]:
    """(table, W): the tape's observation table and the sources' cell
    weights on it, W[d, x, y] of shape [D, n_obs, C].  sources is W itself
    or a list of cell batches, which `weight_table` converts."""
    if not isinstance(sources, np.ndarray):
        sources = weight_table(model, sources)
    elif sources.shape[1:] != (_n_obs(model), model.n_classes):
        raise ShapeMismatch(f"weight table of shape {sources.shape} on "
                            f"{_n_obs(model)} observations")
    table, _ = dk.obs_rows(model, np.arange(_n_obs(model)), tape)
    return table, sources


def _domain_nll(model: Model, batches: Sources, tape: Tape):
    """(table, the closed form of the domain losses): -sum(W_d * log p)
    over the sources' cell-weight tables W (`_domain_tables`) and the
    tape's log-softmax table, [D], or [D, R] on a stack of R runs."""
    table, w = _domain_tables(model, batches, tape)
    return table, _nll(table.vals["logp"], w[:, None] if model.runs else w)


def domain_loss_vector(model: Model, batches: Sources, tape: Tape) -> Node:
    """The domain losses (`_domain_nll`) as one [D] node, [D, R] on a
    stack."""
    table, losses = _domain_nll(model, batches, tape)
    return table.term(*losses)


def domain_losses(model: Model, batches: Sources, tape: Tape) -> list[Node]:
    table, w = _domain_tables(model, batches, tape)
    return [_soft_nll(table, wd) for wd in w]


def _mean(losses: np.ndarray):
    """The closed form of the mean of [D, *runs] losses over the domain
    axis, one entry per run."""
    scale = 1.0 / losses.shape[0]

    def vjp(g):
        out = np.empty(losses.shape)
        out[...] = g * scale
        return out
    return losses.sum(axis=0) * scale, vjp


def mean_domain_loss(model: Model, batches: Sources, tape: Tape) -> Node:
    table, losses = _domain_nll(model, batches, tape)
    return table.term(*_then(losses, _mean))


# ---------------------------------------------------------------------------
# Pair-based regularizers
# ---------------------------------------------------------------------------

def _n_obs(model: Model) -> int:
    if model.embedding is None:
        raise ShapeMismatch("table terms need a model with an embedding")
    return model.embedding.shape[0]


def _pair_rows(a: np.ndarray) -> np.ndarray:
    """a[x] - a[x~] for every pair of rows of a [..., n, d]: [..., n, n, d]."""
    return a[..., :, None, :] - a[..., None, :, :]


def _pair_back(gd: np.ndarray) -> np.ndarray:
    """The adjoint of a from that of `_pair_rows(a)`."""
    return gd.sum(axis=-2) - gd.sum(axis=-3)


def _pair_prob(logp: np.ndarray, p: np.ndarray, t: np.ndarray):
    """The closed form of sum over (x, x~) of t[x, x~] times
    sum_c p_x (log p_x - log p_x~)."""
    diff, pa = _pair_rows(logp), p[..., :, None, :]

    def vjp(g):
        each = (g[..., None, None] * t)[..., None]  # each pair's adjoint
        gd = each * pa
        return {"p": (each * diff).sum(axis=-2), "logp": _pair_back(gd)}
    return ((pa * diff).sum(axis=-1) * t).sum(axis=(-2, -1)), vjp


def _pair_sq(key: str, a: np.ndarray, t: np.ndarray):
    """The closed form of sum over (x, x~) of t[x, x~] times the summed
    squared difference of field key's rows a."""
    diff = _pair_rows(a)

    def vjp(g):
        return {key: _pair_back(2.0 * (g[..., None, None] * t)[..., None]
                                * diff)}
    return ((diff * diff).sum(axis=-1) * t).sum(axis=(-2, -1)), vjp


def _pair_lam(h: np.ndarray, head: np.ndarray, table: np.ndarray):
    """The closed form of sum over (x, x~, y) of table[x, x~, y] times
    sum_u head[u, y]^2 (h_x[u] - h_x~[u])^2: its vjp also gives the
    head's adjoint (zero on the bias row)."""
    u = h.shape[-1]
    diff, hu = _pair_rows(h), head[..., :u, :]
    sq, hsq = diff * diff, hu * hu

    def vjp(g):
        each = g[..., None, None, None] * table  # [..., n, n, C]
        gd = 2.0 * (each @ dk._t(hsq)[..., None, :, :]) * diff
        ghead = np.zeros(head.shape)
        ghead[..., :u, :] = 2.0 * (dk._t(sq) @ each).sum(axis=-3) * hu
        return {"h": _pair_back(gd)}, ghead
    return ((sq @ hsq[..., None, :, :]) * table).sum(axis=(-3, -2, -1)), vjp


def pair_penalty(model: Model, table: np.ndarray, kind: str,
                 tape: Tape | None = None) -> Node:
    """The pair term of kind over a pair table W[x, x~, y] (`pair_table`,
    `pair_law`): the sum over (x, x~) of the pairs' weight times their
    divergence, read from the tape's observation table on its trailing axes
    as one node (LAM's also on the head).

    kind PROB: D_KL(p(.|x) || p(.|x~)), formed per pair as
    sum_c p_x (log p_x - log p_x~); LOGIT / FEAT: summed squared differences
    of logits / features; LAM: sum_u head[u, y]^2 (h_x[u] - h_x~[u])^2,
    each label's slice of W weighed by its squared head column.
    """
    if kind not in ("PROB", "LOGIT", "FEAT", "LAM"):
        raise ShapeMismatch(f"unknown pair kind {kind!r}")
    n = _n_obs(model)
    if np.shape(table) != (n, n, model.n_classes):
        raise ShapeMismatch(f"pair table of shape {np.shape(table)} on {n} observations")
    tape = tape if tape is not None else Tape(model)
    obs, _ = dk.obs_rows(model, np.arange(n), tape)
    vals = obs.vals
    if kind == "LAM":
        head = tape.node("head")
        return obs.term(*_pair_lam(vals["h"], head.val, table), head)
    t = np.sum(table, axis=-1)
    if kind == "PROB":
        return obs.term(*_pair_prob(vals["logp"], vals["p"], t))
    key = "z" if kind == "LOGIT" else "h"
    return obs.term(*_pair_sq(key, vals[key], t))


def pair_regularizer(model: Model, pairs_or_groups, kind: str,
                     tape: Tape | None = None, weights=None) -> Node:
    """Mean divergence over contrastive pairs or the group-variance form.

    kind PROB: KL between predicted distributions; LOGIT / FEAT: summed
    squared differences of logits / features.  weights optionally give each
    item's probability (uniform by default), e.g. pair cells' shares.
    Groups use the unbiased within-group variance summed over coordinates,
    half the mean of the pair form over ordered member pairs; PROB, which
    has no variance form, takes that mean.
    """
    if kind not in ("PROB", "LOGIT", "FEAT"):
        raise ShapeMismatch(f"unknown pair kind {kind!r}")
    items = list(pairs_or_groups)
    pen = pair_penalty(model, pair_table(items, _n_obs(model), model.n_classes,
                                         weights), kind, tape)
    if kind != "PROB" and isinstance(items[0], PairGroup):
        return dk.mul(pen, dk.constant(0.5))
    return pen


def lam_regularizer(model: Model, labeled_pairs, tape: Tape | None = None,
                    weights=None) -> Node:
    """Head-weighted feature matching: mean of sum_u w[u,y]^2 (df_u)^2."""
    pairs = list(labeled_pairs)
    if any(p.label is None for p in pairs):
        raise UnlabeledPair("LAM needs labeled pairs")
    return pair_penalty(model, pair_table(pairs, _n_obs(model), model.n_classes,
                                          weights), "LAM", tape)


# ---------------------------------------------------------------------------
# Risk matching
# ---------------------------------------------------------------------------

def _need_domains(batches, k: int = 2):
    if len(batches) < k:
        raise TooFewDomains(f"need at least {k} domains, got {len(batches)}")


def _variance(losses: np.ndarray):
    """The closed form of the population variance of [D, *runs] losses
    over the domain axis, one entry per run."""
    scale = 1.0 / losses.shape[0]
    dev = losses - losses.sum(axis=0) * scale

    def vjp(g):
        gdev = 2.0 * (g * scale) * dev
        return gdev - gdev.sum(axis=0) * scale
    return (dev * dev).sum(axis=0) * scale, vjp


def _worst(losses: np.ndarray):
    """The closed form of each run's worst entry of [D, *runs] losses; ties
    give the subgradient to the lowest index."""
    worst = np.argmax(losses, axis=0)[None]

    def vjp(g):
        out = np.zeros(losses.shape)
        np.put_along_axis(out, worst, np.reshape(g, worst.shape), axis=0)
        return out
    return np.take_along_axis(losses, worst, axis=0)[0], vjp


def vrex_penalty(model: Model, batches: Sources,
                 tape: Tape | None = None) -> Node:
    """Population variance of the domain losses (V-REx), per run."""
    _need_domains(batches)
    tape = tape if tape is not None else Tape(model)
    table, losses = _domain_nll(model, batches, tape)
    return table.term(*_then(losses, _variance))


def group_dro(model: Model, batches: Sources,
              tape: Tape | None = None) -> Node:
    """Worst-domain loss per run; ties give the subgradient to the lowest
    index."""
    _need_domains(batches)
    tape = tape if tape is not None else Tape(model)
    table, losses = _domain_nll(model, batches, tape)
    return table.term(*_then(losses, _worst))


# ---------------------------------------------------------------------------
# Gradient matching
# ---------------------------------------------------------------------------

def _adjoints(table: dk.ObsTable, w: np.ndarray) -> Node:
    """r = W.sum(y) p - W: each domain's gradient of its weighted NLL
    -sum(W_d * log p) in the logits of the table's rows, [D, n_obs, C]."""
    return dk.sub(dk.mul(dk.constant(w.sum(axis=-1, keepdims=True)), table.p),
                  dk.constant(w))


def _grads(model: Model, h: Node, layers, r: Node, tape: Tape) -> list[Node]:
    """The parameter gradients, summed over rows, of logit adjoints r
    [*lead, rows, C] on rows with features h and layer inputs layers: one
    [*lead, *block] node per parameter block in the tape's order.  The head
    block is [h; 1]^T r; delta = (r head_u^T) masked where its relu is off
    gives layer l's blocks a_{l-1}^T delta and sum(delta), and goes back
    through W_l^T and layer l-1's mask."""
    blocks = [dk.matmul(dk.t2(dk.concat_ones(h)), r)]
    w = dk.slice_rows(tape.node("head"), 0, model.u_count)  # no bias unit
    delta, a = r, h
    for layer in reversed(range(len(model.weights))):
        delta = dk.mul(dk.matmul(delta, dk.t2(w)), dk.constant(a.val > 0.0))
        a = layers[layer]
        blocks[:0] = [dk.matmul(dk.t2(a), delta), dk.nsum(delta, axis=-2)]
        w = tape.node(f"W{layer}")
    return blocks


def _flat(blocks: list[Node], lead: tuple) -> Node:
    """[*lead, *block] nodes as one [*lead, P] node, in the order of
    `dk.backward`'s flat gradient."""
    return dk.concat([dk.reshape(b, lead + (-1,)) for b in blocks], axis=-1)


def cell_grads(model: Model, batch: DomainBatch, tape: Tape) -> list[Node]:
    """Each cell's gradient of -log p(y|x), one [cells, *block] node per
    parameter block in the tape's order: `_grads` with each cell its own
    row (a length-1 row axis) and adjoint p - e_y."""
    table, rows = dk.obs_rows(model, batch.inputs, tape)

    def own(a: Node) -> Node:  # each cell's row of a, [cells, 1, d]
        return dk.reshape(dk.gather_rows(a, rows), (len(rows), 1, -1))

    onehot = np.eye(model.n_classes)[np.asarray(batch.labels, dtype=np.int64)]
    r = dk.sub(own(table.p), dk.constant(onehot[:, None]))
    return _grads(model, own(table.h), [own(a) for a in table.layers], r, tape)


def _domain_grads(model: Model, batches: Sources,
                  tape: Tape | None = None) -> Node:
    """The sources' loss gradients as one [D, P] node, flat as in
    `dk.backward`: one backprop of the adjoints of W[d, x, y]."""
    tape = tape if tape is not None else Tape(model)
    table, w = _domain_tables(model, batches, tape)
    return _flat(_grads(model, table.h, table.layers, _adjoints(table, w), tape),
                 (len(batches),))


def _fish(g: Node) -> Node:
    """-mean over ordered pairs i != j of <g_i, g_j>, for the rows of g."""
    _need_domains(g.val)
    k = g.val.shape[0]
    off = (1.0 - np.eye(k)) / (k * (k - 1))
    return dk.neg(dk.nsum(dk.mul(dk.matmul(g, dk.t2(g)), dk.constant(off))))


def _iga(g: Node) -> Node:
    """The mean over the rows of g of |g_i - mean g|^2."""
    _need_domains(g.val)
    return dk.nmean(dk.nsum(dk.square(dk.sub(g, dk.nmean(g, axis=0))), axis=-1))


def fish_from_grads(grads: list[list[Node]]) -> Node:
    """Negated mean inner product over ordered pairs of gradient block lists."""
    return _fish(dk.stack_list([_flat(blocks, ()) for blocks in grads]))


def iga_from_grads(grads: list[list[Node]]) -> Node:
    """Trace of the population covariance of gradient vectors."""
    return _iga(dk.stack_list([_flat(blocks, ()) for blocks in grads]))


def fish_penalty(model: Model, batches: Sources,
                 tape: Tape | None = None) -> Node:
    """Negated mean inner product of domain gradients over ordered pairs."""
    return _fish(_domain_grads(model, batches, tape))


def iga_penalty(model: Model, batches: Sources,
                tape: Tape | None = None) -> Node:
    """Trace of the population covariance of the domain gradient vectors."""
    return _iga(_domain_grads(model, batches, tape))


def and_mask(domain_grads, quorum: float = 1.0) -> np.ndarray:
    """Keep components whose sign wins a quorum across domains; zero the rest.

    domain_grads holds one gradient per domain: [P] arrays, or the rows of
    a [D, P] array.  Kept components carry the across-domain mean.  Exact
    zeros count as agreeing with nothing.
    """
    if len(domain_grads) < 2:
        raise TooFewDomains("AND-mask needs at least 2 domain gradients")
    if not 0.5 < quorum <= 1.0:
        raise ShapeMismatch("quorum must be in (0.5, 1]")
    g = np.stack(domain_grads)  # [K, P]
    k = g.shape[0]
    pos = (g > 0).sum(axis=0)
    negs = (g < 0).sum(axis=0)
    agree = np.maximum(pos, negs) / k
    keep = agree >= quorum
    return np.where(keep, g.mean(axis=0), 0.0)


def fishr_from_grads(per_example_by_domain: list[list[list[Node]]],
                     weights_by_domain=None) -> Node:
    """Penalty from per-example gradient block lists, one inner list per domain.

    Componentwise (weighted) population variance per domain, then squared
    Euclidean distance between variance vectors, mean over unordered pairs.
    Unweighted entries are rows (>= 2 per domain); weighted ones are cells.
    """
    _need_domains(per_example_by_domain)
    if weights_by_domain is None:
        if min(map(len, per_example_by_domain)) < 2:
            raise TooFewExamples("need >= 2 examples per domain")
        weights_by_domain = [np.full(len(p), 1.0 / len(p))
                             for p in per_example_by_domain]
    return _fishr(dk.stack_list([_flat(blocks, ()) for p in per_example_by_domain
                                 for blocks in p]), weights_by_domain)


def _fishr(g: Node, weights) -> Node:
    """fishr_from_grads on entry rows g [entries, P]: domain d's entries are
    the next len(weights[d]) rows, weighted by weights[d]."""
    k = len(weights)
    domain_of = np.repeat(np.arange(k), [len(w) for w in weights])
    share = np.zeros((k, len(domain_of)))  # [D, entries]: each domain's weights
    share[domain_of, np.arange(len(domain_of))] = np.concatenate(weights)
    share = dk.constant(share)
    dev = dk.sub(g, dk.gather_rows(dk.matmul(share, g), domain_of))
    var = dk.matmul(share, dk.square(dev))  # [D, P]
    diff = dk.sub(dk.reshape(var, (k, 1, -1)), dk.reshape(var, (1, k, -1)))
    pairs = np.triu(np.ones((k, k)), 1) / (k * (k - 1) / 2)
    return dk.nsum(dk.mul(dk.nsum(dk.square(diff), axis=-1), dk.constant(pairs)))


def fishr_penalty(model: Model, batches: list[DomainBatch],
                  tape: Tape | None = None) -> Node:
    """Match per-domain componentwise variances of per-example gradients.

    Variance is over the batch's (weighted) empirical distribution; the
    penalty is the squared Euclidean distance between variance vectors,
    averaged over unordered domain pairs.  Weighted cell batches give the
    exact population form of the same quantity.  Every source's cells take
    their gradients from one `cell_grads`.
    """
    _need_domains(batches)
    for b in batches:  # rows, not cells
        if (len(b) if b.counts is None else np.sum(b.counts)) < 2:
            raise TooFewExamples(f"domain {b.domain_id}: need >= 2 examples")
    tape = tape if tape is not None else Tape(model)
    cells = DomainBatch("sources", np.concatenate([b.inputs for b in batches]),
                        np.concatenate([b.labels for b in batches]))
    return _fishr(_flat(cell_grads(model, cells, tape), (len(cells),)),
                  [_weights(b) for b in batches])


def _irm(w: np.ndarray, z: np.ndarray, p: np.ndarray):
    """The closed form of sum_d (sum r_d * z)^2 with r_d = W_d.sum(y) p - W_d
    for cell weights w [D, *runs, rows, C] on logits z and probabilities p."""
    mass = w.sum(axis=-1, keepdims=True)
    r = mass * p - w
    rz = (r * z).sum(axis=(-2, -1))  # [D, *runs]

    def vjp(g):
        each = (2.0 * (g * rz))[..., None, None]
        return {"z": dk._unbroadcast(each * r, z.shape),
                "p": dk._unbroadcast(each * z * mass, p.shape)}
    return (rz * rz).sum(axis=0), vjp


def irm_penalty(model: Model, batches: Sources,
                tape: Tape | None = None) -> Node:
    """Squared loss-gradient w.r.t. a unit logit multiplier, summed over
    domains, per run: at multiplier 1 that gradient is sum(r_d * z) for
    each domain's logit adjoints r_d = W_d.sum(y) p - W_d."""
    if len(batches) < 1:
        raise TooFewDomains("IRM needs at least 1 domain")
    tape = tape if tape is not None else Tape(model)
    table, w = _domain_tables(model, batches, tape)
    vals = table.vals
    return table.term(*_irm(w[:, None] if model.runs else w, vals["z"],
                            vals["p"]))


# ---------------------------------------------------------------------------
# Logit / feature shaping
# ---------------------------------------------------------------------------

def _sd(z: np.ndarray, weights: np.ndarray):
    """The closed form of the squared norms of the rows of logits z
    [..., rows, C] summed with weights over rows, one entry per run."""
    def vjp(g):
        return 2.0 * (g[..., None] * weights)[..., None] * z
    return ((z * z).sum(axis=-1) * weights).sum(axis=-1), vjp


def sd_penalty(logits: Node, weights: np.ndarray | None = None) -> Node:
    """Mean squared logit norm over the batch, or its weighted sum."""
    n = logits.val.shape[-2]
    w = (np.full(n, 1.0 / n) if weights is None
         else np.asarray(weights, dtype=np.float64))
    return _applied(lambda z: _sd(z, w), logits)


def rsc_losses(model: Model, batches: list[DomainBatch], q: float,
               tape: Tape | None = None):
    """Mute, for each source, the feature units whose true-class logit
    gradients are largest, and score the sources on their masked features.

    Returns (the [D] node of masked domain losses, each batch's muted unit
    indices, tape).  A batch's score is its weighted mean absolute gradient
    of the true-class logit w.r.t. H, which for the linear head is
    |head[unit, y]|; the top ceil(q*u) units are muted, ties muting higher
    indices first.  One forward over every observation with a [D, 1, u]
    feature mask gives the D masked tables, read with the sources' cell
    weights W[d, x, y]; it is the step's one forward.
    """
    if not 0.0 < q < 1.0:
        raise ShapeMismatch("q must be in (0,1)")
    w = weight_table(model, batches)
    tape = tape if tape is not None else Tape(model)
    u = model.u_count
    masks, muted = np.ones((len(batches), 1, u)), []
    for mask, b in zip(masks, batches):
        labels = np.asarray(b.labels, dtype=np.int64)
        score = _weights(b) @ np.abs(model.head[:u, labels].T)
        order = sorted(range(u), key=lambda i: (-score[i], -i))
        muted.append(sorted(order[:int(np.ceil(q * u))]))
        mask[0, muted[-1]] = 0.0
    dk.forward(model, np.arange(w.shape[1]), tape, feature_mask=masks)
    return _soft_nll(tape.last, w), muted, tape


def rsc_mask(model: Model, batch: DomainBatch, q: float,
             tape: Tape | None = None):
    """`rsc_losses` of one batch: (masked loss node, muted unit indices,
    tape)."""
    losses, muted, tape = rsc_losses(model, [batch], q, tape)
    return dk.reshape(losses, ()), muted[0], tape


# ---------------------------------------------------------------------------
# Distribution matching on features
# ---------------------------------------------------------------------------

def _as_feature_nodes(features_by_domain, counts=None):
    """Feature matrices as nodes, with the sample rows each feature row
    stands for (one each for a None entry); each domain needs >= 2 rows."""
    feats = list(features_by_domain)
    nodes, ms = [], []
    for f, m in zip(feats, [None] * len(feats) if counts is None else counts,
                    strict=True):
        node = f if isinstance(f, Node) else dk.constant(np.asarray(f, dtype=np.float64))
        if node.val.ndim != 2:
            raise ShapeMismatch("features must be [n, u] matrices")
        m = np.ones(node.val.shape[0], dtype=np.int64) if m is None else np.asarray(m)
        if m.shape != node.val.shape[:1]:
            raise ShapeMismatch("need one count per feature row")
        if m.sum() < 2:
            raise TooFewExamples("need >= 2 feature vectors per domain")
        nodes.append(node)
        ms.append(m)
    if len(nodes) < 2:
        raise TooFewDomains("need >= 2 domains of features")
    return nodes, ms


def _row_weights(nodes: list[Node], weights) -> list[np.ndarray]:
    """One weight vector per domain, uniform over its rows by default."""
    if weights is None:
        return [np.full(f.val.shape[0], 1.0 / f.val.shape[0]) for f in nodes]
    if len(weights) != len(nodes):
        raise ShapeMismatch("need one row-weight vector per domain")
    out = []
    for f, w in zip(nodes, weights):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != f.val.shape[:1] or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ShapeMismatch("row weights must match the rows and sum to 1")
        out.append(w)
    return out


def coral_penalty(features_by_domain, weights=None, counts=None) -> Node:
    """Squared mean difference plus squared Frobenius difference of
    population covariances, averaged over unordered domain pairs.

    weights optionally gives each domain's row weights (uniform by default);
    means and covariances are then taken under those weights.  counts give
    the sample rows each feature row stands for (one each by default).
    """
    nodes, _ = _as_feature_nodes(features_by_domain, counts)
    stats = []
    for f, w in zip(nodes, _row_weights(nodes, weights)):
        mean = dk.matmul(dk.constant(w[None, :]), f)  # [1, u]
        centered = dk.sub(f, mean)
        cov = dk.matmul(dk.t2(dk.mul(centered, dk.constant(w[:, None]))),
                        centered)
        stats.append((mean, cov))
    # squared mean difference plus squared covariance difference per pair
    terms = [dk.add(dk.nsum(dk.square(dk.sub(a[0], b[0]))),
                    dk.nsum(dk.square(dk.sub(a[1], b[1]))))
             for a, b in itertools.combinations(stats, 2)]
    return dk.nmean(dk.stack_list(terms))


def sq_dists(a: Node, b: Node) -> Node:
    """Pairwise squared Euclidean distances between the rows of a and b."""
    na = dk.nsum(dk.square(a), axis=1, keepdims=True)  # [m,1]
    nb = dk.reshape(dk.nsum(dk.square(b), axis=1), (1, b.val.shape[0]))
    cross2 = dk.matmul(dk.mul(a, dk.constant(2.0)), dk.t2(b))  # 2 a.b, exact
    return dk.relu(dk.add(dk.sub(na, cross2), nb))  # clip negative residue


BANDWIDTH_FLOOR = 1e-12


def _middle(order: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """The median element(s) of order, element k repeated mult[k] times."""
    cum = np.cumsum(mult[order])
    total = int(cum[-1])
    ranks = [total // 2] if total % 2 else [total // 2 - 1, total // 2]
    return order[np.searchsorted(cum, ranks, side="right")]


def median_bandwidth(dmat: Node, counts=None) -> Node:
    """The median heuristic: median squared distance over the row pairs of
    the pooled distance matrix, as a graph node.  counts (one each by
    default) give the rows each matrix row stands for: entry (i, j) holds
    m_i m_j row pairs, and m_i (m_i - 1) / 2 on the diagonal.

    When that median is at most BANDWIDTH_FLOOR (over half the pairs
    coincide, as on discrete features) the median of the distances above
    the floor is used, so the kernel width does not collapse to a point
    mass; with no such distance the bandwidth is the constant floor.  The
    node at the median's position carries the gradient.
    """
    n = dmat.val.shape[0]
    m = np.ones(n, dtype=np.int64) if counts is None else np.asarray(counts)
    iu, ju = np.triu_indices(n)
    mult = np.where(iu == ju, m[iu] * (m[iu] - 1) // 2, m[iu] * m[ju])
    vals = dmat.val[iu, ju]
    order = np.argsort(vals, kind="stable")
    order = order[mult[order] > 0]
    picks = _middle(order, mult)
    if vals[picks].mean() <= BANDWIDTH_FLOOR:
        order = order[vals[order] > BANDWIDTH_FLOOR]
        if order.size == 0:
            return dk.constant(BANDWIDTH_FLOOR)
        picks = _middle(order, mult)
    elems = []
    for p in picks:
        row = dk.gather_rows(dmat, np.array([iu[p]]))
        elems.append(dk.reshape(dk.take_cols(row, np.array([ju[p]])), ()))
    if len(elems) == 1:
        return elems[0]
    return dk.mul(dk.add(elems[0], elems[1]), dk.constant(0.5))


class MmdResult(NamedTuple):
    """Clamped penalty node plus the raw (possibly negative) estimate."""

    node: Node
    raw: float
    bandwidth: float


def mmd_penalty(features_by_domain, bandwidth: float | None = None,
                weights=None, counts=None) -> MmdResult:
    """Unbiased Gaussian-kernel MMD^2, averaged over unordered domain pairs.

    weights optionally gives each domain's row weights (uniform by default),
    counts the sample rows each feature row stands for (one by default).
    Within-domain sums drop the pairs of a row with itself (kernel value 1,
    mass s = sum(w^2 / count) over rows with a count) and renormalize by
    1 - s, so cells with counts give their rows' value and a row of no
    count adds nothing.  Without a bandwidth each pair uses the median
    heuristic on its pooled rows.  The estimator may dip below zero;
    the returned node is clamped at zero and the raw value is reported
    alongside.
    """
    nodes, ms = _as_feature_nodes(features_by_domain, counts)
    ws = _row_weights(nodes, weights)
    terms = []
    bw_used = 0.0
    for (fa, wa, ma), (fb, wb, mb) in itertools.combinations(zip(nodes, ws, ms), 2):
        pooled = dk.concat([fa, fb])
        dmat = sq_dists(pooled, pooled)
        h = (dk.constant(float(bandwidth)) if bandwidth is not None
             else median_bandwidth(dmat, np.concatenate([ma, mb])))
        bw_used = float(h.val)
        kmat = dk.exp(dk.div(dmat, dk.neg(h)))
        # side[:, 0] / side[:, 1] put each domain's weights on its rows,
        # so side^T K side holds [[wa K wa, wa K wb], [wb K wa, wb K wb]]
        side = dk.constant(np.stack([
            np.concatenate([wa, np.zeros(wb.size)]),
            np.concatenate([np.zeros(wa.size), wb])], axis=1))
        gram = dk.matmul(dk.t2(side), dk.matmul(kmat, side))
        sa, sb = (float(w[m > 0] @ (w[m > 0] / m[m > 0]))
                  for w, m in ((wa, ma), (wb, mb)))
        coef = dk.constant([[1.0 / (1.0 - sa), -1.0],
                            [-1.0, 1.0 / (1.0 - sb)]])
        diag = sa / (1.0 - sa) + sb / (1.0 - sb)
        terms.append(dk.sub(dk.nsum(dk.mul(gram, coef)), dk.constant(diag)))
    total = dk.nmean(dk.stack_list(terms))
    return MmdResult(dk.relu(total), float(total.val), bw_used)


# ---------------------------------------------------------------------------
# Adversarial objectives
# ---------------------------------------------------------------------------

def _adversary_loss(h: Node, adversary: Model, adv_tape: Tape,
                    a: np.ndarray) -> Node:
    """The adversary's weighted domain-classification loss -sum(A * log q):
    one forward of the adversary on the observation table's feature rows h
    behind gradient reversal, whose table gives log q, and A [n_obs, D]
    each row's weight on each domain."""
    table, _ = dk.obs_rows(adversary, dk.gradient_reversal(h, 1.0), adv_tape)
    return _soft_nll(table, a)


def dann_losses(model: Model, adversary: Model, batches: Sources,
                tape: Tape | None = None, adv_tape: Tape | None = None):
    """Label loss plus domain-classification loss behind gradient reversal.

    The adversary is a Model with no embedding, consuming feature rows; its
    head width must equal the number of domains.
    """
    _need_domains(batches)
    tape = tape if tape is not None else Tape(model)
    adv_tape = adv_tape if adv_tape is not None else Tape(adversary)
    if adversary.n_classes != len(batches):
        raise ShapeMismatch("adversary classes must equal the domain count")
    table, w = _domain_tables(model, batches, tape)
    return (dk.nmean(_soft_nll(table, w)),
            _adversary_loss(table.h, adversary, adv_tape,
                            w.sum(axis=-1).T / len(batches)),
            tape, adv_tape)


def cdann_losses(model: Model, adversaries: list[Model],
                 batches: Sources, tape: Tape | None = None,
                 adv_tapes: list[Tape] | None = None):
    """Class-conditional adversaries plus one on the prior-normalized marginal.

    adversaries[y] is the domain classifier for class y (sitting out when
    fewer than 2 domains have y); adversaries[-1] consumes all features
    with each class weighted exactly 1/|Y| inside its domain.  Returns
    (label loss, mean adversarial loss, tape, adv_tapes).
    """
    _need_domains(batches)
    n_classes = model.n_classes
    if len(adversaries) != n_classes + 1:
        raise ShapeMismatch(f"need {n_classes + 1} adversaries")
    tape = tape if tape is not None else Tape(model)
    adv_tapes = (adv_tapes if adv_tapes is not None
                 else [Tape(a) for a in adversaries])
    table, w = _domain_tables(model, batches, tape)
    mass = w.sum(axis=1, keepdims=True)  # [D, 1, C]: each class's share
    within = np.divide(w, mass, out=np.zeros_like(w), where=mass > 0.0)
    present = np.count_nonzero(mass[:, 0] > 0.0, axis=0)  # [C]
    adv_terms = [_adversary_loss(table.h, adversaries[y], adv_tapes[y],
                                 within[..., y].T / present[y])
                 for y in range(n_classes) if present[y] >= 2]
    adv_terms.append(_adversary_loss(
        table.h, adversaries[-1], adv_tapes[-1],
        within.sum(axis=-1).T / (n_classes * len(batches))))
    return (dk.nmean(_soft_nll(table, w)),
            dk.nmean(dk.stack_list(adv_terms)), tape, adv_tapes)


# ---------------------------------------------------------------------------
# Data-level and parameter-level methods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixupBatch:
    domain_id: str
    inputs: np.ndarray  # already-embedded real vectors
    soft_labels: np.ndarray  # [n, n_classes]


def mixup(model: Model, batch: DomainBatch, alpha: float,
          seed: int) -> MixupBatch:
    """Convex combinations of embedded inputs and one-hot labels.  A cell
    batch is first expanded to its rows (each cell repeated count times)."""
    if alpha <= 0:
        raise ShapeMismatch("alpha must be > 0")
    rng = substream(seed, "mixup")
    reps = 1 if batch.counts is None else batch.counts
    inputs, labels = (np.repeat(a, reps) for a in (batch.inputs, batch.labels))
    emb = dk.embed_inputs(model, inputs)
    onehot = np.eye(model.n_classes)[np.asarray(labels, dtype=np.int64)]
    n = len(labels)
    lam = rng.beta(alpha, alpha, size=n)
    partner = rng.permutation(n)
    mixed_x = lam[:, None] * emb + (1 - lam)[:, None] * emb[partner]
    mixed_y = lam[:, None] * onehot + (1 - lam)[:, None] * onehot[partner]
    return MixupBatch(batch.domain_id, mixed_x, mixed_y)


def soft_label_loss(model: Model, mixed: MixupBatch,
                    tape: Tape | None = None) -> Node:
    """Mean soft-label cross-entropy over the batch's rows, in nats."""
    return mixup_loss(model, [mixed], tape)


def mixup_loss(model: Model, mixed: list[MixupBatch],
               tape: Tape | None = None) -> Node:
    """Mean over the batches of each one's soft_label_loss, from one forward
    of all their rows."""
    tape = tape if tape is not None else Tape(model)
    dk.forward(model, np.concatenate([m.inputs for m in mixed]), tape)
    return _soft_nll(tape.last, np.concatenate(
        [m.soft_labels / (len(mixed) * len(m.soft_labels)) for m in mixed]))


def swa_average(checkpoints: list[Model]) -> Model:
    """Parameterwise arithmetic mean of same-shape models."""
    if len(checkpoints) < 2:
        raise ShapeMismatch("need at least 2 checkpoints")
    first = checkpoints[0]
    for m in checkpoints[1:]:
        if len(m.weights) != len(first.weights):
            raise ShapeMismatch("layer count mismatch")
        for a, b in zip(m.param_blocks(), first.param_blocks()):
            if a[1].shape != b[1].shape:
                raise ShapeMismatch(f"shape mismatch in block {a[0]}")
        if (first.embedding is None) != (m.embedding is None):
            raise ShapeMismatch("embedding presence mismatch")
        if first.embedding is not None and not np.array_equal(
                first.embedding, m.embedding):
            raise ShapeMismatch("embeddings differ; cannot average")
    out = first.clone()
    k = len(checkpoints)
    for i in range(len(out.weights)):
        out.weights[i] = sum(m.weights[i] for m in checkpoints) / k
        out.biases[i] = sum(m.biases[i] for m in checkpoints) / k
    out.head = sum(m.head for m in checkpoints) / k
    return out
