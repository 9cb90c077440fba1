"""Reverse-mode tape on numpy arrays, and the network's closed forms.

The tape is first-order: each op's vjp maps an adjoint array to one array
per parent, and a backward pass builds no graph (`grad_nodes` returns
arrays).  Penalties on parameter gradients (gradient alignment, gradient
variance) differentiate `objectives._grads`, which writes the backprop of
logit adjoints in closed form as ordinary ops on the observation table.

Model decomposition is fixed: a constant embedding of discrete inputs, dense
rectifier layers producing the feature row H, and a linear head whose bias is
a dummy always-one feature unit, so logits are exactly z[y] = sum_u w[u, y] *
h[u] with h running over the augmented features.  A model's parameter
blocks are views of one flat buffer, so the optimizers update it in place.

The network's math is two array functions: `forward_core` computes the
table of H, z, log p, p and each layer's input rows, and `backprop_core`
maps adjoints of any of those fields, by key, to the flat parameter
gradient.  A step whose terms are closed forms on that table (the soft
NLL, the pair kinds, V-REx, GroupDRO, SD, IRM) calls the two directly and
builds no graph.  On a tape the network is one node (`forward`) whose vjp
is `backprop_core`: the fields are views of that node, and a closed form
on the arrays is one node on it (`ObsTable.term`), so a forward adds the
same few nodes at any depth.

Ops act on the trailing axes, so a model whose parameter arrays carry a
leading run axis (`stack_runs`) trains R runs at once: every value gains
that axis, a loss is one entry per run, and each run's slice of the
gradient is the gradient of its own loss.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteActivation, ShapeMismatch
from .rng import substream


class Node:
    """One value in the graph; vjp maps the output adjoint to parent adjoints,
    and order numbers the nodes as they are made, parents first."""

    __slots__ = ("val", "parents", "vjp", "order")
    _created = itertools.count()

    def __init__(self, val, parents=(), vjp=None):
        self.val = val if isinstance(val, np.ndarray) else np.asarray(val, dtype=np.float64)
        self.parents = parents
        self.vjp = vjp
        self.order = next(Node._created)


def constant(x) -> Node:
    return Node(np.asarray(x, dtype=np.float64))


# -- shape plumbing ----------------------------------------------------------

def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce an adjoint back to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a: Node, b: Node) -> Node:
    return Node(a.val + b.val, (a, b),
                lambda g: (_unbroadcast(g, a.val.shape), _unbroadcast(g, b.val.shape)))


def sub(a: Node, b: Node) -> Node:
    return Node(a.val - b.val, (a, b),
                lambda g: (_unbroadcast(g, a.val.shape),
                           _unbroadcast(-g, b.val.shape)))


def mul(a: Node, b: Node) -> Node:
    return Node(a.val * b.val, (a, b),
                lambda g: (_unbroadcast(g * b.val, a.val.shape),
                           _unbroadcast(g * a.val, b.val.shape)))


def neg(a: Node) -> Node:
    return Node(-a.val, (a,), lambda g: (-g,))


def square(a: Node) -> Node:
    return mul(a, a)


def exp(a: Node) -> Node:
    val = np.exp(a.val)
    return Node(val, (a,), lambda g: (g * val,))


def relu(a: Node) -> Node:
    # the mask is rebuilt from a on the way back, not kept as a second array
    return Node(a.val * (a.val > 0.0), (a,), lambda g: (g * (a.val > 0.0),))


def _t(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def matmul(a: Node, b: Node) -> Node:
    return Node(a.val @ b.val, (a, b),
                lambda g: (_unbroadcast(g @ _t(b.val), a.val.shape),
                           _unbroadcast(_t(a.val) @ g, b.val.shape)))


def t2(a: Node) -> Node:
    """Swap the last two axes."""
    return Node(_t(a.val), (a,), lambda g: (_t(g),))


def reshape(a: Node, shape) -> Node:
    orig = a.val.shape
    return Node(a.val.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def _axes(shape: tuple, axis) -> tuple:
    """The axes an `axis` argument names: all for None, an int or a tuple."""
    if axis is None:
        return tuple(range(len(shape)))
    return axis if isinstance(axis, tuple) else (axis,)


def _reduced(a: Node, axis, keepdims: bool, scale) -> Node:
    """a's sum over axis, times scale unless it is None, as one node."""
    shape = a.val.shape
    kshape = list(shape)  # the sum's shape with the summed axes kept
    for ax in _axes(shape, axis):
        kshape[ax] = 1
    val = a.val.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        out = np.empty(shape)  # filled by broadcasting, cheaper than broadcast_to
        out[...] = np.reshape(g if scale is None else g * scale, kshape)
        return (out,)

    return Node(val if scale is None else val * scale, (a,), vjp)


def nsum(a: Node, axis=None, keepdims: bool = False) -> Node:
    return _reduced(a, axis, keepdims, None)


def nmean(a: Node, axis=None, keepdims: bool = False) -> Node:
    """The sum over axis times 1 / count, as one node."""
    count = math.prod(a.val.shape[ax] for ax in _axes(a.val.shape, axis))
    return _reduced(a, axis, keepdims, 1.0 / count)


def _placed(shape: tuple, where, g: np.ndarray) -> np.ndarray:
    """The adjoint of a[where]: zeros of shape with g added at where."""
    out = np.zeros(shape)
    np.add.at(out, where, g)
    return out


def gather_rows(a: Node, idx: np.ndarray) -> Node:
    """Rows idx of a: entries idx of axis -2."""
    where = (..., np.asarray(idx, dtype=np.int64), slice(None))
    return Node(a.val[where], (a,), lambda g: (_placed(a.val.shape, where, g),))


def take_cols(a: Node, cols: np.ndarray) -> Node:
    """Entry cols[i] of each row i: [..., n, k] to [..., n]."""
    where = (..., np.arange(a.val.shape[-2]), np.asarray(cols, dtype=np.int64))
    return Node(a.val[where], (a,), lambda g: (_placed(a.val.shape, where, g),))


def stack_list(nodes: list[Node]) -> Node:
    vals = np.stack([n.val for n in nodes])
    return Node(vals, tuple(nodes), lambda g: tuple(g))


def concat(parts: list[Node], axis: int = 0) -> Node:
    starts = np.cumsum([p.val.shape[axis] for p in parts])[:-1]
    return Node(np.concatenate([p.val for p in parts], axis=axis), tuple(parts),
                lambda g: tuple(np.split(g, starts, axis=axis)))


def slice_rows(a: Node, i0: int, i1: int) -> Node:
    where = (..., slice(i0, i1), slice(None))
    return Node(a.val[where].copy(), (a,),
                lambda g: (_placed(a.val.shape, where, g),))


def concat_ones(a: Node) -> Node:
    """a with a column of ones appended on the last axis."""
    d = a.val.shape[-1]
    val = np.concatenate([a.val, np.ones(a.val.shape[:-1] + (1,))], axis=-1)
    return Node(val, (a,), lambda g: (g[..., :d],))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """log softmax over the last axis, shifted by the row max."""
    m = z.max(axis=-1, keepdims=True)
    return z - (np.log(np.exp(z - m).sum(axis=-1, keepdims=True)) + m)


def log_softmax_rows(z: Node) -> Node:
    """The log-softmax of z's rows as one node; with p = exp(log p), its
    vjp maps g to g - p sum(g)."""
    logp = _log_softmax(z.val)
    p = np.exp(logp)
    return Node(logp, (z,), lambda g: (g - p * g.sum(axis=-1, keepdims=True),))


def gradient_reversal(a: Node, scale: float) -> Node:
    """Identity on forward; backward multiplies the adjoint by -scale."""
    if scale < 0:
        raise ShapeMismatch("reversal scale must be nonnegative")
    return Node(a.val, (a,), lambda g: (-float(scale) * g,))


# -- backward ----------------------------------------------------------------

def grad_nodes(root: Node, wrt: list[Node]) -> list[np.ndarray]:
    """Adjoints of a root for each node in `wrt`, as arrays; a root with
    entries (one per run of a stack) is seeded with ones.

    The pass is first-order: each vjp maps an adjoint array to one array per
    parent, and the adjoints of a node's uses are added as arrays, so an
    adjoint is a value with no graph behind it.  A heap visits the nodes in
    reverse creation order (`Node.order`), taking a parent in when its
    first adjoint arrives; every use of a node was made after it.
    """
    adjoint: dict[int, np.ndarray] = {id(root): np.ones_like(root.val)}
    heap = [(-root.order, root)]
    while heap:
        _, node = heapq.heappop(heap)
        if node.vjp is None:
            continue
        for parent, contrib in zip(node.parents, node.vjp(adjoint[id(node)])):
            have = adjoint.get(id(parent))
            adjoint[id(parent)] = contrib if have is None else have + contrib
            if have is None:
                heapq.heappush(heap, (-parent.order, parent))
    return [adjoint[id(w)] if id(w) in adjoint else np.zeros_like(w.val)
            for w in wrt]


# -- the model ---------------------------------------------------------------

def _split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of flat [*runs, P] as consecutive blocks of the given shapes,
    each [*runs, ...]."""
    lead, out, i = math.prod(flat.shape[:-1]), [], 0
    for shape in shapes:
        n = math.prod(shape) // lead
        out.append(flat[..., i:i + n].reshape(shape))
        i += n
    return out


@dataclass
class Model:
    """Embedding + dense rectifier extractor + linear head with dummy-unit bias.

    A stack of R runs (`stack_runs`) puts a leading run axis on every
    parameter array and shares the embedding; shapes, sizes and flat
    parameters below are per run, flat parameters [R, n_params] on a stack.
    The parameter blocks are views of one buffer, `flat`, in the order W0,
    b0, W1, b1, ..., head; the constructor packs the blocks it is given into
    a new one.  `params` holds the same views as the cores read them, a
    stack's biases [R, 1, d] so they broadcast over rows.
    """

    embedding: np.ndarray | None  # [n_obs, e]; None means inputs arrive embedded
    weights: list[np.ndarray]  # per layer, [d_in, d_out]
    biases: list[np.ndarray]  # per layer, [d_out]
    head: np.ndarray  # [u_count + 1, n_classes]
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    params: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        runs = np.shape(self.head)[:-2]
        blocks = [a for wb in zip(self.weights, self.biases) for a in wb]
        blocks.append(self.head)
        self.flat = np.concatenate([np.asarray(a, dtype=np.float64).reshape(
            runs + (-1,)) for a in blocks], axis=-1)
        shapes = [np.shape(a) for a in blocks]
        if runs:
            shapes[1:-1:2] = [s[:-1] + (1,) + s[-1:] for s in shapes[1:-1:2]]
        self.params = _split(self.flat, shapes)
        self.weights, self.head = self.params[:-1:2], self.params[-1]
        self.biases = ([b[..., 0, :] for b in self.params[1:-1:2]] if runs
                       else self.params[1:-1:2])

    @property
    def runs(self) -> tuple:
        """The run axis: () for one run, (R,) for a stack of R."""
        return self.head.shape[:-2]

    @property
    def u_count(self) -> int:
        return self.head.shape[-2] - 1

    @property
    def n_classes(self) -> int:
        return self.head.shape[-1]

    def param_blocks(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"W{i}", w))
            out.append((f"b{i}", b))
        out.append(("head", self.head))
        return out

    def n_params(self) -> int:
        return self.flat.shape[-1]

    def flat_params(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat_params(self, flat: np.ndarray) -> None:
        if np.shape(flat) != self.flat.shape:
            raise ShapeMismatch(f"flat parameters of shape {np.shape(flat)} "
                                f"for a buffer of {self.flat.shape}")
        self.flat[...] = flat

    def clone(self) -> "Model":
        emb = None if self.embedding is None else self.embedding.copy()
        return Model(emb, self.weights, self.biases, self.head)

    def run(self, r: int) -> "Model":
        """Run r of a stack as a model of its own: copies of its parameter
        arrays, and the shared embedding."""
        return Model(self.embedding, [w[r] for w in self.weights],
                     [b[r] for b in self.biases], self.head[r])


def stack_runs(model: Model, r: int) -> Model:
    """r copies of a one-run model on a leading run axis; the embedding,
    a constant of the inputs, stays shared."""
    return Model(model.embedding, [np.stack([w] * r) for w in model.weights],
                 [np.stack([b] * r) for b in model.biases],
                 np.stack([model.head] * r))


def make_embedding(spec, n_obs: int) -> np.ndarray | None:
    """Resolve an embedding spec: "onehot", "bits", None, or an explicit matrix."""
    from .cld_core import bit_coords
    if spec is None:
        return None
    if isinstance(spec, str):
        if spec == "onehot":
            return np.eye(n_obs)
        if spec == "bits":
            return bit_coords(n_obs)
        raise ShapeMismatch(f"unknown embedding spec {spec!r}")
    arr = np.asarray(spec, dtype=np.float64)
    if arr.shape[0] != n_obs:
        raise ShapeMismatch(f"embedding rows {arr.shape[0]} != n_obs {n_obs}")
    return arr


def init_model(n_obs: int, widths: tuple, n_classes: int, *,
               embedding="onehot", seed: int = 0) -> Model:
    """init_raw_model over the embedding's width, with the embedding attached."""
    emb = make_embedding(embedding, n_obs)
    if emb is None:
        raise ShapeMismatch("init_model needs a concrete embedding; "
                            "use init_raw_model for raw-input networks")
    model = init_raw_model(emb.shape[1], widths, n_classes, seed=seed)
    model.embedding = emb
    return model


def init_raw_model(d_in: int, widths: tuple, n_classes: int, *, seed: int = 0) -> Model:
    """Glorot-uniform init for all blocks, biases included, over real inputs
    (adversaries eat feature rows).

    Biases share the weight bound so no unit starts exactly on the relu
    kink for inputs with all-zero embedding rows.
    """
    rng = substream(seed, "init")
    dims = [d_in, *widths]
    weights, biases = [], []
    for a, b in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-bound, bound, size=(a, b)))
        biases.append(rng.uniform(-bound, bound, size=b))
    u = dims[-1]
    bound = np.sqrt(6.0 / (u + 1 + n_classes))
    head = rng.uniform(-bound, bound, size=(u + 1, n_classes))
    return Model(None, weights, biases, head)


class _Fields(dict):
    """Adjoints of a fused node's fields, by field name; `+` adds them field
    by field, so `grad_nodes` sums the uses of a fused node's fields as it
    sums arrays."""

    def __add__(self, other: "_Fields") -> "_Fields":
        out = _Fields(self)
        for key, g in other.items():
            out[key] = out[key] + g if key in out else g
        return out


class ObsTable:
    """One forward's rows as graph nodes: features H, logits z, their
    log-softmax, the probabilities p = exp(logp), and each dense layer's
    input rows, first layer first (the embedded inputs, then the features
    of every layer but the last).  `vals` is `forward_core`'s table of the
    arrays by field key ("h", "z", "logp", "p", or layer l's index).

    The forward is one fused node.  A term written in closed form on the
    arrays is one node on it (`term`), handing it the fields' adjoints and
    the head's, under "head"; each field is also a view of it, built on
    first read, that hands its adjoint to the fused node under the field's
    key."""

    __slots__ = ("_node", "vals", "_views", "_n_layers")

    def __init__(self, node: Node, vals: dict, n_layers: int):
        self._node, self.vals, self._views = node, vals, {}
        self._n_layers = n_layers

    def _view(self, key) -> Node:
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = Node(self.vals[key], (self._node,),
                                           lambda g: (_Fields({key: g}),))
        return view

    h = property(lambda self: self._view("h"))
    z = property(lambda self: self._view("z"))
    logp = property(lambda self: self._view("logp"))
    p = property(lambda self: self._view("p"))

    @property
    def layers(self) -> tuple:
        return tuple(self._view(layer) for layer in range(self._n_layers))

    def term(self, value, vjp) -> Node:
        """A term in closed form as one node whose one parent is the fused
        node: vjp maps the term's adjoint to a dict of the fields'
        adjoints by key, the head's under "head"."""
        return Node(value, (self._node,), lambda g: (_Fields(vjp(g)),))


class Tape:
    """Leaf nodes for one step's parameters, views of one copy of the
    model's buffer, and the step's observation table.

    Every term that reads observation indices reads rows of one table: the
    forward over every observation, `arange(n_obs)`, that `obs_rows` runs
    the first time a term asks for it and keeps here (RSC runs it with its
    feature masks).  A step therefore runs one forward whatever its terms
    (plus one per adversary, whose inputs are feature rows).  `last` is the
    table of the latest forward on the tape.  The weights that terms put on
    the table's rows are their callers' (a run's W, or `weight_table`'s).
    A step of closed-form terms needs no tape (`forward_core`).
    """

    def __init__(self, model: Model):
        self.model = model
        self.param_nodes = [constant(a) for a in _split(
            model.flat.copy(), [a.shape for a in model.params])]
        self.names = [name for name, _ in model.param_blocks()]
        self.table: ObsTable | None = None
        self.last: ObsTable | None = None

    def node(self, name: str) -> Node:
        return self.param_nodes[self.names.index(name)]


def embed_inputs(model: Model, inputs) -> np.ndarray:
    x = np.asarray(inputs)
    if x.ndim == 1 and np.issubdtype(x.dtype, np.integer):
        if model.embedding is None:
            raise ShapeMismatch("model has no embedding for index inputs")
        return model.embedding[x]
    return np.asarray(x, dtype=np.float64)


def _plus(a, b):
    """a + b, where None stands for no adjoint."""
    return b if a is None else a if b is None else a + b


def forward_core(params: list, x: np.ndarray, mask=None) -> dict:
    """The network on input rows x as a table of arrays: each layer's input
    rows by layer index (index L, one past the last layer, holds its output
    before the mask), "h", "z", "logp", "p", and "h1", H with the bias
    unit's column of ones.  params are blocks as in `Model.params`; `mask`
    multiplies H before the head, and a [D, 1, u] mask gives D masked
    tables, [D, rows, ...].  NonFiniteActivation if H or z is not finite."""
    ws, bs, head = params[:-1:2], params[1:-1:2], params[-1]
    acts = [x]  # each layer's input, then the last layer's output
    for w, b in zip(ws, bs):
        a = acts[-1] @ w + b
        acts.append(a * (a > 0.0))
    h = acts[-1] if mask is None else acts[-1] * mask
    h1 = np.concatenate([h, np.ones(h.shape[:-1] + (1,))], axis=-1)
    z = h1 @ head
    if not (np.isfinite(h).all() and np.isfinite(z).all()):
        raise NonFiniteActivation("non-finite features or logits in forward")
    logp = _log_softmax(z)
    return {"h": h, "h1": h1, "z": z, "logp": logp, "p": np.exp(logp),
            **dict(enumerate(acts))}


def backprop_core(t: dict, params: list, g: dict, mask=None,
                  live: bool = False):
    """The closed-form backprop of adjoints g of the fields of t, a
    `forward_core` table on params, by key ("h", "z", "logp", "p", a layer
    index, and "head", added to the head's own): (the flat gradient
    [*runs, P] in the order of params, the adjoint of the input rows when
    live, else None).

    p goes into log p (g p), log p into z (g - p sum(g)), z into the head
    and H, then back through each layer's relu mask to its W and b, adding
    the adjoints of the layer inputs on the way.
    """
    ws, bs, head = params[:-1:2], params[1:-1:2], params[-1]
    p = t["p"]
    glogp = _plus(g.get("logp"), None if "p" not in g else g["p"] * p)
    gz = g.get("z")
    if glogp is not None:
        gz = _plus(gz, glogp - p * glogp.sum(axis=-1, keepdims=True))
    gh, ghead = g.get("h"), g.get("head")
    if gz is not None:
        ghead = _plus(_unbroadcast(_t(t["h1"]) @ gz, head.shape), ghead)
        gh = _plus(gh, (gz @ _t(head))[..., :-1])
    grads = [np.zeros_like(head) if ghead is None else ghead]
    if gh is None:
        gh = np.zeros_like(t["h"])
    gout = gh if mask is None else gh * mask  # the adjoint of the last output
    for layer in reversed(range(len(ws))):
        gpre = gout * (t[layer + 1] > 0.0)
        grads[:0] = [_unbroadcast(_t(t[layer]) @ gpre, ws[layer].shape),
                     _unbroadcast(gpre, bs[layer].shape)]
        if layer or live:
            gout = _plus(gpre @ _t(ws[layer]), g.get(layer))
    runs = head.shape[:-2]
    return (np.concatenate([a.reshape(runs + (-1,)) for a in grads], axis=-1),
            _unbroadcast(gout, t[0].shape) if live else None)


def forward(model: Model, inputs, tape: Tape | None = None, *,
            feature_mask: np.ndarray | None = None):
    """Run the network as one fused graph node; returns (H, z, probs, tape),
    views of the forward's table (`ObsTable`), which is also `tape.last`.

    `inputs` may be observation indices (embedded via the model's fixed map),
    ready real vectors, or a live Node of features from another graph (how
    reversed features reach an adversary).  `feature_mask` multiplies H
    before the head (selective muting); a [D, 1, u] mask gives D masked
    tables in the one node, [D, rows, ...].  Terms on a tape read its
    observation table (`obs_rows`), whose forward is this one over every
    observation, so the finiteness check covers every observation's row;
    RSC's masked forward over every observation is its step's one forward.

    The values are `forward_core`'s on the tape's parameters, and the fused
    node's vjp is `backprop_core`, split into the parameter leaves'
    adjoints (and a live input's).
    """
    live = isinstance(inputs, Node)
    if live:
        if inputs.val.ndim != 2 or inputs.val.shape[0] == 0:
            raise ShapeMismatch("feature-node input must be a nonempty matrix")
        x = inputs.val
    else:
        if np.asarray(inputs).shape[0] == 0:
            raise ShapeMismatch("empty batch")
        x = embed_inputs(model, inputs)
    tape = tape if tape is not None else Tape(model)
    params = [n.val for n in tape.param_nodes]  # W0, b0, W1, b1, ..., head
    mask = None if feature_mask is None else np.asarray(feature_mask,
                                                        dtype=np.float64)
    t = forward_core(params, x, mask)

    def vjp(g: _Fields) -> list:
        flat, gx = backprop_core(t, params, g, mask, live)
        grads = _split(flat, [a.shape for a in params])
        return [gx, *grads] if live else grads

    parents = tuple(tape.param_nodes)
    # the fused node's own value is z; its fields are read through the views
    fused = Node(t["z"], (inputs, *parents) if live else parents, vjp)
    table = ObsTable(fused, t, len(params) // 2)
    tape.last = table
    return table.h, table.z, table.p, tape


def obs_rows(model: Model, inputs, tape: Tape) -> tuple[ObsTable, np.ndarray]:
    """(table, rows): rows `rows` of `table` hold the forward of `inputs`.

    Observation indices, for a model with an embedding, read the tape's
    observation table, built by one `forward` over every observation on the
    tape's first call.  Other inputs (ready vectors, a feature node, or a
    model with no embedding) get a forward of their own, with rows in input
    order.
    """
    x = inputs.val if isinstance(inputs, Node) else np.asarray(inputs)
    if (model.embedding is not None and x.ndim == 1
            and np.issubdtype(x.dtype, np.integer)):
        if tape.table is None:
            forward(model, np.arange(model.embedding.shape[0]), tape)
            tape.table = tape.last
        return tape.table, x.astype(np.int64)
    forward(model, inputs, tape)
    return tape.last, np.arange(x.shape[0])


def backward(tape: Tape, loss_node: Node) -> np.ndarray:
    """Flat gradient over the tape's canonical parameter ordering; on a
    stack of R runs the loss holds one entry per run and the gradient is
    [R, n_params], row r the gradient of run r's loss."""
    runs = tape.model.runs
    if loss_node.val.shape != runs:
        raise ShapeMismatch("loss node must be scalar, or one entry per run "
                            "of a stack")
    grads = grad_nodes(loss_node, tape.param_nodes)
    return np.concatenate([g.reshape(runs + (-1,)) for g in grads], axis=-1)


def finite_diff_check(model: Model, batch, loss_fn, eps: float = 1e-5, *,
                      fd_fn=None, blocks: list[str] | None = None) -> float:
    """Max relative error between backward and central differences.

    loss_fn(model, batch, tape) must build its graph on the given tape (a
    fresh one snapshots the model's current parameters) and return a scalar
    node.  `fd_fn` optionally supplies a different scalar for the difference
    quotient (sign-adjusted composites); `blocks` restricts the scan to
    named parameter blocks.
    """
    tape = Tape(model)
    node = loss_fn(model, batch, tape)
    analytic = np.concatenate([g.ravel() for g in
                               grad_nodes(node, tape.param_nodes)])
    evaluate = fd_fn if fd_fn is not None else (
        lambda m, b: float(loss_fn(m, b, Tape(m)).val))
    wanted = tape.names if blocks is None else blocks
    worst = 0.0
    starts = np.cumsum([0] + [arr.size for _, arr in model.param_blocks()])
    for (name, arr), lo in zip(model.param_blocks(), starts):
        if name not in wanted:
            continue
        # the block is a view of the model's buffer: perturb it in place
        for j, at in enumerate(np.ndindex(arr.shape)):
            keep = arr[at]
            arr[at] = keep + eps
            up = evaluate(model, batch)
            arr[at] = keep - eps
            down = evaluate(model, batch)
            arr[at] = keep
            fd = (up - down) / (2.0 * eps)
            a = analytic[lo + j]
            worst = max(worst, abs(a - fd) / (abs(a) + 1e-8))
    return worst


# -- optimizers --------------------------------------------------------------

def sgd_step(model: Model, gradient: np.ndarray, lr: float) -> Model:
    if lr <= 0:
        raise ShapeMismatch("lr must be positive")
    model.flat -= lr * gradient
    return model


@dataclass
class AdamState:
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(model: Model, state: AdamState, gradient: np.ndarray,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    if lr <= 0:
        raise ShapeMismatch("lr must be positive")
    if state.m is None:
        state.m = np.zeros_like(gradient)
        state.v = np.zeros_like(gradient)
    state.t += 1
    state.m = beta1 * state.m + (1 - beta1) * gradient
    state.v = beta2 * state.v + (1 - beta2) * gradient ** 2
    mhat = state.m / (1 - beta1 ** state.t)
    vhat = state.v / (1 - beta2 ** state.t)
    model.flat -= lr * mhat / (np.sqrt(vhat) + eps)
    return model, state


# -- checkpoints -------------------------------------------------------------

def save_checkpoint(model: Model, path: str) -> None:
    doc = {
        "embedding": None if model.embedding is None else model.embedding.tolist(),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "head": model.head.tolist(),
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # dumps runs the C encoder; dump does not
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    emb = None if doc["embedding"] is None else np.asarray(doc["embedding"])
    return Model(emb, [np.asarray(w) for w in doc["weights"]],
                 [np.asarray(b) for b in doc["biases"]],
                 np.asarray(doc["head"]))
