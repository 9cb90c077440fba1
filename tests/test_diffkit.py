import math
import warnings

import numpy as np
import pytest

from cldlab import cld_core, diffkit as dk, oracle
from cldlab.errors import NonFiniteActivation, ShapeMismatch
from cldlab.metrics import tabulate
from cldlab.objectives import (
    DomainBatch,
    erm_loss,
    lam_regularizer,
    pair_regularizer,
    sd_penalty,
)
from cldlab.pairgen import ContrastivePair


def linear_model(head, embedding=None, n_obs=4):
    emb = dk.make_embedding("bits" if embedding is None else embedding, n_obs)
    return dk.Model(emb, [], [], np.asarray(head, dtype=np.float64))


def test_zero_parameters_give_uniform_probs():
    model = linear_model(np.zeros((3, 2)))
    _, _, probs, _ = dk.forward(model, np.array([0, 1, 2, 3]))
    assert np.allclose(probs.val, 0.5)


def test_hand_set_linear_layer():
    # logits = [A, B] @ W + bias with W = [[1, -1], [2, 0]], bias = (0.5, -0.5)
    head = np.array([[1.0, -1.0], [2.0, 0.0], [0.5, -0.5]])
    model = linear_model(head)
    _, z, _, _ = dk.forward(model, np.array([3]))  # (A, B) = (1, 1)
    assert np.allclose(z.val, [[1 + 2 + 0.5, -1 + 0 - 0.5]])


def test_a_weighted_head_is_causal_invariant(canon_d):
    family, _, _ = canon_d
    # class-1 logit reads 10*A; class-0 logit stays 0
    head = np.array([[0.0, 10.0], [0.0, 0.0], [0.0, 0.0]])
    table = tabulate(linear_model(head), family)
    assert oracle.is_causal_invariant(family, table).invariant


def test_gradient_of_param_square_sum():
    model = dk.init_model(4, (3,), 2, embedding="bits", seed=1)
    tape = dk.Tape(model)
    loss = dk.nsum(dk.stack_list(
        [dk.nsum(dk.square(n)) for n in tape.param_nodes]))
    grad = dk.backward(tape, loss)
    assert np.allclose(grad, 2.0 * model.flat_params())


def test_a_backward_returns_arrays_and_builds_no_nodes(monkeypatch):
    """grad_nodes hands back the adjoints themselves, one array per wrt
    node, and makes no graph node on the way."""
    model = dk.init_model(4, (3,), 2, embedding="bits", seed=1)
    tape = dk.Tape(model)
    table, _ = dk.obs_rows(model, np.arange(4), tape)
    loss = dk.nsum(table.logp)
    made = []
    real = dk.Node.__init__
    monkeypatch.setattr(dk.Node, "__init__", lambda node, *a, **k:
                        made.append(node) or real(node, *a, **k))
    grads = dk.grad_nodes(loss, tape.param_nodes)
    assert made == []
    assert all(type(g) is np.ndarray and g.shape == n.val.shape
               for g, n in zip(grads, tape.param_nodes))


def test_gradient_of_constant_is_zero():
    model = dk.init_model(4, (3,), 2, embedding="bits", seed=1)
    tape = dk.Tape(model)
    grad = dk.backward(tape, dk.constant(np.array(7.0)))
    assert np.array_equal(grad, np.zeros(model.n_params()))


def test_log_softmax_shift_invariance():
    z = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
    a = dk.log_softmax_rows(dk.constant(z)).val
    b = dk.log_softmax_rows(dk.constant(z + 1234.5)).val
    assert np.allclose(a, b, atol=1e-9)
    assert np.allclose(np.exp(a).sum(axis=1), 1.0)


def test_forward_is_deterministic():
    model = dk.init_model(4, (8, 8), 3, embedding="bits", seed=3)
    x = np.array([0, 1, 2, 3, 1])
    za = dk.forward(model, x)[1].val
    zb = dk.forward(model, x)[1].val
    assert np.array_equal(za, zb)


def test_forward_accepts_feature_nodes():
    model = dk.init_model(4, (8,), 2, embedding="bits", seed=3)
    raw = dk.init_raw_model(8, (4,), 2, seed=4)
    h = dk.forward(model, np.array([0, 1]))[0]
    _, z, _, _ = dk.forward(raw, h)
    assert z.val.shape == (2, 2)
    with pytest.raises(ShapeMismatch):
        dk.forward(raw, dk.constant(np.zeros((0, 8))))


def test_empty_batch_rejected():
    model = dk.init_model(4, (8,), 2, embedding="bits", seed=3)
    with pytest.raises(ShapeMismatch):
        dk.forward(model, np.array([], dtype=np.int64))


def test_overflowing_activation_raises():
    model = linear_model(np.full((3, 2), 1e308))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteActivation):
        dk.forward(model, np.array([3]))


class TestFiniteDiff:
    def batch(self):
        return DomainBatch("d", np.array([0, 1, 2, 3, 1]),
                           np.array([0, 1, 1, 0, 1]),
                           np.full(5, 0.2))

    def test_erm(self):
        model = dk.init_model(4, (6, 5), 2, embedding="bits", seed=11)
        err = dk.finite_diff_check(
            model, self.batch(), lambda m, b, t: erm_loss(m, b, t), eps=1e-4)
        assert err < 1e-4

    def test_sd_regularized(self):
        def loss(m, b, t):
            _, z, _, _ = dk.forward(m, b.inputs, t)
            return dk.add(erm_loss(m, b, t), sd_penalty(z, b.weights))
        model = dk.init_model(4, (6, 5), 2, embedding="bits", seed=11)
        assert dk.finite_diff_check(model, self.batch(), loss, eps=1e-4) < 1e-4

    def test_lam_regularized(self):
        pairs = [ContrastivePair(0, 2, 1, 0, 0, 1),
                 ContrastivePair(1, 3, 0, 0, 0, 1)]

        def loss(m, b, t):
            return dk.add(erm_loss(m, b, t), lam_regularizer(m, pairs, t))
        model = dk.init_model(4, (6, 5), 2, embedding="bits", seed=11)
        assert dk.finite_diff_check(model, self.batch(), loss, eps=1e-4) < 1e-4


@pytest.mark.parametrize("axis", [(1, 2), (0, 2), 1, None])
def test_nmean_over_axes_matches_numpy(axis):
    a = np.arange(24.0).reshape(2, 3, 4) ** 1.5
    leaf = dk.constant(a)
    out = dk.nmean(leaf, axis=axis)
    np.testing.assert_allclose(out.val, a.mean(axis=axis), rtol=1e-15)
    w = np.linspace(-1.0, 2.0, out.val.size).reshape(out.val.shape)
    (g,) = dk.grad_nodes(dk.nsum(dk.mul(out, dk.constant(w))), [leaf])
    # d/da of sum(w * mean(a)): each entry gets its cell's w over the count
    axes = tuple(range(3)) if axis is None else (
        axis if isinstance(axis, tuple) else (axis,))
    count = int(np.prod([a.shape[ax] for ax in axes]))
    want = np.broadcast_to(np.expand_dims(w, axes), a.shape) / count
    np.testing.assert_allclose(g, want, rtol=1e-15)


class TestGradientReversal:
    def test_scale_zero_blocks_the_gradient(self):
        model = linear_model([[3.0]], embedding=np.zeros((1, 0)), n_obs=1)
        tape = dk.Tape(model)
        p = tape.node("head")
        loss = dk.nsum(dk.square(dk.gradient_reversal(p, 0.0)))
        assert np.array_equal(dk.backward(tape, loss), [0.0])

    def test_scale_one_negates(self):
        # loss = p**2 at p = 3: plain gradient 6, reversed gradient -6
        model = linear_model([[3.0]], embedding=np.zeros((1, 0)), n_obs=1)
        tape = dk.Tape(model)
        p = tape.node("head")
        loss = dk.nsum(dk.square(dk.gradient_reversal(p, 1.0)))
        assert loss.val == pytest.approx(9.0)
        assert np.allclose(dk.backward(tape, loss), [-6.0])

    def test_value_passes_through_unchanged(self):
        node = dk.constant(np.array([1.5, -2.0]))
        assert np.array_equal(dk.gradient_reversal(node, 0.3).val, node.val)


class TestOptimizers:
    def test_single_sgd_step_on_square(self):
        model = linear_model([[1.0]], embedding=np.zeros((1, 0)), n_obs=1)
        tape = dk.Tape(model)
        loss = dk.nsum(dk.square(tape.node("head")))
        stepped = dk.sgd_step(model, dk.backward(tape, loss), lr=0.1)
        assert stepped.head[0, 0] == pytest.approx(0.8)

    def test_adam_first_step_magnitude_is_lr(self):
        for scale in (1.0, 1e-3, 1e3):
            model = linear_model([[5.0]], embedding=np.zeros((1, 0)), n_obs=1)
            m2, _ = dk.adam_step(model, dk.AdamState(),
                                 np.array([scale]), lr=0.01)
            # the 1e-8 denominator floor shifts the step by O(eps/|g|)
            assert abs(m2.head[0, 0] - 5.0) == pytest.approx(0.01, rel=1e-4)

    def test_sgd_converges_on_convex_quadratic(self):
        # minimize (p - 2)**2; unique minimizer p = 2
        model = linear_model([[0.0]], embedding=np.zeros((1, 0)), n_obs=1)
        for _ in range(200):
            tape = dk.Tape(model)
            p = tape.node("head")
            loss = dk.nsum(dk.square(dk.sub(p, dk.constant(np.array([[2.0]])))))
            model = dk.sgd_step(model, dk.backward(tape, loss), lr=0.2)
        assert abs(model.head[0, 0] - 2.0) < 1e-6


def test_checkpoint_round_trip(tmp_path):
    model = dk.init_model(4, (7, 3), 2, embedding="bits", seed=9)
    path = str(tmp_path / "m.json")
    dk.save_checkpoint(model, path)
    back = dk.load_checkpoint(path)
    assert np.array_equal(back.head, model.head)
    assert all(np.array_equal(a, b) for a, b in zip(back.weights, model.weights))
    assert all(np.array_equal(a, b) for a, b in zip(back.biases, model.biases))
    assert np.array_equal(back.embedding, model.embedding)
    x = np.array([0, 3, 2])
    assert np.array_equal(dk.forward(back, x)[1].val, dk.forward(model, x)[1].val)


def test_raw_checkpoint_keeps_missing_embedding(tmp_path):
    raw = dk.init_raw_model(5, (4,), 3, seed=2)
    path = str(tmp_path / "raw.json")
    dk.save_checkpoint(raw, path)
    back = dk.load_checkpoint(path)
    assert back.embedding is None
    assert np.array_equal(back.head, raw.head)


def test_feature_mask_mutes_units():
    model = dk.init_model(4, (6,), 2, embedding="bits", seed=0)
    mask = np.ones(6)
    mask[2] = 0.0
    h, _, _, _ = dk.forward(model, np.array([1, 2]), feature_mask=mask)
    assert np.array_equal(h.val[:, 2], [0.0, 0.0])


# -- the run axis --------------------------------------------------------------

# op, and each operand's shape: a leading 3 is the run axis, and a shape
# without it is an operand that every run shares.
RUN_AXIS_OPS = {
    "matmul": (dk.matmul, [(3, 4, 5), (3, 5, 2)]),
    "matmul-shared-left": (dk.matmul, [(4, 5), (3, 5, 2)]),
    "t2": (dk.t2, [(3, 4, 5)]),
    "gather_rows": (lambda a: dk.gather_rows(a, np.array([2, 0, 2, 3])),
                    [(3, 4, 5)]),
    "take_cols": (lambda a: dk.take_cols(a, np.array([1, 0, 4, 4])),
                  [(3, 4, 5)]),
    "slice_rows": (lambda a: dk.slice_rows(a, 1, 3), [(3, 4, 5)]),
    "concat_ones": (dk.concat_ones, [(3, 4, 5)]),
    "nsum-last": (lambda a: dk.nsum(a, axis=-1), [(3, 4, 5)]),
    "nsum-last-keepdims": (lambda a: dk.nsum(a, axis=-1, keepdims=True),
                           [(3, 4, 5)]),
    "nsum-last-two": (lambda a: dk.nsum(a, axis=(-2, -1)), [(3, 4, 5)]),
    "nmean-last": (lambda a: dk.nmean(a, axis=-1), [(3, 4, 5)]),
    "log_softmax_rows": (dk.log_softmax_rows, [(3, 4, 5)]),
}


@pytest.mark.parametrize("name", sorted(RUN_AXIS_OPS))
def test_op_on_a_run_stack_equals_each_run(name):
    """On a [3, ...] stack each run's value and adjoint are bitwise those
    of the op on that run alone; a shared operand's adjoint is the sum of
    the runs' adjoints."""
    op, shapes = RUN_AXIS_OPS[name]
    rng = np.random.default_rng(7)
    arrays = [rng.normal(size=s) for s in shapes]
    leaves = [dk.constant(a) for a in arrays]
    out = op(*leaves)
    g = rng.normal(size=out.val.shape)
    grads = dk.grad_nodes(dk.nsum(dk.mul(out, dk.constant(g))), leaves)
    shared = [np.zeros(a.shape) for a in arrays]
    for r in range(3):
        run_leaves = [dk.constant(a[r] if len(s) == 3 else a)
                      for a, s in zip(arrays, shapes)]
        run_out = op(*run_leaves)
        assert np.array_equal(out.val[r], run_out.val)
        run_grads = dk.grad_nodes(dk.nsum(dk.mul(run_out, dk.constant(g[r]))),
                                  run_leaves)
        for i, (s, have, want) in enumerate(zip(shapes, grads, run_grads)):
            if len(s) == 3:
                assert np.array_equal(have[r], want)
            else:
                shared[i] = shared[i] + want
    for s, have, total in zip(shapes, grads, shared):
        if len(s) != 3:
            assert np.array_equal(have, total)


def _stack_of_distinct_runs(seed=5, widths=(6, 5)):
    """init_model stacked three times, each run nudged apart."""
    model = dk.stack_runs(dk.init_model(4, widths, 2, embedding="bits",
                                        seed=seed), 3)
    rng = np.random.default_rng(seed)
    model.set_flat_params(model.flat_params()
                          + 0.3 * rng.normal(size=(3, model.n_params())))
    return model


def _erm_plus_pairs(m, b, t):
    pairs = [ContrastivePair(0, 2, 1, 0, 0, 1),
             ContrastivePair(1, 3, 0, 0, 0, 1),
             ContrastivePair(0, 2, 1, 0, 0, 1)]
    return dk.add(erm_loss(m, b, t), dk.add(
        lam_regularizer(m, pairs, t), pair_regularizer(m, pairs, "PROB", t)))


class TestRunStack:
    def batch(self):
        return TestFiniteDiff().batch()

    def test_shapes_and_flat_parameters_are_per_run(self):
        one = dk.init_model(4, (6, 5), 2, embedding="bits", seed=5)
        model = dk.stack_runs(one, 3)
        assert model.runs == (3,) and one.runs == ()
        assert (model.u_count, model.n_classes) == (one.u_count, one.n_classes)
        assert model.n_params() == one.n_params()
        assert model.flat_params().shape == (3, one.n_params())
        assert np.array_equal(model.run(1).flat_params(), one.flat_params())
        assert model.run(0).embedding is model.embedding

    def test_forward_and_gradient_equal_each_run(self):
        model = _stack_of_distinct_runs()
        tape = dk.Tape(model)
        loss = _erm_plus_pairs(model, self.batch(), tape)
        assert loss.val.shape == (3,)
        grads = dk.backward(tape, loss)
        for r in range(3):
            one = model.run(r)
            run_tape = dk.Tape(one)
            run_loss = _erm_plus_pairs(one, self.batch(), run_tape)
            assert loss.val[r] == run_loss.val
            assert np.array_equal(grads[r], dk.backward(run_tape, run_loss))

    def test_backward_wants_one_loss_per_run(self):
        model = _stack_of_distinct_runs()
        tape = dk.Tape(model)
        total = dk.nsum(_erm_plus_pairs(model, self.batch(), tape))
        with pytest.raises(ShapeMismatch):
            dk.backward(tape, total)

    def test_finite_differences_on_a_stack(self):
        model = _stack_of_distinct_runs()
        err = dk.finite_diff_check(
            model, self.batch(),
            lambda m, b, t: dk.nsum(_erm_plus_pairs(m, b, t)), eps=1e-4)
        assert err < 1e-4


# -- the fused forward ---------------------------------------------------------

FUSED_WIDTHS = [(), (6,), (8, 5), (6, 5, 4)]


def _fused_model(widths, stacked, seed=3):
    """A 3-class model on 4 one-hot observations, stacked 3 times with each
    run nudged apart."""
    model = dk.init_model(4, widths, 3, embedding="onehot", seed=seed)
    if stacked:
        model = dk.stack_runs(model, 3)
        rng = np.random.default_rng(seed)
        model.set_flat_params(model.flat_params()
                              + 0.3 * rng.normal(size=(3, model.n_params())))
    return model


def _fields(table) -> dict:
    return {"h": table.h, "z": table.z, "logp": table.logp, "p": table.p,
            **{f"layer{i}": a for i, a in enumerate(table.layers)}}


def _injected(fields: dict, names) -> dk.Node:
    """sum over the named fields of <C, field>, one fixed random C each, so
    the field's adjoint is C."""
    order = sorted(fields)
    terms = [dk.nsum(dk.mul(fields[n], dk.constant(np.random.default_rng(
        order.index(n)).normal(size=fields[n].val.shape)))) for n in names]
    return dk.nsum(dk.stack_list(terms))


def _fused_cases():
    for widths in FUSED_WIDTHS:
        fields = ["h", "z", "logp", "p",
                  *(f"layer{i}" for i in range(1, len(widths))), "all"]
        for stacked in (False, True):
            for field in fields:
                name = "x".join(map(str, widths)) or "linear"
                yield pytest.param(widths, stacked, field, id=f"{name}-"
                                   f"{'stack' if stacked else 'one'}-{field}")


@pytest.mark.parametrize("widths,stacked,field", list(_fused_cases()))
def test_fused_forward_gradients_match_finite_differences(widths, stacked,
                                                          field):
    """Adjoints injected into one field of the observation table, or into
    all of them, reach every parameter block as the difference quotient
    says."""
    def loss(m, b, t):
        fields = _fields(dk.obs_rows(m, np.arange(4), t)[0])
        return _injected(fields, sorted(fields) if field == "all" else [field])

    err = dk.finite_diff_check(_fused_model(widths, stacked), None, loss,
                               eps=1e-5)
    assert err < 1e-5


def test_fused_forward_with_a_feature_mask_matches_finite_differences():
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])

    def loss(m, b, t):
        dk.forward(m, np.arange(4), t, feature_mask=mask)
        return _injected(_fields(t.last), ["h", "z", "logp", "p", "layer1"])

    model = _fused_model((6, 5), False)
    assert dk.finite_diff_check(model, None, loss, eps=1e-5) < 1e-5


def test_a_stack_of_feature_masks_gives_each_masks_forward():
    """A [2, 1, u] feature mask gives, in one fused node, the forwards of
    its two masks: values bitwise, the parameter gradient of a sum over
    both the sum of the one-mask gradients, and the difference quotient's
    gradient."""
    masks = np.array([[[1.0, 0.0, 1.0, 1.0, 0.0]], [[0.0, 1.0, 1.0, 0.0, 1.0]]])
    model = _fused_model((6, 5), False)
    rng = np.random.default_rng(8)
    adjoints = {name: rng.normal(size=(2, 4, 5 if name == "h" else 3))
                for name in ("h", "z", "logp", "p")}

    def loss(m, mask, t, part=slice(None)):
        dk.forward(m, np.arange(4), t, feature_mask=mask)
        return dk.nsum(dk.stack_list([
            dk.nsum(dk.mul(getattr(t.last, name), dk.constant(c[part])))
            for name, c in adjoints.items()]))

    both = dk.Tape(model)
    grad = dk.backward(both, loss(model, masks, both))
    grads = []
    for k in range(2):
        one = dk.Tape(model)
        grads.append(dk.backward(one, loss(model, masks[k, 0], one, k)))
        for name in adjoints:
            assert np.array_equal(getattr(both.last, name).val[k],
                                  getattr(one.last, name).val)
    np.testing.assert_allclose(grad, grads[0] + grads[1], rtol=1e-12,
                               atol=1e-12 * np.abs(grad).max())
    assert dk.finite_diff_check(model, masks, loss, eps=1e-5) < 1e-5


def test_fused_forward_passes_the_adjoint_to_a_live_input():
    """A feature-node input gets the adjoint of its own rows, with the
    adjoints injected at its layer-input field added."""
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(5, 6))
    adversary = dk.init_raw_model(6, (4, 3), 2, seed=4)

    def loss_of(x):
        leaf = dk.constant(x)
        tape = dk.Tape(adversary)
        dk.forward(adversary, leaf, tape)
        return leaf, tape, _injected(_fields(tape.last), ["p", "h", "layer0",
                                                         "layer1"])

    leaf, tape, loss = loss_of(x0)
    got = dk.grad_nodes(loss, [leaf])[0]
    want = np.zeros_like(x0)
    for i in np.ndindex(x0.shape):
        step = np.zeros_like(x0)
        step[i] = 1e-6
        want[i] = (float(loss_of(x0 + step)[2].val)
                   - float(loss_of(x0 - step)[2].val)) / 2e-6
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)
    assert dk.finite_diff_check(
        adversary, None, lambda m, b, t: _injected(
            _fields(dk.obs_rows(m, dk.constant(x0), t)[0]), ["logp", "layer1"]),
        eps=1e-5) < 1e-5


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
def test_fused_forward_values_equal_the_per_layer_graph(stacked):
    """The fused forward's values are bitwise those of the per-layer graph
    of matmul, add, relu, concat_ones and the log-softmax."""
    model = _fused_model((6, 5), stacked)
    tape = dk.Tape(model)
    table = dk.obs_rows(model, np.arange(4), tape)[0]
    a = dk.constant(model.embedding)
    layers = []
    for w, b in zip(tape.param_nodes[:-1:2], tape.param_nodes[1:-1:2]):
        layers.append(a)
        a = dk.relu(dk.add(dk.matmul(a, w), b))
    z = dk.matmul(dk.concat_ones(a), tape.node("head"))
    logp = dk.log_softmax_rows(z)
    for have, want in [(table.h, a), (table.z, z), (table.logp, logp),
                       (table.p, dk.exp(logp)), *zip(table.layers, layers)]:
        assert np.array_equal(have.val, want.val)


def test_a_forward_builds_as_many_nodes_at_any_depth():
    """The forward is one fused node and its views, whatever the depth."""
    tapes = [dk.Tape(dk.init_model(4, widths, 3, embedding="onehot", seed=1))
             for widths in [(6,), (6, 5), (6, 5, 4)]]
    real = dk.Node.__init__
    counts = []

    def counted(node, *args, **kwargs):
        counts[-1] += 1
        real(node, *args, **kwargs)

    dk.Node.__init__ = counted
    try:
        for tape in tapes:
            counts.append(0)
            dk.forward(tape.model, np.arange(4), tape)
    finally:
        dk.Node.__init__ = real
    assert counts[0] == counts[1] == counts[2]


def test_overflowing_logits_raise_before_the_log_softmax():
    """The finiteness check runs before the log-softmax, which would warn
    on inf - inf."""
    model = linear_model(np.full((3, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"), pytest.raises(NonFiniteActivation):
            dk.forward(model, np.array([3]))
