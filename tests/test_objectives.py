"""Penalty zoo: hand-computable cases first, then the training smoke runs."""

import math

import numpy as np
import pytest

from cldlab import cld_core, diffkit as dk, harness, metrics, objectives as ob, pairgen
from cldlab.errors import ConfigError, ShapeMismatch, TooFewDomains, UnlabeledPair
from cldlab.pairgen import ContrastivePair, PairGroup, sample_pairs
from cldlab.rng import derive_seed


def linear_model(head, n_obs=4):
    return dk.Model(dk.make_embedding("bits", n_obs), [], [],
                    np.asarray(head, dtype=np.float64))


def batch(x, y, domain="d"):
    x = np.asarray(x)
    return ob.DomainBatch(domain, x, np.asarray(y), np.full(len(x), 1.0 / len(x)))


def population_batch(family, domain):
    """Every (x, y) cell with its exact probability as the weight."""
    p_xy = cld_core.joint_cnxy(family, domain).sum(axis=(0, 1))
    xs, ys = np.nonzero(p_xy > 0)
    return ob.DomainBatch(domain.domain_id, xs, ys, p_xy[xs, ys])


def causal_faithful_model(family):
    """Zero-hidden-layer bits model whose logits are log P*(y | A)."""
    z = np.log(family.p_y_given_c)  # rows: A = 0, 1
    head = np.vstack([z[1] - z[0], np.zeros(2), z[0]])
    return linear_model(head)


def shortcut_model(family, source):
    """Same architecture reading B, calibrated to the source's B-conditional."""
    p_xy = cld_core.joint_cnxy(family, source).sum(axis=(0, 1))
    p_y_given_b = np.stack([
        p_xy[[0, 2]].sum(axis=0) / p_xy[[0, 2]].sum(),
        p_xy[[1, 3]].sum(axis=0) / p_xy[[1, 3]].sum(),
    ])
    z = np.log(p_y_given_b)
    head = np.vstack([np.zeros(2), z[1] - z[0], z[0]])
    return linear_model(head)


class TestErm:
    def test_one_hot_correct_model_scores_zero(self):
        # class tracks A with a 500-logit margin either way
        head = np.array([[0.0, 1000.0], [0.0, 0.0], [500.0, 0.0]])
        b = batch([0, 2, 1], [0, 1, 0])
        model = linear_model(head)
        probs = dk.forward(model, b.inputs)[2].val
        hard = probs.argmax(axis=1)
        assert np.array_equal(hard, [0, 1, 0])
        assert ob.erm_loss(model, b).val < 1e-12

    def test_uniform_model_scores_ln2(self):
        model = linear_model(np.zeros((3, 2)))
        assert ob.erm_loss(model, batch([0, 1, 2, 3], [0, 1, 1, 0])).val \
            == pytest.approx(math.log(2))

    def test_unlabeled_pair_rejected_by_lam(self):
        model = linear_model(np.zeros((3, 2)))
        bad = ContrastivePair(0, 1, None, 0, 0, 1)
        with pytest.raises(UnlabeledPair):
            ob.lam_regularizer(model, [bad])


class TestPairRegularizer:
    @pytest.mark.parametrize("kind", ["PROB", "LOGIT", "FEAT"])
    def test_identical_members_score_zero(self, kind):
        model = dk.init_model(4, (6,), 2, embedding="bits", seed=2)
        pairs = [ContrastivePair(1, 1, 0, 0, 1, 1),
                 ContrastivePair(3, 3, 1, 1, 1, 1)]
        assert ob.pair_regularizer(model, pairs, kind).val == pytest.approx(0.0)

    def test_two_member_group_is_half_the_pair_form(self):
        model = dk.init_model(4, (6,), 2, embedding="bits", seed=2)
        group = PairGroup((0, 3), 1, 0, (0, 1))
        pair = ContrastivePair(0, 3, 1, 0, 0, 1)
        for kind in ("LOGIT", "FEAT"):
            g = ob.pair_regularizer(model, [group], kind).val
            p = ob.pair_regularizer(model, [pair], kind).val
            # per-coordinate unbiased variance of two points is (a-b)^2 / 2
            assert g == pytest.approx(p / 2, rel=1e-12)

    def test_unknown_kind_rejected(self):
        model = linear_model(np.zeros((3, 2)))
        with pytest.raises(ShapeMismatch):
            ob.pair_regularizer(model, [ContrastivePair(0, 1, 0, 0, 0, 1)], "KL")


def test_lam_hand_example():
    # extractor sends x0 -> (3, 1), x1 -> (3, 0); class-1 head weights (1, 2):
    # penalty = 1^2 * (3-3)^2 + 2^2 * (1-0)^2 = 4
    w = np.array([[3.0, 1.0], [3.0, 0.0]])  # onehot rows pick a row of w
    model = dk.Model(np.eye(2), [w], [np.zeros(2)],
                     np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 0.0]]))
    pair = ContrastivePair(0, 1, 1, 0, 0, 1)
    assert ob.lam_regularizer(model, [pair]).val == pytest.approx(4.0)


def test_lam_zero_head_scores_zero():
    model = dk.init_model(4, (6,), 2, embedding="bits", seed=0)
    model.head[...] = 0.0
    pairs = [ContrastivePair(0, 1, 1, 0, 0, 1)]
    assert ob.lam_regularizer(model, pairs).val == 0.0


class TestRiskMatching:
    def two_domain_losses(self, la, lb):
        """Degenerate one-example batches whose losses are exactly la, lb."""
        # -log p = l  =>  class-1 prob exp(-l) via a bias-only head
        def head_for(loss):
            p = math.exp(-loss)
            return np.array([[0.0, 0.0], [0.0, 0.0],
                             [0.0, math.log(p / (1 - p))]])
        return head_for(la), head_for(lb)

    def test_vrex_equal_losses_is_erm(self, canon_d):
        family, source, target = canon_d
        model = causal_faithful_model(family)
        bs = [population_batch(family, source), population_batch(family, target)]
        tape = dk.Tape(model)
        base = ob.mean_domain_loss(model, bs, tape)
        pen = ob.vrex_penalty(model, bs, tape)
        assert abs(pen.val) <= 1e-12
        total = dk.add(base, dk.mul(dk.constant(7.0), pen))
        assert total.val == pytest.approx(base.val, abs=1e-12)

    def test_vrex_population_variance(self):
        # one bias-only model, class-1 prob 1/e: label 1 costs 1 nat,
        # label 0 costs -log(1 - 1/e)
        head, _ = self.two_domain_losses(1.0, 1.0)
        model = linear_model(head)
        bs = [batch([0], [1], "a"), batch([0], [0], "b")]
        la, lb = 1.0, -math.log(1.0 - math.exp(-1.0))
        assert [ob.erm_loss(model, b).val for b in bs] \
            == [pytest.approx(la), pytest.approx(lb)]
        mean = (la + lb) / 2
        var = ((la - mean) ** 2 + (lb - mean) ** 2) / 2
        assert ob.vrex_penalty(model, bs).val == pytest.approx(var, rel=1e-12)

    def test_group_dro_picks_the_worst(self):
        ha, hb = self.two_domain_losses(1.0, 3.0)
        model = linear_model(hb)
        # domain "a" sees class 0 (loss is small), "b" sees class 1 (loss 3)
        bs = [batch([0], [0], "a"), batch([0], [1], "b")]
        worst = ob.group_dro(model, bs)
        assert worst.val == pytest.approx(3.0)

    def test_group_dro_tie_goes_to_the_first_domain(self):
        model = linear_model(np.zeros((3, 2)))
        bs = [batch([0], [0], "a"), batch([1], [1], "b")]
        tape = dk.Tape(model)
        node = ob.group_dro(model, bs, tape)
        assert node.val == pytest.approx(math.log(2))
        grad = dk.backward(tape, node)
        # gradient must flow through domain "a" alone: recompute directly
        tape2 = dk.Tape(model)
        only_a = ob.erm_loss(model, bs[0], tape2)
        assert np.allclose(grad, dk.backward(tape2, only_a))


class TestGradientMatching:
    def test_fish_identical_gradients(self):
        g = [dk.constant(np.array([1.0, 2.0]))]
        pen = ob.fish_from_grads([g, g])
        assert pen.val == pytest.approx(-5.0)  # -(1^2 + 2^2)

    def test_fish_orthogonal_gradients(self):
        ga = [dk.constant(np.array([1.0, 0.0]))]
        gb = [dk.constant(np.array([0.0, 1.0]))]
        assert ob.fish_from_grads([ga, gb]).val == pytest.approx(0.0)

    def test_iga_orthogonal_gradients(self):
        ga = [dk.constant(np.array([1.0, 0.0]))]
        gb = [dk.constant(np.array([0.0, 1.0]))]
        # per component: values {1,0} and {0,1}, population variance 0.25 each
        assert ob.iga_from_grads([ga, gb]).val == pytest.approx(0.5)

    def test_iga_identical_gradients(self):
        g = [dk.constant(np.array([3.0, -1.0, 2.0]))]
        assert ob.iga_from_grads([g, g]).val == pytest.approx(0.0)

    def test_fishr_hand_example(self):
        dom_a = [[dk.constant(np.array([0.0]))], [dk.constant(np.array([2.0]))]]
        dom_b = [[dk.constant(np.array([1.0]))], [dk.constant(np.array([1.0]))]]
        # variances 1 and 0, squared distance 1
        assert ob.fishr_from_grads([dom_a, dom_b]).val == pytest.approx(1.0)

    def test_fishr_permutation_invariant(self):
        a1 = [[dk.constant(np.array([0.5, 1.0]))], [dk.constant(np.array([2.0, 0.0]))]]
        a2 = [a1[1], a1[0]]
        b = [[dk.constant(np.array([1.0, 1.0]))], [dk.constant(np.array([0.0, 2.0]))]]
        assert ob.fishr_from_grads([a1, b]).val == pytest.approx(
            ob.fishr_from_grads([a2, b]).val)

    def test_single_domain_rejected(self):
        g = [dk.constant(np.array([1.0]))]
        for fn in (ob.fish_from_grads, ob.iga_from_grads):
            with pytest.raises(TooFewDomains):
                fn([g])


class TestAndMask:
    def test_unanimous_gradients_pass(self):
        g = np.array([1.0, -2.0, 0.5])
        out = ob.and_mask([g, g.copy(), g.copy()])
        assert np.allclose(out, g)

    def test_two_of_three_quorum(self):
        grads = [np.array([1.0]), np.array([2.0]), np.array([-3.0])]
        out = ob.and_mask(grads, quorum=0.6)
        assert out[0] == pytest.approx(0.0)  # mean of (1, 2, -3)

    def test_majority_below_quorum_is_zeroed(self):
        grads = [np.array([1.0]), np.array([2.0]), np.array([-3.0])]
        assert ob.and_mask(grads, quorum=0.9)[0] == 0.0

    def test_quorum_bounds(self):
        with pytest.raises(ShapeMismatch):
            ob.and_mask([np.array([1.0]), np.array([1.0])], quorum=0.5)


class TestIrmAndSd:
    def test_calibrated_model_has_zero_scale_gradient(self, canon_d):
        family, source, target = canon_d
        model = causal_faithful_model(family)
        bs = [population_batch(family, source), population_batch(family, target)]
        assert ob.irm_penalty(model, bs).val < 1e-20

    def test_uncalibrated_model_is_penalized(self, canon_d):
        family, source, target = canon_d
        model = shortcut_model(family, source)
        bs = [population_batch(family, source), population_batch(family, target)]
        assert ob.irm_penalty(model, bs).val > 1e-3

    def test_sd_zero_logits(self):
        assert ob.sd_penalty(dk.constant(np.zeros((3, 2)))).val == 0.0

    def test_sd_hand_value(self):
        assert ob.sd_penalty(dk.constant(np.array([[3.0, 4.0]]))).val \
            == pytest.approx(25.0)


class TestRsc:
    def test_uniform_scores_mute_the_top_half_highest_indices(self):
        # equal scores across 4 units: ties mute indices {2, 3}
        w = np.ones((2, 4))
        model = dk.Model(np.eye(2), [w], [np.zeros(4)],
                         np.vstack([np.tile([1.0, -1.0], (4, 1)), np.zeros((1, 2))]))
        _, muted, _ = ob.rsc_mask(model, batch([0, 1], [0, 1]), q=0.5)
        assert muted == [2, 3]

    def test_mutes_the_units_with_the_largest_head_weights(self):
        # score of unit u: 0.25 |head[u, 0]| + 0.75 |head[u, 1]|
        head = np.array([[4.0, 0.0], [0.0, 2.0], [-8.0, 0.0], [0.0, 0.4],
                         [2.0, -1.0], [0.0, 0.0]])
        model = dk.Model(np.eye(2), [np.ones((2, 5))], [np.zeros(5)], head)
        b = ob.DomainBatch("d", np.array([0, 1]), np.array([0, 1]),
                           np.array([0.25, 0.75]))
        scores = np.abs(head[:5]) @ [0.25, 0.75]
        assert len(set(scores)) == 5
        _, muted, _ = ob.rsc_mask(model, b, q=0.5)
        assert muted == sorted(np.argsort(-scores)[:3]) == [1, 2, 4]

    def test_tiny_q_mutes_exactly_one(self):
        model = dk.init_model(4, (1,), 2, embedding="bits", seed=0)
        _, muted, _ = ob.rsc_mask(model, batch([0, 1], [0, 1]), q=0.01)
        assert muted == [0]

    def test_masked_loss_dominates_at_convergence(self, canon_d):
        family, source, _ = canon_d
        ds = cld_core.sample_dataset(family, source, 400, seed=3)
        b = batch(ds.x, ds.y)
        model = dk.init_model(4, (16,), 2, embedding="bits", seed=0)
        for _ in range(800):
            tape = dk.Tape(model)
            model = dk.sgd_step(model, dk.backward(tape, ob.erm_loss(model, b, tape)), 0.2)
        masked, _, _ = ob.rsc_mask(model, b, q=0.33)
        assert masked.val >= ob.erm_loss(model, b).val

    def test_q_bounds(self):
        model = dk.init_model(4, (4,), 2, embedding="bits", seed=0)
        with pytest.raises(ShapeMismatch):
            ob.rsc_mask(model, batch([0], [0]), q=1.0)


class TestFeatureMatching:
    def test_coral_identical_features(self):
        f = dk.constant(np.array([[0.0], [2.0]]))
        assert ob.coral_penalty([f, f]).val == pytest.approx(0.0)

    def test_coral_variance_only_difference(self):
        # means both 1; population variances 1 vs 0; penalty (1-0)^2 = 1
        a = dk.constant(np.array([[0.0], [2.0]]))
        b = dk.constant(np.array([[1.0], [1.0]]))
        assert ob.coral_penalty([a, b]).val == pytest.approx(1.0)

    def test_coral_mean_and_variance_difference(self):
        a = dk.constant(np.array([[0.0], [2.0]]))
        b = dk.constant(np.array([[0.0], [0.0]]))
        assert ob.coral_penalty([a, b]).val == pytest.approx(2.0)

    def test_mmd_identical_features(self):
        f = dk.constant(np.array([[0.0], [1.0], [2.0]]))
        res = ob.mmd_penalty([f, f])
        # the unbiased estimator dips negative on matching clouds; the
        # trainable penalty clamps that at zero
        assert res.raw <= 0.0
        assert res.node.val == 0.0

    def test_mmd_separated_gaussians_dominate(self):
        rng = np.random.default_rng(0)
        a = dk.constant(rng.normal(0, 1, (500, 1)))
        b = dk.constant(rng.normal(5, 1, (500, 1)))
        c = dk.constant(rng.normal(0, 1, (500, 1)))
        far = ob.mmd_penalty([a, b]).raw
        near = ob.mmd_penalty([a, c]).raw
        assert far / abs(near) > 10

    def test_explicit_bandwidth_respected(self):
        a = dk.constant(np.array([[0.0], [1.0]]))
        b = dk.constant(np.array([[3.0], [4.0]]))
        res = ob.mmd_penalty([a, b], bandwidth=2.5)
        assert res.bandwidth == 2.5


class TestDann:
    def make_batches(self, canon_d, n, seed):
        family, source, target = canon_d
        out = []
        for k, d in enumerate([source, target]):
            ds = cld_core.sample_dataset(family, d, n,
                                         derive_seed(seed, f"data:{d.domain_id}"))
            out.append(ob.DomainBatch(str(k), ds.x, ds.y,
                                      np.full(n, 1.0 / n)))
        return family, out

    def test_single_domain_rejected(self, canon_d):
        family, bs = self.make_batches(canon_d, 16, 0)
        model = dk.init_model(4, (8,), 2, embedding="bits", seed=0)
        adv = dk.init_raw_model(8, (8,), 2, seed=1)
        with pytest.raises(TooFewDomains):
            ob.dann_losses(model, adv, bs[:1])

    def test_adversary_head_must_match_domain_count(self, canon_d):
        family, bs = self.make_batches(canon_d, 16, 0)
        model = dk.init_model(4, (8,), 2, embedding="bits", seed=0)
        adv = dk.init_raw_model(8, (8,), 3, seed=1)
        with pytest.raises(ShapeMismatch):
            ob.dann_losses(model, adv, bs)

    def test_adversary_alone_fits_separable_features(self):
        ext = dk.init_model(4, (8,), 2, embedding="bits", seed=5)
        adv = dk.init_raw_model(8, (8,), 2, seed=7)
        xa = np.array([0, 0, 1, 1, 0, 1] * 10)
        xb = np.array([2, 3, 3, 2, 2, 3] * 10)
        feats = np.vstack([dk.forward(ext, xa)[0].val,
                           dk.forward(ext, xb)[0].val])
        dom = np.array([0] * len(xa) + [1] * len(xb))
        for _ in range(500):
            tape = dk.Tape(adv)
            _, z, _, _ = dk.forward(adv, dk.constant(feats), tape)
            loss = dk.neg(dk.nmean(dk.take_cols(dk.log_softmax_rows(z), dom)))
            adv = dk.sgd_step(adv, dk.backward(tape, loss), 0.5)
        pred = dk.forward(adv, dk.constant(feats))[1].val.argmax(axis=1)
        assert (pred == dom).mean() > 0.95

    def run_dann(self, canon_d, lam, steps=1500, lr=0.2, seed=0):
        family, bs = self.make_batches(canon_d, 200, seed)
        model = dk.init_model(4, (16,), 2, embedding="bits",
                              seed=derive_seed(seed, "init"))
        adv = dk.init_raw_model(16, (16,), 2, seed=derive_seed(seed, "adv"))
        for _ in range(steps):
            ll, dl, tape, adv_tape = ob.dann_losses(model, adv, bs)
            total = dk.add(ll, dk.mul(dk.constant(float(lam)), dl))
            model = dk.sgd_step(model, dk.backward(tape, total), lr)
            adv = dk.sgd_step(adv, dk.backward(adv_tape, dl), lr)
        _, test = self.make_batches(canon_d, 2000, seed + 999)
        feats = np.vstack([dk.forward(model, b.inputs)[0].val for b in test])
        dom = np.concatenate([np.full(len(b), int(b.domain_id)) for b in test])
        adv_acc = (dk.forward(adv, dk.constant(feats))[1].val.argmax(axis=1)
                   == dom).mean()
        xs = np.concatenate([b.inputs for b in test])
        ys = np.concatenate([b.labels for b in test])
        label_acc = (dk.forward(model, xs)[1].val.argmax(axis=1) == ys).mean()
        return adv_acc, label_acc

    def test_reversal_strips_domain_information(self, canon_d):
        erm_adv_acc, erm_label_acc = self.run_dann(canon_d, lam=0.0)
        dann_adv_acc, dann_label_acc = self.run_dann(canon_d, lam=1.0)
        # without reversal pressure the adversary reads domains from features
        assert erm_adv_acc > 0.9
        # with it, domain information disappears and labels survive
        assert dann_adv_acc <= 0.6
        assert abs(dann_label_acc - erm_label_acc) <= 0.05


class TestCdann:
    def test_smoke_and_shapes(self, canon_d):
        family, source, target = canon_d
        bs = []
        for k, d in enumerate([source, target]):
            ds = cld_core.sample_dataset(family, d, 50, seed=10 + k)
            bs.append(ob.DomainBatch(str(k), ds.x, ds.y, np.full(50, 0.02)))
        model = dk.init_model(4, (8,), 2, embedding="bits", seed=0)
        advs = [dk.init_raw_model(8, (8,), 2, seed=30 + i) for i in range(3)]
        ll, dl, tape, adv_tapes = ob.cdann_losses(model, advs, bs)
        assert np.isfinite(ll.val) and np.isfinite(dl.val)
        assert len(adv_tapes) == 3


class TestMixup:
    def test_soft_labels_are_convex_combinations(self, canon_d):
        family, source, _ = canon_d
        ds = cld_core.sample_dataset(family, source, 1000, seed=0)
        model = dk.init_model(4, (4,), 2, embedding="bits", seed=0)
        b = ob.DomainBatch("s", ds.x, ds.y, None)
        mixed = ob.mixup(model, b, alpha=0.3, seed=9)
        assert np.allclose(mixed.soft_labels.sum(axis=1), 1.0)
        assert (mixed.soft_labels >= 0).all()

    def test_mixing_weight_mean_is_half(self, canon_d):
        family, source, _ = canon_d
        ds = cld_core.sample_dataset(family, source, 100000, seed=0)
        model = dk.init_model(4, (4,), 2, embedding="bits", seed=0)
        mixed = ob.mixup(model, ob.DomainBatch("s", ds.x, ds.y, None),
                         alpha=0.3, seed=9)
        labels = np.asarray(ds.y)
        # rows whose pair straddled both classes expose the raw weight
        two_sided = (mixed.soft_labels > 0).all(axis=1)
        w = mixed.soft_labels[two_sided, labels[two_sided]]
        assert w.mean() == pytest.approx(0.5, abs=0.01)

    def test_pure_row_loss_matches_erm(self):
        model = dk.init_model(4, (4,), 2, embedding="bits", seed=0)
        x = np.array([0, 3])
        y = np.array([0, 1])
        mixed = ob.MixupBatch("s", x, np.eye(2)[y])
        assert ob.soft_label_loss(model, mixed).val == pytest.approx(
            ob.erm_loss(model, batch(x, y)).val)

    def test_half_mix_of_opposite_labels(self):
        model = dk.init_model(4, (4,), 2, embedding="bits", seed=0)
        mixed = ob.MixupBatch("s", np.array([0]), np.array([[0.5, 0.5]]))
        _, z, _, _ = dk.forward(model, np.array([0]))
        logp = dk.log_softmax_rows(z).val[0]
        assert ob.soft_label_loss(model, mixed).val == pytest.approx(
            -0.5 * (logp[0] + logp[1]))


class TestSwa:
    def test_self_average_is_identity(self):
        m = dk.init_model(4, (5,), 2, embedding="bits", seed=4)
        avg = ob.swa_average([m, m])
        assert np.array_equal(avg.flat_params(), m.flat_params())

    def test_midpoint(self):
        a = linear_model(np.zeros((3, 2)))
        b = linear_model(np.full((3, 2), 2.0))
        assert np.allclose(ob.swa_average([a, b]).head, 1.0)

    def test_convexity_bound_on_linear_models(self, canon_d):
        family, source, _ = canon_d
        ds = cld_core.sample_dataset(family, source, 400, seed=1)
        b = batch(ds.x, ds.y)
        m1 = dk.init_model(4, (), 2, embedding="bits", seed=1)
        m2 = dk.init_model(4, (), 2, embedding="bits", seed=2)
        avg = ob.swa_average([m1, m2])
        assert ob.erm_loss(avg, b).val <= max(ob.erm_loss(m1, b).val,
                                              ob.erm_loss(m2, b).val)


class TestObjectiveConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ob.ObjectiveConfig("DRO")

    def test_negative_lambda(self):
        with pytest.raises(ConfigError):
            ob.ObjectiveConfig("ERM", lam=-1.0)

    @pytest.mark.parametrize("kind,extras", [
        ("RSC", {"q": 0.0}),
        ("AND_MASK", {"tau": 0.5}),
        ("MIXUP", {"alpha": 0.0}),
        ("MMD", {"bandwidth": -1.0}),
    ])
    def test_extras_validation(self, kind, extras):
        with pytest.raises(ConfigError):
            ob.ObjectiveConfig(kind, lam=1.0, extras=extras)

    def test_round_trip(self):
        cfg = ob.ObjectiveConfig("VREX", lam=2.5, extras={})
        assert ob.ObjectiveConfig.from_dict(cfg.to_dict()) == cfg


def test_weighted_feature_penalties_match_the_defining_sums():
    """mmd_penalty and coral_penalty with row weights against their
    definitions written as plain loops."""
    rng = np.random.default_rng(4)
    fa, fb = rng.normal(size=(5, 3)), rng.normal(1.0, 1.0, size=(7, 3))
    wa, wb = rng.random(5), rng.random(7)
    wa, wb = wa / wa.sum(), wb / wb.sum()
    h = 1.7

    def k(x, y):
        return np.exp(-((x - y) ** 2).sum() / h)

    def within(f, w):  # i = j terms dropped, renormalized by 1 - sum w^2
        total = sum(w[i] * w[j] * k(f[i], f[j])
                    for i in range(len(f)) for j in range(len(f)) if i != j)
        return total / (1.0 - (w * w).sum())

    cross = sum(wa[i] * wb[j] * k(fa[i], fb[j])
                for i in range(len(fa)) for j in range(len(fb)))
    mmd = within(fa, wa) + within(fb, wb) - 2.0 * cross
    got = ob.mmd_penalty([fa, fb], bandwidth=h, weights=[wa, wb]).raw
    assert got == pytest.approx(mmd, rel=1e-12, abs=1e-14)

    def moments(f, w):
        mean = (w[:, None] * f).sum(axis=0)
        cov = sum(w[i] * np.outer(f[i] - mean, f[i] - mean)
                  for i in range(len(f)))
        return mean, cov

    (ma, ca), (mb, cb) = moments(fa, wa), moments(fb, wb)
    coral = ((ma - mb) ** 2).sum() + ((ca - cb) ** 2).sum()
    got = float(ob.coral_penalty([fa, fb], weights=[wa, wb]).val)
    assert got == pytest.approx(coral, rel=1e-12)


def test_mmd_rows_that_stand_for_no_sample_row_add_nothing():
    """A row of zero weight and zero count leaves mmd_penalty's value and
    the gradient in the other rows as they are."""
    rng = np.random.default_rng(6)
    fa, fb = rng.normal(size=(4, 3)), rng.normal(0.8, 1.0, size=(5, 3))
    ma, mb = np.array([2, 1, 3, 2]), np.array([1, 1, 2, 3, 1])

    def measured(empty_row: bool):
        a, b = dk.constant(fa), dk.constant(fb)
        rows, wa, counts = a, ma / ma.sum(), ma
        if empty_row:
            rows = dk.concat([a, dk.constant(rng.normal(size=(1, 3)))])
            wa, counts = np.append(wa, 0.0), np.append(ma, 0)
        res = ob.mmd_penalty([rows, b], None, [wa, mb / mb.sum()], [counts, mb])
        return res.raw, dk.grad_nodes(res.node, [a, b])

    (raw, grads), (raw_empty, grads_empty) = measured(False), measured(True)
    assert raw > 0.0
    assert raw_empty == pytest.approx(raw, rel=1e-12, abs=0)
    for g, g_empty in zip(grads, grads_empty):
        np.testing.assert_allclose(g_empty, g, rtol=1e-12,
                                   atol=1e-12 * np.abs(g).max())


def _features(m, bs, t):
    return [dk.forward(m, b.inputs, t)[0] for b in bs]


_CELL_ADVERSARIES = [dk.init_raw_model(6, (8,), 2, seed=40 + i) for i in range(4)]

# kind -> scalar node from (model, domain batches, (pairs, weights), tape)
CELL_CASES = {
    "ERM": lambda m, bs, ps, t: ob.mean_domain_loss(m, bs, t),
    "VREX": lambda m, bs, ps, t: ob.vrex_penalty(m, bs, t),
    "GROUP_DRO": lambda m, bs, ps, t: ob.group_dro(m, bs, t),
    "FISH": lambda m, bs, ps, t: ob.fish_penalty(m, bs, t),
    "IGA": lambda m, bs, ps, t: ob.iga_penalty(m, bs, t),
    "FISHR": lambda m, bs, ps, t: ob.fishr_penalty(m, bs, t),
    "IRM": lambda m, bs, ps, t: ob.irm_penalty(m, bs, t),
    "SD": lambda m, bs, ps, t: dk.nsum(dk.stack_list([
        ob.sd_penalty(dk.forward(m, b.inputs, t)[1], b.weights) for b in bs])),
    "RSC": lambda m, bs, ps, t: dk.nsum(dk.stack_list([
        ob.rsc_mask(m, b, 0.33, t)[0] for b in bs])),
    "CORAL": lambda m, bs, ps, t: ob.coral_penalty(
        _features(m, bs, t), [b.weights for b in bs], [b.counts for b in bs]),
    "MMD": lambda m, bs, ps, t: ob.mmd_penalty(
        _features(m, bs, t), None, [b.weights for b in bs],
        [b.counts for b in bs]).node,
    "DANN": lambda m, bs, ps, t: dk.add(*ob.dann_losses(
        m, _CELL_ADVERSARIES[0], bs, t)[:2]),
    "CDANN": lambda m, bs, ps, t: dk.add(*ob.cdann_losses(
        m, _CELL_ADVERSARIES, bs, t)[:2]),
    "PAIR_PROB": lambda m, bs, ps, t: ob.pair_regularizer(m, ps[0], "PROB", t,
                                                          ps[1]),
    "PAIR_LOGIT": lambda m, bs, ps, t: ob.pair_regularizer(m, ps[0], "LOGIT",
                                                           t, ps[1]),
    "PAIR_FEAT": lambda m, bs, ps, t: ob.pair_regularizer(m, ps[0], "FEAT", t,
                                                          ps[1]),
    "LAM": lambda m, bs, ps, t: ob.lam_regularizer(m, ps[0], t, ps[1]),
}


def test_class_balanced_divergences_give_the_row_estimators():
    """feature_divergences' class-balanced pair equals, within 1e-12
    relative, the row-form MMD (kernel sums over rows, i = j dropped) and
    CORAL with each row weighted 1 / (K_d n_dy).  Those weights are not
    proportional to the counts, so the cell rows must not be merged by x."""
    spaces = cld_core.LatentSpaces(2, 2, 4, 2)
    px = np.zeros((2, 2, 4))
    for c in range(2):
        for n in range(2):
            px[c, n, 2 * c + n] = 0.8
            px[c, n, 2 * (1 - c) + n] = 0.2
    family = cld_core.build_family(spaces, px,
                                   np.array([[0.9, 0.1], [0.2, 0.8]]))
    shared = np.array([[0.9, 0.1], [0.1, 0.9]])
    domains = [cld_core.make_domain(family, "CLD3", domain_id=d, p_y=p_y,
                                    p_c_given_y=shared,
                                    p_n_given_c=np.tile(p_n, (2, 1)))
               for d, p_y, p_n in (("s", [0.5, 0.5], [0.7, 0.3]),
                                   ("t", [0.15, 0.85], [0.4, 0.6]))]
    data = [cld_core.sample_dataset(family, d, 300, seed=s)
            for s, d in enumerate(domains)]
    model = dk.init_model(4, (6,), 2, embedding="bits", seed=1)
    div = metrics.feature_divergences(model, data, per_class=True)
    feats = [metrics.model_features(model, ds.x) for ds in data]
    weights = []
    for ds in data:
        per_label = np.bincount(ds.y)
        weights.append(1.0 / (np.count_nonzero(per_label) * per_label[ds.y]))
        assert np.any(ds.x[ds.y == 0][:, None] == ds.x[ds.y == 1])

    def ksum(x, wx, y, wy):
        d = ((x * x).sum(axis=1)[:, None] - (2.0 * x) @ y.T
             + (y * y).sum(axis=1)[None, :])
        return wx @ np.exp(-np.maximum(d, 0.0) / div.bandwidth) @ wy

    def within(f, w):
        s = (w * w).sum()
        return (ksum(f, w, f, w) - s) / (1.0 - s)

    (fa, fb), (wa, wb) = feats, weights
    mmd = within(fa, wa) + within(fb, wb) - 2.0 * ksum(fa, wa, fb, wb)
    mmd_got, coral_got = div.normalized
    assert abs(mmd) > 1e-3
    assert mmd_got == pytest.approx(mmd, rel=1e-12)

    def moments(f, w):
        mean = w @ f
        return mean, ((f - mean) * w[:, None]).T @ (f - mean)

    (ma, ca), (mb, cb) = moments(fa, wa), moments(fb, wb)
    coral = ((ma - mb) ** 2).sum() + ((ca - cb) ** 2).sum()
    assert coral_got == pytest.approx(coral, rel=1e-12)


def _pair_cells(pairs):
    """Sampled pairs as distinct (x, x~, y) cells weighted by their share
    (a reference for the pair list's counts)."""
    _, first, counts = np.unique([(p.x, p.x_tilde, p.label) for p in pairs],
                                 axis=0, return_index=True, return_counts=True)
    return [pairs[i] for i in first], counts / len(pairs)


@pytest.mark.parametrize("kind", list(CELL_CASES))
def test_cells_give_the_values_of_their_rows(kind):
    """Every batch-reading term has the same value and parameter gradient
    on a sample's rows as on its count-weighted (x, y) cells, and on the
    sampled pairs as on their weighted (x, x~, y) cells."""
    family, domains = cld_core.random_family(5, variant="CLD2", n_domains=2)
    model = dk.init_model(family.spaces.n_obs, (6,), family.spaces.n_classes,
                          embedding="bits", seed=3)
    rows, cells = [], []
    for d in domains:
        ds = cld_core.sample_dataset(family, d, 60,
                                     derive_seed(7, f"data:{d.domain_id}"))
        rows.append(ob.DomainBatch(d.domain_id, ds.x, ds.y, np.full(60, 1 / 60)))
        cells.append(ob.cell_batch(d.domain_id, ds.x, ds.y))
    pairs = sample_pairs(family, domains[0], 200, seed=7)
    got = []
    for batches, pair_view in ((rows, (pairs, None)),
                               (cells, _pair_cells(pairs))):
        tape = dk.Tape(model)
        node = CELL_CASES[kind](model, batches, pair_view, tape)
        got.append((float(node.val), dk.backward(tape, node)))
    (v_rows, g_rows), (v_cells, g_cells) = got
    assert sum(len(b) for b in cells) < sum(len(b) for b in rows)
    assert v_cells == pytest.approx(v_rows, rel=1e-9, abs=0)
    np.testing.assert_allclose(g_cells, g_rows, rtol=1e-9,
                               atol=1e-9 * np.abs(g_rows).max())


def _row_median_sq_dist(pooled: np.ndarray) -> float:
    """The median rule over all row pairs i < j, blockwise in plain numpy."""
    norms = (pooled * pooled).sum(axis=1)
    tally = {}
    for i0 in range(0, len(pooled) - 1, 500):
        block = pooled[i0:i0 + 500]
        d = np.maximum(norms[i0:i0 + 500, None] - (2.0 * block) @ pooled.T
                       + norms[None, :], 0.0)
        ii, jj = np.nonzero(np.arange(len(pooled))[None, :]
                            > np.arange(i0, i0 + len(block))[:, None])
        vals, counts = np.unique(d[ii, jj], return_counts=True)
        for v, c in zip(vals, counts):
            tally[v] = tally.get(v, 0) + int(c)
    vals = np.array(sorted(tally))
    counts = np.array([tally[v] for v in vals])

    def median(vals, counts):
        cum = np.cumsum(counts)
        total = int(cum[-1])
        ranks = [total // 2] if total % 2 else [total // 2 - 1, total // 2]
        return float(vals[np.searchsorted(cum, ranks, side="right")].mean())

    med = median(vals, counts)
    if med <= ob.BANDWIDTH_FLOOR:
        keep = vals > ob.BANDWIDTH_FLOOR
        med = median(vals[keep], counts[keep])
    return med


def test_feature_divergences_give_the_row_estimators(canon_d):
    """At 2 x 2000 rows, the cell form of feature_divergences gives the
    row-pair median bandwidth, the row-form unbiased MMD (kernel sums over
    rows, i = j dropped) and the row-form CORAL penalty."""
    family, source, target = canon_d
    data = [cld_core.sample_dataset(family, d, 2000, seed=s)
            for s, d in enumerate([source, target])]
    model = dk.init_model(4, (16,), 2, embedding="bits", seed=1)
    div = metrics.feature_divergences(model, data)
    fa, fb = (metrics.model_features(model, ds.x) for ds in data)
    assert div.bandwidth == pytest.approx(
        _row_median_sq_dist(np.vstack([fa, fb])), rel=1e-12)

    def ksum(x, y):
        d = ((x * x).sum(axis=1)[:, None] - (2.0 * x) @ y.T
             + (y * y).sum(axis=1)[None, :])
        return np.exp(-np.maximum(d, 0.0) / div.bandwidth).sum()

    n = 2000
    mmd = ((ksum(fa, fa) - n) / (n * (n - 1)) + (ksum(fb, fb) - n) / (n * (n - 1))
           - 2.0 * ksum(fa, fb) / n ** 2)
    assert div.mmd == pytest.approx(mmd, rel=1e-12)
    assert div.coral == pytest.approx(
        float(ob.coral_penalty([fa, fb]).val), rel=1e-12)


def _np_log_softmax(z):
    m = z.max(axis=1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=1, keepdims=True))


def _cell_minibatch(batch, rng, k: int):
    """k rows drawn with replacement from a cell batch, as cell counts: the
    reference for `harness._minibatch`, which draws on the tables."""
    draws = rng.multinomial(k, batch.weights)
    keep = draws > 0
    return ob.DomainBatch(batch.domain_id, batch.inputs[keep],
                          batch.labels[keep], draws[keep] / k, draws[keep])


def _tables(model, bs):
    """The tables (W, N) of cell batches bs: N is each cell's count, one
    for a cell with none."""
    n = np.zeros((len(bs), model.embedding.shape[0], model.n_classes),
                 dtype=np.int64)
    for nd, b in zip(n, bs):
        np.add.at(nd, (b.inputs, b.labels), 1 if b.counts is None else b.counts)
    return ob.weight_table(model, bs), n


def _table_case(family_name, minibatch):
    """A model with cell batches of both domains, sampled pairs of the
    first: on CANON-D or a 16-observation CLD2 family, full samples or
    8-row minibatches."""
    if family_name == "CANON-D":
        family, *domains = cld_core.canonical_fixture("CANON-D")
    else:
        family, domains = cld_core.random_family(8, variant="CLD2", n_domains=2)
    s = family.spaces
    model = dk.init_model(s.n_obs, (6,), s.n_classes, embedding="bits", seed=4)
    batches = []
    for d in domains:
        ds = cld_core.sample_dataset(family, d, 60,
                                     derive_seed(3, f"data:{d.domain_id}"))
        batches.append(ob.cell_batch(d.domain_id, ds.x, ds.y))
    if minibatch:
        rng = np.random.default_rng(5)
        batches = [_cell_minibatch(b, rng, 8) for b in batches]
    pairs = sample_pairs(family, domains[0], 50, seed=7)
    return model, batches, pairs


@pytest.mark.parametrize("minibatch", [False, True], ids=["full", "sgd-8"])
@pytest.mark.parametrize("family_name", ["CANON-D", "CLD2-16"])
def test_table_path_gives_the_direct_forward_values(family_name, minibatch):
    """Domain losses and pair terms read from the observation table equal
    plain-numpy NLLs and divergences of dk.forward on each term's own
    inputs (rel 1e-12), and their gradients equal those of graphs built on
    those direct forwards."""
    model, batches, pairs = _table_case(family_name, minibatch)
    n_obs = model.embedding.shape[0]
    if family_name != "CANON-D":
        assert n_obs == 16
        seen = np.unique(np.concatenate([b.inputs for b in batches]))
        if minibatch:
            assert len(seen) < n_obs  # the table has rows no term reads

    def check(table_fn, direct_fn, numpy_value):
        tape = dk.Tape(model)
        node = table_fn(tape)
        assert float(node.val) == pytest.approx(numpy_value, rel=1e-12, abs=0)
        direct_tape = dk.Tape(model)
        want = dk.backward(direct_tape, direct_fn(direct_tape))
        np.testing.assert_allclose(dk.backward(tape, node), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def direct(inputs, tape):
        h, z, _, _ = dk.forward(model, np.asarray(inputs), tape)
        return h, z, dk.log_softmax_rows(z)

    for d, b in enumerate(batches):
        w = ob._weights(b)
        logp = _np_log_softmax(dk.forward(model, b.inputs)[1].val)
        nll = -(w * logp[np.arange(len(b)), b.labels]).sum()
        check(lambda t: ob.domain_losses(model, batches, t)[d],
              lambda t: dk.neg(dk.nsum(dk.mul(dk.take_cols(
                  direct(b.inputs, t)[2], b.labels), dk.constant(w)))),
              nll)

    cells, w = pairs, np.full(len(pairs), 1.0 / len(pairs))
    ia = np.array([p.x for p in cells])
    ib = np.array([p.x_tilde for p in cells])
    labels = np.array([p.label for p in cells])
    (ha, za), (hb, zb) = (dk.forward(model, i)[:2] for i in (ia, ib))
    ha, za, hb, zb = ha.val, za.val, hb.val, zb.val
    la, lb = _np_log_softmax(za), _np_log_softmax(zb)
    head_y = model.head[:model.u_count, labels].T
    numpy_values = {
        "PROB": (w * (np.exp(la) * (la - lb)).sum(axis=1)).sum(),
        "LOGIT": (w * ((za - zb) ** 2).sum(axis=1)).sum(),
        "FEAT": (w * ((ha - hb) ** 2).sum(axis=1)).sum(),
        "LAM": (w * (head_y ** 2 * (ha - hb) ** 2).sum(axis=1)).sum(),
    }

    def direct_pairs(kind, t):
        (hat, zat, lat), (hbt, zbt, lbt) = direct(ia, t), direct(ib, t)
        if kind == "PROB":
            per = dk.nsum(dk.mul(dk.exp(lat), dk.sub(lat, lbt)), axis=1)
        elif kind == "LAM":
            w_y = dk.gather_rows(
                dk.t2(dk.slice_rows(t.node("head"), 0, model.u_count)), labels)
            per = dk.nsum(dk.mul(dk.square(w_y), dk.square(dk.sub(hat, hbt))),
                          axis=1)
        else:
            a, b = (zat, zbt) if kind == "LOGIT" else (hat, hbt)
            per = dk.nsum(dk.square(dk.sub(a, b)), axis=1)
        return dk.nsum(dk.mul(per, dk.constant(w)))

    for kind, value in numpy_values.items():
        check(lambda t, k=kind: (ob.lam_regularizer(model, cells, t, w)
                                 if k == "LAM" else
                                 ob.pair_regularizer(model, cells, k, t, w)),
              lambda t, k=kind: direct_pairs(k, t), value)

    groups = [PairGroup((p.x, p.x_tilde), p.label, p.xc, (p.xn, p.xn_tilde))
              for p in pairs[:2]]
    groups.append(PairGroup((pairs[2].x, pairs[2].x_tilde, pairs[3].x_tilde),
                            None, 0, (0, 0, 0)))
    for kind, part in (("LOGIT", 1), ("FEAT", 0)):
        variances = []
        for g in groups:
            rows = dk.forward(model, np.array(g.xs))[part].val
            variances.append(((rows - rows.mean(axis=0)) ** 2).sum()
                             / (len(g.xs) - 1))

        def direct_groups(t, part=part):
            terms = []
            for g in groups:
                rows = direct(g.xs, t)[part]
                dev = dk.sub(rows, dk.nmean(rows, axis=0, keepdims=True))
                terms.append(dk.mul(dk.nsum(dk.square(dev)),
                                    dk.constant(1.0 / (len(g.xs) - 1))))
            return dk.nmean(dk.stack_list(terms))

        check(lambda t, k=kind: ob.pair_regularizer(model, groups, k, t),
              direct_groups, np.mean(variances))


def _pair_list_reference(model, pairs, kind, tape):
    """A pair term as the mean over a pair list of each pair's divergence,
    on the direct forwards of the pairs' first and second members."""
    ia, ib = (np.array([getattr(p, a) for p in pairs]) for a in ("x", "x_tilde"))
    (ha, za, _, _), (hb, zb, _, _) = (dk.forward(model, i, tape) for i in (ia, ib))
    if kind == "PROB":
        la, lb = dk.log_softmax_rows(za), dk.log_softmax_rows(zb)
        per = dk.nsum(dk.mul(dk.exp(la), dk.sub(la, lb)), axis=-1)
    elif kind == "LAM":
        head = dk.t2(dk.slice_rows(tape.node("head"), 0, model.u_count))
        w_y = dk.gather_rows(head, np.array([p.label for p in pairs]))
        per = dk.nsum(dk.mul(dk.square(w_y), dk.square(dk.sub(ha, hb))), axis=-1)
    else:
        a, b = (za, zb) if kind == "LOGIT" else (ha, hb)
        per = dk.nsum(dk.square(dk.sub(a, b)), axis=-1)
    return dk.nsum(dk.mul(per, dk.constant(np.full(len(pairs), 1 / len(pairs)))),
                   axis=-1)


def _group_reference(model, groups, kind, tape):
    """The group form: for LOGIT / FEAT the mean over groups of the unbiased
    within-group variance summed over coordinates, for PROB the mean KL over
    the ordered member pairs (the groups here are of one size)."""
    if kind == "PROB":
        return _pair_list_reference(
            model, [p for g in groups for p in g.pairs(ordered=True)], kind, tape)
    terms = []
    for g in groups:
        rows = dk.forward(model, np.array(g.xs), tape)[1 if kind == "LOGIT" else 0]
        dev = dk.sub(rows, dk.nmean(rows, axis=-2, keepdims=True))
        terms.append(dk.mul(dk.nsum(dk.square(dev), axis=(-2, -1)),
                            dk.constant(1.0 / (len(g.xs) - 1))))
    return dk.nmean(dk.stack_list(terms), axis=0)


def _pair_models():
    """A model on a 16-observation CLD2 family, and a 3-run stack of it
    whose runs differ."""
    family, domains = cld_core.random_family(8, variant="CLD2", n_domains=2)
    s = family.spaces
    one = dk.init_model(s.n_obs, (6,), s.n_classes, embedding="bits", seed=4)
    stack = dk.stack_runs(one, 3)
    stack.set_flat_params(stack.flat_params() + 0.3 * np.random.default_rng(1)
                          .normal(size=(3, one.n_params())))
    return family, domains[0], one, stack


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack-3"])
@pytest.mark.parametrize("kind, items", [
    *((k, "pairs") for k in ("PROB", "LOGIT", "FEAT", "LAM")),
    *((k, "groups") for k in ("PROB", "LOGIT", "FEAT"))])
def test_pair_table_gives_the_pair_list_values(kind, items, stacked):
    """pair_penalty on the pair table of a pair list, and pair_regularizer
    on groups, equal the per-pair (per-group) forms in value and gradient
    (rel 1e-12); on a stack, each run's slice equals its own run."""
    family, domain, one, stack = _pair_models()
    s = family.spaces
    if items == "pairs":
        pairs = sample_pairs(family, domain, 120, seed=6)
        got = lambda m, t: ob.pair_penalty(
            m, pairgen.pair_table(pairs, s.n_obs, s.n_classes), kind, t)
        want = lambda m, t: _pair_list_reference(m, pairs, kind, t)
    else:
        groups = pairgen.compose_pure_groups(family, range(s.n_core), domain,
                                             reps=4, seed=6)
        got = lambda m, t: ob.pair_regularizer(m, groups, kind, t)
        want = lambda m, t: _group_reference(m, groups, kind, t)
    model = stack if stacked else one
    runs = [model.run(r) for r in range(3)] if stacked else [one]
    tape = dk.Tape(model)
    node = got(model, tape)
    values, grads = np.atleast_1d(node.val), np.atleast_2d(dk.backward(tape, node))
    for r, m in enumerate(runs):
        ref_tape = dk.Tape(m)
        ref = want(m, ref_tape)
        ref_grad = dk.backward(ref_tape, ref)
        assert values[r] == pytest.approx(float(ref.val), rel=1e-12, abs=0)
        np.testing.assert_allclose(grads[r], ref_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref_grad).max())


def _cell_case(widths, inputs):
    """A model and a batch: every CANON-D source (x, y) cell with its
    probability, or real rows fed to a model with no embedding."""
    if inputs == "canon-d":
        family, source, _ = cld_core.canonical_fixture("CANON-D")
        model = dk.init_model(4, widths, 2, embedding="bits", seed=5)
        return model, population_batch(family, source)
    rng = np.random.default_rng(5)
    model = dk.init_raw_model(3, widths, 3, seed=5)
    return model, ob.DomainBatch("d", rng.normal(size=(6, 3)),
                                 np.array([0, 1, 2, 1, 0, 2]))


@pytest.mark.parametrize("inputs", ["canon-d", "raw-rows"])
@pytest.mark.parametrize("widths", [(), (6,), (8, 5)], ids=str)
def test_cell_grads_are_each_cells_nll_gradient(widths, inputs):
    """cell_grads gives, for each cell, the gradient of -log p(y|x) that
    dk.backward computes on a fresh tape holding that cell alone."""
    model, b = _cell_case(widths, inputs)
    blocks = ob.cell_grads(model, b, dk.Tape(model))
    assert [g.val.shape[1:] for g in blocks] == [
        a.shape for _, a in model.param_blocks()]
    got = np.concatenate([g.val.reshape(len(b), -1) for g in blocks], axis=1)
    want = []
    for x, y in zip(b.inputs, b.labels):
        tape = dk.Tape(model)
        _, z, _, _ = dk.forward(model, np.asarray(x)[None], tape)
        nll = dk.neg(dk.nsum(dk.take_cols(dk.log_softmax_rows(z), np.array([y]))))
        want.append(dk.backward(tape, nll))
    want = np.array(want)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("widths", [(), (8, 5)], ids=str)
@pytest.mark.parametrize("kind", ["FISH", "IGA", "FISHR", "IRM"])
def test_gradient_penalties_match_finite_differences(kind, widths):
    """The parameter gradients of the penalties built on cell_grads agree
    with central differences (criterion 3's check at other widths)."""
    model = dk.init_model(4, widths, 3, embedding="bits", seed=11)
    ba = ob.DomainBatch("a", np.array([0, 0, 1, 1, 0]), np.array([0, 1, 2, 0, 1]))
    bb = ob.DomainBatch("b", np.array([2, 3, 3, 2, 2]), np.array([1, 0, 2, 2, 0]))
    penalty = CELL_CASES[kind]
    err = dk.finite_diff_check(model, [ba, bb],
                               lambda m, bs, t: penalty(m, bs, None, t), eps=1e-4)
    assert err < 1e-4


def _domain_case(mode, n_domains=3):
    """A seed-drawn CLD2 family's first n_domains sources as cell batches:
    population cells, a sample's cells (gd) or an sgd minibatch of them."""
    family, domains = cld_core.random_family(5, variant="CLD2", n_domains=3)
    s = family.spaces
    model = dk.init_model(s.n_obs, (6, 5), s.n_classes, embedding="bits", seed=3)
    rng = np.random.default_rng(4)
    bs = []
    for d in domains[:n_domains]:
        if mode == "population":
            bs.append(population_batch(family, d))
            continue
        ds = cld_core.sample_dataset(family, d, 60,
                                     derive_seed(7, f"data:{d.domain_id}"))
        b = ob.cell_batch(d.domain_id, ds.x, ds.y)
        bs.append(b if mode == "gd" else _cell_minibatch(b, rng, 16))
    return model, bs


def _built_nodes(build) -> int:
    """Graph nodes that build() makes."""
    count = [0]
    real = dk.Node.__init__

    def counted(node, *args, **kwargs):
        count[0] += 1
        real(node, *args, **kwargs)

    dk.Node.__init__ = counted
    try:
        build()
    finally:
        dk.Node.__init__ = real
    return count[0]


DOMAIN_TERMS = {
    "VREX": lambda m, bs, t: ob.vrex_penalty(m, bs, t),
    "GROUP_DRO": lambda m, bs, t: ob.group_dro(m, bs, t),
    "SD": lambda m, bs, t: ob._on_table(ob._sd_form, m, bs, t),
    "RSC": lambda m, bs, t: ob.rsc_losses(m, bs, 0.33, t)[0],
    "FISH": lambda m, bs, t: ob.fish_penalty(m, bs, t),
    "IGA": lambda m, bs, t: ob.iga_penalty(m, bs, t),
    "FISHR": lambda m, bs, t: ob.fishr_penalty(m, bs, t),
    "IRM": lambda m, bs, t: ob.irm_penalty(m, bs, t),
    "DANN": lambda m, bs, t: ob.dann_losses(
        m, dk.init_raw_model(m.u_count, (4,), len(bs), seed=1), bs, t)[1],
    "CDANN": lambda m, bs, t: ob.cdann_losses(
        m, [dk.init_raw_model(m.u_count, (4,), len(bs), seed=1 + i)
            for i in range(m.n_classes + 1)], bs, t)[1],
}


@pytest.mark.parametrize("kind", list(DOMAIN_TERMS))
def test_domain_terms_build_the_same_graph_for_any_domain_count(kind):
    """The domain terms read one W[d, x, y] table, so their graphs do not
    grow with the number of sources."""
    counts = []
    for n_domains in (2, 3):
        model, bs = _domain_case("population", n_domains)
        tape = dk.Tape(model)
        dk.obs_rows(model, np.arange(model.embedding.shape[0]), tape)
        counts.append(_built_nodes(lambda: DOMAIN_TERMS[kind](model, bs, tape)))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("mode", ["gd", "sgd", "population"])
def test_domain_gradient_rows_are_each_domains_loss_gradient(mode):
    """Row d of the [D, P] domain-gradient node is dk.backward of domain d's
    loss on a tape of its own."""
    model, bs = _domain_case(mode)
    got = ob._domain_grads(model, bs, dk.Tape(model)).val
    assert got.shape == (len(bs), model.n_params())
    for d, b in enumerate(bs):
        tape = dk.Tape(model)
        want = dk.backward(tape, ob.erm_loss(model, b, tape))
        np.testing.assert_allclose(got[d], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def _per_batch_form(kind, model, bs, tape):
    """kind's penalty (RSC: its base loss) built as the public functions on
    each batch's direct dk.forward, with RSC's masked head written as ops."""
    direct = [dk.forward(model, b.inputs, tape)[:2] for b in bs]
    feats = [h for h, _ in direct]
    weights, counts = [b.weights for b in bs], [b.counts for b in bs]
    if kind == "CORAL":
        return ob.coral_penalty(feats, weights, counts)
    if kind == "MMD":
        return ob.mmd_penalty(feats, None, weights, counts).node
    if kind == "SD":
        return dk.nmean(dk.stack_list([ob.sd_penalty(z, b.weights)
                                       for (_, z), b in zip(direct, bs)]))
    u, losses = model.u_count, []
    for h, b in zip(feats, bs):
        score = b.weights @ np.abs(model.head[:u, b.labels].T)
        mask = np.ones(u)  # the top ceil(q u) scores, ties higher index first
        mask[np.lexsort((-np.arange(u), -score))[:math.ceil(0.33 * u)]] = 0.0
        z = dk.matmul(dk.concat_ones(dk.mul(h, dk.constant(mask))),
                      tape.node("head"))
        picked = dk.take_cols(dk.log_softmax_rows(z), b.labels)
        losses.append(dk.neg(dk.nsum(dk.mul(picked, dk.constant(b.weights)))))
    return dk.nmean(dk.stack_list(losses))


@pytest.mark.parametrize("kind,mode", [
    (kind, mode) for kind in ("SD", "RSC", "CORAL", "MMD")
    for mode in ("gd", "sgd", "population")
    if not (kind == "MMD" and mode == "population")])  # a sample estimator
def test_table_builders_give_the_per_batch_values(kind, mode):
    """The harness step rules of SD, RSC, CORAL and MMD read the whole
    observation table with the step's W (RSC: from one masked forward), and
    give the penalty (RSC: the base loss, `harness._rsc`) and the step's
    parameter gradient (the mean loss plus the penalty at lambda 1; RSC:
    the base loss alone) of the same functions on each batch's own
    forward, within 1e-12 relative."""
    model, bs = _domain_case(mode)
    cfg = harness.ExperimentConfig("CANON-D", ("a", "b", "c"), "c",
                                   ob.ObjectiveConfig(kind, 1.0))
    step = harness._Step(model, harness._RunState(cfg, 0, 1.0),
                         *_tables(model, bs), 1)
    rule = harness.STEPS[kind]
    got = (harness._rsc(step, dk.Tape(model)).val if kind == "RSC"
           else rule.pen(step))
    direct_tape = dk.Tape(model)
    want = _per_batch_form(kind, model, bs, direct_tape)
    assert float(got) == pytest.approx(float(want.val), rel=1e-12, abs=0)
    if kind != "RSC":
        want = dk.add(dk.nmean(dk.stack_list(
            [ob.erm_loss(model, b, direct_tape) for b in bs])), want)
    g_want = dk.backward(direct_tape, want)
    np.testing.assert_allclose(rule.grad(step), g_want, rtol=1e-12,
                               atol=1e-12 * np.abs(g_want).max())


def _part_rows_loss(model, tape, adversary, adv_tape, parts):
    """An adversary's loss on (domain id, inputs, row weights) parts: the
    parts' rows concatenated, forwarded through the model, reversed and
    classified."""
    h, _, _, _ = dk.forward(model, np.concatenate([x for _, x, _ in parts]), tape)
    _, zd, _, _ = dk.forward(adversary, dk.gradient_reversal(h, 1.0), adv_tape)
    ids = np.concatenate([np.full(len(x), d) for d, x, _ in parts])
    w = dk.constant(np.concatenate([w for _, _, w in parts]))
    return dk.neg(dk.nsum(dk.mul(dk.take_cols(dk.log_softmax_rows(zd), ids), w)))


def _part_rows_reference(model, advs, bs, tape, adv_tapes):
    """DANN (one adversary) or CDANN (one per class plus one) written with
    each part's rows: (label loss, adversary loss)."""
    label = dk.nmean(dk.stack_list([ob.erm_loss(model, b, tape) for b in bs]))
    if len(advs) == 1:
        parts = [(d, b.inputs, b.weights / len(bs)) for d, b in enumerate(bs)]
        return label, _part_rows_loss(model, tape, advs[0], adv_tapes[0], parts)
    terms = []
    for y in range(model.n_classes):
        parts = [(d, b.inputs[b.labels == y],
                  b.weights[b.labels == y] / b.weights[b.labels == y].sum())
                 for d, b in enumerate(bs) if np.any(b.labels == y)]
        if len(parts) >= 2:
            terms.append(_part_rows_loss(
                model, tape, advs[y], adv_tapes[y],
                [(d, x, w / len(parts)) for d, x, w in parts]))
    parts = []
    for d, b in enumerate(bs):
        prior = np.zeros(len(b))
        for y in np.unique(b.labels):
            sel = b.labels == y
            prior[sel] = b.weights[sel] / b.weights[sel].sum() / model.n_classes
        parts.append((d, b.inputs, prior / len(bs)))
    terms.append(_part_rows_loss(model, tape, advs[-1], adv_tapes[-1], parts))
    return label, dk.nmean(dk.stack_list(terms))


def _missing_class(bs):
    """bs with class 0 dropped from the first batch."""
    b = bs[0]
    keep = b.labels != 0
    return [ob.DomainBatch(b.domain_id, b.inputs[keep], b.labels[keep],
                           b.weights[keep] / b.weights[keep].sum(),
                           None if b.counts is None else b.counts[keep]), *bs[1:]]


@pytest.mark.parametrize("kind", ["DANN", "CDANN"])
@pytest.mark.parametrize("case", ["population", "sgd", "sgd-missing-class-2",
                                  "sgd-missing-class-3"])
def test_adversaries_match_the_part_rows_reference(kind, case):
    """The adversary losses on the table's feature rows, and the model's and
    adversaries' gradients, equal the form that forwards each part's rows."""
    missing = "missing" in case
    model, bs = _domain_case(case.split("-")[0], int(case[-1]) if missing else 3)
    if missing:
        bs = _missing_class(bs)
        assert not np.any(bs[0].labels == 0)
    n_adv = 1 if kind == "DANN" else model.n_classes + 1
    advs = [dk.init_raw_model(model.u_count, (4,), len(bs), seed=20 + i)
            for i in range(n_adv)]

    def measured(build):
        """(label, adversary) losses, the model's gradient of their sum and
        each adversary's gradient of its loss."""
        tape, adv_tapes = dk.Tape(model), [dk.Tape(a) for a in advs]
        label, adv = build(tape, adv_tapes)
        return [np.array([float(label.val), float(adv.val)]),
                dk.backward(tape, dk.add(label, adv)),
                *(dk.backward(t, adv) for t in adv_tapes)]

    got = measured(lambda t, ts: (
        ob.dann_losses(model, advs[0], bs, t, ts[0]) if kind == "DANN"
        else ob.cdann_losses(model, advs, bs, t, ts))[:2])
    want = measured(lambda t, ts: _part_rows_reference(model, advs, bs, t, ts))
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("kind", ["VREX", "GROUP_DRO", "SD", "RSC", "FISH",
                                  "IGA", "IRM", "DANN", "CDANN"])
@pytest.mark.parametrize("inputs", ["no-embedding", "ready-vectors"])
def test_domain_terms_refuse_raw_rows(kind, inputs):
    """The domain terms read the observation table, so batches that are not
    observation indices are refused."""
    rng = np.random.default_rng(5)
    if inputs == "no-embedding":
        model = dk.init_raw_model(3, (6,), 2, seed=5)
    else:
        model = dk.init_model(4, (6,), 2, embedding="bits", seed=5)
    width = 3 if inputs == "no-embedding" else 2
    bs = [ob.DomainBatch(d, rng.normal(size=(6, width)),
                         np.array([0, 1, 0, 1, 0, 1])) for d in "ab"]
    with pytest.raises(ShapeMismatch, match="observation-index"):
        DOMAIN_TERMS[kind](model, bs, dk.Tape(model))


# The terms that read only W, as (model, W or batches, tape) -> scalar node.
WEIGHT_TABLE_TERMS = {
    "MEAN": lambda m, sources, t: ob.mean_domain_loss(m, sources, t),
    **{k: DOMAIN_TERMS[k] for k in ("VREX", "GROUP_DRO", "IRM", "FISH", "IGA",
                                    "SD", "FISHR")},
    "RSC": lambda m, sources, t: dk.nmean(DOMAIN_TERMS["RSC"](m, sources, t))}


@pytest.mark.parametrize("kind", list(WEIGHT_TABLE_TERMS))
@pytest.mark.parametrize("mode", ["gd", "sgd", "population"])
def test_a_weight_table_gives_its_batches_values(kind, mode):
    """Given W = `weight_table(model, bs)`, a domain term gives bitwise the
    value and parameter gradient it gives from the cell batches bs."""
    model, bs = _domain_case(mode)
    got = []
    for sources in (bs, ob.weight_table(model, bs)):
        tape = dk.Tape(model)
        node = WEIGHT_TABLE_TERMS[kind](model, sources, tape)
        got.append((node.val, dk.backward(tape, node)))
    for a, b in zip(*got):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [1, 7, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_minibatch_drawn_on_the_tables_is_the_cell_batch_draw(seed, k):
    """`harness._minibatch` on the run's tables gives bitwise the tables of
    the same draw on the cell batches."""
    model, bs = _domain_case("gd")
    got = harness._minibatch(*_tables(model, bs), np.random.default_rng(seed), k)
    rng = np.random.default_rng(seed)
    want = _tables(model, [_cell_minibatch(b, rng, k) for b in bs])
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_coral_builds_the_same_graph_for_any_domain_count():
    """CORAL's penalty takes every source's moments in one pass over the
    table's H, so its graph does not grow with the number of sources."""
    counts = []
    for n_domains in (2, 3):
        model, bs = _domain_case("population", n_domains)
        cfg = harness.ExperimentConfig("CANON-D", ("a", "b", "c"), "c",
                                       ob.ObjectiveConfig("CORAL", 1.0))
        step = harness._Step(model, harness._RunState(cfg, 0, 1.0),
                             *_tables(model, bs), 1)
        counts.append(_built_nodes(lambda: harness.STEPS["CORAL"].pen(step)))
    assert counts[0] == counts[1]


def test_a_misshapen_weight_table_is_refused():
    model, bs = _domain_case("gd")
    w = ob.weight_table(model, bs)
    assert w.shape == (3, model.embedding.shape[0], model.n_classes)
    for bad in (w[:, :-1], w[..., :-1], w[0], w[..., None]):
        with pytest.raises(ShapeMismatch, match="weight table of shape"):
            ob.mean_domain_loss(model, bad, dk.Tape(model))
    raw = dk.init_raw_model(3, (6,), model.n_classes, seed=5)
    with pytest.raises(ShapeMismatch, match="embedding"):
        ob.mean_domain_loss(raw, w, dk.Tape(raw))


# ---------------------------------------------------------------------------
# Closed-form table terms against their op chains

def _ref_nll(logp, w):
    return dk.neg(dk.nsum(dk.mul(dk.constant(w), logp), axis=(-2, -1)))


def _ref_losses(model, bs, tape):
    """The domain losses as op nodes on the table's log p view, [D, *runs]."""
    table, w = ob._domain_tables(model, bs, tape)
    return _ref_nll(table.logp, w[:, None] if model.runs else w)


def _ref_pair(model, table, kind, tape):
    """`pair_penalty` written as ops on the table's views."""
    n = model.embedding.shape[0]
    obs, _ = dk.obs_rows(model, np.arange(n), tape)

    def on(a, pair_axes):
        return dk.reshape(a, a.val.shape[:-2] + pair_axes + a.val.shape[-1:])

    if kind == "PROB":
        la, lb = on(obs.logp, (n, 1)), on(obs.logp, (1, n))
        per_pair = dk.nsum(dk.mul(on(obs.p, (n, 1)), dk.sub(la, lb)), axis=-1)
    else:
        part = obs.z if kind == "LOGIT" else obs.h
        sq = dk.square(dk.sub(on(part, (n, 1)), on(part, (1, n))))
        if kind == "LAM":
            head = dk.square(dk.slice_rows(tape.node("head"), 0, model.u_count))
            head = dk.reshape(head, head.val.shape[:-2] + (1,)
                              + head.val.shape[-2:])
            return dk.nsum(dk.mul(dk.matmul(sq, head), dk.constant(table)),
                           axis=(-3, -2, -1))
        per_pair = dk.nsum(sq, axis=-1)
    return dk.nsum(dk.mul(per_pair, dk.constant(np.sum(table, axis=-1))),
                   axis=(-2, -1))


def _ref_worst(losses):
    """Each run's worst domain loss, the lowest index on ties, as ops."""
    flat = losses if losses.val.ndim == 2 else dk.reshape(losses, (-1, 1))
    picked = dk.take_cols(dk.t2(flat), np.argmax(flat.val, axis=0))
    return picked if losses.val.ndim == 2 else dk.reshape(picked, ())


def _ref_irm(model, bs, tape):
    table, w = ob._domain_tables(model, bs, tape)
    w = w[:, None] if model.runs else w
    r = dk.sub(dk.mul(dk.constant(w.sum(axis=-1, keepdims=True)), table.p),
               dk.constant(w))
    rz = dk.nsum(dk.mul(r, table.z), axis=(-2, -1))
    return dk.nsum(dk.square(rz), axis=0)


def _ref_sd(model, bs, tape):
    table, w = ob._domain_tables(model, bs, tape)
    sq = dk.nsum(dk.square(table.z), axis=-1)
    return dk.nsum(dk.mul(sq, dk.constant(w.sum(axis=-1).mean(axis=0))),
                   axis=-1)


def _pair_weights(model):
    """A seed-drawn pair table W[x, x~, y] on the model's observations."""
    n = model.embedding.shape[0]
    w = np.random.default_rng(9).random((n, n, model.n_classes))
    return w / w.sum()


# kind -> (closed form, op-chain reference), each (model, batches, tape) -> node
TABLE_TERMS = {
    "NLL": (lambda m, bs, t: ob.domain_loss_vector(m, bs, t), _ref_losses),
    "PAIR_PROB": (lambda m, bs, t: ob.pair_penalty(m, _pair_weights(m), "PROB", t),
                  lambda m, bs, t: _ref_pair(m, _pair_weights(m), "PROB", t)),
    "PAIR_LOGIT": (lambda m, bs, t: ob.pair_penalty(m, _pair_weights(m), "LOGIT", t),
                   lambda m, bs, t: _ref_pair(m, _pair_weights(m), "LOGIT", t)),
    "PAIR_FEAT": (lambda m, bs, t: ob.pair_penalty(m, _pair_weights(m), "FEAT", t),
                  lambda m, bs, t: _ref_pair(m, _pair_weights(m), "FEAT", t)),
    "LAM": (lambda m, bs, t: ob.pair_penalty(m, _pair_weights(m), "LAM", t),
            lambda m, bs, t: _ref_pair(m, _pair_weights(m), "LAM", t)),
    "VREX": (lambda m, bs, t: ob.vrex_penalty(m, bs, t),
             lambda m, bs, t: (lambda l: dk.nmean(dk.square(dk.sub(
                 l, dk.nmean(l, axis=0))), axis=0))(_ref_losses(m, bs, t))),
    "GROUP_DRO": (lambda m, bs, t: ob.group_dro(m, bs, t),
                  lambda m, bs, t: _ref_worst(_ref_losses(m, bs, t))),
    "SD": (lambda m, bs, t: ob._on_table(ob._sd_form, m, bs, t), _ref_sd),
    "IRM": (lambda m, bs, t: ob.irm_penalty(m, bs, t), _ref_irm),
}


def _stacked(model, runs: int = 2):
    """runs copies of model on a run axis, each moved its own way."""
    stack = dk.stack_runs(model, runs)
    rng = np.random.default_rng(8)
    for _, arr in stack.param_blocks():
        arr += rng.normal(scale=0.3, size=arr.shape)
    return stack


@pytest.mark.parametrize("penalty", [ob.fish_penalty, ob.iga_penalty],
                         ids=["FISH", "IGA"])
def test_domain_gradient_penalties_refuse_a_stack(penalty):
    """The domain gradients have no run axis yet, so a stack is refused
    rather than read with its runs as domains."""
    model, bs = _domain_case("population", 2)
    with pytest.raises(ShapeMismatch):
        penalty(_stacked(model), bs)


@pytest.mark.parametrize("stacked", [False, True], ids=["one-run", "stack"])
@pytest.mark.parametrize("mode", ["gd", "sgd", "population"])
@pytest.mark.parametrize("kind", list(TABLE_TERMS))
def test_closed_forms_match_their_op_chains(kind, mode, stacked):
    """Each closed-form table term is one node, and has the value and
    parameter gradient of its op chain on the table's views within 1e-12
    relative, on a random model and on a 2-run stack."""
    model, bs = _domain_case(mode)
    model = _stacked(model) if stacked else model
    closed, ref = TABLE_TERMS[kind]
    tape, ref_tape = dk.Tape(model), dk.Tape(model)
    dk.obs_rows(model, np.arange(model.embedding.shape[0]), tape)
    built = []
    assert _built_nodes(lambda: built.append(closed(model, bs, tape))) == 1
    got, want = built[0], ref(model, bs, ref_tape)
    np.testing.assert_allclose(got.val, want.val, rtol=1e-12, atol=0)

    def per_run(node):  # the NLL's [D, *runs] losses summed over domains
        return node if node.val.shape == model.runs else dk.nsum(node, axis=0)

    g_want = dk.backward(ref_tape, per_run(want))
    np.testing.assert_allclose(dk.backward(tape, per_run(got)), g_want,
                               rtol=1e-12, atol=1e-12 * np.abs(g_want).max())


@pytest.mark.parametrize("kind", ["VREX", "GROUP_DRO", "SD", "IRM"])
def test_a_stack_gives_each_run_its_own_value(kind):
    """On a 2-run stack with different parameters, a domain term's entry r
    and gradient row r are run r's own, within 1e-12 relative."""
    model, bs = _domain_case("gd")
    stack = _stacked(model)
    term = DOMAIN_TERMS[kind]
    tape = dk.Tape(stack)
    node = term(stack, bs, tape)
    assert node.val.shape == (2,)
    grads = dk.backward(tape, node)
    for r in range(2):
        one = stack.run(r)
        one_tape = dk.Tape(one)
        want = term(one, bs, one_tape)
        assert float(node.val[r]) == pytest.approx(float(want.val), rel=1e-12,
                                                   abs=0)
        g_want = dk.backward(one_tape, want)
        np.testing.assert_allclose(grads[r], g_want, rtol=1e-12,
                                   atol=1e-12 * np.abs(g_want).max())
