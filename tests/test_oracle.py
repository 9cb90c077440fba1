import math

import numpy as np
import pytest

from cldlab import cld_core, oracle
from cldlab.errors import ShapeMismatch
from cldlab.rng import substream

# Binary cross-entropy of a 0.75 coin, the best any A-reading model can do on
# the canonical deterministic fixture.
H_075 = 0.5623351446188083


def uniform_table(n_obs, n_classes):
    return oracle.predictor_table(np.full((n_obs, n_classes), 1.0 / n_classes))


def a_only_table(family):
    """Lift p_y_given_c through the A bit of the 2x2 canonical layout."""
    rows = family.p_y_given_c[np.arange(4) // 2]
    return oracle.predictor_table(rows)


def b_only_table():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    return oracle.predictor_table(rows)


class TestExactLoss:
    def test_uniform_predictor_gives_ln2(self, canon_d):
        family, source, _ = canon_d
        loss = oracle.exact_loss(family, source, uniform_table(4, 2))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_causal_lift_matches_both_domains(self, canon_d):
        family, source, target = canon_d
        tab = a_only_table(family)
        assert oracle.exact_loss(family, source, tab) == pytest.approx(H_075, abs=1e-12)
        assert oracle.exact_loss(family, target, tab) == pytest.approx(H_075, abs=1e-12)

    def test_zero_mass_on_reachable_label_is_infinite(self, canon_d):
        family, source, _ = canon_d
        dead = oracle.predictor_table(np.tile([1.0, 0.0], (4, 1)))
        assert oracle.exact_loss(family, source, dead) == math.inf

    def test_label_permutation_invariance(self, canon_d):
        family, source, _ = canon_d
        tab = a_only_table(family)
        flipped_family = cld_core.build_family(
            family.spaces, family.p_x_given_cn, family.p_y_given_c[:, ::-1])
        flipped_source = cld_core.make_domain(flipped_family, "CLD2",
                                              domain_id="source",
                                              p_cn=source.p_cn)
        flipped_tab = oracle.predictor_table(tab.p_yhat_given_x[:, ::-1])
        assert oracle.exact_loss(flipped_family, flipped_source, flipped_tab) \
            == pytest.approx(oracle.exact_loss(family, source, tab), abs=1e-15)


class TestBayes:
    def test_one_hot_rows_on_deterministic_labels(self, identity_family):
        family, domain = identity_family
        tab, unreachable = oracle.bayes_predictor(family, domain)
        assert not unreachable.any()
        expect = np.eye(2)[np.arange(4) // 2]
        assert np.allclose(tab.p_yhat_given_x, expect)

    def test_canon_d_rows_ignore_b(self, canon_d):
        family, source, _ = canon_d
        rows = oracle.bayes_predictor(family, source)[0].p_yhat_given_x
        assert np.allclose(rows[0], rows[1])
        assert np.allclose(rows[2], rows[3])
        assert np.allclose(rows, a_only_table(family).p_yhat_given_x)

    def test_canon_n_rows_read_both_bits(self, canon_n):
        family, source, _ = canon_n
        rows = oracle.bayes_predictor(family, source)[0].p_yhat_given_x
        # the noncore bit is informative through the latent coupling
        assert rows[3, 1] > rows[2, 1]

    def test_minimality_over_random_tables(self, canon_d):
        family, source, _ = canon_d
        bayes, _ = oracle.bayes_predictor(family, source)
        floor = oracle.exact_loss(family, source, bayes)
        rng = substream(0, "verify")
        for _ in range(300):
            q = oracle.random_predictor(family.spaces, rng)
            assert oracle.exact_loss(family, source, q) >= floor - 1e-12


class TestCausalFaithful:
    def test_canon_d_optimum_lifts_the_mechanism(self, canon_d):
        family, source, _ = canon_d
        cf = oracle.optimal_causal_faithful(family, source)
        assert not cf.degenerate
        assert np.allclose(cf.table.p_yhat_given_x,
                           [[0.75, 0.25], [0.75, 0.25],
                            [0.25, 0.75], [0.25, 0.75]])

    def test_canon_n_degenerates_to_source_marginal(self, canon_n):
        family, source, _ = canon_n
        cf = oracle.optimal_causal_faithful(family, source)
        assert cf.degenerate
        joint = cld_core.joint_cnxy(family, source)
        marginal = joint.sum(axis=(0, 1, 2))
        assert np.allclose(cf.table.p_yhat_given_x,
                           np.tile(marginal, (4, 1)))

    def test_deterministic_labels_give_one_hot_lift(self, identity_family):
        family, domain = identity_family
        cf = oracle.optimal_causal_faithful(family, domain)
        assert not cf.degenerate
        assert np.allclose(cf.table.p_yhat_given_x, np.eye(2)[np.arange(4) // 2])


class TestFuse:
    def test_deterministic_channel_copies_rows(self, identity_family):
        family, _ = identity_family
        tab = uniform_table(4, 2)
        fused = oracle.fuse(family, tab)
        assert np.allclose(fused.p_yhat_given_cn,
                           np.full((2, 2, 2), 0.5))

    def test_canon_n_mixes_the_two_a_rows(self, canon_n):
        family, _, _ = canon_n
        rows = np.array([[0.9, 0.1], [0.9, 0.1], [0.2, 0.8], [0.2, 0.8]])
        fused = oracle.fuse(family, oracle.predictor_table(rows))
        # A flips with probability 0.25: 0.75*0.9 + 0.25*0.2 = 0.725
        assert fused.p_yhat_given_cn[0, 0, 0] == pytest.approx(0.725)
        assert fused.p_yhat_given_cn[1, 1, 0] == pytest.approx(0.375)


class TestInvariance:
    def test_constant_predictor(self, canon_d):
        family, _, _ = canon_d
        res = oracle.is_causal_invariant(family, uniform_table(4, 2))
        assert res.invariant
        assert res.deviation == 0.0

    def test_a_only_predictor(self, canon_d):
        family, _, _ = canon_d
        assert oracle.is_causal_invariant(family, a_only_table(family)).invariant

    def test_b_only_predictor_with_witness(self, canon_d):
        family, _, _ = canon_d
        res = oracle.is_causal_invariant(family, b_only_table())
        assert not res.invariant
        assert res.witness == (0, 0, 1)

    def test_canon_n_rejects_every_x_dependent_table(self, canon_n):
        family, _, _ = canon_n
        # all 16 one-hot tables over 4 observations; only constants survive
        for code in range(16):
            rows = np.eye(2)[[code >> i & 1 for i in range(4)]]
            res = oracle.is_causal_invariant(family, oracle.predictor_table(rows))
            assert res.invariant == (len(set(code >> i & 1 for i in range(4))) == 1)


    @pytest.mark.parametrize("seed", range(12))
    def test_matches_a_plain_latent_triple_loop(self, seed):
        family = many_to_one_family(seed)
        s = family.spaces
        supp = family.p_x_given_cn > 0.0
        rng = substream(seed, "invariance-rows")
        palette = rng.dirichlet(np.ones(s.n_classes), size=3)
        for k in range(6):
            # few distinct rows, so TVs tie and the witness order matters
            rows = palette[rng.integers(0, 3 if k else 1, size=s.n_obs)]
            pred = oracle.predictor_table(rows)
            tv = 0.5 * np.abs(rows[:, None] - rows[None, :]).sum(axis=2)
            worst, witness = 0.0, None
            for c in range(s.n_core):
                for n in range(s.n_noncore):
                    for m in range(s.n_noncore):
                        dev = tv[np.ix_(supp[c, n], supp[c, m])].max()
                        if dev > worst:
                            worst, witness = dev, (c, n, m)
            res = oracle.is_causal_invariant(family, pred)
            assert res.deviation == worst
            assert res.witness == (witness if worst > 1e-9 else None)
            assert res.invariant == (worst <= 1e-9)


def many_to_one_family(seed):
    """A stochastic family whose latent pairs share observations."""
    rng = substream(seed, "many-to-one")
    n_core, n_noncore, n_obs = (int(v) for v in rng.integers(2, 5, size=3))
    px = rng.random((n_core, n_noncore, n_obs))
    px *= rng.random(px.shape) < 0.4
    px[np.arange(n_core)[:, None], np.arange(n_noncore),
       rng.integers(0, n_obs, size=(n_core, n_noncore))] += 0.5
    px /= px.sum(axis=2, keepdims=True)
    spaces = cld_core.LatentSpaces(n_core, n_noncore, n_obs, 3)
    py = rng.dirichlet(np.ones(3), size=n_core)
    return cld_core.build_family(spaces, px, py)


class TestContrastiveComponents:
    def test_chained_lone_and_unreachable_observations(self):
        # c0 alone reaches x4; c1 reaches {x1, x2} and c2 {x0, x1}, chaining
        # x0-x1-x2; nothing generates x3.
        px = np.zeros((3, 2, 5))
        px[0, :, 4] = 1.0
        px[1, 0, [1, 2]] = 0.5
        px[1, 1, 2] = 1.0
        px[2, 0, 0] = 1.0
        px[2, 1, [0, 1]] = [0.3, 0.7]
        family = cld_core.build_family(cld_core.LatentSpaces(3, 2, 5, 2), px,
                                       np.full((3, 2), 0.5))
        comp, n_comp = oracle.contrastive_components(family)[:2]
        assert comp.tolist() == [0, 0, 0, -1, 1]
        assert n_comp == 2

    def test_canon_fixtures(self, canon_d, canon_n):
        comp, n_comp = oracle.contrastive_components(canon_d[0])[:2]
        assert comp.tolist() == [0, 0, 1, 1] and n_comp == 2
        comp, n_comp = oracle.contrastive_components(canon_n[0])[:2]
        assert comp.tolist() == [0, 0, 0, 0] and n_comp == 1


class TestCiIndex:
    def test_causal_invariant_scores_one(self, canon_d):
        family, source, _ = canon_d
        assert oracle.exact_ci_index(family, source, a_only_table(family)) == 1.0

    def test_disjoint_rows_score_half(self, identity_family):
        family, domain = identity_family
        # one-hot at class = noncore value: fused rows disjoint across the two
        # noncore values, and the marginal resample lands on the same value
        # with probability 1/2, so the expected base-2 JSD is 1/2
        rows = np.zeros((4, 2))
        for c in range(2):
            for n in range(2):
                rows[2 * c + n, n] = 1.0
        ci = oracle.exact_ci_index(family, domain, oracle.predictor_table(rows))
        assert ci == pytest.approx(0.5, abs=1e-12)

    def test_b_reader_scores_below_a_reader(self, canon_d):
        family, source, _ = canon_d
        ci_b = oracle.exact_ci_index(family, source, b_only_table())
        ci_a = oracle.exact_ci_index(family, source, a_only_table(family))
        assert ci_b < ci_a == 1.0

    @pytest.mark.parametrize("style", ["marginal", "uniform"])
    @pytest.mark.parametrize("which", ["CANON-D", "CANON-N", "CLD3"])
    def test_matches_a_loop_over_latent_pairs(self, which, style):
        """1 - sum over (c, n, m) of P(c, n) q(m) JSD(fused[c, n],
        fused[c, m]), q the partner law of the style, on random tables."""
        if which == "CLD3":
            family, domains = cld_core.random_family(5, variant="CLD3",
                                                     n_domains=2)
        else:
            family, *domains = cld_core.canonical_fixture(which)
        s = family.spaces
        rng = substream(1, "ci-loop")
        for domain in domains:
            table = oracle.random_predictor(s, rng)
            fused = oracle.fuse(family, table).p_yhat_given_cn
            q = (domain.noncore_marginal() if style == "marginal"
                 else np.full(s.n_noncore, 1.0 / s.n_noncore))
            total = 0.0
            for c in range(s.n_core):
                for n in range(s.n_noncore):
                    for m in range(s.n_noncore):
                        total += domain.p_cn[c, n] * q[m] * float(
                            oracle.jsd2(fused[c, n], fused[c, m]))
            got = oracle.exact_ci_index(family, domain, table, style)
            assert got == pytest.approx(1.0 - total, abs=1e-12)
        assert oracle.exact_ci_index(family, domains[0], table) == \
            oracle.exact_ci_index(family, domains[0], table, "marginal")

    def test_an_unknown_style_is_refused(self, canon_d):
        family, source, _ = canon_d
        with pytest.raises(ShapeMismatch, match="unknown pair style"):
            oracle.exact_ci_index(family, source, b_only_table(), "swap")


class TestSupport:
    def test_identical_domains(self, canon_d):
        family, source, _ = canon_d
        res = oracle.support_condition(family, source, source)
        assert res == {"cond3": True, "cond3prime": True}

    def test_canon_d_full_support(self, canon_d):
        family, source, target = canon_d
        res = oracle.support_condition(family, source, target)
        assert res["cond3"] and res["cond3prime"]

    def test_unsupported_core_value(self, identity_family):
        family, _ = identity_family
        source = cld_core.make_domain(family, "CLD2", domain_id="s",
                                      p_cn=np.array([[0.5, 0.5], [0.0, 0.0]]))
        target = cld_core.make_domain(family, "CLD2", domain_id="t",
                                      p_cn=np.array([[0.45, 0.45], [0.05, 0.05]]))
        res = oracle.support_condition(family, source, target)
        assert not res["cond3"]
        assert not res["cond3prime"]


class TestTheoremSuite:
    def test_canon_d_all_applicable_pass(self, canon_d):
        family, source, target = canon_d
        report = oracle.verify_theorems(family, [source, target])
        assert report.all_pass
        statuses = {c.id: c.status for c in report.claims}
        assert statuses["P7"] == "NOT-APPLICABLE"  # no anti-causal domain here
        for cid in ("P1", "P2", "T1", "T2", "T3", "P4", "P5", "P6", "P8", "T5"):
            assert statuses[cid] == "PASS"

    def test_canon_n_degenerate_mode(self, canon_n):
        family, source, target = canon_n
        report = oracle.verify_theorems(family, [source, target])
        assert report.all_pass
        assert report.claim("T2").status == "PASS"
        assert report.claim("T3").status == "PASS"
        assert report.claim("P8").status == "NOT-APPLICABLE"

    def test_broken_coherence_is_caught(self, canon_d):
        family, source, _ = canon_d
        skew = cld_core.make_domain(family, "CLD2", domain_id="skew",
                                    p_cn=np.array([[0.35, 0.35], [0.15, 0.15]]))
        report = oracle.verify_theorems(family, [source, skew])
        assert not report.all_pass
        assert report.claim("P4").status == "FAIL"

    @pytest.mark.parametrize("seed", [None, *range(20)])
    def test_p5_and_p8_are_exact(self, canon_d, seed):
        if seed is None:
            family, domains = canon_d[0], list(canon_d[1:])
        else:
            family, domains = cld_core.random_family(seed)
        report = oracle.verify_theorems(family, domains)
        for cid in ("P5", "P8"):
            assert report.claim(cid).status == "PASS"
            assert report.claim(cid).deviation <= 1e-12

    @pytest.mark.parametrize("domain", ["source", "skew"])
    def test_chart_gradient_matches_finite_differences(self, canon_d, domain):
        family, source, _ = canon_d
        dom = source if domain == "source" else cld_core.make_domain(
            family, "CLD2", domain_id="skew",
            p_cn=np.array([[0.35, 0.35], [0.15, 0.15]]))
        s = family.spaces
        groups = oracle.recoverable_core_map(family)
        n_groups = int(groups.max()) + 1
        q = oracle._group_sum(oracle.domain_p_xy(family, dom), groups, n_groups)

        def chart_loss(logits):
            z = np.exp(logits - logits.max(axis=1, keepdims=True))
            rows = np.full((s.n_obs, s.n_classes), 1.0 / s.n_classes)
            rows[groups >= 0] = (z / z.sum(axis=1, keepdims=True))[groups[groups >= 0]]
            return oracle.exact_loss(family, dom, oracle.predictor_table(rows, tol=1e-9))

        rng = substream(0, "chart")
        eps = 1e-6
        for _ in range(3):
            logits = 0.5 * rng.standard_normal((n_groups, s.n_classes))
            fd = np.zeros_like(logits)
            for idx in np.ndindex(logits.shape):
                bump = np.zeros_like(logits)
                bump[idx] = eps
                fd[idx] = (chart_loss(logits + bump) -
                           chart_loss(logits - bump)) / (2 * eps)
            assert np.abs(oracle._chart_grad(logits, q) - fd).max() <= 1e-8


class TestAntiCausal:
    @pytest.mark.parametrize("seed", range(5))
    def test_shared_mechanism_passes_p7(self, seed):
        family, domains = cld_core.random_family(seed, variant="CLD3",
                                                 n_domains=3)
        report = oracle.verify_theorems(family, domains)
        assert report.claim("P7").status == "PASS"
        for cid in ("T2", "T3", "T5"):
            assert report.claim(cid).status == "NOT-APPLICABLE"

    @pytest.mark.parametrize("seed", range(4))
    def test_causal_faithful_optimum_lifts_the_domain_label_law(self, seed):
        """On CLD3, y is independent of x given x^c, so where x pins down
        x^c the lift of the source's own P(y | x^c) is the Bayes predictor:
        the causal-faithful optimum reaches the Bayes loss, and its rows on
        the support are P(y | x^c) read from the domain's joint."""
        family, domains = cld_core.random_family(seed, variant="CLD3",
                                                 n_domains=2)
        for source in domains:
            cf = oracle.optimal_causal_faithful(family, source)
            assert not cf.degenerate
            bayes, _ = oracle.bayes_predictor(family, source)
            assert oracle.exact_loss(family, source, cf.table) == pytest.approx(
                oracle.exact_loss(family, source, bayes), rel=1e-12)
            joint = cld_core.joint_cnxy(family, source)
            p_cy = joint.sum(axis=(1, 2))
            p_cx = joint.sum(axis=(1, 3))
            for x in np.flatnonzero(p_cx.sum(axis=0) > 0.0):
                (c,) = np.flatnonzero(p_cx[:, x] > 0.0)
                np.testing.assert_allclose(cf.table.p_yhat_given_x[x],
                                           p_cy[c] / p_cy[c].sum(), rtol=1e-12)

    def test_rolled_mechanism_fails_p7(self):
        family, domains = cld_core.random_family(3, variant="CLD3", n_domains=3)
        d0 = domains[0]
        rolled = cld_core.make_domain(
            family, "CLD3", domain_id="rolled", p_y=d0.p_y,
            p_c_given_y=np.roll(d0.p_c_given_y, 1, axis=1),
            p_n_given_c=d0.p_n_given_c)
        p7 = oracle.verify_theorems(family, [d0, rolled]).claim("P7")
        assert p7.status == "FAIL"
        assert p7.deviation == pytest.approx(0.40, abs=5e-3)
        assert not cld_core.check_family_coherence([d0, rolled], "CLD3")["pass"]


def test_predictor_table_rejects_bad_rows():
    from cldlab.errors import NotStochastic
    with pytest.raises(NotStochastic):
        oracle.predictor_table([[0.7, 0.2], [0.5, 0.5]])
    with pytest.raises(NotStochastic):
        oracle.predictor_table([[1.2, -0.2], [0.5, 0.5]])
    for bad in (np.nan, np.inf):
        with pytest.raises(NotStochastic) as err:
            oracle.predictor_table([[0.5, 0.5], [bad, 0.5]])
        assert err.value.row_index == 1
