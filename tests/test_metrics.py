import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cldlab import cld_core, diffkit as dk, metrics, oracle, pairgen
from cldlab.errors import InvalidDistribution, TooFewDomains, TooFewExamples
from cldlab.rng import substream

# 1 - jsd of a fair coin against a point mass, base 2
HALF_VS_POINT = 0.31127812445913283


class TestJsd:
    def test_equal_distributions(self):
        assert metrics.jsd_base2([0.25, 0.75], [0.25, 0.75]) == 0.0

    def test_disjoint_support_maxes_out(self):
        assert metrics.jsd_base2([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_half_versus_point_mass(self):
        assert metrics.jsd_base2([0.5, 0.5], [1.0, 0.0]) \
            == pytest.approx(HALF_VS_POINT, abs=1e-15)

    def test_symmetric_to_the_bit(self):
        p = np.array([0.2, 0.5, 0.3])
        q = np.array([0.6, 0.1, 0.3])
        assert metrics.jsd_base2(p, q) == metrics.jsd_base2(q, p)

    @pytest.mark.parametrize("p,q", [
        ([0.5, 0.6], [0.5, 0.5]),       # does not sum to 1
        ([-0.1, 1.1], [0.5, 0.5]),      # negative mass
        ([[0.5, 0.5]], [0.5, 0.5]),     # not 1-d
        ([0.5, 0.5], [0.3, 0.3, 0.4]),  # length mismatch
        ([math.nan, 1.0], [0.5, 0.5]),  # not a number
        ([0.5, 0.5], [math.inf, -math.inf]),  # infinite mass
    ])
    def test_invalid_inputs(self, p, q):
        with pytest.raises(InvalidDistribution):
            metrics.jsd_base2(p, q)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
           st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    def test_bounded_and_symmetric(self, a, b):
        n = min(len(a), len(b))
        p = np.array(a[:n]) / sum(a[:n])
        q = np.array(b[:n]) / sum(b[:n])
        d = metrics.jsd_base2(p, q)
        assert 0.0 <= d <= 1.0
        assert d == metrics.jsd_base2(q, p)


def a_reader():
    """Extractor exposing only the A bit, then a calibrated-ish head."""
    w = np.array([[1.0], [0.0]])
    return dk.Model(cld_core.bit_coords(4), [w], [np.zeros(1)],
                    np.array([[2.0, -2.0], [0.0, 0.0]]) * -1)


def test_tabulate_matches_forward(canon_d):
    family, _, _ = canon_d
    model = dk.init_model(4, (6,), 2, embedding="bits", seed=3)
    table = metrics.tabulate(model, family)
    probs = dk.forward(model, np.arange(4))[2].val
    assert np.array_equal(table.p_yhat_given_x, probs)


class TestCiIndexMc:
    def test_constant_model(self, canon_d):
        family, source, _ = canon_d
        model = dk.Model(cld_core.bit_coords(4), [], [], np.zeros((3, 2)))
        est = metrics.ci_index_mc(model, family, source, n_pairs=500, seed=0)
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_a_reader_is_exactly_invariant(self, canon_d):
        family, source, _ = canon_d
        est = metrics.ci_index_mc(a_reader(), family, source, n_pairs=2000, seed=1)
        assert est.value == 1.0

    def test_matches_oracle_within_three_stderr(self, canon_d):
        family, source, _ = canon_d
        rng = substream(7, "verify")
        misses = 0
        for k in range(20):
            model = dk.init_model(4, (5,), 2, embedding="bits",
                                  seed=int(rng.integers(1 << 30)))
            exact = oracle.exact_ci_index(family, source,
                                          metrics.tabulate(model, family))
            est = metrics.ci_index_mc(model, family, source,
                                      n_pairs=20000, seed=k)
            band = max(3 * est.stderr, 1e-9)
            misses += abs(est.value - exact) > band
        assert misses <= 1  # a 3-sigma band may fail rarely by design

    def test_reps_are_idle_on_deterministic_families(self, canon_d):
        # x is a function of the latents here, so redrawing it changes nothing
        family, source, _ = canon_d
        model = dk.init_model(4, (5,), 2, embedding="bits", seed=9)
        one = metrics.ci_index_mc(model, family, source, n_pairs=4000,
                                  reps=1, seed=3)
        many = metrics.ci_index_mc(model, family, source, n_pairs=4000,
                                   reps=8, seed=3)
        assert many.value == pytest.approx(one.value, abs=1e-12)

    def test_uniform_style_accepted(self, canon_d):
        family, source, _ = canon_d
        model = dk.init_model(4, (5,), 2, embedding="bits", seed=9)
        est = metrics.ci_index_mc(model, family, source, n_pairs=1000,
                                  style="uniform", seed=3)
        assert 0.0 <= est.value <= 1.0
        assert est.style == "uniform"

    def test_unbiased_on_a_noisy_family(self, canon_n):
        # x is not a function of the latents here: the estimate must still
        # centre on the exact index, not on a JSD between single draws
        family, source, _ = canon_n
        rng = substream(11, "verify")
        for k in range(6):
            model = dk.init_model(4, (5,), 2, embedding="bits",
                                  seed=int(rng.integers(1 << 30)))
            exact = oracle.exact_ci_index(family, source,
                                          metrics.tabulate(model, family))
            est = metrics.ci_index_mc(model, family, source, n_pairs=20000,
                                      seed=k)
            assert abs(est.value - exact) <= 4 * est.stderr, (k, est, exact)

    @pytest.mark.parametrize("style", ["marginal", "uniform"])
    def test_reads_the_fused_rows_at_sample_pairs_draws(self, canon_n, style):
        family, source, _ = canon_n
        model = dk.init_model(4, (5,), 2, embedding="bits", seed=4)
        fused = oracle.fuse(family, metrics.tabulate(model, family)) \
            .p_yhat_given_cn
        pairs = pairgen.sample_pairs(family, source, 300, style=style, seed=8)
        c, xn, xn_t = (np.array([getattr(p, a) for p in pairs])
                       for a in ("xc", "xn", "xn_tilde"))
        expected = 1.0 - oracle.jsd2(fused[c, xn], fused[c, xn_t]).mean()
        est = metrics.ci_index_mc(model, family, source, n_pairs=300,
                                  style=style, seed=8)
        assert est.value == expected


class TestEvaluate:
    def test_exact_agrees_with_oracle_bitwise(self, canon_d):
        family, source, _ = canon_d
        model = dk.init_model(4, (6,), 2, embedding="bits", seed=5)
        res = metrics.evaluate_exact(model, family, source)
        table = metrics.tabulate(model, family)
        assert res.loss == oracle.exact_loss(family, source, table)
        assert res.accuracy == oracle.exact_accuracy(family, source, table)
        assert res.n == 0

    def test_sampled_tracks_exact(self, canon_d):
        family, source, _ = canon_d
        model = dk.init_model(4, (6,), 2, embedding="bits", seed=5)
        n = 40000
        sampled = metrics.evaluate(model, family, source, n=n, seed=2)
        exact = metrics.evaluate_exact(model, family, source)
        assert abs(sampled.loss - exact.loss) < 5 / math.sqrt(n)
        assert sampled.n == n

    def test_perfect_predictor_accuracy(self, identity_family):
        family, domain = identity_family
        head = np.array([[0.0, 1000.0], [0.0, 0.0], [500.0, 0.0]])
        model = dk.Model(cld_core.bit_coords(4), [], [], head)
        assert metrics.evaluate_exact(model, family, domain).accuracy == 1.0


def extractor(weights):
    w = np.asarray(weights, dtype=np.float64)
    return dk.Model(cld_core.bit_coords(4), [w],
                    [np.zeros(w.shape[1])],
                    np.zeros((w.shape[1] + 1, 2)))


def shifted_noncore_family():
    """CLD2 pair sharing P(c) = 1/2 while P(B = 1) moves 0.3 -> 0.7."""
    family, _, _ = cld_core.canonical_fixture("CANON-D")
    src = cld_core.make_domain(family, "CLD2", domain_id="s",
                               p_cn=np.array([[0.35, 0.15], [0.35, 0.15]]))
    tgt = cld_core.make_domain(family, "CLD2", domain_id="t",
                               p_cn=np.array([[0.15, 0.35], [0.15, 0.35]]))
    return family, src, tgt


class TestFeatureDivergences:
    def sample(self, family, domains, n, seed=0):
        return [cld_core.sample_dataset(family, d, n, seed) for d in domains]

    def test_identical_datasets_score_zero(self, canon_d):
        family, source, _ = canon_d
        ds = cld_core.sample_dataset(family, source, 300, seed=1)
        model = dk.init_model(4, (6,), 2, embedding="bits", seed=0)
        div = metrics.feature_divergences(model, [ds, ds])
        assert div.mmd == pytest.approx(0.0, abs=1e-9) or div.mmd < 0
        assert div.coral == pytest.approx(0.0, abs=1e-12)

    def test_single_domain_rejected(self, canon_d):
        family, source, _ = canon_d
        ds = cld_core.sample_dataset(family, source, 50, seed=1)
        model = dk.init_model(4, (6,), 2, embedding="bits", seed=0)
        with pytest.raises(TooFewDomains):
            metrics.feature_divergences(model, [ds])

    def test_tiny_domain_rejected(self, canon_d):
        family, source, _ = canon_d
        big = cld_core.sample_dataset(family, source, 50, seed=1)
        tiny = cld_core.Dataset("t", big.x[:1], big.y[:1],
                                big.xc[:1], big.xn[:1])
        model = dk.init_model(4, (6,), 2, embedding="bits", seed=0)
        with pytest.raises(TooFewExamples):
            metrics.feature_divergences(model, [big, tiny])

    def test_core_reader_beats_noncore_reader_under_marginal_shift(self):
        family, src, tgt = shifted_noncore_family()
        data = self.sample(family, [src, tgt], 2000, seed=0)
        mmd_a = metrics.feature_divergences(extractor([[1.0], [0.0]]), data).mmd
        mmd_b = metrics.feature_divergences(extractor([[0.0], [1.0]]), data).mmd
        # only the B pushforward feels the marginal shift
        assert mmd_b > 0.01
        assert mmd_b > 5 * abs(mmd_a)

    def test_per_class_on_label_shift(self):
        spaces = cld_core.LatentSpaces(2, 2, 4, 2)
        px = np.zeros((2, 2, 4))
        for c in range(2):
            for n in range(2):
                px[c, n, 2 * c + n] = 1.0
        family = cld_core.build_family(
            spaces, px, np.array([[0.9, 0.1], [0.1, 0.9]]))
        shared = np.array([[0.9, 0.1], [0.1, 0.9]])
        src = cld_core.make_domain(family, "CLD3", domain_id="s",
                                   p_y=np.array([0.5, 0.5]),
                                   p_c_given_y=shared,
                                   p_n_given_c=np.tile([0.7, 0.3], (2, 1)))
        tgt = cld_core.make_domain(family, "CLD3", domain_id="t",
                                   p_y=np.array([0.15, 0.85]),
                                   p_c_given_y=shared,
                                   p_n_given_c=np.tile([0.4, 0.6], (2, 1)))
        data = self.sample(family, [src, tgt], 2000, seed=0)
        div = metrics.feature_divergences(extractor([[1.0], [0.0]]), data,
                                          per_class=True)
        assert div.mmd > 0.01
        for class_mmd, _ in div.per_class.values():
            assert abs(class_mmd) < 0.1 * div.mmd
        # balancing class priors also collapses the marginal gap
        assert abs(div.normalized[0]) < 0.1 * div.mmd


def test_single_bit_readers_share_a_bandwidth():
    """Pooled over both domains 10 of 20 rows have A = 1 and 13 have B = 1,
    so over half the pairs coincide on B and the B reader's median squared
    distance is 0.  The median rule then takes the median of the distances
    above the floor, so both readers get the same kernel width."""
    x_s = np.array([3, 3, 3, 3, 3, 1, 1, 1, 0, 0])
    x_t = np.array([3, 3, 3, 2, 2, 1, 1, 0, 0, 0])
    data = [cld_core.Dataset("s", x_s, np.zeros(10, dtype=np.int64)),
            cld_core.Dataset("t", x_t, np.zeros(10, dtype=np.int64))]
    core = metrics.feature_divergences(extractor([[1.0], [0.0]]), data)
    noncore = metrics.feature_divergences(extractor([[0.0], [1.0]]), data)
    assert core.bandwidth == noncore.bandwidth == 1.0
