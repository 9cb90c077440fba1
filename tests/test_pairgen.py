import numpy as np
import pytest

from cldlab import cld_core, pairgen
from cldlab.errors import EmptyPureSet, ShapeMismatch
from cldlab.oracle import domain_p_xy


def test_pair_members_share_the_core_value(canon_d):
    family, source, _ = canon_d
    pairs = pairgen.sample_pairs(family, source, 3000, seed=1)
    for p in pairs:
        # bijective channel: x = 2*xc + xn on both sides
        assert p.x == 2 * p.xc + p.xn
        assert p.x_tilde == 2 * p.xc + p.xn_tilde


def test_marginal_style_matches_the_noncore_marginal(canon_d):
    family, source, _ = canon_d
    pairs = pairgen.sample_pairs(family, source, 100000, style="marginal", seed=4)
    emp = np.bincount([p.xn_tilde for p in pairs], minlength=2) / len(pairs)
    assert np.abs(emp - source.noncore_marginal()).max() < 0.01


def test_uniform_style_redraw(canon_d):
    family, source, _ = canon_d
    pairs = pairgen.sample_pairs(family, source, 100000, style="uniform", seed=4)
    emp = np.bincount([p.xn_tilde for p in pairs], minlength=2) / len(pairs)
    assert np.abs(emp - 0.5).max() < 0.01


def test_labels_follow_the_mechanism(canon_d):
    family, source, _ = canon_d
    pairs = pairgen.sample_pairs(family, source, 100000, seed=4)
    lab = np.array([p.label for p in pairs])
    xc = np.array([p.xc for p in pairs])
    for c in (0, 1):
        assert lab[xc == c].mean() == pytest.approx(
            family.p_y_given_c[c, 1], abs=0.01)


def test_same_seed_reproduces(canon_d):
    family, source, _ = canon_d
    assert pairgen.sample_pairs(family, source, 50, seed=9) == \
        pairgen.sample_pairs(family, source, 50, seed=9)


def test_unknown_style_rejected(canon_d):
    family, source, _ = canon_d
    with pytest.raises(ShapeMismatch):
        pairgen.sample_pairs(family, source, 10, style="latent", seed=0)


class TestPureComposition:
    def test_reps_two_gives_one_pair_per_element(self, canon_d):
        family, source, _ = canon_d
        pairs = pairgen.compose_pure(family, [0, 1], source, reps=2, seed=0)
        assert len(pairs) == 2
        assert [p.xc for p in pairs] == [0, 1]

    def test_groups_share_the_core_value(self, canon_d):
        family, source, _ = canon_d
        groups = pairgen.compose_pure_groups(family, [0, 1], source,
                                             reps=4, seed=3)
        for g in groups:
            assert len(g.xs) == 4
            for p in g.pairs():
                assert p.xc == g.xc
                assert p.label == g.label

    def test_group_pair_count_is_all_unordered(self, canon_d):
        family, source, _ = canon_d
        (g,) = pairgen.compose_pure_groups(family, [1], source, reps=5, seed=3)
        assert len(g.pairs()) == 10  # C(5, 2)

    def test_empty_pure_set_rejected(self, canon_d):
        family, source, _ = canon_d
        with pytest.raises(EmptyPureSet):
            pairgen.compose_pure(family, [], source, reps=2, seed=0)

    def test_single_rep_rejected(self, canon_d):
        family, source, _ = canon_d
        with pytest.raises(ShapeMismatch):
            pairgen.compose_pure(family, [0], source, reps=1, seed=0)


def test_jsonl_round_trip(tmp_path, canon_d):
    family, source, _ = canon_d
    pairs = pairgen.sample_pairs(family, source, 64, seed=2)
    path = str(tmp_path / "pairs.jsonl")
    pairgen.write_pairs_jsonl(pairs, path)
    assert pairgen.read_pairs_jsonl(path) == pairs


def _family(name):
    """(family, first domain) of a fixture or a seed-drawn family."""
    if name == "CANON-D":
        family, source, _ = cld_core.canonical_fixture(name)
        return family, source
    variant, seed = name.split(":")
    family, domains = cld_core.random_family(int(seed), variant=variant,
                                             n_domains=2)
    return family, domains[0]


@pytest.mark.parametrize("style", ["marginal", "uniform"])
@pytest.mark.parametrize("name", ["CANON-D", "CLD:1", "CLD1:2", "CLD2:3",
                                  "CLD3:3", "CLD3:5"])
def test_pair_law_keeps_the_domain_joint(name, style):
    """The pair law sums to 1 and its (x, y) marginal is the domain's
    P(x, y): the first member and the label follow the domain's joint, for
    CLD3 too, whose label law is the domain's Bayes inversion."""
    family, domain = _family(name)
    law = pairgen.pair_law(family, domain, style)
    s = family.spaces
    assert law.shape == (s.n_obs, s.n_obs, s.n_classes)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(law.sum(axis=1), domain_p_xy(family, domain),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("style", ["marginal", "uniform"])
@pytest.mark.parametrize("name", ["CANON-D", "CLD2:3", "CLD3:3"])
def test_sampled_pairs_follow_the_pair_law(name, style):
    """2e5 sampled pairs lie within 5 binomial standard errors of the pair
    law in every (x, x~, y) cell, and never fall where it is 0."""
    family, domain = _family(name)
    n = 200_000
    law = pairgen.pair_law(family, domain, style)
    emp = pairgen.pair_table(pairgen.sample_pairs(family, domain, n, style, seed=8),
                             family.spaces.n_obs, family.spaces.n_classes)
    se = np.sqrt(law * (1.0 - law) / n)
    assert np.all(np.abs(emp - law) <= 5.0 * se)


def test_cld3_pure_groups_draw_the_domains_labels():
    """compose_pure_groups labels a CLD3 group from the domain's P(y | x^c),
    not from the family's unrelated p_y_given_c table."""
    family, domains = cld_core.random_family(3, variant="CLD3", n_domains=2)
    p_cy = cld_core.joint_cnxy(family, domains[0]).sum(axis=(1, 2))
    want = p_cy[0] / p_cy[0].sum()
    assert np.abs(want - family.p_y_given_c[0]).max() > 0.2
    n = 4000
    groups = pairgen.compose_pure_groups(family, [0] * n, domains[0], reps=2,
                                         seed=1)
    emp = np.bincount([g.label for g in groups],
                      minlength=family.spaces.n_classes) / n
    assert np.all(np.abs(emp - want) <= 5.0 * np.sqrt(want * (1 - want) / n))


class TestPairTable:
    def test_a_pair_list_holds_its_cells_counts_over_n(self, canon_d):
        family, source, _ = canon_d
        pairs = pairgen.sample_pairs(family, source, 300, seed=2)
        table = pairgen.pair_table(pairs, 4, 2)
        cells, counts = np.unique([(p.x, p.x_tilde, p.label) for p in pairs],
                                  axis=0, return_counts=True)
        want = np.zeros((4, 4, 2))
        want[tuple(cells.T)] = counts / len(pairs)
        assert np.array_equal(table, want)

    def test_weights_give_each_pair_its_mass(self):
        pairs = [pairgen.ContrastivePair(0, 1, 1, 0, 0, 1),
                 pairgen.ContrastivePair(0, 1, 1, 0, 0, 1),
                 pairgen.ContrastivePair(2, 3, None, 1, 0, 1)]
        table = pairgen.pair_table(pairs, 4, 2, weights=[0.25, 0.25, 0.5])
        assert table[0, 1, 1] == 0.5
        assert table[2, 3, 0] == table[2, 3, 1] == 0.25  # unlabeled: spread
        assert table.sum() == 1.0

    def test_groups_share_their_weight_over_ordered_pairs(self):
        groups = [pairgen.PairGroup((0, 1, 1), 0, 0, (0, 1, 1)),
                  pairgen.PairGroup((2, 3), 1, 1, (0, 1))]
        table = pairgen.pair_table(groups, 4, 2)
        assert table.sum() == pytest.approx(1.0, abs=1e-15)
        # each group holds 1/2; the first spreads it over 3 * 2 ordered pairs
        assert table[0, 1, 0] == pytest.approx(2 * 0.5 / 6, abs=1e-15)
        assert table[1, 1, 0] == pytest.approx(2 * 0.5 / 6, abs=1e-15)
        assert table[2, 3, 1] == table[3, 2, 1] == 0.25

    def test_a_one_member_group_is_refused(self):
        with pytest.raises(ShapeMismatch):
            pairgen.pair_table([pairgen.PairGroup((0,), 0, 0, (0,))], 4, 2)

    def test_no_pairs_refused(self):
        with pytest.raises(ShapeMismatch):
            pairgen.pair_table([], 4, 2)
