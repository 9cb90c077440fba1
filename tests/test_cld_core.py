import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cldlab import cld_core
from cldlab.errors import MixedVariants, NotStochastic, ShapeMismatch, UnknownFixture


def test_identity_family_is_valid(identity_family):
    family, domain = identity_family
    assert family.spaces.n_obs == 4
    assert np.allclose(family.p_x_given_cn.sum(axis=2), 1.0)


def test_row_summing_short_rejected():
    spaces = cld_core.LatentSpaces(2, 2, 4, 2)
    px = np.zeros((2, 2, 4))
    px[:, :, 0] = 0.9  # rows sum to 0.9
    with pytest.raises(NotStochastic):
        cld_core.build_family(spaces, px, np.eye(2))


@pytest.mark.parametrize("table", ["p_x_given_cn", "p_y_given_c"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_entry_rejected(table, value):
    spaces = cld_core.LatentSpaces(2, 2, 4, 2)
    tables = {"p_x_given_cn": np.full((2, 2, 4), 0.25),
              "p_y_given_c": np.full((2, 2), 0.5)}
    tables[table][1, 0] = value
    with pytest.raises(NotStochastic) as err:
        cld_core.build_family(spaces, **tables)
    assert err.value.table_name == table and err.value.row_index == 1


def test_canon_d_tables(canon_d):
    family, source, target = canon_d
    assert family.spaces == cld_core.LatentSpaces(2, 2, 4, 2)
    # y | c flips a 0.75 coin toward the core value
    assert np.allclose(family.p_y_given_c, [[0.75, 0.25], [0.25, 0.75]])
    # x = 2A + B with A = x^c, B = x^n, deterministically
    for c in range(2):
        for n in range(2):
            assert family.p_x_given_cn[c, n, 2 * c + n] == 1.0
    assert np.allclose(source.p_cn, [[0.475, 0.025], [0.025, 0.475]])
    assert np.allclose(target.p_cn, [[0.025, 0.475], [0.475, 0.025]])


def test_canon_n_flips_noncore(canon_n):
    family, source, target = canon_n
    # A survives with probability 0.75, so x=(A,B) lands off-diagonal in A
    # with mass 0.25 regardless of the noncore bit
    assert family.p_x_given_cn[0, 0, 0] == pytest.approx(0.75)
    assert family.p_x_given_cn[0, 0, 2] == pytest.approx(0.25)


def test_unknown_fixture_rejected():
    with pytest.raises(UnknownFixture):
        cld_core.canonical_fixture("CANON-Z")


def test_uniform_cld_domain(identity_family):
    family, _ = identity_family
    d = cld_core.make_domain(family, "CLD", domain_id="flat",
                             p_cn=np.full((2, 2), 0.25))
    assert d.variant == "CLD"


def test_cld3_domain_with_identity_channel(identity_family):
    family, _ = identity_family
    d = cld_core.make_domain(family, "CLD3", domain_id="anti",
                             p_y=np.array([0.5, 0.5]),
                             p_c_given_y=np.eye(2),
                             p_n_given_c=np.full((2, 2), 0.5))
    assert d.variant == "CLD3"
    assert np.allclose(d.p_c_given_y, np.eye(2))


class TestCoherence:
    def test_identical_core_marginals_pass(self, identity_family):
        family, domain = identity_family
        other = cld_core.make_domain(family, "CLD2", domain_id="v",
                                     p_cn=np.array([[0.4, 0.1], [0.3, 0.2]]))
        report = cld_core.check_family_coherence([domain, other], "CLD2")
        assert report["pass"]
        assert report["max_deviation"] == 0.0

    def test_skewed_core_marginal_fails(self, identity_family):
        family, domain = identity_family
        skew = cld_core.make_domain(family, "CLD2", domain_id="w",
                                    p_cn=np.array([[0.3, 0.3], [0.2, 0.2]]))
        report = cld_core.check_family_coherence([domain, skew], "CLD2")
        assert not report["pass"]
        assert report["max_deviation"] == pytest.approx(0.1)

    def test_canon_d_pair_coheres(self, canon_d):
        family, source, target = canon_d
        report = cld_core.check_family_coherence([source, target], "CLD2")
        assert report["pass"]

    def test_mixed_variants_rejected(self, identity_family):
        family, domain = identity_family
        cld3 = cld_core.make_domain(family, "CLD3", domain_id="m",
                                    p_y=np.array([0.5, 0.5]),
                                    p_c_given_y=np.eye(2),
                                    p_n_given_c=np.full((2, 2), 0.5))
        with pytest.raises(MixedVariants):
            cld_core.check_family_coherence([domain, cld3], "CLD2")


class TestSampling:
    def test_zero_draws_forbidden(self, canon_d):
        family, source, _ = canon_d
        with pytest.raises(ShapeMismatch):
            cld_core.sample_dataset(family, source, 0, seed=0)

    def test_point_mass_forces_the_record(self, identity_family):
        family, _ = identity_family
        point = cld_core.make_domain(
            family, "CLD2", domain_id="pt",
            p_cn=np.array([[0.0, 0.0], [0.0, 1.0]]))
        ds = cld_core.sample_dataset(family, point, 1, seed=0)
        assert (ds.xc[0], ds.xn[0], ds.x[0], ds.y[0]) == (1, 1, 3, 1)

    def test_source_correlation_shows_in_counts(self, canon_d):
        family, source, _ = canon_d
        ds = cld_core.sample_dataset(family, source, 100000, seed=3)
        assert (ds.xn == ds.xc).mean() == pytest.approx(0.95, abs=0.01)

    def test_same_seed_same_bytes(self, canon_d):
        family, source, _ = canon_d
        a = cld_core.sample_dataset(family, source, 500, seed=11)
        b = cld_core.sample_dataset(family, source, 500, seed=11)
        for field in ("x", "y", "xc", "xn"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_provenance_is_consistent(self, canon_d):
        family, source, _ = canon_d
        ds = cld_core.sample_dataset(family, source, 2000, seed=5)
        # bijective channel: x must decode back to the latent pair
        assert np.array_equal(ds.x, 2 * ds.xc + ds.xn)


def test_round_trip_through_dict(canon_d):
    family, source, target = canon_d
    doc = cld_core.family_to_dict(family, [source, target])
    fam2, doms2 = cld_core.family_from_dict(doc)
    assert np.array_equal(fam2.p_y_given_c, family.p_y_given_c)
    assert np.array_equal(fam2.p_x_given_cn, family.p_x_given_cn)
    assert [d.domain_id for d in doms2] == ["source", "target"]
    assert np.array_equal(doms2[1].p_cn, target.p_cn)


def test_load_family_json(tmp_path, canon_d):
    family, source, target = canon_d
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(cld_core.family_to_dict(family, [source, target])))
    fam2, doms2 = cld_core.load_family_json(str(path))
    assert fam2.spaces == family.spaces
    assert len(doms2) == 2


def test_bit_coords_cover_the_plane():
    assert np.array_equal(cld_core.bit_coords(4),
                          [[0, 0], [0, 1], [1, 0], [1, 1]])


@pytest.mark.parametrize("n_obs", [1, 2, 3, 4, 5, 8, 9, 17])
def test_bit_coords_match_a_digit_loop(n_obs):
    width = max(1, int(np.ceil(np.log2(max(n_obs, 2)))))
    rows = [[(i >> (width - 1 - b)) & 1 for b in range(width)]
            for i in range(n_obs)]
    coords = cld_core.bit_coords(n_obs)
    assert coords.dtype == np.float64
    assert np.array_equal(coords, rows)


def test_joint_sums_to_one(canon_d):
    family, source, _ = canon_d
    assert cld_core.joint_cnxy(family, source).sum() == pytest.approx(1.0)


def test_cld3_round_trip_through_json():
    family, domains = cld_core.random_family(3, variant="CLD3", n_domains=3)
    doc = json.loads(json.dumps(cld_core.family_to_dict(family, domains)))
    _, doms2 = cld_core.family_from_dict(doc)
    assert [d.variant for d in doms2] == ["CLD3"] * 3
    for a, b in zip(domains, doms2):
        for name in ("p_y", "p_c_given_y", "p_n_given_c"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_cld3_joint_keeps_the_label_chain():
    family, domains = cld_core.random_family(3, variant="CLD3", n_domains=3)
    for d in domains:
        p_cy = cld_core.joint_cnxy(family, d).sum(axis=(1, 2))  # [C, Y]
        p_y = p_cy.sum(axis=0)
        assert np.allclose(p_y, d.p_y, rtol=0, atol=1e-15)
        assert np.allclose(p_cy.T / p_y[:, None], d.p_c_given_y,
                           rtol=0, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_families_are_well_formed(seed):
    family, domains = cld_core.random_family(seed)
    s = family.spaces
    assert s.n_obs == s.n_core * s.n_noncore
    # channel is a bijection: exactly one unit cell per (c, n)
    flat = family.p_x_given_cn.reshape(-1, s.n_obs)
    assert np.array_equal(np.sort(flat.argmax(axis=1)), np.arange(s.n_obs))
    assert np.allclose(flat.sum(axis=1), 1.0)
    report = cld_core.check_family_coherence(domains, "CLD2")
    assert report["pass"]


@pytest.mark.parametrize("field, value", [("n_core", 2.9), ("n_obs", 4.5),
                                          ("n_classes", True),
                                          ("n_noncore", "2")])
def test_family_from_dict_refuses_a_non_integral_cardinality(canon_d, field,
                                                             value):
    family, source, target = canon_d
    doc = cld_core.family_to_dict(family, [source, target])
    doc["spaces"][field] = value
    with pytest.raises(ShapeMismatch, match=f"spaces.{field}"):
        cld_core.family_from_dict(doc)


def test_family_from_dict_reads_an_integral_float(canon_d):
    family, source, target = canon_d
    doc = cld_core.family_to_dict(family, [source, target])
    doc["spaces"]["n_core"] = 2.0
    fam2, _ = cld_core.family_from_dict(doc)
    assert fam2.spaces == family.spaces
    assert type(fam2.spaces.n_core) is int
