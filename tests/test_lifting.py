import random

import pytest
from hypothesis import given, settings, strategies as st

from loclab.fincat import opposite, pullback
from loclab.lifting import (MorphismClass, commuting_squares, is_finitely_well_complete,
                            is_retract, lifts_against, llp_class,
                            retract_closure_counterexample, rlp_class)
from oracles import epimorphisms, monomorphisms, retract_witness_by_scan, rlp_members_oracle


def fillers(cat, g, f, top, bottom):
    """Diagonals h of the square: the extensions of top along g with f . h == bottom."""
    return tuple(h for h in cat.extensions(g, top) if cat.comp(f, h) == bottom)


class TestHasLift:
    def test_iso_on_the_left_lifts(self, chain3):
        # identity (an iso) against anything: filler top . g^{-1}
        assert fillers(chain3, "id_0", "m_1_2", "m_0_1", "m_0_2") == ("m_0_1",)
        assert lifts_against(chain3, "id_0", "m_1_2")

    def test_poset_single_filler(self, chain3):
        assert fillers(chain3, "m_0_1", "id_2", "m_0_2", "m_1_2") == ("m_1_2",)
        assert lifts_against(chain3, "m_0_1", "id_2")

    def test_empty_hom_no_filler(self, chain2):
        assert fillers(chain2, "m_0_1", "m_0_1", "id_0", "id_1") == ()
        assert not lifts_against(chain2, "m_0_1", "m_0_1")

    def test_noncommuting_square_rejected(self, cats):
        fs = cats["finset2"]
        assert fs.comp("f12_1", "id_1") != fs.comp("id_2", "f12_0")
        assert ("id_1", "id_2") not in set(commuting_squares(fs, "f12_0", "f12_1"))


class TestLiftingClasses:
    def test_rlp_of_everything_is_isos(self, lattices):
        for name, cat in lattices.items():
            assert rlp_class(cat, MorphismClass.all_morphisms(cat)).members == cat.isos(), name

    def test_rlp_of_isos_is_everything(self, lattices):
        for name, cat in lattices.items():
            isos = MorphismClass(cat, cat.isos())
            assert rlp_class(cat, isos).members == set(cat.morphisms), name

    def test_against_independent_re_enumeration(self, chain3, diamond, cats):
        for cat in (chain3, diamond, cats["finset2"]):
            e = MorphismClass.of(cat, [m for m in cat.morphisms
                                       if m not in cat.identity.values()][:2])
            assert rlp_class(cat, e).members == rlp_members_oracle(cat, e.members)

    def test_chain3_generator_class_frozen(self, chain3):
        got = rlp_class(chain3, MorphismClass.of(chain3, ["m_0_1"]))
        assert got.sorted_members() == ("id_0", "id_1", "id_2", "m_1_2")

    def test_contains_stage(self, chain3):
        e = MorphismClass.of(chain3, ["m_0_1"])
        down_up = llp_class(chain3, rlp_class(chain3, e))
        assert e.members <= down_up.members


def morphism_subsets(cat):
    mors = sorted(cat.morphisms)
    return st.sets(st.sampled_from(mors)).map(lambda s: MorphismClass.of(cat, s))


class TestLiftingProperties:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_antitone(self, data, diamond):
        small = data.draw(morphism_subsets(diamond))
        extra = data.draw(morphism_subsets(diamond))
        big = MorphismClass(diamond, small.members | extra.members)
        assert rlp_class(diamond, big).members <= rlp_class(diamond, small).members

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_galois_property(self, data, chain3):
        e = data.draw(morphism_subsets(chain3))
        r = rlp_class(chain3, e)
        assert rlp_class(chain3, llp_class(chain3, r)).members == r.members

    def test_rlp_closed_under_composition(self, lattices):
        for name, cat in lattices.items():
            if name in ("chain5", "chain6"):
                continue
            for gen in cat.morphisms:
                cls = rlp_class(cat, MorphismClass.of(cat, [gen]))
                for f in cls.sorted_members():
                    for g in cls.sorted_members():
                        if cat.src[g] == cat.dst[f]:
                            assert cat.comp(g, f) in cls, (name, gen, g, f)

    def test_rlp_closed_under_retracts(self, chain3, diamond):
        for cat in (chain3, diamond):
            for gen in cat.morphisms:
                cls = rlp_class(cat, MorphismClass.of(cat, [gen]))
                assert retract_closure_counterexample(cat, cls) is None

    def test_rlp_closed_under_existing_pullbacks(self, diamond):
        cat = diamond
        for gen in cat.morphisms:
            cls = rlp_class(cat, MorphismClass.of(cat, [gen]))
            for f in cls.sorted_members():
                for h in cat.morphisms:
                    if cat.dst[h] != cat.dst[f]:
                        continue
                    pb = pullback(cat, f, h)
                    if pb.found:
                        assert pb.legs[1] in cls, (gen, f, h)


class TestStrongMonos:
    def test_identities_are_strong(self, chain3):
        sm = rlp_class(chain3, epimorphisms(chain3))
        assert all(chain3.id_of(x) in sm for x in chain3.objects)

    def test_poset_strong_monos_are_isos(self, lattices):
        # in a poset every morphism is epi, so rlp(epis) = rlp(all) = isos
        for name, cat in lattices.items():
            assert epimorphisms(cat).members == set(cat.morphisms), name
            assert rlp_class(cat, epimorphisms(cat)).members == cat.isos(), name

    def test_split_mono_is_strong(self, cats):
        fs = cats["finset2"]
        # f12_0 has retraction f21_00
        assert fs.comp("f21_00", "f12_0") == "id_1"
        assert "f12_0" in rlp_class(fs, epimorphisms(fs))

    def test_monos_in_finset(self, cats):
        fs = cats["finset2"]
        monos = monomorphisms(fs).members
        assert "f12_0" in monos and "f21_00" not in monos


class TestRetracts:
    def test_every_morphism_retract_of_itself(self, chain3):
        for f in chain3.morphisms:
            assert is_retract(chain3, f, f)

    def test_retract_of_identity_forces_identity_in_poset(self, chain3):
        ids = {chain3.id_of(x) for x in chain3.objects}
        for f in chain3.morphisms:
            for i in ids:
                if is_retract(chain3, f, i):
                    assert f in ids


def sample_classes(cat):
    """Classes over one category: the extremes, the non-identities and seeded random
    subsets of several densities.  They share the category, so its rows are reused."""
    rng = random.Random(cat.name)
    mors = list(cat.morphisms)
    ids = set(cat.identity.values())
    classes = [mors, [], sorted(cat.isos()), [m for m in mors if m not in ids]]
    classes += [[m for m in mors if rng.random() < density]
                for density in (0.2, 0.4, 0.6, 0.8) for _ in range(2)]
    return [MorphismClass.of(cat, members) for members in classes]


class TestRows:
    """`rlp_class`, `llp_class` and `retract_closure_counterexample` read rows that
    are decided once per category; each is checked against a scan that decides
    every (g, f) afresh."""

    def test_rlp_and_llp_against_oracles(self, row_categories):
        for name, cat in row_categories:
            # g lifts against f in C exactly when f^op lifts against g^op in C^op
            op = opposite(cat)
            for cls in sample_classes(cat):
                assert rlp_class(cat, cls).members == rlp_members_oracle(cat, cls.members), name
                assert llp_class(cat, cls).members == rlp_members_oracle(op, cls.members), name
                assert llp_class(cat, cls).members == {
                    g for g in cat.morphisms
                    if all(lifts_against(cat, g, f) for f in cls.members)}, name

    def test_retract_witness_against_scan(self, row_categories):
        for name, cat in row_categories:
            for cls in sample_classes(cat):
                assert retract_closure_counterexample(cat, cls) == \
                    retract_witness_by_scan(cat, cls), (name, cls.members)

    @pytest.mark.parametrize("members, witness", [
        # the first member f01_ and the first outside map f02_ are passed over
        (["f01_", "f22_00", "f22_11"], ("f12_0", "f22_00")),
        (["f01_", "f12_0", "id_2"], ("f12_1", "f12_0")),
    ])
    def test_least_witness_not_first_member(self, cats, members, witness):
        # a retract in a poset is the map itself, so the witnesses live in finset2
        cat = cats["finset2"]
        cls = MorphismClass.of(cat, members)
        assert retract_closure_counterexample(cat, cls) == witness
        assert retract_witness_by_scan(cat, cls) == witness


class TestFwc:
    def test_lattices(self, lattices):
        for name, cat in lattices.items():
            rep = is_finitely_well_complete(cat)
            assert rep.ok, name
            assert "iterated binary pullbacks" in rep.note

    def test_discrete_two_fails(self):
        from loclab.fincat import FinCat
        cat = FinCat.from_json_dict({"objects": ["a", "b"], "morphisms": [], "compose": []})
        rep = is_finitely_well_complete(cat)
        assert not rep.ok and rep.missing == ("terminal",)

    def test_finset2_fails_at_products(self, cats):
        rep = is_finitely_well_complete(cats["finset2"])
        assert not rep.ok and rep.missing[0] == "binary-product"


class TestFactorizationSystems:
    """(isos, all) and (all, isos) are orthogonal pairs on chain2; (all, all) is not."""

    def test_isos_then_all(self, chain2):
        everything = set(chain2.morphisms)
        assert rlp_class(chain2, MorphismClass(chain2, chain2.isos())).members == everything
        assert llp_class(chain2, MorphismClass.all_morphisms(chain2)).members == chain2.isos()

    def test_all_then_isos(self, chain2):
        everything = set(chain2.morphisms)
        assert rlp_class(chain2, MorphismClass.all_morphisms(chain2)).members == chain2.isos()
        assert llp_class(chain2, MorphismClass(chain2, chain2.isos())).members == everything

    def test_all_all_fails_orthogonality(self, chain2):
        rlp_all = rlp_class(chain2, MorphismClass.all_morphisms(chain2))
        assert sorted(set(chain2.morphisms) - rlp_all.members)[0] == "m_0_1"

    def test_factorizations_unique_up_to_middle_iso(self, chain3):
        # enumerate all (iso, any) factorizations of each morphism and check the
        # middle objects are pairwise isomorphic
        isos = chain3.isos()
        for f in chain3.morphisms:
            middles = set()
            x, y = chain3.src[f], chain3.dst[f]
            for z in chain3.objects:
                for e in chain3.hom(x, z):
                    if e not in isos:
                        continue
                    for m in chain3.hom(z, y):
                        if chain3.comp(m, e) == f:
                            middles.add(z)
            reps = sorted(middles)
            for a in reps:
                for b in reps:
                    assert any(chain3.is_iso(h) for h in chain3.hom(a, b)), (f, a, b)
