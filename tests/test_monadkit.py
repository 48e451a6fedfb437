import pytest

from loclab import corpus
from loclab.fincat import (CategoryError, FinCat, FunctorData, NatTransData,
                           compose_functors, identity_functor)
from loclab.monadkit import (MonadData, is_idempotent, is_monad_morphism,
                             monad_from_reflector, monad_morphism_exists,
                             naturally_equivalent, reflector_from_monad, verify_monad)
from loclab.modelstruct import unit_extension_masks
from loclab.reflect import enumerate_replete_reflective, find_reflector
from oracles import monad_morphism_by_full_scan


def identity_monad(cat):
    ident = identity_functor(cat)
    components = {x: cat.id_of(x) for x in cat.objects}
    return MonadData(ident, NatTransData(ident, ident, components),
                     NatTransData(compose_functors(ident, ident), ident, components))


def monad_from_file(data):
    cat = FinCat.from_json_dict(data["category"])
    functor = FunctorData(cat, cat, dict(data["T_obj"]), dict(data["T_mor"]))
    return MonadData(
        functor,
        NatTransData(identity_functor(cat), functor, dict(data["unit"])),
        NatTransData(compose_functors(functor, functor), functor, dict(data["mult"])))


class TestVerifyMonad:
    def test_identity_monad(self, chain3):
        m = identity_monad(chain3)
        assert verify_monad(m).ok
        assert is_idempotent(m)

    def test_identity_reflector_monad(self, chain3):
        r = find_reflector(chain3, set(chain3.objects)).reflector
        assert verify_monad(monad_from_reflector(r)).ok

    def test_mutated_mult_fixture_rejected_with_witness(self):
        m = monad_from_file(corpus.load_json("fixtures/bad/monad_mutated_mult"))
        rep = verify_monad(m)
        assert not rep.ok
        assert rep.first is not None and rep.first.witness
        laws = {v.law for v in rep.violations}
        assert "monad-associativity" in laws
        assert any(v.law == "monad-associativity" and v.witness == ("m",)
                   for v in rep.violations)

    def test_shape_mismatch_reported(self, chain2):
        const_top = FunctorData(chain2, chain2, {"0": "1", "1": "1"},
                                {m: "id_1" for m in chain2.morphisms})
        bad = MonadData(const_top,
                        NatTransData(const_top, const_top, {"0": "id_1", "1": "id_1"}),
                        NatTransData(compose_functors(const_top, const_top), const_top,
                                     {"0": "id_1", "1": "id_1"}))
        rep = verify_monad(bad)   # unit claims source T, not the identity functor
        assert not rep.ok and rep.first.law == "monad-shape"


class TestIdempotency:
    def test_reflector_monads_idempotent_across_corpus(self, lattices, cats):
        for name in list(lattices) + ["monoid_z2", "monoid_idem", "pointed2"]:
            for r in enumerate_replete_reflective(cats[name]):
                m = monad_from_reflector(r)
                assert verify_monad(m).ok, (name, sorted(r.members))
                assert is_idempotent(m), (name, sorted(r.members))

    def test_synthetic_non_idempotent_data(self, cats):
        # valid shapes, not a lawful monad: unit at w is the non-invertible
        # idempotent, so T(eta_w) fails the iso check directly
        cat = cats["pointed2"]
        ident = identity_functor(cat)
        eta = NatTransData(ident, ident, {"z": "id_z", "w": "wzw"})
        mu = NatTransData(compose_functors(ident, ident), ident,
                          {"z": "id_z", "w": "id_w"})
        synthetic = MonadData(ident, eta, mu)
        assert not is_idempotent(synthetic)
        assert not verify_monad(synthetic).ok


class TestDictionary:
    def test_frozen_chain3_reflector_monad(self, chain3):
        r = find_reflector(chain3, {"1", "2"}).reflector
        m = monad_from_reflector(r)
        assert m.functor.obj_map == {"0": "1", "1": "1", "2": "2"}

    def test_constant_at_top_monad(self, chain2):
        r = find_reflector(chain2, {"1"}).reflector
        m = monad_from_reflector(r)
        assert m.functor.obj_map == {"0": "1", "1": "1"}
        assert verify_monad(m).ok and is_idempotent(m)

    def test_identity_monad_round_trip(self, chain3):
        r = reflector_from_monad(identity_monad(chain3))
        assert r.members == set(chain3.objects)

    def test_round_trip_natural_equivalence_everywhere(self, lattices):
        for name, cat in lattices.items():
            if name in ("chain5", "chain6"):
                continue
            for r in enumerate_replete_reflective(cat):
                m = monad_from_reflector(r)
                back = reflector_from_monad(m)
                assert back.members == r.members, name
                assert naturally_equivalent(monad_from_reflector(back), m), name

    def test_essential_image_matches_members(self, diamond):
        for r in enumerate_replete_reflective(diamond):
            m = monad_from_reflector(r)
            image = {m.functor.obj_map[x] for x in diamond.objects}
            assert image == set(r.members)

    def test_non_idempotent_rejected(self, cats):
        cat = cats["pointed2"]
        ident = identity_functor(cat)
        eta = NatTransData(ident, ident, {"z": "id_z", "w": "wzw"})
        mu = NatTransData(compose_functors(ident, ident), ident,
                          {"z": "id_z", "w": "id_w"})
        with pytest.raises(CategoryError):
            reflector_from_monad(MonadData(ident, eta, mu))


class TestMonadMorphisms:
    def test_identity_witness(self, chain3):
        m = identity_monad(chain3)
        sigma = monad_morphism_exists(m, m)
        assert sigma is not None
        assert sigma.components == {x: chain3.id_of(x) for x in chain3.objects}

    def test_unit_is_morphism_from_identity_monad(self, chain3):
        for r in enumerate_replete_reflective(chain3):
            m = monad_from_reflector(r)
            assert monad_morphism_exists(identity_monad(chain3), m) is not None

    def test_frozen_order_example(self, chain3):
        t_top = monad_from_reflector(find_reflector(chain3, {"2"}).reflector)
        t_12 = monad_from_reflector(find_reflector(chain3, {"1", "2"}).reflector)
        assert monad_morphism_exists(t_12, t_top) is not None
        assert monad_morphism_exists(t_top, t_12) is None

    def test_order_isomorphism_with_inclusion(self, chain3, diamond):
        for cat in (chain3, diamond):
            refls = enumerate_replete_reflective(cat)
            monads = [monad_from_reflector(r) for r in refls]
            for i, ri in enumerate(refls):
                for j, rj in enumerate(refls):
                    incl = ri.members <= rj.members
                    exists = monad_morphism_exists(monads[j], monads[i]) is not None
                    assert incl == exists, (sorted(ri.members), sorted(rj.members))

    def test_is_monad_morphism_checker(self, chain2):
        m = identity_monad(chain2)
        assert is_monad_morphism(m, m, {x: chain2.id_of(x) for x in chain2.objects})
        assert not is_monad_morphism(m, m, {"0": "m_0_1", "1": "id_1"})

    def test_natural_equivalence_is_equivalence_relation(self, diamond):
        monads = [monad_from_reflector(r)
                  for r in enumerate_replete_reflective(diamond)]
        for a in monads:
            assert naturally_equivalent(a, a)
        for a in monads:
            for b in monads:
                assert naturally_equivalent(a, b) == naturally_equivalent(b, a)
        for a in monads:
            for b in monads:
                for c in monads:
                    if naturally_equivalent(a, b) and naturally_equivalent(b, c):
                        assert naturally_equivalent(a, c)

    def test_different_bases_rejected(self, chain2, chain3):
        with pytest.raises(CategoryError):
            monad_morphism_exists(identity_monad(chain2), identity_monad(chain3))


def components(sigma):
    return None if sigma is None else sigma.components


class TestMonadSearchAgainstFullScan:
    """The search that decides each naturality square once per path finds the
    same first witness as a search that rescans every square at every step."""

    def test_every_ordered_pair_of_reflector_monads(self, certified_families):
        for name, (loc, coloc) in certified_families.items():
            for family in (loc, coloc.opposite_family):
                monads = [monad_from_reflector(r) for r in family.reflectors]
                for s in monads:
                    for t in monads:
                        assert components(monad_morphism_exists(s, t)) == \
                            monad_morphism_by_full_scan(s, t), name

    @pytest.mark.parametrize("name", ["pentagon", "diamond", "B3"])
    def test_first_witness_at_generator_squares(self, cats, bench_lattices, name):
        # the search decides squares only at generators and re-checks each
        # leaf; the oracle decides every square at every step
        cat = {**cats, **bench_lattices}[name]
        monads = [monad_from_reflector(r) for r in enumerate_replete_reflective(cat)]
        for s in monads:
            for t in monads:
                for isos_only in (False, True):
                    assert components(monad_morphism_exists(s, t, isos_only)) == \
                        monad_morphism_by_full_scan(s, t, isos_only), name

    def test_unit_extension_masks_match_the_search(self, certified_families):
        # A lattice is thin, so every unit-law candidate is natural and a
        # monad morphism: the mask decides the search, not just bounds it.
        for name, (loc, coloc) in certified_families.items():
            for family in (loc, coloc.opposite_family):
                monads = [monad_from_reflector(r) for r in family.reflectors]
                masks = unit_extension_masks(family.base, monads)
                for i, t in enumerate(monads):
                    for j, s in enumerate(monads):
                        assert (masks[i] >> j & 1 == 1) == \
                            (monad_morphism_exists(s, t) is not None), (name, i, j)

    def test_unit_extension_masks_admit_every_morphism(self, cats):
        for name, cat in cats.items():
            monads = [monad_from_reflector(r) for r in enumerate_replete_reflective(cat)]
            masks = unit_extension_masks(cat, monads)
            for i, t in enumerate(monads):
                for j, s in enumerate(monads):
                    if monad_morphism_exists(s, t) is not None:
                        assert masks[i] >> j & 1, (name, i, j)

    def test_backtracking_on_pointed2(self, cats):
        # The identity functor on pointed2 with unit and multiplication at w
        # either id_w or the zero map wzw: not all are monads, but the search
        # only reads the data.  wzw . wzw == wzw . id_w, so a zero unit on both
        # sides leaves two unit-law candidates at w.
        cat = cats["pointed2"]
        ident = identity_functor(cat)

        def data(eta_w, mu_w):
            return MonadData(ident, NatTransData(ident, ident, {"w": eta_w, "z": "id_z"}),
                             NatTransData(compose_functors(ident, ident), ident,
                                          {"w": mu_w, "z": "id_z"}))

        monads = [data(eta, mu) for eta in ("id_w", "wzw") for mu in ("id_w", "wzw")]
        for s in monads:
            for t in monads:
                for isos_only in (False, True):
                    assert components(monad_morphism_exists(s, t, isos_only)) == \
                        monad_morphism_by_full_scan(s, t, isos_only)
        assert cat.extensions("wzw", "wzw") == ("id_w", "wzw")
        # id_w fails the multiplication law at the leaf, so the search backtracks
        sigma = monad_morphism_exists(data("wzw", "id_w"), data("wzw", "wzw"))
        assert components(sigma) == {"w": "wzw", "z": "id_z"}
