import pytest

from itertools import combinations, product
from math import prod

from loclab.fincat import CategoryError, FinCat, iso_classes
from loclab.lifting import llp_class, rlp_class
from loclab.modelstruct import (enumerate_localizations, localization_from_reflector,
                                verify_model_axioms)
from loclab.reflect import (certify_reflector, enumerate_replete_reflective,
                            find_reflector, inverted_class, is_replete,
                            non_universal_target, reflector_from_unit, universal_row)
from oracles import (closure_operator_fixed_sets, non_universal_target_by_scan,
                     reflective_by_hom_bijection, universal_arrows_by_scan)


def iso_pair():
    return FinCat.from_json_dict(
        {"name": "iso_pair", "objects": ["u", "v"],
         "morphisms": [{"id": "f", "src": "u", "dst": "v"},
                       {"id": "g", "src": "v", "dst": "u"}],
         "compose": [{"g": "g", "f": "f", "gf": "id_u"},
                     {"g": "f", "f": "g", "gf": "id_v"}]})


class TestReplete:
    def test_all_objects_replete(self, chain3):
        assert is_replete(chain3, set(chain3.objects))

    def test_poset_subsets_all_replete(self, chain3):
        from itertools import combinations
        for k in range(len(chain3.objects) + 1):
            for combo in combinations(chain3.objects, k):
                assert is_replete(chain3, set(combo))

    def test_skeleton_not_replete(self):
        assert not is_replete(iso_pair(), {"u"})
        assert is_replete(iso_pair(), {"u", "v"})


class TestFindReflector:
    def test_chain2_top(self, chain2):
        s = find_reflector(chain2, {"1"})
        assert s.found
        assert s.reflector.functor.obj_map == {"0": "1", "1": "1"}
        assert s.reflector.unit_at("0") == "m_0_1"

    def test_chain2_bottom_not_reflective(self, chain2):
        s = find_reflector(chain2, {"0"})
        assert not s.found and s.witness == "1"

    def test_whole_category_identity_reflector(self, chain3):
        s = find_reflector(chain3, set(chain3.objects))
        assert s.found
        assert s.reflector.functor.obj_map == {x: x for x in chain3.objects}

    def test_empty_subcategory(self, chain2):
        s = find_reflector(chain2, set())
        assert not s.found and s.witness == "0"


class TestUniversalRows:
    def test_rows_against_scan(self, row_categories):
        for name, cat in row_categories:
            for u in cat.morphisms:
                want = {b for b in cat.objects
                        if non_universal_target_by_scan(cat, (b,), u) is None}
                assert universal_row(cat, u) == want, (name, u)
                assert non_universal_target(cat, cat.objects, u) == \
                    non_universal_target_by_scan(cat, cat.objects, u), (name, u)

    def test_find_reflector_on_every_union_against_scan(self, row_categories):
        for name, cat in row_categories:
            classes = iso_classes(cat)
            for k in range(len(classes) + 1):
                for combo in combinations(classes, k):
                    members = frozenset(x for cls in combo for x in cls)
                    search = find_reflector(cat, members)
                    got = search.reflector.unit.components if search.found else search.witness
                    assert got == universal_arrows_by_scan(cat, members), \
                        (name, sorted(members))

    def test_units_into_every_subset_against_scan(self, row_categories):
        # Every choice of unit into every subset, where there are at most 64:
        # reflector_from_unit raises exactly when some map's filler count is not
        # 1, and the universal-arrow violations name the scan's first target.
        seen = set()
        for name, cat in row_categories:
            for k in range(1, len(cat.objects) + 1):
                for members in combinations(cat.objects, k):
                    choices = [[u for a in members for u in cat.hom(x, a)] for x in cat.objects]
                    if not all(choices) or prod(map(len, choices)) > 64:
                        continue
                    for units in product(*choices):
                        unit = dict(zip(cat.objects, units))
                        unique = all(sum(cat.comp(w, unit[cat.src[f]]) ==
                                         cat.comp(unit[cat.dst[f]], f)
                                         for w in cat.hom(cat.dst[unit[cat.src[f]]],
                                                          cat.dst[unit[cat.dst[f]]])) == 1
                                     for f in cat.morphisms)
                        if not unique:
                            with pytest.raises(CategoryError):
                                reflector_from_unit(cat, members, unit)
                            continue
                        refl = reflector_from_unit(cat, members, unit)
                        got = [v.witness for v in certify_reflector(refl)
                               if v.law == "universal-arrow"]
                        want = [(x, b) for x in cat.objects for b in [
                            non_universal_target_by_scan(cat, members, unit[x])]
                            if b is not None]
                        assert got == want, (name, unit)
                        seen.add(bool(want))
        assert seen == {False, True}


class TestEnumeration:
    def test_chain2(self, chain2):
        members = [tuple(sorted(r.members)) for r in enumerate_replete_reflective(chain2)]
        assert members == [("1",), ("0", "1")]

    def test_chain3(self, chain3):
        refls = enumerate_replete_reflective(chain3)
        assert len(refls) == 4
        assert all("2" in r.members for r in refls)

    def test_trivial_monoid(self, cats):
        assert len(enumerate_replete_reflective(cats["terminal"])) == 1

    def test_one_object_monoids(self, cats):
        assert len(enumerate_replete_reflective(cats["monoid_z2"])) == 1
        assert len(enumerate_replete_reflective(cats["monoid_idem"])) == 1

    def test_counts_match_closure_operator_oracle(self, lattices):
        expected = {"chain2": 2, "chain3": 4, "chain4": 8, "chain5": 16, "chain6": 32,
                    "diamond": 7, "pentagon": 13}
        for name, cat in lattices.items():
            got = {frozenset(r.members) for r in enumerate_replete_reflective(cat)}
            assert got == closure_operator_fixed_sets(cat), name
            assert len(got) == expected[name], name

    def test_agrees_with_hom_bijection_oracle(self, cats):
        from itertools import combinations
        for name in ("chain3", "diamond", "monoid_z2", "parallel_pair", "pointed2"):
            cat = cats[name]
            enumerated = {frozenset(r.members) for r in enumerate_replete_reflective(cat)}
            for k in range(1, len(cat.objects) + 1):
                for combo in combinations(cat.objects, k):
                    members = frozenset(combo)
                    if not is_replete(cat, members):
                        continue
                    assert (members in enumerated) == \
                        reflective_by_hom_bijection(cat, members), (name, sorted(members))

    def test_all_enumerated_certify(self, lattices, cats):
        for name in list(lattices) + ["finset2", "pointed2"]:
            for r in enumerate_replete_reflective(cats[name]):
                assert not certify_reflector(r), (name, sorted(r.members))


class TestReflectorInvariants:
    def test_unit_iso_on_members_and_idempotency(self, chain3, diamond):
        for cat in (chain3, diamond):
            for r in enumerate_replete_reflective(cat):
                for a in sorted(r.members):
                    assert cat.is_iso(r.unit_at(a))
                for x in cat.objects:
                    # reflector-level idempotency
                    assert cat.is_iso(r.on_mor(r.unit_at(x)))
                    assert cat.is_iso(r.unit_at(r.on_obj(x)))


class TestInvertedClass:
    def test_identity_reflector_inverts_only_isos(self, chain3):
        r = find_reflector(chain3, set(chain3.objects)).reflector
        assert inverted_class(r).members == chain3.isos()

    def test_chain2_top_inverts_everything(self, chain2):
        r = find_reflector(chain2, {"1"}).reflector
        assert inverted_class(r).members == set(chain2.morphisms)

    def test_chain3_top_inverts_everything(self, chain3):
        r = find_reflector(chain3, {"2"}).reflector
        assert inverted_class(r).members == set(chain3.morphisms)

    def test_two_of_three_and_isos(self, diamond):
        for r in enumerate_replete_reflective(diamond):
            w = inverted_class(r)
            assert diamond.isos() <= w.members
            for g in diamond.morphisms:
                for f in diamond.morphisms:
                    if diamond.src[g] != diamond.dst[f]:
                        continue
                    trio = (f in w, g in w, diamond.comp(g, f) in w)
                    assert sum(trio) != 2, (sorted(r.members), f, g)


def we_fib_factorizations(refl, f):
    """Every (e, m) with m . e == f, e inverted by the reflector and m in its
    right lifting class (the localization's weak equivalences and fibrations)."""
    cat, ms = refl.cat, localization_from_reflector(refl)
    return [(e, m) for z in cat.objects for e in cat.hom(cat.src[f], z) if e in ms.we
            for m in cat.hom(z, cat.dst[f]) if m in ms.fib and cat.comp(m, e) == f]


class TestChkFactorization:
    """The (we, fib) pair of a localization is the reflective factorization
    system of its reflector."""

    def test_identity_reflector_factors_trivially(self, chain3):
        r = find_reflector(chain3, set(chain3.objects)).reflector
        assert we_fib_factorizations(r, "m_0_2") == [("id_0", "m_0_2")]

    def test_frozen_example_on_chain3(self, chain3):
        r = find_reflector(chain3, {"1", "2"}).reflector
        assert we_fib_factorizations(r, "m_0_2") == [("m_0_1", "m_1_2")]

    def test_inverted_map_factors_as_itself(self, chain2):
        r = find_reflector(chain2, {"1"}).reflector
        assert we_fib_factorizations(r, "m_0_1") == [("m_0_1", "id_1")]
        assert "m_0_1" in inverted_class(r).members

    def test_systems_verify_on_all_lattice_reflectors(self, lattices):
        for name, cat in lattices.items():
            for ms in enumerate_localizations(cat).structures:
                label = (name, sorted(ms.reflector.members))
                assert llp_class(cat, ms.fib).members == ms.we.members, label
                assert rlp_class(cat, ms.we).members == ms.fib.members, label
                assert verify_model_axioms(ms).ok, label

    def test_rejects_non_fwc_base(self, cats):
        fs2 = cats["finset2"]
        r = find_reflector(fs2, set(fs2.objects)).reflector
        with pytest.raises(CategoryError):
            localization_from_reflector(r)

    def test_factorizations_unique_up_to_middle_iso(self, chain3, diamond):
        # enumerate every valid (inverted, rlp) factorization of every morphism
        # and check all middle objects are pairwise isomorphic
        for cat in (chain3, diamond):
            for r in enumerate_replete_reflective(cat):
                e_class = inverted_class(r)
                m_class = rlp_class(cat, e_class)
                for f in cat.morphisms:
                    middles = {
                        cat.dst[e]
                        for z in cat.objects
                        for e in cat.hom(cat.src[f], z) if e in e_class
                        for m in cat.hom(z, cat.dst[f])
                        if m in m_class and cat.comp(m, e) == f
                    }
                    for a in middles:
                        for b in middles:
                            assert any(cat.is_iso(h) for h in cat.hom(a, b)), \
                                (sorted(r.members), f, a, b)
