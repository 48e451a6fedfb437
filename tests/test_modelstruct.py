import pytest
from hypothesis import given, settings, strategies as st

from loclab import corpus
from loclab.fincat import CategoryError, FinCat, opposite
from loclab.lifting import MorphismClass
from loclab.modelstruct import (ModelStructure, bijection_suite,
                                colocalizations_via_op, enumerate_localizations,
                                fibrant_replacement_functor,
                                homotopy_category, homotopy_relations,
                                localization_from_reflector,
                                maps_between_fibrants_are_fibrations,
                                verify_model_axioms)
from loclab.reflect import certify_reflector, find_reflector
from oracles import (axiom_witnesses_by_search, closure_operator_fixed_sets,
                     coreflective_members_direct, hasse_edges_by_triples,
                     homotopy_by_search, non_universal_target_by_scan)


def model_from_fixture(name):
    data = corpus.load_json(name)
    cat = FinCat.from_json_dict(data["category"])
    return ModelStructure(cat, MorphismClass.of(cat, data["cof"]),
                          MorphismClass.of(cat, data["we"]),
                          MorphismClass.of(cat, data["fib"]), "file")


def we_leq(family, i: int, j: int) -> bool:
    """Structure i lies below structure j: its weak equivalences are among j's."""
    return family.structures[i].we.members <= family.structures[j].we.members


class TestDiscrete:
    def test_chain2_discrete(self, chain2, discrete):
        ms = discrete(chain2)
        assert ms.we.members == chain2.isos()
        assert len(ms.we.members) == 2
        assert verify_model_axioms(ms).ok

    def test_diamond_discrete(self, diamond, discrete):
        assert verify_model_axioms(discrete(diamond)).ok

    def test_rejects_non_bicomplete(self, discrete):
        cat = FinCat.from_json_dict({"objects": ["a", "b"], "morphisms": [], "compose": []})
        with pytest.raises(CategoryError, match="hypothesis failure"):
            discrete(cat)

    def test_all_objects_fibrant(self, chain3, discrete):
        assert discrete(chain3).fibrants == chain3.objects


class TestLocalization:
    def test_identity_reflector_gives_discrete(self, cats):
        # The discrete structure is the localization at the whole category:
        # on every bundled category and its opposite that meets the hypotheses,
        # cof = fib = all maps and we = the isomorphisms; the rest are refused.
        refused = []
        for name, cat in sorted(cats.items()):
            for c in (cat, opposite(cat)):
                search = find_reflector(c, c.objects)
                assert search.found, name
                try:
                    ms = localization_from_reflector(search.reflector)
                except CategoryError as exc:
                    assert str(exc).startswith("hypothesis failure"), (name, exc)
                    refused.append(c.name)
                    continue
                everything = frozenset(c.morphisms)
                assert (ms.cof.members, ms.we.members, ms.fib.members) == \
                    (everything, c.isos(), everything), c.name
        assert len(refused) == 10, refused

    def test_chain2_top_all_we_fib_isos(self, chain2):
        r = find_reflector(chain2, {"1"}).reflector
        ms = localization_from_reflector(r)
        assert ms.we.members == set(chain2.morphisms)
        assert ms.fib.members == chain2.isos()
        assert verify_model_axioms(ms).ok

    def test_chain3_top(self, chain3):
        r = find_reflector(chain3, {"2"}).reflector
        ms = localization_from_reflector(r)
        assert ms.we.members == set(chain3.morphisms)
        assert verify_model_axioms(ms).ok

    def test_hypothesis_failure_reported(self, cats):
        r = find_reflector(cats["finset2"], set(cats["finset2"].objects)).reflector
        with pytest.raises(CategoryError):
            localization_from_reflector(r)


class TestAxiomVerifier:
    def test_dropped_fibration_fails_at_lifting(self):
        ms = model_from_fixture("fixtures/bad/model_dropped_fib")
        rep = verify_model_axioms(ms)
        assert not rep.ok
        assert rep.first_failure == ("acyclic-cof-equals-llp-fib", ("m_0_1",))

    def test_discrete_like_structure_on_finset2_passes(self, cats):
        # the class axioms do not require bicompleteness; FinSet<=2 with
        # cof = fib = all, we = isos satisfies all six families
        fs = cats["finset2"]
        everything = MorphismClass.all_morphisms(fs)
        ms = ModelStructure(fs, everything, MorphismClass(fs, fs.isos()), everything, "file")
        assert verify_model_axioms(ms).ok


def finset2_structures(cats):
    """Two non-thin structures with cof = fib = all maps on FinSet<=2: we = isos,
    and a we class that holds f22_00 but not its retract f12_0."""
    fs = cats["finset2"]
    everything = MorphismClass.all_morphisms(fs)
    return [ModelStructure(fs, everything, MorphismClass(fs, we), everything, "file")
            for we in (fs.isos(), frozenset({"f01_", "f22_00", "f22_11"}))]


class TestCertificatesAgainstSearch:
    """The certificates that filter per-category tables agree, verdict and
    witness, with the hom-set searches they replaced."""

    def test_axiom_witnesses(self, certified_families, cats):
        failing = [model_from_fixture("fixtures/bad/model_dropped_fib"),
                   finset2_structures(cats)[1]]
        structures = [st for families in certified_families.values()
                      for family in families for st in family.structures] + failing
        for ms in structures:
            expected = axiom_witnesses_by_search(ms)
            got = {name: witness for name, _, witness in verify_model_axioms(ms).results
                   if name in expected}
            assert got == expected, (ms.base.name, ms.we.sorted_members())
        assert axiom_witnesses_by_search(failing[1])["retracts-we"] == ("f12_0", "f22_00")

    def test_homotopy_on_pairs_into_fibrants(self, certified_families):
        for families in certified_families.values():
            for ms in (st for family in families for st in family.structures):
                cat = ms.base
                for a in cat.objects:
                    for b in ms.fibrants:
                        for f in cat.hom(a, b):
                            for g in cat.hom(a, b):
                                rep = homotopy_relations(ms, f, g)
                                assert (rep.left, rep.right) == homotopy_by_search(ms, f, g)

    def test_homotopy_on_every_parallel_pair_of_finset2(self, cats):
        structures = finset2_structures(cats)
        op = opposite(cats["finset2"])
        structures += [ModelStructure(op, MorphismClass(op, st.fib.members),
                                      MorphismClass(op, st.we.members),
                                      MorphismClass(op, st.cof.members), "file")
                       for st in structures]
        seen = set()
        for ms in structures:
            cat = ms.base
            for f in cat.morphisms:
                for g in cat.morphisms:
                    if cat.parallel(f, g):
                        rep = homotopy_relations(ms, f, g)
                        assert (rep.left, rep.right) == homotopy_by_search(ms, f, g)
                        seen.add((f == g, rep.left, rep.right))
        # distinct pairs, both verdicts, and a side with no (co)product are all met
        assert {(False, False, None), (True, True, None), (False, None, False)} <= seen


class TestFibrantReplacement:
    def test_already_fibrant_object(self, chain3):
        r = find_reflector(chain3, {"1", "2"}).reflector
        ms = localization_from_reflector(r)
        repl = fibrant_replacement_functor(ms)
        assert repl.functor.obj_map["2"] == "2" and chain3.is_iso(repl.unit.components["2"])

    def test_chain2_replacement(self, chain2):
        ms = localization_from_reflector(find_reflector(chain2, {"1"}).reflector)
        repl = fibrant_replacement_functor(ms)
        assert repl.functor.obj_map["0"] == "1" and repl.unit.components["0"] == "m_0_1"

    def test_functor_unique_fillers_and_adjunction(self, lattices):
        for name, cat in lattices.items():
            if name in ("chain5", "chain6"):
                continue
            for st in enumerate_localizations(cat).structures:
                repl = fibrant_replacement_functor(st)   # raises on a non-unique filler
                assert repl.functor.is_valid() and repl.unit.is_valid(), name
                assert certify_reflector(repl) == [], name

    def test_functoriality_explicitly(self, chain3):
        ms = localization_from_reflector(find_reflector(chain3, {"1", "2"}).reflector)
        repl = fibrant_replacement_functor(ms)
        p = repl.functor
        for g in chain3.morphisms:
            for f in chain3.morphisms:
                if chain3.src[g] == chain3.dst[f]:
                    assert p.mor_map[chain3.comp(g, f)] == \
                        chain3.comp(p.mor_map[g], p.mor_map[f])

    def test_replacement_is_the_localization_reflector(self, row_categories):
        # The monad theorem: fibrant replacement in a localization of the
        # discrete structure is the reflection onto the fibrant objects.
        structures = 0
        for name, cat in row_categories:
            try:
                family = enumerate_localizations(cat)
            except CategoryError:   # outside the hypotheses
                continue
            for st in family.structures:
                refl, view = st.reflector, homotopy_category(st)
                repl = view.replacement
                assert (repl.members, repl.functor.obj_map, repl.functor.mor_map,
                        repl.unit.components) == \
                    (refl.members, refl.functor.obj_map, refl.functor.mor_map,
                     refl.unit.components), (name, sorted(refl.members))
                fibrants = sorted(st.fibrants)
                by_scan = next(((x, b) for x in cat.objects for b in [
                    non_universal_target_by_scan(cat, fibrants, repl.unit.components[x])]
                    if b is not None), ())
                assert view.adjunction_witness == by_scan == (), name
                structures += 1
        assert structures == 690


class TestHomotopyRelations:
    def test_equal_maps_homotopic(self, chain3, discrete):
        ms = discrete(chain3)
        rep = homotopy_relations(ms, "m_0_1", "m_0_1")
        assert rep.left is True and rep.right is True

    def test_poset_pairs_vacuous(self, diamond, discrete):
        ms = discrete(diamond)
        for f in diamond.morphisms:
            rep = homotopy_relations(ms, f, f)
            assert rep.left is True and rep.right is True

    def test_distinct_maps_to_fibrant_not_left_homotopic(self, cats):
        # FinSet<=2 with the discrete-type classes: 1 (+) 1 exists, so the left
        # search is non-vacuous; f != g into the fibrant 2-element set stay
        # non-homotopic because every acyclic fibration is an iso
        fs = cats["finset2"]
        everything = MorphismClass.all_morphisms(fs)
        ms = ModelStructure(fs, everything, MorphismClass(fs, fs.isos()), everything, "file")
        rep = homotopy_relations(ms, "f12_0", "f12_1")
        assert rep.left is False
        assert rep.right is None and "binary product" in rep.right_reason

    def test_distinct_maps_right_homotopy_via_opposite(self, cats):
        op = opposite(cats["finset2"])
        everything = MorphismClass.all_morphisms(op)
        ms = ModelStructure(op, everything, MorphismClass(op, op.isos()), everything, "file")
        rep = homotopy_relations(ms, "f12_0", "f12_1")
        assert rep.right is False
        assert rep.left is None and "binary coproduct" in rep.left_reason

    def test_non_parallel_rejected(self, chain3, discrete):
        with pytest.raises(CategoryError):
            homotopy_relations(discrete(chain3), "m_0_1", "m_1_2")


class TestHomotopyCategory:
    def test_discrete_gives_whole_category(self, chain3, discrete):
        view = homotopy_category(discrete(chain3))
        assert view.objects == chain3.objects
        assert view.equivalence_ok

    def test_chain3_frozen_examples(self, chain3):
        view = homotopy_category(localization_from_reflector(
            find_reflector(chain3, {"1", "2"}).reflector))
        assert view.objects == ("1", "2")
        assert view.equivalence_ok

    def test_chain2_top_terminal(self, chain2):
        view = homotopy_category(localization_from_reflector(
            find_reflector(chain2, {"1"}).reflector))
        assert view.objects == ("1",)
        assert view.equivalence_ok


class TestEnumerateLocalizations:
    def test_chain_counts(self, cats):
        for n in range(2, 7):
            fam = enumerate_localizations(cats[f"chain{n}"])
            assert len(fam.structures) == 2 ** (n - 1), n

    def test_chain3_poset_shape(self, chain3):
        fam = enumerate_localizations(chain3)
        assert fam.subcat_members == (("2",), ("0", "2"), ("1", "2"), ("0", "1", "2"))
        # order-reversal: bigger subcategory, smaller class of weak equivalences
        for i, mi in enumerate(fam.subcat_members):
            for j, mj in enumerate(fam.subcat_members):
                assert (set(mi) <= set(mj)) == we_leq(fam, j, i)

    def test_distinct_structures(self, diamond):
        fam = enumerate_localizations(diamond)
        assert len({st.we.members for st in fam.structures}) == len(fam.structures)

    def test_hasse_edges_match_triple_oracle(self, lattices):
        for name, cat in lattices.items():
            for fam in (enumerate_localizations(cat), colocalizations_via_op(cat)):
                assert fam.hasse_edges == tuple(hasse_edges_by_triples(fam)), (name, fam.kind)
                assert fam.hasse_edges is fam.hasse_edges   # computed once per family

    def test_dot_output_deterministic(self, chain3):
        fam = enumerate_localizations(chain3)
        assert fam.to_dot() == enumerate_localizations(chain3).to_dot()
        assert "digraph" in fam.to_dot()


class TestFibrantMaps:
    def test_all_localizations(self, lattices):
        for name, cat in lattices.items():
            for st in enumerate_localizations(cat).structures:
                ok, witness = maps_between_fibrants_are_fibrations(st)
                assert ok, (name, witness)

    def test_mutated_class_caught(self, diamond):
        # drop bot -> a from the fibrations; both endpoints stay fibrant
        everything = MorphismClass.all_morphisms(diamond)
        fib = MorphismClass.of(diamond, [m for m in diamond.morphisms if m != "m_bot_a"])
        ms = ModelStructure(diamond, everything, MorphismClass(diamond, diamond.isos()),
                            fib, "file")
        ok, witness = maps_between_fibrants_are_fibrations(ms)
        assert not ok and witness == ("m_bot_a",)


class TestColocalizations:
    def test_chain2(self, chain2):
        fam = colocalizations_via_op(chain2)
        assert fam.subcat_members == (("0",), ("0", "1"))

    def test_structures_verify_on_original_category(self, chain3, diamond):
        for cat in (chain3, diamond):
            for st in colocalizations_via_op(cat).structures:
                assert st.provenance == "colocalization"
                assert verify_model_axioms(st).ok

    def test_discrete_is_both(self, chain2, discrete):
        disc = discrete(chain2)
        loc = enumerate_localizations(chain2)
        colo = colocalizations_via_op(chain2)
        triple = (disc.cof.members, disc.we.members, disc.fib.members)
        assert any((st.cof.members, st.we.members, st.fib.members) == triple
                   for st in loc.structures)
        assert any((st.cof.members, st.we.members, st.fib.members) == triple
                   for st in colo.structures)

    def test_diamond_self_duality(self, diamond):
        loc = enumerate_localizations(diamond)
        colo = colocalizations_via_op(diamond)
        assert len(loc.structures) == len(colo.structures) == 7

    def test_matches_direct_coreflective_enumeration(self, diamond):
        direct = coreflective_members_direct(diamond)
        via_op = {frozenset(m) for m in colocalizations_via_op(diamond).subcat_members}
        assert via_op == direct

    def test_poset_transports_from_opposite(self, chain3, diamond):
        # weak equivalences are preserved by the transport, so the co-poset is
        # literally the opposite family's poset
        for cat in (chain3, diamond):
            fam = colocalizations_via_op(cat)
            pairs = [(i, j) for i in range(len(fam.structures))
                     for j in range(len(fam.structures))]
            assert [we_leq(fam, i, j) for i, j in pairs] == \
                [we_leq(fam.opposite_family, i, j) for i, j in pairs]


class TestSuite:
    @pytest.mark.parametrize("name", ["chain2", "chain3", "diamond"])
    def test_suite_passes(self, cats, name):
        report = bijection_suite(cats[name])
        assert report.ok, [c for c in report.checks if not c[1]]


# -- generated inputs: Moore-family lattices ------------------------------------------


@st.composite
def moore_families(draw, max_elements: int = 6):
    """A family of subsets of {0..k-1} that holds the whole set and is closed
    under intersection, grown one drawn generator at a time; a generator that
    would take it past `max_elements` sets is skipped.  Ordered by inclusion,
    it is a lattice."""
    k = draw(st.integers(min_value=2, max_value=4))
    family = {frozenset(range(k))}
    points = st.integers(min_value=0, max_value=k - 1)
    for gen in draw(st.lists(st.frozensets(points, max_size=k - 1), max_size=8)):
        grown = family | {s & gen for s in family}
        if len(grown) <= max_elements:
            family = grown
    return family


class TestRandomMooreLattices:
    """At most 6 elements: the closure-operator oracle enumerates n^n maps."""

    @given(family=moore_families())
    @settings(max_examples=40, deadline=None)
    def test_localizations_are_the_closure_operators(self, make_poset, family):
        sets = {"s" + "".join(map(str, sorted(s))): s for s in family}
        cat = make_poset("moore", sorted(sets), lambda a, b: sets[a] <= sets[b])
        fixed = closure_operator_fixed_sets(cat)
        members = {frozenset(m) for m in enumerate_localizations(cat).subcat_members}
        assert len(members) == len(fixed) and members == fixed
        report = bijection_suite(cat)
        assert report.ok, [c for c in report.checks if not c[1]]
