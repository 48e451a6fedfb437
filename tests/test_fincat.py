import pytest

from loclab import corpus
from loclab.fincat import (CategoryError, FinCat, FunctorData, NatTransData,
                           binary_coproduct, binary_product, compose_functors,
                           equalizer, identity_functor, is_finitely_bicomplete,
                           is_mono, iso_classes, limit_search, opposite, pullback,
                           pushout, terminal_object, validate_category)


def make(data):
    return FinCat.from_json_dict(data)


def discrete_two():
    return make({"name": "discrete2", "objects": ["a", "b"], "morphisms": [], "compose": []})


def iso_pair():
    # two isomorphic objects u ~ v
    return make({"name": "iso_pair", "objects": ["u", "v"],
                 "morphisms": [{"id": "f", "src": "u", "dst": "v"},
                               {"id": "g", "src": "v", "dst": "u"}],
                 "compose": [{"g": "g", "f": "f", "gf": "id_u"},
                             {"g": "f", "f": "g", "gf": "id_v"}]})


class TestValidation:
    def test_terminal_category_passes(self, cats):
        assert validate_category(cats["terminal"]).ok

    def test_chain3_passes(self, chain3):
        assert validate_category(chain3).ok

    def test_all_corpus_categories_pass(self, cats):
        for name, cat in cats.items():
            assert validate_category(cat).ok, name

    def test_compose_srcdst_fixture_fails(self):
        cat = make(corpus.load_json("fixtures/bad/cat_compose_srcdst"))
        rep = validate_category(cat)
        assert not rep.ok
        assert rep.violation.law == "compose-src-dst"
        assert rep.violation.witness == ("m12", "m01", "id_0")

    def test_assoc_fixture_fails(self):
        rep = validate_category(make(corpus.load_json("fixtures/bad/cat_assoc_broken")))
        assert not rep.ok
        assert rep.violation.law == "associativity"

    def test_missing_composition_listed(self):
        cat = make({"objects": ["0", "1", "2"],
                    "morphisms": [{"id": "f", "src": "0", "dst": "1"},
                                  {"id": "g", "src": "1", "dst": "2"}],
                    "compose": []})
        rep = validate_category(cat)
        assert not rep.ok
        assert rep.violation.law == "compose-total"
        assert ("g", "f") in rep.missing

    def test_empty_category_valid_but_not_bicomplete(self):
        cat = make({"objects": [], "morphisms": [], "compose": []})
        assert validate_category(cat).ok
        assert not is_finitely_bicomplete(cat).ok

    @pytest.mark.parametrize("field, value", [("objects", "ab"), ("morphisms", "m"),
                                              ("compose", {}), ("identity", [])])
    def test_ill_typed_field_rejected(self, field, value):
        data = {"objects": ["a"], "morphisms": [], "compose": []}
        data[field] = value
        with pytest.raises(CategoryError):
            make(data)

    def test_reserved_identity_collision(self):
        with pytest.raises(CategoryError):
            make({"objects": ["a"],
                  "morphisms": [{"id": "id_a", "src": "a", "dst": "a"}],
                  "compose": []})


def predicates(cat, f) -> tuple[bool, bool, bool]:
    """(iso, mono, epi) of f; epi is mono in the opposite, which shares ids."""
    return cat.is_iso(f), is_mono(cat, f), is_mono(opposite(cat), f)


class TestPredicates:
    def test_identity_is_everything(self, chain3):
        assert predicates(chain3, "id_1") == (True, True, True)

    def test_poset_arrow_mono_epi_not_iso(self, chain3):
        assert predicates(chain3, "m_0_1") == (False, True, True)

    def test_parallel_pair_generator(self, cats):
        # exhaustive cancellation over the 4 morphisms of the free parallel pair:
        # there are no non-identity maps out of Y, so a is (vacuously) epi
        assert predicates(cats["parallel_pair"], "a") == (False, True, True)

    def test_finset2_function_semantics(self, cats):
        fs = cats["finset2"]
        assert predicates(fs, "f12_0") == (False, True, False)    # injective, not surjective
        assert predicates(fs, "f21_00") == (False, False, True)   # surjective, not injective
        assert predicates(fs, "f22_10") == (True, True, True)     # the swap

    def test_unknown_morphism_errors(self, chain3):
        with pytest.raises(CategoryError):
            chain3.require_morphism("nope")


class TestLimits:
    def test_terminal_of_chain(self, chain3):
        assert terminal_object(chain3).apex == "2"

    def test_pullback_is_meet(self, chain3):
        r = pullback(chain3, "m_1_2", "m_1_2")
        assert r.found and r.apex == "1"

    def test_no_product_in_discrete_two(self):
        assert not binary_product(discrete_two(), "a", "b").found

    def test_products_are_meets_on_diamond(self, diamond):
        r = binary_product(diamond, "a", "b")
        assert r.found and r.apex == "bot"
        r = binary_coproduct(diamond, "a", "b")
        assert r.found and r.apex == "top"

    def test_equalizer_of_equal_pair(self, chain3):
        r = equalizer(chain3, "m_0_1", "m_0_1")
        assert r.found and r.apex == "0" and r.legs == ("id_0",)

    def test_pushout_along_span(self, chain3):
        r = pushout(chain3, "m_0_1", "m_0_2")
        assert r.found and r.apex == "2"

    def test_certificates_reverify(self, lattices, cats):
        from oracles import recheck_limit_certificate

        for name in ("chain3", "diamond", "pentagon", "finset2"):
            cat = cats[name]
            for shape in ("terminal", "initial"):
                assert recheck_limit_certificate(cat, limit_search(cat, shape)), (name, shape)
            for a in cat.objects:
                for b in cat.objects:
                    for shape in ("binary-product", "binary-coproduct"):
                        assert recheck_limit_certificate(
                            cat, limit_search(cat, shape, a, b)), (name, shape, a, b)

    @pytest.mark.parametrize("name", corpus.CATEGORIES)
    def test_every_search_is_the_least_limit(self, cats, name):
        from oracles import least_limit

        cat = cats[name]
        pairs = [(x, y) for x in cat.objects for y in cat.objects]
        arrows = [(f, g) for f in cat.morphisms for g in cat.morphisms]
        cases = [("terminal", ()), ("initial", ())]
        cases += [(shape, pair) for pair in pairs
                  for shape in ("binary-product", "binary-coproduct")]
        cases += [(shape, (f, g)) for f, g in arrows if cat.parallel(f, g)
                  for shape in ("equalizer", "coequalizer")]
        cases += [("pullback", (f, g)) for f, g in arrows if cat.dst[f] == cat.dst[g]]
        cases += [("pushout", (f, g)) for f, g in arrows if cat.src[f] == cat.src[g]]
        for shape, args in cases:
            r = limit_search(cat, shape, *args)
            assert (r.found, r.apex, r.legs, r.mediators) == least_limit(cat, shape, args), \
                (shape, args)

    def test_searches_are_memoized(self, diamond):
        assert binary_product(diamond, "a", "b") is binary_product(diamond, "a", "b")

    def test_nonparallel_equalizer_rejected(self, chain3):
        with pytest.raises(CategoryError):
            equalizer(chain3, "m_0_1", "m_1_2")

    def test_shape_dispatcher(self, chain3):
        assert limit_search(chain3, "terminal").apex == "2"
        with pytest.raises(CategoryError):
            limit_search(chain3, "widget")


class TestBicompleteness:
    def test_lattices_are_bicomplete(self, lattices):
        for name, cat in lattices.items():
            rep = is_finitely_bicomplete(cat)
            assert rep.ok, (name, rep.missing)

    def test_non_lattices_are_not(self, cats):
        expect_missing = {"monoid_z2", "monoid_idem", "parallel_pair", "finset2", "pointed2"}
        for name in expect_missing:
            assert not is_finitely_bicomplete(cats[name]).ok, name

    def test_discrete_two_missing_terminal(self):
        rep = is_finitely_bicomplete(discrete_two())
        assert not rep.ok and rep.missing == ("terminal",)

    def test_bicomplete_implies_thin(self, cats):
        # the finite Freyd bound: hom(A,B)^n embeds in hom(A,B^n)
        for name, cat in cats.items():
            rep = is_finitely_bicomplete(cat)
            if rep.ok:
                assert rep.thin, name


class TestOpposite:
    def test_involution(self, cats):
        for name, cat in cats.items():
            assert opposite(opposite(cat)) == cat, name

    def test_swaps_src_dst(self, chain3):
        op = opposite(chain3)
        assert op.src["m_0_1"] == "1" and op.dst["m_0_1"] == "0"

    def test_limits_become_colimits(self, cats):
        for name in ("chain3", "diamond", "pentagon"):
            cat = cats[name]
            op = opposite(cat)
            assert terminal_object(op).apex == limit_search(cat, "initial").apex, name


class TestFunctors:
    def test_identity_functor_valid(self, chain3):
        assert identity_functor(chain3).is_valid()

    def test_broken_functor_detected(self, chain3):
        f = identity_functor(chain3)
        broken = FunctorData(chain3, chain3, dict(f.obj_map),
                             {**f.mor_map, "m_0_1": "m_0_2"})
        laws = {v.law for v in broken.check()}
        assert "functor-endpoints" in laws or "functor-composition" in laws

    def test_composition_of_functors(self, chain3):
        f = identity_functor(chain3)
        assert compose_functors(f, f).is_valid()

    def test_nat_trans_naturality_detected(self, chain2):
        ident = identity_functor(chain2)
        good = NatTransData(ident, ident, {"0": "id_0", "1": "id_1"})
        assert good.is_valid()
        bad = NatTransData(ident, ident, {"0": "m_0_1", "1": "id_1"})
        assert not bad.is_valid()


class TestExtensions:
    @pytest.mark.parametrize("name", ["finset2", "monoid_idem"])
    def test_against_brute_force(self, cats, name):
        cat = cats[name]
        sizes = set()
        for u in cat.morphisms:
            for v in cat.morphisms:
                if cat.src[v] != cat.src[u]:
                    continue
                want = tuple(w for w in cat.morphisms
                             if cat.src[w] == cat.dst[u] and cat.dst[w] == cat.dst[v]
                             and cat.compose[(w, u)] == v)
                assert cat.extensions(u, v) == want, (u, v)
                sizes.add(len(want))
        assert {0, 1, 2} <= sizes, sizes   # hom-sets with several maps are covered


class TestIsoClasses:
    def test_posets_have_singleton_classes(self, chain3):
        assert iso_classes(chain3) == (("0",), ("1",), ("2",))

    def test_iso_pair_collapses(self):
        assert iso_classes(iso_pair()) == (("u", "v"),)
