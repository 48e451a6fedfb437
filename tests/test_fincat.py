import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from loclab import corpus
from loclab import fincat
from loclab.fincat import (CategoryError, FinCat, FunctorData, NatTransData,
                           binary_coproduct, binary_product, compose_functors,
                           equalizer, generators, identity_functor, is_finitely_bicomplete,
                           iso_classes, limit_search, opposite, pullback,
                           pushout, terminal_object, validate_category)
from loclab.reflect import enumerate_replete_reflective
from oracles import (closure_under_composition, functor_violations_by_scan, is_mono,
                     least_limit, nat_violations_by_scan)
from test_modelstruct import moore_families


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

    @pytest.mark.parametrize("field, value", [
        ("objects", "ab"), ("morphisms", "m"), ("compose", {}), ("identity", []),
        # every id is a JSON string, so none is read from null or 0
        ("objects", [None, "a"]), ("objects", ["a", 1]),
        ("morphisms", [{"id": None, "src": "a", "dst": "a"}]),
        ("morphisms", [{"id": "f", "src": 0, "dst": "a"}]),
        ("morphisms", [{"id": "f", "src": "a", "dst": ["a"]}]),
        ("compose", [{"g": None, "f": "id_a", "gf": "id_a"}]),
        ("compose", [{"g": "id_a", "f": 1, "gf": "id_a"}]),
        ("compose", [{"g": "id_a", "f": "id_a", "gf": False}]),
        ("identity", {"a": None}), ("identity", {1: "id_a"}),
        ("name", None), ("name", ["a"]),
    ])
    def test_ill_typed_field_rejected(self, field, value):
        data = {"objects": ["a"], "morphisms": [], "compose": []}
        data[field] = value
        with pytest.raises(CategoryError, match=field):
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


def assert_every_search_is_the_least_limit(cat):
    """Every shape `limit_search` takes, on every argument tuple that fits it."""
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
            (cat.name, shape, args)


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
        assert_every_search_is_the_least_limit(cats[name])

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
        laws = {v.law for v in broken.violations}
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


# -- generated inputs: transformation monoids ---------------------------------------


def transformation_monoid(n: int, generators) -> FinCat:
    """The one-object category of the maps {0..n-1} -> {0..n-1} generated under
    composition by `generators` (tuples of images), the identity included."""
    label = lambda t: "t" + "".join(map(str, t))
    unit = tuple(range(n))
    elements, frontier = {unit}, [unit]
    while frontier:
        f = frontier.pop()
        for g in generators:
            gf = tuple(g[i] for i in f)   # first f, then g
            if gf not in elements:
                elements.add(gf)
                frontier.append(gf)
    return FinCat(["*"], [(label(f), "*", "*") for f in elements], {"*": label(unit)},
                  {(label(g), label(f)): label(tuple(g[i] for i in f))
                   for g in elements for f in elements},
                  name="M" + "_".join(label(g) for g in generators))


def product_category(first: FinCat, second: FinCat) -> FinCat:
    """first x second, composed componentwise; ids are joined with '|'."""
    pair = lambda a, b: f"{a}|{b}"
    morphisms = [(f, g) for f in first.morphisms for g in second.morphisms]
    return FinCat(
        [pair(a, b) for a in first.objects for b in second.objects],
        [(pair(f, g), pair(first.src[f], second.src[g]), pair(first.dst[f], second.dst[g]))
         for f, g in morphisms],
        {pair(a, b): pair(first.id_of(a), second.id_of(b))
         for a in first.objects for b in second.objects},
        {(pair(f2, g2), pair(f1, g1)): pair(first.comp(f2, f1), second.comp(g2, g1))
         for f2, g2 in morphisms for f1, g1 in morphisms
         if first.src[f2] == first.dst[f1] and second.src[g2] == second.dst[g1]},
        name=f"{first.name}x{second.name}")


@st.composite
def monoid_generators(draw, max_points: int = 3):
    n = draw(st.integers(min_value=1, max_value=max_points))
    maps = st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * n)
    return n, draw(st.lists(maps, max_size=2))


class TestRandomTransformationMonoids:
    @given(generated=monoid_generators())
    @settings(max_examples=60, deadline=None)
    def test_alone(self, generated):
        cat = transformation_monoid(*generated)
        # The least-limit oracle takes about 2 s on the 24-element monoids
        # that two maps on 3 points can generate, and under 0.2 s up to 13.
        assume(len(cat.morphisms) <= 13)
        assert validate_category(cat).ok
        assert_every_search_is_the_least_limit(cat)

    @given(generated=monoid_generators(max_points=2))
    @settings(max_examples=30, deadline=None)
    def test_in_a_product_with_chain2(self, generated, chain2):
        monoid = transformation_monoid(*generated)
        for cat in (product_category(monoid, chain2), product_category(chain2, monoid)):
            assert validate_category(cat).ok
            assert_every_search_is_the_least_limit(cat)


# -- the generator lemma: laws decided on generators equal the full scans ----------------


def corruptions(cat: FinCat, mapping: dict, rng: random.Random) -> list[dict]:
    """`mapping` with the value at one key swapped for a parallel map, and with
    it swapped for a map that is not parallel, where the category has one."""
    key = rng.choice(sorted(mapping))
    m = mapping[key]
    pools = ([w for w in cat.hom(cat.src[m], cat.dst[m]) if w != m],
             [w for w in cat.morphisms if not cat.parallel(w, m)])
    return [{**mapping, key: rng.choice(pool)} for pool in pools if pool]


def assert_generator_lemma(cat: FinCat, rng: random.Random) -> None:
    """G generates the category, and on each reflector functor and unit, and on
    seeded corruptions of them, the violations equal the full scans'."""
    gens = generators(cat)
    assert closure_under_composition(cat, gens) == set(cat.morphisms), cat.name
    assert not set(gens) & set(cat.identity.values())
    for refl in enumerate_replete_reflective(cat):
        functors = [refl.functor] + [FunctorData(cat, cat, refl.functor.obj_map, mor)
                                     for mor in corruptions(cat, refl.functor.mor_map, rng)]
        for functor in functors:
            assert list(functor.violations) == functor_violations_by_scan(functor)
        # a functor with a map of the wrong endpoints has no naturality squares
        targets = [t for t in functors
                   if all(v.law in ("functor-identity", "functor-composition")
                          for v in t.violations)]
        for comps in [refl.unit.components, *corruptions(cat, refl.unit.components, rng)]:
            for target in targets:
                nat = NatTransData(refl.unit.source, target, comps)
                assert list(nat.violations) == nat_violations_by_scan(nat)


class TestGeneratorLemma:
    def test_bundled_and_bench_categories(self, row_categories):
        rng = random.Random(20)
        for _, cat in row_categories:
            assert_generator_lemma(cat, rng)

    @pytest.mark.parametrize("name, gens, morphisms, pairs, composable", [
        ("chain8", 7, 36, 21, 120), ("B3", 12, 27, 15, 64),
        ("grid2x4", 10, 30, 18, 80), ("finset2", 5, 11, 14, 47),
    ])
    def test_generator_counts(self, cats, bench_lattices, name, gens, morphisms, pairs,
                              composable):
        cat = {**cats, **bench_lattices}[name]
        # a lattice's generators are its covering maps
        assert (len(generators(cat)), len(cat.morphisms)) == (gens, morphisms)
        assert (len(fincat._generator_pairs(cat)), len(cat.compose)) == (pairs, composable)

    @given(family=moore_families())
    @settings(max_examples=25, deadline=None)
    def test_random_moore_lattices(self, make_poset, family):
        sets = {"s" + "".join(map(str, sorted(s))): s for s in family}
        cat = make_poset("moore", sorted(sets), lambda a, b: sets[a] <= sets[b])
        for c in (cat, opposite(cat)):
            assert_generator_lemma(c, random.Random(len(family)))

    @given(generated=monoid_generators(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_random_transformation_monoids(self, generated, seed):
        # isomorphisms and idempotents: the greedy pass picks maps no
        # indecomposable reaches, such as an idempotent e = e.e
        cat = transformation_monoid(*generated)
        for c in (cat, opposite(cat)):
            assert_generator_lemma(c, random.Random(seed))
