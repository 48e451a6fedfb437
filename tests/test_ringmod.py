import doctest
import random
from itertools import product as iproduct
from math import isqrt, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from loclab import corpus, ringmod
from loclab.ringmod import (AbPresentation, FiniteRing, RingError, RingHom, RingReport,
                            additive_basis, cubic_laws_hold_on_generators,
                            localization_exists_verdict, ring_from_spec, ring_polyquo,
                            ring_product, ring_zn, tensor_square, validate_ring,
                            validate_ring_hom)
from loclab.snf import cokernel_invariants
from oracles import (additive_relations_on_pairs, ring_homs, ring_map_is_epi_on,
                     tensor_square_on_pairs, validate_ring_by_triples,
                     validate_ring_hom_by_pairs)


def test_module_doctests():
    result = doctest.testmod(ringmod)
    assert result.attempted and not result.failed


def invariant_factors(presentation: AbPresentation) -> list[int]:
    return cokernel_invariants(presentation.relations, presentation.generator_count)


def corpus_rings():
    return {name: ring_from_spec(corpus.load_json(name)) for name in corpus.RINGS}


def hom(r, s, mapping):
    return RingHom(r, s, mapping)


def identity_hom(r):
    return RingHom(r, r, {e: e for e in r.elements})


@pytest.fixture(scope="module")
def rings():
    return corpus_rings()


class TestConstructors:
    def test_zn(self):
        z4 = ring_zn(4)
        assert z4.order == 4 and validate_ring(z4).ok

    def test_product(self):
        r = ring_product([ring_zn(2), ring_zn(2)])
        assert r.order == 4 and validate_ring(r).ok
        assert r.zero == "(0,0)" and r.one == "(1,1)"

    @pytest.mark.parametrize("spec", [
        *(corpus.load_json(name) for name in corpus.RINGS
          if corpus.load_json(name)["kind"] == "product"),
        *({"kind": "product", "factors": [{"kind": "zn", "n": n} for n in factors]}
          for factors in ((2, 2), (2, 3), (2, 4), (2, 2, 2), (3, 5), (1, 4))),
        {"kind": "product", "factors": [
            {"kind": "polyquo", "base": {"kind": "zn", "n": 2}, "poly": [0, 0, 1]},
            {"kind": "product", "factors": [{"kind": "zn", "n": 2}]}]},
    ])
    def test_product_spec_is_valid_without_its_own_pass(self, spec):
        ring = ring_from_spec(spec)
        assert ring._memo["valid"].ok   # recorded from the factors
        assert validate_ring(ring).ok

    def test_polyquo_dual_numbers(self):
        r = ring_polyquo(2, [0, 0, 1])
        assert r.order == 4 and validate_ring(r).ok
        assert set(r.elements) == {"0", "1", "x", "1+x"}
        assert r.times("x", "x") == "0"   # nilpotent generator

    def test_non_monic_rejected(self):
        with pytest.raises(RingError):
            ring_polyquo(4, [0, 0, 2])

    def test_polyquo_over_z0_rejected(self):
        with pytest.raises(RingError):
            ring_polyquo(0, [0, 1])

    def test_tables_kind(self):
        spec = {"kind": "tables", "elements": ["z", "u"], "zero": "z", "one": "u",
                "add": [["z", "u"], ["u", "z"]], "mul": [["z", "z"], ["z", "u"]]}
        assert validate_ring(ring_from_spec(spec)).ok

    def test_bad_tables_rejected(self):
        spec = {"kind": "tables", "elements": ["z", "u"], "zero": "z", "one": "u",
                "add": [["z", "u"], ["u", "u"]], "mul": [["z", "z"], ["z", "u"]]}
        with pytest.raises(RingError):
            ring_from_spec(spec)

    def test_size_cap(self):
        with pytest.raises(RingError):
            ring_from_spec({"kind": "zn", "n": 32})

    @pytest.mark.parametrize("spec, order", [
        ({"kind": "product", "factors": [{"kind": "zn", "n": 5}, {"kind": "zn", "n": 4}]}, 20),
        ({"kind": "polyquo", "base": {"kind": "zn", "n": 2}, "poly": [1, 0, 0, 0, 0, 1]}, 32),
        # well-formed but for the shape of its tables, which the cap refuses first
        ({"kind": "tables", "elements": [str(i) for i in range(17)], "zero": "0", "one": "1",
          "add": [], "mul": []}, 17),
    ])
    def test_size_cap_read_off_the_spec(self, spec, order):
        with pytest.raises(RingError, match=f"{order} elements exceeds the cap of 16"):
            ring_from_spec(spec)

    def test_spec_nested_too_deeply_to_check(self):
        spec = {"kind": "zn", "n": 2}
        for _ in range(5000):
            spec = {"kind": "product", "factors": [spec]}
        with pytest.raises(RingError, match="malformed ring spec: nested too deeply to check"):
            ring_from_spec(spec)

    def test_corpus_ring_specs(self, rings):
        assert {r.order for r in rings.values()} == {2, 4, 6}


class TestHoms:
    def test_valid_quotient_map(self, rings):
        phi = hom(rings["ring_z4"], rings["ring_z2"],
                  corpus.load_json("hom_z4_to_z2")["map"])
        assert validate_ring_hom(phi).ok

    def test_invalid_map_caught(self, rings):
        phi = hom(rings["ring_z4"], rings["ring_z2"],
                  {"0": "0", "1": "1", "2": "1", "3": "1"})
        assert not validate_ring_hom(phi).ok

    def test_enumeration_counts(self, rings):
        # two projections out of Z/2 x Z/2; x -> 0 and x -> x on dual numbers
        assert len(ring_homs(rings["ring_z2xz2"], rings["ring_z2"])) == 2
        assert len(ring_homs(rings["ring_z2_dual"], rings["ring_z2_dual"])) == 2
        assert len(ring_homs(rings["ring_z2"], rings["ring_z6"])) == 0  # 1 != 1+1+1... in Z/6? no: unital map Z/2->Z/6 needs 2*1=0
        assert len(ring_homs(rings["ring_z6"], rings["ring_z2"])) == 1


def assert_swap_symmetric(presentation, n):
    swapped_rows = []
    for row in presentation.relations:
        swapped = [0] * (n * n)
        for idx, c in enumerate(row):
            i, j = divmod(idx, n)
            swapped[j * n + i] = c
        swapped_rows.append(tuple(swapped))
    swapped_pres = AbPresentation(n * n, tuple(sorted(set(swapped_rows))))
    assert invariant_factors(swapped_pres) == invariant_factors(presentation)


def diagonal_hom(factors):
    n = lcm(*factors)
    s = ring_product([ring_zn(a) for a in factors])
    return RingHom(ring_zn(n), s, {str(i): "(" + ",".join(str(i % a) for a in factors) + ")"
                                   for i in range(n)})


def oracle_cases():
    """Ring maps with targets of at most 8 elements, for the |S|^2 oracle."""
    cases = [(name, hom(ring_from_spec(corpus.load_json(r)), ring_from_spec(corpus.load_json(s)),
                        corpus.load_json(name)["map"]))
             for name, r, s in (("hom_z4_to_z2", "ring_z4", "ring_z2"),
                                ("hom_z6_to_z2", "ring_z6", "ring_z2"),
                                ("hom_z2_to_z2_dual", "ring_z2", "ring_z2_dual"),
                                ("hom_z2_diag_z2xz2", "ring_z2", "ring_z2xz2"),
                                ("hom_z4_id", "ring_z4", "ring_z4"))]
    cases += [(f"id Z/{n}", identity_hom(ring_zn(n))) for n in range(1, 9)]
    cases += [(f"Z/{n} -> Z/{m}", hom(ring_zn(n), ring_zn(m), {str(i): str(i % m)
                                                              for i in range(n)}))
              for n in range(1, 17) for m in range(1, min(n, 9)) if n % m == 0]
    cases += [(f"diagonal {factors}", diagonal_hom(factors))
              for factors in ((2, 2), (2, 3), (2, 4), (2, 2, 2))]
    cases += [(f"(Z/2)[x]/{poly}", RingHom(ring_zn(2), ring_polyquo(2, poly), {"0": "0", "1": "1"}))
              for degree in (2, 3) for poly in (list(c) + [1]
                                                for c in iproduct(range(2), repeat=degree))]
    return [pytest.param(phi, id=name) for name, phi in cases]


class TestTensorSquare:
    def test_identity_gives_ring_order(self, rings):
        for name, r in rings.items():
            sq = tensor_square(identity_hom(r))
            assert sq.order == r.order, name

    def test_z4_to_z2_frozen(self, rings):
        phi = hom(rings["ring_z4"], rings["ring_z2"], corpus.load_json("hom_z4_to_z2")["map"])
        sq = tensor_square(phi)
        assert sq.order == 2
        assert len(sq.generators) == 1
        assert len(tensor_square_on_pairs(phi).generators) == 4

    def test_z2_to_dual_frozen(self, rings):
        sq = tensor_square(hom(rings["ring_z2"], rings["ring_z2_dual"],
                               corpus.load_json("hom_z2_to_z2_dual")["map"]))
        assert sq.order == 16

    def test_symmetry_under_factor_swap(self, rings):
        # relabel generators (s, t) -> (t, s); the invariant factors must agree
        for name in ("ring_z4", "ring_z2_dual"):
            r = rings[name]
            sq = tensor_square_on_pairs(identity_hom(r))
            assert_swap_symmetric(sq.presentation, r.order)

    def test_symmetry_under_factor_swap_on_basis(self, rings):
        # the same relabelling (g_i, g_j) -> (g_j, g_i) on the additive basis
        for name in ("ring_z4", "ring_z2_dual", "ring_z2xz2", "ring_z6"):
            sq = tensor_square(identity_hom(rings[name]))
            assert_swap_symmetric(sq.presentation, isqrt(len(sq.generators)))
        cubic = ring_polyquo(2, [1, 1, 0, 1])
        sq = tensor_square(RingHom(ring_zn(2), cubic, {"0": "0", "1": "1"}))
        assert len(sq.generators) == 9
        assert_swap_symmetric(sq.presentation, 3)

    def test_presentation_finite(self, rings):
        sq = tensor_square(identity_hom(rings["ring_z6"]))
        assert sq.presentation.order() is not None and sq.order == 6

    @pytest.mark.parametrize("phi", oracle_cases())
    def test_agrees_with_pairs_oracle(self, phi):
        sq, oracle = tensor_square(phi), tensor_square_on_pairs(phi)
        assert sq.order == oracle.order
        assert invariant_factors(sq.presentation) == invariant_factors(oracle.presentation)

    def test_additive_basis(self):
        assert additive_basis(ring_product([ring_zn(2), ring_zn(4)]))[0] == (2, 4)
        assert additive_basis(ring_polyquo(2, [0, 0, 1]))[0] == (2, 2)
        orders, coords = additive_basis(ring_zn(6))
        assert orders == (6,) and len(set(coords.values())) == 6
        assert additive_basis(ring_zn(1)) == ((), {"0": ()})


class TestVerdicts:
    def test_frozen_verdicts(self, rings):
        cases = [
            ("ring_z4", "ring_z2", "hom_z4_to_z2", True),
            ("ring_z6", "ring_z2", "hom_z6_to_z2", True),
            ("ring_z2", "ring_z2_dual", "hom_z2_to_z2_dual", False),
            ("ring_z2", "ring_z2xz2", "hom_z2_diag_z2xz2", False),
        ]
        for rname, sname, mname, expected in cases:
            phi = hom(rings[rname], rings[sname], corpus.load_json(mname)["map"])
            verdict = localization_exists_verdict(phi)
            assert verdict.exists == expected, (rname, sname)
            assert ("exists" in verdict.statement) == expected or not expected

    def test_identity_verdicts(self, rings):
        for r in rings.values():
            assert localization_exists_verdict(identity_hom(r)).exists

    def test_orders_reported(self, rings):
        rep = localization_exists_verdict(hom(rings["ring_z2"], rings["ring_z2xz2"],
                                              corpus.load_json("hom_z2_diag_z2xz2")["map"]))
        assert (rep.tensor_order, rep.ring_order) == (16, 4) and not rep.exists

    def test_matches_epimorphism_cancellation_oracle(self, rings):
        test_rings = list(rings.values())
        cases = [
            ("ring_z4", "ring_z2", "hom_z4_to_z2"),
            ("ring_z6", "ring_z2", "hom_z6_to_z2"),
            ("ring_z2", "ring_z2_dual", "hom_z2_to_z2_dual"),
            ("ring_z2", "ring_z2xz2", "hom_z2_diag_z2xz2"),
        ]
        for rname, sname, mname in cases:
            phi = hom(rings[rname], rings[sname], corpus.load_json(mname)["map"])
            assert localization_exists_verdict(phi).exists == ring_map_is_epi_on(phi, test_rings), \
                mname
        for r in rings.values():
            assert ring_map_is_epi_on(identity_hom(r), test_rings)


class TestPresentationConventions:
    def test_free_group(self):
        assert invariant_factors(AbPresentation(1, ())) == [0]
        assert AbPresentation(1, ()).order() is None

    def test_torsion(self):
        assert invariant_factors(AbPresentation(1, ((2,),))) == [2]
        assert AbPresentation(1, ((2,),)).order() == 2

    def test_trivial(self):
        assert invariant_factors(AbPresentation(1, ((1,),))) == []
        assert AbPresentation(1, ((1,),)).order() == 1


# -- the integer tables against the triple-by-triple oracle ------------------------------

# (p, degree) with p^degree <= 16, and factor lists of cyclic products of order <= 16
POLYQUO_SHAPES = [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]
PRODUCT_FACTORS = [(1, 4), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3),
                   (3, 4), (3, 5), (4, 4), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 2, 2)]


def as_tables_spec(ring, order) -> dict:
    """`ring` as a `tables` spec, its elements renamed and listed in `order`."""
    name = {e: f"e{i}" for i, e in enumerate(ring.elements)}
    return {"kind": "tables", "elements": [name[e] for e in order],
            "zero": name[ring.zero], "one": name[ring.one],
            "add": [[name[ring.plus(a, b)] for b in order] for a in order],
            "mul": [[name[ring.times(a, b)] for b in order] for a in order]}


def drawn_ring(choose, kind=None) -> FiniteRing:
    """A valid ring of at most 16 elements; `choose` picks one of a list."""
    kind = kind or choose(["zn", "polyquo", "product", "tables"])
    if kind == "zn":
        return ring_zn(choose(range(1, 17)))
    if kind == "polyquo":
        p, degree = choose(POLYQUO_SHAPES)
        return ring_polyquo(p, [choose(range(p)) for _ in range(degree)] + [1])
    if kind == "product":
        return ring_product([ring_zn(n) for n in choose(PRODUCT_FACTORS)])
    base = drawn_ring(choose, choose(["zn", "polyquo", "product"]))
    order = list(base.elements)
    for i in range(len(order) - 1, 0, -1):   # Fisher-Yates with the drawn choices
        j = choose(range(i + 1))
        order[i], order[j] = order[j], order[i]
    return ring_from_spec(as_tables_spec(base, order))


def corrupted(ring, choose) -> FiniteRing:
    """A fresh copy of `ring` with one or two table entries deleted, set to a
    label outside the ring, or set to a drawn element (at (a, b) alone or at
    both (a, b) and (b, a), so that the commutative laws can still hold)."""
    add, mul = dict(ring.add), dict(ring.mul)
    for _ in range(choose([1, 2])):
        table = choose([add, mul])
        a, b = choose(ring.elements), choose(ring.elements)
        how = choose(["delete", "outside", "value", "symmetric value"])
        if how == "delete":
            table.pop((a, b), None)
        elif how == "outside":
            table[(a, b)] = "outside"
        else:
            table[(a, b)] = value = choose(ring.elements)
            if how == "symmetric value":
                table[(b, a)] = value
    return FiniteRing(ring.name, ring.elements, add, mul, ring.zero, ring.one)


SMALL_RINGS = [ring_zn(2), ring_zn(3), ring_zn(4), ring_product([ring_zn(2), ring_zn(2)]),
               ring_polyquo(2, [0, 0, 1]), ring_polyquo(2, [1, 1, 1])]


def drawn_hom(choose) -> RingHom:
    """The identity of a drawn ring or a quotient Z/n -> Z/m with one value
    of the map deleted, sent outside the codomain or redrawn; or a map
    between rings of at most 4 elements keeping 0 and 1, its other values
    drawn, which is often additive but not multiplicative."""
    how = choose(["identity", "quotient", "drawn"])
    if how == "drawn":
        r, s = choose(SMALL_RINGS), choose(SMALL_RINGS)
        mapping = {e: choose(s.elements) for e in r.elements}
        mapping.update({r.zero: s.zero, r.one: s.one})
        return RingHom(r, s, mapping)
    if how == "identity":
        r = s = drawn_ring(choose)
        mapping = {e: e for e in r.elements}
    else:
        m = choose(range(1, 9))
        r, s = ring_zn(m * choose(range(1, 16 // m + 1))), ring_zn(m)
        mapping = {str(i): str(i % m) for i in range(r.order)}
    a = choose(r.elements)
    how = choose(["delete", "outside", "value"])
    if how == "delete":
        del mapping[a]
    else:
        mapping[a] = "outside" if how == "outside" else choose(s.elements)
    return RingHom(r, s, mapping)


CUBIC_LAWS = {"add-associative", "mul-associative", "distributive"}
Z16 = ring_zn(16)


def bilinear_on_f2_cube() -> FiniteRing:
    """(Z/2)^3 on the basis 1, x, y (bits 1, 2, 4) with xx = y, xy = 1 and yy = 0:
    unital, commutative and bilinear, but not associative."""
    basis = {(1, 1): 1, (1, 2): 2, (1, 4): 4, (2, 2): 4, (2, 4): 1, (4, 4): 0}

    def times(a, b):
        out = 0
        for i, j in iproduct((1, 2, 4), repeat=2):
            if a & i and b & j:
                out ^= basis[min(i, j), max(i, j)]
        return out

    pairs = list(iproduct(range(8), repeat=2))
    return FiniteRing("xx = y, xy = 1", tuple(map(str, range(8))),
                      {(str(a), str(b)): str(a ^ b) for a, b in pairs},
                      {(str(a), str(b)): str(times(a, b)) for a, b in pairs}, "0", "1")


def generator_check_agrees(ring, want) -> bool | None:
    """Whether `cubic_laws_hold_on_generators` says the ring is a ring exactly
    when the oracle's report `want` does; None when the oracle reports a
    quadratic law, where the generator check does not apply."""
    if want.ok or want.law in CUBIC_LAWS:
        return cubic_laws_hold_on_generators(ring.table) == want.ok
    return None


class TestIntegerTables:
    def test_seeded_corruptions_match_the_oracle(self):
        rng = random.Random(15)
        mismatches, laws, decided = [], set(), []
        for _ in range(600):
            ring = corrupted(drawn_ring(rng.choice), rng.choice)
            got, want = validate_ring(ring), validate_ring_by_triples(ring)
            laws.add(want.law)
            if got != want:
                mismatches.append((ring.name, got, want))
            agrees = generator_check_agrees(ring, want)
            if agrees is not None:
                decided.append((agrees, want.ok))
        assert mismatches == []
        # every law is reached, so each row shortcut meets a failing row
        assert {"add-associative", "mul-associative", "distributive",
                "add-commutative", "mul-total", "add-closed", None} <= laws
        # the generator rows decide the cubic laws on rings that pass and rings that fail
        assert all(agrees for agrees, _ in decided)
        assert {ok for _, ok in decided} == {True, False}

    @pytest.mark.parametrize("ring, witness", [
        # 5 * 7 = 7 * 5 = 0 keeps both commutative laws; (2 * 5) * 7 = 6, 2 * (5 * 7) = 0
        (FiniteRing("Z/16, 5*7 = 0", Z16.elements, Z16.add,
                    {**Z16.mul, ("5", "7"): "0", ("7", "5"): "0"}, "0", "1"), ("2", "5", "7")),
        # distributive, but (xx)y = 0 and x(xy) = x; the rows of 1, the first generator,
        # all agree, and those of x do not
        (bilinear_on_f2_cube(), ("2", "2", "4")),
    ], ids=["Z/16 with 5*7 = 0", "bilinear on (Z/2)^3"])
    def test_commutative_tables_failing_a_cubic_law(self, ring, witness):
        want = RingReport(False, "mul-associative", witness)
        assert validate_ring_by_triples(ring) == want == validate_ring(ring)
        assert not cubic_laws_hold_on_generators(ring.table)

    def test_seeded_hom_corruptions_match_the_oracle(self):
        rng = random.Random(15)
        laws = set()
        for _ in range(300):
            phi = drawn_hom(rng.choice)
            want = validate_ring_hom_by_pairs(phi)
            assert validate_ring_hom(phi) == want, phi.map
            laws.add(want.law)
        assert laws == {"hom-total", "hom-image", "hom-zero", "hom-one", "hom-add", "hom-mul",
                        None}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_drawn_corruptions_match_the_oracle(self, data):
        def choose(options):
            return data.draw(st.sampled_from(list(options)))

        ring = corrupted(drawn_ring(choose), choose)
        want = validate_ring_by_triples(ring)
        assert validate_ring(ring) == want
        assert generator_check_agrees(ring, want) in (True, None)
        phi = drawn_hom(choose)
        assert validate_ring_hom(phi) == validate_ring_hom_by_pairs(phi)

    @pytest.mark.parametrize("ring", [
        *(ring_zn(n) for n in range(1, 17)),
        *(ring_product([ring_zn(n) for n in factors]) for factors in PRODUCT_FACTORS),
        *(ring_polyquo(p, list(c) + [1]) for p, degree in POLYQUO_SHAPES
          for c in iproduct(range(p), repeat=degree)),
        ring_from_spec(as_tables_spec(ring_zn(12), [str(i) for i in range(11, -1, -1)])),
        # 3 generates {0, 3, 6}, then 3 * 1 = 3 is the relation 3 e_2 - e_1
        ring_from_spec({**as_tables_spec(ring_zn(9), ["3", "0", "1", "2", "4", "5", "6", "7", "8"]),
                        "name": "Z/9 from 3"}),
    ], ids=lambda ring: ring.name)
    def test_additive_basis_against_all_pairs(self, ring):
        orders, coords = additive_basis(ring)
        pairs = additive_relations_on_pairs(ring)
        assert list(orders) == cokernel_invariants(pairs, ring.order)
        # the coordinates are an isomorphism onto Z/d_1 + ... + Z/d_k
        assert len(set(coords.values())) == ring.order == prod(orders)
        for a in ring.elements:
            for b in ring.elements:
                assert coords[ring.plus(a, b)] == tuple(
                    (x + y) % d for x, y, d in zip(coords[a], coords[b], orders))
