from itertools import product as iproduct
from math import isqrt, lcm

import pytest

from loclab import corpus
from loclab.ringmod import (AbPresentation, RingError, RingHom, additive_basis,
                            localization_exists_verdict, mult_map_is_iso,
                            ring_from_spec, ring_homs, ring_polyquo, ring_product,
                            ring_zn, tensor_square, validate_ring, validate_ring_hom)
from oracles import ring_map_is_epi_on, tensor_square_on_pairs


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
        ({"kind": "tables", "elements": [str(i) for i in range(17)]}, 17),
    ])
    def test_size_cap_read_off_the_spec(self, spec, order):
        with pytest.raises(RingError, match=f"{order} elements exceeds the cap of 16"):
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
    assert swapped_pres.invariant_factors() == presentation.invariant_factors()


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
        assert sq.presentation.invariant_factors() == oracle.presentation.invariant_factors()

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
        rep = mult_map_is_iso(hom(rings["ring_z2"], rings["ring_z2xz2"],
                                  corpus.load_json("hom_z2_diag_z2xz2")["map"]))
        assert (rep.tensor_order, rep.ring_order) == (16, 4) and not rep.iso

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
            assert mult_map_is_iso(phi).iso == ring_map_is_epi_on(phi, test_rings), mname
        for r in rings.values():
            assert ring_map_is_epi_on(identity_hom(r), test_rings)


class TestPresentationConventions:
    def test_free_group(self):
        assert AbPresentation(1, ()).invariant_factors() == [0]
        assert AbPresentation(1, ()).order() is None

    def test_torsion(self):
        assert AbPresentation(1, ((2,),)).invariant_factors() == [2]
        assert AbPresentation(1, ((2,),)).order() == 2

    def test_trivial(self):
        assert AbPresentation(1, ((1,),)).invariant_factors() == []
        assert AbPresentation(1, ((1,),)).order() == 1
