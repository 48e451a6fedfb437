from collections import Counter

import pytest

from loclab.fincat import CategoryError
from loclab.ktheory import (K0Presentation, build_truncated_ab_category, cofiber,
                            k0_group, k0_presentation, lr_nonzero, partition_label,
                            partitions_up_to, waldhausen_from_fincat,
                            waldhausen_truncated)
from oracles import hom_matrices, truncated_k0_by_maps, truncated_maps

# Every case whose hom matrices enumerate quickly: p^bound <= 8, and bound 2
# for p = 3, 5 and 7.
ENUMERABLE = [(2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]


class TestTruncatedCategory:
    def test_objects_p2_bound2(self):
        trunc = build_truncated_ab_category(2, 2)
        assert [trunc.label(q) for q in trunc.objects] == ["0", "Z/2", "Z/2xZ/2", "Z/4"]

    def test_objects_p2_bound1(self):
        trunc = build_truncated_ab_category(2, 1)
        assert [trunc.label(q) for q in trunc.objects] == ["0", "Z/2"]
        assert trunc.hom_count((1,), (1,)) == 2

    def test_objects_p3_bound1(self):
        trunc = build_truncated_ab_category(3, 1)
        assert [trunc.label(q) for q in trunc.objects] == ["0", "Z/3"]

    def test_nonprime_rejected(self):
        with pytest.raises(CategoryError):
            build_truncated_ab_category(4, 2)

    def test_bound_cap(self):
        with pytest.raises(CategoryError):
            build_truncated_ab_category(2, 7)
        build_truncated_ab_category(2, 6)

    def test_matrix_counts_past_the_old_budget(self):
        for p, bound, count in ((2, 4, 89657), (3, 3, 23509), (7, 2, 2674),
                                (2, 5, 38510027), (2, 6, 73354795389)):
            assert build_truncated_ab_category(p, bound).matrix_count() == count
            for mode in ("isos", "all"):
                pres = k0_presentation(waldhausen_truncated(p, bound, mode))
                assert pres.cofiber_relation_count == count

    def test_hom_counts_match_enumeration(self):
        trunc = build_truncated_ab_category(2, 3)
        for src in trunc.objects:
            for dst in trunc.objects:
                assert sum(1 for _ in hom_matrices(2, src, dst)) == \
                    trunc.hom_count(src, dst), (src, dst)

    def test_partitions_ordering(self):
        assert partitions_up_to(2) == ((), (1,), (1, 1), (2,))
        assert partition_label(2, (2, 1)) == "Z/4xZ/2"


class TestCofibers:
    def test_multiplication_by_two_into_z4(self):
        trunc = build_truncated_ab_category(2, 2)
        assert trunc.cofiber((1,), (2,), ((2,),)) == (1,)   # Z/4 / 2Z/2-image = Z/2
        assert trunc.cofiber((1,), (2,), ((0,),)) == (2,)   # zero map: cofiber Z/4

    def test_identity_and_zero_maps(self):
        trunc = build_truncated_ab_category(2, 3)
        for q in trunc.objects:
            ident = tuple(tuple(1 if i == j else 0 for j in range(len(q)))
                          for i in range(len(q)))
            assert trunc.cofiber(q, q, ident) == ()
            from_zero = tuple(tuple() for _ in range(len(q)))
            assert trunc.cofiber((), q, from_zero) == q

    def test_quotients_never_grow(self):
        trunc = build_truncated_ab_category(2, 2)
        for src in trunc.objects:
            for dst in trunc.objects:
                for mat in hom_matrices(2, src, dst):
                    assert sum(trunc.cofiber(src, dst, mat)) <= sum(dst)

    def test_fincat_cofiber_on_pointed_sets(self, cats):
        data = waldhausen_from_fincat(cats["pointed2"], cats["pointed2"].isos())
        assert data.zero == "z"
        assert cofiber(data, "id_w") == "z"        # cofiber of an identity
        assert cofiber(data, "zw") == "w"          # cofiber of 0 -> B is B
        assert cofiber(data, "wzw") == "w"         # collapse map has cofiber B


class TestWaldhausenData:
    def test_unpointed_category_rejected(self, chain2):
        with pytest.raises(CategoryError):
            waldhausen_from_fincat(chain2, chain2.isos())

    def test_terminal_category_pointed(self, cats):
        data = waldhausen_from_fincat(cats["terminal"], cats["terminal"].isos())
        assert data.zero == "x"

    def test_bad_we_mode(self):
        with pytest.raises(CategoryError):
            waldhausen_truncated(2, 1, "some")


class TestK0:
    def test_one_object_pointed_category_trivial(self, cats):
        data = waldhausen_from_fincat(cats["terminal"], cats["terminal"].isos())
        pres = k0_presentation(data)
        assert pres.generators == ("x",)
        assert pres.rows == ((1,),)          # [0] + [0] - [0] = [0]
        assert k0_group(pres) == ()

    def test_pointed_sets_trivial_both_modes(self, cats):
        cat = cats["pointed2"]
        for we in (cat.isos(), frozenset(cat.morphisms)):
            pres = k0_presentation(waldhausen_from_fincat(cat, we))
            assert k0_group(pres) == ()

    @pytest.mark.parametrize("p,bound", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    @pytest.mark.parametrize("mode", ["isos", "all"])
    def test_truncated_trivial(self, p, bound, mode):
        pres = k0_presentation(waldhausen_truncated(p, bound, mode))
        assert k0_group(pres) == (), (p, bound, mode)

    def test_zero_map_relations_force_triviality_row_by_row(self):
        # the zero map A -> B induces [A] + [B] - [B] = [A]; every generator
        # must appear as a unit row
        pres = k0_presentation(waldhausen_truncated(2, 2, "isos"))
        n = len(pres.generators)
        unit_rows = {tuple(1 if i == k else 0 for i in range(n)) for k in range(n)}
        assert unit_rows <= set(pres.rows)

    def test_relation_tags(self):
        pres = k0_presentation(waldhausen_truncated(2, 1, "all"))
        assert set(pres.tags) <= {"cofiber-sequence", "weak-equivalence"}
        assert pres.cofiber_relation_count == 5    # 1 + 2 + 2 endomaps... all homs
        assert pres.we_relation_count == 5

    @pytest.mark.parametrize("p,bound", ENUMERABLE)
    def test_rows_match_matrix_enumeration(self, p, bound):
        trunc = build_truncated_ab_category(p, bound)
        maps = truncated_maps(trunc)
        isos = Counter(src for src, _, _, iso in maps if iso)
        assert {part: trunc.aut_count(part) for part in trunc.objects} == isos
        for mode in ("isos", "all"):
            pres = k0_presentation(waldhausen_truncated(p, bound, mode))
            assert (pres.rows, pres.tags, pres.cofiber_relation_count,
                    pres.we_relation_count) == truncated_k0_by_maps(trunc, maps, mode), mode

    def test_distinct_row_counts(self):
        counts = [len(k0_presentation(waldhausen_truncated(2, bound)).rows)
                  for bound in range(1, 7)]
        assert counts == [2, 10, 49, 235, 899, 3262]

    @pytest.mark.parametrize("lam,mu,nu,nonzero", [
        ((2, 1), (1, 1), (1,), True),
        ((3,), (2,), (1,), True),
        ((3,), (1, 1), (1,), False),
        ((2, 2), (1, 1), (2,), False),
        ((2, 2), (1, 1), (1, 1), True),
        ((2, 1), (1,), (1, 1), True),
        ((2, 1), (1,), (2,), True),
        ((3, 2, 1), (2, 1), (2, 1), True),
        ((2,), (1,), (2,), False),          # sizes disagree
        ((1,), (2,), (), False),            # mu not inside lam
    ])
    def test_lr_support(self, lam, mu, nu, nonzero):
        assert lr_nonzero(lam, mu, nu) == nonzero
        assert lr_nonzero(lam, nu, mu) == nonzero     # c^lam_{mu nu} = c^lam_{nu mu}

    def test_group_conventions(self):
        assert k0_group(K0Presentation(("A",), (), (), 0, 0)) == (0,)
        assert k0_group(K0Presentation(("A",), ((2,),), ("cofiber-sequence",), 1, 0)) == (2,)
        assert k0_group(K0Presentation(("A", "B"), ((1, 0), (0, 1)),
                                       ("cofiber-sequence",) * 2, 2, 0)) == ()
