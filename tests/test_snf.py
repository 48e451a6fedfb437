import doctest
from dataclasses import replace
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from loclab import snf
from loclab.snf import (SnfError, cokernel_invariants, echelon_basis, presented_group_order,
                        smith_normal_form)
from oracles import invariant_factors_by_minors


def test_module_doctests():
    result = doctest.testmod(snf)
    assert result.attempted and not result.failed


def test_known_diagonals():
    assert smith_normal_form([[2, 4], [6, 8]]).diagonal == [2, 4]
    assert smith_normal_form([[4], [2]]).diagonal == [2]
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == [0, 0]


def test_cokernel_conventions():
    assert cokernel_invariants([], 1) == [0]
    assert cokernel_invariants([[2]], 1) == [2]
    assert cokernel_invariants([[1]], 1) == []
    assert cokernel_invariants([[2, 0], [0, 3]], 2) == [6]
    assert cokernel_invariants([[1, 0]], 2) == [0]


def test_group_orders():
    assert presented_group_order([[2, 0], [0, 3]], 2) == 6
    assert presented_group_order([[2, 0]], 2) is None
    assert presented_group_order([], 0) == 1


def test_empty_matrix():
    r = smith_normal_form([], n_cols=3)
    assert r.cokernel_invariants() == [0, 0, 0]
    assert r.cokernel_order() is None


def test_transform_identities_checked():
    # check() runs inside smith_normal_form; tamper with each condition and confirm it trips
    r = smith_normal_form([[6, 4], [8, 2]])
    s = smith_normal_form([[2, 0], [0, 3]])   # D = diag(1, 6)
    tampered = [
        (replace(r, d=((1, 0), (0, 999))), "U @ A @ V != D"),
        (replace(s, d=((2, 0), (0, 3))), "divisibility fails"),
        (replace(s, d=((1, 1), (0, 6))), "D is not diagonal at"),
        (replace(s, v=((2, 0), (0, 1))), "V @ Vinv != I"),
        (replace(s, u=((1, 0), (0, 1))), "U @ A @ V != D"),
        # U @ A @ V == D holds, but det U = -2: <D> is a proper sublattice of <A V>
        (snf.SnfResult(matrix=((2,), (3,)), d=((2,), (0,)), u=((1, 0), (3, -2)),
                       v=((1,),), v_inv=((1,),)),
         "row 1 of A @ V is not in the row lattice of D"),
    ]
    for broken, message in tampered:
        with pytest.raises(SnfError, match=message):
            broken.check()


def test_lattice_certificate_checked():
    basis = echelon_basis([[4, 0], [6, 0], [0, 3], [2, 3]], 2)
    (k, c), *rest = basis.coefficients[0]
    tampered = [
        (replace(basis, coefficients=(((k, c + 1), *rest), *basis.coefficients[1:])),
         "C @ A != H at row 0"),
        (replace(basis, coefficients=(((9, 1),), *basis.coefficients[1:])),
         "C names row 9 of A, which has 4 rows"),
        (replace(basis, rows=((2, 1), *basis.rows[1:])), "C @ A != H at row 0"),
        (replace(basis, rows=basis.rows[:1], coefficients=basis.coefficients[:1]),
         "row 2 of A is not in the row lattice of H"),
        (replace(basis, snf=smith_normal_form([[2, 0], [0, 1]])),
         "the Smith normal form is not that of H"),
    ]
    basis.check_lattice()
    for broken, message in tampered:
        with pytest.raises(SnfError, match=message):
            broken.check_lattice()


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_matches_minor_gcd_oracle(a):
    result = smith_normal_form(a)   # self-check runs
    assert result.diagonal == invariant_factors_by_minors(a)


tall_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=1, max_size=10))


@given(tall_matrices)
@settings(max_examples=150, deadline=None)
def test_cokernel_matches_minor_gcd_oracle(a):
    n = len(a[0])
    diagonal = invariant_factors_by_minors(a)
    rank = sum(1 for d in diagonal if d)
    want = [d for d in diagonal if d > 1] + [0] * (n - rank)
    order = prod(d for d in diagonal if d) if rank == n else None
    full = smith_normal_form(a)
    assert cokernel_invariants(a, n) == full.cokernel_invariants() == want
    assert presented_group_order(a, n) == full.cokernel_order() == order


@given(matrices)
@settings(max_examples=80, deadline=None)
def test_divisibility_chain(a):
    diag = smith_normal_form(a).diagonal
    nonzero = [d for d in diag if d]
    assert all(b % a2 == 0 for a2, b in zip(nonzero, nonzero[1:]))
    assert all(d == 0 for d in diag[len(nonzero):])
