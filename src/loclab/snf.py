"""Smith normal form over the integers, and cokernels certified through a lattice basis.

Two certificates are checked on every call; neither trusts the reduction path.

`smith_normal_form` keeps four transform matrices (U, Uinv, V, Vinv) in step
with the working matrix, so that on return

    U @ A @ V == D          Uinv @ D @ Vinv == A          V @ Vinv == I

all hold exactly.  Those identities, together with D being diagonal with a
divisibility chain, certify the invariant factors; `SnfResult.check`
re-multiplies them.  U and Uinv are m x m for an m-row input.

`cokernel_invariants` and `presented_group_order` need only the group
Z^n / <rows of A>, which depends only on the row lattice of A.  So
`echelon_basis` reduces A to a basis H (r x n, r <= n) of that lattice,
carrying a sparse row of C with each row of H, and `EchelonBasis.check`
certifies

    C @ A == H                                  lattice(H) in lattice(A)
    every row of A reduces to zero against H    lattice(A) in lattice(H)

while the Smith normal form of H, with its own check, gives the invariants.
A tall presentation never builds an m x m matrix: its cost follows the
generators, not the rows.  Entries are Python ints, so intermediate growth
during the Euclidean steps is harmless.

>>> smith_normal_form([[2, 4], [6, 8]]).diagonal
[2, 4]
>>> basis = echelon_basis([[4, 0], [6, 0], [0, 3], [2, 3]], 2)
>>> basis.rows
((2, 0), (0, 3))
>>> basis.coefficients                  # row 0 of H is -1 * [4, 0] + 1 * [6, 0]
(((0, -1), (1, 1)), ((2, 1),))
>>> basis.snf.cokernel_invariants()
[6]
>>> cokernel_invariants([[2, 0], [0, 3]], 2)
[6]
>>> cokernel_invariants([], 1)
[0]
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

Matrix = list[list[int]]


class SnfError(Exception):
    """The computed normal form failed its own re-multiplication check."""


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Exact product, summing only the rows of `b` picked by nonzero entries
    of `a`; the row transforms of a tall matrix are mostly zeros."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch in matrix product")
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def mat_eq(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


@dataclass(frozen=True)
class SnfResult:
    matrix: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]
    u: tuple[tuple[int, ...], ...]
    u_inv: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    v_inv: tuple[tuple[int, ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

    @property
    def n_cols(self) -> int:
        return len(self.v)

    @property
    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(self.n_rows, self.n_cols))]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    def check(self) -> None:
        """Re-multiply the transforms against the input; raise SnfError on any mismatch."""
        a = [list(r) for r in self.matrix]
        d = [list(r) for r in self.d]
        m, n = self.n_rows, self.n_cols
        for i in range(m):
            for j in range(n):
                if i != j and d[i][j] != 0:
                    raise SnfError(f"D is not diagonal at ({i}, {j})")
        diag = self.diagonal
        for i, x in enumerate(diag):
            if x < 0:
                raise SnfError(f"negative diagonal entry d[{i}] = {x}")
        for i in range(len(diag) - 1):
            if diag[i] == 0 and diag[i + 1] != 0:
                raise SnfError("zero diagonal entry precedes a nonzero one")
            if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
                raise SnfError(f"divisibility fails: {diag[i]} does not divide {diag[i + 1]}")
        if not mat_eq(mat_mul(self.v, self.v_inv), identity_matrix(n)):
            raise SnfError("V @ Vinv != I")
        if not mat_eq(mat_mul(self.v_inv, self.v), identity_matrix(n)):
            raise SnfError("Vinv @ V != I")
        if not mat_eq(mat_mul(mat_mul(self.u, a), self.v), d):
            raise SnfError("U @ A @ V != D")
        # D is diagonal, so Uinv @ D is a column-scaled copy of Uinv.
        ud = [[self.u_inv[i][j] * diag[j] if j < len(diag) else 0 for j in range(n)]
              for i in range(m)]
        if not mat_eq(mat_mul(ud, self.v_inv), a):
            raise SnfError("Uinv @ D @ Vinv != A")

    def invariant_factors(self) -> list[int]:
        """Diagonal entries with units dropped; trailing zeros mark free rank within min(m, n)."""
        return [x for x in self.diagonal if x != 1]

    def cokernel_invariants(self) -> list[int]:
        """Invariant factors of Z^n_cols modulo the row lattice (0 = one free summand)."""
        torsion = [x for x in self.diagonal if x not in (0, 1)]
        return torsion + [0] * (self.n_cols - self.rank)

    def cokernel_order(self) -> int | None:
        """Order of the cokernel group, or None when it is infinite."""
        if self.rank < self.n_cols:
            return None
        return prod(x for x in self.diagonal if x != 0)


def smith_normal_form(matrix: Sequence[Sequence[int]], n_cols: int | None = None) -> SnfResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    `n_cols` is only needed for a matrix with zero rows.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    if m:
        n = len(a[0])
        if any(len(row) != n for row in a):
            raise ValueError("ragged matrix")
        if n_cols is not None and n_cols != n:
            raise ValueError("n_cols disagrees with the matrix width")
    else:
        n = n_cols or 0

    d = [row[:] for row in a]
    u, u_inv_cols = identity_matrix(m), identity_matrix(m)   # Uinv is kept by columns
    v, v_inv = identity_matrix(n), identity_matrix(n)

    def swap_rows(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]
        u_inv_cols[i], u_inv_cols[k] = u_inv_cols[k], u_inv_cols[i]

    def swap_cols(j, l):
        for row in d:
            row[j], row[l] = row[l], row[j]
        for row in v:
            row[j], row[l] = row[l], row[j]
        v_inv[j], v_inv[l] = v_inv[l], v_inv[j]

    def row_add(i, k, c):
        # row i += c * row k
        d[i] = [x + c * y for x, y in zip(d[i], d[k])]
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]
        u_inv_cols[k] = [x - c * y for x, y in zip(u_inv_cols[k], u_inv_cols[i])]

    def col_add(j, l, c):
        # col j += c * col l
        for row in d:
            row[j] += c * row[l]
        for row in v:
            row[j] += c * row[l]
        v_inv[l] = [x - c * y for x, y in zip(v_inv[l], v_inv[j])]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        u_inv_cols[i] = [-x for x in u_inv_cols[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return None if best is None else (best[1], best[2])

    def clear_at(t):
        # Clear row t and column t outside the pivot, improving the pivot on remainders.
        while True:
            for i in range(t + 1, m):
                while d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_add(i, t, -q)
                    if d[i][t]:
                        swap_rows(i, t)
            for j in range(t + 1, n):
                while d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_add(j, t, -q)
                    if d[t][j]:
                        swap_cols(j, t)
            if all(d[i][t] == 0 for i in range(t + 1, m)) and \
               all(d[t][j] == 0 for j in range(t + 1, n)):
                return

    def diagonalize(start=0):
        for t in range(start, min(m, n)):
            piv = find_pivot(t)
            if piv is None:
                break
            i, j = piv
            if i != t:
                swap_rows(i, t)
            if j != t:
                swap_cols(j, t)
            clear_at(t)

    diagonalize()
    # Repair the divisibility chain; each fix strictly shrinks an earlier factor.
    while True:
        k = min(m, n)
        bad = None
        for i in range(k - 1):
            x, y = d[i][i], d[i + 1][i + 1]
            if x != 0 and y % x != 0:
                bad = i
                break
        if bad is None:
            break
        col_add(bad, bad + 1, 1)
        diagonalize(bad)
    for i in range(min(m, n)):
        if d[i][i] < 0:
            negate_row(i)

    result = SnfResult(
        matrix=tuple(tuple(r) for r in a),
        d=tuple(tuple(r) for r in d),
        u=tuple(tuple(r) for r in u),
        u_inv=tuple(zip(*u_inv_cols)),
        v=tuple(tuple(r) for r in v),
        v_inv=tuple(tuple(r) for r in v_inv),
    )
    result.check()
    return result


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _sparse(row: Sequence[int]) -> dict[int, int]:
    return {j: x for j, x in enumerate(row) if x}


def _add(v: dict[int, int], q: int, w: dict[int, int]) -> None:
    """v += q*w in place, for sparse vectors."""
    for k, y in w.items():
        z = v.get(k, 0) + q * y
        if z:
            v[k] = z
        else:
            v.pop(k, None)


def _combine(x: int, u: dict[int, int], y: int, w: dict[int, int]) -> dict[int, int]:
    """x*u + y*w for sparse vectors."""
    out = {k: x * c for k, c in u.items()} if x else {}
    _add(out, y, w)
    return out


@dataclass(frozen=True)
class EchelonBasis:
    """A basis H of the row lattice of A, with H == C @ A for a sparse C.

    `rows` is H in echelon form: each row's leading entry is positive and
    lies right of the one above.  `coefficients[i]` is row i of C, as
    (row of A, multiplier) pairs.  `snf` is the Smith normal form of H.
    """
    matrix: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]
    coefficients: tuple[tuple[tuple[int, int], ...], ...]
    snf: SnfResult

    def check(self) -> None:
        """Certify lattice(H) == lattice(A) and the SNF of H; raise SnfError on any failure."""
        self.check_lattice()
        self.snf.check()

    def check_lattice(self) -> None:
        """C @ A == H, every row of A lies in the lattice of H, and `snf` is that of H."""
        if len(self.coefficients) != len(self.rows):
            raise SnfError("C and H have different row counts")
        a = [_sparse(row) for row in self.matrix]
        h = [_sparse(row) for row in self.rows]
        for i, (h_row, coef) in enumerate(zip(h, self.coefficients)):
            acc: dict[int, int] = {}
            for k, c in coef:
                if not 0 <= k < len(a):
                    raise SnfError(f"C names row {k} of A, which has {len(a)} rows")
                _add(acc, c, a[k])
            if acc != h_row:
                raise SnfError(f"C @ A != H at row {i}")
        # Subtracting rows of H from a row of A until nothing is left writes
        # it in the lattice of H; on an echelon H the leading entry decides.
        by_lead = {min(h_row): h_row for h_row in h if h_row}
        for k, v in enumerate(a):
            while v:
                j = min(v)
                h_row = by_lead.get(j)
                if h_row is None or v[j] % h_row[j]:
                    raise SnfError(f"row {k} of A is not in the row lattice of H")
                _add(v, -(v[j] // h_row[j]), h_row)
        if self.snf.matrix != self.rows:
            raise SnfError("the Smith normal form is not that of H")


def echelon_basis(matrix: Sequence[Sequence[int]], n_cols: int) -> EchelonBasis:
    """Hermite basis of the row lattice, built one row at a time (Cohen, "A Course
    in Computational Algebraic Number Theory", 1993, §2.4) and self-checked.

    Each row of A is reduced against the pivot rows met so far, at its leading
    column: an exact multiple of the pivot row is subtracted; otherwise an
    extended-gcd step makes the gcd combination the pivot row and goes on with
    the remainder.  A new or changed pivot row is reduced modulo the pivots
    right of it, and the rows above it modulo it, which keeps the entries
    small (Kannan-Bachem, SIAM J. Comput. 8, 1979).  Every step is unimodular,
    so the kept rows span the lattice of A, and each row of C follows its row
    of H.  The Smith normal form of H checks itself as it is built, and
    `check_lattice` certifies the rest.
    """
    a = tuple(tuple(int(x) for x in row) for row in matrix)
    if any(len(row) != n_cols for row in a):
        raise ValueError("relation rows disagree with the generator count")
    basis: dict[int, tuple[dict[int, int], dict[int, int]]] = {}   # pivot -> (H row, C row)

    def reduce(j: int, columns: list[int]) -> None:
        # Bring each entry of pivot row j at these pivot columns into [0, pivot).
        h, hc = basis[j]
        for i in columns:
            if i in h:
                q = h[i] // basis[i][0][i]
                if q:
                    _add(h, -q, basis[i][0])
                    _add(hc, -q, basis[i][1])

    def settle(j: int) -> None:
        pivots = sorted(basis)
        later = [i for i in pivots if i > j]
        reduce(j, later)
        for i in pivots:
            if i < j:
                reduce(i, [j, *later])

    for k, row in enumerate(a):
        v, c = _sparse(row), {k: 1}
        while v:
            j = min(v)
            if j not in basis:
                sign = 1 if v[j] > 0 else -1
                basis[j] = _combine(sign, v, 0, {}), _combine(sign, c, 0, {})
                settle(j)
                break
            h, hc = basis[j]
            p, x = h[j], v[j]
            if x % p == 0:
                _add(v, -(x // p), h)
                _add(c, -(x // p), hc)
            else:
                g, s, t = _xgcd(p, x)
                basis[j] = _combine(s, h, t, v), _combine(s, hc, t, c)
                v, c = _combine(p // g, v, -(x // g), h), _combine(p // g, c, -(x // g), hc)
                settle(j)
    pivots = sorted(basis)
    h_rows = tuple(tuple(basis[j][0].get(i, 0) for i in range(n_cols)) for j in pivots)
    result = EchelonBasis(
        matrix=a,
        rows=h_rows,
        coefficients=tuple(tuple(sorted(basis[j][1].items())) for j in pivots),
        snf=smith_normal_form(h_rows, n_cols=n_cols),
    )
    result.check_lattice()
    return result


def cokernel_invariants(rows: Sequence[Sequence[int]], n_generators: int) -> list[int]:
    """Invariant factors of Z^n_generators modulo the given relation rows.

    Units are dropped; a 0 entry stands for one infinite cyclic summand.  The
    empty list therefore means the trivial group.
    """
    return echelon_basis(rows, n_generators).snf.cokernel_invariants()


def presented_group_order(rows: Sequence[Sequence[int]], n_generators: int) -> int | None:
    """Order of the abelian group presented by the rows, or None when infinite."""
    return echelon_basis(rows, n_generators).snf.cokernel_order()
