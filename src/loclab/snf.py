"""Smith normal form over the integers, with explicit self-checking transforms.

The reduction keeps four transform matrices (U, Uinv, V, Vinv) in step with the
working matrix, so that on return

    U @ A @ V == D          Uinv @ D @ Vinv == A          V @ Vinv == I

all hold exactly.  Those identities, together with D being diagonal with a
divisibility chain, certify the invariant factors of the cokernel Z^n / <rows
of A> without trusting the reduction path itself; `SnfResult.check` re-multiplies
them and is run on every call.  Entries are Python ints, so intermediate growth
during the Euclidean steps is harmless.

>>> smith_normal_form([[2, 4], [6, 8]]).diagonal
[2, 4]
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


def cokernel_invariants(rows: Sequence[Sequence[int]], n_generators: int) -> list[int]:
    """Invariant factors of Z^n_generators modulo the given relation rows.

    Units are dropped; a 0 entry stands for one infinite cyclic summand.  The
    empty list therefore means the trivial group.
    """
    if not rows:
        return [0] * n_generators
    return smith_normal_form(rows, n_cols=n_generators).cokernel_invariants()


def presented_group_order(rows: Sequence[Sequence[int]], n_generators: int) -> int | None:
    """Order of the abelian group presented by the rows, or None when infinite."""
    if not rows:
        return 1 if n_generators == 0 else None
    return smith_normal_form(rows, n_cols=n_generators).cokernel_order()
