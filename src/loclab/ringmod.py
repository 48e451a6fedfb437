"""Finite commutative rings and the tensor-square localization criterion.

Every ring axiom is decided exhaustively on an integer table, whose rows the
constructors build directly: `add[a][b]` is the position of a + b.  The
quadratic laws are checked row by row, and the cubic laws on the rows of G,
the generators of (S, +) as a magma: each element, in order, outside the
+-closure of 0 and the earlier ones.  For every g in G and every a:

- (a+g)+c = a+(g+c) over c: the b obeying it are closed under + (Light's test);
- a(b+g) = ab+ag over b: then the g obeying it are closed under + as well;
- (ab)g = a(bg) over b: both sides are additive in g and agree on G.

If a generator row differs, every pair (a, b) is scanned in order, the first
differing row c by c, so the reported law and witness are those of a
triple-by-triple scan.

The tensor square of an algebra map phi: R -> S is presented on an additive
basis of S.  The greedy generators g_1..g_k of (S, +), k <= log2 |S|, and the
least m_i with m_i g_i in the span of the earlier ones give a triangular
k x k relation matrix, whose Smith normal form splits the additive group as
S = Z/d_1 b_1 + ... + Z/d_l b_l.  So S (x)_Z S is the sum of the cyclic
groups Z/gcd(d_i, d_j) on the pairs b_i (x) b_j.  The R-balancing relations
phi(r) b_i (x) b_j - b_i (x) phi(r) b_j, written in that basis, cut it down
to S (x)_R S; its order comes out of a certified basis of the relation
lattice (`snf.echelon_basis`).  The multiplication map (s, t) |-> s*t is a
surjective group homomorphism (it hits s at (s, 1)), so between finite groups
it is an isomorphism exactly when the orders match.  That order comparison is
the whole localization-existence verdict, and `LocalizationVerdict` carries
both orders with it: a Bousfield localization of the discrete structure on
the module category with fibrant replacement given by base change along phi
exists if and only if the multiplication map is an isomorphism.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product as iproduct
from math import gcd, prod

from .schema import RING_SPEC, check
from .snf import presented_group_order, smith_normal_form

DEFAULT_MAX_RING_SIZE = 16


class RingError(Exception):
    """Malformed ring data or violated precondition."""


@dataclass(frozen=True)
class FiniteRing:
    name: str
    elements: tuple[str, ...]
    add: Mapping   # (a, b) -> a + b
    mul: Mapping   # (a, b) -> a * b
    zero: str
    one: str
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise RingError(f"{self.name}: duplicate element labels")
        missing = {self.zero, self.one} - set(self.elements)
        if missing:
            raise RingError(f"{self.name}: zero/one not among elements: {missing}")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def table(self) -> RingTable:
        """The integer table, read once; a `RingError` if an entry is missing
        or outside the ring."""
        table = self._memoized("table", _read_table)
        if isinstance(table, RingReport):
            raise RingError(f"{self.name}: ring axiom {table.law} fails at {table.witness}")
        return table

    def plus(self, a: str, b: str) -> str:
        return self.add[(a, b)]

    def times(self, a: str, b: str) -> str:
        return self.mul[(a, b)]

    def _memoized(self, key: str, compute):
        """`compute(self)`, computed once for this instance."""
        if key not in self._memo:
            self._memo[key] = compute(self)
        return self._memo[key]


@dataclass(frozen=True)
class RingReport:
    ok: bool
    law: str | None = None
    witness: tuple = ()


@dataclass(frozen=True)
class RingTable:
    """A ring's operations on element positions: `add[a][b]` is the position
    of a + b, and `index` maps each element to its position."""
    index: dict[str, int]
    add: list[list[int]]
    mul: list[list[int]]
    zero: int
    one: int


class _RowView(Mapping):
    """An operation as (a, b) -> label, read off the integer rows; no entry is stored."""

    def __init__(self, elements: tuple[str, ...], index: dict[str, int], rows: list[list[int]]):
        self._elements, self._index, self._rows = elements, index, rows

    def __getitem__(self, pair):
        return self._elements[self._rows[self._index[pair[0]]][self._index[pair[1]]]]

    def __iter__(self):
        return iproduct(self._elements, repeat=2)

    def __len__(self) -> int:
        return len(self._elements) ** 2


def _ring_on_rows(name: str, elements: tuple[str, ...], add: list[list[int]],
                  mul: list[list[int]], zero: int, one: int) -> FiniteRing:
    """A ring built from its integer table, its `add` and `mul` views over the rows."""
    index = {e: i for i, e in enumerate(elements)}
    ring = FiniteRing(name, elements, _RowView(elements, index, add),
                      _RowView(elements, index, mul), elements[zero], elements[one])
    ring._memo["table"] = RingTable(index, add, mul, zero, one)
    return ring


def _read_table(ring: FiniteRing) -> RingTable | RingReport:
    """The integer table, or the first entry, `add` before `mul` and row by
    row, that is missing or outside the ring."""
    els = ring.elements
    index = {e: i for i, e in enumerate(els)}
    tables = []
    for name, op in (("add", ring.add), ("mul", ring.mul)):
        rows = []
        for a in els:
            row = [index.get(op.get((a, b))) for b in els]
            if None in row:
                b = els[row.index(None)]
                v = op.get((a, b))
                if v is None:
                    return RingReport(False, f"{name}-total", (a, b))
                return RingReport(False, f"{name}-closed", (a, b, v))
            rows.append(row)
        tables.append(rows)
    return RingTable(index, *tables, index[ring.zero], index[ring.one])


def validate_ring(ring: FiniteRing) -> RingReport:
    """Exhaustive commutative-ring axioms, decided on the integer table.

    The laws are checked in a fixed order and the first failure is reported
    with its witness: totality and closure of `add`, then of `mul`; for each
    a, the zero, the one and an additive inverse; for each (a, b), the two
    commutative laws; for each (a, b, c), additive and multiplicative
    associativity and distributivity.  The cubic laws are decided on the rows
    of the additive generators, and only a ring failing one is scanned pair by
    pair for its first failing triple (module docstring).

    >>> z3 = ring_zn(3)
    >>> broken = FiniteRing("Z/3, 2*2 = 2", z3.elements, z3.add,
    ...                     {**z3.mul, ("2", "2"): "2"}, "0", "1")
    >>> validate_ring(broken)
    RingReport(ok=False, law='distributive', witness=('2', '1', '1'))
    >>> validate_ring(z3)
    RingReport(ok=True, law=None, witness=())
    """
    table = ring._memoized("table", _read_table)
    if isinstance(table, RingReport):
        return table
    els = ring.elements
    add, mul, zero, one = table.add, table.mul, table.zero, table.one
    for a, (add_a, mul_a) in enumerate(zip(add, mul)):
        if add_a[zero] != a:
            return RingReport(False, "add-zero", (els[a],))
        if mul_a[one] != a:
            return RingReport(False, "mul-one", (els[a],))
        if zero not in add_a:
            return RingReport(False, "add-inverse", (els[a],))
    add_cols, mul_cols = list(map(list, zip(*add))), list(map(list, zip(*mul)))
    for a, (add_a, mul_a) in enumerate(zip(add, mul)):
        if add_a == add_cols[a] and mul_a == mul_cols[a]:
            continue
        for b in range(len(els)):
            if add_a[b] != add[b][a]:
                return RingReport(False, "add-commutative", (els[a], els[b]))
            if mul_a[b] != mul[b][a]:
                return RingReport(False, "mul-commutative", (els[a], els[b]))
    if cubic_laws_hold_on_generators(table):
        return RingReport(True)
    return _first_cubic_failure(table, els)


def cubic_laws_hold_on_generators(table: RingTable) -> bool:
    """Do both associative laws and distributivity hold, in a table that has
    a zero, a one, inverses and both commutative laws?  Decided on 3 n |G|
    rows, G the greedy generators of (S, +) as a magma (module docstring)."""
    add, mul = table.add, table.mul
    closure, generators = {table.zero}, []
    for g in range(len(add)):
        if g not in closure:
            generators.append(g)
            todo = [g]
            while todo:   # + is commutative, so x + y for each new x and each y will do
                x = todo.pop()
                closure.add(x)
                todo += {add[x][y] for y in closure} - closure
    for g in generators:
        add_g, mul_g = add[g], mul[g]
        for add_a, mul_a in zip(add, mul):
            times_a = mul_a.__getitem__
            if add[add_a[g]] != list(map(add_a.__getitem__, add_g)) \
               or list(map(times_a, add_g)) != list(map(add[mul_a[g]].__getitem__, mul_a)) \
               or list(map(mul_g.__getitem__, mul_a)) != list(map(times_a, mul_g)):
                return False   # (a+g)+c, a(b+g) or (ab)g differs over c or b
    return True


def _first_cubic_failure(table: RingTable, els: tuple[str, ...]) -> RingReport:
    """The first (a, b, c) breaking additive or multiplicative associativity
    or distributivity, in the order of a triple-by-triple scan."""
    add, mul = table.add, table.mul
    for a, (add_a, mul_a) in enumerate(zip(add, mul)):
        plus_a, times_a = add_a.__getitem__, mul_a.__getitem__
        for b, (add_b, mul_b) in enumerate(zip(add, mul)):
            sum_row, prod_row = add[add_a[b]], mul[mul_a[b]]   # (a+b)+c and (ab)c over c
            if sum_row == list(map(plus_a, add_b)) and prod_row == list(map(times_a, mul_b)) \
               and list(map(times_a, add_b)) == list(map(add[mul_a[b]].__getitem__, mul_a)):
                continue
            for c in range(len(els)):
                witness = (els[a], els[b], els[c])
                if sum_row[c] != add_a[add_b[c]]:
                    return RingReport(False, "add-associative", witness)
                if prod_row[c] != mul_a[mul_b[c]]:
                    return RingReport(False, "mul-associative", witness)
                if mul_a[add_b[c]] != add[mul_a[b]][mul_a[c]]:
                    return RingReport(False, "distributive", witness)
    return RingReport(True)


def require_valid_ring(ring: FiniteRing) -> None:
    """Raise unless the ring's `validate_ring` report, computed once per
    instance, passes."""
    report = ring._memoized("valid", validate_ring)
    if not report.ok:
        raise RingError(f"{ring.name}: ring axiom {report.law} fails at {report.witness}")


# -- constructors ------------------------------------------------------------------


def ring_zn(n: int, name: str | None = None) -> FiniteRing:
    if n < 1:
        raise RingError("Z/n needs n >= 1")
    return _ring_on_rows(name or f"Z/{n}", tuple(map(str, range(n))),
                         [[(a + b) % n for b in range(n)] for a in range(n)],
                         [[a * b % n for b in range(n)] for a in range(n)], 0, 1 % n)


def _mixed_radix(rows: list[list[int]], factor_rows: list[list[int]]) -> list[list[int]]:
    """The componentwise table on pairs (x, y) of a table and an m-row one, (x, y) at x m + y."""
    m = len(factor_rows)
    return [[x * m + y for x in row for y in f_row] for row in rows for f_row in factor_rows]


def ring_product(factors: list[FiniteRing], name: str | None = None) -> FiniteRing:
    if not factors:
        raise RingError("empty product")
    add = mul = [[0]]   # the one-element ring
    zero = one = 0
    for r in factors:
        table = r.table
        add, mul = _mixed_radix(add, table.add), _mixed_radix(mul, table.mul)
        zero, one = zero * r.order + table.zero, one * r.order + table.one
    return _ring_on_rows(name or "x".join(r.name for r in factors),
                         tuple("(" + ",".join(xs) + ")"
                               for xs in iproduct(*(r.elements for r in factors))),
                         add, mul, zero, one)


def ring_polyquo(n: int, poly: list[int], name: str | None = None) -> FiniteRing:
    """(Z/n)[x] modulo a monic polynomial, elements as coefficient tuples
    (c_0, ..., c_{deg-1}) at position sum c_i n^(deg-1-i)."""
    if n < 1:
        raise RingError("(Z/n)[x] needs n >= 1")
    if not poly or poly[-1] % n != 1:
        raise RingError("modulus must be monic over Z/n")
    deg = len(poly) - 1
    if deg < 1:
        raise RingError("modulus must have positive degree")
    reduction = [(-c) % n for c in poly[:-1]]   # x^deg = sum reduction[i] x^i

    def label(coeffs):
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                terms.append(xpow if c == 1 else f"{c}{xpow}")
        return "+".join(terms) if terms else "0"

    carriers = list(iproduct(range(n), repeat=deg))
    position = {c: i for i, c in enumerate(carriers)}
    add = [[0]]
    for _ in range(deg):
        add = _mixed_radix(add, [[(a + b) % n for b in range(n)] for a in range(n)])
    times_x = [position[tuple((c[-1] * r + s) % n for r, s in zip(reduction, (0,) + c[:-1]))]
               for c in carriers]
    monomials = [list(range(len(carriers)))]   # row j: b |-> x^j b
    for _ in range(deg - 1):
        monomials.append([times_x[b] for b in monomials[-1]])
    mul = [[0] * len(carriers)]
    for c in carriers[1:]:   # a b = (a - x^j) b + x^j b, for the last j with c_j != 0
        j = max(i for i, x in enumerate(c) if x)
        lower = mul[len(mul) - n ** (deg - 1 - j)]
        mul.append([add[u][v] for u, v in zip(lower, monomials[j])])
    return _ring_on_rows(
        name or f"(Z/{n})[x]/({label(tuple(poly[:-1]))}+{'x' if deg == 1 else f'x^{deg}'})",
        tuple(map(label, carriers)), add, mul, 0, position[(1,) + (0,) * (deg - 1)])


def ring_from_spec(spec: dict, max_size: int = DEFAULT_MAX_RING_SIZE) -> FiniteRing:
    """Build and validate a ring from its JSON spec.

    The spec is checked against `schema.RING_SPEC`, and the order it
    describes is compared with `max_size`, before the ring's tables are built.
    """
    check(RING_SPEC, spec, "ring spec", RingError)
    kind, name = spec["kind"], spec.get("name")
    label = spec.get("name", kind)

    def capped(order: int, prefix: str = "") -> None:
        if order > max_size:
            raise RingError(f"{label}: {prefix}{order} elements exceeds the cap of {max_size}")

    def square(rows: list, els: list[str], field: str) -> dict:
        n = len(els)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise RingError(f"malformed ring spec: {field} must be {n} arrays of {n} entries")
        return {(els[i], els[j]): v for i, row in enumerate(rows) for j, v in enumerate(row)}

    if kind == "zn":
        capped(spec["n"])
        ring = ring_zn(spec["n"], name)
    elif kind == "product":
        factors, order = [], 1
        for i, factor in enumerate(spec["factors"], 1):   # refused once a prefix is too large
            factors.append(ring_from_spec(factor, max_size))
            order *= factors[-1].order
            capped(order, "" if i == len(spec["factors"]) else "at least ")
        ring = ring_product(factors, name)
        # Both tables are built componentwise, so each law holds in the
        # product iff it holds in every factor, and each factor passed.
        ring._memo["valid"] = RingReport(True)
    elif kind == "polyquo":
        n, deg = spec["base"]["n"], len(spec["poly"]) - 1
        if n >= 2 and deg >= 1:   # ring_polyquo refuses any other n and deg
            # n^deg >= 2^(deg (bits(n) - 1)) > max_size, decided without the power
            if deg * (n.bit_length() - 1) > max_size.bit_length():
                raise RingError(f"{label}: {n}^{deg} elements exceeds the cap of {max_size}")
            capped(n ** deg)
        ring = ring_polyquo(n, spec["poly"], name)
    else:   # "tables"
        els = spec["elements"]
        capped(len(els))
        ring = FiniteRing(label, tuple(els), square(spec["add"], els, "add"),
                          square(spec["mul"], els, "mul"), spec["zero"], spec["one"])
    require_valid_ring(ring)
    return ring


# -- homomorphisms -------------------------------------------------------------------


@dataclass(frozen=True)
class RingHom:
    domain: FiniteRing
    codomain: FiniteRing
    map: dict

    def __call__(self, a: str) -> str:
        return self.map[a]


def validate_ring_hom(hom: RingHom) -> RingReport:
    """Totality, image, zero and one on the map itself, then additivity and
    multiplicativity at every (a, b), row by row on the integer tables."""
    r, s, h = hom.domain, hom.codomain, hom.map
    r_table, s_table = r.table, s.table
    for a in r.elements:
        if a not in h:
            return RingReport(False, "hom-total", (a,))
        if h[a] not in s_table.index:
            return RingReport(False, "hom-image", (a, h[a]))
    if h[r.zero] != s.zero:
        return RingReport(False, "hom-zero", ())
    if h[r.one] != s.one:
        return RingReport(False, "hom-one", ())
    image = [s_table.index[h[a]] for a in r.elements]
    at = image.__getitem__
    for a, x in enumerate(image):
        sums, prods = list(map(at, r_table.add[a])), list(map(at, r_table.mul[a]))
        s_add_x, s_mul_x = s_table.add[x], s_table.mul[x]
        if sums == list(map(s_add_x.__getitem__, image)) and \
           prods == list(map(s_mul_x.__getitem__, image)):
            continue
        for b, y in enumerate(image):
            if sums[b] != s_add_x[y]:
                return RingReport(False, "hom-add", (r.elements[a], r.elements[b]))
            if prods[b] != s_mul_x[y]:
                return RingReport(False, "hom-mul", (r.elements[a], r.elements[b]))
    return RingReport(True)


def require_valid_hom(hom: RingHom) -> None:
    require_valid_ring(hom.domain)
    require_valid_ring(hom.codomain)
    report = validate_ring_hom(hom)
    if not report.ok:
        raise RingError(f"ring map violates {report.law} at {report.witness}")


# -- tensor square and the localization verdict ------------------------------------------


@dataclass(frozen=True)
class AbPresentation:
    """Free abelian group on `generator_count` generators modulo relation rows."""
    generator_count: int
    relations: tuple[tuple[int, ...], ...]

    def order(self) -> int | None:
        return presented_group_order(self.relations, self.generator_count)


@dataclass(frozen=True)
class TensorSquare:
    hom: RingHom
    generators: tuple[tuple[str, str], ...]   # (g_i, g_j) basis-label pairs
    presentation: AbPresentation
    order: int


def additive_basis(ring: FiniteRing) -> tuple[tuple[int, ...], dict[str, tuple[int, ...]]]:
    """The additive group of the ring as Z/d_1 + ... + Z/d_l, each d_i > 1.

    Greedy generators g_1..g_k (k <= log2 n), each outside H_{i-1}, the
    subgroup the earlier ones span, and the least m_i with m_i g_i in H_{i-1},
    at coordinates r_i there, give the triangular k x k relation matrix R with
    rows m_i e_i - r_i.  It presents (S, +): each row, added up in the table,
    is 0; the n vectors c with 0 <= c_i < m_i reach n distinct elements; and
    the self-checked Smith normal form U R V = D has cokernel order n.  The
    d_i are its non-unit diagonal entries, and the element with coefficients
    c has coordinates c V, each taken mod its d_i.

    >>> additive_basis(ring_product([ring_zn(2), ring_zn(4)]))[0]
    (2, 4)
    """
    table = ring.table
    add, n = table.add, ring.order
    span = {table.zero: ()}   # H_i: element -> coefficients c, 0 <= c_j < m_j
    generators, relations = [], []
    for g in range(n):
        if g in span:
            continue
        multiples = [table.zero, g]   # j g
        while multiples[-1] not in span:
            multiples.append(add[multiples[-1]][g])
        m = len(multiples) - 1
        generators.append(g)
        relations.append([-c for c in span[multiples[m]]] + [m])
        span = {add[h][x]: c + (j,) for h, c in span.items() for j, x in enumerate(multiples[:m])}

    def total(coefficients) -> int:   # the sum of c_j g_j, each c_j >= 0, in the table
        x = table.zero
        for c, g in zip(coefficients, generators):
            for _ in range(c):
                x = add[x][g]
        return x

    k = len(relations)
    snf = smith_normal_form([row + [0] * (k - len(row)) for row in relations], n_cols=k)
    if any(total([max(c, 0) for c in row]) != total([max(-c, 0) for c in row])
           for row in relations) or prod(row[-1] for row in relations) != len(span) \
       or snf.cokernel_order() != n:
        raise RingError(f"{ring.name}: the additive presentation on {k} generators "
                        f"fails its check")
    kept = [i for i, d in enumerate(snf.diagonal) if d != 1]
    orders = tuple(snf.diagonal[i] for i in kept)
    columns = [[row[i] for row in snf.v] for i in kept]
    coords = {e: tuple(sum(x * y for x, y in zip(span[a], col)) % d
                       for col, d in zip(columns, orders)) for a, e in enumerate(ring.elements)}
    return orders, coords


def tensor_square(hom: RingHom) -> TensorSquare:
    """S (x)_R S presented on the pairs g_i (x) g_j of an additive basis of S.

    With S = Z/d_1 g_1 + ... + Z/d_k g_k (`additive_basis`), the relations
    are gcd(d_i, d_j) (g_i (x) g_j) and, for each distinct c = phi(r),
    (c g_i) (x) g_j - g_i (x) (c g_j) written in coordinates.  The balancing
    relation is additive in r, s and t, so basis pairs and distinct images
    give all of them.  Entries are reduced mod their column's gcd, and
    duplicate and zero rows are dropped before the cokernel is computed.
    """
    require_valid_hom(hom)
    s_ring = hom.codomain
    orders, coords = additive_basis(s_ring)
    k = len(orders)
    by_coords = {v: e for e, v in coords.items()}
    basis = [by_coords[tuple(int(a == i) for a in range(k))] for i in range(k)]
    moduli = [gcd(di, dj) for di in orders for dj in orders]

    rows = {tuple(m if g == h else 0 for h in range(k * k)) for g, m in enumerate(moduli)}
    for c in {hom(r) for r in hom.domain.elements}:
        cg = [coords[s_ring.times(c, g)] for g in basis]   # c g_i in coordinates
        for i in range(k):
            for j in range(k):
                row = [0] * (k * k)
                for a, x in enumerate(cg[i]):
                    row[a * k + j] += x
                for b, y in enumerate(cg[j]):
                    row[i * k + b] -= y
                row = [x % m for x, m in zip(row, moduli)]
                if any(row):
                    rows.add(tuple(row))

    presentation = AbPresentation(k * k, tuple(sorted(rows)))
    order = presentation.order()
    if order is None:
        raise RingError("tensor square came out infinite; relation matrix is defective")
    generators = tuple((gi, gj) for gi in basis for gj in basis)
    return TensorSquare(hom, generators, presentation, order)


@dataclass(frozen=True)
class LocalizationVerdict:
    exists: bool
    tensor_order: int   # |S (x)_R S|
    ring_order: int     # |S|
    statement: str


def localization_exists_verdict(hom: RingHom) -> LocalizationVerdict:
    """Is the multiplication map S (x)_R S -> S an isomorphism?

    It is onto (s is hit by (s, 1)), so between finite groups it is an
    isomorphism exactly when |S (x)_R S| = |S|.
    """
    order, ring_order = tensor_square(hom).order, hom.codomain.order
    r, s = hom.domain.name, hom.codomain.name
    if order == ring_order:
        statement = (f"a Bousfield localization of the discrete model structure on "
                     f"Mod({r}) with fibrant replacement -(x){s} exists "
                     f"(tensor-square order {order} = |{s}|)")
    else:
        statement = (f"no Bousfield localization of the discrete model structure on "
                     f"Mod({r}) has fibrant replacement -(x){s} "
                     f"(tensor-square order {order} != |{s}| = {ring_order})")
    return LocalizationVerdict(order == ring_order, order, ring_order, statement)
