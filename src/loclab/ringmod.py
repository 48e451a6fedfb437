"""Finite commutative rings and the tensor-square localization criterion.

The tensor square of an algebra map phi: R -> S is presented on an additive
basis of S.  The Smith normal form of the relations [a] + [b] - [a+b] splits
the additive group as S = Z/d_1 g_1 + ... + Z/d_k g_k with k <= log2 |S|, so
S (x)_Z S is the sum of the cyclic groups Z/gcd(d_i, d_j) on the k^2 pairs
g_i (x) g_j.  The R-balancing relations phi(r) g_i (x) g_j - g_i (x) phi(r) g_j,
written in that basis, cut it down to S (x)_R S; its order comes out of a
certified basis of the relation lattice (`snf.echelon_basis`).  The
multiplication map (s, t) |-> s*t is a surjective group homomorphism (it hits
s at (s, 1)), so between finite groups it is an isomorphism exactly when the
orders match.  That order comparison is the whole localization-existence
verdict: a Bousfield localization of the discrete structure on the module
category with fibrant replacement given by base change along phi exists if
and only if the multiplication map is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from math import gcd, prod

from .snf import presented_group_order, smith_normal_form

DEFAULT_MAX_RING_SIZE = 16


class RingError(Exception):
    """Malformed ring data or violated precondition."""


@dataclass(frozen=True)
class FiniteRing:
    name: str
    elements: tuple[str, ...]
    add: dict      # (a, b) -> a + b
    mul: dict      # (a, b) -> a * b
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


def validate_ring(ring: FiniteRing) -> RingReport:
    """Exhaustive commutative-ring axioms over the tables."""
    els = ring.elements
    members = set(els)
    for table, op in (("add", ring.add), ("mul", ring.mul)):
        for a in els:
            for b in els:
                v = op.get((a, b))
                if v is None:
                    return RingReport(False, f"{table}-total", (a, b))
                if v not in members:
                    return RingReport(False, f"{table}-closed", (a, b, v))
    for a in els:
        if ring.plus(a, ring.zero) != a:
            return RingReport(False, "add-zero", (a,))
        if ring.times(a, ring.one) != a:
            return RingReport(False, "mul-one", (a,))
        if not any(ring.plus(a, b) == ring.zero for b in els):
            return RingReport(False, "add-inverse", (a,))
    for a in els:
        for b in els:
            if ring.plus(a, b) != ring.plus(b, a):
                return RingReport(False, "add-commutative", (a, b))
            if ring.times(a, b) != ring.times(b, a):
                return RingReport(False, "mul-commutative", (a, b))
    for a in els:
        for b in els:
            for c in els:
                if ring.plus(ring.plus(a, b), c) != ring.plus(a, ring.plus(b, c)):
                    return RingReport(False, "add-associative", (a, b, c))
                if ring.times(ring.times(a, b), c) != ring.times(a, ring.times(b, c)):
                    return RingReport(False, "mul-associative", (a, b, c))
                if ring.times(a, ring.plus(b, c)) != \
                   ring.plus(ring.times(a, b), ring.times(a, c)):
                    return RingReport(False, "distributive", (a, b, c))
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
    els = tuple(str(i) for i in range(n))
    return FiniteRing(
        name or f"Z/{n}",
        els,
        {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)},
        {(str(a), str(b)): str((a * b) % n) for a in range(n) for b in range(n)},
        "0", "1" if n > 1 else "0",
    )


def ring_product(factors: list[FiniteRing], name: str | None = None) -> FiniteRing:
    if not factors:
        raise RingError("empty product")
    labels = list(iproduct(*(r.elements for r in factors)))

    def lab(tup):
        return "(" + ",".join(tup) + ")"

    add = {}
    mul = {}
    for xs in labels:
        for ys in labels:
            add[(lab(xs), lab(ys))] = lab(tuple(r.plus(x, y) for r, x, y in zip(factors, xs, ys)))
            mul[(lab(xs), lab(ys))] = lab(tuple(r.times(x, y) for r, x, y in zip(factors, xs, ys)))
    return FiniteRing(
        name or "x".join(r.name for r in factors),
        tuple(lab(xs) for xs in labels),
        add, mul,
        lab(tuple(r.zero for r in factors)),
        lab(tuple(r.one for r in factors)),
    )


def ring_polyquo(n: int, poly: list[int], name: str | None = None) -> FiniteRing:
    """(Z/n)[x] modulo a monic polynomial, elements as coefficient tuples."""
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

    def reduce_poly(coeffs):
        coeffs = [c % n for c in coeffs]
        while len(coeffs) > deg:
            top = coeffs.pop()
            for i, r in enumerate(reduction):
                coeffs[len(coeffs) - deg + i] = (coeffs[len(coeffs) - deg + i] + top * r) % n
        while len(coeffs) < deg:
            coeffs.append(0)
        return tuple(coeffs)

    carriers = [tuple(c) for c in iproduct(range(n), repeat=deg)]
    add = {}
    mul = {}
    for xs in carriers:
        for ys in carriers:
            s = tuple((a + b) % n for a, b in zip(xs, ys))
            prod = [0] * (2 * deg - 1)
            for i, a in enumerate(xs):
                for j, b in enumerate(ys):
                    prod[i + j] += a * b
            add[(label(xs), label(ys))] = label(s)
            mul[(label(xs), label(ys))] = label(reduce_poly(prod))
    return FiniteRing(
        name or f"(Z/{n})[x]/({label(tuple(poly[:-1]))}+{'x' if deg == 1 else f'x^{deg}'})",
        tuple(label(xs) for xs in carriers),
        add, mul,
        label((0,) * deg),
        label((1,) + (0,) * (deg - 1)),
    )


def ring_from_spec(spec: dict, max_size: int = DEFAULT_MAX_RING_SIZE) -> FiniteRing:
    """Build and validate a ring from its JSON spec.

    The order the spec describes is compared with `max_size` before the
    ring's tables are built, and a spec with missing or ill-typed fields is a
    `RingError`.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise RingError("ring spec must be an object with a 'kind' field")
    kind = spec["kind"]

    def capped(order: int) -> None:
        if order > max_size:
            raise RingError(f"{spec.get('name', kind)}: {order} elements exceeds the cap "
                            f"of {max_size}")

    def integer(value, field: str) -> int:
        if type(value) is not int:   # refuse floats, strings, bools
            raise RingError(f"malformed {kind!r} ring spec: {field} must be an integer, "
                            f"got {value!r}")
        return value

    try:
        if kind == "zn":
            n = integer(spec["n"], "n")
            capped(n)
            ring = ring_zn(n, spec.get("name"))
        elif kind == "product":
            factors = [ring_from_spec(s, max_size) for s in spec["factors"]]
            capped(prod(r.order for r in factors))
            ring = ring_product(factors, spec.get("name"))
            # Both tables are built componentwise, so each law holds in the
            # product iff it holds in every factor, and each factor passed.
            ring._memo["valid"] = RingReport(True)
        elif kind == "polyquo":
            base = spec["base"]
            if not isinstance(base, dict) or base.get("kind") != "zn":
                raise RingError("polyquo base must be a zn spec")
            n = integer(base["n"], "base n")
            poly = [integer(c, f"poly[{i}]") for i, c in enumerate(spec["poly"])]
            capped(n ** (len(poly) - 1))
            ring = ring_polyquo(n, poly, spec.get("name"))
        elif kind == "tables":
            els = [str(e) for e in spec["elements"]]
            capped(len(els))
            add = {(els[i], els[j]): str(spec["add"][i][j])
                   for i in range(len(els)) for j in range(len(els))}
            mul = {(els[i], els[j]): str(spec["mul"][i][j])
                   for i in range(len(els)) for j in range(len(els))}
            ring = FiniteRing(str(spec.get("name", "tables")), tuple(els), add, mul,
                              str(spec["zero"]), str(spec["one"]))
        else:
            raise RingError(f"unknown ring spec kind {kind!r}")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise RingError(f"malformed {kind!r} ring spec: {type(exc).__name__}: {exc}") from exc
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
    r, s, h = hom.domain, hom.codomain, hom.map
    targets = set(s.elements)
    for a in r.elements:
        if a not in h:
            return RingReport(False, "hom-total", (a,))
        if h[a] not in targets:
            return RingReport(False, "hom-image", (a, h[a]))
    if h[r.zero] != s.zero:
        return RingReport(False, "hom-zero", ())
    if h[r.one] != s.one:
        return RingReport(False, "hom-one", ())
    for a in r.elements:
        for b in r.elements:
            if h[r.plus(a, b)] != s.plus(h[a], h[b]):
                return RingReport(False, "hom-add", (a, b))
            if h[r.times(a, b)] != s.times(h[a], h[b]):
                return RingReport(False, "hom-mul", (a, b))
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
    """The additive group of the ring as Z/d_1 + ... + Z/d_k, each d_i > 1.

    It is the free abelian group on the elements modulo [a] + [b] - [a+b].
    The Smith normal form U A V = D of those relations gives the d_i as the
    non-unit diagonal entries, and the coordinates of element e as row e of
    V, each taken mod its d_i.  Returns the d_i and the coordinates.
    """
    els = ring.elements
    n = len(els)
    index = {e: i for i, e in enumerate(els)}
    rows: set[tuple[int, ...]] = set()
    for i, a in enumerate(els):
        for b in els[i:]:
            row = [0] * n
            row[i] += 1
            row[index[b]] += 1
            row[index[ring.plus(a, b)]] -= 1
            rows.add(tuple(row))
    snf = smith_normal_form(sorted(rows), n_cols=n)
    order = snf.cokernel_order()
    if order != n:
        raise RingError(f"{ring.name}: additive presentation has order {order}, not {n}")
    kept = [i for i, d in enumerate(snf.diagonal) if d != 1]
    orders = tuple(snf.diagonal[i] for i in kept)
    coords = {e: tuple(snf.v[index[e]][i] % snf.diagonal[i] for i in kept) for e in els}
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
        for i, gi in enumerate(basis):
            for j, gj in enumerate(basis):
                row = [0] * (k * k)
                for a, x in enumerate(coords[s_ring.times(c, gi)]):
                    row[a * k + j] += x
                for b, y in enumerate(coords[s_ring.times(c, gj)]):
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
class MultMapReport:
    iso: bool
    tensor_order: int
    ring_order: int


def mult_map_is_iso(hom: RingHom) -> MultMapReport:
    """Is the multiplication map out of the tensor square an isomorphism?

    It is onto (s is hit by (s, 1)), so between finite groups it is an
    isomorphism exactly when |S (x)_R S| = |S|.
    """
    square = tensor_square(hom)
    return MultMapReport(square.order == hom.codomain.order,
                         square.order, hom.codomain.order)


@dataclass(frozen=True)
class LocalizationVerdict:
    exists: bool
    mult: MultMapReport
    statement: str


def localization_exists_verdict(hom: RingHom) -> LocalizationVerdict:
    mult = mult_map_is_iso(hom)
    r, s = hom.domain.name, hom.codomain.name
    if mult.iso:
        statement = (f"a Bousfield localization of the discrete model structure on "
                     f"Mod({r}) with fibrant replacement -(x){s} exists "
                     f"(tensor-square order {mult.tensor_order} = |{s}|)")
    else:
        statement = (f"no Bousfield localization of the discrete model structure on "
                     f"Mod({r}) has fibrant replacement -(x){s} "
                     f"(tensor-square order {mult.tensor_order} != |{s}| = {mult.ring_order})")
    return LocalizationVerdict(mult.iso, mult, statement)
