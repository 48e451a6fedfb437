"""Finite commutative rings and the tensor-square localization criterion.

The tensor square of an algebra map phi: R -> S is presented as the free
abelian group on S x S modulo biadditivity and R-balancing relations; its
order comes out of the Smith normal form of the relation matrix.  The
multiplication map (s, t) |-> s*t is a surjective group homomorphism (it hits
s at (s, 1)), so between finite groups it is an isomorphism exactly when the
orders match.  That order comparison is the whole localization-existence
verdict: a Bousfield localization of the discrete structure on the module
category with fibrant replacement given by base change along phi exists if
and only if the multiplication map is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import prod

from .snf import cokernel_invariants, presented_group_order

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


@dataclass(frozen=True)
class RingReport:
    ok: bool
    law: str | None = None
    witness: tuple = ()


def validate_ring(ring: FiniteRing) -> RingReport:
    """Exhaustive commutative-ring axioms over the tables."""
    els = ring.elements
    for table, op in (("add", ring.add), ("mul", ring.mul)):
        for a in els:
            for b in els:
                v = op.get((a, b))
                if v is None:
                    return RingReport(False, f"{table}-total", (a, b))
                if v not in set(els):
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
    report = validate_ring(ring)
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

    try:
        if kind == "zn":
            n = int(spec["n"])
            capped(n)
            ring = ring_zn(n, spec.get("name"))
        elif kind == "product":
            factors = [ring_from_spec(s, max_size) for s in spec["factors"]]
            capped(prod(r.order for r in factors))
            ring = ring_product(factors, spec.get("name"))
        elif kind == "polyquo":
            base = spec["base"]
            if not isinstance(base, dict) or base.get("kind") != "zn":
                raise RingError("polyquo base must be a zn spec")
            n, poly = int(base["n"]), [int(c) for c in spec["poly"]]
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
    for a in r.elements:
        if a not in h:
            return RingReport(False, "hom-total", (a,))
        if h[a] not in set(s.elements):
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


def ring_homs(domain: FiniteRing, codomain: FiniteRing) -> tuple[dict, ...]:
    """All unital ring homomorphisms, by pruned backtracking over the elements."""
    els = list(domain.elements)
    codomain_els = codomain.elements
    assignment: dict = {domain.zero: codomain.zero, domain.one: codomain.one}

    def consistent(a: str) -> bool:
        for b in els:
            if b not in assignment:
                continue
            for x, y in ((a, b), (b, a)):
                s = domain.plus(x, y)
                if s in assignment and assignment[s] != codomain.plus(assignment[x], assignment[y]):
                    return False
                p = domain.times(x, y)
                if p in assignment and assignment[p] != codomain.times(assignment[x], assignment[y]):
                    return False
        return True

    if not consistent(domain.zero) or not consistent(domain.one):
        return ()
    todo = [e for e in els if e not in assignment]
    found: list[dict] = []

    def search(i: int) -> None:
        if i == len(todo):
            found.append(dict(assignment))
            return
        a = todo[i]
        for v in codomain_els:
            assignment[a] = v
            if consistent(a):
                search(i + 1)
            del assignment[a]

    search(0)
    return tuple(found)


# -- tensor square and the localization verdict ------------------------------------------


@dataclass(frozen=True)
class AbPresentation:
    """Free abelian group on `generator_count` generators modulo relation rows."""
    generator_count: int
    relations: tuple[tuple[int, ...], ...]

    def invariant_factors(self) -> list[int]:
        return cokernel_invariants(self.relations, self.generator_count)

    def order(self) -> int | None:
        return presented_group_order(self.relations, self.generator_count)

    def is_finite(self) -> bool:
        return self.order() is not None


@dataclass(frozen=True)
class TensorSquare:
    hom: RingHom
    generators: tuple[tuple[str, str], ...]   # (s, t) pair labels
    presentation: AbPresentation
    order: int


def tensor_square(hom: RingHom) -> TensorSquare:
    """S (x)_R S presented on generators S x S.

    Relations: (s+s', t) - (s, t) - (s', t), (s, t+t') - (s, t) - (s, t'),
    and (phi(r) s, t) - (s, phi(r) t) for all r, s, t.  Duplicate and zero
    rows are dropped before the Smith normal form.
    """
    require_valid_hom(hom)
    s_ring = hom.codomain
    els = s_ring.elements
    n = len(els)
    index = {e: i for i, e in enumerate(els)}

    def gen(a: str, b: str) -> int:
        return index[a] * n + index[b]

    rows: set[tuple[int, ...]] = set()

    def add_row(entries: list) -> None:
        row = [0] * (n * n)
        for g, c in entries:
            row[g] += c
        if any(row):
            rows.add(tuple(row))

    for a in els:
        for b in els:
            for t in els:
                add_row([(gen(s_ring.plus(a, b), t), 1), (gen(a, t), -1), (gen(b, t), -1)])
                add_row([(gen(t, s_ring.plus(a, b)), 1), (gen(t, a), -1), (gen(t, b), -1)])
    for r in hom.domain.elements:
        c = hom(r)
        for a in els:
            for b in els:
                add_row([(gen(s_ring.times(c, a), b), 1), (gen(a, s_ring.times(c, b)), -1)])

    presentation = AbPresentation(n * n, tuple(sorted(rows)))
    order = presentation.order()
    if order is None:
        raise RingError("tensor square came out infinite; relation matrix is defective")
    generators = tuple((a, b) for a in els for b in els)
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
