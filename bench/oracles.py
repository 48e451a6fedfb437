"""Independent computations the benchmark checks loclab's reports against.

Nothing here imports loclab.  Every answer is recomputed by a different,
plainer route: subsets of a finite order are tried one by one, lifting
problems are decided by the order relation alone, reflections by hom-set
bijections on the raw composition table, and the algebraic counts come from
closed forms.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import gcd, prod


# -- finite orders and lattices -----------------------------------------------------


class Poset:
    """A finite partial order on string labels, given by its relation."""

    def __init__(self, name: str, elements, leq_pairs):
        self.name = name
        self.elements = tuple(elements)
        self.le = frozenset(leq_pairs) | {(x, x) for x in self.elements}

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.le

    def _extreme(self, candidates, below: bool):
        for x in candidates:
            if all(self.leq(y, x) if below else self.leq(x, y) for y in candidates):
                return x
        return None

    def meet(self, a: str, b: str):
        lower = [x for x in self.elements if self.leq(x, a) and self.leq(x, b)]
        return self._extreme(lower, below=True)

    def join(self, a: str, b: str):
        upper = [x for x in self.elements if self.leq(a, x) and self.leq(b, x)]
        return self._extreme(upper, below=False)

    @property
    def top(self):
        return self._extreme(self.elements, below=True)

    @property
    def bottom(self):
        return self._extreme(self.elements, below=False)

    def is_lattice(self) -> bool:
        return bool(self.elements) and all(
            self.meet(a, b) is not None and self.join(a, b) is not None
            for a in self.elements for b in self.elements)

    def arrows(self):
        """Non-identity comparable pairs, which become the morphisms m_a_b."""
        return [(a, b) for a in self.elements for b in self.elements
                if a != b and self.leq(a, b)]

    def to_category_json(self) -> dict:
        """The order as a loclab category file; identities are left implicit."""
        arrows = self.arrows()
        composites = [{"g": mor_id(b, c), "f": mor_id(a, b), "gf": mor_id(a, c)}
                      for (a, b) in arrows for (b2, c) in arrows if b2 == b]
        return {"name": self.name, "objects": list(self.elements),
                "morphisms": [{"id": mor_id(a, b), "src": a, "dst": b} for a, b in arrows],
                "compose": composites}


def mor_id(a: str, b: str) -> str:
    return f"id_{a}" if a == b else f"m_{a}_{b}"


def _subsets(elements):
    n = len(elements)
    for mask in range(1 << n):
        yield frozenset(elements[i] for i in range(n) if mask >> i & 1)


def closure_systems(poset: Poset) -> set[frozenset]:
    """Subsets that contain the top and are closed under binary meets."""
    top = poset.top
    return {s for s in _subsets(poset.elements)
            if top in s and all(poset.meet(a, b) in s for a in s for b in s)}


def coclosure_systems(poset: Poset) -> set[frozenset]:
    """Subsets that contain the bottom and are closed under binary joins."""
    bottom = poset.bottom
    return {s for s in _subsets(poset.elements)
            if bottom in s and all(poset.join(a, b) in s for a in s for b in s)}


def closure(poset: Poset, members) -> dict:
    """x -> the least member above x (the reflection), or None if there is none."""
    out = {}
    for x in poset.elements:
        above = [s for s in members if poset.leq(x, s)]
        out[x] = poset._extreme(above, below=False)
    return out


def interior(poset: Poset, members) -> dict:
    """x -> the greatest member below x (the coreflection)."""
    out = {}
    for x in poset.elements:
        below = [s for s in members if poset.leq(s, x)]
        out[x] = poset._extreme(below, below=True)
    return out


def localization_classes(poset: Poset, members) -> dict:
    """cof / we / fib of the localization whose fibrant objects are `members`.

    we: the maps a -> b with cl(a) = cl(b).  fib: the right lifting class of we,
    decided on the order itself (a square a->x, b->y commutes whenever it
    exists, and a lift b -> x exists iff b <= x).
    """
    cl = closure(poset, members)
    pairs = [(a, b) for a in poset.elements for b in poset.elements if poset.leq(a, b)]
    we = [(a, b) for a, b in pairs if cl[a] == cl[b]]
    fib = [(x, y) for x, y in pairs
           if all(poset.leq(b, x) for a, b in we if poset.leq(a, x) and poset.leq(b, y))]
    return {"cof": _ids(pairs), "we": _ids(we), "fib": _ids(fib)}


def colocalization_classes(poset: Poset, members) -> dict:
    """cof / we / fib of the colocalization whose coreflective objects are `members`."""
    co = interior(poset, members)
    pairs = [(a, b) for a in poset.elements for b in poset.elements if poset.leq(a, b)]
    we = [(a, b) for a, b in pairs if co[a] == co[b]]
    cof = [(x, y) for x, y in pairs
           if all(poset.leq(y, a) for a, b in we if poset.leq(x, a) and poset.leq(y, b))]
    return {"cof": _ids(cof), "we": _ids(we), "fib": _ids(pairs)}


def _ids(pairs) -> list:
    return sorted(mor_id(a, b) for a, b in pairs)


def hasse_edges(classes: list) -> list:
    """Covering pairs (i, j) of the order we_i <= we_j on a list of we-classes."""
    we = [frozenset(c) for c in classes]
    n = len(we)

    def below(i, j):
        return we[i] < we[j]

    return sorted([i, j] for i in range(n) for j in range(n)
                  if below(i, j) and not any(below(i, k) and below(k, j) for k in range(n)))


def bijection_check_count(n_localizations: int) -> int:
    """8 checks per localization, 3 per monad, and 5 global ones."""
    return 11 * n_localizations + 5


# -- generated lattices -------------------------------------------------------------


def chain(n: int) -> Poset:
    els = [str(i) for i in range(n)]
    return Poset(f"chain{n}", els, [(a, b) for a in els for b in els if int(a) <= int(b)])


def boolean(k: int) -> Poset:
    els = [format(i, f"0{k}b") for i in range(2 ** k)]
    return Poset(f"B{k}", els, [(a, b) for a in els for b in els
                                if all(x <= y for x, y in zip(a, b))])


def grid(m: int, n: int) -> Poset:
    els = [f"{i}{j}" for i in range(m) for j in range(n)]
    return Poset(f"grid{m}x{n}", els, [(a, b) for a in els for b in els
                                        if a[0] <= b[0] and a[1] <= b[1]])


def moore_family_lattice(rng, name: str, points: int, size: int) -> Poset:
    """A random lattice of exactly `size` elements: a Moore family on `points`
    points (a family of subsets closed under intersection that holds the whole
    set), ordered by inclusion.  Elements are labelled by their members, with
    'e' for the empty set."""
    full = (1 << points) - 1
    while True:
        family = {full}
        candidates = list(range(full))
        rng.shuffle(candidates)
        for s in candidates:
            grown = family | {s} | {s & t for t in family}
            if len(grown) <= size:
                family = grown
            if len(family) == size:
                break
        if len(family) == size:
            break
    sets = sorted(family, key=lambda s: (bin(s).count("1"), s))

    def label(s):
        return "".join("abcdefgh"[i] for i in range(points) if s >> i & 1) or "e"

    return Poset(name, [label(s) for s in sets],
                 [(label(s), label(t)) for s in sets for t in sets if s & t == s])


# -- general finite categories, straight from the file ------------------------------------


class RawCategory:
    """A category file read without loclab: identities filled in as id_<object>."""

    def __init__(self, data: dict):
        self.objects = [str(o) for o in data["objects"]]
        self.src, self.dst = {}, {}
        for m in data.get("morphisms", []):
            self.src[m["id"]], self.dst[m["id"]] = m["src"], m["dst"]
        self.identity = {o: f"id_{o}" for o in self.objects}
        for o, i in self.identity.items():
            self.src[i] = self.dst[i] = o
        self.comp = {(r["g"], r["f"]): r["gf"] for r in data.get("compose", [])}
        for m in list(self.src):
            self.comp.setdefault((m, self.identity[self.src[m]]), m)
            self.comp.setdefault((self.identity[self.dst[m]], m), m)

    def hom(self, a: str, b: str) -> list:
        return sorted(m for m in self.src if self.src[m] == a and self.dst[m] == b)

    def is_thin(self) -> bool:
        return all(len(self.hom(a, b)) <= 1 for a in self.objects for b in self.objects)

    def terminal_objects(self) -> list:
        return [t for t in self.objects if all(len(self.hom(x, t)) == 1 for x in self.objects)]

    def initial_objects(self) -> list:
        return [t for t in self.objects if all(len(self.hom(t, x)) == 1 for x in self.objects)]

    def zero_objects(self) -> list:
        return sorted(set(self.terminal_objects()) & set(self.initial_objects()))

    def isos(self) -> set:
        out = set()
        for f in self.src:
            a, b = self.src[f], self.dst[f]
            if any(self.comp.get((g, f)) == self.identity[a] and
                   self.comp.get((f, g)) == self.identity[b] for g in self.hom(b, a)):
                out.add(f)
        return out

    def as_poset(self) -> Poset:
        return Poset("", self.objects, [(self.src[m], self.dst[m]) for m in self.src])

    def associativity_fails(self, h: str, g: str, f: str) -> bool:
        return self.comp[(self.comp[(h, g)], f)] != self.comp[(h, self.comp[(g, f)])]

    def is_reflection(self, members, x: str, r: str) -> bool:
        """Some u: x -> r makes h |-> h.u a bijection hom(r, s) -> hom(x, s) for s in members."""
        return any(all(sorted(self.comp[(h, u)] for h in self.hom(r, s)) == self.hom(x, s)
                       for s in members)
                   for u in self.hom(x, r))

    def reflective_subcategories(self) -> dict:
        """Replete full subcategories that are reflective, each with the
        admissible reflection objects of every object."""
        isos = self.isos()
        out = {}
        for members in _subsets(self.objects):
            if not members and self.objects:
                continue
            replete = all(self.dst[f] in members for f in isos if self.src[f] in members)
            if not replete:
                continue
            targets = {x: sorted(r for r in members if self.is_reflection(members, x, r))
                       for x in self.objects}
            if all(targets.values()):
                out[members] = targets
        return out


# -- K0 of truncated abelian p-groups --------------------------------------------------


def partitions_up_to(bound: int) -> list:
    """Partitions (descending tuples) of every integer 0..bound."""
    out = []

    def grow(prefix, remaining, cap):
        out.append(tuple(prefix))
        for k in range(min(cap, remaining), 0, -1):
            grow(prefix + [k], remaining - k, k)

    grow([], bound, bound)
    return out


def hom_count(p: int, lam, mu) -> int:
    """|Hom(A, B)| for abelian p-groups of types lam and mu: prod p^min(a_i, b_j)."""
    return prod(p ** min(a, b) for a in lam for b in mu)


def aut_count(p: int, lam) -> int:
    """|Aut| of the abelian p-group of type lam (Hillar and Rhea, 2007, Thm 4.1)."""
    e = sorted(lam)                      # e_1 <= ... <= e_n
    n = len(e)
    if n == 0:
        return 1
    d = [max(l for l in range(1, n + 1) if e[l - 1] == e[k - 1]) for k in range(1, n + 1)]
    c = [min(l for l in range(1, n + 1) if e[l - 1] == e[k - 1]) for k in range(1, n + 1)]
    out = 1
    for k in range(1, n + 1):
        out *= p ** d[k - 1] - p ** (k - 1)
    for j in range(1, n + 1):
        out *= (p ** e[j - 1]) ** (n - d[j - 1])
    for i in range(1, n + 1):
        out *= (p ** (e[i - 1] - 1)) ** (n - c[i - 1] + 1)
    return out


def truncated_k0_counts(p: int, bound: int, we_mode: str) -> dict:
    types = partitions_up_to(bound)
    maps = sum(hom_count(p, lam, mu) for lam in types for mu in types)
    we = maps if we_mode == "all" else sum(aut_count(p, lam) for lam in types)
    return {"generators": len(types), "cofiber_relations": maps, "we_relations": we}


# -- tensor squares of finite commutative rings -------------------------------------------


def tensor_square_order(family: str, params: dict) -> int:
    """|S (x)_R S| for the generated ring-map families.

    quotient:  Z/n -> Z/m with m | n (identity when m = n): S (x)_R S = S.
    diagonal:  Z/n -> prod Z/a_i: sum over (i, j) of Z/a_i (x) Z/a_j = Z/gcd(a_i, a_j).
    polyquo:   Z/p -> (Z/p)[x]/(f), deg f = d: S is free of rank d over Z/p, so p^(d*d).
    product:   R1 x R2 -> S1 x S2 componentwise: the product of the factors' orders.
    """
    if family == "quotient":
        return params["m"]
    if family == "diagonal":
        a = params["factors"]
        return prod(gcd(x, y) for x in a for y in a)
    if family == "polyquo":
        return params["p"] ** (params["degree"] ** 2)
    if family == "product":
        return prod(tensor_square_order(f, p) for f, p in params["parts"])
    raise ValueError(f"unknown ring family {family!r}")


def ring_order(family: str, params: dict) -> int:
    if family == "quotient":
        return params["m"]
    if family == "diagonal":
        return prod(params["factors"])
    if family == "polyquo":
        return params["p"] ** params["degree"]
    if family == "product":
        return prod(ring_order(f, p) for f, p in params["parts"])
    raise ValueError(f"unknown ring family {family!r}")


def monic_polys(p: int, degree: int) -> list:
    """All monic polynomials of the degree over Z/p, low coefficient first."""
    return [list(c) + [1] for c in iproduct(range(p), repeat=degree)]
