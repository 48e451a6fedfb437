"""Replete reflective subcategories: detection, certification, enumeration.

A reflector is found by exhaustive universal-arrow search: for each object X
and candidate (a, u: X -> a) with a in the subcategory, every map from X into
the subcategory must factor through u exactly once.  When several universal
arrows exist they are uniquely isomorphic; we canonically pick the least
(object id, morphism id) pair, and tests stay invariant under that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fincat import (CategoryError, FinCat, FullSubcat, FunctorData, NatTransData,
                     Violation, identity_functor, iso_classes, require_valid)
from .lifting import MorphismClass


@dataclass(frozen=True)
class Reflector:
    subcat: FullSubcat
    functor: FunctorData      # endofunctor on the parent, image inside the subcategory
    unit: NatTransData        # identity functor -> functor

    @property
    def cat(self) -> FinCat:
        return self.subcat.parent

    @property
    def members(self) -> frozenset:
        return self.subcat.members

    def on_obj(self, x: str) -> str:
        return self.functor.obj_map[x]

    def on_mor(self, f: str) -> str:
        return self.functor.mor_map[f]

    def unit_at(self, x: str) -> str:
        return self.unit.components[x]


@dataclass(frozen=True)
class ReflectorSearch:
    reflector: Reflector | None
    witness: str | None = None   # object with no universal arrow, when not reflective

    @property
    def found(self) -> bool:
        return self.reflector is not None


def is_replete(cat: FinCat, members) -> bool:
    """Closed under isomorphism: every object isomorphic to a member is a member."""
    require_valid(cat)
    members = frozenset(members)
    for cls in iso_classes(cat):
        hit = members & set(cls)
        if hit and hit != set(cls):
            return False
    return True


def universal_row(cat: FinCat, u: str) -> frozenset:
    """The objects b such that every v: src(u) -> b factors through u exactly
    once, decided once per category and u."""
    return cat._memoized(("universal", u), lambda c: frozenset(
        b for b in c.objects if all(len(c.extensions(u, v)) == 1 for v in c.hom(c.src[u], b))))


def non_universal_target(cat: FinCat, targets, u: str) -> str | None:
    """The first b in `targets` outside the universal row of u, or None."""
    row = universal_row(cat, u)
    return next((b for b in targets if b not in row), None)


def find_reflector(cat: FinCat, members) -> ReflectorSearch:
    """Search universal arrows into the full subcategory on `members`.

    Returns the canonical reflector, or the least witness object that admits
    no universal arrow.  The empty subcategory of a nonempty category is never
    reflective.
    """
    require_valid(cat)
    members = frozenset(str(m) for m in members)
    FullSubcat(cat, members)   # refuses members outside the category
    # For each object x, every u: x -> a with a and the universal row of u, in (a, u) order.
    arrows = cat._memoized("arrows-out", lambda c: {x: tuple(
        (u, a, universal_row(c, u)) for a in c.objects for u in c.hom(x, a)) for x in c.objects})
    unit: dict = {}
    for x in cat.objects:
        unit[x] = next((u for u, a, row in arrows[x] if a in members and members <= row), None)
        if unit[x] is None:
            return ReflectorSearch(None, x)
    return ReflectorSearch(reflector_from_unit(cat, members, unit))


def reflector_from_unit(cat: FinCat, members, unit: dict) -> Reflector:
    """The reflector onto the full subcategory on `members` with the given
    unit: x goes to the target of unit[x], and f to the one w with
    w . unit[src f] == unit[dst f] . f.  Raises CategoryError when some f has
    no such w or more than one."""
    mor_map: dict = {}
    for f in cat.morphisms:
        lifts = cat.extensions(unit[cat.src[f]], cat.comp(unit[cat.dst[f]], f))
        if len(lifts) != 1:
            raise CategoryError(
                f"the unit induces {len(lifts)} maps for {f!r}, not exactly one")
        mor_map[f] = lifts[0]
    functor = FunctorData(cat, cat, {x: cat.dst[u] for x, u in unit.items()}, mor_map)
    nat = NatTransData(identity_functor(cat), functor, unit)
    return Reflector(FullSubcat(cat, frozenset(members)), functor, nat)


def certify_reflector(refl: Reflector) -> list[Violation]:
    """Re-verify everything a reflector promises, exhaustively."""
    cat = refl.cat
    out = [*refl.functor.violations, *refl.unit.violations]
    if out:
        return out
    members = refl.members
    if not is_replete(cat, members):
        out.append(Violation("replete", tuple(sorted(members))))
    for x in cat.objects:
        if refl.on_obj(x) not in members:
            out.append(Violation("image-in-subcategory", (x, refl.on_obj(x))))
    targets = sorted(members)
    for x in cat.objects:
        b = non_universal_target(cat, targets, refl.unit_at(x))
        if b is not None:
            out.append(Violation("universal-arrow", (x, b)))
    for a in targets:
        if not cat.is_iso(refl.unit_at(a)):
            out.append(Violation("unit-iso-on-members", (a,)))
    return out


def enumerate_replete_reflective(cat: FinCat) -> tuple[Reflector, ...]:
    """All replete reflective subcategories, via iso-closed subset search.

    Iterates unions of isomorphism classes, the empty union included
    (repleteness is built in), and keeps those admitting a reflector; output
    ordered by (size, members).  The empty union is reflective only in the
    empty category.
    """
    require_valid(cat)
    classes = iso_classes(cat)
    found = []
    for k in range(len(classes) + 1):
        for combo in combinations(range(len(classes)), k):
            members = frozenset().union(*(set(classes[i]) for i in combo))
            search = find_reflector(cat, members)
            if search.found:
                found.append(search.reflector)
    return tuple(sorted(found, key=lambda r: (len(r.members), tuple(sorted(r.members)))))


def inverted_class(refl: Reflector) -> MorphismClass:
    """Morphisms sent to isomorphisms by the reflector."""
    cat = refl.cat
    return MorphismClass(cat, frozenset(f for f in cat.morphisms if cat.is_iso(refl.on_mor(f))))
