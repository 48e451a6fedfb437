"""Replete reflective subcategories: detection, certification, enumeration.

A reflector is found by exhaustive universal-arrow search: for each object X
and candidate (a, u: X -> a) with a in the subcategory, every map from X into
the subcategory must factor through u exactly once.  When several universal
arrows exist they are uniquely isomorphic; we canonically pick the least
(object id, morphism id) pair, and tests stay invariant under that choice.

A `Reflector` carries its full subcategory as the frozenset of its members;
`find_reflector`, the entry point for outside input, refuses a non-object.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fincat import (CategoryError, FinCat, FunctorData, NatTransData,
                     Violation, identity_functor, iso_classes, require_valid)
from .lifting import MorphismClass


@dataclass(frozen=True)
class Reflector:
    cat: FinCat
    members: frozenset        # objects of the full subcategory
    functor: FunctorData      # endofunctor on cat, image inside the subcategory
    unit: NatTransData        # identity functor -> functor


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
    members = frozenset(members)
    bad = members - set(cat.objects)
    if bad:
        raise CategoryError(f"subcategory members not in parent: {sorted(bad)}")
    unit = _unit_search(cat, sum(1 << i for i, x in enumerate(cat.objects) if x in members))
    if isinstance(unit, str):
        return ReflectorSearch(None, unit)
    return ReflectorSearch(reflector_from_unit(cat, members, unit))


def _unit_arrows(cat: FinCat) -> tuple:
    """Per object x, each u: x -> a in (a, u) order as (u, bit of a, row of u as a mask)."""
    bit = {x: 1 << i for i, x in enumerate(cat.objects)}
    return tuple(tuple((u, bit[a], sum(map(bit.get, universal_row(cat, u))))
                       for a in cat.objects for u in cat.hom(x, a)) for x in cat.objects)


def _unit_search(cat: FinCat, mask: int) -> dict | str:
    """The unit onto the objects in `mask`: at each x the first arrow into it
    whose universal row holds it; or the least x with no such arrow."""
    unit = {}
    for x, arrows in zip(cat.objects, cat._memoized("unit-arrows", _unit_arrows)):
        unit[x] = next((u for u, a, row in arrows if a & mask and not mask & ~row), None)
        if unit[x] is None:
            return x
    return unit


def reflector_from_unit(cat: FinCat, members, unit: dict) -> Reflector:
    """The reflector onto the full subcategory on `members` with the given
    unit: x goes to the target of unit[x], and f to the one w with
    w . unit[src f] == unit[dst f] . f, found once per category, members and
    unit.  Raises CategoryError when some f has no such w or more than one."""
    members = frozenset(members)
    mor_map = cat._memoized(("fillers", members, tuple(unit[x] for x in cat.objects)),
                            lambda c: _fillers(c, unit))
    functor = FunctorData(cat, cat, {x: cat.dst[u] for x, u in unit.items()}, mor_map)
    nat = NatTransData(identity_functor(cat), functor, unit)
    return Reflector(cat, members, functor, nat)


def _fillers(cat: FinCat, unit: dict) -> dict:
    mor_map: dict = {}
    for f in cat.morphisms:
        lifts = cat.extensions(unit[cat.src[f]], cat.comp(unit[cat.dst[f]], f))
        if len(lifts) != 1:
            raise CategoryError(
                f"the unit induces {len(lifts)} maps for {f!r}, not exactly one")
        mor_map[f] = lifts[0]
    return mor_map


def certify_reflector(refl: Reflector) -> list[Violation]:
    """Re-verify everything a reflector promises, exhaustively; decided once per
    members, functor maps and unit when shaped as `reflector_from_unit` builds."""
    cat, functor, unit = refl.cat, refl.functor, refl.unit
    if not (functor.source is cat is functor.target and unit.target is functor
            and unit.source == identity_functor(cat)):
        return _certificate(refl)
    key = ("certificate", refl.members, tuple(functor.obj_map.items()),
           tuple(functor.mor_map.items()), tuple(unit.components.items()))
    return list(cat._memoized(key, lambda c: tuple(_certificate(refl))))


def _certificate(refl: Reflector) -> list[Violation]:
    cat = refl.cat
    out = [*refl.functor.violations, *refl.unit.violations]
    if out:
        return out
    members = refl.members
    if not is_replete(cat, members):
        out.append(Violation("replete", tuple(sorted(members))))
    for x in cat.objects:
        if refl.functor.obj_map[x] not in members:
            out.append(Violation("image-in-subcategory", (x, refl.functor.obj_map[x])))
    targets = sorted(members)
    for x in cat.objects:
        b = non_universal_target(cat, targets, refl.unit.components[x])
        if b is not None:
            out.append(Violation("universal-arrow", (x, b)))
    for a in targets:
        if not cat.is_iso(refl.unit.components[a]):
            out.append(Violation("unit-iso-on-members", (a,)))
    return out


def enumerate_replete_reflective(cat: FinCat) -> tuple[Reflector, ...]:
    """All replete reflective subcategories, via iso-closed subset search.

    Iterates unions of isomorphism classes, the empty union included
    (repleteness is built in), as object bitmasks, and keeps those admitting a
    reflector; output ordered by (size, members).  The empty union is
    reflective only in the empty category.
    """
    require_valid(cat)
    classes = iso_classes(cat)
    bit = {x: 1 << i for i, x in enumerate(cat.objects)}
    masks = [sum(map(bit.get, cls)) for cls in classes]
    found = []
    for k in range(len(classes) + 1):
        for combo in combinations(range(len(classes)), k):
            unit = _unit_search(cat, sum(masks[i] for i in combo))
            if not isinstance(unit, str):
                members = frozenset(x for i in combo for x in classes[i])
                found.append(reflector_from_unit(cat, members, unit))
    return tuple(sorted(found, key=lambda r: (len(r.members), tuple(sorted(r.members)))))


def inverted_class(refl: Reflector) -> MorphismClass:
    """Morphisms sent to isomorphisms by the reflector."""
    cat = refl.cat
    image = refl.functor.mor_map
    return MorphismClass(cat, frozenset(f for f in cat.morphisms if cat.is_iso(image[f])))
