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
                     Violation, identity_functor, iso_classes, pullback, require_valid)
from .lifting import MorphismClass, is_finitely_well_complete, rlp_class


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

    def to_json_dict(self) -> dict:
        return {
            "members": sorted(self.members),
            "F_obj": dict(sorted(self.functor.obj_map.items())),
            "F_mor": dict(sorted(self.functor.mor_map.items())),
            "unit": dict(sorted(self.unit.components.items())),
        }


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


def _is_universal_arrow(cat: FinCat, members, x: str, a: str, u: str) -> bool:
    for a2 in sorted(members):
        for v in cat.hom(x, a2):
            if sum(1 for w in cat.hom(a, a2) if cat.comp(w, u) == v) != 1:
                return False
    return True


def find_reflector(cat: FinCat, members) -> ReflectorSearch:
    """Search universal arrows into the full subcategory on `members`.

    Returns the canonical reflector, or the least witness object that admits
    no universal arrow.  The empty subcategory of a nonempty category is never
    reflective.
    """
    require_valid(cat)
    members = frozenset(str(m) for m in members)
    subcat = FullSubcat(cat, members)
    obj_map: dict = {}
    unit: dict = {}
    for x in cat.objects:
        chosen = None
        for a in sorted(members):
            for u in cat.hom(x, a):
                if _is_universal_arrow(cat, members, x, a, u):
                    chosen = (a, u)
                    break
            if chosen:
                break
        if chosen is None:
            return ReflectorSearch(None, x)
        obj_map[x], unit[x] = chosen

    mor_map: dict = {}
    for f in cat.morphisms:
        x, y = cat.src[f], cat.dst[f]
        want = cat.comp(unit[y], f)
        lifts = [w for w in cat.hom(obj_map[x], obj_map[y])
                 if cat.comp(w, unit[x]) == want]
        if len(lifts) != 1:
            raise CategoryError(
                f"universal arrow at {x!r} failed to induce a unique map for {f!r}")
        mor_map[f] = lifts[0]

    functor = FunctorData(cat, cat, obj_map, mor_map)
    nat = NatTransData(identity_functor(cat), functor, unit)
    return ReflectorSearch(Reflector(subcat, functor, nat))


def certify_reflector(refl: Reflector) -> list[Violation]:
    """Re-verify everything a reflector promises, exhaustively."""
    cat = refl.cat
    out = list(refl.functor.check())
    out.extend(refl.unit.check())
    if out:
        return out
    members = refl.members
    if not is_replete(cat, members):
        out.append(Violation("replete", tuple(sorted(members))))
    for x in cat.objects:
        if refl.on_obj(x) not in members:
            out.append(Violation("image-in-subcategory", (x, refl.on_obj(x))))
    for x in cat.objects:
        if not _is_universal_arrow(cat, members, x, refl.on_obj(x), refl.unit_at(x)):
            out.append(Violation("universal-arrow", (x,)))
    for a in sorted(members):
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


def chk_factorization(refl: Reflector, f: str) -> tuple[str, str]:
    """Factor f as (map inverted by the reflector) . (map with RLP against those).

    Realized through the pullback of  F(X) --Ff--> F(Y) <--unit-- Y  when it
    exists, with an exhaustive fallback search otherwise.
    """
    cat = refl.cat
    cat.require_morphism(f)
    fwc = is_finitely_well_complete(cat)
    if not fwc.ok:
        raise CategoryError(f"category is not finitely well-complete: missing {fwc.missing}")
    bad = certify_reflector(refl)
    if bad:
        raise CategoryError(f"reflector fails certification: {bad[0]}")

    e_class = inverted_class(refl)
    m_class = rlp_class(cat, e_class)
    x, y = cat.src[f], cat.dst[f]

    pb = pullback(cat, refl.on_mor(f), refl.unit_at(y))
    if pb.found:
        # Mediator of the cone (unit at X, f) over the cospan.
        e = pb.mediators.get((x, refl.unit_at(x), f))
        m = pb.legs[1]
        if e is not None and e in e_class and m in m_class and cat.comp(m, e) == f:
            return (e, m)
    for z in cat.objects:
        for e in cat.hom(x, z):
            if e not in e_class:
                continue
            for m in cat.hom(z, y):
                if m in m_class and cat.comp(m, e) == f:
                    return (e, m)
    raise CategoryError(
        f"no (inverted, right-lifting) factorization found for {f!r}; "
        "factorization-system hypotheses violated")


def chk_factorization_system(refl: Reflector) -> "FactorizationSystem":
    """Assemble the full factorization system induced by the reflector."""
    from .lifting import FactorizationSystem

    cat = refl.cat
    e_class = inverted_class(refl)
    m_class = rlp_class(cat, e_class)
    factor = {f: chk_factorization(refl, f) for f in cat.morphisms}
    return FactorizationSystem(e_class, m_class, factor)
