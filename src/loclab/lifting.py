"""Lifting-property operators and factorization systems.

Right/left lifting classes are computed exactly, by enumerating every
commuting square and searching for diagonal fillers.  Square enumeration
prunes on hom-set emptiness first, which keeps the O(|Mor|^4) worst case well
inside corpus scale.  Counterexamples always report the lexicographically
least witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .fincat import (CategoryError, FinCat, Violation, hypothesis_scan, is_mono, opposite,
                     require_valid)


@dataclass(frozen=True)
class MorphismClass:
    cat: FinCat
    members: frozenset

    @classmethod
    def of(cls, cat: FinCat, ids: Iterable[str]) -> "MorphismClass":
        members = frozenset(str(m) for m in ids)
        unknown = [m for m in sorted(members) if not cat.has_morphism(m)]
        if unknown:
            raise CategoryError(f"morphism class references unknown ids: {unknown}")
        return cls(cat, members)

    @classmethod
    def all_morphisms(cls, cat: FinCat) -> "MorphismClass":
        return cls(cat, frozenset(cat.morphisms))

    def __contains__(self, m: str) -> bool:
        return m in self.members

    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))

    def _same_cat(self, other: "MorphismClass") -> None:
        if self.cat != other.cat:
            raise CategoryError("morphism classes live over different categories")

    def union(self, other: "MorphismClass") -> "MorphismClass":
        self._same_cat(other)
        return MorphismClass(self.cat, self.members | other.members)

    def intersection(self, other: "MorphismClass") -> "MorphismClass":
        self._same_cat(other)
        return MorphismClass(self.cat, self.members & other.members)


def isomorphisms(cat: FinCat) -> MorphismClass:
    require_valid(cat)
    return MorphismClass(cat, cat.isos())


def epimorphisms(cat: FinCat) -> MorphismClass:
    """Epis of C are the monos of C^op, which shares morphism ids."""
    require_valid(cat)
    op = opposite(cat)
    return MorphismClass(cat, frozenset(f for f in cat.morphisms if is_mono(op, f)))


def monomorphisms(cat: FinCat) -> MorphismClass:
    require_valid(cat)
    return MorphismClass(cat, frozenset(f for f in cat.morphisms if is_mono(cat, f)))


# -- squares and lifts ---------------------------------------------------------


def commuting_squares(cat: FinCat, g: str, f: str) -> Iterator[tuple[str, str]]:
    """All (top, bottom) with f.top == bottom.g, for g on the left of f."""
    for top in cat.hom(cat.src[g], cat.src[f]):
        want = cat.comp(f, top)
        for bottom in cat.hom(cat.dst[g], cat.dst[f]):
            if cat.comp(bottom, g) == want:
                yield top, bottom


def has_lift(cat: FinCat, g: str, f: str, top: str, bottom: str) -> tuple[str, ...]:
    """All diagonal fillers of the square; raises if the square does not commute."""
    for m in (g, f, top, bottom):
        cat.require_morphism(m)
    if cat.comp(f, top) != cat.comp(bottom, g):
        raise CategoryError(f"square ({g}, {f}, {top}, {bottom}) does not commute")
    return tuple(h for h in cat.hom(cat.dst[g], cat.src[f])
                 if cat.comp(h, g) == top and cat.comp(f, h) == bottom)


def lifts_against(cat: FinCat, g: str, f: str) -> bool:
    """Does every commuting square with g on the left and f on the right fill?"""
    fillers = cat.hom(cat.dst[g], cat.src[f])
    for top, bottom in commuting_squares(cat, g, f):
        if not fillers:
            return False
        if not any(cat.comp(h, g) == top and cat.comp(f, h) == bottom for h in fillers):
            return False
    return True


def rlp_class(cat: FinCat, left: MorphismClass) -> MorphismClass:
    require_valid(cat)
    members = frozenset(
        f for f in cat.morphisms
        if all(lifts_against(cat, g, f) for g in left.sorted_members())
    )
    return MorphismClass(cat, members)


def llp_class(cat: FinCat, right: MorphismClass) -> MorphismClass:
    require_valid(cat)
    members = frozenset(
        g for g in cat.morphisms
        if all(lifts_against(cat, g, f) for f in right.sorted_members())
    )
    return MorphismClass(cat, members)


def strong_monos(cat: FinCat) -> MorphismClass:
    """Morphisms with the right lifting property against every epimorphism."""
    return rlp_class(cat, epimorphisms(cat))


# -- retracts in the arrow category ----------------------------------------------


def is_retract(cat: FinCat, f: str, g: str) -> bool:
    """Is f a retract of g in the arrow category?"""
    a, b = cat.src[f], cat.dst[f]
    c, d = cat.src[g], cat.dst[g]
    for i in cat.hom(a, c):
        for r in cat.hom(c, a):
            if cat.comp(r, i) != cat.id_of(a):
                continue
            for j in cat.hom(b, d):
                if cat.comp(g, i) != cat.comp(j, f):
                    continue
                for s in cat.hom(d, b):
                    if cat.comp(s, j) == cat.id_of(b) and cat.comp(f, r) == cat.comp(s, g):
                        return True
    return False


def retract_closure_counterexample(cat: FinCat, cls: MorphismClass) -> tuple[str, str] | None:
    """Least (f, g) with g in the class, f a retract of g, f outside the class."""
    outside = [f for f in cat.morphisms if f not in cls]
    for f in outside:
        for g in cls.sorted_members():
            if is_retract(cat, f, g):
                return (f, g)
    return None


# -- finite well-completeness ------------------------------------------------------


@dataclass(frozen=True)
class FwcReport:
    ok: bool
    missing: tuple[str, ...] | None = None
    note: str = ""


def is_finitely_well_complete(cat: FinCat) -> FwcReport:
    """Finite limits plus wide pullbacks of strong-mono families.

    In a finite category every family of strong monomorphisms has finitely
    many distinct members, and its intersection is an iterated binary
    pullback, so the verdict reduces to the existence of finite limits;
    that reduction is recorded in the report note.  The limits are the limit
    half of the bicompleteness scan, searched in the same order.
    """
    note = ("families of strong monomorphisms are finite here, so their "
            "intersections are iterated binary pullbacks; finite limits suffice")
    missing = hypothesis_scan(cat)[1]
    return FwcReport(missing is None, missing, note)


# -- factorization systems -----------------------------------------------------------


@dataclass(frozen=True)
class FactorizationSystem:
    left: MorphismClass    # E
    right: MorphismClass   # M
    factor: dict           # morphism id -> (e id, m id)


@dataclass(frozen=True)
class FsReport:
    ok: bool
    failure: Violation | None = None


def verify_factorization_system(cat: FinCat, left: MorphismClass, right: MorphismClass,
                                factor: dict) -> FsReport:
    """Check stored factorizations and both orthogonality equalities E^down = M,
    M^up = E, each by exhaustive lifting; first (least) failure wins."""
    require_valid(cat)
    missing = [f for f in cat.morphisms if f not in factor]
    if missing:
        raise CategoryError(f"factorization map is not total; first missing: {missing[0]}")
    for f in cat.morphisms:
        e, m = factor[f]
        cat.require_morphism(e)
        cat.require_morphism(m)
        if cat.comp(m, e) != f:
            return FsReport(False, Violation("factor-composite", (f, e, m), "m.e != f"))
        if e not in left:
            return FsReport(False, Violation("factor-left-class", (f, e)))
        if m not in right:
            return FsReport(False, Violation("factor-right-class", (f, m)))
    e_down = rlp_class(cat, left)
    for w in sorted(e_down.members ^ right.members):
        side = "E^down \\ M" if w in e_down else "M \\ E^down"
        return FsReport(False, Violation("rlp-mismatch", (w,), side))
    m_up = llp_class(cat, right)
    for w in sorted(m_up.members ^ left.members):
        side = "M^up \\ E" if w in m_up else "E \\ M^up"
        return FsReport(False, Violation("llp-mismatch", (w,), side))
    return FsReport(True)
