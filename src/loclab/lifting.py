"""Lifting-property operators, retracts and finite well-completeness.

Right/left lifting classes are computed exactly, by enumerating every
commuting square and searching for diagonal fillers.  Square enumeration
prunes on hom-set emptiness first, which keeps the O(|Mor|^4) worst case well
inside corpus scale.  Each fact is decided once per category: the row of g,
the f with g ⧄ f (and the f that are retracts of g), is kept in the category's
memo, and every class is read off those rows.  Colocalizations lift in the
opposite, so their rows sit in the opposite's memo.  Counterexamples always
report the lexicographically least witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .fincat import CategoryError, FinCat, hypothesis_scan, require_valid


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

    def intersection(self, other: "MorphismClass") -> "MorphismClass":
        if self.cat != other.cat:
            raise CategoryError("morphism classes live over different categories")
        return MorphismClass(self.cat, self.members & other.members)


# -- squares and lifts ---------------------------------------------------------


def commuting_squares(cat: FinCat, g: str, f: str) -> Iterator[tuple[str, str]]:
    """All (top, bottom) with f.top == bottom.g, for g on the left of f."""
    for top in cat.hom(cat.src[g], cat.src[f]):
        want = cat.comp(f, top)
        for bottom in cat.hom(cat.dst[g], cat.dst[f]):
            if cat.comp(bottom, g) == want:
                yield top, bottom


def lifts_against(cat: FinCat, g: str, f: str) -> bool:
    """Does every commuting square with g on the left and f on the right fill?"""
    fillers = cat.hom(cat.dst[g], cat.src[f])
    for top, bottom in commuting_squares(cat, g, f):
        if not fillers:
            return False
        if not any(cat.comp(h, g) == top and cat.comp(f, h) == bottom for h in fillers):
            return False
    return True


def _lift_row(cat: FinCat, g: str) -> frozenset:
    """The f with g ⧄ f, each square decided once for this category."""
    return cat._memoized(("lift", g), lambda c: frozenset(
        f for f in c.morphisms if lifts_against(c, g, f)))


def rlp_class(cat: FinCat, left: MorphismClass) -> MorphismClass:
    require_valid(cat)
    members = frozenset(cat.morphisms)
    for g in left.members:
        members &= _lift_row(cat, g)
    return MorphismClass(cat, members)


def llp_class(cat: FinCat, right: MorphismClass) -> MorphismClass:
    require_valid(cat)
    return MorphismClass(cat, frozenset(
        g for g in cat.morphisms if right.members <= _lift_row(cat, g)))


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


def _retract_row(cat: FinCat, g: str) -> frozenset:
    """The f that are retracts of g, each decided once for this category."""
    return cat._memoized(("retract", g), lambda c: frozenset(
        f for f in c.morphisms if is_retract(c, f, g)))


def retract_closure_counterexample(cat: FinCat, cls: MorphismClass) -> tuple[str, str] | None:
    """Least (f, g) with g in the class, f a retract of g, f outside the class:
    the least f in the members' retract rows but not in the class, then the
    first member whose row holds it."""
    if cls.members.issuperset(cat.morphisms):
        return None
    inside = cls.sorted_members()
    outside = frozenset().union(*(_retract_row(cat, g) for g in inside)) - cls.members
    f = min(outside, default=None)
    return None if f is None else (f, next(g for g in inside if f in _retract_row(cat, g)))


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
