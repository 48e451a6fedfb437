"""Model structures on finite categories: construction and exhaustive verification.

The discrete structure has all maps as cofibrations and fibrations and the
isomorphisms as weak equivalences.  A replete reflective subcategory induces a
localization of it: cofibrations stay everything, weak equivalences become the
maps inverted by the reflector, and fibrations are computed as the right
lifting class of the weak equivalences.  The discrete structure itself is the
localization at the whole category, whose reflector inverts exactly the
isomorphisms.  `verify_model_axioms` checks all six closed-model axiom
families by brute force, so every structure produced here is certified rather
than assumed.  Each search that depends only on the category (retracts,
factorizations, cylinders and paths) is a table kept in its memo, and a
structure's certificate filters that table by its classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import defaultdict
from functools import cached_property, reduce
from operator import and_

from .fincat import (CategoryError, FinCat, binary_coproduct, binary_product, opposite,
                     require_hypotheses, require_valid, terminal_object)
from .lifting import MorphismClass, llp_class, retract_closure_counterexample, rlp_class
from .monadkit import is_idempotent, monad_from_reflector, \
    monad_morphism_exists, naturally_equivalent, reflector_from_monad, verify_monad
from .reflect import Reflector, certify_reflector, enumerate_replete_reflective, \
    find_reflector, inverted_class, reflector_from_unit


@dataclass(frozen=True)
class ModelStructure:
    base: FinCat
    cof: MorphismClass
    we: MorphismClass
    fib: MorphismClass
    provenance: str                     # "localization" | "colocalization" | "file"
    reflector: Reflector | None = None

    @cached_property
    def fibrants(self) -> tuple[str, ...]:
        """Objects whose map to the terminal object is a fibration, scanned once."""
        term = terminal_object(self.base)
        if not term.found:
            raise CategoryError("no terminal object; fibrancy undefined")
        return tuple(x for x in self.base.objects if term.mediators[x] in self.fib)

    def acyclic_fibrations(self) -> MorphismClass:
        return self.we.intersection(self.fib)

    def acyclic_cofibrations(self) -> MorphismClass:
        return self.cof.intersection(self.we)

    def classes_json(self) -> dict:
        return {
            "cof": list(self.cof.sorted_members()),
            "we": list(self.we.sorted_members()),
            "fib": list(self.fib.sorted_members()),
            "provenance": self.provenance,
        }


def localization_from_reflector(refl: Reflector) -> ModelStructure:
    """Bousfield localization of the discrete structure at a reflector."""
    cat = refl.cat
    require_hypotheses(cat)
    bad = certify_reflector(refl)
    if bad:
        raise CategoryError(f"hypothesis failure: reflector certification: {bad[0]}")
    we = inverted_class(refl)
    return ModelStructure(
        base=cat,
        cof=MorphismClass.all_morphisms(cat),
        we=we,
        fib=rlp_class(cat, we),
        provenance="localization",
        reflector=refl,
    )


# -- axiom verification ------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    results: tuple[tuple[str, bool, tuple], ...]   # (axiom, ok, witness)

    @property
    def first_failure(self) -> tuple[str, tuple] | None:
        for name, ok, witness in self.results:
            if not ok:
                return (name, witness)
        return None

    def to_json_dict(self) -> dict:
        return {name: {"ok": ok, "witness": list(witness)}
                for name, ok, witness in self.results}


def verify_model_axioms(ms: ModelStructure) -> AxiomReport:
    """Exhaustively check the six closed-model axiom families.  Two-of-three
    walks the sorted composition table; the factorization axioms read the
    (m, e) pairs of each composite off the table inverted once per category."""
    cat = ms.base
    require_valid(cat)
    results: list[tuple[str, bool, tuple]] = []

    for name, cls in (("retracts-cof", ms.cof), ("retracts-we", ms.we),
                      ("retracts-fib", ms.fib)):
        bad = retract_closure_counterexample(cat, cls)
        results.append((name, bad is None, bad or ()))

    we = ms.we.members   # the sorted table runs g-major, f-minor
    bad233 = next(((f, g, h) for (g, f), h in cat.canonical()[3]
                   if (f in we) + (g in we) + (h in we) == 2), ())
    results.append(("two-of-three", not bad233, bad233))

    acyclic_fib, acyclic_cof = ms.acyclic_fibrations(), ms.acyclic_cofibrations()
    for name, right, left in (("cof-equals-llp-acyclic-fib", acyclic_fib, ms.cof),
                              ("acyclic-cof-equals-llp-fib", ms.fib, acyclic_cof)):
        diff = sorted(llp_class(cat, right).members ^ left.members)
        results.append((name, not diff, tuple(diff[:1])))

    table = cat._memoized("factorizations", _factorizations)
    for name, first, second in (("factor-acyclic-cof-then-fib", acyclic_cof, ms.fib),
                                ("factor-cof-then-acyclic-fib", ms.cof, acyclic_fib)):
        first, second = first.members, second.members
        bad_f = next(((f,) for f in cat.morphisms
                      if not any(e in first and m in second for m, e in table[f])), ())
        results.append((name, not bad_f, bad_f))

    return AxiomReport(all(ok for _, ok, _ in results), tuple(results))


def _factorizations(cat: FinCat) -> dict:
    """For each morphism h, the pairs (m, e) with m . e == h, in table order."""
    table: dict = {h: [] for h in cat.morphisms}
    for (m, e), h in cat.canonical()[3]:
        table[h].append((m, e))
    return table


# -- fibrant objects and replacement ---------------------------------------------------


def fibrant_replacement_functor(ms: ModelStructure) -> Reflector:
    """Fibrant replacement as a reflector onto the fibrant objects: the unit at
    x is the first acyclic cofibration from x into a fibrant object, in
    (object, hom) order, and each map goes to its unique filler.  Raises
    CategoryError when some x has no replacement or some filler is not unique;
    `certify_reflector` then decides whether it is left adjoint to the
    inclusion.  When the structure's own reflector has these members and this
    unit, it is the replacement."""
    cat = ms.base
    fibrants = ms.fibrants
    acyclic_cof = ms.acyclic_cofibrations()
    unit = {}
    for x in cat.objects:
        unit[x] = next((i for p in fibrants for i in cat.hom(x, p) if i in acyclic_cof), None)
        if unit[x] is None:
            raise CategoryError(f"no fibrant replacement found for {x!r}")
    return _own_reflector(ms, frozenset(fibrants), unit) or \
        reflector_from_unit(cat, fibrants, unit)


def _own_reflector(ms: ModelStructure, members: frozenset, unit: dict) -> Reflector | None:
    """`ms.reflector` if it has these members and unit; it was certified, so
    its maps are the unit's fillers."""
    own = ms.reflector
    return own if own and own.members == members and own.unit.components == unit else None


# -- homotopy relations -----------------------------------------------------------------


@dataclass(frozen=True)
class HomotopyReport:
    left: bool | None
    right: bool | None
    left_reason: str = ""
    right_reason: str = ""


def homotopy_relations(ms: ModelStructure, f: str, g: str) -> HomotopyReport:
    """Decide left/right homotopy of a parallel pair by searching all cylinder
    and path factorizations inside the category itself."""
    cat = ms.base
    cat.require_morphism(f)
    cat.require_morphism(g)
    if not cat.parallel(f, g):
        raise CategoryError(f"{f!r} and {g!r} are not parallel")
    a, b = cat.src[f], cat.dst[f]
    left, right = _homotopic(ms, f, g)
    return HomotopyReport(
        left, right,
        "" if left is not None else f"binary coproduct of ({a}, {a}) does not exist",
        "" if right is not None else f"binary product of ({b}, {b}) does not exist")


def _homotopic(ms: ModelStructure, f: str, g: str) -> tuple[bool | None, bool | None]:
    """Whether some cylinder (i, j) has i in cof and j in we, and some path (w, p)
    has w in we and p in fib, None where the (co)product is missing; the
    candidates are listed once per category and parallel pair (f, g)."""
    memo, key = ms.base._memo, ("homotopy-candidates", f, g)
    if key not in memo:
        memo[key] = (_cylinders(ms.base, f, g), _paths(ms.base, f, g))
    cylinders, paths = memo[key]
    cof, we, fib = ms.cof.members, ms.we.members, ms.fib.members
    return (None if cylinders is None else any(i in cof and j in we for i, j in cylinders),
            None if paths is None else any(w in we and p in fib for w, p in paths))


def _cylinders(cat: FinCat, f: str, g: str) -> tuple | None:
    """Each (i, j) with j . i the codiagonal a + a -> a and some h with
    h . i == [f, g], for f, g: a -> b; None when a + a does not exist."""
    a, b = cat.src[f], cat.dst[f]
    cop = binary_coproduct(cat, a, a)
    if not cop.found:
        return None
    fold, fold_fg = cop.mediators[(a, cat.id_of(a), cat.id_of(a))], cop.mediators[(b, f, g)]
    return tuple((i, j) for z in cat.objects for i in cat.hom(cop.apex, z)
                 if cat.extensions(i, fold_fg) for j in cat.extensions(i, fold))


def _paths(cat: FinCat, f: str, g: str) -> tuple | None:
    """Each (w, p) with p . w the diagonal b -> b x b and some k with
    p . k == (f, g), for f, g: a -> b; None when b x b does not exist."""
    a, b = cat.src[f], cat.dst[f]
    prod = binary_product(cat, b, b)
    if not prod.found:
        return None
    diag, pair_fg = prod.mediators[(b, cat.id_of(b), cat.id_of(b))], prod.mediators[(a, f, g)]
    return tuple((w, p) for z in cat.objects for w in cat.hom(b, z)
                 for p in cat.extensions(w, diag)
                 if any(cat.comp(p, k) == pair_fg for k in cat.hom(a, z)))


# -- homotopy category ---------------------------------------------------------------------


@dataclass(frozen=True)
class HomotopyCategoryView:
    structure: ModelStructure
    objects: tuple[str, ...]            # fibrant objects; hom-sets inherited from the base
    replacement: Reflector              # realizes the equivalence with the base
    replacement_functorial: bool
    adjunction_ok: bool                 # the replacement is certified as a reflector
    adjunction_witness: tuple           # the first violation's witness, () when none
    we_inverted: bool
    we_inverted_witness: tuple
    hom_rigidity: bool                  # parallel maps into a fibrant: homotopic iff equal
    hom_rigidity_witness: tuple
    essentially_surjective: bool

    @property
    def equivalence_ok(self) -> bool:
        return (self.we_inverted and self.hom_rigidity and self.essentially_surjective
                and self.replacement_functorial and self.adjunction_ok)


def homotopy_category(ms: ModelStructure) -> HomotopyCategoryView:
    """Fibrant full subcategory plus the certificate that it models the
    homotopy category: replacement is certified as a reflector onto it (a
    universal-arrow violation (x, b) names a fibrant b for which
    - . unit[x]: hom(Px, b) -> hom(x, b) is no bijection), replacement inverts
    weak equivalences, homotopy classes of maps into fibrant objects are
    singletons, and every object is weakly equivalent to its replacement."""
    cat = ms.base
    repl = fibrant_replacement_functor(ms)
    certificate = certify_reflector(repl)
    fibrants = ms.fibrants

    we_witness = next(((f,) for f in ms.we.sorted_members()
                       if not cat.is_iso(repl.functor.mor_map[f])), ())
    rigidity_witness = next(((f, g) for a in cat.objects for b in fibrants
                             for f in cat.hom(a, b) for g in cat.hom(a, b)
                             if _homotopic(ms, f, g) != (f == g, f == g)), ())

    acyclic_cof = ms.acyclic_cofibrations()
    ess_surj = all(repl.unit.components[x] in acyclic_cof for x in cat.objects)

    return HomotopyCategoryView(
        structure=ms,
        objects=fibrants,
        replacement=repl,
        replacement_functorial=repl.functor.is_valid() and repl.unit.is_valid(),
        adjunction_ok=not certificate,
        adjunction_witness=certificate[0].witness if certificate else (),
        we_inverted=not we_witness,
        we_inverted_witness=we_witness,
        hom_rigidity=not rigidity_witness,
        hom_rigidity_witness=rigidity_witness,
        essentially_surjective=ess_surj,
    )


def maps_between_fibrants_are_fibrations(ms: ModelStructure) -> tuple[bool, tuple]:
    cat = ms.base
    fibrants = set(ms.fibrants)
    bad = next(((f,) for f in cat.morphisms if cat.src[f] in fibrants
                and cat.dst[f] in fibrants and f not in ms.fib), ())
    return not bad, bad


# -- enumeration and posets ------------------------------------------------------------------


@dataclass(frozen=True)
class StructureFamily:
    """Localizations (or colocalizations) of the discrete structure on one base,
    with the poset given by inclusion of weak-equivalence classes."""
    base: FinCat
    kind: str                                   # "localization" | "colocalization"
    structures: tuple[ModelStructure, ...]
    subcat_members: tuple[tuple[str, ...], ...]  # reflective (resp. coreflective) members

    @cached_property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """The covering pairs (i, j) of the strict order, sorted.  holds[m] is
        the bitmask of the j with m in we_j, so i <= j iff j is in holds[m] for
        every m in we_i; up[i] drops the j with the same class.  The covers of i
        are the members of up[i] that lie in no up[k] for k in up[i]."""
        holds, same = defaultdict(int), defaultdict(int)
        for j, st in enumerate(self.structures):
            for m in st.we.members:
                holds[m] |= 1 << j
            same[st.we.members] |= 1 << j
        n = len(self.structures)
        up = [reduce(and_, map(holds.get, st.we.members), (1 << n) - 1) & ~same[st.we.members]
              for st in self.structures]
        edges = []
        for i in range(n):
            covers = up[i]
            for k in _bits(up[i]):
                covers &= ~up[k]
            edges.extend((i, j) for j in _bits(covers))
        return tuple(edges)

    def node_label(self, i: int) -> str:
        return "{" + ",".join(self.subcat_members[i]) + "}"

    def to_dot(self) -> str:
        name = self.base.name or "C"
        lines = [f'digraph "{self.kind}s_{name}" {{', "  rankdir=BT;"]
        for i in range(len(self.structures)):
            lines.append(f'  n{i} [label="{self.node_label(i)}"];')
        for i, j in self.hasse_edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _bits(mask: int):
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class LocalizationFamily(StructureFamily):
    reflectors: tuple[Reflector, ...] = ()


def enumerate_localizations(cat: FinCat) -> LocalizationFamily:
    """One certified localization per replete reflective subcategory.

    The bijection with reflective subcategories reverses order: a larger
    subcategory inverts fewer maps.  The hypotheses are checked once for the
    family, so a category without reflectors (the empty one) is refused too.
    """
    require_hypotheses(cat)
    reflectors = enumerate_replete_reflective(cat)
    structures = tuple(localization_from_reflector(r) for r in reflectors)
    members = tuple(tuple(sorted(r.members)) for r in reflectors)
    return LocalizationFamily(cat, "localization", structures, members,
                              reflectors=reflectors)


@dataclass(frozen=True)
class ColocalizationFamily(StructureFamily):
    opposite_family: LocalizationFamily | None = None


def colocalizations_via_op(cat: FinCat) -> ColocalizationFamily:
    """Enumerate colocalizations by localizing the opposite category and
    transporting back (cofibrations and fibrations swap, weak equivalences
    are preserved; morphism ids are shared with the opposite)."""
    op = opposite(cat)
    op_family = enumerate_localizations(op)
    structures = tuple(ModelStructure(
        base=cat,
        cof=MorphismClass(cat, st.fib.members),
        we=MorphismClass(cat, st.we.members),
        fib=MorphismClass(cat, st.cof.members),
        provenance="colocalization",
    ) for st in op_family.structures)
    return ColocalizationFamily(cat, "colocalization", structures,
                                op_family.subcat_members, opposite_family=op_family)


# -- the full round-trip suite -----------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    base: FinCat
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json_dict(self) -> dict:
        return {name: {"ok": ok, "detail": detail} for name, ok, detail in self.checks}


def bijection_suite(cat: FinCat) -> SuiteReport:
    """Run every round-trip and ordering check tying together reflective
    subcategories, localizations, and idempotent monads on one category."""
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    family = enumerate_localizations(cat)
    refls, structures = family.reflectors, family.structures
    n = len(refls)
    add("enumeration", True, f"{n} replete reflective subcategories")

    for r, st in zip(refls, structures):
        label = "{" + ",".join(sorted(r.members)) + "}"
        axioms = verify_model_axioms(st)
        add(f"model-axioms {label}", axioms.ok, str(axioms.first_failure or ""))
        add(f"acyclic-fib-are-isos {label}", st.acyclic_fibrations().members == cat.isos())
        ho = homotopy_category(st)
        fo = ho.objects
        add(f"fibrant-objects-match {label}", set(fo) == set(r.members), str(fo))
        # reached only when every filler is unique: reflector_from_unit raises otherwise
        add(f"replacement-fillers-unique {label}", True, "")
        add(f"replacement-functorial {label}", ho.replacement_functorial, "")
        add(f"replacement-adjunction {label}", ho.adjunction_ok, str(ho.adjunction_witness))
        add(f"homotopy-category-equivalence {label}", ho.equivalence_ok, "")
        fib_ok, wit = maps_between_fibrants_are_fibrations(st)
        add(f"fibrant-maps-are-fibrations {label}", fib_ok, str(wit))

    add("distinct-structures", len({st.we.members for st in structures}) == n)

    # Loc -> Refl -> Loc reproduces the classes on the nose.
    round_ok, detail = True, ""
    for r, st in zip(refls, structures):
        search = find_reflector(cat, frozenset(st.fibrants))
        if not search.found:
            round_ok, detail = False, "fibrant objects not reflective"
            break
        refl = search.reflector
        st2 = localization_from_reflector(
            _own_reflector(st, refl.members, refl.unit.components) or refl)
        if (st2.cof.members, st2.we.members, st2.fib.members) != \
           (st.cof.members, st.we.members, st.fib.members):
            round_ok, detail = False, f"classes changed for {sorted(r.members)}"
            break
    add("loc-refl-loc-identity", round_ok, detail)

    detail = _order_mismatch(
        refls, lambda i, j: structures[j].we.members <= structures[i].we.members)
    add("loc-order-antitone", not detail, detail)

    monads = []
    for r in refls:
        m = monad_from_reflector(r)
        rep = verify_monad(m)
        label = "{" + ",".join(sorted(r.members)) + "}"
        add(f"monad-laws {label}", rep.ok, str(rep.first or ""))
        add(f"monad-idempotent {label}", is_idempotent(m), "")
        back = reflector_from_monad(m)
        add(f"monad-reflector-roundtrip {label}",
            back.members == r.members and naturally_equivalent(monad_from_reflector(back), m),
            "")
        monads.append(m)

    sources = unit_extension_masks(cat, monads)
    detail = _order_mismatch(refls, lambda i, j: sources[i] >> j & 1 == 1
                             and monad_morphism_exists(monads[j], monads[i]) is not None)
    add("monad-order-isomorphism", not detail, detail)

    return SuiteReport(cat, tuple(checks))


def unit_extension_masks(cat: FinCat, monads) -> list[int]:
    """Bit j of masks[i] is set when each unit component of monads[j] extends to
    that of monads[i]: when `monad_morphism_exists(monads[j], monads[i])` has a
    unit-law candidate at every object, which it needs to find a morphism."""
    masks = [(1 << len(monads)) - 1] * len(monads)
    for x in cat.objects:
        by_unit = defaultdict(int)   # a unit component at x -> the monads with it
        for j, m in enumerate(monads):
            by_unit[m.unit.components[x]] |= 1 << j
        reach = {d: sum(mask for c, mask in by_unit.items() if cat.extensions(c, d))
                 for d in by_unit}
        for i, m in enumerate(monads):
            masks[i] &= reach[m.unit.components[x]]
    return masks


def _order_mismatch(refls, related) -> str:
    """The first pair (i, j), in order, where `refls[i] <= refls[j]` as
    subcategories disagrees with `related(i, j)`, described; "" when none."""
    for i, ri in enumerate(refls):
        for j, rj in enumerate(refls):
            if (ri.members <= rj.members) != related(i, j):
                return f"{sorted(ri.members)} vs {sorted(rj.members)}"
    return ""
