"""Model structures on finite categories: construction and exhaustive verification.

The discrete structure has all maps as cofibrations and fibrations and the
isomorphisms as weak equivalences.  A replete reflective subcategory induces a
localization of it: cofibrations stay everything, weak equivalences become the
maps inverted by the reflector, and fibrations are computed as the right
lifting class of the weak equivalences.  `verify_model_axioms` checks all six
closed-model axiom families by brute force, so every structure produced here
is certified rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fincat import (CategoryError, FinCat, FullSubcat, FunctorData, NatTransData,
                     binary_coproduct, binary_product, identity_functor, opposite,
                     require_hypotheses, require_valid, terminal_object)
from .lifting import (MorphismClass, isomorphisms, llp_class,
                      retract_closure_counterexample, rlp_class)
from .monadkit import is_idempotent, monad_from_reflector, \
    monad_morphism_exists, naturally_equivalent, reflector_from_monad, verify_monad
from .reflect import Reflector, certify_reflector, enumerate_replete_reflective, \
    find_reflector, inverted_class


@dataclass(frozen=True)
class ModelStructure:
    base: FinCat
    cof: MorphismClass
    we: MorphismClass
    fib: MorphismClass
    provenance: str                     # "discrete" | "localization" | "colocalization"
    reflector: Reflector | None = None

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


def discrete_structure(cat: FinCat) -> ModelStructure:
    """All maps cofibrations and fibrations; weak equivalences the isomorphisms."""
    require_hypotheses(cat)
    everything = MorphismClass.all_morphisms(cat)
    return ModelStructure(cat, everything, isomorphisms(cat), everything, "discrete")


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
    """Exhaustively check the six closed-model axiom families."""
    cat = ms.base
    require_valid(cat)
    results: list[tuple[str, bool, tuple]] = []

    for name, cls in (("retracts-cof", ms.cof), ("retracts-we", ms.we),
                      ("retracts-fib", ms.fib)):
        bad = retract_closure_counterexample(cat, cls)
        results.append((name, bad is None, bad or ()))

    bad233: tuple = ()
    for g in cat.morphisms:
        for f in cat.morphisms:
            if cat.src[g] != cat.dst[f]:
                continue
            h = cat.comp(g, f)
            trio = (f in ms.we, g in ms.we, h in ms.we)
            if sum(trio) == 2 and not all(trio):
                bad233 = bad233 or (f, g, h)
    results.append(("two-of-three", not bad233, bad233))

    acyclic_fib = ms.acyclic_fibrations()
    acyclic_cof = ms.acyclic_cofibrations()
    lhs = llp_class(cat, acyclic_fib)
    diff = sorted(lhs.members ^ ms.cof.members)
    results.append(("cof-equals-llp-acyclic-fib", not diff, tuple(diff[:1])))
    lhs = llp_class(cat, ms.fib)
    diff = sorted(lhs.members ^ acyclic_cof.members)
    results.append(("acyclic-cof-equals-llp-fib", not diff, tuple(diff[:1])))

    def factorization_exists(f: str, first: MorphismClass, second: MorphismClass) -> bool:
        x, y = cat.src[f], cat.dst[f]
        for z in cat.objects:
            for e in cat.hom(x, z):
                if e not in first:
                    continue
                for m in cat.hom(z, y):
                    if m in second and cat.comp(m, e) == f:
                        return True
        return False

    bad_f: tuple = ()
    for f in cat.morphisms:
        if not factorization_exists(f, acyclic_cof, ms.fib):
            bad_f = (f,)
            break
    results.append(("factor-acyclic-cof-then-fib", not bad_f, bad_f))
    bad_f = ()
    for f in cat.morphisms:
        if not factorization_exists(f, ms.cof, acyclic_fib):
            bad_f = (f,)
            break
    results.append(("factor-cof-then-acyclic-fib", not bad_f, bad_f))

    return AxiomReport(all(ok for _, ok, _ in results), tuple(results))


# -- fibrant objects and replacement ---------------------------------------------------


def fibrant_objects(ms: ModelStructure) -> tuple[str, ...]:
    """Objects whose map to the terminal object is a fibration."""
    cat = ms.base
    term = terminal_object(cat)
    if not term.found:
        raise CategoryError("no terminal object; fibrancy undefined")
    return tuple(x for x in cat.objects if term.mediators[x] in ms.fib)


@dataclass(frozen=True)
class Replacement:
    obj: str
    fibrant: str
    unit: str   # acyclic cofibration obj -> fibrant


def fibrant_replacement(ms: ModelStructure, x: str) -> Replacement:
    """Least fibrant object under an acyclic cofibration from x."""
    cat = ms.base
    if x not in set(cat.objects):
        raise CategoryError(f"unknown object {x!r}")
    acyclic_cof = ms.acyclic_cofibrations()
    for p in fibrant_objects(ms):
        for i in cat.hom(x, p):
            if i in acyclic_cof:
                return Replacement(x, p, i)
    raise CategoryError(f"no fibrant replacement found for {x!r}")


@dataclass(frozen=True)
class ReplacementFunctor:
    structure: ModelStructure
    functor: FunctorData          # P, as an endofunctor landing in the fibrants
    unit: NatTransData            # id -> P, componentwise the replacement units
    filler_counts: dict           # morphism id -> number of fillers (1 everywhere)
    functorial: bool
    adjunction_ok: bool
    adjunction_witness: tuple = ()

    @property
    def unique_fillers(self) -> bool:
        return all(n == 1 for n in self.filler_counts.values())


def fibrant_replacement_functor(ms: ModelStructure) -> ReplacementFunctor:
    """Extend the chosen replacements to a functor, certifying filler uniqueness
    and the hom-set bijection making replacement left adjoint to the inclusion
    of fibrant objects."""
    cat = ms.base
    repl = {x: fibrant_replacement(ms, x) for x in cat.objects}
    obj_map = {x: repl[x].fibrant for x in cat.objects}
    unit = {x: repl[x].unit for x in cat.objects}

    mor_map = {}
    counts = {}
    for f in cat.morphisms:
        x, y = cat.src[f], cat.dst[f]
        want = cat.comp(unit[y], f)
        fillers = [g for g in cat.hom(obj_map[x], obj_map[y])
                   if cat.comp(g, unit[x]) == want]
        counts[f] = len(fillers)
        if fillers:
            mor_map[f] = fillers[0]
    if any(n != 1 for n in counts.values()):
        bad = min(f for f, n in counts.items() if n != 1)
        raise CategoryError(
            f"replacement filler not unique for {bad!r} (count {counts[bad]})")

    functor = FunctorData(cat, cat, obj_map, mor_map)
    nat = NatTransData(identity_functor(cat), functor, unit)
    functorial = functor.is_valid() and nat.is_valid()

    adjunction_ok, witness = True, ()
    fibrants = set(fibrant_objects(ms))
    for x in cat.objects:
        for b in sorted(fibrants):
            image = [cat.comp(w, unit[x]) for w in cat.hom(obj_map[x], b)]
            bijective = len(set(image)) == len(image) and set(image) == set(cat.hom(x, b))
            if not bijective:
                adjunction_ok, witness = False, (x, b)
                break
        if not adjunction_ok:
            break
    return ReplacementFunctor(ms, functor, nat, counts, functorial,
                              adjunction_ok, witness)


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

    left: bool | None = None
    left_reason = ""
    cop = binary_coproduct(cat, a, a)
    if not cop.found:
        left_reason = f"binary coproduct of ({a}, {a}) does not exist"
    else:
        fold_codiag = cop.mediators[(a, cat.id_of(a), cat.id_of(a))]
        fold_fg = cop.mediators[(b, f, g)]
        left = False
        for z in cat.objects:
            for i in cat.hom(cop.apex, z):
                if i not in ms.cof:
                    continue
                for j in cat.hom(z, a):
                    if j not in ms.we or cat.comp(j, i) != fold_codiag:
                        continue
                    if any(cat.comp(h, i) == fold_fg for h in cat.hom(z, b)):
                        left = True

    right: bool | None = None
    right_reason = ""
    prod = binary_product(cat, b, b)
    if not prod.found:
        right_reason = f"binary product of ({b}, {b}) does not exist"
    else:
        diag = prod.mediators[(b, cat.id_of(b), cat.id_of(b))]
        pair_fg = prod.mediators[(a, f, g)]
        right = False
        for z in cat.objects:
            for w in cat.hom(b, z):
                if w not in ms.we:
                    continue
                for p in cat.hom(z, prod.apex):
                    if p not in ms.fib or cat.comp(p, w) != diag:
                        continue
                    if any(cat.comp(p, k) == pair_fg for k in cat.hom(a, z)):
                        right = True

    return HomotopyReport(left, right, left_reason, right_reason)


# -- homotopy category ---------------------------------------------------------------------


@dataclass(frozen=True)
class HomotopyCategoryView:
    structure: ModelStructure
    objects: tuple[str, ...]            # fibrant objects; hom-sets inherited from the base
    subcat: FullSubcat
    replacement: ReplacementFunctor     # realizes the equivalence with the base
    we_inverted: bool
    we_inverted_witness: tuple
    hom_rigidity: bool                  # parallel maps into a fibrant: homotopic iff equal
    hom_rigidity_witness: tuple
    essentially_surjective: bool

    @property
    def equivalence_ok(self) -> bool:
        return (self.we_inverted and self.hom_rigidity and self.essentially_surjective
                and self.replacement.functorial and self.replacement.adjunction_ok)


def homotopy_category(ms: ModelStructure) -> HomotopyCategoryView:
    """Fibrant full subcategory plus the certificate that it models the
    homotopy category: replacement inverts weak equivalences, homotopy classes
    of maps into fibrant objects are singletons, and every object is weakly
    equivalent to its replacement."""
    cat = ms.base
    repl = fibrant_replacement_functor(ms)
    fibrants = fibrant_objects(ms)

    we_inverted, we_witness = True, ()
    for f in ms.we.sorted_members():
        if not cat.is_iso(repl.functor.mor_map[f]):
            we_inverted, we_witness = False, (f,)
            break

    rigidity, rigidity_witness = True, ()
    fibrant_set = set(fibrants)
    for a in cat.objects:
        for b in sorted(fibrant_set):
            homs = cat.hom(a, b)
            for f in homs:
                for g in homs:
                    rep = homotopy_relations(ms, f, g)
                    expected = f == g
                    if rep.left != expected or rep.right != expected:
                        rigidity, rigidity_witness = False, (f, g)
                        break
                if not rigidity:
                    break
            if not rigidity:
                break
        if not rigidity:
            break

    acyclic_cof = ms.acyclic_cofibrations()
    ess_surj = all(repl.unit.components[x] in acyclic_cof for x in cat.objects)

    return HomotopyCategoryView(
        structure=ms,
        objects=fibrants,
        subcat=FullSubcat(cat, frozenset(fibrants)),
        replacement=repl,
        we_inverted=we_inverted,
        we_inverted_witness=we_witness,
        hom_rigidity=rigidity,
        hom_rigidity_witness=rigidity_witness,
        essentially_surjective=ess_surj,
    )


def maps_between_fibrants_are_fibrations(ms: ModelStructure) -> tuple[bool, tuple]:
    cat = ms.base
    fibrants = set(fibrant_objects(ms))
    for f in cat.morphisms:
        if cat.src[f] in fibrants and cat.dst[f] in fibrants and f not in ms.fib:
            return False, (f,)
    return True, ()


# -- enumeration and posets ------------------------------------------------------------------


@dataclass(frozen=True)
class StructureFamily:
    """Localizations (or colocalizations) of the discrete structure on one base,
    with the poset given by inclusion of weak-equivalence classes."""
    base: FinCat
    kind: str                                   # "localization" | "colocalization"
    structures: tuple[ModelStructure, ...]
    subcat_members: tuple[tuple[str, ...], ...]  # reflective (resp. coreflective) members

    def leq(self, i: int, j: int) -> bool:
        return self.structures[i].we.members <= self.structures[j].we.members

    def leq_matrix(self) -> tuple[tuple[bool, ...], ...]:
        n = len(self.structures)
        return tuple(tuple(self.leq(i, j) for j in range(n)) for i in range(n))

    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        n = len(self.structures)
        edges = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq(i, j) or self.leq(j, i):
                    continue
                if any(k not in (i, j) and self.leq(i, k) and self.leq(k, j)
                       and not self.leq(k, i) and not self.leq(j, k) for k in range(n)):
                    continue
                edges.append((i, j))
        return tuple(sorted(edges))

    def node_label(self, i: int) -> str:
        return "{" + ",".join(self.subcat_members[i]) + "}"

    def to_dot(self) -> str:
        name = self.base.name or "C"
        lines = [f'digraph "{self.kind}s_{name}" {{', "  rankdir=BT;"]
        for i in range(len(self.structures)):
            lines.append(f'  n{i} [label="{self.node_label(i)}"];')
        for i, j in self.hasse_edges():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


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
    structures = []
    for st in op_family.structures:
        structures.append(ModelStructure(
            base=cat,
            cof=MorphismClass(cat, st.fib.members),
            we=MorphismClass(cat, st.we.members),
            fib=MorphismClass(cat, st.cof.members),
            provenance="colocalization",
        ))
    return ColocalizationFamily(cat, "colocalization", tuple(structures),
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
        acyclic_fib = st.acyclic_fibrations()
        add(f"acyclic-fib-are-isos {label}",
            acyclic_fib.members == cat.isos(), "")
        fo = fibrant_objects(st)
        add(f"fibrant-objects-match {label}", set(fo) == set(r.members), str(fo))
        repl = fibrant_replacement_functor(st)
        add(f"replacement-fillers-unique {label}", repl.unique_fillers, "")
        add(f"replacement-functorial {label}", repl.functorial, "")
        add(f"replacement-adjunction {label}", repl.adjunction_ok,
            str(repl.adjunction_witness))
        ho = homotopy_category(st)
        add(f"homotopy-category-equivalence {label}", ho.equivalence_ok, "")
        fib_ok, wit = maps_between_fibrants_are_fibrations(st)
        add(f"fibrant-maps-are-fibrations {label}", fib_ok, str(wit))

    distinct = len({st.we.members for st in structures}) == n
    add("distinct-structures", distinct, "")

    # Loc -> Refl -> Loc reproduces the classes on the nose.
    round_ok, detail = True, ""
    for r, st in zip(refls, structures):
        search = find_reflector(cat, frozenset(fibrant_objects(st)))
        if not search.found:
            round_ok, detail = False, "fibrant objects not reflective"
            break
        st2 = localization_from_reflector(search.reflector)
        if (st2.cof.members, st2.we.members, st2.fib.members) != \
           (st.cof.members, st.we.members, st.fib.members):
            round_ok, detail = False, f"classes changed for {sorted(r.members)}"
            break
    add("loc-refl-loc-identity", round_ok, detail)

    order_ok, detail = True, ""
    for i, ri in enumerate(refls):
        for j, rj in enumerate(refls):
            incl = ri.members <= rj.members
            rev = structures[j].we.members <= structures[i].we.members
            if incl != rev:
                order_ok, detail = False, f"{sorted(ri.members)} vs {sorted(rj.members)}"
                break
        if not order_ok:
            break
    add("loc-order-antitone", order_ok, detail)

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

    order_ok, detail = True, ""
    for i, ri in enumerate(refls):
        for j, rj in enumerate(refls):
            incl = ri.members <= rj.members
            morph = monad_morphism_exists(monads[j], monads[i]) is not None
            if incl != morph:
                order_ok, detail = False, f"{sorted(ri.members)} vs {sorted(rj.members)}"
                break
        if not order_ok:
            break
    add("monad-order-isomorphism", order_ok, detail)

    return SuiteReport(cat, tuple(checks))
