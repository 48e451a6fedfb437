"""Finite categories as explicit composition tables.

A category is stored exactly: object ids, morphism ids with endpoints, an
identity assignment, and a total composition table over composable pairs.
Everything downstream (limits, lifting properties, reflectors, model
structures) is decided by exhaustive search over this data, so validation and
universal-property certificates here are the trust anchor for the whole
package.

Ids are opaque strings; all iteration is in sorted order, so every operation
is deterministic.  Values are immutable after construction and every function
is pure, so each fact derived from a category is computed once and kept in
that instance's memo: its canonical key and hash, validation report, isos and
iso classes, opposite, (co)limit hypotheses, every limit search, keyed by
(shape, *args), every extension set, the lifting and retract row of each
morphism, the universal row of each morphism (and each object's maps out with
their rows as bitmasks), the factorizations of each morphism, the cylinder and
path candidates of each parallel pair, a generating set of morphisms with its
composable pairs, the identity functor's maps, the fillers of each (members,
unit) and the certificate of each reflector, and where each naturality square
at a generator is first decided.  Colimits are limits in the opposite, so they
sit in its memo.  No memo value refers back to its category, so no memo keeps
its category alive in a reference cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import combinations_with_replacement, product as iproduct

RESERVED_ID_PREFIX = "id_"


class CategoryError(Exception):
    """Malformed input or violated precondition."""


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.law} at {self.witness}"
        return f"{msg}: {self.detail}" if self.detail else msg


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: Violation | None = None
    missing: tuple[tuple[str, str], ...] = ()


class FinCat:
    """Objects, morphisms (id, src, dst), identities, and a composition table."""

    def __init__(self, objects, morphisms, identity, compose, name: str = ""):
        self.name = str(name)
        self.objects: tuple[str, ...] = tuple(sorted(str(o) for o in objects))
        triples = sorted((str(m), str(s), str(d)) for (m, s, d) in morphisms)
        self.morphisms: tuple[str, ...] = tuple(m for (m, _, _) in triples)
        self.src: dict[str, str] = {m: s for (m, s, _) in triples}
        self.dst: dict[str, str] = {m: d for (m, _, d) in triples}
        self.identity: dict[str, str] = {str(o): str(m) for o, m in dict(identity).items()}
        self.compose: dict[tuple[str, str], str] = {
            (str(g), str(f)): str(h) for (g, f), h in dict(compose).items()
        }
        self._n_morphism_entries = len(triples)
        obj_set = set(self.objects)
        homs: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:   # sorted, so each hom-set is too
            s, d = self.src[m], self.dst[m]
            if s in obj_set and d in obj_set:
                homs.setdefault((s, d), []).append(m)
        self._hom: dict[tuple[str, str], tuple[str, ...]] = {
            pair: tuple(ms) for pair, ms in homs.items()}
        self._memo: dict = {}

    def _memoized(self, key, compute):
        """`compute(self)`, computed once for this instance."""
        if key not in self._memo:
            self._memo[key] = compute(self)
        return self._memo[key]

    # -- basic accessors ---------------------------------------------------

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return self._hom.get((a, b), ())

    def comp(self, g: str, f: str) -> str:
        try:
            return self.compose[(g, f)]
        except KeyError:
            raise CategoryError(f"composition table has no entry for ({g}, {f})") from None

    def id_of(self, obj: str) -> str:
        try:
            return self.identity[obj]
        except KeyError:
            raise CategoryError(f"no identity recorded for object {obj!r}") from None

    def has_morphism(self, m: str) -> bool:
        return m in self.src

    def require_morphism(self, m: str) -> None:
        if not self.has_morphism(m):
            raise CategoryError(f"unknown morphism id {m!r}")

    def parallel(self, f: str, g: str) -> bool:
        return self.src[f] == self.src[g] and self.dst[f] == self.dst[g]

    def extensions(self, u: str, v: str) -> tuple[str, ...]:
        """The maps w: dst(u) -> dst(v) with w . u == v, in hom order; v factors
        uniquely through u exactly when there is one."""
        key = ("extensions", u, v)
        if key not in self._memo:
            self._memo[key] = tuple(w for w in self.hom(self.dst[u], self.dst[v])
                                    if self.comp(w, u) == v)
        return self._memo[key]

    # -- isomorphisms --------------------------------------------------------

    def inverse(self, f: str) -> str | None:
        s, d = self.src[f], self.dst[f]
        for g in self.hom(d, s):
            if self.comp(g, f) == self.id_of(s) and self.comp(f, g) == self.id_of(d):
                return g
        return None

    def isos(self) -> frozenset[str]:
        return self._memoized("isos", lambda cat: frozenset(
            m for m in cat.morphisms if cat.inverse(m) is not None))

    def is_iso(self, f: str) -> bool:
        return f in self.isos()

    # -- structural identity -------------------------------------------------

    def canonical(self) -> tuple:
        return self._memoized("canonical", lambda cat: (
            cat.objects,
            tuple((m, cat.src[m], cat.dst[m]) for m in cat.morphisms),
            tuple(sorted(cat.identity.items())),
            tuple(sorted(cat.compose.items())),
        ))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, FinCat) and hash(self) == hash(other)
                and self.canonical() == other.canonical())

    def __hash__(self) -> int:
        return self._memoized("hash", lambda cat: hash(cat.canonical()))

    def __repr__(self) -> str:
        label = self.name or "FinCat"
        return f"<{label}: {len(self.objects)} objects, {len(self.morphisms)} morphisms>"

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "FinCat":
        """Parse the category file format, auto-generating omitted identities.

        Auto-generated identities use the reserved id ``id_<object>``; the
        compose table may reference them, and their composition rows are
        filled in (without overriding explicit entries).
        """
        if not isinstance(data, dict):
            raise CategoryError("category file must be a JSON object")
        for key, kind in (("objects", list), ("morphisms", list), ("compose", list),
                          ("identity", dict)):
            if key in data and not isinstance(data[key], kind):
                raise CategoryError(f"malformed category file: {key!r} must be a JSON "
                                    f"{'array' if kind is list else 'object'}")
        try:
            objects = [_string(o, "objects", i) for i, o in enumerate(data["objects"])]
            raw_mors = [(_string(m["id"], "morphisms", i, "id"),
                         _string(m["src"], "morphisms", i, "src"),
                         _string(m["dst"], "morphisms", i, "dst"))
                        for i, m in enumerate(data.get("morphisms", []))]
            raw_comp = {(_string(r["g"], "compose", i, "g"), _string(r["f"], "compose", i, "f")):
                        _string(r["gf"], "compose", i, "gf")
                        for i, r in enumerate(data.get("compose", []))}
        except (KeyError, TypeError) as exc:
            raise CategoryError(f"malformed category file: {exc}") from exc
        identity = {_string(o, "identity key"): _string(m, "identity", o)
                    for o, m in data.get("identity", {}).items()}

        mor_ids = {m for (m, _, _) in raw_mors}
        for obj in objects:
            if obj in identity:
                continue
            auto = RESERVED_ID_PREFIX + obj
            if auto in mor_ids:
                raise CategoryError(
                    f"reserved identity id {auto!r} already used; declare identities explicitly")
            identity[obj] = auto
            raw_mors.append((auto, obj, obj))
            mor_ids.add(auto)
        src = {m: s for (m, s, _) in raw_mors}
        dst = {m: d for (m, _, d) in raw_mors}
        for m in sorted(mor_ids):
            if src[m] in identity:
                raw_comp.setdefault((m, identity[src[m]]), m)
            if dst[m] in identity:
                raw_comp.setdefault((identity[dst[m]], m), m)
        return cls(objects, raw_mors, identity, raw_comp,
                   name=_string(data["name"], "name") if "name" in data else "")


def _string(value, field: str, at=None, key: str = "") -> str:
    """`value`, which must be a JSON string, so that no id is read from null or
    0; the error names field[at].key."""
    if type(value) is not str:
        path = field + ("" if at is None else f"[{at!r}]") + (f".{key}" if key else "")
        raise CategoryError(f"malformed category file: {path} must be a JSON string, "
                            f"got {value!r}")
    return value


# -- validation ---------------------------------------------------------------


def validate_category(cat: FinCat) -> ValidationReport:
    """Check the category laws exhaustively; report the first violation.

    A partial composition table is reported with the full list of missing
    composable pairs.
    """
    if len(set(cat.objects)) != len(cat.objects):
        return _fail("unique-object-ids", (), "duplicate object ids")
    if cat._n_morphism_entries != len(set(cat.morphisms)):
        return _fail("unique-morphism-ids", (), "duplicate morphism ids")
    obj_set = set(cat.objects)
    for m in cat.morphisms:
        if cat.src[m] not in obj_set or cat.dst[m] not in obj_set:
            return _fail("morphism-endpoints", (m,),
                         f"src={cat.src[m]!r} dst={cat.dst[m]!r} not both objects")
    mor_set = set(cat.morphisms)
    for obj in cat.objects:
        i = cat.identity.get(obj)
        if i is None:
            return _fail("identity-assignment", (obj,), "object has no identity")
        if i not in mor_set or cat.src[i] != obj or cat.dst[i] != obj:
            return _fail("identity-assignment", (obj, i),
                         "identity is not an endomorphism of its object")
    for obj, i in sorted(cat.identity.items()):
        if obj not in obj_set:
            return _fail("identity-assignment", (obj, i), "identity for unknown object")

    composable = [(g, f) for g in cat.morphisms for f in cat.morphisms
                  if cat.src[g] == cat.dst[f]]
    missing = tuple((g, f) for (g, f) in composable if (g, f) not in cat.compose)
    if missing:
        return ValidationReport(
            ok=False,
            violation=Violation("compose-total", missing[0],
                                f"{len(missing)} composable pairs missing"),
            missing=missing,
        )
    for (g, f), h in sorted(cat.compose.items()):
        if g not in mor_set or f not in mor_set or h not in mor_set:
            return _fail("compose-refs", (g, f, h), "entry references unknown morphism")
        if cat.src[g] != cat.dst[f]:
            return _fail("compose-domain", (g, f), "entry for a non-composable pair")
    for (g, f) in composable:
        h = cat.compose[(g, f)]
        if cat.src[h] != cat.src[f] or cat.dst[h] != cat.dst[g]:
            return _fail("compose-src-dst", (g, f, h),
                         f"composite has src={cat.src[h]!r} dst={cat.dst[h]!r}")
    for f in cat.morphisms:
        if cat.compose[(cat.identity[cat.dst[f]], f)] != f:
            return _fail("unit-left", (f,), "id_dst(f) . f != f")
        if cat.compose[(f, cat.identity[cat.src[f]])] != f:
            return _fail("unit-right", (f,), "f . id_src(f) != f")
    for h in cat.morphisms:
        for g in cat.morphisms:
            if cat.src[h] != cat.dst[g]:
                continue
            hg = cat.compose[(h, g)]
            for f in cat.morphisms:
                if cat.src[g] != cat.dst[f]:
                    continue
                if cat.compose[(hg, f)] != cat.compose[(h, cat.compose[(g, f)])]:
                    return _fail("associativity", (h, g, f), "(h.g).f != h.(g.f)")
    return ValidationReport(ok=True)


def _fail(law: str, witness: tuple, detail: str) -> ValidationReport:
    return ValidationReport(ok=False, violation=Violation(law, witness, detail))


def validation_report(cat: FinCat) -> ValidationReport:
    """The category's `validate_category` report, computed once per instance."""
    return cat._memoized("valid", validate_category)


def require_valid(cat: FinCat) -> None:
    report = validation_report(cat)
    if not report.ok:
        raise CategoryError(f"invalid category: {report.violation}")


# -- limits and colimits ----------------------------------------------------------


@dataclass(frozen=True)
class LimitResult:
    """A certified (co)limit: apex, (co)cone legs, and for every competing
    (co)cone the unique mediating morphism.  Tests re-verify the certificate by
    independent cone enumeration."""
    shape: str
    args: tuple[str, ...]
    found: bool
    apex: str | None = None
    legs: tuple[str, ...] = ()
    mediators: dict = field(default_factory=dict)


def _limit(cat: FinCat, shape: str, args: tuple, targets: tuple, equation=None) -> LimitResult:
    """`_universal_cone`, searched once per category and (shape, *args)."""
    return cat._memoized((shape, *args),
                         lambda c: _universal_cone(c, shape, args, targets, equation))


def _universal_cone(cat: FinCat, shape: str, args: tuple, targets: tuple,
                    equation) -> LimitResult:
    """The least universal cone over `targets` in a valid category.

    A cone from w has one leg w -> t per target t and, when `equation` is
    (f, g), satisfies f . legs[0] == g . legs[-1].  Apexes and leg tuples are
    tried in sorted order; the first one through which every cone from every
    w factors by exactly one mediator wins.  Mediators are keyed (w, *cone),
    or w alone when there are no targets.
    """
    compose, hom = cat.compose, cat._hom.get
    f, g = equation or (None, None)

    @cache   # built on first use, so a rejected apex builds no later lists
    def cones_from(w: str) -> list:
        return [c for c in iproduct(*[hom((w, t), ()) for t in targets])
                if f is None or compose[f, c[0]] == compose[g, c[-1]]]

    for apex in cat.objects:
        for legs in cones_from(apex):
            mediators, total = {}, 0
            for w in cat.objects:
                # legs . m is a cone for every m: w -> apex, so each cone from
                # w has exactly one mediator iff there are as many maps as
                # cones and their images are distinct.
                n = len(cones_from(w))
                ms = hom((w, apex), ())
                if len(ms) != n:
                    break
                for m in ms:
                    mediators[(w, *[compose[leg, m] for leg in legs]) if targets else w] = m
                total += n
                if len(mediators) != total:
                    break
            else:
                return LimitResult(shape, args, True, apex, legs, mediators)
    return LimitResult(shape, args, False)


def terminal_object(cat: FinCat) -> LimitResult:
    return _limit(cat, "terminal", (), ())


def binary_product(cat: FinCat, a: str, b: str) -> LimitResult:
    return _limit(cat, "binary-product", (a, b), (a, b))


def equalizer(cat: FinCat, f: str, g: str) -> LimitResult:
    cat.require_morphism(f)
    cat.require_morphism(g)
    if not cat.parallel(f, g):
        raise CategoryError(f"equalizer needs a parallel pair, got {f!r}, {g!r}")
    return _limit(cat, "equalizer", (f, g), (cat.src[f],), (f, g))


def pullback(cat: FinCat, f: str, g: str) -> LimitResult:
    """Pullback of the cospan  src(f) --f--> . <--g-- src(g)."""
    cat.require_morphism(f)
    cat.require_morphism(g)
    if cat.dst[f] != cat.dst[g]:
        raise CategoryError(f"pullback needs a cospan, got {f!r}, {g!r}")
    return _limit(cat, "pullback", (f, g), (cat.src[f], cat.src[g]), (f, g))


def initial_object(cat: FinCat) -> LimitResult:
    return _dualize(terminal_object(opposite(cat)), "initial")


def binary_coproduct(cat: FinCat, a: str, b: str) -> LimitResult:
    return _dualize(binary_product(opposite(cat), a, b), "binary-coproduct")


def coequalizer(cat: FinCat, f: str, g: str) -> LimitResult:
    return _dualize(equalizer(opposite(cat), f, g), "coequalizer")


def pushout(cat: FinCat, f: str, g: str) -> LimitResult:
    """Pushout of the span  dst(f) <--f-- . --g--> dst(g)."""
    cat.require_morphism(f)
    cat.require_morphism(g)
    if cat.src[f] != cat.src[g]:
        raise CategoryError(f"pushout needs a span, got {f!r}, {g!r}")
    return _dualize(pullback(opposite(cat), f, g), "pushout")


def _dualize(result: LimitResult, shape: str) -> LimitResult:
    # Morphism ids are shared with the opposite category, so certificates
    # transport verbatim.
    return replace(result, shape=shape)


_SEARCHES = {
    "terminal": (terminal_object, 0),
    "initial": (initial_object, 0),
    "binary-product": (binary_product, 2),
    "binary-coproduct": (binary_coproduct, 2),
    "pullback": (pullback, 2),
    "pushout": (pushout, 2),
    "equalizer": (equalizer, 2),
    "coequalizer": (coequalizer, 2),
}
_LIMITS = frozenset({"terminal", "binary-product", "pullback", "equalizer"})


def limit_search(cat: FinCat, shape: str, *args: str) -> LimitResult:
    require_valid(cat)
    if shape not in _SEARCHES:
        raise CategoryError(f"unknown limit shape {shape!r}")
    fn, arity = _SEARCHES[shape]
    if len(args) != arity:
        raise CategoryError(f"shape {shape!r} takes {arity} arguments, got {len(args)}")
    return fn(cat, *args)


@dataclass(frozen=True)
class BicompletenessReport:
    ok: bool
    missing: tuple[str, ...] | None = None   # (shape, *args) of the first absent (co)limit
    thin: bool = True
    note: str = ""


def _scan_hypotheses(cat: FinCat) -> tuple[BicompletenessReport, tuple | None]:
    """One pass over the (co)limits that generate all finite (co)limits.

    The order is terminal, initial, then per object pair (a <= b) the product
    and coproduct, then per parallel pair (f <= g) the equalizer and
    coequalizer.  Returns the bicompleteness report (first absent shape) and
    the first absent *limit* shape, which is the well-completeness verdict;
    once a (co)limit is missing, only limits are still searched.
    """
    thin = all(len(cat.hom(a, b)) <= 1 for a in cat.objects for b in cat.objects)
    note = "finite categories: binary (co)products and (co)equalizers generate all finite (co)limits"
    shapes = [("terminal",), ("initial",)]
    for a, b in combinations_with_replacement(cat.objects, 2):
        shapes += [("binary-product", a, b), ("binary-coproduct", a, b)]
    for f in cat.morphisms:
        for g in cat.morphisms:
            if f <= g and cat.parallel(f, g):
                shapes += [("equalizer", f, g), ("coequalizer", f, g)]
    missing = missing_limit = None
    for shape in shapes:
        is_limit = shape[0] in _LIMITS
        if (missing is None or is_limit) and not _SEARCHES[shape[0]][0](cat, *shape[1:]).found:
            missing = missing or shape
            if is_limit:
                missing_limit = shape
                break
    return BicompletenessReport(missing is None, missing, thin, note), missing_limit


def hypothesis_scan(cat: FinCat) -> tuple[BicompletenessReport, tuple | None]:
    """`_scan_hypotheses`, computed once per valid category instance."""
    require_valid(cat)
    return cat._memoized("hypotheses", _scan_hypotheses)


def is_finitely_bicomplete(cat: FinCat) -> BicompletenessReport:
    """Terminal, initial, all binary (co)products, all (co)equalizers.

    For a finite category these generate all finite (co)limits.  Thinness (at
    most one morphism between any two objects) is reported as a diagnostic:
    a finite category with all binary products is necessarily thin, since
    hom(A, B)^n embeds in hom(A, B^n), which is bounded.
    """
    return hypothesis_scan(cat)[0]


def require_hypotheses(cat: FinCat) -> None:
    """Raise unless the category is finitely bicomplete and finitely
    well-complete, the hypotheses of every localization built here."""
    bicomplete, missing_limit = hypothesis_scan(cat)
    for name, missing in (("finitely bicomplete", bicomplete.missing),
                          ("finitely well-complete", missing_limit)):
        if missing:
            raise CategoryError(f"hypothesis failure: not {name}, missing {missing}")


def opposite(cat: FinCat) -> FinCat:
    """Reverse all morphisms; an involution up to structural equality."""
    return cat._memoized("op", lambda c: FinCat(
        c.objects,
        [(m, c.dst[m], c.src[m]) for m in c.morphisms],
        c.identity,
        {(f, g): h for (g, f), h in c.compose.items()},
        name=f"{c.name}^op" if c.name else "",
    ))


# -- functors, natural transformations, full subcategories -------------------------


def generators(cat: FinCat) -> tuple[str, ...]:
    """A generating set G, computed once per category: the indecomposable
    non-identity maps (a poset's covering maps), then, in morphism order, each
    map that the earlier ones do not reach.  The closure of the identities
    under g . - for g in G, which reaches every morphism, is its certificate."""
    return cat._memoized("generators", _generators)


def _generators(cat: FinCat) -> tuple[str, ...]:
    ids = set(cat.identity.values())
    composites = {h for (g, f), h in cat.compose.items() if g not in ids and f not in ids}
    gens, reached = [], set(ids)
    for m in sorted(cat.morphisms, key=lambda m: m in composites):   # a stable sort
        if m in reached:
            continue
        gens.append(m)
        words = list(reached)
        while words:
            w = words.pop()
            for g in gens:
                h = cat.compose.get((g, w))
                if h is not None and h not in reached:
                    reached.add(h)
                    words.append(h)
    return tuple(sorted(gens))   # morphism ids are sorted


def _generator_pairs(cat: FinCat) -> tuple:
    """Each (g, f, g . f) with g in G and f a non-identity map into src(g)."""
    ids = set(cat.identity.values())
    return tuple((g, f, cat.compose[g, f]) for g in generators(cat) for f in cat.morphisms
                 if f not in ids and cat.dst[f] == cat.src[g])


def _lawful(*cats: FinCat) -> bool:
    return all(validation_report(cat).ok for cat in cats)


@dataclass(frozen=True)
class FunctorData:
    source: FinCat
    target: FinCat
    obj_map: dict
    mor_map: dict

    @cached_property   # the maps are never mutated, so the verdict is decided once
    def violations(self) -> tuple[Violation, ...]:
        """Totality, endpoints and identities everywhere; composition on the
        pairs (g, f) with g in `generators(source)` once both categories are
        valid, and on every pair when any check fails.  By induction on the
        length of a word h in G, the generator pairs give F(h.f) = F(h).F(f)."""
        source, target, obj, mor = self.source, self.target, self.obj_map, self.mor_map
        out, targets = [], set(target.objects)
        for x in source.objects:
            if x not in obj:
                out.append(Violation("functor-obj-total", (x,)))
            elif obj[x] not in targets:
                out.append(Violation("functor-obj-target", (x, obj[x])))
        tsrc, tdst = target.src, target.dst
        for f in source.morphisms:
            if f not in mor:
                out.append(Violation("functor-mor-total", (f,)))
                continue
            ff = mor[f]
            if ff not in tsrc:
                out.append(Violation("functor-mor-target", (f, ff)))
                continue
            if tsrc[ff] != obj.get(source.src[f]) or tdst[ff] != obj.get(source.dst[f]):
                out.append(Violation("functor-endpoints", (f, ff)))
        if out:
            return tuple(out)
        out = [Violation("functor-identity", (x,)) for x in source.objects
               if mor[source.id_of(x)] != target.id_of(obj[x])]
        comp, table = target.comp, target.compose   # the table is total once target is valid
        if not out and _lawful(source, target) and all(
                table[mor[g], mor[f]] == mor[h]
                for g, f, h in source._memoized("generator-pairs", _generator_pairs)):
            return ()
        for (g, f), h in source.canonical()[3]:
            got = comp(mor[g], mor[f])
            if got != mor[h]:
                out.append(Violation("functor-composition", (g, f), f"F(g.f) != F(g).F(f) ({got})"))
        return tuple(out)

    def is_valid(self) -> bool:
        return not self.violations

    @cached_property
    def squared(self) -> "FunctorData":
        """self . self, once per endofunctor; a composite of functors is one."""
        composite = compose_functors(self, self)
        if self.is_valid():
            composite.__dict__["violations"] = ()
        return composite


def identity_functor(cat: FinCat) -> FunctorData:
    """The identity functor, on maps built once per category.  On a valid
    category its laws are the unit laws that validation checked, so its
    verdict is recorded instead of walked."""
    functor = FunctorData(cat, cat, *cat._memoized("identity-maps", lambda c: (
        {x: x for x in c.objects}, {m: m for m in c.morphisms})))
    if _lawful(cat):
        functor.__dict__["violations"] = ()
    return functor


def compose_functors(first: FunctorData, second: FunctorData) -> FunctorData:
    """second . first (apply `first`, then `second`)."""
    if first.target != second.source:
        raise CategoryError("functors not composable")
    return FunctorData(
        first.source, second.target,
        {x: second.obj_map[y] for x, y in first.obj_map.items()},
        {f: second.mor_map[g] for f, g in first.mor_map.items()},
    )


@dataclass(frozen=True)
class NatTransData:
    source: FunctorData
    target: FunctorData
    components: dict   # object id -> morphism id in the shared target category

    @cached_property   # the components are never mutated, so the verdict is decided once
    def violations(self) -> tuple[Violation, ...]:
        """Totality and endpoints everywhere; naturality at the generators once
        both functors are valid between valid categories, and at every map
        when a square fails: squares at g and h paste to one at g.h."""
        out = []
        if self.source.source != self.target.source or self.source.target != self.target.target:
            return (Violation("nat-shape", (), "source/target functors not parallel"),)
        cat, tgt, comps = self.source.source, self.source.target, self.components
        sobj, tobj, tsrc, tdst = self.source.obj_map, self.target.obj_map, tgt.src, tgt.dst
        for x in cat.objects:
            c = comps.get(x)
            if c is None:
                out.append(Violation("nat-total", (x,)))
                continue
            if c not in tsrc or tsrc[c] != sobj[x] or tdst[c] != tobj[x]:
                out.append(Violation("nat-component", (x, c)))
        if out:
            return tuple(out)
        comp, smor, tmor = tgt.comp, self.source.mor_map, self.target.mor_map
        src, dst = cat.src, cat.dst
        table = tgt.compose   # total, once tgt is valid
        if _lawful(cat, tgt) and self.source.is_valid() and self.target.is_valid() and all(
                table[comps[dst[f]], smor[f]] == table[tmor[f], comps[src[f]]]
                for f in generators(cat)):
            return ()
        for f in cat.morphisms:
            lhs = comp(comps[dst[f]], smor[f])
            rhs = comp(tmor[f], comps[src[f]])
            if lhs != rhs:
                out.append(Violation("naturality", (f,), f"{lhs} != {rhs}"))
        return tuple(out)

    def is_valid(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class FullSubcat:
    parent: FinCat
    members: frozenset

    def __post_init__(self):
        bad = self.members - set(self.parent.objects)
        if bad:
            raise CategoryError(f"subcategory members not in parent: {sorted(bad)}")


def iso_classes(cat: FinCat) -> tuple[tuple[str, ...], ...]:
    """Isomorphism classes of objects, each sorted, ordered by least member."""
    require_valid(cat)
    return cat._memoized("iso_classes", _iso_classes)


def _iso_classes(cat: FinCat) -> tuple[tuple[str, ...], ...]:
    remaining = set(cat.objects)
    classes = []
    for x in cat.objects:
        if x not in remaining:
            continue
        cls = {y for y in cat.objects if any(cat.is_iso(f) for f in cat.hom(x, y))}
        cls.add(x)
        remaining -= cls
        classes.append(tuple(sorted(cls)))
    return tuple(sorted(classes))
