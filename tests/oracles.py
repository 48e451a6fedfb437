"""Independent oracles the test suite checks the library against.

Each function here recomputes a result by a different route than the library
(closure-operator enumeration instead of universal-arrow search, raw square
scans instead of the lifting helpers, a mediator count per competing cone
instead of one pass over the maps into the apex, minor gcds instead of the
diagonal form, every hom matrix of a truncated abelian p-group category instead
of Littlewood-Richardson support, hom-set searches and full naturality scans
instead of the per-category tables the model and monad certificates filter,
per-target factorization counts instead of memoized universal rows), so
agreement is meaningful.  Monomorphisms, epimorphisms and ring homomorphisms
are decided only here, by exhaustive cancellation and backtracking searches;
no command needs them, and the tests use them as reference checks.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct
from math import gcd

from loclab.fincat import FinCat, opposite
from loclab.lifting import MorphismClass


# -- closure operators on a thin category ------------------------------------------


def thin_leq(cat: FinCat) -> dict:
    return {(a, b): bool(cat.hom(a, b)) for a in cat.objects for b in cat.objects}


def closure_operator_fixed_sets(cat: FinCat) -> set[frozenset]:
    """Fixed-point sets of all closure operators on a thin category.

    A closure operator is an inflationary, monotone, idempotent self-map; its
    fixed sets are exactly the reflective full sub-posets.
    """
    objs = cat.objects
    leq = thin_leq(cat)
    out: set[frozenset] = set()
    for images in iproduct(objs, repeat=len(objs)):
        cl = dict(zip(objs, images))
        if not all(leq[(x, cl[x])] for x in objs):
            continue
        if not all(leq[(cl[x], cl[y])] for x in objs for y in objs if leq[(x, y)]):
            continue
        if not all(cl[cl[x]] == cl[x] for x in objs):
            continue
        out.add(frozenset(x for x in objs if cl[x] == x))
    return out


def coclosure_operator_fixed_sets(cat: FinCat) -> set[frozenset]:
    """Fixed sets of interior (co-closure) operators: the coreflective sub-posets."""
    objs = cat.objects
    leq = thin_leq(cat)
    out: set[frozenset] = set()
    for images in iproduct(objs, repeat=len(objs)):
        cl = dict(zip(objs, images))
        if not all(leq[(cl[x], x)] for x in objs):
            continue
        if not all(leq[(cl[x], cl[y])] for x in objs for y in objs if leq[(x, y)]):
            continue
        if not all(cl[cl[x]] == cl[x] for x in objs):
            continue
        out.add(frozenset(x for x in objs if cl[x] == x))
    return out


# -- reflectivity via the adjunction hom-set bijection ---------------------------------


def reflective_by_hom_bijection(cat: FinCat, members: frozenset) -> bool:
    """For each X some (a, u) must make precomposition a bijection
    hom(a, a') -> hom(X, a') for every member a'."""
    if not members:
        return False
    for x in cat.objects:
        found = False
        for a in sorted(members):
            for u in cat.hom(x, a):
                bij = True
                for a2 in sorted(members):
                    image = [cat.comp(w, u) for w in cat.hom(a, a2)]
                    if len(set(image)) != len(image) or set(image) != set(cat.hom(x, a2)):
                        bij = False
                        break
                if bij:
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True


def coreflective_members_direct(cat: FinCat) -> set[frozenset]:
    """Coreflective full subcategories by direct universal-arrow-from search."""
    objs = cat.objects
    out: set[frozenset] = set()
    for k in range(1, len(objs) + 1):
        for combo in combinations(objs, k):
            members = frozenset(combo)
            if _is_coreflective(cat, members):
                out.add(members)
    return out


def _is_coreflective(cat: FinCat, members: frozenset) -> bool:
    for x in cat.objects:
        found = False
        for a in sorted(members):
            for u in cat.hom(a, x):
                ok = True
                for a2 in sorted(members):
                    for v in cat.hom(a2, x):
                        if sum(1 for w in cat.hom(a2, a) if cat.comp(u, w) == v) != 1:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True


# -- universal arrows by per-target scans -------------------------------------------


def non_universal_target_by_scan(cat: FinCat, targets, u: str) -> str | None:
    """The first b in `targets` with some v: src(u) -> b that does not factor
    through u exactly once, counting the factorizations over hom(dst u, b);
    None when u is universal for every target."""
    x, a = cat.src[u], cat.dst[u]
    for b in targets:
        for v in cat.hom(x, b):
            if sum(cat.comp(w, u) == v for w in cat.hom(a, b)) != 1:
                return b
    return None


def universal_arrows_by_scan(cat: FinCat, members) -> dict | str:
    """The least (a, u) with u: x -> a universal into `members`, for each object
    x, as {x: u}; or the first object with no universal arrow."""
    targets = sorted(members)
    unit = {}
    for x in cat.objects:
        chosen = next((u for a in targets for u in cat.hom(x, a)
                       if non_universal_target_by_scan(cat, targets, u) is None), None)
        if chosen is None:
            return x
        unit[x] = chosen
    return unit


# -- monomorphisms and epimorphisms by cancellation ------------------------------------


def is_mono(cat: FinCat, f: str) -> bool:
    """Exhaustive cancellation search: f.u == f.v forces u == v.

    f is epi in C exactly when it is mono in C^op, which shares morphism ids,
    so `is_mono(opposite(cat), f)` decides epi.
    """
    s = cat.src[f]
    return all(u == v or cat.comp(f, u) != cat.comp(f, v)
               for w in cat.objects for u in cat.hom(w, s) for v in cat.hom(w, s))


def monomorphisms(cat: FinCat) -> MorphismClass:
    return MorphismClass(cat, frozenset(f for f in cat.morphisms if is_mono(cat, f)))


def epimorphisms(cat: FinCat) -> MorphismClass:
    """Epis of C are the monos of C^op, which shares morphism ids."""
    op = opposite(cat)
    return MorphismClass(cat, frozenset(f for f in cat.morphisms if is_mono(op, f)))


# -- lifting re-enumeration ----------------------------------------------------------


def rlp_members_oracle(cat: FinCat, left_members) -> frozenset:
    """Raw double loop over all squares, no helper reuse, bottom-first order."""
    out = set()
    for f in cat.morphisms:
        ok = True
        for g in sorted(left_members):
            for bottom in cat.hom(cat.dst[g], cat.dst[f]):
                for top in cat.hom(cat.src[g], cat.src[f]):
                    if cat.comp(f, top) != cat.comp(bottom, g):
                        continue
                    if not any(cat.comp(h, g) == top and cat.comp(f, h) == bottom
                               for h in cat.hom(cat.dst[g], cat.src[f])):
                        ok = False
        if ok:
            out.add(f)
    return frozenset(out)


# -- model-structure certificates by hom-set search ---------------------------------


def retract_witness_by_scan(cat: FinCat, cls) -> tuple | None:
    """Least (f, g), f-major over the morphisms and then over the sorted
    members, with f outside the class a retract of g inside it."""
    from loclab.lifting import is_retract

    for f in cat.morphisms:
        if f not in cls:
            for g in sorted(cls.members):
                if is_retract(cat, f, g):
                    return (f, g)
    return None


def factorization_exists_by_search(cat: FinCat, f: str, first, second) -> bool:
    """Some z, e: src(f) -> z in `first` and m: z -> dst(f) in `second` with
    m . e == f."""
    x, y = cat.src[f], cat.dst[f]
    for z in cat.objects:
        for e in cat.hom(x, z):
            if e not in first:
                continue
            for m in cat.hom(z, y):
                if m in second and cat.comp(m, e) == f:
                    return True
    return False


def axiom_witnesses_by_search(ms) -> dict:
    """The witnesses of the retract, two-of-three and factorization axioms, as
    `verify_model_axioms` reports them, from scans over morphism pairs and
    hom-sets."""
    cat = ms.base
    out = {name: retract_witness_by_scan(cat, cls) or ()
           for name, cls in (("retracts-cof", ms.cof), ("retracts-we", ms.we),
                             ("retracts-fib", ms.fib))}
    bad233: tuple = ()
    for g in cat.morphisms:
        for f in cat.morphisms:
            if cat.src[g] != cat.dst[f]:
                continue
            h = cat.comp(g, f)
            trio = (f in ms.we, g in ms.we, h in ms.we)
            if sum(trio) == 2 and not all(trio):
                bad233 = bad233 or (f, g, h)
    out["two-of-three"] = bad233
    acyclic_cof, acyclic_fib = ms.acyclic_cofibrations(), ms.acyclic_fibrations()
    for name, first, second in (("factor-acyclic-cof-then-fib", acyclic_cof, ms.fib),
                                ("factor-cof-then-acyclic-fib", ms.cof, acyclic_fib)):
        out[name] = next(((f,) for f in cat.morphisms
                          if not factorization_exists_by_search(cat, f, first, second)), ())
    return out


def homotopy_by_search(ms, f: str, g: str) -> tuple:
    """(left, right) for a parallel pair, by searching every cylinder
    a + a -> z -> a and every path object b -> z -> b x b; None on a side
    whose (co)product does not exist."""
    from loclab.fincat import binary_coproduct, binary_product

    cat = ms.base
    a, b = cat.src[f], cat.dst[f]
    left = right = None
    cop = binary_coproduct(cat, a, a)
    if cop.found:
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
    prod = binary_product(cat, b, b)
    if prod.found:
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
    return left, right


# -- monad morphisms by backtracking with full naturality scans ----------------------


def monad_morphism_by_full_scan(source, target, isos_only: bool = False) -> dict | None:
    """Components of the first monad morphism in canonical order: each
    component ranges over hom(Tx, T'x), and every step rescans all naturality
    squares whose endpoints are both assigned."""
    from loclab.monadkit import is_monad_morphism

    cat = source.cat
    objects = list(cat.objects)
    candidates = []
    for x in objects:
        opts = [c for c in cat.hom(source.on_obj(x), target.on_obj(x))
                if (not isos_only or cat.is_iso(c))
                and cat.comp(c, source.unit.at(x)) == target.unit.at(x)]
        if not opts:
            return None
        candidates.append(opts)
    assignment: dict = {}

    def natural_so_far() -> bool:
        for f in cat.morphisms:
            a, b = cat.src[f], cat.dst[f]
            if a in assignment and b in assignment:
                if cat.comp(assignment[b], source.on_mor(f)) != \
                   cat.comp(target.on_mor(f), assignment[a]):
                    return False
        return True

    def search(i: int) -> dict | None:
        if i == len(objects):
            return dict(assignment) if is_monad_morphism(source, target, assignment) else None
        for c in candidates[i]:
            assignment[objects[i]] = c
            if natural_so_far():
                hit = search(i + 1)
                if hit is not None:
                    return hit
            del assignment[objects[i]]
        return None

    return search(0)


# -- posets of structures --------------------------------------------------------------


def hasse_edges_by_triples(family) -> list:
    """Covering pairs (i, j) of the strict inclusion order on weak-equivalence
    classes, by testing every triple (i, j, k)."""
    we = [st.we.members for st in family.structures]
    n = len(we)

    def lt(i, j):
        return we[i] <= we[j] and not we[j] <= we[i]

    return [(i, j) for i in range(n) for j in range(n)
            if lt(i, j) and not any(lt(i, k) and lt(k, j) for k in range(n))]


_DUALS = {"initial": "terminal", "binary-coproduct": "binary-product",
          "pushout": "pullback", "coequalizer": "equalizer"}


def _limit_side(cat: FinCat, shape: str) -> tuple:
    """The category and limit shape a (co)limit is checked as: a colimit is
    the dual limit in the opposite, which shares morphism ids."""
    if shape in _DUALS:
        from loclab.fincat import opposite
        return opposite(cat), _DUALS[shape]
    return cat, shape


def recheck_limit_certificate(cat: FinCat, result) -> bool:
    """Re-enumerate competing cones independently and compare with the stored
    mediators (coverage, existence, uniqueness)."""
    if not result.found:
        return True
    cat, shape = _limit_side(cat, result.shape)
    return _certificate(cat, shape, result.args, result.apex, result.legs) == result.mediators


def least_limit(cat: FinCat, shape: str, args: tuple) -> tuple:
    """(found, apex, legs, mediators) for the first apex and leg tuple, in
    sorted order, whose certificate checks; (False, None, (), {}) if none."""
    cat, shape = _limit_side(cat, shape)
    if shape == "terminal":
        targets = ()
    elif shape == "binary-product":
        targets = tuple(args)
    elif shape == "equalizer":
        targets = (cat.src[args[0]],)
    else:
        targets = (cat.src[args[0]], cat.src[args[1]])
    for apex in cat.objects:
        for legs in iproduct(*[cat.hom(apex, t) for t in targets]):
            mediators = _certificate(cat, shape, args, apex, legs)
            if mediators is not None:
                return True, apex, legs, mediators
    return False, None, (), {}


def _certificate(cat: FinCat, shape: str, args: tuple, apex: str, legs: tuple):
    """The unique mediator of every competing cone through (apex, legs) of a
    limit shape, or None when the legs are no cone or some cone has none or
    several."""
    if shape == "terminal":
        expected = {}
        for x in cat.objects:
            hom = cat.hom(x, apex)
            if len(hom) != 1:
                return None
            expected[x] = hom[0]
        return expected
    if shape == "binary-product":
        a, b = args
        p, q = legs
        expected = {}
        for x in cat.objects:
            for f in cat.hom(x, a):
                for g in cat.hom(x, b):
                    ms = [m for m in cat.hom(x, apex)
                          if cat.comp(p, m) == f and cat.comp(q, m) == g]
                    if len(ms) != 1:
                        return None
                    expected[(x, f, g)] = ms[0]
        return expected
    if shape == "equalizer":
        f, g = args
        (e,) = legs
        x = cat.src[f]
        if cat.comp(f, e) != cat.comp(g, e):
            return None
        expected = {}
        for w in cat.objects:
            for u in cat.hom(w, x):
                if cat.comp(f, u) != cat.comp(g, u):
                    continue
                ms = [m for m in cat.hom(w, apex) if cat.comp(e, m) == u]
                if len(ms) != 1:
                    return None
                expected[(w, u)] = ms[0]
        return expected
    if shape == "pullback":
        f, g = args
        p, q = legs
        a, b = cat.src[f], cat.src[g]
        if cat.comp(f, p) != cat.comp(g, q):
            return None
        expected = {}
        for w in cat.objects:
            for u in cat.hom(w, a):
                for v in cat.hom(w, b):
                    if cat.comp(f, u) != cat.comp(g, v):
                        continue
                    ms = [m for m in cat.hom(w, apex)
                          if cat.comp(p, m) == u and cat.comp(q, m) == v]
                    if len(ms) != 1:
                        return None
                    expected[(w, u, v)] = ms[0]
        return expected
    raise AssertionError(f"unknown shape {shape}")


# -- ring homomorphisms and epimorphism cancellation -----------------------------------


def ring_homs(domain, codomain) -> tuple[dict, ...]:
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


def ring_map_is_epi_on(hom, test_rings) -> bool:
    """Cancellation against the supplied rings: u . phi = v . phi forces u = v."""
    s = hom.codomain
    for t in test_rings:
        for u in ring_homs(s, t):
            for v in ring_homs(s, t):
                if u == v:
                    continue
                if all(u[hom(r)] == v[hom(r)] for r in hom.domain.elements):
                    return False
    return True


# -- tensor square on all pairs --------------------------------------------------------


def tensor_square_on_pairs(hom):
    """S (x)_R S presented on generators S x S.

    Relations: (s+s', t) - (s, t) - (s', t), (s, t+t') - (s, t) - (s, t'),
    and (phi(r) s, t) - (s, phi(r) t) for all r, s, t.  Duplicate and zero
    rows are dropped before the Smith normal form.
    """
    from loclab.ringmod import AbPresentation, RingError, TensorSquare, require_valid_hom

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


# -- K0 of truncated abelian p-groups, map by map --------------------------------------


def hom_matrices(p: int, src: tuple, dst: tuple):
    """All homomorphisms as integer matrices m[i][j]: generator j of the
    source goes to sum_i m[i][j] * (generator i of the target); the entry
    at (i, j) must be a multiple of p^max(0, dst_i - src_j)."""
    choices = [tuple(range(0, p ** b, p ** max(0, b - a))) for b in dst for a in src]
    rows, cols = len(dst), len(src)
    for flat in iproduct(*choices):
        yield tuple(tuple(flat[i * cols + j] for j in range(cols)) for i in range(rows))


def truncated_maps(trunc) -> list:
    """(source, target, cofiber, is_iso) for every hom matrix between objects."""
    out = []
    for src in trunc.objects:
        for dst in trunc.objects:
            for matrix in hom_matrices(trunc.p, src, dst):
                quotient = trunc.cofiber(src, dst, matrix)
                out.append((src, dst, quotient, trunc.is_iso(src, dst, quotient)))
    return out


def truncated_k0_by_maps(trunc, maps: list, we_mode: str) -> tuple:
    """Distinct nonzero rows in sorted order, their tags (the first seen), and
    the raw cofiber and weak-equivalence counts, one relation per map."""
    index = {part: i for i, part in enumerate(trunc.objects)}
    seen: dict = {}

    def add(entries, tag):
        row = [0] * len(index)
        for part, c in entries:
            row[index[part]] += c
        if any(row):
            seen.setdefault(tuple(row), tag)

    n_we = 0
    for src, dst, quotient, iso in maps:
        add([(src, 1), (quotient, 1), (dst, -1)], "cofiber-sequence")
        if we_mode == "all" or iso:
            add([(src, 1), (dst, -1)], "weak-equivalence")
            n_we += 1
    rows = sorted(seen)
    return tuple(rows), tuple(seen[r] for r in rows), len(maps), n_we


# -- minor-gcd invariant factors -------------------------------------------------------


def invariant_factors_by_minors(matrix: list[list[int]]) -> list[int]:
    """d_1 ... d_k = gcd of all k x k minors; independent of any reduction."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    factors = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = gcd(g, _det(sub))
        if g == 0:
            factors.extend([0] * (min(m, n) - len(factors)))
            break
        factors.append(g // previous)
        previous = g
    return factors


def _det(mat: list[list[int]]) -> int:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total
