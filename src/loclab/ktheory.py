"""K_0 of Waldhausen structures induced by discrete localizations.

Every map is a cofibration in these structures, so K_0 is presented by one
generator per isomorphism class of objects, a relation [A] + [cofiber f] - [B]
for every map f: A -> B, and [A] - [B] for every weak equivalence.  The zero
map A -> B contributes [A] + [B] - [B] = [A], which kills every generator row
by row; the group is therefore trivial, and the suite checks exactly that.

Two carriers are supported: an explicit pointed finite category (cofibers via
certified pushout search) and the category of abelian p-groups of bounded
order.  The truncated carrier is not finitely bicomplete - products can exceed
the bound - but cofibers are quotients and never grow, which is all the
presentation needs.  No map of it is enumerated: the image of A -> B has a type
mu contained in that of A, and B has a subgroup of type mu and cotype nu exactly
when the Littlewood-Richardson coefficient c^B_{mu nu} is nonzero (Macdonald,
"Symmetric Functions and Hall Polynomials", ch. II (4.3)).  The raw relation
counts are closed forms: hom matrices, and under `isos` the sum of |Aut|.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod

from .fincat import CategoryError, FinCat, iso_classes, pushout, require_valid
from .snf import cokernel_invariants

TRUNCATED_ORDER_CAP = 64


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


Partition = tuple[int, ...]   # descending exponents: (2, 1) stands for Z/p^2 + Z/p


def partition_label(p: int, part: Partition) -> str:
    return "x".join(f"Z/{p ** e}" for e in part) or "0"


def partitions_up_to(bound: int) -> tuple[Partition, ...]:
    """All partitions with total at most `bound`, ordered by (total, partition)."""
    def of(n: int, cap: int) -> list[Partition]:      # partitions of n into parts <= cap
        return [()] if n == 0 else [(k, *rest) for k in range(min(n, cap), 0, -1)
                                    for rest in of(n - k, k)]
    return tuple(sorted((q for n in range(bound + 1) for q in of(n, n)),
                        key=lambda q: (sum(q), q)))


def contains(outer: Partition, inner: Partition) -> bool:
    """Young-diagram containment: the type of a subgroup, or of a quotient."""
    return len(inner) <= len(outer) and all(i <= o for i, o in zip(inner, outer))


def lr_nonzero(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """Whether the Littlewood-Richardson coefficient c^lam_{mu nu} is nonzero.

    Searches for one LR tableau: shape lam/mu filled with content nu, rows
    weakly increasing, columns strictly increasing, and the word read row by
    row from the top, each row right to left, a lattice word.
    """
    if not contains(lam, mu) or sum(lam) != sum(mu) + sum(nu):
        return False
    mu = mu + (0,) * (len(lam) - len(mu))
    cells = [(r, c) for r, row in enumerate(lam) for c in range(row - 1, mu[r] - 1, -1)]
    entry, used = {}, [0] * (len(nu) + 1)       # used[i]: entries i placed so far

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        r, c = cells[k]
        for i in range(entry.get((r - 1, c), 0) + 1, entry.get((r, c + 1), len(nu)) + 1):
            if used[i] < nu[i - 1] and (i == 1 or used[i] < used[i - 1]):
                used[i] += 1
                entry[r, c] = i
                if fill(k + 1):
                    return True
                used[i] -= 1
                del entry[r, c]
        return False

    return fill(0)


@dataclass(frozen=True)
class TruncatedAbelianCategory:
    """Abelian p-groups of order at most p^bound, with all homomorphisms."""
    p: int
    bound: int
    objects: tuple[Partition, ...]

    def label(self, part: Partition) -> str:
        return partition_label(self.p, part)

    def hom_count(self, src: Partition, dst: Partition) -> int:
        return prod(self.p ** min(a, b) for b in dst for a in src)

    def matrix_count(self) -> int:
        """Number of hom matrices over all pairs of objects, in closed form."""
        return sum(self.hom_count(src, dst) for src in self.objects for dst in self.objects)

    def aut_count(self, part: Partition) -> int:
        """|Aut| of the group of type `part` (Macdonald, ch. II §1):
        p^(|part| + 2 n(part)) prod_i phi_{m_i}(1/p), where n(part) is
        sum_i (i - 1) part_i, m_i the multiplicity of i, phi_m(t) the product
        (1 - t)...(1 - t^m); each 1 - p^-k is written (p^k - 1) / p^k."""
        p, mults = self.p, [part.count(e) for e in set(part)]
        exponent = sum(part) + sum(2 * i * e for i, e in enumerate(part)) \
            - sum(m * (m + 1) // 2 for m in mults)
        return p ** exponent * prod(p ** k - 1 for m in mults for k in range(1, m + 1))

    def cofiber(self, src: Partition, dst: Partition, matrix) -> Partition:
        """Quotient of the target by the image of one map, via the stacked
        presentation.  K_0 reads its rows off partitions instead; this is the
        per-map definition those rows are tested against."""
        p, n = self.p, len(dst)
        rows = [[p ** b if i == k else 0 for k in range(n)] for i, b in enumerate(dst)]
        rows += [[matrix[i][j] for i in range(n)] for j in range(len(src))]
        exps = []
        for d in cokernel_invariants(rows, n) if n else []:     # units dropped: each e >= 1
            e = 0
            while d > 1 and d % p == 0:
                d, e = d // p, e + 1
            if d != 1:
                raise CategoryError("quotient of a finite p-group is not a finite p-group")
            exps.append(e)
        return tuple(sorted(exps, reverse=True))

    def is_iso(self, src: Partition, dst: Partition, cofiber: Partition) -> bool:
        """Decided from the map's cofiber: surjective endomorphisms of a
        finite group are bijective."""
        return src == dst and cofiber == ()


def build_truncated_ab_category(p: int, bound: int) -> TruncatedAbelianCategory:
    """Checks the bound, then the cap, then primality, so a huge p or bound is
    refused before any large power or trial division.  For p >= 2, p^bound
    exceeds the cap once bound reaches the cap's bit length."""
    cap = TRUNCATED_ORDER_CAP
    if bound < 1:
        raise CategoryError(f"bound = {bound} must be at least 1")
    if p >= 2 and (bound >= cap.bit_length() or p ** bound > cap):
        raise CategoryError(f"p^bound = {p}^{bound} exceeds the cap of {cap}")
    if not _is_prime(p):
        raise CategoryError(f"p = {p} is not prime")
    return TruncatedAbelianCategory(p, bound, partitions_up_to(bound))


# -- Waldhausen data ------------------------------------------------------------------


@dataclass(frozen=True)
class WaldhausenData:
    """Pointed category with all maps as cofibrations and a chosen class of
    weak equivalences; exactly one of `cat` / `truncated` is set."""
    kind: str                                    # "fincat" | "truncated-abelian"
    cat: FinCat | None = None
    zero: str | None = None
    we: frozenset | None = None
    truncated: TruncatedAbelianCategory | None = None
    we_mode: str | None = None                   # "isos" | "all"


def waldhausen_from_fincat(cat: FinCat, we) -> WaldhausenData:
    """Checks that the category is pointed (an object both initial and terminal)."""
    require_valid(cat)
    zero = next((z for z in cat.objects if all(
        len(cat.hom(z, x)) == 1 and len(cat.hom(x, z)) == 1 for x in cat.objects)), None)
    if zero is None:
        raise CategoryError("category is not pointed: no zero object")
    members = frozenset(str(m) for m in we)
    unknown = sorted(members - set(cat.morphisms))
    if unknown:
        raise CategoryError(f"weak equivalences reference unknown morphisms: {unknown}")
    return WaldhausenData("fincat", cat=cat, zero=zero, we=members)


def waldhausen_truncated(p: int, bound: int, we_mode: str = "isos") -> WaldhausenData:
    if we_mode not in ("isos", "all"):
        raise CategoryError(f"unknown weak-equivalence mode {we_mode!r}")
    trunc = build_truncated_ab_category(p, bound)
    return WaldhausenData("truncated-abelian", truncated=trunc, we_mode=we_mode)


def cofiber(data: WaldhausenData, f: str) -> str:
    """Pushout of f along (source -> 0), certified by the universal property."""
    if data.kind != "fincat":
        raise CategoryError("cofiber by morphism id needs a fincat carrier")
    cat = data.cat
    cat.require_morphism(f)
    to_zero = cat.hom(cat.src[f], data.zero)[0]
    po = pushout(cat, f, to_zero)
    if not po.found:
        raise CategoryError(
            f"invalid WaldhausenData: pushout of {f!r} along the zero map is absent")
    return po.apex


# -- K0 ----------------------------------------------------------------------------------


@dataclass(frozen=True)
class K0Presentation:
    generators: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    tags: tuple[str, ...]                  # per row: "cofiber-sequence" | "weak-equivalence"
    cofiber_relation_count: int            # raw counts before deduplication
    we_relation_count: int

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "relations": [list(r) for r in self.rows],
            "tags": list(self.tags),
            "cofiber_relations": self.cofiber_relation_count,
            "we_relations": self.we_relation_count,
        }


def _collect(n: int, raw: list) -> tuple[tuple, tuple]:
    seen = {}
    for entries, tag in raw:
        row = [0] * n
        for g, c in entries:
            row[g] += c
        if any(row):
            seen.setdefault(tuple(row), tag)
    keys = sorted(seen)
    return tuple(keys), tuple(seen[k] for k in keys)


def k0_presentation(data: WaldhausenData) -> K0Presentation:
    """Generators: iso classes.  Relations: [A] + [cofiber f] - [B] for every
    map (all maps are cofibrations here), [A] - [B] for every weak equivalence."""
    if data.kind == "fincat":
        return _k0_fincat(data)
    return _k0_truncated(data)


def _k0_fincat(data: WaldhausenData) -> K0Presentation:
    cat = data.cat
    classes = iso_classes(cat)
    gen_index = {x: i for i, cls in enumerate(classes) for x in cls}   # object -> its class
    raw = []
    for f in cat.morphisms:
        a, b = gen_index[cat.src[f]], gen_index[cat.dst[f]]
        raw.append(([(a, 1), (gen_index[cofiber(data, f)], 1), (b, -1)], "cofiber-sequence"))
        if f in data.we:
            raw.append(([(a, 1), (b, -1)], "weak-equivalence"))
    rows, tags = _collect(len(classes), raw)
    return K0Presentation(tuple(cls[0] for cls in classes), rows, tags, len(cat.morphisms),
                          sum(f in data.we for f in cat.morphisms))


def _k0_truncated(data: WaldhausenData) -> K0Presentation:
    """Rows from partitions: [A] + [nu] - [B] for each cotype nu of the image
    of some map A -> B, and [A] - [B] for every pair under `all` (under `isos`
    every weak-equivalence row is [A] - [A] = 0).  Counts in closed form."""
    trunc = data.truncated
    objects, n = trunc.objects, len(trunc.objects)
    # per target B, (mu, index of nu) for each subgroup type mu and its cotype nu
    subgroups = [[(mu, q) for mu in objects for q, nu in enumerate(objects)
                  if lr_nonzero(dst, mu, nu)] for dst in objects]
    raw = [([(a, 1), (q, 1), (b, -1)], "cofiber-sequence") for a, src in enumerate(objects)
           for b in range(n) for mu, q in subgroups[b] if contains(src, mu)]
    if data.we_mode == "all":
        raw += [([(a, 1), (b, -1)], "weak-equivalence") for a in range(n) for b in range(n)]
    rows, tags = _collect(n, raw)
    n_maps = trunc.matrix_count()
    n_we = n_maps if data.we_mode == "all" else sum(map(trunc.aut_count, objects))
    return K0Presentation(tuple(map(trunc.label, objects)), rows, tags, n_maps, n_we)


def k0_group(pres: K0Presentation) -> tuple[int, ...]:
    """Invariant factors of the presented group; empty tuple means trivial."""
    return tuple(cokernel_invariants(pres.rows, len(pres.generators)))
