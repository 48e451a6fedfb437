"""K_0 of Waldhausen structures induced by discrete localizations.

Every map is a cofibration in these structures, so K_0 is presented by one
generator per isomorphism class of objects, a relation [A] + [cofiber f] - [B]
for every map f: A -> B, and [A] - [B] for every weak equivalence.  The zero
map A -> B contributes [A] + [B] - [B] = [A], which kills every generator row
by row; the group is therefore trivial, and the suite checks exactly that.

Two carriers are supported: an explicit pointed finite category (cofibers via
certified pushout search) and the category of abelian p-groups of bounded
order (cofibers via quotient presentations and Smith normal form).  The
truncated carrier is not finitely bicomplete - products can exceed the bound -
but cofibers are quotients and never grow, which is all the presentation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .fincat import CategoryError, FinCat, iso_classes, pushout, require_valid
from .snf import cokernel_invariants

TRUNCATED_ORDER_CAP = 64
TRUNCATED_MATRIX_BUDGET = 100_000   # hom matrices one K_0 presentation may enumerate


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


Partition = tuple[int, ...]   # descending exponents: (2, 1) stands for Z/p^2 + Z/p


def partition_label(p: int, part: Partition) -> str:
    if not part:
        return "0"
    return "x".join(f"Z/{p ** e}" for e in part)


def partitions_up_to(bound: int) -> tuple[Partition, ...]:
    """All partitions with total at most `bound`, ordered by (total, partition)."""
    out: list[Partition] = [()]
    def grow(prefix: list[int], remaining: int, cap: int) -> None:
        for k in range(min(cap, remaining), 0, -1):
            part = prefix + [k]
            out.append(tuple(part))
            grow(part, remaining - k, k)
    grow([], bound, bound)
    return tuple(sorted(out, key=lambda q: (sum(q), q)))


@dataclass(frozen=True)
class TruncatedAbelianCategory:
    """Abelian p-groups of order at most p^bound, with all homomorphisms."""
    p: int
    bound: int
    objects: tuple[Partition, ...]

    def label(self, part: Partition) -> str:
        return partition_label(self.p, part)

    def hom_matrices(self, src: Partition, dst: Partition):
        """All homomorphisms as integer matrices m[i][j]: generator j of the
        source goes to sum_i m[i][j] * (generator i of the target); the entry
        at (i, j) must be a multiple of p^max(0, dst_i - src_j)."""
        p = self.p
        choices = []
        for i, b in enumerate(dst):
            for j, a in enumerate(src):
                step = p ** max(0, b - a)
                choices.append(tuple(range(0, p ** b, step)))
        if not choices:
            yield ()
            return
        rows, cols = len(dst), len(src)
        for flat in iproduct(*choices):
            yield tuple(tuple(flat[i * cols + j] for j in range(cols)) for i in range(rows))

    def hom_count(self, src: Partition, dst: Partition) -> int:
        total = 1
        for b in dst:
            for a in src:
                total *= self.p ** min(a, b)
        return total

    def matrix_count(self) -> int:
        """Number of hom matrices over all pairs of objects, in closed form."""
        return sum(self.hom_count(src, dst) for src in self.objects for dst in self.objects)

    def cofiber(self, src: Partition, dst: Partition, matrix) -> Partition:
        """Quotient of the target by the image, via the stacked presentation."""
        p = self.p
        if not dst:
            return ()
        rows = [[p ** b if i == k else 0 for k in range(len(dst))]
                for i, b in enumerate(dst)]
        for j in range(len(src)):
            rows.append([matrix[i][j] for i in range(len(dst))])
        factors = cokernel_invariants(rows, len(dst))
        exps = []
        for d in factors:
            if d == 0:
                raise CategoryError("quotient of a finite group came out infinite")
            e = 0
            while d > 1:
                if d % p:
                    raise CategoryError("quotient order not a p-power")
                d //= p
                e += 1
            exps.append(e)
        return tuple(sorted((e for e in exps if e), reverse=True))

    def is_iso(self, src: Partition, dst: Partition, cofiber: Partition) -> bool:
        """Decided from the map's cofiber: surjective endomorphisms of a
        finite group are bijective."""
        return src == dst and cofiber == ()


def build_truncated_ab_category(p: int, bound: int) -> TruncatedAbelianCategory:
    if not _is_prime(p):
        raise CategoryError(f"p = {p} is not prime")
    if bound < 1 or p ** bound > TRUNCATED_ORDER_CAP:
        raise CategoryError(
            f"p^bound = {p ** bound} exceeds the cap of {TRUNCATED_ORDER_CAP}")
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
    zero = None
    for z in cat.objects:
        if all(len(cat.hom(z, x)) == 1 and len(cat.hom(x, z)) == 1 for x in cat.objects):
            zero = z
            break
    if zero is None:
        raise CategoryError("category is not pointed: no zero object")
    members = frozenset(str(m) for m in we)
    unknown = sorted(members - set(cat.morphisms))
    if unknown:
        raise CategoryError(f"weak equivalences reference unknown morphisms: {unknown}")
    return WaldhausenData("fincat", cat=cat, zero=zero, we=members)


def waldhausen_truncated(p: int, bound: int, we_mode: str = "isos") -> WaldhausenData:
    """Refused before any enumeration when its K_0 presentation would run
    over `TRUNCATED_MATRIX_BUDGET` hom matrices."""
    if we_mode not in ("isos", "all"):
        raise CategoryError(f"unknown weak-equivalence mode {we_mode!r}")
    trunc = build_truncated_ab_category(p, bound)
    count = trunc.matrix_count()
    if count > TRUNCATED_MATRIX_BUDGET:
        raise CategoryError(f"p={p}, bound={bound} has {count} hom matrices, over the "
                            f"budget of {TRUNCATED_MATRIX_BUDGET}")
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
        key = tuple(row)
        if any(key) and key not in seen:
            seen[key] = tag
    items = sorted(seen.items())
    return tuple(k for k, _ in items), tuple(t for _, t in items)


def k0_presentation(data: WaldhausenData) -> K0Presentation:
    """Generators: iso classes.  Relations: [A] + [cofiber f] - [B] for every
    map (all maps are cofibrations here), [A] - [B] for every weak equivalence."""
    if data.kind == "fincat":
        return _k0_fincat(data)
    return _k0_truncated(data)


def _k0_fincat(data: WaldhausenData) -> K0Presentation:
    cat = data.cat
    classes = iso_classes(cat)
    rep = {}
    for cls in classes:
        for x in cls:
            rep[x] = cls[0]
    gens = tuple(cls[0] for cls in classes)
    gen_index = {g: i for i, g in enumerate(gens)}

    raw = []
    n_cof = n_we = 0
    for f in cat.morphisms:
        a = gen_index[rep[cat.src[f]]]
        b = gen_index[rep[cat.dst[f]]]
        q = gen_index[rep[cofiber(data, f)]]
        raw.append(([(a, 1), (q, 1), (b, -1)], "cofiber-sequence"))
        n_cof += 1
        if f in data.we:
            raw.append(([(a, 1), (b, -1)], "weak-equivalence"))
            n_we += 1
    rows, tags = _collect(len(gens), raw)
    return K0Presentation(gens, rows, tags, n_cof, n_we)


def _k0_truncated(data: WaldhausenData) -> K0Presentation:
    trunc = data.truncated
    gens = tuple(trunc.label(part) for part in trunc.objects)
    gen_index = {part: i for i, part in enumerate(trunc.objects)}

    raw = []
    n_cof = n_we = 0
    for src in trunc.objects:
        for dst in trunc.objects:
            a, b = gen_index[src], gen_index[dst]
            for matrix in trunc.hom_matrices(src, dst):
                quotient = trunc.cofiber(src, dst, matrix)
                q = gen_index[quotient]
                raw.append(([(a, 1), (q, 1), (b, -1)], "cofiber-sequence"))
                n_cof += 1
                is_we = data.we_mode == "all" or trunc.is_iso(src, dst, quotient)
                if is_we:
                    raw.append(([(a, 1), (b, -1)], "weak-equivalence"))
                    n_we += 1
    rows, tags = _collect(len(gens), raw)
    return K0Presentation(gens, rows, tags, n_cof, n_we)


def k0_group(pres: K0Presentation) -> tuple[int, ...]:
    """Invariant factors of the presented group; empty tuple means trivial."""
    return tuple(cokernel_invariants(pres.rows, len(pres.generators)))
