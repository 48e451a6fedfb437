"""Monad laws, idempotency, and the reflector <-> monad dictionary.

A monad is stored as raw data (endofunctor, unit, multiplication); the
verifier re-checks every law at every object and morphism and reports all
violations, first one leading.  The multiplication of a reflector monad is
not stored but reconstructed from unique factorizations, which doubles as a
correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fincat import (CategoryError, FinCat, FunctorData, NatTransData, Violation,
                     identity_functor, iso_classes)
from .reflect import Reflector, certify_reflector


@dataclass(frozen=True)
class MonadData:
    functor: FunctorData   # T
    unit: NatTransData     # id -> T
    mult: NatTransData     # T.T -> T

    @property
    def cat(self) -> FinCat:
        return self.functor.source


@dataclass(frozen=True)
class MonadReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    @property
    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None


def verify_monad(monad: MonadData) -> MonadReport:
    """Check shapes, naturality, unit laws, and associativity everywhere."""
    t = monad.functor
    cat = monad.cat
    shape: list[Violation] = []
    if t.target != cat:
        shape.append(Violation("monad-shape", (), "T is not an endofunctor"))
    if monad.unit.source != identity_functor(cat) or monad.unit.target != t:
        shape.append(Violation("monad-shape", (), "unit is not id -> T"))
    tt = t.squared if not shape else None
    if tt is not None and (monad.mult.source != tt or monad.mult.target != t):
        shape.append(Violation("monad-shape", (), "mult is not T.T -> T"))
    if shape or t.violations:
        return MonadReport(False, (*shape, *t.violations))

    out: list[Violation] = []
    for v in monad.unit.violations:
        out.append(Violation("unit-" + v.law, v.witness, v.detail))
    for v in monad.mult.violations:
        out.append(Violation("mult-" + v.law, v.witness, v.detail))
    if any(v.law.endswith(("nat-total", "nat-component", "nat-shape")) for v in out):
        return MonadReport(False, tuple(out))

    eta, mu = monad.unit.components, monad.mult.components
    t_obj, t_mor = t.obj_map, t.mor_map
    for x in cat.objects:
        tx = t_obj[x]
        want = cat.id_of(tx)
        if cat.comp(mu[x], t_mor[eta[x]]) != want:
            out.append(Violation("monad-unit-left", (x,), "mu . T(eta) != id"))
        if cat.comp(mu[x], eta[tx]) != want:
            out.append(Violation("monad-unit-right", (x,), "mu . eta_T != id"))
    for x in cat.objects:
        lhs = cat.comp(mu[x], t_mor[mu[x]])
        rhs = cat.comp(mu[x], mu[t_obj[x]])
        if lhs != rhs:
            out.append(Violation("monad-associativity", (x,), f"{lhs} != {rhs}"))
    return MonadReport(not out, tuple(out))


def is_idempotent(monad: MonadData) -> bool:
    """Both T(eta_X) and eta_{TX} are isomorphisms, for every X."""
    cat = monad.cat
    eta = monad.unit.components
    for x in cat.objects:
        if not cat.is_iso(monad.functor.mor_map[eta[x]]):
            return False
        if not cat.is_iso(eta[monad.functor.obj_map[x]]):
            return False
    return True


def monad_from_reflector(refl: Reflector) -> MonadData:
    """Monad of the reflection adjunction; mu is rebuilt from unique factorizations."""
    cat = refl.cat
    bad = certify_reflector(refl)
    if bad:
        raise CategoryError(f"reflector fails certification: {bad[0]}")
    t = refl.functor
    mu = {}
    for x in cat.objects:
        tx = t.obj_map[x]
        candidates = cat.extensions(refl.unit.components[tx], cat.id_of(tx))
        if len(candidates) != 1:
            raise CategoryError(f"multiplication at {x!r} not uniquely determined")
        mu[x] = candidates[0]
    return MonadData(t, refl.unit, NatTransData(t.squared, t, mu))


def reflector_from_monad(monad: MonadData) -> Reflector:
    """Essential image of an idempotent monad, as a certified reflector."""
    report = verify_monad(monad)
    if not report.ok:
        raise CategoryError(f"monad laws fail: {report.first}")
    if not is_idempotent(monad):
        raise CategoryError("monad is not idempotent; no associated reflective subcategory")
    cat = monad.cat
    image = {monad.functor.obj_map[x] for x in cat.objects}
    members = set()
    for cls in iso_classes(cat):
        if image & set(cls):
            members.update(cls)
    refl = Reflector(cat, frozenset(members), monad.functor, monad.unit)
    bad = certify_reflector(refl)
    if bad:
        raise CategoryError(f"idempotent monad did not induce a reflector: {bad[0]}")
    return refl


def is_monad_morphism(source: MonadData, target: MonadData, components: dict) -> bool:
    """Natural transformation commuting with both units and multiplications."""
    cat = source.cat
    sigma = NatTransData(source.functor, target.functor, components)
    if not sigma.is_valid():
        return False
    for x in cat.objects:
        if cat.comp(components[x], source.unit.components[x]) != target.unit.components[x]:
            return False
        # Horizontal composite (sigma * sigma)_X = sigma_{T'X} . T(sigma_X).
        hor = cat.comp(components[target.functor.obj_map[x]],
                       source.functor.mor_map[components[x]])
        if cat.comp(components[x], source.mult.components[x]) != \
           cat.comp(target.mult.components[x], hor):
            return False
    return True


def monad_morphism_exists(source: MonadData, target: MonadData,
                          isos_only: bool = False) -> NatTransData | None:
    """Exhaustive search for a monad morphism; first witness in canonical order.

    The component at x ranges over the c with c . eta_x == eta'_x, in hom order,
    the first object slowest; `is_monad_morphism` alone certifies each choice.
    On a thin category each x has at most one such c, so there is one choice."""
    if source.cat != target.cat:
        raise CategoryError("monads live on different categories")
    cat = source.cat
    candidates = []
    for x in cat.objects:
        opts = [c for c in cat.extensions(source.unit.components[x], target.unit.components[x])
                if not isos_only or cat.is_iso(c)]
        if not opts:
            return None
        candidates.append(opts)
    for choice in product(*candidates):
        components = dict(zip(cat.objects, choice))
        if is_monad_morphism(source, target, components):
            return NatTransData(source.functor, target.functor, components)
    return None


def naturally_equivalent(first: MonadData, second: MonadData) -> bool:
    """A monad morphism whose components are all isomorphisms exists."""
    return monad_morphism_exists(first, second, isos_only=True) is not None
