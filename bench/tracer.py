"""Per-layer timing of loclab from outside: wrap named functions where they are bound.

A traced run replaces each function listed in `TARGETS` in every `loclab`
module namespace that holds it (and methods on their class), so calls made
through any import path are seen.  Each wrapper records a call count and self
time: its span's duration minus the time covered by wrapped calls made inside
it.  Four size counters are read from call arguments and return values.
Stats are kept per pass in memory.
"""

from __future__ import annotations

import sys
import time

TARGETS = {
    "cli": ["main"],
    "corpus": ["load_json"],
    "fincat": ["FinCat.from_json_dict", "validate_category", "is_finitely_bicomplete",
               "limit_search", "opposite", "FinCat.__eq__"],
    "lifting": ["rlp_class", "llp_class", "retract_closure_counterexample",
                "is_finitely_well_complete"],
    "reflect": ["enumerate_replete_reflective", "find_reflector", "certify_reflector"],
    "monadkit": ["monad_morphism_exists", "verify_monad", "monad_from_reflector",
                 "reflector_from_monad"],
    "modelstruct": ["enumerate_localizations", "colocalizations_via_op",
                    "localization_from_reflector", "verify_model_axioms",
                    "fibrant_replacement_functor", "homotopy_category", "bijection_suite"],
    "snf": ["smith_normal_form", "SnfResult.check"],
    "ktheory": ["k0_presentation", "k0_group", "TruncatedAbelianCategory.cofiber",
                "TruncatedAbelianCategory.is_iso"],
    "ringmod": ["ring_from_spec", "validate_ring", "tensor_square"],
}

COUNTERS = ("snf.cells", "ktheory.matrices", "ringmod.tensor_rows", "modelstruct.structures")


def metric_names() -> list:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for layer, functions in TARGETS.items():
        for fn in functions:
            names += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
        names.append((f"{layer}.self_s", "s"))
    return names + [(c, "count") for c in COUNTERS]


def _snf_cells(args, kwargs, result):
    matrix = args[0]
    return len(matrix) * len(matrix[0]) if matrix else 0


def _k0_matrices(args, kwargs, result):
    return result.cofiber_relation_count if args[0].kind == "truncated-abelian" else 0


SIZES = {
    "snf.smith_normal_form": ("snf.cells", _snf_cells),
    "ktheory.k0_presentation": ("ktheory.matrices", _k0_matrices),
    "ringmod.tensor_square": ("ringmod.tensor_rows",
                              lambda args, kwargs, result: len(result.presentation.relations)),
}


class Tracer:
    def __init__(self):
        self.passes: list = []
        self.stack: list = []
        self.restore: list = []          # (owner, attribute, original)

    def start_pass(self) -> None:
        stats = {name: 0 for name, _ in metric_names()}
        self.passes.append(stats)

    def _wrap(self, key: str, fn):
        stack, perf_counter, passes = self.stack, time.perf_counter, self.passes
        size = SIZES.get(key)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += span
                stats = passes[-1]
                stats[key + ".calls"] += 1
                stats[key + ".self_s"] += span - inner
            if size:
                stats[size[0]] += size[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attribute, new) -> None:
        self.restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, new)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "loclab" or name.startswith("loclab."))]
        for layer, functions in TARGETS.items():
            home = sys.modules[f"loclab.{layer}"]
            for qualname in functions:
                key = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attribute = qualname.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attribute]
                    if isinstance(raw, classmethod):
                        self._replace(cls, attribute, classmethod(self._wrap(key, raw.__func__)))
                    else:
                        self._replace(cls, attribute, self._wrap(key, raw))
                    continue
                original = getattr(home, qualname)
                traced = self._wrap(key, original)
                for module in modules:
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, attribute, traced)
        ms = sys.modules["loclab.modelstruct"].ModelStructure
        init = ms.__init__

        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.passes[-1]["modelstruct.structures"] += 1

        self._replace(ms, "__init__", counted_init)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self.restore):
            setattr(owner, attribute, original)
        self.restore.clear()


def layer_totals(stats: dict) -> dict:
    """Add <layer>.self_s, the sum of the self times of the layer's functions."""
    out = dict(stats)
    for layer, functions in TARGETS.items():
        out[f"{layer}.self_s"] = sum(stats[f"{layer}.{fn}.self_s"] for fn in functions)
    return out
