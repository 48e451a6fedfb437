"""Command-line front end: batch verification with deterministic reports.

Exit codes: 0 when every verdict is positive, 1 when a mathematical verdict is
negative, 2 for input errors (unreadable files, malformed JSON, cap
violations).  Reports are byte-identical across runs on identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cache

from . import corpus
from .fincat import (CategoryError, FinCat, FunctorData, NatTransData, identity_functor,
                     is_finitely_bicomplete, limit_search, validation_report)
from .ktheory import k0_group, k0_presentation, waldhausen_from_fincat, waldhausen_truncated
from .lifting import MorphismClass, is_finitely_well_complete
from .modelstruct import (ModelStructure, bijection_suite, colocalizations_via_op,
                          enumerate_localizations, homotopy_category,
                          localization_from_reflector, verify_model_axioms)
from .monadkit import MonadData, is_idempotent, monad_from_reflector, verify_monad
from .reflect import enumerate_replete_reflective, find_reflector
from .ringmod import RingError, RingHom, localization_exists_verdict, ring_from_spec
from .schema import MODEL, MONAD, TRUNCATED, check, check_ring_map

INPUT_ERROR = 2
NEGATIVE = 1
OK = 0


@dataclass
class Outcome:
    ok: bool
    payload: dict
    lines: list = field(default_factory=list)
    dot: str | None = None


def _read_json(path: str) -> dict:
    """A filesystem path, or a bundled corpus name as a fallback."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=corpus.unique_keys)
    except FileNotFoundError:
        return corpus.load_json(path)
    except (ValueError, RecursionError) as exc:   # not UTF-8 JSON, or too long or deep
        raise CategoryError(f"malformed JSON in {path}: {exc}") from exc


COMMON_DEFAULTS = {"format": "text", "max_objects": 8, "max_morphisms": 64,
                   "max_ring_elements": 16, "emit_dot": None}
DEFAULT_ARGS = argparse.Namespace(**COMMON_DEFAULTS)


class _Stop(Exception):
    """Ends a command early with its negative outcome."""

    def __init__(self, outcome: Outcome):
        super().__init__()
        self.outcome = outcome


def _load_category(args, source, within: str = "") -> FinCat:
    """The CLI's one category loader: read the JSON, build the FinCat, apply
    --max-objects and --max-morphisms, and validate.

    `source` is a path or corpus name.  With `within` ("model" or "monad") it
    is instead the parsed file of that kind, already checked, whose `category`
    field is built.  An invalid category file ends the command with the
    negative `invalid` report; an invalid category inside a model or monad
    file is an input error.
    """
    cat = FinCat.from_checked_dict(source["category"]) if within else \
        FinCat.from_json_dict(_read_json(source))
    for kind, count, cap in (("objects", len(cat.objects), args.max_objects),
                             ("morphisms", len(cat.morphisms), args.max_morphisms)):
        if count > cap:
            raise CategoryError(f"{count} {kind} exceeds --max-{kind} {cap}")
    rep = validation_report(cat)
    if rep.ok:
        return cat
    if within:
        raise CategoryError(f"{within} file category invalid: {rep.violation}")
    raise _Stop(Outcome(False, {
        "verdict": "invalid",
        "law": rep.violation.law,
        "witness": list(rep.violation.witness),
        "detail": rep.violation.detail,
        "missing_compositions": [list(p) for p in rep.missing],
    }, [f"FAIL {rep.violation}"]))


# -- subcommands -------------------------------------------------------------------


def cmd_validate(args) -> Outcome:
    cat = _load_category(args, args.category)
    return Outcome(True, {"verdict": "pass", "objects": len(cat.objects),
                          "morphisms": len(cat.morphisms)},
                   [f"PASS {cat.name or args.category}: valid category "
                    f"({len(cat.objects)} objects, {len(cat.morphisms)} morphisms)"])


def cmd_limits(args) -> Outcome:
    cat = _load_category(args, args.category)
    shapes = {}
    shapes["terminal"] = limit_search(cat, "terminal").apex
    shapes["initial"] = limit_search(cat, "initial").apex
    bic = is_finitely_bicomplete(cat)
    fwc = is_finitely_well_complete(cat)
    payload = {
        "terminal": shapes["terminal"],
        "initial": shapes["initial"],
        "finitely_bicomplete": bic.ok,
        "first_missing": list(bic.missing) if bic.missing else None,
        "thin": bic.thin,
        "finitely_well_complete": fwc.ok,
        "note": fwc.note,
    }
    lines = [
        f"terminal: {shapes['terminal']}",
        f"initial: {shapes['initial']}",
        f"finitely bicomplete: {'yes' if bic.ok else 'no (missing ' + ' '.join(bic.missing) + ')'}",
        f"thin (at most one map per hom-set): {'yes' if bic.thin else 'no'}",
        f"finitely well-complete: {'yes' if fwc.ok else 'no'}",
    ]
    return Outcome(bic.ok, payload, lines)


def _family_payload(family) -> dict:
    return {
        "count": len(family.structures),
        "structures": [
            {"fibrant_objects" if family.kind == "localization" else "coreflective_members":
             list(members), **st.classes_json()}
            for members, st in zip(family.subcat_members, family.structures)
        ],
        "poset_hasse_edges": [list(e) for e in family.hasse_edges],
    }


def cmd_enumerate_localizations(args) -> Outcome:
    cat = _load_category(args, args.category)
    family = enumerate_localizations(cat)
    payload = _family_payload(family)
    all_ok = True
    lines = [f"{len(family.structures)} localizations of the discrete structure "
             f"on {cat.name or args.category}"]
    for entry, members, st in zip(payload["structures"], family.subcat_members,
                                  family.structures):
        axioms = verify_model_axioms(st)
        view = homotopy_category(st)
        entry["axioms"] = axioms.to_json_dict()
        entry["homotopy_category_objects"] = list(view.objects)
        entry["homotopy_equivalence_ok"] = view.equivalence_ok
        entry["replacement_adjunction_ok"] = view.adjunction_ok
        ok = axioms.ok and view.equivalence_ok   # which includes the adjunction
        all_ok = all_ok and ok
        lines.append(f"  fibrant {{{','.join(members)}}}: |we| = {len(st.we.members)}, "
                     f"|fib| = {len(st.fib.members)}, axioms "
                     f"{'pass' if axioms.ok else 'FAIL'}, homotopy category "
                     f"{'pass' if view.equivalence_ok else 'FAIL'}, adjunction "
                     f"{'pass' if view.adjunction_ok else 'FAIL'}")
    payload["all_verdicts_pass"] = all_ok
    lines.append("poset edges (Hasse): " +
                 (", ".join(f"{family.node_label(i)}<{family.node_label(j)}"
                            for i, j in family.hasse_edges) or "none"))
    return Outcome(all_ok, payload, lines, dot=family.to_dot())


def cmd_colocalizations(args) -> Outcome:
    cat = _load_category(args, args.category)
    family = colocalizations_via_op(cat)
    verdicts = [verify_model_axioms(st).ok for st in family.structures]
    payload = _family_payload(family)
    payload["all_axioms_pass"] = all(verdicts)
    lines = [f"{len(family.structures)} colocalizations of the discrete structure "
             f"on {cat.name or args.category} (via the opposite category)"]
    for members, ok in zip(family.subcat_members, verdicts):
        lines.append(f"  coreflective {{{','.join(members)}}}: axioms {'pass' if ok else 'FAIL'}")
    return Outcome(all(verdicts), payload, lines, dot=family.to_dot())


def cmd_verify_model(args) -> Outcome:
    data = check(MODEL, _read_json(args.model), "model file", CategoryError)
    cat = _load_category(args, data, within="model")
    ms = ModelStructure(cat, *(MorphismClass.of(cat, data[k]) for k in ("cof", "we", "fib")),
                        "file")
    report = verify_model_axioms(ms)
    payload = {"verdict": "pass" if report.ok else "fail",
               "axioms": report.to_json_dict()}
    lines = []
    for name, ok, witness in report.results:
        mark = "PASS" if ok else "FAIL"
        extra = f" witness {witness}" if witness else ""
        lines.append(f"{mark} {name}{extra}")
    return Outcome(report.ok, payload, lines)


def _subcat_reflector(cat: FinCat, subcat_arg: str):
    members = frozenset(s for s in subcat_arg.split(",") if s)
    search = find_reflector(cat, members)
    if not search.found:
        return None, members, search.witness
    return search.reflector, members, None


def cmd_homotopy_category(args) -> Outcome:
    cat = _load_category(args, args.category)
    refl, members, witness = _subcat_reflector(cat, args.subcat)
    if refl is None:
        return Outcome(False, {"verdict": "not-reflective", "witness": witness},
                       [f"FAIL {{{','.join(sorted(members))}}} is not reflective; "
                        f"witness object {witness}"])
    ms = localization_from_reflector(refl)
    view = homotopy_category(ms)
    payload = {
        "fibrant_objects": list(view.objects),
        "equivalence_ok": view.equivalence_ok,
        "we_inverted_by_replacement": view.we_inverted,
        "hom_rigidity": view.hom_rigidity,
        "essentially_surjective": view.essentially_surjective,
        "replacement_obj": dict(sorted(view.replacement.functor.obj_map.items())),
        "adjunction_ok": view.adjunction_ok,
    }
    lines = [f"homotopy category: full subcategory on {{{','.join(view.objects)}}}",
             f"equivalence certificate: {'pass' if view.equivalence_ok else 'FAIL'}"]
    return Outcome(view.equivalence_ok, payload, lines)


def _monad_from_file(data: dict, args=DEFAULT_ARGS) -> MonadData:
    cat = _load_category(args, check(MONAD, data, "monad file", CategoryError), within="monad")
    t_obj, t_mor, unit, mult = (data[name] for name in ("T_obj", "T_mor", "unit", "mult"))
    for name, mapping, keys in (("T_obj", t_obj, cat.objects), ("T_mor", t_mor, cat.morphisms),
                                ("unit", unit, cat.objects), ("mult", mult, cat.objects)):
        stray = sorted(set(mapping).difference(keys))
        if stray:
            raise CategoryError(f"monad file {name} maps {stray[0]!r}, which is not an id of "
                                "the category")
    for name, mapping in (("T_obj", t_obj), ("T_mor", t_mor)):
        for key, value in mapping.items():
            if value not in mapping:   # whose keys are ids of the category
                raise CategoryError(f"monad file {name} sends {key} to {value!r}, which is "
                                    "not an id of the category that it maps")
    functor = FunctorData(cat, cat, t_obj, t_mor)
    return MonadData(functor, NatTransData(identity_functor(cat), functor, unit),
                     NatTransData(functor.squared, functor, mult))


def cmd_monads(args) -> Outcome:
    if args.monad_file:
        monad = _monad_from_file(_read_json(args.monad_file), args)
        report = verify_monad(monad)
        payload = {"verdict": "pass" if report.ok else "fail",
                   "violations": [{"law": v.law, "witness": list(v.witness)}
                                  for v in report.violations]}
        if report.ok:
            payload["idempotent"] = is_idempotent(monad)
        lines = (["PASS monad laws hold" +
                  (", idempotent" if payload.get("idempotent") else "")]
                 if report.ok else
                 [f"FAIL {v}" for v in report.violations])
        return Outcome(report.ok, payload, lines)

    if not args.category:
        raise CategoryError("monads needs a category argument or --monad-file")
    cat = _load_category(args, args.category)
    refls = enumerate_replete_reflective(cat)
    entries = []
    all_ok = True
    for r in refls:
        m = monad_from_reflector(r)
        rep = verify_monad(m)
        idem = rep.ok and is_idempotent(m)
        all_ok = all_ok and rep.ok and idem
        entries.append({"members": sorted(r.members), "laws_ok": rep.ok,
                        "idempotent": idem,
                        "T_obj": dict(sorted(m.functor.obj_map.items()))})
    payload = {"count": len(entries), "monads": entries}
    lines = [f"{len(entries)} idempotent monads (one per replete reflective subcategory)"]
    for e in entries:
        lines.append(f"  {{{','.join(e['members'])}}}: laws "
                     f"{'pass' if e['laws_ok'] else 'FAIL'}, "
                     f"idempotent {'yes' if e['idempotent'] else 'NO'}")
    return Outcome(all_ok, payload, lines)


def cmd_bijections(args) -> Outcome:
    cat = _load_category(args, args.category)
    report = bijection_suite(cat)
    payload = {"ok": report.ok, "checks": report.to_json_dict()}
    lines = [f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else "")
             for name, ok, detail in report.checks]
    lines.append(f"{'PASS' if report.ok else 'FAIL'} bijection suite "
                 f"({len(report.checks)} checks)")
    return Outcome(report.ok, payload, lines)


def cmd_ring_check(args) -> Outcome:
    ring = ring_from_spec(_read_json(args.ring), args.max_ring_elements)
    algebra = ring_from_spec(_read_json(args.algebra), args.max_ring_elements)
    hom = RingHom(ring, algebra, check_ring_map(_read_json(args.map), RingError))
    verdict = localization_exists_verdict(hom)
    payload = {
        "localization_exists": verdict.exists,
        "tensor_square_order": verdict.tensor_order,
        "algebra_order": verdict.ring_order,
        "statement": verdict.statement,
    }
    mark = "PASS" if verdict.exists else "FAIL"
    return Outcome(verdict.exists, payload,
                   [f"{mark} {'localization exists' if verdict.exists else 'no localization'}",
                    verdict.statement])


def _parse_truncated_arg(arg: str) -> tuple[int, int]:
    """A spec file (or bundled spec) when `arg` names one, else `p=P,bound=N`."""
    try:
        data = _read_json(arg)
    except (CategoryError, OSError):
        if os.path.isfile(arg):   # an unreadable spec file keeps its own reason
            raise
    else:
        spec = check(TRUNCATED, data, "truncated-abelian spec", CategoryError)
        return spec["p"], spec["bound"]
    try:
        pairs = [kv.split("=") for kv in arg.split(",")]
        parts = dict(pairs)
        if sorted(k for k, _ in pairs) != ["bound", "p"]:
            raise ValueError("need each of p and bound exactly once")
        return int(parts["p"]), int(parts["bound"])
    except (ValueError, KeyError) as exc:
        raise CategoryError(
            f"cannot parse truncated-abelian spec {arg!r}; expected p=2,bound=3") from exc


def cmd_k0(args) -> Outcome:
    if (args.category is None) == (args.truncated_abelian is None):
        raise CategoryError("k0 needs exactly one of --category / --truncated-abelian")
    if args.truncated_abelian is not None:
        if args.subcat is not None:
            raise CategoryError("k0 --subcat needs --category")
        p, bound = _parse_truncated_arg(args.truncated_abelian)
        data = waldhausen_truncated(p, bound, args.we)
        source = f"abelian {p}-groups of order <= {p ** bound}, we = {args.we}"
    else:
        cat = _load_category(args, args.category)
        if args.subcat is not None:
            refl, members, witness = _subcat_reflector(cat, args.subcat)
            if refl is None:
                return Outcome(False, {"verdict": "not-reflective", "witness": witness},
                               [f"FAIL subcategory is not reflective; witness {witness}"])
            ms = localization_from_reflector(refl)
            we = ms.we.members
            source = f"{cat.name or args.category}, we from localization at " \
                     f"{{{','.join(sorted(members))}}}"
        else:
            we = cat.isos() if args.we == "isos" else frozenset(cat.morphisms)
            source = f"{cat.name or args.category}, we = {args.we}"
        data = waldhausen_from_fincat(cat, we)
    pres = k0_presentation(data)
    factors = k0_group(pres)
    payload = {
        "generators": list(pres.generators),
        "invariant_factors": list(factors),
        "trivial": not factors,
        "cofiber_relations": pres.cofiber_relation_count,
        "we_relations": pres.we_relation_count,
        "distinct_rows": len(pres.rows),
    }
    lines = [f"K0 of ({source})",
             f"generators: {len(pres.generators)}; cofiber relations: "
             f"{pres.cofiber_relation_count}; we relations: {pres.we_relation_count}",
             f"invariant factors: {list(factors) or '[] (trivial group)'}"]
    return Outcome(not factors, payload, lines)


def cmd_corpus(args) -> Outcome:
    if args.export:
        written = corpus.export_all(args.export)
        return Outcome(True, {"exported": written},
                       [f"exported {len(written)} files to {args.export}"])
    names = corpus.corpus_names()
    lines = [f"{kind}: {', '.join(entries)}" for kind, entries in names.items()]
    return Outcome(True, names, lines)


# -- driver ---------------------------------------------------------------------------


@cache   # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps subparser defaults from clobbering globals given before
    # the subcommand; main() fills in COMMON_DEFAULTS afterwards.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "dot"),
                        default=argparse.SUPPRESS)
    common.add_argument("--max-objects", type=int, default=argparse.SUPPRESS)
    common.add_argument("--max-morphisms", type=int, default=argparse.SUPPRESS)
    common.add_argument("--max-ring-elements", type=int, default=argparse.SUPPRESS)
    common.add_argument("--emit-dot", metavar="PATH", default=argparse.SUPPRESS,
                        help="write the poset DOT graph to PATH (where applicable)")
    parser = argparse.ArgumentParser(
        prog="loclab", parents=[common],
        description="Verify localizations of discrete model structures on finite categories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def sub_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = sub_parser("validate", help="check the category laws of an input file")
    p.add_argument("category")
    p.set_defaults(fn=cmd_validate)

    p = sub_parser("limits", help="finite (co)limit existence and bicompleteness")
    p.add_argument("category")
    p.set_defaults(fn=cmd_limits)

    p = sub_parser("enumerate-localizations",
                       help="all localizations of the discrete structure, with poset")
    p.add_argument("category")
    p.set_defaults(fn=cmd_enumerate_localizations)

    p = sub_parser("verify-model", help="check the closed-model axioms of a model file")
    p.add_argument("model")
    p.set_defaults(fn=cmd_verify_model)

    p = sub_parser("homotopy-category",
                       help="homotopy category of the localization at a subcategory")
    p.add_argument("category")
    p.add_argument("--subcat", required=True, help="comma-separated object ids")
    p.set_defaults(fn=cmd_homotopy_category)

    p = sub_parser("monads", help="idempotent monads from reflective subcategories")
    p.add_argument("category", nargs="?")
    p.add_argument("--monad-file", default=None, help="verify one monad JSON file instead")
    p.set_defaults(fn=cmd_monads)

    p = sub_parser("bijections",
                       help="full reflective/localization/monad round-trip suite")
    p.add_argument("category")
    p.set_defaults(fn=cmd_bijections)

    p = sub_parser("colocalizations", help="colocalizations via the opposite category")
    p.add_argument("category")
    p.set_defaults(fn=cmd_colocalizations)

    p = sub_parser("ring-check",
                       help="tensor-square criterion for module-category localization")
    p.add_argument("--ring", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(fn=cmd_ring_check)

    p = sub_parser("k0", help="K0 of a Waldhausen structure")
    p.add_argument("--category", default=None)
    p.add_argument("--subcat", default=None, help="reflective subcategory for the we class")
    p.add_argument("--truncated-abelian", default=None, metavar="p=2,bound=3")
    p.add_argument("--we", choices=("isos", "all"), default="isos")
    p.set_defaults(fn=cmd_k0)

    p = sub_parser("corpus", help="list or export the bundled inputs")
    p.add_argument("--export", metavar="DIR", default=None)
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for key, value in COMMON_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        outcome = args.fn(args)
    except _Stop as stop:
        outcome = stop.outcome
    except (CategoryError, RingError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR

    if args.emit_dot and outcome.dot:
        try:
            with open(args.emit_dot, "w", encoding="utf-8") as fh:
                fh.write(outcome.dot)
        except OSError as exc:
            print(f"error: cannot write DOT file {args.emit_dot}: {exc.strerror}", file=sys.stderr)
            return INPUT_ERROR
    if args.format == "json":
        print(json.dumps(outcome.payload, indent=2, sort_keys=True))
    elif args.format == "dot":
        print(outcome.dot or "// no dot output for this command")
    else:
        for line in outcome.lines:
            print(line)
    return OK if outcome.ok else NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
