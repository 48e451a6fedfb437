"""The benchmark's workloads: inputs generated from a seed, and one check per operation.

`build(workload, seed, root, workdir)` writes every input file under `workdir`
and returns the operations of one pass.  An operation is a loclab argv (always
with `--format json`), the exit code the mathematics predicts, and a check of
the JSON report against `oracles`.  Nothing here imports loclab.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles as orc

OK, NEGATIVE, INPUT_ERROR = 0, 1, 2

WORKLOADS = ("corpus-sweep", "lattice-8", "k0-truncated", "ring-tensor")


@dataclass
class Op:
    argv: list
    expect: int
    check: Callable | None = None      # payload dict -> error string or None
    fault: str | None = None           # set on operations known to fail

    @property
    def label(self) -> str:
        return " ".join(Path(a).stem if "/" in a else a for a in self.argv)


class Inputs:
    """Writes generated input files; the same seed gives byte-identical files."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, data) -> str:
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        return str(path)

    def write_text(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def op(*argv, expect=OK, check=None, fault=None) -> Op:
    return Op([str(a) for a in argv] + ["--format", "json"], expect, check, fault)


def _first_error(*pairs):
    for ok, message in pairs:
        if not ok:
            return message
    return None


# -- checks on lattices ------------------------------------------------------------------


def check_localizations(poset: orc.Poset):
    systems = orc.closure_systems(poset)

    def check(payload):
        reported = [frozenset(s["fibrant_objects"]) for s in payload["structures"]]
        err = _first_error(
            (payload["count"] == len(systems), f"count {payload['count']} != {len(systems)}"),
            (set(reported) == systems and len(reported) == len(systems),
             "fibrant sets are not the meet-closed sets holding the top"),
            (payload["all_verdicts_pass"] is True, "a verdict failed"))
        if err:
            return err
        classes = []
        for entry, members in zip(payload["structures"], reported):
            want = orc.localization_classes(poset, members)
            acyclic_fib = set(entry["we"]) & set(entry["fib"])
            err = _first_error(
                (entry["cof"] == want["cof"], f"cof at {sorted(members)}"),
                (entry["we"] == want["we"], f"we at {sorted(members)}"),
                (entry["fib"] == want["fib"], f"fib at {sorted(members)}"),
                (acyclic_fib == {orc.mor_id(x, x) for x in poset.elements},
                 f"acyclic fibrations are not the identities at {sorted(members)}"),
                (all(a["ok"] for a in entry["axioms"].values()), "axiom failed"),
                (entry["homotopy_category_objects"] == sorted(members), "homotopy objects"),
                (entry["homotopy_equivalence_ok"] and entry["replacement_adjunction_ok"],
                 "homotopy or adjunction certificate failed"))
            if err:
                return err
            classes.append(want["we"])
        if payload["poset_hasse_edges"] != orc.hasse_edges(classes):
            return "Hasse edges are not the covering pairs"
        return None

    return check


def check_colocalizations(poset: orc.Poset):
    systems = orc.coclosure_systems(poset)

    def check(payload):
        reported = [frozenset(s["coreflective_members"]) for s in payload["structures"]]
        err = _first_error(
            (payload["count"] == len(systems), f"count {payload['count']} != {len(systems)}"),
            (set(reported) == systems and len(reported) == len(systems),
             "coreflective sets are not the join-closed sets holding the bottom"),
            (payload["all_axioms_pass"] is True, "an axiom failed"))
        if err:
            return err
        classes = []
        for entry, members in zip(payload["structures"], reported):
            want = orc.colocalization_classes(poset, members)
            if any(entry[k] != want[k] for k in ("cof", "we", "fib")):
                return f"classes at {sorted(members)}"
            classes.append(want["we"])
        if payload["poset_hasse_edges"] != orc.hasse_edges(classes):
            return "Hasse edges are not the covering pairs"
        return None

    return check


def check_lattice_monads(poset: orc.Poset):
    systems = orc.closure_systems(poset)

    def check(payload):
        monads = payload["monads"]
        if payload["count"] != len(systems) or len(monads) != len(systems):
            return f"count {payload['count']} != {len(systems)}"
        if {frozenset(m["members"]) for m in monads} != systems:
            return "monad images are not the meet-closed sets holding the top"
        for m in monads:
            if not (m["laws_ok"] and m["idempotent"]):
                return f"monad at {m['members']} not an idempotent monad"
            if m["T_obj"] != orc.closure(poset, m["members"]):
                return f"T_obj at {m['members']} is not the closure"
        return None

    return check


def check_bijections(poset: orc.Poset):
    systems = orc.closure_systems(poset)

    def check(payload):
        checks = payload["checks"]
        labels = {"{" + ",".join(sorted(s)) + "}" for s in systems}
        per_set = {name.split(" ", 1)[1] for name in checks if name.startswith("model-axioms ")}
        return _first_error(
            (len(checks) == orc.bijection_check_count(len(systems)),
             f"{len(checks)} checks, expected {orc.bijection_check_count(len(systems))}"),
            (per_set == labels, "per-localization checks do not cover the closure systems"),
            (payload["ok"] is True and all(c["ok"] for c in checks.values()), "a check failed"))

    return check


def check_homotopy(poset: orc.Poset, members):
    cl = orc.closure(poset, members)

    def check(payload):
        if frozenset(members) in orc.closure_systems(poset):
            return _first_error(
                (payload["fibrant_objects"] == sorted(members), "fibrant objects"),
                (payload["replacement_obj"] == cl, "replacement is not the closure"),
                (payload["equivalence_ok"] and payload["adjunction_ok"], "certificate failed"))
        witness = payload["witness"]
        return _first_error((payload["verdict"] == "not-reflective", "verdict"),
                            (cl.get(witness, 0) is None, f"{witness} has a reflection"))

    return check


# -- checks on arbitrary categories -------------------------------------------------------


def check_validate(cat: orc.RawCategory):
    return lambda p: _first_error(
        (p["objects"] == len(cat.objects), "object count"),
        (p["morphisms"] == len(cat.src), "morphism count"))


def check_limits(cat: orc.RawCategory, bicomplete: bool):
    def check(p):
        return _first_error(
            (p["finitely_bicomplete"] is bicomplete, "bicompleteness"),
            (p["thin"] is cat.is_thin(), "thinness"),
            ((p["terminal"] in cat.terminal_objects()) if cat.terminal_objects()
             else p["terminal"] is None, "terminal object"),
            ((p["initial"] in cat.initial_objects()) if cat.initial_objects()
             else p["initial"] is None, "initial object"),
            (not bicomplete or p["finitely_well_complete"], "well-completeness"))

    return check


def check_general_monads(cat: orc.RawCategory):
    refl = cat.reflective_subcategories()

    def check(payload):
        monads = payload["monads"]
        if payload["count"] != len(refl) or {frozenset(m["members"]) for m in monads} != set(refl):
            return "monad images are not the reflective subcategories"
        for m in monads:
            targets = refl[frozenset(m["members"])]
            if not (m["laws_ok"] and m["idempotent"]):
                return f"monad at {m['members']} not an idempotent monad"
            if any(m["T_obj"][x] not in targets[x] for x in cat.objects):
                return f"T_obj at {m['members']} is not a reflection"
        return None

    return check


def check_invalid(law: str, violated: Callable):
    return lambda p: _first_error((p["verdict"] == "invalid", "verdict"),
                                  (p["law"] == law, f"law {p['law']} != {law}"),
                                  (violated(p["witness"]), f"witness {p['witness']} breaks no law"))


def check_k0(generators: int, cofiber: int, we: int):
    return lambda p: _first_error(
        (p["invariant_factors"] == [] and p["trivial"] is True, "K0 is not trivial"),
        (len(p["generators"]) == generators, f"{len(p['generators'])} generators != {generators}"),
        (p["cofiber_relations"] == cofiber, f"cofiber relations {p['cofiber_relations']} != {cofiber}"),
        (p["we_relations"] == we, f"we relations {p['we_relations']} != {we}"))


def check_ring(family: str, params: dict):
    order = orc.tensor_square_order(family, params)
    size = orc.ring_order(family, params)
    return lambda p: _first_error(
        (p["tensor_square_order"] == order, f"tensor square {p['tensor_square_order']} != {order}"),
        (p["algebra_order"] == size, f"|S| {p['algebra_order']} != {size}"),
        (p["localization_exists"] is (order == size), "verdict"))


def expect_for(exists: bool) -> int:
    return OK if exists else NEGATIVE


# -- per-category operation lists ------------------------------------------------------


def category_ops(inputs: Inputs, name: str, data: dict, rng: random.Random) -> list:
    """validate, limits, the four enumerations and k0 on one category file."""
    path = inputs.write(name, data)
    cat = orc.RawCategory(data)
    thin = cat.is_thin()
    poset = cat.as_poset() if thin else None
    bicomplete = bool(thin and poset.is_lattice())
    zero = cat.zero_objects()
    ops = [op("validate", path, check=check_validate(cat)),
           op("limits", path, expect=expect_for(bicomplete), check=check_limits(cat, bicomplete))]
    if bicomplete:
        ops += [op("enumerate-localizations", path, check=check_localizations(poset)),
                op("colocalizations", path, check=check_colocalizations(poset)),
                op("monads", path, check=check_lattice_monads(poset)),
                op("bijections", path, check=check_bijections(poset))]
        systems = sorted(sorted(s) for s in orc.closure_systems(poset))
        for members in (rng.choice(systems),
                        sorted(x for x in poset.elements if rng.random() < 0.5) or [poset.top]):
            exists = frozenset(members) in orc.closure_systems(poset)
            ops.append(op("homotopy-category", path, "--subcat", ",".join(members),
                          expect=expect_for(exists), check=check_homotopy(poset, members)))
    else:
        fault = None
        if not cat.objects:
            fault = "hypotheses are checked per reflector, and the empty category has none"
        for cmd in ("enumerate-localizations", "colocalizations", "bijections"):
            ops.append(op(cmd, path, expect=INPUT_ERROR, fault=fault))
        ops.append(op("monads", path, check=check_general_monads(cat), fault=None if cat.objects
                      else "the empty category's one reflective subcategory is not enumerated"))
    if zero:
        isos = cat.isos()
        n_classes = len({frozenset(y for y in cat.objects if any(
            f in isos for f in cat.hom(x, y))) for x in cat.objects})
        for we in ("isos", "all"):
            ops.append(op("k0", "--category", path, "--we", we, check=check_k0(
                n_classes, len(cat.src), len(isos) if we == "isos" else len(cat.src))))
    else:
        ops.append(op("k0", "--category", path, expect=INPUT_ERROR))
    return ops


def invalid_category_ops(inputs: Inputs, name: str, data: dict) -> list:
    """A fixture built to break one category law: every command reports that law."""
    path = inputs.write(name, data)
    cat = orc.RawCategory(data)
    if name == "cat_assoc_broken":
        check = check_invalid("associativity", lambda w: cat.associativity_fails(*w))
    else:
        check = check_invalid("compose-src-dst", lambda w: (cat.src[w[2]], cat.dst[w[2]]) !=
                              (cat.src[w[1]], cat.dst[w[0]]))
    return [op(cmd, path, expect=NEGATIVE, check=check)
            for cmd in ("validate", "limits", "enumerate-localizations", "colocalizations",
                        "monads", "bijections")]


# -- the workloads ---------------------------------------------------------------------


def corpus_sweep(root: Path, inputs: Inputs, rng: random.Random) -> list:
    corpus = root / "src" / "loclab" / "corpus_data"

    def load(name):
        return json.loads((corpus / f"{name}.json").read_text(encoding="utf-8"))

    ops = []
    for name in ("chain2", "chain3", "chain4", "chain5", "chain6", "diamond", "pentagon",
                 "monoid_z2", "monoid_idem", "parallel_pair", "terminal", "finset2",
                 "pointed2"):
        ops += category_ops(inputs, name, load(name), rng)
    ops += category_ops(inputs, "empty", {"objects": [], "morphisms": [], "compose": []}, rng)
    for name in ("cat_assoc_broken", "cat_compose_srcdst"):
        ops += invalid_category_ops(inputs, name, load(f"fixtures/bad/{name}"))

    # Model files: the dropped fibration breaks fib = RLP(acyclic cofibrations).
    dropped = load("fixtures/bad/model_dropped_fib")
    two = orc.RawCategory(dropped["category"]).as_poset()
    rlp = orc.localization_classes(two, set(two.elements))["fib"]
    lost = sorted(set(rlp) - set(dropped["fib"]))
    ops.append(op("verify-model", inputs.write("model_dropped_fib", dropped), expect=NEGATIVE,
                  check=lambda p: _first_error(
                      (p["verdict"] == "fail", "verdict"),
                      (p["axioms"]["acyclic-cof-equals-llp-fib"]["witness"] == lost,
                       "the lifting axiom does not fail at the dropped fibration"))))
    pent = orc.RawCategory(load("pentagon")).as_poset()
    members = rng.choice(sorted(sorted(s) for s in orc.closure_systems(pent)))
    model = {"category": pent.to_category_json(),
             **orc.localization_classes(pent, members)}
    ops.append(op("verify-model", inputs.write("model_pentagon", model), check=lambda p: (
        None if p["verdict"] == "pass" and all(a["ok"] for a in p["axioms"].values())
        else "a localization failed its axioms")))

    # Monad files: the mutated multiplication breaks the left unit law at m.
    mutated = load("fixtures/bad/monad_mutated_mult")
    ops.append(op("monads", "--monad-file", inputs.write("monad_mutated_mult", mutated),
                  expect=NEGATIVE, check=lambda p: _first_error(
                      (p["verdict"] == "fail", "verdict"),
                      ({"law": "monad-unit-left", "witness": ["m"]} in p["violations"],
                       "left unit law not reported at m"),
                      (mutated["mult"]["m"] != "id_m", "fixture lost its mutation"))))
    dia = orc.RawCategory(load("diamond")).as_poset()
    members = rng.choice(sorted(sorted(s) for s in orc.closure_systems(dia)))
    cl = orc.closure(dia, members)
    monad = {"category": dia.to_category_json(), "T_obj": cl,
             "T_mor": {orc.mor_id(a, b): orc.mor_id(cl[a], cl[b])
                       for a in dia.elements for b in dia.elements if dia.leq(a, b)},
             "unit": {x: orc.mor_id(x, cl[x]) for x in dia.elements},
             "mult": {x: orc.mor_id(cl[x], cl[x]) for x in dia.elements}}
    monad_path = inputs.write("monad_diamond", monad)
    ops.append(op("monads", "--monad-file", monad_path, check=lambda p: (
        None if p["verdict"] == "pass" and p["idempotent"] is True else "closure monad rejected")))
    no_t_obj = {k: v for k, v in monad.items() if k != "T_obj"}
    ops.append(op("monads", "--monad-file", inputs.write("monad_no_t_obj", no_t_obj),
                  expect=INPUT_ERROR, fault="KeyError instead of an input error"))

    # Ring maps of the corpus, by family.
    for ring, algebra, hom, family, params in (
            ("ring_z4", "ring_z2", "hom_z4_to_z2", "quotient", {"m": 2}),
            ("ring_z6", "ring_z2", "hom_z6_to_z2", "quotient", {"m": 2}),
            ("ring_z2", "ring_z2_dual", "hom_z2_to_z2_dual", "polyquo", {"p": 2, "degree": 2}),
            ("ring_z2", "ring_z2xz2", "hom_z2_diag_z2xz2", "diagonal", {"factors": [2, 2]}),
            ("ring_z4", "ring_z4", "hom_z4_id", "quotient", {"m": 4})):
        paths = [inputs.write(n, load(n)) for n in (ring, algebra, hom)]
        check = check_ring(family, params)
        exists = orc.tensor_square_order(family, params) == orc.ring_order(family, params)
        ops.append(op("ring-check", "--ring", paths[0], "--algebra", paths[1], "--map", paths[2],
                      expect=expect_for(exists), check=check))
    ops.append(op("ring-check", "--ring", inputs.write("ring_zn_no_n", {"kind": "zn"}),
                  "--algebra", inputs.write("ring_z2", load("ring_z2")),
                  "--map", inputs.write("hom_z4_to_z2", load("hom_z4_to_z2")),
                  expect=INPUT_ERROR, fault="KeyError instead of an input error"))

    for name in ("trunc_p2_b3", "trunc_p3_b2"):
        spec = load(name)
        path = inputs.write(name, spec)
        for we in ("isos", "all"):
            want = orc.truncated_k0_counts(spec["p"], spec["bound"], we)
            ops.append(op("k0", "--truncated-abelian", path, "--we", we, check=check_k0(
                want["generators"], want["cofiber_relations"], want["we_relations"])))

    # Input errors that are reported as such.
    ops.append(op("validate", inputs.write("objects_string",
                                           {"objects": "ab", "morphisms": [], "compose": []}),
                  expect=INPUT_ERROR, fault="a string is read as a list of one-letter objects"))
    ops.append(op("validate", str(inputs.dir / "no_such_file.json"), expect=INPUT_ERROR))
    ops.append(op("limits", inputs.write_text("malformed.json", '{"objects": ['),
                  expect=INPUT_ERROR))
    ops.append(op("bijections", inputs.write("chain9", orc.chain(9).to_category_json()),
                  expect=INPUT_ERROR))
    ops.append(op("corpus", check=lambda p: None if "chain3" in p["categories"] else "listing"))
    return ops


def lattice_8(root: Path, inputs: Inputs, rng: random.Random) -> list:
    """Four operations cost more than `monads chain8` and four less, so the
    median operation has a fixed input whatever the seed."""
    chain8, b3, grid = orc.chain(8), orc.boolean(3), orc.grid(2, 4)
    randoms = [orc.moore_family_lattice(rng, f"moore{i}", 4, 8) for i in range(2)]
    path = {p.name: inputs.write(p.name, p.to_category_json())
            for p in [chain8, b3, grid] + randoms}
    return [op("bijections", path["B3"], check=check_bijections(b3)),
            op("enumerate-localizations", path["grid2x4"], check=check_localizations(grid)),
            op("enumerate-localizations", path["moore0"], check=check_localizations(randoms[0])),
            op("colocalizations", path["B3"], check=check_colocalizations(b3))] + \
        [op("monads", path[p.name], check=check_lattice_monads(p))
         for p in [chain8, b3, grid] + randoms]


PRIMES = [p for p in range(2, 32) if all(p % d for d in range(2, p))]


def k0_truncated(root: Path, inputs: Inputs, rng: random.Random) -> list:
    """Six operations cost more than p=3, bound=2 under `all` and six less, so
    the median operation has a fixed input whatever the seed."""
    presets = [(7, 2, ("isos", "all")), (5, 2, ("isos", "all")),
               (2, 3, ("isos", "all")), (3, 2, ("all",))]
    presets += [(p, 1, ("isos", "all")) for p in sorted(rng.sample(PRIMES, 2))]
    ops = []
    for p, bound, modes in presets:
        path = inputs.write(f"trunc_p{p}_b{bound}", {"kind": "truncated-abelian",
                                                      "p": p, "bound": bound})
        for we in modes:
            want = orc.truncated_k0_counts(p, bound, we)
            ops.append(op("k0", "--truncated-abelian", path, "--we", we, check=check_k0(
                want["generators"], want["cofiber_relations"], want["we_relations"])))
    pointed2 = json.loads((root / "src" / "loclab" / "corpus_data" / "pointed2.json")
                          .read_text(encoding="utf-8"))
    ops += [o for o in category_ops(inputs, "pointed2", pointed2, rng) if o.argv[0] == "k0"]
    return ops


def _zn(n: int) -> dict:
    return {"kind": "zn", "n": n}


def _ring_op(inputs: Inputs, name: str, ring: dict, algebra: dict, mapping: dict,
             family: str, params: dict) -> Op:
    exists = orc.tensor_square_order(family, params) == orc.ring_order(family, params)
    return op("ring-check", "--ring", inputs.write(f"{name}_R", ring),
              "--algebra", inputs.write(f"{name}_S", algebra),
              "--map", inputs.write(f"{name}_map", {"map": mapping}),
              expect=expect_for(exists), check=check_ring(family, params))


def ring_tensor(root: Path, inputs: Inputs, rng: random.Random) -> list:
    """Four operations cost more than Z/15 -> Z/5 and four less, so the median
    operation has a fixed input whatever the seed."""
    ops = []

    def quotient(name, n, m):
        ops.append(_ring_op(inputs, name, _zn(n), _zn(m), {str(i): str(i % m) for i in range(n)},
                            "quotient", {"m": m}))

    def diagonal(name, n, factors):
        algebra = {"kind": "product", "factors": [_zn(a) for a in factors]}
        mapping = {str(i): "(" + ",".join(str(i % a) for a in factors) + ")" for i in range(n)}
        ops.append(_ring_op(inputs, name, _zn(n), algebra, mapping,
                            "diagonal", {"factors": factors}))

    def polyquo(name, p, poly):
        algebra = {"kind": "polyquo", "base": _zn(p), "poly": poly}
        ops.append(_ring_op(inputs, name, _zn(p), algebra, {str(i): str(i) for i in range(p)},
                            "polyquo", {"p": p, "degree": len(poly) - 1}))

    quotient("id_z8", 8, 8)
    polyquo("cubic", 2, rng.choice(orc.monic_polys(2, 3)))
    diagonal("crt_z6", 6, [2, 3])
    quotient("quotient_z12_z6", 12, 6)
    quotient("quotient_z15_z5", 15, 5)
    quotient("quotient_z16_z4", 16, 4)
    polyquo("quadratic", 2, rng.choice(orc.monic_polys(2, 2)))
    diagonal("diag_z4", 4, [2, 2])
    # Componentwise map (Z/a1 x Z/a2) -> (Z/b1 x Z/b2) with b_i | a_i.
    a1, a2 = 4, 2 * rng.randint(1, 2)
    ring = {"kind": "product", "factors": [_zn(a1), _zn(a2)]}
    algebra = {"kind": "product", "factors": [_zn(2), _zn(2)]}
    mapping = {f"({x},{y})": f"({x % 2},{y % 2})" for x in range(a1) for y in range(a2)}
    ops.append(_ring_op(inputs, "product", ring, algebra, mapping, "product",
                        {"parts": [("quotient", {"m": 2}), ("quotient", {"m": 2})]}))
    return ops


BUILDERS = {"corpus-sweep": corpus_sweep, "lattice-8": lattice_8,
            "k0-truncated": k0_truncated, "ring-tensor": ring_tensor}


def build(workload: str, seed: int, root: Path, workdir: Path) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](root, Inputs(workdir), rng)
