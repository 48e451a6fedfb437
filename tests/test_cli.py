import contextlib
import copy
import io
import json
import time
from functools import cached_property, reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loclab import (corpus, fincat, lifting, modelstruct, monadkit, reflect, ringmod, schema,
                    snf)
from loclab.cli import build_parser, main
from loclab.fincat import FinCat, NatTransData, identity_functor
from loclab.reflect import enumerate_replete_reflective, find_reflector
from test_golden import cases as golden_cases

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_validate_pass(self, capsys):
        code, out, _ = run(capsys, "validate", "chain3")
        assert code == 0 and "PASS" in out

    def test_validate_negative(self, capsys):
        code, out, _ = run(capsys, "validate", "fixtures/bad/cat_assoc_broken")
        assert code == 1 and "associativity" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "validate", "no_such_entry")
        assert code == 2 and "error" in err

    def test_cap_violation_is_input_error(self, capsys):
        code, _, err = run(capsys, "validate", "chain6", "--max-objects", "4")
        assert code == 2 and "max-objects" in err

    def test_cap_refusal_is_quick_on_a_large_file(self, capsys, tmp_path):
        # 200 objects and 24,000 morphisms, each in a hom-set of its own: an
        # index that rescans every morphism per hom-set makes 576M steps
        objects = [f"o{i:03d}" for i in range(200)]
        data = {"objects": objects, "compose": [], "morphisms": [
            {"id": f"m_{a}_{b}", "src": a, "dst": b} for a in objects for b in objects[:120]]}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == "" and "200 objects exceeds --max-objects 8" in err
        assert time.perf_counter() - start < 10

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, "validate", str(p))
        assert code == 2


class TestCommands:
    def test_limits(self, capsys):
        code, out, _ = run(capsys, "limits", "diamond")
        assert code == 0 and "finitely bicomplete: yes" in out

    def test_limits_negative(self, capsys):
        code, out, _ = run(capsys, "limits", "parallel_pair")
        assert code == 1 and "no" in out

    def test_enumerate_localizations_chain3(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enumerate-localizations", "chain3")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 4 and payload["all_verdicts_pass"]
        for entry in payload["structures"]:
            assert entry["homotopy_category_objects"] == entry["fibrant_objects"]
            assert entry["replacement_adjunction_ok"]

    def test_emit_dot(self, capsys, tmp_path):
        target = tmp_path / "poset.dot"
        code, _, _ = run(capsys, "enumerate-localizations", "chain3",
                         "--emit-dot", str(target))
        assert code == 0
        assert target.read_text().startswith("digraph")

    @pytest.mark.parametrize("where", ["missing/poset.dot", "."], ids=["no-dir", "a-dir"])
    def test_emit_dot_unwritable_is_input_error(self, capsys, tmp_path, where):
        target = tmp_path / where
        code, out, err = run(capsys, "enumerate-localizations", "chain3",
                             "--emit-dot", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write DOT file {target}: ")

    def test_verify_model_fixture_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "verify-model", "fixtures/bad/model_dropped_fib")
        assert code == 1
        assert "FAIL acyclic-cof-equals-llp-fib witness ('m_0_1',)" in out

    def test_homotopy_category(self, capsys):
        code, out, _ = run(capsys, "homotopy-category", "chain3", "--subcat", "1,2")
        assert code == 0 and "{1,2}" in out

    def test_homotopy_category_not_reflective(self, capsys):
        code, out, _ = run(capsys, "homotopy-category", "chain2", "--subcat", "0")
        assert code == 1 and "not reflective" in out

    def test_monads_enumeration(self, capsys):
        code, out, _ = run(capsys, "monads", "chain3")
        assert code == 0 and "4 idempotent monads" in out

    def test_monads_bad_fixture(self, capsys):
        code, out, _ = run(capsys, "monads", "--monad-file",
                           "fixtures/bad/monad_mutated_mult")
        assert code == 1 and "monad-associativity" in out

    def test_monads_needs_input(self, capsys):
        code, _, err = run(capsys, "monads")
        assert code == 2

    def test_bijections(self, capsys):
        code, out, _ = run(capsys, "bijections", "chain2")
        assert code == 0 and "PASS bijection suite" in out

    def test_colocalizations(self, capsys):
        code, out, _ = run(capsys, "colocalizations", "diamond")
        assert code == 0 and "7 colocalizations" in out

    def test_ring_check_positive(self, capsys):
        code, out, _ = run(capsys, "ring-check", "--ring", "ring_z4",
                           "--algebra", "ring_z2", "--map", "hom_z4_to_z2")
        assert code == 0 and "localization exists" in out

    def test_ring_check_negative(self, capsys):
        code, out, _ = run(capsys, "ring-check", "--ring", "ring_z2",
                           "--algebra", "ring_z2xz2", "--map", "hom_z2_diag_z2xz2")
        assert code == 1 and "no localization" in out

    def test_k0_truncated(self, capsys):
        code, out, _ = run(capsys, "k0", "--truncated-abelian", "p=2,bound=2")
        assert code == 0 and "trivial" in out

    def test_k0_truncated_corpus_name(self, capsys):
        code, out, _ = run(capsys, "k0", "--truncated-abelian", "trunc_p3_b2",
                           "--we", "all")
        assert code == 0

    def test_k0_category_with_subcat(self, capsys):
        code, out, _ = run(capsys, "k0", "--category", "terminal", "--subcat", "x")
        assert code == 0 and "trivial" in out

    def test_k0_category_plain(self, capsys):
        code, _, _ = run(capsys, "k0", "--category", "pointed2", "--we", "all")
        assert code == 0

    def test_k0_needs_exactly_one_source(self, capsys):
        code, _, _ = run(capsys, "k0")
        assert code == 2
        code, _, _ = run(capsys, "k0", "--category", "terminal",
                         "--truncated-abelian", "p=2,bound=1")
        assert code == 2
        # an empty --category is still given
        code, _, err = run(capsys, "k0", "--category", "", "--truncated-abelian", "p=2,bound=2")
        assert code == 2 and "exactly one of" in err

    @pytest.mark.parametrize("argv, code, message", [
        # the empty subcategory of pointed2 is not reflective, as homotopy-category says
        (["--category", "pointed2", "--subcat", ""], 1, "not reflective; witness w"),
        (["--truncated-abelian", "p=2,bound=2", "--subcat", "0"], 2,
         "k0 --subcat needs --category"),
    ])
    def test_k0_subcat_given_empty_or_misplaced(self, capsys, argv, code, message):
        got, out, err = run(capsys, "k0", *argv)
        assert got == code and message in out + err

    @pytest.mark.parametrize("argv", [
        ["homotopy-category", "chain3", "--subcat", "0,nope"],
        ["k0", "--category", "chain3", "--subcat", "9"],
    ])
    def test_subcat_outside_the_category_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "subcategory members not in parent" in err

    def test_corpus_listing(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0 and "chain2" in out

    def test_corpus_export(self, capsys, tmp_path):
        code, out, _ = run(capsys, "corpus", "--export", str(tmp_path / "c"))
        assert code == 0
        assert (tmp_path / "c" / "chain3.json").exists()
        assert (tmp_path / "c" / "fixtures" / "bad" / "model_dropped_fib.json").exists()


class TestOneParser:
    """One parser, built on first use, serves every call in the process."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_sequence_parses_as_fresh_parsers_do(self):
        argvs = [["--format", "json", "validate", "chain3"], ["validate", "chain3"],
                 ["k0", "--truncated-abelian", "p=2,bound=2", "--we", "all"],
                 ["--max-objects", "2", "limits", "diamond"], ["k0", "--category", "chain2"],
                 ["monads", "--monad-file", "fixtures/bad/monad_mutated_mult"], ["monads"]]
        for argv in argvs + argvs[::-1]:
            assert vars(build_parser().parse_args(argv)) == \
                vars(build_parser.__wrapped__().parse_args(argv)), argv

    def test_format_json_then_plain(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "validate", "chain3")
        assert code == 0 and json.loads(out)["verdict"] == "pass"
        code, out, _ = run(capsys, "validate", "chain3")
        assert code == 0 and out.startswith("PASS chain3: valid category")

    def test_cap_violation_then_default_caps(self, capsys):
        code, out, err = run(capsys, "validate", "chain3", "--max-objects", "2")
        assert code == 2 and out == "" and "--max-objects 2" in err
        code, out, _ = run(capsys, "validate", "chain3")
        assert code == 0 and out.startswith("PASS")

    def test_argparse_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["validate"])
        assert stop.value.code == 2 and "usage:" in capsys.readouterr().err
        code, out, _ = run(capsys, "validate", "chain3")
        assert f"exit {code}\n{out}" == (GOLDEN / "validate__chain3.text").read_text("utf-8")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("--format", "json", "enumerate-localizations", "pentagon"),
        ("--format", "json", "bijections", "chain3"),
        ("--format", "json", "k0", "--truncated-abelian", "p=2,bound=2"),
        ("--format", "dot", "enumerate-localizations", "diamond"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)

    def test_exit_contract_over_corpus(self, capsys):
        for name in corpus.CATEGORIES:
            code, _, _ = run(capsys, "validate", name)
            assert code == 0, name
        for name in ("cat_assoc_broken", "cat_compose_srcdst"):
            code, _, _ = run(capsys, "validate", f"fixtures/bad/{name}")
            assert code == 1, name


def write(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestEmptyCategory:
    @pytest.fixture
    def empty(self, tmp_path):
        return write(tmp_path, "empty", {"objects": [], "morphisms": [], "compose": []})

    @pytest.mark.parametrize("command", ["enumerate-localizations", "colocalizations",
                                         "bijections"])
    def test_localization_commands_refuse_it(self, capsys, empty, command):
        code, out, err = run(capsys, command, empty)
        assert code == 2 and out == ""
        assert "not finitely bicomplete, missing ('terminal',)" in err

    def test_monads_reports_its_one_idempotent_monad(self, capsys, empty):
        code, out, _ = run(capsys, "--format", "json", "monads", empty)
        assert code == 0
        assert json.loads(out) == {"count": 1, "monads": [
            {"members": [], "laws_ok": True, "idempotent": True, "T_obj": {}}]}


def identity_monad() -> dict:
    """The monad file of the identity monad on chain2."""
    data = corpus.load_json("chain2")
    cat = FinCat.from_json_dict(data)
    identities = {x: cat.id_of(x) for x in cat.objects}
    return {"category": data, "T_obj": {x: x for x in cat.objects},
            "T_mor": {m: m for m in cat.morphisms}, "unit": identities, "mult": dict(identities)}


MONAD_FIELDS = ("T_obj", "T_mor", "unit", "mult")


class TestMonadFileContract:
    """Each of T_obj, T_mor, unit and mult is a JSON object whose keys are ids of
    the category: objects, except morphisms for T_mor."""

    def test_identity_monad_passes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "monads", "--monad-file",
                           write(tmp_path, "monad", identity_monad()))
        assert code == 0 and out == "PASS monad laws hold, idempotent\n"

    @pytest.mark.parametrize("field", MONAD_FIELDS)
    def test_field_as_array_of_pairs(self, capsys, tmp_path, field):
        data = identity_monad()
        data[field] = sorted(map(list, data[field].items()))
        code, out, err = run(capsys, "monads", "--monad-file", write(tmp_path, "monad", data))
        assert code == 2 and out == ""
        assert f"malformed monad file: {field} must be a JSON object, got {data[field]!r}" in err

    @pytest.mark.parametrize("field", MONAD_FIELDS)
    def test_key_outside_the_category(self, capsys, tmp_path, field):
        data = identity_monad()
        data[field]["zzz"] = next(iter(data[field].values()))
        code, out, err = run(capsys, "monads", "--monad-file", write(tmp_path, "monad", data))
        assert code == 2 and out == ""
        assert f"monad file {field} maps 'zzz', which is not an id of the category" in err

    @pytest.mark.parametrize("field, law", [("T_obj", "functor-obj-total"),
                                            ("T_mor", "functor-mor-total"),
                                            ("unit", "unit-nat-total"),
                                            ("mult", "mult-nat-total")])
    def test_missing_key_is_a_law_violation(self, capsys, tmp_path, field, law):
        data = identity_monad()
        del data[field][min(data[field])]
        code, out, _ = run(capsys, "monads", "--monad-file", write(tmp_path, "monad", data))
        assert code == 1 and out.startswith(f"FAIL {law} at ")


class TestMalformedInputs:
    @pytest.mark.parametrize("field", ["T_obj", "T_mor", "unit", "mult"])
    def test_monad_file_missing_field(self, capsys, tmp_path, field):
        data = corpus.load_json("fixtures/bad/monad_mutated_mult")
        del data[field]
        code, out, err = run(capsys, "monads", "--monad-file", write(tmp_path, "monad", data))
        assert code == 2 and out == "" and f"malformed monad file: {field} is missing" in err

    @pytest.mark.parametrize("spec", [
        {"kind": "zn"},
        {"kind": "tables", "elements": ["z", "u"], "zero": "z", "one": "u",
         "add": [["z", "u"], ["u"]], "mul": [["z", "z"], ["z", "u"]]},
    ])
    def test_malformed_ring_spec(self, capsys, tmp_path, spec):
        code, out, err = run(capsys, "ring-check", "--ring", write(tmp_path, "ring", spec),
                             "--algebra", "ring_z2", "--map", "hom_z4_to_z2")
        assert code == 2 and out == "" and "malformed" in err

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "zn", "n": 4.9}, "n must be an integer, got 4.9"),
        ({"kind": "zn", "n": True}, "n must be an integer, got True"),
        ({"kind": "zn", "n": "4"}, "n must be an integer, got '4'"),
        ({"kind": "polyquo", "base": {"kind": "zn", "n": 2}, "poly": [1, 1.5, 1]},
         "poly[1] must be an integer, got 1.5"),
        pytest.param({"kind": "polyquo", "base": {"kind": "zn", "n": 2.0}, "poly": [1, 1, 1]},
                     "base.n must be an integer, got 2.0",
                     id="spec4-base n must be an integer, got 2.0"),
    ])
    def test_ring_spec_integer_fields(self, capsys, tmp_path, spec, message):
        code, out, err = run(capsys, "ring-check", "--ring", write(tmp_path, "ring", spec),
                             "--algebra", "ring_z2", "--map", "hom_z4_to_z2")
        assert code == 2 and out == "" and message in err

    def test_objects_as_string(self, capsys, tmp_path):
        path = write(tmp_path, "cat", {"objects": "ab", "morphisms": [], "compose": []})
        code, out, err = run(capsys, "validate", path)
        assert code == 2 and out == "" and "objects must be a JSON array, got 'ab'" in err

    def test_model_class_as_string(self, capsys, tmp_path):
        data = corpus.load_json("fixtures/bad/model_dropped_fib")
        data["fib"] = "".join(data["fib"])
        code, out, err = run(capsys, "verify-model", write(tmp_path, "model", data))
        assert code == 2 and out == "" and f"fib must be a JSON array, got {data['fib']!r}" in err

    @pytest.mark.parametrize("spec, message", [
        pytest.param({"kind": "tables", "elements": "zu", "zero": "z", "one": "u",
                      "add": ["zu", "uz"], "mul": ["zz", "zu"]},
                     "elements must be a JSON array, got 'zu'",
                     id="spec0-elements must be an array, got 'zu'"),
        ({"kind": "tables", "elements": ["z", "u"], "zero": "z", "one": "u",
          "add": [["z", "u", "z"], ["u", "z", "z"], ["z", "z", "z"]],
          "mul": [["z", "z"], ["z", "u"]]}, "add must be 2 arrays of 2 entries"),
        pytest.param({"kind": "tables", "elements": ["z", "u"], "zero": "z", "one": "u",
                      "add": [["z", "u"], ["u", "z"]], "mul": ["zz", "zu"]},
                     "mul[0] must be a JSON array, got 'zz'",
                     id="spec2-mul must be 2 arrays of 2 entries"),
        pytest.param({"kind": "tables", "elements": ["z", "u"], "zero": "z", "one": "u",
                      "add": {"z": ["z", "u"], "u": ["u", "z"]},
                      "mul": [["z", "z"], ["z", "u"]]},
                     "add must be a JSON array, got {'z': ['z', 'u'], 'u': ['u', 'z']}",
                     id="spec3-add must be 2 arrays of 2 entries"),
        pytest.param({"kind": "product", "factors": {"a": {"kind": "zn", "n": 2}}},
                     "factors must be a JSON array, got {'a': {'kind': 'zn', 'n': 2}}",
                     id="spec4-factors must be an array"),
        pytest.param({"kind": "polyquo", "base": {"kind": "zn", "n": 2},
                      "poly": {"0": 1, "1": 1}},
                     "poly must be a JSON array, got {'0': 1, '1': 1}",
                     id="spec5-poly must be an array"),
    ])
    def test_ring_spec_array_fields(self, capsys, tmp_path, spec, message):
        # each spec reads as a ring, the map as its identity
        path = write(tmp_path, "ring", spec)
        code, out, err = run(capsys, "ring-check", "--ring", path, "--algebra", path,
                             "--map", write(tmp_path, "map", {"z": "z", "u": "u"}))
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("change, message", [
        pytest.param({"elements": [None, "1"], "zero": "None"},
                     "elements[0] must be a JSON string, got None",
                     id="change0-elements[0] must be a string, got None"),
        pytest.param({"zero": 0}, "zero must be a JSON string, got 0",
                     id="change1-zero must be a string, got 0"),
        pytest.param({"add": [["0", "1"], ["1", 0]]}, "add[1][1] must be a JSON string, got 0",
                     id="change2-add[1][1] must be a string, got 0"),
    ])
    def test_tables_spec_ids_are_strings(self, capsys, tmp_path, change, message):
        spec = {"kind": "tables", "elements": ["0", "1"], "zero": "0", "one": "1",
                "add": [["0", "1"], ["1", "0"]], "mul": [["0", "0"], ["0", "1"]], **change}
        code, out, err = run(capsys, "ring-check", "--ring", write(tmp_path, "ring", spec),
                             "--algebra", "ring_z2",
                             "--map", write(tmp_path, "map", {"None": "0", "0": "0", "1": "1"}))
        assert code == 2 and out == "" and message in err

    def test_well_formed_tables_spec(self, capsys, tmp_path):
        spec = {"kind": "tables", "elements": ["z", "u"], "zero": "z", "one": "u",
                "add": [["z", "u"], ["u", "z"]], "mul": [["z", "z"], ["z", "u"]]}
        path = write(tmp_path, "ring", spec)
        code, out, _ = run(capsys, "ring-check", "--ring", path, "--algebra", path,
                           "--map", write(tmp_path, "map", {"z": "z", "u": "u"}))
        assert code == 0 and out.startswith("PASS")
        code, out, _ = run(capsys, "ring-check", "--ring", path, "--algebra", "ring_z2xz2",
                           "--map", write(tmp_path, "map", {"z": "(0,0)", "u": "(1,1)"}))
        assert code == 1 and out.startswith("FAIL")

    def test_ring_cap_checked_before_tables_are_built(self, capsys, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("ring tables built before the cap check")

        monkeypatch.setattr(ringmod, "ring_zn", never)
        path = write(tmp_path, "big", {"kind": "zn", "n": 10 ** 9})
        code, out, err = run(capsys, "ring-check", "--ring", path, "--algebra", path,
                             "--map", "hom_z4_id")
        assert code == 2 and out == "" and "1000000000 elements exceeds the cap of 16" in err


    @pytest.mark.parametrize("mapping, message", [
        pytest.param([1, 2], "the file must be a JSON object, got [1, 2]", id="mapping0"),
        # not an object under "map", so read as a bare map
        pytest.param({"map": [1]}, "['map'] must be a JSON string, got [1]", id="mapping1"),
    ])
    def test_ring_map_not_an_object(self, capsys, tmp_path, mapping, message):
        code, out, err = run(capsys, "ring-check", "--ring", "ring_z4", "--algebra", "ring_z2",
                             "--map", write(tmp_path, "map", mapping))
        assert code == 2 and out == "" and f"malformed ring map: {message}" in err

    @pytest.mark.parametrize("field, key", [("T_obj", "x"), ("T_mor", "s")])
    def test_monad_file_unknown_id(self, capsys, tmp_path, field, key):
        data = corpus.load_json("fixtures/bad/monad_mutated_mult")
        data[field][key] = "nowhere"
        code, out, err = run(capsys, "monads", "--monad-file", write(tmp_path, "monad", data))
        assert code == 2 and out == "" and "'nowhere', which is not an id" in err

    @pytest.mark.parametrize("field, key, value", [("unit", "m", [1]), ("mult", "x", {"a": 1}),
                                                    ("unit", "y", 3)])
    def test_monad_file_component_not_an_id(self, capsys, tmp_path, field, key, value):
        data = corpus.load_json("fixtures/bad/monad_mutated_mult")
        data[field][key] = value
        code, out, err = run(capsys, "monads", "--monad-file", write(tmp_path, "monad", data))
        assert code == 2 and out == "" and \
            f"malformed monad file: {field}[{key!r}] must be a JSON string, got {value!r}" in err

    def test_monad_file_image_left_unmapped(self, capsys, tmp_path):
        data = corpus.load_json("fixtures/bad/monad_mutated_mult")
        data["T_obj"]["x"] = "y"
        del data["T_obj"]["y"]
        code, out, err = run(capsys, "monads", "--monad-file", write(tmp_path, "monad", data))
        assert code == 2 and out == "" and "sends x to 'y', which is not an id" in err

    @pytest.mark.parametrize("spec, message", [
        pytest.param([1, 2], "the file must be a JSON object, got [1, 2]",
                     id="spec0-cannot parse truncated-abelian spec"),
        pytest.param({"kind": "truncated-abelian", "p": "x", "bound": 3},
                     "p must be an integer, got 'x'", id="spec1-ValueError"),
        pytest.param({"kind": "truncated-abelian", "p": 2}, "bound is missing",
                     id="spec2-KeyError('bound')"),
        pytest.param({"kind": "truncated-abelian", "p": 2, "bound": 2.9},
                     "bound must be an integer, got 2.9", id="spec3-p and bound must be integers"),
        pytest.param({"kind": "truncated-abelian", "p": 2, "bound": 2.0},
                     "bound must be an integer, got 2.0", id="spec4-p and bound must be integers"),
        pytest.param({"kind": "truncated-abelian", "p": "2", "bound": 2},
                     "p must be an integer, got '2'", id="spec5-p and bound must be integers"),
        pytest.param({"kind": "truncated-abelian", "p": True, "bound": 2},
                     "p must be an integer, got True", id="spec6-p and bound must be integers"),
    ])
    def test_k0_truncated_malformed_file(self, capsys, tmp_path, spec, message):
        code, out, err = run(capsys, "k0", "--truncated-abelian",
                             write(tmp_path, "trunc", spec))
        assert code == 2 and out == "" and f"malformed truncated-abelian spec: {message}" in err
        assert "expected p=2,bound=3" not in err

    @pytest.mark.parametrize("arg", ["p=2,bound=2,p=3", "p=2,bound=2,bound=2",
                                     "p=2,bound=2.9", "p=2,bound=2,q=1", "p=2"])
    def test_k0_truncated_malformed_arg(self, capsys, arg):
        code, out, err = run(capsys, "k0", "--truncated-abelian", arg)
        assert code == 2 and out == "" and "cannot parse truncated-abelian spec" in err

    @pytest.mark.parametrize("arg, message", [
        ("p=2,bound=20000", "p^bound = 2^20000 exceeds the cap of 64"),
        ("p=1000000000000000003,bound=1",
         "p^bound = 1000000000000000003^1 exceeds the cap of 64"),
        ("p=2,bound=0", "bound = 0 must be at least 1"),
        ("p=4,bound=2", "p = 4 is not prime"),
    ])
    def test_k0_truncated_out_of_range(self, capsys, arg, message):
        # the bound and the cap are checked before any large power or primality test
        code, out, err = run(capsys, "k0", "--truncated-abelian", arg)
        assert code == 2 and out == "" and message in err

    def test_k0_truncated_repeated_key(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"kind": "truncated-abelian", "p": 2, "bound": 2, "p": 3}',
                        encoding="utf-8")
        code, out, err = run(capsys, "k0", "--truncated-abelian", str(path))
        assert code == 2 and out == "" and "repeated JSON key 'p'" in err
        assert "expected p=2,bound=3" not in err

    def test_k0_truncated_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"kind": "truncated-abelian", "p": 2,', encoding="utf-8")
        code, out, err = run(capsys, "k0", "--truncated-abelian", str(path))
        assert code == 2 and out == "" and f"malformed JSON in {path}" in err
        assert "expected p=2,bound=3" not in err

    BIG = "1" + "0" * 5000   # past the 4,300 digits that int() converts

    @pytest.mark.parametrize("text, argv", [
        pytest.param(f'{{"objects": [{BIG}]}}', ["validate"], id="category-object"),
        pytest.param(f'{{"kind": "zn", "n": {BIG}}}',
                     ["ring-check", "--algebra", "ring_z2", "--map", "hom_z4_to_z2", "--ring"],
                     id="ring-n"),
        pytest.param(f'{{"kind": "truncated-abelian", "p": 2, "bound": {BIG}}}',
                     ["k0", "--truncated-abelian"], id="truncated-bound"),
        pytest.param('{"objects": [' + "[" * 100000 + "]" * 100000 + "]}", ["validate"],
                     id="nested-too-deeply"),
    ])
    def test_json_that_json_cannot_read(self, capsys, tmp_path, text, argv):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == "" and f"malformed JSON in {path}" in err

    def test_json_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(b'{"objects": ["\xff"]}')
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == "" and f"malformed JSON in {path}" in err

    @pytest.mark.parametrize("n, deg, cap", [(10 ** 18, 300000, 16), (2, 300000, 16),
                                             (10 ** 39, 120, 10 ** 40)])
    def test_polyquo_cap_decided_without_the_power(self, capsys, tmp_path, n, deg, cap):
        # n^deg has more digits than int() converts to a string
        spec = {"kind": "polyquo", "base": {"kind": "zn", "n": n}, "poly": [0] * deg + [1]}
        path = write(tmp_path, "ring", spec)
        start = time.perf_counter()
        code, out, err = run(capsys, "--max-ring-elements", str(cap), "ring-check",
                             "--ring", path, "--algebra", "ring_z2", "--map", "hom_z4_to_z2")
        assert code == 2 and out == "" and \
            f"polyquo: {n}^{deg} elements exceeds the cap of {cap}" in err
        assert time.perf_counter() - start < 0.5

    def test_ring_product_cap_decided_factor_by_factor(self, capsys, tmp_path):
        # 16^4000 has more digits than int() converts to a string
        spec = {"kind": "product", "factors": [{"kind": "zn", "n": 16}] * 4000}
        code, out, err = run(capsys, "ring-check", "--ring", write(tmp_path, "ring", spec),
                             "--algebra", "ring_z2", "--map", "hom_z4_to_z2")
        assert code == 2 and out == "" and "product: at least 256 elements exceeds the cap" in err

    def test_bare_ring_map_of_a_ring_with_an_element_labelled_map(self, capsys, tmp_path):
        spec = {"kind": "tables", "elements": ["map", "u"], "zero": "map", "one": "u",
                "add": [["map", "u"], ["u", "map"]], "mul": [["map", "map"], ["map", "u"]]}
        ring = write(tmp_path, "ring", spec)
        code, out, _ = run(capsys, "ring-check", "--ring", ring, "--algebra", ring,
                           "--map", write(tmp_path, "map", {"map": "map", "u": "u"}))
        assert code == 0 and out.startswith("PASS")

    @pytest.mark.parametrize("data, message", [
        ({"objects": ["a"], "morphisms": [{"id": None, "src": "a", "dst": "a"}], "compose": []},
         "morphisms[0].id must be a JSON string, got None"),
        ({"objects": [None, "1"], "morphisms": [], "compose": []},
         "objects[0] must be a JSON string, got None"),
    ])
    def test_category_ids_are_strings(self, capsys, tmp_path, data, message):
        # str() read these as the ids "None" and passed them as valid
        code, out, err = run(capsys, "validate", write(tmp_path, "cat", data))
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("spec", [
        {"kind": "tables", "elements": ["0", "1"], "zero": "0", "one": "1",
         "add": [["0", "1"], ["1", "0"]], "mul": [["0", "0"], ["0", "1"]], "name": None},
        {"kind": "zn", "n": 2, "name": [1, 2]},
        {"kind": "product", "factors": [{"kind": "zn", "n": 2}], "name": 2},
        {"kind": "polyquo", "base": {"kind": "zn", "n": 2}, "poly": [1, 1], "name": False},
    ])
    def test_ring_spec_name_is_a_string(self, capsys, tmp_path, spec):
        # str() named these rings Mod(None) and Mod([1, 2])
        code, out, err = run(capsys, "ring-check", "--ring", write(tmp_path, "ring", spec),
                             "--algebra", "ring_z2",
                             "--map", write(tmp_path, "map", {"0": "0", "1": "1"}))
        assert code == 2 and out == "" and \
            f"malformed ring spec: name must be a JSON string, got {spec['name']!r}" in err

    RING_MAP = ["ring-check", "--ring", "ring_z4", "--algebra", "ring_z2", "--map"]

    @pytest.mark.parametrize("argv, base, change, message", [
        # str() read the first map as the identity labels and passed it
        pytest.param(RING_MAP, None, {"map": {"0": 0, "1": 1, "2": 0, "3": 1}},
                     "malformed ring map: map['0'] must be a JSON string, got 0", id="map-ints"),
        pytest.param(RING_MAP, None, {"map": {"0": "0", "1": "1", "2": "0", "3": None}},
                     "malformed ring map: map['3'] must be a JSON string, got None",
                     id="map-null"),
        pytest.param(["verify-model"], "fixtures/bad/model_dropped_fib", {"we": [None, "id_1"]},
                     "malformed model file: we[0] must be a JSON string, got None",
                     id="model-we-null"),
        pytest.param(["verify-model"], "fixtures/bad/model_dropped_fib", {"cof": [["id_0"]]},
                     "malformed model file: cof[0] must be a JSON string, got ['id_0']",
                     id="model-cof-nested"),
        *(pytest.param([verb, *flag], base, {"name": name},
                       f"malformed {kind} file: name must be a JSON string, got {name!r}",
                       id=f"{kind}-name-{name}")
          for verb, flag, kind, base in (
              ("verify-model", (), "model", "fixtures/bad/model_dropped_fib"),
              ("monads", ("--monad-file",), "monad", "fixtures/bad/monad_mutated_mult"))
          for name in (7, None)),
    ])
    def test_ill_typed_field_named_by_its_path(self, capsys, tmp_path, argv, base, change,
                                               message):
        data = {**(corpus.load_json(base) if base else {}), **change}
        code, out, err = run(capsys, *argv, write(tmp_path, "input", data))
        assert code == 2 and out == "" and message in err

    def test_category_repeated_key(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text('{"objects": ["a"], "objects": ["a", "b"], "morphisms": [], '
                        '"compose": []}', encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == "" and "repeated JSON key 'objects'" in err

    @pytest.mark.parametrize("bound, maps, we", [
        pytest.param(5, 38510027, "isos", id="5-38510027"),
        pytest.param(6, 73354795389, "isos", id="6-73354795389"),
        pytest.param(5, 38510027, "all", id="5-38510027-all"),
        pytest.param(6, 73354795389, "all", id="6-73354795389-all"),
    ])
    def test_k0_truncated_past_the_old_budget(self, capsys, bound, maps, we):
        code, out, _ = run(capsys, "--format", "json", "k0", "--truncated-abelian",
                           f"p=2,bound={bound}", "--we", we)
        report = json.loads(out)
        assert code == 0 and report["trivial"] and report["cofiber_relations"] == maps
        if we == "all":
            assert report["we_relations"] == maps


# -- generated inputs: mutated corpus and fixture JSON ------------------------------


MUTATED_KINDS = {
    "category": corpus.CATEGORIES + ("fixtures/bad/cat_assoc_broken",
                                     "fixtures/bad/cat_compose_srcdst"),
    "model": ("fixtures/bad/model_dropped_fib",),
    "monad": ("fixtures/bad/monad_mutated_mult",),
    "truncated": corpus.TRUNCATED,
    "ring": corpus.RINGS,
    "ring map": corpus.RING_MAPS,
}


def mutation_targets() -> dict:
    """Each kind of bundled input -> each input of that kind -> every golden
    argv that reads it, with "{}" standing for the path of its mutated copy."""
    argvs = list(golden_cases().values())
    return {kind: {name: [["{}" if arg == name else arg for arg in argv]
                          for argv in argvs if name in argv] for name in names}
            for kind, names in MUTATED_KINDS.items()}


MUTATION_TARGETS = mutation_targets()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6)


def json_paths(doc, prefix=()):
    """The path of every value in a JSON document, the root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


@st.composite
def mutations(draw, doc):
    """`doc` after one to three edits, each at a drawn path (a depth first, so
    top-level fields are hit as often as deep entries): replace the value by a
    drawn JSON value or by a scalar found elsewhere in the document, delete it,
    or repeat it within its list."""
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(json_paths(doc))
        depth = draw(st.sampled_from(sorted({len(path) for path in paths})))
        *parents, key = draw(st.sampled_from([p for p in paths if len(p) == depth])) or (None,)
        holder = doc
        for step in parents:
            holder = holder[step]
        scalars = [v for v in (reduce(lambda d, k: d[k], p, doc) for p in paths)
                   if not isinstance(v, (dict, list))]
        edit = draw(st.sampled_from(["replace", "reuse", "delete", "repeat"]))
        if edit == "reuse" and scalars:
            value = draw(st.sampled_from(scalars))
        elif edit == "delete" and key is not None:
            del holder[key]
            continue
        elif edit == "repeat" and key is not None and isinstance(holder, list):
            holder.insert(key, copy.deepcopy(holder[key]))
            continue
        else:
            value = draw(json_values)
        if key is None:
            doc = value
        else:
            holder[key] = value
    return doc


@pytest.fixture(scope="class")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


class TestMutatedInputs:
    """Whatever a bundled input is mutated into, every subcommand that reads it
    keeps the exit-code contract: no exception escapes `main`, and the code is
    0, 1 or 2."""

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_exit_contract(self, data, mutation_dir):
        inputs = MUTATION_TARGETS[data.draw(st.sampled_from(sorted(MUTATION_TARGETS)))]
        name = data.draw(st.sampled_from(sorted(inputs)))
        doc = data.draw(mutations(corpus.load_json(name)))
        path = mutation_dir / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(path) if arg == "{}" else arg
                for arg in data.draw(st.sampled_from(inputs[name]))]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv


# Each kind of bundled input -> the kind its errors name, and one argv per role
# that reads it, "{}" standing for its ill-typed copy.
LEAF_RUNS = {
    "category": ("category file", [["validate", "{}"]]),
    "model": ("model file", [["verify-model", "{}"]]),
    "monad": ("monad file", [["monads", "--monad-file", "{}"]]),
    "truncated": ("truncated-abelian spec", [["k0", "--truncated-abelian", "{}"]]),
    "ring": ("ring spec", [
        ["ring-check", "--ring", "{}", "--algebra", "ring_z2", "--map", "hom_z4_to_z2"],
        ["ring-check", "--ring", "ring_z4", "--algebra", "{}", "--map", "hom_z4_to_z2"]]),
    "ring map": ("ring map", [
        ["ring-check", "--ring", "ring_z4", "--algebra", "ring_z2", "--map", "{}"]]),
}
ID_MAPS = ("identity", "T_obj", "T_mor", "unit", "mult", "map")   # objects keyed by ids


def leaves(doc, path="", keyed=False):
    """(path, holder, key) of every string and integer of a JSON document, the
    path written from the root as input errors name it."""
    items = enumerate(doc) if type(doc) is list else doc.items()
    for key, value in items:
        at = f"{path}[{key!r}]" if type(doc) is list or keyed else f"{path}.{key}".lstrip(".")
        if type(value) in (list, dict):
            yield from leaves(value, at, keyed=key in ID_MAPS)
        else:
            assert type(value) in (str, int), at
            yield at, doc, key


class TestIllTypedLeaves:
    """Every leaf of every bundled input, made ill-typed (a string becomes null,
    an integer the string "1"), is an input error that names it by its path."""

    @pytest.mark.parametrize("kind, name", [(kind, name) for kind, names in MUTATED_KINDS.items()
                                            for name in names])
    def test_each_leaf_is_named(self, capsys, tmp_path, kind, name):
        noun, argvs = LEAF_RUNS[kind]
        doc = corpus.load_json(name)
        path = tmp_path / "input.json"
        for at, holder, key in list(leaves(doc)):
            leaf = holder[key]
            holder[key] = None if type(leaf) is str else "1"
            path.write_text(json.dumps(doc), encoding="utf-8")
            holder[key] = leaf
            for argv in argvs:
                code, out, err = run(capsys, *(str(path) if a == "{}" else a for a in argv))
                assert (code, out) == (2, ""), (name, at, argv)
                assert f"error: malformed {noun}: {at} must be " in err, (name, at, err)


class TestLargeRings:
    @pytest.mark.parametrize("ring, algebra, mapping, code, order", [
        ({"kind": "zn", "n": 16}, {"kind": "zn", "n": 16},
         {str(i): str(i) for i in range(16)}, 0, 16),
        ({"kind": "zn", "n": 12},
         {"kind": "product", "factors": [{"kind": "zn", "n": 4}, {"kind": "zn", "n": 3}]},
         {str(i): f"({i % 4},{i % 3})" for i in range(12)}, 0, 12),
        ({"kind": "zn", "n": 2},
         {"kind": "polyquo", "base": {"kind": "zn", "n": 2}, "poly": [1, 1, 0, 0, 1]},
         {"0": "0", "1": "1"}, 1, 65536),
    ])
    def test_ring_check_at_the_cap(self, capsys, tmp_path, ring, algebra, mapping, code, order):
        result, out, _ = run(capsys, "--format", "json", "ring-check",
                             "--ring", write(tmp_path, "ring", ring),
                             "--algebra", write(tmp_path, "algebra", algebra),
                             "--map", write(tmp_path, "map", {"map": mapping}))
        assert result == code and json.loads(out)["tensor_square_order"] == order


class TestCapsOnNestedCategories:
    def test_verify_model(self, capsys):
        code, out, err = run(capsys, "verify-model", "fixtures/bad/model_dropped_fib",
                             "--max-objects", "1")
        assert code == 2 and out == "" and "max-objects" in err

    def test_monad_file(self, capsys):
        code, out, err = run(capsys, "monads", "--monad-file",
                             "fixtures/bad/monad_mutated_mult", "--max-objects", "2")
        assert code == 2 and out == "" and "max-objects" in err


class TestComputedOnce:
    @pytest.mark.parametrize("argv", [
        ["verify-model", "fixtures/bad/model_dropped_fib"],
        ["monads", "--monad-file", "fixtures/bad/monad_mutated_mult"],
    ])
    def test_nested_category_checked_once(self, capsys, monkeypatch, argv):
        walks = []

        def counted(shape, value, *rest, original=schema._walk):
            if shape is schema.CATEGORY:
                walks.append(value)
            return original(shape, value, *rest)

        monkeypatch.setattr(schema, "_walk", counted)
        code, _, _ = run(capsys, *argv)
        assert code == 1 and len(walks) == 1

    def test_each_ring_validated_once(self, capsys, monkeypatch):
        seen = []

        def counted(ring, original=ringmod.validate_ring):
            seen.append(ring)
            return original(ring)

        monkeypatch.setattr(ringmod, "validate_ring", counted)
        code, _, _ = run(capsys, "ring-check", "--ring", "ring_z4", "--algebra", "ring_z2",
                         "--map", "hom_z4_to_z2")
        assert code == 0
        assert sorted(ring.name for ring in seen) == ["Z/2", "Z/4"]
        # a product's laws follow from its factors', so only the factors are validated
        seen.clear()
        code, _, _ = run(capsys, "ring-check", "--ring", "ring_z2", "--algebra", "ring_z2xz2",
                         "--map", "hom_z2_diag_z2xz2")
        assert code == 1   # the diagonal is no localization
        assert sorted(ring.name for ring in seen) == ["Z/2", "Z/2", "Z/2"]

    def test_additive_group_presented_on_k_generators(self, capsys, tmp_path, monkeypatch):
        shapes = []

        def recorded(matrix, n_cols=None, original=snf.smith_normal_form):
            shapes.append((len(matrix), n_cols))
            return original(matrix, n_cols)

        for module in (snf, ringmod):
            monkeypatch.setattr(module, "smith_normal_form", recorded)
        z16 = write(tmp_path, "z16", {"kind": "zn", "n": 16})
        code, _, _ = run(capsys, "ring-check", "--ring", z16, "--algebra", z16,
                         "--map", write(tmp_path, "map", {str(i): str(i) for i in range(16)}))
        assert code == 0
        # Z/16 is generated by 1 with 16 * 1 = 0, so (S, +) is presented by the
        # 1 x 1 matrix [16]; then the 1 x 1 tensor square.
        assert shapes == [(1, 1), (1, 1)]

    def test_only_a_broken_ring_scans_every_pair(self, capsys, monkeypatch):
        scans = []

        def counted(table, els, original=ringmod._first_cubic_failure):
            scans.append(els)
            return original(table, els)

        monkeypatch.setattr(ringmod, "_first_cubic_failure", counted)
        for ring, algebra, mapping, expected in (
                ("ring_z4", "ring_z2", "hom_z4_to_z2", 0),
                ("ring_z6", "ring_z2", "hom_z6_to_z2", 0),
                ("ring_z2", "ring_z2_dual", "hom_z2_to_z2_dual", 1),
                ("ring_z2", "ring_z2xz2", "hom_z2_diag_z2xz2", 1),
                ("ring_z4", "ring_z4", "hom_z4_id", 0)):
            code, _, _ = run(capsys, "ring-check", "--ring", ring, "--algebra", algebra,
                             "--map", mapping)
            assert (code, scans) == (expected, []), mapping
        # the broken Z/3 of the `validate_ring` doctest
        z3 = ringmod.ring_zn(3)
        broken = ringmod.FiniteRing("Z/3, 2*2 = 2", z3.elements, z3.add,
                                    {**z3.mul, ("2", "2"): "2"}, "0", "1")
        assert ringmod.validate_ring(broken).law == "distributive"
        assert len(scans) == 1

    @pytest.mark.parametrize("command, names", [
        ("bijections", {"diamond"}),
        ("colocalizations", {"diamond", "diamond^op"}),
    ])
    def test_validation_and_hypotheses_once_per_category(self, capsys, monkeypatch,
                                                         command, names):
        calls = {"validate_category": [], "_scan_hypotheses": []}
        for fn, seen in calls.items():
            def counted(cat, original=getattr(fincat, fn), seen=seen):
                seen.append(cat)
                return original(cat)

            monkeypatch.setattr(fincat, fn, counted)
        code, _, _ = run(capsys, command, "diamond")
        assert code == 0
        for fn, seen in calls.items():
            assert len({id(cat) for cat in seen}) == len(seen), fn
            assert seen and {cat.name for cat in seen} <= names, fn

    @pytest.mark.parametrize("argv", [("bijections", "diamond"),
                                      ("homotopy-category", "diamond", "--subcat", "a,top")])
    def test_each_limit_searched_once_per_category(self, capsys, monkeypatch, argv):
        seen = []

        def counted(cat, shape, args, *rest, original=fincat._universal_cone):
            seen.append((cat, shape, args))
            return original(cat, shape, args, *rest)

        monkeypatch.setattr(fincat, "_universal_cone", counted)
        code, _, _ = run(capsys, *argv)
        assert code == 0 and seen
        # `seen` keeps every category alive, so no two of them share an id.
        searches = [(id(cat), shape, args) for cat, shape, args in seen]
        assert len(set(searches)) == len(searches)

    # pentagon has 13 maps, so a category has 169 (g, f) pairs; colocalizations
    # decides lifts in pentagon^op and again in pentagon, where its axioms are
    # checked.  Deciding each square per class took 3,469 and 4,043 calls.
    @pytest.mark.parametrize("command, lifts, retracts", [
        ("enumerate-localizations", 169, 169),
        ("colocalizations", 338, 169),
    ])
    def test_each_square_and_retract_decided_once_per_category(
            self, capsys, monkeypatch, command, lifts, retracts):
        seen = {"lifts_against": [], "is_retract": []}
        for fn, calls in seen.items():
            def counted(cat, x, y, original=getattr(lifting, fn), calls=calls):
                calls.append((cat, x, y))
                return original(cat, x, y)

            monkeypatch.setattr(lifting, fn, counted)
        code, _, _ = run(capsys, command, "pentagon")
        assert code == 0
        # `seen` keeps every category alive, so no two of them share an id.
        for fn, calls in seen.items():
            decided = [(id(cat), x, y) for cat, x, y in calls]
            assert len(set(decided)) == len(decided), fn
        assert (len(seen["lifts_against"]), len(seen["is_retract"])) == (lifts, retracts)

    # Each table a certificate filters is built once per category instance.
    def test_each_certificate_table_built_once_per_category(self, capsys, monkeypatch):
        seen = []
        for fn in ("_factorizations", "_cylinders", "_paths"):
            def counted(cat, *args, original=getattr(modelstruct, fn), fn=fn):
                seen.append((fn, cat, args))
                return original(cat, *args)

            monkeypatch.setattr(modelstruct, fn, counted)
        code, _, _ = run(capsys, "bijections", "pentagon")
        assert code == 0
        # `seen` keeps every category alive, so no two of them share an id.
        built = [(fn, id(cat), args) for fn, cat, args in seen]
        assert len(set(built)) == len(built)
        assert {fn for fn, _, _ in built} == {"_factorizations", "_cylinders", "_paths"}

    # pentagon is thin, so each object has at most one unit-law candidate: each
    # of the 60 order searches and 13 equivalence searches certifies one choice.
    def test_one_leaf_check_per_monad_morphism_search(self, capsys, monkeypatch):
        calls = {"monad_morphism_exists": 0, "is_monad_morphism": 0}
        for fn in calls:
            def counted(*args, original=getattr(monadkit, fn), fn=fn, **kwargs):
                calls[fn] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(monadkit, fn, counted)
        # `bijection_suite` calls the search through its own import
        monkeypatch.setattr(modelstruct, "monad_morphism_exists",
                            monadkit.monad_morphism_exists)
        code, _, _ = run(capsys, "bijections", "pentagon")
        assert code == 0
        assert calls == {"monad_morphism_exists": 73, "is_monad_morphism": 73}

    # pentagon has 13 replete reflective subcategories, hence 169 ordered pairs
    # of reflector monads; the search runs only on the pairs whose unit
    # components all extend, and once more per natural-equivalence check.
    def test_monad_order_searches_only_unit_compatible_pairs(self, capsys, monkeypatch,
                                                              cats):
        searched, equivalences = [], []

        def counted(source, target, isos_only=False, original=monadkit.monad_morphism_exists):
            searched.append((units(source), units(target), isos_only))
            return original(source, target, isos_only)

        def equivalence(first, second, original=monadkit.naturally_equivalent):
            equivalences.append((first, second))
            return original(first, second)

        monkeypatch.setattr(monadkit, "monad_morphism_exists", counted)
        monkeypatch.setattr(modelstruct, "monad_morphism_exists", counted)
        monkeypatch.setattr(modelstruct, "naturally_equivalent", equivalence)
        code, _, _ = run(capsys, "bijections", "pentagon")
        assert code == 0
        cat = cats["pentagon"]
        reflector_units = [units(r) for r in enumerate_replete_reflective(cat)]
        compatible = [(s, t, False) for t in reflector_units for s in reflector_units
                      if all(cat.extensions(dict(s)[x], dict(t)[x]) for x in cat.objects)]
        assert len(reflector_units) == len(equivalences) == 13 and len(compatible) == 60
        assert sorted(searched) == sorted(compatible + [
            (u, u, True) for u in reflector_units])

    def test_each_functor_and_transformation_checked_once(self, capsys, monkeypatch):
        seen = []
        for cls in (fincat.FunctorData, fincat.NatTransData):
            def counted(value, original=cls.violations.func):
                seen.append(value)
                return original(value)

            prop = cached_property(counted)
            prop.__set_name__(cls, "violations")
            monkeypatch.setattr(cls, "violations", prop)
        code, _, _ = run(capsys, "bijections", "pentagon")
        assert code == 0 and seen
        # `seen` keeps every instance alive, so no two of them share an id.
        assert len({id(value) for value in seen}) == len(seen)

    def test_fibrant_objects_scanned_once_per_structure(self, capsys, monkeypatch):
        seen = []

        def counted(ms, original=modelstruct.ModelStructure.fibrants.func):
            seen.append(ms)
            return original(ms)

        prop = cached_property(counted)
        prop.__set_name__(modelstruct.ModelStructure, "fibrants")
        monkeypatch.setattr(modelstruct.ModelStructure, "fibrants", prop)
        code, _, _ = run(capsys, "bijections", "pentagon")
        assert code == 0
        # pentagon has 13 localizations; `seen` keeps each structure alive
        assert len({id(ms) for ms in seen}) == len(seen) == 13

    def test_reflector_functor_composes_at_generator_pairs(self, bench_lattices, monkeypatch):
        cat = bench_lattices["chain8"]
        refl = find_reflector(cat, {"3", "7"}).reflector
        assert refl.functor.is_valid()   # the category's tables are built
        compared = []

        class Counted(dict):
            def __getitem__(self, pair):
                compared.append(pair)
                return dict.__getitem__(self, pair)

        monkeypatch.setattr(cat, "compose", Counted(cat.compose))
        functor = fincat.FunctorData(cat, cat, refl.functor.obj_map, refl.functor.mor_map)
        assert functor.is_valid()
        # the 7 covering maps g, each after the non-identity maps into src(g),
        # decide the law on all 120 composable pairs
        assert (len(compared), len(cat.compose)) == (21, 120)

    def test_one_functor_walk_per_distinct_functor(self, capsys, monkeypatch):
        walked = []

        def counted(functor, original=fincat.FunctorData.violations.func):
            walked.append((tuple(functor.obj_map.items()), tuple(functor.mor_map.items())))
            return original(functor)

        prop = cached_property(counted)
        prop.__set_name__(fincat.FunctorData, "violations")
        monkeypatch.setattr(fincat.FunctorData, "violations", prop)
        code, _, _ = run(capsys, "enumerate-localizations", "pentagon")
        assert code == 0
        # the fibrant replacement of each of the 13 localizations is its reflector
        assert len(walked) == len(set(walked)) == 13

    def test_one_filler_loop_and_certificate_per_reflector(self, capsys, monkeypatch):
        seen = {"_fillers": [], "_certificate": []}

        def fillers(cat, unit, original=reflect._fillers):
            seen["_fillers"].append(tuple(unit.items()))
            return original(cat, unit)

        def certificate(refl, original=reflect._certificate):
            seen["_certificate"].append((refl.members, units(refl)))
            return original(refl)

        monkeypatch.setattr(reflect, "_fillers", fillers)
        monkeypatch.setattr(reflect, "_certificate", certificate)
        code, _, _ = run(capsys, "bijections", "pentagon")
        assert code == 0
        # the replacements, the round trip and the monad dictionary rebuild
        # each of the 13 reflectors; each is filled and decided once
        for fn, calls in seen.items():
            assert len(calls) == len(set(calls)) == 13, fn

    def test_violations_decided_once(self, chain2):
        ident = identity_functor(chain2)
        bad = NatTransData(ident, ident, {"0": "m_0_1", "1": "id_1"})
        for value in (ident, bad):
            # an immutable tuple, so no caller can alter the cached verdict
            assert isinstance(value.violations, tuple) and value.violations is value.violations
            assert value.is_valid() == (not value.violations)
        assert bad.violations and not ident.violations


def units(monad_or_reflector) -> tuple:
    """The unit components, as a hashable key."""
    return tuple(sorted(monad_or_reflector.unit.components.items()))
