import json

import pytest

from loclab import corpus, fincat, ringmod
from loclab.cli import main


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

    def test_corpus_listing(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0 and "chain2" in out

    def test_corpus_export(self, capsys, tmp_path):
        code, out, _ = run(capsys, "corpus", "--export", str(tmp_path / "c"))
        assert code == 0
        assert (tmp_path / "c" / "chain3.json").exists()
        assert (tmp_path / "c" / "fixtures" / "bad" / "model_dropped_fib.json").exists()


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


class TestMalformedInputs:
    @pytest.mark.parametrize("field", ["T_obj", "T_mor", "unit", "mult"])
    def test_monad_file_missing_field(self, capsys, tmp_path, field):
        data = corpus.load_json("fixtures/bad/monad_mutated_mult")
        del data[field]
        code, out, err = run(capsys, "monads", "--monad-file", write(tmp_path, "monad", data))
        assert code == 2 and out == "" and f"KeyError: '{field}'" in err

    @pytest.mark.parametrize("spec", [
        {"kind": "zn"},
        {"kind": "tables", "elements": ["z", "u"], "zero": "z", "one": "u",
         "add": [["z", "u"], ["u"]], "mul": [["z", "z"], ["z", "u"]]},
    ])
    def test_malformed_ring_spec(self, capsys, tmp_path, spec):
        code, out, err = run(capsys, "ring-check", "--ring", write(tmp_path, "ring", spec),
                             "--algebra", "ring_z2", "--map", "hom_z4_to_z2")
        assert code == 2 and out == "" and "malformed" in err

    def test_objects_as_string(self, capsys, tmp_path):
        path = write(tmp_path, "cat", {"objects": "ab", "morphisms": [], "compose": []})
        code, out, err = run(capsys, "validate", path)
        assert code == 2 and out == "" and "'objects' must be a JSON array" in err

    def test_model_class_as_string(self, capsys, tmp_path):
        data = corpus.load_json("fixtures/bad/model_dropped_fib")
        data["fib"] = "".join(data["fib"])
        code, out, err = run(capsys, "verify-model", write(tmp_path, "model", data))
        assert code == 2 and out == "" and "'fib'" in err

    def test_ring_cap_checked_before_tables_are_built(self, capsys, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("ring tables built before the cap check")

        monkeypatch.setattr(ringmod, "ring_zn", never)
        path = write(tmp_path, "big", {"kind": "zn", "n": 10 ** 9})
        code, out, err = run(capsys, "ring-check", "--ring", path, "--algebra", path,
                             "--map", "hom_z4_id")
        assert code == 2 and out == "" and "1000000000 elements exceeds the cap of 16" in err


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
