"""Fast self-tests of the benchmark's own checks and input generation.

Run from the root of the checkout:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles as orc      # noqa: E402
import workloads           # noqa: E402


# -- oracles against hand-counted cases ----------------------------------------------


def test_chain3_has_four_localizations_and_colocalizations():
    chain3 = orc.chain(3)
    assert orc.closure_systems(chain3) == {frozenset(s) for s in
                                           ({"2"}, {"0", "2"}, {"1", "2"}, {"0", "1", "2"})}
    assert len(orc.coclosure_systems(chain3)) == 4
    assert orc.bijection_check_count(4) == 49


def test_localization_classes_of_chain3():
    # Fibrant {1, 2}: cl(0) = cl(1) = 1, so m_0_1 is the one non-identity
    # weak equivalence, and the maps out of 0 do not lift against it.
    classes = orc.localization_classes(orc.chain(3), {"1", "2"})
    assert classes["we"] == ["id_0", "id_1", "id_2", "m_0_1"]
    assert classes["fib"] == ["id_0", "id_1", "id_2", "m_1_2"]
    only_top = orc.localization_classes(orc.chain(3), {"2"})
    assert only_top["fib"] == ["id_0", "id_1", "id_2"]


def test_boolean_lattice_counts():
    # Moore families on a 3-point set: 61 closure systems on B3.
    assert len(orc.closure_systems(orc.boolean(3))) == 61


def test_k0_counts_p2_bound2_by_hand():
    # Types 0, Z/2, Z/4, Z/2+Z/2; Hom sums 4 + 9 + 11 + 25; |Aut| 1 + 1 + 2 + 6.
    assert orc.truncated_k0_counts(2, 2, "all") == {
        "generators": 4, "cofiber_relations": 49, "we_relations": 49}
    assert orc.truncated_k0_counts(2, 2, "isos")["we_relations"] == 10


def test_automorphism_counts():
    assert orc.aut_count(2, (1, 1)) == 6          # GL_2(F_2)
    assert orc.aut_count(2, (2, 1)) == 8          # Aut(Z/4 + Z/2)
    assert orc.aut_count(3, (1, 1, 1)) == 11232   # GL_3(F_3)
    assert orc.aut_count(5, (2,)) == 20           # (Z/25)^*


def test_tensor_square_closed_forms():
    assert orc.tensor_square_order("polyquo", {"p": 2, "degree": 2}) == 16
    assert orc.tensor_square_order("polyquo", {"p": 2, "degree": 3}) == 512
    assert orc.tensor_square_order("diagonal", {"factors": [2, 3]}) == 6
    assert orc.tensor_square_order("diagonal", {"factors": [4, 2]}) == 32


def test_moore_family_lattice_is_a_lattice_of_the_asked_size():
    import random
    poset = orc.moore_family_lattice(random.Random(3), "m", 4, 8)
    assert len(poset.elements) == 8 and poset.is_lattice()


# -- generated inputs ------------------------------------------------------------------


def _files(workload, seed, tmp_path):
    out = tmp_path / f"{workload}-{seed}"
    ops = workloads.build(workload, seed, ROOT, out)
    return ops, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_byte_identical_for_a_seed(workload, tmp_path):
    ops_a, files_a = _files(workload, 7, tmp_path / "a")
    ops_b, files_b = _files(workload, 7, tmp_path / "b")
    assert files_a == files_b
    assert len(ops_a) == len(ops_b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_gives_the_same_operations_and_known_faults(workload, tmp_path):
    shapes = []
    for seed in (1, 2):
        ops, _ = _files(workload, seed, tmp_path)
        shapes.append([(o.argv[0], o.fault) for o in ops])
    assert shapes[0] == shapes[1]


def _ring_order(spec):
    if spec["kind"] == "zn":
        return spec["n"]
    if spec["kind"] == "polyquo":
        return spec["base"]["n"] ** (len(spec["poly"]) - 1)
    order = 1
    for factor in spec["factors"]:
        order *= _ring_order(factor)
    return order


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_fit_the_default_caps(workload, tmp_path):
    """Every operation not meant to be refused runs at loclab's default caps."""
    ops, _ = _files(workload, 5, tmp_path)
    for o in ops:
        if o.expect == workloads.INPUT_ERROR or o.argv[0] == "corpus":
            continue
        path = next(a for a in o.argv[1:] if a.endswith(".json"))
        data = json.loads(Path(path).read_text())
        if o.argv[0] == "ring-check":
            for flag in ("--ring", "--algebra"):
                spec = json.loads(Path(o.argv[o.argv.index(flag) + 1]).read_text())
                assert _ring_order(spec) <= 16, o.label
        elif data.get("kind") == "truncated-abelian":
            assert data["p"] ** data["bound"] <= 64, o.label
        else:
            cat = orc.RawCategory(data.get("category", data))
            assert len(cat.objects) <= 8 and len(cat.src) <= 64, o.label


# -- the checks accept loclab's reports and reject altered ones ------------------------


def _run_loclab(argv):
    from loclab import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, json.loads(out.getvalue())


def test_checks_accept_reports_and_reject_altered_ones(tmp_path):
    diamond = orc.Poset("diamond", "abcd", [("a", "b"), ("a", "c"), ("a", "d"),
                                             ("b", "d"), ("c", "d")])
    path = workloads.Inputs(tmp_path).write("diamond", diamond.to_category_json())
    for cmd, make in (("enumerate-localizations", workloads.check_localizations),
                      ("colocalizations", workloads.check_colocalizations),
                      ("monads", workloads.check_lattice_monads),
                      ("bijections", workloads.check_bijections)):
        rc, payload = _run_loclab([cmd, path, "--format", "json"])
        check = make(diamond)
        assert rc == 0 and check(payload) is None, cmd
        key = "checks" if cmd == "bijections" else ("monads" if cmd == "monads" else "structures")
        if isinstance(payload[key], dict):
            payload[key].popitem()
        else:
            payload[key].pop()
        assert check(payload) is not None, cmd
    rc, payload = _run_loclab(["enumerate-localizations", path, "--format", "json"])
    payload["structures"][0]["we"] = payload["structures"][0]["we"][1:]
    assert workloads.check_localizations(diamond)(payload) is not None
