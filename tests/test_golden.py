"""Golden reports: the CLI's stdout and exit code on every bundled input, byte for byte.

Each case runs `loclab.cli.main` twice, with `--format json` and with
`--format text`, and compares `exit <code>` plus stdout against
`tests/golden/<case>.<format>`.  Regenerate the files (only when a report is
meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from loclab import corpus
from loclab.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("json", "text")

CATEGORY_COMMANDS = ("validate", "limits", "enumerate-localizations", "colocalizations",
                     "monads", "bijections")

# One fixed subcategory per lattice, reflective or not.
SUBCATS = {"chain2": "1", "chain3": "1,2", "chain4": "0,1", "chain5": "2,4",
           "chain6": "0,3,5", "diamond": "a,top", "pentagon": "b,c,top"}

RING_MAPS = {"hom_z4_to_z2": ("ring_z4", "ring_z2"),
             "hom_z6_to_z2": ("ring_z6", "ring_z2"),
             "hom_z2_to_z2_dual": ("ring_z2", "ring_z2_dual"),
             "hom_z2_diag_z2xz2": ("ring_z2", "ring_z2xz2"),
             "hom_z4_id": ("ring_z4", "ring_z4")}


def cases() -> dict:
    """Case name -> argv (without --format)."""
    out = {}
    bad_cats = ("fixtures/bad/cat_assoc_broken", "fixtures/bad/cat_compose_srcdst")
    for name in corpus.CATEGORIES + bad_cats:
        for cmd in CATEGORY_COMMANDS:
            out[f"{cmd}__{name}"] = [cmd, name]
        for we in ("isos", "all"):
            out[f"k0-{we}__{name}"] = ["k0", "--category", name, "--we", we]
    for name, subcat in SUBCATS.items():
        out[f"homotopy-category__{name}"] = ["homotopy-category", name, "--subcat", subcat]
        out[f"k0-subcat__{name}"] = ["k0", "--category", name, "--subcat", subcat]
    out["verify-model__model_dropped_fib"] = ["verify-model", "fixtures/bad/model_dropped_fib"]
    out["monads-file__monad_mutated_mult"] = ["monads", "--monad-file",
                                              "fixtures/bad/monad_mutated_mult"]
    for hom, (ring, algebra) in RING_MAPS.items():
        out[f"ring-check__{hom}"] = ["ring-check", "--ring", ring, "--algebra", algebra,
                                     "--map", hom]
    for name in corpus.TRUNCATED:
        for we in ("isos", "all"):
            out[f"k0-{we}__{name}"] = ["k0", "--truncated-abelian", name, "--we", we]
    out["corpus"] = ["corpus"]
    return {case.replace("fixtures/bad/", "bad_"): argv for case, argv in out.items()}


def report(argv: list, fmt: str) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--format", fmt])
    return f"exit {code}\n{stdout.getvalue()}"


CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    for fmt in FORMATS:
        want = (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")
        assert report(CASES[case], fmt) == want, f"{case} --format {fmt}"


def test_every_golden_file_has_a_case():
    names = {f"{case}.{fmt}" for case in CASES for fmt in FORMATS}
    assert {p.name for p in GOLDEN.iterdir()} == names


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        for fmt in FORMATS:
            (GOLDEN / f"{case}.{fmt}").write_text(report(argv, fmt), encoding="utf-8")
    print(f"wrote {len(CASES) * len(FORMATS)} files to {GOLDEN}")
