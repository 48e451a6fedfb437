"""Bundled example corpus: categories, rings, maps, and negative fixtures.

Inputs live as JSON files inside the package; CLI commands accept either a
filesystem path or a bare corpus name like ``chain3``.
"""

from __future__ import annotations

import json
from importlib import resources

from .fincat import CategoryError

CATEGORIES = ("chain2", "chain3", "chain4", "chain5", "chain6",
              "diamond", "pentagon",
              "monoid_z2", "monoid_idem", "parallel_pair",
              "terminal", "finset2", "pointed2")

RINGS = ("ring_z2", "ring_z4", "ring_z6", "ring_z2xz2", "ring_z2_dual")

RING_MAPS = ("hom_z4_to_z2", "hom_z6_to_z2", "hom_z2_to_z2_dual",
             "hom_z2_diag_z2xz2", "hom_z4_id")

TRUNCATED = ("trunc_p2_b3", "trunc_p3_b2")

BAD_FIXTURES = ("cat_assoc_broken", "cat_compose_srcdst",
                "model_dropped_fib", "monad_mutated_mult")

LATTICES = ("chain2", "chain3", "chain4", "chain5", "chain6", "diamond", "pentagon")


def _root():
    return resources.files("loclab") / "corpus_data"


def corpus_names() -> dict:
    return {
        "categories": list(CATEGORIES),
        "rings": list(RINGS),
        "ring_maps": list(RING_MAPS),
        "truncated": list(TRUNCATED),
        "bad_fixtures": [f"fixtures/bad/{n}" for n in BAD_FIXTURES],
    }


def unique_keys(pairs: list) -> dict:
    """`object_pairs_hook` for every JSON input: a repeated key is an input
    error, where plain `json` would silently keep the last value."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise CategoryError(f"repeated JSON key {key!r}")
        out[key] = value
    return out


def load_json(name: str) -> dict:
    """Load a corpus entry by bare name or fixtures/bad/... relative path."""
    rel = name if name.endswith(".json") else name + ".json"
    path = _root() / rel
    try:
        text = path.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise CategoryError(f"no corpus entry named {name!r}") from exc
    return json.loads(text, object_pairs_hook=unique_keys)


def export_all(dest) -> list:
    """Copy every bundled file under `dest`; returns the written paths."""
    import pathlib

    dest = pathlib.Path(dest)
    written = []
    for sub in ("", "fixtures/bad"):
        src_dir = _root() / sub if sub else _root()
        out_dir = dest / sub if sub else dest
        out_dir.mkdir(parents=True, exist_ok=True)
        for entry in sorted(src_dir.iterdir(), key=lambda p: p.name):
            if entry.name.endswith(".json"):
                target = out_dir / entry.name
                target.write_text(entry.read_text(encoding="utf-8"), encoding="utf-8")
                written.append(str(target))
    return written
