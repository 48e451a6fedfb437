"""`bench/tracer.py` wraps library functions by module and name; each of its
targets must still exist, or a traced bench run crashes."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, qualnames in tracer.TARGETS.items():
        module = importlib.import_module(f"loclab.{layer}")
        for qualname in qualnames:
            owner = module
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{qualname}")
    assert tracer.TARGETS
    assert not missing, missing
