"""`bench/tracer.py` wraps library functions by module and name; each of its
targets must still exist, or a traced bench run crashes, and a traced run must
count work in every layer and leave the library as it found it."""

import contextlib
import importlib
import importlib.util
import io
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = load_tracer()
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


def test_traced_pass_counts_every_layer_and_uninstalls():
    tracing = load_tracer()
    cli = importlib.import_module("loclab.cli")   # imports every traced layer
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = list(tracer.restore)
        tracer.start_pass()
        for argv in (["bijections", "pentagon"],
                     ["k0", "--truncated-abelian", "trunc_p2_b3"],
                     ["ring-check", "--ring", "ring_z4", "--algebra", "ring_z2",
                      "--map", "hom_z4_to_z2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    stats = tracer.passes[-1]
    assert stats["monadkit.monad_morphism_exists.calls"] > 0
    assert all(stats[counter] > 0 for counter in tracing.COUNTERS), \
        {counter: stats[counter] for counter in tracing.COUNTERS}
    assert wrapped and not tracer.restore
    assert [(owner, attribute) for owner, attribute, original in wrapped
            if owner.__dict__[attribute] is not original] == []
