"""The program names that bench/tracer.py wraps by name still exist, so that a
deletion in the package cannot silently break a traced benchmark run."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    # importing runs no job: the tracer's main() is guarded by __name__
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_are_module_level_callables():
    tracer = _load_tracer()
    layer_of = {}
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module("quillen_strata." + layer)
        for name in names:
            assert callable(vars(module).get(name)), (layer, name)
            layer_of[name] = layer
    for name in list(tracer.COUNTERS) + list(tracer.DISTINCT):
        assert name in layer_of, name
    assert len(tracer._originals()) == sum(len(n) for n in tracer.LAYERS.values())
    rings = importlib.import_module("quillen_strata.rings")
    assert callable(rings.cyclotomic_poly.cache_info)
