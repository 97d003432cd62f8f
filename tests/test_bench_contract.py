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


def test_tracer_readers_read_real_results():
    """_group_key and every COUNTERS/DISTINCT reader, called the way the
    tracer calls them (positional args, result) on real program data."""
    from quillen_strata.groups import build_group, subgroups_up_to_conjugacy
    from quillen_strata.orbit_cat import OrbitDiagram, build_orbit_category, colimit
    from quillen_strata.rings import GF, Poly
    from quillen_strata.spectrum import assemble_strong, assemble_weak, to_document
    from quillen_strata.strata import parse_theory

    tracer = _load_tracer()
    counters = {name: read for name, (_, read) in tracer.COUNTERS.items()}
    G = build_group("sym:3")
    key = tracer.DISTINCT["subgroups_up_to_conjugacy"]((G,))
    assert key == frozenset({(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                             (2, 0, 1), (2, 1, 0)})
    assert tracer._group_key((G,)) == key

    classes = subgroups_up_to_conjugacy(G)
    assert counters["subgroups_up_to_conjugacy"]((G,), classes) == 4

    cat = build_orbit_category(G, classes)
    morphisms = counters["build_orbit_category"]((G, classes), cat)
    assert morphisms == len(list(cat.all_morphisms())) > 0

    points = {i: ("x", "y") for i in range(len(classes))}
    maps = {m: {"x": "x", "y": "y"} for m in cat.all_morphisms()}
    diagram = OrbitDiagram(category=cat, point_sets=points, maps=maps)
    assert len(colimit(diagram)) == 2
    assert counters["colimit"]((diagram,), None) == 2 * len(classes)

    theory = parse_theory("height1:p=2")
    for name, assemble in (("assemble_strong", assemble_strong),
                           ("assemble_weak", assemble_weak)):
        space = assemble(theory, G, "sym:3")
        count = counters[name]((theory, G, "sym:3"), space)
        assert count == len(to_document(space)["points"]) > 0

    poly = Poly.from_ints([1, 0, 1], GF(5))
    assert tracer.DISTINCT["factor"]((poly,)) == (5, poly.coeffs)
    assert tracer._poly_key((poly,)) == (5, (1, 0, 1))
