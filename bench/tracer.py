"""Launcher for one traced job: wrap each layer's entry points, then call cli.run.

    python bench/tracer.py trace  TRACE_FILE ARG...   # spans and counters
    python bench/tracer.py count  TRACE_FILE ARG...   # cProfile call counts only

The wrappers replace each listed public function in its defining module and in
every package module that bound it with ``from .x import``.  A span is
(function, parent span, start, end); time in unwrapped helpers such as Perm
methods or conjugate_set counts toward the calling span.  Spans stay in memory
and are written to TRACE_FILE when the job ends, so stdout is untouched.  The
``count`` mode runs the same job unwrapped under cProfile and records how often
each listed function ran, which the benchmark compares with the span counts.
"""

import json
import sys
import time

LAYERS = {
    "groups": ("build_group", "subgroups_up_to_conjugacy", "weyl",
               "double_cosets", "select_class", "minimal_generators"),
    "orbit_cat": ("build_orbit_category", "colimit"),
    "rings": ("factor", "cyclic_spectrum_ring", "is_irreducible",
              "level_polynomial_P", "divides", "is_separable",
              "reduce_cyclo_mod_p"),
    "strata": ("parse_theory", "theory_family_classes", "stratum",
               "transition_map"),
    "spectrum": ("assemble_strong", "assemble_weak", "serialize"),
    "cli": ("run",),
}


def _group_key(args):
    return frozenset(g.images for g in args[0].elements)


def _poly_key(args):
    return (args[0].dom.q, args[0].coeffs)


# function -> (counter name, value of one call) added after the call returns
COUNTERS = {
    "subgroups_up_to_conjugacy": ("classes", lambda args, result: len(result)),
    "build_orbit_category": ("morphisms", lambda args, result: sum(
        len(h) for h in result.homs.values())),
    "colimit": ("colimit_nodes", lambda args, result: sum(
        len(p) for p in args[0].point_sets.values())),
    "assemble_strong": ("points", lambda args, result: len(result.points)),
    "assemble_weak": ("points", lambda args, result: len(result.points)),
}
# function -> key of its input, for the share of calls on distinct inputs
DISTINCT = {"subgroups_up_to_conjugacy": _group_key, "factor": _poly_key}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "quillen_strata" or name.startswith("quillen_strata.")]


def _originals():
    """[(name, function)] for every listed function."""
    return [(name, getattr(sys.modules["quillen_strata." + layer], name))
            for layer, names in LAYERS.items() for name in names]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent, start, end]
        self.stack = []
        self.counters = {}
        self.keys = {name: set() for name in DISTINCT}

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)
        keyer = DISTINCT.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                cname, value = counter
                self.counters[cname] = self.counters.get(cname, 0) + value(args, result)
            if keyer is not None:
                self.keys[name].add(keyer(args))
            return result

        return wrapper

    def install(self):
        modules = _package_modules()
        for name, fn in _originals():
            wrapper = self.wrap(name, fn)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is fn]:
                    setattr(m, attr, wrapper)

    def dump(self, path):
        from quillen_strata import rings
        counters = dict(self.counters)
        counters["cyclotomic_hits"] = rings.cyclotomic_poly.cache_info().hits
        for name, keys in self.keys.items():
            counters["distinct." + name] = len(keys)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": counters}, fh)


def _profile_counts(argv, path):
    import cProfile
    import pstats

    from quillen_strata import cli
    codes = {(fn.__code__.co_filename, fn.__code__.co_firstlineno,
              fn.__code__.co_name): name for name, fn in _originals()}
    prof = cProfile.Profile()
    try:
        code = prof.runcall(cli.run, argv)
    finally:
        stats = pstats.Stats(prof).stats
        counts = {name: 0 for name in codes.values()}
        for key, (_, ncalls, _, _, _) in stats.items():
            if key in codes:
                counts[codes[key]] = ncalls
        with open(path, "w") as fh:
            json.dump({"calls": counts}, fh)
    return code


def main(argv):
    mode, path, job = argv[0], argv[1], argv[2:]
    if mode == "count":
        return _profile_counts(job, path)
    from quillen_strata import cli
    tracer = Tracer()
    tracer.install()
    try:
        return cli.run(job)
    finally:
        sys.stdout.flush()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
