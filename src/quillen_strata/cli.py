"""Command-line surface.

Commands: spectrum, strata, subgroups, weyl, double-cosets, coequalize,
drinfeld-check, verify.  Parse failures exit 1; domain errors (unsupported
theory/group pairs, bound violations at computation time) exit 2 with a
machine-readable JSON object on stderr.  Output is deterministic: identical
invocations produce byte-identical documents.
"""

import gc
import json
import os
import sys
from types import SimpleNamespace

from .groups import (MAX_DIGITS, GroupError, GroupParseError, build_group,
                     double_cosets, minimal_generators, read_int, select_class,
                     subgroups_up_to_conjugacy, weyl)
from .orbit_cat import DiagramError, coequalize_raw
from .rings import (RingError, divides, is_separable, level_polynomial_P,
                    reduce_cyclo_mod_p)
from .spectrum import assemble_strong, assemble_weak, serialize
from .strata import (TheoryError, UnsupportedTheory, parse_theory, stratum,
                     theory_family_classes)


class CliParseError(Exception):
    pass


def _dump(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(text, path):
    to_stdout = not path or path == "-"
    try:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        if to_stdout:
            # the exit flush would fail again on what is left in the buffer
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliParseError("cannot write output: %s" % exc)


def _class_doc(cls):
    return {
        "order": cls.order,
        "index": cls.index,
        "conjugates": cls.conjugates,
        "normalizer_order": len(cls.normalizer_numbers),
        "centralizer_order": len(cls.centralizer_numbers),
        "abelian": cls.is_abelian(),
        "cyclic": cls.is_cyclic(),
        "generators": [g.cycle_string() for g in minimal_generators(cls)],
    }


def _cmd_subgroups(args):
    G = build_group(args.group)
    classes = subgroups_up_to_conjugacy(G)
    doc = {
        "schema": "quillen-strata/subgroups/1",
        "group": args.group,
        "order": G.order,
        "classes": [_class_doc(c) for c in classes],
    }
    return _dump(doc), 0


def _cmd_weyl(args):
    G = build_group(args.group)
    classes = subgroups_up_to_conjugacy(G)
    cls = select_class(G, classes, args.h)
    w = weyl(cls, args.kind)
    doc = {
        "schema": "quillen-strata/weyl/1",
        "group": args.group,
        "subgroup": _class_doc(cls),
        "kind": w.kind,
        "order": w.order,
        "action_degree": w.quotient.degree,
        "quotient_generators": [q.cycle_string()
                                for q in minimal_generators(w.quotient)],
    }
    return _dump(doc), 0


def _cmd_double_cosets(args):
    G = build_group(args.group)
    classes = subgroups_up_to_conjugacy(G)
    hc = select_class(G, classes, args.h)
    kc = select_class(G, classes, args.k)
    dec = double_cosets(G, hc, kc)
    lhs, rhs = dec.mackey_sides()
    doc = {
        "schema": "quillen-strata/double-cosets/1",
        "group": args.group,
        "h": {"order": hc.order, "index": hc.index},
        "k": {"order": kc.order, "index": kc.index},
        "double_cosets": [
            {"representative": dc.representative.cycle_string(),
             "intersection_order": len(dc.intersection),
             "size": dc.size}
            for dc in dec.pairs],
        "mackey": {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs},
    }
    return _dump(doc), 0


def _cmd_spectrum(args):
    G = build_group(args.group)
    theory = parse_theory(args.theory, prime_bound=args.prime_bound,
                          degree_bound=args.degree_bound)
    if args.mode == "weak":
        space = assemble_weak(theory, G, args.group)
    else:
        space = assemble_strong(theory, G, args.group)
    return serialize(space, args.format), 0


def _cmd_strata(args):
    G = build_group(args.group)
    theory = parse_theory(args.theory, prime_bound=args.prime_bound,
                          degree_bound=args.degree_bound)
    members = theory_family_classes(theory, G)
    out = []
    for cls in members:
        model = stratum(theory, cls)
        out.append({
            "subgroup": {"order": cls.order, "index": cls.index},
            "weyl_kind": model.weyl.kind,
            "points": [{"local_id": pt.local_id, "label": pt.label,
                        "closed": pt.closed, "ring": pt.descriptor.ring,
                        "kind": pt.descriptor.kind}
                       for pt in model.points],
            "internal_edges": [list(e) for e in model.internal_edges],
            "weyl_order": model.weyl.order,
            "orbits": [list(o) for o in model.orbits()],
        })
    doc = {
        "schema": "quillen-strata/strata/1",
        "group": args.group,
        "theory": theory.name,
        "family": theory.family().name,
        "strata": out,
    }
    return _dump(doc), 0


def _cmd_coequalize(args):
    try:
        if args.input and args.input != "-":
            with open(args.input) as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliParseError("cannot read diagram: %s" % exc)
    try:
        objects = [(obj["id"], obj["points"]) for obj in doc["objects"]]
        maps = [(m["src"], m["dst"], m["table"]) for m in doc["maps"]]
    except (KeyError, TypeError) as exc:
        raise CliParseError("bad diagram document: %s" % exc)
    if not all(isinstance(pts, list) for _, pts in objects):
        raise CliParseError("bad diagram document: points must be lists")
    if not all(isinstance(table, dict) for _, _, table in maps):
        raise CliParseError("bad diagram document: map tables must be objects")
    names = [oid for oid, _ in objects] + [pt for _, pts in objects for pt in pts]
    names += [name for src, dst, table in maps for name in (src, dst, *table.values())]
    if not all(isinstance(name, str) for name in names):
        raise CliParseError("bad diagram document: ids and points must be strings")
    if any("|" in oid for oid, _ in objects):  # a class id is <object id>|<point>
        raise CliParseError("bad diagram document: object ids must not contain '|'")
    declared = dict(objects)
    if len(declared) != len(objects):
        raise CliParseError("bad diagram document: object ids must be distinct")
    if not all(len(set(pts)) == len(pts) for _, pts in objects):
        raise CliParseError("bad diagram document: points must be distinct")
    undeclared = [end for src, dst, _ in maps for end in (src, dst)
                  if end not in declared]
    if undeclared:
        raise CliParseError("bad diagram document: map end %r is not an object id"
                            % undeclared[0])
    out = {
        "schema": "quillen-strata/coequalizer/1",
        "classes": [
            {"id": "%s|%s" % cid, "members": [[o, p] for (o, p) in members]}
            for cid, members in coequalize_raw(declared, maps)],
    }
    return _dump(out), 0


def _cmd_drinfeld_check(args):
    p = args.p
    data = level_polynomial_P(p)
    q_cyclo = data.q_over_cyclo()
    p_div_q, quot1 = divides(data.P, q_cyclo)
    q_div_p, quot2 = divides(q_cyclo, data.P)
    quotient_is_one = p_div_q and q_div_p and quot1.is_one() and quot2.is_one()
    p_mod = reduce_cyclo_mod_p(data.P, p)
    doc = {
        "schema": "quillen-strata/drinfeld/1",
        "p": p,
        "P": data.P.pretty(),
        "Q": data.Q_poly.pretty(),
        "Q_coeffs": list(data.Q_poly.coeffs),
        "P_divides_Q": p_div_q,
        "Q_divides_P": q_div_p,
        "quotient_is_one": quotient_is_one,
        "separable_char0": is_separable(q_cyclo),
        "mod_p_image": p_mod.pretty(),
        "separable_mod_p": is_separable(p_mod),
    }
    return _dump(doc), 0


def _cmd_verify(args):
    from . import checks    # with the corpus, only verify needs it
    results = checks.run_all()
    failed = [r for r in results if not r.ok]
    lines = []
    for r in results:
        lines.append("%-32s %s  %6.2fs  %s"
                     % (r.name, "ok  " if r.ok else "FAIL", r.seconds, r.detail))
    lines.append("%d/%d suites passed" % (len(results) - len(failed), len(results)))
    return "\n".join(lines) + "\n", 3 if failed else 0


def _int(text):
    """int(text) for an option of type int, whatever PYTHONINTMAXSTRDIGITS
    is: past MAX_DIGITS characters a number is a parse error, and any other
    text argparse's invalid int value."""
    if len(text) > MAX_DIGITS and not text.isdecimal():
        raise ValueError(text)
    return read_int(text, CliParseError)


_int.__name__ = "int"  # the type argparse names in its messages

_GROUP = ("--group", {"required": True, "help": "group DSL string"})
_THEORY = [
    ("--theory", {"required": True,
                  "help": "height1:p=P | ku | hz:p=P | modp:q=Q,deg=D | kr"}),
    ("--prime-bound", {"type": _int, "default": None,
                       "help": "truncation bound for infinite spectra (default 19)"}),
    ("--degree-bound", {"type": _int, "default": None,
                        "help": "degree bound for homogeneous strata (default 1)"})]
_SELECTOR = {"required": True,
             "help": "subgroup selector: ORDER:INDEX, gens:<cycles>, or A<n>"}
_OUTPUT_PATH = ("--output", "-o", {"default": "-", "help": "output path (default stdout)"})
_OUTPUT = ("--output", "-o", {"default": "-"})

# command -> (help, handler, [(*option strings, add_argument keywords)])
COMMANDS = {
    "spectrum": ("assemble a stratified spectrum", _cmd_spectrum, [
        _GROUP, *_THEORY, _OUTPUT_PATH,
        ("--mode", {"choices": ("strong", "weak"), "default": "strong"}),
        ("--format", {"choices": ("json", "dot", "table"), "default": "json"})]),
    "strata": ("per-subgroup strata with Weyl actions", _cmd_strata,
               [_GROUP, *_THEORY, _OUTPUT_PATH]),
    "subgroups": ("subgroup classes up to conjugacy", _cmd_subgroups,
                  [_GROUP, _OUTPUT_PATH]),
    "weyl": ("Weyl group of a subgroup class", _cmd_weyl, [
        _GROUP, ("--h", _SELECTOR), _OUTPUT_PATH,
        ("--kind", {"choices": ("ordinary", "global", "quillen"),
                    "default": "ordinary"})]),
    "double-cosets": ("double coset decomposition H\\G/K", _cmd_double_cosets,
                      [_GROUP, ("--h", _SELECTOR), ("--k", _SELECTOR), _OUTPUT_PATH]),
    "coequalize": ("colimit of an explicit point-set diagram", _cmd_coequalize, [
        ("--input", "-i", {"default": "-", "help": "diagram JSON (default stdin)"}),
        _OUTPUT]),
    "drinfeld-check": ("torsion polynomial vs p-series divisibility report",
                       _cmd_drinfeld_check,
                       [("--p", {"type": _int, "required": True}), _OUTPUT]),
    "verify": ("run every invariant suite over the corpus", _cmd_verify, [
        ("--all", {"action": "store_true", "default": True,
                   "help": "run all suites (default)"}), _OUTPUT]),
}


def make_parser():
    import argparse     # with gettext and locale, for what table_parse defers

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise CliParseError(message)

    parser = _Parser(prog="quillen-strata",
                     description="Stratified prime spectra for finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, fn, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for *flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def table_parse(argv):
    """The namespace make_parser().parse_args(argv) returns, read straight off
    COMMANDS; None when argv is not plainly well formed, so that argparse
    gives its help, messages and exit codes.  Plainly well formed: a command,
    then each option string in full, with its value as the next token or
    after `=` unless it is a flag; no value begins with `-`, each converts
    and is one of its choices, and every required option is given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, fn, arguments = COMMANDS[argv[0]]
    values = {"command": argv[0]}
    options = {}
    for *flags, kwargs in arguments:
        dest = flags[0].lstrip("-").replace("-", "_")   # each row lists --long first
        values[dest] = kwargs.get("default")
        options.update(dict.fromkeys(flags, (dest, kwargs)))
    values["fn"] = fn
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options:
            return None
        dest, kwargs = options[flag]
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, "-")   # a missing value defers too
            if value.startswith("-"):
                return None
            if "type" in kwargs:
                try:
                    value = kwargs["type"](value)
                except (ValueError, CliParseError):
                    return None     # for argparse to report
            if value not in kwargs.get("choices", (value,)):
                return None
        values[dest] = value
        given.add(dest)
    if any(kwargs.get("required") and dest not in given
           for dest, kwargs in options.values()):
        return None
    return SimpleNamespace(**values)


def run(argv):
    threads = os.environ.get("QUILLEN_STRATA_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            _error_json("parse", "QUILLEN_STRATA_THREADS must be a positive integer")
            return 1
        # evaluation is sequential, which respects any positive cap
    args = table_parse(argv)
    if args is None:
        try:
            args = make_parser().parse_args(argv)
        except CliParseError as exc:
            _error_json("parse", str(exc))
            return 1
    try:
        text, code = args.fn(args)
        _emit(text, args.output)
        return code
    except (GroupParseError, TheoryError, CliParseError) as exc:
        _error_json("parse", str(exc))
        return 1
    except (UnsupportedTheory, RingError, DiagramError, GroupError) as exc:
        _error_json("domain", str(exc))
        return 2


def _error_json(kind, message):
    sys.stderr.write(json.dumps(
        {"error": {"type": kind, "message": message}}, sort_keys=True) + "\n")


def main():
    code = run(sys.argv[1:])
    # finalization's collections then skip everything alive at exit; not in
    # run(), whose in-process callers keep collecting their own objects
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
