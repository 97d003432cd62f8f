import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quillen_strata.cli import (COMMANDS, CliParseError, make_parser, run,
                                table_parse)
from quillen_strata.groups import build_group
from quillen_strata.spectrum import check_agreement, deserialize
from quillen_strata.strata import THEORIES


def invoke(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json(capsys):
    code, out, err = invoke(
        ["spectrum", "--group", "cyclic:4", "--theory", "height1:p=2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "quillen-strata/1"
    assert len(doc["points"]) == 4
    assert len(doc["edges"]) == 3


def test_spectrum_dot_fig1(capsys):
    code, out, _ = invoke(
        ["spectrum", "--group", "cyclic:4", "--theory", "height1:p=2",
         "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph spectrum {")
    assert out.count("->") == 3


def test_spectrum_weak_mode(capsys):
    code, out, _ = invoke(
        ["spectrum", "--group", "sym:3", "--theory", "height1:p=3",
         "--mode", "weak"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["mode"] == "weak"
    assert len(doc["points"]) == 3


def test_deterministic_output(capsys):
    args = ["spectrum", "--group", "dihedral:4", "--theory", "height1:p=2"]
    _, out1, _ = invoke(args, capsys)
    _, out2, _ = invoke(args, capsys)
    assert out1 == out2


def test_subgroups_echo(capsys):
    code, out, _ = invoke(["subgroups", "--group", "sym:3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [c["order"] for c in doc["classes"]] == [1, 2, 3, 6]
    assert all("normalizer_order" in c for c in doc["classes"])


def test_weyl_command(capsys):
    code, out, _ = invoke(
        ["weyl", "--group", "sym:3", "--h", "3:0", "--kind", "quillen"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2 and doc["kind"] == "quillen"


def test_double_cosets_a3(capsys):
    code, out, _ = invoke(
        ["double-cosets", "--group", "sym:3", "--h", "A3", "--k", "A3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["double_cosets"]) == 2
    assert doc["mackey"]["ok"]


def test_coequalize_from_file(tmp_path, capsys):
    diagram = {
        "objects": [{"id": "a", "points": ["x", "y"]},
                    {"id": "b", "points": ["z"]}],
        "maps": [{"src": "a", "dst": "b", "table": {"x": "z", "y": "z"}},
                 {"src": "a", "dst": "b", "table": {"x": "z", "y": "z"}}],
    }
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(diagram))
    code, out, _ = invoke(["coequalize", "--input", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["classes"]) == 1


def test_drinfeld_check(capsys):
    code, out, _ = invoke(["drinfeld-check", "--p", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["P_divides_Q"] and doc["Q_divides_P"] and doc["quotient_is_one"]
    assert doc["separable_char0"] and not doc["separable_mod_p"]


def test_parse_error_exit_1(capsys):
    code, out, err = invoke(["spectrum", "--group", "bogus:1",
                             "--theory", "height1:p=2"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "parse"


def test_unknown_flag_exit_1(capsys):
    code, _, err = invoke(["spectrum", "--group", "cyclic:2",
                           "--theory", "height1:p=2", "--bogus"], capsys)
    assert code == 1


def test_domain_error_exit_2(capsys):
    code, _, err = invoke(["spectrum", "--group", "sym:3", "--theory",
                           "hz:p=2"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "domain"
    code, _, err = invoke(["spectrum", "--group", "cyclic:4", "--theory", "kr"],
                          capsys)
    assert code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = invoke(["spectrum", "--group", "cyclic:2", "--theory",
                           "ku", "--prime-bound", "7", "-o", str(target)], capsys)
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["meta"]["bounds"]["prime"] == 7


def test_strata_command(capsys):
    code, out, _ = invoke(["strata", "--group", "sym:3", "--theory",
                           "height1:p=3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "cyclic-3"
    orders = [s["subgroup"]["order"] for s in doc["strata"]]
    assert orders == [1, 3]
    assert doc["strata"][1]["weyl_order"] == 2


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(argv, timeout=None, env=None, **options):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    options = dict({"capture_output": True, "text": True}, **options)
    return subprocess.run([sys.executable] + argv, env=env, timeout=timeout,
                          **options)


def run_subprocess(args, timeout=None):
    return run_python(["-m", "quillen_strata"] + args, timeout)


def test_cli_import_skips_dataclass_machinery():
    # every CLI run pays for its imports; dataclasses (with inspect) and the
    # code it generates cost more than the package's own module bodies, and
    # fractions (with decimal) serves only Q and the cyclotomic fields
    proc = run_python(["-c", "import sys, quillen_strata.cli; print(sorted("
                       "{'dataclasses', 'inspect', 'fractions', 'decimal'}"
                       " & set(sys.modules)))"])
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


# runs one job through main() and prints its exit code and loaded modules
MAIN_THEN_MODULES = """
import sys
from quillen_strata import cli
sys.argv[1:] = %r
try:
    cli.main()
except SystemExit as exc:
    print(exc.code, *sorted(sys.modules), file=sys.stderr)
"""


def test_cli_import_loads_every_traced_layer_and_not_verify():
    # bench/tracer.py reads each LAYERS module from sys.modules right after
    # importing the CLI; checks, with the corpus, serve only the verify command,
    # and argparse (with gettext and locale) only help and malformed argv
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = {"quillen_strata." + layer for layer in tracer.LAYERS}
    unused = {"quillen_strata.checks", "argparse", "gettext", "locale",
              "__future__"}
    proc = run_python(["-c", "import sys, quillen_strata.cli; print(' '.join("
                       "sorted(sys.modules)))"])
    assert proc.returncode == 0
    loaded = set(proc.stdout.split())
    assert layers <= loaded
    assert not unused & loaded
    job = ["spectrum", "--group", "sym:3", "--theory", "height1:p=3"]
    proc = run_python(["-c", MAIN_THEN_MODULES % job])
    assert json.loads(proc.stdout)["meta"]["theory"] == "height1:p=3"
    code, *loaded = proc.stderr.split()
    assert code == "0"
    assert layers <= set(loaded)
    assert not unused & set(loaded)


def test_console_script_subprocess():
    proc = run_subprocess(["spectrum", "--group", "cyclic:2", "--theory", "kr"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["meta"]["theory"] == "kr"


def test_threads_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("QUILLEN_STRATA_THREADS", "zebra")
    code, _, err = invoke(["drinfeld-check", "--p", "2"], capsys)
    assert code == 1
    monkeypatch.setenv("QUILLEN_STRATA_THREADS", "4")
    code, out, _ = invoke(["drinfeld-check", "--p", "2"], capsys)
    assert code == 0


def _assert_parse_error(code, out, err):
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "parse"


def test_coequalize_malformed_json(tmp_path, capsys):
    path = tmp_path / "diagram.json"
    path.write_text("{not json")
    _assert_parse_error(*invoke(["coequalize", "--input", str(path)], capsys))


def test_coequalize_deep_json(tmp_path, capsys):
    # json's decoder recurses once per nesting level
    path = tmp_path / "diagram.json"
    deep = "[" * 100000 + "]" * 100000
    valid = {"objects": [{"id": "a", "points": ["x"]}], "maps": []}
    for text in (deep[:100000], json.dumps(valid)[:-1] + ', "extra": %s}' % deep):
        path.write_text(text)
        code, out, err = invoke(["coequalize", "--input", str(path)], capsys)
        _assert_parse_error(code, out, err)
        assert json.loads(err)["error"]["message"].startswith("cannot read diagram")


def test_nested_product_spec_fails_fast(capsys):
    spec = "product:" * 20 + "x".join(["cyclic:1"] * 20) + "xbad"
    for group in (spec, (spec * 30)[:10000]):
        start = time.perf_counter()
        code, out, err = invoke(["subgroups", "--group", group], capsys)
        assert time.perf_counter() - start < 1
        _assert_parse_error(code, out, err)


def test_coequalize_missing_input(tmp_path, capsys):
    path = tmp_path / "absent.json"
    _assert_parse_error(*invoke(["coequalize", "--input", str(path)], capsys))


def test_unwritable_output(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.json"
    _assert_parse_error(*invoke(["drinfeld-check", "--p", "3", "-o", str(target)],
                                capsys))


def test_bound_below_one_exit_1(capsys):
    _assert_parse_error(*invoke(["spectrum", "--group", "cyclic:3", "--theory",
                                 "ku", "--prime-bound", "-5"], capsys))
    _assert_parse_error(*invoke(["spectrum", "--group", "elem-abelian:2^2",
                                 "--theory", "modp:q=2,deg=0"], capsys))


def test_bound_exceeded_exit_2(capsys):
    for group in ("sym:9", "product:sym:9xcyclic:2"):
        code, out, err = invoke(["subgroups", "--group", group], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "domain"


def test_modp_degree_bound_exit_2_without_enumerating(capsys):
    code, out, err = invoke(["spectrum", "--group", "elem-abelian:2^2",
                             "--theory", "modp:q=8,deg=7"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "domain"


def test_prime_bound_cap_for_every_theory(capsys):
    for group in ("cyclic:3", "sym:3"):
        args = ["spectrum", "--group", group, "--theory", "ku", "--prime-bound"]
        code, out, err = invoke(args + ["1001"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "domain"
        code, out, _ = invoke(args + ["1000"], capsys)
        assert code == 0
        assert json.loads(out)["meta"]["bounds"]["prime"] == 1000


# specs of every theory record, with primes on both sides of the bounds below
TABLE_SPECS = {"height1": ("height1:p=2", "height1:p=3"), "ku": ("ku",),
               "hz": ("hz:p=2", "hz:p=3", "hz:p=5"), "kr": ("kr",),
               "modp": ("modp:q=4,deg=2", "modp:q=3,deg=1")}
TABLE_GROUPS = ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:8", "cyclic:9",
                "cyclic:25", "sym:3", "elem-abelian:2^2", "elem-abelian:2^3",
                "dihedral:4", "alt:4")


def test_table_specs_cover_every_theory():
    assert set(TABLE_SPECS) == set(THEORIES)


@pytest.mark.parametrize("kind", sorted(TABLE_SPECS))
def test_every_theory_gives_a_document_or_a_json_error(kind, capsys):
    for theory in TABLE_SPECS[kind]:
        for group in TABLE_GROUPS:
            for bound in ("1", "2", "19"):
                common = ["--group", group, "--theory", theory, "--prime-bound", bound]
                for argv in (["spectrum", *common, "--mode", "strong"],
                             ["spectrum", *common, "--mode", "weak"], ["strata", *common]):
                    code, out, err = invoke(argv, capsys)
                    if code:
                        error = json.loads(err)["error"]
                        assert code in (1, 2) and out == "", argv
                        assert error == {"type": ("parse", "domain")[code - 1],
                                         "message": error["message"]}, argv
                        continue
                    assert code == 0 and err == "", argv
                    doc = json.loads(out)
                    if argv[0] == "spectrum":
                        ids = {pt["id"] for pt in doc["points"]}
                        assert all(e["from"] in ids and e["to"] in ids
                                   for e in doc["edges"]), argv


def test_ku_cyclic_order_above_64_strong_and_weak_agree(capsys):
    docs = []
    for mode in ("strong", "weak"):
        code, out, _ = invoke(["spectrum", "--group", "product:cyclic:8xcyclic:9",
                               "--theory", "ku", "--mode", mode], capsys)
        assert code == 0
        docs.append(deserialize(out))
    assert check_agreement(*docs).isomorphic


def test_alternating_selector_degree(capsys):
    code, out, _ = invoke(["weyl", "--group", "sym:3", "--h", "A3"], capsys)
    assert code == 0 and json.loads(out)["subgroup"]["order"] == 3
    _assert_parse_error(*invoke(["weyl", "--group", "sym:3", "--h", "A4"], capsys))


def test_cycle_text_outside_parentheses_is_a_parse_error(capsys):
    for spec in ("perm:(0 1 2", "perm:0 1 2", "perm:(0 1)(2", "perm:((0 1))"):
        _assert_parse_error(*invoke(["subgroups", "--group", spec], capsys))
    for sel in ("gens:(0 1", "gens:0 1", "gens:(0 1)(2", "gens:(0 1);2"):
        _assert_parse_error(*invoke(["weyl", "--group", "sym:3", "--h", sel], capsys))
    code, out, _ = invoke(["subgroups", "--group", "perm:(0 1 2)(3 4);(5 6)"], capsys)
    assert code == 0 and json.loads(out)["order"] == 12
    code, out, _ = invoke(["weyl", "--group", "sym:3", "--h", "gens:(0,1)"], capsys)
    assert code == 0 and json.loads(out)["subgroup"]["order"] == 2


def test_point_in_two_cycles_is_a_parse_error(capsys):
    _assert_parse_error(*invoke(["subgroups", "--group", "perm:(0 1)(0 2)"],
                                capsys))
    _assert_parse_error(*invoke(["weyl", "--group", "sym:3", "--h",
                                 "gens:(0 1)(0 2)"], capsys))


@pytest.mark.parametrize("group", ["sym:4", "alt:5",
                                   "perm:(0 1 4 5)(2 3 6 7);(0 2 4 6)(1 7 5 3)"])
def test_printed_generators_select_their_class(group, capsys):
    # the trivial class prints its generator as (), the identity
    code, out, _ = invoke(["subgroups", "--group", group], capsys)
    assert code == 0
    for c in json.loads(out)["classes"]:
        sel = "gens:" + ";".join(c["generators"])
        code, out, _ = invoke(["weyl", "--group", group, "--h", sel], capsys)
        assert code == 0 and json.loads(out)["subgroup"] == c, sel


def test_an_empty_cycle_is_the_identity(capsys):
    for spec in ("perm:()", "perm:();(0 1)"):
        docs = []
        for text in (spec, spec.replace("()", "( )")):
            code, out, _ = invoke(["subgroups", "--group", text], capsys)
            assert code == 0
            docs.append(dict(json.loads(out), group=None))
        assert docs[0] == docs[1], spec


@pytest.mark.parametrize("args,code,kind,message", [
    (["weyl", "--group", "sym:3", "--h", "gens:(7)"], 1, "parse", "point 7 out of range"),
    (["weyl", "--group", "sym:3", "--h", "gens:(0 1);(5)"], 1, "parse",
     "point 5 out of range"),
    (["subgroups", "--group", "perm:(0 1)(99)"], 2, "domain",
     "degree 100 exceeds DSL bound 64"),
    (["subgroups", "--group", "perm:(0 1)(1)"], 1, "parse",
     "point 1 in two cycles of one generator"),
])
def test_a_one_point_cycle_is_checked(args, code, kind, message, capsys):
    got, out, err = invoke(args, capsys)
    assert (got, out) == (code, "")
    assert json.loads(err)["error"] == {"message": message, "type": kind}


def test_a_one_point_cycle_counts_in_the_degree(capsys):
    # (9) fixes 9, so the group acts on 0..9 and gens:(9) is the identity
    assert build_group("perm:(0 1)(9)").degree == 10
    code, out, _ = invoke(["weyl", "--group", "perm:(0 1)(9)", "--h", "gens:(9)"], capsys)
    assert code == 0 and json.loads(out)["subgroup"]["order"] == 1


BIG = "99999999999999999999"
M61 = str(2 ** 61 - 1)  # a prime: trial division up to its square root never ends


@pytest.mark.parametrize("args", [
    ["spectrum", "--group", "elem-abelian:2^2", "--theory", "modp:q=2,deg=" + BIG],
    ["spectrum", "--group", "elem-abelian:2^2", "--theory", "modp:q=2",
     "--degree-bound", BIG],
    ["drinfeld-check", "--p", M61],
    ["strata", "--group", "cyclic:2", "--theory", "height1:p=" + M61],
    ["strata", "--group", "cyclic:2", "--theory", "hz:p=" + M61],
    ["subgroups", "--group", "elem-abelian:%s^1" % M61],
    ["subgroups", "--group", "elem-abelian:2^" + BIG],
    ["spectrum", "--group", "elem-abelian:2^2", "--theory", "modp:q=" + M61],
])
def test_huge_numbers_exit_2_before_the_expensive_work(args):
    proc = run_subprocess(args, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "domain"


HUGE = "1" * 5000  # more digits than the package's cap of 640

TOO_LONG = [
    ["spectrum", "--group", "cyclic:2", "--theory", "height1:p=" + HUGE],
    ["spectrum", "--group", "cyclic:2", "--theory", "modp:q=%s,deg=1" % HUGE],
    ["spectrum", "--group", "cyclic:2", "--theory", "modp:q=4,deg=" + HUGE],
    ["subgroups", "--group", "cyclic:" + HUGE],
    ["subgroups", "--group", "dihedral:" + HUGE],
    ["subgroups", "--group", "sym:" + HUGE],
    ["subgroups", "--group", "alt:" + HUGE],
    ["subgroups", "--group", "elem-abelian:%s^2" % HUGE],
    ["subgroups", "--group", "elem-abelian:2^" + HUGE],
    ["subgroups", "--group", "perm:(0 %s)" % HUGE],
    ["weyl", "--group", "sym:3", "--h", "%s:0" % HUGE],
    ["weyl", "--group", "sym:3", "--h", "2:" + HUGE],
    ["weyl", "--group", "sym:3", "--h", "A" + HUGE],
    ["weyl", "--group", "sym:3", "--h", "gens:(0 %s)" % HUGE],
]


@pytest.mark.parametrize("args", TOO_LONG)
def test_numbers_too_long_to_convert_are_parse_errors(args, capsys):
    _assert_parse_error(*invoke(args, capsys))


# runs each command line of stdin in-process; prints [exit code, stdout, stderr]s
RUN_EACH = """
import contextlib, io, json, sys
from quillen_strata.cli import run
results = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        results.append([run(argv), out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_the_digit_cap_ignores_the_interpreter_limit(monkeypatch):
    # 640 digits is the least limit PYTHONINTMAXSTRDIGITS takes, so int()
    # converts every number the package's own cap lets through
    cases = TOO_LONG + [
        ["subgroups", "--group", "cyclic:" + "1" * 700],
        ["spectrum", "--group", "cyclic:2", "--theory", "ku", "--prime-bound", HUGE],
        ["drinfeld-check", "--p=" + "1" * 700]]
    monkeypatch.delenv("PYTHONINTMAXSTRDIGITS", raising=False)
    outcomes = []
    for env in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}, {"PYTHONINTMAXSTRDIGITS": "640"}):
        proc = run_python(["-c", RUN_EACH], env=env, input=json.dumps(cases))
        assert proc.returncode == 0, proc.stderr
        outcomes.append(json.loads(proc.stdout))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    for (code, out, err), argv in zip(outcomes[0], cases):
        assert code == 1 and out == "", argv
        assert json.loads(err)["error"]["message"].endswith(" digits is too long")


def _coequalize(doc, tmp_path, capsys):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(doc))
    return invoke(["coequalize", "--input", str(path)], capsys)


def test_coequalize_rejects_a_list_point(tmp_path, capsys):
    doc = {"objects": [{"id": "a", "points": [["x"]]}], "maps": []}
    _assert_parse_error(*_coequalize(doc, tmp_path, capsys))


def test_coequalize_rejects_mixed_int_and_str_points(tmp_path, capsys):
    doc = {"objects": [{"id": "a", "points": ["x", 1]}], "maps": []}
    _assert_parse_error(*_coequalize(doc, tmp_path, capsys))


def test_coequalize_rejects_mixed_int_and_str_ids(tmp_path, capsys):
    doc = {"objects": [{"id": "a", "points": ["x"]}, {"id": 1, "points": ["y"]}],
           "maps": []}
    _assert_parse_error(*_coequalize(doc, tmp_path, capsys))


def test_coequalize_rejects_non_string_src_and_dst(tmp_path, capsys):
    objects = [{"id": "a", "points": ["x"]}]
    for end in ("src", "dst"):
        m = {"src": "a", "dst": "a", "table": {"x": "x"}}
        m[end] = 1
        _assert_parse_error(*_coequalize({"objects": objects, "maps": [m]},
                                         tmp_path, capsys))


def test_coequalize_rejects_non_string_table_values(tmp_path, capsys):
    objects = [{"id": "a", "points": ["x"]}]
    for value in (["x"], 1, None):
        m = {"src": "a", "dst": "a", "table": {"x": value}}
        _assert_parse_error(*_coequalize({"objects": objects, "maps": [m]},
                                         tmp_path, capsys))


def test_coequalize_rejects_a_table_that_is_not_an_object(tmp_path, capsys):
    objects = [{"id": "a", "points": ["x"]}]
    for table in ("xx", ["xx"], [["x", "x"]]):
        m = {"src": "a", "dst": "a", "table": table}
        _assert_parse_error(*_coequalize({"objects": objects, "maps": [m]},
                                         tmp_path, capsys))


def test_coequalize_rejects_a_repeated_object_id(tmp_path, capsys):
    doc = {"objects": [{"id": "a", "points": ["x"]}, {"id": "a", "points": ["y"]}],
           "maps": []}
    _assert_parse_error(*_coequalize(doc, tmp_path, capsys))


def test_coequalize_rejects_a_bar_in_an_object_id(tmp_path, capsys):
    # a class id is <object id>|<point>, so "a|b" with point "c" and "a" with
    # point "b|c" would give two classes named "a|b|c"
    doc = {"objects": [{"id": "a|b", "points": ["c"]}, {"id": "a", "points": ["b|c"]}],
           "maps": []}
    code, out, err = _coequalize(doc, tmp_path, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {
        "type": "parse", "message": "bad diagram document: object ids must not contain '|'"}}


def test_coequalize_rejects_a_point_repeated_in_one_object(tmp_path, capsys):
    doc = {"objects": [{"id": "a", "points": ["x", "x"]}], "maps": []}
    _assert_parse_error(*_coequalize(doc, tmp_path, capsys))


def test_coequalize_rejects_points_that_are_not_a_list(tmp_path, capsys):
    for points in ("xy", {"x": "y"}):
        doc = {"objects": [{"id": "a", "points": points}], "maps": []}
        _assert_parse_error(*_coequalize(doc, tmp_path, capsys))


def test_coequalize_rejects_a_map_end_that_is_no_object(tmp_path, capsys):
    objects = [{"id": "a", "points": ["x"]}]
    for table in ({}, {"x": "x"}):
        for end in ("src", "dst"):
            m = {"src": "a", "dst": "a", "table": table}
            m[end] = "q"
            code, out, err = _coequalize({"objects": objects, "maps": [m]},
                                         tmp_path, capsys)
            _assert_parse_error(code, out, err)
            assert json.loads(err)["error"]["message"] == (
                "bad diagram document: map end 'q' is not an object id")


@pytest.mark.parametrize("table, message", [
    ({"q": "x"}, "map 'a' -> 'b' sends 'q', which is not a point of 'a'"),
    ({"x": "q"}, "map 'a' -> 'b' sends 'x' to 'q', which is not a point of 'b'"),
])
def test_coequalize_names_a_missing_map_point(table, message, tmp_path, capsys):
    doc = {"objects": [{"id": "a", "points": ["x"]}, {"id": "b", "points": ["x"]}],
           "maps": [{"src": "a", "dst": "b", "table": table}]}
    code, out, err = _coequalize(doc, tmp_path, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"type": "domain", "message": message}}


# argv lists on which table_parse must agree with argparse
PARSES = [
    ["spectrum", "--gro", "cyclic:4", "--theory", "ku"],
    ["spectrum", "--group=cyclic:4", "--theory=height1:p=2", "--mode", "weak",
     "--format", "dot", "-o", "-"],
    ["spectrum", "--group", "cyclic:4", "--theory", "ku", "--prime-bound", "7",
     "--degree-bound", "2", "--output", "doc.json"],
    ["strata", "--gro", "sym:3", "--the", "height1:p=3", "-o", "-"],
    ["subgroups", "--group=sym:3"],
    ["weyl", "--gr", "sym:3", "--h=2:0", "--kind", "quillen"],
    ["double-cosets", "--group", "sym:3", "--h", "2:0", "--k", "3:0", "-o", "-"],
    ["coequalize", "-i", "diagram.json", "-o", "-"],
    ["coequalize"],
    ["drinfeld-check", "--p=5", "-o", "out.json"],
    ["verify", "--all"],
    ["verify"],
]
PARSE_ERRORS = [
    ["spectrum", "--theory", "ku"],
    ["double-cosets", "--group", "sym:3", "--h", "2:0"],
    ["subgroups", "--group"],
    ["spectrum", "--group", "cyclic:4", "--theory", "ku", "--mode", "medium"],
    ["spectrum", "--group", "cyclic:4", "--theory", "ku", "--format", "xml"],
    ["weyl", "--group", "sym:3", "--h", "2:0", "--kind", "normal"],
    ["spectrum", "--group", "cyclic:4", "--theory", "ku", "--prime-bound", "ten"],
    ["drinfeld-check", "--p", "x"],
    ["subgroups", "--group", "sym:3", "--bogus"],
    ["subgroups", "--group", "sym:3", "extra"],
    [],
    ["bogus"],
]
HELPS = [[name, "-h"] for name in COMMANDS] + [["-h"]]


def _parse(argv):
    """argparse's outcome: the namespace, the error message, or the exit with
    what it printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "ok", vars(make_parser().parse_args(argv))
    except CliParseError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def _assert_table_parses_like_argparse(argv):
    expected = _parse(argv)
    args = table_parse(argv)
    assert args is None or ("ok", vars(args)) == expected
    return args, expected


@pytest.mark.parametrize("argv, outcome", [(a, "ok") for a in PARSES]
                         + [(a, "error") for a in PARSE_ERRORS]
                         + [(a, "exit") for a in HELPS])
def test_one_command_parser_parses_like_the_full_one(argv, outcome):
    # the one-command parser is table_parse: one command's rows of COMMANDS
    _, expected = _assert_table_parses_like_argparse(argv)
    assert expected[0] == outcome


def test_table_parse_takes_every_benchmark_job(monkeypatch):
    # a benchmark job that fell back to argparse would pay its import again
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    jobs = importlib.import_module("jobs")
    argvs = [job.argv for workload in jobs.WORKLOADS for seed in (1, 2)
             for batch in jobs.rounds(workload, seed) for job in batch]
    assert len(argvs) > 100
    for argv in argvs:
        args, _ = _assert_table_parses_like_argparse(list(argv))
        assert args is not None, argv


_VALUES = ["-", "-5", "", "a b", "5" * 5000, "7", "sym:3", "-o", "--group"]
_FORMS = ["exact"] * 4 + ["equals"] * 2 + ["prefix", "alone", "help"]


@st.composite
def _argv(draw):
    """A command line, and whether argparse must read each token as written:
    options in full, values that do not begin with `-`, no help."""
    command = draw(st.sampled_from(sorted(COMMANDS) + ["bogus"]))
    arguments = COMMANDS.get(command, ("", "", []))[2]
    options = [(flag, kwargs) for *flags, kwargs in arguments + [("--bogus", {})]
               for flag in flags]
    pieces = [[flags[0], "7"] for *flags, kwargs in arguments
              if kwargs.get("required") and draw(st.integers(0, 5))]
    plain = True
    for _ in range(draw(st.integers(0, 4))):
        flag, kwargs = draw(st.sampled_from(options))
        value = draw(st.sampled_from(list(kwargs.get("choices", ())) + _VALUES))
        form = draw(st.sampled_from(_FORMS))
        if form == "prefix":
            pieces.append([flag[:draw(st.integers(2, max(2, len(flag) - 1)))], value])
            plain = False
        elif form == "help":
            pieces.append([draw(st.sampled_from(["-h", "--help"]))])
            plain = False
        elif form == "alone":
            # argparse may take the next token as its value, even "--x=a b"
            pieces.append([flag])
            plain = plain and kwargs.get("action") == "store_true"
        else:
            pieces.append(["%s=%s" % (flag, value)] if form == "equals"
                          else [flag, value])
            plain = plain and not value.startswith("-")
    pieces = draw(st.permutations(pieces))
    return [command] + [token for piece in pieces for token in piece], plain


@settings(max_examples=400, deadline=None)
@given(_argv())
@example((["verify", "--all=x"], True))
@example((["subgroups", "--group=", "-o="], True))
@example((["subgroups", "--group", "a=b", "-o=x"], True))
@example((["drinfeld-check", "--p", "-5"], False))
@example((["drinfeld-check", "--p", "5", "--", "-o", "x"], False))
def test_table_parse_agrees_with_argparse(case):
    argv, plain = case
    args, expected = _assert_table_parses_like_argparse(argv)
    if plain and expected[0] == "ok":
        assert args is not None, argv


BIG_DOCUMENT = ["spectrum", "--group", "cyclic:42", "--theory", "ku",
                "--prime-bound", "200"]


# stdout is block-buffered unless PYTHONUNBUFFERED is a non-empty string
BUFFERING = [{"PYTHONUNBUFFERED": ""}, {"PYTHONUNBUFFERED": "1"}]


@pytest.mark.parametrize("env", BUFFERING)
def test_main_writes_what_run_writes(env, tmp_path, capsys):
    code, out, err = invoke(BIG_DOCUMENT, capsys)
    assert code == 0 and err == "" and len(out) > 100000
    out = out.encode()
    command = ["-m", "quillen_strata"] + BIG_DOCUMENT
    proc = run_python(command, env=env, text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, b"")
    target = tmp_path / "doc.json"
    proc = run_python(command + ["-o", str(target)], env=env, text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert target.read_bytes() == out


@pytest.mark.parametrize("args, code", [
    (["spectrum", "--group", "cyclic:4"], 1),
    (["spectrum", "--group", "cyclic:4", "--theory", "kr"], 2),
])
def test_main_error_exit_codes(args, code, capsys):
    result = invoke(args, capsys)
    assert result[:2] == (code, "")
    proc = run_subprocess(args)
    assert (proc.returncode, proc.stdout, proc.stderr) == result
    err = result[2]
    assert json.loads(err)["error"]["type"] == ("parse", "domain")[code - 1]


def test_only_main_freezes_the_heap(capsys):
    before = gc.get_freeze_count()
    invoke(["subgroups", "--group", "sym:3"], capsys)
    assert gc.get_freeze_count() == before
    # main() freezes before it exits, and atexit handlers still run
    proc = run_python(["-c", "import atexit, gc, sys; from quillen_strata import cli; "
                       "atexit.register(lambda: print(gc.get_freeze_count() > 0, "
                       "file=sys.stderr)); sys.argv[1:] = ['drinfeld-check', '--p', '2']; "
                       "cli.main()"])
    assert (proc.returncode, proc.stderr) == (0, "True\n")
    assert json.loads(proc.stdout)["p"] == 2


@pytest.mark.parametrize("env", BUFFERING)
@pytest.mark.parametrize("args", [["spectrum", "--group", "cyclic:2", "--theory", "kr"],
                                  BIG_DOCUMENT])
def test_closed_stdout_is_an_output_error(args, env):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_python(["-m", "quillen_strata"] + args, env=env,
                          capture_output=False, stdout=write_end,
                          stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "parse"
    assert error["message"].startswith("cannot write output: ")
