import ast
import pathlib
import time

from quillen_strata import checks, spectrum
from quillen_strata.checks import (check_serialization_round_trip,
                                   check_subgroup_counts)
from quillen_strata.cli import run
from quillen_strata.checks import CORPUS, corpus_group


def test_corpus_is_well_formed():
    assert len(CORPUS) == len(set(CORPUS))
    for dsl in CORPUS:
        G = corpus_group(dsl)
        assert 1 <= G.order <= 24
    # the named extras from the verification contract
    assert "sym:3" in CORPUS and "sym:4" in CORPUS
    assert "dihedral:4" in CORPUS and "dihedral:6" in CORPUS
    orders = {corpus_group(dsl).order for dsl in CORPUS}
    assert set(range(1, 17)) <= orders


def test_verify_all_passes_within_budget(capsys):
    start = time.perf_counter()
    code = run(["verify", "--all"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    assert "12/12 suites passed" in out
    assert elapsed < 60, "verify took %.1fs" % elapsed


def test_subgroup_counts_reports_the_groups_checked():
    groups = [(dsl, corpus_group(dsl)) for dsl in ("sym:3", "dihedral:4")]
    result = check_subgroup_counts(groups)
    assert result.ok and result.detail == "checked 2 groups"
    assert check_subgroup_counts().detail == "checked %d groups" % len(CORPUS)


def test_round_trip_suite_catches_a_deterministic_writer_bug(monkeypatch):
    # a writer that drops the closed flag of every point still round-trips
    # to itself; only the comparison with json.dumps sees it
    writer = spectrum.to_json
    monkeypatch.setattr(spectrum, "to_json",
                        lambda space: writer(space).replace('"closed": true', '"closed": false'))
    result = check_serialization_round_trip()
    assert not result.ok
    assert result.detail.startswith("writer differs from json.dumps")


# the suite names verify prints, in its order
SUITE_NAMES = [
    "mackey-double-cosets", "weyl-divisibility", "family-closure",
    "subgroup-counts", "cyclotomic-product", "cyclotomic-splitting-oracle",
    "weyl-actions-are-actions", "weak-strong-agreement", "height1-fan-shape",
    "colimit-quotient-laws", "ku-stratum-splitting-counts",
    "serialization-round-trip",
]


def test_suites_registers_each_suite_once_in_source_order():
    tree = ast.parse(pathlib.Path(checks.__file__).read_text())
    suites = [(node.name, d.args[0].value) for node in tree.body
              if isinstance(node, ast.FunctionDef) for d in node.decorator_list
              if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_suite"]
    assert [name for _, name in suites] == SUITE_NAMES
    assert checks.SUITES == [getattr(checks, fn) for fn, _ in suites]
