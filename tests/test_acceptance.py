"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is exact (integer/string comparisons; no tolerances) and
carries the stated wall-clock budget.
"""

import json
import time

import pytest

from quillen_strata import checks
from quillen_strata.cli import run
from quillen_strata.groups import (Perm, build_group, class_containing,
                                   mulclose, subgroups_up_to_conjugacy)
from quillen_strata.rings import divides, is_separable, level_polynomial_P, \
    reduce_cyclo_mod_p
from quillen_strata.spectrum import assemble_strong, assemble_weak, \
    check_agreement
from quillen_strata.strata import parse_theory, stratum

WREATH = "perm:(0 1);(2 3);(0 2)(1 3)"


class _Criterion:
    def __init__(self, number, description, budget):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print("ACCEPTANCE %2d %s (%.2fs <= %ds): %s"
              % (self.number, status, elapsed, self.budget, self.description))
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(
                "criterion %d exceeded budget: %.2fs > %ds"
                % (self.number, elapsed, self.budget))
        return False


def cli_json(args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    assert code == 0, "CLI exited %d" % code
    return json.loads(out)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_criterion_01_figure1(p, n, capsys):
    with _Criterion(1, "Figure 1 for cyclic:%d^%d at p=%d" % (p, n, p), 1):
        doc = cli_json(["spectrum", "--group", "cyclic:%d" % p ** n,
                        "--theory", "height1:p=%d" % p], capsys)
        generic = [pt for pt in doc["points"] if not pt["closed"]]
        closed = [pt for pt in doc["points"] if pt["closed"]]
        expected = ["Q_%d" % p] + ["Q_%d(zeta_%d)" % (p, p ** i)
                                   for i in range(1, n + 1)]
        assert sorted(pt["label"] for pt in generic) == sorted(expected)
        assert len(generic) == n + 1
        assert [pt["label"] for pt in closed] == ["F_%d" % p]
        assert len(doc["edges"]) == n + 1
        assert all(e["to"] == closed[0]["id"] for e in doc["edges"])


def test_criterion_02_figure4(capsys):
    with _Criterion(2, "exponent-p bottom rows for (Z/2)^2 and sym:3", 1):
        doc = cli_json(["spectrum", "--group", "elem-abelian:2^2",
                        "--theory", "height1:p=2"], capsys)
        generic = [pt for pt in doc["points"] if not pt["closed"]]
        closed = [pt for pt in doc["points"] if pt["closed"]]
        assert len(generic) == 4 and len(closed) == 1
        assert sorted(pt["label"] for pt in generic) == [
            "Q_2", "Q_2(zeta_2)", "Q_2(zeta_2)", "Q_2(zeta_2)"]
        doc = cli_json(["spectrum", "--group", "sym:3",
                        "--theory", "height1:p=3"], capsys)
        generic = [pt for pt in doc["points"] if not pt["closed"]]
        closed = [pt for pt in doc["points"] if pt["closed"]]
        assert len(generic) == 2 and len(closed) == 1
        assert sorted(pt["label"] for pt in generic) == ["Q_3", "Q_3(zeta_3)"]


def test_criterion_03_sigma3_trivial_action():
    with _Criterion(3, "W^Q(C3) has order 2 and acts as the identity", 1):
        G = build_group("sym:3")
        th = parse_theory("height1:p=3")
        classes = subgroups_up_to_conjugacy(G)
        c3 = [c for c in classes if c.order == 3][0]
        model = stratum(th, c3)
        assert model.weyl.kind == "quillen"
        assert model.weyl.order == 2
        identity = tuple(range(len(model.points)))
        assert all(perm == identity for perm in model.action)


def test_criterion_04_figure3_rc2(capsys):
    with _Criterion(4, "Spec(R(C_2)) glued at 2, split elsewhere", 1):
        doc = cli_json(["spectrum", "--group", "cyclic:2", "--theory", "ku",
                        "--prime-bound", "19"], capsys)
        minimal = [pt for pt in doc["points"] if not pt["closed"]]
        assert len(minimal) == 2
        by_prime = {}
        for pt in doc["points"]:
            if pt["closed"]:
                q = int(pt["id"].rsplit(":", 1)[1].split(".")[0])
                by_prime.setdefault(q, []).append(pt)
        assert sorted(by_prime) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert len(by_prime[2]) == 1
        for q in (3, 5, 7, 11, 13, 17, 19):
            assert len(by_prime[q]) == 2
        shared = by_prime[2][0]["id"]
        into_shared = sorted(e["from"] for e in doc["edges"] if e["to"] == shared)
        assert into_shared == sorted(pt["id"] for pt in minimal)
        # each split point has exactly one minimal prime below it
        for q in (3, 5, 7, 11, 13, 17, 19):
            for pt in by_prime[q]:
                below = [e["from"] for e in doc["edges"] if e["to"] == pt["id"]]
                assert len(below) == 1


def test_criterion_05_remark_rank2_quotient():
    with _Criterion(5, "rank-2 F_4 stratum and its Z/2 quotient", 1):
        G = build_group(WREATH)
        th = parse_theory("modp:q=4,deg=1")
        classes = subgroups_up_to_conjugacy(G)
        klein = class_containing(classes, mulclose(
            [Perm.from_cycles([(0, 1)], 4), Perm.from_cycles([(2, 3)], 4)],
            cap=8))
        model = stratum(th, klein)
        assert [pt.label for pt in model.points] == [
            "F_4(x,y)", "(x+a*y)", "(x+(a+1)*y)"]
        assert model.weyl.order == 2
        assert model.orbits() == [(0,), (1, 2)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_criterion_06_drinfeld_divisibility(p):
    with _Criterion(6, "level polynomial equals the p-series at p=%d" % p, 1):
        data = level_polynomial_P(p)
        q_poly = data.q_over_cyclo()
        ok1, quot1 = divides(data.P, q_poly)
        ok2, quot2 = divides(q_poly, data.P)
        assert ok1 and ok2 and quot1.is_one() and quot2.is_one()
        assert is_separable(q_poly)
        assert not is_separable(reduce_cyclo_mod_p(data.P, p))


def test_criterion_07_weak_strong_agreement():
    with _Criterion(7, "weak/strong agreement over the corpus", 30):
        result = checks.check_agreement_suite()
        assert result.ok, result.detail


def test_criterion_08_mackey_suite():
    with _Criterion(8, "Mackey double-coset identity over the corpus", 20):
        result = checks.check_mackey()
        assert result.ok, result.detail


def test_criterion_09_splitting_oracle():
    with _Criterion(9, "cyclotomic splitting formula vs factorization", 10):
        result = checks.check_splitting_oracle()
        assert result.ok, result.detail


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_10_figure5_hz(p, capsys):
    with _Criterion(10, "constant-coefficient spectrum of cyclic:%d^2" % p, 1):
        doc = cli_json(["spectrum", "--group", "cyclic:%d" % p ** 2,
                        "--theory", "hz:p=%d" % p], capsys)
        assert doc["meta"]["truncated"] is True
        strata = {}
        for pt in doc["points"]:
            strata.setdefault(pt["stratum"], []).append(pt)
        two_point = {k: v for k, v in strata.items() if len(v) == 2}
        assert len(two_point) == 2
        for k, pts in two_point.items():
            internal = [e for e in doc["edges"]
                        if e["kind"] == "internal"
                        and e["from"].startswith(k + ":")]
            assert len(internal) == 1
        spec_z = strata["o1.0"]
        assert sorted(pt["label"] for pt in spec_z) == sorted(
            ["Q"] + ["F_%d" % q for q in (2, 3, 5, 7, 11, 13, 17, 19)])
        dashed = [e for e in doc["edges"] if e["kind"] == "external"]
        assert len(dashed) == 2
        assert all(e["provenance"] == "Balmer-Gallauer" for e in dashed)
        # dashed edges are metadata: the order-sensitive agreement check
        # passes with them present because it only compares solid edges
        G = build_group("cyclic:%d" % p ** 2)
        th = parse_theory("hz:p=%d" % p)
        rep = check_agreement(assemble_strong(th, G), assemble_weak(th, G))
        assert rep.isomorphic


def test_criterion_11_kr(capsys):
    with _Criterion(11, "real K-theory over C_2 is truncated Spec(Z)", 1):
        doc = cli_json(["spectrum", "--group", "cyclic:2", "--theory", "kr"],
                       capsys)
        assert {pt["stratum"] for pt in doc["points"]} == {"o1.0"}
        labels = sorted(pt["label"] for pt in doc["points"])
        assert labels == sorted(
            ["Q"] + ["F_%d" % q for q in (2, 3, 5, 7, 11, 13, 17, 19)])
        generic = [pt for pt in doc["points"] if not pt["closed"]]
        assert len(generic) == 1 and generic[0]["label"] == "Q"
        assert len(doc["edges"]) == 8
