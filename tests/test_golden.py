"""Byte-exact golden-file comparisons for the serialized figure spectra."""

import pathlib

import pytest

from quillen_strata.checks import check_fan_shape
from quillen_strata.cli import run
from quillen_strata.groups import build_group
from quillen_strata.spectrum import check_agreement, deserialize

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    ("fig1_cyclic4_height1_p2.json",
     ["spectrum", "--group", "cyclic:4", "--theory", "height1:p=2"]),
    ("fig3_cyclic2_ku.json",
     ["spectrum", "--group", "cyclic:2", "--theory", "ku",
      "--prime-bound", "19"]),
    ("fig5_cyclic9_hz_p3.json",
     ["spectrum", "--group", "cyclic:9", "--theory", "hz:p=3"]),
    ("subgroups_sym5.json", ["subgroups", "--group", "sym:5"]),
    ("subgroups_alt5.json", ["subgroups", "--group", "alt:5"]),
    ("weyl_alt5_4_0_quillen.json",
     ["weyl", "--group", "alt:5", "--h", "4:0", "--kind", "quillen"]),
    ("double_cosets_dihedral15_2_0_6_0.json",
     ["double-cosets", "--group", "dihedral:15", "--h", "2:0", "--k", "6:0"]),
    ("spectrum_alt5_height1_p2.json",
     ["spectrum", "--group", "alt:5", "--theory", "height1:p=2"]),
    ("spectrum_elemab2_2_modp_q4_deg4.json",
     ["spectrum", "--group", "elem-abelian:2^2", "--theory", "modp:q=4,deg=4"]),
    ("spectrum_wreath_modp_q4_deg3.json",
     ["spectrum", "--group", "perm:(0 1);(2 3);(0 2)(1 3)",
      "--theory", "modp:q=4,deg=3"]),
    ("strata_sym4_modp_q8_deg2.json",
     ["strata", "--group", "sym:4", "--theory", "modp:q=8,deg=2"]),
    ("strata_elemab3_2_modp_q9_deg3.json",
     ["strata", "--group", "elem-abelian:3^2", "--theory", "modp:q=9,deg=3"]),
    ("spectrum_sym4_ku.json", ["spectrum", "--group", "sym:4", "--theory", "ku"]),
    # p = 23 above the default prime bound 19: the fan into F_23 stays
    ("spectrum_cyclic23_height1_p23.json",
     ["spectrum", "--group", "cyclic:23", "--theory", "height1:p=23"]),
    ("spectrum_dihedral23_height1_p23.json",
     ["spectrum", "--group", "dihedral:23", "--theory", "height1:p=23"]),
] + [("drinfeld_p%d.json" % p, ["drinfeld-check", "--p", str(p)])
     for p in (2, 3, 5, 7, 11, 13)] + [
    # order 720, 1455 subgroups in 56 classes: the cyclic-extension joins
    ("subgroups_sym6.json", ["subgroups", "--group", "sym:6"]),
    # the order-360 regular quotient of alt:6 by its trivial subgroup
    ("weyl_alt6_1_0_ordinary.json",
     ["weyl", "--group", "alt:6", "--h", "1:0", "--kind", "ordinary"]),
] + [
    # the table and dot writers: cross-stratum edges of the strong form, and
    # the external edges with their provenance of a weak one
    ("spectrum_sym4_ku.%s" % fmt,
     ["spectrum", "--group", "sym:4", "--theory", "ku", "--format", fmt])
    for fmt in ("table", "dot")] + [
    ("spectrum_cyclic9_hz_p3_weak.%s" % fmt,
     ["spectrum", "--group", "cyclic:9", "--theory", "hz:p=3", "--mode", "weak",
      "--format", fmt])
    for fmt in ("table", "dot")] + [
    # order 2520, 40 classes: the largest lattice of the goldens
    ("subgroups_alt7.json", ["subgroups", "--group", "alt:7"]),
    # F_16, F_25 and F_27 from their log and Zech tables: odd p with f >= 2
    # runs the Zech sum and the negative through p - 1
    ("spectrum_elemab2_2_modp_q16_deg2.json",
     ["spectrum", "--group", "elem-abelian:2^2", "--theory", "modp:q=16,deg=2"]),
    ("spectrum_elemab5_2_modp_q25_deg2.json",
     ["spectrum", "--group", "elem-abelian:5^2", "--theory", "modp:q=25,deg=2"]),
    ("strata_elemab3_2_modp_q27_deg2.json",
     ["strata", "--group", "elem-abelian:3^2", "--theory", "modp:q=27,deg=2"]),
    # prime-field forms of degree 4, with the identity as the one Weyl witness
    ("strata_elemab5_2_modp_q5_deg4.json",
     ["strata", "--group", "elem-abelian:5^2", "--theory", "modp:q=5,deg=4"]),
]


@pytest.mark.parametrize("name,args", CASES)
def test_golden_bytes(name, args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_sym4_ku_golden_is_isomorphic_to_the_weak_form(capsys):
    # strong ku on a non-cyclic group against its weak form, with edges compared
    assert run(["spectrum", "--group", "sym:4", "--theory", "ku", "--mode", "weak"]) == 0
    weak = deserialize(capsys.readouterr().out)
    strong = deserialize((GOLDEN / "spectrum_sym4_ku.json").read_text())
    assert len(strong.solid_edges()) == len(weak.solid_edges())
    assert check_agreement(strong, weak).isomorphic


def test_height1_above_the_prime_bound_is_a_fan():
    groups = [(dsl, build_group(dsl)) for dsl in ("cyclic:23", "dihedral:23")]
    result = check_fan_shape(groups, primes=(23,))
    assert result.ok, result.detail
