"""The str-method readers of group specs, theory specs and subgroup selectors
against the regex parsers they replaced (tests/conftest.py).

Specs are built from each grammar's tokens, with numbers in ASCII and other
decimal digits, and then mutated by inserting, deleting and swapping
characters.  On every spec both readers accept or both refuse it with the
same error, and they read the same group, TheorySpec or class.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quillen_strata.groups import build_group, select_class, subgroups_up_to_conjugacy
from quillen_strata.strata import parse_theory

from conftest import regex_build_group, regex_parse_theory, regex_select_class

# ASCII, Arabic-Indic and fullwidth digits, which \d and str.isdecimal take,
# and superscripts, digits that neither takes
_SCRIPTS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "⁰¹²³⁴⁵⁶⁷⁸⁹")
# str.isspace and \s take all of these but the zero-width space
_SPACES = (" ", "\t", "\n", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000", "\u200b")


@st.composite
def numbers(draw, top):
    text = draw(st.sampled_from(("", "0"))) + str(draw(st.integers(0, top)))
    return text.translate(str.maketrans(_SCRIPTS[0], draw(st.sampled_from(_SCRIPTS))))


def spaces():
    return st.text(st.sampled_from(_SPACES), max_size=2)


@st.composite
def cycles(draw, top):
    """One generator's cycles, its points ASCII and sometimes not, separated
    by whitespace or commas."""
    out = []
    for _ in range(draw(st.integers(0, 2))):
        points = draw(st.lists(st.one_of(st.integers(0, top).map(str), numbers(top)),
                               max_size=4))
        sep = draw(st.sampled_from((" ", ",", ", ", "\u2003", "\x1c ")))
        out.append(draw(spaces()) + "(" + sep.join(points) + ")")
    return "".join(out) + draw(spaces())


@st.composite
def group_specs(draw, depth=2):
    kinds = ["named", "elem-abelian", "perm"] + ["product"] * bool(depth)
    kind = draw(st.sampled_from(kinds))
    if kind == "named":
        return draw(st.sampled_from(("cyclic", "dihedral", "sym", "alt"))) + ":" + draw(numbers(6))
    if kind == "elem-abelian":
        return "elem-abelian:%s^%s" % (draw(numbers(5)), draw(numbers(3)))
    if kind == "perm":
        return "perm:" + ";".join(draw(st.lists(cycles(5), min_size=1, max_size=3)))
    return (draw(spaces()) + "product:" + draw(group_specs(depth - 1)) + "x"
            + draw(group_specs(depth - 1)))


@st.composite
def theory_specs(draw):
    """A spec of any theory, sometimes with a field too many."""
    kind = draw(st.sampled_from(("height1", "ku", "hz", "modp", "kr")))
    extra = draw(st.sampled_from(("",) * 4 + (",deg=2", ",q=4", ",x=1", ":p=3")))
    if kind in ("height1", "hz"):
        return "%s:p=%s%s" % (kind, draw(st.one_of(numbers(30), numbers(70000))), extra)
    if kind == "modp":
        deg = draw(st.one_of(st.just(""), numbers(9).map(",deg=".__add__)))
        return "modp:q=%s%s%s" % (draw(numbers(300)), deg, extra)
    return kind + extra


@st.composite
def selectors(draw):
    kind = draw(st.sampled_from(("class", "alternating", "gens")))
    if kind == "class":
        return "%s:%s" % (draw(numbers(24)), draw(numbers(4)))
    if kind == "alternating":
        return draw(st.sampled_from("Aa")) + draw(numbers(6))
    return "gens:" + ";".join(draw(st.lists(cycles(3), min_size=1, max_size=2)))


@st.composite
def mutated(draw, specs, tokens):
    """A spec with up to three characters or tokens inserted, deleted or swapped."""
    text = draw(specs)
    pool = st.sampled_from(tuple(tokens) + _SPACES + tuple("".join(_SCRIPTS)))
    for _ in range(draw(st.one_of(st.just(0), st.integers(1, 3)))):  # unmutated half the time
        op, i = draw(st.sampled_from(("insert", "delete", "swap"))), draw(
            st.integers(0, len(text)))
        if op == "insert":
            text = text[:i] + draw(pool) + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        elif i + 1 < len(text):
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text


def outcome(parse, *args):
    """What parse returns, or the type and message of what it raises."""
    try:
        return parse(*args)
    except Exception as exc:  # any error, so long as both raise the same
        return type(exc), str(exc)


def group_outcome(parse, spec):
    G = outcome(parse, spec)
    return G if isinstance(G, tuple) else (G.degree, G.order, G.generators)


_GROUP_TOKENS = ("product:", "perm:", "cyclic:", "elem-abelian:", "x", "(", ")", ";", ",",
                 ":", "^")


@given(mutated(group_specs(), _GROUP_TOKENS))
@example("cyclic:٣")
@example("perm:(0 ١)")
@example("perm:(0\u20031)(2,\x1c3)")
@example("product:\nproduct:cyclic:2xcyclic:2x\u2003cyclic:2")
@example("product: product:cyclic:2xproduct:cyclic:2xcyclic:3")
@settings(max_examples=400, deadline=None)
def test_the_group_reader_agrees_with_the_regex_parser(spec):
    assert group_outcome(build_group, spec) == group_outcome(regex_build_group, spec)


@given(mutated(theory_specs(), ("height1", "hz", "modp", "ku", "kr", ":", "=", ",", "p=",
                                "q=", ",deg=")))
@example("modp:q=٤,deg=٢")
@example("modp:deg=2,q=4")
@example("\u2003ku\x1c")
@example("modp:q=4,")
@settings(max_examples=600, deadline=None)
def test_the_theory_reader_agrees_with_the_regex_patterns(text):
    assert outcome(parse_theory, text) == outcome(regex_parse_theory, text)


_SYM4 = build_group("sym:4")
_CLASSES = subgroups_up_to_conjugacy(_SYM4)


def class_outcome(select, selector):
    cls = outcome(select, _SYM4, _CLASSES, selector)
    return cls if isinstance(cls, tuple) else cls.index


@given(mutated(selectors(), ("gens:", ":", ";", "(", ")", ",", "A", "a")))
@example("٢:٠")
@example(" A٤\x1c")
@example("gens:(0,1)(2\u20033)")
@settings(max_examples=600, deadline=None)
def test_the_selector_reader_agrees_with_the_regex_parser(selector):
    assert class_outcome(select_class, selector) == class_outcome(regex_select_class, selector)
