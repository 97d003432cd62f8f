"""Module boundaries of the package, read off its source with ast.

The group kernel owns element numbering: other modules reach it through
public names, and strata asks the kernel's SubgroupClass methods for every
conjugation instead of working on element numbers itself.  Every parameter
earns its place: a default is overridden by some call in src/, tests/ or
demos/, and a public function reads each parameter it takes.  No method
only returns an attribute: a fact is the attribute itself.  A decision has
one owner: PermGroup.__init__ alone closes generators, spectrum._space alone
orders a space (deserialize's too), cli.run alone writes a command's output,
one splitter, which defines no arithmetic of its own, factors Phi_d mod q,
rings alone labels the primes above q, prime_divisors alone walks a number's
primes, strata's point_map alone moves points along a conjugation, GF(p^f)
takes its tables from _zp_mulmod, the one product modulo a polynomial over
F_p, with no digit-vector arithmetic of its own, and one printer,
_power_sum, writes Q(zeta_m) elements and polynomials.  A fact has one copy:
mulclose's cap is the one order bound (the DSL reads it to refuse early),
_ku_index_bound is the one ku index bound, and strata reads Weyl orbits off
its actions, not through orbit_cat.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quillen_strata"


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _is_package_import(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "quillen_strata"


def private_imports(tree):
    """(line, name) of each underscore name that tree takes from another
    module of the package: imported by name, or read as an attribute of a
    package module it imported."""
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_import(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                if node.module is None or node.module == "quillen_strata":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "quillen_strata")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, "%s.%s" % (node.value.id, node.attr)))
    return sorted(found)


def element_number_uses(tree):
    """(line, what) of each read of an element_index attribute and each
    subscript of a .number attribute (the root's element numbers) in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "element_index":
            found.append((node.lineno, ".element_index"))
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
              and node.value.attr == "number"):
            found.append((node.lineno, ".number[...]"))
    return sorted(found)


def test_no_module_imports_a_private_name_of_another():
    trees = _trees()
    assert "groups.py" in trees and "strata.py" in trees
    bad = {name: private_imports(tree) for name, tree in trees.items()}
    assert {name: found for name, found in bad.items() if found} == {}


def test_strata_leaves_element_numbers_to_the_kernel():
    assert element_number_uses(_trees()["strata.py"]) == []


def test_the_checks_see_what_they_forbid():
    tree = ast.parse("from .groups import _mask, read_int\n"
                     "from . import corpus as c\n"
                     "import quillen_strata.rings as r\n"
                     "x = c._private(r._zp_mul, c.__doc__)\n"
                     "i = G.element_index\n"
                     "n = i.number[g.images]\n")
    assert private_imports(tree) == [(1, "_mask"), (4, "c._private"), (4, "r._zp_mul")]
    assert element_number_uses(tree) == [(5, ".element_index"), (6, ".number[...]")]


def _defs(tree, public=True, method=False):
    """(def node, is a method, is public) for every def in tree.  A def is
    public when neither its name nor an enclosing one begins with "_", so a
    dunder, whose signature Python fixes, is not."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
            here = public and not name.startswith("_")
            if isinstance(node, ast.FunctionDef):
                yield node, method, here
            yield from _defs(node, here, isinstance(node, ast.ClassDef))
        else:
            yield from _defs(node, public, False)


def _params(fn):
    a = fn.args
    return ([x.arg for x in a.posonlyargs + a.args]
            + [x.arg for x in (a.vararg, a.kwarg) if x] + [x.arg for x in a.kwonlyargs])


def _is_static(fn):
    return any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)


def never_overridden_defaults(src_trees, call_trees):
    """(function, parameter) of each defaulted parameter of a def in
    src_trees that no call in call_trees passes.  A call is matched by the
    name it calls (a method's through any attribute), so one name covers
    every def that bears it; but a class's own __init__ and __new__ are
    matched only by calls of the class's name, so a call through an
    attribute such as super().__new__(cls, *args) covers none of them.  A
    *args or **kwargs in a call passes every parameter."""
    calls = {}  # called name -> [(positional count, keywords)]
    for tree in call_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                star = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (float("inf") if star or None in keywords else len(node.args), keywords))
    owner = {item: node.name for tree in src_trees for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for item in node.body}
    found = []
    for tree in src_trees:
        for fn, method, _ in _defs(tree):
            names = [x.arg for x in fn.args.posonlyargs + fn.args.args]
            shift = 1 if method and not _is_static(fn) else 0
            defaulted = [(i, name) for i, name in enumerate(names)
                         if i >= len(names) - len(fn.args.defaults)]
            defaulted += [(None, x.arg) for x, d in zip(fn.args.kwonlyargs,
                                                       fn.args.kw_defaults) if d]
            constructor = method and fn.name in ("__init__", "__new__")
            sites = calls.get(owner[fn] if constructor else fn.name, ())
            for i, name in defaulted:
                if not any(name in kw or (i is not None and count > i - shift)
                           for count, kw in sites):
                    found.append((fn.name, name))
    return sorted(found)


def unread_parameters(trees):
    """(function, parameter) of each parameter that a public def in trees
    never reads; a method's first parameter is exempt."""
    found = []
    for tree in trees:
        for fn, method, public in _defs(tree):
            if public:
                read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found += [(fn.name, p) for p in _params(fn)[1 if method else 0:]
                          if p not in read]
    return sorted(found)


def _call_trees(root):
    return [ast.parse(path.read_text(), str(path))
            for sub in ("src", "tests", "demos") for path in sorted((root / sub).rglob("*.py"))]


def test_every_default_is_overridden_by_some_call():
    assert never_overridden_defaults(_trees().values(), _call_trees(ROOT)) == []


def test_every_parameter_of_a_public_function_is_read():
    assert unread_parameters(_trees().values()) == []


def test_the_parameter_checks_see_what_they_forbid():
    src = ast.parse("def f(a, b=1, *, c=2):\n    return a\n"
                    "def _g(a, b=1):\n    return 0\n"
                    "class K:\n"
                    "    def __init__(self, x=0):\n        self.x = 1\n"
                    "    def m(self, y, z=3):\n        return y\n"
                    "    @staticmethod\n"
                    "    def s(y, z=3):\n        return y + z\n"
                    "class L:\n"
                    "    def __init__(self, x=0):\n        self.x = x\n"
                    "class T(tuple):\n"
                    "    def __new__(cls, a, b=0):\n"
                    "        return super().__new__(cls, *a)\n"
                    "class U(tuple):\n"
                    "    def __new__(cls, a, b=0):\n"
                    "        return tuple.__new__(cls, (a, b))\n")
    # L(x=1) passes L's x, not K's; T's own star call passes nothing to T
    calls = ast.parse("f(1, c=3)\n_g(*xs)\nK()\nk.m(1, 2)\nK.s(1)\n"
                      "L(x=1)\nT(1)\nU(1, 2)\n")
    assert never_overridden_defaults([src], [src, calls]) == [
        ("__init__", "x"), ("__new__", "b"), ("f", "b"), ("s", "z")]
    assert unread_parameters([src]) == [("f", "b"), ("f", "c"), ("m", "z")]


def accessor_wrappers(trees):
    """(class, method) of each method whose body, after its docstring, is one
    return of an attribute chain on self, like `return self._x` or `return
    self.a.b`.  Properties and dunders are exempt."""
    found = []
    for tree in trees:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if (not isinstance(fn, ast.FunctionDef) or fn.name.startswith("__")
                        or any(getattr(d, "attr", getattr(d, "id", None))
                               in ("property", "cached_property")
                               for d in fn.decorator_list)):
                    continue
                body = fn.body
                if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                if len(body) != 1 or not isinstance(body[0], ast.Return):
                    continue
                node = body[0].value
                if not isinstance(node, ast.Attribute):
                    continue
                while isinstance(node, ast.Attribute):
                    node = node.value
                if isinstance(node, ast.Name) and node.id == "self":
                    found.append((cls.name, fn.name))
    return sorted(found)


def test_no_method_only_returns_an_attribute():
    assert accessor_wrappers(_trees().values()) == []


def test_the_accessor_check_sees_what_it_forbids():
    tree = ast.parse("class K:\n"
                     "    def a(self):\n        \"Doc.\"\n        return self._a\n"
                     "    def b(self):\n        return self.x.y\n"
                     "    @property\n    def c(self):\n        return self._c\n"
                     "    @functools.cached_property\n"
                     "    def d(self):\n        return self._d\n"
                     "    def __len__(self):\n        return self.n\n"
                     "    def e(self):\n        return self.f()\n"
                     "    def g(self):\n        return self\n"
                     "    def h(self, other):\n        return other.x\n"
                     "    def i(self):\n        x = 1\n        return self.i\n")
    assert accessor_wrappers([tree]) == [("K", "a"), ("K", "b")]


def _uses(tree, match):
    """(enclosing def, line) of each node in tree that match accepts; the def
    is dotted through its classes and defs, "" at module level, and a def's
    signature belongs to it."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, "%s.%s" % (where, child.name) if where else child.name)
                continue
            if match(child):
                found.append((where, child.lineno))
            visit(child, where)

    visit(tree, "")
    return sorted(found)


def _named(node, name):
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def callers(tree, name):
    """(enclosing def, line) of each call in tree of a function or method
    called name."""
    return _uses(tree, lambda node: isinstance(node, ast.Call) and _named(node.func, name))


def readers(tree, name):
    """(enclosing def, line) of each read in tree of a variable or attribute
    called name."""
    return _uses(tree, lambda node: (isinstance(getattr(node, "ctx", None), ast.Load)
                                     and _named(node, name)))


def nested_functions(tree, name):
    """The lines of the defs and lambdas inside each def in tree called name."""
    return sorted(node.lineno for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == name
                  for node in ast.walk(fn)
                  if node is not fn and isinstance(node, (ast.FunctionDef, ast.Lambda)))


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def nested_loops(tree, name):
    """(method, line) of each loop inside another loop, and of each
    comprehension with two for clauses, in the methods of class name."""
    return sorted((fn.name, loop.lineno) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == name
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)
                  for loop in ast.walk(fn) if isinstance(loop, _LOOPS)
                  and (len(getattr(loop, "generators", ())) > 1
                       or any(node is not loop and isinstance(node, _LOOPS)
                              for node in ast.walk(loop))))


def imported_modules(tree):
    """The package modules that tree imports or takes names from."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_import(node):
            module = (node.module or "").split(".")[-1]
            if module in ("", "quillen_strata"):
                found.update(alias.name for alias in node.names)
            else:
                found.add(module)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names
                         if alias.name.startswith("quillen_strata."))
    return found


def test_only_the_space_constructor_orders_a_space():
    # the writers keep the space's order, and deserialize builds its space
    # through _space without sorting anything itself
    tree = _trees()["spectrum.py"]
    others = ("to_document", "to_json", "to_dot", "to_table", "deserialize")
    assert [c for c in callers(tree, "sorted") + callers(tree, "sort") if c[0] in others] == []
    assert "deserialize" in {where for where, _ in callers(tree, "_space")}


def test_only_run_writes_a_commands_output():
    assert {where for where, _ in callers(_trees()["cli.py"], "_emit")} == {"run"}


def test_only_the_group_constructor_closes_generators():
    assert {where for tree in _trees().values()
            for where, _ in callers(tree, "mulclose")} == {"PermGroup.__init__"}


def test_one_order_cap():
    # mulclose's default cap bounds every group; the DSL checks it early
    where = {where for tree in _trees().values() for where, _ in readers(tree, "MAX_ORDER")}
    assert where == {"mulclose", "_named_group", "_direct_product"}


def test_strata_reads_weyl_orbits_off_its_action():
    assert "orbit_cat" not in imported_modules(_trees()["strata.py"])


def test_one_splitter_for_cyclotomic_factors():
    # cyclotomic_factors_mod does not recurse; one splitter, _split_equal_degree,
    # splits for factor() and _split_cyclotomic, multiplies in F_p[X]/(g)
    # through _zp_mulmod, not in a ring of its own, and alone branches on
    # p = 2; _split_cyclotomic only draws its coset sums
    tree = _trees()["rings.py"]
    assert {where for where, _ in callers(tree, "cyclotomic_factors_mod")} == {
        "cyclic_spectrum_ring", "frobenius_labels"}
    assert nested_functions(tree, "_split_equal_degree") == []
    assert "_split_equal_degree" in {where for where, _ in callers(tree, "_zp_mulmod")}
    assert {where for where, _ in callers(tree, "_split_equal_degree")} == {
        "factor", "_split_cyclotomic"}
    assert "_split_cyclotomic" not in {where for name in ("_zp_mulmod", "_zp_gcd")
                                       for where, _ in callers(tree, name)}
    factoring = {"_zp_squarefree", "_zp_distinct_degree", "_split_equal_degree", "factor",
                 "cyclotomic_factors_mod", "_split_cyclotomic"}
    assert {where for where, _ in compared_with_two(tree)
            if where.split(".")[0] in factoring} == {"_split_equal_degree"}


def compared_with_two(tree):
    """(enclosing def, line) of each comparison in tree that holds the name p
    or q and the constant 2, such as q > 2 or p % 2 == 1."""
    def match(node):
        inner = list(ast.walk(node)) if isinstance(node, ast.Compare) else []
        return ({n.id for n in inner if isinstance(n, ast.Name)} & {"p", "q"}
                and any(isinstance(n, ast.Constant) and n.value == 2 for n in inner))
    return _uses(tree, match)


def test_one_product_modulo_a_polynomial_over_f_p():
    # GF(p^f) multiplies and adds by table lookups; its tables come from the
    # packed core's _zp_mulmod, not from digit vectors of its own
    tree = _trees()["rings.py"]
    gf = next(node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "GF")
    methods = {fn.name for fn in gf.body if isinstance(fn, ast.FunctionDef)}
    assert methods.isdisjoint({"_decode", "_encode"})
    assert nested_loops(tree, "GF") == []
    assert "_gf_tables" in {where for where, _ in callers(tree, "_zp_mulmod")}


def test_rings_alone_labels_the_primes_above_q():
    # strata reads the labels off rings.frobenius_labels, not the factors
    assert readers(_trees()["strata.py"], "cyclotomic_factors_mod") == []


def test_one_ku_index_bound():
    where = {where for where, _ in readers(_trees()["strata.py"], "MAX_CYCLOTOMIC")}
    assert where == {"_ku_index_bound"}


def test_one_loop_walks_the_primes_of_a_number():
    trees = _trees()
    where = {where for tree in (trees["rings.py"], trees["strata.py"])
             for where, _ in callers(tree, "least_prime_factor")}
    assert where.isdisjoint({"euler_phi", "cyclotomic_factors_mod", "_segal_edges"})
    assert "prime_divisors" in where


def test_one_point_map_moves_points_along_a_conjugation():
    # Weyl actions and transition maps both move points through point_map,
    # the one reader of a record's conjugation rule in strata
    tree = _trees()["strata.py"]
    assert {where for where, _ in readers(tree, "conjugation")} == {"point_map"}
    assert {where for where, _ in callers(tree, "point_map")} >= {"stratum", "transition_map"}


def loop_statements(tree):
    """(enclosing def, line) of each for or while statement in tree; a
    comprehension is not one."""
    return _uses(tree, lambda node: isinstance(node, (ast.For, ast.While)))


def test_one_printer_writes_a_sum_of_powers():
    # Q(zeta_m) elements and polynomials print through _power_sum, which
    # brackets a compound coefficient; GF.repr_elem keeps its own digit loop
    tree = _trees()["rings.py"]
    printers = {"CycloField.repr_elem", "Poly.pretty"}
    assert {where for where, _ in callers(tree, "_power_sum")} == printers
    assert [c for c in loop_statements(tree) + callers(tree, "join") if c[0] in printers] == []


def test_the_owner_checks_see_what_they_forbid():
    tree = ast.parse("class G:\n"
                     "    def __init__(self, gens):\n        self.e = mulclose(gens)\n"
                     "def to_dot(space):\n    return [sorted(p) for p in space]\n"
                     "def _cmd_x(args):\n"
                     "    def inner():\n        cli._emit(args)\n"
                     "    return sorted(args, key=lambda a: groups.mulclose(a))\n"
                     "mulclose(x)\n")
    assert callers(tree, "sorted") == [("_cmd_x", 9), ("to_dot", 5)]
    assert callers(tree, "_emit") == [("_cmd_x.inner", 8)]
    assert callers(tree, "mulclose") == [("", 10), ("G.__init__", 3), ("_cmd_x", 9)]
    tree = ast.parse("from .orbit_cat import quotient\n"
                     "from . import rings\n"
                     "import quillen_strata.groups as g\n"
                     "from quillen_strata import cli\n"
                     "import os.path\n"
                     "def mulclose(gens, cap=MAX_ORDER):\n    return g.MAX_ORDER\n"
                     "MAX_ORDER = 1\n")
    assert imported_modules(tree) == {"orbit_cat", "rings", "groups", "cli"}
    assert readers(tree, "MAX_ORDER") == [("mulclose", 6), ("mulclose", 7)]
    tree = ast.parse("def split(phi):\n"
                     "    def mul(a, b):\n        return a * b\n"
                     "    sq = lambda a: mul(a, a)\n"
                     "    return split(phi[1:])\n"
                     "def other():\n    return lambda: split(0)\n")
    assert nested_functions(tree, "split") == [2, 4]
    assert callers(tree, "split") == [("other", 7), ("split", 5)]
    tree = ast.parse("def split(p, e):\n"
                     "    if p % 2 == 1:\n        return q > 2\n"
                     "    return e > 2 or p > 3\n")
    assert compared_with_two(tree) == [("split", 2), ("split", 3)]
    tree = ast.parse("class F:\n"
                     "    def mul(self, a):\n"
                     "        for x in a:\n            while x:\n                x -= 1\n"
                     "    def add(self, a):\n        return [x for x in a for y in x]\n"
                     "    def neg(self, a):\n        return [-x for x in a]\n"
                     "def free(a):\n    return [[y for y in x] for x in a]\n")
    assert nested_loops(tree, "F") == [("add", 7), ("mul", 3)]
    tree = ast.parse("def stratum(theory, cls, n):\n"
                     "    return theory.record.conjugation(theory, n, cls, cls)\n"
                     "def point_map(theory, g):\n"
                     "    move = theory.record.conjugation\n"
                     "    return point_map(move, g)\n")
    assert readers(tree, "conjugation") == [("point_map", 4), ("stratum", 2)]
    assert callers(tree, "point_map") == [("point_map", 5)]
    tree = ast.parse("class P:\n"
                     "    def pretty(self):\n"
                     "        for c in self:\n            while c:\n                c -= 1\n"
                     "        return _power_sum(((i, c) for i, c in self), 'X')\n"
                     "def repr_elem(a):\n    return '+'.join(str(c) for c in a)\n")
    assert loop_statements(tree) == [("P.pretty", 3), ("P.pretty", 4)]
    assert callers(tree, "_power_sum") == [("P.pretty", 6)]
    assert callers(tree, "join") == [("repr_elem", 8)]
    tree = ast.parse("def deserialize(doc):\n"
                     "    doc.points.sort()\n    return _space(doc, sorted(doc.edges))\n")
    assert callers(tree, "sort") + callers(tree, "sorted") == [
        ("deserialize", 2), ("deserialize", 3)]
    assert callers(tree, "_space") == [("deserialize", 3)]
