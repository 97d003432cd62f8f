"""Module boundaries of the package, read off its source with ast.

The group kernel owns element numbering: other modules reach it through
public names, and strata asks the kernel's SubgroupClass methods for every
conjugation instead of working on element numbers itself.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quillen_strata"


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
    """(line, what) of each call of element_index and each subscript of a
    .number attribute (the root's element numbers) in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "element_index":
                found.append((node.lineno, "element_index()"))
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
                     "i = G.element_index()\n"
                     "n = i.number[g.images]\n")
    assert private_imports(tree) == [(1, "_mask"), (4, "c._private"), (4, "r._zp_mul")]
    assert element_number_uses(tree) == [(5, "element_index()"), (6, ".number[...]")]
