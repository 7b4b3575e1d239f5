"""Every global name the package loads is bound, and every import is used.

A name that is used but never imported, defined or assigned raises
NameError only when its line runs, so a fault on a path that few callers
take stays hidden until then.  An import that nothing reads is dead code
that outlives the code it served.  These checks read each module's
symbol tables (stdlib ``symtable``) and syntax tree (stdlib ``ast``) and
need no linter.
"""

from __future__ import annotations

import ast
import builtins
import io
import re
import symtable
import tokenize
from pathlib import Path
from typing import List, Set, Tuple

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "darkgallery"
MODULES = sorted(PACKAGE.glob("*.py"))

# set by the import system on every module, so not in any symbol table
MODULE_ATTRIBUTES = {
    "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__",
}


def _tables(top: symtable.SymbolTable):
    yield top
    for child in top.get_children():
        yield from _tables(child)


def unbound_names(source: str, filename: str) -> List[Tuple[str, int]]:
    """(name, line) for each load of a global name that nothing binds."""
    top = symtable.symtable(source, filename, "exec")
    bound: Set[str] = {
        s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    loaded: Set[str] = set()
    for table in _tables(top):
        for s in table.get_symbols():
            if s.is_declared_global() and s.is_assigned():
                bound.add(s.get_name())
            if s.is_referenced() and s.is_global():
                loaded.add(s.get_name())
    unbound = {n for n in loaded - bound
               if not hasattr(builtins, n) and n not in MODULE_ATTRIBUTES}
    return sorted(
        (node.id, node.lineno) for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        and node.id in unbound)


def test_unbound_names_flags_what_nothing_binds():
    source = (
        "from math import lcm\n"
        "def f(a):\n"
        "    global Y\n"
        "    Y = a\n"
        "    return [b for b in range(a)] + [gcd(a, lcm(a, Y)), __name__]\n"
        "class C:\n"
        "    z = 3\n"
        "    def m(self):\n"
        "        return z\n"
    )
    assert unbound_names(source, "example.py") == [("gcd", 5), ("z", 9)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_module_has_no_unbound_names(path):
    assert unbound_names(path.read_text(), str(path)) == []


# __init__.py imports in order to re-export, so its imports count as used
IMPORTING_MODULES = [p for p in MODULES if p.name != "__init__.py"]


def _type_comment_names(source: str) -> Set[str]:
    """Identifiers in ``# type:`` comments, which the syntax tree drops."""
    out: Set[str] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and tok.string.startswith("# type:"):
            out.update(re.findall(r"[A-Za-z_]\w*", tok.string[len("# type:"):]))
    return out


def unused_imports(source: str, filename: str) -> List[Tuple[str, int]]:
    """(name, line) for each name an import binds that nothing reads."""
    tree = ast.parse(source, filename)
    imported: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "import a.b as c" binds c
                imported.append(((alias.asname or alias.name).split(".")[0], node.lineno))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    used |= _type_comment_names(source)
    return sorted((name, line) for name, line in imported if name not in used)


def test_unused_imports_flags_what_nothing_reads():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import List, Optional, Tuple\n"
        "from math import gcd, lcm\n"
        "def f(a) -> List[int]:\n"
        "    x = None  # type: Optional[int]\n"
        "    return np.zeros(gcd(a, 2))\n"
    )
    assert unused_imports(source, "example.py") == [("Tuple", 4), ("lcm", 5), ("os", 2)]


@pytest.mark.parametrize("path", IMPORTING_MODULES, ids=[p.name for p in IMPORTING_MODULES])
def test_package_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(), str(path)) == []


# geometry._Frame scales a scene to integers; the exact engine and the
# sampler decide on its integers and scale nothing themselves
FRAME_READERS = [PACKAGE / "darkness.py", PACKAGE / "sampling.py"]


def scaling_uses(source: str, filename: str) -> List[Tuple[str, int]]:
    """(what, line) for each read of a ``.denominator`` and each call of
    ``lcm`` (by name or as an attribute, such as ``math.lcm``)."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute) and node.attr == "denominator":
            out.append((".denominator", node.lineno))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "lcm":
                out.append(("lcm()", node.lineno))
    return sorted(out)


def test_scaling_uses_flags_denominators_and_lcm():
    source = (
        "import math\n"
        "from math import lcm\n"
        "def f(p, q):\n"
        "    d = p.x.denominator\n"
        "    return lcm(d, 2) + math.lcm(q.denominator, 3) + p.numerator\n"
    )
    assert scaling_uses(source, "example.py") == [
        (".denominator", 4), (".denominator", 5), ("lcm()", 5), ("lcm()", 5)]


@pytest.mark.parametrize("path", FRAME_READERS, ids=[p.name for p in FRAME_READERS])
def test_frame_readers_scale_nothing_themselves(path):
    assert scaling_uses(path.read_text(), str(path)) == []


# one question, one implementation: two functions whose bodies are the
# same statements are one function written twice
def duplicate_bodies(sources) -> List[List[str]]:
    """Groups of two or more functions ("file:qualified name") whose
    bodies are identical and hold two or more statements, docstrings not
    counted; sources are (file name, source) pairs."""
    seen = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    body = child.body
                    if (body and isinstance(body[0], ast.Expr)
                            and isinstance(body[0].value, ast.Constant)
                            and isinstance(body[0].value.value, str)):
                        body = body[1:]
                    if len(body) >= 2:
                        key = ast.dump(ast.Module(body=body, type_ignores=[]))
                        seen.setdefault(key, []).append("%s:%s" % (file, name))
                visit(child, file, name + ".")
            else:
                visit(child, file, prefix)

    for file, source in sources:
        visit(ast.parse(source, file), file, "")
    return sorted(sorted(names) for names in seen.values() if len(names) >= 2)


def test_duplicate_bodies_flags_functions_written_twice():
    a = (
        "def f(x):\n"
        "    '''One docstring.'''\n"
        "    y = x + 1\n"
        "    return y\n"
        "def short(x):\n"
        "    return x\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        y = x + 1\n"
        "        return y\n"
        "    def other(self, x):\n"
        "        y = x + 2\n"
        "        return y\n"
    )
    b = (
        "def g(x):\n"
        "    '''Another docstring.'''\n"
        "    y = x + 1\n"
        "    return y\n"
        "def short2(x):\n"
        "    return x\n"
        "def outer():\n"
        "    def inner(self, x):\n"
        "        y = x + 2\n"
        "        return y\n"
        "    return inner\n"
    )
    assert duplicate_bodies([("a.py", a), ("b.py", b)]) == [
        ["a.py:C.m", "a.py:f", "b.py:g"], ["a.py:C.other", "b.py:outer.inner"]]


def test_package_has_no_function_written_twice():
    assert duplicate_bodies([(p.name, p.read_text()) for p in MODULES]) == []
