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


# the sampler's batch (sampling._Samples) builds the float columns of
# every sample, and the other modules hand it samples: none of them
# imports the column builder, by name or through the module
BATCH_NAMES = {"_columns"}
NOT_THE_BATCH = [p for p in MODULES if p.name != "sampling.py"]


def name_imports(source: str, filename: str, names) -> List[Tuple[str, int]]:
    """(name, line) for each ``from ... import`` of one of names, renamed
    or not, and each read of one as an attribute of an imported module
    (``sampling._columns``)."""
    tree = ast.parse(source, filename)
    modules = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    out: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.extend((alias.name, node.lineno) for alias in node.names if alias.name in names)
        elif (isinstance(node, ast.Attribute) and node.attr in names
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            out.append((node.attr, node.lineno))
    return sorted(out)


def test_name_imports_flags_imports_and_attributes():
    source = (
        "from .sampling import _columns as cols, _depths\n"
        "from . import sampling\n"
        "def f(frame, pts):\n"
        "    _columns = cols\n"
        "    return sampling._columns(frame, pts), _columns, _depths, frame._columns\n"
    )
    assert name_imports(source, "example.py", BATCH_NAMES) == [("_columns", 1), ("_columns", 5)]


@pytest.mark.parametrize("path", NOT_THE_BATCH, ids=[p.name for p in NOT_THE_BATCH])
def test_only_the_sampler_batch_builds_float_columns(path):
    assert name_imports(path.read_text(), str(path), BATCH_NAMES) == []


# the exact engine builds the piece columns (darkness._Pieces, _Columns
# and their builder) from its guard and line records; the sampler reads
# them through _Analysis.columns(), and no other module imports them or the
# per-piece builders they replaced
PIECE_COLUMN_NAMES = {"_Pieces", "_Columns", "_piece_columns", "_piece_boxes", "_end_classes"}
NOT_THE_ENGINE = [p for p in MODULES if p.name != "darkness.py"]


@pytest.mark.parametrize("path", NOT_THE_ENGINE, ids=[p.name for p in NOT_THE_ENGINE])
def test_only_the_engine_builds_piece_columns(path):
    assert name_imports(path.read_text(), str(path), PIECE_COLUMN_NAMES) == []


def position_dicts(source: str, filename: str) -> List[Tuple[str, int]]:
    """(what, line) for each dict comprehension that maps the items of an
    ``enumerate`` back to their positions, ``{v: k for k, v in
    enumerate(...)}``, as a guard-position lookup does."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.DictComp) and len(node.generators) == 1):
            continue
        gen = node.generators[0]
        it, target = gen.iter, gen.target
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "enumerate" and isinstance(target, ast.Tuple)
                and len(target.elts) == 2 and all(isinstance(e, ast.Name) for e in target.elts)
                and isinstance(node.key, ast.Name) and isinstance(node.value, ast.Name)
                and node.key.id == target.elts[1].id and node.value.id == target.elts[0].id):
            out.append(("{item: position}", node.lineno))
    return sorted(out)


def test_position_dicts_flags_inverse_enumerations():
    source = (
        "def f(ints, pieces):\n"
        "    index = {xy: k for k, xy in enumerate(ints)}\n"
        "    same = {k: xy for k, xy in enumerate(ints)}\n"
        "    keys = {p[:2]: k for k, p in enumerate(pieces)}\n"
        "    return {v: i for i, v in enumerate(sorted(ints))}, index, same, keys\n"
    )
    assert position_dicts(source, "example.py") == [
        ("{item: position}", 2), ("{item: position}", 5)]


def test_the_sampler_reads_piece_guards_from_the_columns():
    # the anchor, far and line columns name each piece's guards and line:
    # the sampler neither rebuilds them through a guard-position lookup
    # nor imports a column builder
    path = PACKAGE / "sampling.py"
    source = path.read_text()
    assert position_dicts(source, str(path)) == []
    assert name_imports(source, str(path), PIECE_COLUMN_NAMES) == []


def test_stream_placer_scales_nothing_and_builds_no_points():
    # construct._StreamPlacer decides on homogeneous integers its callers
    # scale: geometry._homogeneous, or the parabola (t, t^2, 1)
    path = PACKAGE / "construct.py"
    source = path.read_text()
    [cls] = [node for node in ast.parse(source).body
             if isinstance(node, ast.ClassDef) and node.name == "_StreamPlacer"]
    assert scaling_uses(ast.get_source_segment(source, cls), str(path)) == []
    assert "Point2" not in {node.id for node in ast.walk(cls) if isinstance(node, ast.Name)}


# simple.py's per-candidate and per-pair loops decide on frame integers:
# the arc placer tests its candidates with integer halfplanes, _locate and
# an integer disc, and the comb's line test with _orient signs
POINT_ARITHMETIC = {"Point2", "where", "dot", "cross"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def point_calls_in_loops(source: str, filename: str, functions,
                         loops=LOOPS) -> List[Tuple[str, int]]:
    """(what, line) for each call of one of POINT_ARITHMETIC, by name or
    as an attribute (``cone.where``), inside a loop or comprehension (a
    node of one of the types loops) of one of the named top-level
    functions."""
    out = set()
    for fn in ast.parse(source, filename).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in functions):
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, loops):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in POINT_ARITHMETIC:
                        out.add((name + "()", node.lineno))
    return sorted(out)


def test_point_calls_in_loops_flags_points_and_methods_inside_loops():
    source = (
        "def f(P, cone, gs):\n"
        "    base = Point2(0, 0)\n"
        "    d = base.dot(base)\n"
        "    for g in gs:\n"
        "        if cone.where(Point2(g.x, g.y)) != 'interior':\n"
        "            continue\n"
        "        while g.cross(base) > d:\n"
        "            g = g.x\n"
        "    return [h.dot(h) for h in gs]\n"
        "def g(gs):\n"
        "    return [Point2(h, h) for h in gs]\n"
    )
    assert point_calls_in_loops(source, "example.py", {"f"}) == [
        ("Point2()", 5), ("cross()", 7), ("dot()", 9), ("where()", 5)]
    # statement loops alone: the comprehension of line 9 is left out
    assert point_calls_in_loops(source, "example.py", {"f"}, loops=(ast.For, ast.While)) == [
        ("Point2()", 5), ("cross()", 7), ("where()", 5)]


def test_simple_loops_build_no_points():
    path = PACKAGE / "simple.py"
    assert point_calls_in_loops(path.read_text(), str(path),
                                {"_place_cluster", "_lines_below_mouths"}) == []


def test_halfplane_intersection_keeps_integer_corners():
    # its loop over the constraint lines keeps each corner as an integer
    # triple, and _hull_corners orders them: a Point2 is built only for
    # each returned corner, after the loop, and no convex_hull is called
    path = PACKAGE / "geometry.py"
    source = path.read_text()
    assert point_calls_in_loops(source, str(path), {"halfplane_intersection"},
                                loops=(ast.For, ast.While)) == []
    [fn] = [node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == "halfplane_intersection"]
    assert "convex_hull" not in {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}


# construct.py builds the 4n-2 scaffold on homogeneous integers: its
# points are integer triples, its lines integer cross products and its
# accept tests signs, so it calls none of geometry's Fraction line helpers
FRACTION_LINE_HELPERS = {"line_intersection", "lerp", "midpoint", "strictly_between"}
FRACTION_LINE_METHODS = {"eval", "side"}


def fraction_line_calls(source: str, filename: str) -> List[Tuple[str, int]]:
    """(what, line) for each call of Line.through, of a ``.eval`` or
    ``.side`` method, or of one of FRACTION_LINE_HELPERS (by name or as
    an attribute, such as ``geometry.lerp``)."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in FRACTION_LINE_HELPERS:
            out.append((f.id + "()", node.lineno))
        elif isinstance(f, ast.Attribute):
            if f.attr in FRACTION_LINE_HELPERS or f.attr in FRACTION_LINE_METHODS:
                out.append(("." + f.attr + "()", node.lineno))
            elif f.attr == "through" and isinstance(f.value, ast.Name) and f.value.id == "Line":
                out.append(("Line.through()", node.lineno))
    return sorted(out)


def test_fraction_line_calls_flags_each_helper_and_method():
    source = (
        "from . import geometry\n"
        "def f(p, q, ln):\n"
        "    a = Line.through(p, q).eval(p) + ln.side(q)\n"
        "    return lerp(p, q, 2), geometry.midpoint(p, q), strictly_between(p, q, p)\n"
        "def g(p, q):\n"
        "    return line_intersection(p, q), Line(1, 2, 3), p.cross(q)\n"
    )
    assert fraction_line_calls(source, "example.py") == [
        (".eval()", 3), (".midpoint()", 4), (".side()", 3), ("Line.through()", 3),
        ("lerp()", 4), ("line_intersection()", 6), ("strictly_between()", 4)]


def test_construct_calls_no_fraction_line_helper():
    path = PACKAGE / "construct.py"
    assert fraction_line_calls(path.read_text(), str(path)) == []


def test_scaffold_builder_scales_nothing_itself():
    # construct._build_scaffold scales P through geometry._Frame and a
    # snap target through geometry._homogeneous
    path = PACKAGE / "construct.py"
    source = path.read_text()
    [fn] = [node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == "_build_scaffold"]
    assert scaling_uses(ast.get_source_segment(source, fn), str(path)) == []


# darkness.py and simple.py decide on integers: the boundary census reads
# its analysis's halfplanes and the triangulation, the vertex cones and
# the clearances read P.ints, so neither module calls geometry's Fraction
# point predicates (nor Point2.cross)
FRACTION_PREDICATES = {"orientation", "cross", "collinear", "strictly_between", "on_segment"}
INTEGER_DECIDERS = [PACKAGE / "darkness.py", PACKAGE / "simple.py"]


def fraction_predicate_calls(source: str, filename: str) -> List[Tuple[str, int]]:
    """(what, line) for each call of one of FRACTION_PREDICATES, by name
    or as an attribute (``geometry.on_segment``, ``p.cross``)."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in FRACTION_PREDICATES:
                out.append((name + "()", node.lineno))
    return sorted(out)


def test_fraction_predicate_calls_flags_names_and_attributes():
    source = (
        "from . import geometry\n"
        "def f(a, b, c):\n"
        "    return orientation(a, b, c), geometry.on_segment(a, b, c), a.cross(b)\n"
        "def g(a, b, c):\n"
        "    return _orient(a, b, c), collinear(a, b, c) or strictly_between(a, b, c)\n"
    )
    assert fraction_predicate_calls(source, "example.py") == [
        ("collinear()", 5), ("cross()", 3), ("on_segment()", 3), ("orientation()", 3),
        ("strictly_between()", 5)]


@pytest.mark.parametrize("path", INTEGER_DECIDERS, ids=[p.name for p in INTEGER_DECIDERS])
def test_integer_deciders_call_no_fraction_predicate(path):
    assert fraction_predicate_calls(path.read_text(), str(path)) == []


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


# _filter._sorted_exact sorts on floats first and compares exactly only
# within runs of equal floats; a plain sort keyed on the cmp_to_key keys
# would compare every pair through Python.  A linear min (max_darkness's
# witness) is no sort and keeps its key.
EXACT_KEYS = {"_XY", "_RATIO"}
EXACT_SORTER = "_sorted_exact"


def exact_key_sorts(source: str, filename: str) -> List[Tuple[str, int]]:
    """(what, line) for each ``sorted(..., key=...)`` or ``.sort(key=...)``
    whose key names one of EXACT_KEYS, outside a function EXACT_SORTER."""
    tree = ast.parse(source, filename)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == EXACT_SORTER
              for node in ast.walk(fn)}
    out: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "sorted":
            what = "sorted()"
        elif isinstance(f, ast.Attribute) and f.attr == "sort":
            what = ".sort()"
        else:
            continue
        for kw in node.keywords:
            if kw.arg == "key" and EXACT_KEYS & {
                    n.id for n in ast.walk(kw.value) if isinstance(n, ast.Name)}:
                out.append((what, node.lineno))
    return sorted(out)


def test_exact_key_sorts_flags_sorts_outside_the_helper():
    source = (
        "def _sorted_exact(items, key):\n"
        "    return sorted(items, key=key) + sorted(items, key=_XY)\n"
        "def f(pts, ts):\n"
        "    pts.sort(key=_XY)\n"
        "    a = sorted(ts, key=_RATIO)\n"
        "    b = sorted(ts, key=lambda t: (_RATIO(t), 1))\n"
        "    c = _sorted_exact(ts, _RATIO)\n"
        "    return min(pts, key=_XY), sorted(pts), sorted(ts, key=len), c\n"
    )
    assert exact_key_sorts(source, "example.py") == [
        (".sort()", 4), ("sorted()", 5), ("sorted()", 6)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_exact_keys_sort_only_through_the_float_first_helper(path):
    assert exact_key_sorts(path.read_text(), str(path)) == []


# every float-error bound of the package is derived once, in _filter: no
# other module holds a float-error constant (a power of two with a
# negative exponent, an ldexp) or one of the per-module constants the
# filter replaced
FLOAT_ERROR_NAMES = {"ldexp", "_SIGN_SLACK", "_TINY", "_CERT_SHIFT", "_EXACT_SUM",
                     "_SLACK", "_UNDERFLOW", "_EXACT"}
UNFILTERED = [p for p in MODULES if p.name != "_filter.py"]


def float_error_constants(source: str, filename: str) -> List[Tuple[str, int]]:
    """(what, line) for each power of two with a negative exponent, such
    as ``2.0 ** -50`` or ``2 ** -SHIFT``, and each name, attribute or
    import of FLOAT_ERROR_NAMES (such as ``math.ldexp``)."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(ast.parse(source, filename)):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.left, ast.Constant) and node.left.value == 2
                and isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)):
            out.append(("2 ** -", node.lineno))
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        if name in FLOAT_ERROR_NAMES:
            out.append((name, node.lineno))
    return sorted(out)


def test_float_error_constants_flags_powers_ldexp_and_the_old_names():
    source = (
        "import math\n"
        "from math import ldexp\n"
        "_SIGN_SLACK = 2.0 ** -50\n"
        "def f(m, x):\n"
        "    eps = m * 2 ** -_CERT_SHIFT + math.ldexp(1.0, -52)\n"
        "    return eps + _TINY + ldexp(x, 3) + sampling._EXACT_SUM\n"
        "def g(n):\n"
        "    return 2 ** 52 + 2.0 ** (n - 1) + 3 ** -2 + (1 << 20) + 0.5 ** n\n"
    )
    assert float_error_constants(source, "example.py") == [
        ("2 ** -", 3), ("2 ** -", 5), ("_CERT_SHIFT", 5), ("_EXACT_SUM", 6), ("_SIGN_SLACK", 3),
        ("_TINY", 6), ("ldexp", 2), ("ldexp", 5), ("ldexp", 6)]


@pytest.mark.parametrize("path", UNFILTERED, ids=[p.name for p in UNFILTERED])
def test_float_error_constants_live_only_in_the_filter(path):
    assert float_error_constants(path.read_text(), str(path)) == []


# each error bound of _filter is derived in its comment, under a heading
# that names the function ("A shifted parameter (_shifted)."), and no
# other module defines one: the float constants above stay in the filter
BOUND_FUNCTIONS = {"_sum_bound", "_rounding_bound", "_quotient_bound", "_affine", "_x_bounds",
                   "_shifted", "_midpoint", "_scaled", "_margin"}


def derived_in_comments(source: str) -> Set[str]:
    """Names that a ``#`` comment of source gives in parentheses, alone
    or in a list: ``(_affine, _x_bounds)``."""
    out: Set[str] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            for group in re.findall(r"\(([\w, ]+)\)", tok.string):
                out.update(name.strip() for name in group.split(","))
    return out


def test_derived_in_comments_reads_parenthesised_names():
    source = (
        "# A point's x (_affine, _x_bounds).  For floats\n"
        "# a scaled value (_scaled); not (a + b) or f(x)\n"
        "def g(x):\n"
        "    return x  # the bound (_inline)\n"
    )
    assert derived_in_comments(source) >= {"_affine", "_x_bounds", "_scaled", "_inline"}
    assert "_shifted" not in derived_in_comments(source)


def test_every_filter_bound_is_derived_in_the_filter():
    path = PACKAGE / "_filter.py"
    source = path.read_text()
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert BOUND_FUNCTIONS <= defined
    assert BOUND_FUNCTIONS <= derived_in_comments(source)
    elsewhere = {(p.name, node.name) for p in UNFILTERED for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name in BOUND_FUNCTIONS}
    assert elsewhere == set()


# the sampler takes one path on every polygon: a ConvexPolygon is a simple
# polygon, and the general float pass is exact on it, so sampling.py never
# asks which kind of region it holds
REGION_KINDS = {"ConvexPolygon", "SimplePolygon", "Wedge", "_Polygon", "_Region"}


def region_kind_forks(source: str, filename: str) -> List[Tuple[str, int]]:
    """(what, line) for each read of a ``.convex`` attribute and each
    ``isinstance`` test against one of REGION_KINDS (by name or as an
    attribute, such as ``geometry.Wedge``, alone or in a tuple)."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute) and node.attr == "convex":
            out.append((".convex", node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            names = {k.id if isinstance(k, ast.Name) else getattr(k, "attr", None) for k in kinds}
            if names & REGION_KINDS:
                out.append(("isinstance()", node.lineno))
    return sorted(out)


def test_region_kind_forks_flags_convex_reads_and_kind_tests():
    source = (
        "from . import geometry\n"
        "def f(frame, P, spec):\n"
        "    if frame.convex or isinstance(P, ConvexPolygon):\n"
        "        return isinstance(P, (list, geometry.Wedge))\n"
        "    return isinstance(spec, (list, tuple)), isinstance(P, Point2), frame.convexity\n"
    )
    assert region_kind_forks(source, "example.py") == [
        (".convex", 3), ("isinstance()", 3), ("isinstance()", 4)]


def test_the_sampler_never_forks_on_the_region_kind():
    path = PACKAGE / "sampling.py"
    assert region_kind_forks(path.read_text(), str(path)) == []


# the sampler's float pass is laid out [edge][sample] and [guard][sample]:
# each row is a contiguous run of samples, edge e runs from row e to row
# e + 1 of the closed wall columns, so no matrix is rolled, and every
# reduction over edges or guards runs along axis 0; no call names axis 1
def row_major_passes(source: str, filename: str) -> List[Tuple[str, int]]:
    """(what, line) for each call of a ``roll`` (``np.roll``, or a bare
    name) and each call with the keyword ``axis=1`` or ``axis=-1``."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "roll") or (
                isinstance(f, ast.Attribute) and f.attr == "roll"):
            out.append(("roll()", node.lineno))
        for kw in node.keywords:
            if kw.arg != "axis":
                continue
            try:
                axis = ast.literal_eval(kw.value)
            except ValueError:  # a name: not a literal row axis
                continue
            if axis in (1, -1):
                out.append(("axis=%d" % axis, node.lineno))
    return sorted(out)


def test_row_major_passes_flags_rolls_and_reductions_along_rows():
    source = (
        "import numpy as np\n"
        "from numpy import roll\n"
        "def f(a, m):\n"
        "    b = np.roll(a, -1) - roll(a, 1, axis=0)\n"
        "    return m.any(axis=1), np.all(m, axis=-1), m.sum(axis=0), m.max(axis=k), b[1:]\n"
    )
    assert row_major_passes(source, "example.py") == [
        ("axis=-1", 5), ("axis=1", 5), ("roll()", 4), ("roll()", 4)]


def test_the_sampler_rolls_nothing_and_reduces_along_columns():
    path = PACKAGE / "sampling.py"
    assert row_major_passes(path.read_text(), str(path)) == []


# the exact engine builds big-integer values only where floats cannot
# decide: _point_key where a crossing that is reported or compared exactly
# gets its key, and _confirm in the scan's unsure path and that key
# builder.  The crossing table's tied hits take their exact parameters
# from the line records (_Pieces.parameters), with no _confirm.  A call
# from anywhere else would run once per hit or per pair.
EXACT_CALLERS = {
    "_point_key": {"_crossing_key"},
    "_confirm": {"_pair_scan", "_crossing_key"},
}

# the sampler orders and deduplicates its samples on their float
# intervals: it builds no point key, confirms a hit only in the one
# memoized builder of its candidates (exact_hit, for a point or a cut that
# is read), and builds a gcd key only where two samples' intervals overlap
SAMPLER_EXACT_CALLERS = {
    "_point_key": set(),
    "_confirm": {"exact_hit"},
    "gcd": {"_distinct"},
}


def exact_calls_outside(source: str, filename: str,
                        table=EXACT_CALLERS) -> List[Tuple[str, str, int]]:
    """(name, function, line) for each call of a name of table from a
    function (the innermost enclosing def; '<module>' at top level) that
    is not allowed to make it."""
    out: List[Tuple[str, str, int]] = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and where not in table.get(child.func.id, {where})):
                out.append((child.func.id, where, child.lineno))
            visit(child, where)

    visit(ast.parse(source, filename), "<module>")
    return sorted(out)


def test_exact_calls_outside_flags_per_hit_calls():
    source = (
        "def _crossing_key(pieces, i, j):\n"
        "    un, _, D = _confirm(pieces[i], pieces[j])\n"
        "    return _point_key(pieces[i], un, D)\n"
        "class A:\n"
        "    def crossings(self):\n"
        "        for i, j, un, _, D in _pair_hits(self.pieces):\n"
        "            self.keys.append(_point_key(self.pieces[i], un, D))\n"
        "    def darkest(self):\n"
        "        def key(k):\n"
        "            return _crossing_key(self.pieces, k, k + 1)\n"
        "        return [_confirm(p, q) for p, q in self.pairs], key\n"
        "def _pair_hits(pieces):\n"
        "    yield _confirm(pieces[0], pieces[1])\n"
        "KEY = _point_key((0, 0, 1, 0), 1, 1)\n"
    )
    assert exact_calls_outside(source, "example.py") == [
        ("_confirm", "_pair_hits", 13), ("_confirm", "darkest", 11),
        ("_point_key", "<module>", 14), ("_point_key", "crossings", 7)]


def test_the_exact_engine_builds_keys_and_confirms_only_where_floats_cannot():
    path = PACKAGE / "darkness.py"
    assert exact_calls_outside(path.read_text(), str(path)) == []


def test_exact_calls_outside_flags_the_samplers_per_sample_keys():
    source = (
        "def _distinct(samples, px, py):\n"
        "    return [gcd(X, Y, W) for X, Y, W in samples]\n"
        "def _suspicious_points(pieces):\n"
        "    for i, j, un, vn, D in _pair_hits(pieces):\n"
        "        yield _point_key(pieces[i], un, D), _confirm(pieces[i], pieces[j])\n"
        "def _scan(samples):\n"
        "    return {(X // gcd(X, Y, W), Y, W) for X, Y, W in samples}\n"
        "def _candidates(pieces, I, J):\n"
        "    def exact_hit(k):\n"
        "        return _confirm(pieces[I[k]], pieces[J[k]])\n"
        "    return [_confirm(pieces[i], pieces[j]) for i, j in zip(I, J)], exact_hit\n"
    )
    assert exact_calls_outside(source, "example.py", SAMPLER_EXACT_CALLERS) == [
        ("_confirm", "_candidates", 11), ("_confirm", "_suspicious_points", 5),
        ("_point_key", "_suspicious_points", 5), ("gcd", "_scan", 7)]


def test_the_sampler_keys_only_samples_that_tie_in_floats():
    path = PACKAGE / "sampling.py"
    assert exact_calls_outside(path.read_text(), str(path), SAMPLER_EXACT_CALLERS) == []


# one frozen value base: geometry._Frozen refuses assignment and deletion
# and restores slots on copy and pickle, so no other class guards or
# restores its slots by a method of its own
SLOT_GUARDS = {"__setattr__", "__delattr__", "__reduce__", "__reduce_ex__",
               "__getstate__", "__setstate__"}


def slot_guard_classes(source: str, filename: str) -> List[Tuple[str, str, int]]:
    """(class, method, line) for each of SLOT_GUARDS that a class body
    defines, by a def or by an assignment, nested classes included."""
    out: List[Tuple[str, str, int]] = []
    for cls in ast.walk(ast.parse(source, filename)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out.extend((cls.name, n, node.lineno) for n in names if n in SLOT_GUARDS)
    return sorted(out)


def test_slot_guard_classes_flags_defs_and_assignments():
    source = (
        "class A:\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError(name)\n"
        "    __delattr__ = __setattr__\n"
        "    def __eq__(self, other):\n"
        "        return self is other\n"
        "class B(A):\n"
        "    def __reduce__(self):\n"
        "        class C:\n"
        "            def __getstate__(self):\n"
        "                return {}\n"
        "        return (B, ())\n"
        "def __setstate__(self, state):\n"
        "    object.__setattr__(self, 'x', state)\n"
    )
    assert slot_guard_classes(source, "example.py") == [
        ("A", "__delattr__", 4), ("A", "__setattr__", 2), ("B", "__reduce__", 8),
        ("C", "__getstate__", 10)]


def test_only_the_frozen_base_guards_or_restores_slots():
    found = {(p.stem, cls) for p in MODULES
             for cls, _, _ in slot_guard_classes(p.read_text(), str(p))}
    assert found == {("geometry", "_Frozen")}
