"""The package namespace: every name in gptau.__all__ is defined, so a
deleted function cannot leave a stale export behind; and every private
helper has a caller, so a dead one cannot stay behind either."""

import ast
import pathlib

import gptau


def test_every_export_resolves():
    missing = [n for n in gptau.__all__ if not hasattr(gptau, n)]
    assert missing == []
    assert len(set(gptau.__all__)) == len(gptau.__all__)


def test_star_import():
    ns = {}
    exec("from gptau import *", ns)
    assert set(gptau.__all__) <= set(ns)


def test_every_private_helper_is_referenced():
    """Every private function and class of the package is referred to by
    name (a call, an attribute or an import) outside its own definition:
    a helper whose last caller is gone is deleted with it."""
    defs, refs = [], []
    for path in sorted(pathlib.Path(gptau.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defs.append((path, node))
            elif isinstance(node, ast.Name):
                refs.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                refs.append((path, node.name, node.lineno))
    unused = [
        "%s.%s" % (path.stem, d.name) for path, d in defs
        if not any(name == d.name
                   and (p != path or not d.lineno <= line <= d.end_lineno)
                   for p, name, line in refs)]
    assert defs
    assert unused == []


def _unused_imports(path):
    """The names a module imports and never refers to."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[(a.asname or a.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s:%d: %s" % (path.name, line, name)
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """Every name imported by a library module (the package __init__
    re-exports and is left out) or by a test module is used in it."""
    src = pathlib.Path(gptau.__file__).parent
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(pathlib.Path(__file__).parent.glob("*.py"))
    unused = [u for p in paths for u in _unused_imports(p)]
    assert unused == []


def _is_click_command(node):
    """Is the function decorated as a click command or group?"""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in (
                "command", "group"):
            return True
    return False


def test_every_public_function_is_referenced():
    """Every public top-level function and class of the package is
    referred to by name outside its own definition, in the package or
    in the tests: a public function nobody calls is deleted.  The click
    commands are called by the command line and are left out."""
    src = pathlib.Path(gptau.__file__).parent
    tests = pathlib.Path(__file__).parent
    defs, refs = [], []
    for path in sorted(src.glob("*.py")) + sorted(tests.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.parent == src:
            defs += [(path, node) for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and not node.name.startswith("_")
                     and not _is_click_command(node)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.attr, node.lineno))
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                refs.append((path, node.name, node.lineno))
    unused = [
        "%s.%s" % (path.stem, d.name) for path, d in defs
        if not any(name == d.name
                   and (p != path or not d.lineno <= line <= d.end_lineno)
                   for p, name, line in refs)]
    assert defs
    assert unused == []


def test_package_imports_are_module_level():
    """A module imports the rest of the package at its top, so that the
    import layering reads off the import blocks.  Only the two real
    cycles import inside a function: approx and gorenstein reach back to
    classify, which imports both."""
    cycles = {("approx", "classify"), ("gorenstein", "classify")}
    local = set()
    for path in sorted(pathlib.Path(gptau.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local |= {(path.stem, node.module) for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level}
    assert local <= cycles, sorted(local - cycles)
