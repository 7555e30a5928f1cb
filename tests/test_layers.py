"""Import layers: each package module imports only modules below it.

The order is the one of the package docstring, bottom up.  ``tam`` holds
the verifiers and ``oracle`` the references, which share no code with the
engine: ``tam`` imports only ``errors``, and ``oracle`` sits below ``shield``.
``visibility`` sits below ``driver``, so it reads rows in the transposed
frame without knowing ``Frame``.

Test modules import no other test module: inputs that more than one of
them reads live in ``conftest.py``.

A fresh import of the package leaves nothing of the last one alive: no
module-level object outside the package holds its classes.

Every name a package or tool module imports is read in that module.  The
package's ``__init__.py`` is exempt: its imports are its ``__all__``.
"""

import ast
import gc
import importlib
import os
import sys
import weakref

from conftest import REPO

LAYERS = ("errors", "budgets", "geometry", "tam", "visibility", "oracle", "shield",
          "driver", "formats", "svgout", "cli")
PACKAGE = os.path.join(REPO, "src", "pumpkit")
TESTS = os.path.join(REPO, "tests")
TOOLS = os.path.join(REPO, "tools")


def _imports(module):
    """Dotted names that ``module`` imports, its relative imports under ``pumpkit``."""
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "pumpkit" if node.level == 1 else node.module
            if node.level == 1 and node.module:
                dotted.append(f"pumpkit.{node.module}")
            else:  # from . import a, b  /  from pumpkit import a, b
                dotted += [f"{base}.{a.name}" for a in node.names]
    return dotted


def _package_imports(module):
    """Names of the package modules that ``module`` imports."""
    return {name.split(".")[1] for name in _imports(module) if name.startswith("pumpkit.")}


def test_every_module_is_layered():
    modules = {name[:-3] for name in os.listdir(PACKAGE)
               if name.endswith(".py") and name != "__init__.py"}
    assert modules == set(LAYERS)


def test_modules_import_only_lower_layers():
    for rank, module in enumerate(LAYERS):
        upward = _package_imports(module) - set(LAYERS[:rank])
        assert not upward, f"{module} imports {sorted(upward)} from its own layer or above"
        # The sampler and the references stand apart from the benchmark's generators.
        assert not [n for n in _imports(module) if n.split(".")[0] == "perfbench"], module


def test_tam_imports_only_errors():
    assert _package_imports("tam") == {"errors"}


def _test_module_imports(source):
    """The ``test_*`` modules ``source`` imports, at any depth."""
    nodes = [n for n in ast.walk(ast.parse(source))
             if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [getattr(n, "module", None) or a.name for n in nodes for a in n.names]
    return {name.split(".")[0] for name in names if name.startswith("test_")}


def test_test_modules_import_no_test_module():
    assert _test_module_imports("import test_a\ndef f():\n    from test_b import x\n"
                                "from . import test_c\n") == {"test_a", "test_b", "test_c"}
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py"):
            with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                found = _test_module_imports(fh.read())
            assert not found, f"{name} imports {sorted(found)}; shared inputs go in conftest.py"


def _unread_imports(source):
    """Names that ``source`` imports and never reads, ``__future__`` features aside.

    A name counts as read where it is loaded, and inside a string annotation.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    notes = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    trees = [tree] + [ast.parse(c.value, mode="eval") for note in notes if note is not None
                      for c in ast.walk(note)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    read = {n.id for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_every_import_is_read():
    assert _unread_imports("from __future__ import annotations\nimport os.path\n"
                           "from a import b as c, d\nx: 'd' = 1\n") == ["c", "os"]
    files = [os.path.join(PACKAGE, f"{m}.py") for m in LAYERS]
    files += [os.path.join(TOOLS, n) for n in sorted(os.listdir(TOOLS)) if n.endswith(".py")]
    for name in files:
        with open(name, encoding="utf-8") as fh:
            unread = _unread_imports(fh.read())
        assert not unread, f"{os.path.relpath(name, REPO)} never reads {unread}"


def _drop_package():
    """Remove ``pumpkit`` and its modules from ``sys.modules``; return them."""
    names = [n for n in sys.modules if n == "pumpkit" or n.startswith("pumpkit.")]
    return {n: sys.modules.pop(n) for n in names}


def test_a_fresh_import_frees_the_last_one():
    # A subscripted alias such as Union[PumpingSpec, FragilityCert] built at
    # import time lands in typing's cache, which then keeps that import's
    # classes, and through them its modules, alive for good.
    kept = _drop_package()
    try:
        formats = importlib.import_module("pumpkit.formats")
        refs = {name: weakref.ref(getattr(formats, name))
                for name in ("Path", "PumpingSpec", "TileType")}
        del formats
        _drop_package()
        importlib.import_module("pumpkit.formats")
        gc.collect()
        alive = sorted(name for name, ref in refs.items() if ref() is not None)
        assert not alive, f"{alive} of the first import outlive the second"
    finally:
        _drop_package()
        sys.modules.update(kept)
