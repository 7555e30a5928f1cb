"""Import layers: each package module imports only modules below it.

The order is the one of the package docstring, bottom up.  ``tam`` holds
the verifiers, which share no code with the engine, so it imports only
``errors``.  ``visibility`` sits below ``driver``, so it reads rows in the
transposed frame without knowing ``Frame``.
"""

import ast
import os

from conftest import REPO

LAYERS = ("errors", "budgets", "geometry", "tam", "visibility", "shield",
          "driver", "oracle", "formats", "svgout", "cli")
PACKAGE = os.path.join(REPO, "src", "pumpkit")


def _package_imports(module):
    """Names of the package modules that ``module`` imports."""
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
    return {name.split(".")[1] for name in dotted if name.startswith("pumpkit.")}


def test_every_module_is_layered():
    modules = {name[:-3] for name in os.listdir(PACKAGE)
               if name.endswith(".py") and name != "__init__.py"}
    assert modules == set(LAYERS)


def test_modules_import_only_lower_layers():
    for rank, module in enumerate(LAYERS):
        upward = _package_imports(module) - set(LAYERS[:rank])
        assert not upward, f"{module} imports {sorted(upward)} from its own layer or above"


def test_tam_imports_only_errors():
    assert _package_imports("tam") == {"errors"}
