"""No write-only data: every annotated class field of the package is read."""

import ast
import glob
import os

from conftest import REPO


def _trees(*dirs):
    for d in dirs:
        for name in sorted(glob.glob(os.path.join(REPO, d, "**", "*.py"), recursive=True)):
            with open(name, encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def test_every_annotated_field_is_read():
    fields = []
    for name, tree in _trees(os.path.join("src", "pumpkit")):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                fields += [(os.path.basename(name), cls.name, st.target.id)
                           for st in cls.body
                           if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
    read = {node.attr
            for _, tree in _trees("src", "tests", "demos")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert len(fields) > 50
    unread = [f"{mod}: {cls}.{attr}" for mod, cls, attr in fields if attr not in read]
    assert not unread, f"fields never read as attributes: {unread}"
