"""No write-only data: every annotated class field of the package is read.

Fields are matched to reads by attribute name.  A read that only copies a
field into another one (``a.x = b.y``, or a tuple of such reads) counts
for ``y`` only if ``x`` is read in turn, so a chain of copies that ends in
a field nobody reads leaves every field along it unread.
"""

import ast
import glob
import os

from conftest import REPO


def _trees(*dirs):
    for d in dirs:
        for name in sorted(glob.glob(os.path.join(REPO, d, "**", "*.py"), recursive=True)):
            with open(name, encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def _copies(node):
    """``(source, target)`` attribute names of ``a.x = b.y`` or ``a.x = (b.y, c.z)``."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)):
        return []
    value = node.value
    sources = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
    if not all(isinstance(s, ast.Attribute) for s in sources):
        return []
    return [(s, node.targets[0].attr) for s in sources]


def read_attributes(trees):
    """Attribute names read for their own sake, closed under copies into read names."""
    copied_into: dict[str, set[str]] = {}
    copy_nodes = set()
    for tree in trees:
        for node in ast.walk(tree):
            for source, target in _copies(node):
                copied_into.setdefault(source.attr, set()).add(target)
                copy_nodes.add(id(source))
    read = {node.attr
            for tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in copy_nodes}
    grew = True
    while grew:
        grew = False
        for source, targets in copied_into.items():
            if source not in read and targets & read:
                read.add(source)
                grew = True
    return read


def annotated_fields(trees):
    return [(os.path.basename(name), cls.name, st.target.id)
            for name, tree in trees
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for st in cls.body
            if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]


def test_every_annotated_field_is_read():
    fields = annotated_fields(list(_trees(os.path.join("src", "pumpkit"))))
    read = read_attributes([tree for _, tree in _trees("src", "tests", "demos")])
    assert len(fields) > 50
    unread = [f"{mod}: {cls}.{attr}" for mod, cls, attr in fields if attr not in read]
    assert not unread, f"fields never read as attributes: {unread}"


def test_copy_chain_into_an_unread_field_counts_as_unread():
    tree = ast.parse(
        "class A:\n    x: int\n    y: int\n    z: int\n    w: int\n"
        "def f(a, b):\n"
        "    a.x = b.y\n"         # y is copied into x, which nobody reads
        "    a.y = b.z\n"         # z is copied into y: unread as well
        "    a.w = (b.z, b.x)\n"  # and into w, also unread
        "    return a.q\n")
    read = read_attributes([tree])
    assert read == {"q"}
    assert {attr for _, _, attr in annotated_fields([("m.py", tree)])} - read == {
        "x", "y", "z", "w"}
    tree = ast.parse("def g(a):\n    return a.w\n")
    assert read_attributes([ast.parse(
        "def f(a, b):\n    a.x = b.y\n    a.w = (b.z, b.x)\n"), tree]) == {"w", "x", "y", "z"}
