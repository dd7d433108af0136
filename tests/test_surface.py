"""The public surface has callers: every name in a module's ``__all__`` is
referenced somewhere in ``src`` outside its own definition.

References are read from the syntax tree: a name loaded, or an attribute
read under that name (``linalg.rref``).  Imports, strings and docstrings do not
count, so a name that is only imported, exported or mentioned is dead.
Exempt are the package's own exports (``novikov.__all__``) and the JSON
writers that, with their readers, make the round trip the schemas promise.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "novikov"
KEEP = {"algebra_to_json", "witness_to_json"}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _defined(node):
    """The module-level names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _referenced(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_exported_name_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for node in tree.body
            for name in _referenced(node) - _defined(node)}
    kept = used | set(_exported(trees.pop("__init__"))) | KEEP
    dead = sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in _exported(tree) if name not in kept)
    assert not dead, f"exported but never referenced in src: {dead}"
