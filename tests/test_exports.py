"""No dead exports: each public top-level name of ``src/capmach`` is read
in the package or the bench outside its own definition (files parsed)."""

import ast
from pathlib import Path

from capmach.core import OPCODES

ROOT = Path(__file__).resolve().parent.parent


def _read(n):
    """The name node ``n`` reads as a name, an attribute or an alias."""
    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
        return n.id
    if isinstance(n, ast.Attribute):
        return n.attr
    return n.name if isinstance(n, ast.alias) else None


def _defined(d):
    """The names that the top-level statement ``d`` defines."""
    if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
        return [d.name]
    targets = getattr(d, "targets", [getattr(d, "target", None)])
    return [n.id for t in targets if t for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def test_every_public_name_has_a_reader():
    src = sorted((ROOT / "src" / "capmach").glob("*.py"))
    trees = {f: ast.parse(f.read_text())
             for f in src + sorted((ROOT / "bench").glob("*.py"))}
    reads = [(_read(n), f, n.lineno) for f, t in trees.items()
             for n in ast.walk(t) if _read(n)]
    dead = [f"{f.stem}.{x}" for f in src for d in trees[f].body
            for x in _defined(d) if x[0] != "_" and not any(
                r == x and (g != f or not d.lineno <= line <= d.end_lineno)
                for r, g, line in reads)]
    # the handlers are read by name, through ``machine._HANDLER``
    assert sorted(set(dead) - {f"machine.exec_{op}" for op in OPCODES}) == []
