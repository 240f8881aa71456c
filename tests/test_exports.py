"""No dead exports: each public top-level name of ``src/capmach``, and
each public method of its classes, is read in the package or the bench
outside its own definition (files parsed)."""

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


def _sources():
    """The files of ``src/capmach`` and all parsed trees, src and bench."""
    src = sorted((ROOT / "src" / "capmach").glob("*.py"))
    trees = {f: ast.parse(f.read_text())
             for f in src + sorted((ROOT / "bench").glob("*.py"))}
    return src, trees


def _unread(defs, reads):
    """The label of each ``(label, name, file, statement)`` definition
    whose name none of ``reads``, ``(name, file, line)`` triples, reads
    outside the statement itself."""
    return [label for label, x, f, d in defs if not any(
        r == x and (g != f or not d.lineno <= line <= d.end_lineno)
        for r, g, line in reads)]


def test_every_public_name_has_a_reader():
    src, trees = _sources()
    reads = [(_read(n), f, n.lineno) for f, t in trees.items()
             for n in ast.walk(t) if _read(n)]
    dead = _unread([(f"{f.stem}.{x}", x, f, d) for f in src
                    for d in trees[f].body for x in _defined(d)
                    if x[0] != "_"], reads)
    # the handlers are read by name, through ``machine._HANDLER``
    assert sorted(set(dead) - {f"machine.exec_{op}" for op in OPCODES}) == []


def test_every_public_method_has_a_reader():
    # a public method of a class in ``src/capmach`` is read as an
    # attribute, ``.name``, in the package or the bench outside its own
    # definition: a method that only the tests call lives in the tests
    src, trees = _sources()
    reads = [(n.attr, f, n.lineno) for f, t in trees.items()
             for n in ast.walk(t) if isinstance(n, ast.Attribute)]
    methods = [(f"{f.stem}.{c.name}.{d.name}", d.name, f, d) for f in src
               for c in trees[f].body if isinstance(c, ast.ClassDef)
               for d in c.body if isinstance(d, ast.FunctionDef)
               and d.name[0] != "_"]
    assert _unread(methods, reads) == []
