"""The package holds only what the command line reaches.

Every top-level function and class in ``src/lefschetz_locus``, and every
method that is not a dunder, must be reachable by name, transitively, from
``cli.main``.  Names are matched by name alone (a reference to ``.rank``
reaches every definition called ``rank``), so the scan can only err on the
side of keeping code.  Imports and ``__all__`` do not count as uses.
Test-only oracles live in ``tests/helpers.py`` instead.

The functions the benchmark tracer in ``perfbench/spans.py`` wraps by name
are roots as well for definitions: the tracer looks each of them up when it
installs.  Exports must be reached from ``cli.main`` alone.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import lefschetz_locus
from lefschetz_locus import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lefschetz_locus"


def _is_method(item: ast.AST) -> bool:
    return isinstance(item, ast.FunctionDef) and not (
        item.name.startswith("__") and item.name.endswith("__"))


def _definitions() -> list[tuple[str, str, ast.AST]]:
    """(name, "module.qualname" or None, node) for every definition; module
    constants are followed when reached but not required to be."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                out.append((stmt.name, f"{path.stem}.{stmt.name}", stmt))
            if isinstance(stmt, ast.ClassDef):
                out += [(item.name, f"{path.stem}.{stmt.name}.{item.name}", item)
                        for item in stmt.body if _is_method(item)]
            elif isinstance(stmt, ast.Assign):
                out += [(t.id, None, stmt) for t in stmt.targets
                        if isinstance(t, ast.Name) and t.id != "__all__"]
    return out


def _references(node: ast.AST) -> set[str]:
    """Names a definition uses.  A class uses what its bases, decorators,
    fields and dunder methods use; its other methods are reached by name.
    A name a function binds itself (an argument or an assignment) is a
    local, not a use of the definition of that name."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        parts = node.bases + node.decorator_list + [i for i in node.body if not _is_method(i)]
    out: set[str] = set()
    for part in parts:
        subs = list(ast.walk(part))
        local = {sub.arg for sub in subs if isinstance(sub, ast.arg)}
        if isinstance(part, ast.FunctionDef):
            local |= {sub.id for sub in subs
                      if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
        out |= {sub.id for sub in subs if isinstance(sub, ast.Name) and sub.id not in local}
        out |= {sub.attr for sub in subs if isinstance(sub, ast.Attribute)}
    return out


def _traced_targets() -> list[tuple[str, str]]:
    """(module, attribute) rows of the tracer's TARGETS table."""
    for stmt in ast.parse((ROOT / "perfbench" / "spans.py").read_text()).body:
        if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "TARGETS":
            return [tuple(ast.literal_eval(e) for e in row.elts[:2]) for row in stmt.value.elts]
    raise AssertionError("perfbench/spans.py has no TARGETS table")


def _traced_names() -> set[str]:
    """Attribute names in the tracer's TARGETS table (``Class.method`` gives
    both parts)."""
    return {part for _, attr in _traced_targets() for part in attr.split(".")}


def _reached(definitions, roots) -> set[str]:
    reached: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [r for n, _, node in definitions if n == name for r in _references(node)]
    return reached


def test_every_definition_is_reached_from_the_cli():
    definitions = _definitions()
    reached = _reached(definitions, ["main", *_traced_names()])
    unreached = sorted(label for name, label, _ in definitions if label and name not in reached)
    assert not unreached, f"defined in src/ but reached from no CLI path: {unreached}"


def test_exports_are_reached_from_the_cli():
    reached = _reached(_definitions(), ["main"])
    unreached = [name for name in lefschetz_locus.__all__ if name not in reached]
    assert not unreached, f"exported but reached from no CLI path: {unreached}"


def test_every_traced_target_resolves():
    # the tracer looks each row up when it installs, so a deleted or renamed
    # name would crash a traced benchmark run
    missing = []
    for module, attr in _traced_targets():
        obj = importlib.import_module(f"lefschetz_locus.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced by perfbench/spans.py but not defined: {missing}"


def test_traced_commands_run_and_count():
    # the tracer reads what the traced functions return (the minor forms of
    # ``locus_ideal_at`` and the basis of ``buchberger``), so a change of
    # their shape would crash a traced benchmark run.  The seeded middles
    # at p = 65521 are measured on one line, with no basis; at p = 13 the
    # line declines the corank-1 middle of (3,4,4), seed 1, which takes the
    # Groebner basis
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer("lefschetz_locus")
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            codes = [cli.main(argv.split()) for argv in (
                "locus --a 3,4,4 --b 0", "survey --grid ci:2-3 --localization",
                "locus --a 3,4,4 --b 0 --prime 13 --seed 1")]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0] and len(out.getvalue().splitlines()) == 3
    _, counts, _ = tracer.take()
    for name in ("lefschetz.minor_gens", "groebner.buchberger_calls", "groebner.basis_elems"):
        assert counts[name] > 0, name
