#!/usr/bin/env python3
"""``make lint-verify`` where ruff is not installed: a stdlib-only scan.

The build container bakes in only the python toolchain, so the blocking
lint set used to grow "unverified by the tools".  This is the part of
ruff's pyflakes rules the set is actually held to, over ``ast``:

* ``F401`` an import nothing in the module reads (``__all__`` entries and
  ``__future__`` count as read),
* ``F841`` a local variable assigned by a plain ``name = ...`` or bound by
  ``except ... as name`` and never read in its function,
* ``F811`` a ``def`` / ``class`` / import that rebinds, at the same level
  of the same scope, a ``def`` / ``class`` / import nothing read in
  between.

A finding on a line carrying ``# noqa`` is dropped, as ruff drops it.
It is a subset — where ruff runs (CI), ruff decides; mypy has no
fallback and stays unverified here.

    python benchmarks/lint_fallback.py <file or directory>...

Exit 1 and one ``path:line: code message`` per finding; exit 0 and a
one-line summary otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

Finding = Tuple[int, str]

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _loads(node: ast.AST) -> Set[str]:
    """Every name read anywhere under ``node`` (nested scopes included),
    quoted annotations and augmented-assignment targets too."""
    names: Set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
            names.add(n.target.id)
        for annotation in (getattr(n, "annotation", None),
                           getattr(n, "returns", None)):
            for quoted in ast.walk(annotation) if annotation else ():
                if (isinstance(quoted, ast.Constant)
                        and isinstance(quoted.value, str)):
                    try:
                        names |= _loads(ast.parse(quoted.value, mode="eval"))
                    except SyntaxError:
                        pass
    return names


def _import_bindings(node: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every name an import statement binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], alias.lineno
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
        for alias in node.names:
            if alias.name != "*":
                yield alias.asname or alias.name, alias.lineno


def _exported(tree: ast.Module) -> Set[str]:
    """String entries of a module-level ``__all__``."""
    names: Set[str] = set()
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            names |= {
                c.value for c in ast.walk(node)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return names


def unused_imports(tree: ast.Module) -> Iterator[Finding]:
    read = _loads(tree) | _exported(tree)
    # A dotted use (``os.path``) reads its root name, which ``_loads`` has.
    for node in ast.walk(tree):
        for name, line in _import_bindings(node):
            if name not in read:
                yield line, f"F401 `{name}` imported but unused"


def _own_statements(function: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``function``'s own scope: nested scopes are not entered."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(tree: ast.Module) -> Iterator[Finding]:
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = _loads(function)
        escaping = {
            name for node in ast.walk(function)
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names
        }
        for node in _own_statements(function):
            bound: List[str] = []
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    bound.append(node.targets[0].id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    bound.append(node.target.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.append(node.name)
            for name in bound:
                if name not in read and name not in escaping:
                    yield (node.lineno,
                           f"F841 local variable `{name}` is assigned to"
                           " but never used")


def _redefinable(node: ast.AST) -> List[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        decorated = {
            getattr(d, "attr", getattr(d, "id", "")) for d in node.decorator_list
        }
        if decorated & {"overload", "setter", "getter", "deleter"}:
            return []
        return [node.name]
    return [name for name, _line in _import_bindings(node)]


def redefinitions(tree: ast.Module) -> Iterator[Finding]:
    bodies = [tree.body] + [
        node.body for node in ast.walk(tree) if isinstance(node, _SCOPES)
        and not isinstance(node, ast.Lambda)
    ]
    for body in bodies:
        unread: Dict[str, int] = {}  # name -> line of its unread binding
        for statement in body:
            rebound = _redefinable(statement)
            for name in _loads(statement):
                unread.pop(name, None)
            for name in rebound:
                if name in unread:
                    yield (statement.lineno,
                           f"F811 redefinition of unused `{name}` from line"
                           f" {unread[name]}")
                unread[name] = statement.lineno


def scan(path: Path) -> List[str]:
    source = path.read_text()
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    findings = sorted(
        {*unused_imports(tree), *unused_locals(tree), *redefinitions(tree)}
    )
    return [
        f"{path}:{line}: {message}" for line, message in findings
        if "# noqa" not in lines[line - 1]
    ]


def main(argv: List[str]) -> int:
    files = sorted(
        file for arg in argv for file in
        ([Path(arg)] if arg.endswith(".py") else Path(arg).rglob("*.py"))
    )
    findings = [line for file in files for line in scan(file)]
    for line in findings:
        print(line)
    if not findings:
        print(f"lint-fallback: {len(files)} files clean"
              " (F401 / F841 / F811 subset; mypy not run)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
