#!/usr/bin/env python3
"""``make option-census``: which defaulted parameters does anybody set?

Each independent option doubles what an oracle has to cover, so a
defaulted parameter earns its place in a signature by having a second
value in use.  This is a stdlib-``ast`` scan for the ones that do not:
for every defaulted parameter of a module- or class-level callable under
``src/repro`` it collects the distinct values callers pass, by tree
(``src``, ``tests``, ``benchmarks``, ``examples``, ``perfbench``), and
files the parameter as

* ``never-set``   no caller anywhere passes anything but the default,
* ``tests-only``  only callers under ``tests/`` pass a second value,
* ``live``        otherwise (an ``args.flag`` from argparse is a value).

Calls resolve by name: ``f(...)``, ``obj.f(...)`` and ``Class(...)`` reach
every callable under ``src/repro`` of that name (a name two callables
share pools their callers, which can only keep an option alive), plus
definitions of the calling file.  It follows what plain call syntax
hides: ``**{...}`` / ``**name`` / ``**helper()`` where the dict is a
literal, a callable's own ``**kwargs`` handed on to another call,
``super().__init__`` / ``cls(...)``, ``functools.partial`` and a
parameter passed straight through (``g(clock=clock)`` inherits whatever
``clock`` ever receives).  A ``**`` it cannot read counts as setting
everything.  Fields of dataclass / NamedTuple configs are counted in a
column of their own and never fail the run.

What no scan sees — a keyword the benchmark spells, a callable reached
through a variable — goes in the allow-list beside this file, each entry
with its reason; an entry without one, or one that names no never-set
option, fails the run like a never-set option outside the list does.

    python benchmarks/option_census.py [--root DIR] [--allow FILE]

Exit 1 when a never-set option is not allow-listed (or the allow-list is
at fault); the table is printed either way.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

TREES = ("src", "tests", "benchmarks", "examples", "perfbench")
SUBJECT = ("src", "repro")
ALLOW_FILE = Path(__file__).with_name("option_census_allow.json")

STATUSES = ("never-set", "tests-only", "live")
UNREADABLE = "**?"  # a ``**`` / ``*`` the scan could not resolve
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Callable:
    """One ``def`` (or the constructor a class name stands for)."""

    def __init__(self, qualname: str, name: str, tree: str, public: bool,
                 subject: bool, kind: str, node: Optional[ast.AST]):
        self.qualname = qualname
        self.name = name
        self.tree = tree
        self.public = public  # under src/repro at module or class level
        self.subject = subject  # public, and a name callers can spell
        self.kind = kind  # "option" | "field"
        self.node = node
        self.positional: List[str] = []
        self.keyword_only: List[str] = []
        self.defaults: Dict[str, str] = {}
        self.var_keyword: Optional[str] = None
        #: calls in the body that hand ``**kwargs`` on
        self.hands_on: List["Call"] = []
        #: param -> tree -> distinct values received
        self.values: Dict[str, Dict[str, Set[str]]] = {}
        #: param -> (callable, param) it is passed straight through from
        self.sources: Dict[str, List[Tuple["Callable", str]]] = {}

    @property
    def params(self) -> List[str]:
        return self.positional + self.keyword_only

    def receive(self, param: str, tree: str, value: str) -> None:
        self.values.setdefault(param, {}).setdefault(tree, set()).add(value)

    def take_signature(self, args: ast.arguments, drop_first: bool) -> None:
        positional = [a.arg for a in args.posonlyargs + args.args]
        texts = [ast.unparse(d) for d in args.defaults]
        for name, text in zip(positional[len(positional) - len(texts):], texts):
            self.defaults[name] = text
        self.positional = positional[1:] if drop_first else positional
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            self.keyword_only.append(arg.arg)
            if default is not None:
                self.defaults[arg.arg] = ast.unparse(default)
        self.var_keyword = args.kwarg.arg if args.kwarg else None


class Call:
    """One call site, as far as binding needs it."""

    def __init__(self, tree: str, names: List[str], local: Dict[str, list],
                 args: list, keywords: Dict[str, object], unreadable: bool,
                 star_from: Optional[int]):
        self.tree = tree
        self.names = names  # callee names it may reach
        self.local = local  # same-file definitions by name
        self.args = args
        self.keywords = keywords
        self.unreadable = unreadable
        self.star_from = star_from  # index of a ``*args``, if any


def _name_of(node: ast.AST) -> Optional[str]:
    """``f`` of ``f`` / ``obj.f``: the name a reference ends in."""
    return getattr(node, "attr", getattr(node, "id", None))


def _decorators(node: ast.AST) -> Set[Optional[str]]:
    return {
        _name_of(d.func if isinstance(d, ast.Call) else d)
        for d in getattr(node, "decorator_list", [])
    }


def _base_names(node: ast.ClassDef) -> List[str]:
    return [_name_of(base) or "" for base in node.bases]


class Census:
    """Every definition and call site under ``root``'s five trees, bound to
    each other; :meth:`rows` is the table."""

    def __init__(self, root: Path):
        self.root = root
        #: name -> functions and methods under src/repro that calls can reach
        self.by_name: Dict[str, List[Callable]] = {}
        #: class name -> (base names, own constructor or None)
        self.classes: Dict[str, List[Tuple[List[str], Optional[Callable]]]] = {}
        self.callables: List[Callable] = []
        self.calls: List[Call] = []
        #: function name -> keyword dicts its ``return`` statements build
        #: (``None``: some return is not a readable dict)
        self.dict_returns: Dict[str, Optional[List[Dict[str, ast.AST]]]] = {}
        files = [
            (tree, path) for tree in TREES
            for path in sorted((root / tree).rglob("*.py"))
        ]
        parsed = [
            (tree, path, ast.parse(path.read_text(), str(path)))
            for tree, path in files
        ]
        local_defs = [self._collect(*entry) for entry in parsed]
        for (tree, _path, module), local in zip(parsed, local_defs):
            _CallScan(self, tree, local).visit(module)
        for call in self.calls:
            self._bind(call)
        self._inherit_passed_through()

    # -- pass 1: definitions -------------------------------------------------

    def _collect(self, tree: str, path: Path,
                 module: ast.Module) -> Dict[str, List[Callable]]:
        relative = path.relative_to(self.root)
        in_subject = relative.parts[:2] == SUBJECT
        dotted = ".".join(relative.with_suffix("").parts[1 if in_subject else 0:])
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        local: Dict[str, List[Callable]] = {}

        def add(callable_: Callable, constructor: bool = False) -> Callable:
            self.callables.append(callable_)
            local.setdefault(callable_.name, []).append(callable_)
            if callable_.public and not constructor:
                self.by_name.setdefault(callable_.name, []).append(callable_)
            return callable_

        def walk(parent: ast.AST, prefix: str,
                 owner: Optional[ast.ClassDef], depth: int) -> None:
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, _DEFS):
                    self._note_dict_returns(node)
                    qualname = f"{prefix}.{node.name}"
                    if owner is None or node.name != "__init__":
                        public = in_subject and depth == 0
                        dunder = node.name.startswith("__")
                        add(Callable(
                            qualname, node.name, tree, public,
                            public and not dunder, "option", node,
                        )).take_signature(
                            node.args,
                            owner is not None
                            and "staticmethod" not in _decorators(node),
                        )
                    walk(node, qualname, None, depth + 1)
                elif isinstance(node, ast.ClassDef):
                    qualname = f"{prefix}.{node.name}"
                    constructor = self._constructor(
                        node, qualname, tree, in_subject and depth == 0
                    )
                    if constructor is not None:
                        add(constructor, constructor=True)
                    self.classes.setdefault(node.name, []).append(
                        (_base_names(node), constructor)
                    )
                    walk(node, qualname, node, depth)
                else:  # a def under ``if`` / ``try`` / a loop is still one
                    walk(node, prefix, owner, depth)

        walk(module, dotted, None, 0)
        return local

    def _constructor(self, node: ast.ClassDef, qualname: str, tree: str,
                     public: bool) -> Optional[Callable]:
        for item in node.body:
            if isinstance(item, _DEFS) and item.name == "__init__":
                made = Callable(qualname, node.name, tree, public, public,
                                "option", item)
                made.take_signature(item.args, True)
                return made
        if not ("dataclass" in _decorators(node)
                or "NamedTuple" in _base_names(node)):
            return None
        made = Callable(qualname, node.name, tree, public, public, "field", None)
        for base in _base_names(node):  # inherited fields come first
            for _bases, inherited in self.classes.get(base, []):
                if inherited is not None and inherited.kind == "field":
                    made.positional += inherited.positional
                    made.defaults.update(inherited.defaults)
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.unparse(item.annotation)):
                made.positional.append(item.target.id)
                if item.value is not None:
                    made.defaults[item.target.id] = ast.unparse(item.value)
        return made

    def _note_dict_returns(self, node: ast.AST) -> None:
        returns = [
            n for n in ast.walk(node)
            if isinstance(n, ast.Return) and n.value is not None
        ]
        dicts = [literal_keywords(r.value) for r in returns]
        known = self.dict_returns.get(node.name, [])
        if known is None or not dicts or any(d is None for d in dicts):
            self.dict_returns[node.name] = None
        else:
            self.dict_returns[node.name] = known + dicts

    def constructors(self, name: str, seen: Tuple[str, ...] = ()) -> List[Callable]:
        """What ``name(...)`` runs: the class's own constructor, else the
        first one its bases inherit."""
        found: List[Callable] = []
        for bases, own in self.classes.get(name, []):
            if own is not None:
                found.append(own)
                continue
            for base in bases:
                if base not in seen:
                    inherited = self.constructors(base, seen + (name,))
                    if inherited:
                        found += inherited
                        break
        return found

    def subclasses(self, name: str) -> Set[str]:
        found = {name}
        grew = True
        while grew:
            grew = False
            for other, entries in self.classes.items():
                if other not in found and any(
                    set(bases) & found for bases, _own in entries
                ):
                    found.add(other)
                    grew = True
        return found

    # -- pass 3: binding -----------------------------------------------------

    def _candidates(self, call: Call) -> List[Callable]:
        found: List[Callable] = []
        for name in call.names:
            local = call.local.get(name, [])
            for callable_ in (self.constructors(name)
                              + self.by_name.get(name, []) + local):
                if ((callable_.public or callable_ in local)
                        and callable_ not in found):
                    found.append(callable_)
        return found

    def _bind(self, call: Call) -> None:
        for callee in self._candidates(call):
            bound = set()
            for index, value in enumerate(call.args):
                if index < len(callee.positional):
                    bound.add(callee.positional[index])
                    self._pass(callee, callee.positional[index], call.tree, value)
            for keyword, value in call.keywords.items():
                bound.add(keyword)
                self._pass(callee, keyword, call.tree, value)
            unread: List[str] = []
            if call.unreadable:
                unread = callee.params
            elif call.star_from is not None:
                unread = callee.positional[call.star_from:]
            for param in unread:
                if param not in bound:
                    callee.receive(param, call.tree, UNREADABLE)

    def _pass(self, callee: Callable, param: str, tree: str, value: object,
              depth: int = 0) -> None:
        if param in callee.params:
            if isinstance(value, tuple):  # (callable, its parameter)
                callee.sources.setdefault(param, []).append(value)
            else:
                callee.receive(param, tree, value)
        elif callee.var_keyword is not None and depth < 8:
            # Not the callee's own: it travels on inside ``**kwargs``.
            for onward in callee.hands_on:
                for target in self._candidates(onward):
                    self._pass(target, param, tree, value, depth + 1)

    def _inherit_passed_through(self) -> None:
        """``g(p=p)``: ``p`` has received whatever the caller's ``p`` has,
        and the caller's default wherever its own callers stay silent."""
        changed = True
        while changed:
            changed = False
            for callee in self.callables:
                for param, sources in callee.sources.items():
                    for source, theirs in sources:
                        incoming = {
                            tree: set(values) for tree, values
                            in source.values.get(theirs, {}).items()
                        }
                        incoming.setdefault(source.tree, set()).add(
                            source.defaults[theirs]
                        )
                        for tree, values in incoming.items():
                            have = callee.values.setdefault(param, {}) \
                                .setdefault(tree, set())
                            if not values <= have:
                                have |= values
                                changed = True

    # -- the table -----------------------------------------------------------

    def rows(self) -> List["Row"]:
        """Options before fields, what nobody sets first."""
        return sorted(
            (Row(c, p) for c in self.callables if c.subject for p in c.defaults),
            key=lambda row: (row.kind != "option", STATUSES.index(row.status),
                             row.option),
        )


class Row:
    def __init__(self, callable_: Callable, param: str):
        self.option = f"{callable_.qualname}.{param}"
        self.kind = callable_.kind
        self.default = callable_.defaults[param]
        self.values = {
            tree: sorted(values)
            for tree, values in sorted(callable_.values.get(param, {}).items())
        }
        setters = {
            tree for tree, values in self.values.items()
            if any(value != self.default for value in values)
        }
        self.status = ("never-set" if not setters
                       else "tests-only" if setters == {"tests"} else "live")

    def render(self) -> str:
        passed = "  ".join(
            f"{tree}{{{_clip(', '.join(values), 60)}}}"
            for tree, values in self.values.items()
        ) or "(never passed)"
        return (f"{self.status:<10} {self.kind:<6} {self.option}"
                f" = {_clip(self.default, 32)}  <-  {passed}")


def _clip(text: str, width: int) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[: width - 1] + "…"


def literal_keywords(node: ast.AST) -> Optional[Dict[str, ast.AST]]:
    """``{"k": v}`` / ``dict(k=v)`` as keyword → value node, else None."""
    if isinstance(node, ast.Dict):
        if all(isinstance(k, ast.Constant) and isinstance(k.value, str)
               for k in node.keys):
            return {k.value: v for k, v in zip(node.keys, node.values)}
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id == "dict" and not node.args
          and all(k.arg is not None for k in node.keywords)):
        return {k.arg: k.value for k in node.keywords}
    return None


class _CallScan(ast.NodeVisitor):
    """Pass 2: every call site of one module, with the scopes around it."""

    def __init__(self, census: Census, tree: str,
                 local: Dict[str, List[Callable]]):
        self.census = census
        self.tree = tree
        self.local = local
        self.by_node = {
            id(c.node): c for cs in local.values() for c in cs
            if c.node is not None
        }
        self.scopes: List[Callable] = []  # enclosing defs, innermost last
        self.owners: List[ast.ClassDef] = []
        self.assigned: List[Dict[str, List[ast.AST]]] = [{}]
        self.aliases: Dict[str, str] = {}

    def visit_Module(self, node: ast.Module) -> None:
        self.assigned = [_assignments(node)]
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.owners.append(node)
        self.generic_visit(node)
        self.owners.pop()

    def _visit_def(self, node: ast.AST) -> None:
        self.scopes.append(self.by_node[id(node)])
        self.assigned.append(_assignments(node))
        self.generic_visit(node)
        self.assigned.pop()
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_def

    def _value(self, node: ast.AST) -> object:
        """A parameter handed straight on is a reference to it; anything
        else is its source text."""
        if isinstance(node, ast.Name) and self.scopes:
            scope = self.scopes[-1]
            if (node.id in scope.defaults
                    and node.id not in self.assigned[-1]):
                return (scope, node.id)
        return ast.unparse(node)

    def _spread(self, node: ast.AST) -> Optional[Dict[str, object]]:
        """The keywords behind a ``**node``, when they can be read."""
        literal = literal_keywords(node)
        if isinstance(node, ast.Name):
            assigned = next(
                (frame[node.id] for frame in reversed(self.assigned)
                 if node.id in frame), [],
            )
            literal = literal_keywords(assigned[0]) if len(assigned) == 1 else None
        elif isinstance(node, ast.Call) and literal is None:
            # A helper whose every ``return`` is a dict literal; its values
            # are another scope's expressions, so they stay text.
            returned = self.census.dict_returns.get(_name_of(node.func))
            return {
                key: ast.unparse(value)
                for one in returned for key, value in one.items()
            } if returned else None
        if literal is None:
            return None
        return {key: self._value(value) for key, value in literal.items()}

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func, args = node.func, list(node.args)
        name = self.aliases.get(_name_of(func), _name_of(func))
        if name == "partial" and args:
            func, args = args[0], args[1:]
            name = _name_of(func)
        if name is None:
            return
        names = [name]
        if isinstance(func, ast.Name) and name == "cls" and self.owners:
            names = sorted(self.census.subclasses(self.owners[-1].name))
        elif (name == "__init__" and isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Call)
              and _name_of(func.value.func) == "super"
              and self.owners):
            names = _base_names(self.owners[-1])
        elif name in ("replace", "_replace"):
            # dataclasses.replace / NamedTuple._replace: field by keyword.
            names = sorted({
                c.name for c in self.census.callables if c.kind == "field"
                and any(k.arg in c.positional for k in node.keywords)
            })
            args = []
        keywords: Dict[str, object] = {}
        unreadable, hands_on = False, False
        scope = self.scopes[-1] if self.scopes else None
        for keyword in node.keywords:
            if keyword.arg is not None:
                keywords[keyword.arg] = self._value(keyword.value)
            elif (scope is not None and isinstance(keyword.value, ast.Name)
                  and keyword.value.id == scope.var_keyword):
                hands_on = True
            else:
                spread = self._spread(keyword.value)
                if spread is None:
                    unreadable = True
                else:
                    keywords.update(spread)
        star_from = next(
            (i for i, a in enumerate(args) if isinstance(a, ast.Starred)), None
        )
        call = Call(
            self.tree, names, self.local,
            [self._value(a) for a in args[:star_from]], keywords,
            unreadable, star_from,
        )
        self.census.calls.append(call)
        if hands_on:
            scope.hands_on.append(call)


def _assignments(scope: ast.AST) -> Dict[str, List[ast.AST]]:
    """name -> what ``scope``'s own body binds it to: the value of a plain
    ``name = value``, an ``ast.Pass`` for any other binding (tuple or loop
    target, ``+=``, ``with``), which no reader can see through."""
    found: Dict[str, List[ast.AST]] = {}
    plain: Set[int] = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _DEFS + (ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    plain.add(id(target))
                    found.setdefault(target.id, []).append(node.value)
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
              and id(node) not in plain):
            found.setdefault(node.id, []).append(ast.Pass())
        stack.extend(ast.iter_child_nodes(node))
    return found


# -- allow-list and report ---------------------------------------------------


def load_allow_list(path: Path) -> Tuple[Dict[str, str], List[str]]:
    """``option -> reason`` and what is wrong with the file."""
    if not path.exists():
        return {}, []
    entries = json.loads(path.read_text())
    allowed: Dict[str, str] = {}
    faults: List[str] = []
    for entry in entries:
        option = entry.get("option", "")
        reason = str(entry.get("reason", "")).strip()
        if not option:
            faults.append(f"allow-list entry without an option: {entry!r}")
        elif not reason:
            faults.append(f"allow-list entry without a reason: {option}")
        else:
            allowed[option] = reason
    return allowed, faults


def report(rows: List[Row], allowed: Dict[str, str]) -> Iterator[str]:
    kinds = ("option", "field")
    yield f"{'':<12}{'options':>8}{'dataclass fields':>18}"
    for status in ("total",) + STATUSES[::-1]:
        counts = [
            sum(1 for r in rows if r.kind == kind
                and status in ("total", r.status))
            for kind in kinds
        ]
        yield f"{status:<12}{counts[0]:>8}{counts[1]:>18}"
    yield ""
    for row in rows:
        if row.status != "live":
            note = allowed.get(row.option)
            yield row.render() + (f"  [allowed: {note}]" if note else "")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--allow", type=Path, default=ALLOW_FILE)
    args = parser.parse_args(argv)
    rows = Census(args.root).rows()
    allowed, faults = load_allow_list(args.allow)
    for line in report(rows, allowed):
        print(line)
    never_set = {r.option for r in rows
                 if r.status == "never-set" and r.kind == "option"}
    faults += [f"never set, not allow-listed: {o}"
               for o in sorted(never_set - set(allowed))]
    faults += [f"allow-listed, but not a never-set option: {o}"
               for o in sorted(set(allowed) - never_set)]
    print()
    for fault in faults:
        print(f"option-census: {fault}")
    if not faults:
        print(f"option-census: every option has a second value in use"
              f" ({len(allowed)} allow-listed)")
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
