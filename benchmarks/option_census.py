#!/usr/bin/env python3
"""``make option-census``: does anything outside ``tests/`` use each knob?

Each independent option doubles what an oracle has to cover, so a
defaulted parameter, a config field or a public entry point earns its
place in ``src/repro`` by having a user outside the test suite.  This is
a stdlib-``ast`` scan for the ones that do not.  For every defaulted
parameter of a module- or class-level callable under ``src/repro`` it
collects the distinct values callers pass, by tree (``src``, ``tests``,
``benchmarks``, ``examples``, ``perfbench``), and files the parameter as

* ``never-set``   no caller anywhere passes anything but the default,
* ``tests-only``  only callers under ``tests/`` pass a second value,
* ``live``        otherwise (an ``args.flag`` from argparse is a value).

Both of the first two fail the run.  Calls resolve by name: ``f(...)``,
``obj.f(...)`` and ``Class(...)`` reach every callable under ``src/repro``
of that name (a name two callables share pools their callers, which can
only keep an option alive), plus definitions of the calling file.  It
follows what plain call syntax hides: ``**{...}`` / ``**name`` /
``**helper()`` where the dict is a literal, a callable's own ``**kwargs``
handed on to another call, ``super().__init__`` / ``cls(...)``,
``functools.partial``, ``X = Callable`` aliases and a parameter passed
straight through (``g(clock=clock)`` inherits whatever ``clock`` ever
receives).  A ``**`` it cannot read counts as setting everything.

Fields of dataclass / NamedTuple types are counted in a column of their
own.  A never-set field is filed by this rule:

* ``record``  its default is where an instance starts filling in — a zero
  (``0``, ``0.0``, ``False``, ``None``, ``''``, ``()``, ``[]``, ``{}``),
  a ``default_factory`` (a fresh container per instance) or
  ``init=False`` — or code under ``src/`` assigns the attribute after
  construction.  Records are listed apart and never fail the run;
* ``config``  anything else: a value nobody overrides and nothing
  updates, which is a constant wearing a field.  It fails the run.

A third column lists the public callables under ``src/repro`` — module-
and class-level functions, methods and classes whose dotted name has no
``_``-prefixed part — by who *uses* them: any spelling of the name
outside an annotation, the callable's own body and an ``import`` counts,
so a function handed around as a value is used where it is handed.  One
used only under ``tests/``, or only from inside callables that are
themselves tests-only, is ``tests-only`` and fails the run; one nothing
spells is ``never-set`` and is listed.

What no scan can see goes in the allow-list beside this file.  Every
entry names one finding and gives its ``kind``, which must be one of
:data:`ALLOW_KINDS`, and a ``reason``.  An entry with another kind,
without a reason, or naming nothing the run would fail on, fails the
run itself.

    python benchmarks/option_census.py [--root DIR] [--allow FILE]

Exit 1 on any finding outside the allow-list (or a fault in the list);
the table is printed either way.
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
KINDS = ("option", "field", "entry")
UNREADABLE = "**?"  # a ``**`` / ``*`` the scan could not resolve
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: The four reasons an allow-list entry may give.
ALLOW_KINDS = {
    "deployment-setting": "a value a deployment picks: a target's"
                          " SwitchResources, a corpus directory",
    "through-a-variable": "a callable reached through a variable",
    "test-seam": "where a test substitutes a fake, or runs one engine"
                 " against the reference it is held to",
    "spelled-outside": "a name perfbench/, benchmarks/ or examples/ spells"
                       " in a way the scan cannot read",
}

#: Defaults a record starts from (see the module docstring).
_ZEROS = {"0", "0.0", "False", "None", "''", "()", "[]", "{}"}


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
        #: public callables under src/repro: (qualname, name)
        self.entry_points: List[Tuple[str, str]] = []
        #: name -> (tree, qualnames of the defs around it) per spelling
        self.references: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {}
        #: attribute names something under src/ assigns
        self.written: Set[str] = set()
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
                if isinstance(node, _DEFS + (ast.ClassDef,)):
                    qualname = f"{prefix}.{node.name}"
                    if (in_subject and depth == 0 and not any(
                            part.startswith("_")
                            for part in qualname.split("."))):
                        self.entry_points.append((qualname, node.name))
                if isinstance(node, _DEFS):
                    self._note_dict_returns(node)
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
        """Options, fields, then entry points; what nobody sets first."""
        rows = [
            Row(c, p, self.written)
            for c in self.callables if c.subject for p in c.defaults
        ] + self._entry_rows()
        return sorted(rows, key=lambda row: (
            KINDS.index(row.kind), STATUSES.index(row.status), row.option,
        ))

    def _entry_rows(self) -> List["Row"]:
        """Each public callable by the trees that use it; a use from inside
        a tests-only callable is a test's use (to a fixed point)."""
        def uses(qualname: str, name: str) -> List[Tuple[str, Tuple[str, ...]]]:
            prefix = qualname + "."
            return [
                (tree, around) for tree, around in self.references.get(name, ())
                if not any(q == qualname or q.startswith(prefix) for q in around)
            ]

        spelled = {q: uses(q, name) for q, name in self.entry_points}
        tests_only: Set[str] = set()
        grew = True
        while grew:
            grew = False
            for qualname, found in spelled.items():
                if found and qualname not in tests_only and all(
                    tree == "tests" or tests_only.intersection(around)
                    for tree, around in found
                ):
                    tests_only.add(qualname)
                    grew = True
        return [
            EntryRow(qualname, found, qualname in tests_only)
            for qualname, found in spelled.items()
        ]


class Row:
    """One defaulted parameter (``kind`` "option") or field ("field")."""

    def __init__(self, callable_: Callable, param: str, written: Set[str]):
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
        #: a never-set field is "config" or "record" (module docstring)
        self.role = ""
        if self.kind == "field" and self.status == "never-set":
            self.role = ("record" if _starts_a_record(self.default)
                         or param in written else "config")

    @property
    def fails(self) -> bool:
        """Outside the allow-list, this row fails the run."""
        if self.kind == "field":
            return self.role == "config"
        return self.status != "live"

    def passed(self) -> str:
        return "  ".join(
            f"{tree}{{{_clip(', '.join(values), 60)}}}"
            for tree, values in self.values.items()
        ) or "(never passed)"

    def render(self) -> str:
        return (f"{self.status:<10} {self.role or self.kind:<6} {self.option}"
                f" = {_clip(self.default, 32)}  <-  {self.passed()}")


class EntryRow(Row):
    """One public callable, by how many spellings each tree has of it;
    ``never-set`` here means nothing spells it."""

    def __init__(self, qualname: str,
                 uses: List[Tuple[str, Tuple[str, ...]]], tests_only: bool):
        self.option, self.kind, self.default, self.role = (
            qualname, "entry", "", ""
        )
        trees: Dict[str, int] = {}
        for tree, _around in uses:
            trees[tree] = trees.get(tree, 0) + 1
        self.values = {
            tree: [f"{count} uses"] for tree, count in sorted(trees.items())
        }
        self.status = ("never-set" if not uses
                       else "tests-only" if tests_only else "live")

    @property
    def fails(self) -> bool:
        return self.status == "tests-only"

    def render(self) -> str:
        return (f"{self.status:<10} {self.kind:<6} {self.option}"
                f"  <-  {self.passed()}")


def _starts_a_record(default: str) -> bool:
    """A zero, a ``default_factory``, ``init=False`` or a zero
    ``default=`` (the record rule of the module docstring)."""
    if default in _ZEROS:
        return True
    node = ast.parse(default, mode="eval").body
    if isinstance(node, ast.Call) and _name_of(node.func) == "field":
        keywords = {k.arg: k.value for k in node.keywords}
        init = keywords.get("init")
        given = keywords.get("default")
        return ("default_factory" in keywords
                or (isinstance(init, ast.Constant) and init.value is False)
                or (given is not None and ast.unparse(given) in _ZEROS))
    return False


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
        for name, values in self.assigned[0].items():  # ``_F = HeaderField``
            if len(values) == 1 and isinstance(values[0], ast.Name):
                self.aliases[name] = values[0].id
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
        for child in node.decorator_list + [node.args] + node.body:
            self.visit(child)  # not ``returns``: an annotation uses nothing
        self.assigned.pop()
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_def

    def visit_arg(self, node: ast.arg) -> None:
        pass  # only its annotation is below it

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def _use(self, name: str) -> None:
        around = tuple(scope.qualname for scope in self.scopes)
        for spelled in {name, self.aliases.get(name, name)}:
            self.census.references.setdefault(spelled, []).append(
                (self.tree, around)
            )

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._use(node.attr)
        elif self.tree == "src":
            self.census.written.add(node.attr)
        self.generic_visit(node)

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
        if (name in ("getattr", "setattr", "__setattr__") and len(args) > 1
                and isinstance(args[1], ast.Constant)
                and isinstance(args[1].value, str)):
            if name == "getattr":
                self._use(args[1].value)
            elif self.tree == "src":
                self.census.written.add(args[1].value)
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
    """``name -> "kind: reason"`` and what is wrong with the file."""
    if not path.exists():
        return {}, []
    entries = json.loads(path.read_text())
    allowed: Dict[str, str] = {}
    faults: List[str] = []
    for entry in entries:
        name = entry.get("name", "")
        kind = entry.get("kind", "")
        reason = str(entry.get("reason", "")).strip()
        if not name:
            faults.append(f"allow-list entry without a name: {entry!r}")
        elif kind not in ALLOW_KINDS:
            faults.append(f"allow-list entry of kind {kind!r}, not one of"
                          f" {', '.join(ALLOW_KINDS)}: {name}")
        elif not reason:
            faults.append(f"allow-list entry without a reason: {name}")
        else:
            allowed[name] = f"{kind}: {reason}"
    return allowed, faults


_COLUMNS = (("option", "options", 8), ("field", "dataclass fields", 18),
            ("entry", "entry points", 14))
_ROLES = ("config", "record")  # how never-set fields split


def report(rows: List[Row], allowed: Dict[str, str]) -> Iterator[str]:
    yield f"{'':<12}" + "".join(f"{title:>{w}}" for _k, title, w in _COLUMNS)
    for status in ("total",) + STATUSES[::-1] + _ROLES:
        cells = []
        for kind, _title, width in _COLUMNS:
            if status in _ROLES and kind != "field":
                cells.append(" " * width)
                continue
            count = sum(1 for r in rows if r.kind == kind
                        and status in ("total", r.status, r.role))
            cells.append(f"{count:>{width}}")
        label = f"  {status}" if status in _ROLES else status
        yield f"{label:<12}" + "".join(cells)
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
    failing = {r.option: r for r in rows if r.fails}
    faults += [
        f"{row.status} {row.role or row.kind}, not allow-listed: {name}"
        for name, row in sorted(failing.items()) if name not in allowed
    ]
    faults += [f"allow-listed, but nothing the run fails on: {name}"
               for name in sorted(set(allowed) - set(failing))]
    print()
    for fault in faults:
        print(f"option-census: {fault}")
    if not faults:
        print(f"option-census: every option, config field and entry point"
              f" has a use outside tests/ ({len(allowed)} allow-listed)")
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
