"""In-memory span recorder for the traced (``--trace 1``) run.

The benchmark wraps the public entry points of the objects *it* built —
instance attributes such as ``deployment.switch.receive`` and, for the
compile path, two module attributes — so nothing under ``src/`` changes.
A span is ``(name, start_ns, end_ns, parent, packet)``: ``parent`` is the
index of the span that was open when this one started (-1 for a root)
and ``packet`` is the packet index the root span was opened for.

A layer's *self time* is its span's duration minus the part covered by
its children.  Calls nest on one thread, so children never overlap and
the covered part is the sum of their durations.  Self times over a tree
therefore add up to the root's duration exactly; :func:`rollup` reports
the residue so a broken wrapper cannot go unnoticed.

Spans stay in memory until :func:`flush` writes them out when the
benchmark ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

#: spans kept verbatim for the trace file (the rollup covers every span)
KEEP_SPANS = 20_000


class SpanRecorder:
    """Records nested spans; wraps callables so they record themselves.

    ``root_name`` names the span that encloses one unit of work (one
    packet, one compile, one scenario); a root span advances the packet
    index.  :meth:`drain` folds what has been recorded into the running
    rollup and frees it, so a long traced run holds one chunk of spans
    at a time.
    """

    def __init__(self, root_name: str) -> None:
        self.root_name = root_name
        # Parallel lists: five appends per span is the cheapest layout
        # that still leaves every field addressable afterwards.
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.packets: List[int] = []
        self._open = -1
        self._packet = -1
        self._unwrap: List[Callable[[], None]] = []
        self.kept: List[list] = []
        self.span_count = 0
        #: name -> {"calls", "total_ns", "self_ns", "children"}
        self.layers: Dict[str, Dict[str, int]] = {}
        self.root_total_ns = 0
        self.self_sum_ns = 0

    # -- recording -----------------------------------------------------------

    def wrapped(self, name: str, function: Callable) -> Callable:
        """``function`` with a span recorded around every call."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, packets = self.parents, self.packets
        root = name == self.root_name

        def spanned(*args, **kwargs):
            index = len(names)
            parent = self._open
            if root:
                self._packet += 1
            names.append(name)
            parents.append(parent)
            packets.append(self._packet)
            ends.append(0)
            self._open = index
            starts.append(perf_counter_ns())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                self._open = parent

        return spanned

    def wrap_attribute(self, owner: object, attribute: str,
                       name: str) -> None:
        """Replace ``owner.attribute`` by its spanned version.  On an
        instance this shadows the method for that one object; on a module
        it rebinds the name until :meth:`unwrap_all`."""
        original = getattr(owner, attribute)
        had_own = attribute in getattr(owner, "__dict__", {})
        setattr(owner, attribute, self.wrapped(name, original))

        def restore() -> None:
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

        self._unwrap.append(restore)

    def wrap_slotted_method(self, instance: object, method: str,
                            name: str) -> None:
        """Span ``instance.method`` on an object whose class defines
        ``__slots__`` (no instance dictionary to shadow in): re-class the
        one instance to an empty-slots subclass overriding ``method``."""
        base = type(instance)
        spanned = self.wrapped(name, getattr(base, method))
        instance.__class__ = type(
            f"Spanned{base.__name__}", (base,),
            {"__slots__": (), method: spanned},
        )
        self._unwrap.append(lambda: setattr(instance, "__class__", base))

    def unwrap_all(self) -> None:
        while self._unwrap:
            self._unwrap.pop()()

    # -- analysis ------------------------------------------------------------

    def drain(self) -> None:
        """Fold the recorded spans into the rollup and drop them.  Call
        between units of work, never while a span is open."""
        if self._open != -1:
            raise RuntimeError("drain() with a span still open")
        folded = rollup(self.names, self.starts, self.ends, self.parents,
                        self.root_name)
        for name, layer in folded["layers"].items():
            mine = self.layers.setdefault(name, dict.fromkeys(layer, 0))
            for key, value in layer.items():
                mine[key] += value
        self.root_total_ns += folded["root_total_ns"]
        self.self_sum_ns += folded["self_sum_ns"]
        room = KEEP_SPANS - len(self.kept)
        for index in range(min(room, len(self.names))):
            parent = self.parents[index]
            self.kept.append([
                self.names[index], self.starts[index], self.ends[index],
                parent + self.span_count if parent >= 0 else -1,
                self.packets[index],
            ])
        self.span_count += len(self.names)
        for column in (self.names, self.starts, self.ends, self.parents,
                       self.packets):
            column.clear()

    @property
    def closure_error(self) -> float:
        """|sum of self times under the roots - root total| / root total."""
        if not self.root_total_ns:
            return 0.0
        return abs(self.self_sum_ns - self.root_total_ns) / self.root_total_ns

    def summary(self) -> dict:
        self.drain()
        return {
            "root": self.root_name,
            "span_count": self.span_count,
            "layers": self.layers,
            "root_total_ns": self.root_total_ns,
            "self_sum_ns": self.self_sum_ns,
            "closure_error": self.closure_error,
        }


def flush(path: Path, recorders: Dict[str, SpanRecorder],
          extra: Optional[dict] = None) -> None:
    """Write every recorder's rollup and kept spans to one trace file."""
    payload = {
        "fields": ["name", "start_ns", "end_ns", "parent", "packet"],
        "recorders": {
            label: dict(recorder.summary(), spans=recorder.kept)
            for label, recorder in recorders.items()
        },
    }
    if extra:
        payload.update(extra)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n")


def rollup(names: List[str], starts: List[int], ends: List[int],
           parents: List[int], root_name: str) -> dict:
    """Per-name calls, total, self time and direct-children count."""
    covered = [0] * len(names)
    children = [0] * len(names)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
            children[parent] += 1
    layers: Dict[str, Dict[str, int]] = {}
    # Only spans under a root count towards the closure check; a parent
    # always precedes its children, so one forward pass settles it.
    in_tree = [False] * len(names)
    under_root = 0
    for index, name in enumerate(names):
        duration = ends[index] - starts[index]
        self_ns = duration - covered[index]
        layer = layers.get(name)
        if layer is None:
            layer = layers[name] = {"calls": 0, "total_ns": 0,
                                    "self_ns": 0, "children": 0}
        layer["calls"] += 1
        layer["total_ns"] += duration
        layer["self_ns"] += self_ns
        layer["children"] += children[index]
        parent = parents[index]
        in_tree[index] = (
            in_tree[parent] if parent >= 0 else name == root_name
        )
        if in_tree[index]:
            under_root += self_ns
    root_total = layers.get(root_name, {}).get("total_ns", 0)
    return {"layers": layers, "root_total_ns": root_total,
            "self_sum_ns": under_root}


def span_cost_ns(calls: int = 100_000) -> Dict[str, float]:
    """What one span costs: ``inner`` is the part a span's own duration
    includes, ``outer`` the part charged to its parent's self time."""
    recorder = SpanRecorder("noop")
    spanned = recorder.wrapped("noop", lambda: None)
    plain = (lambda: None)
    started = perf_counter_ns()
    for _ in range(calls):
        plain()
    bare = perf_counter_ns() - started
    started = perf_counter_ns()
    for _ in range(calls):
        spanned()
    total = perf_counter_ns() - started
    inner = sum(e - s for s, e in zip(recorder.starts, recorder.ends))
    return {"inner_ns": inner / calls,
            "outer_ns": (total - bare - inner) / calls}


def self_test() -> List[str]:
    """Check self-time arithmetic on a synthetic nest; returns failures."""
    failures: List[str] = []
    #   root [0,100)          self 100 - (30 + 20) = 50
    #     a    [10,40)        self 30 - 10 = 20
    #       c    [15,25)      self 10
    #     b    [50,70)        self 20
    #   root [100,130)        self 30 - 5 = 25
    #     a    [110,115)      self 5
    #   stray [200,210)       not under a root
    names = ["root", "a", "c", "b", "root", "a", "stray"]
    starts = [0, 10, 15, 50, 100, 110, 200]
    ends = [100, 40, 25, 70, 130, 115, 210]
    parents = [-1, 0, 1, 0, -1, 4, -1]
    result = rollup(names, starts, ends, parents, "root")
    layers = result["layers"]
    expected = {"root": (2, 130, 75), "a": (2, 35, 25), "c": (1, 10, 10),
                "b": (1, 20, 20), "stray": (1, 10, 10)}
    for name, (calls, total, self_ns) in expected.items():
        got = layers[name]
        if (got["calls"], got["total_ns"], got["self_ns"]) != (
                calls, total, self_ns):
            failures.append(f"rollup[{name}] = {got}")
    if result["root_total_ns"] != 130 or result["self_sum_ns"] != 130:
        failures.append(f"closure: {result['root_total_ns']},"
                        f" {result['self_sum_ns']}")
    if layers["root"]["children"] != 3 or layers["a"]["children"] != 1:
        failures.append("children miscounted")

    # Live recording: nesting, packet index, exceptions, unwrapping.
    class Box:
        def outer(self, fail=False):
            return self.inner(fail) + 1

        def inner(self, fail):
            if fail:
                raise ValueError("boom")
            return 1

    class Slotted:
        __slots__ = ("hits",)

        def __init__(self):
            self.hits = 0

        def hit(self):
            self.hits += 1

    recorder = SpanRecorder("outer")
    box, slotted, untouched = Box(), Slotted(), Slotted()
    recorder.wrap_attribute(box, "outer", "outer")
    recorder.wrap_attribute(box, "inner", "inner")
    recorder.wrap_slotted_method(slotted, "hit", "hit")
    if box.outer() != 2:
        failures.append("wrapped call changed the result")
    try:
        box.outer(fail=True)
        failures.append("wrapped call swallowed the exception")
    except ValueError:
        pass
    slotted.hit()
    untouched.hit()
    if recorder.names != ["outer", "inner", "outer", "inner", "hit"]:
        failures.append(f"recorded {recorder.names}")
    if recorder.parents != [-1, 0, -1, 2, -1]:
        failures.append(f"parents {recorder.parents}")
    if recorder.packets[:4] != [0, 0, 1, 1]:
        failures.append(f"packets {recorder.packets}")
    if any(end < start for start, end in zip(recorder.starts, recorder.ends)):
        failures.append("a span ends before it starts")
    if slotted.hits != 1 or untouched.hits != 1:
        failures.append("slotted wrapper lost a call")
    # Draining in two halves must equal draining once.
    recorder.drain()
    box.outer()
    summary = recorder.summary()
    if summary["span_count"] != 7 or summary["layers"]["outer"]["calls"] != 3:
        failures.append(f"drain lost spans: {summary['span_count']}")
    if summary["closure_error"] != 0.0:
        failures.append(f"live closure error {summary['closure_error']}")
    if len(recorder.kept) != 7 or recorder.names:
        failures.append("drain did not move the spans to kept")
    recorder.unwrap_all()
    if "outer" in vars(box) or type(slotted) is not Slotted:
        failures.append("unwrap_all left a wrapper behind")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for problem in problems:
        print("FAIL", problem)
    print("spans self-test:", "ok" if not problems else "FAILED")
    raise SystemExit(1 if problems else 0)
