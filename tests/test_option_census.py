"""``make option-census`` nominates what it says it nominates — and keeps
alive what only ``**`` forwarding, ``partial`` or a pass-through sets —
each gate fails a scratch tree seeded to trip it, and the repo has no
finding outside its allow-list."""

import json
import textwrap

import pytest

from benchmarks import option_census


def census(tmp_path, **trees):
    """``{option or field: status}`` over a synthetic checkout: ``src="..."`` is
    ``src/repro/pkg.py``, any other keyword one file of that tree."""
    for tree, source in trees.items():
        folder = tmp_path / ("src/repro" if tree == "src" else tree)
        folder.mkdir(parents=True, exist_ok=True)
        (folder / ("pkg.py" if tree == "src" else "test_pkg.py")).write_text(
            textwrap.dedent(source)
        )
    return {
        row.option.replace("repro.pkg.", ""): row.status
        for row in option_census.Census(tmp_path).rows()
        if row.kind != "entry"
    }


def test_a_dead_option_is_nominated_and_a_tested_one_is_listed(tmp_path):
    assert census(tmp_path, src="""
        def f(a, dead=1, same=2, live=3, tested=4, third=5):
            return a
        f(0, same=2, live=30)
        f(0, 1, 2, 3, 4, 50)
    """, tests="""
        from repro.pkg import f
        f(0, tested=40, dead=1)
    """) == {
        "f.dead": "never-set", "f.same": "never-set", "f.live": "live",
        "f.tested": "tests-only", "f.third": "live",
    }


def test_keywords_behind_a_literal_dict_keep_an_option_alive(tmp_path):
    assert census(tmp_path, src="""
        def f(a, spread=1, named=2, helped=3, handed=4, dead=5):
            return a
        def _args(flags):
            return dict(helped=flags.helped)
        def wrapper(a, **kwargs):
            return f(a, **kwargs)
        def main(flags):
            common = {"named": 20}
            f(0, **{"spread": 10})
            f(0, **common)
            f(0, **_args(flags))
            wrapper(0, handed=40)
    """) == {
        "f.spread": "live", "f.named": "live", "f.helped": "live",
        "f.handed": "live", "f.dead": "never-set",
    }


def test_an_unreadable_spread_sets_everything(tmp_path):
    assert census(tmp_path, src="""
        def f(a, maybe=1):
            return a
        def main(options):
            f(0, **options)
    """) == {"f.maybe": "live"}


def test_partial_binds_like_a_call(tmp_path):
    assert census(tmp_path, src="""
        from functools import partial
        def f(a, bound=1, dead=2):
            return a
        g = partial(f, 0, bound=10)
    """) == {"f.bound": "live", "f.dead": "never-set"}


def test_a_parameter_passed_straight_through_inherits_its_callers(tmp_path):
    source = """
        def inner(clock=None, seed=0):
            return clock
        def outer(clock=None, seed=0):
            seed = seed + 1  # rebound: no longer the caller's value
            return inner(clock=clock, seed=seed)
    """
    assert census(tmp_path, src=source) == {
        "inner.clock": "never-set", "outer.clock": "never-set",
        "inner.seed": "live", "outer.seed": "never-set",
    }
    assert census(tmp_path, src=source, examples="""
        from repro.pkg import outer
        outer(clock=object())
    """) == {
        "inner.clock": "live", "outer.clock": "live",
        "inner.seed": "live", "outer.seed": "never-set",
    }


def test_constructors_resolve_through_bases_super_and_cls(tmp_path):
    assert census(tmp_path, src="""
        class Base:
            def __init__(self, plan, seed=0, clock=None, dead=None):
                self.plan = plan
            @classmethod
            def build(cls, plan, **kwargs):
                return cls(plan, **kwargs)
        class Plain(Base):
            pass
        class Cached(Base):
            def __init__(self, plan, entries=2, **kwargs):
                super().__init__(plan, clock=self, **kwargs)
        Plain(1, seed=3)
        Cached.build(1, entries=8)
    """) == {
        "Base.seed": "live", "Base.clock": "live", "Base.dead": "never-set",
        "Cached.entries": "live",
    }


def run(tmp_path, capsys, entries=()):
    """``(exit code, output)`` of the census over ``tmp_path``."""
    allow = tmp_path / "allow.json"
    allow.write_text(json.dumps(list(entries)))
    code = option_census.main(["--root", str(tmp_path), "--allow", str(allow)])
    return code, capsys.readouterr().out


def test_a_tests_only_option_fails_the_run(tmp_path, capsys):
    census(tmp_path, src="""
        def f(a, knob=1, used=1):
            return a
        f(0, used=2)
    """, tests="""
        from repro.pkg import f
        f(0, knob=3)
    """)
    code, out = run(tmp_path, capsys)
    assert code == 1
    assert "tests-only option, not allow-listed: repro.pkg.f.knob" in out
    assert "repro.pkg.f.used" not in out


def test_a_never_set_field_is_config_unless_it_starts_a_record(tmp_path, capsys):
    census(tmp_path, src="""
        from dataclasses import dataclass, field, replace
        @dataclass
        class Limits:
            stages: int = 12
            memory: int = 100
            seen: int = 0
            log: list = field(default_factory=list)
            peak: float = 1.5
            derived: int = field(init=False, default=3)
        def f(limits, a, set_here=1):
            limits.peak = 2.0
            return replace(Limits(), memory=a)
        f(Limits(), 0, set_here=2)
    """)
    rows = {r.option.replace("repro.pkg.", ""): r
            for r in option_census.Census(tmp_path).rows()}
    assert rows["Limits.stages"].kind == "field"
    assert rows["Limits.memory"].status == "live"
    assert {name: rows[name].role for name in (
        "Limits.stages", "Limits.seen", "Limits.log", "Limits.peak",
        "Limits.derived",
    )} == {
        "Limits.stages": "config",  # 12 and nothing updates it
        "Limits.seen": "record",  # a zero
        "Limits.log": "record",  # a fresh container
        "Limits.peak": "record",  # assigned after construction
        "Limits.derived": "record",  # init=False
    }
    code, out = run(tmp_path, capsys)
    assert code == 1
    assert "never-set config, not allow-listed: repro.pkg.Limits.stages" in out
    assert "never-set  record repro.pkg.Limits.seen" in out
    assert "not allow-listed: repro.pkg.Limits.seen" not in out


def test_a_never_set_record_field_does_not_fail_the_run(tmp_path, capsys):
    census(tmp_path, src="""
        from dataclasses import dataclass, field
        @dataclass
        class Stats:
            runs: int = 0
            seen: dict = field(default_factory=dict)
        def main():
            stats = Stats()
            stats.runs += 1
            return stats
        main()
    """)
    assert run(tmp_path, capsys)[0] == 0


def test_a_public_function_only_a_test_calls_fails_the_run(tmp_path, capsys):
    census(tmp_path, src="""
        def helper(a):
            return a
        def used(a):
            return a
        def only_tested(a):
            return helper(a)
        def _private(a):
            return a
        class Box:
            def probe(self):
                return self
        used(1)
        Box()
    """, tests="""
        from repro.pkg import Box, _private, only_tested
        only_tested(1)
        _private(2)
        Box().probe()
    """)
    rows = {r.option.replace("repro.pkg.", ""): r.status
            for r in option_census.Census(tmp_path).rows()
            if r.kind == "entry"}
    assert rows == {
        "helper": "tests-only",  # called only from a tests-only function
        "used": "live", "only_tested": "tests-only",
        "Box": "live", "Box.probe": "tests-only",
    }
    code, out = run(tmp_path, capsys)
    assert code == 1
    assert "tests-only entry, not allow-listed: repro.pkg.only_tested" in out
    assert "tests-only entry, not allow-listed: repro.pkg.Box.probe" in out


def test_the_allow_list_needs_one_of_four_kinds_and_a_finding(tmp_path, capsys):
    census(tmp_path, src="""
        def f(a, pinned=True, used=1):
            return a
        f(0, used=2)
    """)
    code, out = run(tmp_path, capsys)
    assert code == 1 and "never-set option, not allow-listed: repro.pkg.f.pinned" in out
    entry = {"name": "repro.pkg.f.pinned", "kind": "spelled-outside",
             "reason": "the benchmark spells it"}
    code, out = run(tmp_path, capsys, [entry])
    assert code == 0
    assert "[allowed: spelled-outside: the benchmark spells it]" in out
    code, out = run(tmp_path, capsys, [dict(entry, reason=" ")])
    assert code == 1 and "without a reason: repro.pkg.f.pinned" in out
    code, out = run(tmp_path, capsys, [dict(entry, kind="convenience")])
    assert code == 1
    assert "of kind 'convenience', not one of" in out
    code, out = run(tmp_path, capsys, [
        entry, {"name": "repro.pkg.f.used", "kind": "test-seam",
                "reason": "stale"},
    ])
    assert code == 1
    assert "allow-listed, but nothing the run fails on: repro.pkg.f.used" in out


@pytest.mark.parametrize("kind", sorted(option_census.ALLOW_KINDS))
def test_each_of_the_four_kinds_admits_an_entry(tmp_path, capsys, kind):
    census(tmp_path, src="""
        def f(a, pinned=True):
            return a
        f(0)
    """)
    entry = {"name": "repro.pkg.f.pinned", "kind": kind, "reason": "why"}
    code, out = run(tmp_path, capsys, [entry])
    assert code == 0, out
    assert f"[allowed: {kind}: why]" in out


@pytest.mark.parametrize("tree", ["benchmarks", "examples", "perfbench"])
def test_a_user_outside_tests_keeps_an_option_and_an_entry_live(
    tmp_path, capsys, tree
):
    census(tmp_path, src="""
        def f(a, knob=1):
            return a
    """, tests="""
        from repro.pkg import f
        f(0, knob=3)
    """, **{tree: """
        from repro.pkg import f
        f(0, knob=2)
    """})
    assert {
        row.option: row.status
        for row in option_census.Census(tmp_path).rows()
    } == {"repro.pkg.f": "live", "repro.pkg.f.knob": "live"}
    assert run(tmp_path, capsys)[0] == 0


@pytest.mark.parametrize("zero", sorted(option_census._ZEROS))
def test_a_field_that_starts_at_a_zero_is_a_record(tmp_path, capsys, zero):
    census(tmp_path, src=f"""
        from typing import NamedTuple
        class Tally(NamedTuple):
            start: object = {zero}
        Tally()
    """)
    (row,) = [row for row in option_census.Census(tmp_path).rows()
              if row.kind == "field"]
    assert (row.option, row.status, row.role) == (
        "repro.pkg.Tally.start", "never-set", "record",
    )
    assert run(tmp_path, capsys)[0] == 0


def test_the_repo_passes_its_own_census(capsys):
    assert option_census.main([]) == 0, capsys.readouterr().out
    allowed, faults = option_census.load_allow_list(option_census.ALLOW_FILE)
    assert not faults and len(allowed) <= 20
