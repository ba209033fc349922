"""``make option-census`` nominates what it says it nominates — and keeps
alive what only ``**`` forwarding, ``partial`` or a pass-through sets — and
the repo has no never-set option outside its allow-list."""

import json
import textwrap

from benchmarks import option_census


def census(tmp_path, **trees):
    """``{option: status}`` over a synthetic checkout: ``src="..."`` is
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


def test_dataclass_fields_are_counted_apart_and_never_fail(tmp_path, capsys):
    census(tmp_path, src="""
        from dataclasses import dataclass, replace
        @dataclass
        class Limits:
            stages: int = 12
            memory: int = 100
        def f(a, set_here=1):
            return replace(Limits(), memory=a)
        f(0, set_here=2)
    """)
    rows = {r.option: r for r in option_census.Census(tmp_path).rows()}
    assert rows["repro.pkg.Limits.stages"].kind == "field"
    assert rows["repro.pkg.Limits.stages"].status == "never-set"
    assert rows["repro.pkg.Limits.memory"].status == "live"
    assert option_census.main(
        ["--root", str(tmp_path), "--allow", str(tmp_path / "none.json")]
    ) == 0
    assert "never-set  field  repro.pkg.Limits.stages" in capsys.readouterr().out


def test_the_allow_list_needs_a_reason_and_a_never_set_option(tmp_path, capsys):
    census(tmp_path, src="""
        def f(a, pinned=True, used=1):
            return a
        f(0, used=2)
    """)
    allow = tmp_path / "allow.json"

    def run(entries):
        allow.write_text(json.dumps(entries))
        code = option_census.main(
            ["--root", str(tmp_path), "--allow", str(allow)]
        )
        return code, capsys.readouterr().out

    code, out = run([])
    assert code == 1 and "never set, not allow-listed: repro.pkg.f.pinned" in out
    code, out = run([{"option": "repro.pkg.f.pinned", "reason": " "}])
    assert code == 1 and "without a reason: repro.pkg.f.pinned" in out
    code, out = run([{"option": "repro.pkg.f.pinned",
                      "reason": "the benchmark spells it"}])
    assert code == 0 and "[allowed: the benchmark spells it]" in out
    code, out = run([
        {"option": "repro.pkg.f.pinned", "reason": "the benchmark spells it"},
        {"option": "repro.pkg.f.used", "reason": "stale"},
    ])
    assert code == 1 and "not a never-set option: repro.pkg.f.used" in out


def test_the_repo_has_no_never_set_option_outside_its_allow_list(capsys):
    assert option_census.main([]) == 0, capsys.readouterr().out
    allowed, faults = option_census.load_allow_list(option_census.ALLOW_FILE)
    assert not faults and len(allowed) <= 12
