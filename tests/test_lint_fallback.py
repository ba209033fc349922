"""``make lint-verify``'s stdlib fallback finds what it says it finds, and
the blocking set is clean under it."""

import re
import textwrap
from pathlib import Path

from benchmarks import lint_fallback

ROOT = Path(__file__).parent.parent


def codes(tmp_path, source: str):
    path = tmp_path / "sample.py"
    path.write_text(textwrap.dedent(source))
    return [line.split()[1] for line in lint_fallback.scan(path)]


def test_each_rule_fires_on_its_own_case(tmp_path):
    assert codes(tmp_path, "import os\n") == ["F401"]
    assert codes(tmp_path, """
        def f():
            kept = 1
            dropped = kept
            try:
                pass
            except ValueError as exc:
                pass
    """) == ["F841", "F841"]
    assert codes(tmp_path, """
        def f():
            return 1
        def f():
            return 2
    """) == ["F811"]


def test_what_ruff_accepts_is_accepted(tmp_path):
    assert codes(tmp_path, """
        from __future__ import annotations
        import os  # noqa: F401
        from typing import TYPE_CHECKING, List, Optional
        if TYPE_CHECKING:
            from pathlib import Path
        __all__ = ["List"]

        def f(path: "Path") -> "Optional[int]":
            a, b = 1, 2
            total = 0
            total += a
            return None

        class C:
            @property
            def x(self):
                return 1
            @x.setter
            def x(self, value):
                pass
    """) == []


def test_the_blocking_set_is_clean():
    makefile = (ROOT / "Makefile").read_text()
    block = re.search(r"LINT_BLOCKING = ((?:.*\\\n)*.*)\n", makefile).group(1)
    paths = [str(ROOT / path) for path in block.replace("\\\n", " ").split()]
    assert block == "src/repro"  # all of it, since the one-sweep PR
    assert lint_fallback.main(paths) == 0
