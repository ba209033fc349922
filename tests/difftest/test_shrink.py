"""The delta-debugging shrinker, driven by synthetic predicates.

Synthetic predicates (plain text checks on the rendered source) make
convergence deterministic and fast — no oracle runs — while exercising
every structural mutation the real gauntlet uses.
"""

import pytest

from repro.difftest.generator import (
    GenProgram,
    If,
    Let,
    MapSpec,
    ScalarUpdate,
    SetField,
    Verdict,
)
from repro.difftest.oracle import StreamSpec
from repro.difftest.shrink import shrink_case


def _program() -> GenProgram:
    return GenProgram(
        maps=[MapSpec("m0", 16, 32, 4096)],
        scalars=["ctr0", "ctr1"],
        use_tcp=True,
        use_udp=False,
        body=[
            Let("x0", 32, "(ip->saddr & 65535)"),
            SetField("ip", "ttl", "7"),
            If(
                cond="(x0 > 100)",
                then=[ScalarUpdate("ctr0", "+=", "1")],
                els=[SetField("ip", "tos", "3")],
            ),
            ScalarUpdate("ctr1", "^=", "255"),
            Verdict("send"),
        ],
    )


def test_converges_to_known_minimal():
    """Predicate 'contains ctr0 += 1' strips everything else away."""
    program, stream = shrink_case(
        _program(),
        StreamSpec(seed=1, count=25),
        lambda p, s: "ctr0 += 1" in p.source(),
    )
    source = program.source()
    assert "ctr0 += 1" in source
    # The If wrapper was unwrapped into its then-arm, the unrelated
    # statements dropped, the unused members removed.
    assert "if (" not in source
    assert len(program.body) == 1
    assert not program.maps
    assert program.scalars == ["ctr0"]
    assert stream.count == 1


def test_never_returns_failing_candidate():
    """The result always satisfies the predicate — even a flaky one."""
    calls = []

    def predicate(program, stream):
        calls.append(1)
        return "ip->ttl" in program.source()

    program, stream = shrink_case(
        _program(), StreamSpec(seed=1, count=25), predicate
    )
    assert calls
    assert predicate(program, stream)


def test_shrinks_literals():
    program, _ = shrink_case(
        _program(),
        StreamSpec(seed=1, count=2),
        lambda p, s: "&" in p.source(),
    )
    assert "65535" not in program.source()


def test_initial_non_failure_raises():
    with pytest.raises(ValueError):
        shrink_case(
            _program(),
            StreamSpec(seed=1, count=2),
            lambda p, s: "no such token" in p.source(),
        )


def test_predicate_exception_propagates():
    """An invalid mutant never makes the oracle raise — it comes back as
    a classified crash or refusal — so a predicate that raises is a bug
    in the harness, and the shrinker no longer hides it as "rejected"."""

    def predicate(program, stream):
        if "ip->ttl" not in program.source():
            raise RuntimeError("the harness itself broke")
        return True

    with pytest.raises(RuntimeError, match="harness itself broke"):
        shrink_case(_program(), StreamSpec(seed=1, count=2), predicate)


class TestTraceGuidedShrinking:
    """Trace-diff hints order candidates before blind bisection."""

    @staticmethod
    def _diff(packet=3, name="ctr0"):
        return {
            "divergent": True,
            "stream": f"state member '{name}'",
            "rhs_event": {
                "seq": 9, "time_us": 2.0, "component": "server",
                "kind": "register_write", "packet": packet,
                "detail": {"name": name},
            },
            "lhs_context": [
                {"seq": 8, "time_us": 1.9, "component": "server",
                 "kind": "register_read", "packet": packet,
                 "detail": {"name": name}},
            ],
        }

    def test_hints_extracted_from_diff(self):
        from repro.difftest.shrink import ShrinkHints

        hints = ShrinkHints.from_trace_diff(self._diff())
        assert hints.packet == 3
        assert hints.names == frozenset({"ctr0"})
        # Non-divergent and missing diffs degrade to empty hints.
        assert ShrinkHints.from_trace_diff(None) == ShrinkHints()
        assert ShrinkHints.from_trace_diff(
            {"divergent": False}
        ) == ShrinkHints()

    def test_guided_stream_cut_lands_after_divergent_packet(self):
        """With a packet hint the first truncation try is packet+1, so a
        divergence needing packets 0..3 settles at count=4 in one call
        instead of walking the blind 1/half/-1 ladder."""
        calls = []

        def predicate(program, stream):
            calls.append(stream.count)
            return stream.count >= 4

        _, stream = shrink_case(
            _program(), StreamSpec(seed=1, count=25), predicate,
            trace_diff=self._diff(packet=3),
        )
        assert stream.count == 4
        # First shrink attempt after the initial check was the guided cut.
        assert calls[1] == 4

    def test_unrelated_statements_dropped_first(self):
        from repro.difftest.shrink import ShrinkHints, _drop_one_statement

        program = _program()
        dropped_sources = []

        def reject_all(candidate, stream):
            dropped_sources.append(candidate.source())
            return False

        _drop_one_statement(
            program, StreamSpec(seed=1, count=2), reject_all,
            ShrinkHints(names=frozenset({"ctr0"})),
        )
        # The first candidate deletion kept every ctr0 mention intact —
        # i.e. the statement tried first does not touch ctr0.
        assert "ctr0 += 1" in dropped_sources[0]
        # The ctr0-touching statements were attempted last.
        assert "ctr0 += 1" not in dropped_sources[-1]
