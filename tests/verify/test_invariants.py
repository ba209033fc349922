"""Stage 2 unit tests: partition-invariant codes (PART001-PART006).

Each test compiles a small program (verification off), applies one
targeted mutation to the partition plan or shim layout, and asserts
exactly the expected invariant fires.  The paper properties re-proved
here: one-directional state replication (§4.3.3), run-to-completion
phase order (§4.2.1), and boundary liveness within the constraint-5
transfer budget (§4.3.2).
"""

import dataclasses

import pytest

from repro.codegen.headers import ShimLayout
from repro.compiler import compile_source
from repro.ir import instructions as irin
from repro.partition.labels import Partition
from repro.verify import verify_compilation, verify_partition

COUNTER_SOURCE = """class Box {
  uint32_t ctr0;

  void process(Packet *pkt) {
    iphdr *ip = pkt->network_header();
    if (ctr0 == 0) {
      ip->ttl = 1;
    }
    ctr0 += 1;
    pkt->send();
  }
};
"""

STRANDED_SOURCE = """class Box {
  uint32_t ctr0;

  void process(Packet *pkt) {
    ctr0 += 1;
    ctr0 -= 0;
    pkt->send();
  }
};
"""

def _flow_source():
    """A program with a value crossing the pre->server boundary and
    server-side dependency edges (the l4_alias_hoist reproducer)."""
    from repro.difftest.corpus import load_corpus

    entries = {entry.name: entry for entry in load_corpus()}
    return entries["l4_alias_hoist"].source


def _compile(source):
    result = compile_source(source, verify=False)
    assert verify_compilation(result).ok
    return result


def _codes(result, cache_mode=False):
    report = verify_compilation(result, cache_mode=cache_mode)
    return [d.code for d in report.diagnostics]


def _rmws(plan, partition=None):
    return [
        inst
        for inst in plan.middlebox.process.instructions()
        if isinstance(inst, irin.RegisterRMW)
        and (partition is None or plan.assignment.get(inst.id) is partition)
    ]


def test_part001_offloaded_write_with_server_write():
    result = _compile(STRANDED_SOURCE)
    rmws = _rmws(result.plan, Partition.NON_OFF)
    assert len(rmws) >= 2
    result.plan.assignment[rmws[0].id] = Partition.PRE
    codes = _codes(result)
    assert "PART001" in codes
    assert "PART002" not in codes


def test_part002_offloaded_write_with_server_read():
    result = _compile(COUNTER_SOURCE)
    plan = result.plan
    instructions = list(plan.middlebox.process.instructions())
    # Move the whole read side onto the server and the single RMW onto
    # the switch: ctr0 is now written offloaded and read on the server,
    # but never written on the server (PART002, not PART001).
    for inst in instructions:
        plan.assignment[inst.id] = Partition.NON_OFF
    (rmw,) = _rmws(plan)
    plan.assignment[rmw.id] = Partition.POST
    verdicts = [i for i in instructions if i.is_verdict]
    for verdict in verdicts:
        plan.assignment[verdict.id] = Partition.POST
    codes = _codes(result)
    assert "PART002" in codes
    assert "PART001" not in codes


def test_part003_backward_dependency_edge():
    result = _compile(_flow_source())
    plan = result.plan
    from repro.analysis.depgraph import build_dependency_graph

    graph = build_dependency_graph(plan.middlebox.process)
    victim = None
    for (src_id, dst_id), _kinds in sorted(graph.edges.items()):
        src, dst = graph.by_id(src_id), graph.by_id(dst_id)
        if (
            plan.assignment.get(src.id) is Partition.NON_OFF
            and plan.assignment.get(dst.id) is Partition.NON_OFF
            and not any(loc.is_global for loc in dst.writes())
        ):
            victim = dst
            break
    if victim is None:
        pytest.skip("no invertible server-side dependency edge")
    plan.assignment[victim.id] = Partition.PRE
    assert "PART003" in _codes(result)


def test_part004_shim_field_dropped():
    result = _compile(_flow_source())
    crossing = [
        f for f in result.shim_to_server.fields
        if not f.name.startswith("__")
    ]
    assert crossing, "expected a value crossing the pre->server boundary"
    # A layout is immutable: the mutation is a layout built without the field.
    result.shim_to_server = ShimLayout("to_server", tuple(
        f for f in result.shim_to_server.fields if f is not crossing[0]
    ))
    assert "PART004" in _codes(result)


def test_part005_shim_over_budget():
    result = _compile(_flow_source())
    plan = result.plan
    plan.limits = dataclasses.replace(plan.limits, transfer_bytes=0)
    assert "PART005" in _codes(result)


def force_rmw_into_post(result):
    """Legal for the full deployment, a lost update under the cache."""
    plan = result.plan
    (rmw,) = _rmws(plan)
    plan.post.blocks[plan.post.entry].instructions.insert(0, rmw)


def test_part006_only_in_cache_mode():
    result = _compile(COUNTER_SOURCE)
    assert _rmws(result.plan, Partition.NON_OFF), "RMW stays server-side"
    # Clean in both modes: the RMW is not offloaded.
    assert "PART006" not in _codes(result, cache_mode=True)
    # With the RMW in the post pipeline only cache_mode objects.
    force_rmw_into_post(result)
    plan = result.plan
    diagnostics = verify_partition(
        plan, result.shim_to_server, result.shim_to_switch, cache_mode=True
    )
    assert "PART006" in [d.code for d in diagnostics]
    diagnostics = verify_partition(
        plan, result.shim_to_server, result.shim_to_switch, cache_mode=False
    )
    assert "PART006" not in [d.code for d in diagnostics]
