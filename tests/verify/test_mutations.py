"""Mutation tests: every historical compiler bug is rejected statically.

Each of the five reproducers in ``tests/difftest_corpus/`` was found
dynamically (by the difftest gauntlet) and fixed in the compiler.  These
tests re-introduce each bug as a targeted mutation of the *compiled
artifacts* and assert that the static verification layer rejects the
mutant with the distinct diagnostic code the bug maps to — i.e. had the
verifier existed first, none of the five would ever have reached the
dynamic oracle:

==================================  =========  ==============================
corpus entry                        code       re-introduced as
==================================  =========  ==============================
remat_nonp4_into_post               P4L001     non-P4 op (``%``) in the post
                                               pipeline (bad remat)
stranded_offloaded_register_write   PART001    one of two RMWs of a register
                                               flipped to the switch
l4_alias_hoist                      PART003    dependency sink hoisted above
                                               its server-side source
table_stage_erase_insert            P4L005     table sized past the switch
                                               memory budget
cached_post_register_rmw            PART006    the compiled program itself,
                                               checked in cache mode
==================================  =========  ==============================
"""

import copy
import dataclasses

import pytest

from repro.compiler import compile_source
from repro.difftest.corpus import load_corpus
from repro.ir import instructions as irin
from repro.ir.values import const_int, Reg
from repro.lang.types import IntType
from repro.middleboxes import load
from repro.partition.labels import Partition
from repro.verify import verify_compilation
from repro.verify.symbolic import verify_symbolic


@pytest.fixture(scope="module")
def corpus():
    entries = {entry.name: entry for entry in load_corpus()}
    assert len(entries) >= 5, "difftest corpus incomplete"
    return entries


def _compile(corpus, name):
    result = compile_source(corpus[name].source, verify=False)
    # Baseline: the fixed compiler's output verifies clean.
    assert verify_compilation(result).ok, f"{name}: baseline not clean"
    return result


def plant_mod_in_post(result):
    """Bug 1: a pure-but-non-P4 slice (``%``) rematerialized into the post
    pipeline.  Mutation: plant a MOD instruction in the post entry block."""
    post = result.switch_program.post
    bad = irin.BinOp(
        Reg("mutant_mod", IntType(32)),
        irin.BinOpKind.MOD,
        const_int(7),
        const_int(3),
    )
    post.blocks[post.entry].instructions.insert(0, bad)


def offload_one_of_two_rmws(result):
    """Bug 2: one RMW of a register offloaded while its sibling stayed on
    the server.  Mutation: flip the first server-side RMW to PRE."""
    plan = result.plan
    rmws = [
        inst
        for inst in plan.middlebox.process.instructions()
        if isinstance(inst, irin.RegisterRMW)
        and plan.assignment.get(inst.id) is Partition.NON_OFF
    ]
    assert len(rmws) >= 2, "expected both RMWs on the server after the fix"
    plan.assignment[rmws[0].id] = Partition.PRE


def hoist_a_dependency_sink(result):
    """Bug 3: an aliased L4 store was hoisted above the load it feeds.
    Mutation: move a dependency *sink* into PRE while its server-side
    source stays put, so the dep edge flows backward across partitions."""
    from repro.analysis.depgraph import build_dependency_graph

    plan = result.plan
    graph = build_dependency_graph(plan.middlebox.process)
    victim = None
    for (src_id, dst_id), _kinds in sorted(graph.edges.items()):
        src = graph.by_id(src_id)
        dst = graph.by_id(dst_id)
        if (
            plan.assignment.get(src.id) is Partition.NON_OFF
            and plan.assignment.get(dst.id) is Partition.NON_OFF
            and not any(loc.is_global for loc in dst.writes())
        ):
            victim = dst
            break
    assert victim is not None, "no server-side dependency edge to invert"
    plan.assignment[victim.id] = Partition.PRE


def size_a_table_past_switch_memory(result):
    """Bug 4: erase+insert through a full table.  The capacity half of
    that bug class: a table sized past switch SRAM must be a lint error,
    not a deploy-time ``SwitchProgramError``."""
    program = result.switch_program
    assert program.tables, "expected an offloaded table"
    name, spec = next(iter(program.tables.items()))
    program.tables[name] = dataclasses.replace(spec, size=1 << 30)


#: corpus entry -> (the code its bug maps to, the mutation that brings the
#: bug back); ``test_stale_answers.py`` re-runs each on verified artifacts
HISTORICAL_BUGS = {
    "remat_nonp4_into_post": ("P4L001", plant_mod_in_post),
    "stranded_offloaded_register_write": ("PART001", offload_one_of_two_rmws),
    "l4_alias_hoist": ("PART003", hoist_a_dependency_sink),
    "table_stage_erase_insert": ("P4L005", size_a_table_past_switch_memory),
}


@pytest.mark.parametrize("name", sorted(HISTORICAL_BUGS))
def test_historical_bug_is_rejected_with_its_code(corpus, name):
    code, mutate = HISTORICAL_BUGS[name]
    result = _compile(corpus, name)
    mutate(result)
    report = verify_compilation(result)
    assert not report.ok
    assert code in {d.code for d in report.diagnostics}


def test_cached_post_rmw_rejected_part006(corpus):
    """Bug 5: a post-pipeline register RMW silently lost updates under the
    cached deployment.  The compiled program is *correct* for the full
    deployment (clean in normal mode) and must be rejected statically the
    moment cache mode is requested."""
    result = _compile(corpus, "cached_post_register_rmw")
    assert any(
        isinstance(inst, irin.RegisterRMW)
        for inst in result.plan.post.instructions()
    ), "expected the RMW to be offloaded into post"
    report = verify_compilation(result, cache_mode=True)
    assert not report.ok
    assert "PART006" in {d.code for d in report.diagnostics}
    assert verify_compilation(result, cache_mode=False).ok


def test_five_bugs_map_to_distinct_codes():
    """The acceptance criterion: five historical bugs, five distinct
    diagnostic codes."""
    codes = {"P4L001", "PART001", "PART003", "P4L005", "PART006"}
    assert len(codes) == 5


# ---------------------------------------------------------------------------
# Symbolic calibration: the same five bugs, re-introduced as *artifact*
# mutations the static layer cannot see (the artifacts stay well-formed;
# only their meaning changes), must each be disproved by the translation
# validator with a distinct SYM code and an interpreter-confirmed
# counterexample packet.
#
# ==================================  =======  ============================
# corpus entry                        code     semantic mutation
# ==================================  =======  ============================
# cached_post_register_rmw            SYM001   post Drop flipped to Send
# l4_alias_hoist                      SYM002   post Send retargeted to
#                                              a wrong port
# remat_nonp4_into_post               SYM003   pre corrupts ip.ttl
# stranded_offloaded_register_write   SYM004   server RMW operand altered
# table_stage_erase_insert            SYM006   table shrunk under its
#                                              working set
# ==================================  =======  ============================
#
# SYM005 (replication skew) is calibrated twice: by skewing the symbolic
# switch copy of a table behind the composition's back (the data plane
# rejects table writes outright, SYM006, so no artifact mutation makes a
# table drift), and by mutants of the replication rule itself — register
# writes or vector pushes left out of ``UPDATE_OPS`` — which let a
# register or a replicated vector drift.  A wrong value pushed to a
# vector is a SYM004: the prover compares vectors as the concrete oracle
# does.
# ---------------------------------------------------------------------------


def _prove(corpus, name, result, tmp_path):
    return verify_symbolic(
        result.plan,
        result.switch_program,
        source=corpus[name].source,
        corpus_dir=tmp_path,
    )


def _sole_confirmed(report, code):
    assert not report.proved
    assert [diag.code for diag in report.errors] == [code]
    assert len(report.counterexamples) == 1
    cx = report.counterexamples[0]
    assert cx.code == code
    assert cx.confirmed, cx.replay_detail
    return cx


def test_symbolic_verdict_flip_disproved_sym001(corpus, tmp_path):
    """Drop-class bug: the post pipeline emits a packet the source drops."""
    name = "cached_post_register_rmw"
    result = _compile(corpus, name)
    post = result.switch_program.post
    block = _block_with(post, irin.Drop)
    idx = _index_of(block, irin.Drop)
    block.instructions[idx] = irin.Send()
    cx = _sole_confirmed(_prove(corpus, name, result, tmp_path), "SYM001")
    assert "drop" in cx.detail and "send" in cx.detail


def test_symbolic_wrong_egress_disproved_sym002(corpus, tmp_path):
    """Egress-class bug: the post pipeline sends out a hardwired port."""
    name = "l4_alias_hoist"
    result = _compile(corpus, name)
    post = result.switch_program.post
    block = _block_with(post, irin.Send, exact=True)
    idx = _index_of(block, irin.Send, exact=True)
    block.instructions[idx] = irin.SendTo(const_int(7))
    cx = _sole_confirmed(_prove(corpus, name, result, tmp_path), "SYM002")
    assert "port" in cx.detail


def test_symbolic_field_corruption_disproved_sym003(corpus, tmp_path):
    """Field-class bug: the pre pipeline stamps a header field the
    source never writes (the dynamic shape of the remat bug)."""
    name = "remat_nonp4_into_post"
    result = _compile(corpus, name)
    pre = result.switch_program.pre
    pre.blocks[pre.entry].instructions.insert(
        0, irin.StorePacketField("ip", "ttl", const_int(13))
    )
    cx = _sole_confirmed(_prove(corpus, name, result, tmp_path), "SYM003")
    assert "ttl" in cx.detail


def test_symbolic_state_write_disproved_sym004(corpus, tmp_path):
    """State-class bug: a server-side register RMW applies the wrong
    operand, so post-run state diverges from the source's."""
    name = "stranded_offloaded_register_write"
    result = _compile(corpus, name)
    noff = result.plan.non_offloaded
    block = _block_with(noff, irin.RegisterRMW)
    idx = _index_of(block, irin.RegisterRMW)
    inst = block.instructions[idx]
    block.instructions[idx] = irin.RegisterRMW(
        inst.dst, inst.state, inst.op, const_int(2)
    )
    _sole_confirmed(_prove(corpus, name, result, tmp_path), "SYM004")


def test_symbolic_replication_skew_disproved_sym005(corpus, monkeypatch):
    """Replication-class bug: the switch copy of a replicated table
    drifts from the server master (§4.3.3 skew).  The data plane forbids
    the writes that would cause this organically, so the skew is injected
    into the composed run and the concrete replay stubbed to concur."""
    from repro.verify.symbolic import prover

    name = "table_stage_erase_insert"
    result = _compile(corpus, name)
    table_name = next(
        n for n, s in result.switch_program.tables.items() if s.replicated
    )
    real_run = prover._run_composition

    def skewed(*args, **kwargs):
        outcome = real_run(*args, **kwargs)
        if outcome.switch is not None:
            outcome.switch.tables[table_name].entries.append(((9,), 5))
        return outcome

    monkeypatch.setattr(prover, "_run_composition", skewed)
    monkeypatch.setattr(
        prover, "replay_counterexample",
        lambda *args, **kwargs: (True, "switch copy diverges from master"),
    )
    report = verify_symbolic(result.plan, result.switch_program)
    assert not report.proved
    assert "SYM005" in {diag.code for diag in report.errors}
    cx = report.counterexamples[0]
    assert cx.code == "SYM005"
    assert cx.confirmed


def test_register_replication_mutant_disproved_sym005(monkeypatch):
    """Replication-class bug in the rule: the server's register writes
    never reach the switch.  Generated program 4 replicates ``ctr0 |= 17``;
    the prover disproves the mutant and the concrete kernel's convergence
    check is what replay sees.  ``make replication-mutants`` runs the same
    mutant over every generated program with a replicated register."""
    from repro.difftest.generator import generate_program
    from repro.difftest.kernel import derive_seeds
    from repro.difftest.oracle import StreamSpec, check_artifacts
    from repro.runtime import server
    from repro.runtime.deployment import compile_middlebox

    program_seed, stream_seed = derive_seeds(0, 4)
    plan, program = compile_middlebox(generate_program(program_seed).source())
    monkeypatch.delitem(server.UPDATE_OPS, "store")
    cx = _sole_confirmed(verify_symbolic(plan, program), "SYM005")
    assert "ctr0" in cx.detail
    result = check_artifacts(
        plan, program, StreamSpec(seed=stream_seed, count=10),
        provenance=False,
    )
    assert result.divergence is not None
    assert result.divergence.kind == "convergence"
    assert "ctr0" in result.divergence.detail


def test_vector_replication_mutant_disproved_sym005(monkeypatch):
    """The same bug for a vector the switch reads: the server's pushes
    never reach the switch's table."""
    from repro.runtime import server
    from tests.runtime.test_state_image import vecbox

    plan, program = vecbox()
    monkeypatch.delitem(server.UPDATE_OPS, "push")
    cx = _sole_confirmed(verify_symbolic(plan, program), "SYM005")
    assert "replicated table 'seen'" in cx.detail


#: one server write, to a vector the switch never reads
LOG = """
class Log {
  Vector<uint32_t> seen;

  void process(Packet *pkt) {
    iphdr *ip = pkt->network_header();
    seen.push_back(ip->saddr);
    pkt->send();
  }
};
"""


def test_symbolic_vector_write_disproved_sym004():
    """State-class bug on a vector: the server partition pushes a constant
    where the source pushes ``ip->saddr``."""
    result = compile_source(LOG, verify=False)
    plan = result.plan
    assert verify_symbolic(plan, result.switch_program).proved
    # The partition's instructions are the source's own objects.
    plan.non_offloaded = copy.deepcopy(plan.non_offloaded)
    block = _block_with(plan.non_offloaded, irin.VectorPush)
    idx = _index_of(block, irin.VectorPush)
    block.instructions[idx] = irin.VectorPush(
        block.instructions[idx].state, const_int(7)
    )
    cx = _sole_confirmed(
        verify_symbolic(plan, result.switch_program), "SYM004"
    )
    assert "vector seen" in cx.detail


def test_symbolic_composition_crash_disproved_sym006(corpus, tmp_path):
    """Crash-class bug: the deployment cannot even install a pre-state
    the source program handles (table shrunk under its working set)."""
    name = "table_stage_erase_insert"
    result = _compile(corpus, name)
    program = result.switch_program
    table_name, spec = next(
        (n, s) for n, s in program.tables.items() if s.replicated
    )
    program.tables[table_name] = dataclasses.replace(spec, size=1)
    report = _prove(corpus, name, result, tmp_path)
    assert not report.proved
    assert "SYM006" in {diag.code for diag in report.errors}
    cx = report.counterexamples[0]
    assert cx.code == "SYM006"
    assert cx.confirmed, cx.replay_detail


def test_symbolic_swapped_whitelist_key_disproved_sym001():
    """A key mix-up in a lookup of a map no function writes: firewall's
    pre asks ``wl_out`` with the source and destination ports swapped.
    Merged, the lookup is one decision, and the world where the source
    finds the flow and the switch does not has an ``lor`` over 64 entries
    for its path condition, which no witness draw satisfies.  So that
    scenario is explored again entry by entry: its first mismatch names
    one entry, whose key test fixes the witness.  Without the second pass
    the proof ends inconclusive (SYM008)."""
    middlebox = load("firewall")
    result = compile_source(middlebox.source, verify=False)
    pre = result.switch_program.pre
    block, idx = next(
        (block, idx) for block in pre.blocks.values()
        for idx, inst in enumerate(block.instructions)
        if isinstance(inst, irin.MapFind) and inst.state == "wl_out"
    )
    find = block.instructions[idx]
    keys = list(find.keys)
    keys[2], keys[3] = keys[3], keys[2]
    block.instructions[idx] = irin.MapFind(
        find.found, find.value, find.state, keys
    )
    report = verify_symbolic(
        result.plan, result.switch_program, config=middlebox.config
    )
    cx = _sole_confirmed(report, "SYM001")
    assert [scenario["split"] for scenario in report.per_scenario] == [True]
    fields = cx.packet["fields"]
    assert (fields["tcp.sport"], fields["tcp.dport"]) == (1000, 80)


def test_symbolic_unsound_path_reported_sym007(corpus, tmp_path, monkeypatch):
    """If a symbolic disproof *never* replays concretely, the prover must
    indict itself (path-condition unsoundness), not the compiler."""
    from repro.verify.symbolic import prover

    monkeypatch.setattr(
        prover, "replay_counterexample",
        lambda *args, **kwargs: (False, "deployment agrees"),
    )
    name = "cached_post_register_rmw"
    result = _compile(corpus, name)
    post = result.switch_program.post
    block = _block_with(post, irin.Drop)
    idx = _index_of(block, irin.Drop)
    block.instructions[idx] = irin.Send()
    report = _prove(corpus, name, result, tmp_path)
    assert not report.proved
    assert "SYM007" in {diag.code for diag in report.errors}
    assert not report.counterexamples  # nothing confirmed, nothing saved
    assert not list(tmp_path.glob("*.json"))


def test_symbolic_budget_exhaustion_reported_sym008(corpus):
    """A starved budget must yield an *inconclusive* verdict (SYM008),
    never a silent pass."""
    from repro.verify.symbolic import SymbolicBudget

    name = "l4_alias_hoist"
    result = _compile(corpus, name)
    budget = SymbolicBudget(max_worlds=1)
    report = verify_symbolic(result.plan, result.switch_program, budget=budget)
    assert not report.proved
    assert report.inconclusive
    assert {diag.code for diag in report.errors} == {"SYM008"}


def test_symbolic_mutations_map_to_distinct_codes():
    """Acceptance criterion for the translation validator: the five bug
    classes map to five distinct SYM codes."""
    codes = {"SYM001", "SYM002", "SYM003", "SYM004", "SYM006"}
    assert len(codes) == 5


def test_symbolic_counterexamples_written_to_corpus(corpus, tmp_path):
    """Every confirmed disproof lands in the corpus directory as a
    minimized reproducer that replays to its recorded expectation."""
    from repro.difftest.corpus import load_corpus as load_dir, replay_entry

    name = "remat_nonp4_into_post"
    result = _compile(corpus, name)
    pre = result.switch_program.pre
    pre.blocks[pre.entry].instructions.insert(
        0, irin.StorePacketField("ip", "ttl", const_int(13))
    )
    report = _prove(corpus, name, result, tmp_path)
    cx = report.counterexamples[0]
    assert cx.corpus_path is not None
    entries = load_dir(tmp_path)
    assert len(entries) == 1
    entry = entries[0]
    assert entry.name.startswith("symbolic_")
    assert replay_entry(entry).outcome.value == entry.expect


def _block_with(function, kind, exact=False):
    for block in function.blocks.values():
        for inst in block.instructions:
            if (type(inst) is kind) if exact else isinstance(inst, kind):
                return block
    raise AssertionError(f"no {kind.__name__} in {function.name}")


def _index_of(block, kind, exact=False):
    for idx, inst in enumerate(block.instructions):
        if (type(inst) is kind) if exact else isinstance(inst, kind):
            return idx
    raise AssertionError(f"no {kind.__name__} in block")
