"""The closed-form label engine decides what rules 1–5 decide.

``repro.partition.labels`` computes the fixpoint of the paper's rules as
two unions of bitsets.  The oracle here is the rule-by-rule sweep it
replaced, kept literal — ``set[Label]`` per instruction, every closure
pair visited until nothing changes — over a closure it computes itself
(a DFS per node, not the graph's bitsets).  Every comparison is of whole
label sets, over the six bundled middleboxes, 64 generated programs and
three hand-written ones, each under seeded random pin sets.
"""

import random
from typing import Dict, Set
from unittest import mock

import pytest

from repro.analysis.depgraph import build_dependency_graph
from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.lang import parse_program
from repro.middleboxes import MIDDLEBOX_NAMES
from repro.partition import labels as labels_module
from repro.partition.labels import Label, run_label_removal
from repro.partition.partitioner import partition_middlebox
from tests.conftest import get_bundle
from tests.partition.test_labels import lower

GENERATED = 64
PIN_SETS_PER_SHAPE = 3


# -- the oracle ---------------------------------------------------------------


def closure_by_dfs(graph) -> Dict[int, Set[int]]:
    """src_id -> every id depending on it transitively (DFS per node)."""
    closure: Dict[int, Set[int]] = {}
    for start in graph.dependents:
        seen: Set[int] = set()
        stack = list(graph.dependents[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph.dependents[node])
        closure[start] = seen
    return closure


def initial_labels(graph, removed=None) -> Dict[int, Set[Label]]:
    """Initial label sets, minus any labels pinned away by ``removed``.

    The resource-refinement passes of §4.2.2 express "move this statement
    to the non-offloaded partition" as removing its pre/post labels up
    front and re-running the rules.
    """
    labels: Dict[int, Set[Label]] = {}
    removed = removed or {}
    for inst in graph.instructions:
        if inst.p4_supported():
            label_set = {Label.PRE, Label.POST, Label.NON_OFF}
        else:
            label_set = {Label.NON_OFF}
        label_set -= removed.get(inst.id, set())
        label_set.add(Label.NON_OFF)  # every statement can run on the server
        labels[inst.id] = label_set
    return labels


def sweep_rules(graph, removed=None) -> Dict[int, Set[Label]]:
    """Apply rules 1–5 to a fixpoint, one rule at a time."""
    closure = closure_by_dfs(graph)
    labels = initial_labels(graph, removed)

    # Rule 5 first: any instruction that transitively depends on itself (or
    # sits on a CFG cycle) can only be non-offloaded.
    for inst in graph.instructions:
        if inst.id in closure[inst.id] or graph.reachability.in_cycle(inst):
            labels[inst.id] = {Label.NON_OFF}

    accesses = {
        inst.id: inst.global_state_accesses() for inst in graph.instructions
    }

    changed = True
    while changed:
        changed = False
        for src_id, dst_ids in closure.items():
            src_labels = labels[src_id]
            for dst_id in dst_ids:
                if dst_id == src_id:
                    continue
                dst_labels = labels[dst_id]
                # Rule 1: downstream lost post -> upstream loses post.
                if Label.POST not in dst_labels and Label.POST in src_labels:
                    src_labels.discard(Label.POST)
                    changed = True
                # Rule 2: upstream lost pre -> downstream loses pre.
                if Label.PRE not in src_labels and Label.PRE in dst_labels:
                    dst_labels.discard(Label.PRE)
                    changed = True
                if accesses[src_id] & accesses[dst_id]:
                    # Rule 3: upstream access offloadable as pre -> the
                    # downstream access to the same state cannot be pre.
                    if Label.PRE in src_labels and Label.PRE in dst_labels:
                        dst_labels.discard(Label.PRE)
                        changed = True
                    # Rule 4: downstream access may be post -> the upstream
                    # access cannot be post.
                    if Label.POST in dst_labels and Label.POST in src_labels:
                        src_labels.discard(Label.POST)
                        changed = True
    return labels


# -- the programs ---------------------------------------------------------------


HAND_WRITTEN = {
    # Rule 5: the loop body and its header never offload.
    "loop": lambda: lower(
        "uint32_t acc = 0;"
        " for (uint32_t i = 0; i < 3; i += 1) { acc += ctr; }"
        " ctr = acc; pkt->send();",
        members="uint32_t ctr;",
    ),
    # An op with no P4 form in the middle of a chain.
    "unsupported": lambda: lower(
        "iphdr *ip = pkt->network_header();"
        " uint32_t a = ip->saddr % 7; uint32_t b = a + ctr;"
        " ip->ttl = (uint8_t)b; ctr = b; pkt->send();",
        members="uint32_t ctr;",
    ),
    # Three accesses to one table, each keyed by the previous one's
    # result: S1 ⇝ S2 ⇝ S3 on the same state.  The middle site is the
    # later one of a pair *and* the earlier one of another, which is the
    # case the closed form's "rules 3 and 4 are unconditional" rests on.
    "same_state_chain": lambda: lower(
        "iphdr *ip = pkt->network_header();"
        " uint32_t k1 = ip->saddr; uint32_t *v1 = t.find(&k1);"
        " if (v1 != NULL) {"
        "   uint32_t k2 = *v1 + 1; uint32_t *v2 = t.find(&k2);"
        "   if (v2 != NULL) {"
        "     uint32_t k3 = *v2 + 1; uint32_t *v3 = t.find(&k3);"
        "     if (v3 != NULL) { ip->daddr = *v3; }"
        "   }"
        " }"
        " pkt->send();",
        members="HashMap<uint32_t, uint32_t> t;",
    ),
}


def _lowered(label: str):
    if label in MIDDLEBOX_NAMES:
        return get_bundle(label).lowered
    if label in HAND_WRITTEN:
        return HAND_WRITTEN[label]()
    program_seed, _ = derive_seeds(0, int(label[3:]))
    return lower_program(parse_program(generate_program(program_seed).source()))


PROGRAMS = (
    list(MIDDLEBOX_NAMES)
    + sorted(HAND_WRITTEN)
    + [f"gen{index:03d}" for index in range(GENERATED)]
)


def pin_sets(graph, rng: random.Random):
    """No pins, then seeded random ones: pre-only, post-only and both."""
    yield "none", None
    ids = [inst.id for inst in graph.instructions]
    shapes = {
        "pre": lambda: {Label.PRE},
        "post": lambda: {Label.POST},
        "both": lambda: set(
            rng.choice(
                [{Label.PRE}, {Label.POST}, {Label.PRE, Label.POST}]
            )
        ),
    }
    for shape, draw in shapes.items():
        for round_ in range(PIN_SETS_PER_SHAPE):
            count = rng.randint(1, max(1, len(ids) // 4))
            yield f"{shape}{round_}", {
                inst_id: draw() for inst_id in rng.sample(ids, count)
            }


# -- the tests ----------------------------------------------------------------


@pytest.mark.parametrize("label", PROGRAMS)
def test_engine_matches_the_rule_sweep(label):
    graph = build_dependency_graph(_lowered(label).process)
    rng = random.Random(f"label-engine/{label}")
    for name, removed in pin_sets(graph, rng):
        expected = sweep_rules(graph, removed)
        result = run_label_removal(graph, removed)
        assert result.labels == expected, f"{label}/{name}"
        assert result.assignment() == {
            inst.id: result.partition_of(inst) for inst in graph.instructions
        }


def test_the_hand_written_programs_hit_their_case():
    loop = build_dependency_graph(HAND_WRITTEN["loop"]().process)
    assert any(loop.reachability.in_cycle(i) for i in loop.instructions)
    assert any(loop.self_dependent(i) for i in loop.instructions)

    unsupported = build_dependency_graph(
        HAND_WRITTEN["unsupported"]().process
    )
    assert any(not i.p4_supported() for i in unsupported.instructions)

    chain = build_dependency_graph(HAND_WRITTEN["same_state_chain"]().process)
    first, second, third = [
        i for i in chain.instructions if isinstance(i, irin.MapFind)
    ]
    assert chain.depends_transitively(second, first)
    assert chain.depends_transitively(third, second)
    labels = run_label_removal(chain).labels
    assert Label.PRE in labels[first.id] and Label.POST not in labels[first.id]
    assert labels[second.id] == {Label.NON_OFF}
    assert Label.POST in labels[third.id] and Label.PRE not in labels[third.id]


@pytest.mark.parametrize("label", PROGRAMS[:12])
def test_closure_bitsets_match_the_dfs(label):
    graph = build_dependency_graph(_lowered(label).process)
    closure = closure_by_dfs(graph)
    by_position = {at: inst_id for inst_id, at in graph.position.items()}
    for inst in graph.instructions:
        at = graph.position[inst.id]
        descendants = {
            by_position[bit]
            for bit in range(len(graph.instructions))
            if graph.descendants[at] >> bit & 1
        }
        assert descendants == closure[inst.id]
        ancestors = {
            by_position[bit]
            for bit in range(len(graph.instructions))
            if graph.ancestors[at] >> bit & 1
        }
        assert ancestors == {
            other for other, reached in closure.items() if inst.id in reached
        }


@pytest.mark.parametrize("name", ["trojan", "lb"])
def test_static_part_is_built_once_per_graph(name):
    """A whole ``partition_middlebox`` re-runs the rules many times over
    one graph; what depends on the graph alone is derived once."""
    build = labels_module.LabelStatics.build
    builds, runs = [], []

    def counted_build(graph):
        builds.append(graph)
        return build(graph)

    def counted_run(graph, removed=None):
        runs.append(graph)
        return run_label_removal(graph, removed)

    from repro.partition import partitioner

    with mock.patch.object(
        labels_module.LabelStatics, "build", counted_build
    ), mock.patch.object(partitioner, "run_label_removal", counted_run):
        partition_middlebox(get_bundle(name).lowered)
    assert len(runs) > 1
    assert len(builds) == 1
    assert all(graph is builds[0] for graph in runs)
