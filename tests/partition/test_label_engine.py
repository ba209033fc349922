"""The closed-form label engine decides what rules 1–5 decide.

``repro.partition.labels`` computes the fixpoint of the paper's rules as
two unions of bitsets.  The oracle here is the rule-by-rule sweep it
replaced, kept literal — a label set per instruction, every closure pair
visited until nothing changes — over a closure it computes itself (a DFS
per node, not the graph's bitsets).  Every comparison is of whole label
sets, turned into the engine's two bitsets, over the six bundled
middleboxes, 64 generated programs and three hand-written ones, each
under seeded random pin sets.
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
from repro.partition.labels import Partition, run_label_removal
from repro.partition.partitioner import partition_middlebox
from tests.conftest import get_bundle
from tests.partition.test_labels import NON_OFF, POST, PRE, labels_of, lower

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


def initial_labels(graph, pinned_pre, pinned_post) -> Dict[int, Set[str]]:
    """Initial label sets, minus the labels pinned away.

    The resource-refinement passes of §4.2.2 express "move this statement
    to the non-offloaded partition" as removing its pre/post labels up
    front and re-running the rules; ``non_off`` stays (every statement can
    run on the server).
    """
    labels: Dict[int, Set[str]] = {}
    for at, inst in enumerate(graph.instructions):
        if inst.p4_supported():
            label_set = {PRE, POST, NON_OFF}
        else:
            label_set = {NON_OFF}
        if pinned_pre >> at & 1:
            label_set.discard(PRE)
        if pinned_post >> at & 1:
            label_set.discard(POST)
        labels[inst.id] = label_set
    return labels


def sweep_rules(graph, pinned_pre, pinned_post) -> Dict[int, Set[str]]:
    """Apply rules 1–5 to a fixpoint, one rule at a time."""
    closure = closure_by_dfs(graph)
    labels = initial_labels(graph, pinned_pre, pinned_post)

    # Rule 5 first: any instruction that transitively depends on itself (or
    # sits on a CFG cycle) can only be non-offloaded.
    for inst in graph.instructions:
        if inst.id in closure[inst.id] or graph.reachability.in_cycle(inst):
            labels[inst.id] = {NON_OFF}

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
                if POST not in dst_labels and POST in src_labels:
                    src_labels.discard(POST)
                    changed = True
                # Rule 2: upstream lost pre -> downstream loses pre.
                if PRE not in src_labels and PRE in dst_labels:
                    dst_labels.discard(PRE)
                    changed = True
                if accesses[src_id] & accesses[dst_id]:
                    # Rule 3: upstream access offloadable as pre -> the
                    # downstream access to the same state cannot be pre.
                    if PRE in src_labels and PRE in dst_labels:
                        dst_labels.discard(PRE)
                        changed = True
                    # Rule 4: downstream access may be post -> the upstream
                    # access cannot be post.
                    if POST in dst_labels and POST in src_labels:
                        src_labels.discard(POST)
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


def lost(graph, labels: Dict[int, Set[str]], label: str) -> int:
    """The instructions whose label set lacks ``label``, as a bitset."""
    return sum(
        1 << at
        for at, inst in enumerate(graph.instructions)
        if label not in labels[inst.id]
    )


def pin_sets(graph, rng: random.Random):
    """No pins, then seeded random ones: pre-only, post-only and both, as
    ``(name, pinned_pre, pinned_post)``."""
    yield "none", 0, 0
    positions = range(len(graph.instructions))
    shapes = {
        "pre": lambda: (1, 0),
        "post": lambda: (0, 1),
        "both": lambda: rng.choice([(1, 0), (0, 1), (1, 1)]),
    }
    for shape, draw in shapes.items():
        for round_ in range(PIN_SETS_PER_SHAPE):
            count = rng.randint(1, max(1, len(positions) // 4))
            pinned_pre = pinned_post = 0
            for at in rng.sample(positions, count):
                pre, post = draw()
                pinned_pre |= pre << at
                pinned_post |= post << at
            yield f"{shape}{round_}", pinned_pre, pinned_post


# -- the tests ----------------------------------------------------------------


@pytest.mark.parametrize("label", PROGRAMS)
def test_engine_matches_the_rule_sweep(label):
    graph = build_dependency_graph(_lowered(label).process)
    rng = random.Random(f"label-engine/{label}")
    for name, pinned_pre, pinned_post in pin_sets(graph, rng):
        expected = sweep_rules(graph, pinned_pre, pinned_post)
        result = run_label_removal(graph, pinned_pre, pinned_post)
        assert (result.no_pre, result.no_post) == (
            lost(graph, expected, PRE), lost(graph, expected, POST)
        ), f"{label}/{name}"
        partitions = result.assignment()
        for partition in Partition:
            assert result.members(partition) == sum(
                1 << at for at, inst in enumerate(graph.instructions)
                if partitions[inst.id] is partition
            ), f"{label}/{name}/{partition.name}"


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
    assignment = run_label_removal(chain, 0, 0)
    assert labels_of(assignment, first) == {PRE, NON_OFF}
    assert labels_of(assignment, second) == {NON_OFF}
    assert labels_of(assignment, third) == {POST, NON_OFF}


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

    def counted_run(graph, pinned_pre, pinned_post):
        runs.append(graph)
        return run_label_removal(graph, pinned_pre, pinned_post)

    from repro.partition import partitioner

    with mock.patch.object(
        labels_module.LabelStatics, "build", counted_build
    ), mock.patch.object(partitioner, "run_label_removal", counted_run):
        partition_middlebox(get_bundle(name).lowered)
    assert len(runs) > 1
    assert len(builds) == 1
    assert all(graph is builds[0] for graph in runs)
