"""Malformed corpus JSON is rejected with one documented type.

``ReproducerEntry.from_dict``, ``FaultPlan.from_dict``,
``DeploymentSpec.from_dict`` and ``StreamSpec.from_dict`` (and the two
policy loaders an entry nests) raise ``CorpusFormatError`` (a
``ValueError``) naming the key — and ``load_corpus`` the file — never a
``KeyError`` / ``TypeError`` from inside.
"""

import copy
import json

import pytest

from repro.difftest import corpus as difftest_corpus
from repro.difftest.oracle import StreamSpec
from repro.faults import corpus as faults_corpus
from repro.faults.plan import FaultPlan
from repro.runtime.spec import DeploymentSpec
from repro.corpus_format import CorpusFormatError

COMMITTED = [
    (entry_type, path)
    for entry_type, module in (
        (difftest_corpus.CorpusEntry, difftest_corpus),
        (faults_corpus.FaultCorpusEntry, faults_corpus),
    )
    for path in sorted(module.CORPUS_DIR.glob("*.json"))
]
#: keys an entry may leave out (its dataclass field has a default)
OPTIONAL = {
    "description", "found_by_seed", "trace_diff", "expect", "check_cached",
    "config", "prestate", "injector_seed", "deployment_seed", "deployment",
    "policy",
}


@pytest.mark.parametrize(
    "entry_type,path", COMMITTED, ids=[path.stem for _, path in COMMITTED]
)
def test_every_committed_entry_with_each_key_dropped_in_turn(entry_type, path):
    data = json.loads(path.read_text())
    whole = entry_type.from_dict(data)
    assert whole.to_dict() == entry_type.from_dict(whole.to_dict()).to_dict()
    for key in data:
        short = {k: v for k, v in data.items() if k != key}
        if key in OPTIONAL:
            entry_type.from_dict(short)
            continue
        with pytest.raises(CorpusFormatError, match=f"missing .*'{key}'"):
            entry_type.from_dict(short)
    # ... and one level down, in the objects every entry nests.
    for outer in ("stream", "fault_plan", "deployment", "policy"):
        if not isinstance(data.get(outer), dict):
            continue
        for key in data[outer]:
            short = copy.deepcopy(data)
            del short[outer][key]
            try:
                entry_type.from_dict(short)
            except CorpusFormatError as exc:
                assert repr(key) in str(exc)


def _fault_entry():
    path = faults_corpus.CORPUS_DIR / "timeout_then_fail_exhaustion.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("mutate,names", [
    (lambda d: d.update(stream=[]), "entry.stream"),
    (lambda d: d["stream"].update(seed="six"), "stream.seed"),
    (lambda d: d["stream"].update(count=None), "stream.count"),
    (lambda d: d["stream"].update(burst=3), "stream: unknown key 'burst'"),
    (lambda d: d["stream"].update(packets=["syn"]), "stream.packets"),
    (lambda d: d.update(source=[1, 2]), "entry.source"),
    (lambda d: d.update(name=7), "entry.name"),
    (lambda d: d.update(fault_plan=3), "entry.fault_plan"),
    (lambda d: d["fault_plan"].update(faults={}), "fault_plan.faults"),
    (lambda d: d["fault_plan"]["faults"][0].update(kind="gremlin"),
     "unknown fault kind 'gremlin'"),
    (lambda d: d["fault_plan"]["faults"][0].pop("kind"),
     "unknown fault kind None"),
    (lambda d: d["fault_plan"]["faults"][0].update(probability="often"),
     "batch fault.probability"),
    (lambda d: d["fault_plan"]["faults"].append("crash"),
     "unknown fault kind None"),
    (lambda d: d["deployment"].update(cache_entries="many"),
     "deployment.cache_entries"),
    (lambda d: d["deployment"].update(shards=2),
     "deployment: unknown key 'shards'"),
    (lambda d: d["policy"].update(punt_queue_depth=None),
     "policy.punt_queue_depth"),
    (lambda d: d["policy"]["retry"].update(max_attempts="4"),
     "retry.max_attempts"),
    # The flags an entry carried before its flavour travelled as one value.
    (lambda d: d.update(cached=True), "entry: unknown key 'cached'"),
    (lambda d: d.update(injector_seed=True), "entry.injector_seed"),
], ids=lambda value: value if isinstance(value, str) else "")
def test_a_wrong_type_or_an_unknown_name_is_named(mutate, names):
    data = _fault_entry()
    mutate(data)
    with pytest.raises(CorpusFormatError) as caught:
        faults_corpus.FaultCorpusEntry.from_dict(data)
    assert names in str(caught.value)
    assert isinstance(caught.value, ValueError)


def test_a_json_integer_in_a_float_field_loads_as_a_float():
    data = _fault_entry()
    data["stream"]["udp_ratio"] = 1
    data["policy"]["retry"]["max_backoff_us"] = 5000
    saved = faults_corpus.FaultCorpusEntry.from_dict(data).to_dict()
    assert json.dumps(saved["stream"]["udp_ratio"]) == "1.0"
    assert json.dumps(saved["policy"]["retry"]["max_backoff_us"]) == "5000.0"


def test_each_loader_rejects_a_non_object():
    for load in (StreamSpec.from_dict, FaultPlan.from_dict,
                 DeploymentSpec.from_dict,
                 difftest_corpus.CorpusEntry.from_dict):
        for junk in (None, 3, "text", [1]):
            with pytest.raises(CorpusFormatError, match="expected type object"):
                load(junk)


def test_load_corpus_names_the_file(tmp_path):
    entry = _fault_entry()
    (tmp_path / "good.json").write_text(json.dumps(entry))
    assert [e.name for e in faults_corpus.load_corpus(tmp_path)] == [
        "timeout_then_fail_exhaustion"
    ]
    del entry["fault_plan"]
    (tmp_path / "short.json").write_text(json.dumps(entry))
    with pytest.raises(CorpusFormatError, match=r"short\.json: entry: missing"
                       r" required key 'fault_plan'"):
        faults_corpus.load_corpus(tmp_path)
    (tmp_path / "short.json").write_text("{ not json")
    with pytest.raises(CorpusFormatError, match=r"short\.json: "):
        faults_corpus.load_corpus(tmp_path)
