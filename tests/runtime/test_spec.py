"""``DeploymentSpec``: the three values that name a deployment flavour.

A campaign failure report embeds ``--seed-override`` plus the spec's
``cli_flags()``; replaying it must deploy the very flavour that failed.
Every committed corpus entry stores the spec as a dict, so the dict form
must round-trip too.  Failover is φ-only: ``--failover`` always means
``standby_detection="phi"``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.runtime import DeploymentSpec
from repro.runtime.cache import BoundedCache
from repro.runtime.failover import ActiveStandby
from repro.runtime.pool import ServerPool

CORPUS = Path(__file__).resolve().parent.parent / "faults_corpus"

#: flavour -> (the spec, the ``from_flags`` keywords that build it)
FLAVOURS = {
    "base": (DeploymentSpec(), {}),
    "cached": (DeploymentSpec(cache_entries=2), {"cached": True}),
    "failover": (
        DeploymentSpec(standby_detection="phi"), {"failover": True},
    ),
    "pooled": (DeploymentSpec(pool_servers=3), {"servers": 3}),
    "all": (
        DeploymentSpec(cache_entries=4, standby_detection="phi",
                       pool_servers=2),
        {"cached": True, "cache_entries": 4, "failover": True,
         "servers": 2},
    ),
}

ROLES = {
    "state_policy": ("cache_entries", BoundedCache),
    "redundancy": ("standby_detection", ActiveStandby),
    "punt_target": ("pool_servers", ServerPool),
}


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_flags_build_the_spec(flavour):
    spec, flags = FLAVOURS[flavour]
    assert DeploymentSpec.from_flags(**flags) == spec


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_cli_flags_replay_the_same_flavour(flavour):
    spec, _ = FLAVOURS[flavour]
    args = build_parser().parse_args(["faults", *spec.cli_flags().split()])
    assert DeploymentSpec.from_flags(
        cached=args.cached, cache_entries=args.cache_entries,
        failover=args.failover, servers=args.servers,
    ) == spec


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_each_non_default_value_brings_its_role(flavour):
    spec, _ = FLAVOURS[flavour]
    roles = spec.roles()
    assert sorted(roles) == sorted(ROLES)
    for keyword, (field, role_type) in ROLES.items():
        if getattr(spec, field):
            assert isinstance(roles[keyword], role_type), keyword
        else:
            assert roles[keyword] is None, keyword


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_dict_form_round_trips(flavour):
    spec, _ = FLAVOURS[flavour]
    assert DeploymentSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))
    ) == spec


def test_roles_are_fresh_at_each_deployment():
    spec, _ = FLAVOURS["all"]
    first, second = spec.roles(), spec.roles()
    for keyword in ROLES:
        assert first[keyword] is not second[keyword], keyword


def test_a_bad_pool_size_fails_before_any_role_is_built():
    with pytest.raises(ValueError, match="at least one member"):
        DeploymentSpec.from_flags(servers=0)


def test_every_corpus_entry_names_a_known_flavour():
    """The serialized ``standby_detection`` key stays: committed entries
    load unchanged, and each names no detector but φ."""
    paths = sorted(CORPUS.glob("*.json"))
    assert paths
    for path in paths:
        spec = DeploymentSpec.from_dict(
            json.loads(path.read_text())["deployment"]
        )
        assert spec.standby_detection in (None, "phi"), path.name
