"""Satellite regressions: configurable retry policy defaults and the
canonical drop-reason taxonomy."""

import random

import pytest

from repro.runtime.degradation import (
    DROP_REASONS,
    POLICY_REASONS,
    UNSALVAGEABLE_REASONS,
    DegradationPolicy,
    DropAccounting,
)
from repro.switchsim.control_plane import TIMEOUT_MULTIPLE, RetryPolicy
from repro.telemetry import MetricsRegistry


class TestRetryPolicyConfig:
    def test_defaults_unchanged(self):
        """Regression pin: making the constants constructor-configurable
        must not move the defaults."""
        policy = RetryPolicy()
        assert policy.max_attempts == 4
        assert policy.base_backoff_us == 200.0
        assert policy.backoff_multiplier == 2.0
        assert policy.max_backoff_us == 5_000.0
        assert policy.jitter_fraction == 0.1
        assert TIMEOUT_MULTIPLE == 3.0

    def test_default_backoff_sequence_unchanged(self):
        policy = RetryPolicy(jitter_fraction=0.0)
        rng = random.Random(0)
        assert [policy.backoff_us(n, rng) for n in (1, 2, 3, 4, 5, 6)] == [
            200.0, 400.0, 800.0, 1600.0, 3200.0, 5000.0,
        ]

    def test_constructor_configurable(self):
        policy = RetryPolicy(
            base_backoff_us=50.0, backoff_multiplier=3.0,
            max_backoff_us=500.0, jitter_fraction=0.0,
        )
        rng = random.Random(0)
        assert [policy.backoff_us(n, rng) for n in (1, 2, 3, 4)] == [
            50.0, 150.0, 450.0, 500.0,
        ]

    def test_policy_round_trips_without_a_timeout_key(self):
        policy = RetryPolicy(max_attempts=2, jitter_fraction=0.0)
        data = policy.to_dict()
        assert "timeout_multiple" not in data
        assert RetryPolicy.from_dict(data) == policy

    def test_a_timeout_multiple_key_is_refused(self):
        """The timeout multiple is the module constant, not a policy
        field: a serialized policy that sets it fails to load rather
        than silently running at the constant."""
        data = {**RetryPolicy().to_dict(), "timeout_multiple": 7.5}
        with pytest.raises(ValueError, match="unknown key 'timeout_multiple'"):
            RetryPolicy.from_dict(data)

    def test_policy_threads_into_control_plane(self):
        from repro.middleboxes import load
        from repro.runtime.deployment import (
            GalliumMiddlebox,
            compile_middlebox,
        )

        bundle = load("minilb")
        plan, program = compile_middlebox(bundle.lowered)
        retry = RetryPolicy(max_attempts=2)
        middlebox = GalliumMiddlebox(
            plan, program, config=bundle.config,
            policy=DegradationPolicy(retry=retry),
        )
        assert middlebox.switch.control_plane.retry is retry


class TestDropTaxonomy:
    def test_taxonomy_is_the_union_of_its_halves(self):
        assert DROP_REASONS == UNSALVAGEABLE_REASONS | POLICY_REASONS
        assert not UNSALVAGEABLE_REASONS & POLICY_REASONS

    def test_unknown_reason_rejected(self):
        accounting = DropAccounting()
        with pytest.raises(ValueError, match="canonical taxonomy"):
            accounting.count("cosmic_rays")

    def test_counts_land_in_shared_registry(self):
        registry = MetricsRegistry()
        accounting = DropAccounting(metrics=registry)
        accounting.count("server_down")
        accounting.count("server_down")
        accounting.count("punt_lost")
        assert accounting.by_reason == {"server_down": 2, "punt_lost": 1}
        assert registry.counter_value("drops.by_reason.server_down") == 2
        assert registry.counter_value("drops.by_reason.punt_lost") == 1

    def test_legacy_counter_attributes_are_registry_backed(self):
        registry = MetricsRegistry()
        accounting = DropAccounting(metrics=registry)
        accounting.failed_open += 1
        accounting.queued += 2
        assert registry.counter_value("drops.failed_open") == 1
        assert registry.counter_value("drops.queued") == 2
        assert accounting.failed_open == 1
