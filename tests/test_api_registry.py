"""Tests for the pluggable API: registries, spec parsing, adapters, parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ChainMechanism,
    PublicationResult,
    RegistryError,
    list_attacks,
    list_mechanisms,
    list_metrics,
    make_attack,
    make_mechanism,
    make_metric,
    parse_spec,
    register_mechanism,
)
from repro.api.registry import MECHANISMS, format_spec
from repro.attacks.djcluster import DjCluster
from repro.attacks.poi_extraction import PoiExtractor
from repro.attacks.reident import FootprintReidentifier, Reidentifier
from repro.attacks.tracking import MultiTargetTracker
from repro.baselines.geo_indistinguishability import GeoIndistinguishabilityMechanism
from repro.baselines.trivial import IdentityMechanism
from repro.core.pipeline import Anonymizer
from repro.experiments.runner import DEFAULT_MECHANISM_SPECS


class TestSpecParsing:
    def test_name_only(self):
        assert parse_spec("identity") == ("identity", {})

    def test_typed_parameters(self):
        name, params = parse_spec("geo-ind:epsilon_per_m=0.005,seed=7,per_point_budget=true")
        assert name == "geo-ind"
        assert params == {"epsilon_per_m": 0.005, "seed": 7, "per_point_budget": True}

    def test_none_and_string_values(self):
        _, params = parse_spec("x:session_gap_s=none,swap=coin_flip")
        assert params == {"session_gap_s": None, "swap": "coin_flip"}

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError):
            parse_spec("geo-ind:epsilon")
        with pytest.raises(ValueError):
            parse_spec(":a=1")

    def test_format_spec_round_trips(self):
        spec = format_spec("geo-ind", {"epsilon_per_m": 0.0034657359027997264, "seed": 3})
        name, params = parse_spec(spec)
        assert name == "geo-ind"
        assert params["epsilon_per_m"] == 0.0034657359027997264
        assert params["seed"] == 3


class TestRegistries:
    def test_builtin_names_listed(self):
        mechanisms = list_mechanisms()
        for name in ("identity", "smoothing", "promesse", "geo-ind", "wait4me",
                     "pseudonyms", "downsampling"):
            assert name in mechanisms
        attacks = list_attacks()
        for name in ("staypoint", "djcluster", "reident-poi", "reident-footprint",
                     "multi-target-tracker", "poi-retrieval", "reident", "tracking",
                     "zone-census"):
            assert name in attacks
        metrics = list_metrics()
        for name in ("spatial-distortion", "area-coverage", "point-retention",
                     "trip-length-error", "range-query", "swap-stats", "mixing-entropy"):
            assert name in metrics

    def test_unknown_names_raise_value_error(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            make_mechanism("psychic")
        with pytest.raises(ValueError, match="unknown attack"):
            make_attack("psychic")
        with pytest.raises(ValueError, match="unknown metric"):
            make_metric("psychic")

    def test_invalid_parameters_raise_value_error(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            make_mechanism("identity:bogus_knob=1")

    def test_register_roundtrip_and_duplicate_rejection(self):
        calls = {}

        @register_mechanism("test-noop-mechanism")
        def _noop(strength: float = 1.0):
            calls["strength"] = strength
            return IdentityMechanism()

        try:
            assert "test-noop-mechanism" in list_mechanisms()
            mechanism = make_mechanism("test-noop-mechanism:strength=2.5")
            assert calls["strength"] == 2.5
            assert mechanism.name == "test-noop-mechanism"
            with pytest.raises(ValueError, match="already registered"):
                register_mechanism("test-noop-mechanism")(lambda: IdentityMechanism())
        finally:
            MECHANISMS.unregister("test-noop-mechanism")
        assert "test-noop-mechanism" not in list_mechanisms()

    def test_alias_collision_leaves_no_partial_registration(self):
        from repro.api.registry import Registry, RegistryError

        registry = Registry("mechanism")
        registry.register("taken")(lambda: "old")
        with pytest.raises(RegistryError):
            registry.register("fresh", aliases=("taken",))(lambda: "new")
        assert "fresh" not in registry
        assert registry.names() == ["taken"]
        registry.register("fresh")(lambda: "new")  # name not blocked

    def test_unregister_scoped_to_one_registration_group(self):
        from repro.api.registry import Registry

        registry = Registry("mechanism")
        shared = lambda: "shared"  # noqa: E731
        registry.register("name-a", aliases=("alias-a",))(shared)
        registry.register("name-b")(shared)
        registry.unregister("alias-a")  # by alias: whole group goes ...
        assert "name-a" not in registry and "alias-a" not in registry
        assert registry.names() == ["name-b"]  # ... but the sibling survives
        assert "name-b" in registry

    def test_spec_parameters_reach_the_mechanism(self):
        adapter = make_mechanism("geo-ind:epsilon_per_m=0.005,seed=7")
        assert isinstance(adapter.inner, GeoIndistinguishabilityMechanism)
        assert adapter.inner.config.epsilon_per_m == 0.005
        assert adapter.inner.config.seed == 7
        assert adapter.params == {"epsilon_per_m": 0.005, "seed": 7}

    def test_runner_attacks_resolvable_from_specs(self):
        assert isinstance(make_attack("staypoint:max_diameter_m=400"), PoiExtractor)
        assert isinstance(make_attack("djcluster:eps_m=250"), DjCluster)
        assert isinstance(make_attack("reident-poi:match_distance_m=500"), Reidentifier)
        assert isinstance(make_attack("reident-footprint"), FootprintReidentifier)
        assert isinstance(make_attack("multi-target-tracker"), MultiTargetTracker)

    def test_default_suite_resolvable_from_specs(self):
        suite = {
            name: make_mechanism(spec, defaults={"seed": 7}, wrap=False)
            for name, spec in DEFAULT_MECHANISM_SPECS.items()
        }
        assert all(hasattr(mechanism, "publish") for mechanism in suite.values())
        assert isinstance(suite["raw"], IdentityMechanism)
        assert suite["geo-ind-strong"].config.epsilon_per_m == pytest.approx(
            np.log(2.0) / 200.0
        )
        # The seed reaches seedable mechanisms through ``defaults``.
        assert suite["geo-ind-strong"].config.seed == 7


class TestPublicationResult:
    def test_publish_returns_result_with_provenance(self, tiny_world):
        result = make_mechanism("promesse").publish(tiny_world.dataset)
        assert isinstance(result, PublicationResult)
        assert result.report is not None
        assert result.spec == "promesse"
        assert len(result) == len(result.dataset)
        assert set(result.identity_truth().values()) <= set(tiny_world.dataset.user_ids)

    def test_promesse_spec_matches_legacy_anonymizer(self, tiny_world):
        """Parity: the registry route reproduces Anonymizer point-for-point."""
        result = make_mechanism("promesse").publish(tiny_world.dataset)
        legacy_published, legacy_report = Anonymizer().publish(tiny_world.dataset)
        assert [t.user_id for t in result.dataset] == [t.user_id for t in legacy_published]
        for new, old in zip(result.dataset, legacy_published):
            assert np.array_equal(np.asarray(new.timestamps), np.asarray(old.timestamps))
            assert np.array_equal(np.asarray(new.lats), np.asarray(old.lats))
            assert np.array_equal(np.asarray(new.lons), np.asarray(old.lons))
        assert result.report.n_zones == legacy_report.n_zones
        assert result.report.n_swaps == legacy_report.n_swaps
        assert result.report.suppressed_points == legacy_report.suppressed_points

    def test_geo_ind_announces_noise_radius(self, tiny_world):
        result = make_mechanism("geo-ind:epsilon_per_m=0.005,seed=1").publish(
            tiny_world.dataset
        )
        assert result.properties["noise_radius_m"] == pytest.approx(400.0)

    def test_chain_spec_composes_pseudonym_provenance(self, tiny_world):
        adapter = make_mechanism("smoothing:epsilon_m=100.0|pseudonyms:seed=3")
        assert isinstance(adapter.inner, ChainMechanism)
        result = adapter.publish(tiny_world.dataset)
        truth = result.identity_truth()
        assert set(truth) == set(result.dataset.user_ids)
        assert set(truth.values()) == set(tiny_world.dataset.user_ids)
        assert all(label.startswith("p") for label in truth)

    def test_pipeline_publish_result_bridge(self, tiny_world):
        result = Anonymizer().publish_result(tiny_world.dataset)
        assert isinstance(result, PublicationResult)
        assert result.report is not None

    def test_metric_callable_contract(self, tiny_world):
        metric = make_metric("point-retention")
        result = make_mechanism("downsampling:factor=10").publish(tiny_world.dataset)
        columns = metric(tiny_world.dataset, result)
        assert 0.0 < columns["point_retention"] < 1.0
