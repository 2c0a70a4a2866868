"""Unit tests for ScenarioSpec and the campaign workload registry."""

import pytest

from repro.campaign import (
    ScenarioSpec,
    default_campaign,
    describe_specs,
    registered_workloads,
    spec_is_pairable,
    workload_entry,
)


class TestScenarioSpec:
    def test_validate_accepts_a_sane_spec(self):
        ScenarioSpec("ok", "streaming", depth=4).validate()

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(name="", workload="streaming"), "non-empty"),
            (dict(name="x", workload="nope"), "unknown workload"),
            (dict(name="x", workload="streaming", mode="turbo"), "mode"),
            (dict(name="x", workload="streaming", depth=0), "depth"),
            (dict(name="x", workload="streaming", timing="weird"), "timing"),
            (dict(name="x", workload="streaming", timing="quantum"), "quantum_ns"),
            (dict(name="x", workload="streaming", quantum_ns=100), "quantum"),
        ],
    )
    def test_validate_rejects_bad_specs(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ScenarioSpec(**kwargs).validate()

    def test_with_mode_copies_and_does_not_share_params(self):
        spec = ScenarioSpec("x", "streaming", params={"n_blocks": 3})
        reference = spec.with_mode("reference")
        assert reference.mode == "reference"
        assert reference.name == spec.name
        reference.params["n_blocks"] = 99
        assert spec.params["n_blocks"] == 3

    def test_specs_are_picklable(self):
        import pickle

        spec = ScenarioSpec("x", "bursty", seed=9, params={"n_bursts": 4})
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestRegistry:
    def test_all_repository_workloads_are_registered(self):
        expected = {
            "writer_reader",
            "streaming",
            "video",
            "random_traffic",
            "bursty",
            "contention",
            "soc",
        }
        assert expected.issubset(set(registered_workloads()))

    def test_unknown_workload_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="registered"):
            workload_entry("definitely_not_a_workload")

    def test_typoed_params_are_rejected_not_ignored(self):
        from repro.campaign import build_scenario
        from repro.kernel import Simulator

        spec = ScenarioSpec("typo", "bursty", params={"burst_count": 20})
        with pytest.raises(ValueError, match="unknown param.*burst_count"):
            build_scenario(Simulator("t"), spec)

    def test_every_registry_entry_declares_its_param_keys(self):
        for key in registered_workloads():
            entry = workload_entry(key)
            assert entry.param_keys, f"{key} accepts no params?"

    @pytest.mark.parametrize(
        "key, config_path",
        [
            ("random_traffic", "repro.workloads.random_traffic:RandomTrafficConfig"),
            ("bursty", "repro.workloads.bursty:BurstyConfig"),
            ("contention", "repro.workloads.contention:ContentionConfig"),
            ("fault_drop", "repro.workloads.fault_drop:FaultDropConfig"),
            ("noc_stress", "repro.workloads.noc_stress:NocStressConfig"),
            ("packet_stream", "repro.workloads.packet_stream:PacketStreamConfig"),
            ("mixed", "repro.workloads.mixed:MixedTopologyConfig"),
        ],
    )
    def test_literal_param_keys_match_the_config_fields(self, key, config_path):
        """The registry spells param keys out so listing specs needs no
        workload import; they must stay the config's fields minus the two
        the spec carries itself."""
        import dataclasses
        import importlib

        module, name = config_path.split(":")
        config_cls = getattr(importlib.import_module(module), name)
        fields = tuple(
            field.name for field in dataclasses.fields(config_cls)
            if field.name not in ("seed", "fifo_depth")
        )
        assert workload_entry(key).param_keys == fields

    def test_metadata_and_builders_cover_the_same_workloads(self):
        from repro.campaign import scenarios

        builders = sorted(
            name[len("build_"):] for name in vars(scenarios)
            if name.startswith("build_")
        )
        assert builders == list(registered_workloads())

    def test_pairability_rules(self):
        assert spec_is_pairable(ScenarioSpec("a", "streaming"))
        assert spec_is_pairable(ScenarioSpec("b", "bursty"))
        # Timing overrides change the timing by design: never pairable.
        assert not spec_is_pairable(
            ScenarioSpec("c", "streaming", timing="quantum", quantum_ns=100)
        )
        # The contention scenario has no reference twin.
        assert not spec_is_pairable(ScenarioSpec("d", "contention"))
        assert not spec_is_pairable(ScenarioSpec("e", "soc"))


class TestDefaultCampaign:
    def test_at_least_twelve_specs_with_unique_names(self):
        specs = default_campaign()
        assert len(specs) >= 12
        names = [spec.name for spec in specs]
        assert len(set(names)) == len(names)
        for spec in specs:
            spec.validate()

    def test_covers_every_registered_workload(self):
        used = {spec.workload for spec in default_campaign()}
        # fault_drop is deliberately excluded: its pair MUST diverge, and
        # the default campaign gates on every pair being equivalent.
        assert used == set(registered_workloads()) - {"fault_drop"}

    def test_includes_the_two_new_workloads(self):
        used = {spec.workload for spec in default_campaign()}
        assert "bursty" in used and "contention" in used

    def test_describe_rows_match_specs(self):
        specs = default_campaign()
        rows = describe_specs(specs)
        assert [row["name"] for row in rows] == [spec.name for spec in specs]
        assert all("pairable" in row for row in rows)
