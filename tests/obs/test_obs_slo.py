"""SLOConfig: defaults, normalization, JSON parsing, validation."""

import json

import pytest

from repro.obs.slo import DEFAULT_OP_OBJECTIVES, SLObjective, SLOConfig
from repro.remote.protocol import OPS


class TestDefaults:
    def test_default_covers_every_protocol_op(self):
        config = SLOConfig.default()
        assert set(config.objectives) == set(OPS)
        assert set(DEFAULT_OP_OBJECTIVES) == set(OPS)

    def test_error_budget_from_availability(self):
        assert SLOConfig(availability=0.99).error_budget == pytest.approx(0.01)
        # Floored so burn = rate / budget stays finite at 100% targets.
        assert SLOConfig(availability=1.0).error_budget == pytest.approx(1e-6)

    def test_clamps(self):
        config = SLOConfig(window_seconds=0.0, tick_seconds=0.0)
        assert config.window_seconds == 1.0
        assert config.tick_seconds == 0.05

    def test_burn_shares_the_one_window(self):
        # No burn-specific horizon: readiness judges burn over the same
        # sliding window the latency percentiles use.
        assert set(SLOConfig.default().to_dict()) == {
            "objectives", "availability", "window_seconds", "tick_seconds",
            "burn_threshold", "min_samples", "retry_after_seconds",
            "shed_enabled",
        }


#: The burn knobs the one shared window retired.
RETIRED_KNOBS = {
    "fast_window_seconds": 60,
    "slow_window_seconds": 600,
    "fast_burn_threshold": 14.4,
    "slow_burn_threshold": 6,
}


class TestRetiredKnobs:
    @pytest.mark.parametrize("knob", RETIRED_KNOBS)
    def test_no_constructor_argument(self, knob):
        with pytest.raises(TypeError, match=knob):
            SLOConfig(**{knob: RETIRED_KNOBS[knob]})

    @pytest.mark.parametrize("knob", RETIRED_KNOBS)
    def test_a_config_file_naming_one_fails_to_load_by_name(self, knob, tmp_path):
        # An operator's pre-existing --slo-config file must fail loudly,
        # not serve with its burn horizon silently dropped.
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"availability": 0.99, knob: RETIRED_KNOBS[knob]}))
        with pytest.raises(ValueError, match=knob):
            SLOConfig.load(str(path))


class TestNormalization:
    def test_plain_seconds_accepted_in_constructor(self):
        config = SLOConfig(objectives={"push": 2.5})
        objective = config.objective_for("push")
        assert isinstance(objective, SLObjective)
        assert objective.op == "push"
        assert objective.p99_seconds == 2.5

    def test_objective_instances_pass_through(self):
        objective = SLObjective("fetch", 1.0)
        config = SLOConfig(objectives={"fetch": objective})
        assert config.objective_for("fetch") is objective


class TestFromDict:
    def test_overrides_merge_onto_defaults(self):
        config = SLOConfig.from_dict(
            {"objectives": {"push": 9.0}, "availability": 0.999,
             "min_samples": 5, "shed_enabled": False}
        )
        assert config.objective_for("push").p99_seconds == 9.0
        # Unlisted ops keep their stock objectives.
        assert config.objective_for("manifest").p99_seconds == \
            DEFAULT_OP_OBJECTIVES["manifest"]
        assert config.availability == 0.999
        assert config.min_samples == 5
        assert config.shed_enabled is False

    def test_round_trips_through_to_dict(self):
        original = SLOConfig.from_dict(
            {"objectives": {"push": 9.0}, "window_seconds": 7}
        )
        rebuilt = SLOConfig.from_dict(original.to_dict())
        assert rebuilt.to_dict() == original.to_dict()

    @pytest.mark.parametrize("key", sorted(SLOConfig.default().to_dict()))
    def test_every_emitted_key_loads_alone(self, key):
        emitted = SLOConfig.from_dict({
            "objectives": {"push": 9.0}, "availability": 0.9,
            "window_seconds": 7, "tick_seconds": 2, "burn_threshold": 3,
            "min_samples": 5, "retry_after_seconds": 4,
            "shed_enabled": False,
        }).to_dict()
        assert emitted[key] != SLOConfig.default().to_dict()[key]
        loaded = SLOConfig.from_dict({key: emitted[key]})
        assert loaded.to_dict()[key] == emitted[key]

    @pytest.mark.parametrize("typo, named", [
        ({"objectives": {"psuh": 2.0}}, "psuh"),
        ({"shed_enabld": False}, "shed_enabld"),
        ({"objective": {"push": 2.0}}, "objective"),
        # The burn knobs a single window retired are refused, not ignored.
        ({"fast_window_seconds": 60}, "fast_window_seconds"),
        ({"slow_window_seconds": 600}, "slow_window_seconds"),
        ({"fast_burn_threshold": 14.4}, "fast_burn_threshold"),
        ({"slow_burn_threshold": 6}, "slow_burn_threshold"),
    ])
    def test_typos_are_refused_by_name(self, typo, named):
        with pytest.raises(ValueError, match=named):
            SLOConfig.from_dict(typo)

    @pytest.mark.parametrize("bad", [
        [], "nope", 3,
    ])
    def test_non_object_rejected(self, bad):
        with pytest.raises(ValueError, match="JSON object"):
            SLOConfig.from_dict(bad)

    def test_bad_objectives_rejected(self):
        with pytest.raises(ValueError, match="objectives"):
            SLOConfig.from_dict({"objectives": ["push"]})
        with pytest.raises(ValueError, match="positive seconds"):
            SLOConfig.from_dict({"objectives": {"push": -1}})
        with pytest.raises(ValueError, match="positive seconds"):
            SLOConfig.from_dict({"objectives": {"push": "fast"}})

    def test_bad_scalars_rejected(self):
        with pytest.raises(ValueError, match="'window_seconds'"):
            SLOConfig.from_dict({"window_seconds": "long"})
        with pytest.raises(ValueError, match="'window_seconds'"):
            SLOConfig.from_dict({"window_seconds": True})
        with pytest.raises(ValueError, match="'min_samples'"):
            SLOConfig.from_dict({"min_samples": 2.5})
        with pytest.raises(ValueError, match="'shed_enabled'"):
            SLOConfig.from_dict({"shed_enabled": 1})

    def test_overrides_are_reclamped(self):
        config = SLOConfig.from_dict({"tick_seconds": 0.001})
        assert config.tick_seconds == 0.05


class TestLoad:
    def test_load_reads_json_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(
            {"objectives": {"put_chunks": 0.25}, "retry_after_seconds": 3}
        ))
        config = SLOConfig.load(str(path))
        assert config.objective_for("put_chunks").p99_seconds == 0.25
        assert config.retry_after_seconds == 3.0
