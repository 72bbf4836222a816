"""Unit tests for the public facade (:mod:`repro.api`) and RunOptions."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro import api
from repro.core.report import Report
from repro.machine.configs import CORE2
from repro.models import cache as cache_mod
from repro.models.validation import ValidationResult
from repro.runtime.checkpoint import TrainingInterrupted
from repro.runtime.options import RunOptions

TINY = cache_mod.ScaleParams("unit-api", per_class_target=3, max_seeds=60,
                             validation_apps=5, hidden=(8,))


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_mod, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setitem(cache_mod.SCALES, "unit-api", TINY)
    return tmp_path


class TestFacadeExports:
    def test_top_level_reexports(self):
        assert repro.train is api.train
        assert repro.advise is api.advise
        assert repro.validate is api.validate
        assert repro.UsageError is api.UsageError
        assert repro.SuiteHandle is api.SuiteHandle
        assert issubclass(api.UsageError, ValueError)

    def test_machines_table(self):
        assert set(api.MACHINES) == {"core2", "atom"}
        assert api.resolve_machine("core2") is CORE2
        assert api.resolve_machine(CORE2) is CORE2


class TestTrain:
    def test_train_returns_handle(self, tmp_cache):
        handle = api.train(machine="core2", scale="unit-api")
        assert isinstance(handle, api.SuiteHandle)
        assert handle.machine is CORE2
        assert handle.scale.name == "unit-api"
        assert handle.path.exists()
        assert handle.telemetry_path is None
        assert handle.groups == tuple(sorted(handle.suite.models))
        assert len(handle.groups) >= 5

    def test_train_writes_telemetry(self, tmp_cache):
        telemetry = tmp_cache / "train.telemetry.json"
        handle = api.train(scale="unit-api", telemetry=telemetry)
        assert handle.telemetry_path == telemetry
        payload = repro.obs.load_telemetry(telemetry)
        assert payload["meta"]["command"] == "train"
        assert payload["meta"]["scale"] == "unit-api"
        assert payload["spans"]["train"]["count"] == 1
        assert payload["metrics"]["counters"]["train.groups"] \
            == len(handle.groups)

    def test_interrupted_train_still_exports_telemetry(
            self, tmp_cache, monkeypatch):
        telemetry = tmp_cache / "partial.telemetry.json"

        def interrupted(machine_config, scale, **kwargs):
            raise TrainingInterrupted("phase 1 interrupted at seed 7")

        monkeypatch.setattr(api, "get_or_train_suite", interrupted)
        with pytest.raises(TrainingInterrupted):
            api.train(scale="unit-api", telemetry=telemetry)
        assert telemetry.exists()
        payload = repro.obs.load_telemetry(telemetry)
        assert payload["meta"]["command"] == "train"

    def test_bad_inputs_raise_usage_error(self):
        with pytest.raises(api.UsageError, match="unknown machine"):
            api.train(machine="i860")
        with pytest.raises(api.UsageError, match="unknown scale"):
            api.train(scale="galactic")
        with pytest.raises(api.UsageError, match="jobs"):
            api.train(scale="tiny", jobs=0)
        with pytest.raises(api.UsageError, match="checkpoint_every"):
            api.train(scale="tiny", checkpoint_every=0)


class TestAdviseAndValidate:
    def test_advise_returns_report(self, tmp_cache):
        report = api.advise("relipmoc", input_name="small",
                            scale="unit-api")
        assert isinstance(report, Report)
        assert len(report) > 0

    def test_advise_bad_app_and_input(self):
        with pytest.raises(api.UsageError, match="unknown app"):
            api.advise("doom")
        with pytest.raises(api.UsageError, match="unknown input"):
            api.advise("relipmoc", input_name="bogus")

    def test_validate_returns_result(self, tmp_cache):
        result = api.validate(group="map", scale="unit-api", apps=5)
        assert isinstance(result, ValidationResult)
        assert result.group_name == "map"
        assert result.total <= 5
        assert 0.0 <= result.accuracy <= 1.0

    def test_validate_unknown_group(self):
        with pytest.raises(api.UsageError, match="unknown model group"):
            api.validate(group="trie")


class TestSmallVerbs:
    def test_census_shape(self):
        counts = api.census(files=20, seed=3)
        assert counts
        assert all(isinstance(v, int) for v in counts.values())
        with pytest.raises(api.UsageError, match="files"):
            api.census(files=0)

    def test_appgen_probe(self):
        probe = api.appgen_probe(5, group="map")
        assert probe.runtimes
        assert probe.app.group.name == "map"

    def test_telemetry_summary_missing_file(self, tmp_path):
        with pytest.raises(api.UsageError, match="no telemetry file"):
            api.telemetry_summary(tmp_path / "nope.json")

    def test_telemetry_summary_unreadable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"an artifact\"}")
        with pytest.raises(api.UsageError, match="unreadable"):
            api.telemetry_summary(bad)


class TestRunOptions:
    def test_defaults_and_overrides(self):
        base = RunOptions()
        assert base.jobs is None and base.telemetry is None
        bumped = base.with_overrides(jobs=4, checkpoint_every=10)
        assert (bumped.jobs, bumped.checkpoint_every) == (4, 10)
        assert base.jobs is None  # frozen: original untouched

    def test_explicit_options_pass_through_silently(self):
        opts = RunOptions(jobs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert api._resolve_options(opts, None) is opts

    def test_both_spellings_is_an_error(self):
        """A bare knob keyword next to ``options=`` is refused."""
        from repro.training.phase1 import run_phase1

        with pytest.raises(TypeError, match="jobs"):
            run_phase1(None, None, CORE2, options=RunOptions(jobs=2),
                       jobs=4)

    def test_unknown_knob_raises_the_same_typeerror_contract(self):
        """An unrecognised keyword fails the same way whether it rides
        alone or alongside ``options=`` — a ``TypeError`` naming the
        offender.  The bare knob spellings that ``options`` replaced
        are unrecognised keywords too."""
        from repro.models.brainy import BrainySuite
        from repro.models.cache import (
            get_or_build_dataset,
            get_or_train_suite,
        )
        from repro.training.phase1 import run_phase1
        from repro.training.phase2 import run_phase2

        entry_points = [
            lambda **kw: run_phase1(None, None, CORE2, **kw),
            lambda **kw: run_phase2(None, None, CORE2, **kw),
            lambda **kw: BrainySuite.train(CORE2, **kw),
            lambda **kw: get_or_build_dataset("set", CORE2, **kw),
            lambda **kw: get_or_train_suite(CORE2, **kw),
        ]
        for knob in ("jbos", "jobs", "checkpoint_every"):
            for call in entry_points:
                with pytest.raises(TypeError, match=knob):
                    call(**{knob: 4})
                with pytest.raises(TypeError, match=knob):
                    call(options=RunOptions(jobs=2), **{knob: 4})
        with pytest.raises(TypeError, match="jbos"):
            RunOptions(jbos=4)

    def test_serving_knobs_have_real_defaults(self):
        """Serving knobs default in RunOptions itself (unlike the
        training knobs, where ``None`` defers to the callee)."""
        opts = RunOptions()
        assert opts.deadline_seconds == 2.0
        assert opts.queue_depth == 32
        assert opts.breaker_threshold == 5
        assert opts.breaker_cooldown_seconds == 30.0
        assert opts.drain_seconds == 5.0
        bumped = opts.with_overrides(deadline_seconds=0.5,
                                     queue_depth=4)
        assert (bumped.deadline_seconds, bumped.queue_depth) == (0.5, 4)
        assert opts.queue_depth == 32  # frozen: original untouched
