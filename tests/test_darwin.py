"""Darwinian whole-program selection (`repro darwin`).

Covers the tentpole contract end to end: the allocator footprint
counter the mode minimises, :func:`repro.core.darwin.run_darwin` on the
real case-study apps (non-trivial fronts that strictly dominate the
greedy per-instance advisor), byte-identity across ``--jobs`` and
``PYTHONHASHSEED``, payload round-trips, the ``Report.pareto_front``
wire extension, and the up-front ``darwin_*`` knob validation.

The advisor used here wraps an *empty* suite, which degrades to the
Perflint baseline — deliberately: no training, fast tests, and a greedy
assignment the evolved front can strictly beat.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import pytest

import repro.api as api
from repro.apps.base import run_case_study
from repro.apps.chord import ChordSimulator
from repro.apps.xalan import XalanStringCache
from repro.core.advisor import BrainyAdvisor
from repro.core.darwin import (
    OBJECTIVES,
    AssignmentPoint,
    DarwinResult,
    run_darwin,
    site_candidates,
)
from repro.core.report import Report
from repro.machine import make_machine
from repro.machine.configs import CORE2
from repro.models import BrainySuite
from repro.runtime.options import RunOptions


def degraded_advisor() -> BrainyAdvisor:
    """An advisor over an empty suite: Perflint-baseline greed, no
    training needed."""
    return BrainyAdvisor(BrainySuite("core2"))


@pytest.fixture(scope="module")
def xalan_result() -> DarwinResult:
    return run_darwin(XalanStringCache("test"), CORE2, degraded_advisor(),
                      generations=3, population=6, seed=0,
                      input_name="test")


@pytest.fixture(scope="module")
def chord_result() -> DarwinResult:
    return run_darwin(ChordSimulator("small"), CORE2, degraded_advisor(),
                      generations=3, population=6, seed=0,
                      input_name="small")


class TestFootprintCounter:
    """`Allocator.peak_live_bytes` — the memory objective's source."""

    def test_peak_tracks_high_water_not_current(self):
        machine = make_machine(CORE2)
        alloc = machine.allocator
        a = machine.malloc(1000)
        machine.malloc(2000)
        peak = alloc.peak_live_bytes
        assert peak >= 3000
        machine.free(a)
        machine.malloc(100)  # stays under the high-water mark
        assert alloc.peak_live_bytes == peak
        machine.malloc(5000)
        assert alloc.peak_live_bytes > peak

    def test_reset_restarts_peak_from_surviving_live_bytes(self):
        machine = make_machine(CORE2)
        big = machine.malloc(10_000)
        machine.free(big)
        machine.malloc(64)
        machine.reset()
        assert machine.allocator.peak_live_bytes \
            == machine.allocator.live_bytes

    def test_footprint_identical_across_engines(self):
        """The memory objective is engine-independent, like every other
        counter — a vector-engine fitness fan-out scores the exact same
        fronts."""
        scalar = run_case_study(
            XalanStringCache("test"),
            replace(CORE2, sim_engine="scalar"))
        vector = run_case_study(
            XalanStringCache("test"),
            replace(CORE2, sim_engine="vector"))
        assert scalar.footprint_bytes == vector.footprint_bytes
        assert scalar.cycles == vector.cycles


class TestRunDarwin:
    def test_xalan_front_nontrivial_and_beats_greedy(self, xalan_result):
        result = xalan_result
        assert len(result.front) >= 2
        # Mutually non-dominated by construction.
        for p in result.front:
            assert not any(q.dominates(p) for q in result.front)
        # At least one evolved assignment strictly beats the greedy
        # per-instance advisor on (cycles, footprint).
        assert result.dominating()
        for p in result.dominating():
            assert p.cycles <= result.greedy.cycles
            assert p.footprint_bytes <= result.greedy.footprint_bytes
            assert (p.cycles < result.greedy.cycles
                    or p.footprint_bytes < result.greedy.footprint_bytes)

    def test_chord_front_nontrivial_and_beats_greedy(self, chord_result):
        assert len(chord_result.front) >= 2
        assert chord_result.dominating()

    def test_front_weakly_dominates_seeds(self, xalan_result):
        """Default and greedy chromosomes seed generation zero, so some
        front point is at least as good as each on both objectives."""
        for seeded in (xalan_result.default, xalan_result.greedy):
            assert any(
                p.cycles <= seeded.cycles
                and p.footprint_bytes <= seeded.footprint_bytes
                for p in xalan_result.front
            )

    def test_front_sorted_by_cycles(self, xalan_result):
        cycles = [p.cycles for p in xalan_result.front]
        assert cycles == sorted(cycles)

    def test_points_reference_legal_candidates(self, xalan_result):
        app = XalanStringCache("test")
        names, candidates = site_candidates(app)
        legal = dict(zip(names, candidates))
        for point in xalan_result.front:
            for site, kind in point.kind_map().items():
                assert kind in legal[site.rsplit(":", 1)[-1]]

    def test_byte_identical_across_jobs(self):
        payloads = [
            run_darwin(ChordSimulator("small"), CORE2,
                       degraded_advisor(), generations=3, population=6,
                       seed=0, jobs=jobs).to_payload()
            for jobs in (1, 2, 4)
        ]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_without_advisor_uses_defaults_only(self):
        result = run_darwin(ChordSimulator("small"), CORE2,
                            generations=2, population=4, seed=0)
        assert result.greedy is None
        assert result.dominating() == []
        assert result.front
        assert result.report.pareto_front
        assert result.report.program_cycles == result.default.cycles

    def test_single_objective_search_reports_both_axes(self):
        result = run_darwin(ChordSimulator("small"), CORE2,
                            generations=2, population=4, seed=0,
                            objectives=("memory",))
        assert result.objectives == ("memory",)
        for p in result.front:
            assert p.cycles > 0 and p.footprint_bytes > 0

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError,
                           match="unknown objective.*latency"):
            run_darwin(ChordSimulator("small"), CORE2,
                       objectives=("cycles", "latency"))

    def test_evaluations_are_memoised(self, chord_result):
        """Distinct assignments only: far fewer evaluations than
        population x generations re-simulation would cost."""
        names, candidates = site_candidates(ChordSimulator("small"))
        space = 1
        for kinds in candidates:
            space *= len(kinds)
        assert chord_result.evaluations <= space


_HASHSEED_SCRIPT = """
import json, sys
from repro.apps.chord import ChordSimulator
from repro.core.advisor import BrainyAdvisor
from repro.core.darwin import run_darwin
from repro.machine.configs import CORE2
from repro.models import BrainySuite

result = run_darwin(ChordSimulator("small"), CORE2,
                    BrainyAdvisor(BrainySuite("core2")),
                    generations=3, population=6, seed=0, jobs=2)
with open(sys.argv[1], "w") as fh:
    json.dump(result.to_payload(), fh, sort_keys=True)
"""


class TestHashSeedIndependence:
    def test_front_identical_across_hash_seeds(self, tmp_path):
        """Two ``jobs=2`` searches under different ``PYTHONHASHSEED``
        values serialise to bit-identical payloads."""
        digests = []
        for hashseed in ("1", "2"):
            out = tmp_path / f"darwin-{hashseed}.json"
            env = dict(os.environ,
                       PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT, str(out)],
                check=True, env=env, timeout=600,
            )
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


class TestDarwinResultPayload:
    def test_round_trip(self, xalan_result):
        payload = xalan_result.to_payload()
        restored = DarwinResult.from_payload(
            json.loads(json.dumps(payload)))
        assert restored.to_payload() == payload

    def test_round_trip_without_greedy(self):
        result = run_darwin(ChordSimulator("small"), CORE2,
                            generations=1, population=4, seed=0)
        payload = result.to_payload()
        assert payload["greedy"] is None
        assert DarwinResult.from_payload(payload).greedy is None

    def test_format_lists_front_and_baselines(self, xalan_result):
        text = xalan_result.format()
        assert "non-dominated" in text
        assert "[default]" in text
        assert "[greedy advisor]" in text
        # Dominating rows are starred and the legend explains the star.
        assert "*" in text
        assert "strictly dominates the greedy" in text

    def test_format_without_advisor_has_no_greedy_row(self):
        result = run_darwin(ChordSimulator("small"), CORE2,
                            generations=1, population=4, seed=0)
        text = result.format()
        assert "[default]" in text
        assert "[greedy advisor]" not in text
        assert "strictly dominates" not in text


class TestReportParetoFront:
    def test_absent_from_payload_when_empty(self):
        report = Report(program_cycles=10)
        assert "pareto_front" not in report.to_payload()
        assert Report.from_payload(report.to_payload()).pareto_front == []

    def test_round_trips_when_present(self):
        report = Report(program_cycles=10)
        report.pareto_front = [
            {"kinds": {"xalan:cache": "avl_set"}, "cycles": 5,
             "footprint_bytes": 64},
        ]
        restored = Report.from_payload(
            json.loads(json.dumps(report.to_payload())))
        assert restored.pareto_front == report.pareto_front

    def test_format_renders_front_section_only_when_present(self):
        report = Report(program_cycles=10)
        assert "Pareto front" not in report.format()
        report.pareto_front = [
            {"kinds": {"xalan:cache": "avl_set"}, "cycles": 5,
             "footprint_bytes": 64},
        ]
        assert "Pareto front (1 non-dominated" in report.format()

    def test_darwin_report_carries_front(self, xalan_result):
        assert xalan_result.report.pareto_front \
            == [p.to_payload() for p in xalan_result.front]
        assert "Pareto front" in xalan_result.report.format()


class TestAssignmentPoint:
    def test_dominates_is_strict(self):
        a = AssignmentPoint(kinds=(("s", "vector"),), cycles=10,
                            footprint_bytes=100)
        b = AssignmentPoint(kinds=(("s", "list"),), cycles=10,
                            footprint_bytes=100)
        c = AssignmentPoint(kinds=(("s", "deque"),), cycles=9,
                            footprint_bytes=100)
        assert not a.dominates(b)  # equal on both axes
        assert c.dominates(a)
        assert not a.dominates(c)

    def test_objectives_registry_names_both_axes(self):
        assert set(OBJECTIVES) == {"cycles", "memory"}


class TestDarwinKnobs:
    def test_defaults_validate(self):
        options = RunOptions()
        assert options.validate_darwin() is options

    def test_knobs_are_known_run_options(self):
        for knob in ("darwin_generations", "darwin_population",
                     "darwin_objectives"):
            assert knob in {f.name for f in fields(RunOptions)}

    @pytest.mark.parametrize("changes,message", [
        (dict(darwin_generations=0), "darwin_generations must be >= 1"),
        (dict(darwin_population=1), "darwin_population must be >= 2"),
        (dict(darwin_objectives=()), "at least one objective"),
        (dict(darwin_objectives=("latency",)),
         "unknown darwin objective"),
        (dict(darwin_objectives=("cycles", "cycles")),
         "must not repeat"),
    ])
    def test_bad_knobs_rejected_with_detail(self, changes, message):
        with pytest.raises(ValueError, match=message):
            RunOptions(**changes).validate_darwin()

    def test_problems_are_joined(self):
        with pytest.raises(ValueError) as excinfo:
            RunOptions(darwin_generations=0,
                       darwin_population=0).validate_darwin()
        assert "darwin_generations" in str(excinfo.value)
        assert "darwin_population" in str(excinfo.value)

    def test_unknown_objective_names_valid_ones(self):
        with pytest.raises(ValueError,
                           match="valid objectives: cycles, memory"):
            RunOptions(
                darwin_objectives=("heap",)).validate_darwin()


class TestApiDarwin:
    """Error paths only: every one must fail before any training."""

    def test_bad_generations_is_usage_error(self):
        with pytest.raises(api.UsageError,
                           match="darwin_generations must be >= 1"):
            api.darwin("xalan", scale="tiny", generations=0)

    def test_bad_population_is_usage_error(self):
        with pytest.raises(api.UsageError,
                           match="darwin_population must be >= 2"):
            api.darwin("xalan", scale="tiny", population=1)

    def test_repeated_objectives_is_usage_error(self):
        with pytest.raises(api.UsageError, match="must not repeat"):
            api.darwin("xalan", scale="tiny",
                       objectives=("cycles", "cycles"))

    def test_unknown_objective_is_usage_error(self):
        with pytest.raises(api.UsageError,
                           match="unknown darwin objective"):
            api.darwin("xalan", scale="tiny", objectives=("latency",))

    def test_unknown_app_is_usage_error(self):
        with pytest.raises(api.UsageError, match="unknown app"):
            api.darwin("nope", scale="tiny")

    def test_unknown_input_is_usage_error(self):
        with pytest.raises(api.UsageError, match="unknown input"):
            api.darwin("xalan", input_name="huge", scale="tiny")
