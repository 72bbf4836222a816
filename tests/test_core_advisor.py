"""Unit tests for the advisor and report (with a synthetic suite)."""

import numpy as np
import pytest

from repro.apps.base import run_case_study
from repro.apps.chord import ChordSimulator
from repro.apps.relipmoc import Relipmoc
from repro.containers.registry import DSKind, MODEL_GROUPS
from repro.core.advisor import BrainyAdvisor
from repro.core.report import Report, Suggestion
from repro.core.testing import advise_sequential
from repro.instrumentation.features import num_features
from repro.instrumentation.trace import TraceRecord, TraceSet
from repro.machine.configs import CORE2
from repro.models.brainy import BrainyModel, BrainySuite
from repro.training.dataset import TrainingSet


def synthetic_suite(seed=0) -> BrainySuite:
    """A suite trained on separable synthetic feature data."""
    rng = np.random.default_rng(seed)
    suite = BrainySuite(machine_name="core2")
    for group_name, group in MODEL_GROUPS.items():
        ts = TrainingSet(group_name=group_name, machine_name="core2",
                         classes=group.classes)
        for i in range(80):
            x = rng.normal(size=num_features())
            label = int(np.argmax(x[:len(group.classes)]))
            ts.add(x, group.classes[label], seed=i)
        suite.models[group_name] = BrainyModel.train(ts, epochs=15,
                                                     seed=seed)
    return suite


@pytest.fixture(scope="module")
def suite():
    return synthetic_suite()


def record(context="app:site", kind=DSKind.VECTOR, oblivious=True,
           cycles=100, keyed=False, seed=0):
    rng = np.random.default_rng(seed)
    return TraceRecord(context=context, kind=kind,
                       order_oblivious=oblivious,
                       features=rng.normal(size=num_features()),
                       cycles=cycles, total_calls=10, keyed=keyed)


class TestAdviseTrace:
    def test_suggestions_are_legal(self, suite):
        advisor = BrainyAdvisor(suite)
        trace = TraceSet(program_cycles=1000, records=[
            record(kind=DSKind.VECTOR, oblivious=False, seed=s)
            for s in range(10)
        ])
        report = advisor.advise_trace(trace)
        for suggestion in report:
            assert suggestion.suggested in (
                DSKind.VECTOR, DSKind.LIST, DSKind.DEQUE,
            )

    def test_order_aware_set_only_becomes_avl(self, suite):
        advisor = BrainyAdvisor(suite)
        trace = TraceSet(program_cycles=1000, records=[
            record(kind=DSKind.SET, oblivious=False, seed=s)
            for s in range(10)
        ])
        for suggestion in advisor.advise_trace(trace):
            assert suggestion.suggested in (DSKind.SET, DSKind.AVL_SET)

    def test_keyed_suggestions_map_flavoured(self, suite):
        advisor = BrainyAdvisor(suite)
        trace = TraceSet(program_cycles=1000, records=[
            record(kind=DSKind.VECTOR, oblivious=True, keyed=True,
                   seed=s)
            for s in range(10)
        ])
        for suggestion in advisor.advise_trace(trace):
            assert suggestion.suggested not in (
                DSKind.SET, DSKind.AVL_SET, DSKind.HASH_SET,
            )

    def test_non_advisable_kinds_skipped(self, suite):
        advisor = BrainyAdvisor(suite)
        trace = TraceSet(program_cycles=1000, records=[
            record(kind=DSKind.DEQUE),
            record(kind=DSKind.HASH_SET),
        ])
        assert len(advisor.advise_trace(trace)) == 0

    def test_report_preserves_priority_order(self, suite):
        advisor = BrainyAdvisor(suite)
        trace = TraceSet(program_cycles=1000, records=[
            record(context="hot", cycles=900),
            record(context="cold", cycles=10),
        ])
        trace.sort()
        report = advisor.advise_trace(trace)
        assert report.suggestions[0].context == "hot"
        assert report.suggestions[0].relative_time \
            > report.suggestions[1].relative_time


class TestAdviseApp:
    def test_relipmoc_advice_is_legal(self, suite):
        advisor = BrainyAdvisor(suite)
        report = advisor.advise_app(Relipmoc("small"), CORE2)
        assert len(report) == 1
        suggestion = report.suggestions[0]
        assert suggestion.context == "relipmoc:basic_blocks"
        assert suggestion.suggested in (DSKind.SET, DSKind.AVL_SET)

    def test_chord_advice_is_map_flavoured(self, suite):
        advisor = BrainyAdvisor(suite)
        report = advisor.advise_app(ChordSimulator("small"), CORE2)
        (suggestion,) = report.suggestions
        assert suggestion.keyed
        assert suggestion.suggested in (
            DSKind.VECTOR, DSKind.LIST, DSKind.DEQUE,
            DSKind.MAP, DSKind.AVL_MAP, DSKind.HASH_MAP,
        )


def mixed_trace(n=60):
    """Every routing shape: kinds x order-obliviousness x keyed, plus
    non-advisable records the advisor must skip."""
    kinds = [DSKind.VECTOR, DSKind.LIST, DSKind.SET, DSKind.MAP,
             DSKind.DEQUE, DSKind.HASH_SET]
    records = []
    for s in range(n):
        records.append(record(context=f"app:site{s}",
                              kind=kinds[s % len(kinds)],
                              oblivious=bool((s // len(kinds)) % 2),
                              keyed=(s % 3 == 0),
                              cycles=10 * (s + 1), seed=s))
    trace = TraceSet(program_cycles=50_000, records=records)
    trace.sort()
    return trace


class TestBatchedEquivalence:
    """The batched per-group inference path must produce a Report
    identical to the record-at-a-time reference path."""

    def assert_reports_equal(self, batched, sequential):
        assert batched.program_cycles == sequential.program_cycles
        assert batched.degraded_groups == sequential.degraded_groups
        assert batched.suggestions == sequential.suggestions

    def test_mixed_synthetic_trace(self, suite):
        advisor = BrainyAdvisor(suite)
        trace = mixed_trace()
        self.assert_reports_equal(
            advisor.advise_trace(trace),
            advise_sequential(advisor, trace),
        )

    def test_keyed_contexts_argument(self, suite):
        advisor = BrainyAdvisor(suite)
        trace = mixed_trace(n=24)
        keyed = frozenset(r.context for r in list(trace)[::4])
        self.assert_reports_equal(
            advisor.advise_trace(trace, keyed_contexts=keyed),
            advise_sequential(advisor, trace, keyed),
        )

    def test_degraded_suite(self, suite):
        """Missing-model fallback slots interleave with batched slots
        without disturbing trace order."""
        partial = BrainySuite(machine_name="core2",
                              models=dict(suite.models))
        del partial.models["vector_oo"]
        advisor = BrainyAdvisor(partial)
        trace = mixed_trace()
        batched = advisor.advise_trace(trace)
        sequential = advise_sequential(advisor, trace)
        assert "vector_oo" in batched.degraded_groups
        self.assert_reports_equal(batched, sequential)

    @pytest.mark.parametrize("app", [Relipmoc("small"),
                                     ChordSimulator("small")])
    def test_case_study_apps(self, suite, app):
        advisor = BrainyAdvisor(suite)
        result = run_case_study(app, CORE2, instrument=True)
        keyed = frozenset(f"{app.name}:{site.name}"
                          for site in app.sites() if site.keyed)
        self.assert_reports_equal(
            advisor.advise_result(app, result),
            advise_sequential(advisor, result.trace(), keyed),
        )


class TestReport:
    def test_replacements_filter(self):
        report = Report(program_cycles=100, suggestions=[
            Suggestion("a", DSKind.VECTOR, DSKind.HASH_SET, 0.5, True),
            Suggestion("b", DSKind.VECTOR, DSKind.VECTOR, 0.3, True),
        ])
        assert report.replacements() == {"a": DSKind.HASH_SET}

    def test_format_contains_rows(self):
        report = Report(program_cycles=1234, suggestions=[
            Suggestion("site_x", DSKind.SET, DSKind.AVL_SET, 0.42, False),
        ])
        text = report.format()
        assert "site_x" in text
        assert "42.0%" in text
        assert "avl_set" in text
        assert "1,234" in text

    def test_len_and_iter(self):
        report = Report(program_cycles=1, suggestions=[
            Suggestion("a", DSKind.MAP, DSKind.HASH_MAP, 1.0, True),
        ])
        assert len(report) == 1
        assert list(report)[0].is_replacement
