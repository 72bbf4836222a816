"""Micro-batched dispatch: byte-identity, shedding, breaker isolation.

The batching acceptance contract: for *any* ``batch_window_ms`` /
``batch_max`` setting, every answer the service gives — ok, deadline-
degraded baseline, breaker-open baseline — is byte-identical to the
answer the PR-5 per-request path gives for the same trace.  These tests
drive genuinely concurrent requests through the batch window and
compare full report payloads (``json.dumps(..., sort_keys=True)``)
against an unbatched reference service, then cover the mechanics the
tentpole must preserve: load shedding at flush time, drain flushing an
open window, and per-group circuit breakers staying independent under
concurrent failures.
"""

import json
import threading
import time

import pytest

from repro.containers.registry import DSKind
from repro.core.advisor import BrainyAdvisor
from repro.core.testing import advise_sequential
from repro.runtime.faults import DEGRADED_BREAKER, DEGRADED_DEADLINE
from repro.runtime.inject import ServeFaultInjector, ServeFaultPlan
from repro.runtime.options import RunOptions
from repro.serve import AdviseRequest, AdvisorService, MicroBatcher, OPEN
from repro.serve.protocol import decode_line, encode
from repro.serve.testing import (
    advise_payload,
    make_mixed_trace,
    make_trace,
    tiny_suite,
)


@pytest.fixture(scope="module")
def suite():
    return tiny_suite()


def canon(report_payload):
    return json.dumps(report_payload, sort_keys=True)


def submit_concurrently(service, requests):
    """Fire all requests at once so they overlap inside the window."""
    responses = [None] * len(requests)
    barrier = threading.Barrier(len(requests))

    def one(index):
        barrier.wait()
        responses[index] = service.submit(requests[index])

    threads = [threading.Thread(target=one, args=(i,), daemon=True)
               for i in range(len(requests))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert all(response is not None for response in responses)
    return responses


class TestAdvisorBatchEntryPoint:
    def test_advise_traces_identical_to_advise_trace(self, suite):
        advisor = BrainyAdvisor(suite)
        batch = [
            (make_mixed_trace(1, seed=3), frozenset()),
            (make_trace(4, kind=DSKind.LIST, seed=5), frozenset()),
            (make_trace(2, kind=DSKind.MAP, keyed=True, seed=6),
             frozenset({"app:site0"})),
            (make_mixed_trace(2, seed=7), frozenset()),
        ]
        together = advisor.advise_traces(batch)
        for (trace, keyed), report in zip(batch, together):
            alone = advisor.advise_trace(trace, keyed)
            assert canon(report.to_payload()) == canon(alone.to_payload())

    def test_single_trace_batch_matches_per_record_reference(self, suite):
        advisor = BrainyAdvisor(suite)
        trace = make_mixed_trace(2, seed=11)
        [report] = advisor.advise_traces([(trace, frozenset())])
        reference = advise_sequential(advisor, trace)
        assert canon(report.to_payload()) == canon(reference.to_payload())


class TestBatchedByteIdentity:
    @pytest.mark.parametrize("window_ms,batch_max", [
        (1.0, 1),      # degenerate: every "batch" is one request
        (20.0, 4),     # fills to batch_max under 8 concurrent clients
        (5.0, 64),     # window/idle flush carries it
    ])
    def test_any_knobs_match_the_unbatched_path(self, suite, window_ms,
                                                batch_max):
        reference = AdvisorService(suite=suite, workers=2)
        batched = AdvisorService(
            suite=suite, workers=2,
            options=RunOptions(batch_window_ms=window_ms,
                               batch_max=batch_max),
        )
        traces = ([make_mixed_trace(1, seed=i) for i in range(4)]
                  + [make_trace(3, kind=DSKind.SET, seed=i)
                     for i in range(2)]
                  + [make_trace(2, kind=DSKind.MAP, keyed=True, seed=9),
                     make_mixed_trace(2, seed=13)])
        requests = [
            AdviseRequest.from_payload(
                advise_payload(trace, request_id=f"r{i}"))
            for i, trace in enumerate(traces)
        ]
        responses = submit_concurrently(batched, requests)
        for trace, response in zip(traces, responses):
            assert response.status == "ok"
            expected = reference.submit(AdviseRequest.from_payload(
                advise_payload(trace)))
            assert canon(response.report.to_payload()) \
                == canon(expected.report.to_payload())

    def test_deadline_expiry_inside_window_degrades_identically(
            self, suite):
        """A request whose deadline dies while coalescing answers the
        same flagged baseline as the unbatched path — byte for byte."""
        slow = frozenset({"vector_oo"})
        ref_injector = ServeFaultInjector(ServeFaultPlan(slow_groups=slow))
        bat_injector = ServeFaultInjector(ServeFaultPlan(slow_groups=slow))
        reference = AdvisorService(
            suite=suite, workers=1,
            inference=ref_injector.wrap_inference(),
        )
        batched = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(batch_window_ms=30_000.0, batch_max=64),
            inference=bat_injector.wrap_inference(),
        )
        try:
            trace = make_trace(3, seed=2)
            payload = advise_payload(trace, request_id="tight",
                                     deadline_seconds=0.05)
            # Batched: the request sits in a window that will not flush
            # for 30s; its 50ms deadline expires while coalescing.
            got = batched.submit(AdviseRequest.from_payload(payload))
            # Reference: same deadline expires against slow inference.
            want = reference.submit(AdviseRequest.from_payload(payload))
            assert got.status == want.status == "degraded"
            assert got.degraded == want.degraded == DEGRADED_DEADLINE
            assert canon(got.report.to_payload()) \
                == canon(want.report.to_payload())
            assert batched.metrics.counter_value("serve.deadline") == 1
        finally:
            ref_injector.release.set()
            bat_injector.release.set()
            reference.drain()
            batched.drain()

    def test_breaker_open_answers_identically_under_batching(self, suite):
        """With a group's breaker open, batched requests get the same
        flagged-baseline bytes as unbatched requests do."""

        def services():
            for window in (0.0, 20.0):
                injector = ServeFaultInjector(
                    ServeFaultPlan(fail_groups={"vector_oo": -1}))
                yield AdvisorService(
                    suite=suite, workers=2,
                    options=RunOptions(batch_window_ms=window,
                                       batch_max=4,
                                       breaker_threshold=1),
                    inference=injector.wrap_inference(),
                )

        reference, batched = services()
        answers = []
        for service in (reference, batched):
            # Trip the vector_oo breaker with one lone request; on the
            # batching service it flushes on its window timer as a batch
            # of one, so the trip is identical on both services.
            trip = AdviseRequest.from_payload(advise_payload(
                make_trace(1, seed=0)))
            assert service.submit(trip).status == "degraded"
            assert service.breaker("vector_oo").state == OPEN
            requests = [
                AdviseRequest.from_payload(advise_payload(
                    make_mixed_trace(1, seed=4), request_id=f"b{i}"))
                for i in range(4)
            ]
            answers.append(submit_concurrently(service, requests))
        for want, got in zip(*answers):
            assert want.status == got.status == "degraded"
            assert want.degraded == got.degraded == DEGRADED_BREAKER
            assert canon(got.report.to_payload()) \
                == canon(want.report.to_payload())


class TestRetiredBatchedField:
    """Older clients may still send the retired ``batched`` flag on the
    wire: the request decodes and is answered exactly as without it."""

    @pytest.mark.parametrize("window_ms", [0.0, 20.0])
    @pytest.mark.parametrize("flag", [False, True])
    def test_old_client_request_answers_byte_identically(
            self, suite, window_ms, flag):
        service = AdvisorService(
            suite=suite, workers=2,
            options=RunOptions(batch_window_ms=window_ms),
        )
        try:
            for seed in range(3):
                current = advise_payload(make_mixed_trace(2, seed=seed),
                                         request_id=f"w{seed}")
                old = decode_line(encode(dict(current, batched=flag)))
                want = service.handle_payload(current)
                got = service.handle_payload(old)
                assert got["status"] == "ok"
                assert encode(got) == encode(want)
        finally:
            service.drain()


class TestBatchMechanics:
    def test_concurrent_requests_coalesce_into_one_batch(self, suite):
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(batch_window_ms=200.0, batch_max=4),
        )
        requests = [
            AdviseRequest.from_payload(advise_payload(
                make_mixed_trace(1, seed=i), request_id=f"c{i}"))
            for i in range(4)
        ]
        responses = submit_concurrently(service, requests)
        assert all(r.status == "ok" for r in responses)
        batches = service.metrics.snapshot()["histograms"][
            "serve.batch_size"]
        # 4 requests flushed as one full batch (batch_max reached well
        # inside the 200ms window).
        assert batches["count"] == 1 and batches["total"] == 4.0

    def test_flush_shed_answers_every_batched_request_overloaded(
            self, suite):
        """A batch whose flush finds the dispatch queue full is dropped
        whole; every coalesced request gets the structured shed."""
        injector = ServeFaultInjector(
            ServeFaultPlan(slow_groups=frozenset({"vector_oo"})))
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(deadline_seconds=30.0, queue_depth=2,
                               batch_window_ms=500.0, batch_max=8),
            inference=injector.wrap_inference(),
        )
        # A lone request flushes on its window timer and parks the
        # single worker in slow inference.
        blocker = threading.Thread(
            target=service.submit,
            args=(AdviseRequest.from_payload(advise_payload(
                make_trace(1), deadline_seconds=20.0)),),
            daemon=True)
        try:
            blocker.start()
            assert injector.started.wait(10.0)
            # Nothing is queued, so admission lets 2 requests coalesce
            # (depth 2) into one open window ...
            requests = [
                AdviseRequest.from_payload(advise_payload(
                    make_trace(2, seed=i), request_id=f"s{i}"))
                for i in range(2)
            ]
            responses = []
            submitter = threading.Thread(
                target=lambda: responses.extend(
                    submit_concurrently(service, requests)),
                daemon=True)
            submitter.start()
            deadline = time.monotonic() + 10.0
            while (service._batcher.pending < 2
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            assert service._batcher.pending == 2
            # ... and the queue fills before the window closes, so the
            # flush finds no queue slot.
            assert service._dispatcher.try_submit(lambda: None) is not None
            assert service._dispatcher.try_submit(lambda: None) is not None
            submitter.join(timeout=30.0)
            assert len(responses) == 2
            assert all(r.status == "overloaded" for r in responses)
            assert all(r.report is None for r in responses)
            assert service.metrics.counter_value("serve.shed") == 2
        finally:
            injector.release.set()
            blocker.join(timeout=10.0)
            service.drain()

    def test_drain_flushes_an_open_window_immediately(self, suite):
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(batch_window_ms=60_000.0, batch_max=64),
        )
        response = [None]

        def submit():
            response[0] = service.submit(AdviseRequest.from_payload(
                advise_payload(make_trace(2))))

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        while service._batcher.pending == 0 and thread.is_alive():
            pass  # wait for the request to enter the window
        assert service.drain() is True
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert response[0].status == "ok"

    def test_window_zero_disables_the_batcher(self, suite):
        service = AdvisorService(suite=suite, workers=1)
        assert service._batcher is None
        assert service.submit(AdviseRequest.from_payload(
            advise_payload(make_trace()))).status == "ok"

    def test_batching_knobs_validated(self, suite):
        with pytest.raises(ValueError, match="batch_window_ms"):
            AdvisorService(suite=suite,
                           options=RunOptions(batch_window_ms=-1.0))
        with pytest.raises(ValueError, match="batch_max"):
            AdvisorService(suite=suite,
                           options=RunOptions(batch_max=0))

    def test_queue_depth_gauge_tracks_window_occupancy(self, suite):
        service = AdvisorService(
            suite=suite, workers=1,
            options=RunOptions(batch_window_ms=200.0, batch_max=4),
        )
        submit_concurrently(service, [
            AdviseRequest.from_payload(advise_payload(
                make_trace(1, seed=i))) for i in range(3)
        ])
        # The gauge was written at every admission; at least one sample
        # saw another request already waiting in the open window.
        depth = service.metrics.gauge_value("serve.queue_depth")
        assert depth is not None


class TestBreakerIsolationUnderConcurrentFailures:
    def test_two_groups_trip_and_probe_independently(self, suite):
        """vector_oo and list_oo tripping at the same time keep
        independent open/half-open state: list_oo's successful probe
        closes it while vector_oo's failing probe re-opens it."""

        class StepClock:
            def __init__(self):
                self.now = 0.0
                self._lock = threading.Lock()

            def __call__(self):
                with self._lock:
                    return self.now

            def advance(self, seconds):
                with self._lock:
                    self.now += seconds

        clock = StepClock()
        injector = ServeFaultInjector(ServeFaultPlan(
            fail_groups={"vector_oo": -1, "list_oo": 1}))
        service = AdvisorService(
            suite=suite, workers=2, clock=clock,
            options=RunOptions(deadline_seconds=30.0,
                               breaker_threshold=1,
                               breaker_cooldown_seconds=10.0),
            inference=injector.wrap_inference(),
        )
        vec = AdviseRequest.from_payload(advise_payload(
            make_trace(1, kind=DSKind.VECTOR)))
        lst = AdviseRequest.from_payload(advise_payload(
            make_trace(1, kind=DSKind.LIST)))

        # Concurrent failures: both groups trip together.
        responses = submit_concurrently(
            service,
            [AdviseRequest.from_payload(advise_payload(
                make_trace(1, kind=DSKind.VECTOR))),
             AdviseRequest.from_payload(advise_payload(
                 make_trace(1, kind=DSKind.LIST)))])
        assert all(r.status == "degraded" for r in responses)
        assert service.breaker("vector_oo").state == OPEN
        assert service.breaker("list_oo").state == OPEN

        # Past the cooldown both are probe-eligible.  list_oo's failure
        # budget (1) is spent, so its probe succeeds and closes it;
        # vector_oo fails forever, so its probe re-opens it.  Probing
        # concurrently proves the half-open single-probe slots are
        # per group, not shared.
        clock.advance(11.0)
        probes = submit_concurrently(service, [vec, lst])
        by_status = sorted(p.status for p in probes)
        assert by_status == ["degraded", "ok"]
        assert service.breaker("vector_oo").state == OPEN
        assert service.breaker("list_oo").state != OPEN

    def test_open_breaker_short_circuits_only_its_group_in_a_batch(
            self, suite):
        """One coalesced batch carrying both a vector_oo trace and a
        list trace: the open vector_oo breaker degrades the former and
        must not touch the latter."""
        injector = ServeFaultInjector(ServeFaultPlan(
            fail_groups={"vector_oo": -1}))
        service = AdvisorService(
            suite=suite, workers=2,
            options=RunOptions(batch_window_ms=200.0, batch_max=2,
                               breaker_threshold=1),
            inference=injector.wrap_inference(),
        )
        # A lone request flushes on its window timer and trips the
        # breaker (threshold 1) before the mixed batch arrives.
        trip = AdviseRequest.from_payload(advise_payload(make_trace(1)))
        assert service.submit(trip).status == "degraded"
        assert service.breaker("vector_oo").state == OPEN

        short_circuits_before = service.metrics.counter_value(
            "serve.breaker_short_circuit", group="vector_oo")
        responses = submit_concurrently(service, [
            AdviseRequest.from_payload(advise_payload(
                make_trace(2, kind=DSKind.VECTOR), request_id="vec")),
            AdviseRequest.from_payload(advise_payload(
                make_trace(2, kind=DSKind.LIST), request_id="lst")),
        ])
        by_id = {r.request_id: r for r in responses}
        assert by_id["vec"].status == "degraded"
        assert by_id["vec"].degraded == DEGRADED_BREAKER
        assert by_id["lst"].status == "ok"
        assert by_id["lst"].degraded is None
        assert not any(s.degraded for s in by_id["lst"].report)
        assert service.metrics.counter_value(
            "serve.breaker_short_circuit",
            group="vector_oo") > short_circuits_before
        # The whole point of per-group breakers: list_oo never tripped.
        assert service.metrics.counter_value(
            "serve.breaker_short_circuit", group="list_oo") == 0


class TestMicroBatcherExported:
    def test_public_surface(self):
        assert MicroBatcher.__name__ == "MicroBatcher"
