"""The advisor service core: a bounded-concurrency dispatch loop.

:class:`AdvisorService` wraps :class:`repro.core.advisor.BrainyAdvisor`
behind the four serving guarantees:

* **Deadlines** — :meth:`AdvisorService.submit` waits at most the
  request's budget (``RunOptions.deadline_seconds`` by default) for the
  dispatched inference; past it, the caller gets the Perflint-baseline
  answer flagged ``degraded=deadline`` immediately.  A hung model call
  can never hang a request.
* **Load shedding** — work enters through a bounded queue
  (``RunOptions.queue_depth``) feeding a fixed pool of daemon worker
  threads; when the queue is full the request is answered
  ``overloaded`` at once (counted in ``serve.shed``), never queued
  unboundedly.
* **Circuit breakers** — every model group's inference runs behind a
  :class:`repro.serve.breaker.CircuitBreaker`; the guarded-inference
  seam converts failures and open breakers into
  :class:`~repro.runtime.faults.InferenceUnavailable`, which the
  advisor answers with a flagged baseline for just that group.
* **Hot reload** — :meth:`AdvisorService.reload_now` (also called by
  the server's poll loop) stages a strict validation load through
  :class:`repro.serve.reload.SuiteReloader` and atomically swaps the
  advisor only on success; a corrupt new artifact leaves the
  last-known-good suite serving.

* **Micro-batching** — with ``RunOptions.batch_window_ms`` > 0,
  concurrent advise requests coalesce per advisor inside
  :class:`MicroBatcher` and run as one vectorized
  :meth:`~repro.core.advisor.BrainyAdvisor.advise_traces` pass,
  fanning back out into byte-identical per-request reports; deadlines,
  shedding and breakers all keep their per-request semantics.

All service metrics go directly to the service's own collector
(``serve.requests{status=…}``, ``serve.shed``, ``serve.deadline``,
``serve.breaker_state{group=…}``, ``serve.latency_ms``,
``serve.batch_size``, ``serve.queue_depth``), so tests and the
``metrics`` op read one coherent registry.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np

import repro.obs as obs
from repro.core.advisor import BrainyAdvisor
from repro.models.brainy import BrainyModel, BrainySuite
from repro.registry.store import RegistryError
from repro.runtime.faults import (
    DEGRADED_BREAKER,
    DEGRADED_DEADLINE,
    DEGRADED_INFERENCE_ERROR,
    InferenceUnavailable,
)
from repro.runtime.options import RunOptions
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import (
    OP_ADVISE,
    OP_HEALTH,
    OP_METRICS,
    OP_PROMOTE,
    OP_READY,
    OP_RELOAD,
    OP_ROLLBACK,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_UNAVAILABLE,
    AdviseRequest,
    ProtocolError,
    ServeResponse,
    response_for_report,
)
from repro.serve.reload import (
    RegistryRouter,
    RegistryRouterError,
    SuiteReloader,
)

#: Raw per-group inference call, before breaker accounting.  The serving
#: fault injector substitutes this to model slow or crashing models.
InferenceFn = Callable[[str, BrainyModel, np.ndarray, np.ndarray], list]


def _direct_inference(group_name: str, model: BrainyModel,
                      rows: np.ndarray, masks: np.ndarray) -> list:
    return model.predict_kinds(rows, legal_masks=masks)


class _Task:
    """One queued inference; the submitter waits with its own timeout."""

    __slots__ = ("fn", "result", "error", "done", "cancelled")

    def __init__(self, fn: Callable[[], object]) -> None:
        self.fn = fn
        self.result: object | None = None
        self.error: BaseException | None = None
        self.done = threading.Event()
        self.cancelled = False

    def run(self) -> None:
        try:
            self.result = self.fn()
        except BaseException as exc:
            self.error = exc
        finally:
            self.done.set()


class Dispatcher:
    """Fixed worker pool over a bounded queue.

    Workers are daemon threads: a model call that never returns cannot
    block process exit (the drain budget, not thread join, bounds
    shutdown).  ``try_submit`` never blocks — a full queue returns
    ``None``, which is the load-shedding signal.
    """

    def __init__(self, workers: int, queue_depth: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self._queue: queue.Queue[_Task] = queue.Queue(maxsize=queue_depth)
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        self._active = 0
        self.workers = workers
        self.queue_depth = queue_depth
        #: Called (outside the dispatcher lock) each time a worker
        #: finishes a task and finds the queue empty — the micro-
        #: batcher's cue to flush what coalesced during the task.
        self.on_idle: Callable[[], None] | None = None
        for i in range(workers):
            thread = threading.Thread(
                target=self._run, name=f"repro-serve-worker-{i}",
                daemon=True,
            )
            thread.start()

    @property
    def queued(self) -> int:
        return self._queue.qsize()

    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    def try_submit(self, fn: Callable[[], object]) -> _Task | None:
        task = _Task(fn)
        try:
            self._queue.put_nowait(task)
        except queue.Full:
            return None
        return task

    def _run(self) -> None:
        while True:
            task = self._queue.get()
            if task.cancelled:
                # The submitter gave up while the task still sat in the
                # queue; don't burn a worker on a dead request.
                task.done.set()
                with self._settled:
                    self._settled.notify_all()
                continue
            with self._lock:
                self._active += 1
            try:
                task.run()
            finally:
                with self._lock:
                    self._active -= 1
                    self._settled.notify_all()
                hook = self.on_idle
                if hook is not None and not self._queue.qsize():
                    try:
                        hook()
                    except Exception:  # pragma: no cover - safety
                        pass

    def quiesce(self, timeout: float,
                clock: Callable[[], float] = time.monotonic) -> bool:
        """Wait until no work is queued or running; False on timeout."""
        deadline = clock() + timeout
        with self._settled:
            while self._queue.qsize() or self._active:
                remaining = deadline - clock()
                if remaining <= 0:
                    return False
                self._settled.wait(min(remaining, 0.05))
            return True


class _BatchEntry:
    """One request waiting inside a micro-batch.

    Same waiting surface as :class:`_Task` (``result`` / ``error`` /
    ``done`` / ``cancelled``) so the submit tail handles both paths with
    one piece of code: a deadline timeout sets ``cancelled`` and answers
    from the baseline, a flush-time shed sets ``cancelled`` *and*
    ``done`` so the submitter answers ``overloaded``.
    """

    __slots__ = ("trace", "keyed_contexts", "result", "error", "done",
                 "cancelled")

    def __init__(self, trace, keyed_contexts) -> None:
        self.trace = trace
        self.keyed_contexts = keyed_contexts
        self.result: object | None = None
        self.error: BaseException | None = None
        self.done = threading.Event()
        self.cancelled = False


class _Bucket:
    """Entries coalescing for one advisor, plus their window timer."""

    __slots__ = ("advisor", "entries", "timer")

    def __init__(self, advisor: BrainyAdvisor) -> None:
        self.advisor = advisor
        self.entries: list[_BatchEntry] = []
        self.timer: threading.Timer | None = None


class MicroBatcher:
    """Coalesces concurrent advise requests into multi-trace batches.

    Requests land in per-advisor buckets (keyed by the advisor object
    itself, so registry tags and hot-reload generations never mix inside
    one forward pass).  A bucket flushes when it reaches ``batch_max``
    or when the ``batch_window_ms`` timer expires, whichever comes
    first; the flush submits **one** dispatcher task running
    :meth:`repro.core.advisor.BrainyAdvisor.advise_traces`, whose
    reports fan back out to the waiting submitters — byte-identical to
    what each request would have gotten alone.

    The serving guarantees survive coalescing:

    * deadlines stay per-request — every submitter waits on its own
      entry with its own budget, and an entry whose submitter already
      gave up is dropped from the batch at flush time;
    * load shedding stays bounded by ``queue_depth`` — admission counts
      both queued dispatcher work and not-yet-flushed entries, and a
      formed batch that meets a full dispatcher queue sheds all of its
      entries with ``overloaded``;
    * breakers keep working per group inside the batched pass (the
      advisor's ``infer`` seam is per model group either way).
    """

    def __init__(self, dispatcher: Dispatcher, *, window_seconds: float,
                 batch_max: int, metrics) -> None:
        self._dispatcher = dispatcher
        self._window = max(float(window_seconds), 0.0)
        self._batch_max = max(int(batch_max), 1)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._buckets: dict[int, _Bucket] = {}
        self._pending = 0
        # A worker finishing with an empty queue flushes what coalesced
        # during its pass — back-to-back batches under load, with the
        # window timer only as the upper bound on waiting.
        dispatcher.on_idle = self.flush_pending

    @property
    def pending(self) -> int:
        """Entries admitted but not yet flushed into the dispatcher."""
        with self._lock:
            return self._pending

    def try_submit(self, advisor: BrainyAdvisor, trace,
                   keyed_contexts) -> _BatchEntry | None:
        """Admit one request into its advisor's open bucket.

        Returns ``None`` (the shed signal, same as
        :meth:`Dispatcher.try_submit`) when admission would exceed the
        ``queue_depth`` bound counting both dispatcher backlog and
        coalescing entries — batching must never add hidden queueing.
        """
        entry = _BatchEntry(trace, keyed_contexts)
        ready: _Bucket | None = None
        with self._lock:
            if (self._pending + self._dispatcher.queued
                    >= self._dispatcher.queue_depth):
                return None
            key = id(advisor)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = _Bucket(advisor)
                self._buckets[key] = bucket
            bucket.entries.append(entry)
            self._pending += 1
            if len(bucket.entries) >= self._batch_max:
                ready = self._detach_locked(key)
            elif bucket.timer is None:
                timer = threading.Timer(self._window,
                                        self._flush_key, args=(key,))
                timer.daemon = True
                bucket.timer = timer
                timer.start()
        if ready is not None:
            self._dispatch(ready)
        return entry

    def _detach_locked(self, key: int) -> _Bucket | None:
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return None
        if bucket.timer is not None:
            bucket.timer.cancel()
        self._pending -= len(bucket.entries)
        return bucket

    def _flush_key(self, key: int) -> None:
        with self._lock:
            bucket = self._detach_locked(key)
        if bucket is not None:
            self._dispatch(bucket)

    def flush_pending(self) -> None:
        """Flush every open bucket right now.

        Called on drain (nobody should wait out a window while the
        drain clock runs) and by the dispatcher's idle hook (a freed
        worker takes the accumulated batch immediately).
        """
        with self._lock:
            if not self._buckets:
                return
            buckets = [self._detach_locked(key)
                       for key in list(self._buckets)]
        for bucket in buckets:
            if bucket is not None:
                self._dispatch(bucket)

    def _dispatch(self, bucket: _Bucket) -> None:
        live = []
        for entry in bucket.entries:
            if entry.cancelled:
                # The submitter's deadline expired inside the window;
                # it already answered from the baseline — don't spend
                # model time on it.
                entry.done.set()
            else:
                live.append(entry)
        if not live:
            return
        self._metrics.observe("serve.batch_size", len(live))
        batch = [(entry.trace, entry.keyed_contexts) for entry in live]
        advisor = bucket.advisor

        def run() -> None:
            try:
                reports = advisor.advise_traces(batch)
            except BaseException as exc:
                for entry in live:
                    entry.error = exc
                    entry.done.set()
            else:
                for entry, report in zip(live, reports):
                    entry.result = report
                    entry.done.set()

        if self._dispatcher.try_submit(run) is None:
            for entry in live:
                entry.cancelled = True
                entry.done.set()


class AdvisorService:
    """The long-running advisor: deadlines, shedding, breakers, reload.

    Parameters
    ----------
    suite_dir:
        Saved-suite directory to serve (and watch for hot reload).
    suite:
        An in-memory suite instead (tests); reload is disabled unless
        ``suite_dir`` is also given.
    options:
        Serving knobs (:class:`repro.runtime.options.RunOptions` —
        ``deadline_seconds``, ``queue_depth``, ``breaker_threshold``,
        ``breaker_cooldown_seconds``, ``drain_seconds``).
    workers:
        Inference worker threads (bounded concurrency).
    clock:
        Injectable monotonic clock for breaker cool-downs and drain
        budgets — what makes the fault-injection tests deterministic.
    inference:
        Raw per-group inference seam (the serving fault injector's
        hook); defaults to the direct model call.
    fallback:
        Perflint baseline override, forwarded to the advisor.
    registry:
        A :class:`repro.registry.store.SuiteRegistry` to serve instead
        of a single suite — requests route by tag to each key's live
        version through a :class:`RegistryRouter` (shadow evaluation,
        gated promotion, auto-demote).  Mutually exclusive with
        ``suite_dir`` / ``suite``.
    registry_key:
        The default routing key for untagged requests (a full
        ``machine/corpus`` key or a unique machine preset name);
        optional when the registry has exactly one key.
    auto_promote:
        Registry mode: let the router promote gate-clearing candidates
        on its own (default); ``False`` restricts promotion to the
        explicit ``promote`` op.
    worker_id:
        This process's position in a multi-worker fleet (0-based;
        always 0 single-process).  Reported by health/ready so
        multi-worker deployments can tell which process answered.
    worker_restarts:
        How many times this worker slot has been respawned by the
        fleet supervisor (0 for the original process).  Surfaced in
        health/ready alongside the worker id so operators can spot a
        flapping slot.
    """

    def __init__(self, suite_dir: str | Path | None = None, *,
                 suite: BrainySuite | None = None,
                 options: RunOptions | None = None,
                 workers: int = 2,
                 clock: Callable[[], float] = time.monotonic,
                 collector=None,
                 inference: InferenceFn | None = None,
                 fallback=None,
                 registry=None,
                 registry_key: str | None = None,
                 auto_promote: bool = True,
                 worker_id: int = 0,
                 worker_restarts: int = 0) -> None:
        if registry is not None and (suite is not None
                                     or suite_dir is not None):
            raise ValueError(
                "pass either a registry or a suite_dir/suite, not both")
        if registry is None and suite is None and suite_dir is None:
            raise ValueError(
                "need a suite_dir, an in-memory suite, or a registry")
        self.options = (options or RunOptions()).validate_serving()
        self._clock = clock
        self.collector = collector if collector is not None \
            else obs.Collector()
        self.metrics = self.collector.metrics
        self._inference = inference or _direct_inference
        self._fallback = fallback
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._advisor: BrainyAdvisor | None = None
        self._reloader: SuiteReloader | None = None
        self.router: RegistryRouter | None = None
        if registry is not None:
            self.router = RegistryRouter(
                registry, self._make_advisor,
                options=self.options, metrics=self.metrics,
                default_key=registry_key, auto_promote=auto_promote,
            )
        else:
            self._reloader = (SuiteReloader(suite_dir,
                                            metrics=self.metrics)
                              if suite_dir is not None else None)
            if suite is None:
                suite = self._reloader.load_initial()
            elif self._reloader is not None:
                self._reloader.load_initial()
            self._advisor = self._make_advisor(suite)
        self._dispatcher = Dispatcher(workers,
                                      self.options.queue_depth)
        self._batcher: MicroBatcher | None = None
        if self.options.batch_window_ms > 0:
            self._batcher = MicroBatcher(
                self._dispatcher,
                window_seconds=self.options.batch_window_ms / 1000.0,
                batch_max=self.options.batch_max,
                metrics=self.metrics,
            )
        self.worker_id = worker_id
        self.worker_restarts = worker_restarts
        self._draining = threading.Event()
        self._started = self._clock()

    # -- advisor plumbing -------------------------------------------------

    def _make_advisor(self, suite: BrainySuite) -> BrainyAdvisor:
        return BrainyAdvisor(suite, self._fallback,
                             infer=self._guarded_infer)

    @property
    def advisor(self) -> BrainyAdvisor | None:
        if self.router is not None:
            routed = self.router.route()
            return routed[1] if routed is not None else None
        return self._advisor

    @property
    def suite(self) -> BrainySuite | None:
        advisor = self.advisor
        return advisor.suite if advisor is not None else None

    def breaker(self, group_name: str) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(group_name)
            if breaker is None:
                breaker = CircuitBreaker(
                    group_name,
                    threshold=self.options.breaker_threshold,
                    cooldown_seconds=(
                        self.options.breaker_cooldown_seconds),
                    clock=self._clock,
                    metrics=self.metrics,
                )
                self._breakers[group_name] = breaker
            return breaker

    def _guarded_infer(self, group_name: str, model: BrainyModel,
                       rows: np.ndarray, masks: np.ndarray) -> list:
        """Breaker-accounted inference: the advisor's ``infer`` seam.

        Open breaker → :class:`InferenceUnavailable` without touching
        the model; model failure → breaker bookkeeping, then
        :class:`InferenceUnavailable` — either way the advisor answers
        that group from the flagged baseline instead of failing the
        request.
        """
        breaker = self.breaker(group_name)
        if not breaker.allow():
            self.metrics.count("serve.breaker_short_circuit",
                               group=group_name)
            raise InferenceUnavailable(DEGRADED_BREAKER)
        try:
            kinds = self._inference(group_name, model, rows, masks)
        except InferenceUnavailable:
            raise
        except Exception as exc:
            breaker.record_failure()
            self.metrics.count("serve.inference_failures",
                               group=group_name)
            raise InferenceUnavailable(
                DEGRADED_INFERENCE_ERROR,
                f"{type(exc).__name__}: {exc}",
            ) from exc
        breaker.record_success()
        return kinds

    # -- the request path -------------------------------------------------

    def submit(self, request: AdviseRequest) -> ServeResponse:
        """One advise request, end to end — always answers, never hangs.

        Admission (shed when the queue is full) → dispatch → bounded
        wait (deadline) → structured response.
        """
        if self._draining.is_set():
            self.metrics.count("serve.requests",
                               status=STATUS_UNAVAILABLE)
            return ServeResponse(
                status=STATUS_UNAVAILABLE,
                request_id=request.request_id,
                error="service is draining",
            )
        route_key: str | None = None
        if self.router is not None:
            routed = self.router.route(request.tag)
            if routed is None:
                self.metrics.count("serve.requests",
                                   status=STATUS_ERROR)
                return ServeResponse(
                    status=STATUS_ERROR,
                    request_id=request.request_id,
                    error=(f"unknown or unserveable routing tag "
                           f"{request.tag!r}; known keys: "
                           + ", ".join(self.router.keys())),
                )
            route_key, advisor = routed
        elif request.tag:
            self.metrics.count("serve.requests", status=STATUS_ERROR)
            return ServeResponse(
                status=STATUS_ERROR,
                request_id=request.request_id,
                error=(f"routing tag {request.tag!r} given but this "
                       "server is not in registry mode"),
            )
        else:
            advisor = self._advisor  # one suite generation per request
        start = self._clock()
        if self._batcher is not None:
            # Micro-batched path: coalesce with concurrent requests for
            # the same advisor; one vectorized pass per flushed batch.
            task = self._batcher.try_submit(
                advisor, request.trace, request.keyed_contexts)
        else:
            task = self._dispatcher.try_submit(
                lambda: advisor.advise_trace(
                    request.trace, request.keyed_contexts)
            )
        self.metrics.gauge(
            "serve.queue_depth",
            float(self._dispatcher.queued
                  + (self._batcher.pending
                     if self._batcher is not None else 0)))
        if task is None:
            self.metrics.count("serve.shed")
            self.metrics.count("serve.requests",
                               status=STATUS_OVERLOADED)
            return ServeResponse(
                status=STATUS_OVERLOADED,
                request_id=request.request_id,
                error=(f"work queue full "
                       f"({self.options.queue_depth} waiting, "
                       f"{self._dispatcher.workers} in flight); "
                       "retry later"),
            )
        deadline = (request.deadline_seconds
                    if request.deadline_seconds is not None
                    else self.options.deadline_seconds)
        if not task.done.wait(deadline):
            # Deadline missed: abandon the task (a queued one is
            # skipped outright; a running one finishes into the void)
            # and answer from the baseline right now.
            task.cancelled = True
            self.metrics.count("serve.deadline")
            report = advisor.baseline_report(
                request.trace, request.keyed_contexts,
                reason=DEGRADED_DEADLINE,
            )
            response = response_for_report(report, request.request_id)
        elif task.cancelled:
            # Skipped in the queue by a previous abandonment sweep;
            # treat as shed (it never ran).
            self.metrics.count("serve.shed")
            response = ServeResponse(
                status=STATUS_OVERLOADED,
                request_id=request.request_id,
                error="request abandoned before it ran; retry later",
            )
        elif task.error is not None:
            self.metrics.count("serve.errors")
            response = ServeResponse(
                status=STATUS_ERROR,
                request_id=request.request_id,
                error=(f"{type(task.error).__name__}: "
                       f"{task.error}"),
            )
        else:
            response = response_for_report(task.result,
                                           request.request_id)
        latency_ms = (self._clock() - start) * 1000.0
        self.metrics.observe("serve.latency_ms", latency_ms)
        self.metrics.count("serve.requests", status=response.status)
        if route_key is not None and response.report is not None:
            self._mirror_to_shadow(route_key, request, response,
                                   latency_ms)
        return response

    def _mirror_to_shadow(self, route_key: str,
                          request: AdviseRequest,
                          response: ServeResponse,
                          latency_ms: float) -> None:
        """Feed an answered request to the key's shadow evaluator and
        the post-promote watch — strictly off the live answer path
        (non-blocking submit; the response is already built)."""
        shadow = self.router.shadow_for(route_key)
        if shadow is not None:
            shadow.submit(request.trace, request.keyed_contexts,
                          response.report, live_latency_ms=latency_ms)
        reasons = set(response.report.degraded_reasons.values())
        failure = bool(reasons & {DEGRADED_BREAKER,
                                  DEGRADED_INFERENCE_ERROR})
        self.router.report_outcome(route_key, failure=failure)

    # -- probes and admin -------------------------------------------------

    def health(self) -> dict:
        """Liveness: answers while the process runs, even mid-drain.

        Always names the suite actually serving: ``suite_version``
        (registry version, or the reload generation in single-suite
        mode) and ``suite_fingerprint`` (the envelope fingerprint from
        :func:`repro.registry.store.suite_fingerprint`).
        """
        suite = self.suite
        payload = {
            "worker": self._worker_identity(),
            "uptime_s": self._clock() - self._started,
            "draining": self._draining.is_set(),
            "queued": self._dispatcher.queued,
            "active": self._dispatcher.active,
            "groups": sorted(suite.models) if suite is not None else [],
            "degraded_groups": (sorted(suite.degraded)
                                if suite is not None else []),
        }
        if self.router is not None:
            default = self.router.resolve_tag("")
            registry_detail = self.router.health()
            entry = (registry_detail.get(default)
                     if default is not None else None)
            payload["suite_version"] = (entry["version"]
                                        if entry else None)
            payload["suite_fingerprint"] = (entry["fingerprint"]
                                            if entry else None)
            payload["registry"] = registry_detail
            payload["shadow"] = self.metrics.find("registry.shadow.")
        else:
            payload["generation"] = (self._reloader.generation
                                     if self._reloader is not None
                                     else 0)
            payload["reload_stale"] = (
                self._reloader.last_error is not None
                if self._reloader is not None else False)
            payload["suite_version"] = payload["generation"]
            payload["suite_fingerprint"] = (
                self._reloader.suite_fingerprint
                if self._reloader is not None else None)
        return payload

    def _worker_identity(self) -> dict:
        """Which process is answering (fleet position + pid +
        how many times the supervisor has respawned the slot)."""
        return {"id": self.worker_id, "pid": os.getpid(),
                "restarts": self.worker_restarts}

    def ready(self) -> tuple[bool, str | None]:
        """Readiness: can this instance take traffic right now?"""
        if self._draining.is_set():
            return False, "service is draining"
        suite = self.suite
        if suite is None:
            return False, "no live suite loaded"
        if not suite.models:
            return False, "no usable models loaded"
        return True, None

    def reload_now(self) -> dict:
        """Check for a newer suite and swap if it validates.

        The swap is a single reference assignment: in-flight requests
        keep the advisor (and suite) they started with, new requests see
        the new one.  A rejected version changes nothing except the
        stale flag and the rejection counter.  In registry mode this is
        the router reconciliation pass (liveness changes, shadow
        spin-up, gated promotion, scheduled auto-demotes).
        """
        if self.router is not None:
            with self._reload_lock:
                summary = self.router.refresh()
                return {"watching": True, "registry": True,
                        "reloaded": bool(summary["changed"]),
                        **summary}
        if self._reloader is None:
            return {"reloaded": False, "watching": False}
        with self._reload_lock:
            suite = self._reloader.maybe_reload()
            if suite is not None:
                self._advisor = self._make_advisor(suite)
            return {
                "reloaded": suite is not None,
                "watching": True,
                "generation": self._reloader.generation,
                "stale": self._reloader.last_error is not None,
                "error": self._reloader.last_error,
            }

    def metrics_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        return {"counters": snapshot["counters"],
                "gauges": snapshot["gauges"]}

    # -- lifecycle --------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop accepting new requests (SIGTERM step one)."""
        self._draining.set()

    def drain(self, drain_seconds: float | None = None) -> bool:
        """Stop accepting, then wait for in-flight work within the
        budget (``RunOptions.drain_seconds`` by default).  Returns
        whether everything finished; either way the gauge
        ``serve.drained`` records the outcome for the telemetry
        artifact."""
        self.begin_drain()
        if self._batcher is not None:
            # Don't make in-flight requests wait out a coalescing
            # window while the drain clock runs.
            self._batcher.flush_pending()
        budget = (drain_seconds if drain_seconds is not None
                  else self.options.drain_seconds)
        drained = self._dispatcher.quiesce(budget)
        if self.router is not None:
            self.router.close()
        self.metrics.gauge("serve.drained", 1.0 if drained else 0.0)
        return drained

    def export_telemetry(self, path: str | Path,
                         meta: dict | None = None) -> None:
        obs.export_telemetry(
            self.collector, Path(path),
            meta={"command": "serve", **(meta or {})},
            wall_time_s=self._clock() - self._started,
        )

    # -- protocol dispatch ------------------------------------------------

    def handle_payload(self, payload: dict) -> dict:
        """One decoded request payload → one response payload.

        This is the single entry point the TCP handler (and the tests)
        use; every outcome — including malformed advise bodies — is a
        structured response, never an exception.
        """
        op = payload.get("op")
        request_id = str(payload.get("id", ""))
        if op == OP_ADVISE:
            try:
                request = AdviseRequest.from_payload(payload)
            except ProtocolError as exc:
                return ServeResponse(
                    status=STATUS_ERROR, request_id=request_id,
                    error=str(exc),
                ).to_payload()
            return self.submit(request).to_payload()
        if op == OP_HEALTH:
            return ServeResponse(status=STATUS_OK,
                                 request_id=request_id,
                                 detail=self.health()).to_payload()
        if op == OP_READY:
            ready, why = self.ready()
            return ServeResponse(
                status=STATUS_OK if ready else STATUS_UNAVAILABLE,
                request_id=request_id,
                error=why,
                detail={"worker": self._worker_identity()},
            ).to_payload()
        if op == OP_RELOAD:
            try:
                detail = self.reload_now()
            except Exception as exc:
                # The advisor keeps serving last-known-good; the op
                # reports the failure instead of dropping the
                # connection.
                self.metrics.count("serve.reload_errors")
                return ServeResponse(
                    status=STATUS_ERROR, request_id=request_id,
                    error=(f"reload failed: "
                           f"{type(exc).__name__}: {exc}"),
                ).to_payload()
            return ServeResponse(status=STATUS_OK,
                                 request_id=request_id,
                                 detail=detail).to_payload()
        if op == OP_METRICS:
            return ServeResponse(
                status=STATUS_OK, request_id=request_id,
                detail=self.metrics_snapshot(),
            ).to_payload()
        if op in (OP_PROMOTE, OP_ROLLBACK):
            return self._handle_registry_op(op, payload, request_id)
        return ServeResponse(status=STATUS_ERROR,
                             request_id=request_id,
                             error=f"unknown op {op!r}").to_payload()

    def _handle_registry_op(self, op: str, payload: dict,
                            request_id: str) -> dict:
        """The promote / rollback ops (registry mode only)."""
        if self.router is None:
            return ServeResponse(
                status=STATUS_ERROR, request_id=request_id,
                error=f"op {op!r} requires registry mode",
            ).to_payload()
        key = self.router.resolve_tag(str(payload.get("tag", "")))
        if key is None:
            return ServeResponse(
                status=STATUS_ERROR, request_id=request_id,
                error=("unknown routing tag; known keys: "
                       + ", ".join(self.router.keys())),
            ).to_payload()
        try:
            with self._reload_lock:
                if op == OP_PROMOTE:
                    detail = self.router.promote_now(
                        key, force=bool(payload.get("force", False)))
                else:
                    detail = self.router.rollback_now(
                        key, reason=payload.get("reason"))
        except (RegistryRouterError, RegistryError) as exc:
            return ServeResponse(
                status=STATUS_ERROR, request_id=request_id,
                error=str(exc),
            ).to_payload()
        return ServeResponse(status=STATUS_OK, request_id=request_id,
                             detail=detail).to_payload()
