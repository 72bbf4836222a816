"""The parallel training engine: ordered fan-out, determinism, faults.

The acceptance bar for the parallel runtime: a Phase-I/II run with any
``jobs`` value produces artifacts byte-identical to a serial run —
including under injected quarantines, worker crashes, and an interrupt
resumed mid-fan-out — and two parallel runs agree checksum-for-checksum
regardless of ``PYTHONHASHSEED``.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.appgen.config import GeneratorConfig
from repro.containers.registry import MODEL_GROUPS
from repro.machine.configs import CORE2
from repro.runtime.checkpoint import TrainingInterrupted
from repro.runtime.faults import (
    CATEGORY_DETERMINISTIC,
    CATEGORY_TRANSIENT,
    RetryPolicy,
)
from repro.runtime.inject import FaultInjector, FaultPlan
from repro.runtime.options import RunOptions
from repro.runtime.parallel import (
    SerialExecutor,
    TaskFailure,
    map_ordered,
    map_retry,
    resolve_jobs,
    usable_jobs,
)
from repro.training.phase1 import (
    SeedOutcome,
    _recover_worker_crash,
    run_phase1,
)
from repro.training.phase2 import run_phase2

GROUP = MODEL_GROUPS["set"]
CONFIG = GeneratorConfig.small()
NO_WAIT = RetryPolicy(retries=2, backoff=0.0)


def phase1_kwargs(**extra):
    kwargs = dict(per_class_target=3, max_seeds=40)
    kwargs.update(extra)
    return kwargs


# Module-level so a worker pool can pickle them by reference.
def _square(x):
    return x * x


def _crash_on_seven(x):
    if x == 7:
        raise ValueError("crash")
    return x


class CountingExecutor(SerialExecutor):
    """Records every submitted task (still lazy, still in-process)."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, args):
        self.submitted.append(args[0])
        return super().submit(fn, args)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(0)


class TestMapOrdered:
    def test_serial_preserves_order(self):
        assert list(map_ordered(_square, range(10))) \
            == [x * x for x in range(10)]

    def test_pool_preserves_order(self):
        results = list(map_ordered(_square, range(25), jobs=2))
        assert results == [x * x for x in range(25)]

    def test_failure_lands_in_its_slot(self):
        results = list(map_ordered(_crash_on_seven, range(10)))
        assert [r for i, r in enumerate(results) if i != 7] \
            == [x for x in range(10) if x != 7]
        failure = results[7]
        assert isinstance(failure, TaskFailure)
        assert failure.task == 7
        assert isinstance(failure.error, ValueError)

    def test_pool_failure_lands_in_its_slot(self):
        results = list(map_ordered(_crash_on_seven, range(10), jobs=2))
        assert isinstance(results[7], TaskFailure)
        assert results[7].task == 7

    def test_window_bounds_speculation(self):
        executor = CountingExecutor()
        stream = map_ordered(_square, range(100), window=5,
                             executor=executor)
        assert next(stream) == 0
        # Exactly the window was submitted ahead of the first result.
        assert executor.submitted == list(range(5))
        stream.close()
        assert executor.submitted == list(range(5))

    def test_serial_executor_is_lazy(self):
        evaluated = []

        def tracking(x):
            evaluated.append(x)
            return x

        stream = map_ordered(tracking, range(100), window=5)
        assert next(stream) == 0
        # Submission is not evaluation: early stop must not pay for
        # speculative tasks.
        assert evaluated == [0]
        stream.close()
        assert evaluated == [0]


class TestMapRetry:
    """map_ordered plus a single in-parent retry for failed slots —
    the recovery used by consumers (GA fitness, suite group pipelines)
    whose tasks are pure and safe to re-run."""

    def test_passthrough_without_failures(self):
        assert list(map_retry(_square, range(10), jobs=2)) \
            == [x * x for x in range(10)]

    def test_failed_slot_retried_in_parent(self):
        calls = []

        def flaky_once(x):
            calls.append(x)
            if x == 7 and calls.count(7) == 1:
                raise ValueError("first attempt fails")
            return x * x

        assert list(map_retry(flaky_once, range(10))) \
            == [x * x for x in range(10)]
        assert calls.count(7) == 2

    def test_deterministic_failure_propagates(self):
        results = map_retry(_crash_on_seven, range(10))
        assert [next(results) for _ in range(7)] == list(range(7))
        with pytest.raises(ValueError, match="crash"):
            next(results)

    def test_reraise_types_skip_the_retry(self):
        calls = []

        def interrupted(x):
            calls.append(x)
            raise TrainingInterrupted("stop")

        with pytest.raises(TrainingInterrupted):
            list(map_retry(interrupted, range(5),
                           reraise=(TrainingInterrupted,)))
        assert calls == [0]  # no second in-parent attempt


class TestUsableJobs:
    def test_picklable_worker_keeps_jobs(self):
        assert usable_jobs(_square, 4, "worker") == 4

    def test_closure_degrades_to_serial(self):
        captured = []

        def closure(x):  # closes over a local: not picklable
            return captured

        with pytest.warns(RuntimeWarning, match="running serially"):
            assert usable_jobs(closure, 4, "worker") == 1


class TestWorkerCrashRecovery:
    def test_deterministic_crash_quarantined(self):
        failure = TaskFailure(task=11, error=ValueError("bad state"))
        outcome = _recover_worker_crash(failure, _square)
        assert outcome.quarantine is not None
        assert outcome.quarantine.seed == 11
        assert outcome.quarantine.stage == "worker"
        assert outcome.quarantine.category == CATEGORY_DETERMINISTIC
        assert outcome.quarantine.attempts == 1

    def test_transient_crash_retried_in_parent(self):
        failure = TaskFailure(task=5, error=ConnectionError("lost worker"))
        outcome = _recover_worker_crash(
            failure, lambda seed: SeedOutcome(seed=seed, runtimes={})
        )
        assert outcome.quarantine is None
        assert outcome.seed == 5

    def test_transient_crash_retry_fails_then_quarantines(self):
        failure = TaskFailure(task=5, error=TimeoutError("slow worker"))

        def still_broken(seed):
            raise TimeoutError("still slow")

        outcome = _recover_worker_crash(failure, still_broken)
        assert outcome.quarantine is not None
        assert outcome.quarantine.category == CATEGORY_TRANSIENT
        assert outcome.quarantine.attempts == 2


class TestParallelSerialEquivalence:
    """The core invariant: artifacts are byte-identical for any jobs."""

    @pytest.fixture(scope="class")
    def serial_phase1(self):
        return run_phase1(GROUP, CONFIG, CORE2, **phase1_kwargs())

    def test_phase1_jobs4_matches_serial(self, serial_phase1, tmp_path):
        parallel = run_phase1(GROUP, CONFIG, CORE2,
                              **phase1_kwargs(options=RunOptions(jobs=4)))
        serial_phase1.save(tmp_path / "serial.json")
        parallel.save(tmp_path / "parallel.json")
        assert (tmp_path / "serial.json").read_bytes() \
            == (tmp_path / "parallel.json").read_bytes()

    def test_phase2_jobs4_matches_serial(self, serial_phase1, tmp_path):
        baseline = run_phase2(serial_phase1, CONFIG, CORE2)
        parallel = run_phase2(serial_phase1, CONFIG, CORE2,
                              options=RunOptions(jobs=4))
        baseline.save(tmp_path / "serial.json")
        parallel.save(tmp_path / "parallel.json")
        assert (tmp_path / "serial.json").read_bytes() \
            == (tmp_path / "parallel.json").read_bytes()

    def test_quarantined_seed_matches_serial(self, tmp_path):
        """Injected deterministic faults under fan-out land in the same
        quarantine slots a serial run produces."""
        plan = FaultPlan(rng_seed=2, p_deterministic_generate=0.3)
        kwargs = phase1_kwargs()

        serial = run_phase1(
            GROUP, CONFIG, CORE2,
            generate_fn=FaultInjector(plan).wrap_generate(),
            options=RunOptions(retry_policy=NO_WAIT), **kwargs,
        )
        assert serial.quarantined
        # Injector closures are stateful, so the fan-out variant runs on
        # an in-process executor: same merge loop, same window logic.
        fanned = run_phase1(
            GROUP, CONFIG, CORE2,
            generate_fn=FaultInjector(plan).wrap_generate(),
            executor=SerialExecutor(),
            options=RunOptions(retry_policy=NO_WAIT, jobs=4), **kwargs,
        )
        serial.save(tmp_path / "serial.json")
        fanned.save(tmp_path / "fanned.json")
        assert (tmp_path / "serial.json").read_bytes() \
            == (tmp_path / "fanned.json").read_bytes()

    def test_interrupt_and_resume_mid_fanout(self, serial_phase1,
                                             tmp_path):
        """Ctrl-C during a fanned-out run checkpoints the merged prefix;
        resume completes to a byte-identical artifact."""
        victim = serial_phase1.records[
            len(serial_phase1.records) // 2].seed
        ckpt = tmp_path / "phase1.ckpt.json"
        injector = FaultInjector(
            FaultPlan(interrupt_at_seeds=frozenset({victim}))
        )
        with pytest.raises(TrainingInterrupted):
            run_phase1(GROUP, CONFIG, CORE2,
                       **phase1_kwargs(
                           checkpoint_path=ckpt,
                           generate_fn=injector.wrap_generate(),
                           executor=SerialExecutor(),
                           options=RunOptions(jobs=4),
                       ))
        assert ckpt.exists()
        resumed = run_phase1(GROUP, CONFIG, CORE2,
                             **phase1_kwargs(resume_from=ckpt,
                                             options=RunOptions(jobs=2)))
        serial_phase1.save(tmp_path / "serial.json")
        resumed.save(tmp_path / "resumed.json")
        assert (tmp_path / "serial.json").read_bytes() \
            == (tmp_path / "resumed.json").read_bytes()

    def test_unpicklable_seam_degrades_with_warning(self):
        """A stateful injected seam can't cross process boundaries: the
        run warns and falls back to in-process, same results."""
        injector = FaultInjector(FaultPlan())
        with pytest.warns(RuntimeWarning, match="running serially"):
            result = run_phase1(
                GROUP, CONFIG, CORE2,
                generate_fn=injector.wrap_generate(),
                **phase1_kwargs(options=RunOptions(jobs=4)),
            )
        assert len(result) > 0


_HASHSEED_SCRIPT = """
import sys
from repro.appgen.config import GeneratorConfig
from repro.containers.registry import MODEL_GROUPS
from repro.machine.configs import CORE2
from repro.runtime.options import RunOptions
from repro.training.phase1 import run_phase1

result = run_phase1(MODEL_GROUPS["set"], GeneratorConfig.small(), CORE2,
                    per_class_target=2, max_seeds=16,
                    options=RunOptions(jobs=4))
result.save(sys.argv[1])
"""


class TestHashSeedIndependence:
    def test_two_jobs4_runs_have_identical_checksums(self, tmp_path):
        """Two ``--jobs 4`` runs under different ``PYTHONHASHSEED``
        values produce bit-identical artifacts."""
        digests = []
        for hashseed in ("1", "2"):
            out = tmp_path / f"phase1-{hashseed}.json"
            env = dict(os.environ,
                       PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT, str(out)],
                check=True, env=env, timeout=600,
            )
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
