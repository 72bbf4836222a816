"""Cross-engine equivalence: the vector trace-replay engine must be
observationally *bit*-identical to the scalar machine — same counters,
same snapshot tuples, same float ``seconds`` — on randomized event
streams over every machine config, with and without the prefetcher,
across ``reset()``, and all the way up to Phase I artifacts."""

import hashlib
import os
import random
from dataclasses import replace

import pytest

from repro.appgen.config import GeneratorConfig
from repro.containers.registry import MODEL_GROUPS
from repro.machine import (
    Machine,
    NextLinePrefetcher,
    TraceRecorder,
    make_machine,
    resolve_engine,
)
from repro.machine.configs import ATOM, ATOM_FULL, CORE2, CORE2_FULL
from repro.machine.testing import (
    assert_counters_identical,
    counters_identical,
    machine_state,
)
from repro.training.phase1 import run_phase1

ALL_CONFIGS = (CORE2, ATOM, CORE2_FULL, ATOM_FULL)


def drive_random_stream(machine, seed, events=4000, with_reset=False):
    """A randomized mixed event stream, identical for any engine."""
    rng = random.Random(seed)
    addrs = []
    for step in range(events):
        r = rng.random()
        if r < 0.52:
            if addrs and rng.random() < 0.4:
                machine.access(rng.choice(addrs),
                               rng.choice((1, 7, 8, 16, 64, 200, 5000)))
            else:
                machine.access(rng.randrange(1 << 22),
                               rng.choice((8, 8, 8, 16)))
        elif r < 0.67:
            machine.instr(rng.randrange(0, 200))
        elif r < 0.80:
            machine.branch(rng.randrange(4096), rng.random() < 0.7)
        elif r < 0.85:
            machine.div(rng.randrange(0, 4))
        elif r < 0.90:
            machine.loop_branches(rng.randrange(4096),
                                  rng.randrange(0, 50))
        elif r < 0.97:
            addrs.append(machine.malloc(rng.randrange(1, 512)))
        elif addrs:
            machine.free(addrs.pop(rng.randrange(len(addrs))))
        # Mid-stream observation points force partial flushes.
        if rng.random() < 0.002:
            machine.snapshot_tuple()
        if with_reset and rng.random() < 0.001:
            machine.reset()
    return machine


class TestCrossEngineProperty:
    @pytest.mark.parametrize("config", ALL_CONFIGS,
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("prefetch", (False, True),
                             ids=("nopf", "pf"))
    def test_randomized_streams_bit_identical(self, config, prefetch):
        for seed in range(3):
            scalar = Machine(config)
            vector = TraceRecorder(config)
            if prefetch:
                scalar.attach_prefetcher(NextLinePrefetcher())
                vector.attach_prefetcher(NextLinePrefetcher())
            drive_random_stream(scalar, seed)
            drive_random_stream(vector, seed)
            assert_counters_identical(
                scalar, vector, f"{config.name} seed={seed}")

    @pytest.mark.parametrize("config", (CORE2, CORE2_FULL),
                             ids=lambda c: c.name)
    def test_identical_across_reset(self, config):
        scalar = Machine(config)
        vector = TraceRecorder(config)
        drive_random_stream(scalar, 11, with_reset=True)
        drive_random_stream(vector, 11, with_reset=True)
        assert_counters_identical(scalar, vector, config.name)

    def test_small_chunks_force_numpy_path(self):
        # A chunk limit below the small-flush threshold must still be
        # bit-identical (every flush takes the scalar mini-interpreter);
        # a mid-size one exercises the numpy decode on every chunk.
        for chunk in (7, 512):
            scalar = drive_random_stream(Machine(CORE2), 23)
            vector = drive_random_stream(
                TraceRecorder(CORE2, chunk_events=chunk), 23)
            assert counters_identical(scalar, vector), chunk

    def test_line_crossing_and_flat_chunks(self):
        # Aligned single-line runs take the recorder's flat replay
        # path; unaligned sizes force the general decode.  Both must
        # match the scalar engine exactly.
        for base_mask, nbytes in ((~7, 8), (~0, 8), (~0, 60)):
            scalar = Machine(CORE2_FULL)
            vector = TraceRecorder(CORE2_FULL, chunk_events=1024)
            rng = random.Random(5)
            addrs = [rng.randrange(1 << 21) & base_mask
                     for _ in range(4000)]
            for m in (scalar, vector):
                for a in addrs:
                    m.access(a, nbytes)
            assert_counters_identical(scalar, vector,
                                      f"mask={base_mask} nb={nbytes}")


class TestAccessValidation:
    @pytest.mark.parametrize("engine_cls", (Machine, TraceRecorder),
                             ids=("scalar", "vector"))
    @pytest.mark.parametrize("nbytes", (0, -1, -64))
    def test_nonpositive_size_rejected_identically(self, engine_cls,
                                                   nbytes):
        machine = engine_cls(CORE2)
        machine.access(64, 8)  # healthy stream first
        with pytest.raises(ValueError,
                           match=rf"access: size must be positive: "
                                 rf"{nbytes}"):
            machine.access(128, nbytes)

    def test_rejection_leaves_engines_identical(self):
        scalar, vector = Machine(CORE2), TraceRecorder(CORE2)
        for m in (scalar, vector):
            m.access(64, 8)
            with pytest.raises(ValueError):
                m.access(128, 0)
            m.access(192, 8)
        assert counters_identical(scalar, vector)


class TestResetRegression:
    """Satellite: reset() must clear allocator counters and prefetcher
    state while keeping the heap mapping."""

    @pytest.mark.parametrize("engine_cls", (Machine, TraceRecorder),
                             ids=("scalar", "vector"))
    def test_reset_clears_allocator_counters_keeps_heap(self,
                                                        engine_cls):
        machine = engine_cls(CORE2)
        first = machine.malloc(128)
        machine.malloc(64)
        assert machine.allocator.allocations == 2
        assert machine.allocator.allocated_bytes > 0
        machine.reset()
        assert machine.allocator.allocations == 0
        assert machine.allocator.frees == 0
        assert machine.allocator.allocated_bytes == 0
        assert machine.counters().allocations == 0
        # Heap mapping survives: freeing a pre-reset block still works,
        # and new allocations never overlap live ones.
        machine.free(first)
        addr = machine.malloc(32)
        assert addr != first + 16

    def test_reset_clears_prefetcher_state(self):
        machine = Machine(CORE2)
        prefetcher = NextLinePrefetcher()
        machine.attach_prefetcher(prefetcher)
        for i in range(64):
            machine.access(i * 64, 8)
        assert prefetcher.issued > 0
        machine.reset()
        assert prefetcher.issued == 0
        assert prefetcher.useful == 0

    def test_post_reset_runs_identical_to_fresh_machine(self):
        # Reset keeps the heap mapping by design, so the comparison
        # stream avoids the allocator: every other counter source
        # (caches, TLB, predictor, prefetcher, cycles) must behave as
        # if the machine were new.
        def drive(machine, seed):
            rng = random.Random(seed)
            for _ in range(3000):
                r = rng.random()
                if r < 0.6:
                    machine.access(rng.randrange(1 << 20),
                                   rng.choice((8, 16, 200)))
                elif r < 0.8:
                    machine.branch(rng.randrange(4096),
                                   rng.random() < 0.7)
                else:
                    machine.instr(rng.randrange(1, 50))

        used = Machine(CORE2)
        used.attach_prefetcher(NextLinePrefetcher())
        drive(used, 3)
        used.reset()
        fresh = Machine(CORE2)
        fresh.attach_prefetcher(NextLinePrefetcher())
        drive(used, 4)
        drive(fresh, 4)
        assert machine_state(used) == machine_state(fresh)


class TestEngineSelection:
    def test_auto_resolution(self):
        assert resolve_engine(CORE2) == "vector"
        assert resolve_engine(CORE2, instrumented=True) == "scalar"
        assert isinstance(make_machine(CORE2), TraceRecorder)
        assert isinstance(make_machine(CORE2, instrumented=True),
                          Machine)

    def test_config_field_and_explicit_override(self):
        """``MachineConfig.sim_engine`` is the one explicit override of
        the instrumented/measurement choice."""
        scalar_cfg = replace(CORE2, sim_engine="scalar")
        assert resolve_engine(scalar_cfg) == "scalar"
        assert isinstance(make_machine(scalar_cfg), Machine)
        vector_cfg = replace(CORE2, sim_engine="vector")
        assert resolve_engine(vector_cfg, instrumented=True) == "vector"
        with pytest.raises(ValueError, match="valid: scalar, vector"):
            resolve_engine(replace(CORE2, sim_engine="turbo"))

    def test_engine_tags_for_telemetry(self):
        assert Machine(CORE2).engine == "scalar"
        assert TraceRecorder(CORE2).engine == "vector"

    def test_recorder_rejects_bad_chunk(self):
        with pytest.raises(ValueError, match="chunk_events"):
            TraceRecorder(CORE2, chunk_events=0)


class TestPhase1ArtifactIdentity:
    """Tentpole proof: Phase I artifacts are byte-identical whichever
    engine measured the candidate runtimes."""

    def test_artifact_sha256_equal_across_engines(self, tmp_path):
        digests = {}
        for engine in ("scalar", "vector"):
            config = replace(CORE2, sim_engine=engine)
            result = run_phase1(
                MODEL_GROUPS["vector_oo"], GeneratorConfig.small(),
                config, per_class_target=2, max_seeds=12,
            )
            path = tmp_path / f"phase1-{engine}.json"
            result.save(path)
            digests[engine] = hashlib.sha256(
                path.read_bytes()).hexdigest()
        assert digests["scalar"] == digests["vector"]


class TestObsEngineTotals:
    def test_record_sim_run_tags_engine(self):
        import repro.obs as obs

        collector = obs.Collector()
        with obs.use_collector(collector):
            for m in (Machine(CORE2), TraceRecorder(CORE2)):
                m.access(64, 8)
                obs.record_sim_run(m)
        metrics = collector.metrics
        assert metrics.counter_value("sim.runs") == 2
        assert metrics.counter_value("sim.runs.scalar") == 1
        assert metrics.counter_value("sim.runs.vector") == 1
        assert metrics.counter_value("sim.cycles.vector") > 0
