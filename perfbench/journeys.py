"""The benchmarked user journeys, their golden digests and their layers.

Imported only by processes that run the program (``worker.py``,
``record_golden.py``): it pulls in numpy and the whole ``repro`` package.

Inputs come from the workload seed, folded onto ``VARIANTS`` recorded
variants so every output can be checked against ``golden.json``:

* pass ``i`` of a run with variant ``v`` of ``train-tiny`` or
  ``darwin-xalan`` uses input ``k = (v + i) % INPUT_CYCLE``: the Phase I
  ``seed_base``, or the GA seed and the suite ``tiny_suite(k)``.  Search
  cost differs by up to a third between GA seeds and suites, so every
  run covers the whole cycle (``worker.py`` runs at least
  ``INPUT_CYCLE`` passes) and weighs each input equally; the seed picks
  the order;
* ``advise-apps`` and ``serve-burst`` use the suite ``tiny_suite(v)``
  (and serve the traces ``SERVE_TRACES * v + j``) in every pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import repro.core.advisor as advisor_mod
import repro.core.darwin as darwin_mod
import repro.models.brainy as brainy
import repro.training.phase1 as phase1
import repro.training.phase2 as phase2
from repro.apps import (
    CHORD_INPUTS,
    RAYTRACE_SCENES,
    RELIPMOC_INPUTS,
    XALAN_INPUTS,
    ChordSimulator,
    Raytracer,
    Relipmoc,
    XalanStringCache,
)
from repro.containers.registry import MODEL_GROUPS
from repro.core.advisor import BrainyAdvisor
from repro.machine.configs import CORE2, MachineConfig
from repro.machine.vector import TraceRecorder
from repro.models.brainy import BrainyModel, BrainySuite
from repro.runtime.artifacts import payload_checksum
from repro.runtime.options import RunOptions
from tracing import durations, run_ids, self_times

VARIANTS = 8
INPUT_CYCLE = 4


def pass_input(variant: int, index: int) -> int:
    return (variant + index) % INPUT_CYCLE

#: ``BrainySuite.train`` knobs of one ``train-tiny`` pass.  The two
#: groups between them put all nine container kinds up as candidates.
TRAIN_GROUPS = ("list_oo", "map")
TRAIN_PER_CLASS = 10
TRAIN_SEEDS = 12
TRAIN_HIDDEN = (16,)

DARWIN_INPUT = "test"

SERVE_TRACES = 64
#: Stands in for the request id in request and reply templates; the
#: load generator splices a unique id in its place.
RID = "@@RID@@"

CASE_STUDIES = tuple(
    (f"{name}/{input_name}", factory, input_name)
    for name, factory, inputs in (
        ("chord", ChordSimulator, CHORD_INPUTS),
        ("raytrace", Raytracer, RAYTRACE_SCENES),
        ("relipmoc", Relipmoc, RELIPMOC_INPUTS),
        ("xalan", XalanStringCache, XALAN_INPUTS),
    )
    for input_name in inputs
)


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Journeys.  ``run`` returns one ``(golden key, digest thunk)`` per
# operation; the thunk computes the digest after timing stops.
# ---------------------------------------------------------------------------

class TrainJourney:
    """``BrainySuite.train`` on two groups into an empty cache."""

    def __init__(self, scratch: Path,
                 machine: MachineConfig = CORE2) -> None:
        self.scratch = scratch
        self.machine = machine

    def run(self, variant: int, index: int):
        key = pass_input(variant, index)
        results: list = []
        original = brainy.run_phase1

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result

        # Keeps each group's Phase I result to digest its artifact.
        brainy.run_phase1 = capture
        try:
            suite = BrainySuite.train(
                self.machine,
                groups=[MODEL_GROUPS[g] for g in TRAIN_GROUPS],
                per_class_target=TRAIN_PER_CLASS,
                max_seeds=TRAIN_SEEDS, hidden=TRAIN_HIDDEN,
                seed_base=key,
                options=RunOptions(jobs=1),
            )
        finally:
            brainy.run_phase1 = original
        return [(f"train-tiny/{key}",
                 lambda: self.digest(results, suite))]

    def digest(self, results: list, suite: BrainySuite) -> dict:
        """Phase I artifact checksums and trained-weight checksums."""
        out: dict = {"phase1": {}, "weights": {}}
        for result in results:
            path = self.scratch / f"{result.group.name}.phase1.json"
            result.save(path)
            envelope = json.loads(path.read_text())
            out["phase1"][result.group.name] = envelope["checksum"]
        for name, model in sorted(suite.models.items()):
            out["weights"][name] = payload_checksum(model.state())
        return out


class AdviseJourney:
    """``advise_app`` on every case-study (app, input) pair."""

    def __init__(self, advisor: BrainyAdvisor) -> None:
        self.advisor = advisor

    def run(self, variant: int, index: int):
        ops = []
        for label, factory, name in CASE_STUDIES:
            report = self.advisor.advise_app(factory(name), CORE2)
            ops.append((f"advise-apps/{variant}/{label}",
                        lambda report=report: payload_checksum(
                            report.to_payload())))
        return ops


class DarwinJourney:
    """One NSGA-II search over xalan's container sites."""

    def __init__(self, advisors: list[BrainyAdvisor]) -> None:
        #: The advisor of ``tiny_suite(k)`` for each input ``k``.
        self.advisors = advisors

    def run(self, variant: int, index: int):
        key = pass_input(variant, index)
        result = darwin_mod.run_darwin(
            XalanStringCache(DARWIN_INPUT), CORE2, self.advisors[key],
            seed=key, input_name=DARWIN_INPUT, jobs=1,
        )
        return [(f"darwin-xalan/{key}",
                 lambda: payload_checksum(result.to_payload()))]


def serve_templates(variant: int, advisor: BrainyAdvisor
                    ) -> tuple[list[bytes], list[bytes]]:
    """Request lines and the in-process advisor's encoded replies, with
    :data:`RID` in place of the request id."""
    from repro.serve.protocol import encode, response_for_report
    from repro.serve.testing import advise_payload, make_mixed_trace

    requests, replies = [], []
    for j in range(SERVE_TRACES):
        trace = make_mixed_trace(per_group=1 + j % 4,
                                 seed=SERVE_TRACES * variant + j)
        requests.append(encode(advise_payload(trace, request_id=RID)))
        report = advisor.advise_trace(trace)
        replies.append(encode(response_for_report(report, RID)
                              .to_payload()))
    return requests, replies


# ---------------------------------------------------------------------------
# Layers: what a traced pass wraps, and the per-layer metrics.
# ---------------------------------------------------------------------------

def install_layer_spans(tracer) -> None:
    """Wrap the public entry points of each layer the journeys cross."""
    def pending(args, kwargs):
        return args[0].pending_events

    def phase1_counts(args, kwargs, result):
        return [result.seeds_tried, len(result.records),
                len(result.quarantined)]

    def evaluations(args, kwargs, result):
        return [result.evaluations,
                result.generations * result.population]

    tracer.patch(TraceRecorder, "replay", "machine.replay", before=pending)
    tracer.patch(phase1, "measure_candidates", "containers.measure")
    tracer.patch(phase1, "generate_app", "appgen.generate")
    tracer.patch(phase2, "generate_app", "appgen.generate")
    tracer.patch(phase2, "replay_seed", "instrumentation.profile")
    tracer.patch(advisor_mod, "run_case_study", "instrumentation.profile")
    tracer.patch(darwin_mod, "run_case_study", "darwin.eval")
    tracer.patch(darwin_mod, "run_darwin", "darwin.search",
                 after=evaluations)
    tracer.patch(brainy, "run_phase1", "training.phase1",
                 after=phase1_counts)
    tracer.patch(brainy, "run_phase2", "training.phase2")
    tracer.patch(BrainyModel, "train", "ml.fit")


def install_load_span(tracer) -> None:
    tracer.patch(BrainySuite, "load", "models.load")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one traced journey pass.

    Record times are self times: ``measure_candidates`` (Phase I) and
    darwin's ``run_case_study`` minus the replays inside them.  Profile
    time excludes Phase II's regeneration of each app, which counts as
    ``appgen``.
    """
    replay = durations(spans, "machine.replay")
    events = sum(run_ids(spans, "machine.replay"))
    counts = [sum(column) for column in
              zip(*run_ids(spans, "training.phase1"))] or [0, 0, 0]
    tried, won, quarantined = counts
    evaluated = [sum(column) for column in
                 zip(*run_ids(spans, "darwin.search"))] or [0, 0]
    generate = durations(spans, "appgen.generate")
    profile = self_times(spans, "instrumentation.profile")
    return {
        "machine.replay_s": sum(replay),
        "machine.replay_calls": len(replay),
        "machine.events": events,
        "machine.ns_per_event": (sum(replay) / events * 1e9
                                 if events else 0.0),
        "containers.record_s": sum(self_times(spans,
                                              "containers.measure")),
        "apps.record_s": sum(self_times(spans, "darwin.eval")),
        "appgen.generate_s": sum(generate),
        "appgen.generate_calls": len(generate),
        "training.phase1_s": sum(durations(spans, "training.phase1")),
        "training.phase2_s": sum(durations(spans, "training.phase2")),
        "training.seeds_tried": tried,
        "training.seeds_won": won,
        "training.win_ratio": won / tried if tried else 0.0,
        "training.seeds_quarantined": quarantined,
        "instrumentation.profile_s": sum(profile),
        "instrumentation.profile_calls": len(profile),
        "ml.fit_s": sum(durations(spans, "ml.fit")),
        "darwin.evaluations": evaluated[0],
        "darwin.distinct_ratio": (evaluated[0] / evaluated[1]
                                  if evaluated[1] else 0.0),
        "darwin.eval_s": sum(durations(spans, "darwin.eval")),
        "darwin.search_s": sum(self_times(spans, "darwin.search")),
    }
