"""Record-at-a-time reference advice: the oracle for the batched path.

:meth:`repro.core.advisor.BrainyAdvisor.advise_traces` stacks records
per model group and runs one vectorized forward pass per group.
:func:`advise_sequential` answers the same trace the plain way — one
record, one model call, in trace order — through the same inference
seam and the same Perflint fallback.  Its Report must equal the
batched one exactly, degraded answers included.

Used by the advisor and serving parity tests and the ML benchmark's
identity check; production code never calls it.
"""

from __future__ import annotations

import numpy as np

from repro.containers.registry import (
    DSKind,
    as_map_kind,
    candidates_for,
    model_group_for,
)
from repro.core.advisor import _ADVISABLE, BrainyAdvisor
from repro.core.report import Report
from repro.instrumentation.trace import TraceSet
from repro.models.brainy import BrainyModel
from repro.runtime.faults import (
    DEGRADED_MODEL_UNAVAILABLE,
    InferenceUnavailable,
)


def _infer_record(advisor: BrainyAdvisor, group_name: str,
                  model: BrainyModel, features: np.ndarray,
                  legal: tuple[DSKind, ...]) -> DSKind:
    """One record's inference through the advisor's serving seam."""
    if advisor._infer is None:
        return model.predict_kind(features, legal=legal)
    rows = np.asarray(features, dtype=np.float64).reshape(1, -1)
    masks = model.legal_mask(legal).reshape(1, -1)
    return advisor._infer(group_name, model, rows, masks)[0]


def advise_sequential(advisor: BrainyAdvisor, trace: TraceSet,
                      keyed_contexts: frozenset[str] = frozenset()
                      ) -> Report:
    """The Report :meth:`BrainyAdvisor.advise_trace` must produce,
    computed one record at a time."""
    report = Report(program_cycles=trace.program_cycles)
    for record in trace:
        keyed = record.context in keyed_contexts or getattr(
            record, "keyed", False
        )
        if record.kind not in _ADVISABLE:
            continue
        group = model_group_for(record.kind, record.order_oblivious)
        legal = candidates_for(record.kind, record.order_oblivious)
        degraded = (group.name not in advisor.suite.models
                    or group.name in advisor.suite.degraded)
        if degraded:
            suggested = advisor._baseline_suggest(
                record.kind, record.features, legal
            )
            report.mark_degraded(group.name, DEGRADED_MODEL_UNAVAILABLE)
        else:
            model = advisor.suite[group.name]
            try:
                suggested = _infer_record(
                    advisor, group.name, model, record.features, legal
                )
            except InferenceUnavailable as exc:
                suggested = advisor._baseline_suggest(
                    record.kind, record.features, legal
                )
                report.mark_degraded(group.name, exc.reason)
                degraded = True
        if keyed:
            suggested = as_map_kind(suggested)
        report.suggestions.append(
            advisor._suggestion(record, suggested, keyed,
                                trace.program_cycles, degraded)
        )
    return report
