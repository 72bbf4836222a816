"""The serving wire protocol: newline-delimited JSON, one op per line.

A client connection carries any number of requests, each a single JSON
object on its own line; the service answers each with a single JSON
object on its own line, in request order.  Ops:

* ``{"op": "advise", "trace": {...}, ...}`` — run the advisor over a
  recorded :class:`~repro.instrumentation.trace.TraceSet` payload.
* ``{"op": "health"}`` — liveness probe (always answers while the
  process runs).
* ``{"op": "ready"}`` — readiness probe (``ok`` only when a suite is
  loaded and the service is not draining).
* ``{"op": "reload"}`` — check the suite artifact for a new version now
  (the service also polls; this makes hot-reload deterministic for
  tests and operators).
* ``{"op": "metrics"}`` — snapshot of the service's counters/gauges.
* ``{"op": "promote"}`` / ``{"op": "rollback"}`` — registry-mode only:
  flip the (tagged) key's liveness now, through the same gated path the
  automatic promotion and auto-demote use.  Both take an optional
  ``tag`` naming the registry key (``machine/corpus`` or a unique
  machine preset); promote also takes ``force`` to bypass the shadow
  gates (validation and strict load still apply).

Unknown request fields are ignored, so a client that still sends the
retired ``batched`` flag gets the same answer as one that does not.

Advise requests may carry a ``tag`` as well — in registry mode it
routes the request to that key's live suite; unknown tags answer
``error``, and in single-suite mode any tag is rejected the same way.

Every response carries ``status``:

* ``ok`` — full-model answer.
* ``degraded`` — answered, but some (or all) suggestions fell back to
  the Perflint baseline; ``degraded`` names the reason (``deadline``,
  ``breaker``, ``model_unavailable``, ``inference_error``, or ``mixed``)
  and the report payload's ``degraded_reasons`` has the per-group
  detail.
* ``overloaded`` — shed: the bounded work queue was full; retry later.
* ``unavailable`` — the service is draining (SIGTERM) or not ready.
* ``error`` — malformed request or an unexpected server-side failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.report import Report
from repro.instrumentation.trace import TraceSet

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_OVERLOADED = "overloaded"
STATUS_UNAVAILABLE = "unavailable"
STATUS_ERROR = "error"

OP_ADVISE = "advise"
OP_HEALTH = "health"
OP_READY = "ready"
OP_RELOAD = "reload"
OP_METRICS = "metrics"
OP_PROMOTE = "promote"
OP_ROLLBACK = "rollback"

OPS = (OP_ADVISE, OP_HEALTH, OP_READY, OP_RELOAD, OP_METRICS,
       OP_PROMOTE, OP_ROLLBACK)


class ProtocolError(ValueError):
    """A request line the service cannot interpret."""


@dataclass(frozen=True)
class AdviseRequest:
    """One advise op, decoded."""

    trace: TraceSet
    keyed_contexts: frozenset[str] = frozenset()
    request_id: str = ""
    #: Per-request deadline override; ``None`` uses the service default
    #: (``RunOptions.deadline_seconds``).
    deadline_seconds: float | None = None
    #: Registry-mode routing tag (``machine/corpus`` key or a unique
    #: machine preset name); empty routes to the default key.
    tag: str = ""

    @classmethod
    def from_payload(cls, payload: dict) -> "AdviseRequest":
        try:
            trace = TraceSet.from_payload(payload["trace"])
        except KeyError:
            raise ProtocolError("advise request has no 'trace'") from None
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad trace payload: {exc}") from None
        deadline = payload.get("deadline_seconds")
        if deadline is not None and not (
                isinstance(deadline, (int, float)) and deadline > 0):
            raise ProtocolError("deadline_seconds must be a positive "
                                "number")
        return cls(
            trace=trace,
            keyed_contexts=frozenset(payload.get("keyed_contexts", ())),
            request_id=str(payload.get("id", "")),
            deadline_seconds=deadline,
            tag=str(payload.get("tag", "")),
        )

    def to_payload(self) -> dict:
        payload: dict = {"op": OP_ADVISE, "trace": self.trace.to_payload()}
        if self.keyed_contexts:
            payload["keyed_contexts"] = sorted(self.keyed_contexts)
        if self.request_id:
            payload["id"] = self.request_id
        if self.deadline_seconds is not None:
            payload["deadline_seconds"] = self.deadline_seconds
        if self.tag:
            payload["tag"] = self.tag
        return payload


@dataclass(frozen=True)
class ServeResponse:
    """One structured answer, ready to encode."""

    status: str
    request_id: str = ""
    report: Report | None = None
    #: Summary degradation reason (``None`` when fully model-served).
    degraded: str | None = None
    error: str | None = None
    detail: dict | None = None

    def to_payload(self) -> dict:
        payload: dict = {"status": self.status}
        if self.request_id:
            payload["id"] = self.request_id
        if self.report is not None:
            payload["report"] = self.report.to_payload()
        if self.degraded is not None:
            payload["degraded"] = self.degraded
        if self.error is not None:
            payload["error"] = self.error
        if self.detail is not None:
            payload["detail"] = self.detail
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ServeResponse":
        report = payload.get("report")
        return cls(
            status=payload["status"],
            request_id=str(payload.get("id", "")),
            report=(Report.from_payload(report)
                    if report is not None else None),
            degraded=payload.get("degraded"),
            error=payload.get("error"),
            detail=payload.get("detail"),
        )


def summarize_degradation(report: Report) -> str | None:
    """The response-level ``degraded`` flag for a report: ``None`` when
    clean, the shared reason when one, ``"mixed"`` otherwise."""
    reasons = sorted(set(report.degraded_reasons.values()))
    if not reasons:
        return None
    if len(reasons) == 1:
        return reasons[0]
    return "mixed"


def response_for_report(report: Report, request_id: str = ""
                        ) -> ServeResponse:
    """Wrap an advisor report: ``ok`` or ``degraded`` with its reason."""
    degraded = summarize_degradation(report)
    return ServeResponse(
        status=STATUS_OK if degraded is None else STATUS_DEGRADED,
        request_id=request_id,
        report=report,
        degraded=degraded,
    )


def encode(payload: dict) -> bytes:
    """One wire line: compact JSON plus the newline terminator."""
    return (json.dumps(payload, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """Parse one request line; :class:`ProtocolError` on anything that
    is not a JSON object with a known ``op``."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    return payload
