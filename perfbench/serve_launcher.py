"""``repro serve`` timed by a :mod:`hostspeed` thread, optionally with
spans around each serving layer.

    serve_launcher.py OUT TRACE serve --suite-dir DIR --port 0

Starts a :class:`hostspeed.HostSpeed` thread at process start, and with
TRACE=1 wraps wire decode/encode, ``AdvisorService.handle_payload``,
``BrainyAdvisor.advise_traces`` and ``BrainySuite.load``; then runs
``repro.cli.main`` with the remaining arguments.  Kernel times and spans
stay in memory and are written to OUT as JSON when the server exits.
"""

from __future__ import annotations

import json
import sys

from hostspeed import HostSpeed

if __name__ == "__main__":
    # Started before the imports below, so that set-up is timed too.
    SPEED = HostSpeed().start()

import repro.cli  # noqa: E402
import repro.serve.server as server  # noqa: E402
from repro.core.advisor import BrainyAdvisor  # noqa: E402
from repro.models.brainy import BrainySuite  # noqa: E402
from repro.serve.loop import AdvisorService  # noqa: E402
from tracing import Tracer  # noqa: E402


def request_id(payload) -> str | None:
    return payload.get("id") if isinstance(payload, dict) else None


def install_spans(tracer: Tracer) -> None:
    tracer.patch(server, "decode_line", "serve.decode",
                 after=lambda args, kwargs, result: request_id(result))
    tracer.patch(server, "encode", "serve.encode",
                 before=lambda args, kwargs: request_id(args[0]))
    tracer.patch(AdvisorService, "handle_payload", "serve.handle",
                 before=lambda args, kwargs: request_id(args[1]),
                 after=lambda args, kwargs, result: (
                     None if result.get("status") == "ok" else "error"))
    tracer.patch(BrainyAdvisor, "advise_traces", "serve.advise")
    tracer.patch(BrainySuite, "load", "models.load")


def main(argv: list[str], speed: HostSpeed) -> int:
    out, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    tracer = Tracer()
    if trace:
        install_spans(tracer)
    try:
        return repro.cli.main(cli_args)
    finally:
        speed.stop()
        tracer.restore()
        with open(out, "w") as handle:
            json.dump({"speed": speed.samples, "spans": tracer.spans},
                      handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:], SPEED))
