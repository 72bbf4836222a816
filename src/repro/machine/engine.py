"""Simulator engine selection.

Two engines sit behind the same event API:

* ``scalar`` — :class:`~repro.machine.machine.Machine` walks the
  cache/TLB/predictor hierarchy inside every event call;
* ``vector`` — :class:`~repro.machine.vector.TraceRecorder` records
  events into a typed buffer and replays whole chunks through numpy
  decode plus one tight LRU loop, bit-identical counters.

The run picks the engine: instrumented runs read ``snapshot_tuple()``
after every container operation, which would flush the recorder's
buffer a handful of events at a time and erase the replay advantage —
so they get ``scalar``, and plain measurement runs (the Phase I hot
path) get ``vector``.  ``MachineConfig.sim_engine`` (default ``auto``)
is the one seam that forces an engine, so tests and golden recording
can run the scalar engine as the reference oracle.
"""

from __future__ import annotations

from repro.machine.configs import MachineConfig
from repro.machine.machine import Machine
from repro.machine.vector import TraceRecorder

#: Accepted values of ``MachineConfig.sim_engine``.
VALID_ENGINES = ("scalar", "vector", "auto")


def resolve_engine(config: MachineConfig, *,
                   instrumented: bool = False) -> str:
    """Resolve the concrete engine ("scalar" or "vector") for one run."""
    engine = config.sim_engine
    if engine not in VALID_ENGINES:
        raise ValueError(
            f"MachineConfig.sim_engine: unknown simulator engine "
            f"{engine!r} (valid: {', '.join(VALID_ENGINES)})")
    if engine == "auto":
        return "scalar" if instrumented else "vector"
    return engine


def make_machine(config: MachineConfig, *, instrumented: bool = False):
    """Build the simulator for one run under the resolved engine.

    Returns a :class:`Machine` or an API-compatible
    :class:`TraceRecorder`; callers treat the result uniformly (both
    expose ``engine`` as an attribute for telemetry).
    """
    if resolve_engine(config, instrumented=instrumented) == "vector":
        return TraceRecorder(config)
    return Machine(config)
