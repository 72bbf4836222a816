"""The process that runs one journey for ``run.py``.

    worker.py prepare WORKLOAD SEED DIR   save suites and serve templates
    worker.py probe WORKLOAD DIR          set up, print ``ready``, exit
    worker.py run WORKLOAD DIR SEED SECONDS TRACE OUT

Set-up (imports plus ``BrainySuite.load``) ends when ``ready FACTOR``
is printed; ``run.py`` times process start to that line and scales it
by FACTOR, the :mod:`hostspeed` factor since the process started.
``run`` then does journey passes until another pass would overrun
SECONDS, and at least one cycle of ``journeys.INPUT_CYCLE`` inputs so
every run does the same work.  With TRACE=1 each pass runs twice,
untraced then traced, so the tracing overhead is measured on identical
work, and one such pair is enough.  Each pass also records the
:mod:`hostspeed` factor measured while it ran.  Results go to OUT as
JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

if __name__ == "__main__":
    # Pinned, because the journey is single-threaded and the host-speed
    # thread should time the CPU it runs on; started before the imports
    # below, so that set-up is timed too.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    SPEED = HostSpeed().start()

import journeys  # noqa: E402
from repro.core.advisor import BrainyAdvisor  # noqa: E402
from repro.models.brainy import BrainySuite  # noqa: E402
from repro.serve.testing import save_tiny_suite  # noqa: E402
from tracing import Tracer  # noqa: E402


def prepare(workload: str, seed: int, directory: Path) -> None:
    """Save the suites the journey loads: ``suite`` for variant ``v``,
    or ``suiteK`` for each input ``K`` of darwin-xalan's cycle."""
    variant = seed % journeys.VARIANTS
    if workload == "darwin-xalan":
        for key in range(journeys.INPUT_CYCLE):
            save_tiny_suite(directory / f"suite{key}", seed=key)
    elif workload != "train-tiny":
        suite_dir = save_tiny_suite(directory / "suite", seed=variant)
    if workload == "serve-burst":
        advisor = BrainyAdvisor(BrainySuite.load(suite_dir))
        requests, replies = journeys.serve_templates(variant, advisor)
        (directory / "serve.json").write_text(json.dumps({
            "variant": variant, "rid": journeys.RID,
            "requests": [line.decode() for line in requests],
            "replies": [line.decode() for line in replies],
        }))
    print("prepared", flush=True)


def make_journey(workload: str, directory: Path):
    if workload == "train-tiny":
        scratch = directory / "phase1"
        scratch.mkdir(exist_ok=True)
        return journeys.TrainJourney(scratch)
    if workload == "darwin-xalan":
        return journeys.DarwinJourney([
            BrainyAdvisor(BrainySuite.load(directory / f"suite{key}"))
            for key in range(journeys.INPUT_CYCLE)])
    return journeys.AdviseJourney(
        BrainyAdvisor(BrainySuite.load(directory / "suite")))


def timed_pass(journey, variant: int, index: int, speed: HostSpeed
               ) -> dict:
    mark = speed.mark()
    start = time.perf_counter()
    ops = journey.run(variant, index)
    wall = time.perf_counter() - start
    return {"input": journeys.pass_input(variant, index), "wall": wall,
            "factor": speed.factor(mark),
            "ops": [(key, digest()) for key, digest in ops]}


def run(workload: str, directory: Path, seed: int, seconds: float,
        trace: bool, out: Path, speed: HostSpeed) -> None:
    variant = seed % journeys.VARIANTS
    tracer = Tracer() if trace else None
    if tracer is not None:
        journeys.install_load_span(tracer)
    journey = make_journey(workload, directory)
    print(f"ready {speed.factor(0)}", flush=True)
    load_s = 0.0
    if tracer is not None:
        load_s = sum(end - start for _, start, end, _, _ in tracer.spans)
        tracer.restore()

    passes, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        passes.append(timed_pass(journey, variant, index, speed))
        if tracer is not None:
            tracer.clear()
            journeys.install_layer_spans(tracer)
            try:
                record = timed_pass(journey, variant, index, speed)
            finally:
                tracer.restore()
            record["layers"] = journeys.layer_metrics(tracer.spans)
            traced.append(record)
        index += 1
        elapsed = time.perf_counter() - start
        # A traced run needs one untraced/traced pair; its per-layer
        # numbers are not compared between runs.
        enough = tracer is not None or index >= journeys.INPUT_CYCLE
        if enough and elapsed + elapsed / index > seconds:
            break
    out.write_text(json.dumps({"passes": passes, "traced": traced,
                               "load_s": load_s}))


def main(argv: list[str], speed: HostSpeed) -> int:
    mode = argv[0]
    if mode == "prepare":
        prepare(argv[1], int(argv[2]), Path(argv[3]))
    elif mode == "probe":
        make_journey(argv[1], Path(argv[2]))
        print(f"ready {speed.factor(0)}", flush=True)
    else:
        workload, directory, seed, seconds, trace, out = argv[1:7]
        run(workload, Path(directory), int(seed), float(seconds),
            trace == "1", Path(out), speed)
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:], SPEED)
    finally:
        SPEED.stop()
    raise SystemExit(code)
