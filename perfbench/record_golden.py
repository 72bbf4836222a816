"""Record the reference digests every benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/record_golden.py [WORKLOAD ...]

Writes (or updates) ``perfbench/golden.json`` with, for every variant
the benchmark can reach:

* ``train-tiny/K``: Phase I artifact checksums and trained weights,
  trained once with the default engine and once with the scalar
  ``Machine``; the two must agree or nothing is written;
* ``advise-apps/V/APP/INPUT``: each report payload;
* ``darwin-xalan/K``: the full search result payload;
* ``serve-burst/V/J``: each expected reply line.

Rerun it only when a change is meant to alter these outputs.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import journeys
from repro.core.advisor import BrainyAdvisor
from repro.machine.configs import CORE2
from repro.models.brainy import BrainySuite
from repro.serve.testing import save_tiny_suite

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def ops(journey, variant: int, index: int = 0) -> dict:
    return {key: digest() for key, digest in journey.run(variant, index)}


def record(workload: str, scratch: Path) -> dict:
    out: dict = {}
    if workload == "train-tiny":
        vector = journeys.TrainJourney(scratch)
        scalar = journeys.TrainJourney(
            scratch, dataclasses.replace(CORE2, sim_engine="scalar"))
        for index in range(journeys.INPUT_CYCLE):
            digests = ops(vector, 0, index)
            if digests != ops(scalar, 0, index):
                raise SystemExit(f"train-tiny input {index}: vector and "
                                 "scalar engines disagree")
            out.update(digests)
            print(f"train-tiny input {index} recorded", flush=True)
        return out
    if workload == "darwin-xalan":
        advisors = [BrainyAdvisor(BrainySuite.load(
            save_tiny_suite(scratch / f"suite{key}", seed=key)))
            for key in range(journeys.INPUT_CYCLE)]
        darwin = journeys.DarwinJourney(advisors)
        for index in range(journeys.INPUT_CYCLE):
            out.update(ops(darwin, 0, index))
        print("darwin-xalan recorded", flush=True)
        return out
    for variant in range(journeys.VARIANTS):
        suite_dir = save_tiny_suite(scratch / f"suite{variant}", seed=variant)
        advisor = BrainyAdvisor(BrainySuite.load(suite_dir))
        if workload == "advise-apps":
            out.update(ops(journeys.AdviseJourney(advisor), variant))
        else:
            _, replies = journeys.serve_templates(variant, advisor)
            out.update({f"serve-burst/{variant}/{j}": journeys.sha256(line)
                        for j, line in enumerate(replies)})
        print(f"{workload} variant {variant} recorded", flush=True)
    return out


def main(argv: list[str]) -> int:
    workloads = argv or ["serve-burst", "advise-apps", "darwin-xalan",
                         "train-tiny"]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    work = GOLDEN.parents[1] / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        for workload in workloads:
            recorded = record(workload, Path(scratch))
            # Re-read so concurrent recorders of other workloads merge.
            if GOLDEN.exists():
                golden = json.loads(GOLDEN.read_text())
            golden = {k: v for k, v in golden.items()
                      if not k.startswith(workload + "/")}
            golden.update(recorded)
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
