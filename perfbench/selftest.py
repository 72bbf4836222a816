"""Reduced-size self-test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all), runs one-second end-to-end and traced
runs and checks that every metric named in BENCHMARK.json appears with
its unit, that the run's metadata is recorded and that ``ok_rate`` is 1.  Then checks that a perturbed golden
digest makes ``ok_rate`` drop on a worker journey and on serve-burst,
that ``REPRO_JOBS`` is refused, and that a copy holding only
BENCHMARK.json and this directory fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
META_KEYS = {"cpu_count", "platform", "python", "git_sha", "seed"}


def bench(workload: str, trace: int, *, golden: Path | None = None,
          env: dict | None = None, root: Path = ROOT
          ) -> tuple[int, dict | None, dict | None]:
    """Exit code, result line and metadata line of one run."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace)]
    if golden is not None:
        argv += ["--golden", str(golden)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          env={**os.environ, **(env or {})}, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
        meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else None
    except (json.JSONDecodeError, KeyError, TypeError):
        result = meta = None
    if result is not None and set(result) != RESULT_KEYS:
        result = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result, meta


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}", flush=True)


def check_metrics(workload: str, trace: int) -> dict:
    code, result, meta = bench(workload, trace)
    check(code == 0 and result is not None,
          f"{workload} trace={trace} exits 0 with a result line")
    check(meta is not None and META_KEYS <= set(meta),
          f"{workload} trace={trace} records {sorted(META_KEYS)}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    check({m["name"]: m["unit"] for m in declared}
          == {name: m["unit"] for name, m in metrics.items()},
          f"{workload} trace={trace} reports every metric with its unit")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload} trace={trace} outputs match the golden digests")
    if not trace:
        check(metrics["ok_rate"]["value"] == 1.0,
              f"{workload} ok_rate is 1")
    return result


def perturbed(golden: dict, prefix: str, scratch: Path) -> Path:
    """A golden file whose first ``prefix`` digest is wrong."""
    key = min(k for k in golden if k.startswith(prefix))
    copy = dict(golden)
    copy[key] = "sha256:" + "0" * 64
    path = scratch / f"golden-{prefix.replace('/', '_')}.json"
    path.write_text(json.dumps(copy))
    return path


def main(argv: list[str]) -> int:
    workloads = argv or [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        check_metrics(workload, 0)
        check_metrics(workload, 1)

    golden = json.loads((HERE / "golden.json").read_text())
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        scratch = Path(scratch)
        # Seed 0 folds onto variant 0.
        for workload, prefix in (("advise-apps", "advise-apps/0/"),
                                 ("serve-burst", "serve-burst/0/")):
            code, result, _ = bench(workload, 0,
                                    golden=perturbed(golden, prefix, scratch))
            check(code == 0 and result is not None
                  and not result["correct"] and result["failed"] >= 1
                  and result["metrics"]["ok_rate"]["value"] < 1.0,
                  f"a perturbed {workload} golden digest drops ok_rate")

        code, result, _ = bench("serve-burst", 0, env={"REPRO_JOBS": "2"})
        check(code != 0 and result is None, "REPRO_JOBS set is refused")

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result, _ = bench("advise-apps", 0, root=bare)
        check(code != 0 and result is None,
              "a copy without the program fails without a result")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
