"""End-to-end benchmark of the four Brainy user journeys.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is here):

* ``train-tiny``   -- ``BrainySuite.train`` on list_oo + map, 12 seeds each;
* ``advise-apps``  -- ``BrainyAdvisor.advise_app`` on all 12 case-study inputs;
* ``darwin-xalan`` -- ``run_darwin`` on xalan's ``test`` input;
* ``serve-burst``  -- ``repro serve`` driven closed-loop by 2 persistent
  connections replaying 64 advise requests.

Each journey runs single-process (``jobs=1``) on ``core2`` in fresh
processes with their own ``REPRO_CACHE_DIR`` under ``.perfbench_work/``.
An operation is one training, one ``advise_app`` call, one search or
one request; each output is checked against ``perfbench/golden.json``
and a mismatch counts the operation as failed.

End-to-end metrics (``--trace 0``):

* ``setup_s``     -- median of seven cold starts, from process start until
  the journey can begin (imports, ``BrainySuite.load``, ``serving on``);
* ``peak_rss_mb`` -- peak RSS of the working process (the server for
  serve-burst);
* ``ok_rate``     -- operations with a golden output / operations attempted;
* ``wall_s``      -- mean wall time of one journey: a training, a pass
  over the 12 case studies, a search, one advise request (each input a
  run covers weighs the same, however many passes it got);
* ``req_per_s``   -- operations completed per second of timed work;
* ``p50_ms``      -- median wall time of one journey (client-observed
  latency for serve).

Every time is scaled by the :mod:`hostspeed` factor measured in the
working process (the worker, or the server through
``serve_launcher.py``) while it ran, so it reads as on a quiet host; the
unscaled value and the factor are in the metadata line.

With ``--trace 1`` the last stdout line carries the per-layer metrics of
a traced run, whose spans come only from wrappers in this directory; the
same work also runs untraced to give ``trace.overhead_pct``.  The line
before the result records the host, Python, git revision and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
LAUNCHER = HERE / "serve_launcher.py"

WORKLOADS = ("train-tiny", "advise-apps", "darwin-xalan", "serve-burst")
#: Cold starts before and after the measured process, which is one
#: more; ``setup_s`` is their median.  Spreading them over the run
#: keeps one slow moment of a shared host from setting it.
SETUP_PROBES = (3, 3)
SERVE_CLIENTS = 2
SERVE_WARMUP_S = 1.0
#: A child that outlives its share of the run is killed.
CHILD_TIMEOUT_S = 150.0
READY_TIMEOUT_S = 60.0
#: Environment variables that silently change the program measured.
REFUSED_ENV = ("REPRO_SIM_ENGINE", "REPRO_JOBS")

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio",
    "wall_s": "s", "req_per_s": "1/s", "p50_ms": "ms",
}
PER_LAYER_UNITS = {
    "machine.replay_s": "s", "machine.replay_calls": "count",
    "machine.events": "count", "machine.ns_per_event": "ns",
    "containers.record_s": "s", "apps.record_s": "s",
    "appgen.generate_s": "s", "appgen.generate_calls": "count",
    "training.phase1_s": "s", "training.phase2_s": "s",
    "training.seeds_tried": "count", "training.seeds_won": "count",
    "training.win_ratio": "ratio", "training.seeds_quarantined": "count",
    "instrumentation.profile_s": "s",
    "instrumentation.profile_calls": "count",
    "ml.fit_s": "s", "models.load_s": "s",
    "darwin.evaluations": "count", "darwin.distinct_ratio": "ratio",
    "darwin.eval_s": "s", "darwin.search_s": "s",
    "serve.decode_ms": "ms", "serve.handle_ms": "ms",
    "serve.advise_ms": "ms", "serve.encode_ms": "ms",
    "serve.wire_ms": "ms", "serve.p99_ms": "ms", "serve.requests": "count",
    "serve.errors": "count", "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["PYTHONHASHSEED"] = "0"
    # Single-threaded numerics: on a small shared host, BLAS threads
    # would measure the scheduler rather than the program.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


class Child:
    """A child process timed from spawn to its ready line and reaped
    with ``wait4`` so its own peak RSS is known."""

    def __init__(self, argv: list[str], work: Path, ready: str) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(work), stdout=subprocess.PIPE,
            text=True)
        self.line = ""
        # A child that never gets ready is killed, which ends the loop.
        watchdog = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if line.startswith(ready):
                    self.line = line.strip()
                    break
            else:
                self.wait()
                raise BenchError(f"{argv[1]} exited before {ready!r}")
        finally:
            watchdog.cancel()
        self.ready_at = time.perf_counter()
        self.setup_s = self.ready_at - self.started
        self.maxrss_kb = 0

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> None:
        """Reap the child (killing it after ``timeout``); non-zero exit
        is an error."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.maxrss_kb = usage.ru_maxrss
        if self.proc.returncode != 0:
            raise BenchError(f"child exited with {self.proc.returncode}")

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        self.wait(timeout=30.0)

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            try:
                self.wait(timeout=10.0)
            except BenchError:
                pass


# ---------------------------------------------------------------------------
# Journeys run by worker.py.
# ---------------------------------------------------------------------------

def worker_argv(*args) -> list[str]:
    return [sys.executable, str(WORKER), *map(str, args)]


def check_ops(ops: list, golden: dict) -> tuple[int, int]:
    failed = sum(1 for key, digest in ops if golden.get(key) != digest)
    return len(ops), failed


def worker_setup_s(child: Child) -> float:
    """Set-up time scaled by the factor on the worker's ready line."""
    return child.setup_s * float(child.line.split()[1])


def run_worker_workload(args, work: Path, golden: dict) -> tuple:
    def probe(n: int) -> float:
        child = Child(worker_argv("probe", args.workload, work),
                      work / f"probe{n}", "ready")
        child.wait()
        return worker_setup_s(child)

    before, after = (0, 0) if args.trace else SETUP_PROBES
    samples = [probe(n) for n in range(before)]
    out = work / "result.json"
    child = Child(worker_argv("run", args.workload, work, args.seed,
                              args.seconds, int(args.trace), out),
                  work / "run", "ready")
    samples.append(worker_setup_s(child))
    try:
        child.wait()
    finally:
        child.kill()
    samples += [probe(before + n) for n in range(after)]
    result = json.loads(out.read_text())
    passes = result["passes"] + result["traced"]
    ops = [op for record in passes for op in record["ops"]]
    attempted, failed = check_ops(ops, golden)
    if args.trace:
        # No journey run by the worker crosses the serving layers.
        metrics = {name: 0 for name in PER_LAYER_UNITS
                   if name.startswith("serve.")}
        metrics.update(layer_means([p["layers"]
                                    for p in result["traced"]]))
        metrics["models.load_s"] = result["load_s"]
        untraced = statistics.fmean(scaled_walls(result["passes"]))
        traced = statistics.fmean(scaled_walls(result["traced"]))
        metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100
        return attempted, failed, metrics, {}
    walls = scaled_walls(result["passes"])
    by_input: dict[int, list[float]] = {}
    for record, wall in zip(result["passes"], walls):
        by_input.setdefault(record["input"], []).append(wall)
    metrics = {
        "setup_s": statistics.median(samples),
        "peak_rss_mb": child.maxrss_kb / 1024,
        "ok_rate": (attempted - failed) / attempted,
        "wall_s": statistics.fmean(statistics.fmean(w)
                                   for w in by_input.values()),
        "req_per_s": sum(len(p["ops"]) for p in result["passes"])
                     / sum(walls),
        "p50_ms": statistics.median(walls) * 1e3,
    }
    return attempted, failed, metrics, {
        "passes": len(walls),
        "unscaled_wall_s": statistics.fmean(p["wall"]
                                            for p in result["passes"]),
        "host_factor": statistics.median(p["factor"]
                                         for p in result["passes"])}


def scaled_walls(passes: list[dict]) -> list[float]:
    return [p["wall"] * p["factor"] for p in passes]


def layer_means(layers: list[dict]) -> dict:
    return {name: statistics.fmean(layer[name] for layer in layers)
            for name in layers[0]}


# ---------------------------------------------------------------------------
# serve-burst: the real server, a closed-loop client in this process.
# ---------------------------------------------------------------------------

class Templates:
    """Request and expected-reply bytes around the request id."""

    def __init__(self, path: Path, golden: dict) -> None:
        data = json.loads(path.read_text())
        self.variant = data["variant"]
        rid = data["rid"].encode()
        self.requests = [line.encode().split(rid)
                         for line in data["requests"]]
        self.replies = [line.encode().split(rid)
                        for line in data["replies"]]
        self.golden_ok = [
            golden.get(f"serve-burst/{self.variant}/{j}")
            == "sha256:" + hashlib.sha256(line.encode()).hexdigest()
            for j, line in enumerate(data["replies"])
        ]


class LoadResult:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.ids: list[str] = []
        self.attempted = 0
        self.failed = 0
        #: ``perf_counter`` bounds of the timed window.
        self.start = self.end = 0.0
        #: :mod:`hostspeed` factor of the server during the window.
        self.factor = 1.0

    @property
    def window_s(self) -> float:
        return self.end - self.start

    def scaled(self) -> list[float]:
        return [latency * self.factor for latency in self.latencies]


def drive(port: int, templates: Templates, seconds: float) -> LoadResult:
    """Closed loop: each client sends its next request only after the
    previous reply arrived.  Replies are only byte-compared here."""
    result = LoadResult()
    lock = threading.Lock()
    start = time.perf_counter()
    warm_end = start + SERVE_WARMUP_S
    end = warm_end + seconds
    errors: list[BaseException] = []

    def client(c: int) -> None:
        latencies, ids = [], []
        attempted = failed = 0
        clock = time.perf_counter
        n_traces = len(templates.requests)
        try:
            with socket.create_connection(("127.0.0.1", port)) as conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                reader = conn.makefile("rb")
                n = 0
                while True:
                    j = (c + SERVE_CLIENTS * n) % n_traces
                    rid = f"c{c}n{n}".encode()
                    pre, post = templates.requests[j]
                    epre, epost = templates.replies[j]
                    sent = clock()
                    conn.sendall(pre + rid + post)
                    reply = reader.readline()
                    done = clock()
                    attempted += 1
                    if reply != epre + rid + epost \
                            or not templates.golden_ok[j]:
                        failed += 1
                    if sent >= warm_end:
                        latencies.append(done - sent)
                        ids.append(rid.decode())
                    n += 1
                    if done >= end:
                        break
        except BaseException as exc:  # reported by the parent thread
            errors.append(exc)
        with lock:
            result.latencies += latencies
            result.ids += ids
            result.attempted += attempted
            result.failed += failed

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 60)
    if errors or any(t.is_alive() for t in threads):
        raise BenchError(f"load generator failed: {errors!r}")
    result.start, result.end = warm_end, time.perf_counter()
    return result


def serve_child(suite_dir: Path, work: Path, trace: bool) -> Child:
    """``repro serve`` started through the launcher, which writes its
    kernel times (and spans) to ``work / "server.json"``."""
    return Child([sys.executable, str(LAUNCHER), str(work / "server.json"),
                  str(int(trace)), "serve", "--suite-dir", str(suite_dir),
                  "--port", "0"], work, "serving on ")


def server_factor(work: Path, start: float, end: float) -> float:
    """The exited server's :mod:`hostspeed` factor between ``start``
    and ``end``."""
    data = json.loads((work / "server.json").read_text())
    return hostspeed.scale([kernel_s for at, kernel_s in data["speed"]
                            if start <= at <= end])


def serve_window(suite_dir: Path, work: Path, templates: Templates,
                 seconds: float, trace: bool = False
                 ) -> tuple[float, Child, LoadResult]:
    """Drive a fresh server for ``seconds``; returns its scaled set-up
    time, the server and the load."""
    server = serve_child(suite_dir, work, trace)
    try:
        port = int(server.line.rpartition(":")[2])
        load = drive(port, templates, seconds)
        server.stop()
    finally:
        server.kill()
    load.factor = server_factor(work, load.start, load.end)
    setup_s = server.setup_s * server_factor(work, server.started,
                                             server.ready_at)
    return setup_s, server, load


def run_serve_workload(args, work: Path, golden: dict) -> tuple:
    templates = Templates(work / "serve.json", golden)
    suite_dir = work / "suite"
    if args.trace:
        half = args.seconds / 2
        _, _, plain = serve_window(suite_dir, work / "plain", templates,
                                   half)
        _, _, traced = serve_window(suite_dir, work / "traced", templates,
                                    half, trace=True)
        spans = json.loads((work / "traced" / "server.json").read_text()
                           )["spans"]
        # Serving never trains, searches or simulates a machine.
        metrics = {name: 0 for name in PER_LAYER_UNITS
                   if not name.startswith(("serve.", "models.", "trace."))}
        metrics.update(serve_layers(spans, traced))
        # The tail repeats too poorly on a shared host to bound, so it
        # comes from the untraced half of this run.
        metrics["serve.p99_ms"] = percentile(plain.latencies, 99) * 1e3
        metrics["trace.overhead_pct"] = (
            statistics.fmean(traced.scaled())
            / statistics.fmean(plain.scaled()) - 1) * 100
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        return attempted, failed, metrics, {}
    def probe(n: int) -> float:
        child = serve_child(suite_dir, work / f"probe{n}", False)
        child.stop()
        return child.setup_s * server_factor(work / f"probe{n}",
                                             child.started, child.ready_at)

    before, after = SETUP_PROBES
    samples = [probe(n) for n in range(before)]
    setup_s, server, load = serve_window(suite_dir, work / "run", templates,
                                         args.seconds)
    samples.append(setup_s)
    samples += [probe(before + n) for n in range(after)]
    # A serve caller's journey is one advise request.
    latencies = load.scaled()
    metrics = {
        "setup_s": statistics.median(samples),
        "peak_rss_mb": server.maxrss_kb / 1024,
        "ok_rate": (load.attempted - load.failed) / load.attempted,
        "wall_s": statistics.fmean(latencies),
        "req_per_s": len(latencies) / (load.window_s * load.factor),
        "p50_ms": statistics.median(latencies) * 1e3,
    }
    return load.attempted, load.failed, metrics, {
        "latency_samples": len(latencies),
        "p99_ms": percentile(latencies, 99) * 1e3,
        "unscaled_p50_ms": statistics.median(load.latencies) * 1e3,
        "host_factor": load.factor,
        "clients": SERVE_CLIENTS}


def serve_layers(spans: list, load: LoadResult) -> dict:
    """p50 per-request time in each serving layer, plus the wire: the
    client's latency minus decode, handle and encode of that request."""
    per_request: dict[str, dict[str, float]] = {}
    advise, load_s, errors, requests = [], 0.0, 0, 0
    for name, start, end, _, run_id in spans:
        if name == "serve.advise":
            advise.append(end - start)
        elif name == "models.load":
            load_s += end - start
        else:
            if name == "serve.handle":
                requests += 1
                errors += run_id == "error"
            per_request.setdefault(run_id, {})[name] = end - start
    wire = []
    for rid, latency in zip(load.ids, load.latencies):
        parts = per_request.get(rid, {})
        if len(parts) == 3:
            wire.append(latency - sum(parts.values()))

    def p50_ms(name: str) -> float:
        values = [p[name] for p in per_request.values() if name in p]
        return percentile(values, 50) * 1e3

    return {
        "serve.decode_ms": p50_ms("serve.decode"),
        "serve.handle_ms": p50_ms("serve.handle"),
        "serve.advise_ms": percentile(advise, 50) * 1e3,
        "serve.encode_ms": p50_ms("serve.encode"),
        "serve.wire_ms": percentile(wire, 50) * 1e3,
        "serve.requests": requests,
        "serve.errors": errors,
        "models.load_s": load_s,
    }


# ---------------------------------------------------------------------------

def git_revision() -> str | None:
    """HEAD of the checkout, or ``None`` outside a git work tree (git
    does not look above the checkout for one)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", type=Path,
                        default=HERE / "golden.json",
                        help="reference digests (the self-test swaps in "
                             "a perturbed copy)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: it "
              "changes the program being measured", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads(args.golden.read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepare = Child(worker_argv("prepare", args.workload, args.seed,
                                    work),
                        work / "prepare", "prepared")
        prepare.wait()
        runner = (run_serve_workload if args.workload == "serve-burst"
                  else run_worker_workload)
        attempted, failed, metrics, detail = runner(args, work, golden)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "git_sha": git_revision(),
        **detail,
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
