"""ML-layer benchmark harness.

Measures the three performance features of the parallel ML layer:

* **GA fitness fan-out** — wall-clock for an identical
  ``GeneticFeatureSelector.run`` at ``--jobs 1/2/4``, with the winning
  weights/fitness/history compared bytewise to prove every jobs value
  evolves the exact same population (all RNG draws stay in the parent;
  only fitness calls fan out).  Speedups scale with physical cores; the
  host's ``cpu_count`` is recorded so single-core CI numbers are
  interpretable.
* **Batched advisor inference** — one vectorized per-group forward pass
  versus the record-at-a-time reference over a synthetic trace, with the
  two Reports compared for equality.
* **Fused ANN fit** — the in-place/buffered ``NeuralNetwork.fit``
  against the legacy allocate-per-batch implementation (embedded below
  as the baseline), trained weights compared bit-for-bit.

Writes ``BENCH_ml.json`` at the repo root (see ``--out``)::

    PYTHONPATH=src python benchmarks/bench_ml.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.containers.registry import DSKind, MODEL_GROUPS
from repro.core.advisor import BrainyAdvisor
from repro.core.testing import advise_sequential
from repro.instrumentation.features import FEATURE_NAMES, num_features
from repro.instrumentation.trace import TraceRecord, TraceSet
from repro.ml.ann import NeuralNetwork, _one_hot
from repro.ml.genetic import GeneticFeatureSelector
from repro.models.brainy import BrainyModel, BrainySuite
from repro.training.dataset import TrainingSet

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Legacy baseline: the pre-optimisation allocate-per-batch ANN fit.
# ---------------------------------------------------------------------------

class LegacyNeuralNetwork(NeuralNetwork):
    """The network as it was before the fused-buffer fit rewrite.

    Every batch allocates fresh weight-shaped gradient arrays and the
    momentum update rebinds new velocity arrays.  Kept verbatim as the
    benchmark baseline.
    """

    def _gradients(self, X, Y):
        activations = self._forward(X)
        probs = activations[-1]
        n = len(X)
        loss = -np.sum(Y * np.log(probs + 1e-12)) / n
        loss += 0.5 * self.l2 * sum(np.sum(W * W) for W in self.weights)

        grad_w = [np.zeros_like(W) for W in self.weights]
        grad_b = [np.zeros_like(b) for b in self.biases]
        delta = (probs - Y) / n
        for i in range(len(self.weights) - 1, -1, -1):
            grad_w[i] = activations[i].T @ delta + self.l2 * self.weights[i]
            grad_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) \
                    * (1 - activations[i] ** 2)
        return grad_w, grad_b, loss

    def fit(self, X, y, validation=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        Y = _one_hot(y, self.n_classes)
        rng = np.random.default_rng(self.seed + 1)
        velocity_w = [np.zeros_like(W) for W in self.weights]
        velocity_b = [np.zeros_like(b) for b in self.biases]

        best_score = -np.inf
        best_params = None
        stale = 0
        self.loss_history_ = []

        for _ in range(self.epochs):
            order = rng.permutation(len(X))
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(X), self.batch_size):
                idx = order[start:start + self.batch_size]
                grad_w, grad_b, loss = self._gradients(X[idx], Y[idx])
                epoch_loss += loss
                batches += 1
                for i in range(len(self.weights)):
                    velocity_w[i] = (self.momentum * velocity_w[i]
                                     - self.learning_rate * grad_w[i])
                    velocity_b[i] = (self.momentum * velocity_b[i]
                                     - self.learning_rate * grad_b[i])
                    self.weights[i] += velocity_w[i]
                    self.biases[i] += velocity_b[i]
            self.loss_history_.append(epoch_loss / max(1, batches))

            if validation is not None and self.patience is not None:
                val_x, val_y = validation
                score = float(np.mean(self.predict(val_x) == val_y))
                if score > best_score + 1e-9:
                    best_score = score
                    best_params = (
                        [W.copy() for W in self.weights],
                        [b.copy() for b in self.biases],
                    )
                    stale = 0
                else:
                    stale += 1
                    if stale >= self.patience:
                        break
        if best_params is not None:
            self.weights, self.biases = best_params
        return self


# ---------------------------------------------------------------------------
# GA fitness fan-out.
# ---------------------------------------------------------------------------

# Module-level so a worker pool can pickle it by reference.  The inner
# loop stands in for the real fitness (train a model, measure holdout
# accuracy): expensive relative to the GA's own bookkeeping.
def _ga_fitness(weights):
    acc = 0.0
    for i in range(250):
        acc += float(np.tanh(weights * (i + 1)).sum())
    return acc + 2.0 * weights[0] + weights[1] - 0.1 * weights[2:].sum()


def _ga_key(result):
    return (result.weights.tobytes(), result.fitness,
            tuple(result.history))


def bench_ga(quick: bool, jobs_list: list[int]) -> dict:
    generations = 6 if quick else 20
    population = 12 if quick else 24

    def make_selector():
        return GeneticFeatureSelector(
            n_features=num_features(),
            feature_names=FEATURE_NAMES,
            population=population,
            generations=generations,
            seed=0,
        )

    # Warm code/import caches so jobs=1 is not charged for them.
    make_selector().run(_ga_fitness)
    timings = []
    keys = set()
    for jobs in jobs_list:
        start = time.perf_counter()
        result = make_selector().run(_ga_fitness, jobs=jobs)
        elapsed = time.perf_counter() - start
        keys.add(_ga_key(result))
        timings.append({"jobs": jobs, "seconds": round(elapsed, 3)})
        print(f"  ga jobs={jobs}: {elapsed:6.2f}s "
              f"(fitness {result.fitness:.3f})")
    if len(keys) != 1:
        raise AssertionError("jobs values produced different GA results")
    base = timings[0]["seconds"]
    for row in timings:
        row["speedup_vs_jobs1"] = round(base / row["seconds"], 3) \
            if row["seconds"] else None
    return {
        "population": population,
        "generations": generations,
        "results_identical": True,
        "timings": timings,
    }


# ---------------------------------------------------------------------------
# Batched advisor inference.
# ---------------------------------------------------------------------------

def _synthetic_suite(seed: int = 0) -> BrainySuite:
    rng = np.random.default_rng(seed)
    suite = BrainySuite(machine_name="core2")
    for group_name, group in MODEL_GROUPS.items():
        ts = TrainingSet(group_name=group_name, machine_name="core2",
                         classes=group.classes)
        for i in range(80):
            x = rng.normal(size=num_features())
            label = int(np.argmax(x[:len(group.classes)]))
            ts.add(x, group.classes[label], seed=i)
        suite.models[group_name] = BrainyModel.train(ts, epochs=15,
                                                     seed=seed)
    return suite


def _synthetic_trace(n: int) -> TraceSet:
    kinds = [DSKind.VECTOR, DSKind.LIST, DSKind.SET, DSKind.MAP]
    rng = np.random.default_rng(11)
    records = []
    for s in range(n):
        records.append(TraceRecord(
            context=f"bench:site{s}",
            kind=kinds[s % len(kinds)],
            order_oblivious=bool((s // len(kinds)) % 2),
            features=rng.normal(size=num_features()),
            cycles=10 * (s + 1),
            total_calls=10,
            keyed=(s % 5 == 0),
        ))
    trace = TraceSet(program_cycles=100 * n, records=records)
    trace.sort()
    return trace


def bench_advisor(quick: bool) -> dict:
    n = 200 if quick else 800
    repeats = 3 if quick else 5
    advisor = BrainyAdvisor(_synthetic_suite())
    trace = _synthetic_trace(n)

    sequential = advise_sequential(advisor, trace)
    batched = advisor.advise_trace(trace)
    if (batched.suggestions != sequential.suggestions
            or batched.degraded_groups != sequential.degraded_groups):
        raise AssertionError("batched report differs from per-record")

    per_record_s = min(
        _timed(lambda: advise_sequential(advisor, trace))
        for _ in range(repeats)
    )
    batched_s = min(
        _timed(lambda: advisor.advise_trace(trace))
        for _ in range(repeats)
    )
    row = {
        "records": n,
        "per_record_ms": round(per_record_s * 1e3, 2),
        "batched_ms": round(batched_s * 1e3, 2),
        "speedup": round(per_record_s / batched_s, 3),
        "reports_identical": True,
    }
    print(f"  advisor {n} records: per-record {row['per_record_ms']:.2f}ms"
          f"  batched {row['batched_ms']:.2f}ms"
          f"  speedup {row['speedup']:.2f}x")
    return row


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Fused ANN fit.
# ---------------------------------------------------------------------------

def bench_ann_fit(quick: bool) -> dict:
    n = 400 if quick else 1500
    epochs = 30 if quick else 80
    repeats = 2 if quick else 3
    rng = np.random.default_rng(5)
    X = rng.normal(size=(n, num_features()))
    y = np.argmax(X[:, :5], axis=1)
    layers = [num_features(), 24, 5]

    def train(cls):
        net = cls(layers, epochs=epochs, patience=None, seed=0)
        elapsed = _timed(lambda: net.fit(X, y))
        return net, elapsed

    legacy_net, _ = train(LegacyNeuralNetwork)
    fused_net, _ = train(NeuralNetwork)
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(legacy_net.weights + legacy_net.biases,
                        fused_net.weights + fused_net.biases)
    )
    if not identical:
        raise AssertionError("fused fit weights differ from legacy fit")

    legacy_s = min(train(LegacyNeuralNetwork)[1] for _ in range(repeats))
    fused_s = min(train(NeuralNetwork)[1] for _ in range(repeats))
    row = {
        "samples": n,
        "epochs": epochs,
        "layer_sizes": layers,
        "legacy_seconds": round(legacy_s, 3),
        "fused_seconds": round(fused_s, 3),
        "speedup": round(legacy_s / fused_s, 3),
        "weights_identical": True,
    }
    print(f"  ann fit {n}x{epochs}: legacy {legacy_s:6.2f}s"
          f"  fused {fused_s:6.2f}s  speedup {row['speedup']:.2f}x")
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small budgets for CI smoke runs")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_ml.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--jobs-list", default="1,2,4",
                        help="comma-separated jobs values to time")
    args = parser.parse_args(argv)
    jobs_list = [int(j) for j in args.jobs_list.split(",") if j]

    print("ga fitness fan-out:")
    ga = bench_ga(args.quick, jobs_list)
    print("batched advisor inference:")
    advisor = bench_advisor(args.quick)
    print("fused ann fit:")
    ann_fit = bench_ann_fit(args.quick)

    payload = {
        "benchmark": "ml-layer",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "ga_fanout": ga,
        "batched_advisor": advisor,
        "ann_fit": ann_fit,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
