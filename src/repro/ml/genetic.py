"""Genetic-algorithm feature selection with real-valued weights (§5.1).

Following Siedlecki & Sklansky's GA feature selection, but — as the paper
does, citing Hussein and Jarmulak & Craw — with *real-valued* chromosome
weights rather than binary presence bits, so the result ranks features by
impact.  Fitness of a chromosome is the validation accuracy of a model
trained on the weighted feature matrix; tournament selection, uniform
crossover and Gaussian mutation evolve the population, mutation keeping
the search out of local optima.

:class:`GeneticFeatureSelector` is a thin adapter over the generic
:class:`repro.ml.search.GeneticSearch` core: it fixes the genome to one
unit-interval weight per feature and defaults the strategy objects
(:mod:`repro.ml.strategies`) to the paper's configuration.  The adapted
loop is byte-identical to the historical hard-wired implementation —
same RNG draw order, same chromosomes, same history — a property the
test suite pins against a frozen copy of the pre-refactor code.

Strategies are swappable: pass ``ancestry=`` / ``crossover=`` /
``mutation=`` objects (e.g. ``TournamentAncestry(size)``,
``UniformCrossover(rate)``, ``GaussianMutation(rate, sigma)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.search import GeneticSearch
from repro.ml.strategies import (
    Ancestry,
    Crossover,
    GaussianMutation,
    Mutation,
    TournamentAncestry,
    UniformCrossover,
    UnitUniformInit,
)

from typing import Callable

FitnessFn = Callable[[np.ndarray], float]


@dataclass
class GAResult:
    """Outcome of a GA feature-selection run."""

    weights: np.ndarray
    fitness: float
    history: list[float]
    feature_names: tuple[str, ...]

    def ranked_features(self) -> list[tuple[str, float]]:
        """Features sorted by decreasing weight."""
        order = np.argsort(-self.weights)
        return [(self.feature_names[i], float(self.weights[i]))
                for i in order]

    def top_features(self, k: int = 5) -> list[str]:
        """The Table 3 view: the ``k`` highest-weighted features.

        ``k`` is clamped to the number of features — asking for more
        than exist returns every feature, ranked, rather than silently
        misreporting how many were requested.  A negative ``k`` is an
        error (a raw slice would silently drop the tail instead).
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        k = min(k, len(self.feature_names))
        return [name for name, _ in self.ranked_features()[:k]]


class GeneticFeatureSelector:
    """Evolve per-feature weights maximising a fitness function."""

    def __init__(self, n_features: int, feature_names: tuple[str, ...],
                 population: int = 16, generations: int = 12, *,
                 elitism: int = 2, seed: int = 0,
                 ancestry: Ancestry | None = None,
                 crossover: Crossover | None = None,
                 mutation: Mutation | None = None) -> None:
        if n_features != len(feature_names):
            raise ValueError("feature_names length must match n_features")
        if ancestry is None:
            ancestry = TournamentAncestry(3)
        if crossover is None:
            crossover = UniformCrossover(0.7)
        if mutation is None:
            mutation = GaussianMutation(rate=0.15, sigma=0.25)
        self._search = GeneticSearch(
            n_features, population=population, generations=generations,
            ancestry=ancestry, crossover=crossover, mutation=mutation,
            init=UnitUniformInit(), elitism=elitism, seed=seed,
        )
        self.n_features = n_features
        self.feature_names = tuple(feature_names)
        self.population_size = population
        self.generations = generations
        self.ancestry = ancestry
        self.crossover = crossover
        self.mutation = mutation
        self.tournament = getattr(ancestry, "size", None)
        self.crossover_rate = getattr(crossover, "rate", None)
        self.mutation_rate = getattr(mutation, "rate", None)
        self.mutation_sigma = getattr(mutation, "sigma", None)
        self.elitism = elitism
        # The search owns the stream; alias it so callers that reused
        # ``selector.rng`` across runs keep their draw order.
        self.rng = self._search.rng

    def run(self, fitness_fn: FitnessFn, *,
            jobs: int | None = None,
            window: int | None = None,
            executor=None) -> GAResult:
        """Evolve weights; ``fitness_fn(weights)`` must return a score to
        maximise (e.g. validation accuracy of a model trained on
        ``X * weights``).

        ``jobs`` fans each generation's fitness evaluations out over a
        worker pool (``None`` reads ``REPRO_JOBS``, default serial).
        The evolutionary loop — and every RNG draw — stays in the
        parent, so the result is byte-identical for any ``jobs`` value;
        a worker-side failure is re-evaluated once in the parent before
        propagating.  ``executor`` overrides the pool (tests pass an
        in-process executor so stateful fitness seams work under any
        ``jobs``); ``window`` bounds in-flight speculation.
        """
        result = self._search.run(fitness_fn, jobs=jobs, window=window,
                                  executor=executor)
        return GAResult(
            weights=result.best,
            fitness=result.fitness,
            history=result.history,
            feature_names=self.feature_names,
        )
