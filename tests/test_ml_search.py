"""Unit tests for the generic GA core and its strategy objects.

Covers the api_redesign guarantees:

* the adapted :class:`GeneticFeatureSelector` stays byte-identical to a
  frozen copy of the pre-refactor hard-wired implementation, for any
  strategy-relevant configuration and any ``jobs`` value;
* NSGA-II helpers (non-dominated sort, crowding distance) against
  hand-checked cases and a brute-force oracle;
* :meth:`GeneticSearch.pareto` finds the true front of an enumerable
  search space and is byte-identical across ``jobs``.
"""

import numpy as np
import pytest

from repro.ml.genetic import GeneticFeatureSelector
from repro.ml.search import (
    GeneticSearch,
    crowding_distance,
    dominates,
    non_dominated_rank,
)
from repro.ml.strategies import (
    GaussianMutation,
    GeneChoiceMutation,
    SeededChoiceInit,
    TournamentAncestry,
    UniformCrossover,
    UnitUniformInit,
)
from repro.runtime.parallel import SerialExecutor

NAMES = ("a", "b", "c", "d", "e", "f")


# ---------------------------------------------------------------------------
# A frozen copy of the pre-refactor GeneticFeatureSelector loop (PR 3
# vintage).  The adapter must reproduce its RNG draw order exactly; this
# reference is the proof anchor and must never be "improved".
# ---------------------------------------------------------------------------


class _FrozenLegacySelector:
    def __init__(self, n_features, feature_names, population=16,
                 generations=12, tournament=3, crossover_rate=0.7,
                 mutation_rate=0.15, mutation_sigma=0.25, elitism=2,
                 seed=0):
        self.n_features = n_features
        self.feature_names = tuple(feature_names)
        self.population_size = population
        self.generations = generations
        self.tournament = tournament
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.mutation_sigma = mutation_sigma
        self.elitism = elitism
        self.rng = np.random.default_rng(seed)

    def _tournament_pick(self, fitnesses):
        contenders = self.rng.choice(len(fitnesses), size=self.tournament,
                                     replace=False)
        return int(contenders[np.argmax(fitnesses[contenders])])

    def _crossover(self, a, b):
        if self.rng.random() >= self.crossover_rate:
            return a.copy()
        mask = self.rng.random(self.n_features) < 0.5
        return np.where(mask, a, b)

    def _mutate(self, chromosome):
        mask = self.rng.random(self.n_features) < self.mutation_rate
        noise = self.rng.normal(0.0, self.mutation_sigma, self.n_features)
        return np.clip(chromosome + mask * noise, 0.0, 1.0)

    def run(self, fitness_fn):
        pop = self.rng.random((self.population_size, self.n_features))
        pop[0] = 1.0
        fitnesses = np.array([fitness_fn(ch) for ch in pop])
        history = [float(fitnesses.max())]
        for _ in range(self.generations):
            order = np.argsort(-fitnesses)
            next_pop = [pop[i].copy() for i in order[:self.elitism]]
            while len(next_pop) < self.population_size:
                a = pop[self._tournament_pick(fitnesses)]
                b = pop[self._tournament_pick(fitnesses)]
                next_pop.append(self._mutate(self._crossover(a, b)))
            pop = np.asarray(next_pop)
            fitnesses = np.array([fitness_fn(ch) for ch in pop])
            history.append(float(fitnesses.max()))
        best = int(np.argmax(fitnesses))
        return (pop[best].tobytes(), float(fitnesses[best]), tuple(history))


def _linear_fitness(weights):
    return float(2.0 * weights[0] + weights[1] - 0.3 * weights[2:].sum())


def _ga_key(result):
    return (result.weights.tobytes(), result.fitness,
            tuple(result.history))


LEGACY_CONFIGS = [
    dict(population=10, generations=8, seed=0),
    dict(population=6, generations=5, seed=3, tournament=4,
         crossover_rate=0.9, mutation_rate=0.5, mutation_sigma=1.0,
         elitism=1),
    dict(population=16, generations=3, seed=11, tournament=1,
         crossover_rate=0.0),
    dict(population=5, generations=6, seed=7, tournament=5, elitism=4),
    dict(population=4, generations=0, seed=42),
]


def _adapter_kwargs(config):
    """The frozen loop's numeric tuning knobs as strategy objects."""
    kwargs = dict(config)
    ancestry = TournamentAncestry(kwargs.pop("tournament", 3))
    crossover = UniformCrossover(kwargs.pop("crossover_rate", 0.7))
    mutation = GaussianMutation(rate=kwargs.pop("mutation_rate", 0.15),
                                sigma=kwargs.pop("mutation_sigma", 0.25))
    return dict(kwargs, ancestry=ancestry, crossover=crossover,
                mutation=mutation)


class TestAdapterByteIdentity:
    """The refactored adapter vs the frozen pre-refactor loop."""

    @pytest.mark.parametrize("config", LEGACY_CONFIGS)
    def test_matches_frozen_legacy_for_any_jobs(self, config):
        expected = _FrozenLegacySelector(6, NAMES,
                                         **config).run(_linear_fitness)
        for jobs in (None, 2):
            selector = GeneticFeatureSelector(6, NAMES,
                                              **_adapter_kwargs(config))
            result = selector.run(_linear_fitness, jobs=jobs)
            assert _ga_key(result) == expected, (config, jobs)

    def test_matches_with_explicit_strategies(self):
        """Passing the default strategies as objects changes nothing."""
        expected = _FrozenLegacySelector(
            6, NAMES, population=8, generations=4,
            seed=9).run(_linear_fitness)
        selector = GeneticFeatureSelector(
            6, NAMES, population=8, generations=4, seed=9,
            ancestry=TournamentAncestry(3),
            crossover=UniformCrossover(0.7),
            mutation=GaussianMutation(rate=0.15, sigma=0.25),
        )
        assert _ga_key(selector.run(_linear_fitness)) == expected

    def test_matches_under_in_process_executor(self):
        expected = _FrozenLegacySelector(
            6, NAMES, population=8, generations=4,
            seed=1).run(_linear_fitness)
        selector = GeneticFeatureSelector(6, NAMES, population=8,
                                          generations=4, seed=1)
        result = selector.run(_linear_fitness, jobs=4,
                              executor=SerialExecutor())
        assert _ga_key(result) == expected

    def test_rng_reuse_across_runs_matches(self):
        """Callers that run the same selector twice reuse its stream."""
        legacy = _FrozenLegacySelector(6, NAMES, population=6,
                                       generations=3, seed=2)
        first, second = (legacy.run(_linear_fitness),
                         legacy.run(_linear_fitness))
        adapted = GeneticFeatureSelector(6, NAMES, population=6,
                                         generations=3, seed=2)
        assert _ga_key(adapted.run(_linear_fitness)) == first
        assert _ga_key(adapted.run(_linear_fitness)) == second


class TestSearchValidation:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError, match="population"):
            GeneticSearch(4, population=1)

    def test_rejects_full_elitism_with_detail(self):
        """elitism >= population is rejected up front, naming both
        values — the same contract as the oversized-tournament check."""
        with pytest.raises(ValueError, match="elitism 4.*population of 4"):
            GeneticSearch(3, population=4, elitism=4)

    def test_rejects_oversized_tournament(self):
        with pytest.raises(ValueError, match="tournament size 9"):
            GeneticSearch(3, population=4,
                          ancestry=TournamentAncestry(9))

    def test_rejects_nonpositive_tournament(self):
        with pytest.raises(ValueError, match="tournament"):
            TournamentAncestry(0)

    def test_rejects_empty_objectives(self):
        search = GeneticSearch(2, population=4)
        with pytest.raises(ValueError, match="objective"):
            search.pareto(lambda ch: (1.0,), ())

    def test_rejects_wrong_fitness_arity(self):
        search = GeneticSearch(2, population=4, generations=1)
        with pytest.raises(ValueError, match="1 value.*2 objective"):
            search.pareto(lambda ch: (1.0,), ("cycles", "memory"),
                          executor=SerialExecutor())


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (2.0, 2.0))

    def test_non_dominated_rank_hand_case(self):
        objs = np.array([
            [1.0, 5.0],   # front 0
            [5.0, 1.0],   # front 0
            [2.0, 2.0],   # front 0
            [3.0, 3.0],   # dominated by [2,2] -> front 1
            [6.0, 6.0],   # dominated by everything -> front 2
        ])
        assert non_dominated_rank(objs).tolist() == [0, 0, 0, 1, 2]

    def test_rank_zero_matches_brute_force(self):
        rng = np.random.default_rng(0)
        objs = rng.integers(0, 8, size=(40, 3)).astype(float)
        ranks = non_dominated_rank(objs)
        for i in range(len(objs)):
            brute = any(dominates(objs[j], objs[i])
                        for j in range(len(objs)) if j != i)
            assert (ranks[i] > 0) == brute

    def test_crowding_boundaries_infinite(self):
        objs = np.array([[0.0, 4.0], [1.0, 2.0], [2.0, 1.0], [4.0, 0.0]])
        ranks = np.zeros(4, dtype=np.int64)
        crowd = crowding_distance(objs, ranks)
        assert crowd[0] == np.inf and crowd[3] == np.inf
        assert np.isfinite(crowd[1]) and np.isfinite(crowd[2])
        # Inner distances: normalised neighbour gaps summed per
        # objective.
        assert crowd[1] == pytest.approx((2 - 0) / 4 + (4 - 1) / 4)
        assert crowd[2] == pytest.approx((4 - 1) / 4 + (2 - 0) / 4)

    def test_crowding_small_fronts_infinite(self):
        objs = np.array([[1.0, 1.0], [0.0, 2.0], [5.0, 5.0]])
        ranks = non_dominated_rank(objs)
        crowd = crowding_distance(objs, ranks)
        assert list(crowd) == [np.inf] * 3


# ---------------------------------------------------------------------------
# Pareto search over an enumerable space, checked against brute force.
# ---------------------------------------------------------------------------

#: 4 genes x 3 choices; objective 0 rewards low genes, objective 1 high
#: genes, with a per-gene twist so the front is non-trivial.
_WEIGHTS = np.array([1.0, 2.0, 3.0, 4.0])


def _toy_objectives(chromosome):
    genes = np.asarray(chromosome, dtype=np.float64)
    cost_a = float((genes * _WEIGHTS).sum())
    cost_b = float(((2 - genes) * _WEIGHTS[::-1]).sum())
    return (cost_a, cost_b)


def _brute_force_front():
    points = {}
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    points[(a, b, c, d)] = _toy_objectives((a, b, c, d))
    values = list(points.values())
    front = {
        tuple(v) for v in values
        if not any(dominates(o, v) for o in values)
    }
    return front


def _toy_search(**kwargs):
    choices = (3, 3, 3, 3)
    defaults = dict(
        population=12, generations=10,
        ancestry=TournamentAncestry(3),
        crossover=UniformCrossover(0.7),
        mutation=GeneChoiceMutation(choices, rate=0.3),
        init=SeededChoiceInit(choices),
        elitism=0, seed=0,
    )
    defaults.update(kwargs)
    return GeneticSearch(4, **defaults)


class TestParetoSearch:
    def test_finds_true_front_of_enumerable_space(self):
        result = _toy_search().pareto(_toy_objectives,
                                      ("cost_a", "cost_b"))
        found = {p.objectives for p in result.front}
        assert found == _brute_force_front()

    def test_front_sorted_and_non_dominated(self):
        result = _toy_search().pareto(_toy_objectives, ("a", "b"))
        objectives = [p.objectives for p in result.front]
        assert objectives == sorted(objectives)
        for p in result.front:
            assert not any(q.dominates(p) for q in result.front)

    def test_byte_identical_across_jobs(self):
        serial = _toy_search().pareto(_toy_objectives, ("a", "b"))
        for jobs in (2, 4):
            fanned = _toy_search().pareto(_toy_objectives, ("a", "b"),
                                          jobs=jobs)
            assert [(p.genome, p.objectives) for p in fanned.front] \
                == [(p.genome, p.objectives) for p in serial.front]
            assert fanned.history == serial.history
            assert fanned.evaluations == serial.evaluations

    def test_memoises_revisited_chromosomes(self):
        calls = []

        def counting(chromosome):
            calls.append(tuple(int(g) for g in chromosome))
            return _toy_objectives(chromosome)

        result = _toy_search().pareto(counting, ("a", "b"),
                                      executor=SerialExecutor())
        assert len(calls) == len(set(calls))  # never re-evaluated
        assert result.evaluations == len(calls)
        assert result.evaluations <= 3 ** 4

    def test_seeded_chromosomes_always_evaluated(self):
        seed = (2, 2, 2, 2)
        result = _toy_search(
            init=SeededChoiceInit((3, 3, 3, 3), seeds=(seed,)),
            generations=0,
        ).pareto(_toy_objectives, ("a", "b"))
        assert seed in result.archive
        assert result.archive[seed] == _toy_objectives(seed)

    def test_single_objective_front_is_minimum(self):
        result = _toy_search(generations=12).pareto(
            lambda ch: (_toy_objectives(ch)[0],), ("cost_a",))
        assert [p.objectives for p in result.front] == [(0.0,)]
        assert result.front[0].genome == (0, 0, 0, 0)


class TestStrategies:
    def test_gene_choice_mutation_respects_per_gene_choices(self):
        rng = np.random.default_rng(0)
        mutation = GeneChoiceMutation((2, 5, 1), rate=1.0)
        for _ in range(50):
            child = mutation.mutate(rng, np.array([0, 0, 0]))
            assert 0 <= child[0] < 2
            assert 0 <= child[1] < 5
            assert child[2] == 0

    def test_gene_choice_mutation_draws_fixed_stream(self):
        """Mask and redraw are always drawn, so the stream position
        after a mutate never depends on which genes changed."""
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        GeneChoiceMutation((4, 4), rate=0.0).mutate(rng_a,
                                                    np.array([1, 2]))
        GeneChoiceMutation((4, 4), rate=1.0).mutate(rng_b,
                                                    np.array([1, 2]))
        assert rng_a.random() == rng_b.random()

    def test_seeded_init_validates_seeds(self):
        with pytest.raises(ValueError, match="genes"):
            SeededChoiceInit((3, 3), seeds=((0, 1, 2),))
        with pytest.raises(ValueError, match="choice counts"):
            SeededChoiceInit((3, 3), seeds=((0, 5),))

    def test_seeded_init_places_seeds_first(self):
        init = SeededChoiceInit((3, 3), seeds=((2, 1), (0, 2)))
        pop = init.population(np.random.default_rng(0), 6, 2)
        assert pop[0].tolist() == [2, 1]
        assert pop[1].tolist() == [0, 2]
        assert pop.shape == (6, 2)

    def test_unit_uniform_init_seeds_ones(self):
        pop = UnitUniformInit().population(np.random.default_rng(0),
                                           4, 3)
        assert (pop[0] == 1.0).all()
        assert ((pop >= 0.0) & (pop <= 1.0)).all()
