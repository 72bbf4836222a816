"""Brainy's prediction models: one ANN per data-structure model group.

A :class:`BrainyModel` packages the trained network with its feature
scaler, candidate-class list and optional GA feature weights; a
:class:`BrainySuite` holds one model per group (Figure 3) and is the
object the advisor queries.  Models serialise to JSON so an install-time
training run can be reused.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable

import numpy as np

import repro.obs as obs

from repro.appgen.config import GeneratorConfig
from repro.containers.registry import (
    DSKind,
    MODEL_GROUPS,
    ModelGroup,
    candidates_for,
    model_group_for,
)
from repro.instrumentation.features import FEATURE_NAMES
from repro.machine.configs import CORE2, MachineConfig
from repro.ml.ann import NeuralNetwork
from repro.ml.metrics import accuracy
from repro.ml.scaling import StandardScaler
from repro.runtime.artifacts import (
    ArtifactError,
    read_artifact,
    write_artifact,
)
from repro.runtime.checkpoint import TrainingInterrupted
from repro.runtime.faults import RetryPolicy
from repro.runtime.options import RunOptions
from repro.runtime.parallel import map_retry, resolve_jobs, usable_jobs
from repro.training.dataset import TrainingSet
from repro.training.phase1 import run_phase1
from repro.training.phase2 import run_phase2

SUITE_INDEX_KIND = "suite-index"
MODEL_ARTIFACT_KIND = "brainy-model"
SUITE_SCHEMA_VERSION = 2


def _balanced_indices(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Oversample minority classes to the majority count."""
    labels, counts = np.unique(y, return_counts=True)
    target = counts.max()
    chosen: list[np.ndarray] = []
    for label, count in zip(labels, counts):
        idx = np.flatnonzero(y == label)
        if count < target:
            extra = rng.choice(idx, size=target - count, replace=True)
            idx = np.concatenate([idx, extra])
        chosen.append(idx)
    merged = np.concatenate(chosen)
    rng.shuffle(merged)
    return merged


@dataclass
class BrainyModel:
    """One trained per-original-DS model."""

    group_name: str
    machine_name: str
    classes: tuple[DSKind, ...]
    scaler: StandardScaler
    network: NeuralNetwork
    feature_weights: np.ndarray  # GA weights; all-ones when GA not run

    @classmethod
    def train(cls, training_set: TrainingSet,
              hidden: tuple[int, ...] = (24,),
              epochs: int = 250,
              feature_weights: np.ndarray | None = None,
              feature_mask: Iterable[str] | None = None,
              balance: bool = True,
              seed: int = 0) -> "BrainyModel":
        """Train on a Phase-II training set.

        Parameters
        ----------
        feature_weights:
            Optional GA-derived per-feature weights applied after scaling.
        feature_mask:
            Optional whitelist of feature names; everything else is zeroed
            (used by the software-features-only ablation).
        balance:
            Oversample minority classes (Phase I naturally produces skewed
            winner distributions).
        """
        if len(training_set) < 4:
            raise ValueError("training set too small to fit a model")
        weights = (np.ones(len(FEATURE_NAMES))
                   if feature_weights is None
                   else np.asarray(feature_weights, dtype=np.float64))
        if weights.shape != (len(FEATURE_NAMES),):
            raise ValueError("feature_weights length mismatch")
        if feature_mask is not None:
            mask = np.zeros(len(FEATURE_NAMES))
            for name in feature_mask:
                try:
                    mask[FEATURE_NAMES.index(name)] = 1.0
                except ValueError:
                    raise ValueError(
                        f"unknown feature name {name!r} in feature_mask; "
                        f"valid features: {', '.join(FEATURE_NAMES)}"
                    ) from None
            weights = weights * mask

        scaler = StandardScaler().fit(training_set.X)
        rng = np.random.default_rng(seed)
        train_ts, val_ts = training_set.split(validation_fraction=0.2,
                                              seed=seed)
        X_train = scaler.transform(train_ts.X) * weights
        y_train = train_ts.y
        if balance and len(np.unique(y_train)) > 1:
            idx = _balanced_indices(y_train, rng)
            X_train, y_train = X_train[idx], y_train[idx]
        X_val = scaler.transform(val_ts.X) * weights

        network = NeuralNetwork(
            [len(FEATURE_NAMES), *hidden, len(training_set.classes)],
            epochs=epochs, seed=seed,
        )
        network.fit(X_train, y_train, validation=(X_val, val_ts.y))
        return cls(
            group_name=training_set.group_name,
            machine_name=training_set.machine_name,
            classes=training_set.classes,
            scaler=scaler,
            network=network,
            feature_weights=weights,
        )

    # -- inference ------------------------------------------------------------

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        X = self.scaler.transform(X) * self.feature_weights
        return self.network.predict_proba(X)

    def legal_mask(self, legal: Iterable[DSKind]) -> np.ndarray:
        """Boolean mask over :attr:`classes` for a legal-kind subset.

        Precomputable: the mask depends only on the legal set, so the
        batched advisor builds it once per distinct usage shape instead
        of once per record.
        """
        allowed = set(legal)
        unknown = allowed.difference(self.classes)
        if unknown:
            raise ValueError(f"legal kinds not in model: {unknown}")
        mask = np.array([kind in allowed for kind in self.classes])
        if not mask.any():
            raise ValueError("legal mask excludes every class")
        return mask

    def predict_kind(self, features: np.ndarray,
                     legal: Iterable[DSKind] | None = None) -> DSKind:
        """Best class; optionally restricted to a legal subset.

        Legality masking is how order-aware usages of a container handled
        by an order-oblivious-capable model stay within Table 1 (e.g. a
        sorted-iteration ``set`` may only become ``avl_set``).
        """
        probs = self.predict_proba(features)[0]
        if legal is not None:
            probs = np.where(self.legal_mask(legal), probs, -np.inf)
        return self.classes[int(np.argmax(probs))]

    def predict_kinds(self, features: np.ndarray,
                      legal_masks: np.ndarray | None = None
                      ) -> list[DSKind]:
        """Batched :meth:`predict_kind`: one scaler pass and one network
        forward pass for a whole stack of feature vectors.

        ``legal_masks`` is an optional ``(n_rows, n_classes)`` boolean
        matrix (rows from :meth:`legal_mask`) applied before the per-row
        argmax.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        probs = self.predict_proba(features)
        if legal_masks is not None:
            legal_masks = np.asarray(legal_masks, dtype=bool)
            if legal_masks.shape != probs.shape:
                raise ValueError(
                    f"legal_masks shape {legal_masks.shape} does not "
                    f"match probabilities shape {probs.shape}"
                )
            probs = np.where(legal_masks, probs, -np.inf)
        return [self.classes[int(i)] for i in np.argmax(probs, axis=1)]

    def accuracy_on(self, test_set: TrainingSet) -> float:
        if tuple(test_set.classes) != tuple(self.classes):
            raise ValueError("test set classes do not match the model")
        X = self.scaler.transform(test_set.X) * self.feature_weights
        return accuracy(test_set.y, self.network.predict(X))

    # -- persistence ---------------------------------------------------------

    def state(self) -> dict:
        return {
            "group_name": self.group_name,
            "machine_name": self.machine_name,
            "classes": [kind.value for kind in self.classes],
            "scaler": self.scaler.state(),
            "network": self.network.state(),
            "feature_weights": self.feature_weights.tolist(),
            "feature_names": list(FEATURE_NAMES),
        }

    @classmethod
    def from_state(cls, state: dict) -> "BrainyModel":
        """Restore a model, cross-validating the restored pieces.

        The network validates its own weight/bias shapes; here the
        pieces are checked *against each other* (classes vs output
        layer, scaler and feature weights vs the feature schema), so a
        checksum-valid but inconsistent artifact fails with a
        :class:`ValueError` naming the field instead of a matmul shape
        error at predict time.
        """
        if state["feature_names"] != list(FEATURE_NAMES):
            raise ValueError("model was trained on a different feature schema")
        n_features = len(FEATURE_NAMES)
        classes = tuple(DSKind(v) for v in state["classes"])
        network = NeuralNetwork.from_state(state["network"])
        if network.layer_sizes[0] != n_features:
            raise ValueError(
                f"artifact field 'network.layer_sizes' expects "
                f"{network.layer_sizes[0]} inputs; the feature schema "
                f"has {n_features}"
            )
        if len(classes) != network.n_classes:
            raise ValueError(
                f"artifact field 'classes' lists {len(classes)} kinds "
                f"but the network output layer has {network.n_classes}"
            )
        scaler = StandardScaler.from_state(state["scaler"])
        if (scaler.mean_.shape != (n_features,)
                or scaler.scale_.shape != (n_features,)):
            raise ValueError(
                f"artifact field 'scaler' is fitted for "
                f"{scaler.mean_.shape} features; expected ({n_features},)"
            )
        feature_weights = np.asarray(state["feature_weights"],
                                     dtype=np.float64)
        if feature_weights.shape != (n_features,):
            raise ValueError(
                f"artifact field 'feature_weights' has shape "
                f"{feature_weights.shape}; expected ({n_features},)"
            )
        return cls(
            group_name=state["group_name"],
            machine_name=state["machine_name"],
            classes=classes,
            scaler=scaler,
            network=network,
            feature_weights=feature_weights,
        )


def _train_group(group_name: str,
                 *,
                 config: GeneratorConfig,
                 machine_config: MachineConfig,
                 per_class_target: int,
                 max_seeds: int,
                 hidden: tuple[int, ...],
                 seed_base: int,
                 seed: int,
                 checkpoint_dir: str | None,
                 checkpoint_every: int | None,
                 resume: bool,
                 retry_policy: RetryPolicy | None,
                 seed_budget_seconds: float | None,
                 jobs: int) -> BrainyModel:
    """One group's full pipeline: Phase I → Phase II → ANN fit.

    A pure function of its (picklable) arguments, which is what lets
    :meth:`BrainySuite.train` overlap independent group pipelines across
    a worker pool while staying byte-identical to the serial group loop.
    Checkpoint files are per group, so concurrent pipelines never touch
    the same path.
    """
    group = MODEL_GROUPS[group_name]
    # Rebuilt worker-side from plain (picklable) arguments; a live
    # telemetry collector never crosses the process boundary.
    phase_options = RunOptions(
        jobs=jobs, checkpoint_every=checkpoint_every,
        retry_policy=retry_policy,
        seed_budget_seconds=seed_budget_seconds,
    )
    p1_path = p2_path = None
    p1_resume = p2_resume = None
    if checkpoint_dir is not None:
        directory = Path(checkpoint_dir)
        p1_path = directory / f"{group_name}.phase1.json"
        p2_path = directory / f"{group_name}.phase2.json"
        if resume:
            p1_resume = p1_path if p1_path.exists() else None
            p2_resume = p2_path if p2_path.exists() else None
    with obs.span("train.group", group=group_name):
        phase1 = run_phase1(
            group, config, machine_config,
            per_class_target=per_class_target,
            max_seeds=max_seeds, seed_base=seed_base,
            resume_from=p1_resume, checkpoint_path=p1_path,
            options=phase_options,
        )
        training_set = run_phase2(
            phase1, config, machine_config,
            resume_from=p2_resume, checkpoint_path=p2_path,
            options=phase_options,
        )
        return BrainyModel.train(training_set, hidden=hidden, seed=seed)


class BrainySuite:
    """One BrainyModel per model group, for a single microarchitecture."""

    def __init__(self, machine_name: str,
                 models: dict[str, BrainyModel] | None = None) -> None:
        self.machine_name = machine_name
        self.models: dict[str, BrainyModel] = models or {}
        #: Groups whose persisted model was missing/corrupt at load time
        #: (lenient load); the advisor degrades these to the baseline.
        self.degraded: set[str] = set()

    def __contains__(self, group_name: str) -> bool:
        return group_name in self.models

    def __getitem__(self, group_name: str) -> BrainyModel:
        return self.models[group_name]

    def predict(self, kind: DSKind, order_oblivious: bool,
                features: np.ndarray,
                legal: Iterable[DSKind] | None = None) -> DSKind:
        """Route a profiled container to its model group and predict.

        The legality mask defaults to Table 1's candidates for the usage:
        order-aware usages of a ``set`` handled by the (wider) set model
        may still only become ``avl_set``.
        """
        group = model_group_for(kind, order_oblivious)
        model = self.models[group.name]
        if legal is None:
            legal = candidates_for(kind, order_oblivious)
        return model.predict_kind(features, legal=legal)

    @classmethod
    def train(cls, machine_config: MachineConfig = CORE2,
              config: GeneratorConfig | None = None,
              groups: Iterable[ModelGroup] | None = None,
              per_class_target: int = 30,
              max_seeds: int = 1200,
              hidden: tuple[int, ...] = (24,),
              seed_base: int = 0,
              seed: int = 0,
              *,
              checkpoint_dir: str | Path | None = None,
              resume: bool = False,
              options: RunOptions | None = None,
              executor=None,
              ) -> "BrainySuite":
        """End-to-end training: Phase I + Phase II + ANN fit per group.

        With ``checkpoint_dir`` set, each group's Phase I/II writes
        periodic checkpoints there (``<group>.phase{1,2}.json``); with
        ``resume=True`` an interrupted run picks up from those files.
        Completed phases leave ``complete=True`` checkpoints, so resume
        skips finished work.  Checkpoints are removed once the whole
        suite trains successfully.

        Cross-cutting run knobs (``jobs``, ``checkpoint_every``, fault
        tuning, ``telemetry``) arrive via ``options=RunOptions(...)``.

        ``RunOptions.jobs`` parallelises training (``None`` reads
        ``REPRO_JOBS``, default serial).  With several groups, whole
        group pipelines overlap across the worker pool — each pipeline's
        own seed loop then runs serially inside its worker, since pool
        workers are daemonic and cannot host a nested pool.  With a
        single group the parallelism goes into the per-seed fan-out
        instead.  Either way the deterministic in-order merge keeps the
        trained suite byte-identical for any ``jobs`` value (and the
        merged telemetry content identical too).  ``executor`` overrides
        the group-level pool (the test seam for fault injection).
        """
        config = config or GeneratorConfig()
        groups = list(groups) if groups is not None \
            else list(MODEL_GROUPS.values())
        checkpoint_dir = (Path(checkpoint_dir)
                          if checkpoint_dir is not None else None)
        options = options or RunOptions()
        checkpoint_every = options.checkpoint_every
        retry_policy = options.retry_policy
        seed_budget_seconds = options.seed_budget_seconds
        jobs = resolve_jobs(options.jobs)
        group_jobs = min(jobs, len(groups)) if len(groups) > 1 else 1
        if executor is None and group_jobs == 1:
            # All parallelism fits inside one pipeline's seed fan-out.
            inner_jobs = jobs
        else:
            inner_jobs = 1

        def make_worker(inner: int):
            return partial(
                _train_group,
                config=config, machine_config=machine_config,
                per_class_target=per_class_target, max_seeds=max_seeds,
                hidden=tuple(hidden), seed_base=seed_base, seed=seed,
                checkpoint_dir=(str(checkpoint_dir)
                                if checkpoint_dir is not None else None),
                checkpoint_every=checkpoint_every, resume=resume,
                retry_policy=retry_policy,
                seed_budget_seconds=seed_budget_seconds, jobs=inner,
            )

        worker = make_worker(inner_jobs)
        if executor is None and group_jobs > 1:
            group_jobs = usable_jobs(worker, group_jobs,
                                     "the per-group training pipeline")
            if group_jobs == 1:
                worker = make_worker(jobs)

        telemetry_scope = (obs.use_collector(options.telemetry)
                           if options.telemetry is not None
                           else nullcontext())
        with telemetry_scope, obs.span("train",
                                       machine=machine_config.name):
            suite = cls(machine_name=machine_config.name)
            names = [group.name for group in groups]
            merged = map_retry(worker, names, jobs=group_jobs,
                               executor=executor,
                               reraise=(TrainingInterrupted,))
            try:
                try:
                    for name, model in zip(names, merged):
                        suite.models[name] = model
                        obs.counter("train.groups")
                finally:
                    merged.close()
            except KeyboardInterrupt:
                if checkpoint_dir is None:
                    raise
                # Workers ignore SIGINT and flush per-group checkpoints
                # at merged-prefix boundaries; surface the same
                # resumable signal the serial path raises.
                raise TrainingInterrupted(
                    "suite training interrupted; per-group checkpoints "
                    f"under {checkpoint_dir}",
                    checkpoint_path=checkpoint_dir,
                ) from None
            if checkpoint_dir is not None:
                for group in groups:
                    for phase in ("phase1", "phase2"):
                        (checkpoint_dir
                         / f"{group.name}.{phase}.json"
                         ).unlink(missing_ok=True)
            return suite

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, model in self.models.items():
            write_artifact(directory / f"{name}.json", model.state(),
                           kind=MODEL_ARTIFACT_KIND,
                           schema_version=SUITE_SCHEMA_VERSION)
        # The index goes last: its presence marks a fully-written suite.
        index = {"machine_name": self.machine_name,
                 "groups": sorted(self.models)}
        write_artifact(directory / "suite.json", index,
                       kind=SUITE_INDEX_KIND,
                       schema_version=SUITE_SCHEMA_VERSION)

    @classmethod
    def load(cls, directory: str | Path,
             lenient: bool = False) -> "BrainySuite":
        """Load a saved suite.

        With ``lenient=True`` a missing or corrupt per-group model file
        is skipped instead of raised: the group lands in
        :attr:`degraded` (with a ``RuntimeWarning`` naming the file and
        the error, so the downgrade is never silent) and the advisor
        falls back to the Perflint baseline for it.
        """
        import warnings

        directory = Path(directory)
        index = read_artifact(directory / "suite.json",
                              kind=SUITE_INDEX_KIND,
                              schema_version=SUITE_SCHEMA_VERSION)
        suite = cls(machine_name=index["machine_name"])
        for name in index["groups"]:
            path = directory / f"{name}.json"
            try:
                state = read_artifact(path,
                                      kind=MODEL_ARTIFACT_KIND,
                                      schema_version=SUITE_SCHEMA_VERSION)
                suite.models[name] = BrainyModel.from_state(state)
            except (ArtifactError, ValueError, KeyError) as exc:
                if not lenient:
                    raise
                warnings.warn(
                    f"suite model {path} unusable ({exc}); group "
                    f"{name!r} will degrade to the Perflint baseline",
                    RuntimeWarning, stacklevel=2,
                )
                suite.degraded.add(name)
        return suite
