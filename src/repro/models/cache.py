"""Disk-cached, scale-aware suite training.

Install-time training is the paper's intended deployment: train once per
machine, reuse forever.  :func:`get_or_train_suite` implements exactly
that for the benchmark harness — the first call trains and saves under
``<cache>/suites``; later calls load instantly.  The ``REPRO_SCALE``
environment variable (``tiny`` / ``small`` / ``default`` / ``large``)
trades training time for model quality across the whole harness.

Cached artifacts are atomic, versioned, and checksummed (see
:mod:`repro.runtime.artifacts`); a truncated, corrupted, or
schema-stale cache file is detected on load and rebuilt instead of
crashing the caller.  Long training runs can checkpoint and resume via
``options=RunOptions(checkpoint_every=...)`` / ``resume=``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.appgen.config import GeneratorConfig
from repro.machine.configs import MachineConfig
from repro.models.brainy import BrainySuite
from repro.runtime.artifacts import ArtifactError, quarantine_artifact
from repro.runtime.options import RunOptions


def _resolve_cache_dir() -> Path:
    """Cache root: ``REPRO_CACHE_DIR`` if set, else ``./.cache``.

    A cwd-relative default works for both a source checkout (run from
    the repo root) and an installed package, where the old
    ``Path(__file__).parents[3]`` landed outside site-packages in a
    directory the process may not own.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.cwd() / ".cache"


#: Cache root (safe to delete; every artifact in it can be rebuilt).
CACHE_DIR = _resolve_cache_dir()


def _ensure_writable(root: Path) -> None:
    try:
        root.mkdir(parents=True, exist_ok=True)
        probe = root / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise RuntimeError(
            f"cache directory {root} is not writable ({exc}); set "
            "REPRO_CACHE_DIR to a writable location"
        ) from exc


@dataclass(frozen=True)
class ScaleParams:
    """Training budget for one scale tier."""

    name: str
    per_class_target: int
    max_seeds: int
    validation_apps: int
    hidden: tuple[int, ...]


SCALES: dict[str, ScaleParams] = {
    "tiny": ScaleParams("tiny", per_class_target=10, max_seeds=90,
                        validation_apps=30, hidden=(16,)),
    "small": ScaleParams("small", per_class_target=25, max_seeds=250,
                         validation_apps=60, hidden=(24,)),
    "default": ScaleParams("default", per_class_target=60, max_seeds=650,
                           validation_apps=120, hidden=(32, 16)),
    "large": ScaleParams("large", per_class_target=150, max_seeds=2000,
                         validation_apps=300, hidden=(32, 16)),
}


def current_scale() -> ScaleParams:
    """The tier selected by ``REPRO_SCALE`` (default ``small``)."""
    name = os.environ.get("REPRO_SCALE", "small")
    if name not in SCALES:
        raise ValueError(
            f"REPRO_SCALE={name!r} unknown; choose from {sorted(SCALES)}"
        )
    return SCALES[name]


def suite_path(machine_config: MachineConfig, scale: ScaleParams) -> Path:
    return CACHE_DIR / "suites" / f"{machine_config.name}-{scale.name}"


def checkpoint_dir(machine_config: MachineConfig,
                   scale: ScaleParams) -> Path:
    return (CACHE_DIR / "checkpoints"
            / f"{machine_config.name}-{scale.name}")


def _warn(message: str) -> None:
    print(f"repro cache: {message}", file=sys.stderr)


def _quarantine_and_warn(path: Path, what: str, exc: Exception) -> None:
    """Set a bad cached artifact aside (never silently discard it) and
    tell the operator where it went before the rebuild starts."""
    quarantined = quarantine_artifact(path)
    where = (f"; quarantined to {quarantined} for inspection"
             if quarantined is not None else "")
    _warn(f"unusable cached {what} {path} ({exc}){where}; rebuilding")


def get_or_build_dataset(group_name: str,
                         machine_config: MachineConfig,
                         scale: ScaleParams | None = None,
                         config: GeneratorConfig | None = None,
                         force: bool = False,
                         *,
                         options: RunOptions | None = None):
    """Load (or run Phase I+II to build) one group's training set.

    A corrupt or schema-stale cached dataset is rebuilt, not raised.
    ``options`` carries the cross-cutting run knobs
    (:class:`repro.runtime.options.RunOptions`).
    """
    from repro.containers.registry import MODEL_GROUPS
    from repro.training.dataset import TrainingSet
    from repro.training.phase1 import run_phase1
    from repro.training.phase2 import run_phase2

    options = options or RunOptions()
    scale = scale or current_scale()
    path = (CACHE_DIR / "datasets"
            / f"{machine_config.name}-{scale.name}-{group_name}.json")
    if not force and path.exists():
        try:
            return TrainingSet.load(path)
        except (ArtifactError, ValueError) as exc:
            _quarantine_and_warn(path, "dataset", exc)
    _ensure_writable(CACHE_DIR)
    config = config or GeneratorConfig()
    group = MODEL_GROUPS[group_name]
    phase1 = run_phase1(group, config, machine_config,
                        per_class_target=scale.per_class_target,
                        max_seeds=scale.max_seeds, options=options)
    training_set = run_phase2(phase1, config, machine_config,
                              options=options)
    training_set.save(path)
    return training_set


def get_or_train_suite(machine_config: MachineConfig,
                       scale: ScaleParams | None = None,
                       config: GeneratorConfig | None = None,
                       force: bool = False,
                       *,
                       resume: bool = False,
                       options: RunOptions | None = None) -> BrainySuite:
    """Load the cached suite for this machine/scale, training on a miss.

    A corrupt or schema-stale cached suite is retrained, not raised.
    ``options.checkpoint_every`` enables periodic training checkpoints
    under the cache's ``checkpoints/`` directory; ``resume=True``
    continues an interrupted training run from them.  ``options.jobs``
    fans training seeds out over worker processes (``None`` reads
    ``REPRO_JOBS``; the trained suite is identical for any value).
    """
    options = options or RunOptions()
    scale = scale or current_scale()
    path = suite_path(machine_config, scale)
    if not force and (path / "suite.json").exists():
        try:
            return BrainySuite.load(path)
        except (ArtifactError, ValueError, KeyError,
                FileNotFoundError) as exc:
            _quarantine_and_warn(path, "suite", exc)
    _ensure_writable(CACHE_DIR)
    ckpt_dir = (checkpoint_dir(machine_config, scale)
                if options.checkpoint_every is not None or resume
                else None)
    suite = BrainySuite.train(
        machine_config=machine_config,
        config=config or GeneratorConfig(),
        per_class_target=scale.per_class_target,
        max_seeds=scale.max_seeds,
        hidden=scale.hidden,
        checkpoint_dir=ckpt_dir,
        resume=resume,
        options=options,
    )
    suite.save(path)
    return suite
