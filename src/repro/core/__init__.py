"""table-GAN core: the paper's primary contribution."""

from repro.core.checkpoint import (
    CheckpointError,
    TrainerCheckpointer,
    TrainingInterrupted,
)
from repro.core.chunking import ChunkedTableGAN
from repro.core.config import (
    TableGanConfig,
    dcgan_baseline,
    high_privacy,
    low_privacy,
    mid_privacy,
)
from repro.core.losses import (
    FeatureStats,
    classification_loss,
    discriminator_loss,
    generator_adversarial_loss,
    information_loss,
)
from repro.core.networks import (
    FEATURE_LAYER,
    build_classifier,
    build_discriminator,
    build_generator,
    feature_width,
)
from repro.core.sampler import RecordSampler
from repro.core.schedule import UpdateSchedule
from repro.core.tablegan import TableGAN
from repro.core.trainer import (
    EpochLosses,
    TableGanTrainer,
    TrainingHistory,
    shard_bounds,
)

__all__ = [
    "TableGAN",
    "TableGanConfig",
    "low_privacy",
    "mid_privacy",
    "high_privacy",
    "dcgan_baseline",
    "ChunkedTableGAN",
    "TableGanTrainer",
    "ParallelTrainer",
    "ParallelTrainingError",
    "shard_bounds",
    "UpdateSchedule",
    "TrainerCheckpointer",
    "TrainingInterrupted",
    "CheckpointError",
    "TrainingHistory",
    "EpochLosses",
    "RecordSampler",
    "FeatureStats",
    "discriminator_loss",
    "generator_adversarial_loss",
    "information_loss",
    "classification_loss",
    "build_generator",
    "build_discriminator",
    "build_classifier",
    "feature_width",
    "FEATURE_LAYER",
]


def __getattr__(name: str):
    # The data-parallel trainer pulls in multiprocessing and shared memory;
    # resolve it on first access (PEP 562) so serial training does not.
    if name in ("ParallelTrainer", "ParallelTrainingError"):
        from repro.core import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
