"""repro — a reproduction of "Data Synthesis based on Generative Adversarial
Networks" (Park et al., VLDB 2018).

Public entry points::

    from repro import TableGAN, TableGanConfig, low_privacy, high_privacy
    from repro.data.datasets import load_dataset

Subpackages:

* :mod:`repro.core` — table-GAN (generator/discriminator/classifier, the
  three losses, Algorithm 2, chunked training);
* :mod:`repro.nn` — the numpy deep-learning substrate;
* :mod:`repro.data` — schemas, tables, encoders and the four datasets;
* :mod:`repro.ml` — the scikit-learn substitute used by the evaluation;
* :mod:`repro.baselines` — ARX/sdcMicro substitutes, condensation, DCGAN;
* :mod:`repro.privacy` — DCR, risk models, the membership attack;
* :mod:`repro.evaluation` — statistical similarity and model compatibility;
* :mod:`repro.serve` — the synthesis serving subsystem (model registry,
  micro-batched service, sharded parallel sampling, streaming sinks).
"""

from repro.core import (
    ChunkedTableGAN,
    TableGAN,
    TableGanConfig,
    dcgan_baseline,
    high_privacy,
    low_privacy,
    mid_privacy,
)

__version__ = "1.0.0"

#: Names resolved from :mod:`repro.serve` on first access (PEP 562), so
#: that training imports no HTTP, TLS or multiprocessing modules.
_SERVE_NAMES = frozenset(
    {"CsvSink", "ModelRegistry", "NpzSink", "ShardedSampler", "SynthesisService"}
)

__all__ = [
    "TableGAN",
    "TableGanConfig",
    "ChunkedTableGAN",
    "low_privacy",
    "mid_privacy",
    "high_privacy",
    "dcgan_baseline",
    "ModelRegistry",
    "SynthesisService",
    "ShardedSampler",
    "CsvSink",
    "NpzSink",
    "__version__",
]


def __getattr__(name: str):
    if name in _SERVE_NAMES:
        import repro.serve

        return getattr(repro.serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
