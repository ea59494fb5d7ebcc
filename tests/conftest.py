"""Shared fixtures.

Expensive artifacts (dataset bundles, a trained tiny table-GAN) are
session-scoped so the suite stays fast; tests must treat them as
read-only.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import TableGAN, low_privacy
from repro.data.datasets import load_dataset
from repro.utils import threads


@pytest.fixture(scope="session")
def adult_bundle():
    """Small Adult bundle shared across tests (read-only)."""
    return load_dataset("adult", rows=400, seed=101)


@pytest.fixture(scope="session")
def lacity_bundle():
    """Small LACity bundle shared across tests (read-only)."""
    return load_dataset("lacity", rows=400, seed=202)


@pytest.fixture(scope="session")
def tiny_gan_config():
    """Config small enough to train in a couple of seconds."""
    return low_privacy(epochs=3, batch_size=32, base_channels=8, seed=11)


@pytest.fixture(scope="session")
def trained_gan(adult_bundle, tiny_gan_config):
    """A table-GAN trained on the tiny Adult bundle (read-only)."""
    gan = TableGAN(tiny_gan_config)
    gan.fit(adult_bundle.train)
    return gan


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


class BlasThreadProbe:
    """Records ``(pid, BLAS threads)`` each time a wrapped method runs.

    Forked children inherit the wrapper, so the records cover worker
    processes too; each record is one ``O_APPEND`` write to a shared file.
    """

    def __init__(self, path, monkeypatch):
        self.path = str(path)
        self._monkeypatch = monkeypatch

    def wrap(self, owner, name: str) -> None:
        original = getattr(owner, name)
        path = self.path

        def probe(*args, **kwargs):
            line = f"{os.getpid()} {threads.blas_threads()}\n".encode()
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
            return original(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, probe)

    def records(self) -> list[tuple[int, int | None]]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as handle:
            return [(int(pid), None if count == "None" else int(count))
                    for pid, count in map(str.split, handle)]


@pytest.fixture()
def call_probe(tmp_path, monkeypatch):
    """A :class:`BlasThreadProbe` for counting calls, on any BLAS."""
    return BlasThreadProbe(tmp_path / "calls.log", monkeypatch)


@pytest.fixture()
def blas_probe(call_probe):
    """A :class:`BlasThreadProbe`; skips where numpy's BLAS is not OpenBLAS."""
    if threads.blas_threads() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS: no thread count to read")
    return call_probe
