import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

import shorsim.qft as qft_mod


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a complex Gaussian."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state_vector(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return (amps / np.linalg.norm(amps)).astype(np.complex128)


@contextmanager
def traced_peak():
    """Trace allocations in the block; on exit ``.bytes`` is their peak above the start.

    numpy reports its buffers to tracemalloc, so array allocations count.
    """
    peak = SimpleNamespace(bytes=None)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        yield peak
        peak.bytes = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@contextmanager
def patched_ladder(mutate):
    """Run the block with the QFT ladder of every width ``k`` replaced by ``mutate(ops)``.

    ``ops`` is the true ladder tuple ``qft._qft_ops(k)``.  The walk's plans are
    cleared on entry and on exit, so the block walks the mutated ladder and no
    plan decoded from it outlives the block.
    """
    true_ops = qft_mod._qft_ops
    qft_mod._plan.cache_clear()
    qft_mod._qft_ops = lambda k: tuple(mutate(true_ops(k)))
    try:
        yield
    finally:
        qft_mod._qft_ops = true_ops
        qft_mod._plan.cache_clear()


def assert_bitwise_equal(got, expect):
    """Equal as raw 64-bit words: every bit of every float, signed zeros included."""
    np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


class StubRng:
    """Stands in for ``numpy.random.Generator``: every uniform draw is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
