import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def force_threads(monkeypatch):
    """force_threads(module, k): module's calls of the row pool run on k
    threads (fewer only when there are fewer rows), whatever cap the module
    passes and however many CPUs the process may run on."""
    from hurstmodes import wavelet

    real = wavelet._each_row

    def force(module, k: int) -> None:
        monkeypatch.setattr(wavelet, "_cpu_count", lambda: k)
        monkeypatch.setattr(module, "_each_row", lambda p, cap, work: real(p, k, work))

    return force
