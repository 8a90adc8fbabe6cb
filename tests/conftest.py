from concurrent import futures

import numpy as np
import pytest

from multiqf.bounds import ECCParams


def haar_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def ecc():
    return ECCParams.from_delta(0.78)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Records the ``max_workers`` of every thread pool created."""
    sizes = []
    real = futures.ThreadPoolExecutor

    def recording(max_workers=None, **kwargs):
        sizes.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", recording)
    return sizes
