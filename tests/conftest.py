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
