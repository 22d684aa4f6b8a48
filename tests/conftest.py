import math
import threading

import numpy as np
import pytest

import torusgibbs as tg
from torusgibbs.sampling import ChainConfig, GaussianReference, PhaseDomain, run_pcn_chain

# Gibbs ensemble for the cubic NLS at half the uniform-convexity threshold
# 3/(14 pi^2 N), shared by
# the invariance and LSI acceptance criteria (n = 8, 10^4 samples).
NLS_MASS_BOUND = 4.0
NLS_LAM = 3.0 / (28.0 * math.pi ** 2 * NLS_MASS_BOUND)


def torusgibbs_threads() -> list:
    """The package's live worker threads: draw streams and flow parts."""
    return [t for t in threading.enumerate() if t.name.startswith("torusgibbs-")]


def successive_batches(reference, seed: int, count: int) -> np.ndarray:
    """The draws of reference.sample_blocks(seed, count) as the successive
    sample_batch calls of default_rng(seed), one per row block, concatenated."""
    rng = np.random.default_rng(seed)
    blocks = tg.spectral._row_blocks(count, 32 * math.prod(reference.lattice.shape))
    return np.concatenate([reference.sample_batch(rng, rows.stop - rows.start)
                           for rows in blocks])


@pytest.fixture(autouse=True)
def no_worker_thread_outlives_its_test():
    yield
    assert torusgibbs_threads() == []


@pytest.fixture(scope="session")
def nls_gibbs_ensemble():
    lattice = tg.Lattice(1, 8, 2)
    model = tg.NLS(4, NLS_LAM)
    reference = GaussianReference(lattice, 0.0, "complex")
    domain = PhaseDomain.mass_ball(NLS_MASS_BOUND)
    config = ChainConfig(steps=50000, burn_in=4000, thin=5, seed=11)
    ensemble, stats = run_pcn_chain(model, domain, reference, config)
    assert len(ensemble) == 10000
    return model, domain, reference, ensemble, stats


def rescale_into_ball(field, mass_bound, rng):
    """Scale a field to a uniformly random radius inside the mass ball."""
    scale = math.sqrt(mass_bound * rng.uniform()) / math.sqrt(max(field.mass(), 1e-300))
    out = scale * field
    out.reality = field.reality
    return out
