import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def random_spec(rng, n, coupling_scale=1.0, field_scale=1.0):
    """A random symmetric model with couplings in +/-coupling_scale."""
    import ising_trinity as it

    upper = rng.uniform(-coupling_scale, coupling_scale, (n, n))
    sigma = np.triu(upper, k=1)
    sigma = sigma + sigma.T
    delta = rng.uniform(-field_scale, field_scale, n)
    return it.ModelSpec(delta=delta, sigma=sigma)


def low_rank_spec(rng, n, rank, field_scale=1.0):
    """A model whose canonically shifted couplings have the given rank.

    Rows of a random loading matrix are normalized to unit length, so the
    Gram matrix has a constant unit diagonal; subtracting it leaves symmetric
    couplings whose minimal PSD shift is exactly 1 and whose shifted rank is
    the loading rank.
    """
    import ising_trinity as it

    loadings = rng.normal(size=(n, rank))
    loadings /= np.linalg.norm(loadings, axis=1, keepdims=True)
    sigma = loadings @ loadings.T
    np.fill_diagonal(sigma, 0.0)
    delta = rng.uniform(-field_scale, field_scale, n)
    return it.ModelSpec(delta=delta, sigma=sigma)


def near_uniform_spec():
    """n = 20, zero fields, couplings in +/-0.001: every probability is near 2**-20.

    A 1e-6 intercept fault moves such a table by TV 5e-7 but by max_abs only
    9.8e-13, so only a TV verdict sees it.
    """
    import ising_trinity as it

    upper = np.triu(np.random.default_rng(1).uniform(-0.001, 0.001, (20, 20)), 1)
    return it.ModelSpec(delta=np.zeros(20), sigma=upper + upper.T)


def frozen_site_spec():
    """n = 12 with first intercept 8: x_1 is +1 but for odds of about 1e-7.

    A 1e-6 intercept fault on x_1 moves the table by a TV of only 6.8e-14,
    below what any verdict at a 1e-12 bound can show.
    """
    import ising_trinity as it

    rng = np.random.default_rng(12)
    upper = np.triu(rng.uniform(-0.5, 0.5, (12, 12)), 1)
    delta = rng.uniform(-0.5, 0.5, 12)
    delta[0] = 8.0
    return it.ModelSpec(delta=delta, sigma=upper + upper.T)


def rank2_spec():
    """The n = 5, rank-2 model of CI's ``rank2.json``."""
    import ising_trinity as it

    return it.ModelSpec(
        delta=np.array([0.2, -0.1, 0.3, 0.0, -0.25]),
        sigma=np.array([[0.0, 0.0, 0.3, 0.4, -0.3], [0.0, 0.0, 0.4, -0.3, 0.4],
                        [0.3, 0.4, 0.0, 0.0, 0.14], [0.4, -0.3, 0.0, 0.0, -0.48],
                        [-0.3, 0.4, 0.14, -0.48, 0.0]]),
    )


def effect_pairs(cf):
    """A collider form's effects as the oracles take them: ``(lam, q)``, floats and lists."""
    return list(zip(cf.lams.tolist(), cf.dirs.T.tolist()))


def cause_only(delta):
    """A collider form with no effects: the causes alone."""
    import ising_trinity as it

    return it.ColliderForm(delta=delta, lams=np.zeros(0), dirs=np.zeros((len(delta), 0)))
