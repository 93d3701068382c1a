import numpy as np
import pytest

import svch.monotone as mn
import svch.spectral as sp
import svch.stepper as st


@pytest.fixture
def unit_domain():
    return sp.Domain((1.0,), (32,))


@pytest.fixture
def long_domain():
    # long enough that the first cosine mode sits in the unstable band of
    # the standard double well (eigenvalue below the reaction slope 1)
    return sp.Domain((10.0,), (64,))


@pytest.fixture
def plane_domain():
    return sp.Domain((1.0, 2.0), (8, 12))


@pytest.fixture
def quartic():
    return mn.make_graph("quartic_double_well")


@pytest.fixture
def neg_id():
    return mn.make_perturbation("negative_identity")


@pytest.fixture
def study_field(long_domain):
    c = np.zeros(long_domain.modes)
    c[0] = 0.05
    c[1] = 0.4
    c[2] = 0.2
    c[5] = 0.1
    return sp.SpectralField(long_domain, c)


def random_field(domain, rng, scale=1.0, decay=1.5, mean=None):
    """Random band-limited field with algebraically decaying coefficients."""
    eig = sp.neumann_eigensystem(domain)
    c = rng.standard_normal(domain.modes) * scale / (1.0 + eig.mu) ** decay
    if mean is not None:
        c.flat[0] = mean
    return sp.SpectralField(domain, c)


def collocation_points(domain, factor=2):
    """Midpoint grid coordinates, one meshgrid array per axis."""
    axes = [(np.arange(factor * m) + 0.5) * L / (factor * m)
            for L, m in zip(domain.lengths, domain.modes)]
    return tuple(np.meshgrid(*axes, indexing="ij"))


def apply_pointwise(field, f, factor=2):
    """Pseudo-spectral f(field): f on the dealiased grid, projected back."""
    return sp.from_grid(field.domain, f(sp.to_grid(field, factor)))


def make_config(graph, perturbation, **kw):
    """Solver config with test defaults; accepts names as well as objects."""
    if isinstance(graph, str):
        graph = mn.make_graph(graph)
    if isinstance(perturbation, str):
        perturbation = mn.make_perturbation(perturbation)
    elif isinstance(perturbation, tuple):
        perturbation = mn.make_perturbation(*perturbation)
    kw.setdefault("lam", 1e-2)
    kw.setdefault("dt", 1e-3)
    kw.setdefault("t_final", 0.05)
    kw.setdefault("newton_tol", 1e-11)
    return st.SolverConfig(graph=graph, perturbation=perturbation, **kw)
