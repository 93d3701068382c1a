import numpy as np
import pytest

import svch.monotone as mn
import svch.noise as nz
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


def free_energy(u, config):
    """Total free energy: the sum of stepper.free_energy_parts."""
    grad, well, reaction = st.free_energy_parts(u, config)
    return grad + well + reaction


def columns_at(op, state):
    """Coefficients of B(state) e_k for every k, one unit increment at a time."""
    return np.stack([nz.apply_diffusion(op, state, e).coeffs for e in np.eye(op.mode_count)])


class NoConvergence(RuntimeError):
    """The conjugate's bracket search did not terminate."""


def golden_section_conjugate(graph, s):
    """Convex conjugate of beta_hat, sup_r { s*r - beta_hat(r) }, by search.

    The maximizer satisfies beta(r*) = s, so a bracket [-B, B] with
    beta(B) >= 10*|s| + 1 certainly contains it; B is found by doubling and
    the concave objective is then maximized by golden-section search.  The
    value is accurate to well below 1e-6 absolute for desk-scale arguments.
    It is nan at nan and +inf at s = +-inf and where s*r overflows at a
    probe, so where the supremum overflows or comes within about a decade
    of it; the doubling may pass the float range, so only a graph bounded by
    10*|s| + 1 raises NoConvergence.  graph needs only beta and beta_hat.
    This is the independent oracle for the graphs' closed-form conjugates.
    """
    with np.errstate(all="ignore"):
        arr = np.asarray(s, dtype=float)
        target = 10.0 * np.abs(arr) + 1.0
        B = np.ones_like(arr)
        while (need := graph.beta(B) < target).any():
            if np.isinf(B[need]).any():
                raise NoConvergence("conjugate bracket search did not terminate: "
                                    "the graph stays below 10*|s| + 1")
            B = np.where(need, 2.0 * B, B)

        lo = -B
        hi = B
        invphi = (np.sqrt(5.0) - 1.0) / 2.0

        def h(x):
            return arr * x - graph.beta_hat(x)

        tol = 1e-9 * (1.0 + B)
        lost = np.isinf(arr)
        for _ in range(400):
            if np.all(hi - lo <= tol):
                break
            c = hi - invphi * (hi - lo)
            d = lo + invphi * (hi - lo)
            hc = h(c)
            hd = h(d)
            # a probe at which s*x overflows reads +inf or nan and misleads the
            # search: the supremum is then near or past the float range
            lost |= ~(hc < np.inf) | ~(hd < np.inf)
            # keep the subinterval containing the larger probe value; where both
            # read -inf (beta_hat overflows), the one nearer h(0) = 0
            pick_c = np.where((hc == -np.inf) & (hd == -np.inf), d > 0, hc >= hd)
            hi = np.where(pick_c, d, hi)
            lo = np.where(pick_c, lo, c)
        out = np.maximum(h(0.5 * (lo + hi)), 0.0)  # sup >= h(0) = 0
        out = np.where(lost & ~np.isnan(arr), np.inf, out)
        return float(out) if arr.ndim == 0 else out


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
