"""
Semi-implicit backward Euler stepping for the regularized viscous
Cahn-Hilliard flow in coefficient space.

One step solves

    (I - eps*Lap) u+ - dt * Lap[ -Lap u+ + beta_lam(u+) + pi_split - g ]
        = (I - eps*Lap) u + noise_field

for the coefficients of u+.  The regularized graph beta_lam and the
reaction pi are evaluated pseudo-spectrally on the dealiased midpoint grid
by calling spectral's transform pair (``_synthesis``/``_analysis``) directly
on raw coefficient arrays.  The noise field of a step is whatever
``NoiseModel.increment_field`` returns for the pre-step state.
Under the default convex splitting the monotone part (beta_lam and the
biharmonic term) is implicit and the concave reaction is taken at the old
state, which makes the scheme unconditionally gradient-stable for the
regularized free energy; "fully_implicit" treats pi at the new state too.

The constant mode never appears in the spatial operator (mu_0 = 0), so its
update u+_D = u_D + mean(noise_field) is performed exactly; the reported
mean identity therefore holds to accumulated rounding only.

Newton's method runs matrix-free: the Jacobian is diagonal plus
dt * mu * (pointwise multiplication by the graph derivative on the grid).
A similarity transform by sqrt(mu) makes that operator symmetric positive
definite in the Parseval metric, so the linear solves use preconditioned
conjugate gradients (tolerance newton_tol/10, cap 500).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from . import monotone as mn
from .monotone import LipschitzPerturbation, MonotoneGraph
from .noise import NoiseModel
from .spectral import (
    Domain,
    SpectralField,
    _analysis,
    _synthesis,
    integrate_grid,
    neumann_eigensystem,
)

__all__ = [
    "NewtonDiverged",
    "StepRejected",
    "SolverConfig",
    "SolverState",
    "Trajectory",
    "initial_state",
    "step",
    "simulate",
    "free_energy",
    "free_energy_parts",
    "drift",
    "evolution_residual",
]


class NewtonDiverged(RuntimeError):
    """Newton iteration failed; carries the last residual norm."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StepRejected(RuntimeError):
    """A step kept failing after the allowed number of dt halvings."""

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


@dataclass(frozen=True)
class SolverConfig:
    """Everything the stepper needs besides the state itself.

    eps >= 0 is the viscous weight on the time derivative, lam > 0 the graph
    regularization.  source is an optional constant-in-time field g; a
    tabulated source_path (one field per step, evaluated at the step's end
    time) overrides it.
    """

    graph: MonotoneGraph
    perturbation: LipschitzPerturbation
    eps: float = 0.0
    lam: float = 1e-2
    dt: float = 1e-4
    t_final: float = 1e-2
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    cg_max_iter: int = 500
    splitting: str = "convex_splitting"
    source: Optional[SpectralField] = None
    source_path: Optional[tuple] = None
    max_rejections: int = 5

    def __post_init__(self):
        for name in ("eps", "lam", "dt", "t_final", "newton_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        if self.dt > self.t_final * (1.0 + 1e-12):
            raise ValueError("dt must not exceed t_final")
        if self.newton_tol < 1e-14:
            raise ValueError("newton_tol below 1e-14 is not resolvable in double precision")
        if self.splitting not in ("convex_splitting", "fully_implicit"):
            raise ValueError(f"unknown splitting {self.splitting!r}")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_final / self.dt - 1e-12))


@dataclass(frozen=True, eq=False)
class SolverState:
    """Solution snapshot plus the bookkeeping the diagnostics consume.

    w is the chemical potential actually used by the step that produced the
    state (under convex splitting its reaction part is evaluated at the
    previous state); xi is the projected regularized-graph value
    beta_lam(u).  noise_ledger accumulates the injected noise fields.
    """

    u: SpectralField
    w: SpectralField
    xi: SpectralField
    noise_ledger: SpectralField
    t: float
    step_index: int
    newton_iterations: int = 0
    newton_residuals: tuple = ()
    rejections: int = 0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States from t=0 to t_final together with their generating config."""

    states: tuple
    config: SolverConfig
    noise: Optional[NoiseModel] = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]


# ---------------------------------------------------------------------------
# the implicit solve


def _g_coeffs(config: SolverConfig, domain: Domain, step_index: int):
    if config.source_path is not None:
        path = config.source_path
        g = path[min(step_index, len(path) - 1)]
    else:
        g = config.source
    if g is None:
        return None
    if g.domain != domain:
        raise ValueError("source field lives on a different domain")
    return g.coeffs


def _solve_step(u_coeffs, noise_coeffs, config: SolverConfig, domain: Domain, dt: float,
                step_index: int):
    """Advance coefficients by one backward Euler step of length dt.

    Returns (new_coeffs, w_coeffs, xi_coeffs, iterations, residuals).
    """
    modes = domain.modes
    eig = neumann_eigensystem(domain)
    mu = eig.mu
    wgt = eig.weights
    sq = np.sqrt(wgt)
    sqmu = np.sqrt(mu)
    graph = config.graph
    pert = config.perturbation
    lam = config.lam
    implicit_pi = config.splitting == "fully_implicit"

    rhs = (1.0 + config.eps * mu) * u_coeffs
    if noise_coeffs is not None:
        rhs = rhs + noise_coeffs

    # explicit part of the bracket: reaction at the old state and the source
    gq = _g_coeffs(config, domain, step_index)
    if implicit_pi:
        q = np.zeros_like(u_coeffs)
    else:
        q = _analysis(pert.pi(_synthesis(u_coeffs, modes)), modes)
    if gq is not None:
        q = q - gq

    diag = (1.0 + config.eps * mu) + dt * mu * mu

    def bracket_and_residual(c):
        # one resolvent per iterate: beta_lam, the Jacobian weight and xi share J
        grid = _synthesis(c, modes)
        J = mn.resolvent(graph, lam, grid)
        xi = _analysis((grid - J) / lam, modes)
        b = xi + _analysis(pert.pi(grid), modes) if implicit_pi else xi
        w_co = mu * c + b + q
        return grid, J, xi, w_co, (1.0 + config.eps * mu) * c + dt * mu * w_co - rhs

    c = u_coeffs.copy()
    c.flat[0] = rhs.flat[0]  # exact mean update: the spatial operator kills mode 0

    residuals = []
    polish = 1
    converged = False
    for it in range(config.newton_max_iter + 2):
        grid, J, xi, w_co, F = bracket_and_residual(c)
        rnorm = float(np.sqrt(np.sum(wgt * F * F)))
        residuals.append(rnorm)
        if not np.isfinite(rnorm):
            raise NewtonDiverged("non-finite Newton residual", residual=rnorm)
        if rnorm <= config.newton_tol:
            # one extra update unless already at the rounding floor
            if polish == 0 or rnorm <= 1e-14:
                converged = True
                break
            polish -= 1
        elif it >= config.newton_max_iter:
            break

        rho = mn.yosida_derivative(graph, lam, grid, J)
        if implicit_pi and pert.pi_prime is not None:
            rho = rho + pert.pi_prime(grid)

        def matvec(yflat, rho=rho):
            y = yflat.reshape(domain.modes)
            t1 = sqmu * y / sq
            t2 = _analysis(rho * _synthesis(t1, modes), modes)
            return (diag * y + dt * sqmu * sq * t2).ravel()

        n_total = c.size
        A = LinearOperator((n_total, n_total), matvec=matvec, dtype=float)
        rho_bar = max(float(rho.mean()), 0.0)
        precond = 1.0 / (diag + dt * mu * rho_bar)
        M = LinearOperator((n_total, n_total),
                           matvec=lambda y: (precond * y.reshape(domain.modes)).ravel(),
                           dtype=float)
        bhat = np.zeros_like(F)
        nz = mu > 0
        bhat[nz] = -(sq[nz] * F[nz]) / sqmu[nz]
        x, _info = cg(A, bhat.ravel(), rtol=0.0, atol=config.newton_tol / 10.0,
                      maxiter=config.cg_max_iter, M=M)
        delta = sqmu * x.reshape(domain.modes) / sq
        c = c + delta

    if not converged:
        raise NewtonDiverged(
            f"Newton did not reach {config.newton_tol:g} in {config.newton_max_iter} iterations",
            residual=residuals[-1] if residuals else None,
        )

    return c, w_co, xi, len(residuals) - 1, tuple(residuals)


def _advance(u_coeffs, noise_coeffs, config, domain, dt, step_index, depth=0):
    """One step with rejection handling: on Newton failure split the interval.

    The noise increment belongs to the whole interval and is injected in the
    first substep, so the driving path (and the mean identity) is unchanged.
    """
    try:
        out = _solve_step(u_coeffs, noise_coeffs, config, domain, dt, step_index)
        return out + (depth,)
    except NewtonDiverged as err:
        if depth >= config.max_rejections:
            raise StepRejected(
                f"step {step_index} still fails after {depth} halvings: {err}",
                suggested_dt=dt / 2.0,
            ) from err
        half = dt / 2.0
        c1, _, _, it1, res1, d1 = _advance(
            u_coeffs, noise_coeffs, config, domain, half, step_index, depth + 1
        )
        c2, w2, xi2, it2, res2, d2 = _advance(
            c1, None, config, domain, half, step_index, depth + 1
        )
        return c2, w2, xi2, it1 + it2, res1 + res2, max(d1, d2)


def initial_state(u0: SpectralField, config: SolverConfig) -> SolverState:
    domain = u0.domain
    c = u0.coeffs
    eig = neumann_eigensystem(domain)
    grid = _synthesis(c, domain.modes)
    xi = _analysis(mn.yosida(config.graph, config.lam, grid), domain.modes)
    w = eig.mu * c + xi + _analysis(config.perturbation.pi(grid), domain.modes)
    g = _g_coeffs(config, domain, 0)
    if g is not None:
        w = w - g
    zero = SpectralField(domain, np.zeros(domain.modes))
    return SolverState(
        u=u0,
        w=SpectralField(domain, w),
        xi=SpectralField(domain, xi),
        noise_ledger=zero,
        t=0.0,
        step_index=0,
    )


def step(state: SolverState, config: SolverConfig,
         noise_field: Optional[SpectralField] = None) -> SolverState:
    """One backward Euler step driven by an already-assembled noise field."""
    domain = state.u.domain
    ncoef = None if noise_field is None else noise_field.coeffs
    if noise_field is not None and noise_field.domain != domain:
        raise ValueError("noise field lives on a different domain")
    c, w, xi, iters, residuals, rejections = _advance(
        state.u.coeffs, ncoef, config, domain, config.dt, state.step_index
    )
    ledger = state.noise_ledger.coeffs
    if ncoef is not None:
        ledger = ledger + ncoef
    return SolverState(
        u=SpectralField(domain, c),
        w=SpectralField(domain, w),
        xi=SpectralField(domain, xi),
        noise_ledger=SpectralField(domain, ledger),
        t=state.t + config.dt,
        step_index=state.step_index + 1,
        newton_iterations=iters,
        newton_residuals=residuals,
        rejections=rejections,
    )


def simulate(u0: SpectralField, config: SolverConfig,
             noise: Optional[NoiseModel] = None) -> Trajectory:
    """Integrate from u0 to t_final; returns every state including the first."""
    state = initial_state(u0, config)
    states = [state]
    for _ in range(config.n_steps):
        field = None
        if noise is not None:
            field = noise.increment_field(state.u, state.step_index, config.dt)[0]
        state = step(state, config, field)
        states.append(state)
    return Trajectory(states=tuple(states), config=config, noise=noise)


# ---------------------------------------------------------------------------
# functionals and residuals used by diagnostics and tests


def free_energy_parts(u: SpectralField, config: SolverConfig):
    """(gradient part, regularized well mass, reaction mass) of the free energy.

    The well mass integrates the Moreau envelope of beta_hat at the scheme's
    lam: that is the convex part the splitting is gradient-stable for.
    """
    domain = u.domain
    eig = neumann_eigensystem(domain)
    grad = 0.5 * float(np.sum(eig.weights * eig.mu * u.coeffs**2))
    grid = _synthesis(u.coeffs, domain.modes)
    well = integrate_grid(domain, mn.moreau_envelope(config.graph, config.lam, grid))
    reaction = integrate_grid(domain, config.perturbation.pi_hat(grid))
    return grad, well, reaction


def free_energy(u: SpectralField, config: SolverConfig) -> float:
    grad, well, reaction = free_energy_parts(u, config)
    return grad + well + reaction


def drift(v: SpectralField, config: SolverConfig, step_index: int = 0) -> SpectralField:
    """Drift operator applied to v, as a field of the truncated basis.

    A(v) = -Lap(-Lap v + beta_lam(v) + pi(v) - g); pairings against test
    fields are plain H inner products in the truncation.
    """
    domain = v.domain
    eig = neumann_eigensystem(domain)
    grid = _synthesis(v.coeffs, domain.modes)
    bracket = (
        eig.mu * v.coeffs
        + _analysis(mn.yosida(config.graph, config.lam, grid), domain.modes)
        + _analysis(config.perturbation.pi(grid), domain.modes)
    )
    g = _g_coeffs(config, domain, step_index)
    if g is not None:
        bracket = bracket - g
    return SpectralField(domain, eig.mu * bracket)


def evolution_residual(prev: SolverState, new: SolverState, config: SolverConfig,
                       noise_field: Optional[SpectralField] = None) -> float:
    """H-norm of the discrete evolution identity for one recorded step."""
    domain = new.u.domain
    eig = neumann_eigensystem(domain)
    res = (1.0 + config.eps * eig.mu) * (new.u.coeffs - prev.u.coeffs)
    res = res + config.dt * eig.mu * new.w.coeffs
    if noise_field is not None:
        res = res - noise_field.coeffs
    return float(np.sqrt(np.sum(eig.weights * res**2)))
