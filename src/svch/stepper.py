"""
Semi-implicit backward Euler stepping for the regularized viscous
Cahn-Hilliard flow in coefficient space.

One step solves

    (I - eps*Lap) u+ - dt * Lap[ -Lap u+ + beta_lam(u+) + pi_split - g ]
        = (I - eps*Lap) u + noise_field

for the coefficients of u+.  The regularized graph beta_lam and the
reaction pi are evaluated pseudo-spectrally on the dealiased midpoint grid
by calling spectral's transform pair (``_synthesis``/``_analysis``) directly
on raw coefficient arrays.  The noise field of a step is the row that
``noise.increment_stack`` returns for the pre-step state.
Under the default convex splitting the monotone part (beta_lam and the
biharmonic term) is implicit and the concave reaction is taken at the old
state, which makes the scheme unconditionally gradient-stable for the
regularized free energy; "fully_implicit" treats pi at the new state too.

The constant mode never appears in the spatial operator (mu_0 = 0), so
Newton's start c0 = u + (I - eps*Lap)^{-1} noise_field, the step's closed
form without that operator, makes the exact update u+_D = u_D +
mean(noise_field); the mean identity holds to accumulated rounding only.

Newton's method stops at the first iterate whose residual F has H-norm at
most newton_tol; a member still above it after newton_max_iter corrections
fails.  It runs matrix-free: the Jacobian is diagonal plus
dt * mu * (pointwise multiplication by the graph derivative on the grid).
A similarity transform by sqrt(mu) makes that operator symmetric positive
definite in the Parseval metric, so the linear solves use the in-repo
preconditioned conjugate gradients ``cg`` (cap 500).  Each correction is
solved to max(newton_tol/10, 1e-3 * min(1, |F|) * |b|) for its member's
Newton residual F and right-hand side b: an inexact Newton forcing term.

The solver core advances (B, *modes) member stacks: ``simulate`` marches one
row, a ``Batch`` the members of an ensemble, and each march stacks its rows
into read-only (N+1, *modes) trajectory arrays once, when it ends.  Each
member has its own Newton and CG convergence and leaves the working set once
done, and per-member scalars are sums over contiguous rows, so a member
equals its solo run bitwise.  A member whose Newton iteration fails
repeats the step alone by dt-halving.  The solve is silent on non-finite
input: an overflow shows as a labelled NewtonDiverged, not as a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import monotone as mn
from .monotone import LipschitzPerturbation, MonotoneGraph
from .noise import NoiseModel, increment_stack
from .spectral import (
    Domain,
    SpectralField,
    _analysis,
    _integrals,
    _rows,
    _synthesis,
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
    "Batch",
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


# hypotheses the solver parameters stand for, named by their rejections
_LABELS = {"lam": ", violates (H2)", "eps": ", violates (H4)"}


@dataclass(frozen=True)
class SolverConfig:
    """Everything the stepper needs besides the state itself.

    eps >= 0 is the viscous weight on the time derivative, lam > 0 the graph
    regularization.  source is an optional constant-in-time field g.
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
    max_rejections: int = 5

    def __post_init__(self):
        for name in ("eps", "lam", "dt", "t_final", "newton_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}{_LABELS.get(name, '')}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps!r}{_LABELS['eps']}")
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam!r}{_LABELS['lam']}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        if self.dt > self.t_final * (1.0 + 1e-12):
            raise ValueError("dt must not exceed t_final")
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(f"t_final / dt overflows: {self.t_final!r} / {self.dt!r}")
        if self.newton_tol < 1e-14:
            raise ValueError("newton_tol below 1e-14 is not resolvable in double precision")
        if self.splitting not in ("convex_splitting", "fully_implicit"):
            raise ValueError(f"unknown splitting {self.splitting!r}")
        # a failing step spends newton_max_iter on each of up to 1024 substeps
        for name, top in (("newton_max_iter", 100), ("cg_max_iter", math.inf)):
            if not 0 <= getattr(self, name) <= top:
                raise ValueError(f"{name} must lie in [0, {top}], got {getattr(self, name)!r}")
        # a substep below 2**-52 of its step is lost in the rounding of the
        # step's time; _advance also recurses once per halving
        if not 0 <= self.max_rejections <= 52:
            raise ValueError(f"max_rejections must lie in [0, 52], got {self.max_rejections!r}")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_final / self.dt - 1e-12))


@dataclass(frozen=True, eq=False)
class SolverState:
    """One state as fields: the input and output of ``step``, and a row of a Trajectory.

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
    """A run from t=0 to t_final as read-only stacks, with its generating config.

    u, w, xi and noise_ledger are (N+1, *modes) arrays and times is (N+1,),
    one row per state as in SolverState; newton_iterations, newton_residuals
    and rejections hold one entry per step.  Indexing and iteration give the
    SolverState of a row, built on request.
    """

    domain: Domain
    u: np.ndarray
    w: np.ndarray
    xi: np.ndarray
    noise_ledger: np.ndarray
    times: np.ndarray
    newton_iterations: tuple
    newton_residuals: tuple
    rejections: tuple
    config: SolverConfig
    noise: Optional[NoiseModel] = None

    @property
    def states(self) -> tuple:
        return tuple(self)

    def __iter__(self):
        return (self[n] for n in range(len(self)))

    def __len__(self):
        return len(self.times)

    def __getitem__(self, n) -> SolverState:
        n = range(len(self))[n]
        fields = (SpectralField(self.domain, a[n]) for a in (self.u, self.w, self.xi,
                                                             self.noise_ledger))
        effort = () if n == 0 else (self.newton_iterations[n - 1],
                                    self.newton_residuals[n - 1], self.rejections[n - 1])
        return SolverState(*fields, float(self.times[n]), n, *effort)


# ---------------------------------------------------------------------------
# the implicit solve


def _g_coeffs(config: SolverConfig, domain: Domain):
    g = config.source
    if g is None:
        return None
    if g.domain != domain:
        raise ValueError("source field lives on a different domain")
    return g.coeffs


def cg(matvec, b, precond, atol, maxiter, callback=None):
    """Preconditioned conjugate gradients on a stack of SPD systems.

    b and the diagonal preconditioner are (B, n) stacks; matvec(p, rows)
    applies the operators of members ``rows``.  atol is a scalar or a (B,)
    array of per-member tolerances.  A member leaves the working set once
    |r| < atol or after maxiter updates; callback sees the active iterates
    after each update.  Returns (x, members that hit maxiter).
    """
    x = np.empty_like(b)
    rows = np.arange(len(b))
    xa, r, pre = np.zeros_like(b), b.copy(), precond
    atol = np.broadcast_to(atol, rows.shape)
    p = rho_prev = None
    for it in range(maxiter):
        done = np.sqrt(np.vecdot(r, r)) < atol
        if done.any():
            x[rows[done]] = xa[done]
            keep = np.flatnonzero(~done)
            if not len(keep):
                return x, 0
            rows, xa, r, pre, atol = rows[keep], xa[keep], r[keep], pre[keep], atol[keep]
            if it:
                p, rho_prev = p[keep], rho_prev[keep]
        z = pre * r
        rho = np.vecdot(r, z)
        if it:
            p *= (rho / rho_prev)[:, None]
            p += z
        else:
            p = z
        q = matvec(p, rows)
        alpha = (rho / np.vecdot(p, q))[:, None]
        xa += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(xa)
    x[rows] = xa
    return x, len(rows)


# CG stops a correction at _FORCING * min(1, |F|) of its initial residual: a
# forcing term proportional to |F| keeps Newton q-quadratic (Dembo, Eisenstat
# and Steihaug 1982); the looser min(0.1, |F|) and min(0.1, 0.01 |F|) cost
# extra Newton iterations and dt-halvings far from the root
_FORCING = 1e-3


@mn._silent
def _solve_step(u, noise, config: SolverConfig, domain: Domain, dt: float):
    """Advance a (B, *modes) coefficient stack by one backward Euler step of length dt.

    Returns (c, w, xi, iterations, residuals, failed); the rows of c, w and
    xi of the members in failed, {member: NewtonDiverged}, are left unset.
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
    tol = config.newton_tol
    implicit_pi = config.splitting == "fully_implicit"

    visc = 1.0 + config.eps * mu
    dtmu = dt * mu
    rhs = visc * u
    if noise is not None:
        rhs = rhs + noise

    # explicit part of the bracket: reaction at the old state and the source
    gq = _g_coeffs(config, domain)
    if implicit_pi:
        q = np.zeros_like(u)
    else:
        q = _analysis(pert.pi(_synthesis(u, modes)), modes)
    if gq is not None:
        q = q - gq

    diag = visc + dtmu * mu
    coupling = dt * sqmu * sq

    n = len(u)
    c = rhs / visc  # the step without its spatial operator; exact on mode 0, where visc = 1
    out = [np.empty_like(u) for _ in range(3)]
    residuals = [[] for _ in range(n)]
    failed = {}
    rows = np.arange(n)
    for it in range(config.newton_max_iter + 1):
        # one resolvent per iterate: beta_lam, the Jacobian weight and xi share J
        grid = _synthesis(c, modes)
        J = mn.resolvent(graph, lam, grid)
        xi = _analysis((grid - J) / lam, modes)
        b = xi + _analysis(pert.pi(grid), modes) if implicit_pi else xi
        w_co = mu * c + b + q
        F = visc * c + dtmu * w_co - rhs
        rnorm = np.sqrt(_rows(wgt * F * F).sum(axis=1))

        go = []
        for k, m in enumerate(rows.tolist()):
            res = float(rnorm[k])
            residuals[m].append(res)
            if not math.isfinite(res):
                failed[m] = NewtonDiverged("non-finite Newton residual", residual=res)
            elif res <= tol:
                out[0][m], out[1][m], out[2][m] = c[k], w_co[k], xi[k]
            elif it == config.newton_max_iter:
                failed[m] = NewtonDiverged(
                    f"Newton did not reach {tol:g} in {config.newton_max_iter} iterations",
                    residual=res)
            else:
                go.append(k)
        if not go:
            break
        if len(go) < len(rows):
            rows, c, grid, J, F, rhs, q, rnorm = (
                a[go] for a in (rows, c, grid, J, F, rhs, q, rnorm))

        rho = mn.yosida_derivative(graph, lam, grid, J)
        if implicit_pi and pert.pi_prime is not None:
            rho = rho + pert.pi_prime(grid)
        rho_bar = np.maximum(_rows(rho).mean(axis=1), 0.0)
        precond = 1.0 / (diag.ravel() + dtmu.ravel() * rho_bar[:, None])
        bhat = np.zeros((len(rows), c[0].size))
        # mu > 0 on every mode but the constant one, flat index 0
        bhat[:, 1:] = -(sq.ravel()[1:] * _rows(F)[:, 1:]) / sqmu.ravel()[1:]

        def matvec(y, active, rho=rho):
            weight = rho if len(active) == len(rho) else rho[active]
            y = y.reshape((len(y),) + modes)
            t2 = _analysis(weight * _synthesis(sqmu * y / sq, modes), modes)
            return _rows(diag * y + coupling * t2)

        eta = _FORCING * np.minimum(1.0, rnorm)
        atol = np.maximum(tol / 10.0, eta * np.sqrt(np.vecdot(bhat, bhat)))
        x, _ = cg(matvec, bhat, precond, atol, config.cg_max_iter)
        c = c + sqmu * x.reshape(c.shape) / sq

    iterations = [len(r) - 1 for r in residuals]
    return out[0], out[1], out[2], iterations, residuals, failed


# sub-interval solves that the halvings of one member's step may take
_MAX_SUBSTEPS = 1024


def _advance(u, noise, config, domain, dt, step_index, depth=0, spent=None):
    """One step of a member stack with rejection handling.

    A member whose Newton iteration fails repeats the interval alone, split
    in two halves.  The noise increment belongs to the whole interval and is
    injected in the first half, so the driving path (and the mean identity)
    is unchanged.  Both halves may split again, so a member's sub-interval
    solves, counted in the one-element list spent, are capped at
    _MAX_SUBSTEPS.  Returns (c, w, xi, iterations, residuals, depths).
    """
    c, w, xi, iters, res, failed = _solve_step(u, noise, config, domain, dt)
    depths = [depth] * len(u)
    for m, err in failed.items():
        count = [0] if spent is None else spent
        count[0] += 2
        if depth >= config.max_rejections or count[0] > _MAX_SUBSTEPS:
            raise StepRejected(
                f"step {step_index} still fails after {depth} halvings"
                f" and {count[0] - 2} substeps: {err}",
                suggested_dt=dt / 2.0,
            ) from err
        half = dt / 2.0
        row = slice(m, m + 1)
        c1, _, _, it1, res1, d1 = _advance(
            u[row], None if noise is None else noise[row], config, domain, half,
            step_index, depth + 1, count
        )
        c2, w2, xi2, it2, res2, d2 = _advance(
            c1, None, config, domain, half, step_index, depth + 1, count
        )
        c[m], w[m], xi[m] = c2[0], w2[0], xi2[0]
        iters[m], res[m], depths[m] = it1[0] + it2[0], res1[0] + res2[0], max(d1[0], d2[0])
    return c, w, xi, iters, res, depths


@mn._silent
def _chemical_potential(c: np.ndarray, config: SolverConfig, domain: Domain):
    # (w, xi) at coefficients c: w = -Lap c + beta_lam(c) + pi(c) - g, xi = beta_lam(c)
    eig = neumann_eigensystem(domain)
    grid = _synthesis(c, domain.modes)
    xi = _analysis(mn.yosida(config.graph, config.lam, grid), domain.modes)
    w = eig.mu * c + xi + _analysis(config.perturbation.pi(grid), domain.modes)
    g = _g_coeffs(config, domain)
    return (w if g is None else w - g), xi


def initial_state(u0: SpectralField, config: SolverConfig) -> SolverState:
    w, xi = _chemical_potential(u0.coeffs, config, u0.domain)
    return SolverState(u0, *(SpectralField(u0.domain, a)
                             for a in (w, xi, np.zeros(u0.domain.modes))), 0.0, 0)


def step(state: SolverState, config: SolverConfig,
         noise_field: Optional[SpectralField] = None) -> SolverState:
    """One backward Euler step driven by an already-assembled noise field."""
    domain = state.u.domain
    if noise_field is not None and noise_field.domain != domain:
        raise ValueError("noise field lives on a different domain")
    field = None if noise_field is None else noise_field.coeffs[None]
    c, w, xi, iters, residuals, depths = (x[0] for x in _advance(
        state.u.coeffs[None], field, config, domain, config.dt, state.step_index))
    ledger = state.noise_ledger.coeffs
    if field is not None:
        ledger = ledger + field[0]
    return SolverState(*(SpectralField(domain, a) for a in (c, w, xi, ledger)),
                       state.t + config.dt, state.step_index + 1, iters, tuple(residuals),
                       depths)


def _trajectories(u0: SpectralField, config: SolverConfig, noises) -> list:
    # the trajectories of the members driven by noises, marched as one stack
    domain = u0.domain
    if any(n is not None and n.operator.domain != domain for n in noises):
        raise ValueError("noise field lives on a different domain")
    c = np.repeat(u0.coeffs[None], len(noises), axis=0)
    ledger = np.zeros_like(c)
    fields = [[c], *([np.repeat(a[None], len(noises), axis=0)]
                     for a in _chemical_potential(u0.coeffs, config, domain)), [ledger]]
    times, effort = [0.0], []
    for s in range(config.n_steps):
        field = None if noises[0] is None else increment_stack(noises, c, s, config.dt)
        c, w, xi, iters, residuals, depths = _advance(c, field, config, domain, config.dt, s)
        ledger = ledger if field is None else ledger + field
        for rows, a in zip(fields, (c, w, xi, ledger)):
            rows.append(a)
        effort.append((iters, [tuple(r) for r in residuals], depths))
        times.append(times[-1] + config.dt)
    # u, w, xi and ledger as (B, N+1, *modes) stacks; each field's rows go
    # before the next field is stacked
    stacks = [np.stack(fields.pop(0), axis=1) for _ in range(4)]
    times = np.array(times)
    for a in (*stacks, times):
        a.setflags(write=False)
    effort = list(zip(*effort))  # iterations, residuals and rejections: N lists of B
    return [Trajectory(domain, *(a[m] for a in stacks), times,
                       *(tuple(step[m] for step in column) for column in effort),
                       config, noise)
            for m, noise in enumerate(noises)]


def simulate(u0: SpectralField, config: SolverConfig,
             noise: Optional[NoiseModel] = None, batch: Optional["Batch"] = None) -> Trajectory:
    """Integrate from u0 to t_final; the Trajectory holds every state, the first included.

    With ``batch``, a ``Batch`` of members sharing u0 and config with
    ``noise`` among them, the trajectory is this member's rows of the batch.
    """
    if batch is None:
        return _trajectories(u0, config, (noise,))[0]
    return batch.member(u0, config, noise)


# stacks of one Batch group: at most about this many bytes, or one member
_BATCH_BYTES = 1 << 22


class Batch:
    """Members sharing u0 and config that step together as (B, *modes) stacks.

    ``simulate(u0, config, noise, batch)`` hands out the trajectory of the
    member driven by noise.  Members are integrated in groups of consecutive
    ``noises`` whose stacks take at most _BATCH_BYTES, or of one member, and
    only the trajectories of the last requested member's group are kept.
    """

    def __init__(self, u0: SpectralField, config: SolverConfig, noises):
        self.u0, self.config, self.noises = u0, config, tuple(noises)
        member = 4 * (config.n_steps + 1) * u0.coeffs.nbytes  # u, w, xi and ledger rows
        self.size = max(1, _BATCH_BYTES // member)
        self._group, self._trajectories = None, None

    def member(self, u0: SpectralField, config: SolverConfig,
               noise: Optional[NoiseModel]) -> Trajectory:
        """The trajectory of the member driven by ``noise``."""
        m = next((k for k, n in enumerate(self.noises) if n is noise), None)
        if u0 is not self.u0 or config is not self.config or m is None:
            raise ValueError("the member does not belong to this batch")
        group, row = divmod(m, self.size)
        if group != self._group:
            self._trajectories = None  # the previous group goes before the next is integrated
            lo = group * self.size
            self._trajectories = _trajectories(u0, config, self.noises[lo:lo + self.size])
            self._group = group
        return self._trajectories[row]


# ---------------------------------------------------------------------------
# functionals and residuals used by diagnostics and tests


def free_energy_parts(u: SpectralField, config: SolverConfig):
    """(gradient part, regularized well mass, reaction mass) of the free energy.

    The well mass integrates the Moreau envelope of beta_hat at the scheme's
    lam: that is the convex part the splitting is gradient-stable for.
    """
    grid = _synthesis(u.coeffs, u.domain.modes)
    J = mn.resolvent(config.graph, config.lam, grid)
    parts = _energy_parts(u.coeffs[None], grid[None], J[None], u.domain, config)
    return tuple(float(p[0]) for p in parts)


def _energy_parts(c, grid, J, domain: Domain, config: SolverConfig):
    # free_energy_parts of every row of a (B, *modes) stack, given its grid
    # values and their resolvent
    eig = neumann_eigensystem(domain)
    grad = 0.5 * _rows(eig.weights * eig.mu * c**2).sum(axis=1)
    well = _integrals(domain, mn.moreau_envelope(config.graph, config.lam, grid, J))
    reaction = _integrals(domain, config.perturbation.pi_hat(grid))
    return grad, well, reaction


def drift(v: SpectralField, config: SolverConfig) -> SpectralField:
    """Drift operator applied to v, as a field of the truncated basis.

    A(v) = -Lap(-Lap v + beta_lam(v) + pi(v) - g); pairings against test
    fields are plain H inner products in the truncation.  An object of the
    paper: no run path calls it, and it states the operator the scheme
    discretizes.
    """
    w, _ = _chemical_potential(v.coeffs, config, v.domain)
    return SpectralField(v.domain, neumann_eigensystem(v.domain).mu * w)


def evolution_residual(prev: SolverState, new: SolverState, config: SolverConfig,
                       noise_field: Optional[SpectralField] = None) -> float:
    """H-norm of the discrete evolution identity for one recorded step."""
    noise = None if noise_field is None else noise_field.coeffs[None]
    return float(_evolution_residuals(new.u.domain, config, prev.u.coeffs[None],
                                      new.u.coeffs[None], new.w.coeffs[None], noise)[0])


def _evolution_residuals(domain: Domain, config: SolverConfig, prev, new, w, noise):
    # evolution_residual of every row of (B, *modes) stacks: the pre-step u,
    # the post-step u and w, and the step's noise fields
    eig = neumann_eigensystem(domain)
    res = (1.0 + config.eps * eig.mu) * (new - prev)
    res = res + config.dt * eig.mu * w
    if noise is not None:
        res = res - noise
    return np.sqrt(_rows(eig.weights * res**2).sum(axis=1))
