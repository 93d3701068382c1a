"""
Semi-implicit backward Euler stepping for the regularized viscous
Cahn-Hilliard flow in coefficient space.

One step solves

    (I - eps*Lap) u+ - dt * Lap[ -Lap u+ + beta_lam(u+) + pi_split - g ]
        = (I - eps*Lap) u + noise_field

for the coefficients of u+.  Only the regularized graph beta_lam is
evaluated pseudo-spectrally, on the dealiased midpoint grid, by the raw
transform pair that a solve looks up once (``spectral._transforms``) and
applies under its one errstate.  The reaction pi(r) = -s*r is diagonal in
the cosine basis and acts on coefficients.  One helper, ``_potential``,
builds xi = beta_lam(u) and the chemical potential w for Newton's iterates,
for the first row of a march and for ``drift``.  A march draws the noise of
a chunk of steps at once; a step's noise field is each member's row of its
chunk, modulated at the pre-step state.  A march holds its grid-sized
working arrays in one workspace (``_workspace``): its solves and noise
fields write their grid-sized results there, not into fresh arrays.
Under the default convex splitting the monotone part (beta_lam and the
biharmonic term) is implicit and the concave reaction is taken at the old
state, which makes the scheme unconditionally gradient-stable for the
regularized free energy; "fully_implicit" treats pi at the new state too.

The constant mode never appears in the spatial operator (mu_0 = 0), so
Newton's start c0 = u + (I - eps*Lap)^{-1} noise_field, the step's closed
form without that operator, makes the exact update u+_D = u_D +
mean(noise_field); the mean identity holds to accumulated rounding only.

Newton's method stops at the first iterate whose residual F has H-norm at
most newton_tol (in [1e-14, 1e-6]); a member still above it after newton_max_iter corrections
fails.  It runs matrix-free: the Jacobian is diagonal plus
dt * mu * (pointwise multiplication by the graph derivative on the grid).
A similarity transform by sqrt(mu) makes that operator symmetric positive
definite in the Parseval metric, so the linear solves use the in-repo
preconditioned conjugate gradients ``cg``, capped at cg_max_iter (default
500, at most 10000).  Each correction is solved to max(min(newton_tol,
|b|)/10, 1e-3 * min(1, |F|) * |b|) for its member's Newton residual F and
right-hand side b: an inexact Newton forcing term.  On grids of at least
_SINGLE_POINTS points the Yosida slope and the CG matvec's synthesis, slope
multiply and analysis are float32, in float32 views of the workspace; the
iterate, F and its stopping test, b, CG's vectors, dot products and
preconditioner and the noise stay float64, so a converged step meets
newton_tol as before.  A one-axis grid on the cosine-matrix route (1D, at
most 90 modes) folds CG's scaling maps into that pair once per step plan,
so its matvec is diag*y plus two matrix-vector products per member; every
other grid composes the maps with its transforms.

The solver core advances (B, *modes) member stacks: ``simulate`` marches one
row, a ``Batch`` the members of an ensemble, and each march stacks its rows
once, when it ends, into read-only (N+1, *modes) arrays of u, w and xi and an
(N+1,) array of the noise mean, the only part of the noise integral any check
reads.  Each member has its own Newton and CG convergence and leaves the
working set once done, and per-member scalars are sums over contiguous rows,
so a member equals its solo run bitwise.  A member whose Newton iteration
fails repeats the step alone by dt-halving, and the step records the failed
attempt's Newton iterations and residuals ahead of its halves'.  The solve
is silent on non-finite input: an overflow shows as a labelled
NewtonDiverged, which names its last residual, not as a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional

import numpy as np

from . import monotone as mn
from .monotone import LipschitzPerturbation, MonotoneGraph
from .noise import NoiseModel, _modulate, _profile_chunks
from .spectral import (
    Domain,
    SpectralField,
    _check_eps,
    _cosine_matrices,
    _grad_sq,
    _integer,
    _integrals,
    _on_matrices,
    _rows,
    _synthesis,
    _transforms,
    neumann_eigensystem,
)

__all__ = [
    "NewtonDiverged",
    "StepRejected",
    "SolverConfig",
    "SolverState",
    "Trajectory",
    "simulate",
    "Batch",
    "free_energy_parts",
    "drift",
    "evolution_residual",
]


class NewtonDiverged(RuntimeError):
    """Newton iteration failed; carries the last residual norm and names it."""

    def __init__(self, message, residual=None):
        if residual is not None:
            message = f"{message} (last residual {residual:.3e})"
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
        _check_eps(self.eps)
        mn._check_lam(self.lam)
        for name in ("dt", "t_final", "newton_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        if self.dt > self.t_final * (1.0 + 1e-12):
            raise ValueError("dt must not exceed t_final")
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(f"t_final / dt overflows: {self.t_final!r} / {self.dt!r}")
        # below 1e-14 a residual is not resolvable in double precision; above
        # 1e-6 Newton can accept its start on every step, and a run that does
        # not move passes every check (the evolution identity's bound is 10 tol)
        if not 1e-14 <= self.newton_tol <= 1e-6:
            raise ValueError(f"newton_tol must lie in [1e-14, 1e-6], got {self.newton_tol!r}")
        if self.splitting not in ("convex_splitting", "fully_implicit"):
            raise ValueError(f"unknown splitting {self.splitting!r}")
        # a failing step costs up to 1024 substeps x newton_max_iter x cg_max_iter
        # CG iterations; no correction took over 75 in the tests or 7 in the
        # benchmark workloads, so 10000 (20x the default) leaves room; a substep
        # below 2**-52 of its step is lost in the rounding of the step's time,
        # and _advance recurses once per halving
        for name, top in (("newton_max_iter", 100), ("cg_max_iter", 10_000),
                          ("max_rejections", 52)):
            if not 0 <= _integer(name, getattr(self, name)) <= top:
                raise ValueError(f"{name} must lie in [0, {top}], got {getattr(self, name)!r}")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_final / self.dt - 1e-12))


@dataclass(frozen=True, eq=False)
class SolverState:
    """One state as fields: a row of a Trajectory, built on request.

    w is the chemical potential actually used by the step that produced the
    state (under convex splitting its reaction part is evaluated at the
    previous state); xi is the projected regularized-graph value
    beta_lam(u).  noise_mean accumulates the means of the injected noise
    fields, the mean of the stochastic integral sum B dW.
    """

    u: SpectralField
    w: SpectralField
    xi: SpectralField
    noise_mean: float
    t: float
    step_index: int
    newton_iterations: int = 0
    newton_residuals: tuple = ()
    rejections: int = 0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run from t=0 to t_final as read-only stacks, with its generating config.

    u, w and xi are (N+1, *modes) arrays, noise_mean and times are (N+1,),
    one row per state as in SolverState; newton_iterations, newton_residuals
    and rejections hold one entry per step.  Indexing and iteration give the
    SolverState of a row, built on request.
    """

    domain: Domain
    u: np.ndarray
    w: np.ndarray
    xi: np.ndarray
    noise_mean: np.ndarray
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
        fields = (SpectralField(self.domain, a[n]) for a in (self.u, self.w, self.xi))
        effort = () if n == 0 else (self.newton_iterations[n - 1],
                                    self.newton_residuals[n - 1], self.rejections[n - 1])
        return SolverState(*fields, float(self.noise_mean[n]), float(self.times[n]), n,
                           *effort)


# ---------------------------------------------------------------------------
# the implicit solve


def _potential(c, react, config: SolverConfig, domain: Domain, mu, transforms,
               work=(None,) * 3):
    """(grid, J, xi, w) of a (B, *modes) coefficient stack c, for eigenvalues mu.

    grid holds c's values on the dealiased grid and J their resolvent;
    xi = beta_lam(c) and w = -Lap c + beta_lam(c) + pi(react) - g, with the
    reaction taken at react, and transforms = ``_transforms(domain.modes)``.
    work holds three (B, *grid) arrays that take grid, J and (grid - J) / lam,
    fresh ones when None.  Callers are silent (mn._silent).
    """
    g = config.source
    if g is not None and g.domain != domain:
        raise ValueError("source field lives on a different domain")
    synthesis, analysis = transforms
    grid = synthesis(c, work[0])
    J = mn.resolvent(config.graph, config.lam, grid, work[1])
    xi = analysis(np.divide(np.subtract(grid, J, out=work[2]), config.lam, out=work[2]))
    q = -config.perturbation.lipschitz * react
    if g is not None:
        q = q - g.coeffs
    return grid, J, xi, mu * c + xi + q


def cg(matvec, b, precond, atol, maxiter, callback=None):
    """Preconditioned conjugate gradients on a stack of SPD systems.

    b and the diagonal preconditioner are (B, n) stacks; matvec(p, rows)
    applies the operators of members ``rows``.  atol is a scalar or a (B,)
    array of per-member tolerances.  A member leaves the working set once
    |r| < atol or after maxiter updates; callback sees the active iterates
    after each update.  Returns (x, members that hit maxiter).
    """
    rows, r, pre = np.arange(len(b)), b.copy(), precond
    x = xa = np.zeros(b.shape)  # every member's row, and the active members' once one left
    for it in range(maxiter):
        done = np.sqrt(np.vecdot(r, r)) < atol
        if np.count_nonzero(done):
            if x is not xa:
                x[rows[done]] = xa[done]
            keep = np.nonzero(~done)[0]
            if not len(keep):
                return x, 0
            rows, xa, r, pre = rows[keep], xa[keep], r[keep], pre[keep]
            atol = atol[keep] if np.ndim(atol) else atol
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
    if x is not xa:
        x[rows] = xa
    return x, len(rows)


# CG stops a correction at _FORCING * min(1, |F|) of its initial residual: a
# forcing term proportional to |F| keeps Newton q-quadratic (Dembo, Eisenstat
# and Steihaug 1982); the looser min(0.1, |F|) and min(0.1, 0.01 |F|) cost
# extra Newton iterations and dt-halvings far from the root
_FORCING = 1e-3


@mn._silent
def _step_plan(domain: Domain, eps: float, dt: float) -> tuple:
    """Read-only constants of every step of length dt at viscosity eps.

    (mu, weights, to_b, to_c, visc, dtmu, diag, coupling, diag, dtmu), of
    which weights, to_b, to_c and the last two are flat.  CG's two maps are zero
    on the constant mode: b = to_b * F = -sqrt(weights / mu) F, update to_c * x.
    A one-axis grid whose transforms take the cosine matrices S and A (the
    rule is spectral's) appends the folded pair (S diag(to_c), diag(coupling)
    A), and CG's Jacobian action is then diag*y + A_c (rho * S_c y), one gemv
    per member each way.  Without the maps' multiplies, reshapes and
    transform dispatch a 64-mode matvec takes about 40 % less time on one
    member (9.2-10.1 against 15.7-16.5 us, one thread of a 2-core Xeon) and
    about 10 % less on a 16-member stack.
    """
    eig = neumann_eigensystem(domain)
    mu = eig.mu
    sq, sqmu = np.sqrt(eig.weights), np.sqrt(mu)
    visc, dtmu = 1.0 + eps * mu, dt * mu
    diag = visc + dtmu * mu
    to_b, to_c = (-sq / sqmu).ravel(), (sqmu / sq).ravel()
    to_b[0] = 0.0
    coupling = dt * sqmu * sq
    plan = (mu, eig.weights.ravel(), to_b, to_c, visc, dtmu, diag, coupling,
            diag.ravel(), dtmu.ravel())
    grid = tuple(2 * m for m in domain.modes)
    if domain.dimension == 1 and _on_matrices(domain.modes, grid):
        S, A = _cosine_matrices(*domain.modes, *grid)
        plan += (S * to_c, coupling[:, None] * A)
    for a in plan:
        a.setflags(write=False)
    return plan


# Grids of at least this many points run CG's Jacobian action in float32;
# Newton's residual, in float64, still decides when a step is done (Kelley,
# Newton's method in mixed precision, SIAM Review 2022).  At 4096 points a
# matvec takes 17-18 us in float32 against 22 in float64, a saving that
# shrinks to about 1 us at 1024 (measured at spectral._transforms).  Below
# the gate 1D and small 2D runs keep their float64 bits: without it 14 tests
# that pin such runs fail, the 1e-13 noisy linear mode recursion among them.
# The gate reads the grid alone, never the stack height, so a member keeps
# its solo run's route and bits
_SINGLE_POINTS = 4096


def _workspace(members: int, domain: Domain) -> np.ndarray:
    # three (members, *grid) slots, of which a solve of n members uses rows
    # [:n]: an iterate's grid, J and (grid - J) / lam; then the Yosida slope
    # in the third, bhat and the scaled matvec input in the second, and each
    # CG matvec's grid in the first.  On grids of _SINGLE_POINTS or more the
    # slope, the matvec's input and its grid are float32 halves (_single) of
    # these
    return np.empty((3, members) + tuple(2 * m for m in domain.modes))


def _single(a: np.ndarray) -> np.ndarray:
    # a float32 array of a's shape on the first half of each row's bytes of
    # a, a float64 stack whose rows are C-contiguous
    return _rows(a).view(np.float32)[:, :a[0].size].reshape(a.shape)


@mn._silent
def _solve_step(u, noise, config: SolverConfig, domain: Domain, plan, work):
    """Advance a (B, *modes) coefficient stack by one backward Euler step.

    plan is ``_step_plan(domain, config.eps, dt)`` for the step's length dt,
    which it alone carries, and work a ``_workspace`` of at least B members.
    Returns (c, w, xi, iterations, residuals, failed); the rows of c, w and
    xi of the members in failed, {member: NewtonDiverged}, are left unset.
    """
    mu, wgt, to_b, to_c, visc, dtmu, diag, coupling, diag_flat, dtmu_flat, *fold = plan
    modes = domain.modes
    transforms = _transforms(modes)
    single = work[0, 0].size >= _SINGLE_POINTS
    synthesis, analysis = _transforms(modes, dtype=np.float32) if single else transforms
    tol = config.newton_tol
    implicit_pi = config.splitting == "fully_implicit"

    rhs = visc * u
    if noise is not None:
        rhs = rhs + noise

    n = len(u)
    c = rhs / visc  # the step without its spatial operator; exact on mode 0, where visc = 1
    out = [np.empty_like(u) for _ in range(3)]
    residuals = [[] for _ in range(n)]
    failed = {}
    rows = np.arange(n)
    slots = tuple(work[:, :n])  # the active members' rows of the workspace
    for it in range(config.newton_max_iter + 1):
        # one resolvent per iterate: beta_lam, the Jacobian weight and xi share J
        grid, J, xi, w = _potential(c, c if implicit_pi else u, config, domain, mu, transforms,
                                    slots)
        F = _rows(visc * c + dtmu * w - rhs)
        rnorm = np.sqrt(np.vecdot(F, wgt * F))

        go = []
        for k, m in enumerate(rows.tolist()):
            res = float(rnorm[k])
            residuals[m].append(res)
            if not math.isfinite(res):
                failed[m] = NewtonDiverged("non-finite Newton residual", residual=res)
            elif res <= tol:
                out[0][m], out[1][m], out[2][m] = c[k], w[k], xi[k]
            elif it == config.newton_max_iter:
                failed[m] = NewtonDiverged(
                    f"Newton did not reach {tol:g} in {config.newton_max_iter} iterations",
                    residual=res)
            else:
                go.append(k)
        if not go:
            break
        if len(go) < len(rows):
            rows, c, F, rhs, u, rnorm = (a[go] for a in (rows, c, F, rhs, u, rnorm))
            slots = tuple(work[:, :len(go)])
            slots[0][:], slots[1][:] = grid[go], J[go]
            grid, J = slots[:2]

        vec = _rows(slots[1])[:, :2 * F.shape[1]].reshape(len(F), 2, -1)
        slope, t, v = slots[2], slots[0], vec[:, 1]
        if single:
            slope, t, v = _single(slope), _single(t), _single(v)
        rho = mn.yosida_derivative(config.graph, config.lam, grid, J, slope)
        if implicit_pi:
            rho -= config.perturbation.lipschitz
        # the row mean as numpy's mean computes it: the sum, then one division
        rho_bar = np.maximum(_rows(rho).sum(axis=1) / rho[0].size, 0.0)
        precond = 1.0 / (diag_flat + dtmu_flat * rho_bar[:, None])
        bhat = np.multiply(F, to_b, out=vec[:, 0])

        def matvec(y, active, rho=rho, t=t, v=v):
            if len(active) < len(rho):
                rho, t = rho[active], t[:len(active)]
            if fold:
                t = np.matvec(fold[0], y, out=t)
                t *= rho
                return diag * y + np.matvec(fold[1], t)
            shape = t.shape[:1] + modes
            t = synthesis(np.multiply(y, to_c, out=v[:len(y)]).reshape(shape), t)
            t *= rho
            return _rows(diag * y.reshape(shape) + coupling * analysis(t))

        # the floor follows |bhat| below tol: |F|_H can exceed |bhat| by up to
        # sqrt(max mu), and a fixed tol/10 would stall Newton just above tol
        eta = _FORCING * np.minimum(1.0, rnorm)
        bnorm = np.sqrt(np.vecdot(bhat, bhat))
        atol = np.maximum(np.minimum(tol, bnorm) / 10.0, eta * bnorm)
        x, _ = cg(matvec, bhat, precond, atol, config.cg_max_iter)
        x *= to_c
        c += x.reshape(c.shape)

    iterations = [len(r) - 1 for r in residuals]
    return out[0], out[1], out[2], iterations, residuals, failed


# sub-interval solves that the halvings of one member's step may take
_MAX_SUBSTEPS = 1024


def _advance(u, noise, config, domain, dt, step_index, plan, work, depth=0, spent=None):
    """One step of length dt of a member stack with rejection handling.

    A member whose Newton iteration fails repeats the interval alone, split
    in two halves.  The noise increment belongs to the whole interval and is
    injected in the first half, so the driving path (and the mean identity)
    is unchanged.  Both halves may split again, so a member's sub-interval
    solves, counted in the one-element list spent, are capped at
    _MAX_SUBSTEPS.  A halved member's iterations and residuals are those of
    its failed attempt followed by its halves', which share one step plan
    and the first row of work; plan is the ``_step_plan`` of dt and work a
    ``_workspace`` of at least B members.  Returns (c, w, xi, iterations,
    residuals, depths).
    """
    c, w, xi, iters, res, failed = _solve_step(u, noise, config, domain, plan, work)
    depths = [depth] * len(u)
    half = _step_plan(domain, config.eps, dt / 2.0) if failed else None
    for m, err in failed.items():
        count = [0] if spent is None else spent
        count[0] += 2
        if depth >= config.max_rejections or count[0] > _MAX_SUBSTEPS:
            raise StepRejected(
                f"step {step_index} still fails after {depth} halvings"
                f" and {count[0] - 2} substeps: {err}",
                suggested_dt=dt / 2.0,
            ) from err
        part, kick = u[m:m + 1], None if noise is None else noise[m:m + 1]
        for _ in range(2):
            part, wm, xim, it, r, d = _advance(part, kick, config, domain, dt / 2.0,
                                               step_index, half, work, depth + 1, count)
            iters[m], res[m], depths[m] = iters[m] + it[0], res[m] + r[0], max(depths[m], d[0])
            kick = None
        c[m], w[m], xi[m] = part[0], wm[0], xim[0]
    return c, w, xi, iters, res, depths


@mn._silent
def _trajectories(u0: SpectralField, config: SolverConfig, noises) -> list:
    # the trajectories of the members driven by noises, marched as one stack
    domain = u0.domain
    if len({n is None for n in noises}) > 1:
        raise ValueError("members with noise and members without cannot march as one stack")
    if any(n is not None and n.operator.domain != domain for n in noises):
        raise ValueError("noise field lives on a different domain")
    c = np.repeat(u0.coeffs[None], len(noises), axis=0)
    mean = np.zeros(len(noises))
    plan = _step_plan(domain, config.eps, config.dt)  # plan[0] is mu
    work = _workspace(len(noises), domain)
    _, _, xi, w = _potential(c[:1], c[:1], config, domain, plan[0], _transforms(domain.modes),
                             work[:, :1])
    fields = [[c], *([np.repeat(a, len(noises), axis=0)] for a in (w, xi)), [mean]]
    times, effort = [0.0], []
    profiles = None if noises[0] is None else chain.from_iterable(_profile_chunks(
        noises, _chunks(config.n_steps, max(1, _BATCH_BYTES // c.nbytes)), config.dt))
    for s in range(config.n_steps):
        field = None if profiles is None else _modulate(noises[0].operator, c, next(profiles),
                                                         work[:2])
        c, w, xi, iters, residuals, depths = _advance(c, field, config, domain, config.dt, s,
                                                      plan, work)
        mean = mean if field is None else mean + _rows(field)[:, 0]
        for rows, a in zip(fields, (c, w, xi, mean)):
            rows.append(a)
        effort.append((iters, [tuple(r) for r in residuals], depths))
        times.append(times[-1] + config.dt)
    # u, w and xi as (B, N+1, *modes) stacks and the noise mean as (B, N+1);
    # each field's rows go before the next field is stacked
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


# stacks of one Batch group, and the noise profiles a march draws at once:
# at most about this many bytes, or one member and one step
_BATCH_BYTES = 1 << 22

# states per chunk of grid-sized temporaries: about this many grid points
_CHUNK_POINTS = 4096


def _chunk_states(domain: Domain) -> int:
    return max(1, _CHUNK_POINTS // (2**domain.dimension * math.prod(domain.modes)))


def _chunks(count: int, size: int) -> list:
    # slices of range(count), size items each but the last
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


class Batch:
    """Members sharing u0 and config that step together as (B, *modes) stacks.

    ``simulate(u0, config, noise, batch)`` hands out the trajectory of the
    member driven by noise.  Members are integrated in groups of consecutive
    ``noises`` whose stacks take at most _BATCH_BYTES, or of one member, and
    only the trajectories of the last requested member's group are kept.
    """

    def __init__(self, u0: SpectralField, config: SolverConfig, noises):
        self.u0, self.config, self.noises = u0, config, tuple(noises)
        member = (3 * u0.coeffs.nbytes + 8) * (config.n_steps + 1)  # u, w, xi and mean rows
        self.size = max(1, _BATCH_BYTES // member)
        self._group, self._trajectories = None, None
        # each model object's row, found by identity; one listed twice keeps its first
        self._index = {id(n): m for m, n in reversed(tuple(enumerate(self.noises)))}

    def member(self, u0: SpectralField, config: SolverConfig,
               noise: Optional[NoiseModel]) -> Trajectory:
        """The trajectory of the member driven by ``noise``."""
        m = self._index.get(id(noise))
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


@mn._silent
def free_energy_parts(u: SpectralField, config: SolverConfig):
    """(gradient, regularized well, reaction) parts of the paper's regularized free energy.

    The well mass integrates the Moreau envelope of beta_hat at the scheme's
    lam: that is the convex part the splitting is gradient-stable for.
    """
    grid = _synthesis(u.coeffs, u.domain.modes)
    J = mn.resolvent(config.graph, config.lam, grid)
    parts = _energy_parts(u.coeffs[None], grid[None], J[None], u.domain, config)
    return tuple(float(p[0]) for p in parts)


def _energy_parts(c, grid, J, domain: Domain, config: SolverConfig):
    # free_energy_parts of every row of a (B, *modes) stack, given the grid
    # values the well needs and their resolvent; the reaction mass
    # -s/2 |c|_H^2 is exact by Parseval
    grad = 0.5 * _grad_sq(domain, c)
    well = _integrals(domain, mn.moreau_envelope(config.graph, config.lam, grid, J))
    weights = neumann_eigensystem(domain).weights
    reaction = -0.5 * config.perturbation.lipschitz * _rows(weights * c**2).sum(axis=1)
    return grad, well, reaction


@mn._silent
def drift(v: SpectralField, config: SolverConfig) -> SpectralField:
    """Drift operator applied to v, as a field of the truncated basis.

    A(v) = -Lap(-Lap v + beta_lam(v) + pi(v) - g); pairings against test
    fields are plain H inner products in the truncation.  An object of the
    paper: no run path calls it, and it states the operator the scheme
    discretizes.
    """
    mu = neumann_eigensystem(v.domain).mu
    w = _potential(v.coeffs, v.coeffs, config, v.domain, mu, _transforms(v.domain.modes))[3]
    return SpectralField(v.domain, mu * w)


@mn._silent
def evolution_residual(traj: Trajectory) -> np.ndarray:
    """H-norms of the discrete evolution identity, one per recorded step.

    Entry n is |(1 + eps*mu)(u_{n+1} - u_n) + dt*mu*w_{n+1} - B(u_n) dW_n|_H,
    the noise redrawn from traj.noise as the march draws it, in chunks of
    about _CHUNK_POINTS grid points.  A halved step meets the identity per
    substep, not over the step: no bound holds.
    """
    cfg, u, w, noise = traj.config, traj.u, traj.w, traj.noise
    eig = neumann_eigensystem(traj.domain)
    chunks = _chunks(len(u) - 1, _chunk_states(traj.domain))
    profiles = repeat(None) if noise is None else _profile_chunks((noise,), chunks, cfg.dt)
    out = np.empty(len(u) - 1)
    for now, chunk in zip(chunks, profiles):
        after = slice(now.start + 1, now.stop + 1)
        res = (1.0 + cfg.eps * eig.mu) * (u[after] - u[now])
        res = res + cfg.dt * eig.mu * w[after]
        if chunk is not None:
            res = res - _modulate(noise.operator, u[now], chunk[:, 0])
        out[now] = np.sqrt(_rows(eig.weights * res**2).sum(axis=1))
    return out
