"""
Diagnostics and convergence studies built on top of the solver.

Everything here consumes trajectories from ``stepper.simulate`` and reduces
them to per-step diagnostic columns, pathwise norms, and sweep reports.  Every
reduction reads the trajectory's (N+1, *modes) stacks, or slices of them, never
state by state.  Pathwise L2(0,T; X) norms use the trapezoid rule over the
recorded step times; sweeps share the driving noise across runs by reusing the
(seed, step, mode) keyed increments, so refinement studies compare solutions
of the same stochastic realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import monotone as mn
from .monotone import polynomial_degree
from .noise import DiffusionOperator, NoiseModel, WienerProcess, increment_stack
from .spectral import (
    SpectralField,
    _integrals,
    _norms,
    _rows,
    _synthesis,
    neumann_eigensystem,
    norm,
)
from .stepper import (
    Batch,
    SolverConfig,
    Trajectory,
    _energy_parts,
    _evolution_residuals,
    simulate,
)

__all__ = [
    "NonFinite",
    "PreconditionViolated",
    "GrowthMismatch",
    "Assertion",
    "DIAGNOSTIC_FIELDS",
    "SweepReport",
    "ProblemData",
    "run_diagnostics",
    "check_invariants",
    "path_l2_distance",
    "sup_norm",
    "continuous_dependence_study",
    "vanishing_viscosity_study",
    "yosida_convergence_study",
    "ensemble_expectations",
    "member_seed",
    "regularity_monitor",
    "regularity_study",
]


class NonFinite(ArithmeticError):
    """A diagnostic quantity is not finite; message carries the step index."""


class PreconditionViolated(ValueError):
    """Study input does not satisfy the documented compatibility conditions."""


class GrowthMismatch(TypeError):
    """A growth-specific bound was requested for the wrong nonlinearity class."""


@dataclass(frozen=True)
class Assertion:
    """One named pass/fail check with the measured value and its bound."""

    name: str
    passed: bool
    value: Optional[float] = None
    bound: Optional[float] = None


# run_diagnostics' columns, in order.  star_centered is the star norm of u
# minus its mean process value; well_mass integrates the regularized
# double-well primitive, reaction_mass pi_hat (the possibly negative offset)
# and conjugate_mass beta_hat* at beta_lam(u), by Fenchel-Young
DIAGNOSTIC_FIELDS = (
    "t", "mean_u", "star_centered", "h_norm", "v1_norm", "v2_norm",
    "v3_norm", "energy", "gradient_energy", "well_mass", "reaction_mass",
    "conjugate_mass", "w_l1", "xi_l1",
)


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Metrics of a one-parameter sweep plus its pass/fail assertions."""

    variable: str
    values: tuple
    metrics: dict
    assertions: tuple
    distances: Optional[tuple] = None
    mc_mean: Optional[dict] = None
    mc_stderr: Optional[dict] = None
    members: Optional[int] = None

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


@dataclass(frozen=True, eq=False)
class ProblemData:
    """Initial state plus optional forcing pieces for one solver run."""

    u0: SpectralField
    operator: Optional[DiffusionOperator] = None
    source: Optional[SpectralField] = None


def _uniformity(name: str, values, factor: float) -> Assertion:
    lo = min(values)
    hi = max(values)
    spread = hi / lo if lo > 0 else (math.inf if hi > 0 else 1.0)
    return Assertion(name, spread <= factor, value=spread, bound=factor)


def _require_monotone(values, direction, what):
    arr = np.asarray(values, dtype=float)
    diffs = np.diff(arr)
    ok = (diffs > 0).all() if direction == "increasing" else (diffs < 0).all()
    if len(arr) > 1 and not ok:
        raise PreconditionViolated(f"{what} must be strictly {direction}: {list(arr)}")


def _config(data: ProblemData, base: SolverConfig, eps: Optional[float] = None,
            lam: Optional[float] = None) -> SolverConfig:
    updates = {}
    if eps is not None:
        updates["eps"] = float(eps)
    if lam is not None:
        updates["lam"] = float(lam)
    if data.source is not None:
        updates["source"] = data.source
    return replace(base, **updates) if updates else base


def _noise(operator: Optional[DiffusionOperator], seed: Optional[int]) -> Optional[NoiseModel]:
    if operator is None:
        return None
    if seed is None:
        raise PreconditionViolated("a seed is required when noise is present")
    return NoiseModel(WienerProcess(operator.mode_count, seed), operator)


def _run(data: ProblemData, base: SolverConfig, seed: Optional[int],
         eps: Optional[float] = None, lam: Optional[float] = None) -> Trajectory:
    return simulate(data.u0, _config(data, base, eps, lam), _noise(data.operator, seed))


# ---------------------------------------------------------------------------
# per-trajectory diagnostics


# states per chunk of grid-sized temporaries: about this many grid points
_CHUNK_POINTS = 4096


def _chunks(count: int, domain) -> list:
    # slices of a stack of count states, each of about _CHUNK_POINTS grid points
    size = max(1, _CHUNK_POINTS // (2**domain.dimension * math.prod(domain.modes)))
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _pow(values: np.ndarray, exponent: float) -> np.ndarray:
    # powers by libm pow, as Python's float ** takes them: numpy's x * x
    # rounds about one square in a thousand, and its vectorized pow one sixth
    # root in twenty, the other way, and the reports keep their digits
    return np.float_power(values, exponent)


def _diagnostic_columns(cfg: SolverConfig, u, w, xi, mean_process, domain) -> dict:
    """The DIAGNOSTIC_FIELDS but t, in order, of a (B, *modes) state stack.

    mean_process is u0's mean plus the noise ledger's mean, per row.  One
    resolvent evaluation serves the well mass and the conjugate mass.
    """
    modes = domain.modes
    grid = _synthesis(u, modes)
    J = mn.resolvent(cfg.graph, cfg.lam, grid)
    grad, well, reaction = _energy_parts(u, grid, J, domain, cfg)
    centered = u.copy()
    _rows(centered)[:, 0] -= mean_process
    cols = {"mean_u": _rows(u)[:, 0], "star_centered": _norms(domain, centered, "star")}
    cols.update((f"{k.lower()}_norm", _norms(domain, u, k)) for k in ("H", "V1", "V2", "V3"))
    return {
        **cols,
        "energy": grad + well + reaction,
        "gradient_energy": grad,
        "well_mass": well,
        "reaction_mass": reaction,
        # Fenchel-Young equality at s = beta_lam(u) = beta(J)
        "conjugate_mass": _integrals(domain, (grid - J) / cfg.lam * J - cfg.graph.beta_hat(J)),
        "w_l1": _integrals(domain, np.abs(_synthesis(w, modes))),
        "xi_l1": _integrals(domain, np.abs(_synthesis(xi, modes))),
    }


def _require_finite(columns: dict, steps) -> None:
    bad = ~np.isfinite(np.stack(list(columns.values())))
    if bad.any():
        k = int(np.flatnonzero(bad.any(axis=0))[0])
        name = next(n for n, v in columns.items() if not math.isfinite(v[k]))
        raise NonFinite(f"diagnostic {name} is not finite at step {steps[k]}")


def run_diagnostics(traj: Trajectory) -> dict:
    """{name: (N+1,) array} in DIAGNOSTIC_FIELDS order; raises NonFinite with the step index.

    States are diagnosed as stacks of about _CHUNK_POINTS grid points.
    """
    parts = []
    for k in _chunks(len(traj), traj.domain):
        mean_process = _rows(traj.u)[0, 0] + _rows(traj.noise_ledger[k])[:, 0]
        cols = _diagnostic_columns(traj.config, traj.u[k], traj.w[k], traj.xi[k],
                                   mean_process, traj.domain)
        _require_finite(cols, range(len(traj))[k])
        parts.append(cols)
    return {"t": traj.times,
            **{n: np.concatenate([p[n] for p in parts]) for n in DIAGNOSTIC_FIELDS[1:]}}


def check_invariants(traj: Trajectory, columns=None) -> list:
    """Structural checks: evolution identity, mean identity, energy decay.

    columns are run_diagnostics(traj) when the caller already holds them.
    The energy decay check only applies to deterministic convex-splitting
    runs without a source, which is exactly when the splitting guarantees it.
    """
    cfg = traj.config
    columns = run_diagnostics(traj) if columns is None else columns
    u = traj.u
    out = []

    # split steps satisfy the identity per substep instead; step n starts at row n
    kept = np.flatnonzero([r == 0 for r in traj.rejections])
    res = 0.0
    if len(kept):
        noise = None
        if traj.noise is not None:
            noise = increment_stack((traj.noise,) * len(kept), u[kept], kept, cfg.dt)
        res = float(_evolution_residuals(traj.domain, cfg, u[kept], u[kept + 1],
                                         traj.w[kept + 1], noise).max())
    out.append(Assertion("evolution_identity", res <= 10 * cfg.newton_tol,
                         value=res, bound=10 * cfg.newton_tol))

    shift = _rows(u)[:, 0] - _rows(u)[0, 0] - _rows(traj.noise_ledger)[:, 0]
    mean_err = float(np.abs(shift).max())
    out.append(Assertion("mean_identity", mean_err <= 1e-12, value=mean_err, bound=1e-12))

    offset_floor = float((columns["energy"] - columns["reaction_mass"]).min())
    out.append(Assertion("energy_above_reaction_offset", offset_floor >= -1e-12,
                         value=offset_floor, bound=0.0))

    if traj.noise is None and cfg.splitting == "convex_splitting" and cfg.source is None:
        jumps = np.diff(columns["energy"])
        worst = float(jumps.max()) if len(jumps) else 0.0
        out.append(Assertion("energy_decay", worst <= 1e-12, value=worst, bound=1e-12))
    return out


# ---------------------------------------------------------------------------
# pathwise norms


def _trapz(values, times) -> float:
    return float(np.trapezoid(np.asarray(values, dtype=float), np.asarray(times)))


def _u_difference(a: Trajectory, b: Trajectory) -> np.ndarray:
    if len(a) != len(b):
        raise PreconditionViolated("trajectories have different step counts")
    return a.u - b.u


def path_l2_distance(a: Trajectory, b: Trajectory, kind: str = "V1") -> float:
    return math.sqrt(_trapz(_pow(_norms(a.domain, _u_difference(a, b), kind), 2), a.times))


def sup_norm(traj: Trajectory, kind: str = "V1") -> float:
    return float(_norms(traj.domain, traj.u, kind).max())


# ---------------------------------------------------------------------------
# studies


def _grad_sq(domain, coeffs: np.ndarray) -> np.ndarray:
    # |grad v|_H^2 of every row of a (B, *modes) stack
    eig = neumann_eigensystem(domain)
    return _rows(eig.weights * eig.mu * coeffs**2).sum(axis=1)


def continuous_dependence_study(
    data1: ProblemData,
    data2: ProblemData,
    eps_grid: Sequence[float],
    seed: int,
    base: SolverConfig,
) -> SweepReport:
    """Ratio of the difference energy to the data distance, per viscosity.

    Preconditions: equal initial means (tolerance 1e-12) and mean-compatible
    noise, i.e. both runs share the increments and their operators inject the
    same constant-mode content.  Each ratio is capped at 100 times the ratio
    of a noise-free run at the smallest viscosity in the grid.
    """
    _require_monotone(eps_grid, "increasing", "eps grid")
    if abs(data1.u0.mean - data2.u0.mean) > 1e-12:
        raise PreconditionViolated(
            f"initial means differ: {data1.u0.mean!r} vs {data2.u0.mean!r}"
        )
    op1, op2 = data1.operator, data2.operator
    if (op1 is None) != (op2 is None):
        raise PreconditionViolated("both runs need noise, or neither")
    if op1 is not None and op2 is not None:
        c1 = op1.columns.reshape(op1.mode_count, -1)[:, 0]
        c2 = op2.columns.reshape(op2.mode_count, -1)[:, 0]
        if op1.mode_count != op2.mode_count or not np.array_equal(c1, c2):
            raise PreconditionViolated(
                "noise operators inject different constant-mode content; "
                "the mean processes would diverge"
            )

    denom = norm(data1.u0 - data2.u0, "star") ** 2
    g1 = data1.source
    g2 = data2.source
    if g1 is not None or g2 is not None:
        a = g1 if g1 is not None else 0.0 * data1.u0
        b = g2 if g2 is not None else 0.0 * data2.u0
        denom += base.t_final * norm(a - b, "star") ** 2
    if op1 is not None and op2 is not None and not np.array_equal(op1.columns, op2.columns):
        w = neumann_eigensystem(op1.domain).weights
        mu = neumann_eigensystem(op1.domain).mu
        diff = op1.columns - op2.columns
        # star-norm style weight on each column difference
        nz = mu > 0
        col_sq = (diff[..., nz] ** 2 * (w[nz] / mu[nz])).sum() + diff.reshape(
            op1.mode_count, -1)[:, 0] @ diff.reshape(op1.mode_count, -1)[:, 0]
        denom += base.t_final * float(col_sq)
    if denom <= 0:
        raise PreconditionViolated("data distance is zero; the ratio is undefined")

    def _ratio(eps, with_noise):
        d1 = data1 if with_noise else replace(data1, operator=None)
        d2 = data2 if with_noise else replace(data2, operator=None)
        t1 = _run(d1, base, seed if with_noise else None, eps=eps)
        t2 = _run(d2, base, seed if with_noise else None, eps=eps)
        diff = _u_difference(t1, t2)
        domain = data1.u0.domain
        sup_star = float(_pow(_norms(domain, diff, "star"), 2).max())
        sup_h = float(_pow(_norms(domain, diff, "H"), 2).max())
        grad_l2 = _trapz(_grad_sq(domain, diff), t1.times)
        return (sup_star + eps * sup_h + grad_l2) / denom

    k_cap = 100.0 * _ratio(min(eps_grid), with_noise=False)

    ratios = []
    assertions = []
    for eps in eps_grid:
        r = _ratio(eps, with_noise=op1 is not None)
        ratios.append(r)
        finite = math.isfinite(r)
        assertions.append(Assertion(f"ratio_finite_eps={eps:g}", finite, value=r))
        assertions.append(Assertion(f"ratio_capped_eps={eps:g}",
                                    finite and r <= k_cap, value=r, bound=k_cap))
    assertions.append(_uniformity("ratio_uniform_in_eps", ratios, 10.0))
    return SweepReport(
        variable="eps",
        values=tuple(eps_grid),
        metrics={"ratio": tuple(ratios), "k_cap": (k_cap,) * len(ratios)},
        assertions=tuple(assertions),
    )


def vanishing_viscosity_study(
    data: ProblemData,
    eps_sequence: Sequence[float],
    seed: Optional[int],
    base: SolverConfig,
) -> SweepReport:
    """Distance of viscous runs to the limit run, along decreasing viscosity.

    A trailing eps of exactly 0 is allowed and gives self-distance 0.
    """
    _require_monotone(eps_sequence, "decreasing", "eps sequence")
    if any(e < 0 for e in eps_sequence):
        raise PreconditionViolated("viscosities must be >= 0")
    limit = _run(data, base, seed, eps=0.0)
    dists = []
    sizes = []
    sup_star_sq = []
    for eps in eps_sequence:
        tr = limit if eps == 0.0 else _run(data, base, seed, eps=eps)
        dists.append(path_l2_distance(tr, limit, "V1"))
        sizes.append(eps * sup_norm(tr, "V1"))
        sup_star_sq.append(sup_norm(tr, "star") ** 2)
    assertions = [
        Assertion("distance_decreasing",
                  all(a > b for a, b in zip(dists, dists[1:])),
                  value=dists[-1], bound=dists[0]),
        Assertion("distance_final_tenth", dists[-1] <= 0.1 * dists[0],
                  value=dists[-1], bound=0.1 * dists[0]),
        Assertion("viscous_term_decreasing",
                  all(a > b for a, b in zip(sizes, sizes[1:])),
                  value=sizes[-1], bound=sizes[0]),
        Assertion("viscous_term_final_tenth", sizes[-1] <= 0.1 * sizes[0],
                  value=sizes[-1], bound=0.1 * sizes[0]),
        Assertion("all_finite", all(map(math.isfinite, dists + sizes))),
        _uniformity("sup_star_sq_uniform_in_eps", sup_star_sq, 100.0),
    ]
    return SweepReport(
        variable="eps",
        values=tuple(eps_sequence),
        metrics={
            "v1_distance_to_limit": tuple(dists),
            "eps_weighted_v1_sup": tuple(sizes),
            "sup_star_sq": tuple(sup_star_sq),
        },
        assertions=tuple(assertions),
        distances=tuple(dists),
    )


def yosida_convergence_study(
    data: ProblemData,
    lam_sequence: Sequence[float],
    seed: Optional[int],
    base: SolverConfig,
) -> SweepReport:
    """Cauchy behavior in the graph regularization parameter.

    Runs the same data at each lam, reports consecutive pathwise V1
    distances (asserted decreasing) and lam-uniformity of the potential's
    L1(Q) mass and of the conjugate mass.
    """
    _require_monotone(lam_sequence, "decreasing", "lam sequence")
    if any(l <= 0 for l in lam_sequence):
        raise PreconditionViolated("lam values must be positive")
    trajectories = [_run(data, base, seed, lam=l) for l in lam_sequence]
    consec = [path_l2_distance(a, b, "V1")
              for a, b in zip(trajectories, trajectories[1:])]
    w_l1 = []
    xi_l1 = []
    conj_mass = []
    sup_star_sq = []
    for tr in trajectories:
        cols = run_diagnostics(tr)
        w_l1.append(_trapz(cols["w_l1"], cols["t"]))
        xi_l1.append(_trapz(cols["xi_l1"], cols["t"]))
        conj_mass.append(_trapz(cols["conjugate_mass"], cols["t"]))
        sup_star_sq.append(sup_norm(tr, "star") ** 2)
    assertions = [
        Assertion("consecutive_v1_distances_decreasing",
                  all(a > b for a, b in zip(consec, consec[1:])),
                  value=consec[-1] if consec else 0.0,
                  bound=consec[0] if consec else 0.0),
        _uniformity("w_l1_uniform", w_l1, 100.0),
        _uniformity("conjugate_mass_uniform", conj_mass, 100.0),
        _uniformity("sup_star_sq_uniform_in_lam", sup_star_sq, 100.0),
        Assertion("all_finite", all(map(math.isfinite, consec + w_l1 + xi_l1 + conj_mass))),
    ]
    return SweepReport(
        variable="lam",
        values=tuple(lam_sequence),
        metrics={
            "consecutive_v1_distance": tuple(consec),
            "w_l1_mass": tuple(w_l1),
            "xi_l1_mass": tuple(xi_l1),
            "conjugate_mass": tuple(conj_mass),
            "sup_star_sq": tuple(sup_star_sq),
        },
        assertions=tuple(assertions),
        distances=tuple(consec),
    )


# fewest members ensemble_expectations takes; the CLI refuses fewer at validation
MIN_MEMBERS = 8


def member_seed(seed: int, member: int) -> int:
    """Deterministic per-member seed, independent of execution order."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(member,))
    return int(ss.generate_state(1, np.uint64)[0])


def ensemble_expectations(
    data: ProblemData,
    base: SolverConfig,
    members: int,
    seed: int,
    grid: Optional[Sequence[tuple]] = None,
    order: Optional[Sequence[int]] = None,
) -> SweepReport:
    """Monte Carlo estimates of the pathwise energies with standard errors.

    The members of a grid point step as one ``Batch``, with rows in
    ``order``, and each member's trajectory is diagnosed from its stacks; each
    member equals its solo run, and the estimates are stored by member index
    and reduced in index order, so any order gives identical output.  ``grid``
    is an optional list of (eps, lam) pairs over which uniformity of the
    estimates is reported.
    """
    if members < MIN_MEMBERS:
        raise PreconditionViolated(f"need at least {MIN_MEMBERS} ensemble members")
    if order is None:
        order = range(members)
    order = list(order)
    if sorted(order) != list(range(members)):
        raise PreconditionViolated("order must be a permutation of the members")
    if grid is None:
        grid = ((base.eps, base.lam),)

    names = ("sup_star_sq", "grad_l2_sq", "well_mass_path", "conjugate_mass_path")
    mc_mean: dict = {}
    mc_stderr: dict = {}
    assertions = []
    per_point_means: dict = {n: [] for n in names}
    for eps, lam in grid:
        cfg = _config(data, base, eps, lam)
        noises = [_noise(data.operator, member_seed(seed, m)) for m in order]
        batch = Batch(data.u0, cfg, noises)
        rows = np.empty((members, len(names)))
        for m, noise in zip(order, noises):
            cols = run_diagnostics(simulate(data.u0, cfg, noise, batch))
            ts = cols["t"]
            rows[m] = (
                (_pow(cols["star_centered"], 2) + _pow(cols["mean_u"], 2)).max(),
                _trapz(2.0 * cols["gradient_energy"], ts),
                _trapz(cols["well_mass"], ts),
                _trapz(cols["conjugate_mass"], ts),
            )
        mean = rows.mean(axis=0)
        stderr = rows.std(axis=0, ddof=1) / math.sqrt(members)
        key = f"eps={eps:g},lam={lam:g}"
        for j, n in enumerate(names):
            mc_mean[f"{n}[{key}]"] = float(mean[j])
            mc_stderr[f"{n}[{key}]"] = float(stderr[j])
            per_point_means[n].append(float(mean[j]))
        assertions.append(Assertion(f"estimates_finite[{key}]",
                                    bool(np.isfinite(rows).all())))
    if len(grid) > 1:
        for n in names:
            assertions.append(_uniformity(f"{n}_uniform_over_grid",
                                          per_point_means[n], 100.0))
    return SweepReport(
        variable="(eps,lam)",
        values=tuple(tuple(p) for p in grid),
        metrics={},
        assertions=tuple(assertions),
        mc_mean=mc_mean,
        mc_stderr=mc_stderr,
        members=members,
    )


# ---------------------------------------------------------------------------
# regularity monitoring


def regularity_monitor(traj: Trajectory, growth: Optional[str] = None) -> SweepReport:
    """Path norms that stay bounded for smooth data, on one trajectory.

    The smoothed w is R w, R the Helmholtz inverse at the run's viscosity.
    With growth="cubic" also checks the pointwise-cubic bound
    |xi|_{L2(0,T;H)} <= 2 * C * (1 + sup_t |u|_V1^3) where C is assembled
    from the measured V1 -> L6 embedding constant of the trajectory itself.
    """
    cfg = traj.config
    ts = traj.times
    domain = traj.domain
    eig = neumann_eigensystem(domain)
    u, xi = traj.u, traj.xi
    smoothed_w = traj.w / (1.0 + cfg.eps * eig.mu)
    lap_sq = _rows(eig.weights * eig.mu**2 * smoothed_w**2).sum(axis=1)
    xi_l2 = math.sqrt(_trapz(_pow(_norms(domain, xi, "H"), 2), ts))
    metrics = {
        "sup_grad_smoothed_w": (math.sqrt(_grad_sq(domain, smoothed_w).max()),),
        "eps_lap_smoothed_w_l2": (cfg.eps * math.sqrt(_trapz(lap_sq, ts)),),
        "xi_l2": (xi_l2,),
        "xi_grad_l2": (math.sqrt(_trapz(_grad_sq(domain, xi), ts)),),
        "v3_path": (math.sqrt(_trapz(_pow(_norms(domain, u, "V3"), 2), ts)),),
    }
    assertions = [Assertion("regularity_norms_finite",
                            all(math.isfinite(v[0]) for v in metrics.values()))]
    if growth == "cubic":
        if polynomial_degree(cfg.graph) != 3:
            raise GrowthMismatch(
                f"cubic growth bound requested for graph {cfg.graph.name!r} "
                f"with growth {cfg.graph.growth!r}"
            )
        v1 = _norms(domain, u, "V1")
        l6_sixth = np.concatenate([_integrals(domain, _synthesis(u[k], domain.modes) ** 6)
                                   for k in _chunks(len(u), domain)])
        ratios = _pow(l6_sixth, 1.0 / 6.0)[v1 > 0] / v1[v1 > 0]
        emb = float(ratios.max(initial=0.0))
        sup_v1 = float(v1.max())
        c_measured = math.sqrt(float(ts[-1])) * max(math.sqrt(domain.volume), emb**3)
        bound = 2.0 * c_measured * (1.0 + sup_v1**3)
        metrics["embedding_constant"] = (emb,)
        metrics["cubic_bound"] = (bound,)
        assertions.append(Assertion("xi_cubic_growth_bound", xi_l2 <= bound,
                                    value=xi_l2, bound=bound))
    return SweepReport(
        variable="eps",
        values=(cfg.eps,),
        metrics=metrics,
        assertions=tuple(assertions),
    )


def regularity_study(
    data: ProblemData,
    eps_grid: Sequence[float],
    seed: Optional[int],
    base: SolverConfig,
    growth: Optional[str] = None,
) -> SweepReport:
    """Regularity monitor across a viscosity grid, with uniformity checks."""
    _require_monotone(eps_grid, "increasing", "eps grid")
    metrics: dict = {}
    assertions = []
    for eps in eps_grid:
        tr = _run(data, base, seed, eps=eps)
        rep = regularity_monitor(tr, growth=growth)
        for k, v in rep.metrics.items():
            metrics.setdefault(k, []).append(v[0])
        assertions.extend(
            Assertion(f"{a.name}[eps={eps:g}]", a.passed, a.value, a.bound)
            for a in rep.assertions
        )
    for key in ("sup_grad_smoothed_w", "xi_l2"):
        assertions.append(_uniformity(f"{key}_uniform_in_eps", metrics[key], 10.0))
    return SweepReport(
        variable="eps",
        values=tuple(eps_grid),
        metrics={k: tuple(v) for k, v in metrics.items()},
        assertions=tuple(assertions),
    )
