"""
Diagnostics and convergence studies built on top of the solver.

Everything here consumes trajectories from ``stepper.simulate`` and reduces
them to per-step diagnostic columns, pathwise norms, and sweep reports.  Every
reduction reads the trajectory's (N+1, *modes) stacks, or slices of them, never
state by state.  Pathwise L2(0,T; X) norms use the trapezoid rule over the
recorded step times; sweeps over eps and lam reuse the (seed, step, mode) keyed
increments and so compare solutions of one stochastic realization, but a dt
refinement does not: its draws are keyed by step index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import monotone as mn
from .monotone import polynomial_degree
from .noise import DiffusionOperator, NoiseModel, WienerProcess
from .spectral import (
    SpectralField,
    _grad_sq,
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
    _chunk_states,
    _chunks,
    _energy_parts,
    evolution_residual,
    simulate,
)

__all__ = [
    "NonFinite",
    "PreconditionViolated",
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


@dataclass(frozen=True)
class Assertion:
    """One named pass/fail check with the measured value and its bound."""

    name: str
    passed: bool
    value: Optional[float] = None
    bound: Optional[float] = None


# run_diagnostics' columns, in order.  star_centered is the star norm of u
# minus its mean process value; well_mass integrates the regularized
# double-well primitive, reaction_mass is -s/2 |u|_H^2 for the reaction
# slope s (the possibly negative offset, by Parseval) and conjugate_mass
# integrates beta_hat* at beta_lam(u), by Fenchel-Young
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
    if not len(arr):
        raise PreconditionViolated(f"{what} must not be empty")
    diffs = np.diff(arr)
    ok = (diffs > 0).all() if direction == "increasing" else (diffs < 0).all()
    if len(arr) > 1 and not ok:
        raise PreconditionViolated(f"{what} must be strictly {direction}: {list(arr)}")


def _config(data: ProblemData, base: SolverConfig, **values) -> SolverConfig:
    # the studies build every grid point's config before their first run, so
    # a value SolverConfig refuses is refused, with its message, up front
    updates = {name: float(v) for name, v in values.items()}
    if data.source is not None:
        updates["source"] = data.source
    try:
        return replace(base, **updates) if updates else base
    except ValueError as err:
        raise PreconditionViolated(str(err)) from err


def _noise(operator: Optional[DiffusionOperator], seed: Optional[int]) -> Optional[NoiseModel]:
    if operator is None:
        return None
    if seed is None:
        raise PreconditionViolated("a seed is required when noise is present")
    return NoiseModel(WienerProcess(operator.mode_count, seed), operator)


def _run(data: ProblemData, cfg: SolverConfig, seed: Optional[int]) -> Trajectory:
    return simulate(data.u0, cfg, _noise(data.operator, seed))


# ---------------------------------------------------------------------------
# per-trajectory diagnostics


@mn._silent
def _pow(values: np.ndarray, exponent: float) -> np.ndarray:
    # report columns, (N+1,) norms and scalars take libm pow as float ** does,
    # so per-state oracles match to the bit (x * x rounds one square in a
    # thousand, numpy's vectorized pow one sixth root in twenty, the other
    # way), but overflow to inf.  Grid arrays multiply out integer powers: per
    # float64 point the vectorized pow costs about 85 ns, libm 31 ns, a product 1 ns
    return np.float_power(values, exponent)


def _diagnostic_columns(cfg: SolverConfig, u, w, xi, mean_process, domain) -> dict:
    """The DIAGNOSTIC_FIELDS but t, in order, of a (B, *modes) state stack.

    mean_process is u0's mean plus the noise mean, per row.  One
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


def run_diagnostics(traj: Trajectory) -> dict:
    """{name: (N+1,) array} in DIAGNOSTIC_FIELDS order; raises NonFinite with the step index.

    States are diagnosed as stacks of about _CHUNK_POINTS grid points.
    """
    return _diagnose([traj])[0]


@mn._silent
def _diagnose(trajs) -> list:
    # run_diagnostics of trajectories sharing u0, config and step count, in chunks
    # that may span members; columns reduce rows alone, so each equals its solo run
    first, n = trajs[0], len(trajs[0])
    flat = {name: np.empty(len(trajs) * n) for name in DIAGNOSTIC_FIELDS[1:]}
    for k in _chunks(len(trajs) * n, _chunk_states(first.domain)):
        parts = [(trajs[m], slice(max(k.start - m * n, 0), k.stop - m * n))
                 for m in range(k.start // n, min(len(trajs), math.ceil(k.stop / n)))]
        u, w, xi, noise_mean = (np.concatenate([getattr(t, f)[s] for t, s in parts])
                                for f in ("u", "w", "xi", "noise_mean"))
        cols = _diagnostic_columns(first.config, u, w, xi, _rows(first.u)[0, 0] + noise_mean,
                                   first.domain)
        bad = [(j, c) for c, v in cols.items() for j in np.flatnonzero(~np.isfinite(v))]
        if bad:
            j, name = min(bad, key=lambda b: b[0])  # the first step, then the first column
            raise NonFinite(f"diagnostic {name} is not finite at step {(k.start + j) % n}")
        for name, v in cols.items():
            flat[name][k] = v
    return [{"t": t.times, **{name: v[m * n:(m + 1) * n] for name, v in flat.items()}}
            for m, t in enumerate(trajs)]


@mn._silent
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

    # split steps satisfy the identity per substep instead
    kept = np.flatnonzero([r == 0 for r in traj.rejections])
    res = float(evolution_residual(traj)[kept].max()) if len(kept) else 0.0
    out.append(Assertion("evolution_identity", res <= 10 * cfg.newton_tol,
                         value=res, bound=10 * cfg.newton_tol))

    shift = _rows(u)[:, 0] - _rows(u)[0, 0] - traj.noise_mean
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
    # a pathwise distance pairs the states of equal times on one domain
    if a.domain != b.domain:
        raise PreconditionViolated("trajectories live on different domains")
    if not np.array_equal(a.times, b.times):
        raise PreconditionViolated("trajectories have different time grids")
    return a.u - b.u


def path_l2_distance(a: Trajectory, b: Trajectory, kind: str = "V1") -> float:
    return math.sqrt(_trapz(_pow(_norms(a.domain, _u_difference(a, b), kind), 2), a.times))


def sup_norm(traj: Trajectory, kind: str = "V1") -> float:
    return float(_norms(traj.domain, traj.u, kind).max())


# ---------------------------------------------------------------------------
# studies: each is a ladder of runs on one realization


def _ladder(datas, base, axis, values, seed, order, rung, across, reference=None,
            noisy_reference=True, consecutive=False, label="{name}[{axis}={value!r}]"):
    """One rung per grid value of the SolverConfig field ``axis``, each marched
    on the realization keyed by ``seed``, reduced to a SweepReport.

    values must be strictly ``order`` ("increasing" or "decreasing"), and
    every rung's config, one per ProblemData in ``datas``, is built before
    the first run.  ``rung(value, runs, prev, ref)`` reduces a rung's runs,
    one trajectory per datum, to ({metric: number}, assertions), which are
    labelled by ``label``.  prev is the previous rung's runs if
    ``consecutive``, else None, so no other run outlives its rung; ref is the
    runs at the grid value ``reference`` (noise-free unless
    ``noisy_reference``), marched first and reused by the rung they equal.
    ``across(metrics)`` checks the metric columns across rungs; its
    assertions follow the rungs' own.
    """
    _require_monotone(values, order, f"{axis} grid")
    configs = {v: [_config(d, base, **{axis: v}) for d in datas]
               for v in (*values, reference) if v is not None}

    def march(value, noisy=True):
        return tuple(_run(d, c, seed) if noisy else simulate(d.u0, c)
                     for d, c in zip(datas, configs[value]))

    ref = None if reference is None else march(reference, noisy_reference)
    shared = noisy_reference or all(d.operator is None for d in datas)
    metrics: dict = {}
    assertions = []
    prev = None
    for value in values:
        runs = ref if shared and value == reference else march(value)
        row, checks = rung(value, runs, prev, ref)
        for name, x in row.items():
            metrics.setdefault(name, []).append(x)
        assertions += (replace(a, name=label.format(name=a.name, axis=axis, value=float(value)))
                       for a in checks)
        prev = runs if consecutive else None
        del runs  # freed before the next rung marches
    metrics = {name: tuple(column) for name, column in metrics.items()}
    return SweepReport(axis, tuple(values), metrics, (*assertions, *across(metrics)))


def _decreasing(name: str, values) -> Assertion:
    last, first = (values[-1], values[0]) if values else (0.0, 0.0)
    return Assertion(name, all(a > b for a, b in zip(values, values[1:])), value=last,
                     bound=first)


def _final_tenth(name: str, values) -> Assertion:
    return Assertion(name, values[-1] <= 0.1 * values[0], value=values[-1],
                     bound=0.1 * values[0])


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

    denom = float(_pow(norm(data1.u0 - data2.u0, "star"), 2))
    g1 = data1.source
    g2 = data2.source
    if g1 is not None or g2 is not None:
        a = g1 if g1 is not None else 0.0 * data1.u0
        b = g2 if g2 is not None else 0.0 * data2.u0
        denom += base.t_final * float(_pow(norm(a - b, "star"), 2))
    if op1 is not None and op2 is not None and not np.array_equal(op1.columns, op2.columns):
        col_star = _norms(op1.domain, op1.columns - op2.columns, "star")
        denom += base.t_final * float(_pow(col_star, 2).sum())

    def ratio(pair):
        # refused here, not up front, so that the grid's own checks come first
        if denom <= 0:
            raise PreconditionViolated("data distance is zero; the ratio is undefined")
        t1, t2 = pair
        diff = _u_difference(t1, t2)
        sup_star = float(_pow(_norms(t1.domain, diff, "star"), 2).max())
        sup_h = float(_pow(_norms(t1.domain, diff, "H"), 2).max())
        grad_l2 = _trapz(_grad_sq(t1.domain, diff), t1.times)
        return (sup_star + t1.config.eps * sup_h + grad_l2) / denom

    def rung(eps, pair, prev, ref):
        r, k_cap = ratio(pair), 100.0 * ratio(ref)
        finite = math.isfinite(r)
        return {"ratio": r, "k_cap": k_cap}, (
            Assertion("ratio_finite", finite, value=r),
            Assertion("ratio_capped", finite and r <= k_cap, value=r, bound=k_cap))

    # a noise-free study marches its smallest-viscosity pair once, for the
    # cap and for its own ratio
    return _ladder((data1, data2), base, "eps", eps_grid, seed, "increasing", rung,
                   lambda m: [_uniformity("ratio_uniform_in_eps", m["ratio"], 10.0)],
                   reference=min(eps_grid, default=None), noisy_reference=False,
                   label="{name}_{axis}={value!r}")


def vanishing_viscosity_study(
    data: ProblemData,
    eps_sequence: Sequence[float],
    seed: Optional[int],
    base: SolverConfig,
) -> SweepReport:
    """Distance of viscous runs to the limit run, along decreasing viscosity.

    A trailing eps of exactly 0 is allowed and gives self-distance 0.
    """
    def rung(eps, runs, prev, ref):
        (tr,), (limit,) = runs, ref
        return {"v1_distance_to_limit": path_l2_distance(tr, limit, "V1"),
                "eps_weighted_v1_sup": eps * sup_norm(tr, "V1"),
                "sup_star_sq": float(_pow(sup_norm(tr, "star"), 2))}, ()

    def across(m):
        dists, sizes = m["v1_distance_to_limit"], m["eps_weighted_v1_sup"]
        return [
            _decreasing("distance_decreasing", dists),
            _final_tenth("distance_final_tenth", dists),
            _decreasing("viscous_term_decreasing", sizes),
            _final_tenth("viscous_term_final_tenth", sizes),
            Assertion("all_finite", all(map(math.isfinite, dists + sizes))),
            _uniformity("sup_star_sq_uniform_in_eps", m["sup_star_sq"], 100.0),
        ]

    return _ladder((data,), base, "eps", eps_sequence, seed, "decreasing", rung, across,
                   reference=0.0)


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
    def rung(lam, runs, prev, ref):
        (tr,) = runs
        cols = run_diagnostics(tr)
        row = {"w_l1_mass": _trapz(cols["w_l1"], cols["t"]),
               "xi_l1_mass": _trapz(cols["xi_l1"], cols["t"]),
               "conjugate_mass": _trapz(cols["conjugate_mass"], cols["t"]),
               "sup_star_sq": float(_pow(sup_norm(tr, "star"), 2))}
        if prev is not None:
            row["consecutive_v1_distance"] = path_l2_distance(prev[0], tr, "V1")
        return row, ()

    def across(m):
        consec = m.get("consecutive_v1_distance", ())
        return [
            _decreasing("consecutive_v1_distances_decreasing", consec),
            _uniformity("w_l1_uniform", m["w_l1_mass"], 100.0),
            _uniformity("conjugate_mass_uniform", m["conjugate_mass"], 100.0),
            _uniformity("sup_star_sq_uniform_in_lam", m["sup_star_sq"], 100.0),
            Assertion("all_finite", all(map(math.isfinite, consec + m["w_l1_mass"]
                                            + m["xi_l1_mass"] + m["conjugate_mass"]))),
        ]

    return _ladder((data,), base, "lam", lam_sequence, seed, "decreasing", rung, across,
                   consecutive=True)


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
    ``order``, and the states of each ``Batch`` group are diagnosed as one
    stack; each member equals its solo run, diagnostics included, and the
    estimates are stored by member index and reduced in index order, so any
    order gives identical output.  ``grid``
    is an optional list of (eps, lam) pairs over which uniformity of the
    estimates is reported; a point may not repeat.
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
    if not len(grid):
        raise PreconditionViolated("(eps, lam) grid must not be empty")
    points = [tuple(p) for p in grid]
    repeated = [p for k, p in enumerate(points) if p in points[:k]]
    if repeated:
        raise PreconditionViolated(f"(eps, lam) grid repeats the point {repeated[0]}")

    names = ("sup_star_sq", "grad_l2_sq", "well_mass_path", "conjugate_mass_path")
    mc_mean: dict = {}
    mc_stderr: dict = {}
    assertions = []
    per_point_means: dict = {n: [] for n in names}
    # every grid point's config is checked before the first member runs
    configs = [_config(data, base, eps=eps, lam=lam) for eps, lam in grid]
    for (eps, lam), cfg in zip(grid, configs):
        noises = [_noise(data.operator, member_seed(seed, m)) for m in order]
        batch = Batch(data.u0, cfg, noises)
        rows = np.empty((members, len(names)))
        # one group at a time: its trajectories go before the next is integrated
        diagnosed = (c for lo in range(0, members, batch.size) for c in _diagnose(
            [simulate(data.u0, cfg, noise, batch) for noise in noises[lo:lo + batch.size]]))
        for m, cols in zip(order, diagnosed):
            ts = cols["t"]
            rows[m] = (
                (_pow(cols["star_centered"], 2) + _pow(cols["mean_u"], 2)).max(),
                _trapz(2.0 * cols["gradient_energy"], ts),
                _trapz(cols["well_mass"], ts),
                _trapz(cols["conjugate_mass"], ts),
            )
        mean = rows.mean(axis=0)
        stderr = rows.std(axis=0, ddof=1) / math.sqrt(members)
        key = f"eps={float(eps)!r},lam={float(lam)!r}"
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
        values=tuple(points),
        metrics={},
        assertions=tuple(assertions),
        mc_mean=mc_mean,
        mc_stderr=mc_stderr,
        members=members,
    )


# ---------------------------------------------------------------------------
# regularity monitoring


@mn._silent
def regularity_monitor(traj: Trajectory) -> SweepReport:
    """Path norms that stay bounded for smooth data, on one trajectory.

    The smoothed w is R w, R the Helmholtz inverse at the run's viscosity.
    When the run's graph has cubic growth (polynomial degree 3) also checks
    the pointwise-cubic bound |xi|_{L2(0,T;H)} <= 2 * C * (1 + sup_t |u|_V1^3)
    where C is assembled from the measured V1 -> L6 embedding constant of the
    trajectory itself.
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
    cubic = ()
    if polynomial_degree(cfg.graph) == 3:
        v1 = _norms(domain, u, "V1")
        chunks = _chunks(len(u), _chunk_states(domain))
        squares = (_synthesis(u[k], domain.modes) ** 2 for k in chunks)
        l6_sixth = np.concatenate([_integrals(domain, g2 * g2 * g2) for g2 in squares])
        ratios = _pow(l6_sixth, 1.0 / 6.0)[v1 > 0] / v1[v1 > 0]
        emb = float(ratios.max(initial=0.0))
        sup_v1 = float(v1.max())
        emb_cube, sup_cube = _pow(np.array([emb, sup_v1]), 3).tolist()
        c_measured = math.sqrt(float(ts[-1])) * max(math.sqrt(domain.volume), emb_cube)
        bound = 2.0 * c_measured * (1.0 + sup_cube)
        metrics["embedding_constant"] = (emb,)
        metrics["cubic_bound"] = (bound,)
        cubic = (Assertion("xi_cubic_growth_bound", xi_l2 <= bound, value=xi_l2, bound=bound),)
    assertions = [Assertion("regularity_norms_finite",
                            all(math.isfinite(v[0]) for v in metrics.values())), *cubic]
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
) -> SweepReport:
    """Regularity monitor across a viscosity grid, with uniformity checks.

    The cubic-growth bound is checked at every viscosity exactly when the
    graph has cubic growth, as in regularity_monitor.
    """
    def rung(eps, runs, prev, ref):
        rep = regularity_monitor(runs[0])
        return {k: v[0] for k, v in rep.metrics.items()}, rep.assertions

    return _ladder((data,), base, "eps", eps_grid, seed, "increasing", rung,
                   lambda m: [_uniformity(f"{k}_uniform_in_eps", m[k], 10.0)
                              for k in ("sup_grad_smoothed_w", "xi_l2")])
