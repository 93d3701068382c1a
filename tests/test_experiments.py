"""
Diagnostics, invariant checks, and convergence study tests.

Oracles: refined-grid quadrature for the well mass, hand-rolled trapezoid
sums for path norms, and coefficient formulas for the recorded energies.
Study-level tests run the full pipeline at a small but honest scale.
"""

import ast
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import svch.cli as cli
import svch.experiments as ex
from svch import monotone as mn
from svch import noise as nz
from svch import stepper as sp
from svch.spectral import (
    Domain,
    SpectralField,
    inner,
    integrate_grid,
    neumann_eigensystem,
    norm,
    to_grid,
)

from conftest import make_config, random_field

RNG = np.random.default_rng(17)


def study_config(**kw):
    kw.setdefault("t_final", 0.05)
    return make_config("quartic_double_well", ("negative_identity", 1.0), **kw)


def study_ic(domain):
    c = np.zeros(domain.modes)
    c[0], c[1], c[2], c[5] = 0.05, 0.4, 0.2, 0.1
    return SpectralField(domain, c)


def fine_quadrature(u, f, factor=16):
    """Integral of f(u(x)) on a refined midpoint grid, via explicit cosines."""
    (L,) = u.domain.lengths
    (m,) = u.domain.modes
    n = factor * m
    x = (np.arange(n) + 0.5) * L / n
    vals = np.zeros(n)
    for k in range(m):
        vals += u.coeffs[k] * np.cos(k * np.pi * x / L)
    return f(vals).mean() * L


class TestDriftCoercivity:
    def test_weak_coercivity_constant(self, long_domain):
        lam, c_pi = 1e-2, 1.0
        g = random_field(long_domain, np.random.default_rng(4), scale=0.5)
        cfg = study_config(lam=lam, source=g)
        lip = 1.0 / lam + c_pi
        for _ in range(100):
            v = random_field(long_domain, RNG, scale=1.0)
            lhs = inner(sp.drift(v, cfg), v)
            rhs = (0.5 * norm(v, "V2") ** 2
                   - (lip**2 + 0.5) * norm(v, "H") ** 2
                   - norm(g, "H") ** 2)
            assert lhs >= rhs - 1e-10 * (1 + abs(rhs))


class TestDiagnostics:
    def test_column_values_against_formulas(self, long_domain):
        cfg = study_config(dt=1e-3, t_final=2e-3)
        u0 = study_ic(long_domain)
        traj = sp.simulate(u0, cfg)
        rec = {n: v[0] for n, v in ex.run_diagnostics(traj).items()}
        eig = neumann_eigensystem(long_domain)
        c = u0.coeffs
        assert rec["t"] == 0.0
        assert rec["mean_u"] == u0.mean
        assert rec["h_norm"] == pytest.approx(np.sqrt(np.sum(eig.weights * c**2)), rel=1e-14)
        assert rec["gradient_energy"] == pytest.approx(
            0.5 * np.sum(eig.weights * eig.mu * c**2), rel=1e-14)
        # star norm of the mean-centered field, straight from the coefficients
        nzm = eig.mu > 0
        want = np.sqrt(np.sum(eig.weights[nzm] * c[nzm] ** 2 / eig.mu[nzm]))
        assert rec["star_centered"] == pytest.approx(want, rel=1e-13)
        assert rec["energy"] == pytest.approx(
            rec["gradient_energy"] + rec["well_mass"] + rec["reaction_mass"], rel=1e-14)

    def test_well_mass_against_refined_quadrature(self, long_domain):
        cfg = study_config(dt=1e-3, t_final=2e-3)
        u0 = study_ic(long_domain)
        well = ex.run_diagnostics(sp.simulate(u0, cfg))["well_mass"][0]
        want = fine_quadrature(u0, lambda v: mn.moreau_envelope(cfg.graph, cfg.lam, v))
        assert well == pytest.approx(want, abs=1e-8)

    def test_reaction_mass_against_refined_quadrature(self, long_domain):
        cfg = study_config(dt=1e-3, t_final=2e-3)
        u0 = study_ic(long_domain)
        reaction = ex.run_diagnostics(sp.simulate(u0, cfg))["reaction_mass"][0]
        s = cfg.perturbation.lipschitz
        want = fine_quadrature(u0, lambda v: -0.5 * s * v**2)
        assert reaction == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("lam", (1e-3, 1e-2, 0.1))
    @pytest.mark.parametrize("graph", mn.graph_names())
    def test_conjugate_mass_against_golden_section(self, long_domain, graph, lam):
        cfg = make_config(graph, ("negative_identity", 1.0), lam=lam, dt=1e-3,
                          t_final=3e-3)
        traj = sp.simulate(study_ic(long_domain), cfg)
        for state, conj in zip(traj, ex.run_diagnostics(traj)["conjugate_mass"]):
            blam = mn.yosida(cfg.graph, lam, to_grid(state.u))
            want = integrate_grid(long_domain, mn.conjugate(cfg.graph, blam))
            assert abs(conj - want) <= 1e-10

    def test_constant_trajectory_is_flat(self, long_domain):
        c = np.zeros(64)
        c[0] = 0.7
        cfg = study_config(t_final=5e-3)
        cols = ex.run_diagnostics(sp.simulate(SpectralField(long_domain, c), cfg))
        assert (cols["mean_u"] == 0.7).all()
        assert (cols["star_centered"] == 0.0).all()
        assert len(set(cols["energy"].tolist())) == 1

    def test_non_finite_state_is_reported_with_step(self, long_domain):
        cfg = study_config(dt=1e-3, t_final=2e-3)
        traj = sp.simulate(study_ic(long_domain), cfg)
        bad_u = traj.u.copy()
        bad_u[1, 3] = np.inf
        broken = replace(traj, u=bad_u)
        with pytest.raises(ex.NonFinite, match="step 1"):
            ex.run_diagnostics(broken)

    def test_one_resolvent_per_chunk(self, long_domain, monkeypatch):
        # 41 states of 128 grid points: chunks of 32 and 9 states
        traj = sp.simulate(study_ic(long_domain), study_config(dt=1e-3, t_final=0.04))
        want = ex.run_diagnostics(traj)
        calls = []
        original = mn.resolvent

        def counting(*args, **kwargs):
            calls.append(np.shape(args[2]))
            return original(*args, **kwargs)

        monkeypatch.setattr(mn, "resolvent", counting)
        cols = ex.run_diagnostics(traj)
        assert calls == [(32, 128), (9, 128)]
        assert list(cols) == list(want)
        assert all(np.array_equal(cols[n], want[n]) for n in want)

    def test_stacked_columns_equal_single_state_formulas(self, long_domain):
        op = nz.diffusion_operator(long_domain, 8, sigma=0.3)
        cfg = study_config(dt=1e-3, t_final=0.04)
        traj = sp.simulate(study_ic(long_domain), cfg,
                           nz.NoiseModel(nz.WienerProcess(8, seed=2), op))
        u0_mean = traj[0].u.mean
        cols = ex.run_diagnostics(traj)
        for k, state in enumerate(traj):
            grad, well, reaction = sp.free_energy_parts(state.u, cfg)
            centered = state.u.coeffs.copy()
            centered[0] -= u0_mean + state.noise_mean
            assert (cols["gradient_energy"][k], cols["well_mass"][k],
                    cols["reaction_mass"][k]) == (grad, well, reaction)
            assert cols["star_centered"][k] == norm(SpectralField(long_domain, centered), "star")
            assert cols["v3_norm"][k] == norm(state.u, "V3")
            assert cols["w_l1"][k] == integrate_grid(long_domain, np.abs(to_grid(state.w)))

    def test_columns_follow_diagnostic_fields(self, long_domain):
        traj = sp.simulate(study_ic(long_domain), study_config(dt=1e-3, t_final=5e-3))
        cols = ex.run_diagnostics(traj)
        assert tuple(cols) == ex.DIAGNOSTIC_FIELDS
        assert all(v.shape == (len(traj),) for v in cols.values())
        assert np.array_equal(cols["t"], traj.times)


class TestStackedDiagnostics:
    """An ensemble diagnoses each Batch group's states as one stack, in chunks
    that span members; every member's columns equal its solo run's bitwise."""

    def test_groups_equal_solo_runs_one_group_at_a_time(self, long_domain, monkeypatch):
        # 51 states of 128 grid points per member and chunks of 32 states, so
        # chunks span members; members of 78744 B make groups of 3, 3 and 2
        data = ex.ProblemData(u0=study_ic(long_domain),
                              operator=nz.diffusion_operator(long_domain, 8, sigma=0.3))
        cfg = study_config()
        order = [5, 2, 7, 0, 3, 6, 1, 4]
        want = ex.ensemble_expectations(data, cfg, members=8, seed=4, order=order)
        monkeypatch.setattr(sp, "_BATCH_BYTES", 250_000)
        original, groups, gone = ex._diagnose, [], []

        def checked(trajs):
            assert all(ref() is None for ref in gone)  # the previous group is freed
            out = original(trajs)
            for traj, cols in zip(trajs, out):
                solo = original([sp.simulate(data.u0, cfg, traj.noise)])[0]  # run_diagnostics
                assert list(cols) == list(solo)
                assert all(np.array_equal(cols[n], solo[n]) for n in solo)
            groups.append([traj.noise.process.seed for traj in trajs])
            gone.extend(weakref.ref(traj) for traj in trajs)
            return out

        monkeypatch.setattr(ex, "_diagnose", checked)
        rep = ex.ensemble_expectations(data, cfg, members=8, seed=4, order=order)
        seeds = [ex.member_seed(4, m) for m in order]
        assert groups == [seeds[:3], seeds[3:6], seeds[6:]]
        assert rep.mc_mean == want.mc_mean and rep.mc_stderr == want.mc_stderr

    def test_non_finite_state_names_its_members_step(self, long_domain):
        # member 1's step 3 is row 54 of the stack, in the chunk of rows 32..63
        data = ex.ProblemData(u0=study_ic(long_domain),
                              operator=nz.diffusion_operator(long_domain, 8, sigma=0.3))
        first, second = (ex._run(data, study_config(), seed) for seed in (1, 2))
        bad_u = second.u.copy()
        bad_u[3, 7] = np.inf
        with pytest.raises(ex.NonFinite, match=r"star_centered is not finite at step 3$"):
            ex._diagnose([first, replace(second, u=bad_u)])


class TestInvariants:
    def test_noisy_run_passes(self, long_domain):
        cfg = study_config(newton_tol=1e-11)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.3)
        traj = sp.simulate(study_ic(long_domain), cfg,
                           nz.NoiseModel(nz.WienerProcess(8, seed=21), op))
        checks = ex.check_invariants(traj)
        assert {a.name for a in checks} == {
            "evolution_identity", "mean_identity", "energy_above_reaction_offset"}
        assert all(a.passed for a in checks)

    def test_deterministic_run_adds_energy_decay(self, long_domain):
        traj = sp.simulate(study_ic(long_domain), study_config())
        checks = ex.check_invariants(traj)
        names = [a.name for a in checks]
        assert "energy_decay" in names
        assert all(a.passed for a in checks)

    def test_sourced_run_skips_energy_decay(self, long_domain):
        g = random_field(long_domain, np.random.default_rng(2), scale=0.2)
        traj = sp.simulate(study_ic(long_domain), study_config(source=g))
        names = [a.name for a in ex.check_invariants(traj)]
        assert "energy_decay" not in names

    def test_multiplicative_run_passes(self, long_domain):
        cfg = study_config(newton_tol=1e-11)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.3, kind="multiplicative")
        traj = sp.simulate(study_ic(long_domain), cfg,
                           nz.NoiseModel(nz.WienerProcess(8, seed=21), op))
        assert all(a.passed for a in ex.check_invariants(traj))

    @staticmethod
    def step_residuals(traj):
        """The evolution identity of every step, its noise field drawn by apply_diffusion."""
        cfg, model = traj.config, traj.noise
        eig = neumann_eigensystem(traj.domain)
        out = []
        for a, b in zip(traj, traj.states[1:]):
            res = (1.0 + cfg.eps * eig.mu) * (b.u.coeffs - a.u.coeffs)
            res = res + cfg.dt * eig.mu * b.w.coeffs
            if model is not None:
                res = res - nz.apply_diffusion(
                    model.operator, a.u, model.process.increments_at(a.step_index, cfg.dt)).coeffs
            out.append(float(np.sqrt(np.sum(eig.weights * res**2))))
        return out

    @pytest.mark.parametrize("kind", ["additive", "multiplicative"])
    def test_evolution_identity_is_the_max_step_residual(self, long_domain, kind):
        cfg = study_config(newton_tol=1e-11)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.3, kind=kind)
        traj = sp.simulate(study_ic(long_domain), cfg,
                           nz.NoiseModel(nz.WienerProcess(8, seed=21), op))
        got = next(a.value for a in ex.check_invariants(traj) if a.name == "evolution_identity")
        assert got == max(self.step_residuals(traj))

    def test_evolution_identity_skips_halved_steps(self, long_domain):
        # the halving setup of TestBatchedCore: the first step splits twice
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.5, t_final=2.0, newton_tol=1e-11,
                          newton_max_iter=4, max_rejections=4)
        hard = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.01)
        traj = sp.simulate(hard, cfg, nz.NoiseModel(nz.WienerProcess(8, seed=4), op))
        assert [s.rejections for s in traj.states[1:]] == [2, 0, 0, 0]
        res = self.step_residuals(traj)
        assert res[0] > 1.0  # the whole-step identity does not hold across substeps
        got = next(a for a in ex.check_invariants(traj) if a.name == "evolution_identity")
        assert got.value == max(res[1:]) and got.passed


class TestPathNorms:
    @pytest.mark.parametrize("exponent", [2, 1.0 / 6.0])
    def test_powers_are_python_float_powers(self, exponent):
        # the stacked reductions keep the digits of their per-state form
        x = np.random.default_rng(0).uniform(0.0, 10.0, 20000)
        assert ex._pow(x, exponent).tolist() == [v**exponent for v in x.tolist()]

    def test_against_manual_trapezoid(self, long_domain):
        traj = sp.simulate(study_ic(long_domain), study_config(t_final=5e-3))
        vals = [norm(s.u, "V1") ** 2 for s in traj]
        ts = traj.times
        want = 0.0
        for i in range(len(vals) - 1):
            want += 0.5 * (vals[i] + vals[i + 1]) * (ts[i + 1] - ts[i])
        zero = replace(traj, u=np.zeros_like(traj.u))
        assert ex.path_l2_distance(traj, zero, "V1") == pytest.approx(math.sqrt(want), rel=1e-13)

    def test_distance_and_sup(self, long_domain):
        a = sp.simulate(study_ic(long_domain), study_config(t_final=5e-3))
        b = sp.simulate(study_ic(long_domain), study_config(t_final=5e-3, lam=5e-3))
        assert ex.path_l2_distance(a, a) == 0.0
        assert ex.path_l2_distance(a, b) > 0.0
        assert ex.sup_norm(a, "H") == max(norm(s.u, "H") for s in a)
        # the per-state form, with Python float squares
        want = math.sqrt(ex._trapz([norm(x.u - y.u, "V1") ** 2 for x, y in zip(a, b)], a.times))
        assert ex.path_l2_distance(a, b) == want

    def test_step_count_mismatch(self, long_domain):
        a = sp.simulate(study_ic(long_domain), study_config(t_final=5e-3))
        b = sp.simulate(study_ic(long_domain), study_config(t_final=6e-3))
        with pytest.raises(ex.PreconditionViolated):
            ex.path_l2_distance(a, b)

    def test_time_grid_and_domain_mismatch(self, long_domain):
        # equal step counts: states of different times or domains are not paired
        a = sp.simulate(study_ic(long_domain), study_config(dt=0.01, t_final=0.05))
        b = sp.simulate(study_ic(long_domain), study_config(dt=0.02, t_final=0.1))
        short = Domain((5.0,), (64,))
        c = sp.simulate(study_ic(short), study_config(dt=0.01, t_final=0.05))
        assert len(a) == len(b) == len(c)
        with pytest.raises(ex.PreconditionViolated, match="time grids"):
            ex.path_l2_distance(a, b)
        with pytest.raises(ex.PreconditionViolated, match="domains"):
            ex.path_l2_distance(a, c)

    def test_distinct_seeds_give_distinct_paths(self, long_domain):
        op = nz.diffusion_operator(long_domain, 8, sigma=0.3)
        data = ex.ProblemData(u0=study_ic(long_domain), operator=op)
        cfg = study_config()
        t1 = ex._run(data, cfg, seed=1)
        t2 = ex._run(data, cfg, seed=2)
        assert ex.path_l2_distance(t1, t2) > 1e-4


class TestContinuousDependence:
    def _pair(self, domain):
        op = nz.diffusion_operator(domain, 8, sigma=0.3)
        u1 = study_ic(domain)
        c2 = u1.coeffs.copy()
        c2[1], c2[3] = 0.35, 0.15
        u2 = SpectralField(domain, c2)
        return (ex.ProblemData(u0=u1, operator=op),
                ex.ProblemData(u0=u2, operator=op))

    def test_ratios_uniform_across_viscosity(self, long_domain):
        d1, d2 = self._pair(long_domain)
        rep = ex.continuous_dependence_study(
            d1, d2, eps_grid=(0.0, 1e-3, 1e-2, 1e-1), seed=21, base=study_config())
        assert rep.passed
        ratios = rep.metrics["ratio"]
        assert max(ratios) / min(ratios) < 10.0
        assert max(ratios) < 50.0  # difference energy is controlled by the data

    def test_operator_difference_adds_its_star_norm(self, long_domain):
        # the column term of the data distance against its hand-rolled form:
        # t_final times the squared star norms of the column differences
        d1, d2 = self._pair(long_domain)
        d2 = replace(d2, operator=nz.smooth(d1.operator, 4))
        base, eps = study_config(), 1e-2
        rep = ex.continuous_dependence_study(d1, d2, eps_grid=(eps,), seed=21, base=base)
        eig = neumann_eigensystem(long_domain)
        w, mu = eig.weights, eig.mu
        diff = (d1.operator.columns - d2.operator.columns).reshape(8, -1)
        pos = mu.ravel() > 0
        col_sq = (diff[:, pos] ** 2 * (w.ravel()[pos] / mu.ravel()[pos])).sum()
        col_sq += diff[:, 0] @ diff[:, 0]
        assert col_sq > 0
        denom = norm(d1.u0 - d2.u0, "star") ** 2 + base.t_final * float(col_sq)
        t1, t2 = (sp.simulate(d.u0, replace(base, eps=eps),
                              nz.NoiseModel(nz.WienerProcess(8, 21), d.operator))
                  for d in (d1, d2))
        diffs = [SpectralField(long_domain, c) for c in t1.u - t2.u]
        numerator = (max(norm(d, "star") ** 2 for d in diffs)
                     + eps * max(norm(d, "H") ** 2 for d in diffs)
                     + ex._trapz([float(np.sum(w * mu * d.coeffs**2)) for d in diffs], t1.times))
        assert rep.metrics["ratio"][0] == pytest.approx(numerator / denom, rel=1e-14)

    def test_bad_last_grid_value_runs_nothing(self, long_domain, monkeypatch):
        calls = []
        monkeypatch.setattr(ex, "simulate", lambda *args: calls.append(args))
        d1, d2 = self._pair(long_domain)
        with pytest.raises(ex.PreconditionViolated,
                           match=r"^eps must be finite, got inf, violates \(H4\)$"):
            ex.continuous_dependence_study(d1, d2, eps_grid=(0.0, 1e-2, math.inf), seed=21,
                                           base=study_config())
        assert calls == []

    def test_zero_distance_rejected(self, long_domain):
        d1, _ = self._pair(long_domain)
        with pytest.raises(ex.PreconditionViolated, match="zero"):
            ex.continuous_dependence_study(d1, d1, eps_grid=(0.0, 1e-2), seed=21,
                                           base=study_config())

    def test_source_difference_carries_the_denominator(self, long_domain):
        op = nz.diffusion_operator(long_domain, 8, sigma=0.3)
        u0 = study_ic(long_domain)
        g = random_field(long_domain, np.random.default_rng(9), scale=0.2, mean=0.0)
        d1 = ex.ProblemData(u0=u0, operator=op)
        d2 = ex.ProblemData(u0=u0, operator=op, source=g)
        rep = ex.continuous_dependence_study(d1, d2, eps_grid=(0.0, 1e-2), seed=21,
                                             base=study_config())
        assert rep.passed
        assert all(r > 0 for r in rep.metrics["ratio"])

    def test_mean_mismatch_rejected(self, long_domain):
        d1, d2 = self._pair(long_domain)
        shifted = d2.u0.coeffs.copy()
        shifted[0] += 0.5
        d2 = replace(d2, u0=SpectralField(long_domain, shifted))
        with pytest.raises(ex.PreconditionViolated, match="means differ"):
            ex.continuous_dependence_study(d1, d2, eps_grid=(0.0, 1e-2), seed=21,
                                           base=study_config())

    def test_incompatible_noise_means_rejected(self, long_domain):
        d1, d2 = self._pair(long_domain)
        d2 = replace(d2, operator=nz.diffusion_operator(long_domain, 8, sigma=0.3,
                                                        mean_zero=True))
        with pytest.raises(ex.PreconditionViolated, match="constant-mode"):
            ex.continuous_dependence_study(d1, d2, eps_grid=(0.0, 1e-2), seed=21,
                                           base=study_config())

    def test_noise_free_study_marches_each_pair_once(self, long_domain, monkeypatch):
        # the cap's noise-free pair at the smallest viscosity is that grid
        # point's own pair
        calls = []
        simulate = ex.simulate

        def counting(*args):
            calls.append(args)
            return simulate(*args)

        d1, d2 = (replace(d, operator=None) for d in self._pair(long_domain))
        base = study_config(t_final=5e-3)
        want = ex.continuous_dependence_study(d1, d2, (0.0, 1e-2, 1e-1), 21, base)
        monkeypatch.setattr(ex, "simulate", counting)
        rep = ex.continuous_dependence_study(d1, d2, (0.0, 1e-2, 1e-1), 21, base)
        assert len(calls) == 6
        assert rep.metrics == want.metrics and rep.assertions == want.assertions

    def test_grid_must_increase(self, long_domain):
        d1, d2 = self._pair(long_domain)
        with pytest.raises(ex.PreconditionViolated, match="increasing"):
            ex.continuous_dependence_study(d1, d2, eps_grid=(1e-2, 1e-3), seed=21,
                                           base=study_config())

    def test_negative_viscosity_names_the_hypothesis(self, long_domain):
        d1, d2 = self._pair(long_domain)
        with pytest.raises(ValueError, match=r"eps must be >= 0.*\(H4\)"):
            ex.continuous_dependence_study(d1, d2, eps_grid=(-1e-3, 1e-2), seed=21,
                                           base=study_config())


EMPTY_GRID_STUDIES = {
    "continuous_dependence": lambda d, base: ex.continuous_dependence_study(d, d, (), 1, base),
    "vanishing_viscosity": lambda d, base: ex.vanishing_viscosity_study(d, (), 1, base),
    "yosida_convergence": lambda d, base: ex.yosida_convergence_study(d, (), 1, base),
    "regularity": lambda d, base: ex.regularity_study(d, (), 1, base),
    "ensemble": lambda d, base: ex.ensemble_expectations(d, base, 8, 1, grid=()),
}


@pytest.mark.parametrize("study", sorted(EMPTY_GRID_STUDIES))
def test_empty_grid_runs_nothing(long_domain, monkeypatch, study):
    calls = []
    monkeypatch.setattr(ex, "simulate", lambda *args: calls.append(args))
    data = ex.ProblemData(u0=study_ic(long_domain),
                          operator=nz.diffusion_operator(long_domain, 8, sigma=0.3))
    with pytest.raises(ex.PreconditionViolated, match="must not be empty"):
        EMPTY_GRID_STUDIES[study](data, study_config())
    assert calls == []


def test_grid_values_equal_to_six_digits_keep_their_own_labels(long_domain):
    # each label carries its grid value by repr, so no estimate is overwritten
    # and no assertion name repeats
    near = (0.01, 0.0100000001)
    op = nz.diffusion_operator(long_domain, 8, sigma=0.3)
    data = ex.ProblemData(u0=study_ic(long_domain), operator=op)
    c2 = data.u0.coeffs.copy()
    c2[1] = 0.35
    data2 = ex.ProblemData(u0=SpectralField(long_domain, c2), operator=op)
    base = study_config(t_final=5e-3)
    ensemble = ex.ensemble_expectations(data, base, 8, 1, grid=[(e, 1e-2) for e in near])
    assert len(ensemble.mc_mean) == len(ensemble.mc_stderr) == 8
    for rep in (ex.regularity_study(data, near, 1, base),
                ex.continuous_dependence_study(data, data2, near, 1, base)):
        names = [a.name for a in rep.assertions]
        assert len(set(names)) == len(names)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
@pytest.mark.parametrize("study,grid,runs", [
    (ex.vanishing_viscosity_study, (1e-1, 1e-2), 3),  # and the eps = 0 limit
    (ex.yosida_convergence_study, (1e-1, 1e-2, 1e-3), 3),
    (ex.regularity_study, (1e-2, 1e-1), 2),
])
def test_every_rung_draws_one_realization(long_domain, monkeypatch, study, grid, runs, kind):
    # the (seed, step) keys of every draw, one list per run: a ladder that
    # reseeded a rung would draw another realization there
    draws = []
    simulate, increments = ex.simulate, nz._increments

    def run(*args):
        draws.append([])
        return simulate(*args)

    def spy(seeds, steps, count, dt):
        draws[-1].extend(zip(seeds, steps))
        return increments(seeds, steps, count, dt)

    monkeypatch.setattr(ex, "simulate", run)
    monkeypatch.setattr(nz, "_increments", spy)
    op = nz.diffusion_operator(long_domain, 8, kind=kind, sigma=0.3, mean_zero=True)
    base = study_config(t_final=5e-3)
    study(ex.ProblemData(u0=study_ic(long_domain), operator=op), grid, 21, base)
    assert len(draws) == runs
    assert sorted(draws[0]) == [(21, step) for step in range(base.n_steps)]
    assert all(keys == draws[0] for keys in draws)


def _calls(tree, callees) -> list:
    # (function, line, callee) of calls to callees, nested functions included
    return [(fn.name, node.lineno, callee)
            for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            for callee in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
            if callee in callees]


def _literals_outside(tree, values, table) -> list:
    # lines of string constants equal to one of values that lie outside the
    # module-level assignment to table
    inside = {id(n) for node in tree.body if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == table for t in node.targets)
              for n in ast.walk(node)}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and node.value in values and id(node) not in inside]


def test_the_ladder_skeleton_lives_in_one_place():
    snippet = ("def study():\n    return _ladder(rung)\n"
               "def stray():\n    _config(d, b)\n    def rung():\n        _require_monotone(v)\n"
               "_TABLE = {'regularity': 1}\nif mode == 'regularity':\n    pass\n")
    tree = ast.parse(snippet)
    assert _calls(tree, ("_config", "_require_monotone")) == [
        ("stray", 4, "_config"), ("stray", 6, "_require_monotone")]
    assert _literals_outside(tree, {"regularity"}, "_TABLE") == [8]
    # every laddered study leaves the order check and the config build to _ladder
    tree = ast.parse(Path(ex.__file__).read_text())
    laddered = {name for name, _, _ in _calls(tree, ("_ladder",))}
    assert laddered == {"continuous_dependence_study", "vanishing_viscosity_study",
                        "yosida_convergence_study", "regularity_study"}
    assert [c for c in _calls(tree, ("_config", "_require_monotone")) if c[0] in laddered] == []
    # cli.py names a study mode in its table alone
    tree = ast.parse(Path(cli.__file__).read_text())
    assert _literals_outside(tree, set(cli._STUDIES), "_STUDIES") == []
    assert set(cli.MODES) == {"simulate", "ensemble", *cli._STUDIES}


class TestVanishingViscosity:
    def test_distances_shrink_toward_limit(self, long_domain):
        op = nz.diffusion_operator(long_domain, 8, sigma=0.3)
        data = ex.ProblemData(u0=study_ic(long_domain), operator=op)
        rep = ex.vanishing_viscosity_study(data, (1e-1, 1e-2, 1e-3), seed=21,
                                           base=study_config())
        assert rep.passed
        d = rep.metrics["v1_distance_to_limit"]
        assert d[0] > d[1] > d[2] > 0

    def test_trailing_zero_has_self_distance_zero(self, long_domain):
        data = ex.ProblemData(u0=study_ic(long_domain))
        rep = ex.vanishing_viscosity_study(data, (1e-1, 1e-2, 0.0), seed=None,
                                           base=study_config())
        assert rep.metrics["v1_distance_to_limit"][-1] == 0.0
        assert rep.passed

    def test_sequence_validation(self, long_domain):
        data = ex.ProblemData(u0=study_ic(long_domain))
        with pytest.raises(ex.PreconditionViolated, match="decreasing"):
            ex.vanishing_viscosity_study(data, (1e-3, 1e-2), seed=None,
                                         base=study_config())
        with pytest.raises(ex.PreconditionViolated, match=">= 0"):
            ex.vanishing_viscosity_study(data, (1e-2, -1e-3), seed=None,
                                         base=study_config())

    def test_negative_viscosity_names_h4(self, long_domain):
        data = ex.ProblemData(u0=study_ic(long_domain))
        with pytest.raises(ex.PreconditionViolated,
                           match=r"^eps must be >= 0, got -0\.1, violates \(H4\)$"):
            ex.vanishing_viscosity_study(data, (0.1, -0.1), None, study_config())


class TestYosidaConvergence:
    def test_cauchy_in_lam(self, long_domain):
        op = nz.diffusion_operator(long_domain, 8, sigma=0.3)
        data = ex.ProblemData(u0=study_ic(long_domain), operator=op)
        rep = ex.yosida_convergence_study(data, (1e-1, 1e-2, 1e-3), seed=21,
                                          base=study_config())
        assert rep.passed
        assert rep.metrics["consecutive_v1_distance"][0] > \
            rep.metrics["consecutive_v1_distance"][1]

    def test_lam_validation(self, long_domain):
        data = ex.ProblemData(u0=study_ic(long_domain))
        with pytest.raises(ex.PreconditionViolated, match="decreasing"):
            ex.yosida_convergence_study(data, (1e-3, 1e-2), seed=None,
                                        base=study_config())
        with pytest.raises(ex.PreconditionViolated, match=r"lam must be > 0, got 0\.0"):
            ex.yosida_convergence_study(data, (1e-2, 0.0), seed=None,
                                        base=study_config())

    def test_negative_lam_names_h2(self, long_domain):
        data = ex.ProblemData(u0=study_ic(long_domain))
        with pytest.raises(ex.PreconditionViolated,
                           match=r"^lam must be > 0, got -0\.1, violates \(H2\)$"):
            ex.yosida_convergence_study(data, (0.1, -0.1), None, study_config())


def linear_spde():
    """Data and solver config whose ensemble estimates have closed forms: the
    linear graph, no reaction, additive noise, 16 modes and 20 steps."""
    dom = Domain((10.0,), (16,))
    c0 = np.zeros(16)
    c0[1], c0[2] = 0.3, -0.2
    op = nz.diffusion_operator(dom, 8, sigma=0.5)
    data = ex.ProblemData(u0=SpectralField(dom, c0), operator=op)
    return data, make_config("linear", ("zero",), lam=1e-2, dt=0.01, t_final=0.2)


def linear_spde_expectations(data, base, eps, variance=True):
    """Closed-form expectations of grad_l2_sq, well_mass_path and conjugate_mass_path.

    Each mode follows u+ = (visc u + s_k dW_k) / D, D = visc + dt mu (mu + 1/(1 + lam)),
    so E[c_k^2] = m^2 + v with m+ = (visc/D) m and v+ = (visc/D)^2 v + (s_k/D)^2 dt;
    variance=False drops v, a wrong answer.
    """
    eig = neumann_eigensystem(data.u0.domain)
    lam, dt, c0 = base.lam, base.dt, data.u0.coeffs
    s2 = (data.operator.columns**2).sum(axis=0)  # each noise direction drives one mode
    times = dt * np.arange(base.n_steps + 1)
    visc = 1.0 + eps * eig.mu
    denom = visc + dt * eig.mu * (eig.mu + 1.0 / (1.0 + lam))
    m, v, sq = c0, np.zeros_like(c0), [c0 * c0]
    for _ in range(base.n_steps):
        m, v = visc / denom * m, (visc / denom) ** 2 * v + s2 / denom**2 * dt
        sq.append(m * m + v if variance else m * m)
    sq = np.array(sq)
    mass = ex._trapz((eig.weights * sq).sum(axis=1), times)
    return {"grad_l2_sq": ex._trapz((eig.weights * eig.mu * sq).sum(axis=1), times),
            "well_mass_path": mass / (2.0 * (1.0 + lam)),
            "conjugate_mass_path": mass / (2.0 * (1.0 + lam) ** 2)}


class TestEnsembles:
    def _data(self, domain, sigma=0.3):
        op = nz.diffusion_operator(domain, 8, sigma=sigma)
        return ex.ProblemData(u0=study_ic(domain), operator=op)

    def test_member_seed_deterministic_and_distinct(self):
        seeds = [ex.member_seed(42, m) for m in range(64)]
        assert seeds == [ex.member_seed(42, m) for m in range(64)]
        assert len(set(seeds)) == 64
        assert ex.member_seed(42, 0) != ex.member_seed(43, 0)

    def test_order_invariance_is_exact(self, long_domain):
        data = self._data(long_domain)
        base = study_config()
        forward = ex.ensemble_expectations(data, base, members=8, seed=1)
        perm = list(np.random.default_rng(0).permutation(8))
        shuffled = ex.ensemble_expectations(data, base, members=8, seed=1, order=perm)
        assert forward.mc_mean == shuffled.mc_mean
        assert forward.mc_stderr == shuffled.mc_stderr

    def test_batched_members_match_their_solo_runs(self, long_domain):
        data = self._data(long_domain)
        base = study_config()
        rep = ex.ensemble_expectations(data, base, members=8, seed=3)
        rows = []
        for m in range(8):
            tr = ex._run(data, base, ex.member_seed(3, m))
            cols = {n: v.tolist() for n, v in ex.run_diagnostics(tr).items()}
            rows.append((max(s**2 + u**2 for s, u in zip(cols["star_centered"], cols["mean_u"])),
                         ex._trapz([2.0 * g for g in cols["gradient_energy"]], tr.times),
                         ex._trapz(cols["well_mass"], tr.times),
                         ex._trapz(cols["conjugate_mass"], tr.times)))
        means = np.mean(rows, axis=0)
        key = f"eps={base.eps!r},lam={base.lam!r}"
        names = ("sup_star_sq", "grad_l2_sq", "well_mass_path", "conjugate_mass_path")
        for name, want in zip(names, means):
            assert rep.mc_mean[f"{name}[{key}]"] == want

    def test_small_vs_large_ensemble_agree(self, long_domain):
        data = self._data(long_domain)
        base = study_config()
        small = ex.ensemble_expectations(data, base, members=8, seed=7)
        large = ex.ensemble_expectations(data, base, members=32, seed=7)
        for key, m_small in small.mc_mean.items():
            m_large = large.mc_mean[key]
            band = 3.0 * (small.mc_stderr[key] + large.mc_stderr[key])
            assert abs(m_small - m_large) <= band or band == 0.0

    def test_stronger_noise_raises_fluctuation_energy(self, long_domain):
        base = study_config()
        weak = ex.ensemble_expectations(self._data(long_domain, 0.2), base,
                                        members=8, seed=7)
        strong = ex.ensemble_expectations(self._data(long_domain, 0.4), base,
                                          members=8, seed=7)
        key = next(k for k in weak.mc_mean if k.startswith("sup_star_sq"))
        assert strong.mc_mean[key] > weak.mc_mean[key]

    def test_linear_spde_estimates_match_the_closed_form(self):
        """Every estimate but sup_star_sq has a closed-form expectation (see
        linear_spde_expectations)."""
        data, base = linear_spde()
        lam = base.lam
        grid = ((0.0, lam), (0.1, lam))
        rep = ex.ensemble_expectations(data, base, members=256, seed=7, grid=grid)
        for eps, _ in grid:
            key = f"eps={eps!r},lam={lam!r}"
            # with the variance dropped, a wrong answer, every z exceeds 14
            for variance in (True, False):
                for name, want in linear_spde_expectations(data, base, eps, variance).items():
                    z = (rep.mc_mean[f"{name}[{key}]"] - want) / rep.mc_stderr[f"{name}[{key}]"]
                    assert (abs(z) <= 3.0) is variance, (name, eps, variance, z)

    def test_linear_spde_standard_errors_are_calibrated(self):
        """Over 40 ensemble seeds of 32 members, the closed form lies within 2
        standard errors of the estimate about 95 % of the time and within 1
        about 68 % of the time.  The bands have teeth: halving the standard
        error makes the first fraction the measured second (0.70), and
        doubling it makes the second the measured first (0.94)."""
        data, base = linear_spde()
        key = f"eps=0.0,lam={base.lam!r}"
        want = linear_spde_expectations(data, base, 0.0)
        z = []
        for seed in range(40):
            rep = ex.ensemble_expectations(data, base, members=32, seed=seed)
            z += [(rep.mc_mean[f"{n}[{key}]"] - w) / rep.mc_stderr[f"{n}[{key}]"]
                  for n, w in want.items()]
        within = [float(np.mean(np.abs(z) <= r)) for r in (1.0, 2.0)]
        assert 0.5 <= within[0] <= 0.85 and 0.85 <= within[1] <= 0.99, within

    def test_deterministic_ensemble_has_zero_stderr(self, long_domain):
        data = ex.ProblemData(u0=study_ic(long_domain))
        rep = ex.ensemble_expectations(data, study_config(), members=8, seed=1)
        assert rep.passed
        # members are bitwise identical; only the mean reduction rounds
        for key, v in rep.mc_stderr.items():
            assert v <= 1e-15 * (1.0 + abs(rep.mc_mean[key]))

    def test_zero_data_is_uniform(self, long_domain):
        data = ex.ProblemData(u0=SpectralField(long_domain, np.zeros(64)))
        rep = ex.ensemble_expectations(data, study_config(), members=8, seed=1,
                                       grid=((0.0, 1e-2), (1e-2, 1e-2)))
        assert rep.passed  # all-zero estimates count as uniform

    def test_grid_uniformity_asserted(self, long_domain):
        data = self._data(long_domain)
        rep = ex.ensemble_expectations(data, study_config(), members=8, seed=7,
                                       grid=((0.0, 1e-2), (1e-2, 1e-2)))
        names = [a.name for a in rep.assertions]
        assert any(n.startswith("sup_star_sq_uniform") for n in names)
        assert rep.passed

    def test_bad_grid_point_runs_no_member(self, long_domain, monkeypatch):
        calls = []
        monkeypatch.setattr(ex, "simulate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"\(H2\)"):
            ex.ensemble_expectations(self._data(long_domain), study_config(), members=8,
                                     seed=7, grid=((1e-2, 1e-2), (1e-2, -1.0)))
        assert calls == []

    def test_repeated_grid_point_refused(self, long_domain, monkeypatch):
        calls = []
        monkeypatch.setattr(ex, "simulate", lambda *args: calls.append(args))
        with pytest.raises(ex.PreconditionViolated, match="repeats"):
            ex.ensemble_expectations(self._data(long_domain), study_config(), members=8,
                                     seed=7, grid=((1e-2, 1e-2), (0.0, 1e-2), (1e-2, 1e-2)))
        assert calls == []

    def test_membership_validation(self, long_domain):
        data = self._data(long_domain)
        with pytest.raises(ex.PreconditionViolated, match="at least 8"):
            ex.ensemble_expectations(data, study_config(), members=4, seed=1)
        with pytest.raises(ex.PreconditionViolated, match="permutation"):
            ex.ensemble_expectations(data, study_config(), members=8, seed=1,
                                     order=[0, 0, 1, 2, 3, 4, 5, 6])


class TestRegularity:
    def test_monitor_with_cubic_growth(self, long_domain):
        traj = sp.simulate(study_ic(long_domain), study_config(eps=1e-2))
        rep = ex.regularity_monitor(traj)
        assert rep.passed
        assert rep.metrics["xi_l2"][0] <= rep.metrics["cubic_bound"][0]

    @pytest.mark.parametrize("modes", [(64,), (8, 12)])
    def test_monitor_equals_per_state_loop(self, modes):
        # the per-state form of every metric, with Python float powers
        domain = Domain((10.0,) * len(modes), modes)
        cfg = study_config(eps=1e-2, t_final=0.03)
        op = nz.diffusion_operator(domain, 6, sigma=0.3, kind="multiplicative")
        traj = sp.simulate(random_field(domain, np.random.default_rng(9), scale=0.5), cfg,
                           nz.NoiseModel(nz.WienerProcess(6, seed=3), op))
        eig = neumann_eigensystem(domain)
        ts = traj.times
        sup_grad, lap_sq, emb = 0.0, [], 0.0
        for s in traj:
            c = s.w.coeffs / (1.0 + cfg.eps * eig.mu)
            sup_grad = max(sup_grad, math.sqrt(float(np.sum(eig.weights * eig.mu * c**2))))
            lap_sq.append(float(np.sum(eig.weights * eig.mu**2 * c**2)))
            l6 = integrate_grid(domain, to_grid(s.u) ** 6) ** (1.0 / 6.0)
            emb = max(emb, l6 / norm(s.u, "V1"))
        xi_l2 = math.sqrt(ex._trapz([norm(s.xi, "H") ** 2 for s in traj], ts))
        want = {
            "sup_grad_smoothed_w": sup_grad,
            "eps_lap_smoothed_w_l2": cfg.eps * math.sqrt(ex._trapz(lap_sq, ts)),
            "xi_l2": xi_l2,
            "xi_grad_l2": math.sqrt(ex._trapz(
                [float(np.sum(eig.weights * eig.mu * s.xi.coeffs**2)) for s in traj], ts)),
            "v3_path": math.sqrt(ex._trapz([norm(s.u, "V3") ** 2 for s in traj], ts)),
            "embedding_constant": emb,
        }
        got = ex.regularity_monitor(traj).metrics
        assert {k: got[k][0] for k in want} == want

    def test_embedding_constant_matches_libm_sixth_powers_2d(self):
        # the monitor multiplies out its sixth powers; a per-state oracle
        # takes them point by point with libm pow
        domain = Domain((10.0, 6.0), (24, 16))
        op = nz.diffusion_operator(domain, 6, sigma=0.3, kind="multiplicative")
        traj = sp.simulate(random_field(domain, np.random.default_rng(5), scale=0.5),
                           study_config(eps=1e-2, t_final=0.03),
                           nz.NoiseModel(nz.WienerProcess(6, seed=4), op))
        emb = 0.0
        for s in traj:
            g = to_grid(s.u)
            sixth = np.reshape([math.pow(x, 6) for x in g.ravel()], g.shape)
            l6 = math.pow(integrate_grid(domain, sixth), 1 / 6)
            emb = max(emb, l6 / norm(s.u, "V1"))
        got = ex.regularity_monitor(traj).metrics["embedding_constant"][0]
        assert abs(got - emb) <= 1e-14 * emb

    def test_bad_last_grid_value_runs_nothing(self, long_domain, monkeypatch):
        calls = []
        monkeypatch.setattr(ex, "simulate", lambda *args: calls.append(args))
        data = ex.ProblemData(u0=study_ic(long_domain))
        with pytest.raises(ex.PreconditionViolated,
                           match=r"^eps must be finite, got inf, violates \(H4\)$"):
            ex.regularity_study(data, (1e-2, 1e-1, math.inf), None, study_config())
        assert calls == []

    def test_non_cubic_growth_has_no_cubic_bound(self, long_domain):
        cfg = make_config("exponential", ("negative_identity", 1.0), t_final=5e-3)
        traj = sp.simulate(study_ic(long_domain), cfg)
        rep = ex.regularity_monitor(traj)
        assert "cubic_bound" not in rep.metrics
        assert [a.name for a in rep.assertions] == ["regularity_norms_finite"]

    def test_cubic_powers_that_overflow_fail_the_finite_check(self, long_domain):
        # states of size 1e120: their V1 cube and the sixth powers behind the
        # embedding constant overflow, where float ** raised OverflowError
        traj = sp.simulate(study_ic(long_domain), study_config(dt=1e-2, t_final=2e-2))
        huge = replace(traj, u=traj.u * 1e120, w=traj.w * 1e120, xi=traj.xi * 1e120)
        rep = ex.regularity_monitor(huge)
        assert [a.name for a in rep.assertions] == ["regularity_norms_finite",
                                                    "xi_cubic_growth_bound"]
        assert not rep.assertions[0].passed
        assert rep.metrics["cubic_bound"] == (math.inf,)

    def test_study_uniform_in_eps(self, long_domain):
        op = nz.diffusion_operator(long_domain, 8, sigma=0.3)
        data = ex.ProblemData(u0=study_ic(long_domain), operator=op)
        rep = ex.regularity_study(data, (1e-3, 1e-2, 1e-1), seed=21,
                                  base=study_config())
        assert rep.passed
        assert len(rep.metrics["xi_l2"]) == 3
