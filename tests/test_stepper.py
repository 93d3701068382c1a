"""
Backward Euler stepper tests.

The main oracle is an independent re-implementation of the discrete map on a
two-mode domain: explicit cosine matrices for the transforms, the Cardano
closed form for the cubic resolvent, and scipy.optimize.root for the implicit
system.  Everything else checks closed-form single-mode updates, conservation
identities, energy decay, and the rejection machinery.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from svch import experiments as ex
from svch import monotone as mn
from svch import noise as nz
from svch import stepper as sp
from svch.spectral import (
    Domain,
    SpectralField,
    _analysis,
    _synthesis,
    from_grid,
    inner,
    neumann_eigensystem,
    norm,
    to_grid,
)

from conftest import apply_pointwise, free_energy, make_config, random_field

RNG = np.random.default_rng(31)


def advance(u, noise, cfg, domain):
    """Step 0 of a (B, *modes) stack, with the step plan and workspace a march builds."""
    plan = sp._step_plan(domain, cfg.eps, cfg.dt)
    return sp._advance(u, noise, cfg, domain, cfg.dt, 0, plan, sp._workspace(len(u), domain))


def one_mode_factor(mu, eps, dt, lam):
    """Exact linear-graph amplification factor of one backward Euler step."""
    return (1.0 + eps * mu) / ((1.0 + eps * mu) + dt * mu * (mu + 1.0 / (1.0 + lam)))


class TestSingleModeClosedForm:
    @pytest.mark.parametrize("eps", (0.0, 0.3))
    def test_linear_graph_one_step(self, eps):
        dom = Domain((2.0,), (8,))
        k, amp = 3, 0.9
        mu = (k * np.pi / 2.0) ** 2
        c0 = np.zeros(8)
        c0[k] = amp
        cfg = make_config("linear", ("zero",), eps=eps, dt=1e-3, t_final=1e-3,
                          lam=1e-2)
        u1 = sp.simulate(SpectralField(dom, c0), cfg).u[1]
        want = amp * one_mode_factor(mu, eps, 1e-3, 1e-2)
        assert u1[k] == pytest.approx(want, abs=1e-13)
        others = np.delete(u1, k)
        assert np.max(np.abs(others)) < 1e-13

    def test_linear_graph_with_mode_noise(self):
        dom = Domain((2.0,), (8,))
        k = 3
        mu = (k * np.pi / 2.0) ** 2
        c0 = np.zeros(8)
        c0[k] = 0.5
        n = np.zeros(8)
        n[0], n[k] = 0.02, -0.07
        cfg = make_config("linear", ("zero",), dt=1e-3, t_final=1e-3, lam=1e-2)
        u1 = advance(c0[None], n[None], cfg, dom)[0][0]
        denom = 1.0 + 1e-3 * mu * (mu + 1.0 / 1.01)
        assert u1[k] == pytest.approx((0.5 - 0.07) / denom, abs=1e-13)
        assert u1[0] == 0.02  # exact mean update

    @pytest.mark.parametrize("slope", (0.0, 0.5))
    @pytest.mark.parametrize("eps", (0.0, 0.1))
    @pytest.mark.parametrize("modes", ((16,), (8, 8)))
    def test_noisy_linear_trajectory_follows_its_mode_recursion(self, modes, eps, slope):
        """Linear graph, additive noise and the reaction -s*u: every mode follows
        u+ = ((1 + eps mu + dt mu s) u + field) / (1 + eps mu + dt mu (mu + 1/(1 + lam)))."""
        dom = Domain((2.0,) * len(modes), modes)
        u0 = random_field(dom, np.random.default_rng(7), scale=0.5)
        op = nz.diffusion_operator(dom, 6, sigma=0.3)
        process = nz.WienerProcess(6, seed=11)
        cfg = make_config("linear", ("negative_identity", slope), eps=eps, dt=1e-2,
                          t_final=0.1)
        traj = sp.simulate(u0, cfg, nz.NoiseModel(process, op))
        mu = neumann_eigensystem(dom).mu
        visc = 1.0 + eps * mu
        c = u0.coeffs
        for n in range(cfg.n_steps):
            field = nz.apply_diffusion(op, None, process.increments_at(n, cfg.dt)).coeffs
            c = (((visc + cfg.dt * mu * slope) * c + field)
                 / (visc + cfg.dt * mu * (mu + 1.0 / (1.0 + cfg.lam))))
            assert np.max(np.abs(traj.u[n + 1] - c)) <= 1e-13 * np.max(np.abs(c))

    def test_constant_state_is_a_bitwise_fixed_point(self, long_domain):
        c0 = np.zeros(64)
        c0[0] = 0.7
        u0 = SpectralField(long_domain, c0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          dt=1e-3, t_final=1e-2)
        traj = sp.simulate(u0, cfg)
        assert len(traj) == 11
        for st in traj:
            assert np.array_equal(st.u.coeffs, c0)
            # convergence happened on the first residual, before any update
            assert st.newton_iterations == 0


class TestTwoModeDenseOracle:
    """Independent discrete map on two modes, checked step by step."""

    L = 1.0
    LAM = 1e-2
    DT = 1e-3

    def setup_method(self):
        n = 4  # dealiased grid for two modes
        j = np.arange(n) + 0.5
        self.S = np.cos(np.outer(j * np.pi / n, np.arange(2)).T).T  # (4, 2)
        self.mu = (np.arange(2) * np.pi / self.L) ** 2

    def analyze(self, grid):
        n = grid.size
        j = np.arange(n) + 0.5
        c = np.array([grid.mean(),
                      (2.0 / n) * np.sum(grid * np.cos(np.pi * j / n))])
        return c

    def beta_lam(self, r):
        q = r / self.LAM
        disc = np.sqrt((q / 2.0) ** 2 + (1.0 / (3.0 * self.LAM)) ** 3)
        J = np.cbrt(q / 2.0 + disc) + np.cbrt(q / 2.0 - disc)
        return (r - J) / self.LAM

    def oracle_step(self, c, n_coeffs, eps):
        rhs = (1.0 + eps * self.mu) * c + n_coeffs
        q = self.analyze(-(self.S @ c))  # reaction at the old state

        def F(cp):
            b = self.analyze(self.beta_lam(self.S @ cp))
            w = self.mu * cp + b + q
            return (1.0 + eps * self.mu) * cp + self.DT * self.mu * w - rhs

        sol = optimize.root(F, c, method="hybr", tol=1e-14)
        # near the rounding floor hybr can report no progress; trust the residual
        assert np.max(np.abs(F(sol.x))) < 5e-13
        return sol.x

    @pytest.mark.parametrize("eps", (0.0, 1e-2))
    def test_thousand_steps(self, eps):
        dom = Domain((self.L,), (2,))
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          eps=eps, lam=self.LAM, dt=self.DT, t_final=1.0,
                          newton_tol=1e-13)
        op = nz.diffusion_operator(dom, 2, sigma=0.2, rho=1.0)
        proc = nz.WienerProcess(2, seed=404)
        u0 = SpectralField(dom, np.array([0.1, 0.3]))
        traj = sp.simulate(u0, cfg, nz.NoiseModel(proc, op))

        c = u0.coeffs.copy()
        worst = 0.0
        for s in range(1000):
            dW = proc.increments_at(s, self.DT)
            n_coeffs = np.tensordot(dW, op.columns, axes=(0, 0))
            c = self.oracle_step(c, n_coeffs, eps)
            worst = max(worst, float(np.max(np.abs(traj[s + 1].u.coeffs - c))))
        assert worst < 1e-10


class TestConservation:
    def test_mean_identity_additive(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          t_final=0.05)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.5)
        traj = sp.simulate(study_field, cfg, nz.NoiseModel(nz.WienerProcess(8, seed=3), op))
        for st in traj:
            want = study_field.mean + st.noise_mean
            assert abs(st.u.mean - want) < 1e-13

    @pytest.mark.parametrize("halved", [False, True])
    def test_noise_mean_is_the_integral_ledger_mean(self, long_domain, study_field, halved):
        # noise.integral_ledger is the reference for the noise mean, to the bit;
        # the halved case is the setup of TestBatchedCore's halved row
        op = nz.diffusion_operator(long_domain, 8, sigma=0.01 if halved else 0.5)
        process = nz.WienerProcess(8, seed=3)
        if halved:
            cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                              lam=1e-2, dt=0.5, t_final=0.5, newton_tol=1e-11,
                              newton_max_iter=4, max_rejections=4)
            u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        else:
            cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                              dt=1e-2, t_final=0.05)
            u0 = study_field
        traj = sp.simulate(u0, cfg, nz.NoiseModel(process, op))
        assert (max(traj.rejections) > 0) == halved
        assert traj.noise_mean[-1] != 0.0
        for n in range(len(traj)):
            assert traj.noise_mean[n] == nz.integral_ledger(op, process, n, cfg.dt).mean

    def test_mean_exactly_constant_without_mean_input(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          t_final=0.05)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.5, mean_zero=True)
        traj = sp.simulate(study_field, cfg, nz.NoiseModel(nz.WienerProcess(8, seed=3), op))
        for st in traj:
            assert st.u.coeffs.flat[0] == study_field.coeffs.flat[0]

    def test_mean_constant_multiplicative(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          t_final=0.05)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.5, kind="multiplicative")
        traj = sp.simulate(study_field, cfg, nz.NoiseModel(nz.WienerProcess(8, seed=3), op))
        for st in traj:
            assert st.u.coeffs.flat[0] == study_field.coeffs.flat[0]

    def test_evolution_residual_bounded_by_newton_tol(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          t_final=0.02, newton_tol=1e-11)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.3)
        proc = nz.WienerProcess(8, seed=5)
        traj = sp.simulate(study_field, cfg, nz.NoiseModel(proc, op))
        res = sp.evolution_residual(traj)
        assert res.shape == (len(traj) - 1,)
        assert np.all(res <= 10 * cfg.newton_tol)


class TestEnergy:
    def test_deterministic_decay(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          dt=1e-3, t_final=0.2)
        traj = sp.simulate(study_field, cfg)
        energies = np.array([free_energy(st.u, cfg) for st in traj])
        assert np.all(np.diff(energies) <= 1e-12)

    def test_energy_dominates_reaction_mass(self, long_domain):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0))
        for _ in range(20):
            v = random_field(long_domain, RNG, scale=1.2)
            grad, well, reaction = sp.free_energy_parts(v, cfg)
            assert grad >= 0.0 and well >= 0.0
            assert free_energy(v, cfg) - reaction >= 0.0

    def test_viscous_run_also_decays(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          eps=1e-2, dt=1e-3, t_final=0.1)
        traj = sp.simulate(study_field, cfg)
        energies = np.array([free_energy(st.u, cfg) for st in traj])
        assert np.all(np.diff(energies) <= 1e-12)


class TestNewtonBehavior:
    def test_quadratic_residual_tail(self, long_domain):
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=5e-2, t_final=5e-2, newton_tol=1e-12)
        r = sp.simulate(u0, cfg).newton_residuals[0]
        pairs = [(r[i], r[i + 1]) for i in range(len(r) - 1)
                 if 1e-8 <= r[i] <= 1e-2]
        assert len(pairs) >= 2
        for rk, rk1 in pairs:
            assert rk1 <= 100.0 * rk * rk

    def test_cg_tolerance_follows_the_newton_residual(self, long_domain, monkeypatch):
        """Each correction is solved to max(min(tol, |b|)/10, 1e-3 min(1, |F|) |b|);
        none once |F| <= tol."""
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=5e-2, t_final=5e-2, newton_tol=1e-12)
        calls = []
        cg = sp.cg

        def recording(matvec, b, precond, atol, maxiter, callback=None):
            calls.append((b.copy(), np.array(atol, dtype=float)))
            return cg(matvec, b, precond, atol, maxiter, callback)

        monkeypatch.setattr(sp, "cg", recording)
        r = advance(u0.coeffs[None], None, cfg, long_domain)[4][0]
        tol = cfg.newton_tol
        assert len(calls) == len(r) - 1
        for res, (b, atol) in zip(r, calls):
            assert atol.shape == (1,)
            bnorm = float(np.sqrt(np.vecdot(b, b))[0])
            want = max(min(tol, bnorm) / 10.0, 1e-3 * min(1.0, res) * bnorm)
            assert atol[0] == want
        assert all(res > tol for res in r[:-1]) and r[-1] <= tol
        assert max(a[0] for _, a in calls) > 1e3 * tol  # the rule is not the old constant

    def test_newton_does_not_stall_just_above_its_tolerance(self, long_domain):
        """A CG floor of tol/10 in the scaled metric could hand back a zero correction.

        |F|_H can exceed the scaled right-hand side |b| by up to sqrt(max mu):
        with that floor, step 0 here repeats the residual 1.0010577e-12 until
        Newton gives up and the step is halved.
        """
        c = np.zeros(long_domain.modes)
        c[1:6] = np.random.default_rng(3).uniform(-0.5, 0.5, 5)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          dt=1e-3, t_final=5e-3, newton_tol=1e-12)
        traj = sp.simulate(SpectralField(long_domain, c), cfg)
        assert traj.rejections == (0,) * 5
        for r in traj.newton_residuals:
            assert len(set(r)) == len(r) and r[-1] <= cfg.newton_tol

    def test_newton_starts_from_the_step_without_its_spatial_operator(self, long_domain):
        """The first residual is |dt mu w(c0)| at c0 = ((1 + eps mu) u + noise) / (1 + eps mu)."""
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        noise = random_field(long_domain, np.random.default_rng(6), scale=0.1)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          eps=0.3, dt=5e-2, t_final=5e-2)
        res = advance(u0.coeffs[None], noise.coeffs[None], cfg, long_domain)[4]
        eig = neumann_eigensystem(long_domain)
        visc = 1.0 + cfg.eps * eig.mu
        c0 = SpectralField(long_domain, (visc * u0.coeffs + noise.coeffs) / visc)
        well = from_grid(long_domain, mn.yosida(cfg.graph, cfg.lam, to_grid(c0)))
        s = cfg.perturbation.lipschitz
        reaction = from_grid(long_domain, -s * to_grid(u0))  # convex splitting
        w = eig.mu * c0.coeffs + well.coeffs + reaction.coeffs
        want = norm(SpectralField(long_domain, cfg.dt * eig.mu * w))
        assert res[0][0] == pytest.approx(want, rel=1e-12)

    def test_rejection_then_success(self, long_domain):
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.5, t_final=0.5, newton_tol=1e-11,
                          newton_max_iter=4, max_rejections=4)
        traj = sp.simulate(u0, cfg)
        assert traj.rejections[0] == 2
        assert traj.times[1] == 0.5  # the full interval was still covered

    def test_step_rejected_after_halvings(self, long_domain):
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.2, t_final=0.2, newton_tol=1e-11,
                          newton_max_iter=2, max_rejections=4)
        with pytest.raises(sp.StepRejected) as exc:
            sp.simulate(u0, cfg)
        assert exc.value.suggested_dt == pytest.approx(0.2 / 32.0)
        # the message names the residual the last attempt stopped at
        last = exc.value.__cause__.residual
        assert last > cfg.newton_tol
        assert str(exc.value).endswith(f"in 2 iterations (last residual {last:.3e})")

    def test_immediate_rejection_suggests_half(self, long_domain):
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.2, t_final=0.2, newton_tol=1e-11,
                          newton_max_iter=0, max_rejections=0)
        with pytest.raises(sp.StepRejected) as exc:
            sp.simulate(u0, cfg)
        assert exc.value.suggested_dt == pytest.approx(0.1)

    def test_rejected_step_keeps_noise_ledger_once(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.5, t_final=0.5, newton_tol=1e-11,
                          newton_max_iter=4, max_rejections=4)
        n = random_field(long_domain, np.random.default_rng(8), scale=0.01)
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        # the noise mean of a halved march: test_noise_mean_is_the_integral_ledger_mean[True]
        c, _, _, _, _, depths = advance(u0.coeffs[None], n.coeffs[None], cfg, long_domain)
        assert depths[0] >= 1
        assert abs(c[0].flat[0] - (u0.mean + n.mean)) < 1e-14


# one step of dt, and the step of test_rejection_then_success, halved twice
STEPS = {"one_step": (dict(dt=5e-2, t_final=5e-2), 0),
         "halved": (dict(dt=0.5, t_final=0.5, newton_max_iter=4, max_rejections=4), 2)}


class TestOneResolventPerIteration:
    @pytest.mark.parametrize("graph, step", (("quartic_double_well", "one_step"),
                                             ("sixth_power_well", "one_step"),
                                             ("quartic_double_well", "halved")))
    @pytest.mark.parametrize("splitting", ("convex_splitting", "fully_implicit"))
    def test_resolvent_calls_match_residual_evaluations(self, long_domain, monkeypatch,
                                                        graph, step, splitting):
        """The step's record holds every residual evaluation and every correction,
        those of a failed attempt included."""
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        settings, depth = STEPS[step]
        cfg = make_config(graph, ("negative_identity", 1.0), lam=1e-2, newton_tol=1e-11,
                          splitting=splitting, **settings)
        calls, solves = [], []
        resolvent, cg = mn.resolvent, sp.cg
        monkeypatch.setattr(mn, "resolvent", lambda *a: calls.append(1) or resolvent(*a))
        monkeypatch.setattr(sp, "cg", lambda *a: solves.append(1) or cg(*a))
        c, _, xi, iters, res, depths = advance(u0.coeffs[None], None, cfg, long_domain)
        assert depths[0] == depth
        assert len(calls) == len(res[0])
        assert len(solves) == iters[0]  # one CG solve per correction of a lone member
        monkeypatch.undo()
        modes = long_domain.modes
        want = _analysis(mn.yosida(cfg.graph, cfg.lam, _synthesis(c[0], modes)), modes)
        assert np.array_equal(xi[0], want)


class TestDriftMonotonicity:
    def test_weak_monotonicity_constant(self, long_domain):
        lam, c_pi = 1e-2, 1.0
        cfg = make_config("quartic_double_well", ("negative_identity", c_pi), lam=lam)
        c = (1.0 / lam + c_pi) ** 2 / 4.0
        for _ in range(100):
            v1 = random_field(long_domain, RNG, scale=1.0)
            v2 = random_field(long_domain, RNG, scale=1.0)
            delta = v1 - v2
            pairing = inner(sp.drift(v1, cfg) - sp.drift(v2, cfg), delta)
            assert pairing >= -c * norm(delta, "H") ** 2 * (1 + 1e-10) - 1e-12


class TestSourceTerms:
    def test_steady_state_with_source(self):
        dom = Domain((2.0,), (8,))
        gc = np.zeros(8)
        gc[2] = 1.3
        g = SpectralField(dom, gc)
        cfg = make_config("linear", ("zero",), lam=1e-2, dt=0.5, t_final=40.0,
                          source=g)
        u0 = SpectralField(dom, np.zeros(8))
        traj = sp.simulate(u0, cfg)
        mu2 = (2 * np.pi / 2.0) ** 2
        want = 1.3 / (mu2 + 1.0 / 1.01)
        assert traj[-1].u.coeffs[2] == pytest.approx(want, abs=1e-10)

    def test_source_domain_checked(self, long_domain, unit_domain, study_field):
        g = SpectralField(unit_domain, np.zeros(unit_domain.modes))
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), source=g)
        with pytest.raises(ValueError, match="different domain"):
            sp.simulate(study_field, cfg)
        with pytest.raises(ValueError, match="different domain"):
            sp.drift(study_field, cfg)


class TestMultiplicativeSaturation:
    """Saturated multiplicative forcing coincides with mean-free additive forcing."""

    def test_fields_match_to_rounding(self, long_domain):
        op_m = nz.diffusion_operator(long_domain, 4, kind="multiplicative",
                                     sigma=0.1, clamp_bound=1.0)
        op_a = nz.diffusion_operator(long_domain, 4, sigma=0.1, mean_zero=True)
        assert np.array_equal(op_m.columns, op_a.columns)
        c = np.zeros(64)
        c[0] = 2.0
        c[3] = 0.05
        u = SpectralField(long_domain, c)  # grid values stay above the clamp
        for s in range(5):
            dW = nz.WienerProcess(4, seed=9).increments_at(s, 1e-3)
            fm = nz.apply_diffusion(op_m, u, dW)
            fa = nz.apply_diffusion(op_a, None, dW)
            assert np.max(np.abs(fm.coeffs - fa.coeffs)) < 5e-15

    def test_trajectories_match(self, long_domain):
        op_m = nz.diffusion_operator(long_domain, 4, kind="multiplicative",
                                     sigma=0.1, clamp_bound=1.0)
        op_a = nz.diffusion_operator(long_domain, 4, sigma=0.1, mean_zero=True)
        c = np.zeros(64)
        c[0] = 2.0
        c[3] = 0.05
        u0 = SpectralField(long_domain, c)
        cfg = make_config("quartic_double_well", ("zero",), dt=1e-3,
                          t_final=0.02, newton_tol=1e-12)
        tm = sp.simulate(u0, cfg, nz.NoiseModel(nz.WienerProcess(4, seed=9), op_m))
        ta = sp.simulate(u0, cfg, nz.NoiseModel(nz.WienerProcess(4, seed=9), op_a))
        for a, b in zip(tm, ta):
            assert np.max(np.abs(a.u.coeffs - b.u.coeffs)) < 1e-12
            assert a.u.coeffs.flat[0] == 2.0


class TestRegularizationLimit:
    def test_trajectories_tighten_as_lam_shrinks(self, long_domain, study_field):
        runs = {}
        for lam in (1e-1, 1e-2, 1e-3):
            cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                              lam=lam, dt=1e-3, t_final=0.05)
            runs[lam] = sp.simulate(study_field, cfg)

        def dist(a, b):
            return max(norm(x.u - y.u, "V1") for x, y in zip(a, b))

        d1 = dist(runs[1e-1], runs[1e-2])
        d2 = dist(runs[1e-2], runs[1e-3])
        assert 0 < d2 < d1


class TestPhaseSeparation:
    # reference endpoint from a refined run (256 modes, dt = 5e-4) of the
    # same configuration; the coarse run below must land on the same plateau
    FINE_SUP = 1.009347628776

    def test_unstable_mode_grows_to_order_one_plateau(self, long_domain):
        c0 = np.zeros(64)
        c0[1] = 0.1  # first cosine mode: mu_1 < 1 on this domain, so it grows
        u0 = SpectralField(long_domain, c0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.05, t_final=60.0, newton_tol=1e-11)
        traj = sp.simulate(u0, cfg)
        final = np.max(np.abs(to_grid(traj[-1].u)))
        assert 0.9 <= final <= 1.1
        assert final == pytest.approx(self.FINE_SUP, abs=5e-3)
        assert abs(traj[-1].u.mean) < 1e-13

    def test_stable_mode_decays(self):
        # on a unit-length domain the same mode sits above the cutoff and dies
        dom = Domain((1.0,), (16,))
        c0 = np.zeros(16)
        c0[1] = 0.1
        u0 = SpectralField(dom, c0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.05, t_final=10.0)
        traj = sp.simulate(u0, cfg)
        assert np.max(np.abs(to_grid(traj[-1].u))) < 1e-3


class TestConfigAndTrajectory:
    def test_validation(self, quartic, neg_id):
        with pytest.raises(ValueError):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, eps=-1e-3)
        with pytest.raises(ValueError):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, lam=0.0)
        with pytest.raises(ValueError):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, dt=0.0)
        with pytest.raises(ValueError):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, dt=0.2, t_final=0.1)
        with pytest.raises(ValueError):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, newton_tol=1e-15)
        with pytest.raises(ValueError):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, splitting="strang")

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("name", ("eps", "lam", "dt", "t_final", "newton_tol"))
    def test_non_finite_rejected(self, quartic, neg_id, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, **{name: value})

    def test_newton_tol_above_1e_6_rejected(self, quartic, neg_id):
        # a looser tolerance can accept Newton's start on every step, so a run
        # that does not move would pass its evolution identity
        assert sp.SolverConfig(graph=quartic, perturbation=neg_id, newton_tol=1e-6)
        with pytest.raises(ValueError,
                           match=r"^newton_tol must lie in \[1e-14, 1e-6\], got 1\.1e-06$"):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, newton_tol=1.1e-6)

    @pytest.mark.parametrize("name,value,label", [("lam", 0.0, "H2"), ("lam", np.nan, "H2"),
                                                  ("eps", -0.1, "H4"), ("eps", np.inf, "H4")])
    def test_rejections_name_the_hypothesis(self, quartic, neg_id, name, value, label):
        with pytest.raises(ValueError, match=rf"{name} must .*violates \({label}\)"):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, **{name: value})

    @pytest.mark.parametrize("name", ("newton_max_iter", "cg_max_iter", "max_rejections"))
    def test_negative_counts_rejected(self, quartic, neg_id, name):
        sp.SolverConfig(graph=quartic, perturbation=neg_id, **{name: 0})
        with pytest.raises(ValueError, match=name):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, **{name: -3})

    def test_halvings_bounded(self, quartic, neg_id):
        sp.SolverConfig(graph=quartic, perturbation=neg_id, max_rejections=52)
        with pytest.raises(ValueError, match="max_rejections"):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, max_rejections=53)

    def test_newton_iterations_bounded(self, quartic, neg_id):
        sp.SolverConfig(graph=quartic, perturbation=neg_id, newton_max_iter=100)
        with pytest.raises(ValueError, match="newton_max_iter"):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, newton_max_iter=101)

    def test_cg_iterations_bounded(self, quartic, neg_id):
        sp.SolverConfig(graph=quartic, perturbation=neg_id, cg_max_iter=10_000)
        with pytest.raises(ValueError, match=r"cg_max_iter must lie in \[0, 10000\]"):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, cg_max_iter=10_001)

    def test_step_count_overflow_rejected(self, quartic, neg_id):
        with pytest.raises(ValueError, match="overflows"):
            sp.SolverConfig(graph=quartic, perturbation=neg_id, dt=1e-300, t_final=1e300)

    def test_step_counting(self, quartic, neg_id):
        cfg = sp.SolverConfig(graph=quartic, perturbation=neg_id, dt=0.3, t_final=1.0)
        assert cfg.n_steps == 4
        cfg = sp.SolverConfig(graph=quartic, perturbation=neg_id, dt=0.25, t_final=1.0)
        assert cfg.n_steps == 4
        cfg = sp.SolverConfig(graph=quartic, perturbation=neg_id, dt=0.1, t_final=0.1)
        assert cfg.n_steps == 1

    def test_trajectory_protocol(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          dt=1e-3, t_final=5e-3)
        traj = sp.simulate(study_field, cfg)
        assert len(traj) == 6
        assert np.allclose(traj.times, np.arange(6) * 1e-3)
        assert np.array_equal(traj[0].u.coeffs, study_field.coeffs)
        assert [s.step_index for s in traj] == list(range(6))

    def test_trajectory_stacks_are_read_only(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          dt=1e-3, t_final=5e-3)
        op = nz.diffusion_operator(long_domain, 4, sigma=0.1)
        traj = sp.simulate(study_field, cfg, nz.NoiseModel(nz.WienerProcess(4, 3), op))
        for name in ("u", "w", "xi", "noise_mean", "times"):
            stack = getattr(traj, name)
            assert stack.shape[0] == len(traj) and not stack.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stack[0] = 1.0

    def test_indexed_states_equal_the_rows(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          dt=1e-3, t_final=5e-3)
        op = nz.diffusion_operator(long_domain, 4, sigma=0.1)
        traj = sp.simulate(study_field, cfg, nz.NoiseModel(nz.WienerProcess(4, 3), op))
        assert len(traj.states) == len(traj) == len(traj.newton_iterations) + 1
        for n in (0, 1, len(traj) - 1, -1, -len(traj)):
            state, row = traj[n], n % len(traj)
            for name in ("u", "w", "xi"):
                assert np.array_equal(getattr(state, name).coeffs, getattr(traj, name)[row])
            assert state.noise_mean == traj.noise_mean[row]
            assert (state.t, state.step_index) == (traj.times[row], row)
        assert traj[-1].newton_iterations == traj.newton_iterations[-1] > 0
        assert traj[-1].newton_residuals == traj.newton_residuals[-1]
        assert (traj[0].newton_iterations, traj[0].newton_residuals) == (0, ())
        with pytest.raises(IndexError):
            traj[len(traj)]

    def test_no_field_per_step_from_simulate_to_diagnostics(self, long_domain, study_field,
                                                            monkeypatch):
        op = nz.diffusion_operator(long_domain, 4, sigma=0.1)
        model = nz.NoiseModel(nz.WienerProcess(4, 3), op)
        built = []
        original = SpectralField.__post_init__
        monkeypatch.setattr(SpectralField, "__post_init__",
                            lambda self: built.append(1) or original(self))
        counts = []
        for t_final in (5e-3, 5e-2):
            cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                              dt=1e-3, t_final=t_final)
            built.clear()
            traj = sp.simulate(study_field, cfg, model)
            ex.check_invariants(traj, ex.run_diagnostics(traj))
            counts.append(len(built))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("batched", [False, True])
    def test_storage_grows_with_the_march(self, long_domain, study_field, monkeypatch,
                                          batched):
        # 10**12 steps: stacks sized up front would not fit in memory
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          dt=1e-12, t_final=1.0)
        assert cfg.n_steps >= 10**12 - 1
        original = sp._advance
        calls = []

        class Stop(Exception):
            pass

        def advance(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise Stop
            return original(*args, **kwargs)

        monkeypatch.setattr(sp, "_advance", advance)
        batch = sp.Batch(study_field, cfg, [None]) if batched else None
        with pytest.raises(Stop):
            sp.simulate(study_field, cfg, None, batch)
        assert len(calls) == 2

    def test_noise_domain_checked(self, long_domain, unit_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0))
        bad = nz.NoiseModel(nz.WienerProcess(4, seed=1), nz.diffusion_operator(unit_domain, 4))
        with pytest.raises(ValueError, match="different domain"):
            sp.simulate(study_field, cfg, bad)

    @pytest.mark.parametrize("with_source", (False, True))
    @pytest.mark.parametrize("splitting", ("convex_splitting", "fully_implicit"))
    def test_recorded_w_matches_scheme(self, long_domain, study_field, splitting, with_source):
        g = random_field(long_domain, np.random.default_rng(3), scale=0.5)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          dt=1e-3, t_final=5e-3, newton_tol=1e-12, splitting=splitting,
                          source=g if with_source else None)
        traj = sp.simulate(study_field, cfg)
        from svch.spectral import neumann_eigensystem

        mu = neumann_eigensystem(long_domain).mu
        slope = cfg.perturbation.lipschitz
        xi0 = apply_pointwise(study_field, lambda v: mn.yosida(cfg.graph, cfg.lam, v))
        assert np.allclose(traj[0].xi.coeffs, xi0.coeffs, rtol=0, atol=1e-12)
        for s in range(len(traj)):
            new = traj[s]
            # row 0 takes pi at u0; a convex-splitting step takes it at the
            # old state, a fully implicit one at the new state
            at = traj[s - 1] if s and splitting == "convex_splitting" else new
            pi_at = apply_pointwise(at.u, lambda v: -slope * v)
            want = mu * new.u.coeffs + new.xi.coeffs + pi_at.coeffs
            if with_source:
                want = want - g.coeffs
            assert np.allclose(new.w.coeffs, want, rtol=0, atol=1e-12)


class TestBatchedCore:
    """Member stacks: every member follows exactly its solo (B = 1) run."""

    @staticmethod
    def assert_members_equal_solo(u0, cfg, op, seeds):
        noises = [nz.NoiseModel(nz.WienerProcess(op.mode_count, s), op) for s in seeds]
        c = np.repeat(u0.coeffs[None], len(seeds), axis=0)
        plan, work = sp._step_plan(u0.domain, cfg.eps, cfg.dt), sp._workspace(len(c), u0.domain)
        batch = []
        for s in range(cfg.n_steps):
            # each row's field by the per-state path
            field = np.stack([nz.apply_diffusion(op, SpectralField(u0.domain, row),
                                                 model.process.increments_at(s, cfg.dt)).coeffs
                              for row, model in zip(c, noises)])
            batch.append((field,) + sp._advance(c, field, cfg, u0.domain, cfg.dt, s, plan, work))
            c = batch[-1][1]
        for m, model in enumerate(noises):
            solo = sp.simulate(u0, cfg, model)
            ledger = np.zeros(u0.domain.modes)
            for (field, c, w, xi, iters, res, depths), state in zip(batch, solo.states[1:]):
                ledger = ledger + field[m]
                assert np.array_equal(c[m], state.u.coeffs)
                assert np.array_equal(w[m], state.w.coeffs)
                assert np.array_equal(xi[m], state.xi.coeffs)
                assert ledger.flat[0] == state.noise_mean
                assert tuple(res[m]) == state.newton_residuals
                assert (iters[m], depths[m]) == (state.newton_iterations, state.rejections)

    def test_member_equals_solo_1d_additive(self):
        # the ensemble_1d benchmark setup: 16 members, 20 steps
        dom = Domain((10.0,), (32,))
        c = np.zeros(32)
        c[1], c[2] = 0.1, 0.05
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=1e-2,
                          lam=1e-2, dt=0.02, t_final=0.4)
        op = nz.diffusion_operator(dom, 8, sigma=0.1, mean_zero=True)
        self.assert_members_equal_solo(SpectralField(dom, c), cfg, op, range(100, 116))

    @pytest.mark.parametrize("graph", ["sixth_power_well", "exponential"])
    def test_member_equals_solo_iterative_resolvent(self, graph):
        # graphs without a closed-form resolvent: the roots of one member
        # must not depend on the other rows of the stack
        dom = Domain((10.0,), (32,))
        u0 = random_field(dom, np.random.default_rng(6), scale=0.4)
        cfg = make_config(graph, ("negative_identity", 1.0), eps=1e-2, lam=1e-2,
                          dt=0.02, t_final=0.1)
        op = nz.diffusion_operator(dom, 8, sigma=0.3, mean_zero=True)
        self.assert_members_equal_solo(u0, cfg, op, range(20, 26))

    def test_member_equals_solo_2d_multiplicative(self):
        dom = Domain((4.0, 4.0), (8, 8))
        u0 = random_field(dom, np.random.default_rng(2), scale=0.6)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=1e-2,
                          lam=1e-2, dt=0.05, t_final=0.2)
        op = nz.diffusion_operator(dom, 6, kind="multiplicative", sigma=0.3)
        self.assert_members_equal_solo(u0, cfg, op, range(16))

    def test_halved_row_leaves_the_batch_alone(self, long_domain):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.5, t_final=0.5, newton_tol=1e-11,
                          newton_max_iter=4, max_rejections=4)
        hard = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        easy = [random_field(long_domain, np.random.default_rng(s), scale=0.02)
                for s in (1, 2, 3)]
        fields = easy[:2] + [hard] + easy[2:]
        noise = np.stack([random_field(long_domain, np.random.default_rng(8 + m),
                                       scale=0.01).coeffs for m in range(4)])
        c, w, xi, iters, res, depths = advance(
            np.stack([f.coeffs for f in fields]), noise, cfg, long_domain)
        assert depths == [0, 0, 2, 0]
        for m, f in enumerate(fields):
            c1, w1, xi1, iters1, res1, depths1 = advance(f.coeffs[None], noise[m][None], cfg,
                                                         long_domain)
            assert np.array_equal(c[m], c1[0])
            assert np.array_equal(w[m], w1[0])
            assert np.array_equal(xi[m], xi1[0])
            assert res[m] == res1[0]
            assert (iters[m], depths[m]) == (iters1[0], depths1[0])

    def test_batch_hands_out_solo_trajectories(self, long_domain, monkeypatch):
        u0 = random_field(long_domain, np.random.default_rng(4), scale=0.3)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=1e-2,
                          lam=1e-2, dt=0.02, t_final=0.1)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.1)
        noises = [nz.NoiseModel(nz.WienerProcess(8, s), op) for s in (7, 3, 5)]
        batch = sp.Batch(u0, cfg, noises)
        calls = []
        original = sp._advance
        monkeypatch.setattr(sp, "_advance", lambda *a, **k: calls.append(len(a[0]))
                            or original(*a, **k))
        got = [sp.simulate(u0, cfg, model, batch) for model in noises]
        assert calls == [3] * cfg.n_steps  # integrated once, as one stack
        monkeypatch.setattr(sp, "_advance", original)
        for traj, model in zip(got, noises):
            solo = sp.simulate(u0, cfg, model)
            assert traj.noise is model and len(traj) == len(solo)
            for a, b in zip(traj, solo):
                for f in ("u", "w", "xi"):
                    assert np.array_equal(getattr(a, f).coeffs, getattr(b, f).coeffs)
                assert (a.noise_mean, a.t, a.step_index, a.newton_iterations, a.newton_residuals,
                        a.rejections) == (b.noise_mean, b.t, b.step_index, b.newton_iterations,
                                          b.newton_residuals, b.rejections)

    def test_batch_keeps_one_bounded_group(self, long_domain, monkeypatch):
        u0 = random_field(long_domain, np.random.default_rng(4), scale=0.3)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=1e-2,
                          lam=1e-2, dt=0.02, t_final=0.1)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.1)
        noises = [nz.NoiseModel(nz.WienerProcess(8, s), op) for s in range(8)]
        member = (3 * u0.coeffs.nbytes + 8) * (cfg.n_steps + 1)  # stored rows of one member
        calls = []
        original = sp._advance
        monkeypatch.setattr(sp, "_advance", lambda *a, **k: calls.append(len(a[0]))
                            or original(*a, **k))
        monkeypatch.setattr(sp, "_BATCH_BYTES", 3 * member + 7)
        batch = sp.Batch(u0, cfg, noises)
        for model in noises:
            traj = sp.simulate(u0, cfg, model, batch)
            stored = sum(getattr(t, f).nbytes for t in batch._trajectories
                         for f in ("u", "w", "xi", "noise_mean"))
            assert stored <= sp._BATCH_BYTES
        assert calls == [3] * cfg.n_steps * 2 + [2] * cfg.n_steps
        monkeypatch.setattr(sp, "_advance", original)
        solo = sp.simulate(u0, cfg, noises[-1])
        assert all(np.array_equal(a.u.coeffs, b.u.coeffs) for a, b in zip(traj, solo))
        # a member larger than the budget runs alone, as a solo run
        monkeypatch.setattr(sp, "_BATCH_BYTES", member - 1)
        batch = sp.Batch(u0, cfg, noises)
        traj = sp.simulate(u0, cfg, noises[-1], batch)
        assert all(np.array_equal(a.u.coeffs, b.u.coeffs) for a, b in zip(traj, solo))

    def test_batch_rejects_a_foreign_member(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), dt=1e-3,
                          t_final=2e-3)
        op = nz.diffusion_operator(long_domain, 4, sigma=0.1)
        member, stranger = (nz.NoiseModel(nz.WienerProcess(4, s), op) for s in (1, 2))
        batch = sp.Batch(study_field, cfg, [member])
        with pytest.raises(ValueError, match="does not belong"):
            sp.simulate(study_field, cfg, stranger, batch)
        with pytest.raises(ValueError, match="does not belong"):
            sp.simulate(study_field, replace(cfg, dt=2e-3), member, batch)

    @pytest.mark.parametrize("noisy_first", [False, True])
    def test_batch_refuses_noisy_and_deterministic_members(self, study_field, noisy_first):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), dt=1e-3,
                          t_final=2e-3)
        model = nz.NoiseModel(nz.WienerProcess(4, 1), nz.diffusion_operator(
            study_field.domain, 4, sigma=0.1))
        members = [model, None] if noisy_first else [None, model]
        batch = sp.Batch(study_field, cfg, members)
        for noise in members:
            with pytest.raises(ValueError, match="members with noise and members without"):
                sp.simulate(study_field, cfg, noise, batch)

    def test_pcg_matches_dense_solve_per_member(self):
        dom = Domain((3.0,), (12,))
        modes = dom.modes
        eig = neumann_eigensystem(dom)
        sq, sqmu = np.sqrt(eig.weights), np.sqrt(eig.mu)
        dt = 0.05
        diag = 1.0 + dt * eig.mu * eig.mu
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.0, 20.0, (4, 24))  # per-member Jacobian weight on the grid

        def apply(y, weight):
            # the symmetrized Newton Jacobian of one member
            t2 = _analysis(weight * _synthesis(sqmu * y / sq, modes), modes)
            return diag * y + dt * sqmu * sq * t2

        def matvec(p, rows):
            return np.stack([apply(p[k], weights[m]) for k, m in enumerate(rows)])

        b = rng.standard_normal((4, 12))
        b[2] = 0.0  # leaves the working set before the first update
        precond = 1.0 / (diag + dt * eig.mu * np.maximum(weights.mean(axis=1), 0.0)[:, None])
        x, info = sp.cg(matvec, b, precond, 1e-13, 200)
        assert info == 0
        assert np.array_equal(x[2], np.zeros(12))
        for m in range(4):
            dense = np.stack([apply(e, weights[m]) for e in np.eye(12)], axis=1)
            assert np.allclose(dense, dense.T, rtol=0, atol=1e-12 * np.abs(dense).max())
            assert np.linalg.eigvalsh(dense).min() > 0
            want = np.linalg.solve(dense, b[m])
            assert np.max(np.abs(x[m] - want)) <= 1e-11 * (1 + np.max(np.abs(want)))

    def test_pcg_stops_each_member_at_its_own_tolerance(self):
        rng = np.random.default_rng(8)
        n = 40
        q = np.linalg.qr(rng.standard_normal((4, n, n)))[0]
        mats = q @ (np.geomspace(1.0, 1e3, n)[:, None] * q.transpose(0, 2, 1))
        b = rng.standard_normal((4, n))
        precond = 1.0 / np.diagonal(mats, axis1=1, axis2=2)
        atol = np.array([1e-2, 1e-10, 1e-4, 1e-7])

        def run(members, tols):
            # per member: its iterate after each of its updates
            seen, iterates = [], {m: [] for m in members}

            def matvec(p, rows):
                seen[:] = [members[k] for k in rows]
                return np.stack([mats[m] @ p[k] for k, m in enumerate(seen)])

            def callback(xa):
                for m, xk in zip(seen, xa, strict=True):
                    iterates[m].append(xk.copy())

            x, info = sp.cg(matvec, b[members], precond[members], tols, 200, callback)
            assert info == 0
            return x, iterates

        x, iterates = run([0, 1, 2, 3], atol)
        assert len({len(v) for v in iterates.values()}) == 4
        for m in range(4):
            solo, solo_iterates = run([m], float(atol[m]))
            assert np.array_equal(x[m], solo[0])
            assert len(iterates[m]) == len(solo_iterates[m])
            # the residual falls below atol[m] at the last update and not before
            res = [np.linalg.norm(b[m] - mats[m] @ xk) for xk in iterates[m]]
            assert res[-1] < 2 * atol[m] and res[-2] > atol[m] / 2

    def test_pcg_scalar_tolerance_equals_its_array(self):
        rng = np.random.default_rng(9)
        n = 30
        q = np.linalg.qr(rng.standard_normal((3, n, n)))[0]
        mats = q @ (np.geomspace(1.0, 1e4, n)[:, None] * q.transpose(0, 2, 1))
        b = rng.standard_normal((3, n))
        precond = 1.0 / np.diagonal(mats, axis1=1, axis2=2)

        def matvec(p, rows):
            return np.stack([mats[m] @ p[k] for k, m in enumerate(rows)])

        for maxiter in (4, 200):  # every member hits the cap, then none
            x, info = sp.cg(matvec, b, precond, 1e-9, maxiter)
            x_arr, info_arr = sp.cg(matvec, b, precond, np.full(3, 1e-9), maxiter)
            assert np.array_equal(x, x_arr) and info == info_arr == (3 if maxiter == 4 else 0)

    @staticmethod
    def spd_systems(seed, count, n=30):
        # count SPD systems of condition 1e4: (matvec, b, Jacobi preconditioner);
        # the matvec records the members it is asked to apply
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
        mats = q @ (np.geomspace(1.0, 1e4, n)[:, None] * q.transpose(0, 2, 1))
        calls = []

        def matvec(members):
            def apply(p, rows):
                calls.append([members[k] for k in rows])
                return np.stack([mats[members[k]] @ y for k, y in zip(rows, p, strict=True)])
            return apply

        return matvec, calls, rng.standard_normal((count, n)), 1.0 / np.diagonal(mats, 0, 1, 2)

    def test_pcg_staggered_exits_and_a_capped_member_equal_solo(self):
        matvec, calls, b, precond = self.spd_systems(10, 4)
        before = b.copy()
        atol = np.array([1e-2, 1e-6, 1e-9, 0.0])  # the last member runs into maxiter
        x, hits = sp.cg(matvec([0, 1, 2, 3]), b, precond, atol, 100)
        assert hits == 1 and np.array_equal(b, before) and not np.shares_memory(x, b)
        # matvecs per member: the first three leave at three different
        # iterations, the last stays to the cap
        left = [sum(m in c for c in calls) for m in range(4)]
        assert left[0] < left[1] < left[2] < left[3] == 100
        for m in range(4):
            calls.clear()
            solo, solo_hits = sp.cg(matvec([m]), b[m:m + 1], precond[m:m + 1], atol[m], 100)
            assert x[m].tobytes() == solo[0].tobytes()
            assert (len(calls), solo_hits) == (left[m], int(m == 3))

    @pytest.mark.parametrize("maxiter, hits", [(200, 0), (3, 1)])
    def test_pcg_lone_member_equals_its_row_of_a_stack(self, maxiter, hits):
        matvec, _, b, precond = self.spd_systems(11, 2)
        before = b.copy()
        x, got = sp.cg(matvec([0]), b[:1], precond[:1], 1e-10, maxiter)
        pair, _ = sp.cg(matvec([0, 1]), b, precond, 1e-10, maxiter)
        assert x.shape == (1, 30) and got == hits
        assert x[0].tobytes() == pair[0].tobytes()
        assert np.array_equal(b, before) and not np.shares_memory(x, b)

    def test_pcg_without_iterations_returns_zeros(self):
        matvec, calls, b, precond = self.spd_systems(12, 3)
        x, hits = sp.cg(matvec([0, 1, 2]), b, precond, 1e-9, 0)
        assert hits == 3 and calls == []
        assert x.shape == b.shape and not x.any() and not np.shares_memory(x, b)


class TestStepPlan:
    """A march builds the constants of its step length once."""

    HALVING = dict(dt=0.5, t_final=1.0, newton_max_iter=4, newton_tol=1e-11)

    @staticmethod
    def halving_field(domain):
        # dt = 0.5 fails Newton's four iterations on step 0 alone
        c = np.zeros(domain.modes)
        c[1], c[2], c[3] = 1.5, 0.8, 0.6
        return SpectralField(domain, c)

    @staticmethod
    def record(monkeypatch, name):
        calls, original = [], getattr(sp, name)
        monkeypatch.setattr(sp, name, lambda *a: calls.append(a) or original(*a))
        return calls

    def test_march_without_halvings_builds_one_plan(self, long_domain, study_field,
                                                    monkeypatch):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=0.1,
                          dt=1e-3, t_final=5e-3)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.1)
        noises = [nz.NoiseModel(nz.WienerProcess(8, s), op) for s in (1, 2)]
        plans = self.record(monkeypatch, "_step_plan")
        traj = sp.simulate(study_field, cfg, noises[0], sp.Batch(study_field, cfg, noises))
        assert traj.rejections == (0,) * cfg.n_steps
        assert plans == [(long_domain, 0.1, 1e-3)]

    def test_halved_step_builds_a_plan_for_its_substep(self, long_domain, monkeypatch):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), **self.HALVING)
        plans, original = [], sp._step_plan  # (plan, the dt it was built for)
        monkeypatch.setattr(sp, "_step_plan", lambda *a: plans.append((original(*a), a[2]))
                            or plans[-1][0])
        steps = self.record(monkeypatch, "_solve_step")
        traj = sp.simulate(self.halving_field(long_domain), cfg)
        assert traj.rejections == (1, 0)
        # each solve's plan, mapped back to the dt it was built for
        assert [next(dt for p, dt in plans if p is a[4]) for a in steps] == [0.5, 0.25, 0.25, 0.5]
        assert [dt for _, dt in plans] == [0.5, 0.25]

    def test_plan_arrays_are_read_only(self, plane_domain):
        plan = sp._step_plan(plane_domain, 0.1, 1e-3)
        assert len(plan) == 10
        for a in plan:
            assert isinstance(a, np.ndarray) and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            plan[6][0, 0] = 0.0
        for to in plan[2:4]:  # CG's two similarity maps
            with pytest.raises(ValueError, match="read-only"):
                to[1] = 0.0

    @pytest.mark.parametrize("domain", ["long_domain", "plane_domain"])
    def test_maps_are_flat_and_zero_on_the_constant_mode(self, request, domain):
        dom = request.getfixturevalue(domain)
        to_b, to_c = sp._step_plan(dom, 0.1, 1e-3)[2:4]
        assert to_b.shape == to_c.shape == (np.prod(dom.modes),)
        assert to_b[0] == to_c[0] == 0.0
        assert np.all(to_b[1:] < 0) and np.all(to_c[1:] > 0)

    def test_bhat_is_the_scaled_residual(self, plane_domain, monkeypatch):
        # b = -sqrt(w) F / sqrt(mu) off the constant mode and 0 on it, for the
        # residual F of the iterate that each correction starts from
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=0.1,
                          lam=1e-2, dt=0.05, t_final=0.05, newton_tol=1e-12)
        u = np.stack([random_field(plane_domain, np.random.default_rng(m), scale=0.5).coeffs
                      for m in range(2)])
        noise = 0.01 * np.random.default_rng(7).standard_normal(u.shape)
        iterates, systems = [], []
        potential, cg = sp._potential, sp.cg
        monkeypatch.setattr(sp, "_potential", lambda c, *a: iterates.append(
            (c.copy(), r := potential(c, *a))) or r)
        monkeypatch.setattr(sp, "cg", lambda m, b, *a: systems.append(b.copy()) or cg(m, b, *a))
        advance(u, noise, cfg, plane_domain)
        eig = neumann_eigensystem(plane_domain)
        visc, dtmu = 1.0 + cfg.eps * eig.mu, cfg.dt * eig.mu
        sq, sqmu = np.sqrt(eig.weights).ravel()[1:], np.sqrt(eig.mu).ravel()[1:]
        rhs = visc * u + noise
        both = [(b, c, r[3]) for b, (c, r) in zip(systems, iterates) if len(b) == 2]
        assert len(both) >= 2  # the corrections before either member converges
        for b, c, w in both:
            F = (visc * c + dtmu * w - rhs).reshape(2, -1)
            want = -(sq * F[:, 1:]) / sqmu
            assert np.all(b[:, 0] == 0.0)
            assert np.all(np.abs(b[:, 1:] - want) <= 1e-15 * np.abs(want))

    def test_each_run_looks_the_eigensystem_up_alike(self, study_field, monkeypatch):
        # a plan cached across runs would leave later runs without the lookup
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), t_final=5e-3)
        calls = self.record(monkeypatch, "neumann_eigensystem")
        counts = []
        for _ in range(2):
            sp.simulate(study_field, cfg)
            counts.append(len(calls))
            calls.clear()
        assert counts[0] == counts[1] > 0


class TestKinkEnergy:
    """The stationary kink tanh((x - L/2)/sqrt 2) of the quartic well with pi = -r.

    Its interface energy is 2 sqrt(2)/3, the scheme's well drops W's constant
    1/4 (an offset of -L/4), and the Moreau envelope of beta_hat is
    beta_hat - (lam/2) beta^2 + O(lam^2): the first-order energy is
    2 sqrt(2)/3 - L/4 - (lam/2) int tanh^6, with int tanh^6 = L -
    sqrt(2) (2 + 2/3 + 2/5).  The next term, (3 lam^2/2) int tanh^8 = 22.9
    lam^2, is the measured excess of 22.1-22.8 lam^2.  In 2D, the planar
    kink along the first axis follows its 1D run.
    """

    @staticmethod
    def kink():
        # the kink's analysis on L = 20 with 64 modes
        x = (np.arange(128) + 0.5) * 20.0 / 128
        return from_grid(Domain((20.0,), (64,)), np.tanh((x - 10.0) / np.sqrt(2)))

    @pytest.mark.parametrize("lam", [1e-2, 1e-3, 1e-4])
    def test_energy_to_first_order_in_lam(self, lam):
        length, kink = 20.0, self.kink()
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), lam=lam)
        tanh6 = length - np.sqrt(2) * (2 + 2 / 3 + 2 / 5)
        first_order = 2 * np.sqrt(2) / 3 - length / 4 - lam / 2 * tanh6
        # dropping the lam term misses by 0.078 at lam = 1e-2
        assert abs(sum(sp.free_energy_parts(kink, cfg)) - first_order) <= 30 * lam**2

    @pytest.mark.parametrize("lam", [1e-2, 1e-3])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("side, m2", [(5.0, 4), (20.0, 8)])
    def test_planar_kink_in_2d_follows_the_1d_run(self, side, m2, eps, lam):
        """u0 constant along the second axis: its column of first-axis modes
        marches as the 1D run, and no other mode moves.

        Measured at newton_tol 1e-10: columns within 2.1e-11, other modes at
        most 7.9e-16.  Not bitwise, as the 2D transform sums in another order.
        """
        kink = self.kink()
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=eps, lam=lam,
                          dt=0.05, t_final=2.0, newton_tol=1e-10)
        c = np.zeros((64, m2))
        c[:, 0] = kink.coeffs
        planar = sp.simulate(SpectralField(Domain((20.0, side), (64, m2)), c), cfg).u
        line = sp.simulate(kink, cfg).u
        assert np.max(np.abs(planar[:, :, 0] - line)) <= 10 * cfg.newton_tol
        assert np.max(np.abs(planar[:, :, 1:])) <= 1e-14


class TestTemporalOrder:
    """Noise-free backward Euler is first order in dt.

    1D, L = 10, 32 modes, the quartic well, lam = 1e-2 and the CLI's default
    initial coefficients, to T = 1 at dt = 0.04 ... 0.0025: the sup-H gap
    |u_dt - u_dt/2| at shared times halves with dt.  Measured under convex
    splitting at eps = 0: 6.99e-3, 3.76e-3, 1.95e-3 and 9.94e-4, ratios 1.86,
    1.93 and 1.96, slope 0.94; every ratio of the four cases lies in
    [1.86, 1.98].  A half-order scheme gives ratios near 1.41, a second-order
    one near 4.
    """

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("splitting", ["convex_splitting", "fully_implicit"])
    def test_gaps_halve_with_dt(self, splitting, eps):
        dom = Domain((10.0,), (32,))
        c = np.zeros(32)
        c[[0, 1, 2, 5]] = 0.05, 0.4, 0.2, 0.1
        dts = [0.04, 0.02, 0.01, 0.005, 0.0025]
        runs = [sp.simulate(SpectralField(dom, c), make_config(
            "quartic_double_well", ("negative_identity", 1.0), eps=eps, lam=1e-2, dt=dt,
            t_final=1.0, newton_tol=1e-13, splitting=splitting)).u for dt in dts]
        weights = neumann_eigensystem(dom).weights
        gaps = [np.sqrt((weights * (coarse - fine[::2]) ** 2).sum(axis=1)).max()
                for coarse, fine in zip(runs, runs[1:])]
        ratios = [a / b for a, b in zip(gaps, gaps[1:])]
        assert all(1.8 <= r <= 2.2 for r in ratios), ratios
        slope = np.polyfit(np.log(dts[:-1]), np.log(gaps), 1)[0]
        assert 0.9 <= slope <= 1.1


def _per_call_rebuilds(tree, functions) -> list:
    # (function, line, callee) of calls in the named functions, nested ones
    # included, to what the step plan or a cheaper call replaces
    rebuilds = ("neumann_eigensystem", "broadcast_to", "flatnonzero", "mean")
    return [(fn.name, node.lineno, callee)
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in functions
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            for callee in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
            if callee in rebuilds]


def test_newton_cg_core_rebuilds_nothing_per_call():
    core = ("_solve_step", "cg", "matvec")
    snippet = ("def cg():\n    np.broadcast_to(a, 3)\n    x.mean(axis=1)\n"
               "def other():\n    neumann_eigensystem(d)\n"
               "def _solve_step():\n    def matvec():\n        np.flatnonzero(a)\n")
    assert _per_call_rebuilds(ast.parse(snippet), core) == [
        ("cg", 2, "broadcast_to"), ("cg", 3, "mean"),
        ("_solve_step", 8, "flatnonzero"), ("matvec", 8, "flatnonzero")]
    tree = ast.parse(Path(sp.__file__).read_text())
    assert {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)} >= set(core)
    assert _per_call_rebuilds(tree, core) == []


def _per_iteration_calls(tree, callees) -> list:
    # (function, line, callee) of calls to callees that the Newton-CG core
    # makes on every iteration: anywhere in cg, matvec and _potential, and
    # inside the loops of _solve_step, nested functions included
    scopes = [(fn.name, scope) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for scope in ([fn] if fn.name in ("cg", "matvec", "_potential") else
                            [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While))]
                            if fn.name == "_solve_step" else [])]
    return sorted({(name, node.lineno, callee) for name, scope in scopes
                   for node in ast.walk(scope) if isinstance(node, ast.Call)
                   for callee in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
                   if callee in callees})


def test_newton_cg_core_transforms_through_the_pair_its_solve_looked_up():
    # one route lookup and one errstate per solve: the silent entry points,
    # the lookup and the noise draw stay out of every iteration
    banned = ("_synthesis", "_analysis", "_transforms", "_increments")
    snippet = ("def _solve_step():\n"
               "    synthesis, analysis = _transforms(modes)\n"
               "    for it in range(3):\n"
               "        _synthesis(c, modes)\n"
               "        def matvec():\n"
               "            return analysis(sp._transforms(m)[1](y))\n"
               "def cg():\n"
               "    nz._increments(seeds, steps, count, dt)\n"
               "def _potential():\n"
               "    return _analysis(x, modes)\n"
               "def drift():\n"
               "    return _synthesis(c, modes)\n")
    assert _per_iteration_calls(ast.parse(snippet), banned) == [
        ("_potential", 10, "_analysis"), ("_solve_step", 4, "_synthesis"),
        ("_solve_step", 6, "_transforms"), ("cg", 8, "_increments"),
        ("matvec", 6, "_transforms")]
    tree = ast.parse(Path(sp.__file__).read_text())
    core = ("_solve_step", "cg", "matvec", "_potential")
    assert {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)} >= set(core)
    assert _per_iteration_calls(tree, banned) == []


def test_newton_loop_and_matvec_fill_no_fresh_arrays():
    # bhat, the matvec's scaled input and the Newton update are products with
    # the plan's maps, into the workspace or in place; cg alone starts an
    # array of zeros, its result from x = 0
    fills = ("zeros", "zeros_like", "full")
    snippet = ("def _solve_step():\n"
               "    out = np.zeros(3)\n"
               "    for it in range(3):\n"
               "        b = np.zeros((2, 3))\n"
               "        def matvec():\n"
               "            return np.full(3, 1.0)\n"
               "def cg():\n"
               "    x = np.zeros_like(b)\n"
               "def _potential():\n"
               "    return np.zeros_like(c)\n")
    assert [c for c in _per_iteration_calls(ast.parse(snippet), fills) if c[0] != "cg"] == [
        ("_potential", 10, "zeros_like"), ("_solve_step", 4, "zeros"),
        ("_solve_step", 6, "full"), ("matvec", 6, "full")]
    tree = ast.parse(Path(sp.__file__).read_text())
    assert [c for c in _per_iteration_calls(tree, fills) if c[0] != "cg"] == []


class TestChunkedNoise:
    """A march draws the noise of a chunk of steps at once, bitwise as step by step."""

    @staticmethod
    def record_steps(monkeypatch):
        # (pre-step stack, noise field, step index) of every step a march takes
        steps, original = [], sp._advance

        def spy(u, noise, config, domain, dt, step_index, plan, work, *halving):
            if not halving:
                steps.append((u.copy(), noise, step_index))
            return original(u, noise, config, domain, dt, step_index, plan, work, *halving)

        monkeypatch.setattr(sp, "_advance", spy)
        return steps

    @pytest.mark.parametrize("kind", ["additive", "multiplicative"])
    @pytest.mark.parametrize("members", [1, 3])
    def test_chunks_equal_per_row_apply_diffusion(self, long_domain, study_field, monkeypatch,
                                                  kind, members):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=1e-2,
                          dt=1e-3, t_final=8e-3)
        op = nz.diffusion_operator(long_domain, 6, kind=kind, sigma=0.3, mean_zero=True)
        noises = [nz.NoiseModel(nz.WienerProcess(6, s), op) for s in (5, 9, 2)[:members]]
        batch = sp.Batch(study_field, cfg, noises) if members > 1 else None
        assert batch is None or batch.size >= members  # one group
        # chunks of 3 steps, so the 8 steps end on a short chunk
        monkeypatch.setattr(sp, "_BATCH_BYTES", 3 * members * study_field.coeffs.nbytes)
        draws, original = [], nz._increments
        monkeypatch.setattr(nz, "_increments", lambda *a: draws.append(len(a[0])) or original(*a))
        steps = self.record_steps(monkeypatch)
        traj = sp.simulate(study_field, cfg, noises[0], batch)
        assert draws == [3 * members, 3 * members, 2 * members]
        assert [s for _, _, s in steps] == list(range(cfg.n_steps))
        for u, field, s in steps:
            for row, model, got in zip(u, noises, field):
                dW = model.process.increments_at(s, cfg.dt)
                want = nz.apply_diffusion(op, SpectralField(long_domain, row), dW).coeffs
                assert got.tobytes() == want.tobytes()
        monkeypatch.undo()
        default = sp.simulate(study_field, cfg, noises[0], batch and sp.Batch(study_field, cfg,
                                                                              noises))
        for a in ("u", "w", "xi", "noise_mean"):
            assert getattr(traj, a).tobytes() == getattr(default, a).tobytes()

    def test_noise_chunk_does_not_grow_with_the_run(self, monkeypatch):
        dom = Domain((20.0, 20.0), (64, 64))
        op = nz.diffusion_operator(dom, 16, sigma=0.1, mean_zero=True)
        model = nz.NoiseModel(nz.WienerProcess(16, 1), op)
        u0 = random_field(dom, np.random.default_rng(8), scale=0.1)
        original = nz._profiles

        class Drawn(Exception):
            pass

        def first_chunk(op, dW):
            raise Drawn(original(op, dW).nbytes, dW.nbytes)

        monkeypatch.setattr(nz, "_profiles", first_chunk)
        sizes = []
        for n_steps in (200, 2000):
            cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=0.01,
                              dt=0.01, t_final=n_steps * 0.01)
            assert cfg.n_steps == n_steps
            with pytest.raises(Drawn) as drawn:
                sp.simulate(u0, cfg, model)
            sizes.append(drawn.value.args)
        assert sizes[0] == sizes[1]
        assert max(sizes[0]) <= sp._BATCH_BYTES

    def test_evolution_residual_memory_does_not_grow_with_the_run(self):
        # the parent redrew and modulated every step at once: a peak of about
        # 14 u stacks on this 2D multiplicative trajectory
        import tracemalloc

        dom = Domain((10.0, 10.0), (32, 32))
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=0.01,
                          dt=1e-3, t_final=1e-3)
        op = nz.diffusion_operator(dom, 8, kind="multiplicative", sigma=0.1)
        u0 = random_field(dom, np.random.default_rng(3), scale=0.1)
        traj = sp.simulate(u0, cfg, nz.NoiseModel(nz.WienerProcess(8, 4), op))
        rng = np.random.default_rng(5)
        u, w = (0.1 * rng.standard_normal((401,) + dom.modes) for _ in range(2))
        long = replace(traj, u=u, w=w)
        tracemalloc.start()
        try:
            got = sp.evolution_residual(long)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (400,) and np.isfinite(got).all()
        assert peak < u.nbytes / 4


def test_import_path_holds_no_scipy_sparse():
    """The stepper's CG is the in-repo loop; ``import svch.cli`` stays light."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(sp.__file__).resolve().parents[1]
    code = ("import sys, svch.cli, svch.stepper as st; "
            "print([m for m in sys.modules if m.startswith('scipy.sparse')]); "
            "print(st.cg.__module__)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["[]", "svch.stepper"]
    for path in sorted((src / "svch").glob("*.py")):
        text = path.read_text()
        assert "scipy.sparse" not in text and "LinearOperator" not in text, path.name


class TestWorkspace:
    """A march's grid-sized working arrays live in one workspace and never leak."""

    @staticmethod
    def march(u0, cfg, noises, monkeypatch):
        # the member trajectories of one Batch march, and (input, noise,
        # workspace, c, w, xi) of each of its steps
        steps, original = [], sp._advance

        def spy(u, noise, config, domain, dt, step_index, plan, work, *halving):
            out = original(u, noise, config, domain, dt, step_index, plan, work, *halving)
            if not halving:
                steps.append((u, noise, work) + out[:3])
            return out

        monkeypatch.setattr(sp, "_advance", spy)
        batch = sp.Batch(u0, cfg, noises)
        trajs = [sp.simulate(u0, cfg, model, batch) for model in noises]
        monkeypatch.undo()
        assert batch.size >= len(noises)  # one march
        return trajs, steps

    @pytest.mark.parametrize("newton_max_iter, halved", [(30, False), (3, True)])
    def test_members_equal_solo_and_rows_own_their_memory(self, monkeypatch, newton_max_iter,
                                                          halved):
        dom = Domain((4.0, 4.0), (16, 16))
        u0 = random_field(dom, np.random.default_rng(3), scale=0.05)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=1e-2,
                          lam=1e-2, dt=0.1, t_final=0.4, newton_max_iter=newton_max_iter)
        op = nz.diffusion_operator(dom, 8, kind="multiplicative", sigma=5.0)
        noises = [nz.NoiseModel(nz.WienerProcess(8, s), op) for s in (1, 0)]
        trajs, steps = self.march(u0, cfg, noises, monkeypatch)
        # the members converge at different Newton iterations, and under the
        # tight cap exactly one of them halves
        assert any(len(set(its)) > 1 for its in zip(*(t.newton_iterations for t in trajs)))
        assert [max(t.rejections) > 0 for t in trajs] == ([False, True] if halved else
                                                          [False, False])
        for traj, model in zip(trajs, noises):
            solo = sp.simulate(u0, cfg, model)
            for f in ("u", "w", "xi", "noise_mean"):
                assert getattr(traj, f).tobytes() == getattr(solo, f).tobytes()
            assert (traj.newton_iterations, traj.newton_residuals, traj.rejections) == (
                solo.newton_iterations, solo.newton_residuals, solo.rejections)
        work = steps[0][2]
        assert len(steps) == cfg.n_steps and all(step[2] is work for step in steps)
        assert work.shape == (3, 2, 32, 32)
        for s, (_, _, _, c, w, xi) in enumerate(steps):
            # later steps' rows and the next step's input, which is c itself
            later = [a for step in steps[s + 1:] for a in step[3:]] + [
                a for step in steps[s + 1:s + 2] for a in step[:2] if a is not c]
            for a in (c, w, xi):
                assert not np.may_share_memory(a, work)
                assert not any(np.may_share_memory(a, b) for b in later)
            assert not any(np.may_share_memory(a, b) for a, b in ((c, w), (c, xi), (w, xi)))
