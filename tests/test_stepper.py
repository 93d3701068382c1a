"""
Backward Euler stepper tests.

The main oracle is an independent re-implementation of the discrete map on a
two-mode domain: explicit cosine matrices for the transforms, the Cardano
closed form for the cubic resolvent, and scipy.optimize.root for the implicit
system.  Everything else checks closed-form single-mode updates, conservation
identities, energy decay, and the rejection machinery.
"""

from dataclasses import replace

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
        st = sp.step(sp.initial_state(SpectralField(dom, c0), cfg), cfg)
        want = amp * one_mode_factor(mu, eps, 1e-3, 1e-2)
        assert st.u.coeffs[k] == pytest.approx(want, abs=1e-13)
        others = np.delete(st.u.coeffs, k)
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
        st = sp.step(sp.initial_state(SpectralField(dom, c0), cfg), cfg,
                     SpectralField(dom, n))
        denom = 1.0 + 1e-3 * mu * (mu + 1.0 / 1.01)
        assert st.u.coeffs[k] == pytest.approx((0.5 - 0.07) / denom, abs=1e-13)
        assert st.u.coeffs[0] == 0.02  # exact mean update

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
            want = study_field.mean + st.noise_ledger.mean
            assert abs(st.u.mean - want) < 1e-13

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
        for s in range(len(traj) - 1):
            field = nz.apply_diffusion(op, None, proc.increments_at(s, cfg.dt))
            res = sp.evolution_residual(traj[s], traj[s + 1], cfg, field)
            assert res <= 10 * cfg.newton_tol


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
        st = sp.step(sp.initial_state(u0, cfg), cfg)
        r = st.newton_residuals
        pairs = [(r[i], r[i + 1]) for i in range(len(r) - 1)
                 if 1e-8 <= r[i] <= 1e-2]
        assert len(pairs) >= 2
        for rk, rk1 in pairs:
            assert rk1 <= 100.0 * rk * rk

    def test_cg_tolerance_follows_the_newton_residual(self, long_domain, monkeypatch):
        """Each correction is solved to max(tol/10, 1e-3 min(1, |F|) |b|); none once |F| <= tol."""
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=5e-2, t_final=5e-2, newton_tol=1e-12)
        calls = []
        cg = sp.cg

        def recording(matvec, b, precond, atol, maxiter, callback=None):
            calls.append((b.copy(), np.array(atol, dtype=float)))
            return cg(matvec, b, precond, atol, maxiter, callback)

        monkeypatch.setattr(sp, "cg", recording)
        r = sp.step(sp.initial_state(u0, cfg), cfg).newton_residuals
        tol = cfg.newton_tol
        assert len(calls) == len(r) - 1
        for res, (b, atol) in zip(r, calls):
            assert atol.shape == (1,)
            want = max(tol / 10.0, 1e-3 * min(1.0, res) * float(np.sqrt(np.vecdot(b, b))[0]))
            assert atol[0] == want
        assert all(res > tol for res in r[:-1]) and r[-1] <= tol
        assert max(a[0] for _, a in calls) > 1e3 * tol  # the rule is not the old constant

    def test_newton_starts_from_the_step_without_its_spatial_operator(self, long_domain):
        """The first residual is |dt mu w(c0)| at c0 = ((1 + eps mu) u + noise) / (1 + eps mu)."""
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        noise = random_field(long_domain, np.random.default_rng(6), scale=0.1)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          eps=0.3, dt=5e-2, t_final=5e-2)
        st = sp.step(sp.initial_state(u0, cfg), cfg, noise)
        eig = neumann_eigensystem(long_domain)
        visc = 1.0 + cfg.eps * eig.mu
        c0 = SpectralField(long_domain, (visc * u0.coeffs + noise.coeffs) / visc)
        well = from_grid(long_domain, mn.yosida(cfg.graph, cfg.lam, to_grid(c0)))
        reaction = from_grid(long_domain, cfg.perturbation.pi(to_grid(u0)))  # convex splitting
        w = eig.mu * c0.coeffs + well.coeffs + reaction.coeffs
        want = norm(SpectralField(long_domain, cfg.dt * eig.mu * w))
        assert st.newton_residuals[0] == pytest.approx(want, rel=1e-12)

    def test_rejection_then_success(self, long_domain):
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.5, t_final=0.5, newton_tol=1e-11,
                          newton_max_iter=4, max_rejections=4)
        st = sp.step(sp.initial_state(u0, cfg), cfg)
        assert st.rejections == 2
        assert st.t == 0.5  # the full interval was still covered

    def test_step_rejected_after_halvings(self, long_domain):
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.2, t_final=0.2, newton_tol=1e-11,
                          newton_max_iter=2, max_rejections=4)
        with pytest.raises(sp.StepRejected) as exc:
            sp.step(sp.initial_state(u0, cfg), cfg)
        assert exc.value.suggested_dt == pytest.approx(0.2 / 32.0)

    def test_immediate_rejection_suggests_half(self, long_domain):
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.2, t_final=0.2, newton_tol=1e-11,
                          newton_max_iter=0, max_rejections=0)
        with pytest.raises(sp.StepRejected) as exc:
            sp.step(sp.initial_state(u0, cfg), cfg)
        assert exc.value.suggested_dt == pytest.approx(0.1)

    def test_rejected_step_keeps_noise_ledger_once(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          lam=1e-2, dt=0.5, t_final=0.5, newton_tol=1e-11,
                          newton_max_iter=4, max_rejections=4)
        n = random_field(long_domain, np.random.default_rng(8), scale=0.01)
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        st = sp.step(sp.initial_state(u0, cfg), cfg, n)
        assert st.rejections >= 1
        assert np.array_equal(st.noise_ledger.coeffs, n.coeffs)
        assert abs(st.u.mean - (u0.mean + n.mean)) < 1e-14


class TestOneResolventPerIteration:
    @pytest.mark.parametrize("graph", ("quartic_double_well", "sixth_power_well"))
    @pytest.mark.parametrize("splitting", ("convex_splitting", "fully_implicit"))
    def test_resolvent_calls_match_residual_evaluations(self, long_domain, monkeypatch,
                                                        graph, splitting):
        u0 = random_field(long_domain, np.random.default_rng(5), scale=1.5, decay=1.0)
        cfg = make_config(graph, ("negative_identity", 1.0), lam=1e-2, dt=5e-2,
                          t_final=5e-2, newton_tol=1e-11, splitting=splitting)
        state = sp.initial_state(u0, cfg)
        calls = []
        original = mn.resolvent

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(mn, "resolvent", counting)
        new = sp.step(state, cfg)
        assert new.rejections == 0
        assert len(calls) == len(new.newton_residuals)
        monkeypatch.undo()
        modes = long_domain.modes
        want = _analysis(mn.yosida(cfg.graph, cfg.lam, _synthesis(new.u.coeffs, modes)), modes)
        assert np.array_equal(new.xi.coeffs, want)


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
        for name in ("u", "w", "xi", "noise_ledger", "times"):
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
            for name in ("u", "w", "xi", "noise_ledger"):
                assert np.array_equal(getattr(state, name).coeffs, getattr(traj, name)[row])
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
        bad = SpectralField(unit_domain, np.zeros(unit_domain.modes))
        with pytest.raises(ValueError, match="different domain"):
            sp.step(sp.initial_state(study_field, cfg), cfg, bad)

    def test_recorded_w_matches_scheme(self, long_domain, study_field):
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                          dt=1e-3, t_final=5e-3, newton_tol=1e-12)
        traj = sp.simulate(study_field, cfg)
        from svch.spectral import neumann_eigensystem

        mu = neumann_eigensystem(long_domain).mu
        for s in range(1, len(traj)):
            new, prev = traj[s], traj[s - 1]
            pi_prev = apply_pointwise(prev.u, cfg.perturbation.pi)
            want = mu * new.u.coeffs + new.xi.coeffs + pi_prev.coeffs
            assert np.allclose(new.w.coeffs, want, rtol=0, atol=1e-12)


class TestBatchedCore:
    """Member stacks: every member follows exactly its solo (B = 1) run."""

    @staticmethod
    def assert_members_equal_solo(u0, cfg, op, seeds):
        noises = [nz.NoiseModel(nz.WienerProcess(op.mode_count, s), op) for s in seeds]
        c = np.repeat(u0.coeffs[None], len(seeds), axis=0)
        batch = []
        for s in range(cfg.n_steps):
            field = nz.increment_stack(noises, c, s, cfg.dt)
            batch.append((field,) + sp._advance(c, field, cfg, u0.domain, cfg.dt, s))
            c = batch[-1][1]
        for m, model in enumerate(noises):
            solo = sp.simulate(u0, cfg, model)
            ledger = np.zeros(u0.domain.modes)
            for (field, c, w, xi, iters, res, depths), state in zip(batch, solo.states[1:]):
                ledger = ledger + field[m]
                assert np.array_equal(c[m], state.u.coeffs)
                assert np.array_equal(w[m], state.w.coeffs)
                assert np.array_equal(xi[m], state.xi.coeffs)
                assert np.array_equal(ledger, state.noise_ledger.coeffs)
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
        c, w, xi, iters, res, depths = sp._advance(
            np.stack([f.coeffs for f in fields]), noise, cfg, long_domain, cfg.dt, 0)
        assert depths == [0, 0, 2, 0]
        for m, f in enumerate(fields):
            solo = sp.step(sp.initial_state(f, cfg), cfg, SpectralField(long_domain, noise[m]))
            assert np.array_equal(c[m], solo.u.coeffs)
            assert np.array_equal(w[m], solo.w.coeffs)
            assert np.array_equal(xi[m], solo.xi.coeffs)
            assert tuple(res[m]) == solo.newton_residuals
            assert (iters[m], depths[m]) == (solo.newton_iterations, solo.rejections)

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
                for f in ("u", "w", "xi", "noise_ledger"):
                    assert np.array_equal(getattr(a, f).coeffs, getattr(b, f).coeffs)
                assert (a.t, a.step_index, a.newton_iterations, a.newton_residuals,
                        a.rejections) == (b.t, b.step_index, b.newton_iterations,
                                          b.newton_residuals, b.rejections)

    def test_batch_keeps_one_bounded_group(self, long_domain, monkeypatch):
        u0 = random_field(long_domain, np.random.default_rng(4), scale=0.3)
        cfg = make_config("quartic_double_well", ("negative_identity", 1.0), eps=1e-2,
                          lam=1e-2, dt=0.02, t_final=0.1)
        op = nz.diffusion_operator(long_domain, 8, sigma=0.1)
        noises = [nz.NoiseModel(nz.WienerProcess(8, s), op) for s in range(8)]
        member = 4 * (cfg.n_steps + 1) * u0.coeffs.nbytes  # stored rows of one member
        calls = []
        original = sp._advance
        monkeypatch.setattr(sp, "_advance", lambda *a, **k: calls.append(len(a[0]))
                            or original(*a, **k))
        monkeypatch.setattr(sp, "_BATCH_BYTES", 3 * member + 7)
        batch = sp.Batch(u0, cfg, noises)
        for model in noises:
            traj = sp.simulate(u0, cfg, model, batch)
            stored = sum(getattr(t, f).nbytes for t in batch._trajectories
                         for f in ("u", "w", "xi", "noise_ledger"))
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
