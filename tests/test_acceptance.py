"""
End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS line (visible with -s or on failure) and
enforces its runtime budget.  Tolerances are pinned, not tuned: changing
them is a contract change.
"""

import time
from dataclasses import replace

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
    apply_helmholtz_inverse,
    apply_inverse_laplacian,
    apply_laplacian,
    basis_field,
    inner,
    norm,
    star_energy,
    star_potential,
)

from conftest import free_energy, make_config, random_field

EPS_GRID = (0.0, 1e-3, 1e-2, 1e-1)
LAM_GRID = (1.0, 1e-1, 1e-2, 1e-3)
NONLINEAR = ("quartic_double_well", "sixth_power_well", "exponential")


def report(label, detail=""):
    print(f"PASS {label}" + (f" ({detail})" if detail else ""))


def study_ic(domain):
    c = np.zeros(domain.modes)
    c[0], c[1], c[2], c[5] = 0.05, 0.4, 0.2, 0.1
    return SpectralField(domain, c)


def test_ac1_operator_calculus_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    dom = Domain((10.0,), (64,))
    for i in range(100):
        v = random_field(dom, rng, scale=1.0, decay=1.0)
        scale = norm(v, "H")
        # N(-Lap v) = v - mean(v)
        back = apply_inverse_laplacian(-apply_laplacian(v))
        centered = v.coeffs.copy()
        centered.flat[0] = 0.0
        assert np.max(np.abs(back.coeffs - centered)) <= 1e-12 * scale
        for eps in EPS_GRID:
            r = apply_helmholtz_inverse(v, eps)
            for kind in ("H", "V1", "star"):
                assert norm(r, kind) <= norm(v, kind) * (1 + 1e-12)
            phi = star_energy(v, eps)
            assert phi >= -1e-12 * scale**2
            assert abs(inner(v, star_potential(v, eps)) - 2.0 * phi) <= 1e-12 * max(1.0, phi)
        u = random_field(dom, rng, scale=1.0, decay=1.0)
        lhs = inner(star_potential(v, 1e-2), u)
        rhs = inner(v, star_potential(u, 1e-2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    report("AC1 operator calculus identities",
           f"100 fields x {len(EPS_GRID)} viscosities, {elapsed:.2f}s")


def test_ac2_monotone_toolkit_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    for name in NONLINEAR:
        graph = mn.make_graph(name)
        for lam in LAM_GRID:
            a = rng.uniform(-4, 4, size=200)
            b = rng.uniform(-4, 4, size=200)
            ja, jb = mn.resolvent(graph, lam, a), mn.resolvent(graph, lam, b)
            assert np.all(np.abs(ja - jb) <= np.abs(a - b) + 1e-11)
            ya, yb = mn.yosida(graph, lam, a), mn.yosida(graph, lam, b)
            assert np.all(np.abs(ya - yb) <= np.abs(a - b) / lam * (1 + 1e-10) + 1e-12)
            assert np.all(np.abs(ya) <= np.abs(graph.beta(a)) + 1e-11)
            env = mn.moreau_envelope(graph, lam, a)
            assert np.all(env >= -1e-14)
            assert np.all(env <= graph.beta_hat(a) + 1e-12)
            r = rng.uniform(-2.5, 2.5, size=50)
            s = graph.beta(r)
            residual = graph.beta_hat(r) + mn.conjugate(graph, s) - r * s
            assert np.max(np.abs(residual)) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    report("AC2 monotone toolkit",
           f"{len(NONLINEAR)} potentials x {len(LAM_GRID)} lambdas, {elapsed:.2f}s")


def test_ac3_two_mode_oracle():
    # imported lazily so pytest does not collect the class a second time here
    from test_stepper import TestTwoModeDenseOracle

    t0 = time.perf_counter()
    oracle = TestTwoModeDenseOracle()
    oracle.setup_method()
    for eps in (0.0, 1e-2):
        oracle.test_thousand_steps(eps)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    report("AC3 two-mode dense oracle",
           f"10^3 steps, eps in {{0, 1e-2}}, max-norm <= 1e-10, {elapsed:.2f}s")


def test_ac4_mean_identities():
    dom = Domain((10.0,), (64,))
    cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                      dt=1e-3, t_final=1.0, newton_tol=1e-11)
    u0 = study_ic(dom)

    op = nz.diffusion_operator(dom, 8, sigma=0.3)  # injects mean content
    traj = sp.simulate(u0, cfg, nz.NoiseModel(nz.WienerProcess(8, seed=1004), op))
    worst = max(abs(s.u.mean - u0.mean - s.noise_ledger.mean) for s in traj)
    assert worst <= 1e-12

    op_m = nz.diffusion_operator(dom, 8, sigma=0.3, kind="multiplicative")
    traj_m = sp.simulate(u0, cfg, nz.NoiseModel(nz.WienerProcess(8, seed=1004), op_m))
    drift_m = max(abs(s.u.mean - u0.mean) for s in traj_m)
    assert drift_m <= 1e-12
    report("AC4 mean identities",
           f"additive residual {worst:.1e}, multiplicative drift {drift_m:.1e}")


def test_ac5_energy_stability():
    dom = Domain((10.0,), (64,))
    cfg = make_config("quartic_double_well", ("negative_identity", 1.0),
                      dt=1e-3, t_final=1.0, newton_tol=1e-11)
    traj = sp.simulate(study_ic(dom), cfg)
    energies = np.array([free_energy(s.u, cfg) for s in traj])
    worst_jump = float(np.diff(energies).max())
    assert len(energies) == 1001
    assert worst_jump <= 1e-12
    report("AC5 energy stability", f"10^3 steps, worst jump {worst_jump:.1e}")


def test_ac6_continuous_dependence():
    t0 = time.perf_counter()
    dom = Domain((10.0,), (64,))
    u1 = study_ic(dom)
    direction = basis_field(dom, 3)
    offset = (1e-3 / norm(direction, "star")) * direction
    u2 = u1 + offset
    assert norm(u1 - u2, "star") == pytest.approx(1e-3, rel=1e-12)
    op = nz.diffusion_operator(dom, 8, sigma=0.3)
    base = make_config("quartic_double_well", ("negative_identity", 1.0),
                       dt=1e-3, t_final=0.1, newton_tol=1e-11)
    rep = ex.continuous_dependence_study(
        ex.ProblemData(u0=u1, operator=op), ex.ProblemData(u0=u2, operator=op),
        eps_grid=EPS_GRID, seed=1006, base=base)
    assert rep.passed
    ratios = rep.metrics["ratio"]
    assert all(np.isfinite(ratios))
    spread = max(ratios) / min(ratios)
    assert spread <= 10.0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    report("AC6 continuous dependence",
           f"ratio spread {spread:.3f} over eps grid, {elapsed:.1f}s")


def test_ac7_vanishing_viscosity():
    t0 = time.perf_counter()
    dom = Domain((10.0,), (64,))
    op = nz.diffusion_operator(dom, 8, sigma=0.3)
    base = make_config("quartic_double_well", ("negative_identity", 1.0),
                       dt=1e-3, t_final=0.1, newton_tol=1e-11)
    rep = ex.vanishing_viscosity_study(
        ex.ProblemData(u0=study_ic(dom), operator=op),
        (1e-1, 1e-2, 1e-3), seed=1007, base=base)
    by_name = {a.name: a for a in rep.assertions}
    for name in ("distance_decreasing", "distance_final_tenth",
                 "viscous_term_decreasing", "viscous_term_final_tenth"):
        assert by_name[name].passed
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    d = rep.distances
    report("AC7 vanishing viscosity",
           f"distances {d[0]:.2e} -> {d[-1]:.2e}, {elapsed:.1f}s")


def test_ac8_yosida_sweep():
    dom = Domain((10.0,), (64,))
    op = nz.diffusion_operator(dom, 8, sigma=0.3)
    base = make_config("quartic_double_well", ("negative_identity", 1.0),
                       dt=1e-3, t_final=0.1, newton_tol=1e-11)
    rep = ex.yosida_convergence_study(
        ex.ProblemData(u0=study_ic(dom), operator=op),
        (1e-1, 1e-2, 1e-3), seed=1008, base=base)
    by_name = {a.name: a for a in rep.assertions}
    assert by_name["consecutive_v1_distances_decreasing"].passed
    assert by_name["w_l1_uniform"].passed and by_name["w_l1_uniform"].value <= 100.0
    assert by_name["conjugate_mass_uniform"].passed
    assert by_name["conjugate_mass_uniform"].value <= 100.0
    d = rep.metrics["consecutive_v1_distance"]
    report("AC8 yosida sweep",
           f"consecutive distances {d[0]:.2e} -> {d[-1]:.2e}, "
           f"w mass spread {by_name['w_l1_uniform'].value:.2f}")


def test_ac9_regularity_monitor():
    dom = Domain((10.0,), (64,))
    op = nz.diffusion_operator(dom, 8, sigma=0.3)
    base = make_config("quartic_double_well", ("negative_identity", 1.0),
                       dt=1e-3, t_final=0.1, newton_tol=1e-11)
    rep = ex.regularity_study(
        ex.ProblemData(u0=study_ic(dom), operator=op),
        (1e-3, 1e-2, 1e-1), seed=1009, base=base, growth="cubic")
    by_name = {a.name: a for a in rep.assertions}
    for key in ("sup_grad_smoothed_w_uniform_in_eps", "xi_l2_uniform_in_eps"):
        assert by_name[key].passed and by_name[key].value <= 10.0
    for eps in (1e-3, 1e-2, 1e-1):
        assert by_name[f"xi_cubic_growth_bound[eps={eps:g}]"].passed
    assert all(np.isfinite(v).all() for v in rep.metrics.values())
    report("AC9 regularity monitor",
           f"xi_l2 spread {by_name['xi_l2_uniform_in_eps'].value:.3f}, "
           f"cubic bound holds on the whole grid")


def test_ac10_reproducibility(tmp_path):
    text = ("[run]\nseed = 9\n[solver]\ndt = 1e-3\nt_final = 0.02\n"
            "[noise]\nkind = additive\nmodes = 8\nsigma = 0.3\n")
    cfg = cli.parse_config(text, env={})
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.run(cfg, a, quiet=True) == 0
    assert cli.run(cfg, b, quiet=True) == 0
    for name in ("config.ini", "series.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    dom = Domain((10.0,), (64,))
    op = nz.diffusion_operator(dom, 8, sigma=0.3)
    data = ex.ProblemData(u0=study_ic(dom), operator=op)
    base = make_config("quartic_double_well", ("negative_identity", 1.0),
                       t_final=0.02, newton_tol=1e-11)
    forward = ex.ensemble_expectations(data, base, members=16, seed=10)
    perm = list(np.random.default_rng(3).permutation(16))
    shuffled = ex.ensemble_expectations(data, base, members=16, seed=10, order=perm)
    assert forward.mc_mean == shuffled.mc_mean
    assert forward.mc_stderr == shuffled.mc_stderr
    report("AC10 reproducibility",
           "rerun byte-identical, 16-member ensemble order-invariant")
