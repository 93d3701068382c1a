"""
Silence on overflow: finite input that overflows gives non-finite output, or
the entry point's documented error, and never a floating-point warning.

Each public entry point below is called on finite input large enough to
overflow, with RuntimeWarnings raised as errors.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import svch.experiments as ex
import svch.monotone as mn
import svch.noise as nz
import svch.spectral as sp
import svch.stepper as st

BIG = 1e200
DOMAIN = sp.Domain((10.0,), (64,))


def _field(value):
    c = np.zeros(DOMAIN.modes)
    c[:4] = value
    return sp.SpectralField(DOMAIN, c)


def _config():
    return st.SolverConfig(graph=mn.make_graph("quartic_double_well"),
                           perturbation=mn.make_perturbation("negative_identity"),
                           dt=1e-2, t_final=2e-2)


def _huge_trajectory():
    # a two-step run whose states are scaled far past where their squares overflow
    traj = st.simulate(_field(0.1), _config())
    return replace(traj, u=traj.u * BIG, w=traj.w * BIG, xi=traj.xi * BIG), traj


def _additive(sigma):
    return nz.diffusion_operator(DOMAIN, 8, sigma=sigma)


def _multiplicative_diffusion():
    op = nz.diffusion_operator(DOMAIN, 8, kind="multiplicative", sigma=1e300, mean_zero=True)
    return nz.apply_diffusion(op, _field(1.0), np.full(8, 1e100))


def _evolution_residual():
    huge, _ = _huge_trajectory()
    return st.evolution_residual(huge)


def _run_diagnostics():
    huge, _ = _huge_trajectory()
    with pytest.raises(ex.NonFinite, match="at step 0"):
        ex.run_diagnostics(huge)


def _check_invariants():
    huge, traj = _huge_trajectory()
    assertions = ex.check_invariants(huge, ex.run_diagnostics(traj))
    assert not next(a for a in assertions if a.name == "evolution_identity").passed


def _regularity_monitor():
    huge, _ = _huge_trajectory()
    assert not ex.regularity_monitor(huge).assertions[0].passed  # regularity_norms_finite


# each returns the overflowed value, or checks the documented outcome itself
CASES = {
    "inner": lambda: sp.inner(_field(BIG), _field(BIG)),
    "integrate_grid": lambda: sp.integrate_grid(DOMAIN, np.full(128, 1e308)),
    "star_energy": lambda: sp.star_energy(_field(BIG)),
    "apply_laplacian": lambda: sp.apply_laplacian(sp.SpectralField(DOMAIN, np.full(64, 1e307))),
    "hs_norm": lambda: nz.hs_norm(_additive(BIG)),
    "apply_diffusion": lambda: nz.apply_diffusion(_additive(BIG), None, np.full(8, BIG)),
    "apply_diffusion_multiplicative": _multiplicative_diffusion,
    "integral_ledger": lambda: nz.integral_ledger(_additive(1e308), nz.WienerProcess(8, 0),
                                                  3, 100.0),
    "free_energy_parts": lambda: st.free_energy_parts(_field(BIG), _config()),
    "evolution_residual": _evolution_residual,
    "run_diagnostics": _run_diagnostics,
    "check_invariants": _check_invariants,
    "regularity_monitor": _regularity_monitor,
}


@pytest.mark.parametrize("name", CASES)
def test_overflow_gives_no_warning(name):
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        out = CASES[name]()
    if out is not None:
        values = out.coeffs if isinstance(out, sp.SpectralField) else np.asarray(out, dtype=float)
        assert not np.isfinite(values).all()
