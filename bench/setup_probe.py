"""Set-up probe, started once per sample by the benchmark.

Reads a run config as INI text on stdin, imports svch (and with it numpy and
scipy), parses the config and builds the problem the way ``svch.cli`` does:
domain, initial field, graph, perturbation, solver config and noise operator.
Prints ``ready`` when done; the parent times process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import svch  # noqa: E402
from svch.cli import parse_config  # noqa: E402

config = parse_config(sys.stdin.read(), env={})
domain = svch.Domain(config.lengths, config.modes)
coeffs = np.zeros(domain.modes)
for index, value in config.initial:
    coeffs.flat[index] = value
u0 = svch.SpectralField(domain, coeffs)
solver = svch.SolverConfig(
    graph=svch.make_graph(config.potential),
    perturbation=svch.make_perturbation(config.perturbation, config.perturbation_scale),
    eps=config.eps, lam=config.lam, dt=config.dt, t_final=config.t_final,
    newton_tol=config.newton_tol, newton_max_iter=config.newton_max_iter,
    cg_max_iter=config.cg_max_iter, splitting=config.splitting,
    max_rejections=config.max_rejections,
)
if config.noise_kind != "none":
    operator = svch.diffusion_operator(
        domain, config.noise_modes, kind=config.noise_kind, sigma=config.sigma,
        rho=config.rho, mean_zero=config.mean_zero, clamp_bound=config.clamp_bound,
    )
    if config.smoothing_level > 0:
        operator = svch.smooth(operator, config.smoothing_level)
print("ready", flush=True)
