"""
Truncated cylindrical Wiener process and diffusion operators.

The driving noise is W(t) = sum_{k<K} W_k(t) e_k with independent scalar
Brownian motions W_k.  Increments are drawn from a counter-based generator
(Philox) keyed by (seed, step): mode k is the k-th draw of the step's block,
so every increment is a pure function of (seed, step, mode) and paths can be
re-materialized in any order or shared across solver runs.  A march draws a
chunk of steps from one generator, moved to each row's (seed, step) block;
a multiplicative operator then modulates each step at its pre-step state.

A diffusion operator maps the K noise directions to spatial fields.  The
default additive operator sends e_k to sigma * (1 + mu_k)^{-rho} times the
k-th cosine basis function (eigenvalue-sorted order); the multiplicative
variant modulates the same profiles by the clamped state and removes the
spatial mean, so multiplicative forcing never moves the mean of the solution.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .spectral import (
    Domain,
    SpectralField,
    _integer,
    _silent,
    _synthesis,
    _transforms,
    neumann_eigensystem,
)

__all__ = [
    "DimensionMismatch",
    "KindMismatch",
    "WienerProcess",
    "DiffusionOperator",
    "NoiseModel",
    "diffusion_operator",
    "smooth",
    "hs_norm",
    "apply_diffusion",
    "integral_ledger",
]


class DimensionMismatch(ValueError):
    """Mode counts or domains of noise objects do not line up."""


class KindMismatch(TypeError):
    """Operation only defined for the other diffusion kind."""


class WienerProcess:
    """K independent scalar Brownian motions with counter-based sampling.

    The process holds only its mode count and seed.  ``increments_at(step, dt)``
    is reproducible: the draw for (seed, step, mode) never depends on sampling
    order, and it is the one-row, one-step case of the draws a march makes.
    """

    def __init__(self, mode_count: int, seed: int):
        self.mode_count = _integer("mode_count", mode_count)
        self.seed = _integer("seed", seed)
        if self.mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must lie in [0, 2**128) (the Philox key), got {seed}")

    def increments_at(self, step: int, dt: float) -> np.ndarray:
        """Gaussian increments with variance dt for one step in [0, 2**63), shape (K,)."""
        return _increments((self.seed,), (step,), self.mode_count, dt)[0]


def _increments(seeds, steps, count: int, dt: float) -> np.ndarray:
    # (B, count) increments: row m reads Philox key seeds[m] at counter
    # [0, 0, 0, steps[m]].  One generator moves to each row through its state,
    # buffer empty: a new Philox per row costs several times as much
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    bg = np.random.Philox(key=0)
    draw = np.random.Generator(bg).standard_normal
    state = bg.state
    z = np.empty((len(seeds), count))
    for m, (seed, step) in enumerate(zip(seeds, steps, strict=True)):
        if not 0 <= _integer("step", step) < 2**63:
            raise ValueError(f"step must lie in [0, 2**63), got {step}")
        state["state"] = {"counter": [0, 0, 0, step], "key": [seed % 2**64, seed >> 64]}
        bg.state = state
        draw(out=z[m])
    z *= math.sqrt(dt)
    return z


@dataclass(frozen=True, eq=False)
class DiffusionOperator:
    """Linear (or state-modulated) map from noise modes to spatial fields.

    columns[k] holds the coefficients of the image of the k-th noise
    direction.  For kind "multiplicative" the image at state v is
    clamp(v) * column_k minus its spatial mean, with clamp(v) the truncation
    of v to [-clamp_bound, clamp_bound].  The operator is its columns: every
    property of it is worked out from them on request.
    """

    domain: Domain
    kind: str
    columns: np.ndarray  # (K, *modes)
    clamp_bound: float

    def __post_init__(self):
        cols = np.array(self.columns, dtype=float)
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def mode_count(self) -> int:
        return self.columns.shape[0]

    @property
    @_silent
    def lipschitz(self) -> float:
        """Lipschitz constant of v -> B(v) in Hilbert-Schmidt norm; 0 for additive noise.

        An object of the paper, the Lipschitz hypothesis on B(u); no run path
        needs it.  It is the root sum of the squared column sup norms (the
        clamp has slope 1), the sup norms estimated on the dealiased grid; a
        sum that overflows gives inf without a warning.
        """
        if self.kind != "multiplicative":
            return 0.0
        vals = np.abs(_synthesis(self.columns, self.domain.modes))
        return float(np.sqrt(np.sum(vals.max(axis=tuple(range(1, vals.ndim))) ** 2)))


def diffusion_operator(
    domain: Domain,
    mode_count: int,
    kind: str = "additive",
    sigma: float = 0.1,
    rho: float = 1.0,
    mean_zero: bool = False,
    clamp_bound: float = 1.0,
) -> DiffusionOperator:
    """Default operator: e_k -> sigma*(1 + mu_k)^{-rho} * (k-th basis function).

    Modes are taken in eigenvalue-sorted order, so k = 0 is the constant
    function unless mean_zero is set, which zeroes the constant-mode content
    of every column; a multiplicative operator is always mean-zero.  Nothing
    is synthesized: the operator holds only its columns.
    """
    if kind not in ("additive", "multiplicative"):
        raise ValueError(f"unknown diffusion kind {kind!r}")
    for name, value, label in (("sigma", sigma, "B1"), ("rho", rho, "B1"),
                               ("clamp_bound", clamp_bound, "B3")):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}, violates ({label})")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma!r}, violates (B1)")
    total = math.prod(domain.modes)
    if not 1 <= _integer("mode_count", mode_count) <= total:
        raise DimensionMismatch(
            f"mode_count must be in [1, {total}] for this truncation, got {mode_count}, "
            "violates (B1)"
        )
    if clamp_bound <= 0:
        raise ValueError(f"clamp_bound must be positive, got {clamp_bound!r}, violates (B3)")
    eig = neumann_eigensystem(domain)
    cols = np.zeros((mode_count,) + domain.modes)
    flat = cols.reshape(mode_count, -1)
    mu_flat = eig.mu.ravel()
    with np.errstate(over="ignore"):  # an overflow is rejected just below, labelled
        for k in range(mode_count):
            idx = eig.order[k]
            flat[k, idx] = sigma * (1.0 + mu_flat[idx]) ** (-rho)
    if not np.isfinite(cols).all():
        raise ValueError(f"noise columns overflow at sigma={sigma!r}, rho={rho!r}, violates (B1)")
    if mean_zero or kind == "multiplicative":
        flat[:, eig.order[0]] = 0.0
    return DiffusionOperator(domain=domain, kind=kind, columns=cols,
                             clamp_bound=float(clamp_bound))


def smooth(op: DiffusionOperator, level: int) -> DiffusionOperator:
    """Elliptically smoothed operator: columns hit by (I - Laplacian/level)^{-3}.

    The result keeps the kind and clamp bound and holds the new columns alone.
    """
    if not 1 <= _integer("smoothing level", level, label=", violates (B4)") <= sys.float_info.max:
        raise ValueError(f"smoothing level must lie in [1, {sys.float_info.max:g}], got {level}, "
                         "violates (B4)")
    eig = neumann_eigensystem(op.domain)
    factor = (1.0 + eig.mu / float(level)) ** (-3)
    return replace(op, columns=op.columns * factor[None, ...])


@_silent
def hs_norm(op: DiffusionOperator) -> float:
    """Hilbert-Schmidt norm sqrt(sum_k |B e_k|_H^2) of the base columns.

    An object of the paper: hypothesis (B1) bounds this norm.  No run path
    needs it; it states the quantity the hypothesis is about.
    """
    w = neumann_eigensystem(op.domain).weights
    return float(np.sqrt(np.sum(w[None, ...] * op.columns**2)))


@_silent
def apply_diffusion(
    op: DiffusionOperator, state: Optional[SpectralField], dW: np.ndarray
) -> SpectralField:
    """Field B dW (additive) or B(state) dW (multiplicative)."""
    dW = np.asarray(dW, dtype=float)
    if dW.shape != (op.mode_count,):
        raise DimensionMismatch(
            f"increment has shape {dW.shape}, operator expects ({op.mode_count},)"
        )
    profile = _profiles(op, dW[None])[0]
    if op.kind == "additive":
        return SpectralField(op.domain, profile)
    return SpectralField(op.domain, _modulate(op, _state_coeffs(op, state), profile))


def _profile_chunks(models, chunks, dt: float):
    # the state-free half of a march's noise for each slice of steps in
    # chunks: the (steps, B, *modes) profiles of every member, drawn
    # step-major by one _increments call; members share one operator
    op = models[0].operator
    if any(m.operator is not op for m in models):
        raise DimensionMismatch("stacked members must share one diffusion operator")
    seeds = [m.process.seed for m in models]
    for k in chunks:
        steps = range(k.start, k.stop)
        z = _increments(seeds * len(steps), [s for s in steps for _ in seeds], op.mode_count, dt)
        yield _profiles(op, z).reshape((len(steps), len(seeds)) + op.domain.modes)


def _profiles(op: DiffusionOperator, dW: np.ndarray) -> np.ndarray:
    # B dW for every row of a (B, K) increment stack: a (B, 1, K) @ (K, P) product
    # is one BLAS call per row, so a member equals its solo (B = 1) row bitwise
    cols = op.columns.reshape(op.mode_count, -1)
    return (dW[:, None, :] @ cols).reshape((len(dW),) + op.domain.modes)


def _state_coeffs(op: DiffusionOperator, state: Optional[SpectralField]) -> np.ndarray:
    if state is None:
        raise KindMismatch("multiplicative diffusion needs the current state")
    if state.domain != op.domain:
        raise DimensionMismatch("state domain does not match operator domain")
    return state.coeffs


def _modulate(op: DiffusionOperator, coeffs: np.ndarray, profiles: np.ndarray,
              work=(None, None)) -> np.ndarray:
    # the state half of a march's noise: the profiles of additive noise, else
    # clamp(state) * profile minus its spatial mean; leading axes are a batch.
    # work, when given, takes the state's and the profiles' grids.  Callers are silent
    if op.kind == "additive":
        return profiles
    modes = op.domain.modes
    synthesis, analysis = _transforms(modes)
    M = op.clamp_bound
    clamped = np.clip(synthesis(coeffs, work[0]), -M, M, out=work[0])
    c = analysis(np.multiply(synthesis(profiles, work[1]), clamped, out=work[1]))
    c[(...,) + (0,) * len(modes)] = 0.0  # multiplicative forcing is mean-free by construction
    return c


@_silent
def integral_ledger(op: DiffusionOperator, process: WienerProcess, n_steps: int, dt: float) -> SpectralField:
    """Accumulated stochastic integral B W(t_n) for additive operators.

    Sums apply_diffusion over steps 0..n_steps-1 in order, which is exactly
    the bookkeeping the solver performs; the mean of the result tracks the
    mean shift injected into the solution.  An object of the paper, kept as
    the reference for the solver's noise mean, which equals its mean bitwise.
    """
    if op.kind != "additive":
        raise KindMismatch("the integral ledger is defined for additive noise")
    total = np.zeros(op.domain.modes)
    for s in range(n_steps):
        total = total + apply_diffusion(op, None, process.increments_at(s, dt)).coeffs
    return SpectralField(op.domain, total)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """A Wiener process wired to a diffusion operator."""

    process: WienerProcess
    operator: DiffusionOperator

    def __post_init__(self):
        if self.process.mode_count != self.operator.mode_count:
            raise DimensionMismatch(
                f"process has {self.process.mode_count} modes, "
                f"operator expects {self.operator.mode_count}"
            )
