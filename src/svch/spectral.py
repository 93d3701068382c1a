"""
Neumann cosine spectral calculus on axis-aligned boxes.

Fields are truncated expansions in the cosine basis

    phi_k(x) = prod_i cos(k_i pi x_i / L_i),        k_i = 0 .. m_i - 1,

which are exactly the Neumann eigenfunctions of the Laplacian on the box,
with eigenvalues mu_k = sum_i (k_i pi / L_i)^2.  Every linear operator used
here (Laplacian, its mean-free inverse, the Helmholtz-type inverse
(I - eps*Laplacian)^{-1}) is diagonal in this basis, so the module is mostly
bookkeeping: eigenvalues, Parseval weights, and fast transforms between
coefficients and a midpoint collocation grid.

Conventions
-----------
* The coefficient of the constant mode equals the spatial mean of the field.
* ``weights[k] = prod_i L_i * (1 if k_i == 0 else 1/2)`` so that
  ``norm(v, "H")**2 == sum(weights * coeffs**2)`` (Parseval).
* The collocation grid along axis i has ``factor * m_i`` midpoints
  ``x_j = (j + 1/2) * L_i / n_i``; the default factor 2 is the dealiasing
  margin used for pointwise nonlinearities.
* The private pair ``_synthesis``/``_analysis`` is the only transform code
  in the package.  It acts on raw arrays: the trailing ``len(modes)`` axes
  are transformed and any leading axes are a batch, so a ``(B, *modes)``
  stack goes through in one call and each row equals its solo transform
  bitwise.  Grids with at most ``_MATRIX_ENTRIES`` (m x n) entries per axis
  take cached dense cosine matrices, one BLAS product per batch row (which
  keeps rows bitwise independent); larger grids take the DCT, and
  ``scipy.fft`` is imported at the first such transform, so that
  ``import svch`` loads numpy alone.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "NonZeroMean",
    "Domain",
    "EigenSystem",
    "SpectralField",
    "neumann_eigensystem",
    "basis_field",
    "to_grid",
    "from_grid",
    "integrate_grid",
    "apply_laplacian",
    "apply_inverse_laplacian",
    "apply_helmholtz_inverse",
    "star_potential",
    "star_energy",
    "inner",
    "norm",
]

MEAN_TOL = 1e-13

# finite input that overflows gives non-finite output, and no warning
_silent = np.errstate(over="ignore", invalid="ignore")


class NonZeroMean(ValueError):
    """Raised when a mean-free field is required but the mean is not ~0."""


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box (0, L_1) x ... x (0, L_d) with a cosine truncation.

    Parameters
    ----------
    lengths : tuple of float
        Side lengths, one per axis.  Only d in {1, 2} is supported.
    modes : tuple of int
        Number of retained cosine modes per axis, each >= 2.
    """

    lengths: tuple[float, ...]
    modes: tuple[int, ...]

    def __post_init__(self):
        lengths = tuple(float(L) for L in self.lengths)
        modes = tuple(int(m) for m in self.modes)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "modes", modes)
        if len(lengths) not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {len(lengths)}")
        if len(modes) != len(lengths):
            raise ValueError("modes and lengths must have equal length")
        if not all(math.isfinite(L) for L in lengths):
            raise ValueError(f"lengths must be finite, got {lengths!r}")
        if any(L <= 0 for L in lengths):
            raise ValueError("side lengths must be positive")
        if any(m < 2 for m in modes):
            raise ValueError("need at least 2 modes per axis")
        # the extreme eigenvalues in float range: the star norm divides by
        # the smallest nonzero one and the V3 norm cubes the largest
        mu_min = min((math.pi / L) * (math.pi / L) for L in lengths)
        mu_max = sum(((m - 1) * math.pi / L) * ((m - 1) * math.pi / L)
                     for L, m in zip(lengths, modes))
        if mu_min < sys.float_info.min or not math.isfinite(mu_max * mu_max * mu_max):
            raise ValueError(f"lengths {lengths!r} with modes {modes!r} put the "
                             "Laplacian's eigenvalues outside float range")
        if not math.isfinite(math.prod(lengths)):
            raise ValueError(f"lengths {lengths!r} give a volume outside float range")

    @property
    def dimension(self) -> int:
        return len(self.lengths)

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues and Parseval weights of the truncated cosine basis.

    ``mu`` and ``weights`` have the same shape as coefficient arrays on the
    domain.  ``order`` lists flat mode indices sorted by (eigenvalue, flat
    index); ``order[0]`` is always the constant mode.
    """

    domain: Domain
    mu: np.ndarray
    weights: np.ndarray
    order: tuple[int, ...]


@functools.lru_cache(maxsize=None)
def neumann_eigensystem(domain: Domain) -> EigenSystem:
    """Eigenvalues mu_k = sum_i (k_i pi / L_i)^2, ascending along each axis."""
    axis_mu = []
    axis_w = []
    for L, m in zip(domain.lengths, domain.modes):
        k = np.arange(m)
        axis_mu.append((k * np.pi / L) ** 2)
        w = np.full(m, L / 2.0)
        w[0] = L
        axis_w.append(w)
    mu = functools.reduce(np.add.outer, axis_mu)
    weights = functools.reduce(np.multiply.outer, axis_w)
    flat = mu.ravel()
    # stable sort: ties broken by flat index, constant mode first
    order = tuple(int(i) for i in np.argsort(flat, kind="stable"))
    mu.setflags(write=False)
    weights.setflags(write=False)
    return EigenSystem(domain=domain, mu=mu, weights=weights, order=order)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable field given by its cosine coefficients (shape = domain.modes)."""

    domain: Domain
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != self.domain.modes:
            raise ValueError(
                f"coefficient shape {c.shape} does not match modes {self.domain.modes}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def mean(self) -> float:
        return float(self.coeffs.flat[0])

    @_silent
    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_domain(self, other)
        return SpectralField(self.domain, self.coeffs + other.coeffs)

    @_silent
    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_domain(self, other)
        return SpectralField(self.domain, self.coeffs - other.coeffs)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.domain, -self.coeffs)

    @_silent
    def __rmul__(self, a: float) -> "SpectralField":
        return SpectralField(self.domain, float(a) * self.coeffs)

    __mul__ = __rmul__


def _check_same_domain(u: SpectralField, v: SpectralField):
    if u.domain != v.domain:
        raise ValueError("fields live on different domains")


def basis_field(domain: Domain, flat_index: int, amplitude: float = 1.0) -> SpectralField:
    """Single basis function, indexed in the eigenvalue-sorted flat order."""
    eig = neumann_eigensystem(domain)
    c = np.zeros(domain.modes)
    c.flat[eig.order[flat_index]] = amplitude
    return SpectralField(domain, c)


# ---------------------------------------------------------------------------
# transforms


def _along(axis: int, index) -> tuple:
    return (slice(None),) * axis + (index,)


# Bound on m * n per axis for the matrix route.  One thread, synthesis plus
# analysis, matrices against DCT: 1D 128 modes 27 against 52 us alone but 185
# against 97 us on a 16-row stack; 1D 256 modes 88 against 57 us; 2D 128 x 128
# 1.1 against 1.4 ms.  So the bound (90 modes at factor 2) stays below these.
_MATRIX_ENTRIES = 2**14


@functools.lru_cache(maxsize=None)
def _cosine_matrices(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # synthesis C[k, j] = cos(pi k (j + 1/2) / n) and analysis A = (2/n) C^T
    # with column 0 set to 1/n: the DCT pair below with its scalings folded in
    C = np.cos(np.pi * np.outer(np.arange(m), np.arange(n) + 0.5) / n)
    A = np.ascontiguousarray((2.0 / n) * C.T)
    A[:, 0] = 1.0 / n
    C.setflags(write=False)
    A.setflags(write=False)
    return C, A


def _by_matrices(x: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    # last axis as y @ M1, first as M0^T @ y, on (rows, 1, m) or (rows, m0, m1):
    # a flat (B, m) @ (m, n) gemm would break the rows' bitwise independence;
    # the errstate keeps non-finite input as silent as the DCT is
    d = len(mats)
    lead = x.shape[:x.ndim - d]
    with np.errstate(invalid="ignore", over="ignore"):
        if d == 1:
            y = x.reshape(-1, 1, x.shape[-1]) @ mats[0]
        else:
            y = mats[0].T @ (x.reshape((-1,) + x.shape[-2:]) @ mats[1])
    return y.reshape(lead + y.shape[-d:])


def _synthesis(coeffs: np.ndarray, modes: Sequence[int], factor: int = 2) -> np.ndarray:
    # coefficients -> values on the midpoint grid with factor*m points per axis
    # (DCT-III, zero-padded by the transform); leading axes are a batch
    if all(factor * m * m <= _MATRIX_ENTRIES for m in modes):
        return _by_matrices(np.asarray(coeffs, dtype=float),
                            [_cosine_matrices(m, factor * m)[0] for m in modes])
    from scipy import fft as sfft

    out = np.array(coeffs, dtype=float)
    for ax, m in enumerate(modes, start=out.ndim - len(modes)):
        out[_along(ax, slice(1, None))] *= 0.5
        out = sfft.dct(out, type=3, n=factor * m, axis=ax)
    return out


def _analysis(values: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    # midpoint-grid values -> the first m coefficients per axis (DCT-II, our
    # normalization); leading axes are a batch
    out = np.asarray(values, dtype=float)
    grid = out.shape[out.ndim - len(modes):]
    if all(m * n <= _MATRIX_ENTRIES for m, n in zip(modes, grid)):
        return _by_matrices(out, [_cosine_matrices(m, n)[1] for m, n in zip(modes, grid)])
    from scipy import fft as sfft

    for ax, m in enumerate(modes, start=out.ndim - len(modes)):
        n = out.shape[ax]
        out = sfft.dct(out, type=2, axis=ax)[_along(ax, slice(0, m))] / n
        out[_along(ax, 0)] *= 0.5
    return out


def to_grid(field: SpectralField, factor: int = 2) -> np.ndarray:
    """Evaluate the field on the midpoint collocation grid (zero-padded)."""
    return _synthesis(field.coeffs, field.domain.modes, factor)


def from_grid(domain: Domain, values: np.ndarray) -> SpectralField:
    """Project midpoint-grid values onto the truncated basis.

    The grid must have factor*m_i points along axis i for an integer factor;
    modes above the truncation are discarded.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != domain.dimension:
        raise ValueError("grid rank does not match domain dimension")
    if any(n % m != 0 or n < m for n, m in zip(vals.shape, domain.modes)):
        raise ValueError("grid size must be an integer multiple of the mode count")
    return SpectralField(domain, _analysis(vals, domain.modes))


def integrate_grid(domain: Domain, values: np.ndarray) -> float:
    """Quadrature of grid values (exact for resolved cosine modes)."""
    return float(_integrals(domain, values[None])[0])


def _rows(a: np.ndarray) -> np.ndarray:
    # (B, -1) view of a (B, ...) stack: per-row sums over contiguous rows
    # equal each row's solo sum bitwise
    return a.reshape(len(a), -1)


def _integrals(domain: Domain, values: np.ndarray) -> np.ndarray:
    # integrate_grid of every row of a (B, *grid) stack
    return _rows(values).sum(axis=1) * domain.volume / values[0].size


# ---------------------------------------------------------------------------
# diagonal operators


def apply_laplacian(v: SpectralField) -> SpectralField:
    """The paper's Neumann Laplacian, diagonal (-mu_k) in the cosine basis."""
    eig = neumann_eigensystem(v.domain)
    return SpectralField(v.domain, -eig.mu * v.coeffs)


def apply_inverse_laplacian(v: SpectralField) -> SpectralField:
    """The paper's N: mean-free inverse of the Neumann Laplacian.

    Requires a mean-zero input (tolerance 1e-13 on the constant coefficient);
    the output is mean-zero as well.
    """
    if abs(v.mean) > MEAN_TOL:
        raise NonZeroMean(f"inverse Laplacian needs a mean-zero field, mean={v.mean:g}")
    return star_potential(v)  # N inverts -Delta: (N v)_k = v_k / mu_k


def apply_helmholtz_inverse(v: SpectralField, eps: float) -> SpectralField:
    """The paper's viscous resolvent (I - eps*Laplacian)^{-1}; keeps the mean, I at eps = 0."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0:
        return v
    eig = neumann_eigensystem(v.domain)
    return SpectralField(v.domain, v.coeffs / (1.0 + eps * eig.mu))


def star_potential(v: SpectralField, eps: float = 0.0) -> SpectralField:
    """The paper's star potential: N of the Helmholtz-smoothed fluctuation.

    phi = N (I - eps*Laplacian)^{-1} (v - mean(v)); pairing v against phi
    gives twice ``star_energy(v, eps)``.
    """
    eig = neumann_eigensystem(v.domain)
    c = np.zeros_like(v.coeffs)
    nz = eig.mu > 0
    c[nz] = v.coeffs[nz] / ((1.0 + eps * eig.mu[nz]) * eig.mu[nz])
    return SpectralField(v.domain, c)


def star_energy(v: SpectralField, eps: float = 0.0) -> float:
    """The paper's quadratic energy generating the star norm, eps-weighted.

    0.5*|grad N R(v - v_D)|_H^2 + 0.5*eps*|R(v - v_D)|_H^2 with
    R = (I - eps*Laplacian)^{-1}.  Always >= 0.
    """
    eig = neumann_eigensystem(v.domain)
    nz = eig.mu > 0
    c = v.coeffs[nz]
    mu = eig.mu[nz]
    w = eig.weights[nz]
    r = 1.0 + eps * mu
    return float(0.5 * np.sum(w * c * c * (1.0 / (mu * r * r) + eps / (r * r))))


def inner(u: SpectralField, v: SpectralField) -> float:
    """L2 inner product via Parseval."""
    _check_same_domain(u, v)
    w = neumann_eigensystem(u.domain).weights
    return float(np.sum(w * u.coeffs * v.coeffs))


def norm(v: SpectralField, kind: str = "H", eps: float = 0.0) -> float:
    """Norms of the truncated field.

    kind:
      "H"       L2 norm (Parseval)
      "V1"      sqrt(mean^2 + |grad v|_H^2)
      "V2"      sqrt(|v|_H^2 + |Laplacian v|_H^2)
      "V3"      sqrt(|v|_H^2 + |grad Laplacian v|_H^2)
      "star"    sqrt(|grad N(v - v_D)|_H^2 + v_D^2)
      "one_eps" sqrt(|v|_H^2 + eps*|grad v|_H^2)
    """
    return float(_norms(v.domain, v.coeffs[None], kind, eps)[0])


@_silent
def _norms(domain: Domain, coeffs: np.ndarray, kind: str, eps: float = 0.0) -> np.ndarray:
    # norm of every row of a (B, *modes) coefficient stack
    eig = neumann_eigensystem(domain)
    c = _rows(coeffs)
    c2 = c**2
    w = eig.weights.ravel()
    mu = eig.mu.ravel()
    if kind == "H":
        val = (w * c2).sum(axis=1)
    elif kind == "V1":
        val = c2[:, 0] + (w * mu * c2).sum(axis=1)
    elif kind == "V2":
        val = (w * (1.0 + mu**2) * c2).sum(axis=1)
    elif kind == "V3":
        val = (w * (1.0 + mu**3) * c2).sum(axis=1)
    elif kind == "star":
        # mu > 0 on every mode but the constant one, flat index 0
        val = c2[:, 0] + (w[1:] * c2[:, 1:] / mu[1:]).sum(axis=1)
    elif kind == "one_eps":
        val = (w * (1.0 + eps * mu) * c2).sum(axis=1)
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    return np.sqrt(val)
