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
* ``_transforms`` is the only transform code in the package: a cached raw
  (synthesis, analysis) pair per route, which the stepper looks up once per
  solve and applies under the solve's one errstate; the private
  ``_synthesis``/``_analysis`` are its silent entry points.  The pair acts
  on raw arrays: the trailing ``len(modes)`` axes are transformed and any
  leading axes are a batch, so a ``(B, *modes)`` stack goes through in one
  call and each row equals its solo transform bitwise.  Grids with at most
  ``_MATRIX_ENTRIES`` (m x n) entries per axis take cached dense cosine
  matrices, one BLAS product per batch row (which keeps rows bitwise
  independent); larger grids take the DCT, and ``scipy.fft`` is imported at
  the first such transform, so that ``import svch`` loads numpy alone.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

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

# non-finite or overflowing input gives non-finite output, and no warning:
# the one such context of the package, entered as a decorator
_silent = np.errstate(all="ignore")


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
        Number of retained cosine modes per axis, each an integer >= 2.
    """

    lengths: tuple[float, ...]
    modes: tuple[int, ...]

    def __post_init__(self):
        lengths = tuple(float(L) for L in self.lengths)
        modes = tuple(_integer("modes", m) for m in self.modes)
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


def _integer(name: str, value, error: type = ValueError) -> int:
    # a count or an index: a float, even an integral one, or a string would
    # be truncated or parsed, and a noise index would alias a draw
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def basis_field(domain: Domain, flat_index: int, amplitude: float = 1.0) -> SpectralField:
    """Single basis function, indexed in the eigenvalue-sorted flat order."""
    eig = neumann_eigensystem(domain)
    if not 0 <= _integer("flat_index", flat_index) < len(eig.order):
        raise ValueError(f"flat_index must lie in [0, {len(eig.order)}), got {flat_index!r}")
    c = np.zeros(domain.modes)
    c.flat[eig.order[flat_index]] = amplitude
    return SpectralField(domain, c)


# ---------------------------------------------------------------------------
# transforms


def _along(axis: int, index) -> tuple:
    return (slice(None),) * axis + (index,)


# Bound on m * n per axis for the matrix route.  One thread, synthesis plus
# analysis, matrices against DCT: 1D 128 modes 11 against 29 us alone but 140
# against 61 us on a 16-row stack (90 modes: 67 against 53 us); 1D 256 modes 57
# against 32 us; 2D 128 x 128 1.0 against 0.9 ms.  So the bound stays at 90 modes.
_MATRIX_ENTRIES = 2**14


@functools.lru_cache(maxsize=None)
def _cosine_matrices(m: int, n: int, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    # synthesis S[j, k] = cos(pi k (j + 1/2) / n) and analysis A = (2/n) S^T
    # with row 0 set to 1/n, each the matrix that multiplies a column: the DCT
    # pair below with its scalings folded in, built in float64 and cast once
    S = np.cos(np.pi * np.outer(np.arange(n) + 0.5, np.arange(m)) / n)
    A = np.ascontiguousarray((2.0 / n) * S.T)
    A[0] = 1.0 / n
    S, A = S.astype(dtype, copy=False), A.astype(dtype, copy=False)
    S.setflags(write=False)
    A.setflags(write=False)
    return S, A


@functools.lru_cache(maxsize=None)
def _transforms(modes: tuple, grid: Optional[tuple] = None, dtype=np.float64) -> tuple:
    # the raw (synthesis, analysis) pair between coefficients of shape modes
    # and values of shape grid (the factor-2 grid when None), computing in
    # dtype: the cosine matrices when every axis fits _MATRIX_ENTRIES, else
    # the DCT.  The route depends on the grid alone, never on the stack
    # height, so a member of a stack takes its solo run's route and keeps its
    # bits, though 16-row stacks at 80-90 modes would run faster by the DCT.
    # The stepper asks for float32 only for CG's Jacobian action on grids of
    # at least stepper._SINGLE_POINTS points: one thread of a 2-core Xeon,
    # best of 7 x 200 calls, a 2D matvec in float64 against float32, casts
    # included, took 10.6 against 9.3-10.1 us at 1024 points, 14-16 against
    # 13 at 2304, 22 against 17-18 at 4096, 46-54 against 32-39 at 9216 and
    # 115-123 against 68-72 at 16384.  It enters
    # no errstate, so its callers are silent.  Either half writes into and
    # returns out, an array of the result's shape with C-contiguous rows,
    # when given: numpy's out on the matrix route, a copy on the DCT route
    grid = tuple(2 * m for m in modes) if grid is None else grid
    if all(m * n <= _MATRIX_ENTRIES for m, n in zip(modes, grid)):
        mats = tuple(zip(*(_cosine_matrices(m, n, dtype) for m, n in zip(modes, grid))))
        return tuple(functools.partial(_by_matrices, m) for m in mats)
    return (functools.partial(_dct_synthesis, grid, dtype),
            functools.partial(_dct_analysis, modes))


def _by_matrices(mats: Sequence[np.ndarray], x: np.ndarray, out=None) -> np.ndarray:
    # 1D: one matrix-vector product per row; 2D: M0 @ y @ M1^T on (rows, m0, m1).
    # A flat (B, m) @ (m, n) gemm would break the rows' bitwise independence
    if len(mats) == 1:
        return np.matvec(mats[0], x, out=out)
    y = x.reshape((-1,) + x.shape[-2:]) @ mats[1].T
    into = None if out is None else out.reshape(len(y), -1, y.shape[-1])
    y = np.matmul(mats[0], y, out=into)
    return y.reshape(x.shape[:-2] + y.shape[-2:]) if out is None else out


def _into(out, a: np.ndarray) -> np.ndarray:
    # a, or out holding a's values when out is given
    if out is not None:
        out[...] = a
    return a if out is None else out


def _dct_synthesis(grid: tuple, dtype, coeffs: np.ndarray, out=None) -> np.ndarray:
    # DCT-III in dtype, zero-padded by the transform
    from scipy import fft as sfft

    values = np.array(coeffs, dtype=dtype)
    for ax, n in enumerate(grid, start=values.ndim - len(grid)):
        values[_along(ax, slice(1, None))] *= 0.5
        values = sfft.dct(values, type=3, n=n, axis=ax)
    return _into(out, values)


def _dct_analysis(modes: tuple, values: np.ndarray, out=None) -> np.ndarray:
    # DCT-II in our normalization, cut to the first m coefficients per axis,
    # in the dtype of values
    from scipy import fft as sfft

    for ax, m in enumerate(modes, start=values.ndim - len(modes)):
        n = values.shape[ax]
        values = sfft.dct(values, type=2, axis=ax)[_along(ax, slice(0, m))] / n
        values[_along(ax, 0)] *= 0.5
    return _into(out, values)


@_silent
def _synthesis(coeffs: np.ndarray, modes: Sequence[int], factor: int = 2) -> np.ndarray:
    # coefficients -> values on the midpoint grid with factor*m points per axis;
    # leading axes are a batch
    synthesis, _ = _transforms(tuple(modes), tuple(factor * m for m in modes))
    return synthesis(np.asarray(coeffs, dtype=float))


@_silent
def _analysis(values: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    # midpoint-grid values -> the first m coefficients per axis; leading axes
    # are a batch
    out = np.asarray(values, dtype=float)
    _, analysis = _transforms(tuple(modes), out.shape[out.ndim - len(modes):])
    return analysis(out)


def to_grid(field: SpectralField, factor: int = 2) -> np.ndarray:
    """Values on the midpoint grid (zero-padded): the tests' oracle for pointwise terms."""
    if _integer("factor", factor) < 1:
        raise ValueError(f"factor must be an integer >= 1, got {factor!r}")
    return _synthesis(field.coeffs, field.domain.modes, factor)


def _grid_values(domain: Domain, values) -> np.ndarray:
    # values as floats on a grid with factor*m_i points along axis i, factor an integer
    vals = np.asarray(values, dtype=float)
    if vals.ndim != domain.dimension:
        raise ValueError("grid rank does not match domain dimension")
    if any(n % m != 0 or n < m for n, m in zip(vals.shape, domain.modes)):
        raise ValueError("grid size must be an integer multiple of the mode count")
    return vals


def from_grid(domain: Domain, values: np.ndarray) -> SpectralField:
    """Project grid values onto the truncated basis: the tests' pseudo-spectral oracle.

    The grid must have factor*m_i points along axis i for an integer factor;
    modes above the truncation are discarded.
    """
    return SpectralField(domain, _analysis(_grid_values(domain, values), domain.modes))


@_silent
def integrate_grid(domain: Domain, values: np.ndarray) -> float:
    """Quadrature of grid values (exact for resolved cosine modes): the tests' integral oracle.

    The grid is one from_grid takes.
    """
    return float(_integrals(domain, _grid_values(domain, values)[None])[0])


def _rows(a: np.ndarray) -> np.ndarray:
    # (B, -1) view of a (B, ...) stack: per-row sums over contiguous rows
    # equal each row's solo sum bitwise
    return a.reshape(len(a), -1)


def _integrals(domain: Domain, values: np.ndarray) -> np.ndarray:
    # integrate_grid of every row of a (B, *grid) stack
    return _rows(values).sum(axis=1) * domain.volume / values[0].size


# ---------------------------------------------------------------------------
# diagonal operators


@_silent
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


def _check_eps(eps) -> None:
    # the viscosity of (H4), for SolverConfig and the viscosity functions here
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}, violates (H4)")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps!r}, violates (H4)")


def apply_helmholtz_inverse(v: SpectralField, eps: float) -> SpectralField:
    """The paper's viscous resolvent (I - eps*Laplacian)^{-1}; keeps the mean, I at eps = 0."""
    _check_eps(eps)
    if eps == 0:
        return v
    eig = neumann_eigensystem(v.domain)
    return SpectralField(v.domain, v.coeffs / (1.0 + eps * eig.mu))


def star_potential(v: SpectralField, eps: float = 0.0) -> SpectralField:
    """The paper's star potential: N of the Helmholtz-smoothed fluctuation.

    phi = N (I - eps*Laplacian)^{-1} (v - mean(v)); pairing v against phi
    gives twice ``star_energy(v, eps)``.
    """
    _check_eps(eps)
    eig = neumann_eigensystem(v.domain)
    c = np.zeros_like(v.coeffs)
    nz = eig.mu > 0
    c[nz] = v.coeffs[nz] / ((1.0 + eps * eig.mu[nz]) * eig.mu[nz])
    return SpectralField(v.domain, c)


@_silent
def star_energy(v: SpectralField, eps: float = 0.0) -> float:
    """The paper's quadratic energy generating the star norm, eps-weighted.

    0.5*|grad N R(v - v_D)|_H^2 + 0.5*eps*|R(v - v_D)|_H^2 with
    R = (I - eps*Laplacian)^{-1}.  Always >= 0.
    """
    _check_eps(eps)
    eig = neumann_eigensystem(v.domain)
    nz = eig.mu > 0
    c = v.coeffs[nz]
    mu = eig.mu[nz]
    w = eig.weights[nz]
    r = 1.0 + eps * mu
    return float(0.5 * np.sum(w * c * c * (1.0 / (mu * r * r) + eps / (r * r))))


@_silent
def inner(u: SpectralField, v: SpectralField) -> float:
    """The paper's H (that is L2) inner product, via Parseval."""
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
    _check_eps(eps)
    return float(_norms(v.domain, v.coeffs[None], kind, eps)[0])


def _grad_sq(domain: Domain, coeffs: np.ndarray) -> np.ndarray:
    # |grad v|_H^2 of every row of a (B, *modes) coefficient stack
    eig = neumann_eigensystem(domain)
    return _rows(eig.weights * eig.mu * coeffs**2).sum(axis=1)


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
        val = (w * (1.0 + mu * mu * mu) * c2).sum(axis=1)
    elif kind == "star":
        # mu > 0 on every mode but the constant one, flat index 0
        val = c2[:, 0] + (w[1:] * c2[:, 1:] / mu[1:]).sum(axis=1)
    elif kind == "one_eps":
        val = (w * (1.0 + eps * mu) * c2).sum(axis=1)
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    return np.sqrt(val)
