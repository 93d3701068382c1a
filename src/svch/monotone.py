"""
Maximal monotone graphs on the real line and their regularizations.

A graph here is a single-valued maximal monotone function beta: R -> R with
beta(0) = 0 together with its convex primitive beta_hat.  The toolkit
provides the resolvent (I + lam*beta)^{-1}, the Lipschitz regularization
beta_lam(r) = (r - resolvent(r)) / lam, the envelope
beta_hat(resolvent(r)) + lam/2 * beta_lam(r)^2, and a numerically computed
convex conjugate of beta_hat.  All scalar operations accept numpy arrays and
broadcast elementwise; the time stepper relies on this for collocation-grid
evaluation.

Every graph carries a fixed-cost resolvent and the derivative of beta: the
quartic and linear graphs a closed form, the sixth-power and exponential
graphs a fixed number of Newton steps from a bound on the root.  At
s = beta_lam(r) = beta(J), with J = resolvent(r), the conjugate is exactly
s*J - beta_hat(J) (Fenchel-Young); ``conjugate`` is the general route and
the oracle for that identity.

The built-in graphs are one table of values: a quartic double well (beta(r)
= r^3 with the usual -r perturbation), a sixth-power well (r^5), an
exponential graph (sinh), and the linear graph (r) for closed-form checks.
Potentials whose graph is not defined on all of R (the logarithmic well) are
rejected at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .spectral import _into, _silent

__all__ = [
    "NoConvergence",
    "UnsupportedGraph",
    "MonotoneGraph",
    "LipschitzPerturbation",
    "resolvent",
    "yosida",
    "yosida_derivative",
    "moreau_envelope",
    "conjugate",
    "make_graph",
    "make_perturbation",
    "graph_names",
]


class NoConvergence(RuntimeError):
    """The conjugate's bracket search did not terminate."""


class UnsupportedGraph(ValueError):
    """Requested potential cannot be represented as an everywhere-defined graph."""


@dataclass(frozen=True)
class MonotoneGraph:
    """Single-valued maximal monotone graph with convex primitive.

    beta_prime is the derivative of beta; resolvent_closed(lam, r) solves
    J + lam*beta(J) = r on an array r at a fixed cost.  degree is p when beta
    is the power r^p and None otherwise (the exponential graph); the
    regularity monitor's cubic bound reads it.
    """

    name: str
    beta: Callable
    beta_hat: Callable
    beta_prime: Callable
    resolvent_closed: Callable
    degree: Optional[int]


@dataclass(frozen=True)
class LipschitzPerturbation:
    """The reaction pi(r) = -lipschitz * r, with primitive -lipschitz * r^2 / 2.

    A reaction is its slope: diagonal in the cosine basis, it acts on coefficients.
    """

    name: str
    lipschitz: float


def _as_array(r):
    arr = np.asarray(r, dtype=float)
    return arr, (arr.ndim == 0)


def _check_lam(lam) -> None:
    # the regularization of (H2), for SolverConfig and the functions here
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}, violates (H2)")
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam!r}, violates (H2)")


@_silent
def resolvent(graph: MonotoneGraph, lam: float, r, out=None):
    """Solve J + lam*beta(J) = r for J, elementwise, by the graph's resolvent_closed.

    Every graph carries a fixed-cost resolvent, odd in r, with |J| <= |r|;
    since d/dJ (J + lam*beta(J)) >= 1 the root is unique.  A point's root
    does not depend on the other points of the array, and a non-finite r
    gives a non-finite J without a floating-point warning.  An array r's J
    goes into out, an array of r's shape, when given, and out is returned.
    """
    _check_lam(lam)
    arr, scalar = _as_array(r)
    J = graph.resolvent_closed(lam, arr)
    return float(J) if scalar else _into(out, J)


@_silent
def yosida(graph: MonotoneGraph, lam: float, r):
    """The paper's Yosida approximation beta_lam(r) = (r - resolvent(r)) / lam."""
    arr, scalar = _as_array(r)
    out = (arr - resolvent(graph, lam, arr)) / lam
    return float(out) if scalar else out


@_silent
def yosida_derivative(graph: MonotoneGraph, lam: float, r, J=None, out=None):
    """Derivative of the regularized graph, beta'(J) / (1 + lam*beta'(J)).

    J is resolvent(graph, lam, r) when the caller already holds it; it is
    computed here otherwise.  In [0, 1/lam] up to rounding; where beta'(J)
    overflows (the exponential graph past J = 710.5) it is the limit 1/lam.
    out is as in resolvent.
    """
    _check_lam(lam)
    arr, scalar = _as_array(r)
    bp = graph.beta_prime(np.asarray(resolvent(graph, lam, arr) if J is None else J))
    rho = np.divide(bp, 1.0 + lam * bp, out=np.empty_like(arr) if out is None else out)
    rho[np.isinf(bp)] = 1.0 / lam
    return float(rho) if scalar else rho


@_silent
def moreau_envelope(graph: MonotoneGraph, lam: float, r, J=None):
    """Smoothed primitive beta_hat(J_lam(r)) + lam/2 * beta_lam(r)^2.

    J is resolvent(graph, lam, r) when the caller already holds it.  J stays
    an array, so an overflow in beta_hat gives inf, never OverflowError.
    """
    _check_lam(lam)
    arr, scalar = _as_array(r)
    J = np.asarray(resolvent(graph, lam, arr) if J is None else J)
    b = (arr - J) / lam
    out = graph.beta_hat(J) + 0.5 * lam * b * b
    return float(out) if scalar else out


def conjugate(graph: MonotoneGraph, s):
    """Convex conjugate of beta_hat, sup_r { s*r - beta_hat(r) }, elementwise.

    The maximizer satisfies beta(r*) = s, so a bracket [-B, B] with
    beta(B) >= 10*|s| certainly contains it; B is found by doubling and the
    concave objective is then maximized by golden-section search.  The value
    is accurate to well below 1e-6 absolute for desk-scale arguments.  This
    is the Fenchel-Young oracle: runs take the conjugate at s = beta(J) from
    the equality s*J - beta_hat(J), and the tests check that against this.
    """
    arr, scalar = _as_array(s)
    target = 10.0 * np.abs(arr) + 1.0
    B = np.ones_like(arr)
    with np.errstate(over="ignore"):
        for _ in range(600):
            need = graph.beta(B) < target
            if not need.any():
                break
            B = np.where(need, 2.0 * B, B)
        else:
            raise NoConvergence("conjugate bracket search did not terminate")

        lo = -B
        hi = B
        invphi = (np.sqrt(5.0) - 1.0) / 2.0

        def h(x):
            return arr * x - graph.beta_hat(x)

        tol = 1e-9 * (1.0 + B)
        for _ in range(400):
            if np.all(hi - lo <= tol):
                break
            c = hi - invphi * (hi - lo)
            d = lo + invphi * (hi - lo)
            hc = h(c)
            hd = h(d)
            # keep the subinterval containing the larger probe value
            pick_c = hc >= hd
            hi = np.where(pick_c, d, hi)
            lo = np.where(pick_c, lo, c)
        mid = 0.5 * (lo + hi)
        out = np.maximum(h(mid), 0.0)  # sup >= h(0) = 0
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# built-in library


def _cubic_resolvent(lam, r):
    """Real root of J + lam*J^3 = r: hyperbolic form plus one Newton step.

    sinh(3t) = 3 sinh(t) + 4 sinh(t)^3 gives the root without the
    cancellation of the Cardano form; its error grows like log|r|, and the
    Newton step takes the residual to the rounding floor.  Odd in r exactly.
    """
    s = np.sqrt(3.0 * lam)
    # in place, three arrays of r's size at most: fresh 2D temporaries cost page faults
    J = np.multiply(1.5 * s, r, out=np.empty(np.shape(r)))
    np.sinh(np.divide(np.arcsinh(J, out=J), 3.0, out=J), out=J)
    J *= 2.0 / s
    lj2 = lam * J * J
    dJ = J * lj2
    dJ += J
    dJ -= r
    lj2 *= 3.0
    lj2 += 1.0
    dJ /= lj2
    J -= dJ
    return J


def _quintic_resolvent(lam, r):
    """Root of J + lam*J^5 = r: six Newton steps from above, odd in r exactly.

    min(|r|, (|r|/lam)^(1/5)) bounds |J| from above, and the branch is
    convex there, so Newton decreases monotonically to the root.
    """
    a = np.abs(r)
    J = np.minimum(a, a**0.2 * lam**-0.2)
    for _ in range(6):
        l4 = lam * ((J * J) * (J * J))
        J = J - (J + J * l4 - a) / (1.0 + 5.0 * l4)
    return np.copysign(J, r)


def _sinh_resolvent(lam, r):
    """Root of J + lam*sinh(J) = r: four Newton steps, odd in r exactly.

    The start log w(|r| + log(lam/2)) - log(lam/2), w the Wright omega
    function, solves J + (lam/2)*e^J = |r| without cancellation; it is
    clipped to [0, |r|/(1 + lam)].  lam*sinh(J) is lam*e^(J - 700)*sinh(700)
    above J = 700, so nothing overflows for |r| up to 1e300.
    """
    from scipy.special import wrightomega

    a = np.abs(r)
    c = np.log(0.5 * lam)
    J = np.clip(np.log(wrightomega(a + c)) - c, 0.0, a / (1.0 + lam))
    for _ in range(4):
        Jc = np.minimum(J, 700.0)
        g = lam * np.exp(J - Jc)
        J = J - (J + g * np.sinh(Jc) - a) / (1.0 + g * np.cosh(Jc))
    return np.copysign(J, r)


# the wells multiply out integer powers: numpy's ** on an array takes its
# vectorized pow, about 85 ns a float64 point against 1 ns a multiplication
_GRAPHS = {graph.name: graph for graph in (
    MonotoneGraph(
        name="quartic_double_well",
        beta=lambda r: r * r * r,
        beta_hat=lambda r: 0.25 * ((r * r) * (r * r)),
        beta_prime=lambda r: 3.0 * r**2,
        resolvent_closed=_cubic_resolvent,
        degree=3,
    ),
    MonotoneGraph(
        name="sixth_power_well",
        beta=lambda r: (r * r) * (r * r) * r,
        beta_hat=lambda r: (r * r) * (r * r) * (r * r) / 6.0,
        beta_prime=lambda r: 5.0 * ((r * r) * (r * r)),
        resolvent_closed=_quintic_resolvent,
        degree=5,
    ),
    MonotoneGraph(
        name="exponential",
        beta=np.sinh,
        beta_hat=lambda r: np.cosh(r) - 1.0,
        beta_prime=np.cosh,
        resolvent_closed=_sinh_resolvent,
        degree=None,
    ),
    MonotoneGraph(
        name="linear",
        beta=lambda r: np.asarray(r, dtype=float) + 0.0,
        beta_hat=lambda r: 0.5 * np.asarray(r, dtype=float) ** 2,
        beta_prime=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        resolvent_closed=lambda lam, r: np.asarray(r, dtype=float) / (1.0 + lam),
        degree=1,
    ),
)}

_REJECTED = {
    "log_double_well": (
        "the logarithmic well is defined only on (-1, 1); "
        "this toolkit requires graphs defined on all of R"
    ),
}


def graph_names() -> tuple[str, ...]:
    return tuple(sorted(_GRAPHS))


def make_graph(name: str) -> MonotoneGraph:
    """The built-in graph of that name; frozen, so every caller shares it."""
    if name in _REJECTED:
        raise UnsupportedGraph(f"potential {name!r}: {_REJECTED[name]}, violates (H1)")
    try:
        return _GRAPHS[name]
    except KeyError:
        raise UnsupportedGraph(
            f"unknown potential {name!r}; available: {', '.join(graph_names())}; "
            "a potential defined on the whole real line is required, violates (H1)"
        ) from None


def make_perturbation(name: str, scale: float = 1.0) -> LipschitzPerturbation:
    """Built-in reaction terms: 'negative_identity' (pi = -scale*r) or 'zero'."""
    if not np.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}, violates (H3)")
    if scale < 0:
        raise ValueError("scale must be >= 0")
    if name == "negative_identity":
        return LipschitzPerturbation("negative_identity", float(scale))
    if name == "zero":
        return LipschitzPerturbation("zero", 0.0)
    raise UnsupportedGraph(f"unknown perturbation {name!r}")
