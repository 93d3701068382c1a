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

The quartic and linear graphs carry a closed-form resolvent; the others use
a safeguarded scalar Newton iteration.  At s = beta_lam(r) = beta(J), with
J = resolvent(r), the conjugate is exactly s*J - beta_hat(J) (Fenchel-Young);
``conjugate`` is the general route and the oracle for that identity.

The built-in library covers a quartic double well (beta(r) = r^3 with the
usual -r perturbation), a sixth-power well (r^5), an exponential graph
(sinh), and the linear graph (r) used mostly for closed-form solver checks.
Potentials whose graph is not defined on all of R (the logarithmic well) are
rejected at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
    "polynomial_degree",
]

RESOLVENT_MAX_ITER = 200


class NoConvergence(RuntimeError):
    """Root finder exceeded its iteration cap; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnsupportedGraph(ValueError):
    """Requested potential cannot be represented as an everywhere-defined graph."""


@dataclass(frozen=True)
class MonotoneGraph:
    """Single-valued maximal monotone graph with convex primitive.

    growth is a coarse descriptor, "polynomial:p" or "exponential", used by
    diagnostics that need to know the nonlinearity class.
    """

    name: str
    beta: Callable
    beta_hat: Callable
    beta_prime: Optional[Callable] = None
    resolvent_closed: Optional[Callable] = None
    growth: str = "polynomial:1"


@dataclass(frozen=True)
class LipschitzPerturbation:
    """Lipschitz reaction term pi with antiderivative pi_hat and constant."""

    name: str
    pi: Callable
    pi_hat: Callable
    lipschitz: float
    pi_prime: Optional[Callable] = None


def _as_array(r):
    arr = np.asarray(r, dtype=float)
    return arr, (arr.ndim == 0)


def resolvent(graph: MonotoneGraph, lam: float, r):
    """Solve J + lam*beta(J) = r for J, elementwise.

    Uses the graph's ``resolvent_closed`` when it has one.  Otherwise a
    safeguarded Newton iteration confined to the bracket
    [min(0, r), max(0, r)] with bisection fallback, run per point: a point
    takes one update past residual 1e-12 * (1 + |r|) and stops, so its root
    does not depend on the other points of the array.  Since
    d/dJ (J + lam*beta(J)) >= 1 the root is unique and |J - J_exact| is
    bounded by the residual itself.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    arr, scalar = _as_array(r)
    if graph.resolvent_closed is not None:
        out = graph.resolvent_closed(lam, arr)
        return float(out) if scalar else out

    r = arr.ravel()
    idx = np.arange(r.size)
    out = np.empty_like(r)
    lo = np.minimum(0.0, r)
    hi = np.maximum(0.0, r)
    x = r / (1.0 + lam)  # exact for the linear graph, decent elsewhere
    tol = 1e-12 * (1.0 + np.abs(r))
    f = x + lam * graph.beta(x) - r
    polished = np.zeros(r.size, dtype=bool)
    for _ in range(RESOLVENT_MAX_ITER):
        done = np.abs(f) <= tol
        stop = done & polished
        if stop.any():
            out[idx[stop]] = x[stop]
            keep = ~stop
            idx, r, lo, hi, x, f, tol, done, polished = (
                a[keep] for a in (idx, r, lo, hi, x, f, tol, done, polished))
        if not len(idx):
            break
        polished |= done
        hi = np.where(f > 0, x, hi)
        lo = np.where(f <= 0, x, lo)
        if graph.beta_prime is not None:
            step = f / (1.0 + lam * graph.beta_prime(x))
            cand = x - step
        else:
            cand = 0.5 * (lo + hi)
        inside = (cand >= lo) & (cand <= hi) & np.isfinite(cand)
        x = np.where(inside, cand, 0.5 * (lo + hi))
        f = x + lam * graph.beta(x) - r
    else:
        if (np.abs(f) > tol).any():
            raise NoConvergence(
                f"resolvent iteration cap {RESOLVENT_MAX_ITER} exceeded",
                residual=float(np.max(np.abs(f))),
            )
    out[idx] = x
    return float(out[0]) if scalar else out.reshape(arr.shape)


def yosida(graph: MonotoneGraph, lam: float, r):
    """Lipschitz regularization (r - resolvent(r)) / lam, elementwise."""
    arr, scalar = _as_array(r)
    out = (arr - resolvent(graph, lam, arr)) / lam
    return float(out) if scalar else out


def yosida_derivative(graph: MonotoneGraph, lam: float, r, J=None):
    """Derivative of the regularized graph, beta'(J) / (1 + lam*beta'(J)).

    J is resolvent(graph, lam, r) when the caller already holds it; it is
    computed here otherwise.  Falls back to a central difference of the
    regularization (ignoring J) when the graph carries no derivative.
    Always in [0, 1/lam].
    """
    arr, scalar = _as_array(r)
    if graph.beta_prime is not None:
        bp = graph.beta_prime(resolvent(graph, lam, arr) if J is None else J)
        out = bp / (1.0 + lam * bp)
    else:
        h = 1e-6 * (1.0 + np.abs(arr))
        out = (yosida(graph, lam, arr + h) - yosida(graph, lam, arr - h)) / (2.0 * h)
        out = np.clip(out, 0.0, 1.0 / lam)
    return float(out) if scalar else out


def moreau_envelope(graph: MonotoneGraph, lam: float, r, J=None):
    """Smoothed primitive beta_hat(J_lam(r)) + lam/2 * beta_lam(r)^2.

    J is resolvent(graph, lam, r) when the caller already holds it.
    """
    arr, scalar = _as_array(r)
    J = resolvent(graph, lam, arr) if J is None else J
    b = (arr - J) / lam
    out = graph.beta_hat(J) + 0.5 * lam * b * b
    return float(out) if scalar else out


def conjugate(graph: MonotoneGraph, s):
    """Convex conjugate of beta_hat, sup_r { s*r - beta_hat(r) }, elementwise.

    The maximizer satisfies beta(r*) = s, so a bracket [-B, B] with
    beta(B) >= 10*|s| certainly contains it; B is found by doubling and the
    concave objective is then maximized by golden-section search.  The value
    is accurate to well below 1e-6 absolute for desk-scale arguments.
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
    J = (2.0 / s) * np.sinh(np.arcsinh(1.5 * s * r) / 3.0)
    lj2 = lam * J * J
    return J - (J + J * lj2 - r) / (1.0 + 3.0 * lj2)


def _quartic():
    return MonotoneGraph(
        name="quartic_double_well",
        beta=lambda r: r**3,
        beta_hat=lambda r: 0.25 * r**4,
        beta_prime=lambda r: 3.0 * r**2,
        resolvent_closed=_cubic_resolvent,
        growth="polynomial:3",
    )


def _sixth():
    return MonotoneGraph(
        name="sixth_power_well",
        beta=lambda r: r**5,
        beta_hat=lambda r: r**6 / 6.0,
        beta_prime=lambda r: 5.0 * r**4,
        growth="polynomial:5",
    )


def _exponential():
    return MonotoneGraph(
        name="exponential",
        beta=np.sinh,
        beta_hat=lambda r: np.cosh(r) - 1.0,
        beta_prime=np.cosh,
        growth="exponential",
    )


def _linear():
    return MonotoneGraph(
        name="linear",
        beta=lambda r: np.asarray(r, dtype=float) + 0.0,
        beta_hat=lambda r: 0.5 * np.asarray(r, dtype=float) ** 2,
        beta_prime=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        resolvent_closed=lambda lam, r: np.asarray(r, dtype=float) / (1.0 + lam),
        growth="polynomial:1",
    )


_GRAPHS = {
    "quartic_double_well": _quartic,
    "sixth_power_well": _sixth,
    "exponential": _exponential,
    "linear": _linear,
}

_REJECTED = {
    "log_double_well": (
        "the logarithmic well is defined only on (-1, 1); "
        "this toolkit requires graphs defined on all of R"
    ),
}


def graph_names() -> tuple[str, ...]:
    return tuple(sorted(_GRAPHS))


def make_graph(name: str) -> MonotoneGraph:
    if name in _REJECTED:
        raise UnsupportedGraph(f"potential {name!r}: {_REJECTED[name]}, violates (H1)")
    try:
        return _GRAPHS[name]()
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
        return LipschitzPerturbation(
            name="negative_identity",
            pi=lambda r: -scale * np.asarray(r, dtype=float),
            pi_hat=lambda r: -0.5 * scale * np.asarray(r, dtype=float) ** 2,
            lipschitz=float(scale),
            pi_prime=lambda r: -scale * np.ones_like(np.asarray(r, dtype=float)),
        )
    if name == "zero":
        return LipschitzPerturbation(
            name="zero",
            pi=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            pi_hat=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            lipschitz=0.0,
            pi_prime=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )
    raise UnsupportedGraph(f"unknown perturbation {name!r}")


def polynomial_degree(graph: MonotoneGraph) -> Optional[int]:
    if graph.growth.startswith("polynomial:"):
        return int(graph.growth.split(":", 1)[1])
    return None
