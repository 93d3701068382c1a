"""
Numerical laboratory for a stochastic viscous Cahn-Hilliard equation.

The package republishes the ``__all__`` of each of its five building blocks:

- ``spectral``: Neumann cosine basis on a box, fields, norms, and the
  resolvent-type inverse operators the energy estimates live in.
- ``monotone``: maximal monotone graphs, their resolvents, Yosida
  approximations, Moreau envelopes, and convex conjugates.
- ``noise``: counter-based Wiener increments and finite-rank diffusion
  operators, additive or state-modulated.
- ``stepper``: the semi-implicit backward Euler scheme with matrix-free
  Newton solves and step rejection.
- ``experiments``: diagnostics, invariant checks, and the convergence and
  continuity studies; ``cli`` drives them from config files.
"""

from .spectral import *  # noqa: F401,F403
from .monotone import *  # noqa: F401,F403
from .noise import *  # noqa: F401,F403
from .stepper import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

__version__ = "0.1.0"
