"""Per-module spans and counts for the svch benchmark, recorded from outside.

Nothing in ``src/svch`` knows about tracing.  ``Tracer.install`` replaces a
fixed list of public names with timing wrappers and ``Tracer.uninstall`` puts
the original objects back.  Several modules bind names at import time
(``experiments`` holds its own ``simulate``, ``to_grid``, ``norm``, ...;
``stepper`` holds ``cg``, ``_analysis`` and ``_synthesis``), so a name is
replaced in *every* ``svch`` module that holds the same object, not only in
the module that defines it.  A hook whose target no longer exists is recorded
as absent and every metric that reads it is left out of the report.

Spans are aggregated in memory per group: call count, inclusive time (only the
outermost span of a group counts, so recursion and nesting are not counted
twice), self time (span time minus the time of its child spans) and optional
counters.  Self time is also summed per layer; the layers partition the
traced time of ``cli.run``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

@dataclass
class Group:
    """Aggregated spans of one group of hooked names."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_points(index, name):
    def observe(group, args, kwargs, result):
        group.add("points", int(getattr(_arg(args, kwargs, index, name), "size", 1)))
    return observe


def _count_transform_bytes(group, args, kwargs, result):
    group.add("bytes", int(args[0].nbytes) + int(result.nbytes))


def _count_states(group, args, kwargs, result):
    group.add("states", len(_arg(args, kwargs, 0, "traj")))


def _count_trajectory(group, args, kwargs, result):
    states = result.states[1:]
    group.add("steps", len(states))
    group.add("newton_iters", sum(s.newton_iterations for s in states))
    group.add("rejections", sum(s.rejections for s in states))


def _cg_with_iteration_count(fn, group):
    """scipy's cg calls ``callback`` once per iteration; count through it."""

    def call(*args, callback=None, **kwargs):
        def count(xk):
            group.add("iters", 1)
            if callback is not None:
                callback(xk)

        x, info = fn(*args, callback=count, **kwargs)
        group.add("fail", int(info != 0))
        return x, info

    return call


@dataclass(frozen=True)
class Hook:
    """One traced name: ``target`` is 'module:attr' or 'module:Class.method'."""

    target: str
    group: str
    layer: str
    observe: Optional[Callable] = None
    adapt: Optional[Callable] = None


_STUDIES = ("continuous_dependence_study", "vanishing_viscosity_study",
            "yosida_convergence_study", "ensemble_expectations",
            "regularity_study", "regularity_monitor")
_SPECTRAL_API = ("to_grid", "from_grid", "norm", "integrate_grid", "inner",
                 "neumann_eigensystem")

HOOKS = (
    Hook("svch.cli:run", "cli.run", "cli"),
    Hook("svch.experiments:run_diagnostics", "experiments.diagnostics", "experiments",
         observe=_count_states),
    Hook("svch.experiments:check_invariants", "experiments.invariants", "experiments"),
    *(Hook(f"svch.experiments:{name}", "experiments.study", "experiments")
      for name in _STUDIES),
    Hook("svch.stepper:simulate", "stepper.simulate", "stepper", observe=_count_trajectory),
    Hook("svch.stepper:free_energy_parts", "stepper.functional", "stepper"),
    Hook("svch.stepper:evolution_residual", "stepper.functional", "stepper"),
    Hook("svch.stepper:cg", "stepper.cg", "stepper", adapt=_cg_with_iteration_count),
    Hook("svch.monotone:resolvent", "monotone.resolvent", "monotone",
         observe=_count_points(2, "r")),
    Hook("svch.monotone:yosida", "monotone.yosida", "monotone"),
    Hook("svch.monotone:yosida_derivative", "monotone.graph", "monotone"),
    Hook("svch.monotone:moreau_envelope", "monotone.graph", "monotone"),
    Hook("svch.monotone:conjugate", "monotone.conjugate", "monotone",
         observe=_count_points(1, "s")),
    Hook("svch.spectral:_synthesis", "spectral.transform", "spectral",
         observe=_count_transform_bytes),
    Hook("svch.spectral:_analysis", "spectral.transform", "spectral",
         observe=_count_transform_bytes),
    *(Hook(f"svch.spectral:{name}", "spectral.api", "spectral") for name in _SPECTRAL_API),
    Hook("svch.noise:WienerProcess.increments_at", "noise.increment", "noise"),
    Hook("svch.noise:apply_diffusion", "noise.diffusion", "noise"),
    Hook("svch.noise:NoiseModel.increment_field", "noise.field", "noise"),
)


def _svch_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "svch" or n.startswith("svch."))]


def _binding_sites(target: str):
    """(owner, attribute, original) for every place callers look the name up.

    Returns None when the target does not exist.
    """
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or meth not in vars(cls):
            return None
        return [(cls, meth, vars(cls)[meth])]
    if path not in vars(module):
        return None
    original = vars(module)[path]
    return [(m, path, original) for m in _svch_modules() if vars(m).get(path) is original]


class Tracer:
    """Installs the hooks for one run and aggregates what they record."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.groups: dict = {}
        self.layer_self: dict = {}
        self.absent: set = set()
        self._patches: list = []
        self._child = [0.0]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.groups = {}
        self.layer_self = {}
        self.absent = set()
        self._child = [0.0]
        for hook in self.hooks:
            sites = _binding_sites(hook.target)
            if sites is None:
                self.absent.add(hook.group)
                self.absent.add(hook.layer)
                continue
            wrapper = self._wrap(sites[0][2], hook)
            for owner, attr, original in sites:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, hook: Hook):
        group = self.groups.setdefault(hook.group, Group())
        layer = hook.layer
        layer_self = self.layer_self
        child = self._child
        clock = time.perf_counter
        call = fn if hook.adapt is None else hook.adapt(fn, group)
        observe = hook.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            group.depth += 1
            t0 = clock()
            try:
                result = call(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = child.pop()
                child[-1] += dur
                group.depth -= 1
                group.calls += 1
                group.self_s += dur - inner
                layer_self[layer] = layer_self.get(layer, 0.0) + dur - inner
                if group.depth == 0:
                    group.inclusive_s += dur
            if observe is not None:
                try:
                    observe(group, args, kwargs, result)
                except (AttributeError, TypeError):
                    pass  # the result changed shape: its counters go absent
            return result

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics
#
# Each entry: (name, unit, groups or layers it reads, value from the tracer).
# A metric that reads an absent group or layer is left out.


def _g(t, name):
    return t.groups.get(name, Group())


def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER = (
    ("cli.self_s", "s", ("cli",), lambda t: t.layer_self.get("cli", 0.0)),
    ("experiments.diagnostics_s", "s", ("experiments.diagnostics",),
     lambda t: _g(t, "experiments.diagnostics").inclusive_s),
    ("experiments.states_diagnosed", "count", ("experiments.diagnostics",),
     lambda t: _g(t, "experiments.diagnostics").counts.get("states", 0)),
    ("experiments.invariants_s", "s", ("experiments.invariants",),
     lambda t: _g(t, "experiments.invariants").inclusive_s),
    ("experiments.self_s", "s", ("experiments",),
     lambda t: t.layer_self.get("experiments", 0.0)),
    ("stepper.simulate_calls", "count", ("stepper.simulate",),
     lambda t: _g(t, "stepper.simulate").calls),
    ("stepper.steps", "count", ("stepper.simulate",),
     lambda t: _g(t, "stepper.simulate").counts["steps"]),
    ("stepper.simulate_s", "s", ("stepper.simulate",),
     lambda t: _g(t, "stepper.simulate").inclusive_s),
    ("stepper.self_s", "s", ("stepper",), lambda t: t.layer_self.get("stepper", 0.0)),
    ("stepper.newton_iters", "count", ("stepper.simulate",),
     lambda t: _g(t, "stepper.simulate").counts["newton_iters"]),
    ("stepper.newton_per_step", "iters/step", ("stepper.simulate",),
     lambda t: _ratio(_g(t, "stepper.simulate").counts["newton_iters"],
                      _g(t, "stepper.simulate").counts["steps"])),
    ("stepper.rejections", "count", ("stepper.simulate",),
     lambda t: _g(t, "stepper.simulate").counts["rejections"]),
    ("stepper.cg_calls", "count", ("stepper.cg",), lambda t: _g(t, "stepper.cg").calls),
    ("stepper.cg_iters", "count", ("stepper.cg",),
     lambda t: _g(t, "stepper.cg").counts.get("iters", 0)),
    ("stepper.cg_iters_per_newton", "iters/newton", ("stepper.cg", "stepper.simulate"),
     lambda t: _ratio(_g(t, "stepper.cg").counts.get("iters", 0),
                      _g(t, "stepper.simulate").counts["newton_iters"])),
    ("stepper.cg_fail", "count", ("stepper.cg",),
     lambda t: _g(t, "stepper.cg").counts.get("fail", 0)),
    ("stepper.cg_self_s", "s", ("stepper.cg",), lambda t: _g(t, "stepper.cg").self_s),
    ("monotone.resolvent_calls", "count", ("monotone.resolvent",),
     lambda t: _g(t, "monotone.resolvent").calls),
    ("monotone.resolvent_points", "count", ("monotone.resolvent",),
     lambda t: _g(t, "monotone.resolvent").counts.get("points", 0)),
    ("monotone.resolvent_s", "s", ("monotone.resolvent",),
     lambda t: _g(t, "monotone.resolvent").inclusive_s),
    ("monotone.yosida_calls", "count", ("monotone.yosida",),
     lambda t: _g(t, "monotone.yosida").calls),
    ("monotone.self_s", "s", ("monotone",), lambda t: t.layer_self.get("monotone", 0.0)),
    ("monotone.conjugate_calls", "count", ("monotone.conjugate",),
     lambda t: _g(t, "monotone.conjugate").calls),
    ("monotone.conjugate_points", "count", ("monotone.conjugate",),
     lambda t: _g(t, "monotone.conjugate").counts.get("points", 0)),
    ("monotone.conjugate_s", "s", ("monotone.conjugate",),
     lambda t: _g(t, "monotone.conjugate").inclusive_s),
    ("spectral.transform_calls", "count", ("spectral.transform",),
     lambda t: _g(t, "spectral.transform").calls),
    ("spectral.transform_s", "s", ("spectral.transform",),
     lambda t: _g(t, "spectral.transform").inclusive_s),
    ("spectral.transform_bytes", "B_computed", ("spectral.transform",),
     lambda t: _g(t, "spectral.transform").counts.get("bytes", 0)),
    ("spectral.api_calls", "count", ("spectral.api",), lambda t: _g(t, "spectral.api").calls),
    ("spectral.api_s", "s", ("spectral.api",), lambda t: _g(t, "spectral.api").inclusive_s),
    ("noise.increment_calls", "count", ("noise.increment",),
     lambda t: _g(t, "noise.increment").calls),
    ("noise.increment_s", "s", ("noise.increment",),
     lambda t: _g(t, "noise.increment").inclusive_s),
    ("noise.diffusion_s", "s", ("noise.diffusion",),
     lambda t: _g(t, "noise.diffusion").inclusive_s),
)


def layer_metrics(tracer: Tracer) -> dict:
    """name -> (value, unit) for every per-layer metric whose hooks all exist."""
    out = {}
    for name, unit, reads, value in PER_LAYER:
        if tracer.absent.intersection(reads):
            continue
        try:
            out[name] = (value(tracer), unit)
        except KeyError:  # a counter the program no longer exposes
            continue
    return out
