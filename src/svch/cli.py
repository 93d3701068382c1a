"""
Batch front-end: parse an INI run configuration, execute one simulation or
study, and write reproducible artifacts.

Config format: ``key = value`` lines under ``[section]`` headers, UTF-8.
Sections and keys (all optional, defaults in RunConfig):

    [run]       mode, seed
    [domain]    lengths, modes            (comma-separated per axis)
    [potential] name, perturbation, perturbation_scale, lam
    [noise]     kind, modes, sigma, rho, mean_zero, clamp_bound, smoothing_level
    [solver]    eps, dt, t_final, newton_tol, newton_max_iter, cg_max_iter,
                splitting, max_rejections
    [initial]   coefficients              (flat_index:value pairs, comma-separated)
    [sweep]     eps_grid, lam_grid, members, star_offset, offset_mode

Precedence: command-line flags > SVCH_<SECTION>_<KEY> environment variables >
config file > defaults.  parse_config(emit_config(c)) == c exactly; floats
are emitted with repr so the round trip is bit-faithful.

Validation builds the problem once; each failure names the assumption it
violates, as the library constructor that checks it labels it: (H1) potential
on the whole real line, (H2) positive regularization lam, (H3) finite
Lipschitz reaction, (H4) nonnegative viscosity eps, (B1) finite Hilbert-Schmidt
noise data, (B2) mean-zero multiplicative noise, (B3) positive truncation
bound, (B4) nonnegative integer smoothing level.

Outputs (fixed names inside --out): ``config.ini`` echoes the effective
config; ``series.csv`` holds the per-step diagnostics (simulate) or one row
per sweep value; ``summary.json`` holds metrics plus every assertion with
its pass/fail.  Both data files embed artifact_version and the sha256 of
the echoed config; nothing embeds a timestamp, so identical config and seed
give byte-identical outputs.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 config or
usage error, 3 solver divergence or non-finite diagnostics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import sys
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import experiments as ex
from . import monotone as mn
from . import noise as nz
from . import stepper as st
from .spectral import Domain, SpectralField, basis_field, norm

__all__ = [
    "ParseError",
    "ValidationError",
    "RunConfig",
    "parse_config",
    "emit_config",
    "config_hash",
    "run",
    "main",
]

ARTIFACT_VERSION = 1
ENV_PREFIX = "SVCH_"

MODES = (
    "simulate",
    "continuous_dependence",
    "vanishing_viscosity",
    "yosida_sweep",
    "ensemble",
    "regularity",
)


class ParseError(ValueError):
    """Malformed config text; carries the 1-based line number when known."""

    def __init__(self, message, lineno=None):
        super().__init__(f"line {lineno}: {message}" if lineno else message)
        self.lineno = lineno


class ValidationError(ValueError):
    """Well-formed config with values outside the usable ranges."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one invocation."""

    mode: str = "simulate"
    seed: int = 0
    lengths: tuple = (10.0,)
    modes: tuple = (64,)
    potential: str = "quartic_double_well"
    perturbation: str = "negative_identity"
    perturbation_scale: float = 1.0
    lam: float = 1e-2
    noise_kind: str = "none"
    noise_modes: int = 8
    sigma: float = 0.1
    rho: float = 1.0
    mean_zero: bool = False
    clamp_bound: float = 1.0
    smoothing_level: int = 0
    eps: float = 0.0
    dt: float = 1e-3
    t_final: float = 0.1
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    cg_max_iter: int = 500
    splitting: str = "convex_splitting"
    max_rejections: int = 5
    initial: tuple = ((0, 0.05), (1, 0.4), (2, 0.2), (5, 0.1))
    eps_grid: tuple = (1e-1, 1e-2, 1e-3)
    lam_grid: tuple = (1e-1, 1e-2, 1e-3)
    members: int = 16
    star_offset: float = 1e-3
    offset_mode: int = 1


# (section, key) -> (field name, codec name)
_SCHEMA = {
    ("run", "mode"): ("mode", "str"),
    ("run", "seed"): ("seed", "int"),
    ("domain", "lengths"): ("lengths", "floats"),
    ("domain", "modes"): ("modes", "ints"),
    ("potential", "name"): ("potential", "str"),
    ("potential", "perturbation"): ("perturbation", "str"),
    ("potential", "perturbation_scale"): ("perturbation_scale", "float"),
    ("potential", "lam"): ("lam", "float"),
    ("noise", "kind"): ("noise_kind", "str"),
    ("noise", "modes"): ("noise_modes", "int"),
    ("noise", "sigma"): ("sigma", "float"),
    ("noise", "rho"): ("rho", "float"),
    ("noise", "mean_zero"): ("mean_zero", "bool"),
    ("noise", "clamp_bound"): ("clamp_bound", "float"),
    ("noise", "smoothing_level"): ("smoothing_level", "int"),
    ("solver", "eps"): ("eps", "float"),
    ("solver", "dt"): ("dt", "float"),
    ("solver", "t_final"): ("t_final", "float"),
    ("solver", "newton_tol"): ("newton_tol", "float"),
    ("solver", "newton_max_iter"): ("newton_max_iter", "int"),
    ("solver", "cg_max_iter"): ("cg_max_iter", "int"),
    ("solver", "splitting"): ("splitting", "str"),
    ("solver", "max_rejections"): ("max_rejections", "int"),
    ("initial", "coefficients"): ("initial", "pairs"),
    ("sweep", "eps_grid"): ("eps_grid", "floats"),
    ("sweep", "lam_grid"): ("lam_grid", "floats"),
    ("sweep", "members"): ("members", "int"),
    ("sweep", "star_offset"): ("star_offset", "float"),
    ("sweep", "offset_mode"): ("offset_mode", "int"),
}

_FIELD_TO_SECTION = {f: (s, k) for (s, k), (f, _) in _SCHEMA.items()}


def _decode(codec: str, raw: str):
    raw = raw.strip()
    if codec == "str":
        return raw
    if codec == "int":
        return int(raw)
    if codec == "float":
        return float(raw)
    if codec == "bool":
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if codec == "floats":
        return tuple(float(p) for p in raw.split(",") if p.strip())
    if codec == "ints":
        return tuple(int(p) for p in raw.split(",") if p.strip())
    if codec == "pairs":
        out = []
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            idx, _, val = part.partition(":")
            out.append((int(idx), float(val)))
        return tuple(out)
    raise AssertionError(codec)


def _encode(codec: str, value) -> str:
    if codec == "str":
        return value
    if codec in ("int", "bool"):
        return str(value)
    if codec == "float":
        return repr(float(value))
    if codec == "floats":
        return ",".join(repr(float(v)) for v in value)
    if codec == "ints":
        return ",".join(str(int(v)) for v in value)
    if codec == "pairs":
        return ",".join(f"{int(i)}:{float(v)!r}" for i, v in value)
    raise AssertionError(codec)


def _key_line(text: str, key: str) -> Optional[int]:
    for i, line in enumerate(text.splitlines(), start=1):
        if re.match(rf"\s*{re.escape(key)}\s*[=:]", line):
            return i
    return None


def parse_config(text: str, env: Optional[dict] = None) -> RunConfig:
    """Parse, apply SVCH_* environment overrides, validate, fill defaults."""
    parser = ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except ConfigParserError as err:
        lineno = getattr(err, "lineno", None)
        if lineno is None:
            errs = getattr(err, "errors", None)
            if errs:
                lineno = errs[0][0]
        message = str(err.message if hasattr(err, "message") else err)
        raise ParseError(message.splitlines()[0], lineno=lineno) from err

    values = {}
    for section in parser.sections():
        if section not in {s for s, _ in _SCHEMA}:
            raise ValidationError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            try:
                field_name, codec = _SCHEMA[(section, key)]
            except KeyError:
                raise ValidationError(f"unknown key {key!r} in section [{section}]") from None
            try:
                values[field_name] = _decode(codec, raw)
            except ValueError as err:
                raise ParseError(f"bad value for {section}.{key}: {err}",
                                 lineno=_key_line(text, key)) from err

    env = os.environ if env is None else env
    for (section, key), (field_name, codec) in _SCHEMA.items():
        var = f"{ENV_PREFIX}{section.upper()}_{key.upper()}"
        if var in env:
            try:
                values[field_name] = _decode(codec, env[var])
            except ValueError as err:
                raise ValidationError(f"bad value in {var}: {err}") from err

    config = RunConfig(**values)
    validate_config(config)
    return config


def emit_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) == c."""
    lines = []
    current = None
    for f in fields(RunConfig):
        section, key = _FIELD_TO_SECTION[f.name]
        codec = _SCHEMA[(section, key)][1]
        if section != current:
            if lines:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {_encode(codec, getattr(config, f.name))}")
    lines.append("")
    return "\n".join(lines)


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(emit_config(config).encode("utf-8")).hexdigest()


# assumption labels named by validation failures, by field
_LABELS = {"lam": "H2", "eps": "H4", "perturbation_scale": "H3", "sigma": "B1", "rho": "B1",
           "clamp_bound": "B3"}

# bound on a config's size: its modes times its noise columns (with noise on)
# times its members (in ensemble mode); checked before anything is built, as a
# larger config allocates gigabytes or overflows outside the exit codes
GRID_BUDGET = 2**25


def validate_config(config: RunConfig) -> None:
    """Check what only the INI layer knows, then build the problem once.

    The library constructors check their own invariants and name the
    hypothesis they guard; their ValueErrors become ValidationErrors here.
    """
    for (section, key), (name, codec) in _SCHEMA.items():
        if codec not in ("float", "floats", "pairs"):
            continue
        value = getattr(config, name)
        if codec == "float":
            numbers = (value,)
        elif codec == "pairs":
            numbers = [v for _, v in value]
        else:
            numbers = value
        if not all(map(math.isfinite, numbers)):
            label = f", violates ({_LABELS[name]})" if name in _LABELS else ""
            raise ValidationError(f"{section}.{key} must be finite, got {value!r}{label}")
    if config.mode not in MODES:
        raise ValidationError(f"unknown mode {config.mode!r}; choose from {MODES}")
    total = math.prod(config.modes)  # exact; np.prod wraps around
    columns = config.noise_modes if config.noise_kind != "none" else 1
    members = config.members if config.mode == "ensemble" else 1
    size = total * max(1, columns) * max(1, members)
    if size > GRID_BUDGET:
        raise ValidationError(
            f"config asks for {size} values at once (modes x noise modes x members), "
            f"over the budget of {GRID_BUDGET}")
    try:
        _build(config)
    except ValueError as err:
        raise ValidationError(str(err)) from err

    if config.noise_kind == "multiplicative" and not config.mean_zero:
        raise ValidationError("multiplicative noise must be declared mean-zero, violates (B2)")
    if config.mode == "ensemble":
        if config.members < ex.MIN_MEMBERS:
            raise ValidationError(f"ensemble needs at least {ex.MIN_MEMBERS} members")
        if config.noise_kind == "none":
            raise ValidationError("ensemble mode needs a noise section with kind != none")
    if config.mode == "continuous_dependence":
        if config.star_offset <= 0:
            raise ValidationError("star_offset must be positive")
        if not 1 <= config.offset_mode < total:
            raise ValidationError(
                "offset_mode must be a nonconstant mode index (the offset may "
                "not move the spatial mean)")
    if not config.eps_grid or not config.lam_grid:
        raise ValidationError("sweep grids may not be empty")
    if config.mode == "vanishing_viscosity" and len(set(config.eps_grid)) < 2:
        raise ValidationError("vanishing_viscosity needs at least two distinct eps values")
    if config.mode == "yosida_sweep" and len(set(config.lam_grid)) < 2:
        raise ValidationError("yosida_sweep needs at least two distinct lam values")


# ---------------------------------------------------------------------------
# execution


def _build(config: RunConfig):
    domain = Domain(tuple(config.lengths), tuple(config.modes))
    coeffs = np.zeros(domain.modes)
    for idx, val in config.initial:
        if not 0 <= idx < coeffs.size:
            raise ValueError(f"initial coefficient index {idx} out of range [0, {coeffs.size})")
        coeffs.flat[idx] = val
    u0 = SpectralField(domain, coeffs)
    graph = mn.make_graph(config.potential)
    pert = mn.make_perturbation(config.perturbation, config.perturbation_scale)
    solver = st.SolverConfig(
        graph=graph,
        perturbation=pert,
        eps=config.eps,
        lam=config.lam,
        dt=config.dt,
        t_final=config.t_final,
        newton_tol=config.newton_tol,
        newton_max_iter=config.newton_max_iter,
        cg_max_iter=config.cg_max_iter,
        splitting=config.splitting,
        max_rejections=config.max_rejections,
    )
    operator = None
    if config.noise_kind != "none":
        operator = nz.diffusion_operator(
            domain,
            config.noise_modes,
            kind=config.noise_kind,
            sigma=config.sigma,
            rho=config.rho,
            mean_zero=config.mean_zero,
            clamp_bound=config.clamp_bound,
        )
        if config.smoothing_level != 0:
            operator = nz.smooth(operator, config.smoothing_level)
        try:  # the Wiener process owns the seed's range
            nz.WienerProcess(operator.mode_count, config.seed)
        except ValueError as err:
            raise ValueError(f"run.seed: {err}") from err
    return solver, ex.ProblemData(u0, operator=operator)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, hash_: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# artifact_version={ARTIFACT_VERSION} config_hash={hash_}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _assertion_dicts(assertions):
    return [
        {"name": a.name, "passed": bool(a.passed), "value": a.value, "bound": a.bound}
        for a in assertions
    ]


def _write_summary(path: Path, hash_: str, payload: dict) -> None:
    payload = dict(payload)
    payload["artifact_version"] = ARTIFACT_VERSION
    payload["config_hash"] = hash_
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _run_simulate(config, solver, data):
    traj = st.simulate(data.u0, solver, ex._noise(data.operator, config.seed))
    columns = ex.run_diagnostics(traj)
    assertions = ex.check_invariants(traj, columns)
    header = list(columns)
    # tolist gives plain floats, whose repr the rows are written with
    rows = np.column_stack(list(columns.values())).tolist()
    summary = {
        "mode": config.mode,
        "metrics": {
            "steps": len(rows) - 1,
            "final_energy": float(columns["energy"][-1]),
            "final_mean": float(columns["mean_u"][-1]),
        },
        "assertions": _assertion_dicts(assertions),
        "passed": all(a.passed for a in assertions),
    }
    return header, rows, summary


def _sweep_rows(report):
    # a series shorter than the sweep (consecutive distances) is padded with ""
    names = sorted(report.metrics)
    header = [report.variable] + names
    rows = []
    for i, value in enumerate(report.values):
        series = [report.metrics[n] for n in names]
        rows.append([value] + [s[i] if i < len(s) else "" for s in series])
    return header, rows


def _run_study(config, solver, data):
    seed = config.seed if data.operator is not None else None
    if config.mode == "continuous_dependence":
        grid = tuple(sorted(set(config.eps_grid)))
        offset_dir = basis_field(data.u0.domain, config.offset_mode)
        scale = config.star_offset / norm(offset_dir, "star")
        if not math.isfinite(scale):
            raise ValueError(f"star_offset {config.star_offset!r} gives an offset "
                             "outside float range")
        offset = scale * offset_dir
        data2 = replace(data, u0=data.u0 + offset)
        report = ex.continuous_dependence_study(data, data2, grid, config.seed, solver)
    elif config.mode == "vanishing_viscosity":
        grid = tuple(sorted(set(config.eps_grid), reverse=True))
        report = ex.vanishing_viscosity_study(data, grid, seed, solver)
    elif config.mode == "yosida_sweep":
        grid = tuple(sorted(set(config.lam_grid), reverse=True))
        report = ex.yosida_convergence_study(data, grid, seed, solver)
    elif config.mode == "regularity":
        grid = tuple(sorted(set(config.eps_grid)))
        growth = "cubic" if mn.polynomial_degree(solver.graph) == 3 else None
        report = ex.regularity_study(data, grid, seed, solver, growth=growth)
    else:
        raise AssertionError(config.mode)

    header, rows = _sweep_rows(report)
    summary = {
        "mode": config.mode,
        "metrics": {k: list(v) for k, v in report.metrics.items()},
        "values": list(report.values),
        "assertions": _assertion_dicts(report.assertions),
        "passed": report.passed,
    }
    return header, rows, summary


def _run_ensemble(config, solver, data):
    grid = tuple((e, l) for e in config.eps_grid[:2] for l in config.lam_grid[:2])
    report = ex.ensemble_expectations(data, solver, config.members, config.seed,
                                      grid=grid)
    header = ["estimate", "mean", "stderr"]
    rows = [[k, report.mc_mean[k], report.mc_stderr[k]] for k in sorted(report.mc_mean)]
    summary = {
        "mode": config.mode,
        "members": report.members,
        "grid": [list(p) for p in report.values],
        "mc_mean": report.mc_mean,
        "mc_stderr": report.mc_stderr,
        "assertions": _assertion_dicts(report.assertions),
        "passed": report.passed,
    }
    return header, rows, summary


def run(config: RunConfig, out_dir, quiet: bool = False) -> int:
    """Execute one config and write config.ini, series.csv, summary.json.

    A config error (exit 2) writes nothing; a solver failure (exit 3) writes
    config.ini alone.
    """
    failure = None
    try:
        solver, data = _build(config)
        if config.mode == "simulate":
            header, rows, summary = _run_simulate(config, solver, data)
        elif config.mode == "ensemble":
            header, rows, summary = _run_ensemble(config, solver, data)
        else:
            header, rows, summary = _run_study(config, solver, data)
    except ValueError as err:
        # PreconditionViolated, ValidationError, DimensionMismatch and the
        # constructor rejections are all ValueError subclasses: every one is
        # a config problem
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (st.NewtonDiverged, st.StepRejected, ex.NonFinite) as err:
        failure = err

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = emit_config(config)
    hash_ = hashlib.sha256(echo.encode("utf-8")).hexdigest()
    (out / "config.ini").write_text(echo)
    if failure is not None:
        print(f"solver failure: {failure}", file=sys.stderr)
        return 3
    _write_csv(out / "series.csv", hash_, header, rows)
    _write_summary(out / "summary.json", hash_, summary)

    failed = [a for a in summary["assertions"] if not a["passed"]]
    if not quiet:
        for a in summary["assertions"]:
            print(f"{'PASS' if a['passed'] else 'FAIL'} {a['name']}")
        print(f"{config.mode}: {'all assertions passed' if not failed else 'FAILED'} "
              f"({len(summary['assertions'])} checks), outputs in {out}")
    if failed:
        print(f"assertion failed: {failed[0]['name']}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="svch",
        description="Run a regularized stochastic Cahn-Hilliard simulation or study.",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="INI config file (defaults alone give a deterministic run)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed from the config file")
    parser.add_argument("--out", type=Path, default=Path("svch_out"),
                        help="output directory (created if missing)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-assertion stdout lines")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        if args.seed is not None:
            config = replace(config, seed=args.seed)  # run's _build checks it
    except (ParseError, ValidationError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    return run(config, args.out, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
