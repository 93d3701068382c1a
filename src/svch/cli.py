"""
Batch front-end: parse an INI run configuration, execute one simulation or
study, and write reproducible artifacts.

Config format: ``key = value`` lines under ``[section]`` headers, UTF-8.
Each RunConfig field names its section, key and value format; every key is
optional and defaults to the field's default.

Precedence: command-line flags > SVCH_<SECTION>_<KEY> environment variables >
config file > defaults.  parse_config(emit_config(c)) == c exactly; floats
are emitted with repr so the round trip is bit-faithful.

Validation builds the problem once, with every sweep grid value in its
solver config; each failure names the assumption it violates, as the library
constructor that checks it labels it: (H1) potential on the whole real line,
(H2) positive regularization lam, (H3) finite Lipschitz reaction, (H4)
nonnegative viscosity eps, (B1) finite Hilbert-Schmidt noise data, (B2)
mean-zero multiplicative noise, (B3) positive truncation bound, (B4)
nonnegative integer smoothing level.

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
from dataclasses import dataclass, field, fields, replace
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

# each study mode: the RunConfig grid it sweeps, the order its study takes it
# in (the CLI runs the grid's distinct values so), the fewest distinct values
# it needs, the name of its study in experiments (looked up per run, so a
# rebinding of the name is seen) and whether the study takes a pair of data
# (the problem, and the problem offset as _offset makes it)
_STUDIES = {
    "continuous_dependence": ("eps_grid", "increasing", 1, "continuous_dependence_study", True),
    "vanishing_viscosity": ("eps_grid", "decreasing", 2, "vanishing_viscosity_study", False),
    "yosida_sweep": ("lam_grid", "decreasing", 2, "yosida_convergence_study", False),
    "regularity": ("eps_grid", "increasing", 1, "regularity_study", False),
}
MODES = ("simulate", *_STUDIES, "ensemble")


class ParseError(ValueError):
    """Malformed config text; carries the 1-based line number when known."""

    def __init__(self, message, lineno=None):
        super().__init__(f"line {lineno}: {message}" if lineno else message)
        self.lineno = lineno


class ValidationError(ValueError):
    """Well-formed config with values outside the usable ranges."""


def _ini(section: str, codec: str, default, key: Optional[str] = None,
         label: Optional[str] = None):
    # a RunConfig field read from [section] key (the field's name unless key is
    # given) by codec; label names the hypothesis a non-finite value violates
    return field(default=default, metadata={"section": section, "key": key,
                                            "codec": codec, "label": label})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one invocation."""

    mode: str = _ini("run", "str", "simulate")
    seed: int = _ini("run", "int", 0)
    lengths: tuple = _ini("domain", "floats", (10.0,))
    modes: tuple = _ini("domain", "ints", (64,))
    potential: str = _ini("potential", "str", "quartic_double_well", key="name")
    perturbation: str = _ini("potential", "str", "negative_identity")
    perturbation_scale: float = _ini("potential", "float", 1.0, label="H3")
    lam: float = _ini("potential", "float", 1e-2, label="H2")
    noise_kind: str = _ini("noise", "str", "none", key="kind")
    noise_modes: int = _ini("noise", "int", 8, key="modes")
    sigma: float = _ini("noise", "float", 0.1, label="B1")
    rho: float = _ini("noise", "float", 1.0, label="B1")
    mean_zero: bool = _ini("noise", "bool", False)
    clamp_bound: float = _ini("noise", "float", 1.0, label="B3")
    smoothing_level: int = _ini("noise", "int", 0)
    eps: float = _ini("solver", "float", 0.0, label="H4")
    dt: float = _ini("solver", "float", 1e-3)
    t_final: float = _ini("solver", "float", 0.1)
    newton_tol: float = _ini("solver", "float", 1e-10)
    newton_max_iter: int = _ini("solver", "int", 30)
    cg_max_iter: int = _ini("solver", "int", 500)
    splitting: str = _ini("solver", "str", "convex_splitting")
    max_rejections: int = _ini("solver", "int", 5)
    # flat_index:value pairs
    initial: tuple = _ini("initial", "pairs", ((0, 0.05), (1, 0.4), (2, 0.2), (5, 0.1)),
                          key="coefficients")
    eps_grid: tuple = _ini("sweep", "floats", (1e-1, 1e-2, 1e-3))
    lam_grid: tuple = _ini("sweep", "floats", (1e-1, 1e-2, 1e-3))
    members: int = _ini("sweep", "int", 16)
    star_offset: float = _ini("sweep", "float", 1e-3)
    offset_mode: int = _ini("sweep", "int", 1)


def _where(f) -> tuple:
    # the (section, key) a RunConfig field is read from
    return f.metadata["section"], f.metadata["key"] or f.name


# (section, key) -> (field name, codec), in field order
_SCHEMA = {_where(f): (f.name, f.metadata["codec"]) for f in fields(RunConfig)}


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
    for (section, key), (name, codec) in _SCHEMA.items():
        if section != current:
            if lines:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {_encode(codec, getattr(config, name))}")
    lines.append("")
    return "\n".join(lines)


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(emit_config(config).encode("utf-8")).hexdigest()


# bound on a config's size: its modes times its noise columns (with noise on)
# times its members (in ensemble mode); checked before anything is built, as a
# larger config allocates gigabytes or overflows outside the exit codes
GRID_BUDGET = 2**25


def validate_config(config: RunConfig) -> None:
    """Check what only the INI layer knows, then build the problem once.

    The library constructors check their own invariants and name the
    hypothesis they guard; their ValueErrors become ValidationErrors here.
    """
    for f in fields(RunConfig):
        codec, label = f.metadata["codec"], f.metadata["label"]
        if codec not in ("float", "floats", "pairs"):
            continue
        value = getattr(config, f.name)
        if codec == "float":
            numbers = (value,)
        elif codec == "pairs":
            numbers = [v for _, v in value]
        else:
            numbers = value
        if not all(map(math.isfinite, numbers)):
            label = f", violates ({label})" if label else ""
            raise ValidationError(f"{'.'.join(_where(f))} must be finite, got {value!r}{label}")
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
    # simulate and ensemble take no grid in order and no pair of data
    grid, _, least, _, paired = _STUDIES.get(config.mode, ("eps_grid", "", 1, "", False))
    try:
        solver, data = _build(config)
        for eps in config.eps_grid:
            replace(solver, eps=eps)
        for lam in config.lam_grid:
            replace(solver, lam=lam)
        if paired:
            _offset(config, data)
    except ValueError as err:
        raise ValidationError(str(err)) from err

    if config.noise_kind == "multiplicative" and not config.mean_zero:
        raise ValidationError("multiplicative noise must be declared mean-zero, violates (B2)")
    if config.mode == "ensemble":
        if config.members < ex.MIN_MEMBERS:
            raise ValidationError(f"ensemble needs at least {ex.MIN_MEMBERS} members")
        if config.noise_kind == "none":
            raise ValidationError("ensemble mode needs a noise section with kind != none")
    if not config.eps_grid or not config.lam_grid:
        raise ValidationError("sweep grids may not be empty")
    if len(set(getattr(config, grid))) < least:
        raise ValidationError(f"{config.mode} needs at least {('one', 'two')[least - 1]} "
                              f"distinct {grid.removesuffix('_grid')} values")


# ---------------------------------------------------------------------------
# execution


def _build(config: RunConfig):
    domain = Domain(tuple(config.lengths), tuple(config.modes))
    coeffs = np.zeros(domain.modes)
    seen = set()
    for idx, val in config.initial:
        if not 0 <= idx < coeffs.size:
            raise ValueError(f"initial coefficient index {idx} out of range [0, {coeffs.size})")
        if idx in seen:
            raise ValueError(f"initial coefficient index {idx} is given twice")
        seen.add(idx)
        coeffs.flat[idx] = val
    u0 = SpectralField(domain, coeffs)
    solver = st.SolverConfig(
        graph=mn.make_graph(config.potential),
        perturbation=mn.make_perturbation(config.perturbation, config.perturbation_scale),
        lam=config.lam,
        # every [solver] field is a SolverConfig field of the same name
        **{f.name: getattr(config, f.name) for f in fields(RunConfig)
           if f.metadata["section"] == "solver"},
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


def _write_csv(path: Path, hash_: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# artifact_version={ARTIFACT_VERSION} config_hash={hash_}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)  # csv writes floats by repr


def _run_simulate(config, solver, data):
    traj = st.simulate(data.u0, solver, ex._noise(data.operator, config.seed))
    columns = ex.run_diagnostics(traj)
    assertions = ex.check_invariants(traj, columns)
    header = list(columns)
    # tolist gives plain floats, whose repr the rows are written with
    rows = np.column_stack(list(columns.values())).tolist()
    metrics = {
        "steps": len(rows) - 1,
        "final_energy": float(columns["energy"][-1]),
        "final_mean": float(columns["mean_u"][-1]),
    }
    return header, rows, {"metrics": metrics}, assertions


def _sweep_rows(report):
    # a series shorter than the sweep (consecutive distances) is padded with ""
    names = sorted(report.metrics)
    header = [report.variable] + names
    rows = []
    for i, value in enumerate(report.values):
        series = [report.metrics[n] for n in names]
        rows.append([value] + [s[i] if i < len(s) else "" for s in series])
    return header, rows


def _offset(config, data):
    # a paired study's second datum: u0 moved by star_offset, in the star
    # norm, along the basis mode offset_mode
    if config.star_offset <= 0:
        raise ValueError("star_offset must be positive")
    if not 1 <= config.offset_mode < data.u0.coeffs.size:
        raise ValueError("offset_mode must be a nonconstant mode index (the offset may "
                         "not move the spatial mean)")
    direction = basis_field(data.u0.domain, config.offset_mode)
    scale = config.star_offset / norm(direction, "star")
    if not math.isfinite(scale):
        raise ValueError(f"star_offset {config.star_offset!r} gives an offset "
                         "outside float range")
    return replace(data, u0=data.u0 + scale * direction)


def _run_study(config, solver, data):
    grid, order, _, study, paired = _STUDIES[config.mode]
    values = tuple(sorted(set(getattr(config, grid)), reverse=order == "decreasing"))
    datas = (data, _offset(config, data)) if paired else (data,)
    report = getattr(ex, study)(*datas, values, config.seed, solver)
    header, rows = _sweep_rows(report)
    payload = {"metrics": {k: list(v) for k, v in report.metrics.items()},
               "values": list(report.values)}
    return header, rows, payload, report.assertions


def _run_ensemble(config, solver, data):
    # the first two distinct values of each grid, in their given order
    eps, lam = (tuple(dict.fromkeys(g))[:2] for g in (config.eps_grid, config.lam_grid))
    grid = tuple((e, l) for e in eps for l in lam)
    report = ex.ensemble_expectations(data, solver, config.members, config.seed,
                                      grid=grid)
    header = ["estimate", "mean", "stderr"]
    rows = [[k, report.mc_mean[k], report.mc_stderr[k]] for k in sorted(report.mc_mean)]
    payload = {"members": report.members, "grid": [list(p) for p in report.values],
               "mc_mean": report.mc_mean, "mc_stderr": report.mc_stderr}
    return header, rows, payload, report.assertions


def run(config: RunConfig, out_dir, quiet: bool = False) -> int:
    """Execute one config and write config.ini, series.csv, summary.json.

    A config error (exit 2) writes nothing; a solver failure (exit 3) writes
    config.ini alone.
    """
    failure = None
    try:
        solver, data = _build(config)
        runner = {"simulate": _run_simulate, "ensemble": _run_ensemble}.get(config.mode,
                                                                            _run_study)
        header, rows, payload, assertions = runner(config, solver, data)
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
    (out / "config.ini").write_text(emit_config(config))
    hash_ = config_hash(config)
    if failure is not None:
        print(f"solver failure: {failure}", file=sys.stderr)
        return 3
    _write_csv(out / "series.csv", hash_, header, rows)
    failed = [a for a in assertions if not a.passed]
    summary = {**payload, "mode": config.mode, "passed": not failed,
               "assertions": [{"name": a.name, "passed": bool(a.passed), "value": a.value,
                               "bound": a.bound} for a in assertions],
               "artifact_version": ARTIFACT_VERSION, "config_hash": hash_}
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")

    if not quiet:
        for a in assertions:
            print(f"{'PASS' if a.passed else 'FAIL'} {a.name}")
        print(f"{config.mode}: {'all assertions passed' if not failed else 'FAILED'} "
              f"({len(assertions)} checks), outputs in {out}")
    if failed:
        print(f"assertion failed: {failed[0].name}", file=sys.stderr)
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
