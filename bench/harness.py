"""Workloads, output checks and the closed-loop timer of the svch benchmark.

Every workload is generated from the workload seed as INI text; the program
sees only that text, through its user entry point ``svch.cli.run``.  One run
is one ``cli.run`` call, artifacts included; the next run starts when the
previous one ends (closed loop, one client, one thread).  Why each workload
was chosen, which per-layer metric should move which end-to-end metric, and
why wall time is rescaled by a yardstick, is written down in NOTES.md beside
this file.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from tracing import layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
SETUP_PROBE = BENCH_DIR / "setup_probe.py"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# one workload seed stands for this many program seeds, run in turn, so the
# median time does not hinge on one noise path
CASES_PER_SEED = 8
# nominal yardstick time: wall_s is reported at the machine speed where the
# yardstick takes this long
YARDSTICK_REF_S = 0.04
# relative tolerance of the seed-0 reference values; outputs are bitwise
# reproducible, the slack admits refactors that reorder rounding
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12


class MissingProgram(RuntimeError):
    """The checkout holds no svch sources to benchmark."""


def pin_threads() -> None:
    """One thread per numeric library, here and in every child process.

    Call before numpy or scipy is imported; this module imports neither at
    import time.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_cli():
    """Import ``svch.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "svch" / "cli.py").is_file():
        raise MissingProgram(f"no svch sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import svch.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "svch").resolve():
        raise MissingProgram(f"svch was imported from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# workloads

WORKLOADS = ("readme_1d", "regularity_2d", "ensemble_1d")
# the yardstick whose slowdowns on this box tracked the workload's best
YARDSTICK_KIND = {"readme_1d": "calls", "regularity_2d": "arrays", "ensemble_1d": "calls"}


def workload_settings(name: str, seed: int) -> dict:
    """INI sections for one workload; the seed is the only varying input."""
    if name == "readme_1d":
        # the README library example, cut from 1200 to 200 steps
        return {
            "run": {"mode": "simulate", "seed": seed},
            "domain": {"lengths": (10.0,), "modes": (64,)},
            "potential": {"name": "quartic_double_well", "lam": 1e-2},
            "noise": {"kind": "additive", "modes": 8, "sigma": 0.1, "mean_zero": True},
            "solver": {"eps": 0.0, "dt": 0.05, "t_final": 10.0},
            "initial": {"coefficients": ((1, 0.1),)},
        }
    if name == "regularity_2d":
        import numpy as np

        modes = (64, 64)
        indices = [i * modes[1] + j for i in range(4) for j in range(4) if i or j]
        amplitudes = np.random.default_rng(seed).uniform(-0.2, 0.2, len(indices))
        return {
            "run": {"mode": "regularity", "seed": seed},
            "domain": {"lengths": (20.0, 20.0), "modes": modes},
            "noise": {"kind": "multiplicative", "modes": 16, "sigma": 0.2,
                      "mean_zero": True},
            "solver": {"dt": 0.05, "t_final": 0.4},
            "initial": {"coefficients": tuple(zip(indices, map(float, amplitudes)))},
            "sweep": {"eps_grid": (0.01, 0.1)},
        }
    if name == "ensemble_1d":
        return {
            "run": {"mode": "ensemble", "seed": seed},
            "domain": {"lengths": (10.0,), "modes": (32,)},
            "potential": {"lam": 1e-2},
            "noise": {"kind": "additive", "modes": 8, "sigma": 0.1, "mean_zero": True},
            "solver": {"eps": 1e-2, "dt": 0.02, "t_final": 0.4},
            "initial": {"coefficients": ((1, 0.1), (2, 0.05))},
            "sweep": {"eps_grid": (1e-2,), "lam_grid": (1e-2,), "members": 16},
        }
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(f"{v[0]}:{float(v[1])!r}" if isinstance(v, tuple) else _ini_value(v)
                        for v in value)
    return str(value)


def render_ini(settings: dict) -> str:
    lines = []
    for section, items in settings.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_ini_value(value)}" for key, value in items.items())
        lines.append("")
    return "\n".join(lines)


def expected_rows(settings: dict) -> int:
    """Data rows series.csv must hold, worked out from the settings alone."""
    mode = settings["run"]["mode"]
    if mode == "simulate":
        solver = settings["solver"]
        return math.ceil(solver["t_final"] / solver["dt"] - 1e-12) + 1
    if mode == "regularity":
        return len(set(settings["sweep"]["eps_grid"]))
    if mode == "ensemble":
        sweep = settings["sweep"]
        # four Monte Carlo estimates per (eps, lam) grid point
        return 4 * len(sweep["eps_grid"][:2]) * len(sweep["lam_grid"][:2])
    raise ValueError(mode)


# Outputs of program seed 0, the first case of workload seed 0: every number
# in summary.json (assertions excepted) and the last row of series.csv.
REFERENCE = {
    "readme_1d": {
        "summary": {
            "metrics.final_energy": -0.12304463267971477,
            "metrics.final_mean": 0.0,
            "metrics.steps": 200,
        },
        "last_row": {
            "t": 10.000000000000007,
            "mean_u": 0.0,
            "star_centered": 1.93588036040346,
            "h_norm": 0.9461565048651713,
            "v1_norm": 0.7463462566464586,
            "v2_norm": 1.1730441778557397,
            "v3_norm": 1.1642984254190358,
            "energy": -0.12304463267971477,
            "gradient_energy": 0.2785163674050907,
            "well_mass": 0.04604506576453296,
            "reaction_mass": -0.4476060658493385,
            "conjugate_mass": 0.1374209000740936,
            "w_l1": 1.0921240613753989,
            "xi_l1": 0.3847325524155487,
        },
    },
    "regularity_2d": {
        "summary": {
            "metrics.cubic_bound.0": 648.9684207237005,
            "metrics.cubic_bound.1": 642.9490983002216,
            "metrics.embedding_constant.0": 0.4856211804152938,
            "metrics.embedding_constant.1": 0.48544939491272815,
            "metrics.eps_lap_smoothed_w_l2.0": 0.006633589764206398,
            "metrics.eps_lap_smoothed_w_l2.1": 0.06236417688612425,
            "metrics.sup_grad_smoothed_w.0": 1.7854121401887122,
            "metrics.sup_grad_smoothed_w.1": 1.7114059659303005,
            "metrics.v3_path.0": 4.087674283608656,
            "metrics.v3_path.1": 4.083202837713191,
            "metrics.xi_grad_l2.0": 0.7094364475793433,
            "metrics.xi_grad_l2.1": 0.7114263874426012,
            "metrics.xi_l2.0": 1.2295111071865812,
            "metrics.xi_l2.1": 1.2307581951165052,
            "values.0": 0.01,
            "values.1": 0.1,
        },
        "last_row": {
            "eps": 0.1,
            "cubic_bound": 642.9490983002216,
            "embedding_constant": 0.48544939491272815,
            "eps_lap_smoothed_w_l2": 0.06236417688612425,
            "sup_grad_smoothed_w": 1.7114059659303005,
            "v3_path": 4.083202837713191,
            "xi_grad_l2": 0.7114263874426012,
            "xi_l2": 1.2307581951165052,
        },
    },
    "ensemble_1d": {
        "summary": {
            "grid.0.0": 0.01,
            "grid.0.1": 0.01,
            "mc_mean.conjugate_mass_path[eps=0.01,lam=0.01]": 0.0007996997483704504,
            "mc_mean.grad_l2_sq[eps=0.01,lam=0.01]": 0.00839783438217162,
            "mc_mean.sup_star_sq[eps=0.01,lam=0.01]": 1.3519029793349084,
            "mc_mean.well_mass_path[eps=0.01,lam=0.01]": 0.00026682027647227625,
            "mc_stderr.conjugate_mass_path[eps=0.01,lam=0.01]": 0.00015247519662185883,
            "mc_stderr.grad_l2_sq[eps=0.01,lam=0.01]": 0.000870866258466105,
            "mc_stderr.sup_star_sq[eps=0.01,lam=0.01]": 0.1892467129038855,
            "mc_stderr.well_mass_path[eps=0.01,lam=0.01]": 5.0892572867392914e-05,
            "members": 16,
        },
        "last_row": {
            "estimate": "well_mass_path[eps=0.01,lam=0.01]",
            "mean": 0.00026682027647227625,
            "stderr": 5.0892572867392914e-05,
        },
    },
}


# ---------------------------------------------------------------------------
# output checks


def _numbers(node, path=""):
    """Flatten the numeric leaves of a JSON value into {path: number}."""
    if isinstance(node, bool):
        return {}
    if isinstance(node, (int, float)):
        return {path: node}
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = ((str(i), v) for i, v in enumerate(node))
    else:
        return {}
    out = {}
    for key, value in items:
        out.update(_numbers(value, f"{path}.{key}" if path else key))
    return out


def read_outputs(out_dir: Path):
    """(summary numbers, last series row, data row count) of one run."""
    summary = json.loads((out_dir / "summary.json").read_text())
    with open(out_dir / "series.csv", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    last = {}
    for key, raw in zip(header, data[-1] if data else []):
        try:
            last[key] = float(raw)
        except ValueError:
            last[key] = raw
    return summary, last, len(data)


def _close(value, ref) -> bool:
    if isinstance(ref, str) or isinstance(value, str):
        return value == ref
    return abs(value - ref) <= REFERENCE_RTOL * abs(ref) + REFERENCE_ATOL


def check_outputs(out_dir: Path, rc, rows: int, reference: Optional[dict] = None) -> list:
    """Problems with one run's artifacts; an empty list means the run passed."""
    if rc is None:
        return ["cli.run raised"]
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        summary, last, n_rows = read_outputs(out_dir)
    except (OSError, ValueError, IndexError) as err:
        return [f"unreadable artifacts: {err}"]
    problems = [f"assertion failed: {a['name']}"
                for a in summary.get("assertions", []) if not a.get("passed")]
    if not summary.get("passed") or not summary.get("assertions"):
        problems.append("summary does not report passed assertions")
    if n_rows != rows:
        problems.append(f"series.csv has {n_rows} rows, expected {rows}")
    numbers = _numbers({k: v for k, v in summary.items()
                        if k not in ("assertions", "artifact_version")})
    problems += [f"{k} = {v!r} is not finite" for k, v in numbers.items()
                 if not math.isfinite(v)]
    if reference is not None:
        for kind, got in (("summary", numbers), ("last_row", last)):
            for key, ref in reference[kind].items():
                if key not in got or not _close(got[key], ref):
                    problems.append(f"{kind} {key} = {got.get(key)!r}, reference {ref!r}")
    return problems


# ---------------------------------------------------------------------------
# runs


@dataclass
class Case:
    """One config the closed loop runs, with what its output must satisfy."""

    ini: str
    config: object
    rows: int
    reference: Optional[dict] = None


def workload_cases(cli, name: str, seed: int, count: int = CASES_PER_SEED) -> list:
    """Program seeds seed*count .. seed*count + count - 1; the seed-0 reference
    applies to program seed 0."""
    cases = []
    for k in range(count):
        settings = workload_settings(name, seed * count + k)
        ini = render_ini(settings)
        reference = REFERENCE[name] if seed * count + k == 0 else None
        cases.append(Case(ini, cli.parse_config(ini, env={}), expected_rows(settings),
                          reference))
    return cases


@dataclass
class Outcome:
    """One closed-loop run: its time, what went wrong, and what it produced."""

    seconds: float
    problems: list
    digest: Optional[str] = None
    traced: bool = False
    layer: dict = field(default_factory=dict)
    case: int = 0
    yardstick_s: Optional[float] = None

    @property
    def passed(self) -> bool:
        return not self.problems


def run_once(cli, case: Case, tracer=None) -> Outcome:
    """Time one ``cli.run`` call, then check and discard its artifacts."""
    out = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    rc = None
    try:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.run(case.config, out, quiet=True)
        except Exception:  # a crash is a failed run, counted and reported
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        problems = check_outputs(out, rc, case.rows, case.reference)
        digest = hashlib.sha256()
        size = 0
        for name in ("config.ini", "series.csv", "summary.json"):
            path = out / name
            if path.is_file():
                data = path.read_bytes()
                digest.update(data)
                size += len(data)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    layer = {}
    if tracer is not None:
        layer = {"cli.artifact_bytes": (size, "B"), **layer_metrics(tracer)}
    return Outcome(seconds, problems, digest.hexdigest(), tracer is not None, layer)


def yardstick(kind: str) -> float:
    """Seconds of a fixed numpy/scipy loop that does not touch svch, about
    40 ms here.

    ``"calls"``: small DCTs and elementwise calls on 128 points, dominated by
    per-call overhead like the 1D workloads.  ``"arrays"``: a cubic Newton
    solve and 2D DCTs on 128x128 arrays, like the 2D workload.
    """
    import numpy as np
    from scipy import fft

    small = np.linspace(-1.0, 1.0, 128)
    large = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)
    t0 = time.perf_counter()
    if kind == "calls":
        for _ in range(2000):
            y = fft.dct(small, type=2) / 128.0
            z = np.where(np.abs(y) > 0.01, y * y * y, -y) + small
            float(np.sqrt(np.sum(z * z)))
    else:
        for _ in range(36):
            x = large / 1.01
            for _ in range(8):
                step = (x + 0.01 * x * x * x - large) / (1.0 + 0.03 * x * x)
                x = np.where(np.isfinite(step), x - step, x)
            float(np.sum(fft.dct(fft.dct(x, type=2, axis=0), type=2, axis=1) ** 2))
    return time.perf_counter() - t0


def closed_loop(cli, cases: list, seconds: float, tracer=None,
                yardstick_kind: Optional[str] = None) -> list:
    """Run the cases in turn, back to back, for about ``seconds``.

    With a tracer, untraced and traced runs alternate so both see the same
    machine state.  With a yardstick kind each run records the mean of the
    yardstick timed just before and just after it.
    """
    runs = []
    start = time.perf_counter()
    minimum = 2 if tracer is not None else 1
    before = yardstick(yardstick_kind) if yardstick_kind else None
    while True:
        index = len(runs) % len(cases)
        traced = tracer is not None and len(runs) % 2 == 1
        outcome = run_once(cli, cases[index], tracer if traced else None)
        outcome.case = index
        if yardstick_kind:
            after = yardstick(yardstick_kind)
            outcome.yardstick_s = 0.5 * (before + after)
            before = after
        runs.append(outcome)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.seconds for r in runs)
        if len(runs) >= minimum and elapsed + typical > seconds:
            return runs


def rescale(seconds: float, yardstick_s: float) -> float:
    """Seconds at the nominal machine speed, where the yardstick takes
    ``YARDSTICK_REF_S``."""
    return seconds * YARDSTICK_REF_S / yardstick_s


def consistency_problems(runs: list) -> list:
    """Passing runs of one case must give byte-identical artifacts and, when
    traced, identical counts."""
    passing = [r for r in runs if r.passed]
    problems = []
    for case in {r.case for r in passing}:
        if len({r.digest for r in passing if r.case == case}) > 1:
            problems.append(f"artifacts differ between runs of case {case}")
    traced = [r for r in passing if r.traced]
    for case in {r.case for r in traced}:
        counts = [{k: v for k, (v, unit) in r.layer.items() if unit == "count"}
                  for r in traced if r.case == case]
        if any(c != counts[0] for c in counts[1:]):
            problems.append(f"traced counts differ between runs of case {case}")
    return problems


def probe_setup(ini_text: str, repeats: int = SETUP_REPEATS) -> list:
    """Seconds from process start to a parsed config and a built problem,
    measured on ``repeats`` fresh interpreters one after another, each
    rescaled like a run by the yardstick timed just before and after it."""
    samples = []
    before = yardstick("calls")  # start-up is interpreter work, like the 1D runs
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(SETUP_PROBE)], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True) as proc:
            proc.stdin.write(ini_text)
            proc.stdin.close()
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if ready.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe failed (exit {rc})")
        after = yardstick("calls")
        samples.append(rescale(elapsed, 0.5 * (before + after)))
        before = after
    return samples


# ---------------------------------------------------------------------------
# report


def machine_record(seed: int, repeats: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "svch").glob("*.py")):
        digest.update(path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit or "unknown",
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "repeats": repeats,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe(samples) -> str:
    return (f"median of {len(samples)}, min {min(samples):.4g}, "
            f"max {max(samples):.4g}")
