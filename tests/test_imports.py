"""
Import structure: ``import svch`` loads numpy and the standard library alone.

scipy is imported inside the two routes that use it, the DCT branch of the
transform pair and the exponential graph's resolvent.  The checks run in
fresh interpreters, so that nothing imported by this test process counts,
and so does the README's library example, which prints its documented line.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import svch
from svch import monotone as mn
from svch.spectral import _analysis, _synthesis

SRC = Path(svch.__file__).resolve().parents[1]

_LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"

# small configs shaped like the benchmark workloads: 1D quartic additive
# simulate, 2D 64x64 multiplicative regularity, 1D additive ensemble (8 is
# the fewest members an ensemble accepts)
_RUN_CONFIGS = {
    "simulate_1d": """
[run]
mode = simulate
[domain]
lengths = 10.0
modes = 64
[potential]
name = quartic_double_well
lam = 0.01
[noise]
kind = additive
modes = 8
mean_zero = true
[solver]
dt = 0.05
t_final = 0.5
[initial]
coefficients = 1:0.1
""",
    "regularity_2d": """
[run]
mode = regularity
[domain]
lengths = 20.0, 20.0
modes = 64, 64
[noise]
kind = multiplicative
modes = 16
sigma = 0.2
mean_zero = true
[solver]
dt = 0.05
t_final = 0.1
[initial]
coefficients = 1:0.1, 65:-0.1
[sweep]
eps_grid = 0.01
""",
    "ensemble_1d": """
[run]
mode = ensemble
[domain]
lengths = 10.0
modes = 32
[noise]
kind = additive
modes = 8
mean_zero = true
[solver]
eps = 0.01
dt = 0.02
t_final = 0.1
[initial]
coefficients = 1:0.1, 2:0.05
[sweep]
eps_grid = 0.01
lam_grid = 0.01
members = 8
""",
}


def _fresh(code: str, cwd: Path) -> list[str]:
    # run code in a new interpreter that sees only this checkout's svch
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)})
    return out.stdout.splitlines()


def test_run_path_loads_no_scipy(tmp_path):
    code = "\n".join([
        "import sys, svch, svch.cli as cli",
        f"configs = {_RUN_CONFIGS!r}",
        "print([cli.run(cli.parse_config(text), name, quiet=True) "
        "for name, text in configs.items()])",
        f"print({_LOADED_SCIPY})",
    ])
    codes, loaded = _fresh(code, tmp_path)
    assert codes == "[0, 0, 0]"
    assert loaded == "[]"
    for name in _RUN_CONFIGS:
        assert (tmp_path / name / "summary.json").is_file()


def _scipy_route_inputs():
    rng = np.random.default_rng(7)
    stacks = [rng.standard_normal((3, 256)), rng.standard_normal((2, 100, 96))]
    points = np.concatenate([np.linspace(-150.0, 150.0, 601), rng.uniform(-150, 150, 64)])
    return stacks, points


def _scipy_route_outputs():
    # DCT-route synthesis and analysis of each stack, then the exponential
    # graph's resolvent; all three are above the matrix-route threshold
    stacks, points = _scipy_route_inputs()
    outputs = []
    for coeffs in stacks:
        modes = coeffs.shape[1:]
        outputs.append(_synthesis(coeffs, modes))
        outputs.append(_analysis(outputs[-1], modes))
    outputs.append(mn.resolvent(mn.make_graph("exponential"), 0.01, points))
    return outputs


def test_scipy_routes_load_on_demand(tmp_path):
    code = "\n".join([
        "import sys, numpy as np",
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})",
        "import test_imports as t",
        f"print({_LOADED_SCIPY})",
        "np.savez('out.npz', *t._scipy_route_outputs())",
        "print('scipy.fft' in sys.modules, 'scipy.special' in sys.modules)",
    ])
    before, after = _fresh(code, tmp_path)
    assert before == "[]"
    assert after == "True True"
    with np.load(tmp_path / "out.npz") as fresh:
        got = [fresh[f"arr_{i}"] for i in range(len(fresh.files))]
    want = _scipy_route_outputs()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def _module_level_imports(tree: ast.Module):
    # imports that run when the module is imported: all but function bodies
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            skip.update(id(n) for n in ast.walk(node) if n is not node)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_scipy_at_module_level():
    paths = sorted((SRC / "svch").glob("*.py"))
    assert paths
    for path in paths:
        names = list(_module_level_imports(ast.parse(path.read_text())))
        assert "numpy" in names or path.name == "__init__.py", path.name
        bad = [n for n in names if n == "scipy" or n.startswith("scipy.")]
        assert not bad, f"{path.name} imports {bad} at module level"


def test_every_module_export_is_a_package_export():
    # one export surface: the package re-exports each module's public names;
    # cli is the front end and keeps its own
    from importlib import import_module

    for name in ("spectral", "monotone", "noise", "stepper", "experiments"):
        module = import_module(f"svch.{name}")
        missing = [n for n in module.__all__ if getattr(svch, n, None) is not getattr(module, n)]
        assert not missing, f"svch does not export {missing} from svch.{name}"


def test_readme_example_prints_its_documented_line(tmp_path):
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert _fresh(block, tmp_path) == ["steps: 1200, final sup |u|: 0.773"]
    assert "prints `steps: 1200, final sup |u|: 0.773`" in readme


def _silent_with_blocks(tree: ast.Module) -> list:
    # lines of `with` statements entering a name or attribute called _silent
    def silent(expr):
        return getattr(expr, "id", None) == "_silent" or getattr(expr, "attr", None) == "_silent"

    return [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.With, ast.AsyncWith))
            if any(silent(item.context_expr) for item in node.items)]


def test_no_module_enters_a_shared_errstate_in_a_with_block():
    # monotone._silent and spectral._silent are single np.errstate instances;
    # numpy 2.4 lets one enter only once per process, so a `with` use passes a
    # single run and raises TypeError on the next.  The decorator form makes
    # a fresh context per call.
    assert _silent_with_blocks(ast.parse("with mn._silent:\n    pass\n"
                                         "with np.errstate(all='ignore'), _silent:\n    pass\n"
                                         "@_silent\ndef f():\n    pass\n")) == [1, 3]
    paths = sorted((SRC / "svch").glob("*.py"))
    assert paths
    for path in paths:
        lines = _silent_with_blocks(ast.parse(path.read_text()))
        assert not lines, f"{path.name} enters _silent in a with block at lines {lines}"
