"""
Every name ``svch`` exports earns its place.

API that only tests use goes, unless it is an oracle.  So each name in a
module's ``__all__`` has a caller in ``src/svch`` besides its own definition
(a string naming it counts, as ``cli._STUDIES`` names the studies it looks
up), or its docstring says that it is an object of the paper or an oracle, or the
benchmark hooks it: ``bench/tracing.py`` wraps the names in its ``HOOKS``
from outside the package, so those stay until the benchmark stops reading
them.  The check reads the sources with ``ast`` and imports ``HOOKS``
read-only, as ``test_bench_hooks.py`` does.
"""

import ast
import sys
import types
from pathlib import Path

import svch
from svch import experiments, monotone, noise, spectral, stepper

SRC = Path(svch.__file__).resolve().parent
sys.path.insert(0, str(SRC.parents[1] / "bench"))

from tracing import HOOKS  # noqa: E402

TAGS = ("the paper", "oracle")


def _unclaimed(sources: dict, hooked) -> list:
    """Exported names with no package caller, no paper or oracle tag and no hook."""
    trees = [ast.parse(text) for text in sources.values()]
    alls = [node for tree in trees for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
    exported = [elt.value for node in alls for elt in node.value.elts]
    defs = {node.name: node for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    # names loaded or looked up as attributes anywhere, and strings that name
    # them (cli._STUDIES looks its studies up by name), but not inside their
    # own top-level definition or in __all__; imports hold aliases
    used = set()
    for tree in trees:
        for top in tree.body:
            if top in alls:
                continue
            refs = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(top)
                    if isinstance(n, (ast.Name, ast.Attribute))}
            refs |= {n.value for n in ast.walk(top)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)}
            used |= refs - {getattr(top, "name", None)}

    def tagged(name):
        doc = ast.get_docstring(defs[name]) if name in defs else None
        return any(tag in " ".join((doc or "").split()).lower() for tag in TAGS)

    return [name for name in exported
            if name not in used and not tagged(name) and name not in hooked]


def test_the_scan_finds_uncalled_untagged_unhooked_exports():
    sources = {
        "a": ('__all__ = ["used", "paper", "oracle", "hooked", "idle", "selfish"]\n'
              "def used():\n    pass\n"
              'def paper():\n    """An object of the\n    paper."""\n'
              'def oracle():\n    """Kept as an Oracle for the solver."""\n'
              "def hooked():\n    pass\n"
              "def idle():\n    pass\n"
              "def selfish():\n    return selfish()\n"),
        "b": "from .a import idle, used\n\ndef f():\n    return used()\n",
    }
    assert _unclaimed(sources, {"hooked"}) == ["idle", "selfish"]


def test_every_export_has_a_caller_a_tag_or_a_hook():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert {"spectral", "noise", "stepper", "__init__"} <= set(sources)
    hooked = {hook.target.partition(":")[2] for hook in HOOKS}
    assert _unclaimed(sources, hooked) == []


def test_a_string_naming_an_export_counts_as_a_caller():
    sources = {
        "a": '__all__ = ["looked_up", "idle"]\ndef looked_up():\n    pass\n'
             "def idle():\n    pass\n",
        "b": 'TABLE = {"mode": ("looked_up", True)}\n',
    }
    assert _unclaimed(sources, set()) == ["idle"]


def test_without_hooks_only_the_benchmark_names_stay_unclaimed():
    # what lifting the HOOKS pin leaves: the names the benchmark alone reads
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unclaimed(sources, set()) == []


def test_the_package_namespace_is_the_union_of_the_module_lists():
    # svch republishes each module's __all__ and nothing else; the lists are
    # disjoint, since a name in two of them would be shadowed silently
    modules = (spectral, monotone, noise, stepper, experiments)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert all(getattr(svch, name) is getattr(module, name)
               for module in modules for name in module.__all__)
    public = {name for name in vars(svch) if not name.startswith("_")}
    submodules = {name for name in public if isinstance(getattr(svch, name), types.ModuleType)}
    assert submodules <= {module.__name__.rpartition(".")[2] for module in modules} | {"cli"}
    assert public - submodules == set(names)
    assert svch.__version__ == "0.1.0"
