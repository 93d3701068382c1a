"""
Every name ``svch`` exports earns its place.

API that only tests use goes, unless it is an oracle.  So each name in a
module's ``__all__`` has a caller in ``src/svch`` besides its own definition,
or its docstring says that it is an object of the paper or an oracle, or the
benchmark hooks it: ``bench/tracing.py`` wraps the names in its ``HOOKS``
from outside the package, so those stay until the benchmark stops reading
them.  The check reads the sources with ``ast`` and imports ``HOOKS``
read-only, as ``test_bench_hooks.py`` does.
"""

import ast
import sys
from pathlib import Path

import svch

SRC = Path(svch.__file__).resolve().parent
sys.path.insert(0, str(SRC.parents[1] / "bench"))

from tracing import HOOKS  # noqa: E402

TAGS = ("the paper", "oracle")


def _unclaimed(sources: dict, hooked) -> list:
    """Exported names with no package caller, no paper or oracle tag and no hook."""
    trees = [ast.parse(text) for text in sources.values()]
    exported = [elt.value for tree in trees for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in node.value.elts]
    defs = {node.name: node for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    # names loaded or looked up as attributes anywhere, but not inside their
    # own top-level definition; __all__ holds strings and imports hold aliases
    used = set()
    for tree in trees:
        for top in tree.body:
            refs = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(top)
                    if isinstance(n, (ast.Name, ast.Attribute))}
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
