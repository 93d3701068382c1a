"""
Every name the benchmark traces exists in svch.

``bench/tracing.py`` wraps the svch objects named in its ``HOOKS`` from
outside the package.  A hook whose target is gone is recorded as absent, and
every metric of its group and layer is then left out of the report without an
error, so a change that deletes or renames a hooked name fails here instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import HOOKS, _binding_sites  # noqa: E402

# targets already gone from svch, whose hooks the benchmark still lists
KNOWN_ABSENT = {"svch.noise:NoiseModel.increment_field"}


def test_every_hook_target_resolves():
    missing = {hook.target for hook in HOOKS if _binding_sites(hook.target) is None}
    assert missing <= KNOWN_ABSENT
