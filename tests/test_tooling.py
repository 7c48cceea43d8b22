"""The benchmark tracer's patch points still name attributes of lrplab.

perfbench/tracing.py wraps every (module, attribute) of its PATCH_POINTS
with ``getattr``/``setattr``; a refactor that drops one of those names
would crash ``perfbench/run.py --trace 1`` and its self-test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patch_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCH_POINTS
    missing = [(module, attr) for module, attr, _ in tracing.PATCH_POINTS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
