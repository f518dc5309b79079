"""Each traced module's ``__all__`` names exactly what the module defines.

The benchmark's tracer (``perfbench/tracer.py``) wraps the names in
``__all__`` of the modules it lists and skips a missing name silently, so a
public function left out of ``__all__`` is never timed and a stale entry
reads as a layer that does no work.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_modules():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED_MODULES


def top_level_bindings(module):
    """Names bound by the module's own top-level statements, and the public
    functions and classes among them."""
    tree = ast.parse(Path(module.__file__).read_text())
    bound, public_defs = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public_defs.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return bound, public_defs


@pytest.mark.parametrize("short", traced_modules())
def test_all_matches_the_module(short):
    module = importlib.import_module(f"affine_shuffles.{short}")
    names = module.__all__
    assert len(names) == len(set(names)), "repeated __all__ entry"
    bound, public_defs = top_level_bindings(module)
    assert sorted(set(names) - bound) == [], "__all__ entries the module does not define"
    assert sorted(public_defs - set(names)) == [], "public definitions missing from __all__"
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name
