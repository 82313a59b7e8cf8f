"""The benchmark's view of the package: every name it uses must exist.

bench/run.py wraps the names in its ``TRACED`` table by patching
``vars(cls)[attr]`` or the module attribute, so a refactor that removes
or moves one of them would only show when the traced pass crashes.  The
script is read with ``ast``, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"
MODULES = ("rng", "channel", "modem", "fabric", "detectors", "experiments")


def _tree():
    return ast.parse(RUN_PY.read_text())


def _traced():
    for node in ast.walk(_tree()):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TRACED"):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no TRACED table")


TRACED_NAMES = [f"{mod}.{name}" for mod, names in _traced().items() for name in names]


@pytest.mark.parametrize("label", TRACED_NAMES)
def test_traced_name_resolves(label):
    mod, qualname = label.split(".", 1)
    module = importlib.import_module(f"dbpdet.{mod}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        assert callable(vars(getattr(module, cls_name)).get(attr)), label
    else:
        assert callable(getattr(module, qualname, None)), label


def test_module_attributes_used_by_benchmark_exist():
    used = {(node.value.id, node.attr) for node in ast.walk(_tree())
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES}
    assert used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used)
               if not hasattr(importlib.import_module(f"dbpdet.{mod}"), attr)]
    assert not missing
