"""The benchmark's view of the package: every name it uses must exist.

bench/run.py wraps the names in its ``TRACED`` table by patching
``vars(cls)[attr]`` or the module attribute, so a refactor that removes
or moves one of them would only show when the traced pass crashes.
Likewise every ``module.attr(...)`` call it makes must still bind to the
callee's signature.  The script is read with ``ast``, not imported.
Every traced name must also be called inside the package, or its
per-layer metrics would read 0 calls for a name kept only for the
benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "bench" / "run.py"
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


def _module_calls():
    """Sorted (callee, positional count, keyword names) of each ``module.attr(...)`` call."""
    calls = set()
    for node in ast.walk(_tree()):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name) and func.value.id in MODULES):
            # a *args or **kwargs call records a None keyword or a Starred positional
            calls.add((f"{func.value.id}.{func.attr}",
                       len(node.args) if not any(isinstance(a, ast.Starred) for a in node.args)
                       else None,
                       tuple(kw.arg for kw in node.keywords)))
    return sorted(calls, key=repr)


MODULE_CALLS = _module_calls()


@pytest.mark.parametrize("label", TRACED_NAMES)
def test_traced_name_resolves(label):
    mod, qualname = label.split(".", 1)
    module = importlib.import_module(f"dbpdet.{mod}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        assert callable(vars(getattr(module, cls_name)).get(attr)), label
    else:
        assert callable(getattr(module, qualname, None)), label


def _package_callees():
    """Names called in src/dbpdet, as ``f(...)`` or ``obj.f(...)``."""
    names = set()
    for path in (ROOT / "src" / "dbpdet").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                names.add(getattr(node.func, "attr", getattr(node.func, "id", None)))
    return names


PACKAGE_CALLEES = _package_callees()


@pytest.mark.parametrize("label", TRACED_NAMES)
def test_traced_name_is_called_in_package(label):
    assert label.rsplit(".", 1)[-1] in PACKAGE_CALLEES, f"nothing in dbpdet calls {label}"


@pytest.mark.parametrize("callee,n_positional,keywords", MODULE_CALLS,
                         ids=[f"{c}({n},{','.join(map(str, k))})" for c, n, k in MODULE_CALLS])
def test_benchmark_call_binds_to_signature(callee, n_positional, keywords):
    assert n_positional is not None and None not in keywords, "unpacked arguments"
    mod, attr = callee.split(".")
    signature = inspect.signature(getattr(importlib.import_module(f"dbpdet.{mod}"), attr))
    signature.bind(*range(n_positional), **dict.fromkeys(keywords))


def test_benchmark_calls_cover_both_detectors():
    callees = {callee for callee, _, _ in MODULE_CALLS}
    assert {"detectors.mini_nag_mcmc_detect", "detectors.nag_mcmc_detect",
            "fabric.Fabric"} <= callees


def test_module_attributes_used_by_benchmark_exist():
    used = {(node.value.id, node.attr) for node in ast.walk(_tree())
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES}
    assert used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used)
               if not hasattr(importlib.import_module(f"dbpdet.{mod}"), attr)]
    assert not missing
