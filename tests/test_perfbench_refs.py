"""Every mvfa name that the benchmark's workloads use still exists.

The test suite never runs perfbench (a one-second ``large_bank`` run takes
about five seconds), so a deleted or renamed mvfa function would only show
when the benchmark runs. This test reads ``perfbench/workloads.py`` with
``ast``, without importing or running it, and resolves every attribute
chain that starts at a name imported from mvfa.
"""

import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

from mvfa.inference import AnomalyResult

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _imported_from_mvfa(tree):
    """Local name -> (dotted source, object) of each name the file imports from mvfa."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mvfa":
            module = importlib.import_module(node.module)
            for alias in node.names:
                source = f"{node.module}.{alias.name}"
                names[alias.asname or alias.name] = (source, _member(module, source))
    return names


def _member(module, source):
    """What ``from module import name`` binds: an attribute or a submodule."""
    name = source.rsplit(".", 1)[1]
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(source)
    except ModuleNotFoundError:
        raise AssertionError(f"{WORKLOADS.name} imports {source}, which does not exist") \
            from None


def _chain(node):
    """(root name, [attributes]) of ``a.b.c``, or None when the root is not a name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


def test_every_mvfa_attribute_in_the_workloads_resolves():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS))
    imported = _imported_from_mvfa(tree)
    assert imported, f"{WORKLOADS.name} imports nothing from mvfa"
    checked, missing = 0, []
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain is None or chain[0] not in imported:
            continue
        source, obj = imported[chain[0]]
        for attr in chain[1]:
            source += f".{attr}"
            if not hasattr(obj, attr):
                missing.append(f"line {node.lineno}: {source}")
                break
            obj = getattr(obj, attr)
        checked += 1
    assert not missing, f"{WORKLOADS.name} uses mvfa names that do not exist: {missing}"
    assert checked >= 10


def test_the_result_attributes_the_workloads_read_exist_on_anomaly_result():
    """What ``large_bank`` reads of a scored ``result`` is a field or a property.

    ``result`` is bound to ``inference.score_image(...)``, whose return type
    is ``AnomalyResult``; the workload reads ``c_pred``, ``s_pred``,
    ``c_levels_few`` and ``s_levels_few`` of it. The first test cannot see
    these reads, because their root is a local name, and ``large_bank`` is
    not gated, so a field moved or renamed on the class would only show when
    someone runs it by hand.
    """
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS))
    imported = _imported_from_mvfa(tree)
    returns = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and [getattr(t, "id", None) for t in node.targets] == ["result"]):
            root, attrs = _chain(node.value.func)
            scorer = imported[root][1]
            for attr in attrs:
                scorer = getattr(scorer, attr)
            returns.add(typing.get_type_hints(scorer)["return"])
    assert returns == {AnomalyResult}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "result"}
    assert {"c_pred", "s_pred", "c_levels_few", "s_levels_few"} <= read
    fields = {field.name for field in dataclasses.fields(AnomalyResult)}
    missing = [attr for attr in sorted(read - fields) if not isinstance(
        inspect.getattr_static(AnomalyResult, attr, None), property)]
    assert not missing, f"{WORKLOADS.name} reads result attributes that do not exist: " \
                        f"{missing}"
