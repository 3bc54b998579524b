"""The package namespace: every exported name exists, once; no import goes unused."""

import ast
import importlib.util
from pathlib import Path

import qcorr

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves_once():
    assert len(qcorr.__all__) == len(set(qcorr.__all__))
    missing = [name for name in qcorr.__all__ if not hasattr(qcorr, name)]
    assert missing == []
    namespace = {}
    exec("from qcorr import *", namespace)
    assert set(qcorr.__all__) <= set(namespace)


def _unused_imports(path):
    """Names a module imports but never reads (nor lists in __all__)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            read |= set(ast.literal_eval(node.value))
    return imported - read


def test_no_module_leaves_an_import_unused():
    # The benchmark tracer looks some names up in the modules that call them,
    # so those bindings may stay unused; every other import must be read.
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    unused = {}
    for path in sorted((ROOT / "src" / "qcorr").glob("*.py")):
        traced = {name for module, name, _ in layers.WRAPPED if module == f"qcorr.{path.stem}"}
        names = _unused_imports(path) - traced
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}
