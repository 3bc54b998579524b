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


def _traced():
    """(module, name) of every binding the benchmark tracer looks up."""
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {(module, name) for module, name, _ in layers.WRAPPED}


def test_no_module_leaves_an_import_unused():
    # The benchmark tracer looks some names up in the modules that call them,
    # so those bindings may stay unused; every other import must be read.
    traced = _traced()
    unused = {}
    for path in sorted((ROOT / "src" / "qcorr").glob("*.py")):
        names = {name for name in _unused_imports(path)
                 if (f"qcorr.{path.stem}", name) not in traced}
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


def test_no_top_level_definition_goes_unreferenced():
    # A function or class that no module reads (as a name or an attribute)
    # and the package does not export is dead: a deletion elsewhere left it
    # behind. The benchmark tracer's names may be read by the tracer alone.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "qcorr").glob("*.py"))}
    read = set(qcorr.__all__) | {name for _, name in _traced()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read]
    assert dead == []


def test_no_module_imports_a_private_name_of_another():
    # A helper that two modules need is public in one of them; an
    # underscore name stays inside the module that defines it, whether
    # imported by name or read as an attribute of the imported module.
    paths = sorted((ROOT / "src" / "qcorr").glob("*.py"))
    modules = {path.stem for path in paths}
    private = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()  # names bound to qcorr modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qcorr")):
                private += [f"{path.stem}: {node.module}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
                imported |= {alias.asname or alias.name for alias in node.names
                             if alias.name in modules}
        private += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in imported]
    assert private == []
