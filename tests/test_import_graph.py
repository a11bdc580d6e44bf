"""Package structure, read from the source: the module-level import graph of
``offset6d`` is acyclic, no module hides an import of another package module
inside a function, no module generates code at import (``dataclasses``,
``exec``, ``eval``), ``synth`` and ``formats`` do not dispatch on the analytic
kinds, ``cli`` reads a scene directory only through ``formats``' scene
readers, and every function the benchmark traces exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import offset6d

PACKAGE = Path(offset6d.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def package_imports(node: ast.AST) -> set[str]:
    """The package modules an import statement names (``__init__`` for the
    package itself)."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names if alias.name.split(".")[0] == "offset6d"]
        return {(name.split(".") + ["__init__"])[1] for name in dotted}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0:
        if node.module is None or node.module.split(".")[0] != "offset6d":
            return set()
        parts = node.module.split(".")[1:]
    else:
        parts = node.module.split(".") if node.module else []
    if parts:
        return {parts[0]}
    return {alias.name if alias.name in TREES else "__init__" for alias in node.names}


def module_level_imports(tree: ast.Module) -> set[str]:
    found: set[str] = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            continue
        found |= package_imports(node)
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_no_package_import_inside_a_function():
    hidden = []
    for name, tree in TREES.items():
        for func in (node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)):
            for node in ast.walk(func):
                if package_imports(node):
                    hidden.append(f"{name}.py:{node.lineno}")
    assert hidden == []


def test_formats_imports_nothing_from_synth():
    assert not any("synth" in package_imports(node) for node in ast.walk(TREES["formats"]))


def test_spec_has_one_text_form():
    names = {
        getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
        for tree in TREES.values()
        for node in ast.walk(tree)
    }
    assert "spec_to_pairs" in names
    assert "spec_canonical_string" not in names


def test_no_dispatch_on_analytic_kinds():
    # Each analytic primitive and translation volume carries its own geometry
    # and config name in ``spec``; the generator and the text form call it.
    kinds = {"BoxModel", "CylinderModel", "SphereModel", "BoxVolume", "GaussianVolume"}
    found = []
    for name in ("synth", "formats"):
        for node in ast.walk(TREES[name]):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                named = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.args[1])}
                found += [f"{name}.py:{node.lineno} {kind}" for kind in sorted(named & kinds)]
    assert found == []


def test_cli_reads_scenes_through_the_scene_readers():
    # ``formats.read_encoded_scene`` joins a scene's two tables and
    # ``formats.read_scene_pose`` names its pose file; the CLI calls those.
    table_readers = {"read_encoding", "read_targets", "read_pose"}
    found = [
        f"cli.py:{node.lineno} {name}"
        for node in ast.walk(TREES["cli"])
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in table_readers
    ]
    assert found == []


def test_module_import_graph_is_acyclic():
    graph = {name: module_level_imports(tree) - {name} for name, tree in TREES.items()}
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        assert name not in path, " -> ".join(path + [name])
        if name in done:
            return
        for target in sorted(graph.get(name, ())):
            visit(target, path + [name])
        done.add(name)

    for name in graph:
        visit(name, [])
    assert graph["spec"] == {"geometry", "record"}
    assert graph["record"] == set()
    assert "spec" in graph["formats"] and "formats" in graph["synth"]


def test_no_module_generates_code():
    # Records are built by ``offset6d.record`` without compiling source text;
    # ``dataclasses`` would exec six methods per class on every launch.
    found = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(module.split(".")[0] == "dataclasses" for module in modules):
                found.append(f"{name}.py:{node.lineno} imports dataclasses")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval"):
                found.append(f"{name}.py:{node.lineno} calls {node.func.id}")
    assert found == []


def test_every_traced_layer_function_exists():
    # bench/layers.py names the functions a traced benchmark run wraps and
    # the CLI stages every run launches; a deleted or renamed one would
    # break the benchmark, so it fails here.
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"offset6d.{layer}"), name, None))
    ]
    assert missing == []
    traced = {f"{layer}.{name}" for layer, names in layers.LAYER_FUNCTIONS.items() for name in names}
    assert set(layers.PERCENTILE_SPANS) <= traced
    commands = importlib.import_module("offset6d.cli").main.commands
    assert [stage for stage, _ in layers.STAGES if stage not in commands] == []
