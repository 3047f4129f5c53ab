"""Source hygiene: every module uses each name it imports and has each
name it exports, each public name has one import path, every private
module-level name has a user, every exception class is raised or
caught, only ``core`` reads an instance's band methods, only
``validate_instance`` reads the integer range and no module imports
scipy when it loads."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stylemix"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return exported


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | _exported_names(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_exist(path):
    # A name deleted but left in __all__ breaks only star imports.
    module = importlib.import_module(f"stylemix.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], f"{path.name} lists names it lacks in __all__: {missing}"


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_each_public_name_has_one_import_path():
    # A re-export is a second spelling of a name that callers then mix.
    elsewhere = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = sorted(_exported_names(tree) - _defined_names(tree))
        if imported:
            elsewhere[path.stem] = imported
    package = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    package_imports = _imported_names(package)
    assert not elsewhere and not package_imports, (
        f"__all__ names defined in another module: {elsewhere}; "
        f"names __init__.py imports: {package_imports}"
    )


def _references(node: ast.AST) -> Counter:
    """Names read, attributes taken and names imported under ``node``."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_private_names_are_referenced_elsewhere():
    # A helper whose last caller was deleted stays importable and unnoticed.
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    everywhere = sum((_references(tree) for tree in trees), Counter())
    unused = [
        name
        for tree in trees
        for name, node in _private_definitions(tree)
        if everywhere[name] - _references(node)[name] <= 0
    ]
    assert unused == [], f"private names nothing else in src/ refers to: {unused}"


def test_each_error_class_is_raised_or_caught():
    # One class per exit code: a class nothing raises and no except in the
    # CLI names is a second spelling of an error that one already reports.
    errors = importlib.import_module("stylemix.errors")
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == errors.__name__
    }
    raised = {
        node.exc.func.id
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
    }
    caught = set()
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {t.id for t in types if isinstance(t, ast.Name)}
    unused = sorted(classes - raised - caught)
    assert unused == [], f"errors.py classes nothing in src/ raises and no except in cli.py names: {unused}"


def _readers(tree: ast.Module, attrs: set[str]):
    """Top-level functions and methods (``Class.method``) that take any of ``attrs``."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if any(isinstance(sub, ast.Attribute) and sub.attr in attrs for sub in ast.walk(member)):
                name = getattr(member, "name", "<module>")
                yield name if member is node else f"{node.name}.{name}"


def test_solvers_read_the_bounds_table_not_the_band_methods():
    readers = {
        f"{path.stem}.{name}"
        for path in MODULES
        if path.stem != "core"
        for name in _readers(
            ast.parse(path.read_text(encoding="utf-8")), {"lower_band", "upper_band", "big_m"}
        )
    }
    assert readers == set(), f"band methods read outside core: {sorted(readers)}"


def test_the_integer_range_has_one_owner():
    # validate_instance states the +-(2**31 - 1) rule; a second reader
    # would be a second copy of it.
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    readers = [
        getattr(node, "name", "<module>")
        for node in tree.body
        if any(
            isinstance(sub, ast.Name) and sub.id == "_MAX_INT" and isinstance(sub.ctx, ast.Load)
            for sub in ast.walk(node)
        )
    ]
    others = [p.stem for p in MODULES if p.stem != "core" and "_MAX_INT" in p.read_text(encoding="utf-8")]
    assert readers == ["validate_instance"] and others == [], (readers, others)


def _load_time_nodes(node: ast.AST):
    """Every node that runs when its module loads: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _load_time_nodes(child)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_scipy_is_imported_only_where_it_is_used(path):
    # scipy is most of a cold CLI start, so it loads on first use.
    found = [
        node.lineno
        for node in _load_time_nodes(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    ]
    assert found == [], f"{path.name} imports scipy at load time on lines {found}"
